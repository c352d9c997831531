"""MAC + activation processing element with a deterministic cycle model.

The MAC is one linear-rotation pass (x0 = w, y0 = acc, z0 = x drives
y -> acc + w * x), accumulated in a double-width layout (2x word, 2x
fraction) so products keep full precision until the final narrowing.
``layer`` (batch x units lanes), ``run_batch`` (one lane per row) and
``neuron`` (one lane) share one lane kernel for the MAC fold, ``_fold_raw``,
so scalar and batched results are bit-identical by construction.

Accuracy note: the 0..N-1 linear schedule sums to 2 - 2**(1-N), so the MAC
is exact-to-rounding for |x| below that; operands are expected in the
normalized convention (inputs in [-1, 1], see the activation domain).

Cycle model (canonical path: normalized arguments, k = 0 exponent
reduction, SELU exponential branch), n = n_iters, L = vector length.
Engine passes and multiplier uses each occupy n cycles; the constant
terms are the per-kind adder/shift/mux/FIFO steps:

    kind      engine passes        af_cycles     shift+add pairs
    relu      none (buffer)        1             0
    tanh      HR + LV              2n            3n
    sigmoid   HR + LV              2n + 3        3n
    swish     HR + LV + 1 mul      3n + 3        3n
    gelu      HR + LV + 5 mul      7n + 3        3n
    selu      HR + 1 mul           2n + 1        2n
    softmax   (HR + LV) per elem   L * (2n + 4)  L * 3n
    mac       LR per element       L * n         L * n

A hyperbolic/circular pass costs two shift-add pairs per iteration (x and
y lanes), a linear pass one (y lane); multiplier uses execute no pairs.  ``total`` is mac + af for the iterative strategy and
max(stage depths) for the pipelined one (initiation-interval view).
Reported ``shift_add_ops`` equals the instrumented count from
``cordic.count_ops`` on the same canonical path.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

from .activation import AfConfig, AfKind, clamp_domain_raw, eval_raw, softmax_raw
from .cordic import LR_RANGE, CordicMode, Drive, _engine_pass
from .fixedpoint import FORMATS, Fx, FxFormat, convert_raw, quantize_raw

__all__ = [
    "ExecStrategy",
    "NeuricConfig",
    "CycleReport",
    "acc_format",
    "mac",
    "neuron",
    "layer",
    "cycles",
    "run_batch",
    "run_batch_file",
]


class ExecStrategy(enum.Enum):
    ITERATIVE = "iterative"
    PIPELINED = "pipelined"


def acc_format(fmt: FxFormat) -> FxFormat:
    """Double-width MAC accumulator layout (Q3.12 -> Q7.24, Q2.5 -> Q5.10)."""
    return FxFormat(2 * fmt.word_bits, 2 * fmt.frac_bits)


@dataclass(frozen=True)
class NeuricConfig:
    """Processing-element configuration: I/O format (8- or 16-bit preset
    widths), activation config on the same format, execution strategy."""

    fmt: FxFormat
    af: AfConfig
    strategy: ExecStrategy = ExecStrategy.ITERATIVE
    n_iters: int | None = None

    def __post_init__(self) -> None:
        if self.fmt.word_bits not in (8, 16):
            raise ValueError("PE formats are 8- or 16-bit words")
        if self.af.fmt != self.fmt:
            raise ValueError("activation config format must match PE format")
        if self.n_iters is None:
            object.__setattr__(self, "n_iters", self.af.n_iters)
        if self.n_iters != self.af.n_iters:
            raise ValueError("n_iters must agree with the activation config")


@dataclass(frozen=True)
class CycleReport:
    mac_cycles: int
    af_cycles: int
    total: int
    shift_add_ops: int


# (hyperbolic/circular passes, linear passes, multiplier uses, fixed overhead)
_AF_COSTS = {
    AfKind.RELU: (0, 0, 0, 1),
    AfKind.TANH: (1, 1, 0, 0),
    AfKind.SIGMOID: (1, 1, 0, 3),
    AfKind.SWISH: (1, 1, 1, 3),
    AfKind.GELU: (1, 1, 5, 3),
    AfKind.SELU: (1, 0, 1, 1),
    AfKind.SOFTMAX: (1, 1, 0, 4),
}


def cycles(cfg: NeuricConfig, vector_len: int) -> CycleReport:
    """Deterministic cycle/operation model for one MAC fold of
    ``vector_len`` products plus one activation on the result."""
    if vector_len < 1:
        raise ValueError("vector_len must be >= 1")
    n, length = cfg.n_iters, vector_len
    hr, lv, muls, fixed = _AF_COSTS[cfg.af.kind]
    per_elem = cfg.af.kind is AfKind.SOFTMAX
    scale = length if per_elem else 1
    mac_cycles = length * n
    af_cycles = scale * ((hr + lv + muls) * n + fixed)
    af_sa = scale * (2 * hr + lv) * n
    if cfg.strategy is ExecStrategy.ITERATIVE:
        total = mac_cycles + af_cycles
    else:
        total = max(mac_cycles, af_cycles)
    return CycleReport(mac_cycles, af_cycles, total, mac_cycles + af_sa)


# ---------------------------------------------------------------------------
# arithmetic

def _mac_raw(acc, x, w, io_fmt: FxFormat, acc_fmt: FxFormat, n: int, sat=False):
    """acc + w * x over raw lanes; acc in ``acc_fmt``, x/w in ``io_fmt``."""
    g = acc_fmt.frac_bits - io_fmt.frac_bits
    gg = acc_fmt.with_guard().frac_bits - acc_fmt.frac_bits
    # clamp z0 to the published linear-rotation bound
    zmax = min(int(np.rint(LR_RANGE * (1 << acc_fmt.frac_bits))), acc_fmt.max_raw)
    z0 = np.clip(np.asarray(x, dtype=np.int64) << g, -zmax, zmax) << gg
    x0 = np.asarray(w, dtype=np.int64) << (g + gg)
    y0 = np.asarray(acc, dtype=np.int64) << gg
    _, y, _, sat = _engine_pass(x0, y0, z0, sat, CordicMode.LINEAR, Drive.ROTATION, acc_fmt, n)
    return y, sat


def _fold_raw(b, x, w, sat, cfg: NeuricConfig, lengths=None):
    """Bias plus one ``_mac_raw`` per input position (last axis of ``x``,
    ``w``; ``sat`` has the lane shape, the other axes and ``b`` broadcast to
    it), narrowed to the I/O format and clamped to the activation domain.
    With ``lengths`` (lanes sorted by descending length), position l runs
    only the leading lanes still inside their length."""
    io, afmt, n = cfg.fmt, acc_format(cfg.fmt), cfg.n_iters
    sat = np.array(sat, dtype=bool)
    acc = np.broadcast_to(np.asarray(b, dtype=np.int64) << (afmt.frac_bits - io.frac_bits),
                          sat.shape).copy()
    for l in range(x.shape[-1]):
        k = None if lengths is None else int(np.count_nonzero(lengths > l))
        acc[:k], sat[:k] = _mac_raw(acc[:k], x[:k, ..., l], w[:k, ..., l], io, afmt, n, sat[:k])
    out, s = convert_raw(acc, afmt, io)
    return clamp_domain_raw(out, cfg.af), sat | s


def _activate(acc, sat, af: AfConfig):
    """The configured activation over fold results; softmax runs along the
    last axis."""
    if af.kind is AfKind.SOFTMAX:
        return softmax_raw(acc, sat, af)
    return eval_raw(af.kind, acc, sat, af)


def mac(acc: Fx, x: Fx, w: Fx, cfg: NeuricConfig) -> Fx:
    """One multiply-accumulate step.  ``x`` and ``w`` are I/O-format values;
    ``acc`` may be in the I/O format or the double-width accumulator format,
    and the result stays in ``acc``'s format."""
    if x.fmt != cfg.fmt or w.fmt != cfg.fmt:
        raise ValueError("x and w must be in the PE I/O format")
    if acc.fmt not in (cfg.fmt, acc_format(cfg.fmt)):
        raise ValueError("acc must be in the I/O or accumulator format")
    raw, sat = _mac_raw(np.array([acc.raw], dtype=np.int64),
                        np.array([x.raw], dtype=np.int64),
                        np.array([w.raw], dtype=np.int64),
                        cfg.fmt, acc.fmt, cfg.n_iters)
    return Fx(int(raw[0]), acc.fmt, bool(sat[0]) or acc.sat or x.sat or w.sat)


def neuron(inputs: list[Fx], weights: list[Fx], bias: Fx, cfg: NeuricConfig) -> Fx:
    """One lane of the shared fold (``_fold_raw``): the MAC over the
    input/weight pairs from the bias, narrowed to the I/O format, clamped
    to the activation domain, then the configured activation."""
    if len(inputs) != len(weights) or not inputs:
        raise ValueError("inputs and weights must be equal-length and nonempty")
    if any(v.fmt != cfg.fmt for v in (bias, *inputs, *weights)):
        raise ValueError("bias, inputs and weights must be in the PE I/O format")
    x = np.array([[v.raw for v in inputs]], dtype=np.int64)
    w = np.array([[v.raw for v in weights]], dtype=np.int64)
    sat = np.array([any(v.sat for v in (bias, *inputs, *weights))])
    acc, sat = _fold_raw(np.array([bias.raw]), x, w, sat, cfg)
    out, sat = _activate(acc[:, None], sat[:, None], cfg.af)
    return Fx(int(out[0, 0]), cfg.fmt, bool(sat[0, 0]))


def layer(x, weights, biases, cfg: NeuricConfig):
    """Batched dense layer: real-valued arrays in, real-valued array out.

    ``x`` is (batch, in_dim), ``weights`` (units, in_dim), ``biases``
    (units,).  One ``_fold_raw`` over (batch, units) lanes runs every
    neuron at once, one engine call per input position; softmax applies
    across units per batch row.  Returns (outputs (batch, units),
    sat_events) where sat_events counts output lanes whose sticky
    saturation flag is set.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    biases = np.asarray(biases, dtype=np.float64)
    if weights.shape[1] != x.shape[1] or biases.shape != (weights.shape[0],):
        raise ValueError("shape mismatch between x, weights, biases")
    if x.shape[1] == 0:
        raise ValueError("layer needs in_dim >= 1")
    xq, sx = quantize_raw(x, cfg.fmt)
    wq, sw = quantize_raw(weights, cfg.fmt)
    bq, sb = quantize_raw(biases, cfg.fmt)
    sat = sx.any(axis=1)[:, None] | sw.any(axis=1) | sb
    acc, sat = _fold_raw(bq, xq[:, None, :], wq[None, :, :], sat, cfg)
    out, sat = _activate(acc, sat, cfg.af)
    return out * cfg.fmt.lsb, int(sat.sum())


# ---------------------------------------------------------------------------
# batch file interface

def run_batch(payload: dict) -> dict:
    """Evaluate independent neuron rows described by a JSON-style dict:

        {"config": {"format": "fxp16", "af": "tanh", ...},
         "inputs": [[...], ...], "weights": [[...], ...], "bias": [...]}

    Optional config keys: n_iters, strategy, max_norm.  Returns
    {"schema": 1, "outputs": [...], "cycles": {...}, "sat_events": N} with
    cycle counts summed over rows and sat_events counting saturated rows.
    """
    conf = payload.get("config", {})
    fmt = FORMATS[conf.get("format", "fxp16")]
    kind = AfKind(conf.get("af", "tanh"))
    af = AfConfig(kind, fmt, n_iters=conf.get("n_iters"),
                  max_norm=conf.get("max_norm", 5.5))
    cfg = NeuricConfig(fmt, af, ExecStrategy(conf.get("strategy", "iterative")))
    rows = payload["inputs"]
    weights = payload["weights"]
    bias = payload["bias"]
    if not (len(rows) == len(weights) == len(bias)):
        raise ValueError("inputs, weights, bias must have matching row counts")
    if any(len(xs) != len(ws) or not xs for xs, ws in zip(rows, weights)):
        raise ValueError("each row needs equal-length nonempty inputs and weights")
    # lanes sorted by descending length, zero-padded to the longest row
    lengths = np.array([len(xs) for xs in rows], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    inside = np.arange(lengths.max(initial=0)) < lengths[order][:, None]
    xr, wr = np.zeros((2, *inside.shape))
    xr[inside] = [v for r in order for v in rows[r]]
    wr[inside] = [v for r in order for v in weights[r]]
    xq, sx = quantize_raw(xr, fmt)
    wq, sw = quantize_raw(wr, fmt)
    bq, sb = quantize_raw(np.asarray(bias, dtype=np.float64)[order], fmt)
    acc, sat = _fold_raw(bq, xq, wq, sx.any(axis=1) | sw.any(axis=1) | sb, cfg, lengths[order])
    out, sat = _activate(acc[:, None], sat[:, None], af)
    outputs = np.empty(len(order))
    outputs[order] = out[:, 0] * fmt.lsb
    reps = [cycles(cfg, length) for length in lengths.tolist()]
    totals = {key: sum(getattr(r, key) for r in reps)
              for key in ("mac_cycles", "af_cycles", "total", "shift_add_ops")}
    return {"schema": 1, "outputs": outputs.tolist(), "cycles": totals,
            "sat_events": int(sat.sum())}


def run_batch_file(in_path, out_path=None) -> dict:
    with open(in_path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    result = run_batch(payload)
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
    return result
