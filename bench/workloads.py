"""The benchmark's three workloads.

Each workload is a closed loop: one caller, and the next call starts when
the previous one returns.  ``inputs(seed, index)`` draws the inputs of one
call from the workload seed and the call index, outside the timed region,
so no call can reuse another's result.  ``call`` is the only timed code.
``check`` verifies one call's outputs against budgets the acceptance tests
already fix.  On the fixed evidence calls it checks every output and feeds
an ``Evidence`` tally (output digest, saturation, modeled cycles and
shift-adds).  On timed calls, where a check as costly as the call would
halve the time measured per run, af_montecarlo and row_batch re-derive a
rotating part of the outputs instead.  ``errors`` gives a call's error
against a float64 oracle, in output LSB, as (sum, max, lanes).
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from neuric import analysis, pe
from neuric.activation import AfConfig, AfKind, eval_raw, softmax_raw
from neuric.fixedpoint import FXP8, FXP16, FORMATS, quantize_raw

MODEL = Path("tests") / "data" / "spiral_mlp.json"
WARMUP_INDEX = 1 << 30   # call index of the one-item warm-up call; no other call uses it
# control tasks: (one-lane steps, 64k-lane passes, seconds on the reference
# machine, a 2.1 GHz Xeon VM unloaded)
CONTROLS = {"lanes": (0, 8, 0.0075), "mixed": (1000, 4, 0.014)}


def control_s(kind: str) -> float:
    """Seconds of one fixed control task that runs no neuric code.  Other
    tenants of a shared machine slow every call by up to 1.7x for minutes at
    a time, and the control, run before each timed call, slows with it; so
    host times are scaled by the control's reference seconds / (median
    control time of the run).  The task is a Python loop of one-lane numpy
    steps, like the scalar neuron path, then passes over 64k-lane int64
    arrays, like the lane kernels; each workload names the mix whose
    slowdown was measured to track its own (see README.md)."""
    steps, passes, _ = CONTROLS[kind]
    t0 = time.perf_counter()
    a = np.array([12345], dtype=np.int64)
    for i in range(steps):
        a = np.clip(((a >> (i & 15)) + np.where(a > 0, 1, -1)) * 3, -(1 << 20), 1 << 20)
    x = np.arange(1 << 16, dtype=np.int64)
    for i in range(passes):
        x = np.clip((x >> (i % 7)) + np.where(x & 1, x, -x), -(1 << 30), 1 << 30)
    return time.perf_counter() - t0


@dataclass
class Evidence:
    """Deterministic facts about the evidence calls of one run."""

    digest: object = field(default_factory=hashlib.sha256)
    items: int = 0
    sat_lanes: int = 0
    out_lanes: int = 0
    model_cycles: int = 0
    model_shift_adds: int = 0
    model_muls: int = 0
    top1_hits: int = 0
    top1_total: int = 0
    softmax_sum_dev_lsb: dict = field(default_factory=dict)
    softmax_rows_over_budget: dict = field(default_factory=dict)

    def add_codes(self, *arrays) -> None:
        for a in arrays:
            self.digest.update(np.ascontiguousarray(a).tobytes())

    def note_softmax_rows(self, fmt, dev, budget: int) -> None:
        """Worst row-sum deviation, and rows beyond ``budget``, per format."""
        key = fmt.name
        self.softmax_sum_dev_lsb[key] = max(self.softmax_sum_dev_lsb.get(key, 0), int(dev.max()))
        over = int(np.count_nonzero(dev > budget))
        self.softmax_rows_over_budget[key] = self.softmax_rows_over_budget.get(key, 0) + over


def raw_codes(values, fmt) -> np.ndarray:
    """Raw codes of real outputs that are exact multiples of ``fmt.lsb``."""
    return np.rint(np.asarray(values, dtype=np.float64) / fmt.lsb).astype(np.int64)


# the pe cycle model's per-kind cost table; its multiplier uses are not
# otherwise exposed, and the record reports None for them without it
_AF_COSTS = getattr(pe, "_AF_COSTS", None)
MODEL_MULS_KNOWN = _AF_COSTS is not None


def modeled_muls(kind: AfKind) -> int:
    """Multiplier uses per activation on the canonical path of the model."""
    return _AF_COSTS[kind][2] if MODEL_MULS_KNOWN else 0


def error_stats(err_lsb) -> tuple[float, float, int]:
    """(sum, max, lanes) of |error| in LSB."""
    err = np.abs(np.asarray(err_lsb, dtype=np.float64))
    return float(err.sum()), float(err.max()), err.size


def softmax_row_dev(raw_rows, fmt) -> np.ndarray:
    """|sum - 1| of each softmax row, in LSB.  Acceptance criterion 4 allows
    one LSB per element."""
    return np.abs(raw_rows.sum(axis=1) - (1 << fmt.frac_bits))


# ---------------------------------------------------------------------------
# mlp_forward

def spiral(n_per_class: int, rng: np.random.Generator, noise: float = 0.06):
    """Two interleaved spiral arms inside the unit disc, labels 0/1."""
    t = np.linspace(0.25, 1.0, n_per_class)
    theta = t * 3.0 * np.pi
    pts, labels = [], []
    for cls in (0, 1):
        a = theta + cls * np.pi + rng.normal(0.0, noise, n_per_class)
        r = t * 0.95
        pts.append(np.stack([r * np.cos(a), r * np.sin(a)], axis=1))
        labels.append(np.full(n_per_class, cls))
    x = np.concatenate(pts)
    y = np.concatenate(labels)
    order = rng.permutation(len(y))
    return x[order], y[order]


class MlpForward:
    """Fresh spiral points through the shipped 2 -> 16 tanh -> 2 softmax
    model at fxp16 and then fxp8, as demos/spiral_inference.py does.  One
    item is one sample through both widths."""

    TOP1_BUDGET = 0.985      # acceptance criterion 7
    CONTROL = "lanes"
    FORMATS = (FXP16, FXP8)

    def __init__(self, root: Path, size: int):
        blob = json.loads((root / MODEL).read_text())
        self.w1, self.b1, self.w2, self.b2 = (
            np.asarray(blob[k], dtype=np.float64) for k in ("w1", "b1", "w2", "b2"))
        self.size = size
        self.cfgs = {fmt: (pe.NeuricConfig(fmt, AfConfig(AfKind.TANH, fmt)),
                           pe.NeuricConfig(fmt, AfConfig(AfKind.SOFTMAX, fmt)))
                     for fmt in self.FORMATS}

    def inputs(self, seed: int, index: int, size: int | None = None):
        n = self.size if size is None else size
        x, _ = spiral((n + 1) // 2, np.random.default_rng((seed, index)))
        return x[:n]

    def items(self, x) -> int:
        return len(x)

    def call(self, x):
        out = []
        for fmt in self.FORMATS:
            hid, top = self.cfgs[fmt]
            h, s1 = pe.layer(x, self.w1, self.b1, hid)
            p, s2 = pe.layer(h, self.w2, self.b2, top)
            out.append((h, p, s1, s2))
        return out

    def _reference(self, x):
        h = np.tanh(x @ self.w1.T + self.b1)
        logits = h @ self.w2.T + self.b2
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    def check(self, x, out, ev: Evidence | None) -> list[str]:
        ref = self._reference(x)
        problems = []
        for fmt, (h, p, s1, s2) in zip(self.FORMATS, out):
            raw_p = raw_codes(p, fmt)
            agree = p.argmax(axis=1) == ref.argmax(axis=1)
            if fmt is FXP16 and agree.mean() < self.TOP1_BUDGET:
                problems.append(f"fxp16 top1_agree {agree.mean():.4f} < {self.TOP1_BUDGET}")
            dev = softmax_row_dev(raw_p, fmt)
            if dev.max() > p.shape[1]:
                problems.append(f"{fmt.name} softmax row sum off by {dev.max()} LSB")
            if ev is None:
                continue
            ev.add_codes(raw_codes(h, fmt), raw_p, np.array([s1, s2], dtype=np.int64))
            ev.sat_lanes += s2
            ev.out_lanes += p.size
            ev.note_softmax_rows(fmt, dev, p.shape[1])
            if fmt is FXP16:
                ev.top1_hits += int(agree.sum())
                ev.top1_total += len(x)
            hid, top = self.cfgs[fmt]
            hidden, in_dim = self.w1.shape
            classes = self.w2.shape[0]
            # one PE per unit, priced as demos/spiral_inference.py does
            ev.model_cycles += len(x) * (pe.cycles(hid, in_dim).total
                                         + pe.cycles(top, hidden).total)
            # work view: every unit's MAC fold plus one activation per lane
            sm = pe.cycles(top, classes)
            ev.model_shift_adds += len(x) * (
                hidden * pe.cycles(hid, in_dim).shift_add_ops
                + classes * hidden * top.n_iters + sm.shift_add_ops - sm.mac_cycles)
            ev.model_muls += len(x) * (hidden * modeled_muls(AfKind.TANH)
                                       + classes * modeled_muls(AfKind.SOFTMAX))
        if ev is not None:
            ev.items += len(x)
        return problems

    def errors(self, x, out):
        ref = self._reference(x)
        return error_stats(np.concatenate([((p - ref) / fmt.lsb).ravel()
                                           for fmt, (_, p, _, _) in zip(self.FORMATS, out)]))


# ---------------------------------------------------------------------------
# af_montecarlo

class AfMonteCarlo:
    """``analysis.monte_carlo`` for every activation kind at fxp16 and fxp8
    on [-3.5, 3.5], seeded with the workload seed plus the call index.  One
    item is one activation lane (softmax: one element)."""

    LO, HI = -3.5, 3.5
    FORMATS = (FXP16, FXP8)
    CONTROL = "lanes"
    # swish, gelu and selu end in a multiply, so their bounds get this slack
    # (the LSB budget tests/test_activation.py gives their point values)
    RANGE_SLACK_LSB = 2
    # the acceptance tests fix the softmax sum budget for inputs in [-2, 2];
    # wider rows can exceed it and are counted, not failed (see README.md)
    SUM_BUDGET_RANGE = 2.0

    def __init__(self, root: Path, size: int):
        self.size = size
        self.cfgs = {(fmt, kind): AfConfig(kind, fmt)
                     for fmt in self.FORMATS for kind in AfKind}

    @functools.cached_property
    def ranges(self) -> dict:
        grid = np.linspace(self.LO, self.HI, 100_001)
        return {key: self._output_range(key[1], cfg, grid) for key, cfg in self.cfgs.items()}

    def _output_range(self, kind: AfKind, cfg: AfConfig, grid):
        """Closed real interval every output lane must fall in."""
        if kind in (AfKind.SIGMOID, AfKind.SOFTMAX):
            return 0.0, 1.0
        if kind is AfKind.TANH:
            return -1.0, 1.0
        if kind is AfKind.RELU:
            return 0.0, self.HI
        ref = analysis.oracle(kind, grid, cfg)
        # swish and gelu gate x by a factor in [0, 1], so never exceed x
        top = float(ref.max()) if kind is AfKind.SELU else self.HI
        slack = self.RANGE_SLACK_LSB * cfg.fmt.lsb
        return float(ref.min()) - slack, top + slack

    def inputs(self, seed: int, index: int, size: int | None = None):
        n = self.size if size is None else size
        return seed + index, n

    @staticmethod
    def _samples(kind: AfKind, n: int) -> int:
        """Samples drawn per kind: softmax needs at least one whole group."""
        return max(n, analysis.SOFTMAX_GROUP) if kind is AfKind.SOFTMAX else n

    def _lanes(self, kind: AfKind, n: int) -> int:
        n = self._samples(kind, n)
        return n - n % analysis.SOFTMAX_GROUP if kind is AfKind.SOFTMAX else n

    def items(self, inp) -> int:
        _, n = inp
        return len(self.FORMATS) * sum(self._lanes(k, n) for k in AfKind)

    def call(self, inp):
        seed, n = inp
        return [analysis.monte_carlo(kind, cfg, self._samples(kind, n), self.LO, self.HI, seed)
                for (fmt, kind), cfg in self.cfgs.items()]

    def _recompute(self, kind: AfKind, cfg: AfConfig, seed: int, n: int):
        """The raw outputs monte_carlo computes internally, from the same
        seeded samples (it returns only the error report)."""
        rng = np.random.Generator(np.random.PCG64(seed))
        xs = rng.uniform(self.LO, self.HI, self._samples(kind, n))
        if kind is AfKind.SOFTMAX:
            xs = xs[: self._lanes(kind, n)].reshape(-1, analysis.SOFTMAX_GROUP)
            raw, sat = quantize_raw(xs, cfg.fmt)
            out, sat = softmax_raw(raw, sat, cfg)
        else:
            raw, sat = quantize_raw(xs, cfg.fmt)
            out, sat = eval_raw(kind, raw, sat, cfg)
        return xs, out, sat

    def check(self, inp, reports, ev: Evidence | None) -> list[str]:
        seed, n = inp
        pairs = list(self.cfgs.items())
        problems = []
        for ((fmt, kind), cfg), rep in zip(pairs, reports):
            if rep.n != self._lanes(kind, n):
                problems.append(f"{fmt.name} {kind.value}: report covers {rep.n} lanes")
        # timed calls re-derive one (format, kind) pair, rotating with the seed
        chosen = range(len(pairs)) if ev is not None else [seed % len(pairs)]
        for k in chosen:
            (fmt, kind), cfg = pairs[k]
            problems += self._check_pair(fmt, kind, cfg, seed, n, reports[k], ev)
        return problems

    def errors(self, inp, reports):
        lsbs = [fmt.lsb for fmt, _ in self.cfgs]
        return (sum(r.mae * r.n / lsb for r, lsb in zip(reports, lsbs)),
                max(r.max_abs / lsb for r, lsb in zip(reports, lsbs)),
                sum(r.n for r in reports))

    def _check_pair(self, fmt, kind, cfg, seed, n, rep, ev: Evidence | None) -> list[str]:
        xs, out, sat = self._recompute(kind, cfg, seed, n)
        tag = f"{fmt.name} {kind.value}"
        problems = []
        again = analysis.error_metrics(analysis.oracle(kind, xs, cfg), out * fmt.lsb, seed)
        if again != rep:
            problems.append(f"{tag}: recomputed outputs do not reproduce the report")
        lo, hi = self.ranges[(fmt, kind)]
        vals = out * fmt.lsb
        if vals.min() < lo or vals.max() > hi:
            problems.append(f"{tag}: output [{vals.min()}, {vals.max()}] outside [{lo}, {hi}]")
        if kind is AfKind.SOFTMAX:
            dev = softmax_row_dev(out, fmt)
            inside = (np.abs(xs) <= self.SUM_BUDGET_RANGE).all(axis=1)
            if (dev[inside] > out.shape[1]).any():
                problems.append(f"{tag}: row sum off by {dev[inside].max()} LSB "
                                f"on inputs within +-{self.SUM_BUDGET_RANGE}")
        if ev is None:
            return problems
        ev.add_codes(out, sat)
        ev.sat_lanes += int(sat.sum())
        ev.out_lanes += sat.size
        ev.items += sat.size
        if kind is AfKind.SOFTMAX:
            ev.note_softmax_rows(fmt, dev, out.shape[1])
        group = analysis.SOFTMAX_GROUP if kind is AfKind.SOFTMAX else 1
        rep_c = pe.cycles(pe.NeuricConfig(fmt, cfg), group)
        evals = sat.size // group
        ev.model_cycles += evals * rep_c.af_cycles
        ev.model_shift_adds += evals * (rep_c.shift_add_ops - rep_c.mac_cycles)
        ev.model_muls += sat.size * modeled_muls(kind)
        return problems


# ---------------------------------------------------------------------------
# row_batch

class RowBatch:
    """One ``pe.run_batch`` payload at fxp16 tanh: rows whose lengths are a
    seeded permutation of 1..rows, inputs U[-1, 1], weights and bias
    U[-0.5, 0.5].  One item is one neuron row."""

    CHECK_STRIDE = 8
    CONTROL = "mixed"
    FORMAT = "fxp16"
    AF = "tanh"

    def __init__(self, root: Path, size: int):
        self.size = size
        fmt = FORMATS[self.FORMAT]
        self.cfg = pe.NeuricConfig(fmt, AfConfig(AfKind(self.AF), fmt))

    def inputs(self, seed: int, index: int, size: int | None = None):
        rows = self.size if size is None else size
        rng = np.random.default_rng((seed, index))
        lengths = rng.permutation(rows) + 1
        return {
            "config": {"format": self.FORMAT, "af": self.AF},
            "inputs": [rng.uniform(-1.0, 1.0, n).tolist() for n in lengths],
            "weights": [rng.uniform(-0.5, 0.5, n).tolist() for n in lengths],
            "bias": rng.uniform(-0.5, 0.5, rows).tolist(),
        }

    def items(self, payload) -> int:
        return len(payload["bias"])

    def call(self, payload):
        return pe.run_batch(payload)

    def check(self, payload, result, ev: Evidence | None) -> list[str]:
        fmt = self.cfg.fmt
        problems = []
        outputs = np.asarray(result["outputs"], dtype=np.float64)
        if len(outputs) != len(payload["bias"]) or np.abs(outputs).max() > 1.0:
            problems.append("outputs missing or outside the tanh range [-1, 1]")
        # the scalar neuron path must equal the lane kernel on one row: every
        # row of an evidence call, a rotating eighth of the rows otherwise
        stride = 1 if ev is not None else self.CHECK_STRIDE
        start = 0 if ev is not None else len(payload["inputs"][0]) % stride
        sat_rows = 0
        want = {"mac_cycles": 0, "af_cycles": 0, "total": 0, "shift_add_ops": 0}
        rows = zip(payload["inputs"], payload["weights"], payload["bias"], result["outputs"])
        for r, (xs, ws, b, y) in enumerate(rows):
            rep = pe.cycles(self.cfg, len(xs))
            for k in want:
                want[k] += getattr(rep, k)
            if r % stride != start:
                continue
            lane, sat = pe.layer([xs], [ws], [b], self.cfg)
            if lane[0, 0] != y:
                problems.append(f"row {r}: run_batch {y!r} != layer {lane[0, 0]!r}")
            sat_rows += sat
        if ev is not None and sat_rows != result["sat_events"]:
            problems.append(f"sat_events {result['sat_events']} != layer total {sat_rows}")
        if want != result["cycles"]:
            problems.append(f"cycles {result['cycles']} != sum of pe.cycles {want}")
        if ev is None:
            return problems
        ev.add_codes(raw_codes(outputs, fmt),
                     np.array([result["sat_events"], *result["cycles"].values()], dtype=np.int64))
        ev.sat_lanes += result["sat_events"]
        ev.out_lanes += len(outputs)
        ev.items += len(outputs)
        ev.model_cycles += result["cycles"]["total"]
        ev.model_shift_adds += result["cycles"]["shift_add_ops"]
        ev.model_muls += len(outputs) * modeled_muls(self.cfg.af.kind)
        return problems

    def errors(self, payload, result):
        pre = np.array([np.dot(w, x) + b for x, w, b in
                        zip(payload["inputs"], payload["weights"], payload["bias"])])
        ref = analysis.oracle(self.cfg.af.kind, pre)
        return error_stats((np.asarray(result["outputs"]) - ref) / self.cfg.fmt.lsb)


# name -> (class, items per call at full size, at tiny size)
WORKLOADS = {
    "mlp_forward": (MlpForward, 4096, 64),
    "af_montecarlo": (AfMonteCarlo, 1 << 15, 64),
    "row_batch": (RowBatch, 32, 4),
}


def make(name: str, root: Path, tiny: bool = False):
    cls, full, small = WORKLOADS[name]
    return cls(root, small if tiny else full)
