"""Reconfigurable activation functions on the shift-and-add engine.

Seven kinds share two engine passes plus a handful of multiplies:

* sigmoid(x) = (1 + tanh(x/2)) / 2
* tanh: sinh/cosh rotation + linear-vectoring divide for |x| <= 1, else the
  identity (1 - s)/(1 + s) with s = e**(-2|x|)
* relu: raw max against zero (buffer, bit-exact)
* swish(x) = x * sigmoid(x)
* gelu(x) = 0.5 x (1 + tanh(c0 (x + c1 x**3)))
* selu: lambda * x for x > 0, lambda*alpha*(e**x - 1) otherwise
* softmax: two passes over a capacity-bounded FIFO with running-max
  subtraction, then one linear-vectoring divide per element

e**x comes from one hyperbolic rotation (cosh r + sinh r) after halving the
argument k times so |r| <= 1, then squaring k times; k <= 3 covers the
public +-max_norm domain, k <= 4 the softmax differences (down to
-2*max_norm).  Gain is pre-compensated by starting x at 1/K in the guard
format.

Inputs of every kind except relu are clamped to +-max_norm first.  The
clamp is domain policy, not overflow, so it does not raise the saturation
flag; engine and quantization saturation still does.  Outputs above the
format ceiling (e**x for x > ln(max_value), gelu's cubic term beyond the
cube root of max_value) saturate silently with the flag set.

Kernels operate on int64 raw arrays plus a saturation mask; the scalar
wrappers and ``apply`` feed them one-element (or one-row) arrays, so both
paths are bit-identical.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cordic import (
    CordicMode,
    Drive,
    RangeError,
    count_muls,
    default_iters,
    gain,
    make_schedule,
    _engine_pass,
)
from .fixedpoint import (
    FXP16,
    Fx,
    FxFormat,
    add_raw,
    mul_raw,
    quantize_raw,
    shr_round_raw,
    sub_raw,
)

__all__ = [
    "AfKind",
    "AfConfig",
    "CapacityError",
    "RangeError",
    "exp_fx",
    "sigmoid",
    "tanh_af",
    "relu",
    "swish",
    "gelu",
    "selu",
    "softmax",
    "apply",
    "clamp_domain",
    "clamp_domain_raw",
    "eval_raw",
    "softmax_raw",
    "softmax_acc_format",
]

# SoftMax exponential sums need headroom for fifo_depth * 1.0
_ACC_EXTRA_BITS = 6


class CapacityError(Exception):
    """SoftMax vector longer than the FIFO depth."""


class AfKind(enum.Enum):
    SIGMOID = "sigmoid"
    TANH = "tanh"
    RELU = "relu"
    SWISH = "swish"
    GELU = "gelu"
    SELU = "selu"
    SOFTMAX = "softmax"


@dataclass(frozen=True)
class AfConfig:
    """Numeric parameters shared by the activation kernels.

    ``n_iters`` defaults to frac_bits + 2.  ``max_norm`` bounds the input
    domain (clamped, see module docstring).  SELU/GELU constants follow the
    published parameterizations; the SELU negative branch folds
    lambda*alpha into one multiplier constant.
    """

    kind: AfKind
    fmt: FxFormat = FXP16
    n_iters: int | None = None
    max_norm: float = 5.5
    selu_lambda: float = 1.0507009873554805
    selu_alpha: float = 1.6732632423543772
    gelu_c0: float = math.sqrt(2.0 / math.pi)
    gelu_c1: float = 0.044715
    fifo_depth: int = 64

    def __post_init__(self) -> None:
        if self.n_iters is None:
            object.__setattr__(self, "n_iters", default_iters(self.fmt))
        if self.n_iters < 1:
            raise ValueError("n_iters must be >= 1")
        if self.max_norm <= 0:
            raise ValueError("max_norm must be positive")
        if self.fifo_depth < 1:
            raise ValueError("fifo_depth must be >= 1")
        if self.fmt.int_bits < 2:
            raise ValueError("activation formats need int_bits >= 2 of headroom")
        if self.kind is AfKind.SOFTMAX:
            try:
                softmax_acc_format(self.fmt).with_guard()
            except ValueError:
                raise ValueError(f"softmax is not available at {self.fmt.name}: its accumulator "
                                 "plus the engine guard bits exceed the 40-bit datapath") from None


def softmax_acc_format(fmt: FxFormat) -> FxFormat:
    """Widened SoftMax accumulator layout: same fraction, +6 integer bits."""
    return FxFormat(fmt.word_bits + _ACC_EXTRA_BITS, fmt.frac_bits)


# ---------------------------------------------------------------------------
# shared engine helpers

def _const(value: float, fmt: FxFormat) -> int:
    raw, _ = quantize_raw(np.array([value]), fmt)
    return int(raw[0])


@lru_cache(maxsize=None)
def _inv_gain_raw(n_iters: int, ifmt: FxFormat) -> int:
    k = gain(CordicMode.HYPERBOLIC, make_schedule(CordicMode.HYPERBOLIC, n_iters))
    return _const(1.0 / k, ifmt)


def _sinh_cosh(z, sat, fmt: FxFormat, n: int):
    """(cosh z, sinh z, sat) in ``fmt``; z raw may transiently exceed the
    format as long as it is within the guard format after widening."""
    ifmt = fmt.with_guard()
    x0 = np.full(np.shape(z), _inv_gain_raw(n, ifmt), dtype=np.int64)
    y0 = np.zeros(np.shape(z), dtype=np.int64)
    z0 = np.asarray(z, dtype=np.int64) << (ifmt.frac_bits - fmt.frac_bits)
    c, s, _, sat = _engine_pass(x0, y0, z0, sat, CordicMode.HYPERBOLIC, Drive.ROTATION, fmt, n)
    return c, s, sat


def _div_lv(num, den, sat, fmt: FxFormat, n: int):
    """num/den via linear vectoring; needs den > 0 and |num| <= den."""
    g = fmt.with_guard().frac_bits - fmt.frac_bits
    x0 = np.asarray(den, dtype=np.int64) << g
    y0 = np.asarray(num, dtype=np.int64) << g
    _, _, q, sat = _engine_pass(x0, y0, np.zeros(np.shape(num), dtype=np.int64), sat,
                                CordicMode.LINEAR, Drive.VECTORING, fmt, n)
    return q, sat


def _exp_core(x, sat, cfg: AfConfig, kmax: int):
    """e**x over raws; |x| may reach 2**kmax in value (halve k times,
    rotate once, square k times).  Transient raws beyond the format are
    fine: only compares and shifts touch them before reduction."""
    fmt, n = cfg.fmt, cfg.n_iters
    one = np.int64(_const(1.0, fmt))
    ax = np.abs(np.asarray(x, dtype=np.int64))
    k = np.zeros(np.shape(x), dtype=np.int64)
    for kv in range(1, kmax + 1):
        k += ax > (one << (kv - 1))
    r = np.asarray(x, dtype=np.int64).copy()
    for kv in range(1, kmax + 1):
        idx = k == kv
        if idx.any():
            r[idx] = shr_round_raw(np.asarray(x, dtype=np.int64)[idx], kv)
    c, s, sat = _sinh_cosh(r, sat, fmt, n)
    e, sat = add_raw(c, s, fmt, sat)
    for kv in range(1, kmax + 1):
        idx = k >= kv
        hits = int(idx.sum())
        if hits:
            count_muls(hits)
            sq, s1 = mul_raw(e[idx], e[idx], fmt)
            e[idx] = sq
            sat[idx] |= s1
    return np.clip(e, 0, None), sat


def clamp_domain_raw(x, cfg: AfConfig):
    """Clamp raws to +-max_norm (domain policy: raises no saturation)."""
    hi = min(_const(cfg.max_norm, cfg.fmt), cfg.fmt.max_raw)
    return np.clip(np.asarray(x, dtype=np.int64), -hi, hi)


# ---------------------------------------------------------------------------
# elementwise kernels (clamped input -> raw output, saturation mask threaded)

def _tanh_inner(x, sat, cfg: AfConfig):
    fmt, n = cfg.fmt, cfg.n_iters
    one = _const(1.0, fmt)
    out = np.zeros(np.shape(x), dtype=np.int64)
    sat = np.array(sat, dtype=bool, copy=True)
    small = np.abs(x) <= one
    if small.any():
        # run on |x| and restore the sign so the result is exactly odd;
        # the drive tie-break at z == 0 is not mirror-symmetric on its own
        xs = np.asarray(x, dtype=np.int64)[small]
        c, s, ss = _sinh_cosh(np.abs(xs), sat[small], fmt, n)
        q, ss = _div_lv(s, c, ss, fmt, n)
        out[small] = np.where(xs >= 0, q, -q)
        sat[small] = ss
    big = ~small
    if big.any():
        xb = np.asarray(x, dtype=np.int64)[big]
        e2, sb = _exp_core(-2 * np.abs(xb), sat[big], cfg, kmax=4)
        num, sb = sub_raw(np.int64(one), e2, fmt, sb)
        den, sb = add_raw(np.int64(one), e2, fmt, sb)
        q, sb = _div_lv(num, den, sb, fmt, n)
        out[big] = np.where(xb > 0, q, -q)
        sat[big] = sb
    return np.clip(out, -one, one), sat


def _tanh_kernel(x, sat, cfg: AfConfig):
    return _tanh_inner(clamp_domain_raw(x, cfg), sat, cfg)


def _sigmoid_kernel(x, sat, cfg: AfConfig):
    one = np.int64(_const(1.0, cfg.fmt))
    h = shr_round_raw(clamp_domain_raw(x, cfg), 1)
    t, sat = _tanh_inner(h, sat, cfg)
    s, sat = add_raw(t, one, cfg.fmt, sat)
    return shr_round_raw(s, 1), sat


def _relu_kernel(x, sat, cfg: AfConfig):
    return np.maximum(np.asarray(x, dtype=np.int64), 0), np.array(sat, dtype=bool, copy=True)


def _swish_kernel(x, sat, cfg: AfConfig):
    xc = clamp_domain_raw(x, cfg)
    s, sat = _sigmoid_kernel(xc, sat, cfg)
    count_muls(int(np.size(xc)))
    return mul_raw(xc, s, cfg.fmt, sat)


def _gelu_kernel(x, sat, cfg: AfConfig):
    fmt = cfg.fmt
    one = np.int64(_const(1.0, fmt))
    c0 = np.int64(_const(cfg.gelu_c0, fmt))
    c1 = np.int64(_const(cfg.gelu_c1, fmt))
    xc = clamp_domain_raw(x, cfg)
    lanes = int(np.size(xc))
    count_muls(5 * lanes)
    # cubic built small-constant-first: |c1*x^3| <= 7.44 at |x| <= 5.5, so no
    # intermediate saturates until x + c1*x^3 itself, by which point the tanh
    # argument is deep in the pinned-at-one region
    t1, sat = mul_raw(xc, c1, fmt, sat)
    t2, sat = mul_raw(t1, xc, fmt, sat)
    t3, sat = mul_raw(t2, xc, fmt, sat)
    inner, sat = add_raw(xc, t3, fmt, sat)
    arg, sat = mul_raw(inner, c0, fmt, sat)
    t, sat = _tanh_inner(clamp_domain_raw(arg, cfg), sat, cfg)
    s, sat = add_raw(t, one, fmt, sat)
    return mul_raw(xc, shr_round_raw(s, 1), fmt, sat)


def _selu_kernel(x, sat, cfg: AfConfig):
    fmt = cfg.fmt
    one = np.int64(_const(1.0, fmt))
    lam = np.int64(_const(cfg.selu_lambda, fmt))
    lam_alpha = np.int64(_const(cfg.selu_lambda * cfg.selu_alpha, fmt))
    xc = clamp_domain_raw(x, cfg)
    out = np.zeros(np.shape(xc), dtype=np.int64)
    sat = np.array(sat, dtype=bool, copy=True)
    pos = xc > 0
    if pos.any():
        count_muls(int(pos.sum()))
        o, s1 = mul_raw(xc[pos], lam, fmt)
        out[pos] = o
        sat[pos] |= s1
    neg = ~pos
    if neg.any():
        e, sn = _exp_core(xc[neg], sat[neg], cfg, kmax=3)
        em1, sn = sub_raw(e, one, fmt, sn)
        count_muls(int(neg.sum()))
        o, sn = mul_raw(em1, lam_alpha, fmt, sn)
        out[neg] = o
        sat[neg] = sn
    return out, sat


_KERNELS = {
    AfKind.SIGMOID: _sigmoid_kernel,
    AfKind.TANH: _tanh_kernel,
    AfKind.RELU: _relu_kernel,
    AfKind.SWISH: _swish_kernel,
    AfKind.GELU: _gelu_kernel,
    AfKind.SELU: _selu_kernel,
}


def eval_raw(kind: AfKind, x, sat, cfg: AfConfig):
    """Vectorized elementwise evaluation on raws (everything but softmax)."""
    if kind is AfKind.SOFTMAX:
        raise ValueError("softmax is vector-valued; use softmax_raw")
    return _KERNELS[kind](np.asarray(x, dtype=np.int64), np.asarray(sat, dtype=bool), cfg)


def softmax_raw(x, sat, cfg: AfConfig):
    """Row-wise softmax over a (batch, length) raw array.

    Two passes per row: stream e**(x_i - max) while accumulating the sum S
    in the widened accumulator layout, then drain dividing each element by
    S.  Max-subtracted differences saturating at the format floor (down to
    -2*max_norm before clipping) cost about one LSB of the smallest
    exponentials; outputs are clipped to [0, 1].
    """
    fmt, n = cfg.fmt, cfg.n_iters
    x2 = np.asarray(x, dtype=np.int64)
    if x2.ndim != 2:
        raise ValueError("softmax_raw expects a (batch, length) array")
    if x2.shape[1] > cfg.fifo_depth:
        raise CapacityError(f"vector length {x2.shape[1]} exceeds FIFO depth {cfg.fifo_depth}")
    if x2.shape[1] < 1:
        raise ValueError("softmax needs at least one element")
    one = np.int64(_const(1.0, fmt))
    sat = np.array(np.broadcast_to(np.asarray(sat, dtype=bool), x2.shape), copy=True)
    xc = clamp_domain_raw(x2, cfg)
    d, sat = sub_raw(xc, xc.max(axis=1, keepdims=True), fmt, sat)
    e, sat_f = _exp_core(d.ravel(), sat.ravel(), cfg, kmax=4)
    e = np.clip(e, 0, one).reshape(x2.shape)
    sat = sat_f.reshape(x2.shape)
    totals = e.sum(axis=1, keepdims=True)          # exact: fits the accumulator span
    q, sat_f = _div_lv(e.ravel(), np.broadcast_to(totals, x2.shape).ravel(),
                       sat.ravel(), softmax_acc_format(fmt), n)
    # same fraction as fmt, and |q| stays below the schedule sum (< 2 <= fmt's
    # ceiling), so clipping to [0, 1] is the whole narrowing back to fmt
    return np.clip(q.reshape(x2.shape), 0, one), sat_f.reshape(x2.shape)


# ---------------------------------------------------------------------------
# scalar API

def _check_fmt(v: Fx, cfg: AfConfig) -> None:
    if v.fmt != cfg.fmt:
        raise ValueError(f"value format {v.fmt.name} does not match config {cfg.fmt.name}")


def _elementwise(kind: AfKind, x: Fx, cfg: AfConfig) -> Fx:
    _check_fmt(x, cfg)
    raw, sat = eval_raw(kind, np.array([x.raw], dtype=np.int64), np.array([x.sat]), cfg)
    return Fx(int(raw[0]), cfg.fmt, bool(sat[0]))


def clamp_domain(v: Fx, cfg: AfConfig) -> Fx:
    """Clamp to +-max_norm (domain policy: does not set the sat flag)."""
    _check_fmt(v, cfg)
    return Fx(int(clamp_domain_raw(np.array([v.raw], dtype=np.int64), cfg)[0]), cfg.fmt, v.sat)


def exp_fx(x: Fx, cfg: AfConfig) -> Fx:
    """e**x for |x| <= max_norm (RangeError beyond); saturates at the
    format ceiling where e**x is not representable."""
    _check_fmt(x, cfg)
    if abs(x.value) > cfg.max_norm:
        raise RangeError(f"|x|={abs(x.value)} beyond max_norm={cfg.max_norm}")
    raw, sat = _exp_core(np.array([x.raw], dtype=np.int64), np.array([x.sat]), cfg, kmax=3)
    return Fx(int(raw[0]), cfg.fmt, bool(sat[0]))


def sigmoid(x: Fx, cfg: AfConfig) -> Fx:
    return _elementwise(AfKind.SIGMOID, x, cfg)


def tanh_af(x: Fx, cfg: AfConfig) -> Fx:
    return _elementwise(AfKind.TANH, x, cfg)


def relu(x: Fx, cfg: AfConfig) -> Fx:
    return _elementwise(AfKind.RELU, x, cfg)


def swish(x: Fx, cfg: AfConfig) -> Fx:
    return _elementwise(AfKind.SWISH, x, cfg)


def gelu(x: Fx, cfg: AfConfig) -> Fx:
    return _elementwise(AfKind.GELU, x, cfg)


def selu(x: Fx, cfg: AfConfig) -> Fx:
    return _elementwise(AfKind.SELU, x, cfg)


def softmax(xs: list[Fx], cfg: AfConfig) -> list[Fx]:
    if not xs:
        raise ValueError("softmax needs at least one element")
    for v in xs:
        _check_fmt(v, cfg)
    raw = np.array([[v.raw for v in xs]], dtype=np.int64)
    sat = np.array([[v.sat for v in xs]])
    out, sato = softmax_raw(raw, sat, cfg)
    return [Fx(int(r), cfg.fmt, bool(s)) for r, s in zip(out[0], sato[0])]


def apply(cfg: AfConfig, xs: list[Fx]) -> list[Fx]:
    """Evaluate the configured kind over a vector: elementwise for scalar
    kinds, whole-vector for softmax."""
    if cfg.kind is AfKind.SOFTMAX:
        return softmax(xs, cfg)
    for v in xs:
        _check_fmt(v, cfg)
    if not xs:
        return []
    raw = np.array([v.raw for v in xs], dtype=np.int64)
    sat = np.array([v.sat for v in xs])
    out, sato = eval_raw(cfg.kind, raw, sat, cfg)
    return [Fx(int(r), cfg.fmt, bool(s)) for r, s in zip(out, sato)]
