"""Unified shift-and-add engine (linear / circular / hyperbolic).

One recurrence covers all three coordinate systems, selected by ``m``:

    x' = x - m * d * (y >> i)
    y' = y + d * (x >> i)
    z' = z - d * e_i

with e_i = 2**-i (m=0), atan 2**-i (m=1), atanh 2**-i (m=-1).  The drive
picks d per iteration: rotation d = sign(z), vectoring d = -sign(y), with
sign(0) = +1.  Outputs are not gain-compensated; callers fold 1/K into the
initial x when they need it.

Schedules: linear and circular iterate i = 0..N-1; hyperbolic starts at
i = 1 and repeats i = 4 and i = 13 (each repeat index r is followed by
3r + 1) to keep convergence.  Published convergence bounds live in
``check_range``.  Note the linear-rotation bound (7.968) is a datapath
constant wider than what the 0..N-1 schedule sums to (2 - 2**(1-N));
callers that rely on full linear-rotation accuracy keep |z0| inside the
schedule sum.  Vectoring additionally needs x0 > 0 (x0 >= 0 circular),
which the ratio-based ``check_range`` cannot express; ``run`` enforces it.

``run`` widens I/O values into a guard format (+2 integer, +2 fraction
bits), iterates there, and narrows back.  The ``*_raw`` kernels are the
vectorized layer over int64 raw arrays; ``run``/``step`` wrap them over
one-element arrays, so scalar and batched results are bit-identical.

``count_ops``/``OpCounter`` instrument executed micro-rotations for cycle
model validation: one shift+add pair per active lane per iteration (x and
y for m != 0, y alone for m = 0; the z table subtract is not a shifter).
"""

from __future__ import annotations

import contextvars
import enum
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fixedpoint import Fx, FxFormat, convert_raw, quantize_raw, shr_round_raw

__all__ = [
    "CordicMode",
    "Drive",
    "CordicState",
    "IterationSchedule",
    "AngleTable",
    "TraceRow",
    "RangeError",
    "HR_RANGE",
    "LR_RANGE",
    "CR_RANGE",
    "LV_RANGE",
    "HV_RATIO",
    "angle_value",
    "make_schedule",
    "angle_table",
    "gain",
    "check_range",
    "step",
    "run",
    "run_float",
    "run_raw",
    "trace_csv",
    "default_iters",
    "OpCounter",
    "count_ops",
    "current_counter",
]


class RangeError(Exception):
    """Input outside the convergence region of the requested mode/drive."""


class CordicMode(enum.IntEnum):
    LINEAR = 0
    CIRCULAR = 1
    HYPERBOLIC = -1


class Drive(enum.Enum):
    ROTATION = "rotation"
    VECTORING = "vectoring"


# convergence bounds (datapath constants)
HR_RANGE = 1.1182   # hyperbolic rotation |z0|
CR_RANGE = 1.7433   # circular rotation |z0|
LR_RANGE = 7.968    # linear rotation |z0|; see module docstring
LV_RANGE = 1.0      # linear vectoring |y0/x0|
HV_RATIO = math.tanh(HR_RANGE)   # hyperbolic vectoring |y0/x0|

_ROTATION_RANGE = {
    CordicMode.LINEAR: LR_RANGE,
    CordicMode.CIRCULAR: CR_RANGE,
    CordicMode.HYPERBOLIC: HR_RANGE,
}


@dataclass(frozen=True)
class CordicState:
    x: Fx
    y: Fx
    z: Fx


@dataclass(frozen=True)
class IterationSchedule:
    mode: CordicMode
    indices: tuple[int, ...]


@dataclass(frozen=True)
class AngleTable:
    mode: CordicMode
    fmt: FxFormat
    e: tuple[Fx, ...]


class TraceRow(NamedTuple):
    iter: int
    d: int
    x_raw: int
    y_raw: int
    z_raw: int


def default_iters(fmt: FxFormat) -> int:
    """Default iteration count: frac_bits + 2 (residual below 1/2 LSB)."""
    return fmt.frac_bits + 2


def angle_value(mode: CordicMode, i: int) -> float:
    """Exact float64 table entry e_i for index i."""
    t = 2.0 ** -i
    if mode is CordicMode.LINEAR:
        return t
    if mode is CordicMode.CIRCULAR:
        return math.atan(t)
    return math.atanh(t)


def make_schedule(mode: CordicMode, n_iters: int) -> IterationSchedule:
    """First ``n_iters`` shift indices for ``mode``.

    Hyperbolic schedules start at 1 and repeat an index r right after its
    first visit whenever r is in the 4, 13, 40, ... chain (next = 3r + 1).
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    if mode is not CordicMode.HYPERBOLIC:
        return IterationSchedule(mode, tuple(range(n_iters)))
    indices: list[int] = []
    i, repeat_at = 1, 4
    while len(indices) < n_iters:
        indices.append(i)
        if i == repeat_at and len(indices) < n_iters:
            indices.append(i)
            repeat_at = 3 * repeat_at + 1
        i += 1
    return IterationSchedule(mode, tuple(indices[:n_iters]))


@lru_cache(maxsize=None)
def _angle_raws(mode: CordicMode, indices: tuple[int, ...], fmt: FxFormat) -> tuple[int, ...]:
    vals = np.array([angle_value(mode, i) for i in indices], dtype=np.float64)
    return tuple(int(r) for r in quantize_raw(vals, fmt)[0])


def angle_table(mode: CordicMode, schedule: IterationSchedule, fmt: FxFormat) -> AngleTable:
    """Table entries quantized to ``fmt`` (round half to even)."""
    if schedule.mode is not mode:
        raise ValueError("schedule mode mismatch")
    return AngleTable(mode, fmt, tuple(Fx(r, fmt) for r in _angle_raws(mode, schedule.indices, fmt)))


def gain(mode: CordicMode, schedule: IterationSchedule) -> float:
    """Accumulated magnitude gain K = prod sqrt(1 + m * 2**-2i) over the
    schedule.  Exactly 1.0 for the linear mode."""
    if schedule.mode is not mode:
        raise ValueError("schedule mode mismatch")
    if mode is CordicMode.LINEAR:
        return 1.0
    k = 1.0
    for i in schedule.indices:
        k *= math.sqrt(1.0 + int(mode) * 4.0 ** -i)
    return k


def check_range(value: float, mode: CordicMode, drive: Drive) -> bool:
    """True iff ``value`` (z0 for rotation, y0/x0 for vectoring) is inside
    the published convergence bound.  Bounds are inclusive."""
    if drive is Drive.ROTATION:
        return abs(value) <= _ROTATION_RANGE[mode]
    if mode is CordicMode.LINEAR:
        return abs(value) <= LV_RANGE
    if mode is CordicMode.HYPERBOLIC:
        return abs(value) <= HV_RATIO
    return bool(np.isfinite(value))


# ---------------------------------------------------------------------------
# instrumentation

@dataclass
class OpCounter:
    """Executed-operation tally per processed lane (element)."""

    iterations: int = 0   # micro-rotations
    shift_add: int = 0    # barrel-shift + add/sub pairs
    muls: int = 0         # dedicated-multiplier uses
    passes: int = 0       # full engine runs

    def merge(self, other: "OpCounter") -> None:
        self.iterations += other.iterations
        self.shift_add += other.shift_add
        self.muls += other.muls
        self.passes += other.passes


_COUNTER: contextvars.ContextVar[OpCounter | None] = contextvars.ContextVar(
    "neuric_op_counter", default=None
)


@contextmanager
def count_ops():
    """Collect operation counts from everything run inside the block."""
    counter = OpCounter()
    token = _COUNTER.set(counter)
    try:
        yield counter
    finally:
        _COUNTER.reset(token)


def current_counter() -> OpCounter | None:
    return _COUNTER.get()


def count_muls(lanes: int) -> None:
    c = _COUNTER.get()
    if c is not None:
        c.muls += lanes


# ---------------------------------------------------------------------------
# raw engine

def _iterate_once(x, y, z, sat, mode: CordicMode, d, shift: int, e_raw: int, fmt: FxFormat):
    m = int(mode)
    lo, hi = fmt.min_raw, fmt.max_raw
    xs = shr_round_raw(x, shift)
    if m != 0:
        ys = shr_round_raw(y, shift)
        xn = x - (m * d) * ys
    else:
        xn = x
    yn = y + d * xs
    zn = z - d * np.int64(e_raw)
    xc = np.clip(xn, lo, hi)
    yc = np.clip(yn, lo, hi)
    zc = np.clip(zn, lo, hi)
    sat = sat | (xc != xn) | (yc != yn) | (zc != zn)
    c = _COUNTER.get()
    if c is not None:
        lanes = int(np.size(yn))
        c.iterations += lanes
        c.shift_add += (2 if m != 0 else 1) * lanes
    return xc, yc, zc, sat


def run_raw(x, y, z, sat, mode: CordicMode, drive: Drive, fmt: FxFormat,
            n_iters: int, trace: list | None = None):
    """Iterate the recurrence over int64 raw arrays in ``fmt``.

    No widening, no range checks; callers own both.  Returns the final
    (x, y, z, sat).  When ``trace`` is a list, one (k, d, x, y, z) snapshot
    is appended per iteration.
    """
    indices = make_schedule(mode, n_iters).indices
    table = _angle_raws(mode, indices, fmt)
    rotation = drive is Drive.ROTATION
    c = _COUNTER.get()
    if c is not None:
        c.passes += int(np.size(y))
    for k, (i, e) in enumerate(zip(indices, table)):
        if rotation:
            d = np.where(z >= 0, np.int64(1), np.int64(-1))
        else:
            d = np.where(y < 0, np.int64(1), np.int64(-1))
        x, y, z, sat = _iterate_once(x, y, z, sat, mode, d, i, e, fmt)
        if trace is not None:
            trace.append((k, d.copy(), x.copy(), y.copy(), z.copy()))
    return x, y, z, sat


def _engine_pass(x, y, z, sat, mode: CordicMode, drive: Drive, fmt: FxFormat,
                 n_iters: int, trace: list | None = None):
    """The one widen->iterate->narrow path: iterate raws that callers have
    already placed in ``fmt.with_guard()``, then narrow all three outputs
    back to ``fmt``, ORing every narrowing saturation into ``sat``."""
    ifmt = fmt.with_guard()
    x, y, z, sat = run_raw(x, y, z, sat, mode, drive, ifmt, n_iters, trace)
    x, s1 = convert_raw(x, ifmt, fmt)
    y, s2 = convert_raw(y, ifmt, fmt)
    z, s3 = convert_raw(z, ifmt, fmt)
    return x, y, z, sat | s1 | s2 | s3


def run_guarded(x, y, z, sat, mode: CordicMode, drive: Drive, fmt: FxFormat, n_iters: int):
    """Widen raws from ``fmt`` into its guard format, run, narrow back."""
    g = fmt.with_guard().frac_bits - fmt.frac_bits
    x, y, z = (np.asarray(a, dtype=np.int64) << g for a in (x, y, z))
    return _engine_pass(x, y, z, sat, mode, drive, fmt, n_iters)


# ---------------------------------------------------------------------------
# scalar API

def step(s: CordicState, mode: CordicMode, d: int, i: int, e_i: Fx) -> CordicState:
    """One micro-rotation with explicit direction ``d`` and table entry."""
    if d not in (1, -1):
        raise ValueError("d must be +1 or -1")
    fmt = s.x.fmt
    if s.y.fmt != fmt or s.z.fmt != fmt or e_i.fmt != fmt:
        raise ValueError("state and table entry must share one format")
    sat_in = s.x.sat or s.y.sat or s.z.sat or e_i.sat
    x = np.array([s.x.raw], dtype=np.int64)
    y = np.array([s.y.raw], dtype=np.int64)
    z = np.array([s.z.raw], dtype=np.int64)
    dd = np.array([d], dtype=np.int64)
    x, y, z, sat = _iterate_once(x, y, z, np.array([sat_in]), mode, dd, i, e_i.raw, fmt)
    flag = bool(sat[0])
    return CordicState(Fx(int(x[0]), fmt, flag), Fx(int(y[0]), fmt, flag), Fx(int(z[0]), fmt, flag))


def _validate_run_inputs(x0: Fx, y0: Fx, z0: Fx, mode: CordicMode, drive: Drive) -> None:
    if y0.fmt != x0.fmt or z0.fmt != x0.fmt:
        raise ValueError("x0, y0, z0 must share one format")
    if drive is Drive.ROTATION:
        if not check_range(z0.value, mode, drive):
            raise RangeError(
                f"z0={z0.value} outside rotation range +-{_ROTATION_RANGE[mode]} ({mode.name})"
            )
        return
    xv = x0.value
    if mode is CordicMode.CIRCULAR:
        if xv < 0:
            raise RangeError("circular vectoring requires x0 >= 0")
        return
    if xv <= 0:
        raise RangeError(f"{mode.name.lower()} vectoring requires x0 > 0")
    if not check_range(y0.value / xv, mode, drive):
        raise RangeError(f"|y0/x0|={abs(y0.value / xv):.4f} outside vectoring range ({mode.name})")


def run(x0: Fx, y0: Fx, z0: Fx, mode: CordicMode, drive: Drive,
        n_iters: int | None = None, trace: list[TraceRow] | None = None) -> CordicState:
    """Full pass: validate, widen to the guard format, iterate, narrow.

    Raises RangeError outside the convergence region.  Output magnitudes
    carry the mode gain (no compensation).  Trace rows, when requested, are
    post-iteration raws in the guard format.
    """
    _validate_run_inputs(x0, y0, z0, mode, drive)
    fmt = x0.fmt
    n = default_iters(fmt) if n_iters is None else n_iters
    if n < 1:
        raise ValueError("n_iters must be >= 1")
    raw_trace: list | None = [] if trace is not None else None
    g = fmt.with_guard().frac_bits - fmt.frac_bits
    x, y, z = (np.array([v.raw], dtype=np.int64) << g for v in (x0, y0, z0))
    xo, yo, zo, sat = _engine_pass(x, y, z, np.array([x0.sat or y0.sat or z0.sat]),
                                   mode, drive, fmt, n, raw_trace)
    flag = bool(sat[0])
    if trace is not None and raw_trace is not None:
        for k, d, tx, ty, tz in raw_trace:
            trace.append(TraceRow(k, int(d[0]), int(tx[0]), int(ty[0]), int(tz[0])))
    return CordicState(Fx(int(xo[0]), fmt, flag), Fx(int(yo[0]), fmt, flag), Fx(int(zo[0]), fmt, flag))


def trace_csv(rows: list[TraceRow]) -> str:
    out = ["iter,d,x_raw,y_raw,z_raw"]
    out.extend(f"{r.iter},{r.d},{r.x_raw},{r.y_raw},{r.z_raw}" for r in rows)
    return "\n".join(out) + "\n"


def run_float(x0, y0, z0, mode: CordicMode, drive: Drive, n_iters: int):
    """Float64 replica of the recurrence: same schedule and drive logic,
    exact table entries, no quantization.  Broadcasts over arrays."""
    scalar_in = np.isscalar(x0) and np.isscalar(y0) and np.isscalar(z0)
    x, y, z = (np.array(a, dtype=np.float64)
               for a in np.broadcast_arrays(np.asarray(x0, dtype=np.float64),
                                            np.asarray(y0, dtype=np.float64),
                                            np.asarray(z0, dtype=np.float64)))
    m = int(mode)
    rotation = drive is Drive.ROTATION
    for i in make_schedule(mode, n_iters).indices:
        e = angle_value(mode, i)
        p = 2.0 ** -i
        if rotation:
            d = np.where(z >= 0, 1.0, -1.0)
        else:
            d = np.where(y < 0, 1.0, -1.0)
        xs = x * p
        ys = y * p
        if m != 0:
            x = x - (m * d) * ys
        y = y + d * xs
        z = z - d * e
    if scalar_in:
        return float(x), float(y), float(z)
    return x, y, z
