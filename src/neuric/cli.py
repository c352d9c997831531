"""Command-line front end.

Subcommands:

* ``eval``       one activation at one point (``--raw`` takes the integer code)
* ``sweep``      activation vs oracle over a linspace, CSV/JSON rows
  (``eval`` and ``sweep`` refuse softmax, which has no per-point value)
* ``montecarlo`` seeded uniform-sampling error report
* ``cycles``     deterministic cycle model for a MAC+AF vector
* ``golden``     seeded raw-level vectors for the fixed-point ops

Exit codes: 0 success, 1 runtime failure (range/capacity/io), 2 usage.
All output is deterministic for fixed arguments: identical bytes across
runs.  JSON payloads carry ``"schema": 1``.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analysis
from .activation import AfConfig, AfKind, CapacityError, eval_raw
from .cordic import RangeError
from .fixedpoint import (
    FORMATS,
    Fx,
    FxFormat,
    add_sat,
    from_real,
    mul,
    quantize_raw,
    shr_round,
    sub_sat,
)
from .pe import ExecStrategy, NeuricConfig, cycles

__all__ = ["build_parser", "parse_args", "run", "main"]

_AF_NAMES = [k.value for k in AfKind]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="neuric", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, af=True):
        if af:
            sp.add_argument("--af", required=True, choices=_AF_NAMES)
        sp.add_argument("--format", default="fxp16", choices=sorted(FORMATS))
        sp.add_argument("--iters", type=int, default=None,
                        help="engine iterations (default: frac_bits + 2)")
        sp.add_argument("--seed", type=int, default=42)
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        sp.add_argument("--out-format", default=None, choices=["csv", "json"])

    e = sub.add_parser("eval", help="evaluate one activation at one point")
    common(e)
    e.add_argument("--x", required=True, help="input value (real, or integer with --raw)")
    e.add_argument("--raw", action="store_true", help="interpret --x as a raw integer code")

    s = sub.add_parser("sweep", help="activation vs oracle over a linspace")
    common(s)
    s.add_argument("--range", nargs=2, type=float, default=[-1.0, 1.0],
                   metavar=("LO", "HI"))
    s.add_argument("--samples", type=int, default=1024)

    m = sub.add_parser("montecarlo", help="seeded uniform-sampling error report")
    common(m)
    m.add_argument("--range", nargs=2, type=float, default=[-1.0, 1.0],
                   metavar=("LO", "HI"))
    m.add_argument("--samples", type=int, default=10000)

    c = sub.add_parser("cycles", help="cycle model for a MAC+AF vector")
    common(c)
    c.add_argument("--len", type=int, default=1, dest="length", help="vector length")
    c.add_argument("--strategy", default="iterative", choices=["iterative", "pipelined"])

    g = sub.add_parser("golden", help="seeded raw-level vectors for the fixed-point ops")
    common(g, af=False)
    g.add_argument("--samples", type=int, default=256, help="rows per op")

    return p


def parse_args(argv=None) -> argparse.Namespace:
    return build_parser().parse_args(argv)


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _af_config(args) -> AfConfig:
    if args.af == AfKind.SOFTMAX.value and args.command in ("eval", "sweep"):
        raise ValueError(f"softmax is vector-valued, so {args.command} has no per-point "
                         "result; use 'neuric montecarlo --af softmax'")
    return AfConfig(AfKind(args.af), FORMATS[args.format], n_iters=args.iters)


_SWEEP_HEAD = "x_real,af,format,y_fx_real,y_oracle,abs_err,rel_err"


def _sweep_rows(xs, cfg: AfConfig):
    raw, sat = quantize_raw(xs, cfg.fmt)
    out, _ = eval_raw(cfg.kind, raw, sat, cfg)
    ref = analysis.oracle(cfg.kind, xs, cfg)
    y = out * cfg.fmt.lsb
    abs_err = np.abs(y - ref)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(np.abs(ref) >= 10 * np.finfo(float).eps, abs_err / np.abs(ref), np.nan)
    return y, ref, abs_err, rel


def _cmd_eval(args) -> int:
    cfg = _af_config(args)
    fmt = cfg.fmt
    if args.raw:
        x = Fx(int(args.x, 0), fmt)
    else:
        x = from_real(float(args.x), fmt)
    y, ref, abs_err, rel = (v[0] for v in _sweep_rows(np.array([x.value]), cfg))
    if args.out_format == "json":
        payload = {"schema": 1, "af": cfg.kind.value, "format": fmt.name,
                   "x_real": x.value, "x_raw": x.raw,
                   "y_real": float(y), "y_raw": int(round(float(y) / fmt.lsb)),
                   "y_oracle": float(ref), "abs_err": float(abs_err)}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    elif args.out_format == "csv":
        row = f"{x.value!r},{cfg.kind.value},{fmt.name},{float(y)!r},{float(ref)!r},{float(abs_err)!r},{float(rel)!r}"
        _emit(_SWEEP_HEAD + "\n" + row + "\n", args.out)
    else:
        _emit(f"{float(y)!r}\n", args.out)
    return 0


def _cmd_sweep(args) -> int:
    if args.samples < 2:
        raise ValueError("sweep needs at least 2 samples")
    cfg = _af_config(args)
    lo, hi = args.range
    if not lo < hi:
        raise ValueError("need LO < HI")
    xs = np.linspace(lo, hi, args.samples)
    y, ref, abs_err, rel = _sweep_rows(xs, cfg)
    if args.out_format == "json":
        rows = [{"x_real": float(a), "y_fx_real": float(b), "y_oracle": float(c),
                 "abs_err": float(d), "rel_err": None if np.isnan(e) else float(e)}
                for a, b, c, d, e in zip(xs, y, ref, abs_err, rel)]
        payload = {"schema": 1, "af": cfg.kind.value, "format": cfg.fmt.name, "rows": rows}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = [_SWEEP_HEAD]
        lines += [f"{float(a)!r},{cfg.kind.value},{cfg.fmt.name},{float(b)!r},{float(c)!r},{float(d)!r},{float(e)!r}"
                  for a, b, c, d, e in zip(xs, y, ref, abs_err, rel)]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_montecarlo(args) -> int:
    cfg = _af_config(args)
    lo, hi = args.range
    rep = analysis.monte_carlo(cfg.kind, cfg, args.samples, lo, hi, seed=args.seed)
    if args.out_format == "csv":
        _emit(analysis.report_csv(rep, cfg.kind, cfg.fmt), args.out)
    else:
        _emit(json.dumps(analysis.report_json(rep, cfg.kind, cfg.fmt), indent=2) + "\n",
              args.out)
    return 0


def _cmd_cycles(args) -> int:
    fmt = FORMATS[args.format]
    af = AfConfig(AfKind(args.af), fmt, n_iters=args.iters)
    cfg = NeuricConfig(fmt, af, ExecStrategy(args.strategy))
    rep = cycles(cfg, args.length)
    base = {"schema": 1, "af": args.af, "format": fmt.name, "n_iters": cfg.n_iters,
            "vector_len": args.length, "strategy": args.strategy,
            "mac_cycles": rep.mac_cycles, "af_cycles": rep.af_cycles,
            "total": rep.total, "shift_add_ops": rep.shift_add_ops}
    if args.out_format == "csv":
        keys = [k for k in base if k != "schema"]
        _emit(",".join(keys) + "\n" + ",".join(str(base[k]) for k in keys) + "\n", args.out)
    else:
        _emit(json.dumps(base, indent=2) + "\n", args.out)
    return 0


def _golden_rows(fmt: FxFormat, samples: int, seed: int):
    rng = np.random.Generator(np.random.PCG64(seed))
    lo, hi = fmt.min_raw, fmt.max_raw
    edge = [(lo, lo), (hi, hi), (lo, hi), (hi, 1), (lo, 1), (0, 0), (-1, 1)]
    rows = []

    def scalar_pairs():
        pairs = list(edge)
        a = rng.integers(lo, hi + 1, size=max(samples - len(edge), 0))
        b = rng.integers(lo, hi + 1, size=a.size)
        pairs += list(zip(a.tolist(), b.tolist()))
        return pairs[:samples]

    for op in ("add", "sub", "mul"):
        fn = {"add": add_sat, "sub": sub_sat, "mul": mul}[op]
        for ra, rb in scalar_pairs():
            r = fn(Fx(int(ra), fmt), Fx(int(rb), fmt))
            rows.append((op, fmt.name, int(ra), int(rb), r.raw, int(r.sat)))
    shifts = rng.integers(0, fmt.word_bits, size=samples)
    vals = rng.integers(lo, hi + 1, size=samples)
    for ra, sh in zip(vals.tolist(), shifts.tolist()):
        r = shr_round(Fx(int(ra), fmt), int(sh))
        rows.append(("shr", fmt.name, int(ra), int(sh), r.raw, int(r.sat)))
    return rows


def _cmd_golden(args) -> int:
    if args.samples < 1:
        raise ValueError("golden needs at least 1 sample per op")
    fmt = FORMATS[args.format]
    rows = _golden_rows(fmt, args.samples, args.seed)
    lines = ["op,format,raw_in_a,raw_in_b,raw_out,sat_flag"]
    lines += [",".join(str(v) for v in row) for row in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "montecarlo": _cmd_montecarlo,
    "cycles": _cmd_cycles,
    "golden": _cmd_golden,
}


def run(args: argparse.Namespace) -> int:
    try:
        return _COMMANDS[args.command](args)
    except (RangeError, CapacityError, ValueError, OSError) as exc:
        print(f"neuric {args.command}: error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
