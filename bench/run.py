"""neuric benchmark: host time of the simulator and cost of the modeled
hardware on three workloads.  See bench/README.md for the workloads, the
metrics and what each per-layer number should move.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
  python3 bench/run.py --workload all ...     one table for all three

Run from anywhere; the program is imported from ``src/`` next to this
directory, never from an installed copy.  With ``--trace 0`` the last line
of standard output is one JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a separate traced pass.
The full record (environment, digests, op counts, model cross-check) goes
to ``.bench_out/`` at the repository root, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
# the keys of workloads.WORKLOADS, which cannot be imported before the
# thread caps are set (it imports numpy)
NAMES = ("mlp_forward", "af_montecarlo", "row_batch")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

EVIDENCE_CALLS = 3    # calls 0..2: digest, op counts and model metrics, fixed for a seed
MIN_TIMED_CALLS = 20  # so the tail percentile has calls beyond it; error metrics pool
                      # over these and the evidence calls, a set fixed for a seed
TAIL_BEYOND = 10      # calls a reported tail percentile must have beyond it
SETUP_PROBES = 7      # fresh processes per run for setup_s (3 with --tiny)
WALL_CAP = 3          # the timed loop gives up after this many times --seconds (or 60 s)


def cap_threads() -> tuple[int, dict]:
    """Cap the BLAS/OpenMP pools at nproc before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    caps = {}
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        caps[var] = int(cur) if cur.isdigit() and 0 < int(cur) <= nproc else nproc
        os.environ[var] = str(caps[var])
    return nproc, caps


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving the root."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup(name: str) -> float:
    """setup_s of one fresh process; the caller waits for it to end."""
    done = subprocess.run([sys.executable, str(BENCH / "probe_setup.py"), name],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class Tally:
    """Calls attempted and failed (raised, or failed the output check)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, wl, index: int, inp, ev=None, around=None, errors=None):
        """One call: returns its seconds, or None when it failed.  Only the
        call is timed; the check, and the error tally when ``errors`` is a
        list, run after the clock stops."""
        self.attempted += 1
        try:
            with around(index) if around else nullcontext():
                t0 = time.perf_counter()
                out = wl.call(inp)
                dt = time.perf_counter() - t0
            problems = wl.check(inp, out, ev)
            if errors is not None:
                errors.append(wl.errors(inp, out))
        except Exception:  # a failing call is a result, not a crash
            self.failed += 1
            self.problems.append(f"call {index}: {traceback.format_exc()}")
            return None
        if problems:
            self.failed += 1
            self.problems.extend(f"call {index}: {p}" for p in problems)
        return dt


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND calls
    beyond it; the maximum when there are too few calls."""
    s = sorted(durations)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def layer_metrics(totals: dict, counts, model_shift_adds: int, overhead_pct: float) -> dict:
    """Per-layer metrics of the traced calls; unexercised layers read 0."""
    def ms(name, key="ns"):
        return totals[name][key] / 1e6

    passes = {t: totals[f"cordic.run_raw.{t}"] for t in ("lr", "hr", "lv", "cr", "cv", "hv")}
    rr_calls = sum(p["calls"] for p in passes.values())
    rr_self_ns = sum(p["self_ns"] for p in passes.values())
    return {
        "cordic.run_raw.lr.ms": (ms("cordic.run_raw.lr"), "ms"),
        "cordic.run_raw.hr.ms": (ms("cordic.run_raw.hr"), "ms"),
        "cordic.run_raw.lv.ms": (ms("cordic.run_raw.lv"), "ms"),
        "cordic.run_raw.calls": (rr_calls, "count"),
        "cordic.run_raw.lanes_per_call":
            (sum(p["value"] for p in passes.values()) / max(rr_calls, 1), "lanes"),
        "cordic.passes": (counts.passes, "count"),
        "cordic.iterations": (counts.iterations, "count"),
        "cordic.shift_adds": (counts.shift_add, "count"),
        "cordic.ns_per_shift_add": (rr_self_ns / max(counts.shift_add, 1), "ns"),
        "activation.eval_raw.self_ms": (ms("activation.eval_raw", "self_ns"), "ms"),
        "activation.softmax_raw.self_ms": (ms("activation.softmax_raw", "self_ns"), "ms"),
        "activation.apply.self_ms": (ms("activation.apply", "self_ns"), "ms"),
        "activation.lanes": (totals["activation.eval_raw"]["value"]
                             + totals["activation.softmax_raw"]["value"], "count"),
        "activation.muls": (counts.muls, "count"),
        "fixedpoint.quantize_raw.ms": (ms("fixedpoint.quantize_raw"), "ms"),
        "fixedpoint.quantize_raw.sat_lanes": (totals["fixedpoint.quantize_raw"]["value"], "count"),
        "fixedpoint.convert_raw.ms": (ms("fixedpoint.convert_raw"), "ms"),
        "fixedpoint.mul_raw.ms": (ms("fixedpoint.mul_raw"), "ms"),
        "fixedpoint.from_real.calls": (totals["fixedpoint.from_real"]["calls"], "count"),
        "fixedpoint.from_real.ms": (ms("fixedpoint.from_real"), "ms"),
        "pe.layer.calls": (totals["pe.layer"]["calls"], "count"),
        "pe.layer.self_ms": (ms("pe.layer", "self_ns"), "ms"),
        "pe.layer.sat_lanes": (totals["pe.layer"]["value"], "count"),
        "pe.mac.calls": (totals["pe.mac"]["calls"], "count"),
        "pe.mac.self_ms": (ms("pe.mac", "self_ns"), "ms"),
        "pe.neuron.self_ms": (ms("pe.neuron", "self_ns"), "ms"),
        "pe.run_batch.self_ms": (ms("pe.run_batch", "self_ns"), "ms"),
        "pe.counted_over_model_shift_adds": (counts.shift_add / model_shift_adds, "ratio"),
        "analysis.oracle.ms": (ms("analysis.oracle"), "ms"),
        "analysis.error_metrics.ms": (ms("analysis.error_metrics"), "ms"),
        "analysis.monte_carlo.self_ms": (ms("analysis.monte_carlo", "self_ns"), "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


def run_one(args) -> int:
    nproc, caps = cap_threads()
    from_src = ROOT / "src" / "neuric" / "__init__.py"
    if not from_src.is_file():
        print(f"benchmark needs {from_src}; run it from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # imported only after the thread caps are set
    import numpy as np
    import neuric
    from neuric import cordic
    import spans
    import workloads

    if Path(neuric.__file__).resolve() != from_src.resolve():
        print(f"imported neuric from {neuric.__file__}, not {from_src}", file=sys.stderr)
        return 2

    probes = 0 if args.trace else 3 if args.tiny else SETUP_PROBES
    setup: list[float] = []
    wl = workloads.make(args.workload, ROOT, tiny=args.tiny)
    wl.call(wl.inputs(args.seed, workloads.WARMUP_INDEX, 1))   # fill the lazy caches

    tally = Tally()
    ev = workloads.Evidence()
    counts = cordic.OpCounter()
    tracer = spans.Tracer() if args.trace else None

    @contextmanager
    def evidence_call(index):
        with cordic.count_ops() as c:
            if tracer is None:
                yield
            else:
                with tracer.patched(index):
                    yield
        counts.merge(c)

    evidence_s, evidence_items = 0.0, 0
    errors: list[tuple[float, float, int]] = []
    # the first calls are the evidence: fixed for a seed, so their digest,
    # op counts and model metrics repeat exactly
    for i in range(EVIDENCE_CALLS):
        inp = wl.inputs(args.seed, i)
        dt = tally.run(wl, i, inp, ev, around=evidence_call, errors=errors)
        if dt is not None:
            evidence_s += dt
            evidence_items += wl.items(inp)

    timed: list[tuple[float, int]] = []
    controls: list[float] = []
    spent, wall0 = 0.0, time.perf_counter()
    index = EVIDENCE_CALLS
    while spent < args.seconds or len(timed) < MIN_TIMED_CALLS:
        if time.perf_counter() - wall0 > max(WALL_CAP * args.seconds, 60):
            tally.problems.append("timed loop hit its wall-clock cap")
            break
        # set-up probes are spread over the loop, outside the timed calls, so
        # their median sees the same machine as the calls do
        if len(setup) < probes and spent >= len(setup) * args.seconds / probes:
            setup.append(measure_setup(args.workload))
        inp = wl.inputs(args.seed, index)
        controls.append(workloads.control_s(wl.CONTROL))
        dt = tally.run(wl, index, inp,
                       errors=errors if index < EVIDENCE_CALLS + MIN_TIMED_CALLS else None)
        index += 1
        if dt is None:
            continue
        spent += dt
        timed.append((dt, wl.items(inp)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup) < probes:
        setup.append(measure_setup(args.workload))

    if not timed or not errors or not evidence_items:
        print(f"no call succeeded: {tally.problems[:1]}", file=sys.stderr)
        return 1
    durations = [dt for dt, _ in timed]
    items_per_s_all = sum(n for _, n in timed) / spent
    items_per_s_raw = statistics.median(n / dt for dt, n in timed)
    call_s_raw = statistics.median(durations)
    slowdown = statistics.median(controls) / workloads.CONTROLS[wl.CONTROL][2]
    tail_s, tail_pct = tail(durations)
    if args.trace:
        # the evidence calls ran traced: compare their rate with the untraced one
        overhead = 100.0 * (items_per_s_all * evidence_s / evidence_items - 1.0)
        metrics = layer_metrics(tracer.totals(), counts,
                                ev.model_shift_adds, overhead)
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "items_per_s": (items_per_s_raw * slowdown, "items/s"),
            "call_ms_p50": (1e3 * call_s_raw / slowdown, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
            "model_cycles_per_item": (ev.model_cycles / max(ev.items, 1), "cycles"),
            "err_mae_lsb": (sum(e[0] for e in errors) / sum(e[2] for e in errors), "lsb"),
        }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "nproc": nproc, "threads": caps, "commit": git_commit(),
                "platform": platform.platform()},
        "calls": {"attempted": tally.attempted, "failed": tally.failed,
                  "evidence": EVIDENCE_CALLS, "timed": len(durations)},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": {
            "failed_frac": tally.failed / max(tally.attempted, 1),
            "sat_frac": ev.sat_lanes / max(ev.out_lanes, 1),
            "top1_agree": ev.top1_hits / ev.top1_total if ev.top1_total else None,
            "err_max_lsb": max(e[1] for e in errors),
            "call_ms_tail": 1e3 * tail_s,
            "call_ms_tail_percentile": tail_pct,
            "items_per_s_unscaled": items_per_s_raw,
            "call_ms_p50_unscaled": 1e3 * call_s_raw,
            "control": wl.CONTROL,
            "control_ms_p50": 1e3 * statistics.median(controls),
            "slowdown_vs_reference": slowdown,
            "setup_s_probes": setup,
            "durations_ms": [round(1e3 * d, 4) for d in durations],
            "digest_sha256": ev.digest.hexdigest(),
            "count_ops": {"passes": counts.passes, "iterations": counts.iterations,
                          "shift_adds": counts.shift_add, "muls": counts.muls},
            "model": {"cycles": ev.model_cycles, "shift_adds": ev.model_shift_adds,
                      "muls": ev.model_muls if workloads.MODEL_MULS_KNOWN else None},
            "softmax_sum_dev_lsb": ev.softmax_sum_dev_lsb,
            "softmax_rows_over_budget": ev.softmax_rows_over_budget,
            "problems": tally.problems[:20],
        },
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write_csv(OUT / f"{stem}-spans.csv")

    print_report(record)
    for p in tally.problems[:5]:
        print(p, file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": record["metrics"]}))
    return 0


def print_report(rec: dict) -> None:
    info = rec["info"]
    print(f"# {rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"calls={rec['calls']['attempted']} failed={rec['calls']['failed']} "
          f"env={json.dumps(rec['env'], sort_keys=True)}")
    for name, m in rec["metrics"].items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    print(f"  call_ms_tail {info['call_ms_tail']:.6g} ms (unscaled) is"
          f" p{info['call_ms_tail_percentile']:.1f} of {rec['calls']['timed']} timed calls;"
          f" items_per_s and call_ms_p50 above are scaled to the reference machine")
    for k in ("items_per_s_unscaled", "call_ms_p50_unscaled", "control", "control_ms_p50",
              "slowdown_vs_reference", "failed_frac", "sat_frac",
              "top1_agree", "err_max_lsb", "digest_sha256", "count_ops", "model",
              "softmax_sum_dev_lsb", "softmax_rows_over_budget"):
        print(f"  {k:34s} {json.dumps(info[k], sort_keys=True)}")


def run_all(args) -> int:
    """Each workload in its own process, one after another, then one table."""
    results, status = {}, 0
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd + (["--tiny"] if args.tiny else []),
                              capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
        status |= not results[name]["correct"]
    first = results[NAMES[0]]["metrics"]
    print(f"\n{'metric':34s} {'unit':8s}" + "".join(f"{n:>16s}" for n in NAMES))
    for metric, m in first.items():
        print(f"{metric:34s} {m['unit']:8s}"
              + "".join(f"{results[n]['metrics'][metric]['value']:>16.6g}" for n in NAMES))
    print("failed calls: " + ", ".join(f"{n} {results[n]['failed']}/{results[n]['attempted']}"
                                       for n in NAMES))
    return int(status)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny calls, for the self-test")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
