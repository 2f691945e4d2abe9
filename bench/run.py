"""Benchmark of lazy-newton: field maps and scenario reports, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload fieldmap-uniform --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 1

Each workload runs in fresh interpreters (bench/worker.py): SETUP_SAMPLES of
them time set-up, the last one also measures. With --trace 0 the last stdout
line carries the end-to-end metrics, with --trace 1 the per-layer ones from
the span recorder. A result file with the environment and every op record
is written to .bench_out/. The exit code is non-zero, with no result line,
when the library sources are missing or a worker fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("fieldmap-uniform", "fieldmap-pointmass", "scenarios-cli")
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0  # every process of one workload run ends within this

END_TO_END = [
    ("setup_s", "s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("rows_per_s", "1/s"),
    ("reports_per_s", "1/s"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MB"),
]


class BenchError(Exception):
    """The benchmark itself could not run."""


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def spawn(workload, seed, seconds, trace, setup_only, limit):
    """Start one worker in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--t0", repr(t0)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, limit - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker ran past the {RUN_LIMIT_S:g} s run limit") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with code {done.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace):
    limit = time.monotonic() + RUN_LIMIT_S
    setups = [spawn(workload, seed, seconds, trace, True, limit)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    result = spawn(workload, seed, seconds, trace, False, limit)
    setups.append(result["setup_s"])
    e2e = dict(result["end_to_end"], setup_s=statistics.median(setups))
    records = result["records"]
    failures = {}
    for r in records:
        for p in r["problems"]:
            key = f"{r['argv0']}: {p}"
            failures[key] = failures.get(key, 0) + 1
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            **result["versions"],
            "LAZY_NEWTON_THREADS": result["threads"],
            "git_commit": git_commit(),
        },
        "deadline_s": result["deadline_s"],
        "setup_samples_s": setups,
        "end_to_end": e2e,
        "per_layer": result.get("per_layer"),
        "dominant": result.get("dominant"),
        "attempted": len(records),
        "failed": sum(1 for r in records if r["problems"]),
        # only the documented known-defect op may fail, and only by not finishing
        "correct": all(not r["problems"] or (r["known_defect"] and not r["completed"])
                       for r in records),
        "failures": failures,
        "records": records,
    }


def report_lines(res):
    """Human-readable summary of one workload run."""
    e = res["end_to_end"]
    env = res["environment"]
    lines = [
        f"== {res['workload']}  seed {res['seed']}  trace {res['trace']}  "
        f"threads {env['LAZY_NEWTON_THREADS']} of nproc {env['nproc']}  "
        f"ops {res['attempted']} (failed {res['failed']})  correct {res['correct']}",
        f"  setup_s        {e['setup_s']:.4f} s  (median of {len(res['setup_samples_s'])})",
        f"  op_s_p50       {e['op_s_p50']:.6f} s",
        f"  op_s_tail      {e['op_s_tail']:.6f} s  (p{e['op_s_tail_percentile']:.1f} "
        f"of {e['completed_ops']} completed ops)",
        f"  rows_per_s     {e['rows_per_s']:.2f} 1/s",
        f"  reports_per_s  {e['reports_per_s']:.4f} 1/s",
        f"  failed_share   {e['failed_share']:.4f} share  (ok_share {e['ok_share']:.4f})",
        f"  peak_rss_mb    {e['peak_rss_mb']:.1f} MB",
    ]
    lines += [f"  failure  {k}  x{n}" for k, n in sorted(res["failures"].items())]
    if res["per_layer"]:
        units = dict(PER_LAYER)
        lines += [f"  {k:34s} {v:.6g} {units[k]}" for k, v in res["per_layer"].items()]
        d = res["dominant"]
        lines.append(
            f"  dominant layer: predicted {d['predicted']} at {d['predicted_share']:.1%} of "
            f"traced op time, largest other {d['largest_other']} at "
            f"{d['largest_other_share']:.1%}: {'holds' if d['holds'] else 'does NOT hold'}")
        lines.append(f"  unaccounted share {res['per_layer']['trace.unaccounted_share']:.3%}, "
                     f"tracing overhead {res['per_layer']['trace.overhead_s']:+.6f} s/op")
        if d["untraced_names"]:
            lines.append(f"  not traced (missing in this version): {', '.join(d['untraced_names'])}")
    return lines


def metrics_of(res):
    if res["trace"]:
        return {k: {"value": res["per_layer"][k], "unit": u} for k, u in PER_LAYER}
    return {k: {"value": res["end_to_end"][k], "unit": u} for k, u in END_TO_END}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="wall time of the measured loop per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lazy_newton" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, args.trace)
            path = OUT / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json"
            path.write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")
            print("\n".join(report_lines(res)) + f"\n  result file {path.relative_to(ROOT)}",
                  flush=True)
            results.append(res)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = metrics_of(results[0])
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in metrics_of(r).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
