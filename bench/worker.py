"""One benchmark process: set up a workload, run its ops in a closed loop, check them.

run.py starts this in a fresh interpreter once per set-up sample and once for
the measured run; it is not meant to be started by hand. The last line of
stdout is one JSON object with the run's records and metrics.

Set-up is everything from interpreter start to the first timed op: importing
the library, generating and writing the inputs, and one warm-up op of each
kind in the mix (never the known defect, which would only wait out its deadline).

The loop is closed with one client: an op starts when the previous one and
its checks have finished. Ops are issued in whole cycles of the workload's
mix until --seconds of wall time have passed since the first one, so the ops
sample the host over the whole run. Only cli.main is timed; the oracle
checks, the one-thread twin run and the tracer's install and removal run
outside that interval.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import inputs
import spans

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

MAX_THREADS = 4  # a fieldmap-uniform slice spans four blocks; more threads only add memory
DEADLINE_S = {"fieldmap-uniform": 30.0, "fieldmap-pointmass": 30.0, "scenarios-cli": 1.0}
WALL_LIMIT_S = 110.0  # no cycle starts after this, so a run ends well inside 180 s
ORACLE_SAMPLES = 6  # fieldmap-uniform rows checked by quadrature per op

# the layer the workload is predicted to spend most of its time in
PREDICTED_DOMINANT = {
    "fieldmap-uniform": ("evaluator.block_self_s",),
    "fieldmap-pointmass": ("frames.tabulated_build_s",),
    "scenarios-cli": ("evaluator.point_self_s", "evaluator.kernel_weights_s"),
}

# (name, unit); times and counts are per completed traced op
PER_LAYER = [
    ("evaluator.block_self_s", "s/op"),
    ("evaluator.pair_interactions", "count/op"),
    ("evaluator.pairs_per_s", "1/s"),
    ("evaluator.thread_speedup", "ratio"),
    ("evaluator.block_bytes_computed", "bytes"),
    ("evaluator.nodes_per_source", "count"),
    ("evaluator.point_calls", "count/op"),
    ("evaluator.point_self_s", "s/op"),
    ("evaluator.kernel_weights_calls", "count/op"),
    ("evaluator.kernel_weights_s", "s/op"),
    ("evaluator.kernel_table_reuse", "ratio"),
    ("frames.frame_reuse", "ratio"),
    ("evaluator.prepare_calls", "count/op"),
    ("evaluator.prepare_self_s", "s/op"),
    ("frames.tabulated_builds", "count/op"),
    ("frames.tabulated_build_s", "s/op"),
    ("frames.origin_calls", "count/op"),
    ("frames.origin_s", "s/op"),
    ("frames.analytic_builds", "count/op"),
    ("frames.analytic_build_s", "s/op"),
    ("kinematics.position_calls", "count/op"),
    ("kinematics.position_points", "count/op"),
    ("kinematics.position_s", "s/op"),
    ("scenarios.runner_self_s", "s/op"),
    ("scenarios.fit_s", "s/op"),
    ("scenarios.fit_iterations", "count/op"),
    ("scenarios.potential_evaluations", "count/op"),
    ("cli.parse_s", "s/op"),
    ("cli.self_s", "s/op"),
    ("cli.rows_out", "count/op"),
    ("cli.bytes_out", "bytes/op"),
    ("evaluator.guard_hits", "count/op"),
    ("trace.overhead_s", "s/op"),
    ("trace.unaccounted_share", "share"),
]
_NOT_PER_OP = {
    "evaluator.pairs_per_s", "evaluator.thread_speedup", "evaluator.block_bytes_computed",
    "evaluator.nodes_per_source", "evaluator.kernel_table_reuse", "frames.frame_reuse",
}


class DeadlineExceeded(Exception):
    """An op ran past its deadline."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def import_library():
    """Import lazy_newton from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lazy_newton

    if Path(lazy_newton.__file__).resolve().parent != (src / "lazy_newton").resolve():
        raise SystemExit(f"lazy_newton imported from {lazy_newton.__file__}, not {src}")
    from lazy_newton import cli, evaluator

    return cli, evaluator


class Runner:
    """Runs, times and checks the ops of one workload."""

    def __init__(self, workload, seed, cli, evaluator, work):
        self.seed = seed
        self.cli = cli
        self.chunk = evaluator.CHUNK
        self.work = work
        self.deadline = DEADLINE_S[workload]
        self.threads = min(len(os.sched_getaffinity(0)), MAX_THREADS)
        raw, self.per_cycle = inputs.workload_ops(workload, seed)
        self.ops = [self._materialize(i, op) for i, op in enumerate(raw)]

    def _materialize(self, i, op):
        """argv and checking data for one op; map documents are written to files."""
        if "argv" in op:
            return {"argv": op["argv"], "known_defect": op["known_defect"], "map": None,
                    "ext": "json"}
        scene = self.work / f"op{i}-scene.json"
        grid = self.work / f"op{i}-grid.json"
        scene.write_text(json.dumps(op["scene"]), encoding="utf-8")
        grid.write_text(json.dumps(op["grid"]), encoding="utf-8")
        argv = ["field", "--config", str(scene), "--grid", str(grid), "--format", op["format"]]
        return {"argv": argv, "known_defect": False, "map": op, "ext": op["format"]}

    def run_op(self, op, threads, out):
        """(seconds, failure or None) of one cli.main call under a deadline."""
        out.unlink(missing_ok=True)
        os.environ["LAZY_NEWTON_THREADS"] = str(threads)
        argv = op["argv"] + ["--out", str(out)]
        failure = None
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.deadline)
            try:
                code = self.cli.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            if code != 0:
                failure = f"exit {code}"
        except DeadlineExceeded:
            failure = f"deadline {self.deadline:g} s"
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            failure = f"exception {type(exc).__name__}: {exc}"
        return time.perf_counter() - start, failure

    @staticmethod
    def _points_per_slice(m):
        return int(np.prod([axis["count"] for axis in m["grid"]["axes"]]))

    def check(self, index, op, out, twin, twin_recorder=None):
        """(rows, bytes, problems) of a completed op, checked outside the timed interval.

        With ``twin`` the map is run again on one thread and must match byte for byte.
        """
        import oracles  # imported here so scipy.integrate stays out of set-up time

        text = out.read_text(encoding="utf-8")
        size = out.stat().st_size
        m = op["map"]
        if m is None:
            report = json.loads(text)
            rows = int(report.get("diagnostics", {}).get("potential_evaluations", 0))
            return rows, size, oracles.check_report(op["argv"], report)
        rows = self._points_per_slice(m) * len(m["grid"]["times"])
        problems = []
        if twin:
            twin_out = self.work / f"twin.{op['ext']}"
            with spans.installed(twin_recorder) if twin_recorder else nullcontext():
                _, failure = self.run_op(op, 1, twin_out)
            if failure is not None:
                problems.append(f"one-thread run failed: {failure}")
            elif twin_out.read_bytes() != out.read_bytes():
                problems.append(f"output differs between 1 and {self.threads} threads")
        rng = np.random.default_rng([self.seed, index, 1])
        samples = sorted(int(k) for k in rng.choice(rows, size=min(ORACLE_SAMPLES, rows),
                                                    replace=False))
        problems.extend(oracles.check_map(m, text, samples))
        return rows, size, problems

    def warm_up(self):
        kinds = {}
        for op in self.ops:
            if not op["known_defect"]:
                kinds.setdefault(tuple(op["argv"][:2]), op)
        for op in kinds.values():
            self.run_op(op, self.threads, self.work / f"warm.{op['ext']}")

    def measure(self, seconds, recorder=None, twin_recorder=None):
        """Records of every op run in whole cycles; with recorders, every other cycle is traced."""
        records = []
        start = time.monotonic()
        index = 0
        cycle = 0
        while True:
            traced = recorder is not None and cycle % 2 == 0
            for _ in range(self.per_cycle):
                op = self.ops[index % len(self.ops)]
                out = self.work / f"out.{op['ext']}"
                if traced:
                    recorder.op = twin_recorder.op = index
                with spans.installed(recorder) if traced else nullcontext():
                    seconds_op, failure = self.run_op(op, self.threads, out)
                rec = {"index": index, "argv0": op["argv"][1] if op["map"] is None else "field",
                       "known_defect": op["known_defect"], "traced": traced,
                       "seconds": seconds_op, "completed": failure is None,
                       "rows": 0, "bytes": 0, "problems": [failure] if failure else []}
                if failure is None:
                    # a one-thread twin on every other map whose slices threads
                    # split, and on every traced map for the thread speed-up
                    twin = op["map"] is not None and (traced or (
                        index % 2 == 0 and self._points_per_slice(op["map"]) > self.chunk))
                    rec["rows"], rec["bytes"], rec["problems"] = self.check(
                        index, op, out, twin, twin_recorder if traced else None)
                records.append(rec)
                index += 1
            cycle += 1
            balanced = recorder is None or cycle % 2 == 0
            if balanced and time.monotonic() - start >= min(seconds, WALL_LIMIT_S):
                return records


def tail(times):
    """(value, percentile, samples): the highest percentile with at least 10 samples beyond it."""
    times = sorted(times)
    n = len(times)
    k = max(0, n - 11)
    return times[k], 100.0 * (k + 1) / n, n


def end_to_end(records):
    done = [r for r in records if r["completed"]]
    passed = [r for r in done if not r["problems"]]
    times = [r["seconds"] for r in done]
    busy = sum(times)
    value, pct, n = tail(times) if times else (0.0, 0.0, 0)
    return {
        "op_s_p50": statistics.median(times) if times else 0.0,
        "op_s_tail": value,
        "op_s_tail_percentile": pct,
        "completed_ops": n,
        "rows_per_s": sum(r["rows"] for r in done) / busy if busy else 0.0,
        "reports_per_s": n / busy if busy else 0.0,
        "ok_share": len(passed) / len(records),
        "failed_share": 1.0 - len(passed) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, records, recorder, twin_recorder, chunk):
    """Per-layer metrics over completed traced ops, plus the dominant-layer verdict."""
    traced = [r for r in records if r["traced"] and r["completed"]]
    untraced = [r for r in records if not r["traced"] and r["completed"]]
    ids = [r["index"] for r in traced]
    n = max(1, len(ids))  # every value reads 0 when no traced op completed
    totals = spans.layer_totals(recorder.spans, ids, chunk)
    twin = spans.layer_totals(twin_recorder.spans, ids, chunk)
    op_time = sum(r["seconds"] for r in traced) or 1.0
    layer_time = sum(totals[m] for m in spans.LAYER_TIMES)
    block = totals["evaluator.block_self_s"]
    out = {}
    for name, _ in PER_LAYER:
        if name in totals:
            out[name] = totals[name] if name in _NOT_PER_OP else totals[name] / n
    out["evaluator.pairs_per_s"] = totals["evaluator.pair_interactions"] / block if block else 0.0
    out["evaluator.thread_speedup"] = twin["evaluator.block_self_s"] / block if block else 0.0
    out["cli.rows_out"] = sum(r["rows"] for r in traced) / n
    out["cli.bytes_out"] = sum(r["bytes"] for r in traced) / n
    if traced and untraced:
        out["trace.overhead_s"] = (statistics.median(r["seconds"] for r in traced)
                                   - statistics.median(r["seconds"] for r in untraced))
    else:
        out["trace.overhead_s"] = 0.0
    out["trace.unaccounted_share"] = 1.0 - layer_time / op_time if traced else 0.0

    shares = {m: totals[m] / op_time for m in spans.LAYER_TIMES}
    predicted = PREDICTED_DOMINANT[workload]
    predicted_share = sum(shares[m] for m in predicted)
    rival = max((s, m) for m, s in shares.items() if m not in predicted)
    verdict = {
        "predicted": " + ".join(predicted),
        "predicted_share": predicted_share,
        "largest_other": rival[1],
        "largest_other_share": rival[0],
        "holds": predicted_share > rival[0],
        "shares": shares,
        "traced_ops": len(ids),
        "untraced_ops": len(untraced),
        "prepared_nodes_per_source": totals["prepared_nodes_per_source"],
        "untraced_names": sorted(set(recorder.missing)),
    }
    return {name: out[name] for name, _ in PER_LAYER}, verdict


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(DEADLINE_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _on_alarm)
    cli, evaluator = import_library()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        runner = Runner(args.workload, args.seed, cli, evaluator, work)
        runner.warm_up()
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"setup_s": ready - args.t0}))
            return 0
        recorder = twin_recorder = None
        if args.trace:
            recorder, twin_recorder = spans.Recorder(), spans.Recorder()
        records = runner.measure(args.seconds, recorder, twin_recorder)
        result = {
            "setup_s": ready - args.t0,
            "threads": runner.threads,
            "deadline_s": runner.deadline,
            "end_to_end": end_to_end(records),
            "records": records,
        }
        if args.trace:
            result["per_layer"], result["dominant"] = per_layer(
                args.workload, records, recorder, twin_recorder, runner.chunk)
            spans.dump(recorder.spans, OUT / f"spans_{args.workload}_seed{args.seed}.jsonl")
        import scipy

        result["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                              "scipy": scipy.__version__}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
