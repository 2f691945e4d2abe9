"""Span recorder for the traced benchmark run.

While installed, every traced library function is rebound, in every
lazy_newton module that holds it, to a wrapper that records a span: name,
start, end, parent span and the op it belongs to. Counts are taken at the
same boundaries from the arguments and results. Spans stay in memory until
the run ends; a span's self time is its duration minus its children's.
Uninstalling puts every original back.
"""

import functools
import json
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "child", "info")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = self.child = 0.0
        self.info = {}

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _scene_info(info, args, kwargs, result):
    info["points"] = int(np.atleast_2d(np.asarray(_arg(args, kwargs, 2, "points"))).shape[0])
    info["threads"] = _arg(args, kwargs, 5, "threads", 0)
    info["guard_hits"] = int(np.count_nonzero(result[2]))


def _prepare_info(info, args, kwargs, result):
    info["nodes"] = int(result.positions.shape[0])
    info["nodes_per_source"] = tuple(result.n_nodes_per_source)


def _kernel_info(info, args, kwargs, result):
    info["nodes"] = len(result)
    bps = _arg(args, kwargs, 1, "breakpoints", ())
    info["key"] = (_arg(args, kwargs, 0, "params"), tuple(float(b) for b in bps))


def _frame_info(info, args, kwargs, result):
    info["key"] = (args[0], args[1], float(args[2]), float(args[3]))
    info["tabulated"] = getattr(result, "_nodes", None) is not None


def _query_info(info, args, kwargs, result):
    info["points"] = int(np.size(args[1]))  # args[0] is the trajectory or frame


def _fit_info(info, args, kwargs, result):
    info["iterations"] = int(result.iterations)


def _runner_info(info, args, kwargs, result):
    info["evaluations"] = int(result.diagnostics.get("potential_evaluations", 0))


# (module, function, span name, count hook). A missing name is reported, not fatal.
FUNCTIONS = [
    ("lazy_newton.cli", "main", "cli.main", None),
    ("lazy_newton.cli", "parse_scene_config", "cli.parse", None),
    ("lazy_newton.cli", "parse_grid_spec", "cli.parse", None),
    ("lazy_newton.evaluator", "scene_potential_field", "evaluator.block", _scene_info),
    ("lazy_newton.evaluator", "prepare_scene", "evaluator.prepare", _prepare_info),
    ("lazy_newton.evaluator", "kernel_weights", "evaluator.kernel_weights", _kernel_info),
    ("lazy_newton.evaluator", "delayed_potential", "evaluator.point", None),
    ("lazy_newton.evaluator", "delayed_field", "evaluator.point", None),
    ("lazy_newton.evaluator", "delayed_potential_naive", "evaluator.point", None),
    ("lazy_newton.frames", "build_frame", "frames.build", _frame_info),
    ("lazy_newton.scenarios", "estimate_report", "scenarios.runner", _runner_info),
    ("lazy_newton.scenarios", "static_shift_scenario", "scenarios.runner", _runner_info),
    ("lazy_newton.scenarios", "orbit_scenario", "scenarios.runner", _runner_info),
    ("lazy_newton.scenarios", "jump_scenario", "scenarios.runner", _runner_info),
    ("lazy_newton.scenarios", "boost_demo", "scenarios.runner", _runner_info),
    ("lazy_newton.scenarios", "fit_apparent_shift", "scenarios.fit", _fit_info),
]

# (module, base class, method, span name, count hook): the method is wrapped on
# the base and on every subclass in the module that defines its own.
METHODS = [
    ("lazy_newton.kinematics", "Trajectory", "position", "kinematics.position", _query_info),
    ("lazy_newton.frames", "FreeFallFrame", "origin", "frames.origin", _query_info),
]

# argparse work inside cli.main: the parser factory and its parse_args call
PARSER_FACTORY = ("lazy_newton.cli", "_build_parser")


class Recorder:
    """Collects spans from wrapped library functions; ``op`` tags new spans."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.missing = []
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, hook=None):
        """A wrapper around ``fn`` that records one span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, stack[-1] if stack else None, self.op)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.duration
                self.spans.append(span)
            if hook is not None:
                hook(span.info, args, kwargs, result)
            return result

        return traced

    def _rebind(self, original, wrapper):
        """Point every lazy_newton module attribute holding ``original`` at ``wrapper``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lazy_newton" or mod_name.startswith("lazy_newton.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self):
        if self._undo:
            raise RuntimeError("recorder already installed")
        self.missing = []
        for mod_name, attr, name, hook in FUNCTIONS:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._rebind(original, self.wrap(name, original, hook))
        for mod_name, base_name, method, name, hook in METHODS:
            mod = sys.modules.get(mod_name)
            base = getattr(mod, base_name, None)
            if base is None:
                self.missing.append(f"{mod_name}.{base_name}.{method}")
                continue
            for cls in vars(mod).values():
                if isinstance(cls, type) and issubclass(cls, base) and method in vars(cls):
                    original = vars(cls)[method]
                    setattr(cls, method, self.wrap(name, original, hook))
                    self._undo.append((cls, method, original))
        mod_name, attr = PARSER_FACTORY
        factory = getattr(sys.modules.get(mod_name), attr, None)
        if factory is None:
            self.missing.append(f"{mod_name}.{attr}")
        else:
            def with_traced_parse(parser):
                parser.parse_args = self.wrap("cli.parse", parser.parse_args)
                return parser

            traced = self.wrap("cli.parse", factory)
            self._rebind(factory, lambda *a, **k: with_traced_parse(traced(*a, **k)))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


@contextmanager
def installed(recorder):
    """Trace library calls inside the block; originals are restored on exit."""
    recorder.install()
    try:
        yield recorder
    finally:
        recorder.uninstall()


# ---------------------------------------------------------------------------
# per-layer aggregation

# self-time metric of each span bucket; together they partition traced op time
LAYER_TIMES = {
    "evaluator.block_self_s": "evaluator.block",
    "evaluator.prepare_self_s": "evaluator.prepare",
    "evaluator.point_self_s": "evaluator.point",
    "evaluator.kernel_weights_s": "evaluator.kernel_weights",
    "frames.tabulated_build_s": "frames.build/tabulated",
    "frames.analytic_build_s": "frames.build/analytic",
    "frames.origin_s": "frames.origin",
    "kinematics.position_s": "kinematics.position",
    "scenarios.runner_self_s": "scenarios.runner",
    "scenarios.fit_s": "scenarios.fit",
    "cli.parse_s": "cli.parse",
    "cli.self_s": "cli.main",
}


def _bucket(span):
    if span.name == "frames.build":
        return "frames.build/" + ("tabulated" if span.info.get("tabulated") else "analytic")
    return span.name


def layer_totals(spans, ops, chunk):
    """Per-layer sums over the spans of the given ops (times in s, counts)."""
    ops = set(ops)
    selected = [s for s in spans if s.op in ops]
    self_by_bucket = {}
    for s in selected:
        b = _bucket(s)
        self_by_bucket[b] = self_by_bucket.get(b, 0.0) + s.self_time
    out = {metric: self_by_bucket.get(bucket, 0.0) for metric, bucket in LAYER_TIMES.items()}

    def named(name):
        return [s for s in selected if s.name == name]

    def distinct_share(group):
        """Distinct keys over builds, per op: 1 means nothing was rebuilt."""
        built = len(group)
        distinct = len({(s.op, s.info["key"]) for s in group if "key" in s.info})
        return distinct / built if built else 0.0

    nodes_by_scene = {}
    for s in named("evaluator.prepare"):
        if s.parent is not None and s.parent.name == "evaluator.block":
            nodes_by_scene[id(s.parent)] = s.info.get("nodes", 0)
    pairs = 0
    block_bytes = 0
    for s in named("evaluator.block"):
        k = nodes_by_scene.get(id(s), 0)
        n = s.info.get("points", 0)
        pairs += n * k
        # (b, K, 3) separations plus four (b, K) float64 temporaries and one
        # (b, K) bool mask per block, times the blocks that run at once
        b = min(chunk, n)
        concurrent = max(1, min(s.info.get("threads") or 1, -(-n // chunk)))
        block_bytes = max(block_bytes, concurrent * b * k * (3 * 8 + 4 * 8 + 1))
    tables = named("evaluator.kernel_weights")
    frames = named("frames.build")
    positions = named("kinematics.position")
    out.update({
        "evaluator.pair_interactions": pairs,
        "evaluator.block_bytes_computed": block_bytes,
        "evaluator.nodes_per_source": (
            sum(s.info.get("nodes", 0) for s in tables) / len(tables) if tables else 0.0),
        "evaluator.point_calls": len(named("evaluator.point")),
        "evaluator.kernel_weights_calls": len(tables),
        "evaluator.kernel_table_reuse": distinct_share(tables),
        "frames.frame_reuse": distinct_share(frames),
        "evaluator.prepare_calls": len(named("evaluator.prepare")),
        "frames.tabulated_builds": sum(1 for s in frames if s.info.get("tabulated")),
        "frames.analytic_builds": sum(1 for s in frames if not s.info.get("tabulated")),
        "frames.origin_calls": len(named("frames.origin")),
        "kinematics.position_calls": len(positions),
        "kinematics.position_points": sum(s.info.get("points", 0) for s in positions),
        "scenarios.fit_iterations": sum(s.info.get("iterations", 0) for s in named("scenarios.fit")),
        "scenarios.potential_evaluations": sum(
            s.info.get("evaluations", 0) for s in named("scenarios.runner")),
        "evaluator.guard_hits": sum(s.info.get("guard_hits", 0) for s in named("evaluator.block")),
    })
    prepared = [n for s in named("evaluator.prepare") for n in s.info.get("nodes_per_source", ())]
    out["prepared_nodes_per_source"] = sum(prepared) / len(prepared) if prepared else 0.0
    return out


def dump(spans, path):
    """Write spans as JSON lines: name, op, start, end, self time and parent index."""
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({
                "name": _bucket(s),
                "op": s.op,
                "start": s.start,
                "end": s.end,
                "self_s": s.self_time,
                "parent": index.get(id(s.parent)),
                "info": {k: v for k, v in s.info.items() if k != "key"},
            }) + "\n")
