"""Command-line surface: canned scenarios and config-driven field maps.

Exit codes: 0 success; 2 for bad flags, bad config documents, or parameter
regimes the scenarios refuse to run in; 1 for numeric failures during an
otherwise valid run (including field maps that had to emit nan rows).

Field maps are deterministic: identical inputs produce byte-identical output
files. Maps run on the calling thread; LAZY_NEWTON_THREADS is accepted and
ignored.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, RegimeError, SingularApproach
from .evaluator import (
    AdaptiveSimpson,
    GaussLegendre,
    KernelParams,
    Source,
    scene_potential_fields,
)
from .frames import PointMassField, UniformField, ZeroField
from .kinematics import (
    CircularOrbit,
    PiecewiseStatic,
    Sampled,
    Static,
    UniformAcceleration,
    UniformVelocity,
)
from .scenarios import (
    boost_demo,
    estimate_report,
    estimate_tau_g,
    jump_scenario,
    orbit_scenario,
    static_shift_scenario,
)

__all__ = ["main", "run", "SceneConfig", "GridSpec", "parse_scene_config", "parse_grid_spec"]

DEFAULT_RHO_NUCL = 2.3e17  # kg/m^3, sets the default tau_g order of magnitude
CSV_HEADER = "t,x,y,z,phi,gx,gy,gz"


# ---------------------------------------------------------------------------
# strict config parsing

_MISSING = object()


class _Fields:
    """Dict wrapper that tracks consumed keys and reports precise paths."""

    def __init__(self, path, data):
        if not isinstance(data, dict):
            raise ConfigError(path, f"expected an object, got {type(data).__name__}")
        self.path = path
        self._data = data
        self._seen = set()

    def take(self, key, default=_MISSING):
        self._seen.add(key)
        if key in self._data:
            return self._data[key]
        if default is _MISSING:
            raise ConfigError(f"{self.path}.{key}", "required key is missing")
        return default

    def finish(self):
        unknown = sorted(set(self._data) - self._seen)
        if unknown:
            raise ConfigError(f"{self.path}.{unknown[0]}", "unknown key")


def _as_float(path, value, *, minimum=None, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(value).__name__}")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(path, "must be finite")
    if positive and not out > 0.0:
        raise ConfigError(path, "must be > 0")
    if minimum is not None and out < minimum:
        raise ConfigError(path, f"must be >= {minimum:g}")
    return out


def _as_int(path, value, *, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}")
    return int(value)


def _as_vec3(path, value):
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(path, "expected a list of 3 numbers")
    return [_as_float(f"{path}[{i}]", v) for i, v in enumerate(value)]


def _as_list(path, value):
    if not isinstance(value, list):
        raise ConfigError(path, f"expected a list, got {type(value).__name__}")
    return value


def _parse_trajectory(path, data):
    f = _Fields(path, data)
    kind = f.take("kind")
    if kind == "static":
        traj = Static(_as_vec3(f"{path}.position", f.take("position")))
    elif kind == "uniform_velocity":
        traj = UniformVelocity(
            _as_vec3(f"{path}.position", f.take("position")),
            _as_vec3(f"{path}.velocity", f.take("velocity")),
        )
    elif kind == "uniform_acceleration":
        traj = UniformAcceleration(
            _as_vec3(f"{path}.position", f.take("position")),
            _as_vec3(f"{path}.velocity", f.take("velocity")),
            _as_vec3(f"{path}.acceleration", f.take("acceleration")),
        )
    elif kind == "circular_orbit":
        traj = CircularOrbit(
            _as_vec3(f"{path}.center", f.take("center")),
            _as_float(f"{path}.radius", f.take("radius"), positive=True),
            _as_float(f"{path}.omega", f.take("omega")),
            _as_float(f"{path}.phase", f.take("phase", 0.0)),
            _as_vec3(f"{path}.normal", f.take("normal", [0.0, 0.0, 1.0])),
        )
    elif kind == "piecewise_static":
        raw = _as_list(f"{path}.epochs", f.take("epochs"))
        epochs = []
        for i, entry in enumerate(raw):
            if not isinstance(entry, list) or len(entry) != 2:
                raise ConfigError(f"{path}.epochs[{i}]", "expected [time, [x, y, z]]")
            epochs.append(
                (
                    _as_float(f"{path}.epochs[{i}][0]", entry[0]),
                    _as_vec3(f"{path}.epochs[{i}][1]", entry[1]),
                )
            )
        traj = PiecewiseStatic(tuple(epochs))
    elif kind == "sampled":
        times = [_as_float(f"{path}.times[{i}]", v)
                 for i, v in enumerate(_as_list(f"{path}.times", f.take("times")))]
        positions = [_as_vec3(f"{path}.positions[{i}]", v)
                     for i, v in enumerate(_as_list(f"{path}.positions", f.take("positions")))]
        traj = Sampled(times, positions)
    else:
        raise ConfigError(f"{path}.kind", f"unknown trajectory kind {kind!r}")
    f.finish()
    return traj


def _parse_ambient(path, data):
    f = _Fields(path, data)
    kind = f.take("kind")
    if kind == "zero":
        out = ZeroField()
    elif kind == "uniform":
        out = UniformField(_as_vec3(f"{path}.g", f.take("g")))
    elif kind == "point_mass":
        out = PointMassField(
            _as_vec3(f"{path}.position", f.take("position")),
            _as_float(f"{path}.mass_kg", f.take("mass_kg"), positive=True),
            _as_float(f"{path}.softening_m", f.take("softening_m", 1e-9), positive=True),
        )
    else:
        raise ConfigError(f"{path}.kind", f"unknown ambient kind {kind!r}")
    f.finish()
    return out


def _parse_quadrature(path, data):
    f = _Fields(path, data)
    scheme = f.take("scheme")
    if scheme == "gauss_legendre":
        default = GaussLegendre()
        out = GaussLegendre(
            _as_int(f"{path}.order", f.take("order", default.order), minimum=2),
            _as_float(
                f"{path}.max_segment_tau_g",
                f.take("max_segment_tau_g", default.max_segment_tau_g),
                positive=True,
            ),
        )
    elif scheme == "adaptive_simpson":
        rel_tol = _as_float(f"{path}.rel_tol", f.take("rel_tol", AdaptiveSimpson().rel_tol),
                            positive=True)
        if rel_tol > 1e-6:
            raise ConfigError(f"{path}.rel_tol", "must be <= 1e-6")
        out = AdaptiveSimpson(rel_tol)
    else:
        raise ConfigError(f"{path}.scheme", f"unknown quadrature scheme {scheme!r}")
    f.finish()
    return out


@dataclass
class SceneConfig:
    """Parsed scene: sources, ambient field, and kernel parameters."""

    sources: list
    ambient: object
    params: KernelParams


def parse_scene_config(data, path="scene"):
    f = _Fields(path, data)
    sources = []
    for i, entry in enumerate(_as_list(f"{path}.sources", f.take("sources"))):
        sf = _Fields(f"{path}.sources[{i}]", entry)
        mass = _as_float(f"{sf.path}.mass_kg", sf.take("mass_kg"), positive=True)
        traj = _parse_trajectory(f"{sf.path}.trajectory", sf.take("trajectory"))
        sf.finish()
        sources.append(Source(mass, traj))
    ambient = _parse_ambient(f"{path}.ambient", f.take("ambient", {"kind": "zero"}))
    tau_g = _as_float(f"{path}.tau_g_s", f.take("tau_g_s"), minimum=0.0)
    t_max_factor = _as_float(f"{path}.t_max_factor", f.take("t_max_factor", 40.0), minimum=20.0)
    softening = _as_float(f"{path}.softening_m", f.take("softening_m", 1e-9), positive=True)
    quadrature = _parse_quadrature(
        f"{path}.quadrature", f.take("quadrature", {"scheme": "gauss_legendre"})
    )
    f.finish()
    params = KernelParams(tau_g, t_max_factor, softening, quadrature)
    return SceneConfig(sources, ambient, params)


@dataclass
class GridSpec:
    """Evaluation lattice: origin, up to three axes, and a time list."""

    origin: list
    axes: list  # of (unit direction [3], extent m, count)
    times: list

    def points(self):
        """Lattice points, axis-lexicographic (last axis fastest)."""
        origin = np.asarray(self.origin)
        if not self.axes:
            return origin[None, :]
        offsets = [
            np.linspace(0.0, extent, count)[:, None] * np.asarray(direction)
            for direction, extent, count in self.axes
        ]
        pts = origin
        for off in offsets:
            pts = pts[..., None, :] + off
        return pts.reshape(-1, 3)


def parse_grid_spec(data, path="grid"):
    f = _Fields(path, data)
    origin = _as_vec3(f"{path}.origin", f.take("origin", [0.0, 0.0, 0.0]))
    axes = []
    raw_axes = _as_list(f"{path}.axes", f.take("axes", []))
    if len(raw_axes) > 3:
        raise ConfigError(f"{path}.axes", "at most 3 axes")
    for i, entry in enumerate(raw_axes):
        af = _Fields(f"{path}.axes[{i}]", entry)
        direction = _as_vec3(f"{af.path}.direction", af.take("direction"))
        extent = _as_float(f"{af.path}.extent_m", af.take("extent_m"), positive=True)
        count = _as_int(f"{af.path}.count", af.take("count"), minimum=1)
        af.finish()
        norm = math.sqrt(sum(x * x for x in direction))
        if norm == 0.0:
            raise ConfigError(f"{af.path}.direction", "must be nonzero")
        axes.append(([x / norm for x in direction], extent, count))
    raw_times = f.take("times")
    if isinstance(raw_times, dict):
        tf = _Fields(f"{path}.times", raw_times)
        start = _as_float(f"{tf.path}.start", tf.take("start"))
        stop = _as_float(f"{tf.path}.stop", tf.take("stop"))
        steps = _as_int(f"{tf.path}.steps", tf.take("steps"), minimum=1)
        tf.finish()
        times = [float(v) for v in np.linspace(start, stop, steps)]
    else:
        times = [_as_float(f"{path}.times[{i}]", v)
                 for i, v in enumerate(_as_list(f"{path}.times", raw_times))]
        if not times:
            raise ConfigError(f"{path}.times", "need at least one time")
    f.finish()
    return GridSpec(origin, axes, times)


# ---------------------------------------------------------------------------
# flag helpers

def _vec3_flag(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected x,y,z got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric component in {text!r}") from None


def _times_flag(text):
    """Either t0:t1:N (N linearly spaced times) or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"expected t0:t1:N got {text!r}")
        try:
            t0, t1, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad time range {text!r}") from None
        if n < 1:
            raise argparse.ArgumentTypeError("time count must be >= 1")
        return [float(v) for v in np.linspace(t0, t1, n)]
    try:
        return [float(p) for p in text.split(",") if p]
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric time in {text!r}") from None


def _floats_flag(text):
    try:
        return [float(p) for p in text.split(",") if p]
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric value in {text!r}") from None


def _emit(text, out):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_report(report, out):
    _emit(json.dumps(report.to_dict(), indent=2) + "\n", out)


# ---------------------------------------------------------------------------
# commands

def _scenario_kernel(args):
    return KernelParams(
        tau_g=args.tau_g,
        t_max_factor=args.t_max_factor,
        quadrature=GaussLegendre(order=args.order),
    )


def _cmd_scenario(args):
    if args.name == "estimate":
        report = estimate_report(args.rho)
    elif args.name == "static":
        report = static_shift_scenario(
            args.g, args.tau_g, args.mass, args.distances, params=_scenario_kernel(args)
        )
    elif args.name == "orbit":
        report = orbit_scenario(
            args.R, args.omega, args.tau_g, args.mass,
            probe_distance=args.probe_distance, params=_scenario_kernel(args),
        )
    elif args.name == "jump":
        report = jump_scenario(
            args.a, args.tau_g, args.mass, args.probe, args.times,
            params=_scenario_kernel(args),
        )
    else:
        report = boost_demo(
            args.v, args.tau_g, args.mass, args.probe, params=_scenario_kernel(args)
        )
    _emit_report(report, args.out)
    return 0


def _format_csv(points, slices):
    """CSV text of a map in CSV_HEADER order: one row per point of each (t, (n, 4) values) slice.

    Each point's "x,y,z" is formatted once per map and each t once per slice.
    """
    xyz = [",".join(map(repr, p)) for p in points.tolist()]
    lines = [CSV_HEADER]
    for t, values in slices:
        head = repr(float(t)) + ","
        lines += [head + p + "," + ",".join(map(repr, v)) for p, v in zip(xyz, values.tolist())]
    return "\n".join(lines) + "\n"


def _format_json(points, slices):
    """JSON text of the same rows as _format_csv; nan values are null."""
    coords = points.tolist()
    rows = [[float(t), *p, *v] for t, values in slices for p, v in zip(coords, values.tolist())]
    payload = {
        "schema_version": 1,
        "columns": CSV_HEADER.split(","),
        "rows": [[None if math.isnan(v) else v for v in row] for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def _cmd_field(args):
    try:
        scene_doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(args.config, f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(args.config, f"invalid JSON: {exc}") from None
    try:
        grid_doc = json.loads(Path(args.grid).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(args.grid, f"cannot read grid: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(args.grid, f"invalid JSON: {exc}") from None
    scene = parse_scene_config(scene_doc)
    grid = parse_grid_spec(grid_doc)

    points = grid.points()
    fields = scene_potential_fields(scene.sources, scene.ambient, points, grid.times, scene.params)
    singular_rows = sum(int(singular.sum()) for _, _, singular in fields)
    slices = [(t, np.column_stack([phi, grad])) for t, (phi, grad, _) in zip(grid.times, fields)]
    text = (_format_csv if args.format == "csv" else _format_json)(points, slices)
    _emit(text, args.out)
    if singular_rows:
        print(
            f"warning: {singular_rows} of {len(slices) * len(points)} rows hit the softening guard "
            "and carry nan fields",
            file=sys.stderr,
        )
        return 1
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lazy-newton",
        description="Delayed Newtonian gravity: scenarios and field maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output file (default: stdout)")

    kernel = argparse.ArgumentParser(add_help=False)
    kernel.add_argument(
        "--tau-g", type=float, default=estimate_tau_g(DEFAULT_RHO_NUCL),
        help="kernel time constant in seconds (default: the nuclear-density estimate)",
    )
    kernel.add_argument("--mass", type=float, default=1.0, help="source mass in kg")
    kernel.add_argument("--order", type=int, default=GaussLegendre().order,
                        help="Gauss-Legendre order")
    kernel.add_argument("--t-max-factor", type=float, default=40.0,
                        help="look-back truncation in units of tau_g")

    scen = sub.add_parser("scenario", help="run a canned scenario, emit a JSON report")
    scen_sub = scen.add_subparsers(dest="name", required=True)

    p = scen_sub.add_parser("static", parents=[common, kernel],
                            help="supported static source in uniform gravity")
    p.add_argument("--g", type=float, default=9.81, help="gravity magnitude m/s^2")
    p.add_argument("--distances", type=_floats_flag, default=(1.0,),
                   help="comma-separated probe distances in m")

    p = scen_sub.add_parser("orbit", parents=[common, kernel], help="revolving source")
    p.add_argument("--R", type=float, default=1.0, help="orbit radius in m")
    p.add_argument("--omega", type=float, default=10.0, help="angular frequency rad/s")
    p.add_argument("--probe-distance", type=float, default=1.0,
                   help="shift-fit probe distance in m")

    p = scen_sub.add_parser("jump", parents=[common, kernel],
                            help="sudden displacement of a static source")
    p.add_argument("--a", type=_vec3_flag, default=(0.0, 0.0, 0.01),
                   help="new position x,y,z in m")
    p.add_argument("--probe", type=_vec3_flag, default=(0.0, 0.1, 0.0),
                   help="field point x,y,z in m")
    p.add_argument("--times", type=_times_flag, default=None,
                   help="times: t0:t1:N or comma list (default 50 spanning the kernel)")

    p = scen_sub.add_parser("boost", parents=[common, kernel],
                            help="same scene described at rest and boosted")
    p.add_argument("--v", type=_vec3_flag, default=(0.0, 1000.0, 0.0),
                   help="boost velocity x,y,z in m/s")
    p.add_argument("--probe", type=_vec3_flag, default=(0.0, 1.0, 0.0),
                   help="field point x,y,z in m")

    p = scen_sub.add_parser("estimate", parents=[common],
                            help="order-of-magnitude tau_g from a mass density")
    p.add_argument("--rho", type=float, default=DEFAULT_RHO_NUCL, help="density kg/m^3")

    f = sub.add_parser("field", parents=[common],
                       help="evaluate potential and field over a grid and times")
    f.add_argument("--config", required=True, help="scene config JSON file")
    f.add_argument("--grid", required=True, help="grid spec JSON file")
    f.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


# Built once per process: building the tree costs far more than parsing with it.
# Every default is immutable, so no parse can leak into the next.
_PARSER = _build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "scenario":
            if args.name == "jump" and args.times is None:
                args.times = [float(v) for v in np.linspace(0.01 * args.tau_g,
                                                            40.0 * args.tau_g, 50)]
            return _cmd_scenario(args)
        return _cmd_field(args)
    except (RegimeError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SingularApproach as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


def run():
    sys.exit(main())
