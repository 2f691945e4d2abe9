"""Seeded op inputs for the benchmark workloads.

Every op input is a pure function of (workload, seed, op index), so the same
seed always gives the same inputs. The library only ever sees the generated
config documents and argument lists.

Op sizes are fixed per workload and only phases, offsets, times and scenario
parameters follow the seed, so the cost of an op does not depend on the seed.
"""

import math

import numpy as np

G = 6.67430e-11  # m^3 kg^-1 s^-2, kept here so oracles never read the library's copy

POOL_SIZE = 32  # distinct map inputs per run, cycled

# fieldmap-uniform: the criterion-8 scene on a 41x41 plane clear of the orbit.
# 1681 points per slice span four 512-point evaluation blocks, so threads split
# the block sum.
UNIFORM_TAU_G = 1e-3
UNIFORM_G = (0.0, 0.0, -9.81)
UNIFORM_COUNT = 41
UNIFORM_SLICES = 2

# fieldmap-pointmass: sources on free-fall (Kepler) circles about a point mass,
# which makes the exact answer the instantaneous Newton sum. The innermost
# orbit turns two radians over the 40 tau_g look-back window, as in criterion 4.
POINTMASS_TAU_G = 1e-3
POINTMASS_RADII = (1.0, 1.5, 2.0)
POINTMASS_OMEGA_INNER = 2.0 / (40.0 * POINTMASS_TAU_G)
POINTMASS_CENTRAL_MASS = POINTMASS_OMEGA_INNER**2 * POINTMASS_RADII[0] ** 3 / G
POINTMASS_COUNT = 5
POINTMASS_SLICES = 6

# scenarios-cli: one cycle holds CYCLE_REPEATS reports of each kind plus the
# CLI-default boost, whose probe sits on the naive past path and whose
# adaptive prediction does not finish (a known defect, counted as failed).
SCENARIO_KINDS = ("estimate", "static", "orbit", "jump", "boost")
CYCLE_REPEATS = 10
SCENARIO_CYCLES = 2  # distinct cycles per run, repeated in order
TAU_G_RANGE = (2.55e-4, 1e-2)  # CLI default up to 10 ms, log-uniform


def _rng(seed, index):
    return np.random.default_rng([int(seed), int(index)])


def _times(t0, step, count):
    return [float(t0 + k * step) for k in range(count)]


def fieldmap_uniform_input(seed, index):
    """Static source plus circular orbit in uniform g, 41x41 plane above the orbit."""
    rng = _rng(seed, index)
    scene = {
        "sources": [
            {"mass_kg": 2.0, "trajectory": {"kind": "static", "position": [0.0, 0.0, 0.0]}},
            {
                "mass_kg": 1.0,
                "trajectory": {
                    "kind": "circular_orbit",
                    "center": [0.0, 0.0, 0.0],
                    "radius": 1.0,
                    "omega": 10.0,
                    "phase": float(rng.uniform(0.0, 2.0 * math.pi)),
                },
            },
        ],
        "ambient": {"kind": "uniform", "g": list(UNIFORM_G)},
        "tau_g_s": UNIFORM_TAU_G,
    }
    origin = [
        -1.0 + float(rng.uniform(-0.1, 0.1)),
        -1.0 + float(rng.uniform(-0.1, 0.1)),
        2.0 + float(rng.uniform(0.0, 0.2)),
    ]
    grid = {
        "origin": origin,
        "axes": [
            {"direction": [1.0, 0.0, 0.0], "extent_m": 2.0, "count": UNIFORM_COUNT},
            {"direction": [0.0, 1.0, 0.0], "extent_m": 2.0, "count": UNIFORM_COUNT},
        ],
        "times": _times(float(rng.uniform(0.0, 0.1)), 1e-3, UNIFORM_SLICES),
    }
    return {"scene": scene, "grid": grid, "format": "csv"}


def fieldmap_pointmass_input(seed, index):
    """Sources on Kepler circles about a point mass, 5x5 plane above the orbit plane."""
    rng = _rng(seed, index)
    sources = []
    for k, radius in enumerate(POINTMASS_RADII):
        sources.append(
            {
                "mass_kg": float(k + 1),
                "trajectory": {
                    "kind": "circular_orbit",
                    "center": [0.0, 0.0, 0.0],
                    "radius": radius,
                    "omega": math.sqrt(G * POINTMASS_CENTRAL_MASS / radius**3),
                    "phase": float(rng.uniform(0.0, 2.0 * math.pi)),
                },
            }
        )
    scene = {
        "sources": sources,
        "ambient": {
            "kind": "point_mass",
            "position": [0.0, 0.0, 0.0],
            "mass_kg": POINTMASS_CENTRAL_MASS,
        },
        "tau_g_s": POINTMASS_TAU_G,
    }
    origin = [
        -2.0 + float(rng.uniform(-0.2, 0.2)),
        -2.0 + float(rng.uniform(-0.2, 0.2)),
        0.5 + float(rng.uniform(0.0, 0.5)),
    ]
    grid = {
        "origin": origin,
        "axes": [
            {"direction": [1.0, 0.0, 0.0], "extent_m": 4.0, "count": POINTMASS_COUNT},
            {"direction": [0.0, 1.0, 0.0], "extent_m": 4.0, "count": POINTMASS_COUNT},
        ],
        "times": _times(float(rng.uniform(0.0, 1.0)), 2e-3, POINTMASS_SLICES),
    }
    return {"scene": scene, "grid": grid, "format": "json"}


def _vec(v):
    return ",".join(repr(float(x)) for x in v)


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _scenario_op(kind, rng):
    """argv for one scenario report, every parameter inside the runner's regime gates."""
    log_lo, log_hi = (math.log(x) for x in TAU_G_RANGE)
    tau_g = math.exp(rng.uniform(log_lo, log_hi))
    mass = float(rng.uniform(0.5, 5.0))
    common = [f"--tau-g={tau_g!r}", f"--mass={mass!r}"]
    if kind == "estimate":
        rho = 10.0 ** float(rng.uniform(16.0, 18.0))
        return ["scenario", "estimate", f"--rho={rho!r}"]
    if kind == "static":
        g = float(rng.uniform(5.0, 15.0))
        d_min = max(1.0, 2e3 * g * tau_g**2)  # gate: d >= 1e3 * g * tau_g^2
        distances = sorted(float(d) for d in d_min * rng.uniform(1.0, 3.0, 2))
        return ["scenario", "static", *common, f"--g={g!r}",
                "--distances=" + ",".join(repr(d) for d in distances)]
    if kind == "orbit":
        # the gate allows omega tau_g <= 0.1, but above about 0.04 the next order
        # of the printed leading-order ratio exceeds the 1% criterion-3 tolerance
        w_tau = math.exp(rng.uniform(math.log(3e-3), math.log(3e-2)))
        radius = float(rng.uniform(0.5, 1.5))
        probe = radius * float(rng.uniform(3.0, 4.0))  # gate: >= 1e3 * R * (w tau)^2
        return ["scenario", "orbit", *common, f"--R={radius!r}",
                f"--omega={w_tau / tau_g!r}", f"--probe-distance={probe!r}"]
    if kind == "jump":
        a = _unit(rng) * float(rng.uniform(0.005, 0.02))
        probe = _unit(rng) * float(rng.uniform(0.1, 0.3))
        return ["scenario", "jump", *common, "--a=" + _vec(a), "--probe=" + _vec(probe)]
    # boost with the velocity perpendicular to the probe: the naive past path
    # stays at least |r| from the field point
    r_dir = _unit(rng)
    v_dir = np.cross(r_dir, _unit(rng))
    v_dir /= np.linalg.norm(v_dir)
    dist = float(rng.uniform(0.5, 2.0))
    speed = dist * float(rng.uniform(0.5, 2.0)) / tau_g  # |v| tau_g / |r| in [0.5, 2]
    return ["scenario", "boost", *common, "--v=" + _vec(speed * v_dir),
            "--probe=" + _vec(dist * r_dir)]


DEFAULT_BOOST_ARGV = ["scenario", "boost"]


def scenario_cycle(seed, cycle):
    """One cycle of scenario ops in seeded order: list of {"argv", "known_defect"}."""
    rng = _rng(seed, cycle)
    ops = [
        {"argv": _scenario_op(kind, rng), "known_defect": False}
        for kind in SCENARIO_KINDS
        for _ in range(CYCLE_REPEATS)
    ]
    ops.append({"argv": list(DEFAULT_BOOST_ARGV), "known_defect": True})
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def workload_ops(workload, seed):
    """The pool of op inputs a run cycles through, and the ops per cycle."""
    if workload == "fieldmap-uniform":
        return [fieldmap_uniform_input(seed, i) for i in range(POOL_SIZE)], 1
    if workload == "fieldmap-pointmass":
        return [fieldmap_pointmass_input(seed, i) for i in range(POOL_SIZE)], 1
    if workload == "scenarios-cli":
        ops = [op for c in range(SCENARIO_CYCLES) for op in scenario_cycle(seed, c)]
        return ops, len(ops) // SCENARIO_CYCLES
    raise ValueError(f"unknown workload {workload!r}")
