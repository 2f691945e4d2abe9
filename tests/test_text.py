"""The repr kernel: the same bytes as repr, element by element, and how often it falls back."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lazy_newton import text
from lazy_newton.cli import parse_grid_spec, parse_scene_config
from lazy_newton.evaluator import scene_potential_fields
from lazy_newton.text import WIDTH, repr_cells


def reprs(values):
    return list(map(repr, values))


def kernel_texts(values):
    cells, fallbacks = repr_cells(values, reprs)
    assert cells.shape == (np.size(values), WIDTH)
    return [bytes(row[row != 0]).decode("ascii") for row in cells], fallbacks


def assert_reprs(values):
    values = np.asarray(values, dtype=float).ravel()
    got, _ = kernel_texts(values)
    want = reprs(values.tolist())
    assert [(w, g) for w, g in zip(want, got) if w != g] == []


def nudged(values, steps):
    """Each value and its neighbours up to ``steps`` ulps away on both sides (past the largest: inf)."""
    out = [np.asarray(values, dtype=float)]
    with np.errstate(over="ignore", under="ignore"):
        for direction in (np.inf, -np.inf):
            v = out[0]
            for _ in range(steps):
                v = np.nextafter(v, direction)
                out.append(v)
    return np.concatenate(out)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(0, 64), elements={"allow_subnormal": True}))
def test_arbitrary_arrays_match_repr(values):
    # hypothesis draws zeros of both signs, nan, infinities and subnormals among the rest
    assert_reprs(values)


def test_random_bit_patterns_match_repr():
    bits = np.random.default_rng(18).integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                                              size=200_000, dtype=np.int64)
    assert_reprs(bits.view(np.float64))


def test_powers_of_ten_four_ulps_either_side():
    powers = np.array([10.0**k for k in range(-307, 309)])
    assert_reprs(nudged(powers, 4))


def test_short_decimals():
    k = np.arange(1, 1000, dtype=float)
    assert_reprs(k[:, None] * 10.0 ** np.arange(-30, 31)[None, :])


def test_powers_of_two_one_ulp_either_side():
    assert_reprs(nudged(2.0 ** np.arange(-1074, 1024), 1))


def test_decimal_midpoints():
    digits = np.arange(1, 1000, 7, dtype=float) + 0.5
    assert_reprs(nudged((digits[:, None] * 10.0 ** np.arange(-20, 21)[None, :]).ravel(), 1))


def test_notation_switches_and_extremes():
    values = [1e-4, 1e-5, 1e16, 9999999999999998.0, 1e-12, 1e23, 0.1, 5e-324,
              np.finfo(float).max, np.finfo(float).tiny]
    assert_reprs(nudged(np.array(values), 2))
    assert_reprs(-nudged(np.array(values), 2))


def test_fast_path_bounds():
    # the largest and smallest fast-path exponents and their neighbours outside it
    edges = np.ldexp(1.0, [-930, -929, 929, 930])
    assert_reprs(nudged(edges, 3))
    inside = nudged(np.ldexp(1.5, [-929, 929]), 3)
    got, fallbacks = kernel_texts(inside)
    assert fallbacks == 0
    assert got == reprs(inside.tolist())


def test_other_text_writes_the_rest_once_per_bit_pattern():
    values = np.array([0.0, -0.0, np.nan, 0.0, 2.0, 0.1, np.inf, -np.inf, 2.0, 1e-250, 5e-324])
    seen = []

    def other(vs):
        seen.append(vs)
        return [f"<{v!r}>" for v in vs]

    cells, fallbacks = repr_cells(values, other)
    assert fallbacks == 9  # 0.1 and 1e-250 are the only fast-path values
    assert len(seen) == 1 and len(seen[0]) == 7
    got = [bytes(row[row != 0]).decode() for row in cells]
    assert got[5] == "0.1" and got[9] == "1e-250"
    assert got[0] == "<0.0>" and got[1] == "<-0.0>" and got[4] == got[8] == "<2.0>"


def test_empty_input():
    cells, fallbacks = repr_cells(np.empty((0, 4)), reprs)
    assert cells.shape == (0, WIDTH) and fallbacks == 0


def test_criterion_8_map_values_never_fall_back():
    # a kernel that fell back on every value would give the same bytes and
    # none of the speed
    scene = parse_scene_config({
        "sources": [
            {"mass_kg": 2.0, "trajectory": {"kind": "static", "position": [0, 0, 0]}},
            {"mass_kg": 1.0, "trajectory": {"kind": "circular_orbit", "center": [0, 0, 0],
                                            "radius": 1.0, "omega": 10.0}},
        ],
        "ambient": {"kind": "uniform", "g": [0, 0, -9.81]},
        "tau_g_s": 1e-3,
    })
    grid = parse_grid_spec({
        "origin": [-1.0, -1.0, 2.0],
        "axes": [{"direction": [1, 0, 0], "extent_m": 2.0, "count": 21},
                 {"direction": [0, 1, 0], "extent_m": 2.0, "count": 21}],
        "times": {"start": 0.0, "stop": 2e-3, "steps": 10},
    })
    fields = scene_potential_fields(scene.sources, scene.ambient, grid.points(), grid.times, scene.params)
    values = np.stack([np.column_stack([phi, g]) for phi, g, _ in fields])
    assert values.size == 10 * 441 * 4
    got, fallbacks = kernel_texts(values)
    assert fallbacks == 0
    assert got == reprs(values.ravel().tolist())


def test_pow10_double_double_over_every_exponent_in_use():
    # j = 16 - floor(e log10 2) for binary exponents e within +-929
    for j in range(-263, 297):
        hi, lo, high, low = text._pow10(j)
        exact = Fraction(10) ** j
        assert hi == float(exact)
        assert abs(Fraction(hi) + Fraction(lo) - exact) <= exact / 2**104
        # Dekker's split: two halves of at most 26 significant bits that add up to hi
        assert high + low == hi
        assert all((math.frexp(v)[0] * 2**26).is_integer() for v in (high, low))


def test_import_builds_no_power_table():
    src = Path(text.__file__).resolve().parents[1]
    code = ("import lazy_newton.cli, lazy_newton.text as t; "
            "print(t._pow10.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert done.stdout.strip() == "0"
