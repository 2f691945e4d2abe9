import json
import math
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import lazy_newton.cli as cli
from lazy_newton.cli import _build_parser, main, parse_grid_spec, parse_scene_config
from lazy_newton.constants import G
from lazy_newton.errors import ConfigError, SingularApproach
from lazy_newton.evaluator import (
    CHUNK,
    AdaptiveSimpson,
    GaussLegendre,
    KernelParams,
    _framed,
    _values,
    scene_potential_field,
)
from lazy_newton.frames import PointMassField, UniformField, ZeroField, build_frame
from lazy_newton.kinematics import (
    CircularOrbit,
    PiecewiseStatic,
    Sampled,
    Static,
    UniformAcceleration,
    UniformVelocity,
)


def scene_doc():
    return {
        "sources": [
            {
                "mass_kg": 2.0,
                "trajectory": {
                    "kind": "piecewise_static",
                    "epochs": [[-100.0, [0.0, 0.0, 0.0]], [0.0, [0.0, 0.0, 0.01]]],
                },
            },
            {
                "mass_kg": 1.0,
                "trajectory": {
                    "kind": "circular_orbit",
                    "center": [0.0, 0.0, 0.0],
                    "radius": 1.0,
                    "omega": 10.0,
                },
            },
        ],
        "ambient": {"kind": "uniform", "g": [0.0, 0.0, -9.81]},
        "tau_g_s": 1e-3,
    }


def grid_doc():
    return {
        "origin": [0.0, 0.0, 2.0],
        "axes": [
            {"direction": [1.0, 0.0, 0.0], "extent_m": 1.0, "count": 3},
            {"direction": [0.0, 1.0, 0.0], "extent_m": 1.0, "count": 2},
        ],
        "times": [0.0, 5e-4],
    }


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestSceneConfig:
    def test_parses_scene(self):
        cfg = parse_scene_config(scene_doc())
        jump, orbit = cfg.sources
        assert (jump.mass, orbit.mass) == (2.0, 1.0)
        assert type(jump.trajectory) is PiecewiseStatic
        assert [(t, p.tolist()) for t, p in jump.trajectory.epochs] == [(-100.0, [0.0, 0.0, 0.0]),
                                                                        (0.0, [0.0, 0.0, 0.01])]
        assert type(orbit.trajectory) is CircularOrbit
        traj = orbit.trajectory
        assert (traj.center.tolist(), traj.radius, traj.angular_frequency) == ([0.0, 0.0, 0.0], 1.0, 10.0)
        assert (traj.phase, traj.normal.tolist()) == (0.0, [0.0, 0.0, 1.0])
        assert type(cfg.ambient) is UniformField and cfg.ambient.g.tolist() == [0.0, 0.0, -9.81]
        assert cfg.params == KernelParams(1e-3, 40.0, 1e-9, GaussLegendre())

    def test_parses_all_trajectories_and_ambients(self):
        doc = {
            "sources": [
                {"mass_kg": 1.0, "trajectory": {"kind": "static", "position": [1, 0, 0]}},
                {
                    "mass_kg": 1.0,
                    "trajectory": {
                        "kind": "uniform_velocity",
                        "position": [0, 0, 0],
                        "velocity": [1, 0, 0],
                    },
                },
                {
                    "mass_kg": 1.0,
                    "trajectory": {
                        "kind": "uniform_acceleration",
                        "position": [0, 0, 0],
                        "velocity": [0, 0, 0],
                        "acceleration": [0, 0, -9.81],
                    },
                },
                {
                    "mass_kg": 1.0,
                    "trajectory": {
                        "kind": "sampled",
                        "times": [-1.0, 0.0, 1.0, 2.0],
                        "positions": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
                    },
                },
            ],
            "ambient": {"kind": "point_mass", "position": [0, 0, -10], "mass_kg": 5e10},
            "tau_g_s": 0.0,
            "quadrature": {"scheme": "adaptive_simpson", "rel_tol": 1e-10},
        }
        cfg = parse_scene_config(doc)
        static, velocity, acceleration, sampled = (src.trajectory for src in cfg.sources)
        assert [src.mass for src in cfg.sources] == [1.0] * 4
        assert type(static) is Static and static.p0.tolist() == [1.0, 0.0, 0.0]
        assert type(velocity) is UniformVelocity
        assert (velocity.p0.tolist(), velocity.v.tolist()) == ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        assert type(acceleration) is UniformAcceleration
        assert (acceleration.p0.tolist(), acceleration.v0.tolist(), acceleration.a.tolist()) == (
            [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -9.81])
        assert type(sampled) is Sampled and sampled.times.tolist() == [-1.0, 0.0, 1.0, 2.0]
        assert sampled.positions.tolist() == [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
        assert type(cfg.ambient) is PointMassField
        assert (cfg.ambient.position.tolist(), cfg.ambient.mass, cfg.ambient.softening) == (
            [0.0, 0.0, -10.0], 5e10, 1e-9)
        assert cfg.params == KernelParams(0.0, quadrature=AdaptiveSimpson(1e-10))

    def test_unknown_key_has_dotted_path(self):
        doc = scene_doc()
        doc["ambiant"] = {"kind": "zero"}
        with pytest.raises(ConfigError, match=r"scene\.ambiant: unknown key"):
            parse_scene_config(doc)

    def test_unknown_nested_key(self):
        doc = scene_doc()
        doc["sources"][1]["trajectory"]["tilt"] = 0.3
        with pytest.raises(ConfigError, match=r"scene\.sources\[1\]\.trajectory\.tilt"):
            parse_scene_config(doc)

    def test_missing_required_key(self):
        doc = scene_doc()
        del doc["tau_g_s"]
        with pytest.raises(ConfigError, match=r"scene\.tau_g_s: required key is missing"):
            parse_scene_config(doc)

    def test_rejects_bool_and_string_numbers(self):
        doc = scene_doc()
        doc["tau_g_s"] = True
        with pytest.raises(ConfigError, match=r"scene\.tau_g_s"):
            parse_scene_config(doc)
        doc["tau_g_s"] = "1e-3"
        with pytest.raises(ConfigError, match=r"scene\.tau_g_s"):
            parse_scene_config(doc)

    def test_unknown_trajectory_kind(self):
        doc = scene_doc()
        doc["sources"][0]["trajectory"] = {"kind": "helix"}
        with pytest.raises(ConfigError, match="unknown trajectory kind"):
            parse_scene_config(doc)

    def test_ambient_defaults_to_zero(self):
        doc = scene_doc()
        del doc["ambient"]
        assert type(parse_scene_config(doc).ambient) is ZeroField

    def test_quadrature_defaults_are_the_library_defaults(self):
        doc = scene_doc()
        assert "quadrature" not in doc
        assert parse_scene_config(doc).params.quadrature == GaussLegendre()
        doc["quadrature"] = {"scheme": "gauss_legendre", "order": 16}
        assert parse_scene_config(doc).params.quadrature == GaussLegendre(order=16)
        doc["quadrature"] = {"scheme": "adaptive_simpson"}
        assert parse_scene_config(doc).params.quadrature == AdaptiveSimpson()
        args = _build_parser().parse_args(["scenario", "static"])
        assert args.order == GaussLegendre().order


class TestGridSpec:
    def test_point_order_last_axis_fastest(self):
        grid = parse_grid_spec(
            {
                "origin": [0.0, 0.0, 0.0],
                "axes": [
                    {"direction": [1, 0, 0], "extent_m": 1.0, "count": 2},
                    {"direction": [0, 1, 0], "extent_m": 2.0, "count": 3},
                ],
                "times": [0.0],
            }
        )
        expected = [
            [0, 0, 0], [0, 1, 0], [0, 2, 0],
            [1, 0, 0], [1, 1, 0], [1, 2, 0],
        ]
        np.testing.assert_allclose(grid.points(), expected, atol=1e-15)

    def test_direction_is_normalized(self):
        grid = parse_grid_spec(
            {"axes": [{"direction": [3, 4, 0], "extent_m": 5.0, "count": 2}], "times": [0.0]}
        )
        np.testing.assert_allclose(grid.points()[-1], [3.0, 4.0, 0.0], atol=1e-14)

    def test_no_axes_is_single_point(self):
        grid = parse_grid_spec({"origin": [1, 2, 3], "times": [0.0]})
        np.testing.assert_array_equal(grid.points(), [[1.0, 2.0, 3.0]])

    def test_times_dict_matches_linspace(self):
        grid = parse_grid_spec({"times": {"start": 0.0, "stop": 1.0, "steps": 3}})
        assert grid.times == [0.0, 0.5, 1.0]

    def test_validation(self):
        with pytest.raises(ConfigError, match="at most 3 axes"):
            parse_grid_spec(
                {
                    "axes": [{"direction": [1, 0, 0], "extent_m": 1.0, "count": 1}] * 4,
                    "times": [0.0],
                }
            )
        with pytest.raises(ConfigError, match="must be nonzero"):
            parse_grid_spec(
                {"axes": [{"direction": [0, 0, 0], "extent_m": 1.0, "count": 1}], "times": [0.0]}
            )
        with pytest.raises(ConfigError, match="at least one time"):
            parse_grid_spec({"times": []})
        with pytest.raises(ConfigError, match=r"grid\.axes\[0\]\.count"):
            parse_grid_spec(
                {"axes": [{"direction": [1, 0, 0], "extent_m": 1.0, "count": 2.5}], "times": [0]}
            )


class TestScenarioCommand:
    def test_estimate_prints_report(self, capsys):
        assert main(["scenario", "estimate", "--rho", "2.3e17"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["schema_version"] == 1
        assert 2.5e-4 <= out["tau_g_s"] <= 2.6e-4

    def test_jump_fills_default_times(self, capsys):
        assert main(["scenario", "jump", "--tau-g", "1e-3"]) == 0
        out = json.loads(capsys.readouterr().out)
        times = out["inputs"]["times_s"]
        assert len(times) == 50
        assert times[0] == pytest.approx(1e-5)
        assert times[-1] == pytest.approx(4e-2)
        assert out["deviation"]["max_relative"] < 1e-12

    def test_boost_and_static_run_clean(self, capsys):
        assert main(["scenario", "boost", "--v", "1000,0,0", "--probe", "0,1,0"]) == 0
        assert main(["scenario", "static", "--tau-g", "1e-3", "--distances", "0.5,1.0"]) == 0
        capsys.readouterr()

    def test_default_boost_exits_1_within_budget(self, capsys):
        # the default probe sits on the naive past path, where the adaptive
        # prediction cannot converge; the evaluation budget ends it
        start = time.perf_counter()
        assert main(["scenario", "boost"]) == 1
        assert time.perf_counter() - start < 10.0
        assert "no convergence" in capsys.readouterr().err

    def test_boost_lag_on_the_path_exits_1(self, capsys):
        # |v| tau_g = 2 |r| along the probe: the prediction's first midpoint,
        # half a tau_g back, lies exactly on the boosted path
        argv = ["scenario", "boost", "--v=0,2000,0", "--probe=0,1,0", "--tau-g=1e-3"]
        assert main(argv) == 1
        assert "path 5.000e-04 s back" in capsys.readouterr().err

    def test_regime_violation_exits_2(self, capsys):
        assert main(["scenario", "orbit", "--omega", "200", "--tau-g", "1e-3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_out_flag_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        assert main(["scenario", "estimate", "--out", str(out_file)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out_file.read_text())["scenario"] == "estimate"

    def test_parser_is_built_once_and_reused(self, tmp_path, monkeypatch, src_env):
        def no_rebuild():
            raise AssertionError("main rebuilt the parser")

        monkeypatch.setattr(cli, "_build_parser", no_rebuild)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["scenario", "static", "--distances", "2,3", "--out", str(first)]) == 0
        assert main(["scenario", "static", "--out", str(second)]) == 0
        assert json.loads(first.read_text())["inputs"]["probe_distances_m"] == [2.0, 3.0]
        reused = json.loads(second.read_text())
        assert reused["inputs"]["probe_distances_m"] == [1.0]

        done = subprocess.run([sys.executable, "-m", "lazy_newton", "scenario", "static"],
                              env=src_env, capture_output=True, text=True, check=True)
        fresh = json.loads(done.stdout)
        del reused["wall_time_s"], fresh["wall_time_s"]
        assert reused == fresh

    def test_bad_flag_value_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "orbit", "--tau-g", "abc"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "jump", "--a", "1,2"])
        assert exc.value.code == 2


class TestFieldCommand:
    def run_field(self, tmp_path, fmt="csv", scene=None, grid=None, name="map"):
        cfg = write_json(tmp_path / "scene.json", scene or scene_doc())
        grd = write_json(tmp_path / "grid.json", grid or grid_doc())
        out = tmp_path / f"{name}.{fmt}"
        code = main(
            ["field", "--config", cfg, "--grid", grd, "--format", fmt, "--out", str(out)]
        )
        return code, out

    def test_csv_shape_and_round_trip(self, tmp_path):
        code, out = self.run_field(tmp_path)
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,x,y,z,phi,gx,gy,gz"
        assert len(lines) == 1 + 2 * 6  # 2 times x (3x2 grid)
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 8
            # repr round-trips every float exactly
            for cell in cells:
                assert repr(float(cell)) == cell

    def test_json_format(self, tmp_path):
        code, out = self.run_field(tmp_path, fmt="json")
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert doc["columns"] == ["t", "x", "y", "z", "phi", "gx", "gy", "gz"]
        assert len(doc["rows"]) == 12
        assert all(len(r) == 8 for r in doc["rows"])

    def singular_scene(self):
        # zero ambient: no frame displacement can lift the probe off the path
        return {
            "sources": [
                {"mass_kg": 1.0, "trajectory": {"kind": "static", "position": [0, 0, 0]}}
            ],
            "ambient": {"kind": "zero"},
            "tau_g_s": 1e-3,
        }

    def test_singular_point_masks_row_and_exits_1(self, tmp_path, capsys):
        grid = {
            "origin": [0.0, 0.0, 0.0],
            "axes": [{"direction": [0, 0, 1], "extent_m": 1.0, "count": 2}],
            "times": [1e-4],
        }
        code, out = self.run_field(tmp_path, scene=self.singular_scene(), grid=grid)
        assert code == 1
        assert "softening guard" in capsys.readouterr().err
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert rows[0][4] == "nan" and rows[0][5] == "nan"
        # the clean point on the same grid still carries finite values
        assert math.isfinite(float(rows[1][4]))

    def test_singular_point_is_null_in_json(self, tmp_path, capsys):
        grid = {"origin": [0.0, 0.0, 0.0], "axes": [], "times": [1e-4]}
        code, out = self.run_field(
            tmp_path, fmt="json", scene=self.singular_scene(), grid=grid
        )
        assert code == 1
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["rows"][0][4] is None

    def test_formats_match_per_value_formatting(self, tmp_path, capsys):
        # the formatter a map used to go through: one tuple of numpy scalars
        # per row, each value converted on its own
        def reference(scene, grid, fmt):
            cfg, spec = parse_scene_config(scene), parse_grid_spec(grid)
            points = spec.points()
            rows = []
            for t in spec.times:
                phi, g, _ = scene_potential_field(cfg.sources, cfg.ambient, points, t, cfg.params)
                rows += [(t, *points[i], phi[i], *g[i]) for i in range(points.shape[0])]
            if fmt == "csv":
                lines = ["t,x,y,z,phi,gx,gy,gz"] + [",".join(repr(float(v)) for v in r) for r in rows]
                return "\n".join(lines) + "\n"
            cells = [[None if math.isnan(v) else float(v) for v in r] for r in rows]
            doc = {"schema_version": 1, "columns": "t,x,y,z,phi,gx,gy,gz".split(","), "rows": cells}
            return json.dumps(doc, indent=2) + "\n"

        grid = {
            "origin": [-1.0, 0.0, 0.0],
            "axes": [
                {"direction": [1, 0, 0], "extent_m": 2.0, "count": 3},
                {"direction": [0, 0, 1], "extent_m": 1.0, "count": 3},
            ],
            "times": [1e-4, 3e-4],
        }
        # a grid tilted against every axis, starting on the source, three slices
        tilted = {
            "origin": [0.0, 0.0, 0.0],
            "axes": [
                {"direction": [1, 2, 2], "extent_m": 1.7, "count": 3},
                {"direction": [-2, 1, 0.5], "extent_m": 0.9, "count": 4},
            ],
            "times": [1e-4, 2.5e-4, 7e-4],
        }
        for grid, warning in ((grid, "2 of 18 rows"), (tilted, "3 of 36 rows")):
            for fmt in ("csv", "json"):
                code, out = self.run_field(
                    tmp_path, fmt=fmt, scene=self.singular_scene(), grid=grid
                )
                assert code == 1  # the grid point on the source is a nan row at each time
                assert out.read_bytes() == reference(self.singular_scene(), grid, fmt).encode()
            assert warning in capsys.readouterr().err

    def test_thread_cap_does_not_change_output(self, tmp_path, monkeypatch):
        cfg = write_json(tmp_path / "scene.json", scene_doc())
        grd = write_json(
            tmp_path / "grid.json",
            {
                "origin": [0.0, 0.0, 2.0],
                "axes": [
                    {"direction": [1, 0, 0], "extent_m": 1.0, "count": 9},
                    {"direction": [0, 1, 0], "extent_m": 1.0, "count": 9},
                ],
                "times": [0.0, 5e-4],
            },
        )
        outputs = []
        # the variable is accepted and ignored: no value changes the bytes or fails
        for k, value in enumerate(("1", "6", "abc", "-1", None)):
            out = tmp_path / f"map-{k}.csv"
            if value is None:
                monkeypatch.delenv("LAZY_NEWTON_THREADS", raising=False)
            else:
                monkeypatch.setenv("LAZY_NEWTON_THREADS", value)
            assert main(["field", "--config", cfg, "--grid", grd, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert len(set(outputs)) == 1

    def test_map_of_many_blocks_starts_no_thread(self, tmp_path, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        cfg = write_json(tmp_path / "scene.json", scene_doc())
        grd = write_json(
            tmp_path / "grid.json",
            {
                "origin": [0.0, 0.0, 2.0],
                "axes": [
                    {"direction": [1, 0, 0], "extent_m": 1.0, "count": 24},
                    {"direction": [0, 1, 0], "extent_m": 1.0, "count": 24},
                ],
                "times": [5e-4],
            },
        )
        assert 24 * 24 > CHUNK
        monkeypatch.setenv("LAZY_NEWTON_THREADS", "4")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        out = tmp_path / "map.csv"
        assert main(["field", "--config", cfg, "--grid", grd, "--out", str(out)]) == 0

    @staticmethod
    def kepler_scene():
        # three sources on free-fall circles about a point mass; the inner one
        # turns two radians over the 40 tau_g window
        omega = 2.0 / (40.0 * 1e-3)
        mass = omega**2 / G
        sources = [
            {"mass_kg": float(k + 1), "trajectory": {
                "kind": "circular_orbit", "center": [0.0, 0.0, 0.0], "radius": radius,
                "omega": math.sqrt(G * mass / radius**3), "phase": phase}}
            for k, (radius, phase) in enumerate(((1.0, 0.4), (1.5, 2.9), (2.0, 5.0)))
        ]
        ambient = {"kind": "point_mass", "position": [0.0, 0.0, 0.0], "mass_kg": mass}
        plane = [{"direction": [1, 0, 0], "extent_m": 4.0, "count": 5},
                 {"direction": [0, 1, 0], "extent_m": 4.0, "count": 5}]
        grid = {"origin": [-2.1, -1.9, 0.7], "axes": plane,
                "times": [0.37 + 2e-3 * k for k in range(6)]}
        return {"sources": sources, "ambient": ambient, "tau_g_s": 1e-3}, grid

    @staticmethod
    def split_scene():
        # a plane through a fast orbit, whose rows near the past path split panels
        scene = {
            "sources": [
                {"mass_kg": 1.0, "trajectory": {"kind": "circular_orbit", "center": [0.0, 0.0, 0.0],
                                                "radius": 1.0, "omega": 100.0}},
                {"mass_kg": 2.0, "trajectory": {"kind": "static", "position": [0.0, 0.0, 0.5]}},
            ],
            "ambient": {"kind": "uniform", "g": [0.0, 0.0, -9.81]},
            "tau_g_s": 1e-3,
        }
        plane = [{"direction": [1, 0, 0], "extent_m": 5.0, "count": 21},
                 {"direction": [0, 1, 0], "extent_m": 5.0, "count": 21}]
        return scene, {"origin": [-2.49, -2.49, 0.0], "axes": plane, "times": [0.0, 7e-3, 0.05]}

    @pytest.mark.parametrize("which", ["kepler", "split"])
    def test_each_slice_equals_its_one_time_map(self, tmp_path, which):
        scene, grid = getattr(self, f"{which}_scene")()
        if which == "split":
            cfg = parse_scene_config(scene)
            pts = parse_grid_spec(grid).points()
            times = grid["times"]
            framed = _framed(cfg.sources, cfg.ambient, times, cfg.params)
            assert all(split > 0 for *_, (_, _, split) in _values(framed, [pts] * 3, times, cfg.params))
        code, out = self.run_field(tmp_path, scene=scene, grid=grid)
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        per_slice = len(rows) // len(grid["times"])
        for k, t in enumerate(grid["times"]):
            code, one = self.run_field(tmp_path, scene=scene, grid=dict(grid, times=[t]), name=f"t{k}")
            assert code == 0
            assert one.read_text().splitlines()[1:] == rows[k * per_slice:(k + 1) * per_slice]

    def test_frame_guard_at_the_third_time_fails_as_that_time_alone(self, tmp_path, capsys):
        # a 1 km/s flyby with impact parameter 0.5 mm passes the mass at t = 0:
        # only the windows of the last three times hold its periapsis, inside
        # the 1 mm guard radius; the other source's frame never comes near
        mass, softening = 1.0e10, 1e-3
        flyby = {"kind": "uniform_velocity", "position": [0.0, 5e-4, 0.0], "velocity": [1000.0, 0.0, 0.0]}
        scene = {
            "sources": [
                {"mass_kg": 1.0, "trajectory": {"kind": "static", "position": [100.0, 0.0, 0.0]}},
                {"mass_kg": 1.0, "trajectory": flyby},
            ],
            "ambient": {"kind": "point_mass", "position": [0.0, 0.0, 0.0], "mass_kg": mass,
                        "softening_m": softening},
            "tau_g_s": 1e-3,
        }
        times = [-0.2, -0.1, 0.01, 0.02, 0.03]
        grid = {"origin": [0.0, 0.0, 5.0], "axes": [], "times": times}
        cfg = parse_scene_config(scene)
        with pytest.raises(SingularApproach) as alone:
            build_frame(cfg.sources[1].trajectory, cfg.ambient, times[2], cfg.params.t_max)
        # periapsis of the conic through (10 m, 0.5 mm) at 1 km/s, from its energy and angular momentum
        mu, h = G * mass, 5e-4 * 1000.0
        energy = 0.5 * 1000.0**2 - mu / math.hypot(10.0, 5e-4)
        ecc = math.sqrt(1.0 + 2.0 * energy * h * h / (mu * mu))
        assert alone.value.distance == pytest.approx(h * h / (mu * (1.0 + ecc)), rel=1e-9)
        assert abs(alone.value.when) < 1e-6
        capsys.readouterr()
        code, out = self.run_field(tmp_path, scene=scene, grid=grid)
        assert code == 1
        assert capsys.readouterr().err == f"numeric failure: {alone.value}\n"
        assert not out.exists()
        code, out = self.run_field(tmp_path, scene=scene, grid=dict(grid, times=times[:2]))
        assert code == 0

    def test_missing_or_invalid_config_exits_2(self, tmp_path, capsys):
        grd = write_json(tmp_path / "grid.json", grid_doc())
        assert main(["field", "--config", str(tmp_path / "none.json"), "--grid", grd]) == 2
        broken = tmp_path / "broken.json"
        broken.write_text("{not json", encoding="utf-8")
        assert main(["field", "--config", str(broken), "--grid", grd]) == 2
        bad_scene = write_json(tmp_path / "bad.json", {"sources": [], "tau_g_s": -1.0})
        assert main(["field", "--config", bad_scene, "--grid", grd]) == 2
        capsys.readouterr()

    def test_nan_cells_round_trip_as_float(self):
        # csv stays parseable when a row is masked
        assert math.isnan(float("nan"))
