"""Self-tests of the benchmark: oracles, input generation and the span recorder.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from lazy_newton import cli, evaluator, frames, kinematics, scenarios  # noqa: E402
from lazy_newton.cli import parse_scene_config  # noqa: E402


def library_rows(scene_doc, grid_doc):
    """(n, 8) rows from the library's scene evaluator for the given documents."""
    scene = parse_scene_config(scene_doc)
    grid = cli.parse_grid_spec(grid_doc)
    pts = grid.points()
    rows = []
    for t in grid.times:
        phi, grad, _ = evaluator.scene_potential_field(
            scene.sources, scene.ambient, pts, t, scene.params, 1)
        rows.extend(np.column_stack([np.full(len(pts), t), pts, phi, grad]))
    return np.array(rows)


def tiny(op, count=2, slices=1):
    """Shrink a generated map op to count x count points and a few slices."""
    grid = dict(op["grid"])
    grid["axes"] = [dict(a, count=count) for a in grid["axes"]]
    grid["times"] = grid["times"][:slices]
    return op["scene"], grid


def test_quadrature_oracle_agrees_with_library_on_tiny_uniform_scene():
    scene, grid = tiny(inputs.fieldmap_uniform_input(3, 0))
    rows = library_rows(scene, grid)
    assert oracles.check_lattice(rows, grid) == []
    assert oracles.check_uniform_rows(rows, scene, range(len(rows))) == []


def test_newton_oracle_agrees_with_library_on_tiny_point_mass_scene():
    scene, grid = tiny(inputs.fieldmap_pointmass_input(3, 0), slices=2)
    rows = library_rows(scene, grid)
    assert oracles.check_lattice(rows, grid) == []
    assert oracles.check_newton_rows(rows, scene) == []


def test_map_oracle_rejects_a_perturbed_row():
    scene, grid = tiny(inputs.fieldmap_pointmass_input(3, 0))
    rows = library_rows(scene, grid)
    rows[1, 4] *= 1.0 + 1e-8
    assert len(oracles.check_newton_rows(rows, scene)) == 1


@pytest.mark.parametrize("kind", inputs.SCENARIO_KINDS)
def test_report_oracle_agrees_with_library(kind, tmp_path):
    argv = inputs._scenario_op(kind, np.random.default_rng(11))
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert oracles.check_report(argv, report) == []
    report["simulated"] = {k: (v * (1.0 + 2e-2) if isinstance(v, float) else v)
                           for k, v in report["simulated"].items()}
    if kind in ("static", "jump"):
        key = "delta_up_m" if kind == "static" else "potentials_J_per_kg"
        report["simulated"][key] = [v * (1.0 + 2e-2) for v in report["simulated"][key]]
    assert oracles.check_report(argv, report) != []


def test_boost_oracle_matches_closed_form_at_zero_speed():
    assert math.isclose(oracles.boosted_kernel_average((0, 0, 0), 1e-3, (0, 1, 0)), 1.0,
                        rel_tol=1e-13)


@pytest.mark.parametrize("workload", ["fieldmap-uniform", "fieldmap-pointmass", "scenarios-cli"])
def test_input_generation_repeats_for_a_seed(workload):
    first, per_cycle = inputs.workload_ops(workload, 42)
    again, _ = inputs.workload_ops(workload, 42)
    other, _ = inputs.workload_ops(workload, 43)
    assert json.dumps(first) == json.dumps(again)
    assert json.dumps(first) != json.dumps(other)
    assert len(first) % per_cycle == 0


def test_scenario_cycle_holds_every_kind_and_one_known_defect():
    cycle = inputs.scenario_cycle(5, 0)
    kinds = sorted(op["argv"][1] for op in cycle if not op["known_defect"])
    assert kinds == sorted(inputs.SCENARIO_KINDS * inputs.CYCLE_REPEATS)
    assert [op["argv"] for op in cycle if op["known_defect"]] == [inputs.DEFAULT_BOOST_ARGV]


def bindings():
    """Every lazy_newton attribute and method the recorder may rebind, by identity."""
    out = {}
    for mod in (cli, evaluator, frames, kinematics, scenarios, sys.modules["lazy_newton"]):
        for attr, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, attr)] = value
    for cls in (*[c for c in vars(kinematics).values() if isinstance(c, type)],
                frames.FreeFallFrame):
        for attr, value in vars(cls).items():
            out[(cls.__qualname__, attr)] = value
    return out


def test_traced_run_records_spans_and_restores_originals(tmp_path):
    before = bindings()
    op = inputs.fieldmap_pointmass_input(1, 0)
    scene, grid = tiny(op, slices=2)
    (tmp_path / "s.json").write_text(json.dumps(scene))
    (tmp_path / "g.json").write_text(json.dumps(grid))
    argv = ["field", "--config", str(tmp_path / "s.json"), "--grid", str(tmp_path / "g.json"),
            "--format", "json", "--out", str(tmp_path / "o.json")]
    recorder = spans.Recorder()
    recorder.op = 0
    with spans.installed(recorder):
        assert cli.main(argv) == 0
        assert evaluator.build_frame is not before[("lazy_newton.evaluator", "build_frame")]
    assert recorder.missing == []
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    totals = spans.layer_totals(recorder.spans, [0], evaluator.CHUNK)
    assert totals["frames.tabulated_builds"] == 2 * len(scene["sources"])
    assert totals["evaluator.prepare_calls"] == 2
    assert totals["evaluator.pair_interactions"] == 2 * 4 * 2560 * len(scene["sources"])
    top = [s for s in recorder.spans if s.parent is None]
    assert [s.name for s in top] == ["cli.main"]
    assert math.isclose(sum(totals[m] for m in spans.LAYER_TIMES), top[0].duration,
                        rel_tol=1e-9)


def test_originals_restored_when_a_traced_op_raises():
    before = bindings()
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Recorder()):
            raise RuntimeError("op failed")
    after = bindings()
    assert all(after[k] is before[k] for k in before)


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = worker.tail([float(k) for k in range(100)])
    assert (value, pct, n) == (89.0, 90.0, 100)


def test_metric_lists_match_benchmark_json():
    import run

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == worker.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
