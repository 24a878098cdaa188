import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from mgopt.cli import (
    EXIT_CONVERGENCE,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_VALIDATION,
    _write_json,
    main,
    read_schedule_csv,
    write_schedule_csv,
)
from mgopt.devices import DispatchSchedule
from mgopt.netmodel import benchmark_case_path, load_benchmark_case, load_case, save_case
from mgopt.optimizer import DispatchProblem, evaluate_objectives
from mgopt.optimizer.dp import stage_table

from test_dr import committable_pv_case, refused_setpoints, refused_shifts
from test_scenarios import collapsing_case, import_squeezed_case

FAST = [
    "--ga-population", "12",
    "--ga-generations", "8",
    "--polish-sweeps", "1",
    "--refine-rounds", "2",
]

RUN_FILES = ("case.yaml", "config.json", "schedule.csv", "objectives.json", "trace.csv", "seed.txt")


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One reduced-budget optimize run shared by the read-only CLI tests."""
    out = tmp_path_factory.mktemp("runs") / "s1"
    code = main(["optimize", benchmark_case_path(), "--scenario", "1",
                 "--seed", "11", "--out", str(out), *FAST])
    assert code == EXIT_OK
    return out


def test_validate_prints_summary(capsys):
    assert main(["validate", benchmark_case_path()]) == EXIT_OK
    line = capsys.readouterr().out
    case = load_benchmark_case()
    assert case.name in line
    assert f"{len(case.buses)} buses" in line
    assert f"{len(case.units)} units" in line


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/case.yaml"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: validation:")


def test_validate_broken_case(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: broken\nbuses: []\n", encoding="utf-8")
    assert main(["validate", str(bad)]) == EXIT_VALIDATION
    assert "error: validation:" in capsys.readouterr().err


@pytest.mark.parametrize("section, value", [("grid", 5), ("availability", None)])
def test_validate_names_a_section_of_the_wrong_shape(tmp_path, capsys, section, value):
    doc = yaml.safe_load(Path(benchmark_case_path()).read_text(encoding="utf-8"))
    doc[section] = value
    bad = tmp_path / "shape.case"
    bad.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["validate", str(bad)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"'{section}' must be a mapping" in err and "attribute" not in err


def test_powerflow_prints_hourly_table(capsys):
    assert main(["powerflow", benchmark_case_path()]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "hour,grid_kw,grid_kvar,loss_kw,v_min_pu,v_max_pu,iterations"
    assert len(lines) == 25
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) > 0


def test_powerflow_diverging_case_exits_3(tmp_path, capsys):
    case = load_benchmark_case()
    heavy = replace(
        case,
        load_points=tuple(
            replace(lp, profile_kw=tuple(v * 1000.0 for v in lp.profile_kw))
            for lp in case.load_points
        ),
    )
    path = tmp_path / "heavy.yaml"
    save_case(heavy, path)
    assert main(["powerflow", str(path)]) == EXIT_CONVERGENCE
    assert capsys.readouterr().err.startswith("error: convergence:")


def test_optimize_collapsing_case_exits_3(tmp_path, capsys):
    # The grid-only baseline already collapses, so the suite stops before
    # any optimisation and no run directory is written.
    case = load_benchmark_case()
    heavy = replace(
        case,
        load_points=tuple(
            replace(lp, profile_kw=tuple(v * 1000.0 for v in lp.profile_kw))
            for lp in case.load_points
        ),
    )
    path = tmp_path / "heavy.yaml"
    save_case(heavy, path)
    out = tmp_path / "run"
    assert main(["optimize", str(path), "--scenario", "5", "--out", str(out)]) == EXIT_CONVERGENCE
    assert capsys.readouterr().err.startswith("error: convergence:")
    assert not out.exists()


def test_optimize_writes_replayable_run_dir(run_dir):
    for name in RUN_FILES:
        assert (run_dir / name).exists(), name
    assert not (run_dir / "FAILED").exists()

    config = json.loads((run_dir / "config.json").read_text())
    assert config["scenario"] == 1
    assert config["dr"] is False
    assert config["seed"] == 11
    assert config["ga"]["population"] == 12
    assert (run_dir / "seed.txt").read_text() == "11\n"
    assert (run_dir / "case.yaml").read_bytes() == Path(benchmark_case_path()).read_bytes()

    doc = json.loads((run_dir / "objectives.json").read_text())
    assert doc["label"] == "First scenario"
    assert doc["feasible"] is True
    assert set(doc["objectives"]) == {"cost", "loss", "ens", "vdev"}
    assert set(doc["weights"]) == {"cost", "loss", "ens", "vdev"}
    assert 0.0 <= doc["normalized"]["cost"] <= 1.0
    # The packaged case's rows start from a DP plan: the GA runs no generation.
    assert doc["ga_generations"] == 0

    trace = (run_dir / "trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,merit,kkt,step,alpha,penalty,elastic"
    # The SQP fields describe the solve trace.csv logs.
    assert isinstance(doc["sqp_status"], str)
    assert doc["sqp_iterations"] == len(trace) - 1
    assert float(trace[-1].split(",")[2]) == doc["sqp_kkt"]


def test_optimize_warns_when_the_solve_stops_short(tmp_path, capsys):
    # One SQP iteration cannot reach the cost run's first-order point.
    out = tmp_path / "short"
    code = main(["optimize", benchmark_case_path(), "--scenario", "1", "--out", str(out),
                 "--ga-population", "8", "--ga-generations", "3", "--sqp-iterations", "1",
                 "--polish-sweeps", "1", "--refine-rounds", "1"])
    assert code == EXIT_OK
    doc = json.loads((out / "objectives.json").read_text())
    assert doc["sqp_status"] == "max-iterations" and doc["sqp_iterations"] == 1
    err = capsys.readouterr().err
    assert err.startswith("warning: ") and "'max-iterations' after 1 iterations" in err


def _refuse_constant(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


def test_optimize_without_sqp_iterations_writes_strict_json(tmp_path, capsys):
    # No iteration measures a KKT residual; it was written as Infinity.
    out = tmp_path / "run"
    code = main(["optimize", benchmark_case_path(), "--scenario", "1", "--out", str(out),
                 "--ga-population", "8", "--ga-generations", "3", "--sqp-iterations", "0", "--refine-rounds", "1"])
    assert code == EXIT_OK
    json.loads((out / "config.json").read_text(), parse_constant=_refuse_constant)
    doc = json.loads((out / "objectives.json").read_text(), parse_constant=_refuse_constant)
    assert doc["sqp_iterations"] == 0 and doc["sqp_kkt"] is None
    assert "KKT residual not measured" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_write_json_refuses_non_finite_numbers(tmp_path, value):
    with pytest.raises(ValueError):
        _write_json(tmp_path / "x.json", {"value": value})
    assert not (tmp_path / "x.json").exists()


def _tiled(node):
    """A case document with every 24-entry series repeated to 48 entries."""
    if isinstance(node, dict):
        return {key: _tiled(value) for key, value in node.items()}
    if isinstance(node, list):
        if len(node) == 24 and all(isinstance(v, (int, float)) for v in node):
            return node * 2
        return [_tiled(value) for value in node]
    return node


@pytest.mark.parametrize("dr", [False, True])
@pytest.mark.parametrize("shape", ["half-hour", "48-hour"])
def test_optimize_on_other_horizons_replays_its_objectives(tmp_path, shape, dr):
    doc = yaml.safe_load(Path(benchmark_case_path()).read_text(encoding="utf-8"))
    doc = dict(doc, period_hours=0.5) if shape == "half-hour" else dict(_tiled(doc), horizon=48)
    path = tmp_path / "variant.case"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    out = tmp_path / "run"
    code = main(["optimize", str(path), "--scenario", "5", *(["--dr"] if dr else []), "--out", str(out),
                 "--ga-population", "12", "--ga-generations", "5", "--sqp-iterations", "8", "--refine-rounds", "1"])
    assert code in (EXIT_OK, EXIT_CONVERGENCE, EXIT_INFEASIBLE)
    if code != EXIT_OK:
        assert (out / "FAILED").exists() or not out.exists()
        return
    case = load_case(path)
    schedule = read_schedule_csv(out / "schedule.csv", case)
    assert schedule.horizon == case.horizon and (schedule.dr_shift is not None) == dr
    written = json.loads((out / "objectives.json").read_text())["objectives"]
    assert written == evaluate_objectives(case, schedule).as_dict()


def test_objectives_json_shows_an_early_stop(tmp_path):
    # The cost run's best is settled from its first generation, so with a
    # budget above the stop rule's patience it ends early, and the count
    # written is below the budget config.json records.
    out = tmp_path / "stopped"
    code = main(["optimize", benchmark_case_path(), "--scenario", "1", "--out", str(out),
                 "--ga-population", "12", "--ga-generations", "40", "--sqp-iterations", "10",
                 "--polish-sweeps", "1", "--refine-rounds", "1"])
    assert code == EXIT_OK
    budget = json.loads((out / "config.json").read_text())["ga"]["generations"]
    generations = json.loads((out / "objectives.json").read_text())["ga_generations"]
    assert budget == 40 and generations < budget


def test_objectives_json_shows_an_early_stop_of_the_fallback_search(tmp_path):
    # A second microturbine takes the stage table past STAGE_COLUMN_CAP, so
    # the DP finds no plan and the GA searches.  Its cost run's best settles
    # early, so with a budget above the stop rule's patience the count
    # written lies between 1 and the budget config.json records.
    case = load_benchmark_case()
    case = replace(case, units=case.units + (replace(case.unit("MT"), name="MT2"),))
    assert stage_table(DispatchProblem(case)) is None
    path = tmp_path / "two-mt.case"
    save_case(case, path)
    out = tmp_path / "fallback"
    code = main(["optimize", str(path), "--scenario", "1", "--out", str(out),
                 "--ga-population", "12", "--ga-generations", "40", "--sqp-iterations", "10",
                 "--polish-sweeps", "1", "--refine-rounds", "1"])
    assert code == EXIT_OK
    budget = json.loads((out / "config.json").read_text())["ga"]["generations"]
    generations = json.loads((out / "objectives.json").read_text())["ga_generations"]
    assert budget == 40 and 1 <= generations < budget


def test_config_json_records_every_optimizer_option(run_dir):
    from dataclasses import fields

    from mgopt.optimizer import GaConfig, OptimizerConfig, SqpConfig

    config = json.loads((run_dir / "config.json").read_text())
    run_keys = {"version", "case", "scenario", "dr", "weights", "consistency_ratio", "bounds"}
    assert set(config) - run_keys == {f.name for f in fields(OptimizerConfig)}
    assert set(config["ga"]) == {f.name for f in fields(GaConfig)}
    assert set(config["sqp"]) == {f.name for f in fields(SqpConfig)}
    assert config["refine_rounds"] == 2
    assert config["polish_sweeps"] == 1


def test_optimize_same_seed_is_byte_identical(run_dir, tmp_path):
    out = tmp_path / "replay"
    code = main(["optimize", benchmark_case_path(), "--scenario", "1",
                 "--seed", "11", "--out", str(out), *FAST])
    assert code == EXIT_OK
    for name in RUN_FILES:
        assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name


def test_optimize_rejects_dr_outside_scenario_5(capsys):
    code = main(["optimize", benchmark_case_path(), "--scenario", "2", "--dr", *FAST])
    assert code == EXIT_VALIDATION
    assert "--dr applies to scenario 5 only" in capsys.readouterr().err


def test_optimize_rejects_bad_weights(capsys):
    code = main(["optimize", benchmark_case_path(), "--scenario", "1",
                 "--weights", "0.5,0.5", *FAST])
    assert code == EXIT_VALIDATION
    assert "needs 4 comma-separated values" in capsys.readouterr().err
    code = main(["optimize", benchmark_case_path(), "--scenario", "1",
                 "--weights=-1,1,1,1", *FAST])
    assert code == EXIT_VALIDATION
    assert "nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("weights", ["nan,1,1,1", "inf,1,1,1", "1,1,-inf,1"])
def test_optimize_rejects_non_finite_weights(weights, tmp_path, capsys):
    # Before, nan and inf weights ran the suite and wrote a nan weighted total.
    out = tmp_path / "run"
    code = main(["optimize", benchmark_case_path(), "--scenario", "5",
                 f"--weights={weights}", "--out", str(out), *FAST])
    assert code == EXIT_VALIDATION
    assert "--weights must be finite numbers" in capsys.readouterr().err
    assert not out.exists()


def test_normalized_values_weigh_up_to_the_weighted_total(run_dir):
    doc = json.loads((run_dir / "objectives.json").read_text())
    total = sum(doc["weights"][k] * doc["normalized"][k] for k in ("cost", "loss", "ens", "vdev"))
    assert total == doc["weighted_total"]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_optimize_infeasible_case_exits_4(tmp_path, capsys):
    # Local sources cover a fraction of the peak, so a 10 kW import limit
    # cannot be met by any dispatch.  Degenerate normalisation warnings are
    # expected here: some scenarios cannot improve on the initial state.
    case = load_benchmark_case()
    squeezed = replace(case, grid_limit_kw=10.0)
    path = tmp_path / "squeezed.yaml"
    save_case(squeezed, path)
    out = tmp_path / "run"
    code = main(["optimize", str(path), "--scenario", "1", "--out", str(out),
                 "--ga-population", "8", "--ga-generations", "4",
                 "--polish-sweeps", "0", "--refine-rounds", "1"])
    assert code == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("error: infeasible:")
    marker = out / "FAILED"
    assert marker.exists()
    assert marker.read_text().startswith("error: infeasible:")


def test_optimize_publishes_feasibility_by_the_refiners_test(tmp_path, capsys):
    # The baseline violates the import limit by 5e-7 pu, the optimised plans
    # not at all; a plan counts as feasible up to 1e-7.
    path = tmp_path / "squeezed.yaml"
    save_case(import_squeezed_case(load_benchmark_case()), path)
    code = main(["optimize", str(path), "--scenario", "0", "--out", str(tmp_path / "s0"), *FAST])
    assert code == EXIT_INFEASIBLE
    assert capsys.readouterr().err.startswith("error: infeasible: result violates constraints by 5.000e-07")
    assert main(["optimize", str(path), "--scenario", "5", "--out", str(tmp_path / "s5"), *FAST]) == EXIT_OK


def _weighted_run(tmp_path, name, *flags):
    out = tmp_path / name
    assert main(["optimize", benchmark_case_path(), "--scenario", "5", "--out", str(out), *flags, *FAST]) == EXIT_OK
    return json.loads((out / "config.json").read_text())


def test_optimize_records_the_weights_it_ran_with(tmp_path):
    config = _weighted_run(tmp_path, "direct", "--weights", "2,1,1,0")
    assert config["weights"] == {"cost": 0.5, "loss": 0.25, "ens": 0.25, "vdev": 0.0}
    assert config["consistency_ratio"] == 0.0


def test_optimize_records_the_ahp_matrix_consistency_ratio(tmp_path):
    # The packaged case's own matrix, given as a file, runs as the case does.
    path = tmp_path / "judgments.txt"
    np.savetxt(path, np.array(load_benchmark_case().judgment_matrix), fmt="%.17g")
    plain, ahp = _weighted_run(tmp_path, "plain"), _weighted_run(tmp_path, "ahp", "--ahp", str(path))
    assert ahp["consistency_ratio"] == plain["consistency_ratio"] > 0.0
    assert ahp["weights"] == plain["weights"]


def test_optimize_refuses_an_ahp_matrix_of_the_wrong_size(tmp_path, capsys):
    path = tmp_path / "judgments.txt"
    np.savetxt(path, np.ones((3, 3)))
    out = tmp_path / "run"
    code = main(["optimize", benchmark_case_path(), "--scenario", "5", "--ahp", str(path), "--out", str(out), *FAST])
    assert code == EXIT_VALIDATION
    assert "--ahp matrix must be 4x4, got (3, 3)" in capsys.readouterr().err
    assert not out.exists()


def test_optimize_on_a_collapsing_feeder_exits_3(tmp_path, capsys):
    path = tmp_path / "heavy.yaml"
    save_case(collapsing_case(load_benchmark_case()), path)
    out = tmp_path / "run"
    out.mkdir()
    code = main(["optimize", str(path), "--scenario", "1", "--out", str(out), *FAST])
    assert code == EXIT_CONVERGENCE
    line = "error: convergence: voltage collapse below 0.5 pu at hour 9"
    assert capsys.readouterr().err.startswith(line)
    assert (out / "FAILED").read_text().startswith(line)


def test_powerflow_accepts_run_schedule(run_dir, capsys):
    code = main(["powerflow", str(run_dir / "case.yaml"),
                 "--schedule", str(run_dir / "schedule.csv")])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 25


def test_compare_tabulates_runs(run_dir, capsys):
    assert main(["compare", str(run_dir), str(run_dir)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "Scenario" in out
    assert "Weighted total" in out
    assert out.count("First scenario") == 2


def test_compare_rejects_non_run_dir(tmp_path, capsys):
    assert main(["compare", str(tmp_path)]) == EXIT_VALIDATION
    assert "no objectives.json" in capsys.readouterr().err


@pytest.mark.parametrize("text", ['{"label": "x"}', "[1, 2]", "not json", "{}"])
def test_compare_rejects_malformed_objectives(tmp_path, capsys, text):
    run = tmp_path / "run"
    run.mkdir()
    (run / "objectives.json").write_text(text, encoding="utf-8")
    assert main(["compare", str(run)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: validation:") and len(err.splitlines()) == 1
    assert str(run) in err


@pytest.mark.parametrize("flag, value", [
    ("--ga-population", "1"),
    ("--ga-population", "0"),
    ("--ga-generations", "-1"),
    ("--sqp-iterations", "-2"),
    ("--refine-rounds", "-1"),
    ("--polish-sweeps", "-1"),
    ("--seed", "-1"),
])
def test_optimize_rejects_out_of_range_settings(tmp_path, capsys, flag, value):
    out = tmp_path / "run"
    code = main(["optimize", benchmark_case_path(), "--scenario", "1", "--out", str(out), flag, value])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: validation:") and flag in err
    assert not out.exists()


def test_optimize_runs_with_the_smallest_population(tmp_path):
    out = tmp_path / "run"
    code = main(["optimize", benchmark_case_path(), "--scenario", "1", "--out", str(out),
                 "--ga-population", "2", "--ga-generations", "1", "--sqp-iterations", "2",
                 "--refine-rounds", "1", "--polish-sweeps", "0"])
    assert code == EXIT_OK
    assert json.loads((out / "config.json").read_text())["ga"]["population"] == 2


def test_report_expands_run_dir(run_dir, capsys):
    assert main(["report", str(run_dir)]) == EXIT_OK
    for name in ("dispatch.csv", "soc.csv", "grid.csv", "losses.csv"):
        lines = (run_dir / name).read_text().splitlines()
        assert len(lines) == 25, name
    case = load_benchmark_case()
    schedule = read_schedule_csv(run_dir / "schedule.csv", case)
    soc_rows = (run_dir / "soc.csv").read_text().splitlines()[1:]
    from mgopt.devices import soc_trajectory

    soc = soc_trajectory(case.battery, schedule.battery_power)
    assert float(soc_rows[0].split(",")[1]) == pytest.approx(soc[0], abs=1e-12)


def test_report_rejects_plain_directory(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == EXIT_VALIDATION
    assert "not a run directory" in capsys.readouterr().err


def test_schedule_csv_round_trip(tmp_path):
    case = load_benchmark_case()
    rng = np.random.default_rng(0)
    # The reader refuses any plan DispatchProblem.check refuses, so the draw
    # goes through repair: it runs PV above availability and MT and FC under
    # their p_min.
    shift = rng.random(24) - 0.5
    problem = DispatchProblem(case, dr=True)
    draw = DispatchSchedule(
        rng.random((len(case.units), 24)) * 7.0,
        rng.random(24) * 4.0 - 2.0,
        shift - shift.mean(),
    )
    schedule = problem.schedule(problem.repair(problem.pack(draw))[0])
    path = tmp_path / "schedule.csv"
    write_schedule_csv(path, case, schedule)
    back = read_schedule_csv(path, case)
    assert np.array_equal(back.dg_setpoints, schedule.dg_setpoints)
    assert np.array_equal(back.battery_power, schedule.battery_power)
    assert np.array_equal(back.dr_shift, schedule.dr_shift)


def test_schedule_csv_rejects_wrong_columns(tmp_path):
    case = load_benchmark_case()
    path = tmp_path / "schedule.csv"
    path.write_text("hour,nope\n0,1\n", encoding="utf-8")
    from mgopt.cli import CliError

    with pytest.raises(CliError) as info:
        read_schedule_csv(path, case)
    assert info.value.code == EXIT_VALIDATION


def test_schedule_csv_rejects_wrong_row_count(tmp_path):
    case = load_benchmark_case()
    schedule = DispatchSchedule(np.zeros((len(case.units), 24)), np.zeros(24), None)
    path = tmp_path / "schedule.csv"
    write_schedule_csv(path, case, schedule)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    from mgopt.cli import CliError

    with pytest.raises(CliError) as info:
        read_schedule_csv(path, case)
    assert info.value.code == EXIT_VALIDATION


def _broken_schedule(tmp_path, edit):
    """The grid-only schedule CSV of the benchmark case with ``edit`` applied to its data lines."""
    case = load_benchmark_case()
    path = tmp_path / "schedule.csv"
    write_schedule_csv(path, case, DispatchSchedule(np.zeros((len(case.units), 24)), np.zeros(24), None))
    header, *lines = path.read_text().splitlines()
    path.write_text("\n".join([header] + edit(lines)) + "\n", encoding="utf-8")
    return path


def test_powerflow_rejects_repeated_hour(tmp_path, capsys):
    # Hour 0 written twice and hour 5 missing: the row count still matches.
    path = _broken_schedule(tmp_path, lambda lines: [lines[0] if t == 5 else line for t, line in enumerate(lines)])
    assert main(["powerflow", benchmark_case_path(), "--schedule", str(path)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: validation:") and "repeats hour 0" in captured.err


def test_powerflow_rejects_short_rows(tmp_path, capsys):
    # Every row lacks its battery_kw cell.
    path = _broken_schedule(tmp_path, lambda lines: [line.rsplit(",", 1)[0] for line in lines])
    assert main(["powerflow", benchmark_case_path(), "--schedule", str(path)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: validation:") and "cells" in captured.err


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_powerflow_rejects_non_finite_cell(tmp_path, capsys, cell):
    # The first unit's cell at hour 3; a nan there once reached the sweep and
    # was reported as a voltage collapse with exit code 3.
    def edit(lines):
        hour, _, rest = lines[3].split(",", 2)
        return lines[:3] + [f"{hour},{cell},{rest}"] + lines[4:]

    path = _broken_schedule(tmp_path, edit)
    assert main(["powerflow", benchmark_case_path(), "--schedule", str(path)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: validation:") and "hour 3 column PV1" in captured.err


@pytest.mark.parametrize("column, cell, message", [
    ("hour", "x", "hour 'x' column hour"),
    ("PV1", "abc", "hour 3 column PV1: 'abc'"),
])
def test_powerflow_rejects_unparseable_cell(tmp_path, capsys, column, cell, message):
    # Python's own messages named neither the file nor the hour nor the column.
    def edit(lines):
        hour, unit, rest = lines[3].split(",", 2)
        fields = [cell, unit] if column == "hour" else [hour, cell]
        return lines[:3] + [",".join(fields + [rest])] + lines[4:]

    path = _broken_schedule(tmp_path, edit)
    assert main(["powerflow", benchmark_case_path(), "--schedule", str(path)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: validation:") and str(path) in captured.err and message in captured.err


@pytest.mark.parametrize("index", [0, 1])
def test_powerflow_and_report_refuse_a_shift_dr_refuses(tmp_path, capsys, index):
    case = load_benchmark_case()
    shift, message = refused_shifts(case)[index]
    run = tmp_path / "run"
    run.mkdir()
    shutil.copyfile(benchmark_case_path(), run / "case.yaml")
    units = np.zeros((len(case.units), case.horizon))
    write_schedule_csv(run / "schedule.csv", case, DispatchSchedule(units, np.zeros(case.horizon), shift))
    assert main(["powerflow", benchmark_case_path(), "--schedule", str(run / "schedule.csv")]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: validation:") and "schedule.csv: shift" in captured.err
    assert message in captured.err
    assert main(["report", str(run)]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in run.iterdir()) == ["case.yaml", "schedule.csv"]


@pytest.mark.parametrize("index", [0, 1, 3, 4, 5, "committable PV"])
def test_powerflow_and_report_refuse_setpoints_out_of_limits(tmp_path, capsys, index):
    # 900 kW of charge at hour 4 once exited 0, and report wrote a SOC of
    # 857.9 kWh against the 8-48 kWh window; PV1 in the dark, MT under its
    # minimum and a unit running where its cap is under its minimum exited
    # 0 too.  (The reader refuses the nan setpoint, index 2, as it parses its
    # cell.)
    case = load_benchmark_case()
    run = tmp_path / "run"
    run.mkdir()
    if index == "committable PV":
        case, schedule, message = committable_pv_case(case)
        save_case(case, run / "case.yaml")
    else:
        schedule, message = refused_setpoints(case)[index]
        shutil.copyfile(benchmark_case_path(), run / "case.yaml")
    write_schedule_csv(run / "schedule.csv", case, schedule)
    assert main(["powerflow", str(run / "case.yaml"), "--schedule", str(run / "schedule.csv")]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: validation:") and f"schedule.csv: {message}" in captured.err
    assert main(["report", str(run)]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in run.iterdir()) == ["case.yaml", "schedule.csv"]


def _refused_as_unreadable(capsys, argv, what):
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: validation: cannot read {what}")
    assert len(captured.err.splitlines()) == 1


def test_validate_refuses_a_directory(tmp_path, capsys):
    _refused_as_unreadable(capsys, ["validate", str(tmp_path)], f"case file {tmp_path}: Is a directory")


@pytest.mark.parametrize("name, reason", [("missing.csv", "No such file or directory"), ("", "Is a directory")])
def test_powerflow_refuses_a_schedule_the_os_refuses(tmp_path, capsys, name, reason):
    path = tmp_path / name
    _refused_as_unreadable(capsys, ["powerflow", benchmark_case_path(), "--schedule", str(path)],
                           f"schedule {path}: {reason}")


def test_optimize_refuses_an_ahp_file_the_os_refuses(tmp_path, capsys):
    argv = ["optimize", benchmark_case_path(), "--scenario", "5", "--ahp", str(tmp_path), "--out", str(tmp_path / "run")]
    _refused_as_unreadable(capsys, argv, f"--ahp file {tmp_path}: Is a directory")


def test_report_and_compare_refuse_files_the_os_refuses(tmp_path, capsys):
    run = tmp_path / "run"
    (run / "case.yaml").mkdir(parents=True)
    (run / "schedule.csv").mkdir()
    (run / "objectives.json").mkdir()
    _refused_as_unreadable(capsys, ["report", str(run)], f"case file {run / 'case.yaml'}: Is a directory")
    _refused_as_unreadable(capsys, ["compare", str(run)], f"{run / 'objectives.json'}: Is a directory")


@pytest.mark.parametrize("below", ["", "run"])
def test_optimize_refuses_an_out_at_or_below_a_file_before_solving(tmp_path, capsys, monkeypatch, below):
    # Both once ran the whole suite and then ended in a traceback.
    import mgopt.cli as cli

    def no_suite(*args, **kwargs):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(cli, "run_suite", no_suite)
    taken = tmp_path / "taken"
    taken.write_text("keep\n", encoding="utf-8")
    out = taken / below if below else taken
    assert main(["optimize", benchmark_case_path(), "--scenario", "1", "--out", str(out)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == f"error: validation: --out {out}: {taken} exists and is not a directory\n"
    assert taken.read_text(encoding="utf-8") == "keep\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("mgopt ")
