"""Command-line front end.

Subcommands: ``validate`` checks a case file, ``powerflow`` solves the
24-hour power flow for a schedule (grid-only by default), ``optimize``
runs a dispatch scenario and writes a replayable run directory,
``compare`` tabulates several run directories side by side, and
``report`` expands a run directory into per-hour CSV series.

Exit codes: 0 success, 2 validation error, 3 convergence failure,
4 infeasible result.  Every failure prints one ``error: <kind>: <detail>``
line on stderr, and a partially written run directory always carries a
FAILED marker file.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import shutil
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, TextIO, Union

import numpy as np

from . import __version__
from .ahp import validate_matrix
from .devices import DispatchSchedule, soc_trajectory, zero_schedule
from .netmodel import CaseError, MicrogridCase, load_case
from .objectives import OBJECTIVE_KEYS, OBJECTIVE_LABELS, normalize_objective
from .optimizer import DispatchProblem, OptimizerConfig, ScenarioResult, SuiteResult, run_suite, scenario_key
from .optimizer.ga import ELITES
from .optimizer.qp import QpError
from .optimizer.sqp import CONVERGED
from .powerflow import PowerFlowError, solve_horizon

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_INFEASIBLE = 4

_KIND_FOR_CODE = {EXIT_VALIDATION: "validation", EXIT_CONVERGENCE: "convergence", EXIT_INFEASIBLE: "infeasible"}


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _error_line(code: int, message: str) -> str:
    return f"error: {_KIND_FOR_CODE.get(code, 'internal')}: {message}"


def _unreadable(what: str, exc: OSError) -> CliError:
    """The validation error for a file the OS would not open or read."""
    return CliError(EXIT_VALIDATION, f"cannot read {what}: {exc.strerror or exc}")


# ---------------------------------------------------------------------------
# CSV output and the schedule CSV round trip

def _write_csv(target: Union[str, Path, TextIO], header: List[str], rows: Iterable[Sequence]) -> None:
    """A header and rows, to a file path or an open stream.  Float cells are
    written as ``repr``, which reads back to the same float."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            _write_csv(fh, header, rows)
        return
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row])


def write_schedule_csv(path: Path, case: MicrogridCase, schedule: DispatchSchedule) -> None:
    """Decision variables only, one row per hour; enough for exact replay."""
    header = ["hour"] + [u.name for u in case.units] + ["battery_kw"]
    columns = [*schedule.dg_setpoints, schedule.battery_power]
    if schedule.dr_shift is not None:
        header.append("shift_kw")
        columns.append(schedule.dr_shift)
    _write_csv(path, header, ([t] + [column[t] for column in columns] for t in range(schedule.horizon)))


def read_schedule_csv(path: Path, case: MicrogridCase) -> DispatchSchedule:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = list(csv.reader(fh))
    except OSError as exc:
        raise _unreadable(f"schedule {path}", exc) from exc
    if not lines:
        raise CliError(EXIT_VALIDATION, f"{path} is empty")
    header, rows = lines[0], [r for r in lines[1:] if r]
    expected = ["hour"] + [u.name for u in case.units] + ["battery_kw"]
    has_shift = header == expected + ["shift_kw"]
    if not has_shift and header != expected:
        raise CliError(
            EXIT_VALIDATION,
            f"{path} columns {header} do not match case units {expected}",
        )
    if len(rows) != case.horizon:
        raise CliError(EXIT_VALIDATION, f"{path} has {len(rows)} rows, case horizon is {case.horizon}")
    n = len(case.units)
    dg = np.zeros((n, case.horizon))
    battery = np.zeros(case.horizon)
    shift = np.zeros(case.horizon) if has_shift else None
    seen = set()
    for row in rows:
        if len(row) != len(header):
            raise CliError(EXIT_VALIDATION, f"{path} row {row} has {len(row)} cells, expected {len(header)}")
        try:
            t = int(row[0])
        except ValueError:
            raise CliError(EXIT_VALIDATION, f"{path} hour {row[0]!r} column hour: not an integer") from None
        if not 0 <= t < case.horizon:
            raise CliError(EXIT_VALIDATION, f"{path} hour {t} outside 0..{case.horizon - 1}")
        # With one row per hour, a repeated hour is also a missing one.
        if t in seen:
            raise CliError(EXIT_VALIDATION, f"{path} repeats hour {t}; each hour 0..{case.horizon - 1} must appear once")
        seen.add(t)
        values = []
        for column, cell in zip(header[1:], row[1:]):
            try:
                value = float(cell)
            except ValueError:
                raise CliError(EXIT_VALIDATION, f"{path} hour {t} column {column}: {cell!r} is not a number") from None
            if not math.isfinite(value):
                raise CliError(EXIT_VALIDATION, f"{path} hour {t} column {column}: {value} is not a finite number")
            values.append(value)
        dg[:, t] = values[:n]
        battery[t] = values[n]
        if has_shift:
            shift[t] = values[n + 1]
    schedule = DispatchSchedule(dg, battery, shift)
    try:
        DispatchProblem(case, dr=has_shift).check(schedule)
    except ValueError as exc:
        raise CliError(EXIT_VALIDATION, f"{path}: {exc}") from None
    return schedule


# ---------------------------------------------------------------------------
# optimize run directory

def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def _write_json(path: Path, payload: Dict) -> None:
    # A non-finite number raises ValueError: RFC 8259 has no Infinity or NaN.
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _write_trace_csv(path: Path, trace: List[Dict]) -> None:
    columns = ["iteration", "merit", "kkt", "step", "alpha", "penalty", "elastic"]
    _write_csv(path, columns, ([entry[c] for c in columns] for entry in trace))


def write_run_dir(
    out: Path,
    case_path: Path,
    case: MicrogridCase,
    suite: SuiteResult,
    result: ScenarioResult,
    scenario_id: int,
    dr: bool,
    config: OptimizerConfig,
) -> None:
    out.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(case_path, out / "case.yaml")
    (out / "seed.txt").write_text(f"{config.seed}\n", encoding="utf-8")

    _write_json(
        out / "config.json",
        {
            "version": __version__,
            "case": {"name": case.name, "file": case_path.name, "sha256": _sha256(case_path)},
            "scenario": scenario_id,
            "dr": dr,
            "weights": suite.weights,
            "consistency_ratio": suite.consistency_ratio,
            "bounds": {k: list(v) for k, v in suite.bounds.items()},
            **asdict(config),
        },
    )
    write_schedule_csv(out / "schedule.csv", case, result.schedule)
    values = result.objectives.as_dict()
    key = "dr" if dr else scenario_key(scenario_id)
    _write_json(
        out / "objectives.json",
        {
            "label": result.label,
            "scenario": scenario_id,
            "dr": dr,
            "objectives": values,
            "normalized": {
                k: normalize_objective(values[k], suite.bounds[k], k) for k in OBJECTIVE_KEYS
            },
            "weighted_total": suite.totals[key],
            "value": result.value,
            "ga_value": result.ga_value,
            "ga_generations": result.ga_generations,
            "sqp_status": result.sqp_status,
            "sqp_iterations": result.sqp_iterations,
            "sqp_kkt": result.sqp_kkt,
            "improved": result.improved,
            "feasible": result.feasible,
            "violation": result.violation,
            "weights": suite.weights,
            "bounds": {k: list(v) for k, v in suite.bounds.items()},
        },
    )
    _write_trace_csv(out / "trace.csv", result.trace)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_validate(args: argparse.Namespace) -> int:
    case = _load(args.case)
    battery = "1 battery" if case.battery is not None else "no battery"
    dr = f"DR fraction {case.dr.shiftable_fraction}" if case.dr is not None else "no DR"
    print(
        f"{case.name}: {len(case.buses)} buses, {len(case.branches)} branches, "
        f"{len(case.load_points)} load points, {len(case.units)} units, {battery}, "
        f"{len(case.contingencies)} contingencies, horizon {case.horizon} h, {dr}"
    )
    return EXIT_OK


def _cmd_powerflow(args: argparse.Namespace) -> int:
    case = _load(args.case)
    if args.schedule:
        schedule = read_schedule_csv(Path(args.schedule), case)
    else:
        schedule = zero_schedule(len(case.units), case.horizon)
    solution = solve_horizon(case, schedule)
    vmag = np.abs(solution.voltage)
    _write_csv(
        sys.stdout,
        ["hour", "grid_kw", "grid_kvar", "loss_kw", "v_min_pu", "v_max_pu", "iterations"],
        (
            [t, solution.slack_kw[t], solution.slack_kvar[t], solution.loss_kw[t],
             vmag[t].min(), vmag[t].max(), int(solution.iterations[t])]
            for t in range(case.horizon)
        ),
    )
    return EXIT_OK


def _parse_weights(args: argparse.Namespace) -> Optional[List[float]]:
    if args.weights:
        parts = args.weights.split(",")
        if len(parts) != 4:
            raise CliError(EXIT_VALIDATION, f"--weights needs 4 comma-separated values, got {len(parts)}")
        try:
            vector = [float(p) for p in parts]
        except ValueError as exc:
            raise CliError(EXIT_VALIDATION, f"--weights: {exc}") from exc
        if not all(math.isfinite(w) for w in vector):
            raise CliError(EXIT_VALIDATION, f"--weights must be finite numbers, got {args.weights}")
        if any(w < 0 for w in vector) or sum(vector) <= 0:
            raise CliError(EXIT_VALIDATION, "--weights must be nonnegative and sum to a positive value")
        total = sum(vector)
        return [w / total for w in vector]
    return None


def _ahp_case(args: argparse.Namespace, case: MicrogridCase) -> MicrogridCase:
    """The case with the ``--ahp`` file's matrix in place of its weights and
    judgment matrix, so that ``resolve_weights`` derives the weights and the
    consistency ratio from it as from a case's own matrix."""
    if not args.ahp:
        return case
    try:
        matrix = np.loadtxt(args.ahp)
    except OSError as exc:
        raise _unreadable(f"--ahp file {args.ahp}", exc) from exc
    if matrix.shape != (4, 4):
        raise CliError(EXIT_VALIDATION, f"--ahp matrix must be 4x4, got {matrix.shape}")
    validate_matrix(matrix)
    return replace(case, weights=None, judgment_matrix=tuple(map(tuple, matrix.tolist())))


def _optimizer_config(args: argparse.Namespace) -> OptimizerConfig:
    floors = {"seed": 0, "ga_population": ELITES, "ga_generations": 0, "sqp_iterations": 0,
              "refine_rounds": 0, "polish_sweeps": 0}
    for name, floor in floors.items():
        value = getattr(args, name)
        if value is not None and value < floor:
            flag = "--" + name.replace("_", "-")
            raise CliError(EXIT_VALIDATION, f"{flag} must be at least {floor}, got {value}")
    config = OptimizerConfig(seed=args.seed)
    if args.ga_population is not None:
        config.ga.population = args.ga_population
    if args.ga_generations is not None:
        config.ga.generations = args.ga_generations
    if args.sqp_iterations is not None:
        config.sqp.max_iterations = args.sqp_iterations
    if args.refine_rounds is not None:
        config.refine_rounds = args.refine_rounds
    if args.polish_sweeps is not None:
        config.polish_sweeps = args.polish_sweeps
    return config


def _cmd_optimize(args: argparse.Namespace) -> int:
    case_path = Path(args.case)
    case = _load(case_path)
    scenario_id = args.scenario
    if args.dr and scenario_id != 5:
        raise CliError(EXIT_VALIDATION, "--dr applies to scenario 5 only")
    if args.dr and case.dr is None:
        raise CliError(EXIT_VALIDATION, "case defines no demand response program")
    weights = _parse_weights(args)
    case = _ahp_case(args, case)
    config = _optimizer_config(args)

    stem = case_path.name.rsplit(".", 1)[0]
    out = Path(args.out) if args.out else Path(f"{stem}-scenario{scenario_id}" + ("-dr" if args.dr else ""))
    # The run directory, or the nearest of its parents that exists, must be a directory.
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise CliError(EXIT_VALIDATION, f"--out {out}: {existing} exists and is not a directory")

    try:
        suite = run_suite(case, config=config, weights=weights, include_dr=args.dr)
        result = suite.result(scenario_id, dr=args.dr)
        write_run_dir(out, case_path, case, suite, result, scenario_id, args.dr, config)
    except (PowerFlowError, QpError) as exc:
        _mark_failed(out, EXIT_CONVERGENCE, str(exc))
        raise CliError(EXIT_CONVERGENCE, str(exc)) from exc
    except ValueError as exc:
        _mark_failed(out, EXIT_VALIDATION, str(exc))
        raise

    if not result.feasible:
        message = f"result violates constraints by {result.violation:.3e}"
        _mark_failed(out, EXIT_INFEASIBLE, message)
        raise CliError(EXIT_INFEASIBLE, message)
    marker = out / "FAILED"
    if marker.exists():
        marker.unlink()
    if result.sqp_status is not None and result.sqp_status not in CONVERGED:
        kkt = "not measured" if result.sqp_kkt is None else f"{result.sqp_kkt:.2e}"
        print(
            f"warning: the SQP solve of this plan ended '{result.sqp_status}' after "
            f"{result.sqp_iterations} iterations (KKT residual {kkt}), "
            "not at a first-order point",
            file=sys.stderr,
        )
    print(f"{result.label}: wrote {out}")
    return EXIT_OK


def _mark_failed(out: Path, code: int, message: str) -> None:
    if out.exists():
        (out / "FAILED").write_text(_error_line(code, message) + "\n", encoding="utf-8")


def _read_objectives(run: str) -> Dict:
    """A run directory's objectives.json, checked for what ``compare`` reads."""
    path = Path(run) / "objectives.json"
    if not path.exists():
        raise CliError(EXIT_VALIDATION, f"{run} has no objectives.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _unreadable(str(path), exc) from exc
    except ValueError as exc:
        raise CliError(EXIT_VALIDATION, f"{run}: objectives.json is not JSON: {exc}") from exc

    def number(v) -> bool:
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    values = doc.get("objectives") if isinstance(doc, dict) else None
    if not (
        isinstance(values, dict)
        and isinstance(doc.get("label"), str)
        and all(number(values.get(k)) for k in OBJECTIVE_KEYS)
        and number(doc.get("weighted_total"))
    ):
        raise CliError(
            EXIT_VALIDATION,
            f"{run}: objectives.json must map label, objectives ({', '.join(OBJECTIVE_KEYS)}) and weighted_total",
        )
    return doc


def _cmd_compare(args: argparse.Namespace) -> int:
    rows = [_read_objectives(run) for run in args.runs]
    headers = ["Scenario"] + [OBJECTIVE_LABELS[k] for k in OBJECTIVE_KEYS] + ["Weighted total"]
    table = [headers]
    for doc in rows:
        table.append(
            [doc["label"]]
            + [f"{doc['objectives'][k]:.6g}" for k in OBJECTIVE_KEYS]
            + [f"{doc['weighted_total']:.6g}"]
        )
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    for i, row in enumerate(table):
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            print("  ".join("-" * w for w in widths))
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    run = Path(args.run)
    case_file = run / "case.yaml"
    schedule_file = run / "schedule.csv"
    if not case_file.exists() or not schedule_file.exists():
        raise CliError(EXIT_VALIDATION, f"{run} is not a run directory (case.yaml/schedule.csv missing)")
    case = _load(case_file)
    schedule = read_schedule_csv(schedule_file, case)
    solution = solve_horizon(case, schedule)

    def table(name: str, header: List[str], columns: Sequence[Sequence[float]]) -> None:
        _write_csv(run / name, header, ([t] + [column[t] for column in columns] for t in range(case.horizon)))

    table("dispatch.csv", ["hour"] + [u.name for u in case.units] + ["battery_kw"],
          [*schedule.dg_setpoints, schedule.battery_power])
    if case.battery is not None:
        soc = soc_trajectory(case.battery, schedule.battery_power, case.period_hours)
    else:
        soc = np.zeros(case.horizon)
    table("soc.csv", ["hour", "soc_kwh"], [soc])
    table("grid.csv", ["hour", "import_kw", "export_kw", "price_ct_per_kwh"],
          [[max(v, 0.0) for v in solution.slack_kw], [max(-v, 0.0) for v in solution.slack_kw],
           np.asarray(case.prices_ct_per_kwh, dtype=float)])
    table("losses.csv", ["hour", "loss_kw"], [solution.loss_kw])
    written = ["dispatch.csv", "soc.csv", "grid.csv", "losses.csv"]
    if schedule.dr_shift is not None:
        base = np.zeros(case.horizon)
        for lp in case.load_points:
            base += np.asarray(lp.profile_kw, dtype=float)
        table("load.csv", ["hour", "base_kw", "shift_kw", "shifted_kw"],
              [base, schedule.dr_shift, base + schedule.dr_shift])
        written.append("load.csv")
    print(f"wrote {', '.join(written)} to {run}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _load(path) -> MicrogridCase:
    try:
        return load_case(path)
    except OSError as exc:
        raise _unreadable(f"case file {path}", exc) from exc
    except CaseError as exc:
        raise CliError(EXIT_VALIDATION, str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mgopt", description="Day-ahead microgrid dispatch optimizer")
    parser.add_argument("--version", action="version", version=f"mgopt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a case file and print a summary")
    p.add_argument("case")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("powerflow", help="solve the horizon power flow and print hourly results")
    p.add_argument("case")
    p.add_argument("--schedule", help="schedule CSV (default: grid-only)")
    p.set_defaults(func=_cmd_powerflow)

    p = sub.add_parser("optimize", help="run one scenario and write a run directory")
    p.add_argument("case")
    p.add_argument("--scenario", type=int, required=True, choices=range(6), metavar="{0..5}")
    p.add_argument("--dr", action="store_true", help="co-optimize the demand-response shift (scenario 5)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--weights", help="four comma-separated objective weights")
    group.add_argument("--ahp", help="file with a 4x4 pairwise judgment matrix")
    p.add_argument("--out", help="output directory (default: <case>-scenario<k>)")
    p.add_argument("--ga-population", type=int, help="GA population size")
    p.add_argument("--ga-generations", type=int,
                   help="GA generation cap of the fallback search, run where the DP over the state of charge finds no plan")
    p.add_argument("--sqp-iterations", type=int, help="SQP iteration cap")
    p.add_argument("--refine-rounds", type=int, help="constraint-screening rounds per refinement")
    p.add_argument("--polish-sweeps", type=int, help="cross-scenario polish sweeps")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("compare", help="tabulate objectives across run directories")
    p.add_argument("runs", nargs="+")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("report", help="expand a run directory into per-hour CSV series")
    p.add_argument("run")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(_error_line(exc.code, str(exc)), file=sys.stderr)
        return exc.code
    except PowerFlowError as exc:
        print(_error_line(EXIT_CONVERGENCE, str(exc)), file=sys.stderr)
        return EXIT_CONVERGENCE
    except (CaseError, ValueError) as exc:
        print(_error_line(EXIT_VALIDATION, str(exc)), file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
