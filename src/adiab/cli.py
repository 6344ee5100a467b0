"""Command-line front end.

    adiab run <scenario.json> [--out DIR]     execute, write CSV + report
    adiab batch <dir> [--out DIR]             run every *.json in a directory
    adiab verify <scenario.json>              identity checks only, no files

Exit codes: 0 all checks pass, 1 identity failure, 2 configuration error
(a rejected scenario document, or an ``--out`` that cannot be written),
3 numerical failure (degeneracy, lost level identity, eigensolver
non-convergence, broken gauge), 4 internal error (any other exception,
reported on one stderr line).

``batch`` runs every file even when some fail, ends with one summary row
per file (status, peak off-level |c|, max |R|, max coupling ratio, which
is max |Q|, and the two regime flags) and exits with the highest code seen.
A file whose ``name`` an earlier file of the batch has written is a
configuration error: it neither runs nor overwrites the earlier outputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from adiab.diagnostics import GaugeError
from adiab.linalg import ConvergenceError
from adiab.runner import RunReport, RunResult, emit_csv, emit_report, run_scenario
from adiab.scenario import Scenario, ScenarioError, load_scenario
from adiab.tracking import DegeneracyError, LevelCrossingError

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4

_STATUS = ("ok", "identity", "config", "numerical", "internal")  # indexed by exit code


def _print_checks(result: RunResult) -> None:
    report = result.report
    for name, entry in report.checks.items():
        status = "PASS" if entry["pass"] else "FAIL"
        print(f"check {name}: max {entry['value']:.3e} tol {entry['tolerance']:.1e} {status}")
    print(f"regime: {report.regime['description']}")
    if report.marzlin_sanders is not None:
        ms = report.marzlin_sanders
        print(
            "transformed pair: min fidelity A "
            f"{ms['min_fidelity_system_a']:.4f}, B {ms['min_fidelity_system_b']:.4f}, "
            f"max |U_B U_A - 1| {ms['max_inverse_residual']:.3e}"
        )


def _finish(result: RunResult) -> int:
    failure = result.report.first_failure()
    if failure is not None:
        print(f"FAIL: first failing check is {failure!r}", file=sys.stderr)
        return EXIT_IDENTITY
    return EXIT_OK


def _failure_code(exc: Exception) -> int:
    """Report ``exc`` on one stderr line and return its exit code."""
    if isinstance(exc, ScenarioError):
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if isinstance(exc, (DegeneracyError, LevelCrossingError, ConvergenceError, GaugeError)):
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    message = " ".join(str(exc).split())
    print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
    return EXIT_INTERNAL


def _run_one(scenario: Scenario, out_dir: Path) -> RunResult:
    result = run_scenario(scenario)
    written = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if "csv" in scenario.outputs:
            written.append(emit_csv(result, out_dir / f"{scenario.name}.csv"))
        if "report" in scenario.outputs:
            written.append(emit_report(result, out_dir / f"{scenario.name}.report.json"))
    except OSError as exc:  # a bad --out is a configuration error, not an internal one
        raise ScenarioError(f"--out: cannot write {out_dir}: {exc}") from exc
    for out_path in written:
        print(f"wrote {out_path}")
    _print_checks(result)
    return result


def _cmd_run(args) -> int:
    return _finish(_run_one(load_scenario(Path(args.scenario)), Path(args.out)))


_TABLE_COLUMNS = ("scenario", "status", "max|c_off|", "max|R|", "max ratio", "adiab", "ratio>thr")
_TABLE_WIDTHS = (10, 12, 10, 11, 7, 11)  # after the left-aligned name


def _summary_cells(name: str, code: int, report: Optional[RunReport]) -> list[str]:
    if report is None:
        return [name, _STATUS[code]] + ["-"] * 5
    summary, regime = report.summary, report.regime
    maxima = (
        max(summary["max_abs_c"][label] for label in summary["max_qac"]),  # off levels only
        max(summary["max_abs_r"].values()),
        max(summary["max_qac"].values()),
    )
    flags = (regime["adiabatic_approximation_holds"], regime["qac_violated"])
    return [name, _STATUS[code], *(f"{x:.5f}" for x in maxima), *(("no", "yes")[f] for f in flags)]


def _cmd_batch(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        problem = "is not a directory" if directory.exists() else "does not exist"
        raise ScenarioError(f"batch directory {directory} {problem}")
    files = sorted(directory.glob("*.json"))
    if not files:
        raise ScenarioError(f"batch directory {directory} contains no *.json scenarios")
    codes = []
    rows = [_TABLE_COLUMNS]
    written = {}  # scenario name -> the file whose outputs carry it
    for path in files:
        print(f"== {path.name} ==")
        try:
            scenario = load_scenario(path)
            if scenario.name in written:
                earlier = written[scenario.name]
                raise ScenarioError(f"name: {scenario.name!r} is already written by {earlier}")
            result = _run_one(scenario, Path(args.out))
        except Exception as exc:  # one bad file must not stop the batch
            code, report = _failure_code(exc), None
        else:
            written[scenario.name] = path.name
            code, report = _finish(result), result.report
        codes.append(code)
        rows.append(_summary_cells(path.stem, code, report))
    print()
    for name, *cells in rows:
        print(f"{name:<20}" + "".join(f"{c:>{w}}" for c, w in zip(cells, _TABLE_WIDTHS)))
    return max(codes)


def _cmd_verify(args) -> int:
    scenario = load_scenario(Path(args.scenario))
    result = run_scenario(scenario)
    _print_checks(result)
    return _finish(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="adiab",
        description="Exact transition-amplitude diagnostics for driven quantum systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write its CSV and report")
    p_run.add_argument("scenario", help="path to a scenario JSON document")
    p_run.add_argument("--out", default=".", help="output directory (default: current)")
    p_run.set_defaults(func=_cmd_run)

    p_batch = sub.add_parser("batch", help="run every *.json scenario in a directory")
    p_batch.add_argument("directory", help="directory of scenario documents")
    p_batch.add_argument("--out", default=".", help="output directory (default: current)")
    p_batch.set_defaults(func=_cmd_batch)

    p_verify = sub.add_parser("verify", help="run identity checks only, write no files")
    p_verify.add_argument("scenario", help="path to a scenario JSON document")
    p_verify.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # keeps exit 1 for identity failures only
        return _failure_code(exc)


if __name__ == "__main__":
    sys.exit(main())
