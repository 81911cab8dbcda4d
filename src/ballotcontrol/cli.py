"""Command-line front end.

Subcommands: `winner` (winner determination on a preference file),
`control` (solve a control instance, or export its integer program),
`verify` (cross-check the solver against the brute-force oracle), and
`bench` (run a directory of preference files and emit a CSV timing
report).

Exit codes: 0 success (an Infeasible control answer is a success),
1 verify mismatch, 2 unreadable input or output (a missing file, a
directory, bytes that are not UTF-8) or invalid arguments (a time limit
must be a positive number of seconds, a target a candidate index from 1),
3 rule/profile mismatch or a target above the candidate count,
4 unsupported (rule, action) pair, 5 oracle enumeration limit exceeded.

Inputs ending in .csv are read as score matrices (first row the voter
count, then one comma-separated score row per candidate); everything
else is parsed as a preference file (legacy or '#'-metadata layout).
Each file is read in the one form its rule needs. The range rule reads
scores: a .csv as it stands, and a preference file, strict or with ties,
through `expand_scores` with the group-position convention (top group
m-1, next m-2, ...). Every other rule reads the strict rankings of a
preference file without ties (`expand_voters`); a file with ties or a
.csv is a rule/profile mismatch (exit 3).
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
from pathlib import Path

from .control import build_problem, solve_control
from .core import ACTIONS, MODES, RULES, SUPPORTED_CONTROL_PAIRS, ControlSpec, Election
from .ilp import export_lp, export_mps
from .oracle import OracleLimitError, brute_force_control
from .preflib import PrefLibParseError, _parse_int, expand_scores, expand_voters, parse_preflib
from .rules import winner_for_rule
from .solver import SolverConfig

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_PROFILE = 3
EXIT_UNSUPPORTED = 4
EXIT_ORACLE_LIMIT = 5

VERIFY_LIMIT = 1 << 18


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _read_election(path: str, rule: str) -> Election:
    """The file at `path` in the form `rule` reads: scores for range,
    strict rankings for every other rule."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(EXIT_PARSE, f"cannot read {path}: {exc}") from exc
    if path.endswith(".csv"):
        election = _parse_score_csv(text)
        if rule == "range":
            return election
    else:
        try:
            doc = parse_preflib(text)
        except PrefLibParseError as exc:
            raise CliError(EXIT_PARSE, f"cannot parse {path}: {exc}") from exc
        if rule == "range":
            return expand_scores(doc)
        if doc.is_strict:
            return expand_voters(doc)
    raise CliError(
        EXIT_PROFILE, f"the {rule} rule needs strict orders; input has ties or scores"
    )


def _parse_score_csv(text: str) -> Election:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise CliError(EXIT_PARSE, "empty score file")
    try:
        n = _parse_int(lines[0].split(",")[0], "voter count")
        rows = [tuple(_parse_int(tok, "score") for tok in line.split(",")) for line in lines[1:]]
    except PrefLibParseError as exc:
        raise CliError(EXIT_PARSE, f"malformed score matrix: {exc}") from exc
    if not rows or any(len(row) != n for row in rows):
        raise CliError(EXIT_PARSE, f"score rows must all have {n} entries")
    try:
        return Election.from_scores(rows)
    except ValueError as exc:
        raise CliError(EXIT_PARSE, str(exc)) from exc


def _control_spec(args) -> ControlSpec:
    if (args.rule, args.action) not in SUPPORTED_CONTROL_PAIRS:
        raise CliError(
            EXIT_UNSUPPORTED, f"unsupported control pair ({args.rule}, {args.action})"
        )
    return ControlSpec(args.rule, args.action, args.mode, args.target)


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def cmd_winner(args) -> int:
    election = _read_election(args.input, args.rule)
    outcome = winner_for_rule(args.rule, election)
    winner = None
    if outcome.winner is not None:
        winner = {
            "index": outcome.winner,
            "name": election.candidate_name(outcome.winner),
        }
    _emit({"rule": args.rule, "winner": winner, "tally": list(outcome.tally)})
    return EXIT_OK


def cmd_control(args) -> int:
    spec = _control_spec(args)
    election = _read_election(args.input, args.rule)
    if args.engine == "export-only":
        problem, _, _ = build_problem(election, spec)
        stem = Path(args.input).with_suffix("")
        lp_path = args.out_lp or f"{stem}.lp"
        mps_path = args.out_mps or f"{stem}.mps"
        Path(lp_path).write_text(export_lp(problem.model))
        Path(mps_path).write_text(export_mps(problem.model))
        _emit({"status": "exported", "lp": str(lp_path), "mps": str(mps_path)})
        return EXIT_OK
    config = SolverConfig(time_limit=args.time_limit)
    outcome = solve_control(election, spec, config)
    solution = outcome.solution
    result = outcome.solve_result
    payload = {
        "status": solution.status,
        "objective": solution.objective,
        "kept": list(solution.kept),
        "deleted": list(solution.deleted),
        "verification": dict(solution.verification) if solution.verification else None,
        "solver": {
            "nodes": result.nodes_explored,
            "bound": result.bound,
        },
    }
    if args.out_lp:
        Path(args.out_lp).write_text(export_lp(outcome.problem.model))
    if args.out_mps:
        Path(args.out_mps).write_text(export_mps(outcome.problem.model))
    _emit(payload)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = _control_spec(args)
    election = _read_election(args.input, args.rule)
    try:
        oracle = brute_force_control(election, spec, limit=VERIFY_LIMIT)
    except OracleLimitError as exc:
        raise CliError(EXIT_ORACLE_LIMIT, str(exc)) from exc
    outcome = solve_control(election, spec)
    solution = outcome.solution
    match = (solution.status, solution.objective) == (oracle.status, oracle.objective)
    _emit(
        {
            "match": match,
            "solver_status": solution.status,
            "solver_objective": solution.objective,
            "oracle_status": oracle.status,
            "oracle_objective": oracle.objective,
        }
    )
    return EXIT_OK if match else EXIT_MISMATCH


_BENCH_CLASSES = (("1-9", 1, 9), ("10-99", 10, 99), ("100-199", 100, 199), (">=200", 200, None))


def cmd_bench(args) -> int:
    suite = Path(args.suite)
    if not suite.is_dir():
        raise CliError(EXIT_PARSE, f"{args.suite} is not a directory")
    spec = _control_spec(args)
    config = SolverConfig(time_limit=args.timeout)
    rows = []
    timings = []
    for path in sorted(p for p in suite.iterdir() if p.is_file()):
        try:
            election = _read_election(str(path), args.rule)
            outcome = solve_control(election, spec, config)
        except (CliError, ValueError, TypeError) as exc:
            print(f"error: {path.name}: {exc}", file=sys.stderr)
            rows.append([path.name, "", "", "Error", "", "", ""])
            continue
        solution, result = outcome.solution, outcome.solve_result
        status = "TimedOut" if solution.status == "TimeLimit" else solution.status
        wall = round(result.wall_time, 3)
        objective = "" if solution.objective is None else solution.objective
        rows.append(
            [path.name, election.m, election.n, status, objective, wall, result.nodes_explored]
        )
        timings.append((election.m, wall))
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["file", "m", "n", "status", "objective", "wall_time", "nodes"])
        writer.writerows(rows)
        writer.writerow([])
        writer.writerow(["class", "count", "min", "median", "average", "max"])
        for label, low, high in _BENCH_CLASSES:
            times = [w for m, w in timings if m >= low and (high is None or m <= high)]
            if times:
                writer.writerow(
                    [
                        label,
                        len(times),
                        min(times),
                        round(statistics.median(times), 3),
                        round(statistics.fmean(times), 3),
                        max(times),
                    ]
                )
            else:
                writer.writerow([label, 0, "", "", "", ""])
    return EXIT_OK


def _positive_seconds(text: str) -> float:
    """argparse type of a time limit: a number of seconds above zero."""
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be a positive number of seconds, got {text!r}")
    return value


def _positive_index(text: str) -> int:
    """argparse type of a target: a candidate index from 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive candidate index, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballotcontrol",
        description="Election winners and election control by deleting voters or candidates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    winner = sub.add_parser("winner", help="determine the winner of a preference file")
    winner.add_argument("--rule", required=True, choices=RULES)
    winner.add_argument("--input", required=True)
    winner.set_defaults(func=cmd_winner)

    control = sub.add_parser("control", help="solve a control instance")
    control.add_argument("--rule", required=True, choices=RULES)
    control.add_argument("--action", required=True, choices=ACTIONS)
    control.add_argument("--mode", default="constructive", choices=MODES)
    control.add_argument("--target", required=True, type=_positive_index)
    control.add_argument("--input", required=True)
    control.add_argument("--engine", default="builtin", choices=("builtin", "export-only"))
    control.add_argument("--time-limit", type=_positive_seconds, default=None)
    control.add_argument("--out-lp", default=None)
    control.add_argument("--out-mps", default=None)
    control.set_defaults(func=cmd_control)

    verify = sub.add_parser("verify", help="cross-check the solver against the oracle")
    verify.add_argument("--rule", required=True, choices=RULES)
    verify.add_argument("--action", required=True, choices=ACTIONS)
    verify.add_argument("--mode", default="constructive", choices=MODES)
    verify.add_argument("--target", required=True, type=_positive_index)
    verify.add_argument("--input", required=True)
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="solve a directory of files, write a CSV report")
    bench.add_argument("--suite", required=True)
    bench.add_argument("--rule", required=True, choices=RULES)
    bench.add_argument("--action", required=True, choices=ACTIONS)
    bench.add_argument("--timeout", type=_positive_seconds, default=None)
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=cmd_bench, mode="constructive", target=1)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROFILE


if __name__ == "__main__":
    sys.exit(main())
