import csv
import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ballotcontrol import MODES, RULES, SUPPORTED_CONTROL_PAIRS, parse_lp
from ballotcontrol.cli import main

WORKED_SOC = """\
4
1,Alice
2,Bob
3,Carol
4,Dave
3,3,3
1,1,2,3,4
1,1,3,2,4
1,4,3,2,1
"""

CYCLE_SOC = """\
3
1,a
2,b
3,c
3,3,3
1,1,2,3
1,2,3,1
1,3,1,2
"""

TIED_TOC = "3\n1,A\n2,B\n3,C\n2,2,2\n1,1,2,3\n1,3,{1,2}\n"

SCORES_CSV = "3\n3,3,0\n2,1,1\n1,2,2\n0,0,3\n"

SINGLE_CANDIDATE_SOI = "# NUMBER ALTERNATIVES: 1\n2: 1\n"


@pytest.fixture
def soc_file(tmp_path):
    path = tmp_path / "worked.soc"
    path.write_text(WORKED_SOC)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWinner:
    def test_condorcet_winner(self, capsys, soc_file):
        code, out, _ = run(capsys, "winner", "--rule", "condorcet", "--input", soc_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["winner"] == {"index": 1, "name": "Alice"}
        assert payload["tally"] == [3, 1, 2, 0]

    def test_cycle_has_null_winner(self, capsys, tmp_path):
        path = tmp_path / "cycle.soc"
        path.write_text(CYCLE_SOC)
        code, out, _ = run(capsys, "winner", "--rule", "condorcet", "--input", str(path))
        assert code == 0
        assert json.loads(out)["winner"] is None

    def test_ties_rejected_for_preference_rules(self, capsys, tmp_path):
        path = tmp_path / "tied.toc"
        path.write_text(TIED_TOC)
        code, _, err = run(capsys, "winner", "--rule", "condorcet", "--input", str(path))
        assert code == 3
        assert "strict" in err

    def test_scores_rejected_for_preference_rules(self, capsys, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(SCORES_CSV)
        code, out, _ = run(capsys, "winner", "--rule", "maximin", "--input", str(path))
        assert code == 3 and out == ""

    def test_range_accepts_tied_file(self, capsys, tmp_path):
        path = tmp_path / "tied.toc"
        path.write_text(TIED_TOC)
        code, out, _ = run(capsys, "winner", "--rule", "range", "--input", str(path))
        assert code == 0
        # first voter gives 2,1,0; the second tops c3 and ties {c1,c2} second
        assert json.loads(out)["tally"] == [3, 2, 2]

    def test_range_from_csv(self, capsys, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(SCORES_CSV)
        code, out, _ = run(capsys, "winner", "--rule", "range", "--input", str(path))
        assert code == 0
        assert json.loads(out)["tally"] == [6, 4, 5, 3]

    def test_range_reads_strict_file_as_scores(self, capsys, soc_file):
        code, out, _ = run(capsys, "winner", "--rule", "range", "--input", soc_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["tally"] == [6, 4, 5, 3]
        assert payload["winner"] == {"index": 1, "name": "Alice"}

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.soc"
        path.write_text("garbage\n")
        code, _, err = run(capsys, "winner", "--rule", "condorcet", "--input", str(path))
        assert code == 2
        assert "cannot parse" in err

    @pytest.mark.parametrize(
        "name,text",
        [
            ("bad.soc", "# NUMBER ALTERNATIVES: 2\n1_0: 1,2\n"),
            ("bad.soc", "# NUMBER ALTERNATIVES: 2\n\u0663: 2,1\n"),
            ("bad.soc", "2\n1,A\n2,B\n3,3,1\n+3,1,2\n"),
            ("bad.csv", "2\n1_0,1\n0,1\n"),
            ("bad.csv", "2\n+3,1\n0,1\n"),
            ("bad.csv", "\u0662\n3,1\n0,1\n"),
        ],
    )
    def test_non_ascii_integer_token_exit_code(self, capsys, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "winner", "--rule", "range", "--input", str(path))
        assert (code, out) == (2, "")
        assert "expected an integer" in err

    def test_negative_score_keeps_its_message(self, capsys, tmp_path):
        path = tmp_path / "negative.csv"
        path.write_text("2\n-3,1\n0,1\n")
        code, out, err = run(capsys, "winner", "--rule", "range", "--input", str(path))
        assert (code, out) == (2, "")
        assert "scores must be non-negative" in err

    def test_legacy_voter_count_mismatch_exit_code(self, capsys, tmp_path):
        # the header declares 99 voters over multiplicities that sum to 3
        path = tmp_path / "bad.soc"
        path.write_text("3\n1,a\n2,b\n3,c\n99,3,2\n2,1,2,3\n1,3,2,1\n")
        code, out, err = run(capsys, "winner", "--rule", "condorcet", "--input", str(path))
        assert (code, out) == (2, "")
        assert "99 voters" in err

    def test_modern_unique_order_count_mismatch_exit_code(self, capsys, tmp_path):
        # the header declares 7 unique orders over 2 order lines
        path = tmp_path / "bad.soc"
        path.write_text(
            "# NUMBER ALTERNATIVES: 3\n# NUMBER VOTERS: 3\n# NUMBER UNIQUE ORDERS: 7\n"
            "2: 1,2,3\n1: 3,2,1\n"
        )
        code, out, err = run(capsys, "winner", "--rule", "condorcet", "--input", str(path))
        assert (code, out) == (2, "")
        assert "7 unique orders" in err


class TestControl:
    def test_condorcet_keeps_everyone(self, capsys, soc_file):
        code, out, _ = run(
            capsys,
            "control", "--rule", "condorcet", "--action", "delete-voters",
            "--mode", "constructive", "--target", "1", "--input", soc_file,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "Optimal"
        assert payload["objective"] == 3
        assert payload["deleted"] == []
        assert payload["verification"]["ok"] is True
        assert payload["solver"]["nodes"] >= 1

    def test_bucklin_candidates(self, capsys, soc_file):
        code, out, _ = run(
            capsys,
            "control", "--rule", "bucklin", "--action", "delete-candidates",
            "--target", "1", "--input", soc_file,
        )
        assert code == 0
        assert json.loads(out)["objective"] == 4

    def test_infeasible_is_success(self, capsys, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("2\n0,0\n1,1\n")
        code, out, _ = run(
            capsys,
            "control", "--rule", "range", "--action", "delete-voters",
            "--target", "1", "--input", str(path),
        )
        assert code == 0
        assert json.loads(out)["status"] == "Infeasible"

    def test_range_on_strict_file(self, capsys, soc_file):
        # Ballots score 3, 2, 1, 0 from the top. Dropping voter 1 leaves
        # Carol 4 against Alice 3, Dave 3 and Bob 2.
        code, out, _ = run(
            capsys,
            "control", "--rule", "range", "--action", "delete-voters",
            "--target", "3", "--input", soc_file,
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["status"], payload["objective"]) == ("Optimal", 2)
        assert (payload["kept"], payload["deleted"]) == ([2, 3], [1])
        assert payload["verification"]["winner"] == 3

    def test_unsupported_pair(self, capsys, soc_file):
        code, _, err = run(
            capsys,
            "control", "--rule", "range", "--action", "delete-candidates",
            "--target", "1", "--input", soc_file,
        )
        assert code == 4
        assert "unsupported" in err

    def test_byte_deterministic_output(self, capsys, soc_file):
        args = (
            "control", "--rule", "maximin", "--action", "delete-voters",
            "--target", "2", "--input", soc_file,
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_export_only_writes_models(self, capsys, soc_file, tmp_path):
        lp_path = tmp_path / "model.lp"
        mps_path = tmp_path / "model.mps"
        code, out, _ = run(
            capsys,
            "control", "--rule", "condorcet", "--action", "delete-voters",
            "--target", "1", "--input", soc_file, "--engine", "export-only",
            "--out-lp", str(lp_path), "--out-mps", str(mps_path),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "exported"
        assert "Maximize" in lp_path.read_text()
        assert "ENDATA" in mps_path.read_text()
        assert "objective" not in payload

    def test_target_out_of_range(self, capsys, soc_file):
        code, _, err = run(
            capsys,
            "control", "--rule", "condorcet", "--action", "delete-voters",
            "--target", "9", "--input", soc_file,
        )
        assert code == 3

    def test_out_mps_after_solve_matches_export_only(self, capsys, soc_file, tmp_path):
        args = (
            "control", "--rule", "bucklin", "--action", "delete-voters",
            "--mode", "destructive", "--target", "1", "--input", soc_file,
        )
        solved, exported = tmp_path / "solved.mps", tmp_path / "exported.mps"
        code, out, _ = run(capsys, *args, "--out-mps", str(solved))
        assert code == 0
        assert json.loads(out)["status"] == "Optimal"
        code, _, _ = run(
            capsys, *args, "--engine", "export-only",
            "--out-lp", str(tmp_path / "exported.lp"), "--out-mps", str(exported),
        )
        assert code == 0
        assert solved.read_text() == exported.read_text()

    def test_valid_time_limit_keeps_output(self, capsys, soc_file):
        args = (
            "control", "--rule", "maximin", "--action", "delete-voters",
            "--target", "2", "--input", soc_file,
        )
        code, plain, _ = run(capsys, *args)
        assert code == 0
        code, limited, _ = run(capsys, *args, "--time-limit", "60")
        assert code == 0
        assert limited == plain

    def test_time_limit_must_be_positive(self, capsys, soc_file):
        for limit in ("0", "-1", "abc"):
            with pytest.raises(SystemExit) as exit_info:
                main(
                    [
                        "control", "--rule", "condorcet", "--action", "delete-voters",
                        "--target", "1", "--input", soc_file, "--time-limit", limit,
                    ]
                )
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert "positive number of seconds" in err
            assert "_positive_seconds" not in err


class TestUnreadable:
    def test_input_directory(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "control", "--rule", "condorcet", "--action", "delete-voters",
            "--target", "1", "--input", str(tmp_path),
        )
        assert code == 2
        assert out == "" and "cannot read" in err

    def test_out_lp_directory(self, capsys, soc_file, tmp_path):
        code, out, _ = run(
            capsys,
            "control", "--rule", "condorcet", "--action", "delete-voters",
            "--target", "1", "--input", soc_file, "--out-lp", str(tmp_path),
        )
        assert code == 2
        assert out == ""

    def test_input_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "bytes.soc"
        path.write_bytes(b"\xff\xfe\x00\x01garbage")
        code, _, err = run(
            capsys,
            "control", "--rule", "condorcet", "--action", "delete-voters",
            "--target", "1", "--input", str(path),
        )
        assert code == 2
        assert "cannot read" in err
        out_path = tmp_path / "report.csv"
        code, _, err = run(
            capsys,
            "bench", "--suite", str(tmp_path), "--rule", "condorcet",
            "--action", "delete-voters", "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_text().splitlines()[1] == "bytes.soc,,,Error,,,"

    @pytest.mark.parametrize("command", ["control", "verify"])
    def test_target_must_be_positive(self, capsys, soc_file, command):
        for target in ("0", "-2", "one"):
            with pytest.raises(SystemExit) as exit_info:
                main(
                    [
                        command, "--rule", "condorcet", "--action", "delete-voters",
                        "--target", target, "--input", soc_file,
                    ]
                )
            assert exit_info.value.code == 2
            assert "positive candidate index" in capsys.readouterr().err


@pytest.mark.parametrize("rule", ["condorcet", "maximin"])
class TestSingleCandidate:
    @pytest.fixture
    def single_file(self, tmp_path):
        path = tmp_path / "single.soi"
        path.write_text(SINGLE_CANDIDATE_SOI)
        return str(path)

    def test_export_only(self, capsys, tmp_path, single_file, rule):
        lp_path = tmp_path / "model.lp"
        mps_path = tmp_path / "model.mps"
        code, out, _ = run(
            capsys,
            "control", "--rule", rule, "--action", "delete-voters",
            "--target", "1", "--input", single_file, "--engine", "export-only",
            "--out-lp", str(lp_path), "--out-mps", str(mps_path),
        )
        assert code == 0
        assert json.loads(out)["status"] == "exported"
        model = parse_lp(lp_path.read_text())
        assert [v.name for v in model.variables][:2] == ["x_1", "x_2"]
        assert "ENDATA" in mps_path.read_text()

    @pytest.mark.parametrize(
        "mode,status,objective",
        [("constructive", "Optimal", 2), ("destructive", "Infeasible", None)],
    )
    def test_solve_writes_lp(self, capsys, tmp_path, single_file, rule, mode, status, objective):
        lp_path = tmp_path / "model.lp"
        code, out, _ = run(
            capsys,
            "control", "--rule", rule, "--action", "delete-voters", "--mode", mode,
            "--target", "1", "--input", single_file, "--out-lp", str(lp_path),
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["status"], payload["objective"]) == (status, objective)
        tags = [c.tag for c in parse_lp(lp_path.read_text()).constraints]
        assert tags == ([] if mode == "constructive" else ["dest:impossible"])


class TestVerify:
    def test_match(self, capsys, soc_file):
        code, out, _ = run(
            capsys,
            "verify", "--rule", "bucklin", "--action", "delete-voters",
            "--mode", "destructive", "--target", "1", "--input", soc_file,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["match"] is True
        assert payload["solver_objective"] == payload["oracle_objective"]

    def test_target_beyond_candidates(self, capsys, soc_file):
        code, out, err = run(
            capsys,
            "verify", "--rule", "condorcet", "--action", "delete-voters",
            "--target", "5", "--input", soc_file,
        )
        assert code == 3
        assert out == "" and "not a candidate index" in err

    def test_oracle_limit(self, capsys, tmp_path):
        n = 20
        lines = ["2", "1,A", "2,B", f"{n},{n},{n}"] + ["1,1,2"] * n
        path = tmp_path / "big.soc"
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run(
            capsys,
            "verify", "--rule", "condorcet", "--action", "delete-voters",
            "--target", "1", "--input", str(path),
        )
        assert code == 5
        assert "limit" in err


class TestBench:
    def test_bench_report(self, capsys, tmp_path):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "a.soc").write_text(WORKED_SOC)
        (suite / "b.soc").write_text(CYCLE_SOC)
        (suite / "c.soc").write_text("garbage")
        out_path = tmp_path / "report.csv"
        code, _, _ = run(
            capsys,
            "bench", "--suite", str(suite), "--rule", "condorcet",
            "--action", "delete-voters", "--out", str(out_path),
        )
        assert code == 0
        rows = list(csv.reader(out_path.read_text().splitlines()))
        assert rows[0] == ["file", "m", "n", "status", "objective", "wall_time", "nodes"]
        by_file = {r[0]: r for r in rows[1:4]}
        assert by_file["a.soc"][3] == "Optimal" and by_file["a.soc"][4] == "3"
        assert by_file["c.soc"][3] == "Error"
        # summary block with the four candidate-count classes
        labels = [r[0] for r in rows if r and r[0] in ("1-9", "10-99", "100-199", ">=200")]
        assert labels == ["1-9", "10-99", "100-199", ">=200"]
        summary = {r[0]: r for r in rows if r and r[0] in labels}
        assert summary["1-9"][1] == "2"
        assert summary["10-99"][1] == "0"

    def test_bench_timeout_must_be_positive(self, capsys, tmp_path):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "a.soc").write_text(WORKED_SOC)
        for timeout in ("0", "abc"):
            with pytest.raises(SystemExit) as exit_info:
                main(
                    [
                        "bench", "--suite", str(suite), "--rule", "condorcet",
                        "--action", "delete-voters", "--timeout", timeout,
                        "--out", str(tmp_path / "report.csv"),
                    ]
                )
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert "positive number of seconds" in err
            assert "_positive_seconds" not in err
            assert not (tmp_path / "report.csv").exists()

    def test_bench_error_message_on_stderr(self, capsys, tmp_path):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "c.soc").write_text("garbage")
        out_path = tmp_path / "report.csv"
        code, _, err = run(
            capsys,
            "bench", "--suite", str(suite), "--rule", "condorcet",
            "--action", "delete-voters", "--out", str(out_path),
        )
        assert code == 0
        assert "c.soc" in err and "cannot parse" in err
        assert out_path.read_text().splitlines()[1] == "c.soc,,,Error,,,"


# Byte-for-byte pins of the command line. A seeded sweep writes three small
# files of each kind (legacy, '#'-metadata, legacy with ties, .csv scores)
# and runs `winner` under every rule, and `control`, `verify` and
# `control --engine export-only` under every supported (rule, action) pair
# and one unsupported pair, in both modes, with targets 1, m and m + 1.
# Each table entry hashes the argv, exit code and stdout of every call of
# one command on one kind (temporary paths replaced by "<tmp>") and the
# LP and MPS files the call wrote. The table was computed before elections
# held plain candidate names and a voter range, when answers to targets
# other than 1 were still relabeled back after the recheck. The control
# entries of the legacy and modern kinds were recomputed when the solver
# began to search voters with one ballot as one count column, and again
# when HiGHS stopped presolving the root LP; each moves the kept and
# deleted sets and the node count of a few answers.

GOLDEN_CLI = {
    ("winner", "legacy"): (
        "edf891074ac14ebdb6721991443db559c2d88013310694d1c6b64cfc2c171ef2"
    ),
    ("winner", "modern"): (
        "0a6042fd908b2e42adee992df683161083b74739d11c86a388cb36669f61820d"
    ),
    ("winner", "tied"): (
        "0fd1eea4ea254c1149b3fbaddaeb087bd8c4511837b0bbc6d9c51ac073195037"
    ),
    ("winner", "csv"): (
        "cacd7975ae052abc9d8a4e5aca13c133e64763b0b3aa5498d215c653b365ad6c"
    ),
    ("control", "legacy"): (
        "6762226b4a56193c19d05877c4df3c1b8de19be0ff887920254828a9793847a5"
    ),
    ("control", "modern"): (
        "91fa5ed33b0aa5e68c18a0a6cdccc4ed419869bcf1bc63a074ef081c4583e57b"
    ),
    ("control", "tied"): (
        "664b17aceacf67fa727fd09a25338d4add82192eaa7a93707b0fa429b59317f3"
    ),
    ("control", "csv"): (
        "31e05d6d9fbe5b7c491359cab641929818cd2422822409ba2d0cce2f56068ee8"
    ),
    ("verify", "legacy"): (
        "68ad43d870436364f9b3ee88d1fc8e022e727a230333bd0b4faf8ae4c93a141a"
    ),
    ("verify", "modern"): (
        "941f6cfcc7e15fdf6d78e52cf2e12afc232fa3ede4f9b0f5ff07d50177e64fdf"
    ),
    ("verify", "tied"): (
        "082f940ff866da6950a0115761b1825b43f33d386ceb5411ee89f03d3d35d004"
    ),
    ("verify", "csv"): (
        "825f079d6dfff68672e1154bf86ffb070a26fd160a592e50f48a3e954947da43"
    ),
    ("export", "legacy"): (
        "6659f15c454b4094a359b8f6ac5325506e7aa81151089f80026b91ea7d154546"
    ),
    ("export", "modern"): (
        "c7f0df33e650c227498492565395130fad1adf683f7c4337af72dc2af56328e4"
    ),
    ("export", "tied"): (
        "0ad9772a14b6139f669aa53cac024f8a40b57ee9db2abf8baa87795ef32ea92c"
    ),
    ("export", "csv"): (
        "cc006eca5773af90273b3fae28b565056e205769427e411ca8545e736ea6b4ab"
    ),
}

_GOLDEN_KINDS = ("legacy", "modern", "tied", "csv")
_GOLDEN_PAIRS = sorted(SUPPORTED_CONTROL_PAIRS) + [("plurality", "delete-voters")]


def _golden_order(rng, m, ties):
    order = rng.sample(range(1, m + 1), m)
    if not ties:
        return ",".join(map(str, order))
    items = []
    while order:
        size = rng.randint(1, len(order))
        group, order = sorted(order[:size]), order[size:]
        items.append(str(group[0]) if size == 1 else "{" + ",".join(map(str, group)) + "}")
    return ",".join(items)


def _golden_text(rng, kind):
    """One small input file of `kind`; returns (suffix, text, m)."""
    m = rng.randint(1, 4)
    if kind == "csv":
        n = rng.randint(1, 5)
        rows = [",".join(str(rng.randint(0, 3)) for _ in range(n)) for _ in range(m)]
        return ".csv", "\n".join([str(n)] + rows) + "\n", m
    lines = [(rng.randint(1, 2), _golden_order(rng, m, kind == "tied")) for _ in range(rng.randint(1, 4))]
    total = sum(mult for mult, _ in lines)
    names = [f"{kind[0].upper()}{rng.randrange(100)}" for _ in range(m)]
    if kind == "modern":
        head = [f"# NUMBER ALTERNATIVES: {m}", f"# NUMBER VOTERS: {total}"]
        head += [f"# ALTERNATIVE NAME {i}: {name}" for i, name in enumerate(names, start=1)]
        body = [f"{mult}: {order}" for mult, order in lines]
        return ".soi", "\n".join(head + body) + "\n", m
    head = [str(m)] + [f"{i},{name}" for i, name in enumerate(names, start=1)]
    head.append(f"{total},{total},{len(lines)}")
    body = [f"{mult},{order}" for mult, order in lines]
    return (".toc" if kind == "tied" else ".soc"), "\n".join(head + body) + "\n", m


def _golden_calls(command, path, m):
    if command == "winner":
        for rule in RULES:
            yield ["winner", "--rule", rule, "--input", path]
        return
    extra = ["--engine", "export-only"] if command == "export" else []
    for rule, action in _GOLDEN_PAIRS:
        for mode in MODES:
            for target in sorted({1, m, m + 1}):
                yield [
                    "verify" if command == "verify" else "control",
                    "--rule", rule, "--action", action, "--mode", mode,
                    "--target", str(target), "--input", path, *extra,
                ]


def _outcome(argv, code, out):
    """The outcome of one `control` or `verify` call: argv, exit code, and
    the status, objective, bound and verification it printed, if any."""
    record = [" ".join(argv), code]
    if out:
        payload = json.loads(out)
        if argv[0] == "control":
            bound = payload["solver"]["bound"]
            record += [payload["status"], payload["objective"], bound, payload["verification"]]
        else:
            oracle = {key: payload[key] for key in ("match", "oracle_status", "oracle_objective")}
            record += [payload["solver_status"], payload["solver_objective"], None, oracle]
    return json.dumps(record, sort_keys=True)


def golden_digests(command, kind, folder):
    """SHA-256 digests of every call of `command` on the three seeded files
    of `kind`, written into `folder`: the full digest of `GOLDEN_CLI`, and
    the digest of `_outcome` of each call, which `GOLDEN_CLI_OUTCOMES` pins
    for `control` and `verify`. The call's stdout and stderr are captured."""
    rng = random.Random(_GOLDEN_KINDS.index(kind))
    full, outcomes = hashlib.sha256(), hashlib.sha256()
    for number in range(3):
        suffix, text, m = _golden_text(rng, kind)
        path = Path(folder) / f"in{number}{suffix}"
        path.write_text(text)
        for argv in _golden_calls(command, str(path), m):
            stdout = io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                code = main(argv)
            out = stdout.getvalue()
            record = [" ".join(argv), str(code), out]
            for written in (path.with_suffix(".lp"), path.with_suffix(".mps")):
                if written.exists():
                    record.append(written.read_text())
                    written.unlink()
            full.update("\0".join(record).replace(str(folder), "<tmp>").encode() + b"\1")
            if command in ("control", "verify"):
                outcome = _outcome(argv, code, out).replace(str(folder), "<tmp>")
                outcomes.update(outcome.encode() + b"\n")
    return full.hexdigest(), outcomes.hexdigest()


@pytest.mark.parametrize("kind", _GOLDEN_KINDS)
@pytest.mark.parametrize("command", ["winner", "control", "verify", "export"])
def test_cli_golden_digests(tmp_path, command, kind):
    assert golden_digests(command, kind, tmp_path)[0] == GOLDEN_CLI[(command, kind)]


# The outcome of every `control` and `verify` call of the sweep above:
# argv, exit code, status, objective, bound and verification, without the
# kept and deleted sets or the node count. Computed before the solver
# searched interchangeable columns merged, which may move which voters are
# kept and how many nodes are searched, never these.
GOLDEN_CLI_OUTCOMES = {
    ('control', 'legacy'): (
        "b964f11f9359e404962f713fd9e9fc07e2b17dd8ff52e3a936f7a70f01e1236d"
    ),
    ('control', 'modern'): (
        "2675104973c3a8e0414b87ac011d86b5651558f5dbe41964378267717f1a61ed"
    ),
    ('control', 'tied'): (
        "d661ec815a80b5b62a4191f41fbb84ff8e87850a0532c5a40d0308b5ed9a1680"
    ),
    ('control', 'csv'): (
        "3f764f3f1f42430f324df15898e3d6129e2b7ab4ae9935ff71acac38fbd8dc28"
    ),
    ('verify', 'legacy'): (
        "7f619b36d83d00bf47718b23b75f125b8acb654fbd7b9a2703b1e38227951910"
    ),
    ('verify', 'modern'): (
        "624d48332d29ada93dbf3b14ef85754788e74e4d74c7e758d8fe7fbc63fbc19a"
    ),
    ('verify', 'tied'): (
        "6193df21cd2e8f7a585145cde1ea5f182096ad032a5c251324bac264abacbf21"
    ),
    ('verify', 'csv'): (
        "d3002f86d3d58f8053e38fdb4b7745f5c4c72d7a50ebc651222d25331639cd38"
    ),
}


@pytest.mark.parametrize("kind", _GOLDEN_KINDS)
@pytest.mark.parametrize("command", ["control", "verify"])
def test_cli_outcome_digests(tmp_path, command, kind):
    assert golden_digests(command, kind, tmp_path)[1] == GOLDEN_CLI_OUTCOMES[(command, kind)]
