import csv
import json

import pytest

from ballotcontrol import parse_lp
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
