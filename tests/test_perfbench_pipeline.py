"""The benchmark's calls into the library, as a tier-1 test.

`perfbench/pipeline.answer` goes from preference text to a deletion set
through the library's public functions, and with a recording tracer it
also runs the probes (`solve_lp_relaxation`, `check_assignment`,
`winner_after_deletion`). Running it here makes a library change that
breaks one of those calls fail in the test suite, not only in a benchmark
run. The test reads `perfbench/` and changes nothing there.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from pipeline import PROBES, Tracer, answer  # noqa: E402
from workloads import WARM_UP, Instance  # noqa: E402

from ballotcontrol import ControlSpec, Election, brute_force_control  # noqa: E402

# Range reads the strict file as scores (3, 2, 1, 0 down each ballot), so
# the pipeline takes its `_as_scores` path.
RANGE = Instance(
    "range-tiny", "range", "delete-voters", "constructive", 3, 4,
    ((1, 2, 3, 4), (1, 3, 2, 4), (4, 3, 2, 1)), (1, 2, 1),
)


def oracle_election(inst) -> Election:
    rankings = [r for r, count in zip(inst.rankings, inst.counts) for _ in range(count)]
    if inst.rule != "range":
        return Election.from_rankings(rankings)
    return Election.from_scores(
        [[inst.m - 1 - r.index(c) for r in rankings] for c in range(1, inst.m + 1)]
    )


@pytest.mark.parametrize("inst", [WARM_UP, RANGE], ids=lambda inst: inst.id)
def test_answer_matches_oracle(inst, tmp_path):
    tracer = Tracer(True)
    got = answer(inst, inst.text(), tmp_path, tracer)
    spec = ControlSpec(inst.rule, inst.action, inst.mode, inst.target)
    expected = brute_force_control(oracle_election(inst), spec)
    assert (got.status, got.objective) == (expected.status, expected.objective)
    assert got.status == "Optimal"
    assert set(PROBES) <= {span["name"] for span in tracer.spans}
    assert (tmp_path / f"{inst.id}.mps").exists() == inst.export
