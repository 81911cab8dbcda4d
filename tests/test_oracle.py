import random

import pytest

from ballotcontrol import (
    ControlSpec,
    Election,
    OracleLimitError,
    SUPPORTED_CONTROL_PAIRS,
    brute_force_control,
    swap_index,
)
from genutil import random_election, random_score_election


class TestBruteForce:
    def test_worked_profile_condorcet(self, worked_election):
        spec = ControlSpec("condorcet", "delete-voters", "constructive", 1)
        solution = brute_force_control(worked_election, spec)
        assert solution.kept == (1, 2, 3)
        assert solution.objective == 3
        assert solution.verification["winner"] == 1

    def test_hopeless_range_instance(self):
        election = Election.from_scores([[0, 0], [1, 1]])
        spec = ControlSpec("range", "delete-voters", "constructive", 1)
        assert brute_force_control(election, spec).status == "Infeasible"

    def test_single_candidate_plurality(self):
        election = Election.from_rankings([(1,)])
        spec = ControlSpec("plurality", "delete-candidates", "constructive", 1)
        solution = brute_force_control(election, spec)
        assert solution.kept == (1,)

    def test_destructive_includes_empty_subset(self):
        # every voter puts the target on top, so only the empty electorate
        # stops it from winning
        election = Election.from_rankings([(1, 2), (1, 2)])
        spec = ControlSpec("condorcet", "delete-voters", "destructive", 1)
        solution = brute_force_control(election, spec)
        assert solution.status == "Optimal"
        assert solution.objective == 0
        assert solution.kept == ()

    def test_destructive_single_candidate_infeasible(self):
        election = Election.from_rankings([(1,), (1,)])
        spec = ControlSpec("bucklin", "delete-voters", "destructive", 1)
        assert brute_force_control(election, spec).status == "Infeasible"

    def test_limit_exceeded(self):
        election = random_election(random.Random(0), 8, 3)
        spec = ControlSpec("condorcet", "delete-voters", "constructive", 1)
        with pytest.raises(OracleLimitError):
            brute_force_control(election, spec, limit=100)

    def test_deterministic_tie_break_prefers_low_indices(self):
        # keeping {1,2} and keeping {1,3} both work; the lexicographically
        # smallest kept set must be returned
        election = Election.from_scores([[2, 2, 0], [0, 3, 1]])
        spec = ControlSpec("range", "delete-voters", "constructive", 1)
        solution = brute_force_control(election, spec)
        assert solution.kept == (1, 2)
        assert solution == brute_force_control(election, spec)

    def test_target_beyond_candidates_rejected_before_limit(self):
        # 2^8 voter subsets exceed the limit too, but the target check
        # comes first
        election = random_election(random.Random(0), 8, 3)
        spec = ControlSpec("condorcet", "delete-voters", "constructive", 4)
        with pytest.raises(ValueError, match="not a candidate index"):
            brute_force_control(election, spec, limit=100)

    @pytest.mark.parametrize("seed", range(15))
    def test_relabeling_invariance(self, seed):
        # The oracle enumerates in the caller's labels, so asking for the
        # target directly and for 1 after relabeling by hand with the
        # (1 target) transposition are two independent computations.
        rng = random.Random(seed)
        for rule, action in sorted(SUPPORTED_CONTROL_PAIRS):
            voters = action == "delete-voters"
            m, n = rng.randint(2, 4), rng.randint(1, 6)
            target = rng.randint(1 if voters else 2, m)
            mode = rng.choice(("constructive", "destructive"))
            if rule == "range":
                election = random_score_election(rng, n, m, 3)
                scores = election.preferences.scores
                swapped = Election.from_scores(
                    [scores[swap_index(c, 1, target) - 1] for c in range(1, m + 1)]
                )
            else:
                election = random_election(rng, n, m)
                swapped = Election.from_rankings(
                    tuple(
                        tuple(swap_index(c, 1, target) for c in r)
                        for r in election.preferences.rankings
                    )
                )
            direct = brute_force_control(election, ControlSpec(rule, action, mode, target))
            relabeled = brute_force_control(swapped, ControlSpec(rule, action, mode, 1))
            case = (rule, action, mode, target, election)
            assert direct.status == relabeled.status, case
            assert direct.objective == relabeled.objective, case
            if voters:
                # candidate kept sets may tie-break differently across labels
                assert direct.kept == relabeled.kept, case
