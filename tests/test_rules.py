import random

import pytest
from hypothesis import given, settings, strategies as st

from ballotcontrol import (
    Election,
    ScoreMatrix,
    StrictProfile,
    bucklin_psi,
    bucklin_rank_set,
    bucklin_winner,
    condorcet_winner,
    maximin_phi,
    maximin_winner,
    pairwise_advantage,
    plurality_winner,
    range_winner,
    winner_after_deletion,
    winner_for_rule,
)
from genutil import random_profile


@pytest.fixture
def worked_profile(worked_rankings):
    return StrictProfile(worked_rankings)


def profiles(max_n=7, max_m=5):
    def build(m, n, seed):
        rng = random.Random(seed)
        return StrictProfile(tuple(random_profile(rng, n, m)))

    return st.builds(build, st.integers(1, max_m), st.integers(1, max_n), st.integers(0, 99999))


class TestRange:
    def test_worked_profile_totals(self):
        scores = ScoreMatrix(((3, 3, 0), (2, 1, 1), (1, 2, 2), (0, 0, 3)))
        outcome = range_winner(scores)
        assert outcome.tally == (6, 4, 5, 3)
        assert outcome.winner == 1

    def test_single_candidate_wins(self):
        assert range_winner(ScoreMatrix(((0, 0),))).winner == 1

    def test_tie_has_no_winner(self):
        assert range_winner(ScoreMatrix(((1, 1), (2, 0)))).winner is None

    def test_zero_one_scores_match_approval_definition(self):
        rng = random.Random(5)
        for _ in range(200):
            m, n = rng.randint(1, 5), rng.randint(1, 8)
            scores = ScoreMatrix(
                tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(m))
            )
            approvals = [sum(row) for row in scores.scores]
            best = max(approvals)
            expected = None
            if approvals.count(best) == 1:
                expected = approvals.index(best) + 1
            assert range_winner(scores).winner == expected


class TestPairwiseAdvantage:
    def test_worked_profile(self, worked_profile):
        assert pairwise_advantage(worked_profile, 1, 2) == 2

    def test_advantages_sum_to_n(self, worked_profile):
        n = worked_profile.n
        for a in range(1, 5):
            for b in range(1, 5):
                if a != b:
                    assert (
                        pairwise_advantage(worked_profile, a, b)
                        + pairwise_advantage(worked_profile, b, a)
                        == n
                    )

    def test_same_candidate_rejected(self, worked_profile):
        with pytest.raises(ValueError):
            pairwise_advantage(worked_profile, 2, 2)

    @pytest.mark.parametrize("a, b", [(0, 1), (1, 5), (-1, 2)])
    def test_unknown_candidate_rejected(self, worked_profile, a, b):
        # the position table would read index -1 for candidate 0
        with pytest.raises(ValueError):
            pairwise_advantage(worked_profile, a, b)
        with pytest.raises(ValueError):
            maximin_phi(worked_profile, a if a != 1 else b)

    def test_single_voter(self):
        profile = StrictProfile(((2, 1, 3),))
        assert pairwise_advantage(profile, 2, 1) == 1
        assert pairwise_advantage(profile, 1, 2) == 0


class TestCondorcet:
    def test_worked_profile(self, worked_profile):
        assert condorcet_winner(worked_profile).winner == 1

    def test_cycle_has_no_winner(self):
        profile = StrictProfile(((1, 2, 3), (2, 3, 1), (3, 1, 2)))
        assert condorcet_winner(profile).winner is None

    def test_single_voter_top_wins(self):
        profile = StrictProfile(((3, 1, 2),))
        assert condorcet_winner(profile).winner == 3

    def test_single_candidate(self):
        assert condorcet_winner(StrictProfile(((1,),))).winner == 1


class TestPlurality:
    def test_worked_profile(self, worked_profile):
        outcome = plurality_winner(worked_profile)
        assert outcome.tally == (2, 0, 0, 1)
        assert outcome.winner == 1

    def test_even_split_has_no_winner(self):
        profile = StrictProfile(((1, 2), (2, 1)))
        assert plurality_winner(profile).winner is None

    def test_single_candidate(self):
        assert plurality_winner(StrictProfile(((1,), (1,)))).winner == 1


class TestMaximin:
    def test_worked_profile_phi(self, worked_profile):
        assert [maximin_phi(worked_profile, c) for c in range(1, 5)] == [2, 1, 1, 1]

    def test_phi_rejects_single_candidate(self):
        with pytest.raises(ValueError):
            maximin_phi(StrictProfile(((1,),)), 1)

    def test_single_voter(self):
        profile = StrictProfile(((2, 1, 3),))
        assert maximin_phi(profile, 2) == 1
        assert maximin_phi(profile, 3) == 0

    def test_worked_profile_winner(self, worked_profile):
        assert maximin_winner(worked_profile).winner == 1

    def test_all_equal_phi_no_winner(self):
        profile = StrictProfile(((1, 2), (2, 1)))
        assert maximin_winner(profile).winner is None

    def test_single_candidate(self):
        assert maximin_winner(StrictProfile(((1,),))).winner == 1

    @given(profiles(max_m=2))
    def test_two_candidates_odd_voters_condorcet_consistency(self, profile):
        if profile.m != 2 or profile.n % 2 == 0:
            return
        assert maximin_winner(profile).winner == condorcet_winner(profile).winner


class TestBucklin:
    def test_rank_set(self, worked_profile):
        assert bucklin_rank_set(worked_profile, 2, 2) == frozenset({1, 3})
        assert bucklin_rank_set(worked_profile, 1, 4) == frozenset({1, 2, 3, 4})
        assert bucklin_rank_set(worked_profile, 3, 1) == frozenset({4})

    def test_rank_set_depth_out_of_range(self, worked_profile):
        with pytest.raises(ValueError):
            bucklin_rank_set(worked_profile, 1, 5)

    @pytest.mark.parametrize("voter", [0, -1, 4])
    def test_rank_set_rejects_unknown_voter(self, worked_profile, voter):
        with pytest.raises(ValueError, match="out of range 1..3"):
            bucklin_rank_set(worked_profile, voter, 2)

    def test_worked_profile_psi(self, worked_profile):
        assert [bucklin_psi(worked_profile, c) for c in range(1, 5)] == [1, 3, 2, 4]

    @pytest.mark.parametrize("c", [0, 5])
    def test_psi_rejects_unknown_candidate(self, worked_profile, c):
        with pytest.raises(ValueError):
            bucklin_psi(worked_profile, c)

    def test_single_voter_psi_is_position(self):
        profile = StrictProfile(((3, 1, 2),))
        assert [bucklin_psi(profile, c) for c in (3, 1, 2)] == [1, 2, 3]

    def test_worked_profile_winner(self, worked_profile):
        assert bucklin_winner(worked_profile).winner == 1

    def test_tied_minimum_no_winner(self):
        profile = StrictProfile(((1, 2, 3), (2, 1, 3)))
        # both 1 and 2 reach a majority first at depth 2
        assert bucklin_winner(profile).winner is None

    @given(profiles())
    @settings(max_examples=60)
    def test_psi_matches_direct_recount(self, profile):
        for c in range(1, profile.m + 1):
            by_rank_sets = None
            for k in range(1, profile.m + 1):
                count = sum(
                    1
                    for v in range(1, profile.n + 1)
                    if c in bucklin_rank_set(profile, v, k)
                )
                if 2 * count > profile.n:
                    by_rank_sets = k
                    break
            assert bucklin_psi(profile, c) == by_rank_sets


@given(profiles(max_m=6))
@settings(max_examples=60)
def test_advantage_tallies_match_pairwise_definition(profile):
    # condorcet_winner and maximin_winner read one advantage matrix; each
    # tally must equal its definition through pairwise_advantage
    m, n = profile.m, profile.n
    rivals = [[d for d in range(1, m + 1) if d != c] for c in range(1, m + 1)]
    beats = tuple(
        sum(2 * pairwise_advantage(profile, c, d) > n for d in rivals[c - 1])
        for c in range(1, m + 1)
    )
    assert condorcet_winner(profile).tally == beats
    if m > 1:
        assert maximin_winner(profile).tally == tuple(
            maximin_phi(profile, c) for c in range(1, m + 1)
        )
        for c, others in enumerate(rivals, start=1):
            assert maximin_phi(profile, c) == min(
                sum(r.index(c) < r.index(d) for r in profile.rankings) for d in others
            )


@pytest.mark.parametrize("rule", ["condorcet", "plurality", "maximin", "bucklin"])
@given(data=st.data())
@settings(max_examples=40)
def test_unique_winner_strictly_dominates(rule, data):
    profile = data.draw(profiles())
    outcome = winner_for_rule(rule, Election.from_rankings(profile.rankings))
    if outcome.winner is None:
        return
    winner_value = outcome.tally[outcome.winner - 1]
    for c, value in enumerate(outcome.tally, start=1):
        if c == outcome.winner:
            continue
        if outcome.direction == "max":
            assert winner_value > value
        else:
            assert winner_value < value


class TestWinnerAfterDeletion:
    def test_voter_restriction(self, worked_election):
        assert winner_after_deletion(worked_election, "plurality", (1, 2), "delete-voters") == 1

    def test_candidate_restriction_reports_original_index(self, worked_election):
        # keeping {3, 4}: v3 prefers 4 over 3, the others prefer 3 over 4
        assert (
            winner_after_deletion(worked_election, "condorcet", (3, 4), "delete-candidates")
            == 3
        )

    def test_empty_voters_no_winner(self, worked_election):
        assert winner_after_deletion(worked_election, "condorcet", (), "delete-voters") is None

    def test_empty_voters_single_candidate_wins(self):
        election = Election.from_rankings(((1,),))
        assert winner_after_deletion(election, "bucklin", (), "delete-voters") == 1

    def test_range_requires_scores(self, worked_election):
        with pytest.raises(TypeError):
            winner_for_rule("range", worked_election)
