import random

import pytest
from hypothesis import given, strategies as st

from ballotcontrol import (
    PrefLibParseError,
    ScoreMatrix,
    StrictProfile,
    TiedProfile,
    expand_scores,
    expand_voters,
    parse_preflib,
    serialize_preflib,
    tied_to_scores,
)

LEGACY_SAMPLE = "3\n1,A\n2,B\n3,C\n2,2,2\n1,1,2,3\n1,3,{1,2}\n"

MODERN_SAMPLE = """\
# FILE NAME: sample.toc
# TITLE: Sample
# DATA TYPE: toc
# NUMBER ALTERNATIVES: 3
# NUMBER VOTERS: 3
# NUMBER UNIQUE ORDERS: 2
# ALTERNATIVE NAME 1: A
# ALTERNATIVE NAME 2: B
# ALTERNATIVE NAME 3: C
2: 1,2,3
1: 3,{1,2}
"""


class TestParse:
    def test_legacy_sample(self):
        doc = parse_preflib(LEGACY_SAMPLE)
        assert doc.m == 3
        assert doc.alternatives == ((1, "A"), (2, "B"), (3, "C"))
        assert len(doc.order_lines) == 2
        assert doc.order_lines[0] == (1, ((1,), (2,), (3,)))
        assert doc.order_lines[1] == (1, ((3,), (1, 2)))
        assert not doc.is_strict

    def test_modern_sample(self):
        doc = parse_preflib(MODERN_SAMPLE)
        assert doc.m == 3
        assert doc.num_voters == 3
        assert doc.order_lines[0] == (2, ((1,), (2,), (3,)))
        assert dict(doc.metadata)["TITLE"] == "Sample"

    def test_bytes_accepted(self):
        assert parse_preflib(LEGACY_SAMPLE.encode()).m == 3

    def test_strict_detection(self):
        doc = parse_preflib("2\n1,A\n2,B\n2,2,1\n2,1,2\n")
        assert doc.is_strict

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(PrefLibParseError):
            parse_preflib("2\n1,A\n2,B\n1,1,1\n0,1,2\n")

    def test_incomplete_order_rejected(self):
        with pytest.raises(PrefLibParseError):
            parse_preflib("3\n1,A\n2,B\n3,C\n1,1,1\n1,1,2\n")

    def test_out_of_range_index_rejected(self):
        with pytest.raises(PrefLibParseError):
            parse_preflib("2\n1,A\n2,B\n1,1,1\n1,1,3\n")

    def test_malformed_header_rejected(self):
        with pytest.raises(PrefLibParseError):
            parse_preflib("2\n1,A\n2,B\nnot-a-count\n1,1,2\n")

    def test_count_mismatch_rejected(self):
        with pytest.raises(PrefLibParseError):
            parse_preflib("2\n1,A\n2,B\n5,5,1\n1,1,2\n")

    def test_empty_input_rejected(self):
        with pytest.raises(PrefLibParseError):
            parse_preflib("\n\n")


class TestRoundTrip:
    def test_legacy_round_trip(self):
        doc = parse_preflib(LEGACY_SAMPLE)
        text = serialize_preflib(doc)
        again = parse_preflib(text)
        assert again.alternatives == doc.alternatives
        assert again.order_lines == doc.order_lines

    def test_modern_serializes_to_legacy(self):
        doc = parse_preflib(MODERN_SAMPLE)
        again = parse_preflib(serialize_preflib(doc))
        assert again.order_lines == doc.order_lines

    @given(st.integers(0, 10_000))
    def test_random_round_trip(self, seed):
        rng = random.Random(seed)
        m = rng.randint(1, 5)
        lines = []
        for _ in range(rng.randint(1, 4)):
            candidates = list(range(1, m + 1))
            rng.shuffle(candidates)
            groups = []
            while candidates:
                size = rng.randint(1, len(candidates))
                groups.append(tuple(sorted(candidates[:size])))
                candidates = candidates[size:]
            lines.append((rng.randint(1, 3), tuple(groups)))
        doc = parse_preflib(
            "\n".join(
                [str(m)]
                + [f"{i},c{i}" for i in range(1, m + 1)]
                + [f"{sum(x for x, _ in lines)},{sum(x for x, _ in lines)},{len(lines)}"]
                + [
                    f"{mult}," + ",".join(
                        str(g[0]) if len(g) == 1 else "{" + ",".join(map(str, g)) + "}"
                        for g in order
                    )
                    for mult, order in lines
                ]
            )
        )
        assert parse_preflib(serialize_preflib(doc)).order_lines == doc.order_lines


class TestExpandVoters:
    def test_multiplicity_expansion(self):
        doc = parse_preflib("2\n1,A\n2,B\n3,3,2\n2,1,2\n1,2,1\n")
        election = expand_voters(doc)
        assert election.n == 3
        assert election.preferences.rankings == ((1, 2), (1, 2), (2, 1))

    def test_worked_profile_from_file(self, worked_rankings):
        text = "4\n1,c1\n2,c2\n3,c3\n4,c4\n3,3,3\n" + "\n".join(
            "1," + ",".join(map(str, r)) for r in worked_rankings
        )
        election = expand_voters(parse_preflib(text))
        assert election.preferences == StrictProfile(worked_rankings)

    def test_ties_are_read_as_scores(self):
        doc = parse_preflib(LEGACY_SAMPLE)
        with pytest.raises(ValueError, match="expand_scores"):
            expand_voters(doc)
        election = expand_scores(doc)
        assert isinstance(election.preferences, ScoreMatrix)
        # voter 2 puts C first and ties {A, B} in the second group
        assert election.preferences.scores == ((2, 1), (1, 1), (0, 2))
        assert [c.name for c in election.candidates] == ["A", "B", "C"]

    def test_scores_of_strict_file(self):
        election = expand_scores(parse_preflib("2\n1,A\n2,B\n3,3,2\n2,1,2\n1,2,1\n"))
        assert election.n == 3
        assert election.preferences.scores == ((1, 1, 0), (0, 0, 1))


class TestTiedToScores:
    def test_linear_order(self):
        profile = TiedProfile((((1,), (2,), (3,), (4,)),))
        assert tied_to_scores(profile, 4).scores == ((3,), (2,), (1,), (0,))

    def test_tie_group_shares_score(self):
        profile = TiedProfile((((1, 2), (3,)),))
        assert tied_to_scores(profile, 3).scores == ((2,), (2,), (1,))

    def test_single_candidate(self):
        profile = TiedProfile((((1,),),))
        assert tied_to_scores(profile, 1).scores == ((0,),)

    @given(st.integers(0, 10_000))
    def test_strict_profile_columns_are_borda(self, seed):
        rng = random.Random(seed)
        m, n = rng.randint(1, 6), rng.randint(1, 5)
        rankings = [rng.sample(range(1, m + 1), m) for _ in range(n)]
        profile = TiedProfile(
            tuple(tuple((c,) for c in r) for r in rankings)
        )
        scores = tied_to_scores(profile, m)
        for j in range(n):
            column = [scores.scores[i][j] for i in range(m)]
            assert sorted(column) == list(range(m))
