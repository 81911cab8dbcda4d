"""Winner determination for the five supported voting rules.

All rules use strict dominance with the unique-winner condition: a winner
must strictly beat every rival in the rule's tally, so ties produce no
winner. With a single candidate every rule declares it the winner, because
the rival quantification is empty. Majority thresholds are evaluated in
exact integer arithmetic (2*count > n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Election, ScoreMatrix, StrictProfile, restrict_to_candidates, restrict_to_voters


@dataclass(frozen=True)
class WinnerOutcome:
    """Winner (if any) plus the full per-candidate tally for diagnostics.

    `direction` states how tallies compare: "max" means larger is better,
    "min" means smaller is better (Bucklin).
    """

    winner: Optional[int]
    tally: tuple
    direction: str = "max"


def _unique_extreme(tally, direction) -> Optional[int]:
    best = max(tally) if direction == "max" else min(tally)
    winners = [i for i, t in enumerate(tally, start=1) if t == best]
    return winners[0] if len(winners) == 1 else None


def rule_payload(rule: str, election: Election):
    """The election's preferences, checked to be the payload `rule` reads:
    a score matrix for range, a strict profile for every other rule."""
    wanted = ScoreMatrix if rule == "range" else StrictProfile
    if not isinstance(election.preferences, wanted):
        raise TypeError(f"the {rule} rule needs a {wanted.__name__} payload")
    return election.preferences


def range_winner(scores: ScoreMatrix) -> WinnerOutcome:
    """Candidate with strictly the largest total score, if unique."""
    totals = tuple(sum(row) for row in scores.scores)
    return WinnerOutcome(_unique_extreme(totals, "max"), totals)


def pairwise_advantage(profile: StrictProfile, a: int, b: int) -> int:
    """Number of voters preferring candidate a to candidate b."""
    if a == b or not (1 <= a <= profile.m and 1 <= b <= profile.m):
        raise ValueError(f"advantage needs two distinct candidates of 1..{profile.m}")
    record = profile.ballots
    return int(record.counts[record.places[:, a - 1] < record.places[:, b - 1]].sum())


def _advantages(profile: StrictProfile) -> list[list[int]]:
    """m x m matrix; entry (a - 1, b - 1) is the number of voters preferring
    candidate a to candidate b (0 on the diagonal), counted once per distinct
    ballot and weighted by its count."""
    places, counts = profile.ballots.places, profile.ballots.counts
    prefers = places[:, :, None] < places[:, None, :]
    return (counts @ prefers.reshape(len(counts), -1)).reshape(profile.m, profile.m).tolist()


def condorcet_winner(profile: StrictProfile) -> WinnerOutcome:
    """Candidate beating every rival in pairwise majority, if one exists.

    The dominance relation may contain cycles, in which case there is no
    winner. The tally is the number of rivals each candidate strictly beats:
    the winner is exactly the candidate beating all m-1.
    """
    beats = tuple(sum(2 * a > profile.n for a in row) for row in _advantages(profile))
    winner = next((c for c, b in enumerate(beats, start=1) if b == profile.m - 1), None)
    return WinnerOutcome(winner, beats)


def plurality_winner(profile: StrictProfile) -> WinnerOutcome:
    """Candidate with strictly the most top preferences, if unique."""
    record = profile.ballots
    tops = [0] * profile.m
    for r, count in zip(record.rankings, record.counts.tolist()):
        tops[r[0] - 1] += count
    tops = tuple(tops)
    return WinnerOutcome(_unique_extreme(tops, "max"), tops)


def maximin_phi(profile: StrictProfile, c: int) -> int:
    """Minimum pairwise advantage of candidate c over all rivals."""
    if profile.m == 1:
        raise ValueError("the minimum advantage is undefined with a single candidate")
    return min(pairwise_advantage(profile, c, d) for d in range(1, profile.m + 1) if d != c)


def maximin_winner(profile: StrictProfile) -> WinnerOutcome:
    """Candidate whose minimum advantage is strictly the largest, if unique."""
    if profile.m == 1:
        return WinnerOutcome(1, (0,))
    phis = tuple(min(row[:c] + row[c + 1 :]) for c, row in enumerate(_advantages(profile)))
    return WinnerOutcome(_unique_extreme(phis, "max"), phis)


def bucklin_rank_set(profile: StrictProfile, voter: int, k: int) -> frozenset[int]:
    """Candidates ranked among the top k positions by the given voter."""
    if not 1 <= voter <= profile.n:
        raise ValueError(f"voter {voter} out of range 1..{profile.n}")
    if not 1 <= k <= profile.m:
        raise ValueError(f"depth {k} out of range 1..{profile.m}")
    return frozenset(profile.rankings[voter - 1][:k])


def _bucklin_scores(profile: StrictProfile) -> list[int]:
    """Every candidate's `bucklin_psi`, tallied once per distinct ballot."""
    m, record = profile.m, profile.ballots
    # at[c - 1, p]: the voters placing candidate c at 0-based place p.
    at = np.zeros((m, m), dtype=np.intp)
    np.add.at(at, (np.arange(m), record.places), record.counts[:, None])
    reached = 2 * at.cumsum(axis=1) > profile.n
    return np.where(reached.any(axis=1), reached.argmax(axis=1) + 1, m + 1).tolist()


def bucklin_psi(profile: StrictProfile, c: int) -> int:
    """Least depth k at which c is in the top k of a strict majority.

    Returns the sentinel m+1 when no depth qualifies, which cannot happen
    for complete strict profiles with at least one voter.
    """
    if not 1 <= c <= profile.m:
        raise ValueError(f"candidate {c} out of range 1..{profile.m}")
    return _bucklin_scores(profile)[c - 1]


def bucklin_winner(profile: StrictProfile) -> WinnerOutcome:
    """Candidate whose Bucklin score is strictly the smallest, if unique."""
    psis = tuple(_bucklin_scores(profile))
    return WinnerOutcome(_unique_extreme(psis, "min"), psis, direction="min")


def winner_for_rule(rule: str, election: Election) -> WinnerOutcome:
    """Dispatch winner determination on an election whose payload is the
    one `rule` reads (`rule_payload`)."""
    prefs = rule_payload(rule, election)
    if rule == "range":
        return range_winner(prefs)
    if rule == "condorcet":
        return condorcet_winner(prefs)
    if rule == "plurality":
        return plurality_winner(prefs)
    if rule == "maximin":
        return maximin_winner(prefs)
    if rule == "bucklin":
        return bucklin_winner(prefs)
    raise ValueError(f"unknown rule {rule!r}")


def winner_after_deletion(election: Election, rule: str, kept, action: str) -> Optional[int]:
    """Winner of the election restricted to the kept voters or candidates,
    reported in the original candidate indices.

    An empty kept voter set means nobody votes: no candidate strictly beats
    anything, so there is no winner unless there are no rivals at all (m=1,
    where every winner condition holds vacuously).
    """
    kept = sorted(set(kept))
    if action == "delete-voters":
        if not kept:
            return 1 if election.m == 1 else None
        restricted = restrict_to_voters(election, kept)
        return winner_for_rule(rule, restricted).winner
    restricted = restrict_to_candidates(election, kept)
    winner = winner_for_rule(rule, restricted).winner
    if winner is None:
        return None
    return kept[winner - 1]
