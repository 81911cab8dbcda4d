"""Domain types for elections, preference profiles, and control problems.

Candidates and voters are identified positionally with 1-based indices;
display names are carried only for input/output. All types are immutable
after construction and every operation is a pure function, so values can
be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Union

RULES = ("range", "condorcet", "plurality", "maximin", "bucklin")
ACTIONS = ("delete-voters", "delete-candidates")
MODES = ("constructive", "destructive")

#: (rule, action) pairs that have a control encoder.
SUPPORTED_CONTROL_PAIRS = frozenset(
    {
        ("range", "delete-voters"),
        ("condorcet", "delete-voters"),
        ("plurality", "delete-candidates"),
        ("maximin", "delete-voters"),
        ("bucklin", "delete-voters"),
        ("bucklin", "delete-candidates"),
    }
)


@dataclass(frozen=True)
class Candidate:
    """A candidate, identified by its 1-based position."""

    index: int
    name: str


@dataclass(frozen=True)
class Voter:
    """A voter, identified by its 1-based position."""

    index: int


@dataclass(frozen=True)
class StrictProfile:
    """One complete strict ranking per voter, most preferred first."""

    rankings: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.rankings:
            raise ValueError("profile needs at least one voter")
        m = len(self.rankings[0])
        expected = set(range(1, m + 1))
        for v, ranking in enumerate(self.rankings, start=1):
            if set(ranking) != expected or len(ranking) != m:
                raise ValueError(f"ranking of voter {v} is not a permutation of 1..{m}")

    @property
    def m(self) -> int:
        return len(self.rankings[0])

    @property
    def n(self) -> int:
        return len(self.rankings)


@dataclass(frozen=True)
class TiedProfile:
    """Per voter an ordered tuple of disjoint tie groups covering all candidates.

    Elections never hold one: a file with ties is read as scores
    (`preflib.expand_scores`, through `preflib.tied_to_scores`).
    """

    groups: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        if not self.groups:
            raise ValueError("profile needs at least one voter")
        m = sum(len(g) for g in self.groups[0])
        expected = set(range(1, m + 1))
        for v, voter_groups in enumerate(self.groups, start=1):
            seen = [c for group in voter_groups for c in group]
            if not voter_groups or any(not group for group in voter_groups):
                raise ValueError(f"voter {v} has an empty tie group")
            if set(seen) != expected or len(seen) != m:
                raise ValueError(f"tie groups of voter {v} do not partition 1..{m}")

    @property
    def m(self) -> int:
        return sum(len(g) for g in self.groups[0])

    @property
    def n(self) -> int:
        return len(self.groups)


@dataclass(frozen=True)
class ScoreMatrix:
    """m x n matrix of non-negative integer scores; entry (i, j) is the number
    of points voter j gives candidate i."""

    scores: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.scores or not self.scores[0]:
            raise ValueError("score matrix must be non-empty")
        n = len(self.scores[0])
        for row in self.scores:
            if len(row) != n:
                raise ValueError("score matrix rows have unequal lengths")
            if any(s < 0 for s in row):
                raise ValueError("scores must be non-negative")

    @property
    def m(self) -> int:
        return len(self.scores)

    @property
    def n(self) -> int:
        return len(self.scores[0])


Preferences = Union[StrictProfile, ScoreMatrix]


@dataclass(frozen=True)
class Election:
    """Candidates, voters, and exactly one preference payload: strict
    rankings or scores."""

    candidates: tuple[Candidate, ...]
    voters: tuple[Voter, ...]
    preferences: Preferences

    def __post_init__(self):
        m, n = len(self.candidates), len(self.voters)
        if m < 1 or n < 1:
            raise ValueError("an election needs at least one candidate and one voter")
        if [c.index for c in self.candidates] != list(range(1, m + 1)):
            raise ValueError("candidate indices must be contiguous 1..m")
        if [v.index for v in self.voters] != list(range(1, n + 1)):
            raise ValueError("voter indices must be contiguous 1..n")
        if not isinstance(self.preferences, (StrictProfile, ScoreMatrix)):
            raise TypeError(
                "preferences must be a StrictProfile or a ScoreMatrix, "
                f"got {type(self.preferences).__name__}"
            )
        if self.preferences.m != m or self.preferences.n != n:
            raise ValueError(
                f"preference payload is {self.preferences.m}x{self.preferences.n}, "
                f"election is {m} candidates x {n} voters"
            )

    @property
    def m(self) -> int:
        return len(self.candidates)

    @property
    def n(self) -> int:
        return len(self.voters)

    def candidate_name(self, index: int) -> str:
        return self.candidates[index - 1].name

    @classmethod
    def from_rankings(cls, rankings, names=None) -> "Election":
        profile = StrictProfile(tuple(tuple(r) for r in rankings))
        return cls(_candidates(profile.m, names), _voters(profile.n), profile)

    @classmethod
    def from_scores(cls, scores, names=None) -> "Election":
        matrix = ScoreMatrix(tuple(tuple(row) for row in scores))
        return cls(_candidates(matrix.m, names), _voters(matrix.n), matrix)


def _candidates(m: int, names=None) -> tuple[Candidate, ...]:
    if names is None:
        names = [f"c{i}" for i in range(1, m + 1)]
    return tuple(Candidate(i, name) for i, name in enumerate(names, start=1))


def _voters(n: int) -> tuple[Voter, ...]:
    return tuple(Voter(j) for j in range(1, n + 1))


@dataclass(frozen=True)
class ControlSpec:
    """What the chair wants: rule, deletion target kind, mode, and the
    distinguished candidate."""

    rule: str
    action: str
    mode: str
    target: int

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}")
        if self.action not in ACTIONS:
            raise ValueError(f"unknown action {self.action!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if (self.rule, self.action) not in SUPPORTED_CONTROL_PAIRS:
            raise ValueError(f"unsupported control pair ({self.rule}, {self.action})")
        if self.target < 1:
            raise ValueError("target must be a positive candidate index")


def swap_index(i: int, a: int, b: int) -> int:
    """Apply the transposition (a b) to index i."""
    if i == a:
        return b
    if i == b:
        return a
    return i


def normalize_target(election: Election, spec: ControlSpec) -> tuple[Election, ControlSpec]:
    """Relabel candidates by the transposition (1 target) so the distinguished
    candidate has index 1. Applying the same swap again restores the original,
    so callers can map reported indices back with `swap_index`."""
    t = spec.target
    if t > election.m:
        raise ValueError(f"target {t} is not a candidate index (m={election.m})")
    if t == 1:
        return election, spec
    candidates = list(election.candidates)
    candidates[0], candidates[t - 1] = (
        Candidate(1, candidates[t - 1].name),
        Candidate(t, candidates[0].name),
    )
    prefs = election.preferences
    if isinstance(prefs, StrictProfile):
        new_prefs: Preferences = StrictProfile(
            tuple(tuple(swap_index(c, 1, t) for c in r) for r in prefs.rankings)
        )
    else:
        rows = list(prefs.scores)
        rows[0], rows[t - 1] = rows[t - 1], rows[0]
        new_prefs = ScoreMatrix(tuple(rows))
    return (
        Election(tuple(candidates), election.voters, new_prefs),
        replace(spec, target=1),
    )


def restrict_to_voters(election: Election, keep: Iterable[int]) -> Election:
    """Election over the kept voters only; the candidate set is unchanged."""
    kept = sorted(set(keep))
    if not kept:
        raise ValueError("cannot restrict to an empty voter set")
    if kept[0] < 1 or kept[-1] > election.n:
        raise ValueError("keep set contains unknown voter indices")
    pick = [j - 1 for j in kept]
    prefs = election.preferences
    if isinstance(prefs, StrictProfile):
        new_prefs: Preferences = StrictProfile(tuple(prefs.rankings[j] for j in pick))
    else:
        new_prefs = ScoreMatrix(tuple(tuple(row[j] for j in pick) for row in prefs.scores))
    return Election(election.candidates, _voters(len(kept)), new_prefs)


def restrict_to_candidates(election: Election, keep: Iterable[int]) -> Election:
    """Election over the kept candidates; rankings keep their relative order
    and the kept candidates are relabeled 1..m' in ascending original index."""
    kept = sorted(set(keep))
    if not kept:
        raise ValueError("cannot restrict to an empty candidate set")
    if kept[0] < 1 or kept[-1] > election.m:
        raise ValueError("keep set contains unknown candidate indices")
    relabel = {orig: new for new, orig in enumerate(kept, start=1)}
    candidates = tuple(
        Candidate(relabel[c.index], c.name) for c in election.candidates if c.index in relabel
    )
    prefs = election.preferences
    if isinstance(prefs, StrictProfile):
        new_prefs: Preferences = StrictProfile(
            tuple(tuple(relabel[c] for c in r if c in relabel) for r in prefs.rankings)
        )
    else:
        new_prefs = ScoreMatrix(tuple(prefs.scores[c - 1] for c in kept))
    return Election(candidates, election.voters, new_prefs)
