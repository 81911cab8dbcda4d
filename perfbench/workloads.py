"""The instance sets of the three workloads, presented by seed.

Each instance is a control question plus the preference text the library
reads. The benchmark keeps the ballots it wrote (one ranking per order
line, with its multiplicity) so the checks never depend on the library's
parser.

A workload's instance set is fixed: its ballots are drawn once from a
seed that belongs to the workload. The run's seed draws the candidates'
names, so each seed gives the library different text for the same
questions. Fresh ballots per seed were tried first: the search effort of
one instance then varies several fold between seeds, and a pass's time
with it. Relabeling the candidates and shuffling the order lines by seed
was tried next: branch and bound then still took 0.1 s or 0.7 s on one
maximin model and 0.15 s or 0.5 s on one bucklin model, by seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

from checks import tally_winner


@dataclass(frozen=True)
class Instance:
    id: str
    rule: str
    action: str
    mode: str
    target: int
    m: int
    rankings: tuple[tuple[int, ...], ...]
    counts: tuple[int, ...]
    export: bool = False
    planted: Optional[int] = None
    names: Optional[tuple[str, ...]] = None

    @property
    def n(self) -> int:
        return sum(self.counts)

    def text(self) -> str:
        """The instance as a PrefLib file with '#' metadata and multiplicities."""
        lines = [f"# NUMBER ALTERNATIVES: {self.m}", f"# NUMBER VOTERS: {self.n}"]
        names = self.names or tuple(f"c{c}" for c in range(1, self.m + 1))
        lines += [f"# ALTERNATIVE NAME {c}: {name}" for c, name in enumerate(names, start=1)]
        for count, ranking in zip(self.counts, self.rankings):
            lines.append(f"{count}: " + ",".join(map(str, ranking)))
        return "\n".join(lines) + "\n"


def _winner(rule, rankings, counts, m):
    return tally_winner(rule, rankings, counts, range(1, m + 1))


def _mallows(rng, m, k, phi):
    """k distinct rankings drawn by repeated insertion around a random
    reference order; small phi keeps them close to the reference."""
    reference = rng.sample(range(1, m + 1), m)
    seen = {}
    while len(seen) < k:
        ranking = []
        for i, c in enumerate(reference):
            weights = [phi ** (i - j) for j in range(i + 1)]
            ranking.insert(rng.choices(range(i + 1), weights)[0], c)
        seen.setdefault(tuple(ranking), None)
    return tuple(seen)


def _split(rng, n, k):
    """A random composition of n into k positive multiplicities."""
    cuts = sorted(rng.sample(range(1, n), k - 1))
    return tuple(b - a for a, b in zip((0,) + tuple(cuts), tuple(cuts) + (n,)))


def _uniform(rng, n, m):
    return tuple(tuple(rng.sample(range(1, m + 1), m)) for _ in range(n))


def _beaten_everywhere(rankings, target, rival):
    """Swap `rival` above `target` on every ballot where it is below."""
    out = []
    for ranking in rankings:
        r = list(ranking)
        a, b = r.index(rival), r.index(target)
        if a > b:
            r[a], r[b] = r[b], r[a]
        out.append(tuple(r))
    return tuple(out)


def _typed_profile(rng, rule, n, m=5, k=40, phi=0.5):
    """A profile of k distinct rankings with multiplicities, redrawn until
    `rule` has a unique winner, which is returned with it."""
    while True:
        rankings = _mallows(rng, m, k, phi)
        counts = _split(rng, n, k)
        winner = _winner(rule, rankings, counts, m)
        if winner is not None:
            return rankings, counts, winner


def _clear_weakest(rule, rankings, counts, winner) -> bool:
    """Whether the winner's smallest lead over a rival is at most half the
    next smallest. With two near-equal leads the destructive search
    explodes: a condorcet profile with leads of 1 412 and 1 544 votes at
    n=4 000 ran out of a 20 s limit after 97 nodes."""
    leads = []
    for rival in range(1, len(rankings[0]) + 1):
        if rival != winner:
            if rule == "range":
                lead = sum(w * (r.index(rival) - r.index(winner)) for r, w in zip(rankings, counts))
            else:
                lead = sum(w if r.index(winner) < r.index(rival) else -w for r, w in zip(rankings, counts))
            leads.append(lead)
    leads.sort()
    return 2 * leads[0] <= leads[1]


def voters_large(rng) -> list[Instance]:
    """Voter deletion at n = 3 000 .. 10 000 with m = 5, ballots from 40
    distinct rankings written with multiplicities. Four condorcet
    constructive models of the same size take the middle ranks, so the
    median latency sits inside one family rather than in a gap between two.
    Bucklin destructive at n=1 000 was dropped: relabeling its candidates
    moved one solve between 1.6 s and 10 s."""
    out = []

    def add(name, rule, mode, n, export=False, beaten=False):
        rankings, counts, winner = _typed_profile(rng, rule, n)
        while mode == "destructive" and not _clear_weakest(rule, rankings, counts, winner):
            rankings, counts, winner = _typed_profile(rng, rule, n)
        if beaten:
            target, rival = rng.sample([c for c in range(1, 6) if c != winner], 2)
            rankings = _beaten_everywhere(rankings, target, rival)
        elif mode == "constructive":
            target = rng.choice([c for c in range(1, 6) if c != winner])
        else:
            target = winner
        out.append(Instance(name, rule, "delete-voters", mode, target, 5, rankings, counts, export=export))

    add("maximin-c-n8000-infeasible", "maximin", "constructive", 8_000, export=True, beaten=True)
    add("range-c-n3000", "range", "constructive", 3_000)
    for i in range(4):
        add(f"condorcet-c-n5000-{i}", "condorcet", "constructive", 5_000)
    add("condorcet-c-n10000", "condorcet", "constructive", 10_000)
    add("condorcet-d-n4000", "condorcet", "destructive", 4_000)
    add("range-d-n3000", "range", "destructive", 3_000)
    return out


def _random_with_winner(rng, rule, n, m):
    while True:
        rankings = _uniform(rng, n, m)
        winner = _winner(rule, rankings, (1,) * n, m)
        if winner is not None:
            return rankings, winner


def search_deep(rng) -> list[Instance]:
    """Small models with long searches, one voter per order line except for
    the typed bucklin profile. Fifteen maximin destructive models take the
    middle ranks, four quick Infeasible proofs sit below them and four
    larger searches above, so the median latency sits inside one family
    whose members lie close together."""
    out = []
    for i in range(2):
        target, rival = rng.sample(range(1, 6), 2)
        rankings = _beaten_everywhere(_uniform(rng, 20, 5), target, rival)
        out.append(Instance(f"maximin-c-n20-infeasible-{i}", "maximin", "delete-voters", "constructive", target, 5, rankings, (1,) * 20))
    for i in range(2):
        target, rival = rng.sample(range(1, 6), 2)
        rankings = _beaten_everywhere(_uniform(rng, 40, 5), target, rival)
        out.append(Instance(f"bucklin-c-n40-infeasible-{i}", "bucklin", "delete-voters", "constructive", target, 5, rankings, (1,) * 40, export=True))
    for i in range(15):
        rankings, winner = _random_with_winner(rng, "maximin", 20, 5)
        out.append(Instance(f"maximin-d-n20-{i}", "maximin", "delete-voters", "destructive", winner, 5, rankings, (1,) * 20, export=True))
    for i in range(2):
        rankings, winner = _random_with_winner(rng, "plurality", 30, 10)
        loser = rng.choice([c for c in range(1, 11) if c != winner])
        out.append(Instance(f"plurality-c-m10-{i}", "plurality", "delete-candidates", "constructive", loser, 10, rankings, (1,) * 30))
    rankings, winner = _random_with_winner(rng, "bucklin", 16, 8)
    loser = rng.choice([c for c in range(1, 9) if c != winner])
    out.append(Instance("bucklin-cand-c-m8", "bucklin", "delete-candidates", "constructive", loser, 8, rankings, (1,) * 16))
    rankings, counts, winner = _typed_profile(rng, "bucklin", 300)
    out.append(Instance("bucklin-d-n300", "bucklin", "delete-voters", "destructive", winner, 5, rankings, counts, export=True))
    return out


def _planted_bucklin(rng, m, n=5):
    """Candidate 1 sits fifth on a strict majority of ballots, right below
    the spoilers 2 and 3, as in acceptance criterion 8b. Unlike that
    generator, this one makes the planted optimum m - 2 hold: the two
    candidates heading each majority ballot are used on no other ballot's
    top, and the minority ballots start with three candidates from the
    rest. Once the spoilers are gone candidate 1 has a majority at depth 3
    and no rival has one there; while one spoiler stays, it is above
    candidate 1 on every majority ballot."""
    majority = n // 2 + 1
    others = rng.sample(range(4, m + 1), m - 3)
    heads, pool = others[: 2 * majority], others[2 * majority :]
    profile = []
    for j in range(n):
        if j < majority:
            top = heads[2 * j : 2 * j + 2]
            rest = [c for c in others if c not in top]
            rng.shuffle(rest)
            ranking = top + [2, 3, 1] + rest
        else:
            top = rng.sample(pool, 3)
            rest = [c for c in others if c not in top]
            rng.shuffle(rest)
            ranking = top + rest
            for spoiler in (2, 3):
                ranking.insert(rng.randint(0, len(ranking)), spoiler)
            ranking.insert(rng.randint(m // 2, m - 1), 1)
        profile.append(tuple(ranking))
    return tuple(profile)


def candidates_wide(rng) -> list[Instance]:
    """Large candidate-deletion models over few voters, each also exported.
    Three destructive m=30 draws and the constructive m=20 model take the
    middle ranks, so the median latency sits inside one family rather than
    between two instances."""
    out = []

    def add_planted(name, mode, m):
        rankings = _planted_bucklin(rng, m)
        # The planted spoilers beat candidate 1, so destructively nothing
        # needs deleting; the tally confirms that before it is relied on.
        if _winner("bucklin", rankings, (1,) * 5, m) == 1:
            raise RuntimeError("planted profile lets candidate 1 win")
        planted = m - 2 if mode == "constructive" else m
        out.append(Instance(name, "bucklin", "delete-candidates", mode, 1, m, rankings, (1,) * 5, export=True, planted=planted))

    for mode, m in (("constructive", 20), ("constructive", 30), ("destructive", 30), ("destructive", 40)):
        add_planted(f"bucklin-cand-{mode[0]}-m{m}", mode, m)
    rankings, winner = _random_with_winner(rng, "plurality", 10, 40)
    loser = rng.choice([c for c in range(1, 41) if c != winner])
    out.append(Instance("plurality-c-m40", "plurality", "delete-candidates", "constructive", loser, 40, rankings, (1,) * 10, export=True))
    for i in (1, 2):
        add_planted(f"bucklin-cand-d-m30-{i}", "destructive", 30)
    return out


WARM_UP = Instance(
    "warm-up", "bucklin", "delete-voters", "destructive", 1, 4,
    ((1, 2, 3, 4), (1, 3, 2, 4), (4, 3, 2, 1)), (1, 1, 1), export=True,
)


def _export_fault() -> Instance:
    """The same ballots whatever the seed: export_mps runs the ten-character
    column name y_10_10_10 into the row field, HiGHS cannot read the file,
    and so this answer fails in every run."""
    rankings, winner = _random_with_winner(random.Random("mps-name-width"), "bucklin", 10, 10)
    target = 1 if winner != 1 else 2
    return Instance("bucklin-cand-c-m10-n10-export", "bucklin", "delete-candidates", "constructive", target, 10, rankings, (1,) * 10, export=True)


def _present(inst: Instance, rng) -> Instance:
    """The same question under seed-drawn candidate names."""
    return replace(inst, names=tuple(f"c{c}-{rng.randrange(16**6):06x}" for c in range(1, inst.m + 1)))


MAKERS = {"voters-large": voters_large, "search-deep": search_deep, "candidates-wide": candidates_wide}
WORKLOADS = tuple(MAKERS)


def build(workload: str, seed: int) -> list[Instance]:
    fixed = MAKERS[workload](random.Random(f"{workload}:instances"))
    rng = random.Random(f"{workload}:{seed}")
    # Labels and ballot order stay as drawn: with either changed, one
    # planted m=20 solve took 1.6 s or 3.3 s and one m=30 solve 3 s, 57 s
    # or 160 s (see the README).
    out = [_present(inst, rng) for inst in fixed]
    return out + [_export_fault()] if workload == "candidates-wide" else out
