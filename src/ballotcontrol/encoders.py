"""Integer programs for the six supported control problems.

Each encoder builds a program whose binary decision vector x selects the
voters (or candidates) allowed to stay; the objective maximizes how many
stay. An encoder takes the control mode and builds that mode's program in
one pass: first the rows both modes share, then either the win rows, which
force the distinguished candidate (always index 1 here, see
`normalize_target`) to be the unique winner of the restricted election, or,
in destructive mode, a big-M alternative block
(`add_alternative_block`) of their negations, so the target must instead
fail to win. With a single candidate the target wins vacuously: the
constructive program has no win rows and keeps everyone, the destructive
one gets an unsatisfiable "dest:impossible" row. Infeasibility of a program
means the chair's goal is unreachable.

Constraint tags name the model and the family a row belongs to (e.g.
"pe:win:c3", "dest:alt:c3"); the test-suite locates rows through them.

Auxiliary variable meanings:

* PE: z_{i}_{j} = 1 iff candidate i is voter j's favourite among the kept
  candidates.
* MME: z_{i}_{k} = 1 marks an advantage of rival i that stays below the
  integer threshold b, and b is a lower bound on the target's minimum
  advantage. Destructively, b is an upper bound on the target's minimum
  advantage (u_{k} picks the advantage) and a lower bound on some rival's
  (w_{i} picks the rival).
* BEV: z_{i}_{k} = 1 iff a strict majority of the kept voters ranks
  candidate i within the top k.
* BEC: y_{j}_{i}_{l} = 1 iff voter j ranks kept candidate i among the top
  l of the kept candidates; z_{i}_{l} aggregates the majority threshold.
* Destructive indicators: y_{i} (RE, CE, PE) and d_{i}_{l} (BEV, BEC) pick
  the rival the target fails against; d_0 (BEV) picks "the target reaches
  no majority at all".

Every feasible candidate-deletion assignment keeps the target (x_1 = 1 is
a structural row; it also encodes that the target cannot be deleted in
destructive mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .core import MODES, Election, ControlSpec, ScoreMatrix, StrictProfile
from .ilp import (
    Assignment,
    BINARY,
    INTEGER,
    LinearConstraint,
    LinearProgram,
    add_alternative_block,
)
from .rules import winner_after_deletion


class VerificationError(RuntimeError):
    """A decoded solution failed the winner recheck: encoder or solver bug."""


@dataclass(frozen=True)
class EncodedProblem:
    """A control program and its decision variables.

    `decision_vars` lists the x-variables in voter/candidate order; `decode`
    reads the kept set off them.
    """

    model: LinearProgram
    decision_vars: tuple[str, ...]


@dataclass(frozen=True)
class ControlSolution:
    """Kept/deleted sets with the winner recheck on the restricted election."""

    kept: tuple[int, ...]
    deleted: tuple[int, ...]
    objective: Optional[int]
    status: str
    verification: Optional[Mapping] = None


def dominance_row_matrix(profile: StrictProfile):
    """(m-1) x n matrix; row i, column j is 1 iff the target (candidate 1)
    is preferred to candidate i+1 by voter j."""
    if profile.m < 2:
        raise ValueError("dominance rows need at least two candidates")
    rows = []
    for i in range(2, profile.m + 1):
        rows.append(
            tuple(1 if r.index(1) < r.index(i) else 0 for r in profile.rankings)
        )
    return tuple(rows)


def dominance_cube(profile: StrictProfile):
    """Per voter the m x m strict-order matrix: entry (i, k) is 1 iff the
    voter prefers candidate i to candidate k."""
    cube = []
    for r in profile.rankings:
        pos = {c: p for p, c in enumerate(r)}
        cube.append(
            tuple(
                tuple(1 if i != k and pos[i] < pos[k] else 0 for k in range(1, profile.m + 1))
                for i in range(1, profile.m + 1)
            )
        )
    return tuple(cube)


def bucklin_position_cube(profile: StrictProfile):
    """Per voter the m x m step matrix: entry (i, k) is 1 iff the voter
    ranks candidate i at position k or better."""
    cube = []
    for r in profile.rankings:
        pos = {c: p + 1 for p, c in enumerate(r)}
        cube.append(
            tuple(
                tuple(1 if pos[i] <= k else 0 for k in range(1, profile.m + 1))
                for i in range(1, profile.m + 1)
            )
        )
    return tuple(cube)


def _is_destructive(mode: str) -> bool:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return mode == "destructive"


def _decision_vars(model: LinearProgram, count: int) -> tuple[str, ...]:
    """The keep binaries x_1..x_count (voters or candidates) and the
    objective that keeps as many as possible."""
    names = tuple(f"x_{k}" for k in range(1, count + 1))
    for name in names:
        model.add_variable(name, BINARY)
    model.set_objective("max", tuple((name, 1) for name in names))
    return names


def _impossible(model: LinearProgram, xs) -> None:
    # With one candidate the target wins vacuously under every restriction,
    # so the destructive problem has no solution at all.
    model.add_constraint(tuple((x, 1) for x in xs), "<=", -1, tag="dest:impossible")


def _duel_rows(model, xs, family, duels, destructive, big_m=None) -> None:
    """Rows for per-rival balances `terms` the target wins when positive.

    Constructive: every balance is at least 1 ("{family}:win:c{i}").
    Destructive: at least one balance is at most 0, through an alternative
    block with indicator y_{i} per rival i.
    """
    if not destructive:
        for i, terms in duels:
            model.add_constraint(terms, ">=", 1, tag=f"{family}:win:c{i}")
    elif duels:
        add_alternative_block(
            model,
            [LinearConstraint(terms, "<=", 0, f"dest:alt:c{i}") for i, terms in duels],
            big_m=big_m,
            names=[f"y_{i}" for i, _ in duels],
            pick_tag="dest:pick",
        )
    else:
        _impossible(model, xs)


def encode_re(scores: ScoreMatrix, mode: str = "constructive") -> EncodedProblem:
    """Range control by deleting voters: keep a maximum voter set for which
    the target's total strictly beats every rival's total (constructive) or
    fails to beat some rival's total (destructive)."""
    destructive = _is_destructive(mode)
    m, n = scores.m, scores.n
    model = LinearProgram("range-control")
    xs = _decision_vars(model, n)
    duels = [
        (i, tuple((xs[j], scores.scores[0][j] - scores.scores[i - 1][j]) for j in range(n)))
        for i in range(2, m + 1)
    ]
    big_m = n * max(max(row) for row in scores.scores)
    _duel_rows(model, xs, "re", duels, destructive, big_m)
    return EncodedProblem(model, xs)


def encode_ce(profile: StrictProfile, mode: str = "constructive") -> EncodedProblem:
    """Condorcet control by deleting voters: every kept-voter pairwise duel
    of the target against a rival must be won strictly (constructive), or
    some duel must not be (destructive); the +-1 rows express a win as a
    positive balance."""
    destructive = _is_destructive(mode)
    m, n = profile.m, profile.n
    rows = dominance_row_matrix(profile) if m > 1 else ()
    model = LinearProgram("condorcet-control")
    xs = _decision_vars(model, n)
    duels = [
        (i, tuple((xs[j], 2 * row[j] - 1) for j in range(n)))
        for i, row in enumerate(rows, start=2)
    ]
    _duel_rows(model, xs, "ce", duels, destructive)
    return EncodedProblem(model, xs)


def encode_pe(profile: StrictProfile, mode: str = "constructive") -> EncodedProblem:
    """Plurality control by deleting candidates.

    z_{i}_{j} may be 1 only when no kept candidate beats i for voter j, is
    forced to 1 when kept candidate i is voter j's top choice, and cannot
    be claimed by deleted rivals; the win rows then demand strictly more
    top votes for the target than for any rival, and the destructive block
    demands at most as many as some rival.
    """
    destructive = _is_destructive(mode)
    m, n = profile.m, profile.n
    cube = dominance_cube(profile)
    model = LinearProgram("plurality-control")
    xs = _decision_vars(model, m)
    z = {
        (i, j): model.add_variable(f"z_{i}_{j}", BINARY)
        for i in range(1, m + 1)
        for j in range(1, n + 1)
    }
    model.add_constraint(((xs[0], 1),), "=", 1, tag="pe:target-kept")
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            better = tuple(
                (xs[k - 1], 1) for k in range(1, m + 1) if cube[j - 1][k - 1][i - 1]
            )
            model.add_constraint(
                better + ((z[i, j], m),), "<=", m, tag=f"pe:top-blocked:c{i}:v{j}"
            )
            model.add_constraint(
                better + ((z[i, j], 1), (xs[i - 1], -1)),
                ">=",
                0,
                tag=f"pe:top-forced:c{i}:v{j}",
            )
    for i in range(2, m + 1):
        terms = tuple((z[i, j], 1) for j in range(1, n + 1)) + ((xs[i - 1], -n),)
        model.add_constraint(terms, "<=", 0, tag=f"pe:deleted-no-top:c{i}")
    duels = [
        (
            i,
            tuple((z[1, j], 1) for j in range(1, n + 1))
            + tuple((z[i, j], -1) for j in range(1, n + 1)),
        )
        for i in range(2, m + 1)
    ]
    _duel_rows(model, xs, "pe", duels, destructive)
    return EncodedProblem(model, xs)


def encode_mme(profile: StrictProfile, mode: str = "constructive") -> EncodedProblem:
    """Maximin control by deleting voters.

    Constructive: the integer threshold b sits between every rival's
    smallest advantage (strictly above, via the z rows) and the target's
    smallest advantage (at most, via the floor rows), so feasibility means
    the target's minimum advantage is the strict maximum. Destructive: b is
    at least one of the target's advantages and at most every advantage of
    some rival, so a rival's minimum advantage reaches the target's.
    """
    destructive = _is_destructive(mode)
    m, n = profile.m, profile.n
    cube = dominance_cube(profile)
    name = "maximin-control-destructive" if destructive else "maximin-control"
    model = LinearProgram(name)
    xs = _decision_vars(model, n)
    b = model.add_variable("b", INTEGER, 0 if destructive else 1, n)

    def backers(i, k, coef):
        # The kept voters preferring candidate i to candidate k.
        return tuple((xs[j], coef) for j in range(n) if cube[j][i - 1][k - 1])

    if destructive and m == 1:
        _impossible(model, xs)
    elif destructive:
        # b >= the target's minimum advantage: some advantage of the target
        # is at most b.
        target_min = [
            LinearConstraint(backers(1, k, 1) + ((b, -1),), "<=", 0, f"dest:target-min:c{k}")
            for k in range(2, m + 1)
        ]
        add_alternative_block(
            model,
            target_min,
            names=[f"u_{k}" for k in range(2, m + 1)],
            pick_tag="dest:pick-target-min",
        )
        # Some rival's minimum advantage reaches b: all of its advantages do.
        rival_min = [
            [
                LinearConstraint(
                    ((b, 1),) + backers(i, k, -1), "<=", 0, f"dest:rival-min:c{i}:c{k}"
                )
                for k in range(1, m + 1)
                if k != i
            ]
            for i in range(2, m + 1)
        ]
        add_alternative_block(
            model,
            rival_min,
            names=[f"w_{i}" for i in range(2, m + 1)],
            pick_tag="dest:pick-rival",
        )
    else:
        z = {}
        for i in range(2, m + 1):
            for k in range(1, m + 1):
                if k != i:
                    z[i, k] = model.add_variable(f"z_{i}_{k}", BINARY)
        for (i, k), zik in z.items():
            supporters = backers(i, k, 1)
            # The relaxation constant only has to cover the advantage this
            # row can reach, which is the number of supporting voters.
            cap = max(len(supporters), 1)
            model.add_constraint(
                supporters + ((zik, cap), (b, -1)),
                "<=",
                cap - 1,
                tag=f"mme:rival-cap:c{i}:c{k}",
            )
        for i in range(2, m + 1):
            model.add_constraint(
                tuple((z[i, k], 1) for k in range(1, m + 1) if k != i),
                ">=",
                1,
                tag=f"mme:rival-some:c{i}",
            )
        for k in range(2, m + 1):
            model.add_constraint(
                ((b, 1),) + backers(1, k, -1), "<=", 0, tag=f"mme:target-floor:c{k}"
            )
    return EncodedProblem(model, xs)


def _bucklin_win_rows(model, z, m, family, level) -> None:
    """The target picks at least one achieved score, and the picked score
    stays strictly below every rival's achieved scores."""
    # Valid big-M for "target's claimed score + 1 <= rival's score": the
    # claimed-score sum is at most 1 + 2 + ... + m.
    cap = m * (m + 1) // 2 + 1
    for i in range(2, m + 1):
        for l in range(1, m + 1):
            terms = tuple((z[1, q], q) for q in range(1, m + 1)) + ((z[i, l], cap - l),)
            model.add_constraint(
                terms, "<=", cap - 1, tag=f"{family}:win:c{i}:{level}{l}"
            )
    model.add_constraint(
        tuple((z[1, q], 1) for q in range(1, m + 1)),
        ">=",
        1,
        tag=f"{family}:win-some-score",
    )


def _bucklin_alternatives(model, z, m, level, alternatives, names) -> None:
    """Complete the destructive block: besides the given alternatives, some
    rival i reaches a majority within the top l while the target has none
    within the top l-1 (indicator d_{i}_{l})."""
    for i in range(2, m + 1):
        for l in range(1, m + 1):
            terms = ((z[i, l], -1),)
            if l > 1:
                terms += ((z[1, l - 1], 1),)
            alternatives.append(LinearConstraint(terms, "<=", -1, f"dest:alt:c{i}:{level}{l}"))
            names.append(f"d_{i}_{l}")
    add_alternative_block(model, alternatives, names, "dest:pick")


def encode_bev(profile: StrictProfile, mode: str = "constructive") -> EncodedProblem:
    """Bucklin control by deleting voters.

    Rival score indicators are forced in both directions, so z_{i}_{k}
    means exactly "a strict majority of kept voters ranks i in the top k";
    in destructive mode the target's indicators are forced both ways too,
    so the negated comparisons of the alternative block stay exact.
    """
    destructive = _is_destructive(mode)
    m, n = profile.m, profile.n
    cube = bucklin_position_cube(profile)
    model = LinearProgram("bucklin-voter-control")
    xs = _decision_vars(model, n)
    z = {
        (i, k): model.add_variable(f"z_{i}_{k}", BINARY)
        for i in range(1, m + 1)
        for k in range(1, m + 1)
    }
    # Halved majority rows are pre-scaled by 2 to keep coefficients integral.
    balance = {
        (i, k): tuple((xs[j], 1 - 2 * cube[j][i - 1][k - 1]) for j in range(n))
        for i in range(1, m + 1)
        for k in range(1, m + 1)
    }
    for (i, k), terms in balance.items():
        model.add_constraint(
            terms + ((z[i, k], 2 * n),), "<=", 2 * n - 1, tag=f"bev:score-cap:c{i}:k{k}"
        )
    for (i, k), terms in balance.items():
        if i > 1 or destructive:
            model.add_constraint(
                terms + ((z[i, k], 2 * n),), ">=", 0, tag=f"bev:score-forced:c{i}:k{k}"
            )
    if not destructive:
        _bucklin_win_rows(model, z, m, "bev", "k")
    elif m == 1:
        _impossible(model, xs)
    else:
        no_score = LinearConstraint(
            tuple((z[1, l], 1) for l in range(1, m + 1)), "<=", 0, "dest:alt:no-score"
        )
        _bucklin_alternatives(model, z, m, "k", [no_score], ["d_0"])
    return EncodedProblem(model, xs)


def encode_bec(profile: StrictProfile, mode: str = "constructive") -> EncodedProblem:
    """Bucklin control by deleting candidates; same winner logic as the
    voter variant, with y_{j}_{i}_{l} deriving per-voter scores from the
    kept candidate set (all voters always vote)."""
    destructive = _is_destructive(mode)
    m, n = profile.m, profile.n
    cube = dominance_cube(profile)
    model = LinearProgram("bucklin-candidate-control")
    xs = _decision_vars(model, m)
    y = {
        (j, i, l): model.add_variable(f"y_{j}_{i}_{l}", BINARY)
        for j in range(1, n + 1)
        for i in range(1, m + 1)
        for l in range(1, m + 1)
    }
    z = {
        (i, l): model.add_variable(f"z_{i}_{l}", BINARY)
        for i in range(1, m + 1)
        for l in range(1, m + 1)
    }
    model.add_constraint(((xs[0], 1),), "=", 1, tag="bec:target-kept")
    for j in range(1, n + 1):
        for i in range(1, m + 1):
            better = tuple(
                (xs[k - 1], 1) for k in range(1, m + 1) if cube[j - 1][k - 1][i - 1]
            )
            for l in range(1, m + 1):
                model.add_constraint(
                    better + ((y[j, i, l], m + 1),),
                    "<=",
                    m + l,
                    tag=f"bec:points-cap:v{j}:c{i}:l{l}",
                )
                model.add_constraint(
                    better + ((y[j, i, l], m), (xs[i - 1], -m)),
                    ">=",
                    l - m,
                    tag=f"bec:points-forced:v{j}:c{i}:l{l}",
                )
    for i in range(2, m + 1):
        terms = tuple(
            (y[j, i, l], 1) for j in range(1, n + 1) for l in range(1, m + 1)
        ) + ((xs[i - 1], -n * m),)
        model.add_constraint(terms, "<=", 0, tag=f"bec:deleted-no-points:c{i}")
    # Majority rows pre-scaled by 2 to keep coefficients integral.
    for i in range(1, m + 1):
        for l in range(1, m + 1):
            terms = ((z[i, l], 2 * n),) + tuple(
                (y[j, i, l], -2) for j in range(1, n + 1)
            )
            model.add_constraint(terms, "<=", n - 1, tag=f"bec:score-cap:c{i}:l{l}")
    for i in range(1 if destructive else 2, m + 1):
        for l in range(1, m + 1):
            terms = tuple((y[j, i, l], 2) for j in range(1, n + 1)) + (
                (z[i, l], -2 * n),
            )
            model.add_constraint(terms, "<=", n, tag=f"bec:score-forced:c{i}:l{l}")
    if not destructive:
        _bucklin_win_rows(model, z, m, "bec", "l")
    elif m == 1:
        model.add_constraint(((xs[0], 1),), "<=", 0, tag="dest:impossible")
    else:
        _bucklin_alternatives(model, z, m, "l", [], [])
    return EncodedProblem(model, xs)


_ENCODERS = {
    ("range", "delete-voters"): encode_re,
    ("condorcet", "delete-voters"): encode_ce,
    ("plurality", "delete-candidates"): encode_pe,
    ("maximin", "delete-voters"): encode_mme,
    ("bucklin", "delete-voters"): encode_bev,
    ("bucklin", "delete-candidates"): encode_bec,
}


def encode_control(election: Election, spec: ControlSpec) -> EncodedProblem:
    """Build the program for a normalized control instance (target index 1)."""
    if spec.target != 1:
        raise ValueError("encode_control expects a target-normalized instance")
    prefs = election.preferences
    if spec.rule == "range":
        if not isinstance(prefs, ScoreMatrix):
            raise TypeError("range control requires a score matrix")
    elif not isinstance(prefs, StrictProfile):
        raise TypeError(f"{spec.rule} control requires a strict-order profile")
    return _ENCODERS[(spec.rule, spec.action)](prefs, spec.mode)


def decode(
    problem: EncodedProblem,
    assignment: Assignment,
    election: Election,
    spec: ControlSpec,
) -> ControlSolution:
    """Read the kept set off the decision variables (value > 0.5 counts as
    kept) and recheck the winner on the restricted election.

    A recheck that contradicts the requested mode raises VerificationError;
    that never comes from a valid model plus a correct solver.
    """
    values = assignment.values
    kept = tuple(
        idx
        for idx, name in enumerate(problem.decision_vars, start=1)
        if values[name] > 0.5
    )
    total = election.n if spec.action == "delete-voters" else election.m
    kept_set = set(kept)
    deleted = tuple(i for i in range(1, total + 1) if i not in kept_set)
    winner = winner_after_deletion(election, spec.rule, kept, spec.action)
    ok = (winner == spec.target) if spec.mode == "constructive" else (winner != spec.target)
    verification = {
        "rule": spec.rule,
        "mode": spec.mode,
        "target": spec.target,
        "winner": winner,
        "ok": ok,
    }
    if not ok:
        raise VerificationError(
            f"decoded solution fails the {spec.mode} check: winner={winner}, "
            f"target={spec.target}, kept={kept}"
        )
    return ControlSolution(kept, deleted, len(kept), "Optimal", verification)
