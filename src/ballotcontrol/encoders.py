"""Integer programs for the six supported control problems.

Each encoder builds a program whose binary decision vector x selects the
voters (or candidates) allowed to stay; the objective maximizes how many
stay, and the constraints force the distinguished candidate (always index
1 here, see `normalize_target`) to be the unique winner of the restricted
election. `make_destructive` swaps the winner-enforcing rows for their
big-M alternative-constraint negation, so the target must instead fail to
win. Infeasibility of a program means the chair's goal is unreachable.

Constraint tags name the model and the family a row belongs to (e.g.
"pe:win:c3"); the destructive transform and the test-suite locate rows
through them.

Auxiliary variable meanings:

* PE: z_{i}_{j} = 1 iff candidate i is voter j's favourite among the kept
  candidates.
* MME: z_{i}_{k} = 1 marks an advantage of rival i that stays below the
  integer threshold b, and b is a lower bound on the target's minimum
  advantage.
* BEV: z_{i}_{k} = 1 iff a strict majority of the kept voters ranks
  candidate i within the top k.
* BEC: y_{j}_{i}_{l} = 1 iff voter j ranks kept candidate i among the top
  l of the kept candidates; z_{i}_{l} aggregates the majority threshold.

Every feasible candidate-deletion assignment keeps the target (x_1 = 1 is
a structural row; it also encodes that the target cannot be deleted in
destructive mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .core import Election, ControlSpec, ScoreMatrix, StrictProfile
from .ilp import (
    Assignment,
    BINARY,
    INTEGER,
    LinearConstraint,
    LinearProgram,
    add_alternative_block,
)
from .rules import winner_after_deletion

ROLE_DECISION = "decision"
ROLE_Z = "indicator z"
ROLE_Y = "indicator y"
ROLE_B = "threshold b"


class VerificationError(RuntimeError):
    """A decoded solution failed the winner recheck: encoder or solver bug."""


@dataclass(frozen=True)
class EncodedProblem:
    """A control program plus the meaning of its variables.

    `decision_vars` lists the x-variables in voter/candidate order;
    `decode_map` assigns every variable its semantic role; `meta` carries
    the instance data (kind, mode, dimensions, matrices) that the
    destructive transform needs.
    """

    model: LinearProgram
    decision_vars: tuple[str, ...]
    decode_map: Mapping[str, str]
    meta: Mapping

    @property
    def kind(self) -> str:
        return self.meta["kind"]

    @property
    def mode(self) -> str:
        return self.meta["mode"]


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


def _voter_decision_vars(model: LinearProgram, n: int) -> tuple[str, ...]:
    names = tuple(f"x_{j}" for j in range(1, n + 1))
    for name in names:
        model.add_variable(name, BINARY)
    model.set_objective("max", tuple((name, 1) for name in names))
    return names


def _candidate_decision_vars(model: LinearProgram, m: int) -> tuple[str, ...]:
    names = tuple(f"x_{i}" for i in range(1, m + 1))
    for name in names:
        model.add_variable(name, BINARY)
    model.set_objective("max", tuple((name, 1) for name in names))
    return names


def encode_re(scores: ScoreMatrix) -> EncodedProblem:
    """Range control by deleting voters: keep a maximum voter set for which
    the target's total strictly beats every rival's total."""
    m, n = scores.m, scores.n
    model = LinearProgram("range-control")
    xs = _voter_decision_vars(model, n)
    for i in range(2, m + 1):
        terms = tuple(
            (xs[j], scores.scores[0][j] - scores.scores[i - 1][j]) for j in range(n)
        )
        model.add_constraint(terms, ">=", 1, tag=f"re:win:c{i}")
    decode_map = {name: ROLE_DECISION for name in xs}
    meta = {"kind": "re", "mode": "constructive", "m": m, "n": n, "scores": scores}
    return EncodedProblem(model, xs, decode_map, meta)


def encode_ce(profile: StrictProfile) -> EncodedProblem:
    """Condorcet control by deleting voters: every kept-voter pairwise duel
    of the target against a rival must be won strictly, which the +-1 rows
    express as a positive balance."""
    if profile.m < 2:
        raise ValueError("condorcet control needs at least two candidates")
    m, n = profile.m, profile.n
    rows = dominance_row_matrix(profile)
    model = LinearProgram("condorcet-control")
    xs = _voter_decision_vars(model, n)
    for i in range(2, m + 1):
        terms = tuple((xs[j], 2 * rows[i - 2][j] - 1) for j in range(n))
        model.add_constraint(terms, ">=", 1, tag=f"ce:win:c{i}")
    decode_map = {name: ROLE_DECISION for name in xs}
    meta = {
        "kind": "ce",
        "mode": "constructive",
        "m": m,
        "n": n,
        "rows": rows,
        "rankings": profile.rankings,
    }
    return EncodedProblem(model, xs, decode_map, meta)


def encode_pe(profile: StrictProfile) -> EncodedProblem:
    """Plurality control by deleting candidates.

    z_{i}_{j} may be 1 only when no kept candidate beats i for voter j, is
    forced to 1 when kept candidate i is voter j's top choice, and cannot
    be claimed by deleted rivals; the win rows then demand strictly more
    top votes for the target than for any rival.
    """
    m, n = profile.m, profile.n
    cube = dominance_cube(profile)
    model = LinearProgram("plurality-control")
    xs = _candidate_decision_vars(model, m)
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
    for i in range(2, m + 1):
        terms = tuple((z[1, j], 1) for j in range(1, n + 1)) + tuple(
            (z[i, j], -1) for j in range(1, n + 1)
        )
        model.add_constraint(terms, ">=", 1, tag=f"pe:win:c{i}")
    decode_map = {name: ROLE_DECISION for name in xs}
    decode_map.update({name: ROLE_Z for name in z.values()})
    meta = {
        "kind": "pe",
        "mode": "constructive",
        "m": m,
        "n": n,
        "cube": cube,
        "rankings": profile.rankings,
    }
    return EncodedProblem(model, xs, decode_map, meta)


def encode_mme(profile: StrictProfile) -> EncodedProblem:
    """Maximin control by deleting voters.

    The integer threshold b sits between every rival's smallest advantage
    (strictly above, via the z rows) and the target's smallest advantage
    (at most, via the floor rows), so feasibility means the target's
    minimum advantage is the strict maximum.
    """
    if profile.m < 2:
        raise ValueError("maximin control needs at least two candidates")
    m, n = profile.m, profile.n
    cube = dominance_cube(profile)
    model = LinearProgram("maximin-control")
    xs = _voter_decision_vars(model, n)
    b = model.add_variable("b", INTEGER, 1, n)
    z = {}
    for i in range(2, m + 1):
        for k in range(1, m + 1):
            if k != i:
                z[i, k] = model.add_variable(f"z_{i}_{k}", BINARY)
    for i in range(2, m + 1):
        for k in range(1, m + 1):
            if k == i:
                continue
            supporters = tuple(
                (xs[j - 1], 1) for j in range(1, n + 1) if cube[j - 1][i - 1][k - 1]
            )
            # The relaxation constant only has to cover the advantage this
            # row can reach, which is the number of supporting voters.
            cap = max(len(supporters), 1)
            model.add_constraint(
                supporters + ((z[i, k], cap), (b, -1)),
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
        supporters = tuple(
            (xs[j - 1], -1) for j in range(1, n + 1) if cube[j - 1][0][k - 1]
        )
        model.add_constraint(
            ((b, 1),) + supporters, "<=", 0, tag=f"mme:target-floor:c{k}"
        )
    decode_map = {name: ROLE_DECISION for name in xs}
    decode_map.update({name: ROLE_Z for name in z.values()})
    decode_map[b] = ROLE_B
    meta = {
        "kind": "mme",
        "mode": "constructive",
        "m": m,
        "n": n,
        "cube": cube,
        "rankings": profile.rankings,
    }
    return EncodedProblem(model, xs, decode_map, meta)


def _bucklin_win_cap(m: int) -> int:
    # Valid big-M for "target's claimed score + 1 <= rival's score": the
    # claimed-score sum is at most 1 + 2 + ... + m.
    return m * (m + 1) // 2 + 1


def _build_bev(profile: StrictProfile, force_target: bool, winner_family: bool):
    m, n = profile.m, profile.n
    cube = bucklin_position_cube(profile)
    model = LinearProgram("bucklin-voter-control")
    xs = _voter_decision_vars(model, n)
    z = {
        (i, k): model.add_variable(f"z_{i}_{k}", BINARY)
        for i in range(1, m + 1)
        for k in range(1, m + 1)
    }
    # Halved majority rows are pre-scaled by 2 to keep coefficients integral.
    for i in range(1, m + 1):
        for k in range(1, m + 1):
            terms = tuple(
                (xs[j - 1], 1 - 2 * cube[j - 1][i - 1][k - 1]) for j in range(1, n + 1)
            )
            model.add_constraint(
                terms + ((z[i, k], 2 * n),),
                "<=",
                2 * n - 1,
                tag=f"bev:score-cap:c{i}:k{k}",
            )
    for i in range(1 if force_target else 2, m + 1):
        for k in range(1, m + 1):
            terms = tuple(
                (xs[j - 1], 1 - 2 * cube[j - 1][i - 1][k - 1]) for j in range(1, n + 1)
            )
            model.add_constraint(
                terms + ((z[i, k], 2 * n),),
                ">=",
                0,
                tag=f"bev:score-forced:c{i}:k{k}",
            )
    if winner_family:
        cap = _bucklin_win_cap(m)
        for i in range(2, m + 1):
            for k in range(1, m + 1):
                terms = tuple((z[1, l], l) for l in range(1, m + 1)) + (
                    (z[i, k], cap - k),
                )
                model.add_constraint(terms, "<=", cap - 1, tag=f"bev:win:c{i}:k{k}")
        model.add_constraint(
            tuple((z[1, l], 1) for l in range(1, m + 1)),
            ">=",
            1,
            tag="bev:win-some-score",
        )
    return model, xs, z, cube


def encode_bev(profile: StrictProfile) -> EncodedProblem:
    """Bucklin control by deleting voters.

    Rival score indicators are forced in both directions, so z_{i}_{k}
    means exactly "a strict majority of kept voters ranks i in the top k";
    the target picks at least one achieved score and the win rows keep the
    picked score strictly below every rival's achieved scores.
    """
    m, n = profile.m, profile.n
    model, xs, z, cube = _build_bev(profile, force_target=False, winner_family=True)
    decode_map = {name: ROLE_DECISION for name in xs}
    decode_map.update({name: ROLE_Z for name in z.values()})
    meta = {
        "kind": "bev",
        "mode": "constructive",
        "m": m,
        "n": n,
        "cube": cube,
        "rankings": profile.rankings,
    }
    return EncodedProblem(model, xs, decode_map, meta)


def _build_bec(profile: StrictProfile, force_target: bool, winner_family: bool):
    m, n = profile.m, profile.n
    cube = dominance_cube(profile)
    model = LinearProgram("bucklin-candidate-control")
    xs = _candidate_decision_vars(model, m)
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
    for i in range(1 if force_target else 2, m + 1):
        for l in range(1, m + 1):
            terms = tuple((y[j, i, l], 2) for j in range(1, n + 1)) + (
                (z[i, l], -2 * n),
            )
            model.add_constraint(terms, "<=", n, tag=f"bec:score-forced:c{i}:l{l}")
    if winner_family:
        cap = _bucklin_win_cap(m)
        for i in range(2, m + 1):
            for l in range(1, m + 1):
                terms = tuple((z[1, q], q) for q in range(1, m + 1)) + (
                    (z[i, l], cap - l),
                )
                model.add_constraint(terms, "<=", cap - 1, tag=f"bec:win:c{i}:l{l}")
        model.add_constraint(
            tuple((z[1, q], 1) for q in range(1, m + 1)),
            ">=",
            1,
            tag="bec:win-some-score",
        )
    return model, xs, y, z, cube


def encode_bec(profile: StrictProfile) -> EncodedProblem:
    """Bucklin control by deleting candidates; same winner logic as the
    voter variant, with y_{j}_{i}_{l} deriving per-voter scores from the
    kept candidate set (all voters always vote)."""
    m, n = profile.m, profile.n
    model, xs, y, z, cube = _build_bec(profile, force_target=False, winner_family=True)
    decode_map = {name: ROLE_DECISION for name in xs}
    decode_map.update({name: ROLE_Y for name in y.values()})
    decode_map.update({name: ROLE_Z for name in z.values()})
    meta = {
        "kind": "bec",
        "mode": "constructive",
        "m": m,
        "n": n,
        "cube": cube,
        "rankings": profile.rankings,
    }
    return EncodedProblem(model, xs, decode_map, meta)


_ENCODERS = {
    ("range", "delete-voters"): ("re", encode_re),
    ("condorcet", "delete-voters"): ("ce", encode_ce),
    ("plurality", "delete-candidates"): ("pe", encode_pe),
    ("maximin", "delete-voters"): ("mme", encode_mme),
    ("bucklin", "delete-voters"): ("bev", encode_bev),
    ("bucklin", "delete-candidates"): ("bec", encode_bec),
}


def encode_control(election: Election, spec: ControlSpec) -> EncodedProblem:
    """Build the program for a normalized control instance (target index 1)."""
    if spec.target != 1:
        raise ValueError("encode_control expects a target-normalized instance")
    _, encoder = _ENCODERS[(spec.rule, spec.action)]
    prefs = election.preferences
    if spec.rule == "range":
        if not isinstance(prefs, ScoreMatrix):
            raise TypeError("range control requires a score matrix")
        problem = encoder(prefs)
    else:
        if not isinstance(prefs, StrictProfile):
            raise TypeError(f"{spec.rule} control requires a strict-order profile")
        problem = encoder(prefs)
    if spec.mode == "destructive":
        problem = make_destructive(problem)
    return problem


def _impossible(model: LinearProgram, xs) -> None:
    # With one candidate the target wins vacuously under every restriction,
    # so the destructive problem has no solution at all.
    model.add_constraint(tuple((x, 1) for x in xs), "<=", -1, tag="dest:impossible")


def make_destructive(problem: EncodedProblem) -> EncodedProblem:
    """Turn a constructive program into its destructive counterpart.

    The winner-enforcing rows are removed and replaced by a 1-fold
    alternative block of their negations: the target now has to fail
    strict dominance against at least one rival. Models whose score
    indicators are forced in one direction only get the missing forcing
    rows first, so the negated comparisons stay exact.
    """
    if problem.mode != "constructive":
        raise ValueError("make_destructive expects a constructive problem")
    kind = problem.kind
    meta = dict(problem.meta)
    meta["mode"] = "destructive"
    m, n = meta["m"], meta["n"]

    if kind in ("re", "ce", "pe"):
        win_prefix = f"{kind}:win:"
        dropped = [c for c in problem.model.constraints if c.tag.startswith(win_prefix)]
        model = problem.model.without_constraints(lambda c: c.tag.startswith(win_prefix))
        decode_map = dict(problem.decode_map)
        if not dropped:
            _impossible(model, problem.decision_vars)
            return EncodedProblem(model, problem.decision_vars, decode_map, meta)
        alternatives = []
        names = []
        for constraint in dropped:
            rival = constraint.tag.rsplit(":c", 1)[1]
            alternatives.append(_leq_zero(constraint, tag=f"dest:alt:c{rival}"))
            names.append(f"y_{rival}")
        big_m = None
        if kind == "re":
            scores = meta["scores"]
            big_m = n * max(max(row) for row in scores.scores)
        indicators = add_alternative_block(
            model, alternatives, k=1, big_m=big_m, names=names, pick_tag="dest:pick"
        )
        decode_map.update({name: ROLE_Y for name in indicators})
        return EncodedProblem(model, problem.decision_vars, decode_map, meta)

    if kind == "mme":
        cube = meta["cube"]
        model = LinearProgram("maximin-control-destructive")
        xs = _voter_decision_vars(model, n)
        b = model.add_variable("b", INTEGER, 0, n)
        decode_map = {name: ROLE_DECISION for name in xs}
        decode_map[b] = ROLE_B
        # b >= the target's minimum advantage: some advantage of the target
        # is at most b.
        target_alts = []
        for k in range(2, m + 1):
            terms = tuple(
                (xs[j - 1], 1) for j in range(1, n + 1) if cube[j - 1][0][k - 1]
            ) + ((b, -1),)
            target_alts.append(
                _make_row(terms, "<=", 0, tag=f"dest:target-min:c{k}")
            )
        u_names = add_alternative_block(
            model,
            target_alts,
            k=1,
            names=[f"u_{k}" for k in range(2, m + 1)],
            pick_tag="dest:pick-target-min",
        )
        # Some rival's minimum advantage reaches b: all of its advantages do.
        rival_groups = []
        for i in range(2, m + 1):
            group = []
            for k in range(1, m + 1):
                if k == i:
                    continue
                terms = ((b, 1),) + tuple(
                    (xs[j - 1], -1) for j in range(1, n + 1) if cube[j - 1][i - 1][k - 1]
                )
                group.append(_make_row(terms, "<=", 0, tag=f"dest:rival-min:c{i}:c{k}"))
            rival_groups.append(group)
        w_names = add_alternative_block(
            model,
            rival_groups,
            k=1,
            names=[f"w_{i}" for i in range(2, m + 1)],
            pick_tag="dest:pick-rival",
        )
        decode_map.update({name: ROLE_Y for name in u_names + w_names})
        return EncodedProblem(model, xs, decode_map, meta)

    if kind == "bev":
        model, xs, z, _ = _build_bev(
            StrictProfile(meta["rankings"]), force_target=True, winner_family=False
        )
        decode_map = {name: ROLE_DECISION for name in xs}
        decode_map.update({name: ROLE_Z for name in z.values()})
        if m == 1:
            _impossible(model, xs)
            return EncodedProblem(model, xs, decode_map, meta)
        alternatives = [
            _make_row(
                tuple((z[1, l], 1) for l in range(1, m + 1)),
                "<=",
                0,
                tag="dest:alt:no-score",
            )
        ]
        names = ["d_0"]
        for i in range(2, m + 1):
            for k in range(1, m + 1):
                terms = ((z[i, k], -1),)
                if k > 1:
                    terms += ((z[1, k - 1], 1),)
                alternatives.append(
                    _make_row(terms, "<=", -1, tag=f"dest:alt:c{i}:k{k}")
                )
                names.append(f"d_{i}_{k}")
        indicators = add_alternative_block(
            model, alternatives, k=1, names=names, pick_tag="dest:pick"
        )
        decode_map.update({name: ROLE_Y for name in indicators})
        return EncodedProblem(model, xs, decode_map, meta)

    if kind == "bec":
        model, xs, y, z, _ = _build_bec(
            StrictProfile(meta["rankings"]), force_target=True, winner_family=False
        )
        decode_map = {name: ROLE_DECISION for name in xs}
        decode_map.update({name: ROLE_Y for name in y.values()})
        decode_map.update({name: ROLE_Z for name in z.values()})
        if m == 1:
            model.add_constraint(((xs[0], 1),), "<=", 0, tag="dest:impossible")
            return EncodedProblem(model, xs, decode_map, meta)
        alternatives = []
        names = []
        for i in range(2, m + 1):
            for l in range(1, m + 1):
                terms = ((z[i, l], -1),)
                if l > 1:
                    terms += ((z[1, l - 1], 1),)
                alternatives.append(
                    _make_row(terms, "<=", -1, tag=f"dest:alt:c{i}:l{l}")
                )
                names.append(f"d_{i}_{l}")
        indicators = add_alternative_block(
            model, alternatives, k=1, names=names, pick_tag="dest:pick"
        )
        decode_map.update({name: ROLE_Y for name in indicators})
        return EncodedProblem(model, xs, decode_map, meta)

    raise ValueError(f"unknown problem kind {kind!r}")


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


def _make_row(terms, sense, rhs, tag):
    return LinearConstraint(tuple(terms), sense, rhs, tag)


def _leq_zero(constraint, tag):
    """Negation of a `terms >= rhs` row: `terms <= rhs - 1` for integral
    data, i.e. `terms - (rhs - 1) <= 0`; for the encoders rhs is 1, giving
    the plain `terms <= 0` disjunct."""
    if constraint.sense != ">=":
        raise ValueError("winner rows are >=-sense")
    return _make_row(constraint.terms, "<=", constraint.rhs - 1, tag)
