"""Answer checks made apart from the library under test.

Nothing here imports `ballotcontrol.rules` or `ballotcontrol.oracle`. The
winner tallies work on the ballots the benchmark generated itself (one
ranking per order line, with its multiplicity), and the optimum of every
instance comes from `scipy.optimize.milp`, from exhaustive enumeration
where that is within reach, from the planted optimum, and from HiGHS
reading the written MPS file. Any two of these that disagree make the
instance's answers count as failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

try:
    from scipy.optimize._highspy._core import _Highs
except ImportError:  # private binding: the MPS read-back check is skipped
    _Highs = None

ENUMERATION_LIMIT = 1 << 12


@dataclass(frozen=True)
class Reference:
    """The checked optimum of one instance: status and kept-set size, which
    independent computations gave it, which disagreed, which were skipped."""

    status: str
    objective: Optional[int]
    sources: tuple[str, ...]
    conflict: Optional[str] = None
    skipped: tuple[str, ...] = ()
    export_error: Optional[str] = None


def _unique_best(values: dict, best) -> Optional[int]:
    winners = [c for c, v in values.items() if v == best]
    return winners[0] if len(winners) == 1 else None


def tally_winner(rule, rankings, weights, kept_candidates) -> Optional[int]:
    """Unique winner among `kept_candidates` when the voters of ranking t
    count `weights[t]` times. Strict unique winners throughout; bucklin is
    the simplified rule (least depth with a strict majority); range scores
    a ballot m-1, m-2, ..., 0 down the ranking."""
    keep = set(kept_candidates)
    cands = sorted(keep)
    if len(cands) == 1:
        return cands[0]
    ballots = [
        ([c for c in ranking if c in keep], w)
        for ranking, w in zip(rankings, weights)
        if w
    ]
    n = sum(w for _, w in ballots)
    if n == 0:
        return None
    if rule == "range":
        totals = dict.fromkeys(cands, 0)
        for order, w in ballots:
            for pos, c in enumerate(order):
                totals[c] += w * (len(order) - 1 - pos)
        return _unique_best(totals, max(totals.values()))
    if rule == "plurality":
        tops = dict.fromkeys(cands, 0)
        for order, w in ballots:
            tops[order[0]] += w
        return _unique_best(tops, max(tops.values()))
    if rule == "bucklin":
        depth = {}
        for c in cands:
            reached = [0] * (len(cands) + 1)
            for order, w in ballots:
                reached[order.index(c) + 1] += w
            total = 0
            for k in range(1, len(cands) + 1):
                total += reached[k]
                if 2 * total > n:
                    depth[c] = k
                    break
        return _unique_best(depth, min(depth.values()))
    wins = {(a, b): 0 for a in cands for b in cands if a != b}
    for order, w in ballots:
        for i, a in enumerate(order):
            for b in order[i + 1 :]:
                wins[a, b] += w
    if rule == "condorcet":
        for a in cands:
            if all(2 * wins[a, b] > n for b in cands if b != a):
                return a
        return None
    if rule == "maximin":
        phi = {a: min(wins[a, b] for b in cands if b != a) for a in cands}
        return _unique_best(phi, max(phi.values()))
    raise ValueError(f"unknown rule {rule!r}")


def kept_weights(inst, kept_voters) -> list[int]:
    """Kept voters per order line; voters are numbered in file order."""
    line_of_voter = np.repeat(np.arange(len(inst.counts)), inst.counts)
    picked = line_of_voter[np.asarray(kept_voters, dtype=np.int64) - 1]
    return np.bincount(picked, minlength=len(inst.counts)).tolist()


def kept_set_problems(inst, status, objective, kept, deleted) -> list[str]:
    """Why the answer's kept set does not do what the instance asks."""
    if status == "Infeasible":
        return [] if not kept and objective is None else ["Infeasible answer carries a kept set"]
    if status != "Optimal":
        return [f"status {status}"]
    voters = inst.action == "delete-voters"
    universe = sum(inst.counts) if voters else inst.m
    problems = []
    if list(kept) != sorted(set(kept)) or (kept and not 1 <= kept[0] <= kept[-1] <= universe):
        problems.append("kept set is not a sorted set of valid indices")
        return problems
    if objective != len(kept):
        problems.append(f"objective {objective} is not the kept-set size {len(kept)}")
    if sorted(set(kept) | set(deleted)) != list(range(1, universe + 1)) or set(kept) & set(deleted):
        problems.append("kept and deleted sets do not partition the universe")
    if voters:
        winner = tally_winner(inst.rule, inst.rankings, kept_weights(inst, kept), range(1, inst.m + 1))
    else:
        if inst.target not in kept:
            problems.append("candidate deletion removed the target")
            return problems
        winner = tally_winner(inst.rule, inst.rankings, inst.counts, kept)
    wins = winner == inst.target
    if wins != (inst.mode == "constructive"):
        problems.append(f"{inst.mode} goal missed: winner of the kept set is {winner}")
    return problems


def _milp_status(result) -> tuple[str, Optional[int]]:
    if result.status == 0:
        return "Optimal", int(round(-result.fun))
    if result.status == 2:
        return "Infeasible", None
    raise RuntimeError(f"milp failed: {result.message}")


def type_count_optimum(inst) -> tuple[str, Optional[int]]:
    """Range or condorcet voter deletion as an integer program over how
    many voters of each order line stay (0..multiplicity), built here from
    the ballots rather than from the library's encoding."""
    lines = len(inst.rankings)
    rivals = [c for c in range(1, inst.m + 1) if c != inst.target]
    margin = np.zeros((len(rivals), lines))
    for t, ranking in enumerate(inst.rankings):
        pos = {c: p for p, c in enumerate(ranking)}
        for r, c in enumerate(rivals):
            if inst.rule == "range":
                margin[r, t] = pos[c] - pos[inst.target]
            else:
                margin[r, t] = 1 if pos[inst.target] < pos[c] else -1
    cost = -np.ones(lines)
    box = Bounds(0, np.asarray(inst.counts, dtype=float))
    integral = np.ones(lines)
    if inst.mode == "constructive":
        rows = LinearConstraint(margin, 1, np.inf)
        return _milp_status(milp(cost, constraints=rows, bounds=box, integrality=integral))
    # The target fails to win iff some rival is not strictly beaten; the
    # empty kept set always qualifies, so the best over rivals is Optimal.
    best = max(
        _milp_status(
            milp(cost, constraints=LinearConstraint(margin[r : r + 1], -np.inf, 0), bounds=box, integrality=integral)
        )[1]
        for r in range(len(rivals))
    )
    return "Optimal", best


def model_optimum(model) -> tuple[str, Optional[int]]:
    """`scipy.optimize.milp` on an encoded `LinearProgram` (max sense)."""
    if model.objective_sense != "max":
        raise ValueError("control programs maximize")
    index = {v.name: i for i, v in enumerate(model.variables)}
    rows, cols, data, lo, hi = [], [], [], [], []
    for r, con in enumerate(model.constraints):
        for name, coef in con.terms:
            rows.append(r)
            cols.append(index[name])
            data.append(float(coef))
        rhs = float(con.rhs)
        lo.append(rhs if con.sense in (">=", "=") else -np.inf)
        hi.append(rhs if con.sense in ("<=", "=") else np.inf)
    matrix = csr_matrix((data, (rows, cols)), shape=(len(model.constraints), len(index)))
    cost = np.zeros(len(index))
    for name, coef in model.objective:
        cost[index[name]] -= float(coef)
    result = milp(
        cost,
        constraints=LinearConstraint(matrix, lo, hi) if model.constraints else None,
        bounds=Bounds([float(v.lower) for v in model.variables], [float(v.upper) for v in model.variables]),
        integrality=np.array([1 if v.kind != "continuous" else 0 for v in model.variables]),
    )
    return _milp_status(result)


def enumerated_optimum(inst) -> tuple[str, Optional[int]]:
    """Largest kept candidate set (always holding the target) that meets the
    goal, by trying every subset with the benchmark's own tallies."""
    if inst.action != "delete-candidates" or 1 << (inst.m - 1) > ENUMERATION_LIMIT:
        raise ValueError("enumeration is out of reach for this instance")
    others = [c for c in range(1, inst.m + 1) if c != inst.target]
    for size in range(len(others), -1, -1):
        for rest in combinations(others, size):
            winner = tally_winner(inst.rule, inst.rankings, inst.counts, (inst.target,) + rest)
            if (winner == inst.target) == (inst.mode == "constructive"):
                return "Optimal", size + 1
    return "Infeasible", None


def mps_optimum(path) -> tuple[str, Optional[int]]:
    """HiGHS reads the written MPS file and solves it."""
    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("threads", 1)
    if str(highs.readModel(str(path))) == "HighsStatus.kError":
        raise RuntimeError(f"HiGHS cannot read {path}")
    highs.run()
    status = highs.modelStatusToString(highs.getModelStatus())
    if status == "Optimal":
        return "Optimal", int(round(highs.getInfo().objective_function_value))
    if status == "Infeasible":
        return "Infeasible", None
    raise RuntimeError(f"HiGHS on {path}: {status}")


def reference(inst, encoded, mps_path=None) -> Reference:
    """Every independent optimum of `inst` that this module can reach.

    The benchmark's own type-count program decides range and condorcet;
    candidate deletion within reach is enumerated; a planted optimum is
    used as known; HiGHS solves the MPS file the run wrote, if any. Only
    when none of the exact methods applies does milp solve the library's
    encoding, which `encoded()` builds.
    """
    found = {}
    if inst.rule in ("range", "condorcet"):
        found["milp-types"] = type_count_optimum(inst)
    if inst.action == "delete-candidates" and 1 << (inst.m - 1) <= ENUMERATION_LIMIT:
        found["enumeration"] = enumerated_optimum(inst)
    if inst.planted is not None:
        found["planted"] = ("Optimal", inst.planted)
    skipped, export_error = (), None
    if mps_path is not None:
        if _Highs is None:
            skipped = ("mps-read",)
        else:
            try:
                found["mps-read"] = mps_optimum(mps_path)
            except RuntimeError as exc:
                export_error = f"exported model unusable: {exc}"
    if not found.keys() & {"milp-types", "enumeration", "mps-read"}:
        found["milp-model"] = model_optimum(encoded())
    status, objective = next(iter(found.values()))
    conflict = None if len(set(found.values())) == 1 else f"references disagree: {found}"
    return Reference(status, objective, tuple(sorted(found)), conflict, skipped, export_error)


def reference_problems(ref: Reference, status, objective) -> list[str]:
    """Why an answer's status and objective do not match the reference."""
    problems = [ref.conflict] if ref.conflict else []
    if (status, objective) != (ref.status, ref.objective):
        problems.append(f"answer {status}/{objective}, reference {ref.status}/{ref.objective}")
    return problems
