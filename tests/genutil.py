"""Shared test helpers: random instance generators and independent
exhaustive oracles. These stay deliberately separate from the library
code paths they check."""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

from ballotcontrol import Election, LinearProgram


def random_profile(rng, n, m):
    return [tuple(rng.sample(range(1, m + 1), m)) for _ in range(n)]


def random_election(rng, n, m) -> Election:
    return Election.from_rankings(random_profile(rng, n, m))


def random_score_election(rng, n, m, max_score) -> Election:
    scores = [[rng.randint(0, max_score) for _ in range(n)] for _ in range(m)]
    return Election.from_scores(scores)


def profile_with_target_on_top(rng, n, m, target):
    """Random profile where at least one voter ranks `target` first."""
    profile = random_profile(rng, n, m)
    lucky = rng.randrange(n)
    r = list(profile[lucky])
    r.remove(target)
    profile[lucky] = tuple([target] + r)
    return profile


def profile_with_dominating_rival(rng, n, m, target):
    """Random profile where one fixed rival beats `target` in every ranking."""
    rival = rng.choice([c for c in range(1, m + 1) if c != target])
    profile = []
    for _ in range(n):
        r = list(rng.sample(range(1, m + 1), m))
        if r.index(rival) > r.index(target):
            a, b = r.index(rival), r.index(target)
            r[a], r[b] = r[b], r[a]
        profile.append(tuple(r))
    return profile, rival


def random_binary_program(rng, max_vars=16, max_rows=20) -> LinearProgram:
    """Random all-binary integer program with coefficients in [-10, 10]."""
    model = LinearProgram("random-ip")
    k = rng.randint(1, max_vars)
    names = [model.add_variable(f"x{i}", "binary") for i in range(k)]
    sense = "min" if rng.random() < 0.2 else "max"
    model.set_objective(sense, [(x, rng.randint(-10, 10)) for x in names])
    for _ in range(rng.randint(0, max_rows)):
        terms = [(x, rng.randint(-10, 10)) for x in names if rng.random() < 0.7]
        if not terms:
            continue
        row_sense = rng.choice(("<=", "<=", ">=", "="))
        model.add_constraint(terms, row_sense, rng.randint(-15, 15))
    return model


def random_big_coefficient_program(rng) -> LinearProgram:
    """Random 2-4-binary program with row coefficients of magnitude 1e4-1e7
    and right-hand sides near the activity of a random point, so LP vertices
    often sit within rounding distance of an integral point."""
    model = LinearProgram("big-coefficients")
    k = rng.randint(2, 4)
    names = [model.add_variable(f"x{i}", "binary") for i in range(k)]
    model.set_objective("max", [(x, rng.randint(-3, 3)) for x in names])
    for _ in range(rng.randint(1, 3)):
        coefs = [rng.choice((-1, 1)) * rng.randint(10**4, 10**7) for _ in names]
        point = [rng.randint(0, 1) for _ in names]
        rhs = sum(c * v for c, v in zip(coefs, point)) + rng.randint(-2, 2)
        model.add_constraint(list(zip(names, coefs)), rng.choice(("<=", ">=")), rhs)
    return model


def enumerate_binary_optimum(model: LinearProgram):
    """Exhaustive 2^k oracle for all-binary models: ('Optimal', value) or
    ('Infeasible', None). Exact integer arithmetic via numpy int64."""
    names = [v.name for v in model.variables]
    k = len(names)
    assert all(v.kind == "binary" for v in model.variables)
    index = {name: i for i, name in enumerate(names)}
    points = ((np.arange(1 << k, dtype=np.int64)[:, None] >> np.arange(k)) & 1).astype(
        np.int64
    )
    feasible = np.ones(1 << k, dtype=bool)
    for constraint in model.constraints:
        coefs = np.zeros(k, dtype=np.int64)
        for name, coef in constraint.terms:
            coefs[index[name]] += coef
        lhs = points @ coefs
        if constraint.sense == "<=":
            feasible &= lhs <= constraint.rhs
        elif constraint.sense == ">=":
            feasible &= lhs >= constraint.rhs
        else:
            feasible &= lhs == constraint.rhs
    if not feasible.any():
        return "Infeasible", None
    obj = np.zeros(k, dtype=np.int64)
    for name, coef in model.objective:
        obj[index[name]] += coef
    values = points @ obj
    best = values[feasible].max() if model.objective_sense == "max" else values[feasible].min()
    return "Optimal", int(best)


def models_equal(a: LinearProgram, b: LinearProgram) -> bool:
    """Same variables (kind, bounds), constraints, and objective, compared
    by name so declaration order does not matter."""
    vars_a = {v.name: (v.kind, v.lower, v.upper) for v in a.variables}
    vars_b = {v.name: (v.kind, v.lower, v.upper) for v in b.variables}
    if vars_a != vars_b:
        return False
    rows_a = [(c.terms, c.sense, c.rhs, c.tag) for c in a.constraints]
    rows_b = [(c.terms, c.sense, c.rhs, c.tag) for c in b.constraints]
    if rows_a != rows_b:
        return False
    return (a.objective_sense, a.objective) == (b.objective_sense, b.objective)


def milp_optimum(model: LinearProgram):
    """`scipy.optimize.milp` (HiGHS MIP) on a maximizing model:
    ('Optimal', value) or ('Infeasible', None)."""
    assert model.objective_sense == "max"
    index = {v.name: i for i, v in enumerate(model.variables)}
    rows, cols, data, lower, upper = [], [], [], [], []
    for r, constraint in enumerate(model.constraints):
        for name, coef in constraint.terms:
            rows.append(r)
            cols.append(index[name])
            data.append(float(coef))
        rhs = float(constraint.rhs)
        lower.append(rhs if constraint.sense in (">=", "=") else -np.inf)
        upper.append(rhs if constraint.sense in ("<=", "=") else np.inf)
    cost = np.zeros(len(index))
    for name, coef in model.objective:
        cost[index[name]] -= float(coef)
    matrix = csr_matrix((data, (rows, cols)), shape=(len(model.constraints), len(index)))
    result = milp(
        cost,
        constraints=LinearConstraint(matrix, lower, upper) if model.constraints else None,
        bounds=Bounds(
            [float(v.lower) for v in model.variables],
            [float(v.upper) for v in model.variables],
        ),
        integrality=np.array([v.kind != "continuous" for v in model.variables], dtype=int),
    )
    if result.status == 2:
        return "Infeasible", None
    assert result.status == 0, result.message
    return "Optimal", int(round(-result.fun))
