import dataclasses
import hashlib
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix, hstack, vstack

from ballotcontrol import solver as solver_module
from ballotcontrol import (
    ControlSpec,
    Election,
    LinearProgram,
    SolverConfig,
    SolverError,
    build_problem,
    canonical_result,
    brute_force_control,
    check_assignment,
    encode_ce,
    encode_re,
    solve,
    solve_control,
    solve_lp_relaxation,
    StrictProfile,
    ScoreMatrix,
)
from genutil import (
    enumerate_binary_optimum,
    linprog_optimum,
    milp_optimum,
    random_big_coefficient_program,
    random_binary_program,
    random_election,
)
from test_model_golden import GOLDEN as MODEL_GOLDEN, sweep_models


def box_model():
    model = LinearProgram("box")
    model.add_variable("x", "continuous", 0, 1)
    model.set_objective("max", [("x", 1)])
    return model


def monotone_models():
    """40 random binary programs, then six bucklin constructive and six
    maximin destructive voter-deletion programs (n=12, m=4) that branch."""
    rng = random.Random(31)
    models = [random_binary_program(rng, max_vars=12, max_rows=10) for _ in range(40)]
    for rule, mode in (("bucklin", "constructive"), ("maximin", "destructive")):
        for _ in range(6):
            spec = ControlSpec(rule, "delete-voters", mode, rng.randint(1, 4))
            models.append(build_problem(random_election(rng, 12, 4), spec)[0].model)
    return models


def mixed_program(rng):
    """Random program over binary, integer and continuous columns with
    fractional, negative and zero coefficients, rows of all three senses
    that a random point of the box satisfies, one column in no row and one
    row with no terms."""
    model = LinearProgram("mixed")
    names, point = [], {}
    for i in range(rng.randint(2, 9)):
        kind = rng.choice(("binary", "integer", "continuous"))
        if kind == "binary":
            lower, upper = 0, 1
        elif kind == "integer":
            lower = rng.randint(-4, 2)
            upper = lower + rng.randint(0, 7)
        else:
            lower = rng.choice((-2.5, -1, 0, 0.25))
            upper = lower + rng.choice((0.5, 1, 3.75, 10))
        names.append(model.add_variable(f"x{i}", kind, lower, upper))
        point[names[-1]] = (
            lower + (upper - lower) * rng.random()
            if kind == "continuous"
            else rng.randint(lower, upper)
        )
    model.add_variable("idle", "integer", -3, 4)

    def coef():
        return rng.randint(-30, 30) / rng.choice((1, 1, 2, 3, 7, 10))

    model.set_objective(rng.choice(("max", "min")), [(x, coef()) for x in names])
    rows = [
        ([(x, coef()) for x in names if rng.random() < 0.6], rng.choice(("<=", ">=", "=")))
        for _ in range(rng.randint(1, 8))
    ]
    rows.insert(rng.randint(0, len(rows)), ([], "<="))
    slack = {"<=": 1, ">=": -1, "=": 0}
    for terms, sense in rows:
        activity = sum(c * point[x] for x, c in terms)
        model.add_constraint(terms, sense, activity + slack[sense] * rng.randint(0, 3))
    return model


def propagation_programs(kind):
    if kind == "monotone":
        return monotone_models()
    rng = random.Random("propagation/mixed")
    return [mixed_program(rng) for _ in range(150)]


def sub_boxes(rng, sf, count):
    """`count` random boxes inside the column box of `sf`, integral on the
    integral columns; some columns keep their full range, some are fixed."""
    for _ in range(count):
        lower, upper = sf.lower.copy(), sf.upper.copy()
        for j in range(sf.ncols):
            if rng.random() < 0.7:
                continue
            lo, hi = lower[j], upper[j]
            if sf.integral[j]:
                a = rng.randint(int(lo), int(hi))
                b = a if rng.random() < 0.3 else rng.randint(a, int(hi))
            else:
                a = lo + (hi - lo) * rng.random() / 2
                b = a if rng.random() < 0.2 else hi - (hi - a) * rng.random() / 2
            lower[j], upper[j] = a, b
        yield lower, upper


# SHA-256 over the bounds (as bytes, so signed zeros count) and the return
# value of `_propagate` on five random sub-boxes of every program of each
# group, computed before the propagation matrices were built through CSC.
PROPAGATION_GOLDEN = {
    "mixed": "ca20e8c0593ac36c11a83539305746b77165bff2081c3b619e457da0039896ef",
    "monotone": "9cefbb6efa21653d3202bbb90150ebf58b829fb079aa7e9644ea2fd57c3fd7a0",
}


def propagation_digest(kind):
    rng = random.Random(f"boxes/{kind}")
    digest = hashlib.sha256()
    for model in propagation_programs(kind):
        sf = solver_module._standard_form(model)
        for lower, upper in sub_boxes(rng, sf, 5):
            feasible = solver_module._propagate(sf, lower, upper)
            digest.update(b"1" if feasible else b"0")
            digest.update(lower.tobytes())
            digest.update(upper.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("kind", sorted(PROPAGATION_GOLDEN))
def test_propagation_golden(kind):
    assert propagation_digest(kind) == PROPAGATION_GOLDEN[kind], f"the {kind} propagation changed"


def scipy_rows(model):
    """The rows of `model` built through `scipy.sparse`: a `csr_matrix`
    of the constraint terms in order, with explicit zeros eliminated."""
    index = {v.name: i for i, v in enumerate(model.variables)}
    rows = model.constraints
    terms = [term for c in rows for term in c.terms]
    matrix = csr_matrix(
        (
            np.array([float(coef) for _, coef in terms]),
            np.array([index[name] for name, _ in terms], dtype=np.int64),
            np.cumsum([0] + [len(c.terms) for c in rows]),
        ),
        shape=(len(rows), len(index)),
    )
    matrix.eliminate_zeros()
    return matrix


def scipy_propagation_data(sf, matrix):
    """`propagation_data` built through `scipy.sparse`: the stacked rows
    split by sign into P (positive entries, moved to column n + j) over N
    (negative entries), and the caps grouped by column through `tocsc`."""
    n = sf.ncols
    above, below = np.isfinite(sf.row_upper), np.isfinite(sf.row_lower)
    stacked = vstack((matrix[above], -matrix[below]), format="csr")
    b = np.concatenate((sf.row_upper[above], -sf.row_lower[below]))
    pos, neg = stacked.copy(), stacked
    pos.data[pos.data < 0] = 0.0
    neg.data[neg.data > 0] = 0.0
    pos.eliminate_zeros()
    neg.eliminate_zeros()
    empty = csr_matrix(pos.shape)
    signed = vstack(
        (hstack((empty, pos), format="csr"), hstack((neg, empty), format="csr")), format="csr"
    )
    csc = signed.tocsc()
    counts = np.diff(csc.indptr)
    ucols = np.flatnonzero(counts)
    rows = np.where(csc.indices < b.size, csc.indices, csc.indices - b.size)
    caps = (
        rows,
        np.repeat(np.arange(2 * n), counts),
        csc.data,
        csc.indptr[ucols],
        np.where(ucols < n, ucols + n, ucols - n),
        csc.indptr[n],
    )
    return (
        b,
        b + 1e-7,
        (signed.indptr, signed.indices, signed.data),
        caps,
        np.concatenate((np.ones(n), -np.ones(n))),
        np.concatenate((np.full(n, 1e-6), np.full(n, -1e-6))),
        np.concatenate((sf.integral, sf.integral)),
    )


def assert_same_arrays(got, want):
    """Equal shape and bytes, the reference cast to the dtype of `got`."""
    for g, w in zip(got, want, strict=True):
        if isinstance(g, tuple):
            assert_same_arrays(g, w)
        elif isinstance(g, int):
            assert g == w
        else:
            assert g.shape == np.shape(w)
            assert g.tobytes() == np.asarray(w, dtype=g.dtype).tobytes()


def differential_programs():
    yield from propagation_programs("mixed")
    for key in sorted(MODEL_GOLDEN):
        yield from sweep_models(*key)


def test_rows_and_kernels_match_scipy_sparse():
    """The plain CSR arrays, the activities and the propagation rows equal
    byte for byte what `scipy.sparse` computes from the same terms."""
    rng = np.random.default_rng(5)
    for model in differential_programs():
        sf = solver_module._standard_form(model)
        matrix = scipy_rows(model)
        indptr, indices, _ = sf.rows
        assert indptr.dtype == indices.dtype == np.int32
        assert_same_arrays(sf.rows, (matrix.indptr, matrix.indices, matrix.data))
        for _ in range(3):
            x = sf.lower + (sf.upper - sf.lower) * rng.random(sf.ncols)
            want = matrix @ x
            assert solver_module._matvec(sf.rows, x).tobytes() == want.tobytes()
            ok = not (np.any(want > sf.row_upper) or np.any(want < sf.row_lower))
            assert sf.feasible_point(x, 0.0) == ok
        assert_same_arrays(sf.propagation_data, scipy_propagation_data(sf, matrix))


def duplicated_program(rng):
    """Random integer program whose columns come in classes of one to four
    equal columns, declared in shuffled order: binary classes, integer
    classes with nonzero or negative bounds, a class in no row with an
    objective coefficient and a class in no row without one. The rows are
    of all three senses, and a random point of the box satisfies each with
    probability about 3/4."""
    model = LinearProgram("duplicated")
    classes = []
    for k in range(rng.randint(2, 6)):
        lower, upper = rng.choice(((0, 1), (0, 3), (-3, -1), (-2, 0), (-2, 2), (1, 4), (2, 2)))
        kind = "binary" if (lower, upper) == (0, 1) and rng.random() < 0.5 else "integer"
        classes.append((kind, lower, upper, rng.randint(-4, 4), rng.randint(1, 4)))
    classes.append(("integer", -1, 2, rng.choice((-2, 3)), rng.randint(2, 3)))
    classes.append(("binary", 0, 1, 0, rng.randint(2, 3)))
    columns = [(c, j) for c, spec in enumerate(classes) for j in range(spec[-1])]
    rng.shuffle(columns)
    members = [[] for _ in classes]
    point = {}
    for c, j in columns:
        kind, lower, upper, _, _ = classes[c]
        name = model.add_variable(f"t{c}_{j}", kind, lower, upper)
        members[c].append(name)
        point[name] = rng.randint(lower, upper)
    model.set_objective(
        rng.choice(("max", "min")),
        [(name, classes[c][3]) for c in range(len(classes)) for name in members[c]],
    )
    in_rows = len(classes) - 2
    for _ in range(rng.randint(1, 5)):
        coefs = {c: rng.randint(-5, 5) for c in range(in_rows) if rng.random() < 0.7}
        terms = [(name, coefs[c]) for c in coefs for name in members[c]]
        rng.shuffle(terms)
        sense = rng.choice(("<=", ">=", "="))
        activity = sum(coef * point[name] for name, coef in terms)
        slack = {"<=": 1, ">=": -1, "=": 0}[sense] * rng.randint(-1, 3)
        model.add_constraint(terms, sense, activity + slack)
    return model


class TestMergedColumns:
    @pytest.mark.parametrize("seed", range(4))
    def test_planted_duplicates_match_milp(self, seed):
        rng = random.Random(f"merge/{seed}")
        for _ in range(25):
            model = duplicated_program(rng)
            form = solver_module._standard_form(model)
            assert solver_module._merge_columns(form)[0] is not form
            result = solve(model)
            assert (result.status, result.objective) == milp_optimum(model)

    def test_classes_fill_lowest_indexed_columns_first(self):
        # Two classes of interchangeable columns, interleaved with a third
        # column: each class is one column of the search, and its value is
        # spread over its members in declaration order. Equal continuous
        # columns stay apart, and so do columns in no row that differ only
        # in one bound or in the objective (d0 to d3; d4 equals d0).
        model = LinearProgram("spread")
        model.add_variable("a0", "binary")
        model.add_variable("c0", "continuous", 0, 2)
        model.add_variable("c1", "continuous", 0, 2)
        model.add_variable("b0", "integer", -2, 3)
        model.add_variable("a1", "binary")
        model.add_variable("other", "integer", 0, 5)
        model.add_variable("b1", "integer", -2, 3)
        model.add_variable("a2", "binary")
        model.add_variable("b2", "integer", -2, 3)
        model.add_variable("a3", "binary")
        for name, lower, upper in (
            ("d0", 0, 1), ("d1", 0, 2), ("d2", -1, 1), ("d3", 0, 1), ("d4", 0, 1)
        ):
            model.add_variable(name, "integer", lower, upper)
        a = [f"a{i}" for i in range(4)]
        b = [f"b{i}" for i in range(3)]
        model.set_objective("max", [(x, 1) for x in a + b] + [("other", 1), ("d3", 2)])
        model.add_constraint([(x, 1) for x in a], "<=", 2)
        model.add_constraint([(x, 1) for x in b] + [("other", 1)], "<=", 4)
        model.add_constraint([("other", 1)], ">=", 5)
        model.add_constraint([("c0", 1), ("c1", 1)], "<=", 3)
        merged, _ = solver_module._merge_columns(solver_module._standard_form(model))
        # The columns left are a0, c0, c1, b0, other, d0, d1, d2 and d3.
        assert merged.obj.tolist() == [1, 0, 0, 1, 1, 0, 0, 0, 2]
        assert merged.integral.tolist() == [True, False, False, True, True, True, True, True, True]
        indptr, indices, _ = merged.rows
        assert (indptr.tolist(), indices.tolist()) == ([0, 1, 3, 4, 6], [0, 3, 4, 4, 1, 2])
        assert merged.lower.tolist() == [0, 0, 0, -6, 0, 0, 0, -1, 0]
        assert merged.upper.tolist() == [4, 2, 2, 9, 5, 2, 2, 1, 1]
        result = solve(model)
        assert result.status == "Optimal" and result.objective == 8
        assert [result.incumbent.values[x] for x in a] == [1, 1, 0, 0]
        assert [result.incumbent.values[x] for x in b] == [3, -2, -2]
        assert all(type(result.incumbent.values[x]) is int for x in a + b + ["other", "d0"])
        assert all(type(result.incumbent.values[x]) is float for x in ("c0", "c1"))

    @pytest.mark.parametrize(
        "rule,mode",
        [
            ("condorcet", "constructive"),
            ("condorcet", "destructive"),
            ("maximin", "constructive"),
            ("maximin", "destructive"),
            ("bucklin", "constructive"),
            ("bucklin", "destructive"),
        ],
    )
    def test_duplicated_ballots_keep_lowest_indexed_voters(self, rule, mode):
        rng = random.Random(f"ballots/{rule}/{mode}")
        solved = 0
        for _ in range(6):
            ballots = [tuple(rng.sample(range(1, 5), 4)) for _ in range(3)]
            rankings = [rng.choice(ballots) for _ in range(12)]
            election = Election.from_rankings(rankings)
            spec = ControlSpec(rule, "delete-voters", mode, rng.randint(1, 4))
            outcome = solve_control(election, spec)
            oracle = brute_force_control(election, spec)
            solution = outcome.solution
            assert (solution.status, solution.objective) == (oracle.status, oracle.objective)
            if solution.status != "Optimal":
                continue
            solved += 1
            for ballot in set(rankings):
                voters = [v for v, r in enumerate(rankings, start=1) if r == ballot]
                kept = [v for v in voters if v in solution.kept]
                assert kept == voters[: len(kept)], (ballot, voters, kept)
        assert solved >= 3


# SHA-256 over `canonical_result(solve(...))` of the mixed programs, none of
# which has two equal integral columns. Computed before the solver merged
# such columns, so that on a model without them the search runs on the
# form as it is, bit for bit; recomputed when HiGHS stopped presolving the
# root LP, which moved the incumbent points of 15 programs and the last
# bits of 9 of their objectives, which are not integral.
UNMERGED_GOLDEN = "f8b89b0aca881bb48d782a07f83758884146b7e2c39f5c5c38e9e77db2198e5d"


def unmerged_digest():
    digest = hashlib.sha256()
    for model in propagation_programs("mixed"):
        form = solver_module._standard_form(model)
        assert solver_module._merge_columns(form)[0] is form
        digest.update(canonical_result(solve(model)).encode() + b"\n")
    return digest.hexdigest()


def test_no_duplicate_columns_search_unchanged():
    assert unmerged_digest() == UNMERGED_GOLDEN


def form_bytes(form):
    """The bytes of every field of `form`, each row array included."""
    values = [getattr(form, field.name) for field in dataclasses.fields(form)]
    flat = [a for v in values for a in (v if isinstance(v, tuple) else (v,))]
    return [np.asarray(a).tobytes() for a in flat]


@pytest.mark.parametrize("merges", [True, False])
def test_search_never_writes_into_a_form(monkeypatch, merges):
    # A merged form shares its row bounds with the form it comes from, and
    # the arrays of a frozen form are still writable: every form a solve
    # builds must hold the same bytes after the search.
    build, merge = solver_module._standard_form, solver_module._merge_columns
    forms = []

    def recorded(form):
        forms.append((form, form_bytes(form)))
        return form

    def merged(form):
        form, spread = merge(form)
        return recorded(form), spread

    monkeypatch.setattr(solver_module, "_standard_form", lambda model: recorded(build(model)))
    monkeypatch.setattr(solver_module, "_merge_columns", merged)
    if merges:
        rng = random.Random("merge/0")
        model = [duplicated_program(rng) for _ in range(6)][-1]
    else:
        model = list(propagation_programs("mixed"))[35]
    result = solve(model)
    assert result.status == "Optimal" and result.nodes_explored > 1
    assert len(forms) == 2 and (forms[0][0] is forms[1][0]) != merges
    for form, snapshot in forms:
        assert form_bytes(form) == snapshot


class TestLpRelaxation:
    def test_unconstrained_box(self):
        outcome = solve_lp_relaxation(box_model())
        assert outcome.status == "optimal"
        assert outcome.value == pytest.approx(1.0)

    def test_infeasible_interval(self):
        model = LinearProgram()
        model.add_variable("x", "continuous", 0, 1)
        model.set_objective("max", [("x", 1)])
        model.add_constraint([("x", 1)], ">=", 1)
        model.add_constraint([("x", 1)], "<=", 0)
        assert solve_lp_relaxation(model).status == "infeasible"

    def test_relaxation_bounds_integer_optimum(self):
        problem = encode_re(ScoreMatrix(((1, 0), (0, 1))))
        outcome = solve_lp_relaxation(problem.model)
        assert outcome.status == "optimal"
        assert outcome.value >= 1 - 1e-9

    def test_min_sense(self):
        model = LinearProgram()
        model.add_variable("x", "continuous", 2, 5)
        model.set_objective("min", [("x", 1)])
        assert solve_lp_relaxation(model).value == pytest.approx(2.0)

    def test_infinite_bounds_rejected(self):
        model = LinearProgram()
        model.add_variable("x", "continuous", 0, float("inf"))
        model.set_objective("max", [("x", 1)])
        with pytest.raises(ValueError):
            solve_lp_relaxation(model)

    def test_warm_and_cold_agree(self):
        rng = random.Random(21)
        for _ in range(10):
            model = random_binary_program(rng, max_vars=8, max_rows=6)
            warm = solve_lp_relaxation(model)
            status, value = linprog_optimum(model)
            assert warm.status == status
            if status == "optimal":
                assert warm.value == pytest.approx(value, abs=1e-6)


class TestSolve:
    def test_integral_root_needs_no_branching(self, worked_rankings):
        problem = encode_ce(StrictProfile(worked_rankings))
        result = solve(problem.model)
        assert result.status == "Optimal"
        assert result.objective == 3
        assert result.nodes_explored == 1

    def test_infeasible_at_relaxation(self):
        problem = encode_re(ScoreMatrix(((0, 0), (1, 1))))
        result = solve(problem.model)
        assert result.status == "Infeasible"
        assert result.incumbent is None

    def test_pure_lp_allowed(self):
        result = solve(box_model())
        assert result.status == "Optimal"
        assert result.objective == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_enumeration(self, seed):
        rng = random.Random(1000 + seed)
        model = random_binary_program(rng)
        result = solve(model)
        status, best = enumerate_binary_optimum(model)
        assert result.status == status
        if status == "Optimal":
            assert result.objective == best

    def test_determinism(self):
        rng = random.Random(7)
        for _ in range(10):
            model = random_binary_program(rng, max_vars=10, max_rows=8)
            first = solve(model)
            second = solve(model)
            assert canonical_result(first) == canonical_result(second)

    def test_node_limit(self):
        rng = random.Random(12345)
        # hunt for an instance that needs branching, then cap it
        for _ in range(200):
            model = random_binary_program(rng, max_vars=14, max_rows=12)
            unlimited = solve(model)
            if unlimited.nodes_explored > 3:
                limited = solve(model, SolverConfig(node_limit=2))
                assert limited.status in ("NodeLimit", "Optimal", "Infeasible")
                if limited.status == "NodeLimit":
                    return
        pytest.fail("no branching instance found")

    @pytest.mark.parametrize("limit", (2, 4, 20))
    def test_node_limit_is_a_hard_cap(self, limit):
        # Each pop expands two nodes, so an even limit stops where the odd
        # limit below it does, one node short of the limit.
        stops = 0
        for model in monotone_models():
            result = solve(model, SolverConfig(node_limit=limit))
            assert result.nodes_explored <= limit
            below = solve(model, SolverConfig(node_limit=limit - 1))
            assert canonical_result(result) == canonical_result(below)
            stops += result.status == "NodeLimit"
        assert stops > 0

    def test_time_limit(self, worked_rankings):
        rng = random.Random(4242)
        for _ in range(100):
            model = random_binary_program(rng, max_vars=16, max_rows=16)
            result = solve(model, SolverConfig(time_limit=1e-9))
            if result.status == "TimeLimit":
                return
        pytest.fail("time limit never triggered")

    def test_incumbent_passes_exact_check(self):
        rng = random.Random(77)
        for _ in range(20):
            model = random_binary_program(rng, max_vars=12, max_rows=10)
            result = solve(model)
            if result.status == "Optimal":
                report = check_assignment(
                    model,
                    result.incumbent,
                    solver_module.FEASIBILITY_TOL,
                    solver_module.INTEGRALITY_TOL,
                )
                assert report.ok
                assert abs(result.objective - result.bound) <= solver_module.OPTIMALITY_TOL

    def test_bound_monotone_incumbent_monotone(self):
        # The search is deterministic and checks the node limit at the top
        # of its loop, so the limits 1..N-1 stop one search at successive
        # states of the unlimited one. Every objective here is integral,
        # so the bounds are whole numbers and compare exactly.
        stops = 0
        for model in monotone_models():
            final = solve(model)
            limited = [
                solve(model, SolverConfig(node_limit=k))
                for k in range(1, final.nodes_explored)
            ]
            stops += sum(r.status == "NodeLimit" for r in limited)
            sign = 1 if model.objective_sense == "max" else -1
            results = [r for r in limited + [final] if r.bound is not None]
            bounds = [sign * r.bound for r in results]
            assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))
            values = [sign * r.objective for r in results if r.objective is not None]
            assert all(v1 <= v2 + 1e-9 for v1, v2 in zip(values, values[1:]))
        assert stops >= 50

    def test_limit_bound_of_integral_objective_is_rounded_down(self):
        # The best LP values at these stops are 8.999999999999996 and
        # 22.433333333333334.
        models = monotone_models()
        result = solve(models[45], SolverConfig(node_limit=15))
        assert result.status == "NodeLimit"
        assert result.objective == 8
        assert result.bound == 9 and type(result.bound) is int
        result = solve(models[9], SolverConfig(node_limit=1))
        assert result.status == "NodeLimit"
        assert result.bound == 22 and type(result.bound) is int

    def test_limit_bound_of_fractional_objective_is_not_rounded(self):
        model = monotone_models()[9]
        model.set_objective(model.objective_sense, [(x, c / 3) for x, c in model.objective])
        result = solve(model, SolverConfig(node_limit=1))
        assert result.status == "NodeLimit"
        assert result.bound == pytest.approx(22.433333333333334 / 3)

    def test_config_validation(self):
        for limits in (
            {"node_limit": 0},
            {"time_limit": 0},
            {"node_limit": float("nan")},
            {"time_limit": float("nan")},
            {"node_limit": True},
            {"node_limit": False},
            {"node_limit": np.True_},
            {"node_limit": 2.5},
            {"node_limit": 3.0},
            {"node_limit": float("inf")},
            {"node_limit": np.int64(0)},
            {"node_limit": "5"},
            {"time_limit": True},
            {"time_limit": np.True_},
            {"time_limit": -1},
            {"time_limit": "5"},
        ):
            with pytest.raises(ValueError):
                SolverConfig(**limits)
        for limits in (
            {"node_limit": 1},
            {"node_limit": np.int64(20)},
            {"node_limit": np.int32(3)},
            {"time_limit": 1},
            {"time_limit": 0.5},
            {"time_limit": np.float64(2.0)},
            {"time_limit": float("inf")},
        ):
            SolverConfig(**limits)

    def test_warm_and_cold_agree_on_ip(self):
        rng = random.Random(55)
        for _ in range(10):
            model = random_binary_program(rng, max_vars=10, max_rows=8)
            result = solve(model)
            assert (result.status, result.objective) == milp_optimum(model)

    @pytest.mark.parametrize(
        "lower,upper,want",
        [(0.5, 2.5, ("Optimal", 1)), (0.2, 0.8, ("Infeasible", None)), (-2.5, -0.5, ("Optimal", -2))],
    )
    def test_model_without_rows_rounds_integral_bounds(self, lower, upper, want):
        model = LinearProgram("rowless")
        model.add_variable("x", "integer", lower, upper)
        model.set_objective("min", [("x", 1)])
        result = solve(model)
        assert (result.status, result.objective) == want

    def test_answer_outside_its_box_is_rejected(self, monkeypatch):
        # A spread that leaves a class's box, with no row to break: only the
        # bounds in the final check can catch it.
        merge = solver_module._merge_columns

        def faulty(sf):
            merged, spread = merge(sf)
            return merged, lambda x: spread(x) * 2

        monkeypatch.setattr(solver_module, "_merge_columns", faulty)
        model = LinearProgram("twins")
        model.add_variable("a", "binary")
        model.add_variable("b", "binary")
        model.set_objective("max", [("a", 1), ("b", 1)])
        with pytest.raises(SolverError, match="recheck"):
            solve(model)

    def test_rejected_highs_option_raises(self):
        core = solver_module._scipy_extension("optimize._highspy._core")
        highs = core._Highs()
        solver_module._set_option(highs, "output_flag", False)
        with pytest.raises(SolverError, match="presolve"):
            solver_module._set_option(highs, "presolve", "bogus")
        with pytest.raises(SolverError, match="no_such_option"):
            solver_module._set_option(highs, "no_such_option", 1)

    def test_near_integral_point_failing_rows_is_branched(self):
        # The root LP point has x0 = 0.999998: near-integral, but rounding
        # it up breaks the second row; (0, 1, 0) is feasible.
        model = LinearProgram("near-integral")
        for i in range(3):
            model.add_variable(f"x{i}", "binary")
        model.set_objective("max", [("x0", 1), ("x1", 1), ("x2", 1)])
        model.add_constraint([("x0", -10**6), ("x1", -10**6), ("x2", 10**6)], "<=", -1)
        model.add_constraint([("x0", 1000001), ("x2", 1)], "<=", 10**6)
        result = solve(model)
        assert result.status == "Optimal"
        assert result.objective == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_big_coefficients_match_enumeration(self, seed):
        rng = random.Random(9000 + seed)
        for _ in range(40):
            model = random_big_coefficient_program(rng)
            result = solve(model)
            status, best = enumerate_binary_optimum(model)
            assert result.status == status
            if status == "Optimal":
                assert result.objective == best


def test_solve_leaves_scipy_optimize_unimported():
    """A solve loads scipy's HiGHS binding and sparse kernels from their
    files and runs no package init of `scipy`, `scipy.optimize` or
    `scipy.sparse` (a set-up cost in every fresh process). A later import
    of those packages must reuse the loaded extensions, and their entry
    points keep working."""
    src = Path(solver_module.__file__).resolve().parent.parent
    script = textwrap.dedent(
        """
        import sys
        sys.path.insert(0, sys.argv[1])
        import numpy as np
        from ballotcontrol import LinearProgram, solve

        model = LinearProgram("tiny")
        model.add_variable("x", "binary")
        model.add_variable("y", "binary")
        model.set_objective("max", [("x", 2), ("y", 3)])
        model.add_constraint([("x", 1), ("y", 1)], "<=", 1)
        result = solve(model)
        assert (result.status, result.objective) == ("Optimal", 3), result
        sparsetools = sys.modules["scipy.sparse._sparsetools"]
        core = sys.modules["scipy.optimize._highspy._core"]
        # The HiGHS binding registers its own submodules, `_core.cb` and
        # the like; nothing else of scipy may be loaded.
        assert not {"scipy", "scipy.sparse", "scipy.optimize"} & set(sys.modules)
        loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
        assert all(name.startswith((sparsetools.__name__, core.__name__)) for name in loaded), loaded
        from scipy.sparse import _sparsetools, csr_matrix
        assert _sparsetools is sparsetools
        assert (csr_matrix([[1.0, 2.0], [0.0, 3.0]]) @ np.ones(2)).tolist() == [3.0, 3.0]
        from scipy.optimize import linprog, milp
        from scipy.optimize._highspy._core import _Highs
        assert _Highs is core._Highs
        assert linprog([-1.0], bounds=[(0, 2)], method="highs").x[0] == 2.0
        assert milp([-1.0], bounds=(0, 2.5), integrality=[1]).x[0] == 2.0
        print("ok")
        """
    )
    run = subprocess.run(
        [sys.executable, "-c", script, str(src)], capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "ok"
