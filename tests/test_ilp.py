import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ballotcontrol import ilp
from ballotcontrol.core import SUPPORTED_CONTROL_PAIRS
from ballotcontrol import (
    Assignment,
    CheckReport,
    ControlSpec,
    Election,
    LinearConstraint,
    LinearProgram,
    add_alternative_block,
    build_problem,
    check_assignment,
    export_lp,
    export_mps,
    parse_lp,
    solve,
)
from genutil import (
    models_equal,
    random_big_coefficient_program,
    random_binary_program,
    random_election,
    random_score_election,
)


def tiny_model():
    model = LinearProgram("tiny")
    model.add_variable("x", "binary")
    model.set_objective("max", [("x", 1)])
    model.add_constraint([("x", 1)], "<=", 1, tag="cap")
    return model


class TestTypes:
    def test_binary_bounds_enforced(self):
        model = LinearProgram()
        with pytest.raises(ValueError):
            model.add_variable("x", "binary", lower=0, upper=2)

    def test_duplicate_variable_in_terms(self):
        with pytest.raises(ValueError):
            LinearConstraint((("x", 1), ("x", 2)), "<=", 1)

    def test_duplicate_variable_in_objective(self):
        model = LinearProgram()
        model.add_variable("x", "binary")
        model.add_variable("y", "binary")
        with pytest.raises(ValueError, match="duplicate variable in objective"):
            model.set_objective("max", [("x", 1), ("x", 1), ("y", 1)])

    def test_undeclared_variable_rejected(self):
        model = LinearProgram()
        with pytest.raises(ValueError):
            model.add_constraint([("ghost", 1)], "<=", 0)


class TestAlternativeBlock:
    def test_single_alternative_must_hold(self):
        model = LinearProgram()
        x = model.add_variable("x", "binary")
        model.set_objective("max", [(x, 1)])
        alt = [(((x, 1),), 0, "only")]
        names = add_alternative_block(model, [alt], ["y"], "pick")
        assert names == ["y"]
        assert model.constraints[-1].tag == "pick"
        # y forced to 1, so x <= 0 must hold: x=1 infeasible, x=0 feasible
        good = Assignment({"x": 0, names[0]: 1})
        bad = Assignment({"x": 1, names[0]: 1})
        assert check_assignment(model, good).ok
        assert not check_assignment(model, bad).ok

    def test_rejects_empty_and_unnamed_alternatives(self):
        model = LinearProgram()
        x = model.add_variable("x", "binary")
        with pytest.raises(ValueError):
            add_alternative_block(model, [], [], "pick")
        with pytest.raises(ValueError):
            add_alternative_block(model, [[]], ["y"], "pick")
        with pytest.raises(ValueError):
            add_alternative_block(model, [[(((x, 1),), 0, "")]], [], "pick")

    def test_too_small_big_m_rejected(self):
        model = LinearProgram()
        x = model.add_variable("x", "binary")
        with pytest.raises(ValueError):
            add_alternative_block(model, [[(((x, 5),), 0, "")]], ["y"], "pick", big_m=1)

    @pytest.mark.parametrize("seed", range(12))
    def test_k1_feasibility_matches_direct_disjunction(self, seed):
        rng = random.Random(seed)
        base = LinearProgram()
        xs = [base.add_variable(f"x{i}", "binary") for i in range(3)]
        base.set_objective("max", [(x, 1) for x in xs])
        alts = []
        for a in range(rng.randint(1, 3)):
            terms = tuple((x, rng.randint(-3, 3)) for x in xs)
            alts.append([(terms, rng.randint(-2, 2), f"alt{a}")])
        names = add_alternative_block(base, alts, [f"y{a}" for a in range(len(alts))], "pick")
        for bits in itertools.product((0, 1), repeat=3):
            x_vals = dict(zip(xs, bits))
            holds_any = any(
                all(sum(c * x_vals[x] for x, c in terms) <= rhs for terms, rhs, _ in alt)
                for alt in alts
            )
            block_feasible = False
            for ybits in itertools.product((0, 1), repeat=len(names)):
                point = dict(x_vals)
                point.update(zip(names, ybits))
                if check_assignment(base, Assignment(point)).ok:
                    block_feasible = True
                    break
            assert block_feasible == holds_any


class TestCheckAssignment:
    def test_all_zero_violates_lower_bounds(self):
        model = LinearProgram()
        xs = [model.add_variable(f"x{i}", "binary") for i in range(3)]
        model.set_objective("max", [(x, 1) for x in xs])
        model.add_constraint([(x, 1) for x in xs], ">=", 1, tag="need-one")
        report = check_assignment(model, Assignment({x: 0 for x in xs}))
        assert [tag for _, tag, _ in report.violations] == ["need-one"]

    def test_feasible_point_clean(self):
        model = tiny_model()
        report = check_assignment(model, Assignment({"x": 1}))
        assert report.ok
        assert report.objective == 1

    def test_fractional_binary_reported(self):
        model = tiny_model()
        report = check_assignment(model, Assignment({"x": 0.5}))
        assert report.integrality == (("x", 0.5),)

    def test_missing_value_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            check_assignment(model, Assignment({}))

    def test_exact_on_integer_data(self):
        model = LinearProgram()
        x = model.add_variable("x", "integer", 0, 10)
        model.set_objective("max", [(x, 1)])
        model.add_constraint([(x, 3)], "<=", 9, tag="row")
        assert check_assignment(model, Assignment({"x": 3}), feas_tol=0).ok
        assert not check_assignment(model, Assignment({"x": 4}), feas_tol=0).ok

    def test_value_outside_bounds_reported(self):
        model = LinearProgram()
        model.add_variable("y", "binary")
        model.add_variable("z", "continuous", Fraction(1, 3), 2)
        model.set_objective("max", [("y", 1)])
        report = check_assignment(model, Assignment({"y": 7, "z": 0.3}))
        assert (report.violations, report.integrality) == ((), ())
        assert report.bounds == (("y", 7), ("z", 0.3))
        assert not report.ok
        # A bound is missed by more than feas_tol, as a row is.
        report = check_assignment(model, Assignment({"y": 1, "z": 0.3}), feas_tol=0.05)
        assert report.ok

    def test_nan_value_violates_its_rows_and_bounds(self):
        model = LinearProgram()
        model.add_variable("u", "continuous", 0, 1)
        model.set_objective("max", [("u", 1)])
        model.add_constraint([("u", 2)], "<=", 1, tag="half")
        report = check_assignment(model, Assignment({"u": math.nan}), feas_tol=1e-6)
        assert [tag for _, tag, _ in report.violations] == ["half"]
        assert [name for name, _ in report.bounds] == ["u"]
        assert not report.ok

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind, upper", [("binary", 1), ("integer", 5)])
    def test_nan_or_infinite_integral_value_is_reported(self, kind, upper, value):
        """An integral column's NaN or infinite value has no nearest
        integer: it is an integrality and a bound violation, not an error."""
        model = LinearProgram()
        model.add_variable("x", kind, 0, upper)
        model.set_objective("max", [("x", 1)])
        report = check_assignment(model, Assignment({"x": value}), feas_tol=1e-6, int_tol=1e-6)
        assert [name for name, _ in report.integrality] == ["x"]
        assert [name for name, _ in report.bounds] == ["x"]
        assert not report.ok


@pytest.mark.parametrize("coef, rhs", [(math.nan, 0), (math.inf, 0), (1, math.nan)])
@pytest.mark.parametrize("form", ["terms", "rows", "arrays"])
def test_rows_with_nan_or_infinite_coefficients_are_rejected(form, coef, rhs):
    """`nan·x <= 0` on a binary x used to solve to Optimal 1, and a NaN
    right-hand side passed the exact gate at every point."""
    model = LinearProgram("nan")
    model.add_variable("x", "binary")
    model.set_objective("max", [("x", 1)])
    with pytest.raises(ValueError, match="not (finite|a number)"):
        if form == "terms":
            model.add_constraint([("x", coef)], "<=", rhs)
        elif form == "rows":
            model.add_rows([0, 1], [0], [coef], ["<="], [rhs], [""])
        else:
            arrays = np.array([0, 1]), np.array([0]), np.array([coef])
            model.add_rows(*arrays, ["<="], np.array([rhs]), [""])
    assert model.constraints == ()


@pytest.mark.parametrize("lower, upper", [(math.nan, 3), (0, math.nan), (math.nan, math.nan)])
def test_variable_with_a_nan_bound_is_rejected(lower, upper):
    with pytest.raises(ValueError, match="lower bound exceeds upper bound"):
        ilp.Variable("z", "integer", lower, upper)


@pytest.mark.parametrize("coef", [math.nan, -math.inf, np.float64("nan")])
def test_objective_with_a_nan_or_infinite_coefficient_is_rejected(coef):
    model = tiny_model()
    with pytest.raises(ValueError, match="objective coefficient"):
        model.set_objective("min", [("x", coef)])
    assert model.objective == (("x", 1),)


def integer_program(rng):
    """Random program over plain ints: binary, integer and continuous
    columns, rows of all three senses with negative and zero coefficients,
    empty rows, and a point of ints inside or outside the bounds."""
    model = LinearProgram("integers")
    names = []
    for i in range(rng.randint(1, 8)):
        kind = rng.choice(("binary", "integer", "continuous"))
        lower, upper = (0, 1) if kind == "binary" else sorted(rng.randint(-6, 6) for _ in "lu")
        names.append(model.add_variable(f"x{i}", kind, lower, upper))
    model.set_objective(
        rng.choice(("max", "min")), [(x, rng.randint(-5, 5)) for x in names if rng.random() < 0.7]
    )
    for k in range(rng.randint(0, 8)):
        terms = [(x, rng.randint(-9, 9)) for x in names if rng.random() < 0.6]
        model.add_constraint(terms, rng.choice(("<=", ">=", "=")), rng.randint(-20, 20), f"r{k}")
    return model, {x: rng.randint(-8, 8) for x in names}


def typed(found):
    """The lists of a check with each number paired with its type."""
    return [[tuple((v, type(v)) for v in item) for item in part] for part in found]


def assert_python_report(model, point, feas_tol, int_tol):
    """`check_assignment` equals the report of the term-by-term path."""
    want = ilp._check_python(model, point, feas_tol, int_tol)
    report = check_assignment(model, Assignment(point), feas_tol, int_tol)
    assert report == CheckReport(model.objective_value(point), *map(tuple, want))
    assert typed((report.violations, report.integrality, report.bounds)) == typed(want)


TOLERANCES = (0, 1, 2, 1e-9, 1e-6, 0.5, 2.5, -1, -0.5, Fraction(5, 2))


@pytest.mark.parametrize("seed", range(4))
def test_int64_check_matches_python_check(seed):
    rng = random.Random(f"check/{seed}")
    reported = 0
    for _ in range(100):
        model, point = integer_program(rng)
        feas_tol, int_tol = rng.choice(TOLERANCES), rng.choice((0, 1e-5, 0.5))
        fast = ilp._check_int64(model, point, feas_tol, int_tol)
        assert fast is not None
        assert typed(fast) == typed(ilp._check_python(model, point, feas_tol, int_tol))
        assert_python_report(model, point, feas_tol, int_tol)
        reported += bool(fast[0]) + bool(fast[2])
        # A negative integrality tolerance flags every integral value, and
        # is left to Python.
        assert ilp._check_int64(model, point, feas_tol, -1) is None
        assert_python_report(model, point, feas_tol, -1)
    assert reported >= 50


def fallback_program(coef=3, rhs=4, lower=-2):
    model = LinearProgram("fallback")
    model.add_variable("x", "integer", lower, 5)
    model.add_variable("y", "integer", -2, 5)
    model.set_objective("max", [("x", 1)])
    model.add_constraint([("x", coef), ("y", coef)], "<=", rhs, "row")
    model.add_constraint([("y", 1)], ">=", 7, "y-big")
    return model


FALLBACKS = {
    "fraction": ({"coef": Fraction(1, 2)}, {"x": 3, "y": 6}),
    "float": ({"coef": 2.0}, {"x": 3, "y": 6}),
    "bool": ({"coef": True}, {"x": 3, "y": 6}),
    "2**62": ({"coef": 2**62}, {"x": 3, "y": 6}),
    "2**63": ({"coef": 2**63}, {"x": 3, "y": 6}),
    "float-rhs": ({"rhs": 4.0}, {"x": 3, "y": 6}),
    "fraction-bound": ({"lower": Fraction(-3, 2)}, {"x": 3, "y": 6}),
    "float-value": ({}, {"x": 3.0, "y": 6}),
    "huge-value": ({}, {"x": 2**62, "y": 6}),
}


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_check_falls_back_to_python(case):
    change, point = FALLBACKS[case]
    model = fallback_program(**change)
    for feas_tol, int_tol in ((0, 0), (1e-6, 1e-5), (0.5, 0)):
        assert ilp._check_int64(model, point, feas_tol, int_tol) is None
        assert_python_report(model, point, feas_tol, int_tol)


def test_row_table_follows_the_model():
    model, _ = integer_program(random.Random(3))
    table = model.row_table()
    assert model.row_table() is table
    model.add_variable("late", "binary")
    assert model.row_table() is not table
    table = model.row_table()
    model.add_constraint([("late", 1)], "<=", 1)
    assert model.row_table().indptr.size == table.indptr.size + 1


def test_solve_after_a_cut_sees_the_new_row():
    model = LinearProgram("cut")
    xs = [model.add_variable(f"x{i}", "integer", 0, 4) for i in range(3)]
    model.set_objective("max", [(x, c) for x, c in zip(xs, (3, 2, 1))])
    model.add_constraint([(x, 1) for x in xs], "<=", 5)
    first = solve(model)
    assert (first.status, first.objective) == ("Optimal", 14)
    model.add_constraint([(xs[0], 1)], "<=", 2, "cut")
    second = solve(model)
    assert (second.status, second.objective) == ("Optimal", 12)
    assert second.incumbent.values == {"x0": 2, "x1": 3, "x2": 0}


def test_rejected_variable_is_not_declared():
    model = LinearProgram("aliasing")
    with pytest.raises(ValueError):
        model.add_variable("ghost", "binary", 0, 2)
    model.add_variable("x", "binary")
    model.set_objective("max", [("x", 1)])
    with pytest.raises(ValueError, match="undeclared variable 'ghost'"):
        model.add_constraint([("ghost", 1)], "<=", 0)
    assert [v.name for v in model.variables] == ["x"]
    assert "ghost" not in export_lp(model)
    result = solve(model)
    assert (result.status, result.objective) == ("Optimal", 1)


def rejection_model():
    model = LinearProgram("rejections")
    model.add_variable("x", "binary")
    model.add_variable("z", "integer", 0, 3)
    model.set_objective("max", [("x", 2), ("z", 1)])
    model.add_constraint([("x", 1), ("z", 1)], "<=", 3, "cap")
    model.add_constraint([("z", 1)], ">=", 1, "floor")
    return model


def block(names, big_m=None, second=(("x", 1), ("z", 5)), rhs=0):
    """An alternative block call whose second alternative is the row
    `second <= rhs`."""
    alternatives = [[((("x", 1),), 0, "a1")], [(second, rhs, "a2")]]
    return lambda model: add_alternative_block(model, alternatives, names, "pick", big_m)


def rows_call(indptr, cols, coefs, senses=("<=", ">="), rhs=(1, 0), tags=("t1", "t2")):
    """An add_rows call over numpy arrays of the given CSR rows."""
    arrays = np.array(indptr), np.array(cols), np.array(coefs)
    return lambda model: model.add_rows(*arrays, senses, np.array(rhs), tags)


REJECTED = {
    "variable-taken": (lambda model: model.add_variable("x", "binary"), ValueError),
    "variable-binary-bounds": (lambda model: model.add_variable("w", "binary", 0, 2), ValueError),
    "variable-kind": (lambda model: model.add_variable("w", "boolean"), ValueError),
    "variable-crossed-bounds": (lambda model: model.add_variable("w", "integer", 3, 1), ValueError),
    "constraint-undeclared": (
        lambda model: model.add_constraint([("x", 1), ("ghost", 1)], "<=", 1),
        ValueError,
    ),
    "constraint-duplicate": (
        lambda model: model.add_constraint([("x", 1), ("z", 1), ("x", 2)], "<=", 1),
        ValueError,
    ),
    "constraint-sense": (lambda model: model.add_constraint([("x", 1)], "<", 1), ValueError),
    "block-big-m": (block(["y1", "y2"], big_m=1), ValueError),
    "block-taken-name": (block(["y1", "z"]), ValueError),
    "block-repeated-name": (block(["y1", "y1"]), ValueError),
    "block-name-count": (block(["y1"]), ValueError),
    "block-undeclared": (block(["y1", "y2"], second=(("ghost", 1),)), KeyError),
    # Rows that would fail in add_constraint once the indicators exist.
    "block-duplicate": (block(["y1", "y2"], second=(("z", 1), ("z", 5))), ValueError),
    "block-nan-rhs": (block(["y1", "y2"], rhs=math.nan), ValueError),
    "block-nan-coef": (block(["y1", "y2"], second=(("z", math.nan),)), ValueError),
    "block-nan-big-m": (block(["y1", "y2"], big_m=math.nan), ValueError),
    "block-infinite-big-m": (block(["y1", "y2"], rhs=-math.inf), ValueError),
    "variable-nan-bound": (
        lambda model: model.add_variable("w", "integer", math.nan, 3),
        ValueError,
    ),
    "constraint-nan-coef": (
        lambda model: model.add_constraint([("x", math.nan)], "<=", 0),
        ValueError,
    ),
    "constraint-infinite-coef": (
        lambda model: model.add_constraint([("z", 1), ("x", -math.inf)], "<=", 0),
        ValueError,
    ),
    "constraint-nan-rhs": (
        lambda model: model.add_constraint([("x", 1)], "<=", math.nan),
        ValueError,
    ),
    "objective-nan-coef": (lambda model: model.set_objective("min", [("x", math.nan)]), ValueError),
    # add_rows blocks whose last row is bad, so nothing before it may stick.
    "rows-column-range": (rows_call([0, 1, 2], [0, 2], [1, 1]), ValueError),
    "rows-negative-column": (rows_call([0, 1, 2], [1, -1], [1, 1]), ValueError),
    "rows-duplicate": (rows_call([0, 1, 3], [0, 1, 1], [1, 2, 3]), ValueError),
    "rows-sense": (rows_call([0, 1, 2], [0, 1], [1, 1], senses=("<=", "<")), ValueError),
    "rows-rhs-count": (rows_call([0, 1, 2], [0, 1], [1, 1], rhs=(1,)), ValueError),
    "rows-tag-count": (rows_call([0, 1, 2], [0, 1], [1, 1], tags=("t1", "t2", "t3")), ValueError),
    "rows-coef-count": (rows_call([0, 1, 2], [0, 1], [1, 1, 1]), ValueError),
    "rows-indptr-end": (rows_call([0, 1, 3], [0, 1], [1, 1]), ValueError),
    "rows-indptr-start": (rows_call([1, 1, 2], [0, 1], [1, 1]), ValueError),
    "rows-indptr-decreasing": (rows_call([0, 2, 1], [0, 1], [1, 1]), ValueError),
    "rows-indptr-empty": (rows_call([], [], [], senses=(), rhs=(), tags=()), ValueError),
    "rows-float-columns": (rows_call([0, 1, 2], [0.0, 1.0], [1, 1]), ValueError),
    "rows-nan-coef": (rows_call([0, 1, 2], [0, 1], [1, math.nan]), ValueError),
    "rows-infinite-coef": (rows_call([0, 1, 2], [0, 1], [1, math.inf]), ValueError),
    "rows-nan-rhs": (rows_call([0, 1, 2], [0, 1], [1, 1], rhs=(1, math.nan)), ValueError),
    # add_variables blocks whose last name or whose shared kind or bounds are bad.
    "variables-repeated": (lambda model: model.add_variables(["w", "v", "w"]), ValueError),
    "variables-taken": (lambda model: model.add_variables(["w", "z"], "integer", 0, 3), ValueError),
    "variables-kind": (lambda model: model.add_variables(["w", "v"], "boolean"), ValueError),
    "variables-binary-bounds": (
        lambda model: model.add_variables(["w", "v"], "binary", 0, 2),
        ValueError,
    ),
    "variables-crossed-bounds": (
        lambda model: model.add_variables(["w", "v"], "integer", 3, 1),
        ValueError,
    ),
    "variables-nan-bound": (
        lambda model: model.add_variables(["w", "v"], "continuous", 0, math.nan),
        ValueError,
    ),
}


def model_state(model):
    table = model.row_table()
    arrays = [(a.dtype, a.tolist()) for a in (table.indptr, table.indices, table.coefs)]
    store = [model._index, model._names, model._kinds, model._lower, model._upper]
    views = list(model.variables), model.constraints, model.objective
    return (*views, arrays, export_lp(model), store)


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_call_leaves_the_model_unchanged(case):
    call, error = REJECTED[case]
    model = rejection_model()
    before = model_state(model)
    with pytest.raises(error):
        call(model)
    assert model_state(model) == before


class TestLpFormat:
    def test_canonical_sections(self):
        text = export_lp(tiny_model())
        for section in ("Maximize", "Subject To", "Bounds", "Binaries", "End"):
            assert section in text

    def test_round_trip_tiny(self):
        model = tiny_model()
        assert models_equal(model, parse_lp(export_lp(model)))

    def test_round_trip_preserves_tags(self):
        model = tiny_model()
        parsed = parse_lp(export_lp(model))
        assert parsed.constraints[0].tag == "cap"

    def test_round_trip_negative_and_integer(self):
        model = LinearProgram("mix")
        model.add_variable("b", "integer", 1, 7)
        model.add_variable("u", "continuous", -3, 5)
        model.set_objective("min", [("b", -2), ("u", 1)])
        model.add_constraint([("b", -1), ("u", 4)], ">=", -2, tag="row")
        assert models_equal(model, parse_lp(export_lp(model)))

    @pytest.mark.parametrize(
        "word",
        ["end", "End", "maximize", "MINIMIZE", "bounds", "Binaries", "generals", "ZERO_TERMS"],
    )
    def test_lp_section_words_as_names_round_trip(self, word):
        """A binary named like an LP section word was read back as a
        continuous column (its Binaries line ended the section), and a
        variable named ZERO_TERMS was dropped from every row."""
        model = LinearProgram("words")
        model.add_variable(word, "binary")
        model.add_variable("u", "continuous", 0, 1)
        model.set_objective("max", [(word, 1), ("u", 1)])
        model.add_constraint([(word, 2)], "<=", 1, tag="half")
        model.add_constraint([("u", 1), (word, -1)], "<=", 0, tag="follow")
        parsed = parse_lp(export_lp(model))
        assert [v.name for v in parsed.variables] == [ilp.sanitize_name(word), "u"]
        assert ilp.sanitize_name(word) == f"v{word}"
        assert [v.kind for v in parsed.variables] == ["binary", "continuous"]
        assert [len(c.terms) for c in parsed.constraints] == [1, 2]
        assert solve(model).objective == solve(parsed).objective == 0
        model.add_variable(f"v{word}", "binary")
        with pytest.raises(ValueError, match="collision"):
            export_lp(model)

    def test_sanitization_collision_rejected(self):
        model = LinearProgram()
        model.add_variable("a b", "binary")
        model.add_variable("a_b", "binary")
        model.set_objective("max", [("a b", 1)])
        with pytest.raises(ValueError):
            export_lp(model)

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_random_encoder_models(self, seed, worked_election):
        rng = random.Random(seed)
        if seed % 2:
            election = random_election(rng, rng.randint(1, 5), rng.randint(2, 4))
            spec = ControlSpec("bucklin", "delete-voters", "constructive", 1)
        else:
            election = random_score_election(rng, rng.randint(1, 5), rng.randint(2, 4), 4)
            spec = ControlSpec("range", "delete-voters", "constructive", 1)
        problem, _, _ = build_problem(election, spec)
        assert models_equal(problem.model, parse_lp(export_lp(problem.model)))


class TestMpsFormat:
    def test_integer_bounds_use_li_ui(self, worked_election):
        spec = ControlSpec("maximin", "delete-voters", "constructive", 1)
        problem, _, _ = build_problem(worked_election, spec)
        text = export_mps(problem.model)
        assert " LI BND       b" in text
        assert " UI BND       b" in text
        for section in ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
            assert section in text
        assert "'INTORG'" in text and "'INTEND'" in text

    def test_binaries_marked(self):
        text = export_mps(tiny_model())
        assert " BV BND       x" in text

    def test_long_names_readable_by_highs(self, tmp_path):
        # m = n = 10 gives the ten-character column y_10_10_10, which must
        # stay apart from the row name that follows it.
        election = random_election(random.Random(10), 10, 10)
        spec = ControlSpec("bucklin", "delete-candidates", "constructive", 2)
        problem, _, _ = build_problem(election, spec)
        text = export_mps(problem.model)
        assert "    y_10_10_10 r" in text
        assert_highs_solves_like_solve(problem.model, text, tmp_path / "bucklin.mps")


def assert_highs_solves_like_solve(model, mps, path):
    """HiGHS reads the MPS text `mps` and finds `solve`'s optimum of `model`."""
    from ballotcontrol.solver import _scipy_extension

    core = _scipy_extension("optimize._highspy._core")
    path.write_text(mps)
    highs = core._Highs()
    highs.setOptionValue("output_flag", False)
    assert highs.readModel(str(path)) == core.HighsStatus.kOk
    highs.run()
    result = solve(model)
    assert result.status == "Optimal"
    assert highs.getModelStatus() == core.HighsModelStatus.kOptimal
    assert highs.getInfo().objective_function_value == pytest.approx(result.objective)


def number_edge_model():
    """Every kind of number the exports accept, names that need sanitizing
    or run past a field, and column kinds interleaved so the MPS integer
    markers open and close several times."""
    model = LinearProgram("number edges")
    model.add_variable("a b", "binary")
    model.add_variable("1x", "integer", Fraction(-2), 7)
    model.add_variable(".x", "continuous", -0.5, 2.0)
    model.add_variable("long_name_0123", "binary")
    model.add_variable("y", "integer", 0, Fraction(9, 2))
    model.add_variable("z", "continuous", -1e20, 1e20)
    model.add_variable("unused_column", "integer", 0, 3)
    model.add_variable("b2", "binary")
    model.add_variable("c", "continuous", Fraction(1, 3), True)
    model.set_objective(
        "min",
        [
            ("a b", Fraction(1, 2)),
            ("1x", -3),
            (".x", 2.0),
            ("long_name_0123", True),
            ("y", -0.0),
            ("z", 1e-05),
            ("c", Fraction(-7, 2)),
        ],
    )
    model.add_constraint(
        [("a b", Fraction(3, 1)), ("1x", 0.5), ("long_name_0123", -1e20)],
        "<=",
        Fraction(7, 2),
        tag="fractions and floats",
    )
    model.add_constraint([], ">=", 0, tag="no terms")
    model.add_constraint([(".x", -2.5), ("y", 0), ("z", 1), ("b2", -1)], "=", 0.0)
    model.add_constraint([("c", True), ("a b", -Fraction(1, 2)), ("y", 1e-05)], ">=", -1e-05)
    model.add_constraint([("z", -0.0), ("1x", 2)], "<=", 0)
    model.add_constraint([("b2", -7), ("long_name_0123", 3)], "<=", -4, tag="negative first")
    model.add_constraint([("1x", 1e20), ("c", -Fraction(3, 1)), ("y", 2**53 + 1)], "=", True)
    return model


def empty_objective_model():
    """No objective, integer columns in the middle and at the end, and a
    ten-character bracketed name."""
    model = LinearProgram("empty objective")
    model.add_variable("u", "continuous", 0, 5)
    model.add_variable("k[10]_long", "integer", -3, 3)
    model.add_variable("v", "continuous", -1, 1)
    model.add_variable("w", "binary")
    model.add_variable("n", "integer", 0, 10**6)
    model.add_constraint([("k[10]_long", -1), ("n", 1)], ">=", -3)
    model.add_constraint([("u", 1), ("w", -1)], "<=", 0)
    return model


def export_edge_models(kind):
    """The hand-built programs, or 50 seeded draws of one random generator."""
    if kind == "hand-built":
        return [number_edge_model(), empty_objective_model(), LinearProgram("nothing")]
    rng = random.Random(f"export/{kind}")
    make = {
        "random-binary": random_binary_program,
        "random-big-coefficient": random_big_coefficient_program,
    }[kind]
    return [make(rng) for _ in range(50)]


# SHA-256 over the LP and MPS exports of each group, computed before the
# writers looked numbers and names up per call instead of formatting each
# occurrence.
EXPORT_GOLDEN = {
    "hand-built": "154b255a7cfa2c41b8f71082380a64a60aa765e1d8ff56ad0171bdf43ab42062",
    "random-binary": "f19994eb40f80fc7ed77602b28e11a8e5fbbc10537f3d53099a07522b2d42da4",
    "random-big-coefficient": (
        "d54f134a2da200a2596098b5bc39ff0350b6789e17b32da14af21a3ee2056d79"
    ),
}


def export_digest(kind):
    digest = hashlib.sha256()
    for model in export_edge_models(kind):
        digest.update(export_lp(model).encode())
        digest.update(export_mps(model).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("kind", sorted(EXPORT_GOLDEN))
def test_export_edge_cases_golden(kind):
    assert export_digest(kind) == EXPORT_GOLDEN[kind], f"the {kind} exports changed"


def oracle_terms(cols, coefs, names, numbers):
    """LP text of one row's terms, written term by term."""
    if not cols:
        return "0 ZERO_TERMS"
    text = " ".join(
        f"- {numbers[-coef]} {names[j]}" if coef < 0 else f"+ {numbers[coef]} {names[j]}"
        for j, coef in zip(cols, coefs)
    )
    return text[2:] if text[0] == "+" else text


def oracle_export_lp(model):
    """`export_lp` written a line at a time and a term at a time, the
    reference for the array-built writer."""
    names = ilp._sanitized_names(model)
    numbers = ilp._NumberText()
    obj_cols = [model._index[name] for name, _ in model.objective]
    obj_coefs = [coef for _, coef in model.objective]
    lines = [f"\\ Problem: {model.name}"]
    lines.append("Maximize" if model.objective_sense == "max" else "Minimize")
    lines.append(f" obj: {oracle_terms(obj_cols, obj_coefs, names, numbers)}")
    lines.append("Subject To")
    for idx, (cols, coefs, sense, rhs, tag) in enumerate(model._row_items(), start=1):
        if tag:
            lines.append(f"\\ tag: {tag}")
        lines.append(f" r{idx}: {oracle_terms(cols, coefs, names, numbers)} {sense} {numbers[rhs]}")
    lines.append("Bounds")
    for var, name in zip(model.variables, names):
        if var.kind != "binary":
            lines.append(f" {numbers[var.lower]} <= {name} <= {numbers[var.upper]}")
    for section, kind in (("Binaries", "binary"), ("Generals", "integer")):
        listed = [f" {name}" for var, name in zip(model.variables, names) if var.kind == kind]
        if listed:
            lines += [section, *listed]
    lines.append("End")
    return "\n".join(lines) + "\n"


def oracle_export_mps(model):
    """`export_mps` with each column's entries collected term by term, the
    reference for the array-built writer."""
    names = ilp._sanitized_names(model)
    numbers = ilp._NumberText()
    lines = [f"NAME          {model.name}", "OBJSENSE"]
    lines.append(f"    {'MAX' if model.objective_sense == 'max' else 'MIN'}")
    lines += ["ROWS", " N  COST"]
    rows = [f"r{idx}" for idx in range(1, len(model._senses) + 1)]
    lines += [f" {ilp._MPS_SENSE[sense]}  {row}" for sense, row in zip(model._senses, rows)]
    fields = [f"{row:<9} " for row in rows]
    entries = [[] for _ in model.variables]
    for name, coef in model.objective:
        entries[model._index[name]].append(f"COST      {numbers[coef]}")
    for field, (cols, coefs, *_) in zip(fields, model._row_items()):
        for j, coef in zip(cols, coefs):
            entries[j].append(field + numbers[coef])
    lines.append("COLUMNS")
    in_integer_block = False
    markers = 0
    for var, name, column in zip(model.variables, names, entries):
        if var.is_integral != in_integer_block:
            in_integer_block = var.is_integral
            markers += 1
            kind = "INTORG" if in_integer_block else "INTEND"
            lines.append(f"    MARKER{markers:04d}  'MARKER'                 '{kind}'")
        head = f"    {name:<9} "
        lines += [head + entry for entry in column] or [f"{head}COST      0"]
    if in_integer_block:
        lines.append(f"    MARKER{markers + 1:04d}  'MARKER'                 'INTEND'")
    lines.append("RHS")
    for field, rhs in zip(fields, model._rhs):
        if rhs != 0:
            lines.append(f"    RHS       {field}{numbers[rhs]}")
    lines.append("BOUNDS")
    for var, name in zip(model.variables, names):
        if var.kind == "binary":
            lines.append(f" BV BND       {name}")
        else:
            low, up = ("LI", "UI") if var.kind == "integer" else ("LO", "UP")
            lines.append(f" {low} BND       {name:<9} {numbers[var.lower]}")
            lines.append(f" {up} BND       {name:<9} {numbers[var.upper]}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def assert_oracle_exports(model):
    assert export_lp(model) == oracle_export_lp(model)
    assert export_mps(model) == oracle_export_mps(model)


def oracle_edge_model():
    """Numbers whose text the writers must take from the exact values (an
    int beyond int64, True, Fraction(3, 1), Fraction(1, 3), 0.5, -0.0, 0),
    a row with no terms, rows with right-hand side 0, a column in no row
    and not in the objective, and an integer column last."""
    model = LinearProgram("oracle edges")
    model.add_variable("a", "binary")
    model.add_variable("b", "continuous", -3, 3)
    model.add_variable("idle", "continuous", 0, 5)
    model.add_variable("k", "integer", 0, 9)
    model.set_objective("max", [("a", 2**70), ("k", Fraction(1, 3))])
    model.add_constraint([("a", 2**64 + 1), ("b", True), ("k", Fraction(3, 1))], "<=", 2**65)
    model.add_constraint([("b", Fraction(1, 3)), ("a", 0.5)], ">=", 0, tag="thirds")
    model.add_constraint([], "=", 0, tag="empty")
    model.add_constraint([("k", -0.0), ("a", 0), ("b", -2**66)], "<=", -0.0)
    model.add_constraint([("k", 1), ("b", -(2**63))], "=", 0)
    return model


def encoder_models():
    """Every rule, action and mode at small sizes, and Bucklin candidate
    deletion at m = n = 10, whose names run past the MPS name field."""
    rng = random.Random("writer oracle")
    models = []
    sizes = ((1, 1), (2, 3), (4, 4), (5, 3))
    for rule, action in sorted(SUPPORTED_CONTROL_PAIRS):
        for mode, (n, m) in itertools.product(("constructive", "destructive"), sizes):
            if rule == "range":
                election = random_score_election(rng, n, m, 4)
            else:
                election = random_election(rng, n, m)
            spec = ControlSpec(rule, action, mode, rng.randint(1, m))
            models.append(build_problem(election, spec)[0].model)
    for mode in ("constructive", "destructive"):
        spec = ControlSpec("bucklin", "delete-candidates", mode, 2)
        models.append(build_problem(random_election(rng, 10, 10), spec)[0].model)
    return models


@pytest.mark.parametrize("kind", sorted(EXPORT_GOLDEN))
def test_writers_match_the_term_by_term_oracle_on_edge_models(kind):
    for model in export_edge_models(kind):
        assert_oracle_exports(model)


def test_writers_match_the_term_by_term_oracle_on_encoder_models():
    for model in encoder_models():
        assert_oracle_exports(model)


def test_writers_take_numbers_from_the_exact_values():
    model = oracle_edge_model()
    assert model.row_table().coefs.dtype == np.float64
    assert_oracle_exports(model)
    lp = export_lp(model)
    assert f" r1: {2**64 + 1} a + 1 b + 3 k <= {2**65}\n" in lp
    assert f" obj: {2**70} a + 0.3333333333333333 k\n" in lp
    assert " r2: 0.3333333333333333 b + 0.5 a >= 0\n" in lp
    assert " r3: 0 ZERO_TERMS = 0\n" in lp
    assert f" r4: 0 k + 0 a - {2**66} b <= 0\n" in lp
    mps = export_mps(model)
    assert f"    a         COST      {2**70}\n    a         r1        {2**64 + 1}\n" in mps
    assert "    idle      COST      0\n" in mps
    assert f"'INTEND'\nRHS\n    RHS       r1        {2**65}\nBOUNDS\n" in mps


def numpy_number_model():
    """Coefficients, right-hand sides and bounds given as numpy scalars."""
    model = LinearProgram("numpy numbers")
    model.add_variable("x", "integer", np.int64(0), np.int64(3))
    model.add_variable("y", "continuous", np.float64(-1.5), np.float32(2.0))
    model.set_objective("max", [("x", np.int32(3)), ("y", np.float64(0.5))])
    model.add_constraint([("x", np.int64(2))], "<=", 1)
    model.add_constraint([("x", np.int64(-4)), ("y", np.float64(2.0))], ">=", np.int64(-7))
    model.add_constraint([("y", np.float32(0.25)), ("x", np.uint8(1))], "<=", np.float64(2.5))
    return model


def test_numpy_numbers_export_as_python_numbers(tmp_path):
    model = numpy_number_model()
    lp = export_lp(model)
    mps = export_mps(model)
    assert "np." not in lp + mps
    assert " r1: 2 x <= 1\n" in lp
    assert " r2: - 4 x + 2 y >= -7\n" in lp
    parsed = parse_lp(lp)
    assert [(c.terms, c.sense, c.rhs) for c in parsed.constraints] == [
        ((("x", 2),), "<=", 1),
        ((("x", -4), ("y", 2)), ">=", -7),
        ((("y", 0.25), ("x", 1)), "<=", 2.5),
    ]
    assert export_lp(parsed) == lp
    assert_oracle_exports(model)
    assert_highs_solves_like_solve(model, mps, tmp_path / "numpy.mps")


def block_rows():
    """CSR rows over the columns of `rejection_model`, some empty, some
    with their terms out of column order, as (indptr, cols, coefs, senses,
    rhs, tags) numpy arrays and lists."""
    indptr = np.array([0, 2, 2, 3, 5])
    cols = np.array([1, 0, 1, 0, 1])
    coefs = np.array([3, -1, 2**40, 7, -2])
    return indptr, cols, coefs, ["<=", "=", ">=", "<="], np.array([4, 0, -1, 0]), ["b1", "", "b3", "b4"]


def test_add_rows_matches_add_constraint():
    by_rows, by_terms = rejection_model(), rejection_model()
    indptr, cols, coefs, senses, rhs, tags = block_rows()
    by_rows.add_rows(indptr, cols, coefs, senses, rhs, tags)
    names = [var.name for var in by_terms.variables]
    for i, (sense, value, tag) in enumerate(zip(senses, rhs.tolist(), tags)):
        span = range(indptr[i], indptr[i + 1])
        by_terms.add_constraint([(names[cols[k]], int(coefs[k])) for k in span], sense, value, tag)
    stores = [
        (m._cols, m._coefs, m._ends, m._senses, m._rhs, m._tags) for m in (by_rows, by_terms)
    ]
    assert stores[0] == stores[1]
    stored = (by_rows._cols, by_rows._coefs, by_rows._ends, by_rows._rhs)
    assert {type(v) for store in stored for v in store} == {int}
    assert (by_rows._cols.typecode, by_rows._cols.itemsize) == ("i", 4)
    assert model_state(by_rows) == model_state(by_terms)
    assert by_rows.row_table().coefs.dtype == np.int64
    assert export_mps(by_rows) == export_mps(by_terms)
    assert_oracle_exports(by_rows)
    assert solve(by_rows).objective == solve(by_terms).objective


def test_add_variables_matches_add_variable():
    """One `add_variables` call per family gives the store, row table and
    exports that declaring each name with `add_variable` gives."""
    families = [
        (["x_1", "x_2", "x_3"], "binary", 0, 1),
        (["b"], "integer", 1, 3),
        (["u_1", "u_2"], "continuous", Fraction(-1, 2), 2.5),
    ]
    by_block, by_name = LinearProgram("block"), LinearProgram("block")
    for names, kind, lower, upper in families:
        by_block.add_variables(names, kind, lower, upper)
        for name in names:
            assert by_name.add_variable(name, kind, lower, upper) == name
    for model in (by_block, by_name):
        model.set_objective("min", [("u_2", 3), ("x_1", 1), ("b", -2)])
        coefs = [1, 2, Fraction(1, 3), 1, -1]
        model.add_rows([0, 3, 5], [0, 3, 4, 5, 1], coefs, ["<=", "="], [4, 0], ["a", ""])
        model.add_constraint([("u_1", 1), ("x_3", 2)], ">=", 1, "c")
    assert model_state(by_block) == model_state(by_name)
    assert export_mps(by_block) == export_mps(by_name)
    assert_oracle_exports(by_block)
    assert by_block.variables[3] == ilp.Variable("b", "integer", 1, 3)
    assert by_block.variable("u_1") == ilp.Variable("u_1", "continuous", Fraction(-1, 2), 2.5)
    by_block.add_variables([])
    assert model_state(by_block) == model_state(by_name)


def test_add_rows_takes_empty_blocks_and_plain_sequences():
    model = rejection_model()
    before = model_state(model)
    model.add_rows([0], [], [], [], [], [])
    assert model_state(model) == before
    model.add_rows([0, 2], [1, 0], [Fraction(1, 2), True], [">="], [Fraction(1, 3)], ["half"])
    assert model.constraints[-1] == LinearConstraint(
        (("z", Fraction(1, 2)), ("x", True)), ">=", Fraction(1, 3), "half"
    )
    assert_oracle_exports(model)
