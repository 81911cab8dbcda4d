import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from ballotcontrol import ilp
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
        alt = LinearConstraint(((x, 1),), "<=", 0, tag="only")
        names = add_alternative_block(model, [alt], ["y"], "pick")
        assert names == ["y"]
        assert model.constraints[-1].tag == "pick"
        # y forced to 1, so x <= 0 must hold: x=1 infeasible, x=0 feasible
        good = Assignment({"x": 0, names[0]: 1})
        bad = Assignment({"x": 1, names[0]: 1})
        assert check_assignment(model, good).ok
        assert not check_assignment(model, bad).ok

    def test_rejects_empty_and_wrong_sense(self):
        model = LinearProgram()
        x = model.add_variable("x", "binary")
        with pytest.raises(ValueError):
            add_alternative_block(model, [], [], "pick")
        with pytest.raises(ValueError):
            add_alternative_block(model, [LinearConstraint(((x, 1),), ">=", 1)], ["y"], "pick")
        with pytest.raises(ValueError):
            add_alternative_block(model, [LinearConstraint(((x, 1),), "<=", 0)], [], "pick")

    def test_too_small_big_m_rejected(self):
        model = LinearProgram()
        x = model.add_variable("x", "binary")
        with pytest.raises(ValueError):
            add_alternative_block(
                model, [LinearConstraint(((x, 5),), "<=", 0)], ["y"], "pick", big_m=1
            )

    @pytest.mark.parametrize("seed", range(12))
    def test_k1_feasibility_matches_direct_disjunction(self, seed):
        rng = random.Random(seed)
        base = LinearProgram()
        xs = [base.add_variable(f"x{i}", "binary") for i in range(3)]
        base.set_objective("max", [(x, 1) for x in xs])
        alts = []
        for a in range(rng.randint(1, 3)):
            terms = tuple((x, rng.randint(-3, 3)) for x in xs)
            alts.append(LinearConstraint(terms, "<=", rng.randint(-2, 2), tag=f"alt{a}"))
        names = add_alternative_block(base, alts, [f"y{a}" for a in range(len(alts))], "pick")
        for bits in itertools.product((0, 1), repeat=3):
            x_vals = dict(zip(xs, bits))
            holds_any = any(c.satisfied(x_vals) for c in alts)
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


def block(names, big_m=None, second=(("x", 1), ("z", 5)), sense="<="):
    """An alternative block call whose second alternative is `second`."""
    alternatives = [
        LinearConstraint((("x", 1),), "<=", 0, "a1"),
        LinearConstraint(second, sense, 0, "a2"),
    ]
    return lambda model: add_alternative_block(model, alternatives, names, "pick", big_m)


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
    "block-sense": (block(["y1", "y2"], sense=">="), ValueError),
    "block-undeclared": (block(["y1", "y2"], second=(("ghost", 1),)), KeyError),
}


def model_state(model):
    table = model.row_table()
    arrays = [(a.dtype, a.tolist()) for a in (table.indptr, table.indices, table.coefs)]
    return list(model.variables), model.constraints, arrays, export_lp(model)


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
        from ballotcontrol import solve
        from ballotcontrol.solver import _scipy_extension

        core = _scipy_extension("optimize._highspy._core")
        election = random_election(random.Random(10), 10, 10)
        spec = ControlSpec("bucklin", "delete-candidates", "constructive", 2)
        problem, _, _ = build_problem(election, spec)
        text = export_mps(problem.model)
        assert "    y_10_10_10 r" in text
        path = tmp_path / "bucklin.mps"
        path.write_text(text)
        highs = core._Highs()
        highs.setOptionValue("output_flag", False)
        assert highs.readModel(str(path)) == core.HighsStatus.kOk
        highs.run()
        result = solve(problem.model)
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


@pytest.mark.parametrize("kind", sorted(EXPORT_GOLDEN))
def test_export_edge_cases_golden(kind):
    digest = hashlib.sha256()
    for model in export_edge_models(kind):
        digest.update(export_lp(model).encode())
        digest.update(export_mps(model).encode())
    assert digest.hexdigest() == EXPORT_GOLDEN[kind], f"the {kind} exports changed"
