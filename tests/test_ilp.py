import itertools
import random

import pytest

from ballotcontrol import (
    Assignment,
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
)
from genutil import models_equal, random_election, random_score_election


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
        from ballotcontrol.solver import _load_highs

        core = _load_highs()
        if core is None:
            pytest.skip("this scipy has no HiGHS binding")
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
