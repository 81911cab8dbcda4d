import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from ballotcontrol import solver as solver_module
from ballotcontrol import (
    ControlSpec,
    LinearProgram,
    SolverConfig,
    SolverError,
    build_problem,
    canonical_result,
    check_assignment,
    encode_ce,
    encode_re,
    solve,
    solve_lp_relaxation,
    StrictProfile,
    ScoreMatrix,
)
from genutil import (
    enumerate_binary_optimum,
    random_big_coefficient_program,
    random_binary_program,
    random_election,
)


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

    def test_warm_and_cold_agree(self, monkeypatch):
        rng = random.Random(21)
        models = [random_binary_program(rng, max_vars=8, max_rows=6) for _ in range(10)]
        warm = [solve_lp_relaxation(model) for model in models]
        monkeypatch.setattr(solver_module, "_load_highs", lambda: None)
        cold = [solve_lp_relaxation(model) for model in models]
        for w, c in zip(warm, cold):
            assert w.status == c.status
            if w.status == "optimal":
                assert w.value == pytest.approx(c.value, abs=1e-6)


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
        with pytest.raises(ValueError):
            SolverConfig(node_limit=0)
        with pytest.raises(ValueError):
            SolverConfig(time_limit=0)

    def test_warm_and_cold_agree_on_ip(self, monkeypatch):
        rng = random.Random(55)
        models = [random_binary_program(rng, max_vars=10, max_rows=8) for _ in range(10)]
        warm = [solve(model) for model in models]
        monkeypatch.setattr(solver_module, "_load_highs", lambda: None)
        cold = [solve(model) for model in models]
        for w, c in zip(warm, cold):
            assert w.status == c.status
            if w.status == "Optimal":
                assert w.objective == c.objective

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
    """Loading the HiGHS binding must not run `scipy.optimize`'s package
    init (a set-up cost in every fresh process); a later import of it must
    reuse the loaded binding, and its HiGHS entry points keep working."""
    src = Path(solver_module.__file__).resolve().parent.parent
    script = textwrap.dedent(
        """
        import sys
        sys.path.insert(0, sys.argv[1])
        from ballotcontrol import LinearProgram, solve
        from ballotcontrol.solver import _load_highs

        model = LinearProgram("tiny")
        model.add_variable("x", "binary")
        model.add_variable("y", "binary")
        model.set_objective("max", [("x", 2), ("y", 3)])
        model.add_constraint([("x", 1), ("y", 1)], "<=", 1)
        result = solve(model)
        assert (result.status, result.objective) == ("Optimal", 3), result
        assert "scipy.optimize" not in sys.modules
        core = _load_highs()
        if core is None:
            print("no-binding")
            raise SystemExit
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
    if run.stdout.strip() == "no-binding":
        pytest.skip("this scipy has no HiGHS binding")
    assert run.stdout.strip() == "ok"
