"""Exact simplex: known LPs, sign conventions, duals, degenerate cases."""

import dataclasses
import random
from fractions import Fraction

import pytest
from _fraction_simplex import solve_lp as fraction_solve_lp

from robustnp.simplex import LpSolution, solve_lp

F = Fraction


def test_box_max():
    # max x1 + x2 over the unit box.
    sol = solve_lp([1, 1], a_ub=[[1, 0], [0, 1]], b_ub=[1, 1])
    assert sol.status == "optimal"
    assert sol.x == (1, 1)
    assert sol.value == 2
    assert sol.y_ub == (1, 1)
    assert sol.reduced_costs == (0, 0)


def test_min_over_simplex():
    # min 2 x1 - 3 x2 with x1 + x2 <= 1, as max -2 x1 + 3 x2.
    sol = solve_lp([-2, 3], a_ub=[[1, 1]], b_ub=[1])
    assert sol.status == "optimal"
    assert sol.x == (0, 1)
    assert sol.value == 3
    # ub duals are >= 0, and reduced_costs = A^T y - c.
    assert sol.y_ub == (3,)
    assert sol.y_eq == ()
    assert sol.reduced_costs == (5, 0)


def test_min_with_a_slack_row():
    # min -x1 - 2 x2 with x1 + x2 <= 3 and x2 <= 1, as max x1 + 2 x2; both
    # rows bind.
    sol = solve_lp([1, 2], a_ub=[[1, 1], [0, 1]], b_ub=[3, 1])
    assert sol.status == "optimal"
    assert sol.x == (2, 1)
    assert sol.value == 4
    assert sol.y_ub == (1, 1)
    assert sol.value == F(3) * sol.y_ub[0] + F(1) * sol.y_ub[1]
    # A row that does not bind gets a zero multiplier.
    sol = solve_lp([1], a_ub=[[1], [2]], b_ub=[1, 5])
    assert (sol.x, sol.value, sol.y_ub) == ((1,), 1, (1, 0))


def test_negative_rhs_is_rejected():
    # The slack basis must be feasible: there is no phase 1.
    with pytest.raises(ValueError, match="b_ub must be nonnegative"):
        solve_lp([1], a_ub=[[1], [-1]], b_ub=[1, -2])
    with pytest.raises(ValueError, match="b_ub must be nonnegative"):
        solve_lp([1], a_ub=[[-1]], b_ub=[F(-1, 3)], upper=[1])


def test_unbounded():
    sol = solve_lp([1])
    assert sol.status == "unbounded"


def test_degenerate_vertex_terminates():
    # Three planes through the same point: the pivots at it must not cycle.
    sol = solve_lp(
        [1, 1],
        a_ub=[[1, 0], [0, 1], [1, 1]],
        b_ub=[1, 1, 2],
    )
    assert sol.status == "optimal"
    assert sol.value == 2


def test_steepest_pricing_falls_back_to_bland_on_chvatals_cycle():
    # Chvatal (Linear Programming, 1983, ch. 3): from the slack basis the
    # most negative reduced cost, with ties in the ratio test to the smaller
    # index, returns to the start after six steps of length 0. Bland's rule
    # after a step of length 0 breaks the cycle, with x1 <= 1 as a row or as
    # a bound.
    c = [10, -57, -9, -24]
    a_ub = [[F(1, 2), F(-11, 2), F(-5, 2), 9], [F(1, 2), F(-3, 2), F(-1, 2), 1]]
    for sol in (
        solve_lp(c, a_ub + [[1, 0, 0, 0]], [0, 0, 1]),
        solve_lp(c, a_ub, [0, 0], upper=[1, None, None, None]),
    ):
        assert (sol.status, sol.value, sol.x) == ("optimal", 1, (1, 0, 1, 0))


def test_fractional_data_stays_exact():
    sol = solve_lp(
        [F(1, 3), F(1, 7)],
        a_ub=[[F(2, 5), F(1, 5)]],
        b_ub=[F(1, 9)],
    )
    assert sol.status == "optimal"
    assert sol.value == F(5, 54)
    assert sol.x == (F(5, 18), 0)


def test_input_validation():
    with pytest.raises(ValueError):
        solve_lp([])
    with pytest.raises(ValueError):
        solve_lp([1, 2], a_ub=[[1]], b_ub=[1])
    with pytest.raises(ValueError):
        solve_lp([1], a_ub=[[1], [1]], b_ub=[1])
    # upper is keyword-only, and there is no sense to choose.
    with pytest.raises(TypeError):
        solve_lp([1], [[1]], [1], [1])
    with pytest.raises(TypeError):
        solve_lp([1], [[1]], [1], sense="max")


def _dual_identity(sol: LpSolution, b_ub):
    return sum((b * y for b, y in zip(b_ub, sol.y_ub)), F(0))


def test_random_lps_satisfy_strong_duality():
    rng = random.Random(7312)
    solved = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        # A "min" draw solves min c . x as max -c . x.
        sign = 1 if rng.choice(["min", "max"]) == "max" else -1
        c = [sign * F(rng.randint(-4, 4)) for _ in range(n)]
        a_ub = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        b_ub = [F(rng.randint(0, 4)) for _ in range(m)]
        # A box keeps everything bounded, and x = 0 is feasible.
        box = [[F(1) if j == i else F(0) for j in range(n)] for i in range(n)]
        sol = solve_lp(c, a_ub=a_ub + box, b_ub=b_ub + [F(5)] * n)
        assert sol.status == "optimal"
        solved += 1
        primal = sum((ci * xi for ci, xi in zip(c, sol.x)), F(0))
        assert primal == sol.value
        assert sol.value == _dual_identity(sol, b_ub + [F(5)] * n)
        # Sign conventions and complementary slackness on every row.
        for row, b, y in zip(a_ub + box, b_ub + [F(5)] * n, sol.y_ub):
            slack = b - sum((v * xi for v, xi in zip(row, sol.x)), F(0))
            assert slack >= 0
            assert y >= 0
            assert y * slack == 0
        for xj, rc in zip(sol.x, sol.reduced_costs):
            assert rc >= 0
            assert xj * rc == 0
    assert solved == 60


def test_matches_floating_point_solver():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(991)
    checked = 0
    for _ in range(25):
        n = rng.randint(2, 4)
        m = rng.randint(1, 3)
        c = [F(rng.randint(-5, 5)) for _ in range(n)]
        a_ub = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        b_ub = [F(rng.randint(0, 4)) for _ in range(m)]
        box = [[F(1) if j == i else F(0) for j in range(n)] for i in range(n)]
        # linprog minimizes c . x; solve_lp maximizes -c . x.
        sol = solve_lp([-v for v in c], a_ub=a_ub + box, b_ub=b_ub + [F(3)] * n)
        ref = scipy_opt.linprog(
            [float(v) for v in c],
            A_ub=[[float(v) for v in row] for row in a_ub + box],
            b_ub=[float(v) for v in b_ub] + [3.0] * n,
            bounds=[(0, None)] * n,
            method="highs",
        )
        assert sol.status == "optimal"
        assert ref.status == 0
        assert abs(-float(sol.value) - ref.fun) < 1e-9
        checked += 1
    assert checked == 25


BIG = 2**40


def _random_lp(rng):
    """A small LP with nonnegative right-hand sides, so x = 0 is feasible.

    Right-hand sides of 0 make the starting basis degenerate and tie the
    ratio test, as do rows that hold with equality at a second point x0 and
    rows repeated at a positive multiple. Without the box rows some LPs
    are unbounded. A quarter of the LPs draw half their entries with
    denominators near 2^40.
    """
    n = rng.randint(1, 5)
    big = rng.random() < 0.25

    def entry():
        if big and rng.random() < 0.5:
            return F(rng.randint(-BIG, BIG), BIG + rng.randint(-99, 99))
        return F(rng.randint(-2, 2), rng.choice([1, 1, 2, 3]))

    x0 = [F(rng.randint(0, 2), rng.choice([1, 2])) if rng.random() < 0.7 else F(0)
          for _ in range(n)]

    def at_x0(row):
        return sum((a * x for a, x in zip(row, x0)), F(0))

    a_ub = [[entry() for _ in range(n)] for _ in range(rng.randint(0, 5))]
    b_ub = [max(F(0), at_x0(row)) + rng.choice([0, 0, 1, F(1, 2)]) for row in a_ub]
    if a_ub and rng.random() < 0.3:
        i = rng.randrange(len(a_ub))
        s = F(rng.choice([1, 2, 3]), rng.choice([1, 3]))
        a_ub.append([s * v for v in a_ub[i]])
        b_ub.append(s * b_ub[i])
    if rng.random() < 0.7:
        a_ub += [[F(int(j == i)) for j in range(n)] for i in range(n)]
        b_ub += [F(rng.randint(1, 3))] * n
    c = [entry() for _ in range(n)]
    return c, a_ub, b_ub, rng.choice(["min", "max"])


def _in_sense(c, a_ub, b_ub, sense):
    """``solve_lp``'s answer in the reference's ``sense`` convention.

    ``min c . x`` is ``max -c . x``: the same tableau, so the same pivots,
    ``x`` and ``reduced_costs``, with ``value`` and the duals negated.
    """
    if sense == "max":
        return solve_lp(c, a_ub, b_ub)
    sol = solve_lp([-v for v in c], a_ub, b_ub)
    if sol.status != "optimal":
        return sol
    return dataclasses.replace(sol, value=-sol.value, y_ub=tuple(-y for y in sol.y_ub))


def test_integer_tableau_matches_fraction_reference():
    rng = random.Random(2016)
    statuses = {"optimal": 0, "unbounded": 0}
    degenerate = big = 0
    for _ in range(300):
        c, a_ub, b_ub, sense = _random_lp(rng)
        sol = _in_sense(c, a_ub, b_ub, sense)
        assert sol == fraction_solve_lp(c, a_ub, b_ub, sense=sense)
        statuses[sol.status] += 1
        degenerate += F(0) in b_ub
        big += any(v.denominator > 2**39 for row in a_ub for v in row)
    assert min(statuses.values()) >= 10
    assert degenerate >= 30 and big >= 30


def _random_bounds(rng, n):
    """One upper bound per variable: None, 0, an integer or a rational."""

    def one():
        kind = rng.random()
        if kind < 0.4:
            return None
        if kind < 0.5:
            return F(0)
        if kind < 0.75:
            return F(rng.randint(1, 3))
        return F(rng.randint(1, 7), rng.choice([2, 3, 5]))

    return [one() for _ in range(n)]


def _dot(a, b):
    return sum((u * v for u, v in zip(a, b)), F(0))


def test_upper_bounds_match_explicit_rows():
    rng = random.Random(1955)
    statuses = {"optimal": 0, "unbounded": 0}
    degenerate = zero = rational = none = 0
    for _ in range(1000):
        c, a_ub, b_ub, sense = _random_lp(rng)
        n = len(c)
        upper = _random_bounds(rng, n)
        # A "min" draw solves min c . x as max -c . x.
        sign = 1 if sense == "max" else -1
        cost = [sign * v for v in c]
        sol = solve_lp(cost, a_ub, b_ub, upper=upper)
        box = [[F(int(j == k)) for j in range(n)] for k in range(n) if upper[k] is not None]
        ref = fraction_solve_lp(
            c, a_ub + box, b_ub + [u for u in upper if u is not None], sense=sense
        )
        assert sol.status == ref.status
        statuses[sol.status] += 1
        degenerate += F(0) in b_ub
        zero += F(0) in upper
        rational += any(u is not None and u.denominator > 1 for u in upper)
        none += None in upper
        if sol.status != "optimal":
            assert sol.x is None and sol.y_upper is None
            continue
        assert sol.value == sign * ref.value == _dot(cost, sol.x)
        # Primal feasibility, bounds included.
        assert all(0 <= xj and (u is None or xj <= u) for xj, u in zip(sol.x, upper))
        assert all(_dot(row, sol.x) <= b for row, b in zip(a_ub, b_ub))
        # Duals are nonnegative; unbounded variables get 0.
        assert all(y >= 0 for y in sol.y_ub + sol.y_upper)
        assert all(y == 0 for y, u in zip(sol.y_upper, upper) if u is None)
        bounded = [u or F(0) for u in upper]
        assert _dot(b_ub, sol.y_ub) + _dot(bounded, sol.y_upper) == sol.value
        # reduced_costs = A^T y + y_upper - c.
        for j in range(n):
            aty = _dot([row[j] for row in a_ub], sol.y_ub)
            assert sol.reduced_costs[j] == aty + sol.y_upper[j] - cost[j]
            assert sol.reduced_costs[j] >= 0
            assert sol.x[j] * sol.reduced_costs[j] == 0
            assert sol.y_upper[j] * (bounded[j] - sol.x[j]) == 0
        for row, b, y in zip(a_ub, b_ub, sol.y_ub):
            assert y * (b - _dot(row, sol.x)) == 0
    assert statuses["optimal"] >= 500 and statuses["unbounded"] >= 15
    assert min(degenerate, zero, rational, none) >= 100


def test_upper_bound_flip_and_validation():
    # max x1 + x2 over the unit box, as bounds: two flips and no pivot.
    sol = solve_lp([1, 1], upper=[1, 1])
    assert (sol.x, sol.value, sol.y_ub, sol.y_upper) == ((1, 1), 2, (), (1, 1))
    assert sol.reduced_costs == (0, 0)
    # x1 enters at 1/2 on the row; x2 then lifts it to its bound 1, and the
    # row's slack lifts x2 to its bound 2: two basic variables rise and leave.
    sol = solve_lp([1, 2], a_ub=[[1, -1]], b_ub=[F(1, 2)], upper=[1, 2])
    assert (sol.x, sol.value, sol.y_ub, sol.y_upper) == ((1, 2), 5, (0,), (1, 2))
    assert solve_lp([-1], upper=None).y_upper is None
    with pytest.raises(ValueError):
        solve_lp([1, 2], upper=[1])
    with pytest.raises(ValueError):
        solve_lp([1], upper=[F(-1, 2)])


def test_floats_and_bools_are_refused():
    # solve_lp coerces as charge_model.frac does: 0.1 is not 1/10.
    good = {"c": [1], "a_ub": [[1]], "b_ub": [1], "upper": [1]}
    for bad in (0.1, 1.0, True, False):
        for key, value in (("c", [bad]), ("a_ub", [[bad]]), ("b_ub", [bad]),
                           ("upper", [bad])):
            args = dict(good, **{key: value})
            with pytest.raises(TypeError, match="refusing"):
                solve_lp(args["c"], args["a_ub"], args["b_ub"], upper=args["upper"])
    sol = solve_lp([1], [[1]], ["1/10"], upper=[F(1, 5)])
    assert (sol.x, sol.value) == ((F(1, 10),), F(1, 10))


def test_sign_checks_on_every_input_form():
    # The right-hand side is checked on its scaled integer and upper on its
    # numerator: every form of a negative value is refused, and 0 is not.
    for neg in (-1, "-1/3", F(-1, 3), F(-1, 10**30)):
        with pytest.raises(ValueError, match="b_ub must be nonnegative"):
            solve_lp([1, 1], [[1, 2], [F(1, 7), 1]], [1, neg])
        with pytest.raises(ValueError, match="upper bounds must be nonnegative"):
            solve_lp([1, 1], [[1, 1]], [1], upper=[None, neg])
    for zero in (0, "0", "0/5", F(0)):
        sol = solve_lp([1, 1], [[1, 2], [F(1, 7), 1]], [1, zero], upper=[zero, None])
        assert (sol.status, sol.x, sol.value) == ("optimal", (0, 0), 0)
        assert (sol.y_ub, sol.y_upper) == ((0, 1), (F(6, 7), 0))


def test_value_read_off_the_tableau_matches_both_sums():
    # value comes from the cost row's right-hand side; it must equal the
    # primal sum c . x and the dual sum b_ub . y_ub + upper . y_upper.
    rng = random.Random(1955)
    optimal = {1: 0, -1: 0}
    for _ in range(1000):
        c, a_ub, b_ub, _sense = _random_lp(rng)
        upper = _random_bounds(rng, len(c))
        bounded = [u or F(0) for u in upper]
        # Both max c . x and min c . x, as max -c . x.
        for sign in (1, -1):
            cost = [sign * v for v in c]
            sol = solve_lp(cost, a_ub, b_ub, upper=upper)
            if sol.status != "optimal":
                continue
            optimal[sign] += 1
            assert sol.value == _dot(cost, sol.x)
            assert sol.value == _dot(b_ub, sol.y_ub) + _dot(bounded, sol.y_upper)
    assert min(optimal.values()) >= 500
