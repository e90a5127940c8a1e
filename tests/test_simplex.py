"""Exact simplex: known LPs, sign conventions, duals, degenerate cases."""

import copy
import heapq
import math
import pickle
import random
from fractions import Fraction

import pytest
from _fraction_simplex import solve_lp as fraction_solve_lp
from _scaled_rows import solve_scaled

from robustnp import minimax, nonexistence_problem
from robustnp.charge_model import _scale
from robustnp.simplex import _UNREAD, LpSolution, solve_lp

F = Fraction


def _reduced_costs(sol, c, a_ub):
    """``A^T y_ub + y_upper - c``, column by column (``y_upper`` 0 if absent)."""
    y_upper = sol.y_upper or [F(0)] * len(c)
    return [
        _dot([row[j] for row in a_ub], sol.y_ub) + y_upper[j] - c[j] for j in range(len(c))
    ]


def test_box_max():
    # max x1 + x2 over the unit box.
    sol = solve_lp([1, 1], a_ub=[[1, 0], [0, 1]], b_ub=[1, 1])
    assert sol.status == "optimal"
    assert sol.x == (1, 1)
    assert sol.value == 2
    assert sol.y_ub == (1, 1)
    assert _reduced_costs(sol, [1, 1], [[1, 0], [0, 1]]) == [0, 0]


def test_min_over_simplex():
    # min 2 x1 - 3 x2 with x1 + x2 <= 1, as max -2 x1 + 3 x2.
    sol = solve_lp([-2, 3], a_ub=[[1, 1]], b_ub=[1])
    assert sol.status == "optimal"
    assert sol.x == (0, 1)
    assert sol.value == 3
    # ub duals are >= 0, and the reduced costs A^T y - c are too.
    assert sol.y_ub == (3,)
    assert sol.y_eq == ()
    assert _reduced_costs(sol, [-2, 3], [[1, 1]]) == [5, 0]


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
        solve_scaled(c, a_ub + [[1, 0, 0, 0]], [0, 0, 1]),
        solve_scaled(c, a_ub, [0, 0], upper=[1, None, None, None]),
    ):
        assert (sol.status, sol.value, sol.x) == ("optimal", 1, (1, 0, 1, 0))


def test_fractional_data_stays_exact():
    sol = solve_scaled(
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
        sol = solve_scaled(c, a_ub=a_ub + box, b_ub=b_ub + [F(5)] * n)
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
        for xj, rc in zip(sol.x, _reduced_costs(sol, c, a_ub + box)):
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
        sol = solve_scaled([-v for v in c], a_ub=a_ub + box, b_ub=b_ub + [F(3)] * n)
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

    ``min c . x`` is ``max -c . x``: the same tableau, so the same pivots
    and ``x``, with ``value`` and the duals negated.
    """
    if sense == "max":
        return solve_scaled(c, a_ub, b_ub)
    sol = solve_scaled([-v for v in c], a_ub, b_ub)
    if sol.status != "optimal":
        return sol
    return LpSolution(status=sol.status, x=sol.x, value=-sol.value,
                      y_ub=tuple(-y for y in sol.y_ub), y_eq=sol.y_eq, y_upper=sol.y_upper)


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


def test_x_and_y_upper_are_built_when_read_in_any_order():
    # solve_lp builds x and y_upper only when they are read. The 300 LPs
    # above, on their integer rows, give the Fraction reference's fields
    # read in a seeded random order; x is not among them, so == builds it.
    # Under drawn bounds, every field read in a random order is the one a
    # fresh solve gives when read in the fixed order.
    rng, order = random.Random(2016), random.Random(35)
    names = ("status", "x", "value", "y_ub", "y_eq", "y_upper")
    unread = 0
    for _ in range(300):
        c, a_ub, b_ub, sense = _random_lp(rng)
        # A "min" draw solves min c . x as max -c . x.
        sign = 1 if sense == "max" else -1
        (cost, kc), rows = _scale([sign * v for v in c]), [_scale(row) for row in a_ub]
        args = (cost, [row for row, _ in rows], [b * k for b, (_, k) in zip(b_ub, rows)])
        ref = fraction_solve_lp(c, a_ub, b_ub, sense=sense)
        if ref.status == "optimal":
            # Over the integer rows the value is kc times the reference's and
            # row i's dual kc / k_i times its dual.
            y_ub = tuple(sign * kc * y / k for y, (_, k) in zip(ref.y_ub, rows))
            ref = LpSolution("optimal", ref.x, sign * kc * ref.value, y_ub, (), None)
        got = solve_lp(*args)
        fields = list(names[:1] + names[2:])
        order.shuffle(fields)
        for name in fields[: order.randint(0, len(fields))]:
            assert getattr(got, name) == getattr(ref, name), name
        unread += got.status == "optimal" and got._x is _UNREAD
        assert got == ref and hash(got) == hash(ref)
        upper = _random_bounds(order, len(c))
        first = solve_lp(*args, upper=upper)
        want = LpSolution(*(getattr(first, name) for name in names))
        got = solve_lp(*args, upper=upper)
        order.shuffle(fields := list(names))
        for name in fields:
            assert getattr(got, name) == getattr(want, name), name
        assert got == want
        assert copy.copy(got) == pickle.loads(pickle.dumps(got)) == want
    assert unread >= 200, unread


def test_scaled_slack_pricing_and_the_shared_rhs_denominator_match_the_reference():
    # Draw 1510 of _random_lp(random.Random(2016)): its pivots differ
    # between pricing a slack at its reduced cost and at that cost over its
    # row's scale, 3, 2, 1 and 6 here.
    c = [F(-2), F(-1), F(-2, 3), F(-2)]
    a_ub = [[F(-1, 3), F(1), F(-1), F(2)], [F(2), F(0), F(-2), F(0)],
            [F(1), F(0), F(2), F(0)], [F(0), F(1, 3), F(1, 2), F(-2, 3)]]
    b_ub = [F(1), F(3), F(7, 2), F(1, 4)]
    assert _in_sense(c, a_ub, b_ub, "min") == fraction_solve_lp(c, a_ub, b_ub, sense="min")
    # Row scales 2, 3 and 2; the right-hand sides' denominators 5, 7 and 11
    # are coprime to them.
    c = [F(3), F(2), F(1), F(-1, 2)]
    a_ub = [[F(1, 2), F(1), F(1, 2), F(0)], [F(1), F(1, 3), F(2, 3), F(-1, 3)],
            [F(-1, 2), F(1, 2), F(1), F(1, 2)]]
    b_ub = [F(7, 5), F(9, 7), F(3, 11)]
    for sense in ("max", "min"):
        sol = _in_sense(c, a_ub, b_ub, sense)
        assert sol == fraction_solve_lp(c, a_ub, b_ub, sense=sense)
    assert sol.x == (0, 0, 0, F(6, 11))
    # Under x <= 1, x1 ends at its bound: a complement moves the right-hand
    # sides by multiples of their shared denominator.
    sol = solve_scaled(c, a_ub, b_ub, upper=[1] * 4)
    box = [[F(int(j == k)) for j in range(4)] for k in range(4)]
    ref = fraction_solve_lp(c, a_ub + box, b_ub + [F(1)] * 4, sense="max")
    assert (sol.x, sol.value) == (ref.x, ref.value) == ((1, F(9, 10), 0, F(3, 70)), F(669, 140))
    assert sol.y_ub + sol.y_upper == ref.y_ub
    assert sol.y_upper == (F(3, 4), 0, 0, 0)


def _random_bounds(rng, n):
    """One upper bound per variable: None or 1, the only bounds solve_lp takes."""
    return [None if rng.random() < 0.4 else F(1) for _ in range(n)]


def _dot(a, b):
    return sum((u * v for u, v in zip(a, b)), F(0))


def test_upper_bounds_match_explicit_rows():
    rng = random.Random(1955)
    statuses = {"optimal": 0, "unbounded": 0}
    degenerate = none = 0
    for _ in range(1000):
        c, a_ub, b_ub, sense = _random_lp(rng)
        n = len(c)
        upper = _random_bounds(rng, n)
        # A "min" draw solves min c . x as max -c . x.
        sign = 1 if sense == "max" else -1
        cost = [sign * v for v in c]
        sol = solve_scaled(cost, a_ub, b_ub, upper=upper)
        box = [[F(int(j == k)) for j in range(n)] for k in range(n) if upper[k] is not None]
        ref = fraction_solve_lp(
            c, a_ub + box, b_ub + [u for u in upper if u is not None], sense=sense
        )
        assert sol.status == ref.status
        statuses[sol.status] += 1
        degenerate += F(0) in b_ub
        none += None in upper
        if sol.status != "optimal":
            assert sol.x is None and sol.y_upper is None
            continue
        assert sol.value == sign * ref.value
        _check_kkt(sol, cost, a_ub, b_ub, upper)
    assert statuses["optimal"] >= 500 and statuses["unbounded"] >= 15
    assert min(degenerate, none) >= 100


def _check_kkt(sol, cost, a_ub, b_ub, upper):
    """Exact optimality of ``sol`` for max ``cost . x`` under ``a_ub``, ``b_ub`` and ``upper``."""
    assert sol.value == _dot(cost, sol.x)
    # Primal feasibility, bounds included.
    assert all(0 <= xj and (u is None or xj <= u) for xj, u in zip(sol.x, upper))
    assert all(_dot(row, sol.x) <= b for row, b in zip(a_ub, b_ub))
    # Duals are nonnegative; unbounded variables get 0.
    assert all(y >= 0 for y in sol.y_ub + sol.y_upper)
    assert all(y == 0 for y, u in zip(sol.y_upper, upper) if u is None)
    bounded = [u or F(0) for u in upper]
    assert _dot(b_ub, sol.y_ub) + _dot(bounded, sol.y_upper) == sol.value
    # Dual feasibility and complementary slackness on every column.
    for j, rc in enumerate(_reduced_costs(sol, cost, a_ub)):
        assert rc >= 0
        assert sol.x[j] * rc == 0
        assert sol.y_upper[j] * (bounded[j] - sol.x[j]) == 0
    for row, b, y in zip(a_ub, b_ub, sol.y_ub):
        assert y * (b - _dot(row, sol.x)) == 0


def test_a_streak_of_flips_takes_tied_columns_in_index_order():
    # max sum x with sum x <= k + 1/2 and x <= 1: every reduced cost is -1,
    # so each column flips in index order until column k enters the row at
    # 1/2. From its second flip on, a streak is priced from a heap, which
    # must break the ties as min and index do.
    for n in range(1, 13):
        for k in range(n):
            sol = solve_lp([1] * n, [[1] * n], [F(2 * k + 1, 2)], upper=[1] * n)
            assert sol.x == (1,) * k + (F(1, 2),) + (0,) * (n - k - 1)
            assert (sol.value, sol.y_ub, sol.y_upper) == (F(2 * k + 1, 2), (1,), (0,) * n)


def test_flip_heavy_lps_match_explicit_box_rows():
    # 20 to 60 boxed columns with tied costs and one to three loose rows:
    # most steps are flips, in long streaks. The reference writes the box
    # as rows and takes no flip; its pivots are checked against the
    # Fraction reference above, which is too slow at this size.
    rng = random.Random(5865)
    streaks = 0
    for _ in range(300):
        n = rng.randint(20, 60)
        cost = [F(rng.choice([-1, 0, 1, 2, 2, 3])) for _ in range(n)]
        a_ub = [[F(rng.randint(-1, 3), rng.choice([1, 1, 2])) for _ in range(n)]
                for _ in range(rng.randint(1, 3))]
        b_ub = [F(rng.randint(n // 4, n), rng.choice([1, 2])) for _ in a_ub]
        upper = [F(1)] * n
        sol = solve_scaled(cost, a_ub, b_ub, upper=upper)
        box = [[int(j == k) for j in range(n)] for k in range(n)]
        ref = solve_scaled(cost, a_ub + box, b_ub + upper)
        assert sol.status == ref.status == "optimal"
        assert sol.value == ref.value
        _check_kkt(sol, cost, a_ub, b_ub, upper)
        streaks += sum(x == 1 for x in sol.x) >= 10
    assert streaks >= 250


def test_a_streak_of_flips_can_end_unbounded():
    # x0, x1 and x2 flip in a streak at cost -2, then the free x3 enters
    # at -1 with no row to stop it.
    for a_ub, b_ub in (([], []), ([[1, 1, 1, -1]], [5])):
        assert solve_lp([2, 2, 2, 1], a_ub, b_ub, upper=[1, 1, 1, None]).status == "unbounded"
        box = [[int(j == k) for j in range(4)] for k in range(3)]
        ref = fraction_solve_lp([2, 2, 2, 1], a_ub + box, b_ub + [1] * 3, sense="max")
        assert ref.status == "unbounded"


def test_a_streak_of_flips_is_priced_from_one_heap(monkeypatch):
    # nonexistence_problem(56)'s epigraph boxes 57 slots, and its steps are
    # nearly all flips: after the second, every entering column comes off
    # the heap rather than out of a scan of the whole cost row.
    popped = []
    real = heapq.heappop

    def spy(heap):
        popped.append(real(heap))
        return popped[-1]

    monkeypatch.setattr(heapq, "heappop", spy)
    value = minimax._solve_epigraph(nonexistence_problem(56))[0]
    assert value == 1 - F(1, 2) / 2**56
    assert len(popped) >= 50


def test_upper_bound_flip_and_validation():
    # max x1 + x2 over the unit box, as bounds: two flips and no pivot.
    sol = solve_lp([1, 1], upper=[1, 1])
    assert (sol.x, sol.value, sol.y_ub, sol.y_upper) == ((1, 1), 2, (), (1, 1))
    assert _reduced_costs(sol, [1, 1], []) == [0, 0]
    # x1 enters at 1/2 on the row; x2 then lifts it to its bound 1, and the
    # row's slack lifts x2 to its bound 1: two basic variables rise and leave.
    sol = solve_lp([2, 1], a_ub=[[1, -1]], b_ub=[F(1, 2)], upper=[1, 1])
    assert (sol.x, sol.value, sol.y_ub, sol.y_upper) == ((1, 1), 3, (0,), (2, 1))
    assert solve_lp([-1], upper=None).y_upper is None
    with pytest.raises(ValueError):
        solve_lp([1, 2], upper=[1])
    # Every bound is 1: the callers box tests in [0, 1] or leave a variable free.
    for bad in (0, 2, F(1, 2), "1/2", F(-1, 2)):
        with pytest.raises(ValueError, match=f"upper entries must be 1 or None, got {F(bad)}$"):
            solve_lp([1], upper=[bad])
    for one in (1, "1", "2/2", F(1), F(2, 2)):
        sol = solve_lp([1, 1], [[1, 1]], [F(3, 2)], upper=[one, None])
        assert (sol.x, sol.value, sol.y_ub, sol.y_upper) == ((1, F(1, 2)), F(3, 2), (1,), (0, 0))


def test_floats_and_bools_are_refused():
    # b_ub and upper are coerced as charge_model.frac does: 0.1 is not 1/10.
    # c and a_ub take ints only, so a Fraction or a "num/den" string is
    # refused there too, with the argument named.
    good = {"c": [1], "a_ub": [[1]], "b_ub": [1], "upper": [1]}
    for bad in (0.1, 1.0, True, False, F(1, 2), "1/2"):
        for key, value in (("c", [bad]), ("a_ub", [[bad]]), ("b_ub", [bad]),
                           ("upper", [bad])):
            if key in ("b_ub", "upper") and isinstance(bad, (F, str)):
                continue
            args = dict(good, **{key: value})
            match = f"^{key} takes ints, not " if key in ("c", "a_ub") else "refusing"
            with pytest.raises(TypeError, match=match):
                solve_lp(args["c"], args["a_ub"], args["b_ub"], upper=args["upper"])
    sol = solve_lp([1], [[1]], ["1/10"], upper=["1"])
    assert (sol.x, sol.value) == ((F(1, 10),), F(1, 10))


def test_integer_rows_are_taken_as_they_are():
    # The tableau is the rows of ints as given. Write each row and c over
    # the lcm k of its denominators, as the minimax programs write a charge
    # over its den and as solve_scaled does: then x and y_upper are those of
    # the rational program, value is k_c times its value, and each row's
    # dual is k_c / k times its dual. This pins solve_scaled's mapping back,
    # which the tests above compare with the Fraction reference.
    rng = random.Random(1968)
    optimal = 0
    for _ in range(300):
        c, a_ub, b_ub, _sense = _random_lp(rng)
        upper = _random_bounds(rng, len(c))
        ks = [math.lcm(*(v.denominator for v in row)) for row in a_ub]
        kc = math.lcm(*(v.denominator for v in c))
        rows = [[int(v * k) for v in row] for row, k in zip(a_ub, ks)]
        ref = solve_scaled(c, a_ub, b_ub, upper=upper)
        got = solve_lp([int(v * kc) for v in c], rows, [b * k for b, k in zip(b_ub, ks)],
                       upper=upper)
        assert got.status == ref.status
        if got.status != "optimal":
            continue
        optimal += 1
        assert (got.x, got.value) == (ref.x, kc * ref.value)
        assert got.y_ub == tuple(kc * y / k for y, k in zip(ref.y_ub, ks))
        assert got.y_upper == tuple(kc * y for y in ref.y_upper)
    assert optimal >= 200


def test_a_bool_or_float_among_ints_is_refused():
    # The check for a row of ints reads type(v) is int, so True (an int
    # subclass) is refused, and so is a Fraction, even one equal to an int.
    for bad in (True, False, 1.0, 0.5, F(1, 2), F(2), "1/2"):
        name = type(bad).__name__
        with pytest.raises(TypeError, match=f"^a_ub takes ints, not {name}$"):
            solve_lp([1, 2], [[1, 1], [2, bad]], [1, 1])
        with pytest.raises(TypeError, match=f"^c takes ints, not {name}$"):
            solve_lp([1, bad], [[1, 1]], [1])
        with pytest.raises(TypeError, match=f"^c takes ints, not {name}$"):
            solve_lp([bad, 1], [[1, 1]], [1], upper=[1, None])


def test_sign_checks_on_every_input_form():
    # The right-hand side is checked on its scaled integer: every form of a
    # negative value is refused, and 0 is not. Neither is a bound other than 1.
    for neg in (-1, "-1/3", F(-1, 3), F(-1, 10**30)):
        with pytest.raises(ValueError, match="b_ub must be nonnegative"):
            solve_scaled([1, 1], [[1, 2], [F(1, 7), 1]], [1, neg])
        with pytest.raises(ValueError, match="b_ub must be nonnegative"):
            solve_lp([1, 1], [[1, 2], [1, 7]], [1, neg])
        with pytest.raises(ValueError, match="upper entries must be 1 or None"):
            solve_lp([1, 1], [[1, 1]], [1], upper=[None, neg])
    for zero in (0, "0", "0/5", F(0)):
        with pytest.raises(ValueError, match="upper entries must be 1 or None, got 0$"):
            solve_lp([1, 1], [[1, 1]], [1], upper=[zero, None])
        sol = solve_scaled([1, 1], [[1, 2], [F(1, 7), 1]], [1, zero], upper=[1, None])
        assert (sol.status, sol.x, sol.value) == ("optimal", (0, 0), 0)
        assert (sol.y_ub, sol.y_upper) == ((0, 7), (0, 0))


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
            sol = solve_scaled(cost, a_ub, b_ub, upper=upper)
            if sol.status != "optimal":
                continue
            optimal[sign] += 1
            assert sol.value == _dot(cost, sol.x)
            assert sol.value == _dot(b_ub, sol.y_ub) + _dot(bounded, sol.y_upper)
    assert min(optimal.values()) >= 500
