"""Seeded workloads for the robustnp benchmark: inputs, ops and checks.

Every workload is a closed loop with one client: the next op starts only
after the previous one returned. Inputs come from the seed alone; a run
repeats the same list of ops in rounds until its time is used up. The
program under test only ever sees the generated inputs.

Every op's output is checked here, in the benchmark's own arithmetic,
outside the timed region. A failed check raises :class:`CheckError`.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import robustnp
import robustnp.cli
from robustnp import Charge, SampleSpace, SublinearExpectation, TestProblem

DEFAULT_SEED = 1
GOLDEN_PATH = Path(__file__).with_name("golden.json")


class CheckError(AssertionError):
    """An op's output failed one of the benchmark's exact checks."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# --------------------------------------------------------------------------
# Exact checks shared by the workloads


def _slots(charge_or_test, atoms_attr: str, tail_attr: str) -> list[Fraction]:
    vals = list(getattr(charge_or_test, atoms_attr))
    if charge_or_test.space.has_tail:
        vals.append(getattr(charge_or_test, tail_attr))
    return vals


def _mass(c: Charge) -> list[Fraction]:
    return _slots(c, "atom_mass", "tail_mass")


def _dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def check_certificate(prob: TestProblem, sol) -> None:
    """Recheck the weak-duality certificate carried by a ``Solution``.

    With u, v, w >= 0, sum(u) = 1 and sum_j u_j q_j <= sum_i v_i p_i + w
    slot by slot, every test x with all null levels at most alpha has
    min_j E_Qj[x] <= alpha * sum(v) + sum(w). A test reaching that bound
    is therefore optimal, and the bound is the optimal value.
    """
    alpha = prob.alpha
    gamma = sol.gamma_alpha
    x = _slots(sol.x_alpha, "atom_value", "tail_value")
    p_rows = [_mass(p) for p in prob.p_family.family]
    q_rows = [_mass(q) for q in prob.q_family.family]
    require(all(0 <= xk <= 1 for xk in x), "test leaves [0, 1]")
    levels = [_dot(p, x) for p in p_rows]
    require(all(lv <= alpha for lv in levels), "test exceeds the level alpha")
    require(max(levels) == sol.attained_level, "attained level is not max E_P[x]")
    case = "LevelSlack" if sol.attained_level < alpha else "LevelAttained"
    require(sol.case.value == case, f"case {sol.case.value} disagrees with the level")
    require(min(_dot(q, x) for q in q_rows) == gamma, "min E_Q[x] differs from gamma")
    cert = sol.certificate
    u, v, w = cert.q_constraint_duals, cert.level_duals, cert.box_duals
    require(tuple(sol.q_weights) == tuple(u), "q_weights differ from the duals u")
    require(len(u) == len(q_rows) and len(v) == len(p_rows) and len(w) == len(x),
             "certificate has the wrong shape")
    require(all(d >= 0 for d in (*u, *v, *w)), "a dual multiplier is negative")
    require(sum(u, Fraction(0)) == 1, "alternative weights do not sum to 1")
    for k in range(len(x)):
        lhs = sum((uj * q[k] for uj, q in zip(u, q_rows)), Fraction(0))
        rhs = sum((vi * p[k] for vi, p in zip(v, p_rows)), Fraction(0)) + w[k]
        require(lhs <= rhs, f"dual infeasible at slot {k}")
    require(alpha * sum(v, Fraction(0)) + sum(w, Fraction(0)) == gamma,
             "dual bound differs from gamma")


def solution_invariants(sol) -> list:
    """Exact quantities every correct solver must reproduce for a problem."""
    support = [j for j, wt in enumerate(sol.q_weights) if wt != 0]
    return [str(sol.gamma_alpha), str(sol.attained_level), sol.case.value, support]


def report_invariants(report: dict) -> list:
    """The same invariants read from a ``robustnp solve --json`` report."""
    support = [j for j, wt in enumerate(report["q_weights"]) if wt["exact"] != "0"]
    return [report["value"]["exact"], report["attained_level"]["exact"],
            report["case"], support]


# --------------------------------------------------------------------------
# Generators


def _random_member(rng: random.Random, space: SampleSpace, with_tail: bool,
                   weight_max: int) -> Charge:
    slots = space.n_atoms + (1 if with_tail else 0)
    raw = [rng.randint(0, weight_max) for _ in range(slots)]
    if sum(raw) == 0:
        raw[rng.randrange(slots)] = 1
    total = sum(raw)
    atoms = tuple(Fraction(r, total) for r in raw[: space.n_atoms])
    tail = Fraction(raw[-1], total) if with_tail else Fraction(0)
    return Charge(space, atoms, tail)


# (atoms, |P|, |Q|) -> instances. One instance's solve time varies about
# 35% around its cell's mean between seeds, so a quantile over a few dozen
# instances moves from seed to seed, the more so where it falls between two
# cells. Here both quantiles fall inside the large 8x2x2 cell: op_ms.p50
# (rank 112.5 of 224) near its middle, op_ms.p90 (rank 202.5) in its upper
# tail, just below the 14 heavy instances. Those, 12x3x3 and the lift-heavy
# 6x2x6 (about 7 LPs per solve), take about a fifth of a round's time and
# weigh on ops_per_s. Heavier cells (18x4x4, 30x5x5, 12x2x12: 0.1 s to
# 2.3 s per solve, varying 2x to 6x between seeds) would swamp a round of
# about 5 s, which a 30 s run has to repeat at least five times.
LADDER_CELLS = (
    ((6, 2, 2), 80),
    ((8, 2, 2), 130),
    ((12, 3, 3), 6),
    ((6, 2, 6), 8),
)
LADDER_ALPHAS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))


def ladder_instance(rng: random.Random, n: int, mp: int, mq: int) -> TestProblem:
    """Random instance with a tail slot; weights are integers 0..9 normalised."""
    space = SampleSpace(tuple(f"a{i}" for i in range(n)), True)
    p = tuple(_random_member(rng, space, True, 9) for _ in range(mp))
    q = tuple(_random_member(rng, space, True, 9) for _ in range(mq))
    return TestProblem(space, SublinearExpectation(p, "null"),
                       SublinearExpectation(q, "alternative"), rng.choice(LADDER_ALPHAS))


def ladder_instances(seed: int, cells=LADDER_CELLS) -> list[TestProblem]:
    rng = random.Random(f"ladder/{seed}")
    return [ladder_instance(rng, *cell) for cell, count in cells for _ in range(count)]


def sweep_alphas(seed: int, count: int) -> list[Fraction]:
    rng = random.Random(f"sweep-bits/{seed}")
    alphas = []
    for _ in range(count):
        den = rng.randint(2, 16)
        alphas.append(Fraction(rng.randint(1, den - 1), den))
    return alphas


def cli_spec(rng: random.Random) -> dict:
    """Tiny spec: 2-5 atoms, optional tail on one side, 1-3 members a side.

    At most 6 slots and 4 members per family, inside the brute-force
    oracle's default bound.
    """
    n = rng.randint(2, 5)
    has_tail = rng.random() < 0.4
    tail_side = rng.choice("pq") if has_tail else None
    atoms = [f"w{i}" for i in range(n)]

    def member(side: str) -> dict:
        slots = n + (1 if side == tail_side else 0)
        d = rng.randint(2, 8)
        raw = [0] * slots
        for _ in range(d):
            raw[rng.randrange(slots)] += 1
        labels = atoms + ["tail"]
        return {labels[i]: str(Fraction(r, d)) for i, r in enumerate(raw) if r}

    return {
        "atoms": atoms,
        "has_tail": has_tail,
        "alpha": str(rng.choice([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                                 Fraction(2, 3), Fraction(3, 4)])),
        "p_family": [member("p") for _ in range(rng.randint(1, 3))],
        "q_family": [member("q") for _ in range(rng.randint(1, 3))],
    }


def cli_specs(seed: int, count: int) -> list[dict]:
    rng = random.Random(f"cli-report/{seed}")
    return [cli_spec(rng) for _ in range(count)]


# --------------------------------------------------------------------------
# Workloads


class Workload:
    """Inputs, op runner and checker for one workload.

    ``prepare`` writes files the set-up needs (run once, untimed);
    ``setup`` builds the inputs into ``self.ops`` (this is what ``setup_s``
    times). A run repeats ``self.ops`` in rounds; the traced run and the
    golden data cover one round. ``check`` raises :class:`CheckError` on a
    wrong output and returns the op's exact invariants otherwise.
    """

    name = ""
    why = ""  # one line, also the workload's "why" in BENCHMARK.json
    json_bytes_total = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.ops: list = []

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> list:
        raise NotImplementedError

    def notes(self) -> dict:
        """Recorded observations that are deliberately not asserted."""
        return {}


class Ladder(Workload):
    name = "ladder"
    why = ("solve_minimax on seeded instances from 6x2x2 to 12x3x3 atoms x |P| x "
           "|Q| plus a lift-heavy 6x2x6 cell: the time goes to simplex pivots and "
           "the dual-face lift")

    def setup(self) -> None:
        self.ops = ladder_instances(self.seed)

    def run(self, prob):
        return robustnp.solve_minimax(prob)

    def check(self, prob, sol) -> list:
        check_certificate(prob, sol)
        return solution_invariants(sol)


class SweepBits(Workload):
    name = "sweep-bits"
    why = ("truncation_sweep over nonexistence_problem(n), n=1..56, two seeded "
           "alphas each: always 4 LPs and no lift, masses 2^-n, so it isolates "
           "big-number cost from LP count")
    # Two passes over n = 1..56 give 112 ops in a round of about 2 s, so a
    # 30 s run repeats each op about fifteen times.
    sizes = tuple(range(1, 57)) * 2

    def setup(self) -> None:
        self.alphas = sweep_alphas(self.seed, len(self.sizes))
        self.problems = [robustnp.nonexistence_problem(n, a)
                         for n, a in zip(self.sizes, self.alphas)]
        self.ops = list(range(len(self.sizes)))

    def run(self, i):
        prob = self.problems[i]
        return robustnp.truncation_sweep(lambda _n: prob, [self.sizes[i]])

    def check(self, i, rows) -> list:
        n, alpha = self.sizes[i], self.alphas[i]
        require(len(rows) == 1 and rows[0][0] == n, "sweep returned other sizes")
        gamma = rows[0][1]
        require(gamma == 1 - (1 - alpha) / 2**n, f"gamma {gamma} at n={n} is not 1-(1-a)/2^n")
        return [str(gamma)]


class CliReport(Workload):
    name = "cli-report"
    why = ("robustnp solve --json in-process on 400 tiny seeded specs and the 5 "
           "fixtures: many tiny LPs, per-call fixed cost, detect_case and grid "
           "re-solves, hypotheses, JSON")
    n_specs = 400

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for i, spec in enumerate(cli_specs(self.seed, self.n_specs)):
            (self.workdir / f"spec{i:03d}.json").write_text(json.dumps(spec))

    def _spec_paths(self) -> list[str]:
        fixtures = sorted((Path(robustnp.__file__).parent / "fixtures").glob("*.json"))
        return [str(self.workdir / f"spec{i:03d}.json") for i in range(self.n_specs)] + [
            str(p) for p in fixtures]

    def setup(self) -> None:
        self.specs = self._spec_paths()
        self.problems = [robustnp.cli.load_problem(p) for p in self.specs]
        self.out = str(self.workdir / "report.json")
        self._reference: dict[int, list] = {}
        self.grid: dict[str, "bool | None"] = {}
        self.ops = list(range(len(self.specs)))

    def run(self, i):
        argv = ["solve", self.specs[i], "--json", self.out]
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                return robustnp.cli.main(argv)
            except SystemExit as exc:
                return exc.code

    def reference(self, i: int) -> list:
        """Invariants of a certificate-checked library solve of spec i."""
        if i not in self._reference:
            prob = self.problems[i]
            sol = robustnp.solve_minimax(prob)
            check_certificate(prob, sol)
            self._reference[i] = solution_invariants(sol)
        return self._reference[i]

    def check(self, i, code) -> list:
        require(code == 0, f"robustnp solve exited {code} on {self.specs[i]}")
        text = Path(self.out).read_text()
        self.json_bytes_total += len(text.encode())
        report = json.loads(text)
        got = report_invariants(report)
        ref = self.reference(i)
        require(got[0] == ref[0], f"report value {got[0]} != library value {ref[0]}")
        require(got[2] == ref[2], f"report case {got[2]} != library case {ref[2]}")
        # precondition_grid rests on a finite probe that is known to be wrong
        # on some inputs; it is recorded, never asserted.
        self.grid[self.specs[i]] = report["representation"].get("precondition_grid")
        return got

    def notes(self) -> dict:
        tally = Counter(json.dumps(value) for value in self.grid.values())
        return {"precondition_grid_by_spec": dict(sorted(tally.items()))}


WORKLOADS = {w.name: w for w in (Ladder, SweepBits, CliReport)}


def load_golden(name: str, seed: int) -> "list | None":
    """Golden invariants of one round, kept for the default seed only."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(GOLDEN_PATH.read_text())[name]
