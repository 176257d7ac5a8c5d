"""Sweeps, the exact knapsack allocator, and storage accounting."""

import bisect
import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from lqdec import alloc
from lqdec.alloc import (
    AllocSolution,
    ConfigGrid,
    LORA_FORMATS,
    SweepTable,
    _by_efficiency,
    _class_hull,
    _greedy_incumbent,
    _integer_errors,
    _scaled_budget,
    brute_force_mckp,
    default_grid,
    lq_lora_init,
    solve_mckp,
    storage_report,
    sweep,
)
from lqdec.decompose import derive_seed, lq_decompose
from lqdec.errors import FormatError, InfeasibleBudgetError
from lqdec.quant import QuantConfig, storage_bits_per_param
from lqdec.tensor_io import gen_fisher, gen_matrix


def make_table(errors, sizes=None, configs=None):
    errors = np.asarray(errors, dtype=np.float64)
    n, c = errors.shape
    if sizes is None:
        sizes = [1] * n
    if configs is None:
        configs = list(default_grid().configs[:c])
    return SweepTable(sizes=list(sizes), configs=configs, errors=errors,
                      fisher_weighted=False, rank=1, seed=0)


def reference_solve_mckp(table, budget_bits):
    """The assignment of `solve_mckp` as first written, in floats and Fractions.

    Candidate error sums are exact rationals, the LP bound is a float
    scan over every increment trusted up to a 1e-9 * (1 + |incumbent|)
    margin, and the increments are ordered by float efficiency.
    """
    _, costs, _, cap = _scaled_budget(table, budget_bits)
    s_int = [[size * k for k in costs] for size in table.sizes]
    errors = table.errors
    n, c = errors.shape

    greedy_best = []
    for i in range(n):
        greedy_best.append(min(range(c), key=lambda j: (errors[i, j], s_int[i][j])))
    if sum(s_int[i][greedy_best[i]] for i in range(n)) <= cap:
        return greedy_best

    classes = []
    for i in range(n):
        items = sorted(((s_int[i][j], float(errors[i, j]), j) for j in range(c)),
                       key=lambda t: (t[0], t[1]))
        kept = []
        best_err = math.inf
        for s, e, j in items:
            if e < best_err:
                kept.append((s, e, j))
                best_err = e
        classes.append(kept)

    order = sorted(range(n), key=lambda i: classes[i][0][1] - classes[i][-1][1], reverse=True)
    classes = [classes[i] for i in order]
    hulls = []
    for items in classes:
        hull = []
        for s, e, _ in items:
            if hull and s == hull[-1][0]:
                continue
            if hull and e >= hull[-1][1]:
                continue
            while len(hull) >= 2:
                s0, e0 = hull[-2]
                s1, e1 = hull[-1]
                if (Fraction(e1) - Fraction(e)) * (s1 - s0) >= (Fraction(e0) - Fraction(e1)) * (s - s1):
                    hull.pop()
                else:
                    break
            hull.append((s, e))
        hulls.append(hull)
    dfs_candidates = [sorted(items, key=lambda t: (t[1], t[0])) for items in classes]

    suffix_min_s = [0] * (n + 1)
    suffix_base_e = [0.0] * (n + 1)
    for d in range(n - 1, -1, -1):
        suffix_min_s[d] = suffix_min_s[d + 1] + min(s for s, _, _ in classes[d])
        suffix_base_e[d] = suffix_base_e[d + 1] + hulls[d][0][1]

    increments = []
    for cls_idx, hull in enumerate(hulls):
        for step, ((s0, e0), (s1, e1)) in enumerate(zip(hull, hull[1:])):
            increments.append(((e0 - e1) / (s1 - s0), s1 - s0, e0 - e1, cls_idx, step))
    increments.sort(key=lambda t: (-t[0], t[3], t[4]))

    def lp_bound(depth, used):
        capacity = cap - used - suffix_min_s[depth]
        if capacity < 0:
            return math.inf
        reduction = 0.0
        for eff, ds, de, cls, _ in increments:
            if cls < depth:
                continue
            if ds <= capacity:
                reduction += de
                capacity -= ds
            else:
                reduction += eff * capacity
                break
        return suffix_base_e[depth] - reduction

    used = sum(hull[0][0] for hull in hulls)
    blocked = [False] * n
    taken_steps = [0] * n
    for _, ds, _, cls, step in increments:
        if blocked[cls] or step != taken_steps[cls]:
            blocked[cls] = True
            continue
        if used + ds <= cap:
            used += ds
            taken_steps[cls] += 1
        else:
            blocked[cls] = True
    incumbent_assign = [0] * n
    incumbent = Fraction(0)
    for depth, items in enumerate(classes):
        s, e = hulls[depth][taken_steps[depth]]
        incumbent_assign[order[depth]] = next(j for si, ei, j in items if si == s and ei == e)
        incumbent += Fraction(e)

    stack_assign = [0] * n

    def dfs(depth, used, err_exact, err_float):
        nonlocal incumbent_assign, incumbent
        if depth == n:
            if err_exact < incumbent:
                incumbent = err_exact
                assignment = [0] * n
                for d, i in enumerate(order):
                    assignment[i] = stack_assign[d]
                incumbent_assign = assignment
            return
        inc_float = float(incumbent)
        margin = 1e-9 * (1.0 + abs(inc_float))
        for s, e, j in dfs_candidates[depth]:
            new_used = used + s
            if new_used + suffix_min_s[depth + 1] > cap:
                continue
            bound = err_float + e + lp_bound(depth + 1, new_used)
            if bound >= inc_float + margin:
                continue
            stack_assign[depth] = j
            dfs(depth + 1, new_used, err_exact + Fraction(e), err_float + e)
            inc_float = float(incumbent)
            margin = 1e-9 * (1.0 + abs(inc_float))

    dfs(0, 0, Fraction(0), 0.0)
    return incumbent_assign


class TestConfigGrid:
    def test_default_grid_size(self):
        grid = default_grid()
        assert len(grid) == 243
        assert len(set(c.as_tuple() for c in grid)) == 243

    def test_default_grid_axes(self):
        grid = default_grid()
        assert {c.b0 for c in grid} == {2, 3, 4}
        assert {c.b1 for c in grid} == {2, 3, 4}
        assert {c.b2 for c in grid} == {"bf16", "fp16", "fp32"}
        assert {c.B0 for c in grid} == {16, 32, 64}
        assert {c.B1 for c in grid} == {16, 64, 256}

    def test_rejects_duplicates(self):
        cfg = QuantConfig(2, 2, "fp32", 16, 16)
        with pytest.raises(ValueError):
            ConfigGrid(configs=(cfg, cfg))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ConfigGrid(configs=())


class TestSolveMckp:
    def test_worked_example(self):
        cheap = QuantConfig(2, 2, "fp16", 16, 16)
        costly = QuantConfig(4, 8, "fp32", 64, 256)
        table = make_table([[4.0, 1.0], [3.0, 1.0]], configs=[cheap, costly])
        # room for exactly one upgrade: it goes where it removes more error
        budget = storage_bits_per_param(cheap) + storage_bits_per_param(costly)
        sol = solve_mckp(table, budget)
        assert sol.assignment == [1, 0]
        assert sol.total_error == 4.0
        assert sol.total_storage_bits == budget
        assert sol.optimal

    def test_loose_budget_takes_best_errors(self):
        table = make_table([[5.0, 1.0, 3.0], [2.0, 9.0, 4.0]])
        sol = solve_mckp(table, 10 ** 9)
        assert sol.assignment == [1, 0]
        assert sol.total_error == 3.0

    def test_equal_errors_prefer_cheaper_storage(self):
        cheap = QuantConfig(2, 2, "bf16", 64, 256)
        costly = QuantConfig(4, 8, "fp32", 16, 16)
        table = make_table([[7.0, 7.0]], configs=[costly, cheap])
        sol = solve_mckp(table, 10 ** 9)
        assert sol.assignment == [1]

    def test_infeasible_raises_with_amounts(self):
        table = make_table([[1.0, 2.0]], sizes=[100])
        with pytest.raises(InfeasibleBudgetError) as exc_info:
            solve_mckp(table, 10)
        err = exc_info.value
        assert err.budget_bits == 10
        assert err.min_storage_bits == min(table.storage_bits[0])

    def test_exactly_minimal_budget_is_feasible(self):
        table = make_table([[1.0, 2.0], [3.0, 4.0]], sizes=[10, 20])
        min_storage = sum(min(row) for row in table.storage_bits)
        sol = solve_mckp(table, min_storage)
        assert sol.total_storage_bits == min_storage

    def test_budget_monotonicity(self):
        rng = np.random.default_rng(0)
        table = make_table(rng.uniform(0, 10, (4, 5)), sizes=[7, 11, 13, 17])
        lo = float(sum(min(row) for row in table.storage_bits))
        hi = float(sum(max(row) for row in table.storage_bits))
        budgets = np.linspace(lo, hi, 12)
        errors = [solve_mckp(table, float(b)).total_error for b in budgets]
        assert errors == sorted(errors, reverse=True)

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(2)
        for trial in range(40):
            n = int(rng.integers(1, 6))
            c = int(rng.integers(1, 7))
            table = make_table(rng.uniform(0, 10, (n, c)),
                               sizes=[int(s) for s in rng.integers(1, 64, n)])
            lo = sum(min(row) for row in table.storage_bits)
            hi = sum(max(row) for row in table.storage_bits)
            budget = lo + (hi - lo) * Fraction(int(rng.integers(0, 110)), 100)
            got = solve_mckp(table, budget)
            want = brute_force_mckp(table, budget)
            assert got.total_error == want.total_error
            assert got.total_storage_bits <= budget

    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=4),
        c=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_hypothesis(self, data, n, c):
        errors = np.array([
            [data.draw(st.floats(min_value=0, max_value=100)) for _ in range(c)]
            for _ in range(n)
        ])
        sizes = [data.draw(st.integers(min_value=1, max_value=100)) for _ in range(n)]
        table = make_table(errors, sizes=sizes)
        lo = sum(min(row) for row in table.storage_bits)
        hi = sum(max(row) for row in table.storage_bits)
        frac = data.draw(st.fractions(min_value=0, max_value=Fraction(6, 5)))
        budget = lo + (hi - lo) * frac
        try:
            got = solve_mckp(table, budget)
        except InfeasibleBudgetError:
            with pytest.raises(InfeasibleBudgetError):
                brute_force_mckp(table, budget)
            return
        want = brute_force_mckp(table, budget)
        assert got.total_error == want.total_error

    def test_duplicate_errors_handled(self):
        table = make_table([[2.0, 2.0, 2.0], [2.0, 2.0, 2.0]], sizes=[4, 4])
        sol = solve_mckp(table, 10 ** 9)
        assert sol.total_error == 4.0

    def test_single_cell(self):
        table = make_table([[3.5]])
        sol = solve_mckp(table, 10 ** 9)
        assert sol.assignment == [0]
        assert sol.total_error == 3.5

    def test_rejects_unswept_cells(self):
        table = make_table([[1.0, np.nan]])
        with pytest.raises(ValueError):
            solve_mckp(table, 100)

    def test_rejects_table_without_configs(self):
        table = make_table(np.zeros((2, 0)), configs=[])
        for solver in (solve_mckp, brute_force_mckp):
            with pytest.raises(ValueError, match="no configs"):
                solver(table, 100)


def seeded_table(n, seed):
    """An n-matrix table over the default grid, errors falling with storage."""
    rng = np.random.default_rng(seed)
    configs = list(default_grid().configs)
    bits = np.array([float(storage_bits_per_param(cfg)) for cfg in configs])
    sizes = [int(s) for s in rng.integers(1, 9, n) * 256]
    errors = np.array([s * 2.0 ** (-2 * bits) * rng.lognormal(0, 0.3, bits.size) for s in sizes])
    return make_table(errors * rng.lognormal(0, 1, (n, 1)), sizes=sizes, configs=configs)


# Configs with few distinct storage costs: bf16 and fp16 scales cost the same.
TIED_COST_CONFIGS = [QuantConfig(b0, 2, b2, B0, 16)
                     for b0 in (2, 3) for b2 in ("bf16", "fp16") for B0 in (16, 32)]


class TestExactSearch:
    @pytest.mark.parametrize("frac", [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    def test_power_of_two_scaling_changes_nothing(self, frac):
        # The search compares exact ints, so scaling every error by 2**-40
        # (exact in floats) changes neither the assignment nor the work done.
        table = seeded_table(4, seed=0)
        scaled = make_table(table.errors * 2.0 ** -40, sizes=table.sizes, configs=table.configs)
        budget = (2 + 2 * frac) * sum(table.sizes)
        want = solve_mckp(table, budget)
        got = solve_mckp(scaled, budget)
        assert want.nodes > 1
        assert got.assignment == want.assignment
        assert (got.nodes, got.bounds) == (want.nodes, want.bounds)
        assert got.total_error == want.total_error * 2.0 ** -40

    def test_unconstrained_budget_runs_no_search(self):
        sol = solve_mckp(seeded_table(3, seed=1), 10 ** 9)
        assert (sol.nodes, sol.bounds) == (0, 0)

    def test_brute_force_reports_no_search(self):
        sol = brute_force_mckp(make_table([[1.0, 2.0]]), 10 ** 9)
        assert sol.nodes is None and sol.bounds is None

    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=5),
        c=st.integers(min_value=1, max_value=len(TIED_COST_CONFIGS)),
    )
    @settings(max_examples=150, deadline=None)
    def test_assignment_matches_reference(self, data, n, c):
        # errors come from a small pool, so exact ties are common, and
        # spread over twelve decades
        magnitudes = st.one_of(
            st.floats(min_value=1e-6, max_value=1e6),
            st.floats(min_value=-6, max_value=6).map(lambda p: 10.0 ** p),
        )
        pool = data.draw(st.lists(magnitudes, min_size=1, max_size=n * c))
        errors = np.array([[data.draw(st.sampled_from(pool)) for _ in range(c)]
                           for _ in range(n)])
        configs = data.draw(st.permutations(TIED_COST_CONFIGS))[:c]
        sizes = [data.draw(st.integers(min_value=1, max_value=100)) for _ in range(n)]
        table = make_table(errors, sizes=sizes, configs=configs)
        lo = sum(min(row) for row in table.storage_bits)
        hi = sum(max(row) for row in table.storage_bits)
        budget = lo + (hi - lo) * data.draw(st.fractions(min_value=0, max_value=Fraction(6, 5)))
        assert solve_mckp(table, budget).assignment == reference_solve_mckp(table, budget)


def tied_table():
    """A 6-matrix table over TIED_COST_CONFIGS."""
    rng = np.random.default_rng(7)
    return make_table(rng.lognormal(0, 1, (6, len(TIED_COST_CONFIGS))),
                      sizes=[int(s) for s in rng.integers(1, 100, 6)], configs=TIED_COST_CONFIGS)


def bits_per_param(frac):
    """The budget of 2 + 2 * frac bits per parameter."""
    return lambda table: (2 + 2 * frac) * sum(table.sizes)


def between_extremes(frac):
    """The budget frac of the way from the least to the greatest storage."""
    def budget(table):
        lo = sum(min(row) for row in table.storage_bits)
        hi = sum(max(row) for row in table.storage_bits)
        return lo + (hi - lo) * frac
    return budget


# (table, budget, assignment, nodes, bounds): the assignment and the nodes
# as the search gave them before the root Lagrangian reduction and the
# early exit from a class.  Both skip only candidates that the node would
# prune anyway, so the assignment and the nodes must stay; the bounds are
# the counts with both in place, and may only fall.  The breakpoint
# budgets end the root LP exactly on a hull step, where its bound equals
# the greedy incumbent and the reduction empties every class.
GOLDEN = [
    ("seeded0-1/8", lambda: seeded_table(6, seed=0), bits_per_param(Fraction(1, 8)),
     [9, 57, 6, 129, 7, 15], 6, 6),
    ("seeded0-3/8", lambda: seeded_table(6, seed=0), bits_per_param(Fraction(3, 8)),
     [156, 93, 6, 129, 7, 15], 10, 15),
    ("seeded0-5/8", lambda: seeded_table(6, seed=0), bits_per_param(Fraction(5, 8)),
     [135, 232, 6, 179, 84, 15], 43, 60),
    ("seeded1-1/8", lambda: seeded_table(6, seed=1), bits_per_param(Fraction(1, 8)),
     [21, 26, 64, 45, 119, 67], 7, 22),
    ("seeded1-3/8", lambda: seeded_table(6, seed=1), bits_per_param(Fraction(3, 8)),
     [21, 26, 101, 117, 119, 67], 12, 28),
    ("seeded1-5/8", lambda: seeded_table(6, seed=1), bits_per_param(Fraction(5, 8)),
     [21, 92, 213, 117, 208, 67], 22, 55),
    ("seeded2-1/8", lambda: seeded_table(6, seed=2), bits_per_param(Fraction(1, 8)),
     [64, 123, 57, 9, 26, 44], 15, 23),
    ("seeded2-3/8", lambda: seeded_table(6, seed=2), bits_per_param(Fraction(3, 8)),
     [160, 164, 110, 94, 26, 44], 6, 5),
    ("seeded2-5/8", lambda: seeded_table(6, seed=2), bits_per_param(Fraction(5, 8)),
     [196, 164, 214, 117, 141, 44], 143, 454),
    ("tied-1/4", tied_table, between_extremes(Fraction(1, 4)), [3, 1, 2, 2, 0, 5], 8, 8),
    ("tied-1/2", tied_table, between_extremes(Fraction(1, 2)), [3, 5, 2, 2, 0, 5], 6, 5),
    ("seeded1-breakpoint", lambda: seeded_table(6, seed=1), lambda _: Fraction(34075, 2),
     [21, 26, 101, 45, 119, 67], 1, 0),
    ("tied-breakpoint", tied_table, lambda _: Fraction(6421, 8), [3, 1, 2, 2, 1, 2], 1, 0),
]
GOLDEN_IDS = [case[0] for case in GOLDEN]


def lp_relaxation(table, budget):
    """The MCKP's LP relaxation optimum, by scipy's HiGHS."""
    n, c = table.errors.shape
    storage = np.array([[float(s) for s in row] for row in table.storage_bits])
    one_per_class = np.kron(np.eye(n), np.ones(c))
    res = linprog(table.errors.ravel(), A_ub=storage.reshape(1, -1), b_ub=[float(budget)],
                  A_eq=one_per_class, b_eq=np.ones(n), bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


class TestRootReduction:
    @pytest.mark.parametrize("make, budget, assignment, nodes, bounds",
                             [case[1:] for case in GOLDEN], ids=GOLDEN_IDS)
    def test_same_search_fewer_bounds(self, make, budget, assignment, nodes, bounds):
        table = make()
        sol = solve_mckp(table, budget(table))
        assert sol.assignment == assignment
        assert sol.nodes == nodes
        assert sol.bounds <= bounds

    @pytest.mark.parametrize("case", GOLDEN[-2:], ids=GOLDEN_IDS[-2:])
    def test_breakpoint_budget_empties_every_class(self, case):
        _, make, budget, *_ = case
        table = make()
        sol = solve_mckp(table, budget(table))
        assert (sol.nodes, sol.bounds) == (1, 0)
        assert sol.lp_bound == pytest.approx(sol.total_error, rel=1e-12)

    @pytest.mark.parametrize("case", GOLDEN, ids=GOLDEN_IDS)
    def test_lp_bound_is_the_root_relaxation(self, case):
        _, make, budget, *_ = case
        table = make()
        sol = solve_mckp(table, budget(table))
        assert sol.lp_bound <= sol.total_error
        # HiGHS solves to its default feasibility tolerance of 1e-7
        assert sol.lp_bound == pytest.approx(lp_relaxation(table, budget(table)), rel=1e-7)

    def test_lp_bound_without_search(self):
        table = seeded_table(3, seed=1)
        sol = solve_mckp(table, 10 ** 9)
        assert sol.lp_bound == sol.total_error
        assert brute_force_mckp(make_table([[1.0, 2.0]]), 10 ** 9).lp_bound is None


def search_without_exit(table, budget_bits):
    """(assignment, nodes, bounds) of the search that bounds every candidate.

    The set-up of `solve_mckp` written plainly, then its depth-first loop
    as it was before the early exit: a class is left only when its
    candidates run out, so every candidate that fits has its bound
    evaluated.
    """
    _, costs, _, cap = _scaled_budget(table, budget_bits)
    errors = table.errors
    n, c = errors.shape
    kept = []  # per matrix: configs strictly improving on every cheaper one
    for i in range(n):
        row = []
        for j in sorted(range(c), key=lambda j: (costs[j], errors[i, j], j)):
            if not row or errors[i, j] < errors[i, row[-1]]:
                row.append(j)
        kept.append(row)
    if sum(size * costs[row[-1]] for size, row in zip(table.sizes, kept)) <= cap:
        return [row[-1] for row in kept], 0, 0
    order = sorted(range(n), key=lambda i: errors[i, kept[i][0]] - errors[i, kept[i][-1]],
                   reverse=True)
    e_flat, _ = _integer_errors(errors)
    classes = [[(table.sizes[i] * costs[j], e_flat[i * c + j], j) for j in kept[i]]
               for i in order]
    hulls = [_class_hull(items) for items in classes]
    candidates = [sorted(items, key=lambda t: (t[1], t[0])) for items in classes]
    increments = sorted(((s1 - s0, e0 - e1, cls) for cls, hull in enumerate(hulls)
                         for (s0, e0, _), (s1, e1, _) in zip(hull, hull[1:])),
                        key=functools.cmp_to_key(_by_efficiency))
    prefix = [None]
    for d in range(1, n + 1):
        ps, lp = [0], [sum(hull[0][1] for hull in hulls[d:])]
        for ds, de, cls in increments:
            if cls >= d:
                ps.append(ps[-1] + ds)
                lp.append(lp[-1] - de)
        prefix.append((ps + [ps[-1] + cap + 1], lp + [lp[-1]]))
    best, incumbent = _greedy_incumbent(hulls, increments, cap)

    room = cap - sum(hull[0][0] for hull in hulls)
    for ds, de, _ in increments:
        if ds > room:
            break
        room -= ds
    low = [min(ds * e + de * s for s, e, _ in hull) for hull in hulls]
    root = sum(low) - de * cap
    candidates = [[t for t in items if ds * t[1] + de * t[0] < limit]
                  for items, limit in zip(candidates, (ds * incumbent - root + lo for lo in low))]

    chosen = [0] * n
    spare = [cap - sum(hull[0][0] for hull in hulls)] + [0] * (n - 1)
    err = [0] * n
    pending = [iter(candidates[0])] + [None] * (n - 1)
    nodes, bounds = 1, 0
    depth = 0
    while depth >= 0:
        ps, lp = prefix[depth + 1]
        room = spare[depth] + hulls[depth][0][0]
        for s, e, j in pending[depth]:
            rem = room - s
            if rem < 0:
                continue
            bounds += 1
            new_err = err[depth] + e
            k = bisect.bisect_right(ps, rem) - 1
            if (new_err + lp[k] - incumbent) * (ps[k + 1] - ps[k]) >= (lp[k] - lp[k + 1]) * (rem - ps[k]):
                continue
            nodes += 1
            chosen[depth] = j
            if depth + 1 == n:
                best, incumbent = list(chosen), new_err
                continue
            depth += 1
            spare[depth] = rem
            err[depth] = new_err
            pending[depth] = iter(candidates[depth])
            break
        else:
            depth -= 1

    assignment = [0] * n
    for d, i in enumerate(order):
        assignment[i] = best[d]
    return assignment, nodes, bounds


class TestEarlyExit:
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=7),
        c=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_search_as_without_exit_hypothesis(self, data, n, c):
        # default-grid configs tie in cost (bf16 and fp16 scales), and
        # errors from a small pool tie exactly
        configs = data.draw(st.lists(st.sampled_from(default_grid().configs),
                                     min_size=c, max_size=c, unique=True))
        pool = data.draw(st.lists(st.floats(min_value=-4, max_value=4).map(lambda p: 10.0 ** p),
                                  min_size=1, max_size=n * c))
        errors = np.array([[data.draw(st.sampled_from(pool)) for _ in range(c)]
                           for _ in range(n)])
        sizes = [data.draw(st.integers(min_value=1, max_value=100)) for _ in range(n)]
        table = make_table(errors, sizes=sizes, configs=configs)
        lo = sum(min(row) for row in table.storage_bits)
        hi = sum(max(row) for row in table.storage_bits)
        budget = lo + (hi - lo) * data.draw(st.fractions(min_value=0, max_value=Fraction(11, 10)))
        assignment, nodes, bounds = search_without_exit(table, budget)
        got = solve_mckp(table, budget)
        assert (got.assignment, got.nodes) == (assignment, nodes)
        assert got.bounds <= bounds

    @pytest.mark.parametrize("seed", range(3))
    def test_same_search_on_seeded_tables(self, seed):
        # deeper searches than the random tables reach, over the full grid
        table = seeded_table(8, seed=seed)
        for frac in (Fraction(1, 8), Fraction(3, 8), Fraction(5, 8), Fraction(7, 8)):
            budget = (2 + 2 * frac) * sum(table.sizes)
            assignment, nodes, bounds = search_without_exit(table, budget)
            got = solve_mckp(table, budget)
            assert (got.assignment, got.nodes) == (assignment, nodes)
            assert got.bounds <= bounds


class TestBruteForce:
    def test_guard(self):
        table = make_table(np.zeros((30, 6)))
        with pytest.raises(ValueError):
            brute_force_mckp(table, 10 ** 9)

    def test_guard_is_the_module_constant(self, monkeypatch):
        # 2 configs over 3 matrices are 8 assignments
        table = make_table(np.zeros((3, 2)))
        monkeypatch.setattr(alloc, "BRUTE_FORCE_GUARD", 7)
        with pytest.raises(ValueError):
            brute_force_mckp(table, 10 ** 9)
        monkeypatch.setattr(alloc, "BRUTE_FORCE_GUARD", 8)
        assert brute_force_mckp(table, 10 ** 9).total_error == 0.0
        with pytest.raises(TypeError):
            brute_force_mckp(table, 10 ** 9, guard=8)

    def test_exact_tie_resolution(self):
        # sums that differ only in exact arithmetic must still agree
        # between the two solvers
        e = np.array([[0.1, 0.3], [0.3, 0.1]])
        table = make_table(e)
        a = solve_mckp(table, 10 ** 9)
        b = brute_force_mckp(table, 10 ** 9)
        assert a.total_error == b.total_error

    # The configs cost 35/16 and 2113/512 bits per param, so the integer
    # costs, in 1/512 bits, are 1120 * size and 2113 * size.
    @pytest.mark.parametrize("size", [
        (1 << 60) // 2113,  # each cost just under 2**60, ten of them past 2**63
        (1 << 64) // 2113,  # each cost past 2**63
    ])
    def test_huge_costs_stay_within_budget(self, size):
        configs = [QuantConfig(2, 2, "fp16", 16, 16), QuantConfig(4, 8, "fp32", 64, 256)]
        rng = np.random.default_rng(0)
        table = make_table(rng.uniform(0, 10, (10, 2)), sizes=[size] * 10, configs=configs)
        budget = Fraction(5, 2) * sum(table.sizes)
        want = solve_mckp(table, budget)
        got = brute_force_mckp(table, budget)
        assert got.total_storage_bits <= budget
        assert got.total_error == want.total_error


class TestJsonRoundTrips:
    def test_sweep_table(self):
        table = make_table([[1.5, np.nan], [0.25, 3.0]], sizes=[6, 8])
        payload = table.to_json()
        assert "storage_bits" not in payload
        back = SweepTable.from_json(payload)
        assert back.sizes == table.sizes
        assert back.configs == table.configs
        assert np.array_equal(np.isnan(back.errors), np.isnan(table.errors))
        mask = ~np.isnan(table.errors)
        assert np.array_equal(back.errors[mask], table.errors[mask])
        assert back.storage_bits == table.storage_bits
        assert back.rank == table.rank

    def test_alloc_solution(self):
        sol = AllocSolution(assignment=[2, 0, 1], total_error=1.25,
                            total_storage_bits=Fraction(35, 16),
                            budget_bits=Fraction(3), optimal=True)
        payload = sol.to_json()
        assert payload["total_storage_bits"] == "35/16"
        assert payload["budget_bits"] == "3"
        back = AllocSolution.from_json(payload)
        assert back.assignment == sol.assignment
        assert back.total_error == sol.total_error
        assert back.total_storage_bits == sol.total_storage_bits
        assert back.budget_bits == sol.budget_bits
        assert back.optimal

    def test_alloc_solution_search_stats(self):
        sol = AllocSolution(assignment=[1], total_error=0.5,
                            total_storage_bits=Fraction(3), budget_bits=Fraction(4),
                            optimal=True, nodes=12, bounds=40, lp_bound=0.375)
        back = AllocSolution.from_json(sol.to_json())
        assert (back.nodes, back.bounds, back.lp_bound) == (12, 40, 0.375)
        # files written before the search reported its work still load
        payload = sol.to_json()
        del payload["nodes"], payload["bounds"], payload["lp_bound"]
        old = AllocSolution.from_json(payload)
        assert old.nodes is None and old.bounds is None and old.lp_bound is None
        assert old.assignment == [1]

    @pytest.mark.parametrize("field, value", [
        ("assignment", [1.7, True]), ("assignment", [-1, 0]), ("assignment", "10"),
        ("total_error", "0.5"), ("total_error", True),
        ("total_storage_bits", 3.5), ("total_storage_bits", "x/y"),
        ("budget_bits", "1/0"), ("optimal", "false"), ("optimal", 1),
        ("nodes", 1.5), ("bounds", True), ("lp_bound", "0.25"),
        ("total_error", math.nan), ("total_error", math.inf), ("total_error", -1.0),
        ("lp_bound", math.nan), ("lp_bound", math.inf), ("lp_bound", -1.0),
        ("total_storage_bits", "-5/2"), ("budget_bits", "-1"), ("nodes", -3), ("bounds", -1),
        ("assignment", []),
    ], ids=["assignment-floats", "assignment-negative", "assignment-text",
            "error-text", "error-bool", "storage-float", "storage-text",
            "budget-zero-denominator", "optimal-text", "optimal-int",
            "nodes-float", "bounds-bool", "lp-bound-text",
            "error-nan", "error-inf", "error-negative",
            "lp-bound-nan", "lp-bound-inf", "lp-bound-negative",
            "storage-negative", "budget-negative", "nodes-negative", "bounds-negative",
            "assignment-empty"])
    def test_alloc_solution_field_of_wrong_type_is_malformed(self, field, value):
        # checked, not coerced: int(1.7) is 1, bool(True) is 1 and
        # bool("false") is True
        payload = AllocSolution(assignment=[1, 0], total_error=0.5,
                                total_storage_bits=Fraction(3), budget_bits=Fraction(4),
                                optimal=True, nodes=12, bounds=40, lp_bound=0.375).to_json()
        payload[field] = value
        with pytest.raises(FormatError, match=field):
            AllocSolution.from_json(payload)

    @pytest.mark.parametrize("field", ["assignment", "total_error", "total_storage_bits",
                                       "budget_bits", "optimal"])
    def test_alloc_solution_missing_field_is_malformed(self, field):
        payload = AllocSolution(assignment=[1], total_error=0.5,
                                total_storage_bits=Fraction(3), budget_bits=Fraction(4),
                                optimal=False).to_json()
        del payload[field]
        with pytest.raises(FormatError, match=field):
            AllocSolution.from_json(payload)

    @pytest.mark.parametrize("payload", [[1, 0], "solution", None])
    def test_alloc_solution_not_an_object_is_malformed(self, payload):
        with pytest.raises(FormatError, match="JSON object"):
            AllocSolution.from_json(payload)

    def test_table_without_configs_is_malformed(self):
        payload = make_table([[1.0]]).to_json()
        payload["configs"], payload["errors"] = [], [[]]
        with pytest.raises(FormatError, match="no configs"):
            SweepTable.from_json(payload)

    @pytest.mark.parametrize("cell", [math.inf, -math.inf, math.nan, -1.0, "-0.5"],
                             ids=["inf", "-inf", "nan", "negative", "negative-text"])
    def test_bad_error_cell_is_malformed(self, cell):
        payload = make_table([[1.0, 2.0]]).to_json()
        payload["errors"][0][1] = cell
        with pytest.raises(FormatError, match="finite and nonnegative"):
            SweepTable.from_json(payload)

    @pytest.mark.parametrize("field, value", [
        ("fisher_weighted", "false"), ("fisher_weighted", 0),
        ("rank", 1.9), ("rank", True), ("rank", "2"),
        ("seed", True), ("seed", 1.0),
    ], ids=["weighted-text", "weighted-int", "rank-float", "rank-bool", "rank-text",
            "seed-bool", "seed-float"])
    def test_field_of_wrong_type_is_malformed(self, field, value):
        # checked, not coerced: bool("false") is True and int(1.9) is 1
        payload = make_table([[1.0, 2.0]]).to_json()
        payload[field] = value
        with pytest.raises(FormatError, match=field):
            SweepTable.from_json(payload)

    @pytest.mark.parametrize("cell", ["0.5", True], ids=["text", "bool"])
    def test_error_cell_of_wrong_type_is_malformed(self, cell):
        payload = make_table([[1.0, 2.0]]).to_json()
        payload["errors"][0][1] = cell
        with pytest.raises(FormatError, match="finite and nonnegative"):
            SweepTable.from_json(payload)

    def test_error_cell_beyond_float_is_malformed(self):
        payload = make_table([[1.0, 2.0]]).to_json()
        payload["errors"][0][1] = 10 ** 400  # a JSON integer no float holds
        with pytest.raises(FormatError, match="malformed sweep table"):
            SweepTable.from_json(payload)

    def test_integer_error_cell_loads(self):
        payload = make_table([[1.0, 2.0]]).to_json()
        payload["errors"][0][1] = 0
        assert SweepTable.from_json(payload).errors[0, 1] == 0.0

    def test_null_cell_is_unswept(self):
        payload = make_table([[1.0, 2.0]]).to_json()
        payload["errors"][0][1] = None
        back = SweepTable.from_json(payload)
        assert back.errors[0, 0] == 1.0 and np.isnan(back.errors[0, 1])

    @pytest.mark.parametrize("row", [[2, 2, "fp16", 16], [2, 2, "fp16", 16, 16, 1], 7])
    def test_config_row_of_wrong_arity_is_malformed(self, row):
        payload = make_table([[1.0, 2.0]]).to_json()
        payload["configs"][1] = row
        with pytest.raises(FormatError, match="malformed sweep table"):
            SweepTable.from_json(payload)

    def test_reloaded_table_keeps_budget_exact(self):
        # B0=48, B1=3 give costs (4075/6, 5875/6) that no float holds; a
        # budget just under the exact mixed cost 4975/3 must stay infeasible
        # for the mixed assignment after a round trip, even when the file
        # still carries float costs from an older writer.
        configs = [QuantConfig(2, 2, "fp32", 48, 3), QuantConfig(3, 2, "fp32", 48, 3)]
        table = make_table([[2.0, 1.0], [2.0, 1.5]], sizes=[300, 300], configs=configs)
        mixed = table.storage_bits[0][1] + table.storage_bits[1][0]
        assert mixed == Fraction(4975, 3)
        budget = mixed - Fraction(1, 10 ** 15)
        payload = table.to_json()
        payload["storage_bits"] = [[float(s) for s in row] for row in table.storage_bits]
        back = SweepTable.from_json(payload)
        want = solve_mckp(table, budget)
        got = solve_mckp(back, budget)
        assert got.assignment == want.assignment == [0, 0]
        assert got.total_storage_bits == want.total_storage_bits <= budget


class TestSweep:
    GRID = ConfigGrid(configs=(
        QuantConfig(2, 2, "fp16", 16, 16),
        QuantConfig(4, 8, "fp32", 16, 64),
    ))

    def matrices(self):
        return [gen_matrix("gaussian", 24, 16, seed=s) for s in (0, 1)]

    def test_table_contents(self):
        table = sweep(self.matrices(), None, self.GRID, rank=2, seed=3)
        assert table.errors.shape == (2, 2)
        assert np.all(np.isfinite(table.errors))
        assert table.sizes == [384, 384]
        assert table.storage_bits[0][0] == 384 * storage_bits_per_param(self.GRID.configs[0])
        assert not table.fisher_weighted

    def test_cells_match_direct_decomposition(self):
        mats = self.matrices()
        table = sweep(mats, None, self.GRID, rank=2, seed=3)
        res = lq_decompose(mats[1], None, self.GRID.configs[0], 2,
                           seed=derive_seed(3, 1, 0))
        assert table.errors[1, 0] == res.error ** 2

    def fishers(self):
        return [gen_fisher("separable", 24, 16, seed=s) for s in (5, 6)]

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_worker_count_does_not_change_results(self, weighted):
        mats = self.matrices()
        fishers = self.fishers() if weighted else None
        serial = sweep(mats, fishers, self.GRID, rank=2, seed=3, workers=1)
        parallel = sweep(mats, fishers, self.GRID, rank=2, seed=3, workers=2)
        assert np.array_equal(serial.errors, parallel.errors)

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_two_workers_get_cells(self, weighted):
        # 3 matrices x 2 configs are 6 cells: two chunks of map's 4, one
        # for each worker, where 4 cells make a single chunk
        mats = [gen_matrix("gaussian", 24, 16, seed=s) for s in (0, 1, 2)]
        fishers = ([gen_fisher("separable", 24, 16, seed=s) for s in (5, 6, 7)]
                   if weighted else None)
        serial = sweep(mats, fishers, self.GRID, rank=2, seed=3, workers=1)
        parallel = sweep(mats, fishers, self.GRID, rank=2, seed=3, workers=2)
        assert np.array_equal(serial.errors, parallel.errors)

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The worker count of each pool a sweep builds; none starts a process."""
        counts = []

        class InlinePool:
            """Records its worker count and maps in this process: starts none."""

            def __init__(self, max_workers, initializer, initargs):
                counts.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                return map(fn, tasks)

        monkeypatch.setattr(alloc, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(alloc, "_pool_cell", None)
        return counts

    def test_pool_has_no_more_workers_than_chunks(self, pool_sizes):
        mats = [gen_matrix("gaussian", 24, 16, seed=s) for s in (0, 1, 2)]
        serial = sweep(mats, None, self.GRID, rank=2, seed=3, workers=1)
        capped = sweep(mats, None, self.GRID, rank=2, seed=3, workers=64)
        assert pool_sizes == [2]  # 6 cells in chunks of 4
        assert np.array_equal(serial.errors, capped.errors)

    def test_one_chunk_runs_in_process(self, pool_sizes):
        # 2 matrices x 2 configs are 4 cells, one chunk: a pool would get
        # one worker, so the sweep builds none
        serial = sweep(self.matrices(), None, self.GRID, rank=2, seed=3, workers=1)
        parallel = sweep(self.matrices(), None, self.GRID, rank=2, seed=3, workers=2)
        assert pool_sizes == []
        assert np.array_equal(serial.errors, parallel.errors)

    def test_resume_fills_only_missing_cells(self):
        mats = self.matrices()
        full = sweep(mats, None, self.GRID, rank=2, seed=3)
        partial = full.errors.copy()
        partial[0, 1] = np.nan
        partial[1, 0] = np.nan
        resumed = sweep(mats, None, self.GRID, rank=2, seed=3, errors_init=partial)
        assert np.array_equal(resumed.errors, full.errors)

    @pytest.mark.parametrize("shape", [(3, 2), (6,), (1, 6), (2, 3, 1)])
    def test_errors_init_of_wrong_shape_is_rejected(self, shape):
        # 2 matrices x 3 configs: a transposed, flat or padded table holds
        # the right number of cells, but reshaping it would put errors in
        # the wrong ones
        grid = ConfigGrid(configs=self.GRID.configs + (QuantConfig(3, 8, "fp16", 16, 64),))
        wrong = np.arange(6, dtype=np.float64).reshape(shape)
        with pytest.raises(ValueError, match="errors_init"):
            sweep(self.matrices(), None, grid, rank=2, seed=3, errors_init=wrong)

    def test_on_row_callback(self):
        rows = []
        sweep(self.matrices(), None, self.GRID, rank=2, seed=3,
              on_row=lambda i, table: rows.append(i))
        assert sorted(rows) == [0, 1]

    def test_fisher_weighted_flag(self):
        mats = self.matrices()
        table = sweep(mats, self.fishers(), self.GRID, rank=2, seed=3)
        assert table.fisher_weighted
        unweighted = sweep(mats, None, self.GRID, rank=2, seed=3)
        assert not np.array_equal(table.errors, unweighted.errors)

    def test_fisher_count_mismatch(self):
        with pytest.raises(ValueError):
            sweep(self.matrices(), [gen_fisher("uniform", 24, 16)], self.GRID, rank=2)

    def test_requires_grid(self):
        with pytest.raises(ValueError):
            sweep(self.matrices(), None, None, rank=2)


class TestLqLoraInit:
    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_final_results_match_table_cells(self, weighted):
        mats = [gen_matrix("gaussian", 24, 24, seed=s) for s in (0, 1)]
        fishers = [gen_fisher("separable", 24, 24, seed=s) for s in (5, 6)] if weighted else None
        grid = TestSweep.GRID
        results, solution, table = lq_lora_init(
            mats, fishers, grid, rank=2, budget_bits_per_param=4.0, seed=5,
            workers=2 if weighted else 1)
        assert table.fisher_weighted == weighted
        assert solution.optimal
        for i, (res, ci) in enumerate(zip(results, solution.assignment)):
            assert res.error ** 2 == table.errors[i, ci]
        total = sum(Fraction(float(r.error) ** 2) for r in results)
        assert solution.total_error == float(total)

    def test_single_matrix_equals_direct_call(self):
        mats = [gen_matrix("gaussian", 32, 32, seed=7)]
        grid = TestSweep.GRID
        results, solution, table = lq_lora_init(
            mats, None, grid, rank=3, budget_bits_per_param=16.0, seed=11)
        ci = solution.assignment[0]
        direct = lq_decompose(mats[0], None, grid.configs[ci], 3,
                              seed=derive_seed(11, 0, ci))
        assert results[0].error == direct.error
        assert results[0].q.codes == direct.q.codes

    def test_budget_binds(self):
        mats = [gen_matrix("gaussian", 32, 32, seed=s) for s in (2, 3)]
        grid = TestSweep.GRID
        _, generous, _ = lq_lora_init(mats, None, grid, rank=2,
                                      budget_bits_per_param=16.0, seed=0)
        _, tight, _ = lq_lora_init(mats, None, grid, rank=2,
                                   budget_bits_per_param=2.5, seed=0)
        assert tight.total_storage_bits <= Fraction(5, 2) * (32 * 32 * 2)
        assert tight.total_error >= generous.total_error

    def test_infeasible_budget_raises_before_sweeping(self, monkeypatch):
        # storage alone rules the budget out, so no cell may be decomposed
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return lq_decompose(*args, **kwargs)

        monkeypatch.setattr("lqdec.alloc.lq_decompose", counted)
        mats = [gen_matrix("gaussian", 32, 32, seed=s) for s in (0, 1)]
        grid = default_grid()
        with pytest.raises(InfeasibleBudgetError) as exc_info:
            lq_lora_init(mats, None, grid, rank=2, budget_bits_per_param=1, max_iters=3)
        assert calls == []
        cheapest = min(storage_bits_per_param(c) for c in grid.configs)
        assert exc_info.value.min_storage_bits == cheapest * 2 * 32 * 32
        assert exc_info.value.budget_bits == 2 * 32 * 32


class TestStorageReport:
    def test_7b_accounting(self):
        shapes = [(4096, 4096)] * 4 + [(4096, 11008)] * 2 + [(11008, 4096)]
        shapes = shapes * 32
        report = storage_report(shapes, Fraction(11, 4), lora_rank=64,
                                lora_bits_per_param=LORA_FORMATS["nf8"])
        assert report.total_params == 6476005376
        assert report.lora_params == 159907840
        assert report.quant_bits == Fraction(11, 4) * 6476005376
        assert report.lora_bits == 1299563520
        assert 2.94 < report.effective_bits_per_param < 2.96

    def test_70b_accounting(self):
        per_layer = [(8192, 8192)] * 2 + [(8192, 1024)] * 2 + \
            [(8192, 28672)] * 2 + [(28672, 8192)]
        report = storage_report(per_layer * 80, 2.75, lora_rank=64,
                                lora_bits_per_param=LORA_FORMATS["nf8"])
        assert report.total_params == 68451041280
        assert report.lora_params == 828375040
        assert 2.84 < report.effective_bits_per_param < 2.86

    def test_fp16_adapters(self):
        report = storage_report([(16, 16)], 4, lora_rank=2,
                                lora_bits_per_param=Fraction(16))
        assert report.lora_params == 64
        assert report.lora_bits == 64 * 16
        assert report.quant_bits == 1024

    def test_zero_rank_means_no_adapters(self):
        report = storage_report([(8, 8)], 3, lora_rank=0)
        assert report.lora_params == 0
        assert report.lora_bits == 0
        assert report.effective_bits_per_param == 3.0

    def test_per_matrix_bits(self):
        report = storage_report([(2, 2), (2, 2)], [2, 4], lora_rank=0)
        assert report.quant_bits == 2 * 4 + 4 * 4

    def test_validation(self):
        with pytest.raises(ValueError):
            storage_report([], 4)
        with pytest.raises(ValueError):
            storage_report([(4, 4)], [1, 2])
        with pytest.raises(ValueError):
            storage_report([(4, 4)], 4, lora_rank=-1)
        for shapes in ([(0, 4)], [(4, 4), (-2, -2)]):
            with pytest.raises(ValueError):
                storage_report(shapes, 4)

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            storage_report([(4, 4)], -3, lora_rank=1)
        with pytest.raises(ValueError, match="nonnegative"):
            storage_report([(4, 4), (4, 4)], [3, Fraction(-1, 3)])
        with pytest.raises(ValueError, match="nonnegative"):
            storage_report([(4, 4)], 4, lora_rank=1, lora_bits_per_param=-16)
        # zero bits are a valid, if odd, account
        assert storage_report([(4, 4)], 0, lora_rank=1, lora_bits_per_param=0).quant_bits == 0

    def test_json_payload(self):
        report = storage_report([(8, 8)], 4, lora_rank=1,
                                lora_bits_per_param=16)
        payload = report.to_json()
        assert payload["total_params"] == 64
        assert payload["lora_params"] == 16
        assert payload["quant_bytes"] == 32.0
        total = Fraction(payload["quant_bits"]) + Fraction(payload["lora_bits"])
        assert payload["effective_bits_per_param"] == float(total / 64)
