"""Config sweeps and exact budgeted bit allocation.

Choosing one quantization config per matrix under a total storage budget
is a multiple-choice knapsack: minimize the sum of squared decomposition
errors subject to an exact bit budget.  `solve_mckp` solves it exactly
with per-class dominance pruning and depth-first branch and bound.  The
lower bound at each node is the classic LP relaxation: every remaining
class sits at its cheapest config and budget is spent on convex-hull
upgrade increments in order of error reduction per bit.

A matrix's storage cost is its size times a per-config cost, so one sort
of the configs orders every class, and dominance is one numpy pass over
the float table; only the surviving cells become ints.  Before branching,
a root Lagrangian reduction drops every candidate whose bound, with the
multiplier of the root LP, already reaches the greedy incumbent: the
search would prune it at every node, so the nodes stay the same and only
the bounds evaluated fall.  The search itself leaves a class as soon as
its next candidate's error, plus the least error the classes below can
reach, meets the incumbent: candidates come error-ascending, so every
later one would be pruned too.

The search is exact in integers from start to finish: storage costs are
scaled by the common denominator of the grid, and errors by the common
power-of-two denominator of the float table.  Sums, dominance, hulls,
the increment order and every prune against the LP bound compare Python
ints, so no margin is needed and scaling the table by a power of two
changes neither the assignment nor the search.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import math
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .decompose import derive_seed, lq_decompose
from .errors import FormatError, InfeasibleBudgetError
from .quant import QuantConfig, storage_bits_per_param

BRUTE_FORCE_GUARD = 10 ** 7

_DEFAULT_AXES = {
    "b0": (2, 3, 4),
    "b1": (2, 3, 4),
    "b2": ("bf16", "fp16", "fp32"),
    "B0": (16, 32, 64),
    "B1": (16, 64, 256),
}


@dataclass(frozen=True)
class ConfigGrid:
    """Candidate configs offered to the allocator."""

    configs: tuple

    def __post_init__(self):
        if not self.configs:
            raise ValueError("config grid must not be empty")
        if len(set(c.as_tuple() for c in self.configs)) != len(self.configs):
            raise ValueError("config grid contains duplicates")

    def __len__(self) -> int:
        return len(self.configs)

    def __iter__(self):
        return iter(self.configs)


def default_grid() -> ConfigGrid:
    """The standard 243-config search grid (3 choices per knob)."""
    configs = tuple(
        QuantConfig(b0, b1, b2, bs0, bs1)
        for b0 in _DEFAULT_AXES["b0"]
        for b1 in _DEFAULT_AXES["b1"]
        for b2 in _DEFAULT_AXES["b2"]
        for bs0 in _DEFAULT_AXES["B0"]
        for bs1 in _DEFAULT_AXES["B1"]
    )
    return ConfigGrid(configs=configs)


@dataclass
class SweepTable:
    """Per-(matrix, config) squared errors.

    errors[i, c] is the squared final decomposition error of matrix i
    under config c (NaN marks a cell not swept yet).  Storage costs are
    not stored: they follow exactly from sizes and configs.
    """

    sizes: list
    configs: list
    errors: np.ndarray
    fisher_weighted: bool
    rank: int
    seed: int

    @property
    def storage_bits(self) -> list:
        """Exact rational bit costs: storage_bits[i][c] = sizes[i] * bits(c)."""
        costs, denom = _storage_costs(self.configs)
        return [[Fraction(int(size) * k, denom) for k in costs] for size in self.sizes]

    def to_json(self) -> dict:
        return {
            "sizes": [int(s) for s in self.sizes],
            "configs": [list(c.as_tuple()) for c in self.configs],
            "errors": [
                [None if math.isnan(e) else float(e) for e in row]
                for row in self.errors
            ],
            "fisher_weighted": bool(self.fisher_weighted),
            "rank": int(self.rank),
            "seed": int(self.seed),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SweepTable":
        """Parse a `to_json` payload; a missing or malformed field raises FormatError."""
        if not isinstance(payload, dict):
            raise FormatError(f"a sweep table is a JSON object, not {type(payload).__name__}")
        try:
            sizes = list(payload["sizes"])
            if not sizes or not all(type(s) is int and s > 0 for s in sizes):
                raise FormatError(f"sweep table sizes must be positive integers, got {sizes!r}")
            configs = [QuantConfig(b0, b1, b2, bs0, bs1) for b0, b1, b2, bs0, bs1 in payload["configs"]]
            if not configs:
                raise FormatError("sweep table has no configs")
            rows = payload["errors"]
            if len(rows) != len(sizes) or any(len(row) != len(configs) for row in rows):
                raise FormatError(f"sweep table errors must be a {len(sizes)}x{len(configs)} matrix")
            # checked, not coerced: a string or a bool is no error value
            if not all(e is None or (type(e) in (int, float) and 0 <= e < math.inf)
                       for row in rows for e in row):
                raise FormatError("sweep table errors must be finite and nonnegative "
                                  "numbers, or null for a cell not swept yet")
            # NaN here can only come from null, an unswept cell
            errors = np.array(
                [[np.nan if e is None else float(e) for e in row] for row in rows],
                dtype=np.float64,
            )
            fields = {name: payload[name] for name in ("fisher_weighted", "rank", "seed")}
            for name, kind in (("fisher_weighted", bool), ("rank", int), ("seed", int)):
                if type(fields[name]) is not kind:
                    raise FormatError(f"sweep table {name} must be a {kind.__name__}, "
                                      f"got {fields[name]!r}")
            return cls(sizes=sizes, configs=configs, errors=errors, **fields)
        except KeyError as exc:
            raise FormatError(f"sweep table has no {exc} field") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"malformed sweep table: {exc}") from None


def _storage_costs(configs):
    """The one derivation of storage costs from sizes and configs.

    Returns (costs, denom): integer per-parameter costs[c] equal to
    storage_bits_per_param(configs[c]) * denom, with denom the lcm of the
    per-config denominators.  Matrix i under config c costs
    sizes[i] * costs[c]; an integer total of those fits a budget exactly
    when it is <= floor(budget * denom).
    """
    per_param = [cfg.bits_ratio for cfg in configs]
    denom = math.lcm(*{den for _, den in per_param})
    return [num * (denom // den) for num, den in per_param], denom


@dataclass
class AllocSolution:
    """One config index per matrix plus exact totals.

    `nodes` (search nodes visited), `bounds` (LP bounds evaluated) and
    `lp_bound` (the root LP relaxation's error, a lower bound on
    `total_error`) report the work of `solve_mckp`; they are None for
    other solvers.
    """

    assignment: list
    total_error: float
    total_storage_bits: Fraction
    budget_bits: Fraction
    optimal: bool
    nodes: int = None
    bounds: int = None
    lp_bound: float = None

    def to_json(self) -> dict:
        return {
            "assignment": [int(a) for a in self.assignment],
            "total_error": float(self.total_error),
            "total_storage_bits": str(self.total_storage_bits),
            "budget_bits": str(self.budget_bits),
            "optimal": bool(self.optimal),
            "nodes": self.nodes,
            "bounds": self.bounds,
            "lp_bound": self.lp_bound,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "AllocSolution":
        """Parse a `to_json` payload; a missing or malformed field raises FormatError."""
        if not isinstance(payload, dict):
            raise FormatError(f"an allocation is a JSON object, not {type(payload).__name__}")
        # checked, not coerced: int(1.7) is 1 and bool("false") is True; files
        # written before the search reported its work have no statistics
        data = {"nodes": None, "bounds": None, "lp_bound": None, **payload}
        number, none = (int, float), type(None)
        expected = {"assignment": (list,), "total_error": number, "total_storage_bits": (str,),
                    "budget_bits": (str,), "optimal": (bool,), "nodes": (int, none),
                    "bounds": (int, none), "lp_bound": (*number, none)}
        for name, kinds in expected.items():
            if name not in data:
                raise FormatError(f"allocation has no {name!r} field")
            if type(data[name]) not in kinds:
                raise FormatError(f"allocation {name} has the wrong type: {data[name]!r}")
        if not data["assignment"] or not all(type(a) is int and a >= 0 for a in data["assignment"]):
            raise FormatError(f"allocation assignment must be config indices, got {data['assignment']!r}")
        for name, parse in (("total_error", float), ("total_storage_bits", Fraction),
                            ("budget_bits", Fraction)):
            try:
                data[name] = parse(data[name])
            except (ValueError, ZeroDivisionError, OverflowError):
                raise FormatError(f"allocation {name} is malformed: {data[name]!r}") from None
        # as in a table: no error, bit total or count is NaN, infinite or negative
        for name in ("total_error", "total_storage_bits", "budget_bits", "nodes", "bounds", "lp_bound"):
            if data[name] is not None and not 0 <= data[name] < math.inf:
                raise FormatError(f"allocation {name} must be finite and nonnegative, "
                                  f"got {data[name]!r}")
        return cls(**{name: data[name] for name in expected})


# ---------------------------------------------------------------------------
# sweeping
# ---------------------------------------------------------------------------

def _decompose_cell(matrices, fishers, configs, rank, seed, max_iters, i, c):
    """One sweep table cell: matrix i under configs[c], seeded from (seed, i, c)."""
    fisher = None if fishers is None else fishers[i]
    return lq_decompose(matrices[i], fisher, configs[c], rank,
                        max_iters=max_iters, seed=derive_seed(seed, i, c))


_pool_cell = None  # a pool worker's `_decompose_cell` partial, set by its initializer


def _init_sweep_worker(cell):
    global _pool_cell
    _pool_cell = cell


def _pool_squared_error(task):
    return _pool_cell(*task).error ** 2


def sweep(matrices, fishers=None, grid: ConfigGrid = None, rank: int = 1,
          seed: int = 0, workers: int = 1, max_iters: int = 50,
          errors_init=None, on_row=None) -> SweepTable:
    """Decompose every matrix under every grid config.

    Cells are independent jobs keyed by (matrix, config); their seeds
    derive from (seed, i, c) so results do not depend on scheduling or
    worker count.  `errors_init` may carry a partial table (NaN = to do)
    and `on_row` is invoked with (i, table) as each row completes.
    """
    if grid is None:
        raise ValueError("a config grid is required")
    if not matrices:
        raise ValueError("at least one matrix is required")
    if fishers is not None and len(fishers) != len(matrices):
        raise ValueError("fishers list length must match matrices")
    n, c = len(matrices), len(grid.configs)
    if errors_init is not None:
        errors = np.array(errors_init, dtype=np.float64)
        if errors.shape != (n, c):
            raise ValueError(f"errors_init has shape {errors.shape}, expected "
                             f"(matrices, configs) = {(n, c)}")
    else:
        errors = np.full((n, c), np.nan)

    table = SweepTable(
        sizes=[int(m.shape[0] * m.shape[1]) for m in matrices],
        configs=list(grid.configs), errors=errors,
        fisher_weighted=fishers is not None, rank=rank, seed=seed,
    )

    cell = functools.partial(_decompose_cell, matrices, fishers, grid.configs,
                             rank, seed, max_iters)
    pending = [(i, ci) for i in range(n) for ci in range(c) if math.isnan(errors[i, ci])]
    chunksize = 4  # a pool starts all its workers at once: one a chunk at most
    procs = min(workers, math.ceil(len(pending) / chunksize))
    with contextlib.ExitStack() as stack:
        squared = (cell(i, ci).error ** 2 for i, ci in pending)
        if procs > 1:  # one worker would only add a process to the same serial run
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=procs, initializer=_init_sweep_worker, initargs=(cell,)))
            squared = pool.map(_pool_squared_error, pending, chunksize=chunksize)
        # results arrive in the row-major order of `pending`, so a row is
        # complete at its last pending cell
        for k, ((i, ci), err) in enumerate(zip(pending, squared)):
            errors[i, ci] = err
            if on_row is not None and (k + 1 == len(pending) or pending[k + 1][0] != i):
                on_row(i, table)
    return table


# ---------------------------------------------------------------------------
# exact multiple-choice knapsack
# ---------------------------------------------------------------------------

def _fitting_budget(sizes, configs, budget_bits):
    """Scale the budget to integer costs, checking that anything fits.

    Returns (budget, costs, denom, cap) with the per-parameter integer
    costs of `_storage_costs`: a total of sizes[i] * costs[c] fits the
    exact budget when it is <= cap.  Raises InfeasibleBudgetError if the
    cheapest config of every matrix together does not fit.  Only storage
    enters, so this can run before any error is known.
    """
    budget = Fraction(budget_bits)
    costs, denom = _storage_costs(configs)
    cap = math.floor(budget * denom)
    min_storage = min(costs) * sum(int(size) for size in sizes)
    if min_storage > cap:
        raise InfeasibleBudgetError(budget, Fraction(min_storage, denom))
    return budget, costs, denom, cap


def _scaled_budget(table: SweepTable, budget_bits):
    """The preamble both solvers share: validate the table, then scale the budget.

    Returns `_fitting_budget` of the table's sizes and configs.
    """
    n, c = table.errors.shape
    if n != len(table.sizes) or c != len(table.configs):
        raise ValueError("inconsistent sweep table dimensions")
    if c == 0:
        raise ValueError("sweep table has no configs to choose from")
    if not np.isfinite(table.errors).all():
        if np.isnan(table.errors).any():
            raise ValueError("sweep table has unswept cells")
        raise ValueError("sweep table errors must be finite")
    return _fitting_budget(table.sizes, table.configs, budget_bits)


def _integer_errors(errors):
    """Float errors as Python ints over one common power of two.

    Returns (e_int, scale), e_int a flat list with
    errors.ravel()[k] == e_int[k] / scale exactly: each finite float is a
    53-bit integer mantissa times a power of two, and scale is one over
    the smallest of those powers (at most 1).  Sums and comparisons of
    e_int never round or overflow.
    """
    mant, exp = np.frexp(np.ravel(errors))
    exp -= 53  # errors == (mant * 2**53) * 2**exp, the factor an int
    low = int(exp.min(initial=0))
    ints = (mant * 2.0 ** 53).astype(np.int64).tolist()
    return [m << k for m, k in zip(ints, (exp - low).tolist())], 1 << -low


def _dominance(errors, costs):
    """Each matrix's configs that strictly improve error, storage ascending.

    Returns (picks, keep): picks[i, g] is matrix i's least-error config
    (lowest index on ties) among the g-th group of equal per-parameter
    cost, and keep[i, g] says whether it is strictly below the least error
    of every cheaper group.  Costs are sizes[i] * costs[c], so one stable
    sort of the configs orders every row.  Float order is the order of
    the exact ints of `_integer_errors`, so the pass runs on the table.
    """
    c = len(costs)
    perm = sorted(range(c), key=costs.__getitem__)
    edges = [g for g in range(c) if g == 0 or costs[perm[g]] != costs[perm[g - 1]]] + [c]
    perm, starts = np.array(perm), np.array(edges[:-1])
    e = errors[:, perm]
    least = np.minimum.reduceat(e, starts, axis=1)
    at_least = e == np.repeat(least, np.diff(edges), axis=1)
    first = np.minimum.reduceat(np.where(at_least, np.arange(c), c), starts, axis=1)
    keep = np.ones(least.shape, dtype=bool)
    keep[:, 1:] = least[:, 1:] < np.minimum.accumulate(least, axis=1)[:, :-1]
    return perm[first], keep


def solve_mckp(table: SweepTable, budget_bits) -> AllocSolution:
    """Exact minimum-error assignment under a total bit budget.

    Branch and bound over matrices ordered by error spread, candidates
    ordered best-error-first, pruned against the LP-relaxation bound; a
    class is left once its remaining candidates cannot beat the incumbent.
    All search arithmetic is on the ints of `_storage_costs` and
    `_integer_errors`, so every prune is exact.  The solution reports the
    search nodes visited, the LP bounds evaluated and the root LP bound.
    """
    budget, costs, denom, cap = _scaled_budget(table, budget_bits)
    sizes = [int(size) for size in table.sizes]
    n = len(sizes)
    mats = np.arange(n)

    picks, keep = _dominance(table.errors, costs)
    counts = keep.sum(axis=1)
    ends = np.cumsum(counts)
    cols = picks[keep]  # every matrix's survivors, storage ascending

    # Unconstrained fast path: every matrix takes its last survivor, its
    # best-error config (cheapest storage among exact error ties).  The LP
    # relaxation takes the same configs.
    greedy_best = cols[ends - 1].tolist()
    storage = sum(size * costs[j] for size, j in zip(sizes, greedy_best))
    if storage <= cap:
        e_int, scale = _integer_errors(table.errors[mats, greedy_best])
        solution = _solution(greedy_best, sum(e_int), scale, budget, storage, denom, nodes=0, bounds=0)
        solution.lp_bound = solution.total_error
        return solution

    # Process classes with the widest error spread first.  The order only
    # steers the search; it stays the float spread of the table so that
    # tied optima resolve as they always have.
    spread = table.errors[mats, cols[ends - counts]] - table.errors[mats, cols[ends - 1]]
    order = sorted(range(n), key=spread.tolist().__getitem__, reverse=True)

    # Per-class candidate lists: (storage, error, orig_idx), storage
    # ascending; only these cells become ints.
    e_int, scale = _integer_errors(table.errors[np.repeat(mats, counts), cols])
    cols = cols.tolist()
    classes = [[(size * costs[j], e, j) for j, e in zip(cols[lo:hi], e_int[lo:hi])]
               for size, lo, hi in zip(sizes, (ends - counts).tolist(), ends.tolist())]
    classes = [classes[i] for i in order]
    hulls = [_class_hull(items) for items in classes]
    base = [hull[0][0] for hull in hulls]
    candidates = [sorted(items, key=operator.itemgetter(1, 0)) for items in classes]
    increments = _hull_increments(hulls, scale)

    # Per depth d, the LP relaxation of classes d.. as prefix lists over
    # their increments in efficiency order: taking the first k increments
    # costs ps[k] storage beyond the cheapest configs and leaves error
    # lp[k].  A last sentinel step costs more than any capacity and
    # reduces nothing, so one bisection finds the fractional step.
    suffix_base_e = [0] * (n + 1)
    for d in range(n - 1, -1, -1):
        suffix_base_e[d] = suffix_base_e[d + 1] + hulls[d][0][1]
    prefix = [None]
    for d in range(1, n + 1):
        ps, lp = [0], [suffix_base_e[d]]
        for ds, de, cls in increments:
            if cls >= d:
                ps.append(ps[-1] + ds)
                lp.append(lp[-1] - de)
        ps.append(ps[-1] + cap + 1)
        lp.append(lp[-1])
        prefix.append((ps, lp))

    best, incumbent = _greedy_incumbent(hulls, increments, cap)

    # Root Lagrangian reduction (Sinha & Zoltners, Oper. Res. 1979).  With
    # lam = de / ds of the increment where the root LP turns fractional
    # (there is one: the best configs do not fit, or the fast path would
    # have returned), low[d] = min over class d of ds*e + de*s and
    # root = sum(low) - de*cap (ds times the root LP bound), every solution
    # that gives class d the candidate (s, e) has error at least
    #     (root + ds*e + de*s - low[d]) / ds.
    # By weak duality that is at most each LP bound the search evaluates
    # for the candidate, so one reaching the incumbent would be pruned at
    # every node it is tried from: dropping it keeps the nodes visited and
    # their order, and saves only their bounds.
    free = cap - sum(base)
    for ds, de, _ in increments:
        if ds > free:
            break
        free -= ds
    low = [min(ds * e + de * s for s, e, _ in hull) for hull in hulls]
    root = sum(low) - de * cap
    candidates = [[t for t in items if ds * t[1] + de * t[0] < limit]
                  for items, limit in zip(candidates, (ds * incumbent - root + lo for lo in low))]

    # Depth-first search with an explicit stack of candidate iterators;
    # room[d] is the capacity left for class d's candidate by the choices
    # above it and the cheapest configs of the classes below.  A candidate
    # leaving capacity rem to the classes below is pruned when its error
    # plus their LP bound,
    #     err + lp[k] - (lp[k] - lp[k+1]) * (rem - ps[k]) / (ps[k+1] - ps[k]),
    # is at least the incumbent: cross-multiplied, in ints.  That bound is
    # never below floor[d], the sum of their least hull errors, and a
    # class's candidates come error-ascending, so once err + e + floor[d]
    # reaches the incumbent every later candidate is pruned too and the
    # search leaves the class.  A leaf that survives is strictly better
    # than the incumbent, and no later candidate of its class can be.
    floor = [prefix[d + 1][1][-1] for d in range(n)]
    chosen = [0] * n
    room = [cap - sum(base[1:])] + [0] * (n - 1)
    err = [0] * n
    pending = [iter(candidates[0])] + [None] * (n - 1)
    nodes, bounds = 1, 0
    depth = 0
    while depth >= 0:
        ps, lp = prefix[depth + 1]
        gap = incumbent - err[depth]
        limit = gap - floor[depth]
        here, below, next_depth = room[depth], depth + 1, depth - 1
        for s, e, j in pending[depth]:
            if e >= limit:
                break
            rem = here - s
            if rem < 0:
                continue
            bounds += 1
            k = bisect.bisect_right(ps, rem) - 1
            if (e + lp[k] - gap) * (ps[k + 1] - ps[k]) >= (lp[k] - lp[k + 1]) * (rem - ps[k]):
                continue
            nodes += 1
            chosen[depth] = j
            if below == n:
                best, incumbent = list(chosen), err[depth] + e
                break
            room[below] = rem + base[below]
            err[below] = err[depth] + e
            pending[below] = iter(candidates[below])
            next_depth = below
            break
        depth = next_depth

    assignment = [0] * n
    for d, i in enumerate(order):
        assignment[i] = best[d]
    storage = sum(size * costs[j] for size, j in zip(sizes, assignment))
    return _solution(assignment, incumbent, scale, budget, storage, denom,
                     nodes=nodes, bounds=bounds, lp_bound=root / (ds * scale))


def _class_hull(items):
    """Lower convex hull of a class's (storage, error, orig_idx) items.

    `items` strictly improve: storage ascending, error descending.  A
    middle point is dropped when the increment past it is at least as
    efficient as the one into it, compared exactly by cross-multiplying
    ints, so error reduction per bit strictly decreases along the hull.
    """
    hull = []
    for item in items:
        s, e, _ = item
        while len(hull) >= 2:
            (s0, e0, _), (s1, e1, _) = hull[-2], hull[-1]
            if (e1 - e) * (s1 - s0) >= (e0 - e1) * (s - s1):
                hull.pop()
            else:
                break
        hull.append(item)
    return hull


def _by_efficiency(a, b):
    """Order increments by error reduction per bit, descending, then by class."""
    return (b[1] * a[0] - a[1] * b[0]) or (a[2] - b[2])


def _hull_increments(hulls, scale):
    """Upgrade increments of all class hulls, globally sorted.

    Returns (delta_storage, delta_error, class_idx) sorted by efficiency
    delta_error / delta_storage descending, compared exactly.  Efficiency
    strictly decreases along each hull, so each class's steps stay in
    sequence.  A sort on the float efficiency (errors over `scale`, so it
    stays finite) comes first: it leaves the list in or near exact order,
    where the exact sort makes about one comparison per increment.
    """
    increments = [
        (s1 - s0, e0 - e1, cls)
        for cls, hull in enumerate(hulls)
        for (s0, e0, _), (s1, e1, _) in zip(hull, hull[1:])
    ]
    increments.sort(key=lambda t: (-t[1] / (t[0] * scale), t[2]))
    increments.sort(key=functools.cmp_to_key(_by_efficiency))
    return increments


def _greedy_incumbent(hulls, increments, cap):
    """Integral greedy along the LP increments.

    Walks the increments most-efficient-first and stops upgrading a class
    at its first step that does not fit.  Returns the chosen orig_idx per
    class and their total error.
    """
    used = sum(hull[0][0] for hull in hulls)
    blocked = [False] * len(hulls)
    taken = [0] * len(hulls)
    for ds, _, cls in increments:
        if blocked[cls]:
            continue
        if used + ds <= cap:
            used += ds
            taken[cls] += 1
        else:
            blocked[cls] = True
    picks = [hull[t] for hull, t in zip(hulls, taken)]
    return [j for _, _, j in picks], sum(e for _, e, _ in picks)


def _solution(assignment, error: int, scale: int, budget: Fraction, storage: int, denom: int,
              **search) -> AllocSolution:
    """An exact solution: its total error is error / scale, its storage storage / denom."""
    return AllocSolution(
        assignment=list(assignment),
        # int / int rounds correctly, as float(Fraction(error, scale))
        total_error=error / scale,
        total_storage_bits=Fraction(storage, denom),
        budget_bits=budget,
        optimal=True,
        **search,
    )


def brute_force_mckp(table: SweepTable, budget_bits) -> AllocSolution:
    """Exhaustive reference solver for small instances.

    Every one of the c**n assignments is checked with exact integers:
    storage as the costs of `_storage_costs`, errors as the ints of
    `_integer_errors`, both summed as Python ints, so no total can round
    or overflow.  Of the feasible assignments with the least error
    the first in `itertools.product` order is returned.
    """
    budget, costs, denom, cap = _scaled_budget(table, budget_bits)
    s_int = [[int(size) * k for k in costs] for size in table.sizes]
    n, c = table.errors.shape
    if c ** n > BRUTE_FORCE_GUARD:
        raise ValueError(f"instance size {c}**{n} exceeds the brute-force guard {BRUTE_FORCE_GUARD}")
    e_flat, scale = _integer_errors(table.errors)
    e_int = [e_flat[i * c:(i + 1) * c] for i in range(n)]

    best_error = best_assign = None
    for combo in itertools.product(range(c), repeat=n):
        # map(getitem, rows, combo) yields rows[i][combo[i]]
        if sum(map(operator.getitem, s_int, combo)) > cap:
            continue
        error = sum(map(operator.getitem, e_int, combo))
        if best_assign is None or error < best_error:
            best_error, best_assign = error, list(combo)
    storage = sum(map(operator.getitem, s_int, best_assign))
    return _solution(best_assign, best_error, scale, budget, storage, denom)


# ---------------------------------------------------------------------------
# end-to-end initialization and storage accounting
# ---------------------------------------------------------------------------

def lq_lora_init(matrices, fishers=None, grid: ConfigGrid = None, rank: int = 1,
                 budget_bits_per_param=4.0, seed: int = 0, workers: int = 1,
                 max_iters: int = 50):
    """Sweep, allocate, and decompose once more under the chosen configs.

    The budget is average bits per quantized parameter; low-rank factors
    live outside it.  Returns (per-matrix results, solution, sweep table);
    each final decomposition recomputes its sweep cell through
    `_decompose_cell`, so result errors equal the table entries.
    """
    if grid is None:
        raise ValueError("a config grid is required")
    sizes = [int(np.size(m)) for m in matrices]
    budget_bits = Fraction(budget_bits_per_param) * sum(sizes)
    # storage alone decides feasibility: no cell is swept for a budget
    # that nothing fits
    _fitting_budget(sizes, grid.configs, budget_bits)
    table = sweep(matrices, fishers, grid, rank, seed=seed, workers=workers,
                  max_iters=max_iters)
    solution = solve_mckp(table, budget_bits)
    results = [_decompose_cell(matrices, fishers, table.configs, rank, seed, max_iters, i, ci)
               for i, ci in enumerate(solution.assignment)]
    return results, solution, table


NF8_CONFIG = QuantConfig(8, 8, "fp32", 64, 256)

LORA_FORMATS = {"nf8": storage_bits_per_param(NF8_CONFIG)}


@dataclass
class StorageReport:
    """Exact storage accounting for a quantized model plus adapters."""

    total_params: int
    lora_params: int
    quant_bits: Fraction
    lora_bits: Fraction

    @property
    def effective_bits_per_param(self) -> float:
        return float((self.quant_bits + self.lora_bits) / self.total_params)

    def to_json(self) -> dict:
        return {
            "total_params": self.total_params,
            "lora_params": self.lora_params,
            "quant_bits": str(self.quant_bits),
            "lora_bits": str(self.lora_bits),
            "quant_bytes": float(self.quant_bits / 8),
            "lora_bytes": float(self.lora_bits / 8),
            "effective_bits_per_param": self.effective_bits_per_param,
        }


def storage_report(shapes, quant_bits_per_param, lora_rank: int = 0,
                   lora_bits_per_param=LORA_FORMATS["nf8"]) -> StorageReport:
    """Effective bits per parameter for given shapes and bit assignments.

    `quant_bits_per_param` is either one number for all matrices or a
    per-matrix sequence (e.g. config costs from an allocation).  Rank-r
    adapters add r * (rows + cols) parameters per matrix at
    `lora_bits_per_param` each.
    """
    shapes = list(shapes)
    if not shapes:
        raise ValueError("at least one shape is required")
    if lora_rank < 0:
        raise ValueError("lora_rank must be nonnegative")
    if any(int(r) < 1 or int(c) < 1 for r, c in shapes):
        raise ValueError("matrix dimensions must be positive")
    sizes = [int(r) * int(c) for r, c in shapes]
    if isinstance(quant_bits_per_param, (list, tuple)):
        if len(quant_bits_per_param) != len(shapes):
            raise ValueError("per-matrix bits list must match the number of shapes")
        per_matrix = [Fraction(b) for b in quant_bits_per_param]
    else:
        per_matrix = [Fraction(quant_bits_per_param)] * len(shapes)
    if min(per_matrix) < 0 or Fraction(lora_bits_per_param) < 0:
        raise ValueError("bits per parameter must be nonnegative")
    quant_bits = sum(s * b for s, b in zip(sizes, per_matrix))
    lora_params = sum(lora_rank * (int(r) + int(c)) for r, c in shapes)
    lora_bits = lora_params * Fraction(lora_bits_per_param)
    return StorageReport(
        total_params=sum(sizes),
        lora_params=lora_params,
        quant_bits=quant_bits,
        lora_bits=lora_bits,
    )

