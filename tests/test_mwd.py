"""Exact transport distance: worked values, plan contracts, invariances."""

from __future__ import annotations

import itertools
import random
from operator import sub

import pytest

import gridemd.mwd as mwd_module
from gridemd import (
    DimensionMismatchError,
    GridHistogram,
    MassMismatchError,
    Move,
    equalize_mass,
    gen_random_grid,
    manhattan_cost,
    mwd_exact,
    plan_cost,
    rotate90,
    transpose,
    wd_1d,
)
from tests._reference import assignment_distance, plan_is_optimal
from tests._util import plan_marginals, random_grid, random_pair


def test_manhattan_cost():
    assert manhattan_cost((0, 0), (0, 0)) == 0
    assert manhattan_cost((0, 0), (2, 3)) == 5
    assert manhattan_cost((1, 4), (3, 1)) == 5


def test_identity_gives_zero_with_consistent_plan():
    g = GridHistogram.from_rows([[2, 0], [1, 3]])
    res = mwd_exact(g, g)
    assert res.distance == 0
    assert plan_marginals(res.plan, 2, 2) == (g.cells, g.cells)
    assert all(mv.src == mv.dst for mv in res.plan)


def test_single_unit_travels_manhattan_distance():
    p = GridHistogram(3, 4, tuple(1 if i == 0 else 0 for i in range(12)))
    q = GridHistogram(3, 4, tuple(1 if i == 2 * 4 + 3 else 0 for i in range(12)))
    assert mwd_exact(p, q).distance == 5


def test_worked_examples():
    p = GridHistogram.from_rows([[1, 1], [0, 0]])
    q = GridHistogram.from_rows([[0, 0], [1, 1]])
    assert mwd_exact(p, q).distance == 2
    p2 = GridHistogram.from_rows([[1, 0], [0, 0]])
    q2 = GridHistogram.from_rows([[0, 0], [0, 1]])
    assert mwd_exact(p2, q2).distance == 2


def test_errors():
    with pytest.raises(DimensionMismatchError):
        mwd_exact(GridHistogram(1, 2, (1, 0)), GridHistogram(2, 1, (1, 0)))
    with pytest.raises(MassMismatchError, match=r"^total masses differ: 1 vs 2$"):
        mwd_exact(GridHistogram(1, 2, (1, 0)), GridHistogram(1, 2, (1, 1)))
    # The shape is checked before the mass.
    with pytest.raises(DimensionMismatchError, match=r"^grids are 1x2 vs 2x1$"):
        mwd_exact(GridHistogram(1, 2, (1, 0)), GridHistogram(2, 1, (1, 1)))
    # Exactly one all-zero grid.
    zero, heavy = GridHistogram(1, 3, (0, 0, 0)), GridHistogram(1, 3, (0, 2, 1))
    with pytest.raises(MassMismatchError, match=r"^total masses differ: 0 vs 3$"):
        mwd_exact(zero, heavy)
    with pytest.raises(MassMismatchError, match=r"^total masses differ: 3 vs 0$"):
        mwd_exact(heavy, zero)
    with pytest.raises(ValueError, match=r"^reference limited to mass 12, got 13$"):
        assignment_distance(GridHistogram(1, 2, (13, 0)), GridHistogram(1, 2, (0, 13)))


def test_zero_mass_pair():
    z = GridHistogram(2, 2, (0, 0, 0, 0))
    res = mwd_exact(z, z)
    assert res.distance == 0
    assert res.plan == ()
    assert assignment_distance(z, z) == 0


def test_one_by_one_is_always_zero():
    g = GridHistogram(1, 1, (7,))
    assert mwd_exact(g, g).distance == 0


def test_matches_oracle_on_random_instances():
    rng = random.Random(701)
    for _ in range(200):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        mass = rng.randrange(0, 13)
        p, q = random_pair(rng, m, n, mass)
        assert mwd_exact(p, q).distance == assignment_distance(p, q)


def test_plan_contract_on_random_instances():
    rng = random.Random(702)
    for _ in range(100):
        m = rng.randrange(1, 7)
        n = rng.randrange(1, 7)
        mass = rng.randrange(0, 120)
        p, q = random_pair(rng, m, n, mass)
        res = mwd_exact(p, q)
        assert all(mv.amount > 0 for mv in res.plan)
        assert plan_marginals(res.plan, m, n) == (p.cells, q.cells)
        assert plan_cost(res.plan) == res.distance
        assert len({(mv.src, mv.dst) for mv in res.plan}) == len(res.plan)
        assert list(res.plan) == sorted(res.plan)  # by src, then dst, row-major
        # Common mass stays put, also where d = p - q is 0, and nowhere else.
        stay = {mv.src: mv.amount for mv in res.plan if mv.src == mv.dst}
        assert stay == {
            divmod(i, n): min(a, b)
            for i, (a, b) in enumerate(zip(p.cells, q.cells))
            if a > 0 and b > 0
        }


def test_symmetry_identity_triangle():
    rng = random.Random(703)
    for _ in range(100):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        mass = rng.randrange(0, 40)
        p, q = random_pair(rng, m, n, mass)
        c = random_grid(rng, m, n, mass)
        pq = mwd_exact(p, q).distance
        assert pq == mwd_exact(q, p).distance
        assert mwd_exact(p, p).distance == 0
        assert mwd_exact(p, c).distance <= pq + mwd_exact(q, c).distance


def test_transform_invariance():
    rng = random.Random(704)
    for _ in range(50):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        mass = rng.randrange(0, 60)
        p, q = random_pair(rng, m, n, mass)
        d = mwd_exact(p, q).distance
        assert mwd_exact(transpose(p), transpose(q)).distance == d
        assert mwd_exact(rotate90(p), rotate90(q)).distance == d


def test_common_mass_canceling_soundness():
    rng = random.Random(705)
    for _ in range(80):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        mass = rng.randrange(0, 50)
        p, q = random_pair(rng, m, n, mass)
        r = tuple(rng.randrange(min(a, b) + 1) for a, b in zip(p.cells, q.cells))
        pr = GridHistogram(m, n, tuple(a - x for a, x in zip(p.cells, r)))
        qr = GridHistogram(m, n, tuple(b - x for b, x in zip(q.cells, r)))
        assert mwd_exact(p, q).distance == mwd_exact(pr, qr).distance


def test_projection_lower_bounds():
    rng = random.Random(706)
    for _ in range(80):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        mass = rng.randrange(0, 60)
        p, q = random_pair(rng, m, n, mass)
        d = mwd_exact(p, q).distance
        row_p = tuple(sum(p.cell(i, j) for j in range(n)) for i in range(m))
        row_q = tuple(sum(q.cell(i, j) for j in range(n)) for i in range(m))
        col_p = tuple(sum(p.cell(i, j) for i in range(m)) for j in range(n))
        col_q = tuple(sum(q.cell(i, j) for i in range(m)) for j in range(n))
        assert d >= wd_1d(row_p, row_q)
        assert d >= wd_1d(col_p, col_q)


def test_large_grid_corner_to_corner_unit():
    m = 33
    cells = [0] * (m * m)
    cells[0] = 1
    p = GridHistogram(m, m, tuple(cells))
    cells2 = [0] * (m * m)
    cells2[-1] = 1
    q = GridHistogram(m, m, tuple(cells2))
    assert mwd_exact(p, q).distance == 2 * (m - 1)


def _uniform_pair(rng, m, n, cell_max):
    """Cells uniform on 0..cell_max, totals equalized as the bench sweep does."""
    p = gen_random_grid(m, n, rng.randrange(1 << 62), cell_max)
    q = gen_random_grid(m, n, rng.randrange(1 << 62), cell_max)
    return equalize_mass(p, q, rng.randrange(1 << 62))


def _point_mass_pair(rng, m, n, points, units):
    """Each grid holds ``points`` masses of ``units`` at distinct random cells."""
    p = [0] * (m * n)
    q = [0] * (m * n)
    for i in rng.sample(range(m * n), points):
        p[i] = units
    for i in rng.sample(range(m * n), points):
        q[i] = units
    return GridHistogram(m, n, tuple(p)), GridHistogram(m, n, tuple(q))


def _separable_bound(p, q):
    """W1(row sums) + W1(column sums), a lower bound on the exact distance."""
    m, n = p.shape

    def row_sums(g):
        return tuple(sum(g.cells[i * n : (i + 1) * n]) for i in range(m))

    def col_sums(g):
        return tuple(sum(g.cells[j::n]) for j in range(n))

    return wd_1d(row_sums(p), row_sums(q)) + wd_1d(col_sums(p), col_sums(q))


def _engine_plans(p, q):
    """Full plans from both engines run directly on the same ``d = p - q``:
    stay-put moves plus each engine's shipped amounts."""
    d = tuple(a - b for a, b in zip(p.cells, q.cells))
    cell = {i: divmod(i, p.cols) for i in range(len(d))}
    stay = [Move(cell[i], cell[i], min(a, b))
            for i, (a, b) in enumerate(zip(p.cells, q.cells)) if min(a, b)]
    sup = [(i, v) for i, v in enumerate(d) if v > 0]
    dem = [(i, -v) for i, v in enumerate(d) if v < 0]
    shipped = {
        "grid": mwd_module._solve_grid(d, p.rows, p.cols),
        "bipartite": mwd_module._solve_transport(sup, dem, cell),
    }
    return {
        name: stay + [Move(cell[s], cell[t], amt) for (s, t), amt in moves.items()]
        for name, moves in shipped.items()
    }


def test_engines_agree_on_random_instances():
    rng = random.Random(707)
    cases = [
        _uniform_pair(rng, rng.randrange(1, 9), rng.randrange(1, 9), rng.choice((1, 3, 9)))
        for _ in range(240)
    ]
    for _ in range(60):
        m, n = rng.randrange(2, 9), rng.randrange(2, 9)
        points = rng.randrange(1, min(m * n, 6) + 1)
        cases.append(_point_mass_pair(rng, m, n, points, rng.choice((1, 7, 100))))
    for p, q in cases:
        plans = _engine_plans(p, q)
        distance = plan_cost(plans["bipartite"])
        assert distance == mwd_exact(p, q).distance
        assert distance >= _separable_bound(p, q)
        for plan in plans.values():
            assert all(mv.amount > 0 for mv in plan)
            assert len({(mv.src, mv.dst) for mv in plan}) == len(plan)
            assert plan_marginals(plan, p.rows, p.cols) == (p.cells, q.cells)
            assert plan_cost(plan) == distance


def _engine_used(monkeypatch, p, q):
    """Which engine ``mwd_exact`` ran on a pair, and its result."""
    used = []
    for name in ("_solve_grid", "_solve_transport"):
        real = getattr(mwd_module, name)
        monkeypatch.setattr(
            mwd_module, name, lambda *args, _real=real, _name=name: used.append(_name) or _real(*args)
        )
    res = mwd_exact(p, q)
    monkeypatch.undo()
    return used, res


def test_size_rule_picks_engine(monkeypatch):
    rng = random.Random(708)
    sparse = _point_mass_pair(rng, 128, 128, 32, 100)
    dense = _uniform_pair(rng, 12, 12, 9)
    zero = GridHistogram(3, 4, (0,) * 12)
    # 1x2k alternating units, each moving one step: S * D = k * k against
    # GRID_ENGINE_RATIO * 2k = 10k, so k = 11 is the first k above the rule
    # and k = 10 the last at it.
    def alternating(k):
        return GridHistogram(1, 2 * k, (1, 0) * k), GridHistogram(1, 2 * k, (0, 1) * k)

    row_p, row_q = alternating(24)
    for (p, q), engine in (
        (sparse, "_solve_transport"),
        (dense, "_solve_grid"),
        ((zero, zero), "_solve_transport"),
        ((row_p, row_q), "_solve_grid"),
        ((row_p, row_p), "_solve_transport"),
        (alternating(11), "_solve_grid"),
        (alternating(10), "_solve_transport"),
    ):
        used, res = _engine_used(monkeypatch, p, q)
        assert used == [engine]
        assert plan_marginals(res.plan, p.rows, p.cols) == (p.cells, q.cells)
        assert plan_cost(res.plan) == res.distance
    for k in (10, 11, 24):
        assert mwd_exact(*alternating(k)).distance == k


def test_sparse_engine_reroutes_shipped_flow(monkeypatch):
    # 1x6, sources at cells 2, 3 and 5, sinks at 0, 1 and 4. The column
    # reduction ships 2 -> 0 and 3 -> 4, each sink's least cost; cell 1's
    # least cost is from cell 2, which has nothing left, so 1 gets nothing.
    # The one phase, rooted at 5, reaches 4 at reduced cost 0, goes back
    # along 3 -> 4 to source 3 and on to sink 1: it ships 5 -> 4, cancels
    # 3 -> 4 and ships 3 -> 1. Keeping 3 -> 4 and shipping 5 -> 1 costs 7.
    p = GridHistogram(1, 6, (0, 0, 1, 1, 0, 1))
    q = GridHistogram(1, 6, (1, 1, 0, 0, 1, 0))
    used, res = _engine_used(monkeypatch, p, q)
    assert used == ["_solve_transport"]
    assert res.distance == 5
    assert res.plan == (Move((0, 2), (0, 0), 1), Move((0, 3), (0, 1), 1), Move((0, 5), (0, 4), 1))
    assert plan_marginals(res.plan, p.rows, p.cols) == (p.cells, q.cells)
    assert plan_cost(res.plan) == res.distance


def test_sparse_engine_column_reduction_ships_flow(monkeypatch):
    # 1x4, sources at cells 0 and 1, sinks at 2 and 3; both plans cost 4, so
    # only the plan shows what the column reduction did. It ships 1 -> 2,
    # sink 2's least cost; sink 3's least cost is from cell 1 too, which has
    # nothing left. The one phase, rooted at 0, then ships 0 -> 3. A
    # reduction that set the potentials but shipped nothing would leave both
    # sources to the phases, and the first, rooted at 0, would take sink 2.
    p = GridHistogram(1, 4, (1, 1, 0, 0))
    q = GridHistogram(1, 4, (0, 0, 1, 1))
    used, res = _engine_used(monkeypatch, p, q)
    assert used == ["_solve_transport"]
    assert res.distance == 4
    assert res.plan == (Move((0, 0), (0, 3), 1), Move((0, 1), (0, 2), 1))


def _reduction_runs_dry(p, q):
    """Whether some surplus cell is the first least-cost source (in
    row-major order) of deficit cells whose deficits add up to more than
    its surplus, so the sparse engine's column reduction uses it up."""
    d = [a - b for a, b in zip(p.cells, q.cells)]
    sources = [i for i, v in enumerate(d) if v > 0]
    owed = dict.fromkeys(sources, 0)
    for t, v in enumerate(d):
        if v < 0:
            cell = divmod(t, p.cols)
            owed[min(sources, key=lambda s: manhattan_cost(divmod(s, p.cols), cell))] -= v
    return any(owed[s] > d[s] for s in sources)


def test_sparse_engine_when_a_least_cost_source_runs_dry():
    # 1xn, nx1 and binary 2-D pairs of mass <= 12 where several sinks share
    # their least-cost source and it cannot serve them all, so the phases
    # start with some sinks unserved by their tightest arc.
    rng = random.Random(713)
    cases = []
    while len(cases) < 90:
        kind = len(cases) % 3  # 1xn, nx1, binary 2-D
        side = rng.randrange(3, 13)
        m, n = ((1, side), (side, 1), (rng.randrange(2, 5), rng.randrange(2, 5)))[kind]
        k = rng.randrange(1, min(m * n // 2, 6) + 1)
        units = 1 if kind == 2 else rng.randrange(1, 13 // k + 1)
        p, q = _point_mass_pair(rng, m, n, k, units)
        if _reduction_runs_dry(p, q):
            cases.append((p, q))
    for p, q in cases:
        plan = _engine_plans(p, q)["bipartite"]
        assert plan_marginals(plan, p.rows, p.cols) == (p.cells, q.cells)
        assert plan_cost(plan) == mwd_exact(p, q).distance == assignment_distance(p, q)


def _uneven_point_pair(rng, m, n, points):
    """``points`` masses of 1..50 units at distinct cells of p, and the same
    total split into ``points`` positive parts at distinct cells of q."""
    p = [0] * (m * n)
    q = [0] * (m * n)
    for i in rng.sample(range(m * n), points):
        p[i] = rng.randint(1, 50)
    total = sum(p)
    cuts = sorted(rng.sample(range(1, total), points - 1))
    for i, amount in zip(rng.sample(range(m * n), points), map(sub, cuts + [total], [0] + cuts)):
        q[i] = amount
    return GridHistogram(m, n, tuple(p)), GridHistogram(m, n, tuple(q))


def test_engines_agree_on_uneven_point_masses():
    rng = random.Random(709)
    for _ in range(12):
        side = rng.choice((32, 40, 48, 56, 64))
        p, q = _uneven_point_pair(rng, side, side, rng.randint(2, 24))
        plans = _engine_plans(p, q)
        distance = plan_cost(plans["bipartite"])
        assert distance == plan_cost(plans["grid"]) == mwd_exact(p, q).distance
        assert distance >= _separable_bound(p, q)
        for plan in plans.values():
            assert plan_marginals(plan, p.rows, p.cols) == (p.cells, q.cells)
            assert plan_is_optimal(p, q, plan)


def test_engines_agree_on_dense_pairs():
    # Sizes where the Bellman-Ford certificate is too slow for dense pairs:
    # the grid engine's bucket-queue searches are checked against the
    # bipartite engine instead.
    rng = random.Random(711)
    for side in (16, 20, 24):
        for _ in range(2):
            p, q = _uniform_pair(rng, side, side, 9)
            plans = _engine_plans(p, q)
            distance = plan_cost(plans["bipartite"])
            assert distance == plan_cost(plans["grid"]) == mwd_exact(p, q).distance
            for plan in plans.values():
                assert plan_marginals(plan, p.rows, p.cols) == (p.cells, q.cells)


def test_grid_engine_on_thin_and_binary_grids():
    # 1xn and nx1 grids give each cell at most two neighbours, so every
    # shortest-path forest is a set of line segments; binary cells make many
    # deficits tie at each distance.
    rng = random.Random(712)
    cases = []
    for _ in range(30):
        n = rng.randrange(2, 41)
        cell_max = rng.choice((1, 3, 9))
        cases.append(_uniform_pair(rng, 1, n, cell_max))
        cases.append(_uniform_pair(rng, n, 1, cell_max))
    cases += [_uniform_pair(rng, 16, 16, 1) for _ in range(4)]
    for p, q in cases:
        plans = _engine_plans(p, q)
        distance = plan_cost(plans["bipartite"])
        assert plan_cost(plans["grid"]) == distance
        for plan in plans.values():
            assert all(mv.amount > 0 for mv in plan)
            assert len({(mv.src, mv.dst) for mv in plan}) == len(plan)
            assert plan_marginals(plan, p.rows, p.cols) == (p.cells, q.cells)


def test_grid_engine_skips_a_sink_whose_path_lost_its_cancel_step():
    # A 4x2 grid: row r holds cells 2r and 2r + 1. The first round ships
    # 4 -> 6 and 5 -> 3. In the second, both open sinks, 0 and 3, are
    # reached from 7 through 7 -> 6 -> 4, which cancels the unit on 4 -> 6.
    # The push to 0 uses that unit up, so 6 -> 4 costs 1 again and the path
    # to 3 is no longer tight; pushing along it anyway would cost 2 more.
    # 3 waits for the third round, which reaches it along 7 -> 5 -> 3.
    p = GridHistogram(4, 2, (0, 1, 0, 1, 1, 2, 0, 2))
    q = GridHistogram(4, 2, (1, 1, 0, 3, 0, 1, 1, 0))
    shipped = mwd_module._solve_grid(tuple(map(sub, p.cells, q.cells)), 4, 2)
    assert shipped == {(4, 0): 1, (5, 3): 1, (7, 6): 1, (7, 3): 1}
    plan = _engine_plans(p, q)["grid"]
    assert plan_cost(plan) == assignment_distance(p, q) == mwd_exact(p, q).distance == 6
    assert plan_marginals(plan, 4, 2) == (p.cells, q.cells)
    assert plan_is_optimal(p, q, plan)


def test_support_index_is_shared_across_grid_sizes(monkeypatch):
    # mwd_exact keeps one index tuple for the largest grid seen; a smaller
    # grid after a larger one reads only the tuple's first cells.
    monkeypatch.setattr(mwd_module, "_index", ())
    far = [0] * (128 * 128)
    far[-1] = 3
    near = [3] + [0] * (128 * 128 - 1)
    pairs = [
        (GridHistogram(1, 1, (0,)), GridHistogram(1, 1, (0,))),
        (GridHistogram(2, 3, (1, 0, 2, 0, 0, 1)), GridHistogram(2, 3, (0, 1, 0, 2, 1, 0))),
        (GridHistogram(128, 128, tuple(far)), GridHistogram(128, 128, tuple(near))),
        (GridHistogram(4, 4, (3,) + (0,) * 14 + (1,)), GridHistogram(4, 4, (1,) + (0,) * 14 + (3,))),
    ]
    for (p, q), index_len in zip(pairs, (1, 6, 128 * 128, 128 * 128)):
        res = mwd_exact(p, q)
        assert len(mwd_module._index) == index_len
        assert plan_marginals(res.plan, p.rows, p.cols) == (p.cells, q.cells)
        want = 3 * 254 if p.rows == 128 else assignment_distance(p, q)
        assert res.distance == plan_cost(res.plan) == want


def test_grid_engine_alternating_shapes(monkeypatch):
    # _solve_grid finds neighbours and edges by arithmetic on a padded row
    # width W = cols + 2 - cols % 2: shapes with the same cell count (3x5
    # and 5x3 even have the same edge count) have different layouts, so
    # arithmetic that mixes up rows and columns, or a sentinel the search
    # can enter, misprices or breaks these solves. Odd widths pad one slot
    # (W = cols + 1), even ones two; n x 1 and 1 x n grids step into the
    # sentinels on two sides of every cell. The ratio is set to 0 so that
    # these small pairs take the grid engine.
    monkeypatch.setattr(mwd_module, "GRID_ENGINE_RATIO", 0)
    rng = random.Random(715)
    shapes = ((3, 5), (5, 3), (15, 1), (1, 15), (2, 8), (8, 2), (1, 16), (16, 1))
    for _ in range(12):
        for m, n in shapes:
            p, q = _point_mass_pair(rng, m, n, rng.randrange(4, 7), 2)
            res = mwd_exact(p, q)
            assert plan_marginals(res.plan, m, n) == (p.cells, q.cells)
            assert res.distance == plan_cost(res.plan) == assignment_distance(p, q)


def _certificate_cases():
    """Seeded pairs for the optimality certificate: 300 up to 8x8 (cells
    0/1/3/9), 20 dense 12x12 pairs above the assignment reference's mass limit (grid
    engine), and 4 128x128 point-mass pairs and 4 32x32 to 64x64 pairs of
    uneven point masses (bipartite engine)."""
    rng = random.Random(1414)
    small = [
        _uniform_pair(rng, rng.randrange(1, 9), rng.randrange(1, 9), rng.choice((0, 1, 3, 9)))
        for _ in range(300)
    ]
    dense = [_uniform_pair(rng, 12, 12, 9) for _ in range(20)]
    sparse = [_point_mass_pair(rng, 128, 128, 8, 100) for _ in range(4)]
    sparse += [_uneven_point_pair(rng, side, side, 24) for side in (32, 40, 48, 64)]
    return small, dense, sparse


def _costlier_swap(plan):
    """``plan`` with two shipped moves trading ``k`` units of their
    destinations, the first such trade that costs more; None if none does.
    The marginals stay the same."""
    shipped = [mv for mv in plan if mv.src != mv.dst]
    for a, b in itertools.combinations(shipped, 2):
        k = min(a.amount, b.amount)
        traded = [Move(a.src, b.dst, k), Move(b.src, a.dst, k)]
        if plan_cost(traded) > plan_cost([Move(a.src, a.dst, k), Move(b.src, b.dst, k)]):
            kept = [mv for mv in plan if mv is not a and mv is not b]
            rest = [Move(mv.src, mv.dst, mv.amount - k) for mv in (a, b) if mv.amount > k]
            return kept + rest + traded
    return None


def test_plans_pass_optimality_certificate():
    small, dense, sparse = _certificate_cases()
    for p, q in small + dense + sparse:
        res = mwd_exact(p, q)
        assert plan_marginals(res.plan, p.rows, p.cols) == (p.cells, q.cells)
        assert plan_cost(res.plan) == res.distance
        assert plan_is_optimal(p, q, res.plan)


def test_certificate_rejects_costlier_plans():
    # The dense pairs are left out: a graph with a negative cycle runs every
    # Bellman-Ford round, about 0.2 s on a 12x12 pair.
    small, _, sparse = _certificate_cases()
    swaps = 0
    for p, q in small + sparse:
        res = mwd_exact(p, q)
        worse = _costlier_swap(res.plan)
        if worse is None:
            continue
        swaps += 1
        assert plan_marginals(worse, p.rows, p.cols) == (p.cells, q.cells)
        assert plan_cost(worse) > res.distance
        assert not plan_is_optimal(p, q, worse)
    assert swaps >= 150
