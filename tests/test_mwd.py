"""Exact transport distance: worked values, plan contracts, invariances."""

from __future__ import annotations

import random

import pytest

from gridemd import (
    DimensionMismatchError,
    GridHistogram,
    MassMismatchError,
    MassTooLargeError,
    manhattan_cost,
    mwd_exact,
    mwd_oracle_assignment,
    plan_cost,
    rotate90,
    transpose,
    wd_1d,
)
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
    with pytest.raises(MassMismatchError):
        mwd_exact(GridHistogram(1, 2, (1, 0)), GridHistogram(1, 2, (1, 1)))
    with pytest.raises(MassTooLargeError):
        mwd_oracle_assignment(
            GridHistogram(1, 2, (13, 0)), GridHistogram(1, 2, (0, 13))
        )


def test_zero_mass_pair():
    z = GridHistogram(2, 2, (0, 0, 0, 0))
    res = mwd_exact(z, z)
    assert res.distance == 0
    assert res.plan == ()
    assert mwd_oracle_assignment(z, z) == 0


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
        assert mwd_exact(p, q).distance == mwd_oracle_assignment(p, q)


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
