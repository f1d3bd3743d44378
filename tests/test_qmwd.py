"""Quasi distance: worked breakdowns, invariants and errors."""

from __future__ import annotations

import itertools
import random

import pytest

from gridemd import (
    DimensionMismatchError,
    GridHistogram,
    MassMismatchError,
    directional_estimate,
    mwd_exact,
    qmwd,
    rotate90,
    transpose,
    wd_1d,
)
from tests._util import random_grid, random_pair


def test_directional_estimate():
    assert directional_estimate(0, 30) == 0
    assert directional_estimate(3, 2) == 2
    assert directional_estimate(29, 30) == 29
    assert directional_estimate(60, 30) == 2


def test_breakdown_one_by_two():
    p = GridHistogram.from_rows([[1, 0]])
    q = GridHistogram.from_rows([[0, 1]])
    b = qmwd(p, q)
    assert (b.wd_row, b.wd_rot, b.wd_transp) == (1, 1, 1)
    assert (b.est_row, b.est_rot, b.est_transp) == (1, 1, 1)
    assert b.qmwd == 1
    assert mwd_exact(p, q).distance == 1


def test_identity_exhaustive_and_random():
    for cells in itertools.product((0, 1, 2), repeat=4):
        g = GridHistogram(2, 2, cells)
        assert qmwd(g, g).qmwd == 0
    rng = random.Random(801)
    for _ in range(500):
        m = rng.randrange(1, 8)
        n = rng.randrange(1, 8)
        g = random_grid(rng, m, n, rng.randrange(0, 100))
        assert qmwd(g, g).qmwd == 0


def test_symmetry():
    rng = random.Random(802)
    for _ in range(200):
        m = rng.randrange(1, 7)
        n = rng.randrange(1, 7)
        p, q = random_pair(rng, m, n, rng.randrange(0, 80))
        assert qmwd(p, q).qmwd == qmwd(q, p).qmwd


def test_decomposition_reconstructs_raw_values():
    rng = random.Random(803)
    for _ in range(200):
        m = rng.randrange(1, 7)
        n = rng.randrange(1, 7)
        p, q = random_pair(rng, m, n, rng.randrange(0, 80))
        b = qmwd(p, q)
        assert n * (b.wd_row // n) + b.wd_row % n == b.wd_row
        assert m * (b.wd_rot // m) + b.wd_rot % m == b.wd_rot
        assert m * (b.wd_transp // m) + b.wd_transp % m == b.wd_transp
        assert b.est_row == directional_estimate(b.wd_row, n)
        assert b.est_rot == directional_estimate(b.wd_rot, m)
        assert b.est_transp == directional_estimate(b.wd_transp, m)
        assert b.qmwd == max(b.est_row, b.est_rot, b.est_transp)


def test_rotation_direction_immunity():
    def rotate_cw(g: GridHistogram) -> GridHistogram:
        return rotate90(rotate90(rotate90(g)))

    rng = random.Random(804)
    for _ in range(200):
        m = rng.randrange(1, 7)
        n = rng.randrange(1, 7)
        p, q = random_pair(rng, m, n, rng.randrange(0, 80))
        b = qmwd(p, q)
        ccw = wd_1d(rotate90(p).cells, rotate90(q).cells)
        cw = wd_1d(rotate_cw(p).cells, rotate_cw(q).cells)
        assert cw == ccw == b.wd_rot
        assert b.wd_row == wd_1d(p.cells, q.cells)
        assert b.wd_transp == wd_1d(transpose(p).cells, transpose(q).cells)


def test_can_exceed_exact_distance():
    p = GridHistogram.from_rows([[0, 1], [0, 0], [0, 1], [0, 0]])
    q = GridHistogram.from_rows([[0, 1], [0, 0], [0, 0], [1, 0]])
    b = qmwd(p, q)
    assert mwd_exact(p, q).distance == 2
    assert b.est_transp == 3
    assert b.qmwd == 3


def test_all_zero_pair_is_zero():
    z = GridHistogram(3, 2, (0,) * 6)
    assert qmwd(z, z).qmwd == 0


def test_errors():
    with pytest.raises(DimensionMismatchError):
        qmwd(GridHistogram(1, 2, (1, 0)), GridHistogram(2, 1, (1, 0)))
    with pytest.raises(MassMismatchError, match=r"^total masses differ: 1 vs 2$"):
        qmwd(GridHistogram(1, 2, (1, 0)), GridHistogram(1, 2, (1, 1)))
    # The shape is checked before the mass.
    with pytest.raises(DimensionMismatchError, match=r"^grids are 1x2 vs 2x1$"):
        qmwd(GridHistogram(1, 2, (1, 0)), GridHistogram(2, 1, (1, 1)))
    # Exactly one all-zero grid.
    zero, heavy = GridHistogram(2, 2, (0, 0, 0, 0)), GridHistogram(2, 2, (0, 2, 1, 0))
    with pytest.raises(MassMismatchError, match=r"^total masses differ: 0 vs 3$"):
        qmwd(zero, heavy)
    with pytest.raises(MassMismatchError, match=r"^total masses differ: 3 vs 0$"):
        qmwd(heavy, zero)
