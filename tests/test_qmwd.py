"""Quasi distance: worked breakdowns, invariants, and float normalization."""

from __future__ import annotations

import itertools
import random
import re

import pytest

from gridemd import (
    AllZeroError,
    DimensionMismatchError,
    EmptyGridError,
    GridHistogram,
    MassMismatchError,
    NegativeEntryError,
    PreconditionError,
    RaggedRowsError,
    ResidueTooLargeError,
    directional_estimate,
    mwd_exact,
    normalize_pair,
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


def test_breakdown_anti_diagonal_units():
    p = GridHistogram.from_rows([[1, 0], [0, 0]])
    q = GridHistogram.from_rows([[0, 0], [0, 1]])
    b = qmwd(p, q)
    assert (b.wd_row, b.wd_rot, b.wd_transp) == (3, 1, 3)
    assert (b.est_row, b.est_rot, b.est_transp) == (2, 1, 2)
    assert b.qmwd == 2
    assert mwd_exact(p, q).distance == 2


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


def test_axis_aligned_unit_pairs_are_exact():
    def unit(m, n, i, j):
        cells = [0] * (m * n)
        cells[i * n + j] = 1
        return GridHistogram(m, n, tuple(cells))

    for r in range(5):
        for c1 in range(5):
            for c2 in range(5):
                p, q = unit(5, 5, r, c1), unit(5, 5, r, c2)
                assert qmwd(p, q).qmwd == mwd_exact(p, q).distance == abs(c1 - c2)
    for c in range(5):
        for r1 in range(5):
            for r2 in range(5):
                p, q = unit(5, 5, r1, c), unit(5, 5, r2, c)
                assert qmwd(p, q).qmwd == mwd_exact(p, q).distance == abs(r1 - r2)


def test_all_zero_pair_is_zero():
    z = GridHistogram(3, 2, (0,) * 6)
    assert qmwd(z, z).qmwd == 0


def test_errors():
    with pytest.raises(DimensionMismatchError):
        qmwd(GridHistogram(1, 2, (1, 0)), GridHistogram(2, 1, (1, 0)))
    with pytest.raises(MassMismatchError):
        qmwd(GridHistogram(1, 2, (1, 0)), GridHistogram(1, 2, (1, 1)))


def test_normalize_pair_integer_identity():
    p, q, scale = normalize_pair([[1, 2], [3, 4]], [[4, 3], [2, 1]], digits=0)
    assert scale == 1
    assert p.to_rows() == [[1, 2], [3, 4]]
    assert q.to_rows() == [[4, 3], [2, 1]]


def test_normalize_pair_decimal_scaling():
    p, q, scale = normalize_pair([[0.5, 0.5]], [[1.0, 0.0]], digits=1)
    assert scale == 10
    assert p.to_rows() == [[5, 5]]
    assert q.to_rows() == [[10, 0]]


def test_normalize_pair_thirds():
    p, q, scale = normalize_pair([[1 / 3, 2 / 3]], [[1.0, 0.0]], digits=2)
    assert scale == 100
    assert p.to_rows() == [[33, 67]]
    assert q.to_rows() == [[100, 0]]


def test_normalize_pair_residue_repair():
    p, q, scale = normalize_pair([[0.333, 0.667]], [[1.001, 0.0]], digits=3)
    assert scale == 1000
    assert sum(p.cells) == sum(q.cells) == 1001
    assert p.to_rows() == [[333, 668]]  # repair lands on the largest cell


def test_normalize_pair_errors():
    with pytest.raises(NegativeEntryError):
        normalize_pair([[1.0, -0.5]], [[0.5, 0.0]], digits=0)
    with pytest.raises(AllZeroError):
        normalize_pair([[0.0, 0.0]], [[1.0, 0.0]], digits=0)
    with pytest.raises(ResidueTooLargeError):
        normalize_pair([[102.0]], [[100.0]], digits=0)
    with pytest.raises(EmptyGridError):
        normalize_pair([], [[1.0]], digits=0)
    with pytest.raises(DimensionMismatchError):
        normalize_pair([[1.0, 1.0]], [[2.0]], digits=0)
    with pytest.raises(PreconditionError, match="^digits must be >= 0"):
        normalize_pair([[1.0]], [[1.0]], digits=-1)
    # A fault inside a grid is found before any check on the pair, and its
    # message names the grid.
    for p, q, error, where in (
        ([[float("nan")]], [[1.0]], PreconditionError, "first grid cell (0, 0) "),
        ([[-1.0]], [[1.0]], NegativeEntryError, "first grid "),
        ([[0.004, 0.004]], [[1.0, 0.0]], AllZeroError, "first grid "),
        # Ragged, with totals 8 vs 3 that would also fail the residue check.
        ([[1.0], [2.0, 5.0]], [[1.0], [2.0]], RaggedRowsError, "first grid row 1 "),
        ([[1.0], [2.0]], [[1.0], [2.0, 3.0]], RaggedRowsError, "second grid row 1 "),
    ):
        with pytest.raises(error, match=f"^{re.escape(where)}"):
            normalize_pair(p, q, digits=0)
    # Cells that do not scale to a finite float: NaN, infinite, overflowing
    # once scaled, or an int beyond the float range.
    for p, q, digits, where in (
        ([[1.0, float("nan")]], [[1.0, 1.0]], 0, "first grid cell (0, 1)"),
        ([[1.0]], [[float("inf")]], 0, "second grid cell (0, 0)"),
        ([[1.0], [1e308]], [[1.0], [1.0]], 2, "first grid cell (1, 0)"),
        ([[10**400]], [[1.0]], 0, "first grid cell (0, 0)"),
    ):
        with pytest.raises(PreconditionError, match=rf"^{re.escape(where)} "):
            normalize_pair(p, q, digits=digits)
