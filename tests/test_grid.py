"""Grid type, parsing, and the three view transforms."""

from __future__ import annotations

import itertools
import random

import pytest

import gridemd.grid as grid_module
from gridemd import (
    BadTokenError,
    DimensionMismatchError,
    EmptyGridError,
    GridEmdError,
    GridHistogram,
    MassMismatchError,
    RaggedRowsError,
    format_grid,
    mwd_exact,
    parse_grid,
    qmwd,
    rotate90,
    total_mass,
    transpose,
)
from gridemd.grid import check_mass, check_shape
from tests._util import random_grid


def test_construction_and_accessors():
    g = GridHistogram(2, 3, (1, 2, 3, 4, 5, 6))
    assert g.shape == (2, 3)
    assert g.cell(0, 2) == 3
    assert g.cell(1, 0) == 4
    assert g.to_rows() == [[1, 2, 3], [4, 5, 6]]


def test_construction_rejects_bad_inputs():
    with pytest.raises(ValueError):
        GridHistogram(0, 2, ())
    with pytest.raises(ValueError):
        GridHistogram(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        GridHistogram(1, 2, (1, -1))
    with pytest.raises(ValueError):
        GridHistogram(1, 2, (1, 1.5))
    with pytest.raises(ValueError):
        GridHistogram(1, 2, (1, True))
    with pytest.raises(ValueError, match=r"^grid dimensions must be ints, got 2\.0x2$"):
        GridHistogram(2.0, 2, (1, 2, 3, 4))
    with pytest.raises(ValueError, match=r"^grid dimensions must be ints, got Truex1$"):
        GridHistogram(True, 1, (1,))
    with pytest.raises(ValueError, match=r"^grid dimensions must be >= 1, got 0x3$"):
        GridHistogram(0, 3, ())
    # Only a tuple keeps the grid immutable and hashable; None is no sequence.
    with pytest.raises(ValueError, match=r"^cells must be a tuple, got list$"):
        GridHistogram(1, 2, [1, 0])
    with pytest.raises(ValueError, match=r"^cells must be a tuple, got NoneType$"):
        GridHistogram(1, 1, None)


def test_construction_errors_are_typed():
    for rows, cols, cells in (
        (0, 2, ()), (2, 2, (1, 2, 3)), (1, 2, (1, -1)), (1, 2, (1, 1.5)),
        (1, 2, (1, True)), (2.0, 2, (1, 2, 3, 4)), (True, 1, (1,)), (1, 2.0, (1, 2)),
    ):
        with pytest.raises(GridEmdError):
            GridHistogram(rows, cols, cells)


def test_from_rows():
    g = GridHistogram.from_rows([[1, 2], [3, 4]])
    assert g.cells == (1, 2, 3, 4)
    with pytest.raises(EmptyGridError):
        GridHistogram.from_rows([])
    with pytest.raises(RaggedRowsError):
        GridHistogram.from_rows([[1, 2], [3]])


def test_parse_grid_basic():
    g = parse_grid("1 2\n3 4")
    assert g.shape == (2, 2)
    assert g.cells == (1, 2, 3, 4)


def test_parse_grid_single_cell():
    g = parse_grid("0")
    assert g.shape == (1, 1)
    assert g.cells == (0,)


def test_parse_grid_commas_and_blank_lines():
    g = parse_grid("1,2,3\n\n4, 5, 6\n")
    assert g.shape == (2, 3)
    assert g.cells == (1, 2, 3, 4, 5, 6)
    assert parse_grid("1 ,2\n3, 4").cells == (1, 2, 3, 4)


def test_parse_grid_ragged():
    with pytest.raises(RaggedRowsError):
        parse_grid("1 2\n3")


def test_parse_grid_empty():
    with pytest.raises(EmptyGridError):
        parse_grid("")
    with pytest.raises(EmptyGridError):
        parse_grid("\n  \n")


def test_parse_grid_bad_tokens():
    # The grammar is ASCII decimal digits only: int() accepts "+2", "1_0" and
    # Arabic-Indic three, and str.isdigit() accepts the last two.
    for text in ("1 x", "-1 2", "1.5", "1e3", "+2", "1_0", "\u0663", "\u00b2"):
        with pytest.raises(BadTokenError):
            parse_grid(text)
    with pytest.raises(BadTokenError, match=r"^line 1: bad token 'x'$"):
        parse_grid("1 2 x y")
    # A comma-separated field with no token would drop a cell from its line.
    for text in ("1,,2\n3,,4", "1, ,2", "1,2,", ",1,2", "1 2\n3,\t,4", ","):
        with pytest.raises(BadTokenError, match=r"^line \d: empty comma-separated field$"):
            parse_grid(text)
    # int() refuses more than 4300 digits by default; the error names the
    # line and the token's length, not the token.
    assert parse_grid("1 2\n3 " + "4" * 4300).cells[-1] == int("4" * 4300)
    with pytest.raises(BadTokenError, match=r"^line 2: a 5000-digit token is over the int digit"):
        parse_grid("1 2\n3 " + "4" * 5000)


def test_parse_grid_tokens_outside_the_table():
    # "0".."999" convert through a table; any other digit string takes int()
    # for its whole line, so every cell is int(token) either way.
    for token in ("0", "999", "1000", "007", "0000", "9" * 4300):
        assert parse_grid(token).cells == (int(token),)
        assert parse_grid(f"1 {token}\n{token} 2").cells == (1, int(token), int(token), 2)
    # A miss mid-line: the cells the table pass appended before it are dropped.
    g = parse_grid("1 2 1000 3")
    assert g.shape == (1, 4)
    assert g.cells == (1, 2, 1000, 3)
    g = parse_grid("5 6 7 8\n1 2 1000 3\n9 08 0 4")
    assert g.shape == (3, 4)
    assert g.cells == (5, 6, 7, 8, 1, 2, 1000, 3, 9, 8, 0, 4)


def test_parse_grid_error_precedence():
    # The shape of a line is checked before its tokens, and the first bad
    # line wins, whichever conversion its tokens would take.
    with pytest.raises(RaggedRowsError, match=r"^line 2: 3 tokens, expected 2$"):
        parse_grid("1 2\n3 x 1000")
    with pytest.raises(BadTokenError, match=r"^line 2: bad token 'x'$"):
        parse_grid("1 2\n1000 x\n3")
    with pytest.raises(BadTokenError, match=r"^line 2: bad token '-1'$"):
        parse_grid("1 2\n007 -1\n" + "4" * 5000 + " 1")
    # An empty comma field is named before the token count it shortens.
    with pytest.raises(BadTokenError, match=r"^line 2: empty comma-separated field$"):
        parse_grid("1 2 3\n4,,5\n6")
    # Table tokens before an overlong one on the same line do not change
    # which line the digit-limit error names.
    with pytest.raises(
        BadTokenError, match=r"^line 3: a 5000-digit token is over the int digit limit$"
    ):
        parse_grid("1 2 3\n4 5 6\n7 8 " + "4" * 5000)


def test_cells_are_row_major():
    assert GridHistogram.from_rows([[1, 2], [3, 4]]).cells == (1, 2, 3, 4)
    assert GridHistogram(1, 1, (7,)).cells == (7,)
    assert GridHistogram(2, 2, (0, 0, 0, 0)).cells == (0, 0, 0, 0)


def test_rotate90_worked_example():
    g = GridHistogram.from_rows([[1, 2], [3, 4]])
    assert rotate90(g).to_rows() == [[2, 4], [1, 3]]


def test_rotate90_shapes_and_fixed_point():
    assert rotate90(GridHistogram(1, 1, (5,))).cells == (5,)
    g = GridHistogram.from_rows([[1, 2, 3], [4, 5, 6]])
    r = rotate90(g)
    assert r.shape == (3, 2)
    assert r.to_rows() == [[3, 6], [2, 5], [1, 4]]


def test_transpose_worked_example():
    g = GridHistogram.from_rows([[1, 2], [3, 4]])
    assert transpose(g).to_rows() == [[1, 3], [2, 4]]
    assert transpose(GridHistogram(1, 1, (9,))).cells == (9,)


def test_rotate_four_times_and_transpose_twice_exhaustive():
    for rows, cols in ((2, 2), (2, 3)):
        for bits in itertools.product((0, 1), repeat=rows * cols):
            g = GridHistogram(rows, cols, bits)
            r = g
            for _ in range(4):
                r = rotate90(r)
            assert r == g
            assert transpose(transpose(g)) == g


def test_rotate_and_transpose_random_grids():
    rng = random.Random(501)
    for _ in range(1000):
        m = rng.randrange(1, 7)
        n = rng.randrange(1, 7)
        g = random_grid(rng, m, n, rng.randrange(0, 60))
        r = g
        for _ in range(4):
            r = rotate90(r)
        assert r == g
        assert transpose(transpose(g)) == g
        assert sorted(rotate90(g).cells) == sorted(g.cells)
        assert sorted(transpose(g).cells) == sorted(g.cells)
        assert total_mass(rotate90(g)) == total_mass(g)
        assert total_mass(transpose(g)) == total_mass(g)


def test_vec_of_transpose_is_column_major():
    rng = random.Random(502)
    for _ in range(50):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        g = random_grid(rng, m, n, rng.randrange(0, 40))
        v = transpose(g).cells
        for j in range(n):
            for i in range(m):
                assert v[j * m + i] == g.cell(i, j)


def test_total_mass():
    assert total_mass(GridHistogram.from_rows([[1, 2], [3, 4]])) == 10
    assert total_mass(GridHistogram(3, 3, (0,) * 9)) == 0


def test_check_shape_and_check_mass():
    p = GridHistogram.from_rows([[3, 0], [1, 2]])
    q = GridHistogram.from_rows([[1, 2], [0, 3]])
    # check_mass takes the excess from the caller and sums the grids only to
    # word its message.
    assert check_shape(p, q) is None
    with pytest.raises(DimensionMismatchError, match=r"^grids are 2x2 vs 1x4$"):
        check_shape(p, GridHistogram(1, 4, q.cells))
    assert check_mass(p, q, 0) is None
    with pytest.raises(MassMismatchError, match=r"^total masses differ: 6 vs 0$"):
        check_mass(p, GridHistogram(2, 2, (0, 0, 0, 0)), 6)


def test_measures_sum_no_grid_on_success(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return sum(g.cells)

    monkeypatch.setattr(grid_module, "total_mass", counted)
    p = GridHistogram.from_rows([[3, 0, 0], [1, 2, 0]])
    q = GridHistogram.from_rows([[0, 0, 1], [0, 2, 3]])
    assert mwd_exact(p, q).distance == 10
    assert qmwd(p, q).qmwd >= 0
    assert calls == []
    # Only a mismatch sums the grids, to word its message.
    heavy = GridHistogram.from_rows([[0, 0, 1], [0, 2, 4]])
    for measure in (mwd_exact, qmwd):
        with pytest.raises(MassMismatchError, match=r"^total masses differ: 6 vs 7$"):
            measure(p, heavy)
    assert calls == [p, heavy, p, heavy]


def test_format_grid_round_trips():
    rng = random.Random(503)
    for _ in range(30):
        g = random_grid(rng, rng.randrange(1, 5), rng.randrange(1, 5), 25)
        assert parse_grid(format_grid(g)) == g
        assert parse_grid(format_grid(g, sep=",")) == g
    # Cells on both sides of parse_grid's table bound, mixed within lines.
    rng = random.Random(504)
    for _ in range(60):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        top = rng.choice((9, 999, 1000, 10**6))
        g = GridHistogram(rows, cols, tuple(rng.randint(0, top) for _ in range(rows * cols)))
        assert parse_grid(format_grid(g)) == g
        assert parse_grid(format_grid(g, sep=",")) == g
