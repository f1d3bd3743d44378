"""Integer grid histograms: their text form, the pair check the distance
measures share, and two view transforms.

A grid is an m x n array of nonnegative integer masses stored row-major.
Grids are immutable and every operation here is a pure function, so values
can be shared freely between threads. All arithmetic uses Python integers,
which are unbounded: totals and transport costs cannot overflow no matter
how large the grid or its cells are.

No distance measure calls ``rotate90`` or ``transpose``: ``qmwd`` reads
column slices of one difference vector instead. They stay public as
reference transforms for the orders those slices stand for.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub
from typing import Sequence

from .errors import (
    BadTokenError,
    DimensionMismatchError,
    EmptyGridError,
    MassMismatchError,
    PreconditionError,
    RaggedRowsError,
)

@dataclass(frozen=True)
class GridHistogram:
    """An immutable rows x cols grid of nonnegative integer masses.

    ``cells`` holds the masses in row-major order; cell (i, j) lives at
    flat index ``i * cols + j``.
    """

    rows: int
    cols: int
    cells: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise PreconditionError(f"grid dimensions must be >= 1, got {self.rows}x{self.cols}")
        if len(self.cells) != self.rows * self.cols:
            raise PreconditionError(
                f"expected {self.rows * self.cols} cells for a "
                f"{self.rows}x{self.cols} grid, got {len(self.cells)}"
            )
        for v in self.cells:
            if not isinstance(v, int) or v < 0:
                raise PreconditionError(f"cells must be nonnegative integers, got {v!r}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "GridHistogram":
        """Build a grid from a list of equal-length rows."""
        if not rows:
            raise EmptyGridError("no rows")
        ncols = len(rows[0])
        flat: list[int] = []
        for r, row in enumerate(rows):
            if len(row) != ncols:
                raise RaggedRowsError(f"row {r} has {len(row)} entries, expected {ncols}")
            flat.extend(row)
        return cls(len(rows), ncols, tuple(flat))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def cell(self, i: int, j: int) -> int:
        return self.cells[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        n = self.cols
        return [list(self.cells[i * n : (i + 1) * n]) for i in range(self.rows)]


def parse_grid(text: str) -> GridHistogram:
    """Parse grid text: one row per line, whitespace- or comma-separated
    nonnegative decimal integers. Blank lines are ignored.
    """
    flat: list[int] = []
    ncols = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.replace(",", " ").split()
        if not tokens:
            continue
        if ncols < 0:
            ncols = len(tokens)
        elif len(tokens) != ncols:
            raise RaggedRowsError(
                f"line {lineno}: {len(tokens)} tokens, expected {ncols}"
            )
        joined = "".join(tokens)
        if not (joined.isascii() and joined.isdigit()):
            bad = next(t for t in tokens if not (t.isascii() and t.isdigit()))
            raise BadTokenError(f"line {lineno}: bad token {bad!r}")
        flat.extend(map(int, tokens))
    if not flat:
        raise EmptyGridError("grid text contains no rows")
    return GridHistogram(len(flat) // ncols, ncols, tuple(flat))


def rotate90(g: GridHistogram) -> GridHistogram:
    """Quarter turn counterclockwise: output cell (n-1-j, i) = input cell (i, j)."""
    m, n = g.rows, g.cols
    out = [0] * (m * n)
    cells = g.cells
    for i in range(m):
        base = i * n
        for j in range(n):
            out[(n - 1 - j) * m + i] = cells[base + j]
    return GridHistogram(n, m, tuple(out))


def transpose(g: GridHistogram) -> GridHistogram:
    """Swap rows and columns: output cell (j, i) = input cell (i, j)."""
    m, n = g.rows, g.cols
    out = [0] * (m * n)
    cells = g.cells
    for i in range(m):
        base = i * n
        for j in range(n):
            out[j * m + i] = cells[base + j]
    return GridHistogram(n, m, tuple(out))


def total_mass(g: GridHistogram) -> int:
    """Sum of all cells."""
    return sum(g.cells)


def check_pair(p: GridHistogram, q: GridHistogram) -> tuple[int, ...]:
    """Check that two grids can be compared and return ``p - q`` cell by cell.

    The result is row-major like ``cells`` and sums to 0. Raises
    DimensionMismatchError for different shapes and MassMismatchError for
    different totals.
    """
    if p.shape != q.shape:
        raise DimensionMismatchError(
            f"grids are {p.rows}x{p.cols} vs {q.rows}x{q.cols}"
        )
    d = tuple(map(sub, p.cells, q.cells))
    if sum(d):
        raise MassMismatchError(
            f"total masses differ: {total_mass(p)} vs {total_mass(q)}"
        )
    return d


def format_grid(g: GridHistogram, sep: str = " ") -> str:
    """Render a grid back to the text form accepted by parse_grid."""
    return "\n".join(sep.join(str(v) for v in row) for row in g.to_rows())
