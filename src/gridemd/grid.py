"""Integer grid histograms: their text form, the pair checks the distance
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

    ``cells`` is a tuple of the masses in row-major order; cell (i, j)
    lives at flat index ``i * cols + j``. A list would leave the grid
    mutable and unhashable, so it is rejected. The dimensions and each cell
    are exactly ``int``s: a ``bool`` cell would be written by
    ``format_grid`` as text that ``parse_grid`` rejects.
    """

    rows: int
    cols: int
    cells: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.rows) is not int or type(self.cols) is not int:
            raise PreconditionError(f"grid dimensions must be ints, got {self.rows!r}x{self.cols!r}")
        if self.rows < 1 or self.cols < 1:
            raise PreconditionError(f"grid dimensions must be >= 1, got {self.rows}x{self.cols}")
        if type(self.cells) is not tuple:
            raise PreconditionError(f"cells must be a tuple, got {type(self.cells).__name__}")
        if len(self.cells) != self.rows * self.cols:
            raise PreconditionError(
                f"expected {self.rows * self.cols} cells for a "
                f"{self.rows}x{self.cols} grid, got {len(self.cells)}"
            )
        for v in self.cells:
            if type(v) is not int or v < 0:
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


# Every decimal spelling "0".."999" -> its int. A dict lookup per token
# costs about a third of what int() does; the table never changes or grows.
_TOKEN_INTS = {str(v): v for v in range(1000)}


def parse_grid(text: str) -> GridHistogram:
    """Parse grid text: one row per line, whitespace- or comma-separated
    nonnegative decimal integers. Blank lines are ignored.

    Two commas with only whitespace between them, or a comma first or last
    on a line, leave a field empty: a ``BadTokenError``, raised before the
    line's token count is checked.

    Tokens convert through a fixed table of "0".."999", which vouches for
    every token it maps. Only a line holding any other token (leading
    zeros, 1000 or more) is checked token by token for ASCII digits and
    converted again with ``int``. Either way each cell is ``int(token)``,
    and the table is built once at import, so parsing keeps no state that
    grows.
    """
    flat: list[int] = []
    ncols = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "," in raw and "" in map(str.strip, raw.split(",")):
            raise BadTokenError(f"line {lineno}: empty comma-separated field")
        tokens = raw.replace(",", " ").split()
        if not tokens:
            continue
        if ncols < 0:
            ncols = len(tokens)
        elif len(tokens) != ncols:
            raise RaggedRowsError(
                f"line {lineno}: {len(tokens)} tokens, expected {ncols}"
            )
        start = len(flat)
        try:
            flat.extend(map(_TOKEN_INTS.__getitem__, tokens))
        except KeyError:
            # extend kept the cells before the miss; the line starts over.
            del flat[start:]
            joined = "".join(tokens)
            if not (joined.isascii() and joined.isdigit()):
                bad = next(t for t in tokens if not (t.isascii() and t.isdigit()))
                raise BadTokenError(f"line {lineno}: bad token {bad!r}") from None
            try:
                flat.extend(map(int, tokens))
            except ValueError:
                # Only a token past the interpreter's int digit limit (4300
                # digits by default) gets here; it is not echoed.
                longest = max(map(len, tokens))
                raise BadTokenError(
                    f"line {lineno}: a {longest}-digit token is over the int digit limit"
                ) from None
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


def check_shape(p: GridHistogram, q: GridHistogram) -> None:
    """DimensionMismatchError unless the two grids have the same shape."""
    if p.shape != q.shape:
        raise DimensionMismatchError(
            f"grids are {p.rows}x{p.cols} vs {q.rows}x{q.cols}"
        )


def check_mass(p: GridHistogram, q: GridHistogram, excess: int) -> None:
    """MassMismatchError unless ``excess``, ``total_mass(p) - total_mass(q)``
    as the caller found it on data it already holds, is 0.

    Only this error path sums the two grids, to name their totals.
    """
    if excess:
        raise MassMismatchError(
            f"total masses differ: {total_mass(p)} vs {total_mass(q)}"
        )


def format_grid(g: GridHistogram, sep: str = " ") -> str:
    """Render a grid back to the text form accepted by parse_grid."""
    return "\n".join(sep.join(str(v) for v in row) for row in g.to_rows())
