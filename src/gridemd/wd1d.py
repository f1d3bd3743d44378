"""Exact 1D Wasserstein distance between equal-mass integer vectors.

The supports are the vector indices 0..len-1 with unit spacing, so the
optimal-transport cost has the closed form

    sum over i < len-1 of |prefix_a(i) - prefix_b(i)|

where each term is a prefix sum of the difference ``a - b``, so one pass
over that difference computes it with exact integer arithmetic. For an
equal-mass pair the final prefix sum is 0, so the sum may run over every
index.
"""

from __future__ import annotations

from itertools import accumulate
from operator import sub
from typing import Iterable, Sequence

from .errors import (
    LengthMismatchError,
    MassMismatchError,
    NegativeEntryError,
    PreconditionError,
)
from .grid import GridHistogram, check_mass, check_shape


def wd_1d(a: Sequence[int], b: Sequence[int]) -> int:
    """Exact 1D Wasserstein distance (unit ground cost between neighbors).

    Total work in index-steps times mass units; always a nonnegative int,
    at most total_mass * (len - 1). Entries must be ints; ``True`` and
    ``False`` count as 1 and 0.
    """
    if len(a) != len(b):
        raise LengthMismatchError(f"vector lengths differ: {len(a)} vs {len(b)}")
    try:
        for vec in (a, b):
            if min(vec, default=0) < 0:
                neg = next(v for v in vec if v < 0)
                raise NegativeEntryError(f"negative mass {neg!r}")
        ta, tb = sum(a), sum(b)
    except TypeError:  # an entry that cannot be compared with 0 or summed
        ta = tb = None
    # Only ints sum to an int, so valid input takes no extra pass here.
    if type(ta) is not int or type(tb) is not int:
        for v in (*a, *b):
            if not isinstance(v, int):
                raise PreconditionError(f"entries must be ints, got {v!r}")
    if ta != tb:
        raise MassMismatchError(f"total masses differ: {ta} vs {tb}")
    return prefix_work(map(sub, a, b))


def prefix_work(d: Iterable[int]) -> int:
    """The 1D work of ``wd_1d`` without its checks, from the difference
    ``d = a - b`` taken entry by entry.

    The caller guarantees that ``d`` sums to 0, as the difference of two
    equal-mass vectors does; otherwise the result is meaningless.
    """
    return sum(map(abs, accumulate(d)))


def checked_prefix_work(p: GridHistogram, q: GridHistogram) -> tuple[tuple[int, ...], int]:
    """The difference ``d = p - q`` of two grids, cell by cell in row-major
    order, and ``prefix_work(d)``, after the pair's checks: ``check_shape``,
    then ``check_mass`` on the last prefix sum, which is ``d``'s total.

    The mass check and the row-major work thus share one pass over ``d``.
    """
    check_shape(p, q)
    d = tuple(map(sub, p.cells, q.cells))
    acc = list(accumulate(d))
    check_mass(p, q, acc[-1])
    return d, sum(map(abs, acc))
