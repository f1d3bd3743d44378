"""Exception types shared across the package.

Two families matter to callers: ``InputFormatError`` for malformed textual
input (grid files, records CSV) and ``PreconditionError`` for violated
numerical preconditions (mismatched shapes, unequal masses, negative or
non-integer entries). Both subclass ``ValueError`` so generic handlers work.
"""


class GridEmdError(Exception):
    """Base class for every error raised by this package."""


class InputFormatError(GridEmdError, ValueError):
    """Malformed textual input."""


class EmptyGridError(InputFormatError):
    """Grid text contained no data rows."""


class RaggedRowsError(InputFormatError):
    """Grid rows do not all have the same number of tokens."""


class BadTokenError(InputFormatError):
    """A grid token is not a nonnegative decimal integer."""


class PreconditionError(GridEmdError, ValueError):
    """A numerical precondition on operation inputs was violated."""


class DimensionMismatchError(PreconditionError):
    """The two grids do not have identical dimensions."""


class LengthMismatchError(PreconditionError):
    """The two mass vectors do not have the same length."""


class MassMismatchError(PreconditionError):
    """The two inputs do not carry the same total mass."""


class NegativeEntryError(PreconditionError):
    """A mass entry is negative."""


class EmptyInputError(GridEmdError, ValueError):
    """An aggregate was requested over an empty record set."""
