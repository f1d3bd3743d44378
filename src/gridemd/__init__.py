"""Dissimilarity measures between equal-mass nonnegative-integer 2D grids.

Three measures over a pair of same-shape grids with equal total mass:

- ``mwd_exact``: the exact earth mover's distance under Manhattan ground
  cost, with an optimal transport plan.
- ``qmwd``: a fast quasi distance built from three directional 1D
  Wasserstein distances (row-major, rotated, transposed vectorizations).
- ``wd_1d(p.cells, q.cells)``: the raw 1D distance over the row-major
  cells of each grid, the baseline the quasi distance improves on.

Plus a benchmark harness (``run_sweep``/``aggregate``) comparing accuracy
and runtime of the fast measures against the exact one, with CSV and SVG
output, exposed on the command line as ``gridemd``.
"""

from .bench import (
    BenchRecord,
    SweepConfig,
    SweepSummary,
    aggregate,
    derive_seed,
    emit_records_csv,
    equalize_mass,
    gen_random_grid,
    read_records_csv,
    run_sweep,
)
from .charts import emit_svg
from .errors import (
    BadTokenError,
    DimensionMismatchError,
    EmptyGridError,
    EmptyInputError,
    GridEmdError,
    InputFormatError,
    LengthMismatchError,
    MassMismatchError,
    NegativeEntryError,
    PreconditionError,
    RaggedRowsError,
)
from .grid import (
    GridHistogram,
    format_grid,
    parse_grid,
    rotate90,
    total_mass,
    transpose,
)
from .mwd import (
    Move,
    MwdResult,
    manhattan_cost,
    mwd_exact,
    plan_cost,
)
from .qmwd import QmwdBreakdown, directional_estimate, qmwd
from .wd1d import wd_1d

__version__ = "0.1.0"

__all__ = [
    "BadTokenError",
    "BenchRecord",
    "DimensionMismatchError",
    "EmptyGridError",
    "EmptyInputError",
    "GridEmdError",
    "GridHistogram",
    "InputFormatError",
    "LengthMismatchError",
    "MassMismatchError",
    "Move",
    "MwdResult",
    "NegativeEntryError",
    "PreconditionError",
    "QmwdBreakdown",
    "RaggedRowsError",
    "SweepConfig",
    "SweepSummary",
    "aggregate",
    "derive_seed",
    "directional_estimate",
    "emit_records_csv",
    "emit_svg",
    "equalize_mass",
    "format_grid",
    "gen_random_grid",
    "manhattan_cost",
    "mwd_exact",
    "parse_grid",
    "plan_cost",
    "qmwd",
    "read_records_csv",
    "rotate90",
    "run_sweep",
    "total_mass",
    "transpose",
    "wd_1d",
]
