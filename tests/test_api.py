"""The package's public names: each one exported once, and each resolvable."""

from __future__ import annotations

import gridemd

PUBLIC_NAMES = [
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


def test_public_names():
    assert sorted(gridemd.__all__) == PUBLIC_NAMES
    for name in gridemd.__all__:
        assert getattr(gridemd, name) is not None
