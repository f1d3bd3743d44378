"""Harness: seed derivation, generation, sweep records, aggregation, CSV."""

from __future__ import annotations

import io

import pytest

from gridemd import (
    BenchRecord,
    EmptyInputError,
    GridHistogram,
    InputFormatError,
    PreconditionError,
    SweepConfig,
    aggregate,
    derive_seed,
    emit_records_csv,
    equalize_mass,
    gen_random_grid,
    read_records_csv,
    run_sweep,
    total_mass,
)


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(42, 3, 1) == derive_seed(42, 3, 1)
    seen = {derive_seed(42, m, t) for m in range(20) for t in range(50)}
    assert len(seen) == 20 * 50
    assert derive_seed(42, 3, 1) != derive_seed(43, 3, 1)
    assert derive_seed(42, 1, 3) != derive_seed(42, 3, 1)


def test_gen_random_grid_deterministic():
    a = gen_random_grid(2, 3, 987654321, 9)
    b = gen_random_grid(2, 3, 987654321, 9)
    assert a == b
    assert a.shape == (2, 3)
    assert gen_random_grid(2, 3, 987654320, 9) != a


def test_gen_random_grid_cell_max_zero():
    assert gen_random_grid(1, 1, 7, 0).cells == (0,)
    assert gen_random_grid(3, 3, 7, 0).cells == (0,) * 9


def test_gen_random_grid_bounds_and_mean():
    g = gen_random_grid(100, 100, 20260818, 9)
    assert all(0 <= v <= 9 for v in g.cells)
    mean = total_mass(g) / (100 * 100)
    assert abs(mean - 4.5) < 0.1


def test_gen_random_grid_rejects_bad_dims():
    with pytest.raises(PreconditionError):
        gen_random_grid(0, 3, 1, 9)
    # Two negative dimensions have a positive product; no cell is drawn.
    with pytest.raises(PreconditionError):
        gen_random_grid(-10**9, -10**9, 1, 9)


def test_gen_random_grid_rejects_non_int_cell_max():
    with pytest.raises(PreconditionError, match=r"^cell_max must be an int, got 1\.5$"):
        gen_random_grid(2, 2, 1, 1.5)


def test_gen_random_grid_rejects_non_int_dims():
    with pytest.raises(PreconditionError, match=r"^grid dimensions must be ints, got 2\.0x2$"):
        gen_random_grid(2.0, 2, 1, 9)


def test_gen_random_grid_rejects_str_cell_max():
    with pytest.raises(PreconditionError, match=r"^cell_max must be an int, got '9'$"):
        gen_random_grid(2, 2, 1, "9")


def test_equalize_mass():
    p = GridHistogram.from_rows([[4, 3], [2, 1]])
    q = GridHistogram.from_rows([[3, 2], [1, 1]])
    p2, q2 = equalize_mass(p, q, 5)
    assert p2 == p  # heavier side untouched
    assert total_mass(q2) == total_mass(p)
    assert all(a >= b for a, b in zip(q2.cells, q.cells))
    assert equalize_mass(p, p, 5) == (p, p)
    assert equalize_mass(p, q, 5) == equalize_mass(p, q, 5)


def test_sweep_cardinality_and_order():
    cfg = SweepConfig(n_fixed=2, m_min=2, m_max=2, trials_per_m=1)
    records = run_sweep(cfg)
    assert len(records) == 1
    cfg = SweepConfig(n_fixed=3, m_min=2, m_max=4, trials_per_m=5)
    records = run_sweep(cfg)
    assert len(records) == 15
    assert [(r.m, r.trial) for r in records] == [
        (m, t) for m in (2, 3, 4) for t in range(5)
    ]


def test_sweep_full_scale_record_count():
    # Full-scale shape (29 sizes x 20 trials); cap=1 skips every exact solve
    # so only the fast measures run.
    cfg = SweepConfig(
        n_fixed=30, m_min=2, m_max=30, trials_per_m=20, mwd_mass_cap=1
    )
    records = run_sweep(cfg)
    assert len(records) == 580
    assert all(r.fail_reason == "mass_cap" for r in records)


def test_sweep_distance_columns_deterministic():
    cfg = SweepConfig(n_fixed=4, m_min=2, m_max=4, trials_per_m=6, master_seed=7)
    a = run_sweep(cfg)
    b = run_sweep(cfg)
    skip = ("time_mwd_ns", "time_qmwd_ns", "time_wd_ns")
    for ra, rb in zip(a, b):
        for field in (
            "m", "n", "trial", "seed", "mwd", "wd_vec", "qmwd",
            "err_wd", "err_qmwd", "excluded", "fail_reason",
        ):
            assert getattr(ra, field) == getattr(rb, field), field
        for field in skip:
            assert (getattr(ra, field) is None) == (getattr(rb, field) is None)


def test_sweep_error_fields_recompute():
    records = run_sweep(SweepConfig(n_fixed=5, m_min=2, m_max=5, trials_per_m=8))
    for r in records:
        if r.excluded:
            assert r.err_wd is None and r.err_qmwd is None
            continue
        assert r.mwd is not None and r.mwd > 0
        assert r.err_wd == abs(r.mwd - r.wd_vec) / r.mwd
        assert r.err_qmwd == abs(r.mwd - r.qmwd) / r.mwd
        assert r.time_mwd_ns >= 0 and r.time_qmwd_ns >= 0 and r.time_wd_ns >= 0


def test_sweep_mass_cap_sentinel():
    cfg = SweepConfig(n_fixed=4, m_min=3, m_max=3, trials_per_m=4, mwd_mass_cap=1)
    for r in run_sweep(cfg):
        assert r.mwd is None and r.time_mwd_ns is None
        assert r.excluded and r.fail_reason == "mass_cap"
        assert r.wd_vec is not None and r.qmwd is not None
        assert r.err_wd is None and r.err_qmwd is None


def test_sweep_zero_distance_trials_are_flagged():
    # 1x1 grids always equalize to identical pairs, so the exact distance is 0.
    cfg = SweepConfig(n_fixed=1, m_min=1, m_max=1, trials_per_m=3, cell_max=1)
    for r in run_sweep(cfg):
        assert r.mwd == 0
        assert r.excluded and r.fail_reason == "zero_mwd"
        assert r.err_wd is None and r.err_qmwd is None


def test_config_validation():
    with pytest.raises(PreconditionError):
        SweepConfig(m_min=5, m_max=2)
    with pytest.raises(PreconditionError):
        SweepConfig(trials_per_m=0)
    with pytest.raises(PreconditionError):
        SweepConfig(cell_max=0)
    with pytest.raises(PreconditionError):
        SweepConfig(n_fixed=0)
    # None is the only "no cap"; a negative cap would exclude every trial.
    with pytest.raises(PreconditionError, match=r"^mwd_mass_cap must be >= 0 or None, got -5$"):
        SweepConfig(mwd_mass_cap=-5)
    assert SweepConfig(mwd_mass_cap=None).mwd_mass_cap is None
    with pytest.raises(PreconditionError, match=r"^n_fixed must be an int, got 2\.0$"):
        SweepConfig(n_fixed=2.0)
    with pytest.raises(PreconditionError, match=r"^cell_max must be an int, got 1\.5$"):
        SweepConfig(cell_max=1.5)


def _record(**overrides):
    base = dict(
        m=2, n=8, trial=0, seed=1, mwd=10, wd_vec=12, qmwd=11,
        err_wd=0.2, err_qmwd=0.1, time_mwd_ns=100, time_qmwd_ns=10,
        time_wd_ns=1, excluded=False, fail_reason="",
    )
    base.update(overrides)
    return BenchRecord(**base)


def test_aggregate_single_record():
    s = aggregate([_record(err_qmwd=0.1)])
    assert len(s) == 1
    assert s[0].mean_err_qmwd == 0.1
    assert s[0].used == 1 and s[0].excluded == 0


def test_aggregate_all_excluded():
    recs = [
        _record(trial=t, mwd=0, err_wd=None, err_qmwd=None,
                excluded=True, fail_reason="zero_mwd")
        for t in range(4)
    ]
    s = aggregate(recs)
    assert s[0].excluded == 4 and s[0].used == 0
    assert s[0].mean_err_wd is None and s[0].median_err_qmwd is None
    assert s[0].mean_time_mwd_ns == 100.0  # times still aggregate


def test_aggregate_mean_median_on_symmetric_data():
    recs = [
        _record(trial=0, err_wd=0.1, err_qmwd=0.2),
        _record(trial=1, err_wd=0.3, err_qmwd=0.4),
        _record(trial=2, err_wd=0.5, err_qmwd=0.6),
    ]
    s = aggregate(recs)[0]
    assert s.mean_err_wd == pytest.approx(s.median_err_wd) == pytest.approx(0.3)
    assert s.mean_err_qmwd == pytest.approx(s.median_err_qmwd) == pytest.approx(0.4)


def test_aggregate_empty():
    with pytest.raises(EmptyInputError):
        aggregate([])


def test_records_csv_round_trip():
    records = run_sweep(
        SweepConfig(n_fixed=3, m_min=2, m_max=4, trials_per_m=5, mwd_mass_cap=60)
    )
    # zero_mwd rows: mwd=0 with empty error cells.
    records += run_sweep(
        SweepConfig(n_fixed=1, m_min=1, m_max=1, trials_per_m=3, cell_max=1)
    )
    assert {r.fail_reason for r in records} == {"", "mass_cap", "zero_mwd"}
    buf = io.StringIO()
    emit_records_csv(records, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == (
        "m,n,trial,seed,mwd,wd_vec,qmwd,err_wd,err_qmwd,"
        "time_mwd_ns,time_qmwd_ns,time_wd_ns,excluded,fail_reason"
    )
    parsed = read_records_csv(io.StringIO(text))
    assert parsed == records
    # A blank line between rows is skipped.
    head, first, rest = text.split("\n", 2)
    assert read_records_csv(io.StringIO(f"{head}\n{first}\n\n{rest}")) == records


def test_read_records_csv_rejects_bad_input():
    with pytest.raises(InputFormatError):
        read_records_csv(io.StringIO(""))
    with pytest.raises(InputFormatError):
        read_records_csv(io.StringIO("not,the,header\n"))
    header = (
        "m,n,trial,seed,mwd,wd_vec,qmwd,err_wd,err_qmwd,"
        "time_mwd_ns,time_qmwd_ns,time_wd_ns,excluded,fail_reason"
    )
    with pytest.raises(InputFormatError):
        read_records_csv(io.StringIO(header + "\n1,2,3\n"))
    with pytest.raises(InputFormatError):
        read_records_csv(
            io.StringIO(header + "\n2,8,0,1,x,12,11,0.2,0.1,1,1,1,0,\n")
        )
    for err_wd, err_qmwd in (("nan", "0.1"), ("0.2", "inf"), ("-inf", "0.1"), ("0.2", "NaN")):
        with pytest.raises(InputFormatError, match="^line 2: "):
            read_records_csv(io.StringIO(
                header + f"\n2,8,0,1,10,12,11,{err_wd},{err_qmwd},1,1,1,0,\n"
            ))
    for excluded in ("2", "-1"):
        with pytest.raises(InputFormatError, match="^line 2: "):
            read_records_csv(io.StringIO(
                header + f"\n2,8,0,1,10,12,11,0.2,0.1,1,1,1,{excluded},\n"
            ))
    # Only what emit_records_csv writes: ASCII-digit ints, errors >= 0, and
    # excluded 1 exactly when fail_reason is set.
    for row in (
        " +2,8,0,1,10,12,11,0.2,0.1,1,1,1,0,",
        "2,8,0,1,1_0,12,11,0.2,0.1,1,1,1,0,",
        "-3,8,0,1,10,12,11,0.2,0.1,1,1,1,0,",
        "2,8,0,1,10,12,11,0.2,0.1,-1,1,1,0,",
        "2,8,0,1,10,12,11,0.2,0.1,1,1,\u0663,0,",
        "2,8,0,1,10,12,11,-0.2,0.1,1,1,1,0,",
        "2,8,0,1,10,12,11,0.2,-0.1,1,1,1,0,",
        # Float forms that float() takes but _cell never writes: padded,
        # signed, a trailing zero, an exponent repr does not use, an
        # underscore, no point, -0.0, and a quoted newline, which would
        # also shift every later row's line number.
        "2,8,0,1,10,12,11, 0.2,0.1,1,1,1,0,",
        "2,8,0,1,10,12,11,0.2 ,0.1,1,1,1,0,",
        "2,8,0,1,10,12,11,+0.2,0.1,1,1,1,0,",
        "2,8,0,1,10,12,11,0.20,0.1,1,1,1,0,",
        "2,8,0,1,10,12,11,2e-1,0.1,1,1,1,0,",
        "2,8,0,1,10,12,11,0_2,0.1,1,1,1,0,",
        "2,8,0,1,10,12,11,1,0.1,1,1,1,0,",
        "2,8,0,1,10,12,11,0.2,-0.0,1,1,1,0,",
        '2,8,0,1,10,12,11,"0.2\n",0.1,1,1,1,0,\n2,8,0,1,x,12,11,0.2,0.1,1,1,1,0,',
        "2,8,0,1,,12,11,,,,1,1,1,",
        "2,8,0,1,0,12,11,,,1,1,1,0,zero_mwd",
        # Cells that disagree with fail_reason: an unknown reason, a used row
        # without errors or mwd, a zero_mwd row with mwd or errors, and a
        # mass_cap row with mwd, time_mwd_ns or an error.
        "2,8,0,1,10,12,11,0.2,0.1,1,1,1,1,foo",
        "2,8,0,1,10,12,11,,,1,1,1,0,",
        "2,8,0,1,10,12,11,0.2,,1,1,1,0,",
        "2,8,0,1,,12,11,0.2,0.1,,1,1,0,",
        "2,8,0,1,0,12,11,0.2,0.1,1,1,1,0,",
        "2,8,0,1,10,12,11,0.2,0.1,1,1,1,1,zero_mwd",
        "2,8,0,1,10,12,11,,,1,1,1,1,zero_mwd",
        "2,8,0,1,0,12,11,0.2,,1,1,1,1,zero_mwd",
        "2,8,0,1,10,12,11,,,,1,1,1,mass_cap",
        "2,8,0,1,,12,11,,,1,1,1,1,mass_cap",
        "2,8,0,1,,12,11,,0.1,,1,1,1,mass_cap",
        # A field past the csv module's size limit (131072 by default).
        "2,8,0,1,10,12,11,0.2,0.1,1,1,1,1," + "x" * 200_000,
    ):
        with pytest.raises(InputFormatError, match="^line 2: "):
            read_records_csv(io.StringIO(header + "\n" + row + "\n"))
    # Floats as repr writes them read back.
    for text in ("0.0", "1e-05", "0.30000000000000004", "1.5e+300"):
        (rec,) = read_records_csv(
            io.StringIO(header + f"\n2,8,0,1,10,12,11,{text},0.1,1,1,1,0,\n")
        )
        assert rec.err_wd == float(text)
    # The excluded forms that emit_records_csv does write still read back.
    rows = ("2,8,0,1,,12,11,,,,1,1,1,mass_cap", "2,8,1,1,0,12,11,,,1,1,1,1,zero_mwd")
    assert [(r.excluded, r.fail_reason) for r in read_records_csv(
        io.StringIO(header + "\n" + "\n".join(rows) + "\n")
    )] == [(True, "mass_cap"), (True, "zero_mwd")]


def test_csv_header_only_for_empty_records():
    buf = io.StringIO()
    emit_records_csv([], buf)
    assert buf.getvalue().count("\n") == 1
    assert read_records_csv(io.StringIO(buf.getvalue())) == []
