"""SVG output: structure, series presence, robustness to absent values."""

from __future__ import annotations

import io
import xml.etree.ElementTree as ET

import pytest

from gridemd import EmptyInputError, SweepConfig, aggregate, emit_svg, run_sweep
from gridemd.bench import SweepSummary

SVG_NS = "{http://www.w3.org/2000/svg}"


def _render(summaries) -> ET.Element:
    buf = io.StringIO()
    emit_svg(summaries, buf)
    return ET.fromstring(buf.getvalue())


def test_svg_structure_from_real_sweep():
    summaries = aggregate(
        run_sweep(SweepConfig(n_fixed=3, m_min=2, m_max=5, trials_per_m=4))
    )
    root = _render(summaries)
    assert root.tag == f"{SVG_NS}svg"
    ids = [p.get("id") for p in root.iter(f"{SVG_NS}polyline")]
    assert ids.count("series-err-wd") == 1
    assert ids.count("series-err-qmwd") == 1
    assert ids.count("series-time-mwd") == 1
    assert ids.count("series-time-qmwd") == 1
    assert ids.count("series-time-wd") == 1
    assert len(ids) == 5


def test_svg_handles_missing_aggregates():
    rows = [
        SweepSummary(
            m=2, n=8, used=0, excluded=3,
            mean_err_wd=None, median_err_wd=None,
            mean_err_qmwd=None, median_err_qmwd=None,
            mean_time_mwd_ns=None, mean_time_qmwd_ns=12000.0,
            mean_time_wd_ns=900.0,
        ),
        SweepSummary(
            m=3, n=8, used=3, excluded=0,
            mean_err_wd=0.5, median_err_wd=0.5,
            mean_err_qmwd=0.25, median_err_qmwd=0.25,
            mean_time_mwd_ns=80000.0, mean_time_qmwd_ns=15000.0,
            mean_time_wd_ns=1100.0,
        ),
    ]
    root = _render(rows)
    assert len(list(root.iter(f"{SVG_NS}polyline"))) == 5


def test_svg_handles_equal_times():
    # Every time mean equal: the log axis spans one decade above it.
    rows = [
        SweepSummary(
            m=m, n=4, used=2, excluded=0,
            mean_err_wd=0.5, median_err_wd=0.5,
            mean_err_qmwd=0.25, median_err_qmwd=0.25,
            mean_time_mwd_ns=5000.0, mean_time_qmwd_ns=5000.0,
            mean_time_wd_ns=5000.0,
        )
        for m in (2, 3)
    ]
    root = _render(rows)
    assert len(list(root.iter(f"{SVG_NS}polyline"))) == 5
    labels = [t.text for t in root.iter(f"{SVG_NS}text")]
    assert [lbl for lbl in labels if lbl.endswith(("ns", "us", "ms"))] == ["1 us", "10 us", "100 us"]


def test_svg_single_summary():
    rows = aggregate(run_sweep(SweepConfig(n_fixed=2, m_min=2, m_max=2, trials_per_m=3)))
    root = _render(rows)
    assert len(list(root.iter(f"{SVG_NS}polyline"))) == 5


def test_svg_empty_input():
    with pytest.raises(EmptyInputError):
        emit_svg([], io.StringIO())
