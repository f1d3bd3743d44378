"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py

A clean run must report no failed check on any workload, and a library
function that returns a wrong value must be caught wherever a workload
uses it.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import CALL_SITES, SPAN_NAMES  # noqa: E402

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TINY = {
    "exact_dense": dict(rows=4, cols=4, pool=8),
    "exact_sparse": dict(rows=16, cols=16, points=4, pool=4),
    "cli": dict(large=12, small=4, cycles=2),
}


def tiny_run(name, workdir, trace=False, canary=False):
    cls = workloads.WORKLOADS[name]
    check = (lambda: run.canary_problem(name, str(workdir))) if canary else (lambda: None)
    result, lines = run.run(lambda: cls(7, str(workdir), **TINY[name]), 0.05, trace, canary=check)
    return result, "\n".join(lines)


def rebind(monkeypatch, span, make):
    for mod_name, attr in CALL_SITES[span]:
        mod = importlib.import_module(mod_name)
        monkeypatch.setattr(mod, attr, make(getattr(mod, attr)))


def distance_plus_one(fn):
    def wrong(p, q, **kw):
        res = fn(p, q, **kw)
        return dataclasses.replace(res, distance=res.distance + 1)

    return wrong


def qmwd_plus_one(fn):
    def wrong(p, q):
        res = fn(p, q)
        return dataclasses.replace(res, qmwd=res.qmwd + 1)

    return wrong


@pytest.mark.parametrize("name", sorted(TINY))
def test_clean_run_reports_no_failure(name, tmp_path):
    result, text = tiny_run(name, tmp_path, canary=True)
    assert result["failed"] == 0, text
    assert result["correct"], text
    assert result["attempted"] >= run.MIN_OPS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["exact_dense", "exact_sparse", "cli"])
def test_wrong_exact_distance_is_caught(name, tmp_path, monkeypatch):
    rebind(monkeypatch, "mwd.mwd_exact", distance_plus_one)
    result, _ = tiny_run(name, tmp_path)
    assert result["failed"] > 0
    assert not result["correct"]


@pytest.mark.parametrize("name", ["cli", "exact_dense"])
def test_wrong_quasi_distance_is_caught(name, tmp_path, monkeypatch):
    rebind(monkeypatch, "qmwd.qmwd", qmwd_plus_one)
    result, _ = tiny_run(name, tmp_path)
    assert result["failed"] > 0
    assert not result["correct"]


def test_canary_catches_changed_distances(tmp_path, monkeypatch):
    rebind(monkeypatch, "mwd.mwd_exact", distance_plus_one)
    assert run.canary_problem("exact_sparse", str(tmp_path)) is not None


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer(name, tmp_path):
    result, text = tiny_run(name, tmp_path, trace=True)
    assert result["correct"], text
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    for span in SPAN_NAMES:
        assert 0 <= metrics[f"{span}.self_ms"] <= metrics[f"{span}.busy_ms"] + 1e-9
    assert metrics["trace.overhead_ratio"] > 0
    if name.startswith("exact"):
        assert metrics["mwd.mwd_exact.calls"] == metrics["trace.ops"]
        assert metrics["qmwd.qmwd.calls"] == 0  # the untimed checks run outside the tracer
    if name == "cli":
        assert metrics["cli.main.calls"] == metrics["trace.ops"] + 2  # plus bench and plot
        assert metrics["charts.emit_svg.calls"] == 1
    # Every call site is restored after the traced run.
    for span, sites in CALL_SITES.items():
        for mod_name, attr in sites:
            assert getattr(importlib.import_module(mod_name), attr).__name__ != "traced"
