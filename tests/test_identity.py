"""The identity harness in tools/identity.py: stable dumps, and a seeded
mutation shows up in the diff."""

from __future__ import annotations

import dataclasses
import importlib.util
from pathlib import Path

import gridemd

_spec = importlib.util.spec_from_file_location(
    "identity", Path(__file__).resolve().parent.parent / "tools" / "identity.py"
)
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)

SMALL = {"pairs": 8, "dense": 1, "sparse": 1, "sweep_trials": 1}


def test_identity_dump_is_stable_and_flags_a_mutation(tmp_path, monkeypatch, capsys):
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    identity.write_dump(identity.collect(**SMALL), a)
    base = identity.read_dump(a)
    assert identity.differences(base, identity.collect(**SMALL)) == []
    assert identity.main(["diff", a, a]) == 0

    exact = gridemd.mwd_exact

    def off_by_one(p, q):
        res = exact(p, q)
        return dataclasses.replace(res, distance=res.distance + 1)

    monkeypatch.setattr(gridemd, "mwd_exact", off_by_one)
    identity.write_dump(identity.collect(**SMALL), b)
    diffs = identity.differences(base, identity.read_dump(b))
    assert "pair/0/mwd" in [key for key, _, _ in diffs]
    for key, before, after in diffs:
        assert key.endswith("/mwd") and after == before + 1
    capsys.readouterr()
    assert identity.main(["diff", a, b]) == 1
    assert "pair/0/mwd:" in capsys.readouterr().out
