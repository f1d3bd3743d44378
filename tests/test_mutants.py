"""The mutant list in tools/mutants.py still targets the code: each pinned
``old`` string occurs exactly once in its file, and each edit compiles.
Running the mutants themselves takes about 70 s; CI does it."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutant_pins_one_place():
    assert mutants.pin_problems() == []
    for m in mutants.MUTANTS:  # an equivalent mutant says why it is one
        assert m.expected == mutants.KILLED or m.expected.strip(), m.name
