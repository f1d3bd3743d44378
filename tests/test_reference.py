"""The brute-force references agree with each other and stay apart from the library."""

from __future__ import annotations

import ast
import random
from pathlib import Path

from gridemd import GridHistogram
from tests._reference import assignment_distance, sorted_units_distance
from tests._util import random_mass_vector


def test_assignment_equals_sorted_units_on_lines():
    # On a 1 x n or n x 1 grid the Manhattan cost is the 1D distance of the
    # row-major cells, so two unrelated brute forces must agree.
    rng = random.Random(2401)
    for _ in range(300):
        n = rng.randrange(1, 11)
        mass = rng.randrange(0, 13)
        a = random_mass_vector(rng, n, mass)
        b = random_mass_vector(rng, n, mass)
        want = sorted_units_distance(a, b)
        for rows, cols in ((1, n), (n, 1)):
            p, q = GridHistogram(rows, cols, a), GridHistogram(rows, cols, b)
            assert assignment_distance(p, q) == want


def test_reference_imports_nothing_from_gridemd():
    # A relative import counts too: tests/_util.py imports gridemd.
    tree = ast.parse((Path(__file__).parent / "_reference.py").read_text(encoding="utf-8"))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    assert modules
    assert [m for m in modules if m.startswith(".") or m.split(".")[0] == "gridemd"] == []
