"""Closed-form 1D distance against its brute-force reference and the metric axioms."""

from __future__ import annotations

import random

import pytest

from gridemd import (
    LengthMismatchError,
    MassMismatchError,
    NegativeEntryError,
    PreconditionError,
    wd_1d,
)
from tests._reference import sorted_units_distance
from tests._util import random_mass_vector


def test_worked_values():
    assert wd_1d((1, 0, 0), (0, 0, 1)) == 2
    assert wd_1d((3, 1), (1, 3)) == 2
    assert wd_1d((2, 0, 0, 0), (0, 0, 0, 2)) == 6
    assert wd_1d((5,), (5,)) == 0


def test_identity_on_random_vectors():
    rng = random.Random(601)
    for _ in range(200):
        a = random_mass_vector(rng, rng.randrange(1, 12), rng.randrange(0, 50))
        assert wd_1d(a, a) == 0


def test_errors():
    with pytest.raises(LengthMismatchError):
        wd_1d((1, 0), (1, 0, 0))
    with pytest.raises(MassMismatchError):
        wd_1d((1, 0), (1, 1))
    with pytest.raises(NegativeEntryError):
        wd_1d((1, -1), (0, 0))
    with pytest.raises(ValueError, match=r"^reference limited to mass 64, got 65$"):
        sorted_units_distance((65, 0), (0, 65))


def test_error_messages():
    with pytest.raises(LengthMismatchError, match=r"^vector lengths differ: 2 vs 3$"):
        wd_1d((1, -1), (1, 0, 0))
    with pytest.raises(NegativeEntryError, match=r"^negative mass -2$"):
        wd_1d((1, -2, -1), (-3, 0, 0))
    with pytest.raises(NegativeEntryError, match=r"^negative mass -1$"):
        wd_1d((0, 0), (1, -1))
    with pytest.raises(MassMismatchError, match=r"^total masses differ: 1 vs 2$"):
        wd_1d((1, 0), (1, 1))
    # Entries that are not ints: summed as floats, or not comparable with 0.
    for a, b, bad in (
        ((0.5, 0.5), (1.0, 0.0), "0.5"),
        ("ab", "ab", "'a'"),
        ((None,), (None,), "None"),
        ((1, 2), (3, None), "None"),
    ):
        with pytest.raises(PreconditionError, match=rf"^entries must be ints, got {bad}$"):
            wd_1d(a, b)


def test_oracle_worked_values():
    assert sorted_units_distance((1, 1), (1, 1)) == 0
    assert sorted_units_distance((1, 0), (0, 1)) == 1


def test_matches_oracle_on_random_instances():
    rng = random.Random(602)
    for _ in range(1000):
        length = rng.randrange(1, 11)
        mass = rng.randrange(0, 65)
        a = random_mass_vector(rng, length, mass)
        b = random_mass_vector(rng, length, mass)
        assert wd_1d(a, b) == sorted_units_distance(a, b)


def test_symmetry_and_triangle():
    rng = random.Random(603)
    for _ in range(500):
        length = rng.randrange(1, 12)
        mass = rng.randrange(0, 80)
        a = random_mass_vector(rng, length, mass)
        b = random_mass_vector(rng, length, mass)
        c = random_mass_vector(rng, length, mass)
        ab = wd_1d(a, b)
        assert ab == wd_1d(b, a)
        assert wd_1d(a, c) <= ab + wd_1d(b, c)


def test_reversal_invariance():
    rng = random.Random(604)
    for _ in range(300):
        length = rng.randrange(1, 12)
        mass = rng.randrange(0, 60)
        a = random_mass_vector(rng, length, mass)
        b = random_mass_vector(rng, length, mass)
        assert wd_1d(a[::-1], b[::-1]) == wd_1d(a, b)


def test_zero_padding_translation():
    rng = random.Random(605)
    for _ in range(200):
        length = rng.randrange(1, 10)
        mass = rng.randrange(0, 40)
        a = random_mass_vector(rng, length, mass)
        b = random_mass_vector(rng, length, mass)
        d = wd_1d(a, b)
        pad = (0,) * rng.randrange(1, 4)
        assert wd_1d(pad + a, pad + b) == d
        assert wd_1d(a + pad, b + pad) == d


def test_distance_upper_bound():
    rng = random.Random(606)
    for _ in range(300):
        length = rng.randrange(1, 12)
        mass = rng.randrange(0, 60)
        a = random_mass_vector(rng, length, mass)
        b = random_mass_vector(rng, length, mass)
        assert 0 <= wd_1d(a, b) <= mass * (length - 1)
