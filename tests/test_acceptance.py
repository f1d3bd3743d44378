"""Acceptance suite: the nine release-gating checks.

Each test is one criterion; the terminal summary (see conftest.py) prints
one PASS/FAIL line per criterion at the end of the run.
"""

from __future__ import annotations

import random
import statistics
import time

from gridemd import (
    GridHistogram,
    SweepConfig,
    aggregate,
    equalize_mass,
    gen_random_grid,
    manhattan_cost,
    mwd_exact,
    qmwd,
    read_records_csv,
    rotate90,
    run_sweep,
    total_mass,
    transpose,
    wd_1d,
)
from gridemd.cli import main
from tests._reference import assignment_distance, sorted_units_distance
from tests._util import plan_marginals, random_mass_vector, random_pair


def _best_of_three_ns(fn) -> int:
    best = None
    for _ in range(3):
        t0 = time.perf_counter_ns()
        fn()
        dt = time.perf_counter_ns() - t0
        best = dt if best is None else min(best, dt)
    return best


def test_criterion_1_exact_distance_matches_assignment_oracle():
    """200 seeded random instances, dims <= 4x4, mass <= 12: zero mismatches."""
    rng = random.Random(11)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(200):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        mass = rng.randrange(0, 13)
        p, q = random_pair(rng, m, n, mass)
        assert mwd_exact(p, q).distance == assignment_distance(p, q)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 200
    assert elapsed < 10.0
    print(f"criterion 1: 200/200 oracle matches in {elapsed:.2f}s")


def test_criterion_2_one_dimensional_distance_matches_oracle():
    """1000 seeded random instances, length <= 10, mass <= 64: zero mismatches."""
    rng = random.Random(22)
    for _ in range(1000):
        length = rng.randrange(1, 11)
        mass = rng.randrange(0, 65)
        a = random_mass_vector(rng, length, mass)
        b = random_mass_vector(rng, length, mass)
        assert wd_1d(a, b) == sorted_units_distance(a, b)
    print("criterion 2: 1000/1000 oracle matches")


def test_criterion_3_worked_breakdown_values():
    """The two frozen worked examples, re-derived from both oracles."""
    p = GridHistogram.from_rows([[1, 0], [0, 0]])
    q = GridHistogram.from_rows([[0, 0], [0, 1]])
    b = qmwd(p, q)
    assert b.wd_row == sorted_units_distance(p.cells, q.cells) == 3
    assert b.wd_rot == sorted_units_distance(rotate90(p).cells, rotate90(q).cells) == 1
    assert b.wd_transp == sorted_units_distance(transpose(p).cells, transpose(q).cells) == 3
    assert (b.est_row, b.est_rot, b.est_transp) == (2, 1, 2)
    assert b.qmwd == 2
    assert mwd_exact(p, q).distance == assignment_distance(p, q) == 2

    p2 = GridHistogram.from_rows([[1, 0]])
    q2 = GridHistogram.from_rows([[0, 1]])
    b2 = qmwd(p2, q2)
    assert (b2.wd_row, b2.wd_rot, b2.wd_transp) == (1, 1, 1)
    assert b2.qmwd == 1
    assert mwd_exact(p2, q2).distance == assignment_distance(p2, q2) == 1
    print("criterion 3: both worked breakdowns match, oracle-derived")


def test_criterion_4_axis_aligned_unit_pairs_exhaustive():
    """All same-row and same-column unit pairs on 5x5: quasi = exact = |delta|."""

    def unit(i: int, j: int) -> GridHistogram:
        cells = [0] * 25
        cells[i * 5 + j] = 1
        return GridHistogram(5, 5, tuple(cells))

    checked = 0
    for r in range(5):
        for c1 in range(5):
            for c2 in range(5):
                p, q = unit(r, c1), unit(r, c2)
                assert qmwd(p, q).qmwd == mwd_exact(p, q).distance == abs(c1 - c2)
                checked += 1
    for c in range(5):
        for r1 in range(5):
            for r2 in range(5):
                p, q = unit(r1, c), unit(r2, c)
                assert qmwd(p, q).qmwd == mwd_exact(p, q).distance == abs(r1 - r2)
                checked += 1
    print(f"criterion 4: {checked} axis-aligned unit pairs, zero exceptions")


def test_criterion_5_metric_and_invariance_suite():
    """Metric axioms and transform invariances, all exact."""
    rng = random.Random(55)
    for _ in range(1000):
        length = rng.randrange(1, 11)
        mass = rng.randrange(0, 64)
        a = random_mass_vector(rng, length, mass)
        b = random_mass_vector(rng, length, mass)
        c = random_mass_vector(rng, length, mass)
        assert wd_1d(a, a) == 0
        ab = wd_1d(a, b)
        assert ab == wd_1d(b, a)
        assert wd_1d(a, c) <= ab + wd_1d(b, c)

    for _ in range(200):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        mass = rng.randrange(0, 40)
        p, q = random_pair(rng, m, n, mass)
        c = GridHistogram(m, n, random_mass_vector(rng, m * n, mass))
        pq = mwd_exact(p, q).distance
        assert pq == mwd_exact(q, p).distance
        assert mwd_exact(p, p).distance == 0
        assert mwd_exact(p, c).distance <= pq + mwd_exact(q, c).distance

    for _ in range(100):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        mass = rng.randrange(0, 60)
        p, q = random_pair(rng, m, n, mass)
        d = mwd_exact(p, q).distance
        assert mwd_exact(transpose(p), transpose(q)).distance == d
        assert mwd_exact(rotate90(p), rotate90(q)).distance == d

    def rotate_cw(g: GridHistogram) -> GridHistogram:
        return rotate90(rotate90(rotate90(g)))

    for _ in range(200):
        m = rng.randrange(1, 7)
        n = rng.randrange(1, 7)
        mass = rng.randrange(0, 80)
        p, q = random_pair(rng, m, n, mass)
        ccw = wd_1d(rotate90(p).cells, rotate90(q).cells)
        cw = wd_1d(rotate_cw(p).cells, rotate_cw(q).cells)
        assert ccw == cw == qmwd(p, q).wd_rot
    print("criterion 5: metric axioms and invariances hold, zero violations")


def test_criterion_6_accuracy_ordering_at_desk_scale():
    """Default sweep: the quasi distance beats the raw 1D baseline per size."""
    summaries = aggregate(run_sweep(SweepConfig()))
    assert [s.m for s in summaries] == list(range(2, 9))
    for s in summaries:
        assert s.mean_err_qmwd is not None and s.mean_err_wd is not None
        assert s.mean_err_qmwd < s.mean_err_wd, f"ordering fails at m={s.m}"
    detail = ", ".join(
        f"m={s.m}: {s.mean_err_qmwd:.3f}<{s.mean_err_wd:.3f}" for s in summaries
    )
    print(f"criterion 6: mean quasi error below raw error at every size ({detail})")


def test_criterion_7_runtime_scaling_orderings():
    """Quasi distance scales ~linearly in cell count; the exact solve is
    far slower than the quasi estimate at 12x12."""
    rng = random.Random(77)

    def square_pair(dim: int):
        p = gen_random_grid(dim, dim, rng.randrange(1 << 62), 9)
        q = gen_random_grid(dim, dim, rng.randrange(1 << 62), 9)
        return equalize_mass(p, q, rng.randrange(1 << 62))

    qmwd_15 = []
    qmwd_60 = []
    for _ in range(25):
        p, q = square_pair(15)
        qmwd_15.append(_best_of_three_ns(lambda: qmwd(p, q)))
        p, q = square_pair(60)
        qmwd_60.append(_best_of_three_ns(lambda: qmwd(p, q)))
    med_15 = statistics.median(qmwd_15)
    med_60 = statistics.median(qmwd_60)
    assert med_60 <= 32 * med_15, f"{med_60} vs {med_15}"

    mwd_12 = []
    qmwd_12 = []
    for _ in range(15):
        p, q = square_pair(12)
        mwd_12.append(_best_of_three_ns(lambda: mwd_exact(p, q)))
        qmwd_12.append(_best_of_three_ns(lambda: qmwd(p, q)))
    med_mwd = statistics.median(mwd_12)
    med_qmwd = statistics.median(qmwd_12)
    assert med_mwd >= 10 * med_qmwd, f"{med_mwd} vs {med_qmwd}"
    print(
        "criterion 7: quasi 60x60/15x15 ratio "
        f"{med_60 / med_15:.1f}x (<=32), exact/quasi at 12x12 "
        f"{med_mwd / med_qmwd:.0f}x (>=10)"
    )


def test_criterion_8_bench_determinism_byte_identical(tmp_path, capsys):
    """Two identical bench invocations agree byte-for-byte outside timings."""
    flags = ["--n", "6", "--m-min", "2", "--m-max", "6", "--trials", "6",
             "--seed", "123"]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["bench", *flags, "--out", str(out_a)]) == 0
    assert main(["bench", *flags, "--out", str(out_b)]) == 0
    capsys.readouterr()

    timing_cols = {9, 10, 11}

    def stripped(path) -> list[str]:
        lines = path.read_text(encoding="utf-8").splitlines()
        return [
            ",".join(
                field
                for idx, field in enumerate(line.split(","))
                if idx not in timing_cols
            )
            for line in lines
        ]

    a, b = stripped(out_a), stripped(out_b)
    assert len(a) == 31
    assert a == b
    with open(out_a, encoding="utf-8", newline="") as fh:
        assert len(read_records_csv(fh)) == 30
    print("criterion 8: non-timing columns byte-identical across runs")


def test_criterion_9_plan_validity():
    """100 random exact solves: marginals exact, cost recomputes exactly."""
    rng = random.Random(99)
    for _ in range(100):
        m = rng.randrange(1, 7)
        n = rng.randrange(1, 7)
        mass = rng.randrange(0, 150)
        p, q = random_pair(rng, m, n, mass)
        res = mwd_exact(p, q)
        assert plan_marginals(res.plan, m, n) == (p.cells, q.cells)
        recomputed = sum(
            mv.amount * manhattan_cost(mv.src, mv.dst) for mv in res.plan
        )
        assert recomputed == res.distance
        assert all(mv.amount > 0 for mv in res.plan)
        assert total_mass(p) == sum(mv.amount for mv in res.plan)
    print("criterion 9: 100/100 plans valid and cost-consistent")
