"""The benchmark's seeded workloads: input generation, the timed operation,
and the untimed check of every output.

Inputs come from the benchmark's own stdlib generator (``random.Random``
seeded by a string of workload, seed and pair index), never from
``gridemd.bench``, so a library change cannot shift a workload. Pair ``i``
depends only on (workload, seed, i), so a longer pool keeps every earlier pair.

The library is reached through module attributes at call time
(``_lib("mwd").mwd_exact``), the same bindings the tracer and the tests
rebind.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import os
import random
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Any, NamedTuple

import reference

DEFAULT_SEED = 1
DIGEST_PAIRS = 8

# sha256 of the library's distances on the first DIGEST_PAIRS pairs of
# DEFAULT_SEED, recorded at the commit that introduced the benchmark.
PINNED_DIGESTS = {
    "exact_dense": "fd18226e82bdf3c99cc01609ba3c7a0f0a8a643dac51bcc8c17af3fabe85ed0f",
    "exact_sparse": "5340adc803c477a61948f2d8c290385bd20e8b899510b2550000b700329cf795",
    "cli": "d5ccc74b29e3ac8c11de9cb060b54de501c5f89866b3d98dfe419010ea97be1f",
}
# sha256 of the non-time columns of `gridemd bench --seed DEFAULT_SEED`.
PINNED_SWEEP_DIGEST = "d2fe5b3d9628c3b49a34e38af800e482304aa59a318733a9d03513d09a30a8d7"


def _lib(module: str) -> Any:
    return importlib.import_module(f"gridemd.{module}")


@dataclass(frozen=True)
class Pair:
    """One input pair: the benchmark's own row-major cells and the
    GridHistograms handed to the library."""

    rows: int
    cols: int
    p: tuple[int, ...]
    q: tuple[int, ...]
    P: Any
    Q: Any


class Verdict(NamedTuple):
    """Outcome of checking one output: why it is wrong (None if it is
    right) and, where the op yields the exact distance, (mwd, qmwd, wd)."""

    problem: str | None
    exact: tuple[int, int, int] | None = None


class OpError(NamedTuple):
    """Stands in for the output of an op that raised."""

    exc: BaseException


def _make_pair(rows: int, cols: int, p: list[int], q: list[int]) -> Pair:
    grid = _lib("grid").GridHistogram
    p_t, q_t = tuple(p), tuple(q)
    return Pair(rows, cols, p_t, q_t, grid(rows, cols, p_t), grid(rows, cols, q_t))


def uniform_pair(rng: random.Random, rows: int, cols: int, cell_max: int = 9) -> Pair:
    """Cells uniform on 0..cell_max; the lighter grid gets the missing mass
    one unit at a time at uniformly drawn cells."""
    n = rows * cols
    values = range(cell_max + 1)
    p = rng.choices(values, k=n)
    q = rng.choices(values, k=n)
    lighter = p if sum(p) < sum(q) else q
    for _ in range(abs(sum(p) - sum(q))):
        lighter[rng.randrange(n)] += 1
    return _make_pair(rows, cols, p, q)


def point_mass_pair(rng: random.Random, rows: int, cols: int, points: int, units: int) -> Pair:
    """Each grid holds ``points`` masses of ``units`` at distinct drawn cells."""
    n = rows * cols
    p = [0] * n
    q = [0] * n
    for i in rng.sample(range(n), points):
        p[i] = units
    for i in rng.sample(range(n), points):
        q[i] = units
    return _make_pair(rows, cols, p, q)


def _digest(values) -> str:
    return hashlib.sha256(repr(list(values)).encode()).hexdigest()


def _quasi_problem(breakdown: Any, pair: Pair) -> str | None:
    want = reference.quasi(pair.p, pair.q, pair.rows, pair.cols)
    got = {k: getattr(breakdown, k, None) for k in want}
    if got != want:
        return f"qmwd breakdown {got} differs from the reference {want}"
    return None


def _estimates(pair: Pair) -> tuple[int, int, str | None]:
    """Library qmwd and row-major wd_1d of a pair, checked against the reference."""
    breakdown = _lib("qmwd").qmwd(pair.P, pair.Q)
    wd = _lib("wd1d").wd_1d(pair.p, pair.q)
    problem = _quasi_problem(breakdown, pair)
    if problem is None and wd != reference.w1(pair.p, pair.q):
        problem = f"wd_1d {wd} differs from the reference {reference.w1(pair.p, pair.q)}"
    return breakdown.qmwd, wd, problem


class Workload:
    """A closed-loop workload: op ``i`` runs on request ``i % len(pool)``."""

    name = ""
    entry_module = "gridemd"  # what a user of this workload imports
    warmup_ops = 1
    pool_size = 0

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.pool: list[Any] = []
        self._checked: dict[int, tuple[Any, Verdict]] = {}

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def make_pair(self, index: int) -> Pair:
        raise NotImplementedError

    def prepare(self) -> None:
        """Generate the input pool (and write any files)."""
        self.pool = [self.make_pair(i) for i in range(self.pool_size)]

    def op(self, i: int) -> Any:
        raise NotImplementedError

    def check(self, i: int, out: Any) -> Verdict:
        """Verify op ``i``'s output; an output equal to one already checked
        for the same request reuses that verdict."""
        key = i % len(self.pool)
        if isinstance(out, OpError):
            return Verdict(f"raised {type(out.exc).__name__}: {out.exc}")
        seen = self._checked.get(key)
        if seen is not None and seen[0] == out:
            return seen[1]
        verdict = self._check(key, out)
        self._checked[key] = (out, verdict)
        return verdict

    def _check(self, key: int, out: Any) -> Verdict:
        raise NotImplementedError

    def digest(self, count: int) -> str:
        """Digest of the library's distances on the first ``count`` requests."""
        raise NotImplementedError

    def finish(self) -> tuple[float, str | None] | None:
        """A once-per-run phase after the timed loop: (seconds, problem)."""
        return None


class ExactWorkload(Workload):
    """``mwd_exact(p, q)``; qmwd and wd_1d of the same pair are computed
    untimed for the accuracy figures."""

    def op(self, i: int) -> Any:
        pair = self.pool[i % len(self.pool)]
        return _lib("mwd").mwd_exact(pair.P, pair.Q)

    def _check(self, key: int, res: Any) -> Verdict:
        pair = self.pool[key]
        plan = [(*mv.src, *mv.dst, mv.amount) for mv in res.plan]
        problem = reference.plan_problem(plan, res.distance, pair.p, pair.q, pair.rows, pair.cols)
        qm, wd, est_problem = _estimates(pair)
        problem = problem or est_problem
        return Verdict(problem, (res.distance, qm, wd) if problem is None else None)

    def digest(self, count: int) -> str:
        values = []
        for pair in map(self.make_pair, range(count)):
            qm, wd, _ = _estimates(pair)
            values.append((_lib("mwd").mwd_exact(pair.P, pair.Q).distance, qm, wd))
        return _digest(values)


class ExactDense(ExactWorkload):
    name = "exact_dense"
    warmup_ops = 3

    def __init__(self, seed: int, workdir: str, rows: int = 12, cols: int = 12, pool: int = 256) -> None:
        super().__init__(seed, workdir)
        self.shape, self.pool_size = (rows, cols), pool

    def make_pair(self, index: int) -> Pair:
        return uniform_pair(self.rng(index), *self.shape)


class ExactSparse(ExactWorkload):
    name = "exact_sparse"
    warmup_ops = 10

    def __init__(
        self, seed: int, workdir: str, rows: int = 128, cols: int = 128, points: int = 32, pool: int = 32
    ) -> None:
        super().__init__(seed, workdir)
        self.shape, self.points, self.pool_size = (rows, cols), points, pool

    def make_pair(self, index: int) -> Pair:
        return point_mass_pair(self.rng(index), *self.shape, self.points, 100)


# --- cli ---------------------------------------------------------------------

SWEEP_HEADER = (
    "m,n,trial,seed,mwd,wd_vec,qmwd,err_wd,err_qmwd,"
    "time_mwd_ns,time_qmwd_ns,time_wd_ns,excluded,fail_reason"
).split(",")
TIME_COLUMNS = {"time_mwd_ns", "time_qmwd_ns", "time_wd_ns"}
# `gridemd bench` defaults: n=8, m=2..8, 20 trials, cells 0..9, mass cap 4000.
SWEEP_N, SWEEP_M, SWEEP_TRIALS, SWEEP_CELL_MAX, SWEEP_CAP = 8, range(2, 9), 20, 9, 4000

_MASK = (1 << 64) - 1


def _mix64(x: int) -> int:
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _derive_seed(master: int, *parts: int) -> int:
    """The sweep's documented seed derivation (chained SplitMix64)."""
    s = _mix64(master)
    for part in parts:
        s = _mix64((s + 0x9E3779B97F4A7C15 + part) & _MASK)
    return s


def _sweep_trial_cells(m: int, tseed: int) -> tuple[list[int], list[int]]:
    """Regenerate one sweep trial's grids from its documented recipe."""
    cells = []
    for k in (1, 2):
        rng = random.Random(_derive_seed(tseed, k))
        cells.append([rng.randrange(SWEEP_CELL_MAX + 1) for _ in range(m * SWEEP_N)])
    p, q = cells
    if sum(p) != sum(q):
        rng = random.Random(_derive_seed(tseed, 3))
        lighter = p if sum(p) < sum(q) else q
        for _ in range(abs(sum(p) - sum(q))):
            lighter[rng.randrange(len(lighter))] += 1
    return p, q


def sweep_problem(rows: list[list[str]], master: int) -> str | None:
    """Check a records CSV of the default sweep row by row against grids the
    benchmark regenerates itself: estimates equal the reference, the exact
    distance lies within the separable and greedy bounds, errors recompute."""
    if not rows or rows[0] != SWEEP_HEADER:
        return "records CSV header differs from the documented one"
    body = rows[1:]
    expected = [(m, t) for m in SWEEP_M for t in range(SWEEP_TRIALS)]
    if len(body) != len(expected):
        return f"records CSV has {len(body)} rows, expected {len(expected)}"
    for row, (m, trial) in zip(body, expected):
        if len(row) != len(SWEEP_HEADER):
            return f"record {row[:4]} has {len(row)} fields"
        rec = dict(zip(SWEEP_HEADER, row))
        tseed = _derive_seed(master, m, trial)
        if (rec["m"], rec["n"], rec["trial"], rec["seed"]) != (str(m), str(SWEEP_N), str(trial), str(tseed)):
            return f"record {row[:4]} is out of order or has the wrong seed"
        p, q = _sweep_trial_cells(m, tseed)
        want_q = reference.quasi(p, q, m, SWEEP_N)["qmwd"]
        want_wd = reference.w1(p, q)
        if rec["qmwd"] != str(want_q) or rec["wd_vec"] != str(want_wd):
            return f"record m={m} trial={trial}: estimates differ from the reference"
        if sum(p) > SWEEP_CAP:
            continue
        mwd = int(rec["mwd"])
        lb, ub = reference.separable_lower_bound(p, q, m, SWEEP_N), reference.greedy_upper_bound(p, q, SWEEP_N)
        if not lb <= mwd <= ub:
            return f"record m={m} trial={trial}: mwd {mwd} outside [{lb}, {ub}]"
        if mwd == 0:
            ok = (rec["excluded"], rec["fail_reason"], rec["err_wd"]) == ("1", "zero_mwd", "")
        else:
            ok = (
                (rec["excluded"], rec["fail_reason"]) == ("0", "")
                and float(rec["err_wd"]) == abs(mwd - want_wd) / mwd
                and float(rec["err_qmwd"]) == abs(mwd - want_q) / mwd
            )
        if not ok:
            return f"record m={m} trial={trial}: error columns do not recompute"
        if not all(int(rec[c]) > 0 for c in TIME_COLUMNS):
            return f"record m={m} trial={trial}: a time column is not positive"
    return None


def sweep_digest(rows: list[list[str]]) -> str:
    keep = [i for i, col in enumerate(SWEEP_HEADER) if col not in TIME_COLUMNS]
    return _digest([row[i] for i in keep] for row in rows)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``gridemd.cli.main(argv)`` in process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = _lib("cli").main(argv)
    return code, out.getvalue()


class Cli(Workload):
    """In-process ``gridemd dist`` requests on grid files, in a repeating
    cycle of one large ``--metric qmwd`` request and two small
    ``--metric all --plan`` requests; once per run a default sweep and its plot."""

    name = "cli"
    entry_module = "gridemd.cli"
    warmup_ops = 6

    def __init__(
        self, seed: int, workdir: str, large: int = 96, small: int = 8, cycles: int = 16
    ) -> None:
        super().__init__(seed, workdir)
        self.large, self.small, self.pool_size = large, small, 3 * cycles

    def _write(self, path: str, cells: tuple[int, ...], cols: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(0, len(cells), cols):
                fh.write(" ".join(map(str, cells[i : i + cols])) + "\n")

    def make_pair(self, index: int) -> Pair:
        side = self.small if index % 3 else self.large
        return uniform_pair(self.rng(index), side, side)

    def prepare(self) -> None:
        """Pool entries are (argv, pair, wants_plan): every third request,
        starting with the first, is a large qmwd request."""
        self.pool = []
        for i in range(self.pool_size):
            pair = self.make_pair(i)
            paths = [os.path.join(self.workdir, f"{i}_{tag}.txt") for tag in "pq"]
            self._write(paths[0], pair.p, pair.cols)
            self._write(paths[1], pair.q, pair.cols)
            full = i % 3 != 0
            flags = ["--metric", "all", "--plan", "--json"] if full else ["--metric", "qmwd", "--json"]
            self.pool.append((["dist", *paths, *flags], pair, full))

    def op(self, i: int) -> Any:
        return run_cli(self.pool[i % len(self.pool)][0])

    def _check(self, key: int, out: Any) -> Verdict:
        argv, pair, full = self.pool[key]
        code, text = out
        if code != 0:
            return Verdict(f"`gridemd {' '.join(argv)}` exited {code}")
        try:
            reply = json.loads(text)
        except json.JSONDecodeError as exc:
            return Verdict(f"reply is not JSON: {exc}")
        want_q = reference.quasi(pair.p, pair.q, pair.rows, pair.cols)["qmwd"]
        problem = _estimates(pair)[2]
        want = {"m": pair.rows, "n": pair.cols, "qmwd": want_q}
        if full:
            res = _lib("mwd").mwd_exact(pair.P, pair.Q)
            want.update(mwd=res.distance, wd_vec=reference.w1(pair.p, pair.q))
        got = {k: reply.get(k) for k in want}
        if problem is None and got != want:
            problem = f"reply {got} differs from {want}"
        if problem is None and set(reply) != set(want) | ({"plan"} if full else set()):
            problem = f"reply has keys {sorted(reply)}"
        if not full:
            return Verdict(problem)
        if problem is None:
            plan = [tuple(mv) for mv in reply["plan"]]
            problem = reference.plan_problem(plan, reply["mwd"], pair.p, pair.q, pair.rows, pair.cols)
        return Verdict(problem, (reply["mwd"], reply["qmwd"], reply["wd_vec"]) if problem is None else None)

    def digest(self, count: int) -> str:
        values = []
        for i in range(count):
            pair = self.make_pair(i)
            full = i % 3 != 0
            qm, wd, _ = _estimates(pair)
            values.append((_lib("mwd").mwd_exact(pair.P, pair.Q).distance, qm, wd) if full else (qm,))
        return _digest(values)

    def finish(self) -> tuple[float, str | None] | None:
        """``gridemd bench --seed <seed>`` with default settings, then ``plot``;
        the outputs are checked untimed."""
        csv_path = os.path.join(self.workdir, "records.csv")
        svg_path = os.path.join(self.workdir, "chart.svg")
        t0 = time.perf_counter()
        codes = (
            run_cli(["bench", "--seed", str(self.seed), "--out", csv_path])[0],
            run_cli(["plot", "--in", csv_path, "--out", svg_path])[0],
        )
        seconds = time.perf_counter() - t0
        if codes != (0, 0):
            return seconds, f"bench/plot exited {codes}"
        with open(csv_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        problem = sweep_problem(rows, self.seed)
        if problem is None and self.seed == DEFAULT_SEED and sweep_digest(rows) != PINNED_SWEEP_DIGEST:
            problem = "sweep CSV digest differs from the one pinned for the default seed"
        if problem is None:
            try:
                root = ET.parse(svg_path).getroot()
            except ET.ParseError as exc:
                problem = f"SVG does not parse as XML: {exc}"
            else:
                if root.tag != "{http://www.w3.org/2000/svg}svg":
                    problem = f"SVG root element is {root.tag}"
        return seconds, problem


WORKLOADS = {cls.name: cls for cls in (ExactDense, ExactSparse, Cli)}
