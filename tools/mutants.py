"""Measure what the tier-1 tests catch: run pinned mutants of gridemd.

    python3 tools/mutants.py

Each mutant is one exact-string edit, ``old`` to ``new``, of one file under
``src/``. For each one the script copies ``src/``, ``tests/``, ``tools/`` and
``pyproject.toml`` into a temporary directory, applies the edit there and
runs ``python -m pytest -q -x`` on the copy with ``PYTHONPATH=src``, under a
timeout of TIMEOUT seconds per mutant. The run takes the mutated module's
own test file first (``tests/test_mwd.py`` for ``src/gridemd/mwd.py``), then
the other unit test files in name order, and ``tests/test_acceptance.py``
last, so the report names the first focused test that fails rather than a
sweep or an acceptance criterion that would fail too. It leaves out
``tests/test_mutants.py``, which checks the pins that the edit itself
breaks. A failing run kills the mutant. A timeout counts as killed too,
since a fault that makes the tests hang is caught, but it is reported
apart and marked unverified: on a slow enough machine a surviving mutant
would time out as well. The working tree is never edited.

``expected`` is ``"killed"``, or the reason why the mutant is equivalent: an
edit that changes no result the tests may check, such as which of several
optimal plans is returned. An equivalent mutant is run and reported too; if
the tests start killing it, the list should move it to ``killed``.

The script exits 1 if a ``killed`` mutant survives, or if an ``old`` string
no longer occurs exactly once in its file, so the list has to change with
the code it targets. Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "pyproject.toml")
KILLED = "killed"
ACCEPTANCE = "tests/test_acceptance.py"
TIMEOUT = 60  # seconds per mutant; a full tier-1 run takes about 6 s on 2 vCPUs


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    expected: str  # KILLED, or why the mutant is equivalent


MWD = "src/gridemd/mwd.py"

MUTANTS = (
    # The grid engine, _solve_grid.
    Mutant("grid: odd row width", MWD, "W = cols + 2 - cols % 2", "W = cols + 1", KILLED),
    Mutant(
        "grid: a deficit written one slot to the right",
        MWD,
        "exc[i + i // cols * (W - cols)] = -a",
        "exc[i + i // cols * (W - cols) + 1] = -a",
        KILLED,
    ),
    Mutant(
        "grid: sentinels start at 2n, like real cells",
        MWD,
        "blank = ([2 * rows * cols] * cols + [-1] * (W - cols)) * rows + [-1] * W",
        "blank = [2 * rows * cols] * size",
        KILLED,
    ),
    Mutant(
        "grid: a tight step priced du + 1",
        MWD,
        "[w := u - 1]) > du:\n                    if flow[u + w]:\n"
        "                        dist[w], via[w] = du, u",
        "[w := u - 1]) > du:\n                    if flow[u + w]:\n"
        "                        dist[w], via[w] = du + 1, u",
        KILLED,
    ),
    Mutant(
        "grid: a step without flow priced one more",
        MWD,
        "base = du + 1 + pot[u]",
        "base = du + 2 + pot[u]",
        KILLED,
    ),
    Mutant(
        "grid: buckets grown only to du + 2",
        MWD,
        "while len(buckets) < du + 3:",
        "while len(buckets) < du + 2:",
        KILLED,
    ),
    Mutant(
        "grid: the walk trusts a used-up cancel step",
        MWD,
        "and (flow[u + w] or pot[w] == pot[u] + 1):",
        "and pot[w] == pot[u] + 1:",
        KILLED,
    ),
    Mutant(
        "grid: sources keep cells with no surplus",
        MWD,
        "sources = [u for u in sources if exc[u] > 0]",
        "sources = [u for u in sources if exc[u] >= 0]",
        KILLED,
    ),
    Mutant(
        "grid: potentials capped at du - 1",
        MWD,
        "pot = [p + (x if x < du else du) for",
        "pot = [p + (x if x < du else du - 1) for",
        KILLED,
    ),
    Mutant(
        "grid: the split ignores each step's flow",
        MWD,
        "                if f < amt:\n                    amt = f\n",
        "",
        KILLED,
    ),
    Mutant(
        "grid: a sink slot mapped back off by one",
        MWD,
        "key = src, u - u // W * (W - cols)",
        "key = src, u - u // W * (W - cols - 1)",
        KILLED,
    ),
    Mutant(
        "grid: no dry-root skip",
        MWD,
        "if u >= 0 or not exc[w]:",
        "if u >= 0:",
        "the walk then pushes delta = min(0, ...) = 0, which changes no flow, no "
        "surplus and no result; only a count of pushes per round could see it. "
        "The skip is no dead code: without it mwd_exact ran 5-6 % slower at 8x8 "
        "and 12x12 and 1 % faster to 7 % slower at 24x24 (cells 0..9, best of 7 "
        "interleaved in-process calls, 30, 20 and 6-12 pairs, four runs, 2-vCPU Xeon)",
    ),
    Mutant(
        "grid: the split tries right before left",
        MWD,
        "(f := -flow[e := 2 * u - 1]) <= 0\n"
        "                    and (f := flow[e := 2 * u + 1]) <= 0",
        "(f := flow[e := 2 * u + 1]) <= 0\n"
        "                    and (f := -flow[e := 2 * u - 1]) <= 0",
        "the same flow splits into other source-to-sink paths: another optimal "
        "plan with the same distance and marginals, which only the plan entries "
        "of tools/identity.py see",
    ),
    # The sparse engine, _solve_transport.
    Mutant(
        "sparse: sink coordinates taken by the row count",
        MWD,
        "dst = [divmod(i, cols) for i, _ in dem]",
        "dst = [divmod(i, rows) for i, _ in dem]",
        KILLED,
    ),
    Mutant(
        "sparse: settled sinks at the largest distance",
        MWD,
        "far = max(dist) + 1",
        "far = max(dist)",
        KILLED,
    ),
    Mutant(
        "sparse: sink potentials moved the wrong way",
        MWD,
        "pot_t[j] += dj - du",
        "pot_t[j] += du - dj",
        KILLED,
    ),
    Mutant(
        "sparse: the column reduction ships from the last least-cost source",
        MWD,
        "s = col.index(least)",
        "s = len(col) - 1 - col[::-1].index(least)",
        "another least-cost source ships first and the phases still end at an "
        "optimal plan of the same distance, which only the plan entries of "
        "tools/identity.py see",
    ),
    # mwd_exact around the engines.
    Mutant(
        "mwd_exact: the size rule takes the grid engine at the ratio",
        MWD,
        "dense = len(sup) * len(dem) > GRID_ENGINE_RATIO * len(pc)",
        "dense = len(sup) * len(dem) >= GRID_ENGINE_RATIO * len(pc)",
        KILLED,
    ),
    Mutant(
        "mwd_exact: no stay-put moves",
        MWD,
        "            moves.append(Move(c, c, k))\n",
        "            pass\n",
        KILLED,
    ),
    Mutant(
        "mwd_exact: the index tuple never grows",
        MWD,
        "if len(index) < len(pc):",
        "if not index:",
        KILLED,
    ),
    Mutant(
        "mwd_exact: cost precedence",
        MWD,
        "distance += amt * (abs(a[0] - b[0]) + abs(a[1] - b[1]))",
        "distance += amt * abs(a[0] - b[0]) + abs(a[1] - b[1])",
        KILLED,
    ),
    # qmwd.
    Mutant(
        "qmwd: no remainder hops",
        "src/gridemd/qmwd.py",
        "return work // row_length + work % row_length",
        "return work // row_length",
        KILLED,
    ),
    Mutant(
        "qmwd: the rotation reads the columns in order",
        "src/gridemd/qmwd.py",
        "prefix_work(chain.from_iterable(reversed(d_cols)))",
        "prefix_work(chain.from_iterable(d_cols))",
        KILLED,
    ),
    Mutant(
        "qmwd: the row estimate uses the column length",
        "src/gridemd/qmwd.py",
        "est_row = directional_estimate(wd_row, cols)",
        "est_row = directional_estimate(wd_row, p.rows)",
        KILLED,
    ),
    # wd1d.
    Mutant(
        "wd_1d: a heavier second vector passes",
        "src/gridemd/wd1d.py",
        "if ta != tb:",
        "if ta > tb:",
        KILLED,
    ),
    Mutant(
        "checked_prefix_work: no mass check",
        "src/gridemd/wd1d.py",
        "check_mass(p, q, acc[-1])",
        "check_mass(p, q, 0)",
        KILLED,
    ),
    # parse_grid.
    Mutant(
        "parse_grid: a leading or trailing comma passes",
        "src/gridemd/grid.py",
        'if "," in raw and "" in map(str.strip, raw.split(",")):',
        'if "," in raw and "" in map(str.strip, raw.split(",")[1:-1]):',
        KILLED,
    ),
    Mutant(
        "parse_grid: a line with a table miss keeps its first cells twice",
        "src/gridemd/grid.py",
        "            del flat[start:]\n",
        "            pass\n",
        KILLED,
    ),
    Mutant(
        "parse_grid: non-ASCII digits pass",
        "src/gridemd/grid.py",
        "if not (joined.isascii() and joined.isdigit()):",
        "if not joined.isdigit():",
        KILLED,
    ),
)


def pin_problems() -> list[str]:
    """One line per mutant whose ``old`` does not occur exactly once in its
    file, whose edit does not compile (the tests would kill it
    for nothing), or whose name is used twice."""
    problems = []
    names = [m.name for m in MUTANTS]
    for m in MUTANTS:
        if names.count(m.name) > 1:
            problems.append(f"{m.name}: name used {names.count(m.name)} times")
        text = (ROOT / m.file).read_text()
        count = text.count(m.old)
        if count != 1:
            problems.append(f"{m.name}: old string occurs {count} times in {m.file}")
            continue
        try:
            compile(text.replace(m.old, m.new), m.file, "exec")
        except SyntaxError as exc:
            problems.append(f"{m.name}: the edit does not compile: {exc}")
    return problems


def run_mutant(m: Mutant) -> tuple[str, float, str]:
    """``("killed" | "timeout" | "survived", seconds, the first failing
    test's line of the pytest summary, or "")`` for one mutant."""
    with tempfile.TemporaryDirectory(prefix="gridemd-mutant-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, work / name, ignore=ignore)
            else:
                shutil.copy2(src, work / name)
        target = work / m.file
        target.write_text(target.read_text().replace(m.old, m.new, 1))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        unit = sorted(f"tests/{t.name}" for t in (work / "tests").glob("test_*.py"))
        unit.remove(ACCEPTANCE)
        # tests/test_mutants.py checks the pins, which an applied edit breaks.
        unit.remove("tests/test_mutants.py")
        own = f"tests/test_{Path(m.file).stem}.py"
        unit.sort(key=lambda t: t != own)  # stable, so the rest keep name order
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
        cmd += [*unit, ACCEPTANCE]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timeout", time.perf_counter() - start, ""
        secs = time.perf_counter() - start
        if proc.returncode == 0:
            return "survived", secs, ""
        lines = proc.stdout.decode(errors="replace").splitlines()
        first = next((ln for ln in lines if ln.startswith(("FAILED", "ERROR"))), "")
        return KILLED, secs, first


def main() -> int:
    problems = pin_problems()
    for line in problems:
        print(f"PIN {line}")
    bad = bool(problems)
    counts: dict[str, int] = {}
    for m in MUTANTS:
        if (ROOT / m.file).read_text().count(m.old) != 1:
            continue
        outcome, secs, detail = run_mutant(m)
        counts[outcome] = counts.get(outcome, 0) + 1
        if m.expected == KILLED:
            verdict = {KILLED: "ok", "timeout": "unverified"}.get(outcome, "FAIL")
            bad |= outcome == "survived"
        else:
            verdict = "equivalent" if outcome == "survived" else "note: killed"
        print(f"{outcome:9} {verdict:12} {secs:6.1f} s  {m.name}", flush=True)
        for note in (detail, "" if m.expected == KILLED else m.expected):
            if note:
                print(f"{'':30}{note}")
    summary = ", ".join(f"{n} {k}" for k, n in sorted(counts.items()))
    print(f"{len(MUTANTS)} mutants: {summary}; {'FAIL' if bad else 'ok'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
