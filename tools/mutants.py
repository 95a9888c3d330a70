"""Check that each mutant in the table below is caught by its tests.

Each entry names a file, an exact snippet of it, the snippet's
replacement, and the tests that must fail once the snippet is replaced.
The tool first runs every named test on an unmutated copy of the tree.
Then, for each entry, it copies src/, tests/ and pyproject.toml to a
fresh temporary directory, applies the edit there and runs the entry's
tests. It exits non-zero if a snippet does not occur exactly once (the
mutant is stale and must be updated), if a named test passes on its
mutant, or if a named test fails on the unmutated tree.

    python tools/mutants.py

A gate that names a mutant adds an entry here, with tests narrow enough
to keep the whole run within about two minutes.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file, snippet, replacement, tests that must fail)
MUTANTS = [
    ("oracle walk steps to the lesser of two neighbours",
     "src/burling/oracle.py",
     "        if step & (step - 1):\n            return None\n",
     "        if step & (step - 1):\n            step &= -step\n",
     ["tests/test_oracle.py::test_witnesses_pinned",
      "tests/test_oracle.py::test_oracle_witnesses_validate"]),
    ("oracle theta walk need not end beside b",
     "src/burling/oracle.py",
     "if seq is None or not adj[seq[-1]] >> b & 1:",
     "if seq is None:",
     ["tests/test_oracle.py::test_witnesses_pinned"]),
    ("oracle path walk need not cover its mask",
     "src/burling/oracle.py",
     "            if order is None or len(order) != mask.bit_count():",
     "            if order is None:",
     ["tests/test_oracle.py::test_witnesses_pinned",
      "tests/test_oracle.py::test_oracle_witnesses_validate"]),
    ("record equality ignores the class",
     "src/burling/graph.py",
     "if other.__class__ is self.__class__:",
     "if isinstance(other, _Record):",
     ["tests/test_records.py::test_record_contract"]),
    ("record without __reduce__",
     "src/burling/graph.py",
     "    def __reduce__(self):\n",
     "    def _unused_reduce(self):\n",
     ["tests/test_records.py::test_record_contract"]),
    ("record without __delattr__",
     "src/burling/graph.py",
     "    def __delattr__(self, name):\n",
     "    def _unused_delattr(self, name):\n",
     ["tests/test_records.py::test_record_contract"]),
    ("validator cycle without its ends-adjacent test",
     "src/burling/witness.py",
     "g.is_induced_path(cyc[1:])\n            and bool(g.adj[cyc[0]] >> cyc[-1] & 1))",
     "g.is_induced_path(cyc[1:]))",
     ["tests/test_witness.py::test_triangle",
      "tests/test_witness.py::test_hole_needs_chordless_cycle",
      "tests/test_witness.py::test_verdicts_pinned"]),
    ("validator compares hits by count",
     "src/burling/witness.py",
     "if hits != set(w.hits) or",
     "if len(hits) != len(set(w.hits)) or",
     ["tests/test_witness.py::test_wheel",
      "tests/test_witness.py::test_fan",
      "tests/test_witness.py::test_verdicts_pinned"]),
    ("validator guarded fan without tip ends",
     "src/burling/witness.py",
     'return kind != "guarded-fan" or order[0] in tips and order[-1] in tips',
     "return True",
     ["tests/test_witness.py::test_guarded_fan_needs_tip_endpoints",
      "tests/test_witness.py::test_verdicts_pinned"]),
]


def copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest)


def run_tests(tree: Path, tests: list[str]) -> tuple[int, set[str]]:
    """pytest's exit code, and the ids of the tests (one per parameter
    set) that failed or errored."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE",
         "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True)
    return run.returncode, {line.split()[1] for line in run.stdout.splitlines()
                            if line.startswith(("FAILED ", "ERROR "))}


def caught(test: str, failed: set[str]) -> bool:
    return any(f == test or f.startswith(test + "[") for f in failed)


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp, "base")
        copy_tree(base)
        named = sorted({t for *_, tests in MUTANTS for t in tests})
        code, failed = run_tests(base, named)
        if code:
            problems.append(f"unmutated: pytest exits {code}, failing "
                            f"{sorted(failed) or 'no named test'}")
        for i, (name, file, old, new, tests) in enumerate(MUTANTS):
            t0 = time.perf_counter()
            tree = Path(tmp, str(i))
            copy_tree(tree)
            path = tree / file
            text = path.read_text()
            if text.count(old) != 1:
                problems.append(f"{name}: snippet occurs {text.count(old)} "
                                f"times in {file}")
                continue
            path.write_text(text.replace(old, new))
            _, failed = run_tests(tree, tests)
            missed = [t for t in tests if not caught(t, failed)]
            problems += [f"{name}: {t} passes" for t in missed]
            print(f"{name}: {len(tests) - len(missed)} of {len(tests)} "
                  f"tests fail ({time.perf_counter() - t0:.1f} s)")
    for p in problems:
        print(f"MUTANT CHECK FAILED: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
