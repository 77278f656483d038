"""Run named tests N times and count how often each one passes.

    python scripts/flake_hunt.py -n 50 tests/test_jsonwire.py -- --hypothesis-profile=deep
    python scripts/flake_hunt.py -n 20 tests/test_overload.py::TestFlashCrowd

Each run is a fresh ``python -m pytest -rf`` with ``-c pyproject.toml
--rootdir`` at the repo root, started in a new empty working directory, so
hypothesis's ``.hypothesis/`` example database is new every run and a
falsifying example is found by the search, not replayed.  Arguments after
``--`` go to every run.  Each run keeps its output (``run-NNN.txt``, with
the ``-rf`` summary and any falsifying example) and its junit XML
(``run-NNN.xml``) under ``--out`` (default: a new temporary directory).

Prints one line per run, then the pass count of every test id that did not
pass every run, and of the rest together.  Exits non-zero when any run
failed.
"""

from __future__ import annotations

import argparse
import collections
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ElementTree
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def absolute(test: str) -> str:
    """``test`` (a path, maybe with ``::`` parts) with its path taken from the repo root."""
    path, sep, rest = test.partition("::")
    return str(REPO_ROOT / path) + sep + rest


def outcomes(junit: Path):
    """Each test id in one junit file and whether it passed (a skip is not counted)."""
    for case in ElementTree.parse(junit).iter("testcase"):
        if case.find("skipped") is None:
            name = f"{case.get('classname')}::{case.get('name')}"
            yield name, case.find("failure") is None and case.find("error") is None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tests", nargs="+", help="test paths or node ids, from the repo root")
    parser.add_argument("-n", "--runs", type=int, default=20)
    parser.add_argument("--out", type=Path, help="where each run's output and junit XML go")
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args, extra = parser.parse_args(argv[:split]), argv[split + 1:]
    out = args.out or Path(tempfile.mkdtemp(prefix="flake_hunt-"))
    out.mkdir(parents=True, exist_ok=True)
    passes, seen = collections.Counter(), collections.Counter()
    failed_runs = 0
    for run in range(1, args.runs + 1):
        log, junit = out / f"run-{run:03d}.txt", out / f"run-{run:03d}.xml"
        command = [
            sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
            "-c", str(REPO_ROOT / "pyproject.toml"), "--rootdir", str(REPO_ROOT),
            f"--junitxml={junit}", *extra, *map(absolute, args.tests),
        ]
        with tempfile.TemporaryDirectory(prefix="flake_hunt-run-") as cwd, log.open("w") as f:
            code = subprocess.run(command, cwd=cwd, stdout=f, stderr=subprocess.STDOUT).returncode
        results = dict(outcomes(junit)) if junit.exists() else {}
        for name, ok in results.items():
            seen[name] += 1
            passes[name] += ok
        failed = sorted(name for name, ok in results.items() if not ok)
        failed_runs += code != 0
        print(f"run {run}: exit {code}, {len(results) - len(failed)} passed, "
              f"{len(failed)} failed -> {log}", flush=True)
        for name in failed:
            print(f"    FAILED {name}")
    flaky = sorted(name for name in seen if passes[name] < args.runs)
    for name in flaky:
        print(f"{passes[name]:4d} of {args.runs} {name}")
    steady = len(seen) - len(flaky)
    print(f"{steady} test ids passed {args.runs} of {args.runs} runs; "
          f"{len(flaky)} did not; {failed_runs} of {args.runs} runs failed (outputs in {out})")
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
