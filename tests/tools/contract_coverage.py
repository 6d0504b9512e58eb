#!/usr/bin/env python3
"""Audit by execution: which functions does the behavioural contract enter?

    python tests/tools/contract_coverage.py              # contract only
    python tests/tools/contract_coverage.py --with-tests # + tier-1
    python tests/tools/contract_coverage.py --check      # CI: diff, exit 1

Runs the commands that *are* the repository's contract — the wallclock
goldens, muxbench's smoke, the crash explorer, the paper tables, every
example, ``bench trace`` with and without faults and the profile smokes — each as a
subprocess with ``tests/tools/covhook`` on ``PYTHONPATH``, so a
``sitecustomize`` line tracer (``sys.settrace`` + ``threading.settrace``)
rides along in every interpreter they start.  The per-pid dumps are
merged and every function under ``src/repro`` that no run entered is
written, one ``module:qualname`` a line, sorted, to

* ``tests/tools/contract_unreached.txt`` — no contract command enters it:
  dead, unit-test-only behaviour, or a fault path no golden drives;
* ``tests/tools/unreached_by_anything.txt`` (``--with-tests``) — nor does
  any tier-1 test: the deletion candidates.

No line numbers, so unrelated edits do not churn the files.  ``--check``
regenerates the first list and fails on any difference from the
checked-in one: a change that adds a function the contract never enters
(or makes the contract stop entering one) has to say so in its diff.

Stdlib only; lives outside ``src/`` and outside tier-1 (pytest collects
``test_*.py``/``bench_*.py`` only).  Expect ~4x the untraced run time.
"""

from __future__ import annotations

import argparse
import ast
import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

#: a function as the tracer and the AST both name it: (file under src/repro, qualname)
Name = Tuple[str, str]

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
ROOT = SRC / "repro"
CONTRACT_LIST = HERE / "contract_unreached.txt"
ANYTHING_LIST = HERE / "unreached_by_anything.txt"

PY = sys.executable
BENCH = [PY, "-m", "repro.bench"]


def contract_commands() -> List[List[str]]:
    """The behavioural contract, as CI runs it (smoke sizes)."""
    commands = [
        BENCH + ["wallclock", "--smoke"],
        [PY, "muxbench/run.py", "--smoke"],
        BENCH + ["crashexplore", "--smoke"],
        BENCH,  # the paper tables
        BENCH + ["trace"],
        BENCH + ["trace", "--no-faults"],
        BENCH + ["profile", "mirror_trace_duel", "--smoke"],
        BENCH + ["profile", "cluster_scaleout", "--smoke"],
        BENCH + ["profile", "parallel_stripe", "--smoke"],
    ]
    commands += [[PY, str(p.relative_to(REPO))] for p in sorted((REPO / "examples").glob("*.py"))]
    return commands


TIER1 = [PY, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]


def run_traced(commands: List[List[str]], out_dir: Path) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE / "covhook"), str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env["CONTRACT_COVERAGE_OUT"] = str(out_dir)
    env["CONTRACT_COVERAGE_ROOT"] = str(ROOT) + os.sep
    for command in commands:
        shown = " ".join(command[1:])
        print(f"  traced: python {shown}", flush=True)
        done = subprocess.run(
            command, cwd=REPO, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        if done.returncode:
            sys.stderr.write(done.stderr[-2000:])
            raise SystemExit(f"contract command failed ({done.returncode}): python {shown}")


def merge_dumps(out_dir: Path) -> Tuple[Set[Name], int, int]:
    """-> the ``(file, qualname)`` names some process entered, and over
    those code objects how many lines there are and how many no run saw."""
    all_lines: Dict[tuple, int] = {}
    unseen: Dict[tuple, Set[int]] = {}
    for dump in sorted(out_dir.glob("*.json")):
        for file, qualname, first, lines, missed in json.loads(dump.read_text()):
            key = (file, qualname, first)
            all_lines[key] = len(lines)
            unseen[key] = unseen[key] & set(missed) if key in unseen else set(missed)
    entered = {(file, qualname) for file, qualname, _ in unseen}
    return entered, sum(all_lines.values()), sum(len(v) for v in unseen.values())


def defined_functions() -> Iterator[Name]:
    """``(file, qualname)`` for every ``def`` under src/repro, nested ones
    included, named the way ``code.co_qualname`` names them."""

    def walk(node: ast.AST, prefix: str, file: str) -> Iterator[Name]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield file, prefix + child.name
                yield from walk(child, prefix + child.name + ".<locals>.", file)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".", file)
            else:
                yield from walk(child, prefix, file)

    for path in sorted(ROOT.rglob("*.py")):
        file = path.relative_to(ROOT).as_posix()
        yield from walk(ast.parse(path.read_text()), "", file)


def module_of(file: str) -> str:
    parts = ["repro"] + file[: -len(".py")].split("/")
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def report(label: str, defined: Set[Name], out_dir: Path) -> str:
    """Merge the dumps so far; print the totals; -> the unreached list as
    file content (one ``module:qualname`` a line, sorted)."""
    entered, lines, missed = merge_dumps(out_dir)
    names = sorted({f"{module_of(f)}:{q}" for f, q in defined - entered})
    print(
        f"{label}: {len(names)} of {len(defined)} functions never entered; inside "
        f"the entered ones {missed} of {lines} lines never ran"
    )
    return "".join(name + "\n" for name in names)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--with-tests", action="store_true", help="also run tier-1 and write unreached_by_anything.txt")
    mode.add_argument("--check", action="store_true", help="regenerate the contract list and fail on a diff")
    args = parser.parse_args(argv)

    defined = set(defined_functions())
    with tempfile.TemporaryDirectory(prefix="contract-cov-") as tmp:
        out_dir = Path(tmp)
        print("contract_coverage: running the contract under the line tracer")
        run_traced(contract_commands(), out_dir)
        contract = report("contract", defined, out_dir)
        if args.check:
            recorded = CONTRACT_LIST.read_text() if CONTRACT_LIST.exists() else ""
            diff = list(
                difflib.unified_diff(
                    recorded.splitlines(), contract.splitlines(),
                    "checked in", "this tree", lineterm="", n=0,
                )
            )
            if diff:
                print("\n".join(diff))
                print(
                    f"contract_coverage: {CONTRACT_LIST.relative_to(REPO)} is stale — "
                    "rerun this tool and commit the result (a '+' line is a "
                    "function the contract never enters)"
                )
                return 1
            print("contract_coverage: checked-in list matches")
            return 0
        CONTRACT_LIST.write_text(contract)
        print(f"wrote {CONTRACT_LIST.relative_to(REPO)}")
        if args.with_tests:
            print("contract_coverage: running tier-1 under the line tracer")
            run_traced([TIER1], out_dir)
            ANYTHING_LIST.write_text(report("contract + tier-1", defined, out_dir))
            print(f"wrote {ANYTHING_LIST.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
