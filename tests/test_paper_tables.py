"""The paper tables (§3) are pinned byte for byte.

``python -m repro.bench --fast`` prints every paper-vs-measured table:
the Fig. 3a migration matrix, the Fig. 3b device I/O speedups and the
§3.2 read-latency and write-throughput overheads.  Every number in them
is simulated, so the text is machine-independent, and
``tests/data/paper_tables_fast.txt`` holds it exactly as printed.  Any
diff means a change moved a §3 magnitude: a regression unless the change
means to move it, in which case regenerate the file with
``PYTHONPATH=src python -m repro.bench --fast > tests/data/paper_tables_fast.txt``
and say why in CHANGES.md.
"""

from pathlib import Path

from repro.bench.experiments import run_all

PINNED = Path(__file__).resolve().parent / "data" / "paper_tables_fast.txt"


def test_fast_paper_tables_match_the_pinned_text():
    assert run_all(fast=True) + "\n" == PINNED.read_text()
