"""Line tracer injected by ``tests/tools/contract_coverage.py``.

Python imports a module named ``sitecustomize`` at start-up if one is on
``sys.path``; the coverage tool puts this directory on ``PYTHONPATH`` of
every contract command, so the interpreter — and every interpreter it
spawns — traces itself without the command knowing.  Inert unless
``CONTRACT_COVERAGE_OUT`` (dump directory) and ``CONTRACT_COVERAGE_ROOT``
(the source tree to watch) are set.

Per code object under the root the hook keeps the set of lines not seen
yet (from ``co_lines()``) and stops tracing a function's calls once that
set is empty, so hot, fully covered functions stop paying.  At exit each
process dumps ``<out>/<pid>.json``:
``[[file, qualname, firstlineno, all_lines, unseen_lines], ...]`` for
every code object that was entered.
"""

import atexit
import json
import os
import sys
import threading

_OUT = os.environ.get("CONTRACT_COVERAGE_OUT")
_ROOT = os.environ.get("CONTRACT_COVERAGE_ROOT")

if _OUT and _ROOT:
    #: code object -> lines not yet seen; () for code outside the root
    _unseen = {}
    #: code object -> every line it has (kept for the line totals)
    _all = {}

    def _local(frame, event, arg):
        if event == "line":
            _unseen[frame.f_code].discard(frame.f_lineno)
        return _local

    def _call(frame, event, arg):
        code = frame.f_code
        lines = _unseen.get(code)
        if lines is None:
            if code.co_filename.startswith(_ROOT):
                lines = {ln for _, _, ln in code.co_lines() if ln is not None}
                lines.discard(code.co_firstlineno)  # the ``def`` line itself
                _all[code] = sorted(lines)
            else:
                lines = ()
            _unseen[code] = lines
        return _local if lines else None

    def _dump():
        sys.settrace(None)
        threading.settrace(None)
        rows = [
            [
                os.path.relpath(code.co_filename, _ROOT),
                code.co_qualname,
                code.co_firstlineno,
                _all[code],
                sorted(lines),
            ]
            for code, lines in list(_unseen.items())
            if code in _all
        ]
        with open(os.path.join(_OUT, f"{os.getpid()}.json"), "w") as fh:
            json.dump(rows, fh)

    atexit.register(_dump)
    threading.settrace(_call)
    sys.settrace(_call)
