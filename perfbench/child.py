#!/usr/bin/env python3
"""Run CLI requests in a fresh process: the program's cold start.

    python3 perfbench/child.py '[["--config", "run.json", "train-tokenizer", ...], ...]'

The argument is a JSON list of argument lists, each passed in turn to
`qtmine.cli.main`, imported from the checkout's `src/`. The program's own
output is discarded. The last line of standard output is a JSON list with
`[exit code, seconds]` per request; the exit code is 0 only if every request
exited 0. The workloads time this process as their set-up, so the figure
includes the interpreter's start, the imports and the requests.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    sys.path.insert(0, str(SRC))
    from qtmine import cli

    replies = []
    for argv in json.loads(sys.argv[1]):
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        replies.append([code, perf_counter() - t0])
    print(json.dumps(replies))
    return 0 if all(code == 0 for code, _ in replies) else 1


if __name__ == "__main__":
    sys.exit(main())
