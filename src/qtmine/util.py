"""Small shared helpers: key=value logging, the data-file reader, the atomic
file writer, and a thread map no module uses.

Every loader reads its file through `read_text`, so a missing, unreadable or
non-UTF-8 file ends in a `DataFormatError` rather than an `OSError` or
`UnicodeDecodeError`. Every output file (checkpoints, vocabularies, the loss
curve, rankings, analogy and k-shot reports, highlight HTML and the fc
outputs) is written through `write_atomic`, so a reader sees either the old
file or the new one, never a half-written one, and a write that fails ends in
an `OutputError` naming the file.

Scoring runs as batched matrix work (`model.predict_masked`), which BLAS
already parallelises, so no part of the program calls `pmap` or reads
QTMINE_THREADS. Both `pmap` and `max_workers` remain only because the
benchmark harness names them: `perfbench/run.py` imports `max_workers` for its
environment record, and `perfbench/spans.py` rebinds `pmap` when tracing.
Delete them together with those references in a change to the benchmark.
"""

from __future__ import annotations

import contextlib
import csv
import io
import logging
import os
import secrets
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import DataFormatError, OutputError, QtmineError

T = TypeVar("T")
U = TypeVar("U")

_LOG_FORMAT = "%(levelname)s %(message)s"


def get_logger(name: str = "qtmine") -> logging.Logger:
    return logging.getLogger(name)


class _StderrHandler(logging.StreamHandler):
    """A StreamHandler that writes to whatever `sys.stderr` is when it emits,
    so a caller that swaps standard error, and closes the old one, still gets
    every line."""

    def __init__(self):
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


def setup_logging() -> None:
    """Route log lines of level INFO and above as `LEVEL key=value ...` to standard error."""
    handler = _StderrHandler()
    handler.setFormatter(logging.Formatter(_LOG_FORMAT))
    root = logging.getLogger("qtmine")
    root.handlers[:] = [handler]
    root.setLevel(logging.INFO)
    root.propagate = False


def kv(**fields) -> str:
    """Render fields as a `key=value` log message, floats at 6 significant digits."""
    parts = []
    for key, value in fields.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:.6g}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def read_text(path: str | Path, what: str, errors: str = "strict") -> str:
    """The UTF-8 text of a data file; failing to read or decode it is a DataFormatError.

    `what` names the file in the message. With errors="surrogateescape" each
    undecodable byte becomes a lone surrogate, for a caller that judges the
    text line by line.
    """
    try:
        return Path(path).read_bytes().decode("utf-8", errors=errors)
    except OSError as exc:
        raise DataFormatError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{what} {path} is not valid UTF-8 at byte {exc.start}") from None


def write_atomic(path: str | Path, data: bytes) -> None:
    """Replace `path` with `data` in one step.

    The bytes go to a temporary file in the same directory, which then
    replaces `path` through `os.replace`; if writing or replacing fails, the
    temporary file is removed and `path` is left as it was, and an OSError
    (a missing directory, a full disk) becomes an `OutputError` naming `path`.
    This guards against an interrupted or failing process, not against power
    loss: the data is not fsynced.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from None
        raise


def csv_bytes(rows) -> bytes:
    """`rows` as CSV (the csv module's default dialect, CRLF line ends), UTF-8 encoded."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode("utf-8")


def max_workers() -> int:
    """Parallelism cap: QTMINE_THREADS if set, else the number of available cores.

    Unused by the program; kept for `perfbench/run.py` (see the module docstring).
    """
    env = os.environ.get("QTMINE_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise QtmineError(f"QTMINE_THREADS must be an integer, got {env!r}") from None
        if n < 1:
            raise QtmineError(f"QTMINE_THREADS must be >= 1, got {n}")
        return n
    return os.cpu_count() or 1


def pmap(fn: Callable[[T], U], items: Sequence[T] | Iterable[T]) -> list[U]:
    """Map fn over items, preserving input order.

    Uses a thread pool capped by max_workers(); results are ordered by input
    position, so callers stay deterministic regardless of scheduling. Unused by
    the program; kept for `perfbench/spans.py` (see the module docstring).
    """
    items = list(items)
    workers = min(max_workers(), max(1, len(items)))
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
