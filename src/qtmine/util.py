"""Small shared helpers: key=value logging, the input-file guard, the UTF-8
check, the atomic and JSON file writers, the CLI's allocator setting, and a
thread map no module uses.

Every loader parses its file inside `reading`, the one place that decides how
a bad input file is reported: a failure to read, decode or parse it is one
typed error, `{what} {path}: {reason}`, that names the file once, so loaders
raise bare reasons. `utf8` is the one check of outside text for lone surrogates.

Every output file (checkpoints, vocabularies, the loss curve, rankings,
analogy and k-shot reports, highlight HTML and the fc outputs) is written
through `write_atomic`, so a reader sees either the old file or the new one,
never a half-written one, and a write that fails ends in an `OutputError`
naming the file. `write_json` is the indented JSON form of it.

`keep_freed_memory` pins glibc's malloc thresholds for the CLI process, which
`cli.main` asks for first. Under glibc's defaults the megabyte-sized NumPy
temporaries that every forward and backward pass frees go back to the kernel:
a block above the mmap threshold is unmapped, and the top of the heap is
trimmed. The next step then faults the pages in afresh, zeroed by the kernel.
With the mmap threshold at 32 MiB and the trim threshold at 64 MiB, freed
blocks stay in the heap and the next step reuses them; up to 64 MiB of freed
memory stays mapped. Only the CLI sets them: importing `qtmine` as a library
leaves the allocator as it was.

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
import ctypes
import functools
import io
import json
import logging
import os
import secrets
import struct
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import DataFormatError, OutputError, QtmineError

T = TypeVar("T")
U = TypeVar("U")

_LOG_FORMAT = "%(levelname)s %(message)s"

# glibc's mallopt parameters, and its 64-bit maximum mmap threshold.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 << 20


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


@contextlib.contextmanager
def reading(path: str | Path, what: str, error: type[QtmineError] = DataFormatError,
            errors: str | None = "strict") -> Iterator[str | bytes]:
    """Yield the text of the input file `path`, UTF-8 without a leading
    byte-order mark, and report any failure to read or parse it as `error`.

    A file that cannot be read is `cannot read {what} {path}: {reason}`, one
    that is not UTF-8 `{what} {path} is not valid UTF-8 at byte N` (counted
    from the start of the file), and a parse error the `with` body raises
    `{what} {path}: {reason}`. errors="surrogateescape" turns each undecodable
    byte into a lone surrogate, for a caller that judges the text line by
    line; errors=None yields the bytes undecoded.
    """
    try:
        data = Path(path).read_bytes()
        if errors is not None:
            data = data.decode("utf-8", errors=errors).removeprefix("\ufeff")
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not valid UTF-8 at byte {exc.start}") from None
    # Parse errors: a bad JSON, number or base64 value, a missing key, a wrong
    # type, deep nesting, a bad CSV row or binary header, or a loader's own rule.
    try:
        yield data
    except (ValueError, KeyError, TypeError, RecursionError, csv.Error, struct.error,
            QtmineError) as exc:
        raise error(f"{what} {path}: {exc}") from exc


def utf8(text: str, what: str = "text") -> bytes:
    """The UTF-8 bytes of `text` from outside the program; a lone surrogate, from
    an undecodable byte or a `\\ud800` JSON escape, is a DataFormatError."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise DataFormatError(f"{what} is not valid UTF-8: lone surrogate "
                              f"{text[exc.start]!r} at character {exc.start}") from None


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


def write_json(path: str | Path, obj) -> None:
    """`obj` as JSON indented by two spaces, non-ASCII escaped, through `write_atomic`."""
    write_atomic(path, json.dumps(obj, indent=2).encode("utf-8"))


def csv_bytes(rows) -> bytes:
    """`rows` as CSV (the csv module's default dialect, CRLF line ends), UTF-8 encoded."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode("utf-8")


@functools.cache
def keep_freed_memory() -> str:
    """Keep the memory this process frees mapped for reuse; returns "pinned"
    or "unavailable".

    Sets glibc's mmap threshold to its maximum, 32 MiB, and then its trim
    threshold to twice that, as glibc's own dynamic rule would. Both are set:
    either alone switches off glibc's dynamic threshold and is slower than the
    default. Where the C library has no `mallopt` (macOS, Windows), or it
    refuses a value (musl's stub returns 0), nothing else changes and the
    result is "unavailable". Runs once per process; outputs do not depend on it.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return "unavailable"
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX) == 1
            and mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX) == 1):
        return "pinned"
    return "unavailable"


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
