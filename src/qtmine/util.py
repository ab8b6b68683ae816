"""Small shared helpers: key=value logging and a bounded parallel map."""

from __future__ import annotations

import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import QtmineError

T = TypeVar("T")
U = TypeVar("U")

_LOG_FORMAT = "%(levelname)s %(message)s"


def get_logger(name: str = "qtmine") -> logging.Logger:
    return logging.getLogger(name)


def setup_logging(level: int = logging.INFO) -> None:
    """Route log lines as `LEVEL key=value ...` to standard error."""
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter(_LOG_FORMAT))
    root = logging.getLogger("qtmine")
    root.handlers[:] = [handler]
    root.setLevel(level)
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


def max_workers() -> int:
    """Parallelism cap: QTMINE_THREADS if set, else the number of available cores."""
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
    position, so callers stay deterministic regardless of scheduling.
    """
    items = list(items)
    workers = min(max_workers(), max(1, len(items)))
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
