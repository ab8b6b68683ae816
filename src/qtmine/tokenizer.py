"""Byte-level byte-pair-encoding tokenizer.

Token ids are laid out densely: ids 0..255 are the single bytes, followed by
the special tokens, followed by merge outputs in the order they were learned.
There is no pre-tokenizer; merges are learned and applied directly on the raw
byte stream of each document, so encode/decode is lossless for any UTF-8 text.

Training and encoding share one structure: the bytes as a doubly linked list
plus a lazy heap of candidate pairs. `encode` is an O(n log n) heap merge whose
output equals applying the merges one rank at a time; the quadratic reference
implementations in the test suite check both paths.
"""

from __future__ import annotations

import base64
import heapq
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataFormatError
from .util import get_logger, kv, read_text, write_atomic

log = get_logger(__name__)

N_BYTES = 256
SPECIAL_NAMES = ("mask", "pad", "bos", "eos", "unk")
SPECIAL_MARKERS = {name: f"<{name}>".encode("ascii") for name in SPECIAL_NAMES}
# Fewest occurrences of an adjacent pair for `train_bpe` to merge it.
MIN_PAIR_COUNT = 2

TokenSeq = list[int]


@dataclass
class Vocab:
    """A trained BPE vocabulary: byte table, ordered merges, special ids."""

    tokens: list[bytes]
    merges: list[tuple[int, int]]
    special: dict[str, int]

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def mask_id(self) -> int:
        return self.special["mask"]

    @property
    def pad_id(self) -> int:
        return self.special["pad"]

    @property
    def bos_id(self) -> int:
        return self.special["bos"]

    @property
    def eos_id(self) -> int:
        return self.special["eos"]

    @property
    def unk_id(self) -> int:
        return self.special["unk"]

    @cached_property
    def special_ids(self) -> frozenset[int]:
        return frozenset(self.special.values())

    @cached_property
    def is_special(self) -> np.ndarray:
        """Boolean lookup over token ids: True at the special ids."""
        table = np.zeros(self.size, dtype=bool)
        table[list(self.special.values())] = True
        return table

    @cached_property
    def non_special_ids(self) -> np.ndarray:
        """Every non-special token id, ascending."""
        return np.flatnonzero(~self.is_special)

    @cached_property
    def merge_rank(self) -> dict[tuple[int, int], int]:
        """Merge pair -> its rank (the order it was learned in)."""
        return {pair: i for i, pair in enumerate(self.merges)}

    def token_text(self, token_id: int) -> str:
        """Human-readable form of one token (special markers render literally)."""
        return self.tokens[token_id].decode("utf-8", errors="replace")

    def validate(self) -> None:
        if len(self.tokens) < N_BYTES + len(SPECIAL_NAMES):
            raise DataFormatError(f"vocab too small: {len(self.tokens)} tokens")
        for b in range(N_BYTES):
            if self.tokens[b] != bytes([b]):
                raise DataFormatError(f"byte token {b} missing or misplaced")
        ids = sorted(self.special.values())
        if len(set(ids)) != len(SPECIAL_NAMES) or set(self.special) != set(SPECIAL_NAMES):
            raise DataFormatError("special ids must be mutually distinct and complete")
        for sid in ids:
            if not 0 <= sid < len(self.tokens):
                raise DataFormatError(f"special id {sid} out of range")
        first_merged = N_BYTES + len(SPECIAL_NAMES)
        for i, (a, b) in enumerate(self.merges):
            out = first_merged + i
            if out >= len(self.tokens):
                raise DataFormatError(f"merge {i} output id {out} missing from table")
            if a >= out or b >= out:
                raise DataFormatError(f"merge {i} refers to a later token ({a},{b})")
            if a in self.special_ids or b in self.special_ids:
                raise DataFormatError(f"merge {i} involves a special token")
            if self.tokens[out] != self.tokens[a] + self.tokens[b]:
                raise DataFormatError(f"merge {i} output bytes inconsistent")


def _empty_vocab() -> Vocab:
    tokens = [bytes([b]) for b in range(N_BYTES)]
    special = {}
    for name in SPECIAL_NAMES:
        special[name] = len(tokens)
        tokens.append(SPECIAL_MARKERS[name])
    return Vocab(tokens=tokens, merges=[], special=special)


def train_bpe(texts: Sequence[str], vocab_size: int) -> Vocab:
    """Learn BPE merges by greedy highest-frequency pair merging.

    Merging stops when `vocab_size` tokens exist or no adjacent pair occurs at
    least MIN_PAIR_COUNT times. Frequency ties break by the lexicographic
    byte order of the merged pair (then of the left token), so retraining on
    identical input is byte-identical. Pairs never span document boundaries.
    """
    vocab = _empty_vocab()
    n_base = vocab.size
    if vocab_size <= n_base:
        raise DataFormatError(
            f"vocab_size must exceed {n_base} (256 bytes + {len(SPECIAL_NAMES)} specials), got {vocab_size}"
        )

    # Flat corpus as a doubly linked list; links never cross document bounds.
    ids: list[int] = []
    nxt: list[int] = []
    prv: list[int] = []
    for text in texts:
        data = text.encode("utf-8")
        if not data:
            continue
        start = len(ids)
        ids.extend(data)
        end = len(ids)
        for i in range(start, end):
            prv.append(i - 1 if i > start else -1)
            nxt.append(i + 1 if i < end - 1 else -1)
    if not ids:
        raise DataFormatError("cannot train BPE on an empty corpus")

    tokens = vocab.tokens
    counts: dict[tuple[int, int], int] = {}
    occ: dict[tuple[int, int], list[int]] = {}
    for i in range(len(ids)):
        j = nxt[i]
        if j != -1:
            pair = (ids[i], ids[j])
            counts[pair] = counts.get(pair, 0) + 1
            occ.setdefault(pair, []).append(i)

    # Lazy max-heap keyed by (-count, merged bytes, left bytes); stale entries
    # are skipped when their recorded count no longer matches.
    heap: list[tuple[int, bytes, bytes, tuple[int, int]]] = []

    def push(pair: tuple[int, int]) -> None:
        c = counts.get(pair, 0)
        if c >= MIN_PAIR_COUNT:
            a, b = pair
            heapq.heappush(heap, (-c, tokens[a] + tokens[b], tokens[a], pair))

    # Pairs whose count changed during the current merge's sweep; each is
    # pushed once, with its final count, when the sweep ends.
    touched: set[tuple[int, int]] = set()

    def bump(pair: tuple[int, int], delta: int, left_pos: int | None = None) -> None:
        c = counts.get(pair, 0) + delta
        if c <= 0:
            counts.pop(pair, None)
        else:
            counts[pair] = c
        if delta > 0 and left_pos is not None:
            occ.setdefault(pair, []).append(left_pos)
        touched.add(pair)

    for pair in counts:
        push(pair)

    while len(tokens) < vocab_size and heap:
        negc, _, _, pair = heapq.heappop(heap)
        if counts.get(pair, 0) != -negc:
            continue
        a, b = pair
        new_id = len(tokens)
        tokens.append(tokens[a] + tokens[b])
        vocab.merges.append(pair)

        # Occurrence lists may hold stale or duplicate positions; validation
        # against the live linked list filters them. Ascending order gives the
        # same greedy left-to-right semantics as encode() ("aaa" -> [aa, a]).
        positions = sorted(set(occ.pop(pair, ())))
        for i in positions:
            if ids[i] != a:
                continue
            j = nxt[i]
            if j == -1 or ids[j] != b:
                continue
            p, n = prv[i], nxt[j]
            if p != -1:
                bump((ids[p], a), -1)
            if n != -1:
                bump((b, ids[n]), -1)
            ids[i] = new_id
            ids[j] = -1
            nxt[i] = n
            if n != -1:
                prv[n] = i
            if p != -1:
                bump((ids[p], new_id), +1, p)
            if n != -1:
                bump((new_id, ids[n]), +1, i)
        counts.pop(pair, None)
        for t in touched:
            push(t)
        touched.clear()

    log.info(kv(event="bpe_trained", vocab_size=len(tokens), merges=len(vocab.merges)))
    return vocab


def encode(vocab: Vocab, text: str) -> TokenSeq:
    """Tokenize text by applying the learned merges in order to its byte stream.

    The bytes form a doubly linked list and every adjacent pair with a merge
    rank sits in a min-heap keyed by (rank, left position), so each merge
    costs O(log n). Equal-rank occurrences pop in ascending position, which is
    the greedy left-to-right rule ("aaa" -> [aa, a]), and a pair containing a
    newly merged token always ranks after that token, so the result equals
    applying the merges one rank at a time over the whole sequence.

    Special ids are never produced from raw text; the 256 byte tokens guarantee
    coverage of any UTF-8 input.
    """
    ids: list[int] = list(text.encode("utf-8"))
    n = len(ids)
    if n < 2:
        return ids
    rank = vocab.merge_rank
    first_merged = N_BYTES + len(SPECIAL_NAMES)
    nxt = list(range(1, n + 1))
    nxt[-1] = -1
    prv = list(range(-1, n - 1))
    heap = [(r, i) for i in range(n - 1) if (r := rank.get((ids[i], ids[i + 1]))) is not None]
    heapq.heapify(heap)
    while heap:
        r, i = heapq.heappop(heap)
        a = ids[i]
        j = nxt[i]
        # Skip stale entries: the left node was absorbed, or its pair changed.
        if a == -1 or j == -1 or rank.get((a, ids[j])) != r:
            continue
        new_id = first_merged + r
        ids[i] = new_id
        ids[j] = -1
        k = nxt[j]
        nxt[i] = k
        if k != -1:
            prv[k] = i
            rk = rank.get((new_id, ids[k]))
            if rk is not None:
                heapq.heappush(heap, (rk, i))
        p = prv[i]
        if p != -1:
            rp = rank.get((ids[p], new_id))
            if rp is not None:
                heapq.heappush(heap, (rp, p))
    out: list[int] = []
    i = 0
    while i != -1:
        out.append(ids[i])
        i = nxt[i]
    return out


def decode(vocab: Vocab, seq: TokenSeq) -> str:
    """Concatenate token byte-strings; special tokens render as their markers."""
    chunks = []
    for tid in seq:
        if not 0 <= tid < vocab.size:
            raise DataFormatError(f"token id {tid} out of range for vocab of size {vocab.size}")
        chunks.append(vocab.tokens[tid])
    return b"".join(chunks).decode("utf-8", errors="replace")


def _token_to_json(b: bytes):
    try:
        s = b.decode("utf-8")
    except UnicodeDecodeError:
        return {"b64": base64.b64encode(b).decode("ascii")}
    if s.encode("utf-8") == b and all(ch.isprintable() or ch == " " for ch in s):
        return s
    return {"b64": base64.b64encode(b).decode("ascii")}


def _token_from_json(entry) -> bytes:
    if isinstance(entry, str):
        return entry.encode("utf-8")
    if isinstance(entry, dict) and "b64" in entry:
        return base64.b64decode(entry["b64"])
    raise DataFormatError(f"unrecognized token entry {entry!r}")


def save_vocab(vocab: Vocab, path: str | Path) -> None:
    doc = {
        "tokens": [_token_to_json(t) for t in vocab.tokens],
        "merges": [list(pair) for pair in vocab.merges],
        "special": dict(vocab.special),
    }
    write_atomic(path, json.dumps(doc, ensure_ascii=False).encode("utf-8"))


def load_vocab(path: str | Path) -> Vocab:
    try:
        doc = json.loads(read_text(path, "vocab file"))
        vocab = Vocab(
            tokens=[_token_from_json(t) for t in doc["tokens"]],
            merges=[(int(a), int(b)) for a, b in doc["merges"]],
            special={str(k): int(v) for k, v in doc["special"].items()},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"malformed vocab file {path}: {exc}") from exc
    vocab.validate()
    return vocab
