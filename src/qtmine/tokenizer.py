"""Byte-level byte-pair-encoding tokenizer.

A vocabulary is its ordered merge list. Token ids are laid out densely: ids
0..255 are the single bytes, followed by the special tokens, followed by merge
outputs in the order they were learned, so merge i makes token FIRST_MERGED + i
from the bytes of its pair. The token table and the special ids follow from the
merges and this layout; neither is stored. There is no pre-tokenizer; merges
are learned and applied directly on the raw byte stream of each document, so
encode/decode is lossless for any UTF-8 text.

`encode` holds one text's bytes as a doubly linked list plus a lazy heap of
candidate pairs: an O(n log n) heap merge whose output equals applying the
merges one rank at a time. Training holds the whole corpus in NumPy arrays
(token ids, links, pair keys) and applies each merge to all its occurrences
at once as it learns it, with exact pair counts in a dict. It ends with that
encoding of every training text: `train_and_encode` hands the token streams
back with the vocabulary, and a caller that trains on the same texts need not
encode them again. The quadratic reference implementations in the test suite
check both paths.
"""

from __future__ import annotations

import base64
import heapq
import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from time import perf_counter
from typing import ClassVar, Sequence

import numpy as np

from .errors import DataFormatError
from .util import get_logger, kv, read_text, write_atomic

log = get_logger(__name__)

N_BYTES = 256
SPECIAL_NAMES = ("mask", "pad", "bos", "eos", "unk")
SPECIAL_MARKERS = {name: f"<{name}>".encode("ascii") for name in SPECIAL_NAMES}
SPECIAL = {name: N_BYTES + i for i, name in enumerate(SPECIAL_NAMES)}
FIRST_MERGED = N_BYTES + len(SPECIAL_NAMES)
# The table before any merge: the bytes, then the special markers.
_BASE_TOKENS = tuple(bytes([b]) for b in range(N_BYTES)) + tuple(SPECIAL_MARKERS.values())
# Fewest occurrences of an adjacent pair for `train_bpe` to merge it.
MIN_PAIR_COUNT = 2

TokenSeq = list[int]


@dataclass
class Vocab:
    """A trained BPE vocabulary: its ordered merges, each a pair of earlier,
    non-special token ids."""

    merges: list[tuple[int, int]]

    mask_id: ClassVar[int] = SPECIAL["mask"]
    pad_id: ClassVar[int] = SPECIAL["pad"]
    bos_id: ClassVar[int] = SPECIAL["bos"]
    eos_id: ClassVar[int] = SPECIAL["eos"]
    unk_id: ClassVar[int] = SPECIAL["unk"]
    special_ids: ClassVar[frozenset[int]] = frozenset(SPECIAL.values())

    def __post_init__(self) -> None:
        for i, (a, b) in enumerate(self.merges):
            if type(a) is not int or type(b) is not int:
                raise DataFormatError("merge ids must be integers")
            out = FIRST_MERGED + i
            if not (0 <= a < out and 0 <= b < out):
                raise DataFormatError(f"merge {i} refers to a token outside 0..{out - 1} ({a},{b})")
            if a in self.special_ids or b in self.special_ids:
                raise DataFormatError(f"merge {i} involves a special token")

    @property
    def size(self) -> int:
        return FIRST_MERGED + len(self.merges)

    @cached_property
    def tokens(self) -> list[bytes]:
        """The bytes of every token id."""
        tokens = list(_BASE_TOKENS)
        for a, b in self.merges:
            tokens.append(tokens[a] + tokens[b])
        return tokens

    @cached_property
    def is_special(self) -> np.ndarray:
        """Boolean lookup over token ids: True at the special ids."""
        table = np.zeros(self.size, dtype=bool)
        table[list(self.special_ids)] = True
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


def _utf8(text: str) -> bytes:
    """The UTF-8 bytes of `text`; a lone surrogate in it is a DataFormatError."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise DataFormatError(f"text is not valid UTF-8: lone surrogate "
                              f"{text[exc.start]!r} at character {exc.start}") from None


def train_bpe(texts: Sequence[str], vocab_size: int) -> Vocab:
    """Learn BPE merges from `texts`; see `train_and_encode`."""
    return train_and_encode(texts, vocab_size)[0]


def _links(offsets: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Next and previous index arrays over the `n` positions of documents laid
    back to back (`offsets`: each one's first position, then n), plus a
    sentinel at index n. A link that leaves its document is -1, which indexes
    the sentinel. An empty document's bounds fall on a neighbour's or on the
    sentinel, so they need no filtering."""
    nxt = np.arange(1, n + 2)
    prv = np.arange(-1, n)
    nxt[offsets[1:] - 1] = -1
    prv[offsets[:-1]] = -1
    nxt[n] = -1
    return nxt, prv


def _tally(values: np.ndarray) -> dict[int, int]:
    """How often each value occurs in `values`; a short array skips the sort."""
    if len(values) < 128:
        return Counter(values.tolist())
    uniq, counts = np.unique(values, return_counts=True)
    return dict(zip(uniq.tolist(), counts.tolist()))


def train_and_encode(texts: Sequence[str], vocab_size: int) -> tuple[Vocab, list[TokenSeq]]:
    """Learn BPE merges by greedy highest-frequency pair merging, and return the
    vocabulary with each text's token ids under it.

    Merging stops when `vocab_size` tokens exist or no adjacent pair occurs at
    least MIN_PAIR_COUNT times. Frequency ties break by the lexicographic
    byte order of the merged pair (then of the left token), so retraining on
    identical input is byte-identical. Pairs never span document boundaries.

    The corpus is held in arrays indexed by position: each live position's
    token id, next and previous links that skip merged-away positions and stop
    at document bounds, and its pair key `left * K + right`, negative where no
    pair starts. A merge finds every occurrence with one comparison over the
    keys, rewrites ids and links with array operations, and recomputes only
    the keys it touched; the exact pair counts follow from those keys' old and
    new values. Dead positions are compacted away once they are the majority.
    Each merge is applied to the whole corpus, left to right, as it is
    learned, so the live positions end as each text's `encode` under the
    learned vocabulary; the token ids are read off them, one list per text
    (empty for an empty text).
    """
    if vocab_size <= FIRST_MERGED:
        raise DataFormatError(
            f"vocab_size must exceed {FIRST_MERGED} (256 bytes + {len(SPECIAL_NAMES)} specials), got {vocab_size}"
        )
    started = perf_counter()
    data = [_utf8(text) for text in texts]
    offsets = np.cumsum([0] + [len(d) for d in data])
    n_bytes = live = int(offsets[-1])
    if not live:
        raise DataFormatError("cannot train BPE on an empty corpus")

    # Every merge removes a position, so ids stay below K and a pair key fits
    # in int64 however large `vocab_size` is. The sentinel's id makes every
    # key with it on the right negative, so a document's last position has
    # no pair; a dead position's id is -1.
    K = min(vocab_size, FIRST_MERGED + live)
    ids = np.full(live + 1, -K * K, dtype=np.int64)
    ids[:live] = np.frombuffer(b"".join(data), dtype=np.uint8)
    nxt, prv = _links(offsets, live)
    pk = np.maximum(ids, 0) * K + ids[nxt]  # clamped, the sentinel's own key is negative too
    keys, counts = np.unique(pk[pk >= 0], return_counts=True)
    count = dict(zip(keys.tolist(), counts.tolist()))

    # The table so far, for the tie-break on merged bytes.
    tokens = list(_BASE_TOKENS)
    merges: list[tuple[int, int]] = []

    # Lazy max-heap keyed by (-count, merged bytes, left bytes, pair key);
    # stale entries are skipped when their recorded count no longer matches.
    def entry(key: int, c: int) -> tuple:
        a, b = divmod(key, K)
        return (-c, tokens[a] + tokens[b], tokens[a], key)

    heap = [entry(key, c) for key, c in count.items() if c >= MIN_PAIR_COUNT]
    heapq.heapify(heap)

    while len(tokens) < vocab_size and heap:
        negc, _, _, key = heapq.heappop(heap)
        if count.get(key) != -negc:
            continue
        a, b = divmod(key, K)
        new_id = len(tokens)
        tokens.append(tokens[a] + tokens[b])
        merges.append((a, b))

        # Occurrences in ascending position, which is left to right. In a run
        # of (a, a) pairs every other one merges, from the run's first
        # ("aaa" -> [aa, a]); the rest are the ones absorbed.
        i = np.flatnonzero(pk == key)
        if a == b and len(i) > 1:
            k = np.arange(len(i))
            head = np.r_[True, prv[i[1:]] != i[:-1]]
            i = i[(k - np.maximum.accumulate(np.where(head, k, 0))) % 2 == 0]
        j = nxt[i]
        n = nxt[j]
        p = prv[i]
        ids[i] = new_id
        ids[j] = -1
        # Left neighbours that survive; one absorbed by the merge before it is
        # reached as that merged position.
        p = p[ids[p] >= 0]
        gone = pk[np.concatenate((j, p))]
        nxt[i] = n
        prv[n] = i
        pk[j] = -1
        pk[i] = new_id * K + ids[n]
        pk[p] = ids[p] * K + new_id
        live -= len(i)

        # The swept pair is gone; every other touched pair moves by its new
        # minus its old occurrences.
        del count[key]
        delta = _tally(pk[np.concatenate((i, p))])
        for t, c in _tally(gone).items():
            delta[t] = delta.get(t, 0) - c
        for t, d in delta.items():
            if t < 0 or t == key:
                continue
            c = count.get(t, 0) + d
            if c:
                count[t] = c
                if c >= MIN_PAIR_COUNT:
                    heapq.heappush(heap, entry(t, c))
            else:
                del count[t]

        if 2 * live < len(ids):
            kept = np.flatnonzero(ids != -1)  # the live positions and the sentinel
            offsets = np.searchsorted(kept, offsets)
            ids, pk = ids[kept], pk[kept]
            nxt, prv = _links(offsets, live)

    kept = np.flatnonzero(ids >= 0)
    cuts = np.searchsorted(kept, offsets).tolist()
    values = ids[kept].tolist()
    streams = [values[s:e] for s, e in zip(cuts, cuts[1:])]
    log.info(kv(event="bpe_trained", vocab_size=len(tokens), merges=len(merges),
                bytes=n_bytes, seconds=perf_counter() - started))
    return Vocab(merges), streams


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
    ids: list[int] = list(_utf8(text))
    n = len(ids)
    if n < 2:
        return ids
    rank = vocab.merge_rank
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
        new_id = FIRST_MERGED + r
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
    if all(ch.isprintable() or ch == " " for ch in s):
        return s
    return {"b64": base64.b64encode(b).decode("ascii")}


def _token_from_json(entry) -> bytes:
    """A token entry that is not a plain string: `{"b64": ...}`."""
    if isinstance(entry, dict) and "b64" in entry:
        return base64.b64decode(entry["b64"])
    raise ValueError(f"unrecognized token entry {entry!r}")


def save_vocab(vocab: Vocab, path: str | Path) -> None:
    doc = {
        "tokens": [_token_to_json(t) for t in vocab.tokens],
        "merges": [list(pair) for pair in vocab.merges],
        "special": SPECIAL,
    }
    write_atomic(path, json.dumps(doc, ensure_ascii=False).encode("utf-8"))


def load_vocab(path: str | Path) -> Vocab:
    """Read a vocabulary file. Only its merges define the vocabulary; its
    special ids must be SPECIAL and its token table the one the merges make.
    Every `DataFormatError` it raises names the file."""
    try:
        doc = json.loads(read_text(path, "vocab file"))
        merges = [(a, b) for a, b in doc["merges"]]
        tokens = [t.encode("utf-8") if type(t) is str else _token_from_json(t)
                  for t in doc["tokens"]]
        special = doc["special"]
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise DataFormatError(f"malformed vocab file {path}: {exc}") from exc
    if special != SPECIAL:
        raise DataFormatError(f"vocab file {path}: special ids must be {SPECIAL}, got {special!r}")
    try:
        vocab = Vocab(merges)
    except DataFormatError as exc:
        raise DataFormatError(f"vocab file {path}: {exc}") from exc
    if tokens != vocab.tokens:
        raise DataFormatError(f"vocab file {path}: its tokens are not the ones its merges make")
    return vocab
