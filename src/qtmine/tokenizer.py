"""Byte-level byte-pair-encoding tokenizer.

A vocabulary is its ordered merge list. Token ids are laid out densely: ids
0..255 are the single bytes, followed by the special tokens, followed by merge
outputs in the order they were learned, so merge i makes token FIRST_MERGED + i
from the bytes of its pair. The token table and the special ids follow from the
merges and this layout; neither is stored. There is no pre-tokenizer; merges
are learned and applied directly on the raw byte stream of each document, so
encode/decode is lossless for any UTF-8 text.

Training and encoding share one structure: the bytes as a doubly linked list
plus a lazy heap of candidate pairs. `encode` is an O(n log n) heap merge whose
output equals applying the merges one rank at a time. Training keeps one pair
table, each pair's exact set of live positions, whose size is its count. It
applies each merge to all its occurrences as it learns it, so it ends with
that encoding of every training text: `train_and_encode` hands the token
streams back with the vocabulary, and a caller that trains on the same texts
need not encode them again. The quadratic reference implementations in the
test suite check both paths.
"""

from __future__ import annotations

import base64
import heapq
import json
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
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


def train_and_encode(texts: Sequence[str], vocab_size: int) -> tuple[Vocab, list[TokenSeq]]:
    """Learn BPE merges by greedy highest-frequency pair merging, and return the
    vocabulary with each text's token ids under it.

    Merging stops when `vocab_size` tokens exist or no adjacent pair occurs at
    least MIN_PAIR_COUNT times. Frequency ties break by the lexicographic
    byte order of the merged pair (then of the left token), so retraining on
    identical input is byte-identical. Pairs never span document boundaries.

    Each merge is applied to every occurrence, left to right, in the order
    the merges are learned, so the linked list training ends with is each
    text's `encode` under the learned vocabulary; the token ids are read off
    it, one list per text (empty for an empty text).
    """
    if vocab_size <= FIRST_MERGED:
        raise DataFormatError(
            f"vocab_size must exceed {FIRST_MERGED} (256 bytes + {len(SPECIAL_NAMES)} specials), got {vocab_size}"
        )

    # Flat corpus as a doubly linked list; links never cross document bounds.
    ids: list[int] = []
    nxt: list[int] = []
    prv: list[int] = []
    starts: list[int] = []  # each text's first node, -1 for an empty text
    for text in texts:
        data = _utf8(text)
        if not data:
            starts.append(-1)
            continue
        start = len(ids)
        end = start + len(data)
        starts.append(start)
        ids.extend(data)
        prv.append(-1)
        prv.extend(range(start, end - 1))
        nxt.extend(range(start + 1, end))
        nxt.append(-1)
    if not ids:
        raise DataFormatError("cannot train BPE on an empty corpus")

    # The table so far, for the tie-break on merged bytes.
    tokens = list(_BASE_TOKENS)
    merges: list[tuple[int, int]] = []
    # The one pair table: occ[pair] is the set of left positions where `pair`
    # occurs in the live linked list, and its size is the pair's count. Every
    # set is exact, except the one being swept, which is popped first; a set
    # the sweep leaves empty is deleted when the sweep ends.
    occ: defaultdict[tuple[int, int], set[int]] = defaultdict(set)
    for i, j in enumerate(nxt):
        if j != -1:
            occ[ids[i], ids[j]].add(i)

    # Lazy max-heap keyed by (-count, merged bytes, left bytes); stale entries
    # are skipped when their recorded count no longer matches.
    heap = [(-len(at), tokens[a] + tokens[b], tokens[a], (a, b))
            for (a, b), at in occ.items() if len(at) >= MIN_PAIR_COUNT]
    heapq.heapify(heap)

    while len(tokens) < vocab_size and heap:
        negc, _, _, pair = heapq.heappop(heap)
        if len(occ.get(pair, ())) != -negc:
            continue
        a, b = pair
        new_id = len(tokens)
        tokens.append(tokens[a] + tokens[b])
        merges.append(pair)
        # Pairs whose set changed during this merge's sweep; each is pushed
        # once, with its final count, when the sweep ends.
        touched: set[tuple[int, int]] = set()

        # Ascending order gives the same greedy left-to-right semantics as
        # encode(). The only occurrence to skip is one whose left node the
        # occurrence merged just before it absorbed ("aaa" -> [aa, a]).
        for i in sorted(occ.pop(pair)):
            if ids[i] != a:
                continue
            j = nxt[i]
            p, n = prv[i], nxt[j]
            ids[i] = new_id
            ids[j] = -1
            nxt[i] = n
            # Each neighbour's old pair loses its position, its new pair gains
            # it. The right one's old pair can be the swept pair ("aaa"), whose
            # set is out of the table, hence discard rather than remove.
            if p != -1:
                gone, made = (ids[p], a), (ids[p], new_id)
                occ[gone].discard(p)
                occ[made].add(p)
                touched.add(gone)
                touched.add(made)
            if n != -1:
                prv[n] = i
                gone, made = (b, ids[n]), (new_id, ids[n])
                occ[gone].discard(j)
                occ[made].add(i)
                touched.add(gone)
                touched.add(made)
        for t in touched:
            c = len(occ[t])
            if c >= MIN_PAIR_COUNT:
                x, y = t
                heapq.heappush(heap, (-c, tokens[x] + tokens[y], tokens[x], t))
            elif not c:
                del occ[t]

    streams: list[TokenSeq] = []
    for i in starts:
        seq = []
        while i != -1:
            seq.append(ids[i])
            i = nxt[i]
        streams.append(seq)
    log.info(kv(event="bpe_trained", vocab_size=len(tokens), merges=len(merges)))
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
