"""Masked-token prediction and query-target scoring.

A query is a text template with mask placeholders and optionally a `{drug}` or
`{sentence}` slot; a target is a phrase tokenized into a set of token ids. The
score of a query against a target is, per masked position, the probability
mass the model assigns to the target set, averaged over positions. With a
singleton target this reduces exactly to the MLM probability of that token.

`QuerySpec.frame` builds every query. A template is split at its mask markers
before its slots are filled, so slot text is literal: a `<mask>`, `{drug}` or
`{sentence}` inside a drug name or sentence is plain text. Every scoring
feature builds all of its queries, makes one batched `predict_queries` call,
and reads each query's score off its probability rows (`score_probs`). Batched
results do not depend on the order of the queries, so rankings do not either.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from . import model as M
from .errors import EvalError, TemplateError
from .tokenizer import SPECIAL_MARKERS, TokenSeq, Vocab, decode, encode
from .util import get_logger, kv

logger = get_logger()

MASK_PLACEHOLDER = SPECIAL_MARKERS["mask"].decode("ascii")
DRUG_SLOT = "{drug}"
SENTENCE_SLOT = "{sentence}"
_SLOTS = re.compile("|".join(map(re.escape, (DRUG_SLOT, SENTENCE_SLOT))))
DEFAULT_RANK_TEMPLATE = "In clinical trials, {drug} demonstrated <mask> <mask> <mask>."
DEFAULT_TARGET_PHRASE = "clinical trials efficacy"


def check_slot(template: str, slot: str, given: bool) -> None:
    """The slot rule: a template holds `slot` exactly when the slot's text is
    given. A ranking template is always given a drug, so it needs `{drug}`."""
    if (slot in template) != given:
        raise TemplateError(f"template must contain {slot} exactly when its text is given "
                            f"(given: {str(given).lower()}): {template!r}")


@dataclass(frozen=True)
class QuerySpec:
    """A framed query: its text with slots filled and masks shown as markers,
    its token ids, and the positions of its mask tokens."""

    template: str
    ids: tuple[int, ...]
    mask_positions: tuple[int, ...]

    @classmethod
    def frame(cls, vocab: Vocab, pieces: Sequence[TokenSeq]) -> "QuerySpec":
        """`<bos>`, the pieces with one mask between each two, `<eos>`: the
        same markers that wrap training windows."""
        ids = [vocab.bos_id, *pieces[0]]
        positions = []
        for piece in pieces[1:]:
            positions.append(len(ids))
            ids += [vocab.mask_id, *piece]
        ids.append(vocab.eos_id)
        text = MASK_PLACEHOLDER.join(decode(vocab, piece) for piece in pieces)
        return cls(template=text, ids=tuple(ids), mask_positions=tuple(positions))

    @classmethod
    def render(cls, vocab: Vocab, template: str, drug: str | None = None,
               sentence: str | None = None) -> "QuerySpec":
        """Split the template at its mask markers, fill the `{drug}` and
        `{sentence}` slots in each piece, and frame the encoded pieces."""
        fill = {DRUG_SLOT: drug, SENTENCE_SLOT: sentence}
        for slot, text in fill.items():
            check_slot(template, slot, text is not None)
        pieces = template.split(MASK_PLACEHOLDER)
        if len(pieces) < 2:
            raise TemplateError(f"template contains no {MASK_PLACEHOLDER} placeholder: {template!r}")
        return cls.frame(vocab, [encode(vocab, _SLOTS.sub(lambda m: fill[m.group()], piece))
                                 for piece in pieces])


@dataclass(frozen=True)
class TargetSpec:
    """Target token ids: ordered, deduplicated, never special, never empty."""

    phrase: str | None
    ids: tuple[int, ...]

    def __post_init__(self):
        if not self.ids:
            raise EvalError("target set is empty" if self.phrase is None
                            else f"target phrase {self.phrase!r} tokenizes to nothing")

    @classmethod
    def from_phrase(cls, vocab: Vocab, phrase: str) -> "TargetSpec":
        return cls(phrase=phrase, ids=tuple(dict.fromkeys(encode(vocab, phrase))))

    @classmethod
    def from_ids(cls, vocab: Vocab, ids: Iterable[int]) -> "TargetSpec":
        seen: dict[int, None] = {}
        for t in ids:
            if not 0 <= t < vocab.size:
                raise EvalError(f"target id {t} out of range for vocab size {vocab.size}")
            if t in vocab.special_ids:
                raise EvalError(f"target id {t} is a special token")
            seen.setdefault(int(t))
        return cls(phrase=None, ids=tuple(seen))


@dataclass(frozen=True)
class QtScore:
    per_position: tuple[float, ...]
    aggregate: float


@dataclass(frozen=True)
class RankedItem:
    rank: int
    candidate: str
    score: QtScore


def masked_span_query(vocab: Vocab, text: str, start: int, end: int) -> tuple[QuerySpec, tuple[int, ...]]:
    """Mask the tokens of `text` that overlap the byte span [start, end).

    The text is tokenized whole, so merges that cross the span boundary are
    absorbed into the masked span rather than fragmenting the context; the
    returned gold ids are exactly the tokens the mask positions replaced.
    """
    size = len(text.encode("utf-8"))
    if not 0 <= start < end <= size:
        raise EvalError(f"byte span [{start}, {end}) invalid for text of {size} bytes")
    ids = encode(vocab, text)
    ends = list(accumulate(len(vocab.tokens[t]) for t in ids))
    # The tokens from the one holding byte `start` through the one holding byte `end - 1`.
    lo, hi = bisect_right(ends, start), bisect_left(ends, end) + 1
    query = QuerySpec.frame(vocab, [ids[:lo], *[[]] * (hi - lo - 1), ids[hi:]])
    return query, tuple(ids[lo:hi])


def predict_queries(params: M.Params, queries: Sequence[QuerySpec]) -> list[np.ndarray]:
    """Per query, one probability row over the vocabulary per masked position.

    A query longer than the model's `max_seq` is a `TemplateError` naming it."""
    max_seq = params.config.max_seq
    for q in queries:
        if len(q.ids) > max_seq:
            raise TemplateError(f"query is {len(q.ids)} tokens, over max_seq {max_seq}: "
                                f"{q.template!r}")
    return M.predict_masked(params, [q.ids for q in queries],
                            [q.mask_positions for q in queries])


def mlm_predict(params: M.Params, query: QuerySpec) -> np.ndarray:
    """Probability vector over the vocabulary at each masked query position."""
    return predict_queries(params, [query])[0]


def target_mass(probs: np.ndarray, target: TargetSpec) -> float:
    """Total probability the vector assigns to the target set."""
    return float(np.sum(probs[list(target.ids)]))


def topk_tokens(probs: np.ndarray, vocab: Vocab, k: int,
                exclude: set[int] | None = None) -> list[tuple[int, str, float]]:
    """The k most probable non-special tokens, ties broken by id ascending."""
    if k < 1:
        raise EvalError(f"k must be >= 1, got {k}")
    allowed = vocab.non_special_ids
    if exclude:
        allowed = allowed[~np.isin(allowed, list(exclude))]
    if k > allowed.size:
        logger.warning(kv(event="topk_clamped", requested=k, available=int(allowed.size)))
        k = int(allowed.size)
    p = probs[allowed]
    order = np.lexsort((allowed, -p))[:k]
    return [(int(allowed[i]), decode(vocab, [int(allowed[i])]), float(p[i])) for i in order]


def score_probs(probs: Sequence[np.ndarray], target: TargetSpec) -> QtScore:
    """Score a query's masked-position probability rows against a target set:
    per position, the target set's probability mass; overall, their mean."""
    per = [target_mass(p, target) for p in probs]
    return QtScore(per_position=tuple(per), aggregate=float(np.mean(per)))


def qt_score(params: M.Params, query: QuerySpec, target: TargetSpec) -> QtScore:
    """Score one query against a target set; see `score_probs`."""
    return score_probs(mlm_predict(params, query), target)


def rank_by_qt(params: M.Params, vocab: Vocab, candidates: Sequence[str],
               *, template: str = DEFAULT_RANK_TEMPLATE,
               target: TargetSpec) -> list[RankedItem]:
    """Score every candidate through the template and sort best-first.

    Ties are broken lexicographically by candidate name, so the output is
    deterministic and independent of the input order. An empty candidate list
    yields an empty ranking.
    """
    check_slot(template, DRUG_SLOT, True)
    if not candidates:
        return []

    queries = [QuerySpec.render(vocab, template, drug=name) for name in candidates]
    scored = [(name, score_probs(probs, target))
              for name, probs in zip(candidates, predict_queries(params, queries))]
    scored.sort(key=lambda item: (-item[1].aggregate, item[0]))
    return [RankedItem(rank=i + 1, candidate=name, score=s) for i, (name, s) in enumerate(scored)]


def permuted_analogy(params: M.Params, vocab: Vocab, q_term: str, t_term: str,
                     k: int = 5) -> list[tuple[int, str, float]]:
    """Mine terms related to a pair via the prompt "Q is to T as Q is to <mask>".

    Tokens of the two input terms (with and without a leading space, which
    tokenize differently) are excluded from the output.
    """
    if not q_term or not t_term:
        raise EvalError("both terms must be nonempty")
    prompt = encode(vocab, f"{q_term} is to {t_term} as {q_term} is to ")
    query = QuerySpec.frame(vocab, [prompt, []])
    probs = mlm_predict(params, query)[0]
    exclude: set[int] = set()
    for term in (q_term, t_term):
        exclude.update(encode(vocab, term))
        exclude.update(encode(vocab, " " + term))
    return topk_tokens(probs, vocab, k, exclude=exclude)
