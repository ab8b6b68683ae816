"""Masked-token prediction and query-target scoring.

A query is a text template with mask placeholders (and optionally a `{drug}`
slot); a target is a phrase tokenized into a set of token ids. The score of a
query against a target is, per masked position, the probability mass the model
assigns to the target set, averaged over positions. With a singleton target
this reduces exactly to the MLM probability of that token.

Every scoring feature reaches the model through `model.predict_masked`: a
feature renders all of its queries, makes one batched call, and reads each
query's score off its probability rows (`score_probs`). Batched results do not
depend on the order of the queries, so rankings do not either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import model as M
from .errors import EvalError, TemplateError
from .tokenizer import SPECIAL_MARKERS, Vocab, encode
from .util import get_logger, kv

logger = get_logger()

MASK_PLACEHOLDER = SPECIAL_MARKERS["mask"].decode("ascii")
DRUG_SLOT = "{drug}"
DEFAULT_RANK_TEMPLATE = "In clinical trials, {drug} demonstrated <mask> <mask> <mask>."
DEFAULT_TARGET_PHRASE = "clinical trials efficacy"


@dataclass(frozen=True)
class QuerySpec:
    """A rendered query: token ids with mask tokens at placeholder positions."""

    template: str
    ids: tuple[int, ...]
    mask_positions: tuple[int, ...]

    @classmethod
    def render(cls, vocab: Vocab, template: str, drug: str | None = None) -> "QuerySpec":
        """Substitute `{drug}` if present and encode around the mask markers.

        The query is wrapped in the same <bos>/<eos> markers used for training
        windows. Text between markers is encoded piecewise, so a marker always
        maps to exactly one mask token.
        """
        text = template
        if DRUG_SLOT in text:
            if drug is None:
                raise TemplateError(f"template has a {DRUG_SLOT} slot but no drug was given")
            text = text.replace(DRUG_SLOT, drug)
        elif drug is not None:
            raise TemplateError(f"template has no {DRUG_SLOT} slot for drug {drug!r}")
        parts = text.split(MASK_PLACEHOLDER)
        if len(parts) < 2:
            raise TemplateError(f"template contains no {MASK_PLACEHOLDER} placeholder: {template!r}")
        ids: list[int] = [vocab.bos_id]
        positions: list[int] = []
        for i, part in enumerate(parts):
            if i > 0:
                positions.append(len(ids))
                ids.append(vocab.mask_id)
            if part:
                ids.extend(encode(vocab, part))
        ids.append(vocab.eos_id)
        return cls(template=template, ids=tuple(ids), mask_positions=tuple(positions))


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
        seen: dict[int, None] = {}
        for t in encode(vocab, phrase):
            if t not in vocab.special_ids:
                seen.setdefault(t)
        return cls(phrase=phrase, ids=tuple(seen))

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
    data = text.encode("utf-8")
    if not 0 <= start < end <= len(data):
        raise EvalError(f"byte span [{start}, {end}) invalid for text of {len(data)} bytes")
    ids = encode(vocab, text)
    offsets = []
    pos = 0
    for t in ids:
        width = len(vocab.tokens[t])
        offsets.append((pos, pos + width))
        pos += width
    masked = [i for i, (s, e) in enumerate(offsets) if s < end and e > start]
    if not masked:
        raise EvalError("byte span covers no tokens")
    out_ids = [vocab.bos_id]
    positions = []
    for i, t in enumerate(ids):
        if i in masked:
            positions.append(len(out_ids))
            out_ids.append(vocab.mask_id)
        else:
            out_ids.append(t)
    out_ids.append(vocab.eos_id)
    shown = (data[: offsets[masked[0]][0]].decode("utf-8", "replace")
             + MASK_PLACEHOLDER * len(masked)
             + data[offsets[masked[-1]][1]:].decode("utf-8", "replace"))
    query = QuerySpec(template=shown, ids=tuple(out_ids), mask_positions=tuple(positions))
    return query, tuple(ids[i] for i in masked)


def predict_queries(params: M.Params, queries: Sequence[QuerySpec]) -> list[np.ndarray]:
    """Per query, one probability row over the vocabulary per masked position."""
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
    return [(int(allowed[i]), vocab.token_text(int(allowed[i])), float(p[i])) for i in order]


def _aggregate(per_position: Sequence[float], agg: str) -> float:
    if agg == "mean":
        return float(np.mean(per_position))
    if agg == "geomean":
        if any(s <= 0.0 for s in per_position):
            return 0.0
        return float(np.exp(np.mean(np.log(per_position))))
    raise EvalError(f"unknown aggregation {agg!r} (expected 'mean' or 'geomean')")


def score_probs(probs: Sequence[np.ndarray], target: TargetSpec,
                agg: str = "mean", mode: str = "mass") -> QtScore:
    """Score a query's masked-position probability rows against a target set.

    mode="mass" (default): per position, the probability mass of the target
    set. mode="conditional": position k is paired with target id k and scored
    as P_k[y_k] renormalized over the target set; this stricter reading
    requires as many masked positions as target ids.
    """
    if mode == "mass":
        per = [target_mass(p, target) for p in probs]
    elif mode == "conditional":
        if len(probs) != len(target.ids):
            raise EvalError(
                f"conditional mode pairs positions with target ids: "
                f"{len(probs)} masks vs {len(target.ids)} targets"
            )
        per = []
        for k, p in enumerate(probs):
            denom = target_mass(p, target)
            per.append(float(p[target.ids[k]] / denom) if denom > 0.0 else 0.0)
    else:
        raise EvalError(f"unknown mode {mode!r} (expected 'mass' or 'conditional')")
    return QtScore(per_position=tuple(per), aggregate=_aggregate(per, agg))


def qt_score(params: M.Params, query: QuerySpec, target: TargetSpec,
             agg: str = "mean", mode: str = "mass") -> QtScore:
    """Score one query against a target set; see `score_probs` for the modes."""
    return score_probs(mlm_predict(params, query), target, agg=agg, mode=mode)


def rank_by_qt(params: M.Params, vocab: Vocab, candidates: Sequence[str],
               template: str = DEFAULT_RANK_TEMPLATE,
               target: TargetSpec | None = None) -> list[RankedItem]:
    """Score every candidate through the template and sort best-first.

    Ties are broken lexicographically by candidate name, so the output is
    deterministic and independent of the input order. An empty candidate list
    yields an empty ranking.
    """
    if DRUG_SLOT not in template:
        raise TemplateError(f"ranking template must contain {DRUG_SLOT}")
    if target is None:
        target = TargetSpec.from_phrase(vocab, DEFAULT_TARGET_PHRASE)
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
    prompt = f"{q_term} is to {t_term} as {q_term} is to {MASK_PLACEHOLDER}"
    query = QuerySpec.render(vocab, prompt)
    probs = mlm_predict(params, query)[0]
    exclude: set[int] = set()
    for term in (q_term, t_term):
        exclude.update(encode(vocab, term))
        exclude.update(encode(vocab, " " + term))
    return topk_tokens(probs, vocab, k, exclude=exclude)


def combination_score(params: M.Params, vocab: Vocab, drugs: Sequence[str],
                      template: str = DEFAULT_RANK_TEMPLATE,
                      target: TargetSpec | None = None) -> QtScore:
    """Score a drug combination by substituting "a and b [and ...]"."""
    if len(drugs) < 2:
        raise EvalError(f"combination needs at least 2 drugs, got {len(drugs)}")
    if target is None:
        target = TargetSpec.from_phrase(vocab, DEFAULT_TARGET_PHRASE)
    query = QuerySpec.render(vocab, template, drug=" and ".join(drugs))
    return qt_score(params, query, target)


def side_effect_score(params: M.Params, vocab: Vocab, drug: str,
                      negative_target: TargetSpec,
                      template: str = DEFAULT_RANK_TEMPLATE) -> QtScore:
    """Score a drug against an adverse-effect phrase.

    Kept separate from efficacy scoring: positive and negative targets are
    never merged into one set.
    """
    query = QuerySpec.render(vocab, template, drug=drug)
    return qt_score(params, query, negative_target)
