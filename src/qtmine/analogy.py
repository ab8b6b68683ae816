"""Analogy prompts and top-k accuracy evaluation.

An item (a, b, c, d) is rendered by tokenizing the completed sentence
"a is to b as c is to d" and masking the token span that covers the answer
" d", so the prompt's context tokens are exactly the ones the model sees when
that sentence appears in training text (byte-pair merges that cross into the
answer are absorbed into the masked span). One mask per gold token; an item is
correct at top-k iff the gold token is in the model's top-k at every masked
position.

Few-shot support: sample k completed analogy sentences per category, fine-tune
on them, and evaluate the base and the tuned model with those item ids excluded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import model as M
from .corpus import AnalogyItem
from .errors import EvalError
from .qt import QuerySpec, masked_span_query, predict_queries
from .tokenizer import Vocab
from .util import csv_bytes, get_logger, kv, write_atomic

logger = get_logger()


@dataclass(frozen=True)
class CategoryResult:
    category: str
    subcategory: str
    n: int
    top1: float
    top5: float


@dataclass(frozen=True)
class AnalogyReport:
    categories: tuple[CategoryResult, ...]
    subcategories: Mapping[str, CategoryResult]  # item-weighted over member categories
    excluded: tuple[str, ...]


def analogy_sentence(item: AnalogyItem) -> str:
    """The completed, lower-cased analogy as one sentence."""
    return f"{item.a} is to {item.b} as {item.c} is to {item.d}".lower()


def render_analogy(vocab: Vocab, item: AnalogyItem) -> tuple[QuerySpec, tuple[int, ...]]:
    """Build the masked prompt and the per-position gold token ids."""
    if not item.d.strip():
        raise EvalError(f"item {item.item_id}: empty answer term")
    sentence = analogy_sentence(item)
    answer = item.d.lower()
    start = len(sentence.encode("utf-8")) - len(answer.encode("utf-8"))
    return masked_span_query(vocab, sentence, start, len(sentence.encode("utf-8")))


def _item_correct(probs: np.ndarray, gold: Sequence[int], vocab: Vocab) -> tuple[bool, bool]:
    """(top-1 correct, top-5 correct) with the all-positions rule. The gold id is
    in the top k where fewer than k non-special ids outrank it in `topk_tokens`'
    order: a higher probability, or an equal one and a lower id."""
    allowed = vocab.non_special_ids
    gold = np.asarray(gold)
    p = probs[:, allowed]
    g = probs[np.arange(gold.size), gold][:, None]
    worst = np.count_nonzero((p > g) | ((p == g) & (allowed < gold[:, None])), axis=1).max()
    return bool(worst < 1), bool(worst < 5)


def eval_analogies(params: M.Params, vocab: Vocab, items: Sequence[AnalogyItem],
                   exclude: Iterable[str] = ()) -> AnalogyReport:
    """Per-category and per-subcategory top-1/top-5 accuracy.

    Items whose ids are in `exclude` (e.g. few-shot training items) are
    dropped before evaluation; accuracies are independent of item order. A
    category lies under one subcategory, as `load_analogies` requires of a file.
    """
    excluded = frozenset(exclude)
    kept = [it for it in items if it.item_id not in excluded]
    if not kept:
        raise EvalError("no analogy items left after exclusion")
    subcat_of: dict[str, str] = {}
    for it in kept:
        if subcat_of.setdefault(it.category, it.subcategory) != it.subcategory:
            raise EvalError(f"item {it.item_id}: category {it.category!r} is under subcategory "
                            f"{subcat_of[it.category]!r}, got {it.subcategory!r}")

    queries, golds = zip(*(render_analogy(vocab, it) for it in kept))
    results = [_item_correct(probs, gold, vocab)
               for probs, gold in zip(predict_queries(params, queries), golds)]
    per_cat: dict[str, list[tuple[bool, bool]]] = {}
    for item, res in zip(kept, results):
        per_cat.setdefault(item.category, []).append(res)

    def result(name: str, sub: str, hits: list[tuple[bool, bool]]) -> CategoryResult:
        n = len(hits)
        return CategoryResult(category=name, subcategory=sub, n=n,
                              top1=sum(h1 for h1, _ in hits) / n,
                              top5=sum(h5 for _, h5 in hits) / n)

    # A subcategory's rates are its members' hit counts over their items, not
    # a mean of their rounded rates.
    rows = [result(cat, subcat_of[cat], per_cat[cat]) for cat in sorted(per_cat)]
    subcats = {sub: result(sub, sub, [h for cat in sorted(per_cat) if subcat_of[cat] == sub
                                      for h in per_cat[cat]])
               for sub in sorted(set(subcat_of.values()))}
    for sub, row in subcats.items():
        logger.info(kv(event="analogy_eval", subcategory=sub, n=row.n,
                       top1=row.top1, top5=row.top5))
    return AnalogyReport(categories=tuple(rows), subcategories=subcats,
                         excluded=tuple(sorted(excluded)))


def sample_kshot(items: Sequence[AnalogyItem], k: int,
                 seed: int | np.random.SeedSequence) -> tuple[list[str], list[str]]:
    """Pick k items per category; returns (training sentences, their item ids)."""
    if k < 1:
        raise EvalError(f"k must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    sentences: list[str] = []
    ids: list[str] = []
    grouped: dict[str, list[AnalogyItem]] = {}
    for item in items:
        grouped.setdefault(item.category, []).append(item)
    for cat in sorted(grouped):
        members = grouped[cat]
        take = min(k, len(members))
        for i in rng.choice(len(members), size=take, replace=False):
            item = members[int(i)]
            sentences.append(analogy_sentence(item))
            ids.append(item.item_id)
    return sentences, ids


def write_report_csv(report: AnalogyReport, path: str | Path) -> None:
    write_atomic(path, csv_bytes(
        [["category", "subcategory", "n", "top1", "top5"]]
        + [[r.category, r.subcategory, r.n, f"{r.top1:.6f}", f"{r.top5:.6f}"]
           for r in report.categories]))


def report_summary(report: AnalogyReport) -> dict:
    return {
        "categories": [
            {"category": r.category, "subcategory": r.subcategory, "n": r.n,
             "top1": r.top1, "top5": r.top5}
            for r in report.categories
        ],
        "subcategories": {
            s: {"n": r.n, "top1": r.top1, "top5": r.top5}
            for s, r in report.subcategories.items()
        },
        "excluded": list(report.excluded),
    }


def write_report_json(report: AnalogyReport, path: str | Path) -> None:
    write_atomic(path, json.dumps(report_summary(report), indent=2).encode("utf-8"))
