"""Analogy prompts and top-k accuracy evaluation.

An item (a, b, c, d) is rendered by tokenizing the completed sentence
"a is to b as c is to d" and masking the token span that covers the answer
" d", so the prompt's context tokens are exactly the ones the model sees when
that sentence appears in training text (byte-pair merges that cross into the
answer are absorbed into the masked span). One mask per gold token; an item is
correct at top-k iff the gold token is in the model's top-k at every masked
position.

Few-shot support: sample k completed analogy sentences per category, fine-tune
on them, and evaluate with those item ids excluded.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import model as M
from .corpus import AnalogyItem, group_by_category
from .errors import EvalError
from .qt import QuerySpec, masked_span_query, predict_queries, topk_tokens
from .tokenizer import Vocab
from .util import get_logger, kv

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

    def category(self, name: str) -> CategoryResult:
        for row in self.categories:
            if row.category == name:
                return row
        raise KeyError(name)


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
    """(top-1 correct, top-5 correct) with the all-positions rule."""
    ok1 = ok5 = True
    for p, gold_id in zip(probs, gold):
        top5 = [tid for tid, _, _ in topk_tokens(p, vocab, 5)]
        ok5 = ok5 and gold_id in top5
        ok1 = ok1 and gold_id == top5[0]
        if not ok5:
            break
    return ok1 and ok5, ok5


def eval_analogies(params: M.Params, vocab: Vocab, items: Sequence[AnalogyItem],
                   exclude: Iterable[str] = ()) -> AnalogyReport:
    """Per-category and per-subcategory top-1/top-5 accuracy.

    Items whose ids are in `exclude` (e.g. few-shot training items) are
    dropped before evaluation; accuracies are independent of item order.
    """
    excluded = frozenset(exclude)
    kept = [it for it in items if it.item_id not in excluded]
    if not kept:
        raise EvalError("no analogy items left after exclusion")

    queries, golds = zip(*(render_analogy(vocab, it) for it in kept))
    results = [_item_correct(probs, gold, vocab)
               for probs, gold in zip(predict_queries(params, queries), golds)]
    per_cat: dict[str, list[tuple[bool, bool]]] = {}
    subcat_of: dict[str, str] = {}
    for item, res in zip(kept, results):
        per_cat.setdefault(item.category, []).append(res)
        subcat_of[item.category] = item.subcategory

    rows = []
    for cat in sorted(per_cat):
        hits = per_cat[cat]
        n = len(hits)
        rows.append(CategoryResult(
            category=cat, subcategory=subcat_of[cat], n=n,
            top1=sum(h1 for h1, _ in hits) / n,
            top5=sum(h5 for _, h5 in hits) / n,
        ))

    subcats: dict[str, CategoryResult] = {}
    for sub in sorted({r.subcategory for r in rows}):
        member = [r for r in rows if r.subcategory == sub]
        n = sum(r.n for r in member)
        subcats[sub] = CategoryResult(
            category=sub, subcategory=sub, n=n,
            top1=sum(r.top1 * r.n for r in member) / n,
            top5=sum(r.top5 * r.n for r in member) / n,
        )
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
    grouped = group_by_category(items)
    for cat in sorted(grouped):
        members = grouped[cat]
        take = min(k, len(members))
        for i in rng.choice(len(members), size=take, replace=False):
            item = members[int(i)]
            sentences.append(analogy_sentence(item))
            ids.append(item.item_id)
    return sentences, ids


@dataclass(frozen=True)
class KshotComparison:
    before: AnalogyReport
    after: AnalogyReport
    delta_top1: Mapping[str, float]   # per category, after - before
    delta_top5: Mapping[str, float]
    subcategory_delta_top1: Mapping[str, float]
    subcategory_delta_top5: Mapping[str, float]


def compare_kshot(params_before: M.Params, params_after: M.Params, vocab: Vocab,
                  items: Sequence[AnalogyItem], exclude: Iterable[str] = ()) -> KshotComparison:
    """Evaluate both models on the same items/exclusions and report deltas."""
    excluded = frozenset(exclude)
    before = eval_analogies(params_before, vocab, items, excluded)
    after = eval_analogies(params_after, vocab, items, excluded)
    d1 = {r.category: after.category(r.category).top1 - r.top1 for r in before.categories}
    d5 = {r.category: after.category(r.category).top5 - r.top5 for r in before.categories}
    sd1 = {s: after.subcategories[s].top1 - r.top1 for s, r in before.subcategories.items()}
    sd5 = {s: after.subcategories[s].top5 - r.top5 for s, r in before.subcategories.items()}
    return KshotComparison(before=before, after=after, delta_top1=d1, delta_top5=d5,
                           subcategory_delta_top1=sd1, subcategory_delta_top5=sd5)


def write_report_csv(report: AnalogyReport, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["category", "subcategory", "n", "top1", "top5"])
        for r in report.categories:
            writer.writerow([r.category, r.subcategory, r.n, f"{r.top1:.6f}", f"{r.top5:.6f}"])


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
    Path(path).write_text(json.dumps(report_summary(report), indent=2), encoding="utf-8")
