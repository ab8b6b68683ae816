"""Analogy rendering and accuracy-report tests.

Accuracy numbers from eval_analogies are recomputed item by item with the
basic prediction primitives, so the aggregation can never drift from what the
per-item rule actually does.
"""

import csv
import json

import numpy as np
import pytest

from qtmine.analogy import (
    AnalogyReport,
    _item_correct,
    analogy_sentence,
    eval_analogies,
    render_analogy,
    report_summary,
    sample_kshot,
    write_report_csv,
    write_report_json,
)
from qtmine.corpus import AnalogyItem
from qtmine.errors import EvalError
from qtmine.qt import mlm_predict, topk_tokens
from qtmine.tokenizer import encode


def make_items():
    pairs = [
        ("good", "bad"), ("hot", "cold"), ("up", "down"), ("fast", "slow"),
        ("wet", "dry"), ("old", "new"),
    ]
    items = []
    n = 0
    for a, b in pairs:
        for c, d in pairs:
            if (a, b) == (c, d):
                continue
            items.append(AnalogyItem(f"opposites#{n}", "opposites", "grammar", a, b, c, d))
            n += 1
    walks = [("walk", "walked"), ("jump", "jumped"), ("talk", "talked")]
    m = 0
    for a, b in walks:
        for c, d in walks:
            if (a, b) == (c, d):
                continue
            items.append(AnalogyItem(f"past-tense#{m}", "past-tense", "grammar", a, b, c, d))
            m += 1
    return items


def test_sentence_is_lowercased():
    item = AnalogyItem("x#0", "x", "grammar", "Hot", "Cold", "UP", "Down")
    assert analogy_sentence(item) == "hot is to cold as up is to down"


def test_render_masks_exactly_the_answer(tiny_setup):
    vocab, _ = tiny_setup
    for item in make_items()[:8]:
        query, gold = render_analogy(vocab, item)
        assert len(gold) == len(query.mask_positions)
        covered = b"".join(vocab.tokens[g] for g in gold)
        # the masked span ends the sentence and ends with the answer term
        assert covered.endswith(item.d.lower().encode())
        sentence = analogy_sentence(item)
        seq = list(query.ids)
        for p, g in zip(query.mask_positions, gold):
            seq[p] = g
        assert seq[1:-1] == encode(vocab, sentence)


def test_render_rejects_empty_answer(tiny_setup):
    vocab, _ = tiny_setup
    with pytest.raises(EvalError):
        render_analogy(vocab, AnalogyItem("x#0", "x", "grammar", "a", "b", "c", " "))


def test_item_correct_matches_the_topk_readout_under_ties(tiny_setup):
    # Rows of few distinct values tie often, so the id tie-break decides.
    vocab, _ = tiny_setup
    rng = np.random.default_rng(11)
    non_special = vocab.non_special_ids
    for _ in range(1000):
        probs = (rng.integers(0, 4, size=(3, vocab.size)) / 8).astype(np.float32)
        gold = rng.choice(non_special, size=3)
        if rng.random() < 0.5:  # often put the gold id among the leaders
            probs[np.arange(3), gold] = probs.max(axis=1)
        ok1 = ok5 = True
        for p, g in zip(probs, gold):
            top = [tid for tid, _, _ in topk_tokens(p, vocab, 5)]
            ok1 = ok1 and g == top[0]
            ok5 = ok5 and g in top
        assert _item_correct(probs, gold, vocab) == (ok1 and ok5, ok5)


def test_eval_matches_per_item_recomputation(tiny_setup):
    vocab, params = tiny_setup
    items = make_items()
    report = eval_analogies(params, vocab, items)

    # independent route: the all-positions top-k rule, one item at a time
    by_cat = {}
    for item in items:
        query, gold = render_analogy(vocab, item)
        probs = mlm_predict(params, query)
        ok1 = ok5 = True
        for p, g in zip(probs, gold):
            top = [tid for tid, _, _ in topk_tokens(p, vocab, 5)]
            ok1 = ok1 and g == top[0]
            ok5 = ok5 and g in top
        by_cat.setdefault(item.category, []).append((ok1 and ok5, ok5))

    assert {r.category for r in report.categories} == set(by_cat)
    for row in report.categories:
        hits = by_cat[row.category]
        assert row.n == len(hits)
        assert row.top1 == pytest.approx(sum(h1 for h1, _ in hits) / len(hits))
        assert row.top5 == pytest.approx(sum(h5 for _, h5 in hits) / len(hits))

    # subcategory rows aggregate member categories weighted by item count
    grammar = report.subcategories["grammar"]
    n = sum(r.n for r in report.categories)
    assert grammar.n == n
    expect_top5 = sum(r.top5 * r.n for r in report.categories) / n
    assert grammar.top5 == pytest.approx(expect_top5)


def test_subcategory_accuracy_is_its_hit_count_over_its_items(tiny_setup, monkeypatch):
    # Categories at 0/1 and 15/22: rebuilt from the rounded rates the
    # subcategory would read 0.6521739130434782, not 15/23.
    vocab, params = tiny_setup
    items = [AnalogyItem("one#0", "one", "grammar", "good", "bad", "hot", "cold")]
    items += [AnalogyItem(f"many#{i}", "many", "grammar", "up", "down", "fast", "slow")
              for i in range(22)]
    hits = iter([(False, False)] + [(True, True)] * 15 + [(False, True)] * 7)
    monkeypatch.setattr("qtmine.analogy._item_correct", lambda probs, gold, vocab: next(hits))
    report = eval_analogies(params, vocab, items)
    grammar = report.subcategories["grammar"]
    assert (grammar.n, grammar.top1, grammar.top5) == (23, 15 / 23, 22 / 23)


def test_eval_is_item_order_independent(tiny_setup):
    vocab, params = tiny_setup
    items = make_items()
    a = eval_analogies(params, vocab, items)
    b = eval_analogies(params, vocab, items[::-1])
    assert a.categories == b.categories


def test_exclusion_drops_items(tiny_setup):
    vocab, params = tiny_setup
    items = make_items()
    skip = {items[0].item_id, items[1].item_id}
    report = eval_analogies(params, vocab, items, exclude=skip)
    n_opp = sum(1 for it in items if it.category == "opposites") - 2
    assert report.category("opposites").n == n_opp
    assert set(report.excluded) == skip
    with pytest.raises(EvalError):
        eval_analogies(params, vocab, items, exclude=[it.item_id for it in items])
    with pytest.raises(KeyError):
        report.category("no-such-category")


def test_sample_kshot_contract():
    items = make_items()
    sents, ids = sample_kshot(items, k=3, seed=11)
    sents2, ids2 = sample_kshot(items, k=3, seed=11)
    assert (sents, ids) == (sents2, ids2)
    assert len(ids) == len(set(ids)) == 6  # 3 per category, 2 categories
    by_id = {it.item_id: it for it in items}
    for sent, item_id in zip(sents, ids):
        assert sent == analogy_sentence(by_id[item_id])
    n_opp = sum(1 for i in ids if i.startswith("opposites#"))
    assert n_opp == 3
    # k larger than a group clamps to the group size
    _, all_ids = sample_kshot(items, k=10_000, seed=0)
    assert len(all_ids) == len(items)
    with pytest.raises(EvalError):
        sample_kshot(items, k=0, seed=0)


def test_report_round_trips(tiny_setup, tmp_path):
    vocab, params = tiny_setup
    report = eval_analogies(params, vocab, make_items())
    csv_path = tmp_path / "report.csv"
    write_report_csv(report, csv_path)
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(report.categories)
    for row, r in zip(rows, report.categories):
        assert row["category"] == r.category
        assert int(row["n"]) == r.n
        assert float(row["top5"]) == pytest.approx(r.top5, abs=1e-6)

    json_path = tmp_path / "report.json"
    write_report_json(report, json_path)
    loaded = json.loads(json_path.read_text())
    assert loaded == report_summary(report)
    assert loaded["subcategories"]["grammar"]["n"] == report.subcategories["grammar"].n
