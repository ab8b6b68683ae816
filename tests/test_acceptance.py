"""Acceptance gate: one timed end-to-end check per core guarantee.

Each test prints a single `acceptance <label>: PASS/FAIL` line (collected
again in the terminal summary) and fails loudly if its guarantee or time
budget is missed. These tests intentionally re-verify behavior covered by
the unit suites, but at the stated scale and tolerances.
"""

from __future__ import annotations

import math
import time
from collections import Counter

import numpy as np
import pytest

import synth
from conftest import MAIN_TRAIN_CFG, TIMINGS, record_criterion
from qtmine import analogy as A
from qtmine import fcrank as F
from qtmine import highlight as H
from qtmine import model as M
from qtmine import qt as Q
from qtmine import train as T
from qtmine.corpus import (ApprovalRecord, TrialRecord, candidates_at_year,
                           load_analogies, load_corpus, load_trials)
from qtmine.tokenizer import decode, encode, save_vocab, train_bpe


# ---------------------------------------------------------------------------
# 1. tokenizer: random round-trips and bit-stable retraining


def test_tokenizer_round_trip_and_stable_retrain(synth_texts, tmp_path):
    t0 = time.perf_counter()
    corpus = synth_texts[:300]
    vocab = train_bpe(corpus, 480)

    texts = synth.round_trip_strings()
    failures = sum(decode(vocab, encode(vocab, s)) != s for s in texts)

    retrained = train_bpe(corpus, 480)
    same_tokens = retrained.tokens == vocab.tokens and retrained.merges == vocab.merges
    save_vocab(vocab, tmp_path / "a.json")
    save_vocab(retrained, tmp_path / "b.json")
    same_bytes = (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    elapsed = time.perf_counter() - t0
    ok = failures == 0 and same_tokens and same_bytes and elapsed < 60.0
    record_criterion(
        "1 tokenizer round-trip + stable retrain", ok,
        f"{len(texts)} round-trips, {failures} failures, "
        f"retrain identical={same_tokens and same_bytes}, {elapsed:.1f}s")
    assert failures == 0
    assert same_tokens and same_bytes
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. gradients: elementwise central-difference check over every parameter


def test_gradients_match_finite_differences_elementwise():
    t0 = time.perf_counter()
    cfg = M.ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16,
                        max_seq=12, vocab_size=300)
    params = M.init_params(cfg, seed=5).astype(np.float64)

    rng = np.random.default_rng(42)
    ids = rng.integers(0, cfg.vocab_size, size=(2, 10))
    lengths = np.asarray([10, 7])
    delta = np.zeros((2, 10), dtype=bool)
    delta[0, 2] = delta[0, 5] = delta[1, 1] = True
    labels = rng.integers(0, cfg.vocab_size, size=3)

    _, grads = M.loss_and_grads(params, ids, lengths, delta, labels)

    def mean_loss() -> float:
        ce_sum, n = M.eval_loss(params, ids, lengths, delta, labels)
        return ce_sum / n

    eps = 1e-5
    n_checked = 0
    worst = 0.0
    for name, tensor in params.named_tensors():
        grad = grads[name].reshape(-1)
        flat = tensor.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = mean_loss()
            flat[i] = orig - eps
            lm = mean_loss()
            flat[i] = orig
            fd = (lp - lm) / (2.0 * eps)
            an = float(grad[i])
            # Floor the denominator at 1e-6: below that, central differences
            # are dominated by float64 rounding of the loss itself.
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
            worst = max(worst, rel)
            assert rel < 1e-4, f"{name}[{i}]: fd={fd:.6e} analytic={an:.6e} rel={rel:.3e}"
            n_checked += 1

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 120.0
    record_criterion(
        "2 finite-difference gradient check", ok,
        f"{n_checked} coordinates, worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 3. masking statistics at scale


def test_masking_rates_over_100k_positions(tiny_setup):
    t0 = time.perf_counter()
    vocab, _ = tiny_setup
    cfg = T.TrainConfig()
    non_special = np.asarray(
        [i for i in range(vocab.size) if i not in vocab.special_ids])
    rng = np.random.default_rng(7)

    total = targeted = masked = randomized = 0
    while total < 100_000:
        row = rng.choice(non_special, size=500)
        corrupted, delta, labels = T.dynamic_mask(rng, row, vocab, cfg)
        total += row.size
        targeted += int(delta.sum())
        masked += int((corrupted[delta] == vocab.mask_id).sum())
        randomized += int((corrupted[delta] != vocab.mask_id).sum())
        assert np.array_equal(labels, row[delta])

    target_rate = targeted / total
    mask_rate = masked / targeted
    random_rate = randomized / targeted
    elapsed = time.perf_counter() - t0
    ok = (abs(target_rate - 0.135) < 0.01
          and abs(mask_rate - 0.90) < 0.02
          and abs(random_rate - 0.10) < 0.02
          and elapsed < 10.0)
    record_criterion(
        "3 masking rates at 100k positions", ok,
        f"targeted {target_rate:.4f}, mask {mask_rate:.4f}, "
        f"random {random_rate:.4f}, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 4. query-target scoring: decomposition, total mass, monotonicity


def test_qt_decomposition_on_random_cases(tiny_setup):
    t0 = time.perf_counter()
    vocab, params = tiny_setup
    non_special = [i for i in range(vocab.size) if i not in vocab.special_ids]
    full_target = Q.TargetSpec.from_ids(vocab, non_special)
    special = sorted(vocab.special_ids)
    words = ["alfa", "bravo", "delta", "echo", "golf", "hotel", "india", "kilo"]
    rng = np.random.default_rng(2026)

    for _ in range(1000):
        n_mask = int(rng.integers(1, 4))
        picked = [words[int(i)] for i in rng.integers(0, len(words), size=3)]
        template = " ".join(picked) + " " + " ".join(["<mask>"] * n_mask)
        query = Q.QuerySpec.render(vocab, template)
        probs = Q.mlm_predict(params, query)

        tid = int(non_special[int(rng.integers(0, len(non_special)))])
        single = Q.qt_score(params, query, Q.TargetSpec.from_ids(vocab, [tid]))
        for k, p in enumerate(probs):
            assert single.per_position[k] == float(p[tid])

        full = Q.qt_score(params, query, full_target)
        for k, p in enumerate(probs):
            assert abs(full.per_position[k] - (1.0 - float(p[special].sum()))) < 1e-6

        b = int(rng.integers(2, 40))
        a = int(rng.integers(1, b))
        wide_ids = rng.choice(non_special, size=b, replace=False)
        wide = Q.qt_score(params, query, Q.TargetSpec.from_ids(vocab, wide_ids))
        narrow = Q.qt_score(params, query, Q.TargetSpec.from_ids(vocab, wide_ids[:a]))
        for k in range(len(probs)):
            assert narrow.per_position[k] <= wide.per_position[k] + 1e-12
        assert narrow.aggregate <= wide.aggregate + 1e-12

    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    record_criterion(
        "4 qt decomposition/monotonicity", ok,
        f"1000 random cases, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 5. end-to-end training on the synthetic corpus


def test_end_to_end_synthetic_training(synth_run):
    fixture_time = TIMINGS.get("synth_vocab", 0.0) + TIMINGS.get("synth_train", 0.0)
    t0 = time.perf_counter()
    vocab, params = synth_run.vocab, synth_run.params
    result = synth_run.result
    assert result.steps <= 2000

    # (a) eval loss halves relative to the untrained model
    eval_texts = synth_run.texts[::10]
    initial_ce = math.log(
        T.perplexity(M.init_params(synth_run.config, seed=0), vocab,
                     eval_texts, seed=0))
    ratio = result.final_eval_ce / initial_ce
    loss_ok = ratio < 0.5

    # (b) memorized cloze completions
    cases = synth.cloze_cases()
    hits = 0
    for drug, prot in cases:
        text = f"{drug} inhibits {prot}."
        query, gold = Q.masked_span_query(
            vocab, text, len(f"{drug} inhibits "), len(text.encode("utf-8")))
        probs = Q.mlm_predict(params, query)
        hits += all(int(np.argmax(p)) == g for p, g in zip(probs, gold))
    cloze_ok = hits >= 0.9 * len(cases)

    # (c) analogy accuracy after k-shot fine-tuning, with a positive delta
    items = synth.analogy_items(n=200, seed=7)
    sentences, shot_ids = A.sample_kshot(items, k=80, seed=123)
    before = A.eval_analogies(params, vocab, items, exclude=shot_ids)
    tuned = T.kshot_finetune(
        params, vocab, sentences, seed=11, n_steps=800,
        cfg=T.TrainConfig(lr=1e-3, batch_size=16, n_epochs=1,
                          mask_rate=0.30, warmup_frac=0.06))
    after = A.eval_analogies(tuned, vocab, items, exclude=shot_ids)
    row_after = {r.category: r for r in after.categories}["drug-inhibition"]
    row_before = {r.category: r for r in before.categories}["drug-inhibition"]
    delta_top1 = row_after.top1 - row_before.top1
    kshot_ok = row_after.top5 >= 0.9 and delta_top1 > 0

    # (d) the efficacy-co-mentioned drug outranks the never-mentioned one
    eff_ids = [i for i, tok in enumerate(vocab.tokens) if tok.endswith(b"efficacy.")]
    target = Q.TargetSpec.from_ids(vocab, eff_ids)
    seed_cfg = T.TrainConfig(lr=1e-3, batch_size=32, n_epochs=10, warmup_frac=0.06)
    wins = 0
    for seed in range(1, 11):
        fresh = M.init_params(synth_run.config, seed=seed)
        res = T.train(fresh, vocab, synth_run.streams, seed_cfg, seed=seed)
        assert res.steps <= 2000
        ranked = Q.rank_by_qt(
            res.params, vocab, ["dolavir", "tamivir"],
            template="in clinical trials, {drug} demonstrated <mask>",
            target=target)
        wins += ranked[0].candidate == "tamivir"
    rank_ok = wins >= 9

    elapsed = fixture_time + (time.perf_counter() - t0)
    ok = loss_ok and cloze_ok and kshot_ok and rank_ok and elapsed < 900.0
    record_criterion(
        "5 end-to-end synthetic training", ok,
        f"loss ratio {ratio:.3f}, cloze {hits}/{len(cases)}, "
        f"kshot top5 {row_after.top5:.3f} delta_top1 {delta_top1:+.3f}, "
        f"rank wins {wins}/10, {elapsed:.0f}s")
    assert loss_ok, f"eval loss ratio {ratio:.3f}"
    assert cloze_ok, f"cloze {hits}/{len(cases)}"
    assert kshot_ok, f"top5 {row_after.top5:.3f} delta {delta_top1:+.3f}"
    assert rank_ok, f"wins {wins}/10"
    assert elapsed < 900.0


# ---------------------------------------------------------------------------
# 6. forward chaining never sees post-cutoff evidence


def test_forward_chaining_ignores_post_cutoff_documents(tmp_path):
    t0 = time.perf_counter()
    trials = [
        TrialRecord("T1", 2001, ("tamivir",), "influenza"),
        TrialRecord("T2", 2001, ("gemavir",), "influenza"),
        TrialRecord("T3", 2002, ("zanavir", "ocrevir"), "influenza"),
    ]
    approvals = [ApprovalRecord("tamivir", 2003), ApprovalRecord("zanavir", 2004)]
    late_doc = {
        "id": "late2005",
        "title": "late report",
        "abstract": "zanavir demonstrated efficacy in influenza.",
        "body": "zanavir reduced mortality. gemavir demonstrated efficacy.",
        "publish_year": 2005,
    }
    base = load_corpus(synth.write_fc_corpus(tmp_path / "base.jsonl"))
    injected = load_corpus(
        synth.write_fc_corpus(tmp_path / "inj.jsonl", extra_docs=[late_doc]))
    assert len(injected) == len(base) + 1

    kwargs = dict(
        vocab_size=320,
        model_dims={"n_layers": 1, "n_heads": 2, "d_model": 32,
                    "d_ff": 64, "max_seq": 64},
        train_cfg=T.TrainConfig(lr=1e-3, batch_size=16, n_epochs=2),
        base_seed=0,
    )
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    runs_a, _ = F.fc_analysis(base, trials, approvals, [2001, 2002],
                              outdir=dir_a, **kwargs)
    runs_b, _ = F.fc_analysis(injected, trials, approvals, [2001, 2002],
                              outdir=dir_b, **kwargs)

    runs_equal = runs_a == runs_b
    files_equal = all(
        (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        for name in ("rank_2001.csv", "rank_2002.csv", "fc_plot.csv",
                     "fc_metrics.json"))
    elapsed = time.perf_counter() - t0
    ok = runs_equal and files_equal and elapsed < 300.0
    record_criterion(
        "6 forward-chaining causality", ok,
        f"runs identical={runs_equal}, outputs identical={files_equal}, "
        f"{elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 7. fixture tables parse to the expected counts


def test_fixture_tables_parse_to_expected_counts(trials_csv, analogy_tsv):
    t0 = time.perf_counter()
    trials = load_trials(trials_csv)
    n_2005 = sum(t.year <= 2005 for t in trials)
    d_2005 = len(candidates_at_year(trials, 2005))
    n_2019 = sum(t.year <= 2019 for t in trials)
    d_2019 = len(candidates_at_year(trials, 2019))

    items = load_analogies(analogy_tsv)
    counts = Counter(it.category for it in items)
    table_ok = all(counts[cat] == n for cat, _sub, n in synth.ANALOGY_TABLE)

    elapsed = time.perf_counter() - t0
    ok = ((n_2005, d_2005) == (17, 16)
          and (n_2019, d_2019) == (659, 621)
          and counts["opposites"] == 703
          and counts["drug-inhibition"] == 211
          and table_ok and elapsed < 10.0)
    record_criterion(
        "7 fixture parse counts", ok,
        f"2005: {n_2005}/{d_2005}, 2019: {n_2019}/{d_2019}, "
        f"opposites {counts['opposites']}, drug-inhibition "
        f"{counts['drug-inhibition']}, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 8. attention normalization and highlight round-trips


def test_attention_normalization_and_html_round_trip(synth_run, tmp_path):
    t0 = time.perf_counter()
    vocab, params = synth_run.vocab, synth_run.params
    passage = ("tamivir inhibits havin. zanavir reduced mortality in trials! "
               "placebo showed no benefit? dosing was daily.")

    ids = encode(vocab, passage)
    out = M.forward(params, ids)
    row_sums = out.attentions.sum(axis=-1)
    attn_ok = bool(np.all(np.abs(row_sums - 1.0) < 1e-6))

    doc = H.highlight_passage(params, vocab, passage, "efficacy")
    span_ok = "".join(s.text for s in doc.sentences) == passage
    span_ok &= all(passage[s.start:s.end] == s.text for s in doc.sentences)

    html = H.render_html(doc)
    parsed = H.parse_html_scores(html)
    expected = [float(f"{s.score:.6f}") for s in doc.sentences]
    html_ok = parsed == expected
    H.write_html(doc, tmp_path / "doc.html")
    html_ok &= H.parse_html_scores(
        (tmp_path / "doc.html").read_text(encoding="utf-8")) == expected

    elapsed = time.perf_counter() - t0
    ok = attn_ok and span_ok and html_ok and elapsed < 60.0
    record_criterion(
        "8 attention + highlight round-trip", ok,
        f"attention rows={attn_ok}, spans={span_ok}, "
        f"html scores={html_ok}, {elapsed:.1f}s")
    assert ok
