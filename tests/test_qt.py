"""Query rendering and query-target scoring tests.

The scoring identities (singleton target == MLM probability, full-vocabulary
target == total non-special mass, monotonicity under target growth) hold for
any parameters, so an untrained model is enough here; the large randomized
sweeps live in the acceptance suite.
"""

import numpy as np
import pytest

from qtmine.errors import EvalError, TemplateError
from qtmine.model import ModelConfig, init_params
from qtmine.qt import (
    DEFAULT_RANK_TEMPLATE,
    MASK_PLACEHOLDER,
    QuerySpec,
    TargetSpec,
    combination_score,
    masked_span_query,
    mlm_predict,
    permuted_analogy,
    qt_score,
    rank_by_qt,
    side_effect_score,
    target_mass,
    topk_tokens,
)
from qtmine.tokenizer import encode, train_bpe


def non_special_ids(vocab):
    return [i for i in range(vocab.size) if i not in vocab.special_ids]


# ---------------------------------------------------------------------------
# Query rendering


def test_render_structure(tiny_setup):
    vocab, params = tiny_setup
    template = "the {drug} shows <mask> <mask> in trials."
    q = QuerySpec.render(vocab, template, drug="tamivir")
    assert q.ids[0] == vocab.bos_id and q.ids[-1] == vocab.eos_id
    assert len(q.mask_positions) == 2
    assert all(q.ids[p] == vocab.mask_id for p in q.mask_positions)
    # non-mask tokens spell exactly the text around the placeholders
    text = "".join(template.replace("{drug}", "tamivir").split(MASK_PLACEHOLDER))
    inner = [t for t in q.ids[1:-1] if t != vocab.mask_id]
    assert b"".join(vocab.tokens[t] for t in inner) == text.encode()


def test_render_errors(tiny_setup):
    vocab, _ = tiny_setup
    with pytest.raises(TemplateError):
        QuerySpec.render(vocab, "no placeholders here")
    with pytest.raises(TemplateError):
        QuerySpec.render(vocab, "a {drug} b <mask>")  # slot but no drug
    with pytest.raises(TemplateError):
        QuerySpec.render(vocab, "a b <mask>", drug="x")  # drug but no slot


def test_masked_span_query_reconstructs_text(tiny_setup):
    vocab, _ = tiny_setup
    text = "trials showed efficacy in patients."
    start = text.index("efficacy")
    end = start + len("efficacy")
    query, gold = masked_span_query(vocab, text, start, end)
    assert len(gold) == len(query.mask_positions)
    # re-inserting the gold ids at the mask positions reproduces the encoding
    seq = list(query.ids)
    for p, g in zip(query.mask_positions, gold):
        seq[p] = g
    assert seq[1:-1] == encode(vocab, text)
    # the gold tokens cover the requested span (boundary merges may widen it)
    gold_bytes = b"".join(vocab.tokens[g] for g in gold)
    assert b"efficacy" in gold_bytes
    assert gold_bytes in text.encode()
    assert query.template.count(MASK_PLACEHOLDER) == len(gold)


def test_masked_span_query_whole_text(tiny_setup):
    vocab, _ = tiny_setup
    text = "dosing was tolerated."
    query, gold = masked_span_query(vocab, text, 0, len(text.encode()))
    assert list(gold) == encode(vocab, text)
    assert query.template == MASK_PLACEHOLDER * len(gold)


def test_masked_span_query_multibyte(tiny_setup):
    vocab, _ = tiny_setup
    text = "gene 日本語 assay"
    data = text.encode()
    start = data.index("日本語".encode())
    query, gold = masked_span_query(vocab, text, start, start + 3)  # first char
    covered = b"".join(vocab.tokens[g] for g in gold)
    assert "日".encode() in covered


def test_masked_span_query_rejects_bad_spans(tiny_setup):
    vocab, _ = tiny_setup
    text = "short text."
    n = len(text.encode())
    for start, end in [(-1, 3), (0, 0), (5, 5), (0, n + 1), (8, 4)]:
        with pytest.raises(EvalError):
            masked_span_query(vocab, text, start, end)


# ---------------------------------------------------------------------------
# Target sets


def test_target_from_phrase_dedups(tiny_setup):
    vocab, _ = tiny_setup
    t = TargetSpec.from_phrase(vocab, "the the the")
    assert len(t.ids) == len(set(t.ids))
    assert set(t.ids) <= set(non_special_ids(vocab))
    with pytest.raises(EvalError):
        TargetSpec.from_phrase(vocab, "")


def test_target_from_ids_validates(tiny_setup):
    vocab, _ = tiny_setup
    t = TargetSpec.from_ids(vocab, [7, 3, 7, 3, 9])
    assert t.ids == (7, 3, 9)
    with pytest.raises(EvalError):
        TargetSpec.from_ids(vocab, [vocab.size])
    with pytest.raises(EvalError):
        TargetSpec.from_ids(vocab, [vocab.mask_id])
    with pytest.raises(EvalError):
        TargetSpec.from_ids(vocab, [])


def test_target_set_is_never_empty():
    for phrase in (None, "efficacy"):
        with pytest.raises(EvalError):
            TargetSpec(phrase=phrase, ids=())


# ---------------------------------------------------------------------------
# Scoring identities


def test_singleton_target_equals_mlm_probability(tiny_setup):
    vocab, params = tiny_setup
    q = QuerySpec.render(vocab, "the drug shows <mask> and <mask>.")
    probs = mlm_predict(params, q)
    for tid in (ord("a"), ord("z"), 270):
        score = qt_score(params, q, TargetSpec.from_ids(vocab, [tid]))
        for k, p in enumerate(probs):
            assert score.per_position[k] == float(p[tid])


def test_full_target_equals_total_non_special_mass(tiny_setup):
    vocab, params = tiny_setup
    q = QuerySpec.render(vocab, "trials of the compound were <mask>.")
    allowed = non_special_ids(vocab)
    score = qt_score(params, q, TargetSpec.from_ids(vocab, allowed))
    p = mlm_predict(params, q)[0]
    mask = np.ones(vocab.size, bool)
    mask[list(vocab.special_ids)] = False
    assert abs(score.per_position[0] - p[mask].sum()) < 1e-12
    assert abs(score.per_position[0] - (1.0 - p[~mask].sum())) < 1e-6


def test_target_growth_is_monotone(tiny_setup):
    vocab, params = tiny_setup
    q = QuerySpec.render(vocab, "the assay result was <mask> <mask>.")
    rng = np.random.default_rng(17)
    pool = np.array(non_special_ids(vocab))
    for _ in range(50):
        n_small = int(rng.integers(1, 30))
        n_extra = int(rng.integers(1, 30))
        chosen = rng.choice(pool, size=n_small + n_extra, replace=False)
        small = TargetSpec.from_ids(vocab, chosen[:n_small])
        big = TargetSpec.from_ids(vocab, chosen)
        s, b = qt_score(params, q, small), qt_score(params, q, big)
        assert b.aggregate >= s.aggregate - 1e-12
        for ps, pb in zip(s.per_position, b.per_position):
            assert pb >= ps - 1e-12


def test_conditional_mode(tiny_setup):
    vocab, params = tiny_setup
    q = QuerySpec.render(vocab, "dose <mask> <mask> response")
    t = TargetSpec.from_ids(vocab, [ord("a"), ord("b")])
    probs = mlm_predict(params, q)
    score = qt_score(params, q, t, mode="conditional")
    for k, p in enumerate(probs):
        denom = p[ord("a")] + p[ord("b")]
        expect = p[t.ids[k]] / denom
        assert score.per_position[k] == pytest.approx(float(expect), rel=1e-12)
    with pytest.raises(EvalError):
        qt_score(params, q, TargetSpec.from_ids(vocab, [ord("a")]), mode="conditional")


def test_aggregations(tiny_setup):
    vocab, params = tiny_setup
    q = QuerySpec.render(vocab, "a <mask> b <mask> c")
    t = TargetSpec.from_phrase(vocab, "trials")
    mean_score = qt_score(params, q, t, agg="mean")
    geo_score = qt_score(params, q, t, agg="geomean")
    per = np.array(mean_score.per_position)
    assert mean_score.aggregate == pytest.approx(per.mean(), rel=1e-12)
    assert geo_score.aggregate == pytest.approx(np.exp(np.mean(np.log(per))), rel=1e-12)
    with pytest.raises(EvalError):
        qt_score(params, q, t, agg="median")
    with pytest.raises(EvalError):
        qt_score(params, q, t, mode="joint")


# ---------------------------------------------------------------------------
# Ranking


def test_rank_by_qt_orders_and_is_input_order_independent(tiny_setup):
    vocab, params = tiny_setup
    names = ["alfa", "bravo", "carol", "delta", "echo"]
    target = TargetSpec.from_phrase(vocab, "efficacy")
    ranked = rank_by_qt(params, vocab, names, target=target)
    assert [r.rank for r in ranked] == [1, 2, 3, 4, 5]
    scores = [r.score.aggregate for r in ranked]
    assert scores == sorted(scores, reverse=True)
    shuffled = rank_by_qt(params, vocab, names[::-1], target=target)
    assert shuffled == ranked
    assert rank_by_qt(params, vocab, [], target=target) == []
    with pytest.raises(TemplateError):
        rank_by_qt(params, vocab, names, template="no slot <mask>")


def test_rank_by_qt_matches_per_candidate_scores(tiny_setup):
    # Names of different token lengths put padding into the batched call.
    vocab, params = tiny_setup
    names = ["x", "alfa", "bravo charlie", "the compound", "tamivir zanavir delta",
             "no benefit was found in the cohort of patients"]
    lengths = {len(QuerySpec.render(vocab, DEFAULT_RANK_TEMPLATE, drug=n).ids) for n in names}
    assert len(lengths) >= 4
    target = TargetSpec.from_phrase(vocab, "efficacy")
    ranked = rank_by_qt(params, vocab, names, target=target)
    single = {n: qt_score(params, QuerySpec.render(vocab, DEFAULT_RANK_TEMPLATE, drug=n), target)
              for n in names}
    expect = sorted(names, key=lambda n: (-single[n].aggregate, n))
    assert [r.candidate for r in ranked] == expect
    for r in ranked:
        np.testing.assert_allclose(r.score.per_position, single[r.candidate].per_position,
                                   rtol=0, atol=1e-6)
        assert abs(r.score.aggregate - single[r.candidate].aggregate) <= 1e-6


def test_rank_by_qt_breaks_ties_lexicographically():
    # A merge-free vocabulary plus identical embedding rows for "x" and "y"
    # makes the two candidates score identically, forcing the name tie-break.
    vocab = train_bpe(["a b c d"], 280)
    assert vocab.merges == []
    cfg = ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16, max_seq=32,
                      vocab_size=vocab.size)
    params = init_params(cfg, seed=0)
    params.emb[ord("y")] = params.emb[ord("x")]
    target = TargetSpec.from_ids(vocab, [ord("e")])
    ranked = rank_by_qt(params, vocab, ["y", "x"], template="{drug} gives <mask>",
                        target=target)
    assert ranked[0].score.aggregate == ranked[1].score.aggregate
    assert [r.candidate for r in ranked] == ["x", "y"]


# ---------------------------------------------------------------------------
# Top-k readout


def test_topk_uniform_ties_resolve_by_id(tiny_setup):
    vocab, _ = tiny_setup
    probs = np.full(vocab.size, 1.0 / vocab.size)
    top = topk_tokens(probs, vocab, 4)
    assert [t[0] for t in top] == [0, 1, 2, 3]
    top_ex = topk_tokens(probs, vocab, 3, exclude={0, 2})
    assert [t[0] for t in top_ex] == [1, 3, 4]


def test_topk_matches_argsort_oracle(tiny_setup):
    vocab, _ = tiny_setup
    rng = np.random.default_rng(5)
    probs = rng.random(vocab.size)
    probs /= probs.sum()
    top = topk_tokens(probs, vocab, 10)
    assert all(t[0] not in vocab.special_ids for t in top)
    got = [t[2] for t in top]
    assert got == sorted(got, reverse=True)
    allowed = np.array(non_special_ids(vocab))
    expect = np.sort(probs[allowed])[::-1][:10]
    np.testing.assert_allclose(got, expect, rtol=1e-12)
    for tid, text, p in top:
        assert isinstance(text, str)
        assert p == float(probs[tid])


def test_topk_clamps_and_validates(tiny_setup):
    vocab, _ = tiny_setup
    probs = np.full(vocab.size, 1.0 / vocab.size)
    top = topk_tokens(probs, vocab, vocab.size + 50)
    assert len(top) == vocab.size - len(vocab.special_ids)
    with pytest.raises(EvalError):
        topk_tokens(probs, vocab, 0)


# ---------------------------------------------------------------------------
# Derived scorers


def test_permuted_analogy_excludes_input_terms(tiny_setup):
    vocab, params = tiny_setup
    out = permuted_analogy(params, vocab, "drug", "protein", k=5)
    assert len(out) == 5
    banned = set()
    for term in ("drug", "protein"):
        banned.update(encode(vocab, term))
        banned.update(encode(vocab, " " + term))
    assert all(tid not in banned for tid, _, _ in out)
    with pytest.raises(EvalError):
        permuted_analogy(params, vocab, "", "protein")


def test_combination_score_matches_joined_query(tiny_setup):
    vocab, params = tiny_setup
    target = TargetSpec.from_phrase(vocab, "efficacy")
    combo = combination_score(params, vocab, ["alfa", "bravo"], target=target)
    direct = qt_score(
        params,
        QuerySpec.render(vocab, DEFAULT_RANK_TEMPLATE, drug="alfa and bravo"),
        target,
    )
    assert combo == direct
    with pytest.raises(EvalError):
        combination_score(params, vocab, ["alfa"], target=target)


def test_side_effect_score_uses_negative_target(tiny_setup):
    vocab, params = tiny_setup
    neg = TargetSpec.from_phrase(vocab, "severe harm")
    got = side_effect_score(params, vocab, "alfa", neg)
    direct = qt_score(params, QuerySpec.render(vocab, DEFAULT_RANK_TEMPLATE, drug="alfa"), neg)
    assert got == direct


def test_target_mass_is_plain_sum(tiny_setup):
    vocab, _ = tiny_setup
    probs = np.zeros(vocab.size)
    probs[10] = 0.25
    probs[20] = 0.5
    t = TargetSpec.from_ids(vocab, [10, 20, 30])
    assert target_mass(probs, t) == 0.75
