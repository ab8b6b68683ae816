"""Forward-chaining validation tests.

Metric arithmetic is pinned by hand-computed examples and a fuzz over random
rankings; the analysis loop is exercised end to end on a small dated corpus
and its aggregate metrics are recomputed in the test from the raw runs.
"""

import json

import numpy as np
import pytest

import synth
from qtmine import train as T
from qtmine.corpus import (ApprovalRecord, TrialRecord, candidates_at_year, filter_by_year,
                           load_corpus)
from qtmine.errors import EvalError, TemplateError
from qtmine.fcrank import (
    HIT_KS,
    FcRun,
    _run_metrics,
    fc_analysis,
    rank_current,
    score_runs,
    train_at_cutoff,
    write_fc_outputs,
)
from qtmine.model import ModelConfig, init_params
from qtmine.qt import DEFAULT_TARGET_PHRASE, QtScore, RankedItem, TargetSpec
from qtmine.tokenizer import train_bpe
from qtmine.train import TrainConfig, build_windows

MODEL_DIMS = {"n_layers": 1, "n_heads": 2, "d_model": 32, "d_ff": 64, "max_seq": 64}
FC_TRAIN = TrainConfig(lr=1e-3, batch_size=16, n_epochs=2)
FC_VOCAB = 320

TRIALS = [
    TrialRecord("T1", 2001, ("tamivir",), "flu"),
    TrialRecord("T2", 2001, ("gemavir",), "flu"),
    TrialRecord("T3", 2002, ("zanavir", "ocrevir"), "flu"),
]
APPROVALS = [
    ApprovalRecord("tamivir", 2003),
    ApprovalRecord("zanavir", 2004),
    ApprovalRecord("neviron", 2005),  # never trialed here
]


def ranked_items(*names):
    return tuple(
        RankedItem(rank=i + 1, candidate=name,
                   score=QtScore(per_position=(0.5,), aggregate=0.5))
        for i, name in enumerate(names)
    )


@pytest.fixture(scope="module")
def fc_docs(tmp_path_factory):
    path = synth.write_fc_corpus(tmp_path_factory.mktemp("fc") / "docs.jsonl")
    return load_corpus(path)


# ---------------------------------------------------------------------------
# Metric arithmetic


def test_run_metrics_hand_example():
    run = FcRun(cutoff_year=2000, candidates=("a", "b", "c"),
                ranked=ranked_items("a", "b", "c"),
                approvals_after=(("b", 2003), ("c", 2004), ("z", 2005)))
    m = _run_metrics(run)
    assert m.hits == {1: 0.0, 3: 1.0, 5: 1.0}
    assert m.mrr == pytest.approx((1 / 2 + 1 / 3) / 2)  # = 5/12
    assert m.n_approved == 2
    assert m.n_candidates == 3


def test_run_metrics_no_approvals_present():
    run = FcRun(cutoff_year=2000, candidates=("a", "b"),
                ranked=ranked_items("a", "b"), approvals_after=(("z", 2005),))
    m = _run_metrics(run)
    assert m.hits == {k: 0.0 for k in HIT_KS}
    assert m.mrr == 0.0 and m.n_approved == 0


def test_hits_and_mrr_fuzz():
    rng = np.random.default_rng(2026)
    names = [f"drug{i}" for i in range(12)]
    for _ in range(200):
        order = rng.permutation(12)
        ranked = ranked_items(*(names[i] for i in order))
        n_app = int(rng.integers(0, 5))
        approved = rng.choice(names, size=n_app, replace=False).tolist()
        run = FcRun(2000, tuple(names), ranked, tuple((a, 2005) for a in approved))
        m = _run_metrics(run)
        assert m.hits[1] <= m.hits[3] <= m.hits[5]
        assert 0.0 <= m.mrr <= 1.0
        present_ranks = [item.rank for item in ranked if item.candidate in approved]
        best = min(present_ranks) if present_ranks else None
        for k in HIT_KS:
            assert m.hits[k] == (1.0 if best is not None and best <= k else 0.0)
        if present_ranks:
            assert m.mrr == pytest.approx(np.mean([1 / r for r in present_ranks]))


def test_score_runs_excludes_empty_years():
    scored = FcRun(2001, ("a", "b"), ranked_items("a", "b"), (("a", 2002),))
    empty = FcRun(1995, (), (), (("a", 2002),))
    metrics = score_runs([empty, scored])
    assert len(metrics.per_year) == 1
    assert metrics.mean_hits[1] == 1.0
    assert metrics.mean_mrr == pytest.approx(1.0)
    silent = score_runs([empty])
    assert len(silent.per_year) == 0
    assert silent.mean_hits == {k: 0.0 for k in HIT_KS}


# ---------------------------------------------------------------------------
# The analysis loop


def test_fc_analysis_validates_years(fc_docs):
    for bad in ([], [2002, 2001], [2001, 2001]):
        with pytest.raises(EvalError):
            fc_analysis(fc_docs, TRIALS, APPROVALS, bad, vocab_size=FC_VOCAB,
                        model_dims=MODEL_DIMS, train_cfg=FC_TRAIN, base_seed=0)


def test_fc_analysis_rejects_an_empty_target_before_training(fc_docs, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained a cutoff")

    monkeypatch.setattr("qtmine.fcrank.train_at_cutoff", no_training)
    with pytest.raises(EvalError, match="target phrase is empty"):
        fc_analysis(fc_docs, TRIALS, APPROVALS, [2001, 2002], vocab_size=FC_VOCAB,
                    model_dims=MODEL_DIMS, train_cfg=FC_TRAIN, base_seed=0, target_phrase="")


def test_fc_analysis_rejects_a_template_without_a_drug_slot_before_training(fc_docs, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained a cutoff")

    monkeypatch.setattr("qtmine.fcrank.train_at_cutoff", no_training)
    with pytest.raises(TemplateError, match="must contain"):
        fc_analysis(fc_docs, TRIALS, APPROVALS, [2001, 2002], vocab_size=FC_VOCAB,
                    model_dims=MODEL_DIMS, train_cfg=FC_TRAIN, base_seed=0,
                    template="In clinical trials, this drug demonstrated <mask>.")


def test_train_at_cutoff_needs_dated_documents(fc_docs):
    with pytest.raises(EvalError):
        train_at_cutoff(fc_docs, 1990, vocab_size=FC_VOCAB, model_dims=MODEL_DIMS,
                        train_cfg=FC_TRAIN, base_seed=0)


def test_train_at_cutoff_matches_the_two_pass_reference(fc_docs, monkeypatch):
    # The reference tokenizes each text twice, as fc did before BPE training
    # handed back its streams: train_bpe, then build_windows encodes the texts
    # again, then the same training runs on those windows.
    cutoff, base_seed = 2002, 4
    vocab, params = train_at_cutoff(fc_docs, cutoff, vocab_size=FC_VOCAB, model_dims=MODEL_DIMS,
                                    train_cfg=FC_TRAIN, base_seed=base_seed)

    texts = [d.text() for d in filter_by_year(fc_docs, cutoff).documents]
    ref_vocab = train_bpe(texts, FC_VOCAB)
    windows = build_windows(ref_vocab, texts, MODEL_DIMS["max_seq"])
    seed_init, seed_train = np.random.SeedSequence([base_seed, cutoff]).spawn(2)
    ref = init_params(ModelConfig(vocab_size=ref_vocab.size, **MODEL_DIMS), seed_init)
    # `train` windows its streams in this one call; the reference's windows
    # stand in for it, so the streams argument goes unread.
    monkeypatch.setattr(T, "window_streams", lambda *_: windows)
    T.train(ref, ref_vocab, None, FC_TRAIN, seed_train)

    assert vocab == ref_vocab
    for (name, got), (_, want) in zip(params.named_tensors(), ref.named_tensors()):
        assert got.tobytes() == want.tobytes(), name


def test_fc_analysis_structure_and_aggregation(fc_docs, tmp_path):
    years = [2001, 2002]
    runs, metrics = fc_analysis(fc_docs, TRIALS, APPROVALS, years, vocab_size=FC_VOCAB,
                                model_dims=MODEL_DIMS, train_cfg=FC_TRAIN, base_seed=7)
    write_fc_outputs(runs, metrics, tmp_path / "out")
    assert [r.cutoff_year for r in runs] == years
    for run in runs:
        assert list(run.candidates) == candidates_at_year(TRIALS, run.cutoff_year)
        assert sorted(i.candidate for i in run.ranked) == sorted(run.candidates)
        assert [i.rank for i in run.ranked] == list(range(1, len(run.candidates) + 1))
        scores = [i.score.aggregate for i in run.ranked]
        assert scores == sorted(scores, reverse=True)
        assert all(year > run.cutoff_year for _, year in run.approvals_after)
    assert runs[0].approvals_after == (("neviron", 2005), ("tamivir", 2003), ("zanavir", 2004))
    assert runs[1].approvals_after == (("neviron", 2005), ("tamivir", 2003), ("zanavir", 2004))

    # aggregate metrics equal a recomputation from the raw runs
    expect = [_run_metrics(r) for r in runs]
    assert metrics.per_year == tuple(expect)
    for k in HIT_KS:
        assert metrics.mean_hits[k] == pytest.approx(np.mean([m.hits[k] for m in expect]))
    assert metrics.mean_mrr == pytest.approx(np.mean([m.mrr for m in expect]))

    # emitted files parse and agree with the in-memory results
    out = tmp_path / "out"
    for run in runs:
        lines = (out / f"rank_{run.cutoff_year}.csv").read_text().strip().splitlines()
        assert lines[0] == "rank,candidate,score"
        assert len(lines) == 1 + len(run.ranked)
        rank, cand, score = lines[1].split(",")
        assert (int(rank), cand) == (1, run.ranked[0].candidate)
        assert float(score) == pytest.approx(run.ranked[0].score.aggregate, abs=1e-6)
    plot_lines = (out / "fc_plot.csv").read_text().strip().splitlines()
    assert len(plot_lines) == 1 + sum(len(r.ranked) for r in runs)
    payload = json.loads((out / "fc_metrics.json").read_text())
    assert payload["retrained"] is True
    assert payload["n_scored_years"] == 2
    assert payload["mean_mrr"] == pytest.approx(metrics.mean_mrr)
    assert {f"hits@{k}" for k in HIT_KS} <= set(payload["mean_hits"])


def test_fc_analysis_is_bit_reproducible(fc_docs, tmp_path):
    kwargs = dict(vocab_size=FC_VOCAB, model_dims=MODEL_DIMS, train_cfg=FC_TRAIN,
                  base_seed=3)
    runs_a, metrics_a = fc_analysis(fc_docs, TRIALS, APPROVALS, [2001], **kwargs)
    runs_b, metrics_b = fc_analysis(fc_docs, TRIALS, APPROVALS, [2001], **kwargs)
    write_fc_outputs(runs_a, metrics_a, tmp_path / "a")
    write_fc_outputs(runs_b, metrics_b, tmp_path / "b")
    assert runs_a == runs_b  # includes exact float score equality
    for name in ("rank_2001.csv", "fc_plot.csv", "fc_metrics.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_fc_analysis_records_empty_years(fc_docs, qtmine_log):
    runs, metrics = fc_analysis(fc_docs, TRIALS, APPROVALS, [1995, 2001],
                                vocab_size=FC_VOCAB, model_dims=MODEL_DIMS,
                                train_cfg=FC_TRAIN, base_seed=0)
    assert runs[0].candidates == () and runs[0].ranked == ()
    assert len(metrics.per_year) == 1
    assert metrics.per_year[0].cutoff_year == 2001
    assert [m for m in qtmine_log if "1995" in m] == ["event=fc_no_candidates cutoff=1995"]


def test_fc_analysis_trains_once_per_model(fc_docs, monkeypatch):
    # Each scored cutoff trains once, on its own cutoff; 1995 has no
    # candidates and trains nothing.
    cutoffs = []

    def counting(docs, cutoff, **kwargs):
        cutoffs.append(cutoff)
        return train_at_cutoff(docs, cutoff, **kwargs)

    monkeypatch.setattr("qtmine.fcrank.train_at_cutoff", counting)
    fc_analysis(fc_docs, TRIALS, APPROVALS, [1995, 2001, 2002], vocab_size=FC_VOCAB,
                model_dims=MODEL_DIMS, train_cfg=FC_TRAIN, base_seed=1)
    assert cutoffs == [2001, 2002]


def test_rank_current_covers_all_candidates(fc_docs):
    vocab, params = train_at_cutoff(fc_docs, 2001, vocab_size=FC_VOCAB,
                                    model_dims=MODEL_DIMS, train_cfg=FC_TRAIN, base_seed=5)
    ranked = rank_current(params, vocab, TRIALS, 2001,
                          target=TargetSpec.from_phrase(vocab, DEFAULT_TARGET_PHRASE))
    assert sorted(i.candidate for i in ranked) == ["gemavir", "tamivir"]


def test_rank_current_requires_a_keyword_target():
    # The arguments are checked at the call, before the model is touched.
    with pytest.raises(TypeError, match="target"):
        rank_current(None, None, TRIALS, 2001)


def test_write_fc_outputs_empty_run_writes_header_only(tmp_path):
    runs = [FcRun(1999, (), (), ())]
    write_fc_outputs(runs, score_runs(runs), tmp_path)
    assert (tmp_path / "rank_1999.csv").read_text().strip() == "rank,candidate,score"
