"""Training-loop tests: schedule values, Adam against a scalar reference,
masking invariants, windowing, determinism, and fine-tune isolation."""

import csv
import hashlib
import platform

import numpy as np
import pytest

import synth
from qtmine.errors import DataFormatError, QtmineError
from qtmine.model import ModelConfig, init_params, save_checkpoint
from qtmine.tokenizer import encode, save_vocab, train_bpe
from qtmine.train import (
    AdamState,
    MaskedBatch,
    TrainConfig,
    build_windows,
    dynamic_mask,
    kshot_finetune,
    lr_schedule,
    mask_batch,
    mlm_loss,
    perplexity,
    train,
)

TEXTS = [
    "the drug blocks the protein.",
    "trials showed efficacy in patients.",
    "the compound reduced viral load.",
    "no benefit was found in controls.",
    "the protein binds the receptor.",
    "dosing was well tolerated.",
] * 4


@pytest.fixture(scope="module")
def small_vocab():
    return train_bpe(TEXTS, 290)


def small_model(vocab, seed=0, max_seq=32):
    cfg = ModelConfig(n_layers=1, n_heads=2, d_model=16, d_ff=32,
                      max_seq=max_seq, vocab_size=vocab.size)
    return init_params(cfg, seed=seed)


# ---------------------------------------------------------------------------
# Learning-rate schedule


def test_lr_schedule_hand_values():
    # total 100, 6% warmup: ramp over 6 steps, decay over the remaining 94.
    assert lr_schedule(1, 100, 0.3, 0.06) == pytest.approx(0.05)
    assert lr_schedule(6, 100, 0.3, 0.06) == pytest.approx(0.3)
    assert lr_schedule(7, 100, 0.3, 0.06) == pytest.approx(0.3 * 93 / 94)
    assert lr_schedule(53, 100, 0.3, 0.06) == pytest.approx(0.15)
    assert lr_schedule(100, 100, 0.3, 0.06) == 0.0


def test_lr_schedule_degenerate_warmup():
    # warmup_frac 0 still ramps for one step; warmup_frac 1 never decays.
    assert lr_schedule(1, 50, 1.0, 0.0) == 1.0
    assert lr_schedule(2, 50, 1.0, 0.0) == pytest.approx(48 / 49)
    assert lr_schedule(25, 50, 1.0, 1.0) == 0.5
    assert lr_schedule(50, 50, 1.0, 1.0) == 1.0


def test_lr_schedule_rejects_bad_steps():
    with pytest.raises(ValueError):
        lr_schedule(0, 10, 0.1, 0.06)
    with pytest.raises(ValueError):
        lr_schedule(11, 10, 0.1, 0.06)
    with pytest.raises(ValueError):
        lr_schedule(1, 0, 0.1, 0.06)


# ---------------------------------------------------------------------------
# Adam


def test_adam_matches_scalar_reference(small_vocab):
    params = small_model(small_vocab).astype(np.float64)
    cfg = TrainConfig(lr=1e-2, beta1=0.9, beta2=0.98, adam_eps=1e-6)
    adam = AdamState(params, cfg)
    names = [name for name, _ in params.named_tensors()]
    init = {name: arr.copy() for name, arr in params.named_tensors()}

    # Per-tensor constant gradients let the reference track scalars.
    import math

    ref_m = {n: 0.0 for n in names}
    ref_v = {n: 0.0 for n in names}
    ref_delta = {n: 0.0 for n in names}
    for t in (1, 2, 3):
        lr = 0.01 / t
        grads = {}
        for i, (name, arr) in enumerate(params.named_tensors()):
            g = 0.05 * (i + 1) * t
            grads[name] = np.full_like(arr, g)
            ref_m[name] = cfg.beta1 * ref_m[name] + (1 - cfg.beta1) * g
            ref_v[name] = cfg.beta2 * ref_v[name] + (1 - cfg.beta2) * g * g
            bc1 = 1 - cfg.beta1 ** t
            bc2 = 1 - cfg.beta2 ** t
            ref_delta[name] += (lr / bc1) * ref_m[name] / (math.sqrt(ref_v[name] / bc2) + cfg.adam_eps)
        adam.update(params, grads, lr)

    assert adam.t == 3
    for name, arr in params.named_tensors():
        np.testing.assert_allclose(arr, init[name] - ref_delta[name],
                                   rtol=1e-12, atol=1e-15, err_msg=name)


# ---------------------------------------------------------------------------
# Masking


def test_dynamic_mask_invariants(small_vocab):
    vocab = small_vocab
    cfg = TrainConfig()
    rng = np.random.default_rng(42)
    saw_mask = saw_random = False
    for _ in range(300):
        body = rng.integers(0, 256, size=58)
        row = np.concatenate(([vocab.bos_id], body, [vocab.eos_id]))
        corrupted, delta, labels = dynamic_mask(rng, row, vocab, cfg)
        assert not delta[0] and not delta[-1]  # specials never targeted
        np.testing.assert_array_equal(corrupted[~delta], row[~delta])
        np.testing.assert_array_equal(labels, row[delta])
        changed = corrupted[delta]
        saw_mask = saw_mask or np.any(changed == vocab.mask_id)
        rand = changed[changed != vocab.mask_id]
        if rand.size:
            saw_random = True
            assert not np.isin(rand, list(vocab.special_ids)).any()
            assert np.all(rand != row[delta][changed != vocab.mask_id])
    assert saw_mask and saw_random


def test_dynamic_mask_all_mask_variant(small_vocab):
    vocab = small_vocab
    cfg = TrainConfig(mask_frac=1.0, random_frac=0.0)
    rng = np.random.default_rng(1)
    row = rng.integers(0, 256, size=200)
    corrupted, delta, _ = dynamic_mask(rng, row, vocab, cfg)
    assert delta.any()
    assert np.all(corrupted[delta] == vocab.mask_id)


def test_mask_batch_layout(small_vocab):
    vocab = small_vocab
    cfg = TrainConfig()
    rng = np.random.default_rng(9)
    rows = [rng.integers(0, 200, size=n) for n in (20, 35, 52)]
    batch = mask_batch(rng, [r.copy() for r in rows], vocab, cfg)
    assert batch.ids.shape == (3, 52)
    assert batch.delta.shape == (3, 52)
    np.testing.assert_array_equal(batch.lengths, [20, 35, 52])
    for i, row in enumerate(rows):
        n = len(row)
        assert np.all(batch.ids[i, n:] == vocab.pad_id)
        assert not batch.delta[i, n:].any()
    assert batch.labels.size == batch.delta.sum()
    expect = np.concatenate([rows[i][batch.delta[i, : len(rows[i])]] for i in range(3)])
    np.testing.assert_array_equal(batch.labels, expect)


def test_mlm_loss_empty_batch_is_zero(small_vocab):
    vocab = small_vocab
    params = small_model(vocab)
    batch = MaskedBatch(
        ids=np.array([[vocab.pad_id, vocab.pad_id]]),
        lengths=np.array([2]),
        delta=np.zeros((1, 2), dtype=bool),
        labels=np.zeros(0, dtype=np.int64),
    )
    loss, grads = mlm_loss(params, batch)
    assert loss == 0.0
    assert not grads["emb"].any()


# ---------------------------------------------------------------------------
# Windowing


def test_build_windows_wraps_and_chunks(small_vocab):
    from qtmine.tokenizer import encode

    vocab = small_vocab
    text = "the drug blocks the protein and the trial shows benefit. " * 6
    ids = [vocab.bos_id] + encode(vocab, text) + [vocab.eos_id]
    windows = build_windows(vocab, [text], max_seq=16)
    assert all(len(w) <= 16 for w in windows)
    assert windows[0][0] == vocab.bos_id
    assert windows[-1][-1] == vocab.eos_id
    np.testing.assert_array_equal(np.concatenate(windows), ids)


def test_build_windows_drops_special_only(small_vocab):
    assert build_windows(small_vocab, [""], max_seq=8) == []
    with pytest.raises(QtmineError):
        train(small_model(small_vocab), small_vocab, [""], TrainConfig(n_epochs=1), seed=0)


# ---------------------------------------------------------------------------
# The loop


def test_train_is_bit_reproducible(small_vocab):
    vocab = small_vocab
    cfg = TrainConfig(lr=1e-3, batch_size=4, n_epochs=2, eval_every=3)
    a = train(small_model(vocab, seed=1), vocab, TEXTS, cfg, seed=5, eval_texts=TEXTS[:4])
    b = train(small_model(vocab, seed=1), vocab, TEXTS, cfg, seed=5, eval_texts=TEXTS[:4])
    assert a.steps == b.steps
    assert a.curve == b.curve
    for (name, ta), (_, tb) in zip(a.params.named_tensors(), b.params.named_tensors()):
        np.testing.assert_array_equal(ta, tb, err_msg=name)
    c = train(small_model(vocab, seed=1), vocab, TEXTS, cfg, seed=6)
    assert not np.array_equal(a.params.emb, c.params.emb)


# SHA-256 of the artifacts of the fixed-seed run below, recorded before the
# tokenizer and GELU hot paths were rewritten: a later change to those paths
# that is not bit-identical fails here. The vocabulary and token ids are
# integers and pinned everywhere. Float32 matmul results depend on the BLAS
# build and the CPU's vector unit, so checkpoint digests are keyed by both.
GOLDEN_VOCAB_SHA = "9ef75753ae4789f545c50a4a9f944d14e3415e950fff93d079fa94f6e57a58d9"
GOLDEN_IDS_SHA = "edb3f8bd6be5e8ea3c61c6df6dbce26c64894d699416f2a3682db4da12550037"
GOLDEN_CKPT_SHA = {
    "x86_64 scipy-openblas 0.3.31.188.0 AVX512_SPR":
        "77203a7c74b9c71866171f103e03e2ec38902716b163988e1703ed7f5f4d571b",
}


def _float_platform() -> str:
    try:
        info = np.show_config(mode="dicts")
    except TypeError:  # NumPy before 1.25 cannot report its build as a dict
        return f"{platform.machine()} numpy {np.__version__}"
    blas = info["Build Dependencies"]["blas"]
    simd = info["SIMD Extensions"]["found"] or info["SIMD Extensions"]["baseline"]
    return f"{platform.machine()} {blas['name']} {blas['version']} {simd[-1]}"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_fixed_seed_artifacts_match_golden(tmp_path):
    texts = synth.synth_texts()[:120]
    vocab = train_bpe(texts, 400)
    save_vocab(vocab, tmp_path / "vocab.json")
    assert _sha256(tmp_path / "vocab.json") == GOLDEN_VOCAB_SHA
    ids = np.asarray([t for text in texts for t in encode(vocab, text)], dtype="<i8")
    assert hashlib.sha256(ids.tobytes()).hexdigest() == GOLDEN_IDS_SHA

    cfg = ModelConfig(n_layers=1, n_heads=2, d_model=16, d_ff=32, max_seq=32,
                      vocab_size=vocab.size)
    params = init_params(cfg, seed=0)
    train(params, vocab, texts,
          TrainConfig(lr=1e-3, batch_size=8, n_epochs=1, max_steps=12, eval_every=6),
          seed=0, eval_texts=texts[::10])
    save_checkpoint(params, tmp_path / "model.ckpt")
    digest = _sha256(tmp_path / "model.ckpt")
    key = _float_platform()
    if key not in GOLDEN_CKPT_SHA:
        pytest.skip(f"no checkpoint golden recorded for {key!r} (this platform gives {digest})")
    assert digest == GOLDEN_CKPT_SHA[key]


def test_train_runs_in_place_and_reports_curve(small_vocab, tmp_path):
    vocab = small_vocab
    params = small_model(vocab, seed=2)
    cfg = TrainConfig(lr=1e-3, batch_size=8, n_epochs=2, eval_every=2)
    curve_path = tmp_path / "curve.csv"
    res = train(params, vocab, TEXTS, cfg, seed=0, eval_texts=TEXTS[:6], curve_path=curve_path)
    assert res.params is params
    assert res.steps == len(res.curve)
    assert [s for s, _, _ in res.curve] == list(range(1, res.steps + 1))
    evals = [(s, ce) for s, _, ce in res.curve if ce is not None]
    assert all(s % 2 == 0 or s == res.steps for s, _ in evals)
    assert res.final_eval_ce == evals[-1][1]
    with open(curve_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "loss", "eval_loss"]
    assert len(rows) == res.steps + 1
    assert float(rows[1][1]) == pytest.approx(res.curve[0][1], abs=1e-6)


def test_train_max_steps_truncates(small_vocab):
    vocab = small_vocab
    cfg = TrainConfig(lr=1e-3, batch_size=4, n_epochs=5, max_steps=3)
    res = train(small_model(vocab), vocab, TEXTS, cfg, seed=0)
    assert res.steps == 3
    assert len(res.curve) == 3


def test_kshot_finetune_leaves_base_untouched(small_vocab):
    vocab = small_vocab
    params = small_model(vocab, seed=4)
    before = {name: arr.copy() for name, arr in params.named_tensors()}
    tuned = kshot_finetune(params, vocab, TEXTS[:3], seed=0, n_steps=4, lr=1e-3)
    assert tuned is not params
    for name, arr in params.named_tensors():
        np.testing.assert_array_equal(arr, before[name], err_msg=name)
    assert not np.array_equal(tuned.emb, params.emb)
    with pytest.raises(QtmineError):
        kshot_finetune(params, vocab, [""], seed=0, n_steps=1)


def test_perplexity_bounds_and_determinism(small_vocab):
    vocab = small_vocab
    params = small_model(vocab, seed=7)
    a = perplexity(params, vocab, TEXTS, seed=3)
    b = perplexity(params, vocab, TEXTS, seed=3)
    assert a == b
    assert a > 1.0  # cross-entropy is nonnegative
    # an untrained model should sit near the uniform baseline, far above 5
    assert a > 5.0
    with pytest.raises(QtmineError):
        perplexity(params, vocab, [], seed=0)


def test_train_config_validation():
    with pytest.raises(DataFormatError):
        TrainConfig(mask_rate=0.0)
    with pytest.raises(DataFormatError):
        TrainConfig(mask_rate=1.0)
    with pytest.raises(DataFormatError):
        TrainConfig(mask_frac=0.8, random_frac=0.1)
    with pytest.raises(DataFormatError):
        TrainConfig(lr=0.0)
    with pytest.raises(DataFormatError):
        TrainConfig(batch_size=0)
    with pytest.raises(DataFormatError):
        TrainConfig(n_epochs=0)
