"""Training-loop tests: schedule values, Adam against a scalar reference,
masking invariants, windowing, determinism, fine-tune isolation, and the
CLI's allocator setting (page faults per step, checkpoint bytes)."""

import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import synth
from qtmine.cli import main
from qtmine.corpus import load_corpus
from qtmine.errors import DataFormatError, QtmineError
from qtmine.model import ModelConfig, init_params, save_checkpoint
from qtmine.tokenizer import encode, load_vocab, save_vocab, train_bpe
from qtmine.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    MaskedBatch,
    TrainConfig,
    build_windows,
    dynamic_mask,
    kshot_finetune,
    lr_schedule,
    _step,
    mask_batch,
    perplexity,
    train,
)
from qtmine.util import keep_freed_memory

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


def encoded(vocab, texts):
    return [encode(vocab, text) for text in texts]


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
    adam = AdamState(params)
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
            ref_m[name] = ADAM_BETA1 * ref_m[name] + (1 - ADAM_BETA1) * g
            ref_v[name] = ADAM_BETA2 * ref_v[name] + (1 - ADAM_BETA2) * g * g
            bc1 = 1 - ADAM_BETA1 ** t
            bc2 = 1 - ADAM_BETA2 ** t
            ref_delta[name] += (lr / bc1) * ref_m[name] / (math.sqrt(ref_v[name] / bc2) + ADAM_EPS)
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


def test_step_on_empty_batch_changes_nothing(small_vocab, qtmine_log):
    vocab = small_vocab
    params = small_model(vocab)
    before = {name: arr.copy() for name, arr in params.named_tensors()}
    adam = AdamState(params)
    batch = MaskedBatch(
        ids=np.array([[vocab.pad_id, vocab.pad_id]]),
        lengths=np.array([2]),
        delta=np.zeros((1, 2), dtype=bool),
        labels=np.zeros(0, dtype=np.int64),
    )
    assert _step(params, adam, batch, lr=1e-3, step=7) == 0.0
    assert adam.t == 0
    for name, arr in params.named_tensors():
        np.testing.assert_array_equal(arr, before[name], err_msg=name)
        assert not adam.m[name].any() and not adam.v[name].any()
    assert qtmine_log == ["event=empty_mask_batch step=7"]


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
        train(small_model(small_vocab), small_vocab, [[]], TrainConfig(n_epochs=1), seed=0)


# ---------------------------------------------------------------------------
# The loop


def test_train_is_bit_reproducible(small_vocab):
    vocab = small_vocab
    cfg = TrainConfig(lr=1e-3, batch_size=4, n_epochs=2, eval_every=3)
    streams = encoded(vocab, TEXTS)
    a = train(small_model(vocab, seed=1), vocab, streams, cfg, seed=5, eval_streams=streams[:4])
    b = train(small_model(vocab, seed=1), vocab, streams, cfg, seed=5, eval_streams=streams[:4])
    assert a.steps == b.steps
    assert a.curve == b.curve
    for (name, ta), (_, tb) in zip(a.params.named_tensors(), b.params.named_tensors()):
        np.testing.assert_array_equal(ta, tb, err_msg=name)
    c = train(small_model(vocab, seed=1), vocab, streams, cfg, seed=6)
    assert not np.array_equal(a.params.emb, c.params.emb)


# SHA-256 of the artifacts of the fixed-seed run below. The vocabulary and
# token ids are integers, pinned since before the tokenizer hot paths were
# rewritten, and the same everywhere. Float32 matmul results depend on the BLAS
# build and the CPU's vector unit, so checkpoint digests are keyed by both.
# The checkpoint digest was re-recorded when attention moved to equal-length
# groups and the weight gradients to packed rows: those sums round differently
# in the last bits, while the run's curve (GOLDEN_CURVE) stayed the same. It
# was re-recorded again when the last layer came to run after attention at the
# targeted rows only and the embedding gradient to a sorted segmented sum,
# again when the last layer's queries and attention moved to those rows too,
# again when the loss head came to pack only the windows that hold a
# target, sorted by length, and again when it came to sort them by length and
# then by number of targets, so that the last layer attends once per run of
# windows with equal length and equal target count.
GOLDEN_VOCAB_SHA = "9ef75753ae4789f545c50a4a9f944d14e3415e950fff93d079fa94f6e57a58d9"
GOLDEN_IDS_SHA = "edb3f8bd6be5e8ea3c61c6df6dbce26c64894d699416f2a3682db4da12550037"
GOLDEN_CKPT_SHA = {
    "x86_64 scipy-openblas 0.3.31.188.0 AVX512_SPR":
        "cb30a29485c98e8bfbafb06126c36dbcd2541a8e1dceb7ab5ae62e51655cabf3",
}
# (step, loss, eval CE) of the same run in full precision, recorded by the
# code whose checkpoint digest was 77203a7c…. A change that gives up
# bit-identity must keep each value within GOLDEN_CURVE_RTOL relative.
GOLDEN_CURVE = [
    (1, 6.005838871002197, None), (2, 5.988760471343994, None),
    (3, 5.9643778800964355, None), (4, 5.967336654663086, None),
    (5, 5.985570430755615, None), (6, 5.988856315612793, 5.993081369707661),
    (7, 5.970403671264648, None), (8, 5.98777961730957, None),
    (9, 5.952443599700928, None), (10, 5.987504482269287, None),
    (11, 5.990108966827393, None), (12, 5.918024063110352, 5.969928126181325),
]
GOLDEN_CURVE_RTOL = 1e-5


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


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """The fixed-seed run: its directory (vocab.json, model.ckpt), token ids and result."""
    out = tmp_path_factory.mktemp("golden")
    texts = synth.synth_texts()[:120]
    vocab = train_bpe(texts, 400)
    save_vocab(vocab, out / "vocab.json")
    streams = encoded(vocab, texts)
    ids = np.asarray([t for stream in streams for t in stream], dtype="<i8")
    cfg = ModelConfig(n_layers=1, n_heads=2, d_model=16, d_ff=32, max_seq=32,
                      vocab_size=vocab.size)
    params = init_params(cfg, seed=0)
    result = train(params, vocab, streams,
                   TrainConfig(lr=1e-3, batch_size=8, n_epochs=1, max_steps=12, eval_every=6),
                   seed=0, eval_streams=encoded(vocab, texts[::10]))
    save_checkpoint(params, out / "model.ckpt")
    return out, ids, result


def test_fixed_seed_artifacts_match_golden(golden_run):
    out, ids, _ = golden_run
    assert _sha256(out / "vocab.json") == GOLDEN_VOCAB_SHA
    assert hashlib.sha256(ids.tobytes()).hexdigest() == GOLDEN_IDS_SHA
    digest = _sha256(out / "model.ckpt")
    key = _float_platform()
    if key not in GOLDEN_CKPT_SHA:
        pytest.skip(f"no checkpoint golden recorded for {key!r} (this platform gives {digest})")
    assert digest == GOLDEN_CKPT_SHA[key]


def test_fixed_seed_curve_matches_golden_within_tolerance(golden_run):
    curve = golden_run[2].curve
    assert [(step, ce is None) for step, _, ce in curve] == [(step, ce is None) for step, _, ce in GOLDEN_CURVE]
    for (step, loss, ce), (_, want_loss, want_ce) in zip(curve, GOLDEN_CURVE):
        assert loss == pytest.approx(want_loss, rel=GOLDEN_CURVE_RTOL), step
        if want_ce is not None:
            assert ce == pytest.approx(want_ce, rel=GOLDEN_CURVE_RTOL), step


def test_train_runs_in_place_and_reports_curve(small_vocab):
    vocab = small_vocab
    params = small_model(vocab, seed=2)
    cfg = TrainConfig(lr=1e-3, batch_size=8, n_epochs=2, eval_every=2)
    res = train(params, vocab, encoded(vocab, TEXTS), cfg, seed=0,
                eval_streams=encoded(vocab, TEXTS[:6]))
    assert res.params is params
    assert res.steps == len(res.curve)
    assert [s for s, _, _ in res.curve] == list(range(1, res.steps + 1))
    evals = [(s, ce) for s, _, ce in res.curve if ce is not None]
    assert all(s % 2 == 0 or s == res.steps for s, _ in evals)
    assert res.final_eval_ce == evals[-1][1]


def test_train_max_steps_truncates(small_vocab):
    vocab = small_vocab
    cfg = TrainConfig(lr=1e-3, batch_size=4, n_epochs=5, max_steps=3)
    res = train(small_model(vocab), vocab, encoded(vocab, TEXTS), cfg, seed=0)
    assert res.steps == 3
    assert len(res.curve) == 3


def test_kshot_finetune_leaves_base_untouched(small_vocab):
    vocab = small_vocab
    params = small_model(vocab, seed=4)
    before = {name: arr.copy() for name, arr in params.named_tensors()}
    cfg = TrainConfig(lr=1e-3)
    tuned = kshot_finetune(params, vocab, TEXTS[:3], seed=0, cfg=cfg, n_steps=4)
    assert tuned is not params
    for name, arr in params.named_tensors():
        np.testing.assert_array_equal(arr, before[name], err_msg=name)
    assert not np.array_equal(tuned.emb, params.emb)
    with pytest.raises(QtmineError):
        kshot_finetune(params, vocab, [""], seed=0, cfg=cfg, n_steps=1)


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
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(DataFormatError, match="lr"):
            TrainConfig(lr=bad)
    for bad in (-0.5, 1.5, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DataFormatError, match="warmup_frac"):
            TrainConfig(warmup_frac=bad)
    with pytest.raises(DataFormatError):
        TrainConfig(batch_size=0)
    with pytest.raises(DataFormatError):
        TrainConfig(n_epochs=0)
    for bad in (0, -3, 2.5, True, "6"):
        with pytest.raises(DataFormatError, match="eval_every"):
            TrainConfig(eval_every=bad)
    assert TrainConfig(eval_every=1).eval_every == 1


def test_train_config_max_steps_is_none_or_positive():
    for bad in (0, -1):
        with pytest.raises(DataFormatError, match="max_steps"):
            TrainConfig(max_steps=bad)
    assert TrainConfig(max_steps=1).max_steps == 1
    assert TrainConfig().max_steps is None


# ---------------------------------------------------------------------------
# The CLI's allocator setting (util.keep_freed_memory)


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports qtmine from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=300, check=True)


def _has_mallopt() -> bool:
    try:
        import resource  # noqa: F401
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (ImportError, OSError, TypeError):
        return False


# Minor page faults per training step on one fixed fc-shaped batch (d_model
# 64, d_ff 256, 1 layer, 32 windows of 62 tokens), after two warm-up steps;
# argv[1] == "pinned" calls keep_freed_memory() first.
_FAULT_PROBE = """
import resource, sys
import numpy as np
from qtmine import model as M, train as T
from qtmine.util import keep_freed_memory
if sys.argv[1] == "pinned":
    assert keep_freed_memory() == "pinned"
cfg = M.ModelConfig(n_layers=1, n_heads=2, d_model=64, d_ff=256, max_seq=128, vocab_size=400)
params = M.init_params(cfg, seed=0)
adam = T.AdamState(params)
rng = np.random.default_rng(0)
ids = rng.integers(5, 400, size=(32, 62))
delta = rng.random(ids.shape) < 0.15
batch = T.MaskedBatch(ids=ids, lengths=np.full(32, 62), delta=delta, labels=ids[delta])
for step in (1, 2):
    T._step(params, adam, batch, 1e-4, step)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for step in range(3, 13):
    T._step(params, adam, batch, 1e-4, step)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="needs the C library's mallopt and the resource module")
def test_pinned_malloc_thresholds_stop_a_step_faulting_in_fresh_pages():
    pinned = float(_python(_FAULT_PROBE, "pinned").stdout)
    default = float(_python(_FAULT_PROBE, "default").stdout)
    assert pinned < default / 10, (pinned, default)


def test_checkpoint_bytes_do_not_depend_on_the_allocator(tmp_path):
    """`qtmine train` with the malloc thresholds pinned and left at glibc's
    defaults writes the same checkpoint. Every batch holds all the windows,
    at least 512 packed rows, so the first layer's FFN activations (rows x
    d_ff 256, float32) pass glibc's default 128 KiB mmap threshold."""
    corpus = synth.write_fc_corpus(tmp_path / "corpus.jsonl")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "corpus": str(corpus), "n_layers": 2, "n_heads": 2, "d_model": 32, "d_ff": 256,
        "max_seq": 128, "vocab_size": 300, "lr": 1e-3, "batch_size": 32, "n_epochs": 3,
        "seed": 3,
    }), encoding="utf-8")
    vocab = tmp_path / "vocab.json"
    assert main(["--config", str(config), "train-tokenizer", "--out", str(vocab)]) == 0
    windows = build_windows(load_vocab(vocab), [d.text() for d in load_corpus(corpus).documents], 128)
    assert len(windows) <= 32 and sum(len(w) for w in windows) >= 512

    run = ("import sys; from qtmine import cli\n"
           "if sys.argv[1] == 'default':\n"
           "    cli.keep_freed_memory = lambda: 'unavailable'\n"
           "sys.exit(cli.main(sys.argv[2:]))")
    ckpts = {}
    for malloc in ("pinned", "default"):
        ckpts[malloc] = tmp_path / f"{malloc}.ckpt"
        proc = _python(run, malloc, "--config", str(config), "train", "--vocab", str(vocab),
                       "--out", str(ckpts[malloc]))
        expected = keep_freed_memory() if malloc == "pinned" else "unavailable"
        assert f"malloc={expected}" in proc.stderr, proc.stderr
    assert ckpts["pinned"].read_bytes() == ckpts["default"].read_bytes()
