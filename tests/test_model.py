"""Model tests.

The vectorized forward pass is checked against a straight-line reference
written with Python loops and math.erf, run in float64 so the comparison can
be tight. Gradients get a sampled finite-difference check here; the exhaustive
elementwise sweep lives in the acceptance suite.
"""

import math
import os

import numpy as np
import pytest

from qtmine import model
from qtmine.errors import CheckpointError, DataFormatError, QtmineError
from qtmine.model import (
    INIT_STDDEV,
    LN_EPS,
    ModelConfig,
    forward,
    init_params,
    PREDICT_BATCH,
    load_checkpoint,
    loss_and_grads,
    eval_loss,
    predict_masked,
    save_checkpoint,
    softmax_position,
    stable_softmax,
    tensor_shapes,
)

TINY = ModelConfig(n_layers=2, n_heads=2, d_model=8, d_ff=16, max_seq=12, vocab_size=40)


def tiny_params(seed=0, dtype=np.float64):
    return init_params(TINY, seed=seed).astype(dtype)


# ---------------------------------------------------------------------------
# Straight-line reference forward pass


def ref_layer_norm(x, g, b):
    d = len(x)
    mu = sum(x) / d
    var = sum((xi - mu) ** 2 for xi in x) / d
    inv = 1.0 / math.sqrt(var + LN_EPS)
    return [g[j] * (x[j] - mu) * inv + b[j] for j in range(d)]


def ref_affine(row, w, b):
    n_in, n_out = len(w), len(w[0])
    return [sum(row[i] * w[i][j] for i in range(n_in)) + b[j] for j in range(n_out)]


def ref_forward(params, ids):
    cfg = params.config
    S, d, dh = len(ids), cfg.d_model, cfg.d_head
    emb = params.emb.tolist()
    pos = params.pos.tolist()
    h = [[emb[t][j] + pos[p][j] for j in range(d)] for p, t in enumerate(ids)]
    attn_all = []
    for layer in params.layers:
        lw = {k: v.tolist() for k, v in layer.items()}
        u = [ref_layer_norm(h[p], lw["ln1_g"], lw["ln1_b"]) for p in range(S)]
        q = [ref_affine(u[p], lw["wq"], lw["bq"]) for p in range(S)]
        k = [ref_affine(u[p], lw["wk"], lw["bk"]) for p in range(S)]
        v = [ref_affine(u[p], lw["wv"], lw["bv"]) for p in range(S)]
        ctx = [[0.0] * d for _ in range(S)]
        per_head = []
        for head in range(cfg.n_heads):
            lo = head * dh
            rows = []
            for p in range(S):
                scores = [
                    sum(q[p][lo + x] * k[m][lo + x] for x in range(dh)) / math.sqrt(dh)
                    for m in range(S)
                ]
                top = max(scores)
                exps = [math.exp(s - top) for s in scores]
                z = sum(exps)
                row = [e / z for e in exps]
                rows.append(row)
                for x in range(dh):
                    ctx[p][lo + x] = sum(row[m] * v[m][lo + x] for m in range(S))
            per_head.append(rows)
        attn_all.append(per_head)
        o = [ref_affine(ctx[p], lw["wo"], lw["bo"]) for p in range(S)]
        h_mid = [[h[p][j] + o[p][j] for j in range(d)] for p in range(S)]
        v_in = [ref_layer_norm(h_mid[p], lw["ln2_g"], lw["ln2_b"]) for p in range(S)]
        f1 = [ref_affine(v_in[p], lw["w1"], lw["b1"]) for p in range(S)]
        f2 = [[0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0))) for x in row] for row in f1]
        ff = [ref_affine(f2[p], lw["w2"], lw["b2"]) for p in range(S)]
        h = [[h_mid[p][j] + ff[p][j] for j in range(d)] for p in range(S)]
    hf = [ref_layer_norm(h[p], params.final_ln_g.tolist(), params.final_ln_b.tolist()) for p in range(S)]
    out_bias = params.out_bias.tolist()
    logits = [
        [sum(hf[p][j] * emb[t][j] for j in range(d)) + out_bias[t] for t in range(cfg.vocab_size)]
        for p in range(S)
    ]
    return np.array(hf), np.array(logits), np.array(attn_all)


def test_forward_matches_loop_reference():
    params = tiny_params(seed=11)
    ids = [3, 17, 3, 39, 0, 22]  # repeats exercise embedding reuse
    out = forward(params, ids)
    hf, logits, attn = ref_forward(params, ids)
    np.testing.assert_allclose(out.hidden, hf, rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(out.logits, logits, rtol=1e-9, atol=1e-11)
    assert out.attentions.shape == (2, 2, 6, 6)
    np.testing.assert_allclose(out.attentions, attn, rtol=1e-9, atol=1e-12)


def test_attention_rows_normalized():
    params = tiny_params(seed=4)
    rng = np.random.default_rng(0)
    for _ in range(5):
        n = int(rng.integers(1, TINY.max_seq + 1))
        ids = rng.integers(0, TINY.vocab_size, n)
        out = forward(params, ids)
        np.testing.assert_allclose(out.attentions.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(out.attentions >= 0)


def test_forward_is_deterministic():
    params = tiny_params(seed=9)
    ids = [5, 6, 7, 8]
    a, b = forward(params, ids), forward(params, ids)
    assert np.array_equal(a.logits, b.logits)
    assert np.array_equal(a.attentions, b.attentions)


def test_forward_rejects_bad_input():
    params = tiny_params()
    with pytest.raises(QtmineError):
        forward(params, [])
    with pytest.raises(QtmineError):
        forward(params, [TINY.vocab_size])
    with pytest.raises(QtmineError):
        forward(params, [-1])
    with pytest.raises(QtmineError):
        forward(params, [0] * (TINY.max_seq + 1))


def test_softmax_position_is_a_distribution():
    params = tiny_params(seed=2)
    out = forward(params, [1, 2, 3])
    p = softmax_position(out, 1)
    assert p.shape == (TINY.vocab_size,)
    assert abs(p.sum() - 1.0) < 1e-12
    manual = np.exp(out.logits[1] - out.logits[1].max())
    np.testing.assert_allclose(p, manual / manual.sum(), rtol=1e-12)
    with pytest.raises(QtmineError):
        softmax_position(out, 3)
    with pytest.raises(QtmineError):
        softmax_position(out, -1)


def test_predict_masked_matches_per_sequence_forward():
    # float32 weights, as scoring runs them; lengths vary within each batch.
    params = init_params(TINY, seed=6)
    rng = np.random.default_rng(21)
    n = 2 * PREDICT_BATCH + 5
    seqs, positions = [], []
    for _ in range(n):
        length = int(rng.integers(1, TINY.max_seq + 1))
        seqs.append(rng.integers(0, TINY.vocab_size, length).tolist())
        positions.append(sorted(rng.choice(length, int(rng.integers(0, length + 1)), replace=False)))
    got = predict_masked(params, seqs, positions)
    assert len(got) == n
    for seq, pos, probs in zip(seqs, positions, got):
        out = forward(params, seq, collect_attention=False)
        expect = np.array([softmax_position(out, t) for t in pos]).reshape(len(pos), TINY.vocab_size)
        assert probs.shape == expect.shape
        np.testing.assert_allclose(probs, expect, rtol=0, atol=1e-6)
    # the result for a sequence does not depend on where it sits in the input
    perm = rng.permutation(n)
    shuffled = predict_masked(params, [seqs[i] for i in perm], [positions[i] for i in perm])
    for j, i in enumerate(perm):
        np.testing.assert_array_equal(shuffled[j], got[i])
    assert predict_masked(params, [], []) == []


def test_predict_masked_rejects_bad_input():
    params = tiny_params()
    for seqs, positions in [
        ([[1, 2], []], [[0], []]),                   # empty sequence
        ([[1, 2], [TINY.vocab_size]], [[0], [0]]),   # id out of range
        ([[1, 2], [-1, 3]], [[0], [0]]),
        ([[1, 2, 3], [4, 5]], [[0], [2]]),           # position at the length
        ([[1, 2, 3], [4, 5]], [[0], [7]]),           # position beyond it
        ([[1, 2, 3], [4, 5]], [[0], [-1]]),
        ([[0] * (TINY.max_seq + 1)], [[0]]),
        ([[1, 2]], [[0], [1]]),                      # lists of unequal length
    ]:
        with pytest.raises(QtmineError):
            predict_masked(params, seqs, positions)


def test_stable_softmax_handles_large_logits():
    p = stable_softmax(np.array([1e4, 1e4 - 1.0, 0.0]))
    assert np.isfinite(p).all() and abs(p.sum() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Padded batches and masked loss


def padded_batch(params, rng, rows):
    s = max(len(r) for r in rows)
    b = len(rows)
    ids = np.full((b, s), 1, dtype=np.int64)
    delta = np.zeros((b, s), dtype=bool)
    labels = []
    for i, row in enumerate(rows):
        ids[i, : len(row)] = row
        # target two fixed in-range positions per row
        for t in (0, len(row) - 1):
            delta[i, t] = True
        labels.extend([int(row[0]), int(row[-1])])
    lengths = np.array([len(r) for r in rows])
    return ids, lengths, delta, np.array(labels)


def test_padded_batch_loss_matches_single_rows():
    params = tiny_params(seed=7)
    rng = np.random.default_rng(1)
    rows = [rng.integers(0, TINY.vocab_size, n).tolist() for n in (10, 6, 3)]
    ids, lengths, delta, labels = padded_batch(params, rng, rows)
    loss, _ = loss_and_grads(params, ids, lengths, delta, labels)
    ce_sum, n = eval_loss(params, ids, lengths, delta, labels)

    # Reference: run each row unpadded and read the targeted log-probs.
    ces = []
    for row in rows:
        out = forward(params, row)
        for t in (0, len(row) - 1):
            ces.append(-math.log(softmax_position(out, t)[row[t]]))
    assert abs(loss - np.mean(ces)) < 1e-10
    assert n == len(ces)
    assert abs(ce_sum - np.sum(ces)) < 1e-10


def test_eval_loss_mean_matches_training_loss_in_float32():
    params = tiny_params(seed=9, dtype=np.float32)
    rng = np.random.default_rng(2)
    rows = [rng.integers(0, TINY.vocab_size, n).tolist() for n in (12, 7, 4, 9)]
    ids, lengths, delta, labels = padded_batch(params, rng, rows)
    loss, _ = loss_and_grads(params, ids, lengths, delta, labels)
    ce_sum, n = eval_loss(params, ids, lengths, delta, labels)
    assert n == labels.size
    assert ce_sum / n == pytest.approx(loss, rel=1e-6)


def test_padding_content_is_invisible():
    params = tiny_params(seed=8)
    row = [4, 9, 2, 31, 5]
    base = np.full((1, 9), 1, dtype=np.int64)
    base[0, :5] = row
    junk = base.copy()
    junk[0, 5:] = [30, 31, 32, 33]
    delta = np.zeros((1, 9), dtype=bool)
    delta[0, [0, 2, 4]] = True
    labels = np.array([4, 2, 5])
    lengths = np.array([5])
    la, ga = loss_and_grads(params, base, lengths, delta, labels)
    lb, gb = loss_and_grads(params, junk, lengths, delta, labels)
    assert la == lb
    for name in ("pos", "final_ln_g", "layers.0.wq"):
        np.testing.assert_array_equal(ga[name], gb[name])


def masked_batch(rng, vocab_size, lengths, pad_id=1):
    """A right-padded (B, S) batch targeting about 15% (at least one) of each row."""
    ids = np.full((len(lengths), max(lengths)), pad_id, dtype=np.int64)
    delta = np.zeros(ids.shape, dtype=bool)
    for i, n in enumerate(lengths):
        ids[i, :n] = rng.integers(0, vocab_size, n)
        delta[i, rng.choice(n, max(1, int(0.15 * n)), replace=False)] = True
    labels = rng.integers(0, vocab_size, int(delta.sum()))
    return ids, np.asarray(lengths), delta, labels


def test_padding_content_is_ignored_by_every_entry_point(monkeypatch):
    # float32, as training and scoring run. Junk in the pad slots must change
    # no bit of the loss, any gradient, the evaluation sum or a prediction.
    params = init_params(TINY, seed=12)
    rng = np.random.default_rng(12)
    ids, lengths, delta, labels = masked_batch(rng, TINY.vocab_size, [9, 3, 12, 1, 6])
    junk = ids.copy()
    pad = np.arange(ids.shape[1]) >= lengths[:, None]
    junk[pad] = rng.integers(0, TINY.vocab_size, int(pad.sum()))
    la, ga = loss_and_grads(params, ids, lengths, delta, labels)
    lb, gb = loss_and_grads(params, junk, lengths, delta, labels)
    assert la == lb
    assert ga.keys() == gb.keys()
    for name in ga:
        np.testing.assert_array_equal(ga[name], gb[name], err_msg=name)
    assert eval_loss(params, ids, lengths, delta, labels) == eval_loss(params, junk, lengths, delta, labels)

    seqs = [row[:n] for row, n in zip(ids, lengths)]
    positions = [np.flatnonzero(row[:n]) for row, n in zip(delta, lengths)]
    clean = predict_masked(params, seqs, positions)
    real_pad_rows = model.pad_rows

    def junk_pad_rows(rows, fill=0, dtype=np.int64):
        batch, lens = real_pad_rows(rows, fill, dtype)
        slots = np.arange(batch.shape[1]) >= lens[:, None]
        batch[slots] = rng.integers(0, TINY.vocab_size, int(slots.sum()))
        return batch, lens

    monkeypatch.setattr(model, "pad_rows", junk_pad_rows)
    for a, b in zip(clean, predict_masked(params, seqs, positions)):
        np.testing.assert_array_equal(a, b)


def _relative_error(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.mark.parametrize("dims, lengths", [
    # acceptance criterion 5's model and windows of at most 16 tokens
    (dict(n_layers=2, n_heads=4, d_model=128, d_ff=512, max_seq=128, vocab_size=640),
     [16, 1, 7, 15, 3, 9, 12, 5, 16, 2, 8, 11, 4, 14, 6, 10, 13, 7, 3, 9, 1, 15, 8, 12,
      5, 11, 2, 6, 14, 10, 4, 13]),
    # the golden checkpoint test's model
    (dict(n_layers=1, n_heads=2, d_model=16, d_ff=32, max_seq=32, vocab_size=400),
     [32, 5, 17, 28, 9, 1, 22, 13]),
    # the pretrain benchmark's model and windows of 8-115 tokens; some lengths
    # repeat, next to each other (75) and apart (8, 115, 54)
    (dict(n_layers=2, n_heads=4, d_model=128, d_ff=512, max_seq=128, vocab_size=640),
     [115, 8, 34, 73, 36, 66, 60, 96, 14, 8, 8, 20, 75, 75, 115, 52, 47, 31, 88, 54,
      29, 24, 56, 27, 111, 57, 11, 22, 43, 54, 100, 80]),
])
def test_padded_batch_matches_unpadded_rows_within_tolerance(dims, lengths):
    # In float32 a padded batch matches its rows run one at a time only up to
    # a tolerance: the batch's products run over all its real tokens at once
    # (attention over each group of equal-length rows), and BLAS may round
    # those differently from one product per row. This matters most for the
    # weight gradients, sums over every real token, whose partial sums BLAS
    # splits differently once a batch holds a few hundred tokens. The loss
    # must match within 1e-6 relative, and each gradient within 1e-5 of its
    # largest entry. The key bias is the exception: softmax ignores a shift
    # shared by all keys, so its exact gradient is zero and only rounding
    # noise is left to compare.
    cfg = ModelConfig(**dims)
    params = init_params(cfg, seed=4)
    rng = np.random.default_rng(4)
    ids, lengths, delta, labels = masked_batch(rng, cfg.vocab_size, lengths)
    loss, grads = loss_and_grads(params, ids, lengths, delta, labels)

    want_loss, want = 0.0, {name: 0.0 for name in grads}
    offsets = np.cumsum(delta.sum(axis=1)) - delta.sum(axis=1)
    for i, n in enumerate(lengths):
        t = int(delta[i].sum())
        row_labels = labels[offsets[i]:offsets[i] + t]
        row_loss, row_grads = loss_and_grads(params, ids[i:i + 1, :n], np.array([n]),
                                             delta[i:i + 1, :n], row_labels)
        want_loss += t / labels.size * row_loss
        for name, g in row_grads.items():
            want[name] = want[name] + t / labels.size * g.astype(np.float64)
    assert loss == pytest.approx(want_loss, rel=1e-6)
    scale = max(float(np.abs(g).max()) for g in want.values())
    for name, g in grads.items():
        if name.endswith(".bk"):
            assert np.abs(g).max() <= 1e-6 * scale, name
        else:
            assert _relative_error(g, want[name]) <= 1e-5, (name, _relative_error(g, want[name]))


@pytest.mark.parametrize("case", ["lengths-broadcast", "lengths-zero", "lengths-negative",
                                  "lengths-past-width", "lengths-float", "delta-shape",
                                  "target-in-padding"])
def test_bad_batch_layout_is_a_typed_error(case):
    params = tiny_params()
    ids = np.array([[4, 9, 2, 1], [7, 3, 1, 1]])
    lengths = np.array([3, 2])
    delta = np.zeros((2, 4), bool)
    delta[0, 1] = delta[1, 0] = True
    labels = np.array([9, 7])
    if case == "lengths-broadcast":
        lengths = np.array([3])
    elif case == "lengths-zero":
        lengths = np.array([3, 0])
    elif case == "lengths-negative":
        lengths = np.array([3, -1])
    elif case == "lengths-past-width":
        lengths = np.array([3, 9])
    elif case == "lengths-float":
        lengths = np.array([3.0, 2.0])
    elif case == "delta-shape":
        delta = delta[:, :3]
    elif case == "target-in-padding":
        delta[1, 2] = True
        labels = np.array([9, 7, 5])
    with pytest.raises(QtmineError):
        loss_and_grads(params, ids, lengths, delta, labels)
    with pytest.raises(QtmineError):
        eval_loss(params, ids, lengths, delta, labels)


def test_loss_rejects_degenerate_targets():
    params = tiny_params()
    ids, lengths = np.array([[1, 2, 3]]), np.array([3])
    with pytest.raises(QtmineError):
        loss_and_grads(params, ids, lengths, np.zeros((1, 3), bool), np.array([], dtype=int))
    delta = np.array([[True, False, True]])
    with pytest.raises(QtmineError):
        loss_and_grads(params, ids, lengths, delta, np.array([1]))
    with pytest.raises(QtmineError):
        eval_loss(params, ids, lengths, delta, np.array([1]))


def test_eval_loss_empty_targets_is_zero():
    params = tiny_params()
    ce, n = eval_loss(params, np.array([[1, 2]]), np.array([2]), np.zeros((1, 2), bool), np.array([], int))
    assert (ce, n) == (0.0, 0)


def test_sampled_finite_difference_gradients():
    # Smoke-level FD check on a few coordinates per tensor; the acceptance
    # suite sweeps every coordinate.
    params = tiny_params(seed=5)
    rng = np.random.default_rng(3)
    ids = rng.integers(0, TINY.vocab_size, (2, 7))
    lengths = np.array([7, 5])
    delta = np.zeros((2, 7), bool)
    delta[0, 2] = delta[0, 5] = delta[1, 1] = True
    labels = rng.integers(0, TINY.vocab_size, 3)
    _, grads = loss_and_grads(params, ids, lengths, delta, labels)
    eps = 1e-5
    for name, arr in params.named_tensors():
        flat = arr.reshape(-1)
        for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            up, _ = loss_and_grads(params, ids, lengths, delta, labels)
            flat[idx] = orig - eps
            dn, _ = loss_and_grads(params, ids, lengths, delta, labels)
            flat[idx] = orig
            fd = (up - dn) / (2 * eps)
            an = grads[name].reshape(-1)[idx]
            # Floor the denominator at 1e-6: below that, central differences
            # are dominated by float64 rounding of the loss itself.
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
            assert rel < 1e-4, f"{name}[{idx}]: fd={fd} analytic={an} rel={rel}"


# ---------------------------------------------------------------------------
# Initialization, copies, checkpoints


def test_init_is_deterministic_and_seed_sensitive():
    a = init_params(TINY, seed=1)
    b = init_params(TINY, seed=1)
    c = init_params(TINY, seed=2)
    for (name, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
        np.testing.assert_array_equal(ta, tb, err_msg=name)
    assert not np.array_equal(a.emb, c.emb)


def test_init_distribution_shape():
    big = ModelConfig(n_layers=1, n_heads=2, d_model=64, d_ff=128, max_seq=16, vocab_size=500)
    p = init_params(big, seed=0)
    assert p.dtype == np.float32
    assert np.abs(p.emb).max() <= 2 * INIT_STDDEV + 1e-6  # truncated at two stddev
    assert 0.75 * INIT_STDDEV < p.emb.std() < 1.25 * INIT_STDDEV
    assert not p.layers[0]["bq"].any()
    assert np.all(p.layers[0]["ln1_g"] == 1.0)
    assert not p.out_bias.any()
    assert p.dtype == np.float32


def test_copy_is_independent():
    p = tiny_params(seed=6)
    q = p.copy()
    q.emb[0, 0] += 1.0
    q.layers[0]["wq"][0, 0] += 1.0
    assert p.emb[0, 0] != q.emb[0, 0]
    assert p.layers[0]["wq"][0, 0] != q.layers[0]["wq"][0, 0]
    r = p.astype(np.float32)
    assert r.dtype == np.float32 and p.dtype == np.float64
    assert r.config is p.config


def test_config_validation():
    with pytest.raises(DataFormatError):
        ModelConfig(n_layers=0, n_heads=2, d_model=8, d_ff=16, max_seq=8, vocab_size=10)
    with pytest.raises(DataFormatError):
        ModelConfig(n_layers=1, n_heads=3, d_model=8, d_ff=16, max_seq=8, vocab_size=10)
    with pytest.raises(DataFormatError):
        ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16, max_seq=1, vocab_size=10)
    assert TINY.d_head == 4


def test_model_config_rejects_non_integer_dimensions():
    dims = dict(n_layers=1, n_heads=2, d_model=8, d_ff=16, max_seq=8, vocab_size=10)
    for name in dims:
        for bad in (1.0, "2", True, None):
            with pytest.raises(DataFormatError, match=name):
                ModelConfig(**{**dims, name: bad})


def test_tensor_shapes_is_the_layout_of_every_params(tmp_path):
    layout = tensor_shapes(TINY)
    assert len(layout) == 5 + 16 * TINY.n_layers
    assert len({name for name, _ in layout}) == len(layout)
    init = init_params(TINY, seed=13)
    save_checkpoint(init, tmp_path / "model.ckpt")
    for params in (init, init.astype(np.float64), init.copy(),
                   load_checkpoint(tmp_path / "model.ckpt")):
        assert [(name, arr.shape) for name, arr in params.named_tensors()] == layout


def test_loaded_arrays_are_writable_native_float32(tmp_path):
    save_checkpoint(init_params(TINY, seed=13).astype(np.float64), tmp_path / "model.ckpt")
    for name, arr in load_checkpoint(tmp_path / "model.ckpt").named_tensors():
        assert arr.dtype == np.float32 and arr.dtype.isnative, name
        assert arr.flags.writeable and arr.flags.c_contiguous, name
    params = load_checkpoint(tmp_path / "model.ckpt")
    params.layers[0]["wq"][0, 0] = 5.0
    assert dict(params.named_tensors())["layers.0.wq"][0, 0] == 5.0


def test_checkpoint_round_trip(tmp_path):
    p = init_params(TINY, seed=13)
    path = tmp_path / "model.ckpt"
    save_checkpoint(p, path)
    q = load_checkpoint(path)
    assert q.config == p.config
    for (name, ta), (_, tb) in zip(p.named_tensors(), q.named_tensors()):
        np.testing.assert_array_equal(ta, tb, err_msg=name)
    out_a = forward(p, [1, 2, 3]).logits
    out_b = forward(q, [1, 2, 3]).logits
    np.testing.assert_array_equal(out_a, out_b)


@pytest.mark.parametrize("failing_replace", [1, 2])
def test_failed_checkpoint_save_leaves_no_partial_files(tmp_path, monkeypatch, failing_replace):
    # The binary is replaced first and the sidecar last; whichever replace
    # fails, the earlier sidecar survives, no temporary file is left, and the
    # pair on disk still loads.
    path = tmp_path / "model.ckpt"
    older, newer = init_params(TINY, seed=1), init_params(TINY, seed=2)
    save_checkpoint(older, path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real_replace, calls = os.replace, []

    def replace(src, dst):
        calls.append(dst)
        if len(calls) == failing_replace:
            raise OSError("no space left on device")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError):
        save_checkpoint(newer, path)
    monkeypatch.undo()
    assert [str(c) for c in calls] == [str(path), str(path) + ".json"][:failing_replace]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt", "model.ckpt.json"]
    assert (tmp_path / "model.ckpt.json").read_bytes() == before["model.ckpt.json"]
    expect = older if failing_replace == 1 else newer
    if failing_replace == 1:
        assert path.read_bytes() == before["model.ckpt"]
    for (name, a), (_, b) in zip(load_checkpoint(path).named_tensors(), expect.named_tensors()):
        np.testing.assert_array_equal(a, b, err_msg=name)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_weights(tmp_path, value):
    p = init_params(TINY, seed=13)
    p.emb[5, 0] = value
    path = tmp_path / "model.ckpt"
    save_checkpoint(p, path)
    with pytest.raises(CheckpointError, match="emb"):
        load_checkpoint(path)


def test_checkpoint_with_invalid_config_is_a_checkpoint_error(tmp_path):
    import json
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(TINY, seed=13), path)
    sidecar = json.loads((tmp_path / "model.ckpt.json").read_text())
    sidecar["model"]["n_heads"] = 3
    (tmp_path / "model.ckpt.json").write_text(json.dumps(sidecar))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_with_float_dimension_is_a_checkpoint_error(tmp_path):
    import json
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(TINY, seed=13), path)
    sidecar = json.loads((tmp_path / "model.ckpt.json").read_text())
    sidecar["model"]["n_layers"] = float(sidecar["model"]["n_layers"])
    (tmp_path / "model.ckpt.json").write_text(json.dumps(sidecar))
    with pytest.raises(CheckpointError, match="n_layers"):
        load_checkpoint(path)


@pytest.mark.parametrize("cut", [1, 3, 4])
def test_checkpoint_cut_mid_float_is_a_checkpoint_error(tmp_path, cut):
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(TINY, seed=13), path)
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(CheckpointError, match="data bytes"):
        load_checkpoint(path)


def test_checkpoint_path_that_is_a_directory_is_a_checkpoint_error(tmp_path):
    save_checkpoint(init_params(TINY, seed=13), tmp_path / "model.ckpt")
    (tmp_path / "dir.ckpt").mkdir()
    (tmp_path / "dir.ckpt.json").write_text((tmp_path / "model.ckpt.json").read_text())
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "dir.ckpt")


def test_checkpoint_rejects_corruption(tmp_path):
    p = init_params(TINY, seed=13)
    path = tmp_path / "model.ckpt"
    save_checkpoint(p, path)
    raw = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.ckpt"
    bad_magic.write_bytes(b"XXXXXXXX" + raw[8:])
    (tmp_path / "bad_magic.ckpt.json").write_text((tmp_path / "model.ckpt.json").read_text())
    with pytest.raises(CheckpointError):
        load_checkpoint(bad_magic)

    truncated = tmp_path / "trunc.ckpt"
    truncated.write_bytes(raw[:-40])
    (tmp_path / "trunc.ckpt.json").write_text((tmp_path / "model.ckpt.json").read_text())
    with pytest.raises(CheckpointError):
        load_checkpoint(truncated)

    import json
    sidecar = json.loads((tmp_path / "model.ckpt.json").read_text())
    sidecar["tensors"][0]["shape"] = [1, 1]
    (tmp_path / "model.ckpt.json").write_text(json.dumps(sidecar))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)

    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "missing.ckpt")
