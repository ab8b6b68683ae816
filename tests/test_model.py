"""Model tests.

The vectorized forward pass is checked against a straight-line reference
written with Python loops and math.erf, run in float64 so the comparison can
be tight. Gradients get a sampled finite-difference check here; the exhaustive
elementwise sweep lives in the acceptance suite.
"""

import math

import numpy as np
import pytest

from qtmine.errors import CheckpointError, DataFormatError, QtmineError
from qtmine.model import (
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


def test_loss_rejects_degenerate_targets():
    params = tiny_params()
    ids = np.array([[1, 2, 3]])
    with pytest.raises(QtmineError):
        loss_and_grads(params, ids, None, np.zeros((1, 3), bool), np.array([], dtype=int))
    delta = np.array([[True, False, True]])
    with pytest.raises(QtmineError):
        loss_and_grads(params, ids, None, delta, np.array([1]))


def test_eval_loss_empty_targets_is_zero():
    params = tiny_params()
    ce, n = eval_loss(params, np.array([[1, 2]]), None, np.zeros((1, 2), bool), np.array([], int))
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
    p = init_params(big, seed=0, stddev=0.02)
    assert np.abs(p.emb).max() <= 0.04 + 1e-6  # truncated at two stddev
    assert 0.015 < p.emb.std() < 0.025
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
