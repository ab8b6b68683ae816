"""Transformer encoder with a tied MLM head, in plain numpy.

Pre-layer-norm blocks with GELU feed-forward; the output projection is tied to
the input embedding table. Forward passes capture per-layer, per-head attention
matrices for the highlighting module. The backward pass is hand-derived and is
validated against central finite differences in the test suite; running it in
float64 (`Params.astype`) is what lets that oracle pass tight tolerances. The
forward pass keeps GELU's normal CDF in the layer cache, so the backward pass
does not evaluate `erf` again.

Scoring reads the vocabulary distribution only where a query asks for it:
`predict_masked` pads many sequences into key-padding-masked batches and
projects onto the vocabulary at the requested positions alone. `forward`
serves the attention views and is the tests' per-sequence reference.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import erf, ndtri

from .errors import CheckpointError, DataFormatError, QtmineError

LN_EPS = 1e-5
NEG_INF = -1e9
_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
# Sequences per padded batch in predict_masked; bounds scoring memory for
# large query sets (an analogy file, a long passage).
PREDICT_BATCH = 64

CHECKPOINT_MAGIC = b"QTMNCKPT"
CHECKPOINT_VERSION = 1

LAYER_FIELDS = (
    "ln1_g", "ln1_b", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
    "ln2_g", "ln2_b", "w1", "b1", "w2", "b2",
)


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    n_heads: int
    d_model: int
    d_ff: int
    max_seq: int
    vocab_size: int

    def __post_init__(self):
        if min(self.n_layers, self.n_heads, self.d_model, self.d_ff, self.vocab_size) <= 0:
            raise DataFormatError("all model dimensions must be positive")
        if self.max_seq < 2:
            raise DataFormatError(f"max_seq must be >= 2, got {self.max_seq}")
        if self.d_model % self.n_heads != 0:
            raise DataFormatError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


@dataclass
class Params:
    """All model weights. Arrays share one dtype (float32 by default)."""

    config: ModelConfig
    emb: np.ndarray                      # (vocab_size, d_model), tied output projection
    pos: np.ndarray                      # (max_seq, d_model)
    layers: list[dict[str, np.ndarray]]
    final_ln_g: np.ndarray
    final_ln_b: np.ndarray
    out_bias: np.ndarray                 # (vocab_size,)

    @property
    def dtype(self) -> np.dtype:
        return self.emb.dtype

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        """All tensors in the documented checkpoint order."""
        out = [("emb", self.emb), ("pos", self.pos)]
        for i, layer in enumerate(self.layers):
            for name in LAYER_FIELDS:
                out.append((f"layers.{i}.{name}", layer[name]))
        out.extend([
            ("final_ln_g", self.final_ln_g),
            ("final_ln_b", self.final_ln_b),
            ("out_bias", self.out_bias),
        ])
        return out

    def astype(self, dtype) -> "Params":
        return Params(
            config=self.config,
            emb=self.emb.astype(dtype),
            pos=self.pos.astype(dtype),
            layers=[{k: v.astype(dtype) for k, v in layer.items()} for layer in self.layers],
            final_ln_g=self.final_ln_g.astype(dtype),
            final_ln_b=self.final_ln_b.astype(dtype),
            out_bias=self.out_bias.astype(dtype),
        )

    def copy(self) -> "Params":
        return self.astype(self.dtype)


@dataclass
class ForwardOut:
    hidden: np.ndarray       # (S, d_model)
    logits: np.ndarray       # (S, vocab_size)
    attentions: np.ndarray   # (n_layers, n_heads, S, S), rows sum to 1


def _truncated_normal(rng: np.random.Generator, shape, stddev: float, dtype) -> np.ndarray:
    """Normal(0, stddev) truncated at +-2 stddev, via the inverse CDF."""
    lo, hi = 0.0227501319481792, 0.9772498680518208  # Phi(-2), Phi(2)
    u = rng.uniform(lo, hi, size=shape)
    return (ndtri(u) * stddev).astype(dtype)


def init_params(config: ModelConfig, seed: int, stddev: float = 0.02, dtype=np.float32) -> Params:
    """Weights from a truncated normal, biases zero, layer-norm gain one."""
    rng = np.random.default_rng(seed)
    d, dff = config.d_model, config.d_ff

    def w(*shape):
        return _truncated_normal(rng, shape, stddev, dtype)

    def zeros(*shape):
        return np.zeros(shape, dtype=dtype)

    layers = []
    for _ in range(config.n_layers):
        layers.append({
            "ln1_g": np.ones(d, dtype=dtype), "ln1_b": zeros(d),
            "wq": w(d, d), "bq": zeros(d),
            "wk": w(d, d), "bk": zeros(d),
            "wv": w(d, d), "bv": zeros(d),
            "wo": w(d, d), "bo": zeros(d),
            "ln2_g": np.ones(d, dtype=dtype), "ln2_b": zeros(d),
            "w1": w(d, dff), "b1": zeros(dff),
            "w2": w(dff, d), "b2": zeros(d),
        })
    return Params(
        config=config,
        emb=w(config.vocab_size, d),
        pos=w(config.max_seq, d),
        layers=layers,
        final_ln_g=np.ones(d, dtype=dtype),
        final_ln_b=zeros(d),
        out_bias=zeros(config.vocab_size),
    )


def zero_grads(params: Params) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.named_tensors()}


def stable_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def _gelu_grad(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """d/dx of x * Phi(x), given the forward pass's Phi(x)."""
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return cdf + x * pdf


def _ln_fwd(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    ivar = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * ivar
    return g * xhat + b, (xhat, ivar, g)


def _ln_bwd(dy: np.ndarray, cache):
    xhat, ivar, g = cache
    axes = tuple(range(dy.ndim - 1))
    dg = np.sum(dy * xhat, axis=axes)
    db = np.sum(dy, axis=axes)
    dxhat = dy * g
    dx = ivar * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True)
    )
    return dx, dg, db


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    b, s, d = x.shape
    return x.reshape(b, s, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, s, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, s, h * dh)


def _forward_core(params: Params, ids: np.ndarray, lengths: np.ndarray | None, need_cache: bool):
    """Shared forward pass over a (B, S) id batch. Returns (hf, attn, cache)."""
    cfg = params.config
    b, s = ids.shape
    if s > cfg.max_seq:
        raise QtmineError(f"sequence length {s} exceeds max_seq {cfg.max_seq}")
    dtype = params.dtype

    mask_add = None
    if lengths is not None:
        cols = np.arange(s)
        mask_add = np.where(cols[None, :] < np.asarray(lengths)[:, None], 0.0, NEG_INF)
        mask_add = mask_add.astype(dtype)[:, None, None, :]  # (B,1,1,S)

    h = params.emb[ids] + params.pos[:s][None, :, :]
    scale = 1.0 / np.sqrt(np.asarray(cfg.d_head, dtype=dtype))

    cache = {"ids": ids, "layers": []} if need_cache else None
    attn_maps = []
    for layer in params.layers:
        u, ln1_cache = _ln_fwd(h, layer["ln1_g"], layer["ln1_b"])
        q = _split_heads(u @ layer["wq"] + layer["bq"], cfg.n_heads)
        k = _split_heads(u @ layer["wk"] + layer["bk"], cfg.n_heads)
        v = _split_heads(u @ layer["wv"] + layer["bv"], cfg.n_heads)
        scores = (q @ k.transpose(0, 1, 3, 2)) * scale
        if mask_add is not None:
            scores = scores + mask_add
        attn = stable_softmax(scores, axis=-1)
        ctx = _merge_heads(attn @ v)
        o = ctx @ layer["wo"] + layer["bo"]
        h_mid = h + o

        v_in, ln2_cache = _ln_fwd(h_mid, layer["ln2_g"], layer["ln2_b"])
        f1 = v_in @ layer["w1"] + layer["b1"]
        # GELU(x) = x * Phi(x); halving is exact, so this equals 0.5 * x * (1 + erf).
        cdf = 0.5 * (1.0 + erf(f1 / _SQRT2))
        f2 = f1 * cdf
        h_out = h_mid + f2 @ layer["w2"] + layer["b2"]

        attn_maps.append(attn)
        if need_cache:
            cache["layers"].append({
                "h_in": h, "ln1": ln1_cache, "u": u, "q": q, "k": k, "v": v,
                "attn": attn, "ctx": ctx, "ln2": ln2_cache, "v_in": v_in,
                "f1": f1, "cdf": cdf, "f2": f2,
            })
        h = h_out

    hf, final_cache = _ln_fwd(h, params.final_ln_g, params.final_ln_b)
    if need_cache:
        cache["final_ln"] = final_cache
        cache["scale"] = scale
    return hf, attn_maps, cache


def _backward_core(params: Params, cache, dhf: np.ndarray) -> dict[str, np.ndarray]:
    """Backpropagate d(loss)/d(hf) through the stack; returns grads for all tensors."""
    cfg = params.config
    grads = zero_grads(params)
    d = cfg.d_model

    dh, dgf, dbf = _ln_bwd(dhf, cache["final_ln"])
    grads["final_ln_g"] += dgf
    grads["final_ln_b"] += dbf

    scale = cache["scale"]
    for i in reversed(range(cfg.n_layers)):
        layer = params.layers[i]
        lcache = cache["layers"][i]
        prefix = f"layers.{i}."

        # Feed-forward sub-block (residual: h_out = h_mid + ffn(v_in)).
        df3 = dh
        grads[prefix + "w2"] += lcache["f2"].reshape(-1, cfg.d_ff).T @ df3.reshape(-1, d)
        grads[prefix + "b2"] += df3.sum(axis=(0, 1))
        df1 = (df3 @ layer["w2"].T) * _gelu_grad(lcache["f1"], lcache["cdf"])
        grads[prefix + "w1"] += lcache["v_in"].reshape(-1, d).T @ df1.reshape(-1, cfg.d_ff)
        grads[prefix + "b1"] += df1.sum(axis=(0, 1))
        dv_in = df1 @ layer["w1"].T
        dh_mid, dg2, db2 = _ln_bwd(dv_in, lcache["ln2"])
        grads[prefix + "ln2_g"] += dg2
        grads[prefix + "ln2_b"] += db2
        dh_mid = dh_mid + dh

        # Attention sub-block (residual: h_mid = h_in + attn(u)).
        do = dh_mid
        grads[prefix + "wo"] += lcache["ctx"].reshape(-1, d).T @ do.reshape(-1, d)
        grads[prefix + "bo"] += do.sum(axis=(0, 1))
        dctx = _split_heads(do @ layer["wo"].T, cfg.n_heads)
        attn, q, k, v = lcache["attn"], lcache["q"], lcache["k"], lcache["v"]
        dattn = dctx @ v.transpose(0, 1, 3, 2)
        dv = attn.transpose(0, 1, 3, 2) @ dctx
        dscores = attn * (dattn - np.sum(dattn * attn, axis=-1, keepdims=True))
        dq = (dscores @ k) * scale
        dk = (dscores.transpose(0, 1, 3, 2) @ q) * scale
        dq2, dk2, dv2 = (_merge_heads(x).reshape(-1, d) for x in (dq, dk, dv))
        u2 = lcache["u"].reshape(-1, d)
        grads[prefix + "wq"] += u2.T @ dq2
        grads[prefix + "bq"] += dq2.sum(axis=0)
        grads[prefix + "wk"] += u2.T @ dk2
        grads[prefix + "bk"] += dk2.sum(axis=0)
        grads[prefix + "wv"] += u2.T @ dv2
        grads[prefix + "bv"] += dv2.sum(axis=0)
        du = (dq2 @ layer["wq"].T + dk2 @ layer["wk"].T + dv2 @ layer["wv"].T).reshape(dh_mid.shape)
        dh_in, dg1, db1 = _ln_bwd(du, lcache["ln1"])
        grads[prefix + "ln1_g"] += dg1
        grads[prefix + "ln1_b"] += db1
        dh = dh_in + dh_mid

    ids = cache["ids"]
    s = ids.shape[1]
    np.add.at(grads["emb"], ids.reshape(-1), dh.reshape(-1, d))
    grads["pos"][:s] += dh.sum(axis=0)
    return grads


def _vocab_logits(params: Params, rows: np.ndarray) -> np.ndarray:
    """The tied MLM head: final hidden rows (..., d) onto the vocabulary (..., V)."""
    return rows @ params.emb.T + params.out_bias


def _check_ids(params: Params, seq) -> np.ndarray:
    """One sequence as a 1-D int64 array; empty or out-of-vocabulary ids are fatal."""
    ids = np.asarray(seq, dtype=np.int64).reshape(-1)
    if ids.size == 0:
        raise QtmineError("cannot run the model on an empty sequence")
    if ids.max() >= params.config.vocab_size or ids.min() < 0:
        raise QtmineError(f"token id out of range for vocab_size {params.config.vocab_size}")
    return ids


def forward(params: Params, seq, collect_attention: bool = True) -> ForwardOut:
    """Run one sequence through the model; deterministic for fixed inputs."""
    ids = _check_ids(params, seq).reshape(1, -1)
    hf, attn_maps, _ = _forward_core(params, ids, lengths=None, need_cache=False)
    hidden = hf[0]
    logits = _vocab_logits(params, hidden)
    attentions = np.stack([a[0] for a in attn_maps]) if collect_attention and attn_maps else np.zeros(
        (0, params.config.n_heads, ids.shape[1], ids.shape[1]), dtype=params.dtype
    )
    return ForwardOut(hidden=hidden, logits=logits, attentions=attentions)


def softmax_position(out: ForwardOut, t: int) -> np.ndarray:
    """Probability vector over the vocabulary at position t (max-subtracted)."""
    s = out.logits.shape[0]
    if not 0 <= t < s:
        raise QtmineError(f"position {t} out of range for sequence length {s}")
    return stable_softmax(out.logits[t])


def predict_masked(params: Params, seqs, positions) -> list[np.ndarray]:
    """Vocabulary distributions at the requested positions of many sequences.

    Entry i of the result is a (len(positions[i]), vocab_size) array whose rows
    are the probability vectors at positions[i] of seqs[i]. Sequences are
    sorted by (length, ids) and padded, PREDICT_BATCH at a time, into (B, S)
    batches with a key-padding mask, so padding never changes a valid
    position's output; the vocabulary head runs at the requested positions
    only. Because the batches depend only on the set of sequences, each result
    is the same whatever the input order.
    """
    if len(seqs) != len(positions):
        raise QtmineError(f"{len(seqs)} sequences but {len(positions)} position lists")
    ids = [_check_ids(params, seq) for seq in seqs]
    pos = [np.asarray(p, dtype=np.int64).reshape(-1) for p in positions]
    for seq, p in zip(ids, pos):
        if p.size and not (0 <= p.min() and p.max() < seq.size):
            raise QtmineError(f"positions {p.tolist()} out of range for sequence length {seq.size}")

    order = sorted(range(len(ids)), key=lambda i: (ids[i].size, ids[i].tolist()))
    out: list[np.ndarray] = [np.empty(0)] * len(ids)
    for lo in range(0, len(order), PREDICT_BATCH):
        chunk = order[lo:lo + PREDICT_BATCH]
        lengths = np.array([ids[i].size for i in chunk])
        batch = np.zeros((len(chunk), lengths.max()), dtype=np.int64)
        for row, i in enumerate(chunk):
            batch[row, :lengths[row]] = ids[i]
        hf, _, _ = _forward_core(params, batch, lengths, need_cache=False)
        counts = [pos[i].size for i in chunk]
        rows = np.repeat(np.arange(len(chunk)), counts)
        cols = np.concatenate([pos[i] for i in chunk])
        probs = stable_softmax(_vocab_logits(params, hf[rows, cols]))
        for i, part in zip(chunk, np.split(probs, np.cumsum(counts)[:-1])):
            out[i] = part
    return out


def loss_and_grads(
    params: Params,
    ids: np.ndarray,
    lengths: np.ndarray | None,
    delta: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean masked cross-entropy over targeted positions, with full gradients.

    `ids` is the corrupted (B, S) batch, `delta` a boolean (B, S) targeting
    mask, and `labels` the original token ids at the targeted positions, taken
    in row-major order. Logits are only formed at targeted positions.
    """
    ids = np.asarray(ids, dtype=np.int64)
    delta = np.asarray(delta, dtype=bool)
    labels = np.asarray(labels, dtype=np.int64)
    n_targeted = int(delta.sum())
    if n_targeted == 0:
        raise QtmineError("batch has no targeted positions")
    if labels.shape[0] != n_targeted:
        raise QtmineError(f"{labels.shape[0]} labels for {n_targeted} targeted positions")

    hf, _, cache = _forward_core(params, ids, lengths, need_cache=True)
    rows = hf[delta]                                  # (T, d)
    z = _vocab_logits(params, rows)                   # (T, V)

    zmax = z.max(axis=-1, keepdims=True)
    ez = np.exp(z - zmax)
    sez = ez.sum(axis=-1, keepdims=True)
    log_probs = (z - zmax) - np.log(sez)
    loss = float(-log_probs[np.arange(n_targeted), labels].mean())

    dz = ez / sez
    dz[np.arange(n_targeted), labels] -= 1.0
    dz /= n_targeted

    drows = dz @ params.emb
    dhf = np.zeros_like(hf)
    dhf[delta] = drows
    grads = _backward_core(params, cache, dhf)
    grads["emb"] += dz.T @ rows
    grads["out_bias"] += dz.sum(axis=0)
    return loss, grads


def eval_loss(params: Params, ids: np.ndarray, lengths: np.ndarray | None,
              delta: np.ndarray, labels: np.ndarray) -> tuple[float, int]:
    """Summed masked cross-entropy without gradients; returns (ce_sum, count)."""
    ids = np.asarray(ids, dtype=np.int64)
    delta = np.asarray(delta, dtype=bool)
    labels = np.asarray(labels, dtype=np.int64)
    n_targeted = int(delta.sum())
    if n_targeted == 0:
        return 0.0, 0
    hf, _, _ = _forward_core(params, ids, lengths, need_cache=False)
    z = _vocab_logits(params, hf[delta])
    zmax = z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z - zmax).sum(axis=-1)) + zmax[:, 0]
    ce = lse - z[np.arange(n_targeted), labels]
    return float(ce.sum()), n_targeted


def save_checkpoint(params: Params, path: str | Path) -> None:
    """Write the weights as little-endian float32 with a JSON config sidecar."""
    path = Path(path)
    tensors = params.named_tensors()
    flat = np.concatenate([np.ascontiguousarray(arr, dtype="<f4").reshape(-1) for _, arr in tensors])
    header = CHECKPOINT_MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, flat.size)
    path.write_bytes(header + flat.tobytes())
    sidecar = {
        "format_version": CHECKPOINT_VERSION,
        "model": {
            "n_layers": params.config.n_layers,
            "n_heads": params.config.n_heads,
            "d_model": params.config.d_model,
            "d_ff": params.config.d_ff,
            "max_seq": params.config.max_seq,
            "vocab_size": params.config.vocab_size,
        },
        "tensors": [{"name": name, "shape": list(arr.shape)} for name, arr in tensors],
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2), encoding="utf-8")


def load_checkpoint(path: str | Path) -> Params:
    """Read a checkpoint; any truncation, shape mismatch or non-finite weight is fatal."""
    path = Path(path)
    sidecar_path = Path(str(path) + ".json")
    if not path.exists() or not sidecar_path.exists():
        raise CheckpointError(f"checkpoint or sidecar missing: {path}")
    try:
        sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
        config = ModelConfig(**sidecar["model"])
        declared = [(t["name"], tuple(t["shape"])) for t in sidecar["tensors"]]
    except (KeyError, TypeError, ValueError, DataFormatError) as exc:
        raise CheckpointError(f"malformed sidecar {sidecar_path}: {exc}") from exc

    template = init_params(config, seed=0, stddev=0.0)
    expected = [(name, arr.shape) for name, arr in template.named_tensors()]
    if declared != expected:
        raise CheckpointError(
            f"sidecar tensors inconsistent with config: expected {expected[:3]}..., found {declared[:3]}..."
        )

    raw = path.read_bytes()
    header_len = len(CHECKPOINT_MAGIC) + struct.calcsize("<IQ")
    if len(raw) < header_len or raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic in {path}")
    version, n_floats = struct.unpack("<IQ", raw[len(CHECKPOINT_MAGIC):header_len])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}")
    expected_floats = sum(int(np.prod(shape)) for _, shape in expected)
    if n_floats != expected_floats:
        raise CheckpointError(f"checkpoint declares {n_floats} floats, config implies {expected_floats}")
    data = np.frombuffer(raw, dtype="<f4", offset=header_len)
    if data.size != n_floats:
        raise CheckpointError(f"checkpoint truncated: {data.size} floats on disk, header declares {n_floats}")

    offset = 0
    for name, arr in template.named_tensors():
        n = arr.size
        chunk = data[offset:offset + n]
        if not np.isfinite(chunk).all():
            raise CheckpointError(f"non-finite weights in tensor {name} of {path}")
        arr[...] = chunk.reshape(arr.shape)
        offset += n
    return template
