"""Transformer encoder with a tied MLM head, in plain numpy.

Pre-layer-norm blocks with GELU feed-forward; the output projection is tied to
the input embedding table. Forward passes capture per-layer, per-head attention
matrices for the highlighting module. The backward pass is hand-derived and is
validated against central finite differences in the test suite; running it in
float64 (`Params.astype`) is what lets that oracle pass tight tolerances. The
forward pass keeps GELU's normal CDF in the layer cache, so the backward pass
does not evaluate `erf` again.

Training and evaluation share one loss head (`_mlm_head`): the vocabulary
projection and the cross-entropy run at the targeted positions only, and
`loss_and_grads` adds the backward pass that `eval_loss` skips.

Batches are padding-free for every row-wise layer. `_forward_core` gathers the
real tokens of a right-padded (B, S) batch, by their row lengths, into one
packed (N, d_model) block. The embedding sum, the layer norms, the Q/K/V/O
projections, the FFN and GELU run on that block. Only attention sees the
(B, S) layout: Q, K and V are scattered into zero-filled buffers, attention
masks the padded keys, and its output is gathered back. The backward pass
keeps the row-wise work packed too, with two exceptions that run on
zero-filled (B·S, ·) copies: the weight gradients X.T @ dY, and the FFN input
gradient df1 @ w1.T. Zero rows add nothing to those products, so they keep
the bits of a padded batch. Packed, they would not: a weight gradient sums
over fewer rows, which BLAS splits into other partial sums once B·S passes a
few hundred, and a packed df1 @ w1.T changes the fixed-seed golden checkpoint.
The packed products can also differ from one GEMM per sequence in the last
bits where BLAS picks another kernel for the smaller per-sequence product
(OpenBLAS does at d_model 128 for windows of 15 tokens or fewer);
`tests/test_model.py` bounds that difference against unpadded rows.

Scoring reads the vocabulary distribution only where a query asks for it:
`predict_masked` pads many sequences into key-padding-masked batches and
projects onto the vocabulary at the requested positions alone. `forward`
serves the attention views and is the tests' per-sequence reference.

`tensor_shapes(config)` is the one list of tensor names and shapes. It is the
checkpoint layout, and `Params.named_tensors`, `init_params`, `astype` and
`load_checkpoint` all follow it.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy.special import erf, ndtri

from .errors import CheckpointError, DataFormatError, QtmineError
from .util import write_atomic

LN_EPS = 1e-5
NEG_INF = -1e9
_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
# Sequences per padded batch in predict_masked; bounds scoring memory for
# large query sets (an analogy file, a long passage).
PREDICT_BATCH = 64

CHECKPOINT_MAGIC = b"QTMNCKPT"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    n_heads: int
    d_model: int
    d_ff: int
    max_seq: int
    vocab_size: int

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise DataFormatError(f"model dimension {name} must be an integer, got {value!r}")
        if min(self.n_layers, self.n_heads, self.d_model, self.d_ff, self.vocab_size) <= 0:
            raise DataFormatError("all model dimensions must be positive")
        if self.max_seq < 2:
            raise DataFormatError(f"max_seq must be >= 2, got {self.max_seq}")
        if self.d_model % self.n_heads != 0:
            raise DataFormatError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


def tensor_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Every tensor's name and shape, in checkpoint order."""
    d, dff, v = config.d_model, config.d_ff, config.vocab_size
    layer = (
        ("ln1_g", (d,)), ("ln1_b", (d,)), ("wq", (d, d)), ("bq", (d,)),
        ("wk", (d, d)), ("bk", (d,)), ("wv", (d, d)), ("bv", (d,)),
        ("wo", (d, d)), ("bo", (d,)), ("ln2_g", (d,)), ("ln2_b", (d,)),
        ("w1", (d, dff)), ("b1", (dff,)), ("w2", (dff, d)), ("b2", (d,)),
    )
    return [
        ("emb", (v, d)), ("pos", (config.max_seq, d)),
        *((f"layers.{i}.{name}", shape) for i in range(config.n_layers) for name, shape in layer),
        ("final_ln_g", (d,)), ("final_ln_b", (d,)), ("out_bias", (v,)),
    ]


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

    @classmethod
    def from_named(cls, config: ModelConfig, tensors: dict[str, np.ndarray]) -> "Params":
        """Params holding `tensors`, keyed by the names of `tensor_shapes(config)`."""
        top: dict[str, np.ndarray] = {}
        layers: list[dict[str, np.ndarray]] = [{} for _ in range(config.n_layers)]
        for name, _ in tensor_shapes(config):
            *layer, key = name.split(".")
            (layers[int(layer[1])] if layer else top)[key] = tensors[name]
        return cls(config=config, layers=layers, **top)

    @property
    def dtype(self) -> np.dtype:
        return self.emb.dtype

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        """All tensors in checkpoint order (`tensor_shapes`)."""
        out = []
        for name, _ in tensor_shapes(self.config):
            *layer, key = name.split(".")
            out.append((name, self.layers[int(layer[1])][key] if layer else getattr(self, key)))
        return out

    def astype(self, dtype) -> "Params":
        return Params.from_named(self.config, {n: a.astype(dtype) for n, a in self.named_tensors()})

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
    """Matrices from a truncated normal, biases zero, layer-norm gains one.

    The matrices are drawn layer by layer (wq, wk, wv, wo, w1, w2), then emb,
    then pos; that order fixes the random stream, so it fixes every checkpoint.
    """
    rng = np.random.default_rng(seed)
    shapes = dict(tensor_shapes(config))
    matrices = sorted((name for name, shape in shapes.items() if len(shape) == 2),
                      key=lambda name: not name.startswith("layers."))
    tensors = {name: _truncated_normal(rng, shapes[name], stddev, dtype) for name in matrices}
    for name, shape in shapes.items():
        if name not in tensors:
            tensors[name] = (np.ones if name.endswith("_g") else np.zeros)(shape, dtype=dtype)
    return Params.from_named(config, tensors)


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
    dg = np.sum(dy * xhat, axis=0)
    db = np.sum(dy, axis=0)
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


def _layout(ids: np.ndarray, lengths) -> tuple[np.ndarray, np.ndarray]:
    """A (B, S) batch's validated (B,) lengths and the flat row-major indices
    of its real tokens; `lengths=None` means every slot is a real token."""
    b, s = ids.shape
    if lengths is None:
        lengths = np.full(b, s, dtype=np.int64)
    else:
        lengths = np.asarray(lengths)
        if lengths.shape != (b,) or not np.issubdtype(lengths.dtype, np.integer):
            raise QtmineError(f"lengths must be {b} integers for a batch of {b} rows, got {lengths!r}")
        if lengths.min() < 1 or lengths.max() > s:
            raise QtmineError(f"lengths {lengths.tolist()} outside 1..{s}")
    return lengths, np.flatnonzero(np.arange(s) < lengths[:, None])


def _padded(rows: np.ndarray, slots: np.ndarray, n_slots: int) -> np.ndarray:
    """Packed (N, w) rows in a zero-filled (B·S, w) block, at their slots."""
    out = np.zeros((n_slots, rows.shape[1]), dtype=rows.dtype)
    out[slots] = rows
    return out


def _forward_core(params: Params, ids: np.ndarray, lengths: np.ndarray, slots: np.ndarray,
                  need_cache: bool):
    """Shared forward pass over a (B, S) id batch laid out by `_layout`.

    Returns (hf, attn, cache): hf holds the final hidden rows of the real
    tokens only, packed in row-major order (N, d_model). Every row-wise layer
    runs on that packed block; only attention sees the padded (B, S) batch.
    """
    cfg = params.config
    b, s = ids.shape
    if s > cfg.max_seq:
        raise QtmineError(f"sequence length {s} exceeds max_seq {cfg.max_seq}")
    dtype = params.dtype

    mask_add = None
    if slots.size < b * s:
        mask_add = np.where(np.arange(s)[None, :] < lengths[:, None], 0.0, NEG_INF)
        mask_add = mask_add.astype(dtype)[:, None, None, :]  # (B,1,1,S)

    tokens = ids.reshape(-1)[slots]
    h = params.emb[tokens] + params.pos[slots % s]
    scale = 1.0 / np.sqrt(np.asarray(cfg.d_head, dtype=dtype))

    def heads(rows):
        return _split_heads(_padded(rows, slots, b * s).reshape(b, s, -1), cfg.n_heads)

    cache = {"tokens": tokens, "slots": slots, "shape": (b, s), "layers": []} if need_cache else None
    attn_maps = []
    for layer in params.layers:
        u, ln1_cache = _ln_fwd(h, layer["ln1_g"], layer["ln1_b"])
        q = heads(u @ layer["wq"] + layer["bq"])
        k = heads(u @ layer["wk"] + layer["bk"])
        v = heads(u @ layer["wv"] + layer["bv"])
        scores = (q @ k.transpose(0, 1, 3, 2)) * scale
        if mask_add is not None:
            scores = scores + mask_add
        attn = stable_softmax(scores, axis=-1)
        ctx = _merge_heads(attn @ v).reshape(b * s, -1)
        o = ctx[slots] @ layer["wo"] + layer["bo"]
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
                "ln1": ln1_cache, "u": u, "q": q, "k": k, "v": v, "attn": attn,
                "ctx": ctx, "ln2": ln2_cache, "v_in": v_in, "f1": f1, "cdf": cdf, "f2": f2,
            })
        h = h_out

    hf, final_cache = _ln_fwd(h, params.final_ln_g, params.final_ln_b)
    if need_cache:
        cache["final_ln"] = final_cache
        cache["scale"] = scale
    return hf, attn_maps, cache


def _backward_core(params: Params, cache, dhf: np.ndarray) -> dict[str, np.ndarray]:
    """Backpropagate d(loss)/d(hf), packed (N, d_model), through the stack.

    Returns grads for all tensors. Row-wise work stays packed. Each weight
    gradient X.T @ dY, and the FFN input gradient df1 @ w1.T, runs on
    zero-filled (B·S, ·) copies instead: the padded products keep the bits of
    a padded batch, which packed ones do not on every BLAS.
    """
    cfg = params.config
    grads = {name: np.zeros_like(arr) for name, arr in params.named_tensors()}
    b, s = cache["shape"]
    slots = cache["slots"]

    def padded(rows):
        return _padded(rows, slots, b * s)

    dh, dgf, dbf = _ln_bwd(dhf, cache["final_ln"])
    grads["final_ln_g"] += dgf
    grads["final_ln_b"] += dbf

    scale = cache["scale"]
    for i in reversed(range(cfg.n_layers)):
        layer = params.layers[i]
        lcache = cache["layers"][i]
        prefix = f"layers.{i}."

        # Feed-forward sub-block (residual: h_out = h_mid + ffn(v_in)).
        grads[prefix + "w2"] += padded(lcache["f2"]).T @ padded(dh)
        grads[prefix + "b2"] += dh.sum(axis=0)
        df1 = (dh @ layer["w2"].T) * _gelu_grad(lcache["f1"], lcache["cdf"])
        df1_padded = padded(df1)
        grads[prefix + "w1"] += padded(lcache["v_in"]).T @ df1_padded
        grads[prefix + "b1"] += df1.sum(axis=0)
        dv_in = (df1_padded.reshape(b, s, -1) @ layer["w1"].T).reshape(b * s, -1)[slots]
        dh_mid, dg2, db2 = _ln_bwd(dv_in, lcache["ln2"])
        grads[prefix + "ln2_g"] += dg2
        grads[prefix + "ln2_b"] += db2
        dh_mid = dh_mid + dh

        # Attention sub-block (residual: h_mid = h_in + attn(u)).
        grads[prefix + "wo"] += lcache["ctx"].T @ padded(dh_mid)
        grads[prefix + "bo"] += dh_mid.sum(axis=0)
        dctx = _split_heads(padded(dh_mid @ layer["wo"].T).reshape(b, s, -1), cfg.n_heads)
        attn, q, k, v = lcache["attn"], lcache["q"], lcache["k"], lcache["v"]
        dattn = dctx @ v.transpose(0, 1, 3, 2)
        dv = attn.transpose(0, 1, 3, 2) @ dctx
        dscores = attn * (dattn - np.sum(dattn * attn, axis=-1, keepdims=True))
        dq = (dscores @ k) * scale
        dk = (dscores.transpose(0, 1, 3, 2) @ q) * scale
        u_padded = padded(lcache["u"])
        du = []
        for name, dx in (("q", dq), ("k", dk), ("v", dv)):
            dx = _merge_heads(dx).reshape(b * s, -1)
            grads[prefix + "w" + name] += u_padded.T @ dx
            dx = dx[slots]
            grads[prefix + "b" + name] += dx.sum(axis=0)
            du.append(dx @ layer["w" + name].T)
        dh_in, dg1, db1 = _ln_bwd(du[0] + du[1] + du[2], lcache["ln1"])
        grads[prefix + "ln1_g"] += dg1
        grads[prefix + "ln1_b"] += db1
        dh = dh_in + dh_mid

    np.add.at(grads["emb"], cache["tokens"], dh)
    grads["pos"][:s] += padded(dh).reshape(b, s, -1).sum(axis=0)
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


def pad_rows(rows, fill=0, dtype=np.int64) -> tuple[np.ndarray, np.ndarray]:
    """1-D rows as one (B, S) batch, right-padded with `fill`, and their (B,) lengths."""
    lengths = np.array([len(row) for row in rows], dtype=np.int64)
    batch = np.full((len(rows), lengths.max()), fill, dtype=dtype)
    for i, row in enumerate(rows):
        batch[i, :lengths[i]] = row
    return batch, lengths


def forward(params: Params, seq, collect_attention: bool = True) -> ForwardOut:
    """Run one sequence through the model; deterministic for fixed inputs."""
    ids = _check_ids(params, seq).reshape(1, -1)
    hidden, attn_maps, _ = _forward_core(params, ids, *_layout(ids, None), need_cache=False)
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
        batch, lengths = pad_rows([ids[i] for i in chunk])
        hf, _, _ = _forward_core(params, batch, *_layout(batch, lengths), need_cache=False)
        starts = np.cumsum(lengths) - lengths         # each sequence's first packed row
        counts = [pos[i].size for i in chunk]
        rows = np.repeat(starts, counts) + np.concatenate([pos[i] for i in chunk])
        probs = stable_softmax(_vocab_logits(params, hf[rows]))
        for i, part in zip(chunk, np.split(probs, np.cumsum(counts)[:-1])):
            out[i] = part
    return out


def _mlm_head(params: Params, ids, lengths, delta, labels, need_grads: bool):
    """The masked-LM loss head shared by training and evaluation.

    Runs the (B, S) batch through the stack, gathers the final hidden rows at
    the `delta` positions and projects them onto the vocabulary. Returns the
    per-target cross-entropy log Σexp(z − zmax) − (z_label − zmax) and, with
    `need_grads`, the gradients of its mean (otherwise None).
    """
    ids = np.asarray(ids, dtype=np.int64)
    delta = np.asarray(delta, dtype=bool)
    labels = np.asarray(labels, dtype=np.int64)
    if ids.ndim != 2 or delta.shape != ids.shape:
        raise QtmineError(f"targeting mask of shape {delta.shape} for an id batch of shape {ids.shape}")
    n_targeted = int(delta.sum())
    if labels.shape[0] != n_targeted:
        raise QtmineError(f"{labels.shape[0]} labels for {n_targeted} targeted positions")
    lengths, slots = _layout(ids, lengths)
    targets = delta.reshape(-1)[slots]                # (N,) over the packed rows
    if int(targets.sum()) != n_targeted:
        raise QtmineError("a targeted position lies at or past its row's length")
    if n_targeted == 0:
        if need_grads:
            raise QtmineError("batch has no targeted positions")
        return np.zeros(0, dtype=params.dtype), None

    hf, _, cache = _forward_core(params, ids, lengths, slots, need_cache=need_grads)
    rows = hf[targets]                                # (T, d)
    z = _vocab_logits(params, rows)                   # (T, V)
    z -= z.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    sez = ez.sum(axis=-1, keepdims=True)
    target = np.arange(n_targeted), labels
    ce = np.log(sez[:, 0]) - z[target]
    if not need_grads:
        return ce, None

    dz = np.divide(ez, sez, out=ez)                   # softmax, in ez's memory
    dz[target] -= 1.0
    dz /= n_targeted
    dhf = np.zeros_like(hf)
    dhf[targets] = dz @ params.emb
    grads = _backward_core(params, cache, dhf)
    grads["emb"] += dz.T @ rows
    grads["out_bias"] += dz.sum(axis=0)
    return ce, grads


def loss_and_grads(
    params: Params,
    ids: np.ndarray,
    lengths: np.ndarray | None,
    delta: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean masked cross-entropy over targeted positions, with full gradients.

    `ids` is the corrupted (B, S) batch, right-padded to the (B,) `lengths`
    (None: no padding), `delta` a boolean (B, S) targeting mask, and `labels`
    the original token ids at the targeted positions, taken in row-major
    order. Logits are only formed at targeted positions; a batch with none, a
    length outside 1..S, a mask of another shape or a target in the padding
    is an error.
    """
    ce, grads = _mlm_head(params, ids, lengths, delta, labels, need_grads=True)
    return float(ce.mean()), grads


def eval_loss(params: Params, ids: np.ndarray, lengths: np.ndarray | None,
              delta: np.ndarray, labels: np.ndarray) -> tuple[float, int]:
    """Summed masked cross-entropy without gradients; returns (ce_sum, count)."""
    ce, _ = _mlm_head(params, ids, lengths, delta, labels, need_grads=False)
    return float(ce.sum()), ce.size


def save_checkpoint(params: Params, path: str | Path) -> None:
    """Write the weights as little-endian float32 with a JSON config sidecar.

    Each file is replaced atomically, the binary first and the sidecar last,
    so a save that fails part-way leaves the earlier sidecar in place.
    """
    path = Path(path)
    tensors = params.named_tensors()
    flat = np.concatenate([np.ascontiguousarray(arr, dtype="<f4").reshape(-1) for _, arr in tensors])
    header = CHECKPOINT_MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, flat.size)
    write_atomic(path, header + flat.tobytes())
    sidecar = {
        "format_version": CHECKPOINT_VERSION,
        "model": asdict(params.config),
        "tensors": [{"name": name, "shape": list(arr.shape)} for name, arr in tensors],
    }
    write_atomic(str(path) + ".json", json.dumps(sidecar, indent=2).encode("utf-8"))


def load_checkpoint(path: str | Path) -> Params:
    """Read a checkpoint; any truncation, shape mismatch or non-finite weight is fatal."""
    path = Path(path)
    sidecar_path = Path(str(path) + ".json")
    try:
        sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
        config = ModelConfig(**sidecar["model"])
        declared = [(t["name"], tuple(t["shape"])) for t in sidecar["tensors"]]
        raw = path.read_bytes()
    except (OSError, KeyError, TypeError, ValueError, DataFormatError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc

    expected = tensor_shapes(config)
    if declared != expected:
        raise CheckpointError(
            f"sidecar tensors inconsistent with config: expected {expected[:3]}..., found {declared[:3]}..."
        )

    header_len = len(CHECKPOINT_MAGIC) + struct.calcsize("<IQ")
    if len(raw) < header_len or raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic in {path}")
    version, n_floats = struct.unpack("<IQ", raw[len(CHECKPOINT_MAGIC):header_len])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}")
    expected_floats = sum(math.prod(shape) for _, shape in expected)
    if n_floats != expected_floats:
        raise CheckpointError(f"checkpoint declares {n_floats} floats, config implies {expected_floats}")
    if len(raw) - header_len != 4 * n_floats:
        raise CheckpointError(f"checkpoint holds {len(raw) - header_len} data bytes, header declares {n_floats} floats")
    data = np.frombuffer(raw, dtype="<f4", offset=header_len)

    tensors = {}
    offset = 0
    for name, shape in expected:
        chunk = data[offset:offset + math.prod(shape)]
        if not np.isfinite(chunk).all():
            raise CheckpointError(f"non-finite weights in tensor {name} of {path}")
        tensors[name] = chunk.astype(np.float32).reshape(shape)
        offset += chunk.size
    return Params.from_named(config, tensors)
