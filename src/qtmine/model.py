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

Batches are padding-free. The model runs on packed rows: the real tokens of
every sequence back to back, (N, d_model), with the (B, S) layout of
`loss_and_grads` and `eval_loss` only at their interface. The embedding sum,
the layer norms, every projection, the FFN and GELU, and in the backward pass
every weight gradient X.T @ dY and input gradient, run on the packed block.
Attention runs once per group of equal-length sequences (`_groups`): the
group's Q, K and V rows form a dense (g, n_heads, L, d_head) block, so the
scores, the softmax and attn @ v need no mask, and the context rows go back to
their packed places. Sequences of one length that lie next to each other are
read as a view, not gathered. In float32 the packed products round
differently from one product per sequence in the last bits (BLAS splits a sum
over more rows into other partial sums, and may pick another kernel for a
smaller product); `tests/test_model.py` bounds that difference against
unpadded rows, and `tests/test_train.py` the fixed-seed loss curve.

Scoring reads the vocabulary distribution only where a query asks for it:
`predict_masked` packs many sequences, sorted by length, into one batch and
projects onto the vocabulary at the requested positions alone. `forward` runs
one sequence, a single group, and serves the attention views; it is the
tests' per-sequence reference.

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
# Standard deviation of the truncated normal that initialises every matrix.
INIT_STDDEV = 0.02
_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
# Sequences per batch in predict_masked; bounds scoring memory for
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
    """All model weights. Arrays share one dtype (float32 unless `astype` changed it)."""

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


def _truncated_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal(0, INIT_STDDEV) truncated at +-2 INIT_STDDEV, via the inverse CDF, in float32."""
    lo, hi = 0.0227501319481792, 0.9772498680518208  # Phi(-2), Phi(2)
    u = rng.uniform(lo, hi, size=shape)
    return (ndtri(u) * INIT_STDDEV).astype(np.float32)


def init_params(config: ModelConfig, seed: int) -> Params:
    """Float32 matrices from a truncated normal, biases zero, layer-norm gains one.

    The matrices are drawn layer by layer (wq, wk, wv, wo, w1, w2), then emb,
    then pos; that order fixes the random stream, so it fixes every checkpoint.
    """
    rng = np.random.default_rng(seed)
    shapes = dict(tensor_shapes(config))
    matrices = sorted((name for name, shape in shapes.items() if len(shape) == 2),
                      key=lambda name: not name.startswith("layers."))
    tensors = {name: _truncated_normal(rng, shapes[name]) for name in matrices}
    for name, shape in shapes.items():
        if name not in tensors:
            tensors[name] = (np.ones if name.endswith("_g") else np.zeros)(shape, dtype=np.float32)
    return Params.from_named(config, tensors)


def stable_softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, with the maximum subtracted first."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


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


def _split_heads(rows: np.ndarray, g: int, n_heads: int) -> np.ndarray:
    """Packed rows of g equal-length sequences (g·L, d) as (g, n_heads, L, d_head)."""
    return rows.reshape(g, -1, n_heads, rows.shape[1] // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(g, n_heads, L, d_head) back to packed (g·L, d) rows."""
    g, h, n, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(g * n, h * dh)


def _layout(ids: np.ndarray, lengths) -> tuple[np.ndarray, np.ndarray]:
    """A (B, S) batch's validated (B,) lengths and the flat row-major indices
    of its real tokens."""
    b, s = ids.shape
    lengths = np.asarray(lengths)
    if lengths.shape != (b,) or not np.issubdtype(lengths.dtype, np.integer):
        raise QtmineError(f"lengths must be {b} integers for a batch of {b} rows, got {lengths!r}")
    if lengths.min() < 1 or lengths.max() > s:
        raise QtmineError(f"lengths {lengths.tolist()} outside 1..{s}")
    return lengths, np.flatnonzero(np.arange(s) < lengths[:, None])


def _groups(lengths: np.ndarray, starts: np.ndarray) -> list[tuple[int, int, slice | np.ndarray]]:
    """(count g, length L, packed rows) for each distinct sequence length.

    The rows of a group whose sequences lie next to each other form a slice,
    so reading them is a view rather than a gather.
    """
    out = []
    for n in np.unique(lengths).tolist():
        seqs = np.flatnonzero(lengths == n)
        if seqs[-1] - seqs[0] + 1 == seqs.size:
            first = int(starts[seqs[0]])
            rows = slice(first, first + seqs.size * n)
        else:
            rows = (starts[seqs][:, None] + np.arange(n)).reshape(-1)
        out.append((seqs.size, n, rows))
    return out


def _forward_core(params: Params, tokens: np.ndarray, lengths: np.ndarray, need_cache: bool):
    """Shared forward pass over sequences packed back to back.

    `tokens` (N,) holds the ids of B sequences of the given (B,) `lengths`, one
    after the other. Returns (hf, attn, cache): hf the final hidden rows,
    packed the same way (N, d_model), and attn, per layer, the attention maps
    (g, n_heads, L, L) of each group of equal-length sequences (`_groups`).
    """
    cfg = params.config
    if lengths.max() > cfg.max_seq:
        raise QtmineError(f"sequence length {lengths.max()} exceeds max_seq {cfg.max_seq}")
    starts = np.cumsum(lengths) - lengths
    groups = _groups(lengths, starts)
    positions = np.arange(tokens.size) - np.repeat(starts, lengths)
    h = params.emb[tokens] + params.pos[positions]
    scale = 1.0 / np.sqrt(np.asarray(cfg.d_head, dtype=params.dtype))

    cache = {"tokens": tokens, "groups": groups, "layers": []} if need_cache else None
    attn_maps = []
    for layer in params.layers:
        u, ln1_cache = _ln_fwd(h, layer["ln1_g"], layer["ln1_b"])
        q, k, v = (u @ layer["w" + name] + layer["b" + name] for name in "qkv")
        ctx = np.empty_like(u)
        blocks = []
        for g, n, rows in groups:
            qg, kg, vg = (_split_heads(x[rows], g, cfg.n_heads) for x in (q, k, v))
            attn = stable_softmax((qg @ kg.transpose(0, 1, 3, 2)) * scale)
            ctx[rows] = _merge_heads(attn @ vg)
            blocks.append((qg, kg, vg, attn))
        o = ctx @ layer["wo"] + layer["bo"]
        h_mid = h + o

        v_in, ln2_cache = _ln_fwd(h_mid, layer["ln2_g"], layer["ln2_b"])
        f1 = v_in @ layer["w1"] + layer["b1"]
        # GELU(x) = x * Phi(x); halving is exact, so this equals 0.5 * x * (1 + erf).
        cdf = 0.5 * (1.0 + erf(f1 / _SQRT2))
        f2 = f1 * cdf
        h_out = h_mid + f2 @ layer["w2"] + layer["b2"]

        attn_maps.append([block[3] for block in blocks])
        if need_cache:
            cache["layers"].append({
                "ln1": ln1_cache, "u": u, "blocks": blocks,
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

    Returns grads for all tensors. Every product runs on the packed rows,
    except attention's, which run per group of equal-length sequences.
    """
    cfg = params.config
    grads = {name: np.zeros_like(arr) for name, arr in params.named_tensors()}

    dh, dgf, dbf = _ln_bwd(dhf, cache["final_ln"])
    grads["final_ln_g"] += dgf
    grads["final_ln_b"] += dbf

    scale = cache["scale"]
    for i in reversed(range(cfg.n_layers)):
        layer = params.layers[i]
        lcache = cache["layers"][i]
        prefix = f"layers.{i}."

        # Feed-forward sub-block (residual: h_out = h_mid + ffn(v_in)).
        grads[prefix + "w2"] += lcache["f2"].T @ dh
        grads[prefix + "b2"] += dh.sum(axis=0)
        df1 = (dh @ layer["w2"].T) * _gelu_grad(lcache["f1"], lcache["cdf"])
        grads[prefix + "w1"] += lcache["v_in"].T @ df1
        grads[prefix + "b1"] += df1.sum(axis=0)
        dh_mid, dg2, db2 = _ln_bwd(df1 @ layer["w1"].T, lcache["ln2"])
        grads[prefix + "ln2_g"] += dg2
        grads[prefix + "ln2_b"] += db2
        dh_mid = dh_mid + dh

        # Attention sub-block (residual: h_mid = h_in + attn(u)).
        grads[prefix + "wo"] += lcache["ctx"].T @ dh_mid
        grads[prefix + "bo"] += dh_mid.sum(axis=0)
        dctx = dh_mid @ layer["wo"].T
        dq, dk, dv = (np.empty_like(dctx) for _ in range(3))
        for (g, _, rows), (q, k, v, attn) in zip(cache["groups"], lcache["blocks"]):
            dctx_g = _split_heads(dctx[rows], g, cfg.n_heads)
            dattn = dctx_g @ v.transpose(0, 1, 3, 2)
            dscores = attn * (dattn - np.sum(dattn * attn, axis=-1, keepdims=True))
            dq[rows] = _merge_heads((dscores @ k) * scale)
            dk[rows] = _merge_heads((dscores.transpose(0, 1, 3, 2) @ q) * scale)
            dv[rows] = _merge_heads(attn.transpose(0, 1, 3, 2) @ dctx_g)
        for name, dx in (("q", dq), ("k", dk), ("v", dv)):
            grads[prefix + "w" + name] += lcache["u"].T @ dx
            grads[prefix + "b" + name] += dx.sum(axis=0)
        du = dq @ layer["wq"].T + dk @ layer["wk"].T + dv @ layer["wv"].T
        dh_in, dg1, db1 = _ln_bwd(du, lcache["ln1"])
        grads[prefix + "ln1_g"] += dg1
        grads[prefix + "ln1_b"] += db1
        dh = dh_in + dh_mid

    np.add.at(grads["emb"], cache["tokens"], dh)
    for g, n, rows in cache["groups"]:
        grads["pos"][:n] += dh[rows].reshape(g, n, -1).sum(axis=0)
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
    ids = _check_ids(params, seq)
    hidden, attn_maps, _ = _forward_core(params, ids, np.array([ids.size]), need_cache=False)
    logits = _vocab_logits(params, hidden)
    attentions = np.stack([maps[0][0] for maps in attn_maps]) if collect_attention else np.zeros(
        (0, params.config.n_heads, ids.size, ids.size), dtype=params.dtype
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
    sorted by (length, ids) and packed, PREDICT_BATCH at a time, back to back
    with no padding, so equal-length sequences lie next to each other and
    share one attention call; the vocabulary head runs at the requested
    positions only. Because the batches depend only on the set of sequences,
    each result is the same whatever the input order.
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
        hf, _, _ = _forward_core(params, np.concatenate([ids[i] for i in chunk]), lengths, need_cache=False)
        starts = np.cumsum(lengths) - lengths         # each sequence's first packed row
        counts = [pos[i].size for i in chunk]
        rows = np.repeat(starts, counts) + np.concatenate([pos[i] for i in chunk])
        probs = stable_softmax(_vocab_logits(params, hf[rows]))
        for i, part in zip(chunk, np.split(probs, np.cumsum(counts)[:-1])):
            out[i] = part
    return out


def _mlm_head(params: Params, ids, lengths, delta, labels, need_grads: bool):
    """The masked-LM loss head shared by training and evaluation.

    Packs the real tokens of the (B, S) batch, runs them through the stack,
    gathers the final hidden rows at the `delta` positions and projects them
    onto the vocabulary. Returns the per-target cross-entropy
    log Σexp(z − zmax) − (z_label − zmax) and, with `need_grads`, the
    gradients of its mean (otherwise None).
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

    hf, _, cache = _forward_core(params, ids.reshape(-1)[slots], lengths, need_cache=need_grads)
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
    lengths: np.ndarray,
    delta: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean masked cross-entropy over targeted positions, with full gradients.

    `ids` is the corrupted (B, S) batch, right-padded to the (B,) `lengths`,
    `delta` a boolean (B, S) targeting mask, and `labels` the original token
    ids at the targeted positions, taken in row-major order. Logits are only
    formed at targeted positions; a batch with none, a length outside 1..S, a
    mask of another shape or a target in the padding is an error.
    """
    ce, grads = _mlm_head(params, ids, lengths, delta, labels, need_grads=True)
    return float(ce.mean()), grads


def eval_loss(params: Params, ids: np.ndarray, lengths: np.ndarray,
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
