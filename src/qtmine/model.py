"""Transformer encoder with a tied MLM head, in plain numpy.

Pre-layer-norm blocks with GELU feed-forward; the output projection is tied to
the input embedding table. `forward` also returns per-layer, per-head
attention matrices, which the tests check against a straight-line reference.
The backward pass is hand-derived and is validated against central finite
differences in the test suite; running it in float64 (`Params.astype`) is
what lets that oracle pass tight tolerances. The forward pass keeps GELU's
normal CDF in the layer cache, so the backward pass does not evaluate `erf`
again.

Training and evaluation share one loss head (`_mlm_head`): it packs only the
windows that hold a target, the vocabulary projection and the cross-entropy
run at the targeted positions only, and `loss_and_grads` adds the backward
pass that `eval_loss` skips.

The last layer runs only at the rows its caller reads (`out_rows` of
`_forward_core`): the targeted rows for the loss head, the requested
positions for `predict_masked`, every row for `forward`. Its keys and values
cover every row, because every row is a key and a value; its queries, scores,
softmax and attn @ v, and after attention the output projection, the
residual, the second layer norm, the FFN and the final layer norm run on the
read rows alone, and so does their backward pass. No row dropped there
feeds the loss or a probability, so the maths is that of the full pass; in
float32 only the rounding of the smaller products differs.

Batches are padding-free. The model runs on packed rows: the real tokens of
every sequence back to back, (N, d_model), with the (B, S) layout of
`loss_and_grads` and `eval_loss` only at their interface. The embedding sum,
the layer norms, every projection, the FFN and GELU, and in the backward pass
every weight gradient X.T @ dY and input gradient, run on the packed block.
The sequences are packed sorted by (length, number of read rows), each
sequence's read rows together. Attention runs once per run of g sequences of
one length L (`_runs`), in every layer alike: its keys and values are one
slice of the packed rows, a (g, n_heads, L, d_head) view, and its queries one
slice of the query rows, (g, n_heads, m, d_head), where m is L in every layer
but the last and the read count there. The scores, the softmax and attn @ v
need no mask and no padding, and the context rows go back to the same slice.
In float32 the packed products round differently from one product per
sequence in the last bits (BLAS splits a sum over more rows into other
partial sums, and may pick another kernel for a smaller product);
`tests/test_model.py` bounds that difference against unpadded rows, and
`tests/test_train.py` the fixed-seed loss curve.

Scoring reads the vocabulary distribution only where a query asks for it:
`predict_masked` packs many sequences, sorted by length and read count, into
one batch and projects onto the vocabulary at the requested positions alone.
`forward` runs one sequence, a single run: it is the per-sequence reference
for the tests and for the benchmark's replay of scoring.

GELU's `erf` and the initializer's normal quantile are NumPy ports, so the
package needs no SciPy. `_erf` ports Cephes erf/erfc (S. Moshier), which
SciPy's erf runs; `_normal_quantile` ports Wichura's AS241 (Appl. Stat.
37:477, 1988), as in CPython's `statistics.NormalDist.inv_cdf`. Both run in
float64 over blocks of `_BLOCK` elements, with in-place Horner steps into
reused buffers, and round once to the output dtype, as SciPy's float32 erf
does. In float64 they differ from SciPy only in the last bits (NumPy's exp
against the C library's in erf's tail; AS241 against the Cephes ndtri that
SciPy runs); no float32 result differed from SciPy's on millions of inputs
compared, so float32 GELU and the initial weights keep SciPy's bits. The
tests check both against the standard library, and the initial weights
against digests recorded with SciPy.

`tensor_shapes(config)` is the one list of tensor names and shapes. It is the
checkpoint layout, and `Params.named_tensors`, `init_params`, `astype` and
`load_checkpoint` all follow it.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np
import numpy.random  # NumPy 2 loads it lazily; load it here, not in the first training request

from .errors import CheckpointError, DataFormatError, QtmineError
from .util import read_text, write_atomic

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


# Coefficients of Cephes erf/erfc (ndtr.c) and of AS241 (see the module
# docstring), highest power first; a monic polynomial lists its leading 1.

_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
# erf(x) rounds to 1 in float64 from |x| = 5.93 on; the clamp keeps exp(-x^2) finite.
_ERF_CLAMP = 6.0

_AS241_A = (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
            4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
            1.3314166789178437745e2, 3.3871328727963666080e0)
_AS241_B = (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
            2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
            4.2313330701600911252e1, 1.0)
_AS241_C = (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
            1.2704582524523683826e0, 3.6478483247632046050e0, 5.7694972214606914055e0,
            4.6303378461565452959e0, 1.4234371107496835773e0)
_AS241_D = (1.05075007164441684324e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
            1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e0,
            2.0531916266377588219e0, 1.0)
_PHI_MINUS_2, _PHI_PLUS_2 = 0.0227501319481792, 0.9772498680518208
# Elements per float64 block: the block and its scratch buffers stay in cache.
_BLOCK = 1 << 15


def _polevl(x: np.ndarray, coefs, out: np.ndarray) -> np.ndarray:
    """Horner's rule in place: out = polynomial(x), coefficients highest power first."""
    np.multiply(x, coefs[0], out=out)
    np.add(out, coefs[1], out=out)
    for c in coefs[2:]:
        np.multiply(out, x, out=out)
        np.add(out, c, out=out)
    return out


def _float64_blocks(kernel, x: np.ndarray, n_scratch: int, dtype=None) -> np.ndarray:
    """`kernel(block, out, *scratch)` over x in float64 blocks, in x's shape and
    in `dtype` (x's by default).

    Each block of x is copied into a reused float64 buffer, the kernel writes
    the reused `out`, and `out` is assigned into the result, so a float32
    result is rounded once, as SciPy's float32 loops do."""
    x = np.asarray(x)
    flat = x.reshape(-1)
    result = np.empty(flat.shape, dtype=dtype or x.dtype)
    buffers = [np.empty(min(_BLOCK, flat.size)) for _ in range(n_scratch + 2)]
    for start in range(0, flat.size, _BLOCK):
        block, out, *scratch = (buf[:flat.size - start] for buf in buffers)
        block[...] = flat[start:start + _BLOCK]
        kernel(block, out, *scratch)
        result[start:start + _BLOCK] = out
    return result.reshape(x.shape)


def _erf_block(x, out, c, z, den):
    """Cephes erf: x T(x^2) / U(x^2) for |x| <= 1, else sign(x) (1 - e^(-x^2) P(|x|) / Q(|x|))."""
    np.clip(x, -_ERF_CLAMP, _ERF_CLAMP, out=c)
    np.multiply(c, c, out=z)
    np.multiply(c, _polevl(z, _ERF_T, out), out=out)
    np.divide(out, _polevl(z, _ERF_U, den), out=out)
    tail = np.flatnonzero(z > 1.0)  # |x| > 1
    if tail.size:
        ct, m = c[tail], tail.size
        at = np.abs(ct)
        erfc = np.exp(-z[tail])
        erfc *= _polevl(at, _ERFC_P, z[:m])
        erfc /= _polevl(at, _ERFC_Q, den[:m])
        out[tail] = np.copysign(np.subtract(1.0, erfc, out=erfc), ct, out=erfc)


def _erf(x: np.ndarray) -> np.ndarray:
    return _float64_blocks(_erf_block, x, 3)


def _quantile_block(u, out, q, r, den, scale):
    """scale times AS241 on (Phi(-2), Phi(2)): the central rational everywhere,
    then the r <= 5 tail where |u - 1/2| > 0.425."""
    np.subtract(u, 0.5, out=q)
    np.subtract(0.180625, np.multiply(q, q, out=r), out=r)
    np.multiply(_polevl(r, _AS241_A, out), q, out=out)
    np.divide(out, _polevl(r, _AS241_B, den), out=out)
    tail = np.flatnonzero(np.abs(q, out=r) > 0.425)
    if tail.size:
        qt, m = q[tail], tail.size
        rt = np.where(qt <= 0.0, u[tail], 1.0 - u[tail])
        np.sqrt(np.negative(np.log(rt, out=rt), out=rt), out=rt)
        rt -= 1.6
        x = np.divide(_polevl(rt, _AS241_C, r[:m]), _polevl(rt, _AS241_D, den[:m]), out=r[:m])
        out[tail] = np.copysign(x, qt, out=x)
    np.multiply(out, scale, out=out)


def _normal_quantile(u: np.ndarray, scale: float = 1.0, dtype=None) -> np.ndarray:
    """scale times the standard normal quantile of u, for u in (Phi(-2), Phi(2)),
    the initializer's draws; computed in float64 and rounded once to `dtype`."""
    return _float64_blocks(partial(_quantile_block, scale=scale), u, 3, dtype)


def _truncated_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal(0, INIT_STDDEV) truncated at +-2 INIT_STDDEV, via the inverse CDF, in float32."""
    u = rng.uniform(_PHI_MINUS_2, _PHI_PLUS_2, size=shape)
    return _normal_quantile(u, INIT_STDDEV, np.float32)


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


def _runs(lengths: np.ndarray, out_rows: np.ndarray):
    """Attention runs for every row and for the read rows: two lists of (g, q_at, kv_at).

    A run is g adjacent sequences of one length L; kv_at is the slice of
    their g·L packed rows. In the first list a run holds every sequence of
    one length, and q_at = kv_at. In the second, for the read rows
    `out_rows`, the g sequences also read the same number m ≥ 1 of rows, and
    q_at is the slice of `out_rows` that holds their g·m read rows; a
    sequence that reads nothing is in no run. Packed sorted by (length,
    reads), each such class is one run.
    """
    edges = np.concatenate(([0], np.cumsum(lengths)))              # each sequence's packed rows
    seq = np.searchsorted(edges, out_rows, side="right") - 1       # sequence of each read row
    reads = np.bincount(seq, minlength=lengths.size)
    firsts = np.concatenate(([0], np.cumsum(reads)))               # each sequence's read rows
    new_length = np.diff(lengths, prepend=0) != 0                  # where a run starts
    new_reads = new_length | (np.diff(reads, prepend=-1) != 0)
    kv_edges = edges.tolist()

    def split(new, q_edges):
        bounds, q_edges = np.flatnonzero(new).tolist() + [lengths.size], q_edges.tolist()
        return [(hi - lo, slice(q_edges[lo], q_edges[hi]), slice(kv_edges[lo], kv_edges[hi]))
                for lo, hi in zip(bounds, bounds[1:]) if q_edges[hi] > q_edges[lo]]

    return split(new_length, edges), split(new_reads, firsts)


def _attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, runs, scale, n_heads: int):
    """Context rows for the query rows `q`, one per row of q, and the blocks the backward pass reads.

    k and v hold every packed row; q holds every packed row too, or the read
    rows of `_runs`. Each run's queries are a dense (g, n_heads, m, d_head)
    block, scored against its own keys with no mask.
    """
    ctx = np.empty_like(q)
    blocks = []
    for g, q_at, kv_at in runs:
        qg, kg, vg = (_split_heads(x[at], g, n_heads) for x, at in ((q, q_at), (k, kv_at), (v, kv_at)))
        attn = stable_softmax((qg @ kg.transpose(0, 1, 3, 2)) * scale)
        ctx[q_at] = _merge_heads(attn @ vg)
        blocks.append((qg, kg, vg, attn))
    return ctx, blocks


def _attention_bwd(dctx: np.ndarray, n_rows: int, runs, blocks, scale, n_heads: int):
    """(dq, dk, dv) from the context gradient at the query rows: dq at the
    query rows, dk and dv at all `n_rows` packed rows (zero at a sequence
    that reads nothing).
    """
    dq = np.empty_like(dctx)
    dk, dv = (np.zeros((n_rows, dctx.shape[1]), dtype=dctx.dtype) for _ in range(2))
    for (g, q_at, kv_at), (q, k, v, attn) in zip(runs, blocks):
        dctx_g = _split_heads(dctx[q_at], g, n_heads)
        dattn = dctx_g @ v.transpose(0, 1, 3, 2)
        dscores = attn * (dattn - np.sum(dattn * attn, axis=-1, keepdims=True))
        dq[q_at] = _merge_heads((dscores @ k) * scale)
        dk[kv_at] = _merge_heads((dscores.transpose(0, 1, 3, 2) @ q) * scale)
        dv[kv_at] = _merge_heads(attn.transpose(0, 1, 3, 2) @ dctx_g)
    return dq, dk, dv


def _forward_core(params: Params, tokens: np.ndarray, lengths: np.ndarray,
                  out_rows: np.ndarray, need_cache: bool):
    """Shared forward pass over sequences packed back to back.

    `tokens` (N,) holds the ids of B sequences of the given (B,) `lengths`, one
    after the other. `out_rows` is the integer array of the packed rows whose
    final hidden state the caller reads, in the order it reads them: each
    sequence's read rows together, sequences in packed order (`np.arange(N)`
    reads every row). A row may be read more than once. Packed sorted by
    (length, number of read rows), the sequences of one length share one
    attention call in every layer, and those that also read as many rows
    share one in the last (`_runs`); any other order gives the same maths in
    more, smaller calls. Every layer but the last runs on all N rows. The last
    projects keys and values at all of them, since every row is a key and a
    value, but its queries, and so its scores, softmax and attn @ v, and
    everything after attention (the output projection, the residual, the
    second layer norm, the FFN and the final layer norm) at `out_rows` only:
    no other row feeds what the caller reads.
    Returns (hf, cache): hf the final hidden rows at `out_rows`,
    (len(out_rows), d_model), and, with `need_cache`, what the backward pass
    reads (else None). Each layer's entry holds its attention maps, the last
    item of each run's block: (g, n_heads, L, L) for every row, and in the
    last layer (g, n_heads, m, L) for the g·m read rows.
    """
    cfg = params.config
    if lengths.max() > cfg.max_seq:
        raise QtmineError(f"sequence length {lengths.max()} exceeds max_seq {cfg.max_seq}")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
        raise QtmineError(f"token id out of range for vocab_size {cfg.vocab_size}")
    every_runs, read_runs = _runs(lengths, out_rows)
    positions = np.arange(tokens.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    h = params.emb[tokens] + params.pos[positions]
    scale = 1.0 / np.sqrt(np.asarray(cfg.d_head, dtype=params.dtype))

    cache = {"tokens": tokens, "runs": every_runs, "layers": []} if need_cache else None
    for i, layer in enumerate(params.layers):
        q_rows, runs = (out_rows, read_runs) if i == cfg.n_layers - 1 else (slice(None), every_runs)
        u, ln1_cache = _ln_fwd(h, layer["ln1_g"], layer["ln1_b"])
        q = u[q_rows] @ layer["wq"] + layer["bq"]
        k, v = (u @ layer["w" + name] + layer["b" + name] for name in "kv")
        ctx, blocks = _attention(q, k, v, runs, scale, cfg.n_heads)
        h = h[q_rows]
        o = ctx @ layer["wo"] + layer["bo"]
        h_mid = h + o

        v_in, ln2_cache = _ln_fwd(h_mid, layer["ln2_g"], layer["ln2_b"])
        f1 = v_in @ layer["w1"] + layer["b1"]
        # GELU(x) = x * Phi(x); halving is exact, so this equals 0.5 * x * (1 + erf).
        cdf = 0.5 * (1.0 + _erf(f1 / _SQRT2))
        f2 = f1 * cdf
        h_out = h_mid + f2 @ layer["w2"] + layer["b2"]

        if need_cache:
            cache["layers"].append({
                "ln1": ln1_cache, "u": u, "q_rows": q_rows, "runs": runs, "blocks": blocks,
                "ctx": ctx, "ln2": ln2_cache, "v_in": v_in, "f1": f1, "cdf": cdf, "f2": f2,
            })
        h = h_out

    hf, final_cache = _ln_fwd(h, params.final_ln_g, params.final_ln_b)
    if need_cache:
        cache["final_ln"] = final_cache
        cache["scale"] = scale
    return hf, cache


def _backward_core(params: Params, cache, dhf: np.ndarray) -> dict[str, np.ndarray]:
    """Backpropagate d(loss)/d(hf), (len(out_rows), d_model), through the stack.

    Returns grads for all tensors. The last layer's backward runs on the
    forward pass's `out_rows` alone, which must be distinct, up to the
    attention products: dq and its share of the layer-norm input gradient
    exist only there, while dk and dv reach every packed row, and the
    residual gradient goes back to the read rows' packed places. Every other
    product runs on the packed rows, except attention's, which run per run of
    equal-length sequences.
    """
    cfg = params.config
    grads = {}
    tokens = cache["tokens"]

    dh, grads["final_ln_g"], grads["final_ln_b"] = _ln_bwd(dhf, cache["final_ln"])

    scale = cache["scale"]
    for i in reversed(range(cfg.n_layers)):
        layer = params.layers[i]
        lcache = cache["layers"][i]
        prefix = f"layers.{i}."

        # Feed-forward sub-block (residual: h_out = h_mid + ffn(v_in)).
        grads[prefix + "w2"] = lcache["f2"].T @ dh
        grads[prefix + "b2"] = dh.sum(axis=0)
        df1 = (dh @ layer["w2"].T) * _gelu_grad(lcache["f1"], lcache["cdf"])
        grads[prefix + "w1"] = lcache["v_in"].T @ df1
        grads[prefix + "b1"] = df1.sum(axis=0)
        dh_mid, grads[prefix + "ln2_g"], grads[prefix + "ln2_b"] = _ln_bwd(df1 @ layer["w1"].T, lcache["ln2"])
        dh_mid = dh_mid + dh

        # Attention sub-block (residual: h_mid = h_in + attn(u)), queries at q_rows.
        grads[prefix + "wo"] = lcache["ctx"].T @ dh_mid
        grads[prefix + "bo"] = dh_mid.sum(axis=0)
        dctx = dh_mid @ layer["wo"].T
        u, q_rows = lcache["u"], lcache["q_rows"]
        dq, dk, dv = _attention_bwd(dctx, tokens.size, lcache["runs"], lcache["blocks"], scale, cfg.n_heads)
        for name, x, dx in (("q", u[q_rows], dq), ("k", u, dk), ("v", u, dv)):
            grads[prefix + "w" + name] = x.T @ dx
            grads[prefix + "b" + name] = dx.sum(axis=0)
        du = dk @ layer["wk"].T + dv @ layer["wv"].T
        du[q_rows] += dq @ layer["wq"].T
        dh, grads[prefix + "ln1_g"], grads[prefix + "ln1_b"] = _ln_bwd(du, lcache["ln1"])
        dh[q_rows] += dh_mid

    # The embedding gradient: the rows of each token id, summed in row order.
    order = np.argsort(tokens, kind="stable")
    sorted_tokens = tokens[order]
    firsts = np.flatnonzero(np.diff(sorted_tokens, prepend=-1))
    grads["emb"] = np.zeros_like(params.emb)
    grads["emb"][sorted_tokens[firsts]] = np.add.reduceat(dh[order], firsts, axis=0)
    grads["pos"] = np.zeros_like(params.pos)
    for g, _, rows in cache["runs"]:
        n = (rows.stop - rows.start) // g
        grads["pos"][:n] += dh[rows].reshape(g, n, -1).sum(axis=0)
    return grads


def _vocab_logits(params: Params, rows: np.ndarray) -> np.ndarray:
    """The tied MLM head: final hidden rows (..., d) onto the vocabulary (..., V)."""
    return rows @ params.emb.T + params.out_bias


def _check_ids(seq) -> np.ndarray:
    """One sequence as a 1-D int64 array; an empty one is fatal."""
    ids = np.asarray(seq, dtype=np.int64).reshape(-1)
    if ids.size == 0:
        raise QtmineError("cannot run the model on an empty sequence")
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
    ids = _check_ids(seq)
    hidden, cache = _forward_core(params, ids, np.array([ids.size]), np.arange(ids.size),
                                  need_cache=collect_attention)
    logits = _vocab_logits(params, hidden)
    if collect_attention:
        # One sequence is one run: each layer's one block holds its (1, n_heads, L, L) map.
        attentions = np.stack([layer["blocks"][0][3][0] for layer in cache["layers"]])
    else:
        attentions = np.zeros((0, params.config.n_heads, ids.size, ids.size), dtype=params.dtype)
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
    sorted by (length, number of positions, ids) and packed, PREDICT_BATCH at
    a time, back to back with no padding, as `_forward_core` takes them, so
    equal-length sequences share one attention call, and in the last layer
    those that also ask for as many positions; the last layer's queries and
    everything after them, and the vocabulary head, run at the requested
    positions only. Because the batches depend only on the set of sequences,
    each result is the same whatever the input order.
    """
    if len(seqs) != len(positions):
        raise QtmineError(f"{len(seqs)} sequences but {len(positions)} position lists")
    ids = [_check_ids(seq) for seq in seqs]
    pos = [np.asarray(p, dtype=np.int64).reshape(-1) for p in positions]
    for seq, p in zip(ids, pos):
        if p.size and not (0 <= p.min() and p.max() < seq.size):
            raise QtmineError(f"positions {p.tolist()} out of range for sequence length {seq.size}")

    order = sorted(range(len(ids)), key=lambda i: (ids[i].size, pos[i].size, ids[i].tolist()))
    out: list[np.ndarray] = [np.empty(0)] * len(ids)
    for lo in range(0, len(order), PREDICT_BATCH):
        chunk = order[lo:lo + PREDICT_BATCH]
        lengths = np.array([ids[i].size for i in chunk])
        starts = np.cumsum(lengths) - lengths         # each sequence's first packed row
        counts = [pos[i].size for i in chunk]
        rows = np.repeat(starts, counts) + np.concatenate([pos[i] for i in chunk])
        tokens = np.concatenate([ids[i] for i in chunk])
        hf, _ = _forward_core(params, tokens, lengths, rows, need_cache=False)
        probs = stable_softmax(_vocab_logits(params, hf))
        for i, part in zip(chunk, np.split(probs, np.cumsum(counts)[:-1])):
            out[i] = part
    return out


def _mlm_head(params: Params, ids, lengths, delta, labels, need_grads: bool):
    """The masked-LM loss head shared by training and evaluation.

    Packs the real tokens of the (B, S) batch's rows that hold a target,
    sorted by (length, number of targets) (a row with none attends only to
    itself, so it feeds no loss term and no gradient), runs them through the
    stack, the last layer's queries and all after them at the `delta`
    positions only, and projects those final hidden rows onto the
    vocabulary. Returns the per-target
    cross-entropy log Σexp(z − zmax) − (z_label − zmax), in packed order, and,
    with `need_grads`, the gradients of its mean (otherwise None).
    """
    ids = np.asarray(ids, dtype=np.int64)
    delta = np.asarray(delta, dtype=bool)
    labels = np.asarray(labels, dtype=np.int64)
    if ids.ndim != 2 or delta.shape != ids.shape:
        raise QtmineError(f"targeting mask of shape {delta.shape} for an id batch of shape {ids.shape}")
    n_targeted = int(delta.sum())
    if labels.shape[0] != n_targeted:
        raise QtmineError(f"{labels.shape[0]} labels for {n_targeted} targeted positions")
    if labels.size and (labels.min() < 0 or labels.max() >= params.config.vocab_size):
        raise QtmineError(f"label out of range for vocab_size {params.config.vocab_size}")
    b, s = ids.shape
    lengths = np.asarray(lengths)
    if lengths.shape != (b,) or not np.issubdtype(lengths.dtype, np.integer):
        raise QtmineError(f"lengths must be {b} integers for a batch of {b} rows, got {lengths!r}")
    if lengths.min() < 1 or lengths.max() > s:
        raise QtmineError(f"lengths {lengths.tolist()} outside 1..{s}")
    real = np.arange(s) < lengths[:, None]
    if (delta & ~real).any():
        raise QtmineError("a targeted position lies at or past its row's length")
    if n_targeted == 0:
        if need_grads:
            raise QtmineError("batch has no targeted positions")
        return np.zeros(0, dtype=params.dtype), None

    keep = np.flatnonzero(delta.any(axis=1))
    order = keep[np.lexsort((delta[keep].sum(axis=1), lengths[keep]))]
    grid = np.zeros(ids.shape, dtype=np.int64)        # labels carried along with their rows
    grid[delta] = labels
    real, delta = real[order], delta[order]
    labels = grid[order][delta]
    read = np.flatnonzero(delta[real])                # the targeted packed rows, (T,)
    rows, cache = _forward_core(params, ids[order][real], lengths[order], read, need_cache=need_grads)
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
    grads = _backward_core(params, cache, dz @ params.emb)
    grads["emb"] += dz.T @ rows
    grads["out_bias"] = dz.sum(axis=0)
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
    mask of another shape, a target in the padding, or a real token or label
    outside the vocabulary is an error.
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
    try:
        text = read_text(str(path) + ".json", "checkpoint sidecar")
    except DataFormatError as exc:  # it names the sidecar, and so the checkpoint, once
        raise CheckpointError(str(exc)) from None
    try:
        sidecar = json.loads(text)
        if sidecar["format_version"] != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported sidecar format_version {sidecar['format_version']!r}")
        config = ModelConfig(**sidecar["model"])
        declared = [(t["name"], tuple(t["shape"])) for t in sidecar["tensors"]]
        expected = tensor_shapes(config)
        if declared != expected:
            raise CheckpointError(f"sidecar tensors inconsistent with config: "
                                  f"expected {expected[:3]}..., found {declared[:3]}...")

        raw = path.read_bytes()
        header_len = len(CHECKPOINT_MAGIC) + struct.calcsize("<IQ")
        if len(raw) < header_len or raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
            raise CheckpointError("bad checkpoint magic")
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
                raise CheckpointError(f"non-finite weights in tensor {name}")
            tensors[name] = chunk.astype(np.float32).reshape(shape)
            offset += chunk.size
    except (OSError, QtmineError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise CheckpointError(f"checkpoint {path}: {getattr(exc, 'strerror', None) or exc}") from exc
    return Params.from_named(config, tensors)
