"""Out-of-program tracing: wrap qtmine's public functions in timing spans.

The benchmark installs a Tracer only for its traced run. Each wrapped call
records a span with the fields the program's own `util.span` is to emit
(`event=span name=… seconds=…`), plus `start`, `end`, `id`, `parent`,
`request` and `thread`, and any work counts the wrapper derives from the
call's arguments or result. Spans stay in memory until `write` is called.

Modules import functions by name (`from .tokenizer import encode`), so a
wrapper is rebound under every qtmine module attribute that refers to the
original object, not only in the defining module. The function that `pmap`
receives is wrapped too, so spans in worker threads get the `pmap` span as
parent and record how long their item waited before it started.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np
import qtmine.cli as cli
import qtmine.fcrank as fcrank
import qtmine.util as util


def _text_bytes(docs) -> int:
    return sum(len((d if isinstance(d, str) else d.text()).encode("utf-8")) for d in docs)


def _train_flops(args, kwargs, result) -> dict:
    """Multiply-add count of one loss_and_grads call, computed from shapes.

    Forward: per layer QKV and output projections (8·N·d²), FFN (4·N·d·ff),
    scores and attention-weighted values (4·B·S²·d); then the vocabulary
    head at targeted positions (2·T·d·V). Backward is taken as twice the
    forward, so the total is three times the forward count.
    """
    params, ids, _lengths, delta = args[:4]
    cfg = params.config
    b, s = np.shape(ids)
    n = b * s
    t = int(np.count_nonzero(delta))
    d, ff = cfg.d_model, cfg.d_ff
    fwd = cfg.n_layers * (8 * n * d * d + 4 * n * d * ff + 4 * b * s * s * d)
    fwd += 2 * t * d * cfg.vocab_size
    return {"flop": 3 * fwd}


def _pad_counts(args, kwargs, result) -> dict:
    return {"positions": int(result.ids.size), "pad": int(result.ids.size - result.lengths.sum())}


# (module, attribute, span name, counter). An attribute "Class.method"
# names a method; counters map (args, kwargs, result) to extra span fields.
TARGETS = (
    ("tokenizer", "train_bpe", "tokenizer.train_bpe",
     lambda a, k, r: {"bytes": _text_bytes(a[0])}),
    ("tokenizer", "encode", "tokenizer.encode",
     lambda a, k, r: {"bytes": len(a[1].encode("utf-8"))}),
    ("tokenizer", "load_vocab", "tokenizer.load_vocab", None),
    ("model", "loss_and_grads", "model.loss_and_grads", _train_flops),
    ("model", "eval_loss", "model.eval_loss", None),
    ("model", "forward", "model.forward", lambda a, k, r: {"positions": len(a[1])}),
    ("model", "load_checkpoint", "model.load_checkpoint", None),
    ("model", "save_checkpoint", "model.save_checkpoint", None),
    ("train", "train", "train.train", None),
    ("train", "build_windows", "train.build_windows", None),
    ("train", "mask_batch", "train.mask_batch", _pad_counts),
    ("train", "AdamState.update", "train.adam_update", None),
    ("train", "eval_ce", "train.eval_ce", None),
    ("qt", "QuerySpec.render", "qt.render", None),
    ("qt", "mlm_predict", "qt.mlm_predict", lambda a, k, r: {"masks": len(a[1].mask_positions)}),
    ("qt", "qt_score", "qt.qt_score", None),
    ("qt", "topk_tokens", "qt.topk_tokens", None),
    ("qt", "rank_by_qt", "qt.rank_by_qt", lambda a, k, r: {"candidates": len(a[2])}),
    ("analogy", "eval_analogies", "analogy.eval_analogies", lambda a, k, r: {"items": len(a[2])}),
    ("highlight", "highlight_passage", "highlight.highlight_passage",
     lambda a, k, r: {"sentences": len(r.sentences)}),
    ("highlight", "render_ansi", "highlight.render", None),
    ("highlight", "render_html", "highlight.render", None),
    ("corpus", "load_corpus", "corpus.load_corpus", None),
    ("corpus", "filter_by_year", "corpus.filter_by_year", None),
    ("corpus", "load_trials", "corpus.load_trials", None),
    ("corpus", "load_analogies", "corpus.load_analogies", None),
    ("fcrank", "train_at_cutoff", "fcrank.train_at_cutoff", None),
    ("fcrank", "write_fc_outputs", "fcrank.write_outputs", None),
    ("cli", "main", "cli.main", None),
)
# CLI subcommand handlers, one span name each.
SUBCOMMANDS = ("train_tokenizer", "train", "rank", "analogies", "highlight", "qt", "mine",
               "combine", "side_effects", "fc")
LAYERS = ("tokenizer", "model", "train", "qt", "analogy", "highlight", "corpus", "fcrank",
          "util", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.request: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, sid, parent, t0, t1, fields) -> None:
        span = {"event": "span", "name": name, "seconds": t1 - t0, "start": t0, "end": t1,
                "id": sid, "parent": parent, "request": self.request,
                "thread": threading.get_ident()}
        span.update(fields)
        self.spans.append(span)

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter()
                stack.pop()
                self._record(name, sid, parent, t0, t1, {"error": True})
                raise
            t1 = perf_counter()
            stack.pop()
            self._record(name, sid, parent, t0, t1,
                         counter(args, kwargs, result) if counter else {})
            return result
        return traced

    def wrap_pmap(self, pmap):
        """Span the map call and each item, so worker spans have a parent and a wait."""
        tracer = self

        @functools.wraps(pmap)
        def traced_pmap(fn, items):
            items = list(items)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter()

            def item(x):
                start = perf_counter()
                own = tracer._stack()
                iid = next(tracer._ids)
                own.append(iid)
                try:
                    return fn(x)
                finally:
                    end = perf_counter()
                    own.pop()
                    tracer._record("util.pmap_item", iid, sid, start, end, {"wait": start - t0})

            try:
                return pmap(item, items)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._record("util.pmap", sid, parent, t0, t1, {"items": len(items)})
        return traced_pmap

    def _rebind(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "qtmine" and not modname.startswith("qtmine."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self) -> None:
        for modname, attr, name, counter in TARGETS:
            module = sys.modules[f"qtmine.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, counter))
                else:
                    new = self.wrap(name, raw, counter)
                setattr(cls, meth, new)
                self._undo.append((cls, meth, raw))
            else:
                original = getattr(module, attr)
                self._rebind(original, self.wrap(name, original, counter))
        for sub in SUBCOMMANDS:
            original = getattr(cli, f"cmd_{sub}")
            self._rebind(original, self.wrap(f"cli.{sub}", original))
        self._rebind(util.pmap, self.wrap_pmap(util.pmap))
        # rank_by_qt as fcrank calls it (fc cutoffs and `rank --year`) gets an
        # outer span of its own, so fcrank.rank is measured where it is called.
        inner = fcrank.rank_by_qt
        fcrank.rank_by_qt = self.wrap("fcrank.rank", inner)
        self._undo.append((fcrank, "rank_by_qt", inner))

    def uninstall(self) -> None:
        # Undo in reverse order, so a binding wrapped twice ends at the original.
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _union(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: s["seconds"] - _union(children.get(s["id"], [])) for s in spans}


def layer_metrics(spans: list[dict], n_iterations: int) -> dict[str, float]:
    """Per-layer metrics, as totals per traced iteration unless a ratio."""
    n = max(1, n_iterations)
    secs: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, float] = defaultdict(float)
    for s in spans:
        secs[s["name"]] += s["seconds"]
        calls[s["name"]] += 1
        for key in ("bytes", "flop", "positions", "pad", "masks", "candidates", "items",
                    "sentences", "wait"):
            if key in s:
                work[f"{s['name']}:{key}"] += s[key]
    selfs = self_times(spans)
    layer_self: dict[str, float] = defaultdict(float)
    for s in spans:
        layer_self[s["name"].split(".")[0]] += selfs[s["id"]]

    pmap_threads = defaultdict(set)
    for s in spans:
        if s["name"] == "util.pmap_item":
            pmap_threads[s["parent"]].add(s["thread"])

    def per(x):
        return x / n

    def ratio(a, b):
        return a / b if b else 0.0

    enc_kb = work["tokenizer.encode:bytes"] / 1024.0
    m = {
        "tokenizer.train_bpe_s": per(secs["tokenizer.train_bpe"]),
        "tokenizer.train_bpe_bytes": per(work["tokenizer.train_bpe:bytes"]),
        "tokenizer.encode_s": per(secs["tokenizer.encode"]),
        "tokenizer.encode_calls": per(calls["tokenizer.encode"]),
        "tokenizer.encode_us_per_kb": ratio(secs["tokenizer.encode"] * 1e6, enc_kb),
        "tokenizer.load_vocab_s": per(secs["tokenizer.load_vocab"]),
        "model.loss_and_grads_s": per(secs["model.loss_and_grads"]),
        "model.loss_and_grads_calls": per(calls["model.loss_and_grads"]),
        "model.train_gflop_per_s": ratio(work["model.loss_and_grads:flop"] / 1e9,
                                         secs["model.loss_and_grads"]),
        "model.eval_loss_s": per(secs["model.eval_loss"]),
        "model.forward_s": per(secs["model.forward"]),
        "model.forward_calls": per(calls["model.forward"]),
        "model.logit_positions": per(work["model.forward:positions"]),
        "model.logit_useful_ratio": ratio(work["qt.mlm_predict:masks"],
                                          work["model.forward:positions"]),
        "model.load_checkpoint_s": per(secs["model.load_checkpoint"]),
        "model.save_checkpoint_s": per(secs["model.save_checkpoint"]),
        "train.train_s": per(secs["train.train"]),
        "train.steps": per(calls["train.adam_update"]),
        "train.build_windows_s": per(secs["train.build_windows"]),
        "train.mask_batch_s": per(secs["train.mask_batch"]),
        "train.pad_ratio": ratio(work["train.mask_batch:pad"], work["train.mask_batch:positions"]),
        "train.adam_update_s": per(secs["train.adam_update"]),
        "train.eval_ce_s": per(secs["train.eval_ce"]),
        "qt.render_s": per(secs["qt.render"]),
        "qt.mlm_predict_s": per(secs["qt.mlm_predict"]),
        "qt.mlm_predict_calls": per(calls["qt.mlm_predict"]),
        "qt.qt_score_s": per(secs["qt.qt_score"]),
        "qt.topk_tokens_s": per(secs["qt.topk_tokens"]),
        "qt.topk_tokens_calls": per(calls["qt.topk_tokens"]),
        "qt.rank_by_qt_s": per(secs["qt.rank_by_qt"]),
        "qt.rank_candidates": per(work["qt.rank_by_qt:candidates"]),
        "analogy.eval_analogies_s": per(secs["analogy.eval_analogies"]),
        "analogy.items": per(work["analogy.eval_analogies:items"]),
        "highlight.highlight_passage_s": per(secs["highlight.highlight_passage"]),
        "highlight.sentences": per(work["highlight.highlight_passage:sentences"]),
        "highlight.render_s": per(secs["highlight.render"]),
        "corpus.load_corpus_s": per(secs["corpus.load_corpus"]),
        "corpus.filter_by_year_s": per(secs["corpus.filter_by_year"]),
        "corpus.load_trials_s": per(secs["corpus.load_trials"]),
        "corpus.load_analogies_s": per(secs["corpus.load_analogies"]),
        "fcrank.train_at_cutoff_s": per(secs["fcrank.train_at_cutoff"]),
        "fcrank.cutoffs": per(calls["fcrank.train_at_cutoff"]),
        "fcrank.rank_s": per(secs["fcrank.rank"]),
        "fcrank.write_outputs_s": per(secs["fcrank.write_outputs"]),
        "util.pmap_s": per(secs["util.pmap"]),
        "util.pmap_items": per(work["util.pmap:items"]),
        "util.pmap_workers": ratio(sum(len(t) for t in pmap_threads.values()), len(pmap_threads)),
        "util.pmap_wait_s": per(work["util.pmap_item:wait"]),
    }
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}_s"] = per(secs[f"cli.{sub}"])
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per(layer_self[layer])
    m["trace.spans"] = per(len(spans))
    return m
