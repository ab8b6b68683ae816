"""Attention views and per-sentence passage highlighting.

Two complementary signals: raw self-attention maps (a chosen layer/head, or
the head-averaged final layer by default), and a target-conditioned score per
query token — the softmax over the sequence of each position's hidden-state
affinity with the mean target embedding.

Passage highlighting splits text into sentences whose spans tile the passage
exactly, scores all sentences through a masked template against the target
term in one batched model call, max-normalizes, and renders to ANSI (5
intensity buckets) and to a standalone HTML file (one span per sentence, score
kept at 6 decimals).
"""

from __future__ import annotations

import html as html_mod
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import model as M
from .errors import EvalError
from .qt import QuerySpec, TargetSpec, predict_queries, score_probs
from .tokenizer import Vocab, decode, encode
from .util import get_logger, kv, write_atomic

logger = get_logger()

DEFAULT_HIGHLIGHT_TEMPLATE = "{sentence} This concerns <mask> <mask>."
SENTENCE_SLOT = "{sentence}"

_SENTENCE_END = re.compile(r"[.!?]+(?:\s+|$)")
_ANSI_CODES = (None, 58, 100, 142, 184)  # background: none, then darker to brighter
_SCORE_RE = re.compile(r'data-score="(\d+\.\d{6})"')


@dataclass(frozen=True)
class AttentionMap:
    matrix: np.ndarray       # (S, S), rows sum to 1
    layer: int
    head: int | None         # None means averaged across heads

    @property
    def label(self) -> str:
        head = "averaged" if self.head is None else str(self.head)
        return f"layer={self.layer} head={head}"


@dataclass(frozen=True)
class SentenceScore:
    text: str    # exact slice of the passage, including trailing whitespace
    start: int
    end: int
    score: float  # max-normalized across the passage


@dataclass(frozen=True)
class HighlightDoc:
    sentences: tuple[SentenceScore, ...]
    target_term: str
    template: str


def self_attention(params: M.Params, seq: Sequence[int],
                   layer: int | None = None, head: int | None = None) -> AttentionMap:
    """Attention rows for one layer/head; defaults to the head-averaged final layer."""
    out = M.forward(params, list(seq), collect_attention=True)
    n_layers, n_heads = out.attentions.shape[0], out.attentions.shape[1]
    if layer is None:
        layer = n_layers - 1
    if not 0 <= layer < n_layers:
        raise EvalError(f"layer {layer} out of range for {n_layers} layers")
    if head is None:
        matrix = out.attentions[layer].mean(axis=0)
    else:
        if not 0 <= head < n_heads:
            raise EvalError(f"head {head} out of range for {n_heads} heads")
        matrix = out.attentions[layer][head]
    return AttentionMap(matrix=matrix, layer=layer, head=head)


def qt_attention(params: M.Params, query: QuerySpec, target: TargetSpec) -> np.ndarray:
    """Per-token association with the target, normalized over the sequence.

    Each position's final hidden state is dotted with the mean embedding of
    the target ids; the affinities are softmaxed over the sequence, so the
    returned vector is nonnegative and sums to 1.
    """
    out = M.forward(params, list(query.ids), collect_attention=False)
    target_emb = params.emb[list(target.ids)].mean(axis=0)
    affinity = out.hidden @ target_emb
    return M.stable_softmax(affinity)


def split_sentences(passage: str) -> list[tuple[int, int]]:
    """Spans ending after a run of ./!/? plus following whitespace.

    The spans tile the passage exactly: concatenating the slices reproduces
    it byte for byte. Abbreviations are not special-cased.
    """
    spans: list[tuple[int, int]] = []
    last = 0
    for match in _SENTENCE_END.finditer(passage):
        spans.append((last, match.end()))
        last = match.end()
    if last < len(passage):
        spans.append((last, len(passage)))
    return spans


def _fit_sentence(vocab: Vocab, sentence: str, template: str, max_seq: int) -> QuerySpec:
    """Render the sentence into the template, truncating it if the query is too long."""
    ids = encode(vocab, sentence)
    while True:
        query = QuerySpec.render(vocab, template.replace(SENTENCE_SLOT, decode(vocab, ids)))
        if len(query.ids) <= max_seq or not ids:
            return query
        overflow = len(query.ids) - max_seq
        logger.warning(kv(event="sentence_truncated", tokens=len(ids), overflow=overflow))
        ids = ids[: max(0, len(ids) - overflow)]


def highlight_passage(params: M.Params, vocab: Vocab, passage: str, target_term: str,
                      template: str = DEFAULT_HIGHLIGHT_TEMPLATE) -> HighlightDoc:
    """Score each sentence against the target term and max-normalize.

    Whitespace-only sentences score zero; all other sentences are rendered
    and scored in one batched model call.
    """
    if SENTENCE_SLOT not in template:
        raise EvalError(f"highlight template must contain {SENTENCE_SLOT}")
    spans = split_sentences(passage)
    if not spans:
        raise EvalError("passage splits into zero sentences")
    target = TargetSpec.from_phrase(vocab, target_term)
    max_seq = params.config.max_seq

    texts = [passage[s:e].strip() for s, e in spans]
    scored = [i for i, text in enumerate(texts) if text]
    queries = [_fit_sentence(vocab, texts[i], template, max_seq) for i in scored]
    raw = [0.0] * len(spans)
    for i, probs in zip(scored, predict_queries(params, queries)):
        raw[i] = score_probs(probs, target).aggregate
    peak = max(raw)
    norm = [r / peak if peak > 0.0 else 0.0 for r in raw]
    sentences = tuple(
        SentenceScore(text=passage[s:e], start=s, end=e, score=score)
        for (s, e), score in zip(spans, norm)
    )
    return HighlightDoc(sentences=sentences, target_term=target_term, template=template)


def ansi_bucket(score: float) -> int:
    """Map a [0,1] score to one of 5 intensity buckets."""
    return min(4, max(0, int(score * 5)))


def render_ansi(doc: HighlightDoc) -> str:
    """The passage with per-sentence background intensity escape codes."""
    parts = []
    for s in doc.sentences:
        code = _ANSI_CODES[ansi_bucket(s.score)]
        parts.append(s.text if code is None else f"\x1b[48;5;{code}m{s.text}\x1b[0m")
    return "".join(parts)


def render_html(doc: HighlightDoc) -> str:
    """Standalone HTML: one span per sentence with data-score and opacity styling."""
    spans = []
    for s in doc.sentences:
        spans.append(
            f'<span data-score="{s.score:.6f}" '
            f'style="background-color: rgba(255, 200, 0, {s.score:.6f})">'
            f"{html_mod.escape(s.text)}</span>"
        )
    title = html_mod.escape(doc.target_term)
    return (
        "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n"
        f"<title>highlight: {title}</title>\n</head>\n<body>\n<p>"
        + "".join(spans)
        + "</p>\n</body>\n</html>\n"
    )


def parse_html_scores(html_text: str) -> list[float]:
    """Read back the per-sentence scores embedded in rendered HTML."""
    return [float(m) for m in _SCORE_RE.findall(html_text)]


def write_html(doc: HighlightDoc, path: str | Path) -> None:
    write_atomic(path, render_html(doc).encode("utf-8"))
