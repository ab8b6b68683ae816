"""Per-sentence passage highlighting.

The passage is split into sentences whose spans tile it exactly. Each
sentence is rendered into the template's `{sentence}` slot (as literal text,
cut at a whole character if the query is too long), all sentences are scored
against the target term in one batched model call, and the scores are
max-normalized. The result renders to ANSI (5 intensity buckets) and to a
standalone HTML file (one span per sentence, score kept at 6 decimals).
"""

from __future__ import annotations

import html as html_mod
import re
from dataclasses import dataclass
from pathlib import Path

from . import model as M
from .errors import EvalError
from .qt import QuerySpec, TargetSpec, predict_queries, score_probs
from .tokenizer import Vocab, encode
from .util import get_logger, kv, write_atomic

logger = get_logger()

DEFAULT_HIGHLIGHT_TEMPLATE = "{sentence} This concerns <mask> <mask>."

_SENTENCE_END = re.compile(r"[.!?]+(?:\s+|$)")
_ANSI_CODES = (None, 58, 100, 142, 184)  # background: none, then darker to brighter
_SCORE_RE = re.compile(r'data-score="(\d+\.\d{6})"')


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
    """Render the sentence into the template, truncating it at a token boundary
    if the query is too long; a cut inside a character drops that character."""
    ids = encode(vocab, sentence)
    while True:
        text = b"".join(vocab.tokens[t] for t in ids).decode("utf-8", "ignore")
        query = QuerySpec.render(vocab, template, sentence=text)
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
    spans = split_sentences(passage)
    if not spans:
        raise EvalError("passage splits into zero sentences")
    # The template's slot and <mask> rules hold even if no sentence is scored.
    QuerySpec.render(vocab, template, sentence="")
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
    return HighlightDoc(sentences=sentences, target_term=target_term)


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
