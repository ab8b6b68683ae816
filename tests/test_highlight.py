"""Attention views and passage-highlighting tests."""

import re

import numpy as np
import pytest

from qtmine.errors import EvalError, TemplateError
from qtmine.highlight import (
    DEFAULT_HIGHLIGHT_TEMPLATE,
    _fit_sentence,
    ansi_bucket,
    highlight_passage,
    parse_html_scores,
    qt_attention,
    render_ansi,
    render_html,
    self_attention,
    split_sentences,
    write_html,
)
from qtmine.model import ModelConfig, forward, init_params
from qtmine.qt import MASK_PLACEHOLDER, QuerySpec, TargetSpec, predict_queries
from qtmine.tokenizer import train_bpe

ANSI_RE = re.compile(r"\x1b\[[0-9;]*m")

PASSAGE = (
    "the drug blocks the protein in cells. trials showed efficacy in patients! "
    "was the dose tolerated? no benefit was found in controls."
)


# ---------------------------------------------------------------------------
# Sentence splitting


def test_split_sentences_tiles_passage():
    spans = split_sentences(PASSAGE)
    assert len(spans) == 4
    assert "".join(PASSAGE[s:e] for s, e in spans) == PASSAGE
    assert spans[0][0] == 0 and spans[-1][1] == len(PASSAGE)
    assert all(e > s for s, e in spans)


def test_split_sentences_tail_without_terminator():
    text = "first one. trailing fragment without punctuation"
    spans = split_sentences(text)
    assert len(spans) == 2
    assert text[spans[1][0]:spans[1][1]] == "trailing fragment without punctuation"


def test_split_sentences_fuzz_tiling():
    rng = np.random.default_rng(12)
    pieces = ["abc", "d e f", "!", "?", ".", "...", " ", "  ", "g.h", "\n", "x?! y."]
    for _ in range(100):
        n = int(rng.integers(0, 12))
        text = "".join(pieces[int(i)] for i in rng.integers(0, len(pieces), n))
        spans = split_sentences(text)
        assert "".join(text[s:e] for s, e in spans) == text
        starts = [s for s, _ in spans]
        assert starts == sorted(starts)


def test_split_sentences_empty():
    assert split_sentences("") == []


# ---------------------------------------------------------------------------
# Attention views


def test_self_attention_defaults_to_averaged_final_layer(tiny_setup):
    vocab, params = tiny_setup
    seq = [vocab.bos_id, ord("a"), ord("b"), ord("c"), vocab.eos_id]
    amap = self_attention(params, seq)
    n_layers = params.config.n_layers
    assert amap.layer == n_layers - 1 and amap.head is None
    assert amap.matrix.shape == (5, 5)
    np.testing.assert_allclose(amap.matrix.sum(axis=-1), 1.0, atol=1e-6)
    # averaged view equals the mean over the collected per-head maps
    out = forward(params, seq, collect_attention=True)
    np.testing.assert_allclose(amap.matrix, out.attentions[n_layers - 1].mean(axis=0),
                               rtol=1e-6)
    assert "averaged" in amap.label


def test_self_attention_selects_layer_and_head(tiny_setup):
    vocab, params = tiny_setup
    seq = [ord("a"), ord("b"), ord("c")]
    amap = self_attention(params, seq, layer=0, head=1)
    out = forward(params, seq, collect_attention=True)
    np.testing.assert_array_equal(amap.matrix, out.attentions[0][1])
    np.testing.assert_allclose(amap.matrix.sum(axis=-1), 1.0, atol=1e-6)
    with pytest.raises(EvalError):
        self_attention(params, seq, layer=params.config.n_layers)
    with pytest.raises(EvalError):
        self_attention(params, seq, head=params.config.n_heads)


def test_qt_attention_is_a_distribution_over_tokens(tiny_setup):
    vocab, params = tiny_setup
    query = QuerySpec.render(vocab, "the drug showed <mask> <mask> overall.")
    target = TargetSpec.from_phrase(vocab, "efficacy")
    vec = qt_attention(params, query, target)
    assert vec.shape == (len(query.ids),)
    assert abs(vec.sum() - 1.0) < 1e-6
    assert np.all(vec >= 0)


# ---------------------------------------------------------------------------
# Passage highlighting


def test_highlight_passage_structure(tiny_setup):
    vocab, params = tiny_setup
    doc = highlight_passage(params, vocab, PASSAGE, "efficacy")
    assert len(doc.sentences) == 4
    assert "".join(s.text for s in doc.sentences) == PASSAGE
    for s in doc.sentences:
        assert PASSAGE[s.start:s.end] == s.text
        assert 0.0 <= s.score <= 1.0
    assert max(s.score for s in doc.sentences) == 1.0
    assert doc.target_term == "efficacy"


def test_highlight_passage_whitespace_sentence_scores_zero(tiny_setup):
    vocab, params = tiny_setup
    doc = highlight_passage(params, vocab, "real sentence here.    ", "efficacy")
    # the trailing whitespace rides along with the first sentence span
    assert len(doc.sentences) == 1
    # a whitespace-only passage has nothing to score: peak stays at zero
    doc2 = highlight_passage(params, vocab, " \n  ", "efficacy")
    assert [s.score for s in doc2.sentences] == [0.0]


def test_highlight_passage_validates_inputs(tiny_setup):
    vocab, params = tiny_setup
    with pytest.raises(EvalError):
        highlight_passage(params, vocab, "", "efficacy")
    with pytest.raises(TemplateError):
        highlight_passage(params, vocab, PASSAGE, "efficacy", template="no slot <mask>")


@pytest.mark.parametrize("template", ["no slot <mask>", "{sentence} has no mask."])
def test_blank_passage_still_validates_the_template(tiny_setup, template):
    vocab, params = tiny_setup
    with pytest.raises(TemplateError):
        highlight_passage(params, vocab, "   ", "x", template=template)


def test_highlight_long_sentence_truncates_to_fit(tiny_setup):
    vocab, params = tiny_setup
    long_passage = "word " * 300 + "end."
    doc = highlight_passage(params, vocab, long_passage, "efficacy")
    assert len(doc.sentences) == 1
    assert 0.0 <= doc.sentences[0].score <= 1.0


def test_highlight_truncates_at_a_whole_character():
    vocab = train_bpe(["plain ascii text."], 280)  # no merge joins the two bytes of "é"
    query = _fit_sentence(vocab, "é" * 40 + ".", DEFAULT_HIGHLIGHT_TEMPLATE, 24)
    assert len(query.ids) <= 24
    assert "\ufffd" not in query.template
    assert query.template.startswith("é")
    # an ASCII sentence keeps every token that fits
    query = _fit_sentence(vocab, "a" * 40 + ".", DEFAULT_HIGHLIGHT_TEMPLATE, 24)
    kept = query.template[:query.template.index(" This")]
    assert kept == "a" * len(kept)
    longer = QuerySpec.render(vocab, DEFAULT_HIGHLIGHT_TEMPLATE, sentence=kept + "a")
    assert len(longer.ids) > 24 == len(query.ids)


@pytest.mark.parametrize("sentence", ["the drug <mask> blocks it.", "the {drug} blocks it.",
                                      "a {sentence} here."])
def test_highlight_scores_a_marker_in_a_sentence_as_text(tiny_setup, monkeypatch, sentence):
    vocab, params = tiny_setup
    queries = []

    def recording(params, batch):
        queries.extend(batch)
        return predict_queries(params, batch)

    monkeypatch.setattr("qtmine.highlight.predict_queries", recording)
    doc = highlight_passage(params, vocab, PASSAGE + " " + sentence, "efficacy")
    assert len(doc.sentences) == 5
    n_masks = DEFAULT_HIGHLIGHT_TEMPLATE.count(MASK_PLACEHOLDER)
    assert [len(q.mask_positions) for q in queries] == [n_masks] * 5
    assert queries[-1].template == DEFAULT_HIGHLIGHT_TEMPLATE.replace("{sentence}", sentence)


def test_highlight_is_deterministic(tiny_setup):
    vocab, params = tiny_setup
    a = highlight_passage(params, vocab, PASSAGE, "protein")
    b = highlight_passage(params, vocab, PASSAGE, "protein")
    assert a == b


# ---------------------------------------------------------------------------
# Rendering


def test_ansi_bucket_boundaries():
    assert ansi_bucket(0.0) == 0
    assert ansi_bucket(0.19) == 0
    assert ansi_bucket(0.2) == 1
    assert ansi_bucket(0.59) == 2
    assert ansi_bucket(0.8) == 4
    assert ansi_bucket(1.0) == 4
    assert ansi_bucket(-0.5) == 0
    assert ansi_bucket(2.0) == 4


def test_render_ansi_preserves_text(tiny_setup):
    vocab, params = tiny_setup
    doc = highlight_passage(params, vocab, PASSAGE, "efficacy")
    out = render_ansi(doc)
    assert ANSI_RE.sub("", out) == PASSAGE
    assert "\x1b[48;5;" in out  # the peak sentence is wrapped


def test_html_round_trip_and_escaping(tiny_setup, tmp_path):
    vocab, params = tiny_setup
    passage = "score a < b & c. plain closing sentence."
    doc = highlight_passage(params, vocab, passage, "efficacy")
    html_text = render_html(doc)
    assert "a &lt; b &amp; c" in html_text
    scores = parse_html_scores(html_text)
    assert scores == [float(f"{s.score:.6f}") for s in doc.sentences]
    path = tmp_path / "view.html"
    write_html(doc, path)
    assert parse_html_scores(path.read_text()) == scores
