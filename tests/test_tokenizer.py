"""Tokenizer tests.

The trainer and encoder are each checked against a deliberately naive
reference implementation (quadratic rescans, no heap, no caching) so that a
bookkeeping bug in the fast path cannot hide.
"""

import numpy as np
import pytest

import synth
from qtmine.errors import DataFormatError
from qtmine.tokenizer import (
    MIN_PAIR_COUNT,
    N_BYTES,
    SPECIAL_MARKERS,
    SPECIAL_NAMES,
    Vocab,
    decode,
    encode,
    load_vocab,
    save_vocab,
    train_bpe,
)

SMALL_CORPUS = [
    "the cat sat on the mat.",
    "the dog sat on the log.",
    "a cat and a dog met on the mat.",
    "low lower lowest",
    "newer newest news",
    "the the the them then there",
]


def naive_train(texts, vocab_size):
    """Reference BPE trainer: full recount each round, explicit tie-break."""
    tokens = [bytes([b]) for b in range(256)] + [SPECIAL_MARKERS[n] for n in SPECIAL_NAMES]
    docs = [list(t.encode("utf-8")) for t in texts if t.encode("utf-8")]
    merges = []
    while len(tokens) < vocab_size:
        counts = {}
        for doc in docs:
            for pair in zip(doc, doc[1:]):
                counts[pair] = counts.get(pair, 0) + 1
        eligible = {p: c for p, c in counts.items() if c >= MIN_PAIR_COUNT}
        if not eligible:
            break
        best = min(
            eligible,
            key=lambda p: (-eligible[p], tokens[p[0]] + tokens[p[1]], tokens[p[0]]),
        )
        new_id = len(tokens)
        tokens.append(tokens[best[0]] + tokens[best[1]])
        merges.append(best)
        for di, doc in enumerate(docs):
            out, i = [], 0
            while i < len(doc):
                if i + 1 < len(doc) and (doc[i], doc[i + 1]) == best:
                    out.append(new_id)
                    i += 2
                else:
                    out.append(doc[i])
                    i += 1
            docs[di] = out
    return tokens, merges


def naive_encode(vocab, text):
    """Reference encoder: apply merges one rank at a time, left to right."""
    seq = list(text.encode("utf-8"))
    for rank, (a, b) in enumerate(vocab.merges):
        new_id = N_BYTES + len(SPECIAL_NAMES) + rank
        out, i = [], 0
        while i < len(seq):
            if i + 1 < len(seq) and seq[i] == a and seq[i + 1] == b:
                out.append(new_id)
                i += 2
            else:
                out.append(seq[i])
                i += 1
        seq = out
    return seq


def random_texts(rng, n):
    pieces = [
        "drug", "protein", "trial", "the", "of", "efficacy", "virus", " ",
        ".", ",", "\n", "é", "ß", "日本語", "αβγ", "🌊", "<", ">", "mask",
        "\t", "'", '"', "0", "42",
    ]
    out = []
    for _ in range(n):
        k = int(rng.integers(0, 40))
        out.append("".join(pieces[int(j)] for j in rng.integers(0, len(pieces), k)))
    return out


def test_trainer_matches_naive_reference():
    vocab = train_bpe(SMALL_CORPUS, 330)
    ref_tokens, ref_merges = naive_train(SMALL_CORPUS, 330)
    assert vocab.merges == ref_merges
    assert vocab.tokens == ref_tokens


def test_trainer_matches_naive_reference_unicode():
    texts = ["αβ αβ αβγ", "日本語 日本語", "ßß ßß ßß"]
    vocab = train_bpe(texts, 280)
    ref_tokens, ref_merges = naive_train(texts, 280)
    assert vocab.merges == ref_merges
    assert vocab.tokens == ref_tokens


def test_trainer_matches_naive_reference_over_hundreds_of_merges():
    # Enough merges that one sweep touches many pairs at once, so the heap
    # pushes batched at the end of each sweep are exercised.
    texts = random_texts(np.random.default_rng(11), 300)
    vocab = train_bpe(texts, 700)
    ref_tokens, ref_merges = naive_train(texts, 700)
    assert len(ref_merges) >= 300
    assert vocab.merges == ref_merges
    assert vocab.tokens == ref_tokens


def test_encoder_matches_naive_reference():
    vocab = train_bpe(SMALL_CORPUS, 330)
    rng = np.random.default_rng(20260815)
    for text in SMALL_CORPUS + random_texts(rng, 200):
        assert encode(vocab, text) == naive_encode(vocab, text), repr(text)


def test_encoder_matches_naive_reference_on_synth_corpus(synth_texts, synth_vocab):
    for text in synth_texts:
        assert encode(synth_vocab, text) == naive_encode(synth_vocab, text), repr(text)


def test_encoder_matches_naive_reference_on_round_trip_strings(synth_texts):
    vocab = train_bpe(synth_texts[:300], 480)
    for text in synth.round_trip_strings():
        assert encode(vocab, text) == naive_encode(vocab, text), repr(text)


def test_encoder_matches_naive_reference_on_adversarial_runs():
    # Long runs of one merge rank, overlapping occurrences, and text made of
    # multi-byte code points only, so every merge joins partial characters.
    vocab = train_bpe(["a" * 64, "ab" * 64, "日本語" * 20, "αβγ🌊" * 20] * 2, 400)
    assert len(vocab.merges) > 10
    texts = ["a" * 513, "ab" * 300, "ab" * 300 + "a", "b" + "ab" * 300,
             "日本語" * 90, "αβγ🌊" * 90, "日" * 200, "aab" * 170]
    for text in texts:
        assert encode(vocab, text) == naive_encode(vocab, text), repr(text[:20])


def test_equal_rank_occurrences_merge_left_to_right():
    # Within one merge rank, overlapping occurrences resolve greedily from
    # the left: "aaa" becomes [aa, a], never [a, aa].
    vocab = train_bpe(["aa aa aa aa"], 262)
    assert vocab.tokens[-1] == b"aa"
    aa = vocab.size - 1
    assert encode(vocab, "aaa") == [aa, ord("a")]
    assert encode(vocab, "aaaa") == [aa, aa]
    assert encode(vocab, "aaaaa") == [aa, aa, ord("a")]


def test_round_trip_random_strings():
    vocab = train_bpe(SMALL_CORPUS, 320)
    rng = np.random.default_rng(7)
    for text in random_texts(rng, 300):
        assert decode(vocab, encode(vocab, text)) == text


def test_round_trip_edge_cases():
    vocab = train_bpe(SMALL_CORPUS, 300)
    for text in ["", "a", " ", "\x00\x01", "<mask>", "né\n日🌊", "a" * 500]:
        assert decode(vocab, encode(vocab, text)) == text


def test_merges_never_cross_document_boundaries():
    # Each document is a single character, so no pair ever exists even
    # though the concatenation "ababab..." would be highly compressible.
    vocab = train_bpe(["a", "b"] * 50, 400)
    assert vocab.merges == []
    assert vocab.size == N_BYTES + len(SPECIAL_NAMES)


def test_special_ids_and_layout():
    vocab = train_bpe(SMALL_CORPUS, 300)
    assert vocab.tokens[: N_BYTES] == [bytes([b]) for b in range(N_BYTES)]
    specials = [vocab.mask_id, vocab.pad_id, vocab.bos_id, vocab.eos_id, vocab.unk_id]
    assert specials == list(range(N_BYTES, N_BYTES + 5))
    assert vocab.special_ids == frozenset(specials)
    vocab.validate()


def test_vocab_tables_are_computed_once():
    vocab = train_bpe(SMALL_CORPUS, 300)
    assert vocab.special_ids is vocab.special_ids
    assert vocab.merge_rank is vocab.merge_rank
    assert vocab.merge_rank == {pair: i for i, pair in enumerate(vocab.merges)}
    assert vocab == train_bpe(SMALL_CORPUS, 300)


def test_special_tables_match_special_ids():
    vocab = train_bpe(SMALL_CORPUS, 300)
    assert vocab.is_special.shape == (vocab.size,)
    assert set(np.flatnonzero(vocab.is_special)) == vocab.special_ids
    expected = [i for i in range(vocab.size) if i not in vocab.special_ids]
    assert vocab.non_special_ids.tolist() == expected


def test_retrain_is_byte_identical(tmp_path):
    texts = SMALL_CORPUS * 3
    a = train_bpe(texts, 340)
    b = train_bpe(texts, 340)
    assert a.tokens == b.tokens and a.merges == b.merges and a.special == b.special
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_vocab(a, pa)
    save_vocab(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_save_load_round_trip(tmp_path):
    # Include a non-UTF-8 token by training on bytes that merge mid-codepoint.
    texts = SMALL_CORPUS + ["日日日日 日日日日 日日日日"]
    vocab = train_bpe(texts, 350)
    path = tmp_path / "vocab.json"
    save_vocab(vocab, path)
    loaded = load_vocab(path)
    assert loaded.tokens == vocab.tokens
    assert loaded.merges == vocab.merges
    assert loaded.special == vocab.special
    text = "the cat sat 日日日"
    assert encode(loaded, text) == encode(vocab, text)


def test_load_vocab_unreadable_file_is_a_data_format_error(tmp_path):
    with pytest.raises(DataFormatError, match="cannot read"):
        load_vocab(tmp_path)
    path = tmp_path / "vocab.json"
    path.write_bytes(b'{"tokens": ["\xff"]}')
    with pytest.raises(DataFormatError, match="not valid UTF-8"):
        load_vocab(path)


def test_decode_renders_special_markers():
    vocab = train_bpe(SMALL_CORPUS, 300)
    shown = decode(vocab, [vocab.bos_id, ord("h"), ord("i"), vocab.mask_id, vocab.eos_id])
    assert shown == "<bos>hi<mask><eos>"


def test_decode_rejects_out_of_range_id():
    vocab = train_bpe(SMALL_CORPUS, 300)
    with pytest.raises(DataFormatError):
        decode(vocab, [vocab.size])
    with pytest.raises(DataFormatError):
        decode(vocab, [-1])


def test_train_rejects_empty_corpus():
    with pytest.raises(DataFormatError):
        train_bpe([], 300)
    with pytest.raises(DataFormatError):
        train_bpe(["", ""], 300)


def test_train_rejects_tiny_vocab_size():
    with pytest.raises(DataFormatError):
        train_bpe(SMALL_CORPUS, N_BYTES + len(SPECIAL_NAMES))


def test_min_pair_count_threshold():
    # A pair seen once is not merged at MIN_PAIR_COUNT, two; a pair seen twice is.
    vocab = train_bpe(["xy"], 300)
    assert vocab.merges == []
    vocab2 = train_bpe(["xy", "xy"], 300)
    assert vocab2.tokens[-1] == b"xy"


def test_validate_catches_corruption():
    vocab = train_bpe(SMALL_CORPUS, 300)
    broken = Vocab(tokens=vocab.tokens[:-1] + [b"zzz"], merges=vocab.merges,
                   special=vocab.special)
    if vocab.merges:
        with pytest.raises(DataFormatError):
            broken.validate()
    dup = Vocab(tokens=vocab.tokens + [vocab.tokens[0]],
                merges=vocab.merges + [(0, 0)], special=vocab.special)
    with pytest.raises(DataFormatError):
        dup.validate()
