"""Tokenizer tests.

The trainer and encoder are each checked against a deliberately naive
reference implementation (quadratic rescans, no heap, no caching) so that a
bookkeeping bug in the fast path cannot hide. The token streams training hands
back are checked against both encoders.
"""

import json
from collections import Counter

import numpy as np
import pytest

import synth
from qtmine.errors import DataFormatError
from qtmine.tokenizer import (
    FIRST_MERGED,
    MIN_PAIR_COUNT,
    N_BYTES,
    SPECIAL,
    SPECIAL_MARKERS,
    SPECIAL_NAMES,
    decode,
    encode,
    load_vocab,
    save_vocab,
    train_and_encode,
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


def check_training(texts, vocab_size):
    """Train on `texts` and check the result against the naive references:
    the merges of `naive_train`, and for each text a stream equal to its
    `encode` and `naive_encode`. Encoding one text at a time, neither can join
    tokens across a document boundary, so no stream does."""
    vocab, streams = train_and_encode(texts, vocab_size)
    ref_tokens, ref_merges = naive_train(texts, vocab_size)
    assert vocab.merges == ref_merges
    assert vocab.tokens == ref_tokens
    assert vocab == train_bpe(texts, vocab_size)
    assert len(streams) == len(texts)
    for text, stream in zip(texts, streams):
        assert stream == encode(vocab, text) == naive_encode(vocab, text), repr(text[:20])
    return vocab, streams


def test_trainer_matches_naive_reference():
    check_training(SMALL_CORPUS, 330)


def test_trainer_matches_naive_reference_unicode():
    check_training(["αβ αβ αβγ", "日本語 日本語", "ßß ßß ßß"], 280)


def test_trainer_matches_naive_reference_over_hundreds_of_merges():
    # Enough merges that one sweep touches many pairs at once, so the heap
    # pushes batched at the end of each sweep are exercised.
    vocab, _ = check_training(random_texts(np.random.default_rng(11), 300), 700)
    assert len(vocab.merges) >= 300


def test_trainer_matches_naive_reference_on_adversarial_runs():
    # Long runs of one merge rank, overlapping occurrences, and text made of
    # multi-byte code points only, so every merge joins partial characters.
    texts = ["a" * 64, "ab" * 64, "日本語" * 20, "αβγ🌊" * 20, "a" * 513, "ab" * 300 + "a",
             "b" + "ab" * 300, "aab" * 170]
    vocab, _ = check_training(texts * 2, 400)
    assert len(vocab.merges) > 10
    # Small corpora over tiny alphabets: overlapping runs everywhere, pairs
    # whose occurrences empty and refill within one merge's sweep, and
    # positions dying fast enough to be compacted mid-training. Empty and
    # one-character documents sit between the others, and about one
    # vocabulary size in four stops training before the pairs run out.
    rng = np.random.default_rng(18)
    alphabets = [["a", "b", "aa", "ab", " "], *map(list, ["a", "ab", "aab", "a b", "é a"])]
    for _ in range(600):
        pieces = alphabets[int(rng.integers(len(alphabets)))]
        texts = ["".join(rng.choice(pieces, int(rng.choice([0, 1, rng.integers(2, 48)]))))
                 for _ in range(int(rng.integers(1, 7)))] + ["a"]
        check_training(texts, int(rng.integers(262, 281)))


def test_vocab_size_far_beyond_reach_trains_until_pairs_run_out():
    # Every merge removes a position, so FIRST_MERGED + corpus bytes is more
    # tokens than training can make. A larger size must change nothing, even
    # where its square overflows int64.
    texts = SMALL_CORPUS + ["a" * 40, "", "日本語 日本語"]
    reach = FIRST_MERGED + sum(len(text.encode("utf-8")) for text in texts)
    vocab, streams = check_training(texts, reach)
    assert vocab.size < reach
    for size in (10**12, 2**40):
        assert train_and_encode(texts, size) == (vocab, streams)


def test_trainer_streams_of_empty_texts_are_empty():
    _, streams = check_training(["", "the cat sat", "", "the cat sat", ""], 300)
    assert streams[0] == streams[2] == streams[4] == []
    assert streams[1] == streams[3] != []


def test_trainer_streams_on_round_trip_strings():
    texts = synth.round_trip_strings(200)
    vocab, streams = check_training(texts, 400)
    assert all(decode(vocab, stream) == text for text, stream in zip(texts, streams))


def pair_counts(streams):
    return Counter(pair for stream in streams for pair in zip(stream, stream[1:]))


def test_trainer_streams_when_vocab_size_stops_training():
    vocab, streams = check_training(SMALL_CORPUS, 270)
    assert vocab.size == 270
    assert max(pair_counts(streams).values()) >= MIN_PAIR_COUNT


def test_trainer_streams_when_min_pair_count_stops_training():
    # Every pair left is seen fewer than MIN_PAIR_COUNT times, long before
    # the vocabulary is full.
    vocab, streams = check_training(SMALL_CORPUS + ["xyzzy"], 5000)
    assert vocab.size < 5000
    assert max(pair_counts(streams).values()) < MIN_PAIR_COUNT


def test_encoder_matches_naive_reference():
    vocab = train_bpe(SMALL_CORPUS, 330)
    rng = np.random.default_rng(20260815)
    for text in SMALL_CORPUS + random_texts(rng, 200):
        assert encode(vocab, text) == naive_encode(vocab, text), repr(text)


def test_encoder_matches_naive_reference_on_synth_corpus(synth_texts, synth_tokenized):
    vocab, streams = synth_tokenized
    assert len(streams) == len(synth_texts)
    for text, stream in zip(synth_texts, streams):
        assert stream == encode(vocab, text) == naive_encode(vocab, text), repr(text)


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
    vocab, streams = train_and_encode(["a", "b"] * 50, 400)
    assert vocab.merges == []
    assert vocab.size == N_BYTES + len(SPECIAL_NAMES)
    assert streams == [[ord("a")], [ord("b")]] * 50


def test_special_ids_and_layout():
    vocab = train_bpe(SMALL_CORPUS, 300)
    assert vocab.tokens[: N_BYTES] == [bytes([b]) for b in range(N_BYTES)]
    specials = [vocab.mask_id, vocab.pad_id, vocab.bos_id, vocab.eos_id, SPECIAL["unk"]]
    assert specials == list(range(N_BYTES, N_BYTES + 5))
    assert vocab.special_ids == frozenset(specials) == frozenset(SPECIAL.values())
    assert vocab.tokens[N_BYTES:FIRST_MERGED] == [SPECIAL_MARKERS[n] for n in SPECIAL_NAMES]
    assert vocab.size == FIRST_MERGED + len(vocab.merges) == len(vocab.tokens)


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
    assert a.tokens == b.tokens and a.merges == b.merges
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
    text = "the cat sat 日日日"
    assert encode(loaded, text) == encode(vocab, text)


def test_load_vocab_unreadable_file_is_a_data_format_error(tmp_path):
    with pytest.raises(DataFormatError, match="cannot read"):
        load_vocab(tmp_path)
    path = tmp_path / "vocab.json"
    path.write_bytes(b'{"tokens": ["\xff"]}')
    with pytest.raises(DataFormatError, match="not valid UTF-8"):
        load_vocab(path)


def test_load_vocab_rejects_a_special_id_outside_its_slot(tmp_path):
    vocab = train_bpe(SMALL_CORPUS, 300)
    path = tmp_path / "vocab.json"
    save_vocab(vocab, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["special"]["mask"] = ord("A")
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_vocab(path)


def test_load_vocab_rejects_a_negative_merge_id(tmp_path):
    # tokens[-2] is token 262 of this 264-token table, so a merge rewritten as
    # (-2, 99) still spells " aac"; encode, which never meets id -2, would
    # then stop at [261, 98, 262, 99].
    vocab = train_bpe(["aab aac"] * 5, 264)
    assert vocab.merges == [(97, 97), (32, 261), (262, 99)]
    assert encode(vocab, "aab aac") == [261, 98, 263]
    path = tmp_path / "vocab.json"
    save_vocab(vocab, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["merges"][2] = [-2, 99]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataFormatError, match="merge 2"):
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


def test_text_with_a_lone_surrogate_is_a_data_format_error():
    vocab = train_bpe(SMALL_CORPUS, 300)
    with pytest.raises(DataFormatError, match=r"lone surrogate '\\udcff' at character 1"):
        encode(vocab, "x\udcff")
    with pytest.raises(DataFormatError, match="not valid UTF-8"):
        train_and_encode([*SMALL_CORPUS, "x\ud800y"], 300)


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


def _corrupt(doc, case):
    """Edit a saved vocab.json document in the way `case` names."""
    tokens, merges, size = doc["tokens"], doc["merges"], len(doc["tokens"])
    if case == "wrong-token-bytes":
        tokens[-1] = "zzz"
    elif case == "extra-token":
        tokens.append("zz")
    elif case == "extra-merge":
        tokens.append(tokens[0])
        merges.append([0, 0])
    elif case == "moved-special":
        # A special id that points at a merge output would make encode() emit
        # a "<mask>" for ordinary text.
        doc["special"]["mask"] = size - 1
    elif case == "special-null":
        doc["special"] = None
    elif case == "special-list":
        doc["special"] = list(SPECIAL.values())
    elif case == "negative-merge-id":
        # A negative id would pass as an index from the end of the table.
        merges[-1][0] -= size
    elif case == "merge-uses-special":
        merges[-1][0] = SPECIAL["mask"]
    elif case == "float-merge-id":
        merges[0][0] += 0.9  # int() would read it as the merge it was
    elif case == "bool-merge-id":
        merges[0][0] = True
    elif case == "token-entry-a-number":
        tokens[5] = 5
    else:
        raise AssertionError(case)


# Each corruption `_corrupt` makes, and the message `load_vocab` rejects it with.
CORRUPTIONS = {
    "wrong-token-bytes": "tokens are not the ones",
    "extra-token": "tokens are not the ones",
    "extra-merge": "tokens are not the ones",
    "moved-special": "special ids",
    "special-null": "special ids",
    "special-list": "special ids",
    "negative-merge-id": "refers to a token outside",
    "merge-uses-special": "involves a special token",
    "float-merge-id": "must be integers",
    "bool-merge-id": "must be integers",
    "token-entry-a-number": "unrecognized token entry 5",
}


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_load_vocab_rejects_a_corrupt_file(tmp_path, case):
    path = tmp_path / "vocab.json"
    save_vocab(train_bpe(SMALL_CORPUS, 300), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    _corrupt(doc, case)
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataFormatError, match=CORRUPTIONS[case]) as exc:
        load_vocab(path)
    assert str(path) in str(exc.value)  # every message names the file


def test_load_vocab_rejects_json_nested_too_deeply(tmp_path):
    path = tmp_path / "vocab.json"
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    with pytest.raises(DataFormatError, match="malformed vocab file"):
        load_vocab(path)
