"""Seeded corruption of every input kind: each load either succeeds or ends in
one error of the loader's type that names the file it was given exactly once.

Each valid file is truncated, bit-flipped, and spliced with bytes that break
JSON, CSV, TSV or UTF-8 (`"`, `{`, `]`, `\\xff`, `1e999`, `null`, a tab, CRLF,
a `\\ud800` escape) at seeded positions. A copy with a byte-order mark, and
one with CRLF line ends, must load equal to the original.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

from qtmine.config import load_config
from qtmine.corpus import load_aliases, load_analogies, load_approvals, load_corpus, load_trials
from qtmine.errors import CheckpointError, DataFormatError, QtmineError
from qtmine.model import ModelConfig, init_params, load_checkpoint, save_checkpoint
from qtmine.tokenizer import load_vocab, save_vocab, train_bpe

SEED = 2029
SPLICES = (b'"', b"{", b"]", b"\xff", b"1e999", b"null", b"\t", b"\r\n", rb"\ud800")
TRUNCATIONS = 4
BIT_FLIPS = 4
SPLICE_POSITIONS = 2

TEXTS = ["tamivir inhibits neuraminidase in adult patients",
         "the trial enrolled patients at baseline",
         "gemavir showed no efficacy over twelve weeks"]

CONFIG = {"seed": 3, "lr": 0.001, "max_steps": None, "d_model": 16,
          "template": "{drug} is <mask>", "corpus": "c.jsonl"}

CORPUS = "".join(json.dumps({"id": f"doc{i}", "title": f"title {i}", "abstract": "abs",
                             "body": text, "publish_year": 2000 + i}) + "\n"
                 for i, text in enumerate(TEXTS))
TRIALS = ("trial_id,year,drugs,condition\n"
          "T1,2001,tamivir;Tamiflu,influenza\n"
          'T2,2002,"gemavir, extended",flu\n'
          "T3,2003,zanavir,influenza\n")
ALIASES = "trade_name,scientific_name\nTamiflu,tamivir\nRelenza,zanavir\n"
APPROVALS = "drug,approval_year\ntamivir,2004\nRelenza,2006\n"
ANALOGIES = ("opposites\tgrammar\tgood\tbad\thot\tcold\n"
             "drug-inhibition\tantiviral\ttamivir\tneuraminidase\tgemavir\tprotease\n"
             "opposites\tgrammar\tup\tdown\tfast\tslow\n")


@dataclass(frozen=True)
class Kind:
    """One input kind: the file that is corrupted, the path the loader is
    given, the loader, its error type, and what a load is compared by."""

    file: str
    arg: str
    load: Callable
    error: type
    key: Callable = lambda x: x
    text: bool = True


def _weights(params):
    return params.config, [(name, arr.tobytes()) for name, arr in params.named_tensors()]


KINDS = {
    "vocab": Kind("vocab.json", "vocab.json", load_vocab, DataFormatError, lambda v: v.merges),
    "checkpoint": Kind("m.ckpt", "m.ckpt", load_checkpoint, CheckpointError, _weights, text=False),
    "sidecar": Kind("m.ckpt.json", "m.ckpt", load_checkpoint, CheckpointError, _weights),
    "config": Kind("cfg.json", "cfg.json", load_config, DataFormatError),
    "corpus": Kind("c.jsonl", "c.jsonl", load_corpus, DataFormatError,
                   lambda d: (d.documents, d.malformed_count)),
    "trials": Kind("t.csv", "t.csv", load_trials, DataFormatError),
    "aliases": Kind("a.csv", "a.csv", load_aliases, DataFormatError, lambda a: a.pairs),
    "approvals": Kind("p.csv", "p.csv", load_approvals, DataFormatError),
    "analogies": Kind("an.tsv", "an.tsv", load_analogies, DataFormatError),
}


@pytest.fixture(scope="module")
def originals(tmp_path_factory) -> dict[str, bytes]:
    """The bytes of one valid file of each kind."""
    root = tmp_path_factory.mktemp("valid")
    vocab = train_bpe(TEXTS * 4, 300)
    save_vocab(vocab, root / "vocab.json")
    config = ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16, max_seq=16, vocab_size=vocab.size)
    save_checkpoint(init_params(config, 0), root / "m.ckpt")
    (root / "cfg.json").write_text(json.dumps(CONFIG, indent=2), encoding="utf-8")
    for name, text in (("c.jsonl", CORPUS), ("t.csv", TRIALS), ("a.csv", ALIASES),
                       ("p.csv", APPROVALS), ("an.tsv", ANALOGIES)):
        (root / name).write_text(text, encoding="utf-8")
    return {p.name: p.read_bytes() for p in root.iterdir()}


def _load(kind: Kind, originals: dict[str, bytes], root: Path, data: bytes):
    """Load `kind` from a copy of the valid files with its file's bytes replaced by `data`."""
    for name, raw in originals.items():
        (root / name).write_bytes(raw)
    (root / kind.file).write_bytes(data)
    return kind.load(root / kind.arg)


def corruptions(data: bytes, seed: int) -> list[tuple[str, bytes]]:
    """Seeded truncations, bit flips and splices of `data`."""
    rng = random.Random(seed)
    out = [(f"truncate@{n}", data[:n]) for n in sorted(rng.sample(range(len(data)), TRUNCATIONS))]
    for _ in range(BIT_FLIPS):
        i, bit = rng.randrange(len(data)), rng.randrange(8)
        out.append((f"flip@{i}.{bit}", data[:i] + bytes([data[i] ^ (1 << bit)]) + data[i + 1:]))
    for splice in SPLICES:
        for i in sorted(rng.sample(range(len(data) + 1), SPLICE_POSITIONS)):
            out.append((f"splice{splice!r}@{i}", data[:i] + splice + data[i:]))
    return out


@pytest.mark.parametrize("name", KINDS)
def test_a_corrupt_input_loads_or_names_its_file_once(name, originals, tmp_path):
    kind = KINDS[name]
    path = str(tmp_path / kind.arg)
    for label, data in corruptions(originals[kind.file], SEED + list(KINDS).index(name)):
        try:
            _load(kind, originals, tmp_path, data)
        except QtmineError as exc:
            assert type(exc) is kind.error, (label, exc)
            assert str(exc).count(path) == 1, (label, str(exc))


@pytest.mark.parametrize("name", [name for name, kind in KINDS.items() if kind.text])
def test_bom_and_crlf_copies_load_equal(name, originals, tmp_path):
    kind = KINDS[name]
    data = originals[kind.file]
    want = kind.key(_load(kind, originals, tmp_path, data))
    assert kind.key(_load(kind, originals, tmp_path, b"\xef\xbb\xbf" + data)) == want
    assert kind.key(_load(kind, originals, tmp_path, data.replace(b"\n", b"\r\n"))) == want
