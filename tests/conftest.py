"""Shared fixtures: the trained synthetic model, data files, and the
acceptance-criteria summary printed at the end of the run."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import pytest

import synth
from qtmine.model import ModelConfig, Params, init_params
from qtmine.tokenizer import TokenSeq, Vocab, train_and_encode, train_bpe
from qtmine.train import TrainConfig, TrainResult, train

# Wall-clock cost of building the heavyweight session fixtures, so the
# acceptance test that consumes them can count that time against its budget.
TIMINGS: dict[str, float] = {}

MAIN_TRAIN_CFG = TrainConfig(lr=1e-3, batch_size=32, n_epochs=20, warmup_frac=0.06)


@dataclass
class SynthRun:
    """A tokenizer and model trained once on the synthetic corpus."""

    vocab: Vocab
    config: ModelConfig
    train_cfg: TrainConfig
    result: TrainResult
    texts: list[str]
    streams: list[TokenSeq]  # each text's token ids, as BPE training handed them back

    @property
    def params(self) -> Params:
        return self.result.params


class _MessageList(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


@pytest.fixture
def qtmine_log():
    """Messages of warning level and above logged by qtmine during the test.

    The handler sits on the `qtmine` logger itself, because the CLI's
    `setup_logging` stops that logger from propagating to pytest's handler.
    """
    logger = logging.getLogger("qtmine")
    handler = _MessageList()
    handler.setLevel(logging.WARNING)
    logger.addHandler(handler)
    yield handler.messages
    logger.removeHandler(handler)


@pytest.fixture(scope="session")
def synth_texts():
    return synth.synth_texts()


@pytest.fixture(scope="session")
def synth_tokenized(synth_texts):
    """The synthetic vocabulary and each synthetic text's token stream."""
    t0 = time.perf_counter()
    vocab, streams = train_and_encode(synth_texts, synth.SYNTH_VOCAB_SIZE)
    TIMINGS["synth_vocab"] = time.perf_counter() - t0
    assert vocab.size == synth.SYNTH_VOCAB_SIZE
    return vocab, streams


@pytest.fixture(scope="session")
def synth_vocab(synth_tokenized):
    return synth_tokenized[0]


@pytest.fixture(scope="session")
def synth_run(synth_texts, synth_tokenized):
    vocab, streams = synth_tokenized
    config = ModelConfig(vocab_size=vocab.size, n_layers=2, n_heads=4,
                         d_model=128, d_ff=512, max_seq=128)
    params = init_params(config, seed=0)
    t0 = time.perf_counter()
    result = train(params, vocab, streams, MAIN_TRAIN_CFG, seed=0,
                   eval_streams=streams[::10])
    TIMINGS["synth_train"] = time.perf_counter() - t0
    return SynthRun(vocab=vocab, config=config, train_cfg=MAIN_TRAIN_CFG,
                    result=result, texts=synth_texts, streams=streams)


@pytest.fixture(scope="session")
def tiny_setup():
    """A small vocabulary and untrained model for structural tests."""
    texts = [
        "the drug blocks the protein in cells.",
        "trials showed efficacy in patients.",
        "the compound reduced viral load quickly.",
        "no benefit was found in the cohort.",
    ] * 8
    vocab = train_bpe(texts, 300)
    config = ModelConfig(vocab_size=vocab.size, n_layers=2, n_heads=2,
                         d_model=16, d_ff=32, max_seq=64)
    return vocab, init_params(config, seed=3)


@pytest.fixture(scope="session")
def trials_csv(tmp_path_factory):
    return synth.write_trials_csv(tmp_path_factory.mktemp("trials") / "trials.csv")


@pytest.fixture(scope="session")
def analogy_tsv(tmp_path_factory):
    return synth.write_analogy_tsv(tmp_path_factory.mktemp("analogy") / "analogies.tsv")


# ---------------------------------------------------------------------------
# Acceptance summary

_ACCEPTANCE_LINES: list[tuple[str, bool, str]] = []


def record_criterion(label: str, passed: bool, detail: str = "") -> None:
    """Print one pass/fail line for an acceptance criterion and remember it."""
    line = f"acceptance {label}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    _ACCEPTANCE_LINES.append((label, passed, detail))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for label, passed, detail in _ACCEPTANCE_LINES:
        suffix = f" ({detail})" if detail else ""
        terminalreporter.write_line(f"{'PASS' if passed else 'FAIL'}  {label}{suffix}")
