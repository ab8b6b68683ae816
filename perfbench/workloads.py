"""The three benchmark workloads and their correctness checks.

Each workload is a closed loop with one client: it issues CLI requests by
calling `qtmine.cli.main(argv)` in-process, one after another, and an
iteration is a fixed list of requests. `setup` writes the inputs, untimed,
then runs the program's set-up requests in a fresh process (`child.py`) and
returns that process's wall time: the program's cold start, and for `mine`
the checkpoint the session queries. `prepare` computes, outside any timing,
the work counts the metrics divide by (non-pad training tokens, masked
queries) from the inputs.
`check_iteration` and `check_once` return a list of problems; an empty list
means the outputs are correct. The runner puts the checkout's `src/` on the
import path before importing this module.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from qtmine import cli
from qtmine import model as M
from qtmine.config import load_config
from qtmine.corpus import (candidates_at_year, filter_by_year, load_aliases, load_analogies,
                           load_corpus, load_trials)
from qtmine.fcrank import rank_current, train_at_cutoff
from qtmine.highlight import split_sentences
from qtmine.qt import QuerySpec, TargetSpec, qt_score
from qtmine.tokenizer import decode, encode, load_vocab, train_bpe
from qtmine.train import build_windows, perplexity

import gen

HERE = Path(__file__).resolve().parent
SCORE_TOL = 1e-6
SETUP_TIMEOUT_S = 150


@dataclass
class Reply:
    label: str
    argv: list[str]
    code: int
    seconds: float
    out: str
    err: str


@dataclass
class Iteration:
    index: int
    workdir: Path
    replies: list[Reply] = field(default_factory=list)
    seconds: float = 0.0


class Client:
    """Issues CLI requests in-process and tags each with a request id."""

    def __init__(self):
        self.tracer = None
        self.requests = 0

    def call(self, label: str, argv: list[str]) -> Reply:
        self.requests += 1
        if self.tracer is not None:
            self.tracer.request = self.requests
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback is a failed request, not a crash of the benchmark
                code = -1
                err.write(traceback.format_exc())
        seconds = perf_counter() - t0
        return Reply(label, argv, code, seconds, out.getvalue(), err.getvalue())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): sha256(p) for p in sorted(root.rglob("*")) if p.is_file()}


# -- checks on single outputs ------------------------------------------------


def check_reply(reply: Reply, expect_error: bool) -> list[str]:
    """Exit 0, or for a malformed request exit 1 with one error line and no traceback."""
    if "Traceback" in reply.err:
        return [f"{reply.label}: traceback on stderr"]
    if not expect_error:
        return [] if reply.code == 0 else [f"{reply.label}: exit {reply.code}"]
    lines = [ln for ln in reply.err.splitlines() if ln.startswith("error type=")]
    problems = []
    if reply.code != 1:
        problems.append(f"{reply.label}: malformed request exited {reply.code}, expected 1")
    if len(lines) != 1:
        problems.append(f"{reply.label}: {len(lines)} error lines, expected 1")
    return problems


def check_curve(path: Path) -> tuple[list[str], float | None]:
    """All losses finite and a final eval loss present; returns (problems, final eval)."""
    rows = list(csv.DictReader(path.open(encoding="utf-8")))
    problems = []
    evals = []
    for row in rows:
        for key in ("loss", "eval_loss"):
            if row[key] == "":
                continue
            value = float(row[key])
            if not math.isfinite(value):
                problems.append(f"{path.name}: non-finite {key} at step {row['step']}")
            elif key == "eval_loss":
                evals.append(value)
    if not rows:
        problems.append(f"{path.name}: empty loss curve")
    if not evals:
        problems.append(f"{path.name}: no eval loss recorded")
    return problems, (evals[-1] if evals else None)


def check_ranking(path: Path) -> list[str]:
    """Ranks 1..n, sorted by (-score, name), scores in [0, 1]."""
    rows = json.loads(path.read_text(encoding="utf-8"))
    keys = [(-r["score"], r["candidate"]) for r in rows]
    problems = []
    if keys != sorted(keys):
        problems.append(f"{path.name}: ranking not sorted by (-score, name)")
    if [r["rank"] for r in rows] != list(range(1, len(rows) + 1)):
        problems.append(f"{path.name}: ranks are not 1..n")
    if any(not 0.0 <= r["score"] <= 1.0 for r in rows):
        problems.append(f"{path.name}: score outside [0, 1]")
    if not rows:
        problems.append(f"{path.name}: empty ranking")
    return problems


_HTML_SCORE = re.compile(r'data-score="([^"]*)"')


def check_highlight(path: Path) -> list[str]:
    """Sentence scores lie in [0, 1] and the largest is 1."""
    scores = [float(s) for s in _HTML_SCORE.findall(path.read_text(encoding="utf-8"))]
    if not scores:
        return [f"{path.name}: no sentence scores"]
    problems = []
    if any(not 0.0 <= s <= 1.0 for s in scores):
        problems.append(f"{path.name}: score outside [0, 1]")
    if abs(max(scores) - 1.0) > SCORE_TOL:
        problems.append(f"{path.name}: maximum score {max(scores)} is not 1")
    return problems


def check_fc_metrics(path: Path) -> tuple[list[str], float]:
    """hits@k and MRR lie in [0, 1], overall and per year; returns (problems, mean MRR)."""
    data = json.loads(path.read_text(encoding="utf-8"))
    values = [("mean_mrr", data["mean_mrr"])]
    values += [(k, v) for k, v in data["mean_hits"].items()]
    for row in data["per_year"]:
        values += [(f"{row['cutoff_year']}:{k}", v) for k, v in row.items()
                   if k == "mrr" or k.startswith("hits@")]
    problems = [f"{path.name}: {k}={v} outside [0, 1]" for k, v in values
                if not 0.0 <= v <= 1.0]
    if data["n_scored_years"] < 1:
        problems.append(f"{path.name}: no scored years")
    return problems, float(data["mean_mrr"])


def check_same(label: str, reference: dict, current: dict) -> list[str]:
    diff = sorted(k for k in set(reference) | set(current) if reference.get(k) != current.get(k))
    return [f"{label}: {name} differs from the first repeat" for name in diff]


# -- shared library helpers (used outside timing) -----------------------------


def train_tokens(vocab, texts, max_seq: int, epochs: int) -> int:
    """Non-pad positions the trainer processes: every window once per epoch."""
    return epochs * sum(int(w.shape[0]) for w in build_windows(vocab, texts, max_seq))


def scored_sentences(passage_path: Path) -> int:
    """Sentences of a passage that highlight scores (whitespace-only ones are not)."""
    passage = passage_path.read_text(encoding="utf-8")
    return sum(1 for s, e in split_sentences(passage) if passage[s:e].strip())


def masked_ce(params, vocab, texts, seed: int) -> float:
    """Masked cross-entropy (nats) under the library's seeded evaluation masking."""
    return math.log(perplexity(params, vocab, texts, seed=seed))


# -- workloads ---------------------------------------------------------------


class Workload:
    name = ""
    why = ""
    # Requests whose latency request_ms_p50/p90 report; empty means all of them.
    latency_labels: tuple[str, ...] = ()

    def __init__(self, seed: int, tiny: bool, client: Client):
        self.seed = seed
        self.tiny = tiny
        self.client = client
        self.root: Path | None = None
        self.setup_replies: list[Reply] = []
        self.queries: dict[str, int] = {}
        self.tokens: dict[str, int] = {}
        self.quality: dict[str, float] = {}
        self.reference: dict[str, object] = {}
        self.iterations: list[Iteration] = []   # warm-up first; filled by the runner

    @property
    def config(self) -> Path:
        return self.root / "run.json"

    def setup(self, root: Path) -> float:
        """Write the inputs (untimed), then time the set-up requests in a fresh process.

        The first set-up's directory serves the iterations; later set-ups only time.
        """
        if self.root is None:
            self.root = root
        self.write_inputs(root)
        requests = self.setup_requests(root)
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "child.py"),
                               json.dumps([argv for _, argv in requests])],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=SETUP_TIMEOUT_S)
        seconds = perf_counter() - t0
        self.client.requests += len(requests)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up requests failed (exit {proc.returncode}): {proc.stderr[-2000:]}")
        replies = json.loads(proc.stdout.splitlines()[-1])
        self.setup_replies += [Reply(label, argv, code, s, "", "")
                               for (label, argv), (code, s) in zip(requests, replies)]
        return seconds

    def write_inputs(self, root: Path) -> None:
        raise NotImplementedError

    def setup_requests(self, root: Path) -> list[tuple[str, list[str]]]:
        """By default the cold start trains the tokenizer on the workload's corpus."""
        return [("setup-tokenizer", ["--config", str(root / "run.json"), "train-tokenizer",
                                     "--out", str(root / "vocab.json")])]

    def plan(self) -> None:
        """Anything the iterations need that set-up does not make; untimed."""

    def prepare(self) -> None:
        raise NotImplementedError

    def requests(self, index: int, workdir: Path) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def expect_error(self, label: str) -> bool:
        return False

    def iteration(self, index: int) -> Iteration:
        it = Iteration(index, self.root / f"it{index:03d}")
        it.workdir.mkdir(parents=True, exist_ok=True)
        t0 = perf_counter()
        for label, argv in self.requests(index, it.workdir):
            it.replies.append(self.client.call(label, argv))
        it.seconds = perf_counter() - t0
        return it

    def check_iteration(self, it: Iteration) -> list[str]:
        problems = []
        for reply in it.replies:
            problems += check_reply(reply, self.expect_error(reply.label))
        return problems

    def check_once(self, iterations: list[Iteration]) -> list[str]:
        return []

    def latencies_ms(self, iterations: list[Iteration]) -> list[float]:
        return [r.seconds * 1000.0 for it in iterations for r in it.replies
                if not self.latency_labels or r.label in self.latency_labels]

    # Work counts per request label; metrics divide by the reply times.
    def train_rates(self, iterations: list[Iteration]) -> list[float]:
        replies = [r for it in iterations for r in it.replies] + self.setup_replies
        return [self.tokens[r.label] / r.seconds for r in replies
                if r.label in self.tokens and r.code == 0]

    def query_rates(self, iterations: list[Iteration]) -> list[float]:
        rates = []
        for it in iterations:
            scoring = [r for r in it.replies if self.queries.get(r.label)]
            if scoring:
                rates.append(sum(self.queries[r.label] for r in scoring)
                             / sum(r.seconds for r in scoring))
        return rates


class Pretrain(Workload):
    name = "pretrain"
    why = ("train-tokenizer, train, rank, analogies, highlight on mixed-length documents: "
           "model forward/backward and training do almost all the work")
    RANK_YEAR = 2010
    # One request of each kind per iteration: pooled, the median would fall on
    # whichever short query request sits in the middle. `train` does the work.
    latency_labels = ("train",)

    def write_inputs(self, root: Path) -> None:
        size = gen.Size(n_docs=24 if self.tiny else 120, max_sentences=15, n_drugs=20,
                        n_effective=6, n_negative=6, n_lexicon=0, n_analogies=20,
                        n_passages=1, passage_sentences=8)
        cfg = {"vocab_size": 640, "n_layers": 2, "n_heads": 4, "d_model": 128, "d_ff": 512,
               "max_seq": 128, "batch_size": 32, "n_epochs": 1 if self.tiny else 2, "lr": 1e-3}
        gen.write_inputs(root, self.seed, size, cfg)

    def requests(self, index: int, d: Path) -> list[tuple[str, list[str]]]:
        c = ["--config", str(self.config)]
        m = ["--vocab", str(d / "vocab.json"), "--checkpoint", str(d / "model.ckpt")]
        return [
            ("train-tokenizer", c + ["train-tokenizer", "--out", str(d / "vocab.json")]),
            ("train", c + ["train", "--vocab", str(d / "vocab.json"), "--out",
                           str(d / "model.ckpt"), "--curve", str(d / "curve.csv")]),
            ("rank", c + ["rank", *m, "--year", str(self.RANK_YEAR), "--out", str(d / "rank.csv"),
                          "--out-json", str(d / "rank.json")]),
            ("analogies", c + ["analogies", *m, "--out-json", str(d / "analogies.json")]),
            ("highlight", c + ["highlight", *m, "--passage-file", str(self.root / "passage0.txt"),
                               "--target-term", "efficacy", "--out-html", str(d / "passage.html")]),
        ]

    def prepare(self) -> None:
        """Counts from the inputs, with the vocabulary the first iteration trained."""
        cfg = load_config(self.config)
        vocab = load_vocab(self.root / "it000" / "vocab.json")
        train_docs, _ = load_corpus(cfg.corpus).split(cfg.seed)
        self.tokens["train"] = train_tokens(vocab, [d.text() for d in train_docs.documents],
                                            cfg.max_seq, cfg.n_epochs)
        trials = load_trials(cfg.trials, load_aliases(cfg.aliases))
        self.queries = {
            "rank": len(candidates_at_year(trials, self.RANK_YEAR)),
            "analogies": len(load_analogies(cfg.analogies)),
            "highlight": scored_sentences(self.root / "passage0.txt"),
        }

    def check_iteration(self, it: Iteration) -> list[str]:
        problems = super().check_iteration(it)
        if problems:
            return problems
        d = it.workdir
        curve_problems, final = check_curve(d / "curve.csv")
        problems += curve_problems
        problems += check_ranking(d / "rank.json")
        problems += check_highlight(d / "passage.html")
        digests = {name: sha256(d / name) for name in ("vocab.json", "model.ckpt", "model.ckpt.json")}
        if "digests" not in self.reference:
            self.reference["digests"] = digests
            self.quality["eval_ce"] = final
        problems += check_same(f"it{it.index}", self.reference["digests"], digests)
        return problems

    def check_once(self, iterations: list[Iteration]) -> list[str]:
        """eval_ce below the untrained model's, and decode(encode(x)) == x on sampled docs."""
        d = iterations[0].workdir
        cfg = load_config(self.config)
        vocab = load_vocab(d / "vocab.json")
        docs = load_corpus(cfg.corpus)
        _, eval_docs = docs.split(cfg.seed)
        texts = [doc.text() for doc in eval_docs.documents]
        initial = masked_ce(M.init_params(cfg.model_config(vocab.size), cfg.seed), vocab, texts, cfg.seed)
        trained = masked_ce(M.load_checkpoint(d / "model.ckpt"), vocab, texts, cfg.seed)
        problems = []
        final = self.quality.get("eval_ce")
        if final is None or not final < initial or not trained < initial:
            problems.append(f"eval_ce did not fall: step-0 {initial:.4f}, "
                            f"final {final}, re-evaluated {trained:.4f}")
        rng = np.random.default_rng(self.seed)
        for i in rng.choice(len(docs), size=min(8, len(docs)), replace=False):
            text = docs.documents[int(i)].text()
            if decode(vocab, encode(vocab, text)) != text:
                problems.append(f"decode(encode(x)) != x for document {docs.documents[int(i)].id}")
        return problems


class Mine(Workload):
    name = "mine"
    why = ("sessions of one rank/qt/analogies/mine/combine/side-effects/highlight request each, "
           "plus one malformed, against a checkpoint with a vocabulary in the thousands: inference only")
    QT_TEMPLATE = "In clinical trials, {drug} demonstrated <mask> <mask>."
    RANK_YEAR = 2010
    MALFORMED = ("bad-template", "bad-combine", "bad-checkpoint")

    def write_inputs(self, root: Path) -> None:
        size = gen.Size(n_docs=30 if self.tiny else 200, max_sentences=15, n_drugs=30,
                        n_effective=10, n_negative=10, n_lexicon=100 if self.tiny else 1500,
                        n_analogies=8 if self.tiny else 24, n_passages=1, passage_sentences=8)
        cfg = {"vocab_size": 600 if self.tiny else 4096, "n_layers": 2, "n_heads": 4,
               "d_model": 128, "d_ff": 512, "max_seq": 128, "batch_size": 32, "n_epochs": 1,
               "lr": 1e-3}
        self.gen = gen.write_inputs(root, self.seed, size, cfg)
        # The model trains on the first documents only; the tokenizer sees them all.
        lines = (root / "corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        (root / "train.jsonl").write_text("".join(lines[: 16 if self.tiny else 48]), encoding="utf-8")

    def setup_requests(self, root: Path) -> list[tuple[str, list[str]]]:
        """Build the checkpoint the session queries: tokenizer, then a two-step training."""
        return super().setup_requests(root) + [
            ("train", ["--config", str(root / "run.json"), "--corpus", str(root / "train.jsonl"),
                       "train", "--vocab", str(root / "vocab.json"), "--out", str(root / "model.ckpt"),
                       "--curve", str(root / "curve.csv")]),
        ]

    def _singleton_phrase(self, vocab) -> tuple[str, int]:
        """A phrase that encodes to exactly one non-special token."""
        rng = np.random.default_rng(self.seed)
        ids = [i for i in range(vocab.size) if i not in vocab.special_ids
               and len(vocab.tokens[i]) >= 3 and vocab.tokens[i].isalpha()]
        for i in rng.permutation(ids):
            text = vocab.tokens[int(i)].decode("ascii")
            if encode(vocab, text) == [int(i)]:
                return text, int(i)
        raise RuntimeError("no single-token target phrase in the vocabulary")

    def plan(self) -> None:
        """The session's requests, their arguments drawn from the seed.

        No usage data exists to weight the request types, so a session holds one
        request of each type and one malformed request, which cycles through the
        three kinds of `MALFORMED` from one session to the next.
        """
        root, g = self.root, self.gen
        self.target_phrase, self.target_id = self._singleton_phrase(load_vocab(root / "vocab.json"))
        c = ["--config", str(self.config)]
        m = ["--vocab", str(root / "vocab.json"), "--checkpoint", str(root / "model.ckpt")]
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 1]))
        pick = lambda pool: str(rng.choice(pool))  # noqa: E731
        i = int(rng.integers(len(g.drugs)))
        self.session = [
            ("rank", c + ["rank", *m, "--year", str(self.RANK_YEAR), "--out-json", "{d}/rank.json"]),
            ("qt", c + ["qt", *m, "--query", self.QT_TEMPLATE, "--drug", pick(g.effective + g.negative),
                        "--target", self.target_phrase]),
            ("analogies", c + ["analogies", *m]),
            ("mine", c + ["mine", *m, "--q-term", g.drugs[i], "--t-term", g.prots[i], "--k", "5"]),
            ("combine", c + ["combine", *m, "--drugs", f"{pick(g.effective)},{pick(g.negative)}"]),
            ("side-effects", c + ["side-effects", *m, "--drug", pick(g.effective),
                                  "--negative-target", gen.NEGATIVE_TARGET]),
            ("highlight", c + ["highlight", *m, "--passage-file", str(root / "passage0.txt"),
                               "--target-term", "efficacy", "--out-html", "{d}/passage.html"]),
        ]
        # Malformed requests: each must end in one `error type=` line and exit 1.
        self.malformed = [
            ("bad-template", c + ["qt", *m, "--query", "no placeholder here", "--target", "efficacy"]),
            ("bad-combine", c + ["combine", *m, "--drugs", pick(g.effective)]),
            ("bad-checkpoint", c + ["rank", "--vocab", str(root / "vocab.json"),
                                    "--checkpoint", str(root / "missing.ckpt"),
                                    "--year", str(self.RANK_YEAR)]),
        ]

    def prepare(self) -> None:
        root = self.root
        cfg = load_config(self.config)
        vocab = load_vocab(root / "vocab.json")
        train_docs, _ = load_corpus(root / "train.jsonl").split(cfg.seed)
        self.tokens["train"] = train_tokens(vocab, [d.text() for d in train_docs.documents],
                                                  cfg.max_seq, cfg.n_epochs)
        _, self.quality["eval_ce"] = check_curve(root / "curve.csv")

        trials = load_trials(cfg.trials, load_aliases(cfg.aliases))
        self.queries = {"rank": len(candidates_at_year(trials, self.RANK_YEAR)),
                        "analogies": len(load_analogies(cfg.analogies)),
                        "highlight": scored_sentences(root / "passage0.txt"),
                        "qt": 1, "mine": 1, "combine": 1, "side-effects": 1}

    def expect_error(self, label: str) -> bool:
        return label in self.MALFORMED

    def requests(self, index: int, d: Path) -> list[tuple[str, list[str]]]:
        order = np.random.default_rng(np.random.SeedSequence([self.seed, 2, index]))
        session = self.session + [self.malformed[index % len(self.malformed)]]
        reqs = [(label, [a.replace("{d}", str(d)) for a in argv]) for label, argv in session]
        return [reqs[i] for i in order.permutation(len(reqs))]

    def check_iteration(self, it: Iteration) -> list[str]:
        problems = super().check_iteration(it)
        if problems:
            return problems
        problems += check_ranking(it.workdir / "rank.json")
        problems += check_highlight(it.workdir / "passage.html")
        outputs = {r.label: r.out for r in it.replies}
        reference = self.reference.setdefault("outputs", {})
        for label, out in outputs.items():
            reference.setdefault(label, out)
        problems += check_same(f"session {it.index} stdout",
                               {k: reference[k] for k in outputs}, outputs)
        return problems

    def check_once(self, iterations: list[Iteration]) -> list[str]:
        """Re-score the qt reply through the library and test the decomposition; every
        set-up built the same checkpoint."""
        vocab = load_vocab(self.root / "vocab.json")
        params = M.load_checkpoint(self.root / "model.ckpt")
        non_special = TargetSpec.from_ids(vocab, [i for i in range(vocab.size)
                                                  if i not in vocab.special_ids])
        specials = sorted(vocab.special_ids)
        problems = []
        reference = sha256(self.root / "model.ckpt")
        for path in sorted(self.root.parent.glob("setup*/model.ckpt")):
            if sha256(path) != reference:
                problems.append(f"{path.parent.name}: set-up built another checkpoint than the first")
        for reply in iterations[0].replies:
            if reply.label != "qt":
                continue
            drug = reply.argv[reply.argv.index("--drug") + 1]
            query = QuerySpec.render(vocab, self.QT_TEMPLATE, drug=drug)
            out = M.forward(params, list(query.ids), collect_attention=False)
            probs = [M.softmax_position(out, t) for t in query.mask_positions]
            printed = [float(x) for x in reply.out.split("per_position=")[1].split()]
            singleton = [float(p[self.target_id]) for p in probs]
            if len(printed) != len(singleton) or any(
                    abs(a - b) > SCORE_TOL for a, b in zip(printed, singleton)):
                problems.append(f"{reply.label}: per_position {printed} != masked-token "
                                f"probability {singleton}")
            mass = qt_score(params, query, non_special).per_position
            expected = [1.0 - float(np.sum(p[specials])) for p in probs]
            if any(abs(a - b) > SCORE_TOL for a, b in zip(mass, expected)):
                problems.append(f"{reply.label}: full non-special target {mass} != "
                                f"non-special mass {expected}")
        return problems


class Fc(Workload):
    name = "fc"
    why = ("forward-chaining over several cutoffs on a dated corpus: tokenizer retraining, "
           "encoding, corpus filtering and many short trainings")

    def write_inputs(self, root: Path) -> None:
        size = gen.Size(n_docs=24 if self.tiny else 80, max_sentences=15, n_drugs=12,
                        n_effective=8, n_negative=8, n_lexicon=0, n_analogies=0, n_passages=0,
                        passage_sentences=0, years=(2005, 2012), dated=True)
        cfg = {"vocab_size": 300 if self.tiny else 400, "n_layers": 1, "n_heads": 2,
               "d_model": 64, "d_ff": 256, "max_seq": 128, "batch_size": 32, "n_epochs": 1,
               "lr": 1e-3}
        gen.write_inputs(root, self.seed, size, cfg)
        self.cutoffs = (2010, 2011) if self.tiny else (2009, 2010, 2011)

    def requests(self, index: int, d: Path) -> list[tuple[str, list[str]]]:
        years = f"{self.cutoffs[0]}:{self.cutoffs[-1]}"
        return [("fc", ["--config", str(self.config), "fc", "--years", years,
                        "--outdir", str(d / "fc")])]

    def prepare(self) -> None:
        """Per cutoff, the windows fc trains on: the tokenizer is retrained the same way."""
        cfg = load_config(self.config)
        docs = load_corpus(cfg.corpus)
        trials = load_trials(cfg.trials, load_aliases(cfg.aliases))
        tokens = queries = 0
        for cutoff in self.cutoffs:
            candidates = candidates_at_year(trials, cutoff)
            if not candidates:
                continue
            texts = [d.text() for d in filter_by_year(docs, cutoff).documents]
            tokens += train_tokens(train_bpe(texts, cfg.vocab_size), texts, cfg.max_seq, cfg.n_epochs)
            queries += len(candidates)
        self.tokens["fc"] = tokens
        self.queries["fc"] = queries

    def check_iteration(self, it: Iteration) -> list[str]:
        problems = super().check_iteration(it)
        if problems:
            return problems
        metric_problems, mrr = check_fc_metrics(it.workdir / "fc" / "fc_metrics.json")
        problems += metric_problems
        digests = tree_digest(it.workdir / "fc")
        digests["stdout"] = hashlib.sha256(it.replies[0].out.encode()).hexdigest()
        if "digests" not in self.reference:
            self.reference["digests"] = digests
            self.quality["mrr"] = mrr
        problems += check_same(f"it{it.index}", self.reference["digests"], digests)
        return problems

    def check_once(self, iterations: list[Iteration]) -> list[str]:
        """Replay the last cutoff through the library: same ranking, and its held-out CE."""
        cfg = load_config(self.config)
        docs = load_corpus(cfg.corpus)
        last = self.cutoffs[-1]
        vocab, params = train_at_cutoff(
            docs, last, vocab_size=cfg.vocab_size,
            model_dims={"n_layers": cfg.n_layers, "n_heads": cfg.n_heads, "d_model": cfg.d_model,
                        "d_ff": cfg.d_ff, "max_seq": cfg.max_seq},
            train_cfg=cfg.train_config(), base_seed=cfg.seed)
        later = [d.text() for d in docs.documents if d.publish_year and d.publish_year > last]
        self.quality["eval_ce"] = masked_ce(params, vocab, later, cfg.seed)
        trials = load_trials(cfg.trials, load_aliases(cfg.aliases))
        ranked = rank_current(params, vocab, trials, last, template=cfg.template,
                              target=TargetSpec.from_phrase(vocab, cfg.target))
        expected = [["rank", "candidate", "score"]]
        expected += [[str(r.rank), r.candidate, f"{r.score.aggregate:.6f}"] for r in ranked]
        path = iterations[0].workdir / "fc" / f"rank_{last}.csv"
        found = list(csv.reader(path.open(encoding="utf-8")))
        if found != expected:
            return [f"{path.name}: differs from the library replay of cutoff {last}"]
        return []


WORKLOADS = {w.name: w for w in (Pretrain, Mine, Fc)}
