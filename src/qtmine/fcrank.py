"""Forward-chaining temporal validation of drug ranking.

For each cutoff year, a tokenizer and model are trained from scratch on only
the documents published up to that year, candidates are taken from trials
registered up to that year, and the ranking is scored against approvals that
happened strictly afterwards. Nothing dated after the cutoff can influence a
run: undated documents are excluded, and the per-cutoff seed is derived from
(base_seed, cutoff) so reruns are bit-identical. `fc_analysis` returns the runs
and their metrics; `write_fc_outputs` writes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import model as M
from . import train as T
from .corpus import ApprovalRecord, DocumentSet, TrialRecord, candidates_at_year, filter_by_year
from .errors import EvalError
from .qt import (DEFAULT_RANK_TEMPLATE, DEFAULT_TARGET_PHRASE, DRUG_SLOT, RankedItem, TargetSpec,
                 check_slot, rank_by_qt)
from .tokenizer import Vocab, train_and_encode
from .util import csv_bytes, get_logger, kv, write_atomic, write_json

logger = get_logger()

HIT_KS = (1, 3, 5)


@dataclass(frozen=True)
class FcRun:
    cutoff_year: int
    candidates: tuple[str, ...]
    ranked: tuple[RankedItem, ...]
    approvals_after: tuple[tuple[str, int], ...]  # (drug, approval_year), year > cutoff


@dataclass(frozen=True)
class YearMetrics:
    cutoff_year: int
    n_candidates: int
    n_approved: int
    hits: Mapping[int, float]  # k -> 0/1 for this run
    mrr: float


@dataclass(frozen=True)
class FcMetrics:
    per_year: tuple[YearMetrics, ...]
    mean_hits: Mapping[int, float]
    mean_mrr: float


def _run_metrics(run: FcRun) -> YearMetrics:
    """Binary hits@k and MRR over approved drugs present among the candidates."""
    approved = {drug for drug, _ in run.approvals_after}
    present = [item for item in run.ranked if item.candidate in approved]
    hits = {k: (1.0 if any(i.rank <= k for i in present) else 0.0) for k in HIT_KS}
    mrr = float(np.mean([1.0 / i.rank for i in present])) if present else 0.0
    return YearMetrics(cutoff_year=run.cutoff_year, n_candidates=len(run.candidates),
                       n_approved=len(present), hits=hits, mrr=mrr)


def score_runs(runs: Sequence[FcRun]) -> FcMetrics:
    """Aggregate run metrics; zero-candidate runs are excluded from averages."""
    rows = [_run_metrics(run) for run in runs if run.candidates]
    if rows:
        mean_hits = {k: float(np.mean([r.hits[k] for r in rows])) for k in HIT_KS}
        mean_mrr = float(np.mean([r.mrr for r in rows]))
    else:
        mean_hits = {k: 0.0 for k in HIT_KS}
        mean_mrr = 0.0
    return FcMetrics(per_year=tuple(rows), mean_hits=mean_hits, mean_mrr=mean_mrr)


def train_at_cutoff(
    docs: DocumentSet,
    cutoff: int,
    *,
    vocab_size: int,
    model_dims: Mapping[str, int],
    train_cfg: T.TrainConfig,
    base_seed: int,
) -> tuple[Vocab, M.Params]:
    """Train tokenizer and model from scratch on documents dated <= cutoff.

    The model trains on the token streams BPE training ends with, so each
    cutoff's texts are tokenized once."""
    visible = filter_by_year(docs, cutoff)
    if not len(visible):
        raise EvalError(f"no dated documents at or before {cutoff}")
    texts = [d.text() for d in visible.documents]
    vocab, streams = train_and_encode(texts, vocab_size)
    seed_init, seed_train = np.random.SeedSequence([base_seed, cutoff]).spawn(2)
    config = M.ModelConfig(vocab_size=vocab.size, **model_dims)
    params = M.init_params(config, seed_init)
    T.train(params, vocab, streams, train_cfg, seed_train)
    return vocab, params


def rank_current(params: M.Params, vocab: Vocab, trials: Sequence[TrialRecord], year: int,
                 *, template: str = DEFAULT_RANK_TEMPLATE,
                 target: TargetSpec) -> list[RankedItem]:
    """Rank every drug trialed up to `year` with the given model."""
    return rank_by_qt(params, vocab, candidates_at_year(trials, year),
                      template=template, target=target)


def fc_analysis(
    docs: DocumentSet,
    trials: Sequence[TrialRecord],
    approvals: Sequence[ApprovalRecord],
    years: Sequence[int],
    *,
    vocab_size: int,
    model_dims: Mapping[str, int],
    train_cfg: T.TrainConfig,
    base_seed: int,
    template: str = DEFAULT_RANK_TEMPLATE,
    target_phrase: str = DEFAULT_TARGET_PHRASE,
) -> tuple[list[FcRun], FcMetrics]:
    """Run the year-by-year analysis, training one model per scored cutoff, and
    return the runs with their aggregate metrics; it writes no file."""
    if list(years) != sorted(set(years)):
        raise EvalError("cutoff years must be strictly ascending")
    if not years:
        raise EvalError("no cutoff years given")
    if not target_phrase:
        raise EvalError("target phrase is empty")  # no vocabulary gives it a token
    check_slot(template, DRUG_SLOT, True)

    runs: list[FcRun] = []
    for cutoff in years:
        candidates = candidates_at_year(trials, cutoff)
        after = tuple(sorted((a.drug, a.approval_year) for a in approvals
                             if a.approval_year > cutoff))
        if not candidates:
            logger.warning(kv(event="fc_no_candidates", cutoff=cutoff))
            runs.append(FcRun(cutoff_year=cutoff, candidates=(), ranked=(),
                              approvals_after=after))
            continue
        vocab, params = train_at_cutoff(docs, cutoff, vocab_size=vocab_size,
                                        model_dims=model_dims, train_cfg=train_cfg,
                                        base_seed=base_seed)
        target = TargetSpec.from_phrase(vocab, target_phrase)
        ranked = rank_by_qt(params, vocab, candidates, template=template, target=target)
        runs.append(FcRun(cutoff_year=cutoff, candidates=tuple(candidates),
                          ranked=tuple(ranked), approvals_after=after))
        logger.info(kv(event="fc_run", cutoff=cutoff, candidates=len(candidates),
                       top=ranked[0].candidate if ranked else ""))

    return runs, score_runs(runs)


def rank_rows(ranked: Sequence[RankedItem]) -> list[list]:
    """A ranking as rank-CSV rows: the `rank,candidate,score` header, then one
    row per item with its score at six decimals."""
    return [["rank", "candidate", "score"]] + [
        [item.rank, item.candidate, f"{item.score.aggregate:.6f}"] for item in ranked]


def write_fc_outputs(runs: Sequence[FcRun], metrics: FcMetrics, outdir: str | Path) -> None:
    """One rank_<year>.csv per cutoff, fc_metrics.json, and a plot-data CSV, each
    written atomically."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for run in runs:
        write_atomic(outdir / f"rank_{run.cutoff_year}.csv", csv_bytes(rank_rows(run.ranked)))

    plot = [["year", "candidate", "score", "approved_later"]]
    for run in runs:
        approved = {drug for drug, _ in run.approvals_after}
        plot += [[run.cutoff_year, item.candidate, f"{item.score.aggregate:.6f}",
                  str(item.candidate in approved).lower()] for item in run.ranked]
    write_atomic(outdir / "fc_plot.csv", csv_bytes(plot))

    payload = {
        "retrained": True,  # every cutoff trains its own model; kept for older readers
        "n_scored_years": len(metrics.per_year),
        "mean_hits": {f"hits@{k}": v for k, v in metrics.mean_hits.items()},
        "mean_mrr": metrics.mean_mrr,
        "per_year": [
            {"cutoff_year": r.cutoff_year, "n_candidates": r.n_candidates,
             "n_approved": r.n_approved,
             **{f"hits@{k}": v for k, v in r.hits.items()}, "mrr": r.mrr}
            for r in metrics.per_year
        ],
    }
    write_json(outdir / "fc_metrics.json", payload)
