"""Command-line front end: every pipeline stage as a subcommand.

`main` resolves the settings once: the JSON config, then every flag whose
dest is a `RunConfig` field, in one `apply_overrides` call. Commands read
settings from that config only; there is no environment configuration.
Output files contain no timestamps — the only timestamp of a run is in the
first log line — so a rerun with the same config and seed reproduces every
artifact byte for byte.

`main` is re-entrant: a process may call it once per request. It builds its
parser once per process (`build_parser` is cached) and resolves the handler
`cmd_<command>` in this module at each call, so a handler rebound after the
first call, by a tracer or a test, is the one the next call runs.
Its first call pins the process's malloc thresholds
(`util.keep_freed_memory`), so the buffers each training step frees are
reused by the next; the `event=start` line reports `malloc=pinned` or
`malloc=unavailable`.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import analogy as A
from . import fcrank as F
from . import highlight as H
from . import model as M
from . import qt as Q
from . import train as T
from .config import RunConfig, apply_overrides, load_config
from .corpus import (YEAR_MAX, YEAR_MIN, load_aliases, load_analogies, load_approvals,
                     load_corpus, load_trials)
from .errors import DataFormatError, EvalError, QtmineError
from .tokenizer import encode, load_vocab, save_vocab, train_bpe
from .util import (csv_bytes, get_logger, keep_freed_memory, kv, read_text, setup_logging,
                   write_atomic)

logger = get_logger()


def _require(value, name: str):
    if value is None:
        raise DataFormatError(f"missing required setting: {name} (flag or config)")
    return value


def _load_texts(cfg: RunConfig) -> list[str]:
    docset = load_corpus(_require(cfg.corpus, "corpus"))
    return [d.text() for d in docset.documents]


def _load_model(args) -> tuple:
    vocab = load_vocab(_require(args.vocab, "--vocab"))
    params = M.load_checkpoint(_require(args.checkpoint, "--checkpoint"))
    if params.config.vocab_size != vocab.size:
        raise DataFormatError(
            f"checkpoint vocab_size {params.config.vocab_size} != vocabulary size {vocab.size}"
        )
    return vocab, params


def _load_aliases(cfg: RunConfig):
    return load_aliases(cfg.aliases) if cfg.aliases else None


def _parse_years(spec: str) -> list[int]:
    """`lo:hi` (inclusive, lo <= hi) or a comma list as sorted cutoff years,
    each within YEAR_MIN..YEAR_MAX; the bounds are checked before a range is
    built."""
    try:
        years = [int(y) for y in (spec.split(":", 1) if ":" in spec else spec.split(","))]
    except ValueError:
        years = []
    if not years or min(years) < YEAR_MIN or max(years) > YEAR_MAX:
        raise DataFormatError(f"--years must be like 2005:2016 or 2005,2010, "
                              f"years in {YEAR_MIN}..{YEAR_MAX}, got {spec!r}")
    if ":" in spec:
        if years[1] < years[0]:
            raise DataFormatError(f"--years range {spec!r} ends before it starts")
        years = range(years[0], years[1] + 1)
    return sorted(set(years))


def _print_score(label: str, score: Q.QtScore) -> None:
    per = " ".join(f"{s:.6f}" for s in score.per_position)
    print(f"{label} aggregate={score.aggregate:.6f} per_position={per}")


def cmd_train_tokenizer(args, cfg: RunConfig) -> int:
    texts = _load_texts(cfg)
    vocab = train_bpe(texts, cfg.vocab_size)
    out = args.out or str(Path(cfg.output_dir) / "vocab.json")
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    save_vocab(vocab, out)
    logger.info(kv(event="tokenizer_saved", path=out, size=vocab.size))
    return 0


def cmd_train(args, cfg: RunConfig) -> int:
    docset = load_corpus(_require(cfg.corpus, "corpus"))
    vocab = load_vocab(_require(args.vocab, "--vocab"))
    train_docs, eval_docs = docset.split(cfg.seed)
    params = M.init_params(cfg.model_config(vocab.size), cfg.seed)
    result = T.train(
        params, vocab,
        [encode(vocab, d.text()) for d in train_docs],
        cfg.train_config(),
        seed=np.random.SeedSequence([cfg.seed]),
        eval_streams=[encode(vocab, d.text()) for d in eval_docs],
    )
    out = args.out or str(Path(cfg.checkpoint_dir) / "model.ckpt")
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    M.save_checkpoint(result.params, out)
    logger.info(kv(event="checkpoint_saved", path=out, steps=result.steps,
                   eval_ce=result.final_eval_ce))
    # Written after the checkpoint, so a curve path that cannot be written
    # does not cost the trained model.
    if args.curve:
        write_atomic(args.curve, csv_bytes(
            [["step", "loss", "eval_loss"]]
            + [[s, f"{loss:.6f}", "" if ce is None else f"{ce:.6f}"] for s, loss, ce in result.curve]))
    return 0


def cmd_perplexity(args, cfg: RunConfig) -> int:
    vocab, params = _load_model(args)
    texts = _load_texts(cfg)
    ppl = T.perplexity(params, vocab, texts, seed=cfg.seed)
    print(f"perplexity={ppl:.6f}")
    return 0


def cmd_analogies(args, cfg: RunConfig) -> int:
    vocab, params = _load_model(args)
    items = load_analogies(_require(cfg.analogies, "analogies"))
    report = A.eval_analogies(params, vocab, items)
    for row in report.categories:
        print(f"category={row.category} subcategory={row.subcategory} "
              f"n={row.n} top1={row.top1:.6f} top5={row.top5:.6f}")
    for sub, row in report.subcategories.items():
        print(f"subcategory={sub} n={row.n} top1={row.top1:.6f} top5={row.top5:.6f}")
    if args.out_csv:
        A.write_report_csv(report, args.out_csv)
    if args.out_json:
        A.write_report_json(report, args.out_json)
    return 0


def cmd_kshot(args, cfg: RunConfig) -> int:
    train_cfg = T.TrainConfig(lr=args.kshot_lr)
    vocab, params = _load_model(args)
    items = load_analogies(_require(cfg.analogies, "analogies"))
    sentences, excluded = A.sample_kshot(items, args.k, cfg.seed)
    tuned = T.kshot_finetune(params, vocab, sentences,
                             seed=np.random.SeedSequence([cfg.seed, 1]),
                             cfg=train_cfg, n_steps=args.steps)
    before = A.eval_analogies(params, vocab, items, excluded)
    after = A.eval_analogies(tuned, vocab, items, excluded)
    for sub, b in before.subcategories.items():
        a = after.subcategories[sub]
        print(f"subcategory={sub} delta_top1={a.top1 - b.top1:+.6f} "
              f"delta_top5={a.top5 - b.top5:+.6f}")
    if args.out_json:
        rows = list(zip(before.categories, after.categories))  # the same items, so rows pair up
        payload = {
            "before": A.report_summary(before),
            "after": A.report_summary(after),
            "delta_top1": {b.category: a.top1 - b.top1 for b, a in rows},
            "delta_top5": {b.category: a.top5 - b.top5 for b, a in rows},
        }
        write_atomic(args.out_json, json.dumps(payload, indent=2).encode("utf-8"))
    if args.out:
        M.save_checkpoint(tuned, args.out)
    return 0


def _score_query(args, label: str, template: str, drug: str | None, target_phrase: str) -> int:
    """The one single-query path of `qt`, `combine` and `side-effects`: load
    the model, render the template with `drug`, score it against the target
    phrase with `qt_score`, and print the score's line under `label`."""
    vocab, params = _load_model(args)
    query = Q.QuerySpec.render(vocab, template, drug=drug)
    target = Q.TargetSpec.from_phrase(vocab, target_phrase)
    _print_score(label, Q.qt_score(params, query, target))
    return 0


def cmd_qt(args, cfg: RunConfig) -> int:
    return _score_query(args, "qt", args.query, args.drug, cfg.target)


def cmd_rank(args, cfg: RunConfig) -> int:
    vocab, params = _load_model(args)
    trials = load_trials(_require(cfg.trials, "trials"), _load_aliases(cfg))
    target = Q.TargetSpec.from_phrase(vocab, cfg.target)
    ranked = F.rank_current(params, vocab, trials, args.year,
                            template=cfg.template, target=target)
    rows = F.rank_rows(ranked)
    if args.out:
        write_atomic(args.out, csv_bytes(rows))
    else:
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    if args.out_json:
        payload = [
            {"rank": item.rank, "candidate": item.candidate,
             "score": item.score.aggregate,
             "per_position": list(item.score.per_position)}
            for item in ranked
        ]
        write_atomic(args.out_json, json.dumps(payload, indent=2).encode("utf-8"))
    return 0


def cmd_fc(args, cfg: RunConfig) -> int:
    years = _parse_years(args.years)
    docset = load_corpus(_require(cfg.corpus, "corpus"))
    aliases = _load_aliases(cfg)
    trials = load_trials(_require(cfg.trials, "trials"), aliases)
    approvals = load_approvals(_require(cfg.approvals, "approvals"), aliases)
    runs, metrics = F.fc_analysis(
        docset, trials, approvals, years,
        vocab_size=cfg.vocab_size,
        model_dims=cfg.model_dims(),
        train_cfg=cfg.train_config(),
        base_seed=cfg.seed,
        template=cfg.template,
        target_phrase=cfg.target,
    )
    F.write_fc_outputs(runs, metrics, args.outdir or Path(cfg.output_dir) / "fc")
    print(f"fc years_scored={metrics.n_scored_years} "
          + " ".join(f"hits@{k}={v:.6f}" for k, v in metrics.mean_hits.items())
          + f" mrr={metrics.mean_mrr:.6f} retrained=true")
    return 0


def cmd_mine(args, cfg: RunConfig) -> int:
    vocab, params = _load_model(args)
    for token_id, text, prob in Q.permuted_analogy(params, vocab, args.q_term,
                                                   args.t_term, args.k):
        print(f"token={text!r} id={token_id} prob={prob:.6f}")
    return 0


def cmd_combine(args, cfg: RunConfig) -> int:
    """Score "a and b [and ...]" in the drug slot; the drug count is checked
    before the model loads."""
    drugs = [d.strip() for d in args.drugs.split(",") if d.strip()]
    if len(drugs) < 2:
        raise EvalError(f"combination needs at least 2 drugs, got {len(drugs)}")
    return _score_query(args, "combination " + "+".join(drugs), cfg.template,
                        " and ".join(drugs), cfg.target)


def cmd_side_effects(args, cfg: RunConfig) -> int:
    """Score a drug against an adverse-effect phrase, never merged with an efficacy target."""
    return _score_query(args, f"side-effects {args.drug}", cfg.template, args.drug,
                        args.negative_target)


def cmd_highlight(args, cfg: RunConfig) -> int:
    vocab, params = _load_model(args)
    if args.passage_file:
        passage = read_text(args.passage_file, "passage file")
    else:
        passage = _require(args.passage, "--passage")
    doc = H.highlight_passage(params, vocab, passage, args.target_term,
                              template=cfg.highlight_template)
    print(H.render_ansi(doc))
    if args.out_html:
        H.write_html(doc, args.out_html)
        logger.info(kv(event="html_saved", path=args.out_html))
    return 0


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--vocab", help="tokenizer vocabulary JSON")
    p.add_argument("--checkpoint", help="model checkpoint file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser. It holds no handler, and parsing leaves it
    unchanged, so every `main` call shares it."""
    parser = argparse.ArgumentParser(prog="qtmine",
                                     description="Literature mining with masked-LM query-target scoring.")
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--corpus", help="document corpus (JSON lines)")
    parser.add_argument("--trials", help="clinical-trials CSV")
    parser.add_argument("--aliases", help="drug alias CSV")
    parser.add_argument("--approvals", help="approvals CSV")
    parser.add_argument("--analogies", help="analogy TSV")
    parser.add_argument("--output-dir", dest="output_dir", help="default output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-tokenizer", help="train the byte-pair vocabulary")
    p.add_argument("--vocab-size", dest="vocab_size", type=int)
    p.add_argument("--out", help="output vocabulary path")

    p = sub.add_parser("train", help="train the masked language model")
    _add_model_flags(p)
    p.add_argument("--out", help="output checkpoint path")
    p.add_argument("--curve", help="loss-curve CSV path")
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--epochs", dest="n_epochs", type=int)
    p.add_argument("--max-steps", dest="max_steps", type=int)

    p = sub.add_parser("perplexity", help="masked perplexity of a corpus")
    _add_model_flags(p)

    p = sub.add_parser("analogies", help="evaluate analogy accuracy")
    _add_model_flags(p)
    p.add_argument("--out-csv", dest="out_csv")
    p.add_argument("--out-json", dest="out_json")

    p = sub.add_parser("kshot", help="few-shot fine-tune and compare analogy accuracy")
    _add_model_flags(p)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--lr", dest="kshot_lr", metavar="LR", type=float, default=1e-4)
    p.add_argument("--out", help="save the fine-tuned checkpoint here")
    p.add_argument("--out-json", dest="out_json")

    p = sub.add_parser("qt", help="score one query against a target phrase")
    _add_model_flags(p)
    p.add_argument("--query", required=True, help="template text with <mask> markers")
    p.add_argument("--drug", help="substituted into a {drug} slot if present")
    p.add_argument("--target", help="target phrase")

    p = sub.add_parser("rank", help="rank trialed drugs by query-target score")
    _add_model_flags(p)
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--template")
    p.add_argument("--target")
    p.add_argument("--out", help="CSV output path (stdout if omitted)")
    p.add_argument("--out-json", dest="out_json")

    p = sub.add_parser("fc", help="forward-chaining year-by-year validation")
    p.add_argument("--years", required=True,
                   help=f"e.g. 2005:2016 or 2005,2010, years in {YEAR_MIN}..{YEAR_MAX}")
    p.add_argument("--target")
    p.add_argument("--outdir")

    p = sub.add_parser("mine", help="mine related terms via a permuted analogy prompt")
    _add_model_flags(p)
    p.add_argument("--q-term", dest="q_term", required=True)
    p.add_argument("--t-term", dest="t_term", required=True)
    p.add_argument("--k", type=int, default=5)

    p = sub.add_parser("combine", help="score a drug combination")
    _add_model_flags(p)
    p.add_argument("--drugs", required=True, help="comma-separated drug names")
    p.add_argument("--template")
    p.add_argument("--target")

    p = sub.add_parser("side-effects", help="score a drug against an adverse-effect phrase")
    _add_model_flags(p)
    p.add_argument("--drug", required=True)
    p.add_argument("--negative-target", dest="negative_target", required=True)
    p.add_argument("--template")

    p = sub.add_parser("highlight", help="per-sentence passage highlighting")
    _add_model_flags(p)
    passage = p.add_mutually_exclusive_group()
    passage.add_argument("--passage")
    passage.add_argument("--passage-file", dest="passage_file")
    p.add_argument("--target-term", dest="target_term", required=True)
    p.add_argument("--out-html", dest="out_html")

    return parser


def main(argv=None) -> int:
    malloc = keep_freed_memory()
    setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        settings = {f.name for f in fields(RunConfig)}
        apply_overrides(cfg, **{k: v for k, v in vars(args).items() if k in settings})
        if cfg.seed < 0:
            raise DataFormatError(f"seed must be non-negative, got {cfg.seed}")
        logger.info(kv(event="start", command=args.command,
                       time=datetime.now(timezone.utc).isoformat(), seed=cfg.seed,
                       malloc=malloc))
        return globals()[f"cmd_{args.command.replace('-', '_')}"](args, cfg)
    except QtmineError as exc:
        print(f"error type={type(exc).__name__} msg={exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
