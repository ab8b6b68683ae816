"""Command-line front end: every pipeline stage as a subcommand.

Flags override the JSON config; there is no environment configuration.
Output files contain no timestamps — the only timestamp of a run is in the
first log line — so a rerun with the same config and seed reproduces every
artifact byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
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
from .corpus import (DocumentSet, load_aliases, load_analogies, load_approvals,
                     load_corpus, load_trials)
from .errors import DataFormatError, QtmineError
from .tokenizer import load_vocab, save_vocab, train_bpe
from .util import csv_bytes, get_logger, kv, read_text, setup_logging, write_atomic

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


def _load_trials(cfg: RunConfig):
    aliases = load_aliases(cfg.aliases) if cfg.aliases else None
    return load_trials(_require(cfg.trials, "trials"), aliases)


def _parse_years(spec: str) -> list[int]:
    try:
        if ":" in spec:
            lo, hi = spec.split(":", 1)
            return list(range(int(lo), int(hi) + 1))
        return sorted({int(y) for y in spec.split(",")})
    except ValueError:
        raise DataFormatError(f"--years must be like 2005:2016 or 2005,2010, got {spec!r}") from None


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
        [d.text() for d in train_docs],
        cfg.train_config(),
        seed=np.random.SeedSequence([cfg.seed]),
        eval_texts=[d.text() for d in eval_docs],
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
    train_cfg = T.TrainConfig(lr=args.lr)
    vocab, params = _load_model(args)
    items = load_analogies(_require(cfg.analogies, "analogies"))
    sentences, excluded = A.sample_kshot(items, args.k, cfg.seed)
    tuned = T.kshot_finetune(params, vocab, sentences,
                             seed=np.random.SeedSequence([cfg.seed, 1]),
                             cfg=train_cfg, n_steps=args.steps)
    comparison = A.compare_kshot(params, tuned, vocab, items, excluded)
    for sub in sorted(comparison.subcategory_delta_top1):
        print(f"subcategory={sub} "
              f"delta_top1={comparison.subcategory_delta_top1[sub]:+.6f} "
              f"delta_top5={comparison.subcategory_delta_top5[sub]:+.6f}")
    if args.out_json:
        payload = {
            "before": A.report_summary(comparison.before),
            "after": A.report_summary(comparison.after),
            "delta_top1": dict(comparison.delta_top1),
            "delta_top5": dict(comparison.delta_top5),
        }
        write_atomic(args.out_json, json.dumps(payload, indent=2).encode("utf-8"))
    if args.out:
        M.save_checkpoint(tuned, args.out)
    return 0


def cmd_qt(args, cfg: RunConfig) -> int:
    vocab, params = _load_model(args)
    query = Q.QuerySpec.render(vocab, args.query, drug=args.drug)
    target = Q.TargetSpec.from_phrase(vocab, args.target or cfg.target)
    score = Q.qt_score(params, query, target, agg=args.agg, mode=args.mode)
    _print_score("qt", score)
    return 0


def cmd_rank(args, cfg: RunConfig) -> int:
    vocab, params = _load_model(args)
    trials = _load_trials(cfg)
    target = Q.TargetSpec.from_phrase(vocab, args.target or cfg.target)
    ranked = F.rank_current(params, vocab, trials, args.year,
                            template=args.template or cfg.template, target=target)
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
    docset = load_corpus(_require(cfg.corpus, "corpus"))
    trials = _load_trials(cfg)
    approvals = load_approvals(_require(cfg.approvals, "approvals"),
                               load_aliases(cfg.aliases) if cfg.aliases else None)
    years = _parse_years(args.years)
    outdir = args.outdir or str(Path(cfg.output_dir) / "fc")
    _, metrics = F.fc_analysis(
        docset, trials, approvals, years,
        vocab_size=cfg.vocab_size,
        model_dims={"n_layers": cfg.n_layers, "n_heads": cfg.n_heads,
                    "d_model": cfg.d_model, "d_ff": cfg.d_ff, "max_seq": cfg.max_seq},
        train_cfg=cfg.train_config(),
        base_seed=cfg.seed,
        template=cfg.template,
        target_phrase=args.target or cfg.target,
        retrain=not args.no_retrain,
        outdir=outdir,
    )
    print(f"fc years_scored={metrics.n_scored_years} "
          + " ".join(f"hits@{k}={v:.6f}" for k, v in metrics.mean_hits.items())
          + f" mrr={metrics.mean_mrr:.6f} retrained={str(metrics.retrained).lower()}")
    return 0


def cmd_mine(args, cfg: RunConfig) -> int:
    vocab, params = _load_model(args)
    for token_id, text, prob in Q.permuted_analogy(params, vocab, args.q_term,
                                                   args.t_term, args.k):
        print(f"token={text!r} id={token_id} prob={prob:.6f}")
    return 0


def cmd_combine(args, cfg: RunConfig) -> int:
    vocab, params = _load_model(args)
    drugs = [d.strip() for d in args.drugs.split(",") if d.strip()]
    target = Q.TargetSpec.from_phrase(vocab, args.target or cfg.target)
    score = Q.combination_score(params, vocab, drugs,
                                template=args.template or cfg.template, target=target)
    _print_score("combination " + "+".join(drugs), score)
    return 0


def cmd_side_effects(args, cfg: RunConfig) -> int:
    vocab, params = _load_model(args)
    target = Q.TargetSpec.from_phrase(vocab, args.negative_target)
    score = Q.side_effect_score(params, vocab, args.drug, target,
                                template=args.template or cfg.template)
    _print_score(f"side-effects {args.drug}", score)
    return 0


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


def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=cmd_train_tokenizer)

    p = sub.add_parser("train", help="train the masked language model")
    _add_model_flags(p)
    p.add_argument("--out", help="output checkpoint path")
    p.add_argument("--curve", help="loss-curve CSV path")
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--epochs", dest="n_epochs", type=int)
    p.add_argument("--max-steps", dest="max_steps", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("perplexity", help="masked perplexity of a corpus")
    _add_model_flags(p)
    p.set_defaults(func=cmd_perplexity)

    p = sub.add_parser("analogies", help="evaluate analogy accuracy")
    _add_model_flags(p)
    p.add_argument("--out-csv", dest="out_csv")
    p.add_argument("--out-json", dest="out_json")
    p.set_defaults(func=cmd_analogies)

    p = sub.add_parser("kshot", help="few-shot fine-tune and compare analogy accuracy")
    _add_model_flags(p)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--out", help="save the fine-tuned checkpoint here")
    p.add_argument("--out-json", dest="out_json")
    p.set_defaults(func=cmd_kshot)

    p = sub.add_parser("qt", help="score one query against a target phrase")
    _add_model_flags(p)
    p.add_argument("--query", required=True, help="template text with <mask> markers")
    p.add_argument("--drug", help="substituted into a {drug} slot if present")
    p.add_argument("--target", help="target phrase")
    p.add_argument("--agg", choices=("mean", "geomean"), default="mean")
    p.add_argument("--mode", choices=("mass", "conditional"), default="mass")
    p.set_defaults(func=cmd_qt)

    p = sub.add_parser("rank", help="rank trialed drugs by query-target score")
    _add_model_flags(p)
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--template")
    p.add_argument("--target")
    p.add_argument("--out", help="CSV output path (stdout if omitted)")
    p.add_argument("--out-json", dest="out_json")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("fc", help="forward-chaining year-by-year validation")
    p.add_argument("--years", required=True, help="e.g. 2005:2016 or 2005,2010")
    p.add_argument("--target")
    p.add_argument("--outdir")
    p.add_argument("--no-retrain", dest="no_retrain", action="store_true",
                   help="reuse one full-corpus model instead of retraining per cutoff")
    p.set_defaults(func=cmd_fc)

    p = sub.add_parser("mine", help="mine related terms via a permuted analogy prompt")
    _add_model_flags(p)
    p.add_argument("--q-term", dest="q_term", required=True)
    p.add_argument("--t-term", dest="t_term", required=True)
    p.add_argument("--k", type=int, default=5)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("combine", help="score a drug combination")
    _add_model_flags(p)
    p.add_argument("--drugs", required=True, help="comma-separated drug names")
    p.add_argument("--template")
    p.add_argument("--target")
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("side-effects", help="score a drug against an adverse-effect phrase")
    _add_model_flags(p)
    p.add_argument("--drug", required=True)
    p.add_argument("--negative-target", dest="negative_target", required=True)
    p.add_argument("--template")
    p.set_defaults(func=cmd_side_effects)

    p = sub.add_parser("highlight", help="per-sentence passage highlighting")
    _add_model_flags(p)
    p.add_argument("--passage")
    p.add_argument("--passage-file", dest="passage_file")
    p.add_argument("--target-term", dest="target_term", required=True)
    p.add_argument("--out-html", dest="out_html")
    p.set_defaults(func=cmd_highlight)

    return parser


def main(argv=None) -> int:
    setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        apply_overrides(cfg, seed=args.seed, corpus=args.corpus, trials=args.trials,
                        aliases=args.aliases, approvals=args.approvals,
                        analogies=args.analogies, output_dir=args.output_dir)
        for name in ("vocab_size", "lr", "batch_size", "n_epochs", "max_steps"):
            if hasattr(args, name):
                apply_overrides(cfg, **{name: getattr(args, name)})
        if cfg.seed < 0:
            raise DataFormatError(f"seed must be non-negative, got {cfg.seed}")
        logger.info(kv(event="start", command=args.command,
                       time=datetime.now(timezone.utc).isoformat(), seed=cfg.seed))
        return args.func(args, cfg)
    except QtmineError as exc:
        print(f"error type={type(exc).__name__} msg={exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
