"""Command-line interface tests: config handling, helpers, and an
end-to-end run of every subcommand against a tiny trained model."""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import io
import json
import logging
import os
import platform
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest

import synth
from qtmine.cli import _parse_years, build_parser, main
from qtmine.config import RunConfig, apply_overrides, load_config
from qtmine.errors import DataFormatError, OutputError, QtmineError
from qtmine.highlight import parse_html_scores
from qtmine.model import load_checkpoint, save_checkpoint
from qtmine.qt import DEFAULT_RANK_TEMPLATE
from qtmine.tokenizer import load_vocab
from qtmine.util import (get_logger, keep_freed_memory, kv, max_workers, pmap, setup_logging,
                         write_atomic)

ANSI_RE = re.compile(r"\x1b\[[0-9;]*m")


# ---------------------------------------------------------------------------
# year-spec parsing


def test_parse_years_colon_range_is_inclusive():
    assert _parse_years("2005:2008") == [2005, 2006, 2007, 2008]


def test_parse_years_comma_list_sorts_and_dedups():
    assert _parse_years("2010,2005,2010") == [2005, 2010]
    assert _parse_years("1999") == [1999]


@pytest.mark.parametrize("spec", ["abc", "2005:x", "2005,,2010", "", "1800:1801", "2150",
                                  "0:2000000000", "2011:2009"])
def test_parse_years_rejects_non_years(spec):
    with pytest.raises(DataFormatError, match="--years"):
        _parse_years(spec)


# ---------------------------------------------------------------------------
# run configuration


def test_load_config_none_gives_defaults():
    cfg = load_config(None)
    assert cfg == RunConfig()
    assert cfg.vocab_size == 8192
    assert cfg.n_layers == 2
    assert cfg.seed == 0
    assert "{drug}" in cfg.template
    assert "{sentence}" in cfg.highlight_template


def test_load_config_applies_only_present_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"d_model": 32, "corpus": "docs.jsonl"}),
                    encoding="utf-8")
    cfg = load_config(path)
    assert cfg.d_model == 32
    assert cfg.corpus == "docs.jsonl"
    assert cfg.n_layers == RunConfig().n_layers
    assert cfg.lr == RunConfig().lr


def test_load_config_missing_file_raises(tmp_path):
    with pytest.raises(DataFormatError):
        load_config(tmp_path / "nope.json")


def test_load_config_invalid_json_raises(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_config(path)


def test_load_config_nested_too_deeply_raises(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    with pytest.raises(DataFormatError, match="not valid JSON"):
        load_config(path)


def test_load_config_non_object_raises(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2, 3]", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_config(path)


def test_load_config_unknown_key_raises(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"d_modle": 4}), encoding="utf-8")
    with pytest.raises(DataFormatError, match="d_modle"):
        load_config(path)


@pytest.mark.parametrize("key,value", [
    ("n_layers", "2"), ("n_layers", 2.0), ("n_layers", True), ("n_layers", None),
    ("seed", "abc"), ("max_steps", 1.5), ("lr", "0.1"), ("lr", False), ("lr", None),
    ("corpus", 3), ("template", None), ("checkpoint_dir", ["a"]),
])
def test_load_config_rejects_values_of_the_wrong_type(tmp_path, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value}), encoding="utf-8")
    with pytest.raises(DataFormatError, match=key):
        load_config(path)


def test_load_config_accepts_each_field_type(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lr": 1, "warmup_frac": 0, "max_steps": None,
                                "corpus": None, "seed": 7, "max_seq": 64}), encoding="utf-8")
    cfg = load_config(path)
    assert cfg.lr == 1.0 and isinstance(cfg.lr, float)
    assert cfg.warmup_frac == 0.0 and isinstance(cfg.warmup_frac, float)
    assert cfg.max_steps is None and cfg.corpus is None
    assert (cfg.seed, cfg.max_seq) == (7, 64)


def test_load_config_rejects_a_directory(tmp_path):
    with pytest.raises(DataFormatError, match="cannot read"):
        load_config(tmp_path)


def test_apply_overrides_skips_none_and_sets_values():
    cfg = RunConfig()
    out = apply_overrides(cfg, seed=None, d_model=9, corpus="c.jsonl")
    assert out is cfg
    assert cfg.seed == 0
    assert cfg.d_model == 9
    assert cfg.corpus == "c.jsonl"


def test_apply_overrides_unknown_field_raises():
    with pytest.raises(DataFormatError, match="unknown config field"):
        apply_overrides(RunConfig(), not_a_field=1)


def test_run_config_materializes_model_and_train_configs():
    cfg = RunConfig(n_layers=3, n_heads=2, d_model=24, d_ff=48, max_seq=40,
                    lr=0.5, batch_size=4, n_epochs=7, max_steps=11,
                    warmup_frac=0.25)
    mc = cfg.model_config(123)
    assert (mc.n_layers, mc.n_heads, mc.d_model, mc.d_ff) == (3, 2, 24, 48)
    assert mc.max_seq == 40
    assert mc.vocab_size == 123
    tc = cfg.train_config()
    assert (tc.lr, tc.batch_size, tc.n_epochs) == (0.5, 4, 7)
    assert tc.max_steps == 11
    assert tc.warmup_frac == 0.25


# ---------------------------------------------------------------------------
# shared helpers


def test_kv_formats_floats_at_six_significant_digits():
    assert kv(a=1, b="x", c=0.123456789) == "a=1 b=x c=0.123457"
    assert kv(loss=2.0) == "loss=2"
    assert kv() == ""


def test_max_workers_reads_environment(monkeypatch):
    monkeypatch.setenv("QTMINE_THREADS", "3")
    assert max_workers() == 3
    monkeypatch.setenv("QTMINE_THREADS", "0")
    with pytest.raises(QtmineError):
        max_workers()
    monkeypatch.setenv("QTMINE_THREADS", "abc")
    with pytest.raises(QtmineError):
        max_workers()
    monkeypatch.delenv("QTMINE_THREADS")
    assert max_workers() >= 1


def test_pmap_preserves_input_order(monkeypatch):
    monkeypatch.setenv("QTMINE_THREADS", "4")
    items = list(range(20))
    assert pmap(lambda x: x * x, items) == [x * x for x in items]
    assert pmap(str, []) == []
    monkeypatch.setenv("QTMINE_THREADS", "1")
    assert pmap(lambda x: x + 1, items) == [x + 1 for x in items]


def test_write_atomic_replaces_the_whole_file_or_nothing(tmp_path, monkeypatch):
    path = tmp_path / "out.bin"
    write_atomic(path, b"first")
    write_atomic(path, b"second, longer")
    assert path.read_bytes() == b"second, longer"

    def failing_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        write_atomic(path, b"third")
    with pytest.raises(TypeError):
        write_atomic(tmp_path / "new.bin", "not bytes")
    assert path.read_bytes() == b"second, longer"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_failed_write_is_an_output_error_naming_the_path(tmp_path):
    (tmp_path / "a-file").write_bytes(b"")
    for path in (tmp_path / "missing" / "out.json", tmp_path / "a-file" / "out.json"):
        with pytest.raises(OutputError, match=re.escape(str(path))):
            write_atomic(path, b"{}")
    assert [p.name for p in tmp_path.iterdir()] == ["a-file"]


def test_log_lines_reach_the_current_stderr_after_the_old_one_closes(capsys):
    # In-process callers swap standard error and close the old stream; the
    # handler must not keep writing to the closed one.
    with redirect_stderr(io.StringIO()) as old:
        setup_logging()
    old.close()
    get_logger().info(kv(event="after_close"))
    err = capsys.readouterr().err
    assert "Logging error" not in err
    assert "INFO event=after_close" in err
    logging.getLogger("qtmine").handlers.clear()


# ---------------------------------------------------------------------------
# parser wiring


def test_build_parser_routes_subcommands():
    parser = build_parser()
    args = parser.parse_args(["--config", "c.json", "qt",
                              "--query", "x <mask>", "--vocab", "v",
                              "--checkpoint", "m"])
    assert args.command == "qt"
    assert args.query == "x <mask>"

    args = parser.parse_args(["kshot", "--k", "2", "--steps", "9"])
    assert (args.k, args.steps) == (2, 9)


@pytest.mark.parametrize("flag", [("--agg", "geomean"), ("--mode", "conditional")])
def test_qt_has_one_scoring_rule_and_no_flag_for_another(flag, capsys):
    """`qt` scores the mean target mass only: a scoring-rule flag is a usage
    error, not a traceback."""
    with pytest.raises(SystemExit) as exc:
        main(["qt", "--query", "x <mask>", "--vocab", "v", "--checkpoint", "m", *flag])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(flag)}" in err
    assert "Traceback" not in err


def _setting_flag_cases():
    """One case per parser option whose dest is a RunConfig field: the
    subcommand, an argv that sets the option to a non-default value (a global
    option before `perplexity`) plus the subcommand's required options, the
    dest, and the value the config should then hold. Strings are set to ""
    on purpose: an empty flag is a value, not "unset"."""
    parser = build_parser()
    settings = {f.name for f in dataclasses.fields(RunConfig)}
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))

    def case(command, action, is_global):
        flag = action.option_strings[0]
        value = {int: "7", float: "0.5", None: ""}[action.type]
        required = [arg for a in sub.choices[command]._actions if a.required
                    for arg in (a.option_strings[0], "1" if a.type is int else "x")]
        argv = ([flag, value, command] if is_global else [command, flag, value]) + required
        return pytest.param(command, argv, action.dest, (action.type or str)(value),
                            id=flag if is_global else f"{command} {flag}")

    cases = [case("perplexity", a, True) for a in parser._actions if a.dest in settings]
    for command, p in sub.choices.items():
        cases += [case(command, a, False) for a in p._actions if a.dest in settings]
    return cases


@pytest.mark.parametrize("command,argv,dest,want", _setting_flag_cases())
def test_every_setting_flag_reaches_the_config(monkeypatch, command, argv, dest, want):
    seen = []

    def capture(args, cfg):
        seen.append(cfg)
        return 0

    monkeypatch.setattr(f"qtmine.cli.cmd_{command.replace('-', '_')}", capture)
    assert main(argv) == 0
    assert want != getattr(RunConfig(), dest)
    assert getattr(seen[0], dest) == want


@pytest.mark.parametrize("flags,kshot_lr", [([], 1e-4), (["--lr", "0.25"], 0.25)])
def test_kshot_lr_leaves_the_config_lr(monkeypatch, tmp_path, flags, kshot_lr):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lr": 0.003}), encoding="utf-8")
    seen = []
    monkeypatch.setattr("qtmine.cli.cmd_kshot", lambda args, cfg: seen.append((args, cfg)) or 0)
    assert main(["--config", str(config), "kshot", "--vocab", "v", "--checkpoint", "c",
                 *flags]) == 0
    args, cfg = seen[0]
    assert (args.kshot_lr, cfg.lr) == (kshot_lr, 0.003)


def _capture_perplexity(monkeypatch, seen: list):
    """Rebind `cmd_perplexity` to a handler that records its config and
    returns 0; the calls below need no model."""
    def capture(args, cfg):
        seen.append(cfg)
        return 0

    monkeypatch.setattr("qtmine.cli.cmd_perplexity", capture)


def test_main_builds_its_parser_once_per_process(monkeypatch):
    _capture_perplexity(monkeypatch, [])
    build_parser.cache_clear()
    assert main(["perplexity"]) == 0
    assert main(["perplexity"]) == 0
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert build_parser() is build_parser()


def test_a_handler_rebound_after_the_first_call_is_the_one_run(monkeypatch):
    first, second = [], []
    build_parser.cache_clear()
    _capture_perplexity(monkeypatch, first)
    assert main(["perplexity"]) == 0
    _capture_perplexity(monkeypatch, second)
    assert main(["perplexity"]) == 0
    assert (len(first), len(second)) == (1, 1)


def test_a_flag_does_not_reach_a_later_call_that_omits_it(monkeypatch):
    seen = []
    _capture_perplexity(monkeypatch, seen)
    assert main(["--seed", "7", "perplexity"]) == 0
    assert main(["perplexity"]) == 0
    assert seen[0].seed == 7
    assert seen[1].seed == RunConfig().seed != 7


def test_a_usage_error_leaves_the_next_call_working(monkeypatch, capsys):
    seen = []
    _capture_perplexity(monkeypatch, seen)
    with pytest.raises(SystemExit) as exc:
        main(["qt"])  # --query is required
    assert exc.value.code == 2
    assert "--query" in capsys.readouterr().err
    assert main(["perplexity"]) == 0
    assert len(seen) == 1


# ---------------------------------------------------------------------------
# end-to-end workspace: tiny corpus, trained vocab + checkpoint


ANALOGY_ROWS = [
    ("opposites", "grammar", "hot", "cold", "wet", "dry"),
    ("opposites", "grammar", "up", "down", "fast", "slow"),
    ("past-tense", "grammar", "walk", "walked", "show", "showed"),
    ("past-tense", "grammar", "treat", "treated", "test", "tested"),
    ("drug-inhibition", "antiviral", "tamivir", "havin", "zanavir", "solin"),
    ("drug-inhibition", "antiviral", "gemavir", "pexin", "ocrevir", "durin"),
]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with data files, a config, a trained vocab and checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.jsonl"
    synth.write_fc_corpus(corpus)
    trials = root / "trials.csv"
    trials.write_text(
        "trial_id,year,drugs,condition\n"
        "T1,2001,tamivir,influenza\n"
        "T2,2001,gemavir,influenza\n"
        "T3,2002,zanavir;ocrevir,influenza\n",
        encoding="utf-8")
    approvals = root / "approvals.csv"
    approvals.write_text("drug,approval_year\ntamivir,2003\nzanavir,2004\n",
                         encoding="utf-8")
    analogies = root / "analogies.tsv"
    analogies.write_text(
        "".join("\t".join(row) + "\n" for row in ANALOGY_ROWS),
        encoding="utf-8")
    config = root / "config.json"
    config.write_text(json.dumps({
        "corpus": str(corpus),
        "trials": str(trials),
        "approvals": str(approvals),
        "analogies": str(analogies),
        "checkpoint_dir": str(root / "ckpt"),
        "output_dir": str(root / "out"),
        "n_layers": 1, "n_heads": 2, "d_model": 16, "d_ff": 32,
        "max_seq": 48, "vocab_size": 300,
        "lr": 1e-3, "batch_size": 8, "n_epochs": 1, "seed": 1,
    }), encoding="utf-8")

    vocab_path = root / "vocab.json"
    rc = main(["--config", str(config), "train-tokenizer",
               "--out", str(vocab_path)])
    assert rc == 0
    ckpt = root / "model.ckpt"
    curve = root / "curve.csv"
    rc = main(["--config", str(config), "train", "--vocab", str(vocab_path),
               "--out", str(ckpt), "--curve", str(curve),
               "--max-steps", "12"])
    assert rc == 0
    return {"root": root, "config": str(config), "corpus": str(corpus),
            "vocab": str(vocab_path), "ckpt": str(ckpt), "curve": str(curve)}


def model_args(ws) -> list[str]:
    return ["--vocab", ws["vocab"], "--checkpoint", ws["ckpt"]]


def test_train_artifacts(ws):
    vocab = load_vocab(ws["vocab"])
    assert vocab.size == 300
    params = load_checkpoint(ws["ckpt"])
    assert params.config.vocab_size == 300
    assert params.config.n_layers == 1
    assert params.config.d_model == 16
    assert Path(ws["ckpt"] + ".json").exists()
    with open(ws["curve"], newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "loss", "eval_loss"]
    steps = [int(r[0]) for r in rows[1:]]
    assert 1 <= len(steps) <= 12
    assert steps == list(range(1, len(steps) + 1))
    for row in rows[1:]:
        float(row[1])


def test_qt_command_prints_scores(ws, capsys):
    rc = main(["--config", ws["config"], "qt", *model_args(ws),
               "--query", "the drug produced <mask> <mask>."])
    assert rc == 0
    out = capsys.readouterr().out
    match = re.search(r"^qt aggregate=(\d\.\d{6}) per_position=((?:\d\.\d{6} ?)+)$",
                      out, re.M)
    assert match is not None
    aggregate = float(match.group(1))
    per = [float(p) for p in match.group(2).split()]
    assert 0.0 <= aggregate <= 1.0
    assert len(per) == 2
    assert aggregate == pytest.approx(sum(per) / len(per), abs=1e-6)


def test_qt_command_substitutes_drug_slot(ws, capsys):
    rc = main(["--config", ws["config"], "qt", *model_args(ws),
               "--query", "in trials, {drug} demonstrated <mask>.",
               "--drug", "tamivir", "--target", "efficacy"])
    assert rc == 0
    assert "qt aggregate=" in capsys.readouterr().out


def test_qt_requires_vocab(ws, capsys):
    rc = main(["--config", ws["config"], "qt",
               "--checkpoint", ws["ckpt"], "--query", "x <mask>"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error type=DataFormatError" in err
    assert "--vocab" in err


def test_checkpoint_vocab_size_mismatch_fails(ws, tmp_path, capsys):
    other = tmp_path / "small.json"
    rc = main(["--config", ws["config"], "train-tokenizer",
               "--vocab-size", "280", "--out", str(other)])
    assert rc == 0
    assert load_vocab(other).size == 280
    rc = main(["--config", ws["config"], "qt", "--vocab", str(other),
               "--checkpoint", ws["ckpt"], "--query", "x <mask>"])
    assert rc == 1
    assert "vocab_size" in capsys.readouterr().err


def test_rank_command_writes_csv_and_json(ws, tmp_path):
    out_csv = tmp_path / "rank.csv"
    out_json = tmp_path / "rank.json"
    rc = main(["--config", ws["config"], "rank", *model_args(ws),
               "--year", "2002", "--out", str(out_csv),
               "--out-json", str(out_json)])
    assert rc == 0
    with open(out_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rank", "candidate", "score"]
    body = rows[1:]
    assert [r[1] for r in body] != []
    assert sorted(r[1] for r in body) == ["gemavir", "ocrevir", "tamivir", "zanavir"]
    assert [int(r[0]) for r in body] == list(range(1, len(body) + 1))
    scores = [float(r[2]) for r in body]
    assert scores == sorted(scores, reverse=True)
    payload = json.loads(out_json.read_text(encoding="utf-8"))
    assert [p["candidate"] for p in payload] == [r[1] for r in body]
    for p, r in zip(payload, body):
        assert f"{p['score']:.6f}" == r[2]
        assert p["per_position"]


def test_rank_command_prints_csv_without_out(ws, capsys):
    rc = main(["--config", ws["config"], "rank", *model_args(ws),
               "--year", "2001"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rank,candidate,score" in out
    assert "tamivir" in out and "gemavir" in out
    assert "zanavir" not in out  # first trialed in 2002


def test_rank_stdout_is_the_csv_of_the_out_file(ws, tmp_path, capsys):
    trials = tmp_path / "trials.csv"
    trials.write_text('trial_id,year,drugs,condition\n'
                      'T1,2001,"tamivir, extended",flu\nT2,2001,gemavir,flu\n', encoding="utf-8")
    args = ["--config", ws["config"], "--trials", str(trials), "rank", *model_args(ws), "--year", "2001"]
    assert main(args) == 0
    printed = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert main([*args, "--out", str(tmp_path / "rank.csv")]) == 0
    with open(tmp_path / "rank.csv", newline="", encoding="utf-8") as fh:
        assert printed == list(csv.reader(fh))
    assert sorted(row[1] for row in printed[1:]) == ["gemavir", "tamivir, extended"]


def test_analogies_command(ws, tmp_path, capsys):
    out_csv = tmp_path / "analogy.csv"
    out_json = tmp_path / "analogy.json"
    rc = main(["--config", ws["config"], "analogies", *model_args(ws),
               "--out-csv", str(out_csv), "--out-json", str(out_json)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "category=opposites" in out
    assert "subcategory=grammar" in out
    with open(out_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["category"] for r in rows} >= {"opposites", "past-tense",
                                             "drug-inhibition"}
    payload = json.loads(out_json.read_text(encoding="utf-8"))
    assert payload


def test_kshot_command(ws, tmp_path, capsys):
    tuned = tmp_path / "tuned.ckpt"
    out_json = tmp_path / "kshot.json"
    rc = main(["--config", ws["config"], "kshot", *model_args(ws),
               "--k", "1", "--steps", "2", "--out", str(tuned),
               "--out-json", str(out_json)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "delta_top1=" in out and "delta_top5=" in out
    assert load_checkpoint(tuned).config.d_model == 16
    payload = json.loads(out_json.read_text(encoding="utf-8"))
    assert set(payload) == {"before", "after", "delta_top1", "delta_top5"}


def test_kshot_deltas_are_after_minus_before(ws, tmp_path, capsys):
    """Each row is in the file twice, so the k=2 draw trains on the items it
    leaves for evaluation and the deltas are not all zero."""
    twins = tmp_path / "twins.tsv"
    twins.write_text("".join("\t".join(row) + "\n" for row in ANALOGY_ROWS for _ in range(2)),
                     encoding="utf-8")
    out_json = tmp_path / "kshot.json"
    rc = main(["--config", ws["config"], "--analogies", str(twins), "kshot", *model_args(ws),
               "--k", "2", "--steps", "300", "--lr", "0.01", "--out-json", str(out_json)])
    assert rc == 0
    payload = json.loads(out_json.read_text(encoding="utf-8"))
    before, after = payload["before"], payload["after"]
    subs = before["subcategories"]
    assert list(subs) == ["antiviral", "grammar"]
    assert capsys.readouterr().out.splitlines() == [
        f"subcategory={sub} "
        f"delta_top1={after['subcategories'][sub]['top1'] - subs[sub]['top1']:+.6f} "
        f"delta_top5={after['subcategories'][sub]['top5'] - subs[sub]['top5']:+.6f}"
        for sub in subs]
    assert [r["category"] for r in after["categories"]] == [r["category"] for r in before["categories"]]
    for key in ("top1", "top5"):
        assert payload[f"delta_{key}"] == {
            b["category"]: a[key] - b[key] for b, a in zip(before["categories"], after["categories"])}
    assert any(payload["delta_top1"].values()) and any(payload["delta_top5"].values())


def test_mine_command(ws, capsys):
    rc = main(["--config", ws["config"], "mine", *model_args(ws),
               "--q-term", "tamivir", "--t-term", "efficacy", "--k", "3"])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines()
             if l.startswith("token=")]
    assert len(lines) == 3
    for line in lines:
        prob = float(line.rsplit("prob=", 1)[1])
        assert 0.0 <= prob <= 1.0


def test_combine_command(ws, capsys):
    rc = main(["--config", ws["config"], "combine", *model_args(ws),
               "--drugs", "tamivir, zanavir"])
    assert rc == 0
    assert "combination tamivir+zanavir aggregate=" in capsys.readouterr().out


def test_side_effects_command(ws, capsys):
    rc = main(["--config", ws["config"], "side-effects", *model_args(ws),
               "--drug", "tamivir", "--negative-target", "no benefit"])
    assert rc == 0
    assert "side-effects tamivir aggregate=" in capsys.readouterr().out


def _per_position(capsys, argv) -> str:
    assert main(argv) == 0
    (line,) = [l for l in capsys.readouterr().out.splitlines() if " per_position=" in l]
    return line.split(" per_position=", 1)[1]


def test_combine_scores_the_joined_drugs_as_qt_does(ws, capsys):
    target = ["--target", "no benefit"]
    combo = _per_position(capsys, ["--config", ws["config"], "combine", *model_args(ws),
                                   "--drugs", "tamivir, zanavir", *target])
    direct = _per_position(capsys, ["--config", ws["config"], "qt", *model_args(ws),
                                    "--query", DEFAULT_RANK_TEMPLATE,
                                    "--drug", "tamivir and zanavir", *target])
    assert combo == direct


def test_side_effects_scores_the_negative_target_as_qt_does(ws, capsys):
    side = _per_position(capsys, ["--config", ws["config"], "side-effects", *model_args(ws),
                                  "--drug", "tamivir", "--negative-target", "no benefit"])
    direct = _per_position(capsys, ["--config", ws["config"], "qt", *model_args(ws),
                                    "--query", DEFAULT_RANK_TEMPLATE, "--drug", "tamivir",
                                    "--target", "no benefit"])
    assert side == direct


def test_highlight_command(ws, tmp_path, capsys):
    passage = "Tamivir reduced fever. Placebo did not. Dosing was daily."
    out_html = tmp_path / "h.html"
    rc = main(["--config", ws["config"], "highlight", *model_args(ws),
               "--passage", passage, "--target-term", "efficacy",
               "--out-html", str(out_html)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "\x1b[" in out
    assert ANSI_RE.sub("", out).strip() == passage
    scores = parse_html_scores(out_html.read_text(encoding="utf-8"))
    assert len(scores) == 3
    assert all(0.0 <= s <= 1.0 for s in scores)
    assert max(scores) == pytest.approx(1.0)


def test_highlight_command_reads_passage_file(ws, tmp_path, capsys):
    src = tmp_path / "passage.txt"
    src.write_text("One sentence here. Another follows.", encoding="utf-8")
    rc = main(["--config", ws["config"], "highlight", *model_args(ws),
               "--passage-file", str(src), "--target-term", "efficacy"])
    assert rc == 0
    assert "\x1b[" in capsys.readouterr().out


def test_highlight_passage_and_passage_file_together_are_a_usage_error(tmp_path, capsys):
    src = tmp_path / "passage.txt"
    src.write_text("One sentence here.", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["highlight", "--passage", "Another sentence.", "--passage-file", str(src),
              "--target-term", "efficacy"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_perplexity_command(ws, capsys):
    rc = main(["--config", ws["config"], "perplexity", *model_args(ws)])
    assert rc == 0
    out = capsys.readouterr().out
    match = re.search(r"^perplexity=(\d+\.\d{6})$", out, re.M)
    assert match is not None
    assert float(match.group(1)) > 1.0


def test_fc_command_retrains_per_cutoff(ws, tmp_path, capsys):
    outdir = tmp_path / "fc"
    rc = main(["--config", ws["config"], "fc", "--years", "2001:2002",
               "--outdir", str(outdir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fc years_scored=2" in out
    assert "mrr=" in out and "retrained=true" in out
    for name in ("rank_2001.csv", "rank_2002.csv", "fc_plot.csv",
                 "fc_metrics.json"):
        assert (outdir / name).exists()
    metrics = json.loads((outdir / "fc_metrics.json").read_text(encoding="utf-8"))
    assert metrics


def test_cli_flag_overrides_config_path(ws, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"corpus": str(tmp_path / "missing.jsonl"),
                                  "vocab_size": 300}),
                      encoding="utf-8")
    out = tmp_path / "vocab.json"
    rc = main(["--config", str(config), "--corpus", ws["corpus"],
               "train-tokenizer", "--out", str(out)])
    assert rc == 0
    assert load_vocab(out).size == 300


def test_unknown_config_key_exits_nonzero(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"d_modle": 4}), encoding="utf-8")
    rc = main(["--config", str(config), "train-tokenizer"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error type=DataFormatError" in err
    assert "d_modle" in err


def test_missing_corpus_setting_exits_nonzero(capsys):
    rc = main(["train-tokenizer"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error type=DataFormatError" in err
    assert "missing required setting: corpus" in err


# ---------------------------------------------------------------------------
# bad inputs end in one typed error line, never a traceback


def run_cli_process(args, **env):
    """Run the CLI in a fresh interpreter; returns (exit code, stderr)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    full_env = {**os.environ, **env}
    full_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, full_env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "qtmine.cli", *args],
                          capture_output=True, text=True, env=full_env, timeout=120)
    return proc.returncode, proc.stderr


def assert_one_typed_error(rc, err, error_type):
    assert rc == 1
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if line.startswith("error ")]
    assert len(lines) == 1, err
    assert re.fullmatch(rf"error type={error_type} msg=.+", lines[0]), lines[0]


def test_vocab_with_trailing_garbage_is_a_typed_error(ws, tmp_path):
    vocab = tmp_path / "vocab.json"
    vocab.write_text(Path(ws["vocab"]).read_text(encoding="utf-8") + "}garbage",
                     encoding="utf-8")
    rc, err = run_cli_process(["--config", ws["config"], "qt", "--vocab", str(vocab),
                               "--checkpoint", ws["ckpt"], "--query", "x <mask>"])
    assert_one_typed_error(rc, err, "DataFormatError")


def test_checkpoint_sidecar_with_trailing_garbage_is_a_typed_error(ws, tmp_path):
    ckpt = tmp_path / "model.ckpt"
    shutil.copyfile(ws["ckpt"], ckpt)
    sidecar = Path(ws["ckpt"] + ".json").read_text(encoding="utf-8")
    Path(str(ckpt) + ".json").write_text(sidecar + "}garbage", encoding="utf-8")
    rc, err = run_cli_process(["--config", ws["config"], "qt", "--vocab", ws["vocab"],
                               "--checkpoint", str(ckpt), "--query", "x <mask>"])
    assert_one_typed_error(rc, err, "CheckpointError")


def test_checkpoint_with_nan_weight_is_a_typed_error(ws, tmp_path):
    params = load_checkpoint(ws["ckpt"])
    params.emb[5, 0] = np.nan
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(params, ckpt)
    rc, err = run_cli_process(["--config", ws["config"], "qt", "--vocab", ws["vocab"],
                               "--checkpoint", str(ckpt), "--query", "x <mask>"])
    assert_one_typed_error(rc, err, "CheckpointError")


@pytest.mark.parametrize("case", ["vocab-size", "lr", "n-heads"])
def test_bad_setting_is_a_typed_error(ws, tmp_path, case):
    config = ws["config"]
    if case == "vocab-size":
        args = ["train-tokenizer", "--vocab-size", "100", "--out", str(tmp_path / "vocab.json")]
    else:
        args = ["train", "--vocab", ws["vocab"], "--out", str(tmp_path / "model.ckpt")]
        if case == "lr":
            args += ["--lr", "0"]
        else:
            settings = json.loads(Path(config).read_text(encoding="utf-8"))
            settings["n_heads"] = 3
            config = tmp_path / "config.json"
            config.write_text(json.dumps(settings), encoding="utf-8")
    rc, err = run_cli_process(["--config", str(config), *args])
    assert_one_typed_error(rc, err, "DataFormatError")



def _config_with(ws, tmp_path, **changes) -> str:
    settings = json.loads(Path(ws["config"]).read_text(encoding="utf-8"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**settings, **changes}), encoding="utf-8")
    return str(path)


def _bad_input_args(ws, tmp_path, case) -> list[str]:
    """CLI arguments that feed one bad input; see test_bad_input_is_a_typed_error."""
    config = ws["config"]
    train = ["train", "--vocab", ws["vocab"], "--out", str(tmp_path / "out" / "model.ckpt")]
    if case == "corpus-is-a-directory":
        return ["--config", config, "--corpus", str(tmp_path), "train-tokenizer",
                "--out", str(tmp_path / "vocab.json")]
    if case == "config-is-a-directory":
        return ["--config", str(tmp_path), "train-tokenizer"]
    if case == "config-nested-too-deeply":
        deep = tmp_path / "config.json"
        deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        return ["--config", str(deep), "train-tokenizer"]
    if case == "vocab-special-null":
        doc = json.loads(Path(ws["vocab"]).read_text(encoding="utf-8"))
        vocab = tmp_path / "vocab.json"
        vocab.write_text(json.dumps({**doc, "special": None}), encoding="utf-8")
        return ["--config", config, "qt", "--vocab", str(vocab), "--checkpoint", ws["ckpt"],
                "--query", "x <mask>"]
    if case == "fc-trials-field-too-large":
        trials = tmp_path / "trials.csv"
        trials.write_text("trial_id,year,drugs,condition\nT1,2001," + "x" * 200_000 + ",flu\n",
                          encoding="utf-8")
        return ["--config", config, "--trials", str(trials), "fc", "--years", "2001",
                "--outdir", str(tmp_path / "out")]
    if case == "trials-not-utf8":
        trials = tmp_path / "trials.csv"
        trials.write_bytes(b"trial_id,year,drugs,condition\nT1,2001,tami\xffvir,flu\n")
        return ["--config", config, "--trials", str(trials), "rank", *model_args(ws),
                "--year", "2002"]
    if case == "passage-file-missing":
        return ["--config", config, "highlight", *model_args(ws), "--target-term", "x",
                "--passage-file", str(tmp_path / "absent.txt")]
    if case == "n-layers-string":
        return ["--config", _config_with(ws, tmp_path, n_layers="2"), *train]
    if case == "seed-string":
        return ["--config", _config_with(ws, tmp_path, seed="abc"), *train]
    if case == "sidecar-float-dimension":
        ckpt = tmp_path / "model.ckpt"
        shutil.copyfile(ws["ckpt"], ckpt)
        sidecar = json.loads(Path(ws["ckpt"] + ".json").read_text(encoding="utf-8"))
        sidecar["model"]["n_layers"] = 1.0
        Path(str(ckpt) + ".json").write_text(json.dumps(sidecar), encoding="utf-8")
        return ["--config", config, "qt", "--vocab", ws["vocab"], "--checkpoint", str(ckpt),
                "--query", "x <mask>"]
    if case == "sidecar-nested-too-deeply":
        ckpt = tmp_path / "model.ckpt"
        shutil.copyfile(ws["ckpt"], ckpt)
        Path(str(ckpt) + ".json").write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        return ["--config", config, "qt", "--vocab", ws["vocab"], "--checkpoint", str(ckpt),
                "--query", "x <mask>"]
    if case == "years-not-a-number":
        return ["--config", config, "fc", "--years", "abc", "--outdir", str(tmp_path)]
    if case == "fc-years-out-of-range":
        return ["--config", config, "fc", "--years", "1800:1801", "--outdir", str(tmp_path / "out")]
    if case == "fc-years-reversed":
        return ["--config", config, "fc", "--years", "2011:2009", "--outdir", str(tmp_path / "out")]
    if case == "max-steps-zero":
        return ["--config", config, *train, "--max-steps", "0"]
    if case == "max-steps-negative":
        return ["--config", config, *train, "--max-steps", "-1"]
    if case == "seed-negative-flag":
        return ["--config", config, "--seed", "-1", *train]
    if case == "seed-negative-config":
        return ["--config", _config_with(ws, tmp_path, seed=-1), *train]
    if case == "train-lr-nan":
        return ["--config", config, *train, "--lr", "nan"]
    if case == "train-lr-inf":
        return ["--config", config, *train, "--lr", "inf"]
    if case == "rank-template-empty":
        return ["--config", config, "rank", *model_args(ws), "--year", "2002", "--template", ""]
    if case == "rank-target-empty":
        return ["--config", config, "rank", *model_args(ws), "--year", "2002", "--target", ""]
    if case == "qt-target-empty":
        return ["--config", config, "qt", *model_args(ws), "--query", "x <mask>", "--target", ""]
    if case == "config-target-surrogate":
        return ["--config", _config_with(ws, tmp_path, target="x\ud800"), "qt", *model_args(ws),
                "--query", "x <mask>"]
    if case == "qt-target-not-utf8":  # the byte 0xff reaches argv as the lone surrogate \udcff
        return ["--config", config, "qt", *model_args(ws), "--query", "x <mask>",
                "--target", "\udcff"]
    if case == "config-corpus-surrogate":
        return ["--config", _config_with(ws, tmp_path, corpus="x\ud800.jsonl"),
                "train-tokenizer", "--out", str(tmp_path / "out" / "vocab.json")]
    if case == "combine-one-drug":
        return ["--config", config, "combine", *model_args(ws), "--drugs", "tamivir, "]
    if case == "fc-target-empty":
        return ["--config", config, "fc", "--years", "2001:2002", "--outdir",
                str(tmp_path / "out"), "--target", ""]
    if case == "fc-template-no-slot":
        return ["--config", _config_with(ws, tmp_path, template="x <mask>"), "fc",
                "--years", "2001:2002", "--outdir", str(tmp_path / "out")]
    warmup = {"warmup-frac-nan": float("nan"), "warmup-frac-infinity": float("inf"),
              "warmup-frac-negative": -0.5, "warmup-frac-above-one": 1.5}
    if case in warmup:
        return ["--config", _config_with(ws, tmp_path, warmup_frac=warmup[case]), *train]
    kshot = ["--config", config, "kshot", *model_args(ws), "--k", "1",
             "--out", str(tmp_path / "out" / "tuned.ckpt")]
    if case == "kshot-steps-zero":
        return [*kshot, "--steps", "0"]
    if case == "kshot-steps-negative":
        return [*kshot, "--steps", "-2"]
    if case == "kshot-lr-zero":
        return [*kshot, "--steps", "2", "--lr", "0"]
    if case == "kshot-lr-negative":
        return [*kshot, "--steps", "2", "--lr", "-1"]
    if case == "kshot-lr-nan":
        return [*kshot, "--steps", "2", "--lr", "nan"]
    raise AssertionError(case)


@pytest.mark.parametrize("case,error_type", [
    ("corpus-is-a-directory", "DataFormatError"),
    ("config-is-a-directory", "DataFormatError"),
    ("config-nested-too-deeply", "DataFormatError"),
    ("vocab-special-null", "DataFormatError"),
    ("fc-trials-field-too-large", "DataFormatError"),
    ("trials-not-utf8", "DataFormatError"),
    ("passage-file-missing", "DataFormatError"),
    ("n-layers-string", "DataFormatError"),
    ("seed-string", "DataFormatError"),
    ("sidecar-float-dimension", "CheckpointError"),
    ("sidecar-nested-too-deeply", "CheckpointError"),
    ("years-not-a-number", "DataFormatError"),
    ("max-steps-zero", "DataFormatError"),
    ("max-steps-negative", "DataFormatError"),
    ("seed-negative-flag", "DataFormatError"),
    ("seed-negative-config", "DataFormatError"),
    ("kshot-steps-zero", "DataFormatError"),
    ("kshot-steps-negative", "DataFormatError"),
    ("kshot-lr-zero", "DataFormatError"),
    ("kshot-lr-negative", "DataFormatError"),
    ("kshot-lr-nan", "DataFormatError"),
    ("train-lr-nan", "DataFormatError"),
    ("train-lr-inf", "DataFormatError"),
    ("warmup-frac-nan", "DataFormatError"),
    ("warmup-frac-infinity", "DataFormatError"),
    ("warmup-frac-negative", "DataFormatError"),
    ("warmup-frac-above-one", "DataFormatError"),
    ("rank-template-empty", "TemplateError"),
    ("rank-target-empty", "EvalError"),
    ("qt-target-empty", "EvalError"),
    ("config-target-surrogate", "DataFormatError"),
    ("qt-target-not-utf8", "DataFormatError"),
    ("config-corpus-surrogate", "DataFormatError"),
    ("combine-one-drug", "EvalError"),
    ("fc-target-empty", "EvalError"),
    ("fc-template-no-slot", "TemplateError"),
    ("fc-years-out-of-range", "DataFormatError"),
    ("fc-years-reversed", "DataFormatError"),
])
def test_bad_input_is_a_typed_error(ws, tmp_path, case, error_type):
    rc, err = run_cli_process(_bad_input_args(ws, tmp_path, case))
    assert_one_typed_error(rc, err, error_type)
    assert not (tmp_path / "out").exists()  # no checkpoint written
    if case.startswith("fc-"):
        assert "event=train_start" not in err  # rejected before the first cutoff trains


def test_rank_with_a_drug_too_long_for_max_seq_names_it(ws, tmp_path):
    drug = "zq" * 100
    trials = tmp_path / "trials.csv"
    trials.write_text(f"trial_id,year,drugs,condition\nT1,2001,{drug},flu\n", encoding="utf-8")
    rc, err = run_cli_process(["--config", ws["config"], "--trials", str(trials), "rank",
                               *model_args(ws), "--year", "2002"])
    assert_one_typed_error(rc, err, "TemplateError")
    assert drug in err


@pytest.mark.parametrize("command,flag", [
    ("rank", "--out"), ("rank", "--out-json"),
    ("analogies", "--out-csv"), ("analogies", "--out-json"),
    ("kshot", "--out-json"), ("kshot", "--out"),
    ("highlight", "--out-html"), ("train", "--curve"),
])
def test_failed_output_write_is_a_typed_error(ws, tmp_path, command, flag):
    args = {
        "rank": [*model_args(ws), "--year", "2002"],
        "analogies": model_args(ws),
        "kshot": [*model_args(ws), "--k", "1", "--steps", "1"],
        "highlight": [*model_args(ws), "--target-term", "influenza",
                      "--passage", "tamivir treats influenza."],
        "train": ["--vocab", ws["vocab"], "--out", str(tmp_path / "model.ckpt"),
                  "--max-steps", "1"],
    }[command]
    out = tmp_path / "missing" / "output"
    rc, err = run_cli_process(["--config", ws["config"], command, *args, flag, str(out)])
    assert_one_typed_error(rc, err, "OutputError")
    assert str(out) in err
    assert not (tmp_path / "missing").exists()


def test_unwritable_curve_keeps_the_trained_checkpoint(ws, tmp_path):
    ckpt = tmp_path / "run" / "model.ckpt"
    curve = tmp_path / "missing" / "curve.csv"
    rc, err = run_cli_process(["--config", ws["config"], "train", "--vocab", ws["vocab"],
                               "--out", str(ckpt), "--curve", str(curve), "--max-steps", "2"])
    assert_one_typed_error(rc, err, "OutputError")
    assert str(curve) in err
    assert load_checkpoint(ckpt).config.vocab_size == load_vocab(ws["vocab"]).size


def test_corpus_line_that_is_not_utf8_is_skipped_and_counted(ws, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(Path(ws["corpus"]).read_bytes() + b'{"id": "bad\xff", "title": "t"}\n')
    rc, err = run_cli_process(["--config", ws["config"], "--corpus", str(corpus),
                               "train-tokenizer", "--out", str(tmp_path / "vocab.json")])
    assert rc == 0 and "Traceback" not in err, err
    assert re.search(r"event=malformed_document line=\d+ reason=line is not valid UTF-8", err), err
    assert re.search(r"event=corpus_loaded .* malformed=1\b", err), err


def test_cold_start_imports_numpy_random_and_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    probe = ("import sys, qtmine.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
             "print('numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    assert proc.stdout.split("\n")[:2] == ["[]", "True"]


# ---------------------------------------------------------------------------
# the CLI's malloc thresholds (util.keep_freed_memory)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
def test_a_cli_process_on_glibc_reports_its_pinned_malloc_thresholds(ws, tmp_path):
    rc, err = run_cli_process(["--config", ws["config"], "train-tokenizer",
                               "--out", str(tmp_path / "vocab.json")])
    assert rc == 0, err
    assert re.search(r"event=start command=train-tokenizer .* malloc=pinned\b", err), err


def test_importing_qtmine_leaves_the_allocator_alone():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    probe = "import qtmine.cli, qtmine.util; print(qtmine.util.keep_freed_memory.cache_info().misses)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    assert proc.stdout.strip() == "0"


class _Libc:
    """A C library whose mallopt records each call and returns `result`."""

    def __init__(self, result):
        self.calls = []
        self.mallopt = lambda param, value: self.calls.append((param, value)) or result


def _no_c_library(name):
    raise OSError("no C library")


def test_keep_freed_memory_sets_the_mmap_then_the_trim_threshold(monkeypatch):
    libc = _Libc(1)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    assert keep_freed_memory.__wrapped__() == "pinned"
    assert libc.calls == [(-3, 32 << 20), (-1, 64 << 20)]


@pytest.mark.parametrize("cdll", [_no_c_library, lambda name: object(), lambda name: _Libc(0)],
                         ids=["cdll-raises", "no-mallopt", "mallopt-refuses"])
def test_keep_freed_memory_without_a_working_mallopt_is_unavailable(monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert keep_freed_memory.__wrapped__() == "unavailable"
