#!/usr/bin/env python3
"""Self-test of the benchmark harness, at tiny input sizes.

    python3 perfbench/selftest.py

For each workload it asserts that a run reports every metric BENCHMARK.json
names, with its unit, in both modes; that the recorded environment block is
filled; and that deliberately corrupted outputs trip the correctness checks.
It also asserts that a directory holding only the benchmark (no program
source) makes the benchmark fail without printing a result. Exits 0 when
every assertion holds.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)


def check_reports(name: str, spec: dict) -> list[str]:
    """Every metric named in the spec appears with its unit; the environment is filled."""
    failures = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(["perfbench/run.py", "--workload", name, "--seed", str(SEED), "--seconds", "1",
                     "--trace", str(trace), "--tiny"], ROOT)
        if proc.returncode != 0:
            failures.append(f"{name} trace={trace}: exit {proc.returncode}: {proc.stderr[-2000:]}")
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"] or not result["correct"]:
            failures.append(f"{name} trace={trace}: bad result line {sorted(result)}")
        for metric in spec[key]:
            got = result["metrics"].get(metric["name"])
            if got is None or got.get("unit") != metric["unit"] or not isinstance(got.get("value"), float):
                failures.append(f"{name} trace={trace}: metric {metric['name']} missing or mis-unit: {got}")
        extra = set(result["metrics"]) - {m["name"] for m in spec[key]}
        if extra:
            failures.append(f"{name} trace={trace}: unexpected metrics {sorted(extra)}")
        record_path = run.OUT / "results" / f"{name}-seed{SEED}-trace{trace}-tiny.json"
        env = json.loads(record_path.read_text())["environment"]
        empty = [k for k, v in env.items() if v in (None, "")]
        if empty or len(env) < 10:
            failures.append(f"{name}: environment block incomplete: {empty}")
    return failures


@contextlib.contextmanager
def corrupted(path: Path, edit):
    """Apply edit(text or bytes) to a file for the duration of the block."""
    original = path.read_bytes()
    try:
        path.write_bytes(edit(original))
        yield
    finally:
        path.write_bytes(original)


def _text(fn):
    return lambda data: fn(data.decode("utf-8")).encode("utf-8")


def _flip_middle_byte(data: bytes) -> bytes:
    out = bytearray(data)
    out[len(out) // 2] ^= 0xFF
    return bytes(out)


def _nan_first_loss(text: str) -> str:
    lines = text.splitlines()
    step, _loss, rest = lines[1].split(",", 2)
    lines[1] = f"{step},nan,{rest}"
    return "\n".join(lines) + "\n"


def _swap_first_last_scores(text: str) -> str:
    rows = json.loads(text)
    rows[0]["score"], rows[-1]["score"] = rows[-1]["score"], rows[0]["score"]
    return json.dumps(rows)


def _mrr_out_of_range(text: str) -> str:
    data = json.loads(text)
    data["mean_mrr"] = 1.5
    return json.dumps(data)


def check_corruption() -> list[str]:
    """Corrupt one output at a time and assert the workload's checks report it."""
    failures = []

    def expect(label: str, problems: list[str]) -> None:
        if not problems:
            failures.append(f"corruption not detected: {label}")

    def clean(label: str, problems: list[str]) -> None:
        if problems:
            failures.append(f"{label}: problems before any corruption: {problems}")

    _, wl = run.run_workload("pretrain", SEED, 1, False, tiny=True, keep=True)
    it = wl.iterations[-1]
    clean(wl.name, wl.check_iteration(it))
    with corrupted(it.workdir / "model.ckpt", _flip_middle_byte):
        expect("pretrain checkpoint bytes", wl.check_iteration(it))
    with corrupted(it.workdir / "curve.csv", _text(_nan_first_loss)):
        expect("pretrain non-finite loss", wl.check_iteration(it))
    wl.quality["eval_ce"] = 99.0
    expect("pretrain eval_ce not falling", wl.check_once(wl.iterations))

    _, wl = run.run_workload("mine", SEED, 1, False, tiny=True, keep=True)
    it = wl.iterations[-1]
    clean(wl.name, wl.check_iteration(it))
    with corrupted(it.workdir / "rank.json", _text(_swap_first_last_scores)):
        expect("mine ranking order", wl.check_iteration(it))
    with corrupted(it.workdir / "passage.html",
                   _text(lambda t: t.replace('data-score="1.000000"', 'data-score="0.900000"'))):
        expect("mine highlight maximum", wl.check_iteration(it))
    bad = next(r for r in it.replies if wl.expect_error(r.label))
    bad.code, bad.err = 0, ""
    expect("mine malformed request accepted", wl.check_iteration(it))
    clean(wl.name, wl.check_once(wl.iterations))
    with corrupted(wl.root.parent / "setup1" / "model.ckpt", _flip_middle_byte):
        expect("mine set-up checkpoint", wl.check_once(wl.iterations))
    qt = next(r for r in wl.iterations[0].replies if r.label == "qt")
    qt.out = qt.out.replace("per_position=0.", "per_position=1.")
    expect("mine qt score", wl.check_once(wl.iterations))

    _, wl = run.run_workload("fc", SEED, 1, False, tiny=True, keep=True)
    it = wl.iterations[-1]
    clean(wl.name, wl.check_iteration(it))
    with corrupted(it.workdir / "fc" / "fc_metrics.json", _text(_mrr_out_of_range)):
        expect("fc mrr range", wl.check_iteration(it))
    rank_csv = sorted((wl.iterations[0].workdir / "fc").glob("rank_*.csv"))[-1]
    with corrupted(rank_csv, _text(lambda t: t.replace("\n1,", "\n2,", 1))):
        expect("fc ranking vs replay", wl.check_once(wl.iterations))
    shutil.rmtree(run.OUT / "work", ignore_errors=True)
    return failures


def check_bare_directory() -> list[str]:
    """Without the program source the benchmark exits non-zero and prints no result."""
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run([f"{HERE.name}/run.py", "--workload", "pretrain", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    run.import_program()
    spec = run.load_spec()
    failures = []
    for name in ("pretrain", "mine", "fc"):
        failures += check_reports(name, spec)
    failures += check_corruption()
    failures += check_bare_directory()
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
