#!/usr/bin/env python3
"""Benchmark for qtmine: three workloads run through the CLI in one process each.

    python3 perfbench/run.py --workload {pretrain,mine,fc,all} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout: the program is imported from
`src/` of that checkout and from nowhere else. Inputs are generated from
`--seed`. A run sets up once, runs one warm-up iteration, then repeats
iterations for `--seconds` seconds, with `SETUPS - 1` more set-ups spread
between them, and checks every output. Each set-up runs the program's set-up
requests in a fresh process and is timed; the median is `setup_s`. With
`--trace 0` it reports the end-to-end metrics; with `--trace 1` it sets up
once, measures half the time untraced and half traced, and reports the
per-layer metrics and the tracing overhead. Human-readable lines
come first; the last line of standard output is the JSON result. A full
record (environment, metrics with sample counts, problems) goes to
`.bench_out/results/`, and traced spans to `.bench_out/traces/`.
`--workload all` runs each workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = 5


def import_program() -> None:
    """Import qtmine from this checkout's src/, or exit without a result."""
    package = SRC / "qtmine"
    if not (package / "cli.py").is_file():
        print(f"perfbench: no program source at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import qtmine

    if Path(qtmine.__file__).resolve().parent != package.resolve():
        print(f"perfbench: qtmine imported from {qtmine.__file__}, not {package}", file=sys.stderr)
        sys.exit(2)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- environment ---------------------------------------------------------------


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except Exception as exc:  # build metadata only; its absence must not stop a run
        return f"unknown ({type(exc).__name__})"


def environment() -> dict:
    import numpy
    import scipy

    from qtmine.util import max_workers

    digest = hashlib.sha256()
    for path in sorted((SRC / "qtmine").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "QTMINE_THREADS": os.environ.get("QTMINE_THREADS", "unset"),
        "pmap_workers": max_workers(),
        "thread_caps": "none: program defaults (pmap uses nproc workers, BLAS its own default)",
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
    }


# -- one workload in this process --------------------------------------------------


def measure(wl, seconds: float, first_index: int, between=()) -> list:
    """Closed loop: next iteration starts when the previous ends, for `seconds` of iterations.

    Each callable in `between` runs once between two iterations, outside the
    loop's time, at evenly spaced points of it; any not yet run, run at the end.
    """
    iterations = []
    busy = 0.0
    index = first_index
    pending = list(between)
    while not iterations or busy < seconds:
        done = len(between) - len(pending)
        if pending and busy >= seconds * (done + 1) / (len(between) + 1):
            pending.pop(0)()
        iterations.append(wl.iteration(index))
        busy += iterations[-1].seconds
        index += 1
    for job in pending:
        job()
    return iterations


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(wl, setup_times, iterations, rss_mb) -> dict[str, tuple[float, int, str]]:
    """name -> (value, sample count, what was counted)."""
    latencies = wl.latencies_ms(iterations)
    requests = f"{'/'.join(wl.latency_labels)} requests" if wl.latency_labels else "requests"
    train = wl.train_rates(iterations)
    queries = wl.query_rates(iterations)
    return {
        "setup_s": (statistics.median(setup_times), len(setup_times), "set-ups"),
        "wall_s": (statistics.median(it.seconds for it in iterations), len(iterations), "iterations"),
        "request_ms_p50": (percentile(latencies, 0.5), len(latencies), requests),
        "request_ms_p90": (percentile(latencies, 0.9), len(latencies), requests),
        "train_tokens_per_s": (statistics.median(train), len(train), "training requests"),
        "queries_per_s": (statistics.median(queries), len(queries), "iterations"),
        "eval_ce": (wl.quality["eval_ce"], 1, "evaluation"),
        "peak_rss_mb": (rss_mb, 1, "process, up to the end of the measured loop"),
    }


def request_ms_by_label(iterations) -> dict[str, dict[str, float]]:
    """Median and count of request latency per request label, for the record."""
    by_label: dict[str, list[float]] = {}
    for it in iterations:
        for r in it.replies:
            by_label.setdefault(r.label, []).append(r.seconds * 1000.0)
    return {k: {"median": statistics.median(v), "n": len(v)} for k, v in sorted(by_label.items())}


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 keep: bool = False) -> tuple[dict, object]:
    from workloads import WORKLOADS, Client

    tag = f"{name}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    client = Client()
    wl = WORKLOADS[name](seed, tiny, client)

    setup_times = [wl.setup(work / "setup0")]

    wl.plan()
    warmup = wl.iteration(0)
    if trace:
        from spans import Tracer, layer_metrics

        plain = measure(wl, seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        client.tracer = tracer
        try:
            traced = measure(wl, seconds / 2, 1 + len(plain))
        finally:
            tracer.uninstall()
            client.tracer = None
        iterations = plain + traced
    else:
        # The other set-ups are spread over the measured span, so their median
        # does not rest on one stretch of the host's speed.
        more = [lambda k=k: setup_times.append(wl.setup(work / f"setup{k}")) for k in range(1, SETUPS)]
        iterations = measure(wl, seconds, 1, more)
    # Set-up ran in child processes; the counts and checks below replay library
    # calls, so the peak is read before them.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wl.prepare()
    problems = []
    for it in [warmup] + iterations:
        problems += wl.check_iteration(it)
    problems += wl.check_once([warmup] + iterations)

    # Each problem is one failed request or one failed check of an output.
    attempted = client.requests
    failed = min(attempted, len(problems))

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
              "why": wl.why, "environment": environment(),
              "attempted": attempted, "failed": failed, "problems": problems,
              "setup_seconds": setup_times,
              "setup_requests": [[r.label, r.seconds] for r in wl.setup_replies],
              "iteration_seconds": [it.seconds for it in iterations],
              "request_ms_by_label": request_ms_by_label(iterations), "quality": wl.quality}
    if trace:
        per_layer = layer_metrics(tracer.spans, len(traced))
        overhead = (statistics.median(it.seconds for it in traced)
                    - statistics.median(it.seconds for it in plain))
        per_layer["trace.overhead_s"] = overhead
        record["per_layer"] = per_layer
        record["traced_iterations"] = len(traced)
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "traces" / f"{tag}.jsonl")
    else:
        record["end_to_end"] = {k: {"value": v, "n": n, "of": of}
                                for k, (v, n, of) in end_to_end(wl, setup_times, iterations,
                                                                rss_mb).items()}
    wl.iterations = [warmup] + iterations
    if not keep:
        shutil.rmtree(work, ignore_errors=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    return record, wl


def result_line(record: dict, spec: dict) -> dict:
    if record["trace"]:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = record["per_layer"]
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {k: v["value"] for k, v in record["end_to_end"].items()}
    return {"correct": not record["problems"],
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}


def report(record: dict, result: dict) -> None:
    env = record["environment"]
    print("env " + " ".join(f"{k}={json.dumps(v)}" for k, v in env.items()))
    print(f"workload={record['workload']} seed={record['seed']} why={json.dumps(record['why'])}")
    if record["trace"]:
        print(f"traced iterations={record['traced_iterations']}")
        for name, m in result["metrics"].items():
            print(f"layer {name}={m['value']:.6g} {m['unit']}")
    else:
        for name, m in record["end_to_end"].items():
            unit = result["metrics"][name]["unit"]
            print(f"metric {name}={m['value']:.6g} {unit} n={m['n']} {m['of']}")
    for name, value in record["quality"].items():
        print(f"quality {name}={value:.6g}")
    print(f"error_ratio={record['failed'] / record['attempted']:.6g} "
          f"failed={record['failed']} attempted={record['attempted']}")
    for problem in record["problems"]:
        print(f"problem {problem}")


def run_all(args) -> int:
    """Each workload in its own process; the last lines are combined."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("pretrain", "mine", "fc"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--tiny"] if args.tiny else []
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            combined["correct"] = False
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("pretrain", "mine", "fc", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    import_program()
    spec = load_spec()
    if args.workload == "all":
        return run_all(args)
    record, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), tiny=args.tiny)
    result = result_line(record, spec)
    report(record, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
