"""Run one benchmark workload against the library in ../src and print its metrics.

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Load comes from this one process as a closed loop with a single caller: each
operation starts when the previous verdict is in. Operations come in whole
rounds, so every run attempts the same mix. Each answer is checked by the
independent checkers in checks.py; a run also writes a record (and, traced,
its spans) under bench/runs/. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when --trace is 0 and the per-layer metrics when
it is 1. See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads
from workloads import ROOT, RUNS, SRC, WORKLOADS

SETUP_PROBES = 7   # fresh processes timed from start to their first operation
CLI_PROBES = 3     # runs of each interpreter and import probe in a traced run
RECORDED_PERCENTILES = (50, 75, 90, 95, 98, 99, 99.9)


class Library:
    """The modalbench modules, imported from this checkout's src/ only and
    each on first use, so set-up pays for no module a workload leaves alone."""

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))

    def __getattr__(self, layer: str):
        module = importlib.import_module(f"modalbench.{layer}")
        found = Path(module.__file__).resolve()
        if SRC.resolve() not in found.parents:
            raise SystemExit(f"modalbench was imported from {found}, not from {SRC}")
        setattr(self, layer, module)
        return module


def setup(name: str, seed: int, traced: bool):
    """Everything before the first timed operation: imports, inputs, warm-up."""
    lib = Library() if name != "cli" or traced else None
    workload = WORKLOADS[name](lib, random.Random(seed))
    for op in workload.warm_up_ops():
        problem = op.check(op.call())
        if problem:
            raise SystemExit(f"warm-up answer is wrong: {problem}")
    return lib, workload


def probe_setup(args) -> list[float]:
    """Time SETUP_PROBES fresh processes from spawn to the end of set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, __file__, "--workload", args.workload,
                                 "--seed", str(args.seed), "--setup-probe"],
                                stdout=subprocess.PIPE, cwd=ROOT)
        line = proc.stdout.readline()
        times.append(time.perf_counter() - started)
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise SystemExit(f"set-up probe failed with exit code {proc.returncode}")
    return times


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


class Tally:
    def __init__(self) -> None:
        self.rounds: list[tuple[list[int], int]] = []  # (ns per verdict, busy ns)
        self.attempted = 0
        self.failures: list[dict] = []
        self.wrong: list[str] = []

    def run(self, ops, tracer=None) -> int:
        """Run one round of ops in order; the time of each call alone is
        recorded, and its answer checked after. Returns the ns spent inside
        the calls, failed ones included."""
        ok, busy = [], 0
        for op in ops:
            if tracer is not None:
                tracer.op += 1
            self.attempted += 1
            start = time.perf_counter_ns()
            try:
                result = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                busy += time.perf_counter_ns() - start
                self.failures.append({"op": op.label, "error": type(exc).__name__,
                                      "message": str(exc)[:200]})
                continue
            took = time.perf_counter_ns() - start
            busy += took
            ok.append(took)
            try:
                problem = op.check(result)
            except Exception as exc:
                problem = f"checker raised {type(exc).__name__}: {exc}"
            if problem:
                self.wrong.append(f"{op.label}: {problem}")
        self.rounds.append((ok, busy))
        return busy

    def whole_run(self, stat) -> float:
        """stat(ns per verdict, busy ns) over all verdicts and all time inside
        the calls of the run. The host's speed changes from one second to the
        next, so each figure covers all of the run, not one round of it."""
        return stat([ns for ok, _ in self.rounds for ns in ok],
                    sum(busy for _, busy in self.rounds))

    @property
    def verdicts(self) -> int:
        return sum(len(ok) for ok, _ in self.rounds)


def import_probes() -> dict[str, float]:
    """Cold-start layers of the command line, each the median of CLI_PROBES runs."""
    env = workloads.cli_env()
    bare, imports, numpy = [], [], []
    for _ in range(CLI_PROBES):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=ROOT, env=env)
        bare.append((time.perf_counter() - started) * 1e3)
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import modalbench"],
                              check=True, cwd=ROOT, env=env, capture_output=True, text=True)
        cumulative = {}
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e3
        imports.append(cumulative["modalbench"])
        numpy.append(cumulative.get("numpy", 0.0))
    return {"cli.interpreter_ms": statistics.median(bare),
            "cli.import_ms": statistics.median(imports),
            "cli.import_numpy_ms": statistics.median(numpy)}


def source_state() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "modalbench" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup(args.workload, args.seed, traced=False)
        print("ready", flush=True)
        return 0

    traced = bool(args.trace)
    setup_times = [] if traced else probe_setup(args)
    lib, workload = setup(args.workload, args.seed, traced)
    tracer = spans.Tracer() if traced else None

    # Whole rounds until the next one would overrun --seconds; at least one,
    # and when tracing at least one untraced and one traced, alternating.
    # Each round starts from a collected heap: finished checks keep their
    # arrays until the cyclic collector runs, and without this the peak
    # memory would depend on how many rounds the host's speed allowed.
    tally = Tally()
    busy = {False: [], True: []}
    started = time.perf_counter()
    rounds = 0
    while True:
        tracing = traced and rounds % 2 == 1
        if isinstance(workload, workloads.Cli):
            workload.tracer = tracer if tracing else None
        if tracing:
            tracer.install(lib)
        gc.collect()
        try:
            busy[tracing].append(tally.run(workload.round_ops(), tracer if tracing else None))
        finally:
            if tracing:
                tracer.unpatch()
        rounds += 1
        elapsed = time.perf_counter() - started
        if elapsed * (rounds + 1) / rounds > args.seconds and (not traced or rounds >= 2):
            break

    if traced:
        metrics = tracer.layer_metrics(len(busy[True]))
        metrics.update(import_probes())
        plain = statistics.mean(busy[False])
        metrics["trace.overhead_pct"] = (statistics.mean(busy[True]) / plain - 1) * 100
        units = {}
    else:
        tail = workload.tail_percentile
        peak_kib = (workload.peak_kib if isinstance(workload, workloads.Cli)
                    else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "verdicts_per_s": tally.whole_run(lambda ok, busy: len(ok) / (busy / 1e9)),
            "verdict_p50_ms": tally.whole_run(lambda ok, busy: percentile(ok, 50) / 1e6),
            "verdict_tail_ms": tally.whole_run(lambda ok, busy: percentile(ok, tail) / 1e6),
            "peak_rss_mb": peak_kib / 1024,
        }
        units = {"setup_s": "s", "verdicts_per_s": "1/s", "verdict_p50_ms": "ms",
                 "verdict_tail_ms": "ms", "peak_rss_mb": "MB"}

    correct = not tally.wrong and tally.verdicts > 0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "attempted": tally.attempted,
        "failed": len(tally.failures), "correct": correct, "wrong": tally.wrong[:50],
        "failures": tally.failures, "metrics": metrics, "setup_samples_s": setup_times,
        "tail_percentile": workload.tail_percentile,
        "round_verdicts_per_s": [len(ok) / (busy / 1e9) for ok, busy in tally.rounds if busy],
        "verdict_ms_percentiles": {
            str(p): [percentile(ok, p) / 1e6 for ok, _ in tally.rounds if ok]
            for p in RECORDED_PERCENTILES},
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)), **source_state(),
    }
    RUNS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        tracer.write(RUNS / f"{stem}.spans.jsonl.gz")
    for line in tally.wrong[:20]:
        print(f"wrong: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": units.get(name) or layer_unit(name)}
                    for name, value in metrics.items()}}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ns_per_assignment"):
        return "ns"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
