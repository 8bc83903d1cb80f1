"""qphase4 benchmark: run one workload, check its outputs, print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {verify,stream,cli} --seed N \
        --seconds S --trace {0,1}

Each measured section runs in a fresh interpreter (perfbench/worker.py with
PYTHONPATH=src), so every lru_cache in qphase4 starts empty.  --trace 0
prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs the same
inputs twice, untraced for half of --seconds and then with spans around the
public functions of each module, and prints the per-layer metrics.  The
last line of stdout is the result object; the line before it holds the run
metadata.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

SETUP_RUNS = 5  # extra set-up-only interpreters per run; setup_s is their median
WORKER_TIMEOUT_S = 170
VERIFY_SCOPES = ("metaplectic", "rep", "transport", "marginals", "symmetry", "single-qubit")


class BenchError(Exception):
    pass


def stop(proc: subprocess.Popen) -> None:
    """End a worker that is still running; it stops its own command first."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def run_worker(workload: str, seed: int, seconds: float, trace: bool, setup_only: bool = False) -> dict:
    """Start one worker interpreter and return its set-up times and samples."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.terminate)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            ready_s = time.perf_counter() - start
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            stop(proc)
    if proc.returncode != 0 or not ready.startswith("ready "):
        raise BenchError(f"worker {' '.join(cmd[1:])} exited with {proc.returncode}")
    _, in_process_s, import_s = ready.split()
    out = {
        "setup_s": ready_s,
        "interpreter_s": ready_s - float(in_process_s),
        "import_s": float(import_s),
    }
    if not setup_only:
        out.update(json.loads(rest.splitlines()[-1]))
    return out


def run_phase(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Workers in turn, at least one, while the next is expected to end in time.

    A stream or cli worker measures for the seconds it is given; a verify
    worker runs one whole sweep however long that takes.
    """
    workers = []
    start = time.perf_counter()
    last = 0.0
    while not workers or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        remaining = max(seconds - (began - start), 0.0)
        workers.append(run_worker(workload, seed, remaining, trace))
        last = time.perf_counter() - began
    return workers


# --- end-to-end metrics --------------------------------------------------------

def latencies(workers: list[dict]) -> list[float]:
    """Request latencies in seconds; a verify request is one whole sweep."""
    return [x for w in workers for x in w["latency_s"]]


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(workload: str, workers: list[dict], setups: list[dict]) -> dict:
    lat = latencies(workers)
    rss_key = "children_maxrss_kb" if workload == "cli" else "maxrss_kb"
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": max(w[rss_key] for w in workers) / 1024,
        "p50_ms": 1000 * statistics.median(lat),
        "p90_ms": 1000 * p90(lat),
        "req_per_s": len(lat) / sum(lat),
    }


# --- per-layer metrics ---------------------------------------------------------

def per_layer(workload: str, plain: list[dict], traced: list[dict]) -> dict:
    # Spans and cache counts of every qphase4 process in the traced phase:
    # the worker itself, or on cli each command it ran.
    procs = [p for w in traced for p in w["probes"]] if workload == "cli" else traced
    m = {}
    for p in procs:
        for name, (calls, _, self_s) in p["spans"].items():
            m[f"{name}.calls"] = m.get(f"{name}.calls", 0) + calls
            m[f"{name}.self_s"] = m.get(f"{name}.self_s", 0.0) + self_s
    lookups = {}
    for p in procs:
        for name, (hits, misses, size) in p["caches"].items():
            h, n = lookups.get(name, (0, 0))
            lookups[name] = (h + hits, n + hits + misses)
            m[f"{name}.currsize"] = max(m.get(f"{name}.currsize", 0), size)
    for name, (hits, total) in lookups.items():
        m[f"{name}.hit_ratio"] = hits / total if total else 0.0

    def per_process_ms(value) -> float:
        return 1000 * statistics.median(value(p) for p in procs)

    m["cli.import_ms"] = per_process_ms(lambda p: p["import_s"])
    m["cli.interpreter_ms"] = per_process_ms(lambda p: p["interpreter_s"])
    m["cli.parse_ms"] = per_process_ms(lambda p: p["spans"]["cli.parse"][1])
    m["cli.render_ms"] = per_process_ms(lambda p: p["spans"]["cli.render"][1])
    # Per-scope sweep times and the tracing overhead come from the untraced phase.
    for scope in VERIFY_SCOPES:
        m[f"verify.{scope}_s"] = (
            statistics.median(w["scope_s"][scope] for w in plain) if workload == "verify" else 0.0
        )
    base = statistics.median(latencies(plain))
    m["trace.overhead_ms"] = 1000 * (statistics.median(latencies(traced)) - base)
    m["trace.overhead_pct"] = 100 * m["trace.overhead_ms"] / (1000 * base)
    return m


# --- metadata ------------------------------------------------------------------

def git_head() -> str:
    """The commit checked out, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        with path.open(encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "stream", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM unwind normally, so the running worker is stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "qphase4" / "cli.py").is_file():
        print(f"perfbench: no qphase4 sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    try:
        if args.trace:
            plain = run_phase(args.workload, args.seed, args.seconds / 2, False)
            workers = run_phase(args.workload, args.seed, args.seconds / 2, True)
            values = per_layer(args.workload, plain, workers)
            wanted = spec["per_layer"]
            workers = plain + workers
        else:
            workers = run_phase(args.workload, args.seed, args.seconds, False)
            setups = workers + [
                run_worker(args.workload, args.seed, 0, False, setup_only=True)
                for _ in range(SETUP_RUNS)
            ]
            values = end_to_end(args.workload, workers, setups)
            wanted = spec["end_to_end"]
    except (BenchError, statistics.StatisticsError) as e:  # the latter: no request succeeded
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    meta = {
        "python": platform.python_version(),
        "git_head": git_head(),
        "src_lines": src_lines(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "interpreters": len(workers),
    }
    print(json.dumps({"meta": meta}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
