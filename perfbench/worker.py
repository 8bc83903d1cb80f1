"""One fresh interpreter of the benchmark: set up a workload, measure it, report.

run.py starts this with PYTHONPATH=src, so every lru_cache in qphase4 starts
empty, as it does for a user.  On stdout it prints one line
``ready <in-process seconds> <import seconds>`` once set-up is done, then, unless
``--setup-only``, one JSON line with the samples of the measured section.
Inputs come from ``--seed`` and are made outside the timed calls; the program
receives only the made inputs.  There is one client in a closed loop.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PROBE = Path(__file__).resolve().parent / "cli_probe.py"
CALL_TIMEOUT_S = 60

# verify all order, with the start of the line each scope prints on success.
VERIFY_SCOPES = (
    ("metaplectic", "metaplectic: 960/960 "),
    ("rep", "rep: 3600/3600 "),
    ("transport", "transport: 4320/4320 "),
    ("marginals", "marginals: 72/72 "),
    ("symmetry", "symmetry: 60/60 "),
    ("single-qubit", "single-qubit: "),
)

# stream: request kinds in a fixed cycle; one state in MIXED_ONE_IN is a
# rank-2 mixture entered through validate_density.  A marginal request costs
# about eight transports, so with three transports to one marginal the median
# falls inside the transport latencies and the 90th percentile inside the
# marginal ones, rather than on the gap between them.
STREAM_KINDS = ("transport", "transport", "transport", "marginal")
MIXED_ONE_IN = 4

# cli: one block of calls, shuffled per block so the proportions are exact.
# The five calls that build no frame are a third; wigner and census cost
# about one frame build more, apply (one symplectic op) about two.  The
# median falls inside the middle group and the 90th percentile inside apply.
CLI_BLOCK = (
    "decompose", "unitary", "shift", "indexop", "tables",
    "wigner", "wigner", "wigner", "wigner", "wigner", "census",
    "apply", "apply", "apply", "apply",
)
TOKENS = "01wW"
NAMED = ("up", "down", "right", "left")

_failures_shown = 0


def report_failure(what: str, error: str = "") -> None:
    """Print the first few failures, with the traceback if any, on stderr."""
    global _failures_shown
    _failures_shown += 1
    if _failures_shown <= 3:
        print(f"perfbench: failed: {what}\n{error}", file=sys.stderr)


# --- inputs ------------------------------------------------------------------

def gaussian_vector(rng: random.Random, exact) -> tuple:
    """Four small Gaussian integers, not all zero."""
    while True:
        v = [exact.Scalar(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(4)]
        if any(not s.is_zero() for s in v):
            return tuple(v)


def stream_inputs(rng, q):
    """Endless (kind, rho, mixed, frame, L); no rho repeats an earlier one."""
    group = q.symplectic.enumerate_group()
    frames = q.phasespace.canonical_shift_vectors()
    seen = set()
    n = 0
    while True:
        mixed = rng.randrange(MIXED_ONE_IN) == 0
        a = q.wigner.density_from_vector(gaussian_vector(rng, q.exact))
        if mixed:
            b = q.wigner.density_from_vector(gaussian_vector(rng, q.exact))
            p = Fraction(rng.randint(1, 3), 4)
            rho = a.scaled(p) + b.scaled(1 - p)
        else:
            rho = a
        if rho in seen:
            continue
        seen.add(rho)
        yield STREAM_KINDS[n % len(STREAM_KINDS)], rho, mixed, rng.choice(frames), rng.choice(group)
        n += 1


def cli_state(rng) -> str:
    if rng.random() < 0.5:
        return f"{rng.choice(NAMED)}*{rng.choice(NAMED)}"
    while True:
        amps = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(4)]
        if any(a != (0, 0) for a in amps):
            break
    return json.dumps(
        {"vector": [{"re": [re, 1], "im": [im, 1]} for re, im in amps]},
        separators=(",", ":"),
    )


def cli_inputs(rng, q):
    """Endless (kind, argv) for the qphase4 command."""
    group = [q.symplectic.to_text(L) for L in q.symplectic.enumerate_group()]

    def frame() -> str:
        return ",".join(rng.choice(TOKENS) for _ in range(5))

    while True:
        block = list(CLI_BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind == "wigner":
                argv = ["wigner", "--state", cli_state(rng), "--frame", frame(), "--json"]
            elif kind == "apply":
                argv = ["apply", "--state", cli_state(rng), "--frame", frame(), "--json",
                        rng.choice(group)]
            elif kind in ("decompose", "unitary", "shift", "indexop"):
                argv = [kind, rng.choice(group), "--json"]
            elif kind == "census":
                argv = ["census", "--json"]
            else:
                argv = ["tables"]
            yield kind, argv


# --- checks --------------------------------------------------------------------

def table_sums_to_one(table: dict) -> bool:
    return sum(Fraction(n, d) for row in table["values"] for n, d in row) == 1


def cli_output_ok(q, kind: str, argv: list, out: str) -> bool:
    """Check one command's output against what the exact answer must satisfy."""
    if kind == "tables":
        return out.startswith("GF(4) addition")
    got = json.loads(out)
    if kind == "wigner":
        return table_sums_to_one(got) and ",".join(got["f"]) == argv[4]
    if kind == "apply":
        return len(got) == 2 and all(table_sums_to_one(step["table"]) for step in got)
    if kind == "decompose":
        d = q.symplectic.Decomposition(got["r"], q.gf4.from_token(got["x"]), got["s"])
        return d.matrix() == q.cli.parse_matrix(argv[1])
    if kind == "unitary":
        return q.exact.Matrix.from_json(got).is_unitary()
    if kind == "shift":
        return len(got) == 5 and all(t in TOKENS for t in got)
    if kind == "indexop":
        nonzero = [[t != "0" for t in row] for row in got]
        return len(got) == 5 and all(sum(r) == 1 for r in nonzero) and all(
            sum(c) == 1 for c in zip(*nonzero)
        )
    return (
        got["total"] == 1024
        and got["e0_orbit_count"] == 12
        and sum(got["class_counts"].values()) == 1024
    )


# --- workloads -----------------------------------------------------------------

def setup_verify(q) -> None:
    pass


def setup_stream(q) -> None:
    # The canonical frames are the only ones transport reaches from them.
    for f in q.phasespace.canonical_shift_vectors():
        q.wigner.frame(f)


setup_cli = setup_verify


def measure_verify(q, seed, seconds, traced) -> dict:
    scope_s = {}
    failed = 0
    for scope, expect in VERIFY_SCOPES:
        out = io.StringIO()
        error = ""
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = q.cli.main(["verify", scope])
        except Exception:
            code, error = None, traceback.format_exc()
        scope_s[scope] = time.perf_counter() - start
        if code != 0 or not out.getvalue().startswith(expect):
            failed += 1
            report_failure(f"verify {scope}: exit {code}, output {out.getvalue()!r}", error)
    return {
        "attempted": len(VERIFY_SCOPES),
        "failed": failed,
        "latency_s": [sum(scope_s.values())],
        "scope_s": scope_s,
    }


def _transport(q, rho, f, L):
    rho2, _, table = q.wigner.transport(rho, f, L)
    return rho2, q.wigner.reconstruct(table)


def measure_stream(q, seed, seconds, traced) -> dict:
    inputs = stream_inputs(random.Random(seed), q)
    latency = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        kind, rho, mixed, f, L = next(inputs)
        attempted += 1
        error = ""
        start = time.perf_counter()
        try:
            if mixed:
                q.wigner.validate_density(rho)
            if kind == "transport":
                result = _transport(q, rho, f, L)
            else:
                result = q.wigner.marginal_check(rho, f)
        except Exception:
            result, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - start
        ok = result is not None and (
            result[0] == result[1] if kind == "transport" else result["lines"] == 20
        )
        if ok:
            latency.append(elapsed)
        else:
            failed += 1
            report_failure(f"stream {kind} request {attempted}", error)
    return {"attempted": attempted, "failed": failed, "latency_s": latency}


def measure_cli(q, seed, seconds, traced) -> dict:
    inputs = cli_inputs(random.Random(seed), q)
    command = [sys.executable, str(PROBE)] if traced else [sys.executable, "-m", "qphase4.cli"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    latency = []
    probes = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        kind, argv = next(inputs)
        attempted += 1
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                command + argv, cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=CALL_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            proc = None
        elapsed = time.perf_counter() - start
        try:
            ok = proc is not None and proc.returncode == 0 and cli_output_ok(q, kind, argv, proc.stdout)
        except (ValueError, KeyError, TypeError, IndexError):
            ok = False
        if not ok:
            failed += 1
            report_failure(f"qphase4 {' '.join(argv)}", proc.stderr[-2000:] if proc else "timed out")
            continue
        latency.append(elapsed)
        if traced:
            probe = json.loads(proc.stderr.rsplit("PERFBENCH ", 1)[1])
            probe["interpreter_s"] = elapsed - probe.pop("in_process_s")
            probes.append(probe)
    return {
        "attempted": attempted,
        "failed": failed,
        "latency_s": latency,
        "probes": probes,
        "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }


WORKLOADS = {
    "verify": (setup_verify, measure_verify),
    "stream": (setup_stream, measure_stream),
    "cli": (setup_cli, measure_cli),
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    # On SIGTERM unwind normally: subprocess.run then kills and reaps its command.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    setup, measure = WORKLOADS[args.workload]

    start = time.perf_counter()
    import qphase4.cli  # also imports every other qphase4 module

    import_s = time.perf_counter() - start
    q = sys.modules["qphase4"]
    setup(q)
    print(f"ready {time.perf_counter() - START!r} {import_s!r}", flush=True)
    if args.setup_only:
        return 0

    # cli commands are traced inside their own processes, by cli_probe.py.
    tracer = spans.Tracer().install() if args.trace and args.workload != "cli" else None
    caches = spans.cache_counts()
    result = measure(q, args.seed, args.seconds, args.trace)
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.stats
        result["caches"] = spans.cache_delta(caches, spans.cache_counts())
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
