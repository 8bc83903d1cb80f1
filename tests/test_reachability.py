"""Every function in src runs when the CLI's commands and the benchmark's
library calls run, so src holds no code that only the tests reach.

Run as a script, this file traces calls (not lines) from the first import of
qphase4 on, in a fresh interpreter so that import-time calls count and every
cache starts empty, and prints the src functions that never ran.
"""

import io
import json
import pathlib
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

#: Functions that may go uncalled: a repr serves only debugging, a hash only
#: callers that put the object in a set or dict, and cli's FAIL-line writer
#: and wigner's replay of a packed sweep's failing step only a failed check,
#: which working code never makes (tests/test_cli.py reaches each through
#: the FAIL lines it pins).
MAY_GO_UNCALLED = {"__repr__", "__hash__", "_fail", "_replay"}

G = "[[W,0],[0,w]]"
VECTOR = json.dumps({"vector": [{"re": [1, 3], "im": [2, 5]}, {"re": [-1, 1], "im": [0, 1]},
                                {"re": [0, 1], "im": [1, 1]}, {"re": [2, 1], "im": [-3, 2]}]})
DENSITY = json.dumps({"density": [[{"re": [int(i == j == 0), 1], "im": [0, 1]} for j in range(4)]
                                  for i in range(4)]})

#: Every command in text and --json form; verify all runs each of the six
#: scopes.  The last lines are the error paths: parse, domain, state, usage.
CLI_COMMANDS = [
    ["tables"], ["census"], ["census", "--json"], ["verify", "all"],
    *([command, G, *json_flag] for command in ("decompose", "unitary", "shift", "indexop")
      for json_flag in ([], ["--json"])),
    ["wigner", "--state", "up*right"],
    ["wigner", "--json", "--state", VECTOR, "--frame", "1,w,W,0,1"],
    ["apply", "--state", DENSITY, G, "D[w,1]"],
    ["apply", "--json", "--state", "left*down", "--frame", "0,1,w,W,1", G, "D[1,W]"],
    ["decompose", "[[1,2],[0,1]]"], ["wigner", "--state", "up*up", "--frame", "1,w"],
    ["apply", "--state", "up*up", "D[5,1]"],
    ["shift", "[[1,1],[1,1]]"],
    ["wigner", "--state", "up*sideways"], ["wigner", "--state", "@no/such/file.json"],
    ["wigner", "--state", '{"vector": [1, 2]}'],
    ["nosuch"],
]


def benchmark_calls():
    """The library calls perfbench/worker.py makes besides running the CLI,
    listed apart so that a call the benchmark drops is dropped here too.
    Stream set-up builds the canonical frames; a stream request draws a
    Gaussian vector, may mix two states and validate the mixture, then
    transports and reconstructs or checks marginals; the cli workload's
    output checks rebuild a decomposition's matrix and test a unitary."""
    from qphase4 import cli, clifford, exact, phasespace, symplectic, wigner

    frames = phasespace.canonical_shift_vectors()
    for f in frames:
        wigner.frame(f)
    vector = [exact.Scalar(1, -1), exact.Scalar(0), exact.Scalar(2), exact.Scalar(0, 1)]
    assert not all(s.is_zero() for s in vector)
    a, b = wigner.density_from_vector(vector), wigner.density_from_vector([1, 0, 0, 1])
    rho = wigner.validate_density(a.scaled(Fraction(1, 4)) + b.scaled(Fraction(3, 4)))
    L = symplectic.enumerate_group()[17]
    rho2, _, table = wigner.transport(rho, frames[3], L)
    assert wigner.reconstruct(table) == rho2
    assert wigner.marginal_check(rho, frames[3])["lines"] == 20
    d = symplectic.decompose(L)
    assert symplectic.Decomposition(d.r, d.x, d.s).matrix() == cli.parse_matrix(
        symplectic.to_text(L))
    assert exact.Matrix.from_json(clifford.unitary_for(L).to_json()).is_unitary()


def uncalled() -> list[str]:
    """file:line name of each src function that never ran, outside MAY_GO_UNCALLED."""
    called = set()

    def trace(frame, event, arg):  # 'call' events only: returning None traces no lines
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.settrace(trace)
    try:
        from qphase4 import cli

        for argv in CLI_COMMANDS:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                cli.main(argv)
        benchmark_calls()
    finally:
        sys.settrace(None)
    import qphase4

    missing = []
    for path in sorted(pathlib.Path(qphase4.__path__[0]).glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if hasattr(c, "co_code")]
            # Modules, comprehensions and generator expressions are not functions.
            if (not code.co_name.startswith("<") and code.co_name not in MAY_GO_UNCALLED
                    and (code.co_filename, code.co_firstlineno) not in called):
                missing.append(f"{path.name}:{code.co_firstlineno} {code.co_name}")
    return sorted(missing)


def test_every_src_function_runs_under_the_cli_or_the_benchmark():
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


if __name__ == "__main__":
    print(json.dumps(uncalled()))
