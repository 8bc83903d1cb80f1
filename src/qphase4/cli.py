"""Command-line surface: tables, decomposition, Wigner rendering, transport,
census, and the exhaustive verification suites.

Exit codes: 0 pass, 1 verification counterexample, 2 parse error,
3 domain error (non-symplectic input), 4 invalid state, 141 (128 + SIGPIPE)
when the reader of stdout went away before the command could fail.  Any
other exception is a failed check as well: one line
"FAIL <scope>: <Type>: <message>" inside a verify scope, or
"FAIL <command>: <Type>: <message>" outside verify, and exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import lru_cache
from typing import NoReturn

from . import clifford, gf4, phasespace, symplectic, wigner
from .exact import Matrix, Scalar
from .single_qubit import single_qubit_demo
from .symplectic import DomainError
from .wigner import StateError

EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_STATE = 4
EXIT_PIPE = 141  # what a shell reports for a filter ended by SIGPIPE


class ParseError(Exception):
    pass


# ---------------------------------------------------------------------------
# parsing

_MAT_RE = re.compile(
    r"\[\[([01wW]),([01wW])\],\[([01wW]),([01wW])\]\]"
)


def parse_matrix(text: str) -> gf4.Mat2:
    m = _MAT_RE.fullmatch(re.sub(r"\s+", "", text))
    if not m:
        raise ParseError(f"cannot parse matrix: {text!r} (expected [[a,b],[c,d]])")
    a, b, c, d = (gf4.from_token(t) for t in m.groups())
    return ((a, b), (c, d))


def parse_frame(text: str) -> phasespace.Index:
    toks = [t.strip() for t in text.split(",")]
    if len(toks) != 5:
        raise ParseError(f"frame needs 5 components: {text!r}")
    try:
        return tuple(gf4.from_token(t) for t in toks)
    except ValueError as e:
        raise ParseError(str(e)) from None


_NAMED_FACTORS = {
    "up": (1, 0),
    "down": (0, 1),
    "right": (1, 1),
    "left": (1, -1),
}


#: Longest @file state read, in characters (a state at MAX_JSON_DIGITS is under 10 KB).
MAX_STATE_FILE_CHARS = 1 << 20


def parse_state(text: str) -> Matrix:
    text = text.strip()
    if text.startswith("@"):
        try:
            with open(text[1:], encoding="utf-8") as fh:
                data = fh.read(MAX_STATE_FILE_CHARS + 1)
            if len(data) > MAX_STATE_FILE_CHARS:
                raise ValueError(f"longer than {MAX_STATE_FILE_CHARS} characters")
            obj = json.loads(data)
        except (OSError, RecursionError, ValueError) as e:
            raise StateError(f"cannot read state file: {e}") from None
        return _state_from_json(obj)
    if text.startswith("{") or text.startswith("["):
        try:
            obj = json.loads(text)
        except (RecursionError, ValueError) as e:
            raise StateError(f"bad state JSON: {e}") from None
        return _state_from_json(obj)
    parts = text.split("*")
    if len(parts) == 2 and all(p in _NAMED_FACTORS for p in parts):
        f1 = _NAMED_FACTORS[parts[0]]
        f2 = _NAMED_FACTORS[parts[1]]
        amps = [a * b for a in f1 for b in f2]
        return wigner.density_from_vector(amps)
    raise StateError(
        f"cannot parse state {text!r} (expected name*name, JSON, or @file)"
    )


def _state_from_json(obj) -> Matrix:
    keys = [key for key in ("vector", "density") if isinstance(obj, dict) and key in obj]
    if len(keys) == 2:
        raise StateError('state JSON must contain "vector" or "density", not both')
    if not keys:
        raise StateError('state JSON must contain "vector" or "density"')
    if len(obj) > 1:
        extra = ", ".join(json.dumps(key) for key in obj if key != keys[0])
        raise StateError(f'state JSON has keys other than "{keys[0]}": {extra}')
    try:
        # Each shape is checked before any entry is read: parsing scales every
        # density entry to one denominator.
        if keys == ["vector"]:
            entries = obj["vector"]
            if not (isinstance(entries, list) and len(entries) == 4):
                raise StateError("state vector must be a list of 4 entries")
            return wigner.density_from_vector(map(Scalar.from_json, entries))
        rows = obj["density"]
        if not (isinstance(rows, list) and len(rows) == 4
                and all(isinstance(row, list) and len(row) == 4 for row in rows)):
            raise StateError("density operator must be 4x4")
        return wigner.validate_density(Matrix.from_json(rows))
    except (TypeError, ValueError) as e:
        raise StateError(str(e)) from None


def parse_op(text: str):
    """An op is either a symplectic matrix or a displacement D[q,p]."""
    stripped = re.sub(r"\s+", "", text)
    m = re.fullmatch(r"D\[([01wW]),([01wW])\]", stripped)
    if m:
        return ("displace", (gf4.from_token(m.group(1)), gf4.from_token(m.group(2))))
    if stripped.startswith("D["):
        raise ParseError(f"cannot parse displacement: {text!r} "
                         f"(expected D[q,p] with tokens 0,1,w,W)")
    return ("symplectic", parse_matrix(stripped))


# ---------------------------------------------------------------------------
# rendering

def fmt_scalar(s: Scalar) -> str:
    if s.im == 0:
        return str(s.re)
    im = f"{abs(s.im)}i"
    if im == "1i":
        im = "i"
    if s.re == 0:
        return im if s.im > 0 else "-" + im
    sign = "+" if s.im > 0 else "-"
    return f"{s.re}{sign}{im}"


def fmt_operator(m: Matrix) -> str:
    cells = [[fmt_scalar(v) for v in row] for row in m.rows]
    width = max(len(c) for row in cells for c in row)
    return "\n".join("  ".join(c.rjust(width) for c in row) for row in cells)


def fmt_index(f) -> str:
    return "[" + ",".join(gf4.to_token(x) for x in f) + "]"


def _index_json(f) -> list:
    return [gf4.to_token(x) for x in f]


_AXIS_ORDER = gf4.ELEMENTS  # always 0, 1, w, w~


def _field_table(op, symbol: str) -> str:
    head = symbol.ljust(2) + " | " + "  ".join(gf4.to_ascii(b).ljust(2) for b in _AXIS_ORDER)
    sep = "---+" + "-" * (len(head) - 4)
    lines = [head, sep]
    for a in _AXIS_ORDER:
        row = "  ".join(gf4.to_ascii(op(a, b)).ljust(2) for b in _AXIS_ORDER)
        lines.append(gf4.to_ascii(a).ljust(2) + " | " + row)
    return "\n".join(lines)


def render_tables() -> str:
    parts = [
        "GF(4) addition",
        _field_table(gf4.add, "+"),
        "",
        "GF(4) multiplication",
        _field_table(gf4.mul, "x"),
        "",
        "Displacement operators (rows: b_p top-down w~,w,1,0; columns: b_q 0,1,w,w~)",
    ]
    for p in reversed(_AXIS_ORDER):
        row = "  ".join(
            clifford.displacement_name((q, p)).ljust(4) for q in _AXIS_ORDER
        )
        parts.append(f" {gf4.to_ascii(p).ljust(2)}| {row}")
    parts.append("     " + "   ".join(gf4.to_ascii(q).ljust(3) for q in _AXIS_ORDER))
    return "\n".join(parts)


# Arrows of the product states mub_vector(n, k) at 4n + k: up/down (n = 0), right/left (n = 1).
_ARROWS = ("^^", "vv", "^v", "v^", "->->", "<-<-", "-><-", "<-->")


def render_wigner(table: wigner.WignerTable) -> str:
    cells = {a: str(v) for a, v in table.values.items()}
    # Column q is line q of striation 0, row p is line 4 + p of striation 1.
    arrows = [_ARROWS[label] for label in wigner.line_labels(table.f)[:8]]
    width = max(3, max(len(c) for c in cells.values()))
    lines = [f"frame {fmt_index(table.f)}"]
    for p in reversed(_AXIS_ORDER):
        row = "  ".join(cells[(q, p)].rjust(width) for q in _AXIS_ORDER)
        lines.append(f" {gf4.to_ascii(p).ljust(2)}| {row} | {arrows[4 + p]}")
    lines.append("     " + "  ".join(gf4.to_ascii(q).rjust(width) for q in _AXIS_ORDER))
    lines.append("     " + "  ".join(arrows[q].rjust(width) for q in _AXIS_ORDER))
    return "\n".join(lines)


def _table_json(table: wigner.WignerTable) -> dict:
    # axis order 0,1,w,w~; rows p descending so the origin is lower-left.
    values = table.values
    return {
        "f": _index_json(table.f),
        "values": [
            [[values[(q, p)].numerator, values[(q, p)].denominator] for q in _AXIS_ORDER]
            for p in reversed(_AXIS_ORDER)
        ],
    }


# ---------------------------------------------------------------------------
# commands

def cmd_tables(args) -> int:
    print(render_tables())
    return 0


def cmd_decompose(args) -> int:
    d = symplectic.decompose(parse_matrix(args.matrix))
    if args.json:
        print(json.dumps({"r": d.r, "x": gf4.to_token(d.x), "s": d.s}))
    else:
        print(str(d))
    return 0


def cmd_unitary(args) -> int:
    u = clifford.unitary_for(parse_matrix(args.matrix))
    print(json.dumps(u.to_json()) if args.json else fmt_operator(u))
    return 0


def cmd_shift(args) -> int:
    f = phasespace.shift_vector(parse_matrix(args.matrix))
    print(json.dumps(_index_json(f)) if args.json else fmt_index(f))
    return 0


def cmd_indexop(args) -> int:
    s = phasespace.index_operator(parse_matrix(args.matrix))
    if args.json:
        print(json.dumps([[gf4.to_token(v) for v in row] for row in s]))
    else:
        for row in s:
            print("  ".join(gf4.to_ascii(v).ljust(2) for v in row))
    return 0


def cmd_wigner(args) -> int:
    rho = parse_state(args.state)
    f = phasespace.ZERO_INDEX if args.frame is None else parse_frame(args.frame)
    table = wigner.wigner_table(rho, f)
    print(json.dumps(_table_json(table)) if args.json else render_wigner(table))
    return 0


def cmd_apply(args) -> int:
    rho = parse_state(args.state)
    f = phasespace.ZERO_INDEX if args.frame is None else parse_frame(args.frame)
    steps = [("initial", rho, wigner.wigner_table(rho, f))]
    for kind, op in map(parse_op, args.ops):  # parsed one by one, each before it is performed
        step = {"displace": wigner.displacement_step, "symplectic": wigner.transport_step}[kind](op)
        rho, f, table = wigner.perform(rho, f, step)
        steps.append((step.name, rho, table))
    if args.json:
        print(
            json.dumps(
                [
                    {"op": name, "state": r.to_json(), "table": _table_json(t)}
                    for name, r, t in steps
                ]
            )
        )
    else:
        for name, r, t in steps:
            print(f"== {name}")
            print(fmt_operator(r))
            print(render_wigner(t))
            print()
    return 0


def cmd_census(args) -> int:
    rep = wigner.census()
    if args.json:
        out = {
            "total": rep["total"],
            "class_counts": {gf4.to_token(k): v for k, v in rep["class_counts"].items()},
            "orbit_counts": {gf4.to_token(k): v for k, v in rep["orbit_counts"].items()},
            "e0_orbit_count": rep["e0_orbit_count"],
            "e0_member_count": rep["e0_member_count"],
        }
        print(json.dumps(out))
    else:
        print(f"definitions: {rep['total']}")
        print(f"similarity classes: {len(rep['class_counts'])}")
        print(f"E=0 equivalence classes: {rep['e0_orbit_count']}")
        print(f"E=0 members: {rep['e0_member_count']}")
        for e, count in rep["class_counts"].items():
            orbits = rep["orbit_counts"][e]
            print(f"  E={gf4.to_ascii(e)}: {count} definitions in {orbits} classes")
    return 0


def _verify_metaplectic() -> str:
    n = clifford.verify_metaplectic()["checked"]
    return f"metaplectic: {n}/{n} signs in {{+1,-1}}"


def _verify_rep() -> str:
    n = clifford.verify_projective_rep()["checked"]
    return f"rep: {n}/{n} pairs, phases in {{1,i,-1,-i}}"


def _verify_transport() -> str:
    count = wigner.transport_sweep()
    return f"transport: {count}/{count} (L, frame, state) triples exact"


def _verify_marginals() -> str:
    rep = wigner.marginal_sweep()
    return (f"marginals: {rep['pairs']}/{rep['pairs']} (frame, state) pairs, "
            f"{rep['lines']} lines + {rep['displacements']} displacements each")


def _verify_symmetry() -> str:
    rep = wigner.rotational_symmetry_check(*symplectic.enumerate_group())
    count = rep["rotations"]
    cycled = "all" if rep["striations_cycled"] == 5 else rep["striations_cycled"]
    return (f"symmetry: {count}/{count} conjugated rotations, "
            f"period {rep['period']}, {cycled} striations cycled")


def _verify_single_qubit() -> str:
    single_qubit_demo()
    return "single-qubit: rotation covariance, reinterpretation, reflection obstruction"


_VERIFY_SCOPES = {
    "metaplectic": _verify_metaplectic,
    "rep": _verify_rep,
    "transport": _verify_transport,
    "marginals": _verify_marginals,
    "symmetry": _verify_symmetry,
    "single-qubit": _verify_single_qubit,
}


def _fail(where: str, e: Exception) -> int:
    """Print e's one FAIL line, naming its type unless it is a counterexample."""
    detail = e if isinstance(e, AssertionError) else f"{type(e).__name__}: {e}"
    print(f"FAIL {where}: {detail}", file=sys.stderr)
    return EXIT_FAIL


def cmd_verify(args) -> int:
    scopes = list(_VERIFY_SCOPES) if args.scope == "all" else [args.scope]
    for scope in scopes:
        try:
            line = _VERIFY_SCOPES[scope]()
        except Exception as e:  # a counterexample, or a fault in the checked code
            return _fail(scope, e)
        print(line)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors in one line, like every other parse error;
    the subcommands' parsers are of this class too."""

    def error(self, message: str) -> NoReturn:
        print(f"parse error: {self.prog}: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


@lru_cache(maxsize=1)  # one tree per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qphase4",
        description="Exact two-qubit discrete phase space over GF(4)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="field tables and the displacement grid").set_defaults(
        func=cmd_tables
    )

    for name, func, help_text in (
        ("decompose", cmd_decompose, "canonical R^r H_x R^s factorization"),
        ("unitary", cmd_unitary, "exact unitary for a symplectic matrix"),
        ("shift", cmd_shift, "shift vector f_L"),
        ("indexop", cmd_indexop, "index operator S_L"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("matrix", help="[[a,b],[c,d]] with tokens 0,1,w,W")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=func)

    p = sub.add_parser("wigner", help="render a Wigner table")
    p.add_argument("--state", required=True, help="name*name, JSON, or @file.json")
    p.add_argument("--frame", help="f0,f1,f2,f3,f4 with tokens 0,1,w,W")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("apply", help="fold transport over a list of operations")
    p.add_argument("--state", required=True)
    p.add_argument("--frame")
    p.add_argument("--json", action="store_true")
    p.add_argument("ops", nargs="*", help="symplectic matrices or D[q,p] displacements")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("census", help="classify all 1024 frame definitions")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", help="run exhaustive verification suites")
    p.add_argument("scope", choices=["all", *_VERIFY_SCOPES])
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # bad usage has printed its one parse-error line; --help exits 0
        return int(e.code or 0)
    code = 0
    try:
        code = args.func(args)
        if sys.stdout is not None:  # None when started with no fd 1: print discards
            sys.stdout.flush()  # a reader that went away shows here, not at exit
        return code
    except BrokenPipeError:
        # Nothing more can be read: point stdout at /dev/null so the flush at exit succeeds.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code or EXIT_PIPE  # a command that already failed keeps its code
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as e:
        print(f"domain error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except StateError as e:
        print(f"invalid state: {e}", file=sys.stderr)
        return EXIT_STATE
    except Exception as e:  # a counterexample or a fault outside verify, e.g. in apply
        return _fail(args.command, e)


if __name__ == "__main__":
    sys.exit(main())
