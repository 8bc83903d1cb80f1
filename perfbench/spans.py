"""Aggregated call spans around qphase4's public functions, installed from outside.

A wrapper replaces the attribute that every caller resolves through: the
module global, every copy of the name imported into another qphase4 module
(``cli`` and ``wigner`` import ``single_qubit_demo`` by name, ``clifford``
imports ``proportional``), or the method on its class (``Matrix.__matmul__``).
Spans are folded into per-name totals as they close instead of being kept,
because a verify sweep opens several hundred thousand of them.

``gf4`` gets no wrapper: its functions are table lookups cheaper than a
wrapper, and their cost shows up in the ``phasespace`` and ``symplectic``
spans that call them.
"""

from __future__ import annotations

import importlib
import sys
import time
from functools import wraps

_PARSE = ("parse_matrix", "parse_frame", "parse_state", "parse_op", "build_parser")
_RENDER = ("render_tables", "render_wigner", "fmt_operator", "fmt_index",
           "_table_json", "_index_json")

# metric prefix -> (module, attribute) pairs that share one span name;
# "Class.method" names a method.  A span nested in one of the same name adds
# to the count and self time but not again to the inclusive time.
SPANS = {
    "exact.matmul": [("qphase4.exact", "Matrix.__matmul__")],
    "exact.proportional": [("qphase4.exact", "proportional")],
    "clifford.verify_metaplectic": [("qphase4.clifford", "verify_metaplectic")],
    "clifford.verify_projective_rep": [("qphase4.clifford", "verify_projective_rep")],
    "clifford.born_probability": [("qphase4.clifford", "born_probability")],
    "wigner.frame": [("qphase4.wigner", "frame")],
    "wigner.wigner_table": [("qphase4.wigner", "wigner_table")],
    "wigner.transport": [("qphase4.wigner", "transport")],
    "wigner.reconstruct": [("qphase4.wigner", "reconstruct")],
    "wigner.marginal_check": [("qphase4.wigner", "marginal_check")],
    "wigner.rotational_symmetry_check": [("qphase4.wigner", "rotational_symmetry_check")],
    "wigner.validate_density": [("qphase4.wigner", "validate_density")],
    "wigner.census": [("qphase4.wigner", "census")],
    "phasespace.compose_frame": [("qphase4.phasespace", "compose_frame")],
    "symplectic.decompose": [("qphase4.symplectic", "decompose")],
    "symplectic.enumerate_group": [("qphase4.symplectic", "enumerate_group")],
    "single_qubit.single_qubit_demo": [("qphase4.single_qubit", "single_qubit_demo")],
    # Command-line parsing and rendering, argparse and json.dumps included.
    "cli.parse": [("argparse", "ArgumentParser.parse_args")]
    + [("qphase4.cli", name) for name in _PARSE],
    "cli.render": [("json", "dumps"), ("qphase4.exact", "Matrix.to_json")]
    + [("qphase4.cli", name) for name in _RENDER],
}

# metric prefix -> (module, attribute) of an lru_cache whose cache_info is read.
CACHES = {
    "clifford.unitary_for": ("qphase4.clifford", "unitary_for"),
    "clifford.displacement": ("qphase4.clifford", "displacement"),
    "clifford.mub_vector": ("qphase4.clifford", "mub_vector"),
    "wigner.frame": ("qphase4.wigner", "frame"),
    "wigner.wigner_table": ("qphase4.wigner", "wigner_table"),
    "phasespace.index_operator": ("qphase4.phasespace", "index_operator"),
    "phasespace.shift_vector": ("qphase4.phasespace", "shift_vector"),
}


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Per-name call counts, outermost inclusive time and self time."""

    def __init__(self):
        self.stats = {}  # name -> [calls, outermost inclusive s, self s]
        self._open = []  # child time covered so far, one entry per open span
        self._depth = {}  # name -> number of open spans with that name
        self._undo = []

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        depth = self._depth
        depth.setdefault(name, 0)
        clock = time.perf_counter

        @wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[name] -= 1
                child = open_spans.pop()
                stats[0] += 1
                if depth[name] == 0:
                    stats[1] += elapsed
                stats[2] += elapsed - child
                if open_spans:
                    open_spans[-1] += elapsed

        return span

    def patch(self, name: str, owner, attr: str) -> None:
        """Wrap owner.attr and every qphase4 module global bound to it."""
        orig = getattr(owner, attr)
        wrapped = self.wrap(name, orig)
        targets = [(owner, attr)]
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "qphase4" and mod is not owner:
                targets += [(mod, k) for k, v in vars(mod).items() if v is orig]
        for obj, key in targets:
            setattr(obj, key, wrapped)
            self._undo.append((obj, key, orig))

    def install(self) -> "Tracer":
        for name, targets in SPANS.items():
            for module, attr in targets:
                self.patch(name, *_resolve(module, attr))
        return self

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()


def cache_counts() -> dict:
    """name -> [hits, misses, currsize] for every cache in CACHES."""
    out = {}
    for name, (module, attr) in CACHES.items():
        fn = getattr(*_resolve(module, attr))
        if not hasattr(fn, "cache_info"):  # a span wrapper around the cache
            fn = fn.__wrapped__
        info = fn.cache_info()
        out[name] = [info.hits, info.misses, info.currsize]
    return out


def cache_delta(before: dict, after: dict) -> dict:
    """Hits and misses between two cache_counts() snapshots; currsize at the end."""
    return {
        name: [h - before[name][0], m - before[name][1], size]
        for name, (h, m, size) in after.items()
    }
