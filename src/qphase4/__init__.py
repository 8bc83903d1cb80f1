"""Exact two-qubit discrete phase space over GF(4).

Modules: gf4 (field arithmetic), exact (integer-numerator Gaussian-rational
matrices and the packed product kernel), symplectic (the 60-element group),
clifford (displacements, metaplectic unitaries, MUBs), phasespace (index
calculus), wigner (frames, tables, transport, classification), single_qubit
(the single-qubit demonstration), cli.
"""

from . import clifford, gf4, phasespace, symplectic, wigner  # noqa: F401

__all__ = ["clifford", "gf4", "phasespace", "symplectic", "wigner"]
__version__ = "0.1.0"
