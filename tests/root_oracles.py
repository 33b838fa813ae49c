"""Slow, direct forms of root-system facts the program computes another
way, kept as test oracles: an orbit's rows sliced from the stacked table,
the positive roots by the signs of their coefficients, and the generalized
cosine as a stabilizer-normalized sum over the whole Weyl group."""

from __future__ import annotations

import numpy as np

from weylcheb.gencos import TWO_PI_I
from weylcheb.rootsys import (RootSystem, fundamental_orbit_table,
                              weyl_group_elements)


def orbit_matrix(rs: RootSystem, k: int) -> np.ndarray:
    """Integer matrix whose rows are the orbit of the k-th fundamental
    weight: a read-only slice of fundamental_orbit_table."""
    rows, starts = fundamental_orbit_table(rs)
    end = starts[k + 1] if k + 1 < rs.rank else len(rows)
    return rows[starts[k]:end]


def positive_roots(rs: RootSystem):
    """Roots whose simple-coroot coefficients are nonnegative: v^vee is a
    positive multiple of v, and each simple coroot of its simple root, so
    the signs are those of the simple-root coefficients."""
    return tuple(v for v in rs.roots if min(v.coroot_coords) >= 0)


def eval_gencos_fullsum(rs: RootSystem, x) -> np.ndarray:
    """Stabilizer-normalized full-Weyl-group sum; must agree with
    eval_gencos (cross-check of the two equivalent formulas)."""
    x = np.asarray(x, dtype=complex)
    elements = weyl_group_elements(rs)
    out = np.empty(rs.rank, dtype=complex)
    for k in range(rs.rank):
        wk = rs.fundamental_weight(k)
        images = np.array([w.apply_weight(wk) for w in elements], dtype=np.int64)
        total = np.exp(TWO_PI_I * (images @ x)).sum()
        stab = len(elements) // len(orbit_matrix(rs, k))
        out[k] = total / stab
    return out
