"""Critical and post-critical structure checks, exact modulo a prime.  The
float wall sampler and the A2 deltoid identity are kept for tests and for
perfbench/tracer.py, which wraps them by name; no CLI verb runs them.

With z_j = e^{2 pi i y_j}, G the generalized cosine and
E(z)_{kj} = sum_{lam in W omega_k} lam_j z^lam, differentiating
T_d(G(z)) = G(z^d) in log z gives J_T(G(z)) E(z) = d E(z^d), so the
functional identity implies the Jacobian one.  Post-criticality rests on
one more fact, that det E is the Weyl denominator (Bourbaki, Lie Groups,
ch. VI sec. 3):

    det E(z) z^rho = prod_{a > 0} (z^a - 1)    in Z[z^{+-1}],

rho = (1, ..., 1) in weight coordinates.  The constant is 1: the highest
term z^{2 rho} of both sides has coefficient 1, and in det E z^rho it
comes only from the diagonal, lam = omega_k in row k.  post_critical_check
tests this identity and T_d(G(z)) = G(z^d) at the points of (F_p^*)^n the
functional check draws (draw_points), G and E evaluated at z
(chebmap.residuals_mod_p).  det E vanishes exactly on the walls, where
z^a = 1 for some root a.  So off the walls det J_T(G(z)) = 0 iff z^d is
on a wall, and every critical value T_d(G(z)) = G(z^d) (G maps onto C^n)
lies in D = G(walls); and T_d(G(walls)) = G(d walls) lies in D.

Miss bound.  A map that breaks either identity survives a uniform point
of (F_p^*)^n with probability at most deg/(p - 1), deg the residual's
degree, unless p divides all its coefficients (Schwartz, JACM 27, 1980).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .chebmap import (PolynomialMap, centred, draw_points, monomials_mod,
                      power_mod, residuals_mod_p)
from .gencos import eval_gencos
from .rootsys import RootSystem, positive_root_rows

_IM_SCALE = 0.15            # imaginary spread of wall samples
LEVELS = (-2, -1, 0, 1, 2)  # wall levels <v, x> = ell of the wall sampler


@dataclass
class DiagramSample:
    """A sampled point on one wall <v, x> = ell."""

    wall: tuple          # (Root, ell)
    point: np.ndarray    # complex, coroot coordinates


@dataclass
class PostCriticalReport:
    """The post-critical check modulo `prime`: per sample, the det residual
    |det E(z) z^rho - prod_{a > 0} (z^a - 1)| and the largest
    |T_d(G(z)) - G(z^d)|, exact integers (representatives in (-p/2, p/2]),
    0 when the identities hold.  `skipped` counts the samples on a wall
    mod prime, det E(z) = 0; they are checked all the same.  `witness`
    names the first failing sample: its index, the check (`det` for the
    denominator identity, `value` for the functional one), the component
    (from 0; None for `det`) and z as residues mod prime.  The residuals
    pass only at 0; `tol` bounds nothing and stays in the report and its
    JSON because perfbench/tracer.py reads it."""
    type_spec: str
    d: int
    samples: int
    tol: float
    prime: int = 0
    det_residuals: list = field(default_factory=list)
    value_residuals: list = field(default_factory=list)
    skipped: int = 0
    witness: dict | None = None

    @property
    def max_det_residual(self) -> int:
        return max(self.det_residuals, default=0)

    @property
    def max_value_residual(self) -> int:
        return max(self.value_residuals, default=0)

    @property
    def passed(self) -> bool:
        """Every residual is 0."""
        return self.witness is None

    def as_dict(self) -> dict:
        return {
            "type_spec": self.type_spec,
            "d": self.d,
            "samples": self.samples,
            "skipped": self.skipped,
            "prime": self.prime,
            "max_det_residual": self.max_det_residual,
            "max_value_residual": self.max_value_residual,
            "tol": self.tol,
            "witness": self.witness,
            "pass": self.passed,
        }


def _pivot(w) -> int:
    """The coordinate a wall equation with coefficients w is solved for."""
    return int(np.argmax(np.abs(w)))


def sample_diagram_points(rs: RootSystem, count: int, ell_range=LEVELS,
                          seed: int = 0) -> list:
    """Deterministic wall samples: pick a root and an integer level, fill the
    n-1 free coordinates at random, and solve the wall equation for the
    remaining one.  Float points for tests; perfbench/tracer.py wraps it
    by name."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = random.Random(seed)
    ells = list(ell_range)
    out = []
    for _ in range(count):
        v = rng.choice(rs.roots)
        ell = rng.choice(ells)
        w = np.array(v.weight_coords)
        pivot = _pivot(w)
        x = np.zeros(rs.rank, dtype=complex)
        for j in range(rs.rank):
            if j == pivot:
                continue
            x[j] = complex(rng.uniform(-1, 1),
                           rng.uniform(-_IM_SCALE, _IM_SCALE))
        x[pivot] = (ell - np.dot(np.delete(w, pivot), np.delete(x, pivot))) / w[pivot]
        out.append(DiagramSample((v, ell), x))
    return out


def det_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Determinants modulo p of a batch of square matrices, an (S, n, n)
    int64 array of residues: an (S,) array of residues, by Gaussian
    elimination mod p over the whole batch, pivots inverted by power_mod.
    In each column the first row at or below the diagonal with a nonzero
    entry is swapped up, negating the determinant; a column with none
    makes it 0."""
    a = a.copy()
    size, n, _ = a.shape
    det = np.ones(size, dtype=np.int64)
    at = np.arange(size)
    for k in range(n):
        nonzero = a[:, k:, k] != 0
        r = k + nonzero.argmax(axis=1)
        det = np.where(r != k, (p - det) % p, det)
        top = a[at, r].copy()
        a[at, r] = a[:, k]
        a[:, k] = top
        # a column without a pivot leaves a zero here, and the det 0
        det = det * top[:, k] % p
        inv = power_mod(top[:, k], p - 2, p)
        factor = a[:, k + 1:, k] * inv[:, None] % p
        a[:, k + 1:, k:] = (a[:, k + 1:, k:]
                            - factor[:, :, None] * top[:, None, k:] % p) % p
    return det


def post_critical_check(rs: RootSystem, d: int, pmap: PolynomialMap,
                        samples: int = 50, tol: float = 1e-7,
                        seed: int = 0) -> PostCriticalReport:
    """At `samples` points z drawn by draw_points, exactly modulo a prime:
    det E(z) z^rho = prod_{a > 0} (z^a - 1) and T_d(G(z)) = G(z^d) (see
    the module docstring), from one residuals_mod_p call (the residuals
    and E(z)), one det_mod call and one monomials_mod call (the z^a).  A
    degree d below 1 raises ValueError; `tol` is only carried into the
    report (see PostCriticalReport)."""
    p, z = draw_points(rs, samples, seed)
    res, ez = residuals_mod_p(rs, d, pmap, z, p)
    det_ez = det_mod(ez, p)
    lhs, rhs = det_ez, np.ones_like(det_ez)
    for zj in z.T:
        lhs = lhs * zj % p
    for za in monomials_mod(z, positive_root_rows(rs), p).T:
        rhs = rhs * (za - 1) % p
    det = np.abs(centred((lhs - rhs) % p, p))
    worst = np.abs(res).max(axis=1)
    witness = None
    bad = np.flatnonzero(det + worst)
    if len(bad):
        i = int(bad[0])
        in_det = bool(det[i])
        witness = {
            "sample": i, "check": "det" if in_det else "value",
            "component": None if in_det else int(np.flatnonzero(res[i])[0]),
            "z": z[i].tolist()}
    return PostCriticalReport(rs.type_spec, d, samples, tol, p, det.tolist(),
                              worst.tolist(), int((det_ez == 0).sum()),
                              witness)


def deltoid_residual(x1: complex, x2: complex) -> complex:
    """Residual of the deltoid quartic
    X1^2 X2^2 + 18 X1 X2 - 4(X1^3 + X2^3) - 27, the image of the A2 walls
    under gencos."""
    return x1 * x1 * x2 * x2 + 18 * x1 * x2 - 4 * (x1 ** 3 + x2 ** 3) - 27


def deltoid_check(rs: RootSystem, samples: int = 100, seed: int = 0):
    """Images of wall samples under the A2 generalized cosine satisfy the
    deltoid equation.  Returns the list of |residual| values.  A float
    check of a fixed fact, independent of T_d: tests run it, and it stays
    because perfbench/tracer.py wraps it by name."""
    if rs.type_spec != "A2":
        raise ValueError("the deltoid identity is specific to A2")
    points = [s.point for s in sample_diagram_points(rs, samples, seed=seed)]
    x1, x2 = eval_gencos(rs, np.array(points)).T
    return np.abs(deltoid_residual(x1, x2)).tolist()
