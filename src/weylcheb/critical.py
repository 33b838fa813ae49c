"""Critical and post-critical structure checks: sampling of the reflection
walls, vanishing of the map's Jacobian at the images of their strict
preimages, the critical values landing where the scaled walls map, and the
deltoid identity in the A2 case.  That d times a wall point lies on a wall
holds by integer arithmetic and is not re-checked.

The image of the wall arrangement under the generalized cosine carries no
general implicit equation here; it is handled by sampling, except for A2
where the classical deltoid quartic is available in closed form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import mpmath
import numpy as np

from .chebmap import (GencosPair, PolynomialMap, _needed_dps, chunked,
                      eval_polys_fixed, fixed_distances, fixed_to_mpc,
                      jacobian_polys)
from .gencos import eval_gencos, is_on_diagram
from .rootsys import Root, RootSystem

STRICT_PREIMAGE_TOL = 1e-6  # wall-avoidance margin for "strict preimage" samples
_IM_SCALE = 0.15            # imaginary spread of wall samples


@dataclass
class DiagramSample:
    """A sampled point on one wall <v, x> = ell."""

    wall: tuple          # (Root, ell)
    point: np.ndarray    # complex, coroot coordinates


@dataclass
class PostCriticalReport:
    type_spec: str
    d: int
    samples: int
    tol: float
    det_residuals: list = field(default_factory=list)
    value_residuals: list = field(default_factory=list)
    skipped: int = 0

    @property
    def max_det_residual(self):
        return float(max(self.det_residuals, default=0.0))

    @property
    def max_value_residual(self):
        return float(max(self.value_residuals, default=0.0))

    @property
    def passed(self) -> bool:
        return bool(self.max_det_residual <= self.tol
                    and self.max_value_residual <= self.tol)

    def as_dict(self) -> dict:
        return {
            "type_spec": self.type_spec,
            "d": self.d,
            "samples": self.samples,
            "skipped": self.skipped,
            "max_det_residual": self.max_det_residual,
            "max_value_residual": self.max_value_residual,
            "tol": self.tol,
            "pass": self.passed,
        }


def _pivot(w) -> int:
    """The coordinate a wall equation with coefficients w is solved for."""
    return int(np.argmax(np.abs(w)))


def sample_diagram_points(rs: RootSystem, count: int,
                          ell_range=(-2, -1, 0, 1, 2),
                          seed: int = 0) -> list:
    """Deterministic wall samples: pick a root and an integer level, fill the
    n-1 free coordinates at random, and solve the wall equation for the
    remaining one."""
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


def post_critical_check(rs: RootSystem, d: int, pmap: PolynomialMap,
                        samples: int = 50, tol: float = 1e-7,
                        seed: int = 0) -> PostCriticalReport:
    """At points y with d*y on a wall but y itself off the walls, the exact
    symbolic Jacobian of the map must be singular at the image of y, and the
    image point must again be an image of a wall point (checked through the
    intertwining identity).

    Degenerate draws (y on a wall itself, e.g. when the level is divisible by
    d) are flagged in `skipped` and redrawn until `samples` strict-preimage
    points have been found.

    The points are then evaluated in batches of CHECK_CHUNK, all at the
    precision _needed_dps gives for the largest |Im y_j| of all of them:
    gencos(y) and gencos(d*y) by GencosPair, the Jacobian entries and
    T_d(gencos y) on the same fixed-point values by eval_polys_fixed.  Only
    the Jacobian entries become mpc, for the determinant.
    """
    report = PostCriticalReport(rs.type_spec, d, samples, tol)
    preimages = []
    batch = 0
    while len(preimages) < samples and batch < 40:
        wall_samples = sample_diagram_points(rs, samples, seed=seed + 1000 * batch)
        batch += 1
        for s in wall_samples:
            if len(preimages) >= samples:
                break
            y = s.point / d
            on, _ = is_on_diagram(rs, y, STRICT_PREIMAGE_TOL)
            if on:
                # degenerate: y sits on a wall itself, not a strict preimage
                report.skipped += 1
                continue
            preimages.append((s.wall, y))
    n = rs.rank
    h = max((float(np.abs(y.imag).max()) for _, y in preimages), default=0.0)
    # in float64 the gencos, the Jacobian entries and the determinant were
    # off by about 4e-6 on G2 6, above tol
    polys = [*(p for row in jacobian_polys(pmap) for p in row),
             *pmap.components]
    with mpmath.workdps(_needed_dps(rs, d, h)):
        pair = GencosPair(rs, d)
        for chunk in chunked(preimages):
            ys = [_on_wall(y, wall, d) for wall, y in chunk]
            P, gy, gdy = pair(ys)
            vals = eval_polys_fixed(polys, gy, P)
            entries = [fixed_to_mpc(v, P) for v in vals[:n * n]]
            for k in range(len(ys)):
                jt = [[entries[i * n + j][k] for j in range(n)]
                      for i in range(n)]
                report.det_residuals.append(float(abs(_det(jt))))
            # critical value lands where the scaled wall point maps
            report.value_residuals.extend(
                fixed_distances(vals[n * n:], gdy, P))
    return report


def _on_wall(y, wall, d) -> list:
    """y as mpc, with its pivot coordinate solved again from the wall
    <v, d*y> = ell at the working precision.  The float64 point sits about
    1e-17 off its wall, and the determinant there grows with that offset
    times the Jacobian entries: on B6 2, C6 2 and E7 2 past tol."""
    v, ell = wall
    w = v.weight_coords
    pivot = _pivot(w)
    y = [mpmath.mpc(c) for c in y]
    y[pivot] = (mpmath.mpf(ell) / d
                - mpmath.fsum(w[j] * y[j] for j in range(len(y)) if j != pivot)
                ) / w[pivot]
    return y


def _det(m):
    """Determinant by Gaussian elimination with partial pivoting, in the
    arithmetic of the entries (mpmath.det is about 3x slower on these
    small matrices)."""
    m = [list(row) for row in m]
    n = len(m)
    out = 1
    for i in range(n):
        p = max(range(i, n), key=lambda r: abs(m[r][i]))
        if p != i:
            m[i], m[p] = m[p], m[i]
            out = -out
        piv = m[i][i]
        if not piv:
            return piv
        out *= piv
        for r in range(i + 1, n):
            f = m[r][i] / piv
            for c in range(i + 1, n):
                m[r][c] -= f * m[i][c]
    return out


def deltoid_residual(x1: complex, x2: complex) -> complex:
    """Residual of the deltoid quartic X1^2 X2^2 + 18 X1 X2 - 4(X1^3 + X2^3) - 27."""
    return x1 * x1 * x2 * x2 + 18 * x1 * x2 - 4 * (x1 ** 3 + x2 ** 3) - 27


def deltoid_check(rs: RootSystem, samples: int = 100, seed: int = 0):
    """Images of wall samples under the A2 generalized cosine satisfy the
    deltoid equation.  Returns the list of |residual| values."""
    if rs.type_spec != "A2":
        raise ValueError("the deltoid identity is specific to A2")
    points = [s.point for s in sample_diagram_points(rs, samples, seed=seed)]
    x1, x2 = eval_gencos(rs, np.array(points)).T
    return np.abs(deltoid_residual(x1, x2)).tolist()
