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

import numpy as np

from .chebmap import (GencosPair, PolynomialMap, _div, _mul, _sqrt_float,
                      check_precision, chunked, eval_polys_fixed,
                      fixed_distances, fixed_exp, jacobian_polys)
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
        """Every one of `samples` strict preimages was found and checked,
        and both residuals are within tol."""
        return bool(len(self.det_residuals) == self.samples
                    and self.max_det_residual <= self.tol
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

    The points are then evaluated in batches of CHECK_CHUNK, all in the
    fixed point check_precision gives for the largest |Im y_j| of all of
    them: z = e^{2 pi i y} with each pivot solved again from its wall
    (_on_walls), gencos(y) and gencos(d*y) by GencosPair, and the Jacobian
    entries and T_d(gencos y) on the same fixed-point values by
    eval_polys_fixed.  The determinant of those entries is exact
    (bareiss_det), so the only error left in it is the entries', as bounded
    in eval_polys_fixed.  A check that finds fewer than `samples` strict
    preimages in 40 batches of draws does not pass.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
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
    P = check_precision(rs, d, h)
    pair = GencosPair(rs, d)
    for chunk in chunked(preimages):
        gy, gdy = pair(_on_walls(chunk, d, P), P)
        vals = eval_polys_fixed(polys, gy, P)
        for k in range(len(chunk)):
            jac = [[(vals[i * n + j][0][k], vals[i * n + j][1][k])
                    for j in range(n)] for i in range(n)]
            re, im = bareiss_det(jac)
            report.det_residuals.append(_sqrt_float(re * re + im * im, n * P))
        # critical value lands where the scaled wall point maps
        report.value_residuals.extend(fixed_distances(vals[n * n:], gdy, P))
    return report


def _power(u, k: int, P: int) -> tuple:
    """u^k (k >= 0) of a fixed-point value, by repeated squaring."""
    out = (1 << P, 0)
    while k:
        if k & 1:
            out = _mul(out, u, P)
        k >>= 1
        if k:
            u = _mul(u, u, P)
    return out


def _on_walls(chunk, d: int, P: int) -> list:
    """z = e^{2 pi i y} for a batch of (wall, y), as fixed_exp gives it, with
    each pivot coordinate solved again from its wall.

    d*y on the wall <v, x> = ell means prod_j z_j^{d w_j} = 1, w the weight
    coordinates of v.  With the other coordinates fixed, the pivot's z_p
    solves u^m = c, m = d |w_p| and c = prod_{j != p} z_j^{-s d w_j}, s the
    sign of w_p: wall_root from z_p's float64 value, which picks the root
    of y's own branch.  The float64 point sits about 1e-17 off its wall,
    and the determinant there grows with that offset times the Jacobian
    entries: on B6 2, C6 2 and E7 2 past tol."""
    z = fixed_exp([y for _, y in chunk], P)
    one = (1 << P, 0)
    for k, ((v, _), _) in enumerate(chunk):
        w = v.weight_coords
        p = _pivot(w)
        s = 1 if w[p] > 0 else -1
        c = one
        for j, wj in enumerate(w):
            e = -s * d * wj
            if j != p and e:
                zj = (z[j][0][k], z[j][1][k])
                f = zj if e > 0 else _div(one, zj, P)
                c = _mul(c, _power(f, abs(e), P), P)
        z[p][0][k], z[p][1][k] = wall_root(
            c, d * abs(w[p]), (z[p][0][k], z[p][1][k]), P)
    return z


def wall_root(c, m: int, u0, P: int) -> tuple:
    """The root of u^m = c (m >= 1) that u0 is near, all fixed-point values
    of P fractional bits given as pairs of ints, by Newton's method from
    u0: u <- u - (u^m - c) / (m u^{m-1}).  From a start within about 2^-46
    of a root (relative), as a float64 exponential is, each step squares
    the relative error (times about m / 2), so ceil(log2(P / 48)) + 1
    steps reach 2^-P; one more is taken for margin."""
    u = u0
    for _ in range((P // 48).bit_length() + 2):
        pw = _power(u, m - 1, P)
        f = _mul(pw, u, P)
        step = _div((f[0] - c[0], f[1] - c[1]), (m * pw[0], m * pw[1]), P)
        u = (u[0] - step[0], u[1] - step[1])
    return u


def bareiss_det(m) -> tuple:
    """Determinant of a square matrix over the Gaussian integers, entries
    and result pairs (re, im) of ints, exactly, by Bareiss's fraction-free
    elimination (Bareiss, Math. Comp. 22, 1968): every entry stays a minor
    of m, so each division by the previous pivot is exact.  A zero pivot is
    swapped for a row below with a nonzero entry, or the determinant is 0;
    an inexact division raises ArithmeticError."""
    m = [list(row) for row in m]
    n = len(m)
    sign = 1
    pr, pi = 1, 0  # the previous pivot
    for k in range(n - 1):
        if m[k][k] == (0, 0):
            r = next((r for r in range(k + 1, n) if m[r][k] != (0, 0)), None)
            if r is None:
                return 0, 0
            m[k], m[r] = m[r], m[k]
            sign = -sign
        top = m[k]
        a, b = top[k]
        norm = pr * pr + pi * pi
        for row in m[k + 1:]:
            c, s = row[k]
            for j in range(k + 1, n):
                (e, f), (g, t) = row[j], top[j]
                # (row[j] * pivot - row[k] * top[j]) / previous pivot
                re = e * a - f * b - c * g + s * t
                im = e * b + f * a - c * t - s * g
                qr, rr = divmod(re * pr + im * pi, norm)
                qi, ri = divmod(im * pr - re * pi, norm)
                if rr or ri:
                    raise ArithmeticError(
                        f"Bareiss step {k}: ({re}, {im}) is not a multiple "
                        f"of the pivot ({pr}, {pi})")
                row[j] = qr, qi
        pr, pi = a, b
    re, im = m[-1][-1]
    return sign * re, sign * im


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
