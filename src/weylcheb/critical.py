"""Critical and post-critical structure checks: sampling of the reflection
walls, vanishing of the map's Jacobian at the images of their strict
preimages, the critical values landing where the scaled walls map, and the
deltoid identity in the A2 case.

The post-critical check is exact modulo a prime.  With z_j = e^{2 pi i y_j}
and E(z)_{kj} = sum_{lam in W omega_k} lam_j z^lam, differentiating
T_d(G(z)) = G(z^d) (G the generalized cosine) gives
J_T(G(z)) E(z) = d E(z^d), so

    det J_T(G(z)) det E(z) = d^n det E(z^d)    in Z[z^{+-1}].

det E(z) is the Weyl denominator up to a constant factor (Bourbaki, Lie
Groups, ch. VI sec. 3): it vanishes exactly where z^u = 1 for some root u.
So at z in (F_p^*)^n with z^{d v} = 1 for a root v (d y lies on a wall)
and z^u != 1 for every root u (y is a strict preimage), det J_T(G(z)) = 0
and T_d(G(z)) = G(z^d) (mod p): the map is critical there, and its
critical value is the image of the scaled wall point.

Drawing the points (wall_preimages_mod).  p is drawn from the seed in
[2^30, 2^31) with p = 1 (mod L), L = d lcm(m), m = |w_k| the pivot
coefficient of a root's weight coordinates w, so that F_p^* holds a
primitive L-th root of unity.  Each draw takes a root v and a level ell,
as sample_diagram_points does, the free coordinates z_j = t_j^m with t_j
uniform in [1, p - 1], and the pivot z_k = (c prod_{j != k} t_j^{-w_j})^s,
s the sign of w_k and c a primitive dm-th root of unity to the power ell:
then z^v = c^m is a d-th root of unity, so z^{d v} = 1.  A draw with some
z^u = 1 (always when d divides ell) is counted in `skipped` and redrawn.

Miss bound.  A residual R(z) that is not zero on the drawn wall is, in
the free parameters t, a Laurent polynomial whose degree in t_j is at most
m (deg_j R + deg_k R), deg_j the spread of R's exponents of z_j.  By
Schwartz-Zippel (Schwartz, JACM 27, 1980) it vanishes at a uniform t with
probability at most m sum_{j != k} (deg_j R + deg_k R) / (p - 1): the
functional check's bound, times at most m, with z_k's degree folded in.  A
wrong map whose error vanishes on every wall preimage cannot be seen: on
A1 2 every critical point has X = 0, so a +1 on X_1^2 passes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .chebmap import (PolynomialMap, centred, draw_prime, eval_polys_mod,
                      field_batch, gencos_pair_mod, inverse_mod,
                      jacobian_polys, monomials_mod)
from .gencos import eval_gencos
from .rootsys import RootSystem

_IM_SCALE = 0.15            # imaginary spread of wall samples
LEVELS = (-2, -1, 0, 1, 2)  # wall levels <v, x> = ell drawn by both samplers
MAX_BATCHES = 40            # batches of `samples` draws before giving up


@dataclass
class DiagramSample:
    """A sampled point on one wall <v, x> = ell."""

    wall: tuple          # (Root, ell)
    point: np.ndarray    # complex, coroot coordinates


@dataclass
class PostCriticalReport:
    """The post-critical check modulo `prime`: per sample, |det J_T| and the
    largest |T_d(G(z)) - G(z^d)|, exact integers (representatives in
    (-p/2, p/2]), 0 when the identities hold.  `witness` names the first
    failing sample: its index, the check (`det` or `value`), the component
    (from 0; None for `det`), its wall and z as residues mod prime.  `tol`
    bounds the float deltoid check that `verify-postcritical` runs beside
    this one on A2; the exact residuals here pass only at 0."""
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
        """Every one of `samples` strict preimages was found and checked,
        and every residual is 0."""
        return bool(len(self.det_residuals) == self.samples
                    and self.witness is None)

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


def _primitive_root_of_unity(rng: random.Random, p: int, order: int) -> int:
    """A primitive order-th root of unity mod p (order dividing p - 1):
    r^{(p-1)/order} for seeded r, until no r^{order/q} is 1, q prime."""
    primes = [q for q in range(2, order + 1)
              if order % q == 0 and all(q % f for f in range(2, q))]
    while True:
        root = pow(rng.randrange(2, p), (p - 1) // order, p)
        if all(pow(root, order // q, p) != 1 for q in primes):
            return root


def wall_preimages_mod(rs: RootSystem, d: int, samples: int,
                       seed: int = 0) -> tuple:
    """(p, z, walls, skipped): the prime, then up to `samples` points z (an
    (S, n) int64 array of residues) with z^{d v} = 1 and z^u != 1 for every
    root u, each with its wall (v, ell), all drawn from random.Random(seed)
    as the module docstring describes, and the count of draws skipped for
    some z^u = 1.  Draws come in batches of `samples`, at most MAX_BATCHES
    of them, so fewer than `samples` points come back only when that many
    batches yield too few."""
    rng = random.Random(seed)
    pivots = []  # (root, pivot k, m = |w_k|, w_k > 0)
    for v in rs.roots:
        k = _pivot(v.weight_coords)
        pivots.append((v, k, abs(v.weight_coords[k]), v.weight_coords[k] > 0))
    lcm = math.lcm(*(m for _, _, m, _ in pivots))
    p = draw_prime(rng, d * lcm)
    zeta = _primitive_root_of_unity(rng, p, d * lcm)
    unity = [pow(zeta, e, p) for e in range(d * lcm)]
    roots = np.array([v.weight_coords for v in rs.roots], dtype=np.int64)
    points, walls, skipped = [], [], 0
    for _ in range(MAX_BATCHES):
        if len(points) == samples:
            break
        draws = []
        for _ in range(samples):
            v, k, m, positive = rng.choice(pivots)
            ell = rng.choice(LEVELS)
            # z_k = (num / den)^{sign w_k} solves z^v = c^m, where
            # c = zeta^{ell lcm / m}: c^m = (zeta^lcm)^ell, a d-th root of 1
            num, den = unity[lcm // m * ell % (d * lcm)], 1
            z = [0] * rs.rank
            for j, wj in enumerate(v.weight_coords):
                if j != k:
                    t = rng.randrange(1, p)
                    z[j] = pow(t, m, p)
                    if wj > 0:
                        den = den * pow(t, wj, p) % p
                    elif wj < 0:
                        num = num * pow(t, -wj, p) % p
            if not positive:
                num, den = den, num
            z[k] = num * pow(den, -1, p) % p
            draws.append(((v, ell), z))
        z = np.array([zi for _, zi in draws], dtype=np.int64)
        strict = (monomials_mod(z, roots, p) != 1).all(axis=1)
        for (wall, zi), ok in zip(draws, strict.tolist()):
            if len(points) == samples:
                break
            if ok:
                points.append(zi)
                walls.append(wall)
            else:
                skipped += 1
    return (p, np.array(points, dtype=np.int64).reshape(-1, rs.rank), walls,
            skipped)


def det_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Determinants modulo p of a batch of square matrices, an (S, n, n)
    int64 array of residues: an (S,) array of residues, by Gaussian
    elimination mod p over the whole batch.  In each column the first row at
    or below the diagonal with a nonzero entry is swapped up, negating the
    determinant; a column with none makes it 0."""
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
        factor = a[:, k + 1:, k] * inverse_mod(top[:, k], p)[:, None] % p
        a[:, k + 1:, k:] = (a[:, k + 1:, k:]
                            - factor[:, :, None] * top[:, None, k:] % p) % p
    return det


def post_critical_check(rs: RootSystem, d: int, pmap: PolynomialMap,
                        samples: int = 50, tol: float = 1e-7,
                        seed: int = 0) -> PostCriticalReport:
    """At `samples` points y with d*y on a wall but y itself off the walls,
    the map's Jacobian must be singular at G(y), and T_d(G(y)) must be
    G(d*y): both checked exactly modulo a prime, at the points
    wall_preimages_mod draws (see the module docstring).  The Jacobian
    entries and T_d are evaluated on gencos_pair_mod's values by
    eval_polys_mod, and the determinant by det_mod, in batches of
    field_batch points.  A check that finds fewer than `samples` strict
    preimages does not pass."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    p, z, walls, skipped = wall_preimages_mod(rs, d, samples, seed)
    n = rs.rank
    polys = [*(q for row in jacobian_polys(pmap) for q in row),
             *pmap.components]
    det, value = np.zeros(0, np.int64), np.zeros((0, n), np.int64)
    size = field_batch(rs)
    for lo in range(0, len(z), size):
        gy, gdy = gencos_pair_mod(rs, d, z[lo:lo + size], p)
        vals = eval_polys_mod(polys, gy, p)
        det = np.append(det, det_mod(vals[:, :n * n].reshape(-1, n, n), p))
        value = np.vstack([value, (vals[:, n * n:] - gdy) % p])
    det, value = np.abs(centred(det, p)), np.abs(centred(value, p))
    worst = value.max(axis=1, initial=0)
    witness = None
    bad = np.flatnonzero(det + worst)
    if len(bad):
        i = int(bad[0])
        v, ell = walls[i]
        in_det = bool(det[i])
        witness = {
            "sample": i, "check": "det" if in_det else "value",
            "component": None if in_det else int(np.flatnonzero(value[i])[0]),
            "wall": {"weight_coords": list(v.weight_coords), "level": ell},
            "z": z[i].tolist()}
    return PostCriticalReport(rs.type_spec, d, samples, tol, p, det.tolist(),
                              worst.tolist(), skipped, witness)


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
