"""Numerical evaluation of the generalized cosine, its Jacobian, wall
membership, and path lifting through the covering it defines off the
reflection-hyperplane arrangement.

Component k of the map is the sum of exp(2*pi*i*<lam, x>) over the Weyl orbit
of the k-th fundamental weight.  In rank one this is 2*cos(2*pi*x), the
t + 1/t normalization of the classical cosine (the two classical scalings are
dynamically conjugate, so downstream polynomial maps are unaffected).

One kernel computes both the values and the Jacobian, at one point or a
batch of points, from the fundamental orbits stacked into one row matrix
(rootsys.fundamental_orbit_table): e = exp(2 pi i rows @ x) once, the
values are the sums of e over each orbit's rows, and Jacobian entry (k, j)
is 2 pi i times the sum of e * lam_j over orbit k.  A Newton iterate of the
path lifting takes one kernel call, and a sampled loop one batched call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ContinuationError, DeckMatchError, DimensionError, NearSingularError
from .rootsys import (
    AffineElement,
    RootSystem,
    fundamental_orbit_table,
    invert_fraction,
    mat_vec,
    orbit_matrix,
    weyl_group_elements,
)

TWO_PI_I = 2j * np.pi

# path lifting: Newton tolerance and iterations per step, the first and the
# smallest step in t, and the Jacobian condition estimate taken as a wall
NEWTON_TOL = 1e-10
MAX_NEWTON_ITERS = 25
INITIAL_STEP = 1.0 / 64
MIN_STEP = 1.0 / 65536
JACOBIAN_CONDITION_CAP = 1e8


@dataclass
class PathSample:
    """A discretized path: strictly increasing times in [0, 1] and one complex
    point (coroot coordinates) per time."""

    times: np.ndarray
    points: np.ndarray  # shape (m, n)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.points = np.asarray(self.points, dtype=complex)
        if self.points.ndim == 1:
            self.points = self.points[:, None]
        if abs(self.times[0]) > 1e-15 or abs(self.times[-1] - 1.0) > 1e-15:
            raise ValueError("path times must run from 0 to 1")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("path times must be strictly increasing")

    def at(self, t: float) -> np.ndarray:
        """Piecewise-linear interpolation."""
        ts = self.times
        if t <= ts[0]:
            return self.points[0]
        if t >= ts[-1]:
            return self.points[-1]
        i = int(np.searchsorted(ts, t))
        t0, t1 = ts[i - 1], ts[i]
        a = (t - t0) / (t1 - t0)
        return (1 - a) * self.points[i - 1] + a * self.points[i]


def _kernel(rs: RootSystem, x, jacobian: bool):
    """The generalized cosine at x, a point of shape (n,) or a batch of
    shape (S, n), and with `jacobian` its Jacobian, (n, n) per point."""
    x = np.asarray(x, dtype=complex)
    if x.ndim not in (1, 2) or x.shape[-1] != rs.rank:
        raise DimensionError(f"point has shape {x.shape}, expected "
                             f"({rs.rank},) or (S, {rs.rank})")
    rows, starts = fundamental_orbit_table(rs)
    e = np.exp(TWO_PI_I * (x @ rows.T))
    values = np.add.reduceat(e, starts, axis=-1)
    if not jacobian:
        return values
    return values, TWO_PI_I * np.add.reduceat(e[..., None] * rows, starts,
                                              axis=-2)


def eval_gencos(rs: RootSystem, x) -> np.ndarray:
    """The generalized cosine at a complex point x (coroot coordinates), or
    at each row of an (S, n) array of points.  perfbench/tracer.py counts
    its calls by name."""
    return _kernel(rs, x, jacobian=False)


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


def gencos_jacobian(rs: RootSystem, x) -> np.ndarray:
    """Jacobian matrix: entry (k, j) = 2*pi*i * sum_lam lam_j e^{2 pi i lam.x}
    (one per point for an (S, n) array of points)."""
    return _kernel(rs, x, jacobian=True)[1]


def regular_direction(rs: RootSystem):
    """The sum of the fundamental weights, in coroot coordinates: an interior
    point of the fundamental chamber, so it pairs nonzero with every root."""
    ginv = invert_fraction(rs.gram)
    ones = tuple([Fraction(1)] * rs.rank)
    return mat_vec(ginv, ones)


def is_on_diagram(rs: RootSystem, x, tol: float):
    """Whether x lies within tol of some reflection wall <v, x> = ell,
    ell integer.  Returns (bool, witness) with witness = (root, ell)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = np.asarray(x, dtype=complex)
    for v in rs.roots:
        p = complex(np.dot(np.array(v.weight_coords), x))
        if abs(p.imag) > tol:
            continue
        ell = int(round(p.real))
        if abs(p - ell) <= tol:
            return True, (v, ell)
    return False, None


def lift_path(rs: RootSystem, target_path: PathSample, y_start) -> PathSample:
    """Lift a path through the generalized cosine by predictor-corrector
    Newton continuation, starting from a known preimage of the path's start.

    Steps halve on Newton divergence down to MIN_STEP (ContinuationError
    beyond that); a Jacobian condition estimate above JACOBIAN_CONDITION_CAP
    at an accepted point raises NearSingularError, signalling that the path
    strayed too close to the walls or their image.
    """
    y = np.asarray(y_start, dtype=complex).copy()
    start_res = np.abs(eval_gencos(rs, y) - target_path.at(0.0)).max()
    if start_res > NEWTON_TOL * 10:
        raise ValueError(f"y_start is not a preimage of the path start "
                         f"(residual {start_res:.3e})")
    on, wit = is_on_diagram(rs, y, 1e-9)
    if on:
        raise ValueError(f"y_start lies on a reflection wall {wit}")

    times = [0.0]
    points = [y.copy()]
    t = 0.0
    step = INITIAL_STEP
    while t < 1.0 - 1e-15:
        h = min(step, 1.0 - t)
        target = target_path.at(t + h)
        y_new, jac = _newton(rs, y, target)
        if jac is not None:
            badness = _condition_estimate(jac)
            if badness > JACOBIAN_CONDITION_CAP:
                raise NearSingularError(
                    f"Jacobian condition estimate {badness:.3e} above cap "
                    f"{JACOBIAN_CONDITION_CAP:.0e} at t={t + h:.6f} "
                    f"(step {h:.3e})")
            t += h
            y = y_new
            times.append(t)
            points.append(y.copy())
            step = min(INITIAL_STEP, step * 2.0)
        else:
            step *= 0.5
            if step < MIN_STEP:
                raise ContinuationError(
                    f"continuation stalled at t={t:.6f} (step below "
                    f"{MIN_STEP})")
    times[-1] = 1.0
    return PathSample(np.array(times), np.array(points))


def _newton(rs: RootSystem, y0: np.ndarray, target: np.ndarray):
    """Newton's method for gencos(y) = target from y0, one kernel call per
    iterate.  Returns (y, Jacobian at y) on convergence, (y, None) when the
    iteration diverges or leaves its basin."""
    y = y0.copy()
    for _ in range(MAX_NEWTON_ITERS):
        values, jac = _kernel(rs, y, jacobian=True)
        res = values - target
        if np.abs(res).max() <= NEWTON_TOL:
            return y, jac
        try:
            delta = np.linalg.solve(jac, res)
        except np.linalg.LinAlgError:
            return y, None
        if not np.abs(delta).max() <= 0.5:
            # left the basin (or not finite); let the caller shrink the step
            return y, None
        y = y - delta
    return y, None


def _condition_estimate(jac: np.ndarray) -> float:
    """max(|J|_1 |J^-1|_1, |J^-1|_1) from one inverse, inf when J is
    singular.  The plain condition number is blind in rank one (it is 1 for
    every nonzero 1x1 matrix); the inverse norm catches walls there."""
    try:
        inv_norm = np.abs(np.linalg.inv(jac)).sum(axis=0).max()
    except np.linalg.LinAlgError:
        return float("inf")
    est = max(np.abs(jac).sum(axis=0).max() * inv_norm, inv_norm)
    return float(est) if np.isfinite(est) else float("inf")


def deck_identify(rs: RootSystem, y0, y1, tol: float = 1e-7) -> AffineElement:
    """Find the affine Weyl element g with g(y0) = y1, assuming y0 and y1 lie
    in one fiber of the generalized cosine.  The translation part must round
    to an exact integer vector within tol."""
    y0 = np.asarray(y0, dtype=complex)
    y1 = np.asarray(y1, dtype=complex)
    for w in weyl_group_elements(rs):
        r = y1 - np.array(w.coroot_matrix) @ y0
        if np.abs(r.imag).max() > tol:
            continue
        t = np.round(r.real).astype(int)
        if np.abs(r - t).max() <= tol:
            return AffineElement(tuple(int(c) for c in t), w)
    raise DeckMatchError(
        "no affine Weyl element maps y0 to y1 within tolerance "
        f"{tol} (points may lie in different fibers)")
