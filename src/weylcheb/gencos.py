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
is 2 pi i times the sum of e * lam_j over orbit k.  A sampled loop takes
one batched call.

Path lifting (lift_paths) carries a batch of paths, sampled on one time
grid, along one step schedule: each Newton iterate is one kernel call on the
still-unconverged paths and one stacked solve, each accepted step one
stacked inverse for the condition estimates, and the value and Jacobian at
an accepted point are the next step's first iterate.  lift_path is the
batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContinuationError, DeckMatchError, DimensionError, NearSingularError
from .rootsys import (
    AffineElement,
    RootSystem,
    fundamental_orbit_table,
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
    points: np.ndarray  # shape (m, n), or (m, P, n) for a batch of P paths

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
    """Lift one path through the generalized cosine from a known preimage of
    its start: lift_paths on a batch of one."""
    y_start = np.asarray(y_start, dtype=complex)
    lifted = lift_paths(rs, target_path.times, target_path.points[:, None],
                        y_start[None])
    return PathSample(lifted.times, lifted.points[:, 0])


def lift_paths(rs: RootSystem, times, points, y_starts) -> PathSample:
    """Lift P paths through the generalized cosine by predictor-corrector
    Newton continuation on one shared step schedule.  The paths are sampled
    on one time grid, `points` of shape (m, P, n), and y_starts (P, n) are
    known preimages of their starts; the lift is a PathSample whose points
    have shape (m', P, n), one row of P points per accepted time.

    Each Newton iterate makes one kernel call on the unconverged paths and
    one stacked solve; the value and Jacobian at each accepted point carry
    into the next step's first iterate.  A Newton failure on any path halves
    the step for all of them, down to MIN_STEP (ContinuationError beyond
    that); a Jacobian condition estimate above JACOBIAN_CONDITION_CAP at an
    accepted point raises NearSingularError, signalling that a path strayed
    too close to the walls or their image.  Both errors name the failing
    path's index, t, the step and the value reached.
    """
    target = PathSample(times, points)
    y = np.array(y_starts, dtype=complex)
    if y.ndim != 2 or target.points.shape[1:] != y.shape:
        raise DimensionError(f"starts have shape {y.shape}, paths "
                             f"{target.points.shape}")
    values, jac = _kernel(rs, y, jacobian=True)
    start_res = np.abs(values - target.points[0]).max(axis=1)
    for i, y_i in enumerate(y):
        if not start_res[i] <= NEWTON_TOL * 10:
            raise ValueError(f"path {i}: y_start is not a preimage of the "
                             f"path start (residual {start_res[i]:.3e})")
        on, wit = is_on_diagram(rs, y_i, 1e-9)
        if on:
            raise ValueError(f"path {i}: y_start lies on a reflection wall "
                             f"{wit}")

    lifted_times = [0.0]
    lifted_points = [y]
    t = 0.0
    step = INITIAL_STEP
    while t < 1.0 - 1e-15:
        h = min(step, 1.0 - t)
        y_new, values_new, jac_new, failed = _newton(
            rs, y, values, jac, target.at(t + h))
        if failed is None:
            est = _condition_estimate(jac_new)
            i = int(np.argmax(est))
            if est[i] > JACOBIAN_CONDITION_CAP:
                raise NearSingularError(
                    f"path {i}: Jacobian condition estimate {est[i]:.3e} "
                    f"above cap {JACOBIAN_CONDITION_CAP:.0e} at "
                    f"t={t + h:.6f} (step {h:.3e})",
                    path=i, t=t + h, step=h, value=float(est[i]))
            t += h
            y, values, jac = y_new, values_new, jac_new
            lifted_times.append(t)
            lifted_points.append(y)
            step = min(INITIAL_STEP, step * 2.0)
        else:
            step *= 0.5
            if step < MIN_STEP:
                i, res = failed
                raise ContinuationError(
                    f"path {i}: continuation stalled at t={t:.6f} (step "
                    f"{h:.3e}, halved below {MIN_STEP}; last Newton "
                    f"residual {res:.3e})",
                    path=i, t=t, step=h, value=res)
    lifted_times[-1] = 1.0
    return PathSample(np.array(lifted_times), np.array(lifted_points))


def _newton(rs: RootSystem, y, values, jac, target):
    """Newton's method for gencos(y) = target on a batch of paths, from the
    points y with their values and Jacobians: one kernel call on the
    unconverged paths and one stacked solve per iterate.

    Returns (y, values, Jacobians, None) at convergence.  When any path
    diverges, leaves its basin (|delta| > 0.5) or meets a singular
    Jacobian, returns three Nones and (that path's index, its last
    residual)."""
    y_out, values_out, jac_out = (np.empty_like(a) for a in (y, values, jac))
    index = np.arange(len(y))
    for it in range(MAX_NEWTON_ITERS):
        if it:
            values, jac = _kernel(rs, y, jacobian=True)
        res = values - target
        err = np.abs(res).max(axis=1)
        done = err <= NEWTON_TOL
        if done.any():
            at = index[done]
            y_out[at] = y[done]
            values_out[at] = values[done]
            jac_out[at] = jac[done]
            if done.all():
                return y_out, values_out, jac_out, None
            keep = ~done
            index, y, jac, target, res, err = (
                a[keep] for a in (index, y, jac, target, res, err))
        try:
            delta = np.linalg.solve(jac, res[..., None])[..., 0]
            # left the basin, or not finite
            bad = ~(np.abs(delta).max(axis=1) <= 0.5)
        except np.linalg.LinAlgError:
            # a member is exactly singular: name it
            delta, bad = None, np.linalg.det(jac) == 0
        if delta is None or bad.any():
            i = int(np.argmax(bad))
            return None, None, None, (int(index[i]), float(err[i]))
        y = y - delta
    i = int(np.argmax(err))
    return None, None, None, (int(index[i]), float(err[i]))


def _condition_estimate(jac: np.ndarray):
    """max(|J|_1 |J^-1|_1, |J^-1|_1) for each matrix of a stack (or for one
    matrix) from one stacked inverse, inf where J is singular.  The plain
    condition number is blind in rank one (it is 1 for every nonzero 1x1
    matrix); the inverse norm catches walls there."""
    jac = np.asarray(jac)
    try:
        inv = np.linalg.inv(jac)
    except np.linalg.LinAlgError:
        # a member is exactly singular: invert the others, NaN marks the rest
        ok = np.linalg.det(jac) != 0
        inv = np.full(jac.shape, np.nan, dtype=jac.dtype)
        inv[ok] = np.linalg.inv(jac[ok])
    inv_norm = np.abs(inv).sum(axis=-2).max(axis=-1)
    est = np.maximum(np.abs(jac).sum(axis=-2).max(axis=-1) * inv_norm,
                     inv_norm)
    return np.where(np.isfinite(est), est, np.inf)[()]


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
