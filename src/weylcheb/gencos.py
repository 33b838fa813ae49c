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
is 2 pi i times the sum of e * lam_j over orbit k.

Path lifting (lift_paths) carries a batch of paths, each given by its exact
value at any time t, along one dyadic step schedule: each Newton iterate is
one kernel call on the whole batch and one stacked solve, and the value,
Jacobian and root pairings at an accepted point are the next step's first
iterate and the wall rule's reference.  One routine measures how far
points are from the walls (_wall_distance): it serves wall membership
(is_on_diagram), the check that the lift starts off the walls, and the step
rule that keeps each lift on its own sheet, which halves a step that moved
toward a wall by as much as two thirds of the new point's distance from it.
The step starts at INITIAL_STEP and, after an accepted step, doubles when t
is a multiple of the doubled step, up to MAX_STEP.  lift_path is the batch
of one.

deck_identify finds the affine Weyl element carrying one point of a fiber
to another by walking each across the walls of the fundamental alcove
into it; it searches no group.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ContinuationError, DeckMatchError, DimensionError
from .rootsys import (
    AffineElement,
    RootSystem,
    affine_apply,
    affine_compose,
    affine_inverse,
    basepoint_array,
    fundamental_orbit_table,
    highest_roots,
    positive_root_rows,
    standard_affine_generators,
    translation_element,
)

TWO_PI_I = 2j * np.pi

# path lifting: Newton tolerance and iterations per step, the first, the
# largest and the smallest step in t, and the largest accepted ratio of a
# step's move toward a wall to the new point's distance from it (a jump
# across the wall gives a ratio near 2).  The first step stays small: begun
# at MAX_STEP, the A2 loop of s1*t, t the translation by (4, 0), lifts to
# the wrong deck element with no error (the tests pin this)
NEWTON_TOL = 1e-10
MAX_NEWTON_ITERS = 25
INITIAL_STEP = 1.0 / 64
MAX_STEP = 1.0 / 16
MIN_STEP = 1.0 / 65536
WALL_RATIO = 2.0 / 3


@dataclass
class PathSample:
    """A lifted path: its accepted times, increasing from 0 to 1, and one
    complex point (coroot coordinates) per time, shape (m, n), or (m, P, n)
    for a batch of P paths."""

    times: np.ndarray
    points: np.ndarray


def _kernel(rs: RootSystem, x, jacobian: bool):
    """The generalized cosine at x, a point of shape (n,) or a batch of
    shape (S, n), and with `jacobian` its Jacobian, (n, n) per point."""
    x = np.asarray(x, dtype=complex)
    if x.ndim not in (1, 2) or x.shape[-1] != rs.rank:
        raise DimensionError(f"point has shape {x.shape}, expected "
                             f"({rs.rank},) or (S, {rs.rank})")
    rows, starts = fundamental_orbit_table(rs)
    # Keep a multiply between the matmul and the exp.  With numpy's
    # OpenBLAS on a 2-core x86-64 host, an exp right after a complex128
    # matmul ran about 10x slower (a (5, 240) exp: 43 us alone, 480 us
    # after one) until some other vector loop ran; a matmul by a
    # precomputed 2 pi i rows.T, which feeds exp directly, took the F4
    # kernel from 60 to 508 us.
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


def gencos_jacobian(rs: RootSystem, x) -> np.ndarray:
    """Jacobian matrix: entry (k, j) = 2*pi*i * sum_lam lam_j e^{2 pi i lam.x}
    (one per point for an (S, n) array of points)."""
    return _kernel(rs, x, jacobian=True)[1]


def _wall_distance(rs: RootSystem, x):
    """The pairings p = <v, x> of x, a point or a stack of points, with
    every positive root v (rootsys.positive_root_rows), and the distance
    |p - round(Re p)| of each from the nearest wall <v, .> = ell, ell an
    integer."""
    p = np.asarray(x, dtype=complex) @ positive_root_rows(rs).T
    return p, np.abs(p - np.round(p.real))


def is_on_diagram(rs: RootSystem, x, tol: float):
    """Whether x lies within tol of some reflection wall <v, x> = ell,
    ell integer.  Returns (bool, witness) with witness = (root, ell), the
    positive root and level of the nearest wall."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    p, dist = _wall_distance(rs, x)
    i = int(np.argmin(dist))
    if dist[i] <= tol:
        coords = tuple(positive_root_rows(rs)[i].tolist())
        root = next(v for v in rs.roots if v.weight_coords == coords)
        return True, (root, int(np.round(p[i].real)))
    return False, None


def lift_path(rs: RootSystem, target, y_start) -> PathSample:
    """Lift one path, target(t) of shape (n,) for t in [0, 1], through the
    generalized cosine from a preimage of its start: lift_paths on a batch
    of one."""
    y_start = np.asarray(y_start, dtype=complex)
    lifted = lift_paths(rs, lambda t: np.asarray(target(t))[None],
                        y_start[None])
    return PathSample(lifted.times, lifted.points[:, 0])


def lift_paths(rs: RootSystem, target, y_starts) -> PathSample:
    """Lift P paths through the generalized cosine by Newton continuation on
    one shared step schedule.  target(t) gives the paths' exact values at
    time t in [0, 1], shape (P, n), and y_starts (P, n) are preimages of
    target(0) off the walls; the lift is a PathSample whose points have
    shape (m, P, n), one row of P points per accepted time.

    Each Newton iterate makes one kernel call on the whole batch and one
    stacked solve; the value, Jacobian and root pairings at each accepted
    point carry into the next step.  A converged point y' reached from y
    is accepted only if |<v, y' - y>| < WALL_RATIO |<v, y'> - ell| for
    every path and positive root v, ell the integer nearest to Re <v, y'>:
    the step moved toward no wall by as much as two thirds of the new
    point's distance from it.  A jump from the lift's own sheet to its
    mirror image across a nearby wall of v gives a ratio near 2.  A Newton
    failure or a refused point on any path halves the step for all of them,
    down to MIN_STEP; beyond that a ContinuationError names the failing
    path's index, t, the step and its last Newton residual or wall ratio.

    The first step is INITIAL_STEP.  After an accepted step the step
    doubles, up to MAX_STEP, when t is a multiple of the doubled step, so
    every time stays on the dyadic grid of the step that reached it and a
    halved step is held until that grid lets it grow.
    """
    y = np.array(y_starts, dtype=complex)
    x = np.asarray(target(0.0), dtype=complex)
    if y.ndim != 2 or x.shape != y.shape:
        raise DimensionError(f"starts have shape {y.shape}, path values "
                             f"{x.shape}")
    values, jac = _kernel(rs, y, jacobian=True)
    pairings, dist = _wall_distance(rs, y)
    start_res = np.abs(values - x).max(axis=1)
    for i, y_i in enumerate(y):
        if not start_res[i] <= NEWTON_TOL * 10:
            raise ValueError(f"path {i}: y_start is not a preimage of the "
                             f"path start (residual {start_res[i]:.3e})")
        if dist[i].min() <= 1e-9:
            raise ValueError(f"path {i}: y_start lies on a reflection wall "
                             f"{is_on_diagram(rs, y_i, 1e-9)[1]}")

    lifted_times = [0.0]
    lifted_points = [y]
    # t stays exact and a multiple of the step: every step is a power of two
    # between MIN_STEP and MAX_STEP, so t + step never passes 1
    t = 0.0
    step = INITIAL_STEP
    while t < 1.0:
        y_new, values_new, jac_new, failed = _newton(
            rs, y, values, jac, np.asarray(target(t + step), dtype=complex))
        if failed is None:
            pairings_new, dist = _wall_distance(rs, y_new)
            move = np.abs(pairings_new - pairings)
            if (move < WALL_RATIO * dist).all():
                t += step
                y, values, jac, pairings = (y_new, values_new, jac_new,
                                            pairings_new)
                lifted_times.append(t)
                lifted_points.append(y)
                if step < MAX_STEP and t % (2.0 * step) == 0.0:
                    step *= 2.0
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = (move / dist).max(axis=1)
            i = int(np.argmax(ratio))
            failed = i, "wall ratio", float(ratio[i])
        if step * 0.5 < MIN_STEP:
            i, what, value = failed
            raise ContinuationError(
                f"path {i}: continuation stalled at t={t:.6f} (step "
                f"{step:.3e}, halved below {MIN_STEP}; {what} {value:.3e})",
                path=i, t=t, step=step, value=value)
        step *= 0.5
    return PathSample(np.array(lifted_times), np.array(lifted_points))


def _newton(rs: RootSystem, y, values, jac, target):
    """Newton's method for gencos(y) = target on a batch of paths, from the
    points y with their values and Jacobians: one kernel call on the whole
    batch and one stacked solve per iterate, until every path is within
    NEWTON_TOL.

    Returns (y, values, Jacobians, None) at convergence.  When any path
    diverges, leaves its basin (|delta| > 0.5) or meets a singular
    Jacobian, returns three Nones and (that path's index, "last Newton
    residual", its last residual)."""
    for it in range(MAX_NEWTON_ITERS):
        if it:
            values, jac = _kernel(rs, y, jacobian=True)
        res = values - target
        err = np.abs(res).max(axis=1)
        if (err <= NEWTON_TOL).all():
            return y, values, jac, None
        try:
            delta = np.linalg.solve(jac, res[..., None])[..., 0]
            # left the basin, or not finite
            bad = ~(np.abs(delta).max(axis=1) <= 0.5)
        except np.linalg.LinAlgError:
            # a member is exactly singular: name it
            delta, bad = None, np.linalg.det(jac) == 0
        if delta is None or bad.any():
            i = int(np.argmax(bad))
            break
        y = y - delta
    else:
        i = int(np.argmax(err))
    return None, None, None, (i, "last Newton residual", float(err[i]))


@functools.cache
def _alcove(rs: RootSystem):
    """The fundamental alcove, cached per root system: the reflections in
    its walls (standard_affine_generators), the walls as rows and offsets,
    the alcove being walls @ x + offset >= 0 (<a_j, x> >= 0 for the simple
    roots, 1 - <theta_b, x> >= 0 for each factor's highest root), and its
    Coxeter point (basepoint_array)."""
    gens = tuple(g for _, g in standard_affine_generators(rs))
    walls = np.array([v.weight_coords for v in rs.simple_roots]
                     + [[-c for c in v.weight_coords]
                        for v in highest_roots(rs)], dtype=float)
    offset = np.repeat([0.0, 1.0], [rs.rank, len(rs.factors)])
    return gens, walls, offset, basepoint_array(rs).real


def _alcove_walk(rs: RootSystem, y, tol: float):
    """y moved into the closed fundamental alcove, and the affine Weyl
    element h that moves it there.  y is translated by the lattice vector
    (the coroot lattice is Z^n) that brings it nearest the Coxeter point,
    then reflected, one wall at a time, in a wall of the alcove that Re y
    lies more than tol beyond, or lies on while Im y lies more than tol
    beyond the wall's linear part.  Each reflection takes one wall out of
    those separating Re y from the alcove, or, fixing Re y, Im y from the
    chamber of the walls through Re y, so the walk ends within a number of
    steps bounded by the root system, at one point per orbit."""
    gens, walls, offset, centre = _alcove(rs)
    shift = np.round(y.real - centre)
    h = translation_element(int(c) for c in -shift)
    y = y - shift
    while True:
        gap = walls @ y.real + offset
        gap = np.where(np.abs(gap) <= tol, walls @ y.imag, gap)
        i = int(np.argmin(gap))
        if gap[i] >= -tol:
            return y, h
        y = affine_apply(gens[i], y)
        h = affine_compose(gens[i], h)


def deck_identify(rs: RootSystem, y0, y1, tol: float = 1e-7) -> AffineElement:
    """The affine Weyl element g with g(y0) = y1, for y0 and y1 in one fiber
    of the generalized cosine.  Both are walked into the closed fundamental
    alcove (_alcove_walk), by h0 and h1, and g = h1^-1 h0.  The alcove is a
    fundamental domain, and the affine Weyl group acts freely on its
    interior (Humphreys, Reflection Groups and Coxeter Groups, 4.3-4.5), so
    for y0 off the walls g is the only such element.  Raises DeckMatchError
    when a point is not finite or the walked points differ by more than
    tol."""
    y0 = np.asarray(y0, dtype=complex)
    y1 = np.asarray(y1, dtype=complex)
    if not (np.isfinite(y0).all() and np.isfinite(y1).all()):
        raise DeckMatchError("deck_identify needs finite points")
    (a0, h0), (a1, h1) = _alcove_walk(rs, y0, tol), _alcove_walk(rs, y1, tol)
    gap = np.abs(a0 - a1).max()
    if gap > tol:
        raise DeckMatchError(
            f"y0 and y1 walk to alcove points {gap:.3e} apart, above "
            f"tolerance {tol} (the points lie in different fibers)")
    return affine_compose(affine_inverse(h1), h0)
