"""Generalized cosine: evaluation, Jacobian, wall membership, path lifting."""

import random

import numpy as np
import pytest

from weylcheb import gencos
from weylcheb.errors import ContinuationError, DeckMatchError, DimensionError
from weylcheb.gencos import (
    deck_identify,
    eval_gencos,
    gencos_jacobian,
    is_on_diagram,
    lift_path,
    lift_paths,
)
from weylcheb.monodromy import (
    basepoint_array,
    make_generator_loop,
    standard_affine_generators,
)
from weylcheb.rootsys import (
    WEYL_CAP,
    AffineElement,
    affine_apply,
    build_root_system,
    affine_compose,
    affine_identity,
    highest_roots,
    reflection_element,
    rho_vee,
    translation_element,
    weyl_order,
)

from root_oracles import (A1_LOOP_BASEPOINT, a1_standard_loops,
                          deck_by_weyl_search, eval_gencos_fullsum,
                          first_step_wall_ratios, loop_of, orbit_bfs,
                          positive_roots, weyl_elements)

TEST_SPECS = ("A1", "A2", "B2", "G2")


def rand_point(rng, n, im=0.5):
    return np.array([complex(rng.uniform(-1, 1), rng.uniform(-im, im))
                     for _ in range(n)])


# --- evaluation ---------------------------------------------------------------

def test_values_at_zero_and_half(rs):
    a1 = rs("A1")
    assert abs(eval_gencos(a1, [0])[0] - 2) < 1e-14
    assert abs(eval_gencos(a1, [0.5])[0] + 2) < 1e-14
    a2 = rs("A2")
    assert np.abs(eval_gencos(a2, [0, 0]) - np.array([3, 3])).max() < 1e-14


@pytest.mark.parametrize("spec", TEST_SPECS)
def test_fullsum_agrees(spec, rs):
    rng = random.Random(10)
    rsys = rs(spec)
    for _ in range(10):
        x = rand_point(rng, rsys.rank)
        a = eval_gencos(rsys, x)
        b = eval_gencos_fullsum(rsys, x)
        assert np.abs(a - b).max() <= 1e-10 * max(1.0, np.abs(a).max())


def test_fullsum_at_zero_counts_orbit(rs):
    b2 = rs("B2")
    vals = eval_gencos_fullsum(b2, [0, 0])
    assert np.abs(vals - np.array([4, 4])).max() < 1e-12


# --- the stacked-orbit kernel against per-orbit oracles ----------------------

def _orbit_rows(rsys, k):
    # by closure under the simple reflections, not from the stacked table
    # the kernel slices, which orbit() also returns
    return np.array(orbit_bfs(rsys, rsys.fundamental_weight(k)),
                    dtype=np.int64)


def _oracle_eval(rsys, x):
    """One orbit at a time, as eval_gencos computed it before the kernel."""
    x = np.asarray(x, dtype=complex)
    out = np.empty(rsys.rank, dtype=complex)
    for k in range(rsys.rank):
        out[k] = np.exp(2j * np.pi * (_orbit_rows(rsys, k) @ x)).sum()
    return out


def _oracle_jacobian(rsys, x):
    """One orbit at a time, as gencos_jacobian computed it before the kernel."""
    x = np.asarray(x, dtype=complex)
    jac = np.empty((rsys.rank, rsys.rank), dtype=complex)
    for k in range(rsys.rank):
        om = _orbit_rows(rsys, k)
        jac[k, :] = 2j * np.pi * (np.exp(2j * np.pi * (om @ x)) @ om)
    return jac


def _oracle_kernel(rsys, x, jacobian):
    x = np.asarray(x, dtype=complex)
    if x.ndim == 2:
        values = np.array([_oracle_eval(rsys, p) for p in x])
        jacs = np.array([_oracle_jacobian(rsys, p) for p in x])
    else:
        values, jacs = _oracle_eval(rsys, x), _oracle_jacobian(rsys, x)
    return (values, jacs) if jacobian else values


def _assert_rel_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


@pytest.mark.parametrize("spec", TEST_SPECS)
def test_kernel_matches_per_orbit_oracles(spec, rs):
    rsys = rs(spec)
    rng = random.Random(17)
    pts = np.array([rand_point(rng, rsys.rank) for _ in range(12)])
    values = eval_gencos(rsys, pts)
    jacs = gencos_jacobian(rsys, pts)
    assert values.shape == (12, rsys.rank)
    assert jacs.shape == (12, rsys.rank, rsys.rank)
    for x, v, j in zip(pts, values, jacs):
        want_v, want_j = _oracle_eval(rsys, x), _oracle_jacobian(rsys, x)
        _assert_rel_close(eval_gencos(rsys, x), want_v)
        _assert_rel_close(v, want_v)
        _assert_rel_close(gencos_jacobian(rsys, x), want_j)
        _assert_rel_close(j, want_j)


@pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((4, 3)),
                                 np.zeros((2, 4, 2)), np.zeros(())])
def test_kernel_rejects_bad_shapes(bad, rs):
    a2 = rs("A2")
    with pytest.raises(DimensionError):
        eval_gencos(a2, bad)
    with pytest.raises(DimensionError):
        gencos_jacobian(a2, bad)


@pytest.mark.parametrize("spec", ["A2", "B2", "G2"])
def test_kernel_lifts_like_the_oracles(spec, rs, monkeypatch):
    rsys = rs(spec)
    y0 = basepoint_array(rsys)
    gens = [g for _, g in standard_affine_generators(rsys)]
    paths = [make_generator_loop(rsys, g) for g in gens]
    lifts = [lift_path(rsys, loop_of(rsys, p), y0) for p in paths]
    ts = np.linspace(0, 1, 33)
    batched = [eval_gencos(rsys, np.array([p(t) for t in ts])) for p in paths]
    monkeypatch.setattr(gencos, "_kernel", _oracle_kernel)
    for path, lifted in zip(paths, lifts):
        want = lift_path(rsys, loop_of(rsys, path), y0)
        assert np.array_equal(lifted.times, want.times)
        assert np.abs(lifted.points - want.points).max() <= 1e-12
    # the loops' values too, batched against one oracle call per time
    for path, got in zip(paths, batched):
        want = np.array([eval_gencos(rsys, path(t)) for t in ts])
        _assert_rel_close(got, want)


# --- Jacobian -----------------------------------------------------------------

@pytest.mark.parametrize("spec", TEST_SPECS)
def test_jacobian_finite_differences(spec, rs):
    rsys = rs(spec)
    rng = random.Random(11)
    h = 1e-5
    for _ in range(50):
        x = rand_point(rng, rsys.rank, im=0.3)
        jac = gencos_jacobian(rsys, x)
        fd = np.empty_like(jac)
        for j in range(rsys.rank):
            e = np.zeros(rsys.rank)
            e[j] = h
            fd[:, j] = (eval_gencos(rsys, x + e) - eval_gencos(rsys, x - e)) / (2 * h)
        scale = max(1.0, np.abs(jac).max())
        assert np.abs(jac - fd).max() / scale < 1e-6


def test_jacobian_vanishes_at_origin_a1(rs):
    assert abs(gencos_jacobian(rs("A1"), [0])[0, 0]) < 1e-14


def test_jacobian_singular_on_walls(rs):
    from weylcheb.critical import sample_diagram_points
    for spec in TEST_SPECS:
        rsys = rs(spec)
        for s in sample_diagram_points(rsys, 25, seed=12):
            det = np.linalg.det(gencos_jacobian(rsys, s.point))
            assert abs(det) < 1e-8


def test_jacobian_nonsingular_off_walls(rs):
    rng = random.Random(13)
    for spec in TEST_SPECS:
        rsys = rs(spec)
        found = 0
        while found < 100:
            x = np.array([rng.uniform(-1, 1) for _ in range(rsys.rank)])
            if is_on_diagram(rsys, x, 1e-2)[0]:
                continue
            found += 1
            assert abs(np.linalg.det(gencos_jacobian(rsys, x))) > 1e-4


# --- wall membership ----------------------------------------------------------

def test_origin_on_diagram(rs):
    for spec in TEST_SPECS:
        on, wit = is_on_diagram(rs(spec), np.zeros(rs(spec).rank), 1e-9)
        assert on and wit[1] == 0


@pytest.mark.parametrize("spec", ["A2", "G2", "B3xA1"])
def test_diagram_witness_is_the_positive_root_of_the_wall(spec, rs):
    # a random point moved onto the wall <v, x> = 2 of each positive root v,
    # along the coordinate of v's largest coefficient: the witness is that
    # root, as a Root, and that level
    rsys = rs(spec)
    rng = random.Random(17)
    for v in positive_roots(rsys):
        w = np.array(v.weight_coords)
        x = np.array([complex(rng.uniform(-1, 1), rng.uniform(-0.1, 0.1))
                      for _ in range(rsys.rank)])
        j = int(np.argmax(np.abs(w)))
        x[j] += (2 - w @ x) / w[j]
        on, (root, ell) = is_on_diagram(rsys, x, 1e-9)
        assert on and root == v and ell == 2, (spec, v)


def test_generic_real_point_off_diagram(rs):
    assert not is_on_diagram(rs("A1"), [0.37], 1e-9)[0]


def test_imaginary_regular_offset_off_diagram(rs):
    for spec in TEST_SPECS:
        rsys = rs(spec)
        u = np.array([float(c) for c in rho_vee(rsys)])
        x = np.full(rsys.rank, 0.25) + 0.1j * u
        assert not is_on_diagram(rsys, x, 1e-9)[0]


# --- invariance and periodicity -------------------------------------------------

@pytest.mark.parametrize("spec", TEST_SPECS)
def test_affine_invariance(spec, rs):
    # imaginary parts kept at 0.2 so float round-off stays well under the bound
    rsys = rs(spec)
    rng = random.Random(14)
    gens = [reflection_element(v, 0) for v in rsys.simple_roots]
    gens += [translation_element(tuple(1 if i == k else 0 for i in range(rsys.rank)))
             for k in range(rsys.rank)]
    for _ in range(100):
        x = rand_point(rng, rsys.rank, im=0.2)
        base = eval_gencos(rsys, x)
        for g in gens:
            assert np.abs(eval_gencos(rsys, affine_apply(g, x)) - base).max() < 1e-9


@pytest.mark.parametrize("spec", TEST_SPECS)
def test_lattice_periodicity(spec, rs):
    rsys = rs(spec)
    rng = random.Random(15)
    for _ in range(25):
        x = rand_point(rng, rsys.rank, im=0.2)
        shift = np.array([rng.randint(-3, 3) for _ in range(rsys.rank)])
        assert np.abs(eval_gencos(rsys, x + shift) - eval_gencos(rsys, x)).max() < 1e-10


# --- path lifting ----------------------------------------------------------------

def test_constant_path_lifts_constant(rs):
    a2 = rs("A2")
    y0 = np.array([1 / 6, 1 / 6], dtype=complex)
    x0 = eval_gencos(a2, y0)
    lifted = lift_path(a2, lambda t: x0, y0)
    assert np.abs(lifted.points - y0).max() < 1e-9


def test_lift_reproduces_segment(rs):
    # the unique lift of the image of a wall-avoiding segment is the segment
    for spec in ("A1", "A2", "B2"):
        rsys = rs(spec)
        u = np.array([float(c) for c in rho_vee(rsys)])
        u = u / np.abs(u).max()
        y0 = np.full(rsys.rank, 0.11) + 0.13j * u
        lifted = lift_path(rsys, loop_of(rsys, lambda t: y0 + 0.2 * t * u), y0)
        expected = y0[None, :] + 0.2 * lifted.times[:, None] * u[None, :]
        assert np.abs(lifted.points - expected).max() < 1e-8


def test_lift_uniqueness_across_settings(rs, monkeypatch):
    a2 = rs("A2")
    from weylcheb.monodromy import make_generator_loop, basepoint_array
    loop = loop_of(a2, make_generator_loop(
        a2, reflection_element(a2.simple_roots[0], 0)))
    y0 = basepoint_array(a2)
    monkeypatch.setattr(gencos, "INITIAL_STEP", 1 / 64)
    lift1 = lift_path(a2, loop, y0)
    monkeypatch.setattr(gencos, "INITIAL_STEP", 1 / 128)
    lift2 = lift_path(a2, loop, y0)
    assert len(lift2.times) > len(lift1.times)
    assert np.abs(lift1.points[-1] - lift2.points[-1]).max() < 1e-8
    # each accepted time is on the dyadic grid of the step that reached it,
    # and no step passes MAX_STEP
    for lifted in (lift1, lift2):
        steps = np.diff(lifted.times)
        assert np.all(lifted.times[1:] % steps == 0)
        assert steps.max() == gencos.MAX_STEP
    # the coarse schedule's times are on the fine one: the lifts agree there
    at = np.searchsorted(lift2.times, lift1.times)
    assert np.array_equal(lift2.times[at], lift1.times)
    assert np.abs(lift1.points - lift2.points[at]).max() < 1e-6


def test_a1_standard_loop_deck_elements(rs):
    # the loop around +2 lifts to the reflection in the origin wall, the loop
    # around -2 to the level-1 wall; their product is the unit translation
    a1 = rs("A1")
    y = np.array([A1_LOOP_BASEPOINT], dtype=complex)
    plus, minus = a1_standard_loops(2)
    lifted = lift_path(a1, plus, y)
    g_plus = deck_identify(a1, y, lifted.points[-1])
    assert g_plus == reflection_element(a1.roots[0], 0)
    lifted = lift_path(a1, minus, y)
    g_minus = deck_identify(a1, y, lifted.points[-1])
    assert g_minus == reflection_element(a1.roots[0], 1)
    assert affine_compose(g_minus, g_plus) == translation_element((1,))


def test_lift_fails_crossing_critical_image(rs):
    # a target path through a critical value cannot be lifted: the engine
    # reports a stall instead of jumping branches
    a1 = rs("A1")
    y0 = np.array([1 / 6 + 0j])
    x0 = eval_gencos(a1, y0)
    with pytest.raises(ContinuationError):
        lift_path(a1, lambda t: x0 * (1 - t) + 3.0 * t, y0)
    a2 = rs("A2")
    y2 = np.array([1 / 6 + 0j, 1 / 6 + 0j])
    x2 = eval_gencos(a2, y2)
    with pytest.raises(ContinuationError):
        lift_path(a2, lambda t: (1 - t) * x2 + t * np.array([3.0, 3.0]), y2)


def test_wall_ratio_error_names_its_witness(rs, monkeypatch):
    # a ratio bound of 1e-9 refuses every step down to MIN_STEP, where the
    # error names the ratio of the last step tried
    a2 = rs("A2")
    y0 = basepoint_array(a2)
    path = make_generator_loop(a2, reflection_element(a2.simple_roots[0], 0))
    want = first_step_wall_ratios(a2, [path], gencos.MIN_STEP)[0]
    monkeypatch.setattr(gencos, "WALL_RATIO", 1e-9)
    with pytest.raises(ContinuationError) as err:
        lift_path(a2, loop_of(a2, path), y0)
    e = err.value
    assert (e.path, e.t, e.step) == (0, 0.0, gencos.MIN_STEP)
    assert e.value == pytest.approx(want, rel=1e-4)
    msg = str(e)
    assert msg.startswith("path 0: continuation stalled at t=0.000000")
    assert f"step {gencos.MIN_STEP:.3e}" in msg
    assert f"wall ratio {e.value:.3e}" in msg


@pytest.mark.parametrize("spec", ["A2", "G2", "B3"])
def test_tiny_bump_stalls_at_the_wall_it_crosses(spec, rs):
    # the s1 loop's generating path crosses the wall of s1 at t = 1/2, a
    # bump of epsilon away; for a small epsilon no step above MIN_STEP
    # keeps the wall ratio below WALL_RATIO there
    rsys = rs(spec)
    y0 = basepoint_array(rsys)
    g = standard_affine_generators(rsys)[0][1]
    for epsilon in (1e-5, 1e-7, 0.0):
        path = make_generator_loop(rsys, g, epsilon=epsilon)
        with pytest.raises(ContinuationError) as err:
            lift_path(rsys, loop_of(rsys, path), y0)
        e = err.value
        assert 0.5 - 2 * gencos.MIN_STEP <= e.t < 0.5
        assert e.step == gencos.MIN_STEP
        assert gencos.WALL_RATIO <= e.value < 2
        assert f"wall ratio {e.value:.3e}" in str(e)


def test_singular_jacobian_at_converged_point_is_no_linalg_error(
        rs, monkeypatch):
    # with a zero row in every Jacobian, a constant path converges at each
    # step's first iterate and never solves; a moving path fails its first
    # solve: a ContinuationError naming its residual, not numpy's LinAlgError
    a2 = rs("A2")
    y0 = np.array([1 / 6, 1 / 6], dtype=complex)
    x0 = eval_gencos(a2, y0)
    real = gencos._kernel

    def singular(rsys, x, jacobian):
        if not jacobian:
            return real(rsys, x, jacobian)
        values, jac = real(rsys, x, jacobian)
        jac = jac.copy()
        jac[..., -1, :] = 0
        return values, jac

    monkeypatch.setattr(gencos, "_kernel", singular)
    lifted = lift_path(a2, lambda t: x0, y0)
    assert np.abs(lifted.points - y0).max() < 1e-9
    with pytest.raises(ContinuationError,
                       match="last Newton residual") as err:
        lift_path(a2, lambda t: x0 + 0.1 * t, y0)
    assert (err.value.path, err.value.t) == (0, 0.0)


def test_lift_rejects_bad_start(rs):
    a1 = rs("A1")
    x0 = eval_gencos(a1, np.array([1 / 6 + 0j]))
    with pytest.raises(ValueError):
        lift_path(a1, lambda t: x0, np.array([0.3 + 0j]))  # not a preimage
    on_wall = eval_gencos(a1, np.array([0j]))
    with pytest.raises(ValueError):
        lift_path(a1, lambda t: on_wall, np.array([0j]))  # start on a wall


# --- batched lifting --------------------------------------------------------------

def _batch(rsys, paths):
    """The batched target of generating paths: their loops' values."""
    return lambda t: eval_gencos(rsys, np.array([p(t) for p in paths]))


@pytest.mark.parametrize("spec", ["A1", "A2", "G2", "A1xA1", "A3", "B3", "B2",
                                  "C3", "D4", "B3xA1"])
def test_batch_gives_every_path_its_single_lift_deck(spec):
    # the types of the img-verify benchmark cases plus C3, D4 and B3xA1
    rsys = build_root_system(spec)
    y0 = basepoint_array(rsys)
    gens = [g for _, g in standard_affine_generators(rsys)]
    paths = [make_generator_loop(rsys, g, y0) for g in gens]
    ends = lift_paths(rsys, _batch(rsys, paths), np.tile(y0, (len(paths), 1)))
    assert ends.points.shape[1:] == (len(paths), rsys.rank)
    for g, path, end in zip(gens, paths, ends.points[-1]):
        alone = lift_path(rsys, loop_of(rsys, path), y0).points[-1]
        assert deck_identify(rsys, y0, end) == deck_identify(
            rsys, y0, alone) == g


def test_batch_halves_the_step_for_every_path(rs):
    # a bump of 1e-3 takes the s2 loop so close to a wall that the step rule
    # halves the step there, down to 2^-11; the s1 loop with the default
    # bump needs only one halving, near the wall it passes at t = 1/2, but
    # is lifted on the same halved schedule
    a2 = rs("A2")
    y0 = basepoint_array(a2)
    (_, g1), (_, g2), _ = standard_affine_generators(a2)
    easy = make_generator_loop(a2, g1, y0)
    hard = make_generator_loop(a2, g2, y0, epsilon=1e-3)
    # from INITIAL_STEP = 1/64 the step doubles on the dyadic grid up to
    # MAX_STEP = 1/16, is halved once before t = 1/2 and grows back there
    assert np.array_equal(
        lift_path(a2, loop_of(a2, easy), y0).times * 64,
        [0, 1, 2, 4, 8, 12, 16, 20, 24, 28, 30, 32, 36, 40, 44, 48, 52, 56,
         60, 64])
    hard_alone = lift_path(a2, loop_of(a2, hard), y0)
    lifted = lift_paths(a2, _batch(a2, [easy, hard]), np.tile(y0, (2, 1)))
    assert np.diff(lifted.times).min() == 2.0 ** -11
    assert np.array_equal(lifted.times, hard_alone.times)
    assert deck_identify(a2, y0, lifted.points[-1, 0]) == g1
    assert deck_identify(a2, y0, lifted.points[-1, 1]) == g2


def test_batch_start_that_is_not_a_preimage_names_its_path(rs):
    a2 = rs("A2")
    y0 = basepoint_array(a2)
    paths = [make_generator_loop(a2, g, y0)
             for _, g in standard_affine_generators(a2)]
    starts = np.tile(y0, (3, 1))
    starts[1] += 0.01
    with pytest.raises(ValueError, match="path 1: y_start is not a preimage"):
        lift_paths(a2, _batch(a2, paths), starts)


def test_carried_point_is_not_evaluated_again(rs, monkeypatch):
    # the value and Jacobian of each accepted point (and of the starts) carry
    # into the next Newton iterate, so no Jacobian call repeats the last one;
    # the value-only calls are the loops' targets, one per step tried
    from weylcheb.monodromy import img_verification
    calls = []
    tried = []
    real = gencos._kernel
    real_newton = gencos._newton

    def spy(rsys, x, jacobian):
        calls.append((jacobian, np.array(x, dtype=complex)))
        return real(rsys, x, jacobian)

    def newton_spy(*args):
        tried.append(args)
        return real_newton(*args)

    monkeypatch.setattr(gencos, "_kernel", spy)
    monkeypatch.setattr(gencos, "_newton", newton_spy)
    assert img_verification(rs("A2"), 2, 2).passed
    jacobian_calls = [x for jac, x in calls if jac]
    assert len(jacobian_calls) > 64
    # t = 0, then one per step tried
    assert len(calls) - len(jacobian_calls) == 1 + len(tried)
    for a, b in zip(jacobian_calls, jacobian_calls[1:]):
        assert not (a.shape == b.shape and np.array_equal(a, b))


def test_continuation_error_names_its_witness(rs, monkeypatch):
    # with one residual check per step, only the still path converges: the
    # moving path (index 1) fails every step until the step is below MIN_STEP
    a2 = rs("A2")
    y0 = basepoint_array(a2)
    path = make_generator_loop(a2, standard_affine_generators(a2)[0][1], y0)
    monkeypatch.setattr(gencos, "MAX_NEWTON_ITERS", 1)
    with pytest.raises(ContinuationError) as err:
        lift_paths(a2, _batch(a2, [lambda t: y0, path]), np.tile(y0, (2, 1)))
    e = err.value
    assert (e.path, e.t, e.step) == (1, 0.0, gencos.MIN_STEP)
    assert e.value > gencos.NEWTON_TOL
    msg = str(e)
    assert msg.startswith("path 1: continuation stalled at t=0.000000")
    assert f"step {gencos.MIN_STEP:.3e}" in msg
    assert f"last Newton residual {e.value:.3e}" in msg


def test_wall_ratio_error_names_the_worst_path(rs, monkeypatch):
    a2 = rs("A2")
    y0 = basepoint_array(a2)
    paths = [make_generator_loop(a2, g, y0)
             for _, g in standard_affine_generators(a2)]
    ratios = first_step_wall_ratios(a2, paths, gencos.MIN_STEP)
    worst = int(np.argmax(ratios))
    assert ratios[worst] > 1.01 * np.sort(ratios)[-2]
    monkeypatch.setattr(gencos, "WALL_RATIO", 1e-9)
    with pytest.raises(ContinuationError) as err:
        lift_paths(a2, _batch(a2, paths), np.tile(y0, (3, 1)))
    e = err.value
    assert (e.path, e.t, e.step) == (worst, 0.0, gencos.MIN_STEP)
    assert e.value == pytest.approx(ratios[worst], rel=1e-4)
    assert str(e).startswith(f"path {worst}: continuation stalled at "
                             f"t=0.000000")


def test_wall_distance_is_stacked(rs):
    # one product for a stack of points, equal to the per-point rows; the
    # distance is taken to the nearest integer level of each pairing
    a2 = rs("A2")
    pts = np.array([[0.1 + 0.02j, 0.2], [0.3, 1.05 - 0.01j]])
    p, dist = gencos._wall_distance(a2, pts)
    assert p.shape == dist.shape == (2, len(positive_roots(a2)))
    for x, row_p, row_d in zip(pts, p, dist):
        want_p = np.array([np.dot(v.weight_coords, x)
                           for v in positive_roots(a2)])
        assert np.array_equal(gencos._wall_distance(a2, x)[1], row_d)
        assert np.abs(row_p - want_p).max() < 1e-15
        assert np.abs(row_d - np.abs(want_p - np.round(want_p.real))).max() \
            < 1e-15


# --- deck identification -----------------------------------------------------------

def test_deck_identity(rs):
    a2 = rs("A2")
    y = np.array([0.21 + 0.05j, 0.17 - 0.03j])
    assert deck_identify(a2, y, y) == affine_identity(2)


@pytest.mark.parametrize("spec", TEST_SPECS)
def test_deck_round_trip(spec, rs):
    rsys = rs(spec)
    rng = random.Random(16)
    from weylcheb.monodromy import basepoint_array
    y0 = basepoint_array(rsys)
    gens = [reflection_element(v, ell) for v in rsys.simple_roots for ell in (0, 1)]
    for _ in range(100):
        g = affine_identity(rsys.rank)
        for _ in range(rng.randint(1, 8)):
            g = affine_compose(g, rng.choice(gens))
        if max(abs(c) for c in g.t) > 3:
            continue
        y1 = affine_apply(g, y0)
        assert deck_identify(rsys, y0, y1) == g


def test_deck_no_match_across_fibers(rs):
    a2 = rs("A2")
    y0 = np.array([1 / 6, 1 / 6], dtype=complex)
    with pytest.raises(DeckMatchError):
        deck_identify(a2, y0, y0 + np.array([0.03, -0.41]))


# every irreducible type whose Weyl group the search oracle may enumerate,
# and products of them
WALK_SPECS = ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3",
              "C4", "D3", "D4", "F4", "G2", "A1xA1", "B3xA1", "C2xG2",
              "A2xA2")


def _alcove_start(rsys, rng):
    """A point of the open fundamental alcove: the Coxeter point, 1/h from
    every wall, moved by less than 1/(2h) along every wall's normal, with a
    small imaginary part."""
    y = basepoint_array(rsys).real
    h = round(1 / (y @ np.array(rsys.simple_roots[0].weight_coords)))
    walls = np.array([v.weight_coords for v in rsys.simple_roots]
                     + [v.weight_coords for v in highest_roots(rsys)])
    r = np.array([rng.uniform(-1, 1) for _ in range(rsys.rank)])
    y = y + r * (0.5 / h) / np.abs(walls @ r).max()
    pairings = walls @ y
    assert (pairings[:rsys.rank] > 0).all()
    assert (pairings[rsys.rank:] < 1).all()
    return y + 1j * np.array([rng.uniform(-0.2, 0.2) for _ in y])


@pytest.mark.parametrize("spec", WALK_SPECS)
def test_deck_walk_matches_the_weyl_search(spec, rs):
    # random g = (t, w), from alcove starts, from starts anywhere and from
    # starts whose real part lies on walls (the alcove's vertex 0, on every
    # simple wall, or an alcove point moved onto the first simple wall),
    # where only the imaginary part tells the orbit's points apart: the
    # alcove walk finds g, as the search over all of W (the old
    # deck_identify) does, also when the end is off by 1e-9
    rsys = rs(spec)
    assert weyl_order(rsys) <= WEYL_CAP
    weyl = weyl_elements(rsys)
    a1 = rsys.simple_roots[0]
    rng = random.Random(f"walk {spec}")
    for trial in range(32):
        y0 = _alcove_start(rsys, rng)
        if trial % 4 == 1:
            y0 = np.array([complex(rng.uniform(-2.5, 2.5),
                                   rng.uniform(-0.3, 0.3))
                           for _ in range(rsys.rank)])
        elif trial % 4 == 2:
            y0 = 1j * y0.imag
        elif trial % 4 == 3:
            on_wall = np.dot(a1.weight_coords, y0.real)
            y0 = y0 - on_wall * np.array(a1.coroot_coords)
        g = AffineElement(tuple(rng.randint(-3, 3) for _ in range(rsys.rank)),
                          rng.choice(weyl))
        y1 = affine_apply(g, y0) + 1e-9 * (trial % 3)
        assert deck_identify(rsys, y0, y1) == g
        assert deck_by_weyl_search(rsys, y0, y1) == g


@pytest.mark.parametrize("spec", ["A2", "G2", "F4", "B3xA1"])
def test_deck_walk_is_short(spec, rs, monkeypatch):
    # both points are first translated to within 1/2 of the Coxeter point
    # c in each coordinate, so each walk crosses at most
    # sum_{v > 0} (|<v, x>| + 1) <= sum_{v > 0} (|<v, x - c>| + 2) walls,
    # however far out the points lie (here 10^6)
    rsys = rs(spec)
    bound = sum(sum(map(abs, v.weight_coords)) / 2 + 2
                for v in positive_roots(rsys))
    steps = []
    real = gencos.affine_compose

    def counted(g, h):
        steps.append(1)
        assert len(steps) <= 2 * bound + 1, "the walk is not short"
        return real(g, h)

    monkeypatch.setattr(gencos, "affine_compose", counted)
    rng = random.Random(5)
    for _ in range(5):
        steps.clear()
        y0 = np.array([rng.uniform(-1, 1) + rng.choice((-1, 1)) * 10 ** 6
                       for _ in range(rsys.rank)], dtype=complex)
        g = AffineElement(tuple(rng.randint(-3, 3) for _ in y0),
                          rng.choice(weyl_elements(rsys)))
        assert deck_identify(rsys, y0, affine_apply(g, y0)) == g
    # a lift's start, the Coxeter point, walks in no step: the one
    # composition is h1^-1 h0
    steps.clear()
    y0 = basepoint_array(rsys)
    assert deck_identify(rsys, y0, y0) == affine_identity(rsys.rank)
    assert len(steps) == 1


@pytest.mark.parametrize("spec", ["A2", "G2", "F4", "B3xA1"])
@pytest.mark.parametrize("bad", ["fiber", "nan", "inf", "-inf"])
def test_deck_walk_refuses_a_point_outside_the_fiber(spec, bad, rs):
    # a point of another fiber, and a NaN or infinite coordinate in either
    # point, raise DeckMatchError; the search oracle finds no element either
    rsys = rs(spec)
    rng = random.Random(3)
    y0 = _alcove_start(rsys, rng)
    y1 = affine_apply(reflection_element(rsys.simple_roots[0], 2), y0)
    if bad == "fiber":
        y1 = y1 + 0.03
        with pytest.raises(DeckMatchError):
            deck_by_weyl_search(rsys, y0, y1)
    else:
        y1 = y1.copy()
        y1[-1] = float(bad)
    for a, b in ((y0, y1), (y1, y0)):
        with pytest.raises(DeckMatchError):
            deck_identify(rsys, a, b)
