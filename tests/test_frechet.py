import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import (
    BARYCENTER_TOL,
    random_tangent,
    rng_for,
    sample_ball,
    sphere_grid_argmin,
)
from riemmean import frechet, manifolds
from riemmean.errors import (
    CutLocusError,
    InvalidInputError,
    MaxIterExceededError,
    NoConvergenceError,
    UnsupportedManifoldError,
)
from riemmean.frechet import (
    BOUNDARY_UNCLASSIFIED,
    SHORT,
    Configuration,
    _no_open_hemisphere,
    afsari_certificate,
    afsari_certified,
    barycenter_check,
    forward_directional_derivative,
    frechet_mean,
    gradient_field,
    karcher_descent,
    objective,
)
from riemmean.core import rotation_exp
from riemmean.manifolds import (
    CUT_TOL,
    DiagPos,
    Euclidean,
    Manifold,
    Product,
    Sphere,
    SpecialOrthogonal,
    Tangent,
    parse_manifold,
)
from riemmean.numdiff import fd_gradient, fd_hessian
from riemmean.spd import cover_manifold


def euclid_config(*values):
    eu = Euclidean(1)
    return eu, Configuration(eu, tuple(eu.point([v]) for v in values))


# -- objective ------------------------------------------------------------------


def test_objective_euclidean_midpoint():
    eu, Q = euclid_config(0.0, 2.0)
    assert objective(Q, eu.point([1.0])) == pytest.approx(1.0, abs=1e-15)


def test_objective_antipodal_singleton():
    sph = Sphere(2)
    q = sph.point([0.0, 0.0, 1.0])
    Q = Configuration(sph, (q,))
    assert objective(Q, sph.point([0.0, 0.0, -1.0])) == pytest.approx(
        math.pi**2, abs=1e-12
    )


def test_objective_matches_grid_minimum():
    sph = Sphere(2)
    rng = rng_for(60)
    Q = Configuration(sph, tuple(sph.random_point(rng) for _ in range(3)))
    grid_min = sphere_grid_argmin(sph, lambda p: objective(Q, p))
    res = frechet_mean(Q)
    # the solver's minimum value cannot beat the dense grid's by more than
    # the grid resolution allows, and must be at least as good
    assert res.objective <= objective(Q, grid_min) + 1e-10
    assert objective(Q, grid_min) - res.objective < 1e-8


# -- gradient field --------------------------------------------------------------


def test_gradient_field_euclidean_values():
    eu, Q = euclid_config(0.0, 2.0)
    assert abs(gradient_field(Q, eu.point([1.0])).vec[0]) < 1e-15
    assert gradient_field(Q, eu.point([0.0])).vec[0] == pytest.approx(1.0)


def test_gradient_field_symmetry_zero():
    sph = Sphere(2)
    north = sph.point([0.0, 0.0, 1.0])
    a = sph.exp(north, sph.tangent(north, [0.4, 0.0, 0.0]))
    b = sph.exp(north, sph.tangent(north, [-0.4, 0.0, 0.0]))
    Y = gradient_field(Configuration(sph, (a, b)), north)
    assert sph.norm(north, Y) < 1e-12


def test_gradient_field_cut_locus_error():
    sph = Sphere(2)
    q = sph.point([0.0, 0.0, 1.0])
    Q = Configuration(sph, (q,))
    with pytest.raises(CutLocusError):
        gradient_field(Q, sph.point([0.0, 0.0, -1.0]))


def test_gradient_consistency_fd():
    rng = rng_for(61)
    for manifold in [Sphere(2), SpecialOrthogonal(3, 1.0)]:
        for _ in range(10):
            pts = tuple(manifold.random_point(rng) for _ in range(4))
            Q = Configuration(manifold, pts)
            p = manifold.random_point(rng)
            try:
                Y = gradient_field(Q, p)
            except CutLocusError:
                continue
            grad = fd_gradient(manifold, lambda x: objective(Q, x), p)
            err = manifold.norm(p, Tangent(p, grad.vec + 2.0 * Y.vec))
            assert err / (1.0 + manifold.norm(p, Y)) < 1e-5


# -- karcher descent -------------------------------------------------------------


def test_karcher_euclidean_one_step():
    eu = Euclidean(2)
    rng = rng_for(62)
    pts = tuple(eu.point(rng.standard_normal(2)) for _ in range(6))
    Q = Configuration(eu, pts)
    res = karcher_descent(Q, pts[0])
    expect = np.mean([p.coords for p in pts], axis=0)
    assert res.iterations == 1
    assert np.max(np.abs(res.minimizer.coords - expect)) < 1e-14
    assert res.barycenter_residual < 1e-14


def test_karcher_matches_grid_oracle_on_sphere():
    sph = Sphere(2)
    rng = rng_for(63)
    center = sph.random_point(rng)
    pts = tuple(sample_ball(sph, center, 0.3, rng) for _ in range(3))
    Q = Configuration(sph, pts)
    res = karcher_descent(Q, pts[0])
    grid = sphere_grid_argmin(sph, lambda p: objective(Q, p))
    assert sph.dist(res.minimizer, grid) < 1e-6


def test_karcher_repeated_point_zero_iterations():
    sph = Sphere(2)
    p = sph.point([0.0, 1.0, 0.0])
    Q = Configuration(sph, (p, p))
    res = karcher_descent(Q, p)
    assert res.iterations == 0
    assert sph.dist(res.minimizer, p) == 0.0


BAD_DESCENT_SETTINGS = [
    {"tol": math.nan},
    {"tol": 0.0},
    {"tol": -1.0},
    {"tol": math.inf},
]


@pytest.mark.parametrize("solver", ["karcher_descent", "frechet_mean"])
@pytest.mark.parametrize(
    "bad", BAD_DESCENT_SETTINGS, ids=lambda bad: "{}={}".format(*next(iter(bad.items())))
)
def test_descent_refuses_bad_settings_where_they_enter(solver, bad, monkeypatch):
    """A ``tol`` no descent can honour is refused before any descent state
    is formed, not turned into "no convergence" after ``MAX_ITER``
    iterations."""

    def no_state(*args):
        raise AssertionError("a descent state was formed")

    monkeypatch.setattr("riemmean.frechet._descent_state", no_state)
    sph = Sphere(2)
    pts = (sph.point([1.0, 0.0, 0.0]), sph.point([0.0, 1.0, 0.0]))
    Q = Configuration(sph, pts)
    with pytest.raises(InvalidInputError, match=next(iter(bad))):
        if solver == "karcher_descent":
            karcher_descent(Q, pts[0], **bad)
        else:
            frechet_mean(Q, **bad)


def test_iteration_cap_raises(monkeypatch):
    """A descent that needs more than ``MAX_ITER`` iterations raises
    `MaxIterExceededError`; when every multistart seed runs out,
    `frechet_mean` raises `NoConvergenceError`."""
    sph = Sphere(2)
    rng = rng_for(66)
    pts = tuple(sph.random_point(rng) for _ in range(5))
    Q = Configuration(sph, pts)
    assert karcher_descent(Q, pts[0]).iterations > 2
    monkeypatch.setattr(frechet, "MAX_ITER", 2)
    with pytest.raises(MaxIterExceededError, match="no convergence in 2 iterations"):
        karcher_descent(Q, pts[0])
    monkeypatch.setattr(frechet, "MAX_ITER", 0)
    with pytest.raises(NoConvergenceError, match="all multistart seeds failed"):
        frechet_mean(Q)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(["sphere", "so3", "cover2", "cover3", "diagpos3", "euclidean3"]),
    k=st.sampled_from([0.25, 1.0, 4.0]),
    size=st.integers(min_value=1, max_value=8),
    spread=st.sampled_from([0.1, 0.5, 0.9]),
)
def test_karcher_result_matches_a_fresh_check_at_its_minimizer(
    seed, kind, k, size, spread
):
    """The descent reports its final state instead of re-checking it; that
    state must agree with `objective` and `barycenter_check` run afresh,
    the residual bit for bit, since both read the kind's one mean-log pass
    and `_norm`."""
    manifold = {
        "sphere": Sphere(2),
        "so3": SpecialOrthogonal(3, k),
        "cover2": cover_manifold(2, k),
        "cover3": cover_manifold(3, k),
        "diagpos3": DiagPos(3),
        "euclidean3": Euclidean(3),
    }[kind]
    rng = np.random.Generator(np.random.Philox(key=[0xCE27, seed]))
    center = manifold.random_point(rng)
    # the flat kinds' r_cx is infinite: their balls take radius `spread`
    r_cx = manifold.constants.r_cx
    radius = spread * (r_cx if math.isfinite(r_cx) else 1.0)
    pts = tuple(sample_ball(manifold, center, radius, rng) for _ in range(size))
    Q = Configuration(manifold, pts)
    res = karcher_descent(Q, pts[0])
    f = objective(Q, res.minimizer)
    residual, classification = barycenter_check(Q, res.minimizer)
    # relative, with a floor for one-point data, where both are ~0
    assert abs(res.objective - f) <= 1e-12 * max(f, 1e-12)
    assert res.barycenter_residual == residual
    assert res.barycenter_residual == res.grad_norm
    assert res.classification == classification
    # one run certifies nothing; frechet_mean sets the flag from the data
    assert res.afsari_certified is False


@pytest.mark.parametrize(
    "manifold",
    [Sphere(2), SpecialOrthogonal(3, 2.0), Product([SpecialOrthogonal(2), DiagPos(2)])],
    ids=lambda m: m.manifold_id,
)
def test_frechet_mean_objective_is_the_per_point_objective(manifold):
    rng = rng_for(72)
    center = manifold.random_point(rng)
    pts = tuple(sample_ball(manifold, center, 1.0, rng) for _ in range(5))
    Q = Configuration(manifold, pts)
    res = frechet_mean(Q)
    assert res.objective == objective(Q, res.minimizer)


def accepted_objectives(monkeypatch, Q, p0):
    """Run `karcher_descent` and return it with the objectives of its
    accepted states, observed from outside.  Each step starts its
    `_descent_move` from the current accepted state, so a state is accepted
    iff the next move starts from its coordinates; the last state formed is
    the final one.  Also returns the number of states formed."""
    events = []
    descent_state = frechet._descent_state
    move = Q.manifold._descent_move

    def record_state(m, data, coords):
        out = descent_state(m, data, coords)
        events.append(("state", coords, out[1]))
        return out

    def record_move(p, s, direction):
        events.append(("move", p, None))
        return move(p, s, direction)

    with monkeypatch.context() as patch:
        patch.setattr(frechet, "_descent_state", record_state)
        patch.setattr(Q.manifold, "_descent_move", record_move)
        res = karcher_descent(Q, p0)
    assert events[-1][0] == "state"
    trace, next_start = [], None
    for kind, coords, f in reversed(events):
        if kind == "move":
            next_start = coords
        elif next_start is None or next_start is coords:
            trace.append(f)
    trace.reverse()
    return res, trace, sum(kind == "state" for kind, _, _ in events)


def test_karcher_descent_monotone_objective(monkeypatch):
    """The objective is nonincreasing across accepted steps, up to the
    descent's 1e-14 relative slack; the long steps (``STEP = 2.5``) of the
    second configuration make the descent backtrack."""
    sph = Sphere(2)
    for seed, step, rejects in ((64, 1.0, False), (65, 2.5, True)):
        monkeypatch.setattr(frechet, "STEP", step)
        rng = rng_for(seed)
        pts = tuple(sph.random_point(rng) for _ in range(5))
        Q = Configuration(sph, pts)
        res, trace, states = accepted_objectives(monkeypatch, Q, pts[0])
        assert len(trace) == res.iterations + 1
        assert trace[-1] == res.objective
        assert (states > len(trace)) == rejects
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-14 * np.maximum(1.0, np.abs(trace[:-1])))


def descent_with_mean_log_steps(Q, p0):
    """`karcher_descent` with the mean log as the step on every kind, as
    it ran before SO(3) took Newton steps.  Returns the coordinates of every
    state it formed, in order, and the iteration count."""
    m = Q.manifold

    def state(coords):
        mean, f = m._log_mean(coords, Q.coord_stack, CUT_TOL)
        return mean, f, math.sqrt(max(m._inner(coords, mean, mean), 0.0))

    coords = p0.coords
    formed = [coords]
    direction, f, g = state(coords)
    iterations = 0
    while g >= frechet.DEFAULT_TOL:
        assert iterations < frechet.MAX_ITER
        slack = 1e-14 * max(1.0, abs(f))
        s = frechet.STEP
        while True:
            assert s > 1e-17
            cand = m._exp(coords, s * direction)
            formed.append(cand)
            cand_dir, cand_f, cand_g = state(cand)
            if cand_f <= f + slack:
                coords, direction, f, g = cand, cand_dir, cand_f, cand_g
                iterations += 1
                break
            s *= 0.5
    return formed, iterations


def descent_states(Q, p0):
    """`karcher_descent` from ``p0`` and the coordinates of every state it
    formed, in order."""
    formed = []
    descent_state = frechet._descent_state

    def record_state(m, data, coords):
        formed.append(coords)
        return descent_state(m, data, coords)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frechet, "_descent_state", record_state)
        res = karcher_descent(Q, p0)
    return res, formed


MEAN_LOG_STEP_KINDS = {
    m.manifold_id: m
    for m in [
        Sphere(2),
        SpecialOrthogonal(2),
        Euclidean(3),
        DiagPos(3),
        cover_manifold(2),
    ]
}


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    name=st.sampled_from(sorted(MEAN_LOG_STEP_KINDS)),
    size=st.integers(min_value=1, max_value=6),
    spread=st.sampled_from([0.3, 0.9]),
)
def test_mean_log_step_kinds_descend_as_before(seed, name, size, spread):
    """Every kind but SO(3) still steps along the mean log: the descent
    forms bit for bit the states of the loop written out with that step
    (a float-form state read in the manifold's shape), and takes as many
    iterations."""
    m = MEAN_LOG_STEP_KINDS[name]
    rng = np.random.Generator(np.random.Philox(key=[0x57E9, seed]))
    center = m.random_point(rng)
    radius = spread * min(m.constants.r_cx, 2.0)
    pts = tuple(sample_ball(m, center, radius, rng) for _ in range(size))
    Q = Configuration(m, pts)
    res, formed = descent_states(Q, pts[0])
    want, iterations = descent_with_mean_log_steps(Q, pts[0])
    assert res.iterations == iterations
    assert len(formed) == len(want)
    assert all(np.array_equal(np.reshape(a, b.shape), b) for a, b in zip(formed, want))
    assert np.array_equal(res.minimizer.coords, want[-1])


def descend_in_both_forms(Q, p0):
    """`karcher_descent` from ``p0`` on ``Q.manifold`` (a row kind: S^2,
    SO(2) or the m = 2 PSR cover) in its float descent form, then with the
    base class's array form restored on the class it is built as; each
    outcome is the result or the error raised, with the number of descent
    moves."""
    kind = type(Q.manifold)

    def run():
        moves = []
        move = kind._descent_move

        def count_move(self, p, s, direction):
            moves.append(s)
            return move(self, p, s, direction)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kind, "_descent_move", count_move)
            try:
                return karcher_descent(Q, p0), len(moves)
            except (CutLocusError, MaxIterExceededError) as err:
                return err, len(moves)

    assert isinstance(Q.manifold._descent_form(p0.coords, Q.coord_stack)[0], tuple)
    floats = run()
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_descent_form", "_descent_step", "_descent_move"):
            patch.setattr(kind, name, getattr(Manifold, name))
        arrays = run()
    return floats, arrays


def assert_same_outcome(floats, arrays):
    (got, got_moves), (want, want_moves) = floats, arrays
    assert got_moves == want_moves
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert got.minimizer.coords.tobytes() == want.minimizer.coords.tobytes()
    assert got.iterations == want.iterations
    assert got.objective == want.objective
    assert got.grad_norm == want.grad_norm


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    size=st.integers(min_value=1, max_value=6),
    spread=st.sampled_from([0.3, 0.9, 1.5]),
    step=st.sampled_from([1.0, 2.5]),
)
def test_s2_float_descent_is_the_array_descent(seed, size, spread, step):
    """On S^2 the descent in float triples forms the array descent's
    result bit for bit, or raises its error with the same message, also
    with the long steps (``STEP = 2.5``) that make it backtrack and with
    data spread past the convexity radius."""
    sph = Sphere(2)
    rng = np.random.Generator(np.random.Philox(key=[0xF10A, seed]))
    center = sph.random_point(rng)
    radius = spread * sph.constants.r_cx
    pts = tuple(sample_ball(sph, center, radius, rng) for _ in range(size))
    Q = Configuration(sph, pts)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frechet, "STEP", step)
        assert_same_outcome(*descend_in_both_forms(Q, pts[0]))


def test_s2_float_descent_fails_as_the_array_descent(monkeypatch):
    """The float descent backtracks, stops at ``MAX_ITER`` and refuses a
    near-antipodal pair exactly as the array descent does."""
    sph = Sphere(2)
    rng = rng_for(65)
    pts = tuple(sph.random_point(rng) for _ in range(5))
    Q = Configuration(sph, pts)
    monkeypatch.setattr(frechet, "STEP", 2.5)
    floats, arrays = descend_in_both_forms(Q, pts[0])
    assert_same_outcome(floats, arrays)
    # more moves than accepted steps: the descent backtracked
    assert floats[1] > floats[0].iterations
    monkeypatch.setattr(frechet, "STEP", 1.0)
    with monkeypatch.context() as patch:
        patch.setattr(frechet, "MAX_ITER", 2)
        floats, arrays = descend_in_both_forms(Q, pts[0])
    assert isinstance(floats[0], MaxIterExceededError)
    assert_same_outcome(floats, arrays)
    # the second point lies 1e-9 from the antipode of the first, inside the
    # CUT_TOL margin, so a descent from either of them refuses at once
    antipode = sph.point(-pts[0].coords)
    offset = 1e-9 * np.cross(pts[0].coords, [0.0, 0.0, 1.0])
    near = sph.exp(antipode, sph.tangent(antipode, offset))
    Q = Configuration(sph, (pts[0], near) + pts[2:])
    for i, start in enumerate(Q.points):
        floats, arrays = descend_in_both_forms(Q, start)
        if i < 2:
            assert isinstance(floats[0], CutLocusError)
        assert_same_outcome(floats, arrays)


def float_descent_is_the_array_descent(m, key, seed, size, spread, step):
    """The descent in flat float sequences on the row kind ``m`` forms the
    array descent's result bit for bit (moves, minimizer bytes, iterations,
    objective, gradient norm), or raises its error with the same message,
    from ``size`` points within ``spread * min(r_cx, 2)`` of a random
    centre.  The long steps (``STEP = 2.5``) overshoot the flat kinds'
    exact mean-log step and cycle near the floor, so ``MAX_ITER`` is 500
    here: both forms then raise the same error."""
    rng = np.random.Generator(np.random.Philox(key=[key, seed]))
    center = m.random_point(rng)
    radius = spread * min(m.constants.r_cx, 2.0)
    pts = tuple(sample_ball(m, center, radius, rng) for _ in range(size))
    Q = Configuration(m, pts)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frechet, "STEP", step)
        patch.setattr(frechet, "MAX_ITER", 500)
        assert_same_outcome(*descend_in_both_forms(Q, pts[0]))


def float_descent_fails_as_the_array_descent(m, monkeypatch, turn_near_pi):
    """On the row kind ``m`` the float descent backtracks, stops at
    ``MAX_ITER`` and refuses a rotation 1e-9 from angle pi exactly as the
    array descent does; ``turn_near_pi(p)`` is such a point for ``p``."""
    rng = rng_for(66)
    center = m.random_point(rng)
    pts = tuple(sample_ball(m, center, 1.0, rng) for _ in range(5))
    Q = Configuration(m, pts)
    monkeypatch.setattr(frechet, "STEP", 2.5)
    with monkeypatch.context() as patch:
        patch.setattr(frechet, "MAX_ITER", 2)
        floats, arrays = descend_in_both_forms(Q, pts[0])
    assert isinstance(floats[0], MaxIterExceededError)
    assert_same_outcome(floats, arrays)
    # more moves than the two accepted steps: the descent backtracked
    assert floats[1] > 2
    monkeypatch.setattr(frechet, "STEP", 1.0)
    # the second point's rotation lies 1e-9 from angle pi from the first's,
    # inside the CUT_TOL margin, so a descent from either of them refuses
    Q = Configuration(m, (pts[0], turn_near_pi(pts[0])) + pts[2:])
    for i, start in enumerate(Q.points):
        floats, arrays = descend_in_both_forms(Q, start)
        if i < 2:
            assert isinstance(floats[0], CutLocusError)
        assert_same_outcome(floats, arrays)


NEAR_PI = (math.pi - 1e-9) * np.array([[0.0, -1.0], [1.0, 0.0]])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    size=st.integers(min_value=1, max_value=6),
    spread=st.sampled_from([0.3, 0.9, 2.0]),
    step=st.sampled_from([1.0, 2.5]),
)
def test_cover2_float_descent_is_the_array_descent(seed, size, spread, step):
    """On the m = 2 PSR cover SO(2) x Diag+(2) the float descent is the
    array descent (`float_descent_is_the_array_descent`), also with long
    steps that backtrack and with data spread past the convexity radius."""
    float_descent_is_the_array_descent(cover_manifold(2), 0xC0F2, seed, size, spread, step)


def test_cover2_float_descent_fails_as_the_array_descent(monkeypatch):
    """On the m = 2 cover the float descent fails as the array descent
    does (`float_descent_fails_as_the_array_descent`)."""
    cover = cover_manifold(2)

    def turn_near_pi(p):
        U, d = cover.split(p.coords)
        return cover.point(cover.join([U @ rotation_exp(NEAR_PI), d]))

    float_descent_fails_as_the_array_descent(cover, monkeypatch, turn_near_pi)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    size=st.integers(min_value=1, max_value=6),
    spread=st.sampled_from([0.3, 0.9, 2.0]),
    step=st.sampled_from([1.0, 2.5]),
    k=st.sampled_from([1.0, 2.5]),
)
def test_so2_float_descent_is_the_array_descent(seed, size, spread, step, k):
    """SO(2) on its own descends in float form too, as the array descent
    does (`float_descent_is_the_array_descent`)."""
    float_descent_is_the_array_descent(SpecialOrthogonal(2, k), 0x5002, seed, size, spread, step)


@pytest.mark.parametrize("k", [1.0, 2.5])
def test_so2_float_descent_fails_as_the_array_descent(k, monkeypatch):
    """SO(2) fails as the array descent does
    (`float_descent_fails_as_the_array_descent`), and with ``STEP = 2.5``
    both forms cycle near the floor to ``MAX_ITER`` alike."""
    so = SpecialOrthogonal(2, k)
    float_descent_fails_as_the_array_descent(
        so, monkeypatch, lambda p: so.point(p.coords @ rotation_exp(NEAR_PI))
    )
    rng = rng_for(66)
    center = so.random_point(rng)
    pts = tuple(sample_ball(so, center, 1.0, rng) for _ in range(5))
    monkeypatch.setattr(frechet, "STEP", 2.5)
    floats, arrays = descend_in_both_forms(Configuration(so, pts), pts[0])
    assert isinstance(floats[0], MaxIterExceededError)
    assert "in 10000 iterations" in str(floats[0])
    assert_same_outcome(floats, arrays)


def test_cover2_chained_moves_stay_on_so2():
    """10^4 chained `_exp` moves on the m = 2 cover keep the rotation
    factor orthogonal: each move rescales its rotation to a unit column."""
    cover = cover_manifold(2)
    rng = rng_for(67)
    p = cover.random_point(rng).coords
    worst = 0.0
    for _ in range(10_000):
        v = cover._project(p, rng.standard_normal(6))
        p = cover._exp(p, (0.5 / math.sqrt(cover._inner(p, v, v))) * v)
        U = p[:4].reshape(2, 2)
        worst = max(worst, float(np.max(np.abs(U.T @ U - np.eye(2)))))
    assert worst <= 1e-13


@pytest.mark.parametrize("k", [0.25, 1.0, 4.0])
def test_so3_step_solves_the_newton_equation(k):
    """The SO(3) step ``d`` solves ``Hess(f / 2) d = Y_Q`` with the
    Hessian from `numdiff.fd_hessian`, in the same orthonormal tangent
    basis, to 1e-8 relative to ``|d|``; its objective and gradient are
    those of `_log_mean`, bit for bit."""
    so = SpecialOrthogonal(3, k)
    rng = rng_for(77)
    for _ in range(3):
        c = so.random_point(rng)
        pts = tuple(sample_ball(so, c, 0.6 * so.constants.r_cx, rng) for _ in range(5))
        Q = Configuration(so, pts)
        p = so.exp(c, random_tangent(so, c, rng, scale=0.2 * so.constants.r_cx))
        step, f, mean = so._karcher_step(p.coords, Q.coord_stack, CUT_TOL)
        want_mean, want_f = so._log_mean(p.coords, Q.coord_stack, CUT_TOL)
        assert np.array_equal(mean, want_mean) and f == want_f
        basis = so.tangent_basis(p)
        # steps of 1e-3 in distance: smaller ones lose digits to rounding
        H = fd_hessian(so, lambda x: 0.5 * objective(Q, x), p, h=1e-3 * math.sqrt(k))
        g = np.array([so._inner(p.coords, mean, e.vec) for e in basis])
        newton = sum(di * e.vec for di, e in zip(np.linalg.solve(H, g), basis))
        err = so.norm(p, Tangent(p, newton - step))
        assert err <= 1e-8 * so.norm(p, Tangent(p, step))


def rim_points(manifold, center, rng, count, frac=0.75):
    """``count`` points on the sphere of radius ``frac * r_cx`` around
    ``center``; on a product, that sphere in each factor."""
    if isinstance(manifold, Product):
        parts = [
            rim_points(f, f.point(c), rng, count, frac)
            for f, c in zip(manifold.factors, manifold.split(center.coords))
        ]
        return tuple(
            manifold.point(manifold.join([q.coords for q in qs])) for qs in zip(*parts)
        )
    radius = frac * min(manifold.constants.r_cx, 2.0)
    return tuple(
        manifold.exp(center, random_tangent(manifold, center, rng, scale=radius))
        for _ in range(count)
    )


@pytest.mark.parametrize(
    "manifold",
    [
        SpecialOrthogonal(3, 0.25),
        SpecialOrthogonal(3, 1.0),
        SpecialOrthogonal(3, 4.0),
        cover_manifold(3),
    ],
    ids=lambda m: m.manifold_id,
)
def test_newton_steps_converge_in_few_iterations(manifold):
    """Ten points at distance ``0.75 r_cx`` from a centre (on the cover, in
    each factor): from the first of them, the descent with Newton steps on
    SO(3) converges in at most 4 iterations, without backtracking, where the
    mean-log steps take at least 7; both reach the same minimizer."""
    rng = rng_for(78)
    for _ in range(3):
        pts = rim_points(manifold, manifold.random_point(rng), rng, 10)
        Q = Configuration(manifold, pts)
        res, formed = descent_states(Q, pts[0])
        want, iterations = descent_with_mean_log_steps(Q, pts[0])
        assert res.iterations <= 4 < 7 <= iterations
        assert len(formed) == res.iterations + 1
        assert manifold._dist(res.minimizer.coords, want[-1]) < 1e-9


# -- frechet_mean ----------------------------------------------------------------


def test_frechet_mean_concentrated_certified():
    sph = Sphere(2)
    rng = rng_for(65)
    north = sph.point([0.0, 0.0, 1.0])
    pts = tuple(sample_ball(sph, north, 0.3, rng) for _ in range(5))
    res = frechet_mean(Configuration(sph, pts))
    assert res.multistart_agreement
    assert res.afsari_certified
    assert res.classification == SHORT
    assert res.barycenter_residual < 1e-9


def test_frechet_mean_antipodal_pair_disagrees():
    sph = Sphere(2)
    Q = Configuration(sph, (sph.point([0.0, 0.0, 1.0]), sph.point([0.0, 0.0, -1.0])))
    res = frechet_mean(Q)
    assert not res.multistart_agreement
    # every minimizer lies on the equator
    assert abs(res.minimizer.coords[2]) < 1e-6
    assert not res.afsari_certified


def test_frechet_mean_single_point():
    sph = Sphere(2)
    q = sph.point([0.0, 1.0, 0.0])
    res = frechet_mean(Configuration(sph, (q,)))
    assert sph.dist(res.minimizer, q) < 1e-12
    assert res.objective < 1e-15


def test_frechet_mean_permutation_invariance():
    sph = Sphere(2)
    rng = rng_for(66)
    pts = [sph.random_point(rng) for _ in range(5)]
    res1 = frechet_mean(Configuration(sph, tuple(pts)))
    res2 = frechet_mean(Configuration(sph, tuple(reversed(pts))))
    assert sph.dist(res1.minimizer, res2.minimizer) < 1e-8


def test_frechet_mean_rotation_equivariance():
    sph = Sphere(2)
    so3 = SpecialOrthogonal(3, 1.0)
    rng = rng_for(67)
    center = sph.random_point(rng)
    pts = [sample_ball(sph, center, 0.5, rng) for _ in range(4)]
    R = so3.random_point(rng).coords
    res = frechet_mean(Configuration(sph, tuple(pts)))
    rotated = frechet_mean(
        Configuration(sph, tuple(sph.point(R @ p.coords) for p in pts))
    )
    assert sph.dist(rotated.minimizer, sph.point(R @ res.minimizer.coords)) < 1e-8


def test_frechet_mean_certified_implies_agreement_on_sphere():
    rng = rng_for(68)
    sph = Sphere(2)
    for _ in range(20):
        center = sph.random_point(rng)
        pts = tuple(sample_ball(sph, center, 0.45 * math.pi / 2, rng) for _ in range(4))
        res = frechet_mean(Configuration(sph, pts))
        assert res.afsari_certified
        assert res.multistart_agreement
        assert res.barycenter_residual < 1e-9


def test_frechet_mean_certified_reported_mean_in_ball_so3():
    # SO(3) has closed geodesics, so descent from far seeds can converge to
    # far-side critical points, so agreement across all seeds cannot be expected
    # there.  The reported (lowest-objective) mean must still be the unique
    # short barycenter inside the certified ball.
    rng = rng_for(168)
    so = SpecialOrthogonal(3, 1.0)
    r_cx = so.constants.r_cx
    for _ in range(10):
        center = so.random_point(rng)
        pts = tuple(sample_ball(so, center, 0.45 * r_cx, rng) for _ in range(4))
        Q = Configuration(so, pts)
        res = frechet_mean(Q)
        cert = afsari_certificate(Q)
        assert cert.certified and res.afsari_certified
        assert so.dist(res.minimizer, cert.center) < r_cx
        assert res.classification == SHORT
        assert res.barycenter_residual < 1e-9


# -- barycenter_check ------------------------------------------------------------


def test_barycenter_check_euclidean_mean_short():
    eu, Q = euclid_config(0.0, 2.0)
    residual, label = barycenter_check(Q, eu.point([1.0]))
    assert residual == 0.0
    assert label == SHORT


def test_barycenter_check_cut_point_raises():
    sph = Sphere(2)
    q = sph.point([0.0, 0.0, 1.0])
    Q = Configuration(sph, (q,))
    with pytest.raises(CutLocusError):
        barycenter_check(Q, sph.point([0.0, 0.0, -1.0]))


def test_barycenter_check_near_cut_reports_boundary():
    sph = Sphere(2)
    q = sph.point([0.0, 0.0, 1.0])
    other = sph.point([1.0, 0.0, 0.0])
    eps = 1e-10
    near = sph.point([math.sin(eps), 0.0, -math.cos(eps)])
    Q = Configuration(sph, (q, other, near))
    residual, label = barycenter_check(Q, q)
    assert label == BOUNDARY_UNCLASSIFIED
    assert math.isfinite(residual)


def test_frechet_mean_residual_equals_gradient_norm():
    sph = Sphere(2)
    rng = rng_for(69)
    pts = tuple(sph.random_point(rng) for _ in range(4))
    res = frechet_mean(Configuration(sph, pts))
    assert res.barycenter_residual == pytest.approx(res.grad_norm, abs=1e-12)


# -- afsari_certificate ----------------------------------------------------------


def test_certificate_concentrated_true():
    sph = Sphere(2)
    rng = rng_for(70)
    north = sph.point([0.0, 0.0, 1.0])
    pts = tuple(sample_ball(sph, north, 0.3, rng) for _ in range(3))
    cert = afsari_certificate(Configuration(sph, pts))
    assert cert.certified
    assert cert.radius < math.pi / 2


def test_certificate_antipodal_false():
    sph = Sphere(2)
    Q = Configuration(sph, (sph.point([0.0, 0.0, 1.0]), sph.point([0.0, 0.0, -1.0])))
    cert = afsari_certificate(Q)
    assert not cert.certified


def test_certificate_hadamard_always_true():
    eu = Euclidean(2)
    Q = Configuration(eu, (eu.point([0.0, 0.0]), eu.point([1e6, 0.0])))
    assert afsari_certificate(Q).certified


def test_certificate_eigendecomposition_space_ball():
    # known ball of radius sqrt(k) pi/4 < r_cx = sqrt(k) pi/2 in the
    # SO(2) x Diag+(2) product
    k = 1.0
    prod = Product([SpecialOrthogonal(2, k), DiagPos(2)])
    rng = rng_for(71)
    for _ in range(10):
        center = prod.random_point(rng)
        pts = tuple(
            sample_ball(prod, center, math.sqrt(k) * math.pi / 4, rng)
            for _ in range(5)
        )
        cert = afsari_certificate(Configuration(prod, pts))
        assert cert.certified


def certificate_before_the_diameter_exit(Q, margin=1e-9):
    """The certificate loop as it ran with no lower bound: the first pass,
    then up to 200 refinement steps.  Returns (certified, center, radius)."""
    m = Q.manifold
    r_cx = m.constants.r_cx

    def distances(coords):
        return m._dist_block(coords, Q.coord_stack)

    best = min(Q.points, key=lambda c: float(np.max(distances(c.coords))))
    best_coords = best.coords
    best_radius = float(np.max(distances(best.coords)))
    if best_radius < r_cx - margin:
        return True, best_coords, best_radius
    coords = best.coords
    for it in range(1, 201):
        d = distances(coords)
        radius = float(np.max(d))
        if radius < best_radius:
            best_radius, best_coords = radius, coords
            if best_radius < r_cx - margin:
                break
        if radius == 0.0:
            break
        try:
            v = m._log(coords, Q.points[int(np.argmax(d))].coords, CUT_TOL)
        except CutLocusError:
            break
        coords = m._exp(coords, v / (it + 1.0))
    return best_radius < r_cx - margin, best_coords, best_radius


def lower_bound(Q, target=math.inf):
    """`_enclosing_radius_bound` of the data distances, formed as
    `afsari_certificate` forms them."""
    stack = Q.coord_stack
    rows = np.stack([Q.manifold._dist_block(q.coords, stack) for q in Q.points])
    D2 = np.square(rows)
    D2 = np.maximum(D2, D2.T)
    np.fill_diagonal(D2, 0.0)
    return frechet._enclosing_radius_bound(D2, target)


def far_point(manifold, p):
    """A point at distance r_inj from ``p``: on the cut locus of ``p``."""
    if isinstance(manifold, Sphere):
        return manifold.point(-p.coords)
    return manifold.point(p.coords @ np.diag([-1.0, -1.0, 1.0]))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(["sphere", "so3", "cover3"]),
    size=st.integers(min_value=2, max_value=8),
    spread=st.sampled_from([0.3, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0]),
    add_far_point=st.booleans(),
)
def test_certificate_flag_matches_the_loop_without_a_lower_bound(
    seed, kind, size, spread, add_far_point
):
    """The lower-bound exit changes no ``certified`` flag.  Where it fires,
    the certificate reports the best data point and a radius of at least
    the bound; elsewhere it reports what the full loop reports."""
    manifold = {
        "sphere": Sphere(2),
        "so3": SpecialOrthogonal(3),
        "cover3": cover_manifold(3),
    }[kind]
    rng = np.random.Generator(np.random.Philox(key=[0xAF5A, seed]))
    center = manifold.random_point(rng)
    radius = spread * manifold.constants.r_cx
    pts = [sample_ball(manifold, center, radius, rng) for _ in range(size)]
    if add_far_point and kind != "cover3":
        # on S^2 and SO(3) only a pair at distance ~pi triggers the exit
        pts.append(far_point(manifold, pts[0]))
    Q = Configuration(manifold, tuple(pts))
    cert = afsari_certificate(Q)
    flag, center_coords, ref_radius = certificate_before_the_diameter_exit(Q)
    assert cert.certified == flag
    radii = [float(np.max(manifold._dist_block(q.coords, Q.coord_stack))) for q in pts]
    bound = lower_bound(Q, manifold.constants.r_cx - 0.5e-9)
    if not cert.certified and bound >= manifold.constants.r_cx - 0.5e-9:
        assert any(np.array_equal(cert.center.coords, q.coords) for q in pts)
        assert cert.radius == min(radii)
        assert cert.radius >= bound
    else:
        assert np.array_equal(cert.center.coords, center_coords)
        assert cert.radius == ref_radius


@pytest.mark.parametrize(
    "manifold", [Sphere(2), SpecialOrthogonal(3)], ids=lambda m: m.manifold_id
)
def test_certificate_diameter_exit_takes_no_refinement_step(manifold, monkeypatch):
    """A pair at distance pi plus a third point: every enclosing ball has
    radius >= pi/2 = r_cx, so the certificate must not step at all."""
    rng = rng_for(76)
    p = manifold.random_point(rng)
    third = manifold.exp(p, random_tangent(manifold, p, rng, scale=1.0))
    Q = Configuration(manifold, (p, third, far_point(manifold, p)))
    steps = []
    exp = type(manifold)._exp

    def counting_exp(self, coords, v):
        steps.append(1)
        return exp(self, coords, v)

    monkeypatch.setattr(type(manifold), "_exp", counting_exp)
    cert = afsari_certificate(Q)
    assert not cert.certified
    assert steps == []
    assert cert.center is Q.points[1]
    assert cert.radius >= manifold.dist(p, Q.points[2]) / 2


@pytest.mark.parametrize("rho", [1.0, math.pi / 2])
def test_certificate_loop_starts_from_the_first_pass_row(rho, monkeypatch):
    """Three points on a circle of radius ``rho`` around the north pole: no
    data point certifies, and the loop either certifies a centre (rho = 1)
    or stops at a cut locus (rho = pi/2).  The starting centre's distances
    come from the first pass, so the loop computes one row per step it
    took, and none at the start.  S^2 measures its rows with
    `_form_dists` on a `_dist_form` built once, so the rows are counted
    there, on the class it is built as."""
    sphere = Sphere(2)
    pts = tuple(
        sphere.point(
            [math.sin(rho) * math.cos(a), math.sin(rho) * math.sin(a), math.cos(rho)]
        )
        for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
    )
    calls = {"dist": 0, "exp": 0}
    kind = type(sphere)
    form_dists, exp = kind._form_dists, kind._exp

    def counting_form_dists(self, coords, form):
        calls["dist"] += 1
        return form_dists(self, coords, form)

    def counting_exp(self, coords, v):
        calls["exp"] += 1
        return exp(self, coords, v)

    monkeypatch.setattr(kind, "_form_dists", counting_form_dists)
    monkeypatch.setattr(kind, "_exp", counting_exp)
    cert = afsari_certificate(Configuration(sphere, pts))
    assert cert.certified == (rho < 1.5)
    assert calls["exp"] > 0
    assert calls["dist"] == len(pts) + calls["exp"]


BOUND_KINDS = {
    m.manifold_id: m
    for m in [
        Sphere(2),
        SpecialOrthogonal(3, 0.25),
        SpecialOrthogonal(3, 1.0),
        SpecialOrthogonal(3, 4.0),
        cover_manifold(2),
        cover_manifold(3),
        parse_manifold("product(sphere:2;euclidean:2)"),
    ]
}


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    name=st.sampled_from(sorted(BOUND_KINDS)),
    size=st.integers(min_value=2, max_value=8),
    spread=st.sampled_from([None, 0.3, 0.9, 1.0, 1.1, 1.5, 2.0]),
)
def test_lower_bound_never_exceeds_an_enclosing_radius(seed, name, size, spread):
    """Data in a ball of radius ``spread * r_cx``, or anywhere (``spread``
    None): the bound is at least half the diameter, and at most every data
    point's farthest distance and the certificate's radius, the farthest
    distance from its centre, certified or not (up to rounding)."""
    manifold = BOUND_KINDS[name]
    rng = np.random.Generator(np.random.Philox(key=[0xB0B0, seed]))
    center = manifold.random_point(rng)
    if spread is None:
        pts = tuple(manifold.random_point(rng) for _ in range(size))
    else:
        radius = spread * manifold.constants.r_cx
        pts = tuple(sample_ball(manifold, center, radius, rng) for _ in range(size))
    Q = Configuration(manifold, pts)
    bound = lower_bound(Q)
    radii = [float(np.max(manifold._dist_block(q.coords, Q.coord_stack))) for q in pts]
    cert = afsari_certificate(Q)
    assert bound >= max(radii) / 2 * (1 - 1e-14)
    assert bound <= min(radii) + 1e-12
    assert bound <= cert.radius + 1e-12


def axis_rotations(so, angle):
    """Rotations by ``angle`` about the three coordinate axes: equidistant,
    since a cyclic shift of the axes is an isometry permuting them."""
    return tuple(
        so.point(rotation_exp(angle * np.cross(np.eye(3), axis))) for axis in np.eye(3)
    )


@pytest.mark.parametrize("k", [0.25, 1.0, 4.0])
def test_lower_bound_closed_forms(k):
    """Two points give half their distance; an equilateral triple of side d
    gives d / sqrt(3), and the regular tetrahedron on S^2 d sqrt(3/8), with
    d = arccos(-1/3): the bound at uniform weights, its maximum there."""
    so = SpecialOrthogonal(3, k)
    rng = rng_for(79)
    p, q = so.random_point(rng), so.random_point(rng)
    pair = Configuration(so, (p, q))
    d = max(float(so._dist_block(a.coords, pair.coord_stack).max()) for a in (p, q))
    assert lower_bound(pair) == d / 2
    for angle in (1.0, 2.5):
        triple = axis_rotations(so, angle)
        sides = [so.dist(triple[i], triple[j]) for i, j in ((0, 1), (1, 2), (0, 2))]
        assert max(sides) - min(sides) <= 1e-12
        assert lower_bound(Configuration(so, triple)) == pytest.approx(
            sides[0] / math.sqrt(3), rel=1e-12
        )
    sphere, tet = tetrahedron()
    assert lower_bound(Configuration(sphere, tet)) == pytest.approx(
        math.acos(-1.0 / 3.0) * math.sqrt(3.0 / 8.0), rel=1e-12
    )


@pytest.mark.parametrize("k", [0.25, 1.0, 4.0])
def test_lower_bound_decides_what_the_diameter_cannot(k, monkeypatch):
    """An equilateral triple on SO(3) of side d = 2.94 sqrt(k): no data
    point certifies (d > r_cx = sqrt(k) pi / 2), and half the diameter is
    below r_cx, so the diameter decides nothing.  The bound d / sqrt(3)
    exceeds r_cx: the certificate answers False without a refinement
    step, with the best data point and its farthest distance."""
    so = SpecialOrthogonal(3, k)
    triple = axis_rotations(so, 2.5)
    Q = Configuration(so, triple)
    r_cx = so.constants.r_cx
    d = so.dist(triple[0], triple[1])
    assert d / 2 < r_cx < d / math.sqrt(3) and d > r_cx
    steps = []
    exp = SpecialOrthogonal._exp

    def counting_exp(self, coords, v):
        steps.append(1)
        return exp(self, coords, v)

    monkeypatch.setattr(SpecialOrthogonal, "_exp", counting_exp)
    cert = afsari_certificate(Q)
    assert not cert.certified
    assert steps == []
    assert cert.center is triple[0]
    assert cert.radius == pytest.approx(d, rel=1e-12)


def test_every_manifold_kind_has_nonnegative_curvature():
    """The lower bound holds only under sectional curvature >= 0: every
    concrete kind of `riemmean.manifolds` must be on the list kept next to
    it, so a new kind fails here until the bound is reconsidered for it.
    The bases `Manifold` and `_RowKind` (the row kinds' shared kernels,
    without a metric) are not kinds."""
    kinds = [
        c
        for c in vars(manifolds).values()
        if isinstance(c, type) and issubclass(c, Manifold)
        and c not in (Manifold, manifolds._RowKind)
    ]
    assert kinds
    for kind in kinds:
        assert kind in frechet.CURVATURE_NONNEGATIVE, kind.__name__


def tetrahedron():
    """The vertices of a regular tetrahedron: the origin is their centroid,
    yet every pair is 1.91 apart, so the diameter decides nothing."""
    sphere = Sphere(2)
    verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
    return sphere, tuple(sphere.point(v) for v in verts)


def test_no_open_hemisphere_decides_only_what_it_can_prove():
    sphere, tet = tetrahedron()
    assert _no_open_hemisphere(sphere, np.stack([q.coords for q in tet]))
    north = [
        sphere.point([math.sin(1.5) * math.cos(a), math.sin(1.5) * math.sin(a), math.cos(1.5)])
        for a in (0.0, 2.0, 4.0)
    ]
    # no open hemisphere holds the whole equator, but no candidate proves it
    equator = [
        sphere.point([math.cos(a), math.sin(a), 0.0])
        for a in np.linspace(0.0, 2 * math.pi, 5, endpoint=False)
    ]
    # no open hemisphere holds these either, but the repeated pair's cross
    # product is 0, a candidate nothing lies below
    repeated = tet + (tet[0],)
    for pts in (north, tet[:2], repeated, equator):
        assert not _no_open_hemisphere(sphere, np.stack([q.coords for q in pts]))
    # off S^2 it never answers
    s3 = Sphere(3)
    spread = np.vstack([np.eye(4), -np.ones((1, 4)) / 2.0])
    assert not _no_open_hemisphere(s3, spread)


def test_afsari_certified_exits_before_the_certificate(monkeypatch):
    sphere, tet = tetrahedron()
    Q = Configuration(sphere, tet)
    called = []
    monkeypatch.setattr(
        "riemmean.frechet.afsari_certificate", lambda *a: called.append(1)
    )
    assert afsari_certified(Q) is False
    assert called == []


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    size=st.integers(min_value=3, max_value=8),
    layout=st.sampled_from(["ball", "great_circle", "twin"]),
    spread=st.sampled_from([0.5, 0.9, 1.0, 1.05, 1.2, 1.5, 2.0]),
)
def test_sphere_certified_flag_matches_the_loop(seed, size, layout, spread):
    """On S^2 the open-hemisphere exit changes no flag: `afsari_certified`
    equals the full certificate loop, ball data of radius ``spread * r_cx``
    around a random centre (all of S^2 at 2.0), data on one great circle,
    or ball data with a repeated point."""
    sphere = Sphere(2)
    rng = np.random.Generator(np.random.Philox(key=[0x4E51, seed]))
    center = sphere.random_point(rng)
    radius = spread * sphere.constants.r_cx
    if layout == "great_circle":
        u, w = np.linalg.qr(rng.standard_normal((3, 2)))[0].T
        arcs = rng.uniform(-radius, radius, size)
        pts = [sphere.point(math.cos(a) * u + math.sin(a) * w) for a in arcs]
    else:
        pts = [sample_ball(sphere, center, radius, rng) for _ in range(size)]
        if layout == "twin":
            pts.append(pts[int(rng.integers(size))])
    Q = Configuration(sphere, tuple(pts))
    flag = certificate_before_the_diameter_exit(Q)[0]
    assert afsari_certified(Q) == flag == afsari_certificate(Q).certified


# -- forward directional derivative ---------------------------------------------


def one_sided_fd(manifold, q, p, v, h=1e-7):
    f0 = manifold.dist(p, q) ** 2
    f1 = manifold.dist(manifold.exp(p, Tangent(p, h * v.vec)), q) ** 2
    return (f1 - f0) / h


def test_fdd_antipodal_closed_form():
    sph = Sphere(2)
    p = sph.point([1.0, 0.0, 0.0])
    q = sph.point([-1.0, 0.0, 0.0])
    rng = rng_for(72)
    for _ in range(10):
        v = random_tangent(sph, p, rng, scale=rng.random() + 0.1)
        got = forward_directional_derivative(sph, q, p, v)
        assert got == pytest.approx(-2.0 * math.pi * sph.norm(p, v), abs=1e-6)
        assert got == pytest.approx(one_sided_fd(sph, q, p, v), abs=1e-4)


def test_fdd_regular_point_matches_log_and_fd():
    rng = rng_for(73)
    for manifold in [Sphere(2), Euclidean(3), DiagPos(2), SpecialOrthogonal(3, 1.0)]:
        for _ in range(10):
            p = manifold.random_point(rng)
            q = manifold.random_point(rng)
            if manifold.in_cut_locus(p, q, 1e-3):
                continue
            v = random_tangent(manifold, p, rng)
            got = forward_directional_derivative(manifold, q, p, v)
            expect = -2.0 * manifold.inner(p, v, manifold.log(p, q))
            assert got == pytest.approx(expect, abs=1e-10)
            assert got == pytest.approx(one_sided_fd(manifold, q, p, v), abs=1e-4)


def test_fdd_zero_vector():
    sph = Sphere(2)
    p = sph.point([1.0, 0.0, 0.0])
    q = sph.point([0.0, 1.0, 0.0])
    assert forward_directional_derivative(sph, q, p, sph.zero_tangent(p)) == 0.0


def test_fdd_so_cut_point_two_lifts():
    so = SpecialOrthogonal(3, 1.0)
    I = so.point(np.eye(3))
    q = so.point(np.diag([-1.0, -1.0, 1.0]))
    rng = rng_for(74)
    for _ in range(5):
        v = random_tangent(so, I, rng)
        got = forward_directional_derivative(so, q, I, v)
        assert got == pytest.approx(one_sided_fd(so, q, I, v, h=1e-7), abs=1e-4)


def test_fdd_product_unsupported():
    prod = Product([SpecialOrthogonal(2, 1.0), DiagPos(2)])
    rng = rng_for(75)
    p = prod.random_point(rng)
    q = prod.random_point(rng)
    v = random_tangent(prod, p, rng)
    with pytest.raises(UnsupportedManifoldError):
        forward_directional_derivative(prod, q, p, v)


def test_configuration_requires_points():
    eu = Euclidean(1)
    with pytest.raises(InvalidInputError):
        Configuration(eu, ())


# -- every mean is a barycenter ---------------------------------------------------

BARYCENTER_KINDS = {
    m.manifold_id: m
    for m in [
        Sphere(2),
        SpecialOrthogonal(3, 0.25),
        SpecialOrthogonal(3, 1.0),
        SpecialOrthogonal(3, 4.0),
        cover_manifold(2),
        cover_manifold(3),
    ]
}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    name=st.sampled_from(sorted(BARYCENTER_KINDS)),
    size=st.integers(min_value=1, max_value=6),
    spread=st.sampled_from([None, 0.1, 0.5, 0.9]),
)
def test_frechet_mean_is_a_barycenter(seed, name, size, spread):
    """Data spread over the whole manifold (``spread`` None) or in a ball of
    ``spread * min(r_cx, 2)``: every mean `frechet_mean` returns is a
    barycenter within C3's bound, by its own report and by an independent
    `barycenter_check`."""
    m = BARYCENTER_KINDS[name]
    rng = np.random.Generator(np.random.Philox(key=[0xBA7C, seed]))
    if spread is None:
        pts = tuple(m.random_point(rng) for _ in range(size))
    else:
        center = m.random_point(rng)
        radius = spread * min(m.constants.r_cx, 2.0)
        pts = tuple(sample_ball(m, center, radius, rng) for _ in range(size))
    Q = Configuration(m, pts)
    try:
        res = frechet_mean(Q)
    except NoConvergenceError:
        reject()
    assert res.barycenter_residual < BARYCENTER_TOL
    assert barycenter_check(Q, res.minimizer)[0] < BARYCENTER_TOL
    # the chosen descent's final state is the check's own log pass
    assert (res.barycenter_residual, res.classification) == barycenter_check(
        Q, res.minimizer
    )
