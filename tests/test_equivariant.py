import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import BARYCENTER_TOL, rng_for, sample_ball, sphere_grid_argmin
from riemmean import equivariant
from riemmean.equivariant import (
    FiniteAction,
    QuotientPoint,
    _scan_orbits,
    antipodal_action,
    beta,
    d_evt,
    efm_objective,
    efm_solve,
    even_cover_lifts,
    quotient_dist,
    radius_relations,
)
from riemmean.errors import (
    CutLocusError,
    DegenerateSpectrumError,
    InvalidInputError,
    MaxIterExceededError,
    NoConvergenceError,
    RadiusTooLargeError,
)
from riemmean.frechet import Configuration, barycenter_check, frechet_mean, karcher_descent
from riemmean.manifolds import Point, Sphere, _frozen
from riemmean.spd import eig_canonical, gm_action, sample_spd


@pytest.fixture(scope="module")
def rp2():
    sphere = Sphere(2)
    return sphere, antipodal_action(sphere)


# -- FiniteAction basics ---------------------------------------------------------


def test_group_tables_validated():
    sphere = Sphere(2)
    with pytest.raises(InvalidInputError):
        FiniteAction(
            cover=sphere,
            labels=["e", "g"],
            images=lambda c: np.stack([c, c]),
            compose_table=np.array([[1, 0], [0, 1]]),  # identity not at 0
            inverse_table=np.array([0, 1]),
        )


def test_action_axioms_on_samples(rp2):
    sphere, action = rp2
    rng = rng_for(80)
    e, sigma = action.elements
    assert action.compose(sigma, sigma) is e
    assert action.inverse(sigma) is sigma
    for _ in range(50):
        p = sphere.random_point(rng)
        q = sphere.random_point(rng)
        moved_p = action.apply(sigma, p)
        moved_q = action.apply(sigma, q)
        # isometry
        assert abs(sphere.dist(moved_p, moved_q) - sphere.dist(p, q)) < 1e-10
        # freeness
        assert sphere.dist(p, moved_p) > 1e-6


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    group=st.sampled_from(["rp2", "gm2", "gm3"]),
    k=st.sampled_from([0.25, 1.0, 4.0]),
)
def test_builtin_actions_are_exact_group_actions(seed, group, k):
    """The antipodal action on S^2 (``k`` unused) and G(2), G(3) on their
    eigendecomposition covers: the orbit map's rows are the single-element
    moves, identity first, and they follow the group tables exactly; every
    element preserves distances."""
    action = antipodal_action(Sphere(2)) if group == "rp2" else gm_action(int(group[-1]), k)
    cover = action.cover
    rng = np.random.Generator(np.random.Philox(key=[0xAC7, seed]))
    p, q = cover.random_point(rng), cover.random_point(rng)
    stack = action.orbit_stack(p)
    assert np.array_equal(stack[0], p.coords)
    d_pq = cover.dist(p, q)
    for h in action.elements:
        moved = action.apply(h, p)
        assert np.array_equal(moved.coords, stack[h.index])
        assert np.array_equal(action.apply(action.inverse(h), moved).coords, p.coords)
        assert abs(cover.dist(moved, action.apply(h, q)) - d_pq) <= 1e-12
        for h2 in action.elements:
            assert np.array_equal(
                action.apply(h2, moved).coords, action.apply(action.compose(h2, h), p).coords
            )


def test_gm_action_tables_associative():
    action = gm_action(2, 1.0)
    n = action.order
    T = action.compose_table
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert T[T[i, j], k] == T[i, T[j, k]]


# -- beta -------------------------------------------------------------------------


def test_beta_antipodal_exact(rp2):
    _, action = rp2
    est = beta(action)
    assert est.exact
    assert est.value == pytest.approx(math.pi, abs=1e-15)


def test_beta_gm_exact_and_scaling():
    est1 = beta(gm_action(2, 1.0))
    assert est1.exact
    assert est1.value == pytest.approx(math.pi / 2, abs=1e-14)
    # metric scale k=4 doubles every displacement
    est4 = beta(gm_action(2, 4.0))
    assert est4.value == pytest.approx(2.0 * est1.value, abs=1e-14)


def test_beta_gm_sampled_cross_check():
    # same G(2) action with the displacement floors withheld: the sampled
    # estimate must approach sqrt(k) * beta_gp from above (the diagonal part
    # of the displacement vanishes only toward equal-entry diagonals)
    exact = gm_action(2, 1.0)
    anon = FiniteAction(
        cover=exact.cover,
        labels=[h.label for h in exact.elements],
        images=exact._images,
        compose_table=exact.compose_table,
        inverse_table=exact.inverse_table,
    )
    est = beta(anon, samples=2000)
    assert not est.exact
    assert est.value >= math.pi / 2 - 1e-12
    assert est.value == pytest.approx(math.pi / 2, abs=1e-4)


def test_beta_sampled_estimate(rp2):
    sphere, exact = rp2
    # same action without the declared displacement floor: sampled path
    anon = FiniteAction(
        cover=sphere,
        labels=["e", "antipode"],
        images=exact._images,
        compose_table=np.array([[0, 1], [1, 0]]),
        inverse_table=np.array([0, 1]),
    )
    est = beta(anon, samples=2000)
    assert not est.exact
    assert est.value == pytest.approx(math.pi, abs=1e-9)


# -- quotient distance ------------------------------------------------------------


def test_quotient_dist_wraps_at_half_way(rp2):
    sphere, action = rp2
    p = sphere.point([1.0, 0.0, 0.0])
    q = sphere.exp(p, sphere.tangent(p, [0.0, 2.5, 0.0]))
    got = quotient_dist(action, QuotientPoint(p), QuotientPoint(q))
    assert got == pytest.approx(math.pi - 2.5, abs=1e-12)


def test_quotient_dist_same_fiber_zero(rp2):
    sphere, action = rp2
    rng = rng_for(81)
    p = sphere.random_point(rng)
    flipped = action.apply(action.elements[1], p)
    assert quotient_dist(action, QuotientPoint(p), QuotientPoint(flipped)) < 1e-15
    assert action.same_fiber(p, flipped)


def test_quotient_dist_metric_properties(rp2):
    sphere, action = rp2
    rng = rng_for(82)
    for _ in range(100):
        a, b, c = (QuotientPoint(sphere.random_point(rng)) for _ in range(3))
        dab = quotient_dist(action, a, b)
        dba = quotient_dist(action, b, a)
        dac = quotient_dist(action, a, c)
        dcb = quotient_dist(action, c, b)
        assert abs(dab - dba) < 1e-9
        assert dab <= dac + dcb + 1e-9


def test_d_evt_identity_and_fiber(rp2):
    sphere, action = rp2
    rng = rng_for(83)
    for _ in range(1000):
        q = QuotientPoint(sphere.random_point(rng))
        p = sphere.random_point(rng)
        assert abs(
            d_evt(action, q, p) - quotient_dist(action, q, QuotientPoint(p))
        ) < 1e-12
    q = QuotientPoint(sphere.point([0.0, 1.0, 0.0]))
    in_fiber = action.apply(action.elements[1], q.representative)
    assert d_evt(action, q, in_fiber) < 1e-15


def test_efm_objective_g_invariant(rp2):
    sphere, action = rp2
    rng = rng_for(84)
    Q = [QuotientPoint(sphere.random_point(rng)) for _ in range(4)]
    for _ in range(20):
        p = sphere.random_point(rng)
        f_here = efm_objective(action, Q, p)
        for h in action.elements:
            assert abs(efm_objective(action, Q, action.apply(h, p)) - f_here) < 1e-12


# -- efm_solve ---------------------------------------------------------------------


def test_efm_single_point_returns_fiber(rp2):
    sphere, action = rp2
    q = QuotientPoint(sphere.point([0.0, 0.0, 1.0]))
    res = efm_solve(action, [q])
    assert res.objective < 1e-15
    assert len(res.orbit) == 2
    fiber = {tuple(np.round(p.coords, 9)) for p in action.orbit(q.representative)}
    got = {tuple(np.round(p.coords, 9)) for p in res.orbit}
    assert fiber == got


def test_efm_solve_refuses_an_init_off_the_cover(rp2, monkeypatch):
    """An ``init`` from another manifold is a domain error at entry, before
    any orbit scan, not a numpy shape error."""
    sphere, action = rp2

    def no_scan(*args):
        raise AssertionError("an orbit was scanned")

    monkeypatch.setattr(equivariant, "_scan_orbits", no_scan)
    q = QuotientPoint(sphere.point([0.0, 0.0, 1.0]))
    with pytest.raises(InvalidInputError, match="not 'sphere:2'"):
        efm_solve(action, [q], init=Sphere(3).point([0.0, 0.0, 0.0, 1.0]))


def test_efm_concentrated_orbit_distinct(rp2):
    sphere, action = rp2
    rng = rng_for(85)
    rel = radius_relations(action)
    center = sphere.random_point(rng)
    Q = [
        QuotientPoint(sample_ball(sphere, center, 0.8 * rel.r_cx, rng))
        for _ in range(5)
    ]
    res = efm_solve(action, Q)
    assert len(res.orbit) == action.order
    assert sphere.dist(res.orbit[0], res.orbit[1]) > 1.0
    # all orbit members attain the same objective
    values = [efm_objective(action, Q, p) for p in res.orbit]
    assert max(values) - min(values) < 1e-10
    # orbit projects to a single quotient point
    assert action.same_fiber(res.orbit[0], res.orbit[1])


def test_efm_matches_grid_oracle(rp2):
    sphere, action = rp2
    north = sphere.point([0.0, 0.0, 1.0])
    q1 = sphere.exp(north, sphere.tangent(north, [0.1, 0.0, 0.0]))
    q2 = sphere.exp(north, sphere.tangent(north, [-0.1, 0.05, 0.0]))
    Q = [QuotientPoint(q1), QuotientPoint(q2)]
    res = efm_solve(action, Q)
    grid = sphere_grid_argmin(sphere, lambda p: efm_objective(action, Q, p))
    assert quotient_dist(
        action, res.downstairs_mean, QuotientPoint(grid)
    ) < 1e-6
    # two nearby reps: downstairs mean is the sphere midpoint
    mid = frechet_mean(Configuration(sphere, (q1, q2))).minimizer
    assert quotient_dist(action, res.downstairs_mean, QuotientPoint(mid)) < 1e-8


def test_efm_objective_nonincreasing_outer(rp2):
    sphere, action = rp2
    rng = rng_for(86)
    Q = [QuotientPoint(sphere.random_point(rng)) for _ in range(6)]
    res = efm_solve(action, Q)
    # converged: downstairs mean cannot be beaten by any sample rep
    for q in Q:
        assert res.objective <= efm_objective(action, Q, q.representative) + 1e-12


def efm_cases():
    """(action, data) pairs: RP^2 with spread-out data, and G(2) acting on
    the PSR cover with random SPD samples."""
    sphere = Sphere(2)
    rng = rng_for(87)
    rp2_data = [QuotientPoint(sphere.random_point(rng)) for _ in range(6)]
    psr = gm_action(2, 1.0)
    psr_data = [
        QuotientPoint(eig_canonical(sample_spd(rng, 2, 0.5)).to_point(psr.cover))
        for _ in range(7)
    ]
    return [(antipodal_action(sphere), rp2_data), (psr, psr_data)]


@pytest.mark.parametrize("case", [0, 1], ids=["rp2", "psr_m2"])
@pytest.mark.parametrize("from_init", [False, True], ids=["samples", "init"])
def test_efm_scans_each_orbit_stack_once_per_outer_step(monkeypatch, case, from_init):
    """One scan per Karcher solve, plus one per candidate start: the N
    sample representatives, or the given init.  The confirming outer
    iteration runs no scan of its own."""
    action, Q = efm_cases()[case]
    calls = []

    def counting_scan(*args):
        calls.append(1)
        return _scan_orbits(*args)

    monkeypatch.setattr(equivariant, "_scan_orbits", counting_scan)
    init = action.apply(action.elements[1], Q[2].representative) if from_init else None
    res = efm_solve(action, Q, init=init)
    assert len(calls) == res.outer_iterations - 1 + (1 if from_init else len(Q))


@pytest.mark.parametrize("case", [0, 1], ids=["rp2", "psr_m2"])
def test_efm_inner_iterations_sum_the_karcher_solves(monkeypatch, case):
    action, Q = efm_cases()[case]
    done = []

    def counting_descent(*args, **kwargs):
        res = karcher_descent(*args, **kwargs)
        done.append(res.iterations)
        return res

    monkeypatch.setattr(equivariant, "karcher_descent", counting_descent)
    res = efm_solve(action, Q)
    assert len(done) == res.outer_iterations - 1
    assert res.inner_iterations == sum(done) > 0


def efm_solve_before_the_stop_rule(action, Q, tol=1e-10, max_outer=500, inner_tol=1e-11, init=None):
    """The outer loop as it stood before it stopped at the repeated
    alignment: it ran the confirming pass (a Karcher solve and a scan) and
    stopped once the objective decrease fell below ``tol`` with the
    alignment stable for two iterations.  Returns the objective, alignment
    indices, outer and inner iteration counts and the orbit stack."""
    cover = action.cover
    orbits = np.stack([action.orbit_stack(q.representative) for q in Q])

    def lift_points(idx):
        return [Point(cover.manifold_id, _frozen(orbits[i, j])) for i, j in enumerate(idx)]

    def scan(coords):
        idx, dists = _scan_orbits(cover, orbits, coords)
        return idx, float(np.mean(np.square(dists)))

    if init is None:
        p, (idx, f) = min(
            ((q.representative, scan(q.representative.coords)) for q in Q),
            key=lambda entry: entry[1][1],
        )
    else:
        p, (idx, f) = init, scan(init.coords)
    prev_alignment = None
    stable = 0
    inner_done = 0
    for outer in range(1, max_outer + 1):
        stable = stable + 1 if idx == prev_alignment else 1
        prev_alignment = idx
        step = karcher_descent(Configuration(cover, tuple(lift_points(idx))), p, tol=inner_tol)
        inner_done += step.iterations
        p = step.minimizer
        f_prev = f
        idx, f = scan(p.coords)
        if f_prev - f < tol and stable >= 2:
            break
    else:
        raise NoConvergenceError(f"no convergence in {max_outer} outer iterations")
    return f, idx, outer, inner_done, np.stack([q.coords for q in action.orbit(p)])


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    group=st.sampled_from(["rp2", "gm2", "gm3"]),
    k=st.sampled_from([0.25, 1.0, 4.0]),
    size=st.integers(min_value=1, max_value=6),
    sigma=st.sampled_from([0.3, 1.0, 2.0]),
    from_init=st.booleans(),
)
def test_efm_solve_matches_the_loop_before_the_stop_rule(seed, group, k, size, sigma, from_init):
    """Stopping at the scan that repeats the alignment changes nothing the
    solve reports: objective, alignment, both iteration counts and the
    orbit are bitwise those of the loop that ran the confirming pass."""
    rng = np.random.Generator(np.random.Philox(key=[0xEF5A, seed]))
    action, Q = efm_data(rng, group, k, size, sigma)
    init = None
    if from_init:
        h = action.elements[int(rng.integers(action.order))]
        init = action.apply(h, Q[int(rng.integers(size))].representative)
    try:
        expected = efm_solve_before_the_stop_rule(action, Q, init=init)
    except (NoConvergenceError, CutLocusError, MaxIterExceededError):
        with pytest.raises(NoConvergenceError):
            efm_solve(action, Q, init=init)
        return
    res = efm_solve(action, Q, init=init)
    f, idx, outer, inner, orbit = expected
    assert res.objective == f
    assert [h.index for h in res.alignment] == idx
    assert res.outer_iterations == outer
    assert res.inner_iterations == inner
    assert np.array_equal(np.stack([q.coords for q in res.orbit]), orbit)


def test_efm_solve_lifts_are_read_only_views_of_one_orbit_stack(rp2):
    """Each quotient point keeps one read-only orbit stack per action, and
    the aligned lifts are views of those stacks."""
    sphere, action = rp2
    rng = rng_for(88)
    Q = [QuotientPoint(sphere.random_point(rng)) for _ in range(5)]
    res = efm_solve(action, Q)
    stacks = [q.orbit_stack(action) for q in Q]
    for q, stack, lift, h in zip(Q, stacks, res.aligned_lifts, res.alignment):
        assert q.orbit_stack(action) is stack
        assert np.array_equal(stack, action.orbit_stack(q.representative))
        assert not stack.flags.writeable and not lift.coords.flags.writeable
        assert lift.coords.base is not None
        assert np.array_equal(lift.coords, stack[h.index])
    # a half turn about the z axis: the same cover, another orbit
    half_turn = FiniteAction(
        cover=sphere,
        labels=["e", "half_turn"],
        images=lambda c: np.stack([c, c * [-1, -1, 1]]),
        compose_table=np.array([[0, 1], [1, 0]]),
        inverse_table=np.array([0, 1]),
    )
    turned = Q[0].orbit_stack(half_turn)
    assert np.array_equal(turned, half_turn.orbit_stack(Q[0].representative))
    assert not np.array_equal(turned, stacks[0])
    assert Q[0].orbit_stack(action) is stacks[0]


# -- even_cover_lifts ---------------------------------------------------------------


def test_even_cover_radius_guard(rp2):
    sphere, action = rp2
    center = QuotientPoint(sphere.point([0.0, 0.0, 1.0]))
    with pytest.raises(RadiusTooLargeError):
        even_cover_lifts(action, center, math.pi / 2, [center])


def test_even_cover_lift_structure(rp2):
    sphere, action = rp2
    rng = rng_for(87)
    center_rep = sphere.random_point(rng)
    center = QuotientPoint(center_rep)
    r = 0.5
    Q = [QuotientPoint(sample_ball(sphere, center_rep, r, rng)) for _ in range(4)]
    sheets = even_cover_lifts(action, center, r, Q)
    assert set(sheets) == set(action.elements)
    e, sigma = action.elements
    for a, b in zip(sheets[e].points, sheets[sigma].points):
        assert np.max(np.abs(a.coords + b.coords)) < 1e-15  # antipodal images
    # equivariance is exact by construction: h1 . lifts[h2] == lifts[h1 h2]
    for h1 in action.elements:
        for h2 in action.elements:
            lhs = [action.apply(h1, p) for p in sheets[h2].points]
            rhs = sheets[action.compose(h1, h2)].points
            for a, b in zip(lhs, rhs):
                assert np.array_equal(a.coords, b.coords)


def test_even_cover_per_sheet_means_equivariant(rp2):
    # sheet means permute under the group and project to the downstairs mean
    sphere, action = rp2
    rng = rng_for(88)
    for _ in range(10):
        center_rep = sphere.random_point(rng)
        r = 0.6
        Q = [QuotientPoint(sample_ball(sphere, center_rep, r, rng)) for _ in range(4)]
        sheets = even_cover_lifts(action, QuotientPoint(center_rep), r, Q)
        means = {h: frechet_mean(conf) for h, conf in sheets.items()}
        for h1 in action.elements:
            for h2 in action.elements:
                moved = action.apply(h1, means[h2].minimizer)
                target = means[action.compose(h1, h2)].minimizer
                assert sphere.dist(moved, target) < 1e-8
        efm = efm_solve(action, Q)
        for h in action.elements:
            assert quotient_dist(
                action, QuotientPoint(means[h].minimizer), efm.downstairs_mean
            ) < 1e-8
        # concentrated case: efm orbit equals the per-sheet means as a set
        for h in action.elements:
            assert min(
                sphere.dist(means[h].minimizer, member) for member in efm.orbit
            ) < 1e-8
        for member in efm.orbit:
            assert min(
                sphere.dist(means[h].minimizer, member) for h in action.elements
            ) < 1e-8


def test_even_cover_lifts_and_efm_solve_build_each_orbit_once(rp2, monkeypatch):
    """The lifts read each sample's kept orbit stack, so lifting N points
    and solving their equivariant mean builds N orbits, not 2N."""
    sphere, action = rp2
    rng = rng_for(89)
    center_rep = sphere.random_point(rng)
    Q = [QuotientPoint(sample_ball(sphere, center_rep, 0.6, rng)) for _ in range(4)]
    builds = []
    orbit_stack = FiniteAction.orbit_stack

    def counting(self, p):
        builds.append(p)
        return orbit_stack(self, p)

    monkeypatch.setattr(FiniteAction, "orbit_stack", counting)
    even_cover_lifts(action, QuotientPoint(center_rep), 0.6, Q)
    efm_solve(action, Q)
    assert builds == [q.representative for q in Q]


def test_even_cover_rejects_outside_points(rp2):
    sphere, action = rp2
    center = QuotientPoint(sphere.point([0.0, 0.0, 1.0]))
    far = QuotientPoint(sphere.point([1.0, 0.0, 0.0]))
    with pytest.raises(InvalidInputError):
        even_cover_lifts(action, center, 0.5, [far])


# -- radius_relations ----------------------------------------------------------------


def test_radius_relations_rp2(rp2):
    _, action = rp2
    rel = radius_relations(action)
    assert rel.r_inj == pytest.approx(math.pi / 2, abs=1e-15)
    assert rel.r_cx == pytest.approx(math.pi / 4, abs=1e-15)


def test_radius_relations_gm():
    for m, k in [(2, 1.0), (2, 4.0), (3, 1.0)]:
        rel = radius_relations(gm_action(m, k))
        from riemmean.spd import psr_constants

        consts = psr_constants(m, k)
        assert rel.r_inj == pytest.approx(consts.r_inj_quotient, abs=1e-14)
        assert rel.r_cx == pytest.approx(consts.r_cx_quotient, abs=1e-14)


def test_radius_relations_large_displacement():
    # with a huge-displacement action the quotient inherits the cover's radii
    sphere = Sphere(2)
    action = FiniteAction(
        cover=sphere,
        labels=["e", "g"],
        images=lambda c: np.stack([c, -c]),
        compose_table=np.array([[0, 1], [1, 0]]),
        inverse_table=np.array([0, 1]),
        displacement_floor=[0.0, 1e9],
    )
    rel = radius_relations(action)
    assert rel.r_inj == pytest.approx(sphere.constants.r_inj)
    assert rel.r_cx == pytest.approx(sphere.constants.r_cx)


# -- every equivariant mean is a barycenter of its aligned lifts ---------------------


def efm_data(rng, group, k, size, sigma):
    """``size`` quotient points: uniform on RP^2 (``k`` and ``sigma``
    unused), or canonical lifts of SPD samples on the eigendecomposition
    cover of m = 2, 3."""
    if group == "rp2":
        action = antipodal_action(Sphere(2))
        return action, [QuotientPoint(action.cover.random_point(rng)) for _ in range(size)]
    m = int(group[-1])
    action = gm_action(m, k)
    Q = []
    while len(Q) < size:
        try:
            pair = eig_canonical(sample_spd(rng, m, sigma))
        except DegenerateSpectrumError:
            continue
        Q.append(QuotientPoint(pair.to_point(action.cover)))
    return action, Q


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    group=st.sampled_from(["rp2", "gm2", "gm3"]),
    k=st.sampled_from([0.25, 1.0, 4.0]),
    size=st.integers(min_value=1, max_value=6),
    sigma=st.sampled_from([0.3, 1.0, 2.0]),
)
def test_efm_solve_mean_is_a_barycenter_of_its_aligned_lifts(seed, group, k, size, sigma):
    """On RP^2 (uniform data; ``k`` and ``sigma`` unused) and on the
    eigendecomposition covers of m = 2, 3 (canonical lifts of SPD samples):
    the representative `efm_solve` returns is a barycenter of its aligned
    lifts within C3's bound, and each lift is its sample's orbit member
    nearest the representative."""
    rng = np.random.Generator(np.random.Philox(key=[0xEF3B, seed]))
    action, Q = efm_data(rng, group, k, size, sigma)
    try:
        res = efm_solve(action, Q)
    except NoConvergenceError:
        reject()
    cover = action.cover
    rep = res.downstairs_mean.representative
    lifts = Configuration(cover, tuple(res.aligned_lifts))
    assert barycenter_check(lifts, rep)[0] < BARYCENTER_TOL
    for q, lift in zip(Q, res.aligned_lifts):
        assert cover.dist(rep, lift) <= action.orbit_dist(q.representative, rep) + 1e-12
