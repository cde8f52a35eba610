"""Batched kernels against the per-point kernels, over generated inputs.

Every manifold kind has three batched kernels: ``_dist_block``,
``_log_block`` (the logs as rows) and ``_log_mean`` (only their mean and
mean squared norm).  The base class derives ``_log_block`` and the
cut-locus predicate from the per-point ``_log``; the solvers and the orbit
scans use only ``_dist_block`` and ``_log_mean``.  Here each row of a block
must agree with the per-point kernel, cut-locus refusals included (on S^2
bit for bit), a point must be in the cut locus iff its log refuses,
``_log_mean`` must agree with the mean of the block's rows and refuse
exactly when the block does, `barycenter_check` must agree with a
point-by-point loop, and the stacked orbit scan must keep the lowest-index
tie rule.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    PARITY_TOL,
    sphere_angles_with_einsum,
    sphere_log_condition,
    sphere_log_mean_with_einsum,
)
from riemmean.core import rotation_exp
from riemmean.equivariant import _scan_orbits
from riemmean.errors import CutLocusError
from riemmean.frechet import (
    BOUNDARY_UNCLASSIFIED,
    SHORT,
    Configuration,
    barycenter_check,
)
from riemmean.manifolds import CUT_TOL, DiagPos, Euclidean, SpecialOrthogonal, Sphere
from riemmean.spd import (
    act,
    cover_manifold,
    eig_canonical,
    gm_action,
    group_enumerate,
    sample_spd,
)

# offsets below pi of a relative rotation angle: inside, at and around the
# cut-locus margin CUT_TOL, and well clear of it
NEAR_PI = [0.0, 1e-12, 1e-9, 0.5 * CUT_TOL, 2.0 * CUT_TOL, 1e-6, 1e-3]

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def rng_of(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[0xB10C, seed]))


def random_rotation(rng, m: int) -> np.ndarray:
    return SpecialOrthogonal(m)._random_coords(rng)


def rotation_near_pi(rng, m: int, offset: float) -> np.ndarray:
    """A rotation whose largest angle is ``pi - offset``, in a random plane."""
    V = random_rotation(rng, m)
    X = np.zeros((m, m))
    X[0, 1], X[1, 0] = -(math.pi - offset), math.pi - offset
    return V @ rotation_exp(X) @ V.T


def so_stack(rng, m: int, size: int, offsets) -> tuple[np.ndarray, np.ndarray]:
    """A base rotation and a (size, m, m) stack around it; the rows listed
    in ``offsets`` sit at relative angle pi - offset from the base."""
    p = random_rotation(rng, m)
    rows = [random_rotation(rng, m) for _ in range(size)]
    for i, offset in offsets:
        rows[i % size] = p @ rotation_near_pi(rng, m, offset)
    return p, np.stack(rows)


def sphere_stack(rng, n: int, size: int, offsets) -> tuple[np.ndarray, np.ndarray]:
    """A base point of ``Sphere(n)`` and a (size, n + 1) stack of points;
    the rows listed in ``offsets`` sit at angle pi - offset from the base."""
    sphere = Sphere(n)
    p = sphere._random_coords(rng)
    rows = [sphere._random_coords(rng) for _ in range(size)]
    for i, offset in offsets:
        u = sphere._project(p, rng.standard_normal(n + 1))
        u /= np.linalg.norm(u)
        rows[i % size] = math.cos(math.pi - offset) * p + math.sin(math.pi - offset) * u
    return p, np.stack(rows)


def cover_stack(rng, size: int, offsets, k: float = 1.0):
    """A base point of ``cover_manifold(3, k)`` and a (size, 12) stack around
    it; the rotation parts listed in ``offsets`` sit at relative angle
    pi - offset from the base's."""
    cover = cover_manifold(3, k)
    p_rot, rots = so_stack(rng, 3, size, offsets)
    p = cover.join([p_rot, np.exp(rng.standard_normal(3))])
    stack = np.stack([cover.join([R, np.exp(rng.standard_normal(3))]) for R in rots])
    return cover, p, stack


def check_log_parity(manifold, p, stack, tol, scalar_log):
    """Block logs match per-row logs; the block refuses iff some row does."""
    rows = []
    refused = False
    for q in stack:
        try:
            rows.append(scalar_log(p, q, tol))
        except CutLocusError:
            refused = True
    if refused:
        with pytest.raises(CutLocusError):
            manifold._log_block(p, stack, tol)
        return
    vecs, sq = manifold._log_block(p, stack, tol)
    assert vecs.shape == stack.shape
    for v, s, row in zip(vecs, sq, rows):
        assert np.max(np.abs(v - row)) <= PARITY_TOL
        inner = manifold._inner(p, row, row)
        assert abs(s - inner) <= PARITY_TOL * max(1.0, inner)


@settings(max_examples=80, deadline=None)
@given(
    seed=seeds,
    m=st.sampled_from([2, 3, 4]),
    k=st.sampled_from([0.25, 2.0, 4.0]),
    size=st.integers(min_value=1, max_value=7),
    near_pi=st.lists(
        st.tuples(st.integers(0, 6), st.sampled_from(NEAR_PI)), max_size=2
    ),
)
def test_so_blocks_match_per_point_kernels(seed, m, k, size, near_pi):
    so = SpecialOrthogonal(m, k)
    p, stack = so_stack(rng_of(seed), m, size, near_pi)
    dists = so._dist_block(p, stack)
    assert dists.shape == (size,)
    for d, q in zip(dists, stack):
        assert abs(d - so._dist(p, q)) <= PARITY_TOL
    check_log_parity(so, p, stack, CUT_TOL, so._log)


@settings(max_examples=60, deadline=None)
@given(
    seed=seeds,
    size=st.integers(min_value=1, max_value=7),
    near_pi=st.lists(
        st.tuples(st.integers(0, 6), st.sampled_from(NEAR_PI)), max_size=2
    ),
)
def test_product_blocks_match_per_point_kernels(seed, size, near_pi):
    """On cover_manifold(3) the blocks slice the stack into factor blocks;
    the per-point kernels split each point and combine factor by factor."""
    cover = cover_manifold(3, 1.0)
    rng = rng_of(seed)
    p_rot, rots = so_stack(rng, 3, size, near_pi)
    p = cover.join([p_rot, np.exp(rng.standard_normal(3))])
    stack = np.stack([cover.join([R, np.exp(rng.standard_normal(3))]) for R in rots])
    dists = cover._dist_block(p, stack)
    assert dists.shape == (size,)
    for d, q in zip(dists, stack):
        assert abs(d - cover._dist(p, q)) <= PARITY_TOL
    check_log_parity(cover, p, stack, CUT_TOL, cover._log)


def log_refuses(manifold, p, q, tol) -> bool:
    try:
        manifold._log(p, q, tol)
    except CutLocusError:
        return True
    return False


@settings(max_examples=120, deadline=None)
@given(
    seed=seeds,
    kind=st.sampled_from(["so", "sphere", "cover", "flat"]),
    m=st.sampled_from([2, 3, 4]),
    k=st.sampled_from([0.25, 1.0, 4.0]),
    offset=st.sampled_from(
        [0.0, 0.25, 0.5, 0.7, 0.9, 1.0, 1.1, 1.5, 2.0, 2.5, 4.0, 100.0]
    ),
)
@example(seed=0, kind="so", m=4, k=4.0, offset=0.7)
def test_in_cut_locus_iff_log_refuses(seed, kind, m, k, offset):
    """A point is in the cut locus iff its log refuses it, on every kind:
    SO(m, k) and the cover ``cover_manifold(3, k)`` at relative angle
    ``pi - offset * CUT_TOL``, ``Sphere(2)`` at that angle from the base,
    and Euclidean and DiagPos, which never refuse.

    The margin ``tol`` is a distance, so the log refuses iff the angular
    gap ``offset * CUT_TOL``, times ``sqrt(k)`` (1 on the sphere), is below
    ``CUT_TOL``; the gaps equal to it are left to rounding."""
    rng = rng_of(seed)
    scale = math.sqrt(k)
    if kind == "so":
        manifold = SpecialOrthogonal(m, k)
        p = random_rotation(rng, m)
        q = p @ rotation_near_pi(rng, m, offset * CUT_TOL)
    elif kind == "sphere":
        manifold, scale = Sphere(2), 1.0
        p, stack = sphere_stack(rng, 2, 1, [(0, offset * CUT_TOL)])
        q = stack[0]
    elif kind == "cover":
        manifold, p, stack = cover_stack(rng, 1, [(0, offset * CUT_TOL)], k)
        q = stack[0]
    else:
        flat = rng.standard_normal((2, m)) * 10.0
        for manifold, (p, q) in ((Euclidean(m), flat), (DiagPos(m), np.exp(flat))):
            assert not log_refuses(manifold, p, q, CUT_TOL)
            assert not manifold._in_cut_locus(p, q, CUT_TOL)
        return
    refused = log_refuses(manifold, p, q, CUT_TOL)
    assert refused == manifold._in_cut_locus(p, q, CUT_TOL)
    if not math.isclose(offset * scale, 1.0):
        assert refused == (offset * scale < 1.0)


def check_mean_parity(manifold, p, stack, tol, condition=1.0):
    """`_log_mean` is the mean of the `_log_block` rows and of their squared
    norms, within PARITY_TOL times ``condition`` relative to the largest
    row entry (at least 1); it refuses iff the block does."""
    try:
        vecs, sq = manifold._log_block(p, stack, tol)
    except CutLocusError:
        with pytest.raises(CutLocusError):
            manifold._log_mean(p, stack, tol)
        return
    mean, mean_sq = manifold._log_mean(p, stack, tol)
    assert mean.shape == p.shape
    scale = max(1.0, float(np.max(np.abs(vecs))))
    assert np.max(np.abs(mean - vecs.mean(axis=0))) <= PARITY_TOL * condition * scale
    assert isinstance(mean_sq, float)
    assert abs(mean_sq - sq.mean()) <= PARITY_TOL * condition * max(1.0, sq.mean())


near_pi_rows = st.lists(
    st.tuples(st.integers(0, 6), st.sampled_from(NEAR_PI)), max_size=2
)


@settings(max_examples=80, deadline=None)
@given(
    seed=seeds,
    n=st.sampled_from([1, 2, 3]),
    size=st.integers(min_value=1, max_value=7),
    near_pi=near_pi_rows,
)
def test_sphere_log_mean_matches_block(seed, n, size, near_pi):
    """The block's rows are the per-point logs.  Off S^2 the mean is formed
    by numpy's block arithmetic, whose rounding differs from theirs; near
    the antipode the log's condition number theta / sin(theta) scales that
    difference (see `test_barycenter_check_matches_the_per_point_loop`)."""
    sphere = Sphere(n)
    p, stack = sphere_stack(rng_of(seed), n, size, near_pi)
    condition = sphere_log_condition(sphere._dist_block(p, stack))
    check_mean_parity(sphere, p, stack, CUT_TOL, condition)


@settings(max_examples=80, deadline=None)
@given(
    seed=seeds,
    m=st.sampled_from([2, 3, 4]),
    k=st.sampled_from([0.25, 2.0, 4.0]),
    size=st.integers(min_value=1, max_value=7),
    near_pi=near_pi_rows,
)
def test_so_log_mean_matches_block(seed, m, k, size, near_pi):
    p, stack = so_stack(rng_of(seed), m, size, near_pi)
    check_mean_parity(SpecialOrthogonal(m, k), p, stack, CUT_TOL)


@settings(max_examples=60, deadline=None)
@given(
    seed=seeds,
    size=st.integers(min_value=1, max_value=7),
    near_pi=near_pi_rows,
)
def test_product_log_mean_matches_block(seed, size, near_pi):
    cover, p, stack = cover_stack(rng_of(seed), size, near_pi)
    check_mean_parity(cover, p, stack, CUT_TOL)


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    n=st.integers(min_value=1, max_value=4),
    size=st.integers(min_value=1, max_value=7),
    scale=st.sampled_from([1e-8, 1.0, 3.0]),
)
def test_flat_log_means_match_blocks(seed, n, size, scale):
    """Euclidean and DiagPos have no cut locus: the mean never refuses."""
    rng = rng_of(seed)
    flat = rng.standard_normal((size + 1, n)) * scale
    check_mean_parity(Euclidean(n), flat[0], flat[1:], CUT_TOL)
    positive = np.exp(flat)
    check_mean_parity(DiagPos(n), positive[0], positive[1:], CUT_TOL)


def sphere_stack_with_close_rows(rng, n, size, near_pi, close):
    """`sphere_stack` plus rows equal to the base (angle 0) or at angle
    1e-9 from it, at the indices listed in ``close``."""
    p, stack = sphere_stack(rng, n, size, near_pi)
    for i, angle in close:
        u = Sphere(n)._project(p, rng.standard_normal(n + 1))
        u /= np.linalg.norm(u)
        stack[i % size] = p if angle == 0.0 else math.cos(angle) * p + math.sin(angle) * u
    return p, stack


close_rows = st.lists(st.tuples(st.integers(0, 6), st.sampled_from([0.0, 1e-9])), max_size=2)


@settings(max_examples=120, deadline=None)
@given(
    seed=seeds,
    n=st.sampled_from([1, 2, 3]),
    size=st.integers(min_value=1, max_value=7),
    near_pi=near_pi_rows,
    close=close_rows,
)
def test_sphere_dist_block_rows_match_per_point_dist(seed, n, size, near_pi, close):
    """Off S^2 the block reads each row's norm with one `np.hypot`
    reduction and the per-point `_dist` with ``sqrt(w.dot(w))`` after a
    clamp; distances are well conditioned everywhere, so the rows agree
    within PARITY_TOL, for identical rows, rows 1e-9 apart and rows next to
    the antipode.  (On S^2 they are equal: `test_s2_blocks_are_their_rows`.)"""
    sphere = Sphere(n)
    p, stack = sphere_stack_with_close_rows(rng_of(seed), n, size, near_pi, close)
    dists = sphere._dist_block(p, stack)
    assert dists.shape == (size,)
    for d, q in zip(dists, stack):
        assert abs(d - sphere._dist(p, q)) <= PARITY_TOL


@settings(max_examples=150, deadline=None)
@given(
    seed=seeds,
    size=st.integers(min_value=1, max_value=7),
    near_pi=near_pi_rows,
    close=close_rows,
)
def test_s2_blocks_are_their_rows(seed, size, near_pi, close):
    """On S^2 every kernel writes out the same float row arithmetic (the
    S^2 row kind, `manifolds._S2`), so the blocks are their rows bit for
    bit: each
    `_dist_block` entry is `_dist`, each `_log_block` row is `_log`, and
    `_log_mean` / `_karcher_step` refuse exactly when some row's `_log`
    does; otherwise they return the rows' mean log and mean squared
    distance, summed in row order.  Rows include copies of the base, rows
    1e-9 from it and rows inside, at and around the cut-locus margin."""
    sphere = Sphere(2)
    p, stack = sphere_stack_with_close_rows(rng_of(seed), 2, size, near_pi, close)
    dists = sphere._dist_block(p, stack)
    assert [float(d) for d in dists] == [sphere._dist(p, q) for q in stack]
    for tol in (CUT_TOL, 1e-15):
        refused = [log_refuses(sphere, p, q, tol) for q in stack]
        if any(refused):
            for kernel in (sphere._log_block, sphere._log_mean, sphere._karcher_step):
                with pytest.raises(CutLocusError):
                    kernel(p, stack, tol)
            continue
        rows = [sphere._log(p, q, tol) for q in stack]
        vecs, sq = sphere._log_block(p, stack, tol)
        assert np.array_equal(vecs, np.stack(rows))
        assert [float(s) for s in sq] == [sphere._inner(p, v, v) for v in rows]
        total, total_sq = rows[0], dists[0] * dists[0]
        for v, d in zip(rows[1:], dists[1:]):
            total, total_sq = total + v, total_sq + d * d
        mean, mean_sq = sphere._log_mean(p, stack, tol)
        assert np.array_equal(mean, total / size)
        assert mean_sq == total_sq / size
        step, step_sq, step_mean = sphere._karcher_step(p, stack, tol)
        assert np.array_equal(step, mean) and np.array_equal(step_mean, mean)
        assert step_sq == mean_sq


FORM_KINDS = [
    Euclidean(3),
    Sphere(1),
    Sphere(2),
    Sphere(3),
    *[SpecialOrthogonal(m, k) for m in (2, 3, 4) for k in (1.0, 2.5)],
    DiagPos(3),
    cover_manifold(2),
    cover_manifold(3),
]


@pytest.mark.parametrize("m", FORM_KINDS, ids=lambda m: m.manifold_id)
@settings(max_examples=15, deadline=None)
@given(seed=seeds, size=st.integers(min_value=1, max_value=9))
def test_form_dists_of_dist_form_are_the_dist_block(m, seed, size):
    """``_form_dists(p, _dist_form(stack))`` is ``_dist_block(p, stack)``
    bit for bit on every kind, whatever form the kind keeps its stacks in
    (the array, or its float rows); the base point is one of the rows."""
    rng = rng_of(seed)
    p = m.random_point(rng).coords
    stack = np.stack([p] + [m.random_point(rng).coords for _ in range(size - 1)])
    want = m._dist_block(p, stack)
    got = m._form_dists(p, m._dist_form(stack))
    assert got.dtype == want.dtype and got.shape == want.shape == (size,)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "m", [m for m in FORM_KINDS if "so:3" not in m.manifold_id], ids=lambda m: m.manifold_id
)
@settings(max_examples=15, deadline=None)
@given(seed=seeds, size=st.integers(min_value=1, max_value=9))
def test_karcher_step_is_the_mean_log_without_so3(m, seed, size):
    """On every kind without an SO(3) factor the Karcher step is the mean
    log of the same pass, bit for bit (SO(3)'s Newton step has its own
    test, `test_so3_step_solves_the_newton_equation`); the base point is
    one of the rows."""
    rng = rng_of(seed)
    p = m.random_point(rng).coords
    stack = np.stack([p] + [m.random_point(rng).coords for _ in range(size - 1)])
    step, _, mean = m._karcher_step(p, stack, CUT_TOL)
    assert step.dtype == mean.dtype and step.shape == mean.shape == p.shape
    assert step.tobytes() == mean.tobytes()


@settings(max_examples=120, deadline=None)
@given(
    seed=seeds,
    n=st.sampled_from([1, 2, 3]),
    size=st.integers(min_value=1, max_value=7),
    near_pi=near_pi_rows,
    close=close_rows,
)
def test_sphere_log_mean_refuses_where_the_einsum_kernel_did(seed, n, size, near_pi, close):
    """The float rows on S^2 and the `np.hypot` row norms elsewhere move
    the angles by rounding only: the mean log refuses exactly where the
    ``sqrt(einsum)`` kernel refused, and its
    values agree within PARITY_TOL times the log's condition number
    theta / sin(theta) (see `test_barycenter_check_matches_the_per_point_loop`)."""
    sphere = Sphere(n)
    p, stack = sphere_stack_with_close_rows(rng_of(seed), n, size, near_pi, close)
    for tol in (CUT_TOL, 1e-15):
        try:
            want = sphere_log_mean_with_einsum(p, stack, tol)
        except CutLocusError:
            with pytest.raises(CutLocusError):
                sphere._log_mean(p, stack, tol)
            continue
        mean, mean_sq = sphere._log_mean(p, stack, tol)
        theta = sphere_angles_with_einsum(p, stack)[0]
        condition = sphere_log_condition(theta)
        assert np.max(np.abs(mean - want[0])) <= PARITY_TOL * condition
        assert abs(mean_sq - want[1]) <= PARITY_TOL * max(1.0, want[1])


def barycenter_check_per_point(Q, p, tol=CUT_TOL):
    """`barycenter_check` as a loop over the points: the cut-locus test and
    the log of each point in turn."""
    m = Q.manifold
    boundary = False
    vecs = []
    for q in Q.points:
        if m._in_cut_locus(p.coords, q.coords, tol):
            boundary = True
            vecs.append(m._log(p.coords, q.coords, 1e-15))
        else:
            vecs.append(m._log(p.coords, q.coords, tol))
    mean = np.mean(vecs, axis=0) if len(vecs) > 1 else vecs[0]
    residual = math.sqrt(max(m._inner(p.coords, mean, mean), 0.0))
    return residual, (BOUNDARY_UNCLASSIFIED if boundary else SHORT)


def outcome(check, Q, p):
    try:
        return check(Q, p)
    except CutLocusError:
        return None


@settings(max_examples=120, deadline=None)
@given(
    seed=seeds,
    kind=st.sampled_from(["sphere", "so", "cover"]),
    k=st.sampled_from([0.25, 1.0, 4.0]),
    size=st.integers(min_value=1, max_value=7),
    near_pi=st.lists(
        st.tuples(st.integers(0, 6), st.sampled_from(NEAR_PI)), min_size=1, max_size=3
    ),
)
def test_barycenter_check_matches_the_per_point_loop(seed, kind, k, size, near_pi):
    """The batched check classifies, refuses and measures the residual as
    the point-by-point loop does, also with data inside, at and around the
    cut-locus margin.

    On S^2, SO(3) and the cover the batched rows are the per-point logs'
    own arithmetic, so the residuals agree within PARITY_TOL.
    """
    rng = rng_of(seed)
    if kind == "sphere":
        manifold = Sphere(2)
        p, stack = sphere_stack(rng, 2, size, near_pi)
    elif kind == "so":
        manifold = SpecialOrthogonal(3, k)
        p, stack = so_stack(rng, 3, size, near_pi)
    else:
        manifold, p, stack = cover_stack(rng, size, near_pi, k)
    Q = Configuration(manifold, tuple(manifold.point(q) for q in stack))
    base = manifold.point(p)
    got = outcome(barycenter_check, Q, base)
    want = outcome(barycenter_check_per_point, Q, base)
    assert (got is None) == (want is None)
    if got is not None:
        assert got[1] == want[1]
        assert abs(got[0] - want[0]) <= PARITY_TOL


def test_scan_orbits_lowest_index_on_exact_ties():
    sphere = Sphere(2)
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    c = np.array([0.0, 0.0, 1.0])
    target = np.array([0.6, 0.8, 0.0])
    # orbit 0: the nearest member b is duplicated at 1 and 2;
    # orbit 1: every member equals c, so all distances tie
    orbits = np.stack([[a, b, b], [c, c, c]])
    idx, dists = _scan_orbits(sphere, orbits, target)
    assert idx == [1, 0]
    assert dists[0] == sphere._dist_block(target, b[None])[0]
    assert dists[1] == pytest.approx(math.pi / 2, abs=1e-15)


def test_scan_orbits_ties_on_product_cover():
    cover = cover_manifold(2, 1.0)
    rng = rng_of(11)
    pts = [cover.random_point(rng).coords for _ in range(3)]
    orbits = np.stack([[pts[0], pts[1], pts[1], pts[2]]])
    idx, dists = _scan_orbits(cover, orbits, pts[1])
    assert idx == [1]
    assert dists[0] <= 1e-7


@pytest.mark.parametrize("m", [2, 3])
def test_gm_orbit_stack_is_act_elementwise(m):
    """The batched orbit of the PSR action equals `act` element by element,
    bit for bit (signed permutations only move and negate entries)."""
    action = gm_action(m, 2.0)
    canon = eig_canonical(sample_spd(rng_of(m), m, 1.0))
    p = canon.to_point(action.cover)
    expected = np.stack(
        [act(h, canon).to_point(action.cover).coords for h in group_enumerate(m)]
    )
    assert np.array_equal(action.orbit_stack(p), expected)
    assert np.array_equal(np.stack([q.coords for q in action.orbit(p)]), expected)


def test_gm_action_built_once_per_m_and_k():
    assert gm_action(3) is gm_action(3, 1.0)
    assert gm_action(3, 2.0) is not gm_action(3, 1.0)
