"""Batched kernels against the per-point kernels, over generated inputs.

Every manifold kind has one batched pair, ``_dist_block`` and
``_log_block``; the solvers and the orbit scans use only those.  Here each
row of a block must agree with the per-point kernel, cut-locus refusals
included, and the stacked orbit scan must keep the lowest-index tie rule.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riemmean.core import rotation_exp
from riemmean.equivariant import _scan_orbits
from riemmean.errors import CutLocusError
from riemmean.manifolds import CUT_TOL, SpecialOrthogonal, Sphere
from riemmean.spd import (
    act,
    cover_manifold,
    eig_canonical,
    gm_action,
    group_enumerate,
    sample_spd,
)

PARITY_TOL = 1e-12
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


@settings(max_examples=80, deadline=None)
@given(
    seed=seeds,
    m=st.sampled_from([2, 3, 4]),
    k=st.sampled_from([0.25, 1.0, 4.0]),
    offset=st.sampled_from(
        [0.0, 0.25, 0.5, 0.7, 0.9, 1.0, 1.1, 1.5, 2.0, 2.5, 4.0, 100.0]
    ),
)
@example(seed=0, m=4, k=4.0, offset=0.7)
def test_so_log_refuses_exactly_inside_the_cut_margin(seed, m, k, offset):
    """The margin ``tol`` is a distance in both predicates: at relative
    angle ``pi - offset * CUT_TOL`` the log raises iff the point is within
    ``CUT_TOL`` of the cut locus, for every metric scale ``k``."""
    so = SpecialOrthogonal(m, k)
    rng = rng_of(seed)
    p = random_rotation(rng, m)
    q = p @ rotation_near_pi(rng, m, offset * CUT_TOL)
    try:
        so._log(p, q, CUT_TOL)
        refused = False
    except CutLocusError:
        refused = True
    assert refused == so._in_cut_locus(p, q, CUT_TOL)


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
