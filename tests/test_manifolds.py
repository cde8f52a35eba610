import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    PARITY_TOL,
    curve_length,
    manifold_zoo,
    random_tangent,
    rng_for,
    sphere_angles_with_einsum,
    sphere_log_condition,
    sphere_log_mean_with_einsum,
)
from riemmean.core import rotation_exp
from riemmean import manifolds
from riemmean.errors import CutLocusError, InvalidInputError
from riemmean.manifolds import (
    CUT_TOL,
    DiagPos,
    Euclidean,
    Point,
    Product,
    Sphere,
    SpecialOrthogonal,
    parse_manifold,
    _frozen,
    quasi_random_points,
)
from riemmean.spd import cover_manifold

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def noncut_pair(m, rng):
    while True:
        p = m.random_point(rng)
        q = m.random_point(rng)
        if not m.in_cut_locus(p, q, 1e-6):
            return p, q


# -- constructors and validation ----------------------------------------------


def test_point_validation():
    sph = Sphere(2)
    with pytest.raises(InvalidInputError):
        sph.point([1.0, 1.0, 0.0])
    so = SpecialOrthogonal(2)
    with pytest.raises(InvalidInputError):
        so.point(np.array([[1.0, 0.0], [0.0, -1.0]]))  # det -1
    dp = DiagPos(2)
    with pytest.raises(InvalidInputError):
        dp.point([1.0, 0.0])


def test_tangent_validation():
    sph = Sphere(2)
    p = sph.point([1.0, 0.0, 0.0])
    with pytest.raises(InvalidInputError):
        sph.tangent(p, [1.0, 0.0, 0.0])  # radial, not tangent
    so = SpecialOrthogonal(2)
    I = so.point(np.eye(2))
    with pytest.raises(InvalidInputError):
        so.tangent(I, np.eye(2))  # symmetric, not skew


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("m", manifold_zoo(), ids=lambda m: m.manifold_id)
def test_non_finite_coordinates_rejected(m, bad):
    # every validity check is a comparison, and comparisons with NaN are
    # False, so without the finiteness guard NaN points would be accepted
    coords = np.array(m.random_point(rng_for(21)).coords)
    coords.flat[0] = bad
    with pytest.raises(InvalidInputError, match="non-finite"):
        m.point(coords)


@pytest.mark.parametrize("m", manifold_zoo(), ids=lambda m: m.manifold_id)
def test_non_finite_tangent_rejected(m):
    p = m.random_point(rng_for(22))
    vec = np.zeros_like(p.coords)
    vec.flat[-1] = math.nan
    with pytest.raises(InvalidInputError, match="non-finite"):
        m.tangent(p, vec)


def test_tangent_base_is_compared_by_value():
    """A tangent based at an equal but distinct Point is accepted; one based
    at another point is refused, also when it is equally valid there."""
    sph = Sphere(2)
    p = sph.point([1.0, 0.0, 0.0])
    twin = Point(p.manifold_id, _frozen(p.coords))
    assert twin is not p
    v = sph.tangent(twin, [0.0, 0.3, 0.0])
    assert np.array_equal(sph.exp(p, v).coords, sph.exp(twin, v).coords)
    assert sph.inner(p, v, v) == pytest.approx(0.09)
    elsewhere = sph.point([0.0, 0.0, 1.0])
    with pytest.raises(InvalidInputError, match="different point"):
        sph.exp(elsewhere, v)
    with pytest.raises(InvalidInputError, match="different point"):
        sph.inner(elsewhere, v, sph.zero_tangent(elsewhere))


def test_manifold_mismatch_rejected():
    sph = Sphere(2)
    eu = Euclidean(3)
    p = eu.point([1.0, 0.0, 0.0])
    with pytest.raises(InvalidInputError):
        sph.dist(p, p)


def test_metric_constants_per_kind():
    assert Sphere(2).constants.r_cx == pytest.approx(math.pi / 2)
    assert Euclidean(3).constants.r_cx == math.inf
    assert DiagPos(3).constants.r_cx == math.inf
    for k in (0.25, 1.0, 4.0):
        c = SpecialOrthogonal(3, k).constants
        assert c.r_inj == pytest.approx(math.sqrt(k) * math.pi, abs=1e-14)
        assert c.delta_sup == pytest.approx(0.25 / k, abs=1e-14)
        assert c.r_cx == pytest.approx(math.sqrt(k) * math.pi / 2, abs=1e-14)
    prod = Product([SpecialOrthogonal(2, 1.0), DiagPos(2)])
    assert prod.constants.r_inj == pytest.approx(math.pi)
    assert prod.constants.r_cx == pytest.approx(math.pi / 2)


# -- spec examples -------------------------------------------------------------


def test_sphere_exp_quarter_circle():
    sph = Sphere(2)
    p = sph.point([1.0, 0.0, 0.0])
    q = sph.exp(p, sph.tangent(p, [0.0, math.pi / 2, 0.0]))
    assert np.max(np.abs(q.coords - [0.0, 1.0, 0.0])) < 1e-15


def test_exp_zero_vector_is_identity():
    rng = rng_for(40)
    for m in manifold_zoo():
        p = m.random_point(rng)
        q = m.exp(p, m.zero_tangent(p))
        assert m.dist(p, q) < 1e-15


def test_so2_exp_closed_form():
    so = SpecialOrthogonal(2, 1.0)
    I = so.point(np.eye(2))
    for theta in (0.3, 1.2, 2.9, -0.7):
        got = so.exp(I, so.tangent(I, theta * J2))
        expect = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        assert np.max(np.abs(got.coords - expect)) < 1e-14


def test_sphere_log_quarter_circle():
    sph = Sphere(2)
    p = sph.point([1.0, 0.0, 0.0])
    q = sph.point([0.0, 1.0, 0.0])
    v = sph.log(p, q)
    assert np.max(np.abs(v.vec - [0.0, math.pi / 2, 0.0])) < 1e-15


def test_sphere_log_antipode_raises():
    sph = Sphere(2)
    p = sph.point([1.0, 0.0, 0.0])
    q = sph.point([-1.0, 0.0, 0.0])
    with pytest.raises(CutLocusError):
        sph.log(p, q)


def test_diagpos_log_closed_form():
    dp = DiagPos(2)
    p = dp.point([1.0, 1.0])
    q = dp.point([4.0, 1.0])
    v = dp.log(p, q)
    assert np.max(np.abs(v.vec - [math.log(4.0), 0.0])) < 1e-15
    assert dp.norm(p, v) == pytest.approx(math.log(4.0), abs=1e-14)
    assert dp.dist(dp.exp(p, v), q) < 1e-15


def test_sphere_antipodal_distance():
    sph = Sphere(2)
    p = sph.point([0.0, 0.0, 1.0])
    q = sph.point([0.0, 0.0, -1.0])
    assert sph.dist(p, q) == pytest.approx(math.pi, abs=1e-15)
    assert sph.in_cut_locus(p, q)


def test_so2_distance_against_numeric_geodesic_length():
    so = SpecialOrthogonal(2, 1.0)
    I = so.point(np.eye(2))
    R = so.point(rotation_exp((math.pi / 2) * J2))
    assert so.dist(I, R) == pytest.approx(math.pi / 2, abs=1e-14)
    # oracle: the one-parameter curve t -> expm(t (pi/2) J) is a geodesic;
    # integrate its metric speed numerically
    length = curve_length(so, lambda t: so.point(rotation_exp(t * (math.pi / 2) * J2)))
    assert so.dist(I, R) == pytest.approx(length, abs=1e-6)


def test_product_distance_formula():
    prod = parse_manifold("product(so:2:k=1;diagpos:2)")
    a = prod.point(np.concatenate([np.eye(2).ravel(), [4.0, 1.0]]))
    b = prod.point(np.concatenate([rotation_exp((math.pi / 2) * J2).ravel(), [4.0, 1.0]]))
    assert prod.dist(a, b) == pytest.approx(math.pi / 2, abs=1e-14)
    c = prod.point(np.concatenate([np.eye(2).ravel(), [16.0, 1.0]]))
    expect = math.hypot(math.pi / 2, dist_log := abs(math.log(16.0 / 4.0)))
    assert prod.dist(b, c) == pytest.approx(expect, abs=1e-12)
    assert dist_log == pytest.approx(math.log(4.0))


def test_inner_norm_matches_distance_of_small_geodesics():
    rng = rng_for(41)
    for m in manifold_zoo():
        for _ in range(20):
            p = m.random_point(rng)
            v = random_tangent(m, p, rng, scale=0.2 * rng.random() + 1e-3)
            d = m.dist(p, m.exp(p, v))
            assert m.norm(p, v) == pytest.approx(d, abs=1e-10)


def test_so2_metric_scaling():
    so = SpecialOrthogonal(2, 4.0)
    I = so.point(np.eye(2))
    theta = 0.37
    v = so.tangent(I, theta * J2)
    assert so.inner(I, v, v) == pytest.approx(4.0 * theta * theta, abs=1e-14)


def test_sphere_orthogonal_tangents():
    sph = Sphere(2)
    p = sph.point([1.0, 0.0, 0.0])
    u = sph.tangent(p, [0.0, 1.0, 0.0])
    v = sph.tangent(p, [0.0, 0.0, 1.0])
    assert sph.inner(p, u, v) == 0.0


def test_cut_locus_predicates():
    sph = Sphere(2)
    p = sph.point([1.0, 0.0, 0.0])
    assert sph.in_cut_locus(p, sph.point([-1.0, 0.0, 0.0]))
    assert not sph.in_cut_locus(p, sph.point([0.0, 1.0, 0.0]))
    eu = Euclidean(2)
    assert not eu.in_cut_locus(eu.point([0.0, 0.0]), eu.point([1e9, 0.0]))
    so = SpecialOrthogonal(2, 1.0)
    I = so.point(np.eye(2))
    assert so.in_cut_locus(I, so.point(-np.eye(2)))
    assert not so.in_cut_locus(I, so.point(rotation_exp(1.5 * J2)))


# -- invariants -----------------------------------------------------------------


@pytest.mark.parametrize("m", manifold_zoo(), ids=lambda m: m.manifold_id)
def test_exp_log_identity_random_pairs(m):
    rng = rng_for(42)
    for _ in range(1000):
        p, q = noncut_pair(m, rng)
        v = m.log(p, q)
        assert m.dist(m.exp(p, v), q) < 1e-9
        assert abs(m.norm(p, v) - m.dist(p, q)) < 1e-10


def test_distance_isometry_invariance():
    rng = rng_for(43)
    sph = Sphere(2)
    for _ in range(50):
        p, q = sph.random_point(rng), sph.random_point(rng)
        R = SpecialOrthogonal(3, 1.0).random_point(rng).coords
        assert abs(
            sph.dist(sph.point(R @ p.coords), sph.point(R @ q.coords))
            - sph.dist(p, q)
        ) < 1e-10
    so = SpecialOrthogonal(3, 1.0)
    for _ in range(50):
        p, q, g = (so.random_point(rng) for _ in range(3))
        left = abs(so.dist(so.point(g.coords @ p.coords), so.point(g.coords @ q.coords)) - so.dist(p, q))
        right = abs(so.dist(so.point(p.coords @ g.coords), so.point(q.coords @ g.coords)) - so.dist(p, q))
        assert left < 1e-10 and right < 1e-10
    dp = DiagPos(3)
    for _ in range(50):
        p, q = dp.random_point(rng), dp.random_point(rng)
        perm = rng.permutation(3)
        assert abs(
            dp.dist(dp.point(p.coords[perm]), dp.point(q.coords[perm])) - dp.dist(p, q)
        ) < 1e-10


def test_so_constants_consistent_with_rcx():
    from riemmean.core import rcx_from_constants

    for k in (0.25, 1.0, 4.0):
        c = SpecialOrthogonal(4, k).constants
        assert rcx_from_constants(c.r_inj, c.delta_sup) == pytest.approx(
            math.sqrt(k) * math.pi / 2, abs=1e-14
        )


def test_tangent_basis_orthonormal_deterministic():
    rng = rng_for(44)
    for m in manifold_zoo():
        p = m.random_point(rng)
        basis = m.tangent_basis(p)
        assert len(basis) == m.dim
        for i, u in enumerate(basis):
            for j, v in enumerate(basis):
                expect = 1.0 if i == j else 0.0
                assert m.inner(p, u, v) == pytest.approx(expect, abs=1e-10)
        again = m.tangent_basis(p)
        for u, v in zip(basis, again):
            assert np.array_equal(u.vec, v.vec)


@pytest.mark.parametrize("k", [0.0, -1.0, math.nan, math.inf])
def test_so_refuses_a_non_finite_or_non_positive_scale(k):
    with pytest.raises(InvalidInputError, match="metric scale k must be finite and > 0"):
        SpecialOrthogonal(3, k)


def factorwise_tangent_basis(product, p):
    """The factor bases at the factor points, zero-padded into the product's
    coordinates, in factor order: mutually orthogonal under the product
    metric, so already an orthonormal basis."""
    parts = product.split(p.coords)
    sizes = [part.size for part in parts]
    out = []
    for i, (f, pp) in enumerate(zip(product.factors, parts)):
        for t in f.tangent_basis(Point(f.manifold_id, _frozen(pp))):
            blocks = [np.zeros(size) for size in sizes]
            blocks[i] = t.vec.ravel()
            out.append(np.concatenate(blocks))
    return out


@pytest.mark.parametrize(
    "product",
    [
        cover_manifold(2),
        cover_manifold(3, 0.25),
        cover_manifold(3, 4.0),
        parse_manifold("product(sphere:2;euclidean:2)"),
    ],
    ids=lambda m: m.manifold_id,
)
def test_product_tangent_basis_is_the_factor_bases(product):
    """Gram-Schmidt on the product's standard basis gives each factor's own
    basis, zero-padded, bit for bit: the factors' inner products of
    vectors from different factors are exactly zero."""
    rng = rng_for(45)
    for _ in range(50):
        p = product.random_point(rng)
        got = [t.vec.tobytes() for t in product.tangent_basis(p)]
        assert got == [v.tobytes() for v in factorwise_tangent_basis(product, p)]


def test_parse_manifold_roundtrip():
    for spec in ["euclidean:2", "sphere:3", "so:3:k=0.5", "diagpos:4",
                 "product(so:2:k=1.0;diagpos:2)"]:
        m = parse_manifold(spec)
        again = parse_manifold(m.manifold_id)
        assert again.manifold_id == m.manifold_id


def test_parse_manifold_rejects_garbage():
    for bad in ["circle:2", "sphere", "so:2:j=1", "product(sphere:2)"]:
        with pytest.raises(InvalidInputError):
            parse_manifold(bad)


@pytest.mark.parametrize("spec", ["sphere:2", "so:3:k=2.0", "product(so:2;diagpos:2)"])
def test_quasi_random_points_repeat_identically(spec):
    """Seeds are built once per (manifold id, count) and shared, also with a
    fresh descriptor of the same id; a shorter request reads the same
    stream."""
    first = quasi_random_points(parse_manifold(spec), 20)
    again = quasi_random_points(parse_manifold(spec), 20)
    prefix = quasi_random_points(parse_manifold(spec), 5)
    assert len(first) == len(again) == 20
    for a, b in zip(first, again):
        assert a is b
        assert np.array_equal(a.coords, b.coords)
        assert not a.coords.flags.writeable
    for a, b in zip(first, prefix):
        assert np.array_equal(a.coords, b.coords)


# -- invariants over generated inputs -------------------------------------------

GENERATED_KINDS = {
    m.manifold_id: m
    for m in [
        Sphere(1),
        Sphere(2),
        Sphere(3),
        SpecialOrthogonal(2, 0.25),
        SpecialOrthogonal(2, 1.0),
        SpecialOrthogonal(2, 4.0),
        SpecialOrthogonal(3, 0.25),
        SpecialOrthogonal(3, 1.0),
        SpecialOrthogonal(3, 4.0),
        DiagPos(3),
        cover_manifold(2),
        cover_manifold(3),
    ]
}
# Sphere._dist forms |q - <p, q> p|, which is symmetric in p and q only up to
# rounding (at most 4.4e-16 over 38000 pairs); every other kind here is
# exactly symmetric, SO(2) term by term in its float row routine.
SPHERE_SYMMETRY_TOL = 1e-15


def generated_pair(manifold, seed: int, offset: float | None):
    """A random ``p`` and a ``q`` at distance ``r_inj - offset`` from it (an
    independent random ``q`` when ``offset`` is None or r_inj is infinite)."""
    rng = np.random.Generator(np.random.Philox(key=[0x5E77, seed]))
    p = manifold.random_point(rng)
    r_inj = manifold.constants.r_inj
    if offset is None or not math.isfinite(r_inj):
        return p, manifold.random_point(rng)
    return p, manifold.exp(p, random_tangent(manifold, p, rng, scale=r_inj - offset))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    name=st.sampled_from(sorted(GENERATED_KINDS)),
    offset=st.sampled_from([None, 1.0, 1e-3, 1e-5, 0.0]),
)
def test_dist_is_symmetric(seed, name, offset):
    m = GENERATED_KINDS[name]
    p, q = generated_pair(m, seed, offset)
    tol = SPHERE_SYMMETRY_TOL if isinstance(m, Sphere) else 0.0
    assert abs(m.dist(p, q) - m.dist(q, p)) <= tol


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    name=st.sampled_from(sorted(GENERATED_KINDS)),
    offset=st.sampled_from([None, 1.0, 1e-3, 1e-5, 3e-6, 1.5e-6]),
)
def test_exp_of_log_returns_to_the_point(seed, name, offset):
    """The tolerances of `test_exp_log_identity_random_pairs`, with pairs up
    to 1.5e-6 from the cut locus (outside the 1e-6 margin assumed below)."""
    m = GENERATED_KINDS[name]
    p, q = generated_pair(m, seed, offset)
    assume(not m.in_cut_locus(p, q, 1e-6))
    v = m.log(p, q)
    assert m.dist(m.exp(p, v), q) < 1e-9
    assert abs(m.norm(p, v) - m.dist(p, q)) < 1e-10


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    m=st.sampled_from([2, 3, 4]),
    k=st.sampled_from([0.25, 1.0, 4.0]),
    scales=st.tuples(*[st.sampled_from([1e-8, 1e-3, 1.0, 3.0])] * 2),
)
def test_so_inner_equals_its_tensordot_form_exactly(seed, m, k, scales):
    """`SpecialOrthogonal._inner` reads tr(X.T Y) with `np.vdot`; its
    rounding feeds objectives and lab artifacts, so it must equal the
    `np.tensordot` form bit for bit."""
    so = SpecialOrthogonal(m, k)
    rng = np.random.Generator(np.random.Philox(key=[0x1AAE, seed]))
    p = so.random_point(rng)
    u, v = (random_tangent(so, p, rng, scale=s).vec for s in scales)
    X, Y = p.coords.T @ u, p.coords.T @ v
    assert so._inner(p.coords, u, v) == so.k * 0.5 * float(np.tensordot(X, Y))


def sphere_dist_with_clip(p, q):
    """`Sphere._dist` as first written, with `np.clip` and `np.linalg.norm`."""
    c = float(np.clip(np.dot(p, q), -1.0, 1.0))
    w = q - c * p
    return math.atan2(np.linalg.norm(w), c)


def sphere_log_with_clip(p, q, tol):
    """`Sphere._log` with `np.clip` and `np.linalg.norm`, scaling ``w`` by
    ``theta / |w|``."""
    c = float(np.clip(np.dot(p, q), -1.0, 1.0))
    w = q - c * p
    h = np.linalg.norm(w)
    theta = math.atan2(h, c)
    if theta > math.pi - tol:
        raise CutLocusError("antipodal points: sphere log undefined")
    if theta < 1e-16 or h == 0.0:
        return np.zeros_like(p)
    return (theta / h) * w


def sphere_pair(n: int, seed: int, kind: str):
    rng = np.random.Generator(np.random.Philox(key=[0x5F1E, seed]))
    sphere = Sphere(n)
    p = sphere._random_coords(rng)
    if kind == "random":
        return p, sphere._random_coords(rng)
    if kind == "identical":
        return p, p.copy()
    if kind == "antipodal":
        return p, -p
    q = p if kind == "near" else -p
    q = q + 1e-9 * rng.standard_normal(n + 1)
    return p, q / np.linalg.norm(q)


def check_s2_against_einsum(sphere, a, b):
    """On S^2 the per-point kernels run on floats, whose rounding no numpy
    form reproduces: `_dist` and `_log` must agree with the numpy reference
    `sphere_angles_with_einsum` / `sphere_log_mean_with_einsum` (a block of
    one row) within PARITY_TOL, times the log's condition number
    theta / sin(theta) for the log, and refuse exactly where it refuses."""
    theta = sphere_angles_with_einsum(a, b[None])[0]
    assert abs(sphere._dist(a, b) - float(theta[0])) <= PARITY_TOL
    condition = sphere_log_condition(theta)
    for tol in (CUT_TOL, 1e-15):
        try:
            want = sphere_log_mean_with_einsum(a, b[None], tol)[0]
        except CutLocusError:
            with pytest.raises(CutLocusError):
                sphere._log(a, b, tol)
            continue
        assert np.max(np.abs(sphere._log(a, b, tol) - want)) <= PARITY_TOL * condition


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.sampled_from([1, 2, 3]),
    kind=st.sampled_from(["random", "identical", "antipodal", "near", "near_antipodal"]),
)
def test_sphere_dist_and_log_keep_their_bits(seed, n, kind):
    """`objective` ranks the multistart runs with `Sphere._dist`, so off S^2
    its float min/max clamp and ``sqrt(w @ w)`` must reproduce the `np.clip`
    and `np.linalg.norm` forms bit for bit, and `_log` likewise (refusals
    included).  On S^2 see `check_s2_against_einsum`."""
    sphere = Sphere(n)
    p, q = sphere_pair(n, seed, kind)
    for a, b in ((p, q), (q, p)):
        if n == 2:
            check_s2_against_einsum(sphere, a, b)
            continue
        assert sphere._dist(a, b) == sphere_dist_with_clip(a, b)
        for tol in (CUT_TOL, 1e-15):
            try:
                want = sphere_log_with_clip(a, b, tol)
            except CutLocusError:
                with pytest.raises(CutLocusError):
                    sphere._log(a, b, tol)
                continue
            assert np.array_equal(sphere._log(a, b, tol), want)


def sphere_exp_with_matmul(p, v):
    """`Sphere._exp` with ``@`` for its two squared norms."""
    theta = math.sqrt(float(v @ v))
    sinc = 1.0 if theta < 1e-12 else math.sin(theta) / theta
    out = math.cos(theta) * p + sinc * v
    return out / math.sqrt(float(out @ out))


def sphere_dist_with_np_dot(p, q):
    """`Sphere._dist` with `np.dot` for the cosine and ``@`` for |w|^2."""
    c = max(-1.0, min(1.0, float(np.dot(p, q))))
    w = q - c * p
    return math.atan2(math.sqrt(float(w @ w)), c)


def sphere_log_with_np_dot(p, q, tol):
    """`Sphere._log` with `np.dot` for the cosine and ``@`` for |w|^2."""
    c = max(-1.0, min(1.0, float(np.dot(p, q))))
    w = q - c * p
    h = math.sqrt(float(w @ w))
    theta = math.atan2(h, c)
    if theta > math.pi - tol:
        raise CutLocusError("antipodal points: sphere log undefined")
    if theta < 1e-16 or h == 0.0:
        return np.zeros_like(p)
    return (theta / h) * w


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.sampled_from([1, 2, 3]),
    kind=st.sampled_from(["random", "identical", "antipodal", "near", "near_antipodal"]),
    scales=st.tuples(*[st.sampled_from([0.0, 1e-13, 1e-8, 1e-3, 1.0, 3.0, 10.0])] * 2),
)
def test_sphere_per_point_kernels_keep_their_matmul_bits(seed, n, kind, scales):
    """Off S^2 the per-point sphere kernels use `ndarray.dot`, which has
    less call overhead than ``@`` / `np.dot` on a few entries.  `objective`
    ranks the multistart seeds with `_dist` and every descent step runs
    `_exp` and `_inner`, so each must equal its ``@`` / `np.dot` form bit
    for bit (refusals included).  On S^2 `_dist`, `_log` and `_exp` run on
    Python floats and agree with the numpy forms within PARITY_TOL (times
    theta / sin(theta) for the log, see `check_s2_against_einsum`);
    `_inner` keeps its bits on every n."""
    sphere = Sphere(n)
    p, q = sphere_pair(n, seed, kind)
    rng = np.random.Generator(np.random.Philox(key=[0xD07, seed]))
    u, v = (s * sphere._project(p, rng.standard_normal(n + 1)) for s in scales)
    for a, b in ((p, q), (q, p)):
        if n == 2:
            check_s2_against_einsum(sphere, a, b)
            continue
        assert sphere._dist(a, b) == sphere_dist_with_np_dot(a, b)
        for tol in (CUT_TOL, 1e-15):
            try:
                want = sphere_log_with_np_dot(a, b, tol)
            except CutLocusError:
                with pytest.raises(CutLocusError):
                    sphere._log(a, b, tol)
                continue
            assert np.array_equal(sphere._log(a, b, tol), want)
    for w in (u, v):
        want = sphere_exp_with_matmul(p, w)
        if n == 2:
            assert np.max(np.abs(sphere._exp(p, w) - want)) <= PARITY_TOL
        else:
            assert np.array_equal(sphere._exp(p, w), want)
    assert sphere._inner(p, u, v) == float(np.dot(u, v))
    assert sphere._inner(p, v, v) == float(np.dot(v, v))


@pytest.mark.parametrize(
    "spec, rows",
    [
        ("sphere:2", True),
        ("sphere:3", False),
        ("so:2:k=2.5", True),
        ("so:3", False),
        ("diagpos:2", False),
        ("product(so:2;diagpos:2)", True),
        ("product(sphere:2;so:2)", True),
        ("product(so:3;diagpos:3)", False),
        ("product(sphere:2;euclidean:2)", False),
    ],
)
def test_each_kind_is_built_in_its_form_and_keeps_it(spec, rows):
    """S^2, SO(2) and products of row kinds are built as row kinds (their
    kernels on float rows), every other kind on arrays; a copy or an
    unpickled manifold keeps the class it was built as."""
    m = parse_manifold(spec)
    assert isinstance(m, manifolds._RowKind) == rows
    for twin in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert type(twin) is type(m) and twin.manifold_id == m.manifold_id
