import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import jacobi_eig, rng_for
from riemmean.core import (
    MetricConstants,
    angle_frame,
    check_symmetric,
    expm_sym,
    minimal_rotation_logs,
    plane_angle,
    rcx_from_constants,
    rotation_angles,
    rotation_exp,
    rotation_log,
    rotation_norm,
    sym_eig,
)
from riemmean.errors import CutLocusError, InvalidInputError
from riemmean.manifolds import CUT_TOL, SpecialOrthogonal


def test_rcx_unit_sphere():
    assert rcx_from_constants(math.pi, 1.0) == pytest.approx(math.pi / 2, abs=1e-15)


def test_rcx_hadamard_rule():
    assert rcx_from_constants(math.inf, -1.0) == math.inf
    assert rcx_from_constants(math.inf, 0.0) == math.inf


def test_rcx_scaled_rotation_group():
    # r_inj = sqrt(k) pi and curvature bound 1/(4k) give r_cx = sqrt(k) pi / 2
    for k in (0.25, 1.0, 4.0):
        got = rcx_from_constants(math.sqrt(k) * math.pi, 0.25 / k)
        assert got == pytest.approx(math.sqrt(k) * math.pi / 2, abs=1e-14)


def test_rcx_monotonicity():
    rng = rng_for(10)
    for _ in range(200):
        r1, r2 = sorted(rng.uniform(0.1, 10.0, size=2))
        d1, d2 = sorted(rng.uniform(-1.0, 4.0, size=2))
        assert rcx_from_constants(r1, d1) <= rcx_from_constants(r2, d1)
        assert rcx_from_constants(r1, d2) <= rcx_from_constants(r1, d1)


def test_rcx_negative_injectivity_rejected():
    with pytest.raises(InvalidInputError):
        rcx_from_constants(-1.0, 1.0)


def test_metric_constants_consistency_enforced():
    with pytest.raises(InvalidInputError):
        MetricConstants(math.pi, 1.0, 1.0)
    c = MetricConstants.from_bounds(math.pi, 1.0)
    assert c.r_cx == pytest.approx(math.pi / 2)


def test_sym_eig_diagonal_reorder():
    U, lam = sym_eig(np.diag([1.0, 4.0]))
    assert np.allclose(lam, [4.0, 1.0])
    assert np.linalg.det(U) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs((U * lam) @ U.T - np.diag([1.0, 4.0]))) < 1e-12


def test_sym_eig_identity():
    U, lam = sym_eig(np.eye(3))
    assert np.allclose(lam, [1.0, 1.0, 1.0])
    assert np.max(np.abs(U.T @ U - np.eye(3))) < 1e-12


def test_sym_eig_rejects_nonsymmetric():
    with pytest.raises(InvalidInputError):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_symmetry_rule_is_relative_above_unit_entries():
    """`check_symmetric` scales ``SYM_TOL`` by ``max(1, max|S|)``: rounding
    asymmetry of a few ulps of a large entry passes, a relative asymmetry
    of 1e-9 does not, and below unit entries the bound stays absolute."""
    big = np.diag([3.0e4, 2.0e4, 1.0e4])
    big[0, 1] = big[1, 0] = 1.5e4
    rounding = big.copy()
    rounding[0, 1] += 2 * np.spacing(1.5e4)
    assert np.max(np.abs(rounding - rounding.T)) > 1e-12
    check_symmetric(rounding)
    sym_eig(rounding)
    skewed = big.copy()
    skewed[0, 1] += 1e-9 * 3.0e4
    for refuse in (check_symmetric, sym_eig):
        with pytest.raises(InvalidInputError, match="not symmetric"):
            refuse(skewed)
    small = np.array([[1e-3, 0.0], [2e-12, 1e-3]])
    with pytest.raises(InvalidInputError, match="not symmetric"):
        check_symmetric(small)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sym_eig_and_expm_sym_refuse_non_finite(bad):
    """A NaN asymmetry compares False against any bound, so finiteness is
    checked on its own: on the diagonal, and in a symmetric pair that the
    symmetry rule alone would pass."""
    diagonal = np.diag([bad, 1.0])
    pair = np.array([[1.0, bad], [bad, 1.0]])
    for refuse in (check_symmetric, sym_eig, expm_sym):
        for S in (diagonal, pair):
            with pytest.raises(InvalidInputError, match="matrix has a non-finite entry"):
                refuse(S)


def test_empty_matrix_is_refused():
    """An empty matrix is square, but its entry-wise maxima do not exist:
    a domain error, not numpy's empty-reduction error."""
    for refuse in (check_symmetric, sym_eig, expm_sym):
        with pytest.raises(InvalidInputError, match="matrix is empty"):
            refuse(np.zeros((0, 0)))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_sym_eig_random_reconstruction_against_jacobi(m):
    rng = rng_for(20 + m)
    for _ in range(1000):
        A = rng.standard_normal((m, m))
        S = 0.5 * (A + A.T)
        U, lam = sym_eig(S)
        assert np.max(np.abs((U * lam) @ U.T - S)) < 1e-10
        assert np.max(np.abs(U.T @ U - np.eye(m))) < 1e-12
        assert np.linalg.det(U) == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.diff(lam) <= 1e-12)
        # independent oracle: cyclic Jacobi sweeps
        _, lam_oracle = jacobi_eig(S)
        assert np.max(np.abs(lam - lam_oracle)) < 1e-10


def test_rotation_exp_log_roundtrip():
    rng = rng_for(30)
    for _ in range(500):
        n = int(rng.integers(2, 6))
        X = rng.standard_normal((n, n))
        X = 0.5 * (X - X.T)
        R = rotation_exp(X)
        assert np.max(np.abs(R.T @ R - np.eye(n))) < 1e-12
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-10)
        if max(rotation_angles(R)) < math.pi - 1e-6:
            # principal log of exp(X) recovers X when no angle reaches pi
            if float(rotation_norm(R)) >= math.sqrt(0.5) * float(
                np.sqrt(np.tensordot(X, X))
            ) - 1e-9:
                assert np.max(np.abs(rotation_log(R) - X)) < 1e-8


def test_rotation_angles_small_angle_precision():
    # arccos alone would only resolve ~1e-8 here
    X = np.array([[0.0, -1e-12], [1e-12, 0.0]])
    R = rotation_exp(X)
    assert rotation_angles(R)[0] == pytest.approx(1e-12, rel=1e-3)


def test_rotation_log_raises_at_pi():
    R = np.diag([-1.0, -1.0, 1.0])
    with pytest.raises(CutLocusError):
        rotation_log(R)


def hat(x) -> np.ndarray:
    return np.array([[0.0, -x[2], x[1]], [x[2], 0.0, -x[0]], [-x[1], x[0], 0.0]])


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    gaps=st.lists(
        st.sampled_from([1e-9, 1e-7, 1e-5, 1e-3, 0.5, 1.5, 2.0, 3.0]),
        min_size=1,
        max_size=6,
    ),
)
def test_so3_log_keeps_full_accuracy_near_pi(seed, gaps):
    """A stack of SO(3) rotations exp(hat(x_k)) by angles pi - gap_k: the
    log recovers every x_k to a few ulps, also next to the cut locus, where
    the skew part alone loses accuracy like eps / sin(theta).  Rows with
    cos(theta) >= 0 keep the skew-part formula bit for bit."""
    rng = rng_for(seed)
    axes = rng.standard_normal((len(gaps), 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    X = np.stack([hat((math.pi - g) * u) for g, u in zip(gaps, axes)])
    R = np.stack([rotation_exp(x) for x in X])
    logs = rotation_log(R, 1e-10)
    assert np.max(np.abs(logs - X)) < 1e-13
    for one, r in zip(logs, R):
        assert np.array_equal(rotation_log(r, 1e-10), one)
    theta, sines, A = plane_angle(R)
    narrow = theta <= 0.5 * math.pi
    skew = A * (theta / np.maximum(sines, 1e-300))[:, None, None]
    assert np.array_equal(logs[narrow], skew[narrow])


def test_minimal_rotation_logs_at_pi_block():
    R = np.diag([-1.0, -1.0, 1.0])
    logs = minimal_rotation_logs(R)
    assert len(logs) == 2
    for X in logs:
        assert np.max(np.abs(rotation_exp(X) - R)) < 1e-12
        assert np.sqrt(0.5 * np.tensordot(X, X)) == pytest.approx(math.pi, abs=1e-12)
    assert np.max(np.abs(logs[0] + logs[1])) < 1e-12


def test_minimal_rotation_logs_continuum_refused():
    with pytest.raises(CutLocusError):
        minimal_rotation_logs(-np.eye(4))


def test_rotation_norm_quarter_turn():
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert rotation_norm(R) == pytest.approx(math.pi / 2, abs=1e-14)
    assert rotation_norm(-np.eye(2)) == pytest.approx(math.pi, abs=1e-14)


def norm_from_angles(R):
    """The removed ``so_norm_from_identity``: the root-sum-square of the
    per-eigenvector angles of `rotation_angles`, halved for the doubled
    multiplicity of each plane."""
    theta = rotation_angles(R)
    return math.sqrt(0.5 * float(np.dot(theta, theta)))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_rotation_norm_of_signed_permutations_keeps_the_old_bits(m):
    """The G(m) displacement floors and `psr_constants` read
    `rotation_norm` of signed permutation matrices (angles exactly 0, pi/2
    and pi); it must give the old per-angle form's values bit for bit, so
    every constant and the psr_m2_ball sampling radius stay the same."""
    from riemmean.spd import gm_action, group_enumerate, psr_constants

    matrices = [h.matrix for h in group_enumerate(m)]
    old = [norm_from_angles(M) for M in matrices]
    assert [float(rotation_norm(M)) for M in matrices] == old
    beta_old = min(old[1:])
    for k in (0.25, 1.0, 4.0):
        c = psr_constants(m, k)
        sqrt_k = math.sqrt(k)
        assert type(c.beta_gp) is float
        assert c.beta_gp == beta_old
        assert c.r_inj_quotient == sqrt_k * beta_old / 2.0
        assert c.r_cx_quotient == sqrt_k * beta_old / 4.0
    assert gm_action(m, 4.0).displacement_floor == [2.0 * x for x in old]


# -- closed-form one-plane kernels against the eigh path -------------------------

# Worst differences seen over 40000 generated rotations on SO(2) and SO(3):
# distances 1.3e-15, exp 2.4e-15, logs 1.3e-15 * theta / sin(theta) (both
# logs scale the skew part's rounding by that factor; 1.1e-12 at pi - 1e-3).
ONE_PLANE_DIST_TOL = 4e-15
ONE_PLANE_EXP_TOL = 8e-15
ONE_PLANE_LOG_TOL = 4e-15


def eigh_exp(X):
    """The ``eigh(X X.T)`` exponential that m >= 4 goes through."""
    mu, W = np.linalg.eigh(X @ X.T)
    theta = np.sqrt(np.clip(mu, 0.0, None))
    return (W * np.cos(theta)) @ W.T + X @ (W * np.sinc(theta / math.pi)) @ W.T


def eigh_log(R, tol):
    """The principal log that m >= 4 reads off `angle_frame`."""
    theta, sines, W, AW = angle_frame(R)
    if float(theta.max()) > math.pi - tol:
        raise CutLocusError("angle-pi plane")
    X = (AW * (theta / np.maximum(sines, 1e-300))[..., None, :]) @ np.swapaxes(W, -1, -2)
    return 0.5 * (X - np.swapaxes(X, -1, -2))


def one_plane_generator(rng, m, theta):
    """A skew matrix turning a random plane by ``theta``."""
    V = SpecialOrthogonal(m)._random_coords(rng)
    X = np.zeros((m, m))
    X[0, 1], X[1, 0] = -theta, theta
    return V @ X @ V.T


# a relative angle: exactly 0, tiny, anywhere, or pi minus an offset in units
# of the cut margin's angle CUT_TOL / sqrt(k) (plus absolute offsets)
angles = st.one_of(
    st.just(("abs", 0.0)),
    st.tuples(st.just("abs"), st.floats(-16.0, -4.0).map(lambda e: 10.0**e)),
    st.tuples(st.just("abs"), st.floats(0.0, math.pi)),
    st.tuples(st.just("pi-margin"), st.sampled_from([0.0, 1e-4, 0.5, 2.0, 1e2])),
    st.tuples(st.just("pi-abs"), st.sampled_from([1e-12, 1e-6, 1e-3])),
)


def relative_angle(spec, margin):
    kind, value = spec
    if kind == "abs":
        return value
    return math.pi - (value * margin if kind == "pi-margin" else value)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    m=st.sampled_from([2, 3]),
    k=st.sampled_from([0.25, 1.0, 4.0]),
    specs=st.lists(angles, min_size=1, max_size=5),
)
def test_one_plane_kernels_match_the_eigh_path(seed, m, k, specs):
    """SO(2) and SO(3) read distances, logs, exps and the cut-locus margin
    in closed form; each agrees with the batched-eigh path of larger m, and
    both refuse the same inputs."""
    so = SpecialOrthogonal(m, k)
    margin = CUT_TOL / math.sqrt(k)
    rng = np.random.Generator(np.random.Philox(key=[0x1F1A, seed]))
    p = so._random_coords(rng)
    thetas = [relative_angle(spec, margin) for spec in specs]
    gens = [one_plane_generator(rng, m, t) for t in thetas]
    for X in gens:
        assert np.max(np.abs(rotation_exp(X) - eigh_exp(X))) <= ONE_PLANE_EXP_TOL
    stack = np.stack([p @ rotation_exp(X) for X in gens])
    rel = p.T @ stack

    theta = angle_frame(rel)[0]
    expected = np.sqrt(k * 0.5 * np.einsum("ki,ki->k", theta, theta))
    assert np.max(np.abs(so._dist_block(p, stack) - expected)) <= ONE_PLANE_DIST_TOL

    refused = []
    for q, R in zip(stack, rel):
        try:
            eigh_log(R, margin)
            refused.append(False)
        except CutLocusError:
            refused.append(True)
        assert so._in_cut_locus(p, q, CUT_TOL) == refused[-1]
    if any(refused):
        with pytest.raises(CutLocusError):
            so._log_block(p, stack, CUT_TOL)
        return
    logs = p.T @ so._log_block(p, stack, CUT_TOL)[0]
    for X, R, t in zip(logs, rel, theta.max(axis=1)):
        if t <= math.pi - 1e-3:
            scale = t / math.sin(t) if t > 0.0 else 1.0
            assert np.max(np.abs(X - eigh_log(R, margin))) <= ONE_PLANE_LOG_TOL * scale
