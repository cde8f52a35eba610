import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rng_for, sample_ball
from riemmean import spd
from riemmean.equivariant import QuotientPoint, d_evt, efm_objective
from riemmean.errors import DegenerateSpectrumError, InvalidInputError
from riemmean.frechet import Configuration, barycenter_check
from riemmean.spd import (
    EigenPair,
    SignedPermutation,
    act,
    cover_manifold,
    d_psr,
    d_sr,
    eig_canonical,
    gm_action,
    group_enumerate,
    psr_constants,
    psr_mean,
    psr_objective,
    sample_spd,
    spd_validate,
    top_stratum_gap,
)

ROT = lambda t: np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


def enumerate_oracle_2() -> set[tuple[int, ...]]:
    """All signed 2x2 permutation matrices with det +1, by brute force."""
    out = set()
    for entries in itertools.product([-1, 0, 1], repeat=4):
        M = np.array(entries, dtype=float).reshape(2, 2)
        if np.max(np.abs(M @ M.T - np.eye(2))) < 1e-12 and round(np.linalg.det(M)) == 1:
            out.add(tuple(int(x) for x in entries))
    return out


# -- group enumeration --------------------------------------------------------------


def test_group_enumerate_m2_is_rotations():
    group = group_enumerate(2)
    assert len(group) == 4
    got = {tuple(int(round(x)) for x in h.matrix.ravel()) for h in group}
    expect = {
        tuple(int(round(x)) for x in ROT(t).ravel())
        for t in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
    }
    assert got == expect == enumerate_oracle_2()


def test_group_enumerate_counts():
    # 2**(m-1) * m!
    assert len(group_enumerate(2)) == 4
    assert len(group_enumerate(3)) == 24
    assert len(group_enumerate(4)) == 192


def test_group_identity_first():
    for m in (2, 3, 4):
        h0 = group_enumerate(m)[0]
        assert np.array_equal(h0.matrix, np.eye(m))


def test_group_enumerate_rejects_bad_m():
    with pytest.raises(InvalidInputError):
        group_enumerate(1)
    with pytest.raises(InvalidInputError):
        group_enumerate(6)


def test_signed_permutation_validation():
    with pytest.raises(InvalidInputError):
        SignedPermutation((0, 1), (1, -1))  # determinant -1


# -- action --------------------------------------------------------------------------


def test_act_identity_noop():
    pair = EigenPair(np.eye(2), np.array([4.0, 1.0]))
    moved = act(group_enumerate(2)[0], pair)
    assert np.array_equal(moved.U, pair.U)
    assert np.array_equal(moved.d, pair.d)


def test_act_preserves_decomposed_matrix():
    rng = rng_for(90)
    for m in (2, 3):
        for _ in range(20):
            S = sample_spd(rng, m, 0.7)
            try:
                pair = eig_canonical(S)
            except DegenerateSpectrumError:
                continue
            for h in group_enumerate(m):
                assert np.max(np.abs(act(h, pair).spd() - S)) < 1e-14


def test_act_quarter_turn_example():
    quarter = next(
        h
        for h in group_enumerate(2)
        if np.array_equal(h.matrix, np.array([[0.0, -1.0], [1.0, 0.0]]))
    )
    moved = act(quarter, EigenPair(np.eye(2), np.array([4.0, 1.0])))
    assert np.max(np.abs(moved.U - ROT(-math.pi / 2))) < 1e-15
    assert np.array_equal(moved.d, np.array([1.0, 4.0]))


def test_act_is_isometry_of_cover():
    rng = rng_for(91)
    m, k = 3, 1.0
    cover = cover_manifold(m, k)
    for _ in range(20):
        a = cover.random_point(rng)
        b = cover.random_point(rng)
        for h in group_enumerate(m)[:6]:
            pa = act(h, EigenPair.from_point(cover, a)).to_point(cover)
            pb = act(h, EigenPair.from_point(cover, b)).to_point(cover)
            assert abs(cover.dist(pa, pb) - cover.dist(a, b)) < 1e-10


# -- canonical eigendecomposition ------------------------------------------------------


def test_eig_canonical_sorted_diagonal():
    pair = eig_canonical(np.diag([4.0, 1.0]))
    assert np.array_equal(pair.U, np.eye(2))
    assert np.array_equal(pair.d, np.array([4.0, 1.0]))


def test_eig_canonical_reorders():
    pair = eig_canonical(np.diag([1.0, 4.0]))
    assert np.allclose(pair.d, [4.0, 1.0])
    assert np.max(np.abs(pair.spd() - np.diag([1.0, 4.0]))) < 1e-14
    assert np.linalg.det(pair.U) == pytest.approx(1.0, abs=1e-12)


def test_eig_canonical_degenerate_refused():
    with pytest.raises(DegenerateSpectrumError):
        eig_canonical(np.eye(3))
    with pytest.raises(DegenerateSpectrumError):
        eig_canonical(np.diag([2.0, 2.0 + 1e-12, 1.0]))


def test_eig_canonical_deterministic_sign():
    rng = rng_for(92)
    for _ in range(50):
        S = sample_spd(rng, 3, 0.8)
        try:
            pair = eig_canonical(S)
        except DegenerateSpectrumError:
            continue
        again = eig_canonical(S.copy())
        assert np.array_equal(pair.U, again.U)
        for j in range(3):
            col = pair.U[:, j] if j < 2 else None
            if col is not None:
                first = col[np.nonzero(np.abs(col) > 1e-12)[0][0]]
                assert first > 0.0


def test_eig_canonical_deterministic_sign_cold_cache():
    """`test_eig_canonical_deterministic_sign` with the cache emptied between
    the two calls, so the second decomposition is computed afresh."""
    rng = rng_for(92)
    for _ in range(50):
        S = sample_spd(rng, 3, 0.8)
        try:
            pair = eig_canonical(S)
        except DegenerateSpectrumError:
            continue
        spd._eig_canonical.cache_clear()
        again = eig_canonical(S.copy())
        assert again is not pair
        assert np.array_equal(pair.U, again.U)
        assert np.array_equal(pair.d, again.d)


def test_eig_canonical_cache_shares_pairs_and_is_bounded():
    S = np.array([[2.0, 0.3], [0.3, 1.0]])
    pair = eig_canonical(S)
    assert eig_canonical(S.copy()) is pair
    assert eig_canonical(S.tolist()) is pair
    rng = rng_for(93)
    for _ in range(spd.EIG_CACHE_SIZE):
        eig_canonical(sample_spd(rng, 2, 0.5))
    assert spd._eig_canonical.cache_info().currsize == spd.EIG_CACHE_SIZE
    again = eig_canonical(S)
    assert again is not pair
    assert np.array_equal(again.U, pair.U) and np.array_equal(again.d, pair.d)


@pytest.mark.parametrize(
    "bad, error",
    [
        (np.eye(2), DegenerateSpectrumError),
        (np.diag([1.0, -1.0]), InvalidInputError),
        (np.array([[1.0, math.nan], [math.nan, 1.0]]), InvalidInputError),
        (np.array([[1.0, 0.5], [0.0, 1.0]]), InvalidInputError),
    ],
    ids=["degenerate", "indefinite", "non_finite", "asymmetric"],
)
def test_eig_canonical_refusals_are_not_cached(bad, error):
    for _ in range(3):
        with pytest.raises(error):
            eig_canonical(bad)
    assert spd._eig_canonical.cache_info().currsize == 0


def test_eig_canonical_cache_keys_on_gap_tol():
    """A pair cached under a small gap_tol is not returned for a larger one,
    which refuses the same matrix."""
    S = np.diag([2.0, 1.5])
    pair = eig_canonical(S, gap_tol=0.1)
    assert pair.d.tolist() == [2.0, 1.5]
    with pytest.raises(DegenerateSpectrumError):
        eig_canonical(S, gap_tol=1.0)
    assert eig_canonical(S, gap_tol=0.1) is pair


@pytest.mark.parametrize("k", [1.0, 4.0])
def test_to_point_is_built_once_per_cover(k):
    pair = eig_canonical(np.array([[3.0, 0.4], [0.4, 1.0]]))
    cover = cover_manifold(2, k)
    p = pair.to_point(cover)
    assert p.manifold_id == cover.manifold_id
    assert np.array_equal(p.coords, cover.join([pair.U, pair.d]))
    assert pair.to_point(cover) is p
    assert pair.to_point(cover_manifold(2, k)) is p
    other = pair.to_point(cover_manifold(2, 0.25))
    assert other.manifold_id != p.manifold_id
    assert np.array_equal(other.coords, p.coords)
    round_trip = EigenPair.from_point(cover, p)
    assert np.array_equal(round_trip.U, pair.U) and np.array_equal(round_trip.d, pair.d)


def test_eig_canonical_rejects_nonspd():
    with pytest.raises(InvalidInputError):
        eig_canonical(np.diag([1.0, -2.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_spd_validate_rejects_non_finite(bad):
    S = np.diag([2.0, 1.0])
    S[0, 0] = bad
    with pytest.raises(InvalidInputError, match="non-finite"):
        spd_validate(S)
    S = np.diag([2.0, 1.0])
    S[0, 1] = S[1, 0] = bad  # symmetric, so only the finiteness guard sees it
    with pytest.raises(InvalidInputError, match="non-finite"):
        spd_validate(S)


VALID = np.array([[2.0, 0.3], [0.3, 1.0]])
REFUSALS = {
    "non_square": (np.ones((2, 3)), InvalidInputError, "expected a square matrix, got (2, 3)"),
    "non_finite": (
        np.array([[1.0, math.nan], [math.nan, 1.0]]),
        InvalidInputError,
        "matrix has a non-finite entry",
    ),
    "non_symmetric": (
        np.array([[2.0, 0.5], [0.0, 1.0]]),
        InvalidInputError,
        "matrix is not symmetric within tolerance",
    ),
    "non_spd": (np.diag([1.0, -2.0]), InvalidInputError, "matrix is not positive definite"),
    "degenerate": (
        np.eye(2),
        DegenerateSpectrumError,
        "eigen-gap below 1e-08: fiber is not a finite orbit",
    ),
}


def raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_eig_canonical_and_psr_mean_refuse_alike(case, warm):
    """One validation, in `eig_canonical`, gives each bad sample the
    refusal `spd_validate` and the gap test gave it, whether or not the
    cache already holds the good samples."""
    bad, error, message = REFUSALS[case]
    if warm:
        eig_canonical(VALID)
    assert raised(eig_canonical, bad) == (error, message)
    assert raised(psr_mean, [VALID, bad]) == (error, message)
    assert raised(psr_mean, [bad, VALID]) == (error, message)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_psr_mean_refuses_mixed_sizes_after_validating_every_sample(warm):
    """Sizes are compared once every sample is valid, and before any
    spectral gap is: an invalid sample wins over mixed sizes, mixed sizes
    over a degenerate one."""
    if warm:
        eig_canonical(VALID)
    mixed = (InvalidInputError, "samples have mixed sizes")
    big = np.diag([3.0, 2.0, 1.0])
    assert raised(psr_mean, [VALID, big]) == mixed
    assert raised(psr_mean, [np.eye(2), big]) == mixed
    assert raised(psr_mean, [VALID, np.eye(2), big]) == mixed
    for case in ("non_square", "non_finite", "non_symmetric", "non_spd"):
        bad, error, message = REFUSALS[case]
        assert raised(psr_mean, [big, VALID, bad]) == (error, message)


# -- distances ---------------------------------------------------------------------


def brute_force_d_psr(S, pair, k):
    cover = cover_manifold(S.shape[0], k)
    canon = eig_canonical(S)
    target = pair.to_point(cover)
    return min(
        cover.dist(act(h, canon).to_point(cover), target)
        for h in group_enumerate(S.shape[0])
    )


def test_d_psr_fiber_zero():
    rng = rng_for(93)
    for _ in range(10):
        S = sample_spd(rng, 2, 0.8)
        try:
            pair = eig_canonical(S)
        except DegenerateSpectrumError:
            continue
        for h in group_enumerate(2):
            assert d_psr(S, act(h, pair)) < 1e-12


def test_d_psr_oracle_value():
    S = np.diag([4.0, 1.0])
    target = EigenPair(np.eye(2), np.array([1.0, 4.0]))
    got = d_psr(S, target, 1.0)
    # by-hand minimization over the 4 group elements: the quarter-turn costs
    # pi/2 with matched diagonals, the identity costs sqrt(2) log 4
    assert got == pytest.approx(min(math.pi / 2, math.sqrt(2.0) * math.log(4.0)), abs=1e-12)
    assert got == pytest.approx(math.pi / 2, abs=1e-12)
    assert got == pytest.approx(brute_force_d_psr(S, target, 1.0), abs=1e-15)


def test_d_psr_k_scaling_of_rotation_term():
    # with matching diagonals the distance is purely rotational: sqrt(k) law
    S = np.diag([4.0, 1.0])
    target = EigenPair(ROT(0.3), np.array([4.0, 1.0]))
    d1 = d_psr(S, target, 1.0)
    d2 = d_psr(S, target, 2.0)
    assert d2 == pytest.approx(math.sqrt(2.0) * d1, abs=1e-12)


def test_d_sr_identity_and_oracle():
    rng = rng_for(94)
    S = sample_spd(rng, 3, 0.9)
    assert d_sr(S, S) < 1e-12
    assert d_sr(np.diag([4.0, 1.0]), np.diag([1.0, 4.0]), 1.0) == pytest.approx(
        math.pi / 2, abs=1e-10
    )


def test_d_sr_symmetry():
    rng = rng_for(95)
    done = 0
    while done < 100:
        S1 = sample_spd(rng, 2, 0.8)
        S2 = sample_spd(rng, 2, 0.8)
        try:
            forward = d_sr(S1, S2)
            backward = d_sr(S2, S1)
        except DegenerateSpectrumError:
            continue
        assert abs(forward - backward) < 1e-12
        done += 1


# -- objective ------------------------------------------------------------------------


def test_psr_objective_fiber_point_zero():
    S = np.diag([3.0, 1.0])
    assert psr_objective([S], eig_canonical(S)) < 1e-24


def test_psr_objective_equals_equivariant_objective():
    rng = rng_for(96)
    for m in (2, 3):
        action = gm_action(m, 1.0)
        cover = cover_manifold(m, 1.0)
        done = 0
        while done < 20:
            try:
                samples = [sample_spd(rng, m, 0.7) for _ in range(3)]
                pairs = [eig_canonical(S) for S in samples]
            except DegenerateSpectrumError:
                continue
            target = EigenPair.from_point(cover, cover.random_point(rng))
            direct = psr_objective(samples, target)
            via_evt = float(
                np.mean(
                    [
                        d_evt(
                            action,
                            QuotientPoint(p.to_point(cover)),
                            target.to_point(cover),
                        )
                        ** 2
                        for p in pairs
                    ]
                )
            )
            assert abs(direct - via_evt) < 1e-12
            done += 1


def test_psr_objective_g_invariant():
    rng = rng_for(97)
    samples = []
    while len(samples) < 3:
        S = sample_spd(rng, 2, 0.8)
        try:
            eig_canonical(S)
        except DegenerateSpectrumError:
            continue
        samples.append(S)
    target = eig_canonical(samples[0])
    base = psr_objective(samples, target)
    for h in group_enumerate(2):
        assert abs(psr_objective(samples, act(h, target)) - base) < 1e-12


# -- psr_mean --------------------------------------------------------------------------


def test_psr_mean_single_sample():
    S = np.diag([5.0, 2.0])
    res = psr_mean([S], restarts=2)
    assert res.objective < 1e-16
    assert np.max(np.abs(res.representative.spd() - S)) < 1e-10
    assert res.unique_up_to_G


def test_psr_mean_commuting_diagonals_geometric_mean():
    a, b = 2.0, 3.0
    res = psr_mean([np.diag([a, 1.0]), np.diag([b, 1.0])])
    rep = res.representative
    # alignment is trivial, so the diagonal factor averages log-Euclidean
    assert np.max(np.abs(rep.spd() - np.diag([math.sqrt(a * b), 1.0]))) < 1e-8
    # oracle: scan rotations x diagonal grid around the claimed minimum
    samples = [np.diag([a, 1.0]), np.diag([b, 1.0])]
    best = min(
        psr_objective(
            samples,
            EigenPair(ROT(t), np.array([x, y])),
        )
        for t in np.linspace(0.0, math.pi / 2, 25)
        for x in np.geomspace(1.5, 4.0, 21)
        for y in np.geomspace(0.5, 2.0, 21)
    )
    assert res.objective <= best + 1e-12


def test_psr_mean_concentrated_unique():
    rng = rng_for(98)
    consts = psr_constants(2, 1.0)
    center = np.diag([2.0, 1.0])
    cover = cover_manifold(2, 1.0)
    center_pt = eig_canonical(center).to_point(cover)
    for _ in range(5):
        samples = []
        while len(samples) < 6:
            cand = sample_ball(cover, center_pt, 0.9 * consts.r_cx_quotient, rng)
            S = EigenPair.from_point(cover, cand).spd()
            if d_sr(S, center) < 0.9 * consts.r_cx_quotient:
                samples.append(S)
        res = psr_mean(samples, rng=rng)
        assert res.unique_up_to_G
        assert d_psr(center, res.representative) < 0.9 * consts.r_cx_quotient
        assert top_stratum_gap(res.representative.spd()) > 1e-6


def test_psr_mean_cover_barycenter_residual():
    rng = rng_for(99)
    cover = cover_manifold(2, 1.0)
    samples = []
    while len(samples) < 5:
        S = sample_spd(rng, 2, 0.4)
        try:
            eig_canonical(S)
        except DegenerateSpectrumError:
            continue
        samples.append(S)
    res = psr_mean(samples)
    lifted = Configuration(
        cover, tuple(l.to_point(cover) for l in res.aligned_lifts)
    )
    residual, _ = barycenter_check(lifted, res.representative.to_point(cover))
    assert residual < 1e-9


# -- stratification diagnostics ----------------------------------------------------------


def test_top_stratum_gap_values():
    assert top_stratum_gap(np.diag([4.0, 2.0, 1.0])) == pytest.approx(1.0)
    assert top_stratum_gap(np.eye(2)) == 0.0


def test_top_stratum_gap_generic_positive():
    rng = rng_for(100)
    gaps = [top_stratum_gap(sample_spd(rng, 3, 1.0)) for _ in range(2000)]
    assert min(gaps) > 0.0
    # same distribution at 1e5 draws: the spectrum of exp(A) is exp of the
    # spectrum of A, so gaps can be batch-computed without the matrix exp
    A = rng.standard_normal((100_000, 3, 3))
    A = np.triu(A) + np.transpose(np.triu(A, 1), (0, 2, 1))
    lam = np.exp(np.sort(np.linalg.eigvalsh(A), axis=1)[:, ::-1])
    batch_gaps = np.min(lam[:, :-1] - lam[:, 1:], axis=1)
    assert float(np.min(batch_gaps)) > 0.0


# -- constants ------------------------------------------------------------------------------


def test_psr_constants_m2():
    c = psr_constants(2, 1.0)
    assert c.beta_gp == pytest.approx(math.pi / 2, abs=1e-15)
    assert c.r_cx_cover == pytest.approx(math.pi / 2, abs=1e-15)
    assert c.r_inj_quotient == pytest.approx(math.pi / 4, abs=1e-15)
    assert c.r_cx_quotient == pytest.approx(math.pi / 8, abs=1e-15)


def test_psr_constants_match_cover_rcx():
    from riemmean.core import rcx_from_constants

    for m in (2, 3):
        for k in (0.25, 1.0, 4.0):
            c = psr_constants(m, k)
            assert c.r_cx_cover == pytest.approx(
                rcx_from_constants(math.sqrt(k) * math.pi, 0.25 / k), abs=1e-14
            )


def test_psr_constants_sqrt_k_scaling():
    base = psr_constants(3, 1.0)
    quad = psr_constants(3, 4.0)
    assert quad.r_cx_cover == pytest.approx(2.0 * base.r_cx_cover, abs=1e-14)
    assert quad.r_inj_quotient == pytest.approx(2.0 * base.r_inj_quotient, abs=1e-14)
    assert quad.r_cx_quotient == pytest.approx(2.0 * base.r_cx_quotient, abs=1e-14)


def test_fiber_exactness():
    rng = rng_for(101)
    for m in (2, 3):
        group = group_enumerate(m)
        done = 0
        while done < 10:
            S = sample_spd(rng, m, 0.8)
            try:
                pair = eig_canonical(S)
            except DegenerateSpectrumError:
                continue
            fiber = [act(h, pair) for h in group]
            for f in fiber:
                assert np.max(np.abs(f.spd() - S)) < 1e-10
            # all |G(m)| fiber members distinct
            cover = cover_manifold(m, 1.0)
            pts = [f.to_point(cover) for f in fiber]
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    assert cover.dist(pts[i], pts[j]) > 1e-6
            done += 1


# -- invariants over generated inputs -----------------------------------------------

# Worst seen over 600 generated configurations (m in {2, 3}, k in {0.25, 1, 4},
# sigma up to 2): objectives 6.2e-16 relative, distances 1.8e-15 absolute.
OBJECTIVE_REL_TOL = 1e-14
DISTANCE_TOL = 1e-14

invariant_cases = dict(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    m=st.sampled_from([2, 3]),
    k=st.sampled_from([0.25, 1.0, 4.0]),
    sigma=st.sampled_from([0.1, 0.5, 1.0, 2.0]),
)


def top_stratum_samples(rng, m, sigma, count):
    """``count`` SPD samples whose eigendecomposition fibre is a G(m) orbit."""
    out = []
    while len(out) < count:
        S = sample_spd(rng, m, sigma)
        try:
            eig_canonical(S)
        except DegenerateSpectrumError:
            continue
        out.append(S)
    return out


@settings(max_examples=60, deadline=None)
@given(size=st.integers(min_value=1, max_value=4), **invariant_cases)
def test_efm_and_psr_objectives_are_g_invariant(seed, m, k, sigma, size):
    """Both objectives depend on the cover point only through its fibre,
    and on each sample only through its fibre."""
    rng = np.random.Generator(np.random.Philox(key=[0x6A17, seed]))
    action = gm_action(m, k)
    samples = top_stratum_samples(rng, m, sigma, size)
    Q = [QuotientPoint(eig_canonical(S).to_point(action.cover)) for S in samples]
    p = action.cover.random_point(rng)
    f = efm_objective(action, Q, p)
    tol = OBJECTIVE_REL_TOL * max(1.0, f)
    moved = [
        QuotientPoint(action.apply(action.elements[int(i)], q.representative))
        for q, i in zip(Q, rng.integers(action.order, size=size))
    ]
    assert abs(efm_objective(action, moved, p) - f) <= tol
    target = EigenPair.from_point(action.cover, p)
    f_psr = psr_objective(samples, target, k)
    for h in action.elements:
        assert abs(efm_objective(action, Q, action.apply(h, p)) - f) <= tol
    for h in group_enumerate(m):
        assert abs(psr_objective(samples, act(h, target), k) - f_psr) <= tol


@settings(max_examples=60, deadline=None)
@given(**invariant_cases)
def test_d_sr_and_d_psr_are_symmetric_and_g_invariant(seed, m, k, sigma):
    """d_sr is symmetric, d_psr is symmetric between two matrices' fibres,
    and moving either eigendecomposition along its fibre changes neither."""
    rng = np.random.Generator(np.random.Philox(key=[0xD5A, seed]))
    S1, S2 = top_stratum_samples(rng, m, sigma, 2)
    c1, c2 = eig_canonical(S1), eig_canonical(S2)
    d = d_sr(S1, S2, k)
    assert abs(d_sr(S2, S1, k) - d) <= DISTANCE_TOL
    assert abs(d_psr(S1, c2, k) - d_psr(S2, c1, k)) <= DISTANCE_TOL
    for h in group_enumerate(m):
        assert abs(d_psr(S2, act(h, c1), k) - d) <= DISTANCE_TOL
        assert abs(d_psr(S1, act(h, c2), k) - d) <= DISTANCE_TOL
