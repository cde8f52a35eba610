"""Scaling-rotation geometry of SPD matrices.

An SPD matrix ``S`` with distinct eigenvalues ("top stratum") has a finite
set of eigendecompositions ``S = U diag(d) U^T`` with ``U`` in SO(m): the
orbit of any one of them under the group G(m) of even signed permutations
(order ``2**(m-1) * m!``), acting by

    h . (U, d) = (U h^T, h diag(d) h^T).

Distances between eigendecompositions are measured in the product manifold
``SO(m) x Diag+(m)`` with metric ``k * g_so (+) g_diag``:

* ``d_sr(S1, S2)``   -- min over the group of fiber-to-fiber distances;
* ``d_psr(S, pair)`` -- min distance from the fiber of ``S`` to a fixed
  eigendecomposition ("partial" distance).

Minimizers of the mean squared partial distance are computed by reduction
to the equivariant mean machinery on the product cover; by construction
they are determined only up to the group action.

Each piece of this work is done once per matrix.  `eig_canonical` keeps its
last `EIG_CACHE_SIZE` (16) decompositions, keyed on the matrix's bytes,
shape and ``gap_tol``: enough for one lab trial's samples plus the fixed
centre, which the ``d_sr`` rejection tests, ``psr_mean`` and ``d_psr``
all decompose.  An `EigenPair` keeps its class in the quotient
(`EigenPair.fiber`, whose representative is the pair's cover point
`EigenPair.to_point`), per cover id, with that class's orbit stack per
action, so ``d_sr`` and ``d_psr`` build a kept pair's orbit once; and
`gm_action` keeps the action per ``(m, k)``.  All three are immutable and
a hit returns what a miss would compute from the same bytes, so no output
changes; refusals are never cached.

Input is validated where it enters: a pair the caller builds becomes a
cover point through the cover's point check.  The pairs the package builds
itself, by `eig_canonical` or `EigenPair.from_point`, are cover points by
construction and skip that check (the shape is still checked).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import check_symmetric, expm_sym, rotation_norm, sym_eig
from .equivariant import FiniteAction, QuotientPoint, efm_solve
from .errors import DegenerateSpectrumError, InvalidInputError, NoConvergenceError
from .manifolds import DiagPos, Point, Product, SpecialOrthogonal, _frozen

GAP_TOL = 1e-8
ORBIT_MATCH_TOL = 1e-7
# decompositions kept by `eig_canonical`: one lab trial's samples plus the
# fixed centre of the lab's psr_uniqueness experiment
EIG_CACHE_SIZE = 16


@dataclass(frozen=True)
class SignedPermutation:
    """An even signed permutation: matrix ``M e_j = signs[j] * e_perm[j]``
    with determinant +1."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        m = len(self.perm)
        if sorted(self.perm) != list(range(m)) or len(self.signs) != m:
            raise InvalidInputError("malformed signed permutation")
        if any(s not in (-1, 1) for s in self.signs):
            raise InvalidInputError("signs must be +-1")
        if _perm_sign(self.perm) * int(np.prod(self.signs)) != 1:
            raise InvalidInputError("signed permutation is odd (determinant -1)")

    @property
    def matrix(self) -> np.ndarray:
        m = len(self.perm)
        M = np.zeros((m, m))
        for j, (i, s) in enumerate(zip(self.perm, self.signs)):
            M[i, j] = float(s)
        return M

    @property
    def label(self) -> str:
        return "".join(map(str, self.perm)) + "|" + "".join(
            "+" if s > 0 else "-" for s in self.signs
        )


def _perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def group_enumerate(m: int) -> list[SignedPermutation]:
    """All even signed permutations of size m, identity first, in a fixed
    deterministic order (permutations lexicographic, then signs with +1
    preferred)."""
    if not 2 <= m <= 5:
        raise InvalidInputError(f"group enumeration supports 2 <= m <= 5, got {m}")
    out = []
    for perm in itertools.permutations(range(m)):
        for signs in itertools.product((1, -1), repeat=m):
            if _perm_sign(perm) * int(np.prod(signs)) == 1:
                out.append(SignedPermutation(perm, signs))
    return out


@dataclass(frozen=True)
class EigenPair:
    """An eigendecomposition ``(U, d)``: ``U`` in SO(m) and positive
    diagonal entries ``d`` with ``U diag(d) U^T`` the decomposed matrix."""

    U: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "U", _frozen(self.U))
        object.__setattr__(self, "d", _frozen(self.d))

    def spd(self) -> np.ndarray:
        """The decomposed SPD matrix ``U diag(d) U^T``."""
        return (self.U * self.d) @ self.U.T

    def fiber(self, cover: Product) -> QuotientPoint:
        """The pair's class in the quotient of ``cover`` by G(m), represented
        by the pair itself.  Built once per cover id and kept on the pair,
        with the orbit stacks it keeps (`QuotientPoint.orbit_stack`): all
        are immutable.  A pair built here or by the user is validated as a
        point of ``cover``; a pair the package built from a decomposition
        (`eig_canonical`) or a cover point (`from_point`) is one by
        construction, and is only checked for its shape."""
        fibers = self._fiber_cache()
        q = fibers.get(cover.manifold_id)
        if q is None:
            coords = cover.join([self.U, self.d])
            if getattr(self, "_trusted", False):
                if coords.shape != cover.shape:
                    raise InvalidInputError(
                        f"expected flat shape {cover.shape}, got {coords.shape}"
                    )
                point = Point(cover.manifold_id, _frozen(coords))
            else:
                point = cover.point(coords)
            q = fibers[cover.manifold_id] = QuotientPoint(point)
        return q

    def _fiber_cache(self) -> dict:
        fibers = getattr(self, "_fibers", None)
        if fibers is None:
            fibers = {}
            object.__setattr__(self, "_fibers", fibers)
        return fibers

    def to_point(self, cover: Product) -> Point:
        """The pair as a point of ``cover``, built once per cover id (the
        representative of `fiber`)."""
        return self.fiber(cover).representative

    @classmethod
    def from_point(cls, cover: Product, p: Point) -> "EigenPair":
        """The pair of a cover point; its fiber on ``p``'s manifold is
        represented by ``p`` itself."""
        U_part, d_part = cover.split(p.coords)
        pair = cls(U_part, d_part)
        pair._fiber_cache()[p.manifold_id] = QuotientPoint(p)
        return pair


def act(h: SignedPermutation, pair: EigenPair) -> EigenPair:
    """Group action on eigendecompositions; preserves the decomposed matrix
    and is an isometry of the product metric."""
    M = h.matrix
    new_d = np.empty_like(pair.d)
    for j, i in enumerate(h.perm):
        new_d[i] = pair.d[j]
    return EigenPair(pair.U @ M.T, new_d)


def spd_validate(S: np.ndarray) -> np.ndarray:
    """Check symmetry as `check_symmetric` does, and positive-definiteness;
    returns the array."""
    S = check_symmetric(S)
    if np.min(np.linalg.eigvalsh(S)) <= 0.0:
        raise InvalidInputError("matrix is not positive definite")
    return S


def top_stratum_gap(S: np.ndarray) -> float:
    """Minimum consecutive gap of the sorted spectrum; 0 on repeated
    eigenvalues.  Refuses what `spd_validate` refuses, from one eigensolve,
    and a 1 x 1 matrix, which has no gap."""
    S = check_symmetric(S)
    if len(S) < 2:
        raise InvalidInputError(f"a spectral gap needs at least a 2 x 2 matrix, got {S.shape}")
    lam = np.sort(np.linalg.eigvalsh(S))[::-1]
    if lam[-1] <= 0.0:
        raise InvalidInputError("matrix is not positive definite")
    return float(np.min(lam[:-1] - lam[1:]))


def eig_canonical(S: np.ndarray, gap_tol: float = GAP_TOL) -> EigenPair:
    """Deterministic eigendecomposition of a top-stratum SPD matrix.

    Eigenvalues sorted descending; each eigenvector's first nonzero entry is
    made positive, then the last column is negated if needed for det +1.
    Near-degenerate spectra (min gap < ``gap_tol``) are refused: their fiber
    is not a finite group orbit.  A non-finite or non-positive ``gap_tol``
    is refused first.

    Validates ``S`` as `spd_validate` does, with the same refusals, but
    runs `check_symmetric` once, inside `sym_eig`, and takes the
    positive-definiteness test from the decomposition's own eigenvalues:
    one eigensolve per matrix.  Memoised on the matrix's bytes, shape and
    ``gap_tol``: the last `EIG_CACHE_SIZE` decompositions are kept and
    shared (the pair is immutable).  Refusals raise on every call.
    """
    if not (math.isfinite(gap_tol) and gap_tol > 0.0):
        raise InvalidInputError(f"gap_tol must be finite and > 0, got {gap_tol}")
    S = np.asarray(S, dtype=float)
    return _eig_canonical(S.tobytes(), S.shape, gap_tol)


@functools.lru_cache(maxsize=EIG_CACHE_SIZE)
def _eig_canonical(data: bytes, shape: tuple[int, ...], gap_tol: float) -> EigenPair:
    U, lam = sym_eig(np.frombuffer(data).reshape(shape))
    if np.min(lam) <= 0.0:
        raise InvalidInputError("matrix is not positive definite")
    if len(lam) >= 2 and float(np.min(lam[:-1] - lam[1:])) < gap_tol:
        raise DegenerateSpectrumError(
            f"eigen-gap below {gap_tol}: fiber is not a finite orbit"
        )
    U = U.copy()
    for j in range(U.shape[1]):
        col = U[:, j]
        nonzero = np.nonzero(np.abs(col) > 1e-12)[0]
        if nonzero.size and col[nonzero[0]] < 0.0:
            U[:, j] = -col
    if np.linalg.det(U) < 0.0:
        U[:, -1] = -U[:, -1]
    pair = EigenPair(U, lam)
    # U is orthogonal with det +1 and lam > 0: `fiber` need not check it
    object.__setattr__(pair, "_trusted", True)
    return pair


def cover_manifold(m: int, k: float = 1.0) -> Product:
    """The eigendecomposition space ``SO(m) x Diag+(m)`` with metric
    ``k * g_so (+) g_diag``."""
    return Product([SpecialOrthogonal(m, k), DiagPos(m)])


def gm_action(m: int, k: float = 1.0) -> FiniteAction:
    """G(m) acting on the eigendecomposition cover.

    The rotation part of each element's displacement is the constant
    ``sqrt(k) * d_so(h, I)`` by bi-invariance, and the diagonal part
    vanishes toward equal-entry diagonals, so per-element displacement
    floors are exact and the group's minimal displacement is
    ``sqrt(k) * beta_gp``.  Built once per ``(m, k)`` and shared: the
    action is immutable.
    """
    return _gm_action(m, float(k))


@functools.lru_cache(maxsize=16)
def _gm_action(m: int, k: float) -> FiniteAction:
    elements = group_enumerate(m)
    matrices = [h.matrix for h in elements]
    # signed permutations are exact in int8, and so are their products; an
    # element is looked up by its matrix's bytes
    signed = np.stack(matrices).astype(np.int8)
    keys = {M.tobytes(): i for i, M in enumerate(signed)}
    n = len(elements)
    # one row of products at a time bounds the work array at n matrices
    compose = np.empty((n, n), dtype=int)
    for a, M in enumerate(signed):
        products = np.einsum("ij,bjk->bik", M, signed)
        compose[a] = [keys[P.tobytes()] for P in products]
    inverse = np.array([keys[M.T.tobytes()] for M in signed], dtype=int)
    # the action is shared by every caller of gm_action
    compose.flags.writeable = False
    inverse.flags.writeable = False
    cover = cover_manifold(m, k)
    rotations_t = np.stack([M.T for M in matrices])
    # the diagonal entry landing in slot i comes from slot sources[h, i]
    sources = np.array([np.argsort(h.perm) for h in elements])

    def images(coords: np.ndarray) -> np.ndarray:
        # `act` for every element at once: an element only moves and negates
        # entries, so each row equals applying that element alone, exactly
        U, d = cover.split(coords)
        rot = U @ rotations_t
        return np.concatenate([rot.reshape(n, -1), d[sources]], axis=1)

    sqrt_k = math.sqrt(k)
    return FiniteAction(
        cover,
        [h.label for h in elements],
        images,
        compose_table=compose,
        inverse_table=inverse,
        displacement_floor=[sqrt_k * rotation_norm(M) for M in matrices],
    )


def _common_size(a: EigenPair, b: EigenPair) -> int:
    """The size m of two decompositions; refuses two different sizes."""
    m, n = len(a.d), len(b.d)
    if m != n:
        raise InvalidInputError(f"matrix sizes differ: {m}x{m} and {n}x{n}")
    return m


def d_psr(
    S: np.ndarray, pair: EigenPair, k: float = 1.0, gap_tol: float = GAP_TOL
) -> float:
    """Partial scaling-rotation distance: fiber of ``S`` to the fixed
    eigendecomposition ``pair``, of the same size."""
    canon = eig_canonical(S, gap_tol)
    action = gm_action(_common_size(canon, pair), k)
    return action.orbit_dist(canon.fiber(action.cover), pair.to_point(action.cover))


def d_sr(
    S1: np.ndarray, S2: np.ndarray, k: float = 1.0, gap_tol: float = GAP_TOL
) -> float:
    """Scaling-rotation distance between two top-stratum SPD matrices:
    minimal product-metric distance between their eigendecomposition
    fibers.  One-sided group minimization suffices since the action is
    isometric.  The orbit taken is that of ``S2``'s decomposition, kept on
    its `EigenPair`: repeated distances to one fixed ``S2`` (the lab's
    rejection tests against its centre) build that orbit once.  Matrices
    of different sizes are refused."""
    c1 = eig_canonical(S1, gap_tol)
    c2 = eig_canonical(S2, gap_tol)
    action = gm_action(_common_size(c1, c2), k)
    return action.orbit_dist(c2.fiber(action.cover), c1.to_point(action.cover))


def psr_objective(
    samples: list[np.ndarray],
    pair: EigenPair,
    k: float = 1.0,
    gap_tol: float = GAP_TOL,
) -> float:
    """Mean squared partial scaling-rotation distance to the samples."""
    return float(np.mean([d_psr(S, pair, k, gap_tol) ** 2 for S in samples]))


@dataclass(frozen=True)
class PsrMeanResult:
    representative: EigenPair
    aligned_lifts: list[EigenPair]
    objective: float
    unique_up_to_G: bool
    outer_iterations: int


def psr_mean(
    samples: list[np.ndarray],
    k: float = 1.0,
    gap_tol: float = GAP_TOL,
    restarts: int = 5,
    rng: np.random.Generator | None = None,
) -> PsrMeanResult:
    """Partial scaling-rotation mean via the equivariant solver.

    Canonical sample lifts are alternately re-aligned over the group and
    averaged by a Karcher descent on the product cover: the diagonal
    factor's log-Euclidean mean is reached in one step, and SO(m) is
    iterative, with Newton steps on SO(3) (see `karcher_descent`).
    ``unique_up_to_G`` is True iff ``restarts`` extra solves from random
    group-translated sample lifts all land on the same group orbit within
    1e-7 (vacuously for ``restarts = 0``; a negative count is refused).
    """
    if restarts < 0:
        raise InvalidInputError(f"restarts must be >= 0, got {restarts}")
    if not samples:
        raise InvalidInputError("need at least one sample")
    # eig_canonical validates each sample; a narrow spectrum is reported
    # only once every sample is valid and all sizes agree
    canons: list[EigenPair] = []
    narrow: DegenerateSpectrumError | None = None
    for S in samples:
        try:
            canons.append(eig_canonical(S, gap_tol))
        except DegenerateSpectrumError as exc:
            narrow = narrow or exc
    m = np.shape(samples[0])[0]
    if any(np.shape(S)[0] != m for S in samples):
        raise InvalidInputError("samples have mixed sizes")
    if narrow is not None:
        raise narrow
    action = gm_action(m, k)
    cover = action.cover
    # each sample's orbit stack is built once, for all 1 + restarts solves
    Q = [c.fiber(cover) for c in canons]
    base = efm_solve(action, Q)
    rep_point = base.downstairs_mean.representative
    unique = True
    if restarts > 0:
        if rng is None:
            rng = np.random.Generator(np.random.Philox(key=[0x9512, 0]))
        for _ in range(restarts):
            h = action.elements[int(rng.integers(action.order))]
            j = int(rng.integers(len(Q)))
            init = action.apply(h, Q[j].representative)
            try:
                res = efm_solve(action, Q, init=init)
            except NoConvergenceError:
                unique = False
                continue
            if not action.same_fiber(
                res.downstairs_mean.representative, rep_point, ORBIT_MATCH_TOL
            ):
                unique = False
    return PsrMeanResult(
        representative=EigenPair.from_point(cover, rep_point),
        aligned_lifts=[EigenPair.from_point(cover, p) for p in base.aligned_lifts],
        objective=base.objective,
        unique_up_to_G=unique,
        outer_iterations=base.outer_iterations,
    )


@dataclass(frozen=True)
class PsrConstants:
    beta_gp: float
    r_cx_cover: float
    r_inj_quotient: float
    r_cx_quotient: float


def psr_constants(m: int, k: float = 1.0) -> PsrConstants:
    """Closed-form constants of the eigendecomposition geometry.

    ``beta_gp`` is the minimal unscaled rotation distance from the identity
    over nonidentity group elements (at most pi/2: a single quarter-turn
    plane is always available); the cover's convexity radius is
    ``sqrt(k) pi / 2``; the quotient radii are ``sqrt(k) beta_gp / 2`` and
    ``sqrt(k) beta_gp / 4``.  ``k`` is refused as `SpecialOrthogonal`
    refuses it: it must be finite and positive.
    """
    elements = group_enumerate(m)
    r_cx_cover = cover_manifold(m, k).constants.r_cx
    beta_gp = min(float(rotation_norm(h.matrix)) for h in elements[1:])
    assert beta_gp <= math.pi / 2 + 1e-12
    sqrt_k = math.sqrt(k)
    return PsrConstants(
        beta_gp=beta_gp,
        r_cx_cover=r_cx_cover,
        r_inj_quotient=sqrt_k * beta_gp / 2.0,
        r_cx_quotient=sqrt_k * beta_gp / 4.0,
    )


def sample_spd(rng: np.random.Generator, m: int, sigma: float) -> np.ndarray:
    """Absolutely continuous SPD sampler: exp of a symmetric matrix with
    i.i.d. N(0, sigma^2) entries."""
    A = sigma * rng.standard_normal((m, m))
    A = np.triu(A) + np.triu(A, 1).T
    return expm_sym(A)
