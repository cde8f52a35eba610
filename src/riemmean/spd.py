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
all decompose.  An `EigenPair` keeps the cover point `EigenPair.to_point`
validated, per cover id, and `gm_action` the action per ``(m, k)``.  All
three are immutable and a hit returns what a miss would compute from the
same bytes, so no output changes; refusals are never cached.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import expm_sym, so_norm_from_identity, sym_eig
from .equivariant import FiniteAction, QuotientPoint, efm_solve
from .errors import DegenerateSpectrumError, InvalidInputError
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

    def to_point(self, cover: Product) -> Point:
        """The pair as a validated point of ``cover``.  Built once per cover
        id and kept on the pair: both are immutable."""
        points = getattr(self, "_points", None)
        if points is None:
            points = {}
            object.__setattr__(self, "_points", points)
        p = points.get(cover.manifold_id)
        if p is None:
            p = points[cover.manifold_id] = cover.point(cover.join([self.U, self.d]))
        return p

    @classmethod
    def from_point(cls, cover: Product, p: Point) -> "EigenPair":
        U_part, d_part = cover.split(p.coords)
        return cls(U_part, d_part)


def act(h: SignedPermutation, pair: EigenPair) -> EigenPair:
    """Group action on eigendecompositions; preserves the decomposed matrix
    and is an isometry of the product metric."""
    M = h.matrix
    new_d = np.empty_like(pair.d)
    for j, i in enumerate(h.perm):
        new_d[i] = pair.d[j]
    return EigenPair(pair.U @ M.T, new_d)


def _symmetric(S: np.ndarray, sym_tol: float = 1e-12) -> np.ndarray:
    """Check that ``S`` is a finite square matrix, symmetric within
    ``sym_tol``; returns the array."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got {S.shape}")
    if not np.isfinite(S).all():
        raise InvalidInputError("matrix has a non-finite entry")
    if np.max(np.abs(S - S.T)) > sym_tol:
        raise InvalidInputError("matrix is not symmetric within tolerance")
    return S


def spd_validate(S: np.ndarray, sym_tol: float = 1e-12) -> np.ndarray:
    """Check symmetry and positive-definiteness; returns the array."""
    S = _symmetric(S, sym_tol)
    if np.min(np.linalg.eigvalsh(S)) <= 0.0:
        raise InvalidInputError("matrix is not positive definite")
    return S


def top_stratum_gap(S: np.ndarray) -> float:
    """Minimum consecutive gap of the sorted spectrum; 0 on repeated
    eigenvalues."""
    S = spd_validate(S)
    lam = np.sort(np.linalg.eigvalsh(S))[::-1]
    return float(np.min(lam[:-1] - lam[1:]))


def eig_canonical(S: np.ndarray, gap_tol: float = GAP_TOL) -> EigenPair:
    """Deterministic eigendecomposition of a top-stratum SPD matrix.

    Eigenvalues sorted descending; each eigenvector's first nonzero entry is
    made positive, then the last column is negated if needed for det +1.
    Near-degenerate spectra (min gap < ``gap_tol``) are refused: their fiber
    is not a finite group orbit.

    Validates ``S`` as `spd_validate` does, with the same refusals, but
    takes the positive-definiteness test from the decomposition's own
    eigenvalues: one eigensolve per matrix.  Memoised on the matrix's
    bytes, shape and ``gap_tol``: the last `EIG_CACHE_SIZE` decompositions
    are kept and shared (the pair is immutable).  Refusals raise on every
    call.
    """
    S = np.asarray(S, dtype=float)
    return _eig_canonical(S.tobytes(), S.shape, gap_tol)


@functools.lru_cache(maxsize=EIG_CACHE_SIZE)
def _eig_canonical(data: bytes, shape: tuple[int, ...], gap_tol: float) -> EigenPair:
    U, lam = sym_eig(_symmetric(np.frombuffer(data).reshape(shape)))
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
    return EigenPair(U, lam)


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
    keys = {_int_key(M): i for i, M in enumerate(matrices)}
    n = len(elements)
    compose = np.empty((n, n), dtype=int)
    for i in range(n):
        for j in range(n):
            compose[i, j] = keys[_int_key(matrices[i] @ matrices[j])]
    inverse = np.array([keys[_int_key(M.T)] for M in matrices], dtype=int)
    # the action is shared by every caller of gm_action
    compose.flags.writeable = False
    inverse.flags.writeable = False
    sqrt_k = math.sqrt(k)
    return _SignedPermutationAction(
        cover_manifold(m, k),
        elements,
        compose_table=compose,
        inverse_table=inverse,
        displacement_floor=[sqrt_k * so_norm_from_identity(M) for M in matrices],
    )


class _SignedPermutationAction(FiniteAction):
    """`act` on eigendecomposition cover points.  An element only moves and
    negates entries, so a whole orbit is one exact batched product, equal
    entry for entry to applying the elements one at a time."""

    def __init__(self, cover: Product, elements: list[SignedPermutation], **tables):
        self._rotations_t = np.stack([h.matrix.T for h in elements])
        # the diagonal entry landing in slot i comes from slot sources[h, i]
        self._sources = np.array([np.argsort(h.perm) for h in elements])
        super().__init__(
            cover, [h.label for h in elements], self._apply_one, **tables
        )

    def _images(self, coords: np.ndarray, rows) -> np.ndarray:
        U, d = self.cover.split(coords)
        rot = U @ self._rotations_t[rows]
        return np.concatenate([rot.reshape(len(rot), -1), d[self._sources[rows]]], axis=1)

    def _apply_one(self, index: int, p: Point) -> Point:
        return Point(p.manifold_id, _frozen(self._images(p.coords, [index])[0]))

    def orbit_stack(self, p: Point) -> np.ndarray:
        self.cover._own(p)
        return self._images(p.coords, slice(None))

    def orbit(self, p: Point) -> list[Point]:
        # rows of one frozen product are themselves read-only
        return [Point(p.manifold_id, row) for row in _frozen(self.orbit_stack(p))]


def _int_key(M: np.ndarray) -> tuple[int, ...]:
    return tuple(int(round(x)) for x in M.ravel())


def d_psr(
    S: np.ndarray, pair: EigenPair, k: float = 1.0, gap_tol: float = GAP_TOL
) -> float:
    """Partial scaling-rotation distance: fiber of ``S`` to the fixed
    eigendecomposition ``pair``."""
    canon = eig_canonical(S, gap_tol)
    action = gm_action(S.shape[0], k)
    return action.orbit_dist(canon.to_point(action.cover), pair.to_point(action.cover))


def d_sr(
    S1: np.ndarray, S2: np.ndarray, k: float = 1.0, gap_tol: float = GAP_TOL
) -> float:
    """Scaling-rotation distance between two top-stratum SPD matrices:
    minimal product-metric distance between their eigendecomposition
    fibers.  One-sided group minimization suffices since the action is
    isometric."""
    c1 = eig_canonical(np.asarray(S1, dtype=float), gap_tol)
    c2 = eig_canonical(np.asarray(S2, dtype=float), gap_tol)
    action = gm_action(c1.U.shape[0], k)
    return action.orbit_dist(c2.to_point(action.cover), c1.to_point(action.cover))


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
    averaged by a Karcher step on the product cover (closed-form
    log-Euclidean averaging on the diagonal factor, iterative on SO(m)).
    ``unique_up_to_G`` is True iff ``restarts`` extra solves from random
    group-translated sample lifts all land on the same group orbit within
    1e-7.
    """
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
    Q = [QuotientPoint(c.to_point(cover)) for c in canons]
    base = efm_solve(action, Q)
    rep_point = base.downstairs_mean.representative
    unique = True
    if restarts > 0:
        if rng is None:
            rng = np.random.Generator(np.random.Philox(key=[0x9512, 0]))
        from .errors import NoConvergenceError

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
    ``sqrt(k) beta_gp / 4``.
    """
    elements = group_enumerate(m)
    beta_gp = min(so_norm_from_identity(h.matrix) for h in elements[1:])
    assert beta_gp <= math.pi / 2 + 1e-12
    sqrt_k = math.sqrt(k)
    return PsrConstants(
        beta_gp=beta_gp,
        r_cx_cover=sqrt_k * math.pi / 2.0,
        r_inj_quotient=sqrt_k * beta_gp / 2.0,
        r_cx_quotient=sqrt_k * beta_gp / 4.0,
    )


def sample_spd(rng: np.random.Generator, m: int, sigma: float) -> np.ndarray:
    """Absolutely continuous SPD sampler: exp of a symmetric matrix with
    i.i.d. N(0, sigma^2) entries."""
    A = sigma * rng.standard_normal((m, m))
    A = np.triu(A) + np.triu(A, 1).T
    return expm_sym(A)
