"""Shared numeric kernel: metric-constant arithmetic and small-matrix
linear algebra (symmetric eigensolver, orthogonal exp/log).

Everything here is a pure function of its inputs and safe to share across
threads.  Matrices are small (m <= 5 throughout the package), so clarity and
stability are preferred over asymptotic cleverness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutLocusError, InvalidInputError

INF = math.inf


def rcx_from_constants(r_inj: float, delta_sup: float) -> float:
    """Convexity-type radius ``0.5 * min(r_inj, pi / sqrt(delta_sup))``.

    ``delta_sup`` is an upper bound on sectional curvature; for
    ``delta_sup <= 0`` the curvature term is +inf, so the result is
    ``r_inj / 2``.  Infinities propagate (Hadamard case gives +inf).
    """
    if r_inj < 0:
        raise InvalidInputError(f"injectivity radius must be >= 0, got {r_inj}")
    if delta_sup <= 0:
        curvature_bound = INF
    else:
        curvature_bound = math.pi / math.sqrt(delta_sup)
    return 0.5 * min(r_inj, curvature_bound)


@dataclass(frozen=True)
class MetricConstants:
    """Geometric constants of a manifold: injectivity radius, an upper bound
    on sectional curvature, and the derived convexity-type radius."""

    r_inj: float
    delta_sup: float
    r_cx: float

    def __post_init__(self) -> None:
        expected = rcx_from_constants(self.r_inj, self.delta_sup)
        if not (self.r_cx == expected or abs(self.r_cx - expected) <= 1e-12):
            raise InvalidInputError(
                f"r_cx={self.r_cx} inconsistent with r_inj={self.r_inj}, "
                f"delta_sup={self.delta_sup} (expected {expected})"
            )

    @classmethod
    def from_bounds(cls, r_inj: float, delta_sup: float) -> "MetricConstants":
        return cls(r_inj, delta_sup, rcx_from_constants(r_inj, delta_sup))


# the symmetry rule's relative bound (`check_symmetric`)
SYM_TOL = 1e-12


def check_symmetric(S) -> np.ndarray:
    """Check that ``S`` is a finite square matrix with
    ``max|S - S^T| <= SYM_TOL * max(1, max|S|)``; returns it as a float
    array.  The bound is relative because a computed ``U diag(lam) U^T`` is
    symmetric only to a few ulps of its largest entry.  This is the one
    symmetric-matrix check: `sym_eig` and every SPD input check call it."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got {S.shape}")
    if S.size == 0:
        raise InvalidInputError("matrix is empty")
    if not np.isfinite(S).all():
        raise InvalidInputError("matrix has a non-finite entry")
    asym = np.abs(S - S.T).max()
    # the same rule, split so that an exactly symmetric S skips max|S|
    if asym > SYM_TOL and asym > SYM_TOL * np.abs(S).max():
        raise InvalidInputError("matrix is not symmetric within tolerance")
    return S


def sym_eig(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a small symmetric matrix.

    Returns ``(U, lam)`` with ``U`` orthogonal, ``det U = +1``, ``lam``
    sorted descending, and ``U @ diag(lam) @ U.T == S`` to working accuracy.
    The determinant is fixed by negating the last eigenvector column when
    needed, which preserves the decomposition.  Refuses what
    `check_symmetric` refuses: a non-square, non-finite or non-symmetric
    matrix.
    """
    S = check_symmetric(S)
    lam, U = np.linalg.eigh(0.5 * (S + S.T))
    lam = lam[::-1].copy()
    U = U[:, ::-1].copy()
    if np.linalg.det(U) < 0.0:
        U[:, -1] = -U[:, -1]
    return U, lam


def expm_sym(A: np.ndarray) -> np.ndarray:
    """Matrix exponential of a symmetric matrix (spectral); refuses what
    `sym_eig` refuses."""
    U, lam = sym_eig(A)
    return (U * np.exp(lam)) @ U.T


def angle_frame(R: np.ndarray):
    """Rotation angles of ``R`` in SO(m), or of each matrix of a
    ``(..., m, m)`` stack, with the frame they were read off.

    Returns ``(theta, sines, W, AW)``: ``W`` is the eigenframe of the
    symmetric part (one eigenvector per column, cosines ascending), ``AW``
    the skew part applied to it, ``sines`` the column norms of ``AW`` and
    ``theta`` the per-eigenvector angle.  Each rotation plane contributes its
    angle twice, fixed axes contribute 0.

    Angles come from atan2 of the skew part against the symmetric part: on
    each invariant plane the skew part acts with norm ``|sin theta|``, which
    keeps full precision near theta = 0 and pi (arccos alone loses half the
    digits there).  Stacks go through one batched ``eigh``.  The rotation
    kernels below use this frame only for m >= 4, where a rotation can turn
    several planes; `minimal_rotation_logs` uses it for every m, since it
    needs the eigenvectors spanning an angle-pi plane.
    """
    R = np.asarray(R, dtype=float)
    Rt = np.swapaxes(R, -1, -2)
    S = 0.5 * (R + Rt)
    A = 0.5 * (R - Rt)
    cosines, W = np.linalg.eigh(S)
    AW = A @ W
    sines = np.sqrt(np.einsum("...ij,...ij->...j", AW, AW))
    return np.arctan2(sines, cosines), sines, W, AW


def plane_angle(R: np.ndarray):
    """Rotation angle of ``R`` in SO(2) or SO(3), or of each matrix of a
    ``(..., m, m)`` stack, in closed form.

    Returns ``(theta, sines, A)``: ``A = (R - R.T) / 2`` is the skew part,
    ``sines = sqrt(sum(A**2) / 2)`` and ``theta = atan2(sines, cosines)``
    with ``cosines = (tr R - (m - 2)) / 2``.  For m <= 3 a rotation turns a
    single plane, by ``theta``: its skew part is ``sin(theta)`` times the
    plane's unit generator and its trace is ``2 cos(theta) + m - 2``.  As in
    `angle_frame`, atan2 keeps full precision near 0 and pi.
    """
    R = np.asarray(R, dtype=float)
    Rt = np.swapaxes(R, -1, -2)
    A = 0.5 * (R - Rt)
    sines = np.sqrt(0.5 * np.einsum("...ij,...ij->...", A, A))
    cosines = 0.5 * (np.trace(R, axis1=-2, axis2=-1) - (R.shape[-1] - 2))
    return np.arctan2(sines, cosines), sines, A


def _one_plane(R: np.ndarray) -> bool:
    """The one dispatch of the rotation kernels on m: SO(2) and SO(3) turn
    a single plane and go through `plane_angle`, larger m through the
    batched ``eigh`` of `angle_frame`."""
    return R.shape[-1] <= 3


def rotation_angles(R: np.ndarray) -> np.ndarray:
    """Principal rotation angles of ``R`` (or of each matrix of a stack),
    descending, one per eigenvector as in `angle_frame`: each rotation plane
    twice, fixed axes 0."""
    R = np.asarray(R, dtype=float)
    if _one_plane(R):
        theta = plane_angle(R)[0][..., None]
        fixed = np.zeros(theta.shape[:-1] + (R.shape[-1] - 2,))
        return np.concatenate([theta, theta, fixed], axis=-1)
    return np.flip(np.sort(angle_frame(R)[0], axis=-1), axis=-1)


def rotation_norm(R: np.ndarray) -> np.ndarray:
    """Root-sum-square of the rotation planes' angles of each matrix of a
    ``(..., m, m)`` stack: its geodesic distance from the identity under
    ``g_so``."""
    R = np.asarray(R, dtype=float)
    if _one_plane(R):
        return plane_angle(R)[0]
    theta = angle_frame(R)[0]
    return np.sqrt(0.5 * np.einsum("...i,...i->...", theta, theta))


def _refuse_pi(theta: np.ndarray, tol: float) -> None:
    if float(theta.max()) > math.pi - tol:
        raise CutLocusError("rotation has an angle-pi block; log is not unique")


def _frame_log(ratio: np.ndarray, W: np.ndarray, AW: np.ndarray) -> np.ndarray:
    # the skew matrix acting on each eigenvector as the skew part scaled by
    # ratio; where the action vanishes the log contribution is zero anyway
    X = (AW * ratio[..., None, :]) @ np.swapaxes(W, -1, -2)
    return 0.5 * (X - np.swapaxes(X, -1, -2))


def _wide_angle_logs(R: np.ndarray, theta: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Logs of a ``(K, 3, 3)`` stack of rotations by angles ``theta`` with
    cos(theta) < 0, and their skew parts ``A``.

    The skew part is ``sin(theta) hat(n)`` for the unit axis ``n``, so its
    relative rounding grows like 1 / sin(theta) near pi.  The symmetric part
    ``S = cos(theta) I + (1 - cos(theta)) n n^T`` gives
    ``n n^T = (S - cos(theta) I) / (1 - cos(theta))`` with a denominator
    above 1 here; its column of largest diagonal entry is ``n`` up to scale
    and sign, and the sign is the one along the skew part's axis.
    """
    cosines = 0.5 * (np.trace(R, axis1=-2, axis2=-1) - 1.0)
    S = 0.5 * (R + np.swapaxes(R, -1, -2))
    N = (S - cosines[:, None, None] * np.eye(3)) / (1.0 - cosines)[:, None, None]
    j = np.argmax(np.diagonal(N, axis1=-2, axis2=-1), axis=-1)
    n = N[np.arange(len(N)), :, j]
    # the axis of hat(x) sits at the entries (2, 1), (0, 2) and (1, 0)
    along = (n * np.stack([A[:, 2, 1], A[:, 0, 2], A[:, 1, 0]], axis=-1)).sum(axis=-1)
    scale = np.where(along < 0.0, -theta, theta) / np.hypot.reduce(n, axis=-1)
    x0, x1, x2 = (n * scale[:, None]).T
    X = np.zeros_like(R)
    X[:, 2, 1], X[:, 0, 2], X[:, 1, 0] = x0, x1, x2
    X[:, 1, 2], X[:, 2, 0], X[:, 0, 1] = -x0, -x1, -x2
    return X


def rotation_log(R: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Principal matrix logarithm of ``R`` in SO(m), as a skew matrix; a
    ``(..., m, m)`` stack gives the stack of logs.

    Raises `CutLocusError` when some rotation angle is within ``tol`` of pi:
    there the principal log is not unique (or not defined) and the formulas
    below lose the plane's orientation.  For m <= 3 the log is the skew
    part scaled to norm ``theta`` (`plane_angle`), except for the SO(3)
    rotations with cos(theta) < 0, whose axis `_wide_angle_logs` reads from
    the symmetric part; larger m scale the skew action on each eigenvector
    of `angle_frame` to length ``theta``.
    """
    R = np.asarray(R, dtype=float)
    if _one_plane(R):
        theta, sines, A = plane_angle(R)
        _refuse_pi(theta, tol)
        X = A * (theta / np.maximum(sines, 1e-300))[..., None, None]
        if R.shape[-1] == 3:
            # theta > pi/2 iff cos(theta) < 0, since sines >= 0
            wide = theta > 0.5 * math.pi
            if wide.any():
                X[wide] = _wide_angle_logs(R[wide], theta[wide], A[wide])
        return X
    theta, sines, W, AW = angle_frame(R)
    _refuse_pi(theta, tol)
    return _frame_log(theta / np.maximum(sines, 1e-300), W, AW)


def minimal_rotation_logs(R: np.ndarray, tol: float = 1e-8) -> list[np.ndarray]:
    """All minimal-norm logs of ``R``.

    Off the cut locus this is the singleton principal log.  With exactly one
    angle-pi plane there are two minimal logs (the two orientations of that
    plane).  Two or more pi-planes give a continuum, which is refused.  The
    pi-plane is spanned by eigenvectors of `angle_frame`, so every m goes
    through its ``eigh`` here.
    """
    theta, sines, W, AW = angle_frame(R)
    at_pi = theta > math.pi - tol
    if at_pi.any() and int(at_pi.sum()) != 2:
        raise CutLocusError("multiple angle-pi planes: continuum of minimal logs")
    ratio = np.where(at_pi, 0.0, theta / np.maximum(sines, 1e-300))
    base = _frame_log(ratio, W, AW)
    if not at_pi.any():
        return [base]
    wa, wb = W[:, at_pi].T
    plane = math.pi * (np.outer(wa, wb) - np.outer(wb, wa))
    return [base + plane, base - plane]


def _sinc(x: float) -> float:
    return math.sin(x) / x if x else 1.0


def rotation_exp(X: np.ndarray) -> np.ndarray:
    """Matrix exponential of a skew matrix ``X``, landing in SO(m).

    For m <= 3, ``X`` turns a single plane by ``theta = sqrt(sum(X**2) / 2)``
    and Rodrigues' formula ``I + sinc(theta) X + sinc(theta / 2)**2 X**2 / 2``
    is exact; larger m go through the ``eigh`` of ``X X.T``.
    """
    X = np.asarray(X, dtype=float)
    if _one_plane(X):
        theta = math.sqrt(0.5 * float(np.vdot(X, X)))
        half = _sinc(0.5 * theta)
        return np.eye(X.shape[-1]) + _sinc(theta) * X + (0.5 * half * half) * (X @ X)
    mu, W = np.linalg.eigh(X @ X.T)
    theta = np.sqrt(np.clip(mu, 0.0, None))
    cos_part = (W * np.cos(theta)) @ W.T
    sinc_part = X @ (W * np.sinc(theta / math.pi)) @ W.T
    return cos_part + sinc_part
