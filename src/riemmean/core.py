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


def sym_eig(S: np.ndarray, sym_tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a small symmetric matrix.

    Returns ``(U, lam)`` with ``U`` orthogonal, ``det U = +1``, ``lam``
    sorted descending, and ``U @ diag(lam) @ U.T == S`` to working accuracy.
    The determinant is fixed by negating the last eigenvector column when
    needed, which preserves the decomposition.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {S.shape}")
    if np.max(np.abs(S - S.T)) > sym_tol:
        raise InvalidInputError("matrix is not symmetric within tolerance")
    lam, U = np.linalg.eigh(0.5 * (S + S.T))
    lam = lam[::-1].copy()
    U = U[:, ::-1].copy()
    if np.linalg.det(U) < 0.0:
        U[:, -1] = -U[:, -1]
    return U, lam


def expm_sym(A: np.ndarray) -> np.ndarray:
    """Matrix exponential of a symmetric matrix (spectral)."""
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
    digits there).  Stacks go through one batched ``eigh``.
    """
    R = np.asarray(R, dtype=float)
    Rt = np.swapaxes(R, -1, -2)
    S = 0.5 * (R + Rt)
    A = 0.5 * (R - Rt)
    cosines, W = np.linalg.eigh(S)
    AW = A @ W
    sines = np.sqrt(np.einsum("...ij,...ij->...j", AW, AW))
    return np.arctan2(sines, cosines), sines, W, AW


def rotation_angles(R: np.ndarray) -> np.ndarray:
    """Principal rotation angles of ``R`` (or of each matrix of a stack),
    descending; see `angle_frame`."""
    return np.flip(np.sort(angle_frame(R)[0], axis=-1), axis=-1)


def so_norm_from_identity(R: np.ndarray) -> float:
    """Geodesic distance from the identity to ``R`` under the bi-invariant
    metric ``<X, Y> = tr(X.T Y) / 2`` on skew matrices.

    Each rotation plane with angle ``theta`` contributes ``theta**2``; the
    half compensates for the doubled multiplicity in `rotation_angles`.
    Defined for every ``R``, including angle-pi blocks.
    """
    theta = rotation_angles(R)
    return math.sqrt(0.5 * float(np.dot(theta, theta)))


def rotation_log(R: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Principal matrix logarithm of ``R`` in SO(m), as a skew matrix; a
    ``(..., m, m)`` stack gives the stack of logs.

    Raises `CutLocusError` when some rotation angle is within ``tol`` of pi:
    there the principal log is not unique (or not defined) and the formula
    below loses the plane's orientation.
    """
    theta, sines, W, AW = angle_frame(R)
    if float(theta.max()) > math.pi - tol:
        raise CutLocusError("rotation has an angle-pi block; log is not unique")
    # scale the skew action on each eigenvector to length theta; where the
    # action vanishes the log contribution is zero anyway
    ratio = theta / np.maximum(sines, 1e-300)
    X = (AW * ratio[..., None, :]) @ np.swapaxes(W, -1, -2)
    return 0.5 * (X - np.swapaxes(X, -1, -2))


def minimal_rotation_logs(R: np.ndarray, tol: float = 1e-8) -> list[np.ndarray]:
    """All minimal-norm logs of ``R``.

    Off the cut locus this is the singleton principal log.  With exactly one
    angle-pi plane there are two minimal logs (the two orientations of that
    plane).  Two or more pi-planes give a continuum, which is refused.
    """
    theta, sines, W, AW = angle_frame(R)
    at_pi = theta > math.pi - tol
    if not at_pi.any():
        return [rotation_log(R, tol)]
    if int(at_pi.sum()) != 2:
        raise CutLocusError("multiple angle-pi planes: continuum of minimal logs")
    ratio = theta / np.maximum(sines, 1e-300)
    ratio[at_pi] = 0.0
    base = (AW * ratio) @ W.T
    base = 0.5 * (base - base.T)
    wa, wb = W[:, at_pi].T
    plane = math.pi * (np.outer(wa, wb) - np.outer(wb, wa))
    return [base + plane, base - plane]


def rotation_exp(X: np.ndarray) -> np.ndarray:
    """Matrix exponential of a skew matrix ``X``, landing in SO(m)."""
    X = np.asarray(X, dtype=float)
    mu, W = np.linalg.eigh(X @ X.T)
    theta = np.sqrt(np.clip(mu, 0.0, None))
    cos_part = (W * np.cos(theta)) @ W.T
    sinc_part = X @ (W * np.sinc(theta / math.pi)) @ W.T
    return cos_part + sinc_part
