"""Shared test helpers: independent oracles and samplers.

The oracles here deliberately avoid the library's solver paths: the Jacobi
eigensolver is a from-scratch implementation, grid minimization touches only
exp and the objective under test, and curve lengths integrate the metric
directly.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from riemmean import spd
from riemmean.errors import CutLocusError
from riemmean.manifolds import Manifold, Point, Tangent

# C3's bound on the barycenter residual of a converged mean
BARYCENTER_TOL = 1e-9
# agreement of two kernels that round differently, on well-conditioned values
PARITY_TOL = 1e-12


@pytest.fixture(autouse=True)
def cold_eig_cache():
    """Every test starts with an empty `spd.eig_canonical` cache, so no
    test's validation path depends on what an earlier test decomposed."""
    spd._eig_canonical.cache_clear()


def rng_for(tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[0x7357, tag]))


def jacobi_eig(S: np.ndarray, off_tol: float = 1e-13, max_sweeps: int = 100):
    """Cyclic Jacobi eigensolver for small symmetric matrices (oracle,
    independent of LAPACK).  Returns (V, eigenvalues descending), det V = +1.
    """
    A = np.array(S, dtype=float)
    n = A.shape[0]
    V = np.eye(n)
    for _ in range(max_sweeps):
        off = math.sqrt(2.0 * sum(A[p, q] ** 2 for p in range(n) for q in range(p + 1, n)))
        if off < off_tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) < 1e-300:
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * A[p, q])
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(tau * tau + 1.0))
                if tau == 0.0:
                    t = 1.0
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                G = np.eye(n)
                G[p, p] = G[q, q] = c
                G[p, q] = s
                G[q, p] = -s
                A = G.T @ A @ G
                V = V @ G
    lam = np.diag(A).copy()
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    V = V[:, order]
    if np.linalg.det(V) < 0.0:
        V[:, -1] = -V[:, -1]
    return V, lam


def fibonacci_sphere(count: int) -> np.ndarray:
    """Roughly equal-area lattice on S^2 for global grid scans."""
    i = np.arange(count) + 0.5
    z = 1.0 - 2.0 * i / count
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, 1.0))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    phi = golden * i
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def sphere_grid_argmin(sphere, f, coarse: int = 4000, target: float = 1e-7) -> Point:
    """Dense-grid minimizer of ``f`` on S^2: global lattice scan followed by
    shrinking tangent-plane grids.  Uses only ``exp`` and ``f``."""
    lattice = fibonacci_sphere(coarse)
    values = [f(sphere.point(x)) for x in lattice]
    best = sphere.point(lattice[int(np.argmin(values))])
    width = 2.0 * math.sqrt(4.0 * math.pi / coarse)
    while width > target:
        e1, e2 = sphere.tangent_basis(best)
        offsets = np.linspace(-width, width, 13)
        cand_best = best
        val_best = f(best)
        for a in offsets:
            for b in offsets:
                cand = sphere.exp(best, Tangent(best, a * e1.vec + b * e2.vec))
                val = f(cand)
                if val < val_best:
                    val_best = val
                    cand_best = cand
        best = cand_best
        width /= 3.0
    return best


def curve_length(manifold: Manifold, curve, steps: int = 4000) -> float:
    """Length of a curve [0,1] -> M via midpoint quadrature of the metric
    speed; ambient derivatives by central differences, projected to the
    tangent space."""
    h = 1e-6
    total = 0.0
    for i in range(steps):
        t = (i + 0.5) / steps
        forward = curve(min(t + h, 1.0)).coords
        backward = curve(max(t - h, 0.0)).coords
        dt_used = min(t + h, 1.0) - max(t - h, 0.0)
        deriv = (forward - backward) / dt_used
        at = curve(t)
        vec = manifold.project(at, deriv)
        total += math.sqrt(max(manifold._inner(at.coords, vec, vec), 0.0)) / steps
    return total


def sample_ball(manifold: Manifold, center: Point, radius: float, rng) -> Point:
    """Random point within the geodesic ball (uniform radius factor)."""
    ambient = rng.standard_normal(center.coords.shape)
    vec = manifold.project(center, ambient)
    norm = math.sqrt(max(manifold._inner(center.coords, vec, vec), 0.0))
    return manifold.exp(
        center, Tangent(center, vec * (radius * rng.random() / max(norm, 1e-300)))
    )


def random_tangent(manifold: Manifold, p: Point, rng, scale: float = 1.0) -> Tangent:
    ambient = rng.standard_normal(p.coords.shape)
    vec = manifold.project(p, ambient)
    norm = math.sqrt(max(manifold._inner(p.coords, vec, vec), 0.0))
    return Tangent(p, vec * (scale / max(norm, 1e-300)))


def sphere_angles_with_einsum(p, stack):
    """The sphere's angle block as first written: ``stack @ p`` and the row
    norms as ``sqrt(einsum)``; returns the angles and the off-``p`` rows."""
    c = stack @ p
    w = stack - c[:, None] * p
    wn = np.sqrt(np.einsum("ij,ij->i", w, w))
    return np.arctan2(wn, c), w


def sphere_log_mean_with_einsum(p, stack, tol):
    """The sphere's ``_log_mean`` over `sphere_angles_with_einsum`."""
    theta, w = sphere_angles_with_einsum(p, stack)
    if float(theta.max()) > math.pi - tol:
        raise CutLocusError("antipodal points: sphere log undefined")
    ratio = theta / np.maximum(np.sin(theta), 1e-300)
    n = len(theta)
    return ratio.dot(w) / n, float(theta.dot(theta)) / n


def sphere_log_condition(theta) -> float:
    """The largest theta / sin(theta) over the angles, at least 1: the
    condition number of the sphere's log near the antipode, where a
    last-bit change of the data moves the log by that factor."""
    theta = np.asarray(theta, dtype=float)
    return max(1.0, float(np.max(theta / np.maximum(np.sin(theta), 1e-300))))


def manifold_zoo():
    from riemmean.manifolds import DiagPos, Euclidean, Product, Sphere, SpecialOrthogonal

    return [
        Euclidean(3),
        Sphere(2),
        SpecialOrthogonal(3, 1.0),
        DiagPos(3),
        Product([SpecialOrthogonal(3, 1.0), DiagPos(3)]),
    ]
