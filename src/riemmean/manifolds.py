"""Concrete complete Riemannian manifolds with exp / log / dist / inner
product / cut-locus predicates and metric constants.

Supported kinds and their coordinate conventions:

* ``Euclidean(n)``       -- vectors in R^n.
* ``Sphere(n)``          -- the unit n-sphere, as unit vectors in R^(n+1).
* ``SpecialOrthogonal(m, k)`` -- SO(m) as m x m matrices, with the scaled
  bi-invariant metric ``k * g_so`` where ``g_so(X, Y) = tr(X.T Y) / 2`` on
  skew matrices.  This scale is pinned by the constants it must reproduce:
  injectivity radius ``sqrt(k) * pi`` and curvature bound ``1 / (4k)``.
* ``DiagPos(m)``         -- positive diagonal matrices, stored as the m
  diagonal entries, with the log-Euclidean (flat) metric
  ``<u, v>_d = sum u_i v_i / d_i**2``, i.e. isometric to R^m via entrywise
  log.  Flat (curvature 0), infinite injectivity radius.
* ``Product(...)``       -- finite products, coordinates concatenated.

Points and tangents are thin immutable wrappers around ndarray coordinates;
a point carries the id string of its owning manifold so mismatched inputs
are caught early.  Every operation is a pure function; manifold descriptors
are immutable after construction.  Coordinates must be finite: a NaN or
infinite entry is refused where a point or tangent is wrapped.

Each kind writes its per-point kernels ``_exp``, ``_log``, ``_dist`` and
``_inner``, and two batched kernels over a stack of points of shape
``(K,) + shape``:

* ``_dist_block(p, stack)`` -- the K distances from ``p``;
* ``_karcher_step(p, stack, tol)`` -- the one mean-log pass: the mean of
  the K logs at ``p``, their mean squared norm (the mean squared
  distance) and the Karcher descent's step direction, formed without the
  individual rows.  The step is the mean log itself, except on SO(3),
  whose constant curvature gives the Newton step in closed form, and on
  products, which join their factors' steps.

`_log` raises `CutLocusError` when ``q`` is within ``tol`` of the cut locus
of ``p``: that refusal is the one cut-locus rule, and ``_karcher_step``
refuses iff some row's `_log` does.  Each kind writes ``_karcher_step`` and
``_dist_block``; `Manifold` derives ``_log_mean``, ``_norm``, the cut-locus
predicate and the log block:

* ``_log_mean(p, stack, tol)`` -- ``_karcher_step`` without its step;
* ``_norm(p, v)`` -- the root of ``_inner(p, v, v)``, read by every
  gradient norm and barycenter residual;
* ``_in_cut_locus(p, q, tol)`` -- True iff `_log` refuses ``q``;
* ``_log_block(p, stack, tol)`` -- the `_log` rows (stacked like the input)
  with their squared norms under `_inner`, refusing iff some row does, so
  its rows are the per-point logs by construction;
* ``_dist_form(stack)`` / ``_form_dists(p, form)`` -- ``_dist_block`` split
  in two, so that a stack measured many times (an orbit scan's, a
  certificate's) is put in the kind's form once: the array itself, except
  on the row kinds below, whose form is the stack's rows.

The Karcher descent carries its point, data and direction in the kind's
own form, coordinate arrays in the base class: ``_descent_form(p, stack)``
gives ``(point, data)``, ``_descent_step(point, data, tol)`` gives
``(direction, mean_sq, grad_norm)`` (``_karcher_step`` and the norm of its
mean log) and ``_descent_move(point, s, direction)`` steps to
``exp(point, s * direction)``.

The base class builds every kind's tangent basis, products included, by
Gram-Schmidt under ``_inner`` on the ``_project`` of the embedding's
standard basis.

The solvers need only means, so the gradient field and the barycenter check
call ``_log_mean``, and the Karcher descent states ``_descent_step``; no
solver calls ``_log_block``.
Every minimum over a group orbit and the concentration certificate call
``_dist_block``.  SO(m) forms all relative rotations of a stack with one
broadcast matmul and reads their angles in closed form for m <= 3, where
each turns a single plane, or from one batched ``eigh`` for m >= 4 (its
per-point ``_log`` and ``_dist`` are blocks of one); its mean log is one
matmul of ``p`` with the mean skew log.
Products slice the stack's column ranges into factor blocks, and join the
factor means and add the factor objectives.  This is the leading-batch-axis
vectorization of Geomstats (Miolane et al., JMLR 2020).

Kinds whose stacks are a few short rows run on Python floats, where
numpy's per-call overhead costs more than the arithmetic: S^2 (a C9 descent
state is a 5 x 3 stack), SO(2), and products of such kinds (the m = 2 PSR
cover SO(2) x Diag+(2), with orbit scans of 40 rows).  Each writes the
float row routines of `_RowKind`, which derives from them, once, the array
kernels and a descent form of flat float tuples; its gradient norm keeps
the rounding of the kind's `_inner`, so the float descent forms the array
descent's states bit for bit.  ``Sphere(2)``, ``SpecialOrthogonal(2, k)``
and every product whose factors all have rows (``_float_rows``) are built
as its subclasses `_S2`, `_SO2` and `_RowProduct`, so no kernel tests
which form it runs in.  DiagPos has rows but keeps its numpy kernels,
since the m = 3 cover's 240-row scans run faster on them: its rows are the
one deliberate second path.  Other spheres, SO(m >= 3) and other products
keep numpy kernels; there a sphere block takes each row norm with one
``np.hypot.reduce``, so its rows agree with the per-point values within
rounding, not bit for bit.  Every sphere scales the log's ``w`` by
``theta / |w|``.
"""

from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .core import (
    INF,
    MetricConstants,
    rotation_exp,
    rotation_log,
    rotation_norm,
)
from .errors import CutLocusError, InvalidInputError

POINT_TOL = 1e-10
CUT_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Point:
    """A manifold point: owning-manifold id plus embedding coordinates."""

    manifold_id: str
    coords: np.ndarray


@dataclass(frozen=True, eq=False)
class Tangent:
    """A tangent vector anchored at a base point, in embedding coordinates."""

    base: Point
    vec: np.ndarray


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


def _join(parts: list[np.ndarray]) -> np.ndarray:
    # factor arrays (kernel results are float already) into one flat vector
    return np.concatenate([p.ravel() for p in parts])


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{what} has a non-finite entry")


class Manifold:
    """Common interface; concrete kinds fill in the geometry."""

    manifold_id: str
    constants: MetricConstants
    dim: int
    is_compact: bool
    # shape of one point's coordinates
    shape: tuple[int, ...]
    # True on the kinds with float row routines (`_RowKind`, DiagPos):
    # `_rows`, `_row_log_mean`, `_row_dists` and `_row_exp`, which a
    # `_RowProduct` composes
    _float_rows = False

    # -- wrapping / validation ------------------------------------------------

    def point(self, coords) -> Point:
        """Validate ``coords`` against the manifold's defining constraints
        (within 1e-10) and wrap them."""
        coords = np.asarray(coords, dtype=float)
        _check_finite(coords, "point")
        self._check_coords(coords)
        return Point(self.manifold_id, _frozen(coords))

    def tangent(self, base: Point, vec) -> Tangent:
        """Validate tangency of ``vec`` at ``base`` (within 1e-10) and wrap."""
        self._own(base)
        vec = np.asarray(vec, dtype=float)
        _check_finite(vec, "tangent vector")
        if vec.shape != base.coords.shape:
            raise InvalidInputError(
                f"tangent shape {vec.shape} != point shape {base.coords.shape}"
            )
        self._check_tangent(base, vec)
        return Tangent(base, _frozen(vec))

    def zero_tangent(self, base: Point) -> Tangent:
        self._own(base)
        return Tangent(base, _frozen(np.zeros_like(base.coords)))

    def _own(self, p: Point) -> None:
        if p.manifold_id != self.manifold_id:
            raise InvalidInputError(
                f"point belongs to {p.manifold_id!r}, not {self.manifold_id!r}"
            )

    def _same_base(self, p: Point, v: Tangent) -> None:
        self._own(p)
        if v.base is p:
            return
        self._own(v.base)
        if not np.allclose(v.base.coords, p.coords, rtol=0.0, atol=1e-12):
            raise InvalidInputError("tangent vector is based at a different point")

    def _check_coords(self, coords: np.ndarray) -> None:
        raise NotImplementedError

    def _check_tangent(self, base: Point, vec: np.ndarray) -> None:
        raise NotImplementedError

    # -- geometry -------------------------------------------------------------

    def exp(self, p: Point, v: Tangent) -> Point:
        """Geodesic endpoint ``gamma_v(1)`` starting at ``p``."""
        self._same_base(p, v)
        return Point(self.manifold_id, _frozen(self._exp(p.coords, v.vec)))

    def log(self, p: Point, q: Point, tol: float = CUT_TOL) -> Tangent:
        """Minimal tangent ``v`` with ``exp(p, v) == q`` and
        ``norm(v) == dist(p, q)``.  Raises `CutLocusError` when ``q`` is
        within ``tol`` of the cut locus of ``p``."""
        self._own(p)
        self._own(q)
        return Tangent(p, _frozen(self._log(p.coords, q.coords, tol)))

    def dist(self, p: Point, q: Point) -> float:
        """Geodesic distance; defined everywhere, including the cut locus."""
        self._own(p)
        self._own(q)
        return self._dist(p.coords, q.coords)

    def inner(self, p: Point, u: Tangent, v: Tangent) -> float:
        """Riemannian inner product of two tangent vectors at ``p``."""
        self._same_base(p, u)
        self._same_base(p, v)
        return self._inner(p.coords, u.vec, v.vec)

    def norm(self, p: Point, v: Tangent) -> float:
        self._same_base(p, v)
        return self._norm(p.coords, v.vec)

    def in_cut_locus(self, p: Point, q: Point, tol: float = CUT_TOL) -> bool:
        """True iff ``q`` is within ``tol`` of the cut locus of ``p``, that
        is iff ``log(p, q, tol)`` raises `CutLocusError`."""
        self._own(p)
        self._own(q)
        return self._in_cut_locus(p.coords, q.coords, tol)

    def project(self, p: Point, ambient) -> np.ndarray:
        """Orthogonal projection of an ambient perturbation onto the tangent
        space at ``p`` (coordinates only)."""
        self._own(p)
        return self._project(p.coords, np.asarray(ambient, dtype=float))

    def tangent_basis(self, p: Point) -> list[Tangent]:
        """Orthonormal tangent basis at ``p``: Gram-Schmidt (in the
        Riemannian inner product) on projected ambient basis vectors, in a
        deterministic order."""
        self._own(p)
        basis: list[np.ndarray] = []
        for ambient in self._ambient_basis():
            cand = self._project(p.coords, ambient)
            for b in basis:
                cand = cand - self._inner(p.coords, cand, b) * b
            sq = self._inner(p.coords, cand, cand)
            if sq > 1e-20:
                basis.append(cand / math.sqrt(sq))
            if len(basis) == self.dim:
                break
        if len(basis) != self.dim:
            raise InvalidInputError("failed to build a full tangent basis")
        return [Tangent(p, _frozen(b)) for b in basis]

    def random_point(self, rng: np.random.Generator) -> Point:
        return Point(self.manifold_id, _frozen(self._random_coords(rng)))

    # -- kind-specific kernels (coordinates in, coordinates out) --------------

    def _exp(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _log(self, p: np.ndarray, q: np.ndarray, tol: float) -> np.ndarray:
        raise NotImplementedError

    def _dist(self, p: np.ndarray, q: np.ndarray) -> float:
        raise NotImplementedError

    def _karcher_step(self, p: np.ndarray, stack: np.ndarray, tol: float):
        """``(step, mean_sq, mean_log)``: the mean of the logs at ``p`` of
        the rows of ``stack`` (shaped like ``p``) and the mean of their
        squared norms, formed in one pass without the rows, and the Karcher
        descent's step direction, a tangent at ``p``.  The step is the mean
        log itself (the same object), the exact Newton step of
        ``mean_sq / 2`` on the flat kinds, except on a kind with a
        closed-form Hessian.  Refuses iff some row's `_log` does."""
        raise NotImplementedError

    def _descent_form(self, p: np.ndarray, stack: np.ndarray):
        """``(point, data)``: ``p`` and ``stack`` in the Karcher descent's
        form, here the coordinate arrays themselves."""
        return p, stack

    def _descent_step(self, p, data, tol: float):
        """``(direction, mean_sq, grad_norm)`` at a descent-form point:
        `_karcher_step` and the norm of its mean log."""
        step, mean_sq, mean = self._karcher_step(p, data, tol)
        return step, mean_sq, self._norm(p, mean)

    def _descent_move(self, p, s: float, direction):
        """The descent-form point ``exp(p, s * direction)``."""
        return self._exp(p, s * direction)

    def _dist_block(self, p: np.ndarray, stack: np.ndarray) -> np.ndarray:
        """Distances from ``p`` to every row of ``stack``."""
        raise NotImplementedError

    def _dist_form(self, stack: np.ndarray):
        """``stack`` in the form `_form_dists` reads, built once for many
        distance passes (an orbit scan's stack): here the array itself."""
        return stack

    def _form_dists(self, p: np.ndarray, form):
        """Distances from ``p`` to every row of a `_dist_form`: here
        `_dist_block`."""
        return self._dist_block(p, form)

    def _inner(self, p: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
        raise NotImplementedError

    def _project(self, p: np.ndarray, ambient: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _ambient_basis(self) -> np.ndarray:
        """The standard basis of the embedding, one coordinate array of
        shape ``shape`` per entry, in row-major order: `tangent_basis`
        projects and orthonormalizes it."""
        return np.eye(math.prod(self.shape)).reshape((-1,) + self.shape)

    def _random_coords(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    # -- derived from `_karcher_step` and `_inner` -----------------------------

    def _log_mean(self, p: np.ndarray, stack: np.ndarray, tol: float):
        """``(mean_log, mean_sq)``: `_karcher_step` without its step."""
        _, mean_sq, mean = self._karcher_step(p, stack, tol)
        return mean, mean_sq

    def _norm(self, p: np.ndarray, v: np.ndarray) -> float:
        """The norm of the tangent ``v`` at ``p``, the square root of
        `_inner`: every gradient norm and barycenter residual reads it."""
        return math.sqrt(max(self._inner(p, v, v), 0.0))

    # -- derived from `_log`, the one cut-locus rule of every kind ------------

    def _in_cut_locus(self, p: np.ndarray, q: np.ndarray, tol: float) -> bool:
        """True iff `_log` refuses ``q`` at ``p`` with margin ``tol``."""
        try:
            self._log(p, q, tol)
        except CutLocusError:
            return True
        return False

    def _log_block(self, p: np.ndarray, stack: np.ndarray, tol: float):
        """Logs at ``p`` of every row of ``stack`` (same shape as ``stack``)
        and their squared norms: the per-point `_log` rows, so the block
        raises `CutLocusError` iff some row's log does."""
        vecs = np.stack([self._log(p, q, tol) for q in stack])
        return vecs, np.array([self._inner(p, v, v) for v in vecs])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.manifold_id!r})"


class _RowKind(Manifold):
    """A kind whose kernels run on float row routines, on flat float
    sequences:

    * ``_rows(stack)`` -- the stack's rows in float form, built once;
    * ``_row_log_mean(p, rows, tol)`` -- ``(mean_log, mean_sq)``, refusing
      as `_log` does;
    * ``_row_dists(p, rows)`` -- the distances, as an iterable of floats;
    * ``_row_exp(p, s, v)`` -- ``exp_p(s v)``, with ``s v`` formed entry by
      entry first, as the array descent's ``s * direction``.

    The array kernels below wrap them, once for every row kind; the kind
    writes the four routines and its per-point `_log`, `_dist` and
    `_inner`."""

    _float_rows = True

    def _row_norm(self, p, v):
        """`_norm` of the flat tangent ``v`` at ``p``, read on arrays, as the
        array descent and `barycenter_check` take it."""
        return self._norm(np.array(p).reshape(self.shape), np.array(v).reshape(self.shape))

    def _exp(self, p, v):
        return np.array(self._row_exp(p.ravel().tolist(), 1.0, v.ravel().tolist())).reshape(p.shape)

    def _karcher_step(self, p, stack, tol):
        mean, mean_sq = self._row_log_mean(p.ravel().tolist(), self._rows(stack), tol)
        mean = np.array(mean).reshape(p.shape)
        return mean, mean_sq, mean

    def _dist_block(self, p, stack):
        return self._form_dists(p, self._rows(stack))

    def _dist_form(self, stack):
        return self._rows(stack)

    def _form_dists(self, p, form):
        return np.fromiter(self._row_dists(p.ravel().tolist(), form), float)

    def _descent_form(self, p, stack):
        return tuple(p.ravel().tolist()), self._rows(stack)

    def _descent_step(self, p, data, tol):
        mean, mean_sq = self._row_log_mean(p, data, tol)
        return mean, mean_sq, self._row_norm(p, mean)

    def _descent_move(self, p, s, direction):
        return self._row_exp(p, s, direction)


class Euclidean(Manifold):
    """Flat R^n."""

    def __init__(self, n: int):
        if n < 1:
            raise InvalidInputError("Euclidean dimension must be >= 1")
        self.n = n
        self.dim = n
        self.shape = (n,)
        self.is_compact = False
        self.manifold_id = f"euclidean:{n}"
        self.constants = MetricConstants.from_bounds(INF, 0.0)

    def _check_coords(self, coords):
        if coords.shape != (self.n,):
            raise InvalidInputError(f"expected shape ({self.n},), got {coords.shape}")

    def _check_tangent(self, base, vec):
        pass

    def _exp(self, p, v):
        return p + v

    def _log(self, p, q, tol):
        return q - p

    def _dist(self, p, q):
        return float(np.linalg.norm(q - p))

    def _inner(self, p, u, v):
        return float(np.dot(u, v))

    def _project(self, p, ambient):
        return ambient

    def _random_coords(self, rng):
        return rng.standard_normal(self.n)

    def _karcher_step(self, p, stack, tol):
        vecs = stack - p
        n = len(vecs)
        mean = vecs.sum(axis=0) / n
        return mean, float(np.vdot(vecs, vecs)) / n, mean

    def _dist_block(self, p, stack):
        return np.linalg.norm(stack - p, axis=1)


def _log_scale(theta: float, h: float) -> float:
    """The sphere log's factor on ``w``: ``theta / |w|`` for ``h = |w|``, and 0
    below 1e-16, where ``w`` is rounding and the log is zero (or where
    ``w`` is zero).  ``|w|`` is ``sin(theta)`` up to the rounding of the
    unit norms, but read off ``w`` it keeps its relative accuracy near the
    antipode, where ``sin(theta)`` taken of the rounded ``theta`` loses it
    (``theta``'s ulp, 4.4e-16, over ``sin(theta)``): the log's norm is
    ``theta`` within rounding at every distance."""
    return 0.0 if theta < 1e-16 or h == 0.0 else theta / h


class Sphere(Manifold):
    """Unit n-sphere in R^(n+1).

    Closed forms: ``exp_p(v) = cos|v| p + sin|v| v/|v|``; the log of ``q`` at
    ``p`` points along the projection ``w = q - <p, q> p`` of ``q`` off
    ``p`` with length ``theta = atan2(|w|, <p, q>)``.  The cut locus of
    ``p`` is the antipode ``-p``.

    ``Sphere(2)`` is built as `_S2`, on Python floats.  Other n use numpy
    and the array descent form: the per-point kernels clamp the cosine and
    read ``sqrt(w.dot(w))``, the blocks take each row norm with one
    ``np.hypot.reduce``, so there block rows and per-point values may
    differ in the last bits.  Every n scales ``w`` by ``theta / |w|``
    (`_log_scale`), so the log's norm is the distance near the antipode.
    """

    def __new__(cls, n=None):
        return super().__new__(_S2 if cls is Sphere and n == 2 else cls)

    def __init__(self, n: int):
        if n < 1:
            raise InvalidInputError("sphere dimension must be >= 1")
        self.n = n
        self.dim = n
        self.shape = (n + 1,)
        self.is_compact = True
        self.manifold_id = f"sphere:{n}"
        self.constants = MetricConstants.from_bounds(math.pi, 1.0)

    def _check_coords(self, coords):
        if coords.shape != (self.n + 1,):
            raise InvalidInputError(
                f"expected shape ({self.n + 1},), got {coords.shape}"
            )
        if abs(np.linalg.norm(coords) - 1.0) > POINT_TOL:
            raise InvalidInputError("sphere point is not a unit vector")

    def _check_tangent(self, base, vec):
        if abs(np.dot(base.coords, vec)) > POINT_TOL * max(1.0, np.linalg.norm(vec)):
            raise InvalidInputError("vector is not tangent to the sphere")

    def _exp(self, p, v):
        theta = math.sqrt(v.dot(v))
        sinc = 1.0 if theta < 1e-12 else math.sin(theta) / theta
        out = math.cos(theta) * p + sinc * v
        return out / math.sqrt(out.dot(out))

    def _log(self, p, q, tol):
        c = max(-1.0, min(1.0, float(p.dot(q))))
        w = q - c * p
        h = math.sqrt(w.dot(w))
        theta = math.atan2(h, c)
        if theta > math.pi - tol:
            raise CutLocusError("antipodal points: sphere log undefined")
        return _log_scale(theta, h) * w

    def _dist(self, p, q):
        c = max(-1.0, min(1.0, float(p.dot(q))))
        w = q - c * p
        return math.atan2(math.sqrt(w.dot(w)), c)

    def _inner(self, p, u, v):
        return float(u.dot(v))

    def _project(self, p, ambient):
        return ambient - np.dot(p, ambient) * p

    def _random_coords(self, rng):
        v = rng.standard_normal(self.n + 1)
        return v / np.linalg.norm(v)

    def _angles_block(self, p, stack):
        # the angles, the norms |w| of the off-p rows w, and the rows
        c = stack.dot(p)
        w = stack - np.multiply.outer(c, p)
        h = np.hypot.reduce(w, axis=1)
        return np.arctan2(h, c), h, w

    def _karcher_step(self, p, stack, tol):
        theta, h, w = self._angles_block(p, stack)
        # the ufunc reduction itself, without ndarray.max's Python wrapper
        if np.maximum.reduce(theta) > math.pi - tol:
            raise CutLocusError("antipodal points: sphere log undefined")
        # theta / |w|, the factor of `_log_scale`; where w is 0 so is theta
        ratio = theta / np.maximum(h, 1e-300)
        n = len(theta)
        # ndarray.dot is the same product as @ (bit for bit) with less
        # per-call overhead on these few rows
        mean = ratio.dot(w) / n
        return mean, float(theta.dot(theta)) / n, mean

    def _dist_block(self, p, stack):
        return self._angles_block(p, stack)[0]


class _S2(_RowKind, Sphere):
    """S^2 on Python floats: a point or tangent is a float triple, a row of
    data its coordinates.  The per-point `_log` and `_dist` and the row
    routines write the same row arithmetic out (a call per row would cost
    about as much as the row): the angle ``theta = atan2(|w|, c)`` for
    ``c = <p, q>`` and ``w = q - c p``, refused when ``theta > pi - tol``,
    so a block's rows are the per-point values bit for bit."""

    def _log(self, p, q, tol):
        p0, p1, p2 = p.tolist()
        q0, q1, q2 = q.tolist()
        c = p0 * q0 + p1 * q1 + p2 * q2
        w0 = q0 - c * p0
        w1 = q1 - c * p1
        w2 = q2 - c * p2
        h = math.hypot(w0, w1, w2)
        theta = math.atan2(h, c)
        if theta > math.pi - tol:
            raise CutLocusError("antipodal points: sphere log undefined")
        r = _log_scale(theta, h)
        return np.array([r * w0, r * w1, r * w2])

    def _dist(self, p, q):
        return self._row_dists(p.tolist(), (q.tolist(),))[0]

    def _rows(self, stack):
        return stack.tolist()

    def _row_log_mean(self, p, rows, tol):
        p0, p1, p2 = p
        s0 = s1 = s2 = sq = 0.0
        edge = math.pi - tol
        for q0, q1, q2 in rows:
            c = p0 * q0 + p1 * q1 + p2 * q2
            w0 = q0 - c * p0
            w1 = q1 - c * p1
            w2 = q2 - c * p2
            h = math.hypot(w0, w1, w2)
            theta = math.atan2(h, c)
            if theta > edge:
                raise CutLocusError("antipodal points: sphere log undefined")
            # `_log_scale`, inline
            r = 0.0 if theta < 1e-16 or h == 0.0 else theta / h
            s0 += r * w0
            s1 += r * w1
            s2 += r * w2
            sq += theta * theta
        n = len(rows)
        return (s0 / n, s1 / n, s2 / n), sq / n

    def _row_dists(self, p, rows):
        p0, p1, p2 = p
        out = []
        for q0, q1, q2 in rows:
            c = p0 * q0 + p1 * q1 + p2 * q2
            out.append(math.atan2(math.hypot(q0 - c * p0, q1 - c * p1, q2 - c * p2), c))
        return out

    def _row_exp(self, p, s, v):
        p0, p1, p2 = p
        v0, v1, v2 = v
        v0, v1, v2 = s * v0, s * v1, s * v2
        theta = math.hypot(v0, v1, v2)
        sinc = 1.0 if theta < 1e-12 else math.sin(theta) / theta
        cos = math.cos(theta)
        o0 = cos * p0 + sinc * v0
        o1 = cos * p1 + sinc * v1
        o2 = cos * p2 + sinc * v2
        norm = math.hypot(o0, o1, o2)
        return o0 / norm, o1 / norm, o2 / norm

    def _row_norm(self, p, v):
        # numpy's dot, as `_inner` takes it: a sum of the squares in Python
        # floats rounds differently
        v = np.array(v)
        return math.sqrt(max(float(v.dot(v)), 0.0))


# flat indices of the entries (2, 1), (0, 2) and (1, 0) of a 3 x 3 matrix:
# the vector x of a skew matrix hat(x), so that hat(x) y = x cross y
_HAT_ENTRIES = np.array([7, 2, 3])


def _so2_part(p00, p01, p10, p11):
    """The rotation part ``(a, b)`` of a 2 x 2 matrix, ``[[a, -b], [b, a]]``
    its nearest multiple of a rotation: the means of its diagonal and of
    its skew entries.  On a matrix of that form it is exact, and the
    relative angle of `_so2_angles` then rounds as the 4-entry form
    ``c = tr(p^T q) / 2``, ``s = ((p^T q)_10 - (p^T q)_01) / 2`` does."""
    return 0.5 * (p00 + p11), 0.5 * (p10 - p01)


def _so2_angles(p, rows):
    """The one SO(2) row routine: the signed angle of the relative rotation
    ``p^T q`` for every ``q`` of ``rows``, all points as rotation parts
    (`_so2_part`).  Its cosine ``c = a_p a_q + b_p b_q`` and sine
    ``s = a_p b_q - b_p a_q`` are symmetric and antisymmetric in ``p`` and
    ``q`` term by term, so distances are exactly symmetric."""
    pa, pb = p
    atan2, copysign = math.atan2, math.copysign
    return [
        copysign(atan2(abs(s), pa * a + pb * b), s)
        for a, b in rows
        for s in (pa * b - pb * a,)
    ]


class SpecialOrthogonal(Manifold):
    """SO(m) with the scaled bi-invariant metric ``k * g_so``,
    ``g_so(X, Y) = tr(X.T Y) / 2``.

    Geodesics through ``U`` are ``t -> U expm(t U.T V)``; distances are
    ``sqrt(k)`` times the root-sum-square of the principal rotation angles of
    ``U.T Q``.  The cut locus of ``U`` consists of rotations whose relative
    angle reaches pi in some plane.

    For m <= 3 a rotation turns a single plane, and the kernels use its
    closed forms (`core.plane_angle`, Rodrigues' exp): the distance is
    ``sqrt(k) * theta`` and the log the skew part scaled to norm ``theta``.
    For m >= 4 they read the planes off a batched ``eigh``
    (`core.angle_frame`).  Either way `_log` refuses a relative angle
    within ``tol / sqrt(k)`` of pi, and the base class reads the cut-locus
    predicate off that refusal.

    ``SpecialOrthogonal(2, k)`` is built as `_SO2`, on Python floats.
    """

    def __new__(cls, m=None, k=1.0):
        return super().__new__(_SO2 if cls is SpecialOrthogonal and m == 2 else cls)

    def __init__(self, m: int, k: float = 1.0):
        if m < 2:
            raise InvalidInputError("SO(m) needs m >= 2")
        if not (math.isfinite(k) and k > 0):
            raise InvalidInputError(f"metric scale k must be finite and > 0, got {k}")
        self.m = m
        self.k = float(k)
        self.dim = m * (m - 1) // 2
        self.shape = (m, m)
        self.is_compact = True
        self.manifold_id = f"so:{m}:k={self.k!r}"
        sqrt_k = math.sqrt(self.k)
        self.constants = MetricConstants.from_bounds(sqrt_k * math.pi, 0.25 / self.k)
        self._newton_eye = _frozen(1.5 * np.eye(m))
        self._sqrt_k = sqrt_k

    def _check_coords(self, coords):
        if coords.shape != (self.m, self.m):
            raise InvalidInputError(
                f"expected shape ({self.m}, {self.m}), got {coords.shape}"
            )
        if np.max(np.abs(coords.T @ coords - np.eye(self.m))) > POINT_TOL:
            raise InvalidInputError("matrix is not orthogonal within tolerance")
        if np.linalg.det(coords) < 0.0:
            raise InvalidInputError("matrix has determinant -1, not in SO(m)")

    def _check_tangent(self, base, vec):
        X = base.coords.T @ vec
        if np.max(np.abs(X + X.T)) > POINT_TOL * max(1.0, np.max(np.abs(X))):
            raise InvalidInputError("U.T V is not skew-symmetric")

    def _exp(self, p, v):
        R = p @ rotation_exp(p.T @ v)
        # one Newton orthogonality step; exact no-op on orthogonal input
        return R @ (self._newton_eye - 0.5 * (R.T @ R))

    # a single point is a stack of one: `_relative` reshapes to (K, m, m)
    def _log(self, p, q, tol):
        return (p @ self._skew_logs(p, q, tol)).reshape(q.shape)

    def _dist(self, p, q):
        return float(self._dist_block(p, q)[0])

    def _inner(self, p, u, v):
        X = p.T @ u
        # a squared norm forms its one product once
        Y = X if v is u else p.T @ v
        return self.k * 0.5 * float(np.vdot(X, Y))

    def _project(self, p, ambient):
        X = p.T @ ambient
        return p @ (0.5 * (X - X.T))

    def _random_coords(self, rng):
        Q, R = np.linalg.qr(rng.standard_normal((self.m, self.m)))
        Q = Q * np.sign(np.diag(R))
        if np.linalg.det(Q) < 0.0:
            Q[:, -1] = -Q[:, -1]
        return Q

    def _relative(self, p, stack):
        # p.T @ Q_k for every Q_k of the stack, as one (K, m, m) array
        return p.T @ stack.reshape(-1, self.m, self.m)

    def _skew_logs(self, p, stack, tol):
        # the skew logs X_k of the relative rotations p.T @ Q_k, shape
        # (K, m, m): the log of Q_k at p is p @ X_k, of squared norm
        # k/2 |X_k|^2.  The margin tol is a distance, so the angle margin
        # is tol / sqrt(k)
        return rotation_log(self._relative(p, stack), tol / math.sqrt(self.k))

    def _karcher_step(self, p, stack, tol):
        """The mean log ``p @ mean(X_i)`` of the skew logs ``X_i``, and as
        the step the mean log itself, except on SO(3): there the Newton
        step of ``mean_sq / 2``.  Other m keep the mean log, since SO(m)
        for m >= 4 is not of constant curvature.

        SO(3) under ``k * g_so`` has constant curvature ``1 / (4k)``.  Write
        the skew logs as ``X_i = hat(x_i)``, with angles ``a_i = |x_i|``
        (the distance is ``sqrt(k) a_i``) and axes ``u_i = x_i / a_i``.  In
        these body coordinates the Hessian of ``d(., q_i)^2 / 2`` is
        ``u_i u_i^T + c_i (I - u_i u_i^T)`` with
        ``c_i = (a_i / 2) cot(a_i / 2)`` (1 at a_i = 0), as on every space
        of constant curvature (Absil, Mahony & Sepulchre 2008, ch. 6); k
        cancels.  For a_i < pi, where `_log` does not refuse, every c_i > 0,
        so the mean Hessian H is positive definite, and the step
        ``p hat(d)`` with ``H d = mean(x_i)`` descends.
        """
        X = self._skew_logs(p, stack, tol)
        n = len(X)
        mean_sq = self.k * 0.5 * float(np.vdot(X, X)) / n
        if self.m != 3:
            mean = p @ (X.sum(axis=0) / n)
            return mean, mean_sq, mean
        total = X.sum(axis=0)
        # the axis vectors x_i of the X_i = hat(x_i), and their angles
        x = X.reshape(n, 9).take(_HAT_ENTRIES, axis=1)
        a = np.hypot.reduce(x, axis=1)
        # c_i = (a_i / 2) cot(a_i / 2); the floor makes it 1 at a_i = 0
        half = np.maximum(0.5 * a, 1e-300)
        c = half / np.tan(half)
        # n H = sum_i c_i I + (1 - c_i) x_i x_i^T / a_i^2, solved against
        # n mean(x_i)
        H = (x.T * ((1.0 - c) / np.maximum(a * a, 1e-300))) @ x
        H.flat[::4] += c.sum()
        d0, d1, d2 = np.linalg.solve(H, total.reshape(9).take(_HAT_ENTRIES)).tolist()
        step = np.array([[0.0, -d2, d1], [d2, 0.0, -d0], [-d1, d0, 0.0]])
        return p @ step, mean_sq, p @ (total / n)

    def _dist_block(self, p, stack):
        return self._sqrt_k * rotation_norm(self._relative(p, stack))


class _SO2(_RowKind, SpecialOrthogonal):
    """SO(2) on Python floats: a point or tangent is its 4 entries, a row of
    data its rotation part (`_so2_part`).  `_so2_angles` gives the signed
    relative angle ``t`` of each row, so the distance is ``sqrt(k) |t|``
    and the log ``p (t J)``; `_row_exp` turns ``p`` by the angle of the
    tangent.  The per-point `_log` is the mean log of one row, `_dist` a
    block of one."""

    def _log(self, p, q, tol):
        return self._log_mean(p, q, tol)[0]

    def _rows(self, stack):
        # `_so2_part` of every row at once (the same float operations)
        q = stack.reshape(-1, 4)
        return list(zip((0.5 * (q[:, 0] + q[:, 3])).tolist(), (0.5 * (q[:, 2] - q[:, 1])).tolist()))

    def _row_log_mean(self, p, rows, tol):
        # refuses a relative angle within tol / sqrt(k) of pi, as `_log` does
        angles = _so2_angles(_so2_part(*p), rows)
        edge = math.pi - tol / self._sqrt_k
        total = sq = 0.0
        for t in angles:
            if abs(t) > edge:
                raise CutLocusError("rotation has an angle-pi block; log is not unique")
            total += t
            sq += t * t
        n = len(angles)
        t = total / n
        # p @ (t J), J the unit generator [[0, -1], [1, 0]]; |t J|^2 = 2 t^2
        p00, p01, p10, p11 = p
        return [t * p01, -t * p00, t * p11, -t * p10], self.k * sq / n

    def _row_dists(self, p, rows):
        return map(self._sqrt_k.__mul__, map(abs, _so2_angles(_so2_part(*p), rows)))

    def _row_exp(self, p, s, v):
        # ``p rot(t)`` for the angle ``t`` of ``s v`` at ``p`` (the skew
        # part of ``p^T s v``), with ``p`` read as its rotation part
        # ``[[a, -b], [b, a]]`` and the result scaled to a unit column, so
        # chained moves do not drift off SO(2)
        p00, p01, p10, p11 = p
        v00, v01, v10, v11 = v
        v00, v01, v10, v11 = s * v00, s * v01, s * v10, s * v11
        t = 0.5 * ((p01 * v00 + p11 * v10) - (p00 * v01 + p10 * v11))
        cos, sin = math.cos(t), math.sin(t)
        a = 0.5 * (p00 + p11)
        b = 0.5 * (p10 - p01)
        x = a * cos - b * sin
        y = b * cos + a * sin
        h = math.hypot(x, y)
        x /= h
        y /= h
        return [x, -y, y, x]


class DiagPos(Manifold):
    """Positive diagonal matrices with the log-Euclidean metric; flat and
    complete (isometric to R^m via entrywise log).

    The kernels run on numpy, and the float rows (``_rows`` and the
    ``_row_*`` routines: the entries' logs, taken once per stack with
    ``math.log``) serve `_RowProduct`.  That second path is
    deliberate: on the m = 3 cover's 240-row orbit scans the numpy
    distances took 15 us, floats 192 us, and floats with the logs prebuilt
    59 us (2-vCPU shared VM), while on the m = 2 cover's short stacks
    floats win.
    """

    def __init__(self, m: int):
        if m < 1:
            raise InvalidInputError("DiagPos needs m >= 1")
        self.m = m
        self.dim = m
        self.shape = (m,)
        self.is_compact = False
        self.manifold_id = f"diagpos:{m}"
        self.constants = MetricConstants.from_bounds(INF, 0.0)

    def _check_coords(self, coords):
        if coords.shape != (self.m,):
            raise InvalidInputError(f"expected shape ({self.m},), got {coords.shape}")
        if np.min(coords) <= 0.0:
            raise InvalidInputError("diagonal entries must be strictly positive")

    def _check_tangent(self, base, vec):
        pass

    def _exp(self, p, v):
        return p * np.exp(v / p)

    def _log(self, p, q, tol):
        return p * np.log(q / p)

    def _dist(self, p, q):
        return float(np.linalg.norm(np.log(q) - np.log(p)))

    def _inner(self, p, u, v):
        # ndarray.sum is np.sum's reduction without its Python wrapper
        return float((u * v / (p * p)).sum())

    def _project(self, p, ambient):
        return ambient

    def _random_coords(self, rng):
        return np.exp(rng.standard_normal(self.m))

    def _log_diff(self, p, stack):
        # entrywise log differences: row k's log is p * diff[k] and its
        # squared norm |diff[k]|^2
        return np.log(stack) - np.log(p)

    def _karcher_step(self, p, stack, tol):
        diff = self._log_diff(p, stack)
        n = len(diff)
        mean = p * (diff.sum(axis=0) / n)
        return mean, float(np.vdot(diff, diff)) / n, mean

    def _dist_block(self, p, stack):
        return np.linalg.norm(self._log_diff(p, stack), axis=1)

    # -- float rows: a point or tangent is its m entries, a row of data the
    # tuple of its entries' logs --------------------------------------------

    _float_rows = True

    def _rows(self, stack):
        logs = list(map(math.log, stack.ravel().tolist()))
        m = self.m
        return list(zip(*[logs[i::m] for i in range(m)]))

    def _row_log_mean(self, p, rows, tol):
        mean = []
        sq = 0.0
        n = len(rows)
        for x, col in zip(p, zip(*rows)):
            lx = math.log(x)
            total = 0.0
            for r in col:
                d = r - lx
                total += d
                sq += d * d
            mean.append(x * (total / n))
        return mean, sq / n

    def _row_dists(self, p, rows):
        return map(math.dist, rows, itertools.repeat(tuple(map(math.log, p))))

    def _row_exp(self, p, s, v):
        return [x * math.exp(s * u / x) for x, u in zip(p, v)]


class Product(Manifold):
    """Finite product manifold; coordinates are the concatenated (raveled)
    factor coordinates and all operations act factorwise.

    Stored curvature bound: the max of the factor bounds, floored at 0 when
    any factor is at least 2-dimensional (mixed planes are flat) -- a
    conservative upper bound, which is all `rcx_from_constants` needs.

    A product whose factors all have float rows is built as `_RowProduct`.
    """

    def __new__(cls, factors=()):
        # no factors (unpickling): the class itself
        rows = cls is Product and factors and all(f._float_rows for f in factors)
        return super().__new__(_RowProduct if rows else cls)

    def __init__(self, factors: list[Manifold]):
        if len(factors) < 2:
            raise InvalidInputError("a product needs at least two factors")
        if any(isinstance(f, Product) for f in factors):
            raise InvalidInputError("nested products are not supported")
        self.factors = list(factors)
        self.dim = sum(f.dim for f in factors)
        self.is_compact = all(f.is_compact for f in factors)
        self.manifold_id = "product(" + ";".join(f.manifold_id for f in factors) + ")"
        self._shapes = [f.shape for f in factors]
        ends = np.cumsum([math.prod(s) for s in self._shapes]).tolist()
        self._bounds = list(zip([0] + ends[:-1], ends))
        self._slices = [slice(a, b) for a, b in self._bounds]
        self.shape = (ends[-1],)
        r_inj = min(f.constants.r_inj for f in factors)
        deltas = [f.constants.delta_sup for f in factors]
        delta = max(deltas)
        if any(f.dim >= 2 for f in factors):
            delta = max(delta, 0.0)
        self.constants = MetricConstants.from_bounds(r_inj, delta)

    def _split_block(self, stack: np.ndarray) -> list[np.ndarray]:
        """Factor blocks of a ``(K, D)`` stack: the column range of each
        factor, shaped ``(K,) + factor shape`` (views, no copies)."""
        k = len(stack)
        return [
            stack[:, sl].reshape((k,) + shape)
            for sl, shape in zip(self._slices, self._shapes)
        ]

    def split(self, flat: np.ndarray) -> list[np.ndarray]:
        return [flat[sl].reshape(shape) for sl, shape in zip(self._slices, self._shapes)]

    def join(self, parts: list[np.ndarray]) -> np.ndarray:
        return _join([np.asarray(p, dtype=float) for p in parts])

    def _check_coords(self, coords):
        if coords.shape != self.shape:
            raise InvalidInputError(
                f"expected flat shape {self.shape}, got {coords.shape}"
            )
        for f, part in zip(self.factors, self.split(coords)):
            f._check_coords(part)

    def _check_tangent(self, base, vec):
        for f, p_part, v_part in zip(
            self.factors, self.split(base.coords), self.split(vec)
        ):
            f._check_tangent(Point(f.manifold_id, p_part), v_part)

    def _exp(self, p, v):
        return _join(
            [f._exp(pp, vv) for f, pp, vv in zip(self.factors, self.split(p), self.split(v))]
        )

    def _log(self, p, q, tol):
        return _join(
            [f._log(pp, qq, tol) for f, pp, qq in zip(self.factors, self.split(p), self.split(q))]
        )

    def _dist(self, p, q):
        return math.sqrt(
            sum(
                f._dist(pp, qq) ** 2
                for f, pp, qq in zip(self.factors, self.split(p), self.split(q))
            )
        )

    def _karcher_step(self, p, stack, tol):
        # the factors' steps joined; where every factor steps along its mean
        # log, the joined mean is the step, joined once
        steps, means = [], []
        mean_sq = 0.0
        for f, pp, block in zip(self.factors, self.split(p), self._split_block(stack)):
            step, sq, mean = f._karcher_step(pp, block, tol)
            steps.append(step)
            means.append(mean)
            mean_sq += sq
        joined = _join(means)
        if all(s is m for s, m in zip(steps, means)):
            return joined, mean_sq, joined
        return _join(steps), mean_sq, joined

    def _dist_block(self, p, stack):
        sq = 0.0
        for f, pp, block in zip(self.factors, self.split(p), self._split_block(stack)):
            sq = sq + np.square(f._dist_block(pp, block))
        return np.sqrt(sq)

    def _inner(self, p, u, v):
        total = 0
        for f, sl, shape in zip(self.factors, self._slices, self._shapes):
            uu = u[sl].reshape(shape)
            # a squared norm passes one factor block twice (see SO's `_inner`)
            vv = uu if v is u else v[sl].reshape(shape)
            total += f._inner(p[sl].reshape(shape), uu, vv)
        return total

    def _project(self, p, ambient):
        return _join(
            [
                f._project(pp, aa)
                for f, pp, aa in zip(self.factors, self.split(p), self.split(ambient))
            ]
        )

    def _random_coords(self, rng):
        return _join([f._random_coords(rng) for f in self.factors])


class _RowProduct(_RowKind, Product):
    """A product of row kinds on Python floats: a point or tangent is a flat
    float sequence, a stack its factors' rows, and each row routine reads
    the factors' on their slices.  Distances are ``hypot`` of the factor
    distances.  The per-point `_log` and `_dist` stay factor-wise on the
    arrays (DiagPos's row log rounds differently from its `_log`)."""

    def _rows(self, stack):
        return [f._rows(block) for f, block in zip(self.factors, self._split_block(stack))]

    def _row_log_mean(self, p, rows, tol):
        mean = []
        mean_sq = 0.0
        for f, (a, b), part_rows in zip(self.factors, self._bounds, rows):
            part, sq = f._row_log_mean(p[a:b], part_rows, tol)
            mean += part
            mean_sq += sq
        return mean, mean_sq

    def _row_dists(self, p, rows):
        return map(math.hypot, *[
            f._row_dists(p[a:b], part_rows)
            for f, (a, b), part_rows in zip(self.factors, self._bounds, rows)
        ])

    def _row_exp(self, p, s, v):
        out = []
        for f, (a, b) in zip(self.factors, self._bounds):
            out += f._row_exp(p[a:b], s, v[a:b])
        return out


def parse_manifold(spec: str) -> Manifold:
    """Parse a manifold descriptor.

    Grammar: ``euclidean:<n>``, ``sphere:<n>``, ``so:<m>:k=<k>`` (``:k=`` part
    optional, default 1), ``diagpos:<m>``, ``product(<spec>;<spec>;...)``.
    """
    spec = spec.strip()
    if spec.startswith("product(") and spec.endswith(")"):
        inner = spec[len("product(") : -1]
        parts = [s for s in inner.split(";") if s.strip()]
        if len(parts) < 2:
            raise InvalidInputError(f"product needs >= 2 factors: {spec!r}")
        return Product([parse_manifold(s) for s in parts])
    fields = spec.split(":")
    kind = fields[0]
    try:
        if kind == "euclidean" and len(fields) == 2:
            return Euclidean(int(fields[1]))
        if kind == "sphere" and len(fields) == 2:
            return Sphere(int(fields[1]))
        if kind == "diagpos" and len(fields) == 2:
            return DiagPos(int(fields[1]))
        if kind == "so" and len(fields) in (2, 3):
            k = 1.0
            if len(fields) == 3:
                if not fields[2].startswith("k="):
                    raise InvalidInputError(f"bad SO(m) scale field {fields[2]!r}")
                k = float(fields[2][2:])
            return SpecialOrthogonal(int(fields[1]), k)
    except ValueError as exc:
        raise InvalidInputError(f"bad manifold spec {spec!r}: {exc}") from exc
    raise InvalidInputError(f"unrecognized manifold spec {spec!r}")


SEED_CACHE_SIZE = 16
_SEED_CACHE: dict[tuple[str, int], tuple[Point, ...]] = {}


def quasi_random_points(manifold: Manifold, count: int) -> list[Point]:
    """Deterministic pseudo-random points for multistart seeding; the stream
    depends only on the manifold id.  Built once per ``(manifold id, count)``
    (the last `SEED_CACHE_SIZE` pairs are kept) and shared: points are
    immutable."""
    key = (manifold.manifold_id, count)
    points = _SEED_CACHE.get(key)
    if points is None:
        crc = zlib.crc32(manifold.manifold_id.encode())
        rng = np.random.Generator(np.random.Philox(key=[0x5EED0000 + crc, 0]))
        points = tuple(manifold.random_point(rng) for _ in range(count))
        if len(_SEED_CACHE) >= SEED_CACHE_SIZE:
            del _SEED_CACHE[next(iter(_SEED_CACHE))]
        _SEED_CACHE[key] = points
    return list(points)

