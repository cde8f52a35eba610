"""Finite isometric group actions on a covering manifold, quotient
distances, equivariant Frechet means, and even-covering lifts.

A finite group G acting freely and isometrically on a complete cover M~
determines a quotient manifold M = M~/G whose distance is the orbit
distance ``d(p, q) = min_h d~(p_rep, h . q_rep)``.  Minimizing the
orbit-distance objective upstairs ("equivariant Frechet means") is
equivalent to taking Frechet means downstairs: the minimizer set is a full
G-orbit projecting onto the downstairs mean set.  Inside balls of radius
below the quotient injectivity radius ``min(r_inj(M~), beta/2)`` the
covering is even and configurations lift canonically into each sheet.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CutLocusError,
    InvalidInputError,
    LiftAmbiguousError,
    MaxIterExceededError,
    NoConvergenceError,
    RadiusTooLargeError,
)
from .frechet import Configuration, karcher_descent
from .manifolds import Manifold, Point, Sphere, _frozen

BETA_SAMPLES = 100_000
FIBER_TOL = 1e-9


@dataclass(frozen=True)
class GroupElement:
    index: int
    label: str

    def __repr__(self) -> str:
        return f"GroupElement({self.index}, {self.label!r})"


@dataclass(frozen=True)
class QuotientPoint:
    """A point of the quotient M~/G, held as a representative on the cover.

    Two quotient points are equal iff some group element maps one
    representative to the other (within `FIBER_TOL`); use
    `FiniteAction.same_fiber` to test this.
    """

    representative: Point

    def orbit_stack(self, action: "FiniteAction") -> np.ndarray:
        """The representative's orbit under ``action``, stacked in element
        order and read-only.  Built once per action and kept on the point,
        as `Configuration.coord_stack` keeps its stack: both are immutable."""
        stacks = getattr(self, "_orbit_stacks", None)
        if stacks is None:
            stacks = {}
            object.__setattr__(self, "_orbit_stacks", stacks)
        stack = stacks.get(action)
        if stack is None:
            stack = stacks[action] = _frozen(action.orbit_stack(self.representative))
        return stack


@dataclass(frozen=True)
class BetaEstimate:
    """Minimal displacement ``inf dist(p, h . p)`` over nonidentity h."""

    value: float
    exact: bool


@dataclass(frozen=True)
class QuotientConstants:
    r_inj: float
    r_cx: float
    beta: BetaEstimate


@dataclass(frozen=True)
class EfmResult:
    """Outcome of `efm_solve`.  ``objective``, ``alignment`` and
    ``aligned_lifts`` come from the orbit scan at the minimizer, the one
    that repeated the alignment it was solved with; ``inner_iterations``
    sums the accepted iterations of the inner Karcher solves.
    ``outer_iterations`` counts the Karcher solves plus one confirming
    pass: re-solving the repeated alignment from its own minimizer takes 0
    steps and rescans to the same result, so that pass is read off the
    state already held."""

    orbit: list[Point]
    downstairs_mean: QuotientPoint
    objective: float
    aligned_lifts: list[Point]
    alignment: list[GroupElement]
    outer_iterations: int
    inner_iterations: int


class FiniteAction:
    """A finite group acting isometrically and freely on a cover manifold.

    ``apply_fn`` maps ``(element_index, Point) -> Point``; ``compose_table``
    and ``inverse_table`` encode the group law on element indices, with the
    identity at index 0.  ``displacement_floor`` may supply, per element, an
    exact value of ``inf_p dist(p, h . p)``; when the infimum of the
    variable part is 0 (as for the built-in actions) this makes the group's
    minimal displacement exactly computable.
    """

    def __init__(
        self,
        cover: Manifold,
        labels: Sequence[str],
        apply_fn: Callable[[int, Point], Point],
        compose_table: np.ndarray,
        inverse_table: np.ndarray,
        displacement_floor: Sequence[float] | None = None,
    ):
        if len(labels) < 2:
            raise InvalidInputError("a group action needs at least two elements")
        self.cover = cover
        self.elements = [GroupElement(i, lab) for i, lab in enumerate(labels)]
        self._apply = apply_fn
        self.compose_table = np.asarray(compose_table, dtype=int)
        self.inverse_table = np.asarray(inverse_table, dtype=int)
        n = len(self.elements)
        if self.compose_table.shape != (n, n) or self.inverse_table.shape != (n,):
            raise InvalidInputError("group tables have the wrong shape")
        if not (
            np.array_equal(self.compose_table[0], np.arange(n))
            and np.array_equal(self.compose_table[:, 0], np.arange(n))
        ):
            raise InvalidInputError("identity must sit at index 0")
        for i in range(n):
            if self.compose_table[i, self.inverse_table[i]] != 0:
                raise InvalidInputError("inverse table inconsistent with composition")
        self.displacement_floor = (
            None if displacement_floor is None else [float(x) for x in displacement_floor]
        )

    @property
    def identity(self) -> GroupElement:
        return self.elements[0]

    @property
    def order(self) -> int:
        return len(self.elements)

    def apply(self, h: GroupElement, p: Point) -> Point:
        self.cover._own(p)
        return self._apply(h.index, p)

    def compose(self, h1: GroupElement, h2: GroupElement) -> GroupElement:
        return self.elements[self.compose_table[h1.index, h2.index]]

    def inverse(self, h: GroupElement) -> GroupElement:
        return self.elements[self.inverse_table[h.index]]

    def orbit(self, p: Point) -> list[Point]:
        return [self.apply(h, p) for h in self.elements]

    def orbit_stack(self, p: Point) -> np.ndarray:
        """Coordinates of the orbit of ``p``, stacked in element order:
        shape ``(order,) + cover.shape``."""
        return np.stack([q.coords for q in self.orbit(p)])

    def orbit_dist(self, p: Point, target: Point) -> float:
        """``min_h dist(h . p, target)``: one batched distance call over the
        orbit of ``p``."""
        self.cover._own(target)
        return float(self.cover._dist_block(target.coords, self.orbit_stack(p)).min())

    def same_fiber(self, p: Point, q: Point, tol: float = FIBER_TOL) -> bool:
        return self.orbit_dist(p, q) <= tol


def beta(
    action: FiniteAction,
    samples: int = BETA_SAMPLES,
    rng: np.random.Generator | None = None,
) -> BetaEstimate:
    """Minimal displacement of the action over all points and nonidentity
    elements.

    Exact when per-element displacement floors are declared; otherwise a
    sampled estimate over ``samples`` random cover points, flagged
    approximate.
    """
    if action.displacement_floor is not None:
        return BetaEstimate(min(action.displacement_floor[1:]), exact=True)
    if rng is None:
        key = zlib.crc32(action.cover.manifold_id.encode())
        rng = np.random.Generator(np.random.Philox(key=[0xBE7A0000 + key, 0]))
    cover = action.cover
    best = math.inf
    for _ in range(samples):
        p = cover.random_point(rng)
        moved = action.orbit_stack(p)[1:]
        best = min(best, float(cover._dist_block(p.coords, moved).min()))
    return BetaEstimate(best, exact=False)


def quotient_dist(action: FiniteAction, a: QuotientPoint, b: QuotientPoint) -> float:
    """Quotient distance: min over the group of cover distances between
    representatives.  Independent of the representatives chosen."""
    return action.orbit_dist(b.representative, a.representative)


def d_evt(action: FiniteAction, q: QuotientPoint, p_tilde: Point) -> float:
    """Hybrid distance from the fiber of ``q`` to a cover point.

    Equals ``quotient_dist(q, class of p_tilde)`` because the covering is a
    local isometry and orbits project to points.
    """
    return action.orbit_dist(q.representative, p_tilde)


def efm_objective(
    action: FiniteAction, Q: Sequence[QuotientPoint], p_tilde: Point
) -> float:
    """Mean squared orbit distance; G-invariant in ``p_tilde``."""
    return float(np.mean([d_evt(action, q, p_tilde) ** 2 for q in Q]))


def _scan_orbits(cover, orbits, coords):
    """For each orbit of the ``(N, order) + cover.shape`` stack, the index of
    the member nearest to ``coords`` (lowest index on ties) and its distance:
    one batched distance call over all N * order members."""
    n, order = orbits.shape[:2]
    d = cover._dist_block(coords, orbits.reshape((n * order,) + orbits.shape[2:]))
    d = d.reshape(n, order)
    indices = d.argmin(axis=1)
    return indices.tolist(), d[np.arange(n), indices]


def efm_solve(
    action: FiniteAction,
    Q: Sequence[QuotientPoint],
    max_outer: int = 500,
    inner_tol: float = 1e-11,
    init: Point | None = None,
) -> EfmResult:
    """Minimize the orbit-distance objective by alternating alignment and a
    Karcher-mean step on the cover.

    Each outer iteration solves the Karcher mean of the lifts its alignment
    picks, starting from the current point, and rescans the orbits at the
    minimizer (`_scan_orbits`).  The solve stops at the scan that returns
    the alignment just solved with: the next iteration would re-solve the
    same lifts from their own minimizer, take 0 steps and repeat the scan,
    so its objective decrease is exactly 0.  That confirming pass is counted
    in ``outer_iterations`` but not run.  A non-finite objective is never
    confirmed, so it ends in `NoConvergenceError`.  The objective is
    nonincreasing across outer iterations.  Returns one
    minimizer together with its full orbit; the orbit projects to a single
    quotient point, the downstairs mean.

    ``inner_tol`` is the Karcher gradient tolerance; it must be finite and
    positive.

    Each orbit scan serves twice: it gives the objective at its minimizer
    and the alignment of the next solve.  The initial point keeps the scan
    it was chosen by, so a solve makes ``outer_iterations - 1 + N`` scans
    (``outer_iterations`` with ``init``) and ``outer_iterations - 1``
    Karcher solves.  Each sample's orbit stack is built once per action
    (`QuotientPoint.orbit_stack`) and the lifts are read-only views of it.
    """
    if not (math.isfinite(inner_tol) and inner_tol > 0.0):
        raise InvalidInputError(f"inner_tol must be finite and positive, got {inner_tol}")
    Q = list(Q)
    if not Q:
        raise InvalidInputError("need at least one quotient point")
    cover = action.cover
    orbits = np.stack([q.orbit_stack(action) for q in Q])
    orbits.flags.writeable = False

    def lift_points(idx):
        return [Point(cover.manifold_id, orbits[i, j]) for i, j in enumerate(idx)]

    def scan(coords):
        idx, dists = _scan_orbits(cover, orbits, coords)
        return idx, float(np.mean(np.square(dists)))

    if init is None:
        # min keeps the first of equal objectives, the lowest sample index
        p, (idx, f) = min(
            ((q.representative, scan(q.representative.coords)) for q in Q),
            key=lambda entry: entry[1][1],
        )
    else:
        p, (idx, f) = init, scan(init.coords)
    alignment: list[int] | None = None
    inner_done = 0
    for outer in range(1, max_outer + 1):
        if idx == alignment and math.isfinite(f):
            break
        alignment = idx
        try:
            step = karcher_descent(
                Configuration(cover, tuple(lift_points(alignment))), p,
                tol=inner_tol, certify=False,
            )
        except (CutLocusError, MaxIterExceededError) as exc:
            raise NoConvergenceError(f"inner Karcher solve failed: {exc}") from exc
        inner_done += step.iterations
        p = step.minimizer
        idx, f = scan(p.coords)
    else:
        raise NoConvergenceError(f"no convergence in {max_outer} outer iterations")
    return EfmResult(
        orbit=action.orbit(p),
        downstairs_mean=QuotientPoint(p),
        objective=f,
        aligned_lifts=lift_points(idx),
        alignment=[action.elements[i] for i in idx],
        outer_iterations=outer,
        inner_iterations=inner_done,
    )


def radius_relations(action: FiniteAction) -> QuotientConstants:
    """Injectivity and convexity-type radii of the quotient:
    ``r_inj(M) = min(r_inj(M~), beta/2)`` and
    ``r_cx(M) = min(r_cx(M~), beta/4)``."""
    b = beta(action)
    cover = action.cover
    return QuotientConstants(
        r_inj=min(cover.constants.r_inj, b.value / 2.0),
        r_cx=min(cover.constants.r_cx, b.value / 4.0),
        beta=b,
    )


def even_cover_lifts(
    action: FiniteAction,
    center: QuotientPoint,
    r: float,
    Q: Sequence[QuotientPoint],
) -> dict[GroupElement, Configuration]:
    """Lift a configuration supported in the downstairs ball of radius ``r``
    around ``center`` into each sheet of the even covering.

    The sheet labeled by the identity is the ball around the given
    representative; sheet ``h`` is its image under ``h``.  The returned
    family satisfies ``h1 . lifts[h2] == lifts[h1 h2]`` by construction.
    """
    rel = radius_relations(action)
    if r >= rel.r_inj:
        raise RadiusTooLargeError(
            f"radius {r} >= quotient injectivity radius {rel.r_inj}"
        )
    cover = action.cover
    base_center = center.representative
    cover._own(base_center)
    base_lifts: list[Point] = []
    for q in Q:
        orbit = action.orbit_stack(q.representative)
        hits = np.flatnonzero(cover._dist_block(base_center.coords, orbit) < r)
        if not len(hits):
            raise InvalidInputError(
                "configuration point lies outside the sampling ball"
            )
        if len(hits) > 1:
            raise LiftAmbiguousError(
                "two fiber points inside one covering ball: radius and "
                "displacement data are inconsistent"
            )
        base_lifts.append(Point(cover.manifold_id, _frozen(orbit[hits[0]])))
    return {
        h: Configuration(cover, tuple(action.apply(h, pt) for pt in base_lifts))
        for h in action.elements
    }


def antipodal_action(sphere: Sphere) -> FiniteAction:
    """The two-element antipodal action on a sphere (quotient: real
    projective space).  Displacement is constantly pi."""

    def apply_fn(index: int, p: Point) -> Point:
        if index == 0:
            return p
        return Point(p.manifold_id, _frozen(-p.coords))

    return FiniteAction(
        cover=sphere,
        labels=["e", "antipode"],
        apply_fn=apply_fn,
        compose_table=np.array([[0, 1], [1, 0]]),
        inverse_table=np.array([0, 1]),
        displacement_floor=[0.0, math.pi],
    )
