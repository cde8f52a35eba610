"""Frechet objective, Karcher descent, balance-point (barycenter) checks,
concentration certificate, and one-sided derivatives of squared distance.

For a configuration ``Q = (q_1, ..., q_N)`` the objective is

    f_Q(p) = (1/N) * sum_i dist(p, q_i)**2,

whose negative gradient field is ``2 * Y_Q`` with
``Y_Q(p) = (1/N) * sum_i log_p(q_i)`` (so ``grad f_Q = -2 Y_Q``; the zero
sets coincide, and the factor 2 is asserted by the finite-difference tests).
Critical points of ``f_Q`` away from cut loci are exactly the points whose
tangent lifts of the data average to zero ("short barycenters").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .core import minimal_rotation_logs
from .errors import (
    CutLocusError,
    InvalidInputError,
    MaxIterExceededError,
    NoConvergenceError,
    UnsupportedManifoldError,
)
from .manifolds import (
    CUT_TOL,
    DiagPos,
    Euclidean,
    Manifold,
    Point,
    Product,
    Sphere,
    SpecialOrthogonal,
    Tangent,
    _frozen,
    quasi_random_points,
    _RowProduct,
    _S2,
    _SO2,
)

DEFAULT_TOL = 1e-10
# numerical choices, not paper quantities: the descent's first trial step and
# iteration cap, and the certificate's round-off slack below r_cx
STEP = 1.0
MAX_ITER = 10000
AFSARI_MARGIN = 1e-9
MULTISTART_EXTRA = 20

SHORT = "short"
ALMOST_SHORT = "almost_short"
BOUNDARY_UNCLASSIFIED = "boundary_unclassified"


@dataclass(frozen=True)
class Configuration:
    """Ordered N-tuple of points on one manifold."""

    manifold: Manifold
    points: tuple[Point, ...]

    def __post_init__(self):
        if len(self.points) < 1:
            raise InvalidInputError("a configuration needs at least one point")
        for p in self.points:
            self.manifold._own(p)
        object.__setattr__(self, "points", tuple(self.points))

    @property
    def size(self) -> int:
        return len(self.points)

    @cached_property
    def coord_stack(self) -> np.ndarray:
        """Data coordinates stacked along axis 0 (cached)."""
        return np.stack([p.coords for p in self.points])


@dataclass(frozen=True)
class MeanResult:
    """Outcome of a Karcher solve.

    From `karcher_descent`, the numeric fields come from the descent's
    final state: ``objective`` and ``grad_norm`` are its last objective
    and gradient norm, ``barycenter_residual`` equals ``grad_norm`` (the
    balance residual is the gradient norm at the minimizer), and
    ``classification`` is `SHORT` because the last log pass succeeded, so
    every data point lies inside ``CUT_TOL``, as `barycenter_check` of the
    minimizer finds bit for bit; ``afsari_certified`` is False.
    `frechet_mean` reports its chosen run's fields, except ``objective``,
    the per-point ``objective(Q, minimizer)`` it ranks the runs by, and
    ``afsari_certified``, which is `afsari_certified` of the data.
    """

    minimizer: Point
    objective: float
    grad_norm: float
    iterations: int
    multistart_agreement: bool
    afsari_certified: bool
    barycenter_residual: float
    classification: str


@dataclass(frozen=True)
class Certificate:
    """Outcome of `afsari_certificate`.

    ``certified`` is True iff a ball of radius below ``r_cx - AFSARI_MARGIN``
    contains the configuration; ``center`` and ``radius`` are then that
    witness ball.  When False, they are the smallest ball the search
    reached: the best data point and its farthest distance if the curvature
    lower bound (`_enclosing_radius_bound`) ruled out every witness ball
    before the refinement started, else the refinement's best iterate.
    """

    certified: bool
    center: Point | None
    radius: float


def objective(Q: Configuration, p: Point) -> float:
    """Mean squared geodesic distance from ``p`` to the configuration."""
    m = Q.manifold
    m._own(p)
    return float(np.mean([m._dist(p.coords, q.coords) ** 2 for q in Q.points]))


def gradient_field(Q: Configuration, p: Point) -> Tangent:
    """``Y_Q(p)``, the mean of the logs of the data at ``p``.

    Raises `CutLocusError` when some data point is within ``CUT_TOL`` of the
    cut locus of ``p`` (the objective is not smooth there).
    """
    m = Q.manifold
    m._own(p)
    mean, _ = m._log_mean(p.coords, Q.coord_stack, CUT_TOL)
    return Tangent(p, _frozen(mean))


def _descent_state(m: Manifold, data, coords):
    """The descent state at ``coords``: step direction, objective and
    gradient norm, from the kind's `_descent_step` over ``data``.

    ``coords``, ``data`` and the direction are in the kind's descent form
    (`Manifold._descent_form`): coordinate arrays, except on the row kinds
    (S^2, SO(2) and their products, the m = 2 PSR cover among them), where
    they are flat float sequences and the data's rows (`manifolds._RowKind`).
    One pass of the kind's `_karcher_step` arithmetic over the data forms
    all three.
    Off cut loci ``dist == |log|``, so the objective is the mean squared log
    norm, and the gradient norm is the norm of ``Y_Q``, the mean of the
    data's logs.  The step direction is ``Y_Q`` itself, the exact Newton
    step of the flat kinds, except on SO(3), whose constant curvature gives
    the Newton step in closed form (`SpecialOrthogonal._karcher_step`).
    Raises `CutLocusError` when some data point is within ``CUT_TOL`` of
    the cut locus of ``coords``.
    """
    return m._descent_step(coords, data, CUT_TOL)


def _check_descent_settings(tol) -> None:
    """Refuse a non-finite or non-positive ``tol`` before any work."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidInputError(f"tol must be finite and positive, got {tol}")


def karcher_descent(Q: Configuration, p0: Point, tol: float = DEFAULT_TOL) -> MeanResult:
    """Descent ``p <- exp(p, s * d(p))`` from ``s = STEP``, halving ``s``
    whenever the objective fails to decrease.  The direction ``d`` is the
    kind's `_karcher_step` (see `_descent_state`): the mean log ``Y_Q(p)``,
    a gradient step, on every kind but SO(3), where it is the Newton step.

    Returns once the gradient norm ``|Y_Q|`` drops below ``tol``.  The
    objective is nonincreasing across accepted steps up to a 1e-14 relative
    slack (near the floating-point floor of the objective, genuine decreases
    are smaller than one ulp; the slack lets the iteration keep contracting
    as the classical fixed-point map instead of stalling).  Raises
    `CutLocusError` when an iterate runs into a cut locus of some data point
    and backtracking cannot recover, and `MaxIterExceededError` after
    ``MAX_ITER`` iterations.

    The loop carries the point, the data and the direction in the kind's
    descent form (`Manifold._descent_form`; flat float sequences on the row
    kinds), steps with `Manifold._descent_move`, and freezes the
    minimizer's coordinates once, at exit, in the manifold's shape.  The
    result is read off the final descent state, with no further pass over
    the data: ``objective`` is its objective, ``grad_norm`` and
    ``barycenter_residual`` its gradient norm, and ``classification`` is
    `SHORT` (that state's log pass found every data point inside the
    ``CUT_TOL`` margin).  ``afsari_certified`` is False, since one run
    certifies nothing; `frechet_mean` sets it from the data.

    A bad ``tol`` (see `_check_descent_settings`) raises `InvalidInputError`.
    """
    _check_descent_settings(tol)
    m = Q.manifold
    m._own(p0)
    coords, data = m._descent_form(p0.coords, Q.coord_stack)
    direction, f, g = _descent_state(m, data, coords)
    iterations = 0
    while True:
        if g < tol:
            break
        if iterations >= MAX_ITER:
            raise MaxIterExceededError(
                f"no convergence in {MAX_ITER} iterations (grad norm {g:.3e})"
            )
        slack = 1e-14 * max(1.0, abs(f))
        s = STEP
        accepted = False
        cut_blocked = False
        while s > 1e-17:
            cand = m._descent_move(coords, s, direction)
            try:
                cand_dir, cand_f, cand_g = _descent_state(m, data, cand)
            except CutLocusError:
                cut_blocked = True
                s *= 0.5
                continue
            if cand_f <= f + slack:
                coords, direction, f, g = cand, cand_dir, cand_f, cand_g
                iterations += 1
                accepted = True
                break
            s *= 0.5
        if not accepted:
            if cut_blocked:
                raise CutLocusError("descent step blocked by a cut locus")
            raise MaxIterExceededError(
                f"backtracking stalled at grad norm {g:.3e}"
            )
    return MeanResult(
        minimizer=Point(m.manifold_id, _frozen(coords).reshape(m.shape)),
        objective=f,
        grad_norm=g,
        iterations=iterations,
        multistart_agreement=True,
        afsari_certified=False,
        barycenter_residual=g,
        classification=SHORT,
    )


def _lex_key(p: Point) -> tuple:
    return tuple(p.coords.ravel())


def frechet_mean(Q: Configuration, tol: float = DEFAULT_TOL) -> MeanResult:
    """Multistart Karcher descent.

    Seeds are the N data points plus, on compact manifolds, 20 deterministic
    pseudo-random points.  Runs are ranked by ``objective(Q, minimizer)``,
    evaluated once per converged run, and the lowest wins;
    ``multistart_agreement`` is True iff all converged runs landed within
    ``10 * tol`` of one another.  Among distinct minimizers with objectives
    within ``10 * tol`` of the best, the lexicographically smallest
    coordinate vector is reported.  The reported ``objective`` is that
    ranking value.  ``grad_norm``, ``barycenter_residual`` (equal to it),
    ``classification`` (`SHORT`) and ``iterations`` are the chosen run's,
    read off its final descent state, whose log pass is the one
    ``barycenter_check(Q, minimizer)`` makes.  ``afsari_certified`` comes
    from one `afsari_certified` of the data.  A bad ``tol`` raises
    `InvalidInputError` before any seed runs, as in `karcher_descent`.
    """
    _check_descent_settings(tol)
    m = Q.manifold
    seeds: list[Point] = list(Q.points)
    if m.is_compact:
        seeds.extend(quasi_random_points(m, MULTISTART_EXTRA))
    runs: list[MeanResult] = []
    for seed in seeds:
        try:
            run = karcher_descent(Q, seed, tol=tol)
        except (CutLocusError, MaxIterExceededError):
            continue
        # rank by the per-point objective, not the descent's block sum: the
        # two differ in the last bits, and the ranking picks the reported seed
        runs.append(replace(run, objective=objective(Q, run.minimizer)))
    if not runs:
        raise NoConvergenceError("all multistart seeds failed")
    best = min(runs, key=lambda r: (r.objective, _lex_key(r.minimizer)))
    agreement = all(
        m.dist(r.minimizer, best.minimizer) <= 10.0 * tol for r in runs
    )
    if agreement:
        chosen = best
    else:
        ties = [r for r in runs if r.objective <= best.objective + 10.0 * tol]
        chosen = min(ties, key=lambda r: _lex_key(r.minimizer))
    return replace(
        chosen, multistart_agreement=agreement, afsari_certified=afsari_certified(Q)
    )


def barycenter_check(Q: Configuration, p: Point) -> tuple[float, str]:
    """Residual ``|(1/N) sum_i log_p(q_i)|`` and a classification.

    ``short`` means every data point is strictly inside the cut-locus margin
    ``CUT_TOL``.  Data within ``CUT_TOL`` of a cut locus (but with the log still
    formable) yield ``boundary_unclassified``: telling singular from
    ordinary cut points numerically is ill-posed, so such configurations are
    reported for manual inspection rather than guessed at.  If some log
    cannot be formed at all, the residual does not exist and `CutLocusError`
    is raised -- at a genuine local minimum this cannot happen.

    The mean log is one `_log_mean` pass over the data stack at margin
    ``CUT_TOL``; if that refuses, some point is within ``CUT_TOL`` of a cut
    locus (a log refuses at a margin iff the point is that close), and a
    second pass at margin 1e-15 forms the mean or raises.
    """
    m = Q.manifold
    m._own(p)
    try:
        mean, _ = m._log_mean(p.coords, Q.coord_stack, CUT_TOL)
        classification = SHORT
    except CutLocusError:
        mean, _ = m._log_mean(p.coords, Q.coord_stack, 1e-15)
        classification = BOUNDARY_UNCLASSIFIED
    return m._norm(p.coords, mean), classification


# a triple product of unit vectors is computed to within a few ulps, far
# inside this; a smaller one is not trusted for its sign
HEMISPHERE_TOL = 1e-12


def _no_open_hemisphere(m: Manifold, stack: np.ndarray) -> bool:
    """True only if no open hemisphere of ``m = Sphere(2)`` holds the data
    ``stack``; False also when the test cannot tell, and off S^2.

    Proof.  Let C = {v : <v, q_k> >= 0 for all k}, a closed convex cone.
    An open hemisphere {<v, .> > 0} holds the data iff v is interior to C.
    If the data span R^3, C is pointed, so when it has interior it is the
    cone over its extreme rays, each of which lies on two independent
    faces q_i^perp and q_j^perp: it is +-(q_i x q_j).  So if every such
    candidate c has a data point with <c, q_k> < 0, C has no interior.
    The test demands <c, q_k> < -HEMISPHERE_TOL, which rounding cannot
    fake.  A candidate that passes it also proves that the data span R^3;
    a near-parallel pair, whose cross product is tiny, or data on one great
    circle, whose candidates are orthogonal to every point, make some
    candidate fail it and the test answer False.
    """
    if not (isinstance(m, Sphere) and m.n == 2) or len(stack) < 3:
        return False
    i, j = np.triu_indices(len(stack), 1)
    triple = np.cross(stack[i], stack[j]) @ stack.T
    # +c needs a point below -tol, -c a point above +tol
    return bool(
        (triple.min(axis=1) < -HEMISPHERE_TOL).all()
        and (triple.max(axis=1) > HEMISPHERE_TOL).all()
    )


# the kinds of `manifolds`, all of sectional curvature >= 0 (products of
# such factors too), which `_enclosing_radius_bound` needs; a kind added to
# `manifolds` must be checked against the bound and listed here (the row
# kinds are S^2, SO(2) and products of them, built on the same metrics)
CURVATURE_NONNEGATIVE = (Euclidean, Sphere, SpecialOrthogonal, DiagPos, Product,
                         _S2, _SO2, _RowProduct)
# Frank-Wolfe steps of `_enclosing_radius_bound` after the farthest pair
BOUND_STEPS = 32


def _enclosing_radius_bound(D2: np.ndarray, target: float) -> float:
    """A lower bound on the radius of every ball that holds the data, from
    the symmetric matrix ``D2`` of their squared distances (zero diagonal).
    Returns once the bound reaches ``target``, which it need not exceed.

    Proof.  Let c be any centre and v_i minimal logs at c of the data q_i,
    so |v_i| = d(c, q_i).  On a complete manifold of sectional curvature
    >= 0 (every kind of `CURVATURE_NONNEGATIVE`), Toponogov's hinge
    comparison (Cheeger & Ebin 1975, ch. 2) bounds the side opposite the
    hinge of the minimal geodesics from c to q_i and q_j by the flat one:
    d(q_i, q_j) <= |v_i - v_j|.  So for every w on the simplex

        max_i d(c, q_i)^2 >= sum_i w_i |v_i|^2
                          >= sum_i w_i |v_i|^2 - |sum_i w_i v_i|^2
                           = 1/2 sum_ij w_i w_j |v_i - v_j|^2
                          >= 1/2 w^T D2 w,

    and sqrt(w^T D2 w / 2) bounds every enclosing radius from below.

    The farthest pair, w = (1/2, 1/2), gives half the diameter.  From there
    Frank-Wolfe steps with exact line search raise it, carrying only
    ``a = w^T D2 w`` and ``D2 w``, until no vertex improves or for at most
    `BOUND_STEPS` steps.  Toward vertex e_k, with ``b = (D2 w)_k > a``, the
    value on the segment ``(1 - t) w + t e_k`` is
    ``(1 - t)^2 a + 2 t (1 - t) b`` (``D2_kk = 0``), concave in t with its
    maximum at ``t = (b - a) / (2 b - a)`` in (0, 1).
    """
    reach = 2.0 * target * target
    i, j = divmod(int(np.argmax(D2)), len(D2))
    a = 0.5 * float(D2[i, j])
    row = 0.5 * (D2[i] + D2[j])
    for _ in range(BOUND_STEPS):
        k = int(np.argmax(row))
        b = float(row[k])
        if a >= reach or b <= a:
            break
        t = (b - a) / (2.0 * b - a)
        a = (1.0 - t) * ((1.0 - t) * a + 2.0 * t * b)
        row = (1.0 - t) * row + t * D2[k]
    return math.sqrt(0.5 * a)


def afsari_certified(Q: Configuration) -> bool:
    """``afsari_certificate(Q).certified`` (Afsari's concentration flag),
    answered without the certificate when no open hemisphere of S^2 holds Q.

    On ``Sphere(2)``, ``r_cx = pi / 2``.  If no open hemisphere holds Q,
    every centre has a data point at distance >= pi / 2, so no ball of
    radius below ``r_cx - AFSARI_MARGIN`` holds Q and the flag is False.
    Callers that need only the flag use this; ``riemmean certify`` prints
    the certificate's centre and radius, so it keeps the full search.
    """
    if _no_open_hemisphere(Q.manifold, Q.coord_stack):
        return False
    return afsari_certificate(Q).certified


def afsari_certificate(Q: Configuration) -> Certificate:
    """Try to exhibit a ball of radius below ``r_cx - AFSARI_MARGIN`` holding Q.

    Candidate centers are the data points themselves plus a subgradient
    one-center refinement (step toward the current farthest point with
    weight 1/(iter+1)).  Any witness ball suffices; optimality is not
    required.  A False result means "not certified", not "non-unique".

    One pass over the data takes each point's distances to all the others;
    the first point with the smallest farthest distance is the starting
    center, and the rows form the matrix of data distances.  The search
    stops as soon as the answer is known, in either direction:

    * certified, by a data point or a refinement iterate: ``center`` and
      ``radius`` are the witness ball;
    * ruled out by the curvature lower bound on every enclosing radius
      (`_enclosing_radius_bound` of the data distances, at least half the
      diameter, reaching ``r_cx - AFSARI_MARGIN / 2``), before any
      refinement step: ``center`` is the best data point and ``radius`` its
      farthest distance;
    * otherwise the refinement runs out (200 steps, or a cut locus) and
      ``center`` / ``radius`` are the smallest ball it reached.
    """
    m = Q.manifold
    r_cx = m.constants.r_cx
    bound = r_cx - AFSARI_MARGIN

    form = m._dist_form(Q.coord_stack)

    def distances(coords: np.ndarray) -> np.ndarray:
        return m._form_dists(coords, form)

    rows = np.stack([distances(q.coords) for q in Q.points])
    radii = rows.max(axis=1)
    start = int(np.argmin(radii))
    best_radius = float(radii[start])
    best = Q.points[start]
    if best_radius < bound:
        return Certificate(certified=True, center=best, radius=best_radius)
    # The loop below certifies only radii below r_cx - AFSARI_MARGIN, and no
    # enclosing ball is smaller than the lower bound.  So once the bound
    # reaches r_cx - AFSARI_MARGIN / 2, the loop could certify only if the
    # computed distances were off by more than AFSARI_MARGIN / 2; the half
    # margin is round-off slack.  The larger of the two computed distances
    # of each pair makes the matrix symmetric.
    D2 = np.square(rows)
    D2 = np.maximum(D2, D2.T)
    np.fill_diagonal(D2, 0.0)
    target = r_cx - AFSARI_MARGIN / 2.0
    if _enclosing_radius_bound(D2, target) >= target:
        return Certificate(certified=False, center=best, radius=best_radius)
    coords = best.coords
    for it in range(1, 201):
        # the first pass already holds the starting centre's row
        d = rows[start] if it == 1 else distances(coords)
        far = int(np.argmax(d))
        radius = float(d[far])
        if radius < best_radius:
            best_radius = radius
            best = Point(m.manifold_id, _frozen(coords))
            if best_radius < bound:
                break
        if radius == 0.0:
            break
        try:
            v = m._log(coords, Q.points[far].coords, CUT_TOL)
        except CutLocusError:
            break
        coords = m._exp(coords, v / (it + 1.0))
    return Certificate(certified=best_radius < bound, center=best, radius=best_radius)


def forward_directional_derivative(
    manifold: Manifold, q: Point, p: Point, v: Tangent, tol: float = CUT_TOL
) -> float:
    """One-sided derivative of ``dist(., q)**2`` at ``p`` along ``exp_p(tv)``
    as ``t`` decreases to 0.

    Equals ``-2 * sup <v, v'>`` over the set of minimal tangent lifts ``v'``
    of ``q`` at ``p``.  Off the cut locus the set is the singleton
    ``log_p(q)``; on the sphere at the antipode it is the whole radius-pi
    sphere, giving the closed form ``-2 pi |v|``; on SO(m) a single angle-pi
    plane yields exactly two minimal lifts.
    """
    if isinstance(manifold, Product):
        raise UnsupportedManifoldError(
            "minimal-lift sets are not implemented for product manifolds"
        )
    manifold._same_base(p, v)
    manifold._own(q)
    try:
        return -2.0 * manifold.inner(p, v, manifold.log(p, q, tol))
    except CutLocusError:
        pass  # q is within tol of the cut locus of p
    if isinstance(manifold, Sphere):
        return -2.0 * math.pi * manifold.norm(p, v)
    if isinstance(manifold, SpecialOrthogonal):
        rel = p.coords.T @ q.coords
        best = -math.inf
        for X in minimal_rotation_logs(rel, tol / math.sqrt(manifold.k)):
            lift = p.coords @ X
            best = max(best, manifold._inner(p.coords, v.vec, lift))
        return -2.0 * best
    raise UnsupportedManifoldError(f"unsupported manifold {manifold.manifold_id!r}")
