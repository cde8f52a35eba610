"""Condensed invariant battery behind the ``selftest`` CLI subcommand.

Each suite runs a handful of deterministic randomized checks per module and
reports pass/fail counts.  This is a quick field check, not the full test
suite (run pytest for that).
"""

from __future__ import annotations

import math

import numpy as np

from . import equivariant as eqv
from . import frechet as fr
from . import spd
from .core import rcx_from_constants, rotation_exp, rotation_log, sym_eig
from .errors import CutLocusError
from .lab import sample_in_ball
from .manifolds import (
    DiagPos,
    Euclidean,
    Manifold,
    Product,
    Sphere,
    SpecialOrthogonal,
    Tangent,
)
from .numdiff import fd_gradient

Check = tuple[str, bool]


def _rng(tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[0x7E57, tag]))


def _manifold_zoo() -> list[Manifold]:
    return [
        Euclidean(3),
        Sphere(2),
        SpecialOrthogonal(3, 1.0),
        DiagPos(3),
        Product([SpecialOrthogonal(3, 1.0), DiagPos(3)]),
    ]


def _nearby_pair(m: Manifold, rng) -> tuple:
    p = m.random_point(rng)
    return p, sample_in_ball(rng, m, p, 0.8 * min(m.constants.r_inj, 3.0))


def suite_core() -> list[Check]:
    checks = []
    checks.append(("rcx sphere", abs(rcx_from_constants(math.pi, 1.0) - math.pi / 2) < 1e-15))
    checks.append(("rcx hadamard", rcx_from_constants(math.inf, -1.0) == math.inf))
    rng = _rng(1)
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 5))
        A = rng.standard_normal((n, n))
        S = 0.5 * (A + A.T)
        U, lam = sym_eig(S)
        ok &= np.max(np.abs((U * lam) @ U.T - S)) < 1e-10
        ok &= abs(np.linalg.det(U) - 1.0) < 1e-10
        ok &= bool(np.all(np.diff(lam) <= 1e-12))
    checks.append(("sym_eig reconstruction", ok))
    ok = True
    # m = 2 and 3 take the closed-form one-plane kernels, m = 4 the eigh path
    for n in (2, 3, 4):
        for _ in range(20):
            X = rng.standard_normal((n, n))
            X = 0.5 * (X - X.T)
            R = rotation_exp(X)
            ok &= np.max(np.abs(R.T @ R - np.eye(n))) < 1e-12
            if math.sqrt(0.5 * np.tensordot(X, X)) < math.pi - 1e-3:
                ok &= np.max(np.abs(rotation_log(R) - X)) < 1e-9
    checks.append(("rotation exp/log roundtrip", ok))
    return checks


def suite_manifolds() -> list[Check]:
    checks = []
    rng = _rng(2)
    for m in _manifold_zoo():
        ok = True
        for _ in range(100):
            p, q = _nearby_pair(m, rng)
            v = m.log(p, q)
            ok &= m.dist(m.exp(p, v), q) < 1e-9
            ok &= abs(m.norm(p, v) - m.dist(p, q)) < 1e-10
        checks.append((f"exp/log identity on {m.manifold_id}", ok))
    so = SpecialOrthogonal(3, 1.0)
    ok = True
    for _ in range(50):
        p = so.random_point(rng)
        q = so.random_point(rng)
        g = so.random_point(rng)
        left_p = so.point(g.coords @ p.coords)
        left_q = so.point(g.coords @ q.coords)
        ok &= abs(so.dist(left_p, left_q) - so.dist(p, q)) < 1e-10
    checks.append(("SO(3) left-invariance of dist", ok))
    return checks


def suite_frechet() -> list[Check]:
    checks = []
    rng = _rng(3)
    for m in [Sphere(2), SpecialOrthogonal(3, 1.0)]:
        ok = True
        for _ in range(10):
            pts = []
            base = m.random_point(rng)
            for _ in range(4):
                pts.append(_nearby_pair(m, rng)[0])
            Q = fr.Configuration(m, tuple(pts))
            p = base
            try:
                Y = fr.gradient_field(Q, p)
            except CutLocusError:
                continue
            grad = fd_gradient(m, lambda x: fr.objective(Q, x), p)
            err = m.norm(p, Tangent(p, grad.vec + 2.0 * Y.vec))
            ok &= err / (1.0 + m.norm(p, Y)) < 1e-5
        checks.append((f"gradient consistency on {m.manifold_id}", ok))
    sphere = Sphere(2)
    ok = True
    for _ in range(10):
        base = sphere.random_point(rng)
        pts = [sample_in_ball(rng, sphere, base, 0.4) for _ in range(5)]
        res = fr.frechet_mean(fr.Configuration(sphere, tuple(pts)))
        ok &= res.barycenter_residual < 1e-9
        ok &= res.afsari_certified
        ok &= res.multistart_agreement
    checks.append(("concentrated sphere means: residual + certificate", ok))
    return checks


def suite_equivariant() -> list[Check]:
    checks = []
    rng = _rng(4)
    sphere = Sphere(2)
    action = eqv.antipodal_action(sphere)
    ok = True
    for _ in range(100):
        a = eqv.QuotientPoint(sphere.random_point(rng))
        b = eqv.QuotientPoint(sphere.random_point(rng))
        ok &= abs(
            eqv.quotient_dist(action, a, b) - eqv.quotient_dist(action, b, a)
        ) < 1e-12
        ok &= abs(
            eqv.d_evt(action, a, b.representative)
            - eqv.quotient_dist(action, a, b)
        ) < 1e-12
    checks.append(("quotient distance symmetry and d_evt identity", ok))
    rel = eqv.radius_relations(action)
    checks.append(
        (
            "RP2 radii",
            abs(rel.r_inj - math.pi / 2) < 1e-15 and abs(rel.r_cx - math.pi / 4) < 1e-15,
        )
    )
    ok = True
    for _ in range(5):
        center_rep = sphere.random_point(rng)
        pts = [
            eqv.QuotientPoint(sample_in_ball(rng, sphere, center_rep, 0.6))
            for _ in range(4)
        ]
        sheets = eqv.even_cover_lifts(action, eqv.QuotientPoint(center_rep), 0.6, pts)
        means = {h: fr.frechet_mean(conf) for h, conf in sheets.items()}
        efm = eqv.efm_solve(action, pts)
        for h1 in action.elements:
            for h2 in action.elements:
                moved = action.apply(h1, means[h2].minimizer)
                target = means[action.compose(h1, h2)].minimizer
                ok &= sphere.dist(moved, target) < 1e-8
        for h in action.elements:
            ok &= (
                eqv.quotient_dist(
                    action, eqv.QuotientPoint(means[h].minimizer), efm.downstairs_mean
                )
                < 1e-8
            )
    checks.append(("even-cover equivariance and projection", ok))
    # efm_solve's stop rule: re-solving an alignment from its own minimizer
    # takes 0 inner steps and repeats the scan
    ok = True
    for efm_action, pts in ((action, pts), _psr_quotient_points(rng)):
        efm = eqv.efm_solve(efm_action, pts)
        again = eqv.efm_solve(efm_action, pts, init=efm.downstairs_mean.representative)
        ok &= again.inner_iterations == 0 and again.outer_iterations == 2
        ok &= again.objective == efm.objective and again.alignment == efm.alignment
    checks.append(("efm_solve restarted at its minimizer takes 0 steps", ok))
    return checks


def _psr_quotient_points(rng) -> tuple:
    action = spd.gm_action(2, 1.0)
    pts = []
    while len(pts) < 6:
        try:
            pair = spd.eig_canonical(spd.sample_spd(rng, 2, 0.8))
        except spd.DegenerateSpectrumError:
            continue
        pts.append(eqv.QuotientPoint(pair.to_point(action.cover)))
    return action, pts


def suite_spd() -> list[Check]:
    checks = []
    rng = _rng(5)
    consts = spd.psr_constants(2, 1.0)
    checks.append(
        (
            "psr constants m=2",
            abs(consts.beta_gp - math.pi / 2) < 1e-15
            and abs(consts.r_cx_cover - math.pi / 2) < 1e-15
            and abs(consts.r_inj_quotient - math.pi / 4) < 1e-15
            and abs(consts.r_cx_quotient - math.pi / 8) < 1e-15,
        )
    )
    checks.append(
        (
            "d_sr oracle value",
            abs(spd.d_sr(np.diag([4.0, 1.0]), np.diag([1.0, 4.0])) - math.pi / 2)
            < 1e-10,
        )
    )
    ok = True
    for m in (2, 3):
        group = spd.group_enumerate(m)
        action = spd.gm_action(m, 1.0)
        cover = spd.cover_manifold(m, 1.0)
        for _ in range(10):
            S = spd.sample_spd(rng, m, 0.8)
            try:
                pair = spd.eig_canonical(S)
            except spd.DegenerateSpectrumError:
                continue
            fiber = [spd.act(h, pair) for h in group]
            ok &= all(np.max(np.abs(f.spd() - S)) < 1e-10 for f in fiber)
            target = spd.EigenPair(
                spd.eig_canonical(spd.sample_spd(rng, m, 0.8)).U,
                np.abs(rng.standard_normal(m)) + 0.5,
            )
            direct = spd.d_psr(S, target)
            via_quotient = eqv.d_evt(
                action, eqv.QuotientPoint(pair.to_point(cover)), target.to_point(cover)
            )
            ok &= abs(direct - via_quotient) < 1e-12
    checks.append(("fiber exactness and psr/equivariant identity", ok))
    return checks


SUITES = [
    ("core", suite_core),
    ("manifolds", suite_manifolds),
    ("frechet", suite_frechet),
    ("equivariant", suite_equivariant),
    ("spd", suite_spd),
]


def run_selftest(out=print) -> bool:
    all_ok = True
    for name, suite in SUITES:
        checks = suite()
        passed = sum(ok for _, ok in checks)
        out(f"{name}: {passed}/{len(checks)} checks passed")
        for label, ok in checks:
            if not ok:
                out(f"  FAIL {label}")
                all_ok = False
    out("selftest: " + ("PASS" if all_ok else "FAIL"))
    return all_ok
