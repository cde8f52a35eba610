"""Command-line front end.

Subcommands: ``mean``, ``efm``, ``psr-mean``, ``dist``, ``psr-dist``,
``certify``, ``constants``, ``experiment``, ``selftest``.  Output is
machine-parseable ``key=value`` lines (or one CSV header/row pair with
``--csv``); floats carry 17 significant digits so values round-trip.

Exit codes: 0 success, 1 domain errors (cut locus, degenerate spectrum,
no convergence, ...), 2 usage errors (bad flags, malformed literals or
files).
"""

from __future__ import annotations

import argparse
import math
import sys

from . import lab
from .equivariant import QuotientPoint, antipodal_action, efm_solve
from .errors import InvalidInputError, RiemmeanError
from .frechet import Configuration, afsari_certificate, frechet_mean
from .lab import _fmt
from .literals import (
    format_matrix,
    format_point,
    parse_point,
    parse_spd,
    read_points_file,
    read_spd_file,
)
from .manifolds import Sphere, parse_manifold
from .selftest import run_selftest
from .spd import d_sr, psr_constants, psr_mean

MANIFOLD_GRAMMAR = (
    "manifold grammar: euclidean:<n> | sphere:<n> | so:<m>[:k=<k>] | "
    "diagpos:<m> | product(<spec>;<spec>;...)"
)
POINT_GRAMMAR = (
    "point grammar: comma-separated reals (row-major for matrices), "
    "factors joined by ';' for products; files hold one point per line, "
    "'#' comments"
)


def _positive_float(text: str) -> float:
    """argparse type of ``--k``, ``--tol`` and ``--gap-tol``: a finite
    number > 0 (NaN and infinities are refused here, with exit 2)."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(x) and x > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return x


class _Usage(Exception):
    pass


def _emit(pairs: list[tuple[str, str]], as_csv: bool) -> None:
    if as_csv:
        print(",".join(k for k, _ in pairs))
        print(",".join(v.replace(",", ";") for _, v in pairs))
    else:
        for k, v in pairs:
            print(f"{k}={v}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riemmean",
        description="Frechet/Karcher, equivariant, and scaling-rotation means",
        epilog=MANIFOLD_GRAMMAR + "; " + POINT_GRAMMAR,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mean", help="multistart Frechet mean of a configuration")
    p.add_argument("--manifold", required=True)
    p.add_argument("--points", required=True, help="path to a points file")
    p.add_argument("--tol", type=_positive_float, default=1e-10)
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("efm", help="equivariant Frechet mean on a covering")
    p.add_argument("--cover", required=True, help="covering manifold (sphere:<n>)")
    p.add_argument("--action", default="antipodal", choices=["antipodal"])
    p.add_argument("--points", required=True, help="representatives, one per line")
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("psr-mean", help="partial scaling-rotation mean of SPD samples")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=_positive_float, default=1.0)
    p.add_argument("--samples", required=True, help="SPD matrices, one per line")
    p.add_argument("--gap-tol", type=_positive_float, default=1e-8)
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("dist", help="geodesic distance between two points")
    p.add_argument("--manifold", required=True)
    p.add_argument("--a", required=True, help="point literal")
    p.add_argument("--b", required=True, help="point literal")
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("psr-dist", help="scaling-rotation distance of two SPD matrices")
    p.add_argument("--a", required=True, help="row-major symmetric matrix literal")
    p.add_argument("--b", required=True, help="row-major symmetric matrix literal")
    p.add_argument("--k", type=_positive_float, default=1.0)
    p.add_argument("--gap-tol", type=_positive_float, default=1e-8)
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("certify", help="concentration (unique-mean) certificate")
    p.add_argument("--manifold", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("constants", help="scaling-rotation geometry constants")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=_positive_float, default=1.0)
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("experiment", help="run a Monte Carlo experiment from a config")
    p.add_argument("--config", required=True, help="flat key=value config file")

    sub.add_parser("selftest", help="run the invariant suite")
    return parser


def _cmd_mean(args) -> int:
    with _usage_scope():
        manifold = parse_manifold(args.manifold)
        points = read_points_file(manifold, args.points)
    res = frechet_mean(Configuration(manifold, tuple(points)), tol=args.tol)
    _emit(
        [
            ("minimizer", format_point(manifold, res.minimizer)),
            ("objective", _fmt(res.objective)),
            ("grad_norm", _fmt(res.grad_norm)),
            ("iterations", str(res.iterations)),
            ("multistart_agreement", str(int(res.multistart_agreement))),
            ("afsari_certified", str(int(res.afsari_certified))),
            ("barycenter_residual", _fmt(res.barycenter_residual)),
            ("classification", res.classification),
        ],
        args.csv,
    )
    return 0


def _cmd_efm(args) -> int:
    with _usage_scope():
        cover = parse_manifold(args.cover)
        if not isinstance(cover, Sphere):
            raise InvalidInputError("the antipodal action needs a sphere cover")
        points = read_points_file(cover, args.points)
    action = antipodal_action(cover)
    res = efm_solve(action, [QuotientPoint(p) for p in points])
    pairs = [
        ("downstairs_mean", format_point(cover, res.downstairs_mean.representative)),
        ("objective", _fmt(res.objective)),
        ("outer_iterations", str(res.outer_iterations)),
        ("orbit_size", str(len(res.orbit))),
    ]
    pairs.extend(
        (f"orbit_{i}", format_point(cover, p)) for i, p in enumerate(res.orbit)
    )
    _emit(pairs, args.csv)
    return 0


def _cmd_psr_mean(args) -> int:
    with _usage_scope():
        samples = read_spd_file(args.samples, args.m)
    res = psr_mean(samples, k=args.k, gap_tol=args.gap_tol, restarts=args.restarts)
    rep = res.representative
    _emit(
        [
            ("U", format_matrix(rep.U)),
            ("D", ",".join(_fmt(x) for x in rep.d)),
            ("spd", format_matrix(rep.spd())),
            ("objective", _fmt(res.objective)),
            ("unique_up_to_G", str(int(res.unique_up_to_G))),
            ("outer_iterations", str(res.outer_iterations)),
        ],
        args.csv,
    )
    return 0


def _cmd_dist(args) -> int:
    with _usage_scope():
        manifold = parse_manifold(args.manifold)
        a = parse_point(manifold, args.a)
        b = parse_point(manifold, args.b)
    _emit([("dist", _fmt(manifold.dist(a, b)))], args.csv)
    return 0


def _cmd_psr_dist(args) -> int:
    with _usage_scope():
        a = parse_spd(args.a)
        b = parse_spd(args.b)
    _emit([("d_sr", _fmt(d_sr(a, b, args.k, args.gap_tol)))], args.csv)
    return 0


def _cmd_certify(args) -> int:
    with _usage_scope():
        manifold = parse_manifold(args.manifold)
        points = read_points_file(manifold, args.points)
    cert = afsari_certificate(Configuration(manifold, tuple(points)))
    _emit(
        [
            ("certified", str(int(cert.certified))),
            ("center", format_point(manifold, cert.center)),
            ("radius", _fmt(cert.radius)),
            ("r_cx", _fmt(manifold.constants.r_cx)),
        ],
        args.csv,
    )
    return 0


def _cmd_constants(args) -> int:
    with _usage_scope():
        if args.m < 2 or args.m > 5:
            raise InvalidInputError("--m must be between 2 and 5")
    c = psr_constants(args.m, args.k)
    _emit(
        [
            ("beta_gp", _fmt(c.beta_gp)),
            ("r_cx_cover", _fmt(c.r_cx_cover)),
            ("r_inj_quotient", _fmt(c.r_inj_quotient)),
            ("r_cx_quotient", _fmt(c.r_cx_quotient)),
        ],
        args.csv,
    )
    return 0


def _cmd_experiment(args) -> int:
    with _usage_scope():
        try:
            with open(args.config) as f:
                cfg = lab.parse_config(f.read())
        except OSError as exc:
            raise InvalidInputError(f"cannot read config: {exc}") from exc
    report = lab.run_experiment(cfg)
    sys.stdout.write(report.to_text())
    print(f"csv={cfg.out_csv}")
    print(f"summary={cfg.out_summary}")
    return 0


def _cmd_selftest(_args) -> int:
    return 0 if run_selftest() else 1


class _usage_scope:
    """Inside this scope, domain-typed input errors count as usage errors."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None and issubclass(exc_type, InvalidInputError):
            raise _Usage(str(exc)) from exc
        return False


_COMMANDS = {
    "mean": _cmd_mean,
    "efm": _cmd_efm,
    "psr-mean": _cmd_psr_mean,
    "dist": _cmd_dist,
    "psr-dist": _cmd_psr_dist,
    "certify": _cmd_certify,
    "constants": _cmd_constants,
    "experiment": _cmd_experiment,
    "selftest": _cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(MANIFOLD_GRAMMAR, file=sys.stderr)
        print(POINT_GRAMMAR, file=sys.stderr)
        return 2
    except RiemmeanError as exc:
        print(f"error: {exc.short_name}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
