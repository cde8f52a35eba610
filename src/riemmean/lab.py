"""Monte Carlo experiment harness.

Four experiments empirically probe the genericity and uniqueness behavior
of the mean solvers:

* ``sphere_genericity``  -- means of i.i.d. absolutely continuous samples on
  S^2 should never land on the equator (a positive-codimension set).  Any
  atom at distance ~0 is an anomaly worth investigating, not a proof
  failure: the underlying claims are probability-one statements.
* ``rp2_equivariance``   -- on RP^2 (antipodal quotient of S^2), per-sheet
  means of evenly-covered lifts must permute equivariantly and project to
  the downstairs mean.
* ``psr_genericity``     -- partial scaling-rotation means of absolutely
  continuous SPD samples should have distinct-eigenvalue projections.
* ``psr_uniqueness``     -- inside a small scaling-rotation ball, PSR means
  should be unique up to the group and stay inside the lifted ball.

One driver, `run_experiment`, runs them all.  An experiment validates its
config and builds its static objects once per run, then gives a per-trial
function that draws the trial's samples and solves them.  A `RiemmeanError`
raised by the solve makes the trial a failed row (empty fields, counted in
``solver_failures``) and the run goes on; an error raised while setting up,
sampling or measuring a solved trial ends the run before any file is
written.

Reproducibility: trials draw from per-trial substreams of a counter-based
Philox generator keyed by (seed, trial index), so results are independent
of execution order.  Identical (config, seed) produces byte-identical CSV
and summary files; to keep that guarantee trials record no wall time and
the CSV's ``time_ms`` column is always written as 0.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .equivariant import (
    QuotientPoint,
    antipodal_action,
    efm_solve,
    even_cover_lifts,
    quotient_dist,
    radius_relations,
)
from .errors import InvalidInputError, RiemmeanError
from .frechet import Configuration, afsari_certified, barycenter_check, frechet_mean
from .manifolds import Manifold, Point, Sphere, Tangent
from .spd import (
    EigenPair,
    cover_manifold,
    d_psr,
    d_sr,
    eig_canonical,
    psr_constants,
    psr_mean,
    sample_spd,
    top_stratum_gap,
)

SPHERE_SAMPLERS = ("uniform", "vmf", "point_mass_equator")
CSV_COLUMNS = (
    "trial",
    "distance_to_A",
    "residual",
    "certified",
    "unique",
    "iterations",
    "time_ms",
)

_POSITIVE_FIELDS = ("k", "tol", "gap_tol", "atom_tol")
# a config value's parser, by its field's annotation (a string under
# ``from __future__ import annotations``)
_PARSERS = {"int": int, "float": float, "str": str}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    trials: int
    sample_size: int
    seed: int
    sigma: float = 1.0
    radius: float = 0.5
    m: int = 3
    k: float = 1.0
    tol: float = 1e-10
    gap_tol: float = 1e-8
    atom_tol: float = 1e-6
    sampler: str = "uniform"
    restarts: int = 5
    out_csv: str = ""
    out_summary: str = ""

    def __post_init__(self):
        if self.experiment not in _SETUPS:
            raise InvalidInputError(f"unknown experiment {self.experiment!r}")
        if self.trials < 1 or self.sample_size < 1:
            raise InvalidInputError("trials and sample_size must be >= 1")
        if self.restarts < 0:
            raise InvalidInputError("restarts must be >= 0")
        if self.experiment == "sphere_genericity" and self.sampler not in SPHERE_SAMPLERS:
            raise InvalidInputError(f"unknown sampler {self.sampler!r}")
        for name in sorted(f.name for f in fields(self) if f.type == "float"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidInputError(f"{name} must be finite")
        for name in _POSITIVE_FIELDS:
            if getattr(self, name) <= 0.0:
                raise InvalidInputError(f"{name} must be > 0")
        if self.sigma < 0.0:
            raise InvalidInputError("sigma must be >= 0")
        if not self.out_csv:
            object.__setattr__(self, "out_csv", f"{self.experiment}_trials.csv")
        if not self.out_summary:
            object.__setattr__(self, "out_summary", f"{self.experiment}_summary.txt")

    def echo(self) -> list[tuple[str, str]]:
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            out.append((f.name, _fmt(value) if isinstance(value, float) else str(value)))
        return out


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key-value config grammar: one ``key = value`` pair per
    line, ``#`` starts a comment, blank lines ignored."""
    kinds = {f.name: f.type for f in fields(ExperimentConfig)}
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"config line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in kinds:
            raise InvalidInputError(f"config line {lineno}: unknown key {key!r}")
        try:
            values[key] = _PARSERS[kinds[key]](val)
        except ValueError as exc:
            raise InvalidInputError(f"config line {lineno}: bad value {val!r}") from exc
    missing = {"experiment", "trials", "sample_size", "seed"} - set(values)
    if missing:
        raise InvalidInputError(f"config is missing keys: {sorted(missing)}")
    return ExperimentConfig(**values)  # type: ignore[arg-type]


@dataclass
class TrialRecord:
    trial: int
    distance_to_A: float | None = None
    residual: float | None = None
    certified: bool | None = None
    unique: bool | None = None
    iterations: int = 0
    failed: bool = False


@dataclass(frozen=True)
class SummaryReport:
    experiment: str
    seed: int
    trials: int
    completed: int
    solver_failures: int
    atom_count: int
    atom_tol: float
    min_distance: float | None
    median_distance: float | None
    max_residual: float | None
    uniqueness_rate: float | None
    sampler_absolutely_continuous: bool
    config: ExperimentConfig
    extras: tuple[tuple[str, str], ...] = ()

    @property
    def config_echo(self) -> tuple[tuple[str, str], ...]:
        """The config's ``(key, value)`` strings of the summary's
        ``config.*`` lines, formed from the frozen config when read."""
        return tuple(self.config.echo())

    def to_text(self) -> str:
        lines = [
            f"experiment={self.experiment}",
            f"seed={self.seed}",
            f"trials={self.trials}",
            f"completed={self.completed}",
            f"solver_failures={self.solver_failures}",
            f"atom_count={self.atom_count}",
            f"non_atom_count={self.completed - self.atom_count}",
            f"atom_tol={_fmt(self.atom_tol)}",
            f"min_distance_to_A={_opt(self.min_distance)}",
            f"median_distance_to_A={_opt(self.median_distance)}",
            f"max_residual={_opt(self.max_residual)}",
            f"uniqueness_rate={_opt(self.uniqueness_rate)}",
            f"sampler_absolutely_continuous={int(self.sampler_absolutely_continuous)}",
        ]
        lines.extend(f"extra.{k}={v}" for k, v in self.extras)
        lines.extend(f"config.{k}={v}" for k, v in self.config_echo)
        return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _opt(x: float | None) -> str:
    return "" if x is None else _fmt(x)


def _flag(x: bool | None) -> str:
    return "" if x is None else str(int(x))


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based per-trial substream; schedule-independent."""
    key = np.array([seed % 2**64, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def records_to_csv(records: list[TrialRecord]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in sorted(records, key=lambda r: r.trial):
        lines.append(
            ",".join(
                [
                    str(r.trial),
                    _opt(r.distance_to_A),
                    _opt(r.residual),
                    _flag(r.certified),
                    _flag(r.unique),
                    str(r.iterations),
                    "0",  # wall time excluded from the reproducible artifact
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _summarize(
    cfg: ExperimentConfig,
    records: list[TrialRecord],
    sampler_ac: bool,
    extras: tuple[tuple[str, str], ...] = (),
) -> SummaryReport:
    done = [r for r in records if not r.failed]
    dists = np.array([r.distance_to_A for r in done], dtype=float) if done else None
    residuals = [r.residual for r in done if r.residual is not None]
    uniques = [r.unique for r in done if r.unique is not None]
    return SummaryReport(
        experiment=cfg.experiment,
        seed=cfg.seed,
        trials=cfg.trials,
        completed=len(done),
        solver_failures=len(records) - len(done),
        atom_count=int(np.sum(dists < cfg.atom_tol)) if dists is not None else 0,
        atom_tol=cfg.atom_tol,
        min_distance=float(np.min(dists)) if dists is not None else None,
        median_distance=float(np.median(dists)) if dists is not None else None,
        max_residual=max(residuals) if residuals else None,
        uniqueness_rate=(sum(uniques) / len(uniques)) if uniques else None,
        sampler_absolutely_continuous=sampler_ac,
        config=cfg,
        extras=extras,
    )


def _write_outputs(cfg: ExperimentConfig, records, report: SummaryReport) -> None:
    with open(cfg.out_csv, "w", newline="\n") as f:
        f.write(records_to_csv(records))
    with open(cfg.out_summary, "w", newline="\n") as f:
        f.write(report.to_text())


# -- samplers -----------------------------------------------------------------


def sample_sphere_uniform(rng: np.random.Generator, sphere: Sphere) -> Point:
    v = rng.standard_normal(sphere.n + 1)
    return sphere.point(v / np.linalg.norm(v))


def sample_vmf_s2(rng: np.random.Generator, kappa: float) -> Point:
    """von Mises-Fisher on S^2 with mean direction the north pole, by the
    standard inversion of the marginal of the polar coordinate."""
    sphere = Sphere(2)
    if kappa < 1e-9:
        return sample_sphere_uniform(rng, sphere)
    xi = rng.random()
    w = 1.0 + math.log(xi + (1.0 - xi) * math.exp(-2.0 * kappa)) / kappa
    w = min(1.0, max(-1.0, w))
    phi = 2.0 * math.pi * rng.random()
    s = math.sqrt(max(1.0 - w * w, 0.0))
    return sphere.point(np.array([s * math.cos(phi), s * math.sin(phi), w]))


def sample_in_ball(
    rng: np.random.Generator, manifold: Manifold, center: Point, radius: float
) -> Point:
    """Absolutely continuous sample supported in the geodesic ball of the
    given radius: random tangent direction, radius uniform in (0, r)."""
    ambient = rng.standard_normal(center.coords.shape)
    vec = manifold.project(center, ambient)
    norm = manifold._norm(center.coords, vec)
    if norm < 1e-300:
        return center
    rho = radius * rng.random()
    return manifold.exp(center, Tangent(center, (rho / norm) * vec))


# -- experiments --------------------------------------------------------------


class _SolveFailed(Exception):
    """A trial's solve raised a `RiemmeanError`: the trial is a failed row."""


@contextmanager
def _solving():
    """Scope of a trial's solve.  A `RiemmeanError` raised inside fails the
    trial; one raised outside it, while sampling or measuring, ends the run."""
    try:
        yield
    except RiemmeanError as exc:
        raise _SolveFailed from exc


# one trial's (distance_to_A, residual, certified, unique, iterations)
_Row = tuple[float, float, bool, bool | None, int]


class _Study(NamedTuple):
    """What an experiment adds to `run_experiment`: ``trial(rng)`` draws one
    trial's samples, solves them inside `_solving` and returns its `_Row`;
    ``extras(records)`` gives the summary's ``extra.*`` counters."""

    trial: Callable[[np.random.Generator], _Row]
    sampler_ac: bool = True
    extras: Callable[[list[TrialRecord]], tuple[tuple[str, str], ...]] = lambda _: ()


def _sphere_genericity(cfg: ExperimentConfig) -> _Study:
    """Means of i.i.d. samples on S^2 versus the equator ``z = 0``.

    Per trial: draw N points (uniform, von Mises-Fisher with concentration
    ``sigma``, or the deliberately degenerate equator point mass), compute
    the multistart mean, and record the arc distance ``|asin(z)|`` to the
    equator.  ``certified``/``unique`` columns carry the concentration
    certificate and multistart agreement.
    """
    sphere = Sphere(2)
    equator_point = sphere.point([1.0, 0.0, 0.0])

    def trial(rng: np.random.Generator) -> _Row:
        if cfg.sampler == "uniform":
            pts = [sample_sphere_uniform(rng, sphere) for _ in range(cfg.sample_size)]
        elif cfg.sampler == "vmf":
            pts = [sample_vmf_s2(rng, cfg.sigma) for _ in range(cfg.sample_size)]
        else:
            pts = [equator_point] * cfg.sample_size
        with _solving():
            res = frechet_mean(Configuration(sphere, tuple(pts)), tol=cfg.tol)
        z = float(np.clip(res.minimizer.coords[2], -1.0, 1.0))
        return (
            abs(math.asin(z)),
            res.barycenter_residual,
            res.afsari_certified,
            res.multistart_agreement,
            res.iterations,
        )

    return _Study(trial, sampler_ac=cfg.sampler != "point_mass_equator")


def _rp2_equivariance(cfg: ExperimentConfig) -> _Study:
    """Even-covering equivariance on RP^2.

    Per trial: sample a configuration in a downstairs ball of radius
    ``radius`` (< r_cx(RP^2) = pi/4), lift it into both sheets, take
    per-sheet means and the equivariant mean, and record the worst defect of
    (a) sheet-mean equivariance under the group and (b) projection of sheet
    means onto the downstairs mean.  ``distance_to_A`` carries that defect;
    ``unique`` additionally requires the downstairs mean inside the ball.
    """
    sphere = Sphere(2)
    action = antipodal_action(sphere)
    rel = radius_relations(action)
    if not 0.0 < cfg.radius < rel.r_cx:
        raise InvalidInputError(
            f"radius must sit in (0, {rel.r_cx}) for the uniqueness regime"
        )

    def trial(rng: np.random.Generator) -> _Row:
        center_rep = sphere.random_point(rng)
        center = QuotientPoint(center_rep)
        pts = [
            QuotientPoint(sample_in_ball(rng, sphere, center_rep, cfg.radius))
            for _ in range(cfg.sample_size)
        ]
        with _solving():
            sheets = even_cover_lifts(action, center, cfg.radius, pts)
            means = {h: frechet_mean(conf, tol=cfg.tol) for h, conf in sheets.items()}
            efm = efm_solve(action, pts)
        eq_defect = max(
            sphere.dist(
                action.apply(h1, means[h2].minimizer),
                means[action.compose(h1, h2)].minimizer,
            )
            for h1 in action.elements
            for h2 in action.elements
        )
        proj_defect = max(
            quotient_dist(
                action, QuotientPoint(means[h].minimizer), efm.downstairs_mean
            )
            for h in action.elements
        )
        in_ball = quotient_dist(action, efm.downstairs_mean, center) < cfg.radius
        return (
            max(eq_defect, proj_defect),
            max(m.barycenter_residual for m in means.values()),
            all(m.afsari_certified for m in means.values()),
            in_ball and all(m.multistart_agreement for m in means.values()),
            efm.outer_iterations,
        )

    return _Study(trial)


def _draw_spd_samples(cfg: ExperimentConfig, rng: np.random.Generator):
    """Draw sample_size top-stratum SPD matrices, resampling (and counting)
    the measure-zero near-degenerate draws."""
    samples = []
    resampled = 0
    attempts = 0
    while len(samples) < cfg.sample_size:
        attempts += 1
        if attempts > 1000 * cfg.sample_size:
            raise InvalidInputError("SPD sampler keeps hitting degenerate spectra")
        S = sample_spd(rng, cfg.m, cfg.sigma)
        try:
            eig_canonical(S, cfg.gap_tol)
        except RiemmeanError:
            resampled += 1
            continue
        samples.append(S)
    return samples, resampled


def _solve_psr(cfg: ExperimentConfig, cover, samples, rng: np.random.Generator):
    """The PSR mean of one trial's samples, with the barycenter residual and
    the concentration certificate of its aligned lifts on the cover."""
    with _solving():
        res = psr_mean(
            samples, k=cfg.k, gap_tol=cfg.gap_tol, restarts=cfg.restarts, rng=rng
        )
    lifted = Configuration(cover, tuple(l.to_point(cover) for l in res.aligned_lifts))
    residual, _ = barycenter_check(lifted, res.representative.to_point(cover))
    return res, residual, afsari_certified(lifted)


def _psr_genericity(cfg: ExperimentConfig) -> _Study:
    """Eigen-gap genericity of partial scaling-rotation means.

    Per trial: draw N absolutely continuous SPD samples (``exp`` of a
    symmetric Gaussian scaled by ``sigma``), compute the PSR mean, and
    record the minimal eigenvalue gap of the projected mean.  Atoms below
    ``atom_tol`` would contradict the expected top-stratum behavior.
    """
    if cfg.m not in (2, 3):
        raise InvalidInputError("psr_genericity supports m in {2, 3}")
    cover = cover_manifold(cfg.m, cfg.k)
    resampled = 0

    def trial(rng: np.random.Generator) -> _Row:
        nonlocal resampled
        samples, n = _draw_spd_samples(cfg, rng)
        resampled += n
        res, residual, certified = _solve_psr(cfg, cover, samples, rng)
        return (
            top_stratum_gap(res.representative.spd()),
            residual,
            certified,
            res.unique_up_to_G if cfg.restarts > 0 else None,
            res.outer_iterations,
        )

    return _Study(trial, extras=lambda _: (("degenerate_resamples", str(resampled)),))


def _psr_uniqueness(cfg: ExperimentConfig) -> _Study:
    """Uniqueness of PSR means under concentration.

    Samples are drawn (absolutely continuously, with rejection control) in
    the scaling-rotation ball of radius ``radius`` < sqrt(k) beta_gp / 4
    around the fixed top-stratum center diag(m, ..., 1).  Per trial the PSR
    mean is solved with restarts; recorded are the restart-agreement flag
    and the partial distance from the center fiber to the representative
    (``distance_to_A``), which should stay below ``radius``.
    """
    if cfg.m not in (2, 3):
        raise InvalidInputError("psr_uniqueness supports m in {2, 3}")
    consts = psr_constants(cfg.m, cfg.k)
    if not 0.0 < cfg.radius < consts.r_cx_quotient:
        raise InvalidInputError(
            f"radius must sit in (0, {consts.r_cx_quotient}) for the "
            "uniqueness regime"
        )
    center_spd = np.diag(np.arange(cfg.m, 0, -1, dtype=float))
    cover = cover_manifold(cfg.m, cfg.k)
    center_point = eig_canonical(center_spd, cfg.gap_tol).to_point(cover)
    rejected = 0

    def trial(rng: np.random.Generator) -> _Row:
        nonlocal rejected
        samples = []
        while len(samples) < cfg.sample_size:
            cand = sample_in_ball(rng, cover, center_point, cfg.radius)
            S = EigenPair.from_point(cover, cand).spd()
            try:
                if d_sr(S, center_spd, cfg.k, cfg.gap_tol) >= cfg.radius:
                    rejected += 1
                    continue
            except RiemmeanError:
                rejected += 1
                continue
            samples.append(S)
        res, residual, certified = _solve_psr(cfg, cover, samples, rng)
        return (
            d_psr(center_spd, res.representative, cfg.k, cfg.gap_tol),
            residual,
            certified,
            res.unique_up_to_G,
            res.outer_iterations,
        )

    def extras(records: list[TrialRecord]) -> tuple[tuple[str, str], ...]:
        done = [r for r in records if not r.failed]
        in_ball = sum(r.distance_to_A < cfg.radius for r in done)
        return (
            ("rejected_proposals", str(rejected)),
            ("in_ball_count", str(in_ball)),
            ("in_ball_rate", _fmt(in_ball / len(done)) if done else ""),
        )

    return _Study(trial, extras=extras)


# every experiment the lab runs, by name: `ExperimentConfig` refuses others
_SETUPS = {
    "sphere_genericity": _sphere_genericity,
    "rp2_equivariance": _rp2_equivariance,
    "psr_genericity": _psr_genericity,
    "psr_uniqueness": _psr_uniqueness,
}


def run_experiment(cfg: ExperimentConfig) -> SummaryReport:
    """Run ``cfg.experiment``: set it up once, run its trials in order, each
    from its own `trial_rng` substream, then write the CSV and summary files
    and return the summary."""
    study = _SETUPS[cfg.experiment](cfg)
    records = []
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, trial)
        try:
            records.append(TrialRecord(trial, *study.trial(rng)))
        except _SolveFailed:
            records.append(TrialRecord(trial, failed=True))
    report = _summarize(cfg, records, study.sampler_ac, study.extras(records))
    _write_outputs(cfg, records, report)
    return report
