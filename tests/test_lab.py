import math

import numpy as np
import pytest

from riemmean import lab, spd
from riemmean.errors import InvalidInputError, NoConvergenceError


def make_cfg(tmp_path, **kw):
    base = dict(
        experiment="sphere_genericity",
        trials=5,
        sample_size=4,
        seed=123,
        out_csv=str(tmp_path / "t.csv"),
        out_summary=str(tmp_path / "s.txt"),
    )
    base.update(kw)
    return lab.ExperimentConfig(**base)


# -- config ------------------------------------------------------------------


def test_parse_config_roundtrip():
    text = """
    # comment line
    experiment = sphere_genericity
    trials = 10          # trailing comment
    sample_size = 5
    seed = 99
    sampler = vmf
    sigma = 2.5
    """
    cfg = lab.parse_config(text)
    assert cfg.experiment == "sphere_genericity"
    assert cfg.trials == 10
    assert cfg.sample_size == 5
    assert cfg.seed == 99
    assert cfg.sampler == "vmf"
    assert cfg.sigma == 2.5
    assert cfg.out_csv == "sphere_genericity_trials.csv"


def test_parse_config_errors():
    with pytest.raises(InvalidInputError):
        lab.parse_config("experiment = sphere_genericity\ntrials = 3\n")  # missing keys
    with pytest.raises(InvalidInputError):
        lab.parse_config("bogus_key = 1\n")
    with pytest.raises(InvalidInputError):
        lab.parse_config(
            "experiment = sphere_genericity\ntrials = x\nsample_size = 1\nseed = 1\n"
        )
    with pytest.raises(InvalidInputError):
        lab.parse_config(
            "experiment = nope\ntrials = 1\nsample_size = 1\nseed = 1\n"
        )


@pytest.mark.parametrize(
    "setting, message",
    [
        ("tol = nan", "tol must be finite"),
        ("atom_tol = nan", "atom_tol must be finite"),
        ("sigma = nan", "sigma must be finite"),
        ("k = inf", "k must be finite"),
        ("radius = -inf", "radius must be finite"),
        ("tol = 0", "tol must be > 0"),
        ("gap_tol = -1e-8", "gap_tol must be > 0"),
        ("atom_tol = 0", "atom_tol must be > 0"),
        ("k = -1", "k must be > 0"),
        ("sigma = -0.5", "sigma must be >= 0"),
    ],
)
def test_parse_config_refuses_bad_numeric_settings(setting, message):
    text = f"experiment = psr_genericity\ntrials = 1\nsample_size = 3\nseed = 1\n{setting}\n"
    with pytest.raises(InvalidInputError, match=message):
        lab.parse_config(text)


def test_trial_rng_substreams_reproducible():
    a = lab.trial_rng(7, 3).standard_normal(4)
    b = lab.trial_rng(7, 3).standard_normal(4)
    c = lab.trial_rng(7, 4).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# -- determinism ----------------------------------------------------------------


def test_byte_identical_reports(tmp_path):
    cfg = make_cfg(tmp_path)
    lab.run_experiment(cfg)
    csv1 = (tmp_path / "t.csv").read_bytes()
    sum1 = (tmp_path / "s.txt").read_bytes()
    lab.run_experiment(cfg)
    assert (tmp_path / "t.csv").read_bytes() == csv1
    assert (tmp_path / "s.txt").read_bytes() == sum1
    # a different seed must change the records
    lab.run_experiment(make_cfg(tmp_path, seed=124))
    assert (tmp_path / "t.csv").read_bytes() != csv1


def test_csv_column_order(tmp_path):
    cfg = make_cfg(tmp_path, trials=2)
    lab.run_experiment(cfg)
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == "trial,distance_to_A,residual,certified,unique,iterations,time_ms"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[-1] == "0"  # time_ms excluded from the reproducible artifact


# -- sphere genericity -------------------------------------------------------------


def test_sphere_genericity_uniform(tmp_path):
    report = lab.run_experiment(make_cfg(tmp_path, trials=10))
    assert report.trials == 10
    assert report.completed + report.solver_failures == 10
    assert report.atom_count + (report.completed - report.atom_count) == report.completed
    assert report.sampler_absolutely_continuous
    assert report.atom_count == 0
    assert report.min_distance > 1e-6
    assert report.max_residual < 10.0 * 1e-10


def test_sphere_genericity_point_mass_inversion(tmp_path):
    report = lab.run_experiment(
        make_cfg(tmp_path, sampler="point_mass_equator", trials=5)
    )
    # degenerate sampler: every mean is exactly on the equator
    assert report.atom_count == report.completed == 5
    assert not report.sampler_absolutely_continuous
    assert report.min_distance == 0.0


def test_sphere_genericity_vmf(tmp_path):
    report = lab.run_experiment(make_cfg(tmp_path, sampler="vmf", sigma=10.0, trials=5))
    assert report.completed == 5
    assert report.atom_count == 0


# -- rp2 ----------------------------------------------------------------------------


def test_rp2_equivariance_run(tmp_path):
    cfg = make_cfg(tmp_path, experiment="rp2_equivariance", radius=0.6, trials=5)
    report = lab.run_experiment(cfg)
    assert report.completed == 5
    # theory says the defects are zero; numerically solver-tolerance sized
    assert report.median_distance < 1e-8
    assert report.uniqueness_rate == 1.0


def test_rp2_radius_guard(tmp_path):
    cfg = make_cfg(
        tmp_path, experiment="rp2_equivariance", radius=math.pi / 4 + 0.01
    )
    with pytest.raises(InvalidInputError):
        lab.run_experiment(cfg)


# -- psr ----------------------------------------------------------------------------


def test_psr_genericity_run(tmp_path):
    cfg = make_cfg(
        tmp_path,
        experiment="psr_genericity",
        trials=3,
        sample_size=5,
        m=2,
        sigma=0.6,
        restarts=1,
    )
    report = lab.run_experiment(cfg)
    assert report.completed == 3
    assert report.atom_count == 0
    assert report.min_distance > 1e-6
    assert dict(report.extras)["degenerate_resamples"] == "0"


def test_psr_uniqueness_run(tmp_path):
    consts_radius = 0.9 * math.pi / 8
    cfg = make_cfg(
        tmp_path,
        experiment="psr_uniqueness",
        trials=3,
        sample_size=6,
        m=2,
        radius=consts_radius,
        restarts=3,
    )
    report = lab.run_experiment(cfg)
    assert report.completed == 3
    assert report.uniqueness_rate == 1.0
    extras = dict(report.extras)
    assert extras["in_ball_count"] == "3"
    # completed trials obey the barycenter bound (10x solver tol)
    assert report.max_residual < 10.0 * cfg.tol


PSR_CONFIGS = {
    "psr_genericity": dict(m=2, sigma=0.6, restarts=1),
    "psr_uniqueness": dict(m=2, radius=0.9 * math.pi / 8, restarts=3),
}


@pytest.mark.parametrize("experiment", sorted(PSR_CONFIGS))
def test_psr_artifacts_identical_with_cold_and_warm_cache(tmp_path, experiment):
    """Two trials of four samples fit the eigendecomposition cache, so the
    second run decomposes nothing afresh and must still write the same
    bytes."""
    cfg = make_cfg(
        tmp_path, experiment=experiment, trials=2, sample_size=4,
        **PSR_CONFIGS[experiment],
    )
    lab.run_experiment(cfg)
    csv1 = (tmp_path / "t.csv").read_bytes()
    sum1 = (tmp_path / "s.txt").read_bytes()
    misses = spd._eig_canonical.cache_info().misses
    lab.run_experiment(cfg)
    assert spd._eig_canonical.cache_info().misses == misses
    assert (tmp_path / "t.csv").read_bytes() == csv1
    assert (tmp_path / "s.txt").read_bytes() == sum1


@pytest.mark.parametrize("experiment", sorted(PSR_CONFIGS))
def test_psr_repeat_run_replays_no_cached_samples(tmp_path, experiment):
    """A run over more matrices than the cache holds evicts its first
    trials' samples before it ends, so an identical second run misses as
    often as the first; only psr_uniqueness's fixed centre stays cached."""
    cfg = make_cfg(
        tmp_path, experiment=experiment, trials=3, sample_size=10,
        **PSR_CONFIGS[experiment],
    )
    lab.run_experiment(cfg)
    first = spd._eig_canonical.cache_info().misses
    lab.run_experiment(cfg)
    second = spd._eig_canonical.cache_info().misses - first
    assert second == first - (experiment == "psr_uniqueness")


def test_psr_uniqueness_radius_guard(tmp_path):
    cfg = make_cfg(
        tmp_path,
        experiment="psr_uniqueness",
        trials=1,
        m=2,
        radius=math.pi / 8 + 0.01,
    )
    with pytest.raises(InvalidInputError):
        lab.run_experiment(cfg)


# -- the driver's contract ------------------------------------------------------

EXPERIMENT_CONFIGS = {
    "sphere_genericity": dict(),
    "rp2_equivariance": dict(radius=0.6),
    **PSR_CONFIGS,
}
# the solver whose errors fail a trial, per experiment
SOLVERS = {
    "sphere_genericity": "frechet_mean",
    "rp2_equivariance": "frechet_mean",
    "psr_genericity": "psr_mean",
    "psr_uniqueness": "psr_mean",
}


def small_cfg(tmp_path, experiment, trials=3):
    return make_cfg(
        tmp_path, experiment=experiment, trials=trials, sample_size=4,
        **EXPERIMENT_CONFIGS[experiment],
    )


@pytest.mark.parametrize("experiment", sorted(EXPERIMENT_CONFIGS))
def test_solver_error_fails_only_its_trial(tmp_path, monkeypatch, experiment):
    """A `RiemmeanError` from the solve of trial 1 gives a failed row with
    empty fields, counts one solver failure, and the later trials run."""
    name = SOLVERS[experiment]
    solver = getattr(lab, name)
    current = []
    real_rng = lab.trial_rng

    def tracking_rng(seed, trial):
        current.append(trial)
        return real_rng(seed, trial)

    def failing(*args, **kwargs):
        if current[-1] == 1:
            raise NoConvergenceError("injected")
        return solver(*args, **kwargs)

    monkeypatch.setattr(lab, "trial_rng", tracking_rng)
    monkeypatch.setattr(lab, name, failing)
    report = lab.run_experiment(small_cfg(tmp_path, experiment))
    assert report.solver_failures == 1
    assert report.completed == 2
    rows = (tmp_path / "t.csv").read_text().splitlines()[1:]
    assert rows[1] == "1,,,,,0,0"
    for i in (0, 2):
        fields = rows[i].split(",")
        assert fields[0] == str(i)
        assert all(fields[1:3]) and fields[3] in ("0", "1")
    assert current == [0, 1, 2]


@pytest.mark.parametrize(
    "experiment, sampler, fake, message",
    [
        ("psr_genericity", "sample_spd", lambda rng, m, sigma: np.eye(m),
         "keeps hitting degenerate spectra"),
        ("sphere_genericity", "sample_sphere_uniform", None, "injected"),
    ],
    ids=["psr_genericity", "sphere_genericity"],
)
def test_sampler_error_ends_the_run_without_files(tmp_path, monkeypatch, experiment,
                                                   sampler, fake, message):
    def refusing(*args, **kwargs):
        raise InvalidInputError("injected sampler refusal")

    monkeypatch.setattr(lab, sampler, fake or refusing)
    with pytest.raises(InvalidInputError, match=message):
        lab.run_experiment(small_cfg(tmp_path, experiment))
    assert not (tmp_path / "t.csv").exists()
    assert not (tmp_path / "s.txt").exists()


@pytest.mark.parametrize("experiment", sorted(EXPERIMENT_CONFIGS))
def test_trial_rng_opens_each_trial_and_summarize_precedes_writing(
    tmp_path, monkeypatch, experiment
):
    """The per-trial stream is drawn once per trial, in order, before the
    trial's solve; the summary is made once, after the last trial and before
    the files are written."""
    events = []

    def logging(name, fn):
        def wrapper(*args, **kwargs):
            events.append(name if name != "trial_rng" else (name, args[1]))
            return fn(*args, **kwargs)

        return wrapper

    for name in ("trial_rng", "_summarize", "_write_outputs", SOLVERS[experiment]):
        monkeypatch.setattr(lab, name, logging(name, getattr(lab, name)))
    lab.run_experiment(small_cfg(tmp_path, experiment, trials=4))
    opened = [e[1] for e in events if isinstance(e, tuple)]
    assert opened == [0, 1, 2, 3]
    assert events[0] == ("trial_rng", 0)
    assert events[-2:] == ["_summarize", "_write_outputs"]
    assert events.count("_summarize") == 1
    trials = [[]]
    for e in events[1:-2]:
        if isinstance(e, tuple):
            trials.append([])
        else:
            trials[-1].append(e)
    assert all(t and set(t) == {SOLVERS[experiment]} for t in trials)


def test_summary_text_fields(tmp_path):
    report = lab.run_experiment(make_cfg(tmp_path, trials=3))
    text = report.to_text()
    for key in (
        "experiment=",
        "seed=",
        "trials=",
        "atom_count=",
        "min_distance_to_A=",
        "median_distance_to_A=",
        "uniqueness_rate=",
        "config.experiment=",
        "config.tol=",
    ):
        assert key in text
