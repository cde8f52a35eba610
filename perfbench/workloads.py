"""Workload table of the riemmean benchmark.

The table needs only the standard library (run.py reads it); `make_config`
and `build_static` import riemmean.

Every workload is one closed loop in one process and one thread: the
benchmark calls ``riemmean.lab.run_experiment`` again only after the previous
call returned.  Call ``j`` of a run with benchmark seed ``s`` uses the
experiment seed ``experiment_seed(s, j)``; the lab derives every trial's
random stream from that seed and the trial index, so the same benchmark seed
always gives the same inputs.

Why each workload is here (measured with cProfile on 2 cores):

* ``sphere_s2_uniform`` -- the C9 configuration (S^2, uniform sampler,
  N=5).  Each trial runs 25 multistart Karcher descents on a vector manifold
  through the batched ``_log_block`` kernel; ``frechet.karcher_descent`` is
  about 91% of the time.  It exercises ``frechet`` alone and bypasses
  ``equivariant``, ``spd`` and the SO(m) kernels, so a change to those must
  leave it unchanged.
* ``psr_m3_generic`` -- the first half of C10 (m=3, N=10, sigma=0.5,
  restarts=1).  The 24-element orbit scan over per-point Product/SO(3)
  distances dominates (``equivariant._scan_orbits`` about 69%), and the
  Product fallback loops in ``_descent_state`` and ``afsari_certificate``
  run here.  A batched SO(m) kernel or a stacked orbit scan shows most here.
* ``psr_m2_ball`` -- the second half of C10 (m=2, N=10, radius
  0.9 r_cx_quotient, restarts=5).  Same layers as ``psr_m3_generic`` in
  other proportions: a 4-element group, six ``efm_solve`` calls per trial
  from random inits, few outer iterations on concentrated data, and a
  rejection sampler heavy in ``d_sr``.  A change that speeds up large orbit
  scans at the price of per-call set-up shows as a loss here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# The seed the benchmark uses when none is given, and a seed held out while
# the benchmark was written; per-trial reference results for both are kept
# in references.json.
DEFAULT_SEED = 2023
HELDOUT_SEED = 4099

# Every mean's barycenter residual must stay below C3's threshold.
MAX_RESIDUAL = 1e-9
# Per-trial reference tolerances.  distance_to_A may move by last-bit
# changes of the solver (summation order, batching): the descent stops at a
# gradient norm of 1e-10, and reordering the sums of the Karcher descent
# moved sphere distances by at most 4e-10.  Iteration counts are fragile on
# S^2 with N=5, where the descent is often slow and near-equal seeds compete:
# the same reordering changed the count of 25-35% of sphere trials by more
# than one, while a step size of 0.9 instead of 1 changed 93-100% of them.
# So a trial's count matches when within REF_ITER_TOL of the reference, and
# at least REF_ITER_MATCH of the trials must match.
REF_ABS_TOL = 1e-8
REF_REL_TOL = 1e-8
REF_ITER_TOL = 1
REF_ITER_MATCH = 1 / 3


@dataclass(frozen=True)
class Workload:
    experiment: str
    params: dict = field(default_factory=dict)
    # psr_uniqueness radius as a share of psr_constants(m, k).r_cx_quotient
    radius_frac: float | None = None
    trials_per_call: int = 1
    # trials of the reference check (a prefix of call 0)
    ref_trials: int = 1
    # run_experiment calls measured untraced and then traced by --trace 1
    trace_calls: int = 1
    # trial_ms_tail is the median over `tail_parts` consecutive parts of a
    # run of each part's `tail_pct` percentile.  A slow spell of the shared
    # host inflates the longest trials most; split in three, a spell shorter
    # than a third of the run does not set the tail.  At the sizes below, a
    # 30 s run keeps ten trials above the percentile in each part down to
    # 0.5x (sphere_s2_uniform) and 0.7x (the psr workloads) of the speeds in
    # baseline.json; a slower run lowers the percentile along TAIL_LADDER.
    tail_pct: int = 90
    tail_parts: int = 1
    # multistart seeds per trial of frechet_mean: N data points + 20
    karcher_seeds_per_trial: int | None = None


WORKLOADS: dict[str, Workload] = {
    "sphere_s2_uniform": Workload(
        experiment="sphere_genericity",
        params=dict(sample_size=5, sampler="uniform"),
        trials_per_call=40,
        ref_trials=30,
        trace_calls=4,
        tail_pct=90,
        tail_parts=3,
        karcher_seeds_per_trial=5 + 20,
    ),
    "psr_m3_generic": Workload(
        experiment="psr_genericity",
        params=dict(sample_size=10, sigma=0.5, m=3, restarts=1),
        trials_per_call=3,
        ref_trials=3,
        trace_calls=5,
        tail_pct=80,
    ),
    "psr_m2_ball": Workload(
        experiment="psr_uniqueness",
        params=dict(sample_size=10, m=2, k=1.0, restarts=5),
        radius_frac=0.9,
        trials_per_call=6,
        ref_trials=6,
        trace_calls=10,
        tail_pct=80,
        tail_parts=3,
    ),
}


def experiment_seed(seed: int, call: int) -> int:
    """Experiment seed of the ``call``-th run_experiment call of a run."""
    return seed * 1000 + call


def make_config(wl: Workload, exp_seed: int, trials: int, out_dir: str = "."):
    """The lab configuration of one run_experiment call (imports riemmean)."""
    from riemmean import lab, spd

    params = dict(wl.params)
    if wl.radius_frac is not None:
        consts = spd.psr_constants(params["m"], params.get("k", 1.0))
        params["radius"] = wl.radius_frac * consts.r_cx_quotient
    return lab.ExperimentConfig(
        experiment=wl.experiment,
        trials=trials,
        seed=exp_seed,
        out_csv=f"{out_dir}/trials.csv",
        out_summary=f"{out_dir}/summary.txt",
        **params,
    )


def build_static(wl: Workload):
    """The static objects a workload needs before its first trial: the
    config, the manifold and, for PSR workloads, the group action."""
    from riemmean import manifolds, spd

    cfg = make_config(wl, experiment_seed(DEFAULT_SEED, 0), wl.trials_per_call)
    if cfg.experiment == "sphere_genericity":
        return cfg, manifolds.Sphere(2), None
    return cfg, spd.cover_manifold(cfg.m, cfg.k), spd.gm_action(cfg.m, cfg.k)
