"""One measured run of one workload; started by run.py in its own process.

Usage: python3 perfbench/worker.py --workload W --seed N --seconds S
           --trace 0|1 --out DIR

Prints one JSON object: the correctness-gate failures, the trial counts and
the metrics.  Untraced (``--trace 0``) it repeats run_experiment calls for
``S`` seconds and reports the end-to-end metrics.  Traced (``--trace 1``) it
runs the workload's ``trace_calls`` calls untraced, then the same calls with
every layer wrapped, and reports the per-layer metrics and the tracing
overhead.  Both first check a prefix of the default seed's call 0 against
references.json, which also warms the process up.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from riemmean import core, equivariant, frechet, lab, manifolds, spd

import tracer
from workloads import (
    DEFAULT_SEED,
    MAX_RESIDUAL,
    REF_ABS_TOL,
    REF_ITER_MATCH,
    REF_ITER_TOL,
    REF_REL_TOL,
    WORKLOADS,
    Workload,
    experiment_seed,
    make_config,
)

perf_counter = time.perf_counter
REFERENCES = Path(__file__).with_name("references.json")
TAIL_LADDER = (99, 98, 95, 90, 85, 80, 75, 50)
# spans whose time, when called directly by run_experiment, is solver time;
# the rest of a trial is sampling and bookkeeping (lab.sample_s)
SOLVER_SPANS = (
    "frechet.frechet_mean",
    "frechet.barycenter_check",
    "frechet.afsari_certificate",
    "spd.psr_mean",
)
# (span, reported fields): "s" is total time, "self_s" excludes wrapped callees
SPAN_METRICS = (
    ("equivariant.scan_orbits", ("calls", "self_s")),
    ("equivariant.efm_solve", ("calls", "s")),
    ("core.rotation_angles", ("calls", "self_s")),
    ("core.rotation_log", ("calls", "self_s")),
    ("core.rotation_exp", ("calls",)),
    ("manifolds.product_dist", ("calls", "self_s")),
    ("manifolds.log_block", ("calls",)),
    ("manifolds.dist_block", ("calls",)),
    ("frechet.frechet_mean", ("calls", "s")),
    ("frechet.karcher_descent", ("calls", "self_s")),
    ("frechet.descent_state", ("calls", "self_s")),
    ("frechet.barycenter_check", ("calls", "s")),
    ("frechet.afsari_certificate", ("calls", "s")),
    ("spd.psr_mean", ("calls", "s")),
    ("spd.gm_action", ("calls", "s")),
    ("spd.eig_canonical", ("calls", "s")),
    ("spd.d_sr", ("calls", "s")),
    ("lab.run_experiment", ("s",)),
    ("lab.write_outputs", ("s",)),
)


class TrialClock:
    """Per-trial wall times taken from outside the lab.

    A trial opens at the lab's ``trial_rng(seed, i)`` call and closes at the
    next one; the last trial closes at ``_summarize`` (or, if the lab no
    longer has it, when run_experiment returns).
    """

    def __init__(self):
        self.durations: list[float] = []
        self._open: float | None = None

    def _mark(self) -> None:
        now = perf_counter()
        if self._open is not None:
            self.durations.append(now - self._open)
        self._open = now

    def _close(self) -> None:
        if self._open is not None:
            self.durations.append(perf_counter() - self._open)
            self._open = None

    def take(self) -> list[float]:
        self._close()
        out, self.durations = self.durations, []
        return out

    def install(self) -> None:
        def before(hook):
            def make(fn):
                def wrapper(*args, **kwargs):
                    hook()
                    return fn(*args, **kwargs)

                return wrapper

            return make

        if not tracer.patch(lab, "trial_rng", before(self._mark)):
            raise SystemExit("riemmean.lab.trial_rng is gone: trials cannot be timed")
        tracer.patch(lab, "_summarize", before(self._close))


class Call:
    """One run_experiment call: its summary, wall time, per-trial times and
    the per-trial (distance_to_A, iterations) rows of its CSV."""

    def __init__(self, wl: Workload, exp_seed: int, trials: int, out_dir: str,
                 clock: TrialClock):
        self.cfg = make_config(wl, exp_seed, trials, out_dir)
        clock.take()
        t0 = perf_counter()
        self.report = lab.run_experiment(self.cfg)
        self.wall = perf_counter() - t0
        self.durations = clock.take()
        with open(self.cfg.out_csv, newline="") as f:
            self.rows = [
                (float(r["distance_to_A"]) if r["distance_to_A"] else None,
                 int(r["iterations"]))
                for r in csv.DictReader(f)
            ]

    def gate(self, wl: Workload) -> list[str]:
        r, cfg = self.report, self.cfg
        where = f"seed {cfg.seed}"
        errors = []
        if r.completed + r.solver_failures != cfg.trials:
            errors.append(f"{where}: completed + solver_failures != trials")
        if r.atom_count != 0:
            errors.append(f"{where}: atom_count={r.atom_count}")
        if r.completed and not (r.max_residual is not None and r.max_residual < MAX_RESIDUAL):
            errors.append(f"{where}: max_residual={r.max_residual} not below {MAX_RESIDUAL}")
        if wl.experiment == "psr_uniqueness" and r.uniqueness_rate != 1.0:
            errors.append(f"{where}: uniqueness_rate={r.uniqueness_rate}")
        if len(self.rows) != cfg.trials:
            errors.append(f"{where}: CSV has {len(self.rows)} rows for {cfg.trials} trials")
        if len(self.durations) != cfg.trials:
            errors.append(f"{where}: timed {len(self.durations)} of {cfg.trials} trials")
        return errors


def compare_rows(rows, reference, where: str) -> list[str]:
    """Per-trial check against the reference: same failed trials, each
    distance_to_A within tolerance, and enough matching iteration counts."""
    errors = []
    pairs = list(zip(rows, reference))
    for i, ((d, _), (rd, _)) in enumerate(pairs):
        if (d is None) != (rd is None):
            errors.append(f"{where} trial {i}: failed={d is None}, reference {rd is None}")
        elif d is not None and abs(d - rd) > REF_ABS_TOL + REF_REL_TOL * abs(rd):
            errors.append(f"{where} trial {i}: distance_to_A {d!r} != reference {rd!r}")
    matched = sum(abs(it - rit) <= REF_ITER_TOL for (_, it), (_, rit) in pairs)
    if matched < REF_ITER_MATCH * len(reference):
        errors.append(f"{where}: iterations match the reference in {matched} of "
                      f"{len(reference)} trials")
    if len(rows) < len(reference):
        errors.append(f"{where}: {len(rows)} trials for {len(reference)} in the reference")
    return errors


def default_reference(wl: Workload, refs: dict, out_dir: str,
                      clock: TrialClock) -> list[str]:
    """Run the first trials of the default seed's call 0 and compare them
    with their reference; this also warms the process up."""
    call = Call(wl, experiment_seed(DEFAULT_SEED, 0), wl.ref_trials, out_dir, clock)
    return call.gate(wl) + compare_rows(call.rows, refs[str(DEFAULT_SEED)],
                                        f"seed {DEFAULT_SEED}")


def tail(durations: list[float], pct: int, parts: int) -> tuple[float, int]:
    """The median over ``parts`` consecutive parts of the run of each part's
    percentile ``pct``, lowered along TAIL_LADDER until at least ten trials
    of each part lie above it; returns (seconds, percentile)."""
    n = len(durations)
    ladder = [p for p in TAIL_LADDER if p <= pct]
    p = next((q for q in ladder if n // parts * (100 - q) >= 1000), ladder[-1])
    return statistics.median(
        statistics.quantiles(durations[i * n // parts:(i + 1) * n // parts], n=100,
                             method="inclusive")[p - 1]
        for i in range(parts)
    ), p


def timed_calls(wl, seed, out_dir, clock, seconds) -> list[Call]:
    """As many calls as start within ``seconds``."""
    calls: list[Call] = []
    start = perf_counter()
    while not calls or perf_counter() - start < seconds:
        calls.append(Call(wl, experiment_seed(seed, len(calls)), wl.trials_per_call,
                          out_dir, clock))
    return calls


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl: Workload, calls: list[Call]) -> tuple[dict, dict]:
    durations = [d for c in calls for d in c.durations]
    tail_s, pct = tail(durations, wl.tail_pct, wl.tail_parts)
    trials = sum(c.cfg.trials for c in calls)
    completed = sum(c.report.completed for c in calls)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "trials_per_s": metric(statistics.median(c.report.completed / c.wall for c in calls), "1/s"),
        "trial_ms_p50": metric(1e3 * statistics.median(durations), "ms"),
        "trial_ms_tail": metric(1e3 * tail_s, "ms"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
        "completed_frac": metric(completed / trials, "ratio"),
    }
    info = {"calls": len(calls), "trials": trials, "tail_percentile": pct,
            "tail_parts": wl.tail_parts, "calls_wall_s": sum(c.wall for c in calls)}
    return metrics, info


def wrap_layers(tr: tracer.Tracer) -> None:
    def count_orbit_evals(args, kwargs):
        orbits = kwargs["orbits"] if "orbits" in kwargs else args[1]
        tr.count("equivariant.orbit_dist_evals", sum(len(o) for o in orbits))

    def add(counter, attr):
        return lambda result: tr.count(counter, getattr(result, attr))

    tr.wrap(equivariant, "_scan_orbits", "equivariant.scan_orbits",
            on_call=count_orbit_evals)
    tr.wrap(equivariant, "efm_solve", "equivariant.efm_solve",
            on_return=add("equivariant.outer_iterations", "outer_iterations"))
    for fn in ("rotation_angles", "rotation_log", "rotation_exp"):
        tr.wrap(core, fn, f"core.{fn}")
    tr.wrap(manifolds.Product, "_dist", "manifolds.product_dist")
    kinds = [c for c in vars(manifolds).values()
             if isinstance(c, type) and issubclass(c, manifolds.Manifold)]
    tr.wrap_methods(kinds, "_log_block", "manifolds.log_block")
    tr.wrap_methods(kinds, "_dist_block", "manifolds.dist_block")
    tr.wrap(frechet, "frechet_mean", "frechet.frechet_mean")
    tr.wrap(frechet, "karcher_descent", "frechet.karcher_descent",
            on_return=add("frechet.karcher_descent.iterations", "iterations"))
    tr.wrap(frechet, "_descent_state", "frechet.descent_state")
    tr.wrap(frechet, "barycenter_check", "frechet.barycenter_check")
    tr.wrap(frechet, "afsari_certificate", "frechet.afsari_certificate")
    for fn in ("psr_mean", "gm_action", "eig_canonical", "d_sr"):
        tr.wrap(spd, fn, f"spd.{fn}")
    tr.wrap(lab, "run_experiment", "lab.run_experiment")
    tr.wrap(lab, "_write_outputs", "lab.write_outputs")


def traced_calls(wl, seed, out_dir, clock) -> tuple[list[Call], list[Call], tracer.Tracer]:
    """The workload's ``trace_calls`` calls, each run untraced and then
    traced, so that slow spells of the machine hit both sides alike."""
    tr = tracer.Tracer(root_parent="lab.run_experiment")
    untraced, traced = [], []
    for j in range(wl.trace_calls):
        untraced.append(Call(wl, experiment_seed(seed, j), wl.trials_per_call, out_dir, clock))
        wrap_layers(tr)
        try:
            traced.append(Call(wl, experiment_seed(seed, j), wl.trials_per_call, out_dir, clock))
        finally:
            tr.remove()
    return untraced, traced, tr


def per_layer(tr: tracer.Tracer, calls: list[Call]) -> dict:
    out = {}
    for name, fields in SPAN_METRICS:
        if not tr.present(name):
            continue
        st = tr.spans[name]
        values = {"calls": (st.calls, "count"), "s": (st.total, "s"),
                  "self_s": (st.self_time, "s")}
        for field in fields:
            out[f"{name}.{field}"] = metric(*values[field])

    def counter(metric_name, span):
        if tr.present(span):
            out[metric_name] = metric(tr.counters.get(metric_name, 0), "count")

    counter("equivariant.orbit_dist_evals", "equivariant.scan_orbits")
    counter("equivariant.outer_iterations", "equivariant.efm_solve")
    counter("frechet.karcher_descent.iterations", "frechet.karcher_descent")
    if tr.present("frechet.karcher_descent"):
        kd = tr.spans["frechet.karcher_descent"]
        out["frechet.karcher_descent.fail_frac"] = metric(
            kd.raised / kd.calls if kd.calls else 0.0, "ratio")
        if tr.present("frechet.descent_state"):
            iterations = tr.counters.get("frechet.karcher_descent.iterations", 0)
            evals = tr.spans["frechet.descent_state"].calls
            out["frechet.evals_per_iter"] = metric(
                evals / iterations if iterations else 0.0, "ratio")
    trial_s = sum(d for c in calls for d in c.durations)
    solver_s = sum(tr.spans[s].under_parent for s in SOLVER_SPANS if tr.present(s))
    out["lab.sample_s"] = metric(trial_s - solver_s, "s")
    return out


def identities(wl: Workload, tr: tracer.Tracer, calls: list[Call]) -> list[str]:
    """Exact call counts that hold whenever every wrapper is in place; a
    wrapper that came loose breaks them.  Absent spans are skipped."""
    trials = sum(c.cfg.trials for c in calls)
    nothing_failed = all(c.report.solver_failures == 0 for c in calls)
    expected = {}
    if wl.karcher_seeds_per_trial is not None:
        expected["frechet.karcher_descent"] = trials * wl.karcher_seeds_per_trial
    else:
        expected["spd.psr_mean"] = trials
        if nothing_failed:
            expected["equivariant.efm_solve"] = trials * (1 + wl.params["restarts"])
    return [
        f"identity {span}.calls == {want} broken: {tr.spans[span].calls}"
        for span, want in expected.items()
        if tr.present(span) and tr.spans[span].calls != want
    ]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]
    clock = TrialClock()
    clock.install()
    info = {
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }
    refs = json.loads(REFERENCES.read_text())[args.workload]
    errors = default_reference(wl, refs, args.out, clock)
    if not args.trace:
        calls = timed_calls(wl, args.seed, args.out, clock, args.seconds)
        metrics, info["run"] = end_to_end(wl, calls)
    else:
        untraced, calls, tr = traced_calls(wl, args.seed, args.out, clock)
        metrics = per_layer(tr, calls)
        traced_tps = sum(c.report.completed for c in calls) / sum(c.wall for c in calls)
        plain_tps = sum(c.report.completed for c in untraced) / sum(c.wall for c in untraced)
        metrics["trace.overhead_frac"] = metric(1.0 - traced_tps / plain_tps, "ratio")
        errors += identities(wl, tr, calls)
        errors += [e for c in untraced for e in c.gate(wl)]
        info["absent"] = sorted(tr.absent)
        info["run"] = {"calls": len(calls), "trials": sum(c.cfg.trials for c in calls)}
    errors += [e for c in calls for e in c.gate(wl)]
    if str(args.seed) in refs:
        errors += compare_rows(calls[0].rows, refs[str(args.seed)], f"seed {args.seed}")
    print(json.dumps({
        "gate_failures": errors,
        "attempted": sum(c.cfg.trials for c in calls),
        "failed": sum(c.report.solver_failures for c in calls),
        "metrics": metrics,
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
