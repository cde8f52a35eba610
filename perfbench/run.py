"""riemmean benchmark: Monte Carlo trial throughput of ``riemmean.lab``.

Usage, from the repository root:

    python3 perfbench/run.py --workload sphere_s2_uniform
        [--seed 2023] [--seconds 30] [--trace 0|1]

Workloads (why each was chosen: see workloads.py): sphere_s2_uniform,
psr_m3_generic, psr_m2_ball.

``--trace 0`` prints the end-to-end metrics, all from untraced code:

* trials_per_s   -- completed trials per wall second of one run_experiment
                    call (sampling, solving, certification and the artifact
                    write), median over the calls of the run;
* trial_ms_p50   -- median wall time of one trial, timed from outside as
                    the interval between the lab's trial_rng calls;
* trial_ms_tail  -- the workload's tail percentile of trial time, with at
                    least ten trials above it; on sphere_s2_uniform and
                    psr_m2_ball the median of the percentiles of the run's
                    three thirds (the percentile and the parts are in
                    "info");
* setup_s        -- median over fresh processes of the time to import
                    riemmean and build the workload's config, manifold and
                    group action;
* peak_rss_mb    -- peak resident memory of the measuring process;
* completed_frac -- completed trials / attempted trials.

``--trace 1`` prints the per-layer metrics (worker.py), taken by wrapping the
package's functions from outside, and trace.overhead_frac.

Every run passes the correctness gate or exits 1 without printing a result:
each run_experiment call must have completed + solver_failures == trials,
no atoms, max_residual below 1e-9 and, on psr_m2_ball, uniqueness_rate 1;
the first trials of the default seed (and of the run's seed, when it has
one) must match references.json; traced runs must meet exact call-count
identities.  Exit 2: no riemmean source tree next to this directory.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the revision, the Python and
numpy versions, nproc and the thread environment of the child processes,
which all run with one BLAS/OpenMP thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, HELDOUT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 4
WORKER_TIMEOUT_S = 140
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
E2E_ORDER = ("trials_per_s", "trial_ms_p50", "trial_ms_tail", "setup_s",
             "peak_rss_mb", "completed_frac")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(args: list[str], env: dict, cwd: Path, timeout: float) -> str:
    try:
        proc = subprocess.run(
            [sys.executable, *args], env=env, cwd=cwd, capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{Path(args[0]).name} timed out after {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{Path(args[0]).name} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def revision() -> dict:
    """Git revision when the tree is a checkout, and a digest of the
    package sources either way."""
    git_rev = None
    try:
        git_rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "riemmean").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {"git_rev": git_rev, "src_sha256": digest.hexdigest()[:16]}


def measure(args, env: dict, tmp: Path) -> tuple[dict, dict]:
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "default_seed": DEFAULT_SEED,
            "heldout_seed": HELDOUT_SEED, **revision(),
            "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0))}
    result = json.loads(run_child(
        [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(tmp)],
        env, tmp, WORKER_TIMEOUT_S,
    ))
    info.update(result["info"])
    if result["gate_failures"]:
        raise BenchError("correctness gate failed:\n  " + "\n  ".join(result["gate_failures"]))
    metrics = result["metrics"]
    if not args.trace:
        probes = [
            float(run_child([str(HERE / "setup_probe.py"), args.workload], env, tmp,
                            PROBE_TIMEOUT_S))
            for _ in range(SETUP_PROBES)
        ]
        info["setup_probes_s"] = probes
        metrics["setup_s"] = {"value": statistics.median(probes), "unit": "s"}
        metrics = {k: metrics[k] for k in E2E_ORDER}
    return info, {"correct": True, "attempted": result["attempted"],
                  "failed": result["failed"], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "riemmean" / "__init__.py").is_file():
        print(f"no riemmean sources under {SRC}", file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        info, result = measure(args, child_env(), tmp)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
