"""Regenerate references.json, the per-trial reference of the correctness
gate.

Usage (from the repository root): PYTHONPATH=src python3 perfbench/make_reference.py

For every workload and for the default and held-out seeds it records
``[distance_to_A, iterations]`` of the first ``ref_trials`` trials of the
seed's first run_experiment call (``null`` distance for a failed trial).
Regenerate only with a change that is meant to alter the results, and say
so in that change.
"""

import json
import tempfile

from worker import REFERENCES, Call, TrialClock
from workloads import DEFAULT_SEED, HELDOUT_SEED, WORKLOADS, experiment_seed


def main() -> None:
    clock = TrialClock()
    clock.install()
    refs = {}
    with tempfile.TemporaryDirectory() as out_dir:
        for name, wl in WORKLOADS.items():
            refs[name] = {}
            for seed in (DEFAULT_SEED, HELDOUT_SEED):
                call = Call(wl, experiment_seed(seed, 0), wl.ref_trials, out_dir, clock)
                errors = call.gate(wl)
                if errors:
                    raise SystemExit(f"{name} seed {seed}: {errors}")
                refs[name][str(seed)] = [list(row) for row in call.rows]
    # one trial per line keeps diffs of this file readable
    blocks = []
    for name, seeds in refs.items():
        seed_blocks = [
            f'  "{seed}": [\n' + ",\n".join(f"   {json.dumps(r)}" for r in rows) + "\n  ]"
            for seed, rows in seeds.items()
        ]
        blocks.append(f' "{name}": {{\n' + ",\n".join(seed_blocks) + "\n }")
    REFERENCES.write_text("{\n" + ",\n".join(blocks) + "\n}\n")

if __name__ == "__main__":
    main()
