"""Regenerate ``golden.json``, the outputs every benchmark run is checked against.

    python3 perfbench/freeze.py

Runs each workload at each size it is gated at, for every input variant,
two repetitions at a time, each in a fresh interpreter.  Refuses to write
the file when a ``detect_1k`` run misses an injected fault or fails its
replay digest.  Regenerate only when a change is meant to alter the
gated outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import run

SIZES = {
    "fig10a": ("full", "tiny"),
    "chaos_campaign": ("full", "tiny"),
    "detect_1k": ("full", "tiny"),
}


def freeze(job: tuple) -> dict:
    workload, size, variant = job
    result = run.spawn(workload, variant, size=size)
    if result is None:
        raise SystemExit(f"{workload} {size} variant {variant}: repetition failed")
    if workload == "detect_1k":
        found = result["detect"]
        if not (result["output"]["digest_match"] and found["recall"] == found["precision"] == 1.0):
            raise SystemExit(f"detect_1k {size} variant {variant}: faults not localized")
    print(f"{workload:<15} {size:<5} {variant:>2}  wall {result['wall_s']:6.2f} s", flush=True)
    return result["output"]


def main() -> int:
    jobs = [(w, s, v) for w, sizes in SIZES.items() for s in sizes for v in range(run.VARIANTS)]
    golden: dict = {}
    with ThreadPoolExecutor(max_workers=2) as pool:
        for (workload, size, variant), output in zip(jobs, pool.map(freeze, jobs)):
            golden.setdefault(workload, {}).setdefault(size, {})[str(variant)] = output
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
