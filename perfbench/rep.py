"""One benchmark repetition, in the fresh interpreter ``run.py`` starts.

Usage::

    python3 perfbench/rep.py --workload detect_1k --variant 3 --size full \
        --trace 0 --t0 <time.time() of the parent just before spawning>

Prints one JSON object on its last line of standard output.

Every time it reports is in reference seconds (``speed.py``): the speed
sampler starts before the first heavy import and runs until the
workload ends.  ``setup_s`` runs from ``--t0`` (so it includes
interpreter start and imports) through workload construction, minus
input generation; the interpreter's start, before the first sample, is
converted at the speed of the first samples.  ``--setup-only`` stops there; it gives
``run.py`` extra set-up samples without paying for another full run.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import speed  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--variant", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    launched = time.perf_counter() - (time.time() - args.t0)
    clock = speed.SpeedClock()
    clock.start()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    import numpy

    import detect
    import workloads
    from repro.obs.metrics import DEFAULT_REGISTRY, MetricsRegistry

    registry = MetricsRegistry()
    imported = time.perf_counter()

    state = {}
    if args.workload == "detect_1k" and not args.setup_only:
        state["data"] = detect.generate(args.variant, detect.SIZES[args.size])
    started = time.perf_counter()
    state.update(workloads.SETUP[args.workload](args.variant, args.size, registry))
    built = time.perf_counter()
    outcome = None
    if not args.setup_only:
        outcome = workloads.RUN[args.workload](state)
        finished = time.perf_counter()
    clock.stop()
    setup_s = clock.seconds(launched, imported) + clock.seconds(started, built)
    result = {"setup_s": setup_s, "speed_samples": clock.samples()}
    if outcome is not None:
        if "detect" in outcome:
            to_seconds(clock, outcome["detect"])
        result["wall_s"] = clock.seconds(built, finished)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.update(outcome)
        result["numpy"] = numpy.__version__
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer, [registry, DEFAULT_REGISTRY])
            result["details"] = tracing.details(tracer)
    print(json.dumps(result))
    return 0


def to_seconds(clock, found: dict) -> None:
    """Replace the detect loop's wall intervals with reference seconds."""
    found["ingest_s"] = sum(clock.seconds(a, b) for a, b in found.pop("ingest_spans"))
    found["eval_s"] = [clock.seconds(a, b) for a, b in found.pop("eval_spans")]
    found["recovery_s"] = [clock.seconds(a, b) for a, b in found.pop("recovery_spans")]


if __name__ == "__main__":
    sys.exit(main())
