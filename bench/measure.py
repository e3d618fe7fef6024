"""The measuring process of the benchmark, started by ``run.py``.

It imports ``dfqre``, builds the workload from the manifest ``run.py``
wrote, warms it up on a tiny input and prints ``ready``: everything before
that line is set-up. With ``--setup-only`` it stops there. Otherwise it
runs timed passes until ``--seconds`` of pass time and at least
``MIN_PASSES`` passes have accumulated, checks each pass's outputs after
its timed region, and prints one JSON line of raw measurements: wall
times, calibration loop times around them, spans and check results.

With ``--trace 1`` the passes alternate between untraced and traced; the
traced ones give per-layer spans, and the pair gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

from calibrate import Calibration

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# pass time between runs of the calibration loop; longer passes get one
# run each
CALIBRATE_EVERY_S = 1.0


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_pass(workload, k: int) -> tuple[float, object]:
    start = time.perf_counter()
    outputs = workload.run_pass(k)
    return time.perf_counter() - start, outputs


def run(workload, seconds: float, trace: bool) -> dict:
    """Timed passes, each followed by its check. The calibration loop runs
    before the first pass and again whenever ``CALIBRATE_EVERY_S`` of pass
    time has gone by since it last ran, and after the last pass; pass i lies
    between calibration samples ``calibrated[i]`` and ``calibrated[i] + 1``.
    With ``trace`` every second pass is traced and yields a span summary."""
    if trace:
        from spans import Tracer
    with Calibration() as calibration:
        calibration.measure()
        min_passes = 2 * MIN_TRACED_PASSES if trace else MIN_PASSES
        pass_s, calibrated, layers = [], [], []
        attempted, failures, rss, since = 0, [], 0.0, 0.0
        while len(pass_s) < min_passes or sum(pass_s) < seconds:
            k = len(pass_s)
            calibrated.append(len(calibration.samples) - 1)
            if trace and k % 2:
                with Tracer() as tracer:
                    elapsed, outputs = timed_pass(workload, k)
                layers.append(tracer.summary(elapsed))
            else:
                elapsed, outputs = timed_pass(workload, k)
                rss = max(rss, peak_rss_mb())
            pass_s.append(elapsed)
            since += elapsed
            if since >= CALIBRATE_EVERY_S:
                calibration.measure()
                since = 0.0
            count, failed = workload.check(outputs)
            del outputs
            attempted += count
            failures += failed
        if since:
            calibration.measure()
    return {"pass_s": pass_s, "calibration_s": calibration.samples,
            "calibrated": calibrated, "layers": layers, "attempted": attempted,
            "failures": failures, "peak_rss_mb": rss}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import dfqre  # noqa: F401  (import time is part of set-up)
    from workloads import WORKLOADS

    with open(args.manifest) as handle:
        manifest = json.load(handle)
    workload = WORKLOADS[args.workload](manifest)
    workload.warm()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    print(json.dumps(run(workload, args.seconds, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
