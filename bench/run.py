"""Run one workload of the dfqre benchmark and print its result.

    python3 bench/run.py --workload fragment-lowrank --seed 1 --seconds 20 --trace 0

Run it from anywhere; it measures the ``src/dfqre`` next to this
directory. It writes the workload's inputs under ``.bench_work/``, times
``SETUP_SAMPLES`` fresh processes that only set up, then starts one
measuring process (``measure.py``) and turns its timings into metrics.
Times are scaled to the reference speed of ``calibrate.py``. The last
line of standard output is the JSON result; the lines before it describe
the environment, every sample, and each metric with its sample count.
The exit code is 0 only when every output passed its check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# BLAS and OpenMP threads of every benchmark process. One thread keeps
# the single measuring process from contending with itself on a small
# machine; it must not exceed nproc.
THREADS = 1
THREAD_ENV = {name: str(THREADS) for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_ENV)  # before numpy loads in this process

from calibrate import Calibration, at_reference_speed  # noqa: E402

# fresh processes that only set up; setup_s is their median
SETUP_SAMPLES = 7
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def _measure(args: list[str], deadline: float) -> tuple[float, str]:
    """Start a measuring process; return its set-up time (start to the
    ``ready`` line) and everything it printed after that line."""
    cmd = [sys.executable, str(BENCH / "measure.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=_child_env(), cwd=str(ROOT))
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"measuring process timed out: {' '.join(cmd)}")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"measuring process failed (exit {proc.returncode}): "
                         f"{' '.join(cmd)}")
    return setup_s, rest


def _environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "dfqre").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "threads": THREADS,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "numpy": np.__version__, "python": platform.python_version(),
            "seed": seed, "commit": commit,
            "src_sha256": digest.hexdigest()[:16]}


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.6g}, quartiles {q1:.6g}..{q3:.6g}"


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "dfqre" / "__init__.py").is_file():
        print(f"error: no dfqre sources under {SRC}", file=sys.stderr)
        return 2
    if THREADS > (os.cpu_count() or 1):
        print(f"error: {THREADS} threads exceed nproc", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        manifest = WORKLOADS[args.workload].prepare(str(work), args.seed)
        manifest_path = work / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        common = ["--workload", args.workload, "--manifest", str(manifest_path)]
        setups, setup_calibration = [], []
        if not args.trace:
            with Calibration() as calibration:
                for _ in range(SETUP_SAMPLES):
                    calibration.measure()
                    setups.append(
                        _measure(common + ["--setup-only"], deadline)[0])
                calibration.measure()
            setup_calibration = calibration.samples
        _, rest = _measure(common + ["--seconds", repr(args.seconds),
                                     "--trace", str(args.trace)], deadline)
        raw = json.loads(rest.strip().splitlines()[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env: " + json.dumps(_environment(args.seed)))
    print("samples: " + json.dumps(
        {"setup_s": setups, "setup_calibration_s": setup_calibration,
         **{key: raw[key] for key in ("pass_s", "calibration_s", "calibrated")}}))
    failures = raw["failures"]
    for message in failures[:20]:
        print(f"FAILED: {message}")
    attempted, failed = raw["attempted"], len(failures)
    print(f"error_rate [fraction]: {failed}/{attempted} = "
          f"{failed / attempted:.6g} (n={attempted} checked operations)")
    if args.trace:
        metrics = _per_layer(raw)
    else:
        metrics = _end_to_end(raw, setups, setup_calibration)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def _end_to_end(raw: dict, setups: list[float], setup_calibration: list[float]
                ) -> dict:
    wall = raw["pass_s"]
    pass_s = at_reference_speed(wall, raw["calibration_s"], raw["calibrated"])
    setup_s = at_reference_speed(setups, setup_calibration,
                                 list(range(len(setups))))
    print(f"pass_s [s]: {_quartiles(pass_s)} (n={len(pass_s)} passes; "
          f"raw wall {_quartiles(wall)})")
    print(f"setup_s [s]: {_quartiles(setup_s)} (n={len(setup_s)} processes; "
          f"raw wall {_quartiles(setups)})")
    print(f"peak_rss_mb [MB]: {raw['peak_rss_mb']:.6g} (n=1 measuring process)")
    print(f"(not a metric) ops_per_s [1/s]: {raw['attempted'] / sum(pass_s):.6g}"
          f" ({raw['attempted']} checked operations in {sum(pass_s):.6g} s)")
    return {"pass_s": {"value": statistics.median(pass_s), "unit": "s"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"}}


def _per_layer(raw: dict) -> dict:
    """Medians over the traced passes (odd pass indices), each span time
    scaled like the pass it belongs to; overhead from the pass medians."""
    wall = raw["pass_s"]
    pass_s = at_reference_speed(wall, raw["calibration_s"], raw["calibrated"])
    untraced, traced = pass_s[0::2], pass_s[1::2]
    factors = [scaled / w for scaled, w in zip(pass_s[1::2], wall[1::2])]
    layers = [{key: value * factor if key.endswith("_s") else value
               for key, value in summary.items()}
              for summary, factor in zip(raw["layers"], factors)]
    values = {key: statistics.median(layer[key] for layer in layers)
              for key in layers[0]}
    base = statistics.median(untraced)
    values["trace.overhead_frac"] = (statistics.median(traced) - base) / base
    print(f"untraced pass_s [s]: {_quartiles(untraced)} (n={len(untraced)}); "
          f"traced pass_s [s]: {_quartiles(traced)} (n={len(traced)}); "
          "per-layer values are medians over the traced passes")
    metrics = {key: {"value": value, "unit": _layer_unit(key)}
               for key, value in values.items()}
    for key, metric in metrics.items():
        print(f"  {key} [{metric['unit']}]: {metric['value']:.6g}")
    return metrics


def _layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_mb"):
        return "MB"
    if key.endswith("_frac"):
        return "fraction"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
