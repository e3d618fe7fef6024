"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py

Runs each check on a real, correct output and then on the same output
with one planted fault. A check passes the self-test when it accepts the
correct output and rejects every planted fault; a check that can never
fail shows up here as MISSED. Exits nonzero if any check misbehaves.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys
from importlib import resources
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from workloads import (FragmentFullRank, FragmentLowRank, Oracle,  # noqa: E402
                       TableSweep, quiet_cli)


class Report:
    def __init__(self):
        self.bad = 0

    def clean(self, label: str, failures: list[str]):
        ok = not failures
        self.bad += not ok
        print(f"{'ok    ' if ok else 'FALSE '} clean   {label}"
              + ("" if ok else f": {failures}"))

    def planted(self, label: str, failures: list[str]):
        ok = bool(failures)
        self.bad += not ok
        print(f"{'caught' if ok else 'MISSED'} planted {label}"
              + (f": {failures[0]}" if ok else ""))


def fragment_outputs(workload, work: Path) -> dict:
    """One small fragment through the real CLI chain."""
    fragment = workload.prepare(str(work), seed=5)["warm"]
    out = workload({}).chain(fragment)
    return {"out": out, "df": json.loads(Path(out["df_path"]).read_text()),
            "logical": Path(out["logical_path"]).read_text()}


def check(workload, got: dict, df: dict | None = None,
          physical: str | None = None) -> list[str]:
    from dfqre import physcost

    def expected(qubits, t_count):
        return json.loads(physcost.estimate_physical(qubits, t_count).dumps())

    out = got["out"]
    return checks.check_fragment(
        out["fragment"], out["codes"], json.dumps(df or got["df"]),
        got["logical"], physical if physical is not None else out["physical"],
        workload.EPS, expected)


def fragments(report: Report, work: Path):
    full = fragment_outputs(FragmentFullRank, work / "full")
    report.clean("fragment-fullrank chain", check(FragmentFullRank, full))
    dropped = dict(full["df"], leaves=full["df"]["leaves"][:-1])
    report.planted("one leaf dropped from the decomposition JSON",
                   check(FragmentFullRank, full, df=dropped))
    scaled = json.loads(json.dumps(full["df"]))
    scaled["leaves"][0]["weight"] *= 1.0 + 1e-6
    report.planted("one leaf weight scaled by 1+1e-6",
                   check(FragmentFullRank, full, df=scaled))
    physical = json.loads(full["out"]["physical"])
    physical["distance"] += 2
    report.planted("physical distance changed in the CLI output",
                   check(FragmentFullRank, full, physical=json.dumps(physical)))

    low = fragment_outputs(FragmentLowRank, work / "low")
    report.clean("fragment-lowrank chain", check(FragmentLowRank, low))
    loose = dict(low["df"], truncation_bound=FragmentLowRank.EPS)
    report.planted("truncation_bound above eps/2",
                   check(FragmentLowRank, low, df=loose))
    dropped = dict(low["df"], leaves=low["df"]["leaves"][:-1])
    report.planted("one leaf dropped under a derived tolerance",
                   check(FragmentLowRank, low, df=dropped))


def table(report: Report, work: Path):
    from dfqre import pipeline
    sweep = TableSweep(TableSweep.prepare(str(work), seed=5))
    qp, config = sweep.qubit_sets[1], sweep.configs[10]
    comparison = pipeline.reproduce_table(pipeline.load_reference_table(), qp,
                                          sweep.code, config)
    row = comparison.rows[0]

    def distance_check(d):
        return checks.check_distance(row.row.n_logical, row.row.t_count, d,
                                     qp.p_gate, config.error_budget)

    report.clean("table-sweep distances", [
        f for r in comparison.rows for f in checks.check_distance(
            r.row.n_logical, r.row.t_count, r.model_distance, qp.p_gate,
            config.error_budget)])
    report.planted("chosen distance raised by 2",
                   distance_check(row.model_distance + 2))
    report.planted("chosen distance lowered by 2",
                   distance_check(row.model_distance - 2))

    text = resources.files("dfqre.data").joinpath(
        "ab16_resource_table.csv").read_text()
    fixture = work / "fixture.csv"
    fixture.write_text(text)

    def summary_check():
        code, stdout = quiet_cli(["reproduce-table", str(fixture)])
        if code != 0:
            return [f"exit code {code}"]
        return checks.check_table_summary(json.loads(stdout.splitlines()[-1]),
                                          TableSweep.EXPECTED_SUMMARY)

    report.clean("reproduce-table summary", summary_check())
    lines = text.splitlines(keepends=True)
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    columns = lines[header].strip().split(",")
    cells = lines[header + 1].rstrip("\n").split(",")
    at = columns.index("distance")
    cells[at] = str(int(cells[at]) + 2)
    lines[header + 1] = ",".join(cells) + "\n"
    fixture.write_text("".join(lines))
    report.planted("one table row's published distance changed by 2",
                   summary_check())


def oracle(report: Report):
    workload = Oracle({"seed": 5})
    out = workload.certify(17, max_orb=3, fock_sizes=(2, 3), qpe_runs=1)
    report.clean("oracle outputs", workload.check(out)[1])

    h2, rebuilt, n_leaves, rank = out["reconstruct"][-1]
    report.planted("reconstruction off by 1e-9",
                   checks.check_reconstruct(h2, rebuilt + 1e-9, n_leaves, rank))
    report.planted("equivalence deviation 1e-8", checks.check_equivalence(1e-8))
    ints, fock = out["fock"][-1]
    rng = np.random.Generator(np.random.PCG64(0))
    # states 1 and 2 hold one electron each; state 0 holds none
    for label, pairs in (
            ("asymmetric Fock entry", [(1, 2)]),
            ("Fock entry across particle numbers", [(0, 1), (1, 0)])):
        matrix = fock.matrix.copy()
        for i, j in pairs:
            matrix[i, j] += 1e-3
        report.planted(label, checks.check_fock(matrix, ints.n_orb,
                                                ints.core_energy, ints.h1,
                                                ints.h2, rng))
    matrix = fock.matrix + 1e-6 * np.eye(len(fock.matrix))
    report.planted("Fock diagonal shifted by 1e-6",
                   checks.check_fock(matrix, ints.n_orb, ints.core_energy,
                                     ints.h1, ints.h2, rng))
    _, ground, lam = out["qpe"][0]
    report.planted("QPE energy off by two phase bins",
                   checks.check_qpe(ground + 2 * lam * 2 * np.pi * 2.0 ** -12,
                                    ground, lam, Oracle.QPE_BITS))


@contextlib.contextmanager
def raising(module, name: str):
    """Make ``module.name`` raise for the duration of the block."""
    original = getattr(module, name)

    def fail(*args, **kwargs):
        raise RuntimeError(f"planted fault in {name}")

    setattr(module, name, fail)
    try:
        yield
    finally:
        setattr(module, name, original)


def raised(report: Report, work: Path):
    """An operation that raises is counted as attempted and failed, and
    the pass goes on to the next operation."""
    from dfqre import dfact, pipeline, verify

    def counted(attempted_failures, at_least):
        attempted, failures = attempted_failures
        return failures if attempted >= at_least else []

    fragment = FragmentLowRank.prepare(str(work), seed=5)["warm"]
    workload = FragmentLowRank({"ladder": [fragment]})
    report.clean("fragment pass", workload.check(workload.run_pass(0))[1])
    with raising(dfact, "factorize"):
        outputs = workload.run_pass(0)
    report.planted("factorize raises inside the CLI chain",
                   counted(workload.check(outputs), 1))

    sweep = TableSweep(TableSweep.prepare(str(work), seed=5))
    sweep.configs = sweep.configs[:2]
    with raising(pipeline, "reproduce_table"):
        outputs = sweep.run_pass(0)
    report.planted("reproduce_table raises",
                   counted(sweep.check(outputs), len(sweep.qubit_sets) * 2))

    oracle = Oracle({"seed": 5})
    with raising(verify, "build_fock_matrix"):
        outputs = oracle.certify(17, max_orb=2, fock_sizes=(2,), qpe_runs=1)
    report.planted("build_fock_matrix raises (equivalence, Fock build, QPE)",
                   counted(oracle.check(outputs), 2))


def main() -> int:
    work = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("full", "low", "table", "raised"):
        (work / sub).mkdir(parents=True)
    report = Report()
    try:
        fragments(report, work)
        table(report, work / "table")
        oracle(report)
        raised(report, work / "raised")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test " + ("passed" if not report.bad
                          else f"FAILED ({report.bad} checks misbehaved)"))
    return 1 if report.bad else 0


if __name__ == "__main__":
    sys.exit(main())
