"""The four workloads.

Each workload class has the same shape:

- ``prepare(work, seed)`` runs in the launching process before the
  measuring process starts. It writes the input files and returns a
  manifest (a JSON-able dict) for the measuring process.
- ``__init__(manifest)``, ``warm()``: the measuring process's set-up.
- ``run_pass(k)``: the timed unit of work. It returns raw outputs only.
- ``check(outputs)``: runs after the timed region and returns
  (operations attempted, failure messages).

Calls into the program go through module attributes (``dfact.factorize``,
``cli.main``) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import checks
import inputs


def quiet_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``dfqre.cli.main`` in-process; return its exit code and stdout."""
    from dfqre import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def attempt(errors: list[str], label: str, op, *args):
    """Run one operation of the program and return its output. If it
    raises, record that in ``errors`` and return None; every entry of
    ``errors`` counts as an attempted operation that failed."""
    try:
        return op(*args)
    except Exception as exc:
        errors.append(f"{label}: raised {type(exc).__name__}: {exc}")
        return None


def checked(label: str, check, *args) -> list[str]:
    """Run one check; a check that raises on malformed output fails."""
    try:
        return check(*args)
    except Exception as exc:
        return [f"{label}: check raised {type(exc).__name__}: {exc}"]


def _sub_seed(seed: int, *words: int) -> int:
    return int(np.random.SeedSequence([seed, *words]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Fragment ladders through the CLI chain


class FragmentWorkload:
    """A ladder of fragments, each through factorize -> estimate-logical ->
    estimate-physical via ``cli.main``. Every pass runs the same ladder."""

    LADDER: tuple[int, ...] = ()
    EPS: float | None = None
    WARM_N = 4

    @classmethod
    def rank(cls, n: int) -> int:
        raise NotImplementedError

    @classmethod
    def prepare(cls, work: str, seed: int) -> dict:
        warm = inputs.write_fragment(os.path.join(work, "warm"), cls.WARM_N,
                                     cls.rank(cls.WARM_N), [seed, 0])
        ladder = [inputs.write_fragment(os.path.join(work, f"n{n}"), n,
                                        cls.rank(n), [seed, 1, n])
                  for n in cls.LADDER]
        return {"warm": warm, "ladder": ladder}

    def __init__(self, manifest: dict):
        self.manifest = manifest

    def _argv(self, fragment: dict) -> tuple[list[list[str]], str, str]:
        stem = fragment["ints"][:-len(".ints")]
        df_path, logical_path = stem + ".df.json", stem + ".logical.json"
        if self.EPS is None:
            tolerances = ["--tol-first", "0", "--tol-second", "0"]
            eps = []
        else:
            tolerances = eps = ["--eps", repr(self.EPS)]
        return ([["factorize", fragment["ints"], *tolerances, "-o", df_path],
                 ["estimate-logical", df_path, *eps, "-o", logical_path],
                 ["estimate-physical", "--from-logical", logical_path]],
                df_path, logical_path)

    def chain(self, fragment: dict) -> dict:
        argvs, df_path, logical_path = self._argv(fragment)
        codes, stdout = [], ""
        for argv in argvs:
            code, stdout = quiet_cli(argv)
            codes.append(code)
            if code != 0:
                break
        return {"fragment": fragment, "codes": codes, "physical": stdout,
                "df_path": df_path, "logical_path": logical_path}

    def warm(self):
        attempt([], "warm-up", self.chain, self.manifest["warm"])

    def run_pass(self, k: int) -> dict:
        errors = []
        chains = [attempt(errors, fragment["ints"], self.chain, fragment)
                  for fragment in self.manifest["ladder"]]
        return {"chains": [c for c in chains if c is not None],
                "errors": errors}

    def check(self, outputs: dict) -> tuple[int, list[str]]:
        from dfqre import physcost

        def expected(qubits, t_count):
            return json.loads(physcost.estimate_physical(qubits, t_count).dumps())

        def check_chain(out):
            # the files are removed once read, so that a later pass that
            # fails to write them cannot be checked on this pass's output
            texts = ["", ""]
            if all(code == 0 for code in out["codes"]):
                for at, path in enumerate((out["df_path"], out["logical_path"])):
                    with open(path) as handle:
                        texts[at] = handle.read()
                    os.remove(path)
            return checks.check_fragment(out["fragment"], out["codes"], *texts,
                                         out["physical"], self.EPS, expected)

        failures = list(outputs["errors"])
        for out in outputs["chains"]:
            failures += checked(out["fragment"]["ints"], check_chain, out)
        return len(outputs["chains"]) + len(outputs["errors"]), failures


class FragmentLowRank(FragmentWorkload):
    """Pair rank R = 2n, tolerances from --eps 1e-3."""

    LADDER = (16, 24, 32)
    EPS = 1e-3

    @classmethod
    def rank(cls, n: int) -> int:
        return 2 * n


class FragmentFullRank(FragmentWorkload):
    """Pair rank R = n(n+1)/2, exact tolerances."""

    LADDER = (16, 20, 24)

    @classmethod
    def rank(cls, n: int) -> int:
        return n * (n + 1) // 2


# ---------------------------------------------------------------------------
# Physical-layer sweep over the bundled table


class TableSweep:
    """The 47-row table re-estimated over 4 qubit-parameter sets x 50 error
    budgets through ``pipeline.reproduce_table``, plus one
    ``dfqre reproduce-table --csv`` at the defaults per pass."""

    BUDGETS = 50
    BUDGET_RANGE = (1e-4, 0.3)
    EXPECTED_SUMMARY = {"rows": 47, "distance_exact": 47,
                        "physical_within_2pct": 47, "runtime_within_10pct": 47,
                        "factories_within_2": 47}

    @classmethod
    def prepare(cls, work: str, seed: int) -> dict:
        # one budget drawn uniformly in log inside each of 50 equal log bins
        lo, hi = (math.log10(b) for b in cls.BUDGET_RANGE)
        rng = np.random.Generator(np.random.PCG64(_sub_seed(seed, 1)))
        offsets = rng.random(cls.BUDGETS)
        width = (hi - lo) / cls.BUDGETS
        budgets = [10 ** (lo + (i + u) * width) for i, u in enumerate(offsets)]
        return {"budgets": budgets, "csv": os.path.join(work, "table.csv")}

    def __init__(self, manifest: dict):
        from dfqre import logicalcost, physcost
        self.csv = manifest["csv"]
        self.qubit_sets = [
            physcost.get_preset("qubit_gate_ns_e4"),
            physcost.QubitParams("qubit_gate_ns_e3", 50e-9, 100e-9, 1e-3, 1e-3),
            physcost.QubitParams("qubit_gate_us_e4", 100e-6, 100e-6, 1e-4, 1e-4),
            physcost.QubitParams("qubit_gate_us_e6", 100e-6, 100e-6, 1e-6, 1e-6),
        ]
        self.configs = [logicalcost.EstimationConfig(error_budget=b)
                        for b in manifest["budgets"]]
        self.code = physcost.CodeParams()

    def warm(self):
        from dfqre import pipeline
        errors = []
        rows = attempt(errors, "load_reference_table",
                       pipeline.load_reference_table)
        attempt(errors, "reproduce_table", pipeline.reproduce_table, rows,
                self.qubit_sets[0], self.code, self.configs[0])
        attempt(errors, "reproduce-table --csv", quiet_cli,
                ["reproduce-table", "--csv", self.csv])

    def run_pass(self, k: int) -> dict:
        from dfqre import pipeline
        errors, sweep = [], []
        rows = attempt(errors, "load_reference_table",
                       pipeline.load_reference_table)
        if rows is not None:
            for qp in self.qubit_sets:
                for config in self.configs:
                    comparison = attempt(
                        errors, f"reproduce_table({qp.name}, budget "
                        f"{config.error_budget:g})", pipeline.reproduce_table,
                        rows, qp, self.code, config)
                    if comparison is not None:
                        sweep.append((qp, config, comparison))
        cli = attempt(errors, "reproduce-table --csv", quiet_cli,
                      ["reproduce-table", "--csv", self.csv])
        return {"sweep": sweep, "cli": cli, "errors": errors}

    def check(self, outputs: dict) -> tuple[int, list[str]]:
        failures = list(outputs["errors"])
        attempted = len(failures)
        for qp, config, comparison in outputs["sweep"]:
            for r in comparison.rows:
                attempted += 1
                failures += checked(
                    f"{qp.name}, budget {config.error_budget:g}",
                    checks.check_distance, r.row.n_logical, r.row.t_count,
                    r.model_distance, qp.p_gate, config.error_budget)
        if outputs["cli"] is not None:
            attempted += 1
            failures += checked("reproduce-table --csv", self._check_cli,
                                *outputs["cli"])
        return attempted, failures

    def _check_cli(self, code: int, stdout: str) -> list[str]:
        if code != 0:
            return [f"reproduce-table exit code {code}"]
        summary = json.loads(stdout.splitlines()[-1])
        return checks.check_table_summary(summary, self.EXPECTED_SUMMARY)


# ---------------------------------------------------------------------------
# Desk-scale certification


class Oracle:
    """The certification flow: reconstruct sweep for n_orb <= 6, Fock-space
    equivalence for n_orb <= 3, dense Fock builds at n_orb 4 and 5, and the
    walk-operator + QPE micro-pipeline. Spec seeds change every pass.

    The n_orb = 6 Fock build (the cap) is left out: it alone takes 4-5 s,
    which would leave too few passes in a run for a steady median."""

    FOCK_SIZES = (4, 5)
    QPE_RUNS = 3
    QPE_BITS = 12

    @classmethod
    def prepare(cls, work: str, seed: int) -> dict:
        return {"seed": seed}

    def __init__(self, manifest: dict):
        self.seed = manifest["seed"]

    @staticmethod
    def _synthetic(n: int, rank: int, seed: int):
        from dfqre import ingest
        return ingest.gen_synthetic(ingest.SyntheticSpec(n_orb=n, rank=rank,
                                                         seed=seed))

    def warm(self):
        self.certify(_sub_seed(self.seed, 0), max_orb=2, fock_sizes=(2,),
                     qpe_runs=1)

    def run_pass(self, k: int) -> dict:
        return self.certify(_sub_seed(self.seed, k + 1), max_orb=6,
                            fock_sizes=self.FOCK_SIZES, qpe_runs=self.QPE_RUNS)

    def certify(self, base: int, max_orb: int, fock_sizes, qpe_runs) -> dict:
        out = {"reconstruct": [], "equivalence": [], "fock": [], "qpe": [],
               "errors": []}

        def record(key, label, op, *args):
            result = attempt(out["errors"], label, op, *args)
            if result is not None:
                out[key].append(result)

        for n in range(1, max_orb + 1):
            for rank in range(n * (n + 1) // 2 + 1):
                record("reconstruct", f"reconstruct n={n} rank={rank}",
                       self._reconstruct, n, rank, base + 100 * n + rank)
        for n in range(1, min(max_orb, 3) + 1):
            for rank in range(n * (n + 1) // 2 + 1):
                for s in (0, 1):
                    record("equivalence", f"equivalence n={n} rank={rank}",
                           self._equivalence, n, rank,
                           base + 7 * rank + s + 1000 * n)
        for n in fock_sizes:
            record("fock", f"build_fock_matrix n={n}", self._fock, n,
                   base + 5000 + n)
        for run in range(qpe_runs):
            record("qpe", f"walk + QPE run {run}", self._qpe, base + 9000 + run,
                   base + run)
        return out

    def _reconstruct(self, n: int, rank: int, seed: int):
        from dfqre import dfact
        ints = self._synthetic(n, rank, seed)
        df = dfact.factorize(ints)
        return ints.h2, dfact.reconstruct(df), df.n_leaves, rank

    def _equivalence(self, n: int, rank: int, seed: int) -> float:
        from dfqre import dfact, verify
        ints = self._synthetic(n, rank, seed)
        return verify.check_df_equivalence(ints, dfact.factorize(ints))

    def _fock(self, n: int, seed: int):
        from dfqre import verify
        ints = self._synthetic(n, n * (n + 1) // 2, seed)
        return ints, verify.build_fock_matrix(ints)

    def _qpe(self, spec_seed: int, shot_seed: int):
        from dfqre import dfact, verify
        ints = self._synthetic(2, 3, spec_seed)
        df = dfact.factorize(ints)
        _, _, lam = dfact.lambda_norms(df)
        shift = dfact.qpe_energy_offset(df)
        ham = verify.build_fock_matrix(ints).matrix
        evals, evecs = np.linalg.eigh(ham)
        walk = verify.build_walk_operator(ham - shift * np.eye(len(ham)), lam)
        ground = evecs[:, 0]
        state = np.concatenate([ground, -1j * ground]) / math.sqrt(2)
        samples = verify.run_qpe(walk, state, m=self.QPE_BITS, shots=300,
                                 seed=shot_seed)
        energy = shift + lam * math.sin(verify.signed_phase(
            samples.mode_phase()))
        return energy, float(evals[0]), lam

    def check(self, outputs: dict) -> tuple[int, list[str]]:
        failures = list(outputs["errors"])
        for h2, rebuilt, n_leaves, rank in outputs["reconstruct"]:
            failures += checked(f"reconstruct rank={rank}",
                                checks.check_reconstruct, h2, rebuilt,
                                n_leaves, rank)
        for deviation in outputs["equivalence"]:
            failures += checked("equivalence", checks.check_equivalence,
                                deviation)
        rng = np.random.Generator(np.random.PCG64(self.seed))
        for ints, fock in outputs["fock"]:
            failures += checked(f"build_fock_matrix n={ints.n_orb}",
                                checks.check_fock, fock.matrix, ints.n_orb,
                                ints.core_energy, ints.h1, ints.h2, rng)
        for energy, ground, lam in outputs["qpe"]:
            failures += checked("walk + QPE", checks.check_qpe, energy,
                                ground, lam, self.QPE_BITS)
        attempted = sum(len(v) for v in outputs.values())
        return attempted, failures


WORKLOADS = {
    "fragment-lowrank": FragmentLowRank,
    "fragment-fullrank": FragmentFullRank,
    "table-sweep": TableSweep,
    "oracle": Oracle,
}
