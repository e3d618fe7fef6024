"""Spans recorded from outside the program.

While a ``Tracer`` is active it replaces selected public functions of the
``dfqre`` modules with wrappers that time each call. Every module
attribute bound to the same function object is replaced, so calls through
re-exports (``dfqre.cli.estimate_logical``, ``dfqre.pipeline.estimate_physical``)
are timed too. Spans nest by call order in the single measuring thread and
stay in memory until the pass ends; nothing is written while a pass runs.

A span's self time is its duration minus the durations of its direct
children. Counts are computed from arguments and results after the wrapped
call returns; their cost falls outside every span except the caller's, and
is part of the measured tracing overhead.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import dfqre.cli
import dfqre.dfact
import dfqre.ingest
import dfqre.logicalcost
import dfqre.physcost
import dfqre.pipeline
import dfqre.verify


def _records(args, kwargs, result):
    # bench integral files: one header line, then one record per line
    text = args[0]
    return {"ingest.records": text.count("\n") - 1,
            "ingest.input_mb": len(text) / 1e6}


def _factorize(args, kwargs, result):
    return {"dfact.pair_dim": result.n_orb * (result.n_orb + 1) // 2,
            "dfact.leaves": result.n_leaves,
            "dfact.leaf_eigs": result.total_leaf_eigs}


def _artifact(args, kwargs, result):
    return {"dfact.artifact_mb": len(result) / 1e6}


def _distances(args, kwargs, result):
    # odd distances tried by the search, from d_min up to the chosen one
    code = args[3] if len(args) > 3 else kwargs.get("code")
    d_min = code.d_min if code is not None else dfqre.physcost.CodeParams().d_min
    tried = (result.distance - d_min) // 2 + 1 if result.cycles else 0
    return {"physcost.distance_candidates": tried}


def _fock_dim(args, kwargs, result):
    return {"verify.fock_dim_total": result.dim}


# span name -> (function, counter)
FUNCTIONS = {
    "ingest.parse_integrals": (dfqre.ingest.parse_integrals, _records),
    "ingest.gen_synthetic": (dfqre.ingest.gen_synthetic, None),
    "dfact.choose_tolerances": (dfqre.dfact.choose_tolerances, None),
    "dfact.factorize": (dfqre.dfact.factorize, _factorize),
    "dfact.lambda_norms": (dfqre.dfact.lambda_norms, None),
    "dfact.reconstruct": (dfqre.dfact.reconstruct, None),
    "logicalcost.estimate_logical": (dfqre.logicalcost.estimate_logical, None),
    "physcost.estimate_physical": (dfqre.physcost.estimate_physical, _distances),
    "pipeline.reproduce_table": (dfqre.pipeline.reproduce_table, None),
    "pipeline.load_reference_table": (dfqre.pipeline.load_reference_table, None),
    "pipeline.comparison_csv": (dfqre.pipeline.comparison_csv, None),
    "verify.build_fock_matrix": (dfqre.verify.build_fock_matrix, _fock_dim),
    "verify.check_df_equivalence": (dfqre.verify.check_df_equivalence, None),
    "verify.build_walk_operator": (dfqre.verify.build_walk_operator, None),
    "verify.run_qpe": (dfqre.verify.run_qpe, None),
}
# methods of DFDecomposition: span name -> (attribute, counter)
METHODS = {
    "dfact.dumps": ("dumps", _artifact),
    "dfact.loads": ("loads", None),
}
# each CLI subcommand gets its own span around cli.main
CLI_COMMANDS = ("factorize", "estimate-logical", "estimate-physical",
                "reproduce-table")

SPANS = tuple(FUNCTIONS) + tuple(METHODS) + tuple(
    "cli." + cmd.replace("-", "_") for cmd in CLI_COMMANDS)
COUNTS = ("ingest.records", "ingest.input_mb", "dfact.pair_dim",
          "dfact.leaves", "dfact.leaf_eigs", "dfact.artifact_mb",
          "physcost.distance_candidates", "verify.fock_dim_total")


class Tracer:
    """Patches the traced functions on ``__enter__`` and restores them on
    ``__exit__``. Spans are (name, start, end, parent index)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] += value
            return result

        return wrapper

    def _cli_main(self, main):
        wrapped = {cmd: self._wrap("cli." + cmd.replace("-", "_"), main, None)
                   for cmd in CLI_COMMANDS}

        def wrapper(argv=None):
            command = next((a for a in argv or () if a in wrapped), None)
            if command is None:
                return main(argv)
            return wrapped[command](argv)

        return wrapper

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "dfqre" or key.startswith("dfqre.")]
        for name, (fn, counter) in FUNCTIONS.items():
            wrapper = self._wrap(name, fn, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._replace(module, attr, wrapper)
        cls = dfqre.dfact.DFDecomposition
        for name, (attr, counter) in METHODS.items():
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__, counter))
            else:
                new = self._wrap(name, raw, counter)
            self._replace(cls, attr, new)
        self._replace(dfqre.cli, "main", self._cli_main(dfqre.cli.main))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        return False

    def summary(self, wall_s: float) -> dict:
        """Self time and calls per span name, counts, and the part of
        ``wall_s`` that no top-level span covers."""
        durations = [end - start for _, start, end, _ in self.spans]
        child_time = defaultdict(float)
        for (_, _, _, parent), dur in zip(self.spans, durations):
            if parent is not None:
                child_time[parent] += dur
        out = {f"{name}.{kind}": 0.0 for name in SPANS
               for kind in ("self_s", "calls")}
        covered = 0.0
        for index, ((name, _, _, parent), dur) in enumerate(
                zip(self.spans, durations)):
            out[f"{name}.self_s"] += dur - child_time[index]
            out[f"{name}.calls"] += 1
            if parent is None:
                covered += dur
        for key in COUNTS:
            out[key] = float(self.counts.get(key, 0.0))
        out["trace.uncovered_s"] = wall_s - covered
        return out
