"""Command-line interface.

Every subcommand exits 0 on success. A failure writes exactly one line to
stderr, the JSON record ``{"error": <category>, "message": ...}``, and
exits 1, so callers can dispatch on the category without scraping
messages. A command line argparse refuses (an unknown option, a missing
or mistyped value, no subcommand) is ``usage``, with argparse's message;
``--help`` exits 0. ``estimate-physical --from-logical FILE`` takes its
counts from the file and excludes ``--qubits``/``--tcount``.

A JSON config file may be passed with --config or through the
DFQRE_CONFIG environment variable; it can override the estimation
parameters, define qubit presets, and adjust code constants::

    {
      "estimation": {"eps_total_energy": 1e-3, "error_budget": 0.01,
                     "budget_split": {"logical": ..., "t_states": ...,
                                      "rotations": ...},
                     "rotation_cost_coefficient": 3.0},
      "qubit_presets": {"custom": {"t_gate": 5e-8, "t_meas": 1e-7,
                                    "p_gate": 1e-4, "p_meas": 1e-4}},
      "code": {"a_coeff": 0.03, "p_threshold": 0.01, "d_min": 3}
    }

A non-finite or out-of-range input is refused where it enters, as
``invalid-input`` or ``parse``; a result that JSON cannot hold is
``numerical``, from ``codec.dumps``, which writes every document. A config
that is not JSON is ``parse``; an unknown or missing key, a value of the
wrong JSON type or a non-object section is ``invalid-input``, named by its
dotted path (``cfg.json.code.d_min``); a preset takes its name from its
key, so a ``name`` key is unknown. The same faults in a decomposition,
logical or ledger file are ``parse`` errors, as are non-UTF-8 bytes in any
input file. A ledger pair that is not two known labels, a repeated pair or
a non-finite energy is ``invalid-input``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import codec, dfact, ingest, pipeline
from .errors import DfqreError, UsageError, ValidationError
from .logicalcost import EstimationConfig, LogicalEstimate, estimate_logical
from .physcost import CodeParams, QubitParams, estimate_physical, get_preset

CONFIG_ENV_VAR = "DFQRE_CONFIG"


@dataclasses.dataclass(frozen=True)
class _ConfigFile:
    estimation: dict = dataclasses.field(default_factory=dict)
    qubit_presets: dict[str, QubitParams] = dataclasses.field(
        default_factory=dict)
    code: CodeParams = dataclasses.field(default_factory=CodeParams)


def _settings(args) -> tuple[EstimationConfig, QubitParams, CodeParams]:
    """Estimation config, qubit parameters and code constants: the config
    file (--config or $DFQRE_CONFIG) overridden by the command's flags."""
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    raw = codec.loads(_ConfigFile, codec.read_text(path), path,
                      ValidationError) if path else _ConfigFile()
    estimation = dict(raw.estimation)
    if getattr(args, "eps", None) is not None:
        estimation["eps_total_energy"] = args.eps
    if getattr(args, "budget", None) is not None:
        estimation.update(error_budget=args.budget, budget_split=None)
    config = codec.decode(EstimationConfig, estimation, f"{path}.estimation",
                          ValidationError)
    preset = getattr(args, "preset", "qubit_gate_ns_e4")
    qp = (dataclasses.replace(raw.qubit_presets[preset], name=preset)
          if preset in raw.qubit_presets else get_preset(preset))
    return config, qp, raw.code


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # every non-finite value is refused where it appears; numpy's
        # warnings would only add lines before the one error record
        with np.errstate(all="ignore"):
            args.func(args)
    except (DfqreError, OSError) as exc:
        category = exc.category if isinstance(exc, DfqreError) else "io"
        json.dump({"error": category, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and its subcommand parsers, that raise UsageError
    where argparse would print the usage and exit 2."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dfqre",
        description="Fault-tolerant quantum resource estimates for "
                    "double-factorized qubitization on molecular fragments")
    parser.add_argument("--config", help="JSON config path (or set $DFQRE_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse-xyz", help="parse a geometry file and echo it")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="emit JSON instead of XYZ")
    p.set_defaults(func=_cmd_parse_xyz)

    p = sub.add_parser("factorize", help="double-factorize an integral file")
    p.add_argument("integrals")
    p.add_argument("--tol-first", type=float)
    p.add_argument("--tol-second", type=float)
    p.add_argument("--eps", type=float,
                   help="target Hartree accuracy; derives both tolerances")
    p.add_argument("-o", "--output", help="write decomposition JSON here")
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("estimate-logical",
                       help="logical resources from a decomposition JSON")
    p.add_argument("df_file")
    p.add_argument("--eps", type=float, help="total energy accuracy (Hartree)")
    p.add_argument("--budget", type=float, help="total error budget")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_estimate_logical)

    p = sub.add_parser("estimate-physical",
                       help="surface-code resources from logical counts")
    p.add_argument("--from-logical", help="LogicalEstimate JSON file")
    p.add_argument("--qubits", type=int, help="logical qubit count")
    p.add_argument("--tcount", help="logical T count: an integer, or an "
                   "integral float literal such as 1.17e14")
    p.add_argument("--preset", default="qubit_gate_ns_e4")
    p.add_argument("--budget", type=float)
    p.set_defaults(func=_cmd_estimate_physical)

    p = sub.add_parser("reproduce-table",
                       help="re-derive the bundled fragment table and compare")
    p.add_argument("fixture", nargs="?", help="CSV fixture (default: bundled)")
    p.add_argument("--preset", default="qubit_gate_ns_e4")
    p.add_argument("--csv", help="write the per-row comparison CSV here")
    p.set_defaults(func=_cmd_reproduce_table)

    p = sub.add_parser("fit-scaling",
                       help="log-log slope of t_count vs n_orb from a CSV")
    p.add_argument("csv", help="CSV with n_orb and t_count columns")
    p.set_defaults(func=_cmd_fit_scaling)

    p = sub.add_parser("fmo-assemble",
                       help="total energy from a fragment-energy ledger JSON")
    p.add_argument("ledger")
    p.set_defaults(func=_cmd_fmo_assemble)

    p = sub.add_parser("binding-affinity",
                       help="E_complex - E_apo - E_ion, in Hartree and kJ/mol")
    p.add_argument("e_complex", type=float)
    p.add_argument("e_apo", type=float)
    p.add_argument("e_ion", type=float)
    p.set_defaults(func=_cmd_binding_affinity)
    return parser


def _cmd_parse_xyz(args):
    geom = ingest.parse_xyz(codec.read_text(args.file))
    if args.json:
        print(codec.dumps(geom))
    else:
        sys.stdout.write(ingest.serialize_xyz(geom))


def _cmd_factorize(args):
    integrals = ingest.parse_integrals(codec.read_text(args.integrals))
    if args.eps is not None and (args.tol_first is not None
                                 or args.tol_second is not None):
        raise ValidationError("--eps excludes --tol-first/--tol-second")
    df = dfact.factorize(integrals, args.tol_first or 0.0,
                         args.tol_second or 0.0, eps_target=args.eps)
    _emit(df.dumps(), args.output)
    lam_t, lam_v, lam = dfact.lambda_norms(df)
    print(f"# leaves={df.n_leaves} total_eigs={df.total_leaf_eigs} "
          f"lambda_T={lam_t!r} lambda_V={lam_v!r} lambda={lam!r}",
          file=sys.stderr)


def _cmd_estimate_logical(args):
    config, _, _ = _settings(args)
    df = dfact.DFDecomposition.loads(codec.read_text(args.df_file))
    _emit(estimate_logical(df, config).dumps(), args.output)


def _emit(text: str, path: str | None):
    """Write ``text`` and a newline to ``path``, or print it."""
    if path:
        with open(path, "w") as out:
            print(text, file=out)  # no second copy of a large document
    else:
        print(text)


def _cmd_estimate_physical(args):
    config, qp, code = _settings(args)
    if args.from_logical:
        if args.qubits is not None or args.tcount is not None:
            raise ValidationError("--from-logical excludes --qubits/--tcount")
        logical = codec.loads(LogicalEstimate, codec.read_text(
            args.from_logical), args.from_logical)
        qubits, t_count = logical.n_logical_qubits, logical.t_count
    elif args.qubits is not None and args.tcount is not None:
        qubits, t_count = args.qubits, _exact_count(args.tcount)
    else:
        raise ValidationError(
            "provide --from-logical FILE or both --qubits and --tcount")
    est = estimate_physical(qubits, t_count, qp, code, config)
    print(est.dumps())


def _exact_count(text: str) -> int:
    """``pipeline.exact_integer``, with text that is no number invalid too."""
    try:
        return pipeline.exact_integer(text, "--tcount")
    except ValueError:
        raise ValidationError(
            f"--tcount must be an integer, got {text!r}") from None


def _cmd_reproduce_table(args):
    config, qp, code = _settings(args)
    rows = pipeline.load_reference_table(args.fixture)
    comparison = pipeline.reproduce_table(rows, qp, code, config)
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(pipeline.comparison_csv(comparison))
    for r in comparison.rows:
        status = "ok" if (r.distance_match and r.physical_ok and r.runtime_ok
                          and r.factories_ok) else "MISMATCH"
        print(f"{r.row.fragment:>6} {r.row.basis:<7} d={r.row.distance}/"
              f"{r.model_distance} dq={r.physical_rel_err:.3%} "
              f"dt={r.runtime_rel_err:.3%} "
              f"df={r.factory_diff:+d} {status}")
    print(codec.dumps(comparison.summary(), indent=None))


def _cmd_fit_scaling(args):
    with codec.reading(args.csv):
        reader = csv.DictReader(line for line in codec.read_text(
            args.csv).splitlines() if not line.startswith("#"))
        points = [(float(rec["n_orb"]), float(rec["t_count"])) for rec in reader]
    exponent = pipeline.fit_scaling(points)
    print(codec.dumps({"points": len(points), "exponent": exponent},
                      indent=None))


def _cmd_fmo_assemble(args):
    ledger = codec.loads(pipeline.FragmentEnergyLedger,
                         codec.read_text(args.ledger), args.ledger)
    total = pipeline.fmo_assemble(ledger)
    print(codec.dumps({"total_energy_hartree": total}, indent=None))


def _cmd_binding_affinity(args):
    hartree, kj = pipeline.binding_affinity(args.e_complex, args.e_apo,
                                            args.e_ion)
    print(codec.dumps({"delta_e_hartree": hartree, "delta_e_kj_per_mol": kj},
                      indent=None))


if __name__ == "__main__":
    sys.exit(main())
