"""Command-line interface.

Every subcommand exits 0 on success. Failures print a JSON record
``{"error": <category>, "message": ...}`` to stderr and exit 1, so
callers can dispatch on the category without scraping messages.

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

A file that is not JSON is a ``parse`` error; an unknown or missing key,
or a section that is not a JSON object, is ``invalid-input``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import dfact, ingest, pipeline
from .errors import DfqreError, ValidationError, decode_json
from .logicalcost import BudgetSplit, EstimationConfig, LogicalEstimate, \
    estimate_logical
from .physcost import CodeParams, QubitParams, estimate_physical, get_preset

CONFIG_ENV_VAR = "DFQRE_CONFIG"


def _read_json(path: str, decode=None):
    with open(path) as handle:
        return decode_json(handle.read(), path, decode)


@dataclasses.dataclass(frozen=True)
class _ConfigFile:
    estimation: dict = dataclasses.field(default_factory=dict)
    qubit_presets: dict = dataclasses.field(default_factory=dict)
    code: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        for name, section in vars(self).items():
            if not isinstance(section, dict):
                raise ValidationError(f"config {name} must be a JSON object")


def _section(cls, data, where: str, **overrides):
    """``cls(**data, **overrides)`` for the config object ``data``; an
    unknown or missing key, or a value of the wrong type, is a
    ValidationError that names it."""
    if not isinstance(data, dict):
        raise ValidationError(f"{where} must be a JSON object")
    unknown = [key for key in data if key not in cls.__dataclass_fields__]
    if unknown:
        raise ValidationError(f"unknown key {unknown[0]!r} in {where}")
    try:
        return cls(**{**data, **overrides})
    except TypeError as exc:  # a missing key or a mistyped value, by name
        raise ValidationError(f"{where}: {exc}") from None


def _settings(args) -> tuple[EstimationConfig, QubitParams, CodeParams]:
    """Estimation config, qubit parameters and code constants: the config
    file (--config or $DFQRE_CONFIG) overridden by the command's flags."""
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    raw = _section(_ConfigFile, _read_json(path) if path else {},
                   "the config file")
    overrides = {}
    if getattr(args, "eps", None) is not None:
        overrides["eps_total_energy"] = args.eps
    split = raw.estimation.get("budget_split")
    if getattr(args, "budget", None) is not None:
        overrides.update(error_budget=args.budget, budget_split=None)
    elif split is not None:
        overrides["budget_split"] = _section(
            BudgetSplit, split, "config estimation.budget_split")
    config = _section(EstimationConfig, raw.estimation, "config estimation",
                      **overrides)
    presets = {name: _section(QubitParams, spec,
                              f"config qubit_presets.{name}", name=name)
               for name, spec in raw.qubit_presets.items()}
    preset = getattr(args, "preset", "qubit_gate_ns_e4")
    qp = presets[preset] if preset in presets else get_preset(preset)
    return config, qp, _section(CodeParams, raw.code, "config code")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (DfqreError, OSError) as exc:
        category = exc.category if isinstance(exc, DfqreError) else "io"
        json.dump({"error": category, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    with open(args.file) as handle:
        geom = ingest.parse_xyz(handle.read())
    if args.json:
        print(json.dumps({
            "label": geom.label,
            "atoms": [{"element": a.element, "position": list(a.position)}
                      for a in geom.atoms],
        }, indent=1))
    else:
        sys.stdout.write(ingest.serialize_xyz(geom))


def _cmd_factorize(args):
    with open(args.integrals) as handle:
        integrals = ingest.parse_integrals(handle.read())
    if args.eps is not None:
        if args.tol_first is not None or args.tol_second is not None:
            raise ValidationError("--eps excludes --tol-first/--tol-second")
        tol_first, tol_second = dfact.choose_tolerances(integrals, args.eps)
    else:
        tol_first = args.tol_first or 0.0
        tol_second = args.tol_second or 0.0
    df = dfact.factorize(integrals, tol_first, tol_second)
    text = df.dumps()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    lam_t, lam_v, lam = dfact.lambda_norms(df)
    print(f"# leaves={df.n_leaves} total_eigs={df.total_leaf_eigs} "
          f"lambda_T={lam_t!r} lambda_V={lam_v!r} lambda={lam!r}",
          file=sys.stderr)


def _cmd_estimate_logical(args):
    config, _, _ = _settings(args)
    with open(args.df_file) as handle:
        df = dfact.DFDecomposition.loads(handle.read())
    estimate = estimate_logical(df, config)
    text = estimate.dumps()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _cmd_estimate_physical(args):
    config, qp, code = _settings(args)
    if args.from_logical:
        logical = _read_json(args.from_logical, LogicalEstimate.from_json_dict)
        qubits, t_count = logical.n_logical_qubits, logical.t_count
    elif args.qubits is not None and args.tcount is not None:
        qubits, t_count = args.qubits, _exact_count(args.tcount)
    else:
        raise ValidationError(
            "provide --from-logical FILE or both --qubits and --tcount")
    est = estimate_physical(qubits, t_count, qp, code, config)
    print(est.dumps())


def _exact_count(text: str) -> int:
    """An integer literal, or a finite float literal with an integral value."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value.is_integer():  # also false for nan and infinities
        raise ValidationError(f"--tcount must be an integer, got {text!r}")
    return int(value)


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
    print(json.dumps(comparison.summary()))


def _cmd_fit_scaling(args):
    import csv as csv_mod
    with open(args.csv) as handle:
        reader = csv_mod.DictReader(
            line for line in handle if not line.startswith("#"))
        points = [(float(rec["n_orb"]), float(rec["t_count"])) for rec in reader]
    exponent = pipeline.fit_scaling(points)
    print(json.dumps({"points": len(points), "exponent": exponent}))


def _cmd_fmo_assemble(args):
    ledger = _read_json(args.ledger,
                        pipeline.FragmentEnergyLedger.from_json_dict)
    total = pipeline.fmo_assemble(ledger)
    print(json.dumps({"total_energy_hartree": total}))


def _cmd_binding_affinity(args):
    hartree, kj = pipeline.binding_affinity(args.e_complex, args.e_apo,
                                            args.e_ion)
    print(json.dumps({"delta_e_hartree": hartree, "delta_e_kj_per_mol": kj}))


if __name__ == "__main__":
    sys.exit(main())
