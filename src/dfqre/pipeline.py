"""Batch orchestration: table reproduction, FMO energy assembly, binding
affinity arithmetic, scaling fits, and report emission."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import NamedTuple

import numpy as np

from .codec import read_text, reading
from .errors import DfqreError, EmptyInputError, ParseError, ValidationError
from .logicalcost import EstimationConfig
from .physcost import CodeParams, QubitParams, _model, _price

HARTREE_TO_KJ_PER_MOL = 2625.4996


@dataclass(frozen=True)
class ReportRow:
    """One published resource-estimate row."""

    fragment: str
    basis: str
    n_orb: int
    n_logical: int
    t_count: int
    distance: int
    n_physical: float
    n_factories: int
    factory_qubits_total: float
    runtime_s: float


def load_reference_table(path: str | None = None) -> list[ReportRow]:
    """Load the bundled 47-row fragment resource table (or a CSV like it);
    a CSV with no data row raises EmptyInputError naming it."""
    text = read_text(path) if path is not None else resources.files(
        "dfqre.data").joinpath("ab16_resource_table.csv").read_text()
    where = path or "the bundled table"
    rows = []
    with reading(where):
        for at, record in csv_records(text, where):
            rows.append(ReportRow(
                fragment=record["fragment"], basis=record["basis"],
                n_orb=int(record["n_orb"]), n_logical=int(record["n_logical"]),
                t_count=exact_integer(record["t_count"], f"{at}: t_count"),
                distance=int(record["distance"]),
                n_physical=_finite_cell(record, "n_physical", at, positive=True),
                n_factories=int(record["n_factories"]),
                factory_qubits_total=_finite_cell(
                    record, "factory_qubits_total", at),
                runtime_s=_finite_cell(record, "runtime_s", at, positive=True)))
    if not rows:
        raise EmptyInputError(f"{where} holds no data row")
    return rows


def csv_records(text: str, where: str):
    """(``"<where> row <n>"``, {column: cell}) for the n-th data row of CSV
    ``text``, after its header; ``#`` lines and blank rows are skipped. A
    row with more or fewer cells than the header raises ParseError."""
    reader = csv.reader(
        line for line in text.splitlines() if not line.startswith("#"))
    header = next(reader, [])
    for number, cells in enumerate(filter(None, reader), start=1):
        if len(cells) != len(header):
            raise ParseError(f"{where} row {number} has {len(cells)} cells; "
                             f"the header has {len(header)}")
        yield f"{where} row {number}", dict(zip(header, cells))


def _finite_cell(record: dict, key: str, where: str,
                 positive: bool = False) -> float:
    """The number in ``record[key]``; a non-finite one, or a non-positive
    one where ``positive`` (the comparison divides by the published
    n_physical and runtime), raises ValidationError naming ``where``."""
    value = float(record[key])
    if not math.isfinite(value) or (positive and value <= 0):
        kind = "a positive finite number" if positive else "a finite number"
        raise ValidationError(
            f"{where}: {key} must be {kind}, got {record[key]!r}")
    return value


def exact_integer(text: str, what: str) -> int:
    """``text`` as an exact int: an integer literal, or a float literal of
    integral value (``4.00e10``). A fractional or non-finite number raises
    ValidationError naming ``what``; text that is no number, ValueError."""
    try:
        return int(text)  # exact, past the float range too
    except ValueError:  # a float literal such as 4.00e10, or no number
        value = float(text)
    if not value.is_integer():  # also false for nan and infinities
        raise ValidationError(f"{what} must be an integer, got {text!r}")
    return int(value)


class RowComparison(NamedTuple):
    """A published row, the model's four numbers, and derived comparisons."""

    row: ReportRow
    model_distance: int
    model_physical: int
    model_factories: int
    model_runtime_s: float

    @property
    def distance_match(self) -> bool:
        return self.model_distance == self.row.distance

    @property
    def physical_rel_err(self) -> float:
        published = self.row.n_physical
        return abs(self.model_physical - published) / published

    @property
    def runtime_rel_err(self) -> float:
        published = self.row.runtime_s
        return abs(self.model_runtime_s - published) / published

    @property
    def factory_diff(self) -> int:
        return self.model_factories - self.row.n_factories

    @property
    def physical_ok(self) -> bool:
        return self.physical_rel_err <= 0.02

    @property
    def runtime_ok(self) -> bool:
        return self.runtime_rel_err <= 0.10

    @property
    def factories_ok(self) -> bool:
        return abs(self.factory_diff) <= 2


@dataclass(frozen=True)
class TableComparison:
    rows: tuple[RowComparison, ...]

    def summary(self) -> dict:
        """Rows within each tolerance; qubits only where the distance matches."""
        rows = self.rows
        return {
            "rows": len(rows),
            "distance_exact": sum(r.distance_match for r in rows),
            "physical_within_2pct": sum(r.physical_ok for r in rows
                                        if r.distance_match),
            "runtime_within_10pct": sum(r.runtime_ok for r in rows),
            "factories_within_2": sum(r.factories_ok for r in rows),
        }


def reproduce_table(rows: list[ReportRow],
                    qp: QubitParams | None = None,
                    code: CodeParams | None = None,
                    config: EstimationConfig | None = None) -> TableComparison:
    """Re-estimate every row from its (n_logical, t_count) as
    ``estimate_physical`` would, against one resolved (qp, code) model, and
    compare. A row that cannot be priced raises its error, its message
    prefixed with the row's 1-based position, fragment and basis."""
    model, config = _model(qp, code), config or EstimationConfig()
    results = []
    for number, row in enumerate(rows, start=1):
        try:
            distance, _, factories, _, physical, runtime, _, _, _ = _price(
                model, config, row.n_logical, row.t_count)
        except DfqreError as exc:
            raise type(exc)(f"row {number} ({row.fragment} {row.basis}): "
                            f"{exc}") from None
        results.append(RowComparison(row, distance, physical, factories,
                                     runtime))
    return TableComparison(rows=tuple(results))


def comparison_csv(comparison: TableComparison) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["fragment", "basis", "n_logical", "t_count",
                     "distance", "model_distance", "n_physical",
                     "model_physical", "physical_rel_err", "runtime_s",
                     "model_runtime_s", "runtime_rel_err", "n_factories",
                     "model_factories"])
    for r in comparison.rows:
        writer.writerow([
            r.row.fragment, r.row.basis, r.row.n_logical, r.row.t_count,
            r.row.distance, r.model_distance, repr(r.row.n_physical),
            r.model_physical, repr(r.physical_rel_err), repr(r.row.runtime_s),
            repr(r.model_runtime_s), repr(r.runtime_rel_err),
            r.row.n_factories, r.model_factories])
    return out.getvalue()


# ---------------------------------------------------------------------------
# FMO energy assembly and binding affinity


@dataclass(frozen=True)
class DimerEnergy:
    pair: tuple[str, ...]
    energy: float


@dataclass(frozen=True)
class FragmentEnergyLedger:
    """Monomer and (optional) dimer fragment energies, in Hartree."""

    monomers: dict[str, float] = field(default_factory=dict)
    dimers: tuple[DimerEnergy, ...] = ()

    def __post_init__(self):
        monomers = {str(k): float(v) for k, v in self.monomers.items()}
        dimers = {}
        for dimer in self.dimers:
            pair = tuple(sorted(str(label) for label in dimer.pair))
            if len(pair) != 2 or pair[0] == pair[1]:
                raise ValidationError(
                    f"dimer pair {dimer.pair!r} is not a label pair")
            if pair in dimers:
                raise ValidationError(f"duplicate dimer entry {pair}")
            for label in pair:
                if label not in monomers:
                    raise ValidationError(
                        f"dimer {pair} references unknown monomer {label!r}")
            dimers[pair] = float(dimer.energy)
        for what, energy in [*monomers.items(), *dimers.items()]:
            if not math.isfinite(energy):
                raise ValidationError(f"non-finite energy {energy} for {what}")
        object.__setattr__(self, "monomers", monomers)
        object.__setattr__(self, "dimers", tuple(
            DimerEnergy(pair, energy) for pair, energy in dimers.items()))


def fmo_assemble(ledger: FragmentEnergyLedger) -> float:
    """Two-body fragment energy: sum of monomers plus pair corrections.

    E = sum_I E_I + sum_{I<J} (E_IJ - E_I - E_J) over the dimers present;
    absent pairs contribute no correction. Past the float range the total
    is the IEEE inf or NaN, which the JSON writer refuses.
    """
    total = sum(ledger.monomers.values(), 0.0)
    for dimer in ledger.dimers:
        a, b = dimer.pair
        total += dimer.energy - ledger.monomers[a] - ledger.monomers[b]
    return total


def binding_affinity(e_complex: float, e_apo: float, e_ion: float
                     ) -> tuple[float, float]:
    """Binding energy of the metal-bound complex, in (Hartree, kJ/mol); past
    the float range, the IEEE inf, which the JSON writer refuses."""
    for value in (e_complex, e_apo, e_ion):
        if not math.isfinite(value):
            raise ValidationError("energies must be finite")
    delta = e_complex - e_apo - e_ion
    return delta, delta * HARTREE_TO_KJ_PER_MOL


# ---------------------------------------------------------------------------
# Scaling fit


def fit_scaling(points) -> float:
    """Least-squares slope of log(t_count) against log(n_orb)."""
    pts = [(float(n), float(t)) for n, t in points]
    if len(pts) < 2:
        raise ValidationError("need at least two points")
    for point in pts:
        if not all(0 < value < math.inf for value in point):  # nan fails too
            raise ValidationError("points must be positive and finite for a "
                                  f"log-log fit, got {point}")
    xs = np.log([n for n, _ in pts])
    ys = np.log([t for _, t in pts])
    if np.ptp(xs) == 0.0:
        raise ValidationError("degenerate abscissae: all n_orb equal")
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope)
