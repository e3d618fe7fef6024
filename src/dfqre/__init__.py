"""Fault-tolerant quantum resource estimation for ground-state energy
calculations of molecular fragments via double-factorized qubitization.

The pipeline: parse geometries and electron integrals (``ingest``),
double-factorize the two-electron tensor (``dfact``), price the
phase-estimation circuit at the logical layer (``logicalcost``), map it
onto a surface code with T factories (``physcost``), and assemble
fragment energies into binding affinities (``pipeline``). The ``verify``
module holds dense desk-scale oracles that certify the math.
"""

from .dfact import (DFDecomposition, DFLeaf, choose_tolerances, factorize,
                    lambda_norms, qpe_energy_offset, reconstruct)
from .ingest import (Atom, Geometry, IntegralSet, SyntheticSpec, gen_synthetic,
                     parse_integrals, parse_xyz, serialize_xyz)
from .logicalcost import (BudgetSplit, EstimationConfig, LogicalEstimate,
                          estimate_logical)
from .physcost import (CodeParams, FactoryDesign, PhysicalEstimate,
                       QubitParams, estimate_physical, get_preset)
from .pipeline import (DimerEnergy, FragmentEnergyLedger, ReportRow,
                       binding_affinity, fit_scaling, fmo_assemble,
                       load_reference_table, reproduce_table)

__all__ = [
    "Atom", "Geometry", "IntegralSet", "SyntheticSpec", "gen_synthetic",
    "parse_integrals", "parse_xyz", "serialize_xyz",
    "DFDecomposition", "DFLeaf", "factorize", "reconstruct", "lambda_norms",
    "choose_tolerances", "qpe_energy_offset",
    "BudgetSplit", "EstimationConfig", "LogicalEstimate", "estimate_logical",
    "CodeParams", "FactoryDesign", "PhysicalEstimate", "QubitParams",
    "estimate_physical", "get_preset",
    "DimerEnergy", "FragmentEnergyLedger", "ReportRow", "binding_affinity",
    "fit_scaling", "fmo_assemble", "load_reference_table", "reproduce_table",
]

__version__ = "0.1.0"
