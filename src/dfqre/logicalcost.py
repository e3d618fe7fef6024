"""Logical-layer cost model for double-factorized qubitization QPE.

The model prices one controlled walk step as data lookups over the leaf
structure, a controlled Givens network per leaf, and a fixed
reflect/select overhead; multiplying by the phase-estimation step count
gives the total T count. Constants below are this artifact's documented
conventions, chosen so the model scales like published estimates rather
than matching any particular tool's internals.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from . import codec
from .dfact import DFDecomposition, lambda_norms
from .errors import ValidationError

# T gates per QROM entry (one Toffoli each in the unary-iteration lookup).
T_PER_LOOKUP_ENTRY = 4
# Controlled Givens rotations per leaf per walk step: n_orb rotations to
# enter the leaf eigenbasis and n_orb to leave it.
ROTATIONS_PER_LEAF_FACTOR = 2
# Fixed reflect/prepare overhead per step, plus a select-register term.
T_REFLECTION_BASE = 16
# Register widths for the state-preparation and phase-gradient ancillas.
KEEP_REGISTER_BITS = 32
PHASE_GRADIENT_BITS = 32


@dataclass(frozen=True)
class BudgetSplit:
    """Failure-probability shares for the three error channels."""

    logical: float
    t_states: float
    rotations: float

    def __post_init__(self):
        for name, share in (("logical", self.logical),
                            ("t_states", self.t_states),
                            ("rotations", self.rotations)):
            if not (share >= 0 and math.isfinite(share)):
                raise ValidationError(f"budget share {name} must be >= 0")

    @property
    def total(self) -> float:
        return self.logical + self.t_states + self.rotations


@dataclass(frozen=True)
class EstimationConfig:
    eps_total_energy: float = 1e-3
    error_budget: float = 0.01
    budget_split: BudgetSplit | None = None
    rotation_cost_coefficient: float = 3.0

    def __post_init__(self):
        if not 0 < self.eps_total_energy < math.inf:
            raise ValidationError("eps_total_energy must be positive and finite")
        if not 0 < self.error_budget < 1:
            raise ValidationError("error_budget must lie in (0, 1)")
        if not 0 < self.rotation_cost_coefficient < math.inf:
            raise ValidationError("rotation_cost_coefficient must be " + (
                "finite" if self.rotation_cost_coefficient > 0 else "positive"))
        split = self.budget_split or BudgetSplit(*[self.error_budget / 3.0] * 3)
        if abs(split.total - self.error_budget) > 1e-12:
            raise ValidationError("budget shares must sum to error_budget")
        object.__setattr__(self, "budget_split", split)


def _qpe_steps(lam: float, eps_phase: float) -> int:
    """Walk applications for phase accuracy eps_phase at normalization lam.

    ceil(pi * lam / (2 * eps_phase)), the standard qubitized-QPE count.
    """
    if not eps_phase > 0:
        raise ValidationError("eps_phase must be positive")
    steps = math.pi * lam / (2.0 * eps_phase)
    if not math.isfinite(steps):
        raise ValidationError(f"no finite step count at eps_phase {eps_phase:g}")
    return math.ceil(steps)


def _walk_step_cost(dims: tuple[int, int, int], config: EstimationConfig,
                    total_steps: int) -> dict:
    """T and ancilla cost of one controlled walk step, as the walk-step
    entries of ``LogicalEstimate.breakdown``.

    ``dims`` is ``(n_orb, n_leaves, total_leaf_eigs)``, as returned by
    ``DFDecomposition.dims()``. ``total_steps`` (>= 1) sets the number of
    walk applications in the whole run; the rotation-synthesis tolerance
    divides the rotation error budget across every rotation of the run, so
    per-step cost grows slowly with run length.
    """
    n, n_leaves, total_eigs = dims
    # one extra "leaf" accounts for the hbar basis change
    rotations_per_step = ROTATIONS_PER_LEAF_FACTOR * n * (n_leaves + 1)
    total_rotations = total_steps * rotations_per_step
    if total_rotations > sys.float_info.max:  # its float() would overflow
        raise ValidationError("rotation count past the float range")
    eps_rotation = config.budget_split.rotations / total_rotations
    # guard the last-ulp so total_rotations * eps_rotation <= share exactly
    while eps_rotation * total_rotations > config.budget_split.rotations:
        eps_rotation = math.nextafter(eps_rotation, 0.0)
    bits = math.log2(1.0 / eps_rotation) if eps_rotation > 0 else math.inf
    if not math.isfinite(config.rotation_cost_coefficient * bits):
        raise ValidationError(f"rotation cost not finite at {eps_rotation:g}")
    t_per_rotation = math.ceil(config.rotation_cost_coefficient * bits)

    t_lookup = T_PER_LOOKUP_ENTRY * (n_leaves + total_eigs + 1)
    t_rotations = rotations_per_step * t_per_rotation
    t_reflection = T_REFLECTION_BASE + 4 * _bits(n_leaves + 2)
    return {
        "qubits": {
            "leaf_select": _bits(n_leaves + 2),
            "orbital_select": _bits(n),
            "eigenpair_data": _bits(max(total_eigs, 1) + 1),
            "keep_probability": KEEP_REGISTER_BITS,
            "phase_gradient": PHASE_GRADIENT_BITS,
        },
        "t_per_step": {
            "lookup": t_lookup,
            "rotations": t_rotations,
            "reflection": t_reflection,
            "total": t_lookup + t_rotations + t_reflection,
        },
        "rotations_per_step": rotations_per_step,
        "t_per_rotation": t_per_rotation,
        "eps_rotation": eps_rotation,
    }


def _bits(value: int) -> int:
    return max(1, math.ceil(math.log2(value)))


@dataclass(frozen=True)
class LogicalEstimate:
    n_orb: int
    n_logical_qubits: int
    t_count: int
    qpe_steps: int
    lam: float = field(metadata={"json": "lambda"})
    breakdown: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.t_count < 0 or self.qpe_steps < 0:
            raise ValidationError("counts must be non-negative")
        if self.qpe_steps > 0 and self.t_count < self.qpe_steps:
            raise ValidationError("t_count below one T per walk step")

    def dumps(self) -> str:
        return codec.dumps(self)


def estimate_logical(df: DFDecomposition,
                     config: EstimationConfig | None = None) -> LogicalEstimate:
    """Logical resources for ground-state QPE on a factorized Hamiltonian.

    Half of ``eps_total_energy`` is reserved for factorization truncation
    (see choose_tolerances), so a larger ``truncation_bound`` is refused;
    the other half sets the phase-estimation accuracy here.
    """
    config = config or EstimationConfig()
    if df.truncation_bound > config.eps_total_energy / 2.0:
        raise ValidationError(
            f"truncation_bound {df.truncation_bound:g} exceeds half of --eps "
            f"{config.eps_total_energy:g}")
    _, _, lam = lambda_norms(df)
    steps = _qpe_steps(lam, config.eps_total_energy / 2.0)
    breakdown = _walk_step_cost(df.dims(), config, max(steps, 1))
    phase_bits = math.ceil(math.log2(steps)) if steps > 0 else 0
    breakdown["qubits"] = {"system": 2 * df.n_orb,
                           "phase_register": phase_bits,
                           **breakdown["qubits"]}
    return LogicalEstimate(
        n_orb=df.n_orb, n_logical_qubits=sum(breakdown["qubits"].values()),
        t_count=steps * breakdown["t_per_step"]["total"], qpe_steps=steps,
        lam=lam, breakdown=breakdown)
