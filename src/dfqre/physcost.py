"""Surface-code overhead model: distance selection, tile layout, T-state
factories, physical qubit totals and runtime.

The algorithm is modeled as T-consumption limited: one logical cycle per
T state, so the cycle count equals the T count. Constants here (error
prefactor, tile layout, factory footprint and period) were calibrated
once against published fragment estimates for the superconducting
"qubit_gate_ns_e4" parameter set and are documented design choices of
this artifact. Everything that depends on the qubits and the code alone
(each odd distance's logical error rate, the distillation chain, the
syndrome round, every factory design) is resolved into one model when a
(qubits, code) pair is first priced, cached, and never changed after
that; ``estimate_physical`` and ``pipeline.reproduce_table`` price rows
against it through one routine, ``_price``, so a budget sweep or a whole
table takes no power per row.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import codec
from .errors import (DistanceSaturationError, FactoryBudgetError,
                     ValidationError)
from .logicalcost import EstimationConfig

MAX_DISTANCE = 99

# 15-to-1 distillation constants: acceptance-counting output error per
# round, residual Clifford error locations per output T state (used to
# size stage distances), factory footprint in tiles, and output period in
# logical cycles of the final stage.
DISTILL_REDUCTION = 35.0
FACTORY_CLIFFORD_LOCATIONS = 7e4
FACTORY_TILES = 36
FACTORY_CYCLES_PER_OUTPUT = Fraction(72, 5)  # 14.4
MAX_DISTILL_ROUNDS = 3


@dataclass(frozen=True)
class QubitParams:
    """Gate and measurement times in seconds (a syndrome round of 1 fs or
    more), and error probabilities in [0, 1). A zero probability is stored
    as 0.0, so -0.0 never reaches an error rate such as ``output_error``."""

    name: str = field(default="qubit_gate_ns_e4", metadata={"json": None})
    t_gate: float = 50e-9
    t_meas: float = 100e-9
    p_gate: float = 1e-4
    p_meas: float = 1e-4

    def __post_init__(self):
        if not (self.t_gate > 0 and self.t_meas > 0
                and 1 <= self.syndrome_round_time * 1e15 < math.inf):
            raise ValidationError("t_gate and t_meas must be positive, their "
                                  "syndrome round finite and at least 1 fs")
        for name in ("p_gate", "p_meas"):
            p = getattr(self, name)
            if not 0 <= p < 1:
                raise ValidationError(f"{name} must lie in [0, 1), got {p}")
            if p == 0:
                object.__setattr__(self, name, abs(p))

    @property
    def syndrome_round_time(self) -> float:
        """Seconds per syndrome extraction round: 4 gates + 2 measurements."""
        return 4.0 * self.t_gate + 2.0 * self.t_meas


PRESETS = {"qubit_gate_ns_e4": QubitParams()}


def get_preset(name: str) -> QubitParams:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValidationError(f"unknown qubit preset {name!r}") from None


@dataclass(frozen=True)
class CodeParams:
    a_coeff: float = 0.03
    p_threshold: float = 0.01
    d_min: int = 3

    def __post_init__(self):
        if not self.a_coeff > 0:
            raise ValidationError("a_coeff must be positive")
        if not 0 < self.p_threshold < 1:
            raise ValidationError("p_threshold must lie in (0, 1)")
        if (not isinstance(self.d_min, int) or self.d_min < 1
                or self.d_min % 2 == 0):
            raise ValidationError("d_min must be a positive odd integer")


def _logical_error_rate(d: int, p: float, code: CodeParams) -> float:
    """Per-tile per-cycle logical failure: a * (p / p_th)^((d+1)/2)."""
    return code.a_coeff * (p / code.p_threshold) ** ((d + 1) / 2)


class _Model:
    """A (qubits, code) pair, defaults for None, resolved once and never
    changed: ``ladder`` maps each odd d from d_min to p_L(d) (None at or
    above threshold, which ``_min_distance`` raises), ``chain`` holds the
    error after 0..3 rounds, ``designs`` the factory design of each round
    count whose stages all have a distance, and the syndrome round in
    seconds and in whole femtoseconds. Never raises.

    Round k takes the previous round's output as input; acceptance
    counting gives output 35 * p_in^3 per round. Stage distances are sized
    so residual Clifford error stays below half of each stage's input
    error, which fixes the footprint independently of how far below
    35 p^3 chains the budget sits.
    """

    def __init__(self, qp: QubitParams | None, code: CodeParams | None):
        self.qp = qp = qp or get_preset("qubit_gate_ns_e4")
        self.code = code = code or CodeParams()
        self.syndrome_round_time = qp.syndrome_round_time
        self.syndrome_round_fs = round(self.syndrome_round_time * 1e15)
        distances = range(code.d_min, MAX_DISTANCE + 1, 2)
        self.ladder = (None if distances and qp.p_gate >= code.p_threshold
                       else {d: _logical_error_rate(d, qp.p_gate, code)
                             for d in distances})
        self.chain = [qp.p_gate]
        for _ in range(MAX_DISTILL_ROUNDS):
            self.chain.append(DISTILL_REDUCTION * self.chain[-1] ** 3)
        stages = [] if self.ladder is None else [
            _min_distance(FACTORY_CLIFFORD_LOCATIONS, error / 2.0, self)
            for error in self.chain[:MAX_DISTILL_ROUNDS]]
        self.designs = {}
        for rounds, d in enumerate(stages, 1):
            if d is None:
                break
            self.designs[rounds] = FactoryDesign(
                rounds, tuple(stages[:rounds]), FACTORY_TILES * 2 * d * d,
                int(FACTORY_CYCLES_PER_OUTPUT * d * self.syndrome_round_fs),
                self.chain[rounds])


_model = functools.lru_cache(maxsize=64)(_Model)


def _min_distance(scale: float, limit: float, model: _Model) -> int | None:
    """Smallest odd d in [d_min, MAX_DISTANCE] with scale * p_L(d) <= limit;
    None for an int scale past the float range, whose product with any
    normal float p_L(d) exceeds 1 (and whose conversion would overflow)."""
    if scale > sys.float_info.max:
        return None
    if model.ladder is None:
        raise ValidationError(f"physical error rate {model.qp.p_gate} at or "
                              f"above threshold {model.code.p_threshold}")
    for d, rate in model.ladder.items():
        if scale * rate <= limit:
            return d
    return None


@dataclass(frozen=True)
class FactoryDesign:
    """A pipelined multi-round 15-to-1 distillation unit.

    ``duration_fs`` is the steady-state period between output T states, in
    exact femtoseconds; earlier rounds run concurrently inside the same
    tile block, so the footprint and period follow the final stage.
    """

    rounds: int
    stage_distances: tuple[int, ...]
    qubits_per_factory: int
    duration_fs: int = field(metadata={"json": "duration_s", "scale": 1e-15})
    output_error: float           # acceptance-counting error per T state


def _factory(model: _Model, per_t_error_budget: float) -> FactoryDesign:
    """The model's design with the fewest rounds that meets the budget."""
    for rounds in range(1, MAX_DISTILL_ROUNDS + 1):
        if model.chain[rounds] <= per_t_error_budget:
            break
    else:
        raise FactoryBudgetError(
            f"budget {per_t_error_budget:g} unreachable in "
            f"{MAX_DISTILL_ROUNDS} rounds of 15-to-1 distillation")
    if rounds not in model.designs:
        raise FactoryBudgetError(
            "no stage distance suppresses Clifford error enough")
    return model.designs[rounds]


def _count_factories(d: int, round_fs: int, fd: FactoryDesign) -> int:
    """Parallel factories sustaining one T state per logical cycle of d
    syndrome rounds of ``round_fs`` femtoseconds: ceil(duration / t_cycle)."""
    return -(-fd.duration_fs // (d * round_fs))


@dataclass(frozen=True)
class PhysicalEstimate:
    distance: int
    tiles: int
    n_factories: int
    factory_qubits_total: int
    n_physical_qubits: int
    runtime_s: float
    cycles: int
    factory: FactoryDesign | None = None
    logical_failure: float = field(default=0.0, metadata={"json": None})

    def dumps(self) -> str:
        return codec.dumps(self)


def estimate_physical(n_alg_qubits: int, t_count: int,
                      qp: QubitParams | None = None,
                      code: CodeParams | None = None,
                      config: EstimationConfig | None = None
                      ) -> PhysicalEstimate:
    """Map (logical qubits, T count) to physical resources (``_price``)."""
    return PhysicalEstimate(*_price(
        _model(qp, code), config or EstimationConfig(), n_alg_qubits, t_count))


def _price(model: _Model, config: EstimationConfig, n_alg_qubits: int,
           t_count: int) -> tuple:
    """``estimate_physical``'s checks, in order, and its fields, in
    ``PhysicalEstimate``'s order; ``reproduce_table`` prices rows here too.

    Logical depth is taken equal to the T count (one T consumed per
    lattice-surgery cycle); the error budget splits across logical
    storage, distillation and rotation synthesis per the config.
    """
    if n_alg_qubits < 1:
        raise ValidationError("n_alg_qubits must be positive")
    if t_count < 0:
        raise ValidationError("t_count must be non-negative")

    # a 2D lattice-surgery layout: the algorithmic tiles plus a routing
    # corridor that grows with the perimeter, 2n + ceil(sqrt(8n)) + 1,
    # where ceil(sqrt(m)) = isqrt(m - 1) + 1 for m >= 1
    tiles = 2 * n_alg_qubits + math.isqrt(8 * n_alg_qubits - 1) + 2
    if t_count == 0:
        d = model.code.d_min
        return d, tiles, 0, 0, tiles * 2 * d**2, 0.0, 0, None, 0.0

    # the smallest odd d with tiles * cycles * p_L(d) within the logical
    # share: every tile is taken as active on every cycle
    eps_logical = config.budget_split.logical
    if not 0 < eps_logical < 1:
        raise ValidationError("budget_split.logical must lie in (0, 1)")
    d = _min_distance(tiles * t_count, eps_logical, model)
    if d is None:
        raise DistanceSaturationError(
            f"no distance <= {MAX_DISTANCE} meets logical budget {eps_logical:g}")
    per_t = config.budget_split.t_states / t_count
    if not 0 < per_t < 1:
        raise ValidationError("budget_split.t_states per T state must lie "
                              f"in (0, 1), got {per_t:g}")
    fd = _factory(model, per_t)
    n_factories = _count_factories(d, model.syndrome_round_fs, fd)
    factory_total = n_factories * fd.qubits_per_factory
    runtime = t_count * (model.syndrome_round_time * d)
    if not math.isfinite(runtime) or fd.duration_fs > sys.float_info.max:
        raise ValidationError(
            "runtime or factory duration past the float range")
    return (d, tiles, n_factories, factory_total,
            tiles * 2 * d * d + factory_total, runtime, t_count, fd,
            tiles * t_count * model.ladder[d])
