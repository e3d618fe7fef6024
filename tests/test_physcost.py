import math

import numpy as np
import pytest

from dfqre import pipeline
from dfqre.errors import (DistanceSaturationError, FactoryBudgetError,
                          ValidationError)
from dfqre.logicalcost import BudgetSplit, EstimationConfig
from dfqre.physcost import (CodeParams, QubitParams, _count_factories,
                            _factory, _logical_error_rate, _model,
                            estimate_physical, get_preset)

QP = get_preset("qubit_gate_ns_e4")
CODE = CodeParams()
EPS_LOGICAL = 0.01 / 3
ROUND_FS = 400_000_000  # QP's syndrome round, 4 * 50 + 2 * 100 ns, in fs
# a logical share of 0.5 for the distance tests below
HALF_LOGICAL = EstimationConfig(error_budget=0.95,
                                budget_split=BudgetSplit(0.5, 0.25, 0.2))


class TestLogicalErrorRate:
    def test_d15_value(self):
        assert _logical_error_rate(15, 1e-4, CODE) == \
            pytest.approx(3e-18, rel=1e-12)

    def test_near_threshold_limit(self):
        delta = 1e-3
        p = 0.01 * (1 - delta)
        rate = _logical_error_rate(3, p, CODE)
        assert rate == pytest.approx(0.03 * (1 - delta) ** 2, rel=1e-12)

    def test_strictly_decreasing_in_distance(self):
        rates = [_logical_error_rate(d, 1e-4, CODE) for d in range(3, 33, 2)]
        assert all(a > b for a, b in zip(rates, rates[1:]))


class TestLayoutTiles:
    @pytest.mark.parametrize("n,expected", [(661, 1396), (4728, 9652), (1, 6)])
    def test_known_values(self, n, expected):
        assert estimate_physical(n, 0).tiles == expected

    def test_monotone(self):
        values = [estimate_physical(n, 0).tiles for n in range(1, 2000)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("t_count", [0, 10**6])
    def test_rejects_zero(self, t_count):
        with pytest.raises(ValidationError, match="n_alg_qubits"):
            estimate_physical(0, t_count)


class TestSelectDistance:
    @pytest.mark.parametrize("n,cycles,expected", [
        (661, int(4.00e10), 15),
        (1290, int(6.20e11), 17),
        (2938, int(1.87e13), 19),
        (2734, int(1.62e13), 17),
    ])
    def test_table_cases(self, n, cycles, expected):
        assert estimate_physical(n, cycles).distance == expected

    def test_tight_case_margin(self):
        # at d=17 the fragment-6 row misses the budget by a sliver
        tiles = estimate_physical(2938, 0).tiles
        failure_d17 = tiles * 1.87e13 * _logical_error_rate(17, QP.p_gate,
                                                            CODE)
        assert failure_d17 > EPS_LOGICAL
        assert failure_d17 == pytest.approx(3.38e-3, rel=0.01)

    def test_monotone_in_cycles(self):
        distances = [estimate_physical(1000, c).distance
                     for c in (10**8, 10**10, 10**12, 10**14, 10**16)]
        assert all(a <= b for a, b in zip(distances, distances[1:]))

    def test_monotone_in_qubits(self):
        distances = [estimate_physical(n, 10**12).distance
                     for n in (10, 100, 1000, 10000, 100000)]
        assert all(a <= b for a, b in zip(distances, distances[1:]))

    def test_saturation(self):
        qp_noisy = get_preset("qubit_gate_ns_e4")
        qp_noisy = type(qp_noisy)(name="noisy", t_gate=qp_noisy.t_gate,
                                  t_meas=qp_noisy.t_meas, p_gate=9.99e-3,
                                  p_meas=9.99e-3)
        tiny = EstimationConfig(
            budget_split=BudgetSplit(1e-10, 0.005, 0.005 - 1e-10))
        with pytest.raises(DistanceSaturationError):
            estimate_physical(10**6, 10**30, qp_noisy, config=tiny)

    def test_scale_past_float_range_saturates(self):
        # tiles * cycles past the float range saturates instead of raising
        # OverflowError, even for noiseless qubits, where a smaller scale
        # gets d_min
        noiseless = type(QP)(name="noiseless", p_gate=0.0)
        assert estimate_physical(10, 10**306, noiseless,
                                 config=HALF_LOGICAL).distance == 3
        for qp in (QP, noiseless):
            with pytest.raises(DistanceSaturationError):
                estimate_physical(10, 10**308, qp, config=HALF_LOGICAL)

    def test_rejects_p_gate_at_threshold(self):
        noisy = QubitParams("noisy", 50e-9, 100e-9, 0.02, 0.02)
        with pytest.raises(ValidationError, match="at or above threshold"):
            estimate_physical(10, 10**6, noisy, config=HALF_LOGICAL)

    def test_empty_search_saturates_unchecked(self):
        # no odd distance in [101, 99]: nothing is tried, so nothing checks p
        noisy = QubitParams("noisy", 50e-9, 100e-9, 0.02, 0.02)
        with pytest.raises(DistanceSaturationError):
            estimate_physical(10, 10**6, noisy, CodeParams(d_min=101),
                              HALF_LOGICAL)


class TestDesignFactories:
    def test_fragment8_scale_two_rounds(self):
        budget = EPS_LOGICAL / 4.00e10
        design = _factory(_model(QP, CODE), budget)
        assert design.rounds == 2
        assert 12_000 <= design.qubits_per_factory <= 20_000
        assert design.output_error <= budget

    def test_round_boundary_budget(self):
        design = _factory(_model(QP, CODE), 1e-10)
        assert design.rounds == 1
        assert design.output_error == pytest.approx(3.5e-11, rel=1e-12)

    def test_first_round_sufficiency_rule(self):
        p = QP.p_gate
        assert _factory(_model(QP, CODE), 35.0 * p**3).rounds == 1

    def test_output_error_decreases_with_rounds(self):
        one = _factory(_model(QP, CODE), 1e-10)
        two = _factory(_model(QP, CODE), 1e-15)
        three = _factory(_model(QP, CODE), 1e-40)
        assert one.rounds == 1 and two.rounds == 2 and three.rounds == 3
        assert one.output_error > two.output_error > three.output_error

    def test_unreachable_budget(self):
        with pytest.raises(FactoryBudgetError):
            _factory(_model(QP, CODE), 1e-95)

    def test_no_stage_distance_suppresses_clifford_error(self):
        # one round reaches 1e-4, but no d <= 99 sizes its stage: the
        # model holds no design, and every call raises
        near = _model(QubitParams("near", 50e-9, 100e-9, 9.9e-3, 9.9e-3), CODE)
        assert near.designs == {}
        for _ in range(2):
            with pytest.raises(FactoryBudgetError,
                               match="no stage distance suppresses"):
                _factory(near, 1e-4)

    def test_unreachable_budget_raised_first(self):
        near = QubitParams("near", 50e-9, 100e-9, 9.9e-3, 9.9e-3)
        with pytest.raises(FactoryBudgetError, match="unreachable"):
            _factory(_model(near, CODE), 1e-95)

    def test_design_shared_across_budgets(self):
        # same rounds, same (qp, code): one cached design
        one, same, two = (_factory(_model(QP, CODE), budget)
                          for budget in (1e-10, 2e-10, 1e-15))
        assert one is same and one is not two

    def test_designs_built_with_the_model(self):
        # whatever budget is priced first, the model already holds every
        # design, and pricing never adds one
        _model.cache_clear()
        model = _model(QP, CODE)
        assert _factory(model, 1e-10) is model.designs[1]
        assert sorted(model.designs) == [1, 2, 3]
        assert _factory(model, 1e-15) is model.designs[2]
        assert _factory(model, 1e-40) is model.designs[3]
        assert model.syndrome_round_fs == ROUND_FS

    def test_negative_zero_error_rate_is_zero(self):
        # -0.0 is stored as 0.0: it shares 0.0's cached design, and no
        # error rate is written with a negative sign
        zero, negative = (QubitParams("noiseless", p_gate=p, p_meas=p)
                          for p in (0.0, -0.0))
        assert math.copysign(1.0, negative.p_gate) == 1.0
        assert math.copysign(1.0, negative.p_meas) == 1.0
        assert _factory(_model(negative, CODE), 1e-4) \
            is _factory(_model(zero, CODE), 1e-4)
        text = estimate_physical(10, 10**6, negative).dumps()
        assert '"output_error": 0.0' in text and "-0.0" not in text

    def test_stage_distances_grow_with_round(self):
        design = _factory(_model(QP, CODE), 1e-15)
        assert list(design.stage_distances) == \
            sorted(design.stage_distances)


class TestCountFactories:
    def test_fragment8_fifteen(self):
        design = _factory(_model(QP, CODE), EPS_LOGICAL / 4.00e10)
        # output period spans 14.4 cycles at distance 15
        ratio = design.duration_fs * 1e-15 / (QP.syndrome_round_time * 15)
        assert ratio == pytest.approx(14.4, rel=1e-9)
        assert _count_factories(15, ROUND_FS, design) == 15

    def test_short_duration_single_factory(self):
        design = _factory(_model(QP, CODE), 1e-10)
        tiny = type(design)(rounds=design.rounds,
                            stage_distances=design.stage_distances,
                            qubits_per_factory=design.qubits_per_factory,
                            duration_fs=10**6, output_error=design.output_error)
        assert _count_factories(15, ROUND_FS, tiny) == 1

    def test_exact_integer_boundary(self):
        # 14.4 * 15 / 27 == 8 exactly; ceiling must not round it to 9
        design = _factory(_model(QP, CODE), 1e-15)
        assert design.stage_distances[-1] == 15
        assert _count_factories(27, ROUND_FS, design) == 8
        assert _count_factories(15, ROUND_FS, design) == 15


class TestEstimatePhysical:
    def test_metal_site_row(self):
        est = estimate_physical(4728, int(1.17e14))
        assert est.distance == 19
        assert abs(est.n_physical_qubits - 7.18e6) / 7.18e6 <= 0.02
        assert abs(est.runtime_s - 8.83e8) / 8.83e8 <= 0.10
        assert est.runtime_s == pytest.approx(8.89e8, rel=0.01)

    def test_largest_row_runtime(self):
        est = estimate_physical(5211, int(1.81e14))
        assert est.runtime_s == pytest.approx(1.376e9, rel=0.005)
        assert abs(est.runtime_s - 1.37e9) / 1.37e9 <= 0.10

    def test_zero_t_count(self):
        est = estimate_physical(100, 0)
        assert est.runtime_s == 0.0
        assert est.n_factories == 0
        assert est.distance == CodeParams().d_min

    def test_zero_t_count_golden_json(self):
        # no factory is designed, so the JSON has no "factory" key
        assert estimate_physical(10, 0).dumps() == """\
{
 "distance": 3,
 "tiles": 30,
 "n_factories": 0,
 "factory_qubits_total": 0,
 "n_physical_qubits": 540,
 "runtime_s": 0.0,
 "cycles": 0
}"""

    def test_physical_qubit_identity(self):
        for n, t in [(661, int(4e10)), (2938, int(1.87e13)), (50, 10**7)]:
            est = estimate_physical(n, t)
            assert est.n_physical_qubits == \
                est.tiles * 2 * est.distance**2 + est.factory_qubits_total

    def test_budget_soundness(self):
        config = EstimationConfig()
        for n, t in [(661, int(4e10)), (4728, int(1.17e14)), (100, 10**6)]:
            est = estimate_physical(n, t, config=config)
            assert est.logical_failure <= config.budget_split.logical
            assert est.factory.output_error <= config.budget_split.t_states / t

    def test_runtime_is_cycles_times_cycle_time(self):
        # one logical cycle is d syndrome rounds
        est = estimate_physical(661, int(4e10))
        assert est.runtime_s == pytest.approx(
            est.cycles * (QP.syndrome_round_time * est.distance), rel=1e-12)


# the qubit sets of the table-sweep benchmark workload
SWEEP_QUBITS = (
    get_preset("qubit_gate_ns_e4"),
    QubitParams("qubit_gate_ns_e3", 50e-9, 100e-9, 1e-3, 1e-3),
    QubitParams("qubit_gate_us_e4", 100e-6, 100e-6, 1e-4, 1e-4),
    QubitParams("qubit_gate_us_e6", 100e-6, 100e-6, 1e-6, 1e-6),
)


class TestCostChainProperties:
    """A harder problem never looks cheaper: over the 47 table rows and the
    sweep qubit sets, distance and physical qubits do not fall as the error
    budget shrinks or as p_gate rises. (The factory count may fall as the T
    count rises: ceil(duration(d_last) / (d * round)) drops when d steps up.)
    """

    @staticmethod
    def assert_non_decreasing(estimates):
        costs = [(e.distance, e.n_physical_qubits) for e in estimates]
        for (d0, n0), (d1, n1) in zip(costs, costs[1:]):
            assert d0 <= d1 and n0 <= n1

    @pytest.mark.parametrize("qp", SWEEP_QUBITS, ids=lambda qp: qp.name)
    def test_monotone_as_budget_shrinks(self, qp):
        configs = [EstimationConfig(error_budget=float(b))
                   for b in np.logspace(np.log10(0.3), -8, 60)]
        for row in pipeline.load_reference_table():
            self.assert_non_decreasing(
                estimate_physical(row.n_logical, row.t_count, qp, None, c)
                for c in configs)

    @pytest.mark.parametrize("qp", SWEEP_QUBITS, ids=lambda qp: qp.name)
    def test_monotone_as_p_gate_rises(self, qp):
        noisier = [QubitParams(qp.name, qp.t_gate, qp.t_meas, float(p),
                               qp.p_meas) for p in np.logspace(-6, -3, 40)]
        for row in pipeline.load_reference_table():
            self.assert_non_decreasing(
                estimate_physical(row.n_logical, row.t_count, q)
                for q in noisier)
