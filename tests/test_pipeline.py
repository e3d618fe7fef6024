import dataclasses
import hashlib
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfqre import physcost
from dfqre.errors import DfqreError, ValidationError
from dfqre.logicalcost import BudgetSplit, EstimationConfig
from dfqre.pipeline import (DimerEnergy, FragmentEnergyLedger, ReportRow,
                            binding_affinity, comparison_csv, fit_scaling,
                            fmo_assemble, load_reference_table,
                            RowComparison, reproduce_table)
from dfqre.physcost import CodeParams, QubitParams, estimate_physical


def ledger(monomers, dimers=None):
    """A ledger of ``monomers`` and a {pair: energy} dict of dimers."""
    return FragmentEnergyLedger(monomers=monomers, dimers=tuple(
        DimerEnergy(pair, energy) for pair, energy in (dimers or {}).items()))


class TestFmoAssemble:
    def test_monomers_only(self):
        assert fmo_assemble(ledger({"A": -1.0, "B": -2.0})) == -3.0

    def test_single_dimer_correction(self):
        result = fmo_assemble(ledger({"A": -1.0, "B": -2.0},
                                     {("A", "B"): -3.5}))
        assert result == pytest.approx(-3.5, abs=1e-15)

    def test_fifteen_monomers_all_dimers(self):
        labels = [f"f{i}" for i in range(15)]
        monomers = {name: -1.0 for name in labels}
        dimers = {pair: -2.0 for pair in itertools.combinations(labels, 2)}
        assert len(dimers) == 105
        total = fmo_assemble(ledger(monomers, dimers))
        assert total == pytest.approx(-15.0, abs=1e-12)

    def test_unknown_monomer_rejected(self):
        with pytest.raises(ValidationError):
            ledger({"A": -1.0}, {("A", "B"): -2.0})

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValidationError):
            ledger({"A": -1.0, "B": -2.0},
                   {("A", "B"): -3.0, ("B", "A"): -3.1})

    def test_permutation_invariance(self):
        monomers = {"A": -1.5, "B": 0.25, "C": -2.0}
        dimers = {("A", "B"): -1.3, ("B", "C"): -1.9}
        forward = fmo_assemble(ledger(monomers, dimers))
        backward = fmo_assemble(ledger(
            dict(reversed(monomers.items())),
            dict(reversed(list(dimers.items())))))
        assert forward == pytest.approx(backward, abs=1e-15)

    def test_linear_in_each_entry(self):
        base = {"A": -1.0, "B": -2.0}
        dimers = {("A", "B"): -3.5}
        e0 = fmo_assemble(ledger(base, dimers))
        bumped = fmo_assemble(ledger(base, {("A", "B"): -3.5 + 0.125}))
        assert bumped - e0 == pytest.approx(0.125, abs=1e-15)


class TestBindingAffinity:
    def test_zero_difference(self):
        hartree, kj = binding_affinity(-10.0, -9.0, -1.0)
        assert hartree == 0.0 and kj == 0.0

    def test_unit_conversion(self):
        hartree, kj = binding_affinity(-10.5, -9.0, -1.0)
        assert hartree == pytest.approx(-0.5, abs=1e-15)
        assert kj == pytest.approx(-0.5 * 2625.4996, abs=1e-9)
        assert round(kj, 2) == -1312.75

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            binding_affinity(float("nan"), 0.0, 0.0)


class TestFitScaling:
    def test_two_point_slope(self):
        assert fit_scaling([(10, 1e5), (100, 1e10)]) == pytest.approx(5.0,
                                                                      abs=1e-12)

    def test_constant_counts(self):
        assert fit_scaling([(10, 7.0), (20, 7.0), (40, 7.0)]) == \
            pytest.approx(0.0, abs=1e-12)

    def test_degenerate_abscissae(self):
        with pytest.raises(ValidationError):
            fit_scaling([(10, 1.0), (10, 2.0)])

    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            fit_scaling([(10, 1.0)])

    @pytest.mark.parametrize("point", [(10, math.nan), (10, math.inf),
                                       (math.nan, 1e5), (math.inf, 1e5)])
    def test_rejects_non_finite(self, point):
        with pytest.raises(ValidationError, match="finite"):
            fit_scaling([point, (100, 1e10), (20, 1e7)])

    def test_published_counts_exponent(self, reference_rows):
        points = [(row.n_orb, row.t_count) for row in reference_rows]
        exponent = fit_scaling(points)
        assert exponent == pytest.approx(3.91, abs=0.02)


class TestReproduceTable:
    def test_empty_rows(self):
        comparison = reproduce_table([])
        assert len(comparison.rows) == 0
        assert comparison.summary()["distance_exact"] == 0

    def test_fragment8_row(self, reference_rows):
        row = next(r for r in reference_rows
                   if r.fragment == "8" and r.basis == "sto-3g")
        comparison = reproduce_table([row])
        result = comparison.rows[0]
        assert result.distance_match
        assert result.physical_ok
        assert result.runtime_ok
        assert result.factories_ok

    def test_metal_row(self, reference_rows):
        row = next(r for r in reference_rows
                   if r.fragment == "5+Cu" and r.basis == "6-31g*")
        result = reproduce_table([row]).rows[0]
        assert result.model_distance == 19
        assert result.physical_rel_err <= 0.02
        assert result.runtime_rel_err <= 0.10

    def test_determinism(self, reference_rows):
        first = reproduce_table(reference_rows)
        second = reproduce_table(reference_rows)
        assert comparison_csv(first) == comparison_csv(second)

    def test_csv_emission(self, reference_rows):
        text = comparison_csv(reproduce_table(reference_rows[:3]))
        lines = text.strip().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("fragment,")

    def test_csv_golden_bytes(self, reference_rows):
        text = comparison_csv(reproduce_table(reference_rows))
        assert text.splitlines()[1] == (
            "8,sto-3g,661,40000000000,15,15,868000.0,871200,"
            "0.003686635944700461,231000.0,240000.0,0.03896103896103896,15,15")
        assert len(text) == 6070
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "f48bd136ebc41e61062eb556c6926afc5a1fa377f15b0f2afedeef946308ed21"


class TestTableFixture:
    def test_row_count_and_columns(self, reference_rows):
        assert len(reference_rows) == 47
        bases = {row.basis for row in reference_rows}
        assert bases == {"sto-3g", "6-31g*", "cc-pvdz"}

    def test_missing_fixture_errors(self):
        with pytest.raises(OSError):
            load_reference_table("/nonexistent/table.csv")


def _expected(rows, qp, code, config):
    """reproduce_table's rows as built from estimate_physical, row by row,
    or the (class, message) of the first row it refuses, with the row
    prefix reproduce_table adds."""
    results = []
    for number, row in enumerate(rows, start=1):
        try:
            est = estimate_physical(row.n_logical, row.t_count, qp, code,
                                    config)
        except DfqreError as exc:
            return (type(exc),
                    f"row {number} ({row.fragment} {row.basis}): {exc}")
        results.append(RowComparison(
            row=row,
            model_distance=est.distance,
            model_physical=est.n_physical_qubits,
            model_factories=est.n_factories,
            model_runtime_s=est.runtime_s,
            distance_match=est.distance == row.distance,
            physical_rel_err=abs(est.n_physical_qubits - row.n_physical)
            / row.n_physical,
            runtime_rel_err=abs(est.runtime_s - row.runtime_s) / row.runtime_s,
            factory_diff=est.n_factories - row.n_factories))
    return results


def _bits(comparison):
    """Every field's type and repr: -0.0, 0 and 0.0 all differ."""
    return [(type(v), repr(v)) for v in dataclasses.astuple(comparison)]


def assert_priced_alike(rows, qp=None, code=None, config=None):
    """reproduce_table equals estimate_physical row by row, field for field
    and bit for bit, or raises the same class and message."""
    expected = _expected(rows, qp, code, config)
    try:
        got = reproduce_table(rows, qp, code, config).rows
    except DfqreError as exc:
        assert (type(exc), str(exc)) == expected
        return
    assert isinstance(expected, list), expected
    assert [_bits(r) for r in got] == [_bits(r) for r in expected]


def _row(number, n_logical, t_count, distance=15):
    return ReportRow(fragment=str(number), basis="sto-3g", n_orb=10,
                     n_logical=n_logical, t_count=t_count, distance=distance,
                     n_physical=8.68e5, n_factories=15,
                     factory_qubits_total=2.4e5, runtime_s=2.31e5)


# 0 and -0.0 are noiseless; 0.01 is the default threshold and 0.02 is
# above both drawn thresholds
P_GATES = st.sampled_from([0.0, -0.0, 1e-6, 1e-4, 1e-3, 9.9e-3, 0.01 - 1e-15,
                           0.01, 0.02]) | st.floats(0.0, 0.03)


@st.composite
def hardware(draw):
    p = draw(P_GATES)
    qp = QubitParams("drawn", draw(st.sampled_from([50e-9, 100e-6])),
                     draw(st.sampled_from([100e-9, 100e-6])), p, p)
    code = CodeParams(a_coeff=draw(st.sampled_from([0.03, 0.1])),
                      p_threshold=draw(st.sampled_from([0.01, 0.0101])),
                      d_min=2 * draw(st.integers(0, 51)) + 1)
    return qp, code


@st.composite
def configs(draw):
    budget = draw(st.floats(1e-8, 0.5))
    if draw(st.booleans()):
        return EstimationConfig(error_budget=budget)
    fraction = st.sampled_from([0.0, 1 / 3, 1.0]) | st.floats(0.0, 1.0)
    logical = budget * draw(fraction)
    t_states = (budget - logical) * draw(fraction)
    rotations = max(budget - logical - t_states, 0.0)
    return EstimationConfig(error_budget=budget, budget_split=BudgetSplit(
        logical, t_states, rotations))


ROWS = st.lists(st.tuples(st.integers(1, 10**4), st.integers(0, 10**16),
                          st.integers(1, 99)), min_size=1, max_size=4)


class TestSharedPricing:
    """reproduce_table prices each row through estimate_physical's own
    routine against one cached (qubits, code) model."""

    @settings(max_examples=300, deadline=None)
    @given(hardware(), configs(), ROWS)
    def test_rows_match_estimate_physical(self, model, config, rows):
        qp, code = model
        assert_priced_alike([_row(i, *r) for i, r in enumerate(rows)],
                            qp, code, config)

    @pytest.mark.parametrize("p_gate", [0.0, -0.0, 1e-4, 9.9e-3, 0.01, 0.02])
    @pytest.mark.parametrize("t_count", [0, 1, 4 * 10**10, 2**80, 10**305,
                                         10**308, 10**400])
    def test_edge_t_counts_match(self, p_gate, t_count):
        qp = QubitParams("edge", p_gate=p_gate, p_meas=p_gate)
        for code in (CodeParams(), CodeParams(d_min=101)):
            assert_priced_alike([_row(1, 661, t_count)], qp, code)
            assert_priced_alike([_row(1, 661, 10**6), _row(2, 5, t_count)],
                                qp, code)

    def test_defaults_match(self, reference_rows):
        assert_priced_alike(reference_rows)
        assert_priced_alike(reference_rows, physcost.get_preset(
            "qubit_gate_ns_e4"), CodeParams(), EstimationConfig())

    def test_above_threshold_raises_every_call(self):
        # the model keeps no ladder, never the error
        noisy = QubitParams("noisy", 50e-9, 100e-9, 0.02, 0.02)
        for _ in range(2):
            with pytest.raises(ValidationError,
                               match="row 1 .*at or above threshold"):
                reproduce_table([_row(1, 661, 10**6)], noisy)
            with pytest.raises(ValidationError, match="at or above threshold"):
                estimate_physical(661, 10**6, noisy)

    def test_one_ladder_per_hardware_model(self, reference_rows):
        physcost._model.cache_clear()
        qp = QubitParams("qubit_gate_us_e4", 100e-6, 100e-6, 1e-4, 1e-4)
        for budget in (1e-4, 1e-3, 0.01, 0.3):
            reproduce_table(reference_rows, qp, CodeParams(),
                            EstimationConfig(error_budget=budget))
        # an equal pair built anew is the same key
        twin = QubitParams("qubit_gate_us_e4", 100e-6, 100e-6, 1e-4, 1e-4)
        estimate_physical(661, 4 * 10**10, twin, CodeParams())
        info = physcost._model.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        model = physcost._model(qp, CodeParams())
        assert list(model.ladder) == list(range(3, 100, 2))
        assert all(model.ladder[d] == physcost._logical_error_rate(
            d, qp.p_gate, model.code) for d in model.ladder)
        assert model.designs and all(design.rounds == rounds for rounds,
                                     design in model.designs.items())
