import hashlib
import itertools
import math

import pytest

from dfqre.errors import ValidationError
from dfqre.pipeline import (DimerEnergy, FragmentEnergyLedger, ReportRow,
                            binding_affinity, comparison_csv, fit_scaling,
                            fmo_assemble, load_reference_table,
                            reproduce_table)


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
