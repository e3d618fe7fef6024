import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfqre import codec
from dfqre.dfact import factorize
from dfqre.errors import ValidationError
from dfqre.ingest import IntegralSet, SyntheticSpec, gen_synthetic
from dfqre.logicalcost import (BudgetSplit, EstimationConfig,
                               LogicalEstimate, _qpe_steps, _walk_step_cost,
                               estimate_logical)


def full_rank_estimate(n_orb, seed=100, config=None):
    ints = gen_synthetic(SyntheticSpec(n_orb=n_orb,
                                       rank=n_orb * (n_orb + 1) // 2,
                                       seed=seed + n_orb))
    return estimate_logical(factorize(ints), config)


class TestConfig:
    def test_default_split_is_equal_thirds(self):
        config = EstimationConfig()
        split = config.budget_split
        assert split.logical == split.t_states == split.rotations
        assert abs(split.total - 0.01) <= 1e-12

    def test_mismatched_split_rejected(self):
        with pytest.raises(ValidationError):
            EstimationConfig(budget_split=BudgetSplit(0.5, 0.1, 0.1))

    def test_bad_eps_rejected(self):
        with pytest.raises(ValidationError):
            EstimationConfig(eps_total_energy=0.0)


class TestQpeSteps:
    def test_zero_lambda(self):
        assert _qpe_steps(0.0, 1e-3) == 0

    def test_textbook_count(self):
        assert _qpe_steps(1.0, 1e-3) == 1571  # ceil(500 pi)

    def test_doubling_lambda_roughly_doubles(self):
        for lam in (0.5, 1.0, 3.7, 12.0):
            small = _qpe_steps(lam, 1e-3)
            big = _qpe_steps(2 * lam, 1e-3)
            assert abs(big - 2 * small) <= 1

    # an eps_phase of 0, a step count past the float range, a NaN norm
    @pytest.mark.parametrize("lam, eps_phase", [(1.0, 0.0), (1.0, 1e-320),
                                                (math.nan, 1e-3)])
    def test_rejects_out_of_range(self, lam, eps_phase):
        with pytest.raises(ValidationError):
            _qpe_steps(lam, eps_phase)


class TestWalkStepCost:
    def test_one_body_only_still_costs(self):
        cost = _walk_step_cost((4, 0, 0), EstimationConfig(), 100)
        assert cost["t_per_step"]["total"] > 0
        assert cost["rotations_per_step"] == 8  # hbar basis change remains
        assert sum(cost["qubits"].values()) >= math.ceil(math.log2(4))

    # a rotation tolerance of 0, an infinite rotation cost and a rotation
    # count past the float range
    @pytest.mark.parametrize("dims, config, steps", [
        ((4, 2, 8), {"budget_split": BudgetSplit(0.005, 0.005, 0.0)}, 100),
        ((4, 2, 8), {"rotation_cost_coefficient": math.inf}, 100),
        ((4, 2, 8), {}, 10**307),
    ], ids=["no-share", "infinite-coefficient", "steps-1e307"])
    def test_rejects_out_of_range(self, dims, config, steps):
        with pytest.raises(ValidationError):
            _walk_step_cost(dims, EstimationConfig(**config), steps)

    def test_doubling_leaves_increases_cost(self):
        config = EstimationConfig()
        base = _walk_step_cost((8, 10, 80), config, 1000)
        double = _walk_step_cost((8, 20, 160), config, 1000)
        assert double["t_per_step"]["total"] > base["t_per_step"]["total"]

    @pytest.mark.parametrize("steps", [1, 7, 1000, 12345678])
    def test_rotation_budget_identity_exact(self, steps):
        config = EstimationConfig()
        cost = _walk_step_cost((6, 21, 126), config, steps)
        total_rotations = steps * cost["rotations_per_step"]
        assert total_rotations * cost["eps_rotation"] \
            <= config.budget_split.rotations

    def test_longer_runs_cost_more_per_rotation(self):
        config = EstimationConfig()
        dims = (6, 21, 126)
        short = _walk_step_cost(dims, config, 10)
        long = _walk_step_cost(dims, config, 10**9)
        assert long["t_per_rotation"] > short["t_per_rotation"]

    def test_more_leaf_eigs_increases_lookup(self):
        config = EstimationConfig()
        lean = _walk_step_cost((8, 10, 80), config, 1000)
        dense = _walk_step_cost((8, 10, 160), config, 1000)
        assert dense["t_per_step"]["total"] > lean["t_per_step"]["total"]
        assert dense["t_per_step"]["lookup"] > lean["t_per_step"]["lookup"]

    def test_metal_site_scale_calibration_bracket(self):
        # 192 orbitals, rank ~2n, block-encoding norm typical of systems
        # this size: the total T count should land within a factor 3 of
        # the published 1.17e14 for the metal binding site. Recorded as a
        # bracket, not an equality; published integrals are unavailable.
        config = EstimationConfig()
        n, rank = 192, 384
        dims = (n, rank, rank * n)
        lam_typical = 1500.0
        steps = _qpe_steps(lam_typical, config.eps_total_energy / 2.0)
        cost = _walk_step_cost(dims, config, steps)
        total_t = steps * cost["t_per_step"]["total"]
        assert 1.17e14 / 3 <= total_t <= 1.17e14 * 3


class TestEstimateLogical:
    def test_zero_hamiltonian(self):
        ints = IntegralSet(2, 0.0, np.zeros((2, 2)), np.zeros((3, 3)))
        est = estimate_logical(factorize(ints))
        assert est.qpe_steps == 0
        assert est.t_count == 0

    def test_refuses_bound_past_half_eps(self):
        """Half of eps_total_energy is the truncation's share: a bound at
        it is priced, one past it is refused."""
        df = dataclasses.replace(
            factorize(gen_synthetic(SyntheticSpec(n_orb=3, rank=6, seed=2))),
            truncation_bound=5e-4)
        assert estimate_logical(df).t_count > 0
        with pytest.raises(ValidationError, match=re.escape(
                "truncation_bound 0.0005 exceeds half of --eps 0.0009")):
            estimate_logical(df, EstimationConfig(eps_total_energy=9e-4))

    def test_t_count_at_least_steps(self):
        est = full_rank_estimate(4)
        assert est.t_count >= est.qpe_steps > 0

    def test_monotone_in_accuracy(self):
        ints = gen_synthetic(SyntheticSpec(n_orb=4, rank=10, seed=21))
        df = factorize(ints)
        coarse = estimate_logical(df, EstimationConfig(eps_total_energy=1e-2))
        fine = estimate_logical(df, EstimationConfig(eps_total_energy=1e-3))
        assert fine.t_count > coarse.t_count
        assert fine.n_logical_qubits >= coarse.n_logical_qubits

    def test_monotone_in_size(self):
        previous = None
        for n in (3, 4, 5, 6):
            est = full_rank_estimate(n, seed=200)
            if previous is not None:
                assert est.t_count > previous.t_count
                assert est.n_logical_qubits >= previous.n_logical_qubits
            previous = est

    def test_wide_integer_exactness(self):
        # drive the count beyond 2^53 and check integer identities survive
        est = full_rank_estimate(
            6, config=EstimationConfig(eps_total_energy=1e-12))
        assert est.t_count > 10**18
        assert est.t_count == est.qpe_steps * est.breakdown["t_per_step"]["total"]
        assert isinstance(est.t_count, int)

    def test_determinism(self):
        a = full_rank_estimate(5)
        b = full_rank_estimate(5)
        assert a.dumps() == b.dumps()

    def test_breakdown_totals_consistent(self):
        est = full_rank_estimate(4)
        per_step = est.breakdown["t_per_step"]
        assert per_step["lookup"] + per_step["rotations"] \
            + per_step["reflection"] == per_step["total"]
        qubits = est.breakdown["qubits"]
        assert sum(qubits.values()) == est.n_logical_qubits

    def test_json_round_trip(self):
        est = full_rank_estimate(4)
        again = codec.loads(LogicalEstimate, est.dumps(), "logical JSON")
        assert again.t_count == est.t_count
        assert again.n_logical_qubits == est.n_logical_qubits


def _t_count(df, eps):
    return estimate_logical(df, EstimationConfig(eps_total_energy=eps)).t_count


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.data())
def test_t_count_does_not_fall_as_eps_shrinks(n_orb, data):
    """Over the synthetic ladder, a tighter accuracy never costs fewer T
    gates: for one decomposition, and with the tolerances derived from
    the accuracy (``factorize(eps_target=eps)``)."""
    rank = data.draw(st.integers(0, n_orb * (n_orb + 1) // 2), label="rank")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    eps = st.floats(1e-12, 1.0)
    tight, loose = sorted(data.draw(st.tuples(eps, eps), label="eps"))
    ints = gen_synthetic(SyntheticSpec(n_orb=n_orb, rank=rank, seed=seed))
    df = factorize(ints)
    assert _t_count(df, tight) >= _t_count(df, loose)
    assert _t_count(factorize(ints, eps_target=tight), tight) \
        >= _t_count(factorize(ints, eps_target=loose), loose)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_logical_json_round_trip(n_orb, data):
    """The logical JSON reads back to an equal estimate, and writing that
    estimate again gives the same bytes."""
    rank = data.draw(st.integers(0, n_orb * (n_orb + 1) // 2), label="rank")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    eps = data.draw(st.floats(1e-12, 1.0), label="eps")
    budget = data.draw(st.floats(1e-9, 0.5), label="budget")
    ints = gen_synthetic(SyntheticSpec(n_orb=n_orb, rank=rank, seed=seed))
    est = estimate_logical(factorize(ints, eps_target=eps), EstimationConfig(
        eps_total_energy=eps, error_budget=budget))
    text = est.dumps()
    again = codec.loads(LogicalEstimate, text, "logical JSON")
    assert again == est
    assert again.dumps() == text
