import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import integral_set, pair_residual, stage1_matrix
from dfqre.dfact import (DFDecomposition, DFLeaf, choose_tolerances,
                         factorize, lambda_norms, qpe_energy_offset,
                         reconstruct)
from dfqre.errors import ParseError, ValidationError
from dfqre.ingest import IntegralSet, SyntheticSpec, gen_synthetic, \
    parse_integrals, serialize_integrals


def make_set(n_orb, rank, seed=0, magnitude=1.0):
    return gen_synthetic(SyntheticSpec(n_orb=n_orb, rank=rank, seed=seed,
                                       magnitude=magnitude))


def single_h2_entry(n, value):
    h2 = np.zeros((n, n, n, n))
    h2[0, 0, 0, 0] = value
    return integral_set(n, 0.0, np.zeros((n, n)), h2)


def reference_fix_sign(vec):
    """Per-vector sign rule, as factorize applied it before signs were fixed
    in one batch: the first component above 1e-8 of the largest magnitude
    is made positive."""
    scale = np.abs(vec).max()
    if scale == 0.0:
        return vec
    significant = np.nonzero(np.abs(vec) > 1e-8 * scale)[0]
    lead = significant[0] if len(significant) else int(np.argmax(np.abs(vec)))
    return -vec if vec[lead] < 0 else vec


def assert_signs_match_reference(df):
    for leaf in df.leaves:
        expected = np.array([reference_fix_sign(row) for row in leaf.vecs])
        assert np.array_equal(leaf.vecs, expected.reshape(leaf.vecs.shape))


class TestFactorize:
    def test_recovers_generator_rank(self):
        ints = make_set(4, 3, seed=1)
        df = factorize(ints)
        assert df.n_leaves == 3
        assert np.abs(reconstruct(df) - ints.h2).max() <= 1e-10

    def test_zero_tensor(self):
        ints = make_set(3, 0, seed=2)
        df = factorize(ints)
        assert df.n_leaves == 0
        np.testing.assert_allclose(df.h_bar, ints.h1, atol=0)
        assert np.count_nonzero(reconstruct(df)) == 0

    def test_single_entry_rank_one(self):
        # (11|11) = a packs into a rank-1 pair matrix with unit leaf vector
        ints = single_h2_entry(2, 0.8)
        df = factorize(ints)
        assert df.n_leaves == 1
        leaf = df.leaves[0]
        assert leaf.weight == pytest.approx(0.8, abs=1e-14)
        assert leaf.n_eigs == 1
        assert abs(leaf.eigvals[0]) == pytest.approx(1.0, abs=1e-14)
        assert np.abs(reconstruct(df) - ints.h2).max() <= 1e-12

    def test_h_bar_correction(self):
        ints = make_set(3, 4, seed=9)
        df = factorize(ints)
        expected = ints.h1 - 0.5 * np.einsum("illj->ij", ints.h2)
        np.testing.assert_allclose(df.h_bar, expected, atol=1e-15)

    def test_leaf_ordering_by_weight(self):
        df = factorize(make_set(5, 8, seed=4))
        weights = [abs(leaf.weight) for leaf in df.leaves]
        assert weights == sorted(weights, reverse=True)

    def test_eigvals_sorted_and_signs_fixed(self):
        df = factorize(make_set(4, 6, seed=5))
        for leaf in df.leaves:
            mags = np.abs(leaf.eigvals)
            assert np.all(np.diff(mags) <= 1e-15)
            for row in leaf.vecs:
                lead = np.nonzero(np.abs(row) > 1e-8 * np.abs(row).max())[0][0]
                assert row[lead] > 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_signs_match_per_vector_reference(self, n_orb, data):
        rank = data.draw(st.integers(0, n_orb * (n_orb + 1) // 2))
        tols = st.sampled_from([0.0, 1e-6, 1e-3, 1e-1, 1.0])
        ints = make_set(n_orb, rank, seed=data.draw(st.integers(0, 2**32)),
                        magnitude=data.draw(st.floats(1e-3, 1e3)))
        assert_signs_match_reference(
            factorize(ints, data.draw(tols), data.draw(tols)))

    def test_signs_match_reference_on_degenerate_leaves(self):
        # zero tensor: no leaves; (11|11) alone: a rank-1 leaf whose other
        # eigenvalues are exactly zero
        assert factorize(make_set(3, 0, seed=2)).n_leaves == 0
        df = factorize(single_h2_entry(3, -0.8))
        assert df.n_leaves == 1
        assert_signs_match_reference(df)

    def test_sign_lead_below_threshold_is_skipped(self):
        # a leaf with eigenvector (-1e-9, 0.6, -0.8): its largest entry is
        # negative and its first is below 1e-8 of it, so the lead is the
        # 0.6 and the vector keeps its sign; leading with the first entry or
        # with the largest would flip it
        v = np.array([-1e-9, 0.6, -0.8])
        leaf = np.outer(v, v) / (v @ v)
        h2 = np.einsum("ij,kl->ijkl", leaf, leaf)
        df = factorize(integral_set(3, 0.0, np.zeros((3, 3)), h2))
        assert df.n_leaves == 1 and df.leaves[0].n_eigs == 1
        row = df.leaves[0].vecs[0]
        np.testing.assert_allclose(row, v / np.linalg.norm(v), atol=1e-12)
        assert row[0] < 0
        assert_signs_match_reference(df)

    def test_determinism_byte_exact(self):
        ints = make_set(5, 9, seed=6)
        assert factorize(ints).dumps() == factorize(ints).dumps()

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValidationError):
            factorize(make_set(2, 1), tol_first=-1.0)

    def test_truncation_monotonicity(self):
        ints = make_set(5, 12, seed=7)
        tols = [0.0, 1e-3, 1e-2, 1e-1, 1.0]
        leaf_counts = [factorize(ints, tol_first=t).n_leaves for t in tols]
        assert leaf_counts == sorted(leaf_counts, reverse=True)
        eig_totals = [factorize(ints, tol_second=t).total_leaf_eigs
                      for t in tols]
        assert eig_totals == sorted(eig_totals, reverse=True)

    def test_truncated_deviation_within_bound(self):
        ints = make_set(5, 12, seed=8)
        for tol in (1e-3, 1e-2, 1e-1):
            df = factorize(ints, tol_first=tol, tol_second=tol)
            delta = pair_residual(ints, df)
            two_norm = np.abs(np.linalg.eigvalsh(delta)).max()
            assert two_norm <= df.truncation_bound + 1e-12
            # tolerance-form bound: stage 1 contributes tol directly, each
            # kept leaf at most 2|c_r| * tol from its truncated spectrum
            kept_mass = sum(abs(leaf.weight) for leaf in df.leaves)
            assert two_norm <= tol + 2.0 * kept_mass * tol + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_truncation_bound_non_negative(self, n_orb, data):
        rank = data.draw(st.integers(0, n_orb * (n_orb + 1) // 2))
        tols = st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 1e-1, 1.0])
        ints = make_set(n_orb, rank, seed=data.draw(st.integers(0, 2**32)))
        df = factorize(ints, data.draw(tols), data.draw(tols))
        assert df.truncation_bound >= 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_truncation_bound_is_sound(self, n_orb, data):
        rank = data.draw(st.integers(0, n_orb * (n_orb + 1) // 2))
        tols = st.floats(1e-4, 1.0)
        ints = make_set(n_orb, rank, seed=data.draw(st.integers(0, 2**32)))
        df = factorize(ints, data.draw(tols), data.draw(tols))
        delta = pair_residual(ints, df)
        assert np.linalg.norm(delta, 2) <= df.truncation_bound + 1e-12

    @pytest.mark.parametrize("n_orb", [2, 4, 6])
    def test_exact_factorization_has_zero_bound(self, n_orb):
        full = n_orb * (n_orb + 1) // 2
        df = factorize(make_set(n_orb, full, seed=n_orb), 0, 0)
        # nothing numerically zero was dropped at either stage
        assert df.n_leaves == full and df.total_leaf_eigs == full * n_orb
        assert df.truncation_bound == 0.0

    def test_leaf_width_must_match_n_orb(self):
        leaf = DFLeaf(index=0, weight=1.0, eigvals=np.array([0.5]),
                      vecs=np.array([[1.0, 0.0, 0.0]]))
        with pytest.raises(ValidationError, match="leaf 0"):
            DFDecomposition(n_orb=2, core_energy=0.0, h_bar=np.zeros((2, 2)),
                            leaves=(leaf,), tol_first=0.0, tol_second=0.0)

    def test_no_orbital_rejected(self):
        # JSON "h_bar": [] fails the shape check; only Python builds this
        with pytest.raises(ValidationError, match="n_orb must be positive"):
            DFDecomposition(n_orb=0, core_energy=0.0, h_bar=np.zeros((0, 0)),
                            leaves=(), tol_first=0.0, tol_second=0.0)

    def test_loads_errors_are_parse_errors(self):
        good = json.loads(factorize(make_set(2, 2, seed=3)).dumps())
        for text in ("{", "[]", json.dumps({"n_orb": 2}),
                     json.dumps(dict(good, leaves=[{"index": 0}])),
                     json.dumps(dict(good, h_bar=[[1.0], [2.0, 3.0]]))):
            with pytest.raises(ParseError):
                DFDecomposition.loads(text)

    def test_empty_leaf_round_trip(self):
        df = factorize(make_set(3, 4, seed=5), 0.0, 10.0)
        assert any(leaf.n_eigs == 0 for leaf in df.leaves)
        assert DFDecomposition.loads(df.dumps()).dumps() == df.dumps()

    def test_leaf_orthonormality_enforced(self):
        with pytest.raises(ValidationError):
            DFLeaf(index=0, weight=1.0, eigvals=np.array([0.5, 0.4]),
                   vecs=np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_json_round_trip(self):
        df = factorize(make_set(3, 4, seed=11))
        again = DFDecomposition.loads(df.dumps())
        assert again.dumps() == df.dumps()
        assert np.abs(reconstruct(again) - reconstruct(df)).max() == 0.0


def test_chain_builds_no_dense_h2(monkeypatch):
    """Generation, serialization, parsing and factorization work on the
    pair matrix; only the oracles read the dense n^4 h2."""
    def refuse(self):
        raise AssertionError("the dense h2 was built")
    monkeypatch.setattr(IntegralSet, "h2", property(refuse))
    ints = parse_integrals(serialize_integrals(make_set(4, 10, seed=2)))
    factorize(ints)
    factorize(ints, eps_target=1e-2)


class TestLambdaNorms:
    def test_zero_hamiltonian(self):
        ints = integral_set(2, 0.0, np.zeros((2, 2)), np.zeros((2, 2, 2, 2)))
        assert lambda_norms(factorize(ints)) == (0.0, 0.0, 0.0)

    def test_single_leaf_arithmetic(self):
        # weight 2, leaf spectrum {0.3, -0.1}, h_bar = diag(1, -1):
        # lambda_T = 2, lambda_V = 1/4 * 2 * 0.4^2 * 8 = 0.64
        doctored = DFDecomposition(
            n_orb=2, core_energy=0.0, h_bar=np.diag([1.0, -1.0]),
            leaves=(DFLeaf(index=0, weight=2.0,
                           eigvals=np.array([0.3, -0.1]),
                           vecs=np.eye(2)),),
            tol_first=0.0, tol_second=0.0)
        lam_t, lam_v, lam = lambda_norms(doctored)
        assert lam_t == pytest.approx(2.0, abs=1e-14)
        assert lam_v == pytest.approx(0.64, abs=1e-14)
        assert lam == pytest.approx(2.64, abs=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_upper_bounds_shifted_spectrum(self, seed):
        from dfqre.verify import build_fock_matrix
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        rank = int(rng.integers(0, n * (n + 1) // 2 + 1))
        ints = make_set(n, rank, seed=seed + 40)
        df = factorize(ints)
        _, _, lam = lambda_norms(df)
        shift = qpe_energy_offset(df)
        ham = build_fock_matrix(ints).matrix
        norm = np.abs(np.linalg.eigvalsh(
            ham - shift * np.eye(len(ham)))).max()
        assert norm <= lam + 1e-9

    def test_tight_on_one_orbital(self):
        from dfqre.verify import build_fock_matrix
        ints = integral_set(1, 0.0, np.array([[1.2]]),
                            np.full((1, 1, 1, 1), 0.9))
        df = factorize(ints)
        _, _, lam = lambda_norms(df)
        shift = qpe_energy_offset(df)
        ham = build_fock_matrix(ints).matrix
        norm = np.abs(np.linalg.eigvalsh(ham - shift * np.eye(4))).max()
        assert lam == pytest.approx(norm, abs=1e-12)


def stage1_weights(ints):
    return np.linalg.eigh(stage1_matrix(ints))[0]


class TestChooseTolerances:
    def test_exact_rank_recovery(self):
        ints = make_set(4, 3, seed=13)
        df = factorize(ints, eps_target=1e-3)
        assert df.n_leaves == 3
        assert np.abs(reconstruct(df) - ints.h2).max() <= 1e-10

    def test_infinite_target_or_tolerance_rejected(self):
        # an infinite tolerance is refused where it enters, so every
        # decomposition can be written as JSON
        ints = make_set(3, 2, seed=1)
        inf = float("inf")
        for call in (lambda: factorize(ints, eps_target=inf),
                     lambda: factorize(ints, tol_first=inf),
                     lambda: choose_tolerances(stage1_weights(ints), inf)):
            with pytest.raises(ValidationError, match="finite"):
                call()

    def test_monotone_in_eps(self):
        weights = stage1_weights(make_set(4, 8, seed=14))
        eps_values = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
        tols = [choose_tolerances(weights, eps)[0] for eps in eps_values]
        assert tols == sorted(tols, reverse=True)

    def test_equal_split(self):
        weights = stage1_weights(make_set(3, 3))
        tol_first, tol_second = choose_tolerances(weights, 1e-3)
        assert tol_first == tol_second
        assert tol_first == 1e-3 / 2 / (1 + 2 * np.abs(weights).sum())

    def test_bound_respected_after_truncation(self):
        df = factorize(make_set(5, 15, seed=15), eps_target=1e-3)
        assert df.truncation_bound <= 1e-3 / 2 + 1e-15

    def test_rejects_bad_target(self):
        weights = stage1_weights(make_set(2, 1))
        for eps in (0.0, float("nan"), -1e-3):
            with pytest.raises(ValidationError, match="eps_target"):
                choose_tolerances(weights, eps)

    @pytest.mark.parametrize("eps", [0.0, float("nan"), -1e-3])
    def test_factorize_rejects_bad_target_before_eigh(self, eps,
                                                      monkeypatch):
        ints = make_set(2, 1)

        def no_eigh(*args):
            raise AssertionError("eigh ran before eps_target was checked")
        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        with pytest.raises(ValidationError,
                           match="^eps_target must be positive$"):
            factorize(ints, eps_target=eps)

    @pytest.mark.parametrize("tols", [(1e-3, 0.0), (0.0, 1e-3)])
    def test_eps_target_excludes_tolerances(self, tols):
        with pytest.raises(ValidationError, match="excludes"):
            factorize(make_set(2, 1), *tols, eps_target=1e-3)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 7), st.data())
    def test_eps_target_matches_explicit_tolerances(self, n_orb, data):
        rank = data.draw(st.integers(0, n_orb * (n_orb + 1) // 2))
        eps = data.draw(st.floats(1e-4, 1.0))
        ints = make_set(n_orb, rank, seed=data.draw(st.integers(0, 2**32)))
        t = choose_tolerances(stage1_weights(ints), eps)[0]
        df = factorize(ints, eps_target=eps)
        assert df.dumps() == factorize(ints, t, t).dumps()
        assert df.truncation_bound <= eps / 2 + 1e-15


@pytest.mark.parametrize("n_orb", [1, 2, 3, 4, 5, 6])
def test_untruncated_roundtrip_exhaustive(n_orb):
    for rank in range(n_orb * (n_orb + 1) // 2 + 1):
        ints = make_set(n_orb, rank, seed=rank + 31)
        df = factorize(ints)
        assert np.abs(reconstruct(df) - ints.h2).max() <= 1e-10
        assert df.n_leaves == rank
