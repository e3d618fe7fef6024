import math

import numpy as np
import pytest

from dfqre.dfact import DFDecomposition, factorize, lambda_norms, \
    qpe_energy_offset
from dfqre.errors import ResourceLimitError, ValidationError
from dfqre.ingest import IntegralSet, SyntheticSpec, gen_synthetic
from dfqre.verify import (FOCK_MAX_ORBITALS, build_fock_matrix,
                          build_walk_operator, check_df_equivalence,
                          fock_matrix_of_decomposition, run_qpe,
                          signed_phase, walk_spectrum_report)


def hubbard_atom(eps, u, core=0.0):
    return IntegralSet(1, core, np.array([[eps]]), np.full((1, 1, 1, 1), u))


class TestFockMatrix:
    def test_one_orbital_analytic_spectrum(self):
        fock = build_fock_matrix(hubbard_atom(0.7, 0.9))
        eigs = np.sort(np.linalg.eigvalsh(fock.matrix))
        np.testing.assert_allclose(eigs, [0.0, 0.7, 0.7, 2.3], atol=1e-12)

    def test_core_only_is_scaled_identity(self):
        ints = IntegralSet(2, -1.5, np.zeros((2, 2)), np.zeros((2, 2, 2, 2)))
        fock = build_fock_matrix(ints)
        np.testing.assert_allclose(fock.matrix, -1.5 * np.eye(16), atol=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_hermitian_and_number_conserving(self, seed):
        n = seed % 3 + 1
        ints = gen_synthetic(SyntheticSpec(n_orb=n, rank=n, seed=seed))
        fock = build_fock_matrix(ints)
        assert np.abs(fock.matrix - fock.matrix.T).max() <= 1e-12
        number = fock.number_operator()
        commutator = fock.matrix * (number[None, :] - number[:, None])
        assert np.abs(commutator).max() <= 1e-12

    def test_size_cap(self):
        ints = IntegralSet(7, 0.0, np.zeros((7, 7)), np.zeros((7, 7, 7, 7)))
        with pytest.raises(ResourceLimitError):
            build_fock_matrix(ints)


class TestDfEquivalence:
    @pytest.mark.parametrize("n_orb,seed", [(1, 0), (2, 1), (2, 2), (3, 3)])
    def test_untruncated_equivalence(self, n_orb, seed):
        ints = gen_synthetic(SyntheticSpec(
            n_orb=n_orb, rank=n_orb * (n_orb + 1) // 2, seed=seed))
        df = factorize(ints)
        assert check_df_equivalence(ints, df) <= 1e-9

    def test_untruncated_equivalence_four_orbitals(self):
        ints = gen_synthetic(SyntheticSpec(n_orb=4, rank=10, seed=4))
        assert check_df_equivalence(ints, factorize(ints)) <= 1e-9

    def test_decomposition_size_cap(self):
        # the factorized assembler shares the raw assembler's cap
        df = factorize(gen_synthetic(SyntheticSpec(n_orb=7, rank=2, seed=8)))
        with pytest.raises(ResourceLimitError,
                           match=f"cap of {FOCK_MAX_ORBITALS}$"):
            fock_matrix_of_decomposition(df)

    def test_zero_tensor_exact(self):
        ints = gen_synthetic(SyntheticSpec(n_orb=2, rank=0, seed=5))
        df = factorize(ints)
        assert check_df_equivalence(ints, df) <= 1e-12

    def test_negative_control_missing_correction(self):
        ints = gen_synthetic(SyntheticSpec(n_orb=2, rank=3, seed=6))
        good = factorize(ints)
        bad = DFDecomposition(n_orb=2, core_energy=good.core_energy,
                              h_bar=ints.h1, leaves=good.leaves,
                              tol_first=0.0, tol_second=0.0)
        assert check_df_equivalence(ints, bad) > 1e-3

    def test_dimension_mismatch(self):
        ints = gen_synthetic(SyntheticSpec(n_orb=2, rank=1, seed=7))
        df = factorize(gen_synthetic(SyntheticSpec(n_orb=3, rank=1, seed=7)))
        with pytest.raises(ValidationError):
            check_df_equivalence(ints, df)


class TestWalkOperator:
    def test_zero_hamiltonian_phases(self):
        walk = build_walk_operator(np.zeros((2, 2)), 1.0)
        phases = np.angle(np.linalg.eigvals(walk))
        assert np.all(np.isin(np.round(np.abs(phases), 12), [0.0, np.pi])
                      | (np.abs(np.sin(phases)) <= 1e-12))

    def test_half_gives_pi_over_six(self):
        walk = build_walk_operator(np.array([[0.5]]), 1.0)
        phases = np.sort(np.angle(np.linalg.eigvals(walk)))
        np.testing.assert_allclose(phases, [-math.pi / 6, math.pi / 6],
                                   atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_residuals(self, seed):
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((4, 4))
        ham = (mat + mat.T) / 2
        lam = 1.5 * np.abs(np.linalg.eigvalsh(ham)).max()
        report = walk_spectrum_report(ham, lam)
        assert report.max_residual <= 1e-8

    def test_unitarity(self):
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((5, 5))
        ham = (mat + mat.T) / 2
        walk = build_walk_operator(ham, 2.0 * np.abs(ham).sum())
        defect = np.abs(walk.T.conj() @ walk - np.eye(10)).max()
        assert defect <= 1e-10

    def test_rejects_small_lambda(self):
        ham = np.diag([1.0, -2.0])
        with pytest.raises(ValidationError):
            build_walk_operator(ham, 1.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            build_walk_operator(np.array([[0.0, 1.0], [0.0, 0.0]]), 2.0)


class TestRunQpe:
    def test_dyadic_phase_exact(self):
        unitary = np.diag([1.0, np.exp(2j * np.pi * 0.25)])
        samples = run_qpe(unitary, np.array([0.0, 1.0]), m=3, shots=64, seed=1)
        assert samples.mode_phase() == 0.25
        assert samples.mass_within(0.25, 0.0) == 1.0

    def test_ten_bit_dyadic_zero_spread(self):
        phase = 517 / 1024
        unitary = np.diag([np.exp(2j * np.pi * phase), 1.0])
        samples = run_qpe(unitary, np.array([1.0, 0.0]), m=10, shots=500,
                          seed=2)
        assert samples.mass_within(phase, 0.0) == 1.0

    def test_non_dyadic_success_mass(self):
        unitary = np.diag([1.0, np.exp(2j * np.pi * 0.3)])
        samples = run_qpe(unitary, np.array([0.0, 1.0]), m=5, shots=1000,
                          seed=11)
        assert abs(samples.mode_phase() - 0.3) <= 2**-5
        assert samples.mass_within(0.3, 2**-5) >= 0.8

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            run_qpe(np.diag([1.0, 0.5]), np.array([1.0, 0.0]), m=3, shots=10)

    def test_rejects_non_eigenvector(self):
        unitary = np.diag([1.0, -1.0])
        with pytest.raises(ValidationError):
            run_qpe(unitary, np.array([1.0, 1.0]), m=3, shots=10)

    def test_rejects_oversize(self):
        unitary = np.eye(128)
        with pytest.raises(ResourceLimitError):
            run_qpe(unitary, np.eye(128)[0], m=3, shots=10)

    def test_determinism(self):
        unitary = np.diag([1.0, np.exp(2j * np.pi * 0.3)])
        state = np.array([0.0, 1.0])
        a = run_qpe(unitary, state, m=6, shots=200, seed=5)
        b = run_qpe(unitary, state, m=6, shots=200, seed=5)
        assert np.array_equal(a.counts, b.counts)


@pytest.mark.parametrize("seed", range(4))
def test_micro_pipeline_ground_energy(seed):
    """QPE on the walk operator recovers the dense ground energy."""
    ints = gen_synthetic(SyntheticSpec(n_orb=2, rank=3, seed=seed))
    df = factorize(ints)
    _, _, lam = lambda_norms(df)
    shift = qpe_energy_offset(df)
    ham = build_fock_matrix(ints).matrix
    evals, evecs = np.linalg.eigh(ham)
    ground, ground_state = evals[0], evecs[:, 0]

    walk = build_walk_operator(ham - shift * np.eye(len(ham)), lam)
    eigenstate = np.concatenate([ground_state, -1j * ground_state]) / math.sqrt(2)
    m_bits = 12
    samples = run_qpe(walk, eigenstate, m=m_bits, shots=300, seed=seed)
    energy = shift + lam * math.sin(signed_phase(samples.mode_phase()))
    assert abs(energy - ground) <= lam * 2 * math.pi * 2**-m_bits + 1e-9
