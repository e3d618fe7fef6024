import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dfqre
from conftest import integral_set
from dfqre import verify
from dfqre.dfact import DFDecomposition, DFLeaf, factorize, lambda_norms, \
    qpe_energy_offset
from dfqre.errors import ResourceLimitError, ValidationError
from dfqre.ingest import SyntheticSpec, gen_synthetic, parse_integrals
from dfqre.verify import (FOCK_MAX_ORBITALS, build_fock_matrix,
                          build_walk_operator, check_df_equivalence,
                          fock_matrix_of_decomposition, run_qpe,
                          signed_phase, walk_phase_residual)


def hubbard_atom(eps, u, core=0.0):
    return integral_set(1, core, np.array([[eps]]), np.full((1, 1, 1, 1), u))


def _reference_annihilation_operators(n_spin_orb):
    """Sparse a_p for every spin-orbital, with Jordan-Wigner parity signs."""
    dim = 1 << n_spin_orb
    states = np.arange(dim, dtype=np.int64)
    bits = (states[:, None] >> np.arange(n_spin_orb)) & 1
    parity_below = np.concatenate(
        [np.zeros((dim, 1), dtype=np.int64), np.cumsum(bits, axis=1)[:, :-1]],
        axis=1)
    ops = []
    for p in range(n_spin_orb):
        occupied = bits[:, p] == 1
        src = states[occupied]
        dst = src ^ (1 << p)
        sign = 1.0 - 2.0 * (parity_below[occupied, p] % 2)
        ops.append(sp.csr_matrix((sign, (dst, src)), shape=(dim, dim)))
    return ops


def reference_build_fock_matrix(integrals):
    """The sparse-product Fock assembler the bit-string assembler replaced,
    kept as the oracle for its matrix: one sparse product and one sparse
    sum per term, in the written order a+_i a+_k a_l a_j."""
    n = integrals.n_orb
    nso = 2 * n
    dim = 1 << nso
    lower = _reference_annihilation_operators(nso)
    raise_ = [op.T.tocsr() for op in lower]

    def so(i, sigma):
        return i + sigma * n

    ham = sp.identity(dim, format="csr") * integrals.core_energy
    for i in range(n):
        for j in range(n):
            hij = integrals.h1[i, j]
            if hij == 0.0:
                continue
            for sigma in (0, 1):
                ham = ham + hij * (raise_[so(i, sigma)] @ lower[so(j, sigma)])

    right = {(a, b): (lower[a] @ lower[b]).tocsr()
             for a in range(nso) for b in range(nso)}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    coeff = 0.5 * integrals.h2[i, j, k, l]
                    if coeff == 0.0:
                        continue
                    for sigma in (0, 1):
                        for rho in (0, 1):
                            term = raise_[so(i, sigma)] @ (
                                raise_[so(k, rho)] @ right[(so(l, rho), so(j, sigma))])
                            ham = ham + coeff * term
    return np.asarray(ham.todense(), dtype=float)


def reference_fock_matrix_of_decomposition(df):
    """The sparse-operator assembler of the factorized Hamiltonian that the
    ladder-table one replaced, kept as the oracle for its matrix: a
    spin-summed one-body operator sum_ij M_ij sum_sigma a+_{i,sigma}
    a_{j,sigma} is A^T (I_2 (x) M (x) I_dim) A, where A stacks every a_p
    into one (2n * dim, dim) sparse matrix."""
    n = df.n_orb
    dim = 1 << (2 * n)
    stacked = sp.vstack(_reference_annihilation_operators(2 * n), format="csr")
    stacked_t = stacked.T.tocsr()
    identity = sp.identity(dim, format="csr")

    def one_body(mat):
        spin_orbital = np.kron(np.eye(2), mat)
        return stacked_t @ sp.kron(spin_orbital, identity, format="csr") @ stacked

    ham = df.core_energy * identity + one_body(df.h_bar)
    for leaf in df.leaves:
        op = one_body(leaf.matrix())
        ham = ham + 0.5 * leaf.weight * (op @ op)
    return ham.toarray()


def reference_one_body(matrix, mat):
    """The per-term bit-string one-body loop the tabulated scatter
    replaced: a_{j,sigma} then a+_{i,sigma} on every state, one dense
    update per nonzero mat_ij and spin, in that order."""
    n, dim = len(mat), len(matrix)
    states = np.arange(dim)
    bits = (states >> np.arange(2 * n)[:, None]) & 1
    jw_sign = 1.0 - 2.0 * ((np.cumsum(bits, axis=0) - bits) % 2)

    def ladder(p, create, src, cur, sign):
        keep = bits[p, cur] != create
        cur = cur[keep]
        return src[keep], cur ^ (1 << p), sign[keep] * jw_sign[p, cur]

    for (i, j), shift in itertools.product(np.argwhere(mat != 0.0), (0, n)):
        src, dst, sign = ladder(i + shift, True, *ladder(
            j + shift, False, states, states, np.ones(dim)))
        matrix.reshape(-1)[dst * dim + src] += mat[i, j] * sign
    return matrix


def core_identity(n_orb, core):
    """``core`` on the diagonal of a dense Fock-space matrix, +0.0 off it."""
    matrix = np.zeros((1 << 2 * n_orb,) * 2)
    np.fill_diagonal(matrix, core)
    return matrix


def sector_blocks(n_orb):
    """``np.ix_`` of every (N_up, N_down) sector, by ascending key."""
    bits = (np.arange(1 << 2 * n_orb)[:, None] >> np.arange(2 * n_orb)) & 1
    key = bits[:, :n_orb].sum(axis=1) * (n_orb + 1) + bits[:, n_orb:].sum(axis=1)
    return [np.ix_(s, s) for s in (np.flatnonzero(key == k)
                                   for k in np.unique(key))]


def reference_sector_squares(df):
    """The dense, per-leaf, per-sector ``np.ix_`` loop that the sector
    entry vectors replaced, kept as the oracle for their matrix: each O_r
    is built whole by the per-term one-body loop, and each (N_up, N_down)
    block of it is squared and added into the matrix's own block, one
    block at a time."""
    n = df.n_orb
    blocks = sector_blocks(n)
    matrix = reference_one_body(core_identity(n, df.core_energy), df.h_bar)
    for leaf in df.leaves:
        op = reference_one_body(core_identity(n, 0.0), leaf.matrix())
        for block in blocks:
            matrix[block] += 0.5 * leaf.weight * (op[block] @ op[block])
    return matrix


def reference_block_deviation(integrals, df):
    """The one-block-at-a-time norm that the stacked ``eigvalsh`` replaced,
    kept as the oracle for its value: the largest |eigenvalue| of the raw
    minus the factorized matrix over the (N_up, N_down) blocks, one
    ``eigvalsh`` per block."""
    diff = build_fock_matrix(integrals).matrix
    diff -= fock_matrix_of_decomposition(df).matrix
    return max(float(np.abs(np.linalg.eigvalsh(diff[block])).max())
               for block in sector_blocks(df.n_orb))


def reference_df_deviation(integrals, df):
    """Spectral norm of the raw minus the factorized matrix, from one
    full-space eigvalsh."""
    diff = (build_fock_matrix(integrals).matrix
            - fock_matrix_of_decomposition(df).matrix)
    return float(np.abs(np.linalg.eigvalsh(diff)).max())


def assert_spin_sectors_exactly_zero(fock):
    """No entry couples states of different (N_up, N_down)."""
    n = fock.n_orb
    bits = (np.arange(fock.dim)[:, None] >> np.arange(2 * n)) & 1
    up, down = bits[:, :n].sum(axis=1), bits[:, n:].sum(axis=1)
    across = (up[:, None] != up[None, :]) | (down[:, None] != down[None, :])
    coupling = fock.matrix[across]
    assert coupling.size and np.all(coupling == 0.0)


def criterion_6_integrals():
    """Criterion 6's sweep over n_orb <= 3 and every rank, and its parsed
    two-orbital file."""
    fixtures = [gen_synthetic(SyntheticSpec(n_orb=n, rank=r, seed=seed + 7 * r))
                for n in (1, 2, 3) for r in range(n * (n + 1) // 2 + 1)
                for seed in (0, 1)]
    fixtures.append(parse_integrals(
        "NORB 2\n0.25 0 0 0 0\n-1.1 1 1 0 0\n-0.9 2 2 0 0\n0.2 1 2 0 0\n"
        "0.65 1 1 1 1\n0.61 2 2 2 2\n0.47 1 1 2 2\n0.12 1 2 1 2\n"
        "0.08 1 1 1 2\n"))
    return fixtures


def missing_correction_control():
    """Criterion 6's negative control: the leaves with h1 in place of hbar."""
    ints = gen_synthetic(SyntheticSpec(n_orb=2, rank=3, seed=6))
    good = factorize(ints)
    return ints, DFDecomposition(n_orb=2, core_energy=good.core_energy,
                                 h_bar=ints.h1, leaves=good.leaves,
                                 tol_first=0.0, tol_second=0.0)


def assert_same_as_reference(integrals):
    fock = build_fock_matrix(integrals)
    assert fock.n_orb == integrals.n_orb
    assert np.array_equal(fock.matrix, reference_build_fock_matrix(integrals))


def raw_integrals(n_orb, core, h1, h2):
    """Integral arrays without IntegralSet's symmetry checks: the
    assembler reads only these four fields, and asymmetric arrays make
    every term distinct."""
    return SimpleNamespace(n_orb=n_orb, core_energy=core, h1=h1, h2=h2)


# exact zeros of both signs exercise the assembler's `== 0.0` skips
_entries = st.one_of(st.sampled_from([0.0, -0.0]),
                     st.floats(-10.0, 10.0, allow_nan=False))


@st.composite
def asymmetric_integrals(draw):
    n = draw(st.integers(1, 4))
    core = draw(st.floats(-10.0, 10.0).filter(lambda c: c != 0.0))
    h1 = draw(arrays(float, (n, n), elements=_entries))
    h2 = draw(arrays(float, (n, n, n, n), elements=_entries))
    return raw_integrals(n, core, h1, h2)


class TestFockMatrix:
    def test_one_orbital_analytic_spectrum(self):
        fock = build_fock_matrix(hubbard_atom(0.7, 0.9))
        eigs = np.sort(np.linalg.eigvalsh(fock.matrix))
        np.testing.assert_allclose(eigs, [0.0, 0.7, 0.7, 2.3], atol=1e-12)

    def test_core_only_is_scaled_identity(self):
        ints = integral_set(2, -1.5, np.zeros((2, 2)), np.zeros((2, 2, 2, 2)))
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
        ints = integral_set(7, 0.0, np.zeros((7, 7)), np.zeros((7, 7, 7, 7)))
        with pytest.raises(ResourceLimitError):
            build_fock_matrix(ints)

    @pytest.mark.parametrize("n_orb", [1, 2, 3, 4])
    def test_particle_number_blocks_exactly_zero(self, n_orb):
        rng = np.random.default_rng(40 + n_orb)
        ints = raw_integrals(n_orb, 0.3, rng.standard_normal((n_orb,) * 2),
                             rng.standard_normal((n_orb,) * 4))
        assert_spin_sectors_exactly_zero(build_fock_matrix(ints))


class TestReferenceAssembler:
    """The matrix is bit-identical to the sparse-product assembler's."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(asymmetric_integrals())
    def test_asymmetric_integrals_bit_identical(self, ints):
        assert_same_as_reference(ints)

    def test_five_orbitals_bit_identical(self):
        rng = np.random.default_rng(5)
        h1 = rng.standard_normal((5, 5))
        h2 = rng.standard_normal((5, 5, 5, 5))
        h2[rng.random(h2.shape) < 0.2] = 0.0
        assert_same_as_reference(raw_integrals(5, -2.5, h1, h2))

    def test_fixtures_bit_identical(self):
        fixtures = [hubbard_atom(0.7, 0.9),
                    integral_set(2, -1.5, np.zeros((2, 2)),
                                 np.zeros((2, 2, 2, 2)))]
        fixtures += [gen_synthetic(SyntheticSpec(n_orb=n, rank=r, seed=s))
                     for n, r, s in [(1, 0, 0), (2, 1, 1), (2, 2, 2), (3, 3, 3),
                                     (1, 1, 0), (2, 3, 1), (3, 1, 2),
                                     (4, 10, 4), (2, 1, 7), (2, 3, 6),
                                     (2, 0, 5)]]
        rng = np.random.default_rng(8)
        # h1 zero, h2 nonzero only in the (1, 2) slab: every other (i, j)
        # chunk of the two-body scatter is empty
        one_chunk = np.zeros((3, 3, 3, 3))
        one_chunk[1, 2] = rng.standard_normal((3, 3))
        fixtures.append(raw_integrals(3, 0.5, np.zeros((3, 3)), one_chunk))
        # h2 all +-0.0: no two-body term at all
        fixtures.append(raw_integrals(
            3, -1.0, rng.standard_normal((3, 3)),
            np.where(rng.random((3, 3, 3, 3)) < 0.5, 0.0, -0.0)))
        # one orbital on a zero core (the hypothesis cases have core != 0)
        fixtures += [raw_integrals(1, 0.0, np.array([[h1]]),
                                   np.full((1, 1, 1, 1), h2))
                     for h1, h2 in [(0.7, 0.9), (-0.0, 0.9), (0.7, -0.0)]]
        for ints in fixtures + criterion_6_integrals():
            assert_same_as_reference(ints)


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

    @pytest.mark.parametrize("n_orb", [5, 6])
    def test_untruncated_equivalence_full_rank(self, n_orb):
        ints = gen_synthetic(SyntheticSpec(
            n_orb=n_orb, rank=n_orb * (n_orb + 1) // 2, seed=n_orb))
        assert check_df_equivalence(ints, factorize(ints)) <= 1e-9

    def test_sector_norm_matches_full_space(self):
        # truncated decompositions deviate in many sectors, not only one
        cases = [(ints, factorize(ints, tol, tol))
                 for ints in criterion_6_integrals() for tol in (0.0, 1e-2)]
        cases.append(missing_correction_control())
        for ints, df in cases:
            expected = reference_df_deviation(ints, df)
            assert abs(check_df_equivalence(ints, df) - expected) <= 1e-12

    @pytest.mark.parametrize("n_orb", [1, 2, 3, 4])
    def test_matches_sparse_reference(self, n_orb):
        full = n_orb * (n_orb + 1) // 2
        ints = gen_synthetic(SyntheticSpec(n_orb=n_orb, rank=full,
                                           seed=60 + n_orb))
        for tol in (0.0, 1e-2):
            df = factorize(ints, tol, tol)
            expected = reference_fock_matrix_of_decomposition(df)
            fock = fock_matrix_of_decomposition(df)
            assert fock.n_orb == n_orb
            assert (np.abs(fock.matrix - expected).max()
                    <= 1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("n_orb", [1, 2, 3, 4])
    def test_matches_per_term_one_body(self, n_orb):
        full = n_orb * (n_orb + 1) // 2
        ints = gen_synthetic(SyntheticSpec(n_orb=n_orb, rank=full,
                                           seed=60 + n_orb))
        for tol in (0.0, 1e-2):
            df = factorize(ints, tol, tol)
            assert np.array_equal(fock_matrix_of_decomposition(df).matrix,
                                  reference_sector_squares(df))
        # with no leaves (no two-body term), both assemblers are the core
        # and the one-body term alone
        one_body = reference_one_body(core_identity(n_orb, df.core_energy),
                                      df.h_bar)
        assert np.array_equal(
            fock_matrix_of_decomposition(replace(df, leaves=())).matrix,
            one_body)
        assert np.array_equal(build_fock_matrix(raw_integrals(
            n_orb, df.core_energy, df.h_bar, np.zeros((n_orb,) * 4))).matrix,
            one_body)

    @pytest.mark.parametrize("n_orb", [1, 2, 3, 4])
    def test_matches_sector_squares(self, n_orb):
        full = n_orb * (n_orb + 1) // 2
        ints = gen_synthetic(SyntheticSpec(n_orb=n_orb, rank=full,
                                           seed=70 + n_orb))
        cases = [factorize(ints, tol, tol) for tol in (0.0, 1e-2)]
        # a leaf with no eigenpairs squares to zero in every block
        empty = DFLeaf(index=full - 1, weight=-0.75, eigvals=np.zeros(0),
                       vecs=np.zeros((0, n_orb)))
        cases.append(replace(cases[0], leaves=cases[0].leaves[:-1] + (empty,)))
        for df in cases:
            assert np.array_equal(fock_matrix_of_decomposition(df).matrix,
                                  reference_sector_squares(df))

    def test_decomposition_size_cap(self):
        # the factorized assembler shares the raw assembler's cap
        df = factorize(gen_synthetic(SyntheticSpec(n_orb=7, rank=2, seed=8)))
        with pytest.raises(ResourceLimitError,
                           match=f"cap of {FOCK_MAX_ORBITALS}$"):
            fock_matrix_of_decomposition(df)

    @pytest.mark.parametrize("n_orb", [1, 2, 3, 4])
    def test_particle_number_blocks_exactly_zero(self, n_orb):
        full = n_orb * (n_orb + 1) // 2
        for seed in range(3):
            ints = gen_synthetic(SyntheticSpec(n_orb=n_orb, rank=full,
                                               seed=50 + seed))
            for tol in (0.0, 1e-2):
                assert_spin_sectors_exactly_zero(
                    fock_matrix_of_decomposition(factorize(ints, tol, tol)))

    def test_zero_tensor_exact(self):
        ints = gen_synthetic(SyntheticSpec(n_orb=2, rank=0, seed=5))
        df = factorize(ints)
        assert check_df_equivalence(ints, df) <= 1e-12

    def test_negative_control_missing_correction(self):
        assert check_df_equivalence(*missing_correction_control()) > 1e-3

    @pytest.mark.parametrize("n_orb", [1, 2, 3, 4])
    def test_stacked_norm_matches_per_block(self, n_orb):
        full = n_orb * (n_orb + 1) // 2
        ints = gen_synthetic(SyntheticSpec(n_orb=n_orb, rank=full,
                                           seed=80 + n_orb))
        for tol in (0.0, 1e-2):
            df = factorize(ints, tol, tol)
            assert check_df_equivalence(ints, df) == \
                reference_block_deviation(ints, df)

    def test_stacked_norm_matches_per_block_on_control(self):
        control = missing_correction_control()
        assert check_df_equivalence(*control) == \
            reference_block_deviation(*control)

    def test_dimension_mismatch(self):
        ints = gen_synthetic(SyntheticSpec(n_orb=2, rank=1, seed=7))
        df = factorize(gen_synthetic(SyntheticSpec(n_orb=3, rank=1, seed=7)))
        with pytest.raises(ValidationError):
            check_df_equivalence(ints, df)


@pytest.mark.parametrize("n_orb", [1, 2, 3, 5])
def test_fock_tables_are_shared_and_read_only(n_orb):
    """Each n_orb's annihilator-word tables and sector layout are built
    once: every caller gets the same arrays, and writing to them raises."""
    def tables():
        return verify._words(n_orb, 1) + verify._words(n_orb, 2)

    row, column, stacks = verify._sector_layout(n_orb)
    assert all(a is b for a, b in zip(tables(), tables()))
    assert verify._sector_layout(n_orb)[0] is row
    assert verify._sector_layout(n_orb)[1] is column
    # the stacks tile the entries in order, each of whole blocks of one
    # side length, in ascending side length
    assert [stack.start for stack, _ in stacks] == \
        [0] + [stack.stop for stack, _ in stacks][:-1]
    sides = [side for _, (_, side, _) in stacks]
    assert sides == sorted(sides)
    # each block is one whole (N_up, N_down) sector: its states ascending,
    # its entries row-major, entry (t, s) at row[t] + column[s]; the blocks
    # hold every state exactly once
    dim = 1 << 2 * n_orb
    bits = (np.arange(dim)[:, None] >> np.arange(2 * n_orb)) & 1
    spins = np.stack([bits[:, :n_orb].sum(axis=1), bits[:, n_orb:].sum(axis=1)])
    diagonal = []
    for stack, (count, side, columns) in stacks:
        assert columns == side and stack.stop - stack.start == count * side**2
        assert count == 1 or count * side**2 <= verify.CHUNK_ENTRIES
        for start in range(stack.start, stack.stop, side**2):
            states = np.flatnonzero((row >= start) & (row < start + side**2))
            assert np.array_equal(row[states][:, None] + column[states],
                                  start + np.arange(side**2).reshape(side, side))
            sector = (spins == spins[:, states[:1]]).all(axis=0)
            assert np.array_equal(states, np.flatnonzero(sector))
            diagonal.append(states)
    assert np.array_equal(np.sort(np.concatenate(diagonal)), np.arange(dim))
    assert stacks[-1][0].stop == sum(len(states)**2 for states in diagonal)
    for array in tables() + (row, column):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1


@pytest.mark.parametrize("n_orb", [1, 2, 3, 5])
def test_annihilator_word_tables(n_orb):
    """``_words(n, 1)`` holds a_p and ``_words(n, 2)`` holds a_q a_p, a_q
    applied after a_p, for p = (i, sigma) and q = (k, rho), indexed
    [i, sigma] and [i, k, 2 * sigma + rho]. Each word's sign on every
    state is the sparse reference's (length 1) or the product of two
    length-1 signs (length 2); a word that names one spin-orbital twice
    is zero; any other lists as sources exactly its nonzero-sign states,
    ascending, with its target and sign there, and clears its bits."""
    nso, dim = 2 * n_orb, 1 << 2 * n_orb
    states = np.arange(dim)
    reference = np.stack([np.asarray(op.sum(axis=0)).reshape(-1) for op in
                          _reference_annihilation_operators(nso)])
    one, two = verify._words(n_orb, 1), verify._words(n_orb, 2)
    spin_orbital = np.arange(nso).reshape(2, n_orb).T  # [i, sigma]
    assert np.array_equal(one[3], reference[spin_orbital])
    words = [(one, (i,), sigma, [p])
             for (i, sigma), p in np.ndenumerate(spin_orbital)]
    for (i, sigma), p in np.ndenumerate(spin_orbital):
        for (k, rho), q in np.ndenumerate(spin_orbital):
            sign = two[3][i, k, 2 * sigma + rho]
            assert np.array_equal(sign, reference[p] * reference[q, states ^ 1 << p])
            words.append((two, (i, k), 2 * sigma + rho, [p, q]))
    for (sources, targets, signs, every, clears), orbitals, spin, factors \
            in words:
        word = orbitals + (spin,)
        assert clears[word] == sum(1 << p for p in set(factors))
        if len(set(factors)) < len(factors):
            assert not every[word].any() and not signs[word].any()
            continue
        assert np.array_equal(sources[word], np.flatnonzero(every[word]))
        assert np.array_equal(targets[word], sources[word] ^ clears[word])
        assert np.array_equal(signs[word], every[word][sources[word]])


def build_logging_two_body_scatters(monkeypatch, integrals):
    """``build_fock_matrix`` with verify's ``np.add.at`` wrapped: returns
    the matrix and the term count of each scatter of two-factor words,
    the two-body term's."""
    sizes, inside = [], []

    class Add:
        def at(self, array, indices, values):
            if any(inside):
                sizes.append(np.size(indices))
            np.add.at(array, indices, values)

    class Numpy:
        add = Add()

        def __getattr__(self, name):
            return getattr(np, name)

    def scatter(entries, n_orb, coeff, right, left):
        inside.append(len(right) == 2)
        try:
            unpatched(entries, n_orb, coeff, right, left)
        finally:
            inside.clear()

    unpatched = verify._scatter
    with monkeypatch.context() as patch:
        patch.setattr(verify, "np", Numpy())
        patch.setattr(verify, "_scatter", scatter)
        return build_fock_matrix(integrals).matrix, sizes


@pytest.mark.parametrize("n_orb", [1, 2, 3])
def test_two_body_one_scatter_per_orbital(n_orb, monkeypatch):
    # up to n_orb = 3 every (i, j, k, l) term goes in one scatter
    rng = np.random.default_rng(90 + n_orb)
    ints = raw_integrals(n_orb, 0.3, rng.standard_normal((n_orb,) * 2),
                         rng.standard_normal((n_orb,) * 4))
    matrix, sizes = build_logging_two_body_scatters(monkeypatch, ints)
    assert len(sizes) == 1
    assert np.array_equal(matrix, build_fock_matrix(ints).matrix)


@pytest.mark.parametrize("n_orb", [5, 6])
def test_two_body_scatters_bounded(n_orb, monkeypatch):
    rng = np.random.default_rng(90 + n_orb)
    ints = raw_integrals(n_orb, 0.3, rng.standard_normal((n_orb,) * 2),
                         rng.standard_normal((n_orb,) * 4))
    _, sizes = build_logging_two_body_scatters(monkeypatch, ints)
    assert 0 < max(sizes) <= verify.CHUNK_ENTRIES
    assert len(sizes) > n_orb  # the cap splits each i's terms


def test_equivalence_builds_no_dense_matrix():
    """Past its cached tables, the full-rank n_orb = 5 check allocates less
    than one dense 1024 x 1024 matrix (8.4 MB): it works on sector entries."""
    ints = gen_synthetic(SyntheticSpec(n_orb=5, rank=15, seed=5))
    df = factorize(ints)
    check_df_equivalence(ints, df)  # builds the cached tables
    tracemalloc.start()
    try:
        deviation = check_df_equivalence(ints, df)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert deviation <= 1e-9
    assert peak < 1024 * 1024 * 8


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
        assert walk_phase_residual(ham, lam) <= 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_residual_of_a_wrong_walk(self, seed, monkeypatch):
        """Negative control: with the identity for the walk, every phase is
        0, so the residual is the largest |E|/lam, which it must report."""
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((4, 4))
        ham = (mat + mat.T) / 2
        norm = np.abs(np.linalg.eigvalsh(ham)).max()
        monkeypatch.setattr(verify, "build_walk_operator",
                            lambda h, lam: np.eye(2 * len(h)))
        assert walk_phase_residual(ham, 1.5 * norm) >= norm / (1.5 * norm)

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

    @pytest.mark.parametrize("ham, lam, message", [
        (np.zeros((2, 3)), 1.0, "hamiltonian must be a square matrix"),
        (np.zeros((2, 2)), 0.0, "lam must be positive and finite"),
        (np.zeros((2, 2)), math.inf, "lam must be positive and finite"),
        (np.zeros((2, 2)), math.nan, "lam must be positive and finite"),
        (np.array([[0.0, math.nan], [math.nan, 0.0]]), 1.0,
         "hamiltonian entries must be finite"),
        (np.diag([math.inf, 0.0]), 1.0, "hamiltonian entries must be finite"),
    ], ids=["2x3", "lam-0", "lam-inf", "lam-nan", "nan-entry", "inf-entry"])
    def test_refusal_message(self, ham, lam, message):
        with pytest.raises(ValidationError) as err:
            build_walk_operator(ham, lam)
        assert type(err.value) is ValidationError and str(err.value) == message


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

    @pytest.mark.parametrize("unitary, state, m, shots, message", [
        (np.zeros((2, 3)), np.ones(2), 3, 10,
         "unitary must be a square matrix"),
        (np.eye(2), np.ones(2), 0, 10, "phase bits must lie in [1, 20]"),
        (np.eye(2), np.ones(2), 21, 10, "phase bits must lie in [1, 20]"),
        (np.eye(2), np.ones(2), 3, 0, "shots must be positive"),
        (np.eye(2), np.zeros(2), 3, 10, "state must be nonzero"),
        (np.diag([1.0, math.nan]), np.array([1.0, 0.0]), 3, 10,
         "unitary entries must be finite"),
        (np.diag([1.0, math.inf]), np.array([1.0, 0.0]), 3, 10,
         "unitary entries must be finite"),
        (np.eye(2), np.array([math.nan, 0.0]), 3, 10,
         "state entries must be finite"),
        (np.eye(2), np.array([complex(0.0, math.inf), 1.0]), 3, 10,
         "state entries must be finite"),
        (np.eye(2), np.ones(2), 2.5, 10, "m must be an integer, got 2.5"),
        (np.eye(2), np.ones(2), 3, 2.5, "shots must be an integer, got 2.5"),
        (np.eye(2), np.ones(3), 3, 10,
         "state must have 2 entries, got 3"),
    ], ids=["2x3", "m-0", "m-21", "shots-0", "zero-state", "nan-unitary",
            "inf-unitary", "nan-state", "inf-state", "m-float", "shots-float",
            "state-size"])
    def test_refusal_message(self, unitary, state, m, shots, message):
        with pytest.raises(ValidationError) as err:
            run_qpe(unitary, state, m=m, shots=shots)
        assert type(err.value) is ValidationError and str(err.value) == message

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


def test_runtime_imports_no_scipy():
    """scipy is a test dependency only: the package never imports it."""
    code = ("import sys, dfqre, dfqre.cli, dfqre.verify; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(dfqre.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out == "[]\n"
