"""Acceptance suite: one test per project acceptance criterion.

Each test is tagged with its criterion number; the session summary
(printed by conftest) shows one pass/fail line per criterion.
"""

import functools
import itertools
import math
import time

import numpy as np
import pytest

import dfqre
from conftest import pair_residual
from dfqre.dfact import DFDecomposition, factorize, lambda_norms, \
    qpe_energy_offset, reconstruct
from dfqre.ingest import SyntheticSpec, gen_synthetic, parse_integrals, \
    parse_xyz, serialize_xyz
from dfqre.errors import ParseError
from dfqre.logicalcost import EstimationConfig, _walk_step_cost
from dfqre.physcost import CodeParams, _logical_error_rate, get_preset
from dfqre.pipeline import (DimerEnergy, FragmentEnergyLedger,
                            binding_affinity, fit_scaling, fmo_assemble,
                            reproduce_table)
from dfqre.verify import (build_fock_matrix, build_walk_operator,
                          check_df_equivalence, run_qpe, signed_phase,
                          walk_phase_residual)

QP = get_preset("qubit_gate_ns_e4")

EXPECTED_ATOM_COUNTS = {1: 12, 2: 10, 3: 15, 4: 20, 5: 24, 6: 17, 7: 12,
                        8: 11, 9: 7, 10: 21, 11: 15, 12: 16, 13: 17, 14: 17,
                        15: 17, 16: 25}


@pytest.mark.criterion(1)
def test_criterion_1_table_reproduction(reference_rows):
    """Feeding every published (N_logical, T_count) pair back through the
    physical model reproduces distance, qubits, runtime and factories."""
    start = time.perf_counter()
    comparison = reproduce_table(reference_rows)
    elapsed = time.perf_counter() - start

    assert len(comparison.rows) == 47
    assert comparison.summary()["distance_exact"] >= 45
    matching = [r for r in comparison.rows if r.distance_match]
    assert all(r.physical_rel_err <= 0.02 for r in matching)
    assert all(r.runtime_rel_err <= 0.10 for r in comparison.rows)
    assert all(abs(r.factory_diff) <= 2 for r in comparison.rows)

    by_key = {(r.row.fragment, r.row.basis): r for r in comparison.rows}
    frag8 = by_key[("8", "sto-3g")]
    assert frag8.model_distance == 15
    assert frag8.physical_rel_err <= 0.02
    metal = by_key[("5+Cu", "6-31g*")]
    assert metal.model_distance == 19
    assert metal.physical_rel_err <= 0.02
    assert metal.runtime_rel_err <= 0.10
    # the distance steps up through the table
    assert by_key[("2", "sto-3g")].model_distance == 17
    assert by_key[("6", "6-31g*")].model_distance == 19

    assert elapsed < 1.0


@pytest.mark.criterion(2)
def test_criterion_2_tight_budget_pin():
    """Fragment 6 (6-31g*) needs d=19 while fragment 11 (6-31g*) stays at
    d=17 under the same 0.01/3 logical share; the margin is decisive."""
    config = EstimationConfig()
    eps_logical = config.budget_split.logical

    frag6 = dfqre.estimate_physical(2938, int(1.87e13), QP, config=config)
    frag11 = dfqre.estimate_physical(2734, int(1.62e13), QP, config=config)
    assert frag6.distance == 19
    assert frag11.distance == 17

    p_l_17 = _logical_error_rate(17, QP.p_gate, CodeParams())
    failure_6_at_17 = frag6.tiles * 1.87e13 * p_l_17
    failure_11_at_17 = frag11.tiles * 1.62e13 * p_l_17
    assert failure_6_at_17 > eps_logical
    assert failure_11_at_17 <= eps_logical
    assert failure_6_at_17 == pytest.approx(3.38e-3, rel=0.01)
    assert eps_logical == pytest.approx(3.33e-3, rel=0.01)


def _full_rank(n):
    return n * (n + 1) // 2


@functools.lru_cache(maxsize=None)
def _synthetic_estimate(n_orb, rank):
    """Logical estimate of the seeded synthetic family (seed 100 + n_orb)
    that criteria 3 and 4 share; cached so each size is factorized once."""
    ints = gen_synthetic(SyntheticSpec(n_orb=n_orb, rank=rank,
                                       seed=100 + n_orb))
    return dfqre.estimate_logical(factorize(ints), EstimationConfig())


def _ladder_exponent(sizes, rank):
    return fit_scaling([(n, _synthetic_estimate(n, rank(n)).t_count)
                        for n in sizes])


@pytest.mark.criterion(3)
def test_criterion_3_scaling_claim(reference_rows):
    """Stated claim: T counts of double-factorized QPE grow as O(n^5).

    In the cost model a walk step costs ~R*n T gates (lookups over R*n
    leaf eigenpairs, 2n Givens rotations per leaf) and lambda grows as
    ~sqrt(R)*n, so for pair rank R ~ n^a the T count grows as
    n^(2 + 1.5a), up to the log factor of rotation synthesis. O(n^5) is
    the full-rank worst case (a = 2); integrals with O(n) pair rank
    (a = 1) give n^3.5. The claim is checked in two halves:

    - the model's worst case: a full-pair-rank ladder (n_orb 8..16,
      R = n(n+1)/2) fits an exponent in 5.0 +/- 0.4 (about 4.91);
    - the published table: its 47 counts fit an exponent between the
      model's O(n)-rank ladder (R = n, about 3.54) and the top of that
      band, i.e. they grow as double factorization at some pair rank
      between O(n) and O(n^2) does. They fit about 3.91, which
      test_pipeline also pins.
    """
    points = [(row.n_orb, row.t_count) for row in reference_rows]
    exponent = fit_scaling(points)

    # independent regression oracle: closed-form covariance slope
    xs = np.log([n for n, _ in points])
    ys = np.log([t for _, t in points])
    oracle = float(((xs - xs.mean()) * (ys - ys.mean())).sum()
                   / ((xs - xs.mean()) ** 2).sum())
    assert exponent == pytest.approx(oracle, abs=1e-9)

    sizes = (8, 10, 12, 14, 16)
    model_exponent = _ladder_exponent(sizes, _full_rank)
    assert 4.6 <= model_exponent <= 5.4, (
        f"model worst case: full-rank DF T counts fit n^{model_exponent:.3f}"
        ", outside 5.0 +/- 0.4; the logical cost model does not scale as "
        "the O(n^5) claim says")

    low_rank_exponent = _ladder_exponent(sizes, lambda n: n)
    assert exponent >= low_rank_exponent, (
        f"published table: its T counts fit n^{exponent:.3f}, slower than "
        f"the model at pair rank R = n (n^{low_rank_exponent:.3f}); no pair "
        "rank of double factorization explains the table")
    assert exponent <= 5.4, (
        f"published table: its T counts fit n^{exponent:.3f}, faster than "
        "the O(n^5) bound allows (top of the band 5.4)")


@pytest.mark.criterion(4)
def test_criterion_4_logical_layer_properties():
    """Synthetic full-rank families: T-count slope in [4, 6], logical
    qubits an order of magnitude above orbitals, budget identities exact."""
    config = EstimationConfig()
    points = []
    for n in (4, 6, 8, 10, 12):
        est = _synthetic_estimate(n, _full_rank(n))
        points.append((n, est.t_count))
        ratio = est.n_logical_qubits / n
        assert 8.0 <= ratio <= 40.0, (n, ratio)
        assert est.t_count >= est.qpe_steps

    slope = fit_scaling(points)
    assert 4.0 <= slope <= 6.0, slope

    # rotation-budget identity holds exactly at several run lengths
    for steps in (1, 313, 10**6):
        cost = _walk_step_cost((6, 21, 126), config, steps)
        assert steps * cost["rotations_per_step"] * cost["eps_rotation"] \
            <= config.budget_split.rotations


@pytest.mark.criterion(5)
def test_criterion_5_factorization_oracle():
    """Exhaustive rank sweep for n_orb <= 6: reconstruction is the
    identity without truncation, bounded under truncation, and the
    output serialization is byte-stable across runs."""
    for n_orb in range(1, 7):
        for rank in range(n_orb * (n_orb + 1) // 2 + 1):
            ints = gen_synthetic(SyntheticSpec(n_orb=n_orb, rank=rank,
                                               seed=rank + 31))
            df = factorize(ints)
            assert np.abs(reconstruct(df) - ints.h2).max() <= 1e-10
            assert df.n_leaves == rank
            assert factorize(ints).dumps() == df.dumps()

    ints = gen_synthetic(SyntheticSpec(n_orb=5, rank=12, seed=8))
    for tol in (1e-4, 1e-2, 1e-1):
        df = factorize(ints, tol_first=tol, tol_second=tol)
        delta = pair_residual(ints, df)
        two_norm = np.abs(np.linalg.eigvalsh(delta)).max()
        assert two_norm <= df.truncation_bound + 1e-12


@pytest.mark.criterion(6)
def test_criterion_6_equivalence_oracle():
    """Fock-space equivalence of raw and factorized Hamiltonians for all
    n_orb <= 3 fixtures certifies the one-body correction and the spin
    factors; omitting the correction is caught."""
    for n_orb in (1, 2, 3):
        for rank in range(n_orb * (n_orb + 1) // 2 + 1):
            for seed in (0, 1):
                ints = gen_synthetic(SyntheticSpec(n_orb=n_orb, rank=rank,
                                                   seed=seed + 7 * rank))
                df = factorize(ints)
                assert check_df_equivalence(ints, df) <= 1e-9

    parsed = parse_integrals(
        "NORB 2\n0.25 0 0 0 0\n-1.1 1 1 0 0\n-0.9 2 2 0 0\n0.2 1 2 0 0\n"
        "0.65 1 1 1 1\n0.61 2 2 2 2\n0.47 1 1 2 2\n0.12 1 2 1 2\n"
        "0.08 1 1 1 2\n")
    assert check_df_equivalence(parsed, factorize(parsed)) <= 1e-9

    ints = gen_synthetic(SyntheticSpec(n_orb=2, rank=3, seed=6))
    good = factorize(ints)
    control = DFDecomposition(n_orb=2, core_energy=good.core_energy,
                              h_bar=ints.h1, leaves=good.leaves,
                              tol_first=0.0, tol_second=0.0)
    assert check_df_equivalence(ints, control) > 1e-3


@pytest.mark.criterion(7)
def test_criterion_7_qubitization_semantics():
    """Walk spectra, phase-estimation accuracy, and the end-to-end
    micro-pipeline behave per the qubitization relations."""
    rng = np.random.default_rng(2024)
    for _ in range(50):
        dim = int(rng.integers(1, 9))
        mat = rng.standard_normal((dim, dim))
        ham = (mat + mat.T) / 2
        lam = 1.5 * np.abs(np.linalg.eigvalsh(ham)).max() + 1e-9
        assert walk_phase_residual(ham, lam) <= 1e-8
        walk = build_walk_operator(ham, lam)
        assert np.abs(walk.conj().T @ walk - np.eye(2 * dim)).max() <= 1e-10

    unitary = np.diag([1.0, np.exp(2j * np.pi * 0.25)])
    exact = run_qpe(unitary, np.array([0.0, 1.0]), m=3, shots=1000, seed=3)
    assert exact.mass_within(0.25, 0.0) == 1.0

    unitary = np.diag([1.0, np.exp(2j * np.pi * 0.3)])
    fuzzy = run_qpe(unitary, np.array([0.0, 1.0]), m=5, shots=1000, seed=11)
    assert abs(fuzzy.mode_phase() - 0.3) <= 2**-5
    assert fuzzy.mass_within(0.3, 2**-5) >= 0.8

    for seed in range(3):
        ints = gen_synthetic(SyntheticSpec(n_orb=2, rank=3, seed=seed))
        df = factorize(ints)
        _, _, lam = lambda_norms(df)
        shift = qpe_energy_offset(df)
        ham = build_fock_matrix(ints).matrix
        evals, evecs = np.linalg.eigh(ham)
        ground, gs = evals[0], evecs[:, 0]
        walk = build_walk_operator(ham - shift * np.eye(len(ham)), lam)
        eigenstate = np.concatenate([gs, -1j * gs]) / math.sqrt(2)
        m_bits = 12
        samples = run_qpe(walk, eigenstate, m=m_bits, shots=300, seed=seed)
        energy = shift + lam * math.sin(signed_phase(samples.mode_phase()))
        assert abs(energy - ground) <= lam * 2 * math.pi * 2**-m_bits + 1e-9


@pytest.mark.criterion(8)
def test_criterion_8_workflow_arithmetic():
    """FMO assembly and binding-affinity arithmetic, including the
    15-monomer/105-dimer case and the Hartree -> kJ/mol conversion."""
    assert fmo_assemble(FragmentEnergyLedger(
        monomers={"A": -1.0, "B": -2.0}, dimers=())) == -3.0
    assert fmo_assemble(FragmentEnergyLedger(
        monomers={"A": -1.0, "B": -2.0},
        dimers=(DimerEnergy(("A", "B"), -3.5),))) == pytest.approx(-3.5,
                                                                   abs=1e-15)

    labels = [f"f{i}" for i in range(15)]
    dimers = tuple(DimerEnergy(pair, -2.0)
                   for pair in itertools.combinations(labels, 2))
    assert len(dimers) == 105
    total = fmo_assemble(FragmentEnergyLedger(
        monomers={name: -1.0 for name in labels}, dimers=dimers))
    assert total == pytest.approx(-15.0, abs=1e-12)

    hartree, kj = binding_affinity(-10.0, -9.0, -1.0)
    assert hartree == 0.0 and kj == 0.0
    hartree, kj = binding_affinity(-10.5, -9.0, -1.0)
    assert hartree == pytest.approx(-0.5, abs=1e-15)
    assert round(kj, 2) == -1312.75


@pytest.mark.criterion(9)
def test_criterion_9_parsers(geometry_texts):
    """All 16 geometry fixtures parse with the right atom counts and
    round-trip byte-stably; integral parsing enforces symmetry and
    bounds with the documented errors."""
    for fragment, text in geometry_texts.items():
        geom = parse_xyz(text)
        assert len(geom) == EXPECTED_ATOM_COUNTS[fragment], fragment
        serialized = serialize_xyz(geom)
        assert parse_xyz(serialized) == geom
        assert serialize_xyz(parse_xyz(serialized)) == serialized

    frag9 = parse_xyz(geometry_texts[9])
    assert frag9.atoms[0].element == "C"
    assert frag9.atoms[0].position == (-3.74, 8.105, 5.22)
    assert frag9.atoms[6].element == "H"
    assert frag9.atoms[6].position == (-2.780, 5.688, 6.031)

    with pytest.raises(ParseError):
        parse_integrals("NORB 2\n0.1 1 3 1 1\n")  # index out of range
    with pytest.raises(ParseError):
        parse_integrals("NORB 2\n0.1 1 2 1 2\n0.3 2 1 2 1\n")  # conflict
    with pytest.raises(ParseError):
        parse_integrals("0.1 1 1 1 1\n")  # missing header

    expanded = parse_integrals("NORB 2\n0.1 1 2 1 2\n")
    for idx in ((0, 1, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0), (1, 0, 1, 0)):
        assert expanded.h2[idx] == 0.1
