import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import integral_set, pair_residual, stage1_matrix
from dfqre.dfact import (ZERO_EIG_RTOL, DFDecomposition, DFLeaf,
                         _truncate_by_magnitude, choose_tolerances, factorize,
                         lambda_norms, qpe_energy_offset, reconstruct)
from dfqre.errors import NumericalError, ParseError, ValidationError
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


def reference_truncate(eigvals, tol):
    """The truncation rule on one spectrum, as factorize applied it leaf by
    leaf before the spectra were stacked: (kept indices, discarded mass)."""
    magnitudes = np.abs(eigvals)
    top = magnitudes.max(initial=0.0)
    order = np.argsort(-magnitudes, kind="stable")
    live = order[magnitudes[order] > ZERO_EIG_RTOL * top] if top > 0 else order[:0]
    discarded = float(magnitudes[order[len(live):]].sum())

    if tol > 0 and len(live):
        tail = magnitudes[live][::-1]
        budget_used = np.cumsum(tail)
        n_drop = int(np.searchsorted(budget_used, tol, side="right"))
        if n_drop:
            discarded += float(budget_used[n_drop - 1])
            live = live[: len(live) - n_drop]
    return live, discarded


@st.composite
def spectra_and_tol(draw):
    """A stack of spectra with exact zeros, values at and next to the
    zero cutoff, tied magnitudes and all-zero rows, and a tolerance that is
    0, drawn, or exactly one of the budget sums the rule compares with."""
    rows, width = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    stack = np.zeros((rows, width))
    for r in range(rows):
        if draw(st.integers(0, 4)) == 0:
            continue  # all zero
        top = draw(st.floats(1e-6, 1e6))
        cut = ZERO_EIG_RTOL * top
        pool = [0.0, top, cut, np.nextafter(cut, 1.0), cut / 3,
                *draw(st.lists(st.floats(-top, top), min_size=1, max_size=3))]
        value = (st.sampled_from(pool) | st.floats(0.0, cut)
                 | st.floats(-top, top))
        row = np.array(draw(st.lists(value, min_size=width, max_size=width)))
        signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                       min_size=width, max_size=width)))
        row[draw(st.integers(0, width - 1))] = top
        stack[r] = row * signs
    live_sums = [0.0]
    for row in stack:  # the cumulated live magnitudes, smallest first
        kept, _ = reference_truncate(row, 0.0)
        live_sums += np.cumsum(np.abs(row[kept])[::-1]).tolist()
    tol = draw(st.sampled_from([0.0, *live_sums]) | st.floats(0.0, 1e7))
    return stack, tol


@settings(max_examples=300, deadline=None)
@given(spectra_and_tol())
def test_stacked_truncation_matches_per_leaf_rule(case):
    """Each row keeps the indices and discards the mass, bit for bit, of
    the rule applied to that row alone."""
    stack, tol = case
    order, count, discarded = _truncate_by_magnitude(stack, tol)
    assert order.shape == stack.shape and count.shape == discarded.shape
    for r, row in enumerate(stack):
        kept, mass = reference_truncate(row, tol)
        assert np.array_equal(order[r, :count[r]], kept)
        assert discarded[r].tobytes() == np.float64(mass).tobytes()


def test_stacked_truncation_sums_long_zero_tails_pairwise():
    """Zero tails of several lengths above numpy's 8-term unrolled block,
    whose pairwise sum groups terms by the tail's own length."""
    rng = np.random.default_rng(0)
    stack = np.zeros((4, 40))
    stack[:, 0] = 1.0
    for r, length in enumerate((9, 17, 30, 39)):
        stack[r, 1:length + 1] = rng.uniform(0.0, 1e-12, length) * 0.999
    order, count, discarded = _truncate_by_magnitude(stack, 0.0)
    for r, row in enumerate(stack):
        kept, mass = reference_truncate(row, 0.0)
        assert np.array_equal(order[r, :count[r]], kept)
        assert discarded[r].tobytes() == np.float64(mass).tobytes()


GOOD_LEAF = dict(index=2, weight=0.5, eigvals=[0.5, -0.25],
                 vecs=[[1.0, 0.0], [0.0, 1.0]])
NON_FINITE = "leaf 2 holds a non-finite value"


def shapes(eigvals, vecs, n_orb=2):
    return (f"leaf 2 has eigvals {eigvals} and vecs {vecs}, "
            f"not shapes (k,) and (k, {n_orb})")


def one_leaf_builds(leaf, n_orb=2):
    """Two ways to a one-leaf decomposition of ``leaf`` (DFLeaf fields):
    built directly, and read by ``DFDecomposition.loads`` from its JSON."""
    fields = dict(n_orb=n_orb, core_energy=0.0, h_bar=np.zeros((n_orb, n_orb)),
                  tol_first=0.0, tol_second=0.0)
    text = json.dumps(dict(fields, leaves=[leaf]), default=np.ndarray.tolist)
    return [lambda: DFDecomposition(**fields, leaves=(DFLeaf(**leaf),)),
            lambda: DFDecomposition.loads(text)]


@pytest.mark.parametrize("change, message", [
    ({"weight": math.nan}, NON_FINITE),
    ({"weight": -math.inf}, NON_FINITE),
    ({"eigvals": [0.5, math.nan]}, NON_FINITE),
    ({"eigvals": [math.inf, 0.25]}, NON_FINITE),
    ({"vecs": [[1.0, 0.0], [0.0, math.nan]]}, NON_FINITE),
    ({"vecs": [[1.0, -math.inf], [0.0, 1.0]]}, NON_FINITE),
    # non-finite and non-orthonormal: the non-finite check comes first
    ({"eigvals": [math.nan, 0.25], "vecs": [[1.0, 0.0], [1.0, 0.0]]},
     NON_FINITE),
    ({"eigvals": [0.5]}, shapes("(1,)", "(2, 2)")),
    ({"vecs": [[1.0, 0.0], [1.0, 0.0]]},
     "leaf eigenvectors are not orthonormal"),
    ({"vecs": [[1.0, 0.0], [0.0, 1.0 + 1e-9]]},
     "leaf eigenvectors are not orthonormal"),
    ({"vecs": [[1.0, 2e-10], [0.0, 1.0]]},
     "leaf eigenvectors are not orthonormal"),
    # 1-D vectors, of one eigenpair or of two
    ({"vecs": [0.0, 1.0]}, shapes("(2,)", "(2,)")),
    ({"eigvals": [0.5], "vecs": [-1.0]}, shapes("(1,)", "(1,)")),
    # arrays of the wrong rank: a column of eigenvalues, 3-D vectors
    ({"eigvals": [[0.5], [-0.25]]}, shapes("(2, 1)", "(2, 2)")),
    ({"vecs": [[[1.0], [0.0]], [[0.0], [1.0]]]}, shapes("(2,)", "(2, 2, 1)")),
    ({"eigvals": [0.25, -0.5]}, "leaf eigenvalues not sorted by magnitude"),
    ({"eigvals": [0.5, 0.5 + 1e-14]},
     "leaf eigenvalues not sorted by magnitude"),
])
def test_leaf_fault_messages(change, message):
    for build in one_leaf_builds({**GOOD_LEAF, **change}):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build()


@pytest.mark.parametrize("change, n_orb", [
    ({}, 2),
    ({"vecs": [[1.0, 5e-11], [0.0, 1.0]]}, 2),  # within the 1e-10 Gram check
    ({"eigvals": [0.5, -0.5 - 1e-16]}, 2),  # a tie within 1e-15
    ({"eigvals": [], "vecs": []}, 2),  # an empty leaf as JSON reads it
    ({"eigvals": np.zeros(0), "vecs": np.zeros((0, 3))}, 3),
])
def test_leaf_checks_accept(change, n_orb):
    for build in one_leaf_builds({**GOOD_LEAF, **change}, n_orb):
        (leaf,) = build().leaves
        assert leaf.vecs.shape == (leaf.n_eigs, n_orb)


def test_leaf_checks_report_first_failing_check_across_leaves():
    """Each check runs over every leaf before the next, so a later leaf's
    non-finite weight is reported before an earlier leaf's order fault;
    leaves of 2, 1 and 0 eigenpairs share one zero-padded stack."""
    leaves = [dict(GOOD_LEAF, index=7, eigvals=[0.25, -0.5]),
              dict(GOOD_LEAF, index=5, eigvals=[0.5], vecs=[[0.0, 1.0]]),
              dict(GOOD_LEAF, index=4, weight=math.nan, eigvals=[], vecs=[])]
    df = dict(n_orb=2, core_energy=0.0, h_bar=[[0.0, 0.0], [0.0, 0.0]],
              tol_first=0.0, tol_second=0.0)
    for count, message in [(3, "leaf 4 holds a non-finite value"),
                           (2, "leaf eigenvalues not sorted by magnitude")]:
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            DFDecomposition.loads(json.dumps(dict(df, leaves=leaves[:count])))
    leaves[0]["eigvals"] = [-0.5, 0.25]
    good = DFDecomposition.loads(json.dumps(dict(df, leaves=leaves[:2])))
    assert good.dims() == (2, 2, 3)


@pytest.mark.parametrize("where, factor, message", [
    (np.s_[0, :, -1], 1.5, "leaf eigenvectors are not orthonormal"),
    (np.s_[1, 0, -1], math.nan, "leaf 1 holds a non-finite value"),
], ids=["not-orthonormal", "nan"])
def test_factorize_checks_stacked_leaf_vectors(where, factor, message,
                                               monkeypatch):
    """The decomposition ``factorize`` returns makes the leaf checks a
    decomposition file gets, and refuses a faulty stage-2 eigenvector."""
    eigh = np.linalg.eigh

    def faulty_eigh(matrices):
        vals, vecs = eigh(matrices)
        if vecs.ndim == 3:  # the batched stage-2 call; column -1 is kept
            vecs = vecs.copy()
            vecs[where] *= factor
        return vals, vecs
    monkeypatch.setattr(np.linalg, "eigh", faulty_eigh)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        factorize(make_set(3, 4, seed=2))


@pytest.mark.parametrize("text, message", [
    ("NORB 2\n1e308 1 2 1 2\n", "non-finite stage-1 eigenvalues"),
    ("NORB 1\n1.5e308 1 1 0 0\n-1.5e308 1 1 1 1\n",
     "h_bar past the float range"),
], ids=["pairs", "h-bar"])
def test_factorize_overflow_refused_without_warning(text, message):
    """Called from Python, past-the-float-range integrals raise the
    refusal alone: the ``filterwarnings`` rule turns any numpy warning on
    the way into a failure."""
    with pytest.raises(NumericalError, match=f"^{message}$"):
        factorize(parse_integrals(text))


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
        for build in one_leaf_builds(dict(
                index=0, weight=1.0, eigvals=np.array([0.5, 0.4]),
                vecs=np.array([[1.0, 0.0], [1.0, 0.0]]))):
            with pytest.raises(ValidationError):
                build()

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
