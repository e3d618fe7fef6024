from __future__ import annotations

from importlib import resources

import numpy as np
import pytest

import dfqre
from dfqre.dfact import reconstruct
from dfqre.ingest import IntegralSet, _pair_indices

ACCEPTANCE_DESCRIPTIONS = {
    1: "table reproduction (physical layer, 47 rows)",
    2: "tight-budget pin (d=19 vs d=17 flip)",
    3: "scaling claim (full-rank DF model fits n^5 +/- 0.4; published "
       "exponent between the model's R = n fit and 5.4)",
    4: "logical-layer properties (slope, qubit ratio, budget identities)",
    5: "factorization oracle (exhaustive reconstruct sweep)",
    6: "Hamiltonian equivalence oracle (Fock-space check)",
    7: "qubitization semantics (walk spectra, QPE, micro-pipeline)",
    8: "workflow arithmetic (FMO assembly, binding affinity)",
    9: "parsers (geometry round-trips, integral validation)",
}

_acceptance_results: dict[int, str] = {}


def pack_pairs(h2) -> np.ndarray:
    """The unweighted pair matrix ``IntegralSet.pairs`` of a dense (ij|kl)
    test fixture. Packing keeps one image per symmetry class, so a fixture
    that is not exactly 8-fold symmetric is refused, not silently cut."""
    h2 = np.asarray(h2, dtype=float)
    for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
        if not np.array_equal(h2, h2.transpose(perm)):
            raise ValueError("fixture h2 violates 8-fold index symmetry")
    iu, ju, _ = _pair_indices(len(h2))
    return h2[iu[:, None], ju[:, None], iu[None, :], ju[None, :]]


def integral_set(n_orb, core_energy, h1, h2) -> IntegralSet:
    """An IntegralSet from a dense, 8-fold symmetric h2 fixture."""
    return IntegralSet(n_orb, core_energy, h1, pack_pairs(h2))


def _weighted(pairs: np.ndarray, n_orb: int) -> np.ndarray:
    _, _, w = _pair_indices(n_orb)
    return pairs * w[:, None] * w[None, :]


def stage1_matrix(ints: IntegralSet) -> np.ndarray:
    """V[(ij),(kl)] = w_ij w_kl (ij|kl), the matrix stage 1 eigendecomposes."""
    return _weighted(ints.pairs, ints.n_orb)


def pair_residual(ints: IntegralSet, df) -> np.ndarray:
    """V minus the V of ``reconstruct(df)``: its 2-norm is what
    ``truncation_bound`` bounds. The reconstructed h2 is symmetric only to
    rounding, so its (i <= j, k <= l) images are read, as stage 1 reads
    the integrals."""
    iu, ju, _ = _pair_indices(ints.n_orb)
    rebuilt = reconstruct(df)[iu[:, None], ju[:, None], iu[None, :], ju[None, :]]
    return _weighted(ints.pairs - rebuilt, ints.n_orb)


@pytest.fixture(scope="session")
def reference_rows():
    return dfqre.load_reference_table()


@pytest.fixture(scope="session")
def geometry_texts():
    base = resources.files("dfqre.data").joinpath("geometries")
    return {
        n: base.joinpath(f"fragment_{n:02d}.xyz").read_text()
        for n in range(1, 17)
    }


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or "test_acceptance" not in str(item.fspath):
        return
    marker = item.get_closest_marker("criterion")
    if marker:
        number = marker.args[0]
        _acceptance_results[number] = "PASS" if report.passed else "FAIL"


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(n): acceptance criterion number")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_acceptance_results):
        status = _acceptance_results[number]
        desc = ACCEPTANCE_DESCRIPTIONS.get(number, "")
        terminalreporter.write_line(f"criterion {number}: {status} - {desc}")
