"""Desk-scale oracles: dense Fock-space Hamiltonians, factorization
equivalence checks, exact walk operators, and a small phase-estimation
simulator.

Everything here works on the full occupation-number space of dimension
4^n_orb, so it is deliberately capped at small sizes: both Fock-space
assemblers (raw integrals, decomposition), and so the equivalence check,
raise ``ResourceLimitError`` above ``FOCK_MAX_ORBITALS`` orbitals; phase
estimation stops at ``QPE_MAX_DIM``. Both assemblers apply ladder
operators to occupation bit strings with the signs of one Jordan-Wigner
table, and form no sparse operator. The equivalence check takes its
spectral norm one (N_up, N_down) sector block at a time. These routines
certify the factorization and cost-model formulas; they are not
simulators of the production circuits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dfact import DFDecomposition
from .errors import ResourceLimitError, ValidationError
from .ingest import IntegralSet

FOCK_MAX_ORBITALS = 6
QPE_MAX_DIM = 64
QPE_MAX_BITS = 20


@dataclass(frozen=True)
class FockMatrix:
    """Dense Hamiltonian on the occupation-number basis.

    Bit p of a basis index is the occupancy of spin-orbital p, with the
    spin-up block in the low bits: spin-orbital (i, up) = i and
    (i, down) = i + n_orb.
    """

    n_orb: int
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return 1 << (2 * self.n_orb)

    def number_operator(self) -> np.ndarray:
        occupied, _ = _jordan_wigner_tables(2 * self.n_orb)
        return occupied.sum(axis=0, dtype=float)


def _jordan_wigner_tables(n_spin_orb: int) -> tuple[np.ndarray, np.ndarray]:
    """Occupancy and Jordan-Wigner sign of spin-orbital p in every state.

    Both arrays are (n_spin_orb, 2^n_spin_orb); the sign is -1 to the
    number of occupied spin-orbitals below p.
    """
    states = np.arange(1 << n_spin_orb, dtype=np.int64)
    bits = (states >> np.arange(n_spin_orb)[:, None]) & 1
    parity_below = np.cumsum(bits, axis=0) - bits
    return bits == 1, 1.0 - 2.0 * (parity_below % 2)


def _sectors(n_orb: int) -> list[np.ndarray]:
    """The basis indices of each (N_up, N_down) sector."""
    occupied, _ = _jordan_wigner_tables(2 * n_orb)
    key = occupied[:n_orb].sum(axis=0) * (n_orb + 1) + occupied[n_orb:].sum(axis=0)
    return [np.flatnonzero(key == k) for k in np.unique(key)]


def _ladders(n_orb: int):
    """Ladder-operator tools on the Fock space of ``n_orb`` orbitals.

    A state is tracked as (source, current, sign); a ladder operator keeps
    the states where spin-orbital p is occupied (a_p) or empty (a+_p),
    flips bit p and multiplies in its Jordan-Wigner sign. A string of them
    sends each source to at most one state, so ``add`` puts its +-coeff
    entries straight into a dense matrix. ``lowered[p]`` is a_p on every
    state, ``dense(core)`` core times the identity.
    """
    if n_orb > FOCK_MAX_ORBITALS:
        raise ResourceLimitError(
            f"n_orb={n_orb} exceeds the dense Fock-space cap of {FOCK_MAX_ORBITALS}")
    dim = 1 << 2 * n_orb
    occupied, jw_sign = _jordan_wigner_tables(2 * n_orb)

    def ladder(p, create, src, cur, sign):
        keep = occupied[p, cur] != create
        cur = cur[keep]
        return src[keep], cur ^ (1 << p), sign[keep] * jw_sign[p, cur]

    def add(matrix, coeff, src, dst, sign):
        matrix.reshape(-1)[dst * dim + src] += coeff * sign

    def dense(core=0.0):
        matrix = np.zeros((dim, dim))
        matrix.reshape(-1)[::dim + 1] = core
        return matrix

    def one_body(matrix, mat):
        """Add sum_ij mat_ij sum_sigma a+_{i,sigma} a_{j,sigma} to ``matrix``."""
        for (i, j), shift in itertools.product(np.argwhere(mat != 0.0), (0, n_orb)):
            add(matrix, mat[i, j], *ladder(i + shift, True, *lowered[j + shift]))
        return matrix

    states = np.arange(dim, dtype=np.int64)
    lowered = [ladder(p, False, states, states, np.ones(dim))
               for p in range(2 * n_orb)]
    return ladder, lowered, add, one_body, dense


def build_fock_matrix(integrals: IntegralSet) -> FockMatrix:
    """Assemble the second-quantized Hamiltonian on the full Fock space.

    The two-body term is built with the operators in their written order
    (a+ a+ a a), so this matrix is independent of any normal-ordering
    identity used elsewhere and can certify those identities.
    """
    n = integrals.n_orb
    ladder, lowered, add, one_body, dense = _ladders(n)
    matrix = one_body(dense(integrals.core_energy), integrals.h1)

    # right factors a_l a_j reused over (i, k); spin shifts 0 (up) and n (down)
    right = {(a, b): ladder(a, False, *lowered[b])
             for a in range(2 * n) for b in range(2 * n)}
    for i, j, k, l in itertools.product(range(n), repeat=4):
        coeff = 0.5 * integrals.h2[i, j, k, l]
        if coeff == 0.0:
            continue
        for sigma, rho in itertools.product((0, n), repeat=2):
            term = ladder(k + rho, True, *right[(l + rho, j + sigma)])
            add(matrix, coeff, *ladder(i + sigma, True, *term))
    return FockMatrix(n_orb=n, matrix=matrix)


def fock_matrix_of_decomposition(df: DFDecomposition) -> FockMatrix:
    """Fock-space matrix of the factorized Hamiltonian, assembled as
    written: the core energy, the hbar one-body term and
    1/2 sum_r c_r O_r^2 over the one-body leaf operators O_r. Each O_r
    conserves both spin counts, so it is squared sector block by block.
    """
    *_, one_body, dense = _ladders(df.n_orb)
    matrix = one_body(dense(df.core_energy), df.h_bar)
    blocks = [np.ix_(s, s) for s in _sectors(df.n_orb)]
    op = dense()
    for leaf in df.leaves:
        one_body(op, leaf.matrix())
        for block in blocks:  # O_r lies in the blocks: clearing them zeroes it
            sub, op[block] = op[block], 0.0
            matrix[block] += 0.5 * leaf.weight * (sub @ sub)
    return FockMatrix(n_orb=df.n_orb, matrix=matrix)


def check_df_equivalence(integrals: IntegralSet, df: DFDecomposition) -> float:
    """Spectral-norm deviation between the raw and factorized Hamiltonians.

    For an untruncated decomposition this certifies both the hbar
    correction formula and the spin handling; values above ~1e-9 indicate
    a broken identity (or a truncated input). Both Hamiltonians conserve
    N_up and N_down, so the difference has no entry between sectors and
    its norm is exactly the largest over the (N_up, N_down) blocks.
    """
    if integrals.n_orb != df.n_orb:
        raise ValidationError("orbital count mismatch between inputs")
    diff = build_fock_matrix(integrals).matrix
    diff -= fock_matrix_of_decomposition(df).matrix
    return max(float(np.abs(np.linalg.eigvalsh(diff[np.ix_(s, s)])).max())
               for s in _sectors(df.n_orb))


# ---------------------------------------------------------------------------
# Walk operator and phase estimation


def build_walk_operator(hamiltonian: np.ndarray, lam: float) -> np.ndarray:
    """Exact qubitization walk for H/lam via a one-ancilla dilation.

    Returns the unitary W = exp(arcsin(H/lam) (x) [[0,-1],[1,0]]); on the
    two-dimensional invariant subspace of each eigenvalue E of H it is the
    rotation with eigenphases +-arcsin(E/lam), i.e. sin(theta) = E/lam.
    """
    mat = np.asarray(hamiltonian, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError("hamiltonian must be a square matrix")
    scale = max(np.abs(mat).max(initial=0.0), 1.0)
    if np.abs(mat - mat.conj().T).max(initial=0.0) > 1e-10 * scale:
        raise ValidationError("hamiltonian is not Hermitian")
    if not (lam > 0 and math.isfinite(lam)):
        raise ValidationError("lam must be positive and finite")
    evals, evecs = np.linalg.eigh(mat)
    if np.abs(evals).max(initial=0.0) > lam * (1.0 + 1e-12):
        raise ValidationError("lam is smaller than the spectral norm of H")
    scaled = np.clip(evals / lam, -1.0, 1.0)
    cosines = np.sqrt(1.0 - scaled**2)
    block_a = (evecs * scaled) @ evecs.conj().T
    block_c = (evecs * cosines) @ evecs.conj().T
    walk = np.block([[block_c, -block_a], [block_a, block_c]])
    if np.abs(mat.imag).max(initial=0.0) == 0.0:
        walk = walk.real.astype(float)
    return walk


@dataclass(frozen=True)
class WalkSpectrumReport:
    lam: float
    pairs: tuple[tuple[float, float], ...]  # (energy, matched walk phase)
    max_residual: float


def walk_spectrum_report(hamiltonian: np.ndarray, lam: float
                         ) -> WalkSpectrumReport:
    """Match walk eigenphases against arcsin of the spectrum of H/lam.

    Phases are reported in (-pi, pi]; each energy may match either branch
    (theta or pi - theta), both of which satisfy sin(theta) = E/lam.
    """
    walk = build_walk_operator(hamiltonian, lam)
    phases = np.angle(np.linalg.eigvals(walk))
    phases = np.where(phases <= -np.pi + 1e-15, np.pi, phases)
    energies = np.linalg.eigvalsh(np.asarray(hamiltonian))
    pairs = []
    max_residual = 0.0
    for energy in energies:
        residuals = np.abs(np.sin(phases) - energy / lam)
        best = int(np.argmin(residuals))
        pairs.append((float(energy), float(phases[best])))
        max_residual = max(max_residual, float(residuals[best]))
    return WalkSpectrumReport(lam=float(lam), pairs=tuple(pairs),
                              max_residual=max_residual)


@dataclass(frozen=True)
class PhaseSamples:
    """Measured m-bit phase frequencies from a QPE run."""

    m: int
    counts: np.ndarray
    shots: int

    @property
    def phases(self) -> np.ndarray:
        """Phase value (in turns, [0, 1)) of each outcome bin."""
        return np.arange(1 << self.m) / (1 << self.m)

    def mode_phase(self) -> float:
        return float(np.argmax(self.counts)) / (1 << self.m)

    def mass_within(self, phase: float, tol: float) -> float:
        """Fraction of shots within ``tol`` turns of ``phase`` (mod 1)."""
        delta = np.abs((self.phases - phase + 0.5) % 1.0 - 0.5)
        return float(self.counts[delta <= tol + 1e-15].sum()) / self.shots


def run_qpe(unitary: np.ndarray, state: np.ndarray, m: int, shots: int,
            seed: int = 0) -> PhaseSamples:
    """Textbook phase estimation of an eigenvector's phase.

    Controlled powers U^(2^k) are evaluated by repeated dense squaring and
    the inverse Fourier transform is applied to the resulting kickback
    amplitudes; outcomes are sampled from the exact distribution.
    """
    mat = np.asarray(unitary, dtype=complex)
    dim = mat.shape[0]
    if mat.ndim != 2 or mat.shape[1] != dim:
        raise ValidationError("unitary must be a square matrix")
    if dim > QPE_MAX_DIM:
        raise ResourceLimitError(f"dimension {dim} exceeds {QPE_MAX_DIM}")
    if not 1 <= m <= QPE_MAX_BITS:
        raise ValidationError(f"phase bits must lie in [1, {QPE_MAX_BITS}]")
    if shots < 1:
        raise ValidationError("shots must be positive")
    defect = np.abs(mat.conj().T @ mat - np.eye(dim)).max()
    if defect > 1e-10:
        raise ValidationError(f"matrix is not unitary (defect {defect:.2e})")

    vec = np.asarray(state, dtype=complex).reshape(dim)
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValidationError("state must be nonzero")
    vec = vec / norm
    eigval = vec.conj() @ (mat @ vec)
    if np.linalg.norm(mat @ vec - eigval * vec) > 1e-9:
        raise ValidationError("state is not an eigenvector of the unitary")

    # kickback phase of each controlled power, from the actual matrix powers
    phase_factors = np.empty(m, dtype=complex)
    power = mat
    for k in range(m):
        mu = vec.conj() @ (power @ vec)
        phase_factors[k] = mu / abs(mu)
        power = power @ power

    amplitudes = np.ones(1, dtype=complex)
    for k in range(m - 1, -1, -1):  # bit k of the ancilla index weights U^(2^k)
        amplitudes = np.kron(amplitudes, [1.0, phase_factors[k]])
    amplitudes = amplitudes / math.sqrt(1 << m)

    transformed = np.fft.fft(amplitudes) / math.sqrt(1 << m)
    probs = np.abs(transformed) ** 2
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    rng = np.random.Generator(np.random.PCG64(seed))
    counts = rng.multinomial(shots, probs)
    return PhaseSamples(m=m, counts=counts, shots=shots)


def signed_phase(phase_turns: float) -> float:
    """Map a phase in turns ([0,1)) to radians in (-pi, pi]."""
    theta = 2.0 * math.pi * (phase_turns % 1.0)
    if theta > math.pi:
        theta -= 2.0 * math.pi
    return theta
