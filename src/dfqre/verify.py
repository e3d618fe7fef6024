"""Desk-scale oracles: dense Fock-space Hamiltonians, factorization
equivalence checks, exact walk operators, and a small phase-estimation
simulator.

Everything here works on the full occupation-number space of dimension
4^n_orb, so it is deliberately capped at small sizes: both Fock-space
assemblers (raw integrals, decomposition), and so the equivalence check,
raise ``ResourceLimitError`` above ``FOCK_MAX_ORBITALS`` orbitals; phase
estimation stops at ``QPE_MAX_DIM``. Both assemblers apply ladder
operators to occupation bit strings with the signs of one Jordan-Wigner
table, and form no sparse operator: each ladder-operator pair is
tabulated over whole arrays of states, and each chunk of terms is added
with one ordered ``np.add.at``, in the order of the written sum. Every
table that depends on n_orb alone is built once per size and cached
read-only, and so is the layout of the (N_up, N_down) sector blocks: the
factorized matrix is squared on that layout, and the equivalence check
takes its spectral norm one sector block at a time. These routines
certify the factorization and cost-model formulas; they are not
simulators of the production circuits.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=None)
def _jordan_wigner_tables(n_spin_orb: int) -> tuple[np.ndarray, np.ndarray]:
    """Occupancy and Jordan-Wigner sign of spin-orbital p in every state.

    Both arrays are (n_spin_orb, 2^n_spin_orb); the sign is -1 to the
    number of occupied spin-orbitals below p.
    """
    states = np.arange(1 << n_spin_orb, dtype=np.int64)
    bits = (states >> np.arange(n_spin_orb)[:, None]) & 1
    parity_below = np.cumsum(bits, axis=0) - bits
    occupied, sign = bits == 1, 1.0 - 2.0 * (parity_below % 2)
    occupied.flags.writeable = sign.flags.writeable = False  # cached, shared
    return occupied, sign


def _spin_orbitals(n_orb: int) -> np.ndarray:
    """Spin-orbital of (orbital, spin): orbital + spin * n_orb."""
    return np.arange(2 * n_orb).reshape(2, n_orb).T


@functools.lru_cache(maxsize=None)
def _sector_layout(n_orb: int) -> tuple[np.ndarray, tuple[tuple[slice, int], ...]]:
    """Where the (N_up, N_down) sector blocks of a Fock matrix lie.

    Returns the flat indices (row * dim + column) of every block's
    entries, block after block and row-major within each, and for each
    block the slice of those indices it owns and its side length.
    """
    occupied, _ = _jordan_wigner_tables(2 * n_orb)
    dim = occupied.shape[1]
    key = occupied[:n_orb].sum(axis=0) * (n_orb + 1) + occupied[n_orb:].sum(axis=0)
    sectors = [np.flatnonzero(key == k) for k in np.unique(key)]
    index = np.concatenate([(s[:, None] * dim + s).reshape(-1) for s in sectors])
    index.flags.writeable = False  # cached, shared
    stops = np.cumsum([len(s) ** 2 for s in sectors]).tolist()
    return index, tuple((slice(stop - len(s) ** 2, stop), len(s))
                        for stop, s in zip(stops, sectors))


def _dense(n_orb: int, core: float = 0.0) -> np.ndarray:
    """``core`` times the identity on the Fock space of ``n_orb`` orbitals."""
    if n_orb > FOCK_MAX_ORBITALS:
        raise ResourceLimitError(
            f"n_orb={n_orb} exceeds the dense Fock-space cap of {FOCK_MAX_ORBITALS}")
    dim = 1 << 2 * n_orb
    matrix = np.zeros((dim, dim))
    matrix.reshape(-1)[::dim + 1] = core
    return matrix


def _scatter(matrix: np.ndarray, entry, coeff, sign) -> None:
    """Add coeff * sign to the flat ``entry`` (dst * dim + src) of
    ``matrix`` wherever sign is nonzero. ``np.add.at`` applies repeated
    entries one after another in array order, so every entry sums its
    terms in the order listed."""
    keep = sign != 0.0
    np.add.at(matrix.reshape(-1), entry[keep], (coeff * sign)[keep])


def _one_body(matrix: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Add sum_ij mat_ij sum_sigma a+_{i,sigma} a_{j,sigma} to ``matrix``,
    ordered by nonzero (i, j), then spin, then source state."""
    n = len(mat)
    occupied, jw_sign = _jordan_wigner_tables(2 * n)
    i, j = np.nonzero(mat != 0.0)
    created, lowered = (_spin_orbitals(n)[o][..., None] for o in (i, j))
    # a_{j,sigma} on the states where it is occupied, then a+_{i,sigma}
    src = np.nonzero(occupied)[1].reshape(2 * n, -1)[lowered[..., 0]]
    dst = src ^ 1 << lowered
    sign = jw_sign[lowered, src]
    sign *= (jw_sign * ~occupied)[created, dst]  # zero where i is occupied
    dst |= 1 << created
    dst *= len(matrix)
    dst += src
    _scatter(matrix, dst, mat[i, j][:, None, None], sign)
    return matrix


@functools.lru_cache(maxsize=None)
def _two_body_tables(n_orb: int) -> tuple[np.ndarray, ...]:
    """The n_orb-only tables of ``_two_body``, built once, read-only."""
    occupied, jw_sign = _jordan_wigner_tables(2 * n_orb)
    dim = occupied.shape[1]
    a = _spin_orbitals(n_orb)[:, None, :, None, None]  # (i or j, sigma)
    b = _spin_orbitals(n_orb)[None, :, None, :, None]  # (k or l, rho)

    distinct = (a != b)[..., 0]
    both = occupied[a[..., 0]] & occupied[b[..., 0]]
    src = np.zeros(distinct.shape + (dim // 4,), dtype=np.int64)
    src[distinct] = np.nonzero(both[distinct])[1].reshape(-1, dim // 4)
    mid = src ^ 1 << a
    r_tgt = mid ^ 1 << b
    r_sign = jw_sign[a, src] * jw_sign[b, mid] * distinct[..., None]

    states = np.arange(dim)
    creation_sign = jw_sign * ~occupied  # a+_p's sign, zero where p is occupied
    raised = states | 1 << b  # a+_{k,rho} applied
    raised_sign = creation_sign[b, states]
    spins = np.arange(4).reshape(2, 2, 1) * dim
    tables = src, r_tgt, r_sign, creation_sign, raised, raised_sign, spins
    for table in tables:
        table.flags.writeable = False  # cached, shared
    return tables


def _two_body(matrix: np.ndarray, h2: np.ndarray) -> None:
    """Add 1/2 sum_ijkl h2_ijkl sum_{sigma,rho} a+_{i,sigma} a+_{k,rho}
    a_{l,rho} a_{j,sigma} to ``matrix``, in that written order.

    Each factor pair is tabulated, indexed [orbital, orbital, sigma, rho,
    state]. The right one, a_{l,rho} a_{j,sigma}, is taken on the quarter
    of the states where both spin-orbitals are occupied, and is empty
    (sign zero) when they are the same one; it is built once per n_orb,
    with a+_{k,rho} on every state (``_two_body_tables``). The left one,
    a+_{i,sigma} a+_{k,rho}, is taken on every state, one i slab at a
    time, with sign zero where a creation fails. Each (i, j) chunk gathers
    the left slab at the right factors' targets and is added with one
    ordered scatter, in the order (k, l, sigma, rho, source state).
    """
    n, dim = len(h2), len(matrix)
    src, r_tgt, r_sign, creation_sign, raised, raised_sign, spins = \
        _two_body_tables(n)
    a = _spin_orbitals(n)[:, None, :, None, None]  # (i, sigma)
    for i in range(n):
        l_tgt = (raised | 1 << a[i]).reshape(-1)
        l_sign = (raised_sign * creation_sign[a[i], raised]).reshape(-1)
        for j in range(n):
            coeff = 0.5 * h2[i, j]
            k, l = np.nonzero(coeff != 0.0)
            at = (k[:, None, None, None] * 4 * dim + spins) + r_tgt[j, l]
            _scatter(matrix, l_tgt[at] * dim + src[j, l],
                     coeff[k, l][:, None, None, None], l_sign[at] * r_sign[j, l])


def build_fock_matrix(integrals: IntegralSet) -> FockMatrix:
    """Assemble the second-quantized Hamiltonian on the full Fock space.

    The two-body term is built with the operators in their written order
    (a+ a+ a a), so this matrix is independent of any normal-ordering
    identity used elsewhere and can certify those identities.
    """
    n = integrals.n_orb
    matrix = _one_body(_dense(n, integrals.core_energy), integrals.h1)
    _two_body(matrix, integrals.h2)
    return FockMatrix(n_orb=n, matrix=matrix)


def fock_matrix_of_decomposition(df: DFDecomposition) -> FockMatrix:
    """Fock-space matrix of the factorized Hamiltonian, assembled as
    written: the core energy, the hbar one-body term and
    1/2 sum_r c_r O_r^2 over the one-body leaf operators O_r. Each O_r
    conserves both spin counts, so it is squared sector block by block,
    into one flat copy of the matrix's sector entries.
    """
    n = df.n_orb
    matrix = _one_body(_dense(n, df.core_energy), df.h_bar)
    index, blocks = _sector_layout(n)
    squares = matrix.reshape(-1)[index]
    op = _dense(n)
    op_entries = op.reshape(-1)
    for leaf in df.leaves:
        _one_body(op, leaf.matrix())
        for block, size in blocks:
            sub = op_entries[index[block]].reshape(size, size)
            squares[block] += (0.5 * leaf.weight * (sub @ sub)).reshape(-1)
        op_entries[index] = 0.0  # O_r lies in the blocks: this zeroes it
    matrix.reshape(-1)[index] = squares
    return FockMatrix(n_orb=n, matrix=matrix)


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
    index, blocks = _sector_layout(df.n_orb)
    entries = diff.reshape(-1)
    return max(float(np.abs(np.linalg.eigvalsh(
        entries[index[block]].reshape(size, size))).max())
        for block, size in blocks)


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
