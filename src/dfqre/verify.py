"""Desk-scale oracles: dense Fock-space Hamiltonians, factorization
equivalence checks, exact walk operators, and a small phase-estimation
simulator.

Everything here works on the occupation-number space of dimension
4^n_orb, so it is deliberately capped at small sizes: both Fock-space
assemblers (raw integrals, decomposition), and so the equivalence check,
raise ``ResourceLimitError`` above ``FOCK_MAX_ORBITALS`` orbitals; phase
estimation stops at ``QPE_MAX_DIM``. Both Hamiltonians conserve N_up and
N_down, so each operator is built as its entry vector: its (N_up, N_down)
blocks, row-major, by side length. Every term is c (w_left)+ w_right for
annihilator words w of one or two factors, a+_i a_j or a+_i a+_k a_l a_j
in its written order; each word is tabulated once per size, with the
signs of one Jordan-Wigner table, and each run of terms is added in the
written order with one ``np.add.at``. Blocks of one size are squared, or
take their norm, in one numpy call; a dense matrix is built only where
one is returned. These routines certify the factorization and cost-model
formulas; they are not simulators of the production circuits.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dfact import DFDecomposition
from .errors import ResourceLimitError, ValidationError
from .ingest import IntegralSet

FOCK_MAX_ORBITALS = 6
QPE_MAX_DIM = 64
QPE_MAX_BITS = 20
# Most entries in one two-body scatter, and in one stack of sector blocks (or
# one larger block): past numpy's per-call cost, within cache
CHUNK_ENTRIES = 1 << 14


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


@functools.lru_cache(maxsize=None)
def _sector_layout(n_orb: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Where the (N_up, N_down) sector blocks lie in an operator's entry
    vector, each row-major, by side length: two per-state tables, ``row``
    and ``column``, that put entry (t, s) of a block at row[t] + column[s];
    and each stack of blocks of one side (``CHUNK_ENTRIES`` entries or one
    block at most) as its slice of the vector and its shape
    (count, side, side)."""
    occupied, _ = _jordan_wigner_tables(2 * n_orb)
    key = occupied[:n_orb].sum(axis=0) * (n_orb + 1) + occupied[n_orb:].sum(axis=0)
    sectors = sorted((np.flatnonzero(key == k) for k in np.unique(key)), key=len)
    row, column = np.empty((2, len(key)), dtype=np.int64)
    stacks, stop = [], 0
    for side, same in itertools.groupby(sectors, key=len):
        same, per = list(same), max(1, CHUNK_ENTRIES // side**2)
        for first in range(0, len(same), per):
            shape = (min(per, len(same) - first), side, side)
            stacks.append((slice(stop, stop + math.prod(shape)), shape))
            for states in same[first:first + per]:
                column[states] = np.arange(side)
                row[states] = stop + side * column[states]
                stop += side**2
    row.flags.writeable = column.flags.writeable = False  # cached, shared
    return row, column, tuple(stacks)


def _densify(n_orb: int, entries: np.ndarray) -> FockMatrix:
    """The dense matrix of ``entries``, one assignment per stack."""
    row, _, stacks = _sector_layout(n_orb)
    matrix = np.zeros((len(row), len(row)))
    states, first = np.argsort(row), 0  # block by block, each ascending
    for stack, (count, side, _) in stacks:
        block = states[first:first + count * side].reshape(count, side, 1)
        matrix[block, block.transpose(0, 2, 1)] = entries[stack].reshape(-1, side, side)
        first += count * side
    return FockMatrix(n_orb=n_orb, matrix=matrix)


@functools.lru_cache(maxsize=None)
def _words(n_orb: int, length: int) -> tuple[np.ndarray, ...]:
    """Every annihilator word w of ``length`` factors, built once per size,
    read-only: w = a_{i,sigma} or a_{k,rho} a_{i,sigma} (applied right to
    left), indexed [i, (k,) spin], the spins (sigma, rho) row-major.

    Returns the states w does not annihilate, ascending; w's target and
    sign there; w's sign on every state (int8, zero where w annihilates
    it); and the bits w clears. A word that names one spin-orbital twice
    annihilates every state: its sources are state 0, with sign zero.
    """
    occupied, jw_sign = _jordan_wigner_tables(2 * n_orb)
    ladder = (jw_sign * occupied).astype(np.int8)  # a_p's sign on every state
    shape = (n_orb,) * length + (1 << length,)
    grid = np.indices((n_orb,) * length + (2,) * length)
    factors = (grid[:length] + n_orb * grid[length:]).reshape(length, *shape)
    states = np.arange(occupied.shape[1])
    every = np.ones(shape + states.shape, dtype=np.int8)
    clears = np.zeros(shape, dtype=np.int64)
    for p in factors:  # in the order they apply
        every *= ladder[p[..., None], states ^ clears[..., None]]
        clears |= 1 << p
    distinct = every.any(axis=-1)
    sources = np.zeros(shape + (len(states) >> length,), dtype=np.int64)
    sources[distinct] = np.nonzero(every[distinct])[1].reshape(-1, sources.shape[-1])
    tables = (sources, sources ^ clears[..., None],
              np.take_along_axis(every, sources, -1), every, clears)
    for table in tables:
        table.flags.writeable = False  # cached, shared
    return tables


def _scatter(entries: np.ndarray, n_orb: int, coeff: np.ndarray, right: tuple,
             left: tuple) -> None:
    """Add coeff_t (w_left)+ w_right to the ``entries`` for every term t,
    the words given by their orbitals (``_words``) and taken with the same
    spins, in term, then spin, then source-state order, with one ordered
    ``np.add.at``. (w_left)+ takes w_right's target to its XOR with the
    bits w_left clears, or to nothing where w_left annihilates that; both
    ends lie in one sector, so the pair is an entry of its block."""
    row, column, _ = _sector_layout(n_orb)
    sources, targets, signs, every, clears = _words(n_orb, len(right))
    at = targets[right]
    at ^= clears[left][..., None]
    rows = every[left].reshape(-1)  # one row of 4^n signs per (term, spin)
    sign = rows[at + np.arange(0, rows.size, len(row)).reshape(*at.shape[:2], 1)]
    sign *= signs[right]
    keep = np.flatnonzero(sign)
    np.add.at(entries, row.take(at.take(keep)) + column.take(sources[right].take(keep)),
              (coeff[:, None, None] * sign).take(keep))


def _one_body(n_orb: int, mat: np.ndarray, core: float = 0.0) -> np.ndarray:
    """The entries of core + sum_ij mat_ij sum_sigma a+_{i,sigma} a_{j,sigma},
    ordered by nonzero (i, j): it is (a_{i,sigma})+ a_{j,sigma}."""
    if n_orb > FOCK_MAX_ORBITALS:
        raise ResourceLimitError(
            f"n_orb={n_orb} exceeds the dense Fock-space cap of {FOCK_MAX_ORBITALS}")
    row, column, stacks = _sector_layout(n_orb)
    entries = np.zeros(stacks[-1][0].stop)
    entries[row + column] = core
    i, j = np.nonzero(mat)
    _scatter(entries, n_orb, mat[i, j], (j,), (i,))
    return entries


def _raw_entries(integrals: IntegralSet) -> np.ndarray:
    """The entries of ``build_fock_matrix``: the nonzero (i, j, k, l) of
    its two-body term go in runs of up to ``CHUNK_ENTRIES`` (term, spin,
    state) entries, one scatter each: one in all up to n_orb = 3."""
    n = integrals.n_orb
    entries = _one_body(n, integrals.h1, integrals.core_energy)
    coeff = 0.5 * integrals.h2
    terms = np.nonzero(coeff)
    run = max(1, CHUNK_ENTRIES >> 2 * n)  # each term has 4^n entries
    for start in range(0, len(terms[0]), run):
        i, j, k, l = (t[start:start + run] for t in terms)
        _scatter(entries, n, coeff[i, j, k, l], (j, l), (i, k))  # a+_i a+_k a_l a_j
    return entries


def _decomposition_entries(df: DFDecomposition) -> np.ndarray:
    """The entries of ``fock_matrix_of_decomposition``: each O_r squared
    in one stacked ``sub @ sub`` per stack of same-size blocks."""
    n = df.n_orb
    entries = _one_body(n, df.h_bar, df.core_energy)
    for leaf in df.leaves:
        op = _one_body(n, leaf.matrix())
        for stack, shape in _sector_layout(n)[2]:
            sub = op[stack].reshape(shape)
            entries[stack] += (0.5 * leaf.weight * (sub @ sub)).reshape(-1)
    return entries


def build_fock_matrix(integrals: IntegralSet) -> FockMatrix:
    """Assemble the second-quantized Hamiltonian on the full Fock space.

    The two-body term is built with the operators in their written order
    (a+ a+ a a), so this matrix is independent of any normal-ordering
    identity used elsewhere and can certify those identities.
    """
    return _densify(integrals.n_orb, _raw_entries(integrals))


def fock_matrix_of_decomposition(df: DFDecomposition) -> FockMatrix:
    """Fock-space matrix of the factorized Hamiltonian, assembled as
    written: the core energy, the hbar one-body term and
    1/2 sum_r c_r O_r^2 over the one-body leaf operators O_r, each squared
    on its (N_up, N_down) sector blocks, which it conserves.
    """
    return _densify(df.n_orb, _decomposition_entries(df))


def check_df_equivalence(integrals: IntegralSet, df: DFDecomposition) -> float:
    """Spectral-norm deviation between the raw and factorized Hamiltonians.

    For an untruncated decomposition this certifies both the hbar
    correction formula and the spin handling; values above ~1e-9 indicate
    a broken identity (or a truncated input). Both Hamiltonians conserve
    N_up and N_down, so the norm of their difference is exactly the largest
    over its sector blocks, one stacked ``eigvalsh`` per stack.
    """
    if integrals.n_orb != df.n_orb:
        raise ValidationError("orbital count mismatch between inputs")
    diff = _raw_entries(integrals)
    diff -= _decomposition_entries(df)
    return max(float(np.abs(np.linalg.eigvalsh(diff[stack].reshape(shape))).max())
               for stack, shape in _sector_layout(df.n_orb)[2])


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
    if not np.isfinite(mat).all():
        raise ValidationError("hamiltonian entries must be finite")
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


def walk_phase_residual(hamiltonian: np.ndarray, lam: float) -> float:
    """Largest |sin(theta) - E/lam| over the spectrum of H, each energy E
    matched to its nearest walk eigenphase theta, taken in (-pi, pi]: either
    branch (theta or pi - theta) satisfies sin(theta) = E/lam."""
    phases = np.angle(np.linalg.eigvals(build_walk_operator(hamiltonian, lam)))
    phases = np.where(phases <= -np.pi + 1e-15, np.pi, phases)
    energies = np.linalg.eigvalsh(np.asarray(hamiltonian))
    return max((float(np.abs(np.sin(phases) - energy / lam).min())
                for energy in energies), default=0.0)


@dataclass(frozen=True)
class PhaseSamples:
    """Measured m-bit phase frequencies from a QPE run."""

    m: int
    counts: np.ndarray
    shots: int

    def mode_phase(self) -> float:
        return float(np.argmax(self.counts)) / (1 << self.m)

    def mass_within(self, phase: float, tol: float) -> float:
        """Fraction of shots within ``tol`` turns of ``phase`` (mod 1)."""
        bins = np.arange(1 << self.m) / (1 << self.m)  # each outcome's phase
        delta = np.abs((bins - phase + 0.5) % 1.0 - 0.5)
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
    vec = np.asarray(state, dtype=complex).reshape(-1)
    if vec.size != dim:
        raise ValidationError(f"state must have {dim} entries, got {vec.size}")
    for name, value in (("unitary", mat), ("state", vec)):
        if not np.isfinite(value).all():
            raise ValidationError(f"{name} entries must be finite")
    for name, value in (("m", m), ("shots", shots)):
        if not isinstance(value, numbers.Integral):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
    if not 1 <= m <= QPE_MAX_BITS:
        raise ValidationError(f"phase bits must lie in [1, {QPE_MAX_BITS}]")
    if shots < 1:
        raise ValidationError("shots must be positive")
    defect = np.abs(mat.conj().T @ mat - np.eye(dim)).max()
    if defect > 1e-10:
        raise ValidationError(f"matrix is not unitary (defect {defect:.2e})")

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
