"""Two-step (double) factorization of the two-electron tensor.

Stage 1 eigendecomposes the pair matrix V[(ij),(kl)] = w_ij w_kl (ij|kl)
(``IntegralSet.pairs``, weighted); stage 2 eigendecomposes each
kept leaf matrix. The result rewrites the Hamiltonian as a corrected
one-body part plus a weighted sum of squared one-body operators:

    H = core + sum_ij hbar_ij E_ij + 1/2 sum_r c_r (sum_ij L^r_ij E_ij)^2

with E_ij the spin-summed excitation operator, hbar the reordering
correction of the bare h1, and L^r = sum_m lambda^r_m R^r_m (R^r_m)^T the
stage-2 eigendecomposition of leaf r. Both stages truncate by one rule,
applied to a stack of spectra: stage 1 to the one row of pair-matrix
weights, stage 2 to every kept leaf's spectrum in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import codec
from .errors import NumericalError, ValidationError
from .ingest import IntegralSet, _pair_indices, _pair_numbers

# Relative cutoff below which an eigenvalue counts as numerically zero.
# Zero-drops do not consume the truncation budget; they express rank.
ZERO_EIG_RTOL = 1e-12


@dataclass(frozen=True)
class DFLeaf:
    """One first-stage eigenpair with its own spectral decomposition.

    ``vecs[m]`` is the unit eigenvector belonging to ``eigvals[m]``; the
    leaf matrix is reassembled as vecs.T @ diag(eigvals) @ vecs. The
    decomposition that holds the leaf checks it.
    """

    index: int
    weight: float
    eigvals: np.ndarray
    vecs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigvals", np.asarray(self.eigvals, float))
        object.__setattr__(self, "vecs", np.asarray(self.vecs, float))

    @property
    def n_eigs(self) -> int:
        return len(self.eigvals)

    def matrix(self) -> np.ndarray:
        """The n x n leaf matrix, symmetric only to rounding."""
        return np.einsum("m,mi,mj->ij", self.eigvals, self.vecs, self.vecs)


@dataclass(frozen=True)
class DFDecomposition:
    """A double-factorized Hamiltonian: core energy, ``h_bar`` and leaves.

    Built by ``factorize``, read by ``loads`` or made directly, it checks its
    fields, then its leaves on stacks zero-padded to the largest eigenpair
    count, each check over every leaf before the next: ``eigvals`` (k,) and
    ``vecs`` (k, n_orb), an empty leaf's JSON ``[]`` read as (0, n_orb);
    weight, eigenvalues and vectors finite; ``vecs`` rows orthonormal within
    1e-10; |eigvals| non-increasing within 1e-15.
    """

    n_orb: int
    core_energy: float
    h_bar: np.ndarray
    tol_first: float
    tol_second: float
    # Rigorous bound on the packed-pair-matrix 2-norm of the reconstruction
    # error, accumulated from the actually discarded eigenvalue mass.
    truncation_bound: float = 0.0
    leaves: tuple[DFLeaf, ...] = field(kw_only=True)

    def __post_init__(self):
        h_bar = np.asarray(self.h_bar, dtype=float)
        object.__setattr__(self, "h_bar", h_bar)
        if h_bar.shape != (self.n_orb, self.n_orb):
            raise ValidationError("h_bar shape mismatch")
        if self.n_orb < 1:
            raise ValidationError("n_orb must be positive")
        # a leaf with no eigenpairs reads back from JSON as vecs of shape (0,)
        object.__setattr__(self, "leaves", tuple(
            leaf if leaf.vecs.shape != (0,) else replace(
                leaf, vecs=leaf.vecs.reshape(0, self.n_orb))
            for leaf in self.leaves))
        if not (np.isfinite(h_bar).all() and math.isfinite(self.core_energy)):
            raise ValidationError("h_bar and core_energy must be finite")
        if not all(0 <= value < math.inf for value in (  # nan fails too
                self.tol_first, self.tol_second, self.truncation_bound)):
            raise ValidationError("tolerances and truncation_bound must be "
                                  "non-negative and finite")
        if np.abs(h_bar - h_bar.T).max(initial=0.0) > 1e-12:
            raise ValidationError("h_bar is not symmetric within 1e-12")
        if len(self.leaves) > self.n_orb * (self.n_orb + 1) // 2:
            raise ValidationError("more leaves than pair-matrix dimension")
        n, leaves = self.n_orb, self.leaves
        counts = [leaf.eigvals.size for leaf in leaves]
        size, k_max = len(leaves), max(counts, default=0)
        eigvals, vecs = np.zeros((size, k_max)), np.zeros((size, k_max, n))
        for r, (leaf, k) in enumerate(zip(leaves, counts)):
            if leaf.eigvals.ndim != 1 or leaf.vecs.shape != (k, n):
                raise ValidationError(
                    f"leaf {leaf.index} has eigvals {leaf.eigvals.shape} and "
                    f"vecs {leaf.vecs.shape}, not shapes (k,) and (k, {n})")
            eigvals[r, :k] = leaf.eigvals
            vecs[r, :k] = leaf.vecs
        weights = [leaf.weight for leaf in leaves]
        if not (all(map(math.isfinite, weights)) and np.isfinite(eigvals).all()
                and np.isfinite(vecs).all()):
            finite = (np.isfinite(weights)  # name the first bad leaf
                      & np.isfinite(eigvals).all(axis=1)
                      & np.isfinite(vecs.reshape(size, -1)).all(axis=1))
            bad = leaves[finite.argmin()].index
            raise ValidationError(f"leaf {bad} holds a non-finite value")
        gram = vecs @ vecs.transpose(0, 2, 1)
        kept = np.arange(k_max) < np.array(counts, dtype=int)[:, None]
        gram.reshape(size, k_max * k_max)[:, ::k_max + 1] -= kept  # - identity
        if np.abs(gram, out=gram).max(initial=0.0) > 1e-10:
            raise ValidationError("leaf eigenvectors are not orthonormal")
        mags = abs(eigvals)
        if (mags[:, 1:] - mags[:, :-1]).max(initial=0.0) > 1e-15:
            raise ValidationError("leaf eigenvalues not sorted by magnitude")

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    @property
    def total_leaf_eigs(self) -> int:
        return sum(leaf.n_eigs for leaf in self.leaves)

    def dims(self) -> "tuple[int, int, int]":
        """(n_orb, leaf count R, total stage-2 eigenpair count)."""
        return (self.n_orb, self.n_leaves, self.total_leaf_eigs)

    def dumps(self) -> str:
        # one line: json indents only in its pure-Python encoder, and this
        # document holds every leaf vector
        return codec.dumps(self, indent=None)

    @classmethod
    def loads(cls, text: str) -> "DFDecomposition":
        """Decode ``dumps`` output; ParseError if it is not such a document."""
        return codec.loads(cls, text, "decomposition JSON")


def _truncate_by_magnitude(spectra: np.ndarray, tol: float
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row by row, the indices kept under the discarded-|eigenvalue| budget.

    Numerically zero eigenvalues (relative to the row's largest) are always
    dropped and do not consume ``tol``. Row r keeps order[r, :count[r]], by
    |eigenvalue| descending. Returns (order, count, discarded absolute mass).
    """
    order = np.argsort(-np.abs(spectra), axis=1, kind="stable")
    rows = np.arange(len(spectra))
    mags = np.abs(spectra[rows[:, None], order])
    count = (mags > ZERO_EIG_RTOL * mags[:, :1]).sum(axis=1)
    n_zero = mags.shape[1] - count
    discarded = np.zeros(len(mags))
    # numpy sums each row pairwise, as .sum() sums it alone, but the grouping
    # follows the row length: zero tails are summed one length at a time
    for m in set(n_zero.tolist()) - {0}:
        discarded[n_zero == m] = mags[n_zero == m, -m:].sum(axis=1)
    if tol > 0:  # live magnitudes smallest first, cumulated behind the zeros
        zero = np.arange(mags.shape[1]) < n_zero[:, None]
        used = np.cumsum(np.where(zero, 0.0, mags[:, ::-1]), axis=1)
        n_drop = (used <= tol).sum(axis=1) - n_zero
        last = used[rows, n_zero + n_drop - 1]
        discarded += np.where(n_drop > 0, last, 0.0)
        count -= n_drop
    return order, count, discarded


def factorize(integrals: IntegralSet, tol_first: float = 0.0,
              tol_second: float = 0.0, *,
              eps_target: float | None = None) -> DFDecomposition:
    """Double-factorize an IntegralSet.

    Leaves are kept while the total discarded first-stage |eigenvalue| mass
    stays within ``tol_first``; each leaf's spectrum is truncated under the
    analogous per-leaf ``tol_second`` rule. ``eps_target`` sets both
    tolerances instead, by ``choose_tolerances`` on the spectrum truncated
    here. Output ordering (leaves by |weight| descending, eigenvectors with
    leading component positive) makes the result deterministic. A negative,
    NaN or infinite tolerance or target raises ValidationError.
    """
    if eps_target is not None:
        if tol_first or tol_second:
            raise ValidationError("eps_target excludes tol_first/tol_second")
        _check_eps_target(eps_target)
    elif not (0 <= tol_first < math.inf and 0 <= tol_second < math.inf):
        raise ValidationError("tolerances must be non-negative and finite")
    n = integrals.n_orb
    iu, ju, w = _pair_indices(n)

    with np.errstate(over="ignore"):  # past the float range: refused below
        weights, pair_vecs = np.linalg.eigh(
            integrals.pairs * w[:, None] * w[None, :])
    if not np.isfinite(weights).all():
        raise NumericalError("non-finite stage-1 eigenvalues")
    if eps_target is not None:
        tol_first, tol_second = choose_tolerances(weights, eps_target)

    order, count, bound = _truncate_by_magnitude(weights[None], tol_first)
    kept, bound = order[0, :count[0]], float(bound[0])

    # Invert the packing isometry for every kept stage-1 vector at once.
    leaf_mats = np.zeros((len(kept), n, n))
    vals = (pair_vecs[:, kept] / w[:, None]).T
    leaf_mats[:, iu, ju] = vals
    leaf_mats[:, ju, iu] = vals
    eigvals_all, vecs_all = np.linalg.eigh(leaf_mats)
    if not np.isfinite(eigvals_all).all():
        raise NumericalError("non-finite stage-2 eigenvalues")
    # Sign rule: the first component above 1e-8 of a vector's largest
    # magnitude is positive. rows_all[r, m] is eigenvector m of leaf r.
    rows_all = vecs_all.transpose(0, 2, 1)
    mags = np.abs(rows_all)
    lead = np.argmax(mags > 1e-8 * mags.max(axis=2, keepdims=True), axis=2)
    leaf = np.arange(len(kept))[:, None]  # the leaf axis of per-leaf gathers
    flip = rows_all[leaf, np.arange(n), lead] < 0
    rows_all = np.where(flip[..., None], -rows_all, rows_all)
    del leaf_mats, vecs_all, mags  # room for the decomposition's leaf check

    order, count, dropped = _truncate_by_magnitude(eigvals_all, tol_second)
    eigvals_all, rows_all = eigvals_all[leaf, order], rows_all[leaf, order]
    leaves = []
    for r, (c_r, k, d) in enumerate(zip(weights[kept].tolist(), count.tolist(),
                                        dropped.tolist())):
        # rank-1 update bound: || vLv^T - v'L'v'^T ||_2 <= 2 |c_r| ||dL||_F
        bound += 2.0 * abs(c_r) * d
        leaves.append(DFLeaf(index=r, weight=c_r, eigvals=eigvals_all[r, :k],
                             vecs=rows_all[r, :k]))

    table = _pair_numbers(n)  # (il|lj) gathered straight from the pairs
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        h_bar = integrals.h1 - 0.5 * np.einsum(
            "ilj->ij", integrals.pairs[table[:, :, None], table[None]])
        h_bar = (h_bar + h_bar.T) / 2.0
    if not np.isfinite(h_bar).all():
        raise NumericalError("h_bar past the float range")
    if not math.isfinite(bound):
        raise NumericalError("truncation_bound past the float range")
    return DFDecomposition(n_orb=n, core_energy=integrals.core_energy,
                           h_bar=h_bar, leaves=tuple(leaves),
                           tol_first=float(tol_first),
                           tol_second=float(tol_second),
                           truncation_bound=float(bound))


def reconstruct(df: DFDecomposition) -> np.ndarray:
    """Reassemble the two-electron tensor sum_r c_r L^r_ij L^r_kl.

    The result is exactly symmetric under (ij) <-> (kl), but under i <-> j
    only to rounding, as ``DFLeaf.matrix`` is.
    """
    n = df.n_orb
    h2 = np.zeros((n, n, n, n))
    for leaf in df.leaves:
        mat = leaf.matrix()
        h2 += leaf.weight * np.einsum("ij,kl->ijkl", mat, mat)
    return h2


def lambda_norms(df: DFDecomposition) -> tuple[float, float, float]:
    """Block-encoding one-norms (lambda_T, lambda_V, lambda).

    lambda_T sums |eigenvalues| of hbar; lambda_V is twice the weighted
    squared leaf one-norms. Their sum upper-bounds the Fock-space spectral
    norm of the Hamiltonian shifted by ``qpe_energy_offset``.
    """
    lam_t = float(np.abs(np.linalg.eigvalsh(df.h_bar)).sum())
    # s * s, not s ** 2: a square past the float range is inf, not an
    # OverflowError, and the non-finite lambda is refused downstream
    norms = (float(np.abs(leaf.eigvals).sum()) for leaf in df.leaves)
    # 2: both spins of each squared factor (4) times the two-body 1/2, pinned
    # by the Fock spectra of tests/test_dfact.py::TestLambdaNorms
    lam_v = 2.0 * sum(
        abs(leaf.weight) * (s * s) for leaf, s in zip(df.leaves, norms))
    return lam_t, lam_v, lam_t + lam_v


def qpe_energy_offset(df: DFDecomposition) -> float:
    """Energy shift folded out of the walk operator's block encoding.

    Phase estimation reads eigenvalues of H - offset, scaled by lambda;
    the offset collects the core energy and the one-body trace term that
    the symmetric (+-1/2 occupation) encoding removes.
    """
    return df.core_energy + float(np.trace(df.h_bar))


def choose_tolerances(weights: np.ndarray, eps_target: float
                      ) -> tuple[float, float]:
    """Equal-split truncation tolerances meeting ``eps_target``.

    Returns tol_first = tol_second = t such that the rigorous deviation
    bound t*(1 + 2*S) stays below eps_target/2, where S is the total
    |eigenvalue| mass of ``weights``, the stage-1 spectrum ``factorize``
    truncates. The other half of eps_target is left for phase estimation.
    """
    _check_eps_target(eps_target)
    t = (eps_target / 2.0) / (1.0 + 2.0 * float(np.abs(weights).sum()))
    return (t, t)


def _check_eps_target(eps_target: float) -> None:
    if not 0 < eps_target < math.inf:
        raise ValidationError("eps_target must be "
                              + ("finite" if eps_target > 0 else "positive"))
