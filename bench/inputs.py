"""Seeded inputs for the fragment workloads.

The two-electron term is built directly in factored form, V = U diag(c) U^T
over packed orbital pairs, and written as one canonical record per 8-fold
symmetry class. Nothing here calls into ``dfqre``: the files stay the same
when the program's own generator or serializer changes.

Pairs are packed isometrically, as the program does: pair (i, j) with
i >= j, weight sqrt(2) off the diagonal, so that V is the matrix whose
eigenpairs stage 1 of the factorization finds.
"""

from __future__ import annotations

import math

import numpy as np


def pair_list(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs (i, j), i >= j, in lexicographic order, with isometry weights."""
    i, j = np.tril_indices(n)
    w = np.where(i == j, 1.0, math.sqrt(2.0))
    return i, j, w


def factored_term(n: int, rank: int, rng: np.random.Generator
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal U (pairs x rank) and weights c with |c| bounded away
    from zero, so the pair matrix has exactly ``rank`` nonzero eigenvalues."""
    n_pairs = n * (n + 1) // 2
    u, _ = np.linalg.qr(rng.standard_normal((n_pairs, rank)))
    c = (0.5 + rng.random(rank)) / math.sqrt(rank)
    c *= np.where(rng.random(rank) < 0.5, -1.0, 1.0)
    return u, c


def pair_matrix(u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The packed pair matrix V = U diag(c) U^T."""
    return (u * c) @ u.T


def integral_text(n: int, h1: np.ndarray, core: float,
                  u: np.ndarray, c: np.ndarray) -> str:
    """The integral file: header, core energy, lower-triangle h1, then
    (ij|kl) for every pair of pairs (ij) >= (kl), indices 1-based."""
    pi, pj, w = pair_list(n)
    v = pair_matrix(u, c) / np.outer(w, w)
    p, q = np.tril_indices(len(pi))
    lines = [f"NORB {n}", f"{core!r} 0 0 0 0"]
    ti, tj = np.tril_indices(n)
    lines += [f"{val!r} {a} {b} 0 0" for val, a, b in
              zip(h1[ti, tj].tolist(), (ti + 1).tolist(), (tj + 1).tolist())]
    lines += [f"{val!r} {a} {b} {x} {y}" for val, a, b, x, y in
              zip(v[p, q].tolist(), (pi[p] + 1).tolist(), (pj[p] + 1).tolist(),
                  (pi[q] + 1).tolist(), (pj[q] + 1).tolist())]
    return "\n".join(lines) + "\n"


def write_fragment(stem: str, n: int, rank: int, seed: list[int]) -> dict:
    """Write ``stem.ints`` and the factors ``stem.npz`` the checks read,
    from a generator keyed by the words of ``seed``.

    Returns the fragment's description for the manifest.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    raw = rng.standard_normal((n, n))
    h1 = (raw + raw.T) / 2.0
    core = float(rng.standard_normal())
    u, c = factored_term(n, rank, rng)
    text = integral_text(n, h1, core, u, c)
    with open(stem + ".ints", "w") as handle:
        handle.write(text)
    np.savez(stem + ".npz", u=u, c=c)
    return {"ints": stem + ".ints", "factors": stem + ".npz", "n_orb": n,
            "rank": rank}
