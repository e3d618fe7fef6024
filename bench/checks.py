"""Correctness checks on the program's outputs.

Each check returns a list of failure messages, empty when the output is
correct. The checks run after a pass's timed region ends. They recompute
what they can with numpy from the benchmark's own inputs instead of asking
the program, so a defect in the program does not hide itself.
"""

from __future__ import annotations

import json
import math

import numpy as np

from inputs import pair_list, pair_matrix

# thresholds of the acceptance suite
RECONSTRUCT_TOL = 1e-10
EQUIVALENCE_TOL = 1e-9
REBUILD_SLACK = 1e-10

# the surface-code model the physical layer documents
A_COEFF = 0.03
P_THRESHOLD = 0.01
D_MIN = 3


def _leaf_pair_vectors(leaves: list[dict], n: int) -> np.ndarray:
    """Packed pair vectors of the stage-2 leaf matrices, one row per leaf."""
    pi, pj, w = pair_list(n)
    rows = np.zeros((len(leaves), len(pi)))
    for r, leaf in enumerate(leaves):
        vecs = np.asarray(leaf["vecs"], dtype=float).reshape(-1, n)
        mat = (vecs.T * np.asarray(leaf["eigvals"], dtype=float)) @ vecs
        rows[r] = mat[pi, pj] * w
    return rows


def check_fragment(fragment: dict, codes: list[int], df_text: str,
                   logical_text: str, physical_text: str, eps: float | None,
                   expected_physical) -> list[str]:
    """One fragment through factorize -> estimate-logical -> estimate-physical.

    ``eps`` is the target accuracy when the tolerances were derived from
    it, None when the run asked for exact tolerances. ``expected_physical``
    maps (logical qubits, T count) to the physical estimate's JSON dict.
    """
    name = fragment["ints"]
    if any(code != 0 for code in codes):
        return [f"{name}: CLI exit codes {codes}"]
    try:
        df = json.loads(df_text)
        logical = json.loads(logical_text)
        physical = json.loads(physical_text)
    except json.JSONDecodeError as exc:
        return [f"{name}: unreadable output ({exc})"]
    failures = []
    n, rank = fragment["n_orb"], fragment["rank"]
    bound = float(df["truncation_bound"])
    if eps is None and len(df["leaves"]) != rank:
        failures.append(f"{name}: {len(df['leaves'])} leaves, expected {rank}")
    if eps is not None and not bound <= eps / 2.0:
        failures.append(f"{name}: truncation_bound {bound!r} > eps/2")

    factors = np.load(fragment["factors"])
    reference = pair_matrix(factors["u"], factors["c"])
    rows = _leaf_pair_vectors(df["leaves"], n)
    weights = np.array([leaf["weight"] for leaf in df["leaves"]], dtype=float)
    rebuilt = (rows.T * weights) @ rows
    error = float(np.abs(np.linalg.eigvalsh(rebuilt - reference)).max())
    if not error <= bound + REBUILD_SLACK:
        failures.append(f"{name}: rebuilt pair matrix off by {error:.3e}, "
                        f"bound {bound:.3e}")

    expected = expected_physical(logical["n_logical_qubits"],
                                 logical["t_count"])
    if physical != expected:
        failures.append(f"{name}: physical estimate differs from "
                        "estimate_physical on the logical counts")
    return failures


def logical_failure(n_logical: int, cycles: int, d: int, p: float) -> float:
    """tiles * cycles * a (p / p_th)^((d+1)/2), with 2n + ceil(sqrt(8n)) + 1
    tiles, evaluated in the same order as the program."""
    tiles = 2 * n_logical + (math.isqrt(8 * n_logical - 1) + 1) + 1
    return tiles * cycles * (A_COEFF * (p / P_THRESHOLD) ** ((d + 1) / 2))


def check_distance(n_logical: int, t_count: int, d: int, p: float,
                   budget: float) -> list[str]:
    """The chosen odd distance meets the logical share (a third of the
    budget) and d - 2 does not."""
    share = budget / 3.0
    if d < D_MIN or d % 2 == 0:
        return [f"distance {d} is not an odd number >= {D_MIN}"]
    if not logical_failure(n_logical, t_count, d, p) <= share:
        return [f"d={d} misses the logical share {share:g} "
                f"(n={n_logical}, T={t_count}, p={p:g})"]
    if d - 2 >= D_MIN and logical_failure(n_logical, t_count, d - 2, p) <= share:
        return [f"d={d} is not minimal: d-2 meets the logical share {share:g} "
                f"(n={n_logical}, T={t_count}, p={p:g})"]
    return []


def check_table_summary(summary: dict, expected: dict) -> list[str]:
    if summary != expected:
        return [f"reproduce-table summary {summary} != {expected}"]
    return []


def check_reconstruct(h2: np.ndarray, rebuilt: np.ndarray, n_leaves: int,
                      rank: int) -> list[str]:
    failures = []
    error = float(np.abs(rebuilt - h2).max(initial=0.0))
    if not error <= RECONSTRUCT_TOL:
        failures.append(f"reconstruct off by {error:.3e} (rank {rank})")
    if n_leaves != rank:
        failures.append(f"{n_leaves} leaves for rank {rank}")
    return failures


def check_equivalence(deviation: float) -> list[str]:
    if not deviation <= EQUIVALENCE_TOL:
        return [f"Fock-space deviation {deviation:.3e} > {EQUIVALENCE_TOL:g}"]
    return []


def _determinant_energy(occupied: list[int], n: int, core: float,
                        h1: np.ndarray, h2: np.ndarray) -> float:
    """Slater-Condon diagonal element of one occupation-number state."""
    orb = [p % n for p in occupied]
    spin = [p // n for p in occupied]
    energy = core + sum(h1[o, o] for o in orb)
    for a in range(len(occupied)):
        for b in range(len(occupied)):
            if a == b:
                continue
            p, q = orb[a], orb[b]
            energy += 0.5 * h2[p, p, q, q]
            if spin[a] == spin[b]:
                energy -= 0.5 * h2[p, q, q, p]
    return energy


def check_fock(matrix: np.ndarray, n: int, core: float, h1: np.ndarray,
               h2: np.ndarray, rng: np.random.Generator,
               samples: int = 16) -> list[str]:
    """Symmetry, particle-number conservation and Slater-Condon diagonal
    entries of a dense Fock-space Hamiltonian. Works in row blocks so the
    check allocates little next to the matrix."""
    dim = 1 << (2 * n)
    if matrix.shape != (dim, dim):
        return [f"Fock matrix shape {matrix.shape}, expected ({dim}, {dim})"]
    popcount = np.array([bin(s).count("1") for s in range(dim)])
    scale = max(float(matrix.max()), -float(matrix.min()), 1.0)
    block = 256
    for start in range(0, dim, block):
        rows = matrix[start:start + block]
        if np.abs(rows - matrix[:, start:start + block].T).max() > 1e-12 * scale:
            return [f"Fock matrix (n={n}) is not symmetric"]
        mixed = popcount[start:start + block, None] != popcount[None, :]
        if np.abs(rows[mixed]).max(initial=0.0) > 0.0:
            return [f"Fock matrix (n={n}) couples different particle numbers"]
    for state in rng.integers(0, dim, size=samples).tolist():
        occupied = [p for p in range(2 * n) if state >> p & 1]
        expected = _determinant_energy(occupied, n, core, h1, h2)
        if abs(matrix[state, state] - expected) > 1e-9 * scale:
            return [f"Fock diagonal at state {state} (n={n}) is "
                    f"{float(matrix[state, state])!r}, Slater-Condon gives "
                    f"{float(expected)!r}"]
    return []


def check_qpe(energy: float, ground: float, lam: float, m_bits: int) -> list[str]:
    tol = lam * 2 * math.pi * 2.0 ** -m_bits + 1e-9
    if not abs(energy - ground) <= tol:
        return [f"QPE energy {energy!r} misses ground {ground!r} by more "
                f"than {tol:.3e}"]
    return []
