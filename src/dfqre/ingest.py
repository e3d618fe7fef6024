"""Parsers for molecular geometries and electron-integral files, plus a
deterministic generator of synthetic integral sets for oracle testing.

File formats
------------
XYZ geometry::

    [count]            optional first line, a bare integer
    [comment/label]    present only when the count line is
    Sym  x  y  z       one atom per line, coordinates in Angstrom

Integral file::

    NORB <n>
    # comment lines start with '#'
    <value> i j k l    two-electron integral (ij|kl), 1-based indices
    <value> i j 0 0    one-electron integral h_ij
    <value> 0 0 0 0    core energy

Only one representative per 8-fold symmetry class is required, written as
any of its images; the class is stored once, in ``IntegralSet.pairs``.
Repeated records must agree within ``DUPLICATE_TOL``: an h1 or h2 record
is compared with the first record of its class, which supplies the value,
and a core energy with the latest one before it, the last one supplying it.

A bad file raises the ParseError of its first offending line in file
order, with that line's number. On one line the checks run as listed:
field count, number syntax, finiteness, index bounds or mixed zero/nonzero
indices, then the duplicate rule ("previous at line N"). If the pair
matrix (8 (n(n+1)/2)^2 bytes; n_orb up to about 250 fits in 8 GB) would
exceed the machine's physical memory, the file is read line by line with
every check, the duplicate rule included, no pair matrix is built, and a
file that passes them is a ResourceLimitError.

numpy's C reader (``np.loadtxt``) reads all records into flat arrays in one
call, and the checks run on whole arrays. If it refuses the file (a token
only Python's float() or int() reads, such as ``1_0``; a wrong field count;
no records) or a check fails, the file is read again line by line, which
raises the first faulty line's error: only that path counts lines.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, ParseError, ResourceLimitError, \
    ValidationError

# Recognized element symbols, H through Zn. Heavier species are rejected.
ELEMENTS = (
    "H", "He", "Li", "Be", "B", "C", "N", "O", "F", "Ne",
    "Na", "Mg", "Al", "Si", "P", "S", "Cl", "Ar", "K", "Ca",
    "Sc", "Ti", "V", "Cr", "Mn", "Fe", "Co", "Ni", "Cu", "Zn",
)
_ELEMENT_LOOKUP = {sym.lower(): sym for sym in ELEMENTS}

DUPLICATE_TOL = 1e-10

# One integral record as numpy's C reader stores it: value, then i j k l.
_RECORD = np.dtype([("value", float), ("index", np.int64, (4,))])
# Line breaks of str.splitlines() besides "\n"; folded into "\n" so that
# reported line numbers count every break it counts.
_LINE_BREAKS = ("\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                "\u2028", "\u2029")


def normalize_element(symbol: str) -> str:
    """Return the canonical capitalization of ``symbol``.

    Raises ValidationError for anything outside H..Zn.
    """
    try:
        return _ELEMENT_LOOKUP[symbol.lower()]
    except KeyError:
        raise ValidationError(f"unknown element symbol {symbol!r}") from None


@dataclass(frozen=True)
class Atom:
    element: str
    position: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "element", normalize_element(self.element))
        pos = tuple(float(c) for c in self.position)
        if len(pos) != 3 or not all(math.isfinite(c) for c in pos):
            raise ValidationError(f"bad coordinates {self.position!r}")
        object.__setattr__(self, "position", pos)


@dataclass(frozen=True)
class Geometry:
    label: str
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValidationError("geometry has no atoms")
        # the label is the XYZ comment line: parse_xyz strips it, and reads
        # it as the first atom if it has an atom row's shape
        label = self.label
        if (label != label.strip() or len(label.splitlines()) > 1
                or _looks_like_atom_row(label)):
            raise ValidationError(f"label {label!r} is not one XYZ comment line")
        object.__setattr__(self, "atoms", tuple(self.atoms))

    def __len__(self) -> int:
        return len(self.atoms)


def parse_xyz(text: str) -> Geometry:
    """Parse XYZ-format text into a Geometry.

    A leading bare-integer count line (with the following line taken as a
    comment/label) is tolerated but not required. Atom order is preserved.
    """
    lines = text.splitlines()
    numbered = [(i + 1, ln.strip()) for i, ln in enumerate(lines)]
    rows = [(no, ln) for no, ln in numbered if ln]
    if not rows:
        raise EmptyInputError("no data lines in XYZ input")

    label, first = "", rows[0][1]
    if len(first.split()) == 1 and _is_int(first):
        rows = rows[1:]  # count line; the value itself is not enforced
        if rows and not _looks_like_atom_row(rows[0][1]):
            label, rows = rows[0][1], rows[1:]
    if not rows:
        raise EmptyInputError("no data lines in XYZ input")

    atoms = []
    for no, ln in rows:
        parts = ln.split()
        if len(parts) != 4:
            raise ParseError(f"expected 'Sym x y z', got {ln!r}", line=no)
        sym, *coords = parts
        if sym.lower() not in _ELEMENT_LOOKUP:
            raise ParseError(f"unknown element symbol {sym!r}", line=no)
        try:
            xyz = tuple(float(c) for c in coords)
        except ValueError:
            raise ParseError(f"non-numeric coordinate in {ln!r}", line=no) from None
        if not all(math.isfinite(c) for c in xyz):
            raise ParseError(f"non-finite coordinate in {ln!r}", line=no)
        atoms.append(Atom(sym, xyz))
    return Geometry(label=label, atoms=tuple(atoms))


def serialize_xyz(geom: Geometry) -> str:
    """Render a Geometry back to XYZ text (count line, label, atom rows).

    Floats use shortest round-trip formatting, so serialize -> parse ->
    serialize is byte-stable.
    """
    out = [str(len(geom.atoms)), geom.label]
    for atom in geom.atoms:
        x, y, z = atom.position
        out.append(f"{atom.element} {x!r} {y!r} {z!r}")
    return "\n".join(out) + "\n"


def _is_int(token: str) -> bool:
    try:
        int(token)
        return True
    except ValueError:
        return False


def _looks_like_atom_row(line: str) -> bool:
    parts = line.split()
    if len(parts) != 4 or parts[0].lower() not in _ELEMENT_LOOKUP:
        return False
    try:
        [float(p) for p in parts[1:]]
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# Electron integrals


@dataclass(frozen=True)
class IntegralSet:
    """One- and two-electron integrals over spatial orbitals, in Hartree.

    ``pairs[p, q]`` is the chemists'-notation (ij|kl), unweighted, for the
    pairs p = (i, j) and q = (k, l) in ``_pair_indices`` order. One 8-fold
    symmetry class is one entry and its mirror: ``pairs`` is symmetric.
    """

    n_orb: int
    core_energy: float
    h1: np.ndarray
    pairs: np.ndarray

    def __post_init__(self):
        n = self.n_orb
        if n < 1:
            raise ValidationError("n_orb must be positive")
        h1 = np.asarray(self.h1, dtype=float)
        pairs = np.asarray(self.pairs, dtype=float)
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "core_energy", float(self.core_energy))
        if h1.shape != (n, n) or pairs.shape != (n * (n + 1) // 2,) * 2:
            raise ValidationError("integral array shapes do not match n_orb")
        if not (np.isfinite(h1).all() and np.isfinite(pairs).all()
                and math.isfinite(self.core_energy)):
            raise ValidationError("non-finite integral values")
        if np.abs(h1 - h1.T).max(initial=0.0) > 1e-12:
            raise ValidationError("h1 is not symmetric within 1e-12")
        if not np.array_equal(pairs, pairs.T):
            raise ValidationError("pair matrix violates 8-fold index symmetry")

    @property
    def h2(self) -> np.ndarray:
        """The dense (ij|kl) tensor, gathered from ``pairs`` anew each call."""
        table = _pair_numbers(self.n_orb)
        return self.pairs[table[:, :, None, None], table[None, None]]


@functools.lru_cache(maxsize=None)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Upper-triangle pair list (i <= j) with isometry weights; shared, read-only.

    Off-diagonal pairs carry sqrt(2) so that packed vectors inherit the
    Frobenius inner product of the symmetric matrices they represent.
    """
    iu, ju = np.triu_indices(n)
    w = np.where(iu == ju, 1.0, math.sqrt(2.0))
    iu.flags.writeable = ju.flags.writeable = w.flags.writeable = False
    return iu, ju, w


@functools.lru_cache(maxsize=None)
def _pair_numbers(n: int) -> np.ndarray:
    """The (n, n) table whose (i, j) and (j, i) hold the number of pair
    (min(i, j), max(i, j)) in ``_pair_indices`` order; shared, read-only."""
    iu, ju, _ = _pair_indices(n)
    table = np.zeros((n, n), dtype=np.intp)
    table[iu, ju] = table[ju, iu] = np.arange(len(iu))
    table.flags.writeable = False
    return table


def canonical_pair_index(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i >= j else (j, i)


def canonical_h2_index(i: int, j: int, k: int, l: int) -> tuple[int, int, int, int]:
    """Canonical representative of the 8-fold class of (ij|kl)."""
    ij = canonical_pair_index(i, j)
    kl = canonical_pair_index(k, l)
    return ij + kl if ij >= kl else kl + ij


def parse_integrals(text: str) -> IntegralSet:
    """Parse an integral file into an IntegralSet.

    numpy's C reader reads every record; the checks and the pair-matrix
    fill run on whole arrays. A file it refuses, or one that fails a
    check, is read line by line (contract: module docstring).
    """
    if not text.isascii() or any(sep in text for sep in "\r\v\f\x1c\x1d\x1e"):
        for sep in _LINE_BREAKS:  # else every break is already "\n"
            text = text.replace(sep, "\n")
    n_orb, no = _read_header(text)
    size = n_orb * (n_orb + 1) // 2  # pairs (ij), i <= j
    need = 8 * size**2  # bytes of the float64 pair matrix
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        _read_lines(text, no, n_orb)  # raises a faulty line's ParseError first
        raise ResourceLimitError(
            f"NORB {n_orb}: the pair matrix needs {need} bytes, more than the "
            f"{have} bytes of memory")
    records = _read_records(text, no, n_orb)
    if records is None:  # the line reader raises the first bad line's error
        values, indices = _read_lines(text, no, n_orb)
        records = np.array(values), np.array(indices, np.int64).reshape(-1, 4).T
    values, indices = records
    # A record's class is the pair-matrix cell it fills. With p and q the
    # 1-based pair numbers of (ij) and (kl), 0 for (0, 0), its key is
    # max(p, q)*(size+1) + min(p, q): 0 for the core energy, p*(size+1) for h1.
    pq = np.pad(_pair_numbers(n_orb) + 1, (1, 0))[indices[::2], indices[1::2]]
    keys = pq.max(axis=0) * (size + 1) + pq.min(axis=0)
    classes, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # A record is checked against its class's first record, a core energy
    # against the latest one.
    prev, core = first[inverse], np.flatnonzero(keys == 0)
    prev[core[1:]] = core[:-1]
    if (np.abs(values - values[prev]) > DUPLICATE_TOL).any():
        _read_lines(text, no, n_orb)  # it counts lines, so it names the clash

    core_energy = values[core[-1]] if len(core) else 0.0
    (hi, lo), v = np.divmod(classes, size + 1), values[first]
    # freed together, after the last is made: dropping indices early left the
    # fragment-fullrank peak RSS 3.5 MB higher at most checkouts (heap layout)
    del records, values, indices, pq, keys, first, inverse, prev, core
    one, two = (lo == 0) & (hi > 0), lo > 0
    iu, ju, _ = _pair_indices(n_orb)
    a, b = iu[hi[one] - 1], ju[hi[one] - 1]
    h1 = np.zeros((n_orb, n_orb))
    h1[a, b] = h1[b, a] = v[one]
    p, q = hi[two] - 1, lo[two] - 1
    pairs = np.zeros((size, size))
    pairs[p, q] = pairs[q, p] = v[two]
    return IntegralSet(n_orb=n_orb, core_energy=core_energy, h1=h1, pairs=pairs)


def _lines(text: str):
    """The lines of ``text`` one at a time, without splitting it whole."""
    return (match[0] for match in re.finditer("^.*$", text, re.MULTILINE))


def _read_header(text: str) -> tuple[int, int]:
    """The orbital count from the first content line, and that line's number."""
    contents = ((no, raw.split("#", 1)[0]) for no, raw in enumerate(_lines(text), 1))
    no, line = next(((no, line) for no, line in contents if line.strip()), (1, ""))
    parts = line.split()
    if len(parts) != 2 or parts[0].upper() != "NORB":
        raise ParseError("missing 'NORB <n>' header", line=no)
    try:
        n_orb = int(parts[1])
    except ValueError:
        raise ParseError(f"bad orbital count {parts[1]!r}", line=no) from None
    if n_orb < 1:
        raise ParseError("orbital count must be positive", line=no)
    return n_orb, no


def _read_records(text: str, skip: int, n_orb: int):
    """Values and (4, n) indices of the records after line ``skip``, read by
    numpy's C reader; None if it refuses the file (a token, a width, no
    records, any warning) or if a record fails a per-line check."""
    try:  # latin-1 round-trips characters below 256; the encode refuses others
        with warnings.catch_warnings():  # numpy 1.x reads "1.0" as an int
            warnings.simplefilter("error")
            records = np.loadtxt(io.BytesIO(text.encode("latin-1")), _RECORD,
                                 comments="#", skiprows=skip, encoding="latin-1",
                                 ndmin=1)
    except (ValueError, OverflowError, Warning):  # UnicodeEncodeError is a ValueError
        return None
    values, indices = records["value"].copy(), records["index"].T.copy()
    zero, outside = indices == 0, (indices < 1) | (indices > n_orb)
    h1 = zero[2] & zero[3] & ~(zero[0] & zero[1])
    h2 = ~(zero[2] & zero[3])  # a zero index is outside too: mixed zero
    if (~np.isfinite(values) | h2 & outside.any(axis=0)
            | h1 & (outside[0] | outside[1])).any():
        return None
    return values, indices


def _read_lines(text: str, skip: int, n_orb: int) -> tuple[list, list]:
    """Values and flat i j k l indices of the records after line ``skip``,
    read line by line; raises the ParseError of the first faulty line, its
    checks run in the documented order."""
    values, indices, seen = [], [], {}  # class key: (value, line) it is checked against
    for no, raw in itertools.islice(enumerate(_lines(text), 1), skip, None):
        if not (line := raw.split("#", 1)[0].strip()):
            continue
        if len(parts := line.split()) != 5:
            raise ParseError(f"expected 'value i j k l', got {line!r}", line=no)
        try:
            value = float(parts[0])
            idx = [int(p) for p in parts[1:]]
        except ValueError:
            raise ParseError(f"malformed record {line!r}", line=no) from None
        if not math.isfinite(value):
            raise ParseError("non-finite integral value", line=no)
        if idx[2:] == [0, 0]:  # h1, or the core energy, which names no orbital
            named = idx[:2] if idx[:2] != [0, 0] else []
        elif 0 in idx:
            raise ParseError(f"mixed zero/nonzero indices in {line!r}", line=no)
        else:
            named = idx
        for x in named:
            if not 1 <= x <= n_orb:
                raise ParseError(f"orbital index {x} outside [1, {n_orb}]", line=no)
        key = canonical_h2_index(*idx) if named[2:] else canonical_pair_index(*idx[:2])
        first, at = seen.setdefault(key, (value, no))
        if abs(value - first) > DUPLICATE_TOL:
            what = (f"h2 record for {key}" if named[2:]
                    else f"h1 record for {key}" if named else "core energy")
            raise ParseError(f"conflicting {what} (previous at line {at})", line=no)
        if not named:
            seen[key] = value, no  # a core energy is checked against its latest
        values.append(value)
        indices += idx
    return values, indices


def serialize_integrals(integrals: IntegralSet) -> str:
    """Write the nonzero canonical-representative records of an
    IntegralSet, pairs (i >= j) and pairs of pairs in lexicographic order."""
    n = integrals.n_orb
    out = [f"NORB {n}"]
    if integrals.core_energy != 0.0:
        out.append(f"{integrals.core_energy!r} 0 0 0 0")
    i, j = np.tril_indices(n)
    p, q = np.tril_indices(len(i))  # pairs of pairs, (i, j) >= (k, l)
    pair = _pair_numbers(n)[i, j]
    none = np.full_like(i, -1)  # h1 records end in "0 0"
    values = np.concatenate([integrals.h1[i, j], integrals.pairs[pair[p], pair[q]]])
    index = np.concatenate([[i, j, none, none], [i[p], j[p], i[q], j[q]]], axis=1)
    keep = values != 0.0
    out += [f"{v!r} {a} {b} {c} {d}" for v, (a, b, c, d)
            in zip(values[keep].tolist(), (index[:, keep].T + 1).tolist())]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Synthetic integral sets


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a random integral set with a known two-electron rank.

    The PCG64 generator keyed by ``seed`` makes output reproducible; the
    draw order is part of the format and must not change.
    """

    n_orb: int
    rank: int
    magnitude: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_orb < 1:
            raise ValidationError("n_orb must be positive")
        max_rank = self.n_orb * (self.n_orb + 1) // 2
        if not 0 <= self.rank <= max_rank:
            raise ValidationError(
                f"rank {self.rank} outside [0, {max_rank}] for n_orb={self.n_orb}")
        if not (self.magnitude > 0 and math.isfinite(self.magnitude)):
            raise ValidationError("magnitude must be a positive finite number")


def gen_synthetic(spec: SyntheticSpec) -> IntegralSet:
    """Build a random IntegralSet whose two-electron tensor is an exact sum
    of ``spec.rank`` symmetric separable terms c_r * L_ij * L_kl.

    Each L is a unit-Frobenius random symmetric matrix and the weights are
    scaled by 1/sqrt(rank), which keeps the tensor norm near ``magnitude``
    independent of size. The construction gives exact 8-fold symmetry and
    first-stage matrix rank equal to ``spec.rank`` (almost surely).
    """
    n = spec.n_orb
    rng = np.random.Generator(np.random.PCG64(spec.seed))

    raw = rng.standard_normal((n, n))
    h1 = (raw + raw.T) / 2.0 * spec.magnitude
    core = spec.magnitude * rng.standard_normal()

    iu, ju, _ = _pair_indices(n)
    pairs = np.zeros((len(iu), len(iu)))
    if spec.rank:
        scale = spec.magnitude / math.sqrt(spec.rank)
        for _ in range(spec.rank):
            a = rng.standard_normal((n, n))
            leaf = a + a.T
            flat = leaf.reshape(-1)
            leaf /= math.sqrt(flat @ flat)  # the Frobenius norm, as numpy takes it
            # magnitudes bounded away from zero so the rank is unambiguous
            weight = scale * (0.5 + rng.random())
            if rng.random() < 0.5:
                weight = -weight
            u = leaf[iu, ju]
            pairs += weight * (u[:, None] * u)
    return IntegralSet(n_orb=n, core_energy=core, h1=h1, pairs=pairs)
