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

Only one canonical representative per 8-fold symmetry class is required;
all permutational images are filled in on read. Repeated records must agree
within ``DUPLICATE_TOL``: an h1 or h2 record is compared with the first
record of its class, which supplies the value, and a core energy with the
latest one before it, the last one supplying the value.

A bad file raises the ParseError of its first offending line in file
order, with that line's number. On one line the checks run as listed:
field count, number syntax, finiteness, index bounds or mixed zero/nonzero
indices, then the duplicate rule ("previous at line N"). Records are read
in blocks of lines into flat arrays, so memory grows with the record count
rather than with Python objects per token.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInputError, ParseError, ValidationError

# Recognized element symbols, H through Zn. Heavier species are rejected.
ELEMENTS = (
    "H", "He", "Li", "Be", "B", "C", "N", "O", "F", "Ne",
    "Na", "Mg", "Al", "Si", "P", "S", "Cl", "Ar", "K", "Ca",
    "Sc", "Ti", "V", "Cr", "Mn", "Fe", "Co", "Ni", "Cu", "Zn",
)
_ELEMENT_LOOKUP = {sym.lower(): sym for sym in ELEMENTS}

DUPLICATE_TOL = 1e-10

# Integral-file lines read and tokenized at a time: bounds the Python
# strings alive at once, so memory grows with the record count only.
_BLOCK_LINES = 8192
# Index tokens up to this are read by table lookup (see _convert); the cap
# keeps a header's orbital count alone from sizing the table.
_INDEX_TABLE_MAX = 4096
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
        object.__setattr__(self, "atoms", tuple(self.atoms))

    def __len__(self) -> int:
        return len(self.atoms)


def parse_xyz(text: str, label: str = "") -> Geometry:
    """Parse XYZ-format text into a Geometry.

    A leading bare-integer count line (with the following line taken as a
    comment/label) is tolerated but not required. Atom order is preserved.
    """
    lines = text.splitlines()
    numbered = [(i + 1, ln.strip()) for i, ln in enumerate(lines)]
    rows = [(no, ln) for no, ln in numbered if ln]
    if not rows:
        raise EmptyInputError("no data lines in XYZ input")

    first_no, first = rows[0]
    if len(first.split()) == 1 and _is_int(first):
        rows = rows[1:]  # count line; the value itself is not enforced
        if rows and not _looks_like_atom_row(rows[0][1]):
            label = rows[0][1] if not label else label
            rows = rows[1:]
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

    ``h2`` stores the chemists'-notation tensor (ij|kl) in a dense array
    whose entries are exactly equal across all 8 permutational images.
    """

    n_orb: int
    core_energy: float
    h1: np.ndarray
    h2: np.ndarray

    def __post_init__(self):
        n = self.n_orb
        if n < 1:
            raise ValidationError("n_orb must be positive")
        h1 = np.asarray(self.h1, dtype=float)
        h2 = np.asarray(self.h2, dtype=float)
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", h2)
        object.__setattr__(self, "core_energy", float(self.core_energy))
        if h1.shape != (n, n) or h2.shape != (n, n, n, n):
            raise ValidationError("integral array shapes do not match n_orb")
        if not (np.isfinite(h1).all() and np.isfinite(h2).all()
                and math.isfinite(self.core_energy)):
            raise ValidationError("non-finite integral values")
        if np.abs(h1 - h1.T).max(initial=0.0) > 1e-12:
            raise ValidationError("h1 is not symmetric within 1e-12")
        for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
            if not np.array_equal(h2, h2.transpose(perm)):
                raise ValidationError("h2 violates 8-fold index symmetry")


def canonical_pair_index(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i >= j else (j, i)


def canonical_h2_index(i: int, j: int, k: int, l: int) -> tuple[int, int, int, int]:
    """Canonical representative of the 8-fold class of (ij|kl)."""
    ij = canonical_pair_index(i, j)
    kl = canonical_pair_index(k, l)
    return ij + kl if ij >= kl else kl + ij


def parse_integrals(text: str) -> IntegralSet:
    """Parse an integral file into a fully symmetry-expanded IntegralSet.

    Lines are tokenized in blocks of ``_BLOCK_LINES``; the checks and the
    symmetry expansion run on whole arrays (contract: module docstring).
    """
    for sep in _LINE_BREAKS:
        text = text.replace(sep, "\n")
    stream = io.StringIO(text)
    n_orb, no = _read_header(stream)
    size = text.count("\n") + 1 - no  # at least the record count
    values, lines = np.empty(size), np.empty(size, dtype=np.int64)
    indices = np.empty((4, size), dtype=np.int64)
    count, error = 0, None
    table = {str(i): i for i in range(min(n_orb, _INDEX_TABLE_MAX) + 1)}
    for block in iter(lambda: list(itertools.islice(stream, _BLOCK_LINES)), []):
        vals, idx, nos, error = _read_block(block, no + 1, n_orb, table)
        end = count + len(vals)
        values[count:end], indices[:, count:end], lines[count:end] = vals, idx, nos
        count, no = end, no + len(block)
        if error is not None:
            break
    del stream
    values, indices, lines = values[:count], indices[:, :count], lines[:count]

    # Pair numbers p of (ij) and q of (kl): 1-based in lexicographic order,
    # 0 for (0, 0). The key max(p, q)*(P+1) + min(p, q) is 0 for the core
    # energy and unique per h1 pair and per h2 symmetry class.
    ik, jl = indices[::2], indices[1::2]
    hi, lo = np.maximum(ik, jl), np.minimum(ik, jl)
    pairs = hi * (hi - 1) // 2 + lo
    keys = pairs.max(axis=0) * (n_orb * (n_orb + 1) // 2 + 1) + pairs.min(axis=0)
    del hi, lo, pairs  # each temporary goes before the next comes
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.diff(keys, prepend=-1) != 0
    # A record is checked against its class's first record, a core energy
    # against the latest one. A clash comes before ``error``'s line.
    prev = order[np.maximum.accumulate(np.where(starts, np.arange(count), 0))]
    prev = np.where(keys == 0, np.r_[order[:1], order[:-1]], prev)
    clash = np.abs(values[order] - values[prev]) > DUPLICATE_TOL
    if clash.any():
        at = np.argmin(order[clash])
        row, before = order[clash][at], prev[clash][at]
        i, j, k, l = indices[:, row].tolist()
        what = (f"h2 record for {canonical_h2_index(i, j, k, l)}" if k else
                f"h1 record for {canonical_pair_index(i, j)}" if i else "core energy")
        raise ParseError(f"conflicting {what} (previous at line {lines[before]})",
                         line=int(lines[row]))
    if error is not None:
        raise error

    core, firsts = order[keys == 0], order[starts & (keys > 0)]
    del order, keys, starts, prev, clash
    (a, b, c, d), v = indices[:, firsts] - 1, values[firsts]
    one, two = c < 0, c >= 0
    h1 = np.zeros((n_orb, n_orb))
    h1[a[one], b[one]] = h1[b[one], a[one]] = v[one]
    a, b, c, d, v = a[two], b[two], c[two], d[two], v[two]
    h2 = np.zeros((n_orb, n_orb, n_orb, n_orb))
    for p, q, r, s in ((a, b, c, d), (b, a, c, d), (a, b, d, c), (b, a, d, c),
                       (c, d, a, b), (d, c, a, b), (c, d, b, a), (d, c, b, a)):
        h2[p, q, r, s] = v
    return IntegralSet(n_orb=n_orb, core_energy=values[core[-1]] if len(core) else 0.0,
                       h1=h1, h2=h2)


def _read_header(stream) -> tuple[int, int]:
    """The orbital count from the first content line, and that line's number."""
    contents = ((no, raw.split("#", 1)[0]) for no, raw in enumerate(stream, start=1))
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


def _read_block(block: list[str], first_no: int, n_orb: int, table: dict):
    """Values, (4, n) indices and line numbers of a block's records before
    its first line that fails a per-line check, and that line's error."""
    fields = [raw.split("#", 1)[0].split() for raw in block]
    widths = np.fromiter(map(len, fields), np.intp, len(fields))
    keep = np.flatnonzero(widths)
    try:
        if (widths[keep] == 5).all():
            values, indices = _convert([fields[pos] for pos in keep.tolist()], table)
            zero, outside = indices == 0, (indices < 1) | (indices > n_orb)
            h1 = zero[2] & zero[3] & ~(zero[0] & zero[1])
            h2 = ~(zero[2] & zero[3])  # a zero index is outside too: mixed zero
            if not (~np.isfinite(values) | h2 & outside.any(axis=0)
                    | h1 & (outside[0] | outside[1])).any():
                return values, indices, keep + first_no, None
    except (ValueError, OverflowError):  # malformed, or an index past int64
        pass
    # Error path: re-scan this block line by line for its first bad record.
    errors = (_line_error(block[pos], first_no + pos, n_orb) for pos in keep.tolist())
    stop, error = next(((n, e) for n, e in enumerate(errors) if e), (len(keep), None))
    keep = keep[:stop]
    return (*_convert([fields[pos] for pos in keep.tolist()], table),
            keep + first_no, error)


def _convert(rows: list[list[str]], table: dict
             ) -> tuple[np.ndarray, np.ndarray]:
    """Value and (4, n) index arrays of five-field records. Fields are
    picked by map(list.__getitem__), with no token list built per block.
    Index tokens are looked up in ``table`` (``str(i)`` to ``i``); a token
    it lacks (``"01"``, ``"+1"``, out of range) sends the block to int()."""
    def field(k):
        return map(list.__getitem__, rows, itertools.repeat(k))
    def indices(convert):
        tokens = itertools.chain.from_iterable(field(slice(1, 5)))
        return np.fromiter(map(convert, tokens), np.int64, 4 * len(rows))
    values = np.fromiter(map(float, field(0)), float, len(rows))
    try:
        found = indices(table.__getitem__)
    except KeyError:
        found = indices(int)
    return values, found.reshape(-1, 4).T


def _line_error(raw: str, no: int, n_orb: int) -> ParseError | None:
    """The error of one record line, checked in the documented order."""
    line = raw.split("#", 1)[0].strip()
    parts = line.split()
    if len(parts) != 5:
        return ParseError(f"expected 'value i j k l', got {line!r}", line=no)
    try:
        value = float(parts[0])
        idx = [int(p) for p in parts[1:]]
    except ValueError:
        return ParseError(f"malformed record {line!r}", line=no)
    if not math.isfinite(value):
        return ParseError("non-finite integral value", line=no)
    if idx[2:] == [0, 0]:
        idx = [] if idx[:2] == [0, 0] else idx[:2]  # core energy or h1
    elif 0 in idx:
        return ParseError(f"mixed zero/nonzero indices in {line!r}", line=no)
    for x in idx:
        if not 1 <= x <= n_orb:
            return ParseError(f"orbital index {x} outside [1, {n_orb}]", line=no)
    return None


def serialize_integrals(integrals: IntegralSet) -> str:
    """Write canonical-representative records for an IntegralSet."""
    n = integrals.n_orb
    out = [f"NORB {n}"]
    if integrals.core_energy != 0.0:
        out.append(f"{integrals.core_energy!r} 0 0 0 0")
    for i in range(n):
        for j in range(i + 1):
            v = float(integrals.h1[i, j])
            if v != 0.0:
                out.append(f"{v!r} {i + 1} {j + 1} 0 0")
    seen = set()
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    key = canonical_h2_index(i + 1, j + 1, k + 1, l + 1)
                    if key in seen:
                        continue
                    seen.add(key)
                    v = float(
                        integrals.h2[key[0] - 1, key[1] - 1, key[2] - 1, key[3] - 1])
                    if v != 0.0:
                        out.append(f"{v!r} {key[0]} {key[1]} {key[2]} {key[3]}")
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

    h2 = np.zeros((n, n, n, n))
    if spec.rank:
        scale = spec.magnitude / math.sqrt(spec.rank)
        for _ in range(spec.rank):
            a = rng.standard_normal((n, n))
            leaf = a + a.T
            leaf /= np.linalg.norm(leaf)
            # magnitudes bounded away from zero so the rank is unambiguous
            weight = scale * (0.5 + rng.random())
            if rng.random() < 0.5:
                weight = -weight
            h2 += weight * np.einsum("ij,kl->ijkl", leaf, leaf)
    return IntegralSet(n_orb=n, core_energy=core, h1=h1, h2=h2)
