import itertools
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import pack_pairs, stage1_matrix
from dfqre import ingest
from dfqre.errors import EmptyInputError, ParseError, ValidationError
from dfqre.ingest import (DUPLICATE_TOL, IntegralSet, SyntheticSpec,
                          canonical_h2_index, canonical_pair_index,
                          gen_synthetic, parse_integrals, parse_xyz,
                          serialize_integrals, serialize_xyz)


class TestParseXyz:
    def test_fragment_9_table(self, geometry_texts):
        geom = parse_xyz(geometry_texts[9])
        assert len(geom) == 7
        assert geom.atoms[0].element == "C"
        assert geom.atoms[0].position == (-3.74, 8.105, 5.22)
        assert geom.atoms[6].element == "H"
        assert geom.atoms[6].position == (-2.780, 5.688, 6.031)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            parse_xyz("")

    def test_blank_lines_only(self):
        with pytest.raises(EmptyInputError):
            parse_xyz("\n  \n\n")

    def test_headerless_rows(self):
        geom = parse_xyz("O 0.0 0.0 0.0\nH 0.95 0.0 0.0\nH -0.24 0.92 0.0\n")
        assert [a.element for a in geom.atoms] == ["O", "H", "H"]
        assert geom.label == ""

    def test_count_and_comment_header(self):
        geom = parse_xyz("2\nwater fragment\nO 0 0 0\nH 1 0 0\n")
        assert geom.label == "water fragment"
        assert len(geom) == 2

    def test_case_normalization(self):
        geom = parse_xyz("cu 0 0 0\nFE 1 1 1\n")
        assert [a.element for a in geom.atoms] == ["Cu", "Fe"]

    def test_unknown_element_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_xyz("C 0 0 0\nXx 1 1 1\n")
        assert err.value.line == 2

    def test_heavy_element_rejected(self):
        with pytest.raises(ParseError):
            parse_xyz("Ag 0 0 0\n")

    def test_non_numeric_coordinate(self):
        with pytest.raises(ParseError) as err:
            parse_xyz("C 0 zero 0\n")
        assert err.value.line == 1

    def test_wrong_field_count(self):
        with pytest.raises(ParseError):
            parse_xyz("C 0 0\n")

    def test_round_trip_fragment_8(self, geometry_texts):
        first = parse_xyz(geometry_texts[8])
        assert len(first) == 11
        again = parse_xyz(serialize_xyz(first))
        assert again == first

    @pytest.mark.parametrize("fragment", range(1, 17))
    def test_round_trip_all_fragments(self, geometry_texts, fragment):
        geom = parse_xyz(geometry_texts[fragment])
        text = serialize_xyz(geom)
        assert parse_xyz(text) == geom
        assert serialize_xyz(parse_xyz(text)) == text  # byte-stable


# any text, line breaks and atom-row shapes included, beside text that
# looks like an atom row or carries a break
_labels = st.one_of(
    st.text(max_size=20),
    st.builds("{} {} {} {}".format, st.sampled_from(ingest.ELEMENTS),
              *[st.floats(allow_nan=False)] * 3),
    st.builds("".join, st.lists(st.sampled_from(
        ["a", " ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85",
         "\u2028", "C", "0"]), max_size=6)))
_atoms = st.builds(ingest.Atom, st.sampled_from(ingest.ELEMENTS),
                   st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3))


@settings(max_examples=300, deadline=None)
@given(_labels, st.lists(_atoms, min_size=1, max_size=8))
def test_xyz_round_trip_property(label, atoms):
    """A label the XYZ comment line cannot hold is refused; any other
    geometry reads back equal, and is written again byte for byte."""
    try:
        geom = ingest.Geometry(label, tuple(atoms))
    except ValidationError:
        # refused only where the written comment line would not read back
        try:
            back = parse_xyz(f"1\n{label}\nH 0.0 0.0 0.0\n")
        except ParseError:
            return
        assert (back.label, len(back)) != (label, 1)
        return
    text = serialize_xyz(geom)
    assert parse_xyz(text) == geom
    assert serialize_xyz(parse_xyz(text)) == text  # byte-stable


class TestParseIntegrals:
    def test_single_orbital_records(self):
        text = "NORB 1\n0.5 0 0 0 0\n-1.25 1 1 0 0\n0.6625 1 1 1 1\n"
        ints = parse_integrals(text)
        assert ints.core_energy == 0.5
        assert ints.h1[0, 0] == -1.25
        assert ints.h2[0, 0, 0, 0] == 0.6625

    def test_symmetry_expansion(self):
        ints = parse_integrals("NORB 2\n0.1 1 2 1 2\n")
        h2 = ints.h2
        images = [(0, 1, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0), (1, 0, 1, 0)]
        for idx in images:
            assert h2[idx] == 0.1
        assert np.count_nonzero(h2) == 4
        # pairs (1, 1), (1, 2), (2, 2): the class is one diagonal entry
        assert ints.pairs.tolist() == [[0.0] * 3, [0.0, 0.1, 0.0], [0.0] * 3]

    def test_index_out_of_range(self):
        with pytest.raises(ParseError) as err:
            parse_integrals("NORB 2\n0.1 1 3 1 1\n")
        assert err.value.line == 2

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_integrals("0.1 1 1 1 1\n")

    def test_conflicting_duplicates(self):
        text = "NORB 2\n0.1 1 2 1 2\n0.3 2 1 2 1\n"
        with pytest.raises(ParseError):
            parse_integrals(text)

    def test_consistent_duplicates_pass(self):
        text = "NORB 2\n0.1 1 2 1 2\n0.1 2 1 2 1\n"
        assert parse_integrals(text).h2[0, 1, 0, 1] == 0.1

    def test_mixed_zero_indices(self):
        with pytest.raises(ParseError):
            parse_integrals("NORB 2\n0.1 1 0 1 1\n")

    def test_comments_and_blanks(self):
        text = "# header comment\nNORB 1\n\n0.25 1 1 0 0  # inline\n"
        assert parse_integrals(text).h1[0, 0] == 0.25

    @pytest.mark.parametrize("core", [None, 0.0])
    @pytest.mark.parametrize("full", [False, True])
    @pytest.mark.parametrize("n_orb", range(1, 7))
    def test_serialize_round_trip(self, n_orb, full, core):
        rank = n_orb * (n_orb + 1) // 2 if full else 0
        ints = gen_synthetic(SyntheticSpec(n_orb=n_orb, rank=rank, seed=n_orb))
        if core is not None:
            ints = replace(ints, core_energy=core)
        assert (ints.core_energy == 0.0) == (core == 0.0)
        text = serialize_integrals(ints)
        expected = reference_serialize_integrals(ints)
        assert text.splitlines()[:2] == expected.splitlines()[:2]
        assert sorted(text.splitlines()) == sorted(expected.splitlines())
        again = parse_integrals(text)
        assert again.n_orb == ints.n_orb
        assert np.array_equal(again.h1, ints.h1)
        assert np.array_equal(again.pairs, ints.pairs)
        assert again.core_energy == ints.core_energy


BAD_MAGNITUDE = "magnitude must be a positive finite number"


@pytest.mark.parametrize("build, message", [
    (lambda: ingest.Atom("Xx", (0.0, 0.0, 0.0)), "unknown element symbol 'Xx'"),
    (lambda: ingest.Atom("H", (0.0, 0.0)), "bad coordinates (0.0, 0.0)"),
    (lambda: ingest.Geometry("g", ()), "geometry has no atoms"),
    (lambda: IntegralSet(0, 0.0, np.zeros((0, 0)), np.zeros((0, 0))),
     "n_orb must be positive"),
    (lambda: SyntheticSpec(0, 0), "n_orb must be positive"),
    (lambda: SyntheticSpec(2, 1, magnitude=0.0), BAD_MAGNITUDE),
    (lambda: SyntheticSpec(2, 1, magnitude=math.inf), BAD_MAGNITUDE),
    (lambda: SyntheticSpec(2, 1, magnitude=math.nan), BAD_MAGNITUDE),
], ids=["unknown-element", "two-coordinates", "no-atoms", "integrals-n-orb-0",
        "synthetic-n-orb-0", "magnitude-0", "magnitude-inf", "magnitude-nan"])
def test_constructor_refusal_message(build, message):
    with pytest.raises(ValidationError) as err:
        build()
    assert type(err.value) is ValidationError and str(err.value) == message


class TestIntegralSetInvariants:
    def test_asymmetric_h1_rejected(self):
        h1 = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            IntegralSet(2, 0.0, h1, np.zeros((3, 3)))

    def test_asymmetric_pairs_rejected(self):
        pairs = np.zeros((3, 3))
        pairs[1, 0] = 1.0  # (12|11) without its mirror (11|12)
        with pytest.raises(ValidationError, match="8-fold"):
            IntegralSet(2, 0.0, np.zeros((2, 2)), pairs)

    def test_dense_h2_rejected(self):
        with pytest.raises(ValidationError, match="shapes"):
            IntegralSet(2, 0.0, np.zeros((2, 2)), np.zeros((2, 2, 2, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            IntegralSet(1, float("nan"), np.zeros((1, 1)), np.zeros((1, 1)))
        pairs = np.zeros((3, 3))
        pairs[2, 2] = float("inf")
        with pytest.raises(ValidationError):
            IntegralSet(2, 0.0, np.zeros((2, 2)), pairs)

    def test_fixture_packing_refuses_asymmetric_h2(self):
        h2 = np.zeros((2, 2, 2, 2))
        h2[0, 1, 0, 0] = 1.0
        with pytest.raises(ValueError, match="8-fold"):
            pack_pairs(h2)

    @pytest.mark.parametrize("n_orb", range(1, 6))
    def test_h2_gathers_every_image(self, n_orb):
        ints = gen_synthetic(SyntheticSpec(n_orb=n_orb, rank=n_orb, seed=4))
        h2 = ints.h2
        assert h2.shape == (n_orb,) * 4
        assert np.array_equal(pack_pairs(h2), ints.pairs)  # 8-fold symmetric
        assert ints.h2 is not h2  # built on each call, not kept


@pytest.mark.parametrize("n_orb", [1, 2, 5, 9])
def test_pair_tables_are_shared_and_read_only(n_orb):
    """Each n_orb's pair list and pair-number table are built once: every
    caller gets the same arrays, and writing to them raises."""
    iu, ju, w = ingest._pair_indices(n_orb)
    table = ingest._pair_numbers(n_orb)
    assert all(a is b for a, b in zip(ingest._pair_indices(n_orb), (iu, ju, w)))
    assert ingest._pair_numbers(n_orb) is table
    # the values the callers gather: np.triu_indices order, sqrt(2) off
    # the diagonal, and each pair's number under both (i, j) and (j, i)
    assert np.array_equal(np.stack([iu, ju]), np.triu_indices(n_orb))
    assert np.array_equal(w, np.where(iu == ju, 1.0, math.sqrt(2.0)))
    assert np.array_equal(table[iu, ju], np.arange(len(iu)))
    assert np.array_equal(table, table.T)
    for array in (iu, ju, w, table):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


class TestGenSynthetic:
    def test_zero_rank_gives_zero_tensor(self):
        ints = gen_synthetic(SyntheticSpec(n_orb=3, rank=0, seed=7))
        assert np.count_nonzero(ints.pairs) == 0

    def test_rank_matches_gram_spectrum(self):
        ints = gen_synthetic(SyntheticSpec(n_orb=4, rank=3, seed=1))
        eigs = np.linalg.eigvalsh(stage1_matrix(ints))
        assert np.count_nonzero(np.abs(eigs) > 1e-10) == 3

    def test_determinism(self):
        spec = SyntheticSpec(n_orb=5, rank=7, seed=123)
        first, second = gen_synthetic(spec), gen_synthetic(spec)
        assert np.array_equal(first.h1, second.h1)
        assert np.array_equal(first.pairs, second.pairs)
        assert first.core_energy == second.core_energy

    def test_seed_changes_output(self):
        a = gen_synthetic(SyntheticSpec(n_orb=3, rank=2, seed=1))
        b = gen_synthetic(SyntheticSpec(n_orb=3, rank=2, seed=2))
        assert not np.array_equal(a.pairs, b.pairs)

    def test_rank_cap_enforced(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(n_orb=2, rank=4, seed=0)

    @pytest.mark.parametrize("n_orb", [1, 2, 3, 4, 5, 6])
    def test_rank_property_exhaustive(self, n_orb):
        for rank in range(n_orb * (n_orb + 1) // 2 + 1):
            ints = gen_synthetic(SyntheticSpec(n_orb=n_orb, rank=rank,
                                               seed=17 + rank))
            eigs = np.linalg.eigvalsh(stage1_matrix(ints))
            assert np.count_nonzero(np.abs(eigs) > 1e-10) == rank


# ---------------------------------------------------------------------------
# Equivalence of the block parser with a line-by-line reference


def reference_parse_integrals(text: str) -> SimpleNamespace:
    """The line-by-line integral parser the block parser replaced, kept as
    the oracle for its arrays and its errors. Its h2 is the dense tensor
    with every image of each class written out, and its pairs that h2
    packed."""
    n_orb = None
    core: tuple[float, int] | None = None  # (value, line)
    h1_entries: dict[tuple[int, int], tuple[float, int]] = {}
    h2_entries: dict[tuple[int, int, int, int], tuple[float, int]] = {}

    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n_orb is None:
            parts = line.split()
            if len(parts) != 2 or parts[0].upper() != "NORB":
                raise ParseError("missing 'NORB <n>' header", line=no)
            try:
                n_orb = int(parts[1])
            except ValueError:
                raise ParseError(f"bad orbital count {parts[1]!r}", line=no) from None
            if n_orb < 1:
                raise ParseError("orbital count must be positive", line=no)
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ParseError(f"expected 'value i j k l', got {line!r}", line=no)
        try:
            value = float(parts[0])
            i, j, k, l = (int(p) for p in parts[1:])
        except ValueError:
            raise ParseError(f"malformed record {line!r}", line=no) from None
        if not math.isfinite(value):
            raise ParseError("non-finite integral value", line=no)

        if (i, j, k, l) == (0, 0, 0, 0):
            if core is not None and abs(core[0] - value) > DUPLICATE_TOL:
                raise ParseError(
                    f"conflicting core energy (previous at line {core[1]})", line=no)
            core = (value, no)
        elif k == 0 and l == 0:
            _reference_check_bounds((i, j), n_orb, no)
            key = canonical_pair_index(i, j)
            prev = h1_entries.get(key)
            if prev is not None and abs(prev[0] - value) > DUPLICATE_TOL:
                raise ParseError(
                    f"conflicting h1 record for {key} (previous at line {prev[1]})",
                    line=no)
            h1_entries.setdefault(key, (value, no))
        elif 0 in (i, j, k, l):
            raise ParseError(f"mixed zero/nonzero indices in {line!r}", line=no)
        else:
            _reference_check_bounds((i, j, k, l), n_orb, no)
            key = canonical_h2_index(i, j, k, l)
            prev = h2_entries.get(key)
            if prev is not None and abs(prev[0] - value) > DUPLICATE_TOL:
                raise ParseError(
                    f"conflicting h2 record for {key} (previous at line {prev[1]})",
                    line=no)
            h2_entries.setdefault(key, (value, no))

    if n_orb is None:
        raise ParseError("missing 'NORB <n>' header", line=1)

    h1 = np.zeros((n_orb, n_orb))
    for (i, j), (value, _) in h1_entries.items():
        h1[i - 1, j - 1] = value
        h1[j - 1, i - 1] = value
    h2 = np.zeros((n_orb, n_orb, n_orb, n_orb))
    for (i, j, k, l), (value, _) in h2_entries.items():
        a, b, c, d = i - 1, j - 1, k - 1, l - 1
        for p, q, r, s in ((a, b, c, d), (b, a, c, d), (a, b, d, c), (b, a, d, c),
                           (c, d, a, b), (d, c, a, b), (c, d, b, a), (d, c, b, a)):
            h2[p, q, r, s] = value
    return SimpleNamespace(n_orb=n_orb, core_energy=core[0] if core else 0.0,
                           h1=h1, h2=h2, pairs=pack_pairs(h2))


def reference_serialize_integrals(integrals: IntegralSet) -> str:
    """The loop writer the vectorized one replaced: the same records, in
    the order in which the loop over (i, j, k, l) first meets a class."""
    n = integrals.n_orb
    h2 = integrals.h2
    out = [f"NORB {n}"]
    if integrals.core_energy != 0.0:
        out.append(f"{integrals.core_energy!r} 0 0 0 0")
    for i in range(n):
        for j in range(i + 1):
            v = float(integrals.h1[i, j])
            if v != 0.0:
                out.append(f"{v!r} {i + 1} {j + 1} 0 0")
    seen = set()
    for idx in itertools.product(range(1, n + 1), repeat=4):
        key = canonical_h2_index(*idx)
        if key not in seen:
            seen.add(key)
            v = float(h2[tuple(x - 1 for x in key)])
            if v != 0.0:
                out.append(f"{v!r} {key[0]} {key[1]} {key[2]} {key[3]}")
    return "\n".join(out) + "\n"


def _reference_check_bounds(indices, n_orb: int, line: int):
    for idx in indices:
        if not 1 <= idx <= n_orb:
            raise ParseError(f"orbital index {idx} outside [1, {n_orb}]", line=line)


def _outcome(parse, text):
    """Arrays as bytes (so -0.0 and 0.0 differ), or the error's identity."""
    try:
        ints = parse(text)
    except ParseError as exc:
        return type(exc), exc.line, str(exc)
    return (ints.n_orb, np.float64(ints.core_energy).tobytes(),
            ints.h1.tobytes(), ints.pairs.tobytes(), ints.h2.tobytes())


def assert_same_as_reference(text):
    expected = _outcome(reference_parse_integrals, text)
    assert _outcome(parse_integrals, text) == expected
    return expected


def _images(i, j, k, l):
    return [(i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
            (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i)]


_values = st.floats(-10, 10, allow_nan=False, width=64)
# A within-tolerance offset: any two copies of a record stay consistent.
_jitter = st.sampled_from([0.0, 0.0, 4e-11])
_index_token = st.sampled_from(["{}", "{}", "{}", "+{}", "0{}"])
_faults = st.sampled_from([
    "0.5 1 1 1", "0.5 1 1 1 1 1", "NORB 2", "abc 1 1 1 1", "0.5 1 1.0 1 1",
    "0.5 1 x 0 0", "nan 1 1 1 1", "inf 1 1 0 0", "-inf 0 0 0 0", "0.5 1 9 1 1",
    "0.5 9 1 0 0", "0.5 0 1 0 0", "0.5 -1 1 1 1", "0.5 1 1 1 99999999999999999999",
    "0.5 1 0 1 1", "0.5 0 0 1 1", "0.5 1 1 0 1", "nan 1 0 1 1", "1e999 1 1 1 1",
    "7.5 1 1 1 1", "7.5 1 1 0 0", "7.5 0 0 0 0",
])


@st.composite
def integral_texts(draw, faults: bool):
    """Small integral files: shuffled records, consistent duplicates written
    as random permutational images, comments, blank lines, either line
    ending, with or without a final newline; with ``faults``, bad lines
    (wrong width, malformed, non-finite, out of bounds, mixed zero,
    conflicting) planted anywhere, header included."""
    n = draw(st.integers(1, 3))
    index = st.integers(1, n)
    core = [(0, 0, 0, 0)] * draw(st.integers(0, 1))
    h1 = [canonical_pair_index(draw(index), draw(index)) + (0, 0)
          for _ in range(draw(st.integers(0, 6)))]
    h2 = [canonical_h2_index(*(draw(index) for _ in range(4)))
          for _ in range(draw(st.integers(0, 12)))]
    records = []
    for key in dict.fromkeys(core + h1 + h2):  # one value per class
        value = draw(_values)
        images = set(_images(*key)) if key[2] else {key, (key[1], key[0], 0, 0)}
        for _ in range(draw(st.integers(1, 3))):
            image = draw(st.sampled_from(sorted(images)))
            records.append((value + draw(_jitter), image))
    lines = []
    for value, idx in draw(st.permutations(records)):
        tokens = [draw(_index_token).format(x) for x in idx]
        lines.append(" ".join([repr(value), *tokens]))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(
            ["", "   ", "# comment", "\t# 0.5 1 1 1 1"])))
    for pos in draw(st.lists(st.integers(0, max(len(lines) - 1, 0)), max_size=3)):
        if lines and not lines[pos].startswith("#"):
            lines[pos] += draw(st.sampled_from(["  # inline", "\t", "#x 1 2"]))
    lines.insert(0, f"NORB {n}")
    lines[:0] = draw(st.lists(st.sampled_from(["", "# title"]), max_size=2))
    if faults:
        for _ in range(draw(st.integers(1, 3))):
            lines.insert(draw(st.integers(0, len(lines))), draw(_faults))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from([ending, ""]))


_hypothesis = settings(max_examples=200, deadline=None,
                       suppress_health_check=[HealthCheck.too_slow])


class TestBlockParserEquivalence:
    @_hypothesis
    @given(integral_texts(faults=False))
    def test_valid_files_bit_identical(self, text):
        outcome = assert_same_as_reference(text)
        assert outcome[0] != ParseError  # consistent duplicates parse

    @_hypothesis
    @given(integral_texts(faults=True))
    def test_faulty_files_same_outcome(self, text):
        assert_same_as_reference(text)

    @pytest.mark.parametrize("text, line", [
        ("NORB 2\n0.1 1 1 1\n", 2),                       # width
        ("NORB 2\n0.1 1 1 1 1 1\n", 2),
        ("NORB 2\nabc 1 1 1 1\n", 2),                     # malformed value
        ("NORB 2\n0.1 1 1.0 1 1\n", 2),                   # malformed index
        ("NORB 2\nnan 1 1 1 1\n", 2),                     # non-finite
        ("NORB 2\n-inf 0 0 0 0\n", 2),
        ("NORB 2\n1e999 1 1 0 0\n", 2),
        ("NORB 2\n0.1 1 3 1 1\n", 2),                     # out of bounds
        ("NORB 2\n0.1 0 1 0 0\n", 2),
        ("NORB 2\n0.1 -1 1 1 1\n", 2),
        ("NORB 2\n0.1 1 1 1 99999999999999999999\n", 2),
        ("NORB 2\n0.1 1 0 1 1\n", 2),                     # mixed zero
        ("NORB 2\n0.1 0 0 1 1\n", 2),
        ("NORB 2\n0.1 1 2 0 0\n# c\n0.2 2 1 0 0\n", 4),  # h1 conflict
        ("NORB 2\n0.1 1 2 1 2\n0.3 2 1 2 1\n", 3),        # h2 conflict
        ("NORB 2\n0.1 1 2 1 1\n0.1 2 1 1 1\n0.1 1 1 1 2\n0.2 1 1 2 1\n", 5),
        ("NORB 1\n0.5 0 0 0 0\n0.5 0 0 0 0\n0.7 0 0 0 0\n", 4),  # core
        ("NORB 2\n0.1 2 2 2 2\n0.2 2 2 2 2\n0.1 1 1 1 1\n0.2 1 1 1 1\n", 3),
        ("0.1 1 1 1 1\n", 1),                             # missing header
        ("# only a comment\n\n", 1),
        ("", 1),
        ("\n\nNORB x\n", 3),
        ("NORB 0\n", 1),
        ("NORB 2 3\n", 1),
        ("NORB 2\n0.1 1 3 1 1\nnan 1 1 1 1\n", 2),        # two faults
        ("NORB 2\nnan 1 3 1 1\n", 2),                     # non-finite first
        ("NORB 2\nnan 1 0 1 1\n", 2),
        ("NORB 2\n0.1 1 1 1 1\n0.2 1 1 1 1\n0.1 1 1\n", 3),
        ("NORB 2\n0.1 1 1\n0.1 1 1 1 1\n0.2 1 1 1 1\n", 2),
        ("NORB 2\n0.1 1 1 1 1\n0.1 9 1 1 1\n0.2 1 1 1 1\n", 3),
        ("NORB 2\r\n\r\n0.1 1 1 1\r\n", 3),             # \r\n endings
        ("NORB 2\r0.1 1 1 1 1\r0.1 1 1 1\r", 3),          # bare \r
        ("NORB 2\n0.1 1 1 1 1\x0c0.1 1 1 1\n", 3),         # form feed
        ("NORB 2\n0.1 1 1 1 1\u20280.1 1 1 1\n", 3),
        # a pair matrix past memory: the duplicate rule still runs first
        ("NORB 4106\n0.5 1 1 0 0\n0.7 1 1 0 0\n", 3),
    ])
    def test_fault_corpus(self, text, line):
        kind, at, message = assert_same_as_reference(text)
        assert issubclass(kind, ParseError)
        assert at == line

    def test_duplicate_rules(self):
        # h1/h2 keep their first value; the core energy its latest
        text = ("NORB 1\n0.5 0 0 0 0\n0.50000000008 0 0 0 0\n"
                "0.50000000016 0 0 0 0\n0.25 1 1 0 0\n0.25000000008 1 1 0 0\n")
        ints = parse_integrals(text)
        assert ints.core_energy == 0.50000000016
        assert ints.h1[0, 0] == 0.25
        assert_same_as_reference(text)
        # a difference of exactly DUPLICATE_TOL is still consistent
        edge = f"NORB 1\n0.0 1 1 1 1\n{DUPLICATE_TOL!r} 1 1 1 1\n"
        assert parse_integrals(edge).h2[0, 0, 0, 0] == 0.0
        with pytest.raises(ParseError, match=r"h1 record for \(1, 1\) "
                           r"\(previous at line 5\)"):
            parse_integrals(text + "0.25000000016 1 1 0 0\n")

    @pytest.mark.parametrize("text", [
        "NORB 2\n0.5 \u0661 1 0 0\n0.25 \uff12 2 1 1\n",  # non-ASCII digits
        "NORB 2\n0.5 01 +1 0 0\n0.25 2 2 1 1\n",
        # indices in the thousands
        f"NORB {4096 + 10}\n0.5 {4096 + 5} {4096 + 5} 0 0\n0.1 1 1\n",
    ])
    def test_index_tokens_outside_lookup_table(self, text):
        assert_same_as_reference(text)

    @pytest.mark.parametrize("text", [
        # tokens Python's float()/int() read and numpy's C reader refuses
        "NORB 12\n0.5 1_0 1 0 0\n0.25 2 2 1 1\n",
        "NORB 2\n0.5 1_0 1 0 0\n",
        "NORB 2\n1_0.5 1 1 1 1\n0.25 2 2 1 1\n",
        "NORB 2\n1_0.5 1 1 1 1\n2_0.5 1 1 1 1\n",
        "NORB 2\n0.5 \u0661 1 0 0\n",
        "NORB 2\n0.25 \uff12 2 1 1\n0.25 2 2 1 \uff13\n",
        # characters inside a line
        "NORB 2\n0.5\xa01 1 1 1\n0.25 2\xa02 1 1\n",
        "NORB 2\n0.5 1\x1f1 1 1\n",
        "NORB 2\n0.5 1 1 1 1\x00\n",
        "NORB 2\n0.5 1\x001 1 1\n",
        "NORB 2\n\x00\n",
        # indices a C integer reader refuses
        "NORB 2\n0.5 1.0 1 1 1\n",
        "NORB 2\n0.5 1 1e0 0 0\n",
        "NORB 2\n0.5 1 1 1 9223372036854775808\n",
        "NORB 2\n0.5 -9223372036854775809 1 1 1\n",
        # header only, header after comments, comments after the header only
        "NORB 2\n",
        "NORB 2",
        "# title\n\n# more\n  \t\nNORB 2\n0.5 1 1 1 1\n",
        "# title\n# more\nNORB 2\n",
        "NORB 2\n# a\n\n  # b 0.5 1 1 1 1\n",
    ])
    def test_token_gap_with_the_c_reader(self, text):
        assert_same_as_reference(text)

    def test_valid_files_never_take_the_line_path(self, monkeypatch):
        texts = [
            serialize_integrals(gen_synthetic(SyntheticSpec(n_orb=6, rank=21, seed=0))),
            "\n".join(_block_spanning_lines(8192 + 800)),
            "# title\n\nNORB 2\r\n0.5 +1 01 0 0  # c\r\n\t\n0.25 2 2 -0 0\r\n",
        ]
        expected = [_outcome(reference_parse_integrals, text) for text in texts]
        assert [outcome[0] for outcome in expected] == [6, 20, 2]  # all valid

        def refuse(*args):
            raise AssertionError("a valid file was read line by line")
        monkeypatch.setattr(ingest, "_read_lines", refuse)
        assert [_outcome(parse_integrals, text) for text in texts] == expected

    def test_every_class_as_random_images(self, monkeypatch):
        # all 253 classes of n_orb = 6, past integral_texts' n_orb <= 3: each
        # written 1-3 times as random ones of its images, values within
        # DUPLICATE_TOL, records shuffled; read by the C reader alone
        pairs = [(i, j) for i in range(1, 7) for j in range(1, i + 1)]
        classes = [*(p + (0, 0) for p in pairs),
                   *(a + b for x, a in enumerate(pairs) for b in pairs[:x + 1])]
        texts = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            records = []
            for key in classes:
                value = float(rng.standard_normal())
                images = _images(*key) if key[2] else [key, (key[1], key[0], 0, 0)]
                for _ in range(rng.integers(1, 4)):
                    i, j, k, l = images[rng.integers(len(images))]
                    jittered = value + float(rng.choice([0.0, 4e-11]))
                    records.append(f"{jittered!r} {i} {j} {k} {l}")
            lines = list(rng.permutation(records))
            # the core energy drifts copy by copy: each is checked against
            # the latest, so its third copy may be past DUPLICATE_TOL of its first
            core = float(rng.standard_normal())
            at = np.sort(rng.integers(0, len(lines) + 1, rng.integers(1, 4)))
            for copy, where in enumerate(at):
                lines.insert(where + copy, f"{core + 8e-11 * copy!r} 0 0 0 0")
            texts.append("\n".join(["NORB 6", *lines]))
        expected = [_outcome(reference_parse_integrals, text) for text in texts]
        assert {outcome[0] for outcome in expected} == {6}  # all valid

        def refuse(*args):
            raise AssertionError("a valid file was read line by line")
        monkeypatch.setattr(ingest, "_read_lines", refuse)
        assert [_outcome(parse_integrals, text) for text in texts] == expected

    def test_serialized_files_bit_identical(self):
        for seed in range(3):
            ints = gen_synthetic(SyntheticSpec(n_orb=4, rank=6, seed=seed))
            assert_same_as_reference(serialize_integrals(ints))


def _block_spanning_lines(n_records: int) -> list[str]:
    """Header plus ``n_records`` distinct h2 classes over 20 orbitals."""
    pairs = [(i, j) for i in range(1, 21) for j in range(1, i + 1)]
    classes = [a + b for x, a in enumerate(pairs) for b in pairs[:x + 1]]
    assert n_records <= len(classes)
    return ["NORB 20"] + [f"{0.001 * (t + 1)!r} {i} {j} {k} {l}"
                          for t, (i, j, k, l) in enumerate(classes[:n_records])]


class TestBlockBoundaries:
    BLOCK = 8192  # faults and conflicts sit thousands of lines into a file

    def _lines(self):
        return _block_spanning_lines(self.BLOCK + 800)

    def test_many_blocks_bit_identical(self):
        lines = self._lines()
        # consistent duplicates of first-block records, late in the file
        lines += ["0.001 1 1 1 1", "0.002 2 1 1 1", "0.002 1 1 1 2"]
        assert_same_as_reference("\n".join(lines))

    def test_fault_in_second_block(self):
        lines = self._lines()
        lines[self.BLOCK + 100] = "0.1 1 1 1"
        kind, line, _ = assert_same_as_reference("\n".join(lines) + "\n")
        assert line == self.BLOCK + 101

    def test_conflict_split_across_blocks(self):
        lines = self._lines()
        lines.insert(self.BLOCK + 50, "0.5 1 2 1 1")  # line 3 holds 0.002 2 1 1 1
        kind, line, message = assert_same_as_reference("\n".join(lines))
        assert line == self.BLOCK + 51
        assert message.endswith("(previous at line 3)")

    def test_earlier_conflict_beats_later_fault(self):
        lines = self._lines()
        lines.insert(self.BLOCK + 50, "0.5 1 2 1 1")
        lines[self.BLOCK + 60] = "0.1 1 1 x 1"
        _, line, _ = assert_same_as_reference("\n".join(lines))
        assert line == self.BLOCK + 51

    def test_earlier_fault_beats_later_conflict(self):
        lines = self._lines()
        lines.insert(self.BLOCK + 50, "0.5 1 2 1 1")
        lines[self.BLOCK - 10] = "0.1 1 99 1 1"
        _, line, _ = assert_same_as_reference("\n".join(lines))
        assert line == self.BLOCK - 9
