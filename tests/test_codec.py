"""Properties of the JSON codec: its one writer refuses NaN and infinity
wherever they sit and otherwise writes json's own bytes, the one-line
decomposition survives a round trip byte for byte, it and an indented one
load to the factorized arrays, shapes included, and a value of the wrong
JSON type in any field of a logical estimate or a config section exits 1
with its documented category."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dfqre import codec
from dfqre.cli import main
from dfqre.dfact import DFDecomposition, factorize, reconstruct
from dfqre.errors import NumericalError, ParseError
from dfqre.ingest import SyntheticSpec, gen_synthetic
from dfqre.physcost import QubitParams, estimate_physical

@dataclasses.dataclass(frozen=True)
class _Table:
    values: np.ndarray


@dataclasses.dataclass(frozen=True)
class _Report:
    label: str
    tables: tuple[_Table, ...]


@pytest.mark.parametrize("indent", [1, None])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("place, path", [
    (lambda x: x, "value"),
    (lambda x: {"a": {"b": x}}, "a.b"),
    (lambda x: [1.0, x], "[1]"),
    (lambda x: _Table(np.array([[0.5, x]])), "values[0][1]"),
], ids=["top-level", "nested-dict", "list", "ndarray-field"])
def test_writer_refuses_non_finite(place, path, bad, indent):
    with pytest.raises(NumericalError, match=re.escape(
            f"non-finite result {path} = {bad!r}, not a JSON number")):
        codec.dumps(place(bad), indent=indent)


def test_writer_names_first_non_finite_path():
    # a nested dataclass in a list: the first bad value in json's order
    bad = np.array([[0.5, -math.inf], [math.nan, 0.0]])
    report = _Report("x", (_Table(np.array([1.0, 2.0])), _Table(bad)))
    with pytest.raises(NumericalError) as caught:
        codec.dumps(report)
    assert str(caught.value) == ("non-finite result tables[1].values[0][1] "
                                 "= -inf, not a JSON number")


@pytest.mark.parametrize("doc", [
    factorize(gen_synthetic(SyntheticSpec(n_orb=3, rank=4, seed=2))),
    estimate_physical(4728, 117 * 10**12),
    {"rows": 47, "exponent": -0.0, "points": [1e-300, 2.5]},
    _Table(np.arange(6.0).reshape(2, 3)),
], ids=["decomposition", "physical", "dict", "ndarray-field"])
def test_writer_bytes_are_jsons(doc):
    assert codec.dumps(doc) == json.dumps(codec.encode(doc), indent=1)
    assert codec.dumps(doc, indent=None) == json.dumps(codec.encode(doc))


LOGICAL = {"n_orb": 4, "n_logical_qubits": 100, "t_count": 10**9,
           "qpe_steps": 10**6, "lambda": 5.0,
           "breakdown": {"t_per_step": {"total": 1000}}}
CONFIG = {
    "estimation": {"eps_total_energy": 2e-3, "error_budget": 0.02,
                   "budget_split": {"logical": 0.01, "t_states": 0.005,
                                    "rotations": 0.005},
                   "rotation_cost_coefficient": 3.0},
    "qubit_presets": {"slow": {"t_gate": 1e-7, "t_meas": 2e-7,
                               "p_gate": 5e-4, "p_meas": 5e-4}},
    "code": {"a_coeff": 0.03, "p_threshold": 0.01, "d_min": 3},
}
# the one field whose JSON null is a value: no split means equal thirds
NULLABLE = {("estimation", "budget_split")}


def _paths(doc, prefix=()):
    """Every key path of a JSON object, objects included."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    _get(doc, path[:-1])[path[-1]] = value
    return doc


def _is_valid_type(good, value, nullable):
    """Whether ``value`` has the JSON type of the field holding ``good``."""
    if value is None:
        return nullable
    if type(good) is float:
        return type(value) in (int, float)
    return type(value) is type(good)


JSON_VALUES = st.one_of(st.text(max_size=5), st.booleans(), st.none(),
                        st.integers(-10, 10**20), st.floats(),
                        st.lists(st.integers(), max_size=2),
                        st.dictionaries(st.text(max_size=3), st.integers(),
                                        max_size=1))
_fuzz = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _assert_rejected(tmp_path, capsys, doc, argv, category):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([arg.format(path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == category


@_fuzz
@given(data=st.data())
def test_mistyped_logical_field_is_parse_error(tmp_path, capsys, data):
    path = data.draw(st.sampled_from([(key,) for key in LOGICAL]))
    value = data.draw(JSON_VALUES.filter(
        lambda v: not _is_valid_type(_get(LOGICAL, path), v, False)))
    _assert_rejected(tmp_path, capsys, _replaced(LOGICAL, path, value),
                     ["estimate-physical", "--from-logical", "{}"], "parse")


CONFIG_ARGV = ["--config", "{}", "estimate-physical", "--qubits", "10",
               "--tcount", "100", "--preset", "slow"]


@_fuzz
@given(data=st.data())
def test_mistyped_config_field_is_invalid_input(tmp_path, capsys, data):
    path = data.draw(st.sampled_from(list(_paths(CONFIG))))
    value = data.draw(JSON_VALUES.filter(lambda v: not _is_valid_type(
        _get(CONFIG, path), v, path in NULLABLE)))
    _assert_rejected(tmp_path, capsys, _replaced(CONFIG, path, value),
                     CONFIG_ARGV, "invalid-input")


def test_fuzzed_documents_are_valid_unchanged(tmp_path, capsys):
    # the rejections above come from the mutated field alone
    logical, config = tmp_path / "logical.json", tmp_path / "config.json"
    logical.write_text(json.dumps(LOGICAL))
    config.write_text(json.dumps(CONFIG))
    assert main(["estimate-physical", "--from-logical", str(logical)]) == 0
    assert main([arg.format(config) for arg in CONFIG_ARGV]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("data, message", [
    ({"slow": {"t_gate": "x"}}, "doc.slow.t_gate must be float, got 'x'"),
    ({"slow": [1]}, "doc.slow must be a JSON object, got [1]"),
    ([{"t_gate": 1e-7}], "doc must be a JSON object, got [{'t_gate': 1e-07}]"),
])
def test_mistyped_dict_value_names_its_key(data, message):
    with pytest.raises(ParseError) as info:
        codec.decode(dict[str, QubitParams], data, "doc")
    assert str(info.value) == message


INTEGERS = pytest.mark.parametrize("data", [
    3, -7, 2**53 + 1, 2**1024 - 2**970 - 1, 2**1024 - 2**970, 10**400,
    -10**400], ids=["3", "-7", "2**53+1", "below-overflow", "overflow",
                    "10**400", "-10**400"])


@INTEGERS
def test_float_field_reads_integer_as_json_reads_float_literal(data):
    # past the float range an integer is the infinity json reads for the
    # same digits written with a fraction, not an int the checks miss
    got = codec.decode(float, data, "doc")
    assert type(got) is float
    assert repr(got) == repr(json.loads(f"{data}.0"))


@INTEGERS
@pytest.mark.parametrize("others", [[], [0.5], [2**70]],
                         ids=["alone", "with-float", "with-2**70"])
def test_array_entry_reads_integer_as_float_field(data, others):
    # an integer past int64 makes numpy build an object array: each entry
    # is still read as a float field reads it
    got = codec.decode(np.ndarray, [[data, *others]] * 2, "doc")
    assert got.dtype == float and got.shape == (2, 1 + len(others))
    want = [codec.decode(float, x, "doc") for x in (data, *others)]
    assert [repr(x) for x in got[1].tolist()] == [repr(x) for x in want]


@pytest.mark.parametrize("data", [
    [True], [0.5, True], [[0.5, 2.0], [False, 1.0]], [1, True], [2**70, True],
    [[1.0, None]], [0.5, "1"]])
def test_array_of_numbers_refuses_other_entries(data):
    # a bool reads 1 or 0 in numpy's array, so the array's dtype hides it
    with pytest.raises(ParseError, match="^doc must be an array of numbers"):
        codec.decode(np.ndarray, data, "doc")


@settings(max_examples=40, deadline=None)
@given(n_orb=st.integers(1, 5), data=st.data())
def test_decomposition_round_trip(n_orb, data):
    rank = data.draw(st.integers(0, n_orb * (n_orb + 1) // 2))
    spec = SyntheticSpec(n_orb=n_orb, rank=rank,
                         magnitude=data.draw(st.floats(1e-3, 1e3)),
                         seed=data.draw(st.integers(0, 2**32 - 1)))
    tol = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
    df = factorize(gen_synthetic(spec), data.draw(tol), data.draw(tol))
    text = df.dumps()
    assert "\n" not in text  # one line, whatever the leaf count
    new = DFDecomposition.loads(text)
    assert new.dumps() == text
    # the indented layout earlier versions wrote loads to the same arrays
    old = DFDecomposition.loads(json.dumps(codec.encode(df), indent=1))
    assert old.dumps() == text
    for loaded in (new, old):  # a leaf with no eigenpairs keeps its width
        pairs = [(loaded.h_bar, df.h_bar)]
        for x, y in zip(loaded.leaves, df.leaves, strict=True):
            pairs += [(x.eigvals, y.eigvals), (x.vecs, y.vecs)]
        for got, want in pairs:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert reconstruct(new).tobytes() == reconstruct(df).tobytes()
