import hashlib
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import dfqre
from dfqre.cli import main
from dfqre.dfact import factorize
from dfqre.ingest import SyntheticSpec, gen_synthetic, serialize_integrals


def strict_json(text: str):
    """``json.loads`` that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


WATER_XYZ = "3\nwater\nO 0.0 0.0 0.0\nH 0.9572 0.0 0.0\nH -0.2399872 0.9266272 0.0\n"


def _run_module(*argv):
    """``python -m dfqre.cli *argv``, as the console script runs it, with
    this package first on the path."""
    src = str(Path(dfqre.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "dfqre.cli", *argv],
                          capture_output=True, text=True, env=env)


@pytest.fixture
def integral_file(tmp_path):
    ints = gen_synthetic(SyntheticSpec(n_orb=3, rank=4, seed=2))
    path = tmp_path / "mol.ints"
    path.write_text(serialize_integrals(ints))
    return path


def test_public_names():
    # the two estimates, their parameter types, and the chain around them;
    # the inner cost steps are private to their modules
    assert sorted(dfqre.__all__) == [
        "Atom", "BudgetSplit", "CodeParams", "DFDecomposition", "DFLeaf",
        "DimerEnergy", "EstimationConfig", "FactoryDesign",
        "FragmentEnergyLedger", "Geometry", "IntegralSet", "LogicalEstimate",
        "PhysicalEstimate", "QubitParams", "ReportRow", "SyntheticSpec",
        "binding_affinity", "choose_tolerances", "estimate_logical",
        "estimate_physical", "factorize", "fit_scaling", "fmo_assemble",
        "gen_synthetic", "get_preset", "lambda_norms", "load_reference_table",
        "parse_integrals", "parse_xyz", "qpe_energy_offset", "reconstruct",
        "reproduce_table", "serialize_xyz"]
    assert all(hasattr(dfqre, name) for name in dfqre.__all__)


def test_parse_xyz_round_trip(tmp_path, capsys):
    path = tmp_path / "w.xyz"
    path.write_text(WATER_XYZ)
    assert main(["parse-xyz", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "3"
    assert "O 0.0 0.0 0.0" in out


def test_parse_xyz_json(tmp_path, capsys):
    path = tmp_path / "w.xyz"
    path.write_text(WATER_XYZ)
    assert main(["parse-xyz", str(path), "--json"]) == 0
    data = strict_json(capsys.readouterr().out)
    assert data["label"] == "water"
    assert len(data["atoms"]) == 3


def test_parse_error_reports_category(tmp_path, capsys):
    path = tmp_path / "bad.xyz"
    path.write_text("Zz 0 0 0\n")
    assert main(["parse-xyz", str(path)]) == 1
    err = strict_json(capsys.readouterr().err)
    assert err["error"] == "parse"


def test_full_estimation_chain(tmp_path, integral_file, capsys):
    df_path = tmp_path / "df.json"
    assert main(["factorize", str(integral_file), "--eps", "1e-3",
                 "-o", str(df_path)]) == 0
    capsys.readouterr()

    logical_path = tmp_path / "logical.json"
    assert main(["estimate-logical", str(df_path), "--eps", "1e-3",
                 "-o", str(logical_path)]) == 0
    logical = strict_json(logical_path.read_text())
    assert logical["t_count"] > 0
    capsys.readouterr()

    assert main(["estimate-physical", "--from-logical", str(logical_path),
                 "--preset", "qubit_gate_ns_e4"]) == 0
    physical = strict_json(capsys.readouterr().out)
    assert physical["n_physical_qubits"] == \
        physical["tiles"] * 2 * physical["distance"] ** 2 \
        + physical["factory_qubits_total"]


def test_estimate_physical_direct_args(capsys):
    assert main(["estimate-physical", "--qubits", "661",
                 "--tcount", "4.00e10"]) == 0
    data = strict_json(capsys.readouterr().out)
    assert data["distance"] == 15
    assert data["n_factories"] == 15


def test_estimate_physical_requires_inputs(capsys):
    assert main(["estimate-physical"]) == 1
    err = strict_json(capsys.readouterr().err)
    assert err["error"] == "invalid-input"


def test_reproduce_table_default_fixture(capsys, tmp_path):
    out_csv = tmp_path / "cmp.csv"
    assert main(["reproduce-table", "--csv", str(out_csv)]) == 0
    out = capsys.readouterr().out
    summary = strict_json(out.strip().splitlines()[-1])
    assert summary["rows"] == 47
    assert summary["distance_exact"] >= 45
    assert out_csv.exists()


def test_fit_scaling_cli(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text("n_orb,t_count\n10,1e5\n100,1e10\n")
    assert main(["fit-scaling", str(path)]) == 0
    data = strict_json(capsys.readouterr().out)
    assert data["exponent"] == pytest.approx(5.0, abs=1e-9)


def test_fmo_assemble_cli(tmp_path, capsys):
    ledger = {"monomers": {"A": -1.0, "B": -2.0},
              "dimers": [{"pair": ["A", "B"], "energy": -3.5}]}
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(ledger))
    assert main(["fmo-assemble", str(path)]) == 0
    data = strict_json(capsys.readouterr().out)
    assert data["total_energy_hartree"] == pytest.approx(-3.5, abs=1e-12)

    # integer energies are read as floats, so the total prints as one
    path.write_text(json.dumps({"monomers": {"A": -1, "B": -2}}))
    assert main(["fmo-assemble", str(path)]) == 0
    assert capsys.readouterr().out == '{"total_energy_hartree": -3.0}\n'

    # no fragments: a float total too
    path.write_text("{}")
    assert main(["fmo-assemble", str(path)]) == 0
    assert capsys.readouterr().out == '{"total_energy_hartree": 0.0}\n'

    # a total past the float range is no JSON number, and is named
    path.write_text(json.dumps({"monomers": {"A": 1e308, "B": 1e308}}))
    assert main(["fmo-assemble", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = strict_json(captured.err)
    assert err["error"] == "numerical"
    assert "total_energy_hartree = inf" in err["message"]


def test_binding_affinity_cli(capsys):
    assert main(["binding-affinity", "-10.5", "-9", "-1"]) == 0
    data = strict_json(capsys.readouterr().out)
    assert data["delta_e_hartree"] == pytest.approx(-0.5)
    assert data["delta_e_kj_per_mol"] == pytest.approx(-1312.7498)

    # argparse reads "-1.5e2" as an option unless "--" precedes it
    assert main(["binding-affinity", "--", "-1.5e2", "0", "0"]) == 0
    assert strict_json(capsys.readouterr().out)["delta_e_hartree"] == -150.0

    # finite Hartree, but past the float range in kJ/mol, named
    assert main(["binding-affinity", "1e306", "0", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = strict_json(captured.err)
    assert err["error"] == "numerical"
    assert "delta_e_kj_per_mol = inf" in err["message"]


def test_config_file_and_env(tmp_path, capsys, monkeypatch, integral_file):
    config = {"estimation": {"eps_total_energy": 2e-3}}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    df_path = tmp_path / "df.json"
    main(["factorize", str(integral_file), "-o", str(df_path)])
    capsys.readouterr()

    assert main(["--config", str(config_path),
                 "estimate-logical", str(df_path)]) == 0
    loose = strict_json(capsys.readouterr().out)

    monkeypatch.setenv("DFQRE_CONFIG", str(config_path))
    assert main(["estimate-logical", str(df_path)]) == 0
    via_env = strict_json(capsys.readouterr().out)
    assert via_env["t_count"] == loose["t_count"]

    monkeypatch.delenv("DFQRE_CONFIG")
    assert main(["estimate-logical", str(df_path)]) == 0
    default = strict_json(capsys.readouterr().out)
    assert default["t_count"] > loose["t_count"]  # tighter default accuracy


def test_missing_file_io_error(capsys):
    assert main(["parse-xyz", "/nonexistent/file.xyz"]) == 1
    err = strict_json(capsys.readouterr().err)
    assert err["error"] == "io"


def test_custom_qubit_preset_from_config(tmp_path, capsys):
    # slower, noisier hardware defined entirely in the config file
    config = {"qubit_presets": {"slow": {
        "t_gate": 1e-7, "t_meas": 2e-7, "p_gate": 5e-4, "p_meas": 5e-4}}}
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(config))
    assert main(["--config", str(config_path), "estimate-physical",
                 "--qubits", "661", "--tcount", "4.00e10",
                 "--preset", "slow"]) == 0
    custom = strict_json(capsys.readouterr().out)
    assert main(["estimate-physical", "--qubits", "661",
                 "--tcount", "4.00e10"]) == 0
    default = strict_json(capsys.readouterr().out)
    assert custom["distance"] > default["distance"]
    assert custom["runtime_s"] > default["runtime_s"]


def test_unknown_preset_reports_category(capsys):
    assert main(["estimate-physical", "--qubits", "10", "--tcount", "100",
                 "--preset", "nope"]) == 1
    err = strict_json(capsys.readouterr().err)
    assert err["error"] == "invalid-input"


def test_reproduce_table_explicit_fixture(tmp_path, capsys):
    bundled = resources.files("dfqre.data").joinpath(
        "ab16_resource_table.csv").read_text()
    fixture = tmp_path / "table.csv"
    fixture.write_text(bundled)
    assert main(["reproduce-table", str(fixture)]) == 0
    summary = strict_json(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["rows"] == 47


def test_estimate_physical_budget_knob(capsys):
    # a 3x looser budget relaxes the selected code distance
    assert main(["estimate-physical", "--qubits", "1290",
                 "--tcount", "6.20e11"]) == 0
    tight = strict_json(capsys.readouterr().out)
    assert main(["estimate-physical", "--qubits", "1290",
                 "--tcount", "6.20e11", "--budget", "0.03"]) == 0
    loose = strict_json(capsys.readouterr().out)
    assert tight["distance"] == 17
    assert loose["distance"] == 15


def test_repeated_runs_byte_identical(tmp_path, capsys, integral_file):
    outputs = []
    for _ in range(2):
        assert main(["reproduce-table"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]

    df_texts = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert main(["factorize", str(integral_file), "--eps", "1e-3",
                     "-o", str(path)]) == 0
        capsys.readouterr()
        df_texts.append(path.read_text())
    assert df_texts[0] == df_texts[1]


def test_tcount_parsed_exactly(capsys):
    # 2**53 + 1 is the first integer a float cannot hold
    assert main(["estimate-physical", "--qubits", "10",
                 "--tcount", str(2**53 + 1)]) == 0
    assert strict_json(capsys.readouterr().out)["cycles"] == 2**53 + 1
    assert main(["estimate-physical", "--qubits", "10",
                 "--tcount", "1.17e14"]) == 0
    assert strict_json(capsys.readouterr().out)["cycles"] == 117 * 10**12


# an integer literal past the float range is read exactly (it saturates
# the distance search instead); a float literal past it is inf
@pytest.mark.parametrize("tcount", ["nan", "inf", "-inf", "1.5", "abc", "",
                                    "1e400"])
def test_tcount_rejects_non_integers(tcount, capsys):
    assert main(["estimate-physical", "--qubits", "10",
                 f"--tcount={tcount}"]) == 1
    err = strict_json(capsys.readouterr().err)
    assert err["error"] == "invalid-input"


def test_factorize_eps_runs_one_pair_eigendecomposition(
        tmp_path, integral_file, capsys, monkeypatch):
    pair_dim = 3 * 4 // 2  # the fixture has n_orb = 3
    pair_calls = []

    def counting(name, solver):
        def wrapped(a, *args, **kwargs):
            if a.shape == (pair_dim, pair_dim):
                pair_calls.append(name)
            return solver(a, *args, **kwargs)
        return wrapped

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name,
                            counting(name, getattr(np.linalg, name)))
    assert main(["factorize", str(integral_file), "--eps", "1e-3",
                 "-o", str(tmp_path / "df.json")]) == 0
    assert pair_calls == ["eigh"]


@pytest.mark.parametrize("flags, message", [
    (["--eps=0"], "eps_target must be positive"),
    (["--eps=nan"], "eps_target must be positive"),
    (["--eps=-1e-3"], "eps_target must be positive"),
    (["--eps=1e-3", "--tol-first=0"],
     "--eps excludes --tol-first/--tol-second"),
    (["--eps=1e-3", "--tol-second=1e-4"],
     "--eps excludes --tol-first/--tol-second"),
    # refused where they enter factorize, before any eigh
    (["--eps=inf"], "eps_target must be finite"),
    (["--tol-first=inf"], "tolerances must be non-negative and finite"),
    (["--tol-second=inf"], "tolerances must be non-negative and finite"),
])
def test_factorize_bad_eps_reports_invalid_input(integral_file, capsys,
                                                 flags, message):
    assert main(["factorize", str(integral_file), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert strict_json(captured.err) == {"error": "invalid-input",
                                        "message": message}


def test_estimate_logical_refuses_bound_past_half_eps(tmp_path, capsys):
    """A decomposition truncated past half the energy budget is refused,
    not priced; at a budget it fits, the same file is priced."""
    ints, df_path = tmp_path / "m.ints", tmp_path / "df.json"
    ints.write_text(serialize_integrals(gen_synthetic(
        SyntheticSpec(n_orb=3, rank=6, seed=2))))
    assert main(["factorize", str(ints), "--tol-first", "0.3",
                 "--tol-second", "0.3", "-o", str(df_path)]) == 0
    bound = strict_json(df_path.read_text())["truncation_bound"]
    assert 0.5 < bound < 1.0
    capsys.readouterr()
    assert main(["estimate-logical", str(df_path), "--eps", "1e-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert strict_json(captured.err) == {
        "error": "invalid-input",
        "message": f"truncation_bound {bound:g} exceeds half of --eps 0.001"}
    assert main(["estimate-logical", str(df_path), "--eps", "2"]) == 0


# finite integrals whose factorization leaves the float range: h_bar, the
# truncation bound, or the weighted pair matrix before its eigh
OVERFLOWING_INTEGRALS = {
    "h-bar": ("NORB 1\n1.5e308 1 1 0 0\n-1.5e308 1 1 1 1\n",
              "h_bar past the float range"),
    "bound": ("NORB 2\n1e300 1 2 1 2\n1.7e308 1 1 1 1\n",
              "truncation_bound past the float range"),
    "pairs": ("NORB 2\n1e308 1 2 1 2\n", "non-finite stage-1 eigenvalues"),
}


@pytest.mark.parametrize("text, message", OVERFLOWING_INTEGRALS.values(),
                         ids=OVERFLOWING_INTEGRALS)
def test_factorize_overflow_reports_numerical(tmp_path, capsys, text,
                                              message):
    path = tmp_path / "big.ints"
    path.write_text(text)
    assert main(["factorize", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert strict_json(captured.err) == {"error": "numerical",
                                        "message": message}


def test_factorize_overflow_writes_one_stderr_line(tmp_path):
    """Through ``python -m dfqre.cli``: no numpy warning joins the record."""
    path = tmp_path / "big.ints"
    path.write_text(OVERFLOWING_INTEGRALS["h-bar"][0])
    proc = _run_module("factorize", str(path))
    assert proc.returncode == 1 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert strict_json(proc.stderr)["error"] == "numerical"


def _decomposition_dict(tmp_path, integral_file, capsys):
    df_path = tmp_path / "df.json"
    assert main(["factorize", str(integral_file), "-o", str(df_path)]) == 0
    capsys.readouterr()
    return strict_json(df_path.read_text())


def _h_bar_pair(d, value):
    """JSON text of decomposition ``d`` with h_bar[0][1] = h_bar[1][0] =
    ``value``."""
    h_bar = [list(row) for row in d["h_bar"]]
    h_bar[0][1] = h_bar[1][0] = value
    return json.dumps(dict(d, h_bar=h_bar))


def _first_leaf(d, **fields):
    """JSON text of decomposition ``d`` with ``fields`` of its first leaf
    replaced."""
    leaf = dict(d["leaves"][0], **fields)
    return json.dumps(dict(d, leaves=[leaf, *d["leaves"][1:]]))


@pytest.mark.parametrize("corrupt, category", [
    (lambda d: "{not json", "parse"),
    (lambda d: "", "parse"),
    (lambda d: json.dumps([1, 2]), "parse"),
    (lambda d: json.dumps({k: v for k, v in d.items() if k != "leaves"}),
     "parse"),
    (lambda d: json.dumps({k: v for k, v in d.items() if k != "n_orb"}),
     "parse"),
    (lambda d: json.dumps(dict(d, leaves=[{"index": 0}])), "parse"),
    (lambda d: json.dumps(dict(d, leaves=[
        dict(leaf, vecs=[row + [0.0] for row in leaf["vecs"]])
        for leaf in d["leaves"]])), "invalid-input"),
    # an array entry follows the float-field rule: a bool is no number, and
    # an integer is read as the float json reads for its digits
    pytest.param(lambda d: _h_bar_pair(d, True), "parse", id="h-bar-true"),
    pytest.param(lambda d: _first_leaf(
        d, eigvals=[True, *d["leaves"][0]["eigvals"][1:]]), "parse",
        id="eigvals-true"),
    pytest.param(lambda d: _first_leaf(
        d, eigvals=[True] * len(d["leaves"][0]["eigvals"])), "parse",
        id="eigvals-all-true"),
    pytest.param(lambda d: _first_leaf(d, weight=True), "parse",
                 id="weight-true"),
    pytest.param(lambda d: _h_bar_pair(d, 10**400), "invalid-input",
                 id="h-bar-401-digits"),  # refused as 1e400 is
    pytest.param(lambda d: _h_bar_pair(d, "1e400"), "parse",
                 id="h-bar-string"),
    pytest.param(lambda d: _first_leaf(d, vecs=[
        [2**70] * len(row) for row in d["leaves"][0]["vecs"]]),
        "invalid-input", id="vecs-2**70"),  # read, but not orthonormal
])
def test_bad_decomposition_reports_category(tmp_path, integral_file, capsys,
                                            corrupt, category):
    path = tmp_path / "bad.json"
    path.write_text(corrupt(_decomposition_dict(tmp_path, integral_file,
                                                capsys)))
    assert main(["estimate-logical", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert strict_json(captured.err)["error"] == category


def test_integer_past_int64_in_array_is_priced_as_float(tmp_path,
                                                       integral_file, capsys):
    d = _decomposition_dict(tmp_path, integral_file, capsys)
    path = tmp_path / "big.json"
    outputs = []
    for value in (2**70, float(2**70)):
        path.write_text(_h_bar_pair(d, value))
        assert main(["estimate-logical", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_estimate_physical_golden_stdout(capsys):
    assert main(["estimate-physical", "--qubits", "4728",
                 "--tcount", "1.17e14"]) == 0
    assert capsys.readouterr().out == """\
{
 "distance": 19,
 "tiles": 9652,
 "n_factories": 12,
 "factory_qubits_total": 194400,
 "n_physical_qubits": 7163144,
 "runtime_s": 889200000.0,
 "cycles": 117000000000000,
 "factory": {
  "rounds": 2,
  "stage_distances": [
   7,
   15
  ],
  "qubits_per_factory": 16200,
  "duration_s": 8.640000000000001e-05,
  "output_error": 1.500625000000001e-30
 }
}
"""


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# Byte goldens of the CLI chain (factorize -> estimate-logical ->
# estimate-physical) on two synthetic inputs: a truncated one with
# --eps 1e-3 and an exact full-rank one. Columns: decomposition, logical
# and physical JSON sha256, then the factorize stderr.
CHAIN_GOLDENS = [
    (SyntheticSpec(n_orb=8, rank=16, seed=1), ["--eps", "1e-3"],
     "60a917b2e01eaee845e04289ee679575930d6eb4c17b4db16f83416f5002f3b4",
     "bcbc6edd459f3cbb53ed43165a3ee3b56b1ffd3c6e28dbc559aa6a7b10b7f2a2",
     "a799dd5adb23081073d61f23ddcb7fd7add068afe7e161ca48b07f0cdecc6eb4",
     "# leaves=16 total_eigs=128 lambda_T=12.262109879505303 "
     "lambda_V=34.53928092326822 lambda=46.801390802773525\n"),
    (SyntheticSpec(n_orb=6, rank=21, seed=2), [],
     "8fb1f939fa163bf779b52f0dcf83ed12d8da46cf8e7dc16e07717ce145aa655d",
     "29c1af1a285b169a30467185677951dbfe84862a4e8ad38692f270010e1ea679",
     "4535d6986e94a7abe18ed54c48683fb7fa3ba4482bbe2a6dbe3fc8f71751fbca",
     "# leaves=21 total_eigs=126 lambda_T=9.469704729458723 "
     "lambda_V=27.970682642245894 lambda=37.44038737170462\n"),
]


@pytest.mark.parametrize("spec, flags, df_sha, logical_sha, physical_sha, "
                         "stderr", CHAIN_GOLDENS,
                         ids=["eps-1e-3", "full-rank"])
def test_chain_golden_bytes(tmp_path, capsys, spec, flags, df_sha,
                            logical_sha, physical_sha, stderr):
    ints = tmp_path / "mol.ints"
    ints.write_text(serialize_integrals(gen_synthetic(spec)))
    df_path, logical_path = tmp_path / "df.json", tmp_path / "logical.json"
    assert main(["factorize", str(ints), *flags, "-o", str(df_path)]) == 0
    assert capsys.readouterr().err == stderr
    assert _sha256(df_path.read_text()) == df_sha
    assert main(["estimate-logical", str(df_path),
                 "-o", str(logical_path)]) == 0
    assert _sha256(logical_path.read_text()) == logical_sha
    assert main(["estimate-physical", "--from-logical",
                 str(logical_path)]) == 0
    assert _sha256(capsys.readouterr().out) == physical_sha


def test_parse_xyz_json_golden_bytes(capsys):
    path = resources.files("dfqre.data").joinpath(
        "geometries").joinpath("fragment_01.xyz")
    assert main(["parse-xyz", str(path), "--json"]) == 0
    out = capsys.readouterr().out
    assert (len(out), _sha256(out)) == (
        1057, "d1d347dc751c37f420e10b93ca203621f91f7fe9e197ad38dfa0daef1257f87d")


# Byte goldens of the reproduce-table stdout, whose rows print every
# derived comparison (distance match, both relative errors, factory
# difference): at the defaults, and at a tighter budget that misses 16 rows.
@pytest.mark.parametrize("config, size, sha, mismatches", [
    ({}, 2561,
     "4a4f5729158313ae8798ddf92378346ad1dbd4899b02b221b76032e7b724961a", 0),
    ({"estimation": {"error_budget": 0.001}}, 2689,
     "d6c74f3ad54bd1519c53c1a06e56d1497b861cf6ad16a65c1a87b2ca4084d604", 16),
], ids=["defaults", "budget-1e-3"])
def test_reproduce_table_stdout_golden_bytes(tmp_path, capsys, config, size,
                                             sha, mismatches):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path), "reproduce-table"]) == 0
    out = capsys.readouterr().out
    assert out.count(" MISMATCH\n") == mismatches
    assert (len(out), _sha256(out)) == (size, sha)


LOGICAL = {"n_orb": 4, "n_logical_qubits": 100, "t_count": 10**9,
           "qpe_steps": 10**6, "lambda": 5.0}
LEDGER = {"monomers": {"A": -1.0, "B": -2.0}}
SMALL_DF = factorize(gen_synthetic(SyntheticSpec(n_orb=2, rank=3, seed=1)),
                     0.0, 0.0).dumps()


def _small_df(*path, value):
    """SMALL_DF with the item at ``path`` (keys and list indices) replaced."""
    data = json.loads(SMALL_DF)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return json.dumps(data)


LOGICAL_DF = ["--config", "{}", "estimate-logical", "{df}"]
PHYSICAL_X = ["--config", "{}", "estimate-physical", "--qubits", "100",
              "--tcount", "1000000", "--preset", "x"]


@pytest.mark.parametrize("name, text, argv, category", [
    ("config", json.dumps({"estimation": {"eps": 1e-3}}),
     ["--config", "{}", "reproduce-table"], "invalid-input"),
    ("config", json.dumps({"code": {"d_min": 3, "distance": 5}}),
     ["--config", "{}", "reproduce-table"], "invalid-input"),
    ("config", json.dumps({"estimations": {}}),
     ["--config", "{}", "reproduce-table"], "invalid-input"),
    ("config", json.dumps({"qubit_presets": {"slow": {"t_gate": 1e-7,
                                                      "gate_time": 1e-7}}}),
     ["--config", "{}", "reproduce-table"], "invalid-input"),
    ("config", json.dumps({"estimation": {"budget_split": {
        "logical": 0.005, "t_states": 0.005}}}),
     ["--config", "{}", "reproduce-table"], "invalid-input"),
    ("config", json.dumps({"code": {"d_min": "3"}}),
     ["--config", "{}", "reproduce-table"], "invalid-input"),
    ("config", json.dumps({"code": {"d_min": 3.0}}),
     ["--config", "{}", "reproduce-table"], "invalid-input"),
    ("config", json.dumps({"qubit_presets": [1]}),
     ["--config", "{}", "reproduce-table"], "invalid-input"),
    ("config", "{not json", ["--config", "{}", "reproduce-table"], "parse"),
    ("config", json.dumps([1, 2]), ["--config", "{}", "reproduce-table"],
     "invalid-input"),
    ("logical", "{not json", ["estimate-physical", "--from-logical", "{}"],
     "parse"),
    ("logical", json.dumps({k: v for k, v in LOGICAL.items()
                            if k != "t_count"}),
     ["estimate-physical", "--from-logical", "{}"], "parse"),
    ("logical", json.dumps([1, 2]),
     ["estimate-physical", "--from-logical", "{}"], "parse"),
    ("ledger", "monomers: A", ["fmo-assemble", "{}"], "parse"),
    ("ledger", json.dumps({"monomers": {"A": -1.0},
                           "dimers": [{"pair": ["A", "A"]}]}),
     ["fmo-assemble", "{}"], "parse"),
    ("logical", json.dumps(dict(LOGICAL, n_logical_qubits="100")),
     ["estimate-physical", "--from-logical", "{}"], "parse"),
    ("config", json.dumps({"qubit_presets": {"slow": {"name": "x"}}}),
     ["--config", "{}", "reproduce-table"], "invalid-input"),
    ("ledger", json.dumps(dict(LEDGER, dimers=[{"pair": ["A"],
                                                "energy": -3.0}])),
     ["fmo-assemble", "{}"], "invalid-input"),
    ("ledger", json.dumps({"monomers": {"A": -1.0, "B": -2.0, "C": -0.5},
                           "dimers": [{"pair": ["A", "B", "C"],
                                       "energy": -3.0}]}),
     ["fmo-assemble", "{}"], "invalid-input"),
    ("ledger", json.dumps({"monomers": {"A": "-1"}}), ["fmo-assemble", "{}"],
     "parse"),
    ("ledger", json.dumps({"monomers": {"A": True}}), ["fmo-assemble", "{}"],
     "parse"),
    ("ledger", json.dumps({"monomers": {"A": float("nan")}}),
     ["fmo-assemble", "{}"], "invalid-input"),
    ("ledger", json.dumps(dict(LEDGER, dimers=[{"pair": ["A", "B"],
                                                "energy": float("nan")}])),
     ["fmo-assemble", "{}"], "invalid-input"),
    ("ledger", json.dumps(dict(LEDGER, bogus=[])), ["fmo-assemble", "{}"],
     "parse"),
    # cost parameters whose arithmetic leaves the float range
    ("config", json.dumps({"qubit_presets": {"x": {"t_gate": 1e300}}}),
     PHYSICAL_X, "invalid-input"),
    ("config", json.dumps({"qubit_presets": {"x": {"t_gate": float("inf")}}}),
     PHYSICAL_X, "invalid-input"),
    ("config", json.dumps({"qubit_presets": {"x": {"t_meas": 1e299}}}),
     ["--config", "{}", "reproduce-table", "--preset", "x"], "invalid-input"),
    ("config", json.dumps({"estimation": {
        "rotation_cost_coefficient": float("inf")}}), LOGICAL_DF,
     "invalid-input"),
    ("config", json.dumps({"estimation": {"rotation_cost_coefficient": 1e308}}),
     LOGICAL_DF, "invalid-input"),
    ("config", "{}", [*LOGICAL_DF, "--eps", "1e-320"], "invalid-input"),
    ("config", "{}", [*LOGICAL_DF, "--budget", "1e-320"], "invalid-input"),
    ("config", json.dumps({"estimation": {"eps_total_energy": float("inf")}}),
     LOGICAL_DF, "invalid-input"),
    # a runtime, then a factory duration, past the float range
    ("config", json.dumps({"qubit_presets": {"x": {"t_gate": 1e285}}}),
     ["--config", "{}", "estimate-physical", "--qubits", "100", "--tcount",
      "1e25", "--preset", "x"], "invalid-input"),
    ("config", json.dumps({"qubit_presets": {"x": {"t_gate": 1e292}}}),
     PHYSICAL_X, "invalid-input"),
    # non-finite decomposition values, and tolerances below 0 or NaN
    ("decomposition", _small_df("leaves", 0, "eigvals", 0, value=math.nan),
     ["estimate-logical", "{}"], "invalid-input"),
    ("decomposition", _small_df("leaves", 0, "weight", value=math.nan),
     ["estimate-logical", "{}"], "invalid-input"),
    ("decomposition", _small_df("leaves", 0, "vecs", 0, 0, value=math.nan),
     ["estimate-logical", "{}"], "invalid-input"),
    ("decomposition", _small_df("h_bar", 0, 0, value=math.nan),
     ["estimate-logical", "{}"], "invalid-input"),
    ("decomposition", _small_df("core_energy", value=-math.inf),
     ["estimate-logical", "{}"], "invalid-input"),
    ("decomposition", _small_df("tol_first", value=-1e-3),
     ["estimate-logical", "{}"], "invalid-input"),
    ("decomposition", _small_df("truncation_bound", value=math.nan),
     ["estimate-logical", "{}"], "invalid-input"),
    # read as inf: a value the decomposition could never write back
    ("decomposition", _small_df("tol_first", value=math.inf),
     ["estimate-logical", "{}"], "invalid-input"),
    # a leaf one-norm whose square is past the float range (OverflowError
    # before): lambda is infinite at weight 1, NaN at weight 0
    *[("decomposition", _small_df("leaves", 0, value={
        "index": 0, "weight": weight, "eigvals": [1e200],
        "vecs": [[1.0, 0.0]]}), ["estimate-logical", "{}"], "invalid-input")
      for weight in (1.0, 0.0)],
])
def test_bad_json_input_reports_category(tmp_path, capsys, name, text, argv,
                                         category):
    path, df_path = tmp_path / f"{name}.json", tmp_path / "df.json"
    path.write_text(text)
    df_path.write_text(SMALL_DF)
    assert main([arg.format(path, df=df_path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = strict_json(captured.err)
    assert err["error"] == category
    # no document knows a key "bogus"; where one holds it, the message names it
    assert ("'bogus'" in err["message"]) == ('"bogus"' in text)


@pytest.mark.parametrize("text, argv, category, message", [
    ("", ["estimate-physical", "--qubits", "10", "--tcount", "-5"],
     "invalid-input", "t_count must be non-negative"),
    (json.dumps({"code": {"d_min": 4}}), ["--config", "{}", "reproduce-table"],
     "invalid-input", "d_min must be a positive odd integer"),
    (json.dumps({"code": {"a_coeff": 0}}),
     ["--config", "{}", "reproduce-table"], "invalid-input",
     "a_coeff must be positive"),
    # an infinite constant is refused where it enters, not priced
    (json.dumps({"code": {"a_coeff": 10**400}}),
     ["--config", "{}", "estimate-physical", "--qubits", "4728", "--tcount",
      "1.17e14"], "invalid-input", "a_coeff must be finite"),
    (json.dumps({"code": {"p_threshold": 1}}),
     ["--config", "{}", "reproduce-table"], "invalid-input",
     "p_threshold must lie in (0, 1)"),
    (json.dumps({"qubit_presets": {"x": {"p_gate": 1.0}}}), PHYSICAL_X,
     "invalid-input", "p_gate must lie in [0, 1), got 1.0"),
    (json.dumps({"estimation": {"error_budget": 1}}), LOGICAL_DF,
     "invalid-input", "error_budget must lie in (0, 1)"),
    (json.dumps({"estimation": {"rotation_cost_coefficient": 0}}), LOGICAL_DF,
     "invalid-input", "rotation_cost_coefficient must be positive"),
    ('{"estimation": {"rotation_cost_coefficient": Infinity}}',
     ["--config", "{}", "reproduce-table"], "invalid-input",
     "rotation_cost_coefficient must be finite"),
    (json.dumps({"estimation": {"budget_split": {
        "logical": 0.005, "t_states": -0.001, "rotations": 0.006}}}),
     LOGICAL_DF, "invalid-input", "budget share t_states must be >= 0"),
    (json.dumps(dict(LOGICAL, t_count=-1)),
     ["estimate-physical", "--from-logical", "{}"], "invalid-input",
     "counts must be non-negative"),
    (json.dumps(dict(LOGICAL, t_count=10, qpe_steps=100)),
     ["estimate-physical", "--from-logical", "{}"], "invalid-input",
     "t_count below one T per walk step"),
    (_small_df("h_bar", value=[[0.0] * 3] * 2), ["estimate-logical", "{}"],
     "invalid-input", "h_bar shape mismatch"),
    (_small_df("h_bar", value=[[0.0, 1e-9], [0.0, 0.0]]),
     ["estimate-logical", "{}"], "invalid-input",
     "h_bar is not symmetric within 1e-12"),
    (json.dumps(dict(json.loads(SMALL_DF), n_orb=1, h_bar=[[0.0]], leaves=[
        {"index": i, "weight": 1.0, "eigvals": [1.0], "vecs": [[1.0]]}
        for i in (0, 1)])), ["estimate-logical", "{}"], "invalid-input",
     "more leaves than pair-matrix dimension"),
    # leaf arrays of the wrong rank: a column of eigenvalues, 3-D vectors
    (_small_df("leaves", 1, value={"index": 1, "weight": 1.0,
                                   "eigvals": [[0.5], [-0.25]],
                                   "vecs": [[1.0, 0.0], [0.0, 1.0]]}),
     ["estimate-logical", "{}"], "invalid-input",
     "leaf 1 has eigvals (2, 1) and vecs (2, 2), not shapes (k,) and (k, 2)"),
    (_small_df("leaves", 1, value={"index": 1, "weight": 1.0,
                                   "eigvals": [0.5, -0.25],
                                   "vecs": [[[1.0], [0.0]], [[0.0], [1.0]]]}),
     ["estimate-logical", "{}"], "invalid-input",
     "leaf 1 has eigvals (2,) and vecs (2, 2, 1), not shapes (k,) and (k, 2)"),
    # a float field given as an integer past the float range is refused as
    # the same value written 1e400, which json reads as inf
    (_small_df("core_energy", value=10**400), ["estimate-logical", "{}"],
     "invalid-input", "h_bar and core_energy must be finite"),
    (_small_df("truncation_bound", value=10**400), ["estimate-logical", "{}"],
     "invalid-input",
     "tolerances and truncation_bound must be non-negative and finite"),
    (_small_df("tol_first", value=10**400), ["estimate-logical", "{}"],
     "invalid-input",
     "tolerances and truncation_bound must be non-negative and finite"),
    (_small_df("leaves", 0, "weight", value=10**400),
     ["estimate-logical", "{}"], "invalid-input",
     "leaf 0 holds a non-finite value"),
    (json.dumps({"estimation": {"eps_total_energy": 10**400}}),
     ["--config", "{}", "estimate-physical", "--qubits", "100", "--tcount",
      "1000000"], "invalid-input",
     "eps_total_energy must be positive and finite"),
    (json.dumps({"qubit_presets": {"x": {"t_gate": 10**400}}}), PHYSICAL_X,
     "invalid-input", "t_gate and t_meas must be positive, their syndrome "
     "round finite and at least 1 fs"),
    (json.dumps({"monomers": {"A": 10**400}}), ["fmo-assemble", "{}"],
     "invalid-input", "non-finite energy inf for A"),
    ("3\ncomment\n", ["parse-xyz", "{}"], "empty-input",
     "no data lines in XYZ input"),
    ("H nan 0 0\n", ["parse-xyz", "{}"], "parse",
     "line 1: non-finite coordinate in 'H nan 0 0'"),
    ("water\nH 0 0 0\n", ["parse-xyz", "{}"], "parse",
     "line 1: expected 'Sym x y z', got 'water'"),
    # after a count line, a line that is no atom row is the label
    ("1\nH x y z\n", ["parse-xyz", "{}"], "empty-input",
     "no data lines in XYZ input"),
    (json.dumps(LOGICAL), ["estimate-physical", "--from-logical", "{}",
                           "--qubits", "5", "--tcount", "7"],
     "invalid-input", "--from-logical excludes --qubits/--tcount"),
], ids=["negative-tcount", "even-d-min", "zero-a-coeff", "inf-a-coeff",
        "unit-p-threshold", "unit-p-gate", "unit-error-budget",
        "zero-rotation-coefficient", "inf-rotation-coefficient",
        "negative-t-states-share", "negative-t-count", "t-count-below-steps",
        "h-bar-2x3", "h-bar-asymmetric", "two-leaves-at-n-orb-1",
        "leaf-eigvals-column", "leaf-vecs-3d", "big-int-core-energy",
        "big-int-truncation-bound", "big-int-tol-first", "big-int-leaf-weight",
        "big-int-eps-total-energy", "big-int-t-gate", "big-int-monomer",
        "xyz-count-and-label-only", "xyz-nan-coordinate", "xyz-no-count-line",
        "xyz-atom-like-label", "from-logical-and-counts"])
def test_refusal_reports_category_and_message(tmp_path, capsys, text, argv,
                                              category, message):
    path, df_path = tmp_path / "input", tmp_path / "df.json"
    path.write_text(text)
    df_path.write_text(SMALL_DF)
    assert main([arg.format(path, df=df_path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = strict_json(captured.err)
    assert err["error"] == category and err["message"] == message


@pytest.mark.parametrize("argv", [
    ["parse-xyz", "{}"], ["factorize", "{}"], ["estimate-logical", "{}"],
    ["estimate-physical", "--from-logical", "{}"], ["reproduce-table", "{}"],
    ["fit-scaling", "{}"], ["fmo-assemble", "{}"],
    ["--config", "{}", "reproduce-table"],
])
def test_non_utf8_file_reports_parse(tmp_path, capsys, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"\xff")
    assert main([arg.format(path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = strict_json(captured.err)
    assert err["error"] == "parse"
    assert str(path) in err["message"]


TABLE_HEADER = ("fragment,basis,n_orb,n_logical,t_count,distance,n_physical,"
                "n_factories,factory_qubits_total,runtime_s\n")
TABLE_ROW = "8,sto-3g,23,661,4.00e10,15,8.68e5,15,2.40e5,2.31e5\n"


def test_table_t_count_read_exactly(tmp_path, capsys):
    # 2**53 + 1 is the first integer a float cannot hold
    path, out = tmp_path / "table.csv", tmp_path / "out.csv"
    path.write_text(TABLE_HEADER + TABLE_ROW.replace("4.00e10",
                                                     str(2**53 + 1)))
    assert main(["reproduce-table", str(path), "--csv", str(out)]) == 0
    assert out.read_text().splitlines()[1].split(",")[3] == str(2**53 + 1)


@pytest.mark.parametrize("count", ["1e308", "1" + "0" * 400],
                         ids=["1e308", "401-digit-integer"])
@pytest.mark.parametrize("argv", [
    ["estimate-physical", "--qubits", "10", "--tcount", "COUNT"],
    ["reproduce-table", "TABLE"],
])
def test_t_count_past_float_range_reports_saturation(tmp_path, capsys, argv,
                                                     count):
    # layout tiles * 1e308 is past the float range (OverflowError before),
    # and an integer literal past it is read exactly, not as inf; the table
    # names the failing row, here the second
    path = tmp_path / "table.csv"
    path.write_text(TABLE_HEADER + TABLE_ROW + TABLE_ROW.replace(
        "4.00e10", count).replace("sto-3g", "6-31g"))
    assert main([{"TABLE": str(path), "COUNT": count}.get(arg, arg)
                 for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = strict_json(captured.err)
    assert err["error"] == "distance-saturation"
    saturated = "no distance <= 99 meets logical budget 0.00333333"
    if "TABLE" in argv:
        assert err["message"] == f"row 2 (8 6-31g): {saturated}"
    else:
        assert err["message"] == saturated


def _split(logical, t_states):
    return {"estimation": {"budget_split": {
        "logical": logical, "t_states": t_states, "rotations": 0.005}}}


@pytest.mark.parametrize("config, tcount, category, message", [
    # p_gate at the threshold: a scale past the float range saturates
    # before the threshold check, and a zero T count checks nothing
    ({"qubit_presets": {"x": {"p_gate": 0.02}}}, "1e308",
     "distance-saturation", "no distance"),
    ({"qubit_presets": {"x": {"p_gate": 0.02}}}, "0", None, None),
    ({"qubit_presets": {"x": {"p_gate": 0.02}}}, "1000000", "invalid-input",
     "at or above threshold"),
    (_split(0.0, 0.005), "1000000", "invalid-input", "budget_split.logical"),
    (_split(0.005, 0.0), "1000000", "invalid-input",
     "budget_split.t_states per T state must lie in (0, 1), got 0"),
    # a syndrome round of 0 fs is refused with the preset, whatever the
    # T count, naming the two times
    *[({"qubit_presets": {"x": {"t_gate": 1e-31, "t_meas": 1e-31}}}, tcount,
       "invalid-input", "t_gate and t_meas must be positive")
      for tcount in ("1000000", "0")],
], ids=["p-at-threshold-t-1e308", "p-at-threshold-t-0", "p-at-threshold",
        "no-logical-share", "no-t-states-share", "zero-fs-round",
        "zero-fs-round-t-0"])
def test_estimate_physical_edge_categories(tmp_path, capsys, config, tcount,
                                           category, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"qubit_presets": {"x": {}}, **config}))
    code = main(["--config", str(path), "estimate-physical", "--qubits", "10",
                 "--tcount", tcount, "--preset", "x"])
    captured = capsys.readouterr()
    if category is None:
        assert code == 0 and strict_json(captured.out)["cycles"] == 0
        return
    assert code == 1 and captured.out == ""
    err = strict_json(captured.err)
    assert err["error"] == category and message in err["message"]


@pytest.mark.parametrize("text, command", [
    ("n_orb,tcount\n10,1e5\n100,1e10\n", "fit-scaling"),
    ("n_orb,t_count\n10,abc\n100,1e10\n", "fit-scaling"),
    (TABLE_HEADER.replace("n_orb", "norb") + TABLE_ROW, "reproduce-table"),
    (TABLE_HEADER + TABLE_ROW.replace("23", "x"), "reproduce-table"),
    # a data row with an extra or a missing cell
    ("n_orb,t_count\n20,1600,7\n100,1e10\n", "fit-scaling"),
    ("n_orb,t_count\n20\n100,1e10\n", "fit-scaling"),
    (TABLE_HEADER + TABLE_ROW.replace(",15,2.40e5", ",3,15,2.40e5"),
     "reproduce-table"),
    (TABLE_HEADER + TABLE_ROW.replace(",2.31e5", ""), "reproduce-table"),
    # a cell past the csv module's field limit of 131072 characters
    pytest.param("n_orb,t_count\n" + "1" * 200000 + ",1e5\n100,1e10\n",
                 "fit-scaling", id="fit-scaling-field-limit"),
    pytest.param(TABLE_HEADER + "x" * 200000 + TABLE_ROW[1:],
                 "reproduce-table", id="reproduce-table-field-limit"),
])
def test_bad_csv_input_reports_category(tmp_path, capsys, text, command):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = strict_json(captured.err)
    assert err["error"] == "parse" and str(path) in err["message"]
    # a row of another width than the header is named by its data row
    if len({line.count(",") for line in text.splitlines()}) > 1:
        assert f"{path} row 1 has" in err["message"]


@pytest.mark.parametrize("argv", [
    ["estimate-logical", "{}"],
    ["estimate-physical", "--from-logical", "{}"],
    ["fmo-assemble", "{}"],
    ["--config", "{}", "reproduce-table"],
], ids=["decomposition", "logical", "ledger", "config"])
def test_json_nested_past_recursion_limit_reports_parse(tmp_path, capsys, argv):
    # json's reader takes one recursion level per array level
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    assert main([str(path) if arg == "{}" else arg for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    where = "decomposition JSON" if "estimate-logical" in argv else str(path)
    assert strict_json(captured.err) == {
        "error": "parse", "message": f"{where} is nested too deeply to read"}


@pytest.mark.parametrize("text", ["", TABLE_HEADER, "# a\n# b\n"],
                         ids=["empty", "header-only", "comments-only"])
def test_table_without_rows_reports_empty_input(tmp_path, capsys, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    assert main(["reproduce-table", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = strict_json(captured.err)
    assert err == {"error": "empty-input",
                   "message": f"{path} holds no data row"}


@pytest.mark.parametrize("text, command", [
    ("n_orb,t_count\n10,nan\n100,1e10\n20,1e7\n", "fit-scaling"),
    ("n_orb,t_count\n10,inf\n100,1e10\n20,1e7\n", "fit-scaling"),
    ("n_orb,t_count\nnan,1e5\n100,1e10\n20,1e7\n", "fit-scaling"),
    (TABLE_HEADER + TABLE_ROW.replace("8.68e5", "0"), "reproduce-table"),
    (TABLE_HEADER + TABLE_ROW.replace("2.31e5", "0"), "reproduce-table"),
    (TABLE_HEADER + TABLE_ROW.replace("8.68e5", "nan"), "reproduce-table"),
    (TABLE_HEADER + TABLE_ROW.replace("4.00e10", "inf"), "reproduce-table"),
    (TABLE_HEADER + TABLE_ROW.replace("2.40e5", "-inf"), "reproduce-table"),
    (TABLE_HEADER + TABLE_ROW.replace("4.00e10", "40000000000.7"),
     "reproduce-table"),
    (TABLE_HEADER + TABLE_ROW.replace("4.00e10", "1e400"), "reproduce-table"),
])
def test_bad_csv_value_reports_invalid_input(tmp_path, capsys, text, command):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = strict_json(captured.err)
    assert err["error"] == "invalid-input"
    if command == "reproduce-table":
        assert f"{path} row 1:" in err["message"]


@pytest.mark.parametrize("norb, record", [
    (3000, "0.5 1 1 0 0"),
    (99999999999999999999, "0.5 1 1 0 0"),
    # an index past int64 but within NORB: no int64 array may hold it
    (99999999999999999999, "0.5 99999999999999999998 1 0 0"),
], ids=["3000", "99999999999999999999", "index-past-int64"])
def test_oversized_norb_reports_resource_limit(tmp_path, norb, record):
    """A header whose pair matrix cannot fit is refused before any array
    is allocated: an error record naming the bytes, no traceback."""
    path = tmp_path / "big.ints"
    path.write_text(f"NORB {norb}\n{record}\n")
    proc = _run_module("factorize", str(path))
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    err = strict_json(proc.stderr)
    assert err["error"] == "resource-limit"
    assert f"pair matrix needs {8 * (norb * (norb + 1) // 2)**2} bytes" \
        in err["message"]


@pytest.mark.parametrize("argv, message", [
    (["estimate-physical", "--nlogical", "5"],
     "unrecognized arguments: --nlogical 5"),
    (["reproduce-table", "--csv"], "argument --csv: expected one argument"),
    ([], "the following arguments are required: command"),
    (["binding-affinity", "abc", "0", "0"],
     "argument e_complex: invalid float value: 'abc'"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
])
def test_usage_error_reports_category(capsys, argv, message):
    """A command line argparse refuses is a ``usage`` record with
    argparse's message and exit 1, not argparse's text and exit 2."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = strict_json(captured.err)
    assert err["error"] == "usage" and message in err["message"]


@pytest.mark.parametrize("argv", [["--help"], ["factorize", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dfqre")


def test_usage_error_exit_status_of_module():
    """Through ``python -m dfqre.cli``, as the console script runs it:
    exit 1 with one usage record on stderr, and ``--help`` exits 0."""
    proc = _run_module("estimate-physical", "--nlogical", "5")
    assert proc.returncode == 1 and proc.stdout == ""
    assert strict_json(proc.stderr)["error"] == "usage"
    proc = _run_module("--help")
    assert proc.returncode == 0 and proc.stderr == ""
