"""Command-line front end: values, exit codes, determinism, config plumbing."""

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

import etaforge.cli as cli
import etaforge.eta as eta_mod
from etaforge.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eta_exact_published_example(capsys):
    code, out, _ = _run(
        capsys,
        "eta", "exact", "--preset", "surface", "--genus", "0", "--degree", "1",
        "--r", "0", "--eps", "1/10",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "etaforge/1"
    # calibrated sign: -1/12 + 1/1200 - 1/60 as a single rational
    assert payload["value"] == str(Fraction(-1, 12) + Fraction(1, 1200) - Fraction(1, 60))
    assert payload["conventions"] == {
        "flow_factor": 1,
        "sign_c": -1,
        "transgression_scale": "1",
    }
    assert payload["validityFlag"] is True


def test_output_is_byte_identical(tmp_path, capsys):
    args = [
        "eta", "exact", "--preset", "surface", "--genus", "0", "--degree", "2",
        "--r", "7/3", "--eps", "1/10",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_usage_error_exit_code(capsys):
    code, _, err = _run(capsys, "eta", "exact", "--preset", "surface", "--r", "0")
    assert code == 1 and "eps" in err
    code, _, err = _run(capsys, "eta", "bogus-mode")
    assert code == 1


def test_usage_error_is_a_json_record(capsys):
    code, _, err = _run(capsys, "eta", "exact", "--preset", "surface", "--r", "0")
    assert code == 1
    record = json.loads(err)
    assert record["schema"] == "etaforge/1"
    assert record["error"] == "UsageError"
    assert "eps" in record["detail"]


def test_calibration_failure_is_a_json_record(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(eta_mod, "_t2_holds", lambda suite, conv: False)
    code, out, err = _run(capsys, "calibrate", "--conventions", str(tmp_path / "c.json"))
    assert code == 3 and out == ""
    record = json.loads(err)
    assert record["error"] == "NoConsistentConvention"
    assert set(record) == {"schema", "error", "detail"}
    assert not (tmp_path / "c.json").exists()


def test_unknown_hodge_data_exit_code(capsys):
    # genus 2 at r = 0 needs the undeclared theta-characteristic h00
    code, _, err = _run(
        capsys,
        "eta", "exact", "--preset", "surface", "--genus", "2", "--degree", "1",
        "--r", "0", "--eps", "1/10",
    )
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "UnknownHodgeData"


def test_spectrum_with_valid_dolbeault_data(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "geometry": {"preset": "surface", "genus": 0, "degree": 1},
        "dolbeault": {
            "lower_bound": "1/2",
            "entries": [[0, 0, "1/2", 1], [0, 1, "1/2", 3]],
        },
    }))
    code, out, _ = _run(
        capsys,
        "spectrum", "--config", str(config),
        "--r", "0", "--eps", "1/10", "--k-min", "0", "--k-max", "1",
    )
    assert code == 0
    tags = {row["tag"] for row in json.loads(out)["records"]}
    assert "type2plus" in tags and "type2minus" in tags


def test_invalid_dolbeault_truly_negative(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "geometry": {"preset": "surface", "genus": 0, "degree": 1},
        "dolbeault": {
            "lower_bound": "1/2",
            "entries": [[0, 0, "1/2", 3], [0, 1, "1/2", 1]],
        },
    }))
    code, _, err = _run(
        capsys,
        "spectrum", "--config", str(config),
        "--r", "0", "--eps", "1/10", "--k-min", "0", "--k-max", "1",
    )
    assert code == 2
    assert json.loads(err)["error"] == "InvalidDolbeaultData"


def test_validity_flag_false_in_output(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "dolbeault": {"lower_bound": "1/100", "entries": []},
    }))
    code, out, _ = _run(
        capsys,
        "eta", "exact", "--preset", "surface", "--genus", "0", "--degree", "1",
        "--r", "1/3", "--eps", "2", "--config", str(config),
    )
    assert code == 0
    assert json.loads(out)["validityFlag"] is False


def test_aps_check_pass_record(capsys):
    code, out, _ = _run(
        capsys,
        "eta", "aps-check", "--preset", "surface", "--genus", "0", "--degree", "1",
        "--r0", "0", "--r1", "1/2", "--eps", "1/10",
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_aps_check_passes_at_kernel_endpoint(capsys):
    code, out, _ = _run(
        capsys,
        "eta", "aps-check", "--preset", "surface", "--genus", "0", "--degree", "1",
        "--r0", "7/12", "--r1", "9/10", "--eps", "1/5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["lhs"] == payload["rhs"] == "1691/7200"


def test_aps_check_accepts_negative_endpoint(capsys):
    code, out, _ = _run(
        capsys,
        "eta", "aps-check", "--preset", "surface", "--genus", "0", "--degree", "1",
        "--r0=-9/10", "--r1", "1/2", "--eps", "1/5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["lhs"] == payload["rhs"] == "-7/25"


def test_negative_rational_after_a_space_is_a_value(capsys):
    base = ["eta", "aps-check", "--preset", "surface", "--genus", "0", "--degree", "1"]
    spaced = _run(capsys, *base, "--r0", "-9/10", "--r1", "1/2", "--eps", "1/5")
    joined = _run(capsys, *base, "--r0=-9/10", "--r1", "1/2", "--eps", "1/5")
    assert spaced[0] == joined[0] == 0
    assert spaced[1] == joined[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["eta", "exact", "--preset", "surface", "--r", "0", "--eps", "1/10", "--format", "csv"],
        ["eta", "adiabatic", "--preset", "surface", "--r", "0", "--eps", "1/10", "--k-min", "0"],
        ["spectrum", "--preset", "surface", "--r", "0", "--eps", "1/10", "--k-min", "0",
         "--k-max", "1", "--conventions", "c.json"],
        ["flow", "--preset", "surface", "--r", "0", "--eps", "1/10", "--k-max", "3"],
        ["measure", "check", "--eps", "1/10"],
        ["identities", "run", "--genus", "7"],
        ["identities", "run", "--config", "cfg.json"],
        ["calibrate", "--format", "csv"],
    ],
)
def test_flag_a_command_does_not_read_is_refused(argv, capsys):
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    record = json.loads(err)
    assert record["error"] == "UsageError"
    assert "unrecognized arguments" in record["detail"]


def test_subcommands_take_only_the_flags_they_read():
    subparsers = next(
        a for a in cli.build_parser()._actions if a.dest == "command"
    ).choices
    flags = {
        name: sorted(o for a in sp._actions for o in a.option_strings if o not in ("-h", "--help"))
        for name, sp in subparsers.items()
    }
    source = ["--config", "--degree", "--genus", "--h00", "--m", "--preset"]
    assert flags == {
        "eta": sorted(source + ["--r", "--eps", "--r0", "--r1", "--conventions", "--out"]),
        "spectrum": sorted(source + ["--r", "--eps", "--k-min", "--k-max", "--format", "--out"]),
        "flow": sorted(source + ["--r", "--eps", "--r0", "--r1", "--format", "--out"]),
        "measure": ["--config", "--out"],
        "identities": ["--out"],
        "calibrate": ["--conventions", "--out"],
    }
    assert sum(len(v) for v in flags.values()) == 41


def test_zero_dimensional_geometry_is_refused(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"geometry": {
        "m": 0, "top_integral": "1", "c1L": "1", "c1K": "0", "tangent_roots": [],
    }}))
    code, out, err = _run(capsys, "eta", "exact", "--config", str(cfg), "--r", "0", "--eps", "1/10")
    assert code == 1 and out == ""
    record = json.loads(err)
    assert record["error"] == "UsageError" and "at least 1" in record["detail"]


def test_spectrum_refuses_huge_k_range(capsys):
    start = time.perf_counter()
    code, out, err = _run(
        capsys,
        "spectrum", "--preset", "surface", "--genus", "0", "--degree", "1",
        "--r", "0", "--eps", "1/10", "--k-min", "0", "--k-max", "3000000",
    )
    assert time.perf_counter() - start < 5
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "UsageError"


def test_flow_mismatch_exits_three(monkeypatch, capsys):
    monkeypatch.setattr(cli, "flow_in_delta_closed", lambda *a: 10**9)
    code, out, _ = _run(
        capsys,
        "flow", "--preset", "surface", "--genus", "0", "--degree", "1",
        "--r", "97/100", "--eps", "1/10",
    )
    assert code == 3
    assert json.loads(out)["delta_flow"]["agree"] is False


def test_flow_emits_both_variants(capsys):
    code, out, _ = _run(
        capsys,
        "flow", "--preset", "surface", "--genus", "0", "--degree", "1",
        "--r", "97/100", "--r0", "0", "--r1", "2", "--eps", "1/10",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["delta_flow"]["closed"] == -1
    assert payload["delta_flow"]["oracle_net"] == -1
    assert payload["s_flow"]["net"] == -3


def test_calibrate_persists_and_is_consumed(tmp_path, capsys):
    conv_path = tmp_path / "conv.json"
    code, out, _ = _run(capsys, "calibrate", "--conventions", str(conv_path))
    assert code == 0
    record = json.loads(conv_path.read_text())
    assert record["sign_c"] == -1 and record["flow_factor"] == 1
    code, out, _ = _run(
        capsys,
        "eta", "exact", "--preset", "surface", "--genus", "0", "--degree", "1",
        "--r", "0", "--eps", "1/10", "--conventions", str(conv_path),
    )
    assert code == 0
    assert json.loads(out)["conventions"]["sign_c"] == -1


def test_spectrum_csv_contains_surd_components(capsys):
    code, out, _ = _run(
        capsys,
        "spectrum", "--preset", "surface", "--genus", "0", "--degree", "1",
        "--r", "1/2", "--eps", "1/10", "--k-min", "0", "--k-max", "2",
        "--format", "csv",
    )
    assert code == 0
    header = out.splitlines()[0]
    assert header == "tag,k,p,multiplicity,a,b,d,mu_sq"


def test_config_flag_precedence(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "geometry": {"preset": "surface", "genus": 0, "degree": 1},
        "r": "5", "eps": "1/10",
    }))
    code, out, _ = _run(
        capsys, "eta", "adiabatic", "--config", str(config), "--r", "0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["r"] == "0"          # flag wins
    assert payload["value"] == "-1/12"


def test_identities_run(capsys):
    code, out, _ = _run(capsys, "identities", "run")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["checks"]) > 20


def test_measure_check_defaults(capsys):
    code, out, _ = _run(capsys, "measure", "check")
    assert code == 0
    payload = json.loads(out)
    assert all(row["rel_error"] < 1e-6 for row in payload["laplace"])


@pytest.mark.parametrize(
    "measure_cfg",
    [
        {"t": [0.0]},
        {"points": [{"lambdas": []}]},
        {"points": [{"n": 5, "lambdas": [0.001, 0.001]}], "s_max": 80},
        # a benign point first: the huge lattice of the second is still refused up front
        {"points": [{"n": 3, "lambdas": [1.0]}, {"n": 5, "lambdas": [0.001, 0.001]}]},
    ],
)
def test_hostile_measure_config_fails_before_any_maths(measure_cfg, tmp_path, monkeypatch, capsys):
    import etaforge.measure as measure

    def no_maths(*args):
        raise AssertionError("maths ran before the config was validated")

    monkeypatch.setattr(measure, "laplace_check", no_maths)
    monkeypatch.setattr(measure, "near_zero_bound", no_maths)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"measure": measure_cfg}))
    start = time.perf_counter()
    code, out, err = _run(capsys, "measure", "check", "--config", str(cfg))
    assert time.perf_counter() - start < 5
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "UsageError"


def test_spectrum_refuses_swapped_k_range(capsys):
    code, out, err = _run(
        capsys,
        "spectrum", "--preset", "surface", "--genus", "0", "--degree", "1",
        "--r", "0", "--eps", "1/10", "--k-min", "5", "--k-max", "-5",
    )
    assert code == 1 and out == ""
    record = json.loads(err)
    assert record["error"] == "UsageError" and "k-range is empty" in record["detail"]


def test_eta_adiabatic_does_not_need_eps(capsys):
    code, out, _ = _run(
        capsys, "eta", "adiabatic", "--preset", "surface", "--genus", "0", "--degree", "2",
        "--r", "7/3",
    )
    assert code == 0
    golden = Path(__file__).resolve().parent / "golden" / "eta_adiabatic.json"
    assert out == golden.read_text(encoding="utf-8")
