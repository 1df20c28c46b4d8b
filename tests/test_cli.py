"""Command-line front end: values, exit codes, determinism, config plumbing."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import etaforge.cli as cli
import etaforge.eta as eta_mod
from etaforge.cli import main
from etaforge.errors import UsageError
from etaforge.forms import GaussRat


_SURFACE_01 = ("--preset", "surface", "--genus", "0", "--degree", "1")


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
    # an APS right-hand side off by 1 leaves no candidate meeting T2
    real = eta_mod._aps_rhs
    monkeypatch.setattr(eta_mod, "_aps_rhs", lambda *args: real(*args) + 1)
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
            "entries": [[0, 0, "1/2", 3], [0, 1, "1/2", 3]],
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


def test_spectrum_lists_type2_pairs_only_inside_the_k_range(tmp_path, capsys):
    # the config of the spectrum_square.json golden fixture: one pair, at k = 0
    config = tmp_path / "square.json"
    config.write_text(json.dumps({
        "geometry": {"preset": "surface", "genus": 0, "degree": 1},
        "dolbeault": {"lower_bound": "5/2", "entries": [[0, 0, "5/2", 1], [0, 1, "5/2", 1]]},
    }))
    base = ("spectrum", "--config", str(config), "--r", "0", "--eps", "1/10")
    code, out, _ = _run(capsys, *base, "--k-min", "5", "--k-max", "5", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["type1,5,0,5,99/20,0,0,"]
    code, out, _ = _run(capsys, *base, "--k-min", "0", "--k-max", "0")
    assert code == 0
    tags = sorted(row["tag"] for row in json.loads(out)["records"])
    assert tags == ["type2minus", "type2plus"]


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


# Dolbeault data that is no exact complex, each with its exit code and error
_INVALID_DOLBEAULT = {
    # d^1 = e^1 - e^0 = -1, with e^1 given as 0 or not given at all
    "negative_d1": ([[0, 0, "1", 1], [0, 1, "1", 0]], 2, "InvalidDolbeaultData"),
    "lone_p0": ([[0, 0, "1", 1]], 2, "InvalidDolbeaultData"),
    # p = 5 is no form degree on a surface
    "p_above_m": ([[0, 5, "1", 4]], 1, "UsageError"),
    # every d^p >= 0, but d^1 = 2 at both keys: pairs at p = 1 = m do not exist
    "top_degree": ([[0, 0, "1/2", 1], [0, 1, "1/2", 3], [1, 1, "3", 2]], 2,
                   "InvalidDolbeaultData"),
}
_DOLBEAULT_COMMANDS = {
    "spectrum": ("spectrum", "--r", "1/3", "--eps", "1/10", "--k-min", "-3", "--k-max", "3"),
    "eta_exact": ("eta", "exact", "--r", "1/3", "--eps", "1/10"),
    "eta_asymptotic": ("eta", "asymptotic", "--r", "1/3", "--eps", "1/10"),
    "eta_adiabatic": ("eta", "adiabatic", "--r", "1/3"),
    "eta_aps_check": ("eta", "aps-check", "--r0", "0", "--r1", "1/2", "--eps", "1/10"),
}


@pytest.mark.parametrize("command", sorted(_DOLBEAULT_COMMANDS))
@pytest.mark.parametrize("case", sorted(_INVALID_DOLBEAULT))
def test_dolbeault_data_that_is_no_exact_complex_is_refused(tmp_path, capsys, case, command):
    entries, exit_code, error = _INVALID_DOLBEAULT[case]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "geometry": {"preset": "surface", "genus": 0, "degree": 1},
        "dolbeault": {"lower_bound": "1/2", "entries": entries},
    }))
    out_file = tmp_path / "out.json"
    out_file.write_bytes(b"earlier output\n")
    code, out, err = _run(
        capsys, *_DOLBEAULT_COMMANDS[command], "--config", str(config), "--out", str(out_file)
    )
    assert (code, out) == (exit_code, "")
    assert json.loads(err)["error"] == error
    assert out_file.read_bytes() == b"earlier output\n"


# Hodge data no manifold has: each is refused with exit 1 before any maths runs
_INVALID_HODGE = {
    "negative_table_value": ({
        "geometry": {"m": 1, "top_integral": "1", "c1L": "1", "c1K": "-1", "tangent_roots": ["2"]},
        "hodge": {"type": "table", "table": {"0,0": -3, "1,0": 1, "0,1": 1, "1,-1": 1}},
    }, "h^(0,0) = -3"),
    "negative_h00": ({"geometry": {"preset": "surface", "genus": 1, "degree": 2},
                      "hodge": {"h00": -1}}, "h^(0,0) = -1"),
    "h00_against_exceptional": ({"geometry": {"preset": "surface", "genus": 1, "degree": 2},
                                 "hodge": {"h00": 1, "exceptional": {"0,0": 0}}}, "disagree"),
    "table_p_above_m": ({"geometry": {"preset": "projective", "m": 2},
                         "hodge": {"type": "hrr", "k0": 1, "table": {"3,0": 1}}}, "p=3"),
    "h00_in_a_vanishing_range": ({"geometry": {"preset": "surface", "genus": 0, "degree": 1},
                                  "hodge": {"h00": 5}}, "h^(0,0) = 5 is declared in a vanishing"),
    "exceptional_in_a_vanishing_range": ({"geometry": {"preset": "surface", "genus": 0, "degree": 1},
                                          "hodge": {"exceptional": {"0,5": 99}}},
                                         "h^(0,5) = 99 is declared in a vanishing"),
}


@pytest.mark.parametrize("command", [("eta", "exact"), ("flow",)], ids=["eta_exact", "flow"])
@pytest.mark.parametrize("case", sorted(_INVALID_HODGE))
def test_hodge_data_no_manifold_has_is_refused(tmp_path, capsys, case, command):
    cfg, detail = _INVALID_HODGE[case]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    out_file = tmp_path / "out.json"
    out_file.write_bytes(b"earlier output\n")
    code, out, err = _run(
        capsys, *command, "--config", str(config), "--r", "1/3", "--eps", "1/10",
        "--out", str(out_file),
    )
    assert (code, out) == (1, "")
    record = json.loads(err)
    assert record["error"] == "UsageError" and detail in record["detail"]
    assert out_file.read_bytes() == b"earlier output\n"


@pytest.mark.parametrize("h00, exit_code", [("5", 1), ("0", 0)])
def test_h00_flag_against_a_vanishing_range(tmp_path, capsys, h00, exit_code):
    """On genus 0, h^{0,0} vanishes: --h00 5 is refused before the --out file
    is opened, and --h00 0, the value it follows from, is legal."""
    out_file = tmp_path / "out.json"
    out_file.write_bytes(b"earlier output\n")
    code, out, err = _run(
        capsys, "eta", "exact", *_SURFACE_01, "--h00", h00, "--r", "1/3", "--eps", "1/10",
        "--out", str(out_file),
    )
    assert (code, out) == (exit_code, "")
    if exit_code:
        assert json.loads(err)["error"] == "UsageError"
        assert out_file.read_bytes() == b"earlier output\n"
    else:
        assert json.loads(out_file.read_text())["kernel_dim"] == 0


def test_negative_h00_flag_is_refused(capsys):
    code, out, err = _run(
        capsys, "eta", "exact", "--preset", "surface", "--genus", "1", "--degree", "2",
        "--h00", "-1", "--r", "1/3", "--eps", "1/10",
    )
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "UsageError"


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


def test_parser_is_built_once_and_runs_the_command_of_the_moment(monkeypatch, capsys):
    """The cached parser keeps no command function: a command replaced after
    the first call (as a tracing wrapper does) is the one main runs."""
    assert cli.build_parser() is cli.build_parser()
    argv = ["flow", *_SURFACE_01, "--r", "1/3", "--eps", "1/10"]
    assert main(argv) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_flow", lambda args: calls.append(args.command) or 7)
    assert main(argv) == 7
    assert calls == ["flow"]
    capsys.readouterr()


def test_zero_dimensional_geometry_is_refused(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"geometry": {
        "m": 0, "top_integral": "1", "c1L": "1", "c1K": "0", "tangent_roots": [],
    }}))
    code, out, err = _run(capsys, "eta", "exact", "--config", str(cfg), "--r", "0", "--eps", "1/10")
    assert code == 1 and out == ""
    record = json.loads(err)
    assert record["error"] == "UsageError" and "at least 1" in record["detail"]


@pytest.mark.parametrize("eps", ["-1/10", "0", "-5"])
def test_asymptotic_refuses_nonpositive_eps(eps, capsys):
    # eps <= 0 once gave a value with exit 0 here, while `eta exact` refused it
    code, out, err = _run(
        capsys, "eta", "asymptotic", "--preset", "surface", "--genus", "0", "--degree", "1",
        "--r", "1/3", f"--eps={eps}",
    )
    assert code == 1 and out == ""
    record = json.loads(err)
    assert record["error"] == "UsageError" and "eps must be positive" in record["detail"]


def test_trivial_line_bundle_is_refused(tmp_path, capsys):
    # c1(L) = 0 once gave value 0 with exit 0; the transgression divides by it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "geometry": {
            "m": 2, "top_integral": "1", "c1L": "0", "c1K": "0", "tangent_roots": ["0", "0"],
        },
        "hodge": {"type": "hrr", "k0": 1, "table": {"0,0": 1, "1,0": 0, "2,0": 0}},
    }))
    code, out, err = _run(capsys, "eta", "exact", "--config", str(cfg), "--r", "1/3", "--eps", "1/10")
    assert code == 1 and out == ""
    record = json.loads(err)
    assert record["error"] == "UsageError" and "c1(L)" in record["detail"]


@pytest.mark.parametrize(
    "config, block",
    [
        ({"geometry": {"preset": "surface", "genus": "x"}}, "geometry"),
        ({"dolbeault": {"lower_bound": "1", "entries": [[0, 0]]}}, "dolbeault"),
        ({"hodge": {"type": "table", "table": {"0;1": 1}}}, "hodge"),
        # an integer field takes a JSON integer: a float is not truncated, and
        # true is no 1
        ({"geometry": {"preset": "surface", "genus": 0.9}}, "geometry"),
        ({"geometry": {"preset": "surface", "genus": 0, "degree": True}}, "geometry"),
        ({"hodge": {"h00": 1.5}}, "hodge"),
        ({"geometry": {"preset": "projective", "m": 2.7}}, "geometry"),
        ({"geometry": {"preset": "projective", "m": 3}, "hodge": {"type": "hrr", "k0": 1.5}},
         "hodge"),
        ({"hodge": {"type": "table", "table": {"0,1": 1.9}}}, "hodge"),
        ({"dolbeault": {"lower_bound": "1/2", "entries": [[0.7, 0, "1/2", 1], [0, 1, "1/2", 1]]}},
         "dolbeault"),
        ({"dolbeault": {"lower_bound": "1/2", "entries": [[0, 0, "1/2", 1.9], [0, 1, "1/2", 1]]}},
         "dolbeault"),
    ],
    ids=[
        "genus", "dolbeault_entry", "table_key", "float_genus", "bool_degree", "float_h00",
        "float_m", "float_k0", "float_table_value", "float_dolbeault_k",
        "float_dolbeault_multiplicity",
    ],
)
def test_malformed_config_block_is_a_usage_error(tmp_path, capsys, config, block):
    """A malformed value in the geometry, hodge or dolbeault block is a JSON
    usage error with exit 1, not a traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    # a config without a geometry block is read on the surface preset
    preset = () if "geometry" in config else ("--preset", "surface")
    code, out, err = _run(
        capsys, "eta", "exact", "--config", str(cfg), *preset, "--r", "1/3", "--eps", "1/10",
    )
    assert code == 1 and out == ""
    record = json.loads(err)
    assert record["error"] == "UsageError"
    assert record["detail"].startswith(f"malformed {block} config")


@pytest.mark.parametrize(
    "geometry",
    [
        {"tangent_roots": ["3/2"], "c1K": "-3/4", "c1L": "1"},
        {"tangent_roots": ["2"], "c1K": "-1", "c1L": "3/2"},
    ],
    ids=["genus", "degree"],
)
def test_surface_hodge_needs_integer_genus_and_degree(geometry, tmp_path, capsys):
    """Explicit m = 1 data with a half-integer genus or c1(L) gets no surface
    Hodge numbers, rather than those of a truncated genus or degree."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"geometry": {"m": 1, "top_integral": "1", **geometry}}))
    code, out, err = _run(capsys, "eta", "exact", "--config", str(cfg), "--r", "1/3", "--eps", "1/10")
    assert code == 1 and out == ""
    record = json.loads(err)
    assert record["error"] == "UsageError" and "integer genus" in record["detail"]


def test_base_dimension_above_the_cap_is_refused(capsys):
    start = time.perf_counter()
    code, out, err = _run(
        capsys, "eta", "asymptotic", "--preset", "projective", "--m", "33",
        "--r", "0", "--eps", "1/10",
    )
    assert time.perf_counter() - start < 5
    assert code == 1 and out == ""
    record = json.loads(err)
    assert record["error"] == "UsageError" and "m=33" in record["detail"]


def test_surface_data_breaking_riemann_roch_is_refused(tmp_path, monkeypatch, capsys):
    def no_maths(*args):
        raise AssertionError("maths ran on Hodge data that breaks Riemann-Roch")

    monkeypatch.setattr(cli, "exact_eta", no_maths)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "geometry": {"preset": "surface", "genus": 2, "degree": 1},
        "hodge": {"exceptional": {"0,1": 0, "0,-1": 0}},
    }))
    code, out, err = _run(capsys, "eta", "exact", "--config", str(cfg), "--r", "0", "--eps", "1/10")
    assert code == 1 and out == ""
    record = json.loads(err)
    assert record["error"] == "UsageError" and "Riemann-Roch" in record["detail"]


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


def test_eta_exact_cross_check_failure_is_a_json_error(monkeypatch, tmp_path, capsys):
    """A flow term that disagrees with the oracle exits 3 with a JSON error on
    stderr; nothing is written to stdout, and an --out file is left alone."""
    monkeypatch.setattr(eta_mod, "flow_in_delta_closed", lambda *a: 10**9)
    out_file = tmp_path / "out.json"
    out_file.write_bytes(b"earlier output\n")
    code, out, err = _run(
        capsys, "eta", "exact", *_SURFACE_01, "--r", "97/100", "--eps", "1/10",
        "--out", str(out_file),
    )
    assert code == 3 and out == ""
    record = json.loads(err)
    assert set(record) == {"schema", "error", "detail"}
    assert record["error"] == "CrossCheckFailed" and "1000000000" in record["detail"]
    assert out_file.read_bytes() == b"earlier output\n"


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


_GOOD_CONVENTIONS = {"sign_c": -1, "flow_factor": 1, "transgression_scale": "1"}


@pytest.mark.parametrize(
    "text",
    [
        "[1]",
        json.dumps({**_GOOD_CONVENTIONS, "sign_c": [1]}),
        json.dumps({**_GOOD_CONVENTIONS, "flow_factor": 1.9}),
        json.dumps({**_GOOD_CONVENTIONS, "sign_c": True}),
        "{not json",
    ],
    ids=["list", "list_knob", "float_knob", "bool_knob", "not_json"],
)
def test_malformed_conventions_file_is_a_usage_error(tmp_path, capsys, text):
    """A conventions file that is not an object of integer knobs is a JSON
    usage error with exit 1: no traceback, and no knob truncated by int()."""
    conv_path = tmp_path / "conv.json"
    conv_path.write_text(text)
    code, out, err = _run(
        capsys,
        "eta", "exact", "--preset", "surface", "--genus", "0", "--degree", "1",
        "--r", "0", "--eps", "1/10", "--conventions", str(conv_path),
    )
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "UsageError"


@pytest.mark.parametrize(
    "data",
    [b'{"r": ' + b"1" * 5000 + b"}", b'{"r": "1/3"} \xff', b"{not json"],
    ids=["integer_past_digit_limit", "not_utf8", "not_json"],
)
def test_unreadable_config_is_a_usage_error(tmp_path, capsys, data):
    """A config that json.load refuses, with any ValueError, is a JSON usage
    error with exit 1, and an --out file is left alone."""
    config = tmp_path / "cfg.json"
    config.write_bytes(data)
    out_file = tmp_path / "out.json"
    out_file.write_bytes(b"earlier output\n")
    code, out, err = _run(
        capsys, "eta", "exact", *_SURFACE_01, "--eps", "1/10", "--config", str(config),
        "--out", str(out_file),
    )
    assert code == 1 and out == ""
    record = json.loads(err)
    assert record["error"] == "UsageError" and record["detail"].startswith("cannot read config")
    assert out_file.read_bytes() == b"earlier output\n"


def test_non_string_conventions_path_is_refused_before_anything_is_opened(tmp_path):
    """A config "conventions" value that is not a string is a JSON usage
    error: open() would take 0 as stdin (and close it), 1 as stdout."""
    root = Path(__file__).resolve().parents[1]
    configs = []
    for i, value in enumerate([0, 1, True, [str(tmp_path)]]):
        configs.append(tmp_path / f"cfg{i}.json")
        configs[-1].write_text(json.dumps({"conventions": value}))
    # each config in turn, in one process, then stdin is checked
    child = (
        "import json, os, sys\n"
        "from etaforge.cli import main\n"
        "codes = [main(['eta', 'exact', '--preset', 'surface', '--r', '0', '--eps', '1/10',\n"
        "               '--config', config]) for config in sys.argv[1:]]\n"
        "os.fstat(0)\n"
        "print(json.dumps({'codes': codes, 'stdin': sys.stdin.read()}))\n"
    )
    conventions = json.dumps(_GOOD_CONVENTIONS)
    proc = subprocess.run(
        [sys.executable, "-c", child, *map(str, configs)], input=conventions,
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    # every value refused with exit 1, and stdin still open and unread
    assert result == {"codes": [1, 1, 1, 1], "stdin": conventions}
    errors = [json.loads(line) for line in proc.stderr.splitlines()]
    assert [e["error"] for e in errors] == ["UsageError"] * 4
    assert all("conventions takes a file path" in e["detail"] for e in errors)


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
        # Γ(n_y + 1/2) overflows a float
        {"points": [{"n": 601, "lambdas": []}]},
        # n is a JSON integer, not truncated to 3
        {"points": [{"n": 3.9, "lambdas": [1.0]}]},
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


@pytest.mark.parametrize(
    "measure_cfg",
    [
        # t^{-(n_y + 1/2)} and (4πt)^{-n/2} overflow; the point's weight is finite
        {"points": [{"n": 227, "lambdas": []}], "t": [0.0001]},
        # (4πt)^{-n/2} underflows to 0, so no relative error exists
        {"points": [{"n": 201, "lambdas": []}], "t": [1000000.0]},
    ],
)
def test_laplace_check_out_of_float_range_is_a_usage_error(measure_cfg, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"measure": measure_cfg}))
    code, out, err = _run(capsys, "measure", "check", "--config", str(cfg))
    assert code == 1 and out == ""
    record = json.loads(err)
    assert record["error"] == "UsageError" and "float range" in record["detail"]


@pytest.mark.parametrize("bound", ["x", 1.7, True], ids=["string", "float", "bool"])
def test_spectrum_config_k_bounds_must_be_json_integers(bound, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"k_min": bound, "k_max": 3}))
    code, out, err = _run(
        capsys, "spectrum", *_SURFACE_01, "--r", "1/3", "--eps", "1/10", "--config", str(config),
    )
    assert code == 1 and out == ""
    record = json.loads(err)
    assert record["error"] == "UsageError" and "JSON integers" in record["detail"]


def test_spectrum_refuses_swapped_k_range(capsys):
    code, out, err = _run(
        capsys,
        "spectrum", "--preset", "surface", "--genus", "0", "--degree", "1",
        "--r", "0", "--eps", "1/10", "--k-min", "5", "--k-max", "-5",
    )
    assert code == 1 and out == ""
    record = json.loads(err)
    assert record["error"] == "UsageError" and "k-range is empty" in record["detail"]


@pytest.mark.parametrize(
    "argv",
    [
        ("eta", "exact", *_SURFACE_01, "--r", "1/3", "--eps", "1/10", "--out", "{missing}/x.json"),
        ("spectrum", *_SURFACE_01, "--r", "1/3", "--eps", "1/10", "--k-min", "0", "--k-max", "2",
         "--out", "{dir}"),
        ("calibrate", "--conventions", "{missing}/c.json"),
    ],
    ids=["missing_directory", "a_directory", "conventions"],
)
def test_unwritable_output_is_a_usage_error(argv, tmp_path, capsys):
    argv = [arg.format(missing=tmp_path / "missing", dir=tmp_path) for arg in argv]
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    record = json.loads(err)
    assert record["error"] == "UsageError" and "cannot write" in record["detail"]


def test_closed_stdout_is_a_usage_error():
    """A reader that closes stdout early, as `| head -c 50` does, gets a JSON
    usage error with exit 1 on stderr and no traceback."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "etaforge.cli", "spectrum", *_SURFACE_01, "--r", "1/3",
         "--eps", "1/10", "--k-min", "-3000", "--k-max", "3000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    # the dump (about 2 MB) is far larger than a pipe buffer
    assert len(proc.stdout.read(50)) == 50
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    lines = err.decode().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "UsageError" and "cannot write stdout" in record["detail"]


def test_refused_spectrum_input_leaves_the_out_file_alone(tmp_path, capsys):
    out_file = tmp_path / "out.json"
    out_file.write_bytes(b"earlier output\n")
    base = ("spectrum", *_SURFACE_01, "--r", "0", "--eps", "1/10", "--out", str(out_file))
    code, _, _ = _run(capsys, *base, "--k-min", "5", "--k-max", "-5")
    assert code == 1
    assert out_file.read_bytes() == b"earlier output\n"
    # d^1 = e^1 - e^0 < 0 at k = 0: invalid Dolbeault data
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "dolbeault": {"lower_bound": "1/2", "entries": [[0, 0, "1/2", 3], [0, 1, "1/2", 1]]},
    }))
    code, _, _ = _run(capsys, *base, "--config", str(config), "--k-min", "0", "--k-max", "1")
    assert code == 2
    assert out_file.read_bytes() == b"earlier output\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_spectrum_dump_memory_grows_with_the_records_only(fmt, tmp_path):
    """A dump holds its records, not its rows or its text: the traced peak of
    the whole command exceeds that of the records alone by less than 0.1 of
    it (a sort key per record would add about 0.2; a CSV text held whole,
    about 0.17)."""
    import tracemalloc

    from etaforge.cohomology import surface_geometry
    from etaforge.hodge import SurfaceHodge
    from etaforge.spectrum import type1_eigenvalues

    argv = ["spectrum", *_SURFACE_01, "--r", "1/3", "--eps", "1/10", "--format", fmt]
    out_file = tmp_path / f"out.{fmt}"
    # a small dump first, so that imports and caches are not counted
    assert main([*argv, "--k-min", "-2", "--k-max", "2", "--out", str(out_file)]) == 0

    def traced_peak(fn):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    g, hp = surface_geometry(0, 1), SurfaceHodge(0, 1)
    records = traced_peak(
        lambda: type1_eigenvalues(g, hp, Fraction(1, 3), Fraction(1, 10), (-10**4, 10**4))
    )
    dump = traced_peak(
        lambda: main([*argv, "--k-min", str(-10**4), "--k-max", str(10**4), "--out", str(out_file)])
    )
    assert out_file.stat().st_size > 0
    assert dump - records < 0.1 * records, (dump, records)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_spectrum_dump_is_byte_identical_to_a_reference_from_the_records(fmt, tmp_path):
    """A 3,001-k surface dump with 1,600 Dolbeault entries equals json.dumps
    or csv.writer applied to the library's records, sorted by (k, p, tag)."""
    import csv
    import io
    import random

    from etaforge.cohomology import surface_geometry
    from etaforge.hodge import SurfaceHodge
    from etaforge.spectrum import DolbeaultProvider, type1_eigenvalues, type2_records

    rng = random.Random(16)
    r, eps, lower = Fraction(-7, 6), Fraction(1, 10), Fraction(1, 40)
    multiplicities = {}
    while len(multiplicities) < 800:
        mu_sq = lower + Fraction(rng.randint(0, 4000), rng.choice((7, 11, 13, 28)))
        multiplicities[(rng.randint(-1600, 1600), mu_sq)] = rng.randint(0, 3)
    # e^1 = e^0 keeps every alternating sum legal; the entries outside the
    # k-range are checked but not paired
    entries = [(k, p, mu_sq, e) for (k, mu_sq), e in multiplicities.items() for p in (0, 1)]
    rng.shuffle(entries)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"dolbeault": {
        "lower_bound": str(lower), "entries": [[k, p, str(mu_sq), e] for k, p, mu_sq, e in entries],
    }}))
    out_file = tmp_path / f"out.{fmt}"
    assert main([
        "spectrum", "--preset", "surface", "--genus", "2", "--degree", "3", "--h00", "1",
        "--r", str(r), "--eps", str(eps), "--k-min", "-1500", "--k-max", "1500",
        "--config", str(config), "--format", fmt, "--out", str(out_file),
    ]) == 0

    g = surface_geometry(2, 3)
    provider = DolbeaultProvider(tuple(entries), lower, 1)
    records = (type1_eigenvalues(g, SurfaceHodge(2, 3, 1), r, eps, (-1500, 1500))
               + type2_records(provider, r, eps, (-1500, 1500)))
    records.sort(key=lambda rec: (rec.k, rec.p, rec.tag))
    assert len(records) > 4000 and any(rec.value.b for rec in records)
    rows = [
        {"tag": rec.tag, "k": rec.k, "p": rec.p, "multiplicity": rec.multiplicity,
         "a": rec.value.a, "b": rec.value.b, "d": rec.value.d, "mu_sq": rec.mu_sq}
        for rec in records
    ]
    if fmt == "json":
        expected = json.dumps(
            {"schema": "etaforge/1", "command": "spectrum", "geometry": g.label,
             "r": r, "eps": eps, "records": rows},
            sort_keys=True, indent=2, default=str,
        ) + "\n"
    else:
        text = io.StringIO()
        writer = csv.DictWriter(text, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        expected = text.getvalue()
    assert out_file.read_text(encoding="utf-8") == expected


def test_eta_adiabatic_does_not_need_eps(capsys):
    code, out, _ = _run(
        capsys, "eta", "adiabatic", "--preset", "surface", "--genus", "0", "--degree", "2",
        "--r", "7/3",
    )
    assert code == 0
    golden = Path(__file__).resolve().parent / "golden" / "eta_adiabatic.json"
    assert out == golden.read_text(encoding="utf-8")


def test_empty_spectrum_dump_writes_an_empty_records_list(tmp_path):
    """A Hodge table of zeros over the k-range gives no record: the dump is
    json.dumps of its payload, with "records": []."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"hodge": {"type": "table", "table": {
        f"{p},{k}": 0 for p in (0, 1) for k in range(-2, 3)
    }}}))
    out_file = tmp_path / "out.json"
    assert main([
        "spectrum", *_SURFACE_01, "--config", str(config), "--r", "1/3", "--eps", "1/10",
        "--k-min", "-2", "--k-max", "2", "--out", str(out_file),
    ]) == 0
    expected = json.dumps(
        {"schema": "etaforge/1", "command": "spectrum", "geometry": "surface(genus=0, degree=1)",
         "r": "1/3", "eps": "1/10", "records": []},
        sort_keys=True, indent=2,
    ) + "\n"
    assert out_file.read_text(encoding="utf-8") == expected


def test_spectrum_dump_label_cannot_split_the_records_list(tmp_path):
    """A label that holds the text of the records list, a quote and a NUL is
    escaped by json.dumps, so the records still go into the one list."""
    from etaforge.spectrum import type1_eigenvalues

    label = 'x"records": []\n  "records": [] "\u0000'
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"geometry": {
        "m": 1, "top_integral": 1, "c1L": 1, "c1K": -1, "tangent_roots": [2], "label": label,
    }}))
    out_file = tmp_path / "out.json"
    assert main([
        "spectrum", "--config", str(config), "--r", "1/3", "--eps", "1/10",
        "--k-min", "-2", "--k-max", "2", "--out", str(out_file),
    ]) == 0
    args = cli.build_parser().parse_args(["spectrum", "--config", str(config)])
    _, g, hp = cli._load_inputs(args)
    assert g.label == label
    records = type1_eigenvalues(g, hp, Fraction(1, 3), Fraction(1, 10), (-2, 2))
    assert records
    expected = json.dumps(
        {"schema": "etaforge/1", "command": "spectrum", "geometry": label, "r": "1/3",
         "eps": "1/10", "records": [
             {"tag": rec.tag, "k": rec.k, "p": rec.p, "multiplicity": rec.multiplicity,
              "a": rec.value.a, "b": rec.value.b, "d": rec.value.d, "mu_sq": rec.mu_sq}
             for rec in records
         ]},
        sort_keys=True, indent=2, default=str,
    ) + "\n"
    assert out_file.read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("value", [GaussRat(Fraction(1)), object()], ids=["gaussrat", "object"])
def test_a_value_json_has_no_type_for_is_refused(monkeypatch, tmp_path, value):
    """A value that is neither a Fraction nor JSON-native is a TypeError, not
    its repr, and it is raised before the --out file is opened.  (A record
    is a tuple, which JSON writes as a list: the commands convert records
    with _asdict() before they reach the encoder.)"""
    monkeypatch.setattr(cli, "adiabatic_limit", lambda *a: [1, {"v": value}])
    out_file = tmp_path / "out.json"
    out_file.write_bytes(b"earlier output\n")
    with pytest.raises(TypeError, match="cannot write a"):
        main(["eta", "adiabatic", *_SURFACE_01, "--r", "1/3", "--out", str(out_file)])
    assert out_file.read_bytes() == b"earlier output\n"


_PLAIN_PAYLOADS = {
    "literals": {
        "empty": {}, "none": [], "nested": [[], [{}], {"x": [1.5, -2, None, "é✓"]}],
        "tuple": (1, (2.0,)), "é": "\n", "half": Fraction(-1, 2),
    },
    # only the top-level records list is ever filled
    "nested_records_lists": {"a": {"records": []}, "b": [{"records": [1]}, {"records": []}]},
    "records_list_with_no_rows": {"records": [], "label": '\n  "records": []'},
}


@pytest.mark.parametrize("payload", list(_PLAIN_PAYLOADS.values()), ids=list(_PLAIN_PAYLOADS))
def test_emit_writes_a_payload_as_json_dumps_does(capsys, payload):
    cli._emit(payload, None)
    assert capsys.readouterr().out == json.dumps(
        {"schema": cli.SCHEMA, **payload}, sort_keys=True, indent=2, default=str,
    ) + "\n"


@pytest.mark.parametrize("count", [0, 1, 2])
def test_emit_streams_records_as_they_are_drawn(monkeypatch, count):
    """Each record's text is written into the records list before the next
    one is drawn, and the whole is json.dumps of the payload with its records."""
    import io

    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    records = [{"i": i, "s": f'"records": [],\n{{{i}', "v": None} for i in range(count)]

    def texts():
        for i, record in enumerate(records):
            assert out.getvalue().count('"i": ') == i
            # a record's text as it stands at depth 2 of the payload
            yield json.dumps(record, sort_keys=True, indent=2).replace("\n", "\n    ")

    # a records list below the top level comes first, and stays empty
    payload = {"a": {"records": []}, "command": "x", "records": [], "z": [Fraction(1, 3)]}
    cli._emit(payload, None, texts())
    assert out.getvalue() == json.dumps(
        {**payload, "schema": cli.SCHEMA, "records": records, "z": ["1/3"]},
        sort_keys=True, indent=2,
    ) + "\n"


_RAT_TEXTS = [
    "3", "-3", "0", "-0", "007/020", "1/3", "-22/7", "+3", " 3", "3 ", "1_000", "--3", "-",
    "3/-4", "3/+4", "1/0", "0/0", "1 / 2", "1/", "/2", "1/2/3", "", "1.5", "-.5", "1e3",
    "2.5E-1", "٣", "١٢/٣", "3/٤", "²",
    # past int()'s default 4,300-digit limit, where Fraction(str) refuses them too
    "1" * 5000, "-" + "7" * 5000 + "/3", "3/" + "9" * 5000,
]


@pytest.mark.parametrize("text", _RAT_TEXTS, ids=range(len(_RAT_TEXTS)))
def test_rat_reads_what_fraction_reads(text):
    _assert_rat_is_fraction(text)


@settings(max_examples=400, deadline=None)
@given(
    st.text(alphabet="0123456789-+/ _.١٣", max_size=10)
    | st.fractions().map(str)
    | st.integers().map(str)
)
def test_rat_reads_random_text_as_fraction_does(text):
    _assert_rat_is_fraction(text)


def _assert_rat_is_fraction(text):
    """cli._rat gives Fraction(text), or a UsageError exactly where
    Fraction(text) raises."""
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(UsageError):
            cli._rat(text, "x")
    else:
        value = cli._rat(text, "x")
        assert type(value) is Fraction and value == expected


_TEMPLATE_CASES = {
    # p = 0 values k - ε/2 - r = k - 3 are integers, written "n" (not "n/1"),
    # and negative for k < 3
    "integer_values": ([*_SURFACE_01, "--r", "59/20", "--eps", "1/10"], None),
    # m = 2, with type-2 pairs for p = 0 and 1 and none at p = m; the μ² 3 (a
    # JSON integer) and "4" are integers
    "m2": (["--preset", "projective", "--m", "2", "--r", "2/3", "--eps", "1/5"], {
        "hodge": {"type": "table",
                  "table": {f"{p},{k}": (p + k) % 3 for p in range(3) for k in range(-3, 4)}},
        "dolbeault": {"lower_bound": "1/5", "entries": [
            [0, 0, 3, 1], [0, 1, 3, 2], [0, 2, 3, 1], [1, 0, "4", 2], [1, 1, "4", 2],
            [-2, 1, "7/3", 1], [-2, 2, "7/3", 1],
        ]},
    }),
    # δ = 4εμ² at r = 0, k = 0, p = 0: a perfect square for μ² = 5/2 (δ = 1)
    # and μ² = 10 (δ = 4), so those pairs are rational
    "rational_pairs": ([*_SURFACE_01, "--r", "0", "--eps", "1/10"], {
        "dolbeault": {"lower_bound": "1/2", "entries": [
            [0, 0, "5/2", 1], [0, 0, "10", 2], [1, 0, "7/9", 3], [-3, 0, "2", 1],
            [0, 1, "5/2", 1], [0, 1, "10", 2], [1, 1, "7/9", 3], [-3, 1, "2", 1],
        ]},
    }),
    "no_type2": (["--preset", "surface", "--genus", "2", "--degree", "3", "--h00", "1",
                  "--r", "7/5", "--eps", "1/8"], {"dolbeault": {"lower_bound": "1", "entries": []}}),
}


@pytest.mark.parametrize("case", sorted(_TEMPLATE_CASES))
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_spectrum_rows_match_json_dumps_and_csv_writer(case, fmt, tmp_path):
    """The row templates write what json.dumps(sort_keys=True, indent=2) and
    csv.writer write for the same records."""
    import csv
    import io

    from etaforge.spectrum import type1_eigenvalues, type2_records

    flags, config = _TEMPLATE_CASES[case]
    argv = ["spectrum", *flags, "--k-min", "-3", "--k-max", "3"]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    out_file = tmp_path / f"out.{fmt}"
    assert main([*argv, "--format", fmt, "--out", str(out_file)]) == 0

    args = cli.build_parser().parse_args(argv)
    cfg, g, hp = cli._load_inputs(args)
    r, eps = Fraction(args.r), Fraction(args.eps)
    provider = cli._build_dolbeault(cfg, g.m)
    records = type1_eigenvalues(g, hp, r, eps, (-3, 3))
    if provider is not None:
        records += type2_records(provider, r, eps, (-3, 3))
    records.sort(key=lambda rec: (rec.k, rec.p, rec.tag))
    assert records
    header = ["tag", "k", "p", "multiplicity", "a", "b", "d", "mu_sq"]
    rows = [
        [rec.tag, rec.k, rec.p, rec.multiplicity, rec.value.a, rec.value.b, rec.value.d, rec.mu_sq]
        for rec in records
    ]
    if fmt == "json":
        expected = json.dumps(
            {"schema": "etaforge/1", "command": "spectrum", "geometry": g.label, "r": r, "eps": eps,
             "records": [dict(zip(header, row)) for row in rows]},
            sort_keys=True, indent=2, default=str,
        ) + "\n"
    else:
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        expected = text.getvalue()
    assert out_file.read_text(encoding="utf-8") == expected
    values = [rec.value for rec in records]
    if case == "integer_values":
        assert any(v.a.denominator == 1 and v.a < 0 for v in values)
    if case == "rational_pairs":
        assert any(rec.tag != "type1" and rec.value.b == 0 for rec in records)
    if case == "m2":
        assert {rec.p for rec in records if rec.tag != "type1"} == {0, 1}
        assert any(rec.mu_sq is not None and rec.mu_sq.denominator == 1 for rec in records)
    if case == "no_type2":
        assert all(rec.tag == "type1" for rec in records)
