"""Golden CLI outputs: stdout of a cold ``python -m etaforge.cli`` process, and
the file it writes through ``--out``, must match the bytes stored in
``tests/golden/`` exactly.

Each fixture ``tests/golden/<name>`` holds the stdout of ``COMMANDS[name]``,
run from a directory that contains the config files of ``CONFIGS`` below.  Any
refactor or deletion must leave these bytes unchanged; a change of output is
a change of the fixtures, made on purpose and recorded as such.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

SURFACE_01 = ["--preset", "surface", "--genus", "0", "--degree", "1"]

CONFIGS = {
    "cfg.json": {
        "geometry": {"preset": "surface", "genus": 0, "degree": 1},
        "dolbeault": {
            "lower_bound": "1/2",
            "entries": [[0, 0, "1/2", 1], [0, 1, "1/2", 1], [1, 0, "3", 2], [1, 1, "3", 2]],
        },
    },
    # at r = 0, eps = 1/10 the type-2 discriminant is 1, so the pair is rational
    "square.json": {
        "geometry": {"preset": "surface", "genus": 0, "degree": 1},
        "dolbeault": {"lower_bound": "5/2", "entries": [[0, 0, "5/2", 1], [0, 1, "5/2", 1]]},
    },
    # explicit m = 3 data with fractional roots and a declared Hodge table at
    # k = 2, 3, so that the integer-r adiabatic path reads its correction
    "custom3.json": {
        "geometry": {
            "m": 3, "top_integral": 2, "c1L": "3/2", "c1K": -1,
            "tangent_roots": [1, "2/3", "1/3"], "label": "custom(m=3)",
        },
        "hodge": {
            "type": "table",
            "table": {
                "0,2": 9, "1,2": 1, "2,2": 0, "3,2": 0,
                "0,3": 30, "1,3": 0, "2,3": 2, "3,3": 0,
            },
        },
    },
}

COMMANDS = {
    "eta_exact.json": ["eta", "exact", *SURFACE_01, "--r", "0", "--eps", "1/10"],
    "eta_exact_genus2.json": [
        "eta", "exact", "--preset", "surface", "--genus", "2", "--degree", "3",
        "--h00", "1", "--r", "7/3", "--eps", "1/7",
    ],
    "eta_exact_projective3.json": [
        "eta", "exact", "--preset", "projective", "--m", "3", "--r", "7/3", "--eps", "1/10",
    ],
    "eta_exact_projective5.json": [
        "eta", "exact", "--preset", "projective", "--m", "5", "--degree", "2",
        "--r", "9/4", "--eps", "1/7",
    ],
    "eta_exact_custom3.json": [
        "eta", "exact", "--config", "custom3.json", "--r", "5/2", "--eps", "1/7",
    ],
    "eta_adiabatic_custom3.json": ["eta", "adiabatic", "--config", "custom3.json", "--r", "2"],
    "eta_asymptotic.json": [
        "eta", "asymptotic", "--preset", "surface", "--genus", "1", "--degree", "2",
        "--r", "5/3", "--eps", "1/100",
    ],
    # a large r at m = 3, where the sum over k ≤ ⌈r + εm/2⌉ − 1 has 33,333 terms
    "eta_asymptotic_projective3.json": [
        "eta", "asymptotic", "--preset", "projective", "--m", "3", "--r", "100001/3",
        "--eps", "1/10",
    ],
    "eta_adiabatic.json": [
        "eta", "adiabatic", "--preset", "surface", "--genus", "0", "--degree", "2",
        "--r", "7/3", "--eps", "1/10",
    ],
    "eta_aps_check.json": [
        "eta", "aps-check", *SURFACE_01, "--r0", "1/3", "--r1", "5/2", "--eps", "1/10",
    ],
    "flow_delta.json": [
        "flow", "--preset", "surface", "--genus", "1", "--degree", "1",
        "--r", "9/4", "--eps", "1/10",
    ],
    "flow_s.json": [
        "flow", "--preset", "surface", "--genus", "0", "--degree", "2",
        "--r0", "1/3", "--r1", "17/6", "--eps", "1/5",
    ],
    "flow_both.csv": [
        "flow", *SURFACE_01, "--r", "3/2", "--r0", "1/3", "--r1", "5/2",
        "--eps", "1/10", "--format", "csv",
    ],
    "spectrum.json": [
        "spectrum", "--config", "cfg.json", "--r", "1/3", "--eps", "1/10",
        "--k-min", "-3", "--k-max", "3",
    ],
    "spectrum_empty.json": [
        "spectrum", *SURFACE_01, "--r", "0", "--eps", "1/10", "--k-min", "0", "--k-max", "0",
    ],
    "spectrum_square.json": [
        "spectrum", "--config", "square.json", "--r", "0", "--eps", "1/10",
        "--k-min", "-1", "--k-max", "1",
    ],
    "spectrum.csv": [
        "spectrum", *SURFACE_01, "--r", "1/3", "--eps", "1/10",
        "--k-min", "-5", "--k-max", "5", "--format", "csv",
    ],
    "measure_check.json": ["measure", "check"],
    "identities_run.json": ["identities", "run"],
    # writes conventions.json into the working directory as well
    "calibrate.json": ["calibrate"],
}


def run_cli(argv, cwd: Path) -> subprocess.CompletedProcess:
    for name, config in CONFIGS.items():
        (cwd / name).write_text(json.dumps(config), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-m", "etaforge.cli", *argv],
        cwd=cwd, env=env, capture_output=True, timeout=300,
    )


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_stdout_matches_golden(name, tmp_path):
    golden = (GOLDEN / name).read_bytes()
    proc = run_cli(COMMANDS[name], tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == golden
    # every golden command takes --out, and writes the same bytes there
    out_file = tmp_path / "out"
    proc = run_cli([*COMMANDS[name], "--out", str(out_file)], tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"" and out_file.read_bytes() == golden


def test_every_golden_fixture_has_a_command():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(COMMANDS)
