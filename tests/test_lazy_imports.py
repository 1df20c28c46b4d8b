"""Lazy submodules: importing the package or running a command that needs
neither ``forms`` nor ``measure`` must not load them (nor scipy), while every
public name still resolves to the same object as before; and ``measure
check`` loads nothing outside the standard library.  No command loads
``dataclasses``, whose import pulls in ``inspect``, ``ast`` and ``dis``.

Each check runs in a fresh interpreter, since this test process has long
since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The public names of the package when it imported every submodule eagerly,
# less the exports removed since on purpose.
PUBLIC_NAMES = sorted("""
ApsCheck CalibrationResult ConventionSet Crossing DEFAULT_CONVENTIONS
DolbeaultProvider EigRecord EndForm EtaValue EtaforgeError FlowResult GaussRat
Geometry HodgeProvider HrrVanishingHodge InvalidDolbeaultData KahlerModel
LaplaceCheck ModelPoint NearZeroBound NoConsistentConvention
ProviderConsistencyError QuadSurd SeriesDomainError SurfaceHodge
TableHodge TruncSeries UnknownHodgeData UsageError adiabatic_limit
aps_difference_check asymptotic_eta build_tensors
calibrate cohomology constant_curvature_block errors eta exact_eta
finite_eta_partial flow flow_in_delta_closed flow_in_delta_oracle
flow_in_s_oracle forms fractional_part hodge hrr_chi
identity_suite index_integral integrate kernel_dimension laplace_check
measure near_zero_bound parity_count parity_expected
projective_like_geometry scalars spectrum surface_geometry
trace_expansion_check transgression type1_eigenvalues type2_eigenvalues
type2_records universal_series validate_epsilon
""".split())


def _python(code: str):
    """Run ``code`` in a fresh interpreter and return the JSON it prints last."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_LOADED = "json.dumps(sorted(m for m in ('scipy', 'etaforge.forms', 'etaforge.measure') if m in sys.modules))"


def test_package_and_cli_import_load_neither_scipy_nor_forms():
    assert _python(f"import json, sys, etaforge, etaforge.cli; print({_LOADED})") == []


def test_eta_exact_command_loads_neither_scipy_nor_forms():
    code = (
        "import json, sys, etaforge.cli\n"
        "assert etaforge.cli.main(['eta', 'exact', '--preset', 'surface', '--genus', '0',"
        " '--degree', '1', '--r', '0', '--eps', '1/10']) == 0\n"
        f"print({_LOADED})"
    )
    assert _python(code) == []


def test_measure_check_loads_only_the_stdlib():
    """A cold ``measure check`` loads no third-party module.  ``site`` may load
    some through .pth files, so a bare interpreter is the baseline."""
    bare = set(_python("import json, sys; print(json.dumps(sorted(sys.modules)))"))
    code = (
        "import io, json, sys, contextlib, etaforge.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert etaforge.cli.main(['measure', 'check']) == 0\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    loaded = set(_python(code)) - bare
    assert "etaforge.measure" in loaded
    foreign = sorted(
        m for m in loaded
        if m.partition(".")[0] not in sys.stdlib_module_names | {"etaforge"}
    )
    assert foreign == []


def test_lazy_names_resolve_to_the_submodule_objects():
    code = (
        "import json, etaforge, etaforge.forms, etaforge.measure\n"
        "ok = [etaforge.laplace_check is etaforge.measure.laplace_check,\n"
        "      etaforge.KahlerModel is etaforge.forms.KahlerModel]\n"
        "for mod, names in etaforge._LAZY.items():\n"
        "    ok += [getattr(etaforge, n) is getattr(getattr(etaforge, mod), n) for n in names]\n"
        "print(json.dumps(ok))"
    )
    ok = _python(code)
    assert len(ok) == 16 and all(ok)


def test_first_access_imports_on_demand():
    code = (
        "import json, sys, etaforge\n"
        "before = 'etaforge.measure' in sys.modules\n"
        "etaforge.near_zero_bound\n"
        "print(json.dumps([before, 'etaforge.measure' in sys.modules, 'etaforge.forms' in sys.modules]))"
    )
    assert _python(code) == [False, True, False]


def test_unknown_name_raises_attribute_error():
    code = (
        "import json, etaforge\n"
        "try:\n"
        "    etaforge.no_such_name\n"
        "    outcome = 'resolved'\n"
        "except AttributeError as exc:\n"
        "    outcome = str(exc)\n"
        "print(json.dumps([outcome, hasattr(etaforge, 'no_such_name')]))"
    )
    outcome, has = _python(code)
    assert "no_such_name" in outcome and not has


def test_dir_and_star_import_expose_the_same_public_names():
    code = (
        "import json, etaforge\n"
        "listed = sorted(n for n in dir(etaforge) if not n.startswith('_'))\n"
        "ns = {}\n"
        "exec('from etaforge import *', ns)\n"
        "starred = sorted(n for n in ns if not n.startswith('_'))\n"
        "print(json.dumps([listed, starred]))"
    )
    listed, starred = _python(code)
    assert listed == PUBLIC_NAMES
    assert starred == PUBLIC_NAMES


def _every_command(tmp_path) -> str:
    """Code that runs every subcommand through ``etaforge.cli.main``, each
    writing under ``tmp_path``, then prints which of ``dataclasses`` and
    ``inspect`` are loaded."""
    surface = ["--preset", "surface", "--genus", "0", "--degree", "1"]
    commands = [
        ["eta", "exact", *surface, "--r", "1/3", "--eps", "1/10"],
        ["eta", "asymptotic", *surface, "--r", "1/3", "--eps", "1/10"],
        ["eta", "adiabatic", *surface, "--r", "1/3"],
        ["eta", "aps-check", *surface, "--r0", "1/3", "--r1", "5/4", "--eps", "1/10"],
        ["spectrum", *surface, "--r", "1/3", "--eps", "1/10", "--k-min", "-3", "--k-max", "3"],
        ["flow", *surface, "--r", "1/3", "--r0", "0", "--r1", "2", "--eps", "1/10"],
        ["measure", "check"],
        ["identities", "run"],
        ["calibrate", "--conventions", str(tmp_path / "conventions.json")],
    ]
    return (
        "import json, sys, etaforge.cli\n"
        f"for n, argv in enumerate({commands!r}):\n"
        f"    out = {str(tmp_path)!r} + f'/out{{n}}.json'\n"
        "    assert etaforge.cli.main([*argv, '--out', out]) == 0, argv\n"
        "print(json.dumps(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules)))"
    )


def test_no_command_loads_dataclasses_or_inspect(tmp_path):
    assert _python(_every_command(tmp_path)) == []


def test_no_command_loads_dataclasses_or_inspect_after_every_submodule(tmp_path):
    assert _python("import etaforge, etaforge.forms, etaforge.measure\n" + _every_command(tmp_path)) == []
