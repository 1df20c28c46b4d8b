"""Batch command-line front end.

Loads geometry/provider descriptions from a JSON config plus flag overrides
(flags win), runs the computations and verification suites, and emits
deterministic JSON (sorted keys, exact rationals as "p/q" strings) or CSV.

Output is written in pieces as it is rendered, to the --out file or to
stdout, and never held as one string: a spectrum dump keeps its records and
makes each row as it is written, so its memory grows with the records only.
Every input check runs before the output is opened, so a refused input
leaves an existing --out file as it was.

Exit codes: 0 ok, 1 usage, 2 unresolvable data, 3 internal inconsistency.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import re
import sys
from collections.abc import Iterator, Sequence
from dataclasses import asdict
from fractions import Fraction

from .cohomology import Geometry, projective_like_geometry, surface_geometry
from .errors import (
    EtaforgeError,
    InvalidDolbeaultData,
    ProviderConsistencyError,
    UnknownHodgeData,
    UsageError,
)
from .eta import (
    DEFAULT_CONVENTIONS,
    ConventionSet,
    adiabatic_limit,
    aps_difference_check,
    asymptotic_eta,
    calibrate,
    exact_eta,
)
from .flow import flow_in_delta_closed, flow_in_delta_oracle, flow_in_s_oracle
from .hodge import HodgeProvider, HrrVanishingHodge, SurfaceHodge, TableHodge
from .spectrum import DolbeaultProvider, type1_eigenvalues, type2_records

SCHEMA = "etaforge/1"
# widest k-range `spectrum` enumerates; a wider one is refused before any
# record is built, instead of running for minutes
_MAX_SPECTRUM_K_VALUES = 100_000


class _Parser(argparse.ArgumentParser):
    """argparse that signals usage problems via UsageError (exit code 1)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a negative rational such as `--r0 -9/10` is a value, not an option
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _rat(x: Fraction) -> str:
    return str(Fraction(x))


def _parse_rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not an exact rational: {text!r}") from exc


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    return cfg


@contextlib.contextmanager
def _reading_config(block: str):
    """Read a config block: a malformed value in it is a usage error.  Only
    the code that reads and validates the blocks runs under this guard, never
    the maths, so that a bug in the maths is not reported as bad input."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed {block} config: {exc!r}") from exc


def _merged(args: argparse.Namespace, cfg: dict, key: str, default=None):
    """Flag value if given, else config value, else default."""
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    return cfg.get(key, default)


@_reading_config("geometry")
def _build_geometry(args: argparse.Namespace, cfg: dict) -> Geometry:
    geo_cfg = cfg.get("geometry", {})
    preset = _merged(args, geo_cfg, "preset")
    if preset == "surface" or (preset is None and "genus" in geo_cfg) or (
        preset is None and getattr(args, "genus", None) is not None
    ):
        genus = int(_merged(args, geo_cfg, "genus", 0))
        degree = int(_merged(args, geo_cfg, "degree", 1))
        return surface_geometry(genus, degree)
    if preset == "projective":
        m = int(_merged(args, geo_cfg, "m", 1))
        degree = int(_merged(args, geo_cfg, "degree", 1))
        return projective_like_geometry(m, degree)
    if preset is None and geo_cfg:
        # explicit single-generator data
        return Geometry(
            m=int(geo_cfg["m"]),
            top_integral=_parse_rat(str(geo_cfg["top_integral"])),
            c1L=_parse_rat(str(geo_cfg["c1L"])),
            c1K=_parse_rat(str(geo_cfg["c1K"])),
            tangent_roots=tuple(_parse_rat(str(x)) for x in geo_cfg["tangent_roots"]),
            label=str(geo_cfg.get("label", "")),
        )
    raise UsageError("no geometry given: use --preset or a config geometry block")


def _parse_pk_table(raw: dict) -> dict[tuple[int, int], int]:
    table = {}
    for key, value in raw.items():
        p_str, k_str = key.split(",")
        table[(int(p_str), int(k_str))] = int(value)
    return table


@_reading_config("hodge")
def _build_hodge(args: argparse.Namespace, cfg: dict, g: Geometry) -> HodgeProvider:
    hodge_cfg = cfg.get("hodge", {})
    kind = hodge_cfg.get("type")
    h00 = _merged(args, hodge_cfg, "h00")
    if kind == "table":
        return TableHodge(g.m, _parse_pk_table(hodge_cfg.get("table", {})))
    if kind == "hrr" or (kind is None and g.m > 1):
        k0 = int(hodge_cfg.get("k0", 1))
        return HrrVanishingHodge(g, k0, _parse_pk_table(hodge_cfg.get("table", {})))
    if g.m != 1:
        raise UsageError("no hodge provider for this geometry; add a config block")
    genus = (2 - sum(g.tangent_roots)) / 2
    if genus.denominator != 1:
        raise UsageError("surface hodge provider needs integer genus")
    exceptional = _parse_pk_table(hodge_cfg.get("exceptional", {}))
    return SurfaceHodge(
        int(genus), int(g.c1L), None if h00 is None else int(h00), exceptional
    )


@_reading_config("dolbeault")
def _build_dolbeault(cfg: dict) -> DolbeaultProvider | None:
    d_cfg = cfg.get("dolbeault")
    if d_cfg is None:
        return None
    entries = tuple(
        (int(k), int(p), _parse_rat(str(mu_sq)), int(e))
        for k, p, mu_sq, e in d_cfg.get("entries", [])
    )
    return DolbeaultProvider(entries, _parse_rat(str(d_cfg["lower_bound"])))


def _load_conventions(args: argparse.Namespace, cfg: dict) -> ConventionSet:
    path = getattr(args, "conventions", None) or cfg.get("conventions")
    if path is None:
        return DEFAULT_CONVENTIONS
    with _reading_config("conventions"):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read conventions {path}: {exc}") from exc
        knobs = {key: record[key] for key in ("sign_c", "flow_factor")}
        # a knob is a JSON integer: a float is not rounded, and true is no ±1
        if any(type(value) is not int for value in knobs.values()):
            raise ValueError(f"sign_c and flow_factor must be JSON integers: {knobs}")
        scale = _parse_rat(str(record["transgression_scale"]))
        return ConventionSet(**knobs, transgression_scale=scale)


def _conv_record(conv: ConventionSet) -> dict:
    return {
        "sign_c": conv.sign_c,
        "flow_factor": conv.flow_factor,
        "transgression_scale": _rat(conv.transgression_scale),
    }


@contextlib.contextmanager
def _output(path: str | None):
    """The file at `path` opened for writing, or stdout when no path is given.
    A path that cannot be opened is a usage error."""
    if not path:
        yield sys.stdout
        return
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc
    with fh:
        yield fh


# a container holding values of these types only is one C-encoder call
_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.lru_cache(maxsize=None)
def _layout(depth: int):
    """Indentation around the items of a container `depth` levels deep, and a
    C-encoder call that renders a container of scalars at that depth (the item
    separator carries the newline and indentation)."""
    inner = "\n" + "  " * (depth + 1)
    encoder = json.JSONEncoder(sort_keys=True, separators=("," + inner, ": "))
    return inner, "\n" + "  " * depth, encoder.encode


def _write_json(obj, write, depth: int = 0) -> None:
    """Pass json.dumps(obj, sort_keys=True, indent=2), piece by piece, to
    `write`, byte for byte, for a value built from scalars, lists, tuples,
    iterators (rendered as lists) and dicts with string keys.

    CPython's C encoder ignores `indent`, so json.dumps would render every
    record in pure Python.  Here each dict, list or tuple whose values are all
    scalars is one C-encoder call; every other level keeps the recursive
    layout.  An iterator is drawn one item at a time, each item written
    before the next is drawn, so its items are never all alive at once.
    """
    is_dict = isinstance(obj, dict)
    if is_dict or isinstance(obj, (list, tuple)):
        if obj and _SCALARS.issuperset(map(type, obj.values() if is_dict else obj)):
            inner, outer, encode = _layout(depth)
            text = encode(obj)
            write(text[0] + inner + text[1:-1] + outer + text[-1])
            return
    elif not isinstance(obj, Iterator):
        write(json.dumps(obj))
        return
    inner, outer, _ = _layout(depth)
    opening, closing = "{}" if is_dict else "[]"
    if is_dict:
        items = ((json.dumps(key) + ": ", value) for key, value in sorted(obj.items()))
    else:
        items = (("", value) for value in obj)
    sep = opening + inner
    for prefix, value in items:
        write(sep + prefix)
        _write_json(value, write, depth + 1)
        sep = "," + inner
    # an empty container stays literal
    write(opening + closing if sep[0] == opening else outer + closing)


def _dump(obj, path: str | None) -> None:
    """Write obj to the file at `path`, else to stdout, as json.dumps(obj,
    sort_keys=True, indent=2) would, with a final newline."""
    with _output(path) as out:
        _write_json(obj, out.write)
        out.write("\n")


def _emit(payload: dict, args: argparse.Namespace) -> None:
    """Write the payload under the schema tag to --out or stdout."""
    _dump({"schema": SCHEMA, **payload}, args.out)


def _emit_csv(rows, fieldnames: list[str], args: argparse.Namespace) -> None:
    """Write the rows (an iterable of dicts) as CSV to --out or stdout, one
    row at a time."""
    import csv

    with _output(args.out) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows([row[name] for name in fieldnames] for row in rows)


def _require_rat(args: argparse.Namespace, cfg: dict, name: str) -> Fraction:
    value = _merged(args, cfg, name)
    if value is None:
        raise UsageError(f"missing required parameter --{name.replace('_', '-')}")
    return _parse_rat(str(value))


def _crossing_record(c) -> dict:
    return {
        "parameter_value": _rat(c.parameter_value),
        "k": c.k,
        "p": c.p,
        "multiplicity": c.multiplicity,
        "direction": c.direction,
    }


def cmd_eta(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    g = _build_geometry(args, cfg)
    hp = _build_hodge(args, cfg, g)
    conv = _load_conventions(args, cfg)
    # built in every mode, so that invalid Dolbeault data is always refused;
    # only the exact value reads it (for its validity flag)
    provider = _build_dolbeault(cfg)
    # the adiabatic limit does not depend on eps, so that mode does not read it
    eps = None if args.eta_mode == "adiabatic" else _require_rat(args, cfg, "eps")

    if args.eta_mode == "aps-check":
        r0 = _require_rat(args, cfg, "r0")
        r1 = _require_rat(args, cfg, "r1")
        check = aps_difference_check(g, hp, r0, r1, eps, conv)
        _emit(
            {
                "command": "eta aps-check",
                "geometry": g.label,
                "r0": _rat(r0),
                "r1": _rat(r1),
                "eps": _rat(eps),
                "lhs": _rat(check.lhs),
                "rhs": _rat(check.rhs),
                "passed": check.passed,
                "conventions": _conv_record(conv),
            },
            args,
        )
        return 0 if check.passed else 3

    r = _require_rat(args, cfg, "r")
    if args.eta_mode == "adiabatic":
        value = adiabatic_limit(g, hp, r, conv)
        _emit(
            {
                "command": "eta adiabatic",
                "geometry": g.label,
                "r": _rat(r),
                "value": _rat(value),
                "conventions": _conv_record(conv),
            },
            args,
        )
        return 0
    if args.eta_mode == "asymptotic":
        value = asymptotic_eta(g, hp, r, eps, conv)
        _emit(
            {
                "command": "eta asymptotic",
                "geometry": g.label,
                "r": _rat(r),
                "eps": _rat(eps),
                "value": _rat(value),
                "conventions": _conv_record(conv),
            },
            args,
        )
        return 0

    # exact: also cross-check the closed-form delta flow against the oracle
    closed = flow_in_delta_closed(g, hp, r, eps)
    oracle = flow_in_delta_oracle(g, hp, r, eps)
    if closed != oracle.net:
        _emit(
            {
                "command": "eta exact",
                "error": "internal inconsistency: delta-flow closed form "
                f"{closed} != oracle {oracle.net}",
                "geometry": g.label,
                "r": _rat(r),
                "eps": _rat(eps),
            },
            args,
        )
        return 3
    result = exact_eta(g, hp, r, eps, conv, provider)
    _emit(
        {
            "command": "eta exact",
            "geometry": g.label,
            "r": _rat(r),
            "eps": _rat(eps),
            "value": _rat(result.value),
            "adiabatic_limit": _rat(result.adiabatic_limit),
            "flow_term": _rat(result.flow_term),
            "transgression_term": _rat(result.transgression_term),
            "kernel_dim": result.kernel_dim,
            "unreduced": _rat(result.unreduced),
            "validityFlag": result.validity_flag,
            "conventions": _conv_record(conv),
        },
        args,
    )
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    g = _build_geometry(args, cfg)
    hp = _build_hodge(args, cfg, g)
    provider = _build_dolbeault(cfg)
    r = _require_rat(args, cfg, "r")
    eps = _require_rat(args, cfg, "eps")
    k_min = _merged(args, cfg, "k_min")
    k_max = _merged(args, cfg, "k_max")
    if k_min is None or k_max is None:
        raise UsageError("spectrum requires --k-min and --k-max")
    k_range = (int(k_min), int(k_max))
    if k_range[0] > k_range[1]:
        raise UsageError(f"spectrum k-range is empty: --k-min {k_range[0]} > --k-max {k_range[1]}")
    if k_range[1] - k_range[0] + 1 > _MAX_SPECTRUM_K_VALUES:
        raise UsageError(
            f"spectrum k-range [{k_range[0]}, {k_range[1]}] is wider than "
            f"{_MAX_SPECTRUM_K_VALUES} values"
        )
    records = type1_eigenvalues(g, hp, r, eps, k_range)
    if provider is not None:
        records += type2_records(provider, r, eps, g.m, k_range)
    # every record is built, and so every input check has run, before the
    # output is opened; the rows are made one at a time as they are written
    records.sort(key=lambda rec: (rec.k, rec.p, rec.tag))
    # record values are Fractions already, so str() renders them as _rat would
    rows = (
        {
            "tag": rec.tag,
            "k": rec.k,
            "p": rec.p,
            "multiplicity": rec.multiplicity,
            "a": str(rec.value.a),
            "b": str(rec.value.b),
            "d": str(rec.value.d),
            "mu_sq": None if rec.mu_sq is None else str(rec.mu_sq),
        }
        for rec in records
    )
    if args.format == "csv":
        _emit_csv(rows, ["tag", "k", "p", "multiplicity", "a", "b", "d", "mu_sq"], args)
        return 0
    _emit(
        {
            "command": "spectrum",
            "geometry": g.label,
            "r": _rat(r),
            "eps": _rat(eps),
            "records": rows,
        },
        args,
    )
    return 0


def cmd_flow(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    g = _build_geometry(args, cfg)
    hp = _build_hodge(args, cfg, g)
    eps = _require_rat(args, cfg, "eps")
    payload: dict = {"command": "flow", "geometry": g.label, "eps": _rat(eps)}
    exit_code = 0

    r_value = _merged(args, cfg, "r")
    if r_value is not None:
        r = _parse_rat(str(r_value))
        closed = flow_in_delta_closed(g, hp, r, eps)
        oracle = flow_in_delta_oracle(g, hp, r, eps)
        payload["delta_flow"] = {
            "r": _rat(r),
            "closed": closed,
            "oracle_net": oracle.net,
            "crossings": [_crossing_record(c) for c in oracle.crossings],
            "agree": closed == oracle.net,
        }
        if closed != oracle.net:
            exit_code = 3

    r0_value = _merged(args, cfg, "r0")
    r1_value = _merged(args, cfg, "r1")
    if r0_value is not None and r1_value is not None:
        r0, r1 = _parse_rat(str(r0_value)), _parse_rat(str(r1_value))
        result = flow_in_s_oracle(g, hp, r0, r1, eps)
        payload["s_flow"] = {
            "r0": _rat(r0),
            "r1": _rat(r1),
            "net": result.net,
            "crossings": [_crossing_record(c) for c in result.crossings],
        }

    if "delta_flow" not in payload and "s_flow" not in payload:
        raise UsageError("flow requires --r (delta flow) or --r0/--r1 (s flow)")
    if args.format == "csv":
        rows = []
        for variant in ("delta_flow", "s_flow"):
            for c in payload.get(variant, {}).get("crossings", []):
                rows.append({"variant": variant, **c})
        _emit_csv(
            rows,
            ["variant", "parameter_value", "k", "p", "multiplicity", "direction"],
            args,
        )
        return exit_code
    _emit(payload, args)
    return exit_code


_DEFAULT_MEASURE_POINTS = (
    {"n": 1, "lambdas": []},
    {"n": 3, "lambdas": [1.0]},
    {"n": 5, "lambdas": [1.0, 2.0]},
)


def cmd_measure(args: argparse.Namespace) -> int:
    from .measure import ModelPoint, check_lattice_size, laplace_check, near_zero_bound

    cfg = _load_config(args.config)
    # read and validate the whole block before any maths runs
    with _reading_config("measure"):
        m_cfg = cfg.get("measure", {})
        points = [
            ModelPoint(int(raw["n"]), tuple(float(x) for x in raw["lambdas"]))
            for raw in m_cfg.get("points", _DEFAULT_MEASURE_POINTS)
        ]
        t_values = [float(t) for t in m_cfg.get("t", [0.5, 1.0, 2.0])]
        s_max = float(m_cfg.get("s_max", 80.0))
        eps_supports = [float(e) for e in m_cfg.get("eps_support", [0.25, 0.0625, 0.015625])]
    if not (all(0 < t < math.inf for t in t_values) and 0 < s_max < math.inf
            and all(0 < e < 1 for e in eps_supports)):
        raise UsageError("measure t and s_max must be positive and finite, eps_support in (0, 1)")
    for pt in points:
        check_lattice_size(pt, max([s_max / t for t in t_values] + eps_supports, default=0.0))
    laplace_rows = [
        {"n": pt.n, "lambdas": list(pt.lambdas), "t": t, **asdict(laplace_check(pt, t, s_max / t))}
        for pt in points
        for t in t_values
    ]
    near_rows = [
        {"n": pt.n, "lambdas": list(pt.lambdas), "eps_support": e, **asdict(near_zero_bound(pt, e))}
        for pt in points
        for e in eps_supports
    ]
    _emit(
        {"command": "measure check", "laplace": laplace_rows, "near_zero": near_rows},
        args,
    )
    return 0


def cmd_identities(args: argparse.Namespace) -> int:
    from .forms import KahlerModel, identity_suite, trace_expansion_check

    checks = []
    all_ok = True
    for m in (1, 2, 3, 4):
        report = identity_suite(KahlerModel(m))
        for name, ok in report.checks:
            checks.append({"suite": f"tensor_m{m}", "check": name, "passed": ok})
            all_ok = all_ok and ok
    for n_power in (2, 4):
        for m in (1, 2):
            for delta in (Fraction(0), Fraction(1, 3), Fraction(1)):
                report = trace_expansion_check(m, n_power, delta)
                for name, ok in report.checks:
                    checks.append(
                        {
                            "suite": f"trace_N{n_power}_m{m}_delta{_rat(delta)}",
                            "check": name,
                            "passed": ok,
                        }
                    )
                    all_ok = all_ok and ok
    _emit({"command": "identities run", "passed": all_ok, "checks": checks}, args)
    return 0 if all_ok else 3


def cmd_calibrate(args: argparse.Namespace) -> int:
    result = calibrate()
    record = {
        "command": "calibrate",
        "conventions": _conv_record(result.conventions),
        "t1_ok": result.t1_ok,
        "t2_ok": result.t2_ok,
        "t3_ok": result.t3_ok,
        "candidates_checked": result.candidates_checked,
        "note": result.note,
    }
    path = args.conventions or "conventions.json"
    _dump({"schema": SCHEMA, **_conv_record(result.conventions)}, path)
    record["persisted_to"] = path
    _emit(record, args)
    return 0


_FLAGS = {
    "preset": {"choices": ("surface", "projective")},
    "genus": {"type": int},
    "degree": {"type": int},
    "m": {"type": int},
    "h00": {"type": int},
    "config": {},
    "r": {},
    "eps": {},
    "r0": {},
    "r1": {},
    "k-min": {"type": int},
    "k-max": {"type": int},
    "format": {"choices": ("json", "csv"), "default": "json"},
    "conventions": {},
    "out": {},
}
# the flags that choose the geometry and its Hodge data
_INPUT_FLAGS = "preset genus degree m h00 config"


def build_parser() -> _Parser:
    """Each subcommand takes exactly the flags it reads; any other is an error."""
    parser = _Parser(prog="etaforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, mode, func, flags in (
        ("eta", "eta invariant computations",
         ("eta_mode", ("exact", "asymptotic", "adiabatic", "aps-check")),
         cmd_eta, f"{_INPUT_FLAGS} r eps r0 r1 conventions out"),
        ("spectrum", "dump eigenvalue records", None,
         cmd_spectrum, f"{_INPUT_FLAGS} r eps k-min k-max format out"),
        ("flow", "spectral flow, closed form and oracle", None,
         cmd_flow, f"{_INPUT_FLAGS} r eps r0 r1 format out"),
        ("measure", "spectral measure checks", ("measure_mode", ("check",)),
         cmd_measure, "config out"),
        ("identities", "tensor identity suites", ("identities_mode", ("run",)),
         cmd_identities, "out"),
        ("calibrate", "fix the convention knobs", None, cmd_calibrate, "conventions out"),
    ):
        sub_parser = sub.add_parser(name, help=help_text)
        if mode is not None:
            sub_parser.add_argument(mode[0], choices=mode[1])
        for flag in flags.split():
            sub_parser.add_argument(f"--{flag}", **_FLAGS[flag])
        sub_parser.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except EtaforgeError as exc:
        sys.stderr.write(
            json.dumps(
                {"schema": SCHEMA, "error": type(exc).__name__, "detail": str(exc)},
                sort_keys=True,
            )
            + "\n"
        )
        if isinstance(exc, UsageError):
            return 1
        if isinstance(exc, (UnknownHodgeData, InvalidDolbeaultData, ProviderConsistencyError)):
            return 2
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
