"""Batch command-line front end.

Loads geometry/provider descriptions from a JSON config plus flag overrides
(flags win), runs the computations and verification suites, and emits
deterministic JSON (sorted keys) or CSV.  The commands pass library values
into their records as they are, and an exact rational (a Fraction) is
written as its str(), the "p/q" string: by json.dumps (inside quotes) and by
the row templates of a spectrum dump.

Every JSON payload is one json.dumps call, written to the --out file or to
stdout.  A spectrum dump, the one output that grows with its input, is never
held as one string: it keeps its records and renders each row, through one
template per format, as it writes it, so its memory grows with the records
only.
Every input check runs before the output is opened, so a refused input
leaves an existing --out file as it was.

Exit codes: 0 ok, 1 usage, 2 unresolvable data, 3 internal inconsistency.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import heapq
import json
import math
import os
import re
import sys
from collections.abc import Iterable, Sequence
from fractions import Fraction
from operator import attrgetter

from .cohomology import Geometry, projective_like_geometry, surface_geometry
from .errors import (
    CrossCheckFailed,
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


def _int(value, name: str) -> int:
    """A JSON integer or integer flag as it is: no float truncated, no true as 1."""
    if type(value) is not int:
        raise ValueError(f"{name} takes JSON integers only, not {value!r}")
    return value


def _rat(value, name: str) -> Fraction:
    """A flag or config value (an integer, "p/q", decimal or float) as a
    Fraction.  Plain ASCII "n" and "n/d" (an optional minus sign, digits only)
    are read with int(), which skips the regular expression of Fraction(str);
    any other text goes to Fraction(str), which gives the same value."""
    try:
        text = str(value)
        num, slash, den = text.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if text.isascii() and digits.isdigit() and (den.isdigit() or not slash):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{name} is not an exact rational: {str(value)!r}") from exc


def _param(args: argparse.Namespace, cfg: dict, key: str, read, default=None, required=False):
    """The flag `key` if given, else its config value (null is absent), else
    `default`, read by `read`; None when absent and not required."""
    for value in (getattr(args, key, None), cfg.get(key), default):
        if value is not None:
            return read(value, key)
    if required:
        raise UsageError(f"missing required parameter --{key.replace('_', '-')}")
    return None


def _read_json(path: str | None, what: str) -> dict:
    """The JSON object in the file at `path`; no path reads as {}."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError) as exc:
        # ValueError covers malformed JSON, text that is not UTF-8 and an
        # integer past the interpreter's int-string digit limit
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(record, dict):
        raise UsageError(f"{what} must be a JSON object")
    return record


@contextlib.contextmanager
def _reading_config(block: str):
    """Read a config block: a malformed value in it is a usage error.  Only
    the code that reads and validates the blocks runs under this guard, never
    the maths, so that a bug in the maths is not reported as bad input."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed {block} config: {exc!r}") from exc


@_reading_config("geometry")
def _build_geometry(args: argparse.Namespace, cfg: dict) -> Geometry:
    geo_cfg = cfg.get("geometry", {})
    preset = args.preset or geo_cfg.get("preset")
    if preset == "surface" or (preset is None and (args.genus is not None or "genus" in geo_cfg)):
        genus = _param(args, geo_cfg, "genus", _int, 0)
        return surface_geometry(genus, _param(args, geo_cfg, "degree", _int, 1))
    if preset == "projective":
        m = _param(args, geo_cfg, "m", _int, 1)
        return projective_like_geometry(m, _param(args, geo_cfg, "degree", _int, 1))
    if preset is None and geo_cfg:
        # explicit single-generator data
        return Geometry(
            m=_int(geo_cfg["m"], "m"),
            top_integral=_rat(geo_cfg["top_integral"], "top_integral"),
            c1L=_rat(geo_cfg["c1L"], "c1L"),
            c1K=_rat(geo_cfg["c1K"], "c1K"),
            tangent_roots=tuple(_rat(x, "tangent_roots") for x in geo_cfg["tangent_roots"]),
            label=str(geo_cfg.get("label", "")),
        )
    raise UsageError("no geometry given: use --preset or a config geometry block")


def _pk_table(raw: dict) -> dict[tuple[int, int], int]:
    """A {"p,k": value} block as {(p, k): value}; a key is text, not a JSON value."""
    table = {}
    for key, value in raw.items():
        p_str, k_str = key.split(",")
        table[(int(p_str), int(k_str))] = _int(value, f"table value {key}")
    return table


@_reading_config("hodge")
def _build_hodge(args: argparse.Namespace, cfg: dict, g: Geometry) -> HodgeProvider:
    hodge_cfg = cfg.get("hodge", {})
    kind = hodge_cfg.get("type")
    table = _pk_table(hodge_cfg.get("table", {}))
    if kind == "table":
        return TableHodge(g.m, table)
    if kind == "hrr" or (kind is None and g.m > 1):
        return HrrVanishingHodge(g, _int(hodge_cfg.get("k0", 1), "k0"), table)
    if g.m != 1:
        raise UsageError("no hodge provider for this geometry; add a config block")
    genus = (2 - sum(g.tangent_roots)) / 2
    if genus.denominator != 1 or g.c1L.denominator != 1:
        raise UsageError(f"surface hodge provider needs integer genus and degree: {genus}, {g.c1L}")
    h00 = _param(args, hodge_cfg, "h00", _int)
    exceptional = _pk_table(hodge_cfg.get("exceptional", {}))
    return SurfaceHodge(genus.numerator, g.c1L.numerator, h00, exceptional)


@_reading_config("dolbeault")
def _build_dolbeault(cfg: dict, m: int) -> DolbeaultProvider | None:
    d_cfg = cfg.get("dolbeault")
    if d_cfg is None:
        return None
    entries = tuple(
        (_int(k, "k"), _int(p, "p"), _rat(mu_sq, "mu_sq"), _int(e, "multiplicity"))
        for k, p, mu_sq, e in d_cfg.get("entries", [])
    )
    return DolbeaultProvider(entries, _rat(d_cfg["lower_bound"], "lower_bound"), m)


def _load_inputs(args: argparse.Namespace) -> tuple[dict, Geometry, HodgeProvider]:
    """The config, the geometry and its Hodge provider of a command."""
    cfg = _read_json(args.config, "config")
    g = _build_geometry(args, cfg)
    return cfg, g, _build_hodge(args, cfg, g)


def _load_conventions(args: argparse.Namespace, cfg: dict) -> ConventionSet:
    path = args.conventions or cfg.get("conventions")
    if path is None:
        return DEFAULT_CONVENTIONS
    if type(path) is not str:
        # open() would take an integer as a file descriptor: 0 is stdin
        raise UsageError(f"conventions takes a file path, not {path!r}")
    record = _read_json(path, "conventions")
    with _reading_config("conventions"):
        # a knob is a JSON integer: a float is not rounded, and true is no ±1
        return ConventionSet(
            sign_c=_int(record["sign_c"], "sign_c"),
            flow_factor=_int(record["flow_factor"], "flow_factor"),
            transgression_scale=_rat(record["transgression_scale"], "transgression_scale"),
        )


@contextlib.contextmanager
def _output(path: str | None):
    """The file at `path` opened for writing, or stdout when no path is given.
    A path that cannot be opened, or a stdout closed by its reader, is a usage
    error."""
    if not path:
        try:
            yield sys.stdout
            sys.stdout.flush()
        except BrokenPipeError as exc:
            # the interpreter flushes stdout again at exit: let that write go
            # to devnull, so that the JSON error is all that is reported
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise UsageError(f"cannot write stdout: {exc}") from exc
        return
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc
    with fh:
        yield fh


def _exact_rational(value) -> str:
    """The encoder's hook for values JSON has no type for: an exact rational
    is written as its "p/q" string, and anything else (a GaussRat, a set) is
    refused rather than written as its repr.  A record is a tuple, which JSON
    writes as a list, so the commands pass each one as its _asdict()."""
    if type(value) is Fraction:
        return str(value)
    raise TypeError(f"cannot write a {type(value).__name__} as JSON")


# the list of a spectrum dump's records, as its payload is rendered; a raw
# newline is never inside a JSON string, so this text is the structural line
_RECORDS = '\n  "records": []'


def _emit(payload: dict, path: str | None, records: Iterable[str] = ()) -> None:
    """Write the payload under the schema tag to the file at `path`, else to
    stdout, as json.dumps(sort_keys=True, indent=2) writes it, with every
    Fraction as its "p/q" string and a final newline.  A spectrum dump's
    payload holds "records": [], and its `records`, the JSON text of each
    record, are written into that list one at a time, as they are drawn."""
    text = json.dumps({"schema": SCHEMA, **payload}, sort_keys=True, indent=2, default=_exact_rational)
    head, found, tail = text.partition(_RECORDS)
    with _output(path) as out:
        out.write(head)
        if found:
            out.write(_RECORDS[:-1])
            sep = "\n    "
            for record in records:
                out.write(sep + record)
                sep = ",\n    "
            # an empty list stays literal
            out.write("]" if sep[0] == "\n" else "\n  ]")
        out.write(tail + "\n")


def _emit_csv(rows, header: Sequence[str], path: str | None) -> None:
    """Write the header and the rows (an iterable of tuples in the header's
    order) as CSV to the file at `path`, else to stdout, as they are drawn, through one row
    template.  The str() of every value is written as it is, as csv.writer
    writes it when it needs no quoting: the rows hold numbers and fixed words
    only, and "" for an empty field."""
    template = ",".join(["%s"] * len(header)) + "\n"
    with _output(path) as out:
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(template % row)


def cmd_eta(args: argparse.Namespace) -> int:
    cfg, g, hp = _load_inputs(args)
    conv = _load_conventions(args, cfg)
    # built in every mode, so that invalid Dolbeault data is always refused;
    # only the exact value reads it (for its validity flag)
    provider = _build_dolbeault(cfg, g.m)
    mode = args.eta_mode
    record = {"command": f"eta {mode}", "geometry": g.label, "conventions": conv._asdict()}
    # the adiabatic limit does not depend on eps, so that mode does not read it
    if mode != "adiabatic":
        record["eps"] = eps = _param(args, cfg, "eps", _rat, required=True)
    exit_code = 0
    if mode == "aps-check":
        r0 = _param(args, cfg, "r0", _rat, required=True)
        r1 = _param(args, cfg, "r1", _rat, required=True)
        check = aps_difference_check(g, hp, r0, r1, eps, conv)
        record.update(r0=r0, r1=r1, **check._asdict())
        exit_code = 0 if check.passed else 3
    else:
        record["r"] = r = _param(args, cfg, "r", _rat, required=True)
        if mode == "adiabatic":
            record["value"] = adiabatic_limit(g, hp, r, conv)
        elif mode == "asymptotic":
            record["value"] = asymptotic_eta(g, hp, r, eps, conv)
        else:
            result = exact_eta(g, hp, r, eps, conv, provider)
            # the flow term printed is checked against the brute-force oracle
            oracle = flow_in_delta_oracle(g, hp, r, eps)
            if result.flow_term != oracle.net:
                raise CrossCheckFailed(
                    f"delta-flow closed form {result.flow_term} != oracle {oracle.net}"
                )
            record.update(
                result._asdict(), conventions=conv._asdict(), unreduced=result.unreduced
            )
            record["validityFlag"] = record.pop("validity_flag")
    _emit(record, args.out)
    return exit_code


# the fields of a spectrum row, in CSV column order
_SPECTRUM_KEYS = ("tag", "k", "p", "multiplicity", "a", "b", "d", "mu_sq")
# one record of a JSON spectrum dump, two levels deep, as json.dumps lays it
# out: the values go in sorted-key order, the tag and the rationals a, b, d
# inside quotes, and mu_sq as '"p/q"' or null
_SPECTRUM_RECORD = "{" + ",".join(
    f'\n      "{key}": ' + ('"%s"' if key in ("tag", "a", "b", "d") else "%s")
    for key in sorted(_SPECTRUM_KEYS)
) + "\n    }"


def cmd_spectrum(args: argparse.Namespace) -> int:
    cfg, g, hp = _load_inputs(args)
    provider = _build_dolbeault(cfg, g.m)
    r = _param(args, cfg, "r", _rat, required=True)
    eps = _param(args, cfg, "eps", _rat, required=True)
    with _reading_config("spectrum"):
        k_range = tuple(_param(args, cfg, key, _int, required=True) for key in ("k_min", "k_max"))
    if k_range[0] > k_range[1]:
        raise UsageError(f"spectrum k-range is empty: --k-min {k_range[0]} > --k-max {k_range[1]}")
    if k_range[1] - k_range[0] + 1 > _MAX_SPECTRUM_K_VALUES:
        raise UsageError(
            f"spectrum k-range [{k_range[0]}, {k_range[1]}] is wider than "
            f"{_MAX_SPECTRUM_K_VALUES} values"
        )
    type1 = type1_eigenvalues(g, hp, r, eps, k_range)
    type2 = [] if provider is None else type2_records(provider, r, eps, k_range)
    # type-1 records come in (k, p) order already, so only the type-2 ones
    # are sorted before the two lists are merged
    order = attrgetter("k", "p", "tag")
    type2.sort(key=order)
    # every record is built, and so every input check has run, before the
    # output is opened; the rows are made as they are written
    records = heapq.merge(type1, type2, key=order)
    if args.format == "csv":
        rows = (
            (rec.tag, rec.k, rec.p, rec.multiplicity, rec.value.a, rec.value.b, rec.value.d,
             "" if rec.mu_sq is None else rec.mu_sq)
            for rec in records
        )
        _emit_csv(rows, _SPECTRUM_KEYS, args.out)
        return 0
    rows = (
        _SPECTRUM_RECORD % (rec.value.a, rec.value.b, rec.value.d, rec.k,
                            "null" if rec.mu_sq is None else '"%s"' % rec.mu_sq,
                            rec.multiplicity, rec.p, rec.tag)
        for rec in records
    )
    payload = {"command": "spectrum", "geometry": g.label, "r": r, "eps": eps, "records": []}
    _emit(payload, args.out, rows)
    return 0


def cmd_flow(args: argparse.Namespace) -> int:
    cfg, g, hp = _load_inputs(args)
    eps = _param(args, cfg, "eps", _rat, required=True)
    payload: dict = {"command": "flow", "geometry": g.label, "eps": eps}
    exit_code = 0

    r = _param(args, cfg, "r", _rat)
    if r is not None:
        closed = flow_in_delta_closed(g, hp, r, eps)
        oracle = flow_in_delta_oracle(g, hp, r, eps)
        payload["delta_flow"] = {
            "r": r,
            "closed": closed,
            "oracle_net": oracle.net,
            "crossings": [c._asdict() for c in oracle.crossings],
            "agree": closed == oracle.net,
        }
        if closed != oracle.net:
            exit_code = 3

    r0, r1 = _param(args, cfg, "r0", _rat), _param(args, cfg, "r1", _rat)
    if r0 is not None and r1 is not None:
        result = flow_in_s_oracle(g, hp, r0, r1, eps)
        payload["s_flow"] = {
            "r0": r0,
            "r1": r1,
            "net": result.net,
            "crossings": [c._asdict() for c in result.crossings],
        }

    if "delta_flow" not in payload and "s_flow" not in payload:
        raise UsageError("flow requires --r (delta flow) or --r0/--r1 (s flow)")
    if args.format == "csv":
        header = ["variant", "parameter_value", "k", "p", "multiplicity", "direction"]
        rows = [
            (variant, *(c[name] for name in header[1:]))
            for variant in ("delta_flow", "s_flow")
            for c in payload.get(variant, {}).get("crossings", [])
        ]
        _emit_csv(rows, header, args.out)
        return exit_code
    _emit(payload, args.out)
    return exit_code


_DEFAULT_MEASURE_POINTS = (
    {"n": 1, "lambdas": []},
    {"n": 3, "lambdas": [1.0]},
    {"n": 5, "lambdas": [1.0, 2.0]},
)


def cmd_measure(args: argparse.Namespace) -> int:
    from .measure import ModelPoint, check_lattice_size, laplace_check, near_zero_bound

    cfg = _read_json(args.config, "config")
    # read and validate the whole block before any maths runs
    with _reading_config("measure"):
        m_cfg = cfg.get("measure", {})
        points = [
            ModelPoint(_int(raw["n"], "n"), tuple(float(x) for x in raw["lambdas"]))
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
        {"n": pt.n, "lambdas": list(pt.lambdas), "t": t, **laplace_check(pt, t, s_max / t)._asdict()}
        for pt in points
        for t in t_values
    ]
    near_rows = [
        {"n": pt.n, "lambdas": list(pt.lambdas), "eps_support": e, **near_zero_bound(pt, e)._asdict()}
        for pt in points
        for e in eps_supports
    ]
    _emit(
        {"command": "measure check", "laplace": laplace_rows, "near_zero": near_rows},
        args.out,
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
                            "suite": f"trace_N{n_power}_m{m}_delta{delta}",
                            "check": name,
                            "passed": ok,
                        }
                    )
                    all_ok = all_ok and ok
    _emit({"command": "identities run", "passed": all_ok, "checks": checks}, args.out)
    return 0 if all_ok else 3


def cmd_calibrate(args: argparse.Namespace) -> int:
    result = calibrate()
    path = args.conventions or "conventions.json"
    payload = {"command": "calibrate", **result._asdict(), "persisted_to": path}
    payload["conventions"] = payload["conventions"]._asdict()
    _emit(payload["conventions"], path)
    _emit(payload, args.out)
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


@functools.lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """Each subcommand takes exactly the flags it reads; any other is an error.
    Built once per process: parsing leaves the parser as it was, and the
    parser holds no command function (main looks cmd_<command> up per call)."""
    parser = _Parser(prog="etaforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, mode, flags in (
        ("eta", "eta invariant computations",
         ("eta_mode", ("exact", "asymptotic", "adiabatic", "aps-check")),
         f"{_INPUT_FLAGS} r eps r0 r1 conventions out"),
        ("spectrum", "dump eigenvalue records", None,
         f"{_INPUT_FLAGS} r eps k-min k-max format out"),
        ("flow", "spectral flow, closed form and oracle", None,
         f"{_INPUT_FLAGS} r eps r0 r1 format out"),
        ("measure", "spectral measure checks", ("measure_mode", ("check",)), "config out"),
        ("identities", "tensor identity suites", ("identities_mode", ("run",)), "out"),
        ("calibrate", "fix the convention knobs", None, "conventions out"),
    ):
        sub_parser = sub.add_parser(name, help=help_text)
        if mode is not None:
            sub_parser.add_argument(mode[0], choices=mode[1])
        for flag in flags.split():
            sub_parser.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # looked up per call, so that a command replaced after the parser was
        # built (a test double, a tracing wrapper) is the one that runs
        return globals()[f"cmd_{args.command}"](args)
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
