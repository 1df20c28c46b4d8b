"""Batch command-line front end.

Loads geometry/provider descriptions from a JSON config plus flag overrides
(flags win), runs the computations and verification suites, and emits
deterministic JSON (sorted keys) or CSV.  The commands pass library values
into their records as they are: the JSON writer renders an exact rational
(a Fraction) as its "p/q" string, and csv.writer renders it through str(),
which gives the same string; nothing else in this module renders one.

Output is written in pieces as it is rendered, to the --out file or to
stdout, and never held as one string: a spectrum dump keeps its records and
makes its rows as they are written, at most _RUN (64) rows ahead of the
output, so its memory grows with the records only.
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
from collections.abc import Iterator, Sequence
from dataclasses import asdict
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
    """A flag or config value (an integer, "p/q", decimal or float) as a Fraction."""
    try:
        return Fraction(str(value))
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
    except (OSError, json.JSONDecodeError) as exc:
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
def _build_dolbeault(cfg: dict) -> DolbeaultProvider | None:
    d_cfg = cfg.get("dolbeault")
    if d_cfg is None:
        return None
    entries = tuple(
        (_int(k, "k"), _int(p, "p"), _rat(mu_sq, "mu_sq"), _int(e, "multiplicity"))
        for k, p, mu_sq, e in d_cfg.get("entries", [])
    )
    return DolbeaultProvider(entries, _rat(d_cfg["lower_bound"], "lower_bound"))


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


# a container holding values of these types only is one C-encoder call
_SCALARS = frozenset((str, int, float, bool, type(None), Fraction))


def _exact_rational(value) -> str:
    """The encoder's hook for values JSON has no type for: an exact rational
    is written as its "p/q" string, and anything else (a QuadSurd, a
    dataclass) is refused rather than written as its repr."""
    if type(value) is Fraction:
        return str(value)
    raise TypeError(f"cannot write a {type(value).__name__} as JSON")


@functools.lru_cache(maxsize=None)
def _layout(depth: int):
    """Indentation around the items of a container `depth` levels deep, and a
    C-encoder call that renders a container of scalars at that depth (the item
    separator carries the newline and indentation).  The encoder is given
    scalars, containers of scalars and lists of those only, and the hook
    returns strings, so no value it sees can hold itself: it skips the
    circular-reference bookkeeping."""
    inner = "\n" + "  " * (depth + 1)
    encoder = json.JSONEncoder(
        sort_keys=True, separators=("," + inner, ": "), default=_exact_rational,
        check_circular=False,
    )
    return inner, "\n" + "  " * depth, encoder.encode


# the most items of a list or iterator drawn and not yet written: a run of
# flat dicts (non-empty, with scalar values only) is rendered by one C-encoder
# call of at most this many dicts
_RUN = 64


def _runs(values):
    """The items of a list in order, as (run, None) for each run of at most
    _RUN flat dicts and (None, value) for any other item.  A run is yielded as
    soon as it is full or the next item is not a flat dict."""
    run = []
    for value in values:
        if type(value) is dict and value and _SCALARS.issuperset(map(type, value.values())):
            run.append(value)
            if len(run) == _RUN:
                yield run, None
                run = []
            continue
        if run:
            yield run, None
            run = []
        yield None, value
    if run:
        yield run, None


def _render_run(run: list, depth: int) -> str:
    """Flat dicts `depth` levels deep, rendered as consecutive items of their
    list.  One C-encoder call renders the whole run with the dicts' item
    separator, also between the dicts; that one is then replaced by the
    list's.  "}" + separator + "{" occurs nowhere else, because the separator
    holds a newline and JSON escapes every newline inside a string."""
    inner, outer, encode = _layout(depth)
    text = encode(run)
    between = text[2:-2].replace("}," + inner + "{", outer + "}," + outer + "{" + inner)
    return "{" + inner + between + outer + "}"


def _write_json(obj, write, depth: int = 0) -> None:
    """Pass json.dumps(obj, sort_keys=True, indent=2), piece by piece, to
    `write`, byte for byte, for a value built from scalars, lists, tuples,
    iterators (rendered as lists) and dicts with string keys, where every
    Fraction is written as its "p/q" string, as if json.dumps had
    default=str for Fractions only.

    CPython's C encoder ignores `indent`, so json.dumps would render every
    record in pure Python.  Here each dict, list or tuple whose values are all
    scalars is one C-encoder call, and so is each run of up to _RUN flat
    dicts in a list; every other level keeps the recursive layout.  An
    iterator is drawn as it is written: at most _RUN of its items have been
    drawn and not yet written at any time, so its items are never all alive
    at once.
    """
    inner, outer, encode = _layout(depth)
    is_dict = isinstance(obj, dict)
    if is_dict or isinstance(obj, (list, tuple)):
        if obj and _SCALARS.issuperset(map(type, obj.values() if is_dict else obj)):
            text = encode(obj)
            write(text[0] + inner + text[1:-1] + outer + text[-1])
            return
    elif not isinstance(obj, Iterator):
        write(encode(obj))
        return
    opening, closing = "{}" if is_dict else "[]"
    sep = opening + inner
    if is_dict:
        for key, value in sorted(obj.items()):
            write(sep + json.dumps(key) + ": ")
            _write_json(value, write, depth + 1)
            sep = "," + inner
    else:
        for run, value in _runs(obj):
            if run is None:
                write(sep)
                _write_json(value, write, depth + 1)
            else:
                write(sep + _render_run(run, depth + 1))
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


def _emit_csv(rows, header: list[str], args: argparse.Namespace) -> None:
    """Write the header and the rows (an iterable of sequences in the
    header's order) as CSV to --out or stdout, as they are drawn."""
    import csv

    with _output(args.out) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_eta(args: argparse.Namespace) -> int:
    cfg, g, hp = _load_inputs(args)
    conv = _load_conventions(args, cfg)
    # built in every mode, so that invalid Dolbeault data is always refused;
    # only the exact value reads it (for its validity flag)
    provider = _build_dolbeault(cfg)
    mode = args.eta_mode
    record = {"command": f"eta {mode}", "geometry": g.label, "conventions": asdict(conv)}
    # the adiabatic limit does not depend on eps, so that mode does not read it
    if mode != "adiabatic":
        record["eps"] = eps = _param(args, cfg, "eps", _rat, required=True)
    exit_code = 0
    if mode == "aps-check":
        r0 = _param(args, cfg, "r0", _rat, required=True)
        r1 = _param(args, cfg, "r1", _rat, required=True)
        check = aps_difference_check(g, hp, r0, r1, eps, conv)
        record.update(r0=r0, r1=r1, **asdict(check))
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
            # asdict(result) holds conv again under "conventions"
            record.update(asdict(result), unreduced=result.unreduced)
            record["validityFlag"] = record.pop("validity_flag")
    _emit(record, args)
    return exit_code


def cmd_spectrum(args: argparse.Namespace) -> int:
    cfg, g, hp = _load_inputs(args)
    provider = _build_dolbeault(cfg)
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
    type2 = [] if provider is None else type2_records(provider, r, eps, g.m, k_range)
    # type-1 records come in (k, p) order already, so only the type-2 ones
    # are sorted before the two lists are merged
    order = attrgetter("k", "p", "tag")
    type2.sort(key=order)
    # every record is built, and so every input check has run, before the
    # output is opened; the rows are made as they are written
    records = heapq.merge(type1, type2, key=order)
    if args.format == "csv":
        _emit_csv(
            (
                (rec.tag, rec.k, rec.p, rec.multiplicity, rec.value.a, rec.value.b, rec.value.d, rec.mu_sq)
                for rec in records
            ),
            ["tag", "k", "p", "multiplicity", "a", "b", "d", "mu_sq"],
            args,
        )
        return 0
    rows = (
        {
            "tag": rec.tag,
            "k": rec.k,
            "p": rec.p,
            "multiplicity": rec.multiplicity,
            "a": rec.value.a,
            "b": rec.value.b,
            "d": rec.value.d,
            "mu_sq": rec.mu_sq,
        }
        for rec in records
    )
    _emit(
        {
            "command": "spectrum",
            "geometry": g.label,
            "r": r,
            "eps": eps,
            "records": rows,
        },
        args,
    )
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
            "crossings": [asdict(c) for c in oracle.crossings],
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
            "crossings": [asdict(c) for c in result.crossings],
        }

    if "delta_flow" not in payload and "s_flow" not in payload:
        raise UsageError("flow requires --r (delta flow) or --r0/--r1 (s flow)")
    if args.format == "csv":
        header = ["variant", "parameter_value", "k", "p", "multiplicity", "direction"]
        rows = [
            [variant, *(c[name] for name in header[1:])]
            for variant in ("delta_flow", "s_flow")
            for c in payload.get(variant, {}).get("crossings", [])
        ]
        _emit_csv(rows, header, args)
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
                            "suite": f"trace_N{n_power}_m{m}_delta{delta}",
                            "check": name,
                            "passed": ok,
                        }
                    )
                    all_ok = all_ok and ok
    _emit({"command": "identities run", "passed": all_ok, "checks": checks}, args)
    return 0 if all_ok else 3


def cmd_calibrate(args: argparse.Namespace) -> int:
    result = calibrate()
    path = args.conventions or "conventions.json"
    _dump({"schema": SCHEMA, **asdict(result.conventions)}, path)
    _emit({"command": "calibrate", **asdict(result), "persisted_to": path}, args)
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
