"""Span tracing for the etaforge benchmark, installed from outside the package.

A Tracer wraps the public functions of every etaforge layer module (plus the
two provider lookups ``HodgeProvider.h`` and ``DolbeaultProvider.e``, and the
quadrature routine the measure layer calls) and rebinds each wrapper into
every etaforge module that holds the original under some name, so that
``from .scalars import universal_series`` call sites are traced as well.
Nothing in ``src/`` is edited: wrappers are installed around an op and
removed after it, so the same process can alternate traced and untraced runs
of one op to measure the tracing overhead.

Spans are kept in memory as ``(name, start, end, parent, op)`` tuples, where
``parent`` is the index of the enclosing span (or -1) and ``op`` the id of
the benchmark op that caused it.  A span's self time is its duration minus
the durations of its direct children; a layer's self time is the sum over its
spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("cli", "scalars", "cohomology", "hodge", "spectrum", "flow", "eta", "forms", "measure")

# Per-layer metric -> (unit, better, end-to-end metric and workload it should move).
PER_LAYER = {
    "import.etaforge_s": ("s", "lower", "op_p50_ms on cli_cold; setup_s everywhere"),
    "import.etaforge_measure_s": ("s", "lower", "op_p50_ms on cli_cold; setup_s everywhere"),
    "import.scipy_s": ("s", "lower", "op_p50_ms on cli_cold; setup_s everywhere"),
    "scalars.universal_series.calls": ("count", "lower", "ops_per_s and op_p50_ms on in_process"),
    "scalars.universal_series.distinct": ("count", "lower", "ops_per_s and op_p50_ms on in_process"),
    "scalars.universal_series.useful_ratio": ("ratio", "higher", "ops_per_s and op_p50_ms on in_process"),
    "scalars.self_s": ("s", "lower", "ops_per_s and op_p50_ms on in_process"),
    "cohomology.calls": ("count", "lower", "ops_per_s on in_process"),
    "cohomology.self_s": ("s", "lower", "ops_per_s on in_process"),
    "eta.calls": ("count", "lower", "ops_per_s on in_process"),
    "eta.self_s": ("s", "lower", "ops_per_s on in_process"),
    "eta.calibrate_s": ("s", "lower", "ops_per_s on in_process"),
    "eta.calibrate.candidates": ("count", "lower", "ops_per_s on in_process"),
    "eta.calibrate.aps_checks": ("count", "lower", "ops_per_s on in_process"),
    "flow.closed.calls": ("count", "lower", "op_p50_ms on in_process"),
    "flow.oracle.calls": ("count", "lower", "op_p50_ms on in_process"),
    "flow.crossings": ("count", "lower", "op_p50_ms on in_process"),
    "flow.self_s": ("s", "lower", "op_p50_ms on in_process"),
    "hodge.h.calls": ("count", "lower", "ops_per_s on in_process"),
    "hodge.self_s": ("s", "lower", "ops_per_s on in_process"),
    "spectrum.records": ("count", "higher", "ops_per_s on in_process"),
    "spectrum.provider_e.calls": ("count", "lower", "ops_per_s on in_process"),
    "spectrum.provider_e.scanned": ("count", "lower", "ops_per_s on in_process"),
    "spectrum.provider_e.useful_ratio": ("ratio", "higher", "ops_per_s on in_process"),
    "spectrum.self_s": ("s", "lower", "ops_per_s on in_process"),
    "forms.mat_mul.calls": ("count", "lower", "ops_per_s on in_process"),
    "forms.mat_mul.products": ("count", "lower", "ops_per_s on in_process"),
    "forms.mat_mul.useful_ratio": ("ratio", "higher", "ops_per_s on in_process"),
    "forms.self_s": ("s", "lower", "ops_per_s on in_process"),
    "measure.quad.calls": ("count", "lower", "ops_per_s on in_process; op_tail_ms on cli_cold"),
    "measure.self_s": ("s", "lower", "ops_per_s on in_process; op_tail_ms on cli_cold"),
    "cli.calls": ("count", "lower", "ops_per_s on in_process"),
    "cli.self_s": ("s", "lower", "ops_per_s on in_process"),
    "cli.bytes_out": ("B", "lower", "ops_per_s on in_process"),
    "trace.overhead_ratio": ("ratio", "lower", "none: traced wall time over untraced wall time"),
}


class _CountingEntries(tuple):
    """Dolbeault entry tuple that counts the items a provider lookup scans.

    Iteration is counted only while a ``DolbeaultProvider.e`` span is open,
    so the loops that build records are not counted as lookups.
    """

    tracer: "Tracer"
    lookup_keys: frozenset  # the (k, p, mu_sq) keys, for counting lookups that find one

    def __iter__(self):
        it = tuple.__iter__(self)
        if self.tracer.e_depth == 0:
            return it
        return self._counted(it)

    def _counted(self, it):
        tracer = self.tracer
        for item in it:
            tracer.counts["spectrum.provider_e.scanned"] += 1
            yield item


class _StdoutCounter:
    """Text stream proxy that counts the UTF-8 bytes written through it."""

    def __init__(self, inner, tracer: "Tracer"):
        self._inner = inner
        self._tracer = tracer

    def write(self, text: str) -> int:
        self._tracer.counts["cli.bytes_out"] += len(text.encode("utf-8"))
        return self._inner.write(text)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.e_depth = 0
        self.counts: Counter = Counter()
        self.series_keys: set = set()
        self.series_distinct_done = 0  # distinct keys of processes already merged
        self._patches: list[tuple[object, str, object, object]] = []

    # -- installation -------------------------------------------------------

    def prepare(self) -> None:
        """Import every layer module and build the list of (owner, attr) patches."""
        modules = {layer: importlib.import_module(f"etaforge.{layer}") for layer in LAYERS}
        owners = [m for name, m in sorted(sys.modules.items())
                  if m is not None and (name == "etaforge" or name.startswith("etaforge."))]
        for layer, mod in modules.items():
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue  # re-exported from another layer; traced there
                name = f"{layer}.{attr}"
                self._rebind(obj, self._wrap(name, obj, self._after(name)), owners)
        quad_owner = importlib.import_module("scipy.integrate")
        quad = quad_owner.quad
        self._rebind(quad, self._wrap("measure.quad", quad, None), owners + [quad_owner])

        hodge = modules["hodge"]
        for cls_name, cls in sorted(vars(hodge).items()):
            if (inspect.isclass(cls) and issubclass(cls, hodge.HodgeProvider)
                    and cls is not hodge.HodgeProvider and "h" in vars(cls)):
                original = vars(cls)["h"]
                wrapper = self._wrap(f"hodge.{cls_name}.h", original, None)
                self._patches.append((cls, "h", original, wrapper))
        provider = modules["spectrum"].DolbeaultProvider
        original_e = vars(provider)["e"]
        self._patches.append((provider, "e", original_e, self._wrap_e(original_e)))
        post_init = vars(provider).get("__post_init__")
        if post_init is not None:
            self._patches.append(
                (provider, "__post_init__", post_init, self._wrap_post_init(post_init))
            )

    def _rebind(self, original, wrapper, owners) -> None:
        """Patch every module attribute that holds ``original``, whatever its name."""
        for owner in owners:
            for attr, value in vars(owner).items():
                if value is original:
                    self._patches.append((owner, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, after):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _wrap_e(self, fn):
        traced = self._wrap("spectrum.DolbeaultProvider.e", fn, None)

        @functools.wraps(fn)
        def wrapper(provider, k, p, mu_sq):
            if (k, p, mu_sq) in provider.entries.lookup_keys:
                self.counts["spectrum.provider_e.found"] += 1
            self.e_depth += 1
            try:
                return traced(provider, k, p, mu_sq)
            finally:
                self.e_depth -= 1

        return wrapper

    def _wrap_post_init(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(provider):
            fn(provider)
            entries = _CountingEntries(provider.entries)
            entries.tracer = tracer
            entries.lookup_keys = frozenset(entry[:3] for entry in tuple.__iter__(entries))
            object.__setattr__(provider, "entries", entries)

        return wrapper

    def _after(self, name):
        counts = self.counts
        if name == "scalars.universal_series":
            def after(args, kwargs, result):
                key = (kwargs.get("name", args[0] if args else None),
                       kwargs.get("D", args[1] if len(args) > 1 else None))
                self.series_keys.add(key)
            return after
        if name == "forms.mat_mul":
            def after(args, kwargs, result):
                a, b = args[0], args[1]
                size = len(a)
                counts["forms.mat_mul.products"] += size * size * size
                a_col = [sum(1 for i in range(size) if a[i][k] != 0) for k in range(size)]
                b_row = [sum(1 for x in b[k] if x != 0) for k in range(size)]
                counts["forms.mat_mul.nonzero"] += sum(c * r for c, r in zip(a_col, b_row))
            return after
        if name in ("spectrum.type1_eigenvalues", "spectrum.type2_records"):
            def after(args, kwargs, result):
                counts["spectrum.records"] += len(result)
            return after
        if name in ("flow.flow_in_delta_oracle", "flow.flow_in_s_oracle"):
            def after(args, kwargs, result):
                counts["flow.crossings"] += len(result.crossings)
            return after
        if name == "eta.calibrate":
            def after(args, kwargs, result):
                counts["eta.calibrate.candidates"] += result.candidates_checked
            return after
        return None

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op: int) -> int:
        """Open the root span of one benchmark op."""
        self.op = op
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        self._op_start = time.perf_counter()
        return idx

    def end_op(self, idx: int) -> None:
        end = time.perf_counter()
        self.stack.pop()
        self.spans[idx] = ("bench.op", self._op_start, end, -1, self.op)

    def run_cli_main(self, main, argv):
        """Call ``etaforge.cli.main`` with stdout bytes and ``--out`` file size counted."""
        real = sys.stdout
        sys.stdout = _StdoutCounter(real, self)
        try:
            return main(argv)
        finally:
            sys.stdout = real
            if "--out" in argv:
                out = Path(argv[argv.index("--out") + 1])
                if out.is_file():
                    self.counts["cli.bytes_out"] += out.stat().st_size

    # -- persistence --------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write spans and counters as JSON (one process's trace)."""
        record = {
            "spans": self.spans,
            "counts": dict(self.counts),
            "series_distinct": len(self.series_keys),
        }
        path.write_text(json.dumps(record), encoding="utf-8")

    def merge(self, path: Path, parent: int) -> None:
        """Append a child process's trace, hanging its root spans under ``parent``."""
        record = json.loads(path.read_text(encoding="utf-8"))
        offset = len(self.spans)
        for name, start, end, span_parent, _ in record["spans"]:
            new_parent = parent if span_parent < 0 else span_parent + offset
            self.spans.append((name, start, end, new_parent, self.op))
        self.counts.update(record["counts"])
        self.series_distinct_done += record["series_distinct"]

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- aggregation --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        by_name: Counter = Counter()
        in_calibrate = [False] * len(spans)
        calibrate_s = 0.0
        calibrate_aps = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            layer = name.split(".", 1)[0]
            self_s[layer] += (end - start) - child_time[i]
            calls[layer] += 1
            by_name[name] += 1
            inside = parent >= 0 and in_calibrate[parent]
            in_calibrate[i] = inside or name == "eta.calibrate"
            if name == "eta.calibrate":
                calibrate_s += end - start
            elif name == "eta.aps_difference_check" and inside:
                calibrate_aps += 1

        c = self.counts
        series_calls = by_name["scalars.universal_series"]
        distinct = self.series_distinct_done + len(self.series_keys)
        e_calls = by_name["spectrum.DolbeaultProvider.e"]
        products = c["forms.mat_mul.products"]
        return {
            "scalars.universal_series.calls": series_calls,
            "scalars.universal_series.distinct": distinct,
            "scalars.universal_series.useful_ratio": _ratio(distinct, series_calls),
            "scalars.self_s": self_s["scalars"],
            "cohomology.calls": calls["cohomology"],
            "cohomology.self_s": self_s["cohomology"],
            "eta.calls": calls["eta"],
            "eta.self_s": self_s["eta"],
            "eta.calibrate_s": calibrate_s,
            "eta.calibrate.candidates": c["eta.calibrate.candidates"],
            "eta.calibrate.aps_checks": calibrate_aps,
            "flow.closed.calls": by_name["flow.flow_in_delta_closed"],
            "flow.oracle.calls": by_name["flow.flow_in_delta_oracle"] + by_name["flow.flow_in_s_oracle"],
            "flow.crossings": c["flow.crossings"],
            "flow.self_s": self_s["flow"],
            "hodge.h.calls": sum(n for name, n in by_name.items()
                                 if name.startswith("hodge.") and name.endswith(".h")),
            "hodge.self_s": self_s["hodge"],
            "spectrum.records": c["spectrum.records"],
            "spectrum.provider_e.calls": e_calls,
            "spectrum.provider_e.scanned": c["spectrum.provider_e.scanned"],
            # every lookup is at least one attempt, even when no list is scanned
            "spectrum.provider_e.useful_ratio": _ratio(
                c["spectrum.provider_e.found"], max(c["spectrum.provider_e.scanned"], e_calls)
            ),
            "spectrum.self_s": self_s["spectrum"],
            "forms.mat_mul.calls": by_name["forms.mat_mul"],
            "forms.mat_mul.products": products,
            "forms.mat_mul.useful_ratio": _ratio(c["forms.mat_mul.nonzero"], products),
            "forms.self_s": self_s["forms"],
            "measure.quad.calls": by_name["measure.quad"],
            "measure.self_s": self_s["measure"],
            "cli.calls": calls["cli"],
            "cli.self_s": self_s["cli"],
            "cli.bytes_out": c["cli.bytes_out"],
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
