"""The seeded benchmark workloads and their output checks.

Every workload is a closed loop with one client: the next op starts only
after the previous one finished.  Inputs come from ``random.Random(seed)``
only, so one seed always gives the same op sequence.  Each op's output is
checked after the timed loop against a reference that does not share the
timed code path (brute-force oracles, closed forms computed here, or the
in-process library for the cold CLI).

Sizes stay far below the ``spectrum --k-max 3000000`` hang.  APS windows
never end on a type-1 kernel point r = k ± ε/2: ``aps_difference_check``
fails there (for example surface(0,1) on [7/12, 9/10] at ε = 1/5), a defect
of the package that this benchmark does not measure.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path

# (genus, degree) pairs whose only moduli-dependent Hodge number is h^{0,0}
SURFACES = ((0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
EPS = (F(1, 100), F(1, 20), F(1, 10), F(1, 8), F(1, 7), F(1, 5), F(1, 4))
DENOMS = (1, 2, 3, 4, 5, 6, 12)


@dataclass
class Context:
    root: Path      # checkout root, holding src/ and perfbench/
    tmp: Path       # scratch directory inside the checkout, removed after the run
    seed: int
    smoke: bool = False

    def env(self) -> dict:
        src = str(self.root / "src")
        old = os.environ.get("PYTHONPATH")
        return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))


@dataclass
class Op:
    kind: str
    params: dict = field(default_factory=dict)


def _surface(rng: random.Random) -> tuple[int, int, int | None]:
    genus, degree = rng.choice(SURFACES)
    return genus, degree, (None if genus == 0 else rng.randint(0, 1))


def _rat(rng: random.Random, lo: int, hi: int) -> F:
    den = rng.choice(DENOMS)
    return F(rng.randint(lo * den, hi * den), den)


def _window(rng: random.Random, eps: F) -> tuple[F, F]:
    """An APS window [r0, r1] whose endpoints are not type-1 kernel points."""
    while True:
        r0 = _rat(rng, 0, 6)
        r1 = r0 + F(rng.randint(1, 48), 12)
        if all((r + eps / 2).denominator > 1 and (r - eps / 2).denominator > 1 for r in (r0, r1)):
            return r0, r1


def surface_h0(genus: int, degree: int, h00: int | None, k: int) -> int:
    """h^0(K^{1/2} ⊗ L^k) on a genus-g curve, by Riemann-Roch and vanishing."""
    kl, gm1 = k * degree, genus - 1
    if kl > gm1:
        return kl
    if kl < -gm1:
        return 0
    if k == 0 and h00 is not None:
        return h00
    raise ValueError(f"h^(0,{k}) is moduli-dependent on genus {genus}")


def surface_h(genus: int, degree: int, h00: int | None, p: int, k: int) -> int:
    return surface_h0(genus, degree, h00, k if p == 0 else -k)


class Workload:
    name = ""
    modules: tuple[str, ...] = ()   # etaforge modules the workload imports
    in_process = True
    fixed_rounds = 1   # rounds of a traced or smoke run, which have a fixed op count
    passes = 4         # timed passes of an untraced run; an op keeps its best latency

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.rng = random.Random(f"{self.name}:{ctx.seed}")
        if ctx.smoke:
            self.fixed_rounds = 1

    def setup(self) -> None:
        self.mods = {m.rsplit(".", 1)[-1]: importlib.import_module(m) for m in self.modules}

    def warm_up_op(self) -> Op:
        return self.round(random.Random(f"{self.name}:{self.ctx.seed}:warm-up"))[0]

    def ops(self):
        """Endless op sequence: the seeded rounds one after another."""
        while True:
            yield from self.round(self.rng)

    def fixed_ops(self) -> list[Op]:
        ops: list[Op] = []
        for _ in range(self.fixed_rounds):
            ops.extend(self.round(self.rng))
        return ops

    def round(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op, tracer=None):
        raise NotImplementedError

    def check(self, op: Op, out) -> str | None:
        """None when the output is right, else a description of the mismatch."""
        raise NotImplementedError

    def sizes(self) -> dict:
        return {}


# -- in_process: eta sweep, spectrum dumps and verification suites -----------


class EtaSweep(Workload):
    """Exact and asymptotic eta with the delta-flow oracle at seeded surface
    points, APS windows, and formal projective-like geometries (m = 2..5)."""

    name = "eta_sweep"
    modules = ("etaforge.cohomology", "etaforge.hodge", "etaforge.flow", "etaforge.eta")
    POINTS, WINDOWS, PROJECTIVE = 12, 2, 2

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self._proj_m = 0

    def round(self, rng):
        ops = []
        for _ in range(self.POINTS):
            genus, degree, h00 = _surface(rng)
            ops.append(Op("point", dict(genus=genus, degree=degree, h00=h00,
                                        r=_rat(rng, 0, 8), eps=rng.choice(EPS))))
        for _ in range(self.WINDOWS):
            genus, degree, h00 = _surface(rng)
            eps = rng.choice(EPS)
            r0, r1 = _window(rng, eps)
            ops.append(Op("aps", dict(genus=genus, degree=degree, h00=h00, r0=r0, r1=r1, eps=eps)))
        for _ in range(self.PROJECTIVE):
            m = 2 + self._proj_m % 4  # every round mix holds m = 2..5 equally often
            self._proj_m += 1
            r = F(rng.randint(1, 95), 12)
            if r.denominator == 1:
                r += F(1, 7)
            table = {(p, k): rng.randint(0, 3) for p in range(m + 1) for k in range(-4, 15)}
            ops.append(Op("projective", dict(m=m, r=r, eps=rng.choice(EPS), table=table)))
        return ops

    def run(self, op, tracer=None):
        coh, hodge, flow, eta = (self.mods[k] for k in ("cohomology", "hodge", "flow", "eta"))
        p = op.params
        if op.kind == "projective":
            g = coh.projective_like_geometry(p["m"])
            hp = hodge.TableHodge(p["m"], p["table"])
            return (
                eta.transgression(g, p["eps"]),
                eta.adiabatic_limit(g, hp, p["r"]),
                flow.flow_in_delta_closed(g, hp, p["r"], p["eps"]),
                flow.flow_in_delta_oracle(g, hp, p["r"], p["eps"]).net,
            )
        g = coh.surface_geometry(p["genus"], p["degree"])
        hp = hodge.SurfaceHodge(p["genus"], p["degree"], h00=p["h00"])
        if op.kind == "aps":
            return eta.aps_difference_check(g, hp, p["r0"], p["r1"], p["eps"])
        value = eta.exact_eta(g, hp, p["r"], p["eps"])
        return (
            value,
            eta.asymptotic_eta(g, hp, p["r"], p["eps"]),
            flow.flow_in_delta_closed(g, hp, p["r"], p["eps"]),
            flow.flow_in_delta_oracle(g, hp, p["r"], p["eps"]).net,
        )

    def check(self, op, out):
        p = op.params
        if op.kind == "aps":
            return None if out.passed else f"APS relation failed: {out.lhs} != {out.rhs}"
        if op.kind == "projective":
            trans, adia, closed, oracle = out
            if not (isinstance(trans, F) and isinstance(adia, F)):
                return "non-rational transgression or adiabatic limit"
            return None if closed == oracle else f"delta flow closed {closed} != oracle {oracle}"
        value, asym, closed, oracle = out
        if not closed == oracle == value.flow_term:
            return f"delta flow closed {closed}, oracle {oracle}, eta term {value.flow_term}"
        # on a surface ch(K)·td has no degree-1 part, so the asymptotic
        # expression is l·(r²/2 - n(n+1)/2) with n = ⌊r + ε/2⌋
        n = math.floor(p["r"] + p["eps"] / 2)
        expected = p["degree"] * (p["r"] ** 2 / 2 - F(n * (n + 1), 2))
        return None if asym == expected else f"asymptotic {asym} != {expected}"

    def sizes(self):
        return {"point": self.POINTS, "aps": self.WINDOWS, "projective": self.PROJECTIVE}


# -- spectrum dumps and verification suites ----------------------------------


class SpectrumDump(Workload):
    """In-process ``spectrum`` commands writing JSON or CSV into the scratch dir."""

    name = "spectrum_dump"
    modules = ("etaforge.cli",)
    CONFIGS, K_HALF, KEYS = 4, 1500, 1000

    def _size(self) -> tuple[int, int]:
        """Half-width of the k-range and number of Dolbeault (k, mu_sq) keys."""
        return (40, 30) if self.ctx.smoke else (self.K_HALF, self.KEYS)

    def setup(self) -> None:
        super().setup()
        k_half, keys = self._size()
        rng = random.Random(f"{self.name}:{self.ctx.seed}:configs")
        self.configs = []
        for c in range(self.CONFIGS):
            genus, degree, h00 = _surface(rng)
            eps = rng.choice(EPS)
            lower = eps / 8 + F(1, 1000)
            shift = rng.randint(-50, 50)
            dolbeault = {}
            while len(dolbeault) < keys:
                k = rng.randint(shift - k_half, shift + k_half)
                mu_sq = lower + F(rng.randint(0, 4000), rng.choice((7, 11, 13)))
                dolbeault[(k, mu_sq)] = rng.randint(0, 3)
            # e^1 = e^0 on each nonzero eigenvalue (the complex is exact there),
            # so d^0 = e^0 >= 0 and d^1 = 0
            entries = [[k, p, str(mu_sq), e] for (k, mu_sq), e in dolbeault.items() for p in (0, 1)]
            rng.shuffle(entries)
            cfg = {
                "geometry": {"preset": "surface", "genus": genus, "degree": degree},
                "hodge": {} if h00 is None else {"h00": h00},
                "r": str(_rat(rng, -3, 3)),
                "eps": str(eps),
                "k_min": shift - k_half,
                "k_max": shift + k_half,
                "dolbeault": {"entries": entries, "lower_bound": str(lower)},
            }
            path = self.ctx.tmp / f"spectrum-config-{c}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            self.configs.append((path, cfg))
        self._expected: dict[int, tuple] = {}
        self._n = 0

    def run(self, op, tracer=None):
        self._n += 1
        out = self.ctx.tmp / f"spectrum-{self._n}.{op.params['format']}"
        argv = ["spectrum", "--config", str(self.configs[op.params["config"]][0]),
                "--format", op.params["format"], "--out", str(out)]
        main = self.mods["cli"].main
        code = tracer.run_cli_main(main, argv) if tracer is not None else main(argv)
        return code, out

    def _expected_records(self, c: int):
        if c not in self._expected:
            cfg = self.configs[c][1]
            geo = cfg["geometry"]
            genus, degree, h00 = geo["genus"], geo["degree"], cfg["hodge"].get("h00")
            r, eps = F(cfg["r"]), F(cfg["eps"])
            type1 = {}
            for k in range(cfg["k_min"], cfg["k_max"] + 1):
                for p in (0, 1):
                    h = surface_h(genus, degree, h00, p, k)
                    if h:
                        type1[(k, p)] = (h, (-1) ** p * (k + eps * (p - F(1, 2)) - r))
            type2 = {}
            for k, p, mu_sq, e in cfg["dolbeault"]["entries"]:
                if p == 0 and e:
                    type2[(k, 0, F(mu_sq))] = e
            self._expected[c] = (type1, type2, r, eps)
        return self._expected[c]

    def check(self, op, out):
        code, path = out
        if code != 0:
            return f"exit code {code}"
        text = path.read_text(encoding="utf-8")
        if op.params["format"] == "json":
            payload = json.loads(text)
            if payload.get("schema") != "etaforge/1":
                return "missing schema"
            rows = payload["records"]
        else:
            rows = list(csv.DictReader(text.splitlines()))
        type1, type2, r, eps = self._expected_records(op.params["config"])
        if len(rows) != len(type1) + 2 * len(type2):
            return f"{len(rows)} records, expected {len(type1) + 2 * len(type2)}"
        pairs: dict[tuple, dict] = {}
        for row in rows:
            k, p, mult = int(row["k"]), int(row["p"]), int(row["multiplicity"])
            a, b, d = F(row["a"]), F(row["b"]), F(row["d"])
            if row["tag"] == "type1":
                if type1.get((k, p)) != (mult, a) or b or d:
                    return f"type1 record (k={k}, p={p}) wrong"
                continue
            key = (k, p, F(row["mu_sq"]))
            if type2.get(key) != mult:
                return f"type2 multiplicity at {key} wrong"
            pairs.setdefault(key, {})[row["tag"]] = (a, b, d)
        for (k, p, mu_sq), pair in pairs.items():
            if set(pair) != {"type2plus", "type2minus"}:
                return f"unpaired type2 record at k={k}"
            (a1, b1, d1), (a2, b2, d2) = pair["type2plus"], pair["type2minus"]
            if d1 != d2 or b1 != -b2 or b1 * (a2 - a1) != 0:
                return f"type2 pair at k={k} is not conjugate"
            lam0 = k + eps * (p - F(1, 2)) - r
            lam1 = -(k + eps * (p + F(1, 2)) - r)
            if a1 + a2 != lam0 + lam1:
                return f"type2 trace identity fails at k={k}"
            if a1 * a2 - b1 * b1 * d1 != lam0 * lam1 - mu_sq * eps:
                return f"type2 determinant identity fails at k={k}"
        return None

    def sizes(self):
        k_half, keys = self._size()
        return {"configs": self.CONFIGS, "k_range": 2 * k_half + 1,
                "dolbeault_entries": 2 * keys, "formats": ["json", "csv"]}


class VerifySuites(Workload):
    """Tensor identity and trace-expansion suites, parity counts and measure
    checks, batched into three ops per round: the m = 3 identity suite alone,
    the m = 1, 2 suites with the trace grid, and the parity and measure checks."""

    name = "verify_suites"
    modules = ("etaforge.forms", "etaforge.measure")

    def round(self, rng):
        traces = [(m, n_power, _rat(rng, 0, 2), F(rng.choice((-2, -1, 1, 2, 3)), rng.choice((1, 2, 3))))
                  for m, n_power in ((1, 2), (1, 4), (2, 2), (2, 4))]
        parity = [(rng.choice((4, 6, 8, 10)), rng.randint(1, 3), rng.randint(1, 3)) for _ in range(3)]
        points = [(n, tuple(rng.randint(150, 250) / 100 for _ in range((n - 1) // 2)))
                  for n in (1, 3, 5)]
        laplace = [(n, lambdas, rng.choice((1.0, 2.0))) for n, lambdas in points]
        near = [(n, lambdas, rng.choice((0.5, 0.25, 0.0625, 0.015625))) for n, lambdas in points]
        ops = [Op("tensors", dict(identity=(1, 2), trace=traces)),
               Op("counts", dict(parity=parity, laplace=laplace, near_zero=near))]
        if not self.ctx.smoke:
            ops.insert(0, Op("tensors", dict(identity=(3,), trace=[])))
        return ops

    def run(self, op, tracer=None):
        forms, measure = self.mods["forms"], self.mods["measure"]
        p = op.params
        if op.kind == "tensors":
            return ([forms.identity_suite(forms.KahlerModel(m)) for m in p["identity"]]
                    + [forms.trace_expansion_check(*args) for args in p["trace"]])
        return (
            [forms.parity_count(*args) for args in p["parity"]],
            [measure.laplace_check(measure.ModelPoint(n, lambdas), t, 40.0 / t)
             for n, lambdas, t in p["laplace"]],
            [measure.near_zero_bound(measure.ModelPoint(n, lambdas), eps)
             for n, lambdas, eps in p["near_zero"]],
        )

    def check(self, op, out):
        if op.kind == "tensors":
            failed = [name for report in out for name, ok in report.checks if not ok]
            if failed or not all(report.checks for report in out):
                return f"checks failed: {failed}"
            return None
        counts, laplace, near = out
        for (n_power, k, variant), count in zip(op.params["parity"], counts):
            half = n_power // 2
            expected = {1: 2 * math.comb(half, k),
                        2: math.comb(half, k) + math.comb(half - 1, k),
                        3: math.comb(half - 1, k)}[variant]
            if count != expected:
                return f"parity count {count} != {expected}"
        for (n, lambdas, t), chk in zip(op.params["laplace"], laplace):
            target = (4 * math.pi * t) ** (-n / 2) * math.prod(t * l / math.tanh(t * l) for l in lambdas)
            if not chk.rel_error < 1e-6 or abs(chk.measured - target) > 1e-6 * target:
                return f"Laplace transform {chk.measured} vs {target}"
        for (n, lambdas, eps), nb in zip(op.params["near_zero"], near):
            # Only the lattice point at 0 lies below eps (every 2λ >= 3 > eps),
            # so the bump integral of s^(n_y - 1/2) has a closed form.
            n_y = (n - 2 * len(lambdas) - 1) // 2
            a, half = n_y + 0.5, eps / 2
            integral = half**a / a + 2 * ((eps**a - half**a) / a
                                          - (eps ** (a + 1) - half ** (a + 1)) / (eps * (a + 1)))
            weight = math.prod(lambdas) / ((4 * math.pi) ** (n / 2) * math.gamma(n_y + 0.5))
            expected = weight * integral
            if abs(nb.value - expected) > 1e-8 * expected or nb.ratio != nb.value / math.sqrt(eps):
                return f"near-zero mass {nb.value} vs {expected}"
        return None

    def sizes(self):
        return {"round": {"identity_m3": 0 if self.ctx.smoke else 1,
                          "identity_m12_and_trace_grid": 1, "parity_and_measure": 1},
                "trace_grid": 4, "parity": 3, "laplace": 3, "near_zero": 3}


class InProcess(Workload):
    """Library calls in one process.  The op sequence is one ``calibrate()``
    followed by batches; a batch runs one round of each part: the eta sweep,
    one spectrum dump (cycling over the configs and both formats) and the
    verification suites.

    Batches cost about as much as ``calibrate()``, so every op is of one size
    and the latency statistics do not depend on how many slow ops of one kind
    fit into a pass.
    """

    name = "in_process"
    modules = EtaSweep.modules + SpectrumDump.modules + VerifySuites.modules
    fixed_rounds = 2
    # Pure-Python work here slows by up to 2x for stretches of 10-30 s on a
    # shared host; passes about 8 s apart let every op meet a fast stretch.
    passes = 6

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.eta, self.dump, self.suites = EtaSweep(ctx), SpectrumDump(ctx), VerifySuites(ctx)
        self._dumps = 0

    def setup(self) -> None:
        super().setup()
        for part in (self.eta, self.dump, self.suites):
            part.setup()

    def warm_up_op(self) -> Op:
        return Op("batch", dict(ops=[self.eta.warm_up_op()]))

    def ops(self):
        yield Op("calibrate")
        yield from super().ops()

    def fixed_ops(self) -> list[Op]:
        return [Op("calibrate")] + super().fixed_ops()

    def round(self, rng):
        n = self._dumps
        self._dumps += 1
        dump = Op("spectrum", dict(config=n % SpectrumDump.CONFIGS,
                                   format=("json", "csv")[n // SpectrumDump.CONFIGS % 2]))
        return [Op("batch", dict(ops=[*self.eta.round(rng), dump, *self.suites.round(rng)]))]

    def _part(self, op: Op) -> Workload:
        if op.kind == "spectrum":
            return self.dump
        return self.suites if op.kind in ("tensors", "counts") else self.eta

    def run(self, op, tracer=None):
        if op.kind == "calibrate":
            return self.mods["eta"].calibrate()
        return [self._part(sub).run(sub, tracer) for sub in op.params["ops"]]

    def check(self, op, out):
        if op.kind == "calibrate":
            conventions = self.mods["eta"].DEFAULT_CONVENTIONS
            return None if out.conventions == conventions else f"calibrate chose {out.conventions}"
        for sub, sub_out in zip(op.params["ops"], out):
            err = self._part(sub).check(sub, sub_out)
            if err is not None:
                return f"{sub.kind}: {err}"
        return None

    def sizes(self):
        return {"calibrate_per_pass": 1, "spectrum": self.dump.sizes(),
                "batch": {"eta": self.eta.sizes(), "spectrum_dump": 1, "suites": self.suites.sizes()}}


# -- cli_cold -----------------------------------------------------------------


class CliCold(Workload):
    """Cold ``python -m etaforge.cli`` processes, one per op, over the eta,
    flow, spectrum and measure commands with small surface inputs.  Each
    output is compared with the same quantities computed in-process."""

    name = "cli_cold"
    modules = ("etaforge.cli",)
    in_process = False

    def setup(self) -> None:
        # Cold processes import the package themselves; this process imports it
        # only after the timed loop, to compute the reference values.
        self.conventions = self.ctx.tmp / "conventions.json"
        self.conventions.write_text(json.dumps(
            {"schema": "etaforge/1", "sign_c": -1, "flow_factor": 1, "transgression_scale": "1"}
        ), encoding="utf-8")
        self._n = 0

    def round(self, rng):
        ops = []
        for kind in ("exact", "asymptotic", "adiabatic", "aps-check", "flow-delta", "flow-s",
                     "spectrum", "measure"):
            genus, degree, h00 = _surface(rng)
            eps = rng.choice(EPS)
            r0, r1 = _window(rng, eps)
            params = dict(genus=genus, degree=degree, h00=h00, eps=eps, r=_rat(rng, 0, 8),
                          r0=r0, r1=r1, k_min=rng.randint(-30, 10))
            if kind == "measure":
                params["measure"] = {
                    "points": [{"n": 1, "lambdas": []},
                               {"n": 3, "lambdas": [rng.randint(100, 250) / 100]},
                               {"n": 5, "lambdas": [rng.randint(100, 250) / 100,
                                                    rng.randint(100, 250) / 100]}],
                    "t": [1.0, 2.0], "s_max": 40.0,
                    "eps_support": [rng.choice((0.25, 0.0625)), 0.015625],
                }
            op = Op(kind, params)
            params["argv"] = self._argv(op)
            ops.append(op)
        return ops

    def _argv(self, op: Op) -> list[str]:
        p = op.params
        if op.kind == "measure":
            self._n += 1
            cfg = self.ctx.tmp / f"measure-{self._n}.json"
            cfg.write_text(json.dumps({"measure": p["measure"]}), encoding="utf-8")
            return ["measure", "check", "--config", str(cfg)]
        surface = ["--preset", "surface", "--genus", str(p["genus"]), "--degree", str(p["degree"])]
        if p["h00"] is not None:
            surface += ["--h00", str(p["h00"])]
        surface += ["--eps", str(p["eps"])]
        window = ["--r0", str(p["r0"]), "--r1", str(p["r1"])]
        conv = ["--conventions", str(self.conventions)]
        if op.kind == "flow-delta":
            return ["flow", *surface, "--r", str(p["r"])]
        if op.kind == "flow-s":
            return ["flow", *surface, *window]
        if op.kind == "spectrum":
            return ["spectrum", *surface, "--r", str(p["r"]),
                    "--k-min", str(p["k_min"]), "--k-max", str(p["k_min"] + 40)]
        if op.kind == "aps-check":
            return ["eta", "aps-check", *surface, *window, *conv]
        return ["eta", op.kind, *surface, "--r", str(p["r"]), *conv]

    def run(self, op, tracer=None):
        argv = op.params["argv"]
        if tracer is None:
            cmd = [sys.executable, "-m", "etaforge.cli", *argv]
        else:
            self._n += 1
            spans = self.ctx.tmp / f"trace-{self._n}.json"
            cmd = [sys.executable, str(Path(__file__).with_name("trace_cli.py")), str(spans), *argv]
        proc = subprocess.run(cmd, cwd=self.ctx.tmp, env=self.ctx.env(), capture_output=True,
                              text=True, timeout=120)
        if tracer is not None and spans.is_file():
            tracer.merge(spans, tracer.stack[-1] if tracer.stack else -1)
        return argv, proc.returncode, proc.stdout

    def check(self, op, out):
        argv, code, stdout = out
        if code != 0:
            return f"exit code {code}"
        payload = json.loads(stdout)
        if payload.get("schema") != "etaforge/1":
            return "missing schema"
        expected = self.reference(op)
        got = {key: payload[key] for key in expected}
        return None if got == expected else f"{argv}: {got} != {expected}"

    def reference(self, op: Op) -> dict:
        """The fields a cold run must print, computed by in-process library calls."""
        if not hasattr(self, "mods"):
            super().setup()
            self.mods.update({m: importlib.import_module(f"etaforge.{m}")
                              for m in ("cohomology", "hodge", "eta", "flow", "spectrum", "measure")})
        coh, hodge, eta, flow, spectrum, measure = (
            self.mods[m] for m in ("cohomology", "hodge", "eta", "flow", "spectrum", "measure"))
        p = op.params
        if op.kind == "measure":
            m = p["measure"]
            laplace, near = [], []
            for raw in m["points"]:
                pt = measure.ModelPoint(raw["n"], tuple(raw["lambdas"]))
                for t in m["t"]:
                    chk = measure.laplace_check(pt, t, m["s_max"] / t)
                    if not chk.rel_error < 1e-6:
                        return {"laplace": "rel_error >= 1e-6"}
                    laplace.append({"n": pt.n, "lambdas": list(pt.lambdas), "t": t,
                                    "measured": chk.measured, "target": chk.target,
                                    "rel_error": chk.rel_error, "tail_bound": chk.tail_bound})
                for e in m["eps_support"]:
                    nb = measure.near_zero_bound(pt, e)
                    near.append({"n": pt.n, "lambdas": list(pt.lambdas), "eps_support": e,
                                 "value": nb.value, "ratio": nb.ratio})
            return {"laplace": laplace, "near_zero": near}
        g = coh.surface_geometry(p["genus"], p["degree"])
        hp = hodge.SurfaceHodge(p["genus"], p["degree"], h00=p["h00"])
        eps, r = p["eps"], p["r"]
        if op.kind == "exact":
            v = eta.exact_eta(g, hp, r, eps)
            return {"value": str(v.value), "adiabatic_limit": str(v.adiabatic_limit),
                    "flow_term": str(v.flow_term), "transgression_term": str(v.transgression_term),
                    "kernel_dim": v.kernel_dim, "unreduced": str(v.unreduced)}
        if op.kind == "asymptotic":
            return {"value": str(eta.asymptotic_eta(g, hp, r, eps))}
        if op.kind == "adiabatic":
            return {"value": str(eta.adiabatic_limit(g, hp, r))}
        if op.kind == "aps-check":
            chk = eta.aps_difference_check(g, hp, p["r0"], p["r1"], eps)
            return {"lhs": str(chk.lhs), "rhs": str(chk.rhs), "passed": True}
        if op.kind == "flow-delta":
            oracle = flow.flow_in_delta_oracle(g, hp, r, eps)
            return {"delta_flow": {"r": str(r), "closed": oracle.net, "oracle_net": oracle.net,
                                   "crossings": [_crossing(c) for c in oracle.crossings],
                                   "agree": True}}
        if op.kind == "flow-s":
            res = flow.flow_in_s_oracle(g, hp, p["r0"], p["r1"], eps)
            return {"s_flow": {"r0": str(p["r0"]), "r1": str(p["r1"]), "net": res.net,
                               "crossings": [_crossing(c) for c in res.crossings]}}
        records = spectrum.type1_eigenvalues(g, hp, r, eps, (p["k_min"], p["k_min"] + 40))
        rows = [{"tag": rec.tag, "k": rec.k, "p": rec.p, "multiplicity": rec.multiplicity,
                 "a": str(rec.value.a), "b": str(rec.value.b), "d": str(rec.value.d), "mu_sq": None}
                for rec in records]
        rows.sort(key=lambda row: (row["k"], row["p"], row["tag"]))
        return {"records": rows}

    def sizes(self):
        return {"round": ["eta exact", "eta asymptotic", "eta adiabatic", "eta aps-check",
                          "flow delta", "flow s", "spectrum 41 k", "measure check"]}


def _crossing(c) -> dict:
    return {"parameter_value": str(c.parameter_value), "k": c.k, "p": c.p,
            "multiplicity": c.multiplicity, "direction": c.direction}


WORKLOADS = {w.name: w for w in (CliCold, InProcess)}
