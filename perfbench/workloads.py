"""The four benchmark workloads.

Each workload is a closed loop with one client.  It splits its work into
batches; ``run`` times every request of a batch and returns the raw
outputs, ``check`` validates them afterwards (outside the timed region
and with tracing off).  ``reference`` runs the workload once at the
fixed reference seed and compares with the values recorded in
``reference.json``; it also warms every code path before timing.

Vocabulary used by the metrics:

* request -- one timed call into the program: a CLI invocation, a
  ``run_scenario`` call, a region pipeline or a ``twocomp_quantile`` call;
* item    -- the unit of ``items_per_s``: CLI calls, scenario
  replications, region pipelines or quantiles;
* op      -- the unit per-layer metrics are normalized to: one command
  mix, one replication, one pipeline or one parameter draw.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import shutil
import traceback
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import gen

REFERENCE_SEED = 20250810
REFERENCE_FILE = Path(__file__).with_name("reference.json")
# relative tolerance of estimates against the recorded reference values;
# reordered floating-point sums move them by ~1e-13, a changed estimator
# by far more
REFERENCE_RTOL = 1e-6
QUANTILE_PROB_TOL = 1e-10


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, attempted: int, failed: int, problem: str | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if problem and len(self.problems) < 20:
            self.problems.append(problem)


def _close(a, b, rtol=REFERENCE_RTOL) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=rtol, atol=0.0))


def _load_reference(name: str):
    if not REFERENCE_FILE.is_file():
        return None
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8")).get(name)


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


class Workload:
    name = ""
    items_per_request = 1
    # workload-specific names of the generic metrics, printed next to them
    aliases: dict = {}

    def batch(self, i: int):
        raise NotImplementedError

    def run(self, batch, times: list, tracer=None):
        raise NotImplementedError

    def check(self, batch, outputs, tally: Tally) -> None:
        raise NotImplementedError

    def ops(self, batch) -> int:
        raise NotImplementedError

    def reference(self, tally: Tally) -> dict:
        """Run at the reference seed; compare with the recorded values."""
        raise NotImplementedError

    def layer_counts(self) -> dict:
        """Per-op defect counts read from outputs (not from spans)."""
        return {}


# --------------------------------------------------------------------------
# cli-gauges
# --------------------------------------------------------------------------

CLI_MIX = (
    ("fit-gev", ["fit-gev"], "estimate.csv"),
    ("fit-two-component", ["fit-two-component"], "estimate.csv"),
    ("weissman", ["weissman"], "estimate.csv"),
    ("regional-tail", ["regional-tail"], "regional_tail.csv"),
    (
        "regional-tail-pickands",
        ["regional-tail", "--dependence", "pickands_cfg"],
        "regional_tail.csv",
    ),
    ("return-levels-sTL", ["return-levels", "--method", "sTL"], "return_levels_sTL.csv"),
)
CLI_INTERVAL_LABELS = ("fit-gev", "fit-two-component", "weissman")


def _read_cli_output(label: str, path: Path) -> list[float]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if label in CLI_INTERVAL_LABELS:
        row = rows[0]
        return [float(row[k]) for k in ("estimate", "ci_lower", "ci_upper", "homogeneity_p")]
    if label.startswith("regional-tail"):
        return [float(rows[0]["gamma_regional"])] + [
            float(r[k]) for r in rows for k in ("gamma", "weight")
        ]
    return [float(r["level"]) for r in rows if r["kind"] == "curve"]


class CliGauges(Workload):
    name = "cli-gauges"
    aliases = {
        "request_s.p50": "cli_call_s.p50",
        "request_s.p90": "cli_call_s.p90",
        "items_per_s.p10": "cli_calls_per_s",
    }

    def __init__(self, seed: int, work: Path):
        from regflood.cli import main

        self._main = main
        self.work = work
        self.csv = gen.write_monthly_csv(work / f"monthly-{seed}.csv", seed)
        self.rows = self.csv.rows
        self._first: dict = {}
        self.defects: Counter = Counter()
        self.checked_ops = 0

    def _validate_inputs(self, monthly: gen.MonthlyCsv, tally: Tally) -> None:
        from regflood.ingest import ingest_monthly, seasonal_maxima

        schemes = seasonal_maxima(ingest_monthly(monthly.path))
        kept = tuple(sorted(schemes.annual.site_ids))
        if kept != monthly.site_ids or schemes.dropped_sites or schemes.dropped_years:
            tally.add(1, 1, f"seasonal_maxima kept {kept} of {monthly.site_ids}")
        else:
            tally.add(1, 0)

    def batch(self, i: int):
        return self.csv

    def ops(self, batch) -> int:
        return 1

    def _mix(self, monthly: gen.MonthlyCsv, times: list, tracer=None):
        outputs = []
        for label, argv, out_file in CLI_MIX:
            out_dir = self.work / "cli-out" / label
            if out_dir.exists():
                shutil.rmtree(out_dir)
            full = [*argv, "--data", str(monthly.path), "--out", str(out_dir)]
            sink = io.StringIO()
            span = tracer.span(f"cli.{label}") if tracer else nullcontext()
            code = None
            t0 = perf_counter()
            try:
                with span, redirect_stdout(sink), redirect_stderr(sink):
                    code = self._main(full)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # noqa: BLE001 - recorded as a failed call
                code = _failure(exc)
            times.append(perf_counter() - t0)
            values = None
            if code == 0 and (out_dir / out_file).is_file():
                values = _read_cli_output(label, out_dir / out_file)
            outputs.append((label, code, values, sink.getvalue()))
        return outputs

    def run(self, batch, times: list, tracer=None):
        return self._mix(batch, times, tracer)

    def _check_call(self, label, code, values, text) -> str | None:
        if code != 0:
            return f"{label}: exit {code!r}: {text.strip()[-300:]}"
        if values is None or not all(math.isfinite(v) for v in values):
            return f"{label}: missing or non-finite output {values}"
        if label in CLI_INTERVAL_LABELS and not values[1] <= values[0] <= values[2]:
            return f"{label}: interval {values[1]} .. {values[2]} excludes {values[0]}"
        if label.startswith("return-levels") and any(
            b < a for a, b in zip(values, values[1:])
        ):
            return f"{label}: return levels decrease: {values}"
        return None

    def check(self, batch, outputs, tally: Tally) -> None:
        self.checked_ops += 1
        for label, code, values, text in outputs:
            problem = self._check_call(label, code, values, text)
            if problem is None:
                first = self._first.setdefault(label, values)
                if values != first:
                    problem = f"{label}: output changed between identical calls"
            if label == "weissman" and values is not None and values[1] < 0:
                self.defects["tail.weissman_ci.negative_lower"] += 1
            tally.add(1, 1 if problem else 0, problem)

    def reference(self, tally: Tally) -> dict:
        monthly = gen.write_monthly_csv(
            self.work / f"monthly-{REFERENCE_SEED}.csv", REFERENCE_SEED
        )
        self._validate_inputs(monthly, tally)
        if monthly.path != self.csv.path:
            self._validate_inputs(self.csv, tally)
        recorded = _load_reference(self.name)
        values = {}
        for label, code, vals, text in self._mix(monthly, []):
            problem = self._check_call(label, code, vals, text)
            if problem is None and recorded is not None and not _close(vals, recorded[label]):
                problem = f"{label}: {vals} differs from reference {recorded[label]}"
            tally.add(1, 1 if problem else 0, problem)
            values[label] = vals
        if recorded is None:
            tally.add(0, 0, "no recorded reference for cli-gauges")
        return values

    def layer_counts(self) -> dict:
        ops = max(self.checked_ops, 1)
        return {k: v / ops for k, v in self.defects.items()}


# --------------------------------------------------------------------------
# scenario-gate9
# --------------------------------------------------------------------------

SCENARIO_REPLICATIONS = 4
SCENARIO_ESTIMATORS = ("W", "L", "TL", "sW", "sTL")


def scenario_config(seed: int):
    from regflood import CopulaSpec, GevParams, ScenarioConfig, SeasonalMargins

    return ScenarioConfig(
        d=10,
        n=50,
        p=0.99,
        margins=SeasonalMargins(GevParams(2.0, 1.0, 0.2), GevParams(1.5, 1.0, 0.4)),
        copula=CopulaSpec.default_for(10),
        estimators=SCENARIO_ESTIMATORS,
        replications=SCENARIO_REPLICATIONS,
        seed=seed,
        method_options={"pwm_estimator": "plugin"},
    )


def report_digest(report) -> str:
    """SHA-256 over every estimate and summary statistic of a report."""
    h = hashlib.sha256()
    h.update(np.float64(report.q_true).tobytes())
    for name in sorted(report.estimates):
        h.update(name.encode())
        h.update(np.ascontiguousarray(report.estimates[name], dtype=np.float64).tobytes())
    for st in report.stats:
        h.update(repr(tuple(vars(st).values())).encode())
    return h.hexdigest()


class ScenarioGate9(Workload):
    name = "scenario-gate9"
    items_per_request = SCENARIO_REPLICATIONS
    aliases = {
        "request_s.p50": "scenario_call_s.p50",
        "request_s.p90": "scenario_call_s.p90",
        "items_per_s.p10": "scenario_reps_per_s",
    }

    def __init__(self, seed: int, work: Path):
        import regflood.simlab

        self._simlab = regflood.simlab  # looked up per call, so tracing sees it
        self._seed = seed
        self._q_true = None
        self.n_failed: Counter = Counter()
        self.checked_ops = 0

    def batch(self, i: int):
        seed = np.random.SeedSequence([self._seed, 4, i]).generate_state(1)[0]
        return scenario_config(int(seed))

    def ops(self, batch) -> int:
        return SCENARIO_REPLICATIONS

    def run(self, batch, times: list, tracer=None):
        t0 = perf_counter()
        try:
            result = self._simlab.run_scenario(batch)
        except Exception as exc:  # noqa: BLE001 - recorded as failed replications
            result = _failure(exc)
        times.append(perf_counter() - t0)
        return result

    def _check_report(self, report) -> str | None:
        if isinstance(report, str):
            return report
        if self._q_true is not None and report.q_true != self._q_true:
            return f"true quantile {report.q_true} != {self._q_true}"
        for st in report.stats:
            values = report.estimates[st.name]
            if len(values) != SCENARIO_REPLICATIONS or st.n_ok + st.n_failed != len(values):
                return f"{st.name}: {st.n_ok} ok + {st.n_failed} failed != {len(values)}"
            if st.n_ok >= 2 and not all(
                math.isfinite(v) for v in (st.bias, st.variance, st.mse_scaled)
            ):
                return f"{st.name}: non-finite summary with {st.n_ok} estimates"
        return None

    def check(self, batch, outputs, tally: Tally) -> None:
        problem = self._check_report(outputs)
        if problem is None:
            self.checked_ops += SCENARIO_REPLICATIONS
            for st in outputs.stats:
                self.n_failed[st.name] += st.n_failed
        tally.add(SCENARIO_REPLICATIONS, SCENARIO_REPLICATIONS if problem else 0, problem)

    def reference(self, tally: Tally) -> dict:
        report = self.run(scenario_config(REFERENCE_SEED), [])
        problem = self._check_report(report)
        digest = None
        if problem is None:
            self._q_true = report.q_true
            digest = report_digest(report)
            recorded = _load_reference(self.name)
            if recorded is None:
                problem = "no recorded reference for scenario-gate9"
            elif digest != recorded["digest"]:
                problem = f"report digest {digest} differs from reference {recorded['digest']}"
        tally.add(SCENARIO_REPLICATIONS, SCENARIO_REPLICATIONS if problem else 0, problem)
        return {"digest": digest, "replications": SCENARIO_REPLICATIONS}

    def layer_counts(self) -> dict:
        reps = max(self.checked_ops, 1)
        return {f"simlab.n_failed.{k}": self.n_failed[k] / reps for k in SCENARIO_ESTIMATORS}


# --------------------------------------------------------------------------
# region-wide
# --------------------------------------------------------------------------

REGION_POOL = 5  # odd, so alternating traced/untraced order visits each region both ways
REGION_P = 0.99
REGION_ALPHA = 0.05


def build_scheme(region: gen.StaggeredRegion):
    from regflood.regional import ObservationScheme, SiteSeries

    return ObservationScheme(
        tuple(
            SiteSeries(sid, a, v)
            for sid, a, v in zip(region.site_ids, region.offsets, region.values)
        )
    )


class RegionWide(Workload):
    name = "region-wide"
    aliases = {
        "request_s.p50": "region_fit_s.p50",
        "request_s.p90": "region_fit_s.p90",
        "items_per_s.p10": "region_fits_per_s",
    }

    def __init__(self, seed: int, work: Path):
        self._schemes = [build_scheme(gen.staggered_region(seed, i)) for i in range(REGION_POOL)]
        self._first: dict = {}
        self.defects: Counter = Counter()
        self.checked_ops = 0

    def batch(self, i: int):
        return i % REGION_POOL, self._schemes[i % REGION_POOL]

    def ops(self, batch) -> int:
        return 1

    @staticmethod
    def pipeline(scheme):
        from regflood.regional import fit_gev_regional, homogeneity_test
        from regflood.tail import TailConfig, regional_tail_fit, weissman_ci
        from regflood.twocomp import gev_quantile_ci

        target = scheme.site_ids[0]
        stat, p_value = homogeneity_test(scheme, "TL")
        fit = fit_gev_regional(scheme, target, "TL")
        gev_ci = gev_quantile_ci(fit, REGION_P, REGION_ALPHA)
        tail_fit = regional_tail_fit(scheme, dependence_method="empirical")
        w_ci = weissman_ci(
            scheme,
            TailConfig(k=tail_fit.k, weights=tail_fit.weights),
            target,
            REGION_P,
            REGION_ALPHA,
        )
        return [
            stat, p_value, fit.theta.mu, fit.theta.sigma, fit.theta.xi,
            gev_ci.estimate, gev_ci.lower, gev_ci.upper,
            tail_fit.gamma, w_ci.estimate, w_ci.lower, w_ci.upper,
        ]

    def run(self, batch, times: list, tracer=None):
        _, scheme = batch
        t0 = perf_counter()
        try:
            result = self.pipeline(scheme)
        except Exception as exc:  # noqa: BLE001 - recorded as a failed pipeline
            result = _failure(exc)
        times.append(perf_counter() - t0)
        return result

    @staticmethod
    def _check_values(values) -> str | None:
        if isinstance(values, str):
            return values
        if not all(math.isfinite(v) for v in values):
            return f"non-finite estimate or interval: {values}"
        if not values[6] <= values[5] <= values[7]:
            return f"GEV interval {values[6]} .. {values[7]} excludes {values[5]}"
        if not values[10] <= values[9] <= values[11]:
            return f"Weissman interval {values[10]} .. {values[11]} excludes {values[9]}"
        return None

    def check(self, batch, outputs, tally: Tally) -> None:
        index, _ = batch
        problem = self._check_values(outputs)
        if problem is None:
            if self._first.setdefault(index, outputs) != outputs:
                problem = f"region {index}: output changed between identical calls"
            self.checked_ops += 1
            if outputs[10] < 0:
                self.defects["tail.weissman_ci.negative_lower"] += 1
        tally.add(1, 1 if problem else 0, problem)

    def reference(self, tally: Tally) -> dict:
        values = self.run((None, build_scheme(gen.staggered_region(REFERENCE_SEED, 0))), [])
        problem = self._check_values(values)
        recorded = _load_reference(self.name)
        if problem is None:
            if recorded is None:
                problem = "no recorded reference for region-wide"
            elif not _close(values, recorded):
                problem = f"{values} differs from reference {recorded}"
        tally.add(1, 1 if problem else 0, problem)
        return values

    def layer_counts(self) -> dict:
        ops = max(self.checked_ops, 1)
        return {k: v / ops for k, v in self.defects.items()}


# --------------------------------------------------------------------------
# quantile-draws
# --------------------------------------------------------------------------

QUANTILE_LEVELS = (0.99, 0.999)
DRAWS_PER_BATCH = 256


class QuantileDraws(Workload):
    name = "quantile-draws"
    aliases = {
        "request_s.p50": "quantile_call_s.p50",
        "request_s.p90": "quantile_call_s.p90",
        "items_per_s.p10": "quantiles_per_s",
    }

    def __init__(self, seed: int, work: Path):
        import regflood.gev

        self._gev = regflood.gev  # looked up per call, so tracing sees it
        self._draws = gen.ParameterDraws(seed)

    def _models(self, draws: np.ndarray) -> list:
        return [
            self._gev.TwoComponentGev(
                self._gev.GevParams(*map(float, w)), self._gev.GevParams(*map(float, s))
            )
            for w, s in draws
        ]

    def batch(self, i: int):
        return self._models(self._draws.next(DRAWS_PER_BATCH))

    def ops(self, batch) -> int:
        return len(batch)

    def run(self, batch, times: list, tracer=None):
        gev = self._gev
        out = []
        for model in batch:
            for p in QUANTILE_LEVELS:
                t0 = perf_counter()
                try:
                    q = gev.twocomp_quantile(model, p)
                except Exception as exc:  # noqa: BLE001 - recorded as a failed call
                    q = _failure(exc)
                times.append(perf_counter() - t0)
                out.append(q)
        return out

    def check(self, batch, outputs, tally: Tally) -> None:
        levels = QUANTILE_LEVELS * len(batch)
        models = [m for m in batch for _ in QUANTILE_LEVELS]
        for model, p, q in zip(models, levels, outputs):
            problem = None
            if isinstance(q, str):
                problem = q
            elif not math.isfinite(q):
                problem = f"non-finite quantile at p={p}"
            else:
                residual = abs(float(self._gev.twocomp_cdf(model, q)) - p)
                if residual > QUANTILE_PROB_TOL:
                    problem = f"|F(q) - p| = {residual:.3e} at p={p}, {model}"
            tally.add(1, 1 if problem else 0, problem)

    def reference(self, tally: Tally) -> dict:
        batch = QuantileDraws(REFERENCE_SEED, Path()).batch(0)
        self.check(batch, self.run(batch, []), tally)
        return {}


WORKLOADS = {w.name: w for w in (CliGauges, ScenarioGate9, RegionWide, QuantileDraws)}
