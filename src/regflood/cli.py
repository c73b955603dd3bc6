"""Command line front door.

Subcommands wire the library pipelines to CSV input and tabular/CSV
output.  Exit codes: 0 success, 2 input error, 3 numeric failure,
4 enforced homogeneity failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .errors import (
    DataError,
    DomainError,
    HomogeneityError,
    NumericError,
    ParameterError,
    RegfloodError,
)
from .gev import gev_quantile, twocomp_quantile
from .ingest import SeasonDefinition, ingest_monthly, return_level_curve, seasonal_maxima
from .regional import RegionalShapeResult, fit_gev_regional, regional_shape
from .simlab import load_scenario, run_scenario
from .tail import regional_tail_fit
from .twocomp import fit_seasonal_regional, gev_quantile_ci, twocomp_quantile_ci

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_HOMOGENEITY = 4


def _season_def(arg: str | None) -> SeasonDefinition:
    if not arg:
        return SeasonDefinition()
    try:
        start, end = arg.split("-")
        return SeasonDefinition(int(start), int(end))
    except (ValueError, ParameterError) as exc:
        raise DataError(f"bad --season-def {arg!r} (expected e.g. '11-4'): {exc}") from exc


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc


def _merge(args: argparse.Namespace, config: dict, key: str, default):
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _load_schemes(args, config):
    alpha = args.homogeneity_alpha
    if not 0.0 < alpha < 1.0:
        raise DataError(f"--homogeneity-alpha must lie strictly between 0 and 1, got {alpha}")
    schemes = seasonal_maxima(
        ingest_monthly(args.data),
        _season_def(_merge(args, config, "season-def", None)),
        end_policy=_merge(args, config, "end-policy", "truncate"),
    )
    sites = _merge(args, config, "sites", None)
    if sites:
        wanted = [s.strip() for s in sites.split(",")] if isinstance(sites, str) else sites
        schemes = dataclasses.replace(
            schemes,
            winter=schemes.winter.subset(wanted),
            summer=schemes.summer.subset(wanted),
            annual=schemes.annual.subset(wanted),
        )
    for sid, years in schemes.dropped_years.items():
        print(
            f"note: dropped {len(years)} incomplete year(s) at site {sid}: "
            f"{years[:8]}{'...' if len(years) > 8 else ''}",
            file=sys.stderr,
        )
    if schemes.dropped_sites:
        print(f"note: dropped sites {list(schemes.dropped_sites)}", file=sys.stderr)
    return schemes


def _target_site(args, scheme) -> str:
    return args.target_site or scheme.site_ids[0]


def _check_homogeneity(args, shape: RegionalShapeResult | None, label: str) -> float | None:
    """Homogeneity p-value read off a regional shape fit, or None for a single site."""
    if shape is None or len(shape.weights) == 1:
        print(f"note: homogeneity ({label}) not tested: single site", file=sys.stderr)
        return None
    stat, p_value = shape.homogeneity()
    print(f"homogeneity ({label}): statistic={stat:.3f}, p-value={p_value:.3f}")
    if p_value < args.homogeneity_alpha:
        message = (
            f"homogeneity test rejects equal shapes for {label} data "
            f"(p={p_value:.3f} < {args.homogeneity_alpha})"
        )
        if getattr(args, "enforce_homogeneity", False):
            raise HomogeneityError(message)
        print(f"warning: {message}; proceeding (regional methods tolerate "
              "moderate heterogeneity)", file=sys.stderr)
    return p_value


def _tail_homogeneity(args, config, scheme) -> float | None:
    """Moment-lane homogeneity check of the tail commands, which fit no GEV."""
    method = _merge(args, config, "method", "TL")
    shape = regional_shape(scheme, method) if scheme.d > 1 else None
    return _check_homogeneity(args, shape, "annual")


def _tail_fit(args, config, scheme):
    """Regional tail fit with the tail commands' k and dependence settings."""
    return regional_tail_fit(
        scheme, _merge(args, config, "k", None), _merge(args, config, "dependence", "empirical")
    )


def _write_estimate_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["method", "target_site", "p", "estimate", "ci_lower", "ci_upper",
             "alpha", "homogeneity_p", "weights", "k_values"]
        )
        writer.writerows(rows)


def _report_interval(method, site, p, interval, hom_p, weights=None, k=None, out=None):
    wtxt = " ".join(f"{w:.4f}" for w in np.atleast_1d(weights)) if weights is not None else ""
    ktxt = " ".join(str(int(v)) for v in np.atleast_1d(k)) if k is not None else ""
    print(f"{method} quantile estimate at site {site}, p={p}:")
    print(f"  {interval}")
    if wtxt:
        print(f"  weights: {wtxt}")
    if ktxt:
        print(f"  tail sample lengths: {ktxt}")
    if out:
        Path(out).mkdir(parents=True, exist_ok=True)
        _write_estimate_csv(
            Path(out) / "estimate.csv",
            [[method, site, p, interval.estimate, interval.lower, interval.upper,
              interval.alpha, hom_p, wtxt, ktxt]],
        )
        print(f"  wrote {Path(out) / 'estimate.csv'}")


def _cmd_fit_gev(args) -> int:
    config = _load_config(args.config)
    schemes = _load_schemes(args, config)
    method = _merge(args, config, "method", "TL")
    p = float(_merge(args, config, "p", 0.99))
    alpha = float(_merge(args, config, "alpha", 0.05))
    target = _target_site(args, schemes.annual)
    fit = fit_gev_regional(schemes.annual, target, method)
    hom_p = _check_homogeneity(args, fit.shape, "annual")
    interval = gev_quantile_ci(fit, p, alpha)
    print(
        f"fitted GEV at {target}: mu={fit.theta.mu:.3f}, sigma={fit.theta.sigma:.3f}, "
        f"xi={fit.theta.xi:.4f} (regional, {fit.shape.diagnostics['weights_source']} weights)"
    )
    _report_interval(method, target, p, interval, hom_p,
                     weights=fit.shape.weights, out=args.out)
    return EXIT_OK


def _cmd_fit_two_component(args) -> int:
    config = _load_config(args.config)
    schemes = _load_schemes(args, config)
    method = _merge(args, config, "method", "TL")
    p = float(_merge(args, config, "p", 0.99))
    alpha = float(_merge(args, config, "alpha", 0.05))
    target = _target_site(args, schemes.annual)
    fit = fit_seasonal_regional(schemes.winter, schemes.summer, target, method)
    hom_w = _check_homogeneity(args, fit.diagnostics["winter"].shape, "winter")
    hom_s = _check_homogeneity(args, fit.diagnostics["summer"].shape, "summer")
    corr = fit.diagnostics.get("season_correlation")
    if corr is not None:
        print(f"winter/summer correlation at {target}: {corr:+.3f} (diagnostic only)")
    print(
        f"seasonal fits at {target}: winter xi={fit.theta_w.xi:.4f}, "
        f"summer xi={fit.theta_s.xi:.4f}"
    )
    interval = twocomp_quantile_ci(fit, p, alpha)
    hom_p = None if hom_w is None or hom_s is None else min(hom_w, hom_s)
    _report_interval(f"s{method}", target, p, interval, hom_p, out=args.out)
    return EXIT_OK


def _cmd_regional_tail(args) -> int:
    config = _load_config(args.config)
    schemes = _load_schemes(args, config)
    hom_p = _tail_homogeneity(args, config, schemes.annual)
    fit = _tail_fit(args, config, schemes.annual)
    print(f"regional tail index: {fit.gamma:.4f} ({fit.weights_source} weights)")
    rows = list(zip(fit.scheme.site_ids, fit.gammas, fit.k, fit.weights))
    for sid, g, kj, w in rows:
        print(f"  {sid:>16}: gamma={g:.4f}  k={int(kj)}  weight={w:.4f}")
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        path = Path(args.out) / "regional_tail.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["site_id", "gamma", "k", "weight", "gamma_regional",
                             "homogeneity_p"])
            for sid, g, kj, w in rows:
                writer.writerow([sid, g, int(kj), w, fit.gamma, hom_p])
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_weissman(args) -> int:
    config = _load_config(args.config)
    schemes = _load_schemes(args, config)
    target = _target_site(args, schemes.annual)
    hom_p = _tail_homogeneity(args, config, schemes.annual)
    p = float(_merge(args, config, "p", 0.99))
    alpha = float(_merge(args, config, "alpha", 0.05))
    fit = _tail_fit(args, config, schemes.annual)
    _report_interval("W", target, p, fit.interval(target, p, alpha), hom_p,
                     weights=fit.weights, k=fit.k, out=args.out)
    return EXIT_OK


def _cmd_return_levels(args) -> int:
    try:
        t_grid = np.array([float(t) for t in args.t_grid.split(",")])
    except ValueError as exc:
        raise DataError(
            f"bad --t-grid {args.t_grid!r} (expected e.g. '2,10,100'): {exc}"
        ) from exc
    config = _load_config(args.config)
    schemes = _load_schemes(args, config)
    target = _target_site(args, schemes.annual)
    method = args.method
    if method in ("L", "TL"):
        fit = fit_gev_regional(schemes.annual, target, method)
        quantile_fn = lambda p: gev_quantile(fit.theta, p)  # noqa: E731
    elif method in ("sL", "sTL"):
        fit = fit_seasonal_regional(
            schemes.winter, schemes.summer, target, method[1:]
        )
        quantile_fn = lambda p: twocomp_quantile(fit.model, p)  # noqa: E731
    elif method == "W":
        fit = regional_tail_fit(schemes.annual)
        quantile_fn = lambda p: fit.quantile(target, p)  # noqa: E731
    else:
        raise DataError(f"unknown method {method!r}")
    site = schemes.annual.sites[schemes.annual.site_index(target)]
    curve = return_level_curve(quantile_fn, t_grid, sample=site.values, method=method)
    for t, level in curve.points:
        print(f"  T={t:8.1f}  level={level:10.2f}")
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        path = Path(args.out) / f"return_levels_{method}.csv"
        curve.write_csv(path)
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = load_scenario(args.scenario)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    report = run_scenario(config)
    print(report.to_text())
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        path = Path(args.out) / "scenario_report.csv"
        report.write_csv(path)
        print(f"wrote {path}")
    return EXIT_OK


def _add_common_data_args(sub, with_target=True):
    sub.add_argument("--data", required=True, help="monthly maxima CSV")
    sub.add_argument("--config", help="JSON config with defaults")
    sub.add_argument("--sites", help="comma-separated site subset")
    if with_target:
        sub.add_argument("--target-site", help="site of interest (default: longest record)")
    sub.add_argument("--season-def", help="winter months, e.g. '11-4'")
    sub.add_argument("--end-policy", choices=["truncate", "reject"])
    sub.add_argument("--enforce-homogeneity", action="store_true",
                     help="exit 4 when the homogeneity test rejects")
    sub.add_argument("--homogeneity-alpha", type=float, default=0.05)
    sub.add_argument("--out", help="output directory for CSV results")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regflood",
        description="Regional estimation of high quantiles of annual maximal flows",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("fit-gev", help="regional one-component GEV quantile")
    _add_common_data_args(sub)
    sub.add_argument("--method", choices=["L", "TL"])
    sub.add_argument("--p", type=float)
    sub.add_argument("--alpha", type=float)
    sub.set_defaults(func=_cmd_fit_gev)

    sub = subs.add_parser("fit-two-component", help="seasonal product-model quantile")
    _add_common_data_args(sub)
    sub.add_argument("--method", choices=["L", "TL"])
    sub.add_argument("--p", type=float)
    sub.add_argument("--alpha", type=float)
    sub.set_defaults(func=_cmd_fit_two_component)

    sub = subs.add_parser("regional-tail", help="regional tail-index estimation")
    _add_common_data_args(sub, with_target=False)
    sub.add_argument("--method", choices=["L", "TL"])
    sub.add_argument("--k", type=int, help="tail sample length override (all sites)")
    sub.add_argument("--dependence", choices=["empirical", "pickands_cfg"])
    sub.set_defaults(func=_cmd_regional_tail)

    sub = subs.add_parser("weissman", help="extrapolated quantile with interval")
    _add_common_data_args(sub)
    sub.add_argument("--method", choices=["L", "TL"],
                     help="moment method for the homogeneity check")
    sub.add_argument("--k", type=int)
    sub.add_argument("--dependence", choices=["empirical", "pickands_cfg"])
    sub.add_argument("--p", type=float)
    sub.add_argument("--alpha", type=float)
    sub.set_defaults(func=_cmd_weissman)

    sub = subs.add_parser("return-levels", help="return-level curve for one method")
    _add_common_data_args(sub)
    sub.add_argument("--method", choices=["L", "TL", "W", "sL", "sTL"], default="TL")
    sub.add_argument("--t-grid", default="2,5,10,20,50,100,200,500")
    sub.set_defaults(func=_cmd_return_levels)

    sub = subs.add_parser("simulate", help="run a Monte Carlo scenario")
    sub.add_argument("--scenario", required=True, help="scenario JSON file")
    sub.add_argument("--seed", type=int, help="override the scenario seed")
    sub.add_argument("--out", help="output directory")
    sub.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HomogeneityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HOMOGENEITY
    except (DataError, DomainError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericError, RegfloodError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
