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
from functools import partial
from pathlib import Path

import numpy as np

from .errors import DataError, DomainError, HomogeneityError, ParameterError, RegfloodError
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

# The keys a --config file may set: (default, accepted JSON types).  "p" and
# "alpha" must also read as numbers; "k" is checked by the tail lane.
_CONFIG_KEYS = {
    "season-def": (None, (str, type(None))),
    "end-policy": ("truncate", str),
    "sites": (None, (str, list, type(None))),
    "method": ("TL", str),
    "p": (0.99, (int, float, str)),
    "alpha": (0.05, (int, float, str)),
    "k": (None, object),
    "dependence": ("empirical", str),
}


def _options(args) -> dict:
    """The config keys' values: defaults, overlaid by ``--config``, overlaid by the flags given."""
    options = {key: default for key, (default, _) in _CONFIG_KEYS.items()}
    path = args.config
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(config, dict):
            raise DataError(f"config {path} must hold a JSON object, got {type(config).__name__}")
        for key, value in config.items():
            if key not in _CONFIG_KEYS:
                raise DataError(
                    f"config {path}: unknown key {key!r} (known: {', '.join(_CONFIG_KEYS)})"
                )
            try:
                if not isinstance(value, _CONFIG_KEYS[key][1]):
                    raise TypeError
                options[key] = float(value) if key in ("p", "alpha") else value
            except (TypeError, ValueError):
                raise DataError(f"config {path}: unusable value {value!r} for {key!r}") from None
    for key in _CONFIG_KEYS:
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            options[key] = flag
    return options


def _season_def(arg: str | None) -> SeasonDefinition:
    if not arg:
        return SeasonDefinition()
    try:
        start, end = arg.split("-")
        return SeasonDefinition(int(start), int(end))
    except (ValueError, ParameterError) as exc:
        raise DataError(f"bad --season-def {arg!r} (expected e.g. '11-4'): {exc}") from exc


def _load(args):
    """Options, seasonal schemes and target site of a data command."""
    options = _options(args)
    alpha = args.homogeneity_alpha
    if not 0.0 < alpha < 1.0:
        raise DataError(f"--homogeneity-alpha must lie strictly between 0 and 1, got {alpha}")
    schemes = seasonal_maxima(
        ingest_monthly(args.data),
        _season_def(options["season-def"]),
        end_policy=options["end-policy"],
    )
    sites = options["sites"]
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
    target = getattr(args, "target_site", None) or schemes.annual.site_ids[0]
    return options, schemes, target


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
        if args.enforce_homogeneity:
            raise HomogeneityError(message)
        print(f"warning: {message}; proceeding (regional methods tolerate "
              "moderate heterogeneity)", file=sys.stderr)
    return p_value


def _tail_fit(args, options, scheme):
    """Moment-lane homogeneity check, then the regional tail fit, of the tail commands."""
    shape = regional_shape(scheme, options["method"]) if scheme.d > 1 else None
    hom_p = _check_homogeneity(args, shape, "annual")
    return regional_tail_fit(scheme, options["k"], options["dependence"]), hom_p


def _write_rows(header, rows, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _save(out, name, write, indent="") -> None:
    """With an output directory, create it, ``write`` file ``name`` in it and say so."""
    if out:
        Path(out).mkdir(parents=True, exist_ok=True)
        path = Path(out) / name
        write(path)
        print(f"{indent}wrote {path}")


def _report_interval(args, method, site, p, interval, hom_p, weights=None, k=None) -> int:
    wtxt = " ".join(f"{w:.4f}" for w in np.atleast_1d(weights)) if weights is not None else ""
    ktxt = " ".join(str(int(v)) for v in np.atleast_1d(k)) if k is not None else ""
    print(f"{method} quantile estimate at site {site}, p={p}:")
    print(f"  {interval}")
    if wtxt:
        print(f"  weights: {wtxt}")
    if ktxt:
        print(f"  tail sample lengths: {ktxt}")
    row = [method, site, p, interval.estimate, interval.lower, interval.upper,
           interval.alpha, hom_p, wtxt, ktxt]
    header = ["method", "target_site", "p", "estimate", "ci_lower", "ci_upper",
              "alpha", "homogeneity_p", "weights", "k_values"]
    _save(args.out, "estimate.csv", partial(_write_rows, header, [row]), indent="  ")
    return EXIT_OK


def _cmd_fit_gev(args) -> int:
    options, schemes, target = _load(args)
    fit = fit_gev_regional(schemes.annual, target, options["method"])
    hom_p = _check_homogeneity(args, fit.shape, "annual")
    interval = gev_quantile_ci(fit, options["p"], options["alpha"])
    print(
        f"fitted GEV at {target}: mu={fit.theta.mu:.3f}, sigma={fit.theta.sigma:.3f}, "
        f"xi={fit.theta.xi:.4f} (regional, {fit.shape.diagnostics['weights_source']} weights)"
    )
    return _report_interval(args, options["method"], target, options["p"], interval, hom_p,
                            weights=fit.shape.weights)


def _cmd_fit_two_component(args) -> int:
    options, schemes, target = _load(args)
    fit = fit_seasonal_regional(schemes.winter, schemes.summer, target, options["method"])
    hom = [_check_homogeneity(args, fit.diagnostics[s].shape, s) for s in ("winter", "summer")]
    corr = fit.diagnostics.get("season_correlation")
    if corr is not None:
        print(f"winter/summer correlation at {target}: {corr:+.3f} (diagnostic only)")
    print(
        f"seasonal fits at {target}: winter xi={fit.theta_w.xi:.4f}, "
        f"summer xi={fit.theta_s.xi:.4f}"
    )
    interval = twocomp_quantile_ci(fit, options["p"], options["alpha"])
    hom_p = None if None in hom else min(hom)
    return _report_interval(args, f"s{options['method']}", target, options["p"], interval, hom_p)


def _cmd_regional_tail(args) -> int:
    options, schemes, _ = _load(args)
    fit, hom_p = _tail_fit(args, options, schemes.annual)
    print(f"regional tail index: {fit.gamma:.4f} ({fit.weights_source} weights)")
    rows = [[sid, g, int(kj), w, fit.gamma, hom_p]
            for sid, g, kj, w in zip(fit.scheme.site_ids, fit.gammas, fit.k, fit.weights)]
    for sid, g, kj, w, *_ in rows:
        print(f"  {sid:>16}: gamma={g:.4f}  k={kj}  weight={w:.4f}")
    header = ["site_id", "gamma", "k", "weight", "gamma_regional", "homogeneity_p"]
    _save(args.out, "regional_tail.csv", partial(_write_rows, header, rows))
    return EXIT_OK


def _cmd_weissman(args) -> int:
    options, schemes, target = _load(args)
    fit, hom_p = _tail_fit(args, options, schemes.annual)
    interval = fit.interval(target, options["p"], options["alpha"])
    return _report_interval(args, "W", target, options["p"], interval, hom_p,
                            weights=fit.weights, k=fit.k)


def _cmd_return_levels(args) -> int:
    try:
        t_grid = np.array([float(t) for t in args.t_grid.split(",")])
    except ValueError as exc:
        raise DataError(
            f"bad --t-grid {args.t_grid!r} (expected e.g. '2,10,100'): {exc}"
        ) from exc
    _, schemes, target = _load(args)
    method = args.method
    if method in ("L", "TL"):
        fit = fit_gev_regional(schemes.annual, target, method)
        quantile_fn = partial(gev_quantile, fit.theta)
    elif method in ("sL", "sTL"):
        fit = fit_seasonal_regional(schemes.winter, schemes.summer, target, method[1:])
        quantile_fn = partial(twocomp_quantile, fit.model)
    else:
        quantile_fn = partial(regional_tail_fit(schemes.annual).quantile, target)
    site = schemes.annual.sites[schemes.annual.site_index(target)]
    curve = return_level_curve(quantile_fn, t_grid, sample=site.values, method=method)
    for t, level in curve.points:
        print(f"  T={t:8.1f}  level={level:10.2f}")
    _save(args.out, f"return_levels_{method}.csv", curve.write_csv)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = load_scenario(args.scenario)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    report = run_scenario(config)
    print(report.to_text())
    _save(args.out, "scenario_report.csv", report.write_csv)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regflood",
        description="Regional estimation of high quantiles of annual maximal flows",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", required=True, help="monthly maxima CSV")
    data.add_argument("--config", help="JSON config with defaults")
    data.add_argument("--sites", help="comma-separated site subset")
    data.add_argument("--season-def", help="winter months, e.g. '11-4'")
    data.add_argument("--end-policy", choices=["truncate", "reject"])
    data.add_argument("--enforce-homogeneity", action="store_true",
                      help="exit 4 when the homogeneity test rejects")
    data.add_argument("--homogeneity-alpha", type=float, default=0.05)
    data.add_argument("--out", help="output directory for CSV results")
    target = argparse.ArgumentParser(add_help=False)
    target.add_argument("--target-site", help="site of interest (default: longest record)")
    moments = argparse.ArgumentParser(add_help=False)
    moments.add_argument("--method", choices=["L", "TL"],
                         help="moment method of the fit, or of the tail commands' "
                         "homogeneity check")
    level = argparse.ArgumentParser(add_help=False)
    level.add_argument("--p", type=float)
    level.add_argument("--alpha", type=float)
    tail = argparse.ArgumentParser(add_help=False)
    tail.add_argument("--k", type=int, help="tail sample length override (all sites)")
    tail.add_argument("--dependence", choices=["empirical", "pickands_cfg"])
    curve = argparse.ArgumentParser(add_help=False)
    curve.add_argument("--method", choices=["L", "TL", "W", "sL", "sTL"], default="TL")
    curve.add_argument("--t-grid", default="2,5,10,20,50,100,200,500")
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--scenario", required=True, help="scenario JSON file")
    scenario.add_argument("--seed", type=int, help="override the scenario seed")
    scenario.add_argument("--out", help="output directory")
    for name, func, text, parents in (
        ("fit-gev", _cmd_fit_gev, "regional one-component GEV quantile",
         [data, target, moments, level]),
        ("fit-two-component", _cmd_fit_two_component, "seasonal product-model quantile",
         [data, target, moments, level]),
        ("regional-tail", _cmd_regional_tail, "regional tail-index estimation",
         [data, moments, tail]),
        ("weissman", _cmd_weissman, "extrapolated quantile with interval",
         [data, target, moments, tail, level]),
        ("return-levels", _cmd_return_levels, "return-level curve for one method",
         [data, target, curve]),
        ("simulate", _cmd_simulate, "run a Monte Carlo scenario", [scenario]),
    ):
        subs.add_parser(name, parents=parents, help=text).set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RegfloodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, HomogeneityError):
            return EXIT_HOMOGENEITY
        if isinstance(exc, (DataError, DomainError, ParameterError)):
            return EXIT_INPUT
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
