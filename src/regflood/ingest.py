"""Monthly-maxima ingestion and aggregation to seasonal/annual schemes.

Input is a CSV of monthly maximal flows.  Hydrological years are split
into two configurable seasons (German convention by default: the year
runs November through October, winter is November-April, summer is
May-October).  Site-years with any missing month are dropped; the
schemes keep, per site, the contiguous run of complete years ending at
the common final year.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ParameterError
from .regional import ObservationScheme, SiteSeries

__all__ = [
    "MonthlyRecord",
    "SeasonDefinition",
    "SeasonalSchemes",
    "ingest_monthly",
    "seasonal_maxima",
    "ReturnLevelCurve",
    "return_level_curve",
]

_HEADER = ["site_id", "year", "month", "flow"]


@dataclass(frozen=True)
class MonthlyRecord:
    """One monthly maximal flow observation."""

    site_id: str
    year: int
    month: int
    flow: float


@dataclass(frozen=True)
class SeasonDefinition:
    """Two-season split of the hydrological year.

    The hydrological year y starts in calendar month ``winter_start`` of
    calendar year y-1; the winter season runs from ``winter_start``
    through ``winter_end`` (cyclically), summer covers the remaining
    months.
    """

    winter_start: int = 11
    winter_end: int = 4

    def __post_init__(self):
        for m in (self.winter_start, self.winter_end):
            if not 1 <= m <= 12:
                raise ParameterError(f"month {m} outside 1..12")

    @property
    def winter_months(self) -> tuple[int, ...]:
        months = []
        m = self.winter_start
        while True:
            months.append(m)
            if m == self.winter_end:
                break
            m = m % 12 + 1
            if len(months) > 12:
                raise ParameterError("winter season does not close within 12 months")
        return tuple(months)

    @property
    def summer_months(self) -> tuple[int, ...]:
        winter = set(self.winter_months)
        if len(winter) >= 12:
            raise ParameterError("winter season leaves no summer months")
        start = self.winter_end % 12 + 1
        months = []
        m = start
        while m not in winter:
            months.append(m)
            m = m % 12 + 1
        return tuple(months)

    def hydro_year(self, year: int, month: int) -> int:
        """Hydrological year a calendar (year, month) belongs to."""
        return year + 1 if month >= self.winter_start else year


def ingest_monthly(path) -> list[MonthlyRecord]:
    """Read and validate a monthly-maxima CSV.

    Expects the exact header ``site_id,year,month,flow``.  Malformed
    rows, non-positive flows and duplicate (site, year, month) keys are
    collected and reported together with their line numbers.
    """
    records: list[MonthlyRecord] = []
    problems: list[str] = []
    seen: set[tuple[str, int, int]] = set()
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with handle as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            warnings.warn(f"{path}: empty input file", stacklevel=2)
            return []
        if [h.strip() for h in header] != _HEADER:
            raise DataError(
                f"{path}: expected header {','.join(_HEADER)!r}, got {','.join(header)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 4:
                problems.append(f"line {lineno}: expected 4 fields, got {len(row)}")
                continue
            sid = row[0].strip()
            try:
                year = int(row[1])
                month = int(row[2])
                flow = float(row[3])
            except ValueError:
                problems.append(f"line {lineno}: unparseable year/month/flow {row[1:]!r}")
                continue
            if not 1 <= month <= 12:
                problems.append(f"line {lineno}: month {month} outside 1..12")
                continue
            if not (math.isfinite(flow) and flow > 0):
                problems.append(f"line {lineno}: flow must be a positive number, got {row[3]}")
                continue
            key = (sid, year, month)
            if key in seen:
                problems.append(f"line {lineno}: duplicate record for {key}")
                continue
            seen.add(key)
            records.append(MonthlyRecord(sid, year, month, flow))
    if problems:
        raise DataError(f"{path}: invalid input rows:\n  " + "\n  ".join(problems))
    if not records:
        warnings.warn(f"{path}: no data rows found", stacklevel=2)
    return records


@dataclass(frozen=True)
class SeasonalSchemes:
    """Aligned winter/summer/annual observation schemes plus a drop report."""

    winter: ObservationScheme
    summer: ObservationScheme
    annual: ObservationScheme
    dropped_years: dict = field(default_factory=dict)
    dropped_sites: tuple[str, ...] = ()


def seasonal_maxima(
    records,
    season_def: SeasonDefinition | None = None,
    end_policy: str = "truncate",
) -> SeasonalSchemes:
    """Aggregate monthly records to seasonal and annual maxima schemes.

    Per complete site-hydro-year the winter maximum W, summer maximum S
    and annual maximum max(W, S) are formed.  All sites are aligned on a
    common final year: ``end_policy='truncate'`` cuts every site at the
    earliest final year, ``'reject'`` instead drops sites ending before
    the latest one.  Within a site only the contiguous run of complete
    years ending at the common final year is kept.
    """
    if end_policy not in ("truncate", "reject"):
        raise ParameterError(f"unknown end policy {end_policy!r}")
    sdef = season_def or SeasonDefinition()
    winter_set = set(sdef.winter_months)

    by_site: dict[str, dict[int, dict[int, float]]] = {}
    for rec in records:
        hy = sdef.hydro_year(rec.year, rec.month)
        months = by_site.setdefault(rec.site_id, {}).setdefault(hy, {})
        months[rec.month] = max(rec.flow, months.get(rec.month, 0.0))
    if not by_site:
        raise DataError("no records to aggregate")

    complete: dict[str, dict[int, tuple[float, float]]] = {}
    dropped_years: dict[str, list[int]] = {}
    for sid, years in by_site.items():
        complete[sid] = {}
        for hy, months in years.items():
            if len(months) < 12:
                dropped_years.setdefault(sid, []).append(hy)
                continue
            w = max(v for m, v in months.items() if m in winter_set)
            s = max(v for m, v in months.items() if m not in winter_set)
            complete[sid][hy] = (w, s)
    complete = {sid: ys for sid, ys in complete.items() if ys}
    if not complete:
        raise DataError("no site has a single complete hydrological year")

    last_years = {sid: max(ys) for sid, ys in complete.items()}
    dropped_sites: list[str] = []
    if end_policy == "truncate":
        end_year = min(last_years.values())
    else:
        end_year = max(last_years.values())
        for sid, ly in last_years.items():
            if ly < end_year:
                dropped_sites.append(sid)
        complete = {sid: ys for sid, ys in complete.items() if sid not in dropped_sites}
        if not complete:
            raise DataError("end policy 'reject' removed every site")

    # contiguous run of complete years ending at the common final year
    runs: dict[str, list[int]] = {}
    for sid, ys in list(complete.items()):
        if end_year not in ys:
            dropped_sites.append(sid)
            del complete[sid]
            continue
        year = end_year
        run = []
        while year in ys:
            run.append(year)
            year -= 1
        run.reverse()
        if len(run) < 2:
            dropped_sites.append(sid)
            del complete[sid]
            continue
        runs[sid] = run
    if not complete:
        raise DataError("no site retains two complete years ending at the common year")

    n = max(len(run) for run in runs.values())
    sites_w, sites_s, sites_a = [], [], []
    for sid in sorted(runs, key=lambda s: (-len(runs[s]), s)):
        run = runs[sid]
        w_vals = np.array([complete[sid][y][0] for y in run])
        s_vals = np.array([complete[sid][y][1] for y in run])
        offset = n - len(run)
        sites_w.append(SiteSeries(sid, offset, w_vals))
        sites_s.append(SiteSeries(sid, offset, s_vals))
        sites_a.append(SiteSeries(sid, offset, np.maximum(w_vals, s_vals)))
    return SeasonalSchemes(
        winter=ObservationScheme(tuple(sites_w)),
        summer=ObservationScheme(tuple(sites_s)),
        annual=ObservationScheme(tuple(sites_a)),
        dropped_years={sid: sorted(ys) for sid, ys in dropped_years.items()},
        dropped_sites=tuple(dict.fromkeys(dropped_sites)),
    )


@dataclass(frozen=True)
class ReturnLevelCurve:
    """Return levels on a period grid plus the empirical counterpart."""

    points: tuple[tuple[float, float], ...]
    empirical: tuple[tuple[float, float], ...]
    method: str

    def __post_init__(self):
        levels = [lvl for _, lvl in self.points]
        if any(b < a - 1e-9 for a, b in zip(levels, levels[1:])):
            raise DataError("return levels must be non-decreasing in the period")

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "return_period", "level", "method"])
            for t, lvl in self.points:
                writer.writerow(["curve", t, lvl, self.method])
            for t, lvl in self.empirical:
                writer.writerow(["empirical", t, lvl, ""])


def return_level_curve(quantile_fn, t_grid, sample=None, method: str = "") -> ReturnLevelCurve:
    """Evaluate a fitted quantile function on a return-period grid.

    A period T maps to the level ``quantile_fn(1 - 1/T)``.  When a
    sample is supplied, the ordered observations are emitted as
    empirical points at periods 1/(1 - i/(n+1)).
    """
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    if np.any(t_grid <= 1.0):
        raise ParameterError("return periods must exceed 1 year")
    points = tuple((float(t), float(quantile_fn(1.0 - 1.0 / t))) for t in t_grid)
    empirical: tuple[tuple[float, float], ...] = ()
    if sample is not None:
        xs = np.sort(np.asarray(sample, dtype=float))
        n = len(xs)
        pp = np.arange(1, n + 1) / (n + 1)
        empirical = tuple(
            (float(1.0 / (1.0 - p)), float(x)) for p, x in zip(pp, xs)
        )
    return ReturnLevelCurve(points=points, empirical=empirical, method=method)
