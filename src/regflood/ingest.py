"""Monthly-maxima ingestion and aggregation to seasonal/annual schemes.

Input is a CSV of monthly maximal flows, read into a columnar
:class:`MonthlyTable`.  Hydrological years are split into two
configurable seasons (German convention by default: the year runs
November through October, winter is November-April, summer is
May-October).  Site-years with any missing month are dropped; the
schemes keep, per site, the contiguous run of complete years ending at
the common final year.
"""

from __future__ import annotations

import csv
import math
import warnings
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import compress, islice

import numpy as np

from .errors import DataError, ParameterError
from .regional import ObservationScheme, SiteSeries

__all__ = [
    "MonthlyRecord",
    "MonthlyTable",
    "SeasonDefinition",
    "SeasonalSchemes",
    "ingest_monthly",
    "seasonal_maxima",
    "ReturnLevelCurve",
    "return_level_curve",
]

_HEADER = ["site_id", "year", "month", "flow"]
# years are held as int64; the margin keeps year + 1 from overflowing
_YEAR_LIMIT = 2**62
_CHUNK_ROWS = 1024


@dataclass(frozen=True)
class MonthlyRecord:
    """One monthly maximal flow observation."""

    site_id: str
    year: int
    month: int
    flow: float


@dataclass(frozen=True, eq=False)
class MonthlyTable(Sequence):
    """Monthly records as columns, one entry per record in input order.

    Row ``i`` is site ``site_ids[site[i]]``, calendar ``year[i]`` and
    ``month[i]`` and flow ``flow[i]``.  ``site_ids`` lists the sites in
    order of first appearance; aggregation reports sites in that order.
    As a sequence the table yields one :class:`MonthlyRecord` per row.
    """

    site_ids: tuple[str, ...]
    site: np.ndarray
    year: np.ndarray
    month: np.ndarray
    flow: np.ndarray

    def __post_init__(self):
        for name, dtype in (("site", np.intp), ("year", np.int64), ("month", np.int64),
                            ("flow", float)):
            try:
                object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
            except OverflowError as exc:
                raise DataError(f"monthly table {name} column out of range: {exc}") from exc
        columns = (self.site, self.year, self.month, self.flow)
        if {c.shape for c in columns} != {(self.flow.size,)}:
            raise DataError("monthly table columns must be 1-D and of equal length")
        if np.any((self.site < 0) | (self.site >= len(self.site_ids))):
            raise DataError("monthly table site codes must index site_ids")
        bad = (self.month < 1) | (self.month > 12)
        if bad.any():
            raise DataError(f"month {self.month[bad][0]} outside 1..12")

    @classmethod
    def from_records(cls, records) -> "MonthlyTable":
        """Table of any iterable of :class:`MonthlyRecord`; a table is returned as is."""
        if isinstance(records, MonthlyTable):
            return records
        records = list(records)
        codes: dict[str, int] = {}
        site = [codes.setdefault(r.site_id, len(codes)) for r in records]
        return cls(
            tuple(codes),
            site,
            [r.year for r in records],
            [r.month for r in records],
            [r.flow for r in records],
        )

    def __len__(self) -> int:
        return len(self.flow)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        return MonthlyRecord(
            self.site_ids[self.site[i]], int(self.year[i]), int(self.month[i]),
            float(self.flow[i]),
        )

    def __iter__(self):
        sids = map(self.site_ids.__getitem__, self.site.tolist())
        columns = (self.year.tolist(), self.month.tolist(), self.flow.tolist())
        return map(MonthlyRecord, sids, *columns)


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
            if not isinstance(m, (int, np.integer)):
                raise ParameterError(f"month {m!r} is not an integer")
            if not 1 <= m <= 12:
                raise ParameterError(f"month {m} outside 1..12")

    @property
    def winter_months(self) -> tuple[int, ...]:
        length = (self.winter_end - self.winter_start) % 12 + 1
        return tuple((self.winter_start + i - 1) % 12 + 1 for i in range(length))

    @property
    def summer_months(self) -> tuple[int, ...]:
        length = 12 - len(self.winter_months)
        if not length:
            raise ParameterError("winter season leaves no summer months")
        return tuple((self.winter_end + i) % 12 + 1 for i in range(length))

    def hydro_year(self, year, month):
        """Hydrological year a calendar (year, month) belongs to; works elementwise on arrays."""
        return year + (month >= self.winter_start)


def ingest_monthly(path) -> MonthlyTable:
    """Read and validate a monthly-maxima CSV into a :class:`MonthlyTable`.

    The file is UTF-8 text, with or without a leading byte-order mark,
    in the ``csv`` module's default dialect: fields may be quoted and
    lines may end in LF, CRLF or CR.  Expects the exact header
    ``site_id,year,month,flow``.  Blank rows are skipped and site ids
    are stripped of surrounding whitespace.  Malformed rows, non-positive
    flows and duplicate (site, year, month) keys are collected and
    reported together with their line numbers.
    """
    table = _read_rows(path, _parse_rows)
    if table is None:
        # an invalid file is read again, row by row, for the per-line report
        problems = _read_rows(path, _row_problems)
        raise DataError(f"{path}: invalid input rows:\n  " + "\n  ".join(problems))
    if not len(table):
        warnings.warn(f"{path}: no data rows found", stacklevel=2)
    return table


def _read_rows(path, parse):
    """``parse`` applied to the CSV rows after the header, which it checks first.

    An empty file counts as a header with no rows after it.
    """
    try:
        # utf-8-sig drops a leading byte-order mark, as spreadsheet exports write it
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            rows = csv.reader(fh)
            header = next(rows, None)
            if header is not None and [h.strip() for h in header] != _HEADER:
                raise DataError(
                    f"{path}: expected header {','.join(_HEADER)!r}, "
                    f"got {','.join(header)!r}"
                )
            return parse(rows)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _parse_rows(rows) -> MonthlyTable | None:
    """Table of the non-blank rows, or None when any of them is invalid.

    Applies the rules of :func:`_row_problems` column by column, converting
    ``_CHUNK_ROWS`` rows at a time so that the parsed strings of only one
    chunk are held at once.
    """
    codes: dict[str, int] = {}
    site, year, month, flow = array("q"), array("q"), array("q"), array("d")
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        chunk = list(compress(chunk, map(str.strip, map("".join, chunk))))
        if not chunk:
            continue
        if set(map(len, chunk)) != {4}:
            return None
        sids, years, months, flows = zip(*chunk)
        try:
            year.extend(map(int, years))
            month.extend(map(int, months))
            flow.extend(map(float, flows))
        except (ValueError, OverflowError):
            return None
        site.extend(codes.setdefault(s, len(codes)) for s in map(str.strip, sids))
    year, month, flow = np.array(year), np.array(month), np.array(flow)
    bad = (year < -_YEAR_LIMIT) | (year > _YEAR_LIMIT) | (month < 1) | (month > 12)
    if np.any(bad | ~(np.isfinite(flow) & (flow > 0))):
        return None
    keys = np.stack([np.array(site), year, month])
    keys = keys[:, np.lexsort(keys)]
    if np.any(np.all(keys[:, 1:] == keys[:, :-1], axis=0)):
        return None
    return MonthlyTable(tuple(codes), site, year, month, flow)


def _row_problems(rows) -> list[str]:
    """One message per invalid data row, numbered from line 2 (after the header)."""
    problems: list[str] = []
    seen: set[tuple[str, int, int]] = set()
    for lineno, row in enumerate(rows, start=2):
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
        if not -_YEAR_LIMIT <= year <= _YEAR_LIMIT:
            problems.append(f"line {lineno}: year {year} out of range")
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
    return problems


@dataclass(frozen=True)
class SeasonalSchemes:
    """Aligned winter/summer/annual observation schemes plus a drop report;
    a region known only by its annual maxima has no seasons (``None``)."""

    winter: ObservationScheme | None
    summer: ObservationScheme | None
    annual: ObservationScheme
    dropped_years: dict = field(default_factory=dict)
    dropped_sites: tuple[str, ...] = ()


def seasonal_maxima(
    records,
    season_def: SeasonDefinition | None = None,
    end_policy: str = "truncate",
) -> SeasonalSchemes:
    """Aggregate monthly records to seasonal and annual maxima schemes.

    ``records`` is a :class:`MonthlyTable` or any iterable of
    :class:`MonthlyRecord`.  Per complete site-hydro-year the winter
    maximum W, summer maximum S and annual maximum max(W, S) are formed;
    repeated (site, year, month) records count with their largest flow.
    All sites are aligned on a common final year: ``end_policy='truncate'``
    cuts every site at the earliest final year, ``'reject'`` instead
    drops sites ending before the latest one.  Within a site only the
    contiguous run of complete years ending at the common final year is
    kept.  Every site that keeps no years is listed in ``dropped_sites``;
    sites without a single complete year come last.
    """
    if end_policy not in ("truncate", "reject"):
        raise ParameterError(f"unknown end policy {end_policy!r}")
    sdef = season_def or SeasonDefinition()
    winter = np.isin(np.arange(1, 13), sdef.winter_months)
    summer = np.isin(np.arange(1, 13), sdef.summer_months)
    table = MonthlyTable.from_records(records)
    if not len(table):
        raise DataError("no records to aggregate")

    # one row per (site, hydro-year) present, sorted by site code then year
    hydro_year = sdef.hydro_year(table.year, table.month)
    order = np.lexsort((hydro_year, table.site))
    site, hydro_year = table.site[order], hydro_year[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (site[1:] != site[:-1]) | (hydro_year[1:] != hydro_year[:-1])
    row = np.cumsum(first) - 1
    month = table.month[order] - 1
    flows = np.zeros((first.sum(), 12))
    np.maximum.at(flows, (row, month), table.flow[order])
    present = np.zeros(flows.shape, dtype=bool)
    present[row, month] = True
    complete = present.all(axis=1)
    site, hydro_year = site[first], hydro_year[first]

    dropped_years: dict[str, list[int]] = {}
    for code, year in zip(site[~complete].tolist(), hydro_year[~complete].tolist()):
        dropped_years.setdefault(table.site_ids[code], []).append(year)
    if not complete.any():
        raise DataError("no site has a single complete hydrological year")
    w_max = np.where(winter, flows, -np.inf)[complete].max(axis=1)
    s_max = np.where(summer, flows, -np.inf)[complete].max(axis=1)
    site, hydro_year = site[complete], hydro_year[complete]

    last = np.append(site[1:] != site[:-1], True)
    sites, last_years = site[last], hydro_year[last]
    dropped_sites: list[str] = []
    if end_policy == "truncate":
        end_year = last_years.min()
    else:
        end_year = last_years.max()
        dropped_sites += [table.site_ids[c] for c in sites[last_years < end_year]]
        sites = sites[last_years == end_year]

    # contiguous run of complete years ending at the common final year
    step = np.ones(len(site), dtype=bool)
    step[1:] = (site[1:] != site[:-1]) | (hydro_year[1:] != hydro_year[:-1] + 1)
    run_start = np.maximum.accumulate(np.where(step, np.arange(len(site)), 0)).tolist()
    at_end = np.flatnonzero(hydro_year == end_year)
    end_row = dict(zip(site[at_end].tolist(), at_end.tolist()))
    runs: dict[str, slice] = {}
    for code in sites.tolist():
        i = end_row.get(code)
        if i is None or i == run_start[i]:
            dropped_sites.append(table.site_ids[code])
        else:
            runs[table.site_ids[code]] = slice(run_start[i], i + 1)
    # site codes are in first-seen order
    no_complete_year = np.setdiff1d(np.arange(len(table.site_ids)), site)
    dropped_sites += [table.site_ids[c] for c in no_complete_year]
    if not runs:
        raise DataError("no site retains two complete years ending at the common year")

    length = {sid: run.stop - run.start for sid, run in runs.items()}
    n = max(length.values())
    sites_w, sites_s, sites_a = [], [], []
    for sid in sorted(runs, key=lambda s: (-length[s], s)):
        w_vals, s_vals = w_max[runs[sid]], s_max[runs[sid]]
        offset = n - length[sid]
        sites_w.append(SiteSeries(sid, offset, w_vals))
        sites_s.append(SiteSeries(sid, offset, s_vals))
        sites_a.append(SiteSeries(sid, offset, np.maximum(w_vals, s_vals)))
    return SeasonalSchemes(
        winter=ObservationScheme(tuple(sites_w)),
        summer=ObservationScheme(tuple(sites_s)),
        annual=ObservationScheme(tuple(sites_a)),
        dropped_years=dropped_years,
        dropped_sites=tuple(dropped_sites),
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
