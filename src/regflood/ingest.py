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
import io
import warnings
from array import array
from dataclasses import dataclass, field
from itertools import chain, compress, islice

import numpy as np

from .errors import DataError, ParameterError
from .regional import ObservationScheme, SiteSeries

__all__ = [
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
# lines are read in blocks of at least this many characters, some 12,000 rows
_BLOCK_CHARS = 1 << 18
# exact powers of ten, 10**0 to 10**17: a point in a field of up to 18 places
# has at most 17 digits after it
_POW10 = np.array([float(10**k) for k in range(18)])


@dataclass(frozen=True, eq=False)
class MonthlyTable:
    """Monthly records as columns, one entry per record in input order.

    Row ``i`` is site ``site_ids[site[i]]``, calendar ``year[i]`` and
    ``month[i]`` and flow ``flow[i]``.  ``site_ids`` lists the sites in
    order of first appearance; aggregation reports sites in that order.
    Months lie in 1..12 and flows are finite and positive, as in the CSV.
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
        if not np.all(np.isfinite(self.flow) & (self.flow > 0)):
            raise DataError("monthly flows must be finite and positive")


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
            if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
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
    are stripped of surrounding whitespace.  Malformed rows, empty site
    ids, non-positive flows and duplicate (site, year, month) keys are
    collected and reported together with their line numbers; a NUL
    character makes the file unreadable.  The file is read once, so it
    may be a pipe.  Unquoted files take a byte route, which converts a
    block of lines a whole column at a time under the same rules, with
    the same results and messages as the ``csv`` reading that takes over,
    one row at a time, from the first block holding a quote, a line
    longer than the ``csv`` field size limit, or a row to report.
    """
    try:
        # utf-8-sig drops a leading byte-order mark, as spreadsheet exports write it
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            header = next(csv.reader(fh), None)
            if header is not None and [h.strip() for h in header] != _HEADER:
                raise DataError(
                    f"{path}: expected header {','.join(_HEADER)!r}, "
                    f"got {','.join(header)!r}"
                )
            table, problems = _read_rows(fh)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if problems:
        report = "\n  ".join(f"line {line}: {problems[line]}" for line in sorted(problems))
        raise DataError(f"{path}: invalid input rows:\n  {report}")
    if not table.flow.size:
        warnings.warn(f"{path}: no data rows found", stacklevel=2)
    return table


def _read_rows(fh) -> tuple[MonthlyTable, dict[int, str]]:
    """Table of the rows after the header that keep the row rules, and the
    message of each row that breaks one or repeats an earlier key, by line
    number.  Blocks take the byte route until one does not; from that
    block's first line on, ``csv.reader`` reads the rest of the file row
    by row (:func:`_parse_rows`)."""
    codes: dict[str, int] = {}
    problems: dict[int, str] = {}
    columns = [array(code) for code in "qqqqd"]  # line, site code, year, month, flow
    blocks = _blocks(fh)
    start = 2  # the header is line 1
    for text in blocks:
        if not (taken := _take_columns(start, text, codes, columns)):
            # StringIO(newline="") ends lines where the file does: at "\n", "\r\n" or "\r"
            lines = chain.from_iterable(io.StringIO(t, newline="") for t in chain([text], blocks))
            _parse_rows(csv.reader(lines), start, codes, problems, columns)
            break
        start += taken  # without quotes, a line is a record
    line, site, year, month, flow = (np.frombuffer(c, dtype=c.typecode) for c in columns)
    order = np.lexsort((month, year, site))  # stable: a key's first line sorts first
    repeats = np.all([np.diff(c[order]) == 0 for c in (site, year, month)], axis=0)
    for i in order[1:][repeats].tolist():
        key = (tuple(codes)[site[i]], int(year[i]), int(month[i]))
        problems[int(line[i])] = f"duplicate record for {key}"
    return MonthlyTable(tuple(codes), site, year, month, flow), problems


def _blocks(fh):
    """The text of ``fh`` in blocks of whole lines, each of at least
    ``_BLOCK_CHARS`` characters but the last; a NUL character makes the file
    unreadable."""
    while text := fh.read(_BLOCK_CHARS):
        text += fh.readline()  # the rest of the last line, a "\r\n" kept whole
        if "\x00" in text:
            raise csv.Error("line contains NUL")
        yield text


def _take_columns(start, text, codes, columns) -> int:
    """Append the rows of a block's ``text`` (from line ``start``) to
    ``columns`` by whole columns, coding new sites in ``codes``, if every
    line is a row of four fields that converts and keeps the row rules;
    return the number of lines taken, 0 if it did not.  Without quotes a
    line's fields are its comma-separated pieces, as ``csv.reader`` reads
    them, so a block with a quote, or a line longer than the ``csv`` field
    size limit, is left to it.  Empty lines are dropped, each other line
    keeping its number.  The text is read as UTF-8 bytes: numbers convert
    column by column (:func:`_numbers`), and a site id is decoded and
    stripped once per run of identical raw ids (:func:`_runs`)."""
    if '"' in text:
        return 0
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    raw = text.encode() if text[-1] == "\n" else (text + "\n").encode()
    b = np.frombuffer(raw, np.uint8)
    # positions in 32 bits where they fit, which halves a large block's peak memory
    position = np.int32 if len(raw) < 2**31 else np.intp
    ends, commas = (np.flatnonzero(b == c).astype(position) for c in (10, 44))
    begins = np.concatenate(([0], ends[:-1] + 1), dtype=position)
    if (ends - begins).max() > csv.field_size_limit():
        return 0
    kept = ends > begins
    begins, ends = begins[kept], ends[kept]
    if len(commas) != 3 * len(ends):
        return 0
    # three commas a line in all, and each line's three inside it
    commas = commas.reshape(-1, 3)
    if np.any(commas[:, 0] < begins) or np.any(commas[:, 2] > ends):
        return 0
    try:
        year = _numbers(raw, b, commas[:, 0] + 1, commas[:, 1], int)
        month = _numbers(raw, b, commas[:, 1] + 1, commas[:, 2], int)
        flow = _numbers(raw, b, commas[:, 2] + 1, ends, float)
    except (ValueError, OverflowError):
        return 0
    runs = _runs(b, begins, commas[:, 0])
    sids = [raw[i:j].decode().strip()
            for i, j in zip(begins[runs].tolist(), commas[runs, 0].tolist())]
    # every fault is left to csv.reader, so the site rule may read one id a run
    if any(fault.any() for fault, _ in _row_faults(sids, year, month, flow)):
        return 0
    site = np.repeat(_site_codes(codes, sids), np.diff(runs, append=len(flow)))
    _append_rows(columns, start + np.flatnonzero(kept), site, year, month, flow)
    return len(kept)


def _numbers(raw, b, begins, ends, convert) -> np.ndarray:
    """``convert`` (``int`` or ``float``) of the fields ``raw[begins:ends]``, as
    int64 or float.  Fields of up to 18 ASCII digits, or for ``float`` of
    up to 15 digits around at most one point, convert as a whole column:
    right-aligned, one row of bytes per place, Horner's rule over the
    digits, skipping the point, gives their integer, exact in int64, and
    for ``float`` that integer (below 2**53) over an exact power of ten is
    the correctly rounded value ``float`` gives.  Every other field
    (signs, spaces, exponents, ``inf``, more digits, non-ASCII) is passed
    to ``convert`` one at a time."""
    size = ends - begins
    width = min(int(size.max(initial=1)), 18)
    # a place before the start of the block wraps round to its end, outside the field
    chars = np.empty((width, len(size)), dtype=np.uint8)
    at = ends - np.intp(width)  # a full-width index, converted once
    for place in chars:
        place[:] = b[at]
        at += 1
    is_digit = np.arange(width)[:, None] >= width - size  # inside the field, for now
    point = is_digit & (chars == 46) if convert is float else np.zeros_like(is_digit)
    chars -= 48
    is_digit &= chars < 10
    chars *= is_digit
    value = np.zeros(len(size), dtype=np.int64)
    for digit, step in zip(chars, np.where(point, np.uint8(1), np.uint8(10))):
        value *= step
        value += digit
    digits, points = is_digit.sum(axis=0, dtype=np.uint8), point.sum(axis=0, dtype=np.uint8)
    fast = (digits + points == size) & (points <= 1) & (digits > 0)
    if convert is float:
        fast &= digits <= 15
        seen, after = np.zeros(len(size), dtype=bool), np.zeros(len(size), dtype=np.uint8)
        for place_point, place_digit in zip(point, is_digit):  # the digits after a point
            seen |= place_point
            after += seen & place_digit
        value = value / _POW10[after]
    slow = np.flatnonzero(~fast)
    value[slow] = [convert(raw[i:j].decode()) for i, j in zip(begins[slow].tolist(),
                                                              ends[slow].tolist())]
    return value


def _runs(b, begins, ends) -> np.ndarray:
    """The rows whose field ``b[begins:ends]`` differs in its bytes from the
    row before: 0 and every row that starts a run of identical fields.  A
    field longer than 64 bytes always starts one."""
    size = ends - begins
    new = np.ones(len(size), dtype=bool)
    new[1:] = (size[1:] != size[:-1]) | (size[1:] > 64)
    for k in range(min(int(size.max(initial=0)), 64)):
        byte = b.take(begins + k, mode="clip")
        new[1:] |= (byte[1:] != byte[:-1]) & (size[1:] > k)
    return np.flatnonzero(new)


def _parse_rows(rows, start, codes, problems, columns) -> None:
    """Append the ``csv.reader`` rows from line ``start`` on that keep the row
    rules to ``columns``, coding new sites in ``codes``, and put the message
    of every other non-blank row in ``problems``.  Each row converts on its
    own; the row rules run on the converted columns of a chunk of
    ``_CHUNK_ROWS`` rows at a time, so memory stays bounded."""
    rows = enumerate(rows, start)
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        kept = []
        for line, row in chunk:
            try:
                sid, year, month, flow = row
                kept.append((line, sid.strip(), int(year), int(month), float(flow), flow))
            except ValueError:  # not four fields, one that does not convert, or a blank row
                if "".join(row).strip():
                    problems[line] = (f"expected 4 fields, got {len(row)}" if len(row) != 4
                                      else f"unparseable year/month/flow {row[1:]!r}")
        if not kept:
            continue
        lines, sids, years, months, flows, texts = zip(*kept)
        year, month, flow = _integers(years), _integers(months), np.array(flows)
        ok = np.ones(len(kept), dtype=bool)
        for fault, text in _row_faults(sids, year, month, flow):
            for i in np.flatnonzero(fault & ok).tolist():
                problems[lines[i]] = text.format(year=year[i], month=month[i], flow=texts[i])
            ok &= ~fault
        _append_rows(columns, np.array(lines)[ok], _site_codes(codes, list(compress(sids, ok))),
                     year[ok], month[ok], flow[ok])


def _integers(values) -> np.ndarray:
    """``values`` as int64, or as Python ints where one lies beyond int64, so
    that the year and month rules reject it with its exact value."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _row_faults(sids, year, month, flow):
    """The row rules on converted columns, in the order they are checked:
    each rule's fault mask and message template."""
    empty = np.equal(sids, "") if "" in sids else np.zeros(len(sids), dtype=bool)
    return (
        (empty, "empty site id"),
        ((year < -_YEAR_LIMIT) | (year > _YEAR_LIMIT), "year {year} out of range"),
        ((month < 1) | (month > 12), "month {month} outside 1..12"),
        (~(np.isfinite(flow) & (flow > 0)), "flow must be a positive number, got {flow}"),
    )


def _site_codes(codes, sids) -> np.ndarray:
    """The codes of the site ids ``sids``, coding new sites in ``codes``."""
    for sid in dict.fromkeys(sids):
        codes.setdefault(sid, len(codes))
    return np.fromiter(map(codes.__getitem__, sids), np.int64, len(sids))


def _append_rows(columns, lines, site, year, month, flow) -> None:
    """Append rows that keep the row rules to ``columns``."""
    for column, values in zip(columns, (lines, site, year, month, flow)):
        column.frombytes(np.ascontiguousarray(values, column.typecode).view(np.uint8))


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
    table: MonthlyTable,
    season_def: SeasonDefinition | None = None,
    end_policy: str = "truncate",
) -> SeasonalSchemes:
    """Aggregate a :class:`MonthlyTable` to seasonal and annual maxima schemes.

    Per complete site-hydro-year the winter
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
    if not isinstance(table, MonthlyTable):
        raise DataError(f"need a MonthlyTable, got {type(table).__name__}")
    if not table.flow.size:
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
    if not np.all(t_grid > 1.0):  # also rejects NaN
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
