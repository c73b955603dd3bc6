"""CSV ingestion, season aggregation and return-level curve tests."""

import csv
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regflood.errors import DataError, ParameterError
from regflood.gev import GevParams, gev_quantile
from regflood.regional import ObservationScheme, SiteSeries
from regflood.ingest import (
    MonthlyTable,
    SeasonDefinition,
    ingest_monthly,
    return_level_curve,
    seasonal_maxima,
)


def write_csv(path, rows, header="site_id,year,month,flow"):
    lines = [header] + rows
    path.write_text("\n".join(lines) + "\n")
    return path


def columns(table):
    """A table's site ids and its site, year, month and flow columns as lists."""
    return table.site_ids, *(
        getattr(table, c).tolist() for c in ("site", "year", "month", "flow")
    )


def full_year_rows(site, hydro_year, base=10.0, peak_month=8, peak=100.0):
    """All 12 months of one hydrological year (Nov-Oct convention)."""
    rows = []
    for month in (11, 12):
        rows.append(f"{site},{hydro_year - 1},{month},{base + month}")
    for month in range(1, 11):
        flow = peak if month == peak_month else base + month
        rows.append(f"{site},{hydro_year},{month},{flow}")
    return rows


class TestIngest:
    def test_round_trip(self, tmp_path):
        path = write_csv(tmp_path / "data.csv", full_year_rows("A", 2000))
        table = ingest_monthly(path)
        site_ids, *rows = columns(table)
        assert site_ids == ("A",) and table.flow.size == 12
        assert [c[0] for c in rows] == [0, 1999, 11, 21.0]

    def test_empty_file_warns(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.warns(UserWarning):
            assert ingest_monthly(path).flow.size == 0

    def test_duplicate_rejected_with_line(self, tmp_path):
        rows = ["A,2000,5,10.0", "A,2000,5,11.0"]
        path = write_csv(tmp_path / "dup.csv", rows)
        with pytest.raises(DataError, match="line 3"):
            ingest_monthly(path)

    def test_nonpositive_flow_rejected(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", ["A,2000,5,-3.0"])
        with pytest.raises(DataError, match="positive"):
            ingest_monthly(path)

    def test_byte_order_mark_ignored(self, tmp_path):
        rows = full_year_rows("A", 2000) + full_year_rows("B", 2000)
        plain = write_csv(tmp_path / "plain.csv", rows)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert columns(ingest_monthly(bom)) == columns(ingest_monthly(plain))

    def test_bad_header(self, tmp_path):
        path = write_csv(tmp_path / "hdr.csv", ["A,2000,5,1.0"], header="a,b,c,d")
        with pytest.raises(DataError, match="header"):
            ingest_monthly(path)

    def test_malformed_rows_listed(self, tmp_path):
        path = write_csv(
            tmp_path / "mal.csv", ["A,2000,5,1.0", "A,xx,5,1.0", "A,2000,13,1.0"]
        )
        with pytest.raises(DataError) as err:
            ingest_monthly(path)
        assert "line 3" in str(err.value) and "line 4" in str(err.value)


# (rows after the header, expected problem lines)
INVALID_FILES = {
    "field_count": (["A,2000,5"], ["line 2: expected 4 fields, got 3"]),
    "unparseable_year": (
        ["A,xx,5,1.0"], ["line 2: unparseable year/month/flow ['xx', '5', '1.0']"]
    ),
    "month_13": (["A,2000,13,1.0"], ["line 2: month 13 outside 1..12"]),
    "flow_zero": (["A,2000,5,0"], ["line 2: flow must be a positive number, got 0"]),
    "flow_nan": (["A,2000,5,nan"], ["line 2: flow must be a positive number, got nan"]),
    "flow_inf": (["A,2000,5,inf"], ["line 2: flow must be a positive number, got inf"]),
    "duplicate": (
        ["A,2000,5,10.0", "A,2000,6,3.0", " A ,2000,05,11.0"],
        ["line 4: duplicate record for ('A', 2000, 5)"],
    ),
    "empty_site_id": (
        ["  ,xx,5,1.0", "  ,2000,5,1.0", f'"",{10**30},13,-1', "B,2000,5,1.0"],
        [
            "line 2: unparseable year/month/flow ['xx', '5', '1.0']",
            "line 3: empty site id",
            "line 4: empty site id",
        ],
    ),
    "several": (
        ["A,2000,5,1.0", "", "A,2000", "B,2000,5.5,1.0", "B,2000,13,1.0", "B,2000,6,-inf",
         "A,2000,5,2.0", "  ,  ,  ,  ", "C,1e3,1,1.0"],
        [
            "line 4: expected 4 fields, got 2",
            "line 5: unparseable year/month/flow ['2000', '5.5', '1.0']",
            "line 6: month 13 outside 1..12",
            "line 7: flow must be a positive number, got -inf",
            "line 8: duplicate record for ('A', 2000, 5)",
            "line 10: unparseable year/month/flow ['1e3', '1', '1.0']",
        ],
    ),
}


class TestIngestMessages:
    @pytest.mark.parametrize("case", sorted(INVALID_FILES))
    def test_invalid_rows_reported_by_line(self, tmp_path, case):
        rows, expected = INVALID_FILES[case]
        path = write_csv(tmp_path / f"{case}.csv", rows)
        with pytest.raises(DataError) as err:
            ingest_monthly(path)
        assert str(err.value) == f"{path}: invalid input rows:\n  " + "\n  ".join(expected)

    def test_year_beyond_int64_rejected(self, tmp_path):
        path = write_csv(tmp_path / "year.csv", ["A,2000,5,1.0", f"A,{10**23},5,1.0"])
        with pytest.raises(DataError, match=f"line 3: year {10**23} out of range"):
            ingest_monthly(path)

    @pytest.mark.parametrize(
        "row", [b"M\xfcnster,2000,5,1.0", b"A" * 200_000 + b",2000,5,1.0"],
        ids=["latin1", "oversized-field"],
    )
    def test_unreadable_file_rejected(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"site_id,year,month,flow\n" + row + b"\n")
        with pytest.raises(DataError, match="cannot read"):
            ingest_monthly(path)


def reference_ingest(text):
    """The row rules applied one row at a time: the table's site ids and
    columns as lists, or the expected problem lines."""
    rows = csv.reader(io.StringIO(text))
    next(rows)
    problems, seen, kept = [], set(), []
    for line, row in enumerate(rows, start=2):
        if not "".join(row).strip():
            continue
        if len(row) != 4:
            problems.append(f"line {line}: expected 4 fields, got {len(row)}")
            continue
        try:
            key, flow = (row[0].strip(), int(row[1]), int(row[2])), float(row[3])
        except ValueError:
            problems.append(f"line {line}: unparseable year/month/flow {row[1:]!r}")
            continue
        if not key[0]:
            problems.append(f"line {line}: empty site id")
        elif not -2**62 <= key[1] <= 2**62:
            problems.append(f"line {line}: year {key[1]} out of range")
        elif not 1 <= key[2] <= 12:
            problems.append(f"line {line}: month {key[2]} outside 1..12")
        elif not (math.isfinite(flow) and flow > 0):
            problems.append(f"line {line}: flow must be a positive number, got {row[3]}")
        elif key in seen:
            problems.append(f"line {line}: duplicate record for {key}")
        else:
            seen.add(key)
            kept.append((*key, flow))
    if problems:
        return problems
    site_ids = tuple(dict.fromkeys(k[0] for k in kept))
    return (site_ids, [site_ids.index(k[0]) for k in kept],
            *([k[c] for k in kept] for c in (1, 2, 3)))


def ingest_outcome(path):
    """``columns`` of the table ingested from ``path``, or its problem lines."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty table
            return columns(ingest_monthly(path))
    except DataError as exc:
        head, _, report = str(exc).partition(": invalid input rows:\n  ")
        assert head == str(path)
        return report.split("\n  ")


def base_rows(n):
    """``n`` valid rows of five sites with distinct keys."""
    return [f"S{i % 5},{1990 + i // 60},{i // 5 % 12 + 1},{i % 89 + 0.5}" for i in range(n)]


ROW_TOKENS = (
    ["A", "B", " A ", '"C"', '"B,C"', "", "  "],
    ["2000", "2001", " 2000 ", "2_000", "1e3", "xx", "", str(2**62), str(2**62 + 1),
     str(-2**62 - 1), str(2**63), str(2**64), str(-10**23)],
    ["1", "5", "12", "05", " 7 ", "0", "13", "5.5", str(2**63)],
    ["1e3", "5.5", "1.0", "0", "-1", "nan", "inf", "1e999", "x"],
)
rows_of_tokens = st.one_of(
    st.tuples(*map(st.sampled_from, ROW_TOKENS)).map(",".join),
    st.sampled_from(["", " , , , ", "S0,1990,1,2.5"]),  # blank rows, a repeat of a base key
    st.lists(st.sampled_from(ROW_TOKENS[0] + ROW_TOKENS[1]), min_size=1, max_size=6)
    .filter(lambda fields: len(fields) != 4).map(",".join),
)


class TestIngestReference:
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([0, 0, 3, 1030, 2200]),
        edits=st.lists(st.tuples(
            st.one_of(st.integers(0, 2200), st.sampled_from([1021, 1022, 1023, 2045, 2046])),
            rows_of_tokens,
        ), max_size=8),
    )
    def test_matches_row_by_row_reference(self, tmp_path_factory, n, edits):
        # files over 1,024 rows put bad rows in several chunks and at chunk edges
        rows = base_rows(n)
        for at, row in edits:
            rows.insert(at, row)
        text = "\n".join(["site_id,year,month,flow", *rows]) + "\n"
        path = tmp_path_factory.mktemp("ref") / "monthly.csv"
        path.write_text(text, encoding="utf-8")
        assert ingest_outcome(path) == reference_ingest(text)

    def test_bad_rows_in_several_chunks(self, tmp_path):
        rows = base_rows(3000)
        for at, row in ((0, "A,2000,13,1"), (1023, "A,2000"), (1024, "S1,1990,1,9.0"),
                        (2047, " ,2000,5,1"), (2048, "A,xx,5,1"), (2999, "A,2000,5,nan")):
            rows[at] = row
        path = write_csv(tmp_path / "long.csv", rows)
        outcome = ingest_outcome(path)
        assert outcome == reference_ingest(path.read_text())
        assert [line.split(":")[0] for line in outcome] == [
            "line 2", "line 1025", "line 1026", "line 2049", "line 2050", "line 3001"
        ]

    @pytest.mark.parametrize("rows", [base_rows(30), ["A,2000,13,1.0", "A,2000,5"]],
                             ids=["valid", "invalid"])
    def test_file_opened_once(self, tmp_path, monkeypatch, rows):
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr("regflood.ingest.open", counting_open, raising=False)
        path = write_csv(tmp_path / "monthly.csv", rows)
        ingest_outcome(path)
        assert opened == [path]


class TestIngestAccepts:
    def test_quoted_fields(self, tmp_path):
        rows = ['"A",2000,"5","1.5"', '"B,C",2000,5,2.0', 'D,"2001",6,"3"']
        assert columns(ingest_monthly(write_csv(tmp_path / "q.csv", rows))) == (
            ("A", "B,C", "D"), [0, 1, 2], [2000, 2000, 2001], [5, 5, 6], [1.5, 2.0, 3.0]
        )

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_line_endings(self, tmp_path, newline):
        path = tmp_path / "eol.csv"
        lines = [b"site_id,year,month,flow", b"A,2000,5,1.5", b"", b"A,2000,6,2.5"]
        path.write_bytes(newline.join(lines) + newline)
        assert columns(ingest_monthly(path)) == (
            ("A",), [0, 0], [2000, 2000], [5, 6], [1.5, 2.5]
        )

    def test_blank_rows_and_padded_fields(self, tmp_path):
        rows = ["  A  ,2000,5,1.5", "   ", " , , , ", "", "B\t,2000, 6 ,2.0 ", "C,2_000,7,1_0.5"]
        assert columns(ingest_monthly(write_csv(tmp_path / "ws.csv", rows))) == (
            ("A", "B", "C"), [0, 1, 2], [2000, 2000, 2000], [5, 6, 7], [1.5, 2.0, 10.5]
        )

    def test_only_blank_rows_warn(self, tmp_path):
        path = write_csv(tmp_path / "blank.csv", ["", " , , , "])
        with pytest.warns(UserWarning, match="no data rows"):
            assert ingest_monthly(path).flow.size == 0


class TestMonthlyTable:
    @pytest.mark.parametrize("flow", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive_flows(self, flow):
        # the CSV rules hold for a table built in the library too
        with pytest.raises(DataError, match="finite and positive"):
            MonthlyTable(("A", "B"), [0, 1], [2000, 2000], [5, 5], [1.0, flow])

    def test_rejects_bad_columns(self):
        with pytest.raises(DataError, match="month 13"):
            MonthlyTable(("A",), [0], [2000], [13], [1.0])
        with pytest.raises(DataError, match="equal length"):
            MonthlyTable(("A",), [0, 0], [2000], [5], [1.0])
        with pytest.raises(DataError, match="site codes"):
            MonthlyTable(("A",), [1], [2000], [5], [1.0])
        with pytest.raises(DataError, match="year column out of range"):
            MonthlyTable(("A",), [0], [10**30], [5], [1.0])


class TestSeasonDefinition:
    def test_default_german_convention(self):
        sdef = SeasonDefinition()
        assert sdef.winter_months == (11, 12, 1, 2, 3, 4)
        assert sdef.summer_months == (5, 6, 7, 8, 9, 10)
        assert sdef.hydro_year(1999, 11) == 2000
        assert sdef.hydro_year(2000, 10) == 2000

    def test_custom_split(self):
        sdef = SeasonDefinition(10, 3)
        assert sdef.winter_months == (10, 11, 12, 1, 2, 3)
        assert sdef.summer_months == (4, 5, 6, 7, 8, 9)

    @pytest.mark.parametrize("start", range(1, 13))
    def test_seasons_partition_the_year(self, start):
        for end in range(1, 13):
            sdef = SeasonDefinition(start, end)
            winter = sdef.winter_months
            assert winter[0] == start and winter[-1] == end and len(set(winter)) == len(winter)
            if len(winter) == 12:
                with pytest.raises(ParameterError, match="no summer months"):
                    sdef.summer_months
            else:
                assert sorted(winter + sdef.summer_months) == list(range(1, 13))
                assert sdef.summer_months[0] == end % 12 + 1

    def test_hydro_year_on_arrays(self):
        sdef = SeasonDefinition(10, 3)
        years, months = np.array([1999, 1999, 2000]), np.array([9, 10, 12])
        np.testing.assert_array_equal(sdef.hydro_year(years, months), [1999, 2000, 2001])
        assert [sdef.hydro_year(int(y), int(m)) for y, m in zip(years, months)] == [
            1999, 2000, 2001
        ]

    @pytest.mark.parametrize("months", [(10.5, 3), (10, float("nan")), ("10", 3)])
    def test_non_integer_month_rejected(self, months):
        with pytest.raises(ParameterError, match="not an integer"):
            SeasonDefinition(*months)


class TestSeasonalMaxima:
    def test_summer_peak_drives_annual(self, tmp_path):
        rows = []
        for year in (2000, 2001):
            rows += full_year_rows("A", year, peak_month=8, peak=100.0)
        path = write_csv(tmp_path / "d.csv", rows)
        schemes = seasonal_maxima(ingest_monthly(path))
        # winter max = December value (22), summer max = 100 (August)
        np.testing.assert_allclose(schemes.winter.sites[0].values, [22.0, 22.0])
        np.testing.assert_allclose(schemes.summer.sites[0].values, [100.0, 100.0])
        np.testing.assert_allclose(schemes.annual.sites[0].values, [100.0, 100.0])

    def test_partition_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = []
        flows = {}
        for year in (2000, 2001, 2002):
            for cal_year, month in [(year - 1, 11), (year - 1, 12)] + [
                (year, m) for m in range(1, 11)
            ]:
                flow = float(rng.gamma(5) * 10 + 1)
                flows[(year, month)] = flow
                rows.append(f"A,{cal_year},{month},{flow}")
        path = write_csv(tmp_path / "d.csv", rows)
        schemes = seasonal_maxima(ingest_monthly(path))
        for i, year in enumerate((2000, 2001, 2002)):
            twelve = max(flows[(year, m)] for m in range(1, 13))
            assert schemes.annual.sites[0].values[i] == pytest.approx(twelve)
            assert max(
                schemes.winter.sites[0].values[i], schemes.summer.sites[0].values[i]
            ) == pytest.approx(twelve)

    def test_incomplete_year_dropped(self, tmp_path):
        rows = full_year_rows("A", 2000) + full_year_rows("A", 2001)
        rows += full_year_rows("A", 2002)[:-1]  # drop October 2002
        path = write_csv(tmp_path / "d.csv", rows)
        schemes = seasonal_maxima(ingest_monthly(path))
        assert schemes.annual.sites[0].length == 2
        assert schemes.dropped_years == {"A": [2002]}

    def test_staggered_offsets(self, tmp_path):
        rows = []
        for year in (2000, 2001, 2002):
            rows += full_year_rows("A", year)
        for year in (2001, 2002):
            rows += full_year_rows("B", year)
        path = write_csv(tmp_path / "d.csv", rows)
        schemes = seasonal_maxima(ingest_monthly(path))
        assert schemes.annual.n == 3
        idx_b = schemes.annual.site_index("B")
        assert schemes.annual.sites[idx_b].offset == 1

    def test_truncate_vs_reject(self, tmp_path):
        rows = []
        for year in (2000, 2001, 2002):
            rows += full_year_rows("A", year)
        for year in (2000, 2001):  # B ends a year early
            rows += full_year_rows("B", year)
        path = write_csv(tmp_path / "d.csv", rows)
        table = ingest_monthly(path)
        truncated = seasonal_maxima(table, end_policy="truncate")
        assert truncated.annual.n == 2
        rejected = seasonal_maxima(table, end_policy="reject")
        assert rejected.annual.site_ids == ["A"]
        assert "B" in rejected.dropped_sites

    def test_site_without_complete_year_dropped(self, tmp_path):
        rows = []
        for sid in ("A", "B"):
            for year in (2001, 2002, 2003):
                rows += full_year_rows(sid, year)
        rows += full_year_rows("C", 2001)[:5]
        path = write_csv(tmp_path / "d.csv", rows)
        schemes = seasonal_maxima(ingest_monthly(path))
        assert schemes.annual.site_ids == ["A", "B"]
        assert schemes.dropped_years == {"C": [2001]}
        assert schemes.dropped_sites == ("C",)

    def test_sites_without_complete_year_listed_last(self, tmp_path):
        rows = full_year_rows("D", 2001)[:3]
        for year in (2000, 2001):
            rows += full_year_rows("A", year)
        rows += full_year_rows("B", 2000)  # ends a year early
        rows += full_year_rows("C", 2001)[:5]
        path = write_csv(tmp_path / "d.csv", rows)
        schemes = seasonal_maxima(ingest_monthly(path), end_policy="reject")
        assert schemes.annual.site_ids == ["A"]
        assert schemes.dropped_sites == ("B", "D", "C")

    def test_winter_without_summer_rejected(self):
        table = MonthlyTable(("A",), [0] * 12, [2000] * 12, range(1, 13), [1.0] * 12)
        with pytest.raises(ParameterError, match="no summer months"):
            seasonal_maxima(table, SeasonDefinition(1, 12))

    def test_only_a_table_is_aggregated(self):
        with pytest.raises(DataError, match="need a MonthlyTable"):
            seasonal_maxima([("A", 2000, m, 1.0) for m in range(1, 13)])

    def test_interior_gap_keeps_trailing_run(self, tmp_path):
        rows = full_year_rows("A", 2000)
        rows += full_year_rows("A", 2002) + full_year_rows("A", 2003)
        path = write_csv(tmp_path / "d.csv", rows)
        schemes = seasonal_maxima(ingest_monthly(path))
        assert schemes.annual.sites[0].length == 2  # 2002, 2003 only


class TestReturnLevels:
    def test_median_at_two_years(self):
        params = GevParams(2, 1, 0.2)
        curve = return_level_curve(lambda p: gev_quantile(params, p), [2.0])
        assert curve.points[0][1] == pytest.approx(gev_quantile(params, 0.5))

    def test_empirical_plotting_positions(self):
        sample = np.arange(1.0, 100.0)  # n = 99
        curve = return_level_curve(lambda p: p, [2.0], sample=sample)
        periods = [t for t, _ in curve.empirical]
        assert max(periods) == pytest.approx(100.0)

    def test_monotone_levels(self):
        params = GevParams(2, 1, 0.2)
        curve = return_level_curve(
            lambda p: gev_quantile(params, p), [2, 5, 10, 50, 100, 500]
        )
        levels = [lvl for _, lvl in curve.points]
        assert all(b >= a for a, b in zip(levels, levels[1:]))

    def test_period_validation(self):
        with pytest.raises(ParameterError):
            return_level_curve(lambda p: p, [0.5])
        with pytest.raises(ParameterError):
            return_level_curve(lambda p: p, [10.0, np.nan])

    def test_csv_output(self, tmp_path):
        params = GevParams(2, 1, 0.2)
        curve = return_level_curve(
            lambda p: gev_quantile(params, p), [2, 10], sample=[1.0, 2.0, 3.0],
            method="TL",
        )
        path = tmp_path / "curve.csv"
        curve.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "kind,return_period,level,method"
        assert len(lines) == 1 + 2 + 3


def dict_seasonal_maxima(table, season_def=None, end_policy="truncate"):
    """Row-by-row dict aggregation of a table (reference for ``seasonal_maxima``)."""
    sdef = season_def or SeasonDefinition()
    winter_set = set(sdef.winter_months)

    if not table.flow.size:
        raise DataError("no records to aggregate")
    by_site = {sid: {} for sid in table.site_ids}
    for code, year, month, flow in zip(*columns(table)[1:]):
        hy = sdef.hydro_year(year, month)
        months = by_site[table.site_ids[code]].setdefault(hy, {})
        months[month] = max(flow, months.get(month, 0.0))

    complete, dropped_years = {}, {}
    for sid, years in by_site.items():
        complete[sid] = {}
        for hy, months in years.items():
            if len(months) < 12:
                dropped_years.setdefault(sid, []).append(hy)
                continue
            w = max(v for m, v in months.items() if m in winter_set)
            s = max(v for m, v in months.items() if m not in winter_set)
            complete[sid][hy] = (w, s)
    no_complete_year = [sid for sid, ys in complete.items() if not ys]
    complete = {sid: ys for sid, ys in complete.items() if ys}
    if not complete:
        raise DataError("no site has a single complete hydrological year")

    last_years = {sid: max(ys) for sid, ys in complete.items()}
    dropped_sites = []
    if end_policy == "truncate":
        end_year = min(last_years.values())
    else:
        end_year = max(last_years.values())
        for sid, ly in last_years.items():
            if ly < end_year:
                dropped_sites.append(sid)
        complete = {sid: ys for sid, ys in complete.items() if sid not in dropped_sites}

    runs = {}
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
    dropped_sites += no_complete_year
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
    return (
        ObservationScheme(tuple(sites_w)),
        ObservationScheme(tuple(sites_s)),
        ObservationScheme(tuple(sites_a)),
        {sid: sorted(ys) for sid, ys in dropped_years.items()},
        tuple(dict.fromkeys(dropped_sites)),
    )


def random_table(rng):
    """Monthly table with staggered spans, gaps, incomplete years and repeated keys,
    its rows shuffled or not."""
    chosen = rng.permutation(["S1", "S2", "S3", "S4", "S5"])[: rng.integers(1, 6)]
    site_ids = tuple(map(str, chosen))
    rows = []
    for code in range(len(site_ids)):
        first = int(rng.integers(1950, 1960))
        last = int(rng.integers(1962, 1970))
        gaps = set(rng.choice(np.arange(first, last + 1), rng.integers(0, 3)).tolist())
        for year in range(first, last + 1):
            if year in gaps:
                continue
            for month in range(1, 13):
                if rng.uniform() < 0.01:  # leaves its hydro-year incomplete
                    continue
                rows.append((code, year, month, float(rng.gamma(3.0) * 10.0 + 0.5)))
                if rng.uniform() < 0.02:  # a repeated key with another flow
                    rows.append((code, year, month, float(rng.gamma(3.0) * 10.0)))
    order = rng.permutation(len(rows)) if rng.uniform() < 0.5 else range(len(rows))
    return MonthlyTable(site_ids, *zip(*[rows[i] for i in order]))


def aggregate(fn, *args):
    try:
        return fn(*args)
    except DataError as exc:
        return str(exc)


@pytest.mark.parametrize("season", [(11, 4), (10, 3)], ids=["nov-apr", "oct-mar"])
@pytest.mark.parametrize("end_policy", ["truncate", "reject"])
def test_aggregation_matches_dict_reference(season, end_policy):
    rng = np.random.default_rng([season[0], len(end_policy)])
    sdef = SeasonDefinition(*season)
    outcomes = set()
    for _ in range(100):
        table = random_table(rng)
        expected = aggregate(dict_seasonal_maxima, table, sdef, end_policy)
        got = aggregate(seasonal_maxima, table, sdef, end_policy)
        if isinstance(expected, str):
            assert got == expected
        else:
            *schemes, dropped_years, dropped_sites = expected
            for scheme, new in zip(schemes, (got.winter, got.summer, got.annual)):
                assert new.site_ids == scheme.site_ids
                for site, new_site in zip(scheme.sites, new.sites):
                    assert new_site.offset == site.offset
                    np.testing.assert_array_equal(new_site.values, site.values)
            assert list(got.dropped_years.items()) == list(dropped_years.items())
            assert got.dropped_sites == dropped_sites
        if isinstance(expected, str):
            outcomes.add("error")
        else:
            outcomes.add("single site" if len(schemes[0].sites) == 1 else "several sites")
            outcomes.add("dropped sites" if dropped_sites else "no dropped site")
    assert outcomes == {"error", "single site", "several sites", "dropped sites",
                        "no dropped site"}
