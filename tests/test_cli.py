"""End-to-end command line tests on synthetic monthly data."""

import csv
import json

import numpy as np
import pytest

from regflood.cli import EXIT_HOMOGENEITY, EXIT_INPUT, main
from regflood.gev import GevParams, gev_quantile


@pytest.fixture()
def monthly_csv(tmp_path):
    """Synthetic monthly maxima for 4 sites, 60 hydrological years.

    Winter months draw from a lighter-tailed model than summer months so
    that the seasonal pipeline has something real to estimate.
    """
    rng = np.random.default_rng(2024)
    winter_model = GevParams(20, 6, 0.15)
    summer_model = GevParams(15, 7, 0.3)
    lines = ["site_id,year,month,flow"]
    for j in range(4):
        for hydro_year in range(1950, 2010):
            for cal_year, month in [(hydro_year - 1, 11), (hydro_year - 1, 12)] + [
                (hydro_year, m) for m in range(1, 11)
            ]:
                model = winter_model if month in (11, 12, 1, 2, 3, 4) else summer_model
                flow = gev_quantile(model, rng.uniform()) + 2 * j
                lines.append(f"site{j + 1},{cal_year},{month},{max(flow, 0.1):.4f}")
    path = tmp_path / "monthly.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_fit_gev(monthly_csv, capsys):
    code = main(
        ["fit-gev", "--data", str(monthly_csv), "--p", "0.99", "--method", "TL"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "quantile estimate" in out
    assert "[" in out and "]" in out  # bracketed interval formatting


def test_fit_two_component(monthly_csv, capsys, tmp_path):
    out_dir = tmp_path / "results"
    code = main(
        [
            "fit-two-component",
            "--data",
            str(monthly_csv),
            "--target-site",
            "site2",
            "--out",
            str(out_dir),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "winter xi" in out
    content = (out_dir / "estimate.csv").read_text()
    assert content.startswith("method,")
    assert "sTL" in content


def test_regional_tail(monthly_csv, capsys):
    code = main(["regional-tail", "--data", str(monthly_csv)])
    out = capsys.readouterr().out
    assert code == 0
    assert "regional tail index" in out


def test_weissman(monthly_csv, capsys):
    code = main(
        ["weissman", "--data", str(monthly_csv), "--p", "0.995", "--alpha", "0.1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "W quantile estimate" in out


def test_return_levels(monthly_csv, capsys, tmp_path):
    out_dir = tmp_path / "curves"
    code = main(
        [
            "return-levels",
            "--data",
            str(monthly_csv),
            "--method",
            "sTL",
            "--t-grid",
            "2,10,100",
            "--out",
            str(out_dir),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "T=" in out
    assert (out_dir / "return_levels_sTL.csv").exists()


def test_simulate(tmp_path, capsys):
    scenario = {
        "d": 2,
        "n": 40,
        "p": 0.99,
        "margins": {"type": "seasonal", "winter": [2, 1, 0.2], "summer": [1.5, 1, 0.4]},
        "estimators": ["L", "sTL"],
        "replications": 3,
        "seed": 7,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "true quantile" in out
    assert (tmp_path / "scenario_report.csv").exists()


def test_missing_file_exit_code(capsys):
    code = main(["fit-gev", "--data", "/nonexistent/file.csv"])
    assert code == EXIT_INPUT or code == 3  # OSError surfaces as input problem


def test_bad_site_exit_code(monthly_csv, capsys):
    code = main(["fit-gev", "--data", str(monthly_csv), "--target-site", "ghost"])
    assert code == EXIT_INPUT


def test_enforced_homogeneity_can_fail(tmp_path, capsys):
    # one site with a much heavier tail than the rest
    rng = np.random.default_rng(5)
    lines = ["site_id,year,month,flow"]
    for j, xi in enumerate([0.0, 0.0, 0.9]):
        model = GevParams(20, 3, xi) if xi else GevParams(20, 3, 0.001)
        for hydro_year in range(1950, 2050):
            for cal_year, month in [(hydro_year - 1, 11), (hydro_year - 1, 12)] + [
                (hydro_year, m) for m in range(1, 11)
            ]:
                flow = gev_quantile(model, rng.uniform())
                lines.append(f"s{j},{cal_year},{month},{max(flow, 0.1):.4f}")
    path = tmp_path / "hetero.csv"
    path.write_text("\n".join(lines) + "\n")
    code = main(
        ["fit-gev", "--data", str(path), "--enforce-homogeneity", "--method", "L"]
    )
    err = capsys.readouterr().err
    assert code == EXIT_HOMOGENEITY
    assert "homogeneity" in err


def test_config_file_supplies_defaults(monthly_csv, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"method": "L"}))
    code = main(
        ["fit-gev", "--data", str(monthly_csv), "--config", str(config)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "L quantile estimate" in out


@pytest.fixture()
def single_site_csv(tmp_path):
    rng = np.random.default_rng(11)
    model = GevParams(20, 6, 0.2)
    lines = ["site_id,year,month,flow"]
    for hydro_year in range(1950, 2010):
        for cal_year, month in [(hydro_year - 1, 11), (hydro_year - 1, 12)] + [
            (hydro_year, m) for m in range(1, 11)
        ]:
            flow = gev_quantile(model, rng.uniform())
            lines.append(f"solo,{cal_year},{month},{max(flow, 0.1):.4f}")
    path = tmp_path / "single.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize(
    "command, out_file",
    [
        ("fit-gev", "estimate.csv"),
        ("fit-two-component", "estimate.csv"),
        ("weissman", "estimate.csv"),
        ("regional-tail", "regional_tail.csv"),
    ],
)
def test_single_site_skips_homogeneity(single_site_csv, tmp_path, capsys, command, out_file):
    out_dir = tmp_path / "out"
    code = main([command, "--data", str(single_site_csv), "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 0
    assert "not tested: single site" in err
    with open(out_dir / out_file, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(row["homogeneity_p"] == "" for row in rows)
