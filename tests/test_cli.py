"""End-to-end command line tests on synthetic monthly data."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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


def _curve(capsys, argv):
    assert main(argv) == 0
    return [line for line in capsys.readouterr().out.splitlines() if "T=" in line]


@pytest.mark.parametrize("method", ["L", "W", "sL"])
def test_return_levels_reads_method_from_config(monthly_csv, tmp_path, capsys, method):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"method": method}))
    argv = ["return-levels", "--data", str(monthly_csv), "--t-grid", "20,100,500"]
    from_config = _curve(capsys, argv + ["--config", str(config)])
    assert from_config == _curve(capsys, argv + ["--method", method])
    assert from_config != _curve(capsys, argv)  # the default TL curve
    assert _curve(capsys, argv + ["--config", str(config), "--method", "TL"]) == _curve(capsys, argv)


def test_return_levels_w_fits_with_config_tail_options(monthly_csv, tmp_path, monkeypatch, capsys):
    from regflood import simlab

    calls = []
    original = simlab.regional_tail_fit

    def recording(*args, **kwargs):
        calls.append(args[1:])
        return original(*args, **kwargs)

    monkeypatch.setattr(simlab, "regional_tail_fit", recording)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"method": "W", "k": 5, "dependence": "pickands_cfg"}))
    argv = ["return-levels", "--data", str(monthly_csv), "--t-grid", "20,100,500"]
    tuned = _curve(capsys, argv + ["--config", str(config)])
    assert calls == [(5, "pickands_cfg")]
    assert tuned != _curve(capsys, argv + ["--method", "W"])


def test_return_levels_unknown_method_is_an_input_error(monthly_csv, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"method": "X"}))
    code = main(["return-levels", "--data", str(monthly_csv), "--config", str(config)])
    assert code == EXIT_INPUT
    assert "unknown return-level method 'X'" in capsys.readouterr().err


def test_constant_site_is_an_input_error(monthly_csv, capsys):
    lines = monthly_csv.read_text().splitlines()
    monthly_csv.write_text("\n".join(
        line if not line.startswith("site2,") else line.rsplit(",", 1)[0] + ",5.0"
        for line in lines
    ) + "\n")
    assert main(["fit-gev", "--data", str(monthly_csv)]) == EXIT_INPUT
    assert "site 'site2'" in capsys.readouterr().err


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


SCENARIO = {
    "d": 2,
    "n": 30,
    "p": 0.99,
    "margins": {"type": "blockmax", "mu": 1.75, "sigma": 1, "xi": 0.3, "b": 12},
    "estimators": ["L"],
    "replications": 1,
}


@pytest.mark.parametrize(
    "text",
    [
        None,  # no file
        "{not json",
        json.dumps({**SCENARIO, "margins": {**SCENARIO["margins"], "mu": "x"}}),
        json.dumps([SCENARIO]),
        json.dumps({**SCENARIO, "margins": {**SCENARIO["margins"], "sigma": float("nan")}}),
        json.dumps({**SCENARIO, "copula": {"theta1": float("inf")}}),
        json.dumps({**SCENARIO, "method_options": {"pwm_estimator": "unbiasd"}}),
        json.dumps({**SCENARIO, "seed": -1}),
        json.dumps({**SCENARIO, "estimators": []}),
        json.dumps({**SCENARIO, "estimators": ["L", "L"]}),
        json.dumps({**SCENARIO, "estimators": "L"}),
        json.dumps({**SCENARIO, "n": 20.7}),
        json.dumps({**SCENARIO, "replications": 2.5}),
        json.dumps({**SCENARIO, "d": 2.5}),
        json.dumps({**SCENARIO, "seed": 1.5}),
        json.dumps({**SCENARIO, "margins": {**SCENARIO["margins"], "b": 12.5}}),
    ],
)
def test_bad_scenario_file_is_an_input_error(tmp_path, capsys, text):
    path = tmp_path / "scenario.json"
    if text is not None:
        path.write_text(text)
    assert main(["simulate", "--scenario", str(path)]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    code = main(["fit-gev", "--data", "/nonexistent/file.csv"])
    assert code == EXIT_INPUT or code == 3  # OSError surfaces as input problem


def test_non_utf8_file_is_an_input_error(monthly_csv, capsys):
    monthly_csv.write_bytes(monthly_csv.read_bytes() + b"site1,2010,5,\xff\n")
    code = main(["fit-gev", "--data", str(monthly_csv)])
    assert code == EXIT_INPUT
    assert "cannot read" in capsys.readouterr().err


def test_sites_option_selects_a_subset(monthly_csv, capsys):
    code = main(["regional-tail", "--data", str(monthly_csv), "--sites", "site3, site1"])
    out = capsys.readouterr().out
    assert code == 0
    listed = [line.split(":")[0].strip() for line in out.splitlines() if "gamma=" in line]
    assert listed == ["site3", "site1"]


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


@pytest.mark.parametrize("alpha", ["0", "-1", "1"])
def test_homogeneity_alpha_out_of_range(monthly_csv, capsys, alpha):
    code = main(
        ["fit-gev", "--data", str(monthly_csv), "--enforce-homogeneity",
         f"--homogeneity-alpha={alpha}"]
    )
    assert code == EXIT_INPUT
    assert "--homogeneity-alpha" in capsys.readouterr().err


def test_config_file_supplies_defaults(monthly_csv, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"method": "L"}))
    code = main(
        ["fit-gev", "--data", str(monthly_csv), "--config", str(config)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "L quantile estimate" in out


@pytest.mark.parametrize("k", [10.5, "ten"])
def test_config_tail_length_must_be_an_integer(monthly_csv, tmp_path, capsys, k):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": k}))
    code = main(["weissman", "--data", str(monthly_csv), "--config", str(config)])
    assert code == EXIT_INPUT
    assert "must be integers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config",
    [
        {"p": "abc"},
        {"alpha": None},
        {"sites": 5},
        {"season-def": 11},
        {"method": ["L"]},
        {"dependence": None},
        {"end-policy": 1},
    ],
)
def test_config_value_of_unusable_type_is_an_input_error(monthly_csv, tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main(["fit-gev", "--data", str(monthly_csv), "--config", str(path)])
    assert code == EXIT_INPUT
    assert f"unusable value {next(iter(config.values()))!r}" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[]", '["p", 0.9]', "0.99", "null", '"p"'])
def test_config_must_hold_an_object(monthly_csv, tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["weissman", "--data", str(monthly_csv), "--config", str(path)]) == EXIT_INPUT
    assert "must hold a JSON object" in capsys.readouterr().err


def test_config_unknown_key_is_an_input_error(monthly_csv, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"method": "L", "pp": 0.9}))
    assert main(["fit-gev", "--data", str(monthly_csv), "--config", str(path)]) == EXIT_INPUT
    assert "unknown key 'pp'" in capsys.readouterr().err


def test_flag_overrides_config(monthly_csv, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"method": "L", "p": "0.9", "sites": ["site2", "site3"]}))
    argv = ["fit-gev", "--data", str(monthly_csv), "--config", str(path)]
    assert main(argv + ["--method", "TL", "--sites", "site1,site4"]) == 0
    out = capsys.readouterr().out
    assert "TL quantile estimate at site site1, p=0.9:" in out
    assert "weights:" in out and len(out.split("weights:")[1].split()) == 2


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    """Three sites of 25 hydrological years of monthly maxima."""
    rng = np.random.default_rng(31)
    lines = ["site_id,year,month,flow"]
    for j in range(3):
        for hydro_year in range(1980, 2005):
            for cal_year, month in [(hydro_year - 1, 11), (hydro_year - 1, 12)] + [
                (hydro_year, m) for m in range(1, 11)
            ]:
                lines.append(f"s{j + 1},{cal_year},{month},{rng.gamma(2.0, 5.0) + 1 + j:.4f}")
    path = tmp_path_factory.mktemp("small") / "monthly.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


CONFIG_KEYS = ["season-def", "end-policy", "sites", "method", "p", "alpha", "k", "dependence"]
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats() | st.text(max_size=8)
)
JSON_VALUES = (
    JSON_SCALARS
    | st.lists(JSON_SCALARS, max_size=3)
    | st.dictionaries(st.text(max_size=4), JSON_SCALARS, max_size=2)
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(["fit-gev", "fit-two-component", "regional-tail", "weissman",
                             "return-levels"]),
    key=st.sampled_from(CONFIG_KEYS),
    value=JSON_VALUES,
)
def test_any_config_value_exits_cleanly(small_csv, tmp_path_factory, capsys, command, key, value):
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps({key: value}))
    code = main([command, "--data", str(small_csv), "--config", str(path)])
    capsys.readouterr()
    assert code in (0, 2, 3)


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


def test_bad_t_grid_is_an_input_error(monthly_csv, capsys):
    code = main(["return-levels", "--data", str(monthly_csv), "--t-grid", "2,ten"])
    assert code == EXIT_INPUT
    assert "--t-grid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, schemes", [("fit-gev", 1), ("fit-two-component", 2)]
)
def test_one_shape_system_per_scheme(monthly_csv, monkeypatch, capsys, command, schemes):
    # the homogeneity test is read off the fit, not estimated again
    from regflood import regional

    calls = []
    original = regional.sigma_r_hat

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(regional, "sigma_r_hat", counting)
    assert main([command, "--data", str(monthly_csv)]) == 0
    assert "homogeneity" in capsys.readouterr().out
    assert len(calls) == schemes


def test_weissman_fits_the_tail_once(monthly_csv, monkeypatch, capsys):
    # the interval is read off the reported fit, not estimated again
    from regflood import cli, tail

    calls = []
    original = tail.regional_tail_fit

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # rebound in both namespaces, so a second fit inside the tail module counts too
    monkeypatch.setattr(cli, "regional_tail_fit", counting)
    monkeypatch.setattr(tail, "regional_tail_fit", counting)
    assert main(["weissman", "--data", str(monthly_csv), "--p", "0.995"]) == 0
    assert "W quantile estimate" in capsys.readouterr().out
    assert len(calls) == 1


def test_import_leaves_out_scipy_stats_and_integrate():
    code = (
        "import sys, regflood.cli; "
        "print(sorted({'scipy.stats', 'scipy.integrate', 'scipy.optimize'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("below", ["", "results"], ids=["a-file", "below-a-file"])
def test_unusable_out_directory_is_an_input_error(monthly_csv, tmp_path, capsys, below):
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main(["fit-gev", "--data", str(monthly_csv), "--out", str(taken / below)])
    assert code == EXIT_INPUT
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_invalid_rows_from_a_pipe_are_reported_by_line():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run(
        [sys.executable, "-m", "regflood.cli", "fit-gev", "--data", "/dev/stdin"],
        input="site_id,year,month,flow\nA,2000,13,1.0\n", capture_output=True, text=True,
        env=env,
    )
    assert result.returncode == EXIT_INPUT
    assert "line 2: month 13 outside 1..12" in result.stderr
