import csv
import glob
import hashlib
import json
import math
import os

import numpy as np
import pytest

from colombeau.catalog import catalog_net
from colombeau.config import EXPERIMENT_KINDS, ConfigError, load_config, load_config_file
from colombeau.expr.parser import MAX_NESTING
from colombeau.mollify import regular_bound_experiment
from colombeau.nets import CompactBox
from colombeau.runner import EXPERIMENTS, run_config, write_csv, write_json

from colombeau import cli


EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")
# oscillation hint 2, so no mollification order below 2 can resolve it
FAST_OSC = {
    "expression": "cutoff(x1)*sin(x1/eps^2)",
    "oscillation_hint": 2,
    "support_box": [[[-2.0, 2.0]]],
}


# a boolean where an integer is wanted, a non-number or non-finite interval
# bound, a net text field that is not a string, and an experiment that would
# run zero checks
MALFORMED = [
    {"dimension": True},
    {"k_max": True},
    {"net": {"catalog": "multiscale", "parameter": True}},
    {"compacts": [[[["0", True]]]]},
    {"compacts": [[[[0.0, [1]]]]]},
    {"compacts": [[[[0.0, math.inf]]]]},
    {"compacts": [[[[math.nan, 1.0]]]]},
    {"net": {"expression": "x1", "support_box": [[[-1.0, True]]]}},
    {"net": {"expression": "x1", "support_box": [[["-1", 1.0]]]}},
    {"net": {"banded": [{"interval": [0.0, True], "expression": "x1"}]}},
    {"net": {"banded": [{"interval": [0.0, [1]], "expression": "x1"}]}},
    {"net": {"catalog": 5}},
    {"net": {"expression": 5}},
    {"net": {"banded": [{"interval": [0.0, 1.0], "expression": 7}]}},
    {"net": {"catalog": "compact_osc"}, "eps_grid": {"count": 4},
     "experiments": [{"kind": "regular-bound"}]},
    {"k_max": 1, "experiments": [{"kind": "landau"}]},
]


def base_config(**overrides):
    doc = {
        "dimension": 1,
        "net": {"catalog": "one"},
        "compacts": [[[[0.0, 1.0]]]],
        "eps_grid": {"eps0": 0.5, "ratio": 0.5, "count": 10},
        "k_max": 2,
        "experiments": [{"kind": "valuation", "k": 0}],
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_minimal_config_defaults():
    cfg = load_config(
        {
            "dimension": 1,
            "net": {"expression": "x1"},
            "compacts": [[[[0.0, 1.0]]]],
            "experiments": [{"kind": "landau"}],
        }
    )
    assert cfg.grid.count == 20 and cfg.k_max == 6
    assert cfg.output_prefix == "colombeau-run"
    assert cfg.sampling.base_points == 33


def test_config_accepts_json_string():
    cfg = load_config(json.dumps(base_config()))
    assert cfg.net.describe()["expression"] == "1"
    with pytest.raises(ConfigError):
        load_config("{not json")


@pytest.mark.parametrize(
    "mutate",
    [
        {"typo_key": 1},
        {"dimension": 4},
        {"net": {"catalog": "one", "shape": 2}},
        {"net": {}},
        {"net": {"catalog": "one", "expression": "x1"}},
        {"net": {"catalog": "one", "support_box": [[[0.0, 1.0]]]}},
        {"net": {"catalog": "multiscale", "parameter": "8"}},
        {"net": {"expression": "x2"}},
        {"net": {"expression": "sin(x1", "oscillation_hint": 1}},
        {"compacts": []},
        {"compacts": [[[[1.0, 0.0]]]]},
        {"eps_grid": {"eps0": 0.5, "step": 2}},
        {"eps_grid": {"eps0": 2.0}},
        {"k_max": 9},
        {"k_max": "6"},
        {"sampling": {"base_points": 1}},
        {"experiments": []},
        {"experiments": [{"kind": "bogus"}]},
        {"experiments": [{"kind": "valuation", "n_list": [1]}]},
        {"experiments": [{"kind": "class-a"}]},
        {"output_prefix": ""},
        # experiment parameter values are checked before anything runs
        {"experiments": [{"kind": "valuation", "k": "1"}]},
        {"experiments": [{"kind": "valuation", "k": True}]},
        {"experiments": [{"kind": "valuation", "k": 9}]},
        {"experiments": [{"kind": "seminorms", "k_list": []}]},
        {"experiments": [{"kind": "seminorms", "k_list": [0, -1]}]},
        {"experiments": [{"kind": "mollify-converge", "k": 8}]},
        {"experiments": [{"kind": "mollify-converge", "n_list": []}]},
        {"experiments": [{"kind": "mollify-converge", "n_list": [2, 1]}]},
        {"experiments": [{"kind": "mollify-converge", "n_list": [0, 1]}]},
        {"experiments": [{"kind": "mollify-converge", "r": -0.5}]},
        {"experiments": [{"kind": "mollify-converge", "quadrature_order": 8}]},
        {"experiments": [{"kind": "sublinear-density", "n_list": [1.5]}]},
        {"experiments": [{"kind": "sublinear-density", "quadrature_order": 0}]},
        {"experiments": [{"kind": "class-a", "N": 0}]},
        {"experiments": [{"kind": "class-a", "N": 1.0}]},
        {"experiments": [{"kind": "classify", "a_values": [0.5, 0]}]},
        {"experiments": [{"kind": "classify", "bases": [0.5]}]},
        {"experiments": [{"kind": "classify", "tol": -0.1}]},
        {"experiments": [{"kind": "classify", "tol": "0.1"}]},
        {"k_max": 3, "experiments": [{"kind": "classify"}]},
        {"k_max": 3, "experiments": [{"kind": "sublinear-density"}]},
        {"net": {"catalog": "compact_osc"}, "experiments": [{"kind": "regular-bound", "k_list": []}]},
        {"net": {"catalog": "compact_osc"}, "experiments": [{"kind": "regular-bound", "k_list": [9]}]},
        {"net": {"catalog": "compact_osc"}, "experiments": [{"kind": "regular-bound", "n_list": [2, 2]}]},
        {"net": {"catalog": "compact_osc"}, "experiments": [{"kind": "regular-bound", "j0": 4}]},
        # regular-bound needs a declared support_box
        {"experiments": [{"kind": "regular-bound"}]},
        # every mollification order must reach the oscillation hint
        {"net": FAST_OSC, "experiments": [
            {"kind": "seminorms"}, {"kind": "mollify-converge", "n_list": [1, 2]}]},
        {"net": FAST_OSC, "experiments": [{"kind": "mollify-converge"}]},
        {"net": FAST_OSC, "experiments": [{"kind": "regular-bound", "n_list": [1, 2]}]},
        {"net": FAST_OSC, "k_max": 4, "experiments": [{"kind": "sublinear-density"}]},
        # a negative oscillation hint, which would pass the check above
        {"net": {"banded": [{"interval": [0.0, 1.0], "expression": "sin(x1/eps^3)"}],
                 "oscillation_hint": "-1"}},
        # eps_grid and sampling values are checked, not converted
        {"eps_grid": {"count": 12.7}},
        {"eps_grid": {"count": True}},
        {"eps_grid": {"eps0": "0.25"}},
        {"eps_grid": {"ratio": False}},
        {"sampling": {"base_points": 40.9}},
        {"sampling": {"cap_points": "20001"}},
        {"sampling": {"base_points": True}},
        *MALFORMED,
    ],
)
def test_config_rejections(mutate):
    with pytest.raises(ConfigError):
        load_config(base_config(**mutate))


@pytest.mark.parametrize("param, value", [
    ("a_values", [0.5, math.inf]), ("bases", [math.inf]), ("tol", math.inf)])
def test_classify_thresholds_must_be_finite(param, value):
    # json.loads reads Infinity, and an infinite tol passes every check
    text = json.dumps(base_config(k_max=4, experiments=[{"kind": "classify", param: value}]))
    assert "Infinity" in text
    with pytest.raises(ConfigError, match=f"{param} must be .*finite"):
        load_config(text)


def test_cli_run_reports_malformed_documents(tmp_path, capsys):
    # a malformed document is one `error:` line and exit 1: no traceback,
    # no converted value and no file written
    path = tmp_path / "bad.json"
    for mutate in MALFORMED:
        path.write_text(json.dumps(base_config(output_prefix=str(tmp_path / "r"), **mutate)))
        assert cli.main(["run", str(path)]) == 1, mutate
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, (mutate, err)
    assert not list(tmp_path.glob("r-*"))


@pytest.mark.parametrize("key, setting", [
    ("eps_grid.count", {"eps_grid": {"count": 12.7}}),
    ("eps_grid.eps0", {"eps_grid": {"eps0": "0.25"}}),
    ("sampling.base_points", {"sampling": {"base_points": 40.9}}),
])
def test_setting_errors_name_their_key(key, setting):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        load_config(base_config(**setting))


def test_integer_settings_load_as_given():
    cfg = load_config(base_config(eps_grid={"eps0": 0.25, "ratio": 0.5, "count": 12},
                                  sampling={"base_points": 40, "cap_points": 401}))
    assert (cfg.grid.eps0, cfg.grid.count) == (0.25, 12)
    assert (cfg.sampling.base_points, cfg.sampling.cap_points) == (40, 401)


def test_every_experiment_kind_has_one_runner_function():
    assert tuple(EXPERIMENTS) == EXPERIMENT_KINDS
    assert "regular-bound" in EXPERIMENT_KINDS


def test_mollifying_kinds_accept_orders_from_the_oscillation_hint():
    for kind in ("mollify-converge", "regular-bound", "sublinear-density"):
        doc = base_config(net=FAST_OSC, k_max=4, experiments=[{"kind": kind, "n_list": [2, 3]}])
        cfg = load_config(doc)
        assert cfg.experiments[0].params["n_list"] == [2, 3]


def test_rejected_config_writes_no_file(tmp_path, capsys):
    # the mollify-converge order 1 is below the hint; the run must not start
    # with the seminorms experiment and stop at the second one
    doc = base_config(
        net=FAST_OSC,
        experiments=[{"kind": "seminorms"}, {"kind": "mollify-converge", "n_list": [1, 2]}],
        output_prefix=str(tmp_path / "out" / "r"),
    )
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path)]) == 1
    assert "oscillation hint" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _rows_that_fail_midway():
    yield (1, 0.5)
    raise RuntimeError("row source failed")


@pytest.mark.parametrize("write, bad, raised", [
    (write_json, lambda: {"a": np.int64(1)}, TypeError),
    (lambda p, rows: write_csv(p, ["k", "v"], rows), _rows_that_fail_midway, RuntimeError),
], ids=["json_unserialisable", "csv_rows_fail_midway"])
def test_failed_write_leaves_no_temp_file_and_keeps_the_target(tmp_path, write, bad, raised):
    path = str(tmp_path / "doc")
    with open(path, "w") as fh:
        fh.write("kept\n")
    with pytest.raises(raised):
        write(path, bad())
    assert os.listdir(tmp_path) == ["doc"]
    with open(path) as fh:
        assert fh.read() == "kept\n"
    with pytest.raises(raised):  # no target before the failed write: none after it
        write(str(tmp_path / "new"), bad())
    assert os.listdir(tmp_path) == ["doc"]


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(EXAMPLES, "*.json"))))
def test_example_configs_load(path):
    cfg = load_config_file(path)
    assert cfg.experiments


def test_the_3d_example_fits_v_of_minus_k(tmp_path):
    # sin(x1/eps)*cos(x2)*exp(x3) on the unit cube: v(p_k) = -k, within
    # criterion 3's 0.1; at eps = 2^-8 each grid holds 1025^3 points
    from colombeau.regularity import psequence

    with open(os.path.join(EXAMPLES, "sin_cos_exp_3d.json"), encoding="utf-8") as fh:
        document = json.load(fh)
    document["output_prefix"] = str(tmp_path / "out")
    cfg = load_config(document)
    res = run_config(cfg)
    assert res.exit_code == 0
    valuation = res.summary["experiments"][1]
    assert valuation["k"] == 1
    assert abs(valuation["results"][0]["v_hat"] + 1) <= 0.1
    seq = psequence(cfg.net, cfg.compacts[0], cfg.grid, cfg.sampling, cfg.k_max)
    assert [abs(-seq.ln(k) + k) <= 0.1 for k in range(cfg.k_max + 1)] == [True] * 3


def test_banded_net_config():
    cfg = load_config(
        base_config(
            net={
                "banded": [
                    {"interval": [0.0, 0.1], "expression": "eps^(-1)*x1"},
                    {"interval": [0.1, 1.0], "expression": "x1"},
                ]
            }
        )
    )
    assert cfg.net.describe()["variant"] == "banded"


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(base_config()))
    cfg = load_config_file(str(path))
    assert cfg.grid.count == 10


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def test_run_valuation_writes_csv_and_summary(tmp_path):
    cfg = load_config(base_config(output_prefix=str(tmp_path / "out")))
    result = run_config(cfg)
    assert result.exit_code == 0
    csv_path = tmp_path / "out-00-valuation.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "compact,eps,ln_p,undersampled,nonfinite"
    assert len(lines) == 11  # header + one row per grid point
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.5
    assert first[3] == "false"
    summary = json.loads((tmp_path / "out-summary.json").read_text())
    assert summary["experiments"][0]["results"][0]["v_hat"] == pytest.approx(0.0)
    assert str(tmp_path / "out-summary.json") in result.files


def test_run_unstable_estimate_exits_2(tmp_path):
    cfg = load_config(
        base_config(
            net={"expression": "sin(eps^(-1))*sin(x1)"},
            output_prefix=str(tmp_path / "wobble"),
        )
    )
    result = run_config(cfg)
    assert result.exit_code == 2


def test_run_convergence_violation_exits_3(tmp_path):
    # the steep default grid drives the difference net into float cancellation
    # noise at n=3, so the fitted rate collapses below the required bound;
    # this is the failure mode the mollify CLI's gentler grid default avoids
    cfg = load_config(
        base_config(
            net={"catalog": "osc"},
            experiments=[{"kind": "mollify-converge", "k": 0, "n_list": [3]}],
            eps_grid={"eps0": 0.5, "ratio": 0.5, "count": 20},
            output_prefix=str(tmp_path / "deep"),
        )
    )
    result = run_config(cfg)
    assert result.exit_code == 3
    lines = (tmp_path / "deep-00-mollify-converge.csv").read_text().splitlines()
    assert lines[0] == "n,v_hat,reference,margin"
    assert len(lines) == 2


def test_run_convergence_without_eps_grid_uses_convergence_grid(tmp_path):
    # without an eps_grid the config's grid is the steep general default, on
    # which the n = 3 difference falls into cancellation noise (v_hat -0.37
    # against a required 0.8); mollify-converge falls back to CONVERGENCE_GRID
    # as the CLI and convergence_experiment do
    doc = base_config(
        net={"catalog": "compact_osc"},
        experiments=[{"kind": "mollify-converge", "k": 1, "n_list": [1, 2, 3]}],
        output_prefix=str(tmp_path / "conv"),
    )
    del doc["eps_grid"]
    result = run_config(load_config(doc))
    assert result.exit_code == 0
    assert result.summary["experiments"][0]["record"]["all_ok"] is True
    # the entry names the grid it ran on, which is not the summary's eps_grid
    grid = {"eps0": 0.5, "ratio": 0.8, "count": 20}
    assert result.summary["experiments"][0]["eps_grid"] == grid


def test_regular_bound_matches_direct_calls(tmp_path):
    cfg = load_config(
        base_config(
            net={"catalog": "compact_osc"},
            experiments=[{"kind": "regular-bound", "k_list": [0, 1], "n_list": [1, 2]}],
            output_prefix=str(tmp_path / "rb"),
        )
    )
    result = run_config(cfg)
    assert result.exit_code == 0
    with open(tmp_path / "rb-00-regular-bound.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["n", "k", "compact", "j", "eps", "ln_lhs", "ln_rhs", "ok"]
    net, K = catalog_net("compact_osc"), CompactBox.interval(0.0, 1.0)
    want_rows, want_results = [], []
    for n in (1, 2):
        for k in (0, 1):
            rep = regular_bound_experiment(net, K, k, n, cfg.grid, cfg.sampling)
            want_rows += [
                [str(n), str(k), "0", str(r.j), repr(r.eps), repr(r.ln_lhs), repr(r.ln_rhs),
                 str(r.ok).lower()]
                for r in rep.rows
            ]
            want_results.append({"n": n, "k": k, "compact": K.describe(), "verdict": rep.verdict})
    # the CSV prints 17 significant digits, which round-trip to the same float
    assert [r[:4] + [repr(float(x)) for x in r[4:7]] + r[7:] for r in rows] == want_rows
    assert result.summary["experiments"][0] == {"kind": "regular-bound", "results": want_results}
    assert {r["verdict"] for r in want_results} == {"yes"}


def test_regular_bound_violation_exits_3(tmp_path, monkeypatch):
    import colombeau.runner as runner
    from colombeau.mollify import RegularBoundReport

    monkeypatch.setattr(
        runner, "regular_bound_experiment", lambda u, K, k, n, *a: RegularBoundReport(k, n, (), "no")
    )
    cfg = load_config(
        base_config(
            net={"catalog": "compact_osc"},
            experiments=[{"kind": "regular-bound", "k_list": [0], "n_list": [1]}],
            output_prefix=str(tmp_path / "rb"),
        )
    )
    assert run_config(cfg).exit_code == 3


def test_run_time_failure_is_an_outcome(tmp_path):
    # every value of 1/(eps-eps) is inf, so the seminorms are flagged and
    # the valuation has no usable sample; the run goes on and ends in a summary
    cfg = load_config(
        base_config(
            net={"expression": "1/(eps-eps)"},
            experiments=[
                {"kind": "seminorms", "k_list": [0]},
                {"kind": "valuation"},
                {"kind": "seminorms", "k_list": [1]},
            ],
            output_prefix=str(tmp_path / "bad"),
        )
    )
    result = run_config(cfg)
    assert result.exit_code == 2
    summary = json.loads((tmp_path / "bad-summary.json").read_text())
    assert [e["kind"] for e in summary["experiments"]] == ["seminorms", "valuation", "seminorms"]
    assert summary["experiments"][1]["error"].startswith("ScaleError: ")
    error_doc = json.loads((tmp_path / "bad-01-valuation.json").read_text())
    assert error_doc == {"error": summary["experiments"][1]["error"]}
    assert (tmp_path / "bad-02-seminorms.csv").exists()


def test_cli_run_time_failure_exits_2(capsys):
    # the analysis subcommands share run_config's handling of run-time failures
    argv = ["classify", "--net", "1/(eps-eps)", "--compacts", "0,1", "--count", "10", "--kmax", "4"]
    assert cli.main(argv) == 2
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"error"}


def test_run_class_a_negative_is_exit_0(tmp_path):
    # 'no' is a legitimate measured answer, not a pipeline failure
    cfg = load_config(
        base_config(
            net={"catalog": "const_ginfty", "parameter": 4},
            compacts=[[[[0.0, 1.0]]], [[[-1.0, 0.0]], [[1.0, 2.0]]]],
            k_max=1,
            experiments=[{"kind": "class-a", "N": 1}],
            output_prefix=str(tmp_path / "ca"),
        )
    )
    result = run_config(cfg)
    assert result.exit_code == 0
    assert result.summary["experiments"][0]["verdict"] == "no"
    # the compact column holds the compact's index, one field like the others
    with open(tmp_path / "ca-00-class-a.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["compact", "k", "v_hat", "bound", "ok", "stable"]
    assert [len(r) for r in rows] == [len(header)] * 4
    assert [(r[0], r[1]) for r in rows] == [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]


def test_run_landau_and_seminorms(tmp_path):
    cfg = load_config(
        base_config(
            net={"catalog": "osc"},
            k_max=3,
            experiments=[
                {"kind": "landau"},
                {"kind": "seminorms", "k_list": [0, 1]},
            ],
            output_prefix=str(tmp_path / "two"),
        )
    )
    result = run_config(cfg)
    assert result.exit_code == 0
    assert (tmp_path / "two-00-landau.csv").exists()
    sem = (tmp_path / "two-01-seminorms.csv").read_text().splitlines()
    assert sem[0] == "k,compact,eps,ln_p,undersampled,nonfinite"
    assert len(sem) == 1 + 2 * 10


def test_run_outputs_deterministic_across_threads(tmp_path, monkeypatch):
    digests = []
    for threads, sub in (("1", "a"), ("8", "b")):
        monkeypatch.setenv("COLOMBEAU_THREADS", threads)
        cfg = load_config(
            base_config(
                net={"catalog": "osc"},
                k_max=2,
                experiments=[
                    {"kind": "valuation", "k": 1},
                    {"kind": "seminorms", "k_list": [0, 1]},
                ],
                output_prefix=str(tmp_path / sub / "run"),
            )
        )
        result = run_config(cfg)
        assert result.exit_code == 0
        # hash files by their relative name so the prefix difference is ignored
        acc = hashlib.sha256()
        for f in sorted(result.files):
            acc.update(os.path.basename(f).encode())
            acc.update(open(f, "rb").read())
        digests.append(acc.hexdigest())
    assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def test_cli_malformed_flag_is_a_config_error(capsys):
    # argparse would exit 2, the code of an unstable fit
    for argv in (["classify", "--net", "osc", "--kmax", "x"], ["classify", "--net", "osc", "--a", "x"],
                 ["classify", "--kmax", "4"], ["classify", "--net", "osc", "--bogus"]):
        assert cli.main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error:"), argv
    with pytest.raises(SystemExit) as stop:
        cli.main(["classify", "--help"])
    assert stop.value.code == 0


def test_cli_parse_check(capsys):
    assert cli.main(["parse-check", "sin(x1/eps)"]) == 0
    out = capsys.readouterr().out
    assert "sin(x1*eps^(-1))" in out
    assert "nodes:" in out


def test_cli_parse_check_error(capsys):
    assert cli.main(["parse-check", "sin(x1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_cli_refuses_nesting_past_the_parser_limit(tmp_path, capsys):
    at, past = ("sin(" * n + "x1" + ")" * n for n in (MAX_NESTING, MAX_NESTING + 1))
    assert cli.main(["parse-check", at]) == 0
    capsys.readouterr()
    assert cli.main(["parse-check", past]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nesting" in err and "Traceback" not in err
    path = tmp_path / "deep.json"
    for text, code in ((at, 0), (past, 1)):
        path.write_text(json.dumps(base_config(net={"expression": text},
                                               output_prefix=str(tmp_path / "r"))))
        assert cli.main(["run", str(path)]) == code, code
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith("error:") == (code == 1), err


def test_cli_run_valuation_with_nonfinite_samples_is_unstable(tmp_path, capsys):
    # x1 = 0 is a sample point of [-1, 1] at every eps
    path = tmp_path / "inv.json"
    path.write_text(json.dumps(base_config(net={"expression": "1/x1"}, compacts=[[[[-1.0, 1.0]]]],
                                           output_prefix=str(tmp_path / "r"))))
    assert cli.main(["run", str(path)]) == 2
    summary = json.loads((tmp_path / "r-summary.json").read_text())
    assert summary["experiments"][0]["results"][0]["stable"] is False


def test_cli_catalog(capsys):
    assert cli.main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "multiscale" in out and "compact_osc" in out


def test_cli_run(tmp_path, capsys):
    path = tmp_path / "exp.json"
    doc = base_config(output_prefix=str(tmp_path / "r"))
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert str(tmp_path / "r-summary.json") in out
    assert cli.main(["run", str(tmp_path / "missing.json")]) == 1


def test_cli_classify_oscillation(capsys):
    code = cli.main(
        ["classify", "--net", "osc", "--compacts", "0,1", "--count", "12"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ginfty"]["verdict"] == "no"
    by_a = {g["a"]: g["verdict"] for g in doc["gla"]}
    assert by_a[0.5] == "no"
    assert by_a[1.5] == "yes-evidence"
    assert by_a[2.0] == "yes-evidence"
    assert doc["sublinear"]["verdict"] == "sublinear-evidence"


def test_cli_classify_inline_expression(capsys):
    code = cli.main(
        [
            "classify",
            "--net",
            "eps^(-2)*sin(x1)",
            "--compacts",
            "0,1",
            "--kmax",
            "4",
            "--count",
            "10",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ginfty"]["verdict"] == "yes-evidence"
    assert doc["ln_p"][0] == pytest.approx(2.0, abs=1e-6)


def test_cli_landau(capsys):
    code = cli.main(
        ["landau", "--net", "delta", "--compacts", "0,1", "--kmax", "3", "--count", "12"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_ok"] is True
    # k_max 1 leaves no step to check
    assert cli.main(["landau", "--net", "osc", "--kmax", "1"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_mollify_constant(capsys):
    code = cli.main(["mollify", "--net", "one", "--n", "1,2", "--count", "10"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reference"] == "inf"
    assert all(e["ok"] for e in doc["entries"])


def test_cli_class_a(capsys):
    code = cli.main(["class-a", "--net", "one", "--N", "1", "--kmax", "2", "--count", "10"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "yes"
    assert len(doc["rows"]) == 6  # 2 default compacts x k = 0..2


def test_cli_leaves_out_the_flags_not_given():
    args = cli.build_parser().parse_args(["classify", "--net", "osc"])
    doc = cli._config_document(args)
    assert doc["net"] == {"catalog": "osc"}
    assert doc["experiments"] == [{"kind": "classify"}]
    assert "eps_grid" not in doc and "k_max" not in doc


@pytest.mark.parametrize("flag", [["--hint", "3"], ["--support=-2,2"]])
def test_cli_rejects_a_hint_or_support_on_a_catalog_net(capsys, flag):
    assert cli.main(["landau", "--net", "osc", *flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_cli_bad_net_spec(capsys):
    assert cli.main(["classify", "--net", "nope(", "--count", "10"]) == 1
    assert capsys.readouterr().err.startswith("error:")
