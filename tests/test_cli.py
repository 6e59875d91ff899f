import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from fuknagaev import cli
from fuknagaev.cli import run


def _schema():
    with resources.files("fuknagaev").joinpath("report_schema.json").open() as fh:
        return json.load(fh)


def test_bound_subcommand(capsys):
    code = run(["bound", "--q", "4", "--D", "1", "--sigma", "1", "--cq", "1",
                "--u", "0.1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "8.06944" in out


def test_bound_tail_mode(capsys):
    code = run(["bound", "--q", "4", "--D", "1", "--sigma", "1", "--cq", "1",
                "--t", "10"])
    assert code == 0
    assert "0.159811" in capsys.readouterr().out


def test_bound_rejects_small_q(capsys):
    code = run(["bound", "--q", "1.5", "--D", "1", "--sigma", "1", "--cq", "1",
                "--u", "0.1"])
    assert code == 2
    assert "q must exceed 2" in capsys.readouterr().err


def test_bound_requires_a_level(capsys):
    assert run(["bound", "--q", "4", "--D", "1", "--sigma", "1", "--cq", "1"]) == 2


def test_unknown_subcommand_exits_2():
    assert run(["frobnicate"]) == 2


def test_help_lists_flags(capsys):
    assert run(["verify", "--help"]) == 0
    out = capsys.readouterr().out
    for flag in ("--q", "--D", "--n", "--trials", "--seed", "--dist", "--alpha",
                 "--dim", "--p", "--u", "--out", "--format", "--config"):
        assert flag in out


_KIND_OF = {"rademacher": "rademacher_scale", "pareto": "symmetric_pareto",
            "student_t": "student_t", "uniform_cube": "uniform_cube", "gaussian": "gaussian"}


def test_help_lists_every_law_and_its_parameter(capsys):
    assert run(["verify", "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "--dist {rademacher,pareto,student_t,uniform_cube,gaussian}" in out
    assert ("law parameter: scale (rademacher), tail index (pareto), degrees of freedom "
            "(student_t), half width (uniform_cube), scale (gaussian)") in out


@pytest.mark.parametrize("name, alpha", [("rademacher", "1"), ("pareto", "4.5"),
                                         ("student_t", "5"), ("uniform_cube", "1"),
                                         ("gaussian", "1")])
def test_each_dist_choice_builds_its_kind(tmp_path, name, alpha):
    out = tmp_path / "r.json"
    assert run(["verify", "--dist", name, "--alpha", alpha, "--dim", "2", "--n", "5",
                "--trials", "100", "--q", "4", "--u", "0.5", "--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert (config["dist"], config["param"]) == (_KIND_OF[name], float(alpha))


def test_module_entry_point_runs_a_subcommand():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "fuknagaev.cli", "bound", "--q", "4", "--D", "1",
                           "--sigma", "1", "--cq", "1", "--u", "0.1"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "confidence threshold B(0.1) = 8.06944" in done.stdout


def _run_strict(*argv):
    """``python -W error::RuntimeWarning -m fuknagaev.cli argv``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "fuknagaev.cli",
                           *argv], env=env, capture_output=True, text=True, timeout=120)


def test_quantile_at_the_least_subnormal_level(tmp_path):
    # u = 5e-324 times the maximum 4.73 rounds to 5u: Q1 read 5.0 and failed
    # the CVaR cross-check. Where N u <= 1, Q1 is the maximum itself
    path, out = tmp_path / "s.txt", tmp_path / "q.json"
    path.write_text("0.5\n1.0\n4.73\n", encoding="utf-8")
    done = _run_strict("quantile", str(path), "--u", "5e-324,1e-320", "--out", str(out))
    assert done.returncode == 0, done.stderr
    rows = json.loads(out.read_text())["rows"]
    assert [(r["q"], r["q1"]) for r in rows] == [(4.73, 4.73)] * 2


def test_bound_at_the_least_subnormal_level():
    # 2 / u overflows there, B(u) = 2.12e81 does not
    for cmd in ("bound", "mcdiarmid"):
        done = _run_strict(cmd, "--q", "4", "--D", "1", "--sigma", "1", "--cq", "1",
                           "--u", "5e-324")
        assert done.returncode == 0, done.stderr
        assert "2.12041e+81" in done.stdout


def test_proofcheck_all_pass(capsys):
    code = run(["proofcheck", "--q", "4", "--D", "1", "--sigma", "0.5",
                "--u", "0.1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert "final coefficient" in out


def test_quantile_subcommand(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text("1\n2\n3\n4\n", encoding="utf-8")
    code = run(["quantile", str(path), "--u", "0.5,0.25"])
    out = capsys.readouterr().out
    assert code == 0
    assert "3.5" in out  # CVaR of the top half


def test_quantile_of_large_magnitude_data(tmp_path, capsys):
    # the CVaR cross-check tolerance follows the scale of the data
    values = np.random.default_rng(1).standard_normal(205) * 1e9
    path = tmp_path / "big.txt"
    path.write_text("".join(f"{v:.17g}\n" for v in values), encoding="utf-8")
    assert run(["quantile", str(path), "--u", "0.1"]) == 0
    assert "internal error" not in capsys.readouterr().err


def test_mcdiarmid_subcommand(capsys):
    code = run(["mcdiarmid", "--q", "4", "--D", "1", "--sigma", "1.2909944487358056",
                "--cq", "0.9036020036098449", "--u", "0.1"])
    assert code == 0
    assert "8.2398" in capsys.readouterr().out


def test_verify_small_campaign_and_reports(tmp_path, capsys):
    args = ["verify", "--dist", "rademacher", "--alpha", "1", "--dim", "1",
            "--n", "20", "--trials", "500", "--q", "4", "--D", "1",
            "--u", "0.5,0.1", "--seed", "3"]
    out_json = tmp_path / "r.json"
    out_csv = tmp_path / "r.csv"
    assert run(args + ["--out", str(out_json), "--format", "json"]) == 0
    assert run(args + ["--out", str(out_csv), "--format", "csv"]) == 0

    report = json.loads(out_json.read_text())
    jsonschema.validate(report, _schema())
    assert report["meta"]["seed"] == 3
    assert len(report["rows"]) == 2

    lines = out_csv.read_text().splitlines()
    assert lines[0] == "level,bound,exceed,trials,rate,cp_upper,verdict"
    assert len(lines) == 3


def test_verify_p_defaults_to_2_and_the_config_names_p(tmp_path):
    # a space is its dimension and p: l^2 is the euclidean space, and two
    # l^p reports with the same --D differ in "p"
    args = ["verify", "--dist", "pareto", "--alpha", "4.5", "--dim", "3", "--n", "10",
            "--trials", "200", "--q", "4", "--D", "2", "--u", "0.5", "--seed", "2"]
    reports = {}
    for p in (None, "2", "3", "4"):
        path = tmp_path / f"p{p}.json"
        assert run(args + ([] if p is None else ["--p", p]) + ["--out", str(path)]) == 0
        reports[p] = path.read_bytes()
    assert reports[None] == reports["2"]
    configs = {p: json.loads(text)["config"] for p, text in reports.items()}
    assert [configs[p]["p"] for p in ("2", "3", "4")] == [2, 3, 4]
    assert "norm" not in configs["2"]
    assert {c["confidence"] for c in configs.values()} == {0.99}  # verify.CONFIDENCE


def test_emitted_reports_are_byte_stable(tmp_path):
    args = ["verify", "--dist", "pareto", "--alpha", "4.5", "--dim", "2",
            "--n", "10", "--trials", "300", "--q", "4", "--D", "1",
            "--u", "0.5", "--seed", "9", "--format", "json"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[bound]\nq = 4\nD = 1\nsigma = 1\ncq = 1\nu = 0.1\n",
                   encoding="utf-8")
    assert run(["bound", "--config", str(cfg)]) == 0
    base = capsys.readouterr().out
    assert "8.06944" in base

    assert run(["bound", "--config", str(cfg), "--u", "0.2"]) == 0
    assert "8.06944" not in capsys.readouterr().out  # flag overrides the file


_REQUIRED = {
    "bound": dict(q="4", D="1", sigma="1", cq="1", u="0.1"),
    "verify": dict(n="10", trials="200", q="4", u="0.5"),
    "proofcheck": dict(q="4", D="1", sigma="1", u="0.1"),
    "mcdiarmid": dict(q="4", D="1", sigma="1", cq="1", u="0.1"),
}


# bound takes --u or --t, and names both where neither is given
@pytest.mark.parametrize("command, flag",
                         [(command, flag) for command, flags in _REQUIRED.items()
                          for flag in flags if (command, flag) != ("bound", "u")])
@pytest.mark.parametrize("from_config", [False, True])
def test_a_missing_required_flag_exits_2_and_names_it(command, flag, from_config, tmp_path,
                                                      capsys):
    given = {key: value for key, value in _REQUIRED[command].items() if key != flag}
    if from_config:
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[{command}]\n" + "".join(f"{k} = {v}\n" for k, v in given.items()),
                       encoding="utf-8")
        argv = [command, "--config", str(cfg)]
    else:
        argv = [command, *(token for k, v in given.items() for token in (f"--{k}", v))]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: missing required parameter --{flag}\n"
    assert captured.out == ""


def test_config_values_may_hold_a_percent_sign(tmp_path, monkeypatch):
    # configparser read "%" as the start of an interpolation: exit 2
    cfg = tmp_path / "run.ini"
    cfg.write_text(_BOUND_INI + "out = x%.json\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run(["bound", "--config", str(cfg)]) == 0
    assert json.loads((tmp_path / "x%.json").read_text())["rows"][0]["level"] == 0.1


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    args = ["verify", "--dist", "rademacher", "--alpha", "1", "--dim", "1",
            "--n", "10", "--trials", "200", "--q", "4", "--D", "1", "--u", "0.5"]
    monkeypatch.setenv("FUKNAGAEV_SEED", "123")
    env_out = tmp_path / "env.json"
    assert run(args + ["--out", str(env_out), "--format", "json"]) == 0
    monkeypatch.delenv("FUKNAGAEV_SEED")
    flag_out = tmp_path / "flag.json"
    assert run(args + ["--seed", "123", "--out", str(flag_out), "--format", "json"]) == 0
    assert env_out.read_bytes() == flag_out.read_bytes()


def test_unreadable_config_exits_2(capsys):
    assert run(["bound", "--config", "/nonexistent/nope.ini", "--q", "4",
                "--D", "1", "--sigma", "1", "--cq", "1", "--u", "0.1"]) == 2


def test_json_reports_quote_any_string(tmp_path):
    # a tab in the sample path, a non-ASCII letter kept as it is
    path = tmp_path / "a\tbé.txt"
    path.write_text("1\n2\n3\n", encoding="utf-8")
    out = tmp_path / "q.json"
    assert run(["quantile", str(path), "--u", "0.5", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert json.loads(text)["config"]["sample_file"] == str(path)
    assert "\\t" in text and "é" in text
    every = "".join(map(chr, range(32))) + '"\\ \x7f'
    assert json.loads(cli._json_dump({every: [every]})) == {every: [every]}


_BOUND_INI = "[bound]\nq = 4\nD = 1\nsigma = 1\ncq = 1\nu = 0.1\n"


@pytest.mark.parametrize("text, named", [
    ("q = 4\n", "no section headers"),
    (_BOUND_INI + "q = 5\n", "option 'q' in section 'bound' already exists"),
    (_BOUND_INI.replace("sigma = 1", "sigma = abc"), "argument --sigma: invalid float value: 'abc'"),
    (_BOUND_INI + "dimm = 5\n", "unrecognized arguments: --dimm=5"),
    (_BOUND_INI + "seed = 5\n", "unrecognized arguments: --seed=5"),  # a flag of verify only
    ("[verify]\ndist = paretto\nn = 5\ntrials = 100\nq = 4\nu = 0.5\n",
     "argument --dist: invalid choice: 'paretto'"),
    # a key that is a prefix of a flag is no flag: "se" would have set the seed
    ("[verify]\nn = 5\ntrials = 100\nq = 4\nu = 0.5\nse = 5\n", "unrecognized arguments: --se=5"),
])
def test_a_bad_config_file_exits_2_and_names_what_is_wrong(tmp_path, capsys, text, named):
    # config entries are parsed as the flags are: a malformed file, a bad value
    # or a key that is no flag of the subcommand is a usage error
    cfg = tmp_path / "run.ini"
    cfg.write_text(text, encoding="utf-8")
    assert run(["verify" if "[verify]" in text else "bound", "--config", str(cfg)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["verify", "--n", "5", "--tri", "100", "--q", "4", "--u", "0.5"], "--tri"),
    (["verify", "--n", "5", "--trials", "100", "--q", "4", "--u", "0.5", "--se", "3"], "--se"),
    (["bound", "--q", "4", "--D", "1", "--sig", "1", "--cq", "1", "--u", "0.1"], "--sig"),
    (["quantile", "sample.txt", "--u", "0.5", "--form", "csv"], "--form"),
])
def test_an_abbreviated_flag_exits_2_and_is_named(capsys, argv, named):
    # flags must be spelt out: argparse would take a unique prefix as the flag
    assert run(argv) == 2
    assert f"unrecognized arguments: {named}" in capsys.readouterr().err


def test_config_values_and_flags_give_the_same_report(tmp_path):
    flags = ["--dist", "pareto", "--alpha", "4.5", "--dim", "2", "--p", "3", "--n", "10",
             "--trials", "200", "--q", "4", "--u", "0.5,0.1", "--seed", "4"]
    cfg = tmp_path / "run.ini"
    cfg.write_text("[verify]\n" + "".join(f"{key[2:]} = {value}\n"
                                          for key, value in zip(flags[::2], flags[1::2])),
                   encoding="utf-8")
    from_flags, from_file = tmp_path / "flags.csv", tmp_path / "file.csv"
    assert run(["verify", *flags, "--out", str(from_flags), "--format", "csv"]) == 0
    assert run(["verify", "--config", str(cfg), "--out", str(from_file), "--format", "csv"]) == 0
    assert from_flags.read_bytes() == from_file.read_bytes()


def test_seed_env_that_is_no_integer_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("FUKNAGAEV_SEED", "abc")
    assert run(["verify", "--n", "5", "--trials", "100", "--q", "4", "--u", "0.5"]) == 2
    assert "$FUKNAGAEV_SEED must be an integer, got 'abc'" in capsys.readouterr().err
    # a --seed flag does not read it
    assert run(["verify", "--n", "5", "--trials", "100", "--q", "4", "--u", "0.5",
                "--seed", "1"]) == 0


@pytest.mark.parametrize("grid", ["", ",", "0.5,abc"])
def test_u_grid_that_is_no_list_of_numbers_exits_2(tmp_path, capsys, grid):
    path = tmp_path / "s.txt"
    path.write_text("1\n2\n3\n", encoding="utf-8")
    assert run(["quantile", str(path), "--u", grid]) == 2
    assert "argument --u: not a comma-separated list of numbers" in capsys.readouterr().err
