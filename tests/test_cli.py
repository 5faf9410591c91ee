import dataclasses
import json

import numpy as np
import pytest

from l1lab import (
    SolverConfig,
    check_isotonicity_quadratic,
    find_supersolution,
    gen_zmatrix_quadratic,
    load_problem,
    quadratic_problem,
    run,
    run_comparison,
    save_problem,
)
from l1lab.cli import main


def write_scalar_problem(path, a=1.0, b=0.0, lam=0.0, L=1.0):
    save_problem(quadratic_problem([[a]], [b], lam=lam, lipschitz=L), path)


def read_csv_column(path, name):
    lines = path.read_text().strip().splitlines()
    idx = lines[0].split(",").index(name)
    return [float(row.split(",")[idx]) for row in lines[1:]]


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_zmatrix_writes_valid_problem(tmp_path, capsys):
    out = tmp_path / "prob.json"
    assert main(["gen", "--kind", "zmatrix", "--dim", "5", "--seed", "7", "--out", str(out)]) == 0
    p = load_problem(out)
    ok, _ = check_isotonicity_quadratic(p.smooth.A)
    assert ok and p.dim == 5
    assert "isotonicity check: PASS" in capsys.readouterr().out


def test_gen_lasso_from_csv(tmp_path):
    csv = tmp_path / "data.csv"
    csv.write_text("x_1,x_2,y\n1.0,0.0,2.0\n0.0,1.0,2.0\n")
    out = tmp_path / "prob.json"
    code = main(
        ["gen", "--kind", "lasso", "--csv", str(csv), "--lambda", "0.5", "--out", str(out)]
    )
    assert code == 0
    p = load_problem(out)
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    Y = np.array([2.0, 2.0])
    np.testing.assert_allclose(p.smooth.A, X.T @ X / 2.0)
    np.testing.assert_allclose(p.smooth.b, -(X.T @ Y) / 2.0)
    assert p.lam == 0.5


def test_gen_scalar_instance(tmp_path):
    out = tmp_path / "prob.json"
    assert main(["gen", "--dim", "1", "--seed", "0", "--out", str(out)]) == 0
    assert load_problem(out).dim == 1


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_gd_trace_values(tmp_path):
    prob = tmp_path / "prob.json"
    write_scalar_problem(prob)
    code = main(
        [
            "run", "--problem", str(prob), "--alg", "gd", "--iters", "5",
            "--x0", "1.0", "--out-dir", str(tmp_path), "--prefix", "t_",
        ]
    )
    assert code == 0
    assert read_csv_column(tmp_path / "t_gd.csv", "F") == [0.5, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_run_ccm_reaches_minimum_after_first_sweep(tmp_path):
    prob = tmp_path / "prob.json"
    write_scalar_problem(prob, a=1.0, b=-4.0, lam=1.0, L=1.0)
    code = main(
        [
            "run", "--problem", str(prob), "--alg", "ccm", "--iters", "3",
            "--x0", "0.0", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    F = read_csv_column(tmp_path / "trace_ccm.csv", "F")
    assert F[1] == min(F)
    # x^2/2 - 4x + |x| at the minimizer 3 (the constant of (x-4)^2/2 is dropped)
    assert F[1] == pytest.approx(-4.5)


def test_run_all_writes_three_descending_traces(tmp_path):
    prob = tmp_path / "prob.json"
    assert main(["gen", "--dim", "10", "--seed", "4", "--out", str(prob)]) == 0
    code = main(
        [
            "run", "--problem", str(prob), "--alg", "all", "--iters", "30",
            "--start", "super", "--seed", "4", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    for alg in ("gd", "ccd", "ccm"):
        F = read_csv_column(tmp_path / f"trace_{alg}.csv", "F")
        assert all(b <= a + 1e-12 for a, b in zip(F, F[1:]))


def test_tau_log_is_recorded_only_when_asked_for(tmp_path):
    # run() and run_comparison keep no TauRecords by default; `l1lab run`
    # asks for them, so its ccm trace file still holds the log.
    prob = tmp_path / "prob.json"
    assert main(["gen", "--dim", "6", "--seed", "2", "--out", str(prob)]) == 0
    p = load_problem(prob)
    x0 = find_supersolution(p, seed=2)
    assert run("ccm", p, x0, SolverConfig(max_outer_iters=10)).tau_log is None
    report = run_comparison(p, x0, K=10)
    assert all(t.tau_log is None for t in report.traces.values())
    code = main(["run", "--problem", str(prob), "--alg", "ccm", "--iters", "10",
                 "--start", "super", "--seed", "2", "--out-dir", str(tmp_path)])
    assert code == 0
    logged = json.loads((tmp_path / "trace_ccm.json").read_text())["tau_log"]
    want = run("ccm", p, x0, SolverConfig(max_outer_iters=10, record_tau=True)).tau_log
    assert want and logged == [dataclasses.asdict(t) for t in want]


def test_run_deterministic_outputs(tmp_path):
    prob = tmp_path / "prob.json"
    assert main(["gen", "--dim", "6", "--seed", "9", "--out", str(prob)]) == 0
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code = main(
            [
                "run", "--problem", str(prob), "--alg", "ccd", "--iters", "20",
                "--start", "super", "--seed", "2", "--out-dir", str(d),
            ]
        )
        assert code == 0
    assert (dirs[0] / "trace_ccd.csv").read_bytes() == (dirs[1] / "trace_ccd.csv").read_bytes()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_scalar_instance(tmp_path, capsys):
    assert main(["verify", "--dim", "1", "--seed", "0", "--iters", "10"]) == 0
    assert "verdict: PASS" in capsys.readouterr().out


def test_verify_generated_instance_with_reports(tmp_path):
    report = tmp_path / "report.json"
    summary = tmp_path / "summary.csv"
    code = main(
        [
            "verify", "--dim", "10", "--iters", "100", "--seed", "3",
            "--report", str(report), "--summary", str(summary),
        ]
    )
    assert code == 0
    data = json.loads(report.read_text())
    assert data["verdict"] is True
    assert len(summary.read_text().strip().splitlines()) == 102


def test_verify_negative_control_exits_2(tmp_path, capsys):
    prob = tmp_path / "bad.json"
    save_problem(
        quadratic_problem([[2.0, 1.0], [1.0, 2.0]], [-1.0, -1.0], lam=0.1, lipschitz=3.0),
        prob,
    )
    assert main(["verify", "--problem", str(prob), "--iters", "10"]) == 2
    assert "isotonicity precondition failed" in capsys.readouterr().err


def test_verify_subsolution_start():
    assert main(["verify", "--dim", "4", "--seed", "6", "--iters", "40", "--start", "sub"]) == 0


@pytest.mark.parametrize("form", ["flags", "config", "config_and_flag"])
def test_verify_given_both_a_problem_and_a_dim_exits_2_and_writes_nothing(
        tmp_path, monkeypatch, capsys, form):
    # Either one names the instance; given both, verify would certify one
    # of them and drop the other. --density shapes only a generated
    # instance, so with a problem file it would go unused.
    prob = tmp_path / "p.json"
    save_problem(gen_zmatrix_quadratic(2, seed=1), prob)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    cfg = tmp_path / "cfg.json"
    for name, value, message in (("dim", 7, "--problem or --dim, not both"),
                                 ("density", 0.3, "--density with --dim, not with --problem")):
        flag = ["--" + name, str(value)]
        cfg.write_text(json.dumps({"problem": str(prob), name: value} if form == "config"
                                  else {"problem": str(prob)}))
        args = {"flags": ["--problem", str(prob), *flag],
                "config": ["--config", str(cfg)],
                "config_and_flag": ["--config", str(cfg), *flag]}[form]
        outputs = ["--iters", "3", "--report", "report.json", "--summary", "summary.csv"]
        assert main(["verify", *args, *outputs]) == 2, name
        out, err = capsys.readouterr()
        assert not out and message in err, name
        assert list(work.iterdir()) == [], name


@pytest.mark.parametrize("form", ["flags", "config", "config_and_flag"])
def test_run_given_both_an_x0_and_a_start_exits_2_and_writes_nothing(
        tmp_path, monkeypatch, capsys, form):
    # Either one names the start; given both, run would start from --x0 and
    # drop --start with its start search.
    prob = tmp_path / "p.json"
    save_problem(gen_zmatrix_quadratic(3, seed=4), prob)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    cfg = tmp_path / "cfg.json"
    both = {"x0": "1,1,1", "start": "super"}
    cases = {"flags": [({}, both)], "config": [(both, {})],
             "config_and_flag": [({"x0": "1,1,1"}, {"start": "super"}),
                                 ({"start": "super"}, {"x0": "1,1,1"})]}[form]
    for in_config, as_flags in cases:
        cfg.write_text(json.dumps({"problem": str(prob), **in_config}))
        flags = [text for name, value in as_flags.items() for text in ("--" + name, value)]
        assert main(["run", "--config", str(cfg), "--alg", "gd", "--iters", "3",
                     "--seed", "4", *flags]) == 2, in_config
        out, err = capsys.readouterr()
        assert not out and "--x0 or --start, not both" in err, in_config
        assert list(work.iterdir()) == [], in_config


def test_run_start_defaults_to_zero(tmp_path):
    prob = tmp_path / "p.json"
    save_problem(gen_zmatrix_quadratic(3, seed=4), prob)
    for name, start in (("default", []), ("zero", ["--start", "zero"])):
        out = tmp_path / name
        assert main(["run", "--problem", str(prob), "--alg", "gd", "--iters", "3",
                     "--out-dir", str(out), *start]) == 0
    assert (tmp_path / "default" / "trace_gd.csv").read_bytes() == \
        (tmp_path / "zero" / "trace_gd.csv").read_bytes()
    assert read_csv_column(tmp_path / "zero" / "trace_gd.csv", "x_1")[0] == 0.0


def test_verify_summary_deterministic(tmp_path):
    outs = [tmp_path / "s1.csv", tmp_path / "s2.csv"]
    for out in outs:
        code = main(
            ["verify", "--dim", "5", "--seed", "11", "--iters", "25", "--summary", str(out)]
        )
        assert code == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


# ---------------------------------------------------------------------------
# classify and config files
# ---------------------------------------------------------------------------

def test_classify_subcommand(tmp_path, capsys):
    prob = tmp_path / "prob.json"
    write_scalar_problem(prob, lam=1.0)
    assert main(["classify", "--problem", str(prob), "--point", "3.0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "supersolution"
    assert data["slack"] == [3.0]


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": 5, "seed": 11, "iters": 25}))
    assert main(["verify", "--config", str(cfg)]) == 0


def test_missing_required_inputs_exit_2(tmp_path):
    assert main(["run"]) == 2
    assert main(["verify"]) == 2
    assert main(["classify"]) == 2


def test_corrupt_problem_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "sparse", "lambda": 0.1}')
    assert main(["run", "--problem", str(bad), "--alg", "gd"]) == 1
    assert "error:" in capsys.readouterr().err


def test_problem_file_with_a_nan_lambda_exits_1(tmp_path, capsys):
    prob = tmp_path / "p.json"
    write_scalar_problem(prob, lam=0.1)
    data = json.loads(prob.read_text())
    data["lambda"] = float("nan")
    prob.write_text(json.dumps(data))  # json writes the token NaN
    assert "NaN" in prob.read_text()
    for args in (["run", "--alg", "gd"], ["verify", "--iters", "5"]):
        assert main([args[0], "--problem", str(prob), *args[1:]]) == 1
        assert "lam must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["lambda", "L"])
def test_problem_file_with_an_infinite_lambda_or_lipschitz_exits_1(tmp_path, capsys, field):
    # json.load accepts the token Infinity. With L = inf no step moves, so
    # verify would certify x = 0 as the reference minimizer.
    prob = tmp_path / "p.json"
    save_problem(gen_zmatrix_quadratic(8, seed=3), prob)
    data = json.loads(prob.read_text())
    data[field] = float("inf")
    prob.write_text(json.dumps(data))
    assert "Infinity" in prob.read_text()
    want = "lam must be nonnegative" if field == "lambda" else "lipschitz must be positive"
    for args in (["run", "--alg", "gd", "--out-dir", str(tmp_path)], ["verify", "--iters", "50"]):
        assert main([args[0], "--problem", str(prob), *args[1:]]) == 1
        assert f"{want} and finite" in capsys.readouterr().err


def test_run_with_a_nan_stop_residual_exits_1(tmp_path, capsys):
    prob = tmp_path / "p.json"
    write_scalar_problem(prob, lam=0.1)
    assert main(["run", "--problem", str(prob), "--alg", "ccm", "--stop-residual", "nan",
                 "--out-dir", str(tmp_path)]) == 1
    assert "stop_residual must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--iters", "0"], ["--stop-residual", "-1"],
                                  ["--x0", "inf"]])
def test_a_run_that_fails_before_its_first_trace_makes_no_out_dir(tmp_path, capsys, args):
    prob = tmp_path / "p.json"
    write_scalar_problem(prob, lam=0.1)
    out = tmp_path / "out"
    assert main(["run", "--problem", str(prob), "--alg", "gd", "--out-dir", str(out),
                 *args]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [2.7, 3.0, True, "3", None])
def test_integer_config_fields_must_be_json_integers(tmp_path, capsys, value):
    # iters, seed and dim from --config are taken as given, never truncated:
    # anything but a JSON integer exits 1 with a message naming the field,
    # and writes nothing. null counts as absent and takes the default.
    prob = tmp_path / "p.json"
    save_problem(gen_zmatrix_quadratic(4, seed=2), prob)
    out = tmp_path / "out"
    cases = [
        ("run", "iters", ["--problem", str(prob), "--alg", "gd", "--out-dir", str(out)]),
        ("run", "seed", ["--problem", str(prob), "--alg", "gd", "--start", "super",
                         "--iters", "3", "--out-dir", str(out)]),
        ("verify", "iters", ["--problem", str(prob)]),
        ("verify", "seed", ["--problem", str(prob), "--iters", "3"]),
        ("verify", "dim", ["--iters", "3"]),
        ("gen", "dim", ["--out", str(tmp_path / "gen.json")]),
        ("gen", "seed", ["--out", str(tmp_path / "gen.json")]),
    ]
    for command, field, args in cases:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        code = main([command, "--config", str(cfg), *args])
        err = capsys.readouterr().err
        if value is None:
            assert code == (2 if (command, field) == ("verify", "dim") else 0), (command, field)
            continue
        assert code == 1, (command, field)
        assert f"--config field '{field}' must be an integer, got {json.dumps(value)}" in err
        assert not out.exists() and not (tmp_path / "gen.json").exists(), (command, field)


def test_integer_config_fields_take_json_integers(tmp_path):
    prob = tmp_path / "p.json"
    save_problem(gen_zmatrix_quadratic(4, seed=2), prob)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"iters": 3, "seed": 1}))
    assert main(["run", "--config", str(cfg), "--problem", str(prob), "--alg", "gd",
                 "--start", "super", "--out-dir", str(tmp_path)]) == 0
    assert len(read_csv_column(tmp_path / "trace_gd.csv", "k")) == 4
    cfg.write_text(json.dumps({"dim": 3, "seed": 4}))
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "g.json")]) == 0
    assert load_problem(tmp_path / "g.json").dim == 3


# Every --config field of every subcommand, by the kind of value its flag takes.
CONFIG_FIELDS = {
    "int": [("gen", "dim"), ("gen", "seed"), ("run", "iters"), ("run", "seed"),
            ("verify", "dim"), ("verify", "seed"), ("verify", "iters")],
    "float": [("gen", "density"), ("gen", "lam"), ("run", "stop_residual"),
              ("verify", "density"), ("verify", "tol"), ("classify", "tol")],
    "string": [("gen", "csv"), ("gen", "out"), ("run", "problem"), ("run", "x0"),
               ("run", "out_dir"), ("run", "prefix"), ("verify", "problem"),
               ("verify", "report"), ("verify", "summary"), ("classify", "problem"),
               ("classify", "point")],
    "choice": [("gen", "kind"), ("run", "alg"), ("run", "start"), ("verify", "start")],
    "switch": [("run", "record_inner")],
}


def valid_configs(prob):
    """A config per subcommand that runs and writes its outputs into the
    working directory."""
    return {
        "gen": {"out": "gen.json"},
        "run": {"problem": str(prob), "iters": 3, "out_dir": "out"},
        "verify": {"problem": str(prob), "iters": 3, "report": "report.json",
                   "summary": "summary.csv"},
        "classify": {"problem": str(prob), "point": "0,0,0,0"},
    }


def test_the_config_field_table_covers_every_flag():
    from l1lab.cli import _build_parser

    _, commands = _build_parser()
    have = {(name, a.dest) for name, command in commands.items() for a in command._actions
            if a.dest not in ("help", "config")}
    assert have == {f for fields in CONFIG_FIELDS.values() for f in fields}


@pytest.mark.parametrize("kind, value", [("float", True), ("float", "1e-8"), ("string", 1),
                                         ("choice", "bogus"), ("switch", "no")])
def test_a_config_value_the_flag_would_not_take_exits_1_and_writes_nothing(
        tmp_path, monkeypatch, capsys, kind, value):
    # Each case would otherwise run as something else: {"start": "bogus"} as
    # the subsolution mirror, {"tol": true} as tol = 1.0, {"report": 1} as
    # file descriptor 1.
    prob = tmp_path / "p.json"
    save_problem(gen_zmatrix_quadratic(4, seed=2), prob)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    cfg = tmp_path / "cfg.json"
    for command, field in CONFIG_FIELDS[kind]:
        cfg.write_text(json.dumps({**valid_configs(prob)[command], field: value}))
        assert main([command, "--config", str(cfg)]) == 1, (command, field)
        out, err = capsys.readouterr()
        assert f"--config field '{field}' must be " in err and not out, (command, field)
        assert f"got {json.dumps(value)}" in err, (command, field)
        assert list(work.iterdir()) == [], (command, field)


def test_config_nulls_take_the_defaults(tmp_path, monkeypatch, capsys):
    prob = tmp_path / "p.json"
    save_problem(gen_zmatrix_quadratic(4, seed=2), prob)
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    for command, config in valid_configs(prob).items():
        nulls = {f: None for fields in CONFIG_FIELDS.values() for c, f in fields
                 if c == command and f not in config}
        cfg.write_text(json.dumps({**config, **nulls}))
        assert main([command, "--config", str(cfg)]) == 0, command
        out = capsys.readouterr().out
    assert json.loads(out)["tol"] == 1e-10  # classify's default
    assert (tmp_path / "gen.json").exists() and (tmp_path / "report.json").exists()


def test_flags_on_the_command_line_beat_config_values(tmp_path, capsys):
    prob = tmp_path / "p.json"
    save_problem(gen_zmatrix_quadratic(4, seed=2), prob)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": str(prob), "point": "1,1,1,1", "tol": 0.001,
                               "start": "sub", "iters": 3}))
    assert main(["classify", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["tol"] == 0.001
    assert main(["classify", "--config", str(cfg), "--tol", "1e-6"]) == 0
    assert json.loads(capsys.readouterr().out)["tol"] == 1e-6
    assert main(["verify", "--config", str(cfg)]) == 0
    assert "start=subsolution, K=3," in capsys.readouterr().out
    assert main(["verify", "--config", str(cfg), "--start", "super", "--iters", "4"]) == 0
    assert "start=supersolution, K=4," in capsys.readouterr().out


def test_gen_takes_kind_csv_and_lam_from_a_config(tmp_path):
    csv = tmp_path / "data.csv"
    csv.write_text("x_1,x_2,y\n1.0,0.0,2.0\n0.0,1.0,2.0\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "lasso", "csv": str(csv), "lam": 0.25}))
    out = tmp_path / "prob.json"
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
    p = load_problem(out)
    np.testing.assert_allclose(p.smooth.A, np.eye(2) / 2.0)
    np.testing.assert_allclose(p.smooth.b, [-1.0, -1.0])
    assert p.lam == 0.25


@pytest.mark.parametrize("field, value", [("dim", 2.7), ("dim", 1.0), ("dim", "1"),
                                          ("dim", None), ("lambda", True), ("lambda", "0.1"),
                                          ("L", "5"), ("L", True)])
def test_a_problem_file_field_of_the_wrong_type_exits_1(tmp_path, capsys, field, value):
    # "dim" must be a JSON integer, "lambda" and "L" JSON numbers; a bool is
    # neither, so "lambda": true is not read as 1.0.
    prob = tmp_path / "p.json"
    write_scalar_problem(prob, lam=0.1)
    data = json.loads(prob.read_text())
    data[field] = value
    prob.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["run", "--problem", str(prob), "--alg", "gd", "--out-dir", str(out)]) == 1
    assert f"problem field {field!r} must be" in capsys.readouterr().err
    assert not out.exists()


def test_a_problem_file_with_a_null_L_estimates_it(tmp_path, capsys):
    prob = tmp_path / "p.json"
    write_scalar_problem(prob, a=2.0, lam=0.1)
    data = json.loads(prob.read_text())
    data["L"] = None
    prob.write_text(json.dumps(data))
    assert main(["classify", "--problem", str(prob), "--point", "0"]) == 0
    assert load_problem(prob).lipschitz >= 2.0
