"""Tests for the command-line front end.

Fast paths call main() in-process; a few end-to-end cases go through a
subprocess to cover environment handling and real exit codes.
"""

import json
import os
import subprocess
import sys

import pytest

import szego.decompose
from szego import CheckReport
from szego.cli import main


def run_cli(*argv, env_extra=None, timeout=None):
    env = dict(os.environ)
    env.pop("SZEGO_SEED", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "szego.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    return proc


def test_decompose_worked_example(capsys):
    rc = main(["decompose", "--mode", "finite", "--c", "1/3,0", "--n", "2", "--k", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sigma"] == ["0", "0"]
    assert out["mode"] == "finite" and out["n"] == 2 and out["k"] == 1
    assert len(out["roots"]) == 2


def test_decompose_no_roots_flag(capsys):
    rc = main(
        ["decompose", "--mode", "finite", "--c", "1/3,0", "--n", "2", "--k", "1", "--no-roots"]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert "roots" not in out


def test_decompose_exp_with_leading_dash_value(capsys):
    # leading '-' needs the --c=value spelling, standard argparse behavior
    rc = main(["decompose", "--mode", "exp", "--c=-1,2", "--no-roots"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sigma"] == ["-3", "2"]
    assert out["convention"] == "normalized"


def test_decompose_monic_convention(capsys):
    rc = main(
        [
            "decompose",
            "--mode",
            "exp",
            "--c=-2,1/3,-2/3",
            "--convention",
            "monic",
            "--no-roots",
        ]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sigma"] == ["-5", "13/3", "-2/3"]


def test_decompose_missing_nk_is_an_error(capsys):
    rc = main(["decompose", "--mode", "finite", "--c", "1,1"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_decompose_m_mismatch(capsys):
    # the exp degree is len(--c); decompose has no --m, and does not read
    # it as an abbreviation of --mode either
    for m in ("3", "finite"):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--mode", "exp", "--c", "1,2", "--m", m])
        assert exc.value.code == 1
        assert f"unrecognized arguments: --m {m}" in capsys.readouterr().err


@pytest.mark.parametrize("vec", [",1,2", "1,,2", "1,2,", "1, ,2"])
def test_empty_list_entries_are_rejected(vec, capsys):
    assert main(["decompose", "--mode", "finite", "--n", "2", "--k", "1", "--c", vec]) == 1
    assert main(["xi-iterate", "--poly", vec, "--nu", "1"]) == 1
    assert capsys.readouterr().err.count("empty rational literal") == 2


def test_compose_finite_worked(capsys):
    rc = main(["compose", "--a", "4,-4,1", "--b", "9,-6,1", "--ambient", "2"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["coeffs"] == ["36", "12", "1"]


def test_compose_exp_worked(capsys):
    rc = main(["compose", "--a", "1,1", "--b", "1,1", "--exp"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"exp_poly": {"coeffs": ["1", "3", "1"]}}


def test_compose_needs_ambient(capsys):
    rc = main(["compose", "--a", "1,1", "--b", "1,1"])
    assert rc == 1
    assert "ambient" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compose", "--ambient", "1"], "compose needs --a and --b (or --from-sigma)"),
        (["compose", "--from-sigma", "1,2"], "--from-sigma takes a decomposition JSON"),
        (["phi", "--mode", "finite", "--n", "2"], "finite mode needs --n and --k"),
        (["phi", "--mode", "exp"], "exp mode needs --m"),
        (["decompose", "--mode", "exp", "--c", " , "], "empty coefficient list"),
        (["xi-iterate", "--poly", "1,1", "--nu", "-1"], "iteration count must be >= 0"),
    ],
    ids=[
        "compose_no_operands",
        "from_sigma_not_json",
        "phi_finite_no_k",
        "phi_exp_no_m",
        "decompose_blank_list",
        "xi_iterate_negative_nu",
    ],
)
def test_command_errors_exit_one(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # one line, no usage text and no traceback
    assert captured.err.startswith(f"szego: error: {message}")
    assert captured.err.count("\n") == 1


def test_compose_rejects_float_coefficients(capsys):
    rc = main(["compose", "--a", "1.5,1", "--b", "1,1", "--ambient", "1"])
    assert rc == 1


def test_compose_decompose_round_trip(tmp_path, capsys):
    dec_file = tmp_path / "dec.json"
    rc = main(
        [
            "decompose",
            "--mode",
            "finite",
            "--c",
            "1/3,0",
            "--n",
            "2",
            "--k",
            "1",
            "--out",
            str(dec_file),
        ]
    )
    assert rc == 0
    rc = main(["compose", "--from-sigma", str(dec_file)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    # (x+1)(x^2 + x/3), ascending
    assert out["coeffs"] == ["0", "1/3", "4/3", "1"]


def test_compose_from_sigma_exp(capsys):
    doc = json.dumps(
        {"mode": "exp", "sigma": ["-3", "2"], "m": 2, "convention": "normalized"}
    )
    rc = main(["compose", "--from-sigma", doc])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"exp_poly": {"coeffs": ["1", "-1", "2"]}}


def test_compose_from_sigma_excludes_operands(capsys):
    rc = main(["compose", "--from-sigma", "{}", "--a", "1,1"])
    assert rc == 1


def test_phi_worked(capsys):
    rc = main(["phi", "--mode", "finite", "--n", "2", "--k", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["matrix"] == [["3/2", "-1/2"], ["0", "1"]]
    assert out["offset"] == ["-1/2", "0"]
    assert out["invertible"] is True
    assert out["determinant"] == "3/2"


def test_phi_exp(capsys):
    rc = main(["phi", "--mode", "exp", "--m", "2"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["matrix"] == [["1", "-1"], ["0", "1"]]
    assert out["offset"] == ["0", "0"]


def test_phi_computes_the_determinant_once(monkeypatch, capsys):
    # finite mode prints the closed-form product; only exp mode runs Bareiss
    real = szego.decompose._det
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(szego.decompose, "_det", counting)
    for argv, expected in [
        (["--mode", "finite", "--n", "32", "--k", "2"], []),
        (["--mode", "exp", "--m", "32"], [32]),
    ]:
        calls.clear()
        assert main(["phi", *argv]) == 0
        assert calls == expected, argv
        out = json.loads(capsys.readouterr().out)
        assert out["invertible"] is (out["determinant"] != "0")


def test_xi_iterate_worked(capsys):
    rc = main(["xi-iterate", "--poly", "1,3,1", "--nu", "1"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1,2,1"


def test_xi_iterate_zero_poly(capsys):
    rc = main(["xi-iterate", "--poly", "0", "--nu", "3"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0"


def test_xi_iterate_out_file(tmp_path, capsys):
    out_file = tmp_path / "xi.json"
    rc = main(["xi-iterate", "--poly", "1,3,1", "--nu", "4", "--out", str(out_file)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1,-1,1"
    assert json.loads(out_file.read_text()) == {"coeffs": ["1", "-1", "1"]}


def test_poly_json_file_input(tmp_path, capsys):
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({"coeffs": ["1", "3", "1"]}))
    rc = main(["xi-iterate", "--poly", str(pfile), "--nu", "0"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1,3,1"


def test_literal_argument_never_reads_a_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "1").write_text(json.dumps({"coeffs": ["5", "7"]}))
    rc = main(["compose", "--a", "1", "--b", "3", "--ambient", "0"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {"coeffs": ["3"]}


def test_missing_json_file_is_an_error(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    rc = main(["xi-iterate", "--poly", str(missing), "--nu", "0"])
    assert rc == 1
    assert "absent.json" in capsys.readouterr().err  # the OS error names the path


def test_verify_single_check(capsys):
    rc = main(["verify", "--suite", "derivative_identities", "--trials", "5", "--seed", "3"])
    assert rc == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert [r["check_id"] for r in payload["reports"]] == ["derivative_identities"]
    assert payload["reports"][0]["seed"] == 3
    assert "1 checks, 0 failed" in captured.err


def test_verify_unknown_suite(capsys):
    rc = main(["verify", "--suite", "bogus", "--trials", "5"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_verify_rejects_zero_jobs(capsys):
    rc = main(["verify", "--suite", "derivative_identities", "--trials", "1", "--jobs", "0"])
    assert rc == 1
    assert "jobs must be >= 1" in capsys.readouterr().err


def test_verify_failure_exit_code(monkeypatch, capsys):
    def fake(names, trials=500, seed=42, jobs=1):
        return [CheckReport("fake_check", trials, [{"trial": 0}], seed, 0.0)]

    monkeypatch.setattr("szego.verify.run_suite", fake)
    rc = main(["verify", "--suite", "all", "--trials", "5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "1 checks, 1 failed: fake_check" in captured.err
    payload = json.loads(captured.out)
    assert payload["reports"][0]["passed"] is False


def test_verify_writes_json_and_csv(tmp_path, capsys):
    jpath = tmp_path / "r.json"
    cpath = tmp_path / "r.csv"
    rc = main(
        [
            "verify",
            "--suite",
            "root_multiplicity",
            "--trials",
            "5",
            "--seed",
            "4",
            "--out",
            str(jpath),
            "--csv",
            str(cpath),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    payload = json.loads(jpath.read_text())
    assert payload["reports"][0]["check_id"] == "root_multiplicity"
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "check_id,trials,failures,seed,seconds"
    assert lines[1].startswith("root_multiplicity,5,0,4,")


def test_report_retabulates(tmp_path, capsys):
    jpath = tmp_path / "r.json"
    rc = main(
        [
            "verify",
            "--suite",
            "derivative_identities,root_multiplicity",
            "--trials",
            "5",
            "--out",
            str(jpath),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    rc = main(["report", "--input", str(jpath)])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "check_id,trials,failures,seed,seconds"
    assert len(out) == 3

    cpath = tmp_path / "r.csv"
    rc = main(["report", "--input", str(jpath), "--csv", str(cpath)])
    assert rc == 0
    assert cpath.read_text().strip().splitlines() == out


def test_report_quotes_cell_ids(tmp_path, capsys):
    # cell identifiers contain commas and must be CSV-quoted
    jpath = tmp_path / "r.json"
    rc = main(
        [
            "verify",
            "--suite",
            "cone_finite[n=1,k=2]",
            "--trials",
            "5",
            "--out",
            str(jpath),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    rc = main(["report", "--input", str(jpath)])
    assert rc == 0
    line = capsys.readouterr().out.strip().splitlines()[1]
    assert line.startswith('"cone_finite[n=1,k=2]"')


def test_report_rejects_non_reports(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"hello": 1}))
    rc = main(["report", "--input", str(bad)])
    assert rc == 1


def test_verify_rejects_trials_below_one(tmp_path, capsys):
    out = tmp_path / "r.json"
    for trials in ("0", "-3"):
        argv = ["verify", "--suite", "derivative_identities", "--trials", trials]
        assert main(argv + ["--out", str(out)]) == 1
        assert "trials must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec", ["", ",", " , "])
def test_verify_with_no_selected_check_is_an_error(spec, tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(["verify", "--suite", spec, "--trials", "1", "--out", str(out)])
    assert rc == 1
    assert "no checks selected" in capsys.readouterr().err
    assert not out.exists()


def test_write_errors_name_the_requested_path(tmp_path, capsys):
    argv = ["verify", "--suite", "derivative_identities", "--trials", "1", "--out"]
    missing = tmp_path / "no-such-dir" / "r.json"
    assert main(argv + [str(missing)]) == 1
    err = capsys.readouterr().err
    assert f"No such file or directory: '{missing}'" in err and ".tmp-" not in err
    # the replace fails onto a directory: the temporary file is removed
    target = tmp_path / "taken"
    target.mkdir()
    assert main(argv + [str(target)]) == 1
    err = capsys.readouterr().err
    assert str(target) in err and ".tmp-" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert not any(target.iterdir())


def test_report_files_follow_the_umask(tmp_path, capsys):
    argv = ["verify", "--suite", "derivative_identities", "--trials", "1"]
    old = os.umask(0o022)
    try:
        for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
            os.umask(umask)
            out, csv = tmp_path / f"{mode:o}.json", tmp_path / f"{mode:o}.csv"
            assert main(argv + ["--out", str(out), "--csv", str(csv)]) == 0
            assert os.stat(out).st_mode & 0o777 == mode
            assert os.stat(csv).st_mode & 0o777 == mode
    finally:
        os.umask(old)
    capsys.readouterr()


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


# -- end-to-end subprocess coverage -------------------------------------------


def test_subprocess_worked_example():
    proc = run_cli(
        "decompose", "--mode", "finite", "--c", "1/3,0", "--n", "2", "--k", "1"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["sigma"] == ["0", "0"]


def test_subprocess_xi_iterate_at_a_billion_steps_ends():
    # the closed form costs deg p + 1 transforms, not nu
    proc = run_cli("xi-iterate", "--poly", "1,2,3,1", "--nu", "1000000000", timeout=30)
    assert proc.returncode == 0, proc.stderr
    coeffs = proc.stdout.strip().split(",")
    # T keeps the lead and the constant term; [x^2] drops by 3 nu
    assert coeffs[0] == coeffs[-1] == "1" and coeffs[2] == str(3 - 3 * 10**9)


def test_subprocess_phi_at_n_60_ends():
    # the determinant is a product, not a Bareiss pass over a 60 x 60 map
    proc = run_cli("phi", "--mode", "finite", "--n", "60", "--k", "1", timeout=5)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert len(out["matrix"]) == 60 and out["invertible"] is True


def test_subprocess_usage_error_code():
    proc = run_cli("decompose", "--mode", "finite")
    assert proc.returncode == 1


def test_seed_env_and_flag_precedence(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli(
        "verify",
        "--suite",
        "derivative_identities",
        "--trials",
        "4",
        "--out",
        str(out),
        env_extra={"SZEGO_SEED": "99"},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["reports"][0]["seed"] == 99

    proc = run_cli(
        "verify",
        "--suite",
        "derivative_identities",
        "--trials",
        "4",
        "--seed",
        "7",
        "--out",
        str(out),
        env_extra={"SZEGO_SEED": "99"},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["reports"][0]["seed"] == 7


def test_report_files_name_their_encoding(tmp_path):
    # EncodingWarning flags an open() that falls back to the locale
    proc = subprocess.run(
        [
            sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
            "-m", "szego.cli", "verify", "--suite", "cone_exp", "--trials", "1", "--seed", "1",
            "--out", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["reports"]
    assert (tmp_path / "r.csv").read_text(encoding="utf-8").startswith("check_id,")


def test_bad_seed_env_is_reported():
    proc = run_cli(
        "verify",
        "--suite",
        "derivative_identities",
        "--trials",
        "4",
        env_extra={"SZEGO_SEED": "not-a-number"},
    )
    assert proc.returncode == 1
    assert "SZEGO_SEED" in proc.stderr


def test_main_calls_carry_no_state(monkeypatch, capsys):
    # the parser is built once per process; each call must still start
    # from the defaults and read SZEGO_SEED when it runs
    from szego.cli import _build_parser

    assert _build_parser() is _build_parser()
    argv = ["decompose", "--mode", "finite", "--c", "1/3,0", "--n", "2", "--k", "1"]
    assert main(argv + ["--no-roots"]) == 0
    assert "roots" not in json.loads(capsys.readouterr().out)
    assert main(["decompose", "--mode", "exp", "--c", "1,2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["convention"] == "normalized" and len(out["roots"]) == 2
    assert "n" not in out and "k" not in out

    verify = ["verify", "--suite", "derivative_identities", "--trials", "2"]
    monkeypatch.setenv("SZEGO_SEED", "11")
    assert main(verify + ["--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["reports"][0]["seed"] == 3
    assert main(verify) == 0
    assert json.loads(capsys.readouterr().out)["reports"][0]["seed"] == 11
    monkeypatch.setenv("SZEGO_SEED", "12")
    assert main(verify) == 0
    assert json.loads(capsys.readouterr().out)["reports"][0]["seed"] == 12


_ROW = {"check_id": "c", "trials": 1, "failures": [], "seed": 1}
_FINITE = {"mode": "finite", "sigma": ["1"], "n": 1, "k": 1}

# (argv, report document) of inputs that are JSON but not a valid value;
# "{report}" in argv stands for the path of the document written to disk
MALFORMED = {
    "poly_bool_coeff": (["xi-iterate", "--poly", '{"coeffs": [1, true]}', "--nu", "1"], None),
    "poly_null_coeff": (["xi-iterate", "--poly", '{"coeffs": [null]}', "--nu", "1"], None),
    "poly_not_an_object": (["xi-iterate", "--poly", "[1, 2]", "--nu", "1"], None),
    "poly_float_coeff": (
        ["compose", "--a", '{"coeffs": [1.5]}', "--b", "1,1", "--ambient", "1"], None
    ),
    "vector_float": (["decompose", "--mode", "exp", "--c", "[1.5]", "--no-roots"], None),
    "vector_bool": (["decompose", "--mode", "exp", "--c", "[false]", "--no-roots"], None),
    "vector_nested": (["decompose", "--mode", "exp", "--c", "[[1]]", "--no-roots"], None),
    "sigma_list_mode": (["compose", "--from-sigma", json.dumps({**_FINITE, "mode": ["finite"]})], None),
    "sigma_missing_k": (["compose", "--from-sigma", json.dumps({**_FINITE, "k": None})], None),
    "sigma_without_k": (
        ["compose", "--from-sigma", '{"mode": "finite", "sigma": ["1"], "n": 1}'], None
    ),
    "sigma_string_n": (["compose", "--from-sigma", json.dumps({**_FINITE, "n": "1"})], None),
    "sigma_bool_k": (["compose", "--from-sigma", json.dumps({**_FINITE, "k": True})], None),
    "sigma_float_entry": (
        ["compose", "--from-sigma", '{"mode": "exp", "sigma": [0.5], "m": 1}'], None
    ),
    "sigma_not_an_array": (["compose", "--from-sigma", json.dumps({**_FINITE, "sigma": "1"})], None),
    "exp_without_m": (["compose", "--from-sigma", '{"mode": "exp", "sigma": ["1"]}'], None),
    "root_without_im": (
        ["compose", "--from-sigma", json.dumps({**_FINITE, "roots": [{"re": 1.0}]})], None
    ),
    "root_string_part": (
        ["compose", "--from-sigma", json.dumps({**_FINITE, "roots": [{"re": 1, "im": "0"}]})],
        None,
    ),
    "roots_not_an_array": (["compose", "--from-sigma", json.dumps({**_FINITE, "roots": 1})], None),
    "report_row_without_trials": (
        ["report", "--input", "{report}"],
        {"reports": [{k: v for k, v in _ROW.items() if k != "trials"}]},
    ),
    "report_row_string_seed": (["report", "--input", "{report}"], {"reports": [{**_ROW, "seed": "1"}]}),
    "report_row_not_an_object": (["report", "--input", "{report}"], {"reports": [1]}),
    "report_rows_not_an_array": (["report", "--input", "{report}"], {"reports": {}}),
    "report_metadata_not_an_object": (
        ["report", "--input", "{report}"], {"reports": [_ROW], "metadata": []}
    ),
    "report_elapsed_not_a_number": (
        ["report", "--input", "{report}"],
        {"reports": [_ROW], "metadata": {"elapsed_seconds": {"c": [1]}}},
    ),
}


@pytest.mark.parametrize("argv, report", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_json_input_fails_cleanly(argv, report, tmp_path):
    path = tmp_path / "report.json"
    if report is not None:
        path.write_text(json.dumps(report), encoding="utf-8")
    proc = run_cli(*[a.replace("{report}", str(path)) for a in argv])
    assert proc.returncode == 1, proc.stdout
    assert "szego: error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bad_seed_env_exits_one_in_process(monkeypatch, capsys):
    monkeypatch.setenv("SZEGO_SEED", "abc")
    assert main(["verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "szego: error: SZEGO_SEED must be an integer, got 'abc'\n"


def test_report_with_non_numeric_elapsed_exits_one(tmp_path, capsys):
    path = tmp_path / "r.json"
    doc = {"reports": [_ROW], "metadata": {"elapsed_seconds": {"c": "fast"}}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["report", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "szego: error: 'metadata' must map 'elapsed_seconds' to seconds per check\n"
    )


def test_json_vectors_take_integers_and_rational_strings(capsys):
    assert main(["xi-iterate", "--poly", '{"coeffs": [1, 2]}', "--nu", "1"]) == 0
    assert capsys.readouterr().out == "1,2\n"
    assert main(["compose", "--a", '{"coeffs": [1, "1/2"]}', "--b", "2,1", "--ambient", "1"]) == 0
    composed = json.loads(capsys.readouterr().out)
    assert main(["compose", "--a", "1,1/2", "--b", "2,1", "--ambient", "1"]) == 0
    assert json.loads(capsys.readouterr().out) == composed
    exp_doc = '{"exp_poly": {"coeffs": ["1", "1/2"]}}'
    assert main(["compose", "--a", exp_doc, "--b", "2,1", "--ambient", "1"]) == 0
    assert json.loads(capsys.readouterr().out) == composed
    decompose = ["decompose", "--mode", "exp", "--no-roots", "--c"]
    assert main(decompose + ['[1, "1/2"]']) == 0
    sigma = json.loads(capsys.readouterr().out)["sigma"]
    assert main(decompose + ["1,1/2"]) == 0
    assert json.loads(capsys.readouterr().out)["sigma"] == sigma
    assert main(["compose", "--from-sigma", json.dumps({**_FINITE, "sigma": [1]})]) == 0
    assert json.loads(capsys.readouterr().out) == {"coeffs": ["1", "2", "1"]}
