"""End-to-end CLI behavior: subcommands, exit codes, file contracts."""

import contextlib
import csv
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthocount
from orthocount import spectral
from orthocount.asymptotics import CSV_COLUMNS
from orthocount.cli import main
from orthocount.graphs import build_affine_graph


SRC_DIR = Path(orthocount.__file__).resolve().parents[1]


def run_cli(*args, env=None, timeout=None, address_space=None):
    """Run ``python -m orthocount`` in a child process.

    The child inherits the caller's environment with ``env`` layered on
    top, and imports ``orthocount`` from the same source tree as the
    in-process tests rather than from any installed copy.  A timeout
    kills the child and raises subprocess.TimeoutExpired; address_space
    caps the child's virtual memory in bytes.
    """
    child_env = {**os.environ, **(env or {})}
    child_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), child_env.get("PYTHONPATH")])
    )

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "orthocount", *args],
        capture_output=True,
        text=True,
        env=child_env,
        timeout=timeout,
        preexec_fn=limit if address_space else None,
    )


def assert_one_error_line(result, message=""):
    assert result.returncode == 1
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line.startswith("orthocount: error:")
    assert message in line


# ---------------------------------------------------------------------------
# usage errors and help (exit code 2 / 0)
# ---------------------------------------------------------------------------


def test_no_arguments_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--q", "3", "--d", "4", "--k", "3", "--m", "81", "--frob", "1"])
    assert exc.value.code == 2


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--q", "3", "--d", "3"])
    assert exc.value.code == 2


def test_unparseable_number_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--q", "three", "--d", "4", "--k", "3", "--m", "81"])
    assert exc.value.code == 2


def test_help_exits_zero():
    for args in (["--help"], ["predict", "--help"], ["experiment", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 0


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def test_predict_output(capsys):
    assert main(["predict", "--q", "3", "--d", "4", "--k", "3", "--m", "81"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lambda_k_formula"] == pytest.approx(81**3 / 6 / 27)
    assert payload["threshold_new"] == 81.0
    assert payload["threshold_old"] == 81.0
    assert payload["alon_formula"] == pytest.approx(81**3 / 6 * (26 / 80) ** 3)


@pytest.mark.parametrize(
    "q,d,k,m,message",
    [
        (5, 4, 5, 10**80, "floating-point range"),
        (1048573, 200, 5, 100, "floating-point range"),
        (6, 4, 3, 100, "6 is not a prime power"),
    ],
)
def test_predict_failures_are_one_error_line(q, d, k, m, message):
    result = run_cli("predict", "--q", str(q), "--d", str(d), "--k", str(k), "--m", str(m))
    assert_one_error_line(result, message)


def test_predict_rejects_k_below_one(capsys):
    assert main(["predict", "--q", "3", "--d", "4", "--k", "0", "--m", "81"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "orthocount: error: k must be >= 1, got 0\n"


HUGE = 10**30


@pytest.mark.parametrize(
    "args",
    [
        ("build", "--family", "affine", "--q", "9", "--d", str(HUGE)),
        ("verify-spectrum", "--family", "projective", "--q", "9", "--d", str(HUGE)),
        ("count", "--q", "9", "--d", str(HUGE), "--k", "2"),
        ("predict", "--q", "9", "--d", str(HUGE), "--k", "2", "--m", "4"),
        ("predict", "--q", "5", "--d", "1", "--k", str(HUGE), "--m", "4"),
    ],
)
def test_huge_arguments_fail_fast(args):
    # neither q**d nor m**k may be taken: with 2 GiB of address space the
    # child must give its one error line well inside the timeout
    result = run_cli(*args, timeout=20, address_space=2 << 30)
    assert_one_error_line(result)


@pytest.mark.parametrize("k", [1000, 3_000_000])
def test_huge_k_experiment_fails_fast(tmp_path, k):
    # the thresholds overflow before the graph is built or k! is taken
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"q = 3\nd = 4\nk = {k}\ndensities = 0.5\ntrials = 1\nseed = 1\n")
    out_csv = tmp_path / "out.csv"
    result = run_cli(
        "experiment", "--config", str(cfg), "--out-csv", str(out_csv),
        timeout=20, address_space=2 << 30,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    warning, error = result.stderr.splitlines()
    assert warning.startswith("orthocount: warning: d = 4 is below 2k - 1")
    assert error == "orthocount: error: a prediction exceeds the floating-point range"
    assert not out_csv.exists()


def test_predict_large_clique(capsys):
    # |Aut(K_9)| = 9! without enumerating permutations of 9 vertices
    assert main(["predict", "--q", "3", "--d", "4", "--k", "9", "--m", "100"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lambda_k_formula"] == 100**9 / (362880 * 3**36)
    assert payload["alon_formula"] == 100**9 * 26**36 / (362880 * 80**36)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def test_build_export(tmp_path, capsys):
    out = tmp_path / "g.adj"
    assert main(["build", "--family", "affine", "--q", "3", "--d", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "affine 3 3 26 8"
    adjacency = build_affine_graph(3, 3).adjacency_matrix()
    assert [int(line, 16) for line in lines[1:]] == [
        int("".join(map(str, row[::-1])), 2) for row in adjacency
    ]


def test_build_to_stdout(capsys):
    assert main(["build", "--family", "projective", "--q", "2", "--d", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "projective 2 3 7 3"
    assert len(lines) == 8


def test_build_bound_override_via_env(tmp_path):
    out = tmp_path / "x"
    result = run_cli(
        "build", "--family", "affine", "--q", "5", "--d", "4",
        "--out", str(out),
        env={"ORTHOCOUNT_MAX_N": "100"},
    )
    assert result.returncode == 1
    # exactly one diagnostic line, from the CLI itself (a child that cannot
    # import the package also exits 1, with a different message)
    [line] = result.stderr.splitlines()
    assert line.startswith("orthocount: error:")
    assert "exceeds bound 100" in line
    assert not out.exists()


# ---------------------------------------------------------------------------
# verify-spectrum
# ---------------------------------------------------------------------------


def test_verify_spectrum_json(capsys):
    assert main(["verify-spectrum", "--family", "affine", "--q", "3", "--d", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["n"] == 26
    assert payload["degree"] == 8
    assert payload["mu_or_rho"] == 2
    assert payload["second_squared"] == 12
    assert payload["violations"] == []
    assert payload["field"] == "GF(3^1; modulus=0,1)"


def test_verify_spectrum_projective(capsys):
    assert main(["verify-spectrum", "--family", "projective", "--q", "4", "--d", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True and payload["mu_or_rho"] == 1
    assert payload["field"] == "GF(2^2; modulus=1,1,1)"


def test_verify_spectrum_bound_below_n_via_env():
    result = run_cli(
        "verify-spectrum", "--family", "affine", "--q", "3", "--d", "3",
        env={"ORTHOCOUNT_MAX_N": "20"},
    )
    assert result.returncode == 1
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line.startswith("orthocount: error:")
    assert "exceeds bound 20" in line


def test_verify_spectrum_check_bound_follows_env(monkeypatch, capsys):
    # unset, the check keeps its own default; set, the variable governs it
    monkeypatch.setattr(spectral, "DEFAULT_MAX_CHECK_VERTICES", 10)
    argv = ["verify-spectrum", "--family", "affine", "--q", "3", "--d", "3"]
    assert main(argv) == 1
    assert "matrix check bound exceeded: n = 26 > 10" in capsys.readouterr().err
    monkeypatch.setenv("ORTHOCOUNT_MAX_N", "26")
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def test_count_full_graph(capsys):
    assert main(["count", "--q", "3", "--d", "3", "--k", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == {"m": 26, "k": 2, "lambda_k": 200}


def test_count_with_subset_file(tmp_path, capsys):
    subset = tmp_path / "subset.txt"
    subset.write_text("1,0,0\n0,1,0\n0,0,1\n")
    assert main(["count", "--q", "3", "--d", "3", "--k", "3", "--subset", str(subset)]) == 0
    assert json.loads(capsys.readouterr().out) == {"m": 3, "k": 3, "lambda_k": 6}


def test_count_rejects_zero_vector_subset(tmp_path, capsys):
    subset = tmp_path / "subset.txt"
    subset.write_text("1,0,0\n0,0,0\n")
    assert main(["count", "--q", "3", "--d", "3", "--k", "2", "--subset", str(subset)]) == 1
    assert "zero vector" in capsys.readouterr().err


def test_count_rejects_non_vertex(tmp_path, capsys):
    subset = tmp_path / "subset.txt"
    subset.write_text("1,0\n")
    assert main(["count", "--q", "3", "--d", "3", "--k", "2", "--subset", str(subset)]) == 1


def test_count_rejects_repeated_vector(tmp_path, capsys):
    subset = tmp_path / "subset.txt"
    subset.write_text("0,1,0\n1,0,0\n0,0,1\n1,0,0\n0,1,0\n")
    assert main(["count", "--q", "3", "--d", "3", "--k", "2", "--subset", str(subset)]) == 1
    # (1, 0, 0) is vertex 0 and repeats before (0, 1, 0) does
    assert capsys.readouterr().err == "orthocount: error: duplicate vertex index 0\n"


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

CONFIG = "q = 3\nd = 3\nk = 2\ndensities = 0.5, 1.0\ntrials = 2\nseed = 42\n"


def test_experiment_csv_and_json(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG)
    out_csv = tmp_path / "rows.csv"
    out_json = tmp_path / "rows.json"
    assert main([
        "experiment", "--config", str(cfg),
        "--out-csv", str(out_csv), "--out-json", str(out_json),
    ]) == 0

    text = out_csv.read_text()
    assert "\r" not in text  # LF endings, locale-free
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == list(CSV_COLUMNS)
    assert len(rows) == 4

    data = json.loads(out_json.read_text())
    assert len(data) == len(rows)
    for parsed, emitted in zip(rows, data):
        # CSV round-trips to the same values the JSON carries
        assert int(parsed["observed"]) == emitted["observed"]
        assert float(parsed["predicted_main"]) == emitted["predicted_main"]
        assert float(parsed["relative_error"]) == emitted["relative_error"]
        assert int(parsed["seed_used"]) == emitted["seed_used"]
        assert int(parsed["m"]) == emitted["m"]


def test_experiment_is_byte_reproducible(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["experiment", "--config", str(cfg), "--out-csv", str(a)]) == 0
    assert main(["experiment", "--config", str(cfg), "--out-csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_experiment_header_only_for_empty_rows(tmp_path):
    from orthocount.cli import emit_reports

    out_csv = tmp_path / "empty.csv"
    out_json = tmp_path / "empty.json"
    emit_reports([], str(out_csv), str(out_json))
    assert out_csv.read_text() == ",".join(CSV_COLUMNS) + "\n"
    assert json.loads(out_json.read_text()) == []


def test_experiment_rejects_k_below_one(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG.replace("k = 2", "k = 0"))
    out_csv = tmp_path / "rows.csv"
    assert main(["experiment", "--config", str(cfg), "--out-csv", str(out_csv)]) == 1
    assert capsys.readouterr().err == "orthocount: error: k must be >= 1, got 0\n"
    assert not out_csv.exists()


def test_experiment_below_lemma_range_warns_in_one_line(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG.replace("d = 3", "d = 4").replace("k = 2", "k = 3"))
    out_csv = tmp_path / "rows.csv"
    assert main(["experiment", "--config", str(cfg), "--out-csv", str(out_csv)]) == 0
    assert capsys.readouterr().err == (
        "orthocount: warning: d = 4 is below 2k - 1 = 5; the counting lemma's "
        "hypothesis is violated and predictions may be off\n"
    )
    assert out_csv.read_text().count("\n") == 5  # header and 2 x 2 rows


def test_experiment_missing_config_is_runtime_error(tmp_path, capsys):
    assert main([
        "experiment", "--config", str(tmp_path / "nope.cfg"),
        "--out-csv", str(tmp_path / "out.csv"),
    ]) == 1
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# one true end-to-end subprocess check
# ---------------------------------------------------------------------------


def test_subprocess_round_trip(tmp_path):
    result = run_cli("count", "--q", "3", "--d", "3", "--k", "2")
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"m": 26, "k": 2, "lambda_k": 200}
    bad = run_cli("bogus")
    assert bad.returncode == 2


# ---------------------------------------------------------------------------
# the exit-code contract over a grammar of argument vectors
# ---------------------------------------------------------------------------

NUMBER = st.integers(-3, 40) | st.just(HUGE)
# the K_k count enumerates class cliques of up to k classes, which for
# k >= 5 takes seconds on some admissible graphs (GF(2)^8, GF(3)^6)
COUNT_K = st.integers(-3, 4) | st.just(HUGE)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["build", "verify-spectrum", "count", "predict"]))
    flags = {}
    if command != "predict":
        flags["--family"] = draw(st.sampled_from(["projective", "affine"]))
    flags["--q"] = draw(NUMBER)
    flags["--d"] = draw(NUMBER)
    if command == "count":
        flags["--k"] = draw(COUNT_K)
    if command == "predict":
        flags["--k"] = draw(NUMBER)
        flags["--m"] = draw(NUMBER)
    # now and then a required flag is missing, which is a usage error
    dropped = draw(st.sampled_from([None, None, None, *flags]))
    argv = [command]
    for flag, value in flags.items():
        if flag != dropped:
            argv += [flag, str(value)]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=argvs())
def test_cli_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"ORTHOCOUNT_MAX_N": "400"}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("orthocount: error:"), (argv, lines)
