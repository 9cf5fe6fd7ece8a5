"""Command line behavior: parsing, formats, exit codes, checkpoints."""

import hashlib
import json
import subprocess
import sys

import pytest

from qpositivity.cli import main

STANTON = "1,3,1,1,1,1,1,1,2,1,1,1,1,1,1,1,1"


def run_cli(argv):
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def test_check_expand_text(capsys):
    assert run_cli(["check", "11", "3", "2", "--expand"]) == 0
    out = capsys.readouterr().out
    assert "polynomial; coefficients [1,0,0,1,0,0,1]" in out


def test_check_not_polynomial(capsys):
    assert run_cli(["check", "12", "2", "1"]) == 0
    assert "not a polynomial" in capsys.readouterr().out


def test_check_violation_exit_code(capsys):
    assert run_cli(["check", "--fake-gaussian", "1", STANTON]) == 3
    out = capsys.readouterr().out
    assert "VIOLATION" in out
    assert "-1 at q^7" in out


def test_check_normalization_echo(capsys):
    assert run_cli(["check", "11", "8", "2"]) == 0
    out = capsys.readouterr().out
    assert "normalized to (n=11, k=3, l=2)" in out


def test_check_properties(capsys):
    assert run_cli(["check", "11", "3", "2", "--properties"]) == 0
    out = capsys.readouterr().out
    assert "reciprocal=True" in out
    assert "degree=6" in out


def test_check_json_document(capsys):
    assert run_cli(["check", "11", "3", "2", "--format", "json", "--expand"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "qpositivity-report/1"
    assert doc["tool"] == "qpositivity"
    assert doc["command"][0] == "check"
    (result,) = doc["results"]
    assert result["verdict"] == "polynomial-nonnegative"
    assert result["expansion"] == [1, 0, 0, 1, 0, 0, 1]
    assert isinstance(result["elapsed_ms"], int)
    assert "elapsed" not in result


def test_check_usage_errors(capsys):
    assert run_cli(["check", "11", "3"]) == 2
    assert run_cli(["check", "11", "3", "x"]) == 2
    assert run_cli(["check", "--fake-gaussian", "2", "1,2,x"]) == 2
    assert run_cli(["check", "5", "6", "1"]) == 2
    capsys.readouterr()


def test_check_batch(tmp_path, capsys):
    batch = tmp_path / "specs.txt"
    batch.write_text(
        "# mixed batch\n"
        "11 3 2\n"
        "\n"
        "12 2 1\n"
        "2 0,1,0\n"
    )
    assert run_cli(["check", "--batch", str(batch)]) == 0
    out = capsys.readouterr().out
    assert out.count("spec ") == 3

    batch.write_text("11 3 2\n1 " + STANTON + "\n")
    assert run_cli(["check", "--batch", str(batch)]) == 3
    capsys.readouterr()


def test_check_batch_bad_line(tmp_path, capsys):
    batch = tmp_path / "specs.txt"
    batch.write_text("11 3 2 9\n")
    assert run_cli(["check", "--batch", str(batch)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_check_batch_and_inline_conflict(capsys):
    assert run_cli(["check", "11", "3", "2", "--batch", "x.txt"]) == 2
    capsys.readouterr()


def test_sweep_conjecture1_json(capsys):
    assert run_cli(["sweep", "conjecture1", "--n-max", "20", "--jobs", "1",
                    "--format", "json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    begin = json.loads(lines[0])
    summary = json.loads(lines[-1])
    assert begin["event"] == "begin"
    assert begin["schema"] == "qpositivity-report/1"
    assert begin["params"] == {"n_max": 20}
    assert summary["event"] == "summary"
    assert summary["counts"]["violations"] == 0
    assert summary["cursor"] == 20
    assert isinstance(summary["wall_time_ms"], int)
    assert len(lines) == 2  # no violation records


def test_sweep_fake_gaussian_json(capsys):
    assert run_cli(["sweep", "fake-gaussian", "--template", "aa", "--seed", "5",
                    "--samples", "120", "--m-span", "30", "--jobs", "1",
                    "--format", "json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    begin = json.loads(lines[0])
    assert begin["seed"] == 5
    assert begin["params"]["template"] == "aa"
    summary = json.loads(lines[-1])
    assert summary["counts"]["examined"] == 120


def test_sweep_missing_required_options(capsys):
    assert run_cli(["sweep", "conjecture1"]) == 2
    assert run_cli(["sweep", "fake-gaussian", "--template", "aa"]) == 2
    capsys.readouterr()


def test_sweep_long_run_guard(capsys):
    assert run_cli(["sweep", "conjecture1", "--n-max", "151"]) == 2
    err = capsys.readouterr().err
    assert "--long-run" in err
    # the flag itself parses; a small bound stays fast
    assert run_cli(["sweep", "conjecture1", "--n-max", "10", "--long-run"]) == 0
    capsys.readouterr()


def test_sweep_checkpoint_resume_cycle(tmp_path, capsys):
    ckpt = str(tmp_path / "c1.ckpt")
    args = ["sweep", "conjecture1", "--n-max", "16", "--jobs", "1", "--format", "json"]
    assert run_cli(args + ["--checkpoint", ckpt, "--stop-after", "3"]) == 0
    capsys.readouterr()
    assert run_cli(args + ["--checkpoint", ckpt, "--resume"]) == 0
    resumed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert run_cli(args) == 0
    plain = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    resumed.pop("wall_time_ms")
    plain.pop("wall_time_ms")
    assert resumed == plain


def test_sweep_checkpoint_mismatch_refused(tmp_path, capsys):
    ckpt = str(tmp_path / "c1.ckpt")
    assert run_cli(["sweep", "conjecture1", "--n-max", "16",
                    "--checkpoint", ckpt, "--stop-after", "2"]) == 0
    capsys.readouterr()
    assert run_cli(["sweep", "conjecture1", "--n-max", "18",
                    "--checkpoint", ckpt, "--resume"]) == 2
    assert "refusing to resume" in capsys.readouterr().err


def test_checkpoint_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QPOSITIVITY_CHECKPOINT_DIR", str(tmp_path))
    assert run_cli(["sweep", "conjecture1", "--n-max", "10",
                    "--checkpoint", "rel.ckpt"]) == 0
    capsys.readouterr()
    assert (tmp_path / "rel.ckpt").exists()


def test_reproduce_remark25(capsys):
    assert run_cli(["reproduce", "remark25"]) == 0
    out = capsys.readouterr().out
    assert out.count("match") == 4
    assert "reproduction ok" in out


def test_reproduce_stanton(capsys):
    assert run_cli(["reproduce", "stanton", "--m-max", "3"]) == 0
    out = capsys.readouterr().out
    assert "m=1: VIOLATION, first negative -1 at q^7" in out
    assert "m=3: polynomial-nonnegative" in out


def test_reproduce_lemma6(capsys):
    assert run_cli(["reproduce", "lemma6", "--k-max", "3", "--m-max", "1"]) == 0
    out = capsys.readouterr().out
    assert "K=2 M=0 degree=42 order_bound=32 A=ok B=-" in out
    assert "K=3 M=0 degree=132 order_bound=94 A=ok B=ok" in out


#: sha256 of the stdout of `reproduce lemma6 --k-max 4 --m-max 2`, taken while
#: the grid check still lived in the command line front end.
LEMMA6_STDOUT_SHA256 = {
    "json": "aec8eab279df013e2018a4045f1e43b3cbb58eb9643222b7feffd5a60299f0d3",
    "text": "3dd8c67e04f19e64457faa4d8becf5631fd20949e1ea4bbbd072b4a01655bca5",
}


@pytest.mark.parametrize("fmt", sorted(LEMMA6_STDOUT_SHA256))
def test_reproduce_lemma6_output_pinned(fmt, capsys):
    argv = ["reproduce", "lemma6", "--k-max", "4", "--m-max", "2", "--format", fmt]
    assert run_cli(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LEMMA6_STDOUT_SHA256[fmt]


def test_reproduce_corollary10(capsys):
    assert run_cli(["reproduce", "corollary10", "--n-max", "5"]) == 0
    assert "reproduction ok" in capsys.readouterr().out


def test_reproduce_crosscheck(capsys):
    assert run_cli(["reproduce", "crosscheck", "--n-max", "20"]) == 0
    assert "reproduction ok" in capsys.readouterr().out


def test_reproduce_json(capsys):
    assert run_cli(["reproduce", "stanton", "--m-max", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "stanton"
    assert doc["ok"] is True
    assert doc["rows"][0]["first_negative"] == [7, -1]


def test_version_flag(capsys):
    assert run_cli(["--version"]) == 0
    assert "qpositivity" in capsys.readouterr().out


def test_unknown_subcommand(capsys):
    assert run_cli(["frobnicate"]) == 2
    capsys.readouterr()


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qpositivity.cli", "check", "11", "3", "2", "--expand"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "polynomial; coefficients [1,0,0,1,0,0,1]" in proc.stdout


#: Inputs that once ended in a traceback and exit 1, or in exit 0 after
#: quietly doing nothing or something else, instead of a usage error.
BAD_ARGV = [
    ["check", "--fake-gaussian", "0", "1,2"],
    ["check", "--fake-gaussian", "1", "1,-2"],
    ["sweep", "conjecture1", "--n-max", "1"],
    ["sweep", "fake-gaussian", "--samples", "-1"],
    ["sweep", "fake-gaussian", "--samples", "5", "--value-max", "-1"],
    ["sweep", "fake-gaussian", "--samples", "5", "--m-span", "-500"],
    ["sweep", "fake-gaussian", "--samples", "5", "--m-span", "0"],
    ["reproduce", "crosscheck", "--n-max", "3"],
    ["reproduce", "corollary10", "--n-max", "0"],
    ["reproduce", "stanton", "--m-max", "0"],
    ["sweep", "conjecture1", "--n-max", "5", "--resume"],
    ["reproduce", "lemma6", "--m-max", "-1"],
    ["reproduce", "lemma6", "--k-max", "1"],
    ["sweep", "conjecture1", "--n-max", "5", "--jobs", "0"],
    ["sweep", "conjecture1", "--n-max", "5", "--jobs", "-3"],
    ["sweep", "conjecture1", "--n-max", "5", "--stop-after", "-1"],
]


@pytest.mark.parametrize("argv", BAD_ARGV, ids=" ".join)
def test_bad_argv_is_a_usage_error(argv, capsys):
    # run in-process: an uncaught exception would fail the test outright
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_batch_bad_fake_gaussian_is_a_usage_error(tmp_path, capsys):
    batch = tmp_path / "specs.txt"
    batch.write_text("11 3 2\n0 1,2\n")
    assert run_cli(["check", "--batch", str(batch)]) == 2
    assert "m must be a positive integer" in capsys.readouterr().err


def test_sweep_incomplete_checkpoint_refused(tmp_path, capsys):
    ckpt = tmp_path / "c1.ckpt"
    args = ["sweep", "conjecture1", "--n-max", "16", "--jobs", "1", "--checkpoint", str(ckpt)]
    assert run_cli(args + ["--stop-after", "2"]) == 0
    payload = json.loads(ckpt.read_text())
    del payload["violations"]
    ckpt.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli(args + ["--resume"]) == 2
    assert "refusing to resume" in capsys.readouterr().err
