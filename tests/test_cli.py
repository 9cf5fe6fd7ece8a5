"""Command line behavior: parsing, formats, exit codes, checkpoints."""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import operator
import os
import pathlib
import re
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpositivity.harness
from qpositivity import cli
from qpositivity.cli import build_parser, main
from qpositivity.harness import canonical_json
from qpositivity.qpoly import IntPolynomial, NotDivisible
from test_harness import (
    _GENUINE_CHECKPOINTS,
    _STANTON_VIOLATION,
    _VIOLATING,
    _VIOLATION,
    _corollary10_wrong_companion,
)

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


#: a CheckResult's canonical keys, then the CLI's own timing
_RESULT_KEYS = ["spec", "normalized_spec", "is_polynomial", "verdict", "properties", "note",
                "expansion", "elapsed_ms"]


def test_check_batch_json_times_each_spec(tmp_path, capsys):
    batch = tmp_path / "specs.txt"
    batch.write_text("11 3 2\n12 2 1\n1 " + STANTON + "\n")
    assert run_cli(["check", "--batch", str(batch), "--format", "json"]) == 3
    results = json.loads(capsys.readouterr().out)["results"]
    assert [r["verdict"] for r in results] == [
        "polynomial-nonnegative", "not-polynomial", "VIOLATION"
    ]
    for result in results:
        assert list(result) == _RESULT_KEYS
        assert type(result["elapsed_ms"]) is int and result["elapsed_ms"] >= 0


@pytest.mark.parametrize("sweep", _VIOLATING)
def test_sweep_json_violations_carry_zero_elapsed_ms(monkeypatch, capsys, sweep):
    setup, argv, _, _ = _GENUINE_CHECKPOINTS[sweep]
    setup(monkeypatch)
    assert run_cli([*argv, "--format", "json"]) == 3
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    violations = [line["result"] for line in lines if line["event"] == "violation"]
    assert violations
    for violation in violations:
        assert list(violation) == _RESULT_KEYS
        assert type(violation["elapsed_ms"]) is int and violation["elapsed_ms"] == 0


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


@pytest.mark.parametrize(
    "expansion", [NotDivisible, IntPolynomial([1, -1, 1]), IntPolynomial([1, 2])],
    ids=["refused", "negative", "not-a-palindrome"],
)
def test_reproduce_lemma6_fails_each_bad_expansion(expansion, monkeypatch, capsys):
    # variant B has no degree check: its cells fail on the expansion alone
    monkeypatch.setattr(qpositivity.harness, "expand", lambda expr: expansion)
    argv = ["reproduce", "lemma6", "--k-max", "3", "--m-max", "1", "--format", "json"]
    assert run_cli(argv) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert [(r["A"], r["B"]) for r in doc["rows"]] == [(False, None)] * 2 + [(False, False)] * 2


#: Bounds of the pinned table reproductions.
PINNED_REPRODUCE_ARGS = {
    "lemma6": ["--k-max", "4", "--m-max", "2"],
    "remark25": [],
    "stanton": ["--m-max", "12"],
}

#: sha256 of the stdout of `reproduce NAME ... --format FMT`, taken while each
#: table check still lived in the command line front end.
REPRODUCE_STDOUT_SHA256 = {
    ("lemma6", "json"): "aec8eab279df013e2018a4045f1e43b3cbb58eb9643222b7feffd5a60299f0d3",
    ("lemma6", "text"): "3dd8c67e04f19e64457faa4d8becf5631fd20949e1ea4bbbd072b4a01655bca5",
    ("remark25", "json"): "1130d61ba82ede78bb48c8943c1e929f4b8d9ae3899984bce6b6ed246ccc8da4",
    ("remark25", "text"): "a582f8e3d5f6cb42322a920aa0ade7d5e5883fcc8d358ff9a5d256ef8c7bf606",
    ("stanton", "json"): "6936a54bdf5803d7e433ba12a465c1d209b9f9b2456319121ae1cdf7a37c501f",
    ("stanton", "text"): "c0a3cedbc472dec3fe3c942dca936536bf08e57991e28bca9befe60039ba4d86",
}


@pytest.mark.parametrize("name, fmt", sorted(REPRODUCE_STDOUT_SHA256))
def test_reproduce_output_pinned(name, fmt, capsys):
    argv = ["reproduce", name, *PINNED_REPRODUCE_ARGS[name], "--format", fmt]
    assert run_cli(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REPRODUCE_STDOUT_SHA256[name, fmt]


def test_reproduce_corollary10(capsys):
    assert run_cli(["reproduce", "corollary10", "--n-max", "5"]) == 0
    assert "reproduction ok" in capsys.readouterr().out


def test_reproduce_corollary10_exits_3_on_a_route_mismatch(monkeypatch, capsys):
    _corollary10_wrong_companion(monkeypatch)
    assert run_cli(["reproduce", "corollary10", "--n-max", "5"]) == 3
    out = capsys.readouterr().out
    assert out.count("route comparison mismatch") == 5
    assert out.endswith("reproduction FAILED\n")


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
    ["sweep", "fake-gaussian", "--samples", "0"],
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
    ["sweep", "conjecture1", "--n-max", "5", "--checkpoint", ""],
]


@pytest.mark.parametrize("argv", BAD_ARGV, ids=" ".join)
def test_bad_argv_is_a_usage_error(argv, capsys):
    # run in-process: an uncaught exception would fail the test outright
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("path", ["", "dir"], ids=["empty", "directory"])
def test_checkpoint_path_naming_no_file_is_refused_before_anything_runs(
    tmp_path, monkeypatch, capsys, path
):
    # under the checkpoint directory, "" names the directory itself; a
    # refusal after a unit had run would leave the file's .tmp behind
    monkeypatch.setenv(cli.CHECKPOINT_DIR_ENV, str(tmp_path))
    (tmp_path / "dir").mkdir()
    assert run_cli(["sweep", "conjecture1", "--n-max", "6", "--checkpoint", path]) == 2
    assert "names no file" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["dir"]


def test_batch_bad_fake_gaussian_is_a_usage_error(tmp_path, capsys):
    batch = tmp_path / "specs.txt"
    batch.write_text("11 3 2\n0 1,2\n")
    assert run_cli(["check", "--batch", str(batch)]) == 2
    assert "m must be a positive integer" in capsys.readouterr().err


def test_batch_not_utf8_is_a_usage_error(tmp_path, capsys):
    batch = tmp_path / "specs.txt"
    batch.write_bytes(b"\xff\xfe 1 2\n")
    assert run_cli(["check", "--batch", str(batch)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read batch file")
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("content", ["", "# only a comment\n", "\n  \n# a\n"],
                         ids=["empty", "comment", "blanks-and-comment"])
def test_batch_without_a_spec_is_a_usage_error(tmp_path, capsys, content, fmt):
    batch = tmp_path / "specs.txt"
    batch.write_text(content)
    assert run_cli(["check", "--batch", str(batch), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: batch file")
    assert "holds no spec" in captured.err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_reports_a_route_disagreement(fmt, monkeypatch, capsys):
    # an expander that refuses what the divisor profile calls a polynomial
    monkeypatch.setattr(qpositivity.harness, "expand", lambda expr: NotDivisible)
    assert run_cli(["check", "11", "3", "2", "--format", fmt]) == 3
    out = capsys.readouterr().out
    assert "divisor profile says polynomial, expansion refused" in out


@pytest.mark.parametrize(
    "cursor, field, value",
    [(4, None, None), (6, "verdict", "OK"), (6, "is_polynomial", "yes"),
     (6, "note", {"x": [1]})],
    ids=["violation-past-the-cursor", "verdict-ok", "is-polynomial-str", "note-dict"],
)
def test_sweep_checkpoint_bad_violation_refused(tmp_path, capsys, cursor, field, value):
    violation = {
        "spec": {"type": "quotient", "n": 6, "k": 3, "l": 1},
        "normalized_spec": {"type": "quotient", "n": 6, "k": 3, "l": 1},
        "is_polynomial": True, "verdict": "VIOLATION", "properties": None,
        "note": None, "expansion": None,
    }
    if field:
        violation[field] = value
    ckpt = tmp_path / "c1.ckpt"
    ckpt.write_text(json.dumps({
        "format": qpositivity.harness.CHECKPOINT_FORMAT, "sweep": "conjecture1",
        "params": {"n_max": 8}, "cursor": cursor,
        "counts": {"examined": 3, "polynomial": 1, "violations": 1},
        "violations": [[6, violation]],
    }))
    argv = ["sweep", "conjecture1", "--n-max", "8", "--checkpoint", str(ckpt), "--resume"]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("refusing to resume")
    assert "Traceback" not in captured.err


class _Patches(contextlib.ExitStack):
    """monkeypatch's setattr by mock.patch.object, undone on exit, for the
    test_harness patches inside a Hypothesis test."""

    def setattr(self, target, name, value):
        self.enter_context(mock.patch.object(target, name, value))


def _run_quiet(argv):
    """(exit code, stdout, stderr) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _sweep(name, text, *argv):
    """(exit code, stdout, stderr, checkpoint text or None) of the sweep of
    genuine checkpoint name, run under its patch with argv and a checkpoint
    file that holds text beforehand, or does not exist if text is None.
    The file is named ckpt in a fresh checkpoint directory, so stdout does
    not depend on where it is."""
    setup, sweep_argv, _, _ = _GENUINE_CHECKPOINTS[name]
    with _Patches() as patches, tempfile.TemporaryDirectory() as tmp:
        if setup:
            setup(patches)
        patches.enter_context(mock.patch.dict(os.environ, {cli.CHECKPOINT_DIR_ENV: tmp}))
        path = pathlib.Path(tmp, "ckpt")
        if text is not None:
            path.write_text(text, encoding="utf-8")
        outcome = _run_quiet([*sweep_argv, *argv, "--checkpoint", "ckpt"])
        return (*outcome, path.read_text(encoding="utf-8") if path.exists() else None)


@functools.lru_cache(maxsize=None)
def _genuine_text(name):
    """The file text of genuine checkpoint name, written once."""
    _, _, stop_after, _ = _GENUINE_CHECKPOINTS[name]
    return _sweep(name, None, "--stop-after", str(stop_after))[3]


def _refusal(name, text):
    """stderr of resuming the sweep of genuine checkpoint name from text,
    which must refuse it: exit 2 and nothing on stdout."""
    code, out, err, _ = _sweep(name, text, "--resume")
    assert code == 2 and out == "", (code, text[:200])
    assert err.startswith("refusing to resume"), err
    return err


#: any JSON value; floats include NaN and the infinities, which json reads back
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

#: stands in for a deep nesting until json.dumps has written the rest
_NEST = "\0nest\0"


def _paths(node, path=()):
    """The path of node and of each value inside it."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, (*path, key))


def _at(node, path):
    return functools.reduce(operator.getitem, path, node)


def _edited(payload, data):
    """payload after one drawn edit, as file text, and whether it is still
    payload as canonical JSON."""
    root = [json.loads(json.dumps(payload))]
    edit = data.draw(st.sampled_from(["value", "delete", "add", "wrap", "nest"]))
    paths = [(0, *path) for path in _paths(payload)]
    if edit == "delete":
        paths = paths[1:]
    elif edit == "add":
        paths = [path for path in paths if isinstance(_at(root, path), dict)]
    *up, key = data.draw(st.sampled_from(paths))
    parent = _at(root, up)
    if edit == "value":
        parent[key] = data.draw(_JSON_VALUES)
    elif edit == "delete":
        del parent[key]
    elif edit == "add":
        parent[key][data.draw(st.text(max_size=4))] = data.draw(_JSON_VALUES)
    elif edit == "wrap":
        parent[key] = [parent[key]]
    else:
        # spliced into the text: json.dumps refuses a nesting past the
        # recursion limit
        depth = data.draw(st.integers(2, 3000))
        nested = "[" * depth + json.dumps(parent[key]) + "]" * depth
        parent[key] = _NEST
        return json.dumps(root[0]).replace(json.dumps(_NEST), nested), False
    text = json.dumps(root[0])
    return text, canonical_json(root[0]) == canonical_json(payload)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_any_edited_checkpoint_is_refused(data):
    name = data.draw(st.sampled_from(list(_GENUINE_CHECKPOINTS)))
    text, unchanged = _edited(json.loads(_genuine_text(name)), data)
    if unchanged:
        code, _, err, _ = _sweep(name, text, "--resume")
        assert code in (0, 3) and err == ""
    else:
        _refusal(name, text)


def _edit(change):
    """The edit that applies change to the payload in place, as file text."""
    def edit(payload):
        change(payload)
        return json.dumps(payload)
    return edit


def _counts_moved(**deltas):
    return _edit(lambda p: p["counts"].update({f: p["counts"][f] + d for f, d in deltas.items()}))


def _fabricated(violation, at_cursor_0=False):
    """The edit that adds violation, and its count; at_cursor_0 also moves
    the file to cursor 0, with the counts of no passed unit."""
    def change(payload):
        if at_cursor_0:
            payload.update(cursor=0, counts=dict.fromkeys(payload["counts"], 0))
        payload["violations"].append(violation)
        payload["counts"]["violations"] += 1
    return _edit(change)


def _cursor_dropped(index, count=-1):
    """The edit that deletes the stored cursor at index, and moves the
    violation count by count."""
    def change(payload):
        del payload["violations"][index]
        payload["counts"]["violations"] += count
    return _edit(change)


#: (genuine checkpoint, edit from its payload to the file text, the fragment
#: of the refusal that names the branch of harness._resume_state refusing it)
_PINNED_EDITS = [
    pytest.param("conjecture1-clean", lambda p: "[" * 200000 + "]" * 200000, "is unreadable",
                 id="nested-200000-deep"),
    pytest.param("conjecture1-clean", lambda p: "not json at all{", "is unreadable",
                 id="not-json"),
    pytest.param("conjecture1-clean", _edit(lambda p: p.update(format="qpositivity-checkpoint/1")),
                 "differs in format", id="format-1"),
    pytest.param("conjecture1-clean", lambda p: json.dumps({"format": "qpositivity-checkpoint/0"}),
                 "differs in format", id="format-0"),
    # format 2 stored each violation as a record; this build writes format 3
    pytest.param("conjecture1-clean", _edit(lambda p: p.update(format="qpositivity-checkpoint/2")),
                 "differs in format", id="format-2"),
    pytest.param("conjecture1-clean", _edit(lambda p: p["params"].update(n_max=41)),
                 "differs in params", id="n-max-41"),
    pytest.param("conjecture1-clean", _edit(lambda p: p.update(cursor=11.0)),
                 "has a cursor that ends no unit", id="cursor-11.0"),
    pytest.param("fake-gaussian-complete", _edit(lambda p: p.update(cursor=31)),
                 "has a cursor that ends no unit", id="cursor-31"),
    pytest.param("conjecture1-clean", _edit(lambda p: p.pop("cursor")),
                 "has a cursor that ends no unit", id="cursor-deleted"),
    pytest.param("conjecture1-clean", _counts_moved(examined=1), "holds counts that",
                 id="examined-up"),
    pytest.param("fake-gaussian", _counts_moved(examined=-3, polynomial=7), "does not derive",
                 id="examined-down-polynomial-up"),
    pytest.param("conjecture1-clean", _counts_moved(polynomial=-1), "holds counts that",
                 id="polynomial-down"),
    pytest.param("conjecture1-clean", _counts_moved(polynomial=1), "holds counts that",
                 id="polynomial-up"),
    # n = 2 and 3 hold no triple, so nothing is examined at cursor 3
    pytest.param("conjecture1-clean",
                 _edit(lambda p: p.update(cursor=3, counts={**dict.fromkeys(p["counts"], 0),
                                                            "examined": 1})),
                 "holds counts that", id="examined-0-to-1-at-cursor-3"),
    # a count with no record to match, and counts in another form or gone
    pytest.param("conjecture1-clean", _counts_moved(violations=1), "does not derive",
                 id="violations-count-up"),
    pytest.param("conjecture1-clean", _edit(lambda p: p["counts"].update(violations=False)),
                 "does not derive", id="zero-violations-false"),
    pytest.param("fake-gaussian-complete",
                 _edit(lambda p: p["counts"].update(examined=float(p["counts"]["examined"]))),
                 "does not derive", id="examined-float"),
    pytest.param("fake-gaussian-complete", _edit(lambda p: p["counts"].update(elapsed=0)),
                 "does not derive", id="counts-extra-key"),
    pytest.param("conjecture1-clean", _edit(lambda p: p.pop("counts")), "does not derive",
                 id="counts-deleted"),
    pytest.param("conjecture1-clean", _edit(lambda p: p.update(wall_time=None)),
                 "holds wall_time that", id="wall-time-null"),
    pytest.param("fake-gaussian", _edit(lambda p: p.pop("violations")), "does not report",
                 id="violations-deleted"),
    # a violation of a unit that records none, such as (6, 3, 1), which is
    # not a polynomial, or of a unit past the cursor
    pytest.param("conjecture1-clean", _fabricated(6), "does not report", id="fabricated-6-3-1"),
    pytest.param("conjecture1-clean", _fabricated(12), "does not report",
                 id="violation-past-the-cursor"),
    pytest.param("fake-gaussian-complete", _fabricated(30), "does not report",
                 id="cursor-30-added"),
    # one of a unit's two cursors dropped, or one more: the list differs;
    # all of a unit's cursors dropped: the count differs
    pytest.param("fake-gaussian", _cursor_dropped(0), "does not report",
                 id="one-of-two-equal-cursors-dropped"),
    pytest.param("fake-gaussian", _fabricated(10), "does not report", id="cursor-10-repeated"),
    pytest.param("fake-gaussian", _cursor_dropped(slice(2, None), count=0), "does not derive",
                 id="unit-10-cursors-dropped"),
    pytest.param("fake-gaussian", _edit(lambda p: p["violations"].__setitem__(0, 5.0)),
                 "does not report", id="cursor-5.0"),
    # cursors of units the cursor has not passed, with the counts of no
    # passed unit but theirs
    pytest.param("conjecture1",
                 _edit(lambda p: p.update(cursor=0, counts={**dict.fromkeys(p["counts"], 0),
                                                            "violations": 10})),
                 "does not report", id="cursors-at-cursor-0"),
    # format 2's records, which no run of these sweeps reports: the aa
    # template never draws Stanton's m=1 spec
    *(pytest.param("fake-gaussian-complete",
                   _fabricated([30, {**_STANTON_VIOLATION, "note": note}], at_0),
                   "does not report", id=f"stanton-note-{label}-at-cursor-{0 if at_0 else 30}")
      for note, label in [(None, "null"), ("sample 3", "sample-3")] for at_0 in (False, True)),
    *(pytest.param("fake-gaussian-complete",
                   _fabricated([30, {**_STANTON_VIOLATION, field: _VIOLATION["spec"]}]),
                   "does not report", id=f"stanton-quotient-{field}")
      for field in ("spec", "normalized_spec")),
]


@pytest.mark.parametrize("name, edit, fragment", _PINNED_EDITS)
def test_pinned_checkpoint_edit_is_refused(name, edit, fragment):
    assert fragment in _refusal(name, edit(json.loads(_genuine_text(name))))


def test_checkpoint_nested_to_the_recursion_limit_is_refused():
    # json.load parses a nesting a level or so deeper than canonical_json
    # can write back from further down the stack: every depth up to the
    # limit must be refused, none may end in a RecursionError
    payload = json.loads(_genuine_text("conjecture1"))
    cursor = payload["violations"][0]
    payload["violations"][0] = _NEST
    for depth in range(sys.getrecursionlimit() - 200, sys.getrecursionlimit()):
        nested = "[" * depth + json.dumps(cursor) + "]" * depth
        _refusal("conjecture1", json.dumps(payload).replace(json.dumps(_NEST), nested))


def _timeless(code, out, err, written):
    return code, _TIMINGS.sub(r"\1T", out), err, written


@pytest.mark.parametrize("name", list(_GENUINE_CHECKPOINTS))
def test_resume_from_a_missing_checkpoint_runs_as_a_plain_sweep(name):
    # README: a missing file starts fresh, so the run prints, exits and
    # writes as one without --resume does, wall time aside
    assert _timeless(*_sweep(name, None, "--resume")) == _timeless(*_sweep(name, None))


def _keys_reversed(node):
    if isinstance(node, dict):
        return {key: _keys_reversed(node[key]) for key in reversed(node)}
    if isinstance(node, list):
        return [_keys_reversed(value) for value in node]
    return node


@pytest.mark.parametrize("name", list(_GENUINE_CHECKPOINTS))
def test_checkpoint_with_its_keys_reordered_resumes_as_written(name):
    # canonical JSON sorts keys, so the resume is accepted; it reports the
    # counts it derives, not the file's order of them
    text = _genuine_text(name)
    reordered = json.dumps(_keys_reversed(json.loads(text)))
    argv = ["--resume", "--format", "json"]
    resumed, as_written = _sweep(name, reordered, *argv), _sweep(name, text, *argv)
    assert _timeless(*resumed)[:3] == _timeless(*as_written)[:3]


@pytest.mark.parametrize("sweep, stop_after, units", [
    (sweep, _GENUINE_CHECKPOINTS[sweep][2], units)
    for sweep, units in [("conjecture1", {34}), ("fake-gaussian", {5}), ("fake-gaussian", {10}),
                         ("fake-gaussian", {5, 10})]
])
def test_checkpoint_without_a_units_violations_and_their_count_resumes(
    tmp_path, monkeypatch, sweep, stop_after, units
):
    # README: a passed unit that the file names no cursor for is trusted as
    # clean, so its cursors deleted with their count go unnoticed
    setup, argv, _, _ = _GENUINE_CHECKPOINTS[sweep]
    setup(monkeypatch)
    argv = [*argv, "--format", "json"]
    plain = json.loads(_run_quiet(argv)[1].splitlines()[-1])["counts"]
    ckpt = tmp_path / "ckpt"
    argv += ["--checkpoint", str(ckpt)]
    assert _run_quiet([*argv, "--stop-after", str(stop_after)])[0] == 3
    payload = json.loads(ckpt.read_text())
    kept = [cursor for cursor in payload["violations"] if cursor not in units]
    deleted = len(payload["violations"]) - len(kept)
    payload["violations"] = kept
    payload["counts"]["violations"] -= deleted
    ckpt.write_text(json.dumps(payload))
    code, out, err = _run_quiet([*argv, "--resume"])
    counts = json.loads(out.splitlines()[-1])["counts"]
    assert err == "" and deleted
    assert counts == {**plain, "violations": plain["violations"] - deleted}
    assert code == (3 if counts["violations"] else 0)


def test_sweep_jobs_default_to_the_cpus_the_process_may_run_on(monkeypatch):
    def default_jobs():
        return build_parser().parse_args(["sweep", "conjecture1"]).jobs

    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert default_jobs() == 1
    # a platform without affinity masks counts every CPU
    monkeypatch.delattr(os, "sched_getaffinity")
    assert default_jobs() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert default_jobs() == 1


def test_importing_the_cli_leaves_multiprocessing_unimported():
    # only a pooled sweep imports it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qpositivity.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_importing_the_package_loads_none_of_its_modules():
    # the modules are the API; the package root holds only its version
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qpositivity; print(qpositivity.__version__, "
         "[m for m in sys.modules if m.startswith('qpositivity.')])"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0.1.0 []\n"


# ---------------------------------------------------------------------------
# main parses a command-first argv with that subcommand's parser alone: every
# argv must end as it does with the full parser, in exit code, stdout and
# stderr.


#: The timings in check and sweep output, which differ from run to run.
_TIMINGS = re.compile(r'("elapsed_ms": |"wall_time_ms": |wall time )[0-9.]+')


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, _TIMINGS.sub(r"\1T", out.getvalue()), err.getvalue()


def _full_parse(argv):
    return cli.build_parser().parse_args(argv)


def _assert_parity(argv):
    # a fixed width keeps help and usage text independent of the terminal
    with mock.patch.dict(os.environ, {"COLUMNS": "100"}):
        shipped = _outcome(argv)
        with mock.patch.object(cli, "_parse_args", _full_parse):
            full = _outcome(argv)
    assert shipped == full, argv


PARITY_ARGV = [
    [],
    ["-h"],
    ["--help"],
    ["--version"],
    ["bogus"],
    ["che", "11", "3", "2"],
    ["-1", "check"],
    ["--", "check", "11", "3", "2"],
    ["--format", "json", "check", "11", "3", "2"],
    ["check", "11", "3", "2", "--jobs", "2"],
    ["check", "--help"],
    ["sweep", "--help"],
    ["reproduce", "--help"],
    ["check", "11", "3", "2", "--expand"],
    ["sweep", "conjecture1", "--n-max", "6", "--jobs", "1"],
    ["reproduce", "remark25"],
    # the subcommand's parser leaves a token, or refuses one itself
    ["check", "11", "3", "2", "--bogus"],
    ["check", "11", "3", "2", "--version"],
    ["sweep", "conjecture1", "--n-max", "6", "--jobs", "1", "stray"],
    ["reproduce", "remark25", "--format", "xml"],
    ["check", "--format", "json", "11", "3", "2", "-h"],
]


@pytest.mark.parametrize("argv", PARITY_ARGV, ids=" ".join)
def test_main_answers_as_the_full_parser_does(argv):
    _assert_parity(argv)


# no --checkpoint writes a file and no --n-max gives a sweep more than the one
# unit that runs in-process (fake-gaussian takes 200 samples to a unit);
# lemma6 and corollary10 are left out as slow at these values
_PARITY_TOKENS = st.sampled_from([
    "check", "sweep", "reproduce",
    "11", "3", "2", "-1", "x", "json",
    "conjecture1", "fake-gaussian", "remark25", "stanton", "crosscheck",
    "--", "-h", "--version",
    "--fake-gaussian", "--expand", "--properties", "--batch", "--format",
    "--template", "--seed", "--samples", "--value-max", "--m-span", "--jobs", "--resume",
    "--stop-after", "--long-run", "--m-max", "--k-max",
])


@settings(max_examples=150, deadline=None)
@given(argv=st.lists(_PARITY_TOKENS, max_size=6))
def test_main_answers_any_argv_as_the_full_parser_does(argv):
    _assert_parity(argv)


def _commands_refusing(*add_arguments):
    """cli._COMMANDS with each of add_arguments replaced by one that raises."""
    def refuse(parser):
        raise AssertionError(f"built the arguments of {parser.prog}")

    return {
        name: (help_text, refuse if add in add_arguments else add, handler)
        for name, (help_text, add, handler) in cli._COMMANDS.items()
    }


def test_main_builds_the_invoked_subcommands_arguments_only(monkeypatch, capsys):
    check_only = _commands_refusing(cli._sweep_arguments, cli._reproduce_arguments)
    sweep_only = _commands_refusing(cli._check_arguments, cli._reproduce_arguments)
    monkeypatch.setattr(cli, "_COMMANDS", check_only)
    assert run_cli(["check", "11", "3", "2", "--expand"]) == 0
    assert "polynomial; coefficients [1,0,0,1,0,0,1]" in capsys.readouterr().out
    monkeypatch.setattr(cli, "_COMMANDS", sweep_only)
    assert run_cli(["sweep", "conjecture1", "--n-max", "6", "--jobs", "1"]) == 0
    assert "examined 5, polynomial 1, violations 0" in capsys.readouterr().out


# the full tree: the top-level parser and one per subcommand
_FULL_TREE = 1 + len(cli._COMMANDS)


@pytest.mark.parametrize("argv, parsers", [
    (["check", "11", "3", "2", "--expand"], 1),
    (["--version"], _FULL_TREE),
    ([], _FULL_TREE),
    # the check parser leaves --bogus, so the full tree parses again
    (["check", "11", "3", "2", "--bogus"], 1 + _FULL_TREE),
], ids=["check", "version", "empty", "leftover"])
def test_main_builds_one_parser_for_a_command_first_argv(monkeypatch, argv, parsers):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        run_cli(argv)
    assert len(built) == parsers, built


# ---------------------------------------------------------------------------
# argv fuzzing: small bounds keep every example well under a second, --jobs 1
# keeps every sweep in-process and no --checkpoint means nothing is written.


def _with_options(head, options):
    """head, then each of options drawn present or absent; an option maps to
    the strategy of its value, or to None for a bare switch."""
    drawn = [
        st.none() | (st.just([flag]) if values is None
                     else values.map(lambda v, flag=flag: [flag, str(v)]))
        for flag, values in options.items()
    ]
    return st.tuples(head, *drawn).map(
        lambda t: t[0] + [token for part in t[1:] if part for token in part]
    )


_INT = st.integers(-5, 40)
_FORMAT = st.sampled_from(["text", "json"])

_CHECK_ARGV = _with_options(
    st.lists(_INT.map(str), min_size=3, max_size=3)
    | st.lists(_INT.map(str) | st.just("x"), max_size=4)
    | st.tuples(_INT, st.lists(st.integers(-2, 4), min_size=1, max_size=5)).map(
        lambda t: ["--fake-gaussian", str(t[0]), ",".join(map(str, t[1]))]
    ),
    {"--expand": None, "--properties": None, "--format": _FORMAT},
).map(lambda argv: ["check", *argv])

# lemma6 and corollary10 grow fast with their bounds: 8 keeps them under 0.3 s
_REPRODUCE_ARGV = _with_options(
    st.tuples(
        st.sampled_from(["remark25", "stanton", "corollary10", "lemma6", "crosscheck", "x"]),
        st.integers(-5, 8),
    ).map(lambda t: ["reproduce", t[0], "--n-max", str(t[1])]),
    {"--m-max": st.integers(-5, 8), "--k-max": st.integers(-5, 8), "--format": _FORMAT},
)

_SWEEP_ARGV = _with_options(
    st.sampled_from(["conjecture1", "fake-gaussian"]).map(
        lambda family: ["sweep", family, "--jobs", "1"]
    ),
    {
        "--n-max": st.integers(-5, 30),
        "--template": st.sampled_from(["a", "aa", "aba", "abcba"]),
        "--seed": _INT,
        "--samples": st.integers(-5, 20),
        "--value-max": _INT,
        "--m-span": _INT,
        "--stop-after": _INT,
        "--long-run": None,
        "--format": _FORMAT,
    },
)


@pytest.mark.parametrize(
    "argvs", [_CHECK_ARGV, _REPRODUCE_ARGV, _SWEEP_ARGV], ids=["check", "reproduce", "sweep"]
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_argv_fuzz_exits_cleanly(argvs, data):
    argv = data.draw(argvs)
    err = io.StringIO()
    # run in-process: an uncaught exception would fail the test outright
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    assert code in (0, 2, 3), argv
    assert "Traceback" not in err.getvalue()
