import codecs
import contextlib
import csv
import errno
import io
import json
import math
import os
import stat
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from popres import cli, sampling, simulation, special_functions
from popres.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_OVERLAP,
    EXIT_VALIDATION,
    build_parsers,
    load_config_file,
    main,
)
from popres.errors import ValidationError
from popres.history import append_history, read_history
from popres.reporting import load_reference, load_snapshot, monitor
from popres.resemblance import ResemblanceConfig
from popres.simulation import StudySpec

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def reference_file(tmp_path):
    f = tmp_path / "ref.csv"
    f.write_text("category,prob\n" + "\n".join(f"{i},0.2" for i in range(1, 6)) + "\n")
    return f


@pytest.fixture
def snapshot_file(tmp_path):
    f = tmp_path / "t1.csv"
    f.write_text("category,count\n1,6\n2,9\n3,10\n4,11\n5,14\n")
    return f


class TestConfigFile:
    def test_parses_values_and_comments(self, tmp_path):
        f = tmp_path / "cfg.ini"
        f.write_text("# monitoring config\nc = 0.7\nM = 2.0  # multiplier\nalpha1=0.05\n")
        assert load_config_file(f) == {"c": 0.7, "m": 2.0, "alpha1": 0.05}

    def test_rejects_unknown_key(self, tmp_path):
        f = tmp_path / "cfg.ini"
        f.write_text("gamma = 0.5\n")
        with pytest.raises(ValidationError):
            load_config_file(f)

    def test_rejects_non_numeric(self, tmp_path):
        f = tmp_path / "cfg.ini"
        f.write_text("c = high\n")
        with pytest.raises(ValidationError):
            load_config_file(f)

    def test_line_without_equals_sign_exits_validation(self, capsys, tmp_path, reference_file):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("# monitoring config\nc 0.7  # no sign\n")
        code = main(["boundaries", "--reference", str(reference_file), "--n", "50", "--config", str(cfg)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: {cfg}:2: expected key=value, got 'c 0.7  # no sign'\n")



    @pytest.mark.parametrize("text, key, line, first", [
        ("c = 0.7\nc = 0.9\n", "c", 2, 1),
        ("M = 2\nm = 3\n", "m", 2, 1),
        ("alpha1 = 0.05\n# again\nALPHA1 = 0.05\n", "alpha1", 3, 1),
        ("seed = 1\nc = 0.7\nSeed = 2\n", "seed", 3, 1),
    ], ids=["same-spelling", "other-case", "same-value", "seed"])
    def test_repeated_key_is_refused(self, capsys, tmp_path, reference_file, snapshot_file, text, key, line,
                                     first):
        f = tmp_path / "cfg.ini"
        f.write_text(text)
        message = f"{f}:{line}: configuration key {key!r} repeats line {first}"
        with pytest.raises(ValidationError) as info:
            load_config_file(f)
        assert str(info.value) == message
        command = ["monitor", "--snapshot", str(snapshot_file)] if key == "seed" else ["boundaries", "--n", "50"]
        assert main([*command, "--reference", str(reference_file), "--config", str(f)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("entry", ["snapshot", "reference", "config"])
def test_non_utf8_file_is_named_with_its_line(capsys, tmp_path, reference_file, snapshot_file, entry):
    bad = tmp_path / "bad.csv"
    # a CR, a CRLF and an LF each end one line
    if entry == "config":
        bad.write_bytes(b"c = 0.7\r\nM = \xff2\n")
        line = 2
    else:
        bad.write_bytes(b"category,count\n1,5\r2,\xff6\n")
        line = 3
    files = {"snapshot": snapshot_file, "reference": reference_file, entry: bad}
    argv = ["monitor", "--snapshot", str(files["snapshot"]), "--reference", str(files["reference"])]
    if entry == "config":
        argv += ["--config", str(bad)]
    for _ in range(2):  # a failed load keeps nothing, so it fails alike again
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}:{line}: not UTF-8 text (byte 0xff: invalid start byte)\n"


# One reader for every input file: (file name, loader, text with {sep} inside line 1 and a
# bad line 3, the error after the file:line prefix)
READERS = {
    "reference": ("ref.csv", load_reference, "category,prob{sep}\n1,0.5\n1,0.5\n",
                  "duplicate category 1"),
    "snapshot-csv": ("s.csv", load_snapshot, "category,{sep}count\r\n1,5\r\n1,6\r\n",
                     "duplicate category 1"),
    "snapshot-json": ("s.json", load_snapshot, '{{"label": "a{sep}b",\r"counts":\n [1, 2, x]}}',
                      "invalid JSON (Expecting value)"),
    "config": ("cfg.ini", load_config_file, "c = 0.7 {sep}\nM = 2\nc = 0.9\n",
               "configuration key 'c' repeats line 1"),
}


@pytest.mark.parametrize("sep", ["\xff", "\f", "\x85", "\u2028"], ids=["0xff", "ff", "nel", "ls"])
@pytest.mark.parametrize("entry", READERS)
def test_every_input_numbers_lines_by_cr_lf_and_crlf_alone(tmp_path, entry, sep):
    name, load, text, message = READERS[entry]
    f = tmp_path / name
    line = 3
    if sep == "\xff":  # a byte that is not UTF-8, on line 3
        lines = text.format(sep="").encode().splitlines(keepends=True)
        f.write_bytes(b"".join(lines[:2]) + b"\xff" + b"".join(lines[2:]))
        message = "not UTF-8 text (byte 0xff: invalid start byte)"
    else:  # a character that str.splitlines breaks at, inside line 1
        f.write_bytes(text.format(sep=sep).encode())
        if entry == "snapshot-json" and sep == "\f":  # JSON takes no raw form feed
            line, message = 1, "invalid JSON (Invalid control character at)"
    with pytest.raises(ValidationError) as info:
        load(f)
    assert str(info.value) == f"{f}:{line}: {message}"


@pytest.mark.parametrize("bad_byte", [False, True], ids=["utf8", "0xff"])
@pytest.mark.parametrize("entry", READERS)
def test_every_input_may_start_with_a_byte_order_mark(tmp_path, entry, bad_byte):
    # Excel's "CSV UTF-8" starts a file with one; errors still name line 3 and the byte
    name, load, text, message = READERS[entry]
    f = tmp_path / name
    lines = text.format(sep="").encode().splitlines(keepends=True)
    if bad_byte:
        lines[2:2] = [b"\xff"]
        message = "not UTF-8 text (byte 0xff: invalid start byte)"
    f.write_bytes(codecs.BOM_UTF8 + b"".join(lines))
    with pytest.raises(ValidationError) as info:
        load(f)
    assert str(info.value) == f"{f}:3: {message}"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_monitor_reads_files_with_a_byte_order_mark(capsys, tmp_path, reference_file, snapshot_file, fmt):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("c = 0.7\nseed = 3\n")
    snapshot = snapshot_file
    if fmt == "json":
        snapshot = tmp_path / "t1.json"
        snapshot.write_text('{"label": "t1", "counts": [6, 9, 10, 11, 14]}')
    argv = ["monitor", "--snapshot", str(snapshot), "--reference", str(reference_file),
            "--config", str(cfg), "--format", "json"]
    assert main(argv) == EXIT_OK
    plain = capsys.readouterr().out
    for f in (snapshot, reference_file, cfg):
        f.write_bytes(codecs.BOM_UTF8 + f.read_bytes())
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == plain
    assert json.loads(plain)["label"] == "t1" and json.loads(plain)["seed"] == 3


def ascii_locale_env():
    """The environment of a process whose default encoding is ASCII: the C locale, UTF-8 mode off."""
    env = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
           "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    probe = [sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"]
    assert subprocess.run(probe, env=env, capture_output=True, text=True).stdout.strip() != "UTF-8"
    return env


def test_json_snapshot_is_utf8_under_an_ascii_locale(tmp_path, reference_file):
    snapshot = tmp_path / "s.json"
    snapshot.write_bytes('{"label": "Zürich", "counts": [6, 9, 10, 11, 14]}'.encode())
    argv = ["monitor", "--snapshot", str(snapshot), "--reference", str(reference_file), "--format", "json"]
    out = subprocess.run([sys.executable, "-m", "popres.cli", *argv], env=ascii_locale_env(),
                         capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (EXIT_OK, "")
    assert json.loads(out.stdout)["label"] == "Zürich"


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_output_is_utf8_under_an_ascii_locale(tmp_path, reference_file, fmt):
    # the history is appended before the output is written: an output error would
    # leave the report stored behind a failing exit code
    snapshot, hist = tmp_path / "s.json", tmp_path / "h.jsonl"
    snapshot.write_bytes('{"label": "Zürich", "counts": [6, 9, 10, 11, 14]}'.encode())
    argv = [sys.executable, "-m", "popres.cli", "monitor", "--snapshot", str(snapshot),
            "--reference", str(reference_file), "--format", fmt, "--history", str(hist)]
    env = ascii_locale_env()
    first = subprocess.run(argv, env=env, capture_output=True)
    assert (first.returncode, first.stderr) == (EXIT_OK, b"")
    stored = hist.read_bytes()
    assert len(stored.splitlines()) == 1
    again = subprocess.run(argv, env=env, capture_output=True)
    assert again.returncode == EXIT_OK and b"duplicate report" in again.stderr
    assert again.stdout == first.stdout and hist.read_bytes() == stored
    # the bytes of the same call under a UTF-8 locale
    hist.unlink()
    utf8 = subprocess.run(argv, env={**env, "PYTHONUTF8": "1"}, capture_output=True)
    assert (utf8.returncode, utf8.stdout) == (EXIT_OK, first.stdout)
    if fmt == "json":  # ASCII with escapes, as before
        assert first.stdout.isascii() and json.loads(first.stdout)["label"] == "Zürich"
    else:
        assert "Zürich".encode() in first.stdout


def test_output_to_a_text_stream_without_bytes(tmp_path, reference_file):
    # a program that captures main's output in an io.StringIO gets the text itself
    snapshot = tmp_path / "s.json"
    snapshot.write_bytes('{"label": "Zürich", "counts": [6, 9, 10, 11, 14]}'.encode())
    argv = ["monitor", "--snapshot", str(snapshot), "--reference", str(reference_file)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == EXIT_OK
    assert out.getvalue().startswith("snapshot Zürich  (n=50, B=5)\n")


def _named(tmp_path: Path, name: bytes, text: str) -> bytes:
    """A file of ``text`` whose name has the bytes ``name``, made whatever this process's locale."""
    path = os.path.join(os.fsencode(tmp_path), name)
    with open(path, "wb") as fh:
        fh.write(text.encode())
    return path


def _popres(env: dict, *argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "popres.cli", *argv], env=env, capture_output=True)


@pytest.mark.parametrize("utf8_modes", [("0", "1"), ("1", "0")], ids=["ascii-first", "utf8-first"])
def test_csv_label_is_the_utf8_file_name_under_any_locale(tmp_path, reference_file, utf8_modes):
    # under an ASCII locale Python decodes a file name to lone surrogates; the label must not
    snapshot = _named(tmp_path, "Zürich.csv".encode(), "category,count\n1,6\n2,9\n3,10\n4,11\n5,14\n")
    hist = tmp_path / "h.jsonl"
    argv = ["monitor", "--snapshot", snapshot, "--reference", os.fsencode(reference_file),
            "--history", os.fsencode(hist)]
    first, again = (_popres({**ascii_locale_env(), "PYTHONUTF8": mode}, *argv) for mode in utf8_modes)
    assert (first.returncode, first.stderr) == (EXIT_OK, b"")
    assert again.returncode == EXIT_OK
    assert again.stderr == "note: duplicate report for 'Zürich'; history unchanged\n".encode()
    assert "snapshot Zürich ".encode() in first.stdout and again.stdout == first.stdout
    (line,) = hist.read_bytes().splitlines()
    assert json.loads(line)["label"] == "Zürich"


@pytest.mark.parametrize("utf8_mode", ["0", "1"])
def test_file_name_that_is_not_utf8_is_refused_by_name(tmp_path, reference_file, utf8_mode):
    snapshot = _named(tmp_path, b"Z\xfcrich.csv", "category,count\n1,6\n2,9\n3,10\n4,11\n5,14\n")
    out = _popres({**ascii_locale_env(), "PYTHONUTF8": utf8_mode},
                  "monitor", "--snapshot", snapshot, "--reference", os.fsencode(reference_file))
    assert (out.returncode, out.stdout) == (EXIT_VALIDATION, b"")
    assert out.stderr == (b"error: " + snapshot + b": the file name is not UTF-8 (byte 0xfc), "
                          b"so it cannot label the snapshot\n")


def test_error_line_is_utf8_under_an_ascii_locale(tmp_path, reference_file):
    snapshot = _named(tmp_path, "Zürich.csv".encode(), "category,count\n1,6\n2,x\n")
    out = _popres(ascii_locale_env(), "monitor", "--snapshot", snapshot,
                  "--reference", os.fsencode(reference_file))
    assert out.returncode == EXIT_VALIDATION
    assert out.stderr.startswith(b"error: " + snapshot + b":3: unparsable row")
    assert "Zürich.csv:3:".encode() in out.stderr
    # an OSError names its file as UTF-8 too, not with the escapes of the locale's decoding
    missing = os.path.join(os.fsencode(tmp_path), "Zürich-2.csv".encode())
    for utf8_mode in ("0", "1"):
        out = _popres({**ascii_locale_env(), "PYTHONUTF8": utf8_mode}, "monitor", "--snapshot", missing,
                      "--reference", os.fsencode(reference_file))
        assert out.returncode == EXIT_VALIDATION
        assert out.stderr == b"error: [Errno 2] No such file or directory: '" + missing + b"'\n"


@pytest.mark.parametrize("locale", ["C", "default"])
def test_os_error_gives_back_a_file_name_that_is_not_utf8(tmp_path, reference_file, locale):
    # as a ValidationError names it: the byte 0xfc, not the escape of its lone surrogate
    env = ascii_locale_env() if locale == "C" else {
        **os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    missing = os.path.join(os.fsencode(tmp_path), b"Z\xfc-missing.csv")
    out = _popres(env, "monitor", "--snapshot", missing, "--reference", os.fsencode(reference_file))
    assert (out.returncode, out.stdout) == (EXIT_VALIDATION, b"")
    assert out.stderr == b"error: [Errno 2] No such file or directory: '" + missing + b"'\n"


def test_os_error_quotes_a_utf8_file_name_as_repr_does():
    # as a UTF-8 locale's OSError quotes it, whatever this process's locale decoded the name to
    for name in ("Zürich.csv", "a'b", "a'b\"c", "tab\there", "back\\udcfc", "\u2028"):
        local = os.fsdecode(name.encode())
        assert (cli._message(FileNotFoundError(errno.ENOENT, "No such file or directory", local))
                == str(FileNotFoundError(errno.ENOENT, "No such file or directory", name)))
        assert (cli._message(OSError(errno.EXDEV, "Invalid cross-device link", "a.csv", None, local))
                == str(OSError(errno.EXDEV, "Invalid cross-device link", "a.csv", None, name)))


def test_errors_and_notes_to_a_text_stream_without_bytes(tmp_path, reference_file, snapshot_file):
    argv = ["monitor", "--snapshot", str(snapshot_file), "--reference", str(reference_file),
            "--history", str(tmp_path / "h.jsonl")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(argv) == EXIT_OK
        assert main(argv) == EXIT_OK
        assert main(["boundaries", "--reference", str(tmp_path / "none.csv"), "--n", "50"]) == EXIT_VALIDATION
    note, error = err.getvalue().splitlines()
    assert note == "note: duplicate report for 't1'; history unchanged"
    assert error.startswith("error: [Errno 2] ") and error.endswith("none.csv'")


class TestMonitorCommand:
    def test_text_output(self, capsys, reference_file, snapshot_file):
        code = main([
            "monitor", "--snapshot", str(snapshot_file), "--reference", str(reference_file),
            "--c", "0.7", "--alpha1", "0.05", "--alpha2", "0.10", "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "t1" in out and "[green]" in out

    def test_json_output(self, capsys, reference_file, snapshot_file):
        code = main([
            "monitor", "--snapshot", str(snapshot_file), "--reference", str(reference_file),
            "--c", "0.7", "--alpha1", "0.05", "--alpha2", "0.10",
            "--format", "json",
        ])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["prs_region"] == "green"
        assert payload["n"] == 50

    def test_config_file_with_flag_override(self, capsys, tmp_path, reference_file, snapshot_file):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("c = 0.7\nalpha1 = 0.4\nalpha2 = 0.10\nseed = 3\n")
        code = main([
            "monitor", "--snapshot", str(snapshot_file), "--reference", str(reference_file),
            "--config", str(cfg), "--alpha1", "0.05", "--format", "json",
        ])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["alpha1"] == 0.05
        assert payload["seed"] == 3

    def test_config_keys_are_field_names_in_any_case(self, capsys, tmp_path, reference_file, snapshot_file):
        configs = []
        for key in ("M", "m"):
            cfg = tmp_path / f"{key}.ini"
            cfg.write_text(f"{key} = 3\n")
            code = main([
                "monitor", "--snapshot", str(snapshot_file), "--reference", str(reference_file),
                "--config", str(cfg), "--format", "json",
            ])
            assert code == EXIT_OK
            configs.append(json.loads(capsys.readouterr().out)["config"])
        assert configs[0] == configs[1]
        assert configs[0]["M"] == 3.0

    def test_delta_flag_overrides_config_file(self, capsys, tmp_path, reference_file, snapshot_file):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("delta_override = 0.002\n")
        code = main([
            "monitor", "--snapshot", str(snapshot_file), "--reference", str(reference_file),
            "--config", str(cfg), "--delta", "0.001", "--format", "json",
        ])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["delta_override"] == 0.001
        assert payload["delta"] == 0.001

    # 3.0 is refused as --seed 3.0 is
    @pytest.mark.parametrize("value", ["inf", "nan", "1.7", "3.0"])
    def test_config_file_non_integer_seed_exits_validation(
        self, capsys, tmp_path, reference_file, snapshot_file, value
    ):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"seed = {value}\n")
        code = main([
            "monitor", "--snapshot", str(snapshot_file), "--reference", str(reference_file),
            "--config", str(cfg),
        ])
        assert code == EXIT_VALIDATION
        assert "cfg.ini:1: seed must be an integer" in capsys.readouterr().err

    def test_config_file_seed_keeps_every_digit(self, capsys, tmp_path, reference_file, snapshot_file):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"seed = {2**53 + 1}\n")  # a float would round it to 2**53
        code = main(["monitor", "--snapshot", str(snapshot_file), "--reference", str(reference_file),
                     "--config", str(cfg), "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["seed"] == 9007199254740993

    # monitor takes the seeds study takes, from the flag or a config file alike
    @pytest.mark.parametrize("command", ["monitor", "study"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("seed", [-1, -5, 2**64, 2**70])
    def test_seed_outside_64_bits_exits_validation(self, capsys, tmp_path, reference_file, snapshot_file,
                                                   command, source, seed):
        hist, out, cfg = tmp_path / "h.jsonl", tmp_path / "t.csv", tmp_path / "cfg.ini"
        if command == "monitor":
            argv = ["monitor", "--snapshot", str(snapshot_file), "--reference", str(reference_file),
                    "--history", str(hist)]
        else:
            argv = ["study", "--study", "table1", "--out", str(out), "--n", "50", "--B", "5"]
        if source == "flag":
            argv += ["--seed", str(seed)]
        else:
            cfg.write_text(f"seed = {seed}\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: seed must lie in [0, 2**64) (--seed), got {seed}\n"
        assert not hist.exists() and not out.exists()

    @pytest.mark.parametrize("case", ["other-grid", "overlap", "quantile-fails", "unencodable-label",
                                      "corrupt-history"])
    def test_failing_call_leaves_the_history_unchanged(self, capsys, monkeypatch, tmp_path, reference_file,
                                                       snapshot_file, case):
        hist, idx = tmp_path / "h.jsonl", tmp_path / "h.jsonl.idx"
        argv = ["monitor", "--reference", str(reference_file), "--history", str(hist)]
        assert main([*argv, "--snapshot", str(snapshot_file)]) == EXIT_OK
        snapshot = tmp_path / "s.json"
        snapshot.write_text('{"label": "s", "counts": [4, 10, 11, 11, 14]}')
        if case == "other-grid":
            snapshot.write_text('{"label": "s", "counts": [4, 10, 11, 11]}')
        elif case == "overlap":
            argv += ["--M", "1.000000001", "--alpha1", "0.5", "--alpha2", "0.5"]
        elif case == "quantile-fails":
            monkeypatch.setattr(special_functions, "chndtrix", lambda *args: math.nan)
        elif case == "unencodable-label":  # a lone surrogate: JSON holds it, UTF-8 does not
            snapshot.write_text('{"label": "s\\ud800", "counts": [4, 10, 11, 11, 14]}')
        else:
            with open(hist, "a") as fh:
                fh.write("{not json\n")
        before = hist.read_bytes(), idx.read_bytes()
        assert main([*argv, "--snapshot", str(snapshot)]) != EXIT_OK
        assert (hist.read_bytes(), idx.read_bytes()) == before
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("read_back", [False, True], ids=["fresh", "read-back"])
    def test_encodings_equal_the_asdict_encodings(self, capsys, monkeypatch, tmp_path, reference_file,
                                                  snapshot_file, read_back):
        # a report is encoded from its own fields, with no deep copy, into the same bytes
        cfg = ResemblanceConfig(c=0.7, M=2.0, alpha1=0.05, alpha2=0.10)
        report = monitor(load_snapshot(snapshot_file), load_reference(reference_file), cfg, seed=3)
        if read_back:
            append_history(report, tmp_path / "stored.jsonl")
            [report] = read_history(tmp_path / "stored.jsonl")
        monkeypatch.setattr(cli, "monitor", lambda *args, **kwargs: report)
        argv = ["monitor", "--snapshot", str(snapshot_file), "--reference", str(reference_file)]
        hist = tmp_path / "h.jsonl"
        assert main([*argv, "--format", "json", "--history", str(hist)]) == EXIT_OK
        assert capsys.readouterr().out == json.dumps(asdict(report), sort_keys=True, indent=2) + "\n"
        assert hist.read_text() == json.dumps(asdict(report), sort_keys=True) + "\n"
        assert main([*argv, "--format", "csv"]) == EXIT_OK
        row = asdict(report)
        row["config"] = json.dumps(row["config"], sort_keys=True)
        want = io.StringIO()
        writer = csv.DictWriter(want, fieldnames=list(row))
        writer.writeheader()
        writer.writerow(row)
        assert capsys.readouterr().out == want.getvalue()

    def test_history_dedupe_note(self, capsys, tmp_path, reference_file, snapshot_file):
        hist = tmp_path / "history.jsonl"
        argv = [
            "monitor", "--snapshot", str(snapshot_file), "--reference", str(reference_file),
            "--c", "0.7", "--alpha1", "0.05", "--alpha2", "0.10",
            "--history", str(hist),
        ]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        assert "duplicate" in capsys.readouterr().err
        assert len(hist.read_text().splitlines()) == 1

    # an empty value, such as an unset shell variable, is the path '.': refused by the option's name
    @pytest.mark.parametrize("command, flag", [
        ("monitor", "--snapshot"), ("monitor", "--reference"), ("monitor", "--history"), ("monitor", "--config"),
        ("boundaries", "--reference"), ("study", "--out"),
    ], ids=["--snapshot", "--reference", "--history", "--config", "boundaries --reference", "study --out"])
    def test_empty_path_flag_exits_validation(self, capsys, monkeypatch, tmp_path, reference_file, snapshot_file,
                                              command, flag):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.cfg").write_text("c=0.7\n")
        flags = {"monitor": {"--snapshot": "t1.csv", "--reference": "ref.csv", "--history": "h.jsonl",
                             "--config": "c.cfg"},
                 "boundaries": {"--reference": "ref.csv", "--n": "50"},
                 "study": {"--study": "table1", "--B": "5", "--n": "50", "--replications": "1000",
                           "--out": "t.csv"}}[command]
        before = sorted(tmp_path.iterdir())
        with pytest.raises(SystemExit) as exc:
            main([command, *(s for item in {**flags, flag: ""}.items() for s in item)])
        assert exc.value.code == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and f"error: argument {flag}: expected a file path, got an empty value\n" in err
        assert sorted(tmp_path.iterdir()) == before

    def test_history_directory_exits_validation(self, capsys, tmp_path, reference_file, snapshot_file):
        code = main([
            "monitor", "--snapshot", str(snapshot_file), "--reference", str(reference_file),
            "--history", str(tmp_path),
        ])
        assert code == EXIT_VALIDATION
        assert "Is a directory" in capsys.readouterr().err

    def test_missing_snapshot_file(self, capsys, reference_file, tmp_path):
        code = main([
            "monitor", "--snapshot", str(tmp_path / "nope.csv"),
            "--reference", str(reference_file),
        ])
        assert code == EXIT_VALIDATION

    def test_malformed_snapshot(self, capsys, reference_file, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("category,count\n1,-3\n2,53\n3,0\n4,0\n5,0\n")
        code = main([
            "monitor", "--snapshot", str(bad), "--reference", str(reference_file),
        ])
        assert code == EXIT_VALIDATION
        # numpy reads these as object and text arrays rather than numbers
        for counts in ("[1180591620717411303424, 1, 2, 3, 4]", '[1, "3", 2, 4, 5]'):
            bad_json = tmp_path / "bad.json"
            bad_json.write_text(f'{{"counts": {counts}}}')
            capsys.readouterr()
            code = main([
                "monitor", "--snapshot", str(bad_json), "--reference", str(reference_file),
            ])
            assert code == EXIT_VALIDATION
            assert "counts must be numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", ["[6, 9, 10, 11, 14]", '{"label": "t1"}', '"counts"'],
                             ids=["bare-array", "no-counts", "string"])
    def test_json_snapshot_without_counts_object_exits_validation(self, capsys, reference_file,
                                                                  tmp_path, payload):
        snap, hist = tmp_path / "t1.json", tmp_path / "history.jsonl"
        snap.write_text(payload)
        code = main(["monitor", "--snapshot", str(snap), "--reference", str(reference_file),
                     "--history", str(hist)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: {snap}: expected an object with a 'counts' array\n")
        assert not hist.exists()

    @pytest.mark.parametrize("timestamp", [{"a": [1, 2]}, [], 20240101, True],
                             ids=["object", "list", "int", "bool"])
    def test_snapshot_timestamp_of_another_type_exits_validation(self, capsys, reference_file,
                                                                  tmp_path, timestamp):
        snap, hist = tmp_path / "week12.json", tmp_path / "history.jsonl"
        snap.write_text(json.dumps({"timestamp": timestamp, "counts": [6, 9, 10, 11, 14]}))
        code = main(["monitor", "--snapshot", str(snap), "--reference", str(reference_file),
                     "--history", str(hist), "--format", "csv"])
        assert code == EXIT_VALIDATION
        assert f"week12.json: field 'timestamp' must be a string or null, got {timestamp!r}" in (
            capsys.readouterr().err)
        assert not hist.exists()

    @pytest.mark.parametrize("timestamp", ["2024-01-01T00:00:00Z", None])
    def test_snapshot_timestamp_string_or_null_is_kept(self, capsys, reference_file, tmp_path,
                                                       timestamp):
        snap, hist = tmp_path / "week12.json", tmp_path / "history.jsonl"
        snap.write_text(json.dumps({"timestamp": timestamp, "counts": [6, 9, 10, 11, 14]}))
        code = main(["monitor", "--snapshot", str(snap), "--reference", str(reference_file),
                     "--history", str(hist)])
        assert code == EXIT_OK
        assert [r.timestamp for r in read_history(hist)] == [timestamp]

    def test_empty_snapshot_file(self, capsys, reference_file, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code = main([
            "monitor", "--snapshot", str(empty), "--reference", str(reference_file),
        ])
        assert code == EXIT_VALIDATION

    def test_snapshot_above_ks_limit_exits_validation(self, capsys, reference_file, tmp_path):
        big = tmp_path / "big.csv"
        big.write_text("category,count\n" + "".join(f"{i},200000001\n" for i in range(1, 6)))
        code = main(["monitor", "--snapshot", str(big), "--reference", str(reference_file)])
        assert code == EXIT_VALIDATION
        assert "at most 1,000,000,000 counts" in capsys.readouterr().err


def test_cli_import_loads_neither_scipy_signal_nor_stats():
    # each module adds a large share of the command's start-up time; scipy.special's package
    # __init__ loads the last four, and special_functions takes its two ufuncs without it
    modules = ("scipy.signal", "scipy.stats", "scipy.optimize", "scipy.special", "numpy.f2py", "numpy.testing",
               "numpy.ma", "scipy.special._support_alternative_backends")
    code = f"import sys, popres.cli; print(sorted(m for m in {modules!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")})
    assert out.stdout.strip() == "[]"


SHARED_OPTIONS = ("--config", "--c", "--M", "--alpha1", "--alpha2", "--delta")
OPTIONS = {
    "monitor": ("--snapshot", "--reference", *SHARED_OPTIONS, "--seed", "--history", "--format"),
    "boundaries": ("--reference", "--n", *SHARED_OPTIONS, "--format"),
    "study": ("--study", "--out", "--n", "--n-grid", "--B", "--replications", "--grid-points",
              "--target-j", "--workers", "--seed", *SHARED_OPTIONS),
}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_option_inventory(command):
    commands = build_parsers()[1]
    options = [s for a in commands[command]._actions for s in a.option_strings]
    assert sorted(options) == sorted(["-h", "--help", *OPTIONS[command]])


class TestBoundariesCommand:
    def test_json_values(self, capsys, reference_file):
        code = main([
            "boundaries", "--reference", str(reference_file), "--n", "50",
            "--c", "0.7", "--alpha1", "0.05", "--alpha2", "0.10", "--format", "json",
        ])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["tau1"] == pytest.approx(0.07441, abs=5e-5)
        assert payload["tau2"] == pytest.approx(0.25722, abs=5e-5)

    def test_json_equals_the_asdict_encoding(self, capsys, monkeypatch, reference_file):
        derived = []
        boundaries = cli.decision_boundaries
        monkeypatch.setattr(cli, "decision_boundaries",
                            lambda *args: derived.append(boundaries(*args)) or derived[-1])
        assert main(["boundaries", "--reference", str(reference_file), "--n", "50",
                     "--format", "json"]) == EXIT_OK
        assert capsys.readouterr().out == json.dumps(asdict(derived[0]), sort_keys=True, indent=2) + "\n"

    # 1 - alpha1 rounded to 1, and ncx2_quantile refused p=1.0 without naming alpha1
    @pytest.mark.parametrize("command", ["boundaries", "monitor", "sweep"])
    def test_alpha1_below_double_precision(self, capsys, tmp_path, reference_file, snapshot_file, command):
        argv = {"boundaries": ["boundaries", "--reference", str(reference_file), "--n", "50"],
                "monitor": ["monitor", "--snapshot", str(snapshot_file), "--reference", str(reference_file)],
                "sweep": ["study", "--study", "sweep", "--B", "5", "--n", "50", "--replications", "10",
                          "--out", str(tmp_path / "s.csv")]}[command]
        assert main([*argv, "--alpha1", "1e-17"]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: alpha1 must be large enough that 1 - alpha1 < 1")
        assert not (tmp_path / "s.csv").exists()

    def test_overlap_exit_code(self, capsys, reference_file):
        code = main([
            "boundaries", "--reference", str(reference_file), "--n", "50",
            "--M", "1.000000001", "--alpha1", "0.5", "--alpha2", "0.5",
        ])
        assert code == EXIT_OVERLAP

    def test_infeasible_tolerance(self, capsys, reference_file):
        code = main([
            "boundaries", "--reference", str(reference_file), "--n", "50",
            "--c", "1.0", "--M", "4.0",
        ])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_non_positive_n_exits_validation(self, capsys, reference_file, n):
        code = main([
            "boundaries", "--reference", str(reference_file), "--n", n, "--delta", "0.01",
        ])
        assert code == EXIT_VALIDATION
        assert f"sample size must be positive, got {n}" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [str(2**63), str(10**400)], ids=["2**63", "10**400"])
    def test_n_above_int64_exits_validation(self, capsys, tmp_path, reference_file, n):
        code = main(["boundaries", "--reference", str(reference_file), "--n", n])
        assert code == EXIT_VALIDATION
        assert f"sample size {n} exceeds the int64 range" in capsys.readouterr().err
        out = tmp_path / "sweep.csv"
        code = main(["study", "--study", "sweep", "--out", str(out), "--n", n, "--B", "5"])
        assert code == EXIT_VALIDATION
        assert f"sample size {n} exceeds the int64 range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, message", [
        ("--c=0", "c must be positive, got 0.0"),
        ("--c=-0.5", "c must be positive, got -0.5"),
        ("--delta=0", "delta_override must be positive when set"),
        ("--delta=-0.01", "delta_override must be positive when set"),
    ])
    def test_non_positive_c_or_delta_exits_validation(self, capsys, reference_file, flag, message):
        code = main(["boundaries", "--reference", str(reference_file), "--n", "50", flag])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_seed_flag_is_refused(self, capsys, reference_file):
        with pytest.raises(SystemExit) as exc:
            main(["boundaries", "--reference", str(reference_file), "--n", "50", "--seed", "5"])
        assert exc.value.code == EXIT_VALIDATION
        assert "--seed" in capsys.readouterr().err

    def test_config_file_seed_is_refused(self, capsys, tmp_path, reference_file):
        # boundaries uses no seed, so a file's seed key would be silently ignored
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("c = 0.7\n# a comment\nSeed = 5\n")
        code = main(["boundaries", "--reference", str(reference_file), "--n", "50",
                     "--config", str(cfg), "--format", "json"])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{cfg}:3: configuration key 'seed' does not apply here" in captured.err

    def test_config_file_without_seed_is_accepted(self, capsys, tmp_path, reference_file):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("c = 0.7\n")
        code = main(["boundaries", "--reference", str(reference_file), "--n", "50",
                     "--config", str(cfg), "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["tau1"] == pytest.approx(0.07441, abs=5e-5)

    def test_failed_quantile_exits_numerical(self, capsys, monkeypatch, reference_file):
        monkeypatch.setattr(special_functions, "chndtrix", lambda *args: math.nan)
        code = main(["boundaries", "--reference", str(reference_file), "--n", "50"])
        assert code == EXIT_NUMERICAL
        assert "forward check" in capsys.readouterr().err


class TestStudyCommand:
    def test_sweep_writes_csv(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "study", "--study", "sweep", "--out", str(out), "--n", "50", "--B", "5",
            "--replications", "2000", "--grid-points", "4",
            "--c", "0.7", "--alpha1", "0.05", "--alpha2", "0.10", "--seed", "1",
        ])
        assert code == EXIT_OK
        assert out.exists()
        assert "delta_v" in out.read_text()

    def test_study_requires_n(self, capsys, tmp_path):
        code = main([
            "study", "--study", "stability", "--out", str(tmp_path / "s.csv"), "--B", "5",
        ])
        assert code == EXIT_VALIDATION

    def test_sweep_needs_exactly_one_n(self, capsys, tmp_path):
        code = main([
            "study", "--study", "sweep", "--out", str(tmp_path / "s.csv"), "--B", "5",
            "--n-grid", "50,100", "--replications", "2000",
        ])
        assert code == EXIT_VALIDATION
        assert "sweep takes exactly one sample size" in capsys.readouterr().err

    def test_sweep_delta_override_reaches_boundaries(self, capsys, tmp_path):
        argv = ["study", "--study", "sweep", "--n", "50", "--B", "5",
                "--replications", "2000", "--grid-points", "4", "--seed", "1"]
        assert main(argv + ["--out", str(tmp_path / "default.csv")]) == EXIT_OK
        assert main(argv + ["--out", str(tmp_path / "delta.csv"), "--delta", "0.001"]) == EXIT_OK
        default = (tmp_path / "default.csv").read_text()
        delta = (tmp_path / "delta.csv").read_text()
        assert "# delta=0.001\n" in delta
        assert "# delta=0.001\n" not in default
        assert delta.splitlines()[-1] != default.splitlines()[-1]

    # one replication has no sample variance: numpy warned and the study wrote nan
    def test_stability_needs_two_replications(self, capsys, tmp_path):
        out = tmp_path / "k1" / "st.csv"
        code = main(["study", "--study", "stability", "--B", "5", "--n-grid", "20", "--replications", "1",
                     "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: replications must be at least 2 (--replications), got 1\n"
        assert not out.parent.exists()

    def test_sweep_rejects_grid_points_below_one(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        for points in ("0", "-1"):
            code = main([
                "study", "--study", "sweep", "--out", str(out), "--n", "50", "--B", "5",
                "--replications", "1000", "--grid-points", points,
            ])
            assert code == EXIT_VALIDATION
            assert "grid_points must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_n_and_n_grid_are_exclusive(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code = main([
            "study", "--study", "table1", "--out", str(out), "--B", "5",
            "--n", "77", "--n-grid", "50", "--replications", "1000",
        ])
        assert code == EXIT_VALIDATION
        assert "either --n or --n-grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--workers", "0"), ("--workers", "-3"), ("--target-j", "-0.5"), ("--seed", "-1"), ("--seed", str(2**64)),
        ("--seed", str(2**70)),
    ])
    def test_rejects_bad_workers_and_target_j(self, capsys, tmp_path, flag, value):
        out = tmp_path / "t.csv"
        code = main([
            "study", "--study", "table1", "--out", str(out), "--B", "5",
            "--n", "50", "--replications", "1000", flag, value,
        ])
        assert code == EXIT_VALIDATION
        assert f"({flag})" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, expected", [
        ([], {}),
        (["--replications", "500", "--target-j", "1", "--workers", "2", "--seed", "9"],
         {"replications": 500, "target_j": 1.0, "workers": 2, "seed": 9}),
    ])
    def test_flags_build_study_spec_by_field_name(self, capsys, monkeypatch, tmp_path, flags, expected):
        specs = []
        monkeypatch.setattr(cli, "run_study", lambda spec, out: specs.append(spec) or out)
        code = main(["study", "--study", "table1", "--out", str(tmp_path / "t.csv"),
                     "--n-grid", "50,100", "--B", "5", *flags])
        assert code == EXIT_OK
        assert specs == [StudySpec(study="table1", B=5, ns=(50, 100), **expected)]
        assert type(specs[0].target_j) is float

    def test_sweep_flags_build_study_spec_by_field_name(self, capsys, monkeypatch, tmp_path):
        specs = []
        monkeypatch.setattr(cli, "run_study", lambda spec, out: specs.append(spec) or out)
        code = main(["study", "--study", "sweep", "--out", str(tmp_path / "s.csv"), "--n", "50", "--B", "5",
                     "--grid-points", "3", "--c", "0.5", "--M", "3", "--alpha1", "0.1", "--alpha2", "0.2",
                     "--delta", "0.01", "--replications", "500", "--workers", "2", "--seed", "9"])
        assert code == EXIT_OK
        cfg = ResemblanceConfig(c=0.5, M=3.0, alpha1=0.1, alpha2=0.2, delta_override=0.01)
        assert specs == [StudySpec(study="sweep", B=5, ns=(50,), cfg=cfg, grid_points=3, replications=500,
                                   workers=2, seed=9)]

    @pytest.mark.parametrize("study, flag, value", [
        *((study, flag, value) for study in ("table1", "stability")
          for flag, value in (("--c", "0.5"), ("--M", "3"), ("--alpha1", "0.1"), ("--alpha2", "0.2"),
                              ("--delta", "0.01"), ("--grid-points", "3"))),
        *((study, flag, value) for study in ("stability", "sweep")
          for flag, value in (("--target-j", "0.1"),)),
    ])
    def test_setting_the_study_does_not_read_is_refused(self, capsys, monkeypatch, tmp_path, study, flag,
                                                         value):
        def refuse(*args, **kwargs):
            raise AssertionError("the sampler ran")

        monkeypatch.setattr(sampling, "multinomial_matrix", refuse)
        out = tmp_path / "new" / "s.csv"
        code = main(["study", *STUDY_ARGS[study], "--replications", "2000", flag, value, "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: the {study} study does not read {flag}; leave it out\n")
        assert list(tmp_path.iterdir()) == []

    def test_threshold_is_no_flag(self, capsys, tmp_path):
        # table1 counts PSI >= LEWIS_ACTION; the level of the Lewis rule is not a setting
        out = tmp_path / "new" / "t.csv"
        with pytest.raises(SystemExit) as exc:
            main(["study", *STUDY_ARGS["table1"], "--threshold", "0.3", "--out", str(out)])
        assert exc.value.code == EXIT_VALIDATION
        assert "error: unrecognized arguments: --threshold 0.3\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_config_key_the_study_does_not_read_is_refused(self, capsys, tmp_path):
        cfg, out = tmp_path / "cfg.ini", tmp_path / "s.csv"
        cfg.write_text("M = 2\nalpha1 = 0.1\ndelta_override = 0.01\n")  # M keeps its default
        code = main(["study", *STUDY_ARGS["stability"], "--config", str(cfg), "--grid-points", "3",
                     "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == ("error: the stability study does not read --alpha1, --delta, "
                                           "--grid-points; leave them out\n")
        assert not out.exists()

    def test_config_file_seed_reaches_study_spec(self, capsys, monkeypatch, tmp_path):
        specs = []
        monkeypatch.setattr(cli, "run_study", lambda spec, out: specs.append(spec) or out)
        cfg = tmp_path / "cfg.ini"
        # the largest is taken as --seed takes it; as a float it would round to 2**64 and be refused
        for seed in (9, 2**64 - 1):
            cfg.write_text(f"seed = {seed}\n")
            code = main(["study", "--study", "table1", "--out", str(tmp_path / "t.csv"),
                         "--n", "50", "--B", "5", "--config", str(cfg)])
            assert code == EXIT_OK
            assert specs[-1].seed == seed

    def test_n_grid_rejects_empty_entry(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code = main([
            "study", "--study", "table1", "--out", str(out), "--B", "5",
            "--n-grid", "50,,100", "--replications", "1000",
        ])
        assert code == EXIT_VALIDATION
        assert "--n-grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        ([], "--n-grid takes comma-separated integers, got ''"),
        (["--n", "5"], "either --n or --n-grid"),
    ], ids=["alone", "with-n"])
    def test_empty_n_grid_is_rejected(self, capsys, tmp_path, flags, message):
        out = tmp_path / "t.csv"
        code = main(["study", "--study", "table1", "--out", str(out), "--B", "5",
                     "--n-grid", "", "--replications", "1000", *flags])
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("study", ["table1", "stability"])
    def test_repeated_n_grid_size_is_refused_before_any_file(self, capsys, monkeypatch, tmp_path, study):
        # the size drew the same stream twice and wrote its row twice
        def refuse(*args, **kwargs):
            raise AssertionError("the sampler ran")

        monkeypatch.setattr(sampling, "multinomial_matrix", refuse)
        code = main(["study", "--study", study, "--out", str(tmp_path / "new" / "t.csv"), "--B", "5",
                     "--n-grid", "50,60,50", "--replications", "10"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: --n-grid repeats the sample size 50; give each size once\n"
        assert list(tmp_path.iterdir()) == []


STUDY_ARGS = {
    "table1": ["--study", "table1", "--B", "5", "--n-grid", "50,60"],
    "stability": ["--study", "stability", "--B", "5", "--n", "50"],
    "sweep": ["--study", "sweep", "--B", "5", "--n", "50", "--grid-points", "3"],
}


class TestStudyOut:
    """``--out`` into directories that do not exist yet."""

    @pytest.mark.parametrize("study", STUDY_ARGS)
    def test_new_directories_hold_the_same_artifact(self, capsys, tmp_path, study):
        argv = ["study", *STUDY_ARGS[study], "--replications", "2000", "--seed", "3"]
        flat, nested = tmp_path / "a.csv", tmp_path / "new" / "deeper" / "a.csv"
        assert main([*argv, "--out", str(flat)]) == EXIT_OK
        assert main([*argv, "--out", str(nested)]) == EXIT_OK
        assert nested.read_bytes() == flat.read_bytes()

    @pytest.mark.parametrize("study", STUDY_ARGS)
    @pytest.mark.parametrize("under", ["a.csv", "sub/a.csv"], ids=["in-file", "below-file"])
    def test_directory_that_cannot_be_made_exits_before_sampling(self, capsys, monkeypatch, tmp_path,
                                                                 study, under):
        def refuse(*args, **kwargs):
            raise AssertionError("the sampler ran")

        monkeypatch.setattr(sampling, "multinomial_matrix", refuse)
        blocker = tmp_path / "plain-file"
        blocker.write_text("")
        code = main(["study", *STUDY_ARGS[study], "--replications", "2000",
                     "--out", str(blocker / under)])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: [Errno ")
        assert str(blocker) in captured.err
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("study", STUDY_ARGS)
    def test_existing_directory_exits_before_sampling(self, capsys, monkeypatch, tmp_path, study):
        def refuse(*args, **kwargs):
            raise AssertionError("the sampler ran")

        monkeypatch.setattr(sampling, "multinomial_matrix", refuse)
        out = tmp_path / "outdir"
        out.mkdir()
        code = main(["study", *STUDY_ARGS[study], "--replications", "2000", "--out", str(out)])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(out)!r}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("end", ["", ".", ".."], ids=["separator", "dot", "dot-dot"])
    def test_name_ending_in_a_separator_exits_before_sampling(self, capsys, monkeypatch, tmp_path, end):
        # Path drops a trailing separator and ".": the artifact was written as a file named newdir
        def refuse(*args, **kwargs):
            raise AssertionError("the sampler ran")

        monkeypatch.setattr(sampling, "multinomial_matrix", refuse)
        out = str(tmp_path / "tsl" / "newdir") + os.sep + end
        code = main(["study", *STUDY_ARGS["table1"], "--replications", "2000", "--out", out])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: "
                                           f"{str(Path(out))!r}\n")
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_leaves_the_artifact_as_it_was(self, capsys, monkeypatch, tmp_path):
        def full_disk(fh, **kwargs):
            fh.write("n,B")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        artifact = tmp_path / "a.csv"
        argv = ["study", *STUDY_ARGS["table1"], "--replications", "2000", "--out", str(artifact)]
        assert main(argv) == EXIT_OK
        kept = artifact.read_bytes()
        monkeypatch.setattr(csv, "writer", full_disk)
        assert main([*argv, "--seed", "9"]) == EXIT_VALIDATION
        assert capsys.readouterr().err.endswith(f"{os.strerror(errno.ENOSPC)}\n")
        assert artifact.read_bytes() == kept
        assert list(tmp_path.iterdir()) == [artifact]

    def test_devnull_is_written_in_place(self, capsys):
        before = os.stat(os.devnull)
        argv = ["study", *STUDY_ARGS["table1"], "--replications", "2000", "--out", os.devnull]
        assert main(argv) == EXIT_OK
        after = os.lstat(os.devnull)
        assert stat.S_ISCHR(after.st_mode) and after.st_rdev == before.st_rdev
        assert after.st_ino == before.st_ino
        devnull = Path(os.devnull)
        assert list(devnull.parent.glob(f".{devnull.name}.*.tmp")) == []

    @pytest.fixture
    def table1_bytes(self, capsys, tmp_path):
        """(argv without --out, the artifact those flags write)."""
        argv = ["study", *STUDY_ARGS["table1"], "--replications", "2000"]
        flat = tmp_path / "flat.csv"
        assert main([*argv, "--out", str(flat)]) == EXIT_OK
        data = flat.read_bytes()
        flat.unlink()
        return argv, data

    def test_symlink_target_is_written(self, table1_bytes, tmp_path):
        argv, data = table1_bytes
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target)
        assert main([*argv, "--out", str(link)]) == EXIT_OK
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == data
        assert sorted(tmp_path.iterdir()) == [link, target]

    def test_hard_links_and_mode_are_kept(self, table1_bytes, tmp_path):
        argv, data = table1_bytes
        linked, twin, alone = tmp_path / "linked.csv", tmp_path / "twin.csv", tmp_path / "alone.csv"
        for path in (linked, alone):
            path.write_text("old\n")
            path.chmod(0o640)
        os.link(linked, twin)
        for path in (linked, alone):
            assert main([*argv, "--out", str(path)]) == EXIT_OK
        assert twin.read_bytes() == linked.read_bytes() == alone.read_bytes() == data
        assert os.path.samefile(linked, twin)
        assert stat.S_IMODE(alone.stat().st_mode) == stat.S_IMODE(linked.stat().st_mode) == 0o640
        assert sorted(tmp_path.iterdir()) == [alone, linked, twin]

    def test_directory_that_takes_no_new_file(self, capsys, monkeypatch, table1_bytes, tmp_path):
        argv, data = table1_bytes

        def no_new_file(file, mode="r", *args, **kwargs):
            if "x" in mode:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(file))
            return open(file, mode, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("the sampler ran")

        monkeypatch.setattr(simulation, "open", no_new_file, raising=False)
        artifact = tmp_path / "a.csv"
        artifact.write_text("old\n")
        assert main([*argv, "--out", str(artifact)]) == EXIT_OK
        assert artifact.read_bytes() == data
        monkeypatch.setattr(sampling, "multinomial_matrix", refuse)
        assert main([*argv, "--out", str(tmp_path / "new.csv")]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: [Errno {errno.EACCES}] ")
        assert list(tmp_path.iterdir()) == [artifact]


class TestParserReuse:
    """`main` builds its parser once per process; each call sees only its own flags."""

    @pytest.fixture
    def run(self, monkeypatch):
        """main(argv) -> (exit code, its command's namespace), checked against a fresh parser's."""
        seen = []
        build_config = cli._build_config
        monkeypatch.setattr(cli, "_build_config", lambda args: seen.append(vars(args)) or build_config(args))

        def run(argv):
            code = main(argv)
            args = seen.pop()
            assert args == vars(build_parsers()[0].parse_args(argv))
            return code, args
        return run

    def test_parser_is_built_once(self, capsys, reference_file):
        cli._parsers.cache_clear()
        for n in ("50", "60", "70"):
            assert main(["boundaries", "--reference", str(reference_file), "--n", n]) == EXIT_OK
        info = cli._parsers.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_history_flag_does_not_carry_over(self, capsys, run, tmp_path, reference_file, snapshot_file):
        history = tmp_path / "h.jsonl"
        other = tmp_path / "t2.csv"
        other.write_text("category,count\n1,4\n2,10\n3,11\n4,11\n5,14\n")
        base = ["--reference", str(reference_file), "--format", "json"]
        assert run(["monitor", "--snapshot", str(snapshot_file), *base, "--history", str(history)])[0] == EXIT_OK
        code, args = run(["monitor", "--snapshot", str(other), *base])
        assert code == EXIT_OK and args["history"] is None
        assert len(history.read_text().splitlines()) == 1

    def test_parse_error_leaves_nothing_behind(self, capsys, run, reference_file):
        with pytest.raises(SystemExit) as exc:
            main(["boundaries", "--reference", str(reference_file), "--format", "json",
                  "--c", "0.5", "--n", "fifty"])
        assert exc.value.code == EXIT_VALIDATION
        capsys.readouterr()
        code, args = run(["boundaries", "--reference", str(reference_file), "--n", "50"])
        assert code == EXIT_OK and args["c"] is None and args["format"] == "text"
        assert capsys.readouterr().out.startswith("(n=50, B=5)  delta=0.039598")

    def test_each_command_sees_its_own_defaults(self, capsys, run, monkeypatch, tmp_path, reference_file):
        specs = []
        monkeypatch.setattr(cli, "run_study", lambda spec, out: specs.append(spec) or out)
        boundaries = ["boundaries", "--reference", str(reference_file)]
        assert run([*boundaries, "--n", "50", "--c", "0.5", "--format", "json"])[0] == EXIT_OK
        code, args = run(["study", "--study", "table1", "--out", str(tmp_path / "t.csv"),
                          "--n-grid", "50", "--B", "5"])
        assert code == EXIT_OK and "reference" not in args and "format" not in args
        assert specs == [StudySpec(study="table1", B=5, ns=(50,))]
        code, args = run([*boundaries, "--n", "60"])
        assert code == EXIT_OK and "study" not in args and args["format"] == "text"

    def test_names_the_tracer_patches_are_looked_up_per_call(self, capsys, monkeypatch, tmp_path,
                                                              reference_file, snapshot_file):
        # perfbench's tracer wraps these names on cli, also after main has built its parser
        assert main(["boundaries", "--reference", str(reference_file), "--n", "50"]) == EXIT_OK
        calls = []
        for name in ("load_reference", "decision_boundaries", "append_history"):
            original = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, name=name, original=original, **k:
                                calls.append(name) or original(*a, **k))
        assert main(["boundaries", "--reference", str(reference_file), "--n", "50"]) == EXIT_OK
        assert main(["monitor", "--snapshot", str(snapshot_file), "--reference", str(reference_file),
                     "--history", str(tmp_path / "h.jsonl")]) == EXIT_OK
        assert calls == ["load_reference", "decision_boundaries", "load_reference", "append_history"]


# argv that argparse refuses or answers with help, each checked against the whole parser
PARSE_EXITS = {
    "no-command": [],
    "top-level-help": ["-h"],
    "unknown-command": ["bogus"],
    **{f"{command}-help": [command, "-h"] for command in OPTIONS},
    "missing-required-flags": ["study"],
    "bad-value": ["boundaries", "--reference", "ref.csv", "--n", "fifty"],
    "bad-choice": ["monitor", "--snapshot", "t1.csv", "--reference", "ref.csv", "--format", "xml"],
    "unrecognised-flag": ["boundaries", "--reference", "ref.csv", "--n", "50", "--seed", "5"],
    "retired-threshold": ["study", "--study", "table1", "--B", "5", "--n", "50", "--out", "t.csv",
                          "--threshold", "0.3"],
    "empty-snapshot": ["monitor", "--snapshot", "", "--reference", "ref.csv"],
    "empty-monitor-reference": ["monitor", "--snapshot", "t1.csv", "--reference", ""],
    "empty-history": ["monitor", "--snapshot", "t1.csv", "--reference", "ref.csv", "--history", ""],
    "empty-config": ["monitor", "--snapshot", "t1.csv", "--reference", "ref.csv", "--config", ""],
    "empty-boundaries-reference": ["boundaries", "--reference", "", "--n", "50"],
    "empty-out": ["study", "--study", "table1", "--B", "5", "--n", "50", "--out", ""],
}


class TestDispatch:
    """`main` parses a named command with that command's parser; its output is the whole parser's."""

    @pytest.mark.parametrize("argv", PARSE_EXITS.values(), ids=PARSE_EXITS)
    def test_exit_and_output_equal_the_whole_parser(self, capsys, argv):
        outcomes = []
        for parse in (main, build_parsers()[0].parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(list(argv))
            outcomes.append((exc.value.code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]

    def test_main_without_argv_reads_sys_argv(self, capsys, monkeypatch, reference_file):
        argv = ["boundaries", "--reference", str(reference_file), "--n", "50", "--format", "json"]
        assert main(argv) == EXIT_OK
        expected = capsys.readouterr()
        monkeypatch.setattr(sys, "argv", ["popres", *argv])
        assert main() == EXIT_OK
        assert capsys.readouterr() == expected

    def test_module_entry_point(self, reference_file):
        out = subprocess.run([sys.executable, "-m", "popres.cli", "boundaries", "--reference", str(reference_file),
                              "--n", "50"], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")})
        assert (out.returncode, out.stderr) == (EXIT_OK, "")
        assert out.stdout.startswith("(n=50, B=5)  delta=0.039598")
