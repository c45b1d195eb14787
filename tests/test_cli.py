"""End-to-end exercises of the command-line front end.

Everything runs in-process through main(argv); exit codes are the contract:
0 valid, 1 domain failure, 2 malformed input, 3 budget exceeded.
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from authdesigns import van_rees_array
from authdesigns.apa import apa_from_json
from authdesigns.balancing import matrix_from_json, matrix_to_json
from authdesigns.cli import EXIT_PIPE, main
from authdesigns.difference_families import df_from_json, df_to_json
from authdesigns.fileio import atomic_write_json, digest, load_json

from conftest import Z13_GOLDEN_ROWS, mutate_entry

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def z13_file(tmp_path, z13_df):
    path = tmp_path / "z13.json"
    atomic_write_json(df_to_json(z13_df), path)
    return path


@pytest.fixture()
def z13_matrix_file(tmp_path, z13_file, capsys):
    out = tmp_path / "z13-matrix.json"
    code = main(["build", str(z13_file), "--kind", "cdf",
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    return out


# ------------------------------------------------------------------ verify

def test_verify_cdf_valid(capsys, z13_file):
    code, out, _ = run(capsys, "verify", str(z13_file), "--kind", "cdf")
    assert code == 0
    assert "valid: true" in out
    report_path = z13_file.parent / (z13_file.name + ".report.json")
    report = json.loads(report_path.read_text())
    assert report["valid"] is True
    assert report["input_digest"] == digest(
        json.loads(z13_file.read_text()))


def test_verify_report_out_override(capsys, tmp_path, z13_file):
    out = tmp_path / "custom-report.json"
    code, _, _ = run(capsys, "verify", str(z13_file), "--kind", "cdf",
                     "--out", str(out))
    assert code == 0 and out.exists()


def test_verify_invalid_cdf(capsys, tmp_path, z13_df):
    doc = df_to_json(z13_df)
    doc["lambda"] = 2                      # wrong index
    path = tmp_path / "bad-lambda.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path), "--kind", "cdf")
    assert code == 1
    assert "valid: false" in out and "witness" in out


def test_refused_work_bound_too_long_to_print(capsys, tmp_path):
    # a v of 4,000 digits loads, but C(v, 2) has about 8,000: the budget
    # refusal names its number of digits and the command exits 3
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"v": 10**4000, "k": 3, "t": 2,
                                "blocks": [[0, 1, 2]]}))
    code, out, err = run(capsys, "verify", str(path), "--kind", "design")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "needs an int of 8000 digits elementary steps" in err


def test_verify_malformed_file(capsys, tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"v": 13, "lambda"')
    code, _, err = run(capsys, "verify", str(path), "--kind", "cdf")
    assert code == 2 and "error" in err


def test_verify_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", str(tmp_path / "nope.json"),
                       "--kind", "cdf")
    assert code == 2


def test_verify_design_needs_strength(capsys, tmp_path):
    code, _, _ = run(capsys, "catalog", "export", "complete-5-3",
                     "--out", str(tmp_path / "c53.json"))
    assert code == 0
    # stored t is picked up automatically
    code, out, _ = run(capsys, "verify", str(tmp_path / "c53.json"),
                       "--kind", "design")
    assert code == 0 and "valid: true" in out
    # without it, both design commands refuse, and --t supplies it
    path, out = tmp_path / "no-t.json", str(tmp_path / "out.json")
    path.write_text(json.dumps({**json.loads((tmp_path / "c53.json").read_text()),
                                "t": None}))
    for command, what in (("verify", "design verification"),
                          ("build", "building from a design")):
        assert run(capsys, command, str(path), "--kind", "design",
                   "--out", out) == (1, "", f"error: {what} needs a strength: "
                                           "pass --t or store \"t\" in the file\n")
        assert run(capsys, command, str(path), "--kind", "design", "--t", "3",
                   "--out", out)[0] == 0


def test_verify_apa_file(capsys, tmp_path):
    apa_path = tmp_path / "apa.json"
    code, _, _ = run(capsys, "apa", "--out", str(apa_path))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(apa_path), "--kind", "apa")
    assert code == 0 and "valid: true" in out


# ------------------------------------------------------------------- build

def test_build_reproduces_published_table(capsys, z13_matrix_file,
                                          z13_df):
    matrix = matrix_from_json(load_json(z13_matrix_file))
    assert matrix.rows == Z13_GOLDEN_ROWS
    doc = json.loads(z13_matrix_file.read_text())
    assert doc["provenance"]["source"] == "cdf"
    assert doc["provenance"]["input_digest"] == digest(df_to_json(z13_df))


def test_build_summary_line(capsys, z13_file, tmp_path):
    code, out, _ = run(capsys, "build", str(z13_file), "--kind", "cdf",
                       "--out", str(tmp_path / "m.json"))
    assert code == 0
    assert "v=13 k=3 b=26 b/v=2 class=optimal" in out


def test_build_table_dump(capsys, z13_file, tmp_path):
    code, out, _ = run(capsys, "build", str(z13_file), "--kind", "cdf",
                       "--table", "--out", str(tmp_path / "m.json"))
    assert code == 0
    assert "e_1" in out and "e_26" in out and "s_3" in out


def test_build_design_roundtrip(capsys, tmp_path):
    design_path = tmp_path / "c53.json"
    out_path = tmp_path / "c53-matrix.json"
    assert run(capsys, "catalog", "export", "complete-5-3",
               "--out", str(design_path))[0] == 0
    code, out, _ = run(capsys, "build", str(design_path), "--kind", "design",
                       "--out", str(out_path))
    assert code == 0
    matrix = matrix_from_json(load_json(out_path))
    assert (matrix.v, matrix.k, matrix.b) == (5, 3, 10)


def test_build_design_bytes_independent_of_hash_seed(capsys, tmp_path):
    # set and dict iteration order vary with PYTHONHASHSEED across processes
    design_path = tmp_path / "c53.json"
    assert run(capsys, "catalog", "export", "complete-5-3",
               "--out", str(design_path))[0] == 0
    outputs = []
    for seed in ("1", "2"):
        out_path = tmp_path / f"c53-matrix-{seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
        done = subprocess.run(
            [sys.executable, "-m", "authdesigns.cli", "build", str(design_path),
             "--kind", "design", "--out", str(out_path)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]


def test_a_closed_stdout_ends_quietly(capsys, tmp_path):
    # the reader takes one line of the 151 KB table and closes the pipe, as
    # `| head -1` does: the write that finds it closed ends the command with
    # exit 141, and nothing is printed, neither then nor at shutdown
    family = tmp_path / "f.json"
    assert run(capsys, "catalog", "export", "cdf-337-7-1",
               "--out", str(family))[0] == 0
    with subprocess.Popen(
            [sys.executable, "-m", "authdesigns.cli", "build", str(family),
             "--kind", "cdf", "--out", str(tmp_path / "m.json"), "--table"],
            env=dict(os.environ, PYTHONPATH=SRC), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"v=337 k=7 b=2696 b/v=8 class=optimal\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == EXIT_PIPE == 141
        assert proc.stderr.read() == b""


def test_build_refuses_indivisible_design(capsys, tmp_path):
    design_path = tmp_path / "ag.json"
    assert run(capsys, "catalog", "export", "ag-2-3",
               "--out", str(design_path))[0] == 0
    code, _, err = run(capsys, "build", str(design_path), "--kind", "design",
                       "--out", str(tmp_path / "m.json"))
    assert code == 1
    assert "v | b" in err or "divid" in err


def test_build_rejects_invalid_input(capsys, tmp_path, z13_df):
    doc = df_to_json(z13_df)
    doc["base_blocks"] = doc["base_blocks"][:1]     # half the differences gone
    path = tmp_path / "half.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "build", str(path), "--kind", "cdf",
                       "--out", str(tmp_path / "m.json"))
    assert code == 1 and "not a valid difference family" in err


@pytest.mark.parametrize("command", ["verify", "build"])
def test_cdf_with_an_index_sized_v_fails_cleanly(capsys, tmp_path, command):
    # the difference tally and the residue scan are bounded by the input,
    # not by v
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"v": 10**30, "lambda": 1,
                                "base_blocks": [[0, 1, 4], [0, 2, 7]]}))
    code, out, err = run(capsys, command, str(path), "--kind", "cdf",
                         "--out", str(tmp_path / "out.json"))
    assert code == 1
    if command == "verify":
        assert "valid: false" in out and err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "build"])
def test_cdf_tally_is_charged_before_it_runs(capsys, tmp_path, command):
    # one base block of 3,000 residues has 8,997,000 differences
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"v": 18 * 10**6, "lambda": 1,
                                "base_blocks": [list(range(3000))]}))
    code, out, err = run(capsys, command, str(path), "--kind", "cdf",
                         "--budget", "1000", "--out", str(tmp_path / "o.json"))
    assert code == 3 and out == ""
    assert err.startswith("error: difference tally") and err.count("\n") == 1


# ------------------------------------------------------------ import footprint

FOOTPRINT = """
import json, sys
before = set(sys.modules)
from authdesigns.cli import main
loaded = []
for argv in json.loads(sys.argv[1]):
    try:
        main(argv)
    except SystemExit:
        pass
    loaded.append(sorted(set(sys.modules) - before))
print(json.dumps({"preloaded": sorted({"dataclasses", "tempfile", "typing"}
                                      & before),
                  "loaded": loaded}))
"""


def test_commands_import_only_what_they_run(capsys, tmp_path,
                                            z13_file, z13_matrix_file):
    commands = [
        ["--help"],
        ["attack", str(z13_matrix_file), "--orders", "0-1"],
        ["attack", str(z13_matrix_file), "--model", "oracle-online"],
        ["catalog", "export", "complete-5-3", "--out", "c53.json"],
        ["build", "c53.json", "--kind", "design", "--out", "m.json"],
        ["build", str(z13_file), "--kind", "cdf", "--out", "m.json"],
        ["verify", str(z13_file), "--kind", "cdf", "--out", "r.json"],
        ["apa", "--out", "apa.json"],
        ["verify", "apa.json", "--kind", "apa", "--out", "r.json"],
        ["params", "--t", "2", "--v", "7", "--k", "3", "--lambda", "1"],
        ["catalog", "show", "cdf-13-3-1"],
    ]
    # -S: no site hook may preload `typing` or `dataclasses`
    done = subprocess.run(
        [sys.executable, "-S", "-c", FOOTPRINT, json.dumps(commands)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    help_loaded, attack_loaded = result["loaded"][:2]
    assert {m for m in help_loaded if m.startswith("authdesigns.")} <= {
        "authdesigns.cli", "authdesigns.errors", "authdesigns.budget",
        "authdesigns.fileio"}
    assert not {"authdesigns.catalog", "authdesigns.apa",
                "authdesigns.difference_families",
                "authdesigns.designs"} & set(attack_loaded)
    # none of the commands loads them, and none was there before to hide it
    assert result["preloaded"] == []
    assert not {"dataclasses", "tempfile", "typing"} & set(result["loaded"][-1])


def test_artifacts_get_the_umask_mode_and_errors_name_the_path(
        capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    umask = os.umask(0o022)
    try:
        assert run(capsys, "catalog", "export", "fano-cdf")[0] == 0
        out = tmp_path / "fano-cdf.json"
        assert oct(out.stat().st_mode & 0o777) == oct(0o644)
        out.chmod(0o600)
        assert run(capsys, "catalog", "export", "fano-cdf")[0] == 0
        assert oct(out.stat().st_mode & 0o777) == oct(0o644)
    finally:
        os.umask(umask)
    missing = str(tmp_path / "missing" / "x.json")
    code, _, err = run(capsys, "catalog", "export", "fano-cdf", "--out", missing)
    assert code == 2
    assert err == f"error: [Errno 2] No such file or directory: {missing!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fano-cdf.json"]


# ------------------------------------------------------------------ attack

def test_attack_classic_json(capsys, z13_matrix_file):
    code, out, _ = run(capsys, "attack", str(z13_matrix_file),
                       "--orders", "0,1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["model"] == "classic"
    assert doc["security_order"] == 1
    values = {entry["i"]: entry["value"] for entry in doc["orders"]}
    assert values[0] == {"num": "3", "den": "13"}
    assert values[1] == {"num": "1", "den": "6"}
    assert all(entry["tight"] for entry in doc["orders"])
    assert doc["input_digest"] == digest(
        json.loads(z13_matrix_file.read_text()))


def test_attack_order_ranges(capsys, z13_matrix_file):
    code, out, _ = run(capsys, "attack", str(z13_matrix_file),
                       "--orders", "0-2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [entry["i"] for entry in doc["orders"]] == [0, 1, 2]
    assert doc["orders"][2]["tight"] is False


def test_attack_oracle_models(capsys, tmp_path, fano_df):
    path = tmp_path / "fano.json"
    atomic_write_json(df_to_json(fano_df), path)
    mpath = tmp_path / "fano-matrix.json"
    assert run(capsys, "build", str(path), "--kind", "cdf",
               "--out", str(mpath))[0] == 0

    code, out, _ = run(capsys, "attack", str(mpath), "--model",
                       "oracle-offline", "--orders", "0-2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    for entry in doc["orders"]:
        assert entry["value"] == {"num": "3", "den": "7"}
        assert entry["tight"] is True

    code, out, _ = run(capsys, "attack", str(mpath), "--model",
                       "oracle-online", "--orders", "1")
    assert code == 0
    assert "i=1 value=5/7 bound=5/7 tight=yes" in out


def test_attack_on_mutated_matrix(capsys, tmp_path, fano_matrix):
    rng = random.Random(3)
    mutated, _ = mutate_entry(rng, fano_matrix)
    path = tmp_path / "mutated.json"
    atomic_write_json(matrix_to_json(mutated, {"source": "cdf"}), path)
    code, out, _ = run(capsys, "attack", str(path), "--orders", "0",
                       "--format", "json")
    assert code == 0                    # analysis of a leaky system is fine
    entry = json.loads(out)["orders"][0]
    assert entry["tight"] is False
    value = int(entry["value"]["num"]) / int(entry["value"]["den"])
    assert value > 3 / 7


FANO_LESS_A_ROW = [[0, 3, 4], [0, 5, 6], [1, 3, 5], [1, 4, 6], [2, 3, 6],
                   [2, 4, 5]]
Z7_TWO_ORBITS = [[(x + g) % 7 for x in base] for base in ((0, 1, 2), (0, 1, 3))
                 for g in range(7)]
# the same system, rows shuffled and each row's columns rotated
Z7_SHUFFLED = [[4, 5, 3], [0, 4, 5], [0, 2, 6], [3, 0, 1], [3, 5, 2], [6, 4, 5],
               [6, 1, 5], [4, 1, 2], [2, 3, 1], [2, 0, 1], [4, 6, 3], [1, 6, 0],
               [3, 4, 2], [0, 5, 6]]
Z7_LINES = ("i=0 value=3/7 bound=3/7 tight=yes",
            ("i=1 value=1/2 bound=1/3 tight=no", "i=2 value=1/2 bound=1/5 tight=no",
             "security order: 0"),
            ("i=1 value=11/14 bound=5/7 tight=no",
             "i=2 value=13/14 bound=31/35 tight=no"))


@pytest.mark.parametrize("rows, lines", [
    (FANO_LESS_A_ROW, ("i=0 value=1/2 bound=3/7 tight=no",
                       ("i=1 value=7/18 bound=1/3 tight=no",
                        "i=2 value=1 bound=1/5 tight=no", "security order: -1"),
                       ("i=1 value=5/6 bound=5/7 tight=no",
                        "i=2 value=1 bound=31/35 tight=no"))),
    (Z7_TWO_ORBITS, Z7_LINES),
    (Z7_SHUFFLED, Z7_LINES),
], ids=["fano-less-a-row", "z7-two-orbits", "z7-shuffled"])
def test_attack_values_off_the_closed_forms(capsys, tmp_path, rows, lines):
    # the Fano plane less a row fails the uniform pair check, so orders 1-2
    # run the shared-observation loop; the Z_7-orbits of {0,1,2} and {0,1,3}
    # are translation-invariant with uneven pairs, so the anchored count
    # runs and fails, and the shuffled copy must still be found invariant
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"v": 7, "k": 3, "b": len(rows), "rows": rows}))
    first, classic, online = lines
    for model, rest in (("classic", classic), ("oracle-online", online)):
        assert run(capsys, "attack", str(path), "--model", model,
                   "--orders", "0-2") == (0, "\n".join((first, *rest)) + "\n", "")


def test_attack_budget_exhaustion(capsys, z13_matrix_file):
    code, _, err = run(capsys, "attack", str(z13_matrix_file),
                       "--orders", "1", "--budget", "10")
    assert code == 3 and "budget" in err.lower()


def test_attack_budget_env(capsys, monkeypatch, z13_matrix_file):
    monkeypatch.setenv("AUTHDESIGNS_BUDGET", "10")
    code, _, _ = run(capsys, "attack", str(z13_matrix_file),
                     "--orders", "1")
    assert code == 3


def test_malformed_budget_env_is_malformed_input(capsys, monkeypatch,
                                                z13_matrix_file):
    # a value that is no integer exits 2, as --budget abc does; a value out
    # of range stays a domain failure
    for raw, expected in (("abc", 2), ("1.5", 2), ("", 2), ("0", 1), ("-3", 1)):
        monkeypatch.setenv("AUTHDESIGNS_BUDGET", raw)
        code, _, err = run(capsys, "attack", str(z13_matrix_file))
        assert code == expected, raw
        assert err.startswith("error: ") and err.count("\n") == 1, err
    monkeypatch.setenv("AUTHDESIGNS_BUDGET", "abc")
    assert run(capsys, "attack", str(z13_matrix_file))[2] == (
        "error: AUTHDESIGNS_BUDGET must be an integer, got 'abc'\n")
    monkeypatch.delenv("AUTHDESIGNS_BUDGET")
    assert run(capsys, "attack", str(z13_matrix_file), "--budget", "0")[0] == 1


# what int() reads but an integer option is not: "1_3" ran as v = 13, "٢"
# as t = 2, and the environment variable read " ١٠٠٠ " as 1000
NOT_ASCII_INTEGERS = ("1_3", "٢", "١٠٠٠", " ١٠٠٠ ", "+13", " 13", "13 ",
                      "0x1", "1.0", "--13", "-", "")


def test_integer_options_are_ascii_digits(capsys):
    # "--option=text", so that argparse takes "--13" and "-" as values
    params = {"--t": "2", "--v": "13", "--k": "3", "--lambda": "1"}
    for option in (*params, "--budget"):
        for text in NOT_ASCII_INTEGERS:
            argv = ["params", *(f"{o}={x}" for o, x in
                                {**params, option: text}.items())]
            with pytest.raises(SystemExit) as exc:
                main(argv)
            err = capsys.readouterr().err
            assert exc.value.code == 2, (option, text)
            assert f"argument {option}: invalid integer value: {text!r}" in err
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "export", "fano-cdf", "--budget", "١٠٠٠"])
    assert exc.value.code == 2 and "invalid integer" in capsys.readouterr().err
    # a leading '-' and leading zeros parse; range refusals still exit 1
    code, out, err = run(capsys, "catalog", "export", "fano-cdf",
                         "--budget", "-0012")
    assert (code, out, err) == (1, "", "error: budget must be >= 1, got -12\n")
    code, out, err = run(capsys, "params", "--t", "02", "--v", "-13", "--k",
                         "3", "--lambda", "1")
    assert (code, out, err) == (1, "", "error: v must be >= 1, got -13\n")
    assert run(capsys, "params", "--t", "02", "--v", "0013", "--k", "3",
               "--lambda", "1")[0] == 0


def test_budget_env_is_ascii_digits(capsys, monkeypatch, tmp_path):
    out = str(tmp_path / "f.json")
    for text in NOT_ASCII_INTEGERS:
        monkeypatch.setenv("AUTHDESIGNS_BUDGET", text)
        assert run(capsys, "catalog", "export", "fano-cdf", "--out", out) == (
            2, "", f"error: AUTHDESIGNS_BUDGET must be an integer, got {text!r}\n")
    monkeypatch.setenv("AUTHDESIGNS_BUDGET", "1000")
    assert run(capsys, "catalog", "export", "fano-cdf", "--out", out)[0] == 0
    monkeypatch.setenv("AUTHDESIGNS_BUDGET", "-1000")
    assert run(capsys, "catalog", "export", "fano-cdf", "--out", out)[0] == 1


def test_every_command_checks_the_budget_before_it_runs(
        capsys, monkeypatch, tmp_path, z13_file, z13_matrix_file):
    # catalog list charges nothing, catalog show and params only a
    # lambda_s table, and each still refuses a budget out of range (exit 1)
    # or a malformed AUTHDESIGNS_BUDGET (exit 2)
    out = str(tmp_path / "out.json")
    commands = [
        ["verify", str(z13_file), "--kind", "cdf", "--out", out],
        ["build", str(z13_file), "--kind", "cdf", "--out", out],
        ["attack", str(z13_matrix_file), "--out", out],
        ["params", "--t", "2", "--v", "13", "--k", "3", "--lambda", "1"],
        ["catalog", "list"], ["catalog", "show", "cdf-13-3-1"],
        ["catalog", "export", "fano-cdf", "--out", out], ["apa", "--out", out],
    ]
    for argv in commands:
        for budget in ("0", "-5"):
            assert run(capsys, *argv, "--budget", budget) == (
                1, "", f"error: budget must be >= 1, got {budget}\n"), argv
        monkeypatch.setenv("AUTHDESIGNS_BUDGET", "abc")
        assert run(capsys, *argv) == (
            2, "", "error: AUTHDESIGNS_BUDGET must be an integer, got 'abc'\n"), argv
        monkeypatch.setenv("AUTHDESIGNS_BUDGET", "0")
        assert run(capsys, *argv)[0] == 1, argv
        monkeypatch.delenv("AUTHDESIGNS_BUDGET")
        assert not os.path.exists(out), argv     # refused before any work
        assert run(capsys, *argv)[0] == 0, argv
        if os.path.exists(out):
            os.unlink(out)


def test_attack_rejects_garbage_orders(capsys, z13_matrix_file):
    code, _, _ = run(capsys, "attack", str(z13_matrix_file),
                     "--orders", "abc")
    assert code == 2


def test_attack_orders_are_ascii_digits_and_ascending_ranges(
        capsys, z13_matrix_file):
    # a reversed range used to drop out silently ("3-1,0" ran order 0
    # alone), "1_0" read as 10, "٣" as 3 and empty items were skipped
    for orders in ("3-1,0", "2-1", "1_0", "٣", "0-٢", "0,,1", ",0", "0,",
                   "", " 1", "0, 1", "0-", "-1", "1-2-3", "+1", "0x1"):
        code, out, err = run(capsys, "attack", str(z13_matrix_file),
                             "--orders", orders)
        assert (code, out) == (2, ""), orders
        assert err == f"error: cannot parse --orders {orders!r}\n", orders
    code, out, _ = run(capsys, "attack", str(z13_matrix_file), "--orders",
                       "2,0-1,1-1", "--format", "json")
    assert code == 0
    assert [entry["i"] for entry in json.loads(out)["orders"]] == [0, 1, 2]


def test_attack_rejects_out_of_range_orders_before_expanding(
        capsys, z13_matrix_file):
    # a range reaching 10^10 would be a set of 10^10 ints if expanded;
    # each part is bounded first: i < k = 3 classic, i <= v-1 = 12 oracle
    for model, orders in (("classic", "0-10000000000"), ("classic", "0-3"),
                          ("oracle-offline", "13"),
                          ("oracle-online", "0-10000000000")):
        code, out, err = run(capsys, "attack", str(z13_matrix_file),
                             "--model", model, "--orders", orders)
        assert code == 1, (model, orders)
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must satisfy" in err
    code, _, _ = run(capsys, "attack", str(z13_matrix_file),
                     "--model", "oracle-online", "--orders", "12")
    assert code == 0


def test_attack_order_refusals_are_the_librarys(capsys, z13_matrix_file):
    for model, orders, message in (
            ("classic", "0,3", "attack order must satisfy 0 <= i < k=3, got 3"),
            ("oracle-online", "1-13", "oracle game order must satisfy "
                                      "0 <= i <= v-1=12, got 13")):
        code, _, err = run(capsys, "attack", str(z13_matrix_file),
                           "--model", model, "--orders", orders)
        assert (code, err) == (1, f"error: {message}\n")


def test_attack_rejects_malformed_matrix(capsys, tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(
        {"v": 4, "k": 2, "b": 2, "rows": [[0, 1], [1, 0]]}))
    code, _, _ = run(capsys, "attack", str(path), "--orders", "0")
    assert code == 2


def assert_one_error_line(code, err):
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, doc", [
    (["attack"], {"v": 7, "k": 3, "b": 1, "rows": [5]}),
    (["build", "--kind", "cdf"], {"v": 7, "lambda": 1, "base_blocks": [5]}),
    (["verify", "--kind", "design"], {"v": 7, "k": 3, "blocks": [5]}),
    (["verify", "--kind", "apa"],
     {"t": 2, "k": 3, "v": 11, "lambda": 1, "rows": [5]}),
], ids=["attack", "build-cdf", "verify-design", "verify-apa"])
def test_bare_number_in_place_of_a_row(capsys, tmp_path, argv, doc):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, argv[0], str(path), *argv[1:],
                       "--out", str(tmp_path / "out.json"))
    assert_one_error_line(code, err)


@pytest.mark.parametrize("argv, doc, code, names", [
    (["attack"], {"v": 7, "k": 3, "b": 1, "rows": ["x" * 10**6]}, 2,
     "offenders=[(0, ('x', "),
    (["attack"], {"v": 7, "k": 3, "b": 1, "rows": [list(range(10**6))]}, 2,
     "offenders=[(0, (0, 1, "),
    (["attack"], {"v": "x" * 10**6, "k": 3, "b": 1, "rows": [[0, 1, 2]]}, 2,
     "error: v must be an integer, got 'xxx"),
    (["verify", "--kind", "cdf"],
     {"v": 13, "lambda": [1] * 10**6, "base_blocks": [[0, 1, 4], [0, 2, 7]]}, 2,
     "error: lambda must be an integer, got [1, 1, "),
    # one block of 1000 points, declared lambda 2: the witness is the block
    (["build", "--kind", "design"], {"v": 1000, "k": 1000, "t": 1000, "lambda": 2,
                                     "blocks": [list(range(1000))]}, 1,
     "error: input is not a valid 1000-design: "
     "(((0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ...), 1),)"),
    # verify reports the same witness on stdout
    (["verify", "--kind", "design"], {"v": 1000, "k": 1000, "t": 1000, "lambda": 2,
                                      "blocks": [list(range(1000))]}, 1,
     "failure: witness=(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ...) observed=1\n"),
    # a declared int of 4,001 digits is named by its number of digits
    (["attack"], {"v": 7, "k": 10**4000, "b": 1, "rows": [[0, 1, 2]]}, 2,
     "error: each row must hold an int of 4001 digits distinct integers"),
    (["attack"], {"v": 7, "k": 3, "b": 10**4000, "rows": [[0, 1, 2]]}, 2,
     "error: declared b=an int of 4001 digits but found 1 rows\n"),
    (["verify", "--kind", "design"], {"v": 7, "k": 10**4000, "blocks": [[0, 1, 2]]},
     2, "error: declared k=an int of 4001 digits but blocks have size 3\n"),
], ids=["text-row", "long-row", "text-v", "list-lambda", "witness",
        "verify-witness", "huge-k", "huge-b", "huge-design-k"])
def test_refusals_echo_bounded_values(capsys, tmp_path, argv, doc, code, names):
    # a value of any size is echoed in at most fileio.SHOW_LIMIT characters
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    got, out, err = run(capsys, argv[0], str(path), *argv[1:],
                        "--out", str(tmp_path / "out.json"))
    # verify reports an invalid input on stdout; a refusal is one error: line
    report = argv[0] == "verify" and code == 1
    text = out if report else err
    assert (got, out + err, text.count("\n")) == (code, text, 4 if report else 1)
    assert len(text.encode()) <= 1000 and names in text


@pytest.mark.parametrize("argv, doc, refusal", [
    (["build", "--kind", "cdf"], {"v": 3, "lambda": 3, "base_blocks": [[0, 1, 2]]},
     (1, "base block (0, 1, 2) has a short orbit (stabilized by g=1); "
         "only full-orbit families are supported")),
    (["build", "--kind", "cdf"],
     {"v": 7, "lambda": 2, "base_blocks": [[1, 2, 4], [2, 4, 1]]},
     (1, "base blocks (1, 2, 4) and (2, 4, 1) lie in the same translation orbit")),
    (["build", "--kind", "cdf"],
     {"v": 200, "lambda": 200, "base_blocks": [list(range(200))]},
     (1, "base block (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ...) has a short orbit "
         "(stabilized by g=1); only full-orbit families are supported")),
    (["attack"], {"v": 7, "k": 3, "b": 1, "rows": "xyz"},
     (2, "the rows must form a sequence")),
    # JSON text, as json.dumps writes no repeated name
    (["attack"], '{"v": 3, "k": 3, "b": 1, "rows": [[0, 1, 2]], "v": 4}',
     (2, "repeated object name 'v'")),
    # the lambda_s table is charged 17 steps per level before it is built
    (["params", "--t", "5000", "--v", "100000", "--k", "7500", "--lambda", "1",
      "--budget", "1000"], None,
     (3, "lambda_s table of a 5000-design needs 85000 elementary steps, "
         "budget is 1000")),
    (["params", "--t", "20000", "--v", "400000", "--k", "30000", "--lambda",
      "1", "--budget", "1000"], None,
     (3, "lambda_s table of a 20000-design needs 340000 elementary steps, "
         "budget is 1000")),
    # --budget reaches the table of a parameter row and of the Teirlinck
    # family too
    (["catalog", "show", "params-8-31-10-100", "--budget", "100"], None,
     (3, "lambda_s table of a 8-design needs 136 elementary steps, "
         "budget is 100")),
    (["params", "--teirlinck", "--t", "2", "--v", "23330", "--budget", "10"],
     None, (3, "lambda_s table of a 2-design needs 34 elementary steps, "
               "budget is 10")),
    # one setup charge, 8·v + 24·b·k = 560 on the Fano matrix, covers every
    # stage of an analysis call before its loop
    (["attack", "--budget", "559"],
     {"v": 7, "k": 3, "b": 7,
      "rows": [[(x + g) % 7 for x in (1, 2, 4)] for g in range(7)]},
     (3, "analysis setup over 7 keys needs 560 elementary steps, "
         "budget is 559")),
], ids=["short-orbit", "same-orbit", "short-orbit-v200", "text-rows",
        "repeated-name", "params-t5000", "params-t20000", "catalog-show-params",
        "params-teirlinck", "attack-setup"])
def test_refusals_exit_with_their_codes(capsys, tmp_path, argv, doc, refusal):
    # the two families pass verify_df, but would develop repeated rows; a
    # command with no document reads no file
    path, out = tmp_path / "doc.json", tmp_path / "out.json"
    if doc is not None:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        argv = [argv[0], str(path), *argv[1:]]
    code, message = refusal
    assert run(capsys, *argv, "--out", str(out)) == (
        code, "", f"error: {message}\n")
    assert not out.exists()


def test_attack_rejects_non_utf8_file(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    code, _, err = run(capsys, "attack", str(path))
    assert_one_error_line(code, err)


def test_json_is_read_as_utf8_whatever_the_locale(tmp_path):
    # JSON text is UTF-8 (RFC 8259): a non-ASCII provenance source reads
    # the same under the C locale with UTF-8 mode off as under UTF-8 mode
    doc = {"v": 7, "k": 3, "b": 7,
           "rows": [[g, (g + 1) % 7, (g + 3) % 7] for g in range(7)],
           "provenance": {"source": "café"}}
    path = tmp_path / "u.json"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    digests = []
    for mode in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUTF8=mode,
                   PYTHONCOERCECLOCALE="0", LC_ALL="C")
        done = subprocess.run(
            [sys.executable, "-m", "authdesigns.cli", "attack", str(path),
             "--format", "json"],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (mode, done.stderr)
        digests.append(json.loads(done.stdout)["input_digest"])
    assert digests[0] == digests[1] == digest(doc)


def test_attack_rejects_directory(capsys, tmp_path):
    code, _, err = run(capsys, "attack", str(tmp_path))
    assert_one_error_line(code, err)


def test_attack_rejects_deeply_nested_json(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, _, err = run(capsys, "attack", str(path))
    assert_one_error_line(code, err)


def test_attack_rejects_integer_past_the_digit_limit(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text('{"v": 1' + "0" * 5000 + ', "k": 3, "b": 1, "rows": [[0, 1, 2]]}')
    code, _, err = run(capsys, "attack", str(path))
    assert_one_error_line(code, err)


@pytest.mark.parametrize("argv", [
    ["catalog", "export", "fano-cdf"],
    ["verify", "{source}", "--kind", "cdf"],
    ["build", "{source}", "--kind", "cdf"],
    ["attack", "{matrix}"],
    ["apa"],
], ids=["export", "verify", "build", "attack", "apa"])
def test_out_naming_a_directory(capsys, tmp_path, z13_file, z13_matrix_file,
                                argv):
    target = tmp_path / "dir"
    target.mkdir()
    argv = [a.format(source=z13_file, matrix=z13_matrix_file) for a in argv]
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert_one_error_line(code, err)
    assert out == ""
    assert not list(tmp_path.rglob("*.tmp"))


def test_oracle_online_v337_at_default_budget(capsys, tmp_path):
    family, matrix = tmp_path / "cdf337.json", tmp_path / "cdf337-matrix.json"
    assert run(capsys, "catalog", "export", "cdf-337-7-1",
               "--out", str(family))[0] == 0
    assert run(capsys, "build", str(family), "--kind", "cdf",
               "--out", str(matrix))[0] == 0
    # orders 2..4 < k = 7 are the Steiner closed form ((i+1)·(r-1) + 1)/b,
    # r = 56; with the translation check, the mask loop at order 4 would be
    # charged 1,068,210,124 steps, past the default budget of 10^8
    code, out, _ = run(capsys, "attack", str(matrix), "--model",
                       "oracle-online", "--orders", "0-4")
    assert code == 0
    assert "i=1 value=111/2696 bound=111/2696 tight=yes" in out
    for i, value in ((2, "83/1348"), (3, "221/2696"), (4, "69/674")):
        assert f"i={i} value={value} bound=" in out


# ------------------------------------------------------------------ params

def test_params_admissible(capsys):
    code, out, _ = run(capsys, "params", "--t", "6", "--v", "19", "--k", "7",
                       "--lambda", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["admissible"] is True
    assert doc["b"] == "15504"
    assert doc["b_opt"] == {"num": "3876", "den": "1"}
    assert doc["optimality_class"] == "near_optimal"
    assert doc["divisible"] is True


def test_params_lambda_table(capsys):
    code, out, _ = run(capsys, "params", "--t", "2", "--v", "13", "--k", "3",
                       "--lambda", "1")
    assert code == 0
    assert "lambda_0 = 26" in out and "lambda_1 = 6" in out \
        and "lambda_2 = 1" in out


def test_params_inadmissible(capsys):
    code, out, _ = run(capsys, "params", "--t", "2", "--v", "8", "--k", "3",
                       "--lambda", "1", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["admissible"] is False
    fractional = [e for e in doc["lambda_s"] if e["value"]["den"] != "1"]
    assert fractional


def test_params_missing_arguments(capsys):
    code, _, err = run(capsys, "params", "--t", "2", "--v", "13")
    assert code == 1 and "needs" in err


def test_params_teirlinck(capsys):
    code, out, _ = run(capsys, "params", "--teirlinck", "--t", "2",
                       "--v", "7778", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["b"] == str(2592 * math.comb(7778, 2))
    assert doc["lambda"] == "7776"

    code, _, err = run(capsys, "params", "--teirlinck", "--t", "2",
                       "--v", "7777")
    assert code == 1 and "mod" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", [
    # the modulus 51!^101 has about 6,700 digits
    ["--teirlinck", "--t", "50", "--v", "1"],
    # refused from the bit length of v, without building the modulus
    ["--teirlinck", "--t", "10000", "--v", "1"],
    # valid, but b = 2592·C(v,2) has about 4,400 digits
    ["--teirlinck", "--t", "2", "--v", str(2 + 7776 * 10 ** 2200)],
    ["--t", "2", "--v", str(10 ** 2200), "--k", "2", "--lambda", "1"],
], ids=["modulus", "t-10000", "teirlinck-b", "b"])
def test_params_too_long_to_print(capsys, argv, fmt):
    code, out, err = run(capsys, "params", *argv, "--format", fmt)
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


# ----------------------------------------------------------------- catalog

def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert len(out.strip().splitlines()) >= 20
    code, out, _ = run(capsys, "catalog", "list", "--format", "json")
    assert code == 0
    names = [entry["name"] for entry in json.loads(out)]
    assert "cdf-13-3-1" in names and "van-rees-apa" in names


def test_catalog_show_params_row(capsys):
    code, out, _ = run(capsys, "catalog", "show", "params-6-19-7-4")
    assert code == 0
    assert "3876" in out and "near_optimal" in out


def test_catalog_show_unknown(capsys):
    code, _, err = run(capsys, "catalog", "show", "nope")
    assert code == 1
    assert err == "error: unknown catalog entry 'nope'\n"


def test_internal_key_error_is_not_an_unknown_entry(monkeypatch):
    # only the catalog lookup turns a KeyError into exit 1; any other
    # KeyError is a fault and propagates
    from authdesigns import cli

    def broken(args):
        raise KeyError("x")

    monkeypatch.setattr(cli, "cmd_params", broken)
    with pytest.raises(KeyError):
        main(["params", "--t", "2", "--v", "7", "--k", "3", "--lambda", "1"])


def test_catalog_export_cdf_equals_library(capsys, tmp_path, z13_df):
    out = tmp_path / "x.json"
    code, _, _ = run(capsys, "catalog", "export", "cdf-13-3-1",
                     "--out", str(out))
    assert code == 0
    assert df_from_json(load_json(out)) == z13_df


def test_catalog_export_default_path(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "catalog", "export", "fano-cdf")
    assert code == 0
    assert (tmp_path / "fano-cdf.json").exists()


def test_catalog_export_params_only_refused(capsys, tmp_path):
    code, _, err = run(capsys, "catalog", "export", "params-4-11-5-1",
                       "--out", str(tmp_path / "x.json"))
    assert code == 1 and "parameter-only" in err


@pytest.mark.parametrize("name, cost", [
    ("complete-5-3", 30),       # C(5,3) blocks, then verify_design at t = 3
    ("ag-2-3", 108),            # verify_design at t = 2
    ("cdf-337-7-1", 1008),      # verify_df
    ("netto-97", 1210),         # netto_triples
    ("van-rees-apa", 3245),     # verify_apa
])
def test_catalog_export_honours_the_budget(capsys, tmp_path, monkeypatch,
                                           name, cost):
    # --budget and AUTHDESIGNS_BUDGET both reach every loader of the entry
    monkeypatch.delenv("AUTHDESIGNS_BUDGET", raising=False)
    out = tmp_path / "x.json"
    export = ["catalog", "export", name, "--out", str(out)]
    for flag in (True, False):
        if flag:
            code, stdout, err = run(capsys, *export, "--budget", str(cost - 1))
        else:
            monkeypatch.setenv("AUTHDESIGNS_BUDGET", str(cost - 1))
            code, stdout, err = run(capsys, *export)
        assert (code, stdout) == (3, ""), (name, flag)
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()
    # the flag wins over the environment, in every generator and verifier
    monkeypatch.setenv("AUTHDESIGNS_BUDGET", "5")
    assert run(capsys, *export, "--budget", str(cost))[0] == 0
    assert out.exists()


def test_catalog_action_needs_name(capsys):
    code, _, err = run(capsys, "catalog", "show")
    assert code == 1


# --------------------------------------------------------------------- apa

def test_apa_command(capsys, tmp_path):
    out = tmp_path / "apa.json"
    code, text, _ = run(capsys, "apa", "--out", str(out))
    assert code == 0
    assert "55 rows, valid: true" in text
    assert apa_from_json(load_json(out)) == van_rees_array()


def test_apa_command_honours_the_budget(capsys, monkeypatch):
    # the array is built and verified under --budget, not the environment
    monkeypatch.setenv("AUTHDESIGNS_BUDGET", "5")
    assert run(capsys, "apa", "--budget", "3245")[0] == 0
    code, out, err = run(capsys, "apa", "--budget", "3244")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_apa_command_verifies_once(capsys, monkeypatch):
    # the array is verified as it is built; the report reuses that verdict
    from authdesigns import apa

    calls = []
    verify = apa.verify_apa
    monkeypatch.setattr(apa, "verify_apa",
                        lambda *args: calls.append(args) or verify(*args))
    for argv in (["apa"], ["apa", "--format", "json"]):
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == 1, argv
