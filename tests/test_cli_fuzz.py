"""Seeded fuzz of the command line, in-process through main(argv).

Valid catalog exports (a CDF, a 3-design, an APA) and a built matrix are
mutated by byte flips, truncations and JSON type swaps, then run through
verify, build and the three attack models; so are random documents built
from the format keys alone.  Every run must return an exit code in
{0, 1, 2, 3} without raising, and a failing run must say why on one
`error:` line (a failed verification reports `valid: false` instead).
"""

import json
import random

import pytest

from authdesigns.cli import main

SEED = 7
MUTANTS_PER_SOURCE = 120

# values swapped in for a field, a row or one entry of a row
SWAPS = (None, True, False, 0.5, 3.0, -1, 0, 10**30, "3", "x", [], [0],
         [[0, 1]], {"v": 7})

SOURCES = {
    "cdf": (["catalog", "export", "cdf-13-3-1"],
            [["verify", "--kind", "cdf"], ["build", "--kind", "cdf"]]),
    "design": (["catalog", "export", "complete-5-3"],
               [["verify", "--kind", "design"], ["build", "--kind", "design"]]),
    "apa": (["catalog", "export", "van-rees-apa"],
            [["verify", "--kind", "apa"]]),
    "matrix": (["build", "cdf.json", "--kind", "cdf"],
               [["attack", "--orders", "0-1", "--model", model]
                for model in ("classic", "oracle-offline", "oracle-online")]),
}


def swap(rng, doc):
    """Replace the whole document, a field, a row, or one entry of a row."""
    value = rng.choice(SWAPS)
    if not isinstance(doc, dict) or rng.random() < 0.05:
        return value
    key = rng.choice(sorted(doc))
    rows = doc[key]
    if isinstance(rows, list) and rows and rng.random() < 0.8:
        i = rng.randrange(len(rows))
        if isinstance(rows[i], list) and rows[i] and rng.random() < 0.7:
            rows[i][rng.randrange(len(rows[i]))] = value
        else:
            rows[i] = value
    else:
        doc[key] = value
    return doc


def mutants(rng, data):
    for _ in range(MUTANTS_PER_SOURCE):
        kind = rng.randrange(3)
        if kind == 0:
            flipped = bytearray(data)
            for _ in range(rng.randint(1, 3)):
                # half the flips write a digit, so the JSON often stays valid
                flipped[rng.randrange(len(flipped))] = rng.choice(
                    (rng.randrange(256), rng.choice(b"0123456789")))
            yield bytes(flipped)
        elif kind == 1:
            yield data[:rng.randrange(len(data))]
        else:
            yield json.dumps(swap(rng, json.loads(data))).encode()


def assert_exits_cleanly(capsys, argv, data):
    capsys.readouterr()
    try:
        code = main(argv)
    except Exception as exc:   # the bug this test looks for
        pytest.fail(f"{argv} raised {exc!r} on {data!r}")
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), (argv, data)
    if code and not (code == 1 and "valid: false" in out and not err):
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, data, err)


def test_mutated_inputs_exit_cleanly(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(SEED)
    runs = 0
    for name, (make, commands) in SOURCES.items():
        assert main(make + ["--out", f"{name}.json"]) == 0
        data = (tmp_path / f"{name}.json").read_bytes()
        for mutant in mutants(rng, data):
            (tmp_path / "mutant.json").write_bytes(mutant)
            for command in commands:
                argv = [command[0], "mutant.json", *command[1:],
                        "--out", "out.json"]
                assert_exits_cleanly(capsys, argv, mutant)
                runs += 1
    assert runs == MUTANTS_PER_SOURCE * 8


# every key of the four file formats, and values of every JSON type
FORMAT_KEYS = ("v", "k", "b", "t", "lambda", "rows", "blocks", "base_blocks")
SCALARS = (0, -1, 10**30, True, False, 0.5, 3.0, "3", "x", None)
DOCUMENTS = 150


def random_value(rng, depth=0):
    """A scalar, or at depth 0 or 1 sometimes a list of up to three values."""
    if depth < 2 and rng.random() < 0.4:
        return [random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return rng.choice(SCALARS)


def test_random_documents_exit_cleanly(capsys, tmp_path, monkeypatch):
    # each key is read by a record or by the reader itself, never twice:
    # whichever refuses it, the refusal is one line
    monkeypatch.chdir(tmp_path)
    rng = random.Random(SEED)
    commands = [command for _, commands in SOURCES.values()
                for command in commands]
    assert len(commands) == 8
    for _ in range(DOCUMENTS):
        doc = {key: random_value(rng) for key in FORMAT_KEYS
               if rng.random() < 0.75}
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        for command in commands:
            argv = [command[0], "doc.json", *command[1:], "--out", "out.json"]
            assert_exits_cleanly(capsys, argv, doc)
