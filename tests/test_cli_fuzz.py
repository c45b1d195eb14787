"""Seeded fuzz of the command line, in-process through main(argv).

Valid catalog exports (a CDF, a 3-design, an APA) and a built matrix are
mutated by byte flips, truncations and JSON type swaps, then run through
verify, build and the three attack models.  Every run must return an exit
code in {0, 1, 2, 3} without raising, and a failing run must say why on one
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
                capsys.readouterr()
                try:
                    code = main(argv)
                except Exception as exc:   # the bug this test looks for
                    pytest.fail(f"{argv} raised {exc!r} on {mutant!r}")
                out, err = capsys.readouterr()
                assert code in (0, 1, 2, 3), (argv, mutant)
                if code and not (code == 1 and "valid: false" in out
                                 and not err):
                    assert err.startswith("error: ") and \
                        err.count("\n") == 1, (argv, mutant, err)
                runs += 1
    assert runs == MUTANTS_PER_SOURCE * 8
