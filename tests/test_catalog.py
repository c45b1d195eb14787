"""Bundled constructions and published parameter rows."""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from authdesigns import (
    DifferenceFamily,
    DomainError,
    PerpendicularArray,
    SecrecySystem,
    balance,
    deception_probability,
    develop_matrix,
    lambda_table,
    massey_schobi_bound,
    netto_triples,
    perfect_secrecy_check,
    verify_apa,
    verify_balanced,
    verify_design,
    verify_df,
)
from authdesigns import catalog
from authdesigns.apa import apa_to_json
from authdesigns.cli import main
from authdesigns.designs import design_to_json
from authdesigns.difference_families import df_to_json
from authdesigns.fileio import digest, load_json
from conftest import buildable_names

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "authdesigns"


def test_registry_shape():
    entries = catalog.entries()
    assert len(entries) >= 20
    names = [e.name for e in entries]
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert {e.kind for e in entries} == {"design", "cdf", "apa", "params-only"}


def test_catalog_names_are_unique():
    # the registry is one dict keyed by name, so a repeated name would drop
    # an entry: every table row and each of the three single entries
    # (complete-5-3, ag-2-3, van-rees-apa) must leave one entry
    tables = (catalog._CDFS, catalog._NETTO_PRIMES, catalog._STEINER_ROWS,
              catalog._T67_ROWS, catalog._T8_ROWS)
    assert len(catalog.entries()) == sum(map(len, tables)) + 3


def test_get_unknown_name():
    with pytest.raises(KeyError):
        catalog.get("no-such-entry")


def test_every_payload_verifies():
    for entry in catalog.entries():
        payload = catalog.load_payload(entry.name)
        if entry.kind == "params-only":
            assert payload is None
        elif entry.kind == "cdf":
            assert isinstance(payload, DifferenceFamily)
            p = entry.params
            assert (payload.v, payload.k, payload.lambda_) == (p.v, p.k, p.lambda_)
            assert verify_df(payload).valid
        elif entry.kind == "design":
            design, t, lam = payload
            p = entry.params
            assert (design.v, design.k, t, lam) == (p.v, p.k, p.t, p.lambda_)
            assert verify_design(design, t, lambda_=lam).valid
        else:
            assert isinstance(payload, PerpendicularArray)
            assert verify_apa(payload).valid


def test_param_rows_match_key_bound(capsys):
    rows = [e for e in catalog.entries() if e.params is not None]
    assert sum(e.kind == "params-only" for e in rows) >= 20
    for entry in rows:
        p = entry.params
        assert main(["catalog", "show", entry.name, "--format", "json"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert main(["params", "--t", str(p.t), "--v", str(p.v), "--k", str(p.k),
                     "--lambda", str(p.lambda_), "--format", "json"]) == 0
        computed = json.loads(capsys.readouterr().out)
        # both commands give the same numbers, and those of the closed form
        bound = Fraction(comb(p.v, p.t), comb(p.k, p.t))
        b = p.lambda_ * bound
        kind = ("optimal" if p.lambda_ == 1 else
                "near_optimal" if p.lambda_ <= 10 else "other")
        expected = (str(b), {"num": str(bound.numerator),
                             "den": str(bound.denominator)}, b % p.v == 0, kind)
        assert (shown["b"], shown["b_opt_exact"], shown["divisible"],
                shown["optimality_class"]) == expected, entry.name
        assert (computed["b"], computed["b_opt"], computed["divisible"],
                computed["optimality_class"]) == expected, entry.name
        if entry.kind == "params-only":
            assert massey_schobi_bound(p.v, p.k, p.t) == entry.b_opt   # published
            assert b == p.lambda_ * entry.b_opt   # and b sits lambda above it
            assert shown["divisible"], entry.name


def test_netto_entries_match_generator():
    df = catalog.load_payload("netto-13")
    assert df == netto_triples(13)


def test_buildable_systems_are_sound():
    for name in buildable_names():
        entry = catalog.get(name)
        payload = catalog.load_payload(name)
        if entry.kind == "cdf":
            matrix = develop_matrix(payload)
        else:
            design, t, lam = payload
            if lambda_table(entry.params)[0] % entry.params.v:
                with pytest.raises(DomainError):
                    balance(design)
                continue
            matrix = balance(design)
        assert verify_balanced(matrix).valid, name
        ok, witness = perfect_secrecy_check(matrix)
        assert ok, (name, witness)
        assert matrix.b == lambda_table(entry.params)[0]


def test_z13_entry_is_the_published_system():
    df = catalog.load_payload("cdf-13-3-1")
    system = SecrecySystem(develop_matrix(df))
    from fractions import Fraction

    assert deception_probability(system, 0) == Fraction(3, 13)
    assert deception_probability(system, 1) == Fraction(1, 6)


def test_entries_have_documentation():
    for entry in catalog.entries():
        assert entry.summary and isinstance(entry.summary, str)


def _export_doc(entry, payload):
    if entry.kind == "design":
        return design_to_json(*payload)
    return df_to_json(payload) if entry.kind == "cdf" else apa_to_json(payload)


def test_corpus_is_pinned():
    # every payload's export document, in name order: any change to a
    # family, design or array shows here
    docs = [[e.name, _export_doc(e, catalog.load_payload(e.name))]
            for e in catalog.entries() if e.loader is not None]
    assert len(docs) == 23
    assert digest(docs) == ("6898892a50e66431b5dc1e4e0d32c945"
                            "ec0d5e00c7fc842737e4e3daa6fcabdf")
    # and every entry's text and parameters, as `catalog list` shows them
    rows = [[e.name, e.kind, e.summary, e.note, e.b_opt, e.params and [
        e.params.t, e.params.v, e.params.k, e.params.lambda_]]
        for e in catalog.entries()]
    assert len(rows) == 50
    assert digest(rows) == ("2dbfe83f98c2ec299e025c4d7a4a3c2b"
                            "8a19ef0096963c68bbd888eb3bc090ab")


def test_modules_alone_export_the_corpus(tmp_path):
    # the package ships no data files: its .py files are the whole corpus
    (tmp_path / "lib" / "authdesigns").mkdir(parents=True)
    for path in PACKAGE.glob("*.py"):
        shutil.copy(path, tmp_path / "lib" / "authdesigns")
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from authdesigns.cli import main; sys.exit(main())",
         "catalog", "export", "cdf-337-7-1", "--out", "f.json"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(tmp_path / "lib")))
    assert done.returncode == 0, done.stderr
    assert load_json(tmp_path / "f.json") == df_to_json(
        catalog.load_payload("cdf-337-7-1"))
