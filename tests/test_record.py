"""Value records (`authdesigns.record`) and the lazily resolved package
namespace."""

from pathlib import Path

import pytest

import authdesigns
from authdesigns import (BlockDesign, DesignParameters, DomainError,
                         SecrecySystem, develop_matrix)
from authdesigns.catalog import CatalogEntry
from authdesigns.record import record, unchecked


@record
class Twin:
    """Same fields as DesignParameters, another class."""

    t: int
    v: int
    k: int
    lambda_: int


# ------------------------------------------------------------------ records

def test_equality_and_hash():
    a = DesignParameters(2, 7, 3, 1)
    b = DesignParameters(t=2, v=7, k=3, lambda_=1)
    assert a == b and hash(a) == hash(b)
    assert a != DesignParameters(2, 7, 3, 2)
    assert a != Twin(2, 7, 3, 1) and Twin(2, 7, 3, 1) != a
    assert a != (2, 7, 3, 1)
    assert len({a, b, DesignParameters(2, 7, 3, 2)}) == 2


def test_repr_lists_fields_in_order():
    assert repr(DesignParameters(2, 7, 3, 1)) == \
        "DesignParameters(t=2, v=7, k=3, lambda_=1)"
    assert repr(Twin(1, 2, 3, 4)) == "Twin(t=1, v=2, k=3, lambda_=4)"


def test_records_are_immutable(fano_df):
    params = DesignParameters(2, 7, 3, 1)
    with pytest.raises(AttributeError):
        params.t = 3
    with pytest.raises(AttributeError):
        del params.v
    with pytest.raises(AttributeError):
        params.extra = 1
    system = SecrecySystem(develop_matrix(fano_df))
    assert system.developed is True      # cached_property
    assert system.developed is True
    with pytest.raises(AttributeError):
        system.matrix = None
    assert params == DesignParameters(2, 7, 3, 1)


def test_construction_by_position_keyword_and_default():
    assert Twin(1, 2, k=3, lambda_=4) == Twin(t=1, v=2, k=3, lambda_=4)
    entry = CatalogEntry("x", "cdf", "summary", "note")
    assert (entry.params, entry.b_opt, entry.loader) == (None, None, None)
    assert CatalogEntry("x", "cdf", "summary", "note", b_opt=7).b_opt == 7
    for args, kwargs in (((1, 2, 3), {}),                     # missing
                         ((1, 2, 3, 4), {"mu": 5}),           # unknown
                         ((1, 2, 3, 4, 5), {}),               # too many
                         ((1, 2, 3, 4), {"k": 3})):           # given twice
        with pytest.raises(TypeError):
            Twin(*args, **kwargs)


def test_post_init_canonicalizes():
    a = BlockDesign(5, ((4, 1), (3, 0)))
    b = BlockDesign(v=5, blocks=[[0, 3], [1, 4]])
    assert a.blocks == ((0, 3), (1, 4))
    assert a == b and hash(a) == hash(b)


def test_unchecked_sets_the_fields_and_skips_post_init():
    twin = unchecked(Twin, 1, 2, 3, 4)
    assert twin == Twin(1, 2, 3, 4) and hash(twin) == hash(Twin(1, 2, 3, 4))
    assert repr(twin) == "Twin(t=1, v=2, k=3, lambda_=4)"
    with pytest.raises(AttributeError):
        twin.t = 5
    with pytest.raises(DomainError):
        DesignParameters(3, 2, 1, 1)
    params = unchecked(DesignParameters, 3, 2, 1, 1)   # no t <= k <= v check
    assert (params.t, params.v, params.k, params.lambda_) == (3, 2, 1, 1)
    design = unchecked(BlockDesign, 5, ((4, 1), (3, 0)))   # not canonicalized
    assert design.blocks == ((4, 1), (3, 0))
    for values in ((1, 2, 3), (1, 2, 3, 4, 5)):   # one value per field
        with pytest.raises(ValueError):
            unchecked(Twin, *values)


def test_unchecked_is_the_one_way_round_post_init():
    src = Path(authdesigns.__file__).parent
    users = sorted(path.name for path in src.glob("*.py")
                   if "object.__new__" in path.read_text(encoding="utf-8"))
    assert users == ["record.py"]


# ---------------------------------------------------------------- namespace

def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from authdesigns import *", namespace)
    assert set(authdesigns.__all__) <= set(namespace)
    assert namespace["BlockDesign"] is BlockDesign


def test_dir_covers_all_and_unknown_names_raise():
    assert set(authdesigns.__all__) <= set(dir(authdesigns))
    assert "__version__" in dir(authdesigns)
    with pytest.raises(AttributeError):
        authdesigns.nope
    assert not hasattr(authdesigns, "nope")
