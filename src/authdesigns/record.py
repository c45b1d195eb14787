"""Immutable value records, built without `dataclasses` (whose import pulls
in `inspect`, `ast` and `dis`) and without generating source text.

`@record` gives a class with annotated fields an `__init__` by position or
keyword, class attributes being defaults, that ends in `__post_init__` if
the class has one; and field-wise `__eq__`, `__hash__` and `__repr__`.
Setting or deleting an attribute raises `AttributeError`: `__post_init__`
writes through `object.__setattr__`, `functools.cached_property` through
the instance `__dict__`.  `unchecked` is the one way to build a record
without its `__post_init__`, for a caller that has proven every check.
"""


def _frozen(self, name, value=None):
    raise AttributeError(f"cannot assign to or delete field {name!r}")


def record(cls):
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if len(args) > len(names) or kwargs.keys() - set(names[len(args):]):
            raise TypeError(f"{cls.__name__}() takes the fields {names}, got "
                            f"{len(args)} positional and {sorted(kwargs)}")
        given = {**defaults, **dict(zip(names, args)), **kwargs}
        if len(given) < len(names):   # given holds only field names
            missing = [name for name in names if name not in given]
            raise TypeError(f"{cls.__name__}() missing fields {missing}")
        # not through self.__dict__: a materialized __dict__ slows every read
        for name in names:
            object.__setattr__(self, name, given[name])
        if post_init is not None:
            post_init(self)

    def values(self):
        return tuple(getattr(self, name) for name in names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        return f"{cls.__qualname__}(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(names, values(self))) + ")"

    for method in (__init__, __eq__, __hash__, __repr__):
        setattr(cls, method.__name__, method)
    cls.__setattr__ = cls.__delattr__ = _frozen
    cls._fields = names
    return cls


def unchecked(cls, *values):
    """A `cls` record of `values`, one per field in order, set as `__init__`
    sets them but without `__post_init__`."""
    self = object.__new__(cls)
    for name, value in zip(cls._fields, values, strict=True):
        object.__setattr__(self, name, value)
    return self
