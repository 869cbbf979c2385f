"""Frozen records: the part of ``dataclass(frozen=True)`` the package uses.

Importing `dataclasses` also imports `inspect`, `ast`, `dis` and `tokenize`,
about 11 ms of every command-line call (CPython 3.11 on a 2-vCPU guest).
`record` generates the methods from source as `dataclass` does, so a record
builds, compares and hashes as fast as a frozen dataclass or faster.
"""


class FrozenRecordError(AttributeError):
    """A field of a frozen record was assigned or deleted."""


def _setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def record(cls):
    """Make ``cls`` a frozen record over its annotated fields, in order.

    A field's class-level value is its default.  As ``dataclass(frozen=True)``
    does, this adds ``__init__``, which ends by calling ``__post_init__`` when
    the class has one, ``__eq__`` between instances of one class, ``__hash__``
    and ``__repr__`` over the fields, and a ``__setattr__`` and
    ``__delattr__`` that raise `FrozenRecordError`.  A method the class
    defines itself is kept.
    """
    fields = tuple(cls.__annotations__)
    own = vars(cls)
    params = ", ".join(f"{f}=_dflt[{f!r}]" if f in own else f for f in fields)
    body = [f"    _set(self, {f!r}, {f})" for f in fields]
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    mine = "".join(f"self.{f}," for f in fields)
    theirs = "".join(f"other.{f}," for f in fields)
    shown = ", ".join(f"{f}={{self.{f}!r}}" for f in fields)
    source = "\n".join(
        [
            f"def __init__(self, {params}):",
            *body,
            "def __eq__(self, other):",
            "    if other.__class__ is self.__class__:",
            f"        return ({mine}) == ({theirs})",
            "    return NotImplemented",
            "def __hash__(self):",
            f"    return hash(({mine}))",
            "def __repr__(self):",
            f"    return f'{{self.__class__.__qualname__}}({shown})'",
        ]
    )
    methods: dict = {}
    defaults = {f: own[f] for f in fields if f in own}
    exec(source, {"_set": object.__setattr__, "_dflt": defaults}, methods)
    methods.update(__setattr__=_setattr, __delattr__=_delattr)
    for name, method in methods.items():
        if name not in own:
            setattr(cls, name, method)
    return cls
