"""Frozen records: the library's parameter and result types.

`record` makes of a class of annotated fields what
`dataclasses.dataclass(frozen=True)` makes of it: an `__init__` taking the
fields in order, with the class's defaults, that calls `__post_init__` last;
`__eq__` (same class) and `__hash__` on the tuple of fields; `__repr__`;
`__match_args__`; and `AttributeError` on setting or deleting an attribute.
`dataclasses` imports `inspect`, with `ast`, `dis` and `tokenize`, a tenth
of a `fdqpt topo` launch; here one `exec` a class writes the four methods.
A field's default is one value, bound once for every instance: a record
that needs a fresh mutable value takes it from its caller.
"""


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    """cls, frozen, with the methods the module docstring names."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    # object.__setattr__ keeps the fields in the instance's inline values:
    # reading self.__dict__ would build a dict and slow every field read
    ns = {"__name__": cls.__module__, "_set": object.__setattr__}
    params, body = [], []
    for name in names:
        if name not in cls.__dict__:
            params.append(name)
        else:
            ns[f"_d_{name}"] = cls.__dict__[name]
            params.append(f"{name}=_d_{name}")
        body.append(f" _set(self, {name!r}, {name})")
    if hasattr(cls, "__post_init__"):
        body.append(" self.__post_init__()")
    mine = "".join(f"self.{n}," for n in names)
    exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body) + "\n"
         "def __eq__(self, other):\n if other.__class__ is self.__class__:\n"
         f"  return ({mine}) == ({mine.replace('self.', 'other.')})\n"
         " return NotImplemented\n"
         f"def __hash__(self):\n return hash(({mine}))\n"
         "def __repr__(self):\n return f'{self.__class__.__qualname__}("
         + ", ".join(f"{n}={{self.{n}!r}}" for n in names) + ")'\n", ns)
    ns["__init__"].__annotations__ = {**cls.__annotations__, "return": None}
    for method in ("__init__", "__eq__", "__hash__", "__repr__"):
        ns[method].__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, ns[method])
    cls.__setattr__, cls.__delattr__ = _setattr, _delattr
    cls.__match_args__ = names
    return cls
