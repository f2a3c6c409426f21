"""Immutable records: terms, patterns, binders, declarations, and every
record built once and then only read (`@node`).

`@node` turns a class whose body annotates its fields (with optional
defaults, after the fields without) into an immutable record:

- construction by position or keyword, with the declared defaults;
- assigning or deleting a field raises `AttributeError`;
- `==` is structural and class-sensitive (`Var("x") != DataRef("x")`), a
  field named `loc` takes no part in it, and the hash agrees with it;
- `__match_args__` lists the fields, so positional `match` patterns work;
- `repr` reads `Name(field=value, ...)`, every field included.

The class is rebuilt with `__slots__`, so instances carry no `__dict__`.
One `exec` compiles only its `__init__`; `==` and `hash` read the compared
fields through one `operator.attrgetter`. The standard `dataclasses` module
does the same job, but importing it and generating its classes cost more
than the rest of fordc's start-up.
"""

from __future__ import annotations

from operator import attrgetter


def node(cls):
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    keys = [f for f in fields if f != "loc"]
    key = attrgetter(*keys) if keys else (lambda self: ())

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    ns = {k: v for k, v in cls.__dict__.items()
          if k not in fields and k not in ("__dict__", "__weakref__")}
    ns.update(__slots__=fields, __match_args__=fields,
              __qualname__=cls.__qualname__, __setattr__=_read_only,
              __delattr__=_read_only, __repr__=_repr, __eq__=__eq__,
              __hash__=__hash__)
    new = type(cls.__name__, cls.__bases__, ns)
    defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
    params = ", ".join(f"{f}=d_{f}" if f in defaults else f for f in fields)
    src = (f"def __init__(self, {params}):\n"
           + "".join(f"    set_{f}(self, {f})\n" for f in fields)
           + "    pass\n")
    env = {f"set_{f}": getattr(new, f).__set__ for f in fields}
    env.update((f"d_{f}", v) for f, v in defaults.items())
    exec(src, env)
    new.__init__ = env["__init__"]
    return new


def replace(obj, **changes):
    """A copy of the node `obj` with the given fields changed."""
    fields = {f: getattr(obj, f) for f in obj.__match_args__}
    return type(obj)(**{**fields, **changes})


def _read_only(self, name, *value):
    raise AttributeError(f"{type(self).__name__}.{name} is read-only")


def _repr(self):
    args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
    return f"{type(self).__qualname__}({args})"
