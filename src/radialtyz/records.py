"""Record: the base of the package's value types.

A record is what dataclass(frozen=True) would make of the class, built
without generating and compiling code for each class at import, which would
cost more than an exact CLI call spends computing. A subclass declares its
fields as class annotations, in order, a default as the annotated class
attribute. Records take their fields by position or keyword, compare equal
when of the same class with equal fields, hash by their fields, print as
Name(field=value, ...) and refuse assignment with AttributeError. A subclass
with __slots__ has no instance dict and writes its own __init__.
"""
from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: dict[str, None] = {}  # the field names in order, as a dict for membership tests

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = dict.fromkeys(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        # the fields go straight into the instance dict, past __setattr__
        cls, fields, values = type(self), self._fields, self.__dict__
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes at most {len(fields)} fields")
        values.update(zip(fields, args))
        if not values.keys().isdisjoint(kwargs):
            raise TypeError(f"{cls.__name__} got a field twice")
        values.update(kwargs)
        if values.keys() != fields.keys():
            unknown = sorted(values.keys() - fields.keys())
            if unknown:
                raise TypeError(f"{cls.__name__} has no field {unknown[0]!r}")
            missing = [name for name in fields if name not in values and not hasattr(cls, name)]
            if missing:
                raise TypeError(f"{cls.__name__} is missing field {missing[0]!r}")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
