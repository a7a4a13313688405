"""Immutable value classes with one shared set of methods.

A subclass declares its fields as annotated class attributes, in order;
a class attribute gives its field a default.  Instances are built from
the fields positionally or by keyword, then ``__post_init__`` runs when
the class defines one (it may normalise a field with
``object.__setattr__``).  Two instances are equal when they have the
same class and equal fields, an instance hashes as the tuple of its
fields, and assigning or deleting an attribute raises
``AttributeError``.  The methods are shared by all subclasses, so no
code is generated or compiled per class at import time.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Record:
    # _key holds the field values in order: eq and hash read one tuple
    __slots__ = ("_key",)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}
        cls._post_init = hasattr(cls, "__post_init__")
        names = cls._fields
        if len(names) > 1:  # reads the fields back after __post_init__; one name gives no tuple
            cls._reread = attrgetter(*names)
        else:
            cls._reread = staticmethod(lambda r: tuple(getattr(r, n) for n in names))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._complete(args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)
        if self._post_init:
            self.__post_init__()
            args = self._reread(self)
        _set(self, "_key", args)

    def _complete(self, args: tuple, kwargs: dict) -> tuple:
        name = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError(f"{name}() takes {len(self._fields)} fields, got {len(args)}")
        values = dict(zip(self._fields, args))
        for key, value in kwargs.items():
            if key not in self._fields:
                raise TypeError(f"{name}() got an unexpected field {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for field {key!r}")
            values[key] = value
        for key in self._fields:
            if key not in values:
                if key not in self._defaults:
                    raise TypeError(f"{name}() is missing field {key!r}")
                values[key] = self._defaults[key]
        return tuple(values[key] for key in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        # rebuild through __init__: the _key slot cannot be set afterwards
        return type(self), self._key
