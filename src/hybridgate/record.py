"""Frozen records: immutable value types declared by class annotations.

A subclass of ``Record`` declares its fields as annotations, optionally with
class-level defaults, in the order its constructor takes them, and is not
subclassed itself. The fields are read once, when the class is created; every
record class then shares the same generic methods, so no per-class source is
generated or compiled:

- ``__init__`` takes each field positionally or by keyword, applies the
  defaults, raises TypeError for a missing, unknown or repeated argument,
  holds each value and calls ``__post_init__`` if the class has one. It holds
  a writable array as a read-only view, so the caller's array stays writable,
  a read-only array as given, and a tuple or list as a tuple held alike;
- assigning or deleting an attribute raises FrozenRecordError;
- records of one class are equal when each pair of field values is the same
  object, equal arrays (``np.array_equal``), equal tuples item by item, or
  ``==``, so equality never raises. A record holding an array is unhashable;
- ``repr`` is ``Name(field=value!r, ...)``.

Only the declared fields take part in these and in ``fields`` and ``replace``.
"""

from operator import attrgetter

import numpy as np


class FrozenRecordError(AttributeError):
    """An attribute of a record was assigned or deleted."""


class Record:
    _fields = {}     # field name -> annotation, in declaration order
    _defaults = {}   # field name -> default value
    _key = None      # record -> its field values (the value itself for one field)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:
            raise TypeError(f"record class {cls.__mro__[1].__qualname__} cannot be subclassed")
        cls._fields = dict(cls.__annotations__)
        if not cls._fields:
            raise TypeError(f"record class {cls.__qualname__} declares no fields")
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        required = [name for name in cls._fields if name not in cls._defaults]
        if list(cls._fields)[:len(required)] != required:
            raise TypeError(f"record class {cls.__qualname__}: a field without a default "
                            f"follows one with a default")
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if not kwargs and len(args) == len(cls._fields):   # every field given by position
            names, values = cls._fields, args
        elif not args and kwargs.keys() == cls._fields.keys():   # or by keyword
            names, values = kwargs, kwargs.values()
        else:
            names, values = cls._fields, _bind(cls, args, kwargs)
        self.__dict__.update(zip(names, map(_held, values)))
        if hasattr(cls, "__post_init__"):
            self.__post_init__()

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return _equal(key(self), key(other))

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        state = self.__dict__
        return (f"{type(self).__qualname__}("
                f"{', '.join([f'{name}={state[name]!r}' for name in self._fields])})")


def _held(value):
    if isinstance(value, (tuple, list)):
        return tuple(map(_held, value))
    if isinstance(value, np.ndarray) and value.flags.writeable:
        value = value.view()
        value.flags.writeable = False
    return value


def _equal(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return a is b or np.array_equal(a, b)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_equal, a, b))
    return a is b or a == b


def _bind(cls, args, kwargs):
    """The field values of ``cls(*args, **kwargs)`` in declaration order, or
    TypeError for a missing, unknown, repeated or surplus argument."""
    name = cls.__qualname__
    if len(args) > len(cls._fields):
        raise TypeError(f"{name}() takes {len(cls._fields)} arguments, got {len(args)}")
    values = dict(zip(cls._fields, args))
    for key in kwargs:
        if key in values:
            raise TypeError(f"{name}() got multiple values for argument {key!r}")
        if key not in cls._fields:
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
    values = {**cls._defaults, **values, **kwargs}
    missing = [field for field in cls._fields if field not in values]
    if missing:
        raise TypeError(f"{name}() missing required argument(s): {', '.join(map(repr, missing))}")
    return [values[field] for field in cls._fields]


def fields(record):
    """The record's field values by name, in declaration order."""
    state = record.__dict__
    return {name: state[name] for name in record._fields}


def replace(record, **changes):
    """A new record of the same class with ``changes`` applied, validated as any
    new record is."""
    return type(record)(**{**fields(record), **changes})
