"""Config sections whose every field is declared once, with setting().

Building a Section checks and normalizes each field from its declaration;
from_dict and to_dict walk the same fields, recursing into section-typed
ones.  A rejection reads "<config path> must be <rule>, got <value>".
"""

from __future__ import annotations

import dataclasses
import numbers
import operator
import sys
from collections.abc import Callable
from typing import NamedTuple

_NOUNS = {int: "an integer", float: "a finite number", bool: "true or false", str: "a non-empty string",
          tuple: "an array of integers"}
_BOUNDS = {"ge": (">=", operator.ge), "gt": (">", operator.gt), "le": ("<=", operator.le), "lt": ("<", operator.lt)}


class Setting(NamedTuple):
    """One field's declaration, kept in its metadata under "setting"."""

    kind: type  # int, float, bool, str, tuple (of ints), or a class with from_dict and to_dict
    optional: bool  # None, JSON null, is allowed
    normalize: Callable | None  # a valid value -> the value stored
    bounds: dict  # {"ge" | "gt" | "le" | "lt": bound} on a number or on each entry of a tuple

    def checked(self, path: str, value):
        """value as the field stores it; ValueError where it breaks the rule."""
        if value is None and self.optional:
            return None
        if self.kind is not tuple:
            items = [_read(self.kind, value)]
        else:
            items = [_read(int, v) for v in value] if isinstance(value, (list, tuple)) else [None]
        if any(v is None or not all(_BOUNDS[k][1](v, b) for k, b in self.bounds.items()) for v in items):
            noun = _NOUNS.get(self.kind, f"a {self.kind.__name__}")
            rule = f"{noun} {' and '.join(f'{_BOUNDS[k][0]} {b}' for k, b in self.bounds.items())}".rstrip()
            raise ValueError(f"{path} must be {rule}{' or null' * self.optional}, got {value!r}")
        stored = tuple(items) if self.kind is tuple else items[0]
        return stored if self.normalize is None else self.normalize(stored)


def _read(kind, value):
    """value as a config int, float, bool, str or kind instance, or None: a bool is no number, a fraction no integer."""
    if kind not in (int, float):
        return value if isinstance(value, kind) and (kind is not str or value) else None
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    if kind is int:
        return int(value) if isinstance(value, numbers.Integral) or float(value).is_integer() else None
    return float(value) if abs(value) <= sys.float_info.max else None  # no NaN, infinity or int past float range


def setting(kind, default=dataclasses.MISSING, *, optional=False, normalize=None, **bounds):
    """A config field: its kind, default, and bounds given as ge, gt, le or lt."""
    return dataclasses.field(default=default, metadata={"setting": Setting(kind, optional, normalize, bounds)})


class Section:
    """Base of a config section, a frozen dataclass whose every field is made by setting().

    A subclass names its place in the config, class NoiseConfig(Section, path="noise"),
    so a rejected field names its full path however the section was built.
    """

    def __init_subclass__(cls, path: str = ""):
        cls._prefix = f"{path}." if path else ""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = f.metadata["setting"].checked(self._prefix + f.name, getattr(self, f.name))
            object.__setattr__(self, f.name, value)

    @classmethod
    def from_dict(cls, data):
        """The section a JSON object describes; an omitted key or null section takes its field's default, if any."""
        name = cls._prefix[:-1] or "config"
        if not isinstance(data, dict):
            raise ValueError(f"{name} must be a JSON object, got {data!r}")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - set(fields))
        missing = [key for key, f in fields.items() if data.get(key) is None and f.default is dataclasses.MISSING]
        if unknown or missing:
            raise ValueError(f"unknown {name} keys: {unknown}" if unknown else f"missing {name} keys: {missing}")
        kwargs = dict(data)
        for key, value in data.items():
            kind, default = fields[key].metadata["setting"].kind, fields[key].default
            if hasattr(kind, "from_dict"):
                kwargs[key] = default if value is None else kind.from_dict(value)
        return cls(**kwargs)

    def to_dict(self) -> dict:
        """The JSON object of the section: keys in field order, sections as their to_dict, tuples as lists."""
        plain = lambda v: v.to_dict() if hasattr(v, "to_dict") else list(v) if isinstance(v, tuple) else v
        return {f.name: plain(getattr(self, f.name)) for f in dataclasses.fields(self)}
