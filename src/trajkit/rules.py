"""Typed range rules of the module configs: a rule is a (what a value must
be, test) pair, and a `Checked` dataclass raises a `FieldError` naming the
`ranged` field that fails its rule."""

from __future__ import annotations

import math
from dataclasses import field, fields

import numpy as np


class FieldError(ValueError):
    """A module-config field outside its range; `field` names it."""

    def __init__(self, name: str, value, expected: str):
        super().__init__(f"{name} must be {expected}, got {value!r}")
        self.field = name


def _is(v, kinds: tuple) -> bool:  # a bool is an int to Python, but no number here
    return isinstance(v, kinds) and not isinstance(v, bool)


_INTEGER, _REAL = (int, np.integer), (int, float, np.integer, np.floating)
AT_LEAST_0 = ("an integer >= 0", lambda v: _is(v, _INTEGER) and v >= 0)
AT_LEAST_1 = ("an integer >= 1", lambda v: _is(v, _INTEGER) and v >= 1)
AT_LEAST_2 = ("an integer >= 2", lambda v: _is(v, _INTEGER) and v >= 2)
U32_COUNT = ("an integer from 1 to 2**32 - 1", lambda v: _is(v, _INTEGER) and 1 <= v < 2 ** 32)
FINITE_NONNEGATIVE = ("a finite number >= 0", lambda v: _is(v, _REAL) and 0 <= v < math.inf)
FINITE_POSITIVE = ("a finite number > 0", lambda v: _is(v, _REAL) and 0 < v < math.inf)
FINITE = ("a finite number", lambda v: _is(v, _REAL) and math.isfinite(v))
CLIP_NORM = ("None (no clip) or a finite number > 0",
             lambda v: v is None or FINITE_POSITIVE[1](v))


def one_of(choices: tuple) -> tuple:
    """The rule for a value among `choices`."""
    return f"one of {', '.join(choices)}", lambda v: v in choices


def each(plural: str, rule: tuple) -> tuple:
    """The rule for a non-empty tuple whose every element meets `rule`."""
    return (f"one or more {plural}",
            lambda v: isinstance(v, tuple) and len(v) > 0 and all(map(rule[1], v)))


def ranged(default, rule: tuple):
    """A dataclass field with a default that `Checked` holds to `rule`."""
    return field(default=default, metadata={"rule": rule})


class Checked:
    """Base of the module configs: a `ranged` field that fails its rule raises FieldError."""

    def __post_init__(self):
        for f in fields(self):
            expected, ok = f.metadata.get("rule", ("", lambda v: True))
            if not ok(getattr(self, f.name)):
                raise FieldError(f.name, getattr(self, f.name), expected)
