"""The package's exception type, and the rules that check input.

ShiftDetectError is a ValueError whose message names the bad value. Bad
files, shapes, sizes, settings and shifts raise it, and so does a fit that
diverges, as its one subclass nets.Diverged: harness.fit_reducers tells
that apart, to name the model and the step size to lower. A grid cell
records the text as the skip reason, and the CLI prints it and exits 65.
Every configuration value is checked by a Rule, whose error names the
value's key path and the type it must have; a dataclass field made by key
carries its Rule, so the class is the table of its keys' rules.
"""

import functools
import numbers
import sys
from dataclasses import MISSING, dataclass, field, fields


class ShiftDetectError(ValueError):
    """A refused input or a failed fit, its message naming the bad value."""


def is_int(value) -> bool:
    """An integer; a bool (a JSON true) is none."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number that is a finite float; a bool is none."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_list(v) -> bool:
    return isinstance(v, (list, tuple))


# what each Rule.type accepts
_TYPES = {"integer": is_int, "finite number": is_real,
          "string": lambda v: isinstance(v, str), "path string": lambda v: isinstance(v, str),
          "object": lambda v: isinstance(v, dict), "list": _is_list,
          "non-empty list": lambda v: _is_list(v) and len(v) > 0,
          "non-empty list of integers":
              lambda v: _is_list(v) and len(v) > 0 and all(map(is_int, v))}


@dataclass(frozen=True)
class Rule:
    """What one configuration value must be: of type (a key of _TYPES), one
    of choices if given, and between low and high if given. ends holds the
    brackets of that interval, "(" or ")" where an end is open; a list of
    integers' bounds hold for each item."""

    type: str
    low: float | None = None
    high: float | None = None
    ends: str = "[]"
    choices: tuple = ()

    def __str__(self) -> str:
        if self.choices:
            return "one of " + ", ".join(self.choices)
        text = ("an " if self.type[0] in "aeiou" else "a ") + self.type
        if self.high is not None:
            return f"{text} in {self.ends[0]}{self.low}, {self.high}{self.ends[1]}"
        if self.low is not None:
            return f"{text} {'>' if self.ends[0] == '(' else '>='} {self.low}"
        return text

    def _within(self, x) -> bool:
        (low, high), (left, right) = (self.low, self.high), self.ends
        return ((low is None or low < x or left == "[" and x == low)
                and (high is None or x < high or right == "]" and x == high))

    def check(self, value, path: str) -> None:
        """Raise ShiftDetectError naming path and this rule unless value keeps it."""
        items = value if self.type.endswith("integers") else (value,)
        if not (_TYPES[self.type](value) and (not self.choices or value in self.choices)
                and all(map(self._within, items))):
            raise ShiftDetectError(f"{path} must be {self}, got {value!r}")


def key(rule: Rule, default=MISSING):
    """A dataclass field whose value must keep rule; required without a default."""
    return field(default=default, metadata={"rule": rule})


@functools.cache
def rules_of(cls) -> dict:
    """{name: rule} of the fields of the dataclass cls made by key, in order."""
    return {f.name: f.metadata["rule"] for f in fields(cls) if "rule" in f.metadata}


def check_fields(obj) -> None:
    """Check each field of the dataclass obj made by key against its rule."""
    for name, rule in rules_of(type(obj)).items():
        rule.check(getattr(obj, name), name)


def check_object(doc, rules: dict, path: str, what: str = "", required=()) -> None:
    """Check that doc is an object whose keys all have a rule in rules, that
    holds every required key, and whose values keep their rules. A value is
    named path.key (key when path is ""), the object what (path when "")."""
    what = what or path
    Rule("object").check(doc, what)
    for name in doc:
        if name not in rules:
            raise ShiftDetectError(f"{what} takes no key {name!r}; it takes {', '.join(rules)}")
    for name in required:
        if name not in doc:
            raise ShiftDetectError(f"{what} needs the key {name!r}")
    for name, value in doc.items():
        rules[name].check(value, f"{path}.{name}" if path else name)
