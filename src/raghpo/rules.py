"""Value rules: what a setting's value must be, past its JSON type.

Each rule is defined once, beside the code that owns its setting, and is
applied by two kinds of code: :func:`raghpo.dataio.check_fields`, to a
field whose spec in a field table ends in the rule, and the constructor
that owns the value, so a library caller meets the same rule. A refusal
is ``<name> must be <text>, got <value>``, where the name is a field, a
flag or a parameter.
"""

from __future__ import annotations

import math
import reprlib
from typing import Callable


class Rule:
    """A value rule: ``text`` completes "must be ...", and ``admits`` tests a value.

    A field table applies a rule with ``each`` set to each item of a list value apart.
    """

    each = False

    def __init__(self, text: str, admits: Callable[[object], bool]) -> None:
        self.text, self.admits = text, admits

    def check(self, value, name: str) -> None:
        """Refuse ``value`` of the setting ``name`` unless the rule admits it.

        The message shows a string whole, and shortens a long list or integer.
        """
        if not self.admits(value):
            shown = repr(value) if isinstance(value, str) else reprlib.repr(value)
            raise ValueError(f"{name} must be {self.text}, got {shown}")


class Interval(Rule):
    """The numbers from ``low`` to ``high``; ``ends`` writes whether each end is in, as ``[]``,
    ``[)``, ``(]`` or ``()`` do. Without ``high``, the rule reads ``>= low`` or ``> low``."""

    each = True

    def __init__(self, low: float, high: float = math.inf, ends: str = "[]") -> None:
        self.low, self.high, self.ends = low, high, ends
        above = f"{'>=' if ends[0] == '[' else '>'} {low}"
        super().__init__(above if high == math.inf else f"in {ends[0]}{low}, {high}{ends[1]}", self._admits)

    def _admits(self, value) -> bool:
        low = self.low <= value if self.ends[0] == "[" else self.low < value
        return low and (value <= self.high if self.ends[1] == "]" else value < self.high)


def names_in(value: str | list[str] | tuple[str, ...]) -> list[str]:
    """The names of a list or of a comma-separated string, whose empty parts name nothing."""
    return [name for name in value.split(",") if name] if isinstance(value, str) else list(value)


class Choice(Rule):
    """One of ``choices``; with ``several``, one or more distinct ones, read by :func:`names_in`."""

    def __init__(self, choices, several: bool = False) -> None:
        self.choices, self.several = tuple(choices), several
        text = f"{'one or more distinct names' if several else 'one'} of {', '.join(map(str, self.choices))}"
        super().__init__(text, self._admits)

    def _admits(self, value) -> bool:
        chosen = names_in(value) if self.several else [value]
        return 0 < len(chosen) == len(set(chosen)) and set(chosen) <= set(self.choices)
