"""Pattern descriptors: the things we count or forbid (edges, subcubes, cycles)."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadRange

EDGE = "edge"
SUBCUBE = "subcube"
CYCLE = "cycle"


@dataclass(frozen=True)
class Pattern:
    """kind: edge | subcube | cycle; order: k for Q_k, cycle length for C_m."""

    kind: str
    order: int = 1

    def __post_init__(self):
        if self.kind == SUBCUBE:
            if self.order < 1:
                raise BadRange(f"subcube order must be >= 1, got {self.order}")
        elif self.kind == CYCLE:
            if self.order < 4 or self.order % 2:
                raise BadRange(f"cycle length must be even and >= 4, got {self.order}")
        elif self.kind != EDGE:
            raise BadRange(f"unknown pattern kind {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == EDGE:
            return "e"
        if self.kind == SUBCUBE:
            return f"q{self.order}"
        return f"c{self.order}"


def parse_pattern(text: str) -> Pattern:
    """Grammar: `e` | `q<k>` | `c<m>` with m even >= 4.

    `c4` and `q2` are distinct patterns that count the same objects.
    """
    t = text.strip().lower()
    if t == "e":
        return Pattern(EDGE)
    digits = t[1:]
    if t[:1] in ("q", "c") and digits.isascii() and digits.isdigit():
        try:
            order = int(digits)
        except ValueError:  # past int()'s 4300-digit limit
            raise BadRange(f"pattern order of {len(digits)} digits is too long") from None
        return Pattern(SUBCUBE if t[0] == "q" else CYCLE, order)
    raise BadRange(f"cannot parse pattern {text!r} (expected e, q<k> or c<m>)")
