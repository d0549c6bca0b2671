"""Exception hierarchy.

Everything raised on purpose derives from CubeError so callers (and the CLI)
can separate our diagnostics from genuine bugs.
"""


class CubeError(Exception):
    """Base class for all errors raised by this package."""


class BadLength(CubeError):
    """A word has the wrong length for its declared dimension."""


class BadChar(CubeError):
    """A word contains a character outside {0, 1, *}."""


class BadRange(CubeError):
    """A numeric argument is outside its documented range."""


class NoStars(CubeError):
    """An operation needing at least one star got a plain vertex."""


class DimensionMismatch(CubeError):
    """Objects of different ambient dimensions were combined."""


class DimensionTooLarge(CubeError):
    """A dimension above one of the caps: per-vertex/per-edge state (30),
    whole-cube builders (22), closed forms (4096) or exact search (4; 3 exhaustive)."""


class EnumerationTooLarge(CubeError):
    """Refusing a cycle enumeration or a z word count beyond its supported size."""


class ParseError(CubeError):
    """A subgraph file is malformed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class DuplicateEdge(ParseError):
    """The same edge appears twice in a subgraph file."""


class NonIntegralResult(CubeError):
    """An exact division came out non-integral, signalling a violated assumption."""


class BadTheoremId(CubeError):
    """Unknown bound identifier, or a side the bound does not define."""


class MissingParam(CubeError):
    """A bound evaluation is missing a required parameter."""


class CycleDoesNotFit(CubeError):
    """Requested cycle length exceeds what the packed subcubes can host."""


class BudgetExceeded(CubeError):
    """Search ran out of its node or time budget.

    Non-fatal: carries the best lower bound found so far and a sound upper
    bound for the optimum.
    """

    def __init__(self, message, lower, upper, nodes_explored):
        super().__init__(message)
        self.lower = lower
        self.upper = upper
        self.nodes_explored = nodes_explored
