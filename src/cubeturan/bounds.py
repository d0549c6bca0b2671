"""Catalog of known density bounds for the subcube/cycle extremal problems.

Every numeric value is an exact Fraction; decimal constants from flag-algebra
results (0.36577, 0.36578, 0.60318, 0.1625, 0.03125, 2.60848) are stored as
the exact rationals of their decimal expansions.  Bounds that hold only for
large n, or carry a (1 +- o(1)) factor, are flagged `asymptotic` and the o(1)
factor is dropped (never replaced by an invented finite-n correction).
Unspecified constants (alpha, c_k) stay symbolic: the value is then absent
and the symbols are listed as unresolved.

The catalog is one table, CATALOG, with a row per theorem: the parameters it
needs, the ranges it holds on and its lower and upper sides, each an
expression with its value function.  `eval_bound` is the one function that
reads a row.  Row identifiers are stable CLI strings:

  T1  subcubes Q_l kept, Q_k forbidden (2 <= l < k)
  T2  4-cycles kept, 6-cycles forbidden
  T3  2l-cycles kept (l >= 4), 6-cycles forbidden
  T4  subcubes Q_l kept, 2k-cycles forbidden
  T5  2l-cycles kept, subcubes Q_k forbidden
  T6  6-cycles kept, 4-cycles forbidden
  T7  2l-cycles kept, 2k-cycles forbidden (k >= 4, k != 5, l != k)
  A6  alternative lower bound for the T1 problem (single deletion graph)
  A7  improved lower bound for the T3 problem ((4/3)^(l+1) factor)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import MAX_CLOSED_FORM_N, fraction_json
from .errors import BadRange, BadTheoremId, DimensionTooLarge, MissingParam
from .zwords import min_star_count, z_kl

LOWER = "lower"
UPPER = "upper"


@dataclass(frozen=True)
class BoundValue:
    theorem: str
    side: str
    params: dict
    expression: str
    value: Fraction | None
    asymptotic: bool
    unresolved: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "side": self.side,
            "params": {k: v for k, v in sorted(self.params.items())},
            "expression": self.expression,
            "value": None if self.value is None else fraction_json(self.value),
            "asymptotic": self.asymptotic,
            "unresolved": list(self.unresolved),
        }


def t1_lower_branches(ell: int, k: int) -> tuple[Fraction, Fraction]:
    """The two lower branches: layer union and residue-deletion averaging."""
    return (
        1 - Fraction(ell, k),
        1 - Fraction(4 * math.comb(ell + 2, 3), k * (k + 2)),
    )


@dataclass(frozen=True)
class Side:
    """One side of a bound: its expression and its value as a function of the
    parameters (l passed as `ell`, and z_{l,l} as `z_ll` when it `reads_z`), or
    None when symbolic in `unresolved`.  `needs` and `ranges` add to the row's."""

    expression: str
    value: Callable[..., Fraction] | None
    asymptotic: bool = True
    unresolved: tuple[str, ...] = ()
    needs: tuple[str, ...] = ()
    ranges: tuple[tuple[str, Callable[..., bool]], ...] = ()
    reads_z: bool = False


@dataclass(frozen=True)
class Theorem:
    """One catalog row: the parameters it needs, the ranges it holds on as
    (condition, test) pairs checked in order, and its sides, `upper` None where
    it bounds from below only.  Where `zero` holds the density is exactly 0 on
    both sides, whatever the ranges say."""

    needs: tuple[str, ...]
    ranges: tuple[tuple[str, Callable[..., bool]], ...]
    lower: Side
    upper: Side | None = None
    zero: Callable[..., bool] | None = None

    @property
    def sides(self) -> tuple[str, ...]:
        return (LOWER,) if self.upper is None else (LOWER, UPPER)


def _decimal(text: str) -> Side:
    """An asymptotic side that is a constant: the exact rational of its decimal."""
    return Side(text, lambda **_: Fraction(text))


CATALOG = {
    "T1": Theorem(
        ("l", "k"), (("2 <= l < k", lambda ell, k: 2 <= ell < k),),
        lower=Side("max(1 - l/k, 1 - 4*C(l+2,3)/(k*(k+2)))",
                   lambda ell, k: max(t1_lower_branches(ell, k))),
        upper=Side("min(1 - l*2^l/(k*2^k), 1 - alpha*log(k)/(k*2^k))", None,
                   unresolved=("alpha",))),
    "T2": Theorem(
        ("n",), (("n >= 1", lambda n: n >= 1),),
        lower=Side("1/(4*n)", lambda n: Fraction(1, 4 * n)),
        upper=Side("0.36578/n", lambda n: Fraction("0.36578") / n)),
    "T3": Theorem(
        ("l",), (("l >= 4", lambda ell: ell >= 4),),
        lower=Side("1/(4^(l+1) * z_ll)", lambda ell, z_ll: Fraction(1, 4 ** (ell + 1) * z_ll),
                   reads_z=True),
        upper=_decimal("0.36577")),
    "T4": Theorem(
        ("l", "k"),
        (("k >= 4 and k != 5", lambda ell, k: k >= 4 and k != 5),
         ("l >= 2", lambda ell, k: ell >= 2)),
        lower=Side("C(m,l)/C(n,l) with m = ceil(log2(2k))-1",
                   lambda ell, k, n: Fraction(math.comb(min_star_count(k) - 1, ell),
                                              math.comb(n, ell)),
                   asymptotic=False, needs=("n",),
                   ranges=(("l <= n and l <= ceil(log2(2k))-1",
                            lambda ell, k, n: ell <= min(min_star_count(k) - 1, n)),)),
        upper=Side("c_k * n^(-1/16)", None, asymptotic=False, unresolved=("c_k",)),
        # a subcube of dimension l >= log2(2k) contains the forbidden cycle
        # (k <= 0 is refused by the ranges)
        zero=lambda ell, k: k > 0 and min_star_count(k) <= ell),
    "T5": Theorem(
        ("l", "k"), (("k >= 2 and l >= 2", lambda ell, k: k >= 2 and ell >= 2),),
        lower=Side("max((1 - 1/k)*(l-1)!/(2*z_ll), 1 - l/k)",
                   lambda ell, k, z_ll: max(
                       (1 - Fraction(1, k)) * Fraction(math.factorial(ell - 1), 2 * z_ll),
                       1 - Fraction(ell, k)),
                   reads_z=True),
        upper=Side("1 - alpha*log(k)/(k*2^k)", None, unresolved=("alpha",))),
    "T6": Theorem((), (), lower=_decimal("0.03125"), upper=_decimal("0.1625")),
    "T7": Theorem(
        ("l", "k"),
        (("k >= 4 and k != 5 and l >= 2 and l != k",
          lambda ell, k: k >= 4 and k != 5 and ell >= 2 and ell != k),),
        lower=Side("2^(l - ceil(log2(2l))) / (C(n,l) * z_ll)",
                   lambda ell, k, n, z_ll: Fraction(1 << (ell - min_star_count(ell)),
                                                    math.comb(n, ell) * z_ll),
                   needs=("n",), ranges=(("n >= l", lambda ell, k, n: n >= ell),),
                   reads_z=True),
        upper=Side("c_k * n^(-1/16)", None, asymptotic=False, unresolved=("c_k",))),
    # below k^2 - 2k = 4*C(l+2,3) the value is negative, and says nothing
    "A6": Theorem(
        ("l", "k"),
        (("2 <= l < k", lambda ell, k: 2 <= ell < k),
         ("k^2 - 2k >= 4*C(l+2,3)", lambda ell, k: k * k - 2 * k >= 4 * math.comb(ell + 2, 3))),
        lower=Side("1 - 4*C(l+2,3)/(k^2 - 2k)",
                   lambda ell, k: 1 - Fraction(4 * math.comb(ell + 2, 3), k * k - 2 * k))),
    # the T3 lower bound improved by (4/3)^(l+1)
    "A7": Theorem(
        ("l",), (("l >= 4", lambda ell: ell >= 4),),
        lower=Side("1/(3^(l+1) * z_ll)", lambda ell, z_ll: Fraction(1, 3 ** (ell + 1) * z_ll),
                   reads_z=True)),
}


def catalog_row(theorem: str) -> tuple[str, Theorem]:
    """The identifier of `theorem` (any case) and its CATALOG row."""
    tid = theorem.upper()
    if tid not in CATALOG:
        raise BadTheoremId(f"unknown bound identifier {theorem!r}")
    return tid, CATALOG[tid]


def _call(fn: Callable, args: dict):
    """fn of the parameters in `args`, l passed as `ell`."""
    return fn(**{"ell" if name == "l" else name: value for name, value in args.items()})


def _admit(tid: str, params: dict, args: dict, names: tuple = (), ranges: tuple = ()) -> None:
    """Read the parameters `names` into `args`, refusing an absent one, then test `ranges`."""
    for name in names:
        if params.get(name) is None:
            raise MissingParam(f"parameter {name!r} is required here")
        args[name] = params[name]
    for condition, holds in ranges:
        if not _call(holds, args):
            got = ", ".join(f"{name}={value}" for name, value in args.items())
            raise BadRange(f"{tid} needs {condition}, got {got}")


def eval_bound(theorem: str, side: str, params: dict | None = None, z=None) -> BoundValue:
    """Evaluate one side of a catalog bound at concrete parameters; z_{l,l} is
    read from `z` (a ZTable or any mapping holding the key), else counted.

    An n or k above core.MAX_CLOSED_FORM_N is refused, whether or not the bound
    reads it; every bound that computes with l bounds it by k, z or log2(2k)."""
    tid, row = catalog_row(theorem)
    if side not in (LOWER, UPPER):
        raise BadRange(f"side must be lower or upper, got {side!r}")
    if side not in row.sides:
        raise BadTheoremId(f"{tid} defines a lower bound only")
    bound = getattr(row, side)
    params = dict(params or {})
    for name in ("n", "k"):
        if params.get(name) is not None and params[name] > MAX_CLOSED_FORM_N:
            raise DimensionTooLarge(
                f"{name}={params[name]} exceeds the closed-form cap {MAX_CLOSED_FORM_N}")
    args: dict = {}
    _admit(tid, params, args, row.needs)
    if row.zero is not None and _call(row.zero, args):
        return BoundValue(tid, side, params, "0", Fraction(0), asymptotic=False)
    _admit(tid, params, args, ranges=row.ranges)
    _admit(tid, params, args, bound.needs, bound.ranges)
    if bound.reads_z:  # before the value, so that z refuses an l too large for 4^(l+1) or (l-1)!
        args["z_ll"] = z_kl(args["l"], args["l"]) if z is None else z[args["l"], args["l"]]
    value = None if bound.value is None else _call(bound.value, args)
    return BoundValue(tid, side, params, bound.expression, value, bound.asymptotic,
                      bound.unresolved)


def bound_sandwich_report(theorem: str, params: dict | None = None, z=None,
                          exact: Fraction | None = None) -> dict:
    """Line up a bound's two sides against a measured density `exact`.

    Asymptotic sides are advisory: a finite-n violation is reported but not
    an error.  Symbolic sides are listed as such.
    """
    tid, row = catalog_row(theorem)
    report: dict = {"theorem": tid, "params": dict(params or {}),
                    "comparisons": [], "notes": []}
    for side in (LOWER, UPPER):
        if side not in row.sides:
            report[side] = None
            report["notes"].append(f"no {side} bound defined")
            continue
        bv = eval_bound(tid, side, params, z=z)
        report[side] = bv.to_json_dict()
        if bv.value is None:
            report["notes"].append(f"{side} bound symbolic ({', '.join(bv.unresolved)})")
            continue
        if exact is None:
            continue
        holds = exact >= bv.value if side == LOWER else exact <= bv.value
        entry = {
            "comparison": f"{side} <= exact" if side == LOWER else f"exact <= {side}",
            "holds": holds,
            "advisory": bv.asymptotic,
        }
        if bv.asymptotic:
            entry["note"] = "asymptotic bound; advisory only at finite n"
        report["comparisons"].append(entry)
    if exact is not None:
        report["exact"] = fraction_json(exact)
    return report
