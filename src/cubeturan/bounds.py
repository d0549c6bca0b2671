"""Catalog of known density bounds for the subcube/cycle extremal problems.

Every numeric value is an exact Fraction; decimal constants from flag-algebra
results (0.36577, 0.36578, 0.60318, 0.1625, 0.03125, 2.60848) are stored as
the exact rationals of their decimal expansions.  Bounds that hold only for
large n, or carry a (1 +- o(1)) factor, are flagged `asymptotic` and the o(1)
factor is dropped (never replaced by an invented finite-n correction).
Unspecified constants (alpha, c_k) stay symbolic: the value is then absent
and the symbols are listed as unresolved.

Catalog entries (identifiers are stable CLI strings):

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

from .core import MAX_CLOSED_FORM_N
from .errors import BadRange, BadTheoremId, DimensionTooLarge, MissingParam
from .zwords import min_star_count, z_kl

LOWER = "lower"
UPPER = "upper"

THEOREM_IDS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "A6", "A7")

#: the theorems that define a lower side only
LOWER_ONLY = ("A6", "A7")


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
            "value": None if self.value is None else {
                "num": str(self.value.numerator),
                "den": str(self.value.denominator),
            },
            "asymptotic": self.asymptotic,
            "unresolved": list(self.unresolved),
        }


def _need(params: dict, *names: str) -> list[int]:
    out = []
    for name in names:
        if name not in params or params[name] is None:
            raise MissingParam(f"parameter {name!r} is required here")
        out.append(params[name])
    return out


def _zll(z, ell: int) -> int:
    """z_{l,l}: read from `z` (a ZTable or any mapping holding the key), else counted."""
    return z_kl(ell, ell) if z is None else z[ell, ell]


def t1_lower_branches(ell: int, k: int) -> tuple[Fraction, Fraction]:
    """The two lower branches: layer union and residue-deletion averaging."""
    return (
        1 - Fraction(ell, k),
        1 - Fraction(4 * math.comb(ell + 2, 3), k * (k + 2)),
    )


def eval_bound(theorem: str, side: str, params: dict | None = None, z=None) -> BoundValue:
    """Evaluate one side of a catalog bound at concrete parameters.

    An n or k above core.MAX_CLOSED_FORM_N is refused, whether or not the bound
    reads it; every bound that computes with l bounds it by k, z or log2(2k)."""
    tid = theorem.upper()
    if tid not in THEOREM_IDS:
        raise BadTheoremId(f"unknown bound identifier {theorem!r}")
    if side not in (LOWER, UPPER):
        raise BadRange(f"side must be lower or upper, got {side!r}")
    if side == UPPER and tid in LOWER_ONLY:
        raise BadTheoremId(f"{tid} defines a lower bound only")
    params = dict(params or {})
    for name in ("n", "k"):
        if params.get(name) is not None and params[name] > MAX_CLOSED_FORM_N:
            raise DimensionTooLarge(
                f"{name}={params[name]} exceeds the closed-form cap {MAX_CLOSED_FORM_N}")

    if tid == "T1":
        ell, k = _need(params, "l", "k")
        if not 2 <= ell < k:
            raise BadRange(f"T1 needs 2 <= l < k, got l={ell}, k={k}")
        if side == LOWER:
            val = max(t1_lower_branches(ell, k))
            return BoundValue(tid, side, params,
                              "max(1 - l/k, 1 - 4*C(l+2,3)/(k*(k+2)))",
                              val, asymptotic=True)
        return BoundValue(tid, side, params,
                          "min(1 - l*2^l/(k*2^k), 1 - alpha*log(k)/(k*2^k))",
                          None, asymptotic=True, unresolved=("alpha",))

    if tid == "T2":
        (n,) = _need(params, "n")
        if n < 1:
            raise BadRange(f"T2 needs n >= 1, got {n}")
        if side == LOWER:
            return BoundValue(tid, side, params, "1/(4*n)",
                              Fraction(1, 4 * n), asymptotic=True)
        return BoundValue(tid, side, params, "0.36578/n",
                          Fraction("0.36578") / n, asymptotic=True)

    if tid == "T3":
        (ell,) = _need(params, "l")
        if ell < 4:
            raise BadRange(f"T3 needs l >= 4, got {ell}")
        if side == LOWER:
            zll = _zll(z, ell)
            return BoundValue(tid, side, params, "1/(4^(l+1) * z_ll)",
                              Fraction(1, 4 ** (ell + 1) * zll), asymptotic=True)
        return BoundValue(tid, side, params, "0.36577",
                          Fraction("0.36577"), asymptotic=True)

    if tid == "T4":
        ell, k = _need(params, "l", "k")
        if k > 0 and min_star_count(k) <= ell:
            # a subcube of dimension l >= log2(2k) contains the forbidden cycle,
            # so the density is exactly zero on both sides (k <= 0 is refused below)
            return BoundValue(tid, side, params, "0", Fraction(0), asymptotic=False)
        if k < 4 or k == 5:
            raise BadRange(f"T4 needs k >= 4 and k != 5, got {k}")
        if ell < 2:
            raise BadRange(f"T4 needs l >= 2, got {ell}")
        if side == LOWER:
            (n,) = _need(params, "n")
            m = min_star_count(k) - 1  # ceil(log2(2k)) - 1
            if not ell <= min(m, n):
                raise BadRange(f"T4 lower needs l <= n and l <= ceil(log2(2k))-1 = {m}, "
                               f"got n={n}, l={ell}")
            return BoundValue(tid, side, params, "C(m,l)/C(n,l) with m = ceil(log2(2k))-1",
                              Fraction(math.comb(m, ell), math.comb(n, ell)),
                              asymptotic=False)
        return BoundValue(tid, side, params, "c_k * n^(-1/16)",
                          None, asymptotic=False, unresolved=("c_k",))

    if tid == "T5":
        ell, k = _need(params, "l", "k")
        if k < 2 or ell < 2:
            raise BadRange(f"T5 needs k >= 2 and l >= 2, got k={k}, l={ell}")
        if side == LOWER:
            zll = _zll(z, ell)
            val = max(
                (1 - Fraction(1, k)) * Fraction(math.factorial(ell - 1), 2 * zll),
                1 - Fraction(ell, k),
            )
            return BoundValue(tid, side, params,
                              "max((1 - 1/k)*(l-1)!/(2*z_ll), 1 - l/k)",
                              val, asymptotic=True)
        return BoundValue(tid, side, params, "1 - alpha*log(k)/(k*2^k)",
                          None, asymptotic=True, unresolved=("alpha",))

    if tid == "T6":
        if side == LOWER:
            return BoundValue(tid, side, params, "0.03125",
                              Fraction("0.03125"), asymptotic=True)
        return BoundValue(tid, side, params, "0.1625",
                          Fraction("0.1625"), asymptotic=True)

    if tid == "T7":
        ell, k = _need(params, "l", "k")
        if k < 4 or k == 5 or ell < 2 or ell == k:
            raise BadRange(f"T7 needs k >= 4, k != 5, l >= 2, l != k, got l={ell}, k={k}")
        if side == LOWER:
            (n,) = _need(params, "n")
            if n < ell:
                raise BadRange(f"T7 lower needs n >= l, got n={n}, l={ell}")
            zll = _zll(z, ell)
            val = Fraction(1 << (ell - min_star_count(ell)),
                           math.comb(n, ell) * zll)
            return BoundValue(tid, side, params,
                              "2^(l - ceil(log2(2l))) / (C(n,l) * z_ll)",
                              val, asymptotic=True)
        return BoundValue(tid, side, params, "c_k * n^(-1/16)",
                          None, asymptotic=False, unresolved=("c_k",))

    if tid == "A6":
        ell, k = _need(params, "l", "k")
        if not 2 <= ell < k or k * k - 2 * k <= 0:
            raise BadRange(f"A6 needs 2 <= l < k and k >= 3, got l={ell}, k={k}")
        return BoundValue(tid, side, params, "1 - 4*C(l+2,3)/(k^2 - 2k)",
                          1 - Fraction(4 * math.comb(ell + 2, 3), k * k - 2 * k),
                          asymptotic=True)

    # A7: the T3 lower bound improved by (4/3)^(l+1)
    (ell,) = _need(params, "l")
    if ell < 4:
        raise BadRange(f"A7 needs l >= 4, got {ell}")
    zll = _zll(z, ell)
    return BoundValue(tid, LOWER, params, "1/(3^(l+1) * z_ll)",
                      Fraction(1, 3 ** (ell + 1) * zll), asymptotic=True)


def bound_sandwich_report(theorem: str, params: dict | None = None, z=None,
                          exact: Fraction | None = None) -> dict:
    """Line up a bound's two sides against a measured density `exact`.

    Asymptotic sides are advisory: a finite-n violation is reported but not
    an error.  Symbolic sides are listed as such.
    """
    report: dict = {"theorem": theorem.upper(), "params": dict(params or {}),
                    "comparisons": [], "notes": []}
    for side in (LOWER, UPPER):
        if side == UPPER and theorem.upper() in LOWER_ONLY:
            report[side] = None
            report["notes"].append(f"no {side} bound defined")
            continue
        bv = eval_bound(theorem, side, params, z=z)
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
        report["exact"] = {"num": str(exact.numerator), "den": str(exact.denominator)}
    return report
