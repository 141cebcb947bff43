"""The four connective interpretations and derived operations.

Each interpretation supplies negation, a t-norm, its t-conorm, and an
implication.  Everything is a pure function on floats in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Callable

from .core import Interpretation, TruthDegree

BinOp = Callable[[TruthDegree, TruthDegree], TruthDegree]


@dataclass(frozen=True)
class ConnectiveOps:
    """The operation tuple (negation, t-norm, t-conorm, implication)."""

    neg: Callable[[TruthDegree], TruthDegree]
    tnorm: BinOp
    tconorm: BinOp
    implies: BinOp


def _involutive_neg(a: float) -> float:
    return 1.0 - a


def _strict_neg(a: float) -> float:
    return 1.0 if a == 0.0 else 0.0


def _minimum(a: float, b: float) -> float:
    return a if a <= b else b


def _maximum(a: float, b: float) -> float:
    return a if a >= b else b


def _luk_tnorm(a: float, b: float) -> float:
    s = a + b - 1.0
    return s if s > 0.0 else 0.0


def _luk_tconorm(a: float, b: float) -> float:
    s = a + b
    return s if s < 1.0 else 1.0


#: a * b, at C level
_prod_tnorm = mul


def _prod_tconorm(a: float, b: float) -> float:
    """a + b - a * b, rounded.

    Not monotone in a once rounded: _prod_tconorm(0.5, 0.75) is 0.875, and
    _prod_tconorm(math.nextafter(0.5, 2.0), 0.75) is one ulp below it.  So
    a larger value in a window can lower its fold, and no kernel skips a
    Product t-conorm window because an overlapping window dominates it.
    """
    # boundary identities hold exactly; the naive form drifts an ulp there
    if a == 0.0:
        return b
    if b == 0.0:
        return a
    if a == 1.0 or b == 1.0:
        return 1.0
    s = a + b - a * b
    if s > 1.0:
        return 1.0
    if s < 0.0:
        return 0.0
    return s


def _zadeh_implies(a: float, b: float) -> float:
    return _maximum(1.0 - a, b)


def _godel_implies(a: float, b: float) -> float:
    return 1.0 if a <= b else b


def _luk_implies(a: float, b: float) -> float:
    s = 1.0 - a + b
    return s if s < 1.0 else 1.0


def _prod_implies(a: float, b: float) -> float:
    # a > b here implies a > 0, so the division is always defined.
    return 1.0 if a <= b else b / a


_OPS = {
    Interpretation.ZADEH: ConnectiveOps(_involutive_neg, _minimum, _maximum, _zadeh_implies),
    Interpretation.GODEL: ConnectiveOps(_strict_neg, _minimum, _maximum, _godel_implies),
    Interpretation.LUKASIEWICZ: ConnectiveOps(_involutive_neg, _luk_tnorm, _luk_tconorm, _luk_implies),
    Interpretation.PRODUCT: ConnectiveOps(_strict_neg, _prod_tnorm, _prod_tconorm, _prod_implies),
}


def ops_for(interp: Interpretation) -> ConnectiveOps:
    """The operation tuple for an interpretation."""
    return _OPS[interp]


def residuum_for(interp: Interpretation) -> BinOp:
    """The residuum of the interpretation's t-norm.

    For the three t-norm logics this is their implication; Zadeh's t-norm is
    the minimum, whose residuum is the Godel implication (Zadeh's own
    implication is not residuated).
    """
    if interp is Interpretation.ZADEH:
        return _godel_implies
    return _OPS[interp].implies


def scale(a: TruthDegree, w: TruthDegree) -> TruthDegree:
    """Plain real multiplication; used for all penalty weighting."""
    return a * w


def weak_and(interp: Interpretation, a: TruthDegree, b: TruthDegree) -> TruthDegree:
    """Lattice conjunction a AND (a IMPLIES b), with the residuated implication.

    Reduces to min(a, b) under every interpretation.
    """
    ops = _OPS[interp]
    res = residuum_for(interp)
    return ops.tnorm(a, res(a, b))


def weak_or(interp: Interpretation, a: TruthDegree, b: TruthDegree) -> TruthDegree:
    """Lattice disjunction ((a->b)->b) weak-and ((b->a)->a).

    Reduces to max(a, b) under every interpretation.
    """
    res = residuum_for(interp)
    return weak_and(interp, res(res(a, b), b), res(res(b, a), a))


def drastic_sum(a: TruthDegree, b: TruthDegree) -> TruthDegree:
    """1 when a + b > 0, else 0: the largest t-conorm."""
    return 1.0 if a + b > 0.0 else 0.0


def drastic_product(a: TruthDegree, b: TruthDegree) -> TruthDegree:
    """1 when a * b = 1, else 0: the smallest t-norm."""
    return 1.0 if a * b == 1.0 else 0.0
