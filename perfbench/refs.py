"""References written for the benchmark, independent of fuzzytl's evaluator.

The connectives are the textbook definitions of the four interpretations;
windows are plain folds over trace columns.  Almost-always sorts its window
and folds suffixes instead of selecting and folding in position order, so it
agrees with the evaluator up to rounding (`common.TOL`).
"""

from __future__ import annotations

import functools
import itertools
import math


def _luk_t(a, b):
    return max(0.0, a + b - 1.0)


def _luk_s(a, b):
    return min(1.0, a + b)


def _prod_t(a, b):
    return a * b


def _prod_s(a, b):
    return a + b - a * b


def _inv_neg(a):
    return 1.0 - a


def _strict_neg(a):
    return 1.0 if a == 0.0 else 0.0


def _z_imp(a, b):
    return max(1.0 - a, b)


def _g_imp(a, b):
    return 1.0 if a <= b else b


def _l_imp(a, b):
    return min(1.0, 1.0 - a + b)


def _p_imp(a, b):
    return 1.0 if a <= b else b / a


#: interpretation -> (negation, t-norm, t-conorm, implication)
CONNECTIVES = {
    "zadeh": (_inv_neg, min, max, _z_imp),
    "godel": (_strict_neg, min, max, _g_imp),
    "lukasiewicz": (_inv_neg, _luk_t, _luk_s, _l_imp),
    "product": (_strict_neg, _prod_t, _prod_s, _p_imp),
}


def gauss_table(width: int) -> list[float]:
    """The avoiding table exp(-(n/width)^2), n = 0..width."""
    return [math.exp(-((n / width) ** 2)) for n in range(width + 1)]


def eta_at(table, j: int) -> float:
    if j <= 0:
        return 1.0
    return table[j] if j < len(table) else 0.0


def fold(op, values):
    return functools.reduce(op, values)


def almost_always(tnorm, table, values) -> float:
    """max over j <= min(m-1, n_eta-1) of eta(j) * fold(window minus its j
    smallest values); dropping the smallest is optimal as t-norms are monotone."""
    s = sorted(values)
    m = len(s)
    suffix = [0.0] * m
    acc = s[-1]
    suffix[-1] = acc
    for j in range(m - 2, -1, -1):
        acc = tnorm(s[j], acc)
        suffix[j] = acc
    return max(suffix[j] * eta_at(table, j) for j in range(min(m - 1, len(table) - 1) + 1))


class Columns:
    """All-positions values over a finite trace under the pad-zero policy,
    for the node kinds the grid-day properties use.

    Column index n (the trace length) is the padded all-zero state; every
    read past it reads it, as every padded instant is the same state.
    """

    def __init__(self, atoms, states, interp: str, table):
        self.index = {name: k for k, name in enumerate(atoms)}
        self.states = states
        self.n = len(states)
        self.neg, self.tnorm, self.tconorm, self.imp = CONNECTIVES[interp]
        self.table = table
        self._cols: dict[int, tuple] = {}  # id(node) -> (node, column)

    def col(self, f) -> list[float]:
        """The values of ``f`` at positions 0..n."""
        hit = self._cols.get(id(f))
        if hit is None:
            at = self._evaluator(f)
            hit = (f, [at(i) for i in range(self.n + 1)])
            self._cols[id(f)] = hit
        return hit[1]

    def value(self, f, i: int) -> float:
        return self._evaluator(f)(i)

    def _evaluator(self, f):
        """A function of the position, over the children's columns."""
        kind = type(f).__name__
        n = self.n
        table = self.table
        tnorm, tconorm = self.tnorm, self.tconorm

        def window(col, lo, hi):  # values at positions lo..hi-1
            if hi <= n + 1:
                return col[lo:hi]
            if lo > n:
                return [col[n]] * (hi - lo)
            return col[lo:] + [col[n]] * (hi - n - 1)

        if kind == "Atom":
            k = self.index[f.name]
            return lambda i: self.states[i][k] if i < n else 0.0
        if kind in ("Implies", "WeakAnd", "WeakOr"):
            a, b = self.col(f.left), self.col(f.right)
            op = {"Implies": self.imp, "WeakAnd": min, "WeakOr": max}[kind]
            return lambda i: op(a[i], b[i])
        if kind in ("UntilB", "AlmostUntilB"):
            left, right, t = self.col(f.left), self.col(f.right), f.bound

            def until(i):
                lw, rw = window(left, i, i + t), window(right, i, i + t + 1)
                best, hold = rw[0], None
                for k in range(1, t + 1):
                    if kind == "UntilB":
                        hold = lw[0] if hold is None else tnorm(hold, lw[k - 1])
                    else:
                        hold = almost_always(tnorm, table, lw[:k])
                    best = max(best, tnorm(hold, rw[k]))
                return best

            return until
        col = self.col(f.arg)
        t = getattr(f, "bound", 0)
        if kind == "Not":
            return lambda i: self.neg(col[i])
        if kind == "EventuallyB":
            return lambda i: fold(tconorm, window(col, i, i + t + 1))
        if kind == "AlwaysB":
            return lambda i: fold(tnorm, window(col, i, i + t + 1))
        if kind == "AlmostAlwaysB":
            return lambda i: almost_always(tnorm, table, window(col, i, i + t + 1))
        if kind == "Lasts":

            def lasts(i):
                prefix = list(itertools.accumulate(window(col, i, i + t + 1), tnorm))
                return max(prefix[t - j] * eta_at(table, j) for j in range(min(t, len(table) - 1) + 1))

            return lasts
        if kind == "Within":
            return lambda i: fold(
                tconorm,
                [v * eta_at(table, d - t) for d, v in enumerate(window(col, i, i + t + len(table)))],
            )
        if kind == "Soon":
            return lambda i: fold(
                tconorm,
                [v * eta_at(table, d) for d, v in enumerate(window(col, i + 1, i + 1 + len(table)))],
            )
        raise NotImplementedError(f"no column reference for {kind}")
