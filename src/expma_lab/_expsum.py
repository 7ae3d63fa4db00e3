"""Finite sums of decaying exponentials: sum_k c_k * exp(-r_k * t).

Every first- and second-order moment of the signal process in this package
is such a sum, and so are their pairwise products and running integrals.
Doing the bookkeeping once here keeps the closed forms in `ou` and `ctmc`
short and makes the time integrals exact (no quadrature).

Rates are merged by exact float equality. That is safe here because all
rates are built from the same handful of parameter floats (0, kappa,
lambda, kappa+lambda, 2*kappa, ...), combined identically everywhere.

A term that is not finite at a finite time means a closed form left the
double range: evaluation raises NumericError there, before the term is
added, rather than letting two infinite terms form a NaN.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError


class ExpSum:
    """Immutable sum_k c_k * exp(-r_k * t); supports +, *, eval, integral."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        merged: dict[float, float] = {}
        for coef, rate in terms:
            merged[rate] = merged.get(rate, 0.0) + coef
        self.terms = tuple(sorted(merged.items(), key=lambda kv: kv[0]))
        # stored as (rate, coef) pairs sorted by rate; rate 0.0 is the constant term

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for rate, coef in self.terms:
            term = coef if rate == 0.0 else coef * np.exp(-rate * t)
            out = out + _finite(term, t, rate, coef)
        return out if out.ndim else float(out)

    def integral(self, T):
        """Integral over [0, T]; exact term-by-term antiderivative."""
        T = np.asarray(T, dtype=float)
        out = np.zeros_like(T)
        for rate, coef in self.terms:
            term = coef * T if rate == 0.0 else coef * (1.0 - np.exp(-rate * T)) / rate
            out = out + _finite(term, T, rate, coef)
        return out if out.ndim else float(out)

    def __add__(self, other: "ExpSum") -> "ExpSum":
        return ExpSum([(c, r) for r, c in self.terms] + [(c, r) for r, c in other.terms])

    def __mul__(self, other: "ExpSum") -> "ExpSum":
        terms = []
        for r1, c1 in self.terms:
            for r2, c2 in other.terms:
                terms.append((c1 * c2, r1 + r2))
        return ExpSum(terms)

    def __repr__(self) -> str:
        body = " + ".join(f"{c:.6g}*exp(-{r:.6g} t)" for r, c in self.terms)
        return f"ExpSum({body})"


def _finite(term, t, rate: float, coef: float):
    """`term`, the term (coef, rate) of an ExpSum at time(s) `t`; raises
    NumericError if it is not finite at a finite t."""
    if t.ndim == 0:  # most evaluations are scalar ones, inside a quadrature
        bad = not math.isfinite(term) and math.isfinite(t)
    else:
        finite = np.isfinite(term)
        bad = not finite.all() and np.any(~finite & np.isfinite(t))
    if bad:
        raise NumericError(f"exponential-sum term {coef:.6g}*exp(-{rate:.6g} t) "
                           "is not finite: a closed form left the double range")
    return term
