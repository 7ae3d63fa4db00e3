"""Closed forms for the two-state Markov-chain drift model.

The drift jumps between rho1 < rho2 with intensities alpha (up) and beta
(down) and starts from its stationary law, so E[mu_t] = n1 is constant and
the signal moments

    n2(t) = E[Z_t],  n3(t) = E[mu_t Z_t],  n4(t) = E[Z_t^2]

are finite exponential sums with rates {lambda, 2 lambda, alpha+beta+lambda}.
Their exact integrals feed the same 2x2 affine optimizer used for the OU
model; the T -> infinity limits give the stationary growth quadratic g(x, y)
and the best constant affine weight (c_inf, d_inf).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._expsum import ExpSum
from .errors import NumericError
from .models import CTMC2Drift, ModelParams
from .ou import ABCD, optimal_affine_from_abcd


@dataclass(frozen=True)
class CTMCStationary:
    """Stationary drift law: mean n1, variance gamma, state probabilities."""

    n1: float
    gamma: float
    p1: float
    p2: float


@dataclass(frozen=True)
class CTMCMomentSet:
    """Signal moments n2 = E[Z], n3 = E[mu Z], n4 = E[Z^2] at one time."""

    n2: float | np.ndarray
    n3: float | np.ndarray
    n4: float | np.ndarray


@dataclass(frozen=True)
class CTMCLimits:
    """Long-run limits: h_inf = A/T, i_inf = C/T, j_inf = D/T, and the
    limiting affine coefficients (c_inf, d_inf)."""

    h_inf: float
    i_inf: float
    j_inf: float
    c_inf: float
    d_inf: float


def _drift(params: ModelParams) -> CTMC2Drift:
    d = params.drift
    if not isinstance(d, CTMC2Drift):
        raise TypeError("this operation requires a two-state Markov drift")
    return d


def ctmc_stationary(params: ModelParams) -> CTMCStationary:
    """Stationary mean/variance of the chain: exact rational combination."""
    d = _drift(params)
    ab = d.alpha + d.beta
    p1 = d.beta / ab
    p2 = d.alpha / ab
    n1 = p1 * d.rho1 + p2 * d.rho2
    gamma = d.alpha * d.beta / ab**2 * (d.rho1 - d.rho2) ** 2
    return CTMCStationary(n1=n1, gamma=gamma, p1=p1, p2=p2)


def _moment_series(params: ModelParams) -> tuple[ExpSum, ExpSum, ExpSum, float]:
    """(n2, n3, n4) as exponential sums, plus n1."""
    d = _drift(params)
    lam, sig2 = params.lam, params.sigma**2
    st = ctmc_stationary(params)
    n1, gam = st.n1, st.gamma
    ab = d.alpha + d.beta

    base = (n1 - 0.5 * sig2) / lam  # j_inf
    n2 = ExpSum([(base, 0.0), (-base, lam)])

    c3 = gam / (ab + lam)
    n3 = ExpSum([(n1 * base + c3, 0.0), (-n1 * base, lam), (-c3, ab + lam)])

    c4a = 2.0 * gam / ((lam - ab) * (lam + ab))
    c4b = sig2 / (2.0 * lam) - gam / (lam * (lam - ab))
    # n4 = c4a (1 - e^{-(ab+lam)t}) + c4b (1 - e^{-2 lam t}) + base^2 (1 - e^{-lam t})^2
    n4 = ExpSum([
        (c4a, 0.0), (-c4a, ab + lam),
        (c4b, 0.0), (-c4b, 2.0 * lam),
        (base**2, 0.0), (-2.0 * base**2, lam), (base**2, 2.0 * lam),
    ])
    return n2, n3, n4, n1


def ctmc_moments(params: ModelParams, t) -> CTMCMomentSet:
    """Evaluate n2, n3, n4 at time(s) t >= 0 (months)."""
    n2, n3, n4, _ = _moment_series(params)
    return CTMCMomentSet(n2=n2(t), n3=n3(t), n4=n4(t))


def ctmc_abcd(params: ModelParams, T: float) -> ABCD:
    """Exact A(T) = int n3, B(T) = n1 T, C(T) = int n4, D(T) = int n2."""
    if not (T > 0):
        raise ValueError(f"T must be > 0, got {T}")
    n2, n3, n4, n1 = _moment_series(params)
    return ABCD(A=float(n3.integral(T)), B=float(n1 * T),
                C=float(n4.integral(T)), D=float(n2.integral(T)))


def _hij(params: ModelParams) -> tuple[float, float, float]:
    """(h_inf, i_inf, j_inf) = lim A/T, C/T, D/T."""
    d = _drift(params)
    lam, sig2 = params.lam, params.sigma**2
    st = ctmc_stationary(params)
    ab = d.alpha + d.beta
    j_inf = (st.n1 - 0.5 * sig2) / lam
    h_inf = st.n1 * j_inf + st.gamma / (lam + ab)
    i_inf = st.gamma / (lam * (lam + ab)) + sig2 / (2.0 * lam) + j_inf**2
    return h_inf, i_inf, j_inf


def ctmc_limits(params: ModelParams) -> CTMCLimits:
    """The five long-run limits; verifies the asserted positivity g(c,d) > 0."""
    d = _drift(params)
    lam, sig2 = params.lam, params.sigma**2
    st = ctmc_stationary(params)
    n1, gam = st.n1, st.gamma
    ab = d.alpha + d.beta

    h_inf, i_inf, j_inf = _hij(params)
    c_inf = 2.0 * lam * gam / (2.0 * gam * sig2 + sig2**2 * (lam + ab))
    d_inf = (gam + n1 * (lam + ab)) / (2.0 * gam + sig2 * (lam + ab))

    g_opt = ctmc_growth_value(params, c_inf, d_inf)
    if not (g_opt > 0.0):
        raise NumericError(f"stationary growth value g(c_inf, d_inf) = {g_opt:.6g} <= 0")
    return CTMCLimits(h_inf=h_inf, i_inf=i_inf, j_inf=j_inf, c_inf=c_inf, d_inf=d_inf)


def ctmc_growth_value(params: ModelParams, x: float, y: float) -> float:
    """Long-run growth rate of the constant affine weight x*z + y:

        g(x, y) = h_inf x + n1 y - (sigma^2/2)(i_inf x^2 + 2 j_inf x y + y^2).
    """
    h_inf, i_inf, j_inf = _hij(params)
    n1 = ctmc_stationary(params).n1
    sig2 = params.sigma**2
    return (h_inf * x + n1 * y
            - 0.5 * sig2 * (i_inf * x * x + 2.0 * j_inf * x * y + y * y))


def optimal_growth_affine(params: ModelParams) -> tuple[float, float]:
    """(c_inf, d_inf): the growth-optimal constant affine weight."""
    lim = ctmc_limits(params)
    return lim.c_inf, lim.d_inf


def finite_horizon_affine(params: ModelParams, T: float) -> tuple[float, float]:
    """(a1*, b1*) over [0, T]: the generic affine optimizer on exact integrals."""
    return optimal_affine_from_abcd(ctmc_abcd(params, T), T, params.sigma)
