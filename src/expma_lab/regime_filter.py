"""Conditional-law machinery for the two-state Markov drift.

The time-reversed signal Q_t splits into a drift integral Q1_t =
int_0^t e^{-lambda s} mu_s ds, supported on a growing interval, plus an
independent Gaussian part with density phi(t, .). Conditioning mu_0 on Q_t
therefore needs the conditional c.d.f.s u(t, .), v(t, .) of Q1_t given the
starting state. Finite t: a first-order upwind solve of their transport
system on the moving support (a point mass e^{-alpha t} sits at the left
endpoint of u, e^{-beta t} at the right endpoint of v: the zero-jump
events). t = infinity: u/v collapse to scaled Beta laws handled in closed
form, with Gauss-Jacobi nodes absorbing the endpoint singularities of the
Beta kernel in every convolution integral.

The Gauss-Jacobi nodes come from numpy's symmetric eigensolver and the
Beta function from `math.lgamma`, so the filter, the transport solve and
the long-run growth run without scipy. Only the test-facing closed-form
c.d.f.s (`u_inf`, `v_inf`, `mixture_cdf`) need `scipy.special.betainc`;
they import it when called, because the package takes longer to load than
most CLI calls take to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .ctmc import _drift
from .errors import (NumericError, OutsideSupportError, QuadratureError,
                     SchemeInstabilityError, ValidationError)
from .models import ModelParams, NonlinearFilter

GAMMA_DOMAIN_MAX = 60.0
# CFL number of the transport march: each step obeys
# dt * (s(t)/dxi + max(alpha, beta)) <= CFL
CFL = 0.9


@dataclass(frozen=True)
class QDecomposition:
    """Support endpoints of the drift integral and the Gaussian part's law."""

    params: ModelParams

    def support(self, t: float) -> tuple[float, float]:
        d = self.params.drift
        lam = self.params.lam
        w = (1.0 - math.exp(-lam * t)) / lam
        return d.rho1 * w, d.rho2 * w

    def phi_params(self, t: float) -> tuple[float, float]:
        """(mean, variance) of the Gaussian part at time t; t = math.inf
        gives the limit law."""
        lam, sig2 = self.params.lam, self.params.sigma**2
        mean = -sig2 * (1.0 - math.exp(-lam * t)) / (2.0 * lam)
        var = sig2 * (1.0 - math.exp(-2.0 * lam * t)) / (2.0 * lam)
        return mean, var

    def phi(self, t: float, x):
        """Density of the Gaussian part at time t (or math.inf)."""
        mean, var = self.phi_params(t)
        x = np.asarray(x, dtype=float)
        return np.exp(-((x - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def _jacobi_recurrence(x: np.ndarray, diag: np.ndarray, off: np.ndarray):
    """p_n(x) up to a constant factor, p_n'(x) with the same factor, and
    sum_{k<n} p_k(x)^2, from the orthonormal three-term recurrence
    x p_k = off[k] p_{k+1} + diag[k] p_k + off[k-1] p_{k-1}, p_0 = 1."""
    scale = np.append(off, 1.0)  # p_n only enters as p_n / p_n'
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    dp_prev, dp = np.zeros_like(x), np.zeros_like(x)
    norm2 = np.zeros_like(x)
    for k in range(diag.size):
        norm2 += p * p
        lower = off[k - 1] if k else 0.0
        shifted = x - diag[k]
        p_prev, p, dp_prev, dp = (
            p, (shifted * p - lower * p_prev) / scale[k],
            dp, (p + shifted * dp - lower * dp_prev) / scale[k])
    return p, dp, norm2


@lru_cache(maxsize=64)
def _beta_nodes(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s in (0,1) and weights summing to 1 for E_{Beta(a,b)}[f(s)].

    Gauss-Jacobi rule for the weight (1-x)^al (1+x)^be on [-1, 1], al = b-1,
    be = a-1, mapped to s = (x+1)/2 (Golub & Welsch, Math. Comp. 23, 1969):
    the nodes are the eigenvalues of the Jacobi matrix, the weights the
    Christoffel numbers 1 / sum_{k<n} p_k(x)^2 of the orthonormal
    polynomials. Near a singular endpoint the Christoffel function changes
    by about n^2 relative per unit x, so the eigenvalues, off by a few ulps,
    get two Newton steps on p_n first. The arrays are cached and shared, so
    they are read-only.
    """
    al, be = b - 1.0, a - 1.0
    k = np.arange(n, dtype=float)
    m = 2.0 * k + al + be
    # diagonal (be^2 - al^2) / (m (m+2)); at k = 0 the factor al+be cancels
    diag = np.empty(n)
    diag[0] = (be - al) / (al + be + 2.0)
    diag[1:] = (be * be - al * al) / (m[1:] * (m[1:] + 2.0))
    # squared off-diagonal for k = 1..n-1; at k = 1 the factor al+be+1 cancels
    k, m = k[2:], m[2:]
    off2 = np.empty(n - 1)
    off2[:1] = 4.0 * (1.0 + al) * (1.0 + be) / ((al + be + 2.0) ** 2 * (al + be + 3.0))
    off2[1:] = (4.0 * k * (k + al) * (k + be) * (k + al + be)
                / (m * m * (m + 1.0) * (m - 1.0)))
    off = np.sqrt(off2)

    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    for _ in range(2):
        p, dp, _ = _jacobi_recurrence(x, diag, off)
        x = x - p / dp
    norm2 = _jacobi_recurrence(x, diag, off)[2]
    s = 0.5 * (x + 1.0)
    w = 1.0 / norm2
    w /= w.sum()
    s.flags.writeable = False
    w.flags.writeable = False
    return s, w


@dataclass(frozen=True)
class StationaryLaw:
    """Limit law of the drift integral: scaled/shifted Beta on [rho1/l, rho2/l].

    a_exp = alpha/lambda and b_exp = beta/lambda are the Beta exponents;
    u_inf ~ Beta(a_exp, b_exp + 1), v_inf ~ Beta(a_exp + 1, b_exp) on the
    support, and the unconditional mixture is Beta(a_exp, b_exp). c and
    d = beta*c/alpha normalize the kernel l(z).
    """

    params: ModelParams
    a_exp: float = field(init=False)
    b_exp: float = field(init=False)
    lo: float = field(init=False)
    hi: float = field(init=False)
    c: float = field(init=False)
    d: float = field(init=False)

    def __post_init__(self):
        dr = _drift(self.params)
        lam = self.params.lam
        a = dr.alpha / lam
        b = dr.beta / lam
        for name, val in (("a_exp", a), ("b_exp", b)):
            object.__setattr__(self, name, val)
        object.__setattr__(self, "lo", dr.rho1 / lam)
        object.__setattr__(self, "hi", dr.rho2 / lam)
        log_c = (2.0 * math.log(lam) + math.lgamma(a + b + 1.0)
                 - math.log(dr.beta) - (a + b) * math.log(dr.rho2 - dr.rho1)
                 - math.lgamma(a) - math.lgamma(b))
        c = math.exp(log_c)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", dr.beta * c / dr.alpha)

    def _s(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def kernel(self, z):
        """l(z) = (lambda z - rho1)^(a_exp-1) * (rho2 - lambda z)^(b_exp-1)."""
        dr = self.params.drift
        lam = self.params.lam
        z = np.asarray(z, dtype=float)
        return (lam * z - dr.rho1) ** (self.a_exp - 1.0) * (dr.rho2 - lam * z) ** (self.b_exp - 1.0)

    def u_inf(self, x):
        """Conditional c.d.f. of the limit drift integral given the low start."""
        from scipy.special import betainc

        return betainc(self.a_exp, self.b_exp + 1.0, self._s(x))

    def v_inf(self, x):
        """Conditional c.d.f. given the high start."""
        from scipy.special import betainc

        return betainc(self.a_exp + 1.0, self.b_exp, self._s(x))

    def mixture_cdf(self, x):
        """Unconditional (stationary-weighted) c.d.f.; equals Beta(a_exp, b_exp)."""
        from scipy.special import betainc

        return betainc(self.a_exp, self.b_exp, self._s(x))

    def nodes(self, extra_a: float = 0.0, extra_b: float = 0.0,
              n: int = 192) -> tuple[np.ndarray, np.ndarray]:
        """(z nodes, unit weights) for E_{Beta(a+extra_a, b+extra_b)}[f(z)]."""
        s, w = _beta_nodes(self.a_exp + extra_a, self.b_exp + extra_b, n)
        z = self.lo + (self.hi - self.lo) * s
        return z, w


def stationary_law(params: ModelParams) -> StationaryLaw:
    """Build the limit law; exponents must stay inside the Gamma domain."""
    dr = _drift(params)
    for name, val in (("alpha/lambda", dr.alpha / params.lam),
                      ("beta/lambda", dr.beta / params.lam)):
        if not (0.0 < val <= GAMMA_DOMAIN_MAX):
            raise QuadratureError(
                f"Beta exponent {name} = {val:.3g} outside supported range (0, {GAMMA_DOMAIN_MAX}]",
                achieved_tol=float("inf"))
    return StationaryLaw(params=params)


def p_q_infinity(params: ModelParams, x) -> tuple[np.ndarray, np.ndarray]:
    """Limit conditional densities of Q given each starting state.

    p_inf = (Beta(a, b+1) law of the drift integral) convolved with the
    Gaussian part; q_inf likewise with Beta(a+1, b). Gauss-Jacobi nodes
    carry the (possibly unbounded) Beta endpoint weights exactly.
    """
    law = stationary_law(params)
    q = QDecomposition(params)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    zp, wp = law.nodes(0.0, 1.0)
    zq, wq = law.nodes(1.0, 0.0)
    p = q.phi(math.inf, x[:, None] - zp[None, :]) @ wp
    qq = q.phi(math.inf, x[:, None] - zq[None, :]) @ wq
    return p, qq


# --- finite-t transport solve -------------------------------------------------

@dataclass(frozen=True)
class UVGrid:
    """Snapshots of the conditional c.d.f.s on the unit spatial grid.

    xi is the fixed grid on [0, 1]; physical coordinates at snapshot time t
    are lo(t) + xi * (hi(t) - lo(t)). u rows carry the left-endpoint atom
    exp(-alpha t) as their first value; v rows end at 1 including the
    right-endpoint atom exp(-beta t). steps is the number of explicit steps
    the march took.
    """

    params: ModelParams
    xi: np.ndarray
    times: np.ndarray
    u: np.ndarray
    v: np.ndarray
    steps: int

    def support(self, t: float) -> tuple[float, float]:
        return QDecomposition(self.params).support(t)

    def row(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.times - t)))
        if not math.isclose(self.times[idx], t, rel_tol=1e-9, abs_tol=1e-12):
            raise KeyError(f"time {t} not recorded; snapshots at {self.times}")
        return idx

    def x_physical(self, t: float) -> np.ndarray:
        lo, hi = self.support(t)
        return lo + self.xi * (hi - lo)

    def _at(self, cdf: np.ndarray, t: float, x) -> np.ndarray:
        """cdf(t, x) by linear interpolation in the physical coordinate."""
        i = self.row(t)
        xs = self.x_physical(self.times[i])
        return np.interp(np.asarray(x, dtype=float), xs, cdf[i], left=0.0, right=1.0)

    def u_at(self, t: float, x) -> np.ndarray:
        return self._at(self.u, t, x)

    def v_at(self, t: float, x) -> np.ndarray:
        return self._at(self.v, t, x)

    def to_csv(self, path) -> None:
        """Write rows (t, x_physical, u, v) for every snapshot and grid node."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,x_physical,u,v\n")
            for i, t in enumerate(self.times):
                xs = self.x_physical(t)
                for j in range(self.xi.size):
                    fh.write(f"{float(t)!r},{float(xs[j])!r},{float(self.u[i, j])!r},{float(self.v[i, j])!r}\n")


def solve_uv_pde(params: ModelParams, t_max: float, nx: int = 512,
                 snapshot_times=None) -> UVGrid:
    """March the conditional c.d.f.s to t_max with first-order upwinding.

    The moving support is mapped to xi in [0, 1], where the transport speeds
    become -xi * s(t) for u (inflow at xi = 1) and (1 - xi) * s(t) for v
    (inflow at xi = 0), s(t) = lambda / (1 - e^{-lambda t}). Explicit Euler
    steps obey dt * (s/dxi + max(alpha, beta)) <= CFL at the fixed CFL =
    0.9, which keeps the update a convex combination (monotone,
    range-preserving); each step is as long as that bound allows, clipped
    to land on the next snapshot time. Boundary values are imposed exactly
    each step.
    """
    d = _drift(params)
    if nx < 64:
        raise ValidationError([("pde.nx", "nx_too_small", f"nx must be >= 64, got {nx}")])
    lam = params.lam
    t0 = 1e-3 / max(lam, d.alpha, d.beta, 1.0)
    if not (t0 < t_max < math.inf):
        raise ValidationError([("pde.t_max", "t_max_out_of_range",
                                f"t_max must be finite and exceed the startup time "
                                f"{t0:.2e}, got {t_max}")])

    snaps = sorted(set(float(t) for t in (snapshot_times if snapshot_times is not None else [t_max])))
    if any(not (t0 < t <= t_max) for t in snaps):
        raise ValidationError([("pde.snapshot_times", "snapshot_out_of_range",
                                f"snapshot times must lie in ({t0:.2e}, {t_max}], got {snaps}")])

    xi = np.linspace(0.0, 1.0, nx)
    dxi = xi[1] - xi[0]
    rate = max(d.alpha, d.beta)

    # One state array w = [u, v reversed]: both halves then difference toward
    # the next index, and the v update (speed -(1-xi)s, backward difference)
    # is the same arithmetic with both signs flipped, which is exact, so
    # every interior value equals that of a separate u/v march bit for bit.
    # The four boundary values are re-imposed after each step, so the
    # difference across the seam at nx-1 is never used.
    w = np.empty(2 * nx)
    u, vr = w[:nx], w[nx:]
    u[:] = math.exp(-d.alpha * t0) + (1.0 - math.exp(-d.alpha * t0)) * xi
    vr[:] = ((1.0 - math.exp(-d.beta * t0)) * xi)[::-1]
    vr[0] = 1.0
    speed = np.concatenate([xi, (1.0 - xi)[::-1]])
    jump = np.repeat([d.alpha, d.beta], nx)
    diff = np.zeros_like(w)
    flow = np.empty_like(w)
    swap = np.empty_like(w)

    out_u, out_v, out_t = [], [], []
    t = t0
    steps = 0
    for target in snaps:
        while t < target:
            s = lam / (-math.expm1(-lam * t))
            dt = min(CFL / (s / dxi + rate), target - t)
            np.subtract(w[1:], w[:-1], out=diff[:-1])
            np.divide(diff[:-1], dxi, out=diff[:-1])
            np.multiply(speed, s, out=flow)
            np.multiply(flow, diff, out=flow)
            np.subtract(w, w[::-1], out=swap)
            np.multiply(jump, swap, out=swap)
            np.subtract(flow, swap, out=flow)
            np.multiply(flow, dt, out=flow)
            np.add(w, flow, out=w)
            t += dt
            steps += 1
            u[0] = math.exp(-d.alpha * t)
            u[-1] = 1.0
            vr[0] = 1.0
            vr[-1] = 0.0
        out_u.append(u.copy())
        out_v.append(vr[::-1].copy())
        out_t.append(t)

    grid = UVGrid(params=params, xi=xi, times=np.asarray(out_t),
                  u=np.asarray(out_u), v=np.asarray(out_v),
                  steps=steps)
    for name, arr in (("u", grid.u), ("v", grid.v)):
        if np.any(arr < -1e-9) or np.any(arr > 1.0 + 1e-9):
            raise SchemeInstabilityError(f"{name} left [0, 1] beyond tolerance")
        if np.any(np.diff(arr, axis=1) < -1e-9):
            raise SchemeInstabilityError(f"{name} is non-monotone beyond tolerance")
    return grid


# --- conditional densities and the filter --------------------------------------

def conditional_densities(params: ModelParams, t: float, x,
                          grid: UVGrid | None = None):
    """Densities p(t, x), q(t, x) of Q_t given the low/high starting state.

    Finite t: Stieltjes convolution of the grid c.d.f. increments with
    phi(t, .), the endpoint atoms convolved explicitly (differentiating
    through a point mass on the grid would be ill-posed). t = math.inf:
    closed-form Beta convolutions. Negative values beyond -1e-10 indicate a
    broken grid and raise.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if math.isinf(t):
        p, q = p_q_infinity(params, x)
    else:
        d = _drift(params)
        if grid is None:
            grid = solve_uv_pde(params, t_max=t, snapshot_times=[t])
        qd = QDecomposition(params)
        i = grid.row(t)
        xs = grid.x_physical(grid.times[i])
        mid = 0.5 * (xs[1:] + xs[:-1])
        atom_u = grid.u[i, 0]
        atom_v = math.exp(-d.beta * grid.times[i])
        du = np.diff(grid.u[i])
        dv = np.diff(grid.v[i])
        dv[-1] = max(dv[-1] - atom_v, 0.0)
        lo, hi = xs[0], xs[-1]
        p = atom_u * qd.phi(t, x - lo) + qd.phi(t, x[:, None] - mid[None, :]) @ du
        q = atom_v * qd.phi(t, x - hi) + qd.phi(t, x[:, None] - mid[None, :]) @ dv
    if np.any(p < -1e-10) or np.any(q < -1e-10):
        raise NumericError("negative conditional density: grid or quadrature failure")
    return p, q


def filter_expectation(params: ModelParams, t: float, x,
                       grid: UVGrid | None = None):
    """E[mu_0 | Q_t = x] = (rho1 beta p + rho2 alpha q) / (beta p + alpha q).

    Accepts t = math.inf for the stationary filter. Raises
    OutsideSupportError where both densities have fully underflowed.
    """
    d = _drift(params)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    p, q = conditional_densities(params, t, x_arr, grid=grid)
    wp = d.beta * np.maximum(p, 0.0)
    wq = d.alpha * np.maximum(q, 0.0)
    total = wp + wq
    if np.any(total < 1e-300):
        bad = x_arr[total < 1e-300]
        raise OutsideSupportError(
            f"conditional densities vanish at x = {bad[:3]}...; filter undefined there")
    out = (d.rho1 * wp + d.rho2 * wq) / total
    return out if np.ndim(x) else float(out[0])


def g_infinity(params: ModelParams, x):
    """Stationary optimal weight: E[mu_0 | Q_inf = x] / sigma^2."""
    val = filter_expectation(params, math.inf, x)
    return val / params.sigma**2


def filter_strategy(params: ModelParams) -> NonlinearFilter:
    """Tabulated g_infinity as a total, vectorized strategy evaluator.

    Evaluated once on 4001 points spanning the shifted support plus 12
    Gaussian widths each side and linearly interpolated; beyond the grid
    the filter saturates at its exact asymptotes rho1/sigma^2 and
    rho2/sigma^2, so the evaluator is total on R.
    """
    d = _drift(params)
    law = stationary_law(params)
    mean, var = QDecomposition(params).phi_params(math.inf)
    pad = 12.0 * math.sqrt(var)
    zs = np.linspace(law.lo + mean - pad, law.hi + mean + pad, 4001)
    gs = g_infinity(params, zs)
    lo_w, hi_w = d.rho1 / params.sigma**2, d.rho2 / params.sigma**2

    def g(z: np.ndarray) -> np.ndarray:
        return np.interp(z, zs, gs, left=lo_w, right=hi_w)

    return NonlinearFilter(g=g, name="filter")


def long_run_growth_ctmc(params: ModelParams, n_nodes: int = 192,
                         n_outer: int = 4096) -> float:
    """Long-run log growth of the stationary filter weight:

        prefactor * int [ (int z l(z) phi_inf(y - z) dz)^2
                          / int l(z) phi_inf(y - z) dz ] dy,

    prefactor = c beta lambda^2 (rho2 - rho1) / (2 sigma^2 (alpha + beta)).
    The outer integral is truncated 8 Gaussian widths beyond the shifted
    support; the Gaussian tail estimate, which must stay below 1e-9
    relative, guards the truncation.
    """
    pad_sigmas = 8.0
    d = _drift(params)
    law = stationary_law(params)
    qd = QDecomposition(params)
    mean, var = qd.phi_params(math.inf)
    sd = math.sqrt(var)

    # inner integrals as expectations under the unconditional Beta law
    z_nodes, w = law.nodes(0.0, 0.0, n_nodes)
    # int l(z) f(z) dz = norm * E_Beta[f]; norm cancels prefactor to lambda^2/(2 sigma^2)
    a, b = law.a_exp, law.b_exp
    log_norm = ((a + b - 1.0) * math.log(d.rho2 - d.rho1)
                + math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
                - math.log(params.lam))
    norm = math.exp(log_norm)
    prefactor = (law.c * d.beta * params.lam**2 * (d.rho2 - d.rho1)
                 / (2.0 * params.sigma**2 * (d.alpha + d.beta)))

    y_lo = law.lo + mean - pad_sigmas * sd
    y_hi = law.hi + mean + pad_sigmas * sd
    # composite Gauss-Legendre panels over [y_lo, y_hi]
    gl_x, gl_w = np.polynomial.legendre.leggauss(32)
    n_panels = max(8, n_outer // 32)
    edges = np.linspace(y_lo, y_hi, n_panels + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    ys = (mids[:, None] + half[:, None] * gl_x[None, :]).ravel()
    wy = (half[:, None] * gl_w[None, :]).ravel()

    phi = qd.phi(math.inf, ys[:, None] - z_nodes[None, :])
    N = phi @ w
    M = phi @ (w * z_nodes)
    integrand = np.where(N > 0.0, M * M / np.where(N > 0.0, N, 1.0), 0.0)
    value = prefactor * norm * float(integrand @ wy)

    # Gaussian tail bound on the discarded mass: |z| <= max support bound
    zmax = max(abs(law.lo), abs(law.hi))
    tail_mass = math.erfc(pad_sigmas / math.sqrt(2.0))
    tail = prefactor * norm * zmax**2 * tail_mass
    if tail > 1e-9 * max(abs(value), 1.0):
        raise QuadratureError(
            f"outer integral truncation too coarse (tail estimate {tail:.3e})",
            achieved_tol=tail)
    return value
