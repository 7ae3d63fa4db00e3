"""Domain types, parameter validation, and the ExpMA-period <-> lambda map.

Everything downstream consumes these types. Units are months throughout:
drifts and intensities are per month, volatilities per sqrt(month), and a
trading day enters only through dt = 1/21 (21 trading days per month).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Union

import numpy as np

from .errors import ConfigError, ValidationError

TRADING_DAYS_PER_MONTH = 21
DEFAULT_DT = 1.0 / TRADING_DAYS_PER_MONTH

# Near-equality guard for the CTMC technical condition lambda != alpha + beta:
# closer than this the n4 difference quotients are numerically meaningless.
LAMBDA_AB_GUARD = 1e-8
# Relative near-equality guard for the OU technical condition kappa != lambda.
# The OU coefficients divide by (kappa - lambda)^2. With lambda = 2, delta =
# 0.05, mu_bar = 0.01, m1_0 = 0, v1_0 = 0.001, sigma = 0.0436 and T = 24, the
# exact-integral slope a1 is off by 4.6e-9 relative at |kappa - lambda| =
# 1e-5 lambda, 1.4e-6 at 1e-6 lambda and 1.6e-2 at 1e-8 lambda.
KAPPA_LAMBDA_GUARD = 1e-5


@dataclass(frozen=True)
class OUDrift:
    """Ornstein-Uhlenbeck drift: d mu = kappa*(mu_bar - mu) dt + delta dWbar.

    The initial law mu_0 ~ N(m1_0, v1_0) defaults to the stationary one
    (m1_0 = mu_bar, v1_0 = delta^2 / (2*kappa)) when not given; the flag
    `stationary_default` records whether the default was taken, and is
    surfaced in experiment metadata.
    """

    kappa: float
    mu_bar: float
    delta: float
    m1_0: float | None = None
    v1_0: float | None = None
    stationary_default: bool = field(init=False, default=False)

    def __post_init__(self):
        took_default = self.m1_0 is None and self.v1_0 is None
        if self.m1_0 is None:
            object.__setattr__(self, "m1_0", float(self.mu_bar))
        if self.v1_0 is None and self.kappa > 0:
            try:
                v1_0 = float(self.delta) ** 2 / (2.0 * self.kappa)
            except OverflowError:  # past the double range; `validate` names it
                v1_0 = math.inf
            object.__setattr__(self, "v1_0", v1_0)
        object.__setattr__(self, "stationary_default", took_default)

    def to_dict(self) -> dict:
        # null initial-law fields mean "stationary default"; keeps the flag
        # round-trippable and visible in serialized configs
        return {
            "type": "ou",
            "kappa": self.kappa,
            "mu_bar": self.mu_bar,
            "delta": self.delta,
            "m1_0": None if self.stationary_default else self.m1_0,
            "v1_0": None if self.stationary_default else self.v1_0,
        }


@dataclass(frozen=True)
class CTMC2Drift:
    """Two-state Markov-chain drift jumping between rho1 < rho2.

    Generator intensities: alpha (rho1 -> rho2), beta (rho2 -> rho1).
    mu_0 is drawn from the stationary law (beta, alpha)/(alpha+beta).
    """

    rho1: float
    rho2: float
    alpha: float
    beta: float

    def to_dict(self) -> dict:
        return {
            "type": "ctmc2",
            "rho1": self.rho1,
            "rho2": self.rho2,
            "alpha": self.alpha,
            "beta": self.beta,
        }


Drift = Union[OUDrift, CTMC2Drift]


@dataclass(frozen=True)
class ModelParams:
    """Market model: a drift specification plus price volatility and ExpMA rate.

    Every way of making one runs `validate`, so every instance is valid."""

    drift: Drift
    sigma: float
    lam: float  # ExpMA decay rate; serialized as "lambda"

    def __post_init__(self):
        validate(self)

    @property
    def is_ou(self) -> bool:
        return isinstance(self.drift, OUDrift)

    @property
    def is_ctmc(self) -> bool:
        return isinstance(self.drift, CTMC2Drift)

    def with_lambda(self, lam: float) -> "ModelParams":
        return replace(self, lam=float(lam))

    def with_sigma(self, sigma: float) -> "ModelParams":
        return replace(self, sigma=float(sigma))

    def to_dict(self) -> dict:
        return {"drift": self.drift.to_dict(), "sigma": self.sigma, "lambda": self.lam}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        try:
            dd = dict(d["drift"])
            kind = dd.pop("type")
            sigma = _number("params.sigma", d["sigma"])
            lam = _number("params.lambda", d["lambda"])
        except (KeyError, TypeError) as exc:
            raise ValidationError([("params", "schema", f"missing/invalid field: {exc}")]) from exc

        def num(key):  # a null or absent m1_0 or v1_0 takes the stationary default
            if key in ("m1_0", "v1_0") and dd.get(key) is None:
                return None
            return _number(f"params.drift.{key}", dd[key])

        if kind == "ou":
            drift = OUDrift(**{k: num(k) for k in ("kappa", "mu_bar", "delta", "m1_0", "v1_0")})
        elif kind == "ctmc2":
            drift = CTMC2Drift(**{k: num(k) for k in ("rho1", "rho2", "alpha", "beta")})
        else:
            raise ValidationError([("drift.type", "schema", f"unknown drift type {kind!r}")])
        return cls(drift=drift, sigma=sigma, lam=lam)


@dataclass(frozen=True)
class SimConfig:
    """Discretization and ensemble settings for the Monte Carlo engine;
    making one runs `validate_sim`."""

    horizon_months: float
    n_paths: int
    seed: int
    dt: float = DEFAULT_DT
    omega: float = 0.0
    x0: float = 0.0
    pi0: float = 1.0

    def __post_init__(self):
        validate_sim(self)

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon_months / self.dt))

    def to_dict(self) -> dict:
        return {
            "dt": self.dt,
            "horizon_months": self.horizon_months,
            "n_paths": self.n_paths,
            "seed": self.seed,
            "omega": self.omega,
            "x0": self.x0,
            "pi0": self.pi0,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        try:
            fields = dict(
                horizon_months=_number("sim.horizon_months", d["horizon_months"]),
                n_paths=_whole(d["n_paths"]),
                seed=_whole(d["seed"]),
                dt=_number("sim.dt", d.get("dt", DEFAULT_DT)),
                omega=_number("sim.omega", d.get("omega", 0.0)),
                x0=_number("sim.x0", d.get("x0", 0.0)),
                pi0=_number("sim.pi0", d.get("pi0", 1.0)),
            )
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValidationError([("sim", "schema", f"missing/invalid field: {exc}")]) from exc
        return cls(**fields)


def _number(name: str, value) -> float:
    """A JSON number, not a boolean, as a float; any other value is a
    ConfigError naming the field `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _whole(value):
    """An integral float such as 1e4 as an int; any other value as given."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


# --- strategies -------------------------------------------------------------

class Strategy:
    """Portfolio weight rule f(t, z); subclasses are immutable values."""

    def weights(self, t, z: np.ndarray) -> np.ndarray:
        """Weights at signals `z`; `t` is a scalar or, as the wealth ledger
        passes it, an array aligned with the last (time) axis of `z`. Rows
        (paths) are evaluated independently: the ledger calls this once
        per row block of Z, so a row's weights must not depend on the
        other rows in the call."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantAffine(Strategy):
    """f(t, z) = a*z + b."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValidationError([("strategy", "nonfinite_coefficients",
                                    f"affine coefficients must be finite, got ({self.a}, {self.b})")])

    def weights(self, t: float, z: np.ndarray) -> np.ndarray:
        return self.a * np.asarray(z, dtype=float) + self.b


@dataclass(frozen=True)
class TimeVaryingAffine(Strategy):
    """f(t, z) = a(t)*z + b(t) with a caller-supplied coefficient evaluator."""

    coefficients: Callable[[float], tuple[float, float]]

    def weights(self, t, z: np.ndarray) -> np.ndarray:
        a, b = self.coefficients(t)
        t_all, ok = np.broadcast_arrays(t, np.isfinite(a) & np.isfinite(b))
        if not ok.all():
            raise ValidationError([("strategy", "nonfinite_coefficients",
                                    f"coefficient evaluator returned a non-finite value "
                                    f"at t={t_all[~ok][0]}")])
        return a * np.asarray(z, dtype=float) + b


@dataclass(frozen=True)
class NonlinearFilter(Strategy):
    """f(t, z) = g(z) for a pointwise (vectorized) evaluator g."""

    g: Callable[[np.ndarray], np.ndarray]

    def weights(self, t: float, z: np.ndarray) -> np.ndarray:
        return np.asarray(self.g(np.asarray(z, dtype=float)), dtype=float)


@dataclass(frozen=True)
class BuyAndHold(Strategy):
    """Hold one share of the risky asset throughout; the comparison baseline."""

    def weights(self, t: float, z: np.ndarray) -> np.ndarray:
        return np.ones_like(np.asarray(z, dtype=float))


# --- validation -------------------------------------------------------------

def validate(params: ModelParams) -> ModelParams:
    """Return `params` unchanged iff every model invariant holds.

    All violations are collected and reported together, each with the
    offending field and a stable code; the two technical exclusions get
    their own codes (``kappa_equals_lambda``, ``lambda_equals_alpha_plus_beta``).
    """
    v: list[tuple[str, str, str]] = []

    def positive(field: str, name: str, value: float) -> None:
        # NaN and -inf fail the sign test; +inf passes it and is caught here
        if not (value > 0):
            v.append((field, f"nonpositive_{name}", f"{name} must be > 0, got {value}"))
        elif not math.isfinite(value):
            v.append((field, f"nonfinite_{name}", f"{name} must be finite, got {value}"))
        elif value < sys.float_info.min:  # its squares and rate products underflow
            v.append((field, f"subnormal_{name}",
                      f"{name} must be >= {sys.float_info.min:g}, got {value}"))

    def finite(field: str, name: str, value: float) -> None:
        if not math.isfinite(value):
            v.append((field, f"nonfinite_{name}", f"{name} must be finite, got {value}"))

    positive("sigma", "sigma", params.sigma)
    positive("lambda", "lambda", params.lam)

    d = params.drift
    if isinstance(d, OUDrift):
        finite("drift.mu_bar", "mu_bar", d.mu_bar)
        finite("drift.m1_0", "m1_0", d.m1_0)
        positive("drift.kappa", "kappa", d.kappa)
        positive("drift.delta", "delta", d.delta)
        if d.v1_0 is None or not (d.v1_0 >= 0):
            v.append(("drift.v1_0", "negative_initial_variance",
                      f"v1_0 must be >= 0, got {d.v1_0}"))
        else:
            finite("drift.v1_0", "v1_0", d.v1_0)
        if abs(d.kappa - params.lam) < KAPPA_LAMBDA_GUARD * params.lam:
            v.append(("drift.kappa", "kappa_equals_lambda",
                      "kappa = lambda is excluded (moment formulas are singular there); "
                      f"|kappa - lambda| must be >= {KAPPA_LAMBDA_GUARD:g} * lambda"))
    elif isinstance(d, CTMC2Drift):
        finite("drift.rho1", "rho1", d.rho1)
        finite("drift.rho2", "rho2", d.rho2)
        if not (d.rho1 < d.rho2):
            v.append(("drift.rho1", "rho_order", f"require rho1 < rho2, got {d.rho1} >= {d.rho2}"))
        positive("drift.alpha", "alpha", d.alpha)
        positive("drift.beta", "beta", d.beta)
        if abs(params.lam - (d.alpha + d.beta)) < LAMBDA_AB_GUARD:
            v.append(("lambda", "lambda_equals_alpha_plus_beta",
                      "lambda = alpha + beta is excluded (second moment is singular there)"))
    else:
        v.append(("drift", "unknown_drift", f"unsupported drift type {type(d).__name__}"))

    if v:
        raise ValidationError(v)
    return params


def validate_sim(config: SimConfig) -> SimConfig:
    """Return `config` unchanged iff the simulation invariants hold."""
    v: list[tuple[str, str, str]] = []
    if not (config.dt > 0):
        v.append(("dt", "nonpositive_dt", f"dt must be > 0, got {config.dt}"))
    if not (config.horizon_months > 0):
        v.append(("horizon_months", "nonpositive_horizon",
                  f"horizon_months must be > 0, got {config.horizon_months}"))
    elif not math.isfinite(config.horizon_months):
        v.append(("horizon_months", "nonfinite_horizon",
                  f"horizon_months must be finite, got {config.horizon_months}"))
    elif config.dt > 0 and not math.isfinite(config.horizon_months / config.dt):
        v.append(("dt", "nonfinite_n_steps", f"horizon_months / dt = {config.horizon_months}"
                  f" / {config.dt} overflows; the step count must be finite"))
    elif config.dt > 0 and config.n_steps < 1:
        v.append(("horizon_months", "n_steps_too_small",
                  f"horizon_months = {config.horizon_months} is shorter than half a step "
                  f"(dt = {config.dt}); the simulation needs at least one step"))
    for name, lo, hi, code in (("n_paths", 1, math.inf, "n_paths_too_small"),
                               ("seed", 0, 2**64, "seed_out_of_range")):
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            v.append((name, f"{name}_not_integer", f"{name} must be an integer, got {value!r}"))
        elif not lo <= value < hi:
            v.append((name, code, f"{name} must be in [{lo}, {hi}), got {value}"))
    if not (0.0 <= config.omega < 1.0):
        v.append(("omega", "omega_out_of_range", f"omega must be in [0, 1), got {config.omega}"))
    if not math.isfinite(config.x0):
        v.append(("x0", "nonfinite_x0", f"x0 must be finite, got {config.x0}"))
    if not (config.pi0 > 0):
        v.append(("pi0", "nonpositive_pi0", f"initial wealth must be > 0, got {config.pi0}"))
    elif not math.isfinite(config.pi0):
        v.append(("pi0", "nonfinite_pi0", f"initial wealth must be finite, got {config.pi0}"))
    if v:
        raise ValidationError(v)
    return config


def period_to_lambda(period_days: int, dt: float = DEFAULT_DT) -> float:
    """ExpMA decay rate lambda for an averaging period of `period_days` days.

    The recent-price weight of a P-day ExpMA is 2/(P+1); matching it to
    lambda*dt gives lambda = 2 / ((P+1)*dt). With dt = 1/21 the common
    periods {10, 20, 50, 100, 200} map to {42/11, 2, 42/51, 42/101, 42/201}.
    """
    if not (isinstance(period_days, (int, np.integer)) and period_days >= 1):
        raise ValidationError([("period_days", "bad_period",
                                f"period_days must be a positive integer, got {period_days!r}")])
    if not (dt > 0):
        raise ValidationError([("dt", "nonpositive_dt", f"dt must be > 0, got {dt}")])
    return 2.0 / ((period_days + 1) * dt)
