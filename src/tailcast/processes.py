"""Seedable simulators for the three stationary test processes.

All output lands on a regular grid t0 + i*h as a Trajectory. A time becomes
an index of the lattice hZ in one place, ``_aligned_index``, and all index
arithmetic after it is on integers. The Gaussian process with covariance
exp(-|t|/2) is Markov, so exact O(length) recursion replaces dense
Cholesky; a Python loop runs it with the float operations of
``scipy.signal.lfilter``, so no Gaussian run imports ``scipy.signal``, and
the same loop steps many replicate paths at once.
The stable moving averages ride on an integer innovation lattice
convolved with a finite exponential kernel whose stable norm is exactly
one, making the marginal law known in closed form. The autoregressive
simulator is the generic recursion with pluggable innovation law and
burn-in; its 10,000-step burn-ins need ``lfilter``'s C loop, and it alone
imports ``scipy.signal``, when it runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union, get_args

import numpy as np

from .csvio import write_csv
from .distributions import Cauchy, Gaussian, Levy, Marginal
from .errors import DomainError, NonFiniteInput, check_fields

__all__ = [
    "Trajectory",
    "GaussExpCov",
    "StableMovingAverage",
    "ArStudentT",
    "ProcessSpec",
    "default_kernel",
    "simulate_gauss_exp_cov",
    "simulate_stable_ma",
    "simulate_ar",
    "simulate",
    "write_trajectory_csv",
]

KERNEL_SUPPORT = 251  # taps at integer lags 0..250; both stable norms equal 1 exactly


def _aligned_index(t, h, what) -> int:
    """The index k of time t on the lattice hZ, the one time-to-index rule.

    t must lie within 1e-9 of k*h, else DomainError names it as ``what``.
    The float k*h itself passes for every |k| up to far beyond 10**9, so
    times built as k*h get their indices k however far from 0 they lie.
    """
    q = t / h
    if not math.isfinite(q):
        raise DomainError(f"{what}={t} lies beyond the float range of multiples of h={h}")
    k = round(q)
    if abs(t - k * h) > 1e-9:
        raise DomainError(f"{what}={t} is not a multiple of h={h}")
    return k


@dataclass(frozen=True)
class Trajectory:
    """Process values on the grid t0 + i*h."""

    t0: float
    h: float
    values: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.t0) and np.isfinite(self.h)) or self.h <= 0:
            raise DomainError("need finite t0 and step h > 0")
        v = np.asarray(self.values, dtype=float).ravel()
        if v.size < 1:
            raise DomainError("trajectory must hold at least one value")
        if not np.all(np.isfinite(v)):
            raise NonFiniteInput("trajectory values contain NaN or infinity")
        object.__setattr__(self, "values", v)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.values.size)

    def index_of(self, t: float) -> int:
        """Grid index of time t; DomainError if t or t0 is off the lattice
        hZ, or t lies outside the trajectory."""
        i = _aligned_index(t, self.h, "t") - _aligned_index(self.t0, self.h, "t0")
        if not (0 <= i < self.values.size):
            raise DomainError(f"t={t} outside the simulated window")
        return i


@dataclass(frozen=True)
class GaussExpCov:
    """Stationary Gaussian process, N(0,1) marginal, covariance exp(-|t|/2)."""

    kind = "gauss_exp_cov"
    marginal = Gaussian(0.0, 1.0)


# the marginal of each stable moving average; laws are frozen, so every spec
# (and every evaluation replicate) shares one instance per alpha
_STANDARD_LAWS = {1.0: Cauchy(0.0, 1.0), 0.5: Levy(1.0)}


@dataclass(frozen=True)
class StableMovingAverage:
    """Moving average of i.i.d. stable innovations over an integer lattice.

    alpha = 1 uses symmetric Cauchy innovations, alpha = 0.5 totally skewed
    positive (Levy) innovations. The kernel is ``default_kernel(alpha)``,
    whose stable norm is 1, so the marginal is the standard law of the same
    family.
    """

    kind = "stable_ma"
    alpha: float

    def __post_init__(self):
        check_fields(self)
        if self.alpha not in (0.5, 1.0):
            raise DomainError(f"alpha must be 0.5 or 1.0, got {self.alpha}", key="alpha")

    @property
    def kernel(self) -> np.ndarray:
        return default_kernel(self.alpha)

    @property
    def marginal(self) -> Marginal:
        return _STANDARD_LAWS[self.alpha]


@dataclass(frozen=True)
class ArStudentT:
    """AR(p) recursion X(t) = phi_1 X(t-ph) + ... + phi_p X(t-h) + xi_t.

    Note the index convention: phi_1 multiplies the most distant lag. The
    innovation law is pluggable (experiments use Student-t, nu = 0.8).
    """

    kind = "ar_student_t"
    marginal = None  # no closed form
    phi: tuple
    innovation: Marginal

    def __post_init__(self):
        check_fields(self)
        if len(self.phi) < 1 or not all(np.isfinite(self.phi)):
            raise DomainError("need at least one finite coefficient", key="phi")
        # characteristic polynomial 1 - sum_j phi_j z^(p-j+1); lag-k
        # coefficient is phi_{p-k+1}
        a = np.array(self.phi[::-1])  # a[k-1] multiplies lag k
        roots = np.roots(np.concatenate([-a[::-1], [1.0]]))
        if np.any(np.abs(roots) <= 1.0):
            raise DomainError(f"characteristic roots {np.abs(roots)} must lie outside the unit "
                              "circle", key="phi")

    @property
    def lag_coeffs(self) -> np.ndarray:
        """Coefficients ordered by lag: index k-1 multiplies X(t-kh)."""
        return np.array(self.phi[::-1], dtype=float)


ProcessSpec = Union[GaussExpCov, StableMovingAverage, ArStudentT]
# JSON tag -> process class; the config reads and writes a process by its tag
_KINDS = {cls.kind: cls for cls in get_args(ProcessSpec)}


@functools.cache
def default_kernel(alpha: float) -> np.ndarray:
    """Exponential moving-average kernel with unit stable norm.

    m(x) = e^{-0.02x} * (1-e^{-0.02})/(1-e^{-5.02})        for alpha = 1,
    m(x) = e^{-0.02x} * (1-e^{-0.01})^2/(1-e^{-2.51})^2    for alpha = 0.5,
    on integer lags x = 0..250. With 251 taps both stable norms are exactly
    one by a geometric-series identity; a 252nd tap would break it at 1e-4.
    Built once per alpha and returned read-only, since every caller shares it.
    """
    x = np.arange(KERNEL_SUPPORT, dtype=float)
    if alpha == 1.0:
        kernel = np.exp(-0.02 * x) * (1.0 - np.exp(-0.02)) / (1.0 - np.exp(-5.02))
    elif alpha == 0.5:
        kernel = np.exp(-0.02 * x) * (1.0 - np.exp(-0.01)) ** 2 / (1.0 - np.exp(-2.51)) ** 2
    else:
        raise DomainError(f"no default kernel for alpha={alpha}")
    kernel.flags.writeable = False
    return kernel


def _check_grid(t0, h, length):
    if not (np.isfinite(t0) and np.isfinite(h)) or h <= 0 or int(length) < 1:
        raise DomainError("need finite t0, h > 0 and length >= 1")
    return float(t0), float(h), int(length)


def _gauss_innovations(h, length, rng) -> np.ndarray:
    """The innovations of one Gaussian path: Z_0, then sqrt(1-r^2) Z_i."""
    r = np.exp(-h / 2.0)
    innov = rng.standard_normal(length)
    innov[1:] *= np.sqrt(1.0 - r * r)
    return innov


def _gauss_recursion(innovations, h) -> list:
    """``lfilter([1.0], [1.0, -r], x)`` with r = e^{-h/2}, bit for bit.

    Its transposed direct form II, step by step in its order. The steps of
    ``innovations`` are floats, for one path, or arrays, for as many paths
    at once: each path gets the same float operations either way.
    Importing scipy.signal costs more than this loop until a process has
    simulated millions of steps.
    """
    a1 = float(-np.exp(-h / 2.0))
    values = []
    z = 0.0
    for x in innovations:
        y = z + x
        values.append(y)
        z = x * 0.0 - y * a1
    return values


def simulate_gauss_exp_cov(t0, h, length, rng) -> Trajectory:
    """Exact path of the Gaussian process via its Markov recursion.

    X(t+h) = r X(t) + sqrt(1-r^2) Z with r = e^{-h/2} and X(t0) ~ N(0,1).
    """
    t0, h, length = _check_grid(t0, h, length)
    values = _gauss_recursion(_gauss_innovations(h, length, rng).tolist(), h)
    return Trajectory(t0, h, np.array(values))


def _simulate_gauss_rows(h, length, rngs) -> np.ndarray:
    """The values of ``simulate_gauss_exp_cov(t0, h, length, rng)`` for
    every generator of ``rngs``, one row each, bit for bit.

    Each row draws from its own generator as that call would, and then one
    recursion steps every row at once. The values do not depend on t0.
    """
    _, h, length = _check_grid(0.0, h, length)
    innov = np.array([_gauss_innovations(h, length, rng) for rng in rngs])
    return np.array(_gauss_recursion(innov.T, h)).T


def simulate_stable_ma(spec: StableMovingAverage, t0, h, length, rng) -> Trajectory:
    """Stable moving average on the lattice hZ.

    Innovations are drawn on integer sites covering
    [t0/h - (taps-1), t0/h + length - 1] and convolved with the kernel, so a
    single call yields genuinely dependent values across its whole window.
    """
    t0, h, length = _check_grid(t0, h, length)
    _aligned_index(t0, h, "t0")  # the innovation sites are integers
    kernel = spec.kernel
    innov = spec.marginal.sample(length + kernel.size - 1, rng)
    values = np.convolve(innov, kernel, mode="valid")
    return Trajectory(t0, h, values)


def simulate_ar(spec: ArStudentT, t0, h, length, burn_in, rng) -> Trajectory:
    """AR(p) path from zero initial state with the first burn_in steps dropped."""
    t0, h, length = _check_grid(t0, h, length)
    if int(burn_in) < 0:
        raise DomainError("burn_in must be >= 0")
    burn_in = int(burn_in)
    innov = spec.innovation.sample(burn_in + length, rng)
    a = np.concatenate([[1.0], -spec.lag_coeffs])
    from scipy import signal
    values = signal.lfilter([1.0], a, innov)[burn_in:]
    return Trajectory(t0, h, values)


DEFAULT_AR_BURN_IN = 10_000


def simulate(spec: ProcessSpec, t0, h, length, rng) -> Trajectory:
    """Dispatch on the process kind; an AR path drops DEFAULT_AR_BURN_IN steps."""
    if isinstance(spec, GaussExpCov):
        return simulate_gauss_exp_cov(t0, h, length, rng)
    if isinstance(spec, StableMovingAverage):
        return simulate_stable_ma(spec, t0, h, length, rng)
    if isinstance(spec, ArStudentT):
        return simulate_ar(spec, t0, h, length, DEFAULT_AR_BURN_IN, rng)
    raise TypeError(f"unknown process spec {type(spec).__name__}")


def write_trajectory_csv(path, traj: Trajectory):
    write_csv(path, ["t", "value"], zip(traj.times, traj.values))

