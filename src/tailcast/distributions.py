"""Marginal distribution families used as prediction weights and process laws.

Four parametric families, each exposing cdf/pdf/quantile/sample plus a
quantile-based parameter estimator. Heavy-tailed members (Cauchy, Levy,
Student-t with nu < 2) have no usable moments, so every estimator here
works through order statistics only.

Models serialize to plain dicts ``{"family": name, "params": {...}}`` so run
configurations and manifests can embed them as JSON.
"""

from __future__ import annotations

import functools
import math
import reprlib
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, NonFiniteInput

__all__ = [
    "Marginal",
    "Gaussian",
    "Cauchy",
    "Levy",
    "StudentT",
    "estimate",
    "to_json",
    "from_json",
]


@functools.cache
def _special():
    """``scipy.special``, imported at the first kernel call that needs it.

    The Cauchy kernels and the process simulators call no special function,
    and the import costs about 0.25 s and 24 MB; caching the module keeps the
    import statement out of the per-call cost of every other kernel.
    """
    from scipy import special

    return special


_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _check_finite(x, name="x"):
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput(f"{name} contains non-finite values")
    return x


def _check_prob(p):
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise NonFiniteInput("p contains non-finite values")
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise DomainError("p must lie strictly inside (0, 1)")
    return p


class Marginal:
    """Base class for the parametric families.

    A family is a frozen dataclass whose fields are its parameters, in the
    order ``params()`` lists them; every one must be finite, and each name
    in ``_positive`` must be > 0. Subclasses implement
    ``_cdf``/``_pdf``/``_quantile`` on float arrays and ``sample``; input
    checking and scalar/array symmetry live here.
    """

    family = "base"
    _positive = ()

    def __post_init__(self):
        if not all(np.isfinite(getattr(self, f.name)) for f in fields(self)):
            raise NonFiniteInput("parameters must be finite")
        for name in self._positive:
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")

    def _dispatch(self, impl, x):
        scalar = x.ndim == 0
        out = impl(np.atleast_1d(x))
        return float(out[0]) if scalar else out

    def cdf(self, x):
        return self._dispatch(self._cdf, _check_finite(x))

    def pdf(self, x):
        return self._dispatch(self._pdf, _check_finite(x))

    def quantile(self, p):
        return self._dispatch(self._quantile, _check_prob(p))

    def sample(self, n, rng):
        raise NotImplementedError

    def params(self) -> dict:
        return {f.name: float(getattr(self, f.name)) for f in fields(self)}

    def __repr__(self):
        inner = ", ".join(f"{k}={v:g}" for k, v in self.params().items())
        return f"{type(self).__name__}({inner})"


@dataclass(frozen=True, repr=False)
class _LocationScale(Marginal):
    """Law of ``mu + sigma * Z`` for a standard law Z, whose kernels read ``_z(x)``."""

    mu: float = 0.0
    sigma: float = 1.0
    _positive = ("sigma",)

    def __post_init__(self):
        super().__post_init__()
        # below it, the kernels' (x - mu) / sigma overflows at every x
        if self.sigma < np.finfo(float).tiny:
            raise DomainError(f"sigma must be >= {np.finfo(float).tiny:g}, the smallest normal "
                              "float", key="sigma")

    def _z(self, x):
        # the standard law skips the affine map: x - 0.0 and x / 1.0 are x,
        # bit for bit, for every float including -0.0, subnormals and inf
        # (at mu = -0.0, x = -0.0 gives z = -0.0 where x - mu is +0.0, and
        # every kernel maps both zeros alike)
        if self.mu == 0.0 and self.sigma == 1.0:
            return x
        return (x - self.mu) / self.sigma


@dataclass(frozen=True, repr=False)
class Gaussian(_LocationScale):
    """Normal law with mean ``mu`` and standard deviation ``sigma``."""

    family = "gaussian"

    def _cdf(self, x):
        return _special().ndtr(self._z(x))

    def _pdf(self, x):
        z = self._z(x)
        return np.exp(-0.5 * z * z) / (_SQRT_2PI * self.sigma)

    def _quantile(self, p):
        return self.mu + self.sigma * _special().ndtri(p)

    def sample(self, n, rng):
        return self.mu + self.sigma * rng.standard_normal(int(n))


@dataclass(frozen=True, repr=False)
class Cauchy(_LocationScale):
    """Cauchy law; location ``mu``, scale ``sigma``. No finite moments."""

    family = "cauchy"

    def _cdf(self, x):
        return 0.5 + np.arctan(self._z(x)) / np.pi

    def _pdf(self, x):
        z = self._z(x)
        return 1.0 / (np.pi * self.sigma * (1.0 + z * z))

    def _quantile(self, p):
        return self.mu + self.sigma * np.tan(np.pi * (p - 0.5))

    def sample(self, n, rng):
        return self.mu + self.sigma * rng.standard_cauchy(int(n))


@dataclass(frozen=True, repr=False)
class Levy(Marginal):
    """One-sided stable law of index 1/2 on (0, inf) with scale ``c``.

    cdf(x) = erfc(sqrt(c / (2 x))) for x > 0. Equals the law of c / Z^2 for
    a standard normal Z, which is also how sampling works.
    """

    c: float = 1.0
    family = "levy"
    _positive = ("c",)

    def _cdf(self, x):
        with np.errstate(all="ignore"):  # x <= 0 is masked out
            return np.where(x > 0, _special().erfc(np.sqrt(self.c / (2.0 * x))), 0.0)

    def _pdf(self, x):
        c = self.c
        tiny = np.finfo(float).tiny
        # the product is the more accurate form while its factors are normal floats;
        # where one over- or underflows, or is subnormal and has lost bits (c / (2 pi)
        # too), the product is inaccurate, 0 or not finite, and the logs take over
        with np.errstate(all="ignore"):  # x <= 0 is masked out
            scale, power, tail = c / (2.0 * np.pi), x ** -1.5, np.exp(-c / (2.0 * x))
            p = np.sqrt(scale) * power * tail
            logp = 0.5 * (np.log(c) - np.log(2.0 * np.pi)) - 1.5 * np.log(x) - c / (2.0 * x)
            kept = (p > 0) & (p < np.inf) & (scale >= tiny) & (power >= tiny) & (tail >= tiny)
            return np.where(x > 0, np.where(kept, p, np.exp(logp)), 0.0)

    def _quantile(self, p):
        # invert erfc(sqrt(c/(2x))) = p
        return self.c / (2.0 * _special().erfcinv(p) ** 2)

    def sample(self, n, rng):
        z = rng.standard_normal(int(n))
        return self.c / (z * z)


@dataclass(frozen=True, repr=False)
class StudentT(_LocationScale):
    """Student-t law with real degrees of freedom ``nu`` > 0.

    The cdf goes through the regularized incomplete beta function, which is
    accurate for fractional nu well below 1; the experiments lean on
    nu = 0.8 and nu = 0.7. Tail index equals nu, so no moments of order
    >= nu exist.
    """

    nu: float = 1.0
    family = "student_t"
    _positive = ("sigma", "nu")

    def _cdf(self, x):
        z = self._z(x)
        nu = self.nu
        w = nu / (nu + z * z)
        tail = 0.5 * _special().betainc(0.5 * nu, 0.5, w)
        return np.where(z > 0, 1.0 - tail, tail)

    def _pdf(self, x):
        z = self._z(x)
        nu = self.nu
        special = _special()
        lognorm = special.gammaln(0.5 * (nu + 1.0)) - special.gammaln(0.5 * nu) - 0.5 * np.log(nu * np.pi)
        return np.exp(lognorm - 0.5 * (nu + 1.0) * np.log1p(z * z / nu)) / self.sigma

    def _quantile(self, p):
        nu = self.nu
        tail = np.where(p < 0.5, p, 1.0 - p)
        # invert the incomplete-beta tail, then undo the variable change
        w = _special().betaincinv(0.5 * nu, 0.5, 2.0 * tail)
        with np.errstate(divide="ignore"):
            z = np.sqrt(nu * (1.0 - w) / np.maximum(w, np.finfo(float).tiny))
        z = np.where(p < 0.5, -z, z)
        z = np.where(p == 0.5, 0.0, z)
        return self.mu + self.sigma * z

    def sample(self, n, rng):
        n = int(n)
        z = rng.standard_normal(n)
        v = rng.gamma(0.5 * self.nu, 2.0, size=n)  # chi-square with nu dof
        return self.mu + self.sigma * z / np.sqrt(v / self.nu)


_FAMILIES = {
    cls.family: cls
    for cls in (Gaussian, Cauchy, Levy, StudentT)
}


def to_json(model: Marginal) -> dict:
    """Plain-dict form ``{"family": ..., "params": {...}}``."""
    return {"family": model.family, "params": model.params()}


def from_json(obj: dict) -> Marginal:
    """Inverse of :func:`to_json`."""
    try:
        cls = _FAMILIES[obj["family"]]
    except KeyError:
        raise DomainError(f"unknown family {reprlib.repr(obj.get('family'))}") from None
    if not set(obj.get("params", {})) <= {f.name for f in fields(cls)}:
        raise DomainError(f"{cls.family} takes only " + ", ".join(f.name for f in fields(cls)))
    return cls(**obj.get("params", {}))


# fewest observations ``estimate`` fits a family to
_MIN_OBSERVATIONS = 50


def _prepared(data):
    data = np.asarray(data, dtype=float).ravel()
    if not np.all(np.isfinite(data)):
        raise NonFiniteInput("data contains non-finite values")
    if data.size < _MIN_OBSERVATIONS:
        raise DomainError(f"need at least {_MIN_OBSERVATIONS} observations, got {data.size}")
    if np.all(data == data[0]):
        raise DomainError("all observations identical")
    return data


def _fit_student_t(data):
    med = float(np.median(data))
    q75 = float(np.quantile(data, 0.75)) - med
    q95 = float(np.quantile(data, 0.95)) - med
    if q75 <= 0 or q95 <= q75:
        raise DomainError("upper quantiles do not separate; cannot fit scale/tail")

    def mismatch(nu):
        # inner step: sigma implied by the 0.75 quantile at this nu
        t75 = StudentT(0.0, 1.0, nu).quantile(0.75)
        sigma = q75 / t75
        return sigma * StudentT(0.0, 1.0, nu).quantile(0.95) - q95

    lo, hi = 0.05, 50.0
    flo, fhi = mismatch(lo), mismatch(hi)
    if flo < 0:  # tail heavier than nu=0.05 can express; clamp
        nu = lo
    elif fhi > 0:
        nu = hi
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mismatch(mid) > 0:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-10:
                break
        nu = 0.5 * (lo + hi)
    sigma = q75 / StudentT(0.0, 1.0, nu).quantile(0.75)
    return StudentT(med, sigma, float(nu))


def estimate(family: str, data) -> Marginal:
    """Quantile-based parameter estimate for ``family`` from raw data.

    Gaussian uses mean/sd; every other family is fit purely from quantiles
    because the targets here have infinite variance. Requires >= 50 points.
    """
    data = _prepared(data)
    if family == "gaussian":
        return Gaussian(float(np.mean(data)), float(np.std(data, ddof=1)))
    if family == "cauchy":
        q25, med, q75 = np.quantile(data, [0.25, 0.5, 0.75])
        return Cauchy(float(med), float((q75 - q25) / 2.0))
    if family == "levy":
        med = float(np.median(data))
        if med <= 0:
            raise DomainError("levy data must have positive median")
        return Levy(2.0 * med * float(_special().erfcinv(0.5)) ** 2)
    if family == "student_t":
        return _fit_student_t(data)
    raise DomainError(f"unknown family '{family}'")
