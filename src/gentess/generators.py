"""Catalogue of generator pairs (u, v) for the non-polynomial part of a section space.

Every pair carries closed-form derivatives of arbitrary order.  This keeps the
endpoint-derivative systems used by the basis recurrence and the smoothness
propagation exact to machine precision; no automatic or numeric differentiation
is involved anywhere.

The ``n`` argument threaded through the evaluation methods is the order of the
enclosing section space.  Only the degenerate polynomial pair (a regression
oracle against classical polynomial splines) depends on it.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from .errors import ValidationError

_REGISTRY: dict[str, type["GeneratorPair"]] = {}


def _register(cls):
    _REGISTRY[cls.kind] = cls
    return cls


def _falling(m: int, k: int) -> float:
    """m (m-1) ... (m-k+1); zero once k exceeds m."""
    if k > m:
        return 0.0
    return float(math.perm(m, k))


class GeneratorPair(ABC):
    """A pair of univariate generators with exact derivatives of every order."""

    kind: str = ""

    @abstractmethod
    def u_deriv(self, order: int, s, n: int):
        """order-th derivative of u at s (scalar or ndarray)."""

    @abstractmethod
    def v_deriv(self, order: int, s, n: int):
        """order-th derivative of v at s (scalar or ndarray)."""

    def deriv(self, which: str, order: int, s, n: int):
        if which == "u":
            return self.u_deriv(order, s, n)
        if which == "v":
            return self.v_deriv(order, s, n)
        raise ValidationError(f"unknown generator selector {which!r}; expected 'u' or 'v'")

    @abstractmethod
    def params(self) -> dict:
        """JSON-serializable parameters of the pair."""

    def analytic_flags(self, n: int, a: float, b: float) -> tuple[bool, bool] | None:
        """Closed-form (haar_ok, wronskian_ok) of the section space on [a, b].

        None when the family has no closed form; the flags are then decided
        by grid scans.
        """
        return None

    def cache_key(self) -> tuple:
        return (self.kind, tuple(sorted(self.params().items())))

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": self.params()}

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v}" for k, v in self.params().items())
        return f"{type(self).__name__}({args})"

    def __eq__(self, other) -> bool:
        return isinstance(other, GeneratorPair) and self.cache_key() == other.cache_key()

    def __hash__(self) -> int:
        return hash(self.cache_key())


@_register
class TwoExponentials(GeneratorPair):
    """u = exp(l1 s), v = exp(l2 s) with distinct rates.

    l1 = -l2 spans the same space as cosh/sinh of the common rate.
    """

    kind = "two_exponentials"

    def __init__(self, l1: float, l2: float):
        if not (math.isfinite(l1) and math.isfinite(l2)):
            raise ValidationError("exponential rates must be finite")
        if l1 == l2:
            raise ValidationError("exponential rates must be distinct")
        self.l1 = float(l1)
        self.l2 = float(l2)

    def u_deriv(self, order, s, n):
        s = np.asarray(s, dtype=float)
        return self.l1 ** order * np.exp(self.l1 * s)

    def v_deriv(self, order, s, n):
        s = np.asarray(s, dtype=float)
        return self.l2 ** order * np.exp(self.l2 * s)

    def params(self):
        return {"l1": self.l1, "l2": self.l2}

    def analytic_flags(self, n, a, b):
        return True, True


@_register
class ExpTimesLinear(GeneratorPair):
    """u = exp(l s), v = s exp(l s): the defective-eigenvalue family."""

    kind = "exp_times_linear"

    def __init__(self, l: float):
        if not math.isfinite(l):
            raise ValidationError("exponential rate must be finite")
        self.l = float(l)

    def u_deriv(self, order, s, n):
        s = np.asarray(s, dtype=float)
        return self.l ** order * np.exp(self.l * s)

    def v_deriv(self, order, s, n):
        s = np.asarray(s, dtype=float)
        if order == 0:
            return s * np.exp(self.l * s)
        return np.exp(self.l * s) * (self.l ** order * s + order * self.l ** (order - 1))

    def params(self):
        return {"l": self.l}

    def analytic_flags(self, n, a, b):
        return True, True


@_register
class ExpTrig(GeneratorPair):
    """u = exp(a s) cos(b s), v = exp(a s) sin(b s) with b != 0.

    Derivatives come from the complex rate a + ib: the order-k derivative of
    u + iv is (a+ib)^k exp((a+ib)s).
    """

    kind = "exp_trig"

    def __init__(self, alpha: float, beta: float):
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise ValidationError("rates must be finite")
        if beta == 0:
            raise ValidationError("oscillation rate beta must be nonzero")
        self.alpha = float(alpha)
        self.beta = float(beta)

    def _complex_deriv(self, order, s):
        s = np.asarray(s, dtype=float)
        w = complex(self.alpha, self.beta)
        return w ** order * np.exp(w * s)

    def u_deriv(self, order, s, n):
        return np.real(self._complex_deriv(order, s))

    def v_deriv(self, order, s, n):
        return np.imag(self._complex_deriv(order, s))

    def params(self):
        return {"alpha": self.alpha, "beta": self.beta}

    def analytic_flags(self, n, a, b):
        # top derivatives span exp(alpha s) times the rotations of sin(beta s),
        # whose zeros sit pi / |beta| apart
        return bool(abs(self.beta) * (b - a) < math.pi), True


@_register
class PowerPair(GeneratorPair):
    """u = s^m0, v = (1-s)^m1 with positive integer exponents.

    Not closed under differentiation, but well behaved for integration and
    differentiation in practice; validity on a given interval is decided
    numerically.
    """

    kind = "power_pair"

    def __init__(self, m0: int, m1: int):
        if int(m0) != m0 or int(m1) != m1 or m0 < 1 or m1 < 1:
            raise ValidationError("exponents must be positive integers")
        self.m0 = int(m0)
        self.m1 = int(m1)

    def u_deriv(self, order, s, n):
        s = np.asarray(s, dtype=float)
        c = _falling(self.m0, order)
        if c == 0.0:
            return np.zeros_like(s)
        return c * s ** (self.m0 - order)

    def v_deriv(self, order, s, n):
        s = np.asarray(s, dtype=float)
        c = _falling(self.m1, order)
        if c == 0.0:
            return np.zeros_like(s)
        return (-1.0) ** order * c * (1.0 - s) ** (self.m1 - order)

    def params(self):
        return {"m0": self.m0, "m1": self.m1}


@_register
class PolynomialDegenerate(GeneratorPair):
    """u = s^(n-2), v = s^(n-1): completes the monomials to a full polynomial space.

    Included as a regression oracle: with this pair the whole construction must
    reproduce classical Bernstein polynomials and polynomial spline behaviour.
    """

    kind = "polynomial_degenerate"

    def u_deriv(self, order, s, n):
        s = np.asarray(s, dtype=float)
        c = _falling(n - 2, order)
        if c == 0.0:
            return np.zeros_like(s)
        return c * s ** (n - 2 - order)

    def v_deriv(self, order, s, n):
        s = np.asarray(s, dtype=float)
        c = _falling(n - 1, order)
        if c == 0.0:
            return np.zeros_like(s)
        return c * s ** (n - 1 - order)

    def params(self):
        return {}

    def analytic_flags(self, n, a, b):
        # the top derivative span is the affine functions (at most one zero),
        # and the pair determinant is the constant (n-2)! (n-1)!
        return True, True


def generator_from_json(obj: dict) -> GeneratorPair:
    """Rebuild a generator pair from its {"kind": ..., "params": ...} form."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError("generator document must be an object with a 'kind' field")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ValidationError(f"unknown generator kind {kind!r}; known kinds: {known}")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ValidationError("generator 'params' must be an object")
    try:
        return _REGISTRY[kind](**params)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad parameters for generator {kind!r}: {exc}") from exc


def generator_kinds() -> list[str]:
    return sorted(_REGISTRY)
