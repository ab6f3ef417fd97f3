"""Normalized positive (Bernstein-like) basis of a section space.

The basis is built level by level through an integral recurrence.  Level 1
holds the two elements of the top-derivative span with unit boundary values.
Each later level integrates the previous one against its integral weights and
takes differences, which preserves normalization and positivity.  The top
level (k = n-1) is the Bernstein-like basis of the section space itself.

Functions at level k >= 1 are stored as Chebyshev series on [a, b]; the
cumulative integrals are computed spectrally on the coefficients, so every
level is exact relative to the level-1 proxies.  Derivatives never touch the
proxies: the derivative of a level-(k+1) function is a weighted difference of
level-k functions, and once the recursion reaches level 1 the remaining orders
come from the closed-form generator derivatives.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Chebyshev

from . import config
from .errors import NumericalError, ValidationError
from .generators import GeneratorPair
from .sectionspace import SectionSpace, make_section_space
from .util import cheb_points

#: proxy truncation: absolute coefficient tail, relative to the largest coefficient
_TAIL_TOL = 1e-13
_PROXY_DEGREES = (16, 32, 64, 128, 192, 256)
_VALIDATION_POINTS = 257
_POSITIVITY_FLOOR = -1e-12
_UNITY_TOL = 1e-9
_ZERO_PATTERN_TOL = 1e-9
_NONZERO_PATTERN_TOL = 1e-6


class LevelOneFunction:
    """Combination of the top-order generator derivatives with fixed boundary values."""

    def __init__(self, space: SectionSpace, cu: float, cv: float):
        self.space = space
        self.cu = float(cu)
        self.cv = float(cv)
        self._base = space.n - 2

    def __call__(self, s):
        return self.deriv(0, s)

    def deriv(self, order: int, s):
        sp = self.space
        return (self.cu * sp.u_deriv(self._base + order, s)
                + self.cv * sp.v_deriv(self._base + order, s))


@dataclass
class RecurrenceLevel:
    """One level of the recurrence: k+1 functions and their integral weights."""

    k: int
    series: list[Chebyshev]
    #: integral weights over [a, b]; populated for every level that gets integrated
    weights: np.ndarray | None = None
    #: closed-form handles, level 1 only
    base: tuple[LevelOneFunction, LevelOneFunction] | None = None


def base_pair(space: SectionSpace) -> tuple[LevelOneFunction, LevelOneFunction]:
    """The two elements of span<u^(n-2), v^(n-2)> with complementary unit boundary values.

    Solves the 2x2 boundary system; a singular system means the interval
    violates the two-zero-free property and construction cannot proceed.
    """
    if not space.dim_ok:
        raise ValidationError(
            "section space is numerically degenerate on this interval")
    if not space.haar_ok:
        raise ValidationError(
            "top-derivative span admits an element with two zeros on this interval")
    n = space.n
    a, b = space.a, space.b
    m = np.array([
        [float(space.u_deriv(n - 2, a)), float(space.v_deriv(n - 2, a))],
        [float(space.u_deriv(n - 2, b)), float(space.v_deriv(n - 2, b))],
    ])
    scale = np.max(np.abs(m))
    if scale == 0 or abs(np.linalg.det(m)) <= 1e-12 * scale * scale:
        raise NumericalError(
            "two-point boundary system is numerically singular; the interval "
            "violates the unique-zero property of the top-derivative span")
    cu0, cv0 = np.linalg.solve(m, np.array([1.0, 0.0]))
    cu1, cv1 = np.linalg.solve(m, np.array([0.0, 1.0]))
    f0 = LevelOneFunction(space, cu0, cv0)
    f1 = LevelOneFunction(space, cu1, cv1)
    pts = cheb_points(_VALIDATION_POINTS, a, b, interior=True)
    for name, f in (("first", f0), ("second", f1)):
        vals = np.asarray(f(pts), dtype=float)
        floor = _POSITIVITY_FLOOR * max(1.0, np.max(np.abs(vals)))
        if np.min(vals) < floor:
            raise NumericalError(
                f"{name} boundary solution is not positive on the open interval; "
                "the section space is invalid here")
    return f0, f1


def _fit_proxy(func, a: float, b: float, where: str) -> Chebyshev:
    """Adaptively interpolate an analytic function to tail tolerance."""
    for deg in _PROXY_DEGREES:
        series = Chebyshev.interpolate(lambda x: np.asarray(func(x), dtype=float),
                                       deg, domain=[a, b])
        coef = series.coef
        scale = max(1.0, float(np.max(np.abs(coef))))
        if np.max(np.abs(coef[-3:])) < _TAIL_TOL * scale:
            return series.trim(tol=1e-16 * scale)
    raise NumericalError(
        f"recurrence function {where} not representable to tolerance at the "
        f"configured proxy degree cap {_PROXY_DEGREES[-1]}")


class BernsteinBasis:
    """The n basis functions of a section space, with exact-recursion derivatives.

    Immutable after construction; evaluation is reentrant.
    """

    def __init__(self, space: SectionSpace, levels: dict[int, RecurrenceLevel],
                 proxy_degree: int):
        self.space = space
        self.n = space.n
        self.a = space.a
        self.b = space.b
        self.levels = levels
        self.proxy_degree = proxy_degree
        self._table_lock = threading.Lock()
        self._tables: dict[str, np.ndarray] = {}

    # -- evaluation ---------------------------------------------------------

    def _check_domain(self, s):
        arr = np.asarray(s, dtype=float)
        slack = 1e-9 * (self.b - self.a)
        if arr.size and (np.min(arr) < self.a - slack or np.max(arr) > self.b + slack):
            raise ValidationError(f"sample point outside [{self.a}, {self.b}]")
        return arr

    def eval_all(self, s) -> np.ndarray:
        """Values of all n basis functions; shape (n,) + shape(s)."""
        arr = self._check_domain(s)
        top = self.levels[self.n - 1]
        return np.stack([np.asarray(f(arr), dtype=float) for f in top.series])

    def eval(self, i: int, s):
        if not 0 <= i <= self.n - 1:
            raise ValidationError(f"basis index {i} outside 0..{self.n - 1}")
        arr = self._check_domain(s)
        return self.levels[self.n - 1].series[i](arr)

    def eval_all_derivative(self, order: int, s) -> np.ndarray:
        """order-th derivatives of all n basis functions at s.

        Descends the recurrence ``order`` levels (a weighted-difference map on
        coefficients), then evaluates; orders beyond the recurrence depth fall
        through to the closed-form generator derivatives at level 1.
        """
        if order < 0:
            raise ValidationError("derivative order must be nonnegative")
        arr = self._check_domain(s)
        if order == 0:
            return self.eval_all(arr)
        n = self.n
        k = n - 1
        w = np.eye(n)
        remaining = order
        while remaining > 0 and k > 1:
            d = self.levels[k - 1].weights
            w = (w[:, 1:] - w[:, :-1]) / d[np.newaxis, :]
            k -= 1
            remaining -= 1
        level = self.levels[k]
        if remaining == 0:
            vals = np.stack([np.asarray(f(arr), dtype=float) for f in level.series])
        else:
            f0, f1 = level.base
            vals = np.stack([np.asarray(f0.deriv(remaining, arr), dtype=float),
                             np.asarray(f1.deriv(remaining, arr), dtype=float)])
        return w @ vals

    def eval_derivative(self, i: int, order: int, s):
        if not 0 <= i <= self.n - 1:
            raise ValidationError(f"basis index {i} outside 0..{self.n - 1}")
        return self.eval_all_derivative(order, s)[i]

    # -- endpoint derivative tables ------------------------------------------

    def endpoint_table(self, side: str) -> np.ndarray:
        """T[j, i] = j-th derivative of basis function i at the interval end.

        side is 'a' (left) or 'b' (right); orders run 0..n-1.
        """
        if side not in ("a", "b"):
            raise ValidationError("side must be 'a' or 'b'")
        with self._table_lock:
            if side not in self._tables:
                x = self.a if side == "a" else self.b
                rows = [self.eval_all_derivative(j, np.array([x]))[:, 0]
                        for j in range(self.n)]
                self._tables[side] = np.array(rows)
            return self._tables[side]


def build_basis(space: SectionSpace) -> BernsteinBasis:
    """Run the integral recurrence and validate the resulting basis."""
    n = space.n
    a, b = space.a, space.b
    f0, f1 = base_pair(space)

    levels: dict[int, RecurrenceLevel] = {}
    s0 = _fit_proxy(f0, a, b, "(0,1)")
    s1 = _fit_proxy(f1, a, b, "(1,1)")
    levels[1] = RecurrenceLevel(k=1, series=[s0, s1], base=(f0, f1))

    for k in range(1, n - 1):
        prev = levels[k]
        weights = []
        cumulative = []
        for i, series in enumerate(prev.series):
            anti = series.integ(lbnd=a)
            d = float(anti(b))
            if not d > 0:
                raise NumericalError(
                    f"integral weight at level {k}, index {i} is not positive; "
                    "the section space is invalid on this interval")
            weights.append(d)
            cumulative.append(anti / d)
        prev.weights = np.array(weights)
        nxt = [(-cumulative[0]) + 1.0]
        nxt.extend(cumulative[i - 1] - cumulative[i] for i in range(1, k + 1))
        nxt.append(cumulative[k])
        levels[k + 1] = RecurrenceLevel(k=k + 1, series=nxt)

    proxy_degree = max(len(lvl.series[0].coef) - 1 for lvl in levels.values())
    basis = BernsteinBasis(space, levels, proxy_degree)
    _validate_basis(basis)
    return basis


def _validate_basis(basis: BernsteinBasis) -> None:
    """Normalization, positivity and endpoint-pattern checks; abort on violation."""
    n = basis.n
    pts = cheb_points(_VALIDATION_POINTS, basis.a, basis.b)
    for k in range(2, n):
        vals = np.stack([np.asarray(f(pts), dtype=float)
                         for f in basis.levels[k].series])
        unity = np.max(np.abs(vals.sum(axis=0) - 1.0))
        if unity > _UNITY_TOL:
            raise NumericalError(
                f"partition of unity fails at level {k}: deviation {unity:.3e}")
        if np.min(vals) < _POSITIVITY_FLOOR:
            i = int(np.argmin(np.min(vals, axis=1)))
            raise NumericalError(
                f"positivity fails for function ({i},{k}): an invalid section "
                "space slipped past the interval checks")

    for side in ("a", "b"):
        table = basis.endpoint_table(side)
        for j in range(n):
            scale = max(np.max(np.abs(table[j])), 1e-30)
            for i in range(n):
                zero_expected = (j < i) if side == "a" else (j < n - 1 - i)
                mag = abs(table[j, i])
                if zero_expected and mag > _ZERO_PATTERN_TOL * scale:
                    raise NumericalError(
                        f"endpoint zero pattern violated at side {side}, "
                        f"function {i}, order {j}")
                # the first nonvanishing order is guaranteed nonzero except
                # for the last function at the left end (first at the right)
                if side == "a":
                    diag = j == i and i <= n - 2
                else:
                    diag = j == n - 1 - i and i >= 1
                if diag and mag <= _NONZERO_PATTERN_TOL * scale:
                    raise NumericalError(
                        f"endpoint nonzero pattern violated at side {side}, "
                        f"function {i}, order {j}")


_cache_lock = threading.Lock()
_basis_cache: dict[tuple, BernsteinBasis] = {}


def basis_for(gen: GeneratorPair, n: int, a, b) -> BernsteinBasis:
    """Cached basis lookup keyed by exact (generator, n, a, b) parameters and
    the tolerance the validity flags were decided at.

    Meshes reuse bases across congruent cells; a and b may be any exact
    numeric type (Fraction endpoints from a mesh hash distinctly from floats).
    """
    key = (gen.cache_key(), n, a, b, config.rel_tol())
    with _cache_lock:
        hit = _basis_cache.get(key)
    if hit is not None:
        return hit
    space = make_section_space(gen, n, float(a), float(b))
    basis = build_basis(space)
    with _cache_lock:
        return _basis_cache.setdefault(key, basis)


def clear_basis_cache() -> None:
    with _cache_lock:
        _basis_cache.clear()
