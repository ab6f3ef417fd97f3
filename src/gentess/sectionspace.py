"""Univariate section spaces span<1, s, ..., s^(n-3), u, v> on an interval.

A section space is valid for the downstream construction when three flags hold:

* ``dim_ok``      - the n spanning functions are numerically independent;
* ``haar_ok``     - no nonzero combination of the top-order generator
                    derivatives vanishes at two distinct points of [a, b]
                    (a Haar-type interpolation property of the derivative span);
* ``wronskian_ok`` - the 2x2 determinant pairing the two top derivative orders
                    of (u, v) never vanishes inside (a, b).

Generator families with closed-form answers for the last two flags supply
them (``GeneratorPair.analytic_flags``); for the others they are decided by
grid scans.
Construction always succeeds and records the flags; callers decide what to
require.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np
from numpy.polynomial import Chebyshev

from . import config
from .errors import ValidationError
from .generators import GeneratorPair
from .util import cheb_points, count_zero_sites

_THETA_COUNT = 64
_SCAN_POINTS = 2048
_WRONSKIAN_POINTS = 1024


@dataclass(frozen=True)
class SectionSpace:
    """A validated (or knowingly invalid) section space on [a, b]."""

    gen: GeneratorPair
    n: int
    a: float
    b: float
    dim_ok: bool
    haar_ok: bool
    wronskian_ok: bool
    #: how the flags were certified: closed form for the catalogued families,
    #: grid scans otherwise.
    check_method: Literal["analytic", "numeric"]
    max_order: int = field(default=0)

    def u_deriv(self, order: int, s):
        return self.gen.u_deriv(order, s, self.n)

    def v_deriv(self, order: int, s):
        return self.gen.v_deriv(order, s, self.n)

    @property
    def length(self) -> float:
        return self.b - self.a

    def cache_key(self) -> tuple:
        return (self.gen.cache_key(), self.n, self.a, self.b)


def make_section_space(gen: GeneratorPair, n: int, a: float, b: float,
                       max_order: int | None = None) -> SectionSpace:
    """Build a section space and compute all three validity flags."""
    if not isinstance(gen, GeneratorPair):
        raise ValidationError("gen must be a GeneratorPair")
    if int(n) != n or n < 3:
        raise ValidationError(f"order n must be an integer >= 3, got {n}")
    n = int(n)
    a = float(a)
    b = float(b)
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValidationError(f"interval must satisfy a < b, got [{a}, {b}]")
    if max_order is None:
        max_order = max(16, 2 * n)

    dim_ok = _dimension_ok(gen, n, a, b)
    haar_ok, wronskian_ok, method = _zero_pattern_flags(gen, n, a, b)
    return SectionSpace(gen=gen, n=n, a=a, b=b, dim_ok=dim_ok, haar_ok=haar_ok,
                        wronskian_ok=wronskian_ok, check_method=method,
                        max_order=max_order)


def eval_generator(space: SectionSpace, which: str, order: int, s):
    """Derivative of u or v at s, with domain and order guards."""
    if order < 0 or order > space.max_order:
        raise ValidationError(
            f"derivative order {order} outside configured range 0..{space.max_order}")
    arr = np.asarray(s, dtype=float)
    slack = 1e-9 * space.length
    if np.any(arr < space.a - slack) or np.any(arr > space.b + slack):
        raise ValidationError(f"sample point outside [{space.a}, {space.b}]")
    return space.gen.deriv(which, order, s, space.n)


def check_haar_condition(space: SectionSpace, method: str = "auto") -> bool:
    """True when no nonzero element of the top-derivative span has two zeros in [a, b]."""
    return _zero_pattern_flags(space.gen, space.n, space.a, space.b, method)[0]


def check_wronskian_condition(space: SectionSpace, method: str = "auto") -> bool:
    """True when the top-derivative pair determinant never vanishes inside (a, b)."""
    return _zero_pattern_flags(space.gen, space.n, space.a, space.b, method)[1]


def _zero_pattern_flags(gen: GeneratorPair, n: int, a: float, b: float,
                        method: str = "auto") -> tuple[bool, bool, str]:
    """(haar_ok, wronskian_ok, method): the family's closed form unless
    ``method`` is 'numeric', grid scans otherwise; 'analytic' insists on the
    closed form."""
    if method not in ("auto", "analytic", "numeric"):
        raise ValidationError(f"unknown method {method!r}")
    if method != "numeric":
        closed = gen.analytic_flags(n, a, b)
        if closed is not None:
            return (*closed, "analytic")
        if method == "analytic":
            raise ValidationError(
                f"no closed-form check for generator kind {gen.kind!r}")
    return _haar_numeric(gen, n, a, b), _wronskian_numeric(gen, n, a, b), "numeric"


def _dimension_ok(gen: GeneratorPair, n: int, a: float, b: float) -> bool:
    """Numerical independence of 1, s, ..., s^(n-3), u, v at relative tolerance.

    The polynomial part is evaluated in shifted-scaled form; the span is the
    same and the collocation matrix stays well conditioned on any interval.
    """
    pts = cheb_points(4 * n, a, b)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    cols = [((pts - mid) / half) ** k for k in range(n - 2)]
    cols.append(np.asarray(gen.u_deriv(0, pts, n), dtype=float))
    cols.append(np.asarray(gen.v_deriv(0, pts, n), dtype=float))
    m = np.column_stack(cols)
    norms = np.max(np.abs(m), axis=0)
    if np.any(norms == 0):
        return False
    m = m / norms
    sv = np.linalg.svd(m, compute_uv=False)
    return bool(sv[-1] > config.rel_tol() * sv[0])


def _haar_numeric(gen: GeneratorPair, n: int, a: float, b: float) -> bool:
    """Zero-count scan over a one-parameter family of derivative combinations."""
    s = np.linspace(a, b, _SCAN_POINTS)
    fu = np.asarray(gen.u_deriv(n - 2, s, n), dtype=float)
    fv = np.asarray(gen.v_deriv(n - 2, s, n), dtype=float)
    su = np.max(np.abs(fu))
    sv = np.max(np.abs(fv))
    if su > 0:
        fu = fu / su
    if sv > 0:
        fv = fv / sv
    for theta in np.linspace(0.0, np.pi, _THETA_COUNT, endpoint=False):
        psi = np.cos(theta) * fu + np.sin(theta) * fv
        scale = np.max(np.abs(psi))
        if scale <= config.rel_tol():
            # a vanishing combination signals dependence, handled by dim_ok
            continue
        if count_zero_sites(psi, config.rel_tol() * scale) >= 2:
            return False
    return True


def _wronskian_numeric(gen: GeneratorPair, n: int, a: float, b: float) -> bool:
    """Pointwise relative nonsingularity of [[u^(n-2), v^(n-2)], [u^(n-1), v^(n-1)]].

    Interior grid only: the property concerns the open interval, and the
    tolerance is taken relative to the size of the products being cancelled.
    """
    s = cheb_points(_WRONSKIAN_POINTS, a, b, interior=True)
    fu = np.asarray(gen.u_deriv(n - 2, s, n), dtype=float)
    fv = np.asarray(gen.v_deriv(n - 2, s, n), dtype=float)
    gu = np.asarray(gen.u_deriv(n - 1, s, n), dtype=float)
    gv = np.asarray(gen.v_deriv(n - 1, s, n), dtype=float)
    det = fu * gv - fv * gu
    scale = np.abs(fu * gv) + np.abs(fv * gu)
    floor = config.rel_tol() * np.max(scale)
    return bool(np.all(np.abs(det) > config.rel_tol() * np.maximum(scale, floor)))


def top_pair_determinant(space: SectionSpace, s):
    """The 2x2 determinant pairing orders n-2 and n-1 of (u, v) at s."""
    n = space.n
    fu = space.u_deriv(n - 2, s)
    fv = space.v_deriv(n - 2, s)
    gu = space.u_deriv(n - 1, s)
    gv = space.v_deriv(n - 1, s)
    return fu * gv - fv * gu


def closure_residuals(space: SectionSpace) -> dict[str, float]:
    """Least-squares residuals measuring closure under derivation and integration.

    ``derivative``: how far u' and v' are from span(u, v).
    ``antiderivative``: how far the antiderivatives of u and v are from
    span(1, u, v).  Both are relative to the norm of the target function.
    """
    a, b = space.a, space.b
    pts = cheb_points(64, a, b)
    u = np.asarray(space.u_deriv(0, pts), dtype=float)
    v = np.asarray(space.v_deriv(0, pts), dtype=float)
    du = np.asarray(space.u_deriv(1, pts), dtype=float)
    dv = np.asarray(space.v_deriv(1, pts), dtype=float)

    def rel_residual(basis_cols, target):
        m = np.column_stack(basis_cols)
        sol, *_ = np.linalg.lstsq(m, target, rcond=None)
        res = np.max(np.abs(m @ sol - target))
        return res / max(1.0, np.max(np.abs(target)))

    deriv_res = max(rel_residual([u, v], du), rel_residual([u, v], dv))

    iu = Chebyshev.interpolate(lambda s: space.u_deriv(0, s), 64, domain=[a, b]).integ(lbnd=a)
    iv = Chebyshev.interpolate(lambda s: space.v_deriv(0, s), 64, domain=[a, b]).integ(lbnd=a)
    ones = np.ones_like(pts)
    anti_res = max(rel_residual([ones, u, v], iu(pts)),
                   rel_residual([ones, u, v], iv(pts)))
    return {"derivative": float(deriv_res), "antiderivative": float(anti_res)}
