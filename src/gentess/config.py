"""Global tolerance configuration.

All rank/zero decisions in the package use a relative tolerance scaled by the
largest magnitude involved.  The default can be overridden per process with the
GENTESS_TOL environment variable or programmatically via :func:`set_rel_tol`.
"""

from __future__ import annotations

import math
import os

from .errors import ValidationError

DEFAULT_REL_TOL = 1e-9

#: parsed on first use, so a malformed GENTESS_TOL surfaces as a
#: ValidationError where the tolerance is needed, not at import
_rel_tol: float | None = None


def _checked(value, source: str) -> float:
    try:
        tol = float(value)
    except (TypeError, ValueError):
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError(
            f"{source} must be a positive finite number, got {value!r}")
    return tol


def rel_tol() -> float:
    global _rel_tol
    if _rel_tol is None:
        _rel_tol = _checked(os.environ.get("GENTESS_TOL", DEFAULT_REL_TOL),
                            "GENTESS_TOL")
    return _rel_tol


def set_rel_tol(value: float) -> None:
    global _rel_tol
    _rel_tol = _checked(value, "tolerance")
