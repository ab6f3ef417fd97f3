"""Span recorder that times gentess from outside the package.

Each traced function is replaced, at the name its caller looks up, by a
wrapper that records one span: name, start, end, the enclosing span and an
optional amount (cells built, coefficients completed, matrix size).  Spans
stay in memory and are aggregated per pass when the pass ends, so nothing is
written while the program runs.  A span's self time is its duration minus the
time covered by its child spans; the benchmark is single-threaded, so child
spans never overlap and that is a plain subtraction.
"""

from __future__ import annotations

import time
from functools import wraps

import gentess.approx as approx
import gentess.bernstein as bernstein
import gentess.gspace as gspace
import gentess.oracle as oracle
import gentess.tmesh as tmesh

# span fields
NAME, START, END, PARENT, AMOUNT, ERROR = range(6)


def _cells_built(args, result):
    return len(args[0].cells)


def _numeric_flags(args, result):
    return 1.0 if result.check_method == "numeric" else 0.0


def _coefficients(args, result):
    space = result.space
    return len(result.values) * space.n1 * space.n2


def _matrix_mib(args, result):
    rows, cols = result.matrix.shape
    return rows * cols * 8 / 2 ** 20


#: (owner, attribute, span name, amount function); the owner is the module or
#: class whose attribute the calling code looks up at call time.
TARGETS = (
    (tmesh.TMesh, "__init__", "tmesh.build", _cells_built),
    (tmesh, "refine", "tmesh.refine", None),
    (approx, "refine", "tmesh.refine", None),
    (bernstein, "make_section_space", "sectionspace.flags", _numeric_flags),
    (bernstein, "build_basis", "bernstein.build", None),
    (gspace, "basis_for", "bernstein.lookup", None),
    (gspace.GSplineSpace, "__init__", "gspace.space_build", None),
    (gspace, "complete_coefficients", "gspace.complete", _coefficients),
    (approx, "complete_coefficients", "gspace.complete", _coefficients),
    (gspace, "propagate_vertex", "gspace.propagate_vertex", None),
    (gspace, "propagate_edge", "gspace.propagate_edge", None),
    (gspace, "eval_spline_derivative", "gspace.eval_point", None),
    (gspace, "function_bnet", "gspace.function_bnet", None),
    (approx, "function_bnet", "gspace.function_bnet", None),
    (approx, "hermite_local", "approx.hermite_local", None),
    (approx, "quasi_interpolant", "approx.quasi_interpolant", None),
    (approx, "sup_error", "approx.error", None),
    (approx, "l2_error", "approx.error", None),
    (approx, "support_diameter_ratio", "approx.support_ratio", None),
    (approx, "norm_equivalence_check", "approx.norm_equivalence", None),
    (oracle, "assemble_constraints", "oracle.assemble", _matrix_mib),
    (oracle, "matrix_nullity", "oracle.svd", None),
)


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, amount):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if amount is not None:
                span[AMOUNT] = amount(args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, amount in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, amount))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        done = list(self.spans)
        self.spans.clear()
        return done


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, inclusive and self seconds, amounts, errors."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    flagged_lookups = {span[PARENT] for span in spans
                       if span[NAME] == "sectionspace.flags" and span[PARENT] >= 0}
    out: dict[str, dict] = {}
    for k, span in enumerate(spans):
        entry = out.setdefault(span[NAME], {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                            "amount": 0.0, "amount_max": 0.0,
                                            "errors": {}, "misses": 0})
        dur = span[END] - span[START]
        entry["calls"] += 1
        entry["incl_s"] += dur
        entry["self_s"] += dur - child[k]
        entry["amount"] += span[AMOUNT]
        entry["amount_max"] = max(entry["amount_max"], span[AMOUNT])
        if span[ERROR]:
            entry["errors"][span[ERROR]] = entry["errors"].get(span[ERROR], 0) + 1
        if k in flagged_lookups:
            entry["misses"] += 1
    return out


def layer_metrics(summary: dict[str, dict]) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "amount": 0.0,
             "amount_max": 0.0, "errors": {}, "misses": 0}

    def get(name):
        return summary.get(name, empty)

    def ratio(num, den):
        return num / den if den else 0.0

    build, flags, lookup = get("tmesh.build"), get("sectionspace.flags"), get("bernstein.lookup")
    basis, complete, point = get("bernstein.build"), get("gspace.complete"), get("gspace.eval_point")
    assemble, svd = get("oracle.assemble"), get("oracle.svd")
    out = {
        "tmesh.build.calls": build["calls"],
        "tmesh.build.cells": build["amount"],
        "tmesh.build.self_s": build["self_s"],
        "tmesh.refine.calls": get("tmesh.refine")["calls"],
        "sectionspace.flags.calls": flags["calls"],
        "sectionspace.flags.numeric_calls": flags["amount"],
        "sectionspace.flags.self_s": flags["self_s"],
        "bernstein.build.calls": basis["calls"],
        "bernstein.build.self_s": basis["self_s"],
        "bernstein.lookup.calls": lookup["calls"],
        "bernstein.lookup.self_s": lookup["self_s"],
        "bernstein.hit_ratio": ratio(lookup["calls"] - lookup["misses"], lookup["calls"]),
        "gspace.space_build.calls": get("gspace.space_build")["calls"],
        "gspace.space_build.self_s": get("gspace.space_build")["self_s"],
        "gspace.complete.calls": complete["calls"],
        "gspace.complete.incl_s": complete["incl_s"],
        "gspace.complete.coeffs_per_s": ratio(complete["amount"], complete["incl_s"]),
        "gspace.eval_point.calls": point["calls"],
        "gspace.eval_point.self_s": point["self_s"],
        "gspace.eval_point.us_per_call": 1e6 * ratio(point["self_s"], point["calls"]),
        "oracle.assemble.calls": assemble["calls"],
        "oracle.assemble.self_s": assemble["self_s"],
        "oracle.svd.calls": svd["calls"],
        "oracle.svd.self_s": svd["self_s"],
        "oracle.matrix_mib": assemble["amount_max"],
        "oracle.inconclusive": svd["errors"].get("RankAmbiguousError", 0),
    }
    for name in ("gspace.propagate_vertex", "gspace.propagate_edge",
                 "gspace.function_bnet", "approx.hermite_local"):
        out[f"{name}.calls"] = get(name)["calls"]
        out[f"{name}.self_s"] = get(name)["self_s"]
    for name in ("approx.quasi_interpolant", "approx.error", "approx.support_ratio",
                 "approx.norm_equivalence"):
        out[f"{name}.self_s"] = get(name)["self_s"]
    return out


def self_time_shares(summary: dict[str, dict], wall: float) -> dict[str, float]:
    """Share of a pass's wall time spent in each span name's own code."""
    shares = {name: entry["self_s"] / wall for name, entry in summary.items()}
    shares["(untraced)"] = 1.0 - sum(shares.values())
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
