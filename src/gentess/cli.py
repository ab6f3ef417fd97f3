"""Command-line interface wiring the package together.

Subcommands: ``mesh check``, ``basis``, ``dim``, ``basis-fn``, ``verify``,
``interp``, ``convergence``.  Outputs are deterministic given the arguments;
tabular results go to CSV (default) or JSON.  Exit codes: 0 success,
1 validation failure, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import config
from .approx import convergence_study, quasi_interpolant, sup_error
from .bernstein import basis_for
from .errors import NumericalError, ValidationError
from .generators import GeneratorPair, generator_from_json, generator_kinds
from .gspace import (GSplineSpace, dimension_formula, dimension_terms, dual_basis_net,
                     eval_spline_grid)
from .oracle import brute_force_dimension
from .testfunctions import get_test_function, test_function_names
from .tmesh import load_document, mesh_stats, tensor_mesh


def _parse_generator(text: str) -> GeneratorPair:
    try:
        return generator_from_json(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"generator must be JSON like "
            f'{{"kind": "two_exponentials", "params": {{"l1": 1, "l2": -1}}}}; '
            f"known kinds: {', '.join(generator_kinds())} ({exc})") from exc


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        gx, gy = (int(v) for v in text.lower().split("x"))
    except ValueError as exc:
        raise ValidationError("--grid must look like 20x20") from exc
    return gx, gy


def _check_smoothness(args: argparse.Namespace) -> None:
    smoothness = getattr(args, "smoothness", None)
    orders = getattr(args, "orders", None)
    if smoothness and orders:
        (r1, r2), (n1, n2) = smoothness, orders
        if not (0 <= r1 < n1 - 1 and 0 <= r2 < n2 - 1):
            raise ValidationError("smoothness must satisfy 0 <= r < n-1")


def _space_from_document(args: argparse.Namespace) -> GSplineSpace:
    doc = load_document(args.mesh)
    gen_s = args.generator or (doc.section_s[0] if doc.section_s else None)
    gen_t = (args.generator_t or args.generator
             or (doc.section_t[0] if doc.section_t else None))
    if args.orders:
        n1, n2 = args.orders
    elif doc.section_s and doc.section_t:
        n1, n2 = doc.section_s[1], doc.section_t[1]
    else:
        raise ValidationError("orders missing: provide --orders or file sections")
    smoothness = args.smoothness or doc.smoothness
    if smoothness is None:
        raise ValidationError(
            "smoothness missing: provide --smoothness or a file entry")
    if gen_s is None or gen_t is None:
        raise ValidationError(
            "generators missing: provide --generator/--generator-t or file sections")
    return GSplineSpace(doc.mesh, gen_s, n1, gen_t, n2, smoothness)


def _emit(args: argparse.Namespace, columns: list[str], rows: list[dict],
          summary: dict | None = None) -> None:
    if args.format == "json":
        payload = {"rows": rows}
        if summary:
            payload["summary"] = summary
        text = json.dumps(payload, indent=2, default=float) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
        if summary:
            text += "".join(f"# {k} = {v}\n" for k, v in summary.items())
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


# -- subcommands --------------------------------------------------------------


def _cmd_mesh_check(args: argparse.Namespace) -> int:
    doc = load_document(args.mesh)
    mesh = doc.mesh
    tags = sorted(mesh.vertex_tags.values())
    print(f"cells: {len(mesh.cells)}")
    print(f"vertices: {len(mesh.vertices)} "
          f"(t-junctions: {tags.count('t_junction')}, "
          f"crossings: {tags.count('crossing')}, "
          f"boundary: {tags.count('boundary')})")
    print(f"edge segments: {len(mesh.edge_segments)}")
    print(f"composite edges: {len(mesh.composite_edges)}")
    print(f"regular: {mesh.regular}")
    print(f"cycles: {mesh.has_cycles}"
          + (f" (witness: {mesh.cycle_witness})" if mesh.has_cycles else ""))
    if mesh.regular and not mesh.has_cycles:
        stats = mesh_stats(mesh)
        print(f"stats: non_t_vertices={stats.non_t_vertices} "
              f"hor_edges={stats.hor_edges} ver_edges={stats.ver_edges} "
              f"max_edge_segment_ratio={stats.max_edge_segment_ratio:g} "
              f"max_chain_length={stats.max_chain_length} "
              f"max_aspect_ratio={stats.max_aspect_ratio:g}")
    return 0


def _cmd_basis(args: argparse.Namespace) -> int:
    if args.generator is None or args.orders is None:
        raise ValidationError("basis dump needs --generator and --orders N")
    a, b = args.interval
    basis = basis_for(args.generator, args.orders[0], a, b)
    xs = np.linspace(a, b, args.samples)
    vals = basis.eval_all_derivative(args.deriv, xs)
    columns = ["s"] + [f"B_{i}" for i in range(basis.n)]
    rows = [{"s": x, **{f"B_{i}": vals[i, m] for i in range(basis.n)}}
            for m, x in enumerate(xs)]
    _emit(args, columns, rows)
    return 0


def _cmd_dim(args: argparse.Namespace) -> int:
    terms = dimension_terms(_space_from_document(args))
    for name, value in terms.items():
        print(f"{name}: {value}")
    print(f"dim = {sum(terms.values())}")
    return 0


def _cmd_basis_fn(args: argparse.Namespace) -> int:
    space = _space_from_document(args)
    net = dual_basis_net(space, args.xi)
    x0, x1, y0, y1 = space.mesh.domain_bounds
    xs = np.linspace(float(x0), float(x1), args.grid[0])
    ys = np.linspace(float(y0), float(y1), args.grid[1])
    vals = eval_spline_grid(space, net, xs, ys)
    rows = [{"x": x, "y": y, "value": vals[i, j]}
            for i, x in enumerate(xs) for j, y in enumerate(ys)]
    _emit(args, ["x", "y", "value"], rows)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    space = _space_from_document(args)
    formula = dimension_formula(space)
    mds = space.dim
    nullity = brute_force_dimension(space)
    ok = formula == mds == nullity
    print(f"dimension formula: {formula}")
    print(f"determining set:   {mds}")
    print(f"oracle nullity:    {nullity}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _test_function(args: argparse.Namespace):
    if not args.function:
        raise ValidationError(
            f"--f is required; known functions: {', '.join(test_function_names())}")
    return get_test_function(args.function)


def _cmd_interp(args: argparse.Namespace) -> int:
    f = _test_function(args)
    space = _space_from_document(args)
    coeffs = quasi_interpolant(space, f)
    err = sup_error(space, coeffs, f)
    rows = [{"cell": c.index, "i": i, "j": j,
             "coefficient": coeffs.values[c.index][i, j]}
            for c in space.mesh.cells
            for i in range(space.n1) for j in range(space.n2)]
    _emit(args, ["cell", "i", "j", "coefficient"], rows,
          summary={"sup_error": err, "dim": space.dim})
    return 0


def _cmd_convergence(args: argparse.Namespace) -> int:
    f = _test_function(args)
    gen_s = args.generator or generator_from_json(
        {"kind": "two_exponentials", "params": {"l1": 1.0, "l2": -1.0}})
    gen_t = args.generator_t or gen_s
    orders = args.orders or (4, 4)
    smoothness = args.smoothness or (1, 1)
    if args.mesh:
        base = load_document(args.mesh).mesh
    else:
        x0, x1, y0, y1 = args.domain
        div = args.base_divisions
        base = tensor_mesh(np.linspace(x0, x1, div + 1), np.linspace(y0, y1, div + 1))
    report = convergence_study(base, gen_s, orders[0], gen_t, orders[1],
                               smoothness, f, levels=args.levels, norm=args.norm)
    _emit(args, ["level", "H", "error", "order"], report.rows(),
          summary={"k": report.k, "expected_order": report.k + 1})
    return 0


# -- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    # the type functions raise ValidationError, which argparse does not catch:
    # main reports it as a validation failure (exit 1), not a usage error
    parser = argparse.ArgumentParser(
        prog="gentess",
        description="Generalized spline spaces over T-meshes: mesh checking, "
                    "basis dumps, dimension verification, interpolation and "
                    "convergence studies.")
    parser.add_argument("--tol", type=float, default=None,
                        help="override the global relative tolerance "
                             "(default 1e-9, env GENTESS_TOL)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mesh=True):
        if mesh:
            p.add_argument("mesh", help="mesh document (JSON)")
        p.add_argument("--generator", type=_parse_generator, default=None,
                       help="generator pair as JSON (s direction; used for "
                            "both unless --generator-t is given)")
        p.add_argument("--generator-t", type=_parse_generator, default=None)
        p.add_argument("--orders", type=int, nargs=2, metavar=("N1", "N2"),
                       default=None)
        p.add_argument("--smoothness", type=int, nargs=2, metavar=("R1", "R2"),
                       default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("-o", "--output", default=None)

    mesh_p = sub.add_parser("mesh", help="mesh inspection")
    mesh_sub = mesh_p.add_subparsers(dest="mesh_command", required=True)
    check_p = mesh_sub.add_parser("check", help="validate and classify a mesh")
    check_p.add_argument("mesh")

    basis_p = sub.add_parser("basis", help="dump sampled basis values as CSV")
    common(basis_p, mesh=False)
    basis_p.add_argument("--interval", type=float, nargs=2, metavar=("A", "B"),
                         default=(0.0, 1.0))
    basis_p.add_argument("--samples", type=int, default=129)
    basis_p.add_argument("--deriv", type=int, default=0)

    dim_p = sub.add_parser("dim", help="print dimension formula terms")
    common(dim_p)

    fn_p = sub.add_parser("basis-fn", help="sample one basis spline on a grid")
    common(fn_p)
    fn_p.add_argument("--xi", type=int, default=0,
                      help="index into the determining set")
    fn_p.add_argument("--grid", type=_parse_grid, default="20x20")

    verify_p = sub.add_parser("verify", help="dimension formula vs oracle")
    common(verify_p)

    interp_p = sub.add_parser("interp", help="quasi-interpolate a test function")
    common(interp_p)
    interp_p.add_argument("--f", dest="function", default=None)

    conv_p = sub.add_parser("convergence", help="convergence-order experiment")
    common(conv_p, mesh=False)
    conv_p.add_argument("--mesh", dest="mesh", default=None,
                        help="optional base mesh document")
    conv_p.add_argument("--f", dest="function", default=None)
    conv_p.add_argument("--levels", type=int, default=4)
    conv_p.add_argument("--norm", choices=("sup", "l2"), default="sup")
    conv_p.add_argument("--domain", type=float, nargs=4,
                        metavar=("X0", "X1", "Y0", "Y1"),
                        default=(0.0, 1.0, 0.0, 1.0))
    conv_p.add_argument("--base-divisions", type=int, default=2)
    return parser


_DISPATCH = {
    "mesh": _cmd_mesh_check,
    "basis": _cmd_basis,
    "dim": _cmd_dim,
    "basis-fn": _cmd_basis_fn,
    "verify": _cmd_verify,
    "interp": _cmd_interp,
    "convergence": _cmd_convergence,
}


def main(argv=None) -> int:
    """Run one subcommand; returns the process exit status."""
    try:
        args = _build_parser().parse_args(argv)
        if args.tol is not None:
            config.set_rel_tol(args.tol)
        config.rel_tol()  # a malformed GENTESS_TOL fails here, before any work
        _check_smoothness(args)
        return _DISPATCH[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
