"""Command-line front end.

Subcommands: count, welschinger, real-count, paths, curve, table.  Polygon
and polynomial inputs are JSON (a file path or the literal JSON text);
outputs are TSV or JSON tables on stdout, plus optional SVG for curves.
Exit codes: 0 success, 1 failed internal cross-check, 2 malformed input,
3 unusable mathematical input (bad genus, order with ties, flat support).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import zlib
from math import comb

from .lattice import (
    LatticePolygon,
    LinearOrder,
    NonInjectiveOrder,
    grid_rectangle,
    standard_triangle,
)
from .paths import (
    InvalidGenus,
    _mu_step,
    _path_sides,
    _steps_for_genus,
    _total,
    count,
    path_to_json,
)
from .real import _mu_real_step, _nu_step, _step_classes, welschinger_count

SIGN_TOKENS = {"++": (0, 0), "+-": (0, 1), "-+": (1, 0), "--": (1, 1)}
TABLE_CEILING = {"projective": 5, "bidegree": 3}
_JOBS_HELP = ("worker count, a positive integer; accepted for compatibility and "
              "selects nothing: counting runs in one process")


def _jobs(text: str) -> int:
    """The --jobs value, checked by the parser: a positive integer."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"worker count must be a positive integer, got {text!r}")
    return jobs


class InputError(ValueError):
    """Malformed command-line input (exit code 2)."""


def _read_source(text: str) -> str:
    """A JSON argument is either literal JSON or a path to a JSON file."""
    if text.lstrip().startswith("{"):
        return text
    try:
        with open(text, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {text}: {exc}") from exc


def _parse_polygon(text: str) -> LatticePolygon:
    raw = _read_source(text)
    try:
        return LatticePolygon.from_json(raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad polygon JSON: {exc}") from exc


def _parse_poly(text: str):
    """The `--poly` polynomial, a `curves.TropicalPolynomial`."""
    from .curves import TropicalPolynomial

    raw = _read_source(text)
    try:
        return TropicalPolynomial.from_json(raw)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad polynomial JSON: {exc}") from exc


def _parse_order(text: str | None) -> LinearOrder:
    if text is None:
        return LinearOrder.default()
    try:
        primary, tiebreak = text.split("/")
        return LinearOrder(
            tuple(int(c) for c in primary.split(",")),
            tuple(int(c) for c in tiebreak.split(",")),
        )
    except ValueError as exc:
        raise InputError(f"bad order {text!r}, expected 'a,b/c,d'") from exc


def _parse_signs(text: str, n: int, longest: int) -> list[tuple[int, int]]:
    """One quadrant sign per step: n comma-separated tokens, or one token
    for every step.  No path has more than `longest` steps, so a broadcast
    stops there, and past it any number of tokens will do."""
    tokens = text.split(",")
    if len(tokens) == 1:
        tokens = tokens * min(n, longest)
    elif len(tokens) != n and n <= longest:
        raise InputError(f"need {n} sign tokens, got {len(tokens)}")
    try:
        return [SIGN_TOKENS[t] for t in tokens]
    except KeyError as exc:
        raise InputError(f"bad sign token {exc.args[0]!r}, expected ++ +- -+ --") from exc


def _second_order(P: LatticePolygon, tag: str) -> LinearOrder:
    """A deterministic alternative injective order, seeded from the input."""
    seed = zlib.crc32(f"{P.vertices}|{tag}".encode())
    rng = random.Random(seed)
    pts = P.lattice_points()
    while True:
        cand = LinearOrder(
            (rng.randint(-3, 3), rng.randint(-3, 3)),
            (rng.randint(-3, 3), rng.randint(-3, 3)),
        )
        if cand.primary != (0, 0) and cand.is_injective_on(pts):
            return cand


def _smoke_check(P, g, mode, total_of, reported: int) -> bool:
    """Recompute the total with the library count `total_of` under an
    independently sampled order."""
    return total_of(P, g, _second_order(P, f"{mode}|{g}")) == reported


def _per_path_json(rows) -> list[dict]:
    return [
        {
            "points": [list(p) for p in path],
            "plus": str(plus),
            "minus": str(minus),
            "product": str(plus * minus),
        }
        for path, plus, minus in rows
    ]


def _print_per_path_tsv(rows) -> None:
    print("plus\tminus\tproduct\tpoints")
    for path, plus, minus in rows:
        print(f"{plus}\t{minus}\t{plus * minus}\t{path_to_json(path)}")


# Per counting command: its triangle step rule, whether it takes --signs,
# the JSON key of its total, the library count that the resampled-order
# cross-check recomputes (None where the total depends on the order), and
# its help.  The Welschinger count does not depend on the points in any
# genus (Itenberg-Mikhalkin, IMRN 2013), so it is checked in every genus.
_COUNTING = {
    "count": (_mu_step, False, "count", count,
              "number of curves of a genus through generic points"),
    "welschinger": (_nu_step, False, "welschinger", welschinger_count,
                    "signed count of real curves"),
    "real-count": (_mu_real_step, True, "real_count", None,
                   "real curves among the complex ones, by point signs"),
}


def cmd_counting(args) -> int:
    """count, welschinger and real-count: the total of a step rule over the
    paths, summed over the walk as the library counts do; under --per-path
    also one row per contributing path (the lazy walk yields only those)."""
    rule, takes_signs, label, recount, _ = _COUNTING[args.command]
    P = _parse_polygon(args.polygon)
    order = _parse_order(args.order)
    n = _steps_for_genus(P, args.genus)
    if takes_signs and args.signs == []:
        # argparse before 3.12 strips a lone "--" from an option's value
        args.signs = "--"
    step_class = None
    if takes_signs:
        step_class = _step_classes(_parse_signs(args.signs, n, len(P.lattice_points()) - 1))
    if args.per_path:
        rows = list(_path_sides(P, order, n, rule, step_class))
        total = sum(plus * minus for _, plus, minus in rows)
    else:
        total = _total(P, args.genus, order, rule, step_class)
    if args.format == "json":
        doc = {
            "polygon": [list(v) for v in P.vertices],
            "order": {"primary": list(order.primary), "tiebreak": list(order.tiebreak)},
            "genus": args.genus,
            label: str(total),
        }
        if takes_signs:
            doc["signs"] = args.signs
        if args.per_path:
            doc["per_path"] = _per_path_json(rows)
        print(json.dumps(doc))
    else:
        if args.per_path:
            _print_per_path_tsv(rows)
        print(total)
    if recount is not None and not _smoke_check(P, args.genus, args.command, recount, total):
        what = label if label == "count" else f"{label} count"
        print(f"cross-check failed: {what} changed under a resampled order", file=sys.stderr)
        return 1
    return 0


def cmd_paths(args) -> int:
    P = _parse_polygon(args.polygon)
    order = _parse_order(args.order)
    n = _steps_for_genus(P, args.genus)
    # a listing shows both sides of every path; a summary may leave out the
    # paths that cannot contribute, so their number comes from the binomial.
    # Per-path `mu_side` rows in place of the unpruned walk were slower: tri5
    # g=0 0.56-0.82 -> 0.83-1.05 s, rect4 g=0 15-19 -> 23-31 s (2-vCPU Xeon)
    rows = list(_path_sides(P, order, n, lazy=not args.list))
    n_paths = comb(len(P.lattice_points()) - 2, n - 1)
    total = sum(plus * minus for _, plus, minus in rows)
    contributing = sum(1 for _, plus, minus in rows if plus * minus != 0)
    if args.format == "json":
        doc = {
            "polygon": [list(v) for v in P.vertices],
            "genus": args.genus,
            "n_paths": n_paths,
            "contributing": contributing,
            "total": str(total),
        }
        if args.list:
            doc["paths"] = _per_path_json(rows)
        print(json.dumps(doc))
    else:
        if args.list:
            _print_per_path_tsv(rows)
        print("n_paths\tcontributing\ttotal")
        print(f"{n_paths}\t{contributing}\t{total}")
    return 0


def _ray_clip(v, d, box):
    """Largest t >= 0 keeping v + t*d inside the box, for SVG clipping."""
    x0, y0, x1, y1 = box
    t = float("inf")
    for coord, lo, hi, step in ((v[0], x0, x1, d[0]), (v[1], y0, y1, d[1])):
        if step > 0:
            t = min(t, (hi - coord) / step)
        elif step < 0:
            t = min(t, (lo - coord) / step)
    return max(t, 0.0)


def _curve_svg(C, out_path: str) -> None:
    xs = [float(x) for x, _ in C.vertices]
    ys = [float(y) for _, y in C.vertices]
    pad = 2.0
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    scale = 40.0

    def tx(x):
        return (x - x0) * scale

    def ty(y):
        return (y1 - y) * scale

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{tx(x1):.0f}" '
        f'height="{ty(y0):.0f}" viewBox="0 0 {tx(x1):.0f} {ty(y0):.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    labels = []
    for a, b, w, _ in C.bounded_edges:
        ax, ay = float(C.vertices[a][0]), float(C.vertices[a][1])
        bx, by = float(C.vertices[b][0]), float(C.vertices[b][1])
        lines.append(
            f'<line x1="{tx(ax):.2f}" y1="{ty(ay):.2f}" x2="{tx(bx):.2f}" '
            f'y2="{ty(by):.2f}" stroke="black" stroke-width="{1 + w}"/>'
        )
        if w > 1:
            labels.append(((ax + bx) / 2, (ay + by) / 2, w))
    for vi, d, w in C.rays:
        vx, vy = float(C.vertices[vi][0]), float(C.vertices[vi][1])
        t = _ray_clip((vx, vy), d, (x0, y0, x1, y1))
        ex, ey = vx + t * d[0], vy + t * d[1]
        lines.append(
            f'<line x1="{tx(vx):.2f}" y1="{ty(vy):.2f}" x2="{tx(ex):.2f}" '
            f'y2="{ty(ey):.2f}" stroke="black" stroke-width="{1 + w}"/>'
        )
        if w > 1:
            labels.append((vx + 0.4 * t * d[0], vy + 0.4 * t * d[1], w))
    for x, y in C.vertices:
        lines.append(
            f'<circle cx="{tx(float(x)):.2f}" cy="{ty(float(y)):.2f}" r="3" fill="black"/>'
        )
    for x, y, w in labels:
        lines.append(
            f'<text x="{tx(x) + 4:.2f}" y="{ty(y) - 4:.2f}" font-size="14" '
            f'fill="crimson">{w}</text>'
        )
    lines.append("</svg>")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_curve(args) -> int:
    # `curves` loads here only, so the counting commands never import it
    from .curves import (DegenerateSupport, check_balancing, curve_of, dual_subdivision,
                         genus_of_simple, is_smooth)

    f = _parse_poly(args.poly)
    try:
        C = curve_of(f)
    except DegenerateSupport as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    # the polynomial computed its subdivision for the curve and keeps it
    sub_ = dual_subdivision(f)
    if not check_balancing(C):
        print("internal error: constructed curve is not balanced", file=sys.stderr)
        return 1
    doc = {
        "newton_polygon": [list(v) for v in sub_.ambient.vertices],
        "curve": C.to_json_dict(),
        "dual_subdivision": sub_.to_json_dict(),
        "genus": genus_of_simple(sub_) if sub_.is_simple() else None,
        "smooth": is_smooth(sub_),
    }
    # the SVG first: a path it cannot write leaves stdout empty
    if args.svg:
        _curve_svg(C, args.svg)
    print(json.dumps(doc))
    return 0


def _table_polygon(family: str, d: int) -> LatticePolygon:
    if family == "projective":
        return standard_triangle(d)
    return grid_rectangle(d, d)


def cmd_table(args) -> int:
    family = args.family
    ceiling = TABLE_CEILING[family]
    if args.dmax < 1 or args.dmax > ceiling:
        raise InputError(
            f"dmax {args.dmax} out of range 1..{ceiling} for family {family!r}"
        )
    order = LinearOrder.default()
    columns = list(range(1, args.dmax + 1))
    # the largest polygon of the family has the most interior points
    _, g_max = _table_polygon(family, args.dmax).counts()
    grid = {}
    for d in columns:
        P = _table_polygon(family, d)
        for g in range(-1, g_max + 1):
            total = count(P, g, order)
            if not _smoke_check(P, g, "count", count, total):
                print(
                    f"cross-check failed for d={d}, g={g} under a resampled order",
                    file=sys.stderr,
                )
                return 1
            grid[(g, d)] = total
    if args.format == "json":
        doc = {
            "family": family,
            "columns": columns,
            "rows": [
                {"g": g, "cells": [str(grid[(g, d)]) for d in columns]}
                for g in range(-1, g_max + 1)
            ],
        }
        print(json.dumps(doc))
    else:
        print("g\t" + "\t".join(f"d{d}" for d in columns))
        for g in range(-1, g_max + 1):
            print(f"{g}\t" + "\t".join(str(grid[(g, d)]) for d in columns))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tropico",
        description="Count plane tropical curves by increasing lattice paths.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--polygon", required=True,
                       help="polygon JSON: file path or literal {'vertices': [[x,y],...]}")
        p.add_argument("--genus", type=int, required=True)
        p.add_argument("--order", default=None, metavar="a,b/c,d",
                       help="injective order, default 1,0/0,-1")
        p.add_argument("--format", choices=("tsv", "json"), default="tsv")
        p.add_argument("--jobs", type=_jobs, default=None, help=_JOBS_HELP)

    for command, (_, takes_signs, _, _, help_) in _COUNTING.items():
        p = sub.add_parser(command, help=help_)
        common(p)
        if takes_signs:
            p.add_argument("--signs", default="++",
                           help="quadrant signs per point: one token to broadcast or a comma "
                                "list of ++ +- -+ --")
        p.add_argument("--per-path", action="store_true", dest="per_path",
                       help="one row per contributing path")
        p.set_defaults(func=cmd_counting)

    p = sub.add_parser("paths", help="enumerate increasing lattice paths")
    common(p)
    p.add_argument("--list", action="store_true", help="one row per path")
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("curve", help="corner locus and dual subdivision of a polynomial")
    p.add_argument("--poly", required=True,
                   help="polynomial JSON: file path or literal "
                        "{'terms': [{'exp': [i,j], 'coeff': 'p/q'}, ...]}")
    p.add_argument("--svg", default=None, metavar="OUT.svg")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("table", help="count grid over a polygon family")
    p.add_argument("--family", choices=("projective", "bidegree"), default="projective")
    p.add_argument("--dmax", type=int, default=3)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.add_argument("--jobs", type=_jobs, default=None, help=_JOBS_HELP)
    p.set_defaults(func=cmd_table)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (NonInjectiveOrder, InvalidGenus) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
