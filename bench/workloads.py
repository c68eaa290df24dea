"""Seeded job lists for the four benchmark workloads.

Standard library only, and no tropico import: the parent process builds
every input here, and the program under test only ever sees the generated
inputs.  A job is a plain JSON-able dict; `round_jobs` returns one round of a
workload, and every round of a run draws fresh orders, signs and
polynomials from the workload seed and the round number.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, gcd

WORKLOADS = ("count-cold", "real-signed", "cli-mix", "curves-session")


def polygon_vertices(name: str) -> list[list[int]]:
    """Counterclockwise vertices of tri<d>, rect<d> or the cusp quadrilateral."""
    if name == "cusp":
        return [[0, 0], [1, 0], [2, 2], [0, 1]]
    if name.startswith("tri"):
        d = int(name[3:])
        return [[0, 0], [d, 0], [0, d]]
    if name.startswith("rect"):
        d = int(name[4:])
        return [[0, 0], [d, 0], [d, d], [0, d]]
    raise ValueError(f"unknown polygon {name!r}")


def boundary_points(name: str) -> int:
    v = polygon_vertices(name)
    return sum(
        gcd(abs(b[0] - a[0]), abs(b[1] - a[1])) for a, b in zip(v, v[1:] + v[:1])
    )


def lattice_points(name: str) -> list[tuple[int, int]]:
    v = polygon_vertices(name)
    xs = [p[0] for p in v]
    ys = [p[1] for p in v]
    sides = list(zip(v, v[1:] + v[:1]))
    return [
        (x, y)
        for y in range(min(ys), max(ys) + 1)
        for x in range(min(xs), max(xs) + 1)
        if all((b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0]) >= 0 for a, b in sides)
    ]


def steps(name: str, genus: int) -> int:
    """Path steps (= marked points) for a genus: s + g - 1."""
    return boundary_points(name) + genus - 1


def n_paths(name: str, genus: int) -> int:
    """Increasing paths with the given genus's step count; order-free."""
    return comb(len(lattice_points(name)) - 2, steps(name, genus) - 1)


def interior_points(name: str) -> int:
    return len(lattice_points(name)) - boundary_points(name)


def table_cells(family: str, dmax: int) -> list[tuple[str, int]]:
    """(polygon, genus) cells of `tropico table`: degrees 1..dmax, genera -1
    up to the largest interior point count among them."""
    prefix = "tri" if family == "projective" else "rect"
    names = [f"{prefix}{d}" for d in range(1, dmax + 1)]
    g_max = max(interior_points(p) for p in names)
    return [(p, g) for p in names for g in range(-1, g_max + 1)]


def random_order(rng: random.Random) -> list[list[int]]:
    """(primary, tiebreak) with independent rows, so injective on all of Z^2."""
    while True:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if a * d - b * c != 0:
            return [[a, b], [c, d]]


def random_signs(rng: random.Random, n: int) -> list[list[int]]:
    return [[rng.randint(0, 1), rng.randint(0, 1)] for _ in range(n)]


def random_concave_terms(rng: random.Random, name: str) -> list[list]:
    """Exponent/coefficient triples of a concave polynomial on the polygon:
    a seeded strictly concave quadratic form plus a perturbation smaller
    than its second differences, so every lattice point stays a vertex of
    the lift."""
    a, c = rng.randint(3, 6), rng.randint(3, 6)
    b = rng.randint(-2, 2)
    return [
        [x, y, str(Fraction(-(a * x * x + b * x * y + c * y * y), 8) + Fraction(rng.randint(0, 15), 32))]
        for x, y in lattice_points(name)
    ]


def _order_flag(order) -> str:
    (a, b), (c, d) = order
    return f"--order={a},{b}/{c},{d}"


_SIGN_TOKENS = {(0, 0): "++", (0, 1): "+-", (1, 0): "-+", (1, 1): "--"}


def _polygon_flag(name: str) -> str:
    return '--polygon={"vertices": %s}' % polygon_vertices(name)


def _cli(command, name=None, genus=None, *extra, query=None):
    argv = [command]
    if name is not None:
        argv += [_polygon_flag(name), f"--genus={genus}"]
    argv += list(extra)
    return {"kind": "cli", "argv": argv, "query": query or {"command": command, "polygon": name, "genus": genus}}


def _real_cli(rng, genus):
    order = random_order(rng)
    signs = random_signs(rng, steps("tri4", genus))
    tokens = ",".join(_SIGN_TOKENS[tuple(s)] for s in signs)
    return _cli("real-count", "tri4", genus, _order_flag(order), f"--signs={tokens}",
                query={"command": "real-count", "polygon": "tri4", "genus": genus,
                       "order": order, "signs": signs})


COUNT_GRID = (
    [("tri4", g) for g in range(-1, 4)]
    + [("tri5", g) for g in (-1, 0, 1)]
    + [("tri6", g) for g in (6, 7)]
    + [("rect3", g) for g in (-1, 0)]
    + [("rect4", g) for g in (3, 4)]
    + [("cusp", 0)]
)
REAL_GRID = [("tri4", g) for g in (0, 1, 2)] + [("rect3", -1), ("rect3", 0), ("tri5", 0), ("tri5", 1)]
WELSCHINGER_GRID = [("tri4", 0), ("tri4", 1), ("tri5", 0), ("rect3", 0)]
# The cusp quadrilateral makes the round 11 jobs long, so the median job is one
# polygon's (tri5's) rather than the gap between two polygons' times.
CURVE_POLYGONS = [f"tri{d}" for d in range(3, 8)] + [f"rect{d}" for d in range(2, 5)] + ["cusp"]
DECODE_GENERA = (0, 1)


def _count_round(rng, lite):
    if lite:
        return []
    return [
        {"kind": "count", "polygon": p, "genus": g, "order": random_order(rng)}
        for p, g in COUNT_GRID
    ]


def _real_round(rng, lite):
    real = [("tri4", 1)] if lite else REAL_GRID
    wel = [("tri4", 1)] if lite else WELSCHINGER_GRID
    jobs = []
    for p, g in real:
        jobs.append({"kind": "real", "polygon": p, "genus": g, "order": random_order(rng),
                     "signs": random_signs(rng, steps(p, g))})
    for p, g in wel:
        jobs.append({"kind": "welschinger", "polygon": p, "genus": g, "order": random_order(rng)})
    return jobs


def _cli_round(rng, lite):
    if lite:
        # the pool pair on a small query, so every traced run covers the cli layer cheaply
        return [
            _cli("count", "tri4", 1, "--jobs=1", query={"command": "count", "polygon": "tri4", "genus": 1, "pool": 1}),
            _cli("count", "tri4", 1, "--jobs=2", query={"command": "count", "polygon": "tri4", "genus": 1, "pool": 2}),
            _cli("paths", "tri4", 1),
        ]
    return [
        _cli("count", "tri5", 0, "--jobs=1", query={"command": "count", "polygon": "tri5", "genus": 0, "pool": 1}),
        _cli("count", "tri5", 0, "--jobs=2", query={"command": "count", "polygon": "tri5", "genus": 0, "pool": 2}),
        _cli("table", None, None, "--dmax=4", query={"command": "table", "family": "projective", "dmax": 4}),
        _cli("table", None, None, "--family=bidegree", "--dmax=3",
             query={"command": "table", "family": "bidegree", "dmax": 3}),
        _cli("welschinger", "tri4", 0),
        _real_cli(rng, 0),
        _real_cli(rng, 1),
        _cli("paths", "tri4", 1),
        _cli("count", "tri3", 0),
    ]


def _curves_round(rng, lite):
    polys = ["tri3", "rect2"] if lite else CURVE_POLYGONS
    genera = (0,) if lite else DECODE_GENERA
    jobs = [{"kind": "poly", "polygon": p, "terms": random_concave_terms(rng, p)} for p in polys]
    for g in genera:
        jobs.append({"kind": "decode", "polygon": "tri4", "genus": g, "order": random_order(rng),
                     "signs": random_signs(rng, steps("tri4", g))})
    return jobs


GROUP_OF = {"count-cold": "count", "real-signed": "real", "cli-mix": "cli", "curves-session": "curves"}
_ROUNDS = {"count": _count_round, "real": _real_round, "cli": _cli_round, "curves": _curves_round}


def round_jobs(group: str, seed: int, r: int, lite: bool = False) -> list[dict]:
    """Round r of a layer group ("count", "real", "cli" or "curves"), in a
    seeded shuffled order.  `lite` is the small round that traced runs of the
    other workloads use to cover this group's layers."""
    rng = random.Random(f"{group}:{seed}:{r}:{int(lite)}")
    jobs = _ROUNDS[group](rng, lite)
    rng.shuffle(jobs)
    return jobs


# Every traced run checks the path counters exactly on this job, tri5 at g = 0
# under the default order; its total, 109781, is checked like any count.
CALIBRATION = {"kind": "count", "polygon": "tri5", "genus": 0, "order": None}
CALIBRATION_COUNTS = {"paths.enumerated": 27132, "paths.plus_nonzero": 20950, "paths.contributing": 1432}
