"""Exact geometry of convex lattice polygons in Z^2.

Everything here is integer arithmetic: areas are kept doubled so they stay
integral, directions are primitive integer vectors, and point orders are
lexicographic pairs of linear forms.  No floats anywhere.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Iterable, Sequence
from functools import cached_property
from math import gcd

LatticePoint = tuple[int, int]


class NonInjectiveOrder(ValueError):
    """The linear order assigns the same key to two lattice points of the polygon."""


def _coordinate(value) -> int:
    """An integer lattice coordinate.  Only integers are taken, through
    `operator.index`: a float, a string or a bool is refused, not
    converted."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"lattice coordinates must be integers, got {value!r}")


def cross(u: LatticePoint, v: LatticePoint) -> int:
    return u[0] * v[1] - u[1] * v[0]


def sub(a: LatticePoint, b: LatticePoint) -> LatticePoint:
    return (a[0] - b[0], a[1] - b[1])


def add(a: LatticePoint, b: LatticePoint) -> LatticePoint:
    return (a[0] + b[0], a[1] + b[1])


def lattice_length(v: LatticePoint) -> int:
    """Number of primitive steps the segment 0->v decomposes into."""
    if v == (0, 0):
        raise ValueError("zero vector has no lattice length")
    return gcd(abs(v[0]), abs(v[1]))


def primitive(v: LatticePoint) -> LatticePoint:
    g = lattice_length(v)
    return (v[0] // g, v[1] // g)


def _edge_key(a: LatticePoint, b: LatticePoint) -> tuple[LatticePoint, LatticePoint]:
    """The segment a-b undirected: its ends in ascending order."""
    return (a, b) if a <= b else (b, a)


def convex_hull(points: Iterable[LatticePoint]) -> list[LatticePoint]:
    """Convex hull in counterclockwise order, collinear points dropped.

    Andrew's monotone chain with integer cross products.  Degenerate inputs
    (all collinear) return the 1 or 2 extreme points.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(seq: Sequence[LatticePoint]) -> list[LatticePoint]:
        out: list[LatticePoint] = []
        for p in seq:
            while len(out) >= 2 and cross(sub(out[-1], out[-2]), sub(p, out[-2])) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return lower[:-1] + upper[:-1]


class _Record:
    """An immutable value whose fields are its class's annotations.

    Two records are equal when they are of the same class and their fields
    are; a record hashes as the tuple of its fields and prints as
    `Name(field=value, ...)`, as a frozen dataclass does.  Each class binds
    its fields in its own `__init__`, through `__dict__`; assigning or
    deleting an attribute afterwards raises AttributeError.
    """

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)
        get = operator.attrgetter(*cls._fields)
        # attrgetter gives the bare value for one name, a tuple for several
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda record: (get(record),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class LatticePolygon(_Record):
    """Strictly convex lattice polygon, vertices counterclockwise.

    Vertices may be given in any order; the canonical form starts at the
    lexicographically smallest vertex and runs counterclockwise.  Every
    given point must be a vertex of the hull: duplicates, interior points
    and points in the middle of a side are rejected, as are degenerate
    (zero-area) inputs.
    """

    vertices: tuple[LatticePoint, ...]

    def __init__(self, vertices: Iterable[LatticePoint]):
        verts = [(_coordinate(x), _coordinate(y)) for x, y in vertices]
        if len(set(verts)) != len(verts):
            raise ValueError("repeated vertex")
        hull = convex_hull(verts)
        if len(hull) < 3:
            raise ValueError("zero-area polygon")
        if len(hull) != len(verts):
            extra = sorted(set(verts) - set(hull))
            raise ValueError(f"not vertices of a convex polygon: {extra}")
        self.__dict__["vertices"] = tuple(hull)

    @classmethod
    def _from_ring(cls, ring: Sequence[LatticePoint]) -> "LatticePolygon":
        """The polygon on a ring that `convex_hull` returned, of three points
        or more: it already starts at its least point, runs counterclockwise
        and has no repeated or collinear points, so nothing is checked."""
        self = object.__new__(cls)
        self.__dict__["vertices"] = tuple(ring)
        return self

    # -- basic measures ----------------------------------------------------
    #
    # A polygon's derived data is computed once, on first use, and kept in
    # the instance `__dict__` by `cached_property`; it is not a field, so
    # equality, hash and repr do not see it.  A subdivision reads its cells'
    # areas and edges through it, and the decoded cells of a path are shared
    # by all the curves that contain them.

    @cached_property
    def _double_area(self) -> int:
        v = self.vertices
        return sum(map(cross, v, v[1:] + v[:1]))

    def double_area(self) -> int:
        return self._double_area

    @cached_property
    def _edge_keys(self) -> tuple[tuple[LatticePoint, LatticePoint], ...]:
        """The sides as undirected edges (`_edge_key`), in `sides()` order."""
        v = self.vertices
        return tuple(map(_edge_key, v, v[1:] + v[:1]))

    @cached_property
    def _across(self) -> dict | None:
        """For a parallelogram, each side as an undirected edge mapped to the
        opposite side; None for any other polygon."""
        v = self.vertices
        if len(v) != 4 or sub(v[1], v[0]) != sub(v[2], v[3]):
            return None
        k0, k1, k2, k3 = self._edge_keys
        return {k0: k2, k2: k0, k1: k3, k3: k1}

    @cached_property
    def _sides(self) -> tuple[tuple[LatticePoint, LatticePoint], ...]:
        v = self.vertices
        return tuple(zip(v, v[1:] + v[:1]))

    def sides(self) -> list[tuple[LatticePoint, LatticePoint]]:
        return list(self._sides)

    def bounding_box(self) -> tuple[int, int, int, int]:
        xs = [p[0] for p in self.vertices]
        ys = [p[1] for p in self.vertices]
        return (min(xs), min(ys), max(xs), max(ys))

    # -- membership ---------------------------------------------------------

    def contains(self, pt: LatticePoint) -> bool:
        return all(cross(sub(b, a), sub(pt, a)) >= 0 for a, b in self._sides)

    def strictly_contains(self, pt: LatticePoint) -> bool:
        return all(cross(sub(b, a), sub(pt, a)) > 0 for a, b in self._sides)

    def on_boundary(self, pt: LatticePoint) -> bool:
        return self.contains(pt) and not self.strictly_contains(pt)

    @cached_property
    def _side_bits_seen(self) -> dict[LatticePoint, int | None]:
        return {}

    def side_bits(self, pt: LatticePoint) -> int | None:
        """The sides of the closed polygon that `pt` lies on: bit i is set
        when pt is on `sides()[i]`, so an interior point gives 0 and a point
        outside gives None.  A segment between two points of the polygon lies
        on the boundary exactly when its ends share a bit.  Each point costs
        one cross product per side, once per polygon."""
        seen = self._side_bits_seen
        if pt not in seen:
            bits = 0
            for i, (a, b) in enumerate(self._sides):
                turn = cross(sub(b, a), sub(pt, a))
                if turn < 0:
                    bits = None
                    break
                if turn == 0:
                    bits |= 1 << i
            seen[pt] = bits
        return seen[pt]

    # -- lattice point enumeration -------------------------------------------

    def lattice_points(self) -> list[LatticePoint]:
        """All lattice points of the closed polygon, row-major (by y, then x)."""
        x0, y0, x1, y1 = self.bounding_box()
        return [
            (x, y)
            for y in range(y0, y1 + 1)
            for x in range(x0, x1 + 1)
            if self.contains((x, y))
        ]

    def boundary_lattice_points(self) -> list[LatticePoint]:
        """Boundary lattice points in counterclockwise cyclic order, starting
        at the canonical first vertex."""
        out: list[LatticePoint] = []
        for a, b in self._sides:
            step = primitive(sub(b, a))
            for t in range(lattice_length(sub(b, a))):
                out.append((a[0] + t * step[0], a[1] + t * step[1]))
        return out

    def counts(self) -> tuple[int, int]:
        """(number of boundary lattice points, number of interior lattice points)."""
        s = sum(lattice_length(sub(b, a)) for a, b in self._sides)
        total = len(self.lattice_points())
        return s, total - s

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"vertices": [list(p) for p in self.vertices]})

    @classmethod
    def from_json(cls, text: str) -> "LatticePolygon":
        data = json.loads(text)
        return cls([tuple(p) for p in data["vertices"]])


def standard_triangle(d: int) -> LatticePolygon:
    """hull{(0,0),(d,0),(0,d)}, the degree-d triangle."""
    if d < 1:
        raise ValueError("degree must be positive")
    return LatticePolygon([(0, 0), (d, 0), (0, d)])


def grid_rectangle(d1: int, d2: int) -> LatticePolygon:
    """[0,d1] x [0,d2]."""
    if d1 < 1 or d2 < 1:
        raise ValueError("side lengths must be positive")
    return LatticePolygon([(0, 0), (d1, 0), (d1, d2), (0, d2)])


class LinearOrder(_Record):
    """Injective-when-needed order on Z^2: compare (primary.pt, tiebreak.pt)
    lexicographically."""

    primary: LatticePoint
    tiebreak: LatticePoint

    def __init__(self, primary: Iterable[int], tiebreak: Iterable[int]):
        p = tuple(map(_coordinate, primary))
        t = tuple(map(_coordinate, tiebreak))
        if len(p) != 2 or len(t) != 2:
            raise ValueError("order vectors must be 2-dimensional")
        self.__dict__.update(primary=p, tiebreak=t)

    def key(self, pt: LatticePoint) -> tuple[int, int]:
        return (
            self.primary[0] * pt[0] + self.primary[1] * pt[1],
            self.tiebreak[0] * pt[0] + self.tiebreak[1] * pt[1],
        )

    def is_injective_on(self, points: Iterable[LatticePoint]) -> bool:
        pts = list(points)
        return len({self.key(p) for p in pts}) == len(pts)

    def to_json(self) -> str:
        return json.dumps({"primary": list(self.primary), "tiebreak": list(self.tiebreak)})

    @classmethod
    def from_json(cls, text: str) -> "LinearOrder":
        data = json.loads(text)
        return cls(data["primary"], data["tiebreak"])

    @classmethod
    def default(cls) -> "LinearOrder":
        return cls((1, 0), (0, -1))


def extremal_vertices(P: LatticePolygon, order: LinearOrder) -> tuple[LatticePoint, LatticePoint]:
    """(minimum, maximum) of the order over the polygon's lattice points.

    Both extremes land on vertices.  Raises NonInjectiveOrder if any two
    lattice points of P share a key.
    """
    pts = P.lattice_points()
    if not order.is_injective_on(pts):
        raise NonInjectiveOrder(f"order {order.primary}/{order.tiebreak} has ties on the polygon")
    p = min(pts, key=order.key)
    q = max(pts, key=order.key)
    return p, q


def boundary_chains(
    P: LatticePolygon, order: LinearOrder
) -> tuple[tuple[LatticePoint, ...], tuple[LatticePoint, ...]]:
    """The two increasing unit-step boundary chains from the minimal to the
    maximal lattice point.

    Returns (alpha_plus, alpha_minus).  alpha_plus walks the boundary with
    the polygon's interior on its right-hand side (the clockwise direction);
    alpha_minus is the counterclockwise chain.  Together they traverse every
    boundary lattice point, so their step counts add up to the boundary count.
    """
    p, q = extremal_vertices(P, order)
    cycle = P.boundary_lattice_points()
    i = cycle.index(p)
    rotated = cycle[i:] + cycle[:i]
    j = rotated.index(q)
    minus = tuple(rotated[: j + 1])              # counterclockwise from p to q
    plus = tuple([rotated[0]] + rotated[j:][::-1])  # clockwise from p to q
    return plus, minus


class ToricDegree(_Record):
    """Outward primitive normals of a polygon's sides with their lattice
    lengths.  The weighted normals always sum to zero."""

    entries: tuple[tuple[LatticePoint, int], ...]

    def __init__(self, entries: tuple[tuple[LatticePoint, int], ...]):
        self.__dict__["entries"] = entries

    def total(self) -> LatticePoint:
        x = sum(d[0] * w for d, w in self.entries)
        y = sum(d[1] * w for d, w in self.entries)
        return (x, y)


def toric_degree(P: LatticePolygon) -> ToricDegree:
    entries = []
    for a, b in P.sides():
        v = sub(b, a)
        n = primitive((v[1], -v[0]))  # right normal of a ccw edge points outward
        entries.append((n, lattice_length(v)))
    return ToricDegree(tuple(entries))
