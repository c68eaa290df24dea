"""Tropical polynomials, decoded paths and the plane curves they give.

A tropical polynomial is a maximum of affine forms indexed by lattice
points.  Lifting each index to its coefficient height and taking upper
faces of the convex hull subdivides the Newton polygon; the curve is the
locus where the maximum is attained twice, dual to that subdivision cell
by cell.  A `DualSubdivision` is such a tiling, checked by
`validate_tiling`; `decode` builds one per curve a lattice path encodes,
from the `_Leaves` of `_leaf_rule`'s memo.  The same duality turns it into
its marked dual graph, which this module owns: `marked_dual_graph` writes
its chains as int rows, and `curve_real_multiplicity` cuts and folds them.
A chain's weight is the lattice length of its first edge (a, b), and its
direction the primitive normal (a[1] - b[1], b[0] - a[0]).

That multiplicity is the oracle for the signed rule of `real`: it weighs
one decoded curve on its marked dual graph.  Cut at the marks, the graph
falls into trees with one boundary end each, and each tree folds from its
mark leaves to its end.  The multiplicities of a path's curves sum to its
signed multiplicity.  The fold calls `real._merge`, the one definition of
how two sign classes meet at a trivalent vertex, and `real._fitting_nibble`,
the one fit test.
"""

from __future__ import annotations

import json
from collections import defaultdict
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from types import MappingProxyType
from weakref import WeakKeyDictionary

from .lattice import (
    LatticePoint,
    LatticePolygon,
    LinearOrder,
    _chain,
    _coordinate,
    _edge_key,
    _Record,
    add,
    convex_hull,
    cross,
    lattice_length,
    primitive,
    sub,
)
from .paths import LatticePath, Side, _check_path, _context
from .real import SignClass, _fitting_nibble, _merge

RationalPoint = tuple[Fraction, Fraction]
_rules: WeakKeyDictionary = WeakKeyDictionary()  # each context's `_leaf_rule`


class DegenerateSupport(ValueError):
    """The support spans no area, so there is no plane curve to extract."""


class IncompatibleGraph(ValueError):
    """A marked dual graph component is not a tree with exactly one end."""


class MalformedSubdivision(ValueError):
    """Cells fail to tile the ambient polygon edge-to-edge."""


class NotSimple(ValueError):
    """The subdivision has a cell that is neither a triangle nor a
    parallelogram."""


class ParallelDirections(ValueError):
    """Two edge directions at a vertex are parallel."""


# -- dual subdivisions and decoded curves -------------------------------------


class DualSubdivision(_Record):
    """A set of convex lattice cells tiling an ambient polygon."""

    ambient: LatticePolygon
    cells: tuple[LatticePolygon, ...]

    def triangles(self) -> list[LatticePolygon]:
        return [c for c in self.cells if len(c.vertices) == 3]

    def is_simple(self) -> bool:
        """True when every cell is a triangle or a parallelogram."""
        return all(len(c.vertices) == 3 or c._across is not None for c in self.cells)

    def edge_map(self) -> dict[tuple[LatticePoint, LatticePoint], list[int]]:
        """Map from undirected cell edge to the indices of its incident cells."""
        edges: dict[tuple[LatticePoint, LatticePoint], list[int]] = {}
        get = edges.get
        for i, c in enumerate(self.cells):
            for e in c._edge_keys:
                incident = get(e)
                if incident is None:
                    edges[e] = [i]
                else:
                    incident.append(i)
        return edges

    def interior_edges(self) -> list[tuple[LatticePoint, LatticePoint]]:
        return sorted(e for e, cs in self.edge_map().items() if len(cs) == 2)

    def boundary_edges(self) -> list[tuple[LatticePoint, LatticePoint]]:
        return sorted(e for e, cs in self.edge_map().items() if len(cs) == 1)

    def validate_tiling(self) -> dict[tuple[LatticePoint, LatticePoint], list[int]]:
        """Raise MalformedSubdivision unless the cells tile the ambient polygon
        edge-to-edge (area match, every edge shared by two cells or lying on
        the ambient boundary); return the edge map it checked.

        The cells' areas and edges are computed once per cell.  The sides
        each cell vertex lies on are read from the ambient's `side_bits`
        cache, which the subdivisions of one ambient share: an edge is on
        the boundary when both ends lie on one side, and the cells are inside
        when none of their vertices is outside.  Every vertex is the end of
        an edge, so the edge loop reads them all."""
        cells, ambient = self.cells, self.ambient
        if sum(c.double_area() for c in cells) != ambient.double_area():
            raise MalformedSubdivision("cell areas do not add up to the ambient area")
        edges = self.edge_map()
        bits, side_bits = ambient._side_bits_seen, ambient.side_bits
        outside = False
        for (a, b), cs in edges.items():
            ba = bits[a] if a in bits else side_bits(a)
            bb = bits[b] if b in bits else side_bits(b)
            if len(cs) > 2:
                raise MalformedSubdivision(f"edge {a}-{b} belongs to {len(cs)} cells")
            if ba is None or bb is None:
                outside = True
            on_boundary = (ba or 0) & (bb or 0)
            if len(cs) == 1 and not on_boundary:
                raise MalformedSubdivision(f"interior edge {a}-{b} has only one cell")
            if len(cs) == 2 and on_boundary:
                raise MalformedSubdivision(f"boundary edge {a}-{b} has two cells")
        if outside:
            raise MalformedSubdivision("cell sticks out of the ambient polygon")
        return edges

    def to_json_dict(self) -> dict:
        return {"cells": [{"vertices": [list(v) for v in c.vertices]} for c in self.cells]}


class DecodedCurve(_Record):
    """One curve encoded by a path: its dual subdivision, the subdivision
    edges dual to the path steps (in step order), and its weight."""

    subdivision: DualSubdivision
    path: LatticePath
    marked_edges: tuple[tuple[LatticePoint, LatticePoint], ...]
    multiplicity: int

    def genus(self) -> int:
        s, _ = self.subdivision.ambient.counts()
        return len(self.path) - 1 - s + 1


class _Leaves(tuple):
    """The decoding memo's values: the leaves below a path mask, (weight,
    cells) pairs, or the ints 0 and 1 for no leaf and the one empty leaf.
    A sum concatenates.  A product pairs each left leaf (outer loop) with
    each right leaf (inner loop), multiplies the weights and puts the right
    leaf's cells first, so a move's cell follows the cells below it."""

    __slots__ = ()

    @staticmethod
    def of(value) -> "_Leaves":
        return value if value.__class__ is _Leaves else _Leaves(((1, ()),) * value)

    def __add__(self, other):
        return _Leaves(tuple.__add__(self, other)) if other else self

    def __mul__(self, other):
        if other.__class__ is not _Leaves:
            return other and self
        return _Leaves([(w * x, d + c) for w, c in self for x, d in other])

    __radd__, __rmul__ = __add__, __mul__  # a sum starts from 0; 0 and 1 commute


def _leaf_rule():
    """Decoding's step rule, one per context: a triangle weighs its doubled
    area and a parallelogram 1, each one leaf with itself as its one cell,
    one object per distinct cell, so curves that share a cell share its data."""
    cells: dict[tuple[LatticePoint, ...], LatticePolygon] = {}

    def leaf(weight: int, *corners: LatticePoint) -> _Leaves:
        key = tuple(sorted(corners))
        cell = cells.get(key) or cells.setdefault(key, LatticePolygon(corners))
        return _Leaves(((weight, (cell,)),))

    def step(p: LatticePoint, u: LatticePoint, v: LatticePoint, na: int, nb: int):
        return ((leaf(abs(cross(u, v)), p, add(p, u), add(add(p, u), v)), 0),)

    step.parallelogram = lambda p, u, v: leaf(1, p, add(p, u), add(add(p, u), v), add(p, v))
    return step


def decode(P: LatticePolygon, order: LinearOrder, path: Sequence[LatticePoint]) -> tuple[DecodedCurve, ...]:
    """The curves a path encodes, one per leaf of the two-sided recursion.

    Each decoded curve tiles P with the triangles and parallelograms carved
    off by the recursion; its multiplicity is the product of the doubled
    triangle areas, and the decoded multiplicities add up to mu(path).
    """
    ctx = _context(P, order)
    m = _check_path(ctx, path)
    pts = tuple(map(tuple, path))
    marked = tuple((pts[j], pts[j + 1]) for j in range(len(pts) - 1))
    rule = _rules.get(ctx) or _rules.setdefault(ctx, _leaf_rule())
    plus, minus = (_Leaves.of(ctx.memo(rule, side)[m]) for side in Side)
    out = []
    for m_plus, cells_plus in plus:
        for m_minus, cells_minus in minus:
            sub_ = DualSubdivision._bind(ambient=P, cells=cells_plus + cells_minus)
            out.append(DecodedCurve._bind(subdivision=sub_, path=pts, marked_edges=marked,
                                          multiplicity=m_plus * m_minus))
    return tuple(out)


def _as_fraction(value) -> Fraction:
    if isinstance(value, bool):
        raise TypeError(f"coefficients must be int, Fraction or 'p/q' string, got {value!r}")
    if isinstance(value, float):
        raise TypeError("coefficients must be exact (int, Fraction or 'p/q' string)")
    return Fraction(value)


class TropicalPolynomial(_Record):
    """A max-plus polynomial: max over support points j of <j, x> + a_j.

    An immutable value: `terms` is a read-only view, and assigning or
    deleting an attribute raises AttributeError.  Its lift is computed once,
    on first use, and kept in the instance `__dict__` by `cached_property`,
    as a polygon's derived data is: the support's hull and Newton polygon,
    the integer heights, the upper faces and the subdivision they cut out.
    `curve_of`, `dual_subdivision` and `canonicalize` read it.

    Each exponent must be a pair of integers (ValueError for another length,
    TypeError for a non-integer) and each coefficient exact: an int, a
    Fraction or a 'p/q' string, never a float or a bool (TypeError).
    """

    terms: Mapping[LatticePoint, Fraction]

    def __init__(self, terms: Mapping[LatticePoint, object]):
        items = {}
        for j, a in terms.items():
            if len(j) != 2:
                raise ValueError(f"an exponent has two coordinates, got {j!r}")
            key = (_coordinate(j[0]), _coordinate(j[1]))
            items[key] = _as_fraction(a)
        if not items:
            raise ValueError("empty support")
        super().__init__(MappingProxyType(dict(sorted(items.items()))))

    def __reduce__(self):
        return (self.__class__, (dict(self.terms),))

    def support(self) -> list[LatticePoint]:
        return list(self.terms)

    def eval(self, x) -> Fraction:
        px, py = Fraction(x[0]), Fraction(x[1])
        return max(j[0] * px + j[1] * py + a for j, a in self.terms.items())

    def maximizers(self, x) -> list[LatticePoint]:
        """Support points whose affine form attains the maximum at x."""
        px, py = Fraction(x[0]), Fraction(x[1])
        vals = {j: j[0] * px + j[1] * py + a for j, a in self.terms.items()}
        top = max(vals.values())
        return [j for j, v in vals.items() if v == top]

    def newton_polygon(self) -> LatticePolygon:
        # a support that spans no area meets the polygon's own check
        return self._newton if len(self._hull) > 2 else LatticePolygon(self._hull)

    def __eq__(self, other) -> bool:
        return isinstance(other, TropicalPolynomial) and self.terms == other.terms

    def __repr__(self) -> str:
        inner = ", ".join(f"{j}: {a}" for j, a in self.terms.items())
        return f"TropicalPolynomial({{{inner}}})"

    def to_json(self) -> str:
        return json.dumps(
            {
                "terms": [
                    {"exp": [j[0], j[1]], "coeff": str(a)}
                    for j, a in self.terms.items()
                ]
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "TropicalPolynomial":
        """The polynomial of `to_json`'s form.  Each exponent must have two
        coordinates and appear once: ValueError otherwise."""
        terms: dict[LatticePoint, object] = {}
        for t in json.loads(text)["terms"]:
            exp = t["exp"]
            if len(exp) != 2:
                raise ValueError(f"an exponent has two coordinates, got {exp!r}")
            j = (_coordinate(exp[0]), _coordinate(exp[1]))
            if j in terms:
                raise ValueError(f"repeated exponent {list(j)}")
            terms[j] = t["coeff"]
        return cls(terms)

    # -- the lift ------------------------------------------------------------

    @cached_property
    def _hull(self) -> list[LatticePoint]:
        """The support's `convex_hull`: one point, two, or a polygon."""
        return convex_hull(self.terms)

    @cached_property
    def _newton(self) -> LatticePolygon:
        """The Newton polygon, bound unchecked from `_hull`, a counterclockwise
        ring from its least point with no repeated or collinear points, which
        must span an area.  The wrap reads its side bits and the subdivision
        keeps it as its ambient, so the tiling check finds them computed."""
        return LatticePolygon._bind(vertices=tuple(self._hull))

    @cached_property
    def _heights(self) -> tuple[dict[LatticePoint, int], int]:
        return _scaled_heights(self)

    @cached_property
    def _faces(self) -> list[_Face]:
        """The upper faces of the lift; the support must span an area."""
        return _upper_faces(self, self._hull)

    @cached_property
    def _subdivision(self) -> tuple[DualSubdivision, dict]:
        """The subdivision with one cell per upper face of the lift, in face
        order, and the edge map its tiling check returned."""
        if len(self._hull) < 3:
            raise DegenerateSupport("support spans no area")
        cells = tuple(LatticePolygon._bind(vertices=face.ring) for face in self._faces)
        out = DualSubdivision._bind(ambient=self._newton, cells=cells)
        return out, out.validate_tiling()


def _scaled_heights(f: TropicalPolynomial) -> tuple[dict[LatticePoint, int], int]:
    """Integer heights obtained by clearing denominators; positive scaling
    leaves the upper-face structure unchanged."""
    scale = lcm(*(a.denominator for a in f.terms.values()))
    return {j: a.numerator * (scale // a.denominator) for j, a in f.terms.items()}, scale


class _Face(_Record):
    """One upper face of the lifted hull: the support points on it, in
    ascending order; the integer plane (nx, ny, nz, c) it lies on, nx*x +
    ny*y + nz*h = c on the heights h of `_scaled_heights` with nz > 0; and
    its ring, the counterclockwise hull of its points from their least."""

    points: tuple[LatticePoint, ...]
    plane: tuple[int, int, int, int]
    ring: tuple[LatticePoint, ...]


def _upper_faces(f: TropicalPolynomial, newton: list[LatticePoint]) -> list[_Face]:
    """All 2-dimensional upper faces of the hull of lifted support points;
    `newton` is the support's `convex_hull`, which must span an area.

    Gift wrapping (Chand-Kapur) in integer arithmetic on the heights of
    `_scaled_heights`.  The walk starts from the upper edge that leaves the
    lexicographically first support point along a side of the Newton
    polygon, and crosses every cell edge once, except those on a side of the
    Newton polygon, which have no support point across.  Across an edge, the
    next face lies on the plane through it that has every support point
    strictly across on or below it, and its contact set is every lifted point
    on that plane.  One pass over the support finds both: the planes through
    the lifted edge are ordered by their height at every point across, so the
    pass keeps the points across that lie on the plane so far and drops them
    when the plane rises.  A point on the edge's own line joins the contact
    when it lies on the final plane, and no point on the near side can, or
    the face across would overlap the face the walk came from.  Each crossing
    is one pass over the support, so the hull costs O(faces * n).  Faces are
    deduplicated by contact set; each is `_Face(contact, plane, ring)`.

    Every edge the walk crosses has a support point across.  The first has
    the Newton polygon on its right; any other with none on its right would
    lie on a supporting line of the support, so on a side of the Newton
    polygon, and its two ends would share that side.
    """
    heights = f._heights[0]
    # the terms, and so the heights, are in ascending order
    lifted = [(x, y, z) for (x, y), z in heights.items()]
    side_bits = f._newton.side_bits
    bits = {j: side_bits(j) for j in heights}

    def face_across(a: LatticePoint, b: LatticePoint):
        """(plane, contact) of the upper face on the right of the cell edge
        a -> b."""
        ax, ay, az = a[0], a[1], heights[a]
        ex, ey, ez = b[0] - ax, b[1] - ay, heights[b] - az
        # q lies across, on the right of a -> b, when ex*qy - ey*qx < k and
        # on the edge's line when they are equal; it lies above the plane
        # so far when nx*qx + ny*qy + nz*qz > c
        k = ex * ay - ey * ax
        nx = ny = nz = c = 0
        on: list[LatticePoint] = []
        line = []
        for qx, qy, qz in lifted:
            turn = ex * qy - ey * qx
            if turn > k:
                continue
            if turn == k:
                line.append((qx, qy, qz))
                continue
            rise = nx * qx + ny * qy + nz * qz
            if rise > c or not on:
                # the first point across, or one above the plane so far: the
                # plane through the edge and it, as (q - a) x (b - a), which
                # points up because q is on the right
                ux, uy, uz = qx - ax, qy - ay, qz - az
                nx, ny, nz = uy * ez - uz * ey, uz * ex - ux * ez, ux * ey - uy * ex
                c = nx * ax + ny * ay + nz * az
                on = [(qx, qy)]
            elif rise == c:
                on.append((qx, qy))
        on.extend((x, y) for x, y, z in line if nx * x + ny * y + nz * z == c)
        on.sort()
        return (nx, ny, nz, c), tuple(on)

    # The first support point is the Newton polygon's first vertex, and every
    # support point on the line to the next vertex lies on that side.  The
    # one of steepest lift starts an upper edge, with the polygon on its left.
    # The slope to a point q on that side is (qz - z0) / t with t > 0 its
    # projection on the side, so slopes compare by cross-multiplying.
    x0, y0, z0 = lifted[0]
    v1 = newton[1]
    d = (v1[0] - x0, v1[1] - y0)
    top, rise, run = None, 0, 0
    for qx, qy, qz in lifted[1:]:
        ux, uy = qx - x0, qy - y0
        if d[0] * uy - d[1] * ux == 0:
            t = d[0] * ux + d[1] * uy
            if top is None or (qz - z0) * run > rise * t:
                top, rise, run = (qx, qy), qz - z0, t
    faces: dict[tuple[LatticePoint, ...], _Face] = {}
    crossed: set[EdgeKey] = set()
    todo = [face_across(top, (x0, y0))]
    while todo:
        plane, contact = todo.pop()
        if contact in faces:
            continue
        if len(contact) == 3:
            # a triangle: its least point first, then counterclockwise
            p, q, r = contact
            turn = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
            ring = (p, q, r) if turn > 0 else (p, r, q)
        else:
            ring = tuple(convex_hull(contact))
        faces[contact] = _Face._bind(points=contact, plane=plane, ring=ring)
        for a, b in zip(ring, ring[1:] + ring[:1]):
            if bits[a] & bits[b]:
                # on a side of the Newton polygon: no support point across
                continue
            key = _edge_key(a, b)
            if key not in crossed:
                crossed.add(key)
                todo.append(face_across(a, b))
    return sorted(faces.values(), key=lambda face: face.points)


def dual_subdivision(f: TropicalPolynomial) -> DualSubdivision:
    """The regular subdivision of the Newton polygon induced by the
    coefficient lift: one cell per upper face of the lifted hull."""
    return f._subdivision[0]


def canonicalize(f: TropicalPolynomial) -> TropicalPolynomial:
    """Raise each coefficient to the value of the concave hull of the lift
    over the support.  The curve is unchanged and the result is idempotent.

    For a 2-dimensional support, a point on an upper face keeps its own
    height, and a sunken point takes the least of the face planes over it,
    which is the concave hull's value there."""
    # `convex_hull` keeps one point of a point and the two ends of a segment
    newton = f._hull
    if len(newton) == 1:
        return TropicalPolynomial(f.terms)
    if len(newton) > 2:
        faces = f._faces
        scale = f._heights[1]
        contact = {j for face in faces for j in face.points}
        new = dict(f.terms)
        for j in new:
            if j not in contact:
                # a face's scaled value at j is (c - nx*j1 - ny*j2) / nz, nz > 0
                low, den = None, 1
                for face in faces:
                    nx, ny, nz, c = face.plane
                    v = c - nx * j[0] - ny * j[1]
                    if low is None or v * den < low * nz:
                        low, den = v, nz
                new[j] = Fraction(low, den * scale)
        return TropicalPolynomial._bind(terms=MappingProxyType(new))
    # collinear support: parameterize the line and take the 1-dimensional
    # upper hull of (parameter, height)
    pts = f.support()
    base = newton[0]
    d = primitive(sub(newton[1], base))
    idx = 0 if d[0] != 0 else 1

    def param(p: LatticePoint) -> int:
        return (p[idx] - base[idx]) // d[idx]

    # the chain run from the highest parameter down is the upper hull
    hull = _chain(sorted(((param(p), f.terms[p]) for p in pts), reverse=True))[::-1]
    # the upper hull is concave, so it is the least of its pieces
    return TropicalPolynomial({
        p: min(a1 + (a2 - a1) * Fraction(param(p) - t1, t2 - t1)
               for (t1, a1), (t2, a2) in zip(hull, hull[1:]))
        for p in pts
    })


class PlaneTropicalCurve(_Record):
    """A balanced weighted piecewise-linear curve in the plane.

    Vertices have exact rational coordinates.  A bounded edge is
    (vertex index a, vertex index b, weight, primitive direction a -> b);
    a ray is (vertex index, primitive direction, weight).
    """

    vertices: tuple[RationalPoint, ...]
    bounded_edges: tuple[tuple[int, int, int, LatticePoint], ...]
    rays: tuple[tuple[int, LatticePoint, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "vertices": [[str(x), str(y)] for x, y in self.vertices],
            "bounded_edges": [
                {"ends": [a, b], "weight": w, "direction": list(d)}
                for a, b, w, d in self.bounded_edges
            ],
            "rays": [
                {"vertex": v, "direction": list(d), "weight": w}
                for v, d, w in self.rays
            ],
        }


def curve_of(f: TropicalPolynomial) -> PlaneTropicalCurve:
    """The corner locus of f as a weighted graph dual to its subdivision:
    a vertex per cell, a bounded edge per interior cell edge, a ray per
    boundary cell edge, weights equal to dual lattice lengths."""
    sub_, emap = f._subdivision
    faces = f._faces
    heights, scale = f._heights
    vertices: list[RationalPoint] = []
    for face in faces:
        nx, ny, nz, c = face.plane
        for p in face.points:
            if nx * p[0] + ny * p[1] + nz * heights[p] != c:
                raise ArithmeticError("face plane misses one of its own lifts")
        # the vertex is (-alpha, -beta) of the face
        vertices.append((Fraction(nx, nz * scale), Fraction(ny, nz * scale)))
    bounded = []
    rays = []
    for (a, b), incident in sorted(emap.items()):
        w = lattice_length(sub(b, a))
        if len(incident) == 2:
            i, j = incident
            # vertex k is (xk, yk) / (zk * scale) for the plane (xk, yk, zk, _)
            # of face k, and zi, zj > 0
            xi, yi, zi, _ = faces[i].plane
            xj, yj, zj, _ = faces[j].plane
            d = primitive((xj * zi - xi * zj, yj * zi - yi * zj))
            if d[0] * (b[0] - a[0]) + d[1] * (b[1] - a[1]) != 0:
                raise ArithmeticError("dual edge is not orthogonal to its cell edge")
            bounded.append((i, j, w, d))
        else:
            (i,) = incident
            # the tiling check put this edge on a side, the first one both
            # ends lie on; the ray is its outward normal
            shared = sub_.ambient.side_bits(a) & sub_.ambient.side_bits(b)
            s0, s1 = sub_.ambient._sides[(shared & -shared).bit_length() - 1]
            rays.append((i, primitive((s1[1] - s0[1], s0[0] - s1[0])), w))
    return PlaneTropicalCurve._bind(
        vertices=tuple(vertices),
        bounded_edges=tuple(bounded),
        rays=tuple(rays),
    )


def check_balancing(C: PlaneTropicalCurve) -> bool:
    """True when the weighted primitive directions leaving each vertex sum
    to zero."""
    totals = {i: [0, 0] for i in range(len(C.vertices))}
    for a, b, w, d in C.bounded_edges:
        totals[a][0] += w * d[0]
        totals[a][1] += w * d[1]
        totals[b][0] -= w * d[0]
        totals[b][1] -= w * d[1]
    for v, d, w in C.rays:
        totals[v][0] += w * d[0]
        totals[v][1] += w * d[1]
    return all(t == [0, 0] for t in totals.values())


def vertex_multiplicity(v1: LatticePoint, w1: int, v2: LatticePoint, w2: int) -> int:
    """Multiplicity of a trivalent vertex with two of its edge directions:
    w1 * w2 * |det(v1, v2)|."""
    det = cross(v1, v2)
    if det == 0:
        raise ParallelDirections(f"directions {v1} and {v2} are parallel")
    return w1 * w2 * abs(det)


def genus_of_simple(S: DualSubdivision) -> int:
    """Genus of the curve dual to a subdivision made of triangles and
    parallelograms: (triangles - boundary edges) / 2 + 1."""
    if not S.is_simple():
        raise NotSimple("subdivision has a cell that is not a triangle or parallelogram")
    r = len(S.triangles())
    x = len(S.boundary_edges())
    return (r - x) // 2 + 1


def is_smooth(S: DualSubdivision) -> bool:
    """True when every cell is a triangle of minimal area."""
    return all(
        len(c.vertices) == 3 and c.double_area() == 1 for c in S.cells
    )


# -- marked dual graphs -------------------------------------------------------

EdgeKey = tuple[LatticePoint, LatticePoint]
# A chain is a row (edges, left terminal, right terminal); a terminal is a
# triangle's index, or -1 for the boundary end.
Row = tuple[tuple[EdgeKey, ...], int, int]


class MarkedDualGraph(_Record):
    """Combinatorial dual of a decoded subdivision: a trivalent node per
    triangle, a crossing per parallelogram, chains of dual edges, one end
    per boundary edge, and the path steps as marked edges.

    Each chain is a maximal run of parallel subdivision edges joined through
    parallelogram crossings, dual to one straight piece of curve, kept as a
    row (edges, left, right) whose terminals are a triangle's index or -1
    for the end.  The constructor raises ValueError for any other terminal;
    `marked_dual_graph` binds the rows it walked unchecked (`_bind`).
    """

    triangles: tuple[LatticePolygon, ...]
    crossings: tuple[LatticePolygon, ...]
    chains: tuple[Row, ...]
    marked: tuple[EdgeKey, ...]

    def __init__(self, *values, **named):
        super().__init__(*values, **named)
        for _, *ends in self.chains:
            for t in ends:
                if not -1 <= t < len(self.triangles):
                    raise ValueError(f"chain terminal {t!r} is neither -1 nor a triangle index "
                                     f"below {len(self.triangles)}")

    def chain_of(self, edge: EdgeKey) -> int:
        for i, (edges, _, _) in enumerate(self.chains):
            if edge in edges:
                return i
        raise KeyError(f"edge {edge} is on no chain")


def _cut(rows: tuple[Row, ...], cuts: Mapping[EdgeKey, int]):
    """Cut chain rows at the edges in `cuts` into pieces laid out as rows,
    (edges, terminal, terminal), where the cut at e is the terminal cuts[e]
    of the pieces on either side of it; a row with no cut is its own piece.
    Returns the pieces, the pieces at each triangle terminal, in piece
    order, and the pieces at the end."""
    pieces = []
    legs: dict[int, list[int]] = defaultdict(list)
    ends = []
    for row in rows:
        edges, a, b = row
        for e in edges:
            cut = cuts.get(e)
            if cut is not None:
                if a >= 0:
                    legs[a].append(len(pieces))
                elif a == -1:
                    ends.append(len(pieces))
                pieces.append((edges, a, cut))
                a = cut
        i = len(pieces)
        pieces.append(row if a == row[1] else (edges, a, b))
        if a >= 0:
            legs[a].append(i)
        if b >= 0:
            legs[b].append(i)
        if a == -1 or b == -1:
            ends.append(i)
    return pieces, legs, ends


# The distribution a mark leaf of each class nibble carries: that class,
# weight 1, in the (weight, nibble) form of `_merge`'s alternatives.
_LEAVES = tuple(((1, n),) for n in range(16))


def _fold(pieces: list, legs: dict[int, list[int]], seen: list[bool], i: int,
          far: int) -> tuple[tuple[int, int], ...]:
    """The class distribution carried up piece i from the triangle or end
    `far`, over the pieces, legs and end pieces that `_cut` returns; `seen`
    flags the pieces folded so far.  A module function, not a closure: a
    closure that calls itself is a reference cycle, which would keep each
    curve's pieces alive until the cyclic collector runs."""
    if far == -1:
        raise IncompatibleGraph("component has 2 ends, expected exactly 1")
    at = legs[far]
    if len(at) != 3:
        raise IncompatibleGraph("trivalent node without exactly three legs")
    j0, j1, j2 = at
    ja, jb = (j1, j2) if j0 == i else (j0, j2) if j1 == i else (j0, j1)
    if seen[ja] or seen[jb]:
        raise IncompatibleGraph("component is not a tree")
    seen[ja] = seen[jb] = True
    ea, a0, a1 = pieces[ja]
    eb, b0, b1 = pieces[jb]
    t = a1 if a0 == far else a0
    da = _LEAVES[-2 - t] if t < -1 else _fold(pieces, legs, seen, ja, t)
    t = b1 if b0 == far else b0
    db = _LEAVES[-2 - t] if t < -1 else _fold(pieces, legs, seen, jb, t)
    # the parity indices of the legs' vectors and the primitive parity
    # index of the vector above
    ((ax, ay), (bx, by)), ((cx, cy), (dx, dy)) = ea[0], eb[0]
    pa, pb = ((ax ^ bx) & 1) << 1 | (ay ^ by) & 1, ((cx ^ dx) & 1) << 1 | (cy ^ dy) & 1
    (x0, y0), (x1, y1) = pieces[i][0][0]
    mx, my = x1 - x0, y1 - y0
    g = gcd(mx, my)
    pm = (mx // g & 1) << 1 | my // g & 1
    if len(da) == 1 and len(db) == 1:
        (wa, ca), = da
        (wb, cb), = db
        alts = _merge(ca, cb, pa, pb, pm)
        w = wa * wb
        return alts if w == 1 else tuple((w * v, c) for v, c in alts)
    out: dict[int, int] = {}
    for wa, ca in da:
        for wb, cb in db:
            for w, c in _merge(ca, cb, pa, pb, pm):
                out[c] = out.get(c, 0) + wa * wb * w
    return tuple((w, c) for c, w in out.items())


def curve_real_multiplicity(G: MarkedDualGraph, signs: Mapping[EdgeKey, SignClass]) -> int:
    """Signed multiplicity of one marked curve.

    The chains cut at their marks must form trees with exactly one boundary
    end each.  Rooted at its end, every triangle of a tree has two legs
    below it, so the tree folds from its mark leaves up: a leg carries a
    distribution of (weight, class nibble) pairs, a mark leaf its own class
    with weight 1, and the legs below a triangle merge by `_merge` into the
    leg above.  The weights reaching the end sum to the tree's
    multiplicity; the curve's is the product over its trees.  The fold runs
    on the graph's chains: a piece's terminals are ints, a triangle's
    index, -1 for the end, and -2 - nibble for the cut at a mark of that
    class.
    """
    marked = set(G.marked)
    if set(signs) != marked:
        raise ValueError("need a sign class for exactly the marked edges")
    cuts = {}
    for e, cls in signs.items():
        (x0, y0), (x1, y1) = e
        nibble = _fitting_nibble((x1 - x0, y1 - y0), frozenset(cls))
        if nibble is None:
            raise ValueError(f"sign class {set(cls)} does not fit edge {e}")
        cuts[e] = -2 - nibble
    pieces, legs, ends = _cut(G.chains, cuts)
    seen = [False] * len(pieces)
    total = 1
    for i in ends:
        seen[i] = True
        _, a, b = pieces[i]
        t = b if a == -1 else a
        total *= sum(w for w, _ in (_LEAVES[-2 - t] if t < -1 else _fold(pieces, legs, seen, i, t)))
    if not all(seen):
        raise IncompatibleGraph("component has 0 ends, expected exactly 1")
    return total


def marked_dual_graph(D: DecodedCurve) -> MarkedDualGraph:
    """Dual graph of a decoded subdivision with the path steps as marks.

    Chains collect runs of parallel subdivision edges joined across
    parallelogram cells (the dual curve passes straight through those);
    each chain ends either at a triangle node or at a boundary end.  The
    cells' edges and opposite sides are read from the cells, which compute
    them once.  The chains are walked with int terminals and bound as the
    graph's rows (`MarkedDualGraph`).
    """
    sub_ = D.subdivision
    emap = sub_.validate_tiling()
    triangles: list[LatticePolygon] = []
    crossings: list[LatticePolygon] = []
    # the terminal of a chain that runs into cell i, its triangle's index or
    # None for a parallelogram, and the parallelogram's opposite sides; the
    # outside of the polygon is cell -1, the last entry, whose terminal is
    # the end, -1
    terminal: list[int | None] = []
    across: list[dict | None] = []
    for c in sub_.cells:
        if len(c.vertices) == 3:
            terminal.append(len(triangles))
            across.append(None)
            triangles.append(c)
        else:
            opposite = c._across
            if opposite is None:
                raise NotSimple("decoded subdivision has a cell that is not simple")
            terminal.append(None)
            across.append(opposite)
            crossings.append(c)
    terminal.append(-1)

    def extend(start: EdgeKey, cell: int, run: list[EdgeKey]) -> int:
        """The terminal reached from edge `start` into `cell`, through the
        parallelograms on the way, whose far sides are appended to run."""
        e = start
        while True:
            t = terminal[cell]
            if t is not None:
                return t
            nxt = across[cell][e]
            if nxt == start or nxt in run:
                raise MalformedSubdivision("cycle of parallelogram crossings")
            run.append(nxt)
            incident = emap[nxt]
            if incident[0] != cell:
                cell = incident[0]
            else:
                cell = incident[1] if len(incident) == 2 else -1
            e = nxt

    rows = []
    assigned: set[EdgeKey] = set()
    slots = [0] * len(triangles)
    for e in sorted(emap):
        incident = emap[e]
        left_cell = incident[0]
        right_cell = incident[1] if len(incident) == 2 else -1
        left, right = terminal[left_cell], terminal[right_cell]
        if left is not None and right is not None:
            edges = (e,)
        elif e in assigned:
            # every edge of a chain that crosses a parallelogram borders one
            continue
        else:
            left_run: list[EdgeKey] = []
            right_run: list[EdgeKey] = []
            left = extend(e, left_cell, left_run)
            right = extend(e, right_cell, right_run)
            edges = (*reversed(left_run), e, *right_run)
            assigned.update(edges)
        rows.append((edges, left, right))
        if left >= 0:
            slots[left] += 1
        if right >= 0:
            slots[right] += 1
    for t, k in enumerate(slots):
        if k != 3:
            raise MalformedSubdivision(f"triangle {t} has {k} chain slots, expected 3")

    marked = []
    for a, b in D.marked_edges:
        key = _edge_key(a, b)
        if key not in emap:
            raise MalformedSubdivision(f"marked step {a}-{b} is not a subdivision edge")
        marked.append(key)
    return MarkedDualGraph._bind(triangles=tuple(triangles), crossings=tuple(crossings),
                                 chains=tuple(rows), marked=tuple(marked))
