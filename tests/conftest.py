"""Shared helpers: random concave coefficient draws, a floating grid
oracle that samples the plane and checks every near-tie of the max against
the reported curve, the irreducible splits of curve counts on the plane and
on the quadric, the Severi degrees of the plane by the Caporaso-Harris
recursion, and a reference for the leaves that `decode` reads."""

import itertools
import math
from fractions import Fraction
from functools import cache
from math import comb, lcm, prod

import numpy as np

from tropico.curves import TropicalPolynomial
from tropico import paths
from tropico.lattice import LatticePolygon, LinearOrder, grid_rectangle, standard_triangle
from tropico.paths import InvalidGenus


def random_concave(P, rng):
    """Strictly concave heights plus a small perturbation: the quadratic gap
    between neighbors exceeds the perturbation spread, so cell structure
    stays generic but never degenerate by accident."""
    return TropicalPolynomial(
        {
            j: Fraction(-(3 * j[0] ** 2 + 3 * j[1] ** 2 + j[0] * j[1]), 8)
            + Fraction(rng.randint(0, 15), 32)
            for j in P.lattice_points()
        }
    )


def random_order(rng):
    """An order with independent rows, so injective on all of Z^2."""
    while True:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if a * d - b * c:
            return LinearOrder((a, b), (c, d))


def grid_tie_points(f, C, pitch_den=64):
    """All grid points (pitch 1/pitch_den) where two or more terms of f tie
    for the maximum, computed in exact integer arithmetic."""
    terms = list(f.terms.items())
    L = lcm(*(a.denominator for _, a in terms))
    xs = [float(x) for x, _ in C.vertices]
    ys = [float(y) for _, y in C.vertices]
    x0, x1 = math.floor(min(xs)) - 2, math.ceil(max(xs)) + 2
    y0, y1 = math.floor(min(ys)) - 2, math.ceil(max(ys)) + 2
    gx = np.arange(x0 * pitch_den, x1 * pitch_den + 1, dtype=np.int64)
    gy = np.arange(y0 * pitch_den, y1 * pitch_den + 1, dtype=np.int64)
    GX, GY = np.meshgrid(gx, gy, indexing="ij")
    vals = np.empty((len(terms),) + GX.shape, dtype=np.int64)
    for t, (j, a) in enumerate(terms):
        vals[t] = j[0] * GX * L + j[1] * GY * L + int(a * L) * pitch_den
    top = vals.max(axis=0)
    ties = (vals == top).sum(axis=0)
    corner = ties >= 2
    return np.stack([GX[corner], GY[corner]], axis=1) / pitch_den


def all_near_curve(pts, C, tol):
    """True when every point lies within tol of some edge or ray of C."""
    ok = np.zeros(len(pts), dtype=bool)
    for a, b, w, d in C.bounded_edges:
        pa = np.array([float(C.vertices[a][0]), float(C.vertices[a][1])])
        pb = np.array([float(C.vertices[b][0]), float(C.vertices[b][1])])
        dv = pb - pa
        t = np.clip(((pts - pa) @ dv) / (dv @ dv), 0.0, 1.0)
        ok |= np.hypot(*(pts - (pa + t[:, None] * dv)).T) <= tol
    for v, d, w in C.rays:
        pa = np.array([float(C.vertices[v][0]), float(C.vertices[v][1])])
        dv = np.array(d, dtype=float)
        t = np.maximum(((pts - pa) @ dv) / (dv @ dv), 0.0)
        ok |= np.hypot(*(pts - (pa + t[:, None] * dv)).T) <= tol
    return bool(ok.all())


def run_grid_oracle(f, C, pitch_den=64):
    pts = grid_tie_points(f, C, pitch_den)
    assert len(pts) > 0
    assert all_near_curve(pts, C, 1 / pitch_den + 1e-9)


@cache
def irreducible_split(total):
    """N_irr(d, g): the irreducible part of a count of plane curves of
    degree d and genus g, `total(standard_triangle(d), g)`, such as `count`
    or `welschinger_count`.

    A curve through n = 3d + g - 1 generic points is a union of irreducible
    components.  Fixing the one through the first point, of degree k and
    genus g1 through n1 = 3k + g1 - 1 of the points, splits the count:

        N(d, g) = sum over k = 1..d, g1 = 0..(k-1)(k-2)/2 of
                  C(n - 1, n1 - 1) * N_irr(k, g1) * N(d - k, g - g1 + 1),

    where N(0, g') is 1 when g' = 1 and 0 otherwise, and a genus that gives
    n < 1 (`InvalidGenus`) counts 0.  Of the k = d terms only g1 = g is
    nonzero, and it is N_irr(d, g) itself.
    """
    @cache
    def whole(d, g):
        if d == 0:
            return int(g == 1)
        try:
            return total(standard_triangle(d), g)
        except InvalidGenus:
            return 0

    @cache
    def irreducible(d, g):
        n = 3 * d + g - 1
        return whole(d, g) - sum(
            comb(n - 1, 3 * k + g1 - 2) * irreducible(k, g1) * whole(d - k, g - g1 + 1)
            for k in range(1, d)
            for g1 in range((k - 1) * (k - 2) // 2 + 1)
        )
    return irreducible


@cache
def quadric_irreducible_split(total):
    """N_irr(a, b, g): the irreducible part of a count of curves of bidegree
    (a, b) and genus g on the quadric P1 x P1, `total(grid_rectangle(a, b),
    g)`, split as `irreducible_split` splits the plane's.

    A curve through n = 2a + 2b + g - 1 generic points has a component
    through the first point, of bidegree (a1, b1) and genus g1 through
    n1 = 2a1 + 2b1 + g1 - 1 of the points:

        N(a, b, g) = sum over 0 <= a1 <= a, 0 <= b1 <= b, (a1, b1) other
                     than (0, 0), and g1 = 0..(a1-1)(b1-1) of
                     C(n - 1, n1 - 1) * N_irr(a1, b1, g1) * N(a - a1, b - b1, g - g1 + 1).

    A bidegree (a, 0) or (0, b) is a union of fibres, each a line through
    one point: N counts it 1 in genus 1 - a - b and 0 otherwise, and its
    only component genus is g1 = 0.  Of the (a, b) terms only g1 = g is
    nonzero, and it is N_irr(a, b, g) itself.
    """
    @cache
    def whole(a, b, g):
        if a == 0 or b == 0:
            return int(g == 1 - a - b)
        try:
            return total(grid_rectangle(a, b), g)
        except InvalidGenus:
            return 0

    @cache
    def irreducible(a, b, g):
        n = 2 * a + 2 * b + g - 1
        return whole(a, b, g) - sum(
            comb(n - 1, 2 * a1 + 2 * b1 + g1 - 2) * irreducible(a1, b1, g1)
            * whole(a - a1, b - b1, g - g1 + 1)
            for a1 in range(a + 1)
            for b1 in range(b + 1)
            if 0 < a1 + b1 < a + b
            for g1 in range(max(a1 - 1, 0) * max(b1 - 1, 0) + 1)
        )
    return irreducible


def _contacts(budget, k, top):
    """Every tuple (b_k, ..., b_top) of counts >= 0 with sum j * b_j equal
    to `budget`: the contact orders of tangencies that use it up."""
    if k > top:
        if budget == 0:
            yield ()
        return
    for b in range(budget // k + 1):
        for rest in _contacts(budget - b * k, k + 1, top):
            yield (b,) + rest


@cache
def _caporaso_harris(d, delta, alpha, beta):
    """N^{d,delta}(alpha, beta) of Caporaso and Harris: the number of plane
    curves of degree d with delta nodes, reducible ones included, with
    alpha[k-1] contacts of order k with a fixed line L at fixed points of L
    and beta[k-1] at free ones, through 2d + g - 1 + |beta| general points,
    g = (d-1)(d-2)/2 - delta.  Both tuples have length d and I alpha +
    I beta = d, where I a = sum k a_k and |a| = sum a_k.

    Moving one of the points onto L fixes a free contact of order k, in k
    ways, or splits off L, leaving a curve of degree d - 1 that meets L at
    alpha' <= alpha of the fixed points and at beta' >= beta free ones:

        N^{d,delta}(alpha, beta) = sum over beta_k > 0 of
                                   k N^{d,delta}(alpha + e_k, beta - e_k)
            + sum of I^(beta' - beta) C(alpha, alpha') C(beta', beta)
                     N^{d-1,delta'}(alpha', beta')

    over I alpha' + I beta' = d - 1 and delta' = delta - (d - 1) +
    |beta' - beta|, with I^a = prod k^a_k and C(a, b) = prod C(a_k, b_k).
    The empty curve, N^{0,0}, is 1.  beta' - beta runs over the contacts
    that use up what alpha' and beta leave of d - 1.
    """
    if delta < 0:
        return 0
    if d == 0:
        return int(delta == 0)
    total = 0
    for k, b in enumerate(beta, 1):
        if b:
            moved = tuple(a + (j == k) for j, a in enumerate(alpha, 1))
            total += k * _caporaso_harris(d, delta, moved, beta[:k - 1] + (b - 1,) + beta[k:])
    left = d - 1 - sum(k * b for k, b in enumerate(beta, 1))
    for kept in itertools.product(*(range(a + 1) for a in alpha)):
        budget = left - sum(k * a for k, a in enumerate(kept, 1))
        if budget < 0:
            continue
        ways = prod(comb(a, b) for a, b in zip(alpha, kept))
        for extra in _contacts(budget, 1, d - 1):
            grown = tuple(b + e for b, e in zip(beta, extra))
            weight = ways * prod(k ** e * comb(b, e) for k, (b, e) in enumerate(zip(grown, extra), 1))
            total += weight * _caporaso_harris(
                d - 1, delta - (d - 1) + sum(extra), kept[:d - 1], grown)
    return total


def severi(d, delta):
    """N^{d,delta}: the number of plane curves of degree d with delta nodes,
    reducible ones included, through 3d + g - 1 general points, g =
    (d-1)(d-2)/2 - delta, by the recursion of Caporaso and Harris
    ("Counting plane curves of any genus", Invent. Math. 1998): the curves
    meet a line in d free points, N^{d,delta}(0, d e_1)."""
    return _caporaso_harris(d, delta, (0,) * d, (d,) + (0,) * (d - 1))


def reference_leaves(P, order, side):
    """The leaves of one side's corner-smoothing recursion as a function of
    the path mask: (weight, cells) pairs, in the order `decode` gives them.
    The recursion runs on the whole mask, never splitting it into
    excursions, over `_Corners.moves` with a memo of its own: the first
    convex corner's triangle is cut off, weighing its doubled area and
    appended to the cells below it, then the corner is mirrored across the
    parallelogram, which weighs 1 and is appended the same way."""
    ctx = paths._context(P, order)
    corners = ctx.corners[side]
    cell = cache(lambda *vertices: LatticePolygon(vertices))

    @cache
    def leaves(m):
        # fewer steps than alpha: no chain of moves gets there
        step = corners.moves(m) if m.bit_count() > corners.steps else 0
        if isinstance(step, int):
            return ((1, ()),) if step else ()
        a, b, u, v, dropped, mirror = step
        a, b = ctx.points[a], ctx.points[b]
        c = (b[0] + v[0], b[1] + v[1])
        tri = cell(a, b, c)
        area2 = abs(u[0] * v[1] - u[1] * v[0])
        out = [(w * area2, cells + (tri,)) for w, cells in leaves(dropped)]
        if mirror is not None:
            par = cell(a, b, c, (a[0] + v[0], a[1] + v[1]))
            out += [(w, cells + (par,)) for w, cells in leaves(dropped | mirror)]
        return tuple(out)
    return leaves
