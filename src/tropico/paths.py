"""Increasing lattice paths and their curve-counting multiplicities.

A path is a strictly increasing (under a `LinearOrder`) sequence of lattice
points of a convex polygon, from the minimal to the maximal point.  Each path
carries two multiplicities, one per side of the polygon boundary, computed by
a corner-smoothing recursion; their product weights the path's contribution
to the curve count.

The recursion lives in `_Context`: `_moves` holds its base cases, the choice
of the first convex vertex and its two moves (cut off the corner triangle, or
mirror the corner across a parallelogram), and `side_value` runs it memoised
under a triangle step rule.  The parallelogram move always weighs 1.  A rule
takes the two corner steps and their sign classes and gives the weighted
classes of the merged step; the rule here, `_mu_step`, weighs a triangle by
its doubled area and ignores the classes; `real` adds the signed and
Welschinger rules.  `decode` walks the same moves and gathers the
cells, giving the polygon subdivisions dual to the curves a path encodes.

No move cuts or mirrors a corner that lies on alpha, the side's boundary
chain.  P is convex and lies on one side of alpha, so at a path point b on
alpha the path's neighbours a, c, which come before and after b in the
order, lie no farther out than alpha's own edges at b, and the corner
a -> b -> c turns away from the side's region or runs straight.  A move
drops only its corner, so the points where a path meets alpha stay on it
all the way down, and the moves between two of them neither see nor change
anything beyond them.  A chain of moves reaches alpha exactly when its
moves on every stretch between two such points take that stretch to
alpha's, so a side value is the product over the path's excursions away
from alpha, each evaluated as the mask that follows the path there and
alpha everywhere else.

Every count, complex, signed or Welschinger, is a sum over one depth-first
walk, `_Context.walk`, which adds a path's points in order and multiplies
each side's excursions as the path closes them at alpha.  A prefix whose
product is 0 on a side is 0 on every path that extends it, so the walk drops
it with all of them: most paths never get built.

Inside the recursion a path is a mask: with the polygon's lattice points
sorted by the order, bit i is set when the i-th point is on the path.
Cutting the corner at point b is `m ^ (1 << b)`; the mirror point j lies
between the corner's neighbours in the order, so the mirror move is that
cut plus `| (1 << j)`.  The signed rule's step classes are 4-bit nibbles
packed into a second int by point slot: the step that leaves point i has
bits 4i..4i+3.  A cut a -> b -> c merges slots a and b into slot a, a
mirror to j moves b's class to slot a and a's to slot j, and an excursion
from f to g keeps slots f to g - 1, so the classes of one stretch of path
sit in the same bits on every path through it.  Each (rule, side) has its
own memo keyed by the int `mask | classes << n`.  The public functions take
and yield point tuples and convert at the boundary.
"""

from __future__ import annotations

import enum
import itertools
import json
from collections import defaultdict
from collections.abc import Callable, Iterator, Sequence

from .lattice import (
    LatticePoint,
    LatticePolygon,
    LinearOrder,
    _Record,
    add,
    boundary_chains,
    cross,
    extremal_vertices,
    sub,
)

LatticePath = tuple[LatticePoint, ...]


class InvalidGenus(ValueError):
    """Requested genus gives fewer than one path step."""


class MalformedSubdivision(ValueError):
    """Cells fail to tile the ambient polygon edge-to-edge."""


class Side(enum.Enum):
    PLUS = "+"
    MINUS = "-"

    # Members are singletons compared by identity, so the identity hash is
    # valid, and it skips Enum's Python-level __hash__ on every memo lookup.
    __hash__ = object.__hash__

    def __invert__(self) -> "Side":
        return Side.MINUS if self is Side.PLUS else Side.PLUS


# Corner turn sign that makes a path vertex convex for each side: the plus
# region lies on the left of the direction of travel, so left turns
# (positive cross product) bound it convexly, right turns bound the minus
# region.  Locked by the calibration test in tests/test_paths.py.
_TURN = {Side.PLUS: 1, Side.MINUS: -1}


def first_convex_vertex(path: Sequence[LatticePoint], side: Side) -> int | None:
    """Index of the first interior path vertex that is a convex corner of the
    given side's region, or None if the path never turns that way."""
    want = _TURN[side]
    for k in range(1, len(path) - 1):
        turn = cross(sub(path[k], path[k - 1]), sub(path[k + 1], path[k]))
        if turn * want > 0:
            return k
    return None


def _ambient_side(
    P: LatticePolygon, a: LatticePoint, b: LatticePoint
) -> tuple[LatticePoint, LatticePoint] | None:
    """The side (s0, s1) of P that contains the segment a-b between two
    lattice points, or None: the first side both ends lie on."""
    shared = (P.side_bits(a) or 0) & (P.side_bits(b) or 0)
    if not shared:
        return None
    return P._sides[(shared & -shared).bit_length() - 1]


class DualSubdivision(_Record):
    """A set of convex lattice cells tiling an ambient polygon."""

    ambient: LatticePolygon
    cells: tuple[LatticePolygon, ...]

    def __init__(self, ambient: LatticePolygon, cells: tuple[LatticePolygon, ...]):
        self.__dict__.update(ambient=ambient, cells=cells)

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

    def __init__(self, subdivision: DualSubdivision, path: LatticePath,
                 marked_edges: tuple[tuple[LatticePoint, LatticePoint], ...], multiplicity: int):
        self.__dict__.update(subdivision=subdivision, path=path, marked_edges=marked_edges,
                             multiplicity=multiplicity)

    def genus(self) -> int:
        s, _ = self.subdivision.ambient.counts()
        return len(self.path) - 1 - s + 1


class _Context:
    """Per-(polygon, order) cache: the lattice points in order with their
    coordinates and turn signs by index, the boundary chains as masks, one
    recursion memo per (step rule, side), and the decoded cells."""

    def __init__(self, P: LatticePolygon, order: LinearOrder):
        self.p, self.q = extremal_vertices(P, order)
        self.points = sorted(P.lattice_points(), key=order.key)
        self.n = len(self.points)
        self.X = [x for x, _ in self.points]
        self.Y = [y for _, y in self.points]
        self.bit = {pt: 1 << i for i, pt in enumerate(self.points)}
        self.convex = {side: self._convex_rows(want) for side, want in _TURN.items()}
        chains = zip((Side.PLUS, Side.MINUS), boundary_chains(P, order))
        self.alpha = {side: sum(map(self.bit.__getitem__, chain)) for side, chain in chains}
        self.steps = {side: alpha.bit_count() - 1 for side, alpha in self.alpha.items()}
        self._memos: defaultdict[tuple, dict] = defaultdict(dict)
        self._cells: dict[tuple[LatticePoint, ...], LatticePolygon] = {}

    def cell(self, *corners: LatticePoint) -> LatticePolygon:
        """The decoded cell with these corners, one object per distinct cell
        of the context, so the curves that share a cell share its derived
        data too."""
        key = tuple(sorted(corners))
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = LatticePolygon(corners)
        return cell

    def _convex_rows(self, want: int) -> list[list[int]]:
        """rows[a][b] has bit c set, for a < b < c, when the corner
        a -> b -> c turns `want`'s way: the turn signs by index."""
        X, Y, n = self.X, self.Y, self.n
        return [[0] * (a + 1) + [
            sum(1 << c for c in range(b + 1, n)
                if want * ((X[b] - X[a]) * (Y[c] - Y[b]) - (Y[b] - Y[a]) * (X[c] - X[b])) > 0)
            for b in range(a + 1, n)] for a in range(n)]

    def _moves(self, m: int, side: Side, lo: int = 0):
        """One corner-smoothing step below the path mask `m` on the given side.

        Returns a leaf value, 0 (fewer steps than the side's boundary chain,
        or no convex corner) or 1 (the boundary chain itself), or else
        (a, b, u, v, dropped, mirror, lo') for the first convex vertex b and
        its predecessor a on the path, both point indices: the corner steps
        u, v, the path with that corner cut off, and the bit of the mirror
        point a + v across the parallelogram on u, v (None when it leaves
        the polygon).  The scan starts at point `lo`, no earlier vertex
        being convex; both results may start theirs at `lo'`, the corner's
        predecessor's predecessor, since they keep the path up to there.
        """
        if m.bit_count() - 1 < self.steps[side]:
            return 0
        if m == self.alpha[side]:
            return 1
        convex = self.convex[side]
        a = lo
        rest = m >> (lo + 1) << (lo + 1)
        b = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        while rest:
            c_bit = rest & -rest
            if convex[a][b] & c_bit:
                X, Y, c = self.X, self.Y, c_bit.bit_length() - 1
                u, v = (X[b] - X[a], Y[b] - Y[a]), (X[c] - X[b], Y[c] - Y[b])
                below = m & ((1 << b) - 1)
                # p, bit 0, is on every path, so `| 1` keeps lo' at 0 when a is p
                return (a, b, u, v, m ^ (1 << b), self.bit.get((X[a] + v[0], Y[a] + v[1])),
                        ((below ^ (1 << a)) | 1).bit_length() - 1)
            rest ^= c_bit
            a, b = b, c_bit.bit_length() - 1
        return 0

    def side_value(self, rule: Callable, m: int, packed: int, side: Side) -> int:
        """One-sided multiplicity of the path mask `m` under a triangle step
        rule.

        `packed` holds the step sign classes by point slot, the class of
        the step that leaves point i in bits 4i..4i+3, and is 0 for the
        sign-free rules.  `rule(u, v, na, nb)` gives the (weight, class)
        alternatives for cutting off the triangle on the corner steps u, v
        of classes na, nb; the merged step a -> c takes the class in slot a.
        The parallelogram move weighs 1: the mirrored path a -> j -> c
        steps along v, then u, so b's class moves to slot a and a's to
        slot j.
        """
        return self._value(rule, self._memos[rule, side], m, packed, side, 0)

    def _value(self, rule: Callable, memo: dict, m: int, packed: int, side: Side, lo: int) -> int:
        """`side_value` with the scan of `_moves` starting at point `lo`.

        A mask that meets alpha between two points where it differs from
        alpha is the product of its excursions (`_excursions`) and is not
        memoised itself, so the memo holds single excursions only.  The
        product is exact (see the module docstring): no corner on alpha
        ever moves, so the chains of moves of the whole mask that reach
        alpha are exactly the tuples of chains, one per excursion, that each
        reach alpha, and a chain weighs the product of its moves' weights.
        Under the signed rule a move weighs by the classes of its own two
        steps, which lie in its excursion, and alpha weighs 1 whatever its
        classes.
        """
        key = m | packed << self.n
        val = memo.get(key)
        if val is not None:
            return val
        alpha = self.alpha[side]
        diff = m ^ alpha
        # m meets alpha between the lowest and highest points where they differ
        if m & alpha & -(diff & -diff) & ((1 << diff.bit_length()) - 1):
            return self._excursions(rule, memo, m, packed, side)
        step = self._moves(m, side, lo)
        if step.__class__ is int:
            val = step
        else:
            a, b, u, v, dropped, mirror, lo = step
            na, nb = packed >> 4 * a & 15, packed >> 4 * b & 15
            rest = packed ^ na << 4 * a ^ nb << 4 * b
            val = 0
            for w, c in rule(u, v, na, nb):
                val += w * self._value(rule, memo, dropped, rest | c << 4 * a, side, lo)
            if mirror is not None:
                j = mirror.bit_length() - 1
                val += self._value(rule, memo, dropped | mirror, rest | nb << 4 * a | na << 4 * j,
                                   side, lo)
        memo[key] = val
        return val

    def _excursions(self, rule: Callable, memo: dict, m: int, packed: int, side: Side) -> int:
        """The product of the values of m's excursions away from alpha.

        Between two consecutive points f < g where m meets alpha, m and
        alpha run apart over the points strictly between, R.  The
        excursion is the mask that follows m on R and alpha elsewhere,
        with the classes of m's steps from f to g, those in slots f to
        g - 1, and none elsewhere.
        """
        alpha = self.alpha[side]
        touch, diff, val = m & alpha, m ^ alpha, 1
        while diff:
            low = diff & -diff
            f = (touch & (low - 1)).bit_length() - 1
            above = touch & -low
            g = (above & -above).bit_length() - 1
            R = (1 << g) - (2 << f)
            diff &= ~R
            ours = m & R
            classes = packed and packed & ((1 << 4 * g) - (1 << 4 * f))
            got = memo.get(ours | alpha & ~R | classes << self.n)
            val *= self._excursion(rule, memo, ours, R, classes, side, f) if got is None else got
            if not val:
                return 0
        return val

    def _excursion(self, rule: Callable, memo: dict, ours: int, R: int, packed: int,
                   side: Side, f: int) -> int:
        """The value of one excursion that is not in the memo: R holds the
        points strictly between f and the next point where the path meets
        alpha, `ours` the path's points among them, and `packed` the
        classes of the path's steps between the two.  The excursion follows
        `ours` on R and alpha elsewhere, so its memo key, which callers look
        up first to save this call, is `ours | alpha & ~R | packed << n`."""
        alpha = self.alpha[side]
        # fewer steps than alpha's stretch: no chain of moves gets there
        if ours.bit_count() < (alpha & R).bit_count():
            return 0
        # nothing before f is convex: the excursion's scan starts there
        return self._value(rule, memo, ours | alpha & ~R, packed, side, f)

    def walk(self, rule: Callable, n: int, step_class: Callable | None = None,
             lazy: bool = True) -> Iterator[tuple[int, int, int]]:
        """(mask, plus, minus) for the increasing paths with n steps, in
        enumeration order, under a triangle step rule.

        The walk is depth first and adds a path's points in ascending order,
        so paths come out as `itertools.combinations` gives their inner
        points.  `step_class(k, dx, dy)` is the class nibble of step k,
        along (dx, dy), for the signed rule (None for the sign-free ones);
        each prefix carries its steps' classes by point slot.  For each side
        it carries the last point f where the path met alpha and the
        product of the excursions closed so far.  Reaching a point g of
        alpha closes the stretch since f (`_excursion`), with the classes
        in slots f to g - 1.  When `lazy`, a prefix is dropped with every
        path below it once its product on either side is 0, or once it has
        fewer steps left than alpha has after f: each stretch needs at
        least alpha's steps.  So a lazy walk yields exactly the paths whose
        value is nonzero on both sides; otherwise it yields every path.
        """
        q, N, X, Y = self.n - 1, self.n, self.X, self.Y
        alpha_p, alpha_m = self.alpha[Side.PLUS], self.alpha[Side.MINUS]
        memo_p, memo_m = self._memos[rule, Side.PLUS], self._memos[rule, Side.MINUS]
        excursion = self._excursion
        # (last point, steps, mask, classes, then f and product for plus and minus)
        stack = [(0, 0, 1, 0, 0, 1, 0, 1)]
        while stack:
            j, k, m, packed, f_p, v_p, f_m, v_m = stack.pop()
            if j == q:
                yield m, v_p, v_m
                continue
            k += 1
            # children in descending order, so the stack pops them ascending;
            # each leaves room for the n - k - 1 inner points after it, and
            # the last step goes to q, which is on both chains
            for c in range(q - n + k, j, -1) if k < n else (q,):
                bit = 1 << c
                classes = packed
                if step_class:
                    classes |= step_class(k - 1, X[c] - X[j], Y[c] - Y[j]) << 4 * j
                g_p, w_p, g_m, w_m = f_p, v_p, f_m, v_m
                # both sides inline: one stretch helper called from each (787k
                # calls on tri6 g=0) was slower, best of 4 on a 2-vCPU Xeon,
                # tri6 g=0 1.01-1.10 -> 1.18-1.94 s, rect4 g=0 0.37-0.40 -> 0.44-0.58 s
                if alpha_p & bit:
                    R = bit - (2 << f_p)
                    ours = m & R
                    if w_p and (ours or alpha_p & R):
                        ex = classes and classes & ((1 << 4 * c) - (1 << 4 * f_p))
                        x = memo_p.get(ours | alpha_p & ~R | ex << N)
                        w_p *= excursion(rule, memo_p, ours, R, ex, Side.PLUS, f_p) if x is None else x
                    if lazy and (not w_p or n - k < (alpha_p >> c).bit_count() - 1):
                        continue
                    g_p = c
                if alpha_m & bit:
                    R = bit - (2 << f_m)
                    ours = m & R
                    if w_m and (ours or alpha_m & R):
                        ex = classes and classes & ((1 << 4 * c) - (1 << 4 * f_m))
                        x = memo_m.get(ours | alpha_m & ~R | ex << N)
                        w_m *= excursion(rule, memo_m, ours, R, ex, Side.MINUS, f_m) if x is None else x
                    if lazy and (not w_m or n - k < (alpha_m >> c).bit_count() - 1):
                        continue
                    g_m = c
                stack.append((c, k, m | bit, classes, g_p, w_p, g_m, w_m))


def _mu_step(u: LatticePoint, v: LatticePoint, na: int, nb: int):
    """Triangle step rule of mu: the doubled area of the corner triangle."""
    return ((abs(cross(u, v)), 0),)


def _leaves(ctx: _Context, m: int, side: Side) -> tuple[tuple[int, tuple], ...]:
    """All leaves of the recursion below the path mask `m`: (weight, cells)
    pairs."""
    memo = ctx._memos[_leaves, side]
    val = memo.get(m)
    if val is not None:
        return val
    step = ctx._moves(m, side)
    if isinstance(step, int):
        val = ((1, ()),) if step else ()
    else:
        a, b, u, v, dropped, mirror, _ = step
        a, b = ctx.points[a], ctx.points[b]
        c = add(b, v)
        tri = ctx.cell(a, b, c)
        area2 = abs(cross(u, v))
        out = [(w * area2, cells + (tri,)) for w, cells in _leaves(ctx, dropped, side)]
        if mirror is not None:
            par = ctx.cell(a, b, c, add(a, v))
            out += [(w, cells + (par,)) for w, cells in _leaves(ctx, dropped | mirror, side)]
        val = tuple(out)
    memo[m] = val
    return val


# Contexts kept, least recently used evicted first.  `table` alternates the
# default order with one resampled order per genus, so two already keep the
# default-order memos warm across genera.
_CONTEXTS_KEPT = 8
_contexts: dict[tuple, _Context] = {}


def _context(P: LatticePolygon, order: LinearOrder) -> _Context:
    key = (P.vertices, order.primary, order.tiebreak)
    ctx = _contexts.pop(key, None)
    if ctx is None:
        ctx = _Context(P, order)
        if len(_contexts) >= _CONTEXTS_KEPT:
            del _contexts[next(iter(_contexts))]
    _contexts[key] = ctx
    return ctx


def _check_path(ctx: _Context, path: Sequence[LatticePoint]) -> int:
    """The mask of a path, after checking that it is one."""
    pts = tuple(map(tuple, path))
    if len(pts) < 2:
        raise ValueError("a path needs at least one step")
    if pts[0] != ctx.p or pts[-1] != ctx.q:
        raise ValueError(f"path must run from {ctx.p} to {ctx.q}")
    bits = [ctx.bit.get(p) for p in pts]
    if None in bits:
        raise ValueError("path leaves the polygon")
    # bits grow with the order, so the path increases exactly when they do
    if not all(map(int.__lt__, bits, bits[1:])):
        raise ValueError("path is not strictly increasing under the order")
    return sum(bits)


def enumerate_paths(P: LatticePolygon, order: LinearOrder, n: int) -> Iterator[LatticePath]:
    """All increasing paths with n steps from the minimal to the maximal
    lattice point, in a fixed deterministic order."""
    if n < 1:
        raise ValueError("a path needs at least one step")
    ctx = _context(P, order)
    inner = ctx.points[1:-1]
    for mid in itertools.combinations(inner, n - 1):
        yield (ctx.p,) + mid + (ctx.q,)


def mu_side(P: LatticePolygon, order: LinearOrder, path: Sequence[LatticePoint], side: Side) -> int:
    """One-sided multiplicity of a path."""
    ctx = _context(P, order)
    return ctx.side_value(_mu_step, _check_path(ctx, path), 0, side)


def mu(P: LatticePolygon, order: LinearOrder, path: Sequence[LatticePoint]) -> int:
    """Multiplicity of a path: the product of its two one-sided multiplicities."""
    ctx = _context(P, order)
    m = _check_path(ctx, path)
    plus = ctx.side_value(_mu_step, m, 0, Side.PLUS)
    return plus and plus * ctx.side_value(_mu_step, m, 0, Side.MINUS)


def _steps_for_genus(P: LatticePolygon, g: int) -> int:
    """Path length s + g - 1 for genus g, s the boundary lattice point count."""
    s, _ = P.counts()
    n = s + g - 1
    if n < 1:
        raise InvalidGenus(f"genus {g} needs at least one step, got n={n}")
    return n


def _path_sides(
    P: LatticePolygon,
    order: LinearOrder,
    n: int,
    rule: Callable = _mu_step,
    step_class: Callable | None = None,
    lazy: bool = True,
) -> Iterator[tuple[LatticePath, int, int]]:
    """(path, plus, minus) for increasing paths with n steps, in enumeration
    order, under a triangle step rule and, for the signed rule, the class
    of each step: the rows of `_Context.walk`, which when `lazy` are only
    the paths whose value is nonzero on both sides."""
    ctx = _context(P, order)
    points = ctx.points
    for m, plus, minus in ctx.walk(rule, n, step_class, lazy):
        # bin(m)[:1:-1] reads the bits from point 0 up
        yield tuple(itertools.compress(points, map(int, bin(m)[:1:-1]))), plus, minus


def _total(P: LatticePolygon, g: int, order: LinearOrder | None, rule: Callable,
           step_class: Callable | None = None) -> int:
    """The sum of plus * minus under a step rule over the paths of genus g,
    from the masks of the walk."""
    if order is None:
        order = LinearOrder.default()
    walk = _context(P, order).walk(rule, _steps_for_genus(P, g), step_class)
    return sum(plus * minus for _, plus, minus in walk)


def count(P: LatticePolygon, g: int, order: LinearOrder | None = None) -> int:
    """Number of genus-g curves of degree P through a generic point
    configuration, counted with multiplicity: the sum of mu over all paths
    with s + g - 1 steps.  The result does not depend on the order."""
    return _total(P, g, order, _mu_step)


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
    out = []
    for m_plus, cells_plus in _leaves(ctx, m, Side.PLUS):
        for m_minus, cells_minus in _leaves(ctx, m, Side.MINUS):
            sub_ = DualSubdivision(ambient=P, cells=cells_plus + cells_minus)
            out.append(DecodedCurve(sub_, pts, marked, m_plus * m_minus))
    return tuple(out)


def path_to_json(path: LatticePath) -> str:
    return json.dumps({"points": [list(p) for p in path]})
