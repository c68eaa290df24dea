"""Increasing lattice paths and their curve-counting multiplicities.

A path is a strictly increasing (under a `LinearOrder`) sequence of lattice
points of a convex polygon, from the minimal to the maximal point.  Each path
carries two multiplicities, one per side of the polygon boundary, computed by
a corner-smoothing recursion; their product weights the path's contribution
to the curve count.

`_Corners.moves` holds the recursion's base cases, the choice of the first
convex vertex and its two moves (cut off the corner triangle, or mirror the
corner across a parallelogram).  `_Memo`, one dict per (triangle step rule,
side), runs it: a missing key evaluates itself and looks its children up in
the same dict.  A rule takes the corner and its steps' sign classes and
gives the weighted classes of the merged step, and may weigh the
parallelogram move, which otherwise weighs 1.  The rule here, `_mu_step`,
weighs a triangle by its doubled area; `real` adds the signed and
Welschinger rules.  `curves.decode` runs the memo on a rule whose values
are `curves._Leaves`, the recursion's leaves with their cells.

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
sit in the same bits on every path through it.  A memo's key is the int
`mask | classes << n`.  The public functions take and yield point tuples:
the per-path values, here and in `real`, go through `_side_value`, which
checks the path, packs each step's nibble in the slot of the point it
leaves and reads the side's memo; the walk packs as it adds points.
"""

from __future__ import annotations

import enum
import itertools
import json
from collections.abc import Callable, Iterator, Sequence
from functools import lru_cache

from .lattice import (
    LatticePoint,
    LatticePolygon,
    LinearOrder,
    _coordinate,
    boundary_chains,
    cross,
    sub,
)

LatticePath = tuple[LatticePoint, ...]


class InvalidGenus(ValueError):
    """Requested genus gives fewer than one path step."""


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


class _Corners:
    """What one side's moves read: its boundary chain alpha as a mask and
    alpha's step count, the points' coordinates and bits by index, and the
    corners convex for the side.  A memo holds this, never its context: a
    memo that referred back would make a cycle, and an evicted context
    would wait for the cyclic collector."""

    __slots__ = ("alpha", "steps", "X", "Y", "bit", "convex")

    def __init__(self, alpha: int, X: list[int], Y: list[int], bit: dict, want: int):
        n = len(X)
        self.alpha, self.steps, self.X, self.Y, self.bit = alpha, alpha.bit_count() - 1, X, Y, bit
        # convex[a][b] has bit c set, for a < b < c, when the corner
        # a -> b -> c turns `want`'s way
        self.convex = [[0] * (a + 1) + [
            sum(1 << c for c in range(b + 1, n)
                if want * ((X[b] - X[a]) * (Y[c] - Y[b]) - (Y[b] - Y[a]) * (X[c] - X[b])) > 0)
            for b in range(a + 1, n)] for a in range(n)]

    def moves(self, m: int):
        """One corner-smoothing step below the path mask `m`.

        `m` has at least alpha's steps.  Returns a leaf value, 0 (no convex
        corner) or 1 (alpha itself), or else (a, b, u, v, dropped, mirror)
        for the first convex vertex b and its predecessor a on the path,
        both point indices: the corner steps u, v, the path with that
        corner cut off, and the bit of the mirror point a + v across the
        parallelogram on u, v (None when it leaves the polygon).  No corner
        on alpha is convex and m follows alpha below the first point where
        they differ, so the scan starts at the last path point before it.
        """
        alpha = self.alpha
        if m == alpha:
            return 1
        convex, diff = self.convex, m ^ alpha
        a = (m & ((diff & -diff) - 1)).bit_length() - 1
        rest = m >> (a + 1) << (a + 1)
        b = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        while rest:
            c_bit = rest & -rest
            if convex[a][b] & c_bit:
                X, Y, c = self.X, self.Y, c_bit.bit_length() - 1
                u, v = (X[b] - X[a], Y[b] - Y[a]), (X[c] - X[b], Y[c] - Y[b])
                return a, b, u, v, m ^ (1 << b), self.bit.get((X[a] + v[0], Y[a] + v[1]))
            rest ^= c_bit
            a, b = b, c_bit.bit_length() - 1
        return 0


class _Memo(dict):
    """The memo of one side under one triangle step rule, and the recursion
    too: a missing key `m | packed << n` evaluates itself to the one-sided
    value of the path mask `m`, an int, or `curves._Leaves` when decoding,
    looking the masks it needs up in the same dict.  `packed` holds the step
    sign classes, the class of the step that leaves point i in bits
    4i..4i+3, and is 0 for the sign-free rules.  `rule(p, u, v, na, nb)`
    gives the (weight, class) alternatives for cutting off the triangle at
    a = p on the corner steps u, v of classes na, nb; the merged step a -> c
    takes the class in slot a.  The mirrored path a -> j -> c weighs
    `rule.parallelogram(p, u, v)`, or 1 when the rule has none; it steps
    along v, then u, so b's class moves to slot a and a's to slot j.

    A mask that meets alpha between two points where it differs from alpha
    is the product of its excursions.  Between two consecutive points
    f < g where the mask meets alpha, the two run apart over the points
    strictly between, R, and the excursion follows the mask on R and alpha
    elsewhere, with the classes in slots f to g - 1 and none elsewhere.
    The product is exact (see the module docstring): no corner on alpha
    ever moves, so the chains of moves of the whole mask that reach alpha
    are exactly the tuples of chains, one per excursion, that each reach
    alpha, and a chain weighs the product of its moves' weights.  Under
    the signed rule a move weighs by the classes of its own two steps,
    which lie in its excursion, and alpha weighs 1 whatever its classes.
    The product is not stored, nor is the 0 of a mask with fewer steps
    than alpha, so the memo holds single excursions only.
    """

    __slots__ = ("rule", "parallelogram", "corners", "n")

    def __init__(self, rule: Callable, corners: _Corners, n: int):
        self.rule, self.parallelogram = rule, getattr(rule, "parallelogram", None)
        self.corners, self.n = corners, n

    def __missing__(self, key: int) -> int:
        n, corners = self.n, self.corners
        m, packed = key & ((1 << n) - 1), key >> n
        # fewer steps than alpha: no chain of moves gets there
        if m.bit_count() <= corners.steps:
            return 0
        alpha = corners.alpha
        diff = m ^ alpha
        # m meets alpha between the lowest and highest points where they differ
        if m & alpha & -(diff & -diff) & ((1 << diff.bit_length()) - 1):
            touch, val = m & alpha, 1
            while diff:
                low = diff & -diff
                f = (touch & (low - 1)).bit_length() - 1
                above = touch & -low
                g = (above & -above).bit_length() - 1
                R = (1 << g) - (2 << f)
                diff &= ~R
                classes = packed and packed & ((1 << 4 * g) - (1 << 4 * f))
                val *= self[m & R | alpha & ~R | classes << n]
                if not val:
                    return 0
            return val
        step = corners.moves(m)
        if step.__class__ is int:
            val = step
        else:
            a, b, u, v, dropped, mirror = step
            p = corners.X[a], corners.Y[a]
            na, nb = packed >> 4 * a & 15, packed >> 4 * b & 15
            rest = packed ^ na << 4 * a ^ nb << 4 * b
            val = 0
            for w, c in self.rule(p, u, v, na, nb):
                val += w * self[dropped | (rest | c << 4 * a) << n]
            if mirror is not None:
                j = mirror.bit_length() - 1
                below = self[dropped | mirror | (rest | nb << 4 * a | na << 4 * j) << n]
                val += below if self.parallelogram is None else self.parallelogram(p, u, v) * below
        self[key] = val
        return val


class _Context:
    """Per-(polygon, order) cache: the lattice points in order with their
    coordinates by index, each side's corners, which hold its boundary
    chain, and one recursion memo per (step rule, side)."""

    def __init__(self, P: LatticePolygon, order: LinearOrder):
        # raises NonInjectiveOrder first; both chains run from p to q
        plus, minus = boundary_chains(P, order)
        self.p, self.q = plus[0], plus[-1]
        self.points = sorted(P.lattice_points(), key=order.key)
        self.n = len(self.points)
        self.X = [x for x, _ in self.points]
        self.Y = [y for _, y in self.points]
        self.bit = {pt: 1 << i for i, pt in enumerate(self.points)}
        self.corners = {side: _Corners(sum(map(self.bit.__getitem__, chain)), self.X, self.Y,
                                       self.bit, _TURN[side])
                        for side, chain in ((Side.PLUS, plus), (Side.MINUS, minus))}
        self._memos: dict[tuple, _Memo] = {}

    def memo(self, rule: Callable, side: Side) -> _Memo:
        """The memo of a triangle step rule on one side, made on first use."""
        memo = self._memos.get((rule, side))
        if memo is None:
            memo = self._memos[rule, side] = _Memo(rule, self.corners[side], self.n)
        return memo

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
        alpha closes the stretch since f: the excursion that follows the
        path there and alpha elsewhere, with the classes in slots f to
        g - 1, looked up in the side's memo.  When `lazy`, a prefix is
        dropped with every path below it once its product on either side is
        0, or once it has fewer steps left than alpha has after f: each
        stretch needs at least alpha's steps.  So a lazy walk yields exactly
        the paths whose value is nonzero on both sides; otherwise it yields
        every path.
        """
        q, N, X, Y = self.n - 1, self.n, self.X, self.Y
        alpha_p, alpha_m = self.corners[Side.PLUS].alpha, self.corners[Side.MINUS].alpha
        memo_p, memo_m = self.memo(rule, Side.PLUS), self.memo(rule, Side.MINUS)
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
                        w_p *= memo_p[ours | alpha_p & ~R | ex << N]
                    if lazy and (not w_p or n - k < (alpha_p >> c).bit_count() - 1):
                        continue
                    g_p = c
                if alpha_m & bit:
                    R = bit - (2 << f_m)
                    ours = m & R
                    if w_m and (ours or alpha_m & R):
                        ex = classes and classes & ((1 << 4 * c) - (1 << 4 * f_m))
                        w_m *= memo_m[ours | alpha_m & ~R | ex << N]
                    if lazy and (not w_m or n - k < (alpha_m >> c).bit_count() - 1):
                        continue
                    g_m = c
                stack.append((c, k, m | bit, classes, g_p, w_p, g_m, w_m))


def _mu_step(p: LatticePoint, u: LatticePoint, v: LatticePoint, na: int, nb: int):
    """Triangle step rule of mu: the doubled area of the corner triangle."""
    return ((abs(cross(u, v)), 0),)


# Contexts kept, least recently used evicted first.  `table` alternates the
# default order with one resampled order per genus, so two already keep the
# default-order memos warm across genera.  Polygons and orders are records,
# equal and hashed by their fields, so an equal pair built anew finds its
# context.
_CONTEXTS_KEPT = 2
_context = lru_cache(maxsize=_CONTEXTS_KEPT)(_Context)


def _check_path(ctx: _Context, path: Sequence[LatticePoint]) -> int:
    """The mask of a path, after checking that it is one.  A float or bool
    coordinate is refused with TypeError, as `lattice._coordinate` does."""
    pts = tuple(map(tuple, path))
    if {*map(type, itertools.chain.from_iterable(pts))} - {int}:
        for value in itertools.chain.from_iterable(pts):
            _coordinate(value)
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


def _side_value(P: LatticePolygon, order: LinearOrder, path: Sequence[LatticePoint],
                rule: Callable, side: Side, nibbles: Sequence[int] = ()) -> int:
    """One-sided value of a path under a triangle step rule: the side's
    memo read at the path's mask, with the class nibble of each step, for
    the signed rule, packed in the slot of the point the step leaves."""
    ctx = _context(P, order)
    m = _check_path(ctx, path)
    if nibbles:
        slots = (i for i in range(ctx.n) if m >> i & 1)
        m |= sum(nibble << 4 * i for nibble, i in zip(nibbles, slots)) << ctx.n
    return ctx.memo(rule, side)[m]


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
    return _side_value(P, order, path, _mu_step, side)


def mu(P: LatticePolygon, order: LinearOrder, path: Sequence[LatticePoint]) -> int:
    """Multiplicity of a path: the product of its two one-sided multiplicities."""
    plus = _side_value(P, order, path, _mu_step, Side.PLUS)
    return plus and plus * _side_value(P, order, path, _mu_step, Side.MINUS)


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


def path_to_json(path: LatticePath) -> str:
    return json.dumps({"points": [list(p) for p in path]})
