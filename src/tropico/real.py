"""Signed and Welschinger-type counting of real curves.

Each marked point carries a quadrant sign in Z2 x Z2.  Moving along a curve
edge multiplies coordinates by signs determined by the primitive direction of
the edge, so a sign is only defined up to adding that direction mod 2: signs
live in two-element classes.  Two triangle step rules for the path recursion
of `paths._Context.side_value` refine the multiplicity mu: a signed one
(`_mu_real_step`, weighing a triangle by the `_merge` alternatives for the
classes of its two steps, each leaving the merged class) whose total counts
the real curves among the complex ones, and a sign-free one (`_nu_step`,
weighing a triangle by its Welschinger sign, 0 when a side is even) whose
total is a Welschinger-type invariant.  The oracle for the signed rule,
`curve_real_multiplicity`, weighs one decoded curve on its marked dual
graph instead: cut at the marks, the graph falls into trees with one
boundary end each, and each tree folds from its mark leaves to its end.
The multiplicities of a path's curves sum to its signed multiplicity.

Inside, a sign class is a nibble, a 4-bit mask with bit 2 * r[0] + r[1] set
for each of its two quadrant signs r, and a vector's parity or primitive
parity is the same kind of index.  `_merge` is the one definition of how
two classes meet at a trivalent vertex; the signed rule and the oracle both
call it.  The recursion packs a path's classes into one int, each step's
nibble in the slot of the point it leaves (see `paths`), so the signed memo
key is the int `mask | packed << N`; the signed rule is one `_merge` of the
two corner nibbles, and the recursion puts the result in its slot.
`real_signed_count` sums over the same walk as the other counts, which
drops every prefix whose signed product is 0.  Frozenset classes appear
only at the public boundary: `sign_class_of`, `SignedPath`, the `signs` of
`curve_real_multiplicity`, the one fit test `_fitting_nibble`, and
`_combine`, which calls `_merge` on the nibbles of two frozenset classes.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Mapping, Sequence
from functools import cached_property, lru_cache
from math import gcd

from .lattice import LatticePoint, LatticePolygon, LinearOrder, _Record, cross, sub
from .paths import LatticePath, Side, _check_path, _context, _steps_for_genus, _total

# A sign class: the two quadrant signs from Z2 x Z2 that a curve edge cannot
# tell apart.
SignClass = frozenset

QUADRANTS = ((0, 0), (0, 1), (1, 0), (1, 1))


class ZeroStep(ValueError):
    """A zero vector has no sign class."""


class IncompatibleGraph(ValueError):
    """A marked dual graph component is not a tree with exactly one end."""


def _index(r: tuple[int, int]) -> int:
    """The index 2 * x + y in QUADRANTS of a quadrant sign, or of the parity
    of a vector."""
    return (r[0] & 1) << 1 | r[1] & 1


def _primitive_index(v: LatticePoint) -> int:
    """The parity index of the primitive vector of a nonzero v."""
    x, y = v
    g = gcd(x, y)
    return (x // g & 1) << 1 | y // g & 1


def _class_nibble(t: int, pp: int) -> int:
    """The class {t, t ^ pp} of the quadrant index t modulo the primitive
    parity index pp, as a nibble."""
    return 1 << t | 1 << (t ^ pp)


def _nibble(cls: SignClass) -> int:
    """A sign class as a 4-bit mask: the bit of each quadrant's index in
    QUADRANTS."""
    return sum(1 << _index(r) for r in cls)


def _class_of_nibble(x: int) -> SignClass:
    return frozenset(r for i, r in enumerate(QUADRANTS) if x >> i & 1)


def sign_class_of(step: LatticePoint, representative: tuple[int, int]) -> SignClass:
    """The class of a quadrant sign modulo the primitive vector of the step:
    {r, r + primitive(step) mod 2}."""
    if step == (0, 0):
        raise ZeroStep("zero step")
    # r first: a frozenset's repr follows insertion where hashes collide
    t = _index(representative)
    return frozenset({QUADRANTS[t], QUADRANTS[t ^ _primitive_index(step)]})


# The classes modulo each primitive parity, by its index: the two classes a
# step of that primitive parity can carry, with their nibbles.
_FITTING = {
    pp: {_class_of_nibble(n): n for n in {_class_nibble(t, pp) for t in range(4)}}
    for pp in (1, 2, 3)
}


def _fitting_nibble(step: LatticePoint, cls: SignClass) -> int | None:
    """The nibble of cls when it is a sign class of the step, else None;
    ZeroStep for a zero step, whatever the class."""
    if step == (0, 0):
        raise ZeroStep("zero step")
    return _FITTING[_primitive_index(step)].get(cls)


def _pack(classes, m: int) -> int:
    """Step sign classes packed by point slot: the class of each step of
    the path mask m at bits 4i..4i+3 of the point i the step leaves."""
    slots = (i for i in range(m.bit_length()) if m >> i & 1)
    return sum(_nibble(cls) << 4 * i for cls, i in zip(classes, slots))


# `_merge` results by the one int key its five arguments pack into: 2^14
# keys at most, a few hundred in practice.
_merges: dict[int, tuple[tuple[int, int], ...]] = {}


def _merge(na: int, nb: int, pa: int, pb: int, pm: int) -> tuple[tuple[int, int], ...]:
    """Merge the class nibbles of two edges meeting at a trivalent vertex.

    pa, pb are the parity indices of the two edge vectors and pm the
    primitive parity index of the third one.  Returns the admissible
    (weight, nibble) alternatives for the third edge's class, none when the
    two classes share no sign.  The case split is by the parity of the edge
    weights.  Two odd edges of independent direction share exactly one
    sign, as classes modulo different parities do, and the third class
    holds their other two.  Otherwise each shared sign t admits the third
    class {t, t ^ pm}, and the classes so admitted split a weight of 2
    evenly, or of 4 when both edges are even: an edge of even weight
    doubles the count of real curves whenever its class meets the other
    one.
    """
    key = na | nb << 4 | pa << 8 | pb << 10 | pm << 12
    alts = _merges.get(key)
    if alts is None:
        if pa and pb and pa != pb:
            alts = ((1, na ^ nb),)
        else:
            common = na & nb
            classes = sorted({_class_nibble(t, pm) for t in range(4) if common >> t & 1})
            weight = 2 if pa or pb else 4
            alts = tuple((weight // len(classes), c) for c in classes)
        _merges[key] = alts
    return alts


def _combine(sa: SignClass, va: LatticePoint, sb: SignClass, vb: LatticePoint,
             vm: LatticePoint):
    """`_merge` on frozenset classes: va, vb are the two edge vectors, vm the
    third one (orientations do not matter); a list of (weight, class)."""
    alts = _merge(_nibble(sa), _nibble(sb), _index(va), _index(vb), _primitive_index(vm))
    return [(weight, _class_of_nibble(c)) for weight, c in alts]


class SignedPath(_Record):
    """A lattice path together with one sign class per step."""

    path: LatticePath
    signs: tuple[SignClass, ...]

    def __init__(self, path: Sequence[LatticePoint], signs: Sequence[SignClass]):
        pts = tuple(tuple(p) for p in path)
        signs = tuple(frozenset(s) for s in signs)
        self.__dict__.update(path=pts, signs=signs)
        if len(signs) != len(pts) - 1:
            raise ValueError("need exactly one sign class per path step")
        for j, cls in enumerate(signs):
            if _fitting_nibble(sub(pts[j + 1], pts[j]), cls) is None:
                raise ValueError(f"sign class {set(cls)} does not fit step {j}")

    @classmethod
    def from_choices(
        cls, path: Sequence[LatticePoint], choices: Sequence[tuple[int, int]]
    ) -> "SignedPath":
        pts = tuple(tuple(p) for p in path)
        if len(choices) != len(pts) - 1:
            raise ValueError("need exactly one quadrant sign per path step")
        signs = tuple(
            sign_class_of(sub(pts[j + 1], pts[j]), c) for j, c in enumerate(choices)
        )
        return cls(pts, signs)


def _triangle_welschinger_weight(u: LatticePoint, v: LatticePoint) -> int:
    """0 when the triangle spanned by u, v has an even side, else -1 to the
    number of its interior lattice points."""
    w = (u[0] + v[0], u[1] + v[1])
    if _index(u) == 0 or _index(v) == 0 or _index(w) == 0:
        return 0
    boundary = (
        gcd(abs(u[0]), abs(u[1]))
        + gcd(abs(v[0]), abs(v[1]))
        + gcd(abs(w[0]), abs(w[1]))
    )
    interior = (abs(cross(u, v)) - boundary + 2) // 2
    return -1 if interior & 1 else 1


def _nu_step(u: LatticePoint, v: LatticePoint, na: int, nb: int):
    """Triangle step rule of nu: the Welschinger weight of the corner
    triangle; a triangle of weight 0 leaves no alternative."""
    w = _triangle_welschinger_weight(u, v)
    return ((w, 0),) if w else ()


def _mu_real_step(u: LatticePoint, v: LatticePoint, na: int, nb: int):
    """Triangle step rule of mu_real: the `_merge` alternatives for the
    classes na, nb of the two corner steps."""
    return _merge(na, nb, _index(u), _index(v), _primitive_index((u[0] + v[0], u[1] + v[1])))


def _step_classes(choices: Sequence[tuple[int, int]]) -> Callable[[int, int, int], int]:
    """`step_class(k, dx, dy)` for `paths._Context.walk`: the class nibble
    of step k, along (dx, dy), under one quadrant sign per step."""
    indices = [_index(c) for c in choices]

    @lru_cache(maxsize=None)
    def step_class(k: int, dx: int, dy: int) -> int:
        return _class_nibble(indices[k], _primitive_index((dx, dy)))
    return step_class


def mu_real_side(
    P: LatticePolygon, order: LinearOrder, signed: SignedPath, side: Side
) -> int:
    """Signed one-sided multiplicity of a path."""
    ctx = _context(P, order)
    m = _check_path(ctx, signed.path)
    return ctx.side_value(_mu_real_step, m, _pack(signed.signs, m), side)


def mu_real(P: LatticePolygon, order: LinearOrder, signed: SignedPath) -> int:
    """Signed multiplicity: product of the two signed one-sided values."""
    ctx = _context(P, order)
    m = _check_path(ctx, signed.path)
    packed = _pack(signed.signs, m)
    plus = ctx.side_value(_mu_real_step, m, packed, Side.PLUS)
    return plus and plus * ctx.side_value(_mu_real_step, m, packed, Side.MINUS)


def nu_real_side(
    P: LatticePolygon, order: LinearOrder, path: Sequence[LatticePoint], side: Side
) -> int:
    """Welschinger-weighted one-sided multiplicity of a path.  May be
    negative for general polygons."""
    ctx = _context(P, order)
    return ctx.side_value(_nu_step, _check_path(ctx, path), 0, side)


def real_signed_count(
    P: LatticePolygon,
    g: int,
    order: LinearOrder | None,
    signs: Sequence[tuple[int, int]],
) -> int:
    """Number of real curves of genus g through points with the given
    quadrant signs, among the count(P, g) complex ones: the sum of signed
    path multiplicities.  One sign per marked point; the result depends on
    the signs and on the order."""
    n = _steps_for_genus(P, g)
    signs = list(signs)
    if len(signs) != n:
        raise ValueError(f"need {n} signs, got {len(signs)}")
    return _total(P, g, order, _mu_real_step, _step_classes(signs))


def welschinger_count(P: LatticePolygon, g: int, order: LinearOrder | None = None) -> int:
    """Welschinger-type signed count of real genus-g curves: the sum of
    nu_plus * nu_minus over all paths.  Order-independent for g = 0."""
    return _total(P, g, order, _nu_step)


def vertex_welschinger_sign(T: LatticePolygon) -> int:
    """Sign of a trivalent curve vertex dual to the triangle T: 0 when the
    vertex multiplicity 2*Area(T) is even, else -1 to the ((m-1)/2)."""
    if len(T.vertices) != 3:
        raise ValueError("expected a triangle")
    m = T.double_area()
    if m % 2 == 0:
        return 0
    return -1 if ((m - 1) // 2) & 1 else 1


# -- marked dual graphs -------------------------------------------------------

EdgeKey = tuple[LatticePoint, LatticePoint]
# A chain terminal: ("tri", triangle_index) or ("end",) for a boundary ray.
# Inside, a terminal is an int: the triangle's index, or -1 for the end, and
# a chain is a row (edges, left terminal, right terminal).
Terminal = tuple
Row = tuple[tuple[EdgeKey, ...], int, int]


def _terminal(t: int) -> Terminal:
    return ("tri", t) if t >= 0 else ("end",)


class Chain(_Record):
    """A maximal run of parallel subdivision edges joined through
    parallelogram crossings; dual to one straight piece of curve."""

    edges: tuple[EdgeKey, ...]
    terminals: tuple[Terminal, Terminal]
    weight: int
    direction: LatticePoint

    def __init__(self, edges: tuple[EdgeKey, ...], terminals: tuple[Terminal, Terminal],
                 weight: int, direction: LatticePoint):
        self.__dict__.update(edges=edges, terminals=terminals, weight=weight, direction=direction)


class MarkedDualGraph(_Record):
    """Combinatorial dual of a decoded subdivision: a trivalent node per
    triangle, a crossing per parallelogram, chains of dual edges, one end
    per boundary edge, and the path steps as marked edges.

    Inside, each chain is a row (edges, left, right) with int terminals.
    `marked_dual_graph` keeps the rows and builds the `Chain` records on
    first read of `chains`; a graph built through its constructor keeps the
    chains it is given and derives the rows on first use.  The other form
    is kept in the instance `__dict__` by `cached_property`, as a polygon's
    derived data is, so equality, hash and repr do not change.
    """

    triangles: tuple[LatticePolygon, ...]
    crossings: tuple[LatticePolygon, ...]
    chains: tuple[Chain, ...]
    marked: tuple[EdgeKey, ...]

    def __init__(self, triangles: tuple[LatticePolygon, ...], crossings: tuple[LatticePolygon, ...],
                 chains: tuple[Chain, ...], marked: tuple[EdgeKey, ...]):
        self.__dict__.update(triangles=triangles, crossings=crossings, chains=chains, marked=marked)

    @classmethod
    def _from_rows(cls, triangles: tuple[LatticePolygon, ...],
                   crossings: tuple[LatticePolygon, ...], rows: tuple[Row, ...],
                   marked: tuple[EdgeKey, ...]) -> "MarkedDualGraph":
        """The graph on chain rows that `marked_dual_graph` walked."""
        self = object.__new__(cls)
        self.__dict__.update(triangles=triangles, crossings=crossings, _rows=rows, marked=marked)
        return self

    @cached_property
    def chains(self) -> tuple[Chain, ...]:
        chains = []
        for edges, left, right in self._rows:
            (ax, ay), (bx, by) = edges[0]
            vx, vy = bx - ax, by - ay
            w = gcd(vx, vy)
            chains.append(Chain(edges, (_terminal(left), _terminal(right)), w, (-vy // w, vx // w)))
        return tuple(chains)

    @cached_property
    def _rows(self) -> tuple[Row, ...]:
        return tuple(
            (c.edges, *(t[1] if t[0] == "tri" else -1 for t in c.terminals)) for c in self.chains
        )

    def chain_of(self, edge: EdgeKey) -> int:
        for i, (edges, _, _) in enumerate(self._rows):
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
    on the graph's chain rows: a piece's terminals are ints, a triangle's
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
    pieces, legs, ends = _cut(G._rows, cuts)
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
