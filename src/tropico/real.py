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
`curve_real_multiplicity`, and `_combine`, `_merge` on frozensets.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from functools import lru_cache
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


def _parity(v: LatticePoint) -> tuple[int, int]:
    return (v[0] & 1, v[1] & 1)


def _primitive_parity(v: LatticePoint) -> tuple[int, int]:
    g = gcd(abs(v[0]), abs(v[1]))
    return ((v[0] // g) & 1, (v[1] // g) & 1)


def _xor(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return (a[0] ^ b[0], a[1] ^ b[1])


def _index(r: tuple[int, int]) -> int:
    """The index 2 * x + y in QUADRANTS of a quadrant sign, or of the parity
    of a vector."""
    return (r[0] & 1) << 1 | r[1] & 1


def _primitive_index(v: LatticePoint) -> int:
    return _index(_primitive_parity(v))


def _class_nibble(t: int, pp: int) -> int:
    """The class {t, t ^ pp} of the quadrant index t modulo the primitive
    parity index pp, as a nibble."""
    return 1 << t | 1 << (t ^ pp)


def _nibble(cls: SignClass) -> int:
    """A sign class as a 4-bit mask: the bit of each quadrant's index in
    QUADRANTS."""
    return sum(1 << (2 * r[0] + r[1]) for r in cls)


def _class_of_nibble(x: int) -> SignClass:
    return frozenset(r for i, r in enumerate(QUADRANTS) if x >> i & 1)


def sign_class_of(step: LatticePoint, representative: tuple[int, int]) -> SignClass:
    """The class of a quadrant sign modulo the primitive vector of the step:
    {r, r + primitive(step) mod 2}."""
    if step == (0, 0):
        raise ZeroStep("zero step")
    r = (representative[0] & 1, representative[1] & 1)
    return frozenset({r, _xor(r, _primitive_parity(step))})


def _is_class_of(step: LatticePoint, cls: SignClass) -> bool:
    return bool(cls) and sign_class_of(step, next(iter(cls))) == cls


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
            if not _is_class_of(sub(pts[j + 1], pts[j]), cls):
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
    if _parity(u) == (0, 0) or _parity(v) == (0, 0) or _parity(w) == (0, 0):
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
# A chain terminal: ("tri", triangle_index) or ("end",) for a boundary ray;
# a chain cut at a marked edge e also ends at ("mark", e).
Terminal = tuple


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

    def vector(self) -> LatticePoint:
        return sub(self.edges[0][1], self.edges[0][0])


class MarkedDualGraph(_Record):
    """Combinatorial dual of a decoded subdivision: a trivalent node per
    triangle, a crossing per parallelogram, chains of dual edges, one end
    per boundary edge, and the path steps as marked edges."""

    triangles: tuple[LatticePolygon, ...]
    crossings: tuple[LatticePolygon, ...]
    chains: tuple[Chain, ...]
    marked: tuple[EdgeKey, ...]

    def __init__(self, triangles: tuple[LatticePolygon, ...], crossings: tuple[LatticePolygon, ...],
                 chains: tuple[Chain, ...], marked: tuple[EdgeKey, ...]):
        self.__dict__.update(triangles=triangles, crossings=crossings, chains=chains, marked=marked)

    def chain_of(self, edge: EdgeKey) -> int:
        for i, c in enumerate(self.chains):
            if edge in c.edges:
                return i
        raise KeyError(f"edge {edge} is on no chain")


def _pieces(G: MarkedDualGraph, marked: set) -> list[tuple[Terminal, Terminal, LatticePoint]]:
    """Cut every chain at its marked edges into pieces (terminal, terminal,
    edge vector); the cut at a marked edge e is the terminal ("mark", e) of
    the pieces on either side of it."""
    pieces = []
    for chain in G.chains:
        stops = [chain.terminals[0], *(("mark", e) for e in chain.edges if e in marked),
                 chain.terminals[1]]
        pieces += [(a, b, chain.vector()) for a, b in zip(stops, stops[1:])]
    return pieces


def _far(piece: tuple[Terminal, Terminal, LatticePoint], near: Terminal) -> Terminal:
    """The terminal of a piece at the other side from near."""
    return piece[1] if piece[0] == near else piece[0]


def curve_real_multiplicity(G: MarkedDualGraph, signs: Mapping[EdgeKey, SignClass]) -> int:
    """Signed multiplicity of one marked curve.

    The chains cut at their marks must form trees with exactly one boundary
    end each.  Rooted at its end, every triangle of a tree has two legs
    below it, so the tree folds from its mark leaves up: a leg carries a
    distribution {class nibble: weight}, a mark leaf its own class with
    weight 1, and the legs below a triangle merge by `_merge` into the leg
    above.  The weights reaching the end sum to the tree's multiplicity;
    the curve's is the product over its trees.
    """
    marked = set(G.marked)
    if set(signs) != marked:
        raise ValueError("need a sign class for exactly the marked edges")
    for e, cls in signs.items():
        if not _is_class_of(sub(e[1], e[0]), frozenset(cls)):
            raise ValueError(f"sign class {set(cls)} does not fit edge {e}")
    nibbles = {e: _nibble(cls) for e, cls in signs.items()}
    pieces = _pieces(G, marked)
    legs: dict[int, list[int]] = {}
    for i, (a, b, _) in enumerate(pieces):
        for t in (a, b):
            if t[0] == "tri":
                legs.setdefault(t[1], []).append(i)
    seen: set[int] = set()

    def fold(i: int, far: Terminal) -> dict[int, int]:
        """The class distribution carried up piece i from its far terminal."""
        if far[0] == "mark":
            return {nibbles[far[1]]: 1}
        if far[0] == "end":
            raise IncompatibleGraph("component has 2 ends, expected exactly 1")
        below = list(legs[far[1]])
        below.remove(i)
        if len(below) != 2:
            raise IncompatibleGraph("trivalent node without exactly three legs")
        if seen.intersection(below):
            raise IncompatibleGraph("component is not a tree")
        seen.update(below)
        ja, jb = below
        da = fold(ja, _far(pieces[ja], far))
        db = fold(jb, _far(pieces[jb], far))
        pa, pb = _index(pieces[ja][2]), _index(pieces[jb][2])
        pm = _primitive_index(pieces[i][2])
        out: dict[int, int] = {}
        for ca, wa in da.items():
            for cb, wb in db.items():
                for w, c in _merge(ca, cb, pa, pb, pm):
                    out[c] = out.get(c, 0) + wa * wb * w
        return out

    total = 1
    for i, piece in enumerate(pieces):
        if ("end",) in piece[:2]:
            seen.add(i)
            total *= sum(fold(i, _far(piece, ("end",))).values())
    if len(seen) != len(pieces):
        raise IncompatibleGraph("component has 0 ends, expected exactly 1")
    return total
