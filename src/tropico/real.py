"""Signed and Welschinger-type counting of real curves.

Each marked point carries a quadrant sign in Z2 x Z2.  Moving along a curve
edge multiplies coordinates by signs determined by the primitive direction of
the edge, so a sign is only defined up to adding that direction mod 2: signs
live in two-element classes.  Two triangle step rules for the path recursion
of `paths._Memo` refine the multiplicity mu: a signed one
(`_mu_real_step`, weighing a triangle by the `_merge` alternatives for the
classes of its two steps, each leaving the merged class) whose total counts
the real curves among the complex ones, and a sign-free one (`_nu_step`,
weighing a triangle by its Welschinger sign, 0 when a side is even) whose
total is a Welschinger-type invariant.  The curve-level oracle for the
signed rule, `curves.curve_real_multiplicity`, lives with the marked dual
graphs it weighs.

Inside, a sign class is a nibble, a 4-bit mask with bit 2 * r[0] + r[1] set
for each of its two quadrant signs r, and a vector's parity or primitive
parity is the same kind of index.  `_merge` is the one definition of how
two classes meet at a trivalent vertex; the signed rule and the oracle both
call it.  `paths` packs a path's classes into one int, each step's nibble
in the slot of the point it leaves (the walk as it goes, `_side_value` for
the nibbles of one `SignedPath`), so the signed memo key is the int
`mask | packed << N`; the signed rule is one `_merge` of the two corner
nibbles, and the recursion puts the result in its slot.
`real_signed_count` sums over the same walk as the other counts, which
drops every prefix whose signed product is 0.  Frozenset classes appear
only at the public boundary: `sign_class_of`, `SignedPath`, the one fit
test `_fitting_nibble`, which the oracle also calls on its `signs`, and
`_combine`, which calls `_merge` on the nibbles of two frozenset classes.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import lru_cache
from math import gcd

from .lattice import LatticePoint, LatticePolygon, LinearOrder, _Record, cross, sub
from .paths import LatticePath, Side, _side_value, _steps_for_genus, _total

# A sign class: the two quadrant signs from Z2 x Z2 that a curve edge cannot
# tell apart.
SignClass = frozenset

QUADRANTS = ((0, 0), (0, 1), (1, 0), (1, 1))


class ZeroStep(ValueError):
    """A zero vector has no sign class."""


def _index(r: tuple[int, int]) -> int:
    """The index 2 * x + y in QUADRANTS of a quadrant sign, or of the parity
    of a vector."""
    return (r[0] & 1) << 1 | r[1] & 1


def _quadrant_index(r: tuple[int, int]) -> int:
    """The index in QUADRANTS of a quadrant sign given at the public
    boundary; ValueError for anything but one of those four pairs."""
    try:
        return QUADRANTS.index(tuple(r))
    except (ValueError, TypeError):
        raise ValueError(f"quadrant sign {r!r} is not one of {QUADRANTS}") from None


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
    {r, r + primitive(step) mod 2}.  ValueError when r is not one of
    QUADRANTS."""
    if not any(step):
        raise ZeroStep("zero step")
    # r first: a frozenset's repr follows insertion where hashes collide
    t = _quadrant_index(representative)
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
    if not any(step):
        raise ZeroStep("zero step")
    return _FITTING[_primitive_index(step)].get(cls)


@lru_cache(maxsize=None)
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
    one.  Cached: 16 * 16 * 4 * 4 * 4 argument tuples at most, a few
    hundred in practice.
    """
    if pa and pb and pa != pb:
        return ((1, na ^ nb),)
    common = na & nb
    classes = sorted({_class_nibble(t, pm) for t in range(4) if common >> t & 1})
    weight = 2 if pa or pb else 4
    return tuple((weight // len(classes), c) for c in classes)


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
        if len(signs) != len(pts) - 1:
            raise ValueError("need exactly one sign class per path step")
        for j, cls in enumerate(signs):
            if _fitting_nibble(sub(pts[j + 1], pts[j]), cls) is None:
                raise ValueError(f"sign class {set(cls)} does not fit step {j}")
        super().__init__(pts, signs)

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


def _nu_step(p: LatticePoint, u: LatticePoint, v: LatticePoint, na: int, nb: int):
    """Triangle step rule of nu: the Welschinger weight of the corner
    triangle; a triangle of weight 0 leaves no alternative."""
    w = _triangle_welschinger_weight(u, v)
    return ((w, 0),) if w else ()


def _mu_real_step(p: LatticePoint, u: LatticePoint, v: LatticePoint, na: int, nb: int):
    """Triangle step rule of mu_real: the `_merge` alternatives for the
    classes na, nb of the two corner steps."""
    return _merge(na, nb, _index(u), _index(v), _primitive_index((u[0] + v[0], u[1] + v[1])))


def _step_classes(choices: Sequence[tuple[int, int]]) -> Callable[[int, int, int], int]:
    """`step_class(k, dx, dy)` for `paths._Context.walk`: the class nibble
    of step k, along (dx, dy), under one quadrant sign per step."""
    indices = [_quadrant_index(c) for c in choices]

    @lru_cache(maxsize=None)
    def step_class(k: int, dx: int, dy: int) -> int:
        return _class_nibble(indices[k], _primitive_index((dx, dy)))
    return step_class


def mu_real_side(
    P: LatticePolygon, order: LinearOrder, signed: SignedPath, side: Side
) -> int:
    """Signed one-sided multiplicity of a path."""
    return _side_value(P, order, signed.path, _mu_real_step, side, tuple(map(_nibble, signed.signs)))


def mu_real(P: LatticePolygon, order: LinearOrder, signed: SignedPath) -> int:
    """Signed multiplicity: product of the two signed one-sided values."""
    nibbles = tuple(map(_nibble, signed.signs))
    plus = _side_value(P, order, signed.path, _mu_real_step, Side.PLUS, nibbles)
    return plus and plus * _side_value(P, order, signed.path, _mu_real_step, Side.MINUS, nibbles)


def nu_real_side(
    P: LatticePolygon, order: LinearOrder, path: Sequence[LatticePoint], side: Side
) -> int:
    """Welschinger-weighted one-sided multiplicity of a path.  May be
    negative for general polygons."""
    return _side_value(P, order, path, _nu_step, side)


def real_signed_count(
    P: LatticePolygon,
    g: int,
    order: LinearOrder | None,
    signs: Sequence[tuple[int, int]],
) -> int:
    """Number of real curves of genus g through points with the given
    quadrant signs, among the count(P, g) complex ones: the sum of signed
    path multiplicities.  One sign per marked point; the result depends on
    the signs and on the order.  Above the top genus no path has that many
    steps, and the count is 0 whatever the number of signs."""
    n = _steps_for_genus(P, g)
    signs = list(signs)
    if len(signs) != n and n < len(P.lattice_points()):
        raise ValueError(f"need {n} signs, got {len(signs)}")
    return _total(P, g, order, _mu_real_step, _step_classes(signs))


def welschinger_count(P: LatticePolygon, g: int, order: LinearOrder | None = None) -> int:
    """Welschinger-type signed count of real genus-g curves: the sum of
    nu_plus * nu_minus over all paths.  Order-independent in every genus
    (Itenberg-Mikhalkin, IMRN 2013)."""
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
