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
total is a Welschinger-type invariant.  A separate recursion on the marked
dual graph of a single decoded curve reproduces the per-path signed
multiplicity and serves as an oracle.

Inside, a sign class is a nibble, a 4-bit mask with bit 2 * r[0] + r[1] set
for each of its two quadrant signs r, and a vector's parity or primitive
parity is the same kind of index.  `_merge` is the one definition of how
two classes meet at a trivalent vertex; the signed rule and the oracle both
call it.  The recursion packs a path's classes 4 bits per step into one
int, so the signed memo key is the int `mask | packed << N`; cutting a
corner merges the two steps' nibbles into one, mirroring it swaps them.
`real_signed_count` runs the signed rule only where mu is nonzero on both
sides, which is exact (see `paths._path_sides`).  Frozenset classes appear
only at the public boundary: `sign_class_of`, `SignedPath`, the `signs` of
`curve_real_multiplicity`, and `_combine`, `_merge` on frozensets.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable, Mapping, Sequence

from .lattice import LatticePoint, LatticePolygon, LinearOrder, cross, sub
from .paths import LatticePath, Side, _check_path, _context, _path_sides, _steps_for_genus

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


def _pack(classes) -> int:
    """Step sign classes packed 4 bits per step, step j at bits 4j..4j+3."""
    return sum(_nibble(cls) << (4 * j) for j, cls in enumerate(classes))


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


@dataclass(frozen=True)
class SignedPath:
    """A lattice path together with one sign class per step."""

    path: LatticePath
    signs: tuple[SignClass, ...]

    def __post_init__(self):
        pts = tuple(tuple(p) for p in self.path)
        signs = tuple(frozenset(s) for s in self.signs)
        object.__setattr__(self, "path", pts)
        object.__setattr__(self, "signs", signs)
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


def _nu_step(u: LatticePoint, v: LatticePoint, packed: int, k: int):
    """Triangle step rule of nu: the Welschinger weight of the corner
    triangle; a triangle of weight 0 leaves no alternative."""
    w = _triangle_welschinger_weight(u, v)
    return ((w, 0),) if w else ()


def _mu_real_step(u: LatticePoint, v: LatticePoint, packed: int, k: int):
    """Triangle step rule of mu_real: the `_merge` alternatives for the
    classes of the two corner steps, each with its merged class in their
    two nibbles' place."""
    s = 4 * (k - 1)
    alts = _merge(packed >> s & 15, packed >> (s + 4) & 15, _index(u), _index(v),
                  _primitive_index((u[0] + v[0], u[1] + v[1])))
    low = packed & ((1 << s) - 1)
    high = packed >> (s + 8) << (s + 4)
    return [(weight, low | c << s | high) for weight, c in alts]


def _step_classes(choices: Sequence[tuple[int, int]]) -> Callable[[LatticePath], int]:
    """Map a path to the packed sign classes of its steps under one
    quadrant sign per step."""
    indices = [_index(c) for c in choices]

    def signs_of(pts: LatticePath) -> int:
        return sum(_class_nibble(t, _primitive_index(sub(b, a))) << (4 * j)
                   for j, (a, b, t) in enumerate(zip(pts, pts[1:], indices)))
    return signs_of


def mu_real_side(
    P: LatticePolygon, order: LinearOrder, signed: SignedPath, side: Side
) -> int:
    """Signed one-sided multiplicity of a path."""
    ctx = _context(P, order)
    m = _check_path(ctx, signed.path)
    return ctx.side_value(_mu_real_step, m, _pack(signed.signs), side)


def mu_real(P: LatticePolygon, order: LinearOrder, signed: SignedPath) -> int:
    """Signed multiplicity: product of the two signed one-sided values."""
    ctx = _context(P, order)
    m = _check_path(ctx, signed.path)
    packed = _pack(signed.signs)
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
    if order is None:
        order = LinearOrder.default()
    n = _steps_for_genus(P, g)
    choices = [(c[0] & 1, c[1] & 1) for c in signs]
    if len(choices) != n:
        raise ValueError(f"need {n} signs, got {len(choices)}")
    rows = _path_sides(P, order, n, _mu_real_step, _step_classes(choices))
    return sum(plus * minus for _, plus, minus in rows)


def welschinger_count(P: LatticePolygon, g: int, order: LinearOrder | None = None) -> int:
    """Welschinger-type signed count of real genus-g curves: the sum of
    nu_plus * nu_minus over all paths.  Order-independent for g = 0."""
    if order is None:
        order = LinearOrder.default()
    rows = _path_sides(P, order, _steps_for_genus(P, g), _nu_step)
    return sum(plus * minus for _, plus, minus in rows)


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
Terminal = tuple


@dataclass(frozen=True)
class Chain:
    """A maximal run of parallel subdivision edges joined through
    parallelogram crossings; dual to one straight piece of curve."""

    edges: tuple[EdgeKey, ...]
    terminals: tuple[Terminal, Terminal]
    weight: int
    direction: LatticePoint

    def vector(self) -> LatticePoint:
        return sub(self.edges[0][1], self.edges[0][0])


@dataclass(frozen=True)
class MarkedDualGraph:
    """Combinatorial dual of a decoded subdivision: a trivalent node per
    triangle, a crossing per parallelogram, chains of dual edges, one end
    per boundary edge, and the path steps as marked edges."""

    triangles: tuple[LatticePolygon, ...]
    crossings: tuple[LatticePolygon, ...]
    chains: tuple[Chain, ...]
    marked: tuple[EdgeKey, ...]

    def chain_of(self, edge: EdgeKey) -> int:
        for i, c in enumerate(self.chains):
            if edge in c.edges:
                return i
        raise KeyError(f"edge {edge} is on no chain")


def _one_end_components(G: MarkedDualGraph, marked: set) -> list[dict]:
    """Cut every chain at its marked edges and group the resulting pieces
    into connected components.  Each component must be a tree with exactly
    one boundary end; its description holds the pieces and the mark leaves.
    """
    pieces = []  # (terminal_a, terminal_b, edge vector)
    for chain in G.chains:
        cuts = [("mark", e) for e in chain.edges if e in marked]
        stops = [chain.terminals[0]] + cuts + [chain.terminals[1]]
        for left, right in zip(stops, stops[1:]):
            pieces.append((left, right, chain.vector()))

    # union-find over pieces, joined when they share a triangle terminal
    parent = list(range(len(pieces)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_tri: dict[int, list[int]] = {}
    for idx, (a, b, _) in enumerate(pieces):
        for t in (a, b):
            if t[0] == "tri":
                by_tri.setdefault(t[1], []).append(idx)
    for group in by_tri.values():
        for other in group[1:]:
            ra, rb = find(group[0]), find(other)
            if ra != rb:
                parent[rb] = ra

    comps: dict[int, dict] = {}
    for idx, piece in enumerate(pieces):
        root = find(idx)
        comps.setdefault(root, {"pieces": [], "tris": set(), "ends": 0, "marks": 0})
        c = comps[root]
        c["pieces"].append(piece)
        a, b, _ = piece
        for t in (a, b):
            if t[0] == "tri":
                c["tris"].add(t[1])
            elif t[0] == "end":
                c["ends"] += 1
            else:
                c["marks"] += 1
    out = []
    for c in comps.values():
        nodes = len(c["tris"]) + c["ends"] + c["marks"]
        if len(c["pieces"]) != nodes - 1:
            raise IncompatibleGraph("component is not a tree")
        if c["ends"] != 1:
            raise IncompatibleGraph(
                f"component has {c['ends']} ends, expected exactly 1"
            )
        out.append(c)
    return out


def curve_real_multiplicity(
    G: MarkedDualGraph,
    signs: Mapping[EdgeKey, SignClass],
    pair_order: Sequence[EdgeKey] | None = None,
) -> int:
    """Signed multiplicity of one marked curve: prune each one-end tree
    component by repeatedly merging two resolved leaves at a trivalent node,
    with the weights and branch sums of the class-combination table; the
    total is the product over components.

    `pair_order` optionally re-ranks the marked edges used for tie-breaking
    when choosing the next pair; the result must not depend on it.
    """
    marked = set(G.marked)
    if set(signs) != marked:
        raise ValueError("need a sign class for exactly the marked edges")
    for e, cls in signs.items():
        if not _is_class_of(sub(e[1], e[0]), frozenset(cls)):
            raise ValueError(f"sign class {set(cls)} does not fit edge {e}")
    rank: dict[EdgeKey, int] = {e: i for i, e in enumerate(pair_order or sorted(marked))}
    if set(rank) != marked:
        raise ValueError("pair_order must list exactly the marked edges")

    nibbles = {e: _nibble(cls) for e, cls in signs.items()}
    total = 1
    for comp in _one_end_components(G, marked):
        total *= _prune_component(comp["pieces"], nibbles, rank)
        if total == 0:
            return 0
    return total


def _prune_component(pieces, nibbles, rank) -> int:
    tri_ports: dict[int, list[int]] = {}
    resolved: dict[int, tuple] = {}  # piece -> (triangle it points at, class nibble, key)
    for idx, (a, b, vec) in enumerate(pieces):
        for t in (a, b):
            if t[0] == "tri":
                tri_ports.setdefault(t[1], []).append(idx)
        if a[0] == "mark" and b[0] == "tri":
            resolved[idx] = (b[1], nibbles[a[1]], (0, rank[a[1]]))
        elif b[0] == "mark" and a[0] == "tri":
            resolved[idx] = (a[1], nibbles[b[1]], (0, rank[b[1]]))
        # mark-to-end pieces carry no constraint; the tree/end census already
        # rejected mark-to-mark and end-to-end components

    tris = sorted(tri_ports)
    parity = [_index(vec) for _, _, vec in pieces]

    def prune(tris_left: int, resolved: dict) -> int:
        """tris_left has bit t set for each triangle t not yet pruned."""
        if not tris_left:
            return 1
        best = None
        for t in (t for t in tris if tris_left >> t & 1):
            # even-weight legs join the pair first so their doubling factor
            # is paid exactly once, at their leaf end
            here = sorted(
                ((bool(parity[i]), resolved[i][2]), i)
                for i in tri_ports[t]
                if i in resolved and resolved[i][0] == t
            )
            if len(here) >= 2:
                best = (t, here[0][1], here[1][1])
                break
        if best is None:
            raise IncompatibleGraph("pruning stuck: no trivalent node with two leaves")
        t, ia, ib = best
        _, ca, ka = resolved[ia]
        _, cb, kb = resolved[ib]
        rest = [i for i in tri_ports[t] if i not in (ia, ib)]
        if len(rest) != 1:
            raise IncompatibleGraph("trivalent node without exactly three legs")
        (ic,) = rest
        nxt = dict(resolved)
        del nxt[ia], nxt[ib]
        left = tris_left ^ 1 << t
        out = 0
        for w, merged in _merge(ca, cb, parity[ia], parity[ib], _primitive_index(pieces[ic][2])):
            if ic in resolved:
                # third leg already carries a class: the vertex is a filter
                if resolved[ic][1] == merged:
                    follow = dict(nxt)
                    del follow[ic]
                    out += w * prune(left, follow)
                continue
            a, b, _ = pieces[ic]
            other = b if (a[0] == "tri" and a[1] == t) else a
            if other[0] == "tri":
                follow = dict(nxt)
                follow[ic] = (other[1], merged, (1, min(ka, kb)))
                out += w * prune(left, follow)
            elif other[0] == "end":
                out += w * prune(left, nxt)
            else:
                raise IncompatibleGraph("mark on the outflow chain")
        return out

    return prune(sum(1 << t for t in tris), resolved)
