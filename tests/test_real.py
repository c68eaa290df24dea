"""Signed counting: sign classes, signed path recursions, Welschinger weights,
and the curve-level real multiplicity, cross-checked against a brute-force
phase enumeration on decoded curves."""

import hashlib
import itertools
import math
import random
import re

import pytest
from conftest import random_order
from hypothesis import given, settings
from hypothesis import strategies as st

from tropico.lattice import (
    LatticePolygon,
    LinearOrder,
    _edge_key,
    grid_rectangle,
    lattice_length,
    standard_triangle,
    sub,
)
from tropico.paths import Side, count, enumerate_paths, mu, mu_side
from tropico.real import (
    SignedPath,
    ZeroStep,
    _fitting_nibble,
    _triangle_welschinger_weight,
    mu_real,
    mu_real_side,
    nu_real_side,
    real_signed_count,
    sign_class_of,
    vertex_welschinger_sign,
    welschinger_count,
)
from tropico.curves import (
    IncompatibleGraph,
    MarkedDualGraph,
    curve_real_multiplicity,
    decode,
    marked_dual_graph,
)

DEFAULT = LinearOrder.default()
QUADRANTS = ((0, 0), (0, 1), (1, 0), (1, 1))


# -- sign classes -------------------------------------------------------------


def _parity(v):
    return (v[0] % 2, v[1] % 2)


def _primitive_parity(v):
    g = math.gcd(v[0], v[1])
    return _parity((v[0] // g, v[1] // g))


def _xor(a, b):
    return ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2)


def test_sign_class_examples():
    assert sign_class_of((1, 0), (0, 0)) == {(0, 0), (1, 0)}
    assert sign_class_of((0, -1), (0, 0)) == {(0, 0), (0, 1)}
    assert sign_class_of((1, 1), (0, 1)) == {(0, 1), (1, 0)}
    # weight scales out: only the primitive direction matters
    assert sign_class_of((3, 3), (0, 0)) == {(0, 0), (1, 1)}
    assert sign_class_of((2, 0), (1, 1)) == {(1, 1), (0, 1)}
    assert sign_class_of((0, 4), (1, 0)) == {(1, 0), (1, 1)}


def test_sign_class_zero_step():
    with pytest.raises(ZeroStep):
        sign_class_of((0, 0), (0, 0))
    # a step given as a list is zero by its coordinates too
    cls = sign_class_of((1, 0), (0, 0))
    for step in ([0, 0], (0, 0)):
        with pytest.raises(ZeroStep):
            sign_class_of(step, (0, 0))
        with pytest.raises(ZeroStep):
            _fitting_nibble(step, cls)


steps = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(lambda v: v != (0, 0))
reps = st.tuples(st.integers(0, 1), st.integers(0, 1))


@settings(max_examples=80, deadline=None)
@given(steps, reps, st.integers(1, 4))
def test_sign_class_properties(step, rep, k):
    cls = sign_class_of(step, rep)
    assert rep in cls
    assert len(cls) == 2
    for other in cls:
        assert sign_class_of(step, other) == cls
    scaled = (k * step[0], k * step[1])
    assert sign_class_of(scaled, rep) == cls
    flipped = (-step[0], -step[1])
    assert sign_class_of(flipped, rep) == cls


@settings(max_examples=60, deadline=None)
@given(steps, steps, reps, reps)
def test_sign_classes_meet_unless_parallel_mod_two(sa, sb, ra, rb):
    # Classes modulo different primitive parities always share exactly one
    # element; disjointness needs equal parities.
    ca, cb = sign_class_of(sa, ra), sign_class_of(sb, rb)
    if _primitive_parity(sa) == _primitive_parity(sb):
        assert ca == cb or not (ca & cb)
    else:
        assert len(ca & cb) == 1


def test_signed_path_construction():
    path = ((0, 2), (1, 1), (2, 0))
    sp = SignedPath.from_choices(path, [(0, 0), (1, 1)])
    assert sp.signs[0] == sign_class_of((1, -1), (0, 0))
    with pytest.raises(ValueError):
        SignedPath.from_choices(path, [(0, 0)])
    with pytest.raises(ValueError):
        SignedPath(path, (frozenset({(0, 0), (1, 0)}), frozenset({(0, 0), (1, 1)})))
    with pytest.raises(ZeroStep):
        SignedPath.from_choices(((0, 2), (0, 2), (2, 0)), [(0, 0), (0, 0)])


def test_signed_path_fit_test_exhaustive():
    # every subset of QUADRANTS, and a class of unreduced signs
    classes = [frozenset(c) for k in range(5) for c in itertools.combinations(QUADRANTS, k)]
    classes.append(frozenset({(2, 0), (3, 1)}))
    for step in itertools.product(range(-3, 4), repeat=2):
        path = ((0, 0), step)
        for cls in classes:
            if step == (0, 0):
                with pytest.raises(ZeroStep):
                    SignedPath(path, [cls])
            elif cls <= set(QUADRANTS) and any(cls == sign_class_of(step, r) for r in cls):
                assert SignedPath(path, [cls]).signs == (cls,)
            else:
                with pytest.raises(ValueError, match="does not fit step 0"):
                    SignedPath(path, [cls])


# -- signed recursions: known values ------------------------------------------


def test_real_count_cubic_all_positive():
    signs = [(0, 0)] * 8
    assert real_signed_count(standard_triangle(3), 0, None, signs) == 12


def test_real_count_quartic_genus_one_all_positive():
    signs = [(0, 0)] * 12
    assert real_signed_count(standard_triangle(4), 1, None, signs) == 217


def test_real_count_cusp_depends_on_order():
    P = LatticePolygon([(0, 0), (1, 0), (0, 1), (2, 2)])
    signs = [(0, 0)] * 3
    assert real_signed_count(P, 0, LinearOrder((-1, 0), (0, 1)), signs) == 5
    assert real_signed_count(P, 0, LinearOrder((1, 0), (0, 1)), signs) == 3


@pytest.mark.parametrize("P, g", [
    (standard_triangle(4), 0), (standard_triangle(4), 1), (grid_rectangle(3, 3), -1),
])
def test_real_count_equals_ungated_path_sum(P, g):
    # real_signed_count runs the signed rule only where mu is nonzero on both
    # sides; the public per-path functions run it everywhere.
    rng = random.Random(f"gate|{P.vertices}|{g}")
    s, _ = P.counts()
    n = s + g - 1
    dropped_rows = 0
    for _ in range(3):
        order = random_order(rng)
        choices = [rng.choice(QUADRANTS) for _ in range(n)]
        total = 0
        for pts in enumerate_paths(P, order, n):
            signed = SignedPath.from_choices(pts, choices)
            total += mu_real(P, order, signed)
            if (mu_side(P, order, pts, Side.PLUS) and not mu_side(P, order, pts, Side.MINUS)
                    and mu_real_side(P, order, signed, Side.PLUS)):
                dropped_rows += 1
        assert real_signed_count(P, g, order, choices) == total
    # paths whose signed plus side is nonzero but whose mu minus side is 0:
    # the gate skips them, so it really drops rows
    assert dropped_rows > 0


def test_real_count_validates_sign_count():
    with pytest.raises(ValueError):
        real_signed_count(standard_triangle(2), 0, None, [(0, 0)] * 4)


def test_real_count_above_the_top_genus_is_0():
    # tri3 has 10 lattice points, so no path has more than 9 steps: above
    # genus 1 the count is 0 whatever the number of signs, each still a
    # quadrant sign; at the top the exact number is still required
    T = standard_triangle(3)
    assert real_signed_count(T, 5, None, [(0, 0)] * 9) == 0
    assert real_signed_count(T, 10**19, None, []) == 0
    with pytest.raises(ValueError, match=re.escape("quadrant sign (2, 0)")):
        real_signed_count(T, 5, None, [(2, 0)])
    with pytest.raises(ValueError, match="need 9 signs, got 8"):
        real_signed_count(T, 1, None, [(0, 0)] * 8)


def test_quadrant_signs_are_checked_at_the_public_boundary():
    # a sign outside QUADRANTS is refused by name, not reduced mod 2 or
    # read past its end
    P = standard_triangle(4)
    path = ((0, 2), (1, 1), (2, 0))
    for bad in ((2, 5), (0, 7), (0, 0, 0), (1,), (-1, 0), "01", 1):
        match = re.escape(f"quadrant sign {bad!r}")
        with pytest.raises(ValueError, match=match):
            real_signed_count(P, 0, None, [(0, 0)] * 10 + [bad])
        with pytest.raises(ValueError, match=match):
            SignedPath.from_choices(path, [(0, 0), bad])
        with pytest.raises(ValueError, match=match):
            sign_class_of((1, 0), bad)
    # the four signs themselves, as tuples or lists
    assert real_signed_count(P, 0, None, [[0, 1]] * 11) == real_signed_count(P, 0, None, [(0, 1)] * 11)
    assert sign_class_of((1, 0), [1, 1]) == {(0, 1), (1, 1)}


def test_mu_real_parity_and_bounds_exhaustive_conic():
    P = standard_triangle(2)
    for g in (-1, 0):
        s, _ = P.counts()
        n = s + g - 1
        for pts in enumerate_paths(P, DEFAULT, n):
            m = mu(P, DEFAULT, pts)
            for choice in itertools.product(QUADRANTS, repeat=n):
                sp = SignedPath.from_choices(pts, choice)
                mr = mu_real(P, DEFAULT, sp)
                assert 0 <= mr <= m
                assert (mr - m) % 2 == 0


def test_mu_real_sides_multiply():
    P = standard_triangle(3)
    pts = ((0, 3), (0, 2), (0, 1), (1, 2), (1, 1), (1, 0), (2, 1), (2, 0), (3, 0))
    sp = SignedPath.from_choices(pts, [(0, 0)] * 8)
    plus = mu_real_side(P, DEFAULT, sp, Side.PLUS)
    minus = mu_real_side(P, DEFAULT, sp, Side.MINUS)
    assert mu_real(P, DEFAULT, sp) == plus * minus


# -- Welschinger counts --------------------------------------------------------


def test_welschinger_known_values():
    assert welschinger_count(standard_triangle(3), 0) == 8
    assert welschinger_count(standard_triangle(4), 1) == 93
    cusp = LatticePolygon([(0, 0), (1, 0), (0, 1), (2, 2)])
    assert welschinger_count(cusp, 0) == 1


def test_welschinger_genus_zero_lower_bound():
    # at least d!/2 real rational curves in degree d
    fact = {1: 1, 2: 2, 3: 6, 4: 24}
    for d in (1, 2, 3, 4):
        assert welschinger_count(standard_triangle(d), 0) >= fact[d] // 2


def test_welschinger_order_invariance_every_genus():
    # the Welschinger-type count does not depend on the points in any genus
    # (Itenberg-Mikhalkin, IMRN 2013): one value per genus from -1 to the top
    # under the default and four seeded orders
    rng = random.Random(26)
    orders = [DEFAULT] + [random_order(rng) for _ in range(4)]
    expected = {
        standard_triangle(4): [486, 295, 93, 15, 1],
        grid_rectangle(3, 3): [2262, 1515, 600, 140, 18, 1],
        LatticePolygon([(0, 0), (4, 0), (2, 2), (0, 2)]): [127, 57, 12, 1, 0],
    }
    for P, column in expected.items():
        for g, value in enumerate(column, start=-1):
            assert {welschinger_count(P, g, o) for o in orders} == {value}, (P.vertices, g)


def test_nu_side_bounded_by_mu_side():
    P = standard_triangle(3)
    s, _ = P.counts()
    for g in (-1, 0, 1):
        for pts in enumerate_paths(P, DEFAULT, s + g - 1):
            for side in (Side.PLUS, Side.MINUS):
                nu = nu_real_side(P, DEFAULT, pts, side)
                assert abs(nu) <= mu_side(P, DEFAULT, pts, side)


def test_vertex_welschinger_sign():
    assert vertex_welschinger_sign(LatticePolygon([(0, 0), (1, 0), (0, 1)])) == 1
    assert vertex_welschinger_sign(LatticePolygon([(0, 0), (2, 0), (0, 1)])) == 0
    assert vertex_welschinger_sign(LatticePolygon([(0, 0), (3, 0), (0, 1)])) == -1
    assert vertex_welschinger_sign(LatticePolygon([(0, 0), (5, 0), (0, 1)])) == 1
    with pytest.raises(ValueError):
        vertex_welschinger_sign(LatticePolygon([(0, 0), (1, 0), (1, 1), (0, 1)]))


def test_even_interior_edge_kills_welschinger_product():
    # A decoded subdivision with an interior edge of even lattice length has
    # zero product of vertex signs over its triangles.
    P = standard_triangle(3)
    s, _ = P.counts()
    seen = 0
    for g in (-1, 0, 1):
        for pts in enumerate_paths(P, DEFAULT, s + g - 1):
            for c in decode(P, DEFAULT, pts):
                D = c.subdivision
                has_even = any(
                    lattice_length(sub(b, a)) % 2 == 0 for a, b in D.interior_edges()
                )
                if not has_even:
                    continue
                seen += 1
                prod = 1
                for T in D.triangles():
                    prod *= vertex_welschinger_sign(T)
                assert prod == 0
    assert seen > 0


def test_vertex_signs_of_decoded_curves_multiply_to_nu():
    # Summed over the curves a path decodes to, the product of the vertex
    # signs over each curve's triangles is nu_plus * nu_minus.  Per triangle
    # the two signs may differ: (-1)^((m-1)/2) and (-1)^interior differ by
    # the product of (-1)^((w-1)/2) over the side lengths w, and each
    # interior chain of a curve meets two triangles, so within a curve the
    # factors cancel.
    cusp = LatticePolygon([(0, 0), (1, 0), (0, 1), (2, 2)])
    orders = (DEFAULT, LinearOrder((2, 1), (1, -3)))
    paths = differing = 0
    for P in (standard_triangle(3), standard_triangle(4), grid_rectangle(3, 3), cusp):
        s, _ = P.counts()
        for order in orders:
            for g in (-1, 0, 1):
                for pts in enumerate_paths(P, order, s + g - 1):
                    total = 0
                    for c in decode(P, order, pts):
                        prod = 1
                        for T in c.subdivision.triangles():
                            sign = vertex_welschinger_sign(T)
                            a, b, cc = T.vertices
                            differing += sign != _triangle_welschinger_weight(sub(b, a), sub(cc, b))
                            prod *= sign
                        total += prod
                    nu = (nu_real_side(P, order, pts, Side.PLUS)
                          * nu_real_side(P, order, pts, Side.MINUS))
                    assert total == nu, (P, order, pts)
                    paths += 1
    assert paths == 8980
    assert differing > 0
    T = LatticePolygon([(0, 0), (1, 0), (1, 3)])
    assert vertex_welschinger_sign(T) == -1
    assert _triangle_welschinger_weight((1, 0), (0, 3)) == 1


# -- curve-level real multiplicity ---------------------------------------------


def _brute_real_multiplicity(G, signs):
    """Independent oracle: enumerate a sign class per chain (marked chains are
    pinned by their marks), keep the assignments compatible at every trivalent
    vertex, and weight each one by 2 for every unmarked even-weight chain and
    4 for every marked even-weight chain."""
    chain_data = []
    for edges, _, _ in G.chains:
        v = sub(edges[0][1], edges[0][0])
        pp = _primitive_parity(v)
        marks = [signs[e] for e in edges if e in signs]
        classes, done = [], set()
        for q in QUADRANTS:
            if q in done:
                continue
            c = frozenset({q, _xor(q, pp)})
            classes.append(c)
            done.update(c)
        ok = [c for c in classes if all(m == c for m in marks)]
        chain_data.append((_parity(v), ok, len(marks), lattice_length(v)))

    incident = {}
    for i, (_, *ends) in enumerate(G.chains):
        for t in ends:
            if t >= 0:
                incident.setdefault(t, []).append(i)

    a = sum(1 for p, ok, nm, w in chain_data if w % 2 == 0 and nm > 0)
    b = sum(1 for p, ok, nm, w in chain_data if w % 2 == 0 and nm == 0)
    total = 0
    for choice in itertools.product(*[cd[1] for cd in chain_data]):
        good = True
        for idxs in incident.values():
            cls3 = [choice[i] for i in idxs]
            par3 = [chain_data[i][0] for i in idxs]
            n_even = sum(1 for p in par3 if p == (0, 0))
            if n_even == 0:
                ok = not (cls3[0] & cls3[1] & cls3[2])
            elif n_even == 1:
                ev = par3.index((0, 0))
                odd = [i for i in range(3) if i != ev]
                ok = cls3[odd[0]] == cls3[odd[1]] and bool(cls3[ev] & cls3[odd[0]])
            elif n_even == 3:
                ok = bool(cls3[0] & cls3[1] & cls3[2])
            else:
                ok = False
            if not ok:
                good = False
                break
        if good:
            total += 2 ** (2 * a + b)
    return total


def _graph_signs(pts, choice):
    return {
        _edge_key(pts[j], pts[j + 1]): sign_class_of(sub(pts[j + 1], pts[j]), choice[j])
        for j in range(len(pts) - 1)
    }


def _check_case(P, order, g, sign_choices, brute=True):
    """Path/sign pairs checked: the curve-level multiplicities of a path's
    curves sum to its signed multiplicity, and each one equals the brute
    force unless brute is False."""
    s, _ = P.counts()
    n = s + g - 1
    checked = 0
    for pts in enumerate_paths(P, order, n):
        if mu(P, order, pts) == 0:
            continue
        graphs = [marked_dual_graph(c) for c in decode(P, order, pts)]
        for choice in sign_choices(n):
            sp = SignedPath.from_choices(pts, choice)
            expected = mu_real(P, order, sp)
            via_curves = 0
            for G in graphs:
                signs = _graph_signs(pts, choice)
                m = curve_real_multiplicity(G, signs)
                assert not brute or m == _brute_real_multiplicity(G, signs)
                via_curves += m
            assert via_curves == expected
            checked += 1
    return checked


def test_curve_level_matches_recursion_conic_exhaustive():
    def all_choices(n):
        return itertools.product(QUADRANTS, repeat=n)

    P = standard_triangle(2)
    assert _check_case(P, DEFAULT, -1, all_choices) > 0
    assert _check_case(P, DEFAULT, 0, all_choices) > 0


def test_curve_level_matches_recursion_cusp_exhaustive():
    def all_choices(n):
        return itertools.product(QUADRANTS, repeat=n)

    P = LatticePolygon([(0, 0), (1, 0), (0, 1), (2, 2)])
    for order in (LinearOrder((-1, 0), (0, 1)), LinearOrder((1, 0), (0, 1))):
        assert _check_case(P, order, 0, all_choices) > 0


def test_curve_level_matches_recursion_cubic_sampled():
    rng = random.Random(20260819)

    def sampled(n):
        fixed = [tuple([q] * n) for q in QUADRANTS]
        drawn = [
            tuple(rng.choice(QUADRANTS) for _ in range(n)) for _ in range(40)
        ]
        return fixed + drawn

    P = standard_triangle(3)
    for g in (-1, 0, 1):
        assert _check_case(P, DEFAULT, g, sampled) > 0


def test_curve_level_matches_recursion_quartic_two_class_orders():
    # Under these orders some triangle of a decoded quartic has two legs
    # below it that each carry two classes, so the fold must combine every
    # class of one leg with every class of the other.  The brute force
    # would take half a minute here.
    rng = random.Random(20261018)

    def sampled(n):
        fixed = [tuple([q] * n) for q in QUADRANTS]
        drawn = [tuple(rng.choice(QUADRANTS) for _ in range(n)) for _ in range(4)]
        return fixed + drawn

    P = standard_triangle(4)
    orders = (LinearOrder((-3, 1), (2, 2)), LinearOrder((-1, -3), (3, 3)))
    assert sum(_check_case(P, o, 1, sampled, brute=False) for o in orders) == 528


def test_curve_level_matches_brute_force_quartic():
    # Every decoded quartic of genus 0 under the default order (358 curves
    # on 63 paths), with every point's sign ++ and then every point's
    # sign --.
    def constant(n):
        return [((0, 0),) * n, ((1, 1),) * n]

    assert _check_case(standard_triangle(4), DEFAULT, 0, constant) == 126


def test_curve_real_multiplicity_validates_signs():
    P = standard_triangle(2)
    pts = next(iter(enumerate_paths(P, DEFAULT, 5)))
    (c,) = decode(P, DEFAULT, pts)
    G = marked_dual_graph(c)
    signs = _graph_signs(pts, [(0, 0)] * 5)
    needed = "^need a sign class for exactly the marked edges$"
    for wrong in ({}, dict(list(signs.items())[1:]), {**signs, ((0, 0), (2, 0)): frozenset({(0, 0)})}):
        with pytest.raises(ValueError, match=needed):
            curve_real_multiplicity(G, wrong)
    # the first edge, in the order of `signs`, whose class does not fit is named
    first, second = list(signs)[:2]
    for cls in ({(0, 0), (1, 1), (0, 1)}, set(), {(0, 0)}, {(0, 0), (0, 2)}):
        bad = dict(signs)
        bad[first] = frozenset({(0, 0), (1, 1), (0, 1)})
        bad[second] = frozenset(cls)
        message = f"sign class {set(bad[first])} does not fit edge {first}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            curve_real_multiplicity(G, bad)
    assert message == "sign class {(0, 1), (1, 1), (0, 0)} does not fit edge ((0, 1), (0, 2))"
    bad = dict(signs)
    bad[second] = frozenset({(0, 0), (0, 2)})
    message = f"sign class {set(bad[second])} does not fit edge {second}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        curve_real_multiplicity(G, bad)


# The repr of every marked dual graph of the decoded quartics below, with the
# curve's decoded and curve-level real multiplicities, in path and curve
# order: a change to anything the pipeline outputs changes the digest.
_QUARTIC_PIPELINE_DIGEST = (952, "03cc38cc3a8a8a4433babf91e19d639fd66df7a6bbee592d3521298c7ccd7884")


def test_quartic_pipeline_output_is_pinned():
    h = hashlib.sha256()
    curves = 0
    for order in (DEFAULT, LinearOrder((2, -1), (1, 3))):
        for g in (0, 1):
            P = standard_triangle(4)
            n = 11 + g
            choice = [QUADRANTS[(3 * k + g) % 4] for k in range(n)]
            for pts in enumerate_paths(P, order, n):
                signs = _graph_signs(pts, choice)
                for c in decode(P, order, pts):
                    G = marked_dual_graph(c)
                    m = curve_real_multiplicity(G, signs)
                    h.update(f"{G!r}|{c.multiplicity}|{m}\n".encode())
                    curves += 1
    assert (curves, h.hexdigest()) == _QUARTIC_PIPELINE_DIGEST


def test_graph_built_by_hand_equals_decoded_graph():
    # `marked_dual_graph` binds its chain rows unchecked; the constructor
    # checks their terminals.  Rebuilt through the constructor from its
    # rows, every decoded quartic graph is the same value with the same
    # curve-level real multiplicity.
    curves = 0
    for order in (DEFAULT, LinearOrder((2, -1), (1, 3))):
        for g in (0, 1):
            P = standard_triangle(4)
            n = 11 + g
            choice = [QUADRANTS[(3 * k + g) % 4] for k in range(n)]
            for pts in enumerate_paths(P, order, n):
                signs = _graph_signs(pts, choice)
                for c in decode(P, order, pts):
                    G = marked_dual_graph(c)
                    m = curve_real_multiplicity(G, signs)
                    chains = tuple((tuple(edges), left, right) for edges, left, right in G.chains)
                    H = MarkedDualGraph(triangles=G.triangles, crossings=G.crossings,
                                        chains=chains, marked=G.marked)
                    assert vars(H) == vars(G)
                    assert curve_real_multiplicity(H, signs) == m
                    assert H == G and repr(H) == repr(G) and hash(H) == hash(G)
                    curves += 1
    assert curves == _QUARTIC_PIPELINE_DIGEST[0]


@pytest.mark.parametrize("P, g, total, curves, digest", [
    (standard_triangle(5), 3, 7915, 2496, "dd94aa937dcbd6fbd795a3358cc27fbe9ac8657908d191d69537c8f0ed16f64b"),
    (grid_rectangle(3, 3), 0, 4115, 2033, "7cb6736ab147842a586218d12344b0cccdad92c3c9d6b46880eb6936642feede"),
], ids=["tri5-g3", "rect3-g0"])
def test_curve_level_identity_one_size_up(P, g, total, curves, digest):
    # every decoded curve of the cell under one seeded order and sign vector:
    # the decoded multiplicities add up to the count, the curve-level real
    # multiplicities to the signed count.  These cells have long chains, many
    # of them with a mark inside and some of even weight, so the digest of
    # each marked dual graph's repr with its two multiplicities pins what
    # the quartics above do not reach.
    rng = random.Random(f"{P.vertices}:{g}")
    order = random_order(rng)
    s, _ = P.counts()
    n = s + g - 1
    choice = [rng.choice(QUADRANTS) for _ in range(n)]
    decoded = mult = real = 0
    h = hashlib.sha256()
    for pts in enumerate_paths(P, order, n):
        if not mu(P, order, pts):
            continue
        signs = _graph_signs(pts, choice)
        for c in decode(P, order, pts):
            decoded += 1
            mult += c.multiplicity
            G = marked_dual_graph(c)
            m = curve_real_multiplicity(G, signs)
            real += m
            h.update(f"{G!r}|{c.multiplicity}|{m}\n".encode())
    assert (decoded, mult) == (curves, total) == (curves, count(P, g, order))
    assert real == real_signed_count(P, g, order, choice)
    assert h.hexdigest() == digest


# -- synthetic graphs ------------------------------------------------------------


def _tripod_graph(T, marked_pairs):
    """One triangle with three single-edge chains running to boundary ends."""
    v = T.vertices
    edges = [(v[i], v[(i + 1) % 3]) for i in range(3)]
    edges = [_edge_key(a, b) for a, b in edges]
    chains = tuple(((e,), 0, -1) for e in edges)
    return MarkedDualGraph(
        triangles=(T,), crossings=(), chains=chains, marked=tuple(marked_pairs)
    )


def test_synthetic_all_even_triangle():
    # All three sides of even weight: two marked legs with equal classes admit
    # both classes on the third leg, disjoint ones admit none.
    T = LatticePolygon([(0, 0), (2, 0), (4, 4)])
    e1, e2 = _edge_key((0, 0), (2, 0)), _edge_key((2, 0), (4, 4))
    G = _tripod_graph(T, (e1, e2))
    equal = {e1: sign_class_of((2, 0), (0, 0)), e2: sign_class_of((2, 4), (0, 0))}
    assert equal[e1] == equal[e2] == frozenset({(0, 0), (1, 0)})
    assert curve_real_multiplicity(G, equal) == 4
    disjoint = {e1: sign_class_of((2, 0), (0, 0)), e2: sign_class_of((2, 4), (0, 1))}
    assert not (disjoint[e1] & disjoint[e2])
    assert curve_real_multiplicity(G, disjoint) == 0


def test_synthetic_all_odd_triangle():
    # Unimodular triangle, all weights odd: marked classes sharing their one
    # common element with the third class's complement give exactly one curve.
    T = LatticePolygon([(0, 0), (1, 0), (0, 1)])
    e1, e2 = _edge_key((0, 0), (1, 0)), _edge_key((0, 0), (0, 1))
    G = _tripod_graph(T, (e1, e2))
    signs = {e1: sign_class_of((1, 0), (0, 0)), e2: sign_class_of((0, 1), (0, 0))}
    assert curve_real_multiplicity(G, signs) == 1
    assert _brute_real_multiplicity(G, signs) == 1
    # Every triangle with a vertex at the origin, the other two in [0, 4]^2
    # and three legs of odd weight, every pair of marked legs, and every
    # quadrant sign on each of them: the fold agrees with the brute force.
    grid = [(x, y) for x in range(5) for y in range(5)]
    checked = 0
    for b, c in itertools.combinations(grid[1:], 2):
        if b[0] * c[1] - b[1] * c[0] == 0:
            continue
        T = LatticePolygon([(0, 0), b, c])
        legs = [_edge_key(p, q) for p, q in T.sides()]
        if any(lattice_length(sub(q, p)) % 2 == 0 for p, q in legs):
            continue
        for marked in itertools.combinations(legs, 2):
            G = _tripod_graph(T, marked)
            for ra, rb in itertools.product(QUADRANTS, repeat=2):
                signs = {e: sign_class_of(sub(e[1], e[0]), r) for e, r in zip(marked, (ra, rb))}
                assert curve_real_multiplicity(G, signs) == _brute_real_multiplicity(G, signs)
                checked += 1
    assert checked == 4032


def test_incompatible_graph_two_ends():
    # An unmarked chain joining two boundary ends is not a one-end tree.
    e = _edge_key((0, 0), (1, 0))
    G = MarkedDualGraph(triangles=(), crossings=(), chains=(((e,), -1, -1),), marked=())
    with pytest.raises(IncompatibleGraph, match="^component has 2 ends, expected exactly 1$"):
        curve_real_multiplicity(G, {})


def test_incompatible_graph_cycle():
    # Two parallel chains between the same pair of triangles close a cycle;
    # the first triangle's third leg runs to the end and the second's to a
    # mark, so the fold reaches the cycle.
    T1 = LatticePolygon([(0, 0), (1, 0), (0, 1)])
    T2 = LatticePolygon([(1, 0), (1, 1), (0, 1)])
    e1, e2 = _edge_key((1, 0), (0, 1)), _edge_key((0, 0), (1, 1))
    e3, e4 = _edge_key((0, 0), (1, 0)), _edge_key((1, 0), (1, 1))
    chains = (((e1,), 0, 1), ((e2,), 0, 1), ((e3,), 0, -1), ((e4,), 1, -1))
    G = MarkedDualGraph(triangles=(T1, T2), crossings=(), chains=chains, marked=(e4,))
    with pytest.raises(IncompatibleGraph, match="^component is not a tree$"):
        curve_real_multiplicity(G, {e4: sign_class_of((0, 1), (0, 0))})


def test_incompatible_graph_no_end_or_two_legs():
    # A chain marked twice leaves a piece between two marks that reaches no
    # end; a triangle with two chains is no trivalent node.
    T = LatticePolygon([(0, 0), (1, 0), (0, 1)])
    e1, e2 = _edge_key((0, 0), (1, 0)), _edge_key((1, 0), (2, 0))
    signs = {e: sign_class_of((1, 0), (0, 0)) for e in (e1, e2)}
    G = MarkedDualGraph(triangles=(), crossings=(), chains=(((e1, e2), -1, -1),), marked=(e1, e2))
    with pytest.raises(IncompatibleGraph, match="^component has 0 ends, expected exactly 1$"):
        curve_real_multiplicity(G, signs)
    chains = tuple(((e,), 0, -1) for e in (e1, e2))
    G = MarkedDualGraph(triangles=(T,), crossings=(), chains=chains, marked=(e2,))
    with pytest.raises(IncompatibleGraph, match="^trivalent node without exactly three legs$"):
        curve_real_multiplicity(G, {e2: signs[e2]})
