"""Shared helpers: random concave coefficient draws and a floating grid
oracle that samples the plane and checks every near-tie of the max against
the reported curve."""

import math
from fractions import Fraction
from math import lcm

import numpy as np

from tropico.curves import TropicalPolynomial
from tropico.lattice import LinearOrder


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
