"""Exact enumeration of plane tropical curves via increasing lattice paths.

Each public name loads its submodule on first use (PEP 562), so a program
that only counts never imports `curves`.
"""

_EXPORTS = {
    "lattice": (
        "LatticePolygon",
        "LinearOrder",
        "NonInjectiveOrder",
        "ToricDegree",
        "boundary_chains",
        "convex_hull",
        "extremal_vertices",
        "grid_rectangle",
        "standard_triangle",
        "toric_degree",
    ),
    "paths": (
        "InvalidGenus",
        "Side",
        "count",
        "enumerate_paths",
        "first_convex_vertex",
        "mu",
        "mu_side",
    ),
    "real": (
        "SignedPath",
        "ZeroStep",
        "mu_real",
        "mu_real_side",
        "nu_real_side",
        "real_signed_count",
        "sign_class_of",
        "vertex_welschinger_sign",
        "welschinger_count",
    ),
    "curves": (
        "DecodedCurve",
        "DegenerateSupport",
        "DualSubdivision",
        "IncompatibleGraph",
        "MalformedSubdivision",
        "MarkedDualGraph",
        "NotSimple",
        "ParallelDirections",
        "PlaneTropicalCurve",
        "TropicalPolynomial",
        "canonicalize",
        "check_balancing",
        "curve_of",
        "curve_real_multiplicity",
        "decode",
        "dual_subdivision",
        "genus_of_simple",
        "is_smooth",
        "marked_dual_graph",
        "vertex_multiplicity",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `__import__`, unlike `importlib.import_module`, shows in `-X importtime`
    value = getattr(__import__(f"{__name__}.{module}", fromlist=(name,)), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
