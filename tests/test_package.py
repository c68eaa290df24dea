"""The package surface: what a fresh interpreter imports for a count, the
lazily loaded public names, and the value semantics of the records."""

import json
import subprocess
import sys

import pytest

import tropico
from tropico.lattice import LatticePolygon, LinearOrder, ToricDegree, standard_triangle, toric_degree
from tropico.paths import enumerate_paths, mu
from tropico.real import SignedPath, sign_class_of
from tropico.curves import (
    DecodedCurve,
    DualSubdivision,
    MarkedDualGraph,
    PlaneTropicalCurve,
    TropicalPolynomial,
    _Face,
    curve_of,
    decode,
    marked_dual_graph,
)

D3 = '{"vertices": [[0,0],[3,0],[0,3]]}'


def _loaded_by(script: str) -> tuple[list[str], list[str]]:
    """Run `script` in a fresh interpreter; its stdout lines, the last being
    the modules it loaded beyond those loaded before it ran."""
    prelude = "import json, sys\nbefore = set(sys.modules)\n"
    coda = "\nprint(json.dumps(sorted(set(sys.modules) - before)))\n"
    proc = subprocess.run([sys.executable, "-c", prelude + script + coda],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    *lines, loaded = proc.stdout.splitlines()
    return lines, json.loads(loaded)


def test_a_count_loads_no_curves_and_no_dataclasses():
    lines, loaded = _loaded_by(
        "from tropico import count, real_signed_count, welschinger_count\n"
        "from tropico.lattice import standard_triangle\n"
        "print(count(standard_triangle(3), 0))"
    )
    assert lines == ["12"]
    assert {"tropico.lattice", "tropico.paths", "tropico.real"} <= set(loaded)
    assert "tropico.curves" not in loaded
    assert "dataclasses" not in loaded


def test_cli_count_loads_no_curves_dataclasses_or_fractions():
    lines, loaded = _loaded_by(
        "import runpy\n"
        f"sys.argv = ['tropico.cli', 'count', '--polygon', {D3!r}, '--genus', '0']\n"
        "try:\n"
        "    runpy.run_module('tropico.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    )
    assert lines == ["12"]
    assert {"tropico.lattice", "tropico.paths", "tropico.real"} <= set(loaded)
    assert not {"tropico.curves", "dataclasses", "fractions"} & set(loaded)


def test_public_names_load_on_demand():
    lines, loaded = _loaded_by(
        "import tropico\n"
        "print('tropico.curves' in sys.modules)\n"
        "print(tropico.curve_of is sys.modules['tropico.curves'].curve_of)\n"
        "from tropico import *\n"
        "print(sorted(tropico.__all__) == sorted(k for k in globals() if k in tropico.__all__))"
    )
    assert lines == ["False", "True", "True"]
    assert "tropico.curves" in loaded
    with pytest.raises(AttributeError, match="no_such_name"):
        tropico.no_such_name
    with pytest.raises(ImportError):
        from tropico import no_such_name  # noqa: F401
    assert set(tropico.__all__) <= set(dir(tropico))
    assert len(set(tropico.__all__)) == len(tropico.__all__) == 46


# -- records ---------------------------------------------------------------------


def _records():
    """(record, class name, field names, field values) for each record
    class, each built with keywords."""
    T = standard_triangle(2)
    order = LinearOrder(primary=(1, 0), tiebreak=(0, -1))
    path = next(p for p in enumerate_paths(T, order, 5) if mu(T, order, p))
    curve = decode(T, order, path)[0]
    sub_ = DualSubdivision(ambient=curve.subdivision.ambient, cells=curve.subdivision.cells)
    signs = tuple(sign_class_of((b[0] - a[0], b[1] - a[1]), (0, 0)) for a, b in zip(path, path[1:]))
    graph = marked_dual_graph(curve)
    return [
        (LatticePolygon(vertices=[(0, 2), (0, 0), (2, 0)]), "LatticePolygon",
         ("vertices",), (T.vertices,)),
        (order, "LinearOrder", ("primary", "tiebreak"), ((1, 0), (0, -1))),
        (ToricDegree(entries=toric_degree(T).entries), "ToricDegree",
         ("entries",), (toric_degree(T).entries,)),
        (sub_, "DualSubdivision", ("ambient", "cells"), (sub_.ambient, sub_.cells)),
        (DecodedCurve(subdivision=sub_, path=path, marked_edges=curve.marked_edges,
                      multiplicity=curve.multiplicity),
         "DecodedCurve", ("subdivision", "path", "marked_edges", "multiplicity"),
         (sub_, path, curve.marked_edges, curve.multiplicity)),
        (SignedPath(path=list(map(list, path)), signs=[set(s) for s in signs]), "SignedPath",
         ("path", "signs"), (path, signs)),
        (MarkedDualGraph(triangles=graph.triangles, crossings=graph.crossings,
                         chains=graph.chains, marked=graph.marked),
         "MarkedDualGraph", ("triangles", "crossings", "chains", "marked"),
         (graph.triangles, graph.crossings, graph.chains, graph.marked)),
    ]


def test_records_are_immutable_values():
    records = _records()
    for x, name, fields, values in records:
        assert type(x).__name__ == name
        assert tuple(getattr(x, f) for f in fields) == values
        # hashed as the field tuple, as the frozen dataclasses were: set and
        # dict orders, and so every output, stay the same
        assert hash(x) == hash(values)
        assert repr(x) == f"{name}(" + ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
        clone = type(x)(*values)
        assert clone == x and hash(clone) == hash(x) and clone is not x
        assert x != values
        for y, *_ in records:
            assert (x == y) == (y is x)
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(x, f, None)
            with pytest.raises(AttributeError):
                delattr(x, f)
        with pytest.raises(AttributeError):
            x.extra = 1
        assert tuple(getattr(x, f) for f in fields) == values
    assert repr(LinearOrder.default()) == "LinearOrder(primary=(1, 0), tiebreak=(0, -1))"
    assert repr(standard_triangle(1)) == "LatticePolygon(vertices=((0, 0), (1, 0), (0, 1)))"
    assert LinearOrder((1, 0), (0, -1)) != LinearOrder((1, 0), (0, 1))
    # equal fields do not make records of two classes equal
    assert LinearOrder((1, 0), (0, -1)) != DualSubdivision((1, 0), (0, -1))
    assert DecodedCurve((), (), (), 1) != MarkedDualGraph((), (), (), 1)
    assert len({standard_triangle(2), records[0][0], standard_triangle(3)}) == 2


def test_records_bind_their_fields_in_one_place():
    """A record takes its fields by position, by keyword or both; a wrong
    call raises TypeError naming the field, and the unchecked `_bind` gives
    the value the constructor gives.  Only the classes that check their
    arguments have an `__init__` of their own."""
    for x, name, fields, values in _records():
        cls = type(x)
        named = dict(zip(fields, values))
        mixed = cls(*values[:1], **dict(zip(fields[1:], values[1:])))
        assert cls(*values) == cls(**named) == mixed == x
        assert cls._bind(**named) == x
        with pytest.raises(TypeError, match=fields[-1]):
            cls(*values[:-1])
        with pytest.raises(TypeError):
            cls(*values, values[0])
        with pytest.raises(TypeError, match=fields[0]):
            cls(*values, **{fields[0]: values[0]})
        with pytest.raises(TypeError, match="bogus"):
            cls(*values, bogus=1)
    with pytest.raises(TypeError, match=r"DecodedCurve takes the fields subdivision, path, "
                                        r"marked_edges, multiplicity: too many positional "
                                        r"values \(5\)"):
        DecodedCurve((), (), (), 1, None)
    with pytest.raises(TypeError, match="'subdivision' given twice, missing field 'multiplicity'"):
        DecodedCurve((), subdivision=(), path=(), marked_edges=())
    T = standard_triangle(2)
    assert LatticePolygon._bind(vertices=T.vertices) == T
    f = TropicalPolynomial({(0, 0): 0, (1, 0): 0, (0, 1): 0})
    assert TropicalPolynomial._bind(terms=f.terms) == f
    C = curve_of(f)
    assert PlaneTropicalCurve(C.vertices, C.bounded_edges, C.rays) == C
    face = f._faces[0]
    assert _Face(face.points, face.plane, face.ring) == face
    for cls in (ToricDegree, DualSubdivision, DecodedCurve, _Face, PlaneTropicalCurve):
        assert "__init__" not in vars(cls), cls


def test_signed_path_refuses_a_misfit_class():
    path = ((0, 0), (1, 0), (0, 1))
    SignedPath(path, [{(0, 0), (1, 0)}, {(0, 0), (1, 1)}])
    with pytest.raises(ValueError, match="does not fit step 1"):
        SignedPath(path=path, signs=[{(0, 0), (1, 0)}, {(0, 0), (1, 0)}])
    with pytest.raises(ValueError, match="one sign class per path step"):
        SignedPath(path, [{(0, 0), (1, 0)}])
