"""Command-line behavior: output shapes, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from tropico import cli
from tropico.paths import Side, enumerate_paths, mu_side
from tropico.real import SignedPath, mu_real_side, nu_real_side, real_signed_count
from tropico.lattice import LatticePolygon, LinearOrder

D3 = '{"vertices": [[0,0],[3,0],[0,3]]}'
D2 = '{"vertices": [[0,0],[2,0],[0,2]]}'
CUSP = '{"vertices": [[0,0],[1,0],[0,1],[2,2]]}'
LINE = '{"terms": [{"exp": [1,0], "coeff": "3"}, {"exp": [0,1], "coeff": "5"}, {"exp": [0,0], "coeff": "1"}]}'


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_tsv(capsys):
    code, out, err = run(["count", "--polygon", D3, "--genus", "0"], capsys)
    assert code == 0
    assert out == "12\n"


def test_count_json(capsys):
    code, out, _ = run(
        ["count", "--polygon", D3, "--genus", "0", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == "12"
    assert doc["genus"] == 0
    assert doc["polygon"] == [[0, 0], [3, 0], [0, 3]]
    assert doc["order"] == {"primary": [1, 0], "tiebreak": [0, -1]}


def test_count_per_path_tsv(capsys):
    code, out, _ = run(
        ["count", "--polygon", D2, "--genus", "-1", "--per-path"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "plus\tminus\tproduct\tpoints"
    rows = lines[1:-1]
    assert len(rows) == 2
    products = []
    for row in rows:
        plus, minus, product, points = row.split("\t")
        assert int(plus) * int(minus) == int(product)
        products.append(int(product))
        assert json.loads(points)["points"][0] == [0, 2]
    assert sorted(products) == [1, 2]
    assert lines[-1] == "3"


def test_count_polygon_from_file(tmp_path, capsys):
    p = tmp_path / "poly.json"
    p.write_text(D3)
    code, out, _ = run(["count", "--polygon", str(p), "--genus", "1"], capsys)
    assert code == 0
    assert out == "1\n"


def test_real_count_cusp_orders(capsys):
    code, out, _ = run(
        ["real-count", "--polygon", CUSP, "--genus", "0", "--order=-1,0/0,1"],
        capsys,
    )
    assert code == 0
    assert out == "5\n"
    code, out, _ = run(
        ["real-count", "--polygon", CUSP, "--genus", "0", "--order=1,0/0,1"],
        capsys,
    )
    assert code == 0
    assert out == "3\n"


def test_real_count_sign_list(capsys):
    tokens = ["++", "+-", "-+", "--", "++"]
    code, out, _ = run(
        [
            "real-count",
            "--polygon",
            D2,
            "--genus",
            "0",
            "--signs",
            ",".join(tokens),
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    expected = real_signed_count(
        LatticePolygon([(0, 0), (2, 0), (0, 2)]),
        0,
        LinearOrder.default(),
        [cli.SIGN_TOKENS[t] for t in tokens],
    )
    assert doc["real_count"] == str(expected)
    assert doc["signs"] == ",".join(tokens)


def test_real_count_signs_minus_minus(capsys):
    # argparse before 3.12 hands a lone "--" value over as []; it broadcasts
    # like any other single token
    tri5 = '{"vertices": [[0,0],[5,0],[0,5]]}'
    base = ["real-count", "--polygon", tri5, "--genus", "0"]
    code, out, _ = run(base + ["--signs=--"], capsys)
    assert (code, out) == (0, "87277\n")
    code, out, _ = run(base + ["--signs=" + ",".join(["--"] * 14)], capsys)
    assert (code, out) == (0, "87277\n")
    code, out, _ = run(base + ["--signs=--", "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["signs"] == "--"


def test_welschinger_cli(capsys):
    code, out, _ = run(["welschinger", "--polygon", D3, "--genus", "0"], capsys)
    assert code == 0
    assert out == "8\n"


def test_paths_summary(capsys):
    code, out, _ = run(
        ["paths", "--polygon", '{"vertices": [[0,0],[4,0],[0,4]]}', "--genus", "1"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n_paths\tcontributing\ttotal"
    assert lines[1] == "78\t33\t225"


def test_paths_summary_counts_every_path(capsys):
    """tri5 at g = 0 counts over the closure of one side, which holds far
    fewer paths; the summary still reports all of them."""
    argv = ["paths", "--polygon", '{"vertices": [[0,0],[5,0],[0,5]]}', "--genus", "0"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.strip().splitlines()[1] == "27132\t1432\t109781"
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert (doc["n_paths"], doc["contributing"], doc["total"]) == (27132, 1432, "109781")


def test_paths_list_shows_every_path(capsys):
    code, out, _ = run(
        ["paths", "--polygon", '{"vertices": [[0,0],[4,0],[0,4]]}', "--genus", "1", "--list"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "plus\tminus\tproduct\tpoints"
    assert len(lines) == 1 + 78 + 2
    assert lines[-1] == "78\t33\t225"


def test_paths_list_json(capsys):
    code, out, _ = run(
        ["paths", "--polygon", D2, "--genus", "0", "--list", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n_paths"] == 1
    assert doc["contributing"] == 1
    assert doc["total"] == "1"
    assert len(doc["paths"]) == 1
    assert doc["paths"][0]["product"] == "1"


def test_table_projective(capsys):
    code, out, _ = run(["table", "--dmax", "3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "g\td1\td2\td3"
    assert lines[1] == "-1\t0\t3\t21"
    assert lines[2] == "0\t1\t1\t12"
    assert lines[3] == "1\t0\t0\t1"


def test_table_bidegree_json(capsys):
    code, out, _ = run(
        ["table", "--family", "bidegree", "--dmax", "2", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == [1, 2]
    cells = {row["g"]: row["cells"] for row in doc["rows"]}
    assert cells[-1] == ["2", "22"]
    assert cells[0] == ["1", "12"]
    assert cells[1] == ["0", "1"]


def test_table_projective_degree_five(capsys):
    code, out, _ = run(["table", "--dmax", "5"], capsys)
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert rows[0] == ["g", "d1", "d2", "d3", "d4", "d5"]
    assert [int(r[0]) for r in rows[1:]] == list(range(-1, 7))
    assert [int(r[5]) for r in rows[1:]] == [65949, 109781, 90027, 36975, 7915, 882, 48, 1]


def test_count_cross_check_failure_exits_1(monkeypatch, capsys):
    # the recount under the resampled order disagrees: the total is printed
    # first, then the failure
    rule, takes_signs, label, (total_of, genus_0_only, what) = cli._COUNTING["count"]
    check = (lambda P, g, order: total_of(P, g, order) + 1, genus_0_only, what)
    monkeypatch.setitem(cli._COUNTING, "count", (rule, takes_signs, label, check))
    code, out, err = run(["count", "--polygon", D3, "--genus", "0"], capsys)
    assert (code, out, err) == (
        1, "12\n", "cross-check failed: count changed under a resampled order\n")


def test_table_cross_check_failure_exits_1(monkeypatch, capsys):
    # only the recount runs under another order than the default; the table
    # prints nothing when its first cell fails
    count, default = cli.count, LinearOrder.default()
    monkeypatch.setattr(cli, "count", lambda P, g, order: count(P, g, order) + (order != default))
    code, out, err = run(["table", "--dmax", "2"], capsys)
    assert (code, out, err) == (
        1, "", "cross-check failed for d=1, g=-1 under a resampled order\n")


def test_table_ceiling(capsys):
    for family, dmax in (("bidegree", "4"), ("projective", "6")):
        code, out, err = run(["table", "--family", family, "--dmax", dmax], capsys)
        assert code == 2
        assert out == ""
        assert "out of range" in err


def test_curve_json_and_svg(tmp_path, capsys):
    svg = tmp_path / "line.svg"
    code, out, _ = run(["curve", "--poly", LINE, "--svg", str(svg)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["newton_polygon"] == [[0, 0], [1, 0], [0, 1]]
    assert doc["curve"]["vertices"] == [["-2", "-4"]]
    assert len(doc["curve"]["rays"]) == 3
    assert doc["genus"] == 0
    assert doc["smooth"] is True
    assert doc["dual_subdivision"]["cells"] == [
        {"vertices": [[0, 0], [1, 0], [0, 1]]}
    ]
    text = svg.read_text()
    assert text.startswith("<svg")
    assert text.count("<line") == 3
    assert text.count("<circle") == 1


def test_curve_svg_bounded_edges_and_weight_labels(tmp_path, capsys):
    # the tied conic has two bounded edges of weight 1; the sparse cubic has
    # three bounded edges and three rays of weight 3, which are labelled
    tied = ('{"terms": [{"exp": [0,0], "coeff": "0"}, {"exp": [1,0], "coeff": "-1"}, '
            '{"exp": [0,1], "coeff": "-1"}, {"exp": [1,1], "coeff": "-2"}, '
            '{"exp": [2,0], "coeff": "-4"}, {"exp": [0,2], "coeff": "-4"}]}')
    sparse = ('{"terms": [{"exp": [0,0], "coeff": "0"}, {"exp": [3,0], "coeff": "0"}, '
              '{"exp": [0,3], "coeff": "0"}, {"exp": [1,1], "coeff": "1/2"}, '
              '{"exp": [2,0], "coeff": "-3"}]}')
    for poly, counts in ((tied, (8, 3, 0)), (sparse, (6, 3, 3))):
        svg = tmp_path / "curve.svg"
        code, _, err = run(["curve", "--poly", poly, "--svg", str(svg)], capsys)
        assert (code, err) == (0, "")
        text = svg.read_text()
        assert tuple(text.count(tag) for tag in ("<line", "<circle", "<text")) == counts


def test_curve_from_file(tmp_path, capsys):
    p = tmp_path / "poly.json"
    p.write_text(LINE)
    code, out, _ = run(["curve", "--poly", str(p)], capsys)
    assert code == 0
    assert json.loads(out)["genus"] == 0


def test_exit_code_2_malformed_inputs(capsys):
    bad = [
        ["count", "--polygon", "{ not json", "--genus", "0"],
        ["count", "--polygon", "/nonexistent/poly.json", "--genus", "0"],
        ["count", "--polygon", '{"vertices": [[0,0],[1,1],[2,2]]}', "--genus", "0"],
        ["count", "--polygon", D2, "--genus", "0", "--order", "1,0"],
        ["real-count", "--polygon", D2, "--genus", "0", "--signs", "xx"],
        ["real-count", "--polygon", D2, "--genus", "0", "--signs", "++,--"],
        ["count", "--polygon", D2, "--genus", "0", "--jobs", "0"],
        ["count", "--polygon", D2, "--genus", "0", "--jobs", "many"],
        ["paths", "--polygon", D2, "--genus", "0", "--jobs", "0"],
        ["table", "--jobs", "many"],
        # inexact JSON numbers are refused, not truncated or rounded
        ["count", "--polygon", '{"vertices": [[0,0],[3.9,0],[0,3]]}', "--genus", "0"],
        ["curve", "--poly", '{"terms": [{"exp": [0.5,0], "coeff": "1"}, '
         '{"exp": [1,0], "coeff": "3"}, {"exp": [0,1], "coeff": "5"}]}'],
        ["curve", "--poly", '{"terms": [{"exp": [1,0], "coeff": 0.1}, '
         '{"exp": [0,1], "coeff": "5"}, {"exp": [0,0], "coeff": "1"}]}'],
        # so are strings and booleans, which would otherwise read as 3 and 1
        ["count", "--polygon", '{"vertices": [[0,0],["3",0],[0,true]]}', "--genus", "0"],
        ["curve", "--poly", '{"terms": [{"exp": [true,"0"], "coeff": "3"}, '
         '{"exp": [0,1], "coeff": "5"}, {"exp": [0,0], "coeff": "1"}]}'],
        ["curve", "--poly", '{"terms": [{"exp": [1,"0"], "coeff": "3"}, '
         '{"exp": [0,1], "coeff": "5"}, {"exp": [0,0], "coeff": "1"}]}'],
        # an exponent is a pair, given once
        ["curve", "--poly", '{"terms": [{"exp": [1], "coeff": "3"}, '
         '{"exp": [0,1], "coeff": "5"}, {"exp": [0,0], "coeff": "1"}]}'],
        ["curve", "--poly", '{"terms": [{"exp": [1,0,7], "coeff": "3"}, '
         '{"exp": [0,1], "coeff": "5"}, {"exp": [0,0], "coeff": "1"}]}'],
        ["curve", "--poly", '{"terms": [{"exp": [1,0], "coeff": "3"}, {"exp": [1,0], "coeff": "-9"}, '
         '{"exp": [0,1], "coeff": "5"}, {"exp": [0,0], "coeff": "1"}]}'],
    ]
    for argv in bad:
        code, out, err = run(argv, capsys)
        assert code == 2, argv
        assert err
        assert out == "", argv


def test_curve_refuses_bool_coefficients_and_odd_exponents(capsys):
    # a JSON true is not the coefficient 1: exit 2 with nothing on stdout
    poly = '{"terms": [{"exp": [1,0], "coeff": true}, {"exp": [0,1], "coeff": "5"}, {"exp": [0,0], "coeff": "1"}]}'
    code, out, err = run(["curve", "--poly", poly], capsys)
    assert (code, out) == (2, "")
    assert "coefficients must be int, Fraction or 'p/q' string, got True" in err
    # the constructor's exponent check leaves the command's exit codes and
    # messages as they were
    for exp in ("[1]", "[1,0,7]"):
        code, out, err = run(["curve", "--poly", LINE.replace("[1,0]", exp)], capsys)
        assert (code, out) == (2, "")
        assert f"an exponent has two coordinates, got {json.loads(exp)!r}" in err


def test_exit_code_2_usage_errors(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["count"])
    assert cli.main(["count"]) == 2
    capsys.readouterr()
    assert cli.main(["no-such-command"]) == 2
    capsys.readouterr()


def test_exit_code_3_mathematical_inputs(capsys):
    bad = [
        ["count", "--polygon", D2, "--genus", "-6"],
        ["count", "--polygon", D2, "--genus", "0", "--order", "1,0/2,0"],
        [
            "curve",
            "--poly",
            '{"terms": [{"exp": [0,0], "coeff": "0"}, {"exp": [1,1], "coeff": "1"}]}',
        ],
    ]
    for argv in bad:
        code, _, err = run(argv, capsys)
        assert code == 3, argv
        assert "error" in err


def test_jobs_determinism(capsys):
    base = None
    for argv in (
        ["count", "--polygon", D3, "--genus", "-1", "--per-path"],
        ["count", "--polygon", D3, "--genus", "-1", "--per-path", "--jobs", "3"],
    ):
        code, out, _ = run(argv, capsys)
        assert code == 0
        if base is None:
            base = out
        assert out == base


def test_cli_as_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "tropico.cli", "count", "--polygon", D3, "--genus", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "12\n"


PER_PATH_COMMANDS = {
    "paths": (["--list"], "paths"),
    "count": (["--per-path"], "per_path"),
    "welschinger": (["--per-path"], "per_path"),
    "real-count": (["--per-path"], "per_path"),
}


def _library_rows(P, order, n, command, choices):
    """(points, plus, minus, product) per path from the public per-path
    functions; every path for `paths --list`, else the contributing ones."""
    rows = []
    for path in enumerate_paths(P, order, n):
        if command == "real-count":
            signed = SignedPath.from_choices(path, choices)
            plus, minus = (mu_real_side(P, order, signed, side) for side in (Side.PLUS, Side.MINUS))
        else:
            side_fn = nu_real_side if command == "welschinger" else mu_side
            plus, minus = (side_fn(P, order, path, side) for side in (Side.PLUS, Side.MINUS))
        if command == "paths" or plus * minus != 0:
            rows.append(([list(p) for p in path], plus, minus, plus * minus))
    return rows


def _cli_rows(out, fmt, key):
    if fmt == "json":
        return [
            (r["points"], int(r["plus"]), int(r["minus"]), int(r["product"]))
            for r in json.loads(out)[key]
        ]
    lines = out.splitlines()
    assert lines[0] == "plus\tminus\tproduct\tpoints"
    rows = []
    for line in lines[1:]:
        if line.startswith("n_paths") or "\t" not in line:
            break
        plus, minus, product, points = line.split("\t")
        rows.append((json.loads(points)["points"], int(plus), int(minus), int(product)))
    return rows


def test_per_path_rows_match_library(capsys):
    tokens = list(cli.SIGN_TOKENS)
    listed_plus_zero = 0
    for text in (D3, CUSP):
        P = LatticePolygon([tuple(v) for v in json.loads(text)["vertices"]])
        s, _ = P.counts()
        for order_text in (None, "2,1/1,-3"):
            order = cli._parse_order(order_text)
            order_flag = [] if order_text is None else [f"--order={order_text}"]
            for g in (-1, 0):
                n = s + g - 1
                signs = [tokens[j % 4] for j in range(n)]
                for command, (flags, key) in PER_PATH_COMMANDS.items():
                    extra = ["--signs", ",".join(signs)] if command == "real-count" else []
                    expected = _library_rows(
                        P, order, n, command, [cli.SIGN_TOKENS[t] for t in signs]
                    )
                    for fmt in ("tsv", "json"):
                        argv = [command, "--polygon", text, "--genus", str(g),
                                "--format", fmt, *order_flag, *flags, *extra]
                        code, out, _ = run(argv, capsys)
                        assert code == 0, argv
                        assert _cli_rows(out, fmt, key) == expected, argv
                    if command == "paths":
                        listed_plus_zero += sum(1 for r in expected if r[1] == 0 and r[2] != 0)
    # listed paths whose plus side is 0 still report their minus side
    assert listed_plus_zero > 0
