"""One benchmark job in a fresh interpreter: `python3 child.py '<spec JSON>'`.

run.py starts this with `src` on PYTHONPATH and reads the last line of its
standard output, one JSON object.  Modes:

  setup    import tropico (tropico.cli for cli-mix), build a round's inputs,
           print "ready" and exit; run.py times spawn -> "ready".
  job      one count / real / welschinger job.  Untraced it times the
           library function; traced it runs the library's own path loop
           through the public per-path functions, with a span per call.
  cli      traced cli job: time `import tropico.cli` and `cli.main(argv)`
           with stdout captured.
  library  the same query as a cli job, through the library.
  session  the curves-session workload: rounds of curve and decode jobs in
           this one process, untraced or traced.

Spans are [name, start, end, parent index] with perf_counter times, kept in
memory and written to a gzip JSON-lines file when the child ends.  Checks
that need the library (curves jobs) run here, outside the timed spans.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import random
import sys
from fractions import Fraction
from time import perf_counter

import workloads

LAYERS = ("lattice", "paths", "real", "curves", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []

    def open(self, name: str, parent: int | None = None) -> int:
        self.spans.append([name, perf_counter(), None, parent])
        return len(self.spans) - 1

    def close(self, i: int) -> None:
        self.spans[i][2] = perf_counter()

    def duration(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def summary(self) -> dict:
        """Total time per span name, and self time per layer: a span's
        duration minus the part its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        span_s: dict[str, float] = {}
        self_s = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _), covered in zip(self.spans, child_time):
            span_s[name] = span_s.get(name, 0.0) + (end - start)
            layer = name.split(".")[0]
            if layer in self_s:
                self_s[layer] += end - start - covered
        return {"span_s": span_s, "self_s": self_s}

    def write(self, path: str, job_id: int) -> None:
        with gzip.open(path, "at", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([job_id, name, start, end, parent]) + "\n")


class NullTracer(Tracer):
    """Same calls, nothing recorded: the untraced session path."""

    def open(self, name, parent=None):
        return 0

    def close(self, i):
        pass


def _polygon(name):
    from tropico import LatticePolygon

    return LatticePolygon([tuple(p) for p in workloads.polygon_vertices(name)])


def _order(job):
    from tropico import LinearOrder

    if job.get("order") is None:
        return LinearOrder.default()
    primary, tiebreak = job["order"]
    return LinearOrder(primary, tiebreak)


def _choices(job):
    return [tuple(s) for s in job["signs"]]


def _build(job, tr: Tracer):
    from tropico import boundary_chains

    b = tr.open("lattice.build")
    P = _polygon(job["polygon"])
    order = _order(job)
    boundary_chains(P, order)
    tr.close(b)
    return P, order


def untraced_job(job) -> dict:
    from tropico import count, real_signed_count, welschinger_count

    P, order = _build(job, NullTracer())
    g = job["genus"]
    kind = job["kind"]
    t0 = perf_counter()
    if kind == "count":
        value = count(P, g, order)
    elif kind == "welschinger":
        value = welschinger_count(P, g, order)
    else:
        value = real_signed_count(P, g, order, _choices(job))
    seconds = perf_counter() - t0
    return {"value": value, "seconds": seconds}


def traced_job(job, tr: Tracer) -> dict:
    """The library's path-sum loop (paths.count, real.real_signed_count,
    real.welschinger_count) through the public per-path functions, in the
    library's evaluation order: the minus side only when the plus side is
    nonzero."""
    from tropico import Side, SignedPath, enumerate_paths, mu_real_side, mu_side, nu_real_side

    P, order = _build(job, tr)
    kind = job["kind"]
    n = workloads.steps(job["polygon"], job["genus"])
    side_fn, plus_span, minus_span, *count_names = {
        "count": (mu_side, "paths.mu_plus", "paths.mu_minus",
                  "paths.enumerated", "paths.plus_nonzero", "paths.contributing"),
        "real": (mu_real_side, "real.mu_real_plus", "real.mu_real_minus",
                 "real.enumerated", "real.plus_nonzero", "real.real_nonzero"),
        "welschinger": (nu_real_side, "real.nu_plus", "real.nu_minus",
                        "real.nu_enumerated", "real.nu_plus_nonzero", "real.nu_nonzero"),
    }[kind]
    if kind == "real":
        choices = _choices(job)
    j = tr.open("job")
    e = tr.open("paths.enumerate", j)
    paths = list(enumerate_paths(P, order, n))
    tr.close(e)
    total = plus_nonzero = nonzero = 0
    for pts in paths:
        arg = pts
        if kind == "real":
            s = tr.open("real.sign_classes", j)
            arg = SignedPath.from_choices(pts, choices)
            tr.close(s)
        s = tr.open(plus_span, j)
        plus = side_fn(P, order, arg, Side.PLUS)
        tr.close(s)
        if plus:
            plus_nonzero += 1
            s = tr.open(minus_span, j)
            minus = side_fn(P, order, arg, Side.MINUS)
            tr.close(s)
            if minus:
                nonzero += 1
                total += plus * minus
    tr.close(j)
    counts = dict(zip(count_names, (len(paths), plus_nonzero, nonzero)))
    return {"value": total, "seconds": tr.duration(j), "counts": counts}


def _edge_key(a, b):
    return (a, b) if a <= b else (b, a)


def decode_job(job, tr: Tracer) -> dict:
    """decode -> marked_dual_graph -> curve_real_multiplicity over the
    contributing paths, with the check of both identities afterwards."""
    from tropico import (
        Side,
        curve_real_multiplicity,
        decode,
        enumerate_paths,
        marked_dual_graph,
        mu_side,
        real_signed_count,
        sign_class_of,
    )

    P, order = _build(job, tr)
    g = job["genus"]
    choices = _choices(job)
    t0 = perf_counter()
    j = tr.open("job")
    e = tr.open("paths.enumerate", j)
    paths = list(enumerate_paths(P, order, workloads.steps(job["polygon"], g)))
    tr.close(e)
    real_total = decoded = 0
    sums = []
    for pts in paths:
        s = tr.open("paths.mu_plus", j)
        plus = mu_side(P, order, pts, Side.PLUS)
        tr.close(s)
        if not plus:
            continue
        s = tr.open("paths.mu_minus", j)
        minus = mu_side(P, order, pts, Side.MINUS)
        tr.close(s)
        if not minus:
            continue
        s = tr.open("paths.decode", j)
        curves = decode(P, order, pts)
        tr.close(s)
        s = tr.open("real.sign_classes", j)
        signs = {
            _edge_key(pts[k], pts[k + 1]): sign_class_of(
                (pts[k + 1][0] - pts[k][0], pts[k + 1][1] - pts[k][1]), choices[k]
            )
            for k in range(len(pts) - 1)
        }
        tr.close(s)
        for c in curves:
            s = tr.open("curves.marked_dual_graph", j)
            G = marked_dual_graph(c)
            tr.close(s)
            s = tr.open("real.oracle", j)
            real_total += curve_real_multiplicity(G, signs)
            tr.close(s)
        decoded += len(curves)
        sums.append((plus * minus, sum(c.multiplicity for c in curves)))
    tr.close(j)
    seconds = perf_counter() - t0
    c0 = perf_counter()
    error = None
    if any(m != d for m, d in sums):
        error = "decoded multiplicities do not sum to mu"
    elif real_total != real_signed_count(P, g, order, choices):
        error = "curve-level real sum differs from real_signed_count"
    counts = {"paths.curves_decoded": decoded}
    return {"value": real_total, "seconds": seconds, "counts": counts, "error": error,
            "check_s": perf_counter() - c0}


def poly_job(job, tr: Tracer) -> dict:
    from tropico import TropicalPolynomial, canonicalize, check_balancing, curve_of, dual_subdivision

    f = TropicalPolynomial({(x, y): Fraction(c) for x, y, c in job["terms"]})
    t0 = perf_counter()
    j = tr.open("job")
    s = tr.open("curves.curve_of", j)
    C = curve_of(f)
    tr.close(s)
    s = tr.open("curves.dual_subdivision", j)
    D = dual_subdivision(f)
    tr.close(s)
    s = tr.open("curves.canonicalize", j)
    h = canonicalize(f)
    tr.close(s)
    s = tr.open("curves.check_balancing", j)
    balanced = check_balancing(C)
    tr.close(s)
    tr.close(j)
    seconds = perf_counter() - t0
    c0 = perf_counter()
    error = None
    if not balanced:
        error = "curve is not balanced"
    elif (len(C.vertices), len(C.bounded_edges), len(C.rays)) != (
        len(D.cells), len(D.interior_edges()), len(D.boundary_edges())
    ):
        error = "curve and dual subdivision counts disagree"
    elif canonicalize(h) != h:
        error = "canonicalize is not idempotent"
    counts = {"curves.support_points": len(f.terms), "curves.cells": len(D.cells)}
    return {"value": len(D.cells), "seconds": seconds, "counts": counts, "error": error,
            "check_s": perf_counter() - c0}


# The session reports its peak RSS after this many rounds: a faster program
# fits more rounds into a run and grows its caches further, and it should not
# be charged for that.
RSS_ROUNDS = 10


def session(spec) -> dict:
    """curves-session: whole rounds in this process until `seconds` have
    passed, or exactly `rounds` rounds when given (the traced replay)."""
    import resource

    import tropico  # noqa: F401  (import cost stays out of the first job)

    trace_path = spec.get("trace_path")
    start = perf_counter()
    jobs, r, rss_kb = [], 0, None
    while (r < spec["rounds"]) if spec.get("rounds") else (perf_counter() - start < spec["seconds"]):
        for job in workloads.round_jobs("curves", spec["seed"], r, spec.get("lite", False)):
            tr = Tracer() if trace_path else NullTracer()
            res = (poly_job if job["kind"] == "poly" else decode_job)(job, tr)
            res.update(kind=job["kind"], polygon=job["polygon"], genus=job.get("genus"))
            if trace_path:
                res.update(tr.summary())
                tr.write(trace_path, spec["job_id"] + len(jobs))
            jobs.append(res)
        r += 1
        if r == RSS_ROUNDS:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    loop_s = perf_counter() - start
    if rss_kb is None:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"rounds": r, "loop_s": loop_s, "rss_kb": rss_kb, "jobs": jobs}


def cli_job(spec, tr: Tracer) -> dict:
    i = tr.open("cli.import")
    import tropico.cli as cli
    tr.close(i)
    buf = io.StringIO()
    m = tr.open("cli.main")
    with contextlib.redirect_stdout(buf):
        rc = cli.main(spec["job"]["argv"])
    tr.close(m)
    return {"stdout": buf.getvalue(), "rc": rc}


def library_job(spec, tr: Tracer) -> dict:
    """The cli query through the library: the same totals, plus a second
    count under another order where the cli cross-checks its answer."""
    from tropico import count, enumerate_paths, mu, real_signed_count, welschinger_count

    q = spec["job"]["query"]
    other = {"order": workloads.random_order(random.Random(json.dumps(q, sort_keys=True)))}
    cmd = q["command"]
    if cmd == "table":
        cells = [(p, g, _polygon(p)) for p, g in workloads.table_cells(q["family"], q["dmax"])]
    else:
        P, order = _polygon(q["polygon"]), _order(q)
        g = q["genus"]
    s = tr.open("cli.library_equiv")
    if cmd == "table":
        value = {f"{p}:{g}": count(Pc, g) for p, g, Pc in cells}
        for _, g, Pc in cells:
            count(Pc, g, _order(other))
    elif cmd == "count":
        value = count(P, g, order)
        count(P, g, _order(other))
    elif cmd == "welschinger":
        value = welschinger_count(P, g, order)
        welschinger_count(P, g, _order(other))
    elif cmd == "real-count":
        value = real_signed_count(P, g, order, _choices(q))
    else:  # paths
        mus = [mu(P, order, pts) for pts in enumerate_paths(P, order, workloads.steps(q["polygon"], g))]
        value = [len(mus), sum(1 for m in mus if m), sum(mus)]
    tr.close(s)
    return {"value": value}


def setup(spec) -> None:
    """Import and build one round's inputs, then report ready."""
    group = workloads.GROUP_OF[spec["workload"]]
    jobs = workloads.round_jobs(group, spec["seed"], 0)
    if group == "cli":
        import tropico.cli  # noqa: F401  (its inputs are the argv lists themselves)
    else:
        from tropico import TropicalPolynomial

        for job in jobs:
            if job["kind"] == "poly":
                TropicalPolynomial({(x, y): Fraction(c) for x, y, c in job["terms"]})
            else:
                _build(job, NullTracer())
    print("ready", flush=True)


def main() -> int:
    spec = json.loads(sys.argv[1])
    mode = spec["mode"]
    if mode == "setup":
        setup(spec)
        return 0
    if mode == "session":
        out = session(spec)
    else:
        trace_path = spec.get("trace_path")
        tr = Tracer() if trace_path else NullTracer()
        if mode == "cli":
            out = cli_job(spec, tr)
        elif mode == "library":
            out = library_job(spec, tr)
        elif trace_path:
            out = traced_job(spec["job"], tr)
        else:
            out = untraced_job(spec["job"])
        if trace_path:
            out.update(tr.summary())
            tr.write(trace_path, spec["job_id"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
