"""tropico benchmark: python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is taken from `src`.
Each workload is a closed loop with one client: the next job starts when
the previous one has finished.  Job inputs come from workloads.py and the
seed; jobs run in fresh interpreters (child.py, or `python -m tropico.cli`)
except curves-session, which is one long-lived process.  Every job's output
is checked outside its timed span, against reference.json or against the
bounds that hold for any order.

--trace 0 prints the end-to-end metrics; --trace 1 is the separate traced
run that prints the per-layer metrics and writes its spans under
.bench_trace/.  The last line of standard output is the JSON result.  See
README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
from time import perf_counter

import workloads as wl

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH, "child.py")
JOB_TIMEOUT_S = 90
SETUP_SAMPLES = 7

# Independent values the reference table must agree with: the acceptance
# count table for degrees 1-4 and the acceptance genus-0 Welschinger counts.
ACCEPTANCE_COUNTS = {
    "tri1": {0: 1},
    "tri2": {-1: 3, 0: 1},
    "tri3": {-1: 21, 0: 12, 1: 1},
    "tri4": {-1: 666, 0: 675, 1: 225, 2: 27, 3: 1},
}
ACCEPTANCE_WELSCHINGER = {"tri3": 8, "cusp": 1}


def load_reference() -> dict:
    """reference.json, after checking it against the acceptance values and
    the criterion-05 identity count(P, l - 1) = 3 * (2 Area) - 2 s + #vertices
    wherever the table has the genus l - 1 (l = interior points)."""
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    counts = {p: {int(g): v for g, v in col.items()} for p, col in ref["count"].items()}
    for p, col in ACCEPTANCE_COUNTS.items():
        for g, v in col.items():
            if counts[p][g] != v:
                raise ValueError(f"reference count {p} g={g} is {counts[p][g]}, acceptance says {v}")
    for p, col in counts.items():
        if p == "cusp":  # the identity is for smooth toric surfaces: triangles and rectangles here
            continue
        verts = wl.polygon_vertices(p)
        g = wl.interior_points(p) - 1
        if g in col:
            area2 = abs(sum(a[0] * b[1] - a[1] * b[0] for a, b in zip(verts, verts[1:] + verts[:1])))
            expect = 3 * area2 - 2 * wl.boundary_points(p) + len(verts)
            if col[g] != expect:
                raise ValueError(f"reference count {p} g={g} breaks the discriminant identity")
    for p, v in ACCEPTANCE_WELSCHINGER.items():
        if ref["welschinger"][p]["0"] != v:
            raise ValueError(f"reference Welschinger count of {p} is not {v}")
    return {"count": counts, "welschinger": {p: col["0"] for p, col in ref["welschinger"].items()},
            "paths": ref["paths"]}


# -- checks -------------------------------------------------------------------


def check_value(ref: dict, query: dict, value) -> str | None:
    """None when `value` is a correct answer to the query, else why not.
    Order-independent answers are compared exactly; signed counts under a
    seeded order are held to 0 <= R <= N, R = N mod 2 and |W| <= N."""
    kind = query.get("command") or query["kind"]
    if kind == "poly":  # checked in the session child, which holds the curve objects
        return None
    if kind == "table":
        expect = {f"{p}:{g}": ref["count"][p][g] for p, g in wl.table_cells(query["family"], query["dmax"])}
        return None if value == expect else "table differs from the reference"
    p, g = query["polygon"], query["genus"]
    N = ref["count"][p][g]
    if kind == "count":
        return None if value == N else f"count {value} != {N}"
    if kind == "paths":
        expect = [wl.n_paths(p, g), ref["paths"][p][str(g)]["contributing"], N]
        return None if value == expect else f"paths summary {value} != {expect}"
    if kind == "welschinger":
        if g == 0:
            W = ref["welschinger"][p]
            return None if value == W else f"welschinger {value} != {W}"
        return None if abs(value) <= N else f"|welschinger| {value} > {N}"
    if kind in ("real", "real-count", "decode"):
        return None if 0 <= value <= N and (N - value) % 2 == 0 else f"real count {value} breaks the bounds of {N}"
    return f"unknown job kind {kind}"


def parse_cli(query: dict, stdout: str):
    lines = stdout.strip().splitlines()
    if query["command"] == "table":
        header = lines[0].split("\t")[1:]
        prefix = "tri" if query["family"] == "projective" else "rect"
        out = {}
        for row in lines[1:]:
            g, *cells = row.split("\t")
            for col, v in zip(header, cells):
                out[f"{prefix}{col[1:]}:{g}"] = int(v)
        return out
    if query["command"] == "paths":
        return [int(x) for x in lines[-1].split("\t")]
    return int(lines[-1])


# -- child processes ----------------------------------------------------------


def spawn(argv: list[str], wait_ready: bool = False) -> dict:
    """Run a child to completion with its stdout and stderr drained, and reap
    it with os.wait4 for its own peak RSS (RUSAGE_CHILDREN would only give a
    running maximum over all children).  The child leads its own process
    group, so a timeout kills any workers it started too."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("TROPICO_JOBS", None)
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    out, err = bytearray(), bytearray()
    ready_s, timed_out = None, False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ, out)
        sel.register(proc.stderr, selectors.EVENT_READ, err)
        while sel.get_map():
            left = t0 + JOB_TIMEOUT_S - perf_counter()
            if left <= 0 and not timed_out:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                timed_out = True
            for key, _ in sel.select(max(left, 0.1)):
                chunk = os.read(key.fd, 1 << 16)
                if not chunk:
                    sel.unregister(key.fileobj)
                    continue
                key.data.extend(chunk)
                if wait_ready and ready_s is None and key.data is out and b"\n" in out:
                    ready_s = perf_counter() - t0
    _, status, usage = os.wait4(proc.pid, 0)
    wall_s = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {"rc": proc.returncode, "stdout": out.decode(), "stderr": err.decode(), "wall_s": wall_s,
            "ready_s": ready_s, "rss_kb": usage.ru_maxrss, "timed_out": timed_out}


def run_child(spec: dict) -> tuple[dict | None, dict, str | None]:
    """(parsed last stdout line, raw spawn record, failure reason)."""
    r = spawn([sys.executable, CHILD, json.dumps(spec)])
    if r["timed_out"]:
        return None, r, f"timed out after {JOB_TIMEOUT_S} s"
    if r["rc"] != 0:
        return None, r, f"exit {r['rc']}: {r['stderr'].strip()[-300:]}"
    try:
        return json.loads(r["stdout"].strip().splitlines()[-1]), r, None
    except (ValueError, IndexError):
        return None, r, "no JSON result line"


class Runner:
    """Runs jobs, checks them outside their timed spans and keeps the record:
    one entry per job with its in-process time (`seconds`), its spawn-to-exit
    time (`wall_s`, None inside the curves session), peak RSS and failure.
    `untimed_s` adds up the time the timed phase spends on checks and on
    set-up samples, which run.py leaves out of the elapsed time."""

    def __init__(self, ref: dict, workload: str, seed: int, trace_path: str | None = None):
        self.ref = ref
        self.trace_path = trace_path
        self.jobs: list[dict] = []
        self.setup_samples: list[float] = []
        self.untimed_s = 0.0
        self._setup_argv = [sys.executable, CHILD, json.dumps({"mode": "setup", "workload": workload, "seed": seed})]

    def _record(self, seconds: float, wall_s: float | None, rss_kb: int, error: str | None,
                out: dict | None = None) -> dict:
        rec = {"seconds": seconds, "wall_s": wall_s, "rss_kb": rss_kb, "error": error, "out": out or {}}
        self.jobs.append(rec)
        return rec

    def _check(self, query: dict, value) -> str | None:
        c0 = perf_counter()
        try:
            return check_value(self.ref, query, value)
        finally:
            self.untimed_s += perf_counter() - c0

    def sample_setup(self, keep: bool = True) -> None:
        """One spawn -> ready of a fresh interpreter that imports tropico
        (tropico.cli for cli-mix) and builds a round's inputs."""
        r = spawn(self._setup_argv, wait_ready=True)
        self.untimed_s += r["wall_s"]
        if r["rc"] != 0 or r["ready_s"] is None:
            raise RuntimeError(f"setup child failed: {r['stderr'].strip()[-300:]}")
        if keep:
            self.setup_samples.append(r["ready_s"])

    def library(self, job: dict, traced: bool = False) -> dict:
        spec = {"mode": "job", "job": job}
        if traced:
            spec.update(trace_path=self.trace_path, job_id=len(self.jobs))
        out, r, error = run_child(spec)
        if out is None:
            return self._record(r["wall_s"], r["wall_s"], r["rss_kb"], error)
        return self._record(out["seconds"], r["wall_s"], r["rss_kb"], self._check(job, out["value"]), out)

    def cli(self, job: dict) -> dict:
        """Untraced cli job: `python -m tropico.cli`, timed from spawn to exit."""
        r = spawn([sys.executable, "-m", "tropico.cli", *job["argv"]])
        error = f"exit {r['rc']}: {r['stderr'].strip()[-300:]}" if r["rc"] != 0 else None
        if r["timed_out"]:
            error = f"timed out after {JOB_TIMEOUT_S} s"
        if error is None:
            try:
                error = self._check(job["query"], parse_cli(job["query"], r["stdout"]))
            except (ValueError, IndexError):
                error = f"unparsable cli output {r['stdout'][:200]!r}"
        return self._record(r["wall_s"], r["wall_s"], r["rss_kb"], error)

    def traced_cli(self, job: dict) -> tuple[dict, dict]:
        """cli.main in a fresh child with stdout captured, then the same
        query through the library in another fresh child."""
        out, r, error = run_child({"mode": "cli", "job": job, "trace_path": self.trace_path,
                                   "job_id": len(self.jobs)})
        if out is not None:
            error = f"cli exit {out['rc']}" if out["rc"] != 0 else None
            if error is None:
                try:
                    error = self._check(job["query"], parse_cli(job["query"], out["stdout"]))
                except (ValueError, IndexError):
                    error = "unparsable cli output"
        main = self._record(r["wall_s"], r["wall_s"], r["rss_kb"], error, out)
        out, r, error = run_child({"mode": "library", "job": job, "trace_path": self.trace_path,
                                   "job_id": len(self.jobs)})
        if out is not None:
            error = self._check(job["query"], out["value"])
        return main, self._record(r["wall_s"], r["wall_s"], r["rss_kb"], error, out)

    def session(self, seed: int, seconds: float, rounds: int | None = None, lite: bool = False,
                traced: bool = False) -> tuple[list[dict], dict | None]:
        """curves-session in one child; its jobs share that process's peak RSS,
        as the child reads it after its first rounds (child.RSS_ROUNDS)."""
        spec = {"mode": "session", "seed": seed, "seconds": seconds, "rounds": rounds, "lite": lite}
        if traced:
            spec.update(trace_path=self.trace_path, job_id=len(self.jobs))
        out, r, error = run_child(spec)
        if out is None:
            return [self._record(r["wall_s"], r["wall_s"], r["rss_kb"], error)], None
        recs = []
        for job in out["jobs"]:
            self.untimed_s += job["check_s"]
            error = job["error"] or self._check(job, job["value"])
            recs.append(self._record(job["seconds"], None, out["rss_kb"], error, job))
        return recs, out


# -- end-to-end run -----------------------------------------------------------


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile of `times` with at least ten samples beyond it,
    that percentile, and the number of samples beyond it (fewer than ten
    only when there are ten or fewer samples; then it is the minimum)."""
    ordered = sorted(times)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def timed_run(runner: Runner, workload: str, seed: int, seconds: float) -> tuple[dict, str]:
    """Whole rounds of the workload, a new one started while fewer than
    `seconds` have passed.  A set-up sample runs before every job (before and
    after the session for curves-session), so the set-up median spans the
    run; set-up samples and checks are left out of the elapsed time."""
    runner.sample_setup(keep=False)  # writes the bytecode cache, as any installed copy has it
    group = wl.GROUP_OF[workload]
    if group == "curves":
        for _ in range(SETUP_SAMPLES):
            runner.sample_setup()
        runner.untimed_s = 0.0
        recs, out = runner.session(seed, seconds)
        elapsed = (out["loop_s"] if out else recs[0]["seconds"]) - runner.untimed_s
        for _ in range(SETUP_SAMPLES):
            runner.sample_setup()
    else:
        start, r = perf_counter(), 0
        while perf_counter() - start < seconds:
            for job in wl.round_jobs(group, seed, r):
                runner.sample_setup()
                runner.cli(job) if job["kind"] == "cli" else runner.library(job)
            r += 1
        elapsed = perf_counter() - start - runner.untimed_s
    # a fresh-interpreter job is timed from spawn to exit, as its user waits for it
    times = [j["wall_s"] if j["wall_s"] is not None else j["seconds"] for j in runner.jobs]
    done = sum(1 for j in runner.jobs if j["error"] is None)
    tail_s, pct, beyond = tail(times)
    metrics = {
        "setup_s": (statistics.median(runner.setup_samples), "s"),
        "jobs_per_s": (done / elapsed, "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "peak_rss_mb": (max(j["rss_kb"] for j in runner.jobs) / 1024, "MB"),
    }
    call_p50 = statistics.median(j["seconds"] for j in runner.jobs)
    note = (f"job_tail_s {tail_s:.6f} s = p{pct:.1f} of {len(times)} jobs ({beyond} beyond it);"
            f" in-process call p50 {call_p50:.6f} s; elapsed {elapsed:.3f} s;"
            f" {len(runner.setup_samples)} set-up samples")
    return metrics, note


# -- traced run -----------------------------------------------------------------


class LayerTotals:
    """Span and counter totals of one layer group over its rounds."""

    def __init__(self):
        self.rounds = 0
        self.span_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.traced_s = self.untraced_s = 0.0
        self.pool_s: dict[int, float] = {}

    def add(self, out: dict) -> None:
        for field in ("span_s", "self_s", "counts"):
            mine = getattr(self, field)
            for k, v in out.get(field, {}).items():
                mine[k] = mine.get(k, 0) + v


def _trace_group(runner: Runner, group: str, seed: int, seconds: float, lite: bool) -> LayerTotals:
    """Each job untraced then traced (fresh interpreter each, so both start
    cold); cli jobs run cli.main and the library equivalent instead.  The
    workload's own group repeats whole rounds until `seconds` have passed."""
    tot = LayerTotals()
    start = perf_counter()
    if group == "curves":
        plain, out = runner.session(seed, seconds, rounds=1 if lite else None, lite=lite)
        if out is None:
            return tot
        traced, _ = runner.session(seed, seconds, rounds=out["rounds"], lite=lite, traced=True)
        tot.rounds = out["rounds"]
        tot.untraced_s = sum(j["seconds"] for j in plain)
        tot.traced_s = sum(j["seconds"] for j in traced)
        for j in traced:
            tot.add(j["out"])
        return tot
    while tot.rounds == 0 or (not lite and perf_counter() - start < seconds):
        for job in wl.round_jobs(group, seed, tot.rounds, lite):
            if job["kind"] == "cli":
                main, equiv = runner.traced_cli(job)
                tot.add(main["out"])
                tot.add(equiv["out"])
                pool = job["query"].get("pool")
                if pool and main["error"] is None:
                    tot.pool_s[pool] = tot.pool_s.get(pool, 0.0) + main["out"]["span_s"]["cli.main"]
                continue
            plain = runner.library(job)
            traced = runner.library(job, traced=True)
            tot.untraced_s += plain["seconds"]
            tot.traced_s += traced["seconds"]
            tot.add(traced["out"])
        tot.rounds += 1
    return tot


TIME_METRICS = [
    "lattice.build", "paths.enumerate", "paths.mu_plus", "paths.mu_minus", "paths.decode",
    "real.sign_classes", "real.mu_real_plus", "real.mu_real_minus", "real.nu_plus", "real.nu_minus",
    "real.oracle", "curves.curve_of", "curves.dual_subdivision", "curves.canonicalize",
    "curves.marked_dual_graph", "cli.import", "cli.main", "cli.library_equiv",
]
COUNT_METRICS = ["paths.enumerated", "paths.plus_nonzero", "paths.contributing", "paths.curves_decoded",
                 "real.real_nonzero", "curves.support_points", "curves.cells"]


def traced_run(runner: Runner, workload: str, seed: int, seconds: float) -> tuple[dict, str]:
    """Per-layer numbers: the workload's own rounds plus one small round of
    every other layer group and the tri5 calibration job, all traced.  Each
    group's totals are divided by its round count, so values are per round."""
    own = wl.GROUP_OF[workload]
    groups = {"calibration": LayerTotals()}
    calib = groups["calibration"]
    plain = runner.library(wl.CALIBRATION)
    traced = runner.library(wl.CALIBRATION, traced=True)
    calib.rounds, calib.untraced_s, calib.traced_s = 1, plain["seconds"], traced["seconds"]
    calib.add(traced["out"])
    counts = traced["out"].get("counts", {})
    if traced["error"] is None and any(counts.get(k) != v for k, v in wl.CALIBRATION_COUNTS.items()):
        traced["error"] = f"calibration counts {counts} differ from {wl.CALIBRATION_COUNTS}"
    for group in ("count", "real", "curves", "cli"):
        groups[group] = _trace_group(runner, group, seed, seconds, lite=group != own)

    def per_round(field: str, key: str) -> float:
        return sum(getattr(t, field).get(key, 0) / t.rounds for t in groups.values() if t.rounds)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0  # only when a job failed, which marks the run incorrect

    m: dict[str, tuple[float, str]] = {}
    for name in TIME_METRICS:
        m[f"{name}_s"] = (per_round("span_s", name), "s")
    for layer in ("lattice", "paths", "real", "curves", "cli"):
        m[f"{layer}.self_s"] = (per_round("self_s", layer), "s")
    for name in COUNT_METRICS:
        m[name] = (per_round("counts", name), "count")
    m["paths.useful_ratio"] = (ratio(m["paths.contributing"][0], m["paths.enumerated"][0]), "ratio")
    m["real.real_useful_ratio"] = (ratio(m["real.real_nonzero"][0], per_round("counts", "real.enumerated")), "ratio")
    m["cli.overhead_ratio"] = (ratio(m["cli.main_s"][0], m["cli.library_equiv_s"][0]), "ratio")
    pool = groups["cli"].pool_s
    m["cli.pool_speedup"] = (ratio(pool.get(1, 0.0), pool.get(2, 0.0)), "ratio")
    traced_s = sum(t.traced_s / t.rounds for t in groups.values() if t.rounds)
    untraced_s = sum(t.untraced_s / t.rounds for t in groups.values() if t.rounds)
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    m["trace.overhead_ratio"] = (ratio(traced_s, untraced_s), "ratio")
    for k in wl.CALIBRATION_COUNTS:
        m[f"calib.tri5_g0.{k.split('.')[1]}"] = (counts.get(k, 0), "count")
    m["calib.tri5_g0.total"] = (traced["out"].get("value", 0), "count")
    rounds = {g: t.rounds for g, t in groups.items()}
    return m, f"rounds per group {rounds}; spans in {os.path.relpath(runner.trace_path, ROOT)}"


# -- entry point ----------------------------------------------------------------


def machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model, "python": platform.python_version(),
            "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            return next((ln.split()[0] for ln in fh if ln.rstrip().endswith(" " + ref)), "unknown")
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tropico", "__init__.py")):
        print(f"error: no tropico sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    ref = load_reference()
    print(json.dumps({"machine": machine(), "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}))
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_trace")
        os.makedirs(trace_dir, exist_ok=True)
        runner = Runner(ref, args.workload, args.seed, os.path.join(trace_dir, f"{args.workload}.jsonl.gz"))
        if os.path.exists(runner.trace_path):
            os.remove(runner.trace_path)
        metrics, note = traced_run(runner, args.workload, args.seed, args.seconds)
    else:
        runner = Runner(ref, args.workload, args.seed)
        metrics, note = timed_run(runner, args.workload, args.seed, args.seconds)
    failures = [j["error"] for j in runner.jobs if j["error"]]
    attempted = len(runner.jobs)
    print(f"{note}; failed_frac {len(failures) / attempted:.4f} ({len(failures)}/{attempted})")
    for reason in failures[:5]:
        print(f"failed: {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
