"""Benchmark of the cliffbundle CLI: scan, symbolic and fiber workloads.

    python3 perfbench/run.py --workload scan|symbolic|fiber|all \
        [--seed 7] [--seconds 10] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src/``.
Each workload is a closed loop with one client on one thread: the next job
starts when the previous one returns.  A job is ``cli.main(argv)`` called
in process with stdout captured, on JSON documents made by the program's
``catalog`` command from ``--seed`` (F25plus fibers run the library chain
``make_f25plus(net).fiber_form`` -> ``fiber_algebra`` -> ``classify``).

Set-up imports the package and writes the documents (three times; the
median counts) and runs one warm-up pass, whose outputs are checked.  The
timed region then runs whole passes over the same jobs until ``--seconds``
have elapsed (at least one pass); each job's stdout must equal its warm-up
stdout.  Every reported time is scaled to the reference speed of
``calibrate.py``; the raw times are printed above the result.

``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the per-layer
ones, from a separate run with spans (see ``tracing.py``).  The last line of
stdout is one JSON object; the lines above it are for people.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("scan", "symbolic", "fiber")
SETUP_REPEATS = 3
POOL_REPEATS = 2

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Jobs on the ROADMAP's fixed inputs (catalog seed 7 when --seed is 7), with
# the single-run times the ROADMAP re-anchor recorded for them.
ROADMAP_JOBS = {"scan F25minus_F101": "2600 ms", "recover F25minus_Q": "66 ms",
                "bsv-verify F25minus_Q": "60 ms"}
ROADMAP_SPANS = {"clifford.fiber_algebra": "fiber_algebra_at 0.56 ms",
                 "clifford.validate": "validate_fiber_algebra 1.8 ms",
                 "clifford.azumaya": "azumaya_at 3.1 ms"}

# The layer spans expected to dominate each workload's self time.
EXPECTED_DOMINANT = {
    "scan": ("poly.evaluate", "linalg.rref"),
    "symbolic": ("poly.mul", "brauer_severi.bipoly_mul", "poly.divide_exact",
                 "brauer_severi.divide"),
    "fiber": ("clifford.validate",),
}


class Program:
    """A fresh import of cliffbundle from the checkout's ``src/``."""

    def __init__(self):
        for name in [m for m in sys.modules
                     if m == tracing.PACKAGE or m.startswith(tracing.PACKAGE + ".")]:
            del sys.modules[name]
        self.cli = importlib.import_module("cliffbundle.cli")
        if Path(self.cli.__file__).resolve().parent.parent != SRC:
            raise ImportError(f"cliffbundle imported from {self.cli.__file__}, not {SRC}")
        self.catalog = importlib.import_module("cliffbundle.catalog")
        self.clifford = importlib.import_module("cliffbundle.clifford")
        self.linalg = importlib.import_module("cliffbundle.linalg")
        self.qform = importlib.import_module("cliffbundle.qform")

    def run_cli(self, argv):
        out = io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = self.cli.main(argv)
        except (Exception, SystemExit) as exc:
            return -1, f"{type(exc).__name__}: {exc}"
        return code, out.getvalue()

    def run_f25plus_chain(self, path, coords):
        try:
            net = self.cli.net_from_document(self.cli.load_document(path))
            point = self.qform.FiberPoint.make(net.domain, coords)
            form = self.catalog.make_f25plus(net).fiber_form(point)
            algebra = self.clifford.classify(
                self.clifford.fiber_algebra(form, net.domain))
            payload = {"point": str(point), "rank": self.linalg.rank(form, net.domain),
                       "algebra_type": int(algebra)}
        except Exception as exc:
            return -1, f"{type(exc).__name__}: {exc}"
        return 0, json.dumps({"command": "f25plus-chain", "status": "ok",
                              "payload": payload}, sort_keys=True)

    def run(self, job, paths):
        if job.argv is not None:
            return self.run_cli(job.argv)
        return self.run_f25plus_chain(paths[job.doc], job.point)


class Stopwatch:
    """Raw and reference-speed time of calls.

    A kernel sample is taken after every call and, when ``inside`` is set,
    every INTERVAL seconds during a call too, from a SIGALRM handler: a scan
    job runs for seconds, longer than the machine keeps one speed.  Samples
    taken inside a call are not counted in its time, and each stretch of the
    call between two samples is scaled by the mean of the two.
    """

    INTERVAL = 0.25

    def __init__(self):
        self.last = calibrate.sample()
        self.inside = False
        self._segments = None
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        if self._segments is None:
            return
        t0 = time.perf_counter_ns()
        kernel_ms = calibrate.sample()
        self._segments.append((self._start, t0, kernel_ms))
        self._start = time.perf_counter_ns()

    def time(self, fn, *args):
        """(result, raw seconds, seconds at the reference speed)."""
        self._segments = []
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        self._start = time.perf_counter_ns()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter_ns()
            signal.setitimer(signal.ITIMER_REAL, 0)
            segments, self._segments = self._segments, None
        segments.append((self._start, end, calibrate.sample()))
        raw = cal = 0.0
        before = self.last
        for start, stop, after in segments:
            raw += (stop - start) / 1e9
            cal += (stop - start) / 1e9 * calibrate.scale(before, after)
            before = after
        self.last = before
        return result, raw, cal


def generate(program, workload, docdir):
    """Write every document of the workload; returns (paths, contents)."""
    paths, contents = {}, {}
    for spec in workload.docs:
        code, out = program.run_cli(spec.catalog_argv())
        if code != 0:
            raise RuntimeError(f"catalog {spec} failed: {out}")
        doc = json.loads(out)["payload"]
        path = docdir / f"{spec.key}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths[spec.key] = str(path)
        contents[spec.key] = doc
    return paths, contents


def check_warmup(jobs, outputs):
    """Per job: None if the warm-up output is right, else why not."""
    verdicts = []
    for job, (code, out) in zip(jobs, outputs):
        if code != 0:
            verdicts.append(f"exit {code}: {out[:200]}")
            continue
        try:
            status, payload = workloads.parse_stdout(out)
            verdicts.append(f"status {status}" if status != "ok" else job.check(payload))
        except (ValueError, KeyError, TypeError) as exc:
            verdicts.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return verdicts


class Passes:
    """Closed loop of whole passes over the jobs.

    The warm-up pass's outputs are checked and become the reference that
    every later pass must reproduce byte for byte.
    """

    def __init__(self, program, jobs, paths, watch):
        self.program, self.jobs, self.paths, self.watch = program, jobs, paths, watch
        self.reference = self.verdicts = None
        self.raw_ms, self.cal_ms = [], []     # per job, timed passes only
        self.pass_raw, self.pass_cal = [], []  # per pass: sum over its jobs
        self.attempted, self.failures = 0, []

    def warm_up(self):
        outputs, raw, cal = [], 0.0, 0.0
        for job in self.jobs:
            out, r, c = self.watch.time(self.program.run, job, self.paths)
            outputs.append(out)
            raw, cal = raw + r, cal + c
        self.reference = outputs
        self.verdicts = check_warmup(self.jobs, outputs)
        return raw, cal

    def one(self, before_job=None):
        raw_sum = cal_sum = 0.0
        for k, job in enumerate(self.jobs):
            if before_job is not None:
                before_job(k)
            (code, out), raw, cal = self.watch.time(self.program.run, job, self.paths)
            self.raw_ms.append(raw * 1e3)
            self.cal_ms.append(cal * 1e3)
            raw_sum, cal_sum = raw_sum + raw, cal_sum + cal
            self.attempted += 1
            if code != 0 or self.verdicts[k] is not None or out != self.reference[k][1]:
                why = self.verdicts[k] or (f"exit {code}" if code else
                                           "stdout differs from the warm-up pass")
                self.failures.append(f"{job.label}: {why}")
        self.pass_raw.append(raw_sum)
        self.pass_cal.append(cal_sum)

    def until(self, seconds, before_job=None):
        start = time.perf_counter()
        while True:
            self.one(before_job)
            if time.perf_counter() - start >= seconds:
                return


def percentile_with_tail(values, q):
    """The q-th percentile, or None when fewer than ten samples lie beyond it."""
    if len(values) * (100 - q) / 100 < 10:
        return None
    return statistics.quantiles(values, n=100)[q - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def set_up(name, seed, docdir, watch):
    """Fresh import and document generation, timed: returns
    ((program, workload, paths, contents), raw seconds, calibrated seconds)."""
    def once():
        program = Program()
        w = workloads.build(name, seed)
        return (program, w, *generate(program, w, docdir))
    return watch.time(once)


# ------------------------------------------------------------------ untraced

def run_untraced(name, seed, seconds, docdir):
    watch = Stopwatch()
    watch.inside = True
    raws, cals = [], []
    for _ in range(SETUP_REPEATS):
        (program, w, paths, contents), raw, cal = set_up(name, seed, docdir, watch)
        raws.append(raw)
        cals.append(cal)
    workloads.add_jobs(w, paths, contents)
    loop = Passes(program, w.jobs, paths, watch)
    warm_raw, warm_cal = loop.warm_up()
    loop.until(seconds)

    lat = loop.cal_ms
    metrics = {
        "setup_s": metric(statistics.median(cals) + warm_cal, "s"),
        "wall_s": metric(statistics.median(loop.pass_cal), "s"),
        "job_ms_p50": metric(statistics.median(lat), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "MB"),
    }
    p90 = percentile_with_tail(lat, 90)
    raw_p90 = percentile_with_tail(loop.raw_ms, 90)
    n = len(lat)
    lines = [
        f"inputs {json.dumps(w.describe(contents), sort_keys=True)}",
        f"closed loop, 1 client, {len(loop.pass_cal)} timed passes of {len(w.jobs)} "
        "jobs; times at the reference speed, raw in brackets",
        f"setup_s      {metrics['setup_s']['value']:.4f} s "
        f"[{statistics.median(raws) + warm_raw:.4f}]  median of {SETUP_REPEATS} "
        f"import+catalog set-ups {statistics.median(cals):.4f} s + warm-up pass "
        f"{warm_cal:.4f} s",
        f"wall_s       {metrics['wall_s']['value']:.4f} s "
        f"[{statistics.median(loop.pass_raw):.4f}]  median pass",
        f"job_ms_p50   {metrics['job_ms_p50']['value']:.4f} ms "
        f"[{statistics.median(loop.raw_ms):.4f}]  n={n}",
        "job_ms_p90   " + (f"{p90:.4f} ms [{raw_p90:.4f}]  n={n}" if p90 is not None
                           else f"undefined: n={n} leaves fewer than 10 samples beyond"),
        f"error_rate   {len(loop.failures) / loop.attempted:.4f}  "
        f"({len(loop.failures)} of {loop.attempted} jobs)",
        f"peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB",
    ]
    for k, job in enumerate(w.jobs):
        if job.label in ROADMAP_JOBS:
            cal = statistics.median(loop.cal_ms[k::len(w.jobs)])
            raw = statistics.median(loop.raw_ms[k::len(w.jobs)])
            lines.append(f"ROADMAP input {job.label}: {cal:.1f} ms [{raw:.1f}]; "
                         f"re-anchor single run {ROADMAP_JOBS[job.label]}")
    return lines, loop.attempted, loop.failures, metrics


# -------------------------------------------------------------------- traced

def measure_pool(program, path, watch):
    """Serial and pooled time of one scan job, alternating; pool/serial."""
    workers = min(2, len(os.sched_getaffinity(0)))
    argv = ["scan", path, "--prime", str(workloads.PRIME)]
    times = {"serial": [], "pool": []}
    outs = set()
    for mode in ("serial", "pool", "pool", "serial")[:2 * POOL_REPEATS]:
        if mode == "pool":
            os.environ["CLIFFORD_THREADS"] = str(workers)
        try:
            out, _, cal = watch.time(program.run_cli, argv)
        finally:
            os.environ.pop("CLIFFORD_THREADS", None)
        times[mode].append(cal)
        outs.add(out)
    ratio = statistics.median(times["pool"]) / statistics.median(times["serial"])
    ok = len(outs) == 1 and next(iter(outs))[0] == 0
    return ratio, workers, times, ok


def run_traced(name, seed, seconds, docdir):
    watch = Stopwatch()
    spans = tracing.SpanRecorder()
    job_labels = ["set-up: catalog documents"]
    spans.job_id = 0
    program = Program()
    w = workloads.build(name, seed)
    spans.install()
    try:
        paths, contents = generate(program, w, docdir)
    finally:
        spans.uninstall()
    setup_end = len(spans.start)
    setup_totals, setup_edges = spans.aggregate(0, setup_end)
    workloads.add_jobs(w, paths, contents)

    traced = Passes(program, w.jobs, paths, watch)
    _, warm_cal = traced.warm_up()

    def label(k):
        spans.job_id = len(job_labels)
        job_labels.append(w.jobs[k].label)

    spans.counts = {}
    spans.install()
    try:
        traced.until(seconds, label)
    finally:
        spans.uninstall()
    totals, _ = spans.aggregate(setup_end)

    ops = tracing.OpCounter()
    counted = Passes(program, w.jobs, paths, watch)
    counted.reference, counted.verdicts = traced.reference, traced.verdicts
    ops.install()
    try:
        counted.one()
    finally:
        ops.uninstall()

    pool_ratio, workers, pool_times, pool_ok = measure_pool(
        program, paths[workloads.POOL_DOC], watch)

    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{name}-seed{seed}.json.gz"
    spans.write(span_file, job_labels)

    # Span times are scaled like every other time, by the traced jobs' median factor.
    factor = statistics.median(c / r for c, r in zip(traced.cal_ms, traced.raw_ms))
    n = len(traced.pass_cal)
    metrics = layer_metrics(totals, setup_totals, setup_edges, spans.counts,
                            ops.counts, n, factor)
    metrics["trace.overhead_ratio"] = metric(
        statistics.mean(traced.pass_cal) / warm_cal, "ratio")
    metrics["cli.scan_pool_ratio"] = metric(pool_ratio, "ratio")
    self_ms = {k: v[1] / 1e6 / n * factor for k, v in totals.items()}
    top = max(self_ms, key=self_ms.get)
    expected = EXPECTED_DOMINANT[name]
    share = sum(self_ms.get(k, 0.0) for k in expected) / sum(self_ms.values())
    metrics["trace.expected_dominant_share"] = metric(share, "ratio")

    ranked = sorted(self_ms.items(), key=lambda kv: -kv[1])[:6]
    lines = [
        f"inputs {json.dumps(w.describe(contents), sort_keys=True)}",
        f"traced passes {n} of {len(w.jobs)} jobs; {len(spans.start)} spans written "
        f"to {span_file.relative_to(ROOT)}; times at the reference speed "
        f"(factor {factor:.3f})",
        "self time per pass: " + ", ".join(f"{k} {v:.1f} ms" for k, v in ranked),
        f"dominant layer: expected {' + '.join(expected)} ({share:.1%} of self "
        f"time); measured top {top} -> " + ("match" if top in expected else "MISMATCH"),
        f"scan pool: {workers} workers, serial {[round(t, 3) for t in pool_times['serial']]}"
        f" s, pool {[round(t, 3) for t in pool_times['pool']]} s",
        f"traced and counting passes reproduced the untraced warm-up stdout in "
        f"{traced.attempted + counted.attempted - len(traced.failures + counted.failures)}"
        f" of {traced.attempted + counted.attempted} jobs",
    ]
    for span, note in ROADMAP_SPANS.items():
        if name == "fiber" and span in totals:
            calls_, _, incl = totals[span]
            lines.append(f"ROADMAP {span}: {incl / calls_ / 1e6 * factor:.3f} ms per call "
                         f"including children; re-anchor single run {note}")
    lines += [f"{k:40s} {v['value']:.6g} {v['unit']}" if isinstance(v["value"], float)
              else f"{k:40s} {v['value']} {v['unit']}" for k, v in metrics.items()]
    failures = traced.failures + counted.failures
    attempted = traced.attempted + counted.attempted + 2 * POOL_REPEATS
    if not pool_ok:
        failures.append("scan with the thread pool differs from serial, or failed")
    return lines, attempted, failures, metrics


def layer_metrics(totals, setup_totals, setup_edges, counts, ops, passes, factor):
    """Per-layer metrics per traced pass; ``catalog.make_*`` per set-up."""
    def per_pass(x):
        return x // passes if x % passes == 0 else x / passes

    def calls(name):
        return metric(per_pass(totals.get(name, (0, 0))[0]), "count")

    def ms(name, source=None, per=None):
        source = totals if source is None else source
        per = passes if per is None else per
        return metric(source.get(name, (0, 0))[1] / 1e6 / per * factor, "ms")

    def count(name, source):
        return metric(per_pass(source.get(name, 0)), "count")

    make_type_calls = setup_totals.get("catalog.make_type", (0, 0))[0]
    attempts = setup_edges.get(("catalog.make_type", "qform.new_qform"), 0)
    m = {
        "cli.load_ms": ms("cli.load"),
        "cli.self_ms": ms("cli.main"),
        "catalog.make_type_ms": ms("catalog.make_type", setup_totals, 1),
        "catalog.make_type_attempts": metric(
            attempts / make_type_calls if make_type_calls else 0, "count"),
        "catalog.make_net_ms": ms("catalog.make_net", setup_totals, 1),
        "catalog.fiber_form_calls": calls("catalog.fiber_form"),
        "catalog.fiber_form_ms": ms("catalog.fiber_form"),
        "qform.points": count("qform.points", counts),
        "qform.rank_at_calls": calls("qform.rank_at"),
        "qform.rank_at_ms": ms("qform.rank_at"),
        "qform.discriminant_calls": calls("qform.discriminant"),
        "qform.discriminant_ms": ms("qform.discriminant"),
        "qform.new_qform_ms": ms("qform.new_qform"),
    }
    for short in ("reduce_word", "fiber_algebra", "validate"):
        m[f"clifford.{short}_calls"] = calls(f"clifford.{short}")
        m[f"clifford.{short}_ms"] = ms(f"clifford.{short}")
    m["clifford.reduce_word_terms_out"] = count("clifford.reduce_word_terms_out", counts)
    for short in ("classify", "azumaya", "trace_pairing", "recover", "gamma_bruteforce"):
        m[f"clifford.{short}_ms"] = ms(f"clifford.{short}")
    for short in ("bipoly_mul", "divide"):
        m[f"brauer_severi.{short}_calls"] = calls(f"brauer_severi.{short}")
        m[f"brauer_severi.{short}_ms"] = ms(f"brauer_severi.{short}")
    m["brauer_severi.bipoly_mul_terms_out"] = count(
        "brauer_severi.bipoly_mul_terms_out", counts)
    m["brauer_severi.minor_ms"] = ms("brauer_severi.minor")
    m["brauer_severi.bs_matrix_ms"] = ms("brauer_severi.bs_matrix")
    for short in ("evaluate", "mul", "det", "divide_exact", "sqrt", "parse"):
        m[f"poly.{short}_calls"] = calls(f"poly.{short}")
        m[f"poly.{short}_ms"] = ms(f"poly.{short}")
    m["poly.mul_terms_out"] = count("poly.mul_terms_out", counts)
    m["linalg.rref_calls"] = calls("linalg.rref")
    m["linalg.rref_ms"] = ms("linalg.rref")
    for name in ("fp_new", "fp_mul", "fp_add", "fp_pow", "fp_div", "qq_coerce"):
        m[f"scalars.{name}"] = metric(ops[f"scalars.{name}"], "count")
    m["scalars.fp_sqrt_calls"] = calls("scalars.fp_sqrt")
    m["scalars.fp_sqrt_ms"] = ms("scalars.fp_sqrt")
    m["series.expand_ms"] = ms("series.expand")
    return m


# ---------------------------------------------------------------------- main

def run_all(args):
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "cliffbundle" / "cli.py").is_file():
        print(f"no cliffbundle sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    docdir = Path(tempfile.mkdtemp(prefix=f"docs-{args.workload}-", dir=OUT))
    try:
        run = run_traced if args.trace else run_untraced
        lines, attempted, failures, metrics = run(args.workload, args.seed,
                                                  args.seconds, docdir)
    finally:
        shutil.rmtree(docdir, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("\n".join(lines))
    for why in failures[:20]:
        print(f"FAILED {why}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
