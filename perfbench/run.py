#!/usr/bin/env python3
"""odbsim's benchmark: builds odbsim_perfbench, runs one workload, prints its
metrics and checks every simulated result against pinned digests.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are cached_point, scale_100x, scale_100x_1p and xeon_study
(README.md says why, and why BENCHMARK.json lists only the two
scale_100x points). --trace 0
prints the end-to-end metrics, --trace 1 the per-layer ones. The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.

    python3 perfbench/run.py --pin <seed> [<seed> ...]

rewrites reference_digests.json for those seeds from the library's own
ExperimentRunner::run / ScalingStudy::run, for every workload. Only an
intended change to the simulated model should do that.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True  # leave the checkout as it was
import benchstats as bs  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM = os.path.join(BUILD_DIR, "odbsim_perfbench")
REFERENCE = os.path.join(HERE, "reference_digests.json")

WORKLOADS = ("cached_point", "scale_100x", "scale_100x_1p", "xeon_study")

# Paper Table 5 pivots (warehouses): CPI then MPI, for 1P, 2P, 4P.
PAPER_PIVOTS = (119.0, 142.0, 130.0, 102.0, 147.0, 144.0)

# Unit and best sample of each end-to-end metric. Host noise only ever
# slows a run down, so the fastest sample of the loop is the steadiest
# figure from one run to the next; the summary still prints the median.
END_TO_END = {
    "wall_s": ("s", min),
    "setup_s": ("s", min),
    "events_per_s": ("1/s", max),
    "sim_minstr_per_s": ("Minstr/s", max),
    "peak_rss_mb": ("MB", min),
}

PROGRAM_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the Release program; tool output goes
    to stderr so that stdout carries only the benchmark's report."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "experiment.hh")):
        fail(f"odbsim sources not found under {ROOT}/src")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR,
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run_program(workload, seed, seconds, trace, reference_only=False):
    cmd = [PROGRAM, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if reference_only:
        cmd.append("--reference-only")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"odbsim_perfbench exceeded {PROGRAM_TIMEOUT_S} s")
    if proc.returncode:
        fail(f"odbsim_perfbench exited with code {proc.returncode}")
    records = [json.loads(line) for line in proc.stdout.splitlines() if line]
    by_type = {}
    for rec in records:
        by_type.setdefault(rec["type"], []).append(rec)
    return by_type


def source_revision():
    """git revision when run from a git checkout, else a digest of the
    library and benchmark sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


def check_digests(workload, seed, recs):
    """Compare every row odbsim_perfbench produced with the pinned digests
    of this workload and seed or, for a seed without pins, with the
    library's own run. Returns (attempted, failed)."""
    pinned = load_reference().get(workload, {}).get(str(seed))
    iters = recs.get("iter", [])
    checked = [("reference", r["rows"]) for r in recs.get("reference", [])]
    checked += [(f"iteration {r['iter']}", r["rows"]) for r in iters]
    if pinned is None:
        # The library's own run: ExperimentRunner::run for a point,
        # the first (untraced) ScalingStudy::run sweep for the study.
        base = (recs["reference"][0] if "reference" in recs else iters[0])
        expected = [bs.row_digest(t) for t in base["rows"]]
        print(f"note: seed {seed} has no pinned digests; rows are checked "
              "against the library's own run")
    else:
        expected = pinned
    attempted = failed = 0
    for label, rows in checked:
        missing = abs(len(rows) - len(expected))
        if missing:
            print(f"MISMATCH {workload} {label}: {len(rows)} rows, "
                  f"expected {len(expected)}")
            attempted += missing
            failed += missing
        for i, (text, want) in enumerate(zip(rows, expected)):
            attempted += 1
            got = bs.row_digest(text)
            if got != want:
                failed += 1
                print(f"MISMATCH {workload} {label} row {i}: digest {got}, "
                      f"expected {want}: {text}")
    return attempted, failed


def safe_div(a, b):
    return a / b if b else 0.0


def end_to_end(workload, recs):
    """Samples of every end-to-end metric (one per grid point on the
    point workloads, one per sweep on xeon_study)."""
    out = {}
    if workload == "xeon_study":
        iters = recs["iter"]
        out["wall_s"] = [r["wall_s"] for r in iters]
        out["setup_s"] = [r["setup_s"] for r in recs["setup"]]
        out["events_per_s"] = [r["events_sum"] / sum(r["point_walls"])
                               for r in iters]
        out["sim_minstr_per_s"] = [
            r["instr_window_sum"] / 1e6 / sum(r["point_walls"]) for r in iters]
    else:
        pts = recs["point"]
        out["wall_s"] = [p["wall_s"] for p in pts]
        out["setup_s"] = [p["setup_s"] for p in pts]
        out["events_per_s"] = [p["events_run"] / (p["warmup_s"] + p["measure_s"])
                               for p in pts]
        out["sim_minstr_per_s"] = [
            p["instr_run"] / 1e6 / (p["warmup_s"] + p["measure_s"]) for p in pts]
    out["peak_rss_mb"] = [recs["done"][0]["peak_rss_mb"]]
    return out


def pivot_error(recs):
    """Mean absolute error (warehouses) of the six pivots against paper
    Table 5; deterministic, so the first sweep's pivots serve."""
    pivots = next(r["pivots"] for r in recs["iter"] if "pivots" in r)
    return sum(abs(a - b) for a, b in zip(pivots, PAPER_PIVOTS)) / len(pivots)


def layer_metrics(points, point_workload):
    """Per-layer metrics of one iteration's traced grid points."""
    def s(key):
        return sum(p[key] for p in points)

    def cat(key):
        return [v for p in points for v in p[key]]

    txns = s("txns")
    run_s = s("warmup_s") + s("measure_s")
    slices = cat("slice_ms")
    m = {
        "os.system_ctor_s": s("system_ctor_s"),
        "db.database_ctor_s": s("database_ctor_s"),
        "odb.workload_start_s": s("workload_start_s"),
        "db.instant_warm_s": s("instant_warm_s"),
        "db.setup_ns_per_warehouse":
            safe_div(s("database_ctor_s"), s("warehouses")) * 1e9,
        "sim.warmup_s": s("warmup_s"),
        "sim.measure_s": s("measure_s"),
        "sim.host_ns_per_event": safe_div(run_s, s("events_run")) * 1e9,
        "sim.events": s("events_run"),
        "sim.events_per_txn": safe_div(s("events_window"), txns),
        "sim.slice_ms_p50": statistics.median(slices),
        "sim.slice_ms_p95": bs.percentile(slices, 95),
        "sim.pending_p50": statistics.median(cat("pending")),
        "cpu.instr_per_txn": safe_div(s("instr_window"), txns),
        "cpu.host_ns_per_kinstr": statistics.median(cat("slice_ns_per_kinstr")),
        "mem.l2_refs_per_txn": safe_div(s("l2_refs"), txns),
        "mem.l3_misses_per_txn": safe_div(s("l3_misses"), txns),
        "mem.coherence_misses_per_txn": safe_div(s("coherence_misses"), txns),
        "mem.bus_util": s("bus_util") / len(points),
        "mem.ioq_cycles": s("ioq_cycles") / len(points),
        "db.buffer_gets_per_txn": safe_div(s("buffer_gets"), txns),
        "db.buffer_hit_ratio":
            1.0 - safe_div(s("buffer_misses"), s("buffer_gets")),
        "db.lock_acquires_per_txn": safe_div(s("lock_acquires"), txns),
        "db.lock_conflict_ratio":
            safe_div(s("lock_conflicts"), s("lock_acquires")),
        "db.log_kb_per_txn": safe_div(s("log_bytes") / 1024.0, txns),
        "db.dbwr_blocks_per_txn": safe_div(s("dbwr_blocks"), txns),
        "os.disk_reads_per_txn": safe_div(s("disk_reads"), txns),
        "os.disk_writes_per_txn": safe_div(s("disk_writes"), txns),
        "os.ctx_switches_per_txn": safe_div(s("ctx_switches"), txns),
        "odb.txns": txns,
        "perfmon.extract_s": s("extract_s"),
    }
    if point_workload:
        m["analysis.fit_s"] = s("breakdown_s")
    return m


def pool_metrics(it):
    """core.* metrics of one iteration that carries pool timestamps."""
    walls = it["point_walls"]
    done = sorted(it["completions"])
    jobs = it["jobs"]
    wall = it["wall_s"]
    m = {
        "core.point_cpu_s": sum(walls),
        "core.point_wall_s_p50": statistics.median(walls),
        "core.point_wall_s_max": max(walls),
        "core.pool_efficiency": sum(walls) / (jobs * wall),
        # Sweep end minus the moment fewer than `jobs` points remained.
        "core.tail_s": wall - done[max(0, len(done) - jobs)],
    }
    if "fit_s" in it:
        m["analysis.fit_s"] = it["fit_s"]
    return m


def per_layer(workload, recs):
    """Samples of every per-layer metric, one per traced iteration."""
    traced = [r for r in recs["iter"] if r["traced"]]
    untraced = [r for r in recs["iter"] if not r["traced"]]
    samples = {}

    def add(m):
        for k, v in m.items():
            samples.setdefault(k, []).append(v)

    point_workload = workload != "xeon_study"
    for it in traced:
        pts = [p for p in recs["point"] if p["iter"] == it["iter"]]
        add(layer_metrics(pts, point_workload))
    for it in recs["iter"]:
        if it["pool"]:
            add(pool_metrics(it))
    overhead = (statistics.median([r["wall_s"] for r in traced]) /
                statistics.median([r["wall_s"] for r in untraced]) - 1.0) * 100.0
    samples["trace.overhead_pct"] = [overhead]
    return samples


LAYER_UNITS = {
    "os.system_ctor_s": "s",
    "db.database_ctor_s": "s",
    "odb.workload_start_s": "s",
    "db.instant_warm_s": "s",
    "db.setup_ns_per_warehouse": "ns/W",
    "sim.warmup_s": "s",
    "sim.measure_s": "s",
    "sim.host_ns_per_event": "ns/event",
    "sim.events": "count",
    "sim.events_per_txn": "count/txn",
    "sim.slice_ms_p50": "ms",
    "sim.slice_ms_p95": "ms",
    "sim.pending_p50": "count",
    "cpu.instr_per_txn": "count/txn",
    "cpu.host_ns_per_kinstr": "ns/kinstr",
    "mem.l2_refs_per_txn": "count/txn",
    "mem.l3_misses_per_txn": "count/txn",
    "mem.coherence_misses_per_txn": "count/txn",
    "mem.bus_util": "ratio",
    "mem.ioq_cycles": "cycles",
    "db.buffer_gets_per_txn": "count/txn",
    "db.buffer_hit_ratio": "ratio",
    "db.lock_acquires_per_txn": "count/txn",
    "db.lock_conflict_ratio": "ratio",
    "db.log_kb_per_txn": "KB/txn",
    "db.dbwr_blocks_per_txn": "count/txn",
    "os.disk_reads_per_txn": "count/txn",
    "os.disk_writes_per_txn": "count/txn",
    "os.ctx_switches_per_txn": "count/txn",
    "odb.txns": "count",
    "perfmon.extract_s": "s",
    "core.point_cpu_s": "s",
    "core.point_wall_s_p50": "s",
    "core.point_wall_s_max": "s",
    "core.pool_efficiency": "ratio",
    "core.tail_s": "s",
    "analysis.fit_s": "s",
    "trace.overhead_pct": "%",
}


def report(samples, units):
    """Print each metric's median, tail and sample count; return the
    JSON metrics object, in the order of `units`. A unit given as
    (unit, best) reports best(samples) instead of the median."""
    metrics = {}
    for name, unit in units.items():
        unit, best = unit if isinstance(unit, tuple) else (unit, None)
        values = samples[name]
        med = statistics.median(values)
        line = f"  {name:34s} {med:16.6g} {unit:10s} n={len(values)}"
        p = bs.tail_percentile(len(values))
        if p is not None:
            line += f"  p{p}={bs.percentile(values, p):.6g}"
        if len(values) > 1:
            line += f"  iqr/median={bs.spread(values):.3f}"
        value = med
        if best is not None:
            value = best(values)
            line += f"  {best.__name__}={value:.6g}"
        print(line)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def pin(seeds):
    build()
    ref = load_reference()
    for workload in WORKLOADS:
        for seed in seeds:
            recs = run_program(workload, seed, 0, 0, reference_only=True)
            rows = (recs.get("reference") or recs["iter"])[0]["rows"]
            ref.setdefault(workload, {})[str(seed)] = [
                bs.row_digest(t) for t in rows]
            print(f"pinned {workload} seed {seed}: {len(rows)} rows",
                  file=sys.stderr)
    for workload in ref:
        ref[workload] = dict(sorted(ref[workload].items(),
                                    key=lambda kv: int(kv[0])))
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", type=int, nargs="+", metavar="SEED")
    args = ap.parse_args()
    if args.pin:
        pin(args.pin)
        return
    if not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    build()
    recs = run_program(args.workload, args.seed, args.seconds, args.trace)
    prov = recs["provenance"][0]
    print(f"provenance: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} nproc={prov['nproc']} cpu={prov['cpu']!r} "
          f"compiler={prov['compiler']!r} build={prov['build_type']} "
          f"rev={source_revision()}")

    attempted, failed = check_digests(args.workload, args.seed, recs)
    if args.trace:
        metrics = report(per_layer(args.workload, recs), LAYER_UNITS)
    else:
        metrics = report(end_to_end(args.workload, recs), END_TO_END)
    if args.workload == "xeon_study":
        print(f"  {'pivot_err_w':34s} {pivot_error(recs):16.6g} W "
              "(vs paper Table 5, deterministic)")
    print(f"digests: {attempted - failed}/{attempted} rows match")
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
