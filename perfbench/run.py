#!/usr/bin/env python3
"""End-to-end benchmark of the pandarus pipeline.

    python3 perfbench/run.py --workload batch|sweep|telemetry \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The first run builds the library and
perfbench/perfbench.cpp with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later runs rebuild incrementally.
Each workload drives the perfbench binary in fresh processes, checks
their outputs, prints a human-readable summary of every metric with its
unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb); with --trace 1 they are the per-layer ones, measured in a
run that alternates untraced and traced (PANDARUS_TRACE) iterations.
README.md in this directory describes the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DEFAULT_SEED = 20250401

# Simulated days per workload.  batch and sweep run the paper's 8-day
# campaign; telemetry records a 2-day campaign so that one run holds
# several record/report iterations.
DAYS = {"batch": 8.0, "sweep": 8.0, "telemetry": 2.0}
SWEEP_SETUPS = 3
PROCESS_TIMEOUT_S = 120

# Benchmark hosts are often shared VMs whose speed drifts by tens of
# percent within minutes.  Each process therefore times a fixed reference
# loop (reference_ms in perfbench.cpp) just before and just after every
# timed stretch, and every end-to-end time is reported at reference
# speed: each raw time times REFERENCE_MS over the mean of the two loops
# around it, then the run's median.  The raw median and the reference
# time are per-layer metrics.
REFERENCE_MS = 250.0

# Matched jobs (exact, RM1, RM2) at the default seed, per campaign length.
PINNED_COUNTS = {8.0: (902, 2316, 2565), 2.0: (166, 325, 359)}

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("scenario.run_campaign_ms", "ms"),
    ("scenario.setup_ms", "ms"),
    ("scenario.simulate_ms", "ms"),
    ("scenario.post_process_ms", "ms"),
    ("scenario.self_ms", "ms"),
    ("sim.events_processed", "count"),
    ("sim.events_per_s", "1/s"),
    ("wms.jobs_finished", "count"),
    ("wms.jobs_failed", "count"),
    ("dms.transfers_submitted", "count"),
    ("dms.transfers_failed", "count"),
    ("dms.retries", "count"),
    ("dms.bytes_moved", "bytes"),
    ("telemetry.store_jobs", "count"),
    ("telemetry.store_transfers", "count"),
    ("telemetry.corrupt_ms", "ms"),
    ("telemetry.self_ms", "ms"),
    ("core.index_build_ms", "ms"),
    ("core.index_build_pool_ms", "ms"),
    ("core.match_exact_ms", "ms"),
    ("core.match_rm1_ms", "ms"),
    ("core.match_rm2_ms", "ms"),
    ("core.match_parallel_ms", "ms"),
    ("core.diagnose_ms", "ms"),
    ("core.anomaly_ms", "ms"),
    ("core.redundancy_ms", "ms"),
    ("core.candidates_scanned", "count"),
    ("core.match_yield", "ratio"),
    ("core.self_ms", "ms"),
    ("parallel.pool_tasks", "count"),
    ("parallel.pool_wait_ms", "ms"),
    ("parallel.self_ms", "ms"),
    ("analysis.campaign_report_ms", "ms"),
    ("analysis.replay_ndjson_ms", "ms"),
    ("analysis.replay_colstore_ms", "ms"),
    ("analysis.replay_events_per_s", "1/s"),
    ("analysis.derive_health_ms", "ms"),
    ("analysis.html_report_ms", "ms"),
    ("analysis.metric_query_ms", "ms"),
    ("analysis.self_ms", "ms"),
    ("obs.events_written", "count"),
    ("obs.events_dropped", "count"),
    ("obs.sink_close_ms", "ms"),
    ("obs.ndjson_bytes", "bytes"),
    ("obs.colstore_bytes_per_event", "bytes"),
    ("obs.colstore_chunks_skipped_ratio", "ratio"),
    ("obs.hook_wall_ratio", "ratio"),
    ("obs.hook_rss_ratio", "ratio"),
    ("obs.trace_overhead_ms", "ms"),
    ("e2e.record_s", "s"),
    ("e2e.report_ndjson_s", "s"),
    ("e2e.report_colstore_s", "s"),
    ("e2e.report_rss_mb", "MB"),
    ("e2e.check_failures", "ratio"),
    ("e2e.iterations", "count"),
    ("e2e.wall_raw_s", "s"),
    ("e2e.reference_ms", "ms"),
]
UNITS = dict(END_TO_END + PER_LAYER)

# Trace categories that are library modules, for per-layer self time.
SELF_TIME_LAYERS = ("scenario", "telemetry", "core", "parallel", "analysis")
CAMPAIGN_PHASES = {"campaign/setup": "scenario.setup_ms",
                   "campaign/simulate": "scenario.simulate_ms",
                   "campaign/post_process": "scenario.post_process_ms"}


class BenchError(Exception):
    """A failure that leaves nothing to report (build or process crash)."""


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.join(ROOT, base), "perfbench")


def build():
    """Configures once and builds incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources (src/) not found next to perfbench/")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run_measured(argv, work, env_extra=None, tag="proc"):
    """Runs one perfbench process with only the given PANDARUS_* variables
    set; returns its JSON lines (by mode), its spawn instant, and its own
    peak RSS in MB (from wait4)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PANDARUS_")}
    env.update(env_extra or {})
    log_path = os.path.join(work, tag + ".stderr")
    out_path = os.path.join(work, tag + ".stdout")
    with open(log_path, "w") as log, open(out_path, "w") as out:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, cwd=work, env=env, stdout=out, stderr=log)
        deadline = spawned + PROCESS_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid == proc.pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise BenchError(tag + ": timed out")
            time.sleep(0.002)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(log_path) as f:
            sys.stderr.write(f.read()[-2000:])
        raise BenchError("%s exited with %d" % (tag, proc.returncode))
    lines = {}
    with open(out_path) as f:
        for line in f:
            if line.startswith("{"):
                doc = json.loads(line)
                lines[doc["mode"]] = doc
    return lines, spawned, usage.ru_maxrss / 1024.0


def trace_self_times(path):
    """Per-layer self time (ms) and campaign phase totals from a Chrome
    trace: a span's self time is its duration minus its direct children's
    on the same thread."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = {}
    for e in events:
        if e.get("ph") == "X" and e.get("pid") == 1:
            spans.setdefault(e["tid"], []).append(e)
    out = {}
    for track in spans.values():
        track.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [span, child_us]

        def close(entry):
            span, child_us = entry
            cat = span.get("cat", "")
            if cat in SELF_TIME_LAYERS:
                key = cat + ".self_ms"
                out[key] = out.get(key, 0.0) + (span["dur"] - child_us) / 1000.0
            if stack:
                stack[-1][1] += span["dur"]

        for span in track:
            while stack and span["ts"] >= stack[-1][0]["ts"] + stack[-1][0]["dur"]:
                close(stack.pop())
            stack.append([span, 0])
            phase = CAMPAIGN_PHASES.get(span["name"])
            if phase:
                out[phase] = out.get(phase, 0.0) + span["dur"] / 1000.0
        while stack:
            close(stack.pop())
    return out


def median(values):
    return statistics.median(values) if values else 0.0


def scale(before_ms, after_ms):
    """Factor taking a raw time measured between two reference loops to
    reference speed."""
    return 2.0 * REFERENCE_MS / (before_ms + after_ms)


class Run:
    """State shared by one benchmark invocation."""

    def __init__(self, binary, workload, seed, seconds, trace):
        self.binary = binary
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.days = DAYS[workload]
        self.work = os.path.join(ROOT, ".bench_work", workload)
        os.makedirs(self.work, exist_ok=True)
        self.checks = 0
        self.failures = []
        self.counter = 0
        self.references = []  # reference_ms of untraced processes

    def argv(self, mode, seed, *extra):
        return [self.binary, mode, "--seed", str(seed),
                "--days", repr(self.days)] + list(extra)

    def campaign_seed(self, k):
        """Campaign seed of iteration k: --seed itself, then seeds derived
        from it, so that a run's median spans several campaigns rather
        than one campaign's size."""
        return self.seed if k == 0 else (self.seed * 0x9E3779B1 + k) % 2**63

    def proc(self, argv, env=None, traced=False):
        """Runs one process (traced: with PANDARUS_TRACE) and folds its
        output checks into the run's; returns (lines, spawned, rss_mb,
        self_times)."""
        self.counter += 1
        tag = "p%03d" % self.counter
        env = dict(env or {})
        trace_path = os.path.join(self.work, tag + ".trace.json")
        if traced:
            env["PANDARUS_TRACE"] = trace_path
        lines, spawned, rss = run_measured(argv, self.work, env, tag)
        for doc in lines.values():
            self.checks += doc.get("checks", 0)
            self.failures += doc.get("failures", [])
            if not traced:
                self.references += doc.get("series", {}).get("reference_ms", [])
        selfs = trace_self_times(trace_path) if traced else {}
        for path in (trace_path, os.path.join(self.work, tag + ".stdout"),
                     os.path.join(self.work, tag + ".stderr")):
            if os.path.exists(path):
                os.remove(path)
        return lines, spawned, rss, selfs

    def check(self, ok, what):
        self.checks += 1
        if not ok:
            self.failures.append(what)

    def check_pinned(self, seed, counts, label):
        pinned = PINNED_COUNTS.get(self.days)
        if seed == DEFAULT_SEED and pinned is not None:
            self.check(tuple(counts) == pinned,
                       "%s matched jobs %s == %s" % (label, counts, pinned))

    def iterate(self, once):
        """Calls once(campaign_seed, traced) until the time budget is
        spent.  Untraced runs use every iteration; traced runs alternate
        untraced and traced iterations, the two of a pair on one seed.
        Returns (untraced, traced) result lists."""
        plain, traced = [], []
        start = time.monotonic()
        while True:
            use_trace = self.trace and len(plain) > len(traced)
            seed = self.campaign_seed(len(traced) if self.trace else len(plain))
            t = time.monotonic()
            (traced if use_trace else plain).append(once(seed, use_trace))
            last = time.monotonic() - t
            enough = plain and (traced or not self.trace)
            if enough and time.monotonic() - start + last > self.seconds:
                return plain, traced


def merge_layers(results):
    """Median over iterations of every per-layer value present."""
    keys = set()
    for r in results:
        keys.update(r["layers"])
    return {k: median([r["layers"][k] for r in results if k in r["layers"]])
            for k in keys}


def setup_s(doc, spawned):
    """Raw seconds from spawn to the reference loop before the timed phase."""
    return doc["values"]["mono_setup_end"] - spawned


def timed_result(doc, spawned, rss, layers):
    """End-to-end values of one process whose timed phase is wall_ms,
    at the speed of the reference loops around that phase."""
    factor = scale(*doc["series"]["reference_ms"][:2])
    wall_raw_s = doc["values"]["wall_ms"] / 1000.0
    return {"wall_s": wall_raw_s * factor, "wall_raw_s": wall_raw_s,
            "setup_s": setup_s(doc, spawned) * factor, "peak_rss_mb": rss,
            "layers": layers}


def record_time(lines):
    """Raw seconds of a record process from campaign start until its
    event files are closed, and the factor to reference speed."""
    exit_values = lines["record_exit"]["values"]
    return (exit_values["record_ms"] / 1000.0,
            scale(lines["record"]["series"]["reference_ms"][0],
                  exit_values["reference_after_ms"]))


def layers_from(values, selfs):
    layers = {k: v for k, v in values.items() if k in UNITS}
    layers.update(selfs)
    return layers


# --- workloads ---------------------------------------------------------------

def workload_batch(run):
    def once(seed, traced):
        lines, spawned, rss, selfs = run.proc(
            run.argv("batch", seed, "--dir", run.work), traced=traced)
        v = lines["batch"]["values"]
        run.check_pinned(seed, (v["matched.exact"], v["matched.rm1"],
                                v["matched.rm2"]), "batch")
        layers = layers_from(v, selfs)
        layers["sim.events_per_s"] = (v["sim.events_processed"] /
                                      (v["scenario.run_campaign_ms"] / 1000.0))
        return timed_result(lines["batch"], spawned, rss, layers)

    return run.iterate(once)


def workload_sweep(run):
    # One process sets up SWEEP_SETUPS times, then measures passes over
    # the corruption scales for the rest of the budget.
    def once(traced):
        setups = 1 if run.trace else SWEEP_SETUPS
        seconds = run.seconds / (2.0 if run.trace else 1.0)
        lines, _, rss, selfs = run.proc(
            run.argv("sweep", run.seed, "--setups", str(setups),
                     "--seconds", repr(seconds)),
            traced=traced)
        doc = lines["sweep"]
        v = doc["values"]
        # reference_ms[i] and [i + 1] surround setup i, then pass i - setups.
        refs = doc["series"]["reference_ms"]
        stretches = doc["series"]["setup_ms"] + doc["series"]["wall_ms"]
        scaled = [ms / 1000.0 * scale(refs[i], refs[i + 1])
                  for i, ms in enumerate(stretches)]
        layers = layers_from(v, selfs)
        # Spans cover every setup and every pass; report per setup (the
        # campaign) and per pass (everything else), like the C++ values.
        for k, total in selfs.items():
            layers[k] = total / (setups if k.startswith("scenario.") else v["passes"])
        layers["scenario.run_campaign_ms"] = v["scenario.run_campaign_ms"] / setups
        layers["sim.events_per_s"] = (v["sim.events_processed"] /
                                      (layers["scenario.run_campaign_ms"] / 1000.0))
        return {"wall_s": median(scaled[setups:]),
                "wall_raw_s": median(doc["series"]["wall_ms"]) / 1000.0,
                "setup_s": median(scaled[:setups]),
                "peak_rss_mb": rss, "layers": layers}

    plain = [once(False)]
    traced = [once(True)] if run.trace else []
    return plain, traced


def workload_telemetry(run):
    ndjson = os.path.join(run.work, "events.ndjson")
    colstore = os.path.join(run.work, "events.colstore")
    sinks = {"PANDARUS_EVENTS": ndjson, "PANDARUS_EVENTS_COL": colstore,
             "PANDARUS_FLOWS": os.path.join(run.work, "flows.collapsed"),
             "PANDARUS_ALERTS": os.path.join(run.work, "alerts.json")}

    def once(seed, traced):
        for path in (ndjson, colstore):
            if os.path.exists(path):
                os.remove(path)
        lines, spawned, rss, selfs = run.proc(run.argv("record", seed),
                                              env=sinks, traced=traced)
        rec = lines["record"]["values"]
        layers = layers_from(rec, selfs)
        layers["obs.sink_close_ms"] = lines["record_exit"]["values"]["obs.sink_close_ms"]
        record_raw_s, record_factor = record_time(lines)
        layers["sim.events_per_s"] = (rec["sim.events_processed"] /
                                      (rec["scenario.run_campaign_ms"] / 1000.0))
        layers["obs.ndjson_bytes"] = os.path.getsize(ndjson)
        reports = {}
        report_rss = 0.0
        for fmt, path in (("ndjson", ndjson), ("colstore", colstore)):
            html = os.path.join(run.work, "report_%s.html" % fmt)
            rl, rspawned, rrss, rselfs = run.proc(
                [run.binary, "report", "--file", path, "--html", html,
                 "--query", "1" if fmt == "colstore" else "0"],
                traced=traced)
            reports[fmt] = timed_result(rl["report"], rspawned, rrss, {})
            rv = rl["report"]["values"]
            reports[fmt].update(rv)
            report_rss = max(report_rss, rrss)
            for k, val in rselfs.items():
                layers[k] = layers.get(k, 0.0) + val
            layers["analysis.replay_%s_ms" % fmt] = rv["analysis.replay_ms"]
            for k in ("analysis.derive_health_ms", "analysis.html_report_ms",
                      "analysis.metric_query_ms"):
                layers[k] = layers.get(k, 0.0) + rv.get(k, 0.0)
            for k in ("obs.events_written", "obs.events_dropped",
                      "obs.colstore_chunks_skipped_ratio"):
                if k in rv:
                    layers[k] = rv[k]
        nd, col = reports["ndjson"], reports["colstore"]
        with open(os.path.join(run.work, "report_ndjson.html"), "rb") as a, \
                open(os.path.join(run.work, "report_colstore.html"), "rb") as b:
            run.check(a.read() == b.read(), "html report ndjson == colstore")
        counts = (nd["matched.exact"], nd["matched.rm1"], nd["matched.rm2"])
        run.check(counts == (col["matched.exact"], col["matched.rm1"],
                             col["matched.rm2"]), "matched counts ndjson == colstore")
        run.check(nd["replay_events"] == col["replay_events"],
                  "replayed events ndjson == colstore")
        run.check_pinned(seed, counts, "telemetry")
        layers["obs.colstore_bytes_per_event"] = (os.path.getsize(colstore) /
                                                  col["replay_events"])
        layers["analysis.replay_events_per_s"] = (
            nd["replay_events"] / (nd["analysis.replay_ms"] / 1000.0))
        record_s = record_raw_s * record_factor
        layers["e2e.record_s"] = record_s
        layers["e2e.report_ndjson_s"] = nd["wall_s"]
        layers["e2e.report_colstore_s"] = col["wall_s"]
        layers["e2e.report_rss_mb"] = report_rss
        return {"wall_s": record_s + nd["wall_s"] + col["wall_s"],
                "wall_raw_s": record_raw_s + nd["wall_raw_s"] + col["wall_raw_s"],
                "setup_s": setup_s(lines["record"], spawned) * record_factor,
                "peak_rss_mb": rss, "layers": layers}

    plain, traced = run.iterate(once)
    if run.trace:
        # Hooks-off reference for the hook cost ratios: the first pair's
        # campaign in the same kind of process with no sink armed.
        lines, _, rss_off, _ = run.proc(run.argv("record", run.campaign_seed(0)))
        off_raw_s, off_factor = record_time(lines)
        on = plain[0]
        for r in traced:
            r["layers"]["obs.hook_wall_ratio"] = (on["layers"]["e2e.record_s"] /
                                                  (off_raw_s * off_factor))
            r["layers"]["obs.hook_rss_ratio"] = on["peak_rss_mb"] / rss_off
    for path in (ndjson, colstore):
        os.remove(path)
    return plain, traced


WORKLOADS = {"batch": workload_batch, "sweep": workload_sweep,
             "telemetry": workload_telemetry}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
        run = Run(binary, args.workload, args.seed, args.seconds, bool(args.trace))
        plain, traced = WORKLOADS[args.workload](run)
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1

    end_to_end = {k: median([r[k] for r in plain]) for k, _ in END_TO_END}
    layers = {k: 0.0 for k, _ in PER_LAYER}
    layers.update(merge_layers(plain))
    layers["e2e.wall_raw_s"] = median([r["wall_raw_s"] for r in plain])
    layers["e2e.reference_ms"] = median(run.references)
    if traced:
        # Traced iterations give the per-layer values; the e2e.* ones stay
        # from the untraced iterations.
        layers.update({k: v for k, v in merge_layers(traced).items()
                       if not k.startswith("e2e.")})
        traced_wall = median([r["wall_s"] for r in traced])
        layers["obs.trace_overhead_ms"] = 1000.0 * (traced_wall -
                                                    end_to_end["wall_s"])
    layers["e2e.check_failures"] = len(run.failures) / max(1, run.checks)
    layers["e2e.iterations"] = len(plain) + len(traced)

    print("perfbench %s: seed %d, %g simulated days, %d untraced + %d traced "
          "iterations" % (args.workload, args.seed, run.days, len(plain),
                          len(traced)))
    for name, unit in END_TO_END:
        print("  %-36s %14.6g %s (median)" % (name, end_to_end[name], unit))
    print("  (times at reference speed; raw wall %.6g s, reference loop "
          "%.6g ms)" % (layers["e2e.wall_raw_s"], layers["e2e.reference_ms"]))
    for name, unit in PER_LAYER:
        if name.startswith("e2e.") and layers.get(name) and \
                name not in ("e2e.wall_raw_s", "e2e.reference_ms"):
            print("  %-36s %14.6g %s" % (name, layers[name], unit))
    print("  checks: %d run, %d failed" % (run.checks, len(run.failures)))
    for failure in run.failures:
        print("    FAILED: " + failure)

    chosen = PER_LAYER if args.trace else END_TO_END
    source = layers if args.trace else end_to_end
    metrics = {name: {"value": float(source[name]), "unit": unit}
               for name, unit in chosen}
    print(json.dumps({"correct": not run.failures, "attempted": run.checks,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
