#!/usr/bin/env python3
"""Simulator benchmark: build, run one workload, check, report.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig5_single --seed 0 \\
        --seconds 50 --trace 0

Builds perfbench/ (and with it the simulator library from src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs
zmt_perfbench for --seconds, checks every simulated statistic, prints a
human-readable report and, as the last line of stdout, one JSON object
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. NOTES.md explains the
workloads, metrics and output.

All four workloads can be run this way; BENCHMARK.json scores
fig5_single and campaign_isolated (NOTES.md says why).

--update-reference (seed 0 only) rewrites the stored reference digests
for the workload instead of checking against them.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
WORKLOADS = ("fig5_single", "smt_mix", "sampled_ckpt", "campaign_isolated")
# Claims are checked on this seed only after a change is written; do not
# tune or develop against it.
HELD_OUT_SEED = 7919
BUILD_TIMEOUT_S = 840
RUN_GRACE_S = 120
# Sum of the two hostProbe() chunk times on the reference host state:
# the 4-vCPU Xeon VM of NOTES.md when no other tenant slowed it. Time
# metrics are scaled to this host speed (see host_scale()).
PROBE_REF_S = 1.41e-3

END_TO_END = {
    "sim_kips": "kinst/s",
    "covered_mips": "Minst/s",
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "sim.build_s": "s",
    "core.run_s": "s",
    "core.host_ns_per_fetched": "ns",
    "core.fetched_per_kinst": "count",
    "core.squashed_per_kinst": "count",
    "core.trap_squashes": "count",
    "core.mt_spawns": "count",
    "core.retired_pal_per_kinst": "count",
    "core.window_occupancy_mean": "entries",
    "isa.decode_ns": "ns",
    "isa.decode_cache_ns": "ns",
    "kernel.ffwd_mips": "Minst/s",
    "kernel.physmem_read_ns": "ns",
    "mem.cache_access_ns": "ns",
    "mem.l1d_accesses_per_kinst": "count",
    "mem.l1d_miss_ratio": "ratio",
    "mem.l2_misses_per_kinst": "count",
    "mem.bus_wait_cycles_per_kinst": "cycles",
    "tlb.lookup_ns": "ns",
    "tlb.dtlb_lookups_per_kinst": "count",
    "tlb.dtlb_misses_per_kinst": "count",
    "tlb.walks_started": "count",
    "bpred.predict_update_ns": "ns",
    "bpred.lookups_per_kinst": "count",
    "bpred.mispredicts_per_kinst": "count",
    "obs.emit_ns": "ns",
    "obs.events_per_kinst": "count",
    "sim.checkpoint.capture_s": "s",
    "sim.checkpoint.save_s": "s",
    "sim.checkpoint.load_s": "s",
    "sim.restore_build_s": "s",
    "sim.checkpoint.bytes": "bytes",
    "sim.campaign.cell_s_p50": "s",
    "sim.campaign.child_overhead_s": "s",
    "sim.campaign.journal_bytes": "bytes",
    "sim.experiment.baseline_runs_per_cell": "count",
    "trace.overhead_frac": "ratio",
    "trace.self_sum_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(message):
    """Exit non-zero without printing a result."""
    log("perfbench: error: " + message)
    sys.exit(1)


def ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------

def build(build_dir):
    src = os.path.join(BENCH_DIR, os.pardir, "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        fail("simulator sources not found next to perfbench/ "
             "(run from the root of a full checkout)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "2"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    binary = os.path.join(build_dir, "zmt_perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no zmt_perfbench")
    return binary


# ---------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------

def source_digest():
    """SHA-256 over the simulator and benchmark sources, so a result
    names the code it measured even outside a git checkout."""
    root = os.path.join(BENCH_DIR, os.pardir)
    files = []
    for pattern in ("src/**/*.cc", "src/**/*.hh", "src/**/CMakeLists.txt",
                    "perfbench/*"):
        files += glob.glob(os.path.join(root, pattern), recursive=True)
    h = hashlib.sha256()
    for path in sorted(set(files)):
        if os.path.isfile(path):
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def git_state():
    if not os.path.isdir(".git") or shutil.which("git") is None:
        return {"commit": None, "dirty": None}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                timeout=30).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"],
                               capture_output=True, text=True,
                               timeout=30).stdout.strip() != ""
        return {"commit": commit or None, "dirty": dirty}
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------

def spread(values):
    """(median, q1, q3, n, IQR / median)."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, len(values), ratio(q3 - q1, abs(med))


def timed_passes(raw):
    """The untraced passes that are timed. The first pass warms the
    caches, the allocator and (for campaigns) the fork path; it is
    checked like every other pass but not timed."""
    passes = [p for p in raw["passes"] if not p["traced"]]
    return passes[1:] if len(passes) > 1 else passes


def probe_s(p):
    return p["probe_tp_s"] + p["probe_lat_s"]


def host_scale(p):
    """Factor that turns a pass's host seconds into seconds at the
    reference host speed: below 1 when the host-speed probe ran slower
    than on the reference state, so slower host spells cancel out."""
    return ratio(PROBE_REF_S, probe_s(p))


def end_to_end(raw, attempted, failed, scaled=True):
    """End-to-end values and their per-pass series. Times are in
    reference-speed seconds (host seconds x host_scale of their pass),
    or plain host seconds with scaled=False."""
    passes = timed_passes(raw)
    scale = [host_scale(p) if scaled else 1.0 for p in passes]
    run_s = [p["run_s"] * f for p, f in zip(passes, scale)]
    wall_s = [p["wall_s"] * f for p, f in zip(passes, scale)]
    per_pass = {
        "sim_kips": [ratio(p["detailed_insts"], t) / 1e3
                     for p, t in zip(passes, run_s)],
        "covered_mips": [ratio(p["covered_insts"], t) / 1e6
                         for p, t in zip(passes, wall_s)],
        "wall_s": wall_s,
        "cpu_s": [p["cpu_s"] * f for p, f in zip(passes, scale)],
        "setup_s": [p["setup_s"] * f for p, f in zip(passes, scale)],
    }
    values = {k: statistics.median(v) for k, v in per_pass.items()}
    # Rates and pass times are work and time summed across the passes:
    # the host's speed changes in spells of a few passes that the
    # scaling only partly cancels, and the sum follows the share of the
    # run in each spell smoothly where a per-pass median jumps between
    # them. setup_s stays a median of many short constructions.
    values["sim_kips"] = ratio(sum(p["detailed_insts"] for p in passes),
                               sum(run_s)) / 1e3
    values["covered_mips"] = ratio(sum(p["covered_insts"] for p in passes),
                                   sum(wall_s)) / 1e6
    for name in ("wall_s", "cpu_s"):
        values[name] = statistics.fmean(per_pass[name])
    values["peak_rss_mb"] = raw["peak_rss_kb"] / 1024.0
    values["ok_frac"] = ratio(attempted - failed, attempted)
    return values, per_pass


def self_times(spans):
    """Per-span self time (ns): duration minus the children's."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def by_name(spans, name):
    return [s for s in spans if s[0] == name]


def per_layer(raw):
    traced = [p for p in raw["passes"] if p["traced"]]
    untraced = timed_passes(raw)
    probe = raw["probe"]
    m = {}

    def calls(name):
        """Durations (s) of every call to @name: from the workload's own
        traced passes when it makes that call, else from the probes."""
        got = [s for p in traced for s in by_name(p["spans"], name)]
        if not got:
            got = by_name(probe["spans"], name)
        return got

    def call_s(name):
        got = calls(name)
        return statistics.median([(s[3] - s[2]) / 1e9 for s in got]) \
            if got else 0.0

    def ns_per_op(name):
        got = [s for s in calls(name) if s[5]]
        return statistics.median([(s[3] - s[2]) / s[5] for s in got]) \
            if got else 0.0

    def pass_self_s(p, name):
        own = self_times(p["spans"])
        return sum(own[i] for i, s in enumerate(p["spans"])
                   if s[0] == name) / 1e9

    m["sim.build_s"] = call_s("sim.build")
    m["core.run_s"] = statistics.median(
        [pass_self_s(p, "core.run") for p in traced])

    c = traced[0]["counts"]
    kinst = c.get("sim.core.retiredUser", 0.0) / 1e3
    fetched = c.get("sim.core.fetchedInsts", 0.0)
    m["core.host_ns_per_fetched"] = ratio(m["core.run_s"] * 1e9, fetched)
    m["core.fetched_per_kinst"] = ratio(fetched, kinst)
    m["core.squashed_per_kinst"] = ratio(c.get("sim.core.squashedInsts", 0),
                                         kinst)
    m["core.trap_squashes"] = c.get("sim.core.trapSquashes", 0.0)
    m["core.mt_spawns"] = c.get("sim.core.mtSpawns", 0.0)
    m["core.retired_pal_per_kinst"] = ratio(
        c.get("sim.core.retiredPal", 0.0), kinst)
    m["core.window_occupancy_mean"] = ratio(
        c.get("sim.core.windowOccupancy::sum", 0.0),
        c.get("sim.core.windowOccupancy::samples", 0.0))

    m["isa.decode_ns"] = ns_per_op("isa.decode")
    m["isa.decode_cache_ns"] = ns_per_op("isa.decode_cache")
    ffwd = calls("kernel.ffwd")
    m["kernel.ffwd_mips"] = statistics.median(
        [s[5] * 1e3 / (s[3] - s[2]) for s in ffwd]) if ffwd else 0.0
    m["kernel.physmem_read_ns"] = ns_per_op("kernel.physmem_read")

    l1d = c.get("sim.core.mem.l1d.hits", 0.0) + \
        c.get("sim.core.mem.l1d.misses", 0.0)
    m["mem.cache_access_ns"] = ns_per_op("mem.cache_access")
    m["mem.l1d_accesses_per_kinst"] = ratio(l1d, kinst)
    m["mem.l1d_miss_ratio"] = ratio(c.get("sim.core.mem.l1d.misses", 0.0),
                                    l1d)
    m["mem.l2_misses_per_kinst"] = ratio(
        c.get("sim.core.mem.l2.misses", 0.0), kinst)
    m["mem.bus_wait_cycles_per_kinst"] = ratio(
        c.get("sim.core.mem.l1l2Bus.waitCycles", 0.0) +
        c.get("sim.core.mem.l2MemBus.waitCycles", 0.0), kinst)

    m["tlb.lookup_ns"] = ns_per_op("tlb.lookup")
    m["tlb.dtlb_lookups_per_kinst"] = ratio(
        c.get("sim.core.dtlb.hits", 0.0) + c.get("sim.core.dtlb.misses", 0.0),
        kinst)
    m["tlb.dtlb_misses_per_kinst"] = ratio(
        c.get("sim.core.dtlb.misses", 0.0), kinst)
    m["tlb.walks_started"] = c.get("sim.core.walker.walksStarted", 0.0)

    m["bpred.predict_update_ns"] = ns_per_op("bpred.predict_update")
    m["bpred.lookups_per_kinst"] = ratio(c.get("sim.core.bpred.lookups", 0.0),
                                         kinst)
    m["bpred.mispredicts_per_kinst"] = ratio(
        sum(c.get("sim.core.bpred." + k, 0.0) for k in
            ("condMispredicts", "indirectMispredicts", "rasMispredicts")),
        kinst)

    m["obs.emit_ns"] = ns_per_op("obs.emit")
    m["obs.events_per_kinst"] = ratio(c.get("obs.events", 0.0), kinst)

    m["sim.checkpoint.capture_s"] = call_s("sim.checkpoint.capture")
    m["sim.checkpoint.save_s"] = call_s("sim.checkpoint.save")
    m["sim.checkpoint.load_s"] = call_s("sim.checkpoint.load")
    m["sim.restore_build_s"] = call_s("sim.restore_build")
    src = traced[0] if traced[0]["checkpoint_bytes"] else probe
    m["sim.checkpoint.bytes"] = ratio(
        src["checkpoint_bytes"],
        len(by_name(src["spans"], "sim.checkpoint.save")))

    # Campaign host costs: the workload's own campaign, else the probe's
    # two-cell one.
    camp = [p for p in traced if p["child_cell_s"]] or [probe]
    m["sim.campaign.cell_s_p50"] = statistics.median(
        [statistics.median(p["child_cell_s"]) for p in camp])
    m["sim.campaign.child_overhead_s"] = statistics.median(
        [ratio(p["campaign_threads"] * p["campaign_wall_s"] -
               sum(p["child_cell_s"]), len(p["child_cell_s"]))
         for p in camp])
    m["sim.campaign.journal_bytes"] = float(camp[0]["journal_bytes"])
    m["sim.experiment.baseline_runs_per_cell"] = ratio(
        camp[0]["baseline_runs"], len(camp[0]["child_cell_s"]))

    m["trace.overhead_frac"] = ratio(
        statistics.median([p["wall_s"] for p in traced]),
        statistics.median([p["wall_s"] for p in untraced])) - 1.0
    sums, glue = [], []
    for p in traced:
        own = self_times(p["spans"])
        in_round = [i for i, s in enumerate(p["spans"])
                    if root_of(p["spans"], i) == "round"]
        sums.append(ratio(sum(own[i] for i in in_round) / 1e9, p["wall_s"]))
        glue.append(ratio(sum(own[i] for i in in_round
                              if p["spans"][i][0] in ("round", "cell"))
                          / 1e9, p["wall_s"]))
    m["trace.self_sum_frac"] = statistics.median(sums)
    m["trace.unattributed_frac"] = statistics.median(glue)
    return m


def root_of(spans, i):
    while spans[i][4] >= 0:
        i = spans[i][4]
    return spans[i][0]


def layer_breakdown(raw):
    """Median per-pass self seconds by root/span name, traced passes."""
    table = {}
    for p in raw["passes"]:
        if not p["traced"]:
            continue
        own = self_times(p["spans"])
        acc = {}
        for i, s in enumerate(p["spans"]):
            key = root_of(p["spans"], i) + "/" + s[0]
            acc[key] = acc.get(key, 0.0) + own[i] / 1e9
        for name, v in acc.items():
            table.setdefault(name, []).append(v)
    return {k: statistics.median(v) for k, v in table.items()}


# ---------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------

def check(raw, workload, seed, trace, update_reference):
    """Returns (attempted, failed, problems)."""
    problems = []
    passes = raw["passes"]
    attempted = sum(len(p["cells"]) for p in passes)
    bad = set()  # (pass index, label)

    for i, p in enumerate(passes):
        for cell in p["cells"]:
            if not cell["ok"]:
                bad.add((i, cell["label"]))
                problems.append("pass %d %s: %s" % (i, cell["label"],
                                                    cell["error"]))

    # Every pass (traced or not) must reproduce the first pass exactly.
    first = {c["label"]: c for c in passes[0]["cells"]}
    for i, p in enumerate(passes[1:], 1):
        for cell in p["cells"]:
            want = first.get(cell["label"])
            if want is None or (cell["digest"], cell["user_insts"]) != \
                    (want["digest"], want["user_insts"]):
                bad.add((i, cell["label"]))
                problems.append("pass %d %s: digest %s differs from pass 0 "
                                "(%s)" % (i, cell["label"], cell["digest"],
                                          want and want["digest"]))

    if seed == 0:
        refs = {}
        if os.path.isfile(REFERENCE):
            with open(REFERENCE) as f:
                refs = json.load(f)
        if update_reference:
            refs[workload] = {c["label"]: {"digest": c["digest"],
                                           "user_insts": c["user_insts"]}
                              for c in passes[0]["cells"]}
            with open(REFERENCE, "w") as f:
                json.dump(refs, f, indent=1, sort_keys=True)
                f.write("\n")
            log("perfbench: wrote reference digests for " + workload)
        ref = refs.get(workload)
        if ref is None:
            problems.append("no reference digests for " + workload)
            bad.add((0, "<reference>"))
        else:
            for i, p in enumerate(passes):
                labels = {c["label"] for c in p["cells"]}
                if labels != set(ref):
                    bad.add((i, "<cell set>"))
                    problems.append("pass %d: cell set differs from the "
                                    "reference" % i)
                for cell in p["cells"]:
                    want = ref.get(cell["label"])
                    if want != {"digest": cell["digest"],
                                "user_insts": cell["user_insts"]}:
                        bad.add((i, cell["label"]))
                        problems.append(
                            "pass %d %s: digest %s / %d insts, reference %s"
                            % (i, cell["label"], cell["digest"],
                               cell["user_insts"], want))

    if trace:
        base = passes[0]["counts"]
        for i, p in enumerate(passes[1:], 1):
            for name in sorted(set(base) | set(p["counts"])):
                if base.get(name) != p["counts"].get(name):
                    bad.add((i, "<counts>"))
                    problems.append("pass %d: count %s = %r, pass 0 has %r"
                                    % (i, name, p["counts"].get(name),
                                       base.get(name)))
    return attempted, len(bad), problems


# ---------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------

def chrome_trace(raw):
    """Spans of the last traced pass and the probes as Chrome-trace JSON
    (chrome://tracing, Perfetto)."""
    events = []
    sources = [raw["probe"]["spans"]]
    traced = [p for p in raw["passes"] if p["traced"]]
    if traced:
        sources.append(traced[-1]["spans"])
    for tid, spans in enumerate(sources, 1):
        for s in spans:
            events.append({"name": s[0], "ph": "X", "pid": 1, "tid": tid,
                           "ts": s[2] / 1e3, "dur": (s[3] - s[2]) / 1e3,
                           "args": {"label": s[1], "ops": s[5]}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def bounds():
    try:
        with open("BENCHMARK.json") as f:
            return {m["name"]: m["bound"]
                    for m in json.load(f).get("end_to_end", [])}
    except (OSError, ValueError, KeyError):
        return {}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--update-reference", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if args.seconds <= 0:
        fail("--seconds must be > 0")
    if args.update_reference and args.seed != 0:
        fail("--update-reference needs --seed 0")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "perfbench")
    binary = build(build_dir)

    load_start = os.getloadavg()[0]
    workdir = os.path.join(build_dir, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    # Its own process group, so a timeout also stops the campaign's
    # forked cells.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("zmt_perfbench did not finish in time")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        fail("zmt_perfbench exited with status %d" % proc.returncode)
    try:
        raw = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        fail("zmt_perfbench printed no result")

    attempted, failed, problems = check(raw, args.workload, args.seed,
                                        args.trace, args.update_reference)
    e2e, per_pass = end_to_end(raw, attempted, failed)
    host_e2e, _ = end_to_end(raw, attempted, failed, scaled=False)
    probes = [probe_s(p) for p in timed_passes(raw)]
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(raw["passes"]),
        "cells_per_pass": raw["cells_per_pass"],
        "detailed_insts_per_pass": raw["passes"][0]["detailed_insts"],
        "covered_insts_per_pass": raw["passes"][0]["covered_insts"],
        "elapsed_s": raw["elapsed_s"],
        **git_state(),
        "source_digest": source_digest(),
        "compiler": raw["compiler"],
        "cxx_flags": raw["cxx_flags"].strip(),
        "build_type": raw["build_type"],
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
        "host_probe_s_median": statistics.median(probes),
        "host_probe_s_min": min(probes),
        "host_probe_s_max": max(probes),
        "host_probe_ref_s": PROBE_REF_S,
    }

    print("perfbench %s seed %d trace %d: %d passes x %d cells in %.1f s"
          % (args.workload, args.seed, args.trace, len(raw["passes"]),
             raw["cells_per_pass"], raw["elapsed_s"]))
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print("check: %d cell runs, %d failed%s" % (
        attempted, failed, "" if args.seed else
        ", digests compared with perfbench/reference.json"))
    for line in problems[:20]:
        print("  FAIL " + line)

    bound = bounds()
    print("%-14s %12s | per untraced pass: %10s %10s %10s %4s %7s" % (
        "end-to-end", "value", "median", "q1", "q3", "n", "spread"))
    for name, unit in END_TO_END.items():
        med, q1, q3, n, sp = spread(per_pass.get(name, [e2e[name]]))
        flag = ""
        if name in bound and sp > bound[name]:
            flag = "  UNRESOLVED (spread > bound %.2f)" % bound[name]
        print("%-14s %12.6g | %29.6g %10.6g %10.6g %4d %7.4f %s%s" % (
            name, e2e[name], med, q1, q3, n, sp, unit, flag))
    print("fail_frac %.6g" % (1.0 - e2e["ok_frac"]))
    print("times above are at the reference host speed; the host-speed "
          "probe ran %.3fx its reference time (median over passes, "
          "%.3f-%.3f). In plain host time:"
          % (statistics.median(probes) / PROBE_REF_S,
             min(probes) / PROBE_REF_S, max(probes) / PROBE_REF_S))
    print("  " + "  ".join("%s %.6g" % (name, host_e2e[name]) for name in
                           ("sim_kips", "covered_mips", "wall_s", "cpu_s",
                            "setup_s")))

    if args.trace:
        metrics = per_layer(raw)
        units = PER_LAYER
        print("per-layer (traced passes and layer probes):")
        for name in PER_LAYER:
            print("  %-40s %14.6g %s" % (name, metrics[name], units[name]))
        walls = {t: statistics.median([p["wall_s"] for p in passes])
                 for t, passes in ((False, timed_passes(raw)),
                                   (True, [p for p in raw["passes"]
                                           if p["traced"]]))}
        print("tracing overhead: pass wall %.4f s traced vs %.4f s "
              "untraced (%+.2f%%)" % (walls[True], walls[False],
                                      100 * metrics["trace.overhead_frac"]))
        print("self time by root/span, median over traced passes (s):")
        for name, v in sorted(layer_breakdown(raw).items(),
                              key=lambda kv: -kv[1]):
            print("  %-36s %10.4f" % (name, v))
        if abs(metrics["trace.self_sum_frac"] - 1.0) > 0.02:
            print("  WARNING span self times sum to %.4f of the pass "
                  "wall time" % metrics["trace.self_sum_frac"])
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, "%s-seed%d.json" % (
            args.workload, args.seed))
        with open(trace_path, "w") as f:
            json.dump(chrome_trace(raw), f)
        print("spans written to " + trace_path)
    else:
        metrics, units = e2e, END_TO_END

    result_dir = os.path.join(build_dir, "results")
    os.makedirs(result_dir, exist_ok=True)
    with open(os.path.join(result_dir, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"manifest": manifest, "metrics": metrics,
                   "host_time_metrics": host_e2e,
                   "timed_passes": [
                       {k: p[k] for k in ("wall_s", "cpu_s", "setup_s",
                                          "run_s", "probe_tp_s",
                                          "probe_lat_s")}
                       for p in timed_passes(raw)],
                   "per_pass": per_pass, "problems": problems,
                   "written": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                            time.gmtime())},
                  f, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
