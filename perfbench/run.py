#!/usr/bin/env python3
"""The repository's benchmark: three workloads at three levels.

    python3 perfbench/run.py --workload served-mem --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/README.md for why each exists):
  served-mem      met_server, memory engine, 2 shards, 1M keys, 80% GET/20% PUT
  served-durable  met_server --durable, 2 shards, 2M keys,
                  40% GET/50% PUT/5% DELETE/5% SCAN(50), plus a kill -9
                  restart check
  index-10m       in process: 10M-key FST, SuRF-Hash4, 5M-email FST
                  (and, traced, an ART control and bitvec rank/select)

The script builds met_server and the benchmark's own binary (metperf) from
the checkout into .bench_build/, runs one workload, checks every output,
and prints one JSON object as its last line:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--trace 0 reports the end-to-end metrics; --trace 1 runs the same workload
with spans recorded and reports the per-layer metrics instead. Every
workload reports every metric BENCHMARK.json names; figures only one
workload has go on a "# detail" line before the result. Spans and /proc
snapshots are written under .bench_build/trace/.

--smoke shrinks every size for a quick self-check; --self-check runs every
workload at smoke size, checks that each named metric is emitted with its
unit, and checks that a deliberately wrong expected value fails the run.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "trace")
SHARDS = 2

# Sizes at --seconds 10. Every phase issues a fixed, seeded op count (time
# is the output), scaled linearly by --seconds/10. The open-loop rates are
# fixed, well below capacity (README, "Workloads").
WORKLOADS = {
    "served-mem": dict(kind="served", durable=False, keys=1_000_000, mix="mem",
                       closed_ops=2_000_000, open_rate=50_000, open_ops=250_000,
                       setup_reps=3),
    "served-durable": dict(kind="served", durable=True, keys=2_000_000,
                           mix="durable", closed_ops=200_000, open_rate=4_000,
                           open_ops=40_000,
                           setup_reps=1, restart_sample=5_000),
    "index-10m": dict(kind="index", keys=10_000_000, emails=5_000_000,
                      queries=100_000),
}
SMOKE = {
    "served-mem": dict(keys=20_000, closed_ops=40_000, open_rate=5_000,
                       open_ops=25_000),
    "served-durable": dict(keys=20_000, closed_ops=20_000, open_rate=2_000,
                           open_ops=10_000,
                           restart_sample=500),
    "index-10m": dict(keys=200_000, emails=100_000, queries=20_000),
}
# Each served phase runs as ROUNDS equal fixed-count rounds (see README,
# "Noise"): the p50s are the quietest round's.
ROUNDS = 32
SMOKE_ROUNDS = 4

# The durable engine's defaults (src/lsm/lsm.h): a 4 MiB memtable charged
# key + value + 32 = 48 B per 8-byte key and value, and an L0 compaction
# whenever a flush leaves more than 4 tables in L0, i.e. at every 5th flush.
MEMTABLE_ENTRIES = -(-(4 << 20) // 48)
FLUSHES_PER_COMPACTION = 5
DURABLE_WRITE_SHARE = 0.50 + 0.05  # PUT + DELETE in the durable mix

# BENCHMARK.json's metrics: every workload reports every one of them, each
# measured on that workload's own path (README.md, "Metrics").
END_TO_END = {
    "cpu_us_per_op": "us",
    "get_us": "us",
    "mem_bytes_per_key": "B/key",
    "setup_s": "s",
}
PER_LAYER = {
    "engine.get_us": "us",
    "engine.batch_get_us_per_key": "us",
    "engine.write_us": "us",
    "engine.bytes_per_key": "B/key",
    "trace.overhead_frac": "fraction",
}
# Per-layer metric -> workload -> what it measures there, and the
# end-to-end metric it should move. Printed as the "# layer map" line.
LAYER_MAP = {
    "engine.get_us": {
        "served-mem": "hybrid: ShardEngine::Get in the engine replay -> get_us, cpu_us_per_op",
        "served-durable": "lsm: ShardEngine::Get in the engine replay -> get_us, cpu_us_per_op",
        "index-10m": "fst: Fst::Lookup, median span of 1024 calls -> get_us, cpu_us_per_op"},
    "engine.batch_get_us_per_key": {
        "served-mem": "hybrid: ShardEngine::GetBatch at 16 (the coalesced path) -> cpu_us_per_op",
        "served-durable": "lsm: ShardEngine::GetBatch at 16 (the coalesced path) -> cpu_us_per_op",
        "index-10m": "fst: Fst::LookupBatch at 64 -> none (not in the timed mix)"},
    "engine.write_us": {
        "served-mem": "hybrid: ShardEngine::Put, merges included -> cpu_us_per_op",
        "served-durable": "lsm: ShardEngine::Put, inline flush and compaction included -> cpu_us_per_op",
        "index-10m": "fst: Fst::Build CPU time per key -> setup_s"},
    "engine.bytes_per_key": {
        "served-mem": "hybrid: replay process RSS growth / keys -> mem_bytes_per_key",
        "served-durable": "lsm: data directory bytes / live keys -> none (disk, not memory)",
        "index-10m": "fst: int FST MemoryBytes() / keys -> mem_bytes_per_key"},
    "trace.overhead_frac": {wl: "span recording cost -> none"
                            for wl in ("served-mem", "served-durable", "index-10m")},
}
# Workload-specific figures, printed as a "# detail" line beside the result
# (trace mode, unit, workloads, what it is / what it should move). They
# are not in BENCHMARK.json, whose metrics every workload reports.
SERVED = ("served-mem", "served-durable")
MEM, DUR, IDX = ("served-mem",), ("served-durable",), ("index-10m",)
SERVE_MOVES = "cpu_us_per_op, get_us"
DETAIL = {
    "throughput_ops": (0, "ops/s", SERVED, "closed loop, ops / wall time of the phase"),
    "scan_p50_us": (0, "us", DUR, "open loop SCAN(50) p50, lowest round"),
    "disk_bytes_per_key": (0, "B/key", DUR, "data directory bytes / live keys"),
    "fst_lookup_ops": (0, "ops/s", IDX, "Fst::Lookup, best pass"),
    "fst_seek_ops": (0, "ops/s", IDX, "Fst::LowerBound, best pass"),
    "surf_probe_ops": (0, "ops/s", IDX, "Surf::MayContain, best pass"),
    "email_lookup_ops": (0, "ops/s", IDX, "email Fst::Lookup, best pass"),
    "serve.capacity_ops": (1, "ops/s", MEM, "best untraced closed-loop round"),
    "get_p99_us": (1, "us", SERVED, "tail of get_us; host-steal dominated"),
    "put_p99_us": (1, "us", SERVED, "tail of the write path; host-steal dominated"),
    "scan_p99_us": (1, "us", DUR, "tail of scan_p50_us; host-steal dominated"),
    "serve.batch_keys": (1, "count", SERVED, SERVE_MOVES),
    "serve.coalesced_frac": (1, "fraction", SERVED, SERVE_MOVES),
    "serve.get_overhead_us": (1, "us", SERVED, SERVE_MOVES),
    "serve.peak_rss_bytes_per_key": (1, "B/key", SERVED, "mem_bytes_per_key (its peak; merge and compaction transients)"),
    "loadgen.late_p99_us": (1, "us", SERVED, "validity: must stay far below get_us"),
    "guard.queue_delay_p99_us": (1, "us", SERVED, "get_p99_us, put_p99_us"),
    "guard.shed": (1, "count", SERVED, "get_p99_us, put_p99_us"),
    "hybrid.put_p99_us": (1, "us", MEM, "put_p99_us @ served-mem"),
    "hybrid.merge_count": (1, "count", MEM, "get_p99_us, put_p99_us @ served-mem"),
    "hybrid.merge_s": (1, "s", MEM, "get_p99_us, put_p99_us @ served-mem"),
    "lsm.put_max_ms": (1, "ms", DUR, "put_p99_us @ served-durable"),
    "lsm.sync_p50_us": (1, "us", DUR, "put_p99_us, throughput_ops @ served-durable"),
    "lsm.sync_p99_us": (1, "us", DUR, "put_p99_us @ served-durable"),
    "lsm.scan_us_per_row": (1, "us", DUR, "scan_p50_us @ served-durable"),
    "lsm.delete_us": (1, "us", DUR, "throughput_ops @ served-durable"),
    "lsm.flush_count": (1, "count", DUR, "put_p99_us @ served-durable"),
    "lsm.compaction_count": (1, "count", DUR, "put_p99_us, disk_bytes_per_key @ served-durable"),
    "lsm.compaction_s": (1, "s", DUR, "put_p99_us @ served-durable"),
    "lsm.block_cache_hit_frac": (1, "fraction", DUR, "get_us, scan_p50_us @ served-durable"),
    "lsm.fsyncs_per_kwrite": (1, "count", DUR, "put_p99_us, throughput_ops @ served-durable"),
    "lsm.write_amp": (1, "ratio", DUR, "throughput_ops, disk_bytes_per_key @ served-durable"),
    "lsm.recovery_s": (1, "s", DUR, "none (restart check only)"),
    "fst.seek_ns": (1, "ns", IDX, "fst_seek_ops"),
    "fst.email_lookup_ns": (1, "ns", IDX, "email_lookup_ops"),
    "art.lookup_ns": (1, "ns", IDX, "control: predicted unchanged"),
    "fst.art_ratio": (1, "ratio", IDX, "get_us (ROADMAP item 4 target <= 2)"),
    "surf.fpr": (1, "fraction", IDX, "surf_probe_ops"),
    "surf.bits_per_key": (1, "bits/key", IDX, "none (SuRF is not in mem_bytes_per_key)"),
    "fst.email_bytes_per_key": (1, "B/key", IDX, "email_lookup_ops"),
    "bitvec.rank_ns": (1, "ns", IDX, "get_us, fst_seek_ops"),
    "bitvec.select_ns": (1, "ns", IDX, "get_us, fst_seek_ops"),
}


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build ------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("repository sources not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    logf = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release", "-DMET_CHECK=OFF"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "metperf", "met_server"])
    with open(logf, "a") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(logf) as f:
                    tail = f.read()[-3000:]
                raise BenchError("build failed: %s\n%s" % (" ".join(cmd), tail))
    cache = read_cmake_cache()
    if cache.get("CMAKE_BUILD_TYPE") != "Release" or \
            cache.get("MET_CHECK", "OFF") not in ("OFF", "0", "FALSE"):
        raise BenchError("refusing to measure a %s build with MET_CHECK=%s" %
                         (cache.get("CMAKE_BUILD_TYPE"), cache.get("MET_CHECK")))
    return (os.path.join(BUILD, "metperf"),
            os.path.join(BUILD, "met", "tools", "met_server"))


def read_cmake_cache():
    out = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                k, v = line.rstrip("\n").split("=", 1)
                out[k.split(":")[0]] = v
    return out


def environment(seed):
    """Where and what was measured; printed before the result line."""
    env = {"seed": seed, "nproc": os.cpu_count(),
           "cpus": sorted(os.sched_getaffinity(0)),
           "build_type": read_cmake_cache().get("CMAKE_BUILD_TYPE")}
    try:
        with open("/proc/cpuinfo") as f:
            env["cpu_model"] = next(l.split(":", 1)[1].strip() for l in f
                                    if l.startswith("model name"))
    except (OSError, StopIteration):
        env["cpu_model"] = "unknown"
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as f:
            env["l3"] = f.read().strip()
    except OSError:
        env["l3"] = "unknown"
    try:
        env["git_commit"] = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        env["git_commit"] = "none"
    # The checkout the benchmark runs in is not always a git repository, so
    # also name the measured sources by content.
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    env["source_sha256"] = h.hexdigest()[:16]
    return env


# ---- processes ----------------------------------------------------------------

def cpu_sets():
    """Server and generator get disjoint CPU pairs."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 4:
        return set(cpus[:2]), set(cpus[2:4])
    half = max(1, len(cpus) // 2)
    return set(cpus[:half]), set(cpus[half:] or cpus)


class Procs:
    """Every process the run starts; all are stopped and reaped at exit."""

    def __init__(self):
        self.live = []

    def start(self, cmd, cpus, **kw):
        p = subprocess.Popen(cmd, preexec_fn=lambda: os.sched_setaffinity(0, cpus),
                             **kw)
        self.live.append(p)
        return p

    def stop(self, p, sig=signal.SIGTERM, timeout=60):
        if p.poll() is None:
            p.send_signal(sig)
        try:
            p.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
        if p in self.live:
            self.live.remove(p)
        return p.returncode

    def stop_all(self):
        for p in list(self.live):
            self.stop(p, signal.SIGKILL, timeout=30)


# glibc's malloc raises its mmap threshold each time a large block is freed,
# after which large blocks come from arenas that keep their pages. Whether
# that happened before the hybrid's merges made a served-mem server's
# resident set after the same work end at 41, 83 or 123 MB. A fixed
# threshold returns every large block to the system when it is freed, so
# RSS follows the memory the program holds.
SERVER_ENV = dict(os.environ, GLIBC_TUNABLES="glibc.malloc.mmap_threshold=131072")
# The index workload's structures (about 1 GB) are DRAM-bound: most lookups
# miss the TLB, and what a page walk costs depended on how the host backed
# the process's memory, so whole runs were up to 25% faster or slower.
# Transparent huge pages for malloc'd memory (the system's THP mode is
# "madvise") cut those misses.
INDEX_ENV = dict(os.environ, GLIBC_TUNABLES="glibc.malloc.hugetlb=1")


def start_server(procs, server_bin, cpus, data_dir, json_path, durable):
    cmd = [server_bin, "--port", "0", "--shards", str(SHARDS), "--json", json_path]
    if durable:
        cmd += ["--durable", "--dir", data_dir]
    t0 = time.monotonic()
    p = procs.start(cmd, cpus, stdout=subprocess.PIPE, text=True, env=SERVER_ENV)
    line = p.stdout.readline()
    if "listening port=" not in line:
        procs.stop(p, signal.SIGKILL)
        raise BenchError("met_server did not start: %r" % line)
    port = int(line.split("port=")[1].split()[0])
    return p, port, time.monotonic() - t0


def server_obs(json_path):
    with open(json_path) as f:
        return json.load(f)["obs"]["metrics"]


def dir_bytes(path):
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def median(values):
    return statistics.median(values) if values else 0.0


def per_round(rounds, key):
    """`key` from every round that has it (a tiny round may lack an op)."""
    return [r[key] for r in rounds if key in r]


# ---- served workloads ---------------------------------------------------------

def run_served(name, cfg, args, bins, procs, work):
    metperf, server_bin = bins
    server_cpus, gen_cpus = cpu_sets()
    scale = args.seconds / 10.0
    keys = cfg["keys"]
    closed_ops = max(int(cfg["closed_ops"] * scale), 1000)
    open_ops = max(int(cfg["open_ops"] * scale), 1000)
    fill = durable_fill(keys, closed_ops) if cfg["durable"] and not args.smoke else 0
    load_cmd = [metperf, "serve-load", "--seed", str(args.seed), "--keys", str(keys),
                "--fill", str(fill), "--mix", cfg["mix"],
                "--rounds", str(SMOKE_ROUNDS if args.smoke else ROUNDS), "--closed-ops", str(closed_ops),
                "--open-ops", str(open_ops), "--rate", str(cfg["open_rate"]),
                "--trace", str(args.trace),
                "--inject-wrong", "1" if args.inject_wrong else "0"]
    data_dir = os.path.join(work, "data")
    json_path = os.path.join(work, "server.json")

    # Set-up is server start plus preload, as the server's CPU time (which,
    # unlike the wall clock, does not grow when the host steals the CPU).
    # The extra repetitions use throwaway servers, so the median is over
    # setup_reps set-ups.
    setups = []
    for rep in range(cfg["setup_reps"] - 1):
        d = os.path.join(work, "setup%d" % rep)
        srv, port, _ = start_server(procs, server_bin, server_cpus, d,
                                    os.path.join(work, "setup%d.json" % rep),
                                    cfg["durable"])
        out = subprocess.run(load_cmd + ["--port", str(port), "--server-pid",
                                         str(srv.pid), "--preload-only", "1"],
                             capture_output=True, text=True, timeout=150,
                             preexec_fn=lambda: os.sched_setaffinity(0, gen_cpus))
        procs.stop(srv, signal.SIGKILL)
        res = parse_result(out.stdout, "preload")
        if res["preload"]["check_failures"] or res["preload"]["failed"]:
            raise BenchError("set-up preload failed")
        setups.append(res["setup_cpu_us"] / 1e6)
        shutil.rmtree(d, ignore_errors=True)

    srv, port, _ = start_server(procs, server_bin, server_cpus, data_dir,
                                json_path, cfg["durable"])
    cmd = load_cmd + ["--port", str(port), "--server-pid", str(srv.pid)]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(TRACE_DIR, name + "-client.csv")]
    if cfg["durable"]:
        cmd += ["--restart-sample", str(cfg["restart_sample"])]
    client = procs.start(cmd, gen_cpus, stdin=subprocess.PIPE,
                         stdout=subprocess.PIPE, text=True)
    extra = {}
    result_line = None
    obs = None
    tables = {}
    for line in client.stdout:
        if line.startswith("RESULT "):
            result_line = line
        elif line.startswith("PAUSE closed-"):
            # Nothing is in flight: note each shard's tables.
            tables[line.split()[1]] = shard_tables(data_dir)
            client.stdin.write("GO\n")
            client.stdin.flush()
        elif line.startswith("PAUSE restart"):
            # Nothing is in flight: measure the data directory, then drain
            # the server (its --json dump covers the measured phases) and
            # restart it on the same directory.
            extra["disk_bytes"] = dir_bytes(data_dir)
            rc = procs.stop(srv)
            obs = server_obs(json_path)
            if rc != 0:
                raise BenchError("met_server exited %d on drain" % rc)
            srv, port, extra["clean_restart_s"] = start_server(
                procs, server_bin, server_cpus, data_dir,
                os.path.join(work, "server2.json"), True)
            client.stdin.write("PORT %d\n" % port)
            client.stdin.flush()
        elif line.startswith("PAUSE crash"):
            # Process-crash durability only: SIGKILL loses the process, not
            # the OS page cache, so unsynced-but-written data survives too.
            procs.stop(srv, signal.SIGKILL)
            srv, port, extra["recovery_s"] = start_server(
                procs, server_bin, server_cpus, data_dir,
                os.path.join(work, "server3.json"), True)
            client.stdin.write("PORT %d\n" % port)
            client.stdin.flush()
    client.stdin.close()
    if procs.stop(client, timeout=120) != 0 or result_line is None:
        raise BenchError("load generator failed")
    rc = procs.stop(srv)
    if rc != 0:
        raise BenchError("met_server exited %d on drain" % rc)
    if obs is None:
        obs = server_obs(json_path)
    res = parse_result(result_line, "closed")
    if cfg["durable"]:
        extra["closed_tables"] = closed_phase_tables(tables)
    setups.append(res["setup_cpu_us"] / 1e6)
    os.makedirs(TRACE_DIR, exist_ok=True)
    with open(os.path.join(TRACE_DIR, name + "-raw.json"), "w") as f:
        json.dump({"client": res, "server": obs, "extra": extra,
                   "setups": setups}, f, indent=1)
    return served_metrics(name, cfg, args, res, obs, extra, setups, bins,
                          procs, work)


def durable_fill(keys, closed_ops):
    """Writes the set-up adds after the preload so that each shard's next
    L0 compaction falls in the middle of the closed phase."""
    per_shard = keys / SHARDS
    flushes = per_shard // MEMTABLE_ENTRIES
    nxt = (flushes // FLUSHES_PER_COMPACTION + 1) * FLUSHES_PER_COMPACTION
    closed_writes = closed_ops * DURABLE_WRITE_SHARE / SHARDS
    return int(SHARDS * (nxt * MEMTABLE_ENTRIES - per_shard - closed_writes / 2))


def shard_tables(data_dir):
    """Table files of each shard directory."""
    out = {}
    for shard in range(SHARDS):
        d = os.path.join(data_dir, "shard-%d" % shard)
        out[shard] = sorted(n for n in os.listdir(d) if n.startswith("sst_")) \
            if os.path.isdir(d) else []
    return out


def closed_phase_tables(tables):
    """Per shard, tables the closed phase added and removed. A flush only
    adds a table; only a compaction removes one."""
    begin, end = tables.get("closed-begin", {}), tables.get("closed-end", {})
    return {str(s): {"added": len(set(end.get(s, [])) - set(begin.get(s, []))),
                     "removed": len(set(begin.get(s, [])) - set(end.get(s, [])))}
            for s in range(SHARDS)}


def parse_result(text, required):
    for line in reversed(text.splitlines()):
        if line.startswith("RESULT "):
            res = json.loads(line[len("RESULT "):])
            if required in res:
                return res
    raise BenchError("no result from metperf")


def served_metrics(name, cfg, args, res, obs, extra, setups, bins, procs, work):
    phases = [res["preload"]] + res["closed"] + res["open"]
    if "restart_write" in res:
        phases += [res["restart_write"], res["restart_verify"]]
    attempted = int(sum(p["ops"] for p in phases))
    failed = int(sum(p["failed"] for p in phases))
    check_failures = int(sum(p["check_failures"] for p in phases))
    errors = [p["first_error"] for p in phases if "first_error" in p]
    counters = obs["counters"]
    problems = list(errors)
    if check_failures:
        problems.append("%d wrong results" % check_failures)
    if cfg["durable"]:
        # The closed phase must flush and compact on every shard (smoke
        # sizes are too small to fill a memtable).
        for shard, t in sorted(extra["closed_tables"].items()):
            if not args.smoke and (t["added"] == 0 or t["removed"] == 0):
                problems.append("shard %s did not flush and compact in the "
                                "closed phase: %s" % (shard, t))
        verify = res["restart_verify"]
        if verify["ops"] == 0 or verify["failed"] or verify["check_failures"]:
            problems.append("restart check failed")

    untraced = [r for r in res["closed"] if not r["traced"]]
    opens = [r for r in res["open"] if not r["traced"]]
    m = {}
    if not args.trace:
        # The whole closed phase, so its merges (memory engine) or its flush
        # and compaction (durable engine) count. Server CPU time, unlike the
        # wall clock, does not run while the host has the CPU: on a shared
        # host the same phase's wall-clock throughput spread 4x.
        completed = sum(r["completed"] for r in untraced)
        m["cpu_us_per_op"] = sum(r["server_cpu_us"] for r in untraced) / completed
        m["throughput_ops"] = completed / sum(r["seconds"] for r in untraced)
        # Outside interference only ever slows a round down, so the
        # quietest round is the one closest to what the code itself does.
        m["get_us"] = min(per_round(opens, "get_p50_us"))
        if cfg["durable"]:
            m["scan_p50_us"] = min(per_round(opens, "scan_p50_us"))
            m["disk_bytes_per_key"] = extra["disk_bytes"] / max(res["live_keys"], 1)
        m["setup_s"] = median(setups)
        # Resident set while serving, at its lowest round end: a merge's
        # old version or a compaction's buffers swell it for stretches of
        # rounds whose length depends on timing, never shrink it.
        m["mem_bytes_per_key"] = (min(r["rss_kb"] for r in untraced + opens) -
                                  res["idle_rss_kb"]) * 1024.0 / cfg["keys"]
    else:
        gets = sum(p["get_count"] for p in phases)
        hist = obs["histograms"].get("met.guard.queue_delay_us", {})
        all_opens = res["open"]
        if not cfg["durable"]:
            m["serve.capacity_ops"] = max(r["throughput_ops"] for r in untraced)
        m["get_p99_us"] = median(per_round(all_opens, "get_p99_us"))
        m["put_p99_us"] = median(per_round(all_opens, "put_p99_us"))
        if cfg["durable"]:
            m["scan_p99_us"] = median(per_round(all_opens, "scan_p99_us"))
        m["serve.batch_keys"] = counters.get("met.serve.batched_gets", 0) / \
            max(counters.get("met.serve.read_batches", 0), 1)
        m["serve.coalesced_frac"] = counters.get("met.serve.batched_gets", 0) / max(gets, 1)
        m["loadgen.late_p99_us"] = median(per_round(all_opens, "late_p99_us"))
        m["serve.peak_rss_bytes_per_key"] = \
            (res["peak_rss_kb"] - res["idle_rss_kb"]) * 1024.0 / cfg["keys"]
        m["guard.queue_delay_p99_us"] = hist.get("p99", 0)
        m["guard.shed"] = failed
        # Median rounds: traced and untraced rounds alternate, so each side
        # holds about half of the rounds slowed by a merge, flush or
        # compaction.
        m["trace.overhead_frac"] = 1.0 - \
            median([r["throughput_ops"] for r in res["closed"] if r["traced"]]) / \
            median([r["throughput_ops"] for r in untraced])
        rep = run_replay(cfg, args, bins, procs, work)
        if rep["check_failures"] or rep["failed"]:
            problems.append("engine replay: %d wrong, %d failed" %
                            (rep["check_failures"], rep["failed"]))
        m["engine.get_us"] = rep["get_us"]
        m["engine.batch_get_us_per_key"] = rep["getbatch_us_per_key"]
        m["engine.write_us"] = rep["put_us"]
        m["serve.get_overhead_us"] = min(per_round(all_opens, "get_p50_us")) - rep["get_us"]
        d = obs_delta(rep["obs_preload"], rep["obs_end"])
        if cfg["durable"]:
            writes = res["writes"]
            m["engine.bytes_per_key"] = extra["disk_bytes"] / max(res["live_keys"], 1)
            m["lsm.put_max_ms"] = rep["put_max_ms"]
            m["lsm.sync_p50_us"] = rep["sync_p50_us"]
            m["lsm.sync_p99_us"] = rep["sync_p99_us"]
            m["lsm.scan_us_per_row"] = rep.get("scan_us_per_row", 0)
            m["lsm.delete_us"] = rep["delete_us"]
            m["lsm.flush_count"] = counters.get("lsm.flush.count", 0)
            m["lsm.compaction_count"] = counters.get("lsm.compaction.count", 0)
            m["lsm.compaction_s"] = obs["histograms"].get(
                "lsm.compaction.duration_ns", {}).get("sum", 0) / 1e9
            hits = d["counters"].get("lsm.block.cache_hits", 0)
            misses = d["counters"].get("lsm.block.reads", 0)
            m["lsm.block_cache_hit_frac"] = hits / max(hits + misses, 1)
            m["lsm.fsyncs_per_kwrite"] = counters.get("lsm.wal.syncs", 0) * 1000.0 / max(writes, 1)
            m["lsm.write_amp"] = res["wchar"] / (16.0 * max(writes, 1))
            m["lsm.recovery_s"] = extra["recovery_s"]
        else:
            m["engine.bytes_per_key"] = rep["rss_growth_bytes"] / rep["keys"]
            m["hybrid.put_p99_us"] = rep["put_p99_us"]
            # Whichever merge-metric family the hybrid records.
            m["hybrid.merge_count"] = sum(
                v for k, v in d["counters"].items()
                if k.startswith("hybrid.") and k.endswith("merge.count"))
            m["hybrid.merge_s"] = sum(
                v.get("sum", 0) for k, v in d["histograms"].items()
                if k.startswith("hybrid.") and ".merge." in k and k.endswith("_ns")) / 1e9
    return problems, attempted, failed, m


def obs_delta(before, after):
    """Counter and histogram-sum growth between two registry dumps."""
    out = {"counters": {}, "histograms": {}}
    for k, v in after.get("counters", {}).items():
        out["counters"][k] = v - before.get("counters", {}).get(k, 0)
    for k, v in after.get("histograms", {}).items():
        b = before.get("histograms", {}).get(k, {})
        out["histograms"][k] = {"sum": v.get("sum", 0) - b.get("sum", 0),
                                "count": v.get("count", 0) - b.get("count", 0)}
    return out


def run_replay(cfg, args, bins, procs, work):
    """The served mix replayed through one in-process ShardEngine holding
    keys/2 keys (one shard's share), one span per call."""
    metperf = bins[0]
    server_cpus, _ = cpu_sets()
    ops = max(int((cfg["closed_ops"] // 2) * args.seconds / 10.0), 1000)
    cmd = [metperf, "replay", "--seed", str(args.seed), "--keys",
           str(cfg["keys"] // 2), "--ops", str(ops),
           "--engine", "durable" if cfg["durable"] else "mem"]
    if cfg["durable"]:
        cmd += ["--dir", os.path.join(work, "replay")]
    p = procs.start(cmd, {min(server_cpus)}, stdout=subprocess.PIPE, text=True)
    out, _ = p.communicate()
    procs.stop(p)
    if p.returncode != 0:
        raise BenchError("engine replay failed")
    return parse_result(out, "get_us")


# ---- index workload -----------------------------------------------------------

def run_index(name, cfg, args, bins, procs, work):
    metperf = bins[0]
    server_cpus, _ = cpu_sets()
    queries = max(int(cfg["queries"] * args.seconds / 10.0), 1024)
    cmd = [metperf, "index", "--seed", str(args.seed), "--keys", str(cfg["keys"]),
           "--emails", str(cfg["emails"]), "--queries", str(queries),
           "--trace", str(args.trace),
           "--inject-wrong", "1" if args.inject_wrong else "0"]
    p = procs.start(cmd, {min(server_cpus)}, stdout=subprocess.PIPE, text=True,
                    env=INDEX_ENV)
    out, _ = p.communicate()
    procs.stop(p)
    if p.returncode != 0:
        raise BenchError("metperf index failed")
    r = parse_result(out, "setup_s")
    problems = []
    if r["wrong"]:
        problems.append("%d wrong lookup/seek answers" % r["wrong"])
    if r["surf_false_negatives"]:
        problems.append("%d SuRF false negatives" % r["surf_false_negatives"])
    m = {}
    rates = [r[k] for k in ("fst_lookup_ops", "fst_seek_ops",
                            "surf_probe_ops", "email_lookup_ops")]
    if not args.trace:
        for k in ("fst_lookup_ops", "fst_seek_ops",
                  "surf_probe_ops", "email_lookup_ops", "setup_s"):
            m[k] = r[k]
        # Equal numbers of each query kind, each at its best pass's rate.
        m["cpu_us_per_op"] = 1e6 * sum(1.0 / x for x in rates) / len(rates)
        m["get_us"] = 1e6 / r["fst_lookup_ops"]
        m["mem_bytes_per_key"] = r["fst_bytes"] / r["keys"]
    else:
        for k in ("fst.seek_ns", "fst.email_lookup_ns", "art.lookup_ns",
                  "surf.bits_per_key", "fst.email_bytes_per_key",
                  "bitvec.rank_ns", "bitvec.select_ns"):
            m[k] = r[k]
        m["engine.get_us"] = r["fst.lookup_ns"] / 1e3
        m["engine.batch_get_us_per_key"] = r["fst.batch64_ns_per_key"] / 1e3
        m["engine.write_us"] = r["fst_build_s"] * 1e6 / r["keys"]
        m["engine.bytes_per_key"] = r["fst_bytes"] / r["keys"]
        m["fst.art_ratio"] = r["fst.lookup_ns"] / r["art.lookup_ns"]
        m["surf.fpr"] = r["surf_fpr"]
        m["trace.overhead_frac"] = 1.0 - r["fst.lookup_traced_ops"] / r["fst_lookup_ops"]
        os.makedirs(TRACE_DIR, exist_ok=True)
        with open(os.path.join(TRACE_DIR, name + "-index.json"), "w") as f:
            json.dump(r, f, indent=1)
    return problems, int(r["attempted"]), 0, m


# ---- entry point ----------------------------------------------------------------

def run(args):
    cfg = dict(WORKLOADS[args.workload])
    if args.smoke:
        cfg.update(SMOKE[args.workload])
    bins = build()
    env = environment(args.seed)
    work = os.path.join(WORK, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    procs = Procs()
    try:
        fn = run_served if cfg["kind"] == "served" else run_index
        problems, attempted, failed, m = fn(args.workload, cfg, args, bins, procs, work)
    finally:
        procs.stop_all()
        shutil.rmtree(work, ignore_errors=True)
    table = PER_LAYER if args.trace else END_TO_END
    metrics = {k: {"value": v, "unit": table[k]} for k, v in m.items() if k in table}
    detail = {k: {"value": v, "unit": DETAIL[k][1]} for k, v in m.items()
              if k not in table}
    missing = sorted(set(table) - set(metrics))
    if missing:
        raise BenchError("metrics not measured: %s" % missing)
    if args.trace:
        layer_map = {k: LAYER_MAP[k][args.workload] for k in PER_LAYER}
        layer_map.update({k: DETAIL[k][3] for k in detail})
        print("# layer map " + json.dumps(layer_map, sort_keys=True))
    print("# detail " + json.dumps(detail, sort_keys=True))
    print("# env " + json.dumps(env, sort_keys=True))
    for p in problems:
        log("CHECK FAILED: " + p)
    print(json.dumps({"correct": not problems, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}, sort_keys=True))


def self_check(args):
    """Smoke-size run of every workload: each named metric is emitted with
    its unit, and a deliberately wrong expected value fails the run."""
    ok = True
    # The metric tables here and BENCHMARK.json must name the same metrics
    # with the same units.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != table:
            log("self-check: %s differs from BENCHMARK.json: %s" %
                (key, sorted(set(declared.items()) ^ set(table.items()))))
            ok = False
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        log("self-check: workloads differ from BENCHMARK.json")
        ok = False
    for wl in WORKLOADS:
        for trace in (0, 1):
            table = PER_LAYER if trace else END_TO_END
            want_detail = {k for k, v in DETAIL.items() if v[0] == trace and wl in v[2]}
            out = subprocess.run([sys.executable, __file__, "--workload", wl,
                                  "--seed", str(args.seed), "--seconds", "1",
                                  "--trace", str(trace), "--smoke"],
                                 capture_output=True, text=True)
            try:
                res = json.loads(out.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                log("self-check: %s trace=%d printed no result\n%s" %
                    (wl, trace, out.stderr[-2000:]))
                ok = False
                continue
            got = res["metrics"]
            detail = next((json.loads(l[len("# detail "):])
                           for l in out.stdout.splitlines() if l.startswith("# detail ")), {})
            missing = (set(table) - set(got)) | (want_detail - set(detail))
            extra = set(got) - set(table)
            bad_unit = [k for k in got if k in table and got[k]["unit"] != table[k]] + \
                [k for k in detail if detail[k]["unit"] != DETAIL[k][1]]
            # End-to-end metrics are compared as shares of a median: never 0.
            zero = [k for k in got if not trace and not got[k]["value"] > 0]
            fine = res["correct"] and not (missing or extra or bad_unit or zero) \
                and out.returncode == 0
            log("self-check: %-14s trace=%d correct=%s missing=%s extra=%s "
                "bad_unit=%s zero=%s" % (wl, trace, res["correct"], sorted(missing),
                                         sorted(extra), bad_unit, zero))
            ok &= fine
    for wl in ("served-mem", "index-10m"):
        out = subprocess.run([sys.executable, __file__, "--workload", wl,
                              "--seed", str(args.seed), "--seconds", "1",
                              "--trace", "0", "--smoke", "--inject-wrong"],
                             capture_output=True, text=True)
        tripped = json.loads(out.stdout.strip().splitlines()[-1])["correct"] is False
        log("self-check: %s: a wrong expected value trips the checker: %s" %
            (wl, tripped))
        ok &= tripped
    log("self-check: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes")
    ap.add_argument("--inject-wrong", action="store_true",
                    help="corrupt one expected answer (checker self-test)")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_check:
            return self_check(args)
        if args.workload is None:
            ap.error("--workload is required")
        run(args)
        return 0
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
