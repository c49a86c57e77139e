#!/usr/bin/env python3
"""Repository benchmark for deepsz: socket-level serving plus the DeepSZ
compression pipeline, with a traced run for per-layer attribution.

Usage (from the repository root):

    python3 repobench/run.py --workload serve_warm|serve_cold|compress \
        --seed N --seconds T --trace 0|1

The first run builds `deepsz_tool` and the benchmark harness from source into
`.bench_build/` and trains the two zoo networks once into a cache the
benchmark owns (`.bench_build/zoo`). `--trace 0` measures the workload's
end-to-end metrics with tracing off; `--trace 1` runs the per-layer suite with
tracing on. Human-readable tables go to stdout; the last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}. See README.md in
this directory for every metric and workload.
"""

import argparse
import hashlib
import http.client
import json
import os
import re
import select
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_BUILD = os.path.join(BUILD, "cmake")
TOOL = os.path.join(CMAKE_BUILD, "deepsz", "deepsz_tool")
HARNESS = os.path.join(CMAKE_BUILD, "repobench_harness")
ZOO = os.path.join(BUILD, "zoo")
STATE = os.path.join(BUILD, "state")

# serve_warm's rate ladder (requests/s); each rate must meet the harness's
# tail latency limit (100 ms, its `limit_ms`) to hold. The ladder stops below
# the knee, so its throughput is a floor check (see README.md).
WARM_RATES = [125, 250, 500]
# A generator later than this share of the limit (p99) could hide tail
# latency under it, so the run is void. Idle vCPUs of this class of host wake
# in up to ~10 ms, which sleeps in any process see; the bound sits well above.
GEN_LATE_SHARE = 0.5
# serve_cold: both models must not fit, so the cache hit ratio stays low.
COLD_CACHE_MB = 24
COLD_HIT_CEILING = 0.5
# compress: the decoded networks' top-1 may not fall further than this.
TOP1_DROP_LIMIT = 0.02
SETUPS = 3  # set-ups per run; setup_s is their median
TRACE_PHASE_S = 3.0
# The traced suite's untraced serve_warm phases end with a saturating closed
# loop of this length, which measures the daemon's capacity.
CAPACITY_S = 2.0

WARM_MODELS = ["lenet", "alex"]
COLD_MODELS = ["a", "b"]


def log(msg):
    print(msg, flush=True)


def fail(msg, code=1):
    print(f"repobench: {msg}", file=sys.stderr, flush=True)
    sys.exit(code)


# ---------------------------------------------------------------- build


def build():
    """Configures once, then builds the tool and harness (a no-op when up to
    date). Output goes to .bench_build/build.log."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "ab") as out:
        steps = []
        if not os.path.exists(os.path.join(CMAKE_BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", CMAKE_BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", CMAKE_BUILD, "--target",
                      "deepsz_tool", "repobench_harness", "-j", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=out,
                              timeout=800).returncode != 0:
                fail("build failed; see .bench_build/build.log")


def env():
    e = dict(os.environ)
    e["DEEPSZ_CACHE"] = ZOO
    return e


def harness(*args, timeout=170):
    """Runs one harness subcommand and returns its last stdout line as JSON."""
    r = subprocess.run([HARNESS, *map(str, args)], capture_output=True,
                       text=True, env=env(), timeout=timeout)
    if r.returncode != 0:
        fail(f"harness {args[0]} failed: {r.stderr.strip()[-2000:]}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def prepare():
    """Trains the zoo networks once; later runs load the cached weights."""
    weights = [os.path.join(ZOO, f"{k}_v1.weights")
               for k in ("lenet300", "lenet5")]
    if not all(os.path.exists(w) for w in weights):
        harness("prepare", timeout=800)


# ---------------------------------------------------------------- daemon


class Daemon:
    """`deepsz_tool serve` on an ephemeral port. Every daemon still running
    is stopped when the benchmark exits, on failure paths too."""

    live = []

    def __init__(self, workdir, models, trace=False, cache_mb=None):
        cmd = [TOOL, "serve", "--port", "0"]
        for name in models:
            cmd += ["--model", f"{name}={os.path.join(workdir, name)}.dszc"]
        if cache_mb:
            cmd += ["--cache-mb", str(cache_mb)]
        if not trace:
            cmd.append("--no-trace")
        self.stderr = open(os.path.join(workdir, "daemon.log"), "ab")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.stderr, text=True, env=env())
        Daemon.live.append(self)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        m = re.search(r"on port (\d+)", line)
        if not m:
            self.stop()
            fail(f"daemon did not start: {line!r}")
        self.port = int(m.group(1))

    def stop(self):
        """SIGTERM, then wait for the drain; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()
        if self in Daemon.live:
            Daemon.live.remove(self)
        return self.proc.returncode

    def request(self, method, target, body=b""):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(method, target, body=body,
                         headers={"Content-Type": "application/octet-stream"})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()


def warm_up(daemon, models, in_features):
    """Infers every row count on every model until all layers are resident
    and every scheduler worker has bound its session."""
    for name, width in zip(models, in_features):
        for rows in (1, 4, 16, 1, 4, 16):
            body = struct.pack("<II", rows, width) + bytes(4 * rows * width)
            status, _ = daemon.request("POST", f"/v1/models/{name}:infer",
                                       body)
            if status != 200:
                fail(f"warm-up infer on {name} answered {status}")


# ---------------------------------------------------------------- helpers


def median(values):
    return statistics.median(values) if values else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def result(correct, attempted, failed, metrics):
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))


def serve_setup(workload, seed, workdir, trace=False):
    """Generates the seeded containers, starts the daemon, warms it up.
    Returns (daemon, seconds, gen summary)."""
    t0 = time.perf_counter()
    gen = harness("gen", "--workload", workload, "--seed", seed,
                  "--dir", workdir)
    if workload == "serve_warm":
        d = Daemon(workdir, WARM_MODELS, trace=trace)
        warm_up(d, WARM_MODELS, [784, 2304])
    else:
        d = Daemon(workdir, COLD_MODELS, trace=trace, cache_mb=COLD_CACHE_MB)
        warm_up(d, COLD_MODELS, [2304, 2304])
    return d, time.perf_counter() - t0, gen


def timed_setups(workload, seed, workdir):
    """SETUPS set-ups; the last daemon stays up. Returns (daemon, median s,
    gen summary)."""
    times = []
    for i in range(SETUPS):
        d, s, gen = serve_setup(workload, seed, workdir)
        times.append(s)
        if i < SETUPS - 1 and d.stop() != 0:
            fail("daemon exited uncleanly after set-up")
    return d, median(times), gen


def drive(workload, seed, workdir, daemon, seconds, *extra):
    return harness("drive", "--workload", workload, "--seed", seed,
                   "--dir", workdir, "--port", daemon.port,
                   "--pid", daemon.proc.pid, "--seconds", seconds, *extra)


def print_rungs(rungs):
    log(f"{'rate/s':>8} {'sent':>6} {'ok':>6} {'shed':>5} {'failed':>6} "
        f"{'wrong':>5} {'fail%':>6} {'p50ms':>8} {'tail ms':>9} {'pct':>6} "
        f"{'late99':>7} {'rows':>5} holds")
    for r in rungs:
        log(f"{r['rate']:>8.0f} {r['sent']:>6.0f} {r['ok']:>6.0f} "
            f"{r['shed']:>5.0f} {r['failed']:>6.0f} {r['wrong']:>5.0f} "
            f"{100 * r['failed_frac']:>6.2f} {r['p50_ms']:>8.3f} "
            f"{r['tail_ms']:>9.3f} {r['tail_pct']:>6.2f} "
            f"{r['late_p99_ms']:>7.3f} {r['mean_rows']:>5.2f} "
            f"{'yes' if r['meets_limit'] else 'no'}")


# ---------------------------------------------------------------- trace 0


def run_serve_warm(seed, seconds, workdir):
    d, setup_s, gen = timed_setups("serve_warm", seed, workdir)
    try:
        r = drive("serve_warm", seed, workdir, d, seconds,
                  "--rates", ",".join(map(str, WARM_RATES)))
    finally:
        clean = d.stop() == 0
    print_rungs(r["rungs"])
    late_limit = GEN_LATE_SHARE * r["limit_ms"]
    checks = {
        "no decode after warm-up": r["cache_misses"] == 0,
        "hit ratio is 1": r["hit_ratio"] == 1.0,
        "no wrong answers": r["wrong"] == 0,
        "lowest rate meets the limit": r["rungs"][0]["meets_limit"],
        f"generator on time (p99 late <= {late_limit:g} ms)":
            r["gen_late_p99_ms"] <= late_limit,
        "daemon drained and exited 0": clean,
    }
    return checks, r["attempted"], r["failed"], {
        "setup_s": metric(setup_s, "s"),
        "latency_p50_ms": metric(r["p50_ms"], "ms"),
        "cpu_ms_per_op": metric(r["cpu_ms_per_op"], "ms"),
        "throughput_per_s": metric(r["sustained_rps"], "1/s"),
        "peak_rss_mb": metric(r["peak_rss_mb"], "MB"),
        "ratio": metric(gen["ratio"], "x"),
    }, (f"lowest rate {WARM_RATES[0]}/s: p50 {r['p50_ms']:.3f} ms in the "
        f"quietest window, {r['p50_all_ms']:.3f} ms over the run, "
        f"p{r['tail_pct']:.2f} {r['tail_ms']:.3f} ms (n={r['tail_n']:.0f}); "
        f"ladder holds up to {r['sustained_rps']:.1f}/s under "
        f"{r['limit_ms']:g} ms; "
        f"generator late p99 {r['gen_late_p99_ms']:.3f} ms")


def run_serve_cold(seed, seconds, workdir):
    d, setup_s, gen = timed_setups("serve_cold", seed, workdir)
    try:
        r = drive("serve_cold", seed, workdir, d, seconds)
    finally:
        clean = d.stop() == 0
    checks = {
        "every answer correct": r["failed"] == 0,
        f"hit ratio below {COLD_HIT_CEILING}":
            r["hit_ratio"] < COLD_HIT_CEILING,
        "at least 2 delta rollouts": r["rollouts"] >= 2,
        "daemon drained and exited 0": clean,
    }
    # Decode is on-CPU work, and the wall time around it moves with the
    # host's steal by far more than any bound (see README.md), so the gated
    # figures are the daemon's on-CPU time; the wall figures are printed.
    return checks, r["attempted"], r["failed"], {
        "setup_s": metric(setup_s, "s"),
        "latency_p50_ms": metric(r["cpu_p50_ms"], "ms"),
        "cpu_ms_per_op": metric(r["cpu_ms_per_op"], "ms"),
        "throughput_per_s": metric(1000 / r["cpu_ms_per_op"], "1/s"),
        "peak_rss_mb": metric(r["peak_rss_mb"], "MB"),
        "ratio": metric(gen["ratio"], "x"),
    }, (f"sent {r['attempted']:.0f}, failed {r['failed']:.0f} "
        f"(failed_frac {r['failed'] / r['attempted']:.4f}); infer p50 "
        f"{r['cpu_p50_ms']:.3f} ms on the daemon's CPU; wall p50 "
        f"{r['p50_ms']:.3f} ms in the quietest window, {r['p50_all_ms']:.3f} "
        f"ms over the run, p{r['tail_pct']:.2f} {r['tail_ms']:.3f} ms "
        f"(n={r['tail_n']:.0f}); {r['ops_per_s']:.2f} ops/s in the busiest "
        f"window, {r['ops_per_s_all']:.2f} over the run; swap p50 "
        f"{r['swap_p50_ms']:.3f} ms; ready p50 delta "
        f"{r['restore_p50_ms']:.3f} ms, full "
        f"{r['rollback_ready_p50_ms']:.3f} ms; hit ratio "
        f"{r['hit_ratio']:.3f}, evictions {r['cache_evictions']:.0f}")


def run_compress(seed, seconds, workdir):
    r = harness("compress", "--seconds", seconds, "--setups", SETUPS)
    # The output must be byte-identical across runs of the same code. The zoo
    # inputs do not depend on the seed, so every earlier run of this harness
    # binary is a witness; a rebuilt binary (changed code) starts afresh.
    os.makedirs(STATE, exist_ok=True)
    path = os.path.join(STATE, "compress_crc.json")
    seen = {}
    if os.path.exists(path):
        with open(path) as f:
            seen = json.load(f)
    with open(HARNESS, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()
    across = seen.get(build_id, r["crc"]) == r["crc"]
    seen.setdefault(build_id, r["crc"])
    with open(path, "w") as f:
        json.dump(seen, f)
    checks = {
        "containers identical across jobs": r["identical"],
        "containers identical across runs": across,
        f"top-1 drop <= {TOP1_DROP_LIMIT}": r["top1_drop"] <= TOP1_DROP_LIMIT,
    }
    stages = ", ".join(f"{k} {v:.3f} s" for k, v in r["stage_s"].items())
    # Timed on the CPU: wall times here, the 4 ms restore included, moved by
    # up to a third between runs with the host's steal (see README.md).
    return checks, 2 * r["jobs"], 0, {
        "setup_s": metric(r["setup_s"], "s"),
        "latency_p50_ms": metric(r["lenet300_cpu_p50_ms"], "ms"),
        "cpu_ms_per_op": metric(1000 * r["cpu_s"], "ms"),
        "throughput_per_s": metric(r["values_per_cpu_s"], "1/s"),
        "peak_rss_mb": metric(r["peak_rss_mb"], "MB"),
        "ratio": metric(r["ratio"], "x"),
    }, (f"{r['jobs']:.0f} job(s) of both networks, job wall p50 "
        f"{r['p50_ms'] / 1000:.3f} s, on-CPU {r['cpu_s']:.3f} s "
        f"(LeNet-300-100 {r['lenet300_cpu_p50_ms'] / 1000:.3f} s); per job "
        f"{stages}; decode of both outputs p50 {r['restore_p50_ms']:.3f} ms; "
        f"set-up {r['setup_s']:.3f} s on-CPU; "
        f"ratio "
        f"{r['ratio']:.2f}x, top-1 drop {r['top1_drop']:.4f}; crc "
        f"{r['crc']}")


# ---------------------------------------------------------------- trace 1


def load_events(path):
    with open(path) as f:
        return [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]


def check_trace(path, require):
    """Validates a Chrome trace with the repository's own checker."""
    r = subprocess.run([sys.executable,
                        os.path.join(ROOT, "tools", "check_trace.py"), path,
                        "--require", ",".join(require)],
                       capture_output=True, text=True)
    return r.returncode == 0


def by_tid(events):
    out = {}
    for e in events:
        out.setdefault(e["tid"], []).append(e)
    for v in out.values():
        v.sort(key=lambda e: e["ts"])
    return out


def inside(spans, name, lo, hi):
    return [s for s in spans if s["name"] == name and lo <= s["ts"] <= hi
            and s["ts"] + s["dur"] <= hi + 1]


def request_paths(events):
    """Rebuilds each infer request's blocking path from the daemon's spans:
    http_dispatch on the connection thread holds http_parse and serialize;
    the gap between them is RequestScheduler::infer. The request's queue
    span (worker thread) starts at its enqueue, right after parse; the
    forward span on that worker right after the queue span ends is its
    batch, and decode spans inside that forward are its cache misses."""
    threads = by_tid(events)
    queues = [e for e in events if e["name"] == "queue"
              and e.get("args", {}).get("phase") == "ok"]
    queues.sort(key=lambda e: e["ts"])
    paths = []
    for spans in threads.values():
        for d in spans:
            if d["name"] != "http_dispatch" or ":infer" not in \
                    d.get("args", {}).get("detail", ""):
                continue
            end = d["ts"] + d["dur"]
            parse = inside(spans, "http_parse", d["ts"], end)
            ser = inside(spans, "serialize", d["ts"], end)
            if not parse or not ser:
                continue
            p, s = parse[0], ser[0]
            p_end = p["ts"] + p["dur"]
            cands = [q for q in queues if p_end - 1 <= q["ts"] <= s["ts"]]
            if not cands:
                continue
            q = min(cands, key=lambda q: q["ts"] - p_end)
            start = q["ts"] + q["dur"]
            fwd = [f for f in threads[q["tid"]] if f["name"] == "forward"
                   and f["ts"] >= start - 1]
            if not fwd:
                continue
            f = fwd[0]
            f_end = f["ts"] + f["dur"]
            worker = threads[q["tid"]]
            decode = inside(worker, "decode", f["ts"], f_end)
            phases = {k: sum(x["dur"] for x in inside(worker, k, f["ts"],
                                                      f_end))
                      for k in ("lossless", "eb_decode", "reconstruct")}
            infer_wait = s["ts"] - p_end
            rows = re.match(r"(\d+)", f.get("args", {}).get("phase", "0"))
            paths.append({
                "dispatch": d["dur"] / 1e3,
                "parse": p["dur"] / 1e3,
                "serialize": s["dur"] / 1e3,
                "queue": q["dur"] / 1e3,
                "forward": f["dur"] / 1e3,
                "decode": sum(x["dur"] for x in decode) / 1e3,
                "lossless": phases["lossless"] / 1e3,
                "eb_decode": phases["eb_decode"] / 1e3,
                "reconstruct": phases["reconstruct"] / 1e3,
                "infer_wait": infer_wait / 1e3,
                "batch_rows": int(rows.group(1)) if rows else 0,
            })
    return paths


def attribution(title, paths, rtt_p50):
    """Prints the table of self times along the blocking path and returns
    (unattributed fraction, per-request medians)."""
    if not paths:
        fail(f"no {title} request could be rebuilt from the daemon's trace")
    med = {k: median([p[k] for p in paths]) for k in paths[0]}
    rows = [
        ("http_parse", med["parse"]),
        ("queue (linger included)", med["queue"]),
        ("forward self", median([p["forward"] - p["decode"]
                                 for p in paths])),
        ("  decode.lossless", med["lossless"]),
        ("  decode.eb_decode", med["eb_decode"]),
        ("  decode.reconstruct", med["reconstruct"]),
        ("  decode self", median([p["decode"] - p["lossless"]
                                  - p["eb_decode"] - p["reconstruct"]
                                  for p in paths])),
        ("serialize", med["serialize"]),
    ]
    attributed = median([p["parse"] + p["queue"] + p["forward"]
                         + p["serialize"] for p in paths])
    unattributed = 1.0 - attributed / rtt_p50
    log(f"-- {title}: self times along the blocking path "
        f"(p50 over {len(paths)} requests)")
    for name, v in rows:
        log(f"   {name:<26} {v:9.4f} ms")
    log(f"   {'sum of spans':<26} {attributed:9.4f} ms")
    log(f"   {'client round trip':<26} {rtt_p50:9.4f} ms  "
        f"(unattributed {100 * unattributed:.1f}%: wire, handle self, "
        f"wake-ups)")
    return unattributed, med


def not_ok(r):
    """Refused, failed and wrong answers over every phase of a warm drive."""
    return r["capacity_failed"] + sum(g["shed"] + g["failed"] + g["wrong"]
                                      for g in r["rungs"])


def traced_warm(seed, workdir):
    """Alternates untraced and traced daemons at the lowest rate: the p50
    difference is the tracing overhead; the last traced phase gives the
    attribution. The untraced phases end with a capacity phase. Returns the
    phases' figures, with attempted and not-ok answers summed over all four
    and whether every phase decoded nothing."""
    p50 = {False: [], True: []}
    tails, late, capacity, shed = [], [], [], 0
    attempted = failed = 0
    no_decode = True
    for tracing in (False, True, False, True):
        d, _, _ = serve_setup("serve_warm", seed, workdir, trace=tracing)
        try:
            t0 = time.time()
            r = drive("serve_warm", seed, workdir, d, TRACE_PHASE_S,
                      "--rates", WARM_RATES[0],
                      "--capacity-s", 0 if tracing else CAPACITY_S,
                      "--trace-out",
                      os.path.join(workdir, "warm_client_trace.json")
                      if tracing else "-")
            if tracing:
                window = (time.time() - t0) * 1000 + 50
                status, body = d.request(
                    "GET", f"/v1/trace?last_ms={window:.0f}")
                with open(os.path.join(workdir, "warm_daemon_trace.json"),
                          "wb") as f:
                    f.write(body)
        finally:
            d.stop()
        p50[tracing].append(r["p50_ms"])
        if not tracing:
            tails.append(r["tail_ms"])
            capacity.append(r["capacity_rps"])
        late.append(r["gen_late_p99_ms"])
        shed += r["shed_total"]
        attempted += r["attempted"]
        failed += not_ok(r)
        no_decode = no_decode and r["cache_misses"] == 0
    return {"p50": p50, "tail": median(tails), "capacity": median(capacity),
            "late": max(late), "shed": shed, "attempted": attempted,
            "failed": failed, "no_decode": no_decode}


def traced_suite(seed, workdir):
    """Every per-layer metric, whatever the workload: the serve_warm and
    serve_cold phases run traced against the daemon, the probes and one
    compression job run in-process with the benchmark's own spans."""
    m = {}
    checks = {}

    warm = traced_warm(seed, workdir)
    p50 = warm["p50"]
    attempted, failed = warm["attempted"], warm["failed"]
    checks["serve_warm: no decode after warm-up"] = warm["no_decode"]
    checks["serve_warm: every answer 200 and correct in all 4 phases"] = \
        failed == 0
    daemon_trace = os.path.join(workdir, "warm_daemon_trace.json")
    client_trace = os.path.join(workdir, "warm_client_trace.json")
    checks["serve_warm daemon trace valid"] = check_trace(
        daemon_trace, ["http_dispatch", "http_parse", "queue", "linger",
                       "forward", "serialize"])
    checks["serve_warm client trace valid"] = check_trace(
        client_trace, ["client.request"])
    rtt = [e["dur"] / 1e3 for e in load_events(client_trace)
           if e["name"] == "client.request"]
    paths = request_paths(load_events(daemon_trace))
    warm_un, med = attribution("serve_warm", paths, median(rtt))
    m["http.wire_ms"] = (median(rtt) - med["dispatch"], "ms", "lower")
    m["http.handle_self_ms"] = (median([p["dispatch"] - p["infer_wait"]
                                        for p in paths]), "ms", "lower")
    m["scheduler.queue_ms"] = (med["queue"], "ms", "lower")
    m["scheduler.batch_rows"] = (statistics.mean(p["batch_rows"]
                                                 for p in paths),
                                 "rows", "higher")
    m["scheduler.compute_ms"] = (med["forward"], "ms", "lower")
    m["obs.trace_overhead_pct"] = (
        100 * (median(p50[True]) / median(p50[False]) - 1), "%", "lower")
    m["trace.unattributed_frac.serve_warm"] = (warm_un, "ratio", "lower")
    m["gen.late_ms"] = (warm["late"], "ms", "lower")
    m["tail.serve_warm_ms"] = (warm["tail"], "ms", "lower")
    m["capacity.serve_warm_rps"] = (warm["capacity"], "1/s", "higher")
    log(f"tracing overhead: p50 {median(p50[True]):.4f} ms traced vs "
        f"{median(p50[False]):.4f} ms untraced")

    # serve_cold, traced.
    d, _, _ = serve_setup("serve_cold", seed, workdir, trace=True)
    try:
        t0 = time.time()
        r = drive("serve_cold", seed, workdir, d, 2 * TRACE_PHASE_S)
        window = (time.time() - t0) * 1000 + 50
        _, body = d.request("GET", f"/v1/trace?last_ms={window:.0f}")
        cold_trace = os.path.join(workdir, "cold_daemon_trace.json")
        with open(cold_trace, "wb") as f:
            f.write(body)
    finally:
        d.stop()
    attempted += r["attempted"]
    failed += r["failed"]
    checks["serve_cold: every answer 200 and correct"] = r["failed"] == 0
    checks["serve_cold daemon trace valid"] = check_trace(
        cold_trace, ["http_dispatch", "queue", "forward", "decode",
                     "lossless", "eb_decode", "reconstruct"])
    paths = request_paths(load_events(cold_trace))
    cold_un, med = attribution("serve_cold", paths, r["p50_all_ms"])
    decode_share = median([p["decode"] for p in paths]) / r["p50_all_ms"]
    checks["serve_cold: decode is at least half of a cold infer"] = \
        decode_share >= 0.5
    checks["serve_cold: hit ratio below ceiling"] = \
        r["hit_ratio"] < COLD_HIT_CEILING
    m["trace.unattributed_frac.serve_cold"] = (cold_un, "ratio", "lower")
    m["cold.decode_share"] = (decode_share, "ratio", "lower")
    m["tail.serve_cold_ms"] = (r["tail_ms"], "ms", "lower")
    m["wall.serve_cold_p50_ms"] = (r["p50_ms"], "ms", "lower")
    m["store.hit_ratio"] = (r["hit_ratio"], "ratio", "higher")
    m["store.evictions"] = (r["cache_evictions"], "count", "lower")
    m["rollout.swap_ms"] = (r["swap_p50_ms"], "ms", "lower")
    m["rollout.ready_ms"] = (r["restore_p50_ms"], "ms", "lower")
    m["rollout.rollback_ready_ms"] = (r["rollback_ready_p50_ms"], "ms",
                                      "lower")
    m["scheduler.shed"] = (warm["shed"], "count", "lower")

    # In-process probes of single layers, on the containers both serving
    # phases generated into workdir.
    probe_trace = os.path.join(workdir, "probe_trace.json")
    p = harness("probe", "--seed", seed, "--dir", workdir,
                "--trace-out", probe_trace)
    checks["probe trace valid"] = check_trace(
        probe_trace, ["probe.forward", "probe.store_get", "probe.decode_layer",
                      "probe.decode_index", "probe.container_open",
                      "probe.repo_load", "probe.delta_apply"])
    units = {"sz.decode_mvals_s": ("Mvals/s", "higher")}
    for k, v in p.items():
        unit, better = units.get(k, ("MB" if ".resident_mb." in k else "ms",
                                     "lower"))
        m[k] = (v, unit, better)

    # One compression job, traced: stage spans against the job's own span.
    compress_trace = os.path.join(workdir, "compress_trace.json")
    c = harness("compress", "--seconds", 0, "--setups", 1,
                "--trace-out", compress_trace)
    checks["compress trace valid"] = check_trace(
        compress_trace, ["compress.run", "prune", "assess", "optimize",
                         "encode", "probe.sz_encode", "probe.index_encode"])
    events = load_events(compress_trace)
    run_us = sum(e["dur"] for e in events if e["name"] == "compress.run")
    stage_us = sum(e["dur"] for e in events if e["cat"] == "compress"
                   and e["name"] in ("prune", "assess", "optimize", "encode"))
    log("-- compress: self times along the blocking path (both networks)")
    for k, v in c["stage_s"].items():
        log(f"   {k:<26} {v:9.4f} s")
        m[f"stage.{k}_s"] = (v, "s", "lower")
    log(f"   {'compress.run':<26} {run_us / 1e6:9.4f} s  (unattributed "
        f"{100 * (1 - stage_us / run_us):.2f}%)")
    m["trace.unattributed_frac.compress"] = (1 - stage_us / run_us, "ratio",
                                             "lower")
    m["assess.bounds_tested"] = (c["bounds_tested"], "count", "lower")
    m["sz.encode_ms"] = (c["sz_encode_ms"], "ms", "lower")
    m["lossless.index_encode_ms"] = (c["index_encode_ms"], "ms", "lower")
    m["compress.top1_drop"] = (c["top1_drop"], "ratio", "lower")
    m["compress.job_s"] = (c["p50_ms"] / 1000, "s", "lower")
    m["compress.restore_ms"] = (c["restore_p50_ms"], "ms", "lower")
    checks["compress containers identical"] = c["identical"]
    attempted += 2
    return checks, attempted, failed, m


# ---------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["serve_warm", "serve_cold", "compress"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    # A SIGTERM unwinds through the cleanup below like any failure.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    for need in ("CMakeLists.txt", "src", os.path.join("tools",
                                                       "deepsz_tool.cpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"repository source not found ({need} missing next to "
                 f"{os.path.basename(HERE)}/)", code=2)
    build()
    prepare()

    workdir = os.path.join(BUILD, "runs", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if args.trace:
            checks, attempted, failed, m = traced_suite(args.seed, workdir)
            metrics = {k: metric(v, unit) for k, (v, unit, _) in m.items()}
            log("-- per-layer metrics")
            for k, (v, unit, better) in m.items():
                log(f"   {k:<36} {v:14.6g} {unit:<8} ({better} is better)")
        else:
            run = {"serve_warm": run_serve_warm,
                   "serve_cold": run_serve_cold,
                   "compress": run_compress}[args.workload]
            checks, attempted, failed, metrics, summary = run(
                args.seed, args.seconds, workdir)
            log(f"-- {args.workload} (seed {args.seed}): {summary}")
            for k, v in metrics.items():
                log(f"   {k:<20} {v['value']:14.6g} {v['unit']}")
    finally:
        for d in list(Daemon.live):
            d.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    for name, ok in checks.items():
        log(f"   check: {'PASS' if ok else 'FAIL'}  {name}")
    result(all(checks.values()), attempted, failed, metrics)


if __name__ == "__main__":
    main()
