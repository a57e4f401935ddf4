#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, every metric.

    python3 perfbench/run.py --workload detect-lfr --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. It builds the `oca` binary and the
`oca-perfprobe` helper (perfbench/probe) into $CARGO_TARGET_DIR (default
.bench_build), generates the workload's inputs from --seed with
`oca generate`, runs the workload the way an operator does, checks the
outputs, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones, from a separate traced run. perfbench/README.md documents
every metric, the layer-to-metric map and why each workload exists.
Scratch files, the full result and the trace spans go to .perfbench/.
"""

import argparse
import datetime
import hashlib
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench")
NPROC = os.cpu_count() or 1

# Open-loop load: latency percentiles are taken at one fixed offered
# rate per workload, well under the lowest max_rate_rps seen on the
# commit that introduced the benchmark (2 cores). The rate search of the
# traced run looks for the highest rate whose query p99 stays within the
# workload's limit with no failure and no growing backlog. On a 2-core
# host the client and the server share the cores, and a 1 ms p99 sits
# inside the scheduler's noise, so the LFR limit is 5 ms; on the hub
# graph one `local` ascent alone takes several ms and a `query` answer
# runs to tens of KB, so its limit is 50 ms.
#
# `graphs` is the number of graphs a seed makes, detected in turn: the
# detect of one BA-30k graph takes up to 20% longer than another's, so the
# hub workload takes its medians over five graphs, while LFR-200k graphs
# of different seeds differ by less than the noise.
WORKLOADS = {
    "detect-lfr": {
        "family": ["--family", "lfr", "--nodes", "200000", "--mu", "0.3"],
        "truth": True,
        "threads": NPROC,
        "checkpoint": True,
        "graphs": 1,
        "rate": 4000,
        "p99_limit_us": 5000,
    },
    "detect-hub": {
        "family": ["--family", "ba", "--m", "16", "--nodes", "30000"],
        "truth": False,
        "threads": 1,
        "checkpoint": False,
        "graphs": 5,
        "rate": 300,
        "p99_limit_us": 50000,
    },
    "serve-read": {
        "family": ["--family", "lfr", "--nodes", "200000", "--mu", "0.3"],
        "truth": True,
        "threads": NPROC,
        "checkpoint": False,
        "graphs": 1,
        "rate": 4000,
        "p99_limit_us": 5000,
    },
}
# `oca detect`'s default --seed; the hub workload's Θ reference reruns
# the same command at the next seed.
DETECT_SEED = 42
SETUP_REPEATS = 3
# detect_s is the median of at least this many runs (one per graph when
# there are more graphs): the same detect of the same graph swings by
# 15-25% from one run to the next on a shared host.
DETECT_REPEATS = 3
DETECT_LOAD_S = 5.0
TRACE_LOAD_S = 3.0
PROCESS_TIMEOUT_S = 150.0
# Generated inputs kept for reuse by later runs (an LFR-200k edge list
# is about 30 MB).
INPUTS_KEPT = 8


class Bench:
    """Process runner, span recorder and failure ledger of one run."""

    def __init__(self, workload, seed, trace):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.t0 = time.monotonic()
        self.spans = []
        self.attempted = 0
        self.failed = 0
        self.failures = []     # messages; `failed` holds the count
        self.failed_runs = set()  # detect runs that failed, by name
        self.children = []
        self.tag = f"{workload}-s{seed}-t{trace}"
        self.dir = os.path.join(WORK, self.tag)
        os.makedirs(self.dir, exist_ok=True)

    def path(self, name):
        return os.path.join(self.dir, name)

    def now(self):
        return time.monotonic() - self.t0

    def span(self, name, start, end, parent=None):
        sid = len(self.spans)
        self.spans.append(dict(id=sid, run=self.tag, name=name, start=start, end=end,
                               parent=parent))
        return sid

    def adopt_spans(self, path, parent, offset):
        """Reads a probe's span file, nesting its roots under `parent`."""
        if not os.path.exists(path):
            return
        base = len(self.spans)
        with open(path) as f:
            for line in f:
                s = json.loads(line)
                local_parent = s.get("parent")
                s["parent"] = parent if local_parent is None else base + local_parent
                s["id"] = base + s["id"]
                s["start"] += offset
                s["end"] += offset
                self.spans.append(s)

    def check(self, ok, what, run=None):
        """Counts one attempted operation, failed unless `ok`. A failure
        of a detect run names the run."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            if run:
                self.failed_runs.add(run)
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def spawn(self, name, argv):
        out = open(self.path(name + ".out"), "w")
        err = open(self.path(name + ".err"), "w")
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
        out.close()
        err.close()
        self.children.append(proc)
        return proc

    def reap(self, proc, timeout=PROCESS_TIMEOUT_S):
        """Waits for `proc`; returns (exit code, peak RSS in MiB)."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.001)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.children.remove(proc)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def run(self, name, argv, run=None):
        """Runs one process to completion and checks its exit code;
        `run` names the detect run it belongs to.
        Returns (ok, wall seconds, peak RSS MiB, stdout)."""
        start = self.now()
        proc = self.spawn(name, argv)
        code, rss = self.reap(proc)
        end = self.now()
        self.span(name, start, end)
        ok = self.check(code == 0, f"{name} exited {code}", run)
        with open(self.path(name + ".out")) as f:
            out = f.read()
        if not ok:
            with open(self.path(name + ".err")) as f:
                print(f.read()[-2000:], file=sys.stderr)
        return ok, end - start, rss, out

    def stop_all(self):
        for proc in list(self.children):
            proc.kill()
            os.wait4(proc.pid, 0)
            self.children.remove(proc)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds `oca` and the probe from source; False when that fails."""
    if not os.path.exists(os.path.join(ROOT, "Cargo.toml")):
        print("no Cargo.toml at the checkout root", file=sys.stderr)
        return False
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for argv in (
        ["cargo", "build", "--release", "--offline", "-p", "oca-cli"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "probe", "Cargo.toml")],
    ):
        if subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            return False
    return True


def source_digest():
    """A hash of the program's sources: identifies a checkout without git
    history, and keys the generated inputs, since `oca generate` is part
    of the program under test."""
    digest = hashlib.sha256()
    for base in ("Cargo.toml", "Cargo.lock", "crates"):
        top = os.path.join(ROOT, base)
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            digest.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def meta(sources):
    commit = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    return {"commit": commit, "source_sha256": sources, "nproc": NPROC,
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")}


def prune_inputs(keep=INPUTS_KEPT):
    """Keeps the most recently made generated inputs, drops the rest."""
    top = os.path.join(WORK, "inputs")
    if not os.path.isdir(top):
        return
    dirs = sorted((os.path.getmtime(os.path.join(top, d)), d) for d in os.listdir(top))
    for _, d in dirs[:max(len(dirs) - keep, 0)]:
        shutil.rmtree(os.path.join(top, d), ignore_errors=True)


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def ask(port, line, timeout=5.0):
    """Sends one request line; returns the parsed JSON answer or None."""
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
            s.sendall(line.encode() + b"\n")
            answer = s.makefile().readline()
        return json.loads(answer)
    except (OSError, ValueError):
        return None


def stat_of(text, key):
    m = re.search(rf"^{re.escape(key)} = (\S+)$", text, re.M)
    return m.group(1) if m else None


def median(values):
    return statistics.median(values) if values else 0.0


class Workload:
    def __init__(self, bench, cfg, seconds, sources):
        self.b = bench
        self.sources = sources
        self.cfg = cfg
        self.seconds = seconds
        tdir = target_dir()
        self.oca = os.path.join(tdir, "release", "oca")
        self.probe = os.path.join(tdir, "release", "oca-perfprobe")
        self.inputs = []  # per graph: its directory of generated inputs
        self.edges = None
        self.truth = None
        self.edges_n = 0
        self.ocgs = [bench.path(f"g{j}.ocg") for j in range(cfg["graphs"])]
        self.ocg = self.ocgs[0]
        self.cover = bench.path("c.cover")
        self.bin = bench.path("c.bin")
        self.nodes = 0
        self.c = None
        self.server = None
        self.port = None
        self.m = {}      # metric name -> value
        self.info = {}   # everything else worth keeping

    # -- probe ---------------------------------------------------------------
    def probe_json(self, name, args, spans=False, run=None):
        argv = [self.probe] + args
        span_file = self.b.path(name + ".spans.jsonl")
        if spans:
            argv += ["--spans", span_file, "--run", f"{self.b.tag}/{name}"]
        start = self.b.now()
        ok, wall, _, out = self.b.run(name, argv, run=run)
        if spans:
            self.b.adopt_spans(span_file, self.b.spans[-1]["id"], start)
        if not ok:
            return None, wall
        return json.loads(out.strip().splitlines()[-1]), wall

    # -- inputs --------------------------------------------------------------
    def generate(self):
        """Generates the seed's graphs: graph j is `oca generate --seed
        seed * graphs + j` (with planted truth where the family has it).
        Runs with the same family, seed and sources share one generated
        copy. The single-graph steps (Θ, the server, the traced run) use
        graph 0."""
        prune_inputs()
        graphs = self.cfg["graphs"]
        for j in range(graphs):
            seed = self.b.seed * graphs + j
            key = "-".join(a.lstrip("-") for a in self.cfg["family"]) + f"-s{seed}-{self.sources}"
            cache = os.path.join(WORK, "inputs", key)
            done = os.path.join(cache, "generate.out")
            if not os.path.exists(done):
                os.makedirs(cache, exist_ok=True)
                argv = [self.oca, "generate"] + self.cfg["family"] + [
                    "--seed", str(seed), "--output", os.path.join(cache, "g.edges")]
                if self.cfg["truth"]:
                    argv += ["--truth", os.path.join(cache, "truth.cover")]
                ok, _, _, out = self.b.run(f"generate-{j}", argv)
                if not ok:
                    raise SystemExit("input generation failed")
                with open(done + ".tmp", "w") as f:
                    f.write(out)
                os.replace(done + ".tmp", done)
            self.inputs.append(cache)
        self.edges = os.path.join(self.inputs[0], "g.edges")
        self.truth = os.path.join(self.inputs[0], "truth.cover")
        with open(os.path.join(self.inputs[0], "generate.out")) as f:
            m = re.search(r"\((\d+) nodes, (\d+) edges\)", f.read())
        self.nodes, self.edges_n = int(m.group(1)), int(m.group(2))

    def graph_build(self, repeats):
        """Builds the graphs in turn, `repeats` builds in all; returns the
        build times."""
        times = []
        for i in range(repeats):
            j = i % len(self.inputs)
            if os.path.exists(self.ocgs[j]):
                os.remove(self.ocgs[j])
            ok, wall, _, _ = self.b.run(f"graph-build-{i}", [
                self.oca, "graph", "build", "--input", os.path.join(self.inputs[j], "g.edges"),
                "--output", self.ocgs[j]])
            if ok:
                times.append(wall)
        return times

    # -- detect --------------------------------------------------------------
    def detect_argv(self, output, graph, seed):
        argv = [self.oca, "detect", "--graph", graph, "--threads", str(self.cfg["threads"]),
                "--output", output, "--seed", str(seed)]
        if self.cfg["checkpoint"]:
            argv += ["--checkpoint", self.b.path("run.ockpt")]
        return argv

    def detect(self, name, output, graph=None, seed=DETECT_SEED):
        """Runs `oca detect` on `graph` (default graph 0); its exit code
        and, when that is 0, its cover are checked, and a failure of
        either counts against the run `name`."""
        graph = graph or self.ocg
        ok, wall, rss, out = self.b.run(name, self.detect_argv(output, graph, seed), run=name)
        if ok:
            if graph == self.ocg:
                self.c = stat_of(out, "c")
                self.info.setdefault("detect_stats", {
                    k: stat_of(out, k) for k in ("c", "raw_communities", "halt_reason",
                                                 "ascent_ns", "dedup_ns", "merge_ns",
                                                 "ckpt_rounds", "ckpt_total_write_ns")})
            ok = self.b.check(os.path.exists(output), f"{name}: no cover written", name)
        return ok, wall, rss

    def cover_check(self, name, found, run, reference=None):
        """Parses the cover that detect run `run` wrote, and scores it."""
        args = ["cover-check", "--nodes", str(self.nodes), "--found", found]
        if reference:
            args += ["--reference", reference]
        res, _ = self.probe_json(name, args, run=run)
        if res and reference:
            self.b.check(res["theta_agrees"], f"{name}: indexed theta differs from oca_metrics")
        return res

    def detect_phase(self):
        """Runs `oca detect` over the graphs in turn, DETECT_REPEATS times
        or once per graph, whichever is more; a repeat on a graph must
        write the same cover as the graph's first detect."""
        walls, rss = [], []
        first = {}  # graph index -> the cover its first detect wrote
        for i in range(max(DETECT_REPEATS, len(self.ocgs))):
            j = i % len(self.ocgs)
            name = f"detect-{i}"
            out = self.cover if i == 0 else self.b.path(f"c{i}.cover")
            ok, wall, peak = self.detect(name, out, self.ocgs[j])
            if not ok:
                break
            walls.append(wall)
            rss.append(peak)
            with open(out, "rb") as f:
                cover = f.read()
            if j in first:
                self.b.check(cover == first[j], f"{name} wrote a different cover", name)
            else:
                first[j] = cover
        self.info["detect_walls"] = walls
        return walls, rss

    def theta(self):
        if self.cfg["truth"]:
            reference = self.truth
        else:
            # No planted truth: Θ against the same command one seed on
            # (how stable the found communities are under reseeding).
            reference = self.b.path("reseeded.cover")
            self.detect("detect-reseeded", reference, seed=DETECT_SEED + 1)
        res = self.cover_check("theta", self.cover, "detect-0", reference)
        return res["theta"] if res else 0.0

    # -- serve ---------------------------------------------------------------
    def save_cover(self):
        ok, _, _, _ = self.b.run("cover-save", [
            self.oca, "cover", "save", "--graph", self.ocg, "--cover", self.cover,
            "--output", self.bin, "--fixed-c", self.c or "0.5"])
        return ok

    def serve_argv(self, port, fixed_c):
        argv = [self.oca, "serve", "--graph", self.ocg, "--cover", self.bin,
                "--workers", str(NPROC), "--addr", f"127.0.0.1:{port}"]
        if fixed_c:
            argv += ["--fixed-c", self.c]
        return argv

    def start_server(self, name, fixed_c):
        """Spawns `oca serve`; returns spawn-to-healthy seconds or None."""
        port = free_port()
        start = self.b.now()
        proc = self.b.spawn(name, self.serve_argv(port, fixed_c))
        deadline = time.monotonic() + PROCESS_TIMEOUT_S
        healthy = False
        while time.monotonic() < deadline and proc.poll() is None:
            answer = ask(port, "health", timeout=1.0)
            if answer and answer.get("ok"):
                healthy = True
                break
            time.sleep(0.002)
        ready = self.b.now()
        self.b.span(name + ".startup", start, ready)
        if not self.b.check(healthy, f"{name}: server never answered health"):
            self.stop_server(proc, port)
            return None
        self.server, self.port = proc, port
        return ready - start

    def stop_server(self, proc=None, port=None):
        proc = proc or self.server
        port = port or self.port
        if proc is None:
            return 0.0
        if proc.poll() is None:
            ask(port, "shutdown")
        code, rss = self.b.reap(proc, timeout=30)
        self.b.check(code == 0, f"server exited {code}")
        if proc is self.server:
            self.server = None
        return rss

    def load(self, name, seconds, search, spans=False):
        args = ["loadgen", "--addr", f"127.0.0.1:{self.port}", "--nodes", str(self.nodes),
                "--rate", str(self.cfg["rate"]), "--seconds", str(seconds),
                "--threads", str(NPROC), "--seed", str(self.b.seed), "--cover", self.bin,
                "--p99-limit-us", str(self.cfg["p99_limit_us"])]
        if search:
            args += ["--search"]
        res, _ = self.probe_json(name, args, spans=spans)
        if res is None:
            return None
        # Every request and every checked answer is one operation.
        b = self.b
        fails, bad = res["attempted"] - res["ok"], res["query_check_failures"]
        b.attempted += res["attempted"] + res["query_checks"]
        b.failed += fails + bad
        if fails:
            b.failures.append(f"{name}: {fails} of {res['attempted']} requests failed")
        if bad:
            b.failures.append(f"{name}: {bad} query answers differ from the warm-start "
                              "cover's index")
        if not res["valid"]:
            print(f"{name}: run invalid: generator late p99 {res['late_p99_ms']:.3f} ms, "
                  f"final backlog {res['backlog_ms']:.3f} ms (limits 1 ms each)",
                  file=sys.stderr)
        self.info[name] = res
        return res

    # -- the runs ------------------------------------------------------------
    def end_to_end(self):
        serve_read = self.b.workload == "serve-read"
        self.generate()
        builds = self.graph_build(1 if serve_read else max(SETUP_REPEATS, len(self.ocgs)))
        walls, rss = self.detect_phase()
        theta = self.theta()
        if not self.save_cover():
            return
        starts = []
        server_starts = SETUP_REPEATS if serve_read else 1
        for i in range(server_starts):
            t = self.start_server(f"serve-{i}", fixed_c=not serve_read)
            if t is None:
                break
            starts.append(t)
            if i + 1 < server_starts:
                self.stop_server()
        load_s = self.seconds if serve_read else DETECT_LOAD_S
        res = self.load("load", load_s, search=False) if self.server else None
        server_rss = self.stop_server()
        res = res or {}
        self.m = {
            "setup_s": median(starts if serve_read else builds),
            "detect_s": median(walls),
            "peak_rss_mib": server_rss if serve_read else max(rss or [0.0]),
            "theta": theta,
            "local_p50_us": res.get("local_p50_us", 0.0),
        }
        self.info.update(setup_runs=builds, server_starts=starts,
                         query_samples=res.get("query_samples"),
                         local_samples=res.get("local_samples"))

    def traced(self):
        """The per-layer run: the untraced command once, then the same
        work through the crates' public functions, span by span."""
        b = self.b
        self.generate()
        builds = self.graph_build(1)
        ok, untraced_s, _ = self.detect("detect-untraced", self.cover)
        traced_cover = b.path("traced.cover")
        args = ["trace-detect", "--graph", self.ocg, "--output", traced_cover,
                "--threads", str(self.cfg["threads"]), "--seed", str(DETECT_SEED)]
        if self.cfg["checkpoint"]:
            args += ["--checkpoint", b.path("traced.ockpt")]
        td, traced_s = self.probe_json("trace-detect", args, spans=True, run="trace-detect")
        same = False
        if ok and td and os.path.exists(traced_cover):
            with open(self.cover, "rb") as f1, open(traced_cover, "rb") as f2:
                same = f1.read() == f2.read()
        b.check(same, "traced detect did not reproduce the oca detect cover", "trace-detect")
        self.cover_check("cover-check", self.cover, "detect-untraced")
        td = td or {}
        sl, _ = self.probe_json("search-loop", [
            "search-loop", "--graph", self.ocg, "--c", td.get("c", "0.5"),
            "--seed", str(DETECT_SEED)])
        sl = sl or {}

        serve_read = b.workload == "serve-read"
        res, stats = {}, {}
        if self.save_cover() and self.start_server("serve", fixed_c=not serve_read):
            res = self.load("load", TRACE_LOAD_S, search=True, spans=True) or {}
            stats = ask(self.port, "stats") or {}
            self.stop_server()
        args = ["trace-serve", "--graph", self.ocg, "--cover", self.bin,
                "--seed", str(b.seed)]
        if not serve_read and self.c:
            args += ["--fixed-c", self.c]
        ts, _ = self.probe_json("trace-serve", args, spans=True)
        ts = ts or {}

        layers = sum(td.get(k, 0.0) for k in ("open_s", "spectral_s", "build_s", "driver_s",
                                                 "merge_s", "cover_write_s"))
        server_query = ((stats.get("latency") or {}).get("query") or {}).get("p50_us", 0.0)
        build_s = median(builds)
        sent = res.get("sent", 0)
        self.m = {
            "ocg_build.s": build_s,
            "ocg_build.edges_per_s": self.edges_n / build_s if build_s else 0.0,
            "ocg.open_s": td.get("open_s", 0.0),
            "spectral.s": td.get("spectral_s", 0.0),
            "spectral.iterations": td.get("spectral_iterations", 0),
            "spectral.converged": 1 if td.get("spectral_converged") else 0,
            "spectral.c": float(td.get("c", 0.0)),
            "driver.ascent_s": td.get("ascent_s", 0.0),
            "driver.reduce_s": td.get("reduce_s", 0.0),
            "driver.other_s": td.get("driver_other_s", 0.0),
            "driver.seeds_tried": td.get("seeds_tried", 0),
            "driver.accept_ratio": td.get("accept_ratio", 0.0),
            "driver.coverage": td.get("coverage", 0.0),
            "search.ns_per_move": sl.get("ns_per_move", 0.0),
            "search.moves": sl.get("moves", 0),
            "merge.s": td.get("merge_s", 0.0),
            "merge.in": td.get("merge_in", 0),
            "merge.out": td.get("merge_out", 0),
            "ckpt.write_s": td.get("ckpt_write_s", 0.0),
            "ckpt.writes": td.get("ckpt_writes", 0),
            "ckpt.bytes": td.get("ckpt_bytes", 0),
            "ckpt.share": td.get("ckpt_write_s", 0.0) / td["total_s"] if td.get("total_s") else 0.0,
            "cover_write.s": td.get("cover_write_s", 0.0),
            "persist.load_s": ts.get("persist_load_s", 0.0),
            "index.build_s": ts.get("index_build_s", 0.0),
            "server_spectral.s": ts.get("spectral_s", 0.0),
            "protocol.parse_ns": ts.get("parse_ns", 0.0),
            "snapshot.pin_ns": ts.get("pin_ns", 0.0),
            "index.probe_ns": ts.get("probe_ns", 0.0),
            "response.query_bytes": res.get("query_bytes", 0.0),
            "server.query_us": server_query,
            "transport.query_us": res.get("query_p50_us", 0.0) - server_query,
            "local.ascent_us": ts.get("local_ascent_us", 0.0),
            "local.moves": ts.get("local_moves", 0.0),
            "local.miss_share": (res.get("local_check_failures", 0)
                                 / max(res.get("local_checks", 0), 1)),
            "query_p50_us": res.get("query_p50_us", 0.0),
            "query_p99_us": res.get("query_p99_us", 0.0),
            "local_p99_us": res.get("local_p99_us", 0.0),
            "max_rate_rps": res.get("max_rate_rps", 0.0),
            "query.samples": res.get("query_samples", 0),
            "local.samples": res.get("local_samples", 0),
            "loadgen.late_ms": res.get("late_p99_ms", 0.0),
            "serve.sent": sent,
            "serve.ok": res.get("ok", 0),
            "serve.typed_error": res.get("typed_error", 0),
            "serve.refused": res.get("refused", 0),
            "serve.timed_out": res.get("timed_out", 0) + res.get("io_error", 0)
                               + res.get("not_sent", 0),
            # detect_s = layers + unattributed_s - trace_overhead_s exactly.
            "unattributed_s": traced_s - layers,
            "trace_overhead_s": traced_s - untraced_s,
        }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        print("build failed", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.trace)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    sources = source_digest()
    work = Workload(bench, WORKLOADS[args.workload], args.seconds, sources)
    try:
        if args.trace:
            work.traced()
        else:
            work.end_to_end()
    finally:
        bench.stop_all()
        # Keep the logs; drop the graphs, covers and checkpoints.
        for name in os.listdir(bench.dir):
            if name.endswith((".ocg", ".cover", ".bin", ".ockpt")):
                os.remove(bench.path(name))

    failed = bench.failed
    attempted = max(bench.attempted, 1)
    metrics = dict(work.m)
    if not args.trace:
        metrics["ok_share"] = 1.0 - failed / attempted
    else:
        metrics["failed_share"] = failed / attempted
        metrics["detect.failed_runs"] = len(bench.failed_runs)
    units = load_units()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(meta=meta(sources), workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, failures=bench.failures, details=work.info, result=result,
                  wall_s=bench.now())
    with open(os.path.join(WORK, bench.tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    with open(os.path.join(WORK, bench.tag + ".spans.jsonl"), "w") as f:
        for s in bench.spans:
            f.write(json.dumps(s) + "\n")
    print(json.dumps({"meta": record["meta"], "failures": bench.failures,
                      "details": work.info}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def load_units():
    """Metric name -> unit, from BENCHMARK.json at the checkout root."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
