#!/usr/bin/env python3
"""The csmaprobe benchmark.

    python3 perfbench/run.py --workload {figures,grid,serve} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. The first run builds the release
binaries (`all_figures`, `grid`, `csmaprobe`) and the
benchmark's own helper package (`perfbench/layers`) into
`$CARGO_TARGET_DIR` (default `.bench_build`).

With `--trace 0` the chosen workload runs for about `--seconds` seconds
and the end-to-end metrics are printed. With `--trace 1` the per-layer
trace runs instead (see `perfbench/layers`). Either way the last line
of stdout is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the lines before it stamp the result's context
and, for a traced run, tag every layer metric with the end-to-end
metric it should move. Every result is also appended, with its
context, to `perfbench/work/results.jsonl`.

The workload seed is the benchmark's: the programs receive only the
inputs made from it (figure and grid seeds, the serve session mix).
Seeds from HELD_OUT_SEED upwards are held out: use them only to
re-check a claim made on other seeds.

See perfbench/README.md for why each workload and metric exists.
"""

import argparse
import hashlib
import heapq
import json
import os
import platform
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"

WORKLOADS = ("figures", "grid", "serve")
END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_s": "s",
}
HELD_OUT_SEED = 1_000_000

# The repository's default figure seed: the golden payload
# BENCH_baseline.json is the scale-1 registry run at this seed.
DEFAULT_SEED = 0xC5AA2009
# Launches of the program that only time its set-up, taken before each
# program run of a batch workload and before and after the serve daemon.
SETUP_SAMPLES = 25

# The grid workload: the full catalog campaign.
GRID_AXES = [
    "--links", "wired,wlan_low,wlan_mid,wlan_fifo",
    "--trains", "short,mid,long",
    "--tools", "train,slops,topp,chirp",
    "--scale", "40",
]
GRID_CELLS = 4 * 3 * 4
GRID_REFERENCE = BENCH / "ref" / "grid_default_seed.json"

# The serve workload: the repository's `service::mix` sessions at the
# replications its service jobs drive `loadgen` with, drawn in blocks
# that hold each session class in its mix share (see perfbench/layers).
# The nominal rate is in sessions per second, about 0.4 of the capacity
# measured on this traffic (see README.md). Half the run goes to it, in
# up to SERVE_ROUNDS segments; each is followed by a burst of
# SERVE_BURST_BLOCKS blocks of sessions submitted at once. The client
# polls each outstanding session every SERVE_POLL_S, at most one poll
# every SERVE_POLL_GAP_S over all sessions.
SERVE_REPS = 24
SERVE_NOMINAL_SPS = 40.0
SERVE_NOMINAL_SHARE = 0.5
SERVE_ROUNDS = 12
SERVE_BURST_BLOCKS = 1
SERVE_P99_LIMIT_S = 0.25
SERVE_POLL_S = 0.005
SERVE_POLL_GAP_S = 0.002
# Sessions per composition block of the mix (BLOCK in perfbench/layers).
MIX_BLOCK = 64
# Half the mix's tools estimate from one train; latency_p50_s on serve
# is the median over their sessions (see README.md).
SERVE_SINGLE_TRAIN_TOOLS = ("train", "chirp")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark cannot produce a result (build or launch failed)."""


# ---------------------------------------------------------------------
# Build and context


def target_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def binary(name):
    return target_dir() / "release" / name


def child_env(**extra):
    """The environment for the programs: no inherited CSMAPROBE_*
    settings (engine policy, worker count), only the ones given."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CSMAPROBE_")}
    env["CARGO_TARGET_DIR"] = str(target_dir())
    env.update({k: str(v) for k, v in extra.items()})
    return env


def build():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise BenchError(f"no csmaprobe source tree at {ROOT}")
    commands = [
        ["cargo", "build", "--release", "--offline",
         "-p", "csmaprobe-bench", "--bin", "all_figures", "--bin", "grid",
         "-p", "csmaprobe", "--bin", "csmaprobe"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", str(BENCH / "layers" / "Cargo.toml")],
    ]
    for cmd in commands:
        r = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr)
        if r.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")


def nproc():
    return len(os.sched_getaffinity(0))


def host_fingerprint():
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    text = f"{platform.machine()}|{cpu}|{os.cpu_count()}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def source_fingerprint():
    """Hash of every source file the measured programs and the benchmark
    are built from: the checkout is not a git repository, so this is
    the commit identity."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "src", "perfbench"):
        for p in (ROOT / top).rglob("*"):
            rel = p.relative_to(ROOT).parts
            if p.is_file() and not {"work", "target", "__pycache__"} & set(rel):
                files.append(p)
    for p in sorted(files):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def context(workload, seed, seconds, trace):
    workers = {"figures": 1}.get(workload, nproc())
    return {
        "host": host_fingerprint(),
        "nproc": nproc(),
        "profile": "release",
        "workload": workload,
        "workers": workers,
        "scale": {"figures": 1, "grid": 40}.get(workload),
        "seed": seed,
        "held_out": seed >= HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "source": source_fingerprint(),
    }


# ---------------------------------------------------------------------
# Process measurement


class Proc:
    """A launched program: spawn time, the time of its first stderr
    line (the end of set-up), timestamped stderr lines, and at exit its
    rusage."""

    # Launched and not yet reaped; `main` stops these on any exit path.
    live = set()

    def __init__(self, cmd, cwd, env, stdout=subprocess.DEVNULL):
        self.t0 = time.perf_counter()
        self.p = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout,
                                  stderr=subprocess.PIPE, text=True)
        Proc.live.add(self)
        self.lines = []  # (seconds since spawn, line)
        self.first_line = threading.Event()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.p.stderr:
            self.lines.append((time.perf_counter() - self.t0, line.rstrip("\n")))
            self.first_line.set()
        self.first_line.set()

    def setup_s(self):
        return self.lines[0][0] if self.lines else None

    def wait(self, timeout=170.0):
        """Reap the process; returns (exit code, wall s, cpu s, peak rss MB)."""
        deadline = time.perf_counter() + timeout
        while True:
            pid, status, ru = os.wait4(self.p.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                self.p.kill()
                pid, status, ru = os.wait4(self.p.pid, 0)
                break
            time.sleep(0.002)
        wall = time.perf_counter() - self.t0
        self.p.returncode = os.waitstatus_to_exitcode(status)
        Proc.live.discard(self)
        self.reader.join(timeout=5)
        return self.p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0

    def kill(self):
        if self.p.returncode is None:
            self.p.kill()
            self.wait()


def setup_only(cmd, cwd, env):
    """Launch `cmd`, time it to its first stderr line, then stop it."""
    proc = Proc(cmd, cwd, env)
    proc.first_line.wait(timeout=30)
    s = proc.setup_s()
    proc.kill()
    if s is None:
        raise BenchError(f"{cmd[0]} printed nothing")
    return s


def quantile(values, q):
    """Nearest-rank quantile."""
    v = sorted(values)
    return v[min(len(v) - 1, max(0, int(round(q * (len(v) - 1)))))]


def median(values):
    return statistics.median(values)


class Tally:
    """Attempts and failures of one run, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def gate(self, ok, what, count=1, failures=None):
        self.attempted += count
        bad = (0 if ok else count) if failures is None else failures
        if bad:
            self.failed += bad
            self.reasons.append(what)
            log(f"gate failed: {what}")


def measure_loop(seconds, one):
    """Call `one()` repeatedly for about `seconds`: start another
    iteration only while it is expected to end inside the budget, and
    always run at least one."""
    results = []
    t0 = time.perf_counter()
    while True:
        t = time.perf_counter()
        results.append(one())
        last = time.perf_counter() - t
        if time.perf_counter() - t0 + last > seconds:
            return results


def batch_metrics(iterations, setups):
    """End-to-end metrics of a batch workload: each iteration is one
    process that completes a fixed set of jobs, all due at its spawn.
    The default-seed gate run counts as one more sample: it does the
    same work on another seed, and per-process noise on a shared host
    (about 15 % run to run) needs every sample a run can give. Set-up
    is the median of the launches stopped once set up: a few
    milliseconds each, so a run takes many of them."""
    return {
        "setup_s": median(setups),
        "cpu_s": median(i["cpu"] for i in iterations),
        "wall_s": median(i["wall"] for i in iterations),
        "peak_rss_mb": median(i["rss"] for i in iterations),
        "latency_p50_s": median(quantile(i["done"], 0.5) for i in iterations),
    }


# ---------------------------------------------------------------------
# figures: the scale-1 registry run on one worker


def strip_timing(text):
    """experiments.json without its two timing channels."""
    text = re.sub(r',"elapsed_s":[0-9.eE+-]+', "", text)
    return re.sub(r',"wallclock":\[(\[[^]]*\],?)*\]', "", text)


FIGURE_DONE = re.compile(r"^(\S+): (\d+) checks, ")


def figures_iteration(seed, tally):
    """One registry run. The run itself must complete (exit 0, or 1 when
    a qualitative check fails) with every figure in its payload."""
    d = WORK / "figures"
    d.mkdir(parents=True, exist_ok=True)
    out = d / "experiments.json"
    if out.exists():
        out.unlink()
    with open(d / "stdout.txt", "w") as stdout:
        proc = Proc([str(binary("all_figures")), "--scale", "1", "--seed", str(seed)],
                    d, child_env(CSMAPROBE_WORKERS=1), stdout=stdout)
        code, wall, cpu, rss = proc.wait()
    payload = out.read_text() if out.exists() else ""
    figures = len(re.findall(r'\{"id":', payload))
    checks = re.findall(r'"passed":(true|false)', payload)
    done = [t for t, line in proc.lines if FIGURE_DONE.match(line)]
    tally.gate(code in (0, 1) and figures > 0 and figures == len(done),
               f"all_figures seed {seed}: exit {code}, {figures} figures")
    return {"wall": wall, "cpu": cpu, "rss": rss, "done": done or [wall],
            "payload": strip_timing(payload),
            "checks": len(checks), "passed": checks.count("true")}


def run_figures(seed, seconds, tally):
    setups = []

    def one(s):
        cmd = [str(binary("all_figures")), "--scale", "1", "--seed", str(s)]
        for _ in range(SETUP_SAMPLES):
            setups.append(setup_only(cmd, WORK, child_env(CSMAPROBE_WORKERS=1)))
        return figures_iteration(s, tally)

    # Warm-up and golden gate at the default seed: every qualitative
    # check passes and the payload equals the golden one byte for byte
    # once the timing channels are stripped.
    golden = one(DEFAULT_SEED)
    tally.gate(golden["passed"] == golden["checks"] > 0,
               f"default seed: {golden['passed']}/{golden['checks']} checks pass",
               count=max(golden["checks"], 1),
               failures=golden["checks"] - golden["passed"] or int(golden["checks"] == 0))
    baseline = ROOT / "BENCH_baseline.json"
    tally.gate(baseline.is_file() and golden["payload"] == strip_timing(baseline.read_text()),
               "experiments.json at the default seed differs from BENCH_baseline.json")
    # The measured runs use the workload seed. No reference exists for
    # it, so the gate there is reproducibility; the qualitative checks
    # are statistical tests whose outcome at another seed is reported,
    # not counted (a check can miss by Monte-Carlo noise alone).
    its = measure_loop(seconds, lambda: one(seed))
    for it in its[1:]:
        tally.gate(it["payload"] == its[0]["payload"],
                   f"seed {seed} payload changed between iterations")
    return batch_metrics([golden] + its, setups), {
        "checks_passing_at_seed": f"{its[0]['passed']}/{its[0]['checks']}"}


# ---------------------------------------------------------------------
# grid: the full catalog campaign at nproc workers


def strip_provenance(table):
    """The grid table without the run/shard fingerprints and the tier
    token, which legitimately change when an engine tier is removed
    with trajectory-exact results."""
    return re.sub(r'"(run|shard|tier)":"[^"]*",', "", table)


GRID_CELL_DONE = re.compile(r"^\[\d+/\d+\] cell ")


def grid_cmd(seed):
    return [str(binary("grid")), *GRID_AXES, "--seed", str(seed), "--jobs", str(nproc()),
            "--out", "grid_rows.jsonl", "--table", "grid.json"]


def grid_dir():
    """The grid's working directory, without the outputs of an earlier
    launch (which a new one would try to resume)."""
    d = WORK / "grid"
    d.mkdir(parents=True, exist_ok=True)
    for name in ("grid_rows.jsonl", "grid.json"):
        if (d / name).exists():
            (d / name).unlink()
    return d


def grid_iteration(seed, tally):
    d = grid_dir()
    proc = Proc(grid_cmd(seed), d, child_env())
    code, wall, cpu, rss = proc.wait()
    table = (d / "grid.json").read_text() if (d / "grid.json").exists() else ""
    cells = len(re.findall(r'"cell":', table))
    tally.gate(code == 0 and cells == GRID_CELLS,
               f"grid seed {seed}: exit {code}, {cells}/{GRID_CELLS} cells",
               count=GRID_CELLS, failures=max(GRID_CELLS - cells, int(code != 0)))
    # A tool run without an estimate (say TOPP's regression on a
    # 5-packet train) is a measurement outcome the row records, not a
    # failed operation; it is reported on the side.
    no_estimate = sum(int(x) for x in re.findall(r'"failed":(\d+)', table))
    done = [t for t, line in proc.lines if GRID_CELL_DONE.match(line)]
    return {"wall": wall, "cpu": cpu, "rss": rss, "done": done or [wall],
            "table": table, "no_estimate": no_estimate}


def run_grid(seed, seconds, tally):
    setups = []

    def one(s):
        for _ in range(SETUP_SAMPLES):
            setups.append(setup_only(grid_cmd(s), grid_dir(), child_env()))
        return grid_iteration(s, tally)

    golden = one(DEFAULT_SEED)
    tally.gate(GRID_REFERENCE.is_file()
               and strip_provenance(golden["table"]) == GRID_REFERENCE.read_text(),
               "grid table at the default seed differs from the stored reference")
    its = measure_loop(seconds, lambda: one(seed))
    for it in its[1:]:
        tally.gate(it["table"] == its[0]["table"],
                   f"seed {seed} grid table changed between iterations")
    return batch_metrics([golden] + its, setups), {
        "tool_runs_without_estimate": its[0]["no_estimate"]}


# ---------------------------------------------------------------------
# serve: a csmaprobe serve daemon driven by an open-loop client


class Daemon:
    """One `csmaprobe serve` at nproc workers in its own directory."""

    def __init__(self, name):
        self.dir = WORK / "serve" / name
        self.dir.mkdir(parents=True, exist_ok=True)
        for p in self.dir.iterdir():
            p.unlink()
        port_file = self.dir / "port"
        n = str(nproc())
        self.proc = Proc([str(binary("csmaprobe")), "serve", "--addr", "127.0.0.1:0",
                          "--out-dir", str(self.dir), "--port-file", str(port_file),
                          "--workers", n, "--drivers", n], self.dir, child_env())
        deadline = time.perf_counter() + 30
        while not (port_file.exists() and port_file.read_text().endswith("\n")):
            if time.perf_counter() > deadline or self.proc.p.poll() is not None:
                self.proc.kill()
                raise BenchError("csmaprobe serve did not start")
            time.sleep(0.0005)
        host, port = port_file.read_text().strip().rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("r")
        reply = self.rpc('{"op":"metrics"}')
        if not reply.get("ok"):
            raise BenchError(f"metrics request refused: {reply}")
        self.setup_s = time.perf_counter() - self.proc.t0

    def rpc(self, line):
        self.sock.sendall(line.encode() + b"\n")
        return json.loads(self.reader.readline())

    def stop(self):
        """SIGTERM: the daemon drains, writes its table and exits 0 only
        if its drain audit holds."""
        self.reader.close()
        self.sock.close()
        self.proc.p.send_signal(signal.SIGTERM)
        code, wall, cpu, rss = self.proc.wait()
        table = self.dir / "session_table.jsonl"
        return {"code": code, "wall": wall, "cpu": cpu, "rss": rss,
                "table": table.read_text() if table.exists() else None}


def open_loop(daemon, lines, rate, tally):
    """Submit `lines` at `rate` sessions/s on a fixed schedule, whatever
    the daemon's progress; poll until every session is terminal.
    Latency runs from the moment a session was due to its completion:
    the lateness of its submit plus the daemon's own submit-to-done
    time from the poll reply, so the poll period does not quantise it.
    Returns the latency of each done session by id, in completion
    order, and the lateness of each submit."""
    t0 = time.perf_counter() + 0.01
    due = [t0 + i / rate for i in range(len(lines))]
    outstanding = {}  # id -> (due, sent)
    polls = []  # heap of (next poll, id)
    next_slot = 0.0
    latency, lag = {}, []
    i = 0
    while i < len(lines) or outstanding:
        now = time.perf_counter()
        if i < len(lines) and now >= due[i]:
            reply = daemon.rpc(lines[i])
            sid = json.loads(lines[i])["id"]
            tally.gate(reply.get("ok") is True, f"submit {sid} refused: {reply}")
            if reply.get("ok"):
                outstanding[sid] = (due[i], now)
                heapq.heappush(polls, (now + SERVE_POLL_S, sid))
            lag.append(now - due[i])
            i += 1
            continue
        if polls and polls[0][0] <= now and next_slot <= now:
            _, sid = heapq.heappop(polls)
            reply = daemon.rpc(json.dumps({"op": "poll", "id": sid}))
            next_slot = time.perf_counter() + SERVE_POLL_GAP_S
            state = reply.get("state")
            if state in ("queued", "running"):
                heapq.heappush(polls, (time.perf_counter() + SERVE_POLL_S, sid))
            else:
                d, sent = outstanding.pop(sid)
                tally.gate(state == "done", f"session {sid} ended {reply}",
                           count=0, failures=int(state != "done"))
                if state == "done":
                    latency[sid] = sent - d + reply["elapsed_s"]
            continue
        wake = [next_slot, polls[0][0]] if polls else [now]
        if i < len(lines):
            wake.append(due[i])
        time.sleep(max(0.0, min(min(wake) - now, 0.002)))
    return latency, lag


def mix_lines(seed, sessions):
    r = subprocess.run([str(binary("perfbench-layers")), "mix", "--seed", str(seed),
                        "--sessions", str(sessions), "--reps", str(SERVE_REPS)],
                       capture_output=True, text=True, env=child_env())
    if r.returncode != 0:
        raise BenchError(f"perfbench-layers mix failed: {r.stderr}")
    return r.stdout.splitlines()


def batch_table(seed, sessions):
    """The one-shot reference table of the first `sessions` mix sessions."""
    path = WORK / "serve" / "batch_table.jsonl"
    r = subprocess.run([str(binary("perfbench-layers")), "batch", "--seed", str(seed),
                        "--sessions", str(sessions), "--reps", str(SERVE_REPS),
                        "--jobs", str(nproc()), "--out", str(path)],
                       capture_output=True, text=True, env=child_env(CSMAPROBE_WORKERS=1))
    if r.returncode != 0:
        raise BenchError(f"perfbench-layers batch failed: {r.stderr}")
    return path.read_text()


def idle_daemons(tally):
    """SETUP_SAMPLES daemons stopped once set up: their set-up times."""
    setups = []
    for _ in range(SETUP_SAMPLES):
        d = Daemon("setup")
        setups.append(d.setup_s)
        end = d.stop()
        tally.gate(end["code"] == 0, f"idle daemon drain exit {end['code']}")
    return setups


def run_serve(seed, seconds, tally):
    setups = idle_daemons(tally)

    # Up to SERVE_ROUNDS rounds of the nominal rate then a burst, on one
    # daemon whose drained table must equal the one-shot table of the
    # same sessions. Whole composition blocks, so every segment holds
    # the mix shares.
    blocks = max(1, round(SERVE_NOMINAL_SPS * SERVE_NOMINAL_SHARE * seconds / MIX_BLOCK))
    rounds = min(SERVE_ROUNDS, blocks)
    n_nominal, n_burst = MIX_BLOCK * (blocks // rounds), MIX_BLOCK * SERVE_BURST_BLOCKS
    lines = mix_lines(seed, rounds * (n_nominal + n_burst))
    d = Daemon("run")
    by_id, lag, burst_walls, at = {}, [], [], 0
    for _ in range(rounds):
        lat, late = open_loop(d, lines[at:at + n_nominal], SERVE_NOMINAL_SPS, tally)
        by_id.update(lat)
        lag += late
        at += n_nominal
        burst, _ = open_loop(d, lines[at:at + n_burst], float("inf"), tally)
        burst_walls.append(max(burst.values()))
        at += n_burst
    end = d.stop()
    tally.gate(end["code"] == 0, f"daemon drain exit {end['code']}")
    setups += idle_daemons(tally)
    tally.gate(end["table"] == batch_table(seed, len(lines)),
               "drained session table differs from the one-shot batch table")

    # The p99 limit at the nominal rate, with no growing backlog: the
    # median latency of the last tenth of the sessions is not above
    # that of the first tenth by more than the limit.
    latency = list(by_id.values())
    tenth = max(1, len(latency) // 10)
    growing = median(latency[-tenth:]) - median(latency[:tenth]) > SERVE_P99_LIMIT_S
    p99 = quantile(latency, 0.99)
    tools = {s["id"]: s["tool"] for s in map(json.loads, lines)}
    single = [t for sid, t in by_id.items() if tools[sid] in SERVE_SINGLE_TRAIN_TOOLS]
    log(f"nominal {SERVE_NOMINAL_SPS:.0f}/s: {len(latency)} sessions, p99 {p99 * 1e3:.1f} ms; "
        f"bursts of {n_burst}: " + ", ".join(f"{w:.3f}" for w in burst_walls) + " s")
    return {
        "setup_s": median(setups),
        "cpu_s": end["cpu"],
        "wall_s": median(burst_walls),
        "peak_rss_mb": end["rss"],
        "latency_p50_s": quantile(single, 0.5),
    }, {"latency_p99_s": p99,
        "latency_p50_all_sessions_s": quantile(latency, 0.5),
        "nominal_within_p99_limit": p99 <= SERVE_P99_LIMIT_S and not growing,
        "generator_lag_p99_s": quantile(lag, 0.99), "nominal_sessions": len(latency),
        "burst_capacity_sps": n_burst / median(burst_walls), "burst_walls_s": burst_walls}


# ---------------------------------------------------------------------
# the traced run


def run_trace(workload, seed, tally):
    out = WORK / f"trace-{workload}-{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run([str(binary("perfbench-layers")), "trace", "--seed", str(seed),
                           "--workers", str(nproc()), "--out", str(out)],
                          capture_output=True, text=True, env=child_env(), timeout=170)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"perfbench-layers trace failed: {proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    tally.gate(summary["failed"] == 0, f"traced run checks: {summary['notes']}",
               count=summary["attempted"], failures=summary["failed"])
    for name, m in summary["metrics"].items():
        print(f"layer {name:42s} {m['value']:.6g} {m['unit']:6s} moves {m['moves']}")
    print(f"spans written to {out.relative_to(ROOT)}")
    return summary["metrics"]


def tracing_overhead(ctx, layer):
    """Compare the traced registry run with the latest untraced figures
    result of the same context (same code, host, seed), if there is one."""
    history = WORK / "results.jsonl"
    if not history.exists():
        return None
    want = dict(ctx, workload="figures", trace=0, seconds=None)
    untraced = None
    for line in history.read_text().splitlines():
        rec = json.loads(line)
        if dict(rec["context"], seconds=None) == want and rec["correct"]:
            untraced = rec
    if untraced is None:
        return None
    traced = sum(m["value"] for k, m in layer.items() if k.startswith("bench.figure."))
    wall = untraced["metrics"]["wall_s"]["value"]
    return (traced - wall) / wall


# ---------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description="csmaprobe benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    seed = a.seed % (1 << 64)

    try:
        build()
        WORK.mkdir(parents=True, exist_ok=True)
        ctx = context(a.workload, a.seed, a.seconds, a.trace)
        tally = Tally()
        extra = {}
        if a.trace:
            layer = run_trace(a.workload, seed, tally)
            metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in layer.items()}
            overhead = tracing_overhead(ctx, layer) if a.workload == "figures" else None
            if overhead is not None:
                extra["tracing_overhead_vs_untraced"] = overhead
        else:
            run = {"figures": run_figures, "grid": run_grid, "serve": run_serve}[a.workload]
            values, extra = run(seed, a.seconds, tally)
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    except BenchError as e:
        log(str(e))
        return 1
    finally:
        for proc in list(Proc.live):
            proc.kill()

    for k, v in extra.items():
        print(f"{k}: {v}")
    print("context: " + json.dumps(ctx, sort_keys=True))
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    with open(WORK / "results.jsonl", "a") as f:
        f.write(json.dumps({"context": ctx, **result, "extra": extra,
                            "reasons": tally.reasons}, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
