//! Benchmark helper for csmaprobe, driven by `perfbench/run.py`.
//!
//! Three subcommands:
//!
//! * `mix --seed S --sessions N --reps R` prints the serve workload's
//!   first `N` sessions, drawn from the deterministic `service::mix`,
//!   as wire `submit` lines, so its client sends generated inputs and
//!   nothing else.
//! * `batch --seed S --sessions N --reps R --jobs J --out FILE` writes
//!   the one-shot reference table of the same sessions.
//! * `trace --seed S --workers W --out FILE` runs the per-layer trace:
//!   every layer is timed from outside, by wrapping calls into its
//!   public functions in spans. Spans are kept in memory and written to
//!   `FILE` (with the derived metrics) when the run ends; the metrics
//!   are also printed as one JSON line on stdout.
//!
//! A layer's self time is its span's duration minus the time its
//! direct child spans cover. Spans are recorded on one thread, so the
//! children of one parent never overlap and their durations add up.

use csmaprobe_bench::figures::REGISTRY;
use csmaprobe_bench::grid::{self, BiasGrid, GridTarget, TRAIN_TOOL_RATE_BPS};
use csmaprobe_bench::report::{json_f64, json_str, RowSink};
use csmaprobe_bench::scenarios::{self, FRAME};
use csmaprobe_core::link::{LinkConfig, ProbeTarget, WlanLink};
use csmaprobe_core::transient::TransientExperiment;
use csmaprobe_core::GridScenario;
use csmaprobe_desim::replicate::{self, CHUNK};
use csmaprobe_desim::{derive_seed, Dur, EventQueue, SimRng, Time};
use csmaprobe_mac::bianchi_nonsat::{NonSatModel, NonSatStation};
use csmaprobe_mac::sim::StationId;
use csmaprobe_phy::Phy;
use csmaprobe_probe::tool::{ToolKind, ToolProbe};
use csmaprobe_queueing::fifo::{fifo_serve, Job};
use csmaprobe_service::mix::{session_request, MixConfig};
use csmaprobe_service::session::{one_shot, row_json, SessionManager, SessionSpec};
use csmaprobe_service::wire::{read_frame, Request, SubmitRequest};
use csmaprobe_stats::ks::two_sample_ks;
use csmaprobe_stats::transient::{IndexedQuantile, IndexedSeries, IndexedStats};
use csmaprobe_traffic::probe::ProbeTrain;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufReader, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench-layers mix --seed S --sessions N --reps R\n\
         \x20      perfbench-layers batch --seed S --sessions N --reps R --jobs J --out FILE\n\
         \x20      perfbench-layers trace --seed S --workers W --out FILE"
    );
    std::process::exit(2);
}

/// `--flag value` pairs after the subcommand, all required.
fn flags(args: &[String], names: &[&str]) -> Vec<String> {
    let mut out = vec![None; names.len()];
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(k) = names.iter().position(|n| flag == &format!("--{n}")) else {
            usage()
        };
        out[k] = Some(it.next().cloned().unwrap_or_else(|| usage()));
    }
    out.into_iter()
        .map(|v| v.unwrap_or_else(|| usage()))
        .collect()
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| usage())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("mix") => {
            let v = flags(&args[2..], &["seed", "sessions", "reps"]);
            mix(parse(&v[0]), parse(&v[1]), parse(&v[2]));
        }
        Some("batch") => {
            let v = flags(&args[2..], &["seed", "sessions", "reps", "jobs", "out"]);
            batch(
                parse(&v[0]),
                parse(&v[1]),
                parse(&v[2]),
                parse(&v[3]),
                &v[4],
            );
        }
        Some("trace") => {
            let v = flags(&args[2..], &["seed", "workers", "out"]);
            trace(parse(&v[0]), parse(&v[1]), &v[2]);
        }
        _ => usage(),
    }
}

fn mix_config(reps: usize) -> MixConfig {
    MixConfig {
        reps,
        ..MixConfig::default()
    }
}

/// Replications per serve session, as the repository's service jobs
/// drive `loadgen` (`--reps 24`).
const SERVE_REPS: usize = 24;

/// Sessions per composition block of the serve workload: the smallest
/// block that holds every (link, train, tool) class of the default mix
/// in exactly its share (7/8 `wired`, 1/8 `wlan_low`, trains and tools
/// uniform).
const BLOCK: usize = 64;

/// The serve workload's sessions: the `service::mix` sequence for
/// `seed`, keeping each drawn session only while its (link, train,
/// tool) class has room in the current block of [`BLOCK`] sessions.
/// Every block then holds each class in the share the mix draws it
/// with, so the seed changes which sessions run and in what order, not
/// how much work of each kind a run holds.
fn serve_mix(seed: u64, sessions: usize, reps: usize) -> Vec<SubmitRequest> {
    let cfg = mix_config(reps);
    let classes = cfg.links.len() * cfg.trains.len() * cfg.tools.len();
    let quota = |req: &SubmitRequest| -> usize {
        let l = cfg.links.iter().filter(|x| **x == req.link).count();
        BLOCK * l / classes
    };
    let mut picked = Vec::with_capacity(sessions);
    let mut in_block: BTreeMap<(String, String, String), usize> = BTreeMap::new();
    let mut i = 0u64;
    while picked.len() < sessions {
        let req = session_request(&cfg, seed, i);
        i += 1;
        let class = (req.link.clone(), req.train.clone(), req.tool.clone());
        let n = in_block.entry(class).or_insert(0);
        if *n < quota(&req) {
            *n += 1;
            picked.push(req);
            if picked.len() % BLOCK == 0 {
                in_block.clear();
            }
        }
    }
    picked
}

/// A mix session as the wire `submit` line `loadgen` sends.
fn submit_line(req: &SubmitRequest) -> String {
    format!(
        "{{\"op\":\"submit\",\"id\":{},\"cell\":{},\"link\":{},\"train\":{},\"tool\":{},\"reps\":{},\"seed\":{}}}",
        json_str(&req.id),
        req.cell,
        json_str(&req.link),
        json_str(&req.train),
        json_str(&req.tool),
        req.reps,
        req.seed
    )
}

fn mix(seed: u64, sessions: usize, reps: usize) {
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    for req in serve_mix(seed, sessions, reps) {
        writeln!(out, "{}", submit_line(&req)).expect("write mix line to stdout");
    }
    out.flush().expect("flush mix lines to stdout");
}

/// The one-shot reference table of the first `sessions` serve-mix
/// sessions, built as `loadgen --batch` builds its table: `one_shot`
/// per session, `row_json` rows, one finalized `RowSink`. The sessions
/// are spread over `jobs` threads; rows are appended in mix order.
fn batch(seed: u64, sessions: usize, reps: usize, jobs: usize, out: &str) {
    let fail = |what: String| -> ! {
        eprintln!("perfbench-layers: {what}");
        std::process::exit(1);
    };
    let specs: Vec<SessionSpec> = serve_mix(seed, sessions, reps)
        .iter()
        .map(|req| SessionSpec::resolve(req).unwrap_or_else(|e| fail(e.detail())))
        .collect();
    let next = AtomicUsize::new(0);
    let mut rows = vec![String::new(); specs.len()];
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(i) else {
                            return done;
                        };
                        done.push((i, row_json(spec, &one_shot(spec))));
                    }
                })
            })
            .collect();
        for w in workers {
            for (i, row) in w.join().expect("batch worker") {
                rows[i] = row;
            }
        }
    });
    let tmp = format!("{out}.rows.tmp");
    let mut sink = RowSink::create(&tmp).unwrap_or_else(|e| fail(format!("{tmp}: {e}")));
    for row in &rows {
        sink.append(row)
            .unwrap_or_else(|e| fail(format!("{tmp}: {e}")));
    }
    let table = sink
        .finalize()
        .unwrap_or_else(|e| fail(format!("{tmp}: {e}")));
    std::fs::write(out, table).unwrap_or_else(|e| fail(format!("{out}: {e}")));
    let _ = std::fs::remove_file(&tmp);
}

// ---------------------------------------------------------------------
// Spans

struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Duration minus the time covered by direct children.
    fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == Some(id))
            .map(|(c, _)| self.duration_ns(c))
            .sum();
        self.duration_ns(id) - children
    }

    /// Total duration (seconds) of the spans named `name`.
    fn total(&self, name: &str) -> f64 {
        let ns: u64 = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.duration_ns(i))
            .sum();
        ns as f64 * 1e-9
    }

    /// Total self time (seconds) of the spans named `name`.
    fn self_total(&self, name: &str) -> f64 {
        let ns: u64 = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ns(i))
            .sum();
        ns as f64 * 1e-9
    }

    fn spans_json(&self) -> String {
        let mut s = String::from("[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            s.push_str(&format!(
                "{{\"id\":{i},\"name\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                json_str(&sp.name),
                sp.parent.map_or("null".to_string(), |p| p.to_string()),
                sp.start_ns,
                sp.end_ns,
                self.self_ns(i)
            ));
        }
        s.push(']');
        s
    }
}

// ---------------------------------------------------------------------
// Metrics

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// The end-to-end metric and workload this layer metric should move.
    moves: &'static str,
}

#[derive(Default)]
struct Ledger {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Ledger {
    fn put(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        moves: &'static str,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            moves,
        });
    }

    /// Count one correctness check of the traced run.
    fn check(&mut self, ok: bool, what: String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench-layers: check failed: {what}");
            self.notes.push(what);
        }
    }
}

const FIGURES_CPU: &str = "cpu_s@figures";
const GRID_CPU: &str = "cpu_s@grid";
const GRID_WALL: &str = "wall_s@grid";
const GRID_CPU_SERVE_P99: &str = "cpu_s@grid,latency_p99_s@serve";
const GRID_CPU_SERVE_P50: &str = "cpu_s@grid,latency_p50_s@serve";
const SERVE_P99_GRID_WALL: &str = "latency_p99_s@serve,wall_s@grid";
const SERVE_P50: &str = "latency_p50_s@serve";
const SERVE_CPU_P99: &str = "cpu_s@serve,latency_p99_s@serve";

// ---------------------------------------------------------------------
// The trace

fn trace(seed: u64, workers: usize, out: &str) {
    // Layer timings run on one worker (the figures workload's setting);
    // only the executor probe runs at the serve/grid worker count.
    replicate::set_worker_limit(1);
    let mut tr = Tracer::new();
    let mut led = Ledger::default();
    let t_all = Instant::now();

    tr.span("trace", |tr| {
        mac_sim_and_transient(tr, &mut led, seed);
        grid_cells(tr, &mut led, seed);
        bianchi_nonsat(tr, &mut led);
        stats_dense(tr, &mut led, seed);
        probe_tools(tr, &mut led, seed);
        queueing_fifo(tr, &mut led, seed);
        desim_layers(tr, &mut led, seed, workers);
        service_layers(tr, &mut led, seed, out);
        figures(tr, &mut led, seed);
    });

    // Tracing overhead: what recording the spans of this run cost, from
    // the measured cost of one span, as a share of the traced wall time.
    let spans = tr.spans.len();
    let probe_n = 100_000;
    let mut bench = Tracer::new();
    let t = Instant::now();
    for _ in 0..probe_n {
        bench.span("overhead_probe", |_| ());
    }
    let span_ns = t.elapsed().as_nanos() as f64 / probe_n as f64;
    let wall = t_all.elapsed().as_secs_f64();
    led.put("trace.span_ns", span_ns, "ns", "none");
    led.put("trace.spans", spans as f64, "count", "none");
    led.put(
        "trace.overhead_share",
        spans as f64 * span_ns * 1e-9 / wall,
        "share",
        "none",
    );
    led.put("trace.wall_s", wall, "s", "none");

    let metrics_json = {
        let mut s = String::from("{");
        for (i, m) in led.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{}:{{\"value\":{},\"unit\":{},\"moves\":{}}}",
                json_str(&m.name),
                json_f64(m.value),
                json_str(m.unit),
                json_str(m.moves)
            ));
        }
        s.push('}');
        s
    };
    let notes: Vec<String> = led.notes.iter().map(|n| json_str(n)).collect();
    let summary = format!(
        "{{\"attempted\":{},\"failed\":{},\"notes\":[{}],\"metrics\":{}}}",
        led.attempted,
        led.failed,
        notes.join(","),
        metrics_json
    );
    let file = format!(
        "{{\"summary\":{summary},\n\"spans\":{}}}\n",
        tr.spans_json()
    );
    std::fs::write(out, file).unwrap_or_else(|e| {
        eprintln!("perfbench-layers: cannot write {out}: {e}");
        std::process::exit(1);
    });
    println!("{summary}");
}

/// fig10's 1000-packet train at 1 Erlang against one contender at half
/// the capacity — the transient-train cell the figures workload spends
/// most of its time in.
fn fig10_cell() -> (WlanLink, ProbeTrain) {
    let c = scenarios::capacity_bps(FRAME);
    (
        WlanLink::new(LinkConfig::default().contending_bps(0.5 * c)),
        ProbeTrain::from_rate(1000, FRAME, c),
    )
}

/// The event core and the transient path. Each replication repeats,
/// from outside, what `core::transient` does per replication of the
/// summary path: one `send_train`, contender-queue reconstruction with
/// `queue_len_at`, and the per-index accumulators. The parent span's
/// self time is what the pieces do not account for.
fn mac_sim_and_transient(tr: &mut Tracer, led: &mut Ledger, seed: u64) {
    const REPS: usize = 400;
    let (link, train) = fig10_cell();
    let mut delays_acc = IndexedStats::new();
    let mut queues_acc = IndexedStats::new();
    let mut p95 = IndexedQuantile::new(0.95);
    let mut packets = 0u64;
    let mut probes = 0u64;
    for k in 0..REPS {
        let s = derive_seed(seed, k as u64);
        tr.span("core.transient.rep", |tr| {
            let run = tr.span("mac.sim.send_train", |_| link.send_train(train, s));
            packets += (0..run.output.station_count())
                .map(|i| run.output.records(StationId(i)).len() as u64)
                .sum::<u64>();
            probes += run.probe.len() as u64;
            let contender = run.contending[0];
            let queues: Vec<f64> = tr.span("core.link.queue_len_at", |_| {
                run.probe
                    .iter()
                    .map(|r| run.output.queue_len_at(contender, r.arrival) as f64)
                    .collect()
            });
            let delays: Vec<f64> = run
                .probe
                .iter()
                .map(|r| r.access_delay().as_secs_f64())
                .collect();
            tr.span("stats.indexed_stats.push", |_| {
                for (i, (&d, &q)) in delays.iter().zip(&queues).enumerate() {
                    delays_acc.push(i, d);
                    queues_acc.push(i, q);
                }
            });
            tr.span("stats.indexed_quantile.push", |_| {
                for (i, &d) in delays.iter().enumerate() {
                    p95.push(i, d);
                }
            });
            run.recycle();
        });
    }
    black_box((&delays_acc, &queues_acc, &p95));
    led.check(
        probes == (REPS * train.n) as u64,
        format!(
            "fig10 cell delivered {probes} of {} probe packets",
            REPS * train.n
        ),
    );

    let sim_s = tr.total("mac.sim.send_train");
    led.put(
        "mac.sim.ns_per_packet",
        sim_s * 1e9 / packets as f64,
        "ns",
        FIGURES_CPU,
    );
    led.put("mac.sim.packets", packets as f64, "count", FIGURES_CPU);
    let q_s = tr.total("core.link.queue_len_at");
    led.put(
        "core.link.queue_len_at_ns",
        q_s * 1e9 / probes as f64,
        "ns",
        FIGURES_CPU,
    );
    let st_s = tr.total("stats.indexed_stats.push");
    // Two pushes (delay and queue) per probe packet.
    led.put(
        "stats.indexed_stats.ns_per_push",
        st_s * 1e9 / (2 * probes) as f64,
        "ns",
        FIGURES_CPU,
    );
    let qu_s = tr.total("stats.indexed_quantile.push");
    led.put(
        "stats.indexed_quantile.ns_per_push",
        qu_s * 1e9 / probes as f64,
        "ns",
        FIGURES_CPU,
    );
    let self_s = tr.self_total("core.transient.rep");
    led.put(
        "core.transient.self_us_per_rep",
        self_s * 1e6 / REPS as f64,
        "us",
        FIGURES_CPU,
    );

    // The library's own replicated transient run on the same cell.
    let exp = TransientExperiment {
        link,
        train,
        reps: REPS,
        seed,
    };
    let summary = tr.span("core.transient.run", |_| exp.run());
    let run_s = tr.total("core.transient.run");
    led.put(
        "core.transient.us_per_rep",
        run_s * 1e6 / REPS as f64,
        "us",
        FIGURES_CPU,
    );
    led.check(
        summary.mean_profile().len() == train.n,
        "transient summary covers every packet index".to_string(),
    );
}

/// The grid workload's cells: tier routing counts over the full catalog
/// and the per-packet cost of the trains its WLAN cells send, through
/// the routed path and through the event core directly.
fn grid_cells(tr: &mut Tracer, led: &mut Ledger, seed: u64) {
    let bias = BiasGrid::new(
        grid::LINKS.iter().collect(),
        grid::TRAINS.iter().collect(),
        ToolKind::ALL.to_vec(),
        40.0,
        seed,
    );
    let shape = bias.shape();
    let mut counts = [0usize; 4];
    let tiers = ["event", "slotted", "fifo", "analytic"];
    for flat in 0..shape.len() {
        let tier = bias.cell_tier(&shape.unflatten(flat));
        match tiers.iter().position(|t| *t == tier) {
            Some(k) => counts[k] += 1,
            None => led.check(false, format!("cell {flat} has unknown tier {tier:?}")),
        }
    }
    led.check(
        counts.iter().sum::<usize>() == shape.len(),
        "every grid cell resolves to a tier".to_string(),
    );
    for (t, n) in tiers.iter().zip(counts) {
        led.put(
            format!("core.engine.cells_{t}"),
            n as f64,
            "count",
            GRID_CPU,
        );
    }

    // The WLAN links whose train cells the router serves with the
    // slot-quantised kernel at this revision (no FIFO cross-traffic in
    // the probe queue). Measured through the routed `probe_train`, so
    // the metric keeps its meaning if the tier is removed.
    const ROUNDS: u64 = 40;
    let links: Vec<(&str, WlanLink)> = ["wlan_low", "wlan_mid"]
        .iter()
        .map(|name| {
            let point = grid::find_link(name).expect("catalog link");
            match point.build() {
                GridTarget::Wlan(l) => (*name, l),
                GridTarget::Wired(_) => unreachable!("{name} is a WLAN link"),
            }
        })
        .collect();
    let mut routed_pkts = 0u64;
    let mut event_pkts = 0u64;
    for (name, link) in &links {
        for point in grid::TRAINS {
            let train = ProbeTrain::from_rate(point.n, FRAME, TRAIN_TOOL_RATE_BPS);
            for r in 0..ROUNDS {
                let s = derive_seed(seed, r);
                let obs = tr.span("mac.slotted.probe_train", |_| link.probe_train(train, s));
                routed_pkts += obs.rx_times.len() as u64;
                let run = tr.span("mac.sim.grid_send_train", |_| link.send_train(train, s));
                event_pkts += run.probe.len() as u64;
                run.recycle();
            }
            led.check(
                routed_pkts > 0 && event_pkts > 0,
                format!("{name}/{} trains delivered packets", point.name),
            );
        }
    }
    let routed_s = tr.total("mac.slotted.probe_train");
    let event_s = tr.total("mac.sim.grid_send_train");
    led.put(
        "mac.slotted.ns_per_packet",
        routed_s * 1e9 / routed_pkts as f64,
        "ns",
        GRID_CPU,
    );
    led.put(
        "mac.sim.grid_ns_per_packet",
        event_s * 1e9 / event_pkts as f64,
        "ns",
        GRID_CPU,
    );
}

/// The finite-load fixed point over a sweep of two-station loads.
fn bianchi_nonsat(tr: &mut Tracer, led: &mut Ledger) {
    let phy = Phy::dsss_11mbps();
    let mut solves = 0usize;
    let mut iterations = 0usize;
    tr.span("mac.bianchi_nonsat.solve", |_| {
        for _round in 0..20 {
            for a in 1..=10 {
                for b in 1..=5 {
                    let stations = [
                        NonSatStation {
                            rate_bps: a as f64 * 0.3e6,
                            bytes: FRAME,
                        },
                        NonSatStation {
                            rate_bps: b as f64 * 0.5e6,
                            bytes: FRAME,
                        },
                    ];
                    match NonSatModel::solve(&phy, black_box(&stations)) {
                        Ok(m) => iterations += m.iterations,
                        Err(e) => led.check(false, format!("nonsat solve failed: {e}")),
                    }
                    solves += 1;
                }
            }
        }
    });
    let s = tr.total("mac.bianchi_nonsat.solve");
    led.put(
        "mac.bianchi_nonsat.us_per_solve",
        s * 1e6 / solves as f64,
        "us",
        FIGURES_CPU,
    );
    led.put(
        "mac.bianchi_nonsat.iterations",
        iterations as f64 / solves as f64,
        "count",
        FIGURES_CPU,
    );
}

/// fig08/fig09's dense path: raw per-index samples and the KS profile
/// against the steady-state tail.
fn stats_dense(tr: &mut Tracer, led: &mut Ledger, seed: u64) {
    const REPS: usize = 200;
    let (link, train) = fig10_cell();
    let runs: Vec<Vec<f64>> = (0..REPS)
        .map(|k| {
            let run = link.send_train(train, derive_seed(seed ^ 0xD5, k as u64));
            let d = run.access_delays_s();
            run.recycle();
            d
        })
        .collect();
    let mut series = IndexedSeries::with_cap(scenarios::DENSE_SAMPLE_CAP);
    tr.span("stats.indexed_series.push", |_| {
        for d in &runs {
            series.push_replication(d);
        }
    });
    let s = tr.total("stats.indexed_series.push");
    led.put(
        "stats.indexed_series.ns_per_push",
        s * 1e9 / (REPS * train.n) as f64,
        "ns",
        FIGURES_CPU,
    );
    // fig08's KS profile: the first 100 packet indices, each against
    // the pooled last 500 indices strided down to at most 20 000 values.
    let pooled = series.pooled(train.n / 2, train.n);
    let stride = (pooled.len() / 20_000).max(1);
    let reference: Vec<f64> = pooled.iter().step_by(stride).cloned().collect();
    const PROFILES: usize = 5;
    const SHOWN: usize = 100;
    let mut rejected = 0usize;
    tr.span("stats.ks.profile", |_| {
        for _ in 0..PROFILES {
            for i in 0..SHOWN {
                if two_sample_ks(series.sample(i), black_box(&reference), 0.05).reject {
                    rejected += 1;
                }
            }
        }
    });
    let s = tr.total("stats.ks.profile");
    led.put(
        "stats.ks.us_per_profile",
        s * 1e6 / PROFILES as f64,
        "us",
        FIGURES_CPU,
    );
    led.check(
        rejected > 0,
        "the KS profile rejects the steady state somewhere in the transient".to_string(),
    );
}

/// One estimate of each tool family on the serve mix's WLAN link.
fn probe_tools(tr: &mut Tracer, led: &mut Ledger, seed: u64) {
    let target = grid::find_link("wlan_low").expect("catalog link").build();
    let n = grid::find_train("mid").expect("catalog train").n;
    for kind in ToolKind::ALL {
        let probe = ToolProbe::new(kind, n, FRAME, TRAIN_TOOL_RATE_BPS);
        let rounds: u64 = match kind {
            ToolKind::Train | ToolKind::Chirp => 200,
            ToolKind::Slops | ToolKind::Topp => 10,
        };
        let name = format!("probe.tool.{}", kind.name());
        let mut finite = 0u64;
        tr.span(&name, |_| {
            for r in 0..rounds {
                if probe
                    .estimate_once(&target, derive_seed(seed, r))
                    .is_finite()
                {
                    finite += 1;
                }
            }
        });
        led.check(finite > 0, format!("{name} produced an estimate"));
        let s = tr.total(&name);
        led.put(
            format!("{name}.ms_per_estimate"),
            s * 1e3 / rounds as f64,
            "ms",
            GRID_CPU_SERVE_P99,
        );
    }
}

/// The FIFO queue on a Poisson job stream at 80 % load.
fn queueing_fifo(tr: &mut Tracer, led: &mut Ledger, seed: u64) {
    const JOBS: usize = 200_000;
    let mut rng = SimRng::new(derive_seed(seed, 0xF1F0));
    let mut t = Time::ZERO;
    let jobs: Vec<Job> = (0..JOBS)
        .map(|_| {
            t += Dur::from_secs_f64(rng.exp(1e-3));
            Job {
                arrival: t,
                service: Dur::from_secs_f64(rng.exp(0.8e-3)),
            }
        })
        .collect();
    let served = tr.span("queueing.fifo.serve", |_| fifo_serve(black_box(&jobs)));
    led.check(served.len() == JOBS, "fifo served every job".to_string());
    let s = tr.total("queueing.fifo.serve");
    led.put(
        "queueing.fifo.ns_per_job",
        s * 1e9 / JOBS as f64,
        "ns",
        GRID_CPU_SERVE_P50,
    );
}

/// The executor's per-chunk overhead and the event calendar.
fn desim_layers(tr: &mut Tracer, led: &mut Ledger, seed: u64, workers: usize) {
    const CHUNKS: usize = 4000;
    replicate::set_worker_limit(workers.max(1));
    let sum = tr.span("desim.executor.run_reduce", |_| {
        replicate::run_reduce(
            CHUNKS * CHUNK,
            seed,
            |_i, s, acc: &mut u64| *acc = acc.wrapping_add(s),
            || 0u64,
            |a: &mut u64, b: u64| *a = a.wrapping_add(b),
        )
    });
    replicate::set_worker_limit(1);
    black_box(sum);
    let s = tr.total("desim.executor.run_reduce");
    led.put(
        "desim.executor.us_per_chunk",
        s * 1e6 / CHUNKS as f64,
        "us",
        SERVE_P99_GRID_WALL,
    );

    // Hold model: a calendar of 1000 pending events, each pop schedules
    // one new event a random delay later.
    const PENDING: usize = 1000;
    const HOLDS: usize = 1_000_000;
    let mut rng = SimRng::new(derive_seed(seed, 0xE7));
    let mut q: EventQueue<u32> = EventQueue::with_capacity(PENDING + 1);
    for k in 0..PENDING {
        q.push(Time::ZERO + Dur::from_secs_f64(rng.exp(1e-3)), k as u32);
    }
    let delays: Vec<Dur> = (0..HOLDS)
        .map(|_| Dur::from_secs_f64(rng.exp(1e-3)))
        .collect();
    tr.span("desim.event.hold", |_| {
        for d in &delays {
            let (t, e) = q.pop().expect("calendar holds PENDING events");
            q.push(t + *d, e);
        }
    });
    led.check(
        q.len() == PENDING,
        "event calendar kept its size".to_string(),
    );
    let s = tr.total("desim.event.hold");
    led.put(
        "desim.event.ns_per_op",
        s * 1e9 / (2 * HOLDS) as f64,
        "ns",
        FIGURES_CPU,
    );
}

/// Wire parsing, session cost one-shot and served, and row persistence.
fn service_layers(tr: &mut Tracer, led: &mut Ledger, seed: u64, out: &str) {
    const FRAMES: u64 = 20_000;
    let mut wire = Vec::new();
    for req in serve_mix(seed, FRAMES as usize, SERVE_REPS) {
        wire.extend_from_slice(submit_line(&req).as_bytes());
        wire.push(b'\n');
    }
    let mut parsed = 0u64;
    tr.span("service.wire.frames", |_| {
        let mut r = BufReader::new(&wire[..]);
        while let Ok(Some(frame)) = read_frame(&mut r) {
            if let Ok(line) = frame {
                if matches!(Request::parse(&line), Ok(Request::Submit(_))) {
                    parsed += 1;
                }
            }
        }
    });
    led.check(
        parsed == FRAMES,
        format!("parsed {parsed} of {FRAMES} frames"),
    );
    let s = tr.total("service.wire.frames");
    led.put(
        "service.wire.ns_per_frame",
        s * 1e9 / FRAMES as f64,
        "ns",
        SERVE_P50,
    );

    const SESSIONS: usize = 128;
    let specs: Vec<SessionSpec> = serve_mix(seed, SESSIONS, SERVE_REPS)
        .iter()
        .map(|req| SessionSpec::resolve(req).expect("the mix resolves"))
        .collect();
    let rows: Vec<String> = tr.span("service.session.one_shot", |_| {
        specs.iter().map(|s| row_json(s, &one_shot(s))).collect()
    });
    let one_s = tr.total("service.session.one_shot");
    let mgr = SessionManager::new(1, None);
    tr.span("service.session.served", |_| {
        for s in &specs {
            if let Err(e) = mgr.submit(s.clone()) {
                led.check(false, format!("session {} refused: {}", s.id, e.code()));
            }
        }
        mgr.drain();
    });
    let served: Vec<String> = mgr
        .sessions()
        .iter()
        .map(|s| row_json(s.spec(), &s.snapshot().acc))
        .collect();
    mgr.shutdown();
    led.check(
        served == rows,
        "served session rows equal the one-shot rows".to_string(),
    );
    let served_s = tr.total("service.session.served");
    let per = |s: f64| s * 1e3 / SESSIONS as f64;
    led.put(
        "service.session.one_shot_ms",
        per(one_s),
        "ms",
        SERVE_CPU_P99,
    );
    led.put(
        "service.session.served_overhead_ms",
        per(served_s) - per(one_s),
        "ms",
        SERVE_CPU_P99,
    );

    let path = format!("{out}.rows.jsonl");
    let mut sink = RowSink::create(&path).unwrap_or_else(|e| {
        eprintln!("perfbench-layers: cannot create {path}: {e}");
        std::process::exit(1);
    });
    const ROWS: usize = 2000;
    let table = tr.span("bench.report.rows", |_| {
        for i in 0..ROWS {
            let base = &rows[i % rows.len()];
            // Re-key the session row so every appended row is distinct.
            let line = format!("{{\"cell\":{i},\"key\":\"r{i:05}\",\"row\":{base}}}");
            sink.append(&line).expect("append benchmark row");
        }
        sink.finalize().expect("finalize benchmark rows")
    });
    let _ = std::fs::remove_file(&path);
    led.check(
        table.matches("\"key\":\"r").count() == ROWS,
        "finalized table holds every row".to_string(),
    );
    let s = tr.total("bench.report.rows");
    led.put(
        "bench.report.us_per_row",
        s * 1e6 / ROWS as f64,
        "us",
        GRID_WALL,
    );
}

/// Every registry figure at scale 1 on one worker, as the figures
/// workload runs them. Each must report its checks; a check that
/// misses is reported, not counted: the checks are statistical tests,
/// and at a seed other than the default one a check can miss by
/// Monte-Carlo noise alone.
fn figures(tr: &mut Tracer, led: &mut Ledger, seed: u64) {
    for def in REGISTRY {
        let name = format!("bench.figure.{}", def.id);
        let rep = tr.span(&name, |_| (def.run)(1.0, seed));
        led.check(
            !rep.checks.is_empty(),
            format!("{} reported checks", def.id),
        );
        for c in rep.checks.iter().filter(|c| !c.passed) {
            eprintln!(
                "perfbench-layers: {} check {:?} misses at seed {seed}: {}",
                def.id, c.name, c.detail
            );
        }
        let s = tr.total(&name);
        led.put(format!("{name}.s"), s, "s", FIGURES_CPU);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_of_the_serve_mix_holds_the_mix_shares() {
        let mix = serve_mix(11, 3 * BLOCK, SERVE_REPS);
        let classes = |block: &[SubmitRequest]| {
            let mut c: BTreeMap<(String, String, String), usize> = BTreeMap::new();
            for r in block {
                *c.entry((r.link.clone(), r.train.clone(), r.tool.clone()))
                    .or_insert(0) += 1;
            }
            c
        };
        for block in mix.chunks(BLOCK) {
            let c = classes(block);
            // 2 links x 2 trains x 4 tools, wired 7 times as often.
            assert_eq!(c.len(), 16);
            for ((link, _, _), n) in c {
                assert_eq!(n, if link == "wired" { 7 } else { 1 }, "{link}");
            }
        }
        // The sessions are mix sessions, in mix order, with their ids.
        let cfg = mix_config(SERVE_REPS);
        assert!(mix.windows(2).all(|w| w[0].cell < w[1].cell));
        for req in &mix {
            assert_eq!(*req, session_request(&cfg, 11, req.cell));
        }
        assert_eq!(serve_mix(11, BLOCK, SERVE_REPS)[..], mix[..BLOCK]);
    }

    #[test]
    fn mix_lines_parse_back_to_the_sessions() {
        for req in serve_mix(11, 64, SERVE_REPS) {
            let line = submit_line(&req);
            let Ok(Request::Submit(parsed)) = Request::parse(&line) else {
                panic!("{line} does not parse as a submit");
            };
            assert_eq!(parsed, req);
        }
    }

    #[test]
    fn self_time_excludes_direct_children_only() {
        let mut tr = Tracer::new();
        tr.span("parent", |tr| {
            tr.span("child", |tr| {
                tr.span("grandchild", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let d = |i| tr.duration_ns(i);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[2].parent, Some(1));
        assert_eq!(tr.self_ns(0), d(0) - d(1));
        assert_eq!(tr.self_ns(1), d(1) - d(2));
        assert!(tr.self_ns(0) >= 2_000_000);
    }
}
