//! Bit-exact fingerprints of the DCF event core.
//!
//! Every case runs a fixed-seed [`WlanSim`] and hashes every field of
//! every [`PacketRecord`] of every station, the [`ChannelStats`], the
//! collision count, the last completion and the queue each station
//! still holds at the end of the run. The expected hashes were taken
//! from the event core before its per-event arithmetic moved onto the
//! integer slot grid; any change to the schedule it produces — one
//! nanosecond, one RNG draw — changes a hash.
//!
//! The matrix is built to reach the branches the figure registry
//! reaches rarely: retry-limit drops after collisions and after frame
//! errors, RTS/CTS-protected and unprotected frames colliding, the
//! backoff-for-every-frame ablation, the OFDM PHY, a watched-flow early
//! stop, and arrivals placed exactly on, just before and just after the
//! end of a busy period and the idle-grid points that follow it. Each
//! case also asserts that the branch it exists for was taken, so a
//! matrix that silently stopped covering a branch fails too.

use csmaprobe_desim::time::{Dur, Time};
use csmaprobe_mac::{saturated_source, MacOptions, PacketRecord, SimOutput, StationId, WlanSim};
use csmaprobe_phy::Phy;
use csmaprobe_traffic::probe::ProbeTrain;
use csmaprobe_traffic::{
    CbrSource, MergeSource, PacketArrival, PoissonSource, SizeModel, Source, TraceSource,
};

/// FNV-1a over 64-bit words: stable across platforms and toolchains.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn fingerprint(out: &SimOutput) -> u64 {
    let mut h = Fnv::new();
    h.word(out.station_count() as u64);
    for s in 0..out.station_count() {
        let id = StationId(s);
        let recs = out.records(id);
        h.word(recs.len() as u64);
        for r in recs {
            h.word(r.arrival.as_nanos());
            h.word(r.head.as_nanos());
            h.word(r.rx_end.as_nanos());
            h.word(r.done.as_nanos());
            h.word(r.bytes as u64);
            h.word(r.retries as u64);
            h.word(r.dropped as u64);
            h.word(r.flow as u64);
        }
        // Packets still queued at the end (the `unfinished` arrivals).
        h.word(out.queue_len_at(id, Time::MAX) as u64);
    }
    let c = out.channel;
    h.word(c.success_time.as_nanos());
    h.word(c.collision_time.as_nanos());
    h.word(c.error_time.as_nanos());
    h.word(c.collisions);
    h.word(c.frame_errors);
    h.word(out.collisions);
    h.word(out.last_done.as_nanos());
    h.word(out.horizon.as_nanos());
    h.0
}

/// The four frame sizes of the paper's heterogeneous mix.
fn mixed() -> SizeModel {
    SizeModel::Choice(vec![(40, 1.0), (576, 1.0), (1000, 1.0), (1500, 1.0)])
}

fn poisson(rate_bps: f64, sizes: SizeModel, secs: f64) -> Box<dyn Source> {
    Box::new(PoissonSource::from_bitrate(
        rate_bps,
        sizes,
        Time::ZERO,
        Time::from_secs_f64(secs),
    ))
}

fn all_records(out: &SimOutput) -> Vec<PacketRecord> {
    (0..out.station_count())
        .flat_map(|s| out.records(StationId(s)).to_vec())
        .collect()
}

fn drops(out: &SimOutput) -> usize {
    all_records(out).iter().filter(|r| r.dropped).count()
}

fn check(name: &str, out: &SimOutput, expected: u64) {
    let got = fingerprint(out);
    assert_eq!(
        got, expected,
        "{name}: event-core fingerprint {got:#018x} != expected {expected:#018x}"
    );
}

#[test]
fn one_station_mixed_sizes() {
    let mut sim = WlanSim::new(Phy::dsss_11mbps(), 101);
    sim.add_station(poisson(3e6, mixed(), 2.0));
    let out = sim.run(Time::MAX);
    // A lone station: no collisions, both idle and queued arrivals.
    let recs = all_records(&out);
    assert!(recs.len() > 400 && out.collisions == 0);
    assert!(recs.iter().any(|r| r.head > r.arrival));
    assert!(recs.iter().any(|r| r.head == r.arrival));
    check("one_station_mixed_sizes", &out, 0xd36d_41e1_850f_3ee9);
}

#[test]
fn two_stations_uniform_sizes() {
    let mut sim = WlanSim::new(Phy::dsss_11mbps(), 202);
    sim.add_station(poisson(2.5e6, SizeModel::Uniform(40, 1500), 2.0));
    sim.add_station(poisson(2.5e6, SizeModel::Uniform(40, 1500), 2.0));
    let out = sim.run(Time::MAX);
    assert!(out.collisions > 0);
    check("two_stations_uniform_sizes", &out, 0x79a6_6e5e_9fa5_021d);
}

#[test]
fn five_stations_mixed_near_saturation() {
    let mut sim = WlanSim::new(Phy::dsss_11mbps(), 303);
    for rate in [0.4e6, 0.8e6, 1.2e6, 1.6e6, 2.0e6] {
        sim.add_station(poisson(rate, mixed(), 1.5));
    }
    let out = sim.run(Time::MAX);
    let recs = all_records(&out);
    assert!(out.collisions > 20);
    assert!(recs.iter().any(|r| r.retries >= 2));
    check(
        "five_stations_mixed_near_saturation",
        &out,
        0xb95a_b401_dedd_f374,
    );
}

#[test]
fn overloaded_cbr_station_against_poisson_contenders() {
    // A CBR station offered more than the channel carries keeps a queue
    // for the whole run while four Poisson stations come and go: long
    // frozen countdowns meet collisions, so a frozen counter often
    // lands on the very grid point two other stations collide on.
    let mut sim = WlanSim::new(Phy::dsss_11mbps(), 1313);
    sim.add_station(Box::new(CbrSource::from_bitrate(
        6e6,
        SizeModel::Fixed(1500),
        Time::from_millis(100),
        Time::from_secs_f64(1.5),
    )));
    for _ in 0..4 {
        sim.add_station(poisson(1.2e6, SizeModel::Fixed(1500), 1.5));
    }
    let out = sim.run(Time::from_secs_f64(2.0));
    assert!(out.collisions > 50);
    assert!(out.records(StationId(0)).iter().any(|r| r.head > r.arrival));
    check(
        "overloaded_cbr_station_against_poisson_contenders",
        &out,
        0x7995_486f_35a2_3014,
    );
}

#[test]
fn saturated_collisions_hit_the_retry_limit() {
    let mut phy = Phy::dsss_11mbps();
    phy.retry_limit = 1;
    let mut sim = WlanSim::new(phy, 404);
    for bytes in [40, 576, 1000, 1500, 1500] {
        sim.add_station(saturated_source(bytes, 300));
    }
    let out = sim.run(Time::MAX);
    assert!(drops(&out) > 10, "drops {}", drops(&out));
    check(
        "saturated_collisions_hit_the_retry_limit",
        &out,
        0x6267_28e6_90f7_71bc,
    );
}

#[test]
fn rts_threshold_splits_protected_and_plain_frames() {
    let mut sim =
        WlanSim::new(Phy::dsss_11mbps(), 505).with_options(MacOptions::default().with_rts_cts(600));
    for rate in [0.6e6, 1.0e6, 1.4e6, 1.8e6, 2.2e6] {
        sim.add_station(poisson(rate, mixed(), 1.5));
    }
    let out = sim.run(Time::MAX);
    let recs = all_records(&out);
    assert!(recs.iter().any(|r| r.bytes > 600) && recs.iter().any(|r| r.bytes <= 600));
    assert!(out.collisions > 10);
    check(
        "rts_threshold_splits_protected_and_plain_frames",
        &out,
        0x2650_beec_2fdc_2ba9,
    );
}

#[test]
fn frame_errors_with_retry_limit_drops() {
    let mut phy = Phy::dsss_11mbps();
    phy.retry_limit = 2;
    let mut sim =
        WlanSim::new(phy, 606).with_options(MacOptions::default().with_frame_error_rate(0.35));
    sim.add_station(poisson(1.5e6, mixed(), 2.0));
    sim.add_station(poisson(1.5e6, mixed(), 2.0));
    sim.add_station(saturated_source(1000, 200));
    let out = sim.run(Time::MAX);
    assert!(out.channel.frame_errors > 50 && out.collisions > 0);
    assert!(drops(&out) > 5, "drops {}", drops(&out));
    check(
        "frame_errors_with_retry_limit_drops",
        &out,
        0x10c4_8ed4_df6d_1701,
    );
}

#[test]
fn backoff_for_every_frame() {
    let mut sim = WlanSim::new(Phy::dsss_11mbps(), 707)
        .with_options(MacOptions::default().without_immediate_access());
    for rate in [0.5e6, 1.0e6, 1.5e6] {
        sim.add_station(poisson(rate, mixed(), 2.0));
    }
    let out = sim.run(Time::MAX);
    assert!(out.collisions > 0);
    check("backoff_for_every_frame", &out, 0xe317_f1c6_0476_75e4);
}

#[test]
fn ofdm_phy_mixed_sizes() {
    let mut sim = WlanSim::new(Phy::ofdm_g(54_000_000), 808);
    for rate in [2e6, 4e6, 6e6, 8e6, 10e6] {
        sim.add_station(poisson(rate, mixed(), 1.0));
    }
    let out = sim.run(Time::MAX);
    assert!(out.collisions > 10);
    check("ofdm_phy_mixed_sizes", &out, 0xefc9_c7f4_f759_94b5);
}

#[test]
fn probe_behind_fifo_cross_traffic_stops_early() {
    let train = ProbeTrain::from_rate(150, 1500, 4e6).with_flow(1);
    let probe: Vec<PacketArrival> = (0..train.n)
        .map(|i| PacketArrival {
            time: Time::from_millis(30) + train.gap * i as u64,
            bytes: train.bytes,
            flow: train.flow,
        })
        .collect();
    let mut sim = WlanSim::new(Phy::dsss_11mbps(), 909);
    let st = sim.add_station(Box::new(MergeSource::new(vec![
        Box::new(TraceSource::new(probe)),
        poisson(1e6, mixed(), 5.0),
    ])));
    sim.add_station(poisson(1.5e6, mixed(), 5.0));
    sim.add_station(poisson(1.5e6, SizeModel::Fixed(1500), 5.0));
    sim.stop_after_flow(st, 1, train.n);
    let out = sim.run(Time::from_secs_f64(5.0));
    let probes = out.flow_records(st, 1);
    assert_eq!(probes.len(), train.n);
    // The run stopped at the probe's last completion.
    assert_eq!(out.last_done, probes.last().unwrap().done);
    check(
        "probe_behind_fifo_cross_traffic_stops_early",
        &out,
        0xa78f_5bee_b06f_61d0,
    );
}

#[test]
fn horizon_cut_leaves_queued_packets() {
    let mut sim = WlanSim::new(Phy::dsss_11mbps(), 1010);
    sim.add_station(saturated_source(1500, 500));
    sim.add_station(poisson(3e6, mixed(), 2.0));
    let out = sim.run(Time::from_secs_f64(0.4));
    assert!(out.queue_len_at(StationId(0), Time::MAX) > 0);
    check(
        "horizon_cut_leaves_queued_packets",
        &out,
        0x0817_2baa_39f6_849a,
    );
}

#[test]
fn arrivals_on_and_around_busy_period_edges() {
    // Station 0 sends one frame at t = 0 with immediate access; its
    // exchange ends (the medium frees) at `free`. The other stations'
    // arrivals sit exactly on, just before and just after that edge,
    // and on / just off the idle-grid points after it.
    let phy = Phy::dsss_11mbps();
    let free = Time::ZERO + phy.difs() + phy.success_exchange(1500);
    let grid = |k: u64| free + phy.difs() + phy.slot * k;
    let one = Dur::from_nanos(1);
    let at = |t: Time, bytes: u32| PacketArrival::new(t, bytes);
    let edges: Vec<Vec<PacketArrival>> = vec![
        vec![at(Time::ZERO, 1500)],
        vec![at(free - one, 576), at(grid(40) + phy.slot * 3, 40)],
        vec![at(free, 1000), at(grid(60), 1500)],
        vec![at(free + one, 40), at(grid(60) - one, 576)],
        vec![at(grid(0) + one, 1500), at(grid(61) + one, 1000)],
    ];
    let mut sim = WlanSim::new(phy.clone(), 1111);
    for trace in edges {
        sim.add_station(Box::new(TraceSource::new(trace)));
    }
    let out = sim.run(Time::MAX);
    let first = out.records(StationId(0))[0];
    assert_eq!(
        first.done, free,
        "the edge the other arrivals are placed on"
    );
    assert_eq!(all_records(&out).len(), 9);
    check(
        "arrivals_on_and_around_busy_period_edges",
        &out,
        0x9165_842d_dc98_5faa,
    );
}

#[test]
fn mid_idle_arrivals_off_grid() {
    // Deterministic off-grid arrival instants (an LCG in nanoseconds)
    // at a light load: most arrivals land mid-idle and take the
    // grid-rounded immediate access, some land in busy periods.
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut traces = vec![Vec::new(), Vec::new()];
    for trace in traces.iter_mut() {
        let mut t = 0u64;
        for _ in 0..400 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            t += 1_000_000 + (state >> 33) % 6_000_000;
            let bytes = [40, 576, 1000, 1500][(state >> 20) as usize % 4];
            trace.push(PacketArrival::new(Time::from_nanos(t), bytes));
        }
    }
    let mut sim = WlanSim::new(Phy::dsss_11mbps(), 1212);
    for trace in traces {
        sim.add_station(Box::new(TraceSource::new(trace)));
    }
    let out = sim.run(Time::MAX);
    let recs = all_records(&out);
    let phy = Phy::dsss_11mbps();
    let immediate = recs
        .iter()
        .filter(|r| {
            r.retries == 0
                && r.access_delay() <= phy.difs() + phy.slot + phy.success_exchange(r.bytes)
        })
        .count();
    assert!(immediate > 300, "immediate-access completions {immediate}");
    assert!(recs
        .iter()
        .any(|r| r.access_delay() > phy.difs() + phy.slot * 2 + phy.success_exchange(r.bytes)));
    check("mid_idle_arrivals_off_grid", &out, 0x44e8_d53c_4a5a_c622);
}
