//! Oracle for the streaming wired FIFO pass: `WiredLink` and `WiredPath`
//! must give bit-identical probe arrivals and departures to the
//! full-horizon construction — draw cross-traffic well past the last
//! probe, sort it together with the probes (probe first on a tie), run
//! `fifo_serve` over every job and keep the probe rows.

use csmaprobe::core::link::{ProbeTarget, TrainObservation, WiredLink};
use csmaprobe::core::multihop::{Hop, WiredPath};
use csmaprobe::desim::rng::{derive_seed, SimRng};
use csmaprobe::desim::time::{Dur, Time};
use csmaprobe::queueing::fifo::{fifo_serve, Job};
use csmaprobe::traffic::probe::ProbeTrain;
use csmaprobe::traffic::{PoissonSource, SizeModel, Source};

/// Cross-traffic loads, as fractions of each hop's capacity.
const LOADS: [f64; 3] = [0.0, 0.2, 0.95];
const SEEDS: u64 = 50;
/// Hop capacities; a path of `k` hops uses the first `k`.
const CAPACITIES: [f64; 3] = [10e6, 20e6, 8e6];

/// Seed salts of the cross-traffic streams: the link's, and hop `h`'s
/// of a path (`PATH_SALT + h`).
const LINK_SALT: u64 = 0x51ED;
const PATH_SALT: u64 = 0xB0B;

/// One hop of the reference construction. Returns `(arrival,
/// departure, bytes)` of every probe, in service order.
fn reference_hop(
    hop: &Hop,
    probe: &[(Time, u32)],
    seed: u64,
    horizon_bytes: u32,
) -> Vec<(Time, Time, u32)> {
    let service = |bytes: u32| Dur::from_secs_f64(bytes as f64 * 8.0 / hop.capacity_bps);
    let last = probe.last().map(|&(t, _)| t).unwrap_or(Time::ZERO);
    let horizon = last + service(horizon_bytes) * (probe.len() as u64 + 8) + Dur::from_secs(2);
    let mut rng = SimRng::new(seed);
    let mut cross = PoissonSource::from_bitrate(
        hop.cross_rate_bps,
        SizeModel::Fixed(hop.cross_bytes),
        Time::ZERO,
        horizon,
    );
    let mut jobs: Vec<(Time, u32, bool)> = Vec::new();
    while let Some(p) = cross.next_packet(&mut rng) {
        jobs.push((p.time, p.bytes, false));
    }
    jobs.extend(probe.iter().map(|&(t, b)| (t, b, true)));
    jobs.sort_by_key(|&(t, _, is_probe)| (t, !is_probe));
    let plain: Vec<Job> = jobs
        .iter()
        .map(|&(t, bytes, _)| Job {
            arrival: t,
            service: service(bytes),
        })
        .collect();
    fifo_serve(&plain)
        .iter()
        .zip(&jobs)
        .filter(|(_, &(_, _, is_probe))| is_probe)
        .map(|(s, &(_, b, _))| (s.arrival, s.depart, b))
        .collect()
}

fn link_hop(link: &WiredLink) -> Hop {
    Hop {
        capacity_bps: link.capacity_bps,
        cross_rate_bps: link.cross_rate_bps,
        cross_bytes: link.cross_bytes,
    }
}

fn reference_link(
    link: &WiredLink,
    probe: &[(Time, u32)],
    bytes: u32,
    seed: u64,
) -> [Vec<Time>; 2] {
    let served = reference_hop(&link_hop(link), probe, derive_seed(seed, LINK_SALT), bytes);
    [
        served.iter().map(|s| s.0).collect(),
        served.iter().map(|s| s.1).collect(),
    ]
}

fn reference_path(path: &WiredPath, probe: &[(Time, u32)], seed: u64) -> [Vec<Time>; 2] {
    let mut current = probe.to_vec();
    for (h, hop) in path.hops.iter().enumerate() {
        current = reference_hop(
            hop,
            &current,
            derive_seed(seed, PATH_SALT + h as u64),
            path.probe_bytes,
        )
        .into_iter()
        .map(|(_, depart, b)| (depart, b))
        .collect();
    }
    [
        probe.iter().map(|&(t, _)| t).collect(),
        current.iter().map(|&(t, _)| t).collect(),
    ]
}

/// Offsets that land exactly on cross arrivals of the stream seeded
/// with `stream_seed`, some of them repeated: probes and cross packets
/// tie, and so do probes among themselves.
fn cross_ties(hop: &Hop, stream_seed: u64, start: Time) -> Vec<Dur> {
    let mut rng = SimRng::new(stream_seed);
    let mut cross = PoissonSource::from_bitrate(
        hop.cross_rate_bps,
        SizeModel::Fixed(hop.cross_bytes),
        Time::ZERO,
        start + Dur::from_secs(1),
    );
    let mut offsets = Vec::new();
    while let Some(p) = cross.next_packet(&mut rng) {
        if p.time >= start {
            let o = p.time - start;
            offsets.extend(std::iter::repeat(o).take(1 + offsets.len() % 3));
        }
        if offsets.len() >= 24 {
            break;
        }
    }
    offsets
}

fn trains() -> Vec<ProbeTrain> {
    let mut trains = Vec::new();
    for n in [1, 5, 20, 100] {
        for rate in [4e6, 12e6] {
            trains.push(ProbeTrain::from_rate(n, 1500, rate));
        }
    }
    trains
}

/// The fixed offset sequences: empty, zero-gap, and equal-time groups.
fn sequences() -> Vec<Vec<Dur>> {
    let ms = Dur::from_millis;
    vec![
        Vec::new(),
        vec![Dur::ZERO; 10],
        vec![ms(0), ms(0), ms(1), ms(1), ms(1), ms(3), ms(3), ms(7)],
    ]
}

fn train_probe(train: ProbeTrain, start: Time) -> Vec<(Time, u32)> {
    train
        .arrivals(start)
        .iter()
        .map(|p| (p.time, p.bytes))
        .collect()
}

fn sequence_probe(offsets: &[Dur], bytes: u32, start: Time) -> Vec<(Time, u32)> {
    offsets.iter().map(|&o| (start + o, bytes)).collect()
}

fn assert_same(obs: &TrainObservation, reference: &[Vec<Time>; 2], what: &str) {
    assert_eq!(obs.arrivals, reference[0], "arrivals: {what}");
    assert_eq!(obs.rx_times, reference[1], "rx_times: {what}");
}

#[test]
fn wired_link_matches_full_horizon_reference() {
    let mut ties = 0;
    for load in LOADS {
        let link = WiredLink::new(CAPACITIES[0], load * CAPACITIES[0]);
        let start = Time::ZERO + link.warmup;
        for seed in 0..SEEDS {
            for train in trains() {
                let probe = train_probe(train, start);
                let what = format!(
                    "load {load} seed {seed} train n={} gap {:?}",
                    train.n, train.gap
                );
                assert_same(
                    &link.probe_train(train, seed),
                    &reference_link(&link, &probe, train.bytes, seed),
                    &what,
                );
            }
            let tied = cross_ties(&link_hop(&link), derive_seed(seed, LINK_SALT), start);
            ties += tied.len();
            for offsets in sequences().into_iter().chain([tied]) {
                let probe = sequence_probe(&offsets, 1500, start);
                let what = format!("load {load} seed {seed} offsets {offsets:?}");
                assert_same(
                    &link.probe_sequence(&offsets, 1500, seed),
                    &reference_link(&link, &probe, 1500, seed),
                    &what,
                );
            }
        }
    }
    assert!(ties > 0, "no probe landed on a cross arrival");
}

#[test]
fn wired_path_matches_full_horizon_reference() {
    let mut ties = 0;
    for load in LOADS {
        for hops in 1..=CAPACITIES.len() {
            let path = WiredPath::new(
                CAPACITIES[..hops]
                    .iter()
                    .map(|&c| Hop::new(c, load * c))
                    .collect(),
            );
            let start = Time::ZERO + path.warmup;
            for seed in 0..SEEDS {
                for train in trains() {
                    let probe = train_probe(train, start);
                    let what = format!(
                        "load {load} hops {hops} seed {seed} train n={} gap {:?}",
                        train.n, train.gap
                    );
                    assert_same(
                        &path.probe_train(train, seed),
                        &reference_path(&path, &probe, seed),
                        &what,
                    );
                }
                let tied = cross_ties(&path.hops[0], derive_seed(seed, PATH_SALT), start);
                ties += tied.len();
                for offsets in sequences().into_iter().chain([tied]) {
                    let probe = sequence_probe(&offsets, 1500, start);
                    let what = format!("load {load} hops {hops} seed {seed} offsets {offsets:?}");
                    assert_same(
                        &path.probe_sequence(&offsets, 1500, seed),
                        &reference_path(&path, &probe, seed),
                        &what,
                    );
                }
            }
        }
    }
    assert!(ties > 0, "no probe landed on a cross arrival");
}

#[test]
#[should_panic(expected = "a FIFO hop requires time-ordered probe arrivals")]
fn wired_link_rejects_out_of_order_offsets() {
    let offsets = [Dur::from_millis(2), Dur::from_millis(1)];
    WiredLink::new(10e6, 2e6).probe_sequence(&offsets, 1500, 1);
}

#[test]
#[should_panic(expected = "a FIFO hop requires time-ordered probe arrivals")]
fn wired_path_rejects_out_of_order_offsets() {
    let offsets = [Dur::from_millis(2), Dur::from_millis(1)];
    WiredPath::new(vec![Hop::new(10e6, 2e6), Hop::new(20e6, 0.0)])
        .probe_sequence(&offsets, 1500, 1);
}
