//! `SimOutput::queue_lens_at` (one merged sweep over a non-decreasing
//! instant sequence) against its oracle `SimOutput::queue_len_at` (three
//! binary searches per instant): equal at every instant of random runs,
//! including instants that coincide exactly with an arrival or a
//! completion, repeated instants, packets still queued when the run
//! stopped, and stations that completed nothing.

use csmaprobe_desim::rng::SimRng;
use csmaprobe_desim::time::{Dur, Time};
use csmaprobe_mac::{saturated_source, SimOutput, StationId, WlanSim};
use csmaprobe_phy::Phy;
use csmaprobe_traffic::{PacketArrival, PoissonSource, SilentSource, SizeModel, TraceSource};

/// Every arrival and completion of every station, each also shifted by
/// one nanosecond either way, plus random instants; sorted, with every
/// fifth instant repeated.
fn instants(out: &SimOutput, extra: &[Time], rng: &mut SimRng) -> Vec<Time> {
    let one = Dur::from_nanos(1);
    let mut ts: Vec<Time> = extra.to_vec();
    for s in 0..out.station_count() {
        for r in out.records(StationId(s)) {
            for t in [r.arrival, r.head, r.done] {
                ts.extend([t, t + one]);
                if t > Time::ZERO {
                    ts.push(t - one);
                }
            }
        }
    }
    let end = out.horizon.min(out.last_done + Dur::from_millis(50));
    for _ in 0..200 {
        ts.push(Time::from_nanos(rng.range_inclusive(0, end.as_nanos())));
    }
    ts.extend([Time::ZERO, Time::MAX]);
    ts.sort();
    let repeated: Vec<Time> = ts.iter().step_by(5).copied().collect();
    ts.extend(repeated);
    ts.sort();
    ts
}

fn assert_sweep_matches_oracle(out: &SimOutput, ts: &[Time], label: &str) {
    for s in 0..out.station_count() {
        let id = StationId(s);
        let swept: Vec<usize> = out.queue_lens_at(id, ts.iter().copied()).collect();
        assert_eq!(swept.len(), ts.len());
        for (&t, &q) in ts.iter().zip(&swept) {
            assert_eq!(
                q,
                out.queue_len_at(id, t),
                "{label}: station {s} at {} ns",
                t.as_nanos()
            );
        }
    }
}

#[test]
fn sweep_equals_binary_searches_on_random_runs() {
    let sizes = || SizeModel::Choice(vec![(40, 1.0), (576, 1.0), (1000, 1.0), (1500, 1.0)]);
    for seed in 0..24u64 {
        let mut rng = SimRng::new(0x9E37 + seed);
        let stations = 1 + (seed % 4) as usize;
        let secs = 0.05 + rng.f64() * 0.3;
        let until = Time::from_secs_f64(secs);
        let mut sim = WlanSim::new(Phy::dsss_11mbps(), seed);
        for _ in 0..stations {
            let rate = 0.5e6 + rng.f64() * 4e6;
            sim.add_station(Box::new(PoissonSource::from_bitrate(
                rate,
                sizes(),
                Time::ZERO,
                until,
            )));
        }
        // Every other run stops mid-way, leaving packets queued.
        let horizon = if seed % 2 == 0 {
            Time::MAX
        } else {
            Time::from_secs_f64(secs * 0.6)
        };
        let out = sim.run(horizon);
        let ts = instants(&out, &[], &mut rng);
        assert_sweep_matches_oracle(&out, &ts, &format!("seed {seed}"));
    }
}

#[test]
fn queued_at_stop_and_stations_that_completed_nothing() {
    // Station 0 is saturated and cut by the horizon (packets left
    // queued); station 1 never offers anything; station 2's only packets
    // arrive just before the horizon, so they are all still queued.
    let horizon = Time::from_millis(30);
    let late: Vec<PacketArrival> = [29_990, 29_995, 29_995]
        .iter()
        .map(|&us| PacketArrival::new(Time::from_micros(us), 1500))
        .collect();
    let mut sim = WlanSim::new(Phy::dsss_11mbps(), 7);
    sim.add_station(saturated_source(1500, 100));
    sim.add_station(Box::new(SilentSource));
    sim.add_station(Box::new(TraceSource::new(late.clone())));
    let out = sim.run(horizon);
    assert!(out.queue_len_at(StationId(0), Time::MAX) > 0);
    assert!(out.records(StationId(1)).is_empty());
    assert!(out.records(StationId(2)).is_empty());
    assert_eq!(out.queue_len_at(StationId(2), Time::MAX), late.len());

    let mut rng = SimRng::new(11);
    let arrivals: Vec<Time> = late.iter().map(|p| p.time).collect();
    let ts = instants(&out, &arrivals, &mut rng);
    assert_sweep_matches_oracle(&out, &ts, "horizon cut");
    // No instants: nothing yielded.
    assert_eq!(
        out.queue_lens_at(StationId(0), std::iter::empty()).count(),
        0
    );
}
