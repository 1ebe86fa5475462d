//! Multi-hop wired FIFO paths.
//!
//! The paper's wired baseline is a single hop; its reference \[15\]
//! (Liu, Ravindran, Loguinov) analyses probing *asymptotics across
//! several FIFO hops*. [`WiredPath`] chains single-hop FIFO queues —
//! each with its own capacity and independent Poisson cross-traffic —
//! so the tools in `csmaprobe-probe` can be exercised on multi-hop
//! topologies too: the end-to-end available bandwidth is the minimum
//! over hops ("tight link"), the packet-pair capacity is set by the
//! narrow link, and each extra hop adds its own transient to short
//! trains.
//!
//! Every hop is served by one streaming pass, [`Hop::serve`], which the
//! single-hop [`WiredLink`](crate::link::WiredLink) shares:
//!
//! * **Causality cut.** A FIFO departure depends only on jobs that
//!   arrived before it, so cross-traffic arriving after the last probe
//!   can never change a probe departure. Cross arrivals are drawn from
//!   the hop's seeded Poisson stream only up to the last probe arrival;
//!   that prefix is exactly what any longer draw would start with.
//! * **Tie rule.** A probe and a cross packet arriving at the same
//!   instant are served probe first. Probes keep their order among
//!   themselves, and so do cross packets.
//! * **Cost.** The two time-ordered streams are merged without a sort
//!   and each job goes straight through the Lindley recursion; only
//!   probe departures are kept. A train costs time proportional to the
//!   warm-up plus the train span (at the hop's cross packet rate) and
//!   memory proportional to its probe packets, at any cross rate.

use crate::link::{ProbeTarget, TrainObservation};
use csmaprobe_desim::rng::{derive_seed, SimRng};
use csmaprobe_desim::time::{Dur, Time};
use csmaprobe_traffic::probe::ProbeTrain;
use csmaprobe_traffic::{PoissonSource, SizeModel, Source};

/// One FIFO hop of a wired path.
#[derive(Debug, Clone, Copy)]
pub struct Hop {
    /// Link capacity, bits/s.
    pub capacity_bps: f64,
    /// Poisson cross-traffic rate entering at this hop, bits/s
    /// (single-hop-persistent: it leaves before the next hop).
    pub cross_rate_bps: f64,
    /// Cross-traffic packet size, bytes.
    pub cross_bytes: u32,
}

impl Hop {
    /// A hop with the given capacity and cross-traffic (1500 B packets).
    pub fn new(capacity_bps: f64, cross_rate_bps: f64) -> Self {
        Hop {
            capacity_bps,
            cross_rate_bps,
            cross_bytes: 1500,
        }
    }

    /// This hop's available bandwidth.
    pub fn available_bps(&self) -> f64 {
        (self.capacity_bps - self.cross_rate_bps).max(0.0)
    }

    /// Serve a probe sequence through this hop in one streaming pass,
    /// replacing each probe arrival time with its departure time.
    /// `seed` drives the hop's Poisson cross-traffic, which starts at
    /// t = 0 so the queue is stationary when probing starts.
    ///
    /// Cross arrivals are drawn only up to the last probe arrival and
    /// merged with the probes, probe first on a tie; every job goes
    /// straight through the Lindley recursion (see the module docs).
    ///
    /// Panics if the probe arrivals are out of order.
    pub fn serve(&self, probe: &mut [(Time, u32)], seed: u64) {
        let service = |bytes: u32| Dur::from_secs_f64(bytes as f64 * 8.0 / self.capacity_bps);
        let cross_service = service(self.cross_bytes);
        let last = probe.last().map_or(Time::ZERO, |&(t, _)| t);
        let mut rng = SimRng::new(seed);
        let mut cross = PoissonSource::from_bitrate(
            self.cross_rate_bps,
            SizeModel::Fixed(self.cross_bytes),
            Time::ZERO,
            last,
        );
        let mut next_cross = cross.next_packet(&mut rng);
        let mut server_free = Time::ZERO;
        let mut prev = Time::ZERO;
        for (t, bytes) in probe.iter_mut() {
            let arrival = *t;
            assert!(
                arrival >= prev,
                "a FIFO hop requires time-ordered probe arrivals"
            );
            prev = arrival;
            // Cross packets strictly before the probe: a tie goes to the probe.
            while let Some(c) = next_cross.filter(|c| c.time < arrival) {
                server_free = c.time.max(server_free) + cross_service;
                next_cross = cross.next_packet(&mut rng);
            }
            server_free = arrival.max(server_free) + service(*bytes);
            *t = server_free;
        }
    }
}

/// A chain of FIFO hops with per-hop cross-traffic.
#[derive(Debug, Clone)]
pub struct WiredPath {
    /// The hops, in path order.
    pub hops: Vec<Hop>,
    /// Probe payload size, bytes.
    pub probe_bytes: u32,
    /// Cross-traffic warm-up before probing begins.
    pub warmup: Dur,
}

impl WiredPath {
    /// A path over the given hops.
    pub fn new(hops: Vec<Hop>) -> Self {
        assert!(!hops.is_empty(), "a path needs at least one hop");
        WiredPath {
            hops,
            probe_bytes: 1500,
            warmup: Dur::from_millis(500),
        }
    }

    /// The end-to-end available bandwidth: the minimum over hops.
    pub fn available_bps(&self) -> f64 {
        self.hops
            .iter()
            .map(Hop::available_bps)
            .fold(f64::INFINITY, f64::min)
    }

    /// The narrow-link capacity: the minimum hop capacity.
    pub fn capacity_bps(&self) -> f64 {
        self.hops
            .iter()
            .map(|h| h.capacity_bps)
            .fold(f64::INFINITY, f64::min)
    }

    /// Push a probe arrival sequence through every hop in turn — probe
    /// departures of hop `k` are its arrivals at hop `k+1` — and observe
    /// it at the far end.
    fn observe(
        &self,
        mut probe: Vec<(Time, u32)>,
        seed: u64,
        g_i: Dur,
        bytes: u32,
    ) -> TrainObservation {
        let arrivals = probe.iter().map(|&(t, _)| t).collect();
        for (h, hop) in self.hops.iter().enumerate() {
            // Independent cross-traffic stream per hop.
            hop.serve(&mut probe, derive_seed(seed, 0xB0B + h as u64));
        }
        TrainObservation {
            arrivals,
            rx_times: probe.into_iter().map(|(t, _)| t).collect(),
            access_delays: None,
            g_i,
            bytes,
        }
    }
}

impl ProbeTarget for WiredPath {
    fn probe_train(&self, train: ProbeTrain, seed: u64) -> TrainObservation {
        let start = Time::ZERO + self.warmup;
        let probe = train
            .arrivals(start)
            .iter()
            .map(|p| (p.time, p.bytes))
            .collect();
        self.observe(probe, seed, train.gap, train.bytes)
    }

    fn probe_sequence(&self, offsets: &[Dur], bytes: u32, seed: u64) -> TrainObservation {
        let start = Time::ZERO + self.warmup;
        let probe = offsets.iter().map(|&o| (start + o, bytes)).collect();
        self.observe(probe, seed, Dur::ZERO, bytes)
    }

    fn probe_bytes(&self) -> u32 {
        self.probe_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_metrics_are_minima() {
        let path = WiredPath::new(vec![
            Hop::new(100e6, 20e6),
            Hop::new(10e6, 4e6), // tight AND narrow link
            Hop::new(50e6, 45e6),
        ]);
        assert_eq!(path.capacity_bps(), 10e6);
        assert_eq!(path.available_bps(), 5e6); // 50-45 = 5 < 6 < 80
    }

    #[test]
    fn single_hop_path_equals_wired_link() {
        use crate::link::WiredLink;
        let path = WiredPath::new(vec![Hop::new(10e6, 4e6)]);
        let link = WiredLink::new(10e6, 4e6);
        let train = ProbeTrain::from_rate(200, 1500, 3e6);
        let a = path.probe_train(train, 5).output_rate_bps().unwrap();
        let b = link.probe_train(train, 5).output_rate_bps().unwrap();
        // Different cross-traffic streams, same statistics.
        assert!((a - b).abs() / b < 0.05, "{a} vs {b}");
    }

    #[test]
    fn bottleneck_caps_throughput() {
        let path = WiredPath::new(vec![Hop::new(100e6, 0.0), Hop::new(10e6, 4e6)]);
        // Probing hard: the long-train response pins at the tight
        // link's eq (1) value.
        let train = ProbeTrain::from_rate(1500, 1500, 9e6);
        let ro = path.probe_train(train, 7).output_rate_bps().unwrap();
        let fluid = crate::rate_response::fifo_rate_response(9e6, 10e6, 6e6);
        assert!(
            (ro - fluid).abs() / fluid < 0.06,
            "ro {ro} vs fluid {fluid}"
        );
    }

    #[test]
    fn packet_pair_reads_narrow_link() {
        // Pair dispersion after the narrow link survives wide
        // downstream hops (no cross-traffic to re-compress it).
        let path = WiredPath::new(vec![Hop::new(10e6, 0.0), Hop::new(100e6, 0.0)]);
        let train = ProbeTrain::packet_pair(1500);
        let obs = path.probe_train(train, 9);
        let rate = obs.output_rate_bps().unwrap();
        assert!((rate - 10e6).abs() / 10e6 < 1e-6, "pair rate {rate}");
    }

    #[test]
    fn extra_hops_add_dispersion_noise() {
        // Short trains across 3 loaded hops deviate more from the input
        // rate than across 1 hop (each hop adds burstiness).
        let one = WiredPath::new(vec![Hop::new(10e6, 5e6)]);
        let three = WiredPath::new(vec![
            Hop::new(10e6, 5e6),
            Hop::new(10e6, 5e6),
            Hop::new(10e6, 5e6),
        ]);
        let train = ProbeTrain::from_rate(10, 1500, 4e6);
        let spread = |path: &WiredPath| {
            let mut dev = 0.0;
            for seed in 0..40u64 {
                let ro = path.probe_train(train, seed).output_rate_bps().unwrap();
                dev += (ro - 4e6).abs();
            }
            dev / 40.0
        };
        assert!(spread(&three) > spread(&one));
    }

    #[test]
    #[should_panic(expected = "at least one hop")]
    fn empty_path_rejected() {
        WiredPath::new(vec![]);
    }
}
