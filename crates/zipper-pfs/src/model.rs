//! Virtual-time model of a striped parallel file system (Lustre-like),
//! used by the discrete-event simulator to time `FsWrite`/`FsRead` ops.
//!
//! The model captures the three properties the paper's analysis depends on:
//!
//! * **finite aggregate bandwidth** — requests queue at object storage
//!   targets (OSTs), so many concurrent writers serialize (Fig. 13's
//!   Preserve mode is dominated by this drain);
//! * **striping** — a large request spreads over several OSTs and can beat
//!   a single OST's bandwidth, but contends with everyone else's stripes;
//! * **background load** — the PFS is shared with other users, which the
//!   paper singles out as the source of MPI-IO's large variance (§3). A
//!   deterministic pseudo-random per-request slowdown reproduces it.

use zipper_types::{ByteSize, SimTime};

/// Scramble a placement key so structured keys (rank<<32 | counter) spread
/// uniformly over targets instead of colliding modulo small target counts.
#[inline]
pub fn mix_key(key: u64) -> u64 {
    let mut h = key.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// Configuration of the OST model.
#[derive(Clone, Debug)]
pub struct OstModelConfig {
    /// Number of object storage targets.
    pub n_osts: usize,
    /// Bandwidth of each OST in bytes/second.
    pub ost_bandwidth: f64,
    /// Fixed per-request latency (metadata server round trip, open/close).
    pub op_latency: SimTime,
    /// Stripe unit: a request is split into stripes of this size placed on
    /// consecutive OSTs.
    pub stripe_size: ByteSize,
    /// Mean fraction of OST bandwidth consumed by other users (0.0–0.95).
    pub background_load: f64,
    /// Relative jitter of the background load per request (0.0–1.0).
    /// `background_jitter = 1.0` lets the effective load swing between 0
    /// and `2 × background_load` — MPI-IO's "longest and most variational
    /// end-to-end time".
    pub background_jitter: f64,
    /// Bandwidth multiplier for reads relative to writes. Reads of
    /// recently written data are served from the OSS write-back cache at
    /// several times the disk rate — which is exactly the pattern of the
    /// dual-channel optimization (the consumer reads a block moments
    /// after the producer's writer thread parked it).
    pub read_bandwidth_factor: f64,
}

impl Default for OstModelConfig {
    fn default() -> Self {
        // Roughly Bridges-like: 10 PB Lustre, modeled as 64 OSTs × 1.25 GB/s
        // = 80 GB/s aggregate, 0.5 ms metadata latency, 1 MiB stripes.
        OstModelConfig {
            n_osts: 64,
            ost_bandwidth: 0.5e9,
            op_latency: SimTime::from_micros(500),
            stripe_size: ByteSize::mib(1),
            background_load: 0.3,
            background_jitter: 0.5,
            read_bandwidth_factor: 4.0,
        }
    }
}

impl OstModelConfig {
    pub fn validate(&self) -> Result<(), String> {
        if self.n_osts == 0 {
            return Err("need at least one OST".into());
        }
        if self.ost_bandwidth <= 0.0 {
            return Err("OST bandwidth must be positive".into());
        }
        if self.stripe_size.as_u64() == 0 {
            return Err("stripe size must be positive".into());
        }
        if !(0.0..=0.95).contains(&self.background_load) {
            return Err("background load must be in [0, 0.95]".into());
        }
        if !(0.0..=1.0).contains(&self.background_jitter) {
            return Err("background jitter must be in [0, 1]".into());
        }
        if self.read_bandwidth_factor < 1.0 {
            return Err("read bandwidth factor must be >= 1".into());
        }
        Ok(())
    }
}

/// The stateful model: per-OST busy horizons plus a deterministic jitter
/// stream.
pub struct OstModel {
    cfg: OstModelConfig,
    busy_until: Vec<SimTime>,
    rng_state: u64,
    requests: u64,
    bytes_moved: u64,
    /// Run-level multiplier on the background load, drawn once per model
    /// from the seed: a shared file system is busier on some days than
    /// others, which is what makes MPI-IO "the longest and most
    /// variational" method across repeated runs (§3).
    run_load_scale: f64,
}

impl OstModel {
    pub fn new(cfg: OstModelConfig, seed: u64) -> Self {
        cfg.validate().expect("invalid OST model config");
        let n = cfg.n_osts;
        let mut model = OstModel {
            cfg,
            busy_until: vec![SimTime::ZERO; n],
            rng_state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (seed << 32) | 1,
            requests: 0,
            bytes_moved: 0,
            run_load_scale: 1.0,
        };
        // Draw the run-level load in [1 - jitter, 1 + jitter].
        let u = model.next_unit();
        model.run_load_scale = 1.0 + (2.0 * u - 1.0) * model.cfg.background_jitter;
        model
    }

    pub fn config(&self) -> &OstModelConfig {
        &self.cfg
    }

    /// Deterministic xorshift64* stream for background-load jitter.
    fn next_unit(&mut self) -> f64 {
        let mut s = self.rng_state;
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        self.rng_state = s;
        (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Effective bandwidth for one request: run-level load scale plus
    /// per-request jitter.
    fn effective_bandwidth(&mut self) -> f64 {
        let jitter = (self.next_unit() * 2.0 - 1.0) * self.cfg.background_jitter;
        let load =
            (self.cfg.background_load * self.run_load_scale * (1.0 + jitter)).clamp(0.0, 0.98);
        self.cfg.ost_bandwidth * (1.0 - load)
    }

    /// Submit a write of `bytes` arriving at `now`, with placement keyed
    /// by `key` (typically the writing rank or the block id): stripes land
    /// on consecutive OSTs starting at `hash(key) % n_osts`. Returns the
    /// virtual time at which the whole request completes.
    pub fn submit(&mut self, now: SimTime, bytes: u64, key: u64) -> SimTime {
        self.submit_dir(now, bytes, key, false)
    }

    /// Submit a read. Reads of recently written data are served from the
    /// OSS write-back cache: they proceed at `read_bandwidth_factor ×` the
    /// disk rate and do *not* queue behind the disk write backlog (the
    /// dual-channel pattern reads a block moments after it was parked).
    pub fn submit_read(&mut self, now: SimTime, bytes: u64, _key: u64) -> SimTime {
        self.requests += 1;
        self.bytes_moved += bytes;
        let arrive = now + self.cfg.op_latency;
        if bytes == 0 {
            return arrive;
        }
        let bw = self.effective_bandwidth() * self.cfg.read_bandwidth_factor;
        arrive + SimTime::for_bytes(bytes, bw)
    }

    fn submit_dir(&mut self, now: SimTime, bytes: u64, key: u64, _read: bool) -> SimTime {
        self.requests += 1;
        self.bytes_moved += bytes;
        let arrive = now + self.cfg.op_latency;
        if bytes == 0 {
            return arrive;
        }
        let stripe = self.cfg.stripe_size.as_u64();
        let n_stripes = bytes.div_ceil(stripe);
        let bw = self.effective_bandwidth();
        let first = (mix_key(key) % self.cfg.n_osts as u64) as usize;
        let mut completion = arrive;
        // Stripes on the same OST queue behind each other; stripes on
        // different OSTs proceed in parallel.
        for i in 0..n_stripes {
            let this = if i == n_stripes - 1 {
                bytes - (n_stripes - 1) * stripe
            } else {
                stripe
            };
            let ost = (first + i as usize) % self.cfg.n_osts;
            let start = self.busy_until[ost].max(arrive);
            let finish = start + SimTime::for_bytes(this, bw);
            self.busy_until[ost] = finish;
            completion = completion.max(finish);
        }
        completion
    }

    /// Number of requests served.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Total bytes moved through the model.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Latest busy horizon across OSTs (when the PFS drains fully).
    pub fn drain_time(&self) -> SimTime {
        self.busy_until
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_cfg(n_osts: usize, bw: f64) -> OstModelConfig {
        OstModelConfig {
            n_osts,
            ost_bandwidth: bw,
            op_latency: SimTime::ZERO,
            stripe_size: ByteSize::mib(1),
            background_load: 0.0,
            background_jitter: 0.0,
            read_bandwidth_factor: 1.0,
        }
    }

    #[test]
    fn single_stripe_takes_bytes_over_bandwidth() {
        let mut m = OstModel::new(quiet_cfg(4, 1e9), 1);
        let done = m.submit(SimTime::ZERO, 1 << 20, 0);
        let expect = SimTime::for_bytes(1 << 20, 1e9);
        assert_eq!(done, expect);
    }

    #[test]
    fn striping_parallelizes_large_requests() {
        // 8 MiB over 8 OSTs at 1 GB/s each: ~1 MiB per OST in parallel.
        let mut m = OstModel::new(quiet_cfg(8, 1e9), 1);
        let done = m.submit(SimTime::ZERO, 8 << 20, 0);
        let one_stripe = SimTime::for_bytes(1 << 20, 1e9);
        assert!(done <= one_stripe * 2, "done={done}, stripe={one_stripe}");

        // Same request on a single OST must take ~8× a stripe.
        let mut m1 = OstModel::new(quiet_cfg(1, 1e9), 1);
        let done1 = m1.submit(SimTime::ZERO, 8 << 20, 0);
        assert!(done1 >= one_stripe * 8);
    }

    #[test]
    fn requests_queue_at_busy_osts() {
        let mut m = OstModel::new(quiet_cfg(1, 1e9), 1);
        let d1 = m.submit(SimTime::ZERO, 1 << 20, 0);
        let d2 = m.submit(SimTime::ZERO, 1 << 20, 0);
        assert!(d2 >= d1 * 2 - SimTime::from_nanos(2), "d1={d1} d2={d2}");
        assert_eq!(m.requests(), 2);
        assert_eq!(m.bytes_moved(), 2 << 20);
        assert_eq!(m.drain_time(), d2);
    }

    #[test]
    fn background_load_slows_and_varies() {
        let mk = |load, jitter| OstModelConfig {
            background_load: load,
            background_jitter: jitter,
            op_latency: SimTime::ZERO,
            ..quiet_cfg(1, 1e9)
        };
        let mut quiet = OstModel::new(mk(0.0, 0.0), 7);
        let mut loaded = OstModel::new(mk(0.5, 0.0), 7);
        let dq = quiet.submit(SimTime::ZERO, 1 << 20, 0);
        let dl = loaded.submit(SimTime::ZERO, 1 << 20, 0);
        // 50 % load ⇒ roughly 2× slower.
        let ratio = dl.as_secs_f64() / dq.as_secs_f64();
        assert!((1.8..=2.2).contains(&ratio), "ratio={ratio}");

        // With jitter, two identical fresh models with different seeds
        // disagree on timing — the MPI-IO variance knob.
        let mut a = OstModel::new(mk(0.5, 0.9), 1);
        let mut b = OstModel::new(mk(0.5, 0.9), 2);
        let da = a.submit(SimTime::ZERO, 1 << 20, 0);
        let db = b.submit(SimTime::ZERO, 1 << 20, 0);
        assert_ne!(da, db);
    }

    #[test]
    fn determinism_per_seed() {
        let cfg = OstModelConfig::default();
        let run = |seed| {
            let mut m = OstModel::new(cfg.clone(), seed);
            (0..50)
                .map(|i| m.submit(SimTime::from_millis(i), 1 << 20, i).as_nanos())
                .sum::<u64>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn zero_byte_request_costs_latency_only() {
        let mut m = OstModel::new(OstModelConfig::default(), 1);
        let done = m.submit(SimTime::ZERO, 0, 0);
        assert_eq!(done, OstModelConfig::default().op_latency);
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let c = OstModelConfig {
            n_osts: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = OstModelConfig {
            background_load: 0.99,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }
}
