//! Server observability: request counters, latency percentiles, and the
//! micro-batch fill distribution.
//!
//! Latencies land in log2-spaced microsecond buckets (1us, 2us, 4us, …
//! ~1.1h). Percentiles are read back as the *upper bound* of the bucket
//! holding the requested rank — deliberately pessimistic, and cheap
//! enough to record with two atomic adds per request. Batch fill uses 64
//! linear buckets (one per possible lane count in a 64-lane
//! `PatternBlock` group), so `stats` exposes exactly how well
//! cross-connection coalescing is working.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::Json;

const LATENCY_BUCKETS: usize = 32;
const FILL_BUCKETS: usize = 64;

/// Lock-free accumulator behind the `stats` command.
pub struct ServerStats {
    accepted: AtomicU64,
    completed: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
    per_cmd: [AtomicU64; 10],
    latency_us: [AtomicU64; LATENCY_BUCKETS],
    batch_fill: [AtomicU64; FILL_BUCKETS],
    batches: AtomicU64,
    batched_requests: AtomicU64,
    worker_panics: AtomicU64,
    breaker_denials: AtomicU64,
    idle_timeouts: AtomicU64,
}

/// Wire command names, in per-command counter order.
pub const CMD_NAMES: [&str; 10] = [
    "load", "eval", "trace", "tracep", "expected", "seqload", "seqeval", "stats", "metrics",
    "shutdown",
];

fn cmd_index(cmd: &str) -> Option<usize> {
    CMD_NAMES.iter().position(|&c| c == cmd)
}

impl ServerStats {
    /// A zeroed accumulator.
    pub fn new() -> ServerStats {
        ServerStats {
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            per_cmd: std::array::from_fn(|_| AtomicU64::new(0)),
            latency_us: std::array::from_fn(|_| AtomicU64::new(0)),
            batch_fill: std::array::from_fn(|_| AtomicU64::new(0)),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            breaker_denials: AtomicU64::new(0),
            idle_timeouts: AtomicU64::new(0),
        }
    }

    /// Counts an accepted request line for `cmd`.
    pub fn record_accepted(&self, cmd: &str) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        if let Some(idx) = cmd_index(cmd) {
            self.per_cmd[idx].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts a completed request and files its latency.
    pub fn record_completed(&self, latency_us: u64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        let bucket = (64 - latency_us.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.latency_us[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request that ended in a typed error response.
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request shed by admission control.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a batch worker panic (the supervisor restarts the worker).
    pub fn record_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Total batch worker panics so far.
    pub fn worker_panics(&self) -> u64 {
        self.worker_panics.load(Ordering::Relaxed)
    }

    /// Counts a request denied by an open model circuit breaker.
    pub fn record_breaker_denial(&self) {
        self.breaker_denials.fetch_add(1, Ordering::Relaxed);
    }

    /// Total breaker denials so far.
    pub fn breaker_denials(&self) -> u64 {
        self.breaker_denials.load(Ordering::Relaxed)
    }

    /// Counts a connection closed for sitting idle past the server's
    /// idle timeout (the slow-loris guard).
    pub fn record_idle_timeout(&self) {
        self.idle_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Total idle-timeout closes so far.
    pub fn idle_timeouts(&self) -> u64 {
        self.idle_timeouts.load(Ordering::Relaxed)
    }

    /// Executed micro-batches so far (one per kernel group of a flush).
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Requests executed in micro-batches so far.
    pub fn batched_requests(&self) -> u64 {
        self.batched_requests.load(Ordering::Relaxed)
    }

    /// Files one executed micro-batch: how many requests it coalesced
    /// and the mean lane occupancy of its 64-lane groups (1..=64).
    pub fn record_batch(&self, requests: usize, mean_lane_fill: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(requests as u64, Ordering::Relaxed);
        let bucket = mean_lane_fill.clamp(1, FILL_BUCKETS) - 1;
        self.batch_fill[bucket].fetch_add(1, Ordering::Relaxed);
    }

    fn latency_percentile(&self, counts: &[u64; LATENCY_BUCKETS], pct: f64) -> u64 {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * pct).ceil() as u64;
        let mut seen = 0u64;
        for (bucket, &count) in counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                // Upper bound of the bucket: bucket b holds latencies in
                // (2^(b-1), 2^b] microseconds.
                return 1u64 << bucket;
            }
        }
        1u64 << (LATENCY_BUCKETS - 1)
    }

    /// Renders the full snapshot as the `stats` response payload.
    /// `net` is present when the reactor front end is live (its
    /// counters section is omitted under test harnesses that exercise
    /// the stats module without a reactor). `seq` is the sequential
    /// registry gauge pair `(designs, macros_resident)`.
    pub fn snapshot(
        &self,
        registry: &crate::registry::ShardedRegistry,
        breaker: &crate::supervisor::CircuitBreaker,
        net: Option<&charfree_net::NetCounters>,
        table: Option<&charfree_dd::SharedTable>,
        seq: Option<(u64, u64)>,
    ) -> Json {
        let latency: [u64; LATENCY_BUCKETS] =
            std::array::from_fn(|i| self.latency_us[i].load(Ordering::Relaxed));
        let per_cmd: Vec<(String, Json)> = CMD_NAMES
            .iter()
            .enumerate()
            .map(|(i, &name)| {
                (
                    name.to_owned(),
                    Json::num(self.per_cmd[i].load(Ordering::Relaxed)),
                )
            })
            .collect();
        let fill: Vec<Json> = (0..FILL_BUCKETS)
            .map(|i| Json::num(self.batch_fill[i].load(Ordering::Relaxed)))
            .collect();
        let (entries, bytes, hits, misses, evictions) = registry.stats();
        let net_section = net.map(|counters| {
            use std::sync::atomic::Ordering as O;
            let mut fields = vec![
                (
                    "connections".to_owned(),
                    Json::num(counters.accepted.load(O::Relaxed)),
                ),
                (
                    "bytes_in".to_owned(),
                    Json::num(counters.bytes_in.load(O::Relaxed)),
                ),
                (
                    "bytes_out".to_owned(),
                    Json::num(counters.bytes_out.load(O::Relaxed)),
                ),
            ];
            for reason in charfree_net::CloseReason::all() {
                fields.push((
                    format!("closed_{}", reason.name().replace('-', "_")),
                    Json::num(counters.closed(reason)),
                ));
            }
            Json::Obj(fields)
        });
        let mut obj = vec![
            (
                "accepted".to_owned(),
                Json::num(self.accepted.load(Ordering::Relaxed)),
            ),
            (
                "completed".to_owned(),
                Json::num(self.completed.load(Ordering::Relaxed)),
            ),
            (
                "errors".to_owned(),
                Json::num(self.errors.load(Ordering::Relaxed)),
            ),
            (
                "shed".to_owned(),
                Json::num(self.shed.load(Ordering::Relaxed)),
            ),
            ("per_command".to_owned(), Json::Obj(per_cmd)),
            (
                "latency_us".to_owned(),
                Json::Obj(vec![
                    (
                        "p50".to_owned(),
                        Json::num(self.latency_percentile(&latency, 0.50)),
                    ),
                    (
                        "p95".to_owned(),
                        Json::num(self.latency_percentile(&latency, 0.95)),
                    ),
                    (
                        "p99".to_owned(),
                        Json::num(self.latency_percentile(&latency, 0.99)),
                    ),
                ]),
            ),
            (
                "batches".to_owned(),
                Json::num(self.batches.load(Ordering::Relaxed)),
            ),
            (
                "batched_requests".to_owned(),
                Json::num(self.batched_requests.load(Ordering::Relaxed)),
            ),
            ("batch_fill".to_owned(), Json::Arr(fill)),
            (
                "registry".to_owned(),
                Json::Obj(vec![
                    ("entries".to_owned(), Json::num(entries)),
                    ("bytes".to_owned(), Json::num(bytes)),
                    ("hits".to_owned(), Json::num(hits)),
                    ("misses".to_owned(), Json::num(misses)),
                    ("evictions".to_owned(), Json::num(evictions)),
                    (
                        "shards".to_owned(),
                        Json::num(registry.shard_count() as u64),
                    ),
                ]),
            ),
            (
                "resilience".to_owned(),
                Json::Obj(vec![
                    (
                        "worker_panics".to_owned(),
                        Json::num(self.worker_panics.load(Ordering::Relaxed)),
                    ),
                    ("breaker_trips".to_owned(), Json::num(breaker.trips())),
                    (
                        "breaker_denials".to_owned(),
                        Json::num(self.breaker_denials.load(Ordering::Relaxed)),
                    ),
                    (
                        "open_circuits".to_owned(),
                        Json::num(breaker.open_circuits() as u64),
                    ),
                    (
                        "idle_timeouts".to_owned(),
                        Json::num(self.idle_timeouts.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
        ];
        if let Some((designs, macros_resident)) = seq {
            let counter =
                |cmd: &str| cmd_index(cmd).map_or(0, |i| self.per_cmd[i].load(Ordering::Relaxed));
            obj.push((
                "seq".to_owned(),
                Json::Obj(vec![
                    ("designs".to_owned(), Json::num(designs)),
                    ("macros_resident".to_owned(), Json::num(macros_resident)),
                    ("loads".to_owned(), Json::num(counter("seqload"))),
                    ("evals".to_owned(), Json::num(counter("seqeval"))),
                ]),
            ));
        }
        if let Some(table) = table {
            let c = table.counters();
            obj.push((
                "shared_table".to_owned(),
                Json::Obj(vec![
                    ("entries".to_owned(), Json::num(table.len() as u64)),
                    ("table_hits".to_owned(), Json::num(c.table_hits)),
                    ("table_misses".to_owned(), Json::num(c.table_misses)),
                    ("delta_rebuilds".to_owned(), Json::num(c.delta_rebuilds)),
                    (
                        "apply_steps_saved".to_owned(),
                        Json::num(c.apply_steps_saved),
                    ),
                ]),
            ));
        }
        if let Some(net) = net_section {
            obj.push(("net".to_owned(), net));
        }
        Json::Obj(obj)
    }
}

impl Default for ServerStats {
    fn default() -> ServerStats {
        ServerStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_report_bucket_upper_bounds() {
        let stats = ServerStats::new();
        // 90 fast requests (~1us) and 10 slow (~1000us -> bucket 10,
        // upper bound 1024us).
        for _ in 0..90 {
            stats.record_completed(1);
        }
        for _ in 0..10 {
            stats.record_completed(1000);
        }
        let latency: [u64; LATENCY_BUCKETS] =
            std::array::from_fn(|i| stats.latency_us[i].load(Ordering::Relaxed));
        assert_eq!(stats.latency_percentile(&latency, 0.50), 2);
        assert_eq!(stats.latency_percentile(&latency, 0.95), 1024);
        assert_eq!(stats.latency_percentile(&latency, 0.99), 1024);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let stats = ServerStats::new();
        let latency: [u64; LATENCY_BUCKETS] = [0; LATENCY_BUCKETS];
        assert_eq!(stats.latency_percentile(&latency, 0.99), 0);
    }

    #[test]
    fn batch_fill_lands_in_linear_lane_buckets() {
        let stats = ServerStats::new();
        stats.record_batch(3, 64);
        stats.record_batch(1, 1);
        stats.record_batch(2, 200); // clamped into the last bucket
        assert_eq!(stats.batch_fill[63].load(Ordering::Relaxed), 2);
        assert_eq!(stats.batch_fill[0].load(Ordering::Relaxed), 1);
        assert_eq!(stats.batches.load(Ordering::Relaxed), 3);
        assert_eq!(stats.batched_requests.load(Ordering::Relaxed), 6);
    }
}
