//! Regenerates `BENCH_serve.json`: request throughput and latency of the
//! `charfree-serve` micro-batching server under a closed-loop multi-
//! client load.
//!
//! ```text
//! cargo run --release -p charfree-bench --bin serve_throughput
//!     [--threads N]       closed-loop client threads (default 4)
//!     [--jobs N]          server evaluation workers (default 1)
//!     [--duration-secs S] measured window (default 5)
//!     [--vectors N]       Markov vectors per request (default 256)
//!     [--batch-window D]  coalescing window in microseconds (default: the
//!                         `ServeConfig` default, 0 = coalesce only backlog)
//!     [--proto P]         wire protocol: json | binary (default json)
//!     [--reactor-threads N] reactor shards in the server (default 2)
//!     [--quick]           2 threads x 1 second (CI smoke run)
//!     [-o PATH]           output path (default BENCH_serve.json)
//! ```
//!
//! The output file is a JSON *array*: each run appends one entry, so the
//! file records a trajectory (threaded vs reactor front end, JSON vs
//! binary protocol) rather than a single number.
//!
//! The server runs in-process on a loopback port; clients are real TCP
//! connections, so the measured path includes the wire protocol, the
//! admission window and the dispatcher. Latency percentiles are measured
//! client-side per request; the mean batch fill comes from the server's
//! own `stats` histogram, which is how the run shows whether
//! cross-connection coalescing engaged.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use charfree_netlist::Library;
use charfree_serve::{
    Client, Proto, Request, Response, ServeConfig, Server, WireBuildOptions, WireEvalParams,
};

fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * pct).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn main() {
    let mut threads = 4usize;
    let mut jobs = 1usize;
    let mut duration_secs = 5u64;
    let mut vectors = 256usize;
    let mut window_us: Option<u64> = None;
    let mut proto = Proto::Json;
    let mut reactor_threads = 2usize;
    let mut out = String::from("BENCH_serve.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads takes a number")
            }
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--jobs takes a number")
            }
            "--duration-secs" => {
                duration_secs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--duration-secs takes a number")
            }
            "--vectors" => {
                vectors = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--vectors takes a number")
            }
            "--batch-window" => {
                window_us = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--batch-window takes microseconds"),
                )
            }
            "--proto" => {
                proto = args
                    .next()
                    .as_deref()
                    .map(Proto::parse)
                    .expect("--proto takes a value")
                    .expect("--proto takes json or binary")
            }
            "--reactor-threads" => {
                reactor_threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reactor-threads takes a number")
            }
            "--quick" => {
                threads = 2;
                duration_secs = 1;
            }
            "-o" => out = args.next().expect("-o takes a path"),
            other => panic!("unknown argument `{other}`"),
        }
    }
    assert!(jobs >= 1, "--jobs must be at least 1");
    assert!(threads >= 1, "--threads must be at least 1");
    assert!(reactor_threads >= 1, "--reactor-threads must be at least 1");

    let mut config = ServeConfig::new(Library::test_library());
    config.addr = "127.0.0.1:0".to_owned();
    config.jobs = jobs;
    if let Some(us) = window_us {
        config.batch_window = Duration::from_micros(us);
    }
    let window_us = config.batch_window.as_micros();
    config.max_inflight = threads.max(64);
    config.reactor_threads = reactor_threads;
    config.log = false;
    let server = Server::start(config).expect("server binds");
    let addr = server.addr().to_string();

    // Warm the model so the measured window is steady-state serving, not
    // one cold symbolic construction.
    let mut warm = Client::connect(&addr).expect("connects");
    match warm
        .request(&Request::Load {
            source: "decod".to_owned(),
            options: WireBuildOptions::default(),
        })
        .expect("load responds")
    {
        Response::Load { .. } => {}
        other => panic!("warm load failed: {other:?}"),
    }

    eprintln!(
        "[run ] {threads} client thread(s), {jobs} server worker(s), \
         {reactor_threads} reactor shard(s), {} protocol, \
         window {window_us}us, {vectors} vectors/request, {duration_secs}s",
        proto.name()
    );
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::connect_with(&addr, proto).expect("connects");
                let mut latencies_us: Vec<u64> = Vec::new();
                let mut ok = 0u64;
                let mut shed = 0u64;
                let mut seed = t as u64 * 1_000_003 + 1;
                while !stop.load(Ordering::Relaxed) {
                    seed += 1;
                    let request = Request::Eval {
                        source: "decod".to_owned(),
                        options: WireBuildOptions::default(),
                        params: WireEvalParams {
                            vectors,
                            sp: 0.5,
                            st: 0.4,
                            seed,
                            deadline_ms: None,
                        },
                    };
                    let sent = Instant::now();
                    match client.request(&request).expect("server responds") {
                        Response::Eval { .. } => {
                            latencies_us.push(sent.elapsed().as_micros() as u64);
                            ok += 1;
                        }
                        Response::Error { retry_after_ms, .. } => {
                            shed += 1;
                            std::thread::sleep(Duration::from_millis(retry_after_ms.unwrap_or(1)));
                        }
                        other => panic!("unexpected response {other:?}"),
                    }
                }
                (latencies_us, ok, shed)
            })
        })
        .collect();
    std::thread::sleep(Duration::from_secs(duration_secs));
    stop.store(true, Ordering::Relaxed);

    let mut latencies: Vec<u64> = Vec::new();
    let mut ok = 0u64;
    let mut shed = 0u64;
    for worker in workers {
        let (lat, o, s) = worker.join().expect("client thread");
        latencies.extend(lat);
        ok += o;
        shed += s;
    }
    let elapsed = started.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let rps = ok as f64 / elapsed;

    // The server's own view: batches executed and the lane-fill
    // histogram (64 linear buckets, bucket i = i+1 lanes occupied).
    let mut control = Client::connect(&addr).expect("connects");
    let stats = match control.request(&Request::Stats).expect("stats responds") {
        Response::Stats(payload) => payload,
        other => panic!("stats failed: {other:?}"),
    };
    let batches = stats.get("batches").and_then(|v| v.as_u64()).unwrap_or(0);
    let batched = stats
        .get("batched_requests")
        .and_then(|v| v.as_u64())
        .unwrap_or(0);
    let mean_fill = stats
        .get("batch_fill")
        .and_then(|v| v.as_arr())
        .map(|buckets| {
            let (mut weighted, mut total) = (0u64, 0u64);
            for (i, c) in buckets.iter().enumerate() {
                let c = c.as_u64().unwrap_or(0);
                weighted += (i as u64 + 1) * c;
                total += c;
            }
            if total == 0 {
                0.0
            } else {
                weighted as f64 / total as f64
            }
        })
        .unwrap_or(0.0);
    control.request(&Request::Shutdown).expect("shutdown");
    server.wait();

    eprintln!(
        "       {rps:.0} req/s, p50 {p50}us, p99 {p99}us, \
         {batched} requests in {batches} batches (mean fill {mean_fill:.1} lanes)"
    );

    let entry = format!(
        "  {{\n    \"benchmark\": \"serve_throughput\",\n    \"circuit\": \"decod\",\n    \
         \"frontend\": \"reactor\",\n    \"proto\": \"{proto_name}\",\n    \
         \"reactor_threads\": {reactor_threads},\n    \
         \"client_threads\": {threads},\n    \"server_jobs\": {jobs},\n    \
         \"batch_window_us\": {window_us},\n    \"vectors_per_request\": {vectors},\n    \
         \"duration_secs\": {elapsed:.2},\n    \"requests_ok\": {ok},\n    \
         \"requests_shed\": {shed},\n    \"requests_per_sec\": {rps:.1},\n    \
         \"latency_us_p50\": {p50},\n    \"latency_us_p99\": {p99},\n    \
         \"batches\": {batches},\n    \"batched_requests\": {batched},\n    \
         \"mean_batch_fill_lanes\": {mean_fill:.2}\n  }}",
        proto_name = proto.name()
    );
    // The file is a trajectory: append this run to the existing array
    // (older single-object files from the thread-per-connection era are
    // wrapped into a one-element array first).
    let merged = match std::fs::read_to_string(&out) {
        Ok(prev) => {
            let prev = prev.trim();
            if let Some(body) = prev.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                let body = body.trim().trim_end_matches(',');
                if body.is_empty() {
                    format!("[\n{entry}\n]\n")
                } else {
                    format!("[\n  {body},\n{entry}\n]\n")
                }
            } else if prev.starts_with('{') {
                format!("[\n  {prev},\n{entry}\n]\n")
            } else {
                format!("[\n{entry}\n]\n")
            }
        }
        Err(_) => format!("[\n{entry}\n]\n"),
    };
    std::fs::write(&out, merged).expect("write BENCH_serve.json");
    println!("appended to {out}");
}
