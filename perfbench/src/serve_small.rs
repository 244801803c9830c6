//! `serve-small`: served `eval` of `decod`, 256 Markov vectors per
//! request, against an in-process server on loopback with the model warm.
//!
//! The load generator holds two connections (one per core of the
//! reference host), one JSON and one binary, each in a closed loop with
//! [`DEPTH`] requests pipelined: throughput and per-request latency. The
//! ledger adds an open loop at [`OPEN_RATE`] timed from each request's
//! due time. Every served summary is checked bit for bit against the
//! offline `TraceEngine` result for the same seed.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use charfree_engine::{Kernel, PatternBlock, TraceEngine, TraceSummary, DEFAULT_CHUNK};
use charfree_netlist::Library;
use charfree_pipeline::{PipelineCtx, Source};
use charfree_serve::{
    wire, BatchHandle, ChannelReply, Client, Dispatcher, Job, Proto, Request, Response,
    ServeConfig, Server, ServerStats, ShardedRegistry, WireBuildOptions, WireEvalParams,
};
use charfree_sim::MarkovSource;

use crate::{default_jobs, iqm, mean, metric, mix, percentile, secs, SetupTimer};
use crate::{statistics, Args, Outcome};

const MODEL: &str = "decod";
const VECTORS: usize = 256;
/// Distinct seeded requests; the stream cycles through them, so the
/// offline reference is computed once per pool entry.
const POOL: usize = 2048;
/// Requests each connection keeps outstanding in the closed loop: one in
/// service and one queued behind it, so the next request is already in
/// the server's buffer when an answer leaves. With one outstanding, every
/// request waited on the generator's wake-up, and on the 2-vCPU host this
/// benchmark was tuned on, idle virtual CPUs wake slowly and unevenly:
/// throughput swung between 2.7k and 8k req/s from run to run and p90
/// between 285 and 830 us. At two outstanding the server's CPUs stay
/// busy: runs read 7.7k-9.5k req/s, and four or eight outstanding gave
/// no more.
const DEPTH: usize = 2;
/// Open-loop arrival rate over both connections, in requests per second.
/// The closed-loop capacity measured at the commit that introduced this
/// benchmark swung between 3.5k and 9k req/s on its 2-vCPU x86-64 host;
/// 1000 req/s stays well below the low end, so the open loop measures
/// latency without a growing backlog.
const OPEN_RATE: f64 = 1000.0;
/// Closed-loop throughput is the interquartile mean of per-window rates,
/// which keeps a short stall of the host from swinging the whole run.
const WINDOW_S: f64 = 0.25;
/// Latency samples one connection can record per second of loop; the
/// buffer is allocated and touched up front so that peak memory does not
/// follow throughput.
const SAMPLES_PER_S: f64 = 25_000.0;
/// Requests the ledger replays through the layer calls.
const LEDGER_REQUESTS: usize = 4000;

/// One pool entry: the seeded per-request parameters.
#[derive(Clone, Copy)]
struct Params {
    seed: u64,
    sp: f64,
    st: f64,
}

fn pool(seed: u64) -> Vec<Params> {
    (0..POOL as u64)
        .map(|k| {
            let (sp, st) = statistics(mix(seed, 2 * k + 1));
            Params {
                seed: mix(seed, 2 * k),
                sp,
                st,
            }
        })
        .collect()
}

fn eval_request(p: Params) -> Request {
    Request::Eval {
        source: MODEL.to_owned(),
        options: WireBuildOptions::default(),
        params: WireEvalParams {
            vectors: VECTORS,
            sp: p.sp,
            st: p.st,
            seed: p.seed,
            deadline_ms: None,
        },
    }
}

/// `(transitions, sum bits, max bits)`: a summary as compared.
type Bits = (u64, u64, u64);

fn bits(s: &TraceSummary) -> Bits {
    (s.transitions as u64, s.sum_ff.to_bits(), s.max_ff.to_bits())
}

/// What one loop of the load generator measured. Answers are checked as
/// they arrive against the offline reference.
#[derive(Default)]
struct Load {
    /// Answers per [`WINDOW_S`] window (closed loop).
    window_counts: Vec<f64>,
    /// Latency in microseconds, from send (closed loop) or from due time
    /// (open loop). A failed request reads as infinitely late.
    latency: Vec<f64>,
    /// How late the generator sent each request (open loop), in
    /// microseconds.
    late_us: Vec<f64>,
    /// Sum and count of closed-loop service times, in microseconds: each
    /// answer timed from the later of its send and the previous answer on
    /// its connection, so without its wait behind that answer.
    service_us: (f64, u64),
    checked: u64,
    failed: u64,
}

impl Load {
    fn with_capacity(seconds: f64) -> Load {
        let cap = (seconds * SAMPLES_PER_S) as usize;
        let mut latency = Vec::with_capacity(cap);
        latency.resize(cap, 0.0);
        latency.clear();
        Load {
            window_counts: vec![0.0; ((seconds / WINDOW_S) as usize).max(2)],
            latency,
            ..Load::default()
        }
    }

    fn absorb(&mut self, other: Load) {
        if self.window_counts.len() < other.window_counts.len() {
            self.window_counts.resize(other.window_counts.len(), 0.0);
        }
        for (a, b) in self.window_counts.iter_mut().zip(other.window_counts) {
            *a += b;
        }
        self.latency.extend(other.latency);
        self.late_us.extend(other.late_us);
        self.service_us.0 += other.service_us.0;
        self.service_us.1 += other.service_us.1;
        self.checked += other.checked;
        self.failed += other.failed;
    }

    /// Checks one answer and records its latency.
    fn record(&mut self, ok: bool, at_s: f64, latency_us: f64) {
        self.checked += 1;
        if !ok {
            self.failed += 1;
        }
        if self.latency.len() < self.latency.capacity() {
            let latency = if ok { latency_us } else { f64::INFINITY };
            self.latency.push(latency);
        }
        if ok {
            if let Some(n) = self.window_counts.get_mut((at_s / WINDOW_S) as usize) {
                *n += 1.0;
            }
        }
    }

    /// Answers per second: the interquartile mean over whole windows (the
    /// first window, while the loop spins up, is left out).
    fn throughput(&self) -> f64 {
        let mut rates: Vec<f64> = self.window_counts[1..]
            .iter()
            .map(|c| c / WINDOW_S)
            .collect();
        iqm(&mut rates)
    }
}

/// One generator connection. `Client` waits for each answer before the
/// next request; this speaks the same framing but splits send from
/// receive, so requests can be pipelined (the server answers them in
/// order).
struct Conn {
    proto: Proto,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: &str, proto: Proto) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        let mut conn = Conn {
            proto,
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        };
        if proto == Proto::Binary {
            conn.writer
                .write_all(&wire::encode_hello(wire::VERSION, wire::VERSION))?;
            let mut ack = [0u8; 6];
            conn.reader.read_exact(&mut ack)?;
            if wire::parse_hello_ack(&ack) != Ok(wire::VERSION) {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "hello refused"));
            }
        }
        Ok(conn)
    }

    fn send(&mut self, request: &Request) -> io::Result<()> {
        let mut out = Vec::new();
        match self.proto {
            Proto::Json => {
                out.extend_from_slice(request.to_line().as_bytes());
                out.push(b'\n');
            }
            Proto::Binary => wire::encode_request(request, &mut out),
        }
        self.writer.write_all(&out)
    }

    /// The answer to the oldest request not yet answered.
    fn recv(&mut self) -> io::Result<Response> {
        let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
        match self.proto {
            Proto::Json => {
                let mut line = String::new();
                if self.reader.read_line(&mut line)? == 0 {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                Response::parse_line(line.trim_end()).map_err(invalid)
            }
            Proto::Binary => {
                let mut prefix = [0u8; 4];
                self.reader.read_exact(&mut prefix)?;
                let len = u32::from_le_bytes(prefix) as usize;
                if len == 0 || len > wire::MAX_FRAME_BYTES {
                    return Err(invalid(format!("response frame length {len}")));
                }
                let mut body = vec![0u8; len];
                self.reader.read_exact(&mut body)?;
                wire::decode_response(body[0], &body[1..]).map_err(invalid)
            }
        }
    }

    fn request(&mut self, request: &Request) -> io::Result<Response> {
        self.send(request)?;
        self.recv()
    }
}

/// A running server with the model warm and the generator's connections.
struct Rig {
    server: Server,
    addr: String,
    conns: Vec<Conn>,
}

/// Set-up as a user pays it: start the server with the `charfree serve`
/// defaults (`--quiet`), connect, and load the model.
fn start_rig() -> Rig {
    let mut config = ServeConfig::new(Library::test_library());
    config.addr = "127.0.0.1:0".to_owned();
    config.jobs = default_jobs();
    config.log = false;
    let server = Server::start(config).expect("server binds a loopback port");
    let addr = server.addr().to_string();
    let mut conns = vec![
        Conn::connect(&addr, Proto::Json).expect("JSON connection opens"),
        Conn::connect(&addr, Proto::Binary).expect("binary connection opens"),
    ];
    let load = Request::Load {
        source: MODEL.to_owned(),
        options: WireBuildOptions::default(),
    };
    match conns[0].request(&load).expect("load answers") {
        Response::Load { .. } => {}
        other => panic!("warm load failed: {other:?}"),
    }
    Rig {
        server,
        addr,
        conns,
    }
}

fn stop_rig(rig: Rig) -> charfree_serve::json::Json {
    let mut control = Client::connect(&rig.addr).expect("control client connects");
    let stats = match control.request(&Request::Stats).expect("stats answers") {
        Response::Stats(payload) => payload,
        other => panic!("stats failed: {other:?}"),
    };
    drop(rig.conns);
    control
        .request(&Request::Shutdown)
        .expect("shutdown answers");
    rig.server.wait();
    stats
}

/// Sleeps until `due`, spinning for the last stretch so the send is not
/// late by the kernel's timer slack.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Checks the answer to pool entry `p` against the offline reference.
/// With `corrupt` set, the answer is damaged first (the gate's
/// self-test).
fn check(answer: io::Result<Response>, expected: &[Bits], p: usize, corrupt: &mut bool) -> bool {
    let got = match answer {
        Ok(Response::Eval {
            transitions,
            sum_ff,
            max_ff,
            ..
        }) => Some((transitions as u64, sum_ff.to_bits(), max_ff.to_bits())),
        _ => None,
    };
    let got = match (std::mem::take(corrupt), got) {
        (true, Some((t, s, m))) => Some((t, s ^ 1, m)),
        (_, got) => got,
    };
    got == Some(expected[p])
}

/// Runs `body(connection index, connection, load)` on one thread per
/// connection and merges what they measured.
fn per_connection(
    conns: &mut [Conn],
    seconds: f64,
    body: impl Fn(usize, &mut Conn, &mut Load) + Sync,
) -> Load {
    std::thread::scope(|scope| {
        let body = &body;
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    let mut load = Load::with_capacity(seconds);
                    body(c, conn, &mut load);
                    load
                })
            })
            .collect();
        let mut total = Load::default();
        for h in handles {
            total.absorb(h.join().expect("load generator thread"));
        }
        total
    })
}

/// Closed loop for `seconds`: each connection keeps [`DEPTH`] requests
/// outstanding and sends the next as soon as an answer arrives; each
/// request is timed from its send. A failed send ends the connection's
/// loop as a failed request. With `inject_fault`, the first answer is
/// corrupted before its check.
fn closed_loop(
    conns: &mut [Conn],
    pool: &[Params],
    expected: &[Bits],
    seconds: f64,
    inject_fault: bool,
) -> Load {
    let n = conns.len();
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(seconds);
    per_connection(conns, seconds, |c, conn, load| {
        let mut corrupt = inject_fault && c == 0;
        let mut next = c;
        let mut broken = false;
        let mut outstanding = VecDeque::with_capacity(DEPTH);
        let mut answered = t0;
        loop {
            while !broken && outstanding.len() < DEPTH && Instant::now() < end {
                let sent = Instant::now();
                if conn.send(&eval_request(pool[next % POOL])).is_ok() {
                    outstanding.push_back((sent, next % POOL));
                } else {
                    load.record(false, secs(t0), f64::INFINITY);
                    broken = true;
                }
                next += n;
            }
            let Some((sent, p)) = outstanding.pop_front() else {
                return;
            };
            let answer = conn.recv();
            let at = Instant::now();
            let ok = check(answer, expected, p, &mut corrupt);
            load.record(ok, secs(t0), (at - sent).as_secs_f64() * 1e6);
            load.service_us.0 += (at - sent.max(answered)).as_secs_f64() * 1e6;
            load.service_us.1 += 1;
            answered = at;
        }
    })
}

/// Open loop for `seconds` at [`OPEN_RATE`]: requests are due on a fixed
/// schedule, connections staggered by a fraction of the period, and each
/// is timed from its due time.
fn open_loop(conns: &mut [Conn], pool: &[Params], expected: &[Bits], seconds: f64) -> Load {
    let n = conns.len();
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(seconds);
    let period = Duration::from_secs_f64(n as f64 / OPEN_RATE);
    per_connection(conns, seconds, |c, conn, load| {
        let mut due = t0 + period.mul_f64(c as f64 / n as f64);
        let mut i = c;
        while due < end {
            wait_until(due);
            load.late_us.push(due.elapsed().as_secs_f64() * 1e6);
            let p = i % POOL;
            let ok = check(
                conn.request(&eval_request(pool[p])),
                expected,
                p,
                &mut false,
            );
            load.record(ok, secs(t0), due.elapsed().as_secs_f64() * 1e6);
            i += n;
            due += period;
        }
    })
}

/// The offline reference: what `charfree eval decod` computes.
fn offline_kernel() -> Kernel {
    PipelineCtx::new(Library::test_library())
        .kernel_for(&Source::Bench(MODEL.to_owned()))
        .expect("decod builds")
}

fn patterns(kernel: &Kernel, p: Params) -> Vec<Vec<bool>> {
    MarkovSource::new(kernel.num_inputs(), p.sp, p.st, p.seed)
        .expect("pool statistics are feasible")
        .sequence(VECTORS)
}

/// The offline summary of every pool entry: the correctness gate's
/// reference for served answers.
fn expected(kernel: &Kernel, pool: &[Params]) -> Vec<Bits> {
    let engine = TraceEngine::new(kernel);
    pool.iter()
        .map(|&p| bits(&engine.evaluate(&patterns(kernel, p))))
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    let pool = pool(args.seed);
    let expected = expected(&offline_kernel(), &pool);
    let mut setup = SetupTimer::default();
    setup.repeat(start_rig, |rig| {
        stop_rig(rig);
    });
    let mut rig = setup.once(start_rig);
    let mut load = closed_loop(
        &mut rig.conns,
        &pool,
        &expected,
        args.seconds,
        args.inject_fault,
    );
    stop_rig(rig);
    setup.repeat(start_rig, |rig| {
        stop_rig(rig);
    });

    Outcome {
        attempted: load.checked,
        failed: load.failed,
        metrics: vec![
            metric("throughput", load.throughput(), "1/s"),
            metric("op_p50_us", percentile(&mut load.latency, 0.50), "us"),
            metric("op_p90_us", percentile(&mut load.latency, 0.90), "us"),
            metric("setup_s", setup.median(), "s"),
        ],
    }
}

/// Per-request means of each layer call, in microseconds.
#[derive(Default)]
struct Rows {
    decode: Vec<f64>,
    resolve: Vec<f64>,
    markov: Vec<f64>,
    pack: Vec<f64>,
    kernel: Vec<f64>,
    summarize: Vec<f64>,
    dispatch: Vec<f64>,
    encode: Vec<f64>,
}

fn us(t0: Instant) -> f64 {
    secs(t0) * 1e6
}

/// Replays one request through the public call of each layer it crosses
/// on the server, timing each from outside. Returns the summary the
/// dispatcher produced; a decode failure, registry miss or refused job
/// returns `None`, which the gate counts as failed.
fn replay(
    i: usize,
    p: Params,
    registry: &ShardedRegistry,
    batch: &BatchHandle,
    rows: &mut Rows,
) -> Option<Bits> {
    let request = eval_request(p);
    // Alternating protocols, like the generator's two connections.
    let json = i.is_multiple_of(2);
    let decoded = if json {
        let line = request.to_line();
        let t = Instant::now();
        let r = Request::parse_line(&line);
        rows.decode.push(us(t));
        r
    } else {
        let mut frame = Vec::new();
        wire::encode_request(&request, &mut frame);
        let t = Instant::now();
        let r = wire::decode_request(frame[4], &frame[5..]);
        rows.decode.push(us(t));
        r
    };
    let Ok(Request::Eval { params, .. }) = decoded else {
        return None;
    };

    let key = registry_key();
    let t = Instant::now();
    let resolved = registry.get(&key);
    rows.resolve.push(us(t));
    let kernel = resolved?;

    let t = Instant::now();
    let pats = MarkovSource::new(kernel.num_inputs(), params.sp, params.st, params.seed)
        .expect("pool statistics are feasible")
        .sequence(params.vectors.max(2));
    rows.markov.push(us(t));

    let t = Instant::now();
    let block = PatternBlock::from_patterns(&kernel, &pats);
    let pack = us(t);
    let mut values = vec![0.0f64; block.len()];
    let t = Instant::now();
    kernel.eval_batch_into(&block, &mut values);
    let eval = us(t);
    let t = Instant::now();
    let summary = TraceSummary::from_values(&values, DEFAULT_CHUNK);
    let summarize = us(t);
    std::hint::black_box(summary);

    // The dispatcher runs pack, kernel and summarize itself; its row is
    // the submit-to-reply round trip less those three.
    let (tx, rx) = sync_channel(1);
    let job = Job {
        kernel: Arc::clone(&kernel),
        patterns: pats,
        want_values: false,
        deadline: None,
        reply: Box::new(ChannelReply(tx)),
        fault: None,
    };
    let t = Instant::now();
    let served = match batch.try_submit(job) {
        Ok(()) => rx.recv().ok().and_then(Result::ok),
        Err(_) => None,
    };
    let round_trip = us(t);
    rows.pack.push(pack);
    rows.kernel.push(eval);
    rows.summarize.push(summarize);
    rows.dispatch.push(round_trip - pack - eval - summarize);
    let served = served?;

    let response = Response::Eval {
        name: kernel.name().to_owned(),
        transitions: served.summary.transitions,
        sum_ff: served.summary.sum_ff,
        max_ff: served.summary.max_ff,
    };
    let t = Instant::now();
    if json {
        std::hint::black_box(response.to_line());
    } else {
        let mut out = Vec::new();
        wire::encode_response(&response, &mut out);
        std::hint::black_box(out);
    }
    rows.encode.push(us(t));
    Some(bits(&served.summary))
}

/// The server's registry key for a default-option model: a copy of the
/// format of `charfree-serve`'s private `registry_key`, which the server
/// does not expose. The ledger fills its own registry under this key, so
/// a drift in the format changes only which shard `get` hashes to.
fn registry_key() -> String {
    format!("{MODEL}\0max_nodes=None\0upper_bound=false\0node_budget=None\0strict=false")
}

pub fn ledger(args: &Args) -> Outcome {
    let pool = pool(args.seed);
    let kernel = Arc::new(offline_kernel());
    let expected = expected(&kernel, &pool);
    let mut outcome = Outcome::default();

    // Untraced: the closed loop, then the open loop, shorter.
    let phase = (args.seconds / 4.0).max(0.5);
    let mut rig = start_rig();
    let closed = closed_loop(&mut rig.conns, &pool, &expected, phase, args.inject_fault);
    let mut open = open_loop(&mut rig.conns, &pool, &expected, phase);
    let stats = stop_rig(rig);
    outcome.attempted += closed.checked + open.checked;
    outcome.failed += closed.failed + open.failed;
    let untraced_us = closed.service_us.0 / closed.service_us.1 as f64;
    let late_p99 = percentile(&mut open.late_us, 0.99);
    let open_p50 = percentile(&mut open.latency, 0.50);
    let open_p99 = percentile(&mut open.latency, 0.99);

    let stat = |key: &str| stats.get(key).and_then(|v| v.as_u64()).unwrap_or(0) as f64;
    let batches = stat("batches");
    // Mean lanes filled per batch (bucket i holds batches of i + 1 lanes).
    let batch_fill = stats
        .get("batch_fill")
        .and_then(|v| v.as_arr())
        .map(|buckets| {
            let (mut lanes, mut total) = (0.0, 0.0);
            for (i, c) in buckets.iter().enumerate() {
                let c = c.as_u64().unwrap_or(0) as f64;
                lanes += (i + 1) as f64 * c;
                total += c;
            }
            lanes / total
        })
        .unwrap_or(f64::NAN);

    // Traced replay through the layer calls, with the server's own
    // dispatcher settings.
    let registry = ShardedRegistry::new(8, 64 << 20);
    registry.insert(&registry_key(), Arc::clone(&kernel));
    let config = ServeConfig::new(Library::test_library());
    let dispatcher = Dispatcher::start(
        default_jobs(),
        config.batch_window,
        config.max_inflight,
        Arc::new(ServerStats::new()),
    );
    let handle = dispatcher.handle();
    let mut rows = Rows::default();
    for i in 0..LEDGER_REQUESTS {
        let p = pool[i % POOL];
        let mut got = replay(i, p, &registry, &handle, &mut rows);
        if args.inject_fault && i == 0 {
            got = got.map(|(t, s, m)| (t, s ^ 1, m));
        }
        outcome.check(got == Some(expected[i % POOL]));
    }
    drop(handle);
    dispatcher.shutdown();

    let layers = [
        ("serve.decode_us", mean(&rows.decode)),
        ("serve.resolve_us", mean(&rows.resolve)),
        ("sim.markov_us", mean(&rows.markov)),
        ("engine.pack_us", mean(&rows.pack)),
        ("engine.kernel_us", mean(&rows.kernel)),
        ("engine.summarize_us", mean(&rows.summarize)),
        ("serve.dispatch_us", mean(&rows.dispatch)),
        ("serve.encode_us", mean(&rows.encode)),
    ];
    let accounted: f64 = layers.iter().map(|(_, v)| v).sum();
    outcome.metrics = layers
        .into_iter()
        .map(|(name, value)| metric(name, value, "us"))
        .collect();
    outcome.metrics.extend([
        metric("net.residual_us", untraced_us - accounted, "us"),
        metric("serve.untraced_us", untraced_us, "us"),
        metric("serve.batches", batches, "count"),
        metric("serve.batch_fill", batch_fill, "lanes"),
        metric("serve.shed", stat("shed"), "count"),
        metric("serve.open_p50_us", open_p50, "us"),
        metric("serve.open_p99_us", open_p99, "us"),
        metric("loadgen.late_p99_us", late_p99, "us"),
    ]);
    outcome
}
