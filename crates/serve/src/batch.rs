//! Cross-connection micro-batching.
//!
//! Evaluation requests from *different* connections are coalesced into
//! shared 64-lane [`PatternBlock`]s before hitting the kernel. There is
//! no coordinator thread: the `--jobs` workers take jobs straight from
//! the bounded submit queue. After its blocking receive, a worker
//! drains whatever else is already queued (up to `MAX_BATCH_JOBS`),
//! groups the jobs by kernel identity, packs each group's transitions
//! into its own block, evaluates **all groups in a single fused
//! multi-kernel pass** ([`eval_fused`], interleaving the kernels' walks
//! for memory-level parallelism), and scatters the per-transition
//! values back to each requester.
//!
//! With a zero `batch_window` (the default) nothing waits on a timer:
//! jobs coalesce only from real queue backlog, so an idle server answers
//! at once and a loaded one fills lanes from the work that piled up
//! while the workers were busy. A non-zero window keeps a capped wait
//! after the first job, closed early once the queue stays empty for a
//! short grace period.
//!
//! # The bit-identical-batching invariant
//!
//! Coalescing must be *unobservable* in results. Two properties make
//! that hold:
//!
//! 1. [`eval_fused`] computes each lane's value from that lane's bits
//!    and its own kernel's program alone — a transition's value does
//!    not depend on which lanes surround it or which other kernels
//!    share the fused pass, so packing requests together (in any
//!    order, at any offset, next to any other kernel's jobs) yields
//!    the same per-transition values as evaluating each request alone
//!    (f64 bit-exactly; the kernel-equivalence suites enforce it).
//! 2. The per-request summary is reduced with
//!    [`TraceSummary::from_values`] over [`DEFAULT_CHUNK`]-sized runs —
//!    the exact association [`TraceEngine`](charfree_engine::TraceEngine)
//!    uses offline — so floating-point summation order matches the
//!    single-request path bit for bit.
//!
//! Shedding happens at submit time: the job queue is a bounded
//! `sync_channel` and [`BatchHandle::try_submit`] hands the job back on
//! a full queue instead of blocking the connection thread.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use charfree_engine::{eval_fused, FusedJob, Kernel, PatternBlock, TraceSummary, DEFAULT_CHUNK};

use crate::stats::ServerStats;

/// Cap on how many jobs one flush may coalesce, bounding the memory a
/// single micro-batch can pin.
const MAX_BATCH_JOBS: usize = 256;

/// First restart delay after a worker panic.
const RESTART_BACKOFF_BASE: Duration = Duration::from_millis(5);

/// Ceiling for the exponentially growing restart delay.
const RESTART_BACKOFF_CAP: Duration = Duration::from_millis(250);

/// An injected failure a job carries for supervision tests and the
/// conform `chaos` campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobFault {
    /// The executing worker panics before evaluating the batch.
    PanicInWorker,
}

/// Where a job's result goes.
///
/// The blocking front end waits on a channel ([`ChannelReply`]); the
/// reactor front end completes asynchronously (format the response,
/// post it to the connection's shard, wake the reactor) without any
/// thread parked per in-flight request.
///
/// **Drop contract:** a sink dropped without [`complete`](ReplySink::complete)
/// being called means the executing worker panicked and unwound past the
/// job. Implementations must convert that drop into a typed, retriable
/// error for the waiting client — `ChannelReply` does it by
/// disconnecting its channel; an async sink must do it in `Drop`.
pub trait ReplySink: Send {
    /// Consumes the sink with the job's outcome. Called at most once.
    fn complete(self: Box<Self>, result: Result<JobOutput, JobError>);
}

/// The channel-backed [`ReplySink`] used by blocking callers: completion
/// sends on the capacity-1 channel; an abandoning drop disconnects it.
pub struct ChannelReply(pub SyncSender<Result<JobOutput, JobError>>);

impl ReplySink for ChannelReply {
    fn complete(self: Box<Self>, result: Result<JobOutput, JobError>) {
        let _ = self.0.send(result);
    }
}

/// One evaluation request, ready to batch.
pub struct Job {
    /// Kernel to evaluate on (an `Arc` clone pins it across evictions).
    pub kernel: Arc<Kernel>,
    /// The pattern window; `len - 1` transitions are evaluated.
    pub patterns: Vec<Vec<bool>>,
    /// `true` for `trace` (per-transition values shipped back), `false`
    /// for `eval` (summary only).
    pub want_values: bool,
    /// Absolute deadline; expired jobs are shed at execution time.
    pub deadline: Option<Instant>,
    /// Where the result goes (see the [`ReplySink`] drop contract).
    pub reply: Box<dyn ReplySink>,
    /// Injected fault for supervision testing; `None` in production.
    pub fault: Option<JobFault>,
}

/// A completed job.
#[derive(Debug)]
pub struct JobOutput {
    /// Chunk-reduced summary, bit-identical to the offline path.
    pub summary: TraceSummary,
    /// Per-transition values when the job asked for them.
    pub values: Option<Vec<f64>>,
}

/// Why a job was not evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobError {
    /// The deadline expired before a worker reached the job.
    DeadlineExceeded,
    /// The submit queue was full; the job was shed without evaluating.
    /// (Produced by callers that get the job handed back from
    /// [`BatchHandle::try_submit`] and complete its sink themselves.)
    Shed,
}

/// Cloneable submission side of the dispatcher, held by connection
/// threads. All handles must drop before
/// [`Dispatcher::shutdown`] can finish draining.
#[derive(Clone)]
pub struct BatchHandle {
    tx: SyncSender<Job>,
}

impl BatchHandle {
    /// Enqueues a job without blocking. On a full (or closed) queue the
    /// job is handed back so the caller can shed it with a typed
    /// `overloaded` response.
    pub fn try_submit(&self, job: Job) -> Result<(), Job> {
        self.tx.try_send(job).map_err(|e| match e {
            TrySendError::Full(job) | TrySendError::Disconnected(job) => job,
        })
    }
}

/// The micro-batching dispatcher: a fixed worker pool that takes jobs
/// straight from the bounded submit queue.
pub struct Dispatcher {
    tx: Option<SyncSender<Job>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Dispatcher {
    /// Starts the dispatcher: each of `workers` threads takes the next
    /// job plus whatever is queued behind it, waiting up to `window`
    /// for more (zero: no wait, coalesce only the backlog), and
    /// executes them grouped by kernel. The submit queue holds at most
    /// `queue_cap` jobs; beyond that, [`BatchHandle::try_submit`] sheds.
    pub fn start(
        workers: usize,
        window: Duration,
        queue_cap: usize,
        stats: Arc<ServerStats>,
    ) -> Dispatcher {
        let (tx, rx) = sync_channel::<Job>(queue_cap.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let pool = (0..workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let stats = Arc::clone(&stats);
                thread::Builder::new()
                    .name(format!("charfree-batch-worker-{i}"))
                    .spawn(move || work(&rx, window, &stats))
                    .expect("spawn worker thread")
            })
            .collect();
        Dispatcher {
            tx: Some(tx),
            workers: pool,
        }
    }

    /// A new submission handle for a connection thread.
    pub fn handle(&self) -> BatchHandle {
        BatchHandle {
            tx: self
                .tx
                .as_ref()
                .expect("dispatcher already shut down")
                .clone(),
        }
    }

    /// Graceful drain: closes the submit queue, lets the workers
    /// execute every job already accepted, and joins them. Every
    /// [`BatchHandle`] must already be dropped, otherwise the queue
    /// stays open and this blocks.
    pub fn shutdown(mut self) {
        self.tx.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Blocks for the next job, then takes whatever else is queued (and,
/// with a non-zero `window`, whatever arrives before it closes), up to
/// `MAX_BATCH_JOBS`. `None` once every handle is dropped and the queue
/// is empty.
fn collect(rx: &Mutex<Receiver<Job>>, window: Duration) -> Option<Vec<Job>> {
    // Idle workers queue up on the lock; it is released before
    // evaluation, so execution is never serialized behind it.
    let rx = rx.lock().unwrap_or_else(|e| e.into_inner());
    let mut jobs = vec![rx.recv().ok()?];
    let wake = Instant::now() + window;
    // The window is a *cap*, not a wait: once the queue has stayed
    // empty for a short grace period it closes early. Closed-loop
    // clients cannot enqueue more work until their in-flight job
    // completes, so waiting out the whole window is pure dead time.
    let grace = (window / 16).max(Duration::from_micros(10));
    while jobs.len() < MAX_BATCH_JOBS {
        // On disconnect the flush still runs; the next receive observes
        // the closed queue.
        let next = if window.is_zero() {
            rx.try_recv().ok()
        } else {
            let now = Instant::now();
            if now >= wake {
                break;
            }
            rx.recv_timeout(grace.min(wake - now)).ok()
        };
        match next {
            Some(job) => jobs.push(job),
            None => break,
        }
    }
    Some(jobs)
}

fn work(rx: &Mutex<Receiver<Job>>, window: Duration, stats: &ServerStats) {
    let mut consecutive_panics: u32 = 0;
    while let Some(jobs) = collect(rx, window) {
        // Supervision: a panicking batch must not take the worker down.
        // The panic unwinds past the jobs' reply senders, so every
        // waiting connection observes a disconnected channel and
        // responds with a typed, retriable error — then the worker
        // restarts after a capped exponential backoff.
        match catch_unwind(AssertUnwindSafe(|| execute(jobs, stats))) {
            Ok(()) => consecutive_panics = 0,
            Err(_) => {
                stats.record_worker_panic();
                let factor = 1u32 << consecutive_panics.min(16);
                thread::sleep((RESTART_BACKOFF_BASE * factor).min(RESTART_BACKOFF_CAP));
                consecutive_panics = consecutive_panics.saturating_add(1);
            }
        }
    }
}

fn execute(jobs: Vec<Job>, stats: &ServerStats) {
    let now = Instant::now();
    // Per-kernel staging, kernels in first-seen order: shed expired
    // jobs, pack the survivors' transitions into one block per kernel,
    // remember each job's span.
    struct Prepared {
        kernel: Arc<Kernel>,
        jobs: Vec<Job>,
        spans: Vec<(usize, usize)>,
        block: PatternBlock,
        values: Vec<f64>,
    }
    let mut prepared: Vec<Prepared> = Vec::new();
    let mut poisoned = false;
    for job in jobs {
        if job.deadline.is_some_and(|deadline| deadline <= now) {
            job.reply.complete(Err(JobError::DeadlineExceeded));
            continue;
        }
        poisoned |= job.fault == Some(JobFault::PanicInWorker);
        let at = match prepared
            .iter()
            .position(|p| Arc::ptr_eq(&p.kernel, &job.kernel))
        {
            Some(at) => at,
            None => {
                prepared.push(Prepared {
                    kernel: Arc::clone(&job.kernel),
                    jobs: Vec::new(),
                    spans: Vec::new(),
                    block: PatternBlock::new(job.kernel.num_vars() as usize),
                    values: Vec::new(),
                });
                prepared.len() - 1
            }
        };
        let p = &mut prepared[at];
        let offset = p.block.len();
        p.block.extend_from_patterns(&p.kernel, &job.patterns);
        p.spans.push((offset, p.block.len() - offset));
        p.jobs.push(job);
    }
    if poisoned {
        panic!("injected worker fault (JobFault::PanicInWorker)");
    }
    for p in &mut prepared {
        p.values = vec![0.0f64; p.block.len()];
    }

    // One fused multi-kernel pass over the whole flush: every
    // kernel group's block advances together.
    let mut fused: Vec<FusedJob> = prepared
        .iter_mut()
        .map(|p| FusedJob {
            kernel: &p.kernel,
            block: &p.block,
            out: &mut p.values,
        })
        .collect();
    eval_fused(&mut fused);
    drop(fused);

    for p in prepared {
        if p.block.is_empty() {
            stats.record_batch(p.jobs.len(), 1);
        } else {
            let groups64 = p.block.len().div_ceil(64);
            stats.record_batch(p.jobs.len(), p.block.len() / groups64);
        }
        for (job, (offset, len)) in p.jobs.into_iter().zip(p.spans) {
            let slice = &p.values[offset..offset + len];
            // DEFAULT_CHUNK association == the offline TraceEngine
            // reduction, which is what keeps batched summaries
            // bit-identical.
            let summary = TraceSummary::from_values(slice, DEFAULT_CHUNK);
            let output = JobOutput {
                summary,
                values: job.want_values.then(|| slice.to_vec()),
            };
            job.reply.complete(Ok(output));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charfree_core::ModelBuilder;
    use charfree_engine::TraceEngine;
    use charfree_netlist::{benchmarks, Library, Netlist};
    use charfree_sim::MarkovSource;

    type Reply = Receiver<Result<JobOutput, JobError>>;

    fn kernel_for(bench: fn(&Library) -> Netlist) -> Arc<Kernel> {
        let library = Library::test_library();
        let model = ModelBuilder::new(&bench(&library)).build();
        Arc::new(Kernel::compile(&model))
    }

    fn patterns_for(kernel: &Kernel, vectors: usize, seed: u64) -> Vec<Vec<bool>> {
        MarkovSource::new(kernel.num_inputs(), 0.5, 0.4, seed)
            .expect("feasible source")
            .sequence(vectors)
    }

    fn job(kernel: &Arc<Kernel>, vectors: usize, seed: u64) -> (Job, Reply) {
        let (reply_tx, reply_rx) = sync_channel(1);
        let job = Job {
            kernel: Arc::clone(kernel),
            patterns: patterns_for(kernel, vectors, seed),
            want_values: false,
            deadline: None,
            reply: Box::new(ChannelReply(reply_tx)),
            fault: None,
        };
        (job, reply_rx)
    }

    /// A sink that reports when the worker reaches it, then holds the
    /// worker until the test releases it: a deterministic way to keep
    /// the only worker busy while the queue fills.
    struct ParkingSink {
        parked: SyncSender<()>,
        release: Receiver<()>,
        reply: SyncSender<Result<JobOutput, JobError>>,
    }

    impl ReplySink for ParkingSink {
        fn complete(self: Box<Self>, result: Result<JobOutput, JobError>) {
            let _ = self.parked.send(());
            let _ = self.release.recv();
            let _ = self.reply.send(result);
        }
    }

    /// Submits a job whose completion parks the worker that runs it and
    /// returns once that worker is parked, with nothing else queued.
    /// Send on the returned sender to let the worker go.
    fn park_worker(handle: &BatchHandle, kernel: &Arc<Kernel>) -> (SyncSender<()>, Reply) {
        let (parked_tx, parked_rx) = sync_channel(1);
        let (release_tx, release_rx) = sync_channel(1);
        let (reply_tx, reply_rx) = sync_channel(1);
        let (mut parking, _) = job(kernel, 10, 999);
        parking.reply = Box::new(ParkingSink {
            parked: parked_tx,
            release: release_rx,
            reply: reply_tx,
        });
        assert!(handle.try_submit(parking).is_ok());
        parked_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the worker reaches the parking job");
        (release_tx, reply_rx)
    }

    /// Queues a mixed workload on two kernels behind a parked worker,
    /// releases it, and checks that the backlog ran as one flush (one
    /// batch per kernel) with every answer bit-identical to offline.
    fn backlog_runs_as_one_flush(window: Duration) {
        let decod = kernel_for(benchmarks::decod);
        let cm85 = kernel_for(benchmarks::cm85);
        let stats = Arc::new(ServerStats::new());
        let dispatcher = Dispatcher::start(1, window, 64, Arc::clone(&stats));
        let handle = dispatcher.handle();
        let (release, parked_reply) = park_worker(&handle, &decod);
        // The parking job's own batch is already on the books.
        let (batches, requests) = (stats.batches(), stats.batched_requests());

        // Lengths land mid-64-lane-group; kernels interleave.
        let cases: Vec<(&Arc<Kernel>, usize, u64, bool)> = vec![
            (&decod, 130, 1, false),
            (&cm85, 65, 4, true),
            (&decod, 7, 2, true),
            (&decod, 4099, 3, false),
            (&cm85, 300, 5, false),
        ];
        let replies: Vec<Reply> = cases
            .iter()
            .map(|&(kernel, vectors, seed, want_values)| {
                let (mut job, reply) = job(kernel, vectors, seed);
                job.want_values = want_values;
                assert!(handle.try_submit(job).is_ok());
                reply
            })
            .collect();
        release.send(()).expect("worker is parked");
        assert!(parked_reply.recv().expect("parked job replies").is_ok());

        for (&(kernel, vectors, seed, want_values), reply) in cases.iter().zip(replies) {
            let got = reply
                .recv_timeout(Duration::from_secs(30))
                .expect("worker replies")
                .expect("job evaluates");
            let patterns = patterns_for(kernel, vectors, seed);
            let offline = TraceEngine::new(kernel).jobs(2).evaluate(&patterns);
            assert_eq!(got.summary.transitions, offline.transitions);
            assert_eq!(got.summary.sum_ff.to_bits(), offline.sum_ff.to_bits());
            assert_eq!(got.summary.max_ff.to_bits(), offline.max_ff.to_bits());
            match (want_values, got.values) {
                (true, Some(values)) => {
                    let offline_values = TraceEngine::new(kernel).jobs(2).trace(&patterns);
                    assert_eq!(values.len(), offline_values.len());
                    for (a, b) in values.iter().zip(&offline_values) {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
                (false, None) => {}
                (want, got) => panic!("want_values={want} but got values={}", got.is_some()),
            }
        }
        assert_eq!(stats.batches() - batches, 2, "one batch per kernel");
        assert_eq!(stats.batched_requests() - requests, cases.len() as u64);
        drop(handle);
        dispatcher.shutdown();
    }

    #[test]
    fn coalesced_jobs_match_offline_evaluation_bit_for_bit() {
        backlog_runs_as_one_flush(Duration::from_millis(40));
    }

    #[test]
    fn a_zero_window_coalesces_the_backlog_without_a_timer() {
        backlog_runs_as_one_flush(Duration::ZERO);
    }

    #[test]
    fn expired_deadlines_are_shed_with_a_typed_error() {
        let decod = kernel_for(benchmarks::decod);
        let dispatcher = Dispatcher::start(1, Duration::ZERO, 8, Arc::new(ServerStats::new()));
        let handle = dispatcher.handle();
        let (mut job, reply) = job(&decod, 100, 9);
        job.deadline = Some(Instant::now() - Duration::from_millis(1));
        assert!(handle.try_submit(job).is_ok());
        match reply.recv().expect("reply arrives") {
            Err(JobError::DeadlineExceeded) => {}
            other => panic!("expired job must shed with a deadline error, got {other:?}"),
        }
        drop(handle);
        dispatcher.shutdown();
    }

    #[test]
    fn full_queue_hands_the_job_back() {
        let decod = kernel_for(benchmarks::decod);
        let dispatcher = Dispatcher::start(1, Duration::ZERO, 1, Arc::new(ServerStats::new()));
        let handle = dispatcher.handle();
        let (release, parked_reply) = park_worker(&handle, &decod);

        // The only worker is parked, so the 1-deep queue takes exactly
        // one job of the burst and hands every other one back.
        let mut kept = Vec::new();
        for seed in 0..8 {
            let (job, reply) = job(&decod, 10, seed);
            if handle.try_submit(job).is_ok() {
                kept.push(reply);
            }
        }
        assert_eq!(kept.len(), 1, "a 1-deep queue must shed 7 of an 8-burst");

        // Every accepted job completes once the worker is released.
        release.send(()).expect("worker is parked");
        for reply in std::iter::once(parked_reply).chain(kept) {
            assert!(reply
                .recv_timeout(Duration::from_secs(30))
                .expect("accepted job completes")
                .is_ok());
        }
        drop(handle);
        dispatcher.shutdown();
    }

    #[test]
    fn worker_panics_are_supervised_and_later_jobs_still_complete() {
        let decod = kernel_for(benchmarks::decod);
        let stats = Arc::new(ServerStats::new());
        // A single worker: if the panic killed it for good, the healthy
        // jobs below would hang instead of completing.
        let dispatcher = Dispatcher::start(1, Duration::ZERO, 16, Arc::clone(&stats));
        let handle = dispatcher.handle();

        for round in 0..3u64 {
            // A poisoned job: its reply channel must disconnect (typed
            // error at the connection layer), not hang.
            let (mut poison, poison_reply) = job(&decod, 10, 100 + round);
            poison.fault = Some(JobFault::PanicInWorker);
            assert!(handle.try_submit(poison).is_ok());
            assert!(
                poison_reply.recv_timeout(Duration::from_secs(30)).is_err(),
                "panicked batch must drop its replies"
            );

            // The restarted worker evaluates the next job bit-exactly.
            let (healthy, reply) = job(&decod, 50, round);
            assert!(handle.try_submit(healthy).is_ok());
            let got = reply
                .recv_timeout(Duration::from_secs(30))
                .expect("restarted worker replies")
                .expect("job evaluates");
            let offline = TraceEngine::new(&decod).evaluate(&patterns_for(&decod, 50, round));
            assert_eq!(got.summary.sum_ff.to_bits(), offline.sum_ff.to_bits());
        }
        assert_eq!(stats.worker_panics(), 3);
        drop(handle);
        dispatcher.shutdown();
    }
}
