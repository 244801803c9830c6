//! Batched, multi-threaded trace evaluation.
//!
//! [`TraceEngine`] shards a transition stream into [`DEFAULT_CHUNK`]-
//! sized chunks, fans the chunks out over `std::thread::scope` workers
//! (static round-robin assignment, no locks in the hot path), and
//! reduces the per-chunk sums/maxima **in chunk order**. Chunk
//! boundaries never depend on the worker count, so `--jobs 1` and
//! `--jobs 8` produce bit-identical sums and maxima.

use crate::block::PatternBlock;
use crate::kernel::Kernel;
use crate::soa::EvalScratch;

/// Transitions per work chunk. Small enough to load-balance, large
/// enough to amortize per-chunk packing; also the unit of deterministic
/// merging. Public because the serving layer's micro-batcher reduces
/// demultiplexed per-request traces with exactly this association (see
/// [`TraceSummary::from_values`]) to stay bit-identical to the offline
/// path.
pub const DEFAULT_CHUNK: usize = 4096;

/// Transitions packed and evaluated per fused sub-block of the worker
/// loops: small enough that the pattern rows being packed, the packed
/// words, and the kernel's mask/selector scratch all stay cache-resident
/// together instead of evicting each other in whole-chunk phases.
const FUSE_LANES: usize = 256;

/// Packs and evaluates `patterns`' `out.len()` transitions into `out`
/// in [`FUSE_LANES`]-sized sub-blocks, reusing `block` and `scratch`
/// across calls. Chunk summaries are unaffected — only the pack/eval
/// interleave changes, never values or their order.
fn pack_eval(
    kernel: &Kernel,
    patterns: &[Vec<bool>],
    block: &mut PatternBlock,
    scratch: &mut EvalScratch,
    out: &mut [f64],
) {
    let total = out.len();
    let mut done = 0usize;
    while done < total {
        let end = (done + FUSE_LANES).min(total);
        block.clear();
        block.extend_from_patterns(kernel, &patterns[done..=end]);
        kernel.eval_batch_into_with(block, &mut out[done..end], scratch);
        done = end;
    }
}

/// Deterministic reduction of one evaluated trace: count, sum and
/// maximum of the per-transition switched capacitance (fF).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSummary {
    /// Number of transitions evaluated.
    pub transitions: usize,
    /// Sum of the per-transition switched capacitance (fF).
    pub sum_ff: f64,
    /// Maximum per-transition switched capacitance (fF);
    /// `f64::NEG_INFINITY` for an empty trace.
    pub max_ff: f64,
}

impl TraceSummary {
    /// Mean switched capacitance (fF) per transition (NaN when empty).
    pub fn mean_ff(&self) -> f64 {
        self.sum_ff / self.transitions as f64
    }

    /// The canonical deterministic reduction of an already-evaluated
    /// per-transition trace: each `chunk`-sized run is summed (and
    /// maximised) in order, and the run results are folded in order.
    /// With `chunk` = [`DEFAULT_CHUNK`] this is exactly what
    /// [`TraceEngine::evaluate`] computes for any worker count, which
    /// makes it the demultiplexing hook for batching layers: evaluate
    /// transitions in any lane packing (per-lane values are
    /// independent), scatter the values back into per-request order,
    /// then reduce with this function to get a summary bit-identical
    /// to a dedicated [`TraceEngine::evaluate`] run.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn from_values(values: &[f64], chunk: usize) -> TraceSummary {
        assert!(chunk > 0, "chunk size must be positive");
        let mut total = TraceSummary {
            transitions: values.len(),
            sum_ff: 0.0,
            max_ff: f64::NEG_INFINITY,
        };
        for run in values.chunks(chunk) {
            let (mut sum, mut max) = (0.0f64, f64::NEG_INFINITY);
            for &c in run {
                sum += c;
                max = max.max(c);
            }
            total.sum_ff += sum;
            total.max_ff = total.max_ff.max(max);
        }
        total
    }
}

/// A multi-threaded evaluator over one compiled [`Kernel`].
///
/// # Examples
///
/// ```
/// use charfree_core::ModelBuilder;
/// use charfree_engine::{Kernel, TraceEngine};
/// use charfree_netlist::{benchmarks, Library};
/// use charfree_sim::MarkovSource;
///
/// let library = Library::test_library();
/// let model = ModelBuilder::new(&benchmarks::cm85(&library)).build();
/// let kernel = Kernel::compile(&model);
/// let mut source = MarkovSource::new(11, 0.5, 0.5, 1).expect("feasible statistics");
/// let patterns = source.sequence(1000);
///
/// let summary = TraceEngine::new(&kernel).jobs(2).evaluate(&patterns);
/// assert_eq!(summary.transitions, 999);
/// assert!(summary.max_ff >= summary.mean_ff());
/// ```
#[derive(Debug)]
pub struct TraceEngine<'k> {
    kernel: &'k Kernel,
    jobs: usize,
}

impl<'k> TraceEngine<'k> {
    /// A single-threaded engine over `kernel`.
    pub fn new(kernel: &'k Kernel) -> TraceEngine<'k> {
        TraceEngine { kernel, jobs: 1 }
    }

    /// Sets the worker count. `0` means "use the machine's available
    /// parallelism".
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = if jobs == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            jobs
        };
        self
    }

    /// The configured worker count.
    pub fn num_jobs(&self) -> usize {
        self.jobs
    }

    /// Evaluates the `patterns.len() − 1` transitions of a resident
    /// pattern sequence to a deterministic [`TraceSummary`]: the
    /// [`TraceEngine::trace`] values reduced by
    /// [`TraceSummary::from_values`] over [`DEFAULT_CHUNK`]-sized runs.
    pub fn evaluate(&self, patterns: &[Vec<bool>]) -> TraceSummary {
        TraceSummary::from_values(&self.trace(patterns), DEFAULT_CHUNK)
    }

    /// Evaluates a resident pattern sequence to the full per-transition
    /// capacitance trace (fF), sharded across workers: chunk `i` of the
    /// output is packed and evaluated by worker `i mod jobs`, and each
    /// worker reuses one block and one scratch across its chunks.
    pub fn trace(&self, patterns: &[Vec<bool>]) -> Vec<f64> {
        let mut out = vec![0.0f64; patterns.len().saturating_sub(1)];
        let kernel = self.kernel;
        let run = |work: Vec<(usize, &mut [f64])>| {
            let mut block = PatternBlock::new(kernel.num_vars() as usize);
            let mut scratch = EvalScratch::default();
            for (ci, slice) in work {
                let start = ci * DEFAULT_CHUNK;
                let window = &patterns[start..=start + slice.len()];
                pack_eval(kernel, window, &mut block, &mut scratch, slice);
            }
        };
        let chunks: Vec<(usize, &mut [f64])> = out.chunks_mut(DEFAULT_CHUNK).enumerate().collect();
        let jobs = self.jobs.min(chunks.len()).max(1);
        if jobs == 1 {
            // One worker: run inline, no thread spawn.
            run(chunks);
        } else {
            let mut per_worker: Vec<Vec<(usize, &mut [f64])>> =
                (0..jobs).map(|_| Vec::new()).collect();
            for (ci, slice) in chunks {
                per_worker[ci % jobs].push((ci, slice));
            }
            std::thread::scope(|scope| {
                for work in per_worker {
                    scope.spawn(|| run(work));
                }
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charfree_core::{ModelBuilder, PowerModel};
    use charfree_netlist::{benchmarks, Library};
    use charfree_sim::MarkovSource;

    fn cm85_kernel() -> (charfree_core::AddPowerModel, Kernel) {
        let library = Library::test_library();
        let model = ModelBuilder::new(&benchmarks::cm85(&library))
            .max_nodes(400)
            .build();
        let kernel = Kernel::compile(&model);
        (model, kernel)
    }

    /// A Markov trace spanning three whole chunks and a ragged fourth.
    fn four_chunk_trace(st: f64, seed: u64) -> Vec<Vec<bool>> {
        let mut source = MarkovSource::new(11, 0.5, st, seed).expect("feasible");
        source.sequence(3 * DEFAULT_CHUNK + 701)
    }

    #[test]
    fn summary_matches_sequential_reference() {
        let (model, kernel) = cm85_kernel();
        let patterns = four_chunk_trace(0.4, 11);
        let transitions = patterns.len() - 1;
        let summary = TraceEngine::new(&kernel).jobs(3).evaluate(&patterns);
        assert_eq!(summary.transitions, transitions);
        // Reference with the same chunked association.
        let mut want_sum = 0.0f64;
        let mut want_max = f64::NEG_INFINITY;
        for chunk in (0..transitions).collect::<Vec<_>>().chunks(DEFAULT_CHUNK) {
            let mut s = 0.0f64;
            for &t in chunk {
                let c = model
                    .capacitance(&patterns[t], &patterns[t + 1])
                    .femtofarads();
                s += c;
                want_max = want_max.max(c);
            }
            want_sum += s;
        }
        assert_eq!(summary.sum_ff.to_bits(), want_sum.to_bits());
        assert_eq!(summary.max_ff.to_bits(), want_max.to_bits());
    }

    #[test]
    fn jobs_do_not_change_results() {
        let (_, kernel) = cm85_kernel();
        let patterns = four_chunk_trace(0.3, 5);
        let one = TraceEngine::new(&kernel).jobs(1);
        let eight = TraceEngine::new(&kernel).jobs(8);
        let (a, b) = (one.evaluate(&patterns), eight.evaluate(&patterns));
        assert_eq!(a.sum_ff.to_bits(), b.sum_ff.to_bits());
        assert_eq!(a.max_ff.to_bits(), b.max_ff.to_bits());
        assert_eq!(a.transitions, b.transitions);
        let (ta, tb) = (one.trace(&patterns), eight.trace(&patterns));
        assert!(ta.iter().zip(&tb).all(|(x, y)| x.to_bits() == y.to_bits()));
        // The summary is the trace's canonical reduction.
        let reduced = TraceSummary::from_values(&ta, DEFAULT_CHUNK);
        assert_eq!(reduced.sum_ff.to_bits(), a.sum_ff.to_bits());
        assert_eq!(reduced.max_ff.to_bits(), a.max_ff.to_bits());
    }

    #[test]
    fn trace_matches_scalar_walks() {
        let (model, kernel) = cm85_kernel();
        let patterns = four_chunk_trace(0.6, 7);
        let trace = TraceEngine::new(&kernel).jobs(4).trace(&patterns);
        assert_eq!(trace.len(), patterns.len() - 1);
        for (t, &c) in trace.iter().enumerate() {
            assert_eq!(
                c.to_bits(),
                model
                    .capacitance(&patterns[t], &patterns[t + 1])
                    .femtofarads()
                    .to_bits(),
                "transition {t}"
            );
        }
    }

    #[test]
    fn degenerate_inputs() {
        let (_, kernel) = cm85_kernel();
        let engine = TraceEngine::new(&kernel).jobs(2);
        assert_eq!(engine.evaluate(&[]).transitions, 0);
        assert_eq!(engine.trace(&[vec![false; 11]]).len(), 0);
    }
}
