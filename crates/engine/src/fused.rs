//! Fused multi-kernel batch evaluation.
//!
//! The SoA engine evaluates a kernel breadth-first: one ascending
//! gather sweep computes every state's 256-lane mask row from its
//! predecessors (see [`crate::soa`]). [`eval_fused`] runs *N
//! independent gather-shaped kernels'* sweeps interleaved over a shared
//! trace window
//! — round `s` gathers kernel 0's next level range, then kernel 1's, …
//! — so the load/store streams of unrelated programs overlap instead
//! of draining one kernel's working set before the next warms up, and
//! every kernel's masks stay resident across its whole sweep.
//!
//! This is the execution shape behind the sequential composition story
//! (one trace drives many macros, `charfree-seq`) and the server's
//! cross-connection micro-batching (`charfree-serve`): both hand every
//! macro's packed block for a flush window to one [`eval_fused`] call
//! instead of looping kernels one at a time.
//!
//! Kernels whose [`BatchEngine`] is the lane walk (large kernels, and
//! constant ones) have no gather sweep to interleave: they are walked up
//! front and skip the lockstep rounds.
//!
//! Fusion changes scheduling only — every lane still flows through its
//! own kernel's program into the same terminal slot — so results
//! are f64 bit-identical to per-kernel [`Kernel::eval_batch_into`]
//! calls (the kernel-equivalence suites enforce it).

use crate::block::PatternBlock;
use crate::kernel::{BatchEngine, Kernel};
use crate::soa::{MaskRow, CHUNK_GROUPS, GROUP_LANES, ZERO_ROW};

/// One kernel's share of a fused evaluation: its packed block and the
/// output slice to fill (`out.len()` must equal `block.len()`).
#[derive(Debug)]
pub struct FusedJob<'a> {
    /// The compiled kernel to evaluate.
    pub kernel: &'a Kernel,
    /// The kernel's packed transition lanes for this window.
    pub block: &'a PatternBlock,
    /// Per-transition output values, `block.len()` long.
    pub out: &'a mut [f64],
}

/// Per chunk-active job: its index and next gather round. Rounds
/// `0 .. num_levels` gather that level's state range; the final round
/// gathers the terminal rows.
struct Cursor {
    job: usize,
    round: usize,
}

/// Evaluates every job's block in one fused pass: walk-shaped jobs up
/// front, then per chunk of [`CHUNK_GROUPS`] 64-lane groups, all
/// gather-shaped jobs with lanes there advance together, one
/// level-range gather per kernel per round (see module docs).
///
/// # Panics
///
/// Panics if any job's `out.len() != block.len()` or its block is
/// narrower than its kernel's variable count.
pub fn eval_fused(jobs: &mut [FusedJob<'_>]) {
    let mut max_groups = 0usize;
    for job in jobs.iter_mut() {
        assert_eq!(job.out.len(), job.block.len(), "output length mismatch");
        assert!(
            job.block.num_vars() >= job.kernel.num_vars() as usize,
            "pattern block is narrower than the kernel"
        );
        match job.kernel.batch_engine() {
            BatchEngine::Walk => job.kernel.walk_into(job.block, job.out),
            BatchEngine::Gather => {
                max_groups = max_groups.max(job.block.len().div_ceil(GROUP_LANES));
            }
        }
    }
    // Per-job scratch: one mask row per state (zeroed once — unwritten
    // rows must stay zero) and one per-chunk selector table; both empty
    // for walk-shaped jobs, whose SoA program is empty.
    let mut masks: Vec<Vec<MaskRow>> = jobs
        .iter()
        .map(|job| vec![ZERO_ROW; job.kernel.soa.num_states()])
        .collect();
    let mut sels: Vec<Vec<MaskRow>> = jobs
        .iter()
        .map(|job| vec![ZERO_ROW; job.kernel.soa.num_sels()])
        .collect();
    let mut active: Vec<Cursor> = Vec::with_capacity(jobs.len());
    let mut g0 = 0usize;
    while g0 < max_groups {
        active.clear();
        for (j, job) in jobs.iter().enumerate() {
            if g0 * GROUP_LANES < job.block.len()
                && job.kernel.batch_engine() == BatchEngine::Gather
            {
                active.push(Cursor { job: j, round: 0 });
            }
        }
        // Seed each active job's root masks and build its selector
        // table for this chunk's groups.
        for cur in active.iter_mut() {
            let job = &jobs[cur.job];
            let soa = &job.kernel.soa;
            let scratch = &mut masks[cur.job];
            for g in 0..CHUNK_GROUPS {
                let lo = (g0 + g) * GROUP_LANES;
                let n = job.out.len().saturating_sub(lo).min(GROUP_LANES);
                let live = if n == GROUP_LANES {
                    !0u64
                } else {
                    (1u64 << n) - 1
                };
                soa.seed_root(scratch, g, live);
            }
            soa.build_sels(job.block, g0, job.out.len(), &mut sels[cur.job]);
        }
        // Lockstep rounds: one level-range gather per kernel per round,
        // so the N kernels' mask streams interleave. Round 0 has no
        // gather targets; the round past the last level gathers the
        // terminal rows.
        loop {
            let mut running = false;
            for cur in active.iter_mut() {
                let job = &jobs[cur.job];
                let soa = &job.kernel.soa;
                if cur.round >= soa.num_rounds() {
                    continue;
                }
                soa.gather_round(&mut masks[cur.job], &sels[cur.job], cur.round);
                cur.round += 1;
                running |= cur.round < soa.num_rounds();
            }
            if !running {
                break;
            }
        }
        // Scatter this chunk's terminal masks into each job's output.
        for cur in &active {
            let job = &mut jobs[cur.job];
            let lo = g0 * GROUP_LANES;
            let hi = (lo + CHUNK_GROUPS * GROUP_LANES).min(job.out.len());
            job.kernel
                .soa
                .scatter(&masks[cur.job], &job.kernel.terminals, &mut job.out[lo..hi]);
        }
        g0 += CHUNK_GROUPS;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charfree_core::{ApproxStrategy, ModelBuilder};
    use charfree_netlist::{benchmarks, Library};
    use charfree_sim::MarkovSource;

    fn block_for(kernel: &Kernel, transitions: usize, seed: u64) -> PatternBlock {
        let mut src = MarkovSource::new(kernel.num_inputs(), 0.5, 0.4, seed).expect("valid stats");
        PatternBlock::from_patterns(kernel, &src.sequence(transitions + 1))
    }

    #[test]
    fn fused_matches_per_kernel_eval_bit_exactly() {
        let library = Library::test_library();
        let kernels: Vec<Kernel> = [
            ModelBuilder::new(&benchmarks::decod(&library)).build(),
            ModelBuilder::new(&benchmarks::cm85(&library)).build(),
            ModelBuilder::new(&benchmarks::mux(&library)).build(),
            // A constant kernel rides along in the same fused call
            // (mux and cm85 are exact, so walk-shaped).
            ModelBuilder::new(&benchmarks::decod(&library))
                .build()
                .shrink(1, ApproxStrategy::Average),
        ]
        .iter()
        .map(Kernel::compile)
        .collect();
        // Ragged lengths: different group counts per job, one empty.
        let lens = [130usize, 77, 0, 200];
        let blocks: Vec<PatternBlock> = kernels
            .iter()
            .zip(lens)
            .enumerate()
            .map(|(i, (k, len))| block_for(k, len, 0xF00D + i as u64))
            .collect();
        let mut fused_out: Vec<Vec<f64>> = lens.iter().map(|&l| vec![0.0; l]).collect();
        {
            let mut jobs: Vec<FusedJob> = kernels
                .iter()
                .zip(&blocks)
                .zip(fused_out.iter_mut())
                .map(|((kernel, block), out)| FusedJob { kernel, block, out })
                .collect();
            eval_fused(&mut jobs);
        }
        let engines: Vec<BatchEngine> = kernels.iter().map(Kernel::batch_engine).collect();
        assert!(engines.contains(&BatchEngine::Gather) && engines.contains(&BatchEngine::Walk));
        for ((kernel, block), fused) in kernels.iter().zip(&blocks).zip(&fused_out) {
            let solo = kernel.eval_batch(block);
            assert_eq!(solo.len(), fused.len());
            for (a, b) in solo.iter().zip(fused) {
                assert_eq!(a.to_bits(), b.to_bits(), "kernel {}", kernel.name());
            }
        }
    }

    #[test]
    fn empty_job_list_is_a_no_op() {
        let mut jobs: Vec<FusedJob> = Vec::new();
        eval_fused(&mut jobs);
    }
}
