//! `offline`: what `charfree eval` does at the CLI's default job count on
//! exact (unbudgeted) kernels, and what `charfree seqeval` (fused, the CLI
//! default) does on the committed sequential designs.
//!
//! mux (~35k nodes, ~0.4 MB kernel) stays cache-resident; alu4 (~324k
//! nodes, ~3.9 MB) does not. Every combinational result is checked bit
//! for bit against the per-pattern arena walk of the same model, and
//! sampled sequential rounds against the unfused path.

use std::time::Instant;

use charfree_core::{AddPowerModel, PowerModel};
use charfree_engine::{Kernel, PatternBlock, TraceEngine, TraceSummary, DEFAULT_CHUNK};
use charfree_netlist::{blif, Library};
use charfree_pipeline::{PipelineCtx, Source};
use charfree_seq::{SeqModel, SeqSummary};
use charfree_sim::MarkovSource;

use crate::{default_jobs, iqm, median, metric, mix, percentile, secs, statistics, SetupTimer};
use crate::{Args, Outcome};

const CIRCUITS: [&str; 2] = ["mux", "alu4"];
/// Vectors per `eval` call and per design of a `seqeval` round: the
/// CLI's default `--vectors` for both commands.
const VECTORS: usize = 10_000;
const SEQ_DESIGNS: [&str; 4] = [
    include_str!("../../crates/netlist/benchmarks/adder8.blif"),
    include_str!("../../crates/netlist/benchmarks/muxtree4.blif"),
    include_str!("../../crates/netlist/benchmarks/parity12.blif"),
    include_str!("../../crates/netlist/benchmarks/seqpipe2.blif"),
];
/// One in this many `seqeval` rounds is checked against the unfused path.
const SEQ_CHECK_EVERY: usize = 4;
/// The ledger's fixed pass: this many `eval` calls (alternating circuits)
/// and `seqeval` rounds.
const LEDGER_EVAL_CALLS: usize = 4;
const LEDGER_SEQ_ROUNDS: usize = 4;

struct Rig {
    ctx: PipelineCtx,
    /// `(model, kernel)` per entry of [`CIRCUITS`].
    comb: Vec<(AddPowerModel, Kernel)>,
    seqs: Vec<SeqModel>,
}

/// Set-up as `charfree eval` / `seqeval` pay it: build the exact models
/// and kernels, and compose the sequential designs.
fn start_rig() -> Rig {
    let mut ctx = PipelineCtx::new(Library::test_library());
    let comb = CIRCUITS
        .iter()
        .map(|name| {
            let model = ctx
                .model_for(&Source::Bench((*name).to_owned()))
                .expect("benchmark circuit builds");
            let kernel = ctx.compile_kernel_from(&model);
            (model, kernel)
        })
        .collect();
    let seqs = SEQ_DESIGNS
        .iter()
        .map(|text| {
            let seq = blif::parse_seq(text).expect("committed design parses");
            SeqModel::build(&mut ctx, seq).expect("committed design builds")
        })
        .collect();
    Rig { ctx, comb, seqs }
}

/// The seeded pattern trace of `eval` call `k` (circuit `k % 2`).
fn eval_patterns(seed: u64, k: usize, kernel: &Kernel) -> Vec<Vec<bool>> {
    let s = mix(seed, 1_000_000 + k as u64);
    let (sp, st) = statistics(s);
    MarkovSource::new(kernel.num_inputs(), sp, st, mix(s, 7))
        .expect("feasible statistics")
        .sequence(VECTORS)
}

/// The seeded pattern trace of design `d` in `seqeval` round `r`.
fn seq_patterns(seed: u64, r: usize, d: usize, model: &SeqModel) -> Vec<Vec<bool>> {
    let s = mix(seed, 2_000_000 + (r * SEQ_DESIGNS.len() + d) as u64);
    let (sp, st) = statistics(s);
    MarkovSource::new(model.num_inputs(), sp, st, mix(s, 7))
        .expect("feasible statistics")
        .sequence(VECTORS)
}

fn summary_bits(s: &TraceSummary) -> (usize, u64, u64) {
    (s.transitions, s.sum_ff.to_bits(), s.max_ff.to_bits())
}

fn seq_bits(s: &SeqSummary) -> Vec<(usize, u64, u64)> {
    std::iter::once(&s.total)
        .chain(s.per_macro.iter().map(|m| &m.summary))
        .map(summary_bits)
        .collect()
}

/// The arena oracle's summary: per-pattern walk of the ADD, reduced with
/// the engine's chunk association (equal bit for bit when every
/// per-transition value is).
fn arena_summary(model: &AddPowerModel, patterns: &[Vec<bool>]) -> TraceSummary {
    TraceSummary::from_values(&model.capacitance_trace(patterns), DEFAULT_CHUNK)
}

pub fn run(args: &Args) -> Outcome {
    let mut setup = SetupTimer::default();
    setup.repeat(start_rig, drop);
    let mut rig = setup.once(start_rig);
    let mut outcome = Outcome::default();

    // `eval` call pairs (mux, then alu4) and `seqeval` rounds (every
    // design once), interleaved so that both see the host alike over the
    // whole run; pairs get about 60% of the time.
    let t_run = Instant::now();
    let (mut eval_time, mut seq_time) = (0.0, 0.0);
    let mut pair_rates = Vec::new();
    let mut results = Vec::new();
    let mut round_us = Vec::new();
    let mut seq_results = Vec::new();
    while pair_rates.is_empty() || round_us.is_empty() || secs(t_run) < args.seconds {
        if eval_time <= 1.5 * seq_time {
            let t_pair = Instant::now();
            let mut transitions = 0;
            for (c, (_, kernel)) in rig.comb.iter().enumerate() {
                let patterns = eval_patterns(args.seed, 2 * pair_rates.len() + c, kernel);
                let summary = rig.ctx.evaluate(kernel, &patterns, 0);
                transitions += summary.transitions;
                results.push(summary);
            }
            let pair = secs(t_pair);
            eval_time += pair;
            pair_rates.push(transitions as f64 / pair);
        } else {
            let r = round_us.len();
            let t = Instant::now();
            let round: Vec<SeqSummary> = rig
                .seqs
                .iter()
                .enumerate()
                .map(|(d, model)| model.eval_fused(&seq_patterns(args.seed, r, d, model)))
                .collect();
            seq_time += secs(t);
            round_us.push(secs(t) * 1e6);
            seq_results.push(round);
        }
    }

    // Correctness gate, outside the timed phases.
    if args.inject_fault {
        results[0].sum_ff = f64::from_bits(results[0].sum_ff.to_bits() ^ 1);
    }
    for (k, got) in results.iter().enumerate() {
        let (model, kernel) = &rig.comb[k % 2];
        let want = arena_summary(model, &eval_patterns(args.seed, k, kernel));
        outcome.check(summary_bits(got) == summary_bits(&want));
    }
    for (r, round) in seq_results.iter().enumerate() {
        if r % SEQ_CHECK_EVERY != 0 {
            continue;
        }
        for (d, got) in round.iter().enumerate() {
            let model = &rig.seqs[d];
            let want = model.eval_unfused(&seq_patterns(args.seed, r, d, model), default_jobs());
            outcome.check(seq_bits(got) == seq_bits(&want));
        }
    }
    // Set up again after the measured region, so that the median spans
    // the run (one rig at a time, so that peak memory is one rig's).
    drop(rig);
    setup.repeat(start_rig, drop);

    outcome.metrics = vec![
        // Over call pairs, the interquartile mean of the pair's transition
        // rate.
        metric("throughput", iqm(&mut pair_rates), "1/s"),
        metric("op_p50_us", percentile(&mut round_us, 0.50), "us"),
        metric("op_p90_us", percentile(&mut round_us, 0.90), "us"),
        metric("setup_s", setup.median(), "s"),
    ];
    outcome
}

/// Seconds spent in each layer over one ledger pass.
#[derive(Default)]
struct Rows {
    markov: f64,
    pack: f64,
    kernel: f64,
    summarize: f64,
    jobs_overhead: f64,
    fused: f64,
    unfused: f64,
    /// Per circuit: batch kernel seconds and arena walk seconds.
    arena: [(f64, f64); 2],
}

/// One untraced ledger pass, timed as `run` times it.
fn untraced_pass(rig: &mut Rig, seed: u64) -> f64 {
    let t = Instant::now();
    for k in 0..LEDGER_EVAL_CALLS {
        let (_, kernel) = &rig.comb[k % 2];
        let patterns = eval_patterns(seed, k, kernel);
        std::hint::black_box(rig.ctx.evaluate(kernel, &patterns, 0));
    }
    for r in 0..LEDGER_SEQ_ROUNDS {
        for (d, model) in rig.seqs.iter().enumerate() {
            std::hint::black_box(model.eval_fused(&seq_patterns(seed, r, d, model)));
        }
    }
    secs(t)
}

/// One `eval` call taken apart: pattern generation, then the single-job
/// engine's chunk walk (pack, kernel, summarize), then the default-job
/// engine whose excess over that walk is the sharding overhead.
fn traced_eval(rig: &Rig, seed: u64, k: usize, rows: &mut Rows, outcome: &mut Outcome) {
    let (model, kernel) = &rig.comb[k % 2];
    let t = Instant::now();
    let patterns = eval_patterns(seed, k, kernel);
    rows.markov += secs(t);

    let transitions = patterns.len() - 1;
    let mut values = vec![0.0f64; transitions];
    let (mut pack, mut eval) = (0.0, 0.0);
    for (ci, out) in values.chunks_mut(DEFAULT_CHUNK).enumerate() {
        let start = ci * DEFAULT_CHUNK;
        let t = Instant::now();
        let block = PatternBlock::from_patterns(kernel, &patterns[start..=start + out.len()]);
        pack += secs(t);
        let t = Instant::now();
        kernel.eval_batch_into(&block, out);
        eval += secs(t);
    }
    let t = Instant::now();
    let staged = TraceSummary::from_values(&values, DEFAULT_CHUNK);
    let summarize = secs(t);

    let t = Instant::now();
    let engine = TraceEngine::new(kernel)
        .jobs(default_jobs())
        .evaluate(&patterns);
    let default_s = secs(t);

    let t = Instant::now();
    let arena = model.capacitance_trace(&patterns);
    rows.arena[k % 2].1 += secs(t);
    rows.arena[k % 2].0 += eval;

    rows.pack += pack;
    rows.kernel += eval;
    rows.summarize += summarize;
    rows.jobs_overhead += default_s - (pack + eval + summarize);
    let want = TraceSummary::from_values(&arena, DEFAULT_CHUNK);
    outcome.check(summary_bits(&staged) == summary_bits(&want));
    outcome.check(summary_bits(&engine) == summary_bits(&want));
}

/// One design of a `seqeval` round taken apart: pattern generation, the
/// fused walk, and the reduction `eval_fused` applies to it; the unfused
/// path is timed beside it (not part of the reconciled sum).
fn traced_seq(rig: &Rig, seed: u64, r: usize, d: usize, rows: &mut Rows) -> bool {
    let model = &rig.seqs[d];
    let t = Instant::now();
    let patterns = seq_patterns(seed, r, d, model);
    rows.markov += secs(t);

    let t = Instant::now();
    let fused = model.trace_fused(&patterns);
    rows.fused += secs(t);

    let t = Instant::now();
    let total = SeqModel::fold_total(patterns.len() - 1, &fused);
    for values in std::iter::once(&total).chain(&fused) {
        std::hint::black_box(TraceSummary::from_values(values, DEFAULT_CHUNK));
    }
    rows.summarize += secs(t);

    let t = Instant::now();
    let unfused = model.trace_unfused(&patterns, default_jobs());
    rows.unfused += secs(t);
    let bits = |vs: &[Vec<f64>]| -> Vec<Vec<u64>> {
        vs.iter()
            .map(|v| v.iter().map(|x| x.to_bits()).collect())
            .collect()
    };
    bits(&fused) == bits(&unfused)
}

pub fn ledger(args: &Args) -> Outcome {
    let mut rig = start_rig();
    let mut outcome = Outcome::default();
    let mut passes: Vec<f64> = (0..3).map(|_| untraced_pass(&mut rig, args.seed)).collect();
    let untraced = median(&mut passes);

    let mut rows = Rows::default();
    for k in 0..LEDGER_EVAL_CALLS {
        traced_eval(&rig, args.seed, k, &mut rows, &mut outcome);
    }
    for r in 0..LEDGER_SEQ_ROUNDS {
        for d in 0..rig.seqs.len() {
            let mut ok = traced_seq(&rig, args.seed, r, d, &mut rows);
            if args.inject_fault && r == 0 && d == 0 {
                ok = false;
            }
            outcome.check(ok);
        }
    }

    let accounted =
        rows.markov + rows.pack + rows.kernel + rows.summarize + rows.jobs_overhead + rows.fused;
    outcome.metrics = vec![
        metric("sim.markov_s", rows.markov, "s"),
        metric("engine.pack_s", rows.pack, "s"),
        metric("engine.kernel_s", rows.kernel, "s"),
        metric("engine.summarize_s", rows.summarize, "s"),
        metric("engine.jobs_overhead_s", rows.jobs_overhead, "s"),
        metric("seq.fused_s", rows.fused, "s"),
        metric("offline.residual_s", untraced - accounted, "s"),
        metric("offline.untraced_s", untraced, "s"),
        metric("seq.unfused_s", rows.unfused, "s"),
        metric(
            "engine.arena_ratio.mux",
            rows.arena[0].0 / rows.arena[0].1,
            "ratio",
        ),
        metric(
            "engine.arena_ratio.alu4",
            rows.arena[1].0 / rows.arena[1].1,
            "ratio",
        ),
    ];
    outcome
}
