//! Differential kernel-equivalence battery.
//!
//! Each kernel's batch engine — the SoA gather for small kernels, the
//! lane walk for large ones — stands in for the arena model on every
//! hot path; these tests are the contract that it computes the *same
//! function, bit for bit*. For
//! seeded random circuits from the conform generator, exact cm85 and
//! mux (walk-shaped), and the committed corpus, every case asserts via
//! `f64::to_bits`:
//!
//! * arena model ≡ reference walk ≡ the kernel's batch engine, per
//!   transition (the arena is the independent oracle where the batch
//!   engine *is* the walk), on gather, walk and constant kernels with
//!   ragged trace lengths;
//! * 1-job ≡ 4-job [`TraceEngine`] shards (the pinned chunked-sum
//!   association makes worker count invisible in the summary bits);
//! * degraded (`Average`) and upper-bound (`UpperBound`) collapsed
//!   models conform exactly like exact ones.
//!
//! The fixed-seed smoke tier (~64 cases) runs in the main CI workflow;
//! the `#[ignore]`d full sweep is the nightly job's tier.

use charfree_conform::case_spec;
use charfree_conform::corpus::load_corpus;
use charfree_core::{AddPowerModel, ApproxStrategy, ModelBuilder, PowerModel};
use charfree_engine::{BatchEngine, Kernel, PatternBlock, TraceEngine};
use charfree_netlist::{benchmarks, blif, Library, Netlist};
use charfree_sim::MarkovSource;
use std::path::PathBuf;

/// The sp/st operating points cases cycle through (all feasible for
/// the Markov source).
const OPERATING_POINTS: [(f64, f64); 4] = [(0.5, 0.4), (0.3, 0.2), (0.7, 0.5), (0.5, 0.05)];

fn committed_corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Exact benchmark circuits checked beside the generated ones (with
/// their degraded and upper-bound variants): large enough that their
/// exact kernels are walk-shaped.
const WALK_BENCHMARKS: [&str; 2] = ["cm85", "mux"];

/// Asserts arena ≡ reference ≡ batch engine per transition and 1-job ≡
/// 4-job summaries, all via `to_bits`. Returns the kernel.
fn check_engines_agree(name: &str, model: &AddPowerModel, patterns: &[Vec<bool>]) -> Kernel {
    let kernel = Kernel::compile(model);
    let block = PatternBlock::from_patterns(&kernel, patterns);
    let transitions = patterns.len().saturating_sub(1);

    let arena = model.capacitance_trace(patterns);
    let mut reference = vec![0.0; transitions];
    kernel.eval_batch_reference_into(&block, &mut reference);
    let batch = kernel.eval_batch(&block);
    let engine = kernel.batch_engine();
    assert_eq!(arena.len(), reference.len(), "{name}: length");
    assert_eq!(batch.len(), reference.len(), "{name}: length");
    for (t, ((a, r), b)) in arena.iter().zip(&reference).zip(&batch).enumerate() {
        assert_eq!(
            a.to_bits(),
            r.to_bits(),
            "{name}: arena vs reference diverge at transition {t} ({a} vs {r})"
        );
        assert_eq!(
            r.to_bits(),
            b.to_bits(),
            "{name}: reference vs {engine} engine diverge at transition {t} ({r} vs {b})"
        );
    }

    let one = TraceEngine::new(&kernel).jobs(1).evaluate(patterns);
    let four = TraceEngine::new(&kernel).jobs(4).evaluate(patterns);
    assert_eq!(
        one.sum_ff.to_bits(),
        four.sum_ff.to_bits(),
        "{name}: 1-job vs 4-job shard sums diverge"
    );
    assert_eq!(
        one.max_ff.to_bits(),
        four.max_ff.to_bits(),
        "{name}: 1-job vs 4-job shard maxima diverge"
    );
    kernel
}

/// Checks `netlist` exact, degraded (`Average`) and upper-bounded on
/// `patterns`, counting each kernel's engine into `engines` (gather,
/// walk). Returns the exact kernel.
fn check_variants(
    name: &str,
    netlist: &Netlist,
    patterns: &[Vec<bool>],
    engines: &mut [usize; 2],
) -> Kernel {
    let exact = ModelBuilder::new(netlist).build();
    let max_nodes = (exact.size() / 2).max(1);
    let degraded = ModelBuilder::new(netlist)
        .build()
        .shrink(max_nodes, ApproxStrategy::Average);
    let upper = ModelBuilder::new(netlist)
        .build()
        .shrink(max_nodes, ApproxStrategy::UpperBound);
    let mut count = |kernel: &Kernel| match kernel.batch_engine() {
        BatchEngine::Gather => engines[0] += 1,
        BatchEngine::Walk => engines[1] += 1,
    };
    let kernel = check_engines_agree(name, &exact, patterns);
    count(&kernel);
    count(&check_engines_agree(
        &format!("{name}/degraded"),
        &degraded,
        patterns,
    ));
    count(&check_engines_agree(
        &format!("{name}/upper"),
        &upper,
        patterns,
    ));
    kernel
}

/// One sweep tier: `cases` generated circuits plus [`WALK_BENCHMARKS`],
/// each checked exact, degraded (`Average`), and upper-bounded, plus
/// a constant kernel. Every tier must run both engines.
fn sweep(cases: usize, seed: u64, vectors: usize) {
    let library = Library::test_library();
    let mut engines = [0usize; 2];
    for i in 0..cases {
        let spec = case_spec(seed, i);
        let netlist = spec.build(&library).expect("generated circuits build");
        let (sp, st) = OPERATING_POINTS[i % OPERATING_POINTS.len()];
        let mut source = MarkovSource::new(netlist.num_inputs(), sp, st, seed ^ (0xE0 + i as u64))
            .expect("feasible statistics");
        // Ragged lengths around the 64-lane group and 256-lane chunk
        // boundaries, so partial groups and inert trailing groups are
        // always in play.
        let patterns = source.sequence(2 + (vectors + 37 * i) % (4 * vectors));
        check_variants(&spec.name, &netlist, &patterns, &mut engines);
    }
    for (i, name) in WALK_BENCHMARKS.iter().enumerate() {
        let netlist = benchmarks::by_name(name, &library).expect("known benchmark");
        let (sp, st) = OPERATING_POINTS[i % OPERATING_POINTS.len()];
        let mut source = MarkovSource::new(netlist.num_inputs(), sp, st, seed ^ (0xB0 + i as u64))
            .expect("feasible statistics");
        let patterns = source.sequence(2 + vectors + 61 * i);
        let kernel = check_variants(name, &netlist, &patterns, &mut engines);
        assert_eq!(kernel.batch_engine(), BatchEngine::Walk, "exact {name}");
    }
    assert!(
        engines[0] > 0 && engines[1] > 0,
        "every tier runs both batch engines (gather, walk): {engines:?}"
    );
    let constant = ModelBuilder::new(&benchmarks::decod(&library))
        .build()
        .shrink(1, ApproxStrategy::Average);
    let mut source = MarkovSource::new(constant.num_inputs(), 0.5, 0.4, seed ^ 0xC0)
        .expect("feasible statistics");
    let patterns = source.sequence(2 + vectors / 2);
    let kernel = check_engines_agree("constant", &constant, &patterns);
    assert_eq!(kernel.num_instrs(), 0, "shrink(1) collapses to a constant");
}

/// The CI smoke tier: 64 fixed-seed cases (x3 model variants each).
#[test]
fn kernel_equivalence_fixed_seed_smoke() {
    sweep(64, 0xC0FFEE, 24);
}

/// The nightly tier: a much larger sweep with longer traces.
#[test]
#[ignore = "nightly-scale sweep; run with --ignored"]
fn kernel_equivalence_full_sweep() {
    sweep(384, 0xC0FFEE, 96);
    sweep(128, 0xD15EA5E, 48);
}

/// Every committed combinational corpus repro replays through the
/// arena ≡ reference ≡ batch engine battery on its recorded trace
/// (sequential repros go through the sequential lattice in the conform
/// sweep instead — the fused path is exercised there via
/// `trace_fused`).
#[test]
fn corpus_repros_replay_through_all_engines() {
    let repros = load_corpus(&committed_corpus_dir()).expect("committed corpus loads");
    assert!(repros.len() >= 2, "committed corpus went missing");
    let mut replayed = 0usize;
    for repro in &repros {
        if repro.blif.contains(".latch") {
            continue;
        }
        let netlist = blif::parse(&repro.blif).expect("corpus BLIF parses");
        let model = ModelBuilder::new(&netlist).build();
        check_engines_agree(&repro.name, &model, &repro.patterns);
        replayed += 1;
    }
    assert!(replayed >= 2, "expected combinational repros to replay");
}

/// Regenerates the kernel-equivalence corpus entries (committed under
/// `corpus/`): a 33-input random DAG — a kernel whose variable count
/// exceeds the 64 pattern words of one `u64`-pair chunk budget
/// (`2·33 > 64`) — and a mux tree whose kernel skips selector
/// variables on most paths. Every candidate is validated through the
/// full conform oracle *before* being written, since corpus replay
/// runs every layer, not just the engines. Run with `--ignored` and
/// commit the output when the format changes.
#[test]
#[ignore = "regenerates committed corpus entries"]
fn regenerate_kernel_equiv_corpus() {
    use charfree_conform::corpus::Repro;
    use charfree_conform::gen::{CircuitSpec, GenConfig};
    use charfree_conform::oracle::Oracle;

    let library = Library::test_library();
    let dir = committed_corpus_dir();
    let workdir =
        std::env::temp_dir().join(format!("charfree-kequiv-regen-{}", std::process::id()));
    let mut oracle = Oracle::new(&workdir, false).expect("oracle starts");
    let wide = CircuitSpec::random(
        "wide33",
        0xDEE9,
        &GenConfig {
            num_inputs: 33,
            num_gates: 40,
            window: 8,
        },
    );
    for (spec, seed, sp, st) in [
        (wide, 0xDEE9u64, 0.5, 0.4),
        (CircuitSpec::mux_tree(3), 0x5E1Cu64, 0.3, 0.2),
    ] {
        let netlist = spec.build(&library).expect("corpus circuits build");
        let mut source =
            MarkovSource::new(netlist.num_inputs(), sp, st, seed).expect("feasible statistics");
        // Crosses the 64-lane group boundary; long enough for the
        // oracle's statistical bracket checks.
        let patterns = source.sequence(81);
        let text = blif::write(&netlist);
        oracle
            .check_text(&format!("regen-{}", spec.name), &text, &patterns)
            .expect("candidate corpus entry passes the full oracle");
        let repro = Repro {
            name: format!("kernel-{}", spec.name),
            seed,
            sp,
            st,
            blif: text,
            patterns,
        };
        let path = repro.write_to(&dir).expect("corpus write");
        println!("wrote {}", path.display());
    }
    oracle.finish();
    let _ = std::fs::remove_dir_all(&workdir);
}
