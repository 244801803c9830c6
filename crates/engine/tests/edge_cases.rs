//! Edge-case kernel lockdown: the shapes the main suites historically
//! missed, pinned for *both* engines (the per-lane reference walk and
//! the SoA gather engine) and the sharded [`TraceEngine`].
//!
//! * constant-function ADDs (single terminal, no variables read);
//! * single-variable kernels (one input, one pair level);
//! * kernels whose variable count exceeds one chunk's 64 pattern-word
//!   pair budget (`n > 32`, so `2n > 64` diagram variables);
//! * the empty (0-transition) trace.
//!
//! Everything asserts through `f64::to_bits` — the engines are not
//! "close", they are the same function.

use charfree_core::{ApproxStrategy, ModelBuilder, PowerModel};
use charfree_engine::{BatchEngine, Kernel, PatternBlock, TraceEngine};
use charfree_netlist::{benchmarks, blif, Library};
use charfree_sim::MarkovSource;

/// A BLIF parity chain over `n` inputs: `n − 1` chained `xor2` gates.
/// Every input is tested on every path, so the kernel has `n` pair
/// levels and `2n` diagram variables.
fn parity_chain_blif(n: usize) -> String {
    let inputs: Vec<String> = (0..n).map(|i| format!("i{i}")).collect();
    let mut text = format!(
        ".model chain{n}\n.inputs {}\n.outputs p{}\n",
        inputs.join(" "),
        n - 2
    );
    for g in 0..n - 1 {
        let a = if g == 0 {
            "i0".to_owned()
        } else {
            format!("p{}", g - 1)
        };
        text.push_str(&format!(".gate xor2 a={a} b=i{} O=p{g}\n", g + 1));
    }
    text.push_str(".end\n");
    text
}

/// Reference ≡ SoA per transition, bit for bit, and both engines
/// against the arena oracle.
fn assert_all_paths_agree(
    name: &str,
    model: &charfree_core::AddPowerModel,
    patterns: &[Vec<bool>],
) {
    let kernel = Kernel::compile(model);
    // Every fixture here is small, so only the constant one is walked
    // and the others compare the walk against the SoA gather.
    assert_eq!(
        kernel.batch_engine() == BatchEngine::Walk,
        kernel.num_instrs() == 0,
        "{name}: batch engine"
    );
    let block = PatternBlock::from_patterns(&kernel, patterns);
    let transitions = patterns.len().saturating_sub(1);

    let mut reference = vec![0.0; transitions];
    kernel.eval_batch_reference_into(&block, &mut reference);
    let soa = kernel.eval_batch(&block);

    for t in 0..transitions {
        let arena = model
            .capacitance(&patterns[t], &patterns[t + 1])
            .femtofarads();
        assert_eq!(
            arena.to_bits(),
            reference[t].to_bits(),
            "{name}: arena vs reference at transition {t}"
        );
        assert_eq!(
            reference[t].to_bits(),
            soa[t].to_bits(),
            "{name}: reference vs SoA at transition {t}"
        );
    }
}

#[test]
fn constant_kernel_single_terminal_all_paths() {
    let library = Library::test_library();
    let model = ModelBuilder::new(&benchmarks::decod(&library))
        .build()
        .shrink(1, ApproxStrategy::Average);
    let kernel = Kernel::compile(&model);
    assert_eq!(
        kernel.num_terminals(),
        1,
        "shrink(1) collapses to a constant"
    );

    let mut source = MarkovSource::new(model.num_inputs(), 0.5, 0.4, 11).expect("valid stats");
    // Lengths straddling the 64-lane group and 256-lane chunk edges.
    for len in [1usize, 2, 63, 64, 65, 255, 256, 257] {
        let patterns = source.sequence(len.max(1) + 1);
        assert_all_paths_agree("constant", &model, &patterns);
    }

    // A constant kernel still reports a well-formed summary.
    let patterns = source.sequence(130);
    let summary = TraceEngine::new(&kernel).jobs(1).evaluate(&patterns);
    assert_eq!(summary.transitions, 129);
    let expected: f64 = (0..129)
        .map(|t| {
            model
                .capacitance(&patterns[t], &patterns[t + 1])
                .femtofarads()
        })
        .sum();
    assert_eq!(summary.sum_ff.to_bits(), expected.to_bits());
}

#[test]
fn single_variable_kernel_all_paths() {
    let netlist = blif::parse(".model one\n.inputs i0\n.outputs o\n.gate inv a=i0 O=o\n.end\n")
        .expect("single-gate BLIF parses");
    let model = ModelBuilder::new(&netlist).build();
    assert_eq!(model.num_inputs(), 1);

    // All four single-input transitions, explicitly.
    let explicit: Vec<Vec<bool>> = vec![
        vec![false],
        vec![false],
        vec![true],
        vec![true],
        vec![false],
    ];
    assert_all_paths_agree("single-var explicit", &model, &explicit);

    let mut source = MarkovSource::new(1, 0.5, 0.4, 13).expect("valid stats");
    for len in [1usize, 64, 65, 300] {
        let patterns = source.sequence(len + 1);
        assert_all_paths_agree("single-var", &model, &patterns);
    }
}

#[test]
fn kernel_levels_exceed_chunk_word_budget() {
    // 40 inputs → 80 diagram variables, beyond the 64 u64 pattern
    // words a single chunk's pair budget would cover if levels were
    // capped at word width. Depth must not corrupt either engine.
    let netlist = blif::parse(&parity_chain_blif(40)).expect("parity chain parses");
    let model = ModelBuilder::new(&netlist).build();
    assert_eq!(model.num_inputs(), 40);

    let mut source = MarkovSource::new(40, 0.5, 0.4, 17).expect("valid stats");
    for len in [1usize, 65, 130] {
        let patterns = source.sequence(len + 1);
        assert_all_paths_agree("deep-chain", &model, &patterns);
    }

    // Degraded deep kernels stay in lockstep too.
    let degraded = ModelBuilder::new(&netlist)
        .build()
        .shrink(20, ApproxStrategy::UpperBound);
    let patterns = source.sequence(100);
    assert_all_paths_agree("deep-chain degraded", &degraded, &patterns);
}

#[test]
fn empty_trace_is_a_no_op_everywhere() {
    let library = Library::test_library();
    let model = ModelBuilder::new(&benchmarks::cm85(&library)).build();
    let kernel = Kernel::compile(&model);

    // Zero patterns and one pattern both mean zero transitions.
    for patterns in [Vec::new(), vec![vec![false; model.num_inputs()]]] {
        let block = PatternBlock::from_patterns(&kernel, &patterns);
        assert_eq!(block.len(), 0);

        let soa = kernel.eval_batch(&block);
        assert!(soa.is_empty());
        let mut reference: Vec<f64> = Vec::new();
        kernel.eval_batch_reference_into(&block, &mut reference);
        assert!(reference.is_empty());

        let summary = TraceEngine::new(&kernel).jobs(4).evaluate(&patterns);
        assert_eq!(summary.transitions, 0);
        assert_eq!(summary.sum_ff.to_bits(), 0f64.to_bits());
        assert_eq!(summary.max_ff.to_bits(), f64::NEG_INFINITY.to_bits());
    }
}
