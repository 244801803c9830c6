//! Throughput measurement harness (`charfree throughput`,
//! `BENCH_engine.json`).
//!
//! Times the same transition stream through three evaluation paths —
//! per-pattern arena traversal on the [`AddPowerModel`] (the reference
//! oracle), single-threaded compiled batch evaluation, and the parallel
//! [`TraceEngine`](crate::TraceEngine) — and reports patterns/second plus
//! kernel compile cost, footprint and batch engine. Every run checks
//! the compiled summary against the arena trace reduced with the same
//! chunk association, bit for bit, so a speedup can never silently come
//! from computing something else.

use crate::engine::{TraceEngine, TraceSummary, DEFAULT_CHUNK};
use crate::kernel::{BatchEngine, Kernel};
use charfree_core::{AddPowerModel, PowerModel};
use std::time::Instant;

/// Repeat each timed path until at least this much wall-clock has been
/// spent, so small circuits and smoke tests still report stable rates.
const MIN_SECONDS: f64 = 0.05;

/// One throughput measurement — the record serialised into
/// `BENCH_engine.json`.
#[derive(Debug, Clone)]
pub struct ThroughputRecord {
    /// Circuit / model display name.
    pub circuit: String,
    /// Macro input count `n`.
    pub inputs: usize,
    /// Source diagram size (nodes, terminals included) in the arena.
    pub add_nodes: usize,
    /// Compiled kernel instruction count.
    pub kernel_instrs: usize,
    /// Distinct terminal values in the kernel table.
    pub kernel_terminals: usize,
    /// Kernel memory footprint in bytes.
    pub kernel_bytes: usize,
    /// The batch engine the kernel's shape chose.
    pub engine: BatchEngine,
    /// Wall-clock seconds spent in [`Kernel::compile`].
    pub compile_seconds: f64,
    /// Transitions per timed repetition.
    pub transitions: usize,
    /// Worker count used by the parallel path.
    pub jobs: usize,
    /// Logical cores available on the measuring host — so a 1-core CI
    /// run's `parallel_scaling` is never misread as a regression.
    pub host_cores: usize,
    /// Patterns/second, per-pattern arena traversal.
    pub arena_pps: f64,
    /// Patterns/second, compiled batch evaluation (one thread).
    pub batch_pps: f64,
    /// Patterns/second, compiled batch evaluation (`jobs` threads).
    pub parallel_pps: f64,
    /// Mean switched capacitance (fF) from the arena path.
    pub mean_ff_arena: f64,
    /// Mean switched capacitance (fF) from the compiled paths.
    pub mean_ff_compiled: f64,
    /// `true` when the compiled sum and maximum matched the arena
    /// trace's, reduced with the same chunk association, bit for bit.
    pub parity: bool,
}

impl ThroughputRecord {
    /// Compiled single-thread speedup over the arena path.
    pub fn speedup_batch(&self) -> f64 {
        self.batch_pps / self.arena_pps
    }

    /// Parallel speedup over the arena path.
    pub fn speedup_parallel(&self) -> f64 {
        self.parallel_pps / self.arena_pps
    }

    /// Parallel scaling over the single-threaded compiled path.
    pub fn scaling(&self) -> f64 {
        self.parallel_pps / self.batch_pps
    }

    /// Serialises the record as a JSON object (the workspace vendors no
    /// serde; the format is flat enough to emit by hand).
    pub fn to_json(&self) -> String {
        let esc: String = self
            .circuit
            .chars()
            .flat_map(|c| match c {
                '"' | '\\' => vec!['\\', c],
                c if c.is_control() => " ".chars().collect(),
                c => vec![c],
            })
            .collect();
        format!(
            concat!(
                "{{\n",
                "  \"circuit\": \"{}\",\n",
                "  \"inputs\": {},\n",
                "  \"add_nodes\": {},\n",
                "  \"kernel_instrs\": {},\n",
                "  \"kernel_terminals\": {},\n",
                "  \"kernel_bytes\": {},\n",
                "  \"engine\": \"{}\",\n",
                "  \"compile_seconds\": {:.6},\n",
                "  \"transitions\": {},\n",
                "  \"jobs\": {},\n",
                "  \"host_cores\": {},\n",
                "  \"arena_patterns_per_sec\": {:.1},\n",
                "  \"batch_patterns_per_sec\": {:.1},\n",
                "  \"parallel_patterns_per_sec\": {:.1},\n",
                "  \"speedup_batch\": {:.2},\n",
                "  \"speedup_parallel\": {:.2},\n",
                "  \"parallel_scaling\": {:.2},\n",
                "  \"mean_ff_arena\": {:.6},\n",
                "  \"mean_ff_compiled\": {:.6},\n",
                "  \"parity\": {}\n",
                "}}"
            ),
            esc,
            self.inputs,
            self.add_nodes,
            self.kernel_instrs,
            self.kernel_terminals,
            self.kernel_bytes,
            self.engine,
            self.compile_seconds,
            self.transitions,
            self.jobs,
            self.host_cores,
            self.arena_pps,
            self.batch_pps,
            self.parallel_pps,
            self.speedup_batch(),
            self.speedup_parallel(),
            self.scaling(),
            self.mean_ff_arena,
            self.mean_ff_compiled,
            self.parity,
        )
    }
}

/// Serialises several records as a JSON array.
pub fn records_to_json(records: &[ThroughputRecord]) -> String {
    let items: Vec<String> = records
        .iter()
        .map(|r| {
            let body = r.to_json();
            let indented: Vec<String> = body.lines().map(|l| format!("  {l}")).collect();
            indented.join("\n")
        })
        .collect();
    format!("[\n{}\n]\n", items.join(",\n"))
}

/// Logical cores available to this process (1 if detection fails) —
/// recorded next to every throughput number.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `body` repeatedly until [`MIN_SECONDS`] of wall-clock have
/// elapsed; returns the achieved rate in `units_per_rep / second`.
pub fn rate(units_per_rep: usize, mut body: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut reps = 0usize;
    loop {
        body();
        reps += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= MIN_SECONDS {
            return (units_per_rep * reps) as f64 / elapsed;
        }
    }
}

/// Measures `model` over the `patterns.len() − 1` transitions of a
/// pattern stream.
///
/// # Panics
///
/// Panics for fewer than two patterns (no transitions to time).
pub fn measure(model: &AddPowerModel, patterns: &[Vec<bool>], jobs: usize) -> ThroughputRecord {
    assert!(patterns.len() >= 2, "need at least one transition");
    let transitions = patterns.len() - 1;

    let compile_start = Instant::now();
    let kernel = Kernel::compile(model);
    let compile_seconds = compile_start.elapsed().as_secs_f64();

    // Parity baseline: the arena oracle's trace, reduced with the
    // engine's chunk association.
    let arena = TraceSummary::from_values(&model.capacitance_trace(patterns), DEFAULT_CHUNK);

    let single = TraceEngine::new(&kernel).jobs(1);
    let many = TraceEngine::new(&kernel).jobs(jobs);
    let compiled = single.evaluate(patterns);
    let parity = compiled.sum_ff.to_bits() == arena.sum_ff.to_bits()
        && compiled.max_ff.to_bits() == arena.max_ff.to_bits();

    let arena_pps = rate(transitions, || {
        let mut sum = 0.0;
        for t in 0..transitions {
            sum += model
                .capacitance(&patterns[t], &patterns[t + 1])
                .femtofarads();
        }
        std::hint::black_box(sum);
    });
    let batch_pps = rate(transitions, || {
        std::hint::black_box(single.evaluate(patterns).sum_ff);
    });
    let parallel_pps = rate(transitions, || {
        std::hint::black_box(many.evaluate(patterns).sum_ff);
    });

    ThroughputRecord {
        circuit: model.name().to_owned(),
        inputs: model.num_inputs(),
        add_nodes: model.size(),
        kernel_instrs: kernel.num_instrs(),
        kernel_terminals: kernel.num_terminals(),
        kernel_bytes: kernel.bytes(),
        engine: kernel.batch_engine(),
        compile_seconds,
        transitions,
        jobs: many.num_jobs(),
        host_cores: host_cores(),
        arena_pps,
        batch_pps,
        parallel_pps,
        mean_ff_arena: arena.mean_ff(),
        mean_ff_compiled: compiled.mean_ff(),
        parity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charfree_core::ModelBuilder;
    use charfree_netlist::{benchmarks, Library};
    use charfree_sim::MarkovSource;

    #[test]
    fn measure_reports_parity_and_positive_rates() {
        let library = Library::test_library();
        // decod is gather-shaped; exact parity (~3.7k instructions over
        // depth 32) is walk-shaped.
        for (netlist, engine) in [
            (benchmarks::decod(&library), BatchEngine::Gather),
            (benchmarks::parity(&library), BatchEngine::Walk),
        ] {
            let model = ModelBuilder::new(&netlist).build();
            let mut source = MarkovSource::new(model.num_inputs(), 0.5, 0.4, 9).expect("feasible");
            let patterns = source.sequence(257);
            let record = measure(&model, &patterns, 2);
            assert_eq!(record.engine, engine, "{}", record.circuit);
            assert!(record.parity, "compiled summary diverged from arena trace");
            assert_eq!(
                record.mean_ff_compiled.to_bits(),
                record.mean_ff_arena.to_bits()
            );
            assert!(record.arena_pps > 0.0);
            assert!(record.batch_pps > 0.0);
            assert!(record.parallel_pps > 0.0);
            assert_eq!(record.transitions, 256);
            assert!(record.host_cores >= 1, "at least the running core");
            let json = record.to_json();
            assert!(json.contains("\"circuit\""));
            assert!(json.contains("\"host_cores\""));
            assert!(json.contains(&format!("\"engine\": \"{engine}\"")));
            assert!(json.contains("\"parity\": true"));
            let arr = records_to_json(&[record.clone(), record]);
            assert!(arr.starts_with("[\n"));
            assert!(arr.trim_end().ends_with(']'));
        }
    }
}
