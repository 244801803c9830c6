//! Regenerates `BENCH_engine.json`: evaluation throughput of the
//! compiled-kernel engine versus per-pattern arena traversal, per
//! circuit, with parallel scaling.
//!
//! ```text
//! cargo run --release -p charfree-bench --bin engine_throughput
//!     [-- circuit ...]  subset of {decod, cm85, cm150, mux, seqpipe2}
//!     [--vectors N]     transitions per circuit (default 20000)
//!     [--jobs N]        parallel worker count (default 4)
//!     [--quick]         500 vectors (CI smoke run)
//!     [-o PATH]         output path (default BENCH_engine.json)
//!     [--cache-dir DIR] warm-load models from a content-addressed store
//! ```
//!
//! Every record carries a `parity` flag — the compiled sum is
//! cross-checked against the arena oracle, so a throughput win can never
//! silently come from evaluating a different function.

use charfree_engine::throughput::{host_cores, measure, rate};
use charfree_netlist::benchmarks::committed;
use charfree_netlist::{benchmarks, blif, Library, Netlist};
use charfree_pipeline::{ArtifactStore, BuildOptions, PipelineCtx};
use charfree_seq::SeqModel;
use charfree_sim::MarkovSource;

/// `(netlist, max_nodes)` per measured circuit; budgets follow the
/// Table 1 configurations so the kernels are the models the accuracy
/// experiments actually use.
fn circuits(library: &Library, filter: &[String]) -> Vec<(Netlist, usize)> {
    let all = [
        (benchmarks::decod(library), 0),
        (benchmarks::cm85(library), 500),
        (benchmarks::cm150(library), 1000),
        (benchmarks::mux(library), 1000),
    ];
    all.into_iter()
        .filter(|(n, _)| filter.is_empty() || filter.iter().any(|f| f == n.name()))
        .collect()
}

fn main() {
    let mut vectors = 20_000usize;
    let mut jobs = 4usize;
    let mut out = String::from("BENCH_engine.json");
    let mut cache_dir: Option<String> = None;
    let mut filter: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--vectors" => {
                vectors = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--vectors takes a number");
            }
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--jobs takes a number");
            }
            "--quick" => vectors = 500,
            "-o" => out = args.next().expect("-o takes a path"),
            "--cache-dir" => cache_dir = Some(args.next().expect("--cache-dir takes a path")),
            name => filter.push(name.to_owned()),
        }
    }

    let library = Library::test_library();
    let mut records = Vec::new();
    let (mut cache_hits, mut cache_misses) = (0usize, 0usize);
    for (netlist, max) in circuits(&library, &filter) {
        eprintln!(
            "[run ] {} (n={}, N={}, max={})",
            netlist.name(),
            netlist.num_inputs(),
            netlist.num_gates(),
            if max == 0 {
                "exact".to_owned()
            } else {
                max.to_string()
            }
        );
        let mut options = BuildOptions::default();
        if max > 0 {
            options.max_nodes = Some(max);
        }
        let mut ctx = PipelineCtx::new(library.clone()).with_options(options);
        if let Some(dir) = &cache_dir {
            ctx = ctx.with_store(ArtifactStore::new(dir));
        }
        let model = ctx.build_model(&netlist).expect("known circuits build");
        cache_hits += ctx.telemetry.cache_hits();
        cache_misses += ctx.telemetry.cache_misses();
        let mut source =
            MarkovSource::new(model.num_inputs(), 0.5, 0.5, 7).expect("feasible statistics");
        let patterns = source.sequence(vectors.max(2));
        let record = measure(&model, &patterns, jobs);
        eprintln!(
            "       {} engine: arena {:.0}/s, batch {:.0}/s ({:.1}x), {} jobs {:.0}/s ({:.1}x), parity {}",
            record.engine,
            record.arena_pps,
            record.batch_pps,
            record.speedup_batch(),
            record.jobs,
            record.parallel_pps,
            record.speedup_parallel(),
            record.parity
        );
        records.push(record);
    }

    let mut items: Vec<String> = records.iter().map(|r| r.to_json()).collect();
    let mut all_parity = records.iter().all(|r| r.parity);

    // The fused multi-macro entry: seqpipe2's two macros fed by one
    // walk of the shared trace (`SeqModel::trace_fused`), versus
    // looping the macros one TraceEngine call at a time.
    if filter.is_empty() || filter.iter().any(|f| f == "seqpipe2") {
        let (entry, parity) = fused_seqpipe2_entry(&library, vectors);
        items.push(entry);
        all_parity &= parity;
    }

    let indented: Vec<String> = items
        .iter()
        .map(|body| {
            let lines: Vec<String> = body.lines().map(|l| format!("  {l}")).collect();
            lines.join("\n")
        })
        .collect();
    std::fs::write(&out, format!("[\n{}\n]\n", indented.join(",\n")))
        .expect("write BENCH_engine.json");
    println!("wrote {} records to {out}", items.len());
    if cache_dir.is_some() {
        println!("artifact cache: {cache_hits} hit(s), {cache_misses} miss(es)");
    }
    if !all_parity {
        eprintln!("error: at least one record failed the parity cross-check");
        std::process::exit(1);
    }
}

/// Measures seqpipe2 fused ([`SeqModel::trace_fused`]: one walk of the
/// shared trace packs both macros' blocks, each evaluated with one
/// batch call per flush) against per-macro looping (one
/// single-threaded `TraceEngine` call per macro), returns
/// the JSON record and whether the two traces stayed bit-identical.
fn fused_seqpipe2_entry(library: &Library, vectors: usize) -> (String, bool) {
    let seq = blif::parse_seq(committed::SEQPIPE2).expect("committed seqpipe2 parses");
    let mut ctx = PipelineCtx::new(library.clone());
    let model = SeqModel::build(&mut ctx, seq).expect("seqpipe2 builds");
    let mut source =
        MarkovSource::new(model.seq().num_inputs(), 0.5, 0.5, 7).expect("feasible statistics");
    let patterns = source.sequence(vectors.max(2));
    let transitions = patterns.len() - 1;

    let fused = model.trace_fused(&patterns);
    let looped = model.trace_unfused(&patterns, 1);
    let parity = fused
        .iter()
        .zip(&looped)
        .all(|(a, b)| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));

    // Interleaved best-of-N: the containers this runs in are noisy
    // enough (±30%) that two back-to-back timing blocks can see
    // different host load and invert a real ordering. Alternating
    // passes sample the same load windows; the max over passes
    // estimates unloaded throughput on each side.
    let mut fused_pps = 0f64;
    let mut per_macro_pps = 0f64;
    for _ in 0..5 {
        fused_pps = fused_pps.max(rate(transitions, || {
            std::hint::black_box(model.trace_fused(&patterns));
        }));
        per_macro_pps = per_macro_pps.max(rate(transitions, || {
            std::hint::black_box(model.trace_unfused(&patterns, 1));
        }));
    }
    eprintln!(
        "[run ] seqpipe2 fused {:.0}/s vs per-macro {:.0}/s ({:.2}x), parity {}",
        fused_pps,
        per_macro_pps,
        fused_pps / per_macro_pps.max(1e-9),
        parity
    );
    let entry = format!(
        concat!(
            "{{\n",
            "  \"circuit\": \"seqpipe2\",\n",
            "  \"mode\": \"fused_multi_macro\",\n",
            "  \"macros\": {},\n",
            "  \"transitions\": {},\n",
            "  \"host_cores\": {},\n",
            "  \"fused_patterns_per_sec\": {:.1},\n",
            "  \"per_macro_patterns_per_sec\": {:.1},\n",
            "  \"fused_speedup\": {:.2},\n",
            "  \"parity\": {}\n",
            "}}"
        ),
        model.num_macros(),
        transitions,
        host_cores(),
        fused_pps,
        per_macro_pps,
        fused_pps / per_macro_pps.max(1e-9),
        parity
    );
    (entry, parity)
}
