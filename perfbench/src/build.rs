//! `build`: the Table-1 average-model suite at the paper's `MAX` budgets,
//! built from BLIF through `PipelineCtx` into a fresh `ArtifactStore`
//! (cold: symbolic work plus journaled publishes), then loaded by a
//! second context on the same store (warm: parse, canonical key and
//! `.cfk` load).
//!
//! k2 is left out: one build takes about three minutes, longer than a
//! whole run may last.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use charfree_bench::{max_nodes_options, TABLE1_MAX};
use charfree_engine::{Kernel, TraceEngine};
use charfree_netlist::{benchmarks, blif, Library};
use charfree_pipeline::{
    ArtifactKey, ArtifactKind, ArtifactStore, BuildOptions, CacheLookup, PipelineCtx, Source, Stage,
};
use charfree_sim::MarkovSource;

use crate::{median, mix, percentile, secs, statistics, SetupTimer};
use crate::{metric, Args, Outcome};

/// Where build inputs and stores live, relative to the checkout root.
const WORK_ROOT: &str = ".bench_work";
/// Vectors of the sampled trace that compares warm kernels with cold ones.
const CHECK_VECTORS: usize = 1024;

/// The suite's inputs, written where a user keeps them.
struct Rig {
    library: Library,
    dir: PathBuf,
    /// `(BLIF path, MAX)` per suite circuit.
    inputs: Vec<(PathBuf, usize)>,
}

impl Drop for Rig {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
        // Succeeds only once no other process works there.
        let _ = fs::remove_dir(WORK_ROOT);
    }
}

/// Set-up: the suite's netlists as BLIF files, in a work directory of
/// this process named by `tag`, inside the checkout.
fn start_rig(tag: &str) -> Rig {
    let library = Library::test_library();
    let dir = PathBuf::from(WORK_ROOT).join(format!("build-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let inputs_dir = dir.join("inputs");
    fs::create_dir_all(&inputs_dir).expect("work directory is writable");
    let inputs = TABLE1_MAX
        .iter()
        .filter(|(name, _, _)| *name != "k2")
        .map(|&(name, avg_max, _)| {
            let netlist = benchmarks::by_name(name, &library).expect("Table-1 circuit exists");
            let path = inputs_dir.join(format!("{name}.blif"));
            fs::write(&path, blif::write(&netlist)).expect("input is writable");
            (path, avg_max)
        })
        .collect();
    Rig {
        library,
        dir,
        inputs,
    }
}

/// What getting one model's kernel took and reported.
struct Built {
    seconds: f64,
    kernel: Kernel,
    cache_hits: usize,
    cache_misses: usize,
    apply_steps: u64,
}

/// Model `m` of the suite as one `charfree` invocation gets it: a fresh
/// context on `store` with the model's `MAX`.
fn build(rig: &Rig, store: &Path, m: usize) -> Built {
    let (path, max) = &rig.inputs[m];
    let t = Instant::now();
    let mut ctx = PipelineCtx::new(rig.library.clone())
        .with_options(max_nodes_options(*max))
        .with_store(ArtifactStore::new(store));
    let kernel = ctx
        .kernel_for(&Source::NetlistFile(path.clone()))
        .expect("suite circuit builds");
    Built {
        seconds: secs(t),
        kernel,
        cache_hits: ctx.telemetry.cache_hits(),
        cache_misses: ctx.telemetry.cache_misses(),
        apply_steps: ctx.apply_steps(),
    }
}

/// One pass over the suite on `store`.
fn pass(rig: &Rig, store: &Path) -> Vec<Built> {
    (0..rig.inputs.len())
        .map(|m| build(rig, store, m))
        .collect()
}

fn seconds_of(pass: &[Built]) -> f64 {
    pass.iter().map(|b| b.seconds).sum()
}

/// Bit patterns of `kernel`'s trace over a seeded sample.
fn sample(kernel: &Kernel, seed: u64, i: usize) -> Vec<u64> {
    let s = mix(seed, 3_000_000 + i as u64);
    let (sp, st) = statistics(s);
    let patterns = MarkovSource::new(kernel.num_inputs(), sp, st, mix(s, 7))
        .expect("feasible statistics")
        .sequence(CHECK_VECTORS);
    TraceEngine::new(kernel)
        .trace(&patterns)
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// The correctness gate's cheap half, for every warm load: a cache hit
/// with no symbolic work redone.
fn check_loaded(warm: &[Built], outcome: &mut Outcome) {
    for w in warm {
        outcome.check(w.cache_hits >= 1 && w.apply_steps == 0);
    }
}

/// The correctness gate's sampled half, for one warm pass: every kernel
/// equal to its cold twin on a seeded trace.
fn check_samples(
    cold: &[Built],
    warm: &[Built],
    seed: u64,
    inject_fault: bool,
    outcome: &mut Outcome,
) {
    for (i, (c, w)) in cold.iter().zip(warm).enumerate() {
        let mut got = sample(&w.kernel, seed, i);
        if inject_fault && i == 0 {
            got[0] ^= 1;
        }
        outcome.check(got == sample(&c.kernel, seed, i));
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut setup = SetupTimer::default();
    setup.repeat(|| start_rig("setup"), drop);
    let rig = setup.once(|| start_rig("run"));
    let mut outcome = Outcome::default();
    let models = rig.inputs.len();

    // A first cold pass fills the store the warm passes load from; it is
    // not measured. Then one thread builds the suite cold into fresh
    // stores while another loads it warm, both until the time is used.
    // Keeping both cores busy matters: with one idle, the speed of the
    // other swung far more between runs.
    let t_run = Instant::now();
    let warm_store = rig.dir.join("warm");
    let reference = pass(&rig, &warm_store);
    let mut cold_times: Vec<Vec<f64>> = vec![Vec::new(); models];
    let stop = AtomicBool::new(false);
    let (mut warm_us, last_warm, loaded) = std::thread::scope(|scope| {
        let warm = scope.spawn(|| {
            let mut warm_us = Vec::new();
            let mut loaded = Outcome::default();
            loop {
                let last = pass(&rig, &warm_store);
                warm_us.push(seconds_of(&last) * 1e6);
                check_loaded(&last, &mut loaded);
                if stop.load(Ordering::Relaxed) {
                    return (warm_us, last, loaded);
                }
            }
        });
        for p in 1.. {
            let store = rig.dir.join(format!("cold-{p}"));
            let cold = pass(&rig, &store);
            let _ = fs::remove_dir_all(&store);
            for (m, built) in cold.into_iter().enumerate() {
                cold_times[m].push(built.seconds);
                // Cold builds are deterministic: every pass equals the first.
                let same = sample(&built.kernel, args.seed, m)
                    == sample(&reference[m].kernel, args.seed, m);
                outcome.check(built.cache_misses >= 1 && same);
            }
            let per_pass = secs(t_run) / (p + 1) as f64;
            if secs(t_run) + 0.75 * per_pass >= args.seconds {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        warm.join().expect("warm loader thread")
    });
    outcome.absorb(loaded);
    check_samples(
        &reference,
        &last_warm,
        args.seed,
        args.inject_fault,
        &mut outcome,
    );
    setup.repeat(|| start_rig("setup"), drop);

    // The suite's cold time with each model at its median over passes,
    // so that a stall in one pass moves one model's figure only.
    let cold_suite: f64 = cold_times.iter_mut().map(|t| median(t)).sum();
    outcome.metrics = vec![
        metric("throughput", models as f64 / cold_suite, "1/s"),
        metric("op_p50_us", percentile(&mut warm_us, 0.50), "us"),
        metric("op_p90_us", percentile(&mut warm_us, 0.90), "us"),
        metric("setup_s", setup.median(), "s"),
    ];
    outcome
}

/// Seconds spent in each layer over one cold and one warm pass.
#[derive(Default)]
struct Rows {
    parse: f64,
    annotate: f64,
    build_add: f64,
    collapse: f64,
    compile: f64,
    publish: f64,
    key: f64,
    load: f64,
}

/// The content key `PipelineCtx` files an artifact under.
fn key(
    kind: ArtifactKind,
    canonical: &str,
    library: &Library,
    options: &BuildOptions,
) -> ArtifactKey {
    ArtifactKey::derive(&[
        kind.name(),
        canonical,
        &library.fingerprint(),
        &options.fingerprint(),
    ])
}

pub fn ledger(args: &Args) -> Outcome {
    let rig = start_rig("ledger");
    let mut outcome = Outcome::default();

    // Untraced: one cold and one warm pass, as `run` times them.
    let untraced_store = rig.dir.join("untraced");
    let t = Instant::now();
    let cold = pass(&rig, &untraced_store);
    let warm = pass(&rig, &untraced_store);
    let untraced_s = secs(t);
    let untraced = ArtifactStore::new(&untraced_store);
    check_loaded(&warm, &mut outcome);
    check_samples(&cold, &warm, args.seed, args.inject_fault, &mut outcome);

    // Traced cold pass: the calls `PipelineCtx::compile_kernel` makes,
    // one by one, on a context without a store so that it builds only.
    let store = ArtifactStore::new(rig.dir.join("traced"));
    let mut ctx = PipelineCtx::new(rig.library.clone());
    let mut rows = Rows::default();
    let (mut nodes, mut instrs) = (0usize, 0usize);
    let mut traced = Vec::new();
    for (path, max) in &rig.inputs {
        let options = max_nodes_options(*max);
        ctx = ctx.with_options(options.clone());
        let t = Instant::now();
        let netlist = ctx
            .parse_netlist(&Source::NetlistFile(path.clone()))
            .expect("input parses");
        rows.parse += secs(t);
        let t = Instant::now();
        let netlist = ctx.annotate(netlist);
        rows.annotate += secs(t);
        // Kernel key, then the model key `build_model` derives again.
        let t = Instant::now();
        let kkey = key(
            ArtifactKind::Kernel,
            &blif::write(&netlist),
            &rig.library,
            &options,
        );
        let mkey = key(
            ArtifactKind::Model,
            &blif::write(&netlist),
            &rig.library,
            &options,
        );
        rows.key += secs(t);
        // The keys are derived here as `PipelineCtx` derives them; the
        // untraced pass's real contexts filed both in their store.
        outcome.check(
            matches!(untraced.load_kernel(kkey), CacheLookup::Hit(_))
                && matches!(untraced.load_model(mkey), CacheLookup::Hit(_)),
        );
        let t = Instant::now();
        let misses = matches!(store.load_kernel(kkey), CacheLookup::Miss)
            && matches!(store.load_model(mkey), CacheLookup::Miss);
        rows.load += secs(t);
        let model = ctx.build_model(&netlist).expect("suite circuit builds");
        let t = Instant::now();
        let kernel = Kernel::compile(&model);
        rows.compile += secs(t);
        let t = Instant::now();
        let stored =
            store.store_model(mkey, &model).is_ok() && store.store_kernel(kkey, &kernel).is_ok();
        rows.publish += secs(t);
        outcome.check(misses && stored);
        nodes += model.size();
        instrs += kernel.num_instrs();
        traced.push((kkey, kernel));
    }
    rows.build_add = ctx.telemetry.stage_wall(Stage::BuildAdd).as_secs_f64();
    rows.collapse = ctx.telemetry.stage_wall(Stage::Collapse).as_secs_f64();

    // Traced warm pass: parse, annotate, key, `.cfk` load.
    let mut wctx = PipelineCtx::new(rig.library.clone());
    for (i, ((path, max), (kkey, cold_kernel))) in rig.inputs.iter().zip(&traced).enumerate() {
        let t = Instant::now();
        let netlist = wctx
            .parse_netlist(&Source::NetlistFile(path.clone()))
            .expect("input parses");
        rows.parse += secs(t);
        let t = Instant::now();
        let netlist = wctx.annotate(netlist);
        rows.annotate += secs(t);
        let t = Instant::now();
        let options = max_nodes_options(*max);
        let wkey = key(
            ArtifactKind::Kernel,
            &blif::write(&netlist),
            &rig.library,
            &options,
        );
        rows.key += secs(t);
        let t = Instant::now();
        let loaded = store.load_kernel(wkey);
        rows.load += secs(t);
        outcome.check(match loaded {
            CacheLookup::Hit(kernel) => {
                wkey == *kkey && sample(&kernel, args.seed, i) == sample(cold_kernel, args.seed, i)
            }
            _ => false,
        });
    }

    let layers = [
        ("netlist.parse_s", rows.parse),
        ("netlist.annotate_s", rows.annotate),
        ("core.build_add_s", rows.build_add),
        ("core.collapse_s", rows.collapse),
        ("engine.compile_s", rows.compile),
        ("pipeline.publish_s", rows.publish),
        ("pipeline.key_s", rows.key),
        ("pipeline.load_s", rows.load),
    ];
    let accounted: f64 = layers.iter().map(|(_, v)| v).sum();
    outcome.metrics = layers
        .into_iter()
        .map(|(name, value)| metric(name, value, "s"))
        .collect();
    outcome.metrics.extend([
        metric("build.residual_s", untraced_s - accounted, "s"),
        metric("build.untraced_s", untraced_s, "s"),
        metric("dd.apply_steps", ctx.apply_steps() as f64, "count"),
        metric("core.model_nodes", nodes as f64, "count"),
        metric("engine.kernel_instrs", instrs as f64, "count"),
        metric(
            "pipeline.cache_hits",
            warm.iter().map(|b| b.cache_hits).sum::<usize>() as f64,
            "count",
        ),
        metric(
            "pipeline.cache_misses",
            cold.iter().map(|b| b.cache_misses).sum::<usize>() as f64,
            "count",
        ),
    ]);
    outcome
}
