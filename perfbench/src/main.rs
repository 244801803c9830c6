//! The charfree benchmark: one process runs one workload for a fixed
//! time and prints one JSON result line (see `README.md`).
//!
//! ```text
//! charfree-perfbench --workload serve-small|offline|build --seed N
//!                    --seconds S --trace 0|1 [--inject-fault]
//! ```
//!
//! `--trace 0` measures the workload's end-to-end metrics. `--trace 1`
//! runs the per-layer ledger: it replays seeded inputs through the public
//! entry point of each layer and times every call from outside the
//! program. `--inject-fault` corrupts one answer before the correctness
//! gate, which must then fail the run.

#![deny(clippy::unwrap_used)]

mod build;
mod offline;
mod serve_small;

use std::process::ExitCode;
use std::time::Instant;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand for a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one workload run or one ledger section produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations checked against the correctness gate.
    pub attempted: u64,
    /// Operations that failed, were refused or answered wrongly.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts one checked operation; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
    }
}

/// Command-line settings shared by every workload.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub inject_fault: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut inject_fault = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--inject-fault" => inject_fault = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["serve-small", "offline", "build"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        inject_fault,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("charfree-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", provenance(&args));
    let outcome = if args.trace {
        // The ledger replays every layer on every workload, so each
        // per-layer metric is measured on each; every section also times
        // its own untraced path, against which its residual reconciles.
        let mut all = Outcome::default();
        all.absorb(serve_small::ledger(&args));
        all.absorb(offline::ledger(&args));
        all.absorb(build::ledger(&args));
        let ratio = all.failed as f64 / all.attempted.max(1) as f64;
        all.metrics.push(metric("fail_ratio", ratio, "ratio"));
        all
    } else {
        let mut outcome = match args.workload.as_str() {
            "serve-small" => serve_small::run(&args),
            "offline" => offline::run(&args),
            _ => build::run(&args),
        };
        outcome
            .metrics
            .push(metric("peak_rss_mb", peak_rss_mb(), "MB"));
        outcome
    };
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!("{}", result_line(correct, &outcome));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "charfree-perfbench: correctness gate failed: {} of {} operations wrong or refused",
            outcome.failed, outcome.attempted
        );
        ExitCode::from(1)
    }
}

/// What a result must be compared like with like on: the host, the
/// kernel path the engine dispatches to, the code and the toolchain.
fn provenance(args: &Args) -> String {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_owned());
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_cores\": {}, \"avx2_gather\": {}, \"commit\": \"{}\", \"rustc\": \"{}\"}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        default_jobs(),
        avx2_gather(),
        env("PERFBENCH_COMMIT"),
        env("PERFBENCH_RUSTC"),
    )
}

/// Whether `charfree-engine` runs its AVX2 gather body here: the same
/// runtime feature test its dispatch makes.
fn avx2_gather() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn result_line(correct: bool, outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            // `{:?}` prints the shortest form that reads back exactly, and
            // always with a decimal point or exponent; JSON has no NaN.
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_owned()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Set-up timing. The set-up is repeated before and after the measured
/// region, so that its median spans the host conditions the run saw.
#[derive(Default)]
pub struct SetupTimer {
    times: Vec<f64>,
}

impl SetupTimer {
    /// Times one set-up and keeps its result.
    pub fn once<T>(&mut self, make: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let value = make();
        self.times.push(secs(t));
        value
    }

    /// Times further set-ups, handing each result to `discard`: at least
    /// one, and more until a quarter second is spent (at most 100), so a
    /// cheap set-up still yields a steady median.
    pub fn repeat<T>(&mut self, mut make: impl FnMut() -> T, mut discard: impl FnMut(T)) {
        let started = Instant::now();
        for _ in 0..100 {
            let value = self.once(&mut make);
            discard(value);
            if secs(started) >= 0.25 {
                break;
            }
        }
    }

    /// Median set-up time in seconds.
    pub fn median(mut self) -> f64 {
        median(&mut self.times)
    }
}

/// Interquartile mean: the mean of the middle half of `xs` (sorted in
/// place). It follows a mixture of fast and slow stretches of the host
/// smoothly, where a median jumps between them, and ignores stalls.
pub fn iqm(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    let cut = n / 4;
    mean(&xs[cut..n - cut])
}

/// Median of `xs` (sorted in place); NaN when empty.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of `xs` (sorted in place).
pub fn percentile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Mean of `xs`; NaN when empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// SplitMix64: derives independent, reproducible sub-seeds from the
/// workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Markov statistics `(sp, st)` with `st` inside the feasible
/// range `[0, 2·min(sp, 1−sp)]` that `MarkovSource::new` accepts.
pub fn statistics(seed: u64) -> (f64, f64) {
    let unit = |z: u64| (z >> 11) as f64 / (1u64 << 53) as f64;
    let sp = 0.3 + 0.4 * unit(mix(seed, 1));
    let st = 2.0 * sp.min(1.0 - sp) * (0.2 + 0.7 * unit(mix(seed, 2)));
    (sp, st)
}

/// The default evaluation job count of the `charfree` CLI (one worker
/// per available core).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}
