//! `treelocal-perfbench`: the repository's benchmark.
//!
//! One process runs one workload in a closed loop with one instance in
//! flight on one thread: generate the instance's input (set-up, untimed
//! for the instance), run the public pipeline and verify its output
//! (timed), repeat until the time budget is spent. Instance `i` of a run
//! uses seed `seed + i`. With tracing on, every instance is followed by a
//! traced replay through the public call of each layer (see
//! [`workloads`]); the replay must reproduce the untraced outcome exactly.
//!
//! The host is shared, and its speed drifts by tens of percent from one
//! minute to the next. So a fixed reference job (`HostRef`) is timed
//! right before and after every timed section, and the end-to-end times
//! are quoted host-normalised: wall time × `HOST_REF_NOMINAL_S` ÷ the
//! mean of the two reference times.
//!
//! `perfbench/README.md` documents the workloads and every metric.

#![forbid(unsafe_code)]

pub mod report;
pub mod trace;
pub mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use report::Report;
use trace::Tracer;
use workloads::{Fault, Input, Outcome, Sizes, Workload};

/// Untimed warm-up passes of `suite-quick`, which has no input to
/// generate: its set-up fills caches and finishes lazy initialization.
pub const SUITE_WARMUP_PASSES: usize = 3;

/// Smallest share of a traced instance's wall time its layer spans must
/// cover.
pub const MIN_TRACE_COVERAGE: f64 = 0.95;

/// Nominal seconds of one [`HostRef`] pass: about its fastest time on a
/// 2-vCPU x86-64 VM. Host-normalised times are quoted at this speed.
const HOST_REF_NOMINAL_S: f64 = 0.030;

/// A fixed job that stands in for the host's current speed: fill a buffer
/// of 2^20 words from a fixed xorshift stream and sort it. Like the
/// pipelines it mixes branchy integer work with an 8 MB working set, so
/// it slows down with them when other tenants contend for the core, its
/// caches or the memory bus. It uses none of the repository's code.
#[derive(Debug)]
struct HostRef {
    buf: Vec<u64>,
}

impl HostRef {
    const WORDS: usize = 1 << 20;

    /// Allocates the buffer and runs one untimed pass to fault it in.
    fn new() -> HostRef {
        let mut r = HostRef { buf: vec![0; HostRef::WORDS] };
        r.time();
        r
    }

    /// Wall seconds of one pass.
    fn time(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for w in &mut self.buf {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *w = x;
        }
        self.buf.sort_unstable();
        std::hint::black_box(&self.buf);
        t0.elapsed().as_secs_f64()
    }

    /// `wall_s` host-normalised by the reference times `before` and
    /// `after` taken around it.
    fn normalise(wall_s: f64, before: f64, after: f64) -> f64 {
        wall_s * HOST_REF_NOMINAL_S / ((before + after) / 2.0)
    }
}

/// One benchmark run.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    /// The workload.
    pub workload: Workload,
    /// Seed of the first instance.
    pub seed: u64,
    /// Time budget; instances start until it is spent.
    pub seconds: f64,
    /// Whether to replay every instance traced.
    pub trace: bool,
    /// Instance sizes.
    pub sizes: Sizes,
    /// Instances run even past the time budget.
    pub min_instances: usize,
    /// Corruption to inject (tests of the gate only).
    pub fault: Fault,
}

impl RunOpts {
    /// The benchmark's own settings for `workload`.
    pub fn bench(workload: Workload, seed: u64, seconds: f64, trace: bool) -> RunOpts {
        RunOpts {
            workload,
            seed,
            seconds,
            trace,
            sizes: Sizes::BENCH,
            min_instances: report::ROUNDS_INSTANCES,
            fault: Fault::None,
        }
    }
}

/// Per-instance measurements of a run.
#[derive(Debug, Default)]
pub struct Samples {
    /// Set-up wall seconds (warm-up passes on `suite-quick`).
    pub setup_s: Vec<f64>,
    /// Host-normalised set-up seconds, one per `setup_s`.
    pub setup_norm_s: Vec<f64>,
    /// Untraced instance wall seconds, successful instances only.
    pub instance_s: Vec<f64>,
    /// Host-normalised instance seconds, one per `instance_s`.
    pub instance_norm_s: Vec<f64>,
    /// Every host reference time taken around a timed section.
    pub ref_s: Vec<f64>,
    /// High-water RSS in kB over each instance's timed section.
    pub peak_rss_kb: Vec<u64>,
    /// Tree build seconds.
    pub build_s: Vec<f64>,
    /// Relabel seconds.
    pub relabel_s: Vec<f64>,
    /// `(bytes_ingested, peak_build_bytes)` of the first input.
    pub first_ingest: Option<(u64, u64)>,
    /// Outcome of the first successful instance (warm-up pass on
    /// `suite-quick`).
    pub first: Option<Outcome>,
    /// Executed LOCAL rounds of the successful instances, in order.
    pub rounds: Vec<u64>,
    /// Instances whose traced replay completed, by index.
    pub traced: Vec<usize>,
}

/// Resets the process's high-water RSS to its current RSS.
fn reset_peak_rss() {
    // Linux: writing 5 to clear_refs resets VmHWM.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's high-water RSS in kB (0 where /proc is unavailable).
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

fn caught<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(format!("panicked: {msg}"))
    })
}

/// Runs instance `i`: set-up, the timed untraced instance and, when
/// tracing, the traced replay with its determinism and coverage checks.
fn run_one(
    opts: &RunOpts,
    i: usize,
    samples: &mut Samples,
    host: &mut HostRef,
    tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    let w = opts.workload;
    let seed = opts.seed.wrapping_add(i as u64);
    // `suite-quick` has no input to build: its set-up is the warm-up.
    let ref_setup = (w != Workload::SuiteQuick).then(|| host.time());
    let input: Input = caught(|| Ok(workloads::setup(w, opts.sizes, seed)))?;
    let ref_before = host.time();
    samples.ref_s.push(ref_before);
    if let Some(ref_setup) = ref_setup {
        samples.ref_s.push(ref_setup);
        samples.setup_s.push(input.setup_s());
        samples.setup_norm_s.push(HostRef::normalise(input.setup_s(), ref_setup, ref_before));
        samples.build_s.push(input.build_s);
        samples.relabel_s.push(input.relabel_s);
        samples.first_ingest.get_or_insert((input.bytes_ingested, input.peak_build_bytes));
    }
    reset_peak_rss();
    let t0 = Instant::now();
    let out = caught(|| workloads::instance(w, &input, opts.fault));
    let dt = t0.elapsed().as_secs_f64();
    samples.peak_rss_kb.push(peak_rss_kb());
    let ref_after = host.time();
    samples.ref_s.push(ref_after);
    let out = out?;
    if let Some(first) = samples.first.filter(|_| w == Workload::SuiteQuick) {
        // The quick suite ignores the seed: every pass must agree.
        if first != out {
            return Err(format!("pass disagrees with the first pass: {first:?} vs {out:?}"));
        }
    }
    eprintln!(
        "perfbench: {} instance {i} (seed {seed}): set-up {:.3} s, instance {dt:.3} s, \
         host reference {ref_before:.4} / {ref_after:.4} s, peak RSS {} kB",
        w.name(),
        input.setup_s(),
        samples.peak_rss_kb.last().copied().unwrap_or(0)
    );
    samples.instance_s.push(dt);
    samples.instance_norm_s.push(HostRef::normalise(dt, ref_before, ref_after));
    samples.rounds.push(out.rounds);
    samples.first.get_or_insert(out);
    let Some(t) = tracer else { return Ok(()) };
    t.set_instance(i);
    let replay = caught(|| workloads::traced(w, &input, t));
    t.close_open_spans();
    let replay = replay?;
    if replay != out {
        return Err(format!("traced replay diverged: untraced {out:?}, traced {replay:?}"));
    }
    let root = t.root(i).ok_or("traced replay recorded no span")?;
    let coverage = 1.0 - root.self_s() / root.duration_s();
    if coverage < MIN_TRACE_COVERAGE {
        return Err(format!("layer spans cover only {:.1}% of the instance", 100.0 * coverage));
    }
    samples.traced.push(i);
    Ok(())
}

/// Runs the benchmark and collects its report.
pub fn run(opts: &RunOpts) -> Report {
    let mut samples = Samples::default();
    let mut errors = Vec::new();
    let mut attempted = 0u64;
    let mut host = HostRef::new();
    if opts.workload == Workload::SuiteQuick {
        // Every pass, warm-up or timed, must agree with the first one.
        for _ in 0..SUITE_WARMUP_PASSES {
            let ref_before = host.time();
            let t0 = Instant::now();
            let input = workloads::setup(Workload::SuiteQuick, opts.sizes, opts.seed);
            match caught(|| workloads::instance(Workload::SuiteQuick, &input, Fault::None)) {
                Ok(out) if samples.first.is_some_and(|f| f != out) => {
                    errors.push("warm-up passes disagree".to_string());
                }
                Ok(out) => samples.first = Some(out),
                Err(e) => errors.push(format!("warm-up pass: {e}")),
            }
            let dt = t0.elapsed().as_secs_f64();
            let ref_after = host.time();
            samples.setup_s.push(dt);
            samples.setup_norm_s.push(HostRef::normalise(dt, ref_before, ref_after));
            samples.ref_s.extend([ref_before, ref_after]);
        }
    }
    let mut tracer = opts.trace.then(Tracer::new);
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds.max(0.0));
    let mut failed = 0u64;
    let mut i = 0;
    while i < opts.min_instances || Instant::now() < deadline {
        attempted += 1;
        if let Err(e) = run_one(opts, i, &mut samples, &mut host, tracer.as_mut()) {
            failed += 1;
            errors.push(format!("instance {i} (seed {}): {e}", opts.seed.wrapping_add(i as u64)));
        }
        i += 1;
    }
    Report::build(opts, attempted, failed, errors, &samples, tracer)
}

#[cfg(test)]
mod tests {
    use super::{HostRef, HOST_REF_NOMINAL_S};

    #[test]
    fn normalisation_scales_by_the_mean_reference() {
        let nominal = HOST_REF_NOMINAL_S;
        assert_eq!(HostRef::normalise(2.0, nominal, nominal), 2.0);
        // A host twice as slow doubles both the section and the reference.
        assert_eq!(HostRef::normalise(4.0, 2.0 * nominal, 2.0 * nominal), 2.0);
        assert_eq!(HostRef::normalise(3.0, nominal, 2.0 * nominal), 2.0);
        assert!(HostRef::new().time() > 0.0);
    }
}
