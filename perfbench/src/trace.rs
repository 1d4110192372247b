//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around the public
//! call of each layer: the program itself is not instrumented. Each span
//! carries its instance, its parent span, its wall interval and the
//! simulator counter deltas (`treelocal_sim::counters`) across it. A
//! layer's self time is its span's duration minus the part covered by its
//! child spans. Spans stay in memory until [`Tracer::write_jsonl`] writes
//! them out at the end of the run.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Simulator work counters (`rounds`, `node_steps`, `send_steps`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Communication rounds executed by the engines.
    pub rounds: u64,
    /// Frontier-node steps.
    pub node_steps: u64,
    /// Message-engine send-phase steps.
    pub send_steps: u64,
}

impl SimCounters {
    /// The current process-wide totals.
    pub fn now() -> Self {
        let (rounds, node_steps, send_steps) = treelocal_sim::counters::snapshot();
        SimCounters { rounds, node_steps, send_steps }
    }

    /// The work done since `earlier`.
    pub fn since(self, earlier: SimCounters) -> SimCounters {
        SimCounters {
            rounds: self.rounds - earlier.rounds,
            node_steps: self.node_steps - earlier.node_steps,
            send_steps: self.send_steps - earlier.send_steps,
        }
    }
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `decomp.rake_compress`.
    pub name: &'static str,
    /// Index of the instance the span belongs to.
    pub instance: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in seconds since the tracer was created.
    pub start_s: f64,
    /// End, in seconds since the tracer was created.
    pub end_s: f64,
    /// Time covered by direct child spans.
    pub child_s: f64,
    /// Simulator counter deltas across the span, children included.
    pub counters: SimCounters,
}

impl Span {
    /// Wall duration.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// Duration minus the time covered by child spans.
    pub fn self_s(&self) -> f64 {
        self.duration_s() - self.child_s
    }
}

/// Where the workloads open spans: [`Off`] for the untraced run, a
/// [`Tracer`] for the traced one.
pub trait Probe {
    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// the probe it receives become children of this one.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R;
}

/// Records nothing: the untraced run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Off;

impl Probe for Off {
    fn span<R>(&mut self, _name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }
}

impl Probe for Tracer {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            instance: self.instance,
            parent: self.stack.last().copied(),
            start_s: 0.0,
            end_s: 0.0,
            child_s: 0.0,
            counters: SimCounters::default(),
        });
        self.stack.push(id);
        let c0 = SimCounters::now();
        let t0 = self.origin.elapsed().as_secs_f64();
        let out = f(self);
        let t1 = self.origin.elapsed().as_secs_f64();
        let counters = SimCounters::now().since(c0);
        self.stack.pop();
        let span = &mut self.spans[id];
        span.start_s = t0;
        span.end_s = t1;
        span.counters = counters;
        if let Some(p) = span.parent {
            self.spans[p].child_s += t1 - t0;
        }
        out
    }
}

/// Records nested spans for a sequence of instances.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    instance: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer; span times are measured from now.
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), instance: 0 }
    }

    /// Attributes the following spans to instance `i`.
    pub fn set_instance(&mut self, i: usize) {
        self.instance = i;
    }

    /// Forgets spans left open by a panic inside them.
    pub fn close_open_spans(&mut self) {
        self.stack.clear();
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The outermost span of instance `i` (the traced instance itself).
    pub fn root(&self, i: usize) -> Option<&Span> {
        self.spans.iter().find(|s| s.instance == i && s.parent.is_none())
    }

    /// Summed self time of the spans of instance `i` named `name`.
    pub fn self_s(&self, i: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.instance == i && s.name == name)
            .fold(0.0, |t, s| t + s.self_s())
    }

    /// Summed self time of the non-root spans of instance `i` whose name
    /// starts with `prefix`.
    pub fn layer_self_s(&self, i: usize, prefix: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.instance == i && s.parent.is_some() && s.name.starts_with(prefix))
            .fold(0.0, |t, s| t + s.self_s())
    }

    /// Writes one JSON object per span, one per line.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"instance\": {}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_s\": {}, \"end_s\": {}, \"self_s\": {}, \"rounds\": {}, \
                 \"node_steps\": {}, \"send_steps\": {}}}",
                s.instance,
                s.name,
                s.start_s,
                s.end_s,
                s.self_s(),
                s.counters.rounds,
                s.counters.node_steps,
                s.counters.send_steps
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("root", |t| {
            t.span("a.child", |_| std::thread::sleep(std::time::Duration::from_millis(20)));
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let root = t.root(0).expect("root span");
        assert_eq!(root.name, "root");
        let child = t.self_s(0, "a.child");
        assert!(child >= 0.02);
        assert!((root.self_s() + child - root.duration_s()).abs() < 1e-9);
        assert!((t.layer_self_s(0, "a.") - child).abs() < 1e-12);
        assert_eq!(t.layer_self_s(0, "root"), 0.0, "the root is not a layer");
    }
}
