//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! The program itself is not instrumented: every span wraps one public
//! call from outside. A disabled tracer records nothing and costs one
//! branch per call, so traced and untraced repetitions run the same code.

use std::fmt::Write as _;
use std::time::Instant;

/// Run id of spans recorded outside any repetition (input generation and
/// the analysis after the repetitions).
pub const OUTSIDE: u32 = u32::MAX;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer and call, e.g. `runtime.submit_at`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The repetition (run id) the span belongs to, or [`OUTSIDE`].
    pub run: u32,
}

impl Span {
    /// Wall duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder. Spans nest: a span opened while another is open is its
/// child.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: OUTSIDE,
        }
    }

    /// Tags every later span with run id `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Turns recording on or off for later spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Every recorded span, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of the spans named `name`, in opening order.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Durations in seconds of the spans named `name` in the given runs.
    pub fn secs_in(&self, name: &str, runs: &[u32]) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && runs.contains(&s.run))
            .map(Span::secs)
            .collect()
    }

    /// Self time of every span in nanoseconds: its duration minus the time
    /// its direct children cover. Children of one span never overlap (the
    /// benchmark is single-threaded), so their durations add.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// The spans as JSON lines, each carrying `tag` (workload and seed).
    pub fn to_json_lines(&self, tag: &str) -> String {
        let own = self.self_ns();
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {}, \"parent\": {parent}, \"run\": {}, {tag}}}",
                s.name, s.start_ns, s.end_ns, own[i], s.run
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new(true);
        t.enter("outer");
        t.time("inner", || std::hint::black_box((0..1000).sum::<u64>()));
        t.set_run(1);
        t.time("inner", || ());
        t.exit();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].run, OUTSIDE);
        assert_eq!(spans[2].run, 1);
        let own = t.self_ns();
        let children =
            (spans[1].end_ns - spans[1].start_ns) + (spans[2].end_ns - spans[2].start_ns);
        assert_eq!(own[0], (spans[0].end_ns - spans[0].start_ns) - children);
        assert_eq!(t.secs("inner").len(), 2);
        assert_eq!(t.secs_in("inner", &[1]).len(), 1);
        assert_eq!(t.to_json_lines("\"seed\": 1").lines().count(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.time("x", || 7), 7);
        t.enter("y");
        t.exit();
        assert!(t.spans().is_empty());
    }
}
