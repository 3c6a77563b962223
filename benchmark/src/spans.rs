//! In-memory span recorder for the traced run.
//!
//! A span is `{name, start_ns, end_ns, parent}`; spans nest by call
//! structure (one thread, so children never overlap) and are written out
//! once, when the benchmark ends. A disabled recorder runs the wrapped
//! closure and records nothing, so end-to-end timing never pays for it.

use std::time::Instant;

use lazyctrl::obs::json::Value;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

/// Records spans relative to its own creation instant.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        result
    }

    /// Splits the most recently closed span into consecutive children of
    /// the given durations (seconds), starting at the span's own start —
    /// how the program's `PhaseTimings` become `core.build` /
    /// `core.event_loop` / `core.report` spans without touching the
    /// program.
    pub fn split_last(&mut self, parts: &[(&str, f64)]) {
        let Some(parent) = self.spans.len().checked_sub(1).filter(|_| self.enabled) else {
            return;
        };
        let mut at = self.spans[parent].start_ns;
        let end = self.spans[parent].end_ns;
        for &(name, secs) in parts {
            let stop = (at + (secs * 1e9) as u64).min(end);
            self.spans.push(Span {
                name: name.to_owned(),
                start_ns: at,
                end_ns: stop,
                parent: Some(parent),
            });
            at = stop;
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, each with its self time.
    pub fn to_json(&self) -> Value {
        let own = self_times(&self.spans);
        Value::Arr(
            self.spans
                .iter()
                .zip(own)
                .enumerate()
                .map(|(id, (s, self_ns))| {
                    Value::obj(vec![
                        ("id", Value::Num(id as f64)),
                        ("name", Value::Str(s.name.clone())),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("self_ns", Value::Num(self_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time per span: its duration minus the part its direct children
/// cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("workload", 0, 1_000, None),
            span("core.run", 100, 700, Some(0)),
            span("core.build", 100, 150, Some(1)),
            span("core.event_loop", 150, 650, Some(1)),
            span("probe", 800, 900, Some(0)),
        ];
        // Grandchildren are charged to their parent only.
        assert_eq!(self_times(&spans), vec![300, 50, 50, 500, 100]);
    }

    #[test]
    fn nesting_follows_call_structure() {
        let mut r = Recorder::new(true);
        let x = r.span("outer", |r| {
            r.span("first", |_| ());
            r.span("second", |r| r.span("leaf", |_| 7))
        });
        assert_eq!(x, 7);
        let parents: Vec<_> = r.spans().iter().map(|s| (&*s.name, s.parent)).collect();
        assert_eq!(
            parents,
            [
                ("outer", None),
                ("first", Some(0)),
                ("second", Some(0)),
                ("leaf", Some(2))
            ]
        );
        for s in r.spans() {
            assert!(s.start_ns <= s.end_ns);
        }
        let own = self_times(r.spans());
        let outer = &r.spans()[0];
        assert!(own[0] <= outer.end_ns - outer.start_ns);
    }

    #[test]
    fn split_last_lays_children_end_to_end_inside_the_parent() {
        let mut r = Recorder::new(true);
        r.span("core.run", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.split_last(&[
            ("core.build", 0.0005),
            ("core.event_loop", 0.001),
            ("core.report", 9.0),
        ]);
        let s = r.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].start_ns, s[0].start_ns);
        assert_eq!(s[2].start_ns, s[1].end_ns);
        assert_eq!(s[3].start_ns, s[2].end_ns);
        // An over-long phase is clipped to the parent's end.
        assert_eq!(s[3].end_ns, s[0].end_ns);
        assert!(s.iter().skip(1).all(|c| c.parent == Some(0)));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        assert_eq!(r.span("x", |_| 3), 3);
        r.split_last(&[("y", 1.0)]);
        assert!(r.spans().is_empty());
    }
}
