//! Harness-side spans: name, start, end and parent of every timed call into
//! a layer, kept in memory and written at exit as Chrome trace-event JSON.
//! The program under test is not instrumented; spans sit around its public
//! calls.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Spans {
    workload: String,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(workload: &str) -> Spans {
        Spans {
            workload: workload.to_string(),
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, nested under whichever span is
    /// open; returns `f`'s result and the span's duration in seconds.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        let id = self.spans.len();
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.t0.elapsed().as_nanos() as u64;
        (result, self.spans[id].dur_ns() as f64 / 1e9)
    }

    pub fn chrome_trace(&self) -> Json {
        let self_ns = self_times(&self.spans);
        let us = |ns: u64| Json::Num(ns as f64 / 1e3);
        let events = self
            .spans
            .iter()
            .zip(self_ns)
            .map(|(s, self_ns)| {
                let parent = s
                    .parent
                    .map_or(Json::Null, |p| Json::str(&self.spans[p].name));
                Json::obj([
                    ("name", Json::str(&s.name)),
                    ("ph", Json::str("X")),
                    ("ts", us(s.start_ns)),
                    ("dur", us(s.dur_ns())),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        Json::obj([
                            ("workload", Json::str(&self.workload)),
                            ("parent", parent),
                            ("self_us", us(self_ns)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))])
    }
}

/// Self time of each span: its duration minus the durations of its direct
/// children (children of one parent never overlap — spans nest on one
/// thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
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
            span("pass", 0, 1_000, None),
            span("run", 100, 700, Some(0)),
            span("replay", 700, 900, Some(0)),
            span("replay.queue", 710, 760, Some(2)),
            span("replay.switch", 760, 880, Some(2)),
        ];
        // pass: 1000 - 600 - 200; replay: 200 - 50 - 120; leaves keep all.
        assert_eq!(self_times(&spans), vec![200, 600, 30, 50, 120]);
    }

    #[test]
    fn time_nests_and_reports_parents() {
        let mut spans = Spans::new("w");
        let (inner, outer_s) = spans.time("outer", |s| s.time("inner", |_| 7).0);
        assert_eq!(inner, 7);
        assert!(outer_s >= 0.0);
        assert_eq!(spans.spans[0].parent, None);
        assert_eq!(spans.spans[1].parent, Some(0));
        assert!(spans.spans[0].start_ns <= spans.spans[1].start_ns);
        assert!(spans.spans[1].end_ns <= spans.spans[0].end_ns);
        let trace = spans.chrome_trace();
        let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_str), Some("outer"));
        assert_eq!(args.get("workload").and_then(Json::as_str), Some("w"));
    }
}
