//! Benchmark-side spans around each public call into a layer.
//!
//! Spans are kept in memory (name, start, end, parent) and written once at
//! the end as a Chrome/Perfetto trace.  A span's self time is its duration
//! minus the time its child spans cover; children never overlap, since the
//! benchmark calls one layer at a time.  A disabled recorder only runs the
//! closure, so untraced runs pay nothing for it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: self.now_us(),
            end_us: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn duration_us(&self, id: usize) -> f64 {
        self.spans[id].end_us - self.spans[id].start_us
    }

    /// Self time of every span, in µs, indexed like `spans`.
    fn self_us(&self) -> Vec<f64> {
        let mut out: Vec<f64> = (0..self.spans.len()).map(|i| self.duration_us(i)).collect();
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                out[p] -= self.duration_us(id);
            }
        }
        out
    }

    /// Per span name: `(calls, total self time in µs)`.
    fn self_times(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for (s, self_us) in self.spans.iter().zip(self.self_us()) {
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += self_us;
        }
        out
    }

    /// Total self time, in seconds, of spans named `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_times().get(name).map_or(0.0, |(_, us)| us * 1e-6)
    }

    /// Mean self time per call, in µs, of spans named `name`.
    pub fn mean_self_us(&self, name: &str) -> f64 {
        match self.self_times().get(name) {
            Some(&(calls, us)) if calls > 0 => us / calls as f64,
            _ => 0.0,
        }
    }

    /// The spans in the Chrome trace-event format (complete `X` events on
    /// one track; nesting follows from the intervals).
    pub fn to_chrome_json(&self) -> String {
        let self_us = self.self_us();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
                if id == 0 { "" } else { ",\n" },
                s.name,
                s.start_us,
                s.end_us - s.start_us,
                id,
                parent,
                self_us[id]
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
