//! The benchmark's own spans for the traced run: one span around each
//! call into a layer's public function, kept in memory per thread and
//! written out at exit as Chrome trace-event JSON (loads in Perfetto).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same [`Spans`], if any.
    pub parent: Option<usize>,
    /// The op (request) this span belongs to; spans of one op share it.
    pub op: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// One thread's spans. Open spans form a stack, so a span opened while
/// another is open becomes its child. While `enabled` is false, `span`
/// only runs its closure.
pub struct Spans {
    epoch: Instant,
    pub tid: usize,
    pub enabled: bool,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(epoch: Instant, tid: usize) -> Spans {
        Spans {
            epoch,
            tid,
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for op `op`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let ix = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(ix);
        let out = f(self);
        self.open.pop();
        self.spans[ix].end = self.now();
        out
    }
}

/// Per-name totals: calls, total time, and self time (duration minus
/// the part of the interval its child spans cover).
#[derive(Debug, Clone, Default)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTime {
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e6
        }
    }
}

/// Aggregate spans by name.
pub fn layer_times(threads: &[Spans]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for t in threads {
        let mut child_ns = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur();
            }
        }
        for (s, kids) in t.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_ns += s.dur();
            e.self_ns += s.dur().saturating_sub(kids);
        }
    }
    out
}

/// The self-time table printed beside the traced run's metrics.
pub fn self_time_table(times: &BTreeMap<&'static str, LayerTime>) -> String {
    let all_self: u64 = times.values().map(|t| t.self_ns).sum::<u64>().max(1);
    let mut out = format!(
        "{:<22} {:>9} {:>12} {:>12} {:>11} {:>7}\n",
        "span", "calls", "total ms", "self ms", "mean µs", "self %"
    );
    for (name, t) in times {
        let _ = writeln!(
            out,
            "{:<22} {:>9} {:>12.2} {:>12.2} {:>11.1} {:>6.1}%",
            name,
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.mean_ms() * 1e3,
            100.0 * t.self_ns as f64 / all_self as f64
        );
    }
    out
}

/// Chrome trace-event JSON: one complete (`"X"`) event per span, with
/// the op id and the parent span's index in `args`.
pub fn chrome_json(threads: &[Spans]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for t in threads {
        for (ix, s) in t.spans.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"span\":{},\"parent\":{}}}}}",
                s.name,
                t.tid,
                s.start as f64 / 1e3,
                s.dur() as f64 / 1e3,
                s.op,
                ix,
                parent
            );
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_self_time_and_chrome_json() {
        let mut t = Spans::new(Instant::now(), 0);
        t.span("op", 1, |t| {
            t.span("child", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(t.spans[1].parent, Some(0));
        let times = layer_times(std::slice::from_ref(&t));
        let op = &times["op"];
        assert!(op.self_ns < op.total_ns);
        assert_eq!(op.total_ns - op.self_ns, times["child"].total_ns);
        t.enabled = false;
        assert_eq!(t.span("off", 2, |_| 7), 7);
        assert_eq!(t.spans.len(), 2);
        let json = chrome_json(&[t]);
        let parsed = classic_obs::Json::parse(&json).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("events");
        assert_eq!(events.len(), 2);
    }
}
