//! The traced pass's span recorder. Spans are recorded by the harness,
//! around its socket calls and around the public functions it replays in
//! process; nothing inside the program is instrumented yet (ROADMAP's
//! span-instrument item). Spans live in a preallocated `Vec` and are
//! written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `client.select` or `query.plan_build`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Identifier shared by every span of one request.
    pub request: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span storage plus the stack of currently open spans.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans before it reallocates.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`; spans opened by `f` through
    /// the tracer it receives become children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[index as usize].end_ns = end_ns;
        result
    }

    /// A leaf span: `f` does not record spans of its own.
    pub fn leaf<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        self.span(name, request, |_| f())
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let slot = &mut own[parent as usize];
                *slot = slot.saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Durations, in microseconds, of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Per span called `name`: the summed duration of its direct
    /// children, in microseconds. Descendants' self times sum to exactly
    /// this, so it is the part of the span that stages account for.
    pub fn children_us(&self, name: &str) -> Vec<f64> {
        let mut sums = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                sums[parent as usize] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(sums)
            .filter(|(s, _)| s.name == name)
            .map(|(_, sum)| sum as f64 / 1e3)
            .collect()
    }

    /// Render the span file.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let own = self.self_ns();
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        );
        for (i, (span, self_ns)) in self.spans.iter().zip(own).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\
                 \"parent\":{},\"request\":{}}}",
                span.name,
                span.start_ns,
                span.end_ns,
                span.parent.map_or("null".to_owned(), |p| p.to_string()),
                span.request
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::with_capacity(8);
        t.span("root", 7, |t| {
            t.leaf("a", 7, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", 7, |t| {
                t.leaf("c", 7, || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.request == 7));
        let own = t.self_ns();
        let dur = |i: usize| spans[i].end_ns - spans[i].start_ns;
        assert_eq!(own[0], dur(0) - dur(1) - dur(2));
        assert_eq!(own[2], dur(2) - dur(3));
        assert_eq!(own[3], dur(3));
        // Children of root cover a+b; the sum of every self time is root.
        assert_eq!(own.iter().sum::<u64>(), dur(0));
        let covered = t.children_us("root");
        assert_eq!(covered.len(), 1);
        assert!((covered[0] - (dur(1) + dur(2)) as f64 / 1e3).abs() < 1e-6);
        assert!(t.durations_us("c")[0] >= 2_000.0);
    }

    #[test]
    fn span_file_lists_name_times_parent_and_request() {
        let mut t = Tracer::with_capacity(2);
        t.span("client.select", 3, |t| t.leaf("query.parse", 3, || ()));
        let json = t.to_json("w", 1);
        assert!(json.contains("\"name\":\"client.select\""), "{json}");
        assert!(json.contains("\"parent\":null"), "{json}");
        assert!(json.contains("\"parent\":0"), "{json}");
        assert!(json.contains("\"request\":3"), "{json}");
        assert!(json.contains("\"self_ns\":"), "{json}");
    }
}
