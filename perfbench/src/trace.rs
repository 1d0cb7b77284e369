//! In-memory span recording for the traced run.
//!
//! A span covers one call into a layer's public function: its layer name,
//! a tag (the oracle name for oracle checks), start and end, the enclosing
//! span and a request id (the database index, or the raw detection index
//! during triage).  Spans stay in memory until the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `"reduce.statements"`.
    pub layer: &'static str,
    /// Extra label: the oracle name for `"oracle"` spans, else empty.
    pub tag: &'static str,
    /// Index of the traced campaign the span belongs to.
    pub campaign: u32,
    /// Database index or raw-detection index.
    pub request: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans around calls.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    campaign: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), campaign: 0 }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Marks the start of a new traced campaign; later spans carry its
    /// index.
    pub fn start_campaign(&mut self, campaign: u32) {
        self.campaign = campaign;
    }

    /// Opens a span nested in the innermost open span.
    pub fn enter(&mut self, layer: &'static str, tag: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            tag,
            campaign: self.campaign,
            request,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        tag: &'static str,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(layer, tag, request);
        let out = f();
        self.exit(id);
        out
    }

    /// Every span recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the time its direct
    /// children cover (children never overlap, the campaign is
    /// sequential).
    #[must_use]
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// The spans as JSON lines, one object per span.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"layer\":\"{}\",\"tag\":\"{}\",\"campaign\":{},\"request\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.layer, s.tag, s.campaign, s.request, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Percentiles a tail is read at, in per mille, highest first.
const TAIL_LADDER: [usize; 4] = [999, 990, 900, 500];

/// Summary of a timing sample: median, the highest of
/// p99.9, p99 and p90 with at least ten samples beyond it, and the count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timing {
    /// Median.
    pub p50: f64,
    /// Value at the tail percentile (the median when fewer than twenty
    /// samples leave no percentile with ten beyond it).
    pub tail: f64,
    /// Number of samples.
    pub n: usize,
}

/// Summarizes a sample (nearest-rank percentiles).
#[must_use]
pub fn timing(samples: &[f64]) -> Timing {
    if samples.is_empty() {
        return Timing::default();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = |per_mille: usize| (n * per_mille).div_ceil(1000).clamp(1, n);
    let tail = TAIL_LADDER.into_iter().find(|&p| n - rank(p) >= 10).unwrap_or(500);
    Timing { p50: median(&sorted), tail: sorted[rank(tail) - 1], n }
}

/// The median of a sample (mean of the middle pair for even counts).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        let outer = t.enter("outer", "", 0);
        let inner = t.enter("inner", "", 0);
        let leaf = t.enter("leaf", "", 0);
        t.exit(leaf);
        t.exit(inner);
        t.exit(outer);
        let own = t.self_times_ns();
        let total: u64 = own.iter().sum();
        assert_eq!(total, t.spans()[outer].duration_ns(), "self times telescope to the root");
        assert_eq!(t.spans()[leaf].parent, Some(inner));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = timing(&samples);
        assert_eq!(t.tail, 990.0, "p99: ten samples beyond, p99.9 has one");
        assert_eq!(t.p50, 500.5);
        assert_eq!(timing(&samples[..100]).tail, 90.0, "p90");
        assert_eq!(timing(&samples[..5]).tail, 3.0, "too few samples: the median rank");
        assert_eq!(timing(&[]).n, 0);
    }
}
