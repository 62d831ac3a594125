//! Order statistics, the FNV-1a digest, and span self-time.

/// Nearest-rank percentile of `samples` (`p` in 0..=100): the smallest
/// sample with at least `p` percent of the samples at or below it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median as the mean of the two middle order statistics.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The latencies of one phase: `rounds[r][k]` is request `k` of measured
/// round `r`, milliseconds.
#[derive(Default)]
pub struct Rounds(pub Vec<Vec<f64>>);

impl Rounds {
    /// The median over the rounds of each round's nearest-rank `p`-th
    /// percentile: a neighbour's burst spoils one round, not the run.
    pub fn percentile(&self, p: f64) -> f64 {
        median_of(self.0.iter().map(|round| percentile(round, p)))
    }

    /// The median over the rounds of each round's closed-loop rate with
    /// `per_request` items per request: items over the time spent inside
    /// calls, per second.
    pub fn rate(&self, per_request: usize) -> f64 {
        median_of(
            self.0.iter().map(|round| {
                (round.len() * per_request) as f64 / (round.iter().sum::<f64>() / 1e3)
            }),
        )
    }
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    median(&values.collect::<Vec<_>>())
}

/// 64-bit FNV-1a over a byte stream, fed incrementally.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One traced interval. `parent` indexes into the same span list;
/// spans of one request share `request`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// A span's self time, nanoseconds: its duration minus the length of the
/// interval its direct children cover (overlapping children are counted
/// once). Replayed children are separate executions of the stages, so
/// together they can outlast their parent; the self time is then
/// negative, which says the split is unresolved for that request.
pub fn self_time_ns(spans: &[Span], index: usize) -> i64 {
    let me = &spans[index];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = 0;
    for (start, end) in children {
        let start = start.max(cursor);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    (me.end_ns - me.start_ns) as i64 - covered as i64
}

/// Renders spans as a JSON array, one object per span.
pub fn spans_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{},"request":{}}}"#,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}
