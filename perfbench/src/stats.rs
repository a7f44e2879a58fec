//! Summary statistics over timing samples and self-time arithmetic over
//! nested spans.

/// Median of `samples` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A tail percentile together with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile's value (nearest rank).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Samples a tail percentile must have beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (0 < q < 1) of `samples` by nearest rank, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it: a tail read off a
/// handful of samples is noise, not a tail.
pub fn tail(samples: &[f64], q: f64) -> Option<Tail> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} is outside (0, 1)");
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| Tail {
        value: sorted[rank - 1],
        n,
        beyond,
    })
}

/// The `q`-quantile of each consecutive whole window of `window` samples,
/// for windows where [`tail`] reports one.  The median of these is the
/// statistic of a typical window: a slow phase of the host that covers a
/// minority of the windows moves it little, where it would own the slowest
/// tenth of a run's pooled samples.
pub fn per_window(samples: &[f64], window: usize, q: f64) -> Vec<f64> {
    samples
        .chunks_exact(window)
        .filter_map(|w| tail(w, q).map(|t| t.value))
        .collect()
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// One recorded span: a named interval, the span that caused it and the
/// trace it belongs to.  Times are microseconds since the trace began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the parent span in the same list, `None` for a root.
    pub parent: Option<usize>,
    pub trace_id: String,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Self time of span `index`: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_time_us(spans: &[Span], index: usize) -> f64 {
    let span = &spans[index];
    let mut children: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| (s.start_us.max(span.start_us), s.end_us.min(span.end_us)))
        .filter(|(start, end)| end > start)
        .collect();
    children.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut run: Option<(f64, f64)> = None;
    for (start, end) in children {
        run = match run {
            Some((run_start, run_end)) if start <= run_end => Some((run_start, run_end.max(end))),
            Some((run_start, run_end)) => {
                covered += run_end - run_start;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((run_start, run_end)) = run {
        covered += run_end - run_start;
    }
    span.duration_us() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_us: start,
            end_us: end,
            parent,
            trace_id: "t".into(),
        }
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = tail(&hundred, 0.9).unwrap();
        assert_eq!(
            p90,
            Tail {
                value: 90.0,
                n: 100,
                beyond: 10
            }
        );
        // 99 samples leave only 9 beyond the p90 rank.
        assert_eq!(tail(&hundred[..99], 0.9), None);
        // p99 of 100 samples has one sample beyond it.
        assert_eq!(tail(&hundred, 0.99), None);
        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail(&thousand, 0.99).unwrap().value, 990.0);
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn per_window_takes_the_typical_window() {
        // Three windows of 100; the last one is uniformly slow.
        let mut samples: Vec<f64> = (1..=100).map(f64::from).collect();
        samples.extend((1..=100).map(f64::from));
        samples.extend((1..=100).map(|x| f64::from(x) * 10.0));
        let p90s = per_window(&samples, 100, 0.9);
        assert_eq!(p90s, [90.0, 90.0, 900.0]);
        assert_eq!(median(&p90s), Some(90.0));
        assert_eq!(median(&per_window(&samples, 100, 0.5)), Some(50.0));
        // The pooled p90 lands in the slow window.
        assert_eq!(tail(&samples, 0.9).unwrap().value, 700.0);
        // A window too small for ten samples beyond its p90 is declined,
        // and so is the incomplete last window.
        assert!(per_window(&samples, 50, 0.9).is_empty());
        assert_eq!(per_window(&samples[..299], 100, 0.5), [50.0, 50.0]);
    }

    #[test]
    fn self_time_subtracts_direct_children_once() {
        let spans = vec![
            span("root", 0.0, 100.0, None),
            span("a", 10.0, 30.0, Some(0)),
            span("b", 20.0, 50.0, Some(0)), // overlaps a: covered 10..50
            span("a.inner", 12.0, 18.0, Some(1)),
            span("c", 90.0, 120.0, Some(0)), // clipped to the parent's end
        ];
        assert_eq!(self_time_us(&spans, 0), 100.0 - 40.0 - 10.0);
        assert_eq!(self_time_us(&spans, 1), 20.0 - 6.0);
        assert_eq!(self_time_us(&spans, 3), 6.0);
        assert_eq!(self_time_us(&spans, 4), 30.0);
    }
}
