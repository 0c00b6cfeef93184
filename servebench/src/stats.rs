//! Order statistics, spans and process figures.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One reported metric: name, value and unit.
pub type Metric = (String, f64, &'static str);

/// The median of `values` (mean of the middle two for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A tail reading: a percentile with at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, in percent.
    pub percentile: f64,
    /// The sample count.
    pub samples: usize,
}

/// The percentile a tail reading stops at when the sample supports
/// more. Higher percentiles of the pipelined `catalog-build` stream
/// fall on whole multiples of the wire's ~44 ms reply stall and swing
/// by 2x between runs, too wide for a regression bound.
pub const TAIL_CAP: f64 = 95.0;

/// The highest percentile of `values`, up to [`TAIL_CAP`], with at
/// least ten samples beyond it (nearest rank). With eleven samples or
/// fewer none has ten beyond it; the maximum is reported and the
/// percentile reads 100.
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            samples: 0,
        };
    }
    if n < 11 {
        return Tail {
            value: v[n - 1],
            percentile: 100.0,
            samples: n,
        };
    }
    let capped = ((TAIL_CAP / 100.0 * n as f64).ceil() as usize).max(1) - 1;
    let index = capped.min(n - 11);
    Tail {
        value: v[index],
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        samples: n,
    }
}

/// One recorded span: a layer boundary crossed by one request.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer or request name.
    pub name: &'static str,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// The op's index in the served journal; `None` for requests that
    /// are not journaled (history reads).
    pub op: Option<usize>,
}

/// An in-memory span recorder, written out when the run ends. A
/// disabled recorder records nothing.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder measuring from `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Spans {
        Spans {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Records a span between two instants.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, op: Option<usize>) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.duration_since(self.epoch).as_nanos() as u64,
                op,
            });
        }
    }

    /// Moves another recorder's spans into this one.
    pub fn absorb(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    /// Recorded spans so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the spans as tab-separated `name start_ns end_ns op`
    /// lines, sorted by start.
    pub fn write(&mut self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        self.spans.sort_by_key(|s| (s.start_ns, s.end_ns));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\top")?;
        for s in &self.spans {
            let op = s.op.map(|i| i.to_string()).unwrap_or_else(|| "-".into());
            writeln!(out, "{}\t{}\t{}\t{op}", s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

/// Nanoseconds between two instants, as a float.
pub fn ns(start: Instant, end: Instant) -> f64 {
    end.duration_since(start).as_nanos() as f64
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of Linux on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// This process's resource usage, all threads.
fn usage() -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout
    // Linux defines for 64-bit targets, and RUSAGE_SELF (0) is a valid
    // `who`; getrusage writes only inside the struct.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return Rusage::default();
    }
    usage
}

/// Peak resident set of this process, in MB (`getrusage` reports KiB).
pub fn peak_rss_mb() -> f64 {
    usage().maxrss as f64 / 1024.0
}

/// CPU seconds this process has used so far, user plus system, over
/// all threads.
pub fn cpu_seconds() -> f64 {
    let u = usage();
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    secs(&u.utime) + secs(&u.stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v).value, 950.0);
        assert_eq!(tail(&v).percentile, 95.0);
        let few = tail(&[1.0, 5.0, 2.0]);
        assert_eq!((few.value, few.percentile), (5.0, 100.0));
    }

    #[test]
    fn process_figures_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_seconds() > before, "{x}");
    }
}
