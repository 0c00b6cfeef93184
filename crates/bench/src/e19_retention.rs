//! E19 — O(Δ) history retention on the served write path.
//!
//! A [`Service`] keeps a snapshot of each of its last commits (the
//! default [`hybrid::RetentionPolicy`]), so every write lands on a
//! store that a retained snapshot still shares. In the paper's master
//! framework every cell version links to one team and one standard
//! flow, and those hub link sets grow with the installation. If a
//! shared hub set or a shared trie node were copied whole, the cost of
//! creating a cell version would grow with the database; with chunked
//! link sets and a height-adaptive trie it copies one chunk and one
//! short spine.
//!
//! E19 grows one service to 10k and then 100k OMS objects (projects of
//! [`CELLS_PER_PROJECT`] cells, one version each, all under one team and
//! one flow) and times `create-cell-version` submits through
//! [`Service::submit`] at each size. The gated figure is the growth of
//! the median across the 10x object growth.

use std::fmt;
use std::time::Instant;

use hybrid::{Engine, Op, Service, SessionOps};

/// Cells (each with one version) per populated project. Keeps the
/// per-project cell-name check short while the hubs grow.
pub const CELLS_PER_PROJECT: usize = 32;

/// One measured size point of the E19 sweep.
#[derive(Debug, Clone, Copy)]
pub struct E19Row {
    /// OMS database objects at measurement time.
    pub objects: usize,
    /// Cell versions linked to the shared team and flow hubs.
    pub hub_members: usize,
    /// Median nanoseconds of one `create-cell-version` submit.
    pub cv_p50_ns: u64,
    /// 99th-percentile nanoseconds of one submit.
    pub cv_p99_ns: u64,
    /// Submits measured.
    pub samples: usize,
    /// Snapshots the service's history ring held after the samples.
    pub retained: usize,
}

impl fmt::Display for E19Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "  {:>7} objects ({:>6} hub members): create-cell-version p50 {:>8} ns, p99 {:>9} ns over {} submits, {} snapshots retained",
            self.objects, self.hub_members, self.cv_p50_ns, self.cv_p99_ns, self.samples, self.retained
        )
    }
}

/// Results of one E19 run (one row per database size).
#[derive(Debug, Clone)]
pub struct E19Report {
    /// One row per populated size, ascending.
    pub rows: Vec<E19Row>,
}

/// The most the median may grow over the sweep and still hold.
pub const MAX_P50_GROWTH: f64 = 2.0;

impl E19Report {
    /// Ratio of the largest to the smallest size's median submit.
    pub fn p50_growth(&self) -> f64 {
        let first = self.rows.first().map(|r| r.cv_p50_ns).unwrap_or(1);
        let last = self.rows.last().map(|r| r.cv_p50_ns).unwrap_or(1);
        last as f64 / first.max(1) as f64
    }

    /// Ratio of the largest to the smallest database size.
    pub fn size_growth(&self) -> f64 {
        let first = self.rows.first().map(|r| r.objects).unwrap_or(1);
        let last = self.rows.last().map(|r| r.objects).unwrap_or(1);
        last as f64 / first.max(1) as f64
    }

    /// Whether the median grew by at most [`MAX_P50_GROWTH`] and every
    /// row ran with retained history.
    pub fn holds(&self) -> bool {
        self.rows.iter().all(|r| r.retained > 1) && self.p50_growth() <= MAX_P50_GROWTH
    }
}

impl fmt::Display for E19Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E19 — O(Δ) history retention (create-cell-version through Service::submit)"
        )?;
        for row in &self.rows {
            writeln!(f, "{row}")?;
        }
        write!(
            f,
            "  p50 grew {:.2}x over a {:.0}x object growth ({})",
            self.p50_growth(),
            self.size_growth(),
            if self.holds() { "FLAT" } else { "GROWING" }
        )
    }
}

/// The service under test plus the hub ids every version links to.
struct Fixture {
    service: Service,
    team: jcf::TeamId,
    flow: jcf::FlowId,
    projects: usize,
    hub_members: usize,
}

impl Fixture {
    fn new() -> Fixture {
        let service = Service::new(Engine::builder().build());
        let admin = service.open_session(service.admin());
        let team = admin.add_team("e19").expect("fresh team");
        let flow = admin.standard_flow("e19").expect("fresh flow").flow;
        Fixture {
            service,
            team,
            flow,
            projects: 0,
            hub_members: 0,
        }
    }

    fn objects(&self) -> usize {
        self.service.snapshot().jcf().database().len()
    }

    /// Adds whole projects until the store holds at least `objects`.
    fn grow_to(&mut self, objects: usize) {
        let admin = self.service.open_session(self.service.admin());
        while self.objects() < objects {
            let project = admin
                .create_project(&format!("p{}", self.projects))
                .expect("fresh project");
            self.projects += 1;
            for c in 0..CELLS_PER_PROJECT {
                let cell = admin
                    .create_cell(project, &format!("c{c}"))
                    .expect("unique cell");
                admin
                    .create_cell_version(cell, self.flow, self.team)
                    .expect("cell version");
                self.hub_members += 1;
            }
        }
    }

    /// Times `samples` create-cell-version submits on fresh cells.
    fn measure(&mut self, samples: usize) -> E19Row {
        let objects = self.objects();
        let hub_members = self.hub_members;
        let admin = self.service.open_session(self.service.admin());
        let project = admin
            .create_project(&format!("p{}", self.projects))
            .expect("fresh project");
        self.projects += 1;
        let mut ns = Vec::with_capacity(samples);
        for i in 0..samples {
            let cell = admin
                .create_cell(project, &format!("m{i}"))
                .expect("unique cell");
            let op = Op::CreateCellVersion {
                cell,
                flow: self.flow,
                team: self.team,
            };
            let start = Instant::now();
            self.service.submit(op).expect("cell version");
            ns.push(start.elapsed().as_nanos() as u64);
            self.hub_members += 1;
        }
        ns.sort_unstable();
        E19Row {
            objects,
            hub_members,
            cv_p50_ns: ns[samples / 2],
            cv_p99_ns: ns[(samples * 99 / 100).min(samples - 1)],
            samples,
            retained: self.service.retained_seqs().len(),
        }
    }
}

/// Runs E19 at the standard sizes (10k and 100k objects, 400 submits
/// each).
pub fn run() -> E19Report {
    run_scaled(&[10_000, 100_000], 400)
}

/// Runs E19 at explicit ascending database sizes with `samples`
/// submits per size, growing one service through every size.
///
/// # Panics
///
/// Panics on bootstrap failures or an empty `sizes`/`samples`.
pub fn run_scaled(sizes: &[usize], samples: usize) -> E19Report {
    assert!(!sizes.is_empty() && samples > 0);
    let mut fixture = Fixture::new();
    let rows = sizes
        .iter()
        .map(|&objects| {
            fixture.grow_to(objects);
            fixture.measure(samples)
        })
        .collect();
    E19Report { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_measures_every_size_under_retention() {
        let report = run_scaled(&[300, 900], 20);
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            assert!(row.cv_p50_ns > 0 && row.cv_p50_ns <= row.cv_p99_ns, "{row}");
            assert!(row.retained > 1, "the default policy retains history");
            assert!(row.hub_members >= CELLS_PER_PROJECT);
        }
        assert!(report.rows[1].objects >= 900);
        assert!(report.size_growth() > 2.0);
    }

    #[test]
    fn growth_gate_reads_first_and_last_rows() {
        let row = |objects, cv_p50_ns| E19Row {
            objects,
            hub_members: 1,
            cv_p50_ns,
            cv_p99_ns: cv_p50_ns,
            samples: 1,
            retained: 64,
        };
        let flat = E19Report {
            rows: vec![row(10_000, 40_000), row(100_000, 56_000)],
        };
        assert!((flat.size_growth() - 10.0).abs() < 1e-9);
        assert!((flat.p50_growth() - 1.4).abs() < 1e-9);
        assert!(flat.holds());
        let growing = E19Report {
            rows: vec![row(10_000, 200_000), row(100_000, 3_200_000)],
        };
        assert!(!growing.holds());
    }
}
