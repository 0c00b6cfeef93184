//! E17 — the time-travel history layer.
//!
//! The §15 redesign promises that history is an *optimization over
//! replay*, not a second write path: a retained snapshot answers
//! impact queries at any pinned seq in time proportional to the
//! queried cell version — not to the installation — while branch
//! workspaces merge forward through the ordinary op pipeline and the
//! retention ring never holds more than its policy allows.
//!
//! E17 measures, at 1k / 10k database objects:
//!
//! 1. **impact-query latency** — p50/p99 nanoseconds of one
//!    `at(seq)` → `stale_dovs` + `impacted_cellviews` cycle against a
//!    *pinned historical* seq (evicted from the LastN window, kept
//!    alive only by the pin), which must stay near-flat across the
//!    object sweep because the query walks one cellview's impact
//!    graph, not the installation;
//! 2. **merge-forward throughput** — branch/stage/merge cycles per
//!    second of a workspace repeatedly rebased onto the moving head,
//!    every cycle committing a clean `MergeApplied`;
//! 3. **zero-copy history reads** — two reads of the same design
//!    object version through two history views must share one payload
//!    `Arc` and materialize zero bytes;
//! 4. **retention ceiling** — after the campaign the ring holds at
//!    most its LastN window plus the one pin.

use std::fmt;
use std::time::Instant;

use cad_vfs::Blob;
use hybrid::{Engine, Event, Op, RetentionPolicy, Service, SessionOps};

/// The retention window every E17 service runs with.
const WINDOW: usize = 64;

/// One measured size point of the E17 sweep.
#[derive(Debug, Clone, Copy)]
pub struct E17Row {
    /// OMS database objects at measurement time.
    pub objects: usize,
    /// Median nanoseconds of one historical impact-query cycle.
    pub impact_p50_ns: u64,
    /// 99th-percentile nanoseconds of one impact-query cycle.
    pub impact_p99_ns: u64,
    /// Clean branch/stage/merge cycles per second.
    pub merge_ops_per_sec: f64,
    /// Merge cycles measured (all committed `MergeApplied`).
    pub merges: usize,
    /// History reads shared one payload `Arc` and copied zero bytes.
    pub zero_copy: bool,
    /// Seqs alive in the ring after the campaign.
    pub retained: usize,
    /// `retained` never exceeded the LastN window plus the pin.
    pub retention_bounded: bool,
}

impl fmt::Display for E17Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "  {:>7} objects: impact p50 {:>7} ns, p99 {:>8} ns, {:>7.0} merges/s ({} clean), history reads {}, ring {} seq(s) ({})",
            self.objects,
            self.impact_p50_ns,
            self.impact_p99_ns,
            self.merge_ops_per_sec,
            self.merges,
            if self.zero_copy { "SHARED" } else { "COPIED" },
            self.retained,
            if self.retention_bounded { "BOUNDED" } else { "UNBOUNDED" }
        )
    }
}

/// Results of one E17 run (one row per database size).
#[derive(Debug, Clone)]
pub struct E17Report {
    /// One row per populated size, ascending.
    pub rows: Vec<E17Row>,
}

impl E17Report {
    /// Ratio of the largest to the smallest size's median impact
    /// latency. The query visits one cell version, so it must not
    /// track the ~10x installation growth.
    pub fn impact_growth(&self) -> f64 {
        let first = self.rows.first().map(|r| r.impact_p50_ns).unwrap_or(1);
        let last = self.rows.last().map(|r| r.impact_p50_ns).unwrap_or(1);
        last as f64 / first.max(1) as f64
    }

    /// Ratio of the largest to the smallest database size.
    pub fn size_growth(&self) -> f64 {
        let first = self.rows.first().map(|r| r.objects).unwrap_or(1);
        let last = self.rows.last().map(|r| r.objects).unwrap_or(1);
        last as f64 / first.max(1) as f64
    }

    /// Whether every gated property held: zero-copy history reads and
    /// a bounded ring at every size, merges flowing, and impact
    /// latency growing well under the installation growth.
    pub fn holds(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.zero_copy && r.retention_bounded && r.merge_ops_per_sec > 0.0)
            && self.impact_growth() < self.size_growth() / 2.0
    }
}

impl fmt::Display for E17Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E17 — time-travel history layer (retained snapshots)")?;
        for row in &self.rows {
            writeln!(f, "{row}")?;
        }
        write!(
            f,
            "  impact p50 grew {:.1}x over a {:.0}x object growth ({})",
            self.impact_growth(),
            self.size_growth(),
            if self.holds() { "FLAT" } else { "LINEAR" }
        )
    }
}

/// A populated service plus the probe fixture the measurements query:
/// a pinned historical seq at which the probe cell version had one
/// stale design object version.
struct Fixture {
    service: Service,
    alice: hybrid::Session,
    cv: jcf::CellVersionId,
    dov: jcf::DovId,
    probe_seq: u64,
}

/// Grows a retained service to at least `objects` database objects,
/// stamps a probe cell version plus a downstream equivalent in a
/// second cellview (the edge the impact query traverses), pins the
/// resulting seq, then pushes it out of the LastN window with further
/// writes.
fn populated_service(objects: usize, seed: u64) -> Fixture {
    let service =
        Service::with_retention(Engine::builder().build(), RetentionPolicy::LastN(WINDOW));
    let admin = service.open_session(service.admin());
    let alice_id = admin.add_user("alice", false).expect("alice");
    let team = admin.add_team("asic").expect("team");
    admin.add_team_member(team, alice_id).expect("alice joins");
    let flow = admin.standard_flow("asic").expect("flow");
    let project = admin.create_project("e17").expect("fresh project");
    let mut i = 0usize;
    while service.snapshot().jcf().database().len() < objects {
        admin
            .create_cell(project, &format!("c{i}"))
            .expect("unique cell");
        i += 1;
    }
    let alice = service.open_session(alice_id);
    let stamp = |name: &str| {
        let cell = admin.create_cell(project, name).expect("probe cell");
        let (cv, variant) = admin
            .create_cell_version(cell, flow.flow, team)
            .expect("probe version");
        alice.reserve(cv).expect("reserve");
        let (_, event) = alice
            .apply_seq(Op::RunActivity {
                user: alice_id,
                variant,
                activity: flow.enter_schematic,
                override_pending: false,
                outputs: vec![(
                    "schematic".into(),
                    Blob::from(format!("netlist {seed:#x} for {name}")),
                )],
                session_error: None,
            })
            .expect("activity");
        let Event::ActivityRun { dovs } = event else {
            panic!("activity produced {event:?}")
        };
        alice.publish(cv).expect("publish");
        (cv, dovs[0])
    };
    let (cv, dov) = stamp("probe");
    // A downstream equivalent in a second cell version: the edge the
    // impact query must traverse out of the probe's cellview.
    let (_, downstream) = stamp("probe-downstream");
    alice
        .apply(Op::MarkEquivalent {
            a: dov,
            b: downstream,
        })
        .expect("equivalence");
    let probe_seq = service.snapshot().seq();
    service.pin(probe_seq).expect("probe seq just committed");
    // Slide the window past the probe: only the pin keeps it alive.
    for j in 0..WINDOW + 32 {
        admin
            .create_cell(project, &format!("slide{j}"))
            .expect("unique cell");
    }
    Fixture {
        service,
        alice,
        cv,
        dov,
        probe_seq,
    }
}

/// Runs the three measurements of one row on a populated fixture.
fn measure(fx: &Fixture, iters: usize) -> E17Row {
    let objects = fx.service.snapshot().jcf().database().len();

    // 1. Impact queries against the pinned historical seq.
    let mut impact_ns: Vec<u64> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        let hv = fx.alice.at(fx.probe_seq).expect("pinned seq retained");
        let stale = hv.stale_dovs(fx.cv);
        let impacted = hv.impacted_cellviews(fx.cv);
        impact_ns.push(start.elapsed().as_nanos() as u64);
        assert_eq!(stale.len(), 1, "the downstream equivalent is stale");
        assert_eq!(impacted.len(), 1, "the equivalent is mirrored into FMCAD");
    }
    impact_ns.sort_unstable();
    let impact_p50 = impact_ns[iters / 2];
    let impact_p99 = impact_ns[(iters * 99 / 100).min(iters - 1)];

    // 2. Zero-copy: two views, one payload Arc, no bytes copied.
    let copies_before = Blob::materializations();
    let a = fx
        .alice
        .at(fx.probe_seq)
        .expect("pinned seq retained")
        .read_design_data(fx.dov)
        .expect("published probe data");
    let b = fx
        .alice
        .at(fx.probe_seq)
        .expect("pinned seq retained")
        .read_design_data(fx.dov)
        .expect("published probe data");
    let zero_copy = Blob::ptr_eq(&a, &b) && Blob::materializations() == copies_before;

    // 3. Merge-forward throughput: rebase a workspace onto the moving
    //    head, one clean MergeApplied per cycle.
    let mut merges = 0usize;
    let start = Instant::now();
    for rev in 0..iters {
        let head = fx.service.snapshot().seq();
        let mut ws = fx.alice.reserve_at(fx.cv, head).expect("head retained");
        let object = ws.objects().next().expect("probe object known at head");
        ws.stage(object, Blob::from(format!("merge rev {rev}")))
            .expect("stage");
        let (_, event) = ws.merge_forward().expect("merge commits");
        assert!(
            matches!(event, Event::MergeApplied { .. }),
            "rebased merge is clean, got {event:?}"
        );
        merges += 1;
    }
    let merge_ns = start.elapsed().as_nanos() as u64;

    let retained = fx.service.retained_seqs().len();
    E17Row {
        objects,
        impact_p50_ns: impact_p50,
        impact_p99_ns: impact_p99,
        merge_ops_per_sec: merges as f64 / (merge_ns.max(1) as f64 / 1e9),
        merges,
        zero_copy,
        retained,
        retention_bounded: retained <= WINDOW + 1,
    }
}

/// Runs E17 at the standard sizes (1k / 10k objects, 200 cycles per
/// measurement).
pub fn run(seed: u64) -> E17Report {
    run_scaled(&[1_000, 10_000], 200, seed)
}

/// Runs E17 at explicit database sizes with `iters` cycles per
/// measurement.
///
/// # Panics
///
/// Panics on bootstrap failures or an empty `sizes`/`iters`.
pub fn run_scaled(sizes: &[usize], iters: usize, seed: u64) -> E17Report {
    assert!(!sizes.is_empty() && iters > 0);
    E17Report {
        rows: sizes
            .iter()
            .map(|&objects| measure(&populated_service(objects, seed), iters))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_stays_zero_copy_and_bounded_at_every_size() {
        let report = run_scaled(&[80, 240], 15, 7);
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            assert!(row.zero_copy, "{row}");
            assert!(row.retention_bounded, "{row}");
            assert_eq!(row.merges, 15);
            assert!(row.objects >= 80);
            assert!(row.impact_p50_ns <= row.impact_p99_ns);
            assert!(row.merge_ops_per_sec > 0.0);
        }
    }

    #[test]
    fn growth_ratios_are_computed_from_first_and_last_rows() {
        let row = |objects, impact_p50_ns| E17Row {
            objects,
            impact_p50_ns,
            impact_p99_ns: impact_p50_ns * 2,
            merge_ops_per_sec: 1.0,
            merges: 1,
            zero_copy: true,
            retained: WINDOW,
            retention_bounded: true,
        };
        let report = E17Report {
            rows: vec![row(1_000, 100), row(10_000, 300)],
        };
        assert!((report.size_growth() - 10.0).abs() < 1e-9);
        assert!((report.impact_growth() - 3.0).abs() < 1e-9);
        assert!(report.holds());
    }
}
