//! E12 — concurrent session throughput of the service layer.
//!
//! The paper's installation was inherently multi-user: several
//! designers drive the coupled frameworks at once. E12 measures the
//! [`hybrid::Service`] front-end that reproduces this: N writer
//! sessions group-committing through the batched apply queue while M
//! reader sessions run zero-copy snapshot reads in parallel.
//!
//! Three properties are measured and gated:
//!
//! 1. **Read scaling** — M concurrent reader sessions performing the
//!    same total number of `read_design_data` calls must beat the
//!    single-session baseline in aggregate. The baseline is the *live
//!    engine read path* — the pre-service API, where every read is a
//!    journaled op (`&mut self`, one journal entry, one trace record,
//!    one event) and sessions would serialize on the engine. The
//!    service readers hit the published [`hybrid::Snapshot`] instead:
//!    no journal, no trace, no engine lock — so they win per-read
//!    *and* run in parallel on multi-core hosts.
//! 2. **Zero-copy reads** — the reader threads' [`Blob`]
//!    materialization counters must not move: snapshot reads hand out
//!    shared payload handles, never byte copies.
//! 3. **Determinism** — a single-writer session driving a seeded
//!    schedule through the service must land on the *same state
//!    fingerprint* as the identical schedule applied serially to a
//!    bare [`Engine`], in both staging modes. Group commit batches
//!    differently between runs; the committed history must not.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cad_vfs::Blob;
use hybrid::{Engine, Service, SessionOps, StagingMode, ToolOutput};
use jcf::DovId;

use crate::workload::cloud_bytes;

/// Results of one E12 run.
#[derive(Debug, Clone)]
pub struct E12Report {
    /// Writer sessions (threads) in the mixed phase.
    pub writers: usize,
    /// Reader sessions (threads) in the read-scaling phase.
    pub readers: usize,
    /// Total reads performed (same for baseline and concurrent runs).
    pub total_reads: u64,
    /// Wall-clock nanoseconds of the single-session baseline: the same
    /// reads through the live engine read path (journaled ops on one
    /// engine — the only option before the service existed).
    pub single_session_read_ns: u64,
    /// Wall-clock nanoseconds of the M-session concurrent run over the
    /// published snapshot.
    pub concurrent_read_ns: u64,
    /// Total write ops committed in the mixed phase.
    pub write_ops: u64,
    /// Wall-clock nanoseconds of the mixed write phase.
    pub write_ns: u64,
    /// Group commits in the mixed phase.
    pub batches: u64,
    /// Largest single group commit, in ops.
    pub max_batch: u64,
    /// Writers that parked as followers instead of leading a batch.
    pub writer_waits: u64,
    /// Snapshot reads that found the publish lock briefly held.
    pub reader_waits: u64,
    /// Deepest the pending write queue got during the mixed phase
    /// (the gauge the network front-end's BUSY threshold samples).
    pub max_queue_depth: u64,
    /// Blob bytes materialized by the reader threads (must be 0).
    pub reader_materializations: u64,
    /// Service run reproduced the serial fingerprint (zero-copy mode).
    pub deterministic_zero_copy: bool,
    /// Service run reproduced the serial fingerprint (deep-copy mode).
    pub deterministic_deep_copy: bool,
}

impl E12Report {
    /// Aggregate read speedup of M snapshot sessions over the
    /// single-session engine baseline.
    pub fn read_speedup(&self) -> f64 {
        self.single_session_read_ns as f64 / self.concurrent_read_ns.max(1) as f64
    }

    /// Committed write ops per second in the mixed phase.
    pub fn write_ops_per_sec(&self) -> f64 {
        self.write_ops as f64 / (self.write_ns.max(1) as f64 / 1e9)
    }

    /// Aggregate concurrent reads per second.
    pub fn read_ops_per_sec(&self) -> f64 {
        self.total_reads as f64 / (self.concurrent_read_ns.max(1) as f64 / 1e9)
    }

    /// Mean ops per group commit in the mixed phase.
    pub fn mean_batch(&self) -> f64 {
        self.write_ops as f64 / self.batches.max(1) as f64
    }

    /// Whether every gated property held in this run.
    pub fn holds(&self) -> bool {
        self.read_speedup() > 1.5
            && self.reader_materializations == 0
            && self.deterministic_zero_copy
            && self.deterministic_deep_copy
    }
}

impl fmt::Display for E12Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E12 — concurrent sessions over the engine ({}w x {}r)",
            self.writers, self.readers
        )?;
        writeln!(
            f,
            "  reads: 1 engine session {:>8.3}ms vs {} snapshot sessions {:>8.3}ms ({:.1}x aggregate, {} reads, {} bytes copied)",
            self.single_session_read_ns as f64 / 1e6,
            self.readers,
            self.concurrent_read_ns as f64 / 1e6,
            self.read_speedup(),
            self.total_reads,
            self.reader_materializations
        )?;
        writeln!(
            f,
            "  writes: {} ops in {:>8.3}ms ({:.0} ops/s) over {} batches (max {}, mean {:.1})",
            self.write_ops,
            self.write_ns as f64 / 1e6,
            self.write_ops_per_sec(),
            self.batches,
            self.max_batch,
            self.mean_batch()
        )?;
        writeln!(
            f,
            "  waits: writers parked {} times, readers brushed the publish lock {} times, queue peaked at {}",
            self.writer_waits, self.reader_waits, self.max_queue_depth
        )?;
        write!(
            f,
            "  determinism: zero-copy {} deep-copy {}",
            if self.deterministic_zero_copy {
                "MATCHES"
            } else {
                "DIVERGES"
            },
            if self.deterministic_deep_copy {
                "MATCHES"
            } else {
                "DIVERGES"
            }
        )
    }
}

/// Boots a service with one published, readable design object and
/// returns it with the dov every reader session will hit.
fn readable_service(gates: usize, seed: u64) -> (Service, DovId) {
    let service = Service::new(Engine::builder().build());
    let admin = service.open_session(service.admin());
    let alice = admin.add_user("reader-setup", false).expect("fresh user");
    let team = admin.add_team("team").expect("fresh team");
    admin.add_team_member(team, alice).expect("manager adds");
    let flow = admin.standard_flow("flow").expect("fresh flow");
    let project = admin.create_project("e12").expect("fresh project");
    let cell = admin.create_cell(project, "cloud").expect("fresh cell");
    let (cv, variant) = admin
        .create_cell_version(cell, flow.flow, team)
        .expect("fresh version");
    let session = service.open_session(alice);
    session.reserve(cv).expect("free version");
    let dovs = session
        .run_activity(
            variant,
            flow.enter_schematic,
            false,
            vec![ToolOutput {
                viewtype: "schematic".into(),
                data: cloud_bytes(gates, seed).into(),
            }],
            None,
        )
        .expect("activity runs");
    session.publish(cv).expect("holder publishes");
    (service, dovs[0])
}

/// Times `total_reads` reads through the single-session engine
/// baseline: one designer on one engine, every read a journaled op.
fn timed_engine_reads(gates: usize, seed: u64, total_reads: u64) -> u64 {
    let mut en = Engine::builder().build();
    let admin = en.admin();
    let alice = en.add_user("baseline", false).expect("fresh user");
    let team = en.add_team(admin, "team").expect("fresh team");
    en.add_team_member(admin, team, alice).expect("manager");
    let flow = en.standard_flow("flow").expect("fresh flow");
    let project = en.create_project("e12").expect("fresh project");
    let cell = en.create_cell(project, "cloud").expect("fresh cell");
    let (cv, variant) = en
        .create_cell_version(cell, flow.flow, team)
        .expect("fresh version");
    en.reserve(alice, cv).expect("free version");
    let dovs = en
        .run_activity(alice, variant, flow.enter_schematic, false, move |_| {
            Ok(vec![ToolOutput {
                viewtype: "schematic".into(),
                data: cloud_bytes(gates, seed).into(),
            }])
        })
        .expect("activity runs");
    en.publish(alice, cv).expect("holder publishes");
    let dov = dovs[0];
    let start = Instant::now();
    let mut bytes = 0u64;
    for _ in 0..total_reads {
        let data = en.read_design_data(alice, dov).expect("published data");
        bytes = bytes.wrapping_add(data.len() as u64);
    }
    assert!(bytes > 0, "reads returned data");
    start.elapsed().as_nanos() as u64
}

/// Times `total_reads` snapshot reads spread over `sessions` threads.
/// Returns `(elapsed_ns, bytes_materialized_by_readers)`.
fn timed_reads(service: &Service, dov: DovId, sessions: usize, total_reads: u64) -> (u64, u64) {
    let materialized = Arc::new(AtomicU64::new(0));
    let user = service.admin();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..sessions {
            let service = service.clone();
            let materialized = Arc::clone(&materialized);
            let reads = total_reads / sessions as u64;
            scope.spawn(move || {
                let session = service.open_session(user);
                let before = Blob::materialized_bytes();
                let mut bytes = 0u64;
                for _ in 0..reads {
                    let data = session.read_design_data(dov).expect("published data");
                    bytes = bytes.wrapping_add(data.len() as u64);
                }
                assert!(bytes > 0, "reads returned data");
                materialized.fetch_add(Blob::materialized_bytes() - before, Ordering::Relaxed);
            });
        }
    });
    let elapsed = start.elapsed().as_nanos() as u64;
    (elapsed, materialized.load(Ordering::Relaxed))
}

/// Runs `writers` concurrent writer sessions, each committing
/// `ops_per_writer` project creations, and returns the elapsed time.
fn timed_writes(service: &Service, writers: usize, ops_per_writer: usize) -> u64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..writers {
            let service = service.clone();
            scope.spawn(move || {
                let session = service.open_session(service.admin());
                for i in 0..ops_per_writer {
                    session
                        .create_project(&format!("w{w}-p{i}"))
                        .expect("unique name");
                }
            });
        }
    });
    start.elapsed().as_nanos() as u64
}

/// Runs the seeded E10 steady-state schedule (repeated activity runs
/// with identical bytes, then a publish) through a single-writer
/// service session and through a bare engine, and compares the final
/// state fingerprints.
fn determinism_holds(mode: StagingMode, gates: usize, reps: usize, seed: u64) -> bool {
    let data: Blob = cloud_bytes(gates, seed).into();

    // Serial reference: the same ops on a bare engine.
    let mut en = Engine::builder().staging_mode(mode).build();
    let admin = en.admin();
    let alice = en.add_user("alice", false).expect("fresh user");
    let team = en.add_team(admin, "team").expect("fresh team");
    en.add_team_member(admin, team, alice).expect("manager");
    let flow = en.standard_flow("flow").expect("fresh flow");
    let project = en.create_project("det").expect("fresh project");
    let cell = en.create_cell(project, "cloud").expect("fresh cell");
    let (cv, variant) = en
        .create_cell_version(cell, flow.flow, team)
        .expect("fresh version");
    en.reserve(alice, cv).expect("free version");
    for _ in 0..reps {
        let out = data.clone();
        en.run_activity(alice, variant, flow.enter_schematic, false, move |_| {
            Ok(vec![ToolOutput {
                viewtype: "schematic".into(),
                data: out,
            }])
        })
        .expect("activity runs");
    }
    en.publish(alice, cv).expect("holder publishes");
    let serial = en.state_fingerprint().expect("fingerprintable");

    // The same schedule through a single-writer service session.
    let service = Service::new(Engine::builder().staging_mode(mode).build());
    let admin_session = service.open_session(service.admin());
    let alice = admin_session.add_user("alice", false).expect("fresh user");
    let team = admin_session.add_team("team").expect("fresh team");
    admin_session.add_team_member(team, alice).expect("manager");
    let flow = admin_session.standard_flow("flow").expect("fresh flow");
    let project = admin_session.create_project("det").expect("fresh project");
    let cell = admin_session
        .create_cell(project, "cloud")
        .expect("fresh cell");
    let (cv, variant) = admin_session
        .create_cell_version(cell, flow.flow, team)
        .expect("fresh version");
    let session = service.open_session(alice);
    session.reserve(cv).expect("free version");
    for _ in 0..reps {
        session
            .run_activity(
                variant,
                flow.enter_schematic,
                false,
                vec![ToolOutput {
                    viewtype: "schematic".into(),
                    data: data.clone(),
                }],
                None,
            )
            .expect("activity runs");
    }
    session.publish(cv).expect("holder publishes");
    let via_service = service.with_engine(|en| en.state_fingerprint().expect("fingerprintable"));

    serial == via_service
}

/// Runs E12 at the standard scale: 4 writers x 4 readers over the E10
/// workload size, with the given seed.
pub fn run(seed: u64) -> E12Report {
    run_scaled(4, 4, 800, seed)
}

/// Runs E12 with explicit writer/reader session counts and workload
/// size.
///
/// # Panics
///
/// Panics on bootstrap failures.
pub fn run_scaled(writers: usize, readers: usize, gates: usize, seed: u64) -> E12Report {
    let (service, dov) = readable_service(gates, seed);
    let total_reads: u64 = 40_000;

    // Warm-up, then the single-session engine baseline, then M
    // snapshot sessions doing the same total number of reads.
    let _ = timed_reads(&service, dov, 1, total_reads / 10);
    let single_ns = timed_engine_reads(gates, seed, total_reads);
    let (concurrent_ns, reader_materializations) = timed_reads(&service, dov, readers, total_reads);

    // The mixed write phase: N writer sessions group-committing.
    let before = service.stats();
    let write_ns = timed_writes(&service, writers, 64);
    let after = service.stats();

    E12Report {
        writers,
        readers,
        total_reads,
        single_session_read_ns: single_ns,
        concurrent_read_ns: concurrent_ns,
        write_ops: after.ops - before.ops,
        write_ns,
        batches: after.batches - before.batches,
        max_batch: after.max_batch,
        writer_waits: after.writer_waits - before.writer_waits,
        reader_waits: after.reader_waits,
        max_queue_depth: after.max_queue_depth,
        reader_materializations,
        deterministic_zero_copy: determinism_holds(StagingMode::ZeroCopy, gates, 6, seed),
        deterministic_deep_copy: determinism_holds(StagingMode::DeepCopy, gates, 6, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_holds_in_both_modes() {
        assert!(determinism_holds(StagingMode::ZeroCopy, 60, 3, 42));
        assert!(determinism_holds(StagingMode::DeepCopy, 60, 3, 42));
    }

    #[test]
    fn readers_never_materialize() {
        let (service, dov) = readable_service(120, 42);
        let (_, materialized) = timed_reads(&service, dov, 4, 400);
        assert_eq!(materialized, 0);
    }

    #[test]
    fn mixed_phase_counts_ops_and_batches() {
        let report = run_scaled(2, 2, 60, 42);
        assert_eq!(report.write_ops, 128);
        assert!(report.batches >= 1 && report.batches <= report.write_ops);
        assert!(report.max_batch >= 1);
        assert_eq!(report.reader_materializations, 0);
        assert!(report.deterministic_zero_copy);
        assert!(report.deterministic_deep_copy);
    }
}
