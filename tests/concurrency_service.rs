//! Concurrency suite for the session front-ends.
//!
//! Exercises the sharded read/write discipline end to end: parallel
//! writer sessions group-committing through the batched apply queue,
//! parallel reader sessions on the published snapshot, event fan-out
//! ordering, read-your-writes, and equivalence with a serial engine.
//! One contract test runs the same writer workload through
//! [`SessionOps`] over [`Service`] and over [`ShardedService`] at one
//! and four shards: both front-ends share one group-commit lane.
//!
//! The suite must pass both under the default test harness and with
//! `--test-threads=1` (CI runs both): nothing here depends on real
//! thread parallelism, only on mutual exclusion.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use jcf_fmcad::cad_vfs::Blob;
use jcf_fmcad::hybrid::{Engine, Service, SessionOps, ShardedService, ToolOutput};
use jcf_fmcad::jcf::{DovId, ProjectId};

/// Boots a service with one published design object version readable
/// by the admin, returning the dov.
fn service_with_published_dov() -> (Service, DovId) {
    let service = Service::new(Engine::builder().build());
    let admin = service.open_session(service.admin());
    let alice = admin.add_user("alice", false).unwrap();
    let team = admin.add_team("asic").unwrap();
    admin.add_team_member(team, alice).unwrap();
    let flow = admin.standard_flow("std").unwrap();
    let project = admin.create_project("alu").unwrap();
    let cell = admin.create_cell(project, "adder").unwrap();
    let (cv, variant) = admin.create_cell_version(cell, flow.flow, team).unwrap();
    let session = service.open_session(alice);
    session.reserve(cv).unwrap();
    let dovs = session
        .run_activity(
            variant,
            flow.enter_schematic,
            false,
            vec![ToolOutput {
                viewtype: "schematic".into(),
                data: b"netlist adder\nport a input\n".to_vec().into(),
            }],
            None,
        )
        .unwrap();
    session.publish(cv).unwrap();
    (service, dovs[0])
}

#[test]
fn every_writer_session_reads_its_own_writes() {
    let service = Service::new(Engine::builder().build());
    let threads: Vec<_> = (0..8)
        .map(|i| {
            let service = service.clone();
            std::thread::spawn(move || {
                let session = service.open_session(service.admin());
                for j in 0..8 {
                    let project = session.create_project(&format!("p-{i}-{j}")).unwrap();
                    // The commit already happened; the very next
                    // snapshot this session takes must contain it,
                    // leader or follower.
                    let snap = session.snapshot();
                    snap.library_of(project)
                        .expect("own committed write visible");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(service.snapshot().seq(), 64);
}

#[test]
fn readers_run_against_a_consistent_view_while_writers_commit() {
    let (service, dov) = service_with_published_dov();
    let reference = service
        .open_session(service.admin())
        .read_design_data(dov)
        .unwrap();
    let done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..3)
        .map(|_| {
            let service = service.clone();
            let reference = reference.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let session = service.open_session(service.admin());
                let mut last_seq = 0;
                let mut reads = 0u64;
                while !done.load(Ordering::Relaxed) || reads == 0 {
                    let snap = session.snapshot();
                    assert!(snap.seq() >= last_seq, "published view went backwards");
                    last_seq = snap.seq();
                    let data = session.read_design_data(dov).unwrap();
                    assert!(
                        Blob::ptr_eq(&data, &reference),
                        "reader saw a copied or torn payload"
                    );
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    let writers: Vec<_> = (0..3)
        .map(|i| {
            let service = service.clone();
            std::thread::spawn(move || {
                let session = service.open_session(service.admin());
                for j in 0..32 {
                    session.create_project(&format!("w-{i}-{j}")).unwrap();
                }
            })
        })
        .collect();
    for t in writers {
        t.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    let total_reads: u64 = readers.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(total_reads >= 3, "every reader completed at least one read");

    let stats = service.stats();
    assert_eq!(stats.ops, 10 + 96, "bootstrap plus the writer phase");
    assert!(stats.batches <= stats.ops);
    assert!(stats.max_batch >= 1);
}

#[test]
fn events_fan_out_in_commit_order_with_engine_seqs() {
    let service = Service::new(Engine::builder().build());
    let observer = service.open_session(service.admin());
    let threads: Vec<_> = (0..4)
        .map(|i| {
            let service = service.clone();
            std::thread::spawn(move || {
                let session = service.open_session(service.admin());
                for j in 0..16 {
                    session.create_project(&format!("e-{i}-{j}")).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let events = observer.events();
    assert_eq!(events.len(), 64, "one event per successful op");
    let seqs: Vec<u64> = events.iter().map(|(seq, _)| *seq).collect();
    let mut sorted = seqs.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(seqs, sorted, "delivery order is commit order, no dupes");
    assert!(events
        .iter()
        .all(|(_, e)| e.kind_name() == "project-created"));
}

#[test]
fn failed_ops_surface_stable_error_kinds_without_fanout() {
    let service = Service::new(Engine::builder().build());
    let session = service.open_session(service.admin());
    session.create_project("taken").unwrap();
    let clash = session.create_project("taken").unwrap_err();
    assert_eq!(clash.kind(), "jcf");
    let missing = session.read_design_data(DovId::from_raw(9999)).unwrap_err();
    assert_eq!(missing.kind(), "jcf");
    // Only the successful op reached the event queues.
    assert_eq!(session.events().len(), 1);
    // But both write attempts are engine history (failures journal too).
    assert_eq!(service.snapshot().seq(), 2);
}

#[test]
fn concurrent_service_matches_a_serial_engine() {
    // The same 64 projects, committed concurrently through sessions
    // and serially on a bare engine, must produce identical state —
    // group commit may batch differently but never change outcomes.
    let service = Service::new(Engine::builder().build());
    let threads: Vec<_> = (0..4)
        .map(|i| {
            let service = service.clone();
            std::thread::spawn(move || {
                let session = service.open_session(service.admin());
                (0..16)
                    .map(|j| {
                        let name = format!("s-{i}-{j}");
                        (name.clone(), session.create_project(&name).unwrap())
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut created = Vec::new();
    for t in threads {
        created.extend(t.join().unwrap());
    }

    let mut serial = Engine::builder().build();
    let mut serial_libs = Vec::new();
    for i in 0..4 {
        for j in 0..16 {
            let name = format!("s-{i}-{j}");
            let project = serial.create_project(&name).unwrap();
            serial_libs.push((name, serial.library_of(project).unwrap().to_owned()));
        }
    }

    // Interleaving may differ, so compare the *set* of outcomes: the
    // op counts agree, and every project carries the same coupled
    // library name in both worlds.
    let snap = service.snapshot();
    assert_eq!(snap.seq(), serial.seq());
    let mut service_libs: Vec<(String, String)> = created
        .into_iter()
        .map(|(name, project)| (name, snap.library_of(project).unwrap().to_owned()))
        .collect();
    service_libs.sort();
    serial_libs.sort();
    assert_eq!(service_libs, serial_libs);
}

#[test]
fn sessions_over_many_threads_never_copy_design_data() {
    let (service, dov) = service_with_published_dov();
    let threads: Vec<_> = (0..6)
        .map(|_| {
            let service = service.clone();
            std::thread::spawn(move || {
                let session = service.open_session(service.admin());
                let before = Blob::materialized_bytes();
                for _ in 0..64 {
                    session.read_design_data(dov).unwrap();
                    session.browse(dov).unwrap();
                }
                Blob::materialized_bytes() - before
            })
        })
        .collect();
    let copied: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
    assert_eq!(copied, 0, "snapshot reads must be zero-copy");
}

/// One write front-end under the shared contract.
#[derive(Clone)]
enum FrontEnd {
    Single(Service),
    Sharded(ShardedService),
}

/// Lane counters folded over every lane of a front-end.
struct Totals {
    ops: u64,
    batches: u64,
    max_batch: u64,
    max_queue_depth: u64,
}

impl FrontEnd {
    fn admin_session(&self) -> Box<dyn SessionOps + Send> {
        match self {
            FrontEnd::Single(s) => Box::new(s.open_session(s.admin())),
            FrontEnd::Sharded(s) => Box::new(s.open_session(s.admin())),
        }
    }

    fn totals(&self) -> Totals {
        let lanes = match self {
            FrontEnd::Single(s) => vec![s.stats()],
            FrontEnd::Sharded(s) => s.stats().shards,
        };
        Totals {
            ops: lanes.iter().map(|l| l.ops).sum(),
            batches: lanes.iter().map(|l| l.batches).sum(),
            max_batch: lanes.iter().map(|l| l.max_batch).max().unwrap_or(0),
            max_queue_depth: lanes.iter().map(|l| l.max_queue_depth).max().unwrap_or(0),
        }
    }

    fn queue_depth(&self) -> u64 {
        match self {
            FrontEnd::Single(s) => s.queue_depth(),
            FrontEnd::Sharded(s) => s.queue_depth(),
        }
    }

    /// Whether the currently published view holds `project`.
    fn publishes(&self, project: ProjectId) -> bool {
        match self {
            FrontEnd::Single(s) => s.snapshot().library_of(project).is_ok(),
            FrontEnd::Sharded(s) => {
                let view = s.view();
                view.router()
                    .resolve(project.raw())
                    .is_some_and(|(shard, local)| {
                        view.shard(shard)
                            .library_of(ProjectId::from_raw(local))
                            .is_ok()
                    })
            }
        }
    }
}

#[test]
fn both_front_ends_honour_one_group_commit_contract() {
    const WRITERS: u64 = 8;
    const PER_WRITER: u64 = 16;
    let cases = [
        (
            "service",
            FrontEnd::Single(Service::new(Engine::builder().build())),
        ),
        ("1-shard", FrontEnd::Sharded(ShardedService::new(1))),
        ("4-shard", FrontEnd::Sharded(ShardedService::new(4))),
    ];
    for (name, front) in cases {
        let threads: Vec<_> = (0..WRITERS)
            .map(|i| {
                let front = front.clone();
                std::thread::spawn(move || {
                    let session = front.admin_session();
                    (0..PER_WRITER)
                        .map(|j| {
                            let project = session.create_project(&format!("c-{i}-{j}")).unwrap();
                            // Read-your-writes: the commit is published
                            // before the submitter wakes.
                            assert!(front.publishes(project), "own write visible");
                            project
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut projects = Vec::new();
        for t in threads {
            projects.extend(t.join().unwrap());
        }
        let submitted = WRITERS * PER_WRITER;
        projects.sort();
        projects.dedup();
        assert_eq!(projects.len() as u64, submitted, "{name}: distinct ids");
        let totals = front.totals();
        assert_eq!(totals.ops, submitted, "{name}: every submit counted once");
        assert!(
            totals.batches >= 1 && totals.batches <= totals.ops,
            "{name}"
        );
        assert!(
            totals.max_batch >= 1 && totals.max_batch <= totals.ops,
            "{name}"
        );
        assert!(
            (1..=submitted).contains(&totals.max_queue_depth),
            "{name}: the queue held an op"
        );
        assert_eq!(front.queue_depth(), 0, "{name}: the gauge drained");
    }
}
