//! The traced run's layer breakdown.
//!
//! The served engine's journal is replayed op by op at four depths, so
//! ids resolve exactly as they did when served:
//!
//! 1. over the wire, to a fresh `cad_net::Server` (one admin session);
//! 2. through `Service::submit`;
//! 3. through bare `Engine::apply`, holding each op's
//!    `Engine::snapshot()` in a ring as deep as the default
//!    `RetentionPolicy`;
//! 4. through bare `Engine::apply` alone.
//!
//! A layer's self time is the difference between adjacent depths, op by
//! op, averaged over the ops of the measured phase (set-up ops are
//! replayed pipelined at depth 1 and not timed there). Every depth must
//! answer every op exactly as depth 4 did, and depth 4's final
//! fingerprint must equal the served engine's. Component probes then
//! run against the depth-4 engine and the depth-2 service, at the
//! final database size.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use cad_net::{Request, Response, Server, ServerConfig};
use cad_vfs::Blob;
use hybrid::{Engine, Event, Op, RetentionPolicy, Service, Snapshot};
use jcf::{CellVersionId, DovId, ProjectId, UserId};

use crate::drive::{gate, BenchResult, Finished, Phase, Pipe, ADMIN};
use crate::gen::{Inputs, Workload, NETLIST_GATES};
use crate::stats::{mean, median, ns, tail, Metric, Spans};

/// Op kinds whose depth-4 apply time is reported.
pub const KINDS: [&str; 8] = [
    "create-project",
    "create-cell",
    "create-cell-version",
    "reserve",
    "run-activity",
    "browse",
    "read-design-data",
    "publish",
];

/// Calls per component probe; each probe reports its median.
const PROBE_REPS: usize = 25;
/// Design cycles the kind probe runs for kinds a workload's journal
/// lacks.
const PROBE_CYCLES: usize = 24;
/// The depth-1 pipelining window: the server's default, which the
/// `catalog-build` importers also use.
const REPLAY_WINDOW: usize = crate::drive::IMPORT_WINDOW;

/// One answer per op: the event, or the error kind.
type Outcome = Result<Event, String>;

fn outcome_of(result: hybrid::HybridResult<Event>) -> Outcome {
    result.map_err(|e| e.kind().to_owned())
}

fn agree(depth: u32, index: usize, want: &Outcome, got: &Outcome) -> BenchResult<()> {
    if want == got {
        Ok(())
    } else {
        Err(format!(
            "replay depth {depth} answered op {index} differently: {got:?} vs {want:?}"
        ))
    }
}

/// Per-layer readings of one traced run, in reporting order.
pub struct Layers {
    /// `(name, value, unit)`.
    pub metrics: Vec<Metric>,
    /// Human-readable notes printed before the result.
    pub notes: Vec<String>,
    /// Every span the replays and probes recorded.
    pub spans: Spans,
}

impl Layers {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }
}

/// The in-process depths of one replay, op by op.
struct InProcess {
    /// The depth-4 engine at its final state.
    engine: Engine,
    /// Each op's answer at depth 4.
    want: Vec<Outcome>,
    /// The depth-2 service at its final state.
    service: Service,
    /// Per-op times at depths 2, 3 and 4, ns.
    d2: Vec<f64>,
    d3: Vec<f64>,
    d4: Vec<f64>,
    /// Per-op `Engine::snapshot` capture time at depth 3, ns.
    captures: Vec<f64>,
    /// Payload bytes deep-copied per op on this thread at depth 2.
    bytes_per_op: f64,
}

/// Replays the journal at depths 2, 3 and 4 in lockstep, rotating
/// which depth goes first, so every depth applies op `i` under the
/// same heap and cache conditions:
///
/// * depth 4: `Engine::apply`;
/// * depth 3: `Engine::apply`, then `Engine::snapshot` into a ring as
///   deep as the default `RetentionPolicy`;
/// * depth 2: `Service::submit`.
fn in_process(journal: &[Op], spans: &mut Spans) -> BenchResult<InProcess> {
    let depth = match RetentionPolicy::default() {
        RetentionPolicy::LastN(n) => n,
        RetentionPolicy::EveryNth { cap, .. } => cap,
    };
    let mut engine = Engine::builder().build();
    let mut retaining = Engine::builder().build();
    let mut ring: VecDeque<Arc<Snapshot>> = VecDeque::with_capacity(depth + 1);
    ring.push_back(retaining.snapshot());
    let service = Service::new(Engine::builder().build());
    let n = journal.len();
    let mut out = InProcess {
        engine: Engine::builder().build(),
        want: Vec::with_capacity(n),
        service: service.clone(),
        d2: vec![0.0; n],
        d3: vec![0.0; n],
        d4: vec![0.0; n],
        captures: vec![0.0; n],
        bytes_per_op: 0.0,
    };
    let mut bytes = 0;
    for (i, op) in journal.iter().enumerate() {
        let mut answers: [Option<Outcome>; 3] = [None, None, None];
        for k in 0..3 {
            let op = op.clone();
            match (i + k) % 3 {
                0 => {
                    let start = Instant::now();
                    let result = engine.apply(op);
                    let end = Instant::now();
                    spans.record("engine.apply", start, end, Some(i));
                    out.d4[i] = ns(start, end);
                    answers[0] = Some(outcome_of(result));
                }
                1 => {
                    let start = Instant::now();
                    let result = retaining.apply(op);
                    let applied = Instant::now();
                    let snap = retaining.snapshot();
                    let captured = Instant::now();
                    ring.push_back(snap);
                    if ring.len() > depth {
                        ring.pop_front();
                    }
                    let end = Instant::now();
                    spans.record("engine.apply+retain", start, end, Some(i));
                    spans.record("snapshot.capture", applied, captured, Some(i));
                    out.d3[i] = ns(start, end);
                    out.captures[i] = ns(applied, captured);
                    answers[1] = Some(outcome_of(result));
                }
                _ => {
                    let before = Blob::materialized_bytes();
                    let start = Instant::now();
                    let result = service.submit(op).map(|(_, event)| event);
                    let end = Instant::now();
                    bytes += Blob::materialized_bytes() - before;
                    spans.record("service.submit", start, end, Some(i));
                    out.d2[i] = ns(start, end);
                    answers[2] = Some(outcome_of(result));
                }
            }
        }
        let [four, three, two] = answers.map(|a| a.expect("every depth answered"));
        agree(3, i, &four, &three)?;
        agree(2, i, &four, &two)?;
        out.want.push(four);
    }
    out.engine = engine;
    out.bytes_per_op = bytes as f64 / n.max(1) as f64;
    Ok(out)
}

/// Depth 1: over the wire to a fresh server, one admin session. Set-up
/// ops go pipelined and untimed; measured ops go one at a time, or
/// pipelined when the workload pipelined them. A pipelined op's time
/// is the gap since the previous reply.
fn depth1(
    journal: &[Op],
    want: &[Outcome],
    measured_from: usize,
    pipelined: bool,
    spans: &mut Spans,
) -> BenchResult<Vec<f64>> {
    let service = Service::new(Engine::builder().build());
    let mut server = Server::bind("127.0.0.1:0", ServerConfig::default(), service)
        .map_err(|e| format!("bind: {e}"))?;
    let mut pipe = Pipe::connect(server.local_addr(), ADMIN)?;
    let mut times = vec![0.0; journal.len()];
    let segments = [
        (0, measured_from, REPLAY_WINDOW, false),
        (
            measured_from,
            journal.len(),
            if pipelined { REPLAY_WINDOW } else { 1 },
            true,
        ),
    ];
    for (from, to, window, timed) in segments {
        let mut inflight: VecDeque<(usize, Instant)> = VecDeque::new();
        let mut next = from;
        let mut last_reply: Option<Instant> = None;
        while next < to || !inflight.is_empty() {
            while next < to && inflight.len() < window {
                let op = journal[next].clone();
                pipe.send(|id| Request::Op { id, op })?;
                inflight.push_back((next, Instant::now()));
                next += 1;
            }
            let (i, sent) = inflight.pop_front().expect("a request is in flight");
            let reply = pipe.recv()?;
            let end = Instant::now();
            let got = match reply {
                Response::Ok { event, .. } => Ok(event),
                Response::Fail { kind, .. } => Err(kind),
                other => return Err(format!("replay depth 1: op {i} answered {other:?}")),
            };
            agree(1, i, &want[i], &got)?;
            if timed {
                let start = last_reply.map_or(sent, |r| r.max(sent));
                times[i] = ns(start, end);
                spans.record("wire.request", sent, end, Some(i));
            }
            last_reply = Some(end);
        }
    }
    pipe.bye();
    server.shutdown();
    Ok(times)
}

/// Mean codec costs per measured op: `Op::to_line` + `parse_line`,
/// and the wire frames an op travels in (`Request` and `Response`
/// encode + parse).
fn codecs(
    journal: &[Op],
    want: &[Outcome],
    from: usize,
    spans: &mut Spans,
) -> BenchResult<(f64, f64)> {
    let mut op_ns = Vec::with_capacity(journal.len() - from);
    let mut frame_ns = Vec::with_capacity(journal.len() - from);
    for (i, op) in journal.iter().enumerate().skip(from) {
        let start = Instant::now();
        let parsed = Op::parse_line(&op.to_line());
        let mid = Instant::now();
        let request = Request::Op {
            id: i as u64,
            op: op.clone(),
        }
        .encode();
        let request = Request::parse(&request);
        let response = match &want[i] {
            Ok(event) => Response::Ok {
                id: i as u64,
                seq: i as u64 + 1,
                event: event.clone(),
            },
            Err(kind) => Response::Fail {
                id: i as u64,
                kind: kind.clone(),
                msg: String::new(),
            },
        }
        .encode();
        let response = Response::parse(&response);
        let end = Instant::now();
        spans.record("ops.codec", start, mid, Some(i));
        spans.record("net.proto_codec", mid, end, Some(i));
        op_ns.push(ns(start, mid));
        frame_ns.push(ns(mid, end));
        if parsed.as_ref() != Ok(op) || request.is_err() || response.is_err() {
            return Err(format!("codec round trip of op {i} failed"));
        }
    }
    Ok((mean(&op_ns), mean(&frame_ns)))
}

fn probe(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for i in 0..reps {
        let start = Instant::now();
        f(i);
        times.push(ns(start, Instant::now()));
    }
    median(&times)
}

/// Component probes against the depth-4 engine at its final size.
fn component_probes(engine: &mut Engine, inputs: &Inputs, layers: &mut Layers) -> BenchResult<()> {
    let db = engine.jcf().database();
    layers.put("oms.objects", db.len() as f64, "count");
    let class = db
        .schema()
        .class_by_name("Project")
        .ok_or("the schema has no Project class")?;
    let absent = oms::Value::from("servebench-absent-project");
    let find = probe(PROBE_REPS, |_| {
        std::hint::black_box(db.find_by_attr(class, "name", &absent));
    });
    layers.put("oms.find_by_attr_us", find / 1e3, "us");

    let mut jcf = engine.jcf().snapshot();
    let mut failed = None;
    let create = probe(PROBE_REPS, |i| {
        if let Err(e) = jcf.create_project(&format!("servebench-probe-{i}")) {
            failed = Some(format!("probe create_project: {e}"));
        }
    });
    layers.put("jcf.create_project_us", create / 1e3, "us");

    let design = design_data::generate::random_logic(NETLIST_GATES, inputs.seed);
    let netlist: Blob = design_data::format::write_netlist(&design.netlists[&design.top])
        .into_bytes()
        .into();
    let fm = engine.fmcad_mut();
    let lib = |i: usize| format!("servebench-probe-lib-{i}");
    let created = probe(PROBE_REPS, |i| {
        if let Err(e) = fm.create_library(&lib(i)) {
            failed = Some(format!("probe create_library: {e}"));
        }
    });
    layers.put("fmcad.create_library_us", created / 1e3, "us");
    let trigger = probe(PROBE_REPS, |i| {
        if let Err(e) = fm.fire_trigger("library-coupled", &[fml::Value::Str(lib(i))]) {
            failed = Some(format!("probe fire_trigger: {e}"));
        }
    });
    layers.put("fml.trigger_us", trigger / 1e3, "us");
    let mut checkins = Vec::with_capacity(PROBE_REPS);
    for i in 0..PROBE_REPS {
        let cell = format!("c{i}");
        fm.create_cell(&lib(0), &cell)
            .and_then(|()| fm.create_cellview(&lib(0), &cell, "schematic", "schematic"))
            .map_err(|e| format!("probe cellview: {e}"))?;
        let start = Instant::now();
        fm.checkin("servebench", &lib(0), &cell, "schematic", netlist.clone())
            .map_err(|e| format!("probe checkin: {e}"))?;
        checkins.push(ns(start, Instant::now()));
    }
    layers.put("fmcad.checkin_us", median(&checkins) / 1e3, "us");
    failed.map_or(Ok(()), Err)
}

/// Time-travel probes against the depth-2 service's retention ring:
/// `Service::at` plus one view read, and the impact query.
fn history_probes(
    service: &Service,
    journal: &[Op],
    want: &[Outcome],
    layers: &mut Layers,
) -> BenchResult<()> {
    let seq = *service
        .retained_seqs()
        .last()
        .ok_or("the service retains no seq")?;
    // The newest design data and cell version the stream touched.
    let mut read: Option<(UserId, DovId)> = None;
    let mut project: Option<ProjectId> = None;
    let mut cv: Option<CellVersionId> = None;
    for (op, outcome) in journal.iter().zip(want) {
        match (op, outcome) {
            (Op::RunActivity { user, .. }, Ok(Event::ActivityRun { dovs })) if !dovs.is_empty() => {
                read = Some((*user, dovs[0]));
            }
            (_, Ok(Event::ProjectCreated(p))) => project = Some(*p),
            (_, Ok(Event::CellVersionCreated(c, _))) => cv = Some(*c),
            (Op::Reserve { cv: c, .. }, Ok(_)) => cv = Some(*c),
            _ => {}
        }
    }
    let cv = cv.ok_or("the stream created no cell version")?;
    let mut failed = None;
    let read_ns = probe(PROBE_REPS, |_| {
        let answer = service.at(seq).and_then(|snap| match (read, project) {
            (Some((user, dov)), _) => snap.read_design_data(user, dov).map(|b| b.len()),
            (None, Some(p)) => snap.library_of(p).map(str::len),
            (None, None) => Ok(0),
        });
        if let Err(e) = answer {
            failed = Some(format!("history read probe: {e}"));
        }
    });
    layers.put("history.read_us", read_ns / 1e3, "us");
    if read.is_none() {
        layers.notes.push(
            "history.read_us: no design data in this stream; timed Service::at + library_of".into(),
        );
    }
    let impact_ns = probe(PROBE_REPS, |_| match service.at(seq) {
        Ok(snap) => {
            std::hint::black_box((snap.stale_dovs(cv), snap.impacted_cellviews(cv)));
        }
        Err(e) => failed = Some(format!("history impact probe: {e}")),
    });
    layers.put("history.impact_us", impact_ns / 1e3, "us");
    failed.map_or(Ok(()), Err)
}

/// Applies design cycles to the final engine for op kinds the
/// workload's journal lacks, so every kind has a reading at the final
/// size. Returns apply times by kind.
fn kind_probe(
    engine: &mut Engine,
    want: &[Outcome],
    seed: u64,
) -> BenchResult<BTreeMap<&'static str, Vec<f64>>> {
    let team = want
        .iter()
        .find_map(|o| match o {
            Ok(Event::TeamAdded(t)) => Some(*t),
            _ => None,
        })
        .ok_or("the stream added no team")?;
    let flow = want
        .iter()
        .find_map(|o| match o {
            Ok(Event::StandardFlowDefined(f)) => Some(*f),
            _ => None,
        })
        .ok_or("the stream defined no flow")?;
    let apply = |engine: &mut Engine, op: Op| -> BenchResult<(Event, f64)> {
        let kind = op.kind_name();
        let start = Instant::now();
        let result = engine.apply(op);
        let took = ns(start, Instant::now());
        result
            .map(|event| (event, took))
            .map_err(|e| format!("kind probe {kind}: {e}"))
    };
    let admin = engine.admin();
    let user = match apply(
        engine,
        Op::AddUser {
            name: "servebench-probe".into(),
            manager: false,
        },
    )?
    .0
    {
        Event::UserAdded(u) => u,
        other => return Err(format!("kind probe add-user: {other:?}")),
    };
    apply(
        engine,
        Op::AddTeamMember {
            actor: admin,
            team,
            user,
        },
    )?;
    let project = match apply(
        engine,
        Op::CreateProject {
            name: "servebench-probe".into(),
        },
    )?
    .0
    {
        Event::ProjectCreated(p) => p,
        other => return Err(format!("kind probe create-project: {other:?}")),
    };
    let cell = match apply(
        engine,
        Op::CreateCell {
            project,
            name: "probe".into(),
        },
    )?
    .0
    {
        Event::CellCreated(c) => c,
        other => return Err(format!("kind probe create-cell: {other:?}")),
    };
    let (cv, variant) = match apply(
        engine,
        Op::CreateCellVersion {
            cell,
            flow: flow.flow,
            team,
        },
    )?
    .0
    {
        Event::CellVersionCreated(cv, v) => (cv, v),
        other => return Err(format!("kind probe create-cell-version: {other:?}")),
    };
    let payloads: Vec<(Blob, Blob)> = (0..4u64)
        .map(|k| {
            let design = design_data::generate::random_logic(NETLIST_GATES, seed.wrapping_add(k));
            let sch = design_data::format::write_netlist(&design.netlists[&design.top]);
            let wave = format!("waves\nsig probe{k}\nev {} 1\n", k + 1);
            (sch.into_bytes().into(), wave.into_bytes().into())
        })
        .collect();
    let mut times: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for c in 0..PROBE_CYCLES {
        let (sch, wave) = &payloads[c % payloads.len()];
        let mut timed = |engine: &mut Engine, op: Op| -> BenchResult<Event> {
            let kind = op.kind_name();
            let (event, took) = apply(engine, op)?;
            times.entry(kind).or_default().push(took);
            Ok(event)
        };
        timed(engine, Op::Reserve { user, cv })?;
        let mut dovs = Vec::new();
        for (activity, view, data) in [
            (flow.enter_schematic, "schematic", sch),
            (flow.simulate, "waveform", wave),
        ] {
            match timed(
                engine,
                Op::RunActivity {
                    user,
                    variant,
                    activity,
                    override_pending: false,
                    outputs: vec![(view.into(), data.clone())],
                    session_error: None,
                },
            )? {
                Event::ActivityRun { dovs: made } if !made.is_empty() => dovs.push(made[0]),
                other => return Err(format!("kind probe run-activity: {other:?}")),
            }
        }
        for &dov in &dovs {
            timed(engine, Op::Browse { user, dov })?;
        }
        timed(engine, Op::ReadDesignData { user, dov: dovs[0] })?;
        timed(engine, Op::Publish { user, cv })?;
    }
    Ok(times)
}

/// The traced run's layer breakdown of one served journal.
pub fn layers(
    inputs: &Inputs,
    fin: &Finished,
    phase: &Phase,
    untraced_ops_per_s: f64,
    epoch: Instant,
) -> BenchResult<Layers> {
    let journal = &fin.journal;
    let from = fin.preload_ops.min(journal.len());
    let mut layers = Layers {
        metrics: Vec::new(),
        notes: Vec::new(),
        spans: Spans::new(epoch, true),
    };
    let spans = &mut layers.spans;

    let InProcess {
        mut engine,
        want,
        service,
        d2,
        d3,
        d4,
        captures,
        bytes_per_op,
    } = in_process(journal, spans)?;
    let replayed = engine
        .state_fingerprint()
        .map_err(|e| format!("replay fingerprint: {e}"))?;
    gate(&fin.fingerprint, &replayed)?;
    let pipelined = inputs.workload == Workload::CatalogBuild;
    let d1 = depth1(journal, &want, from, pipelined, spans)?;
    let (op_codec, frame_codec) = codecs(journal, &want, from, spans)?;

    let diff = |a: &[f64], b: &[f64]| -> f64 {
        let per_op: Vec<f64> = (from..journal.len()).map(|i| a[i] - b[i]).collect();
        mean(&per_op) / 1e3
    };
    let measured = journal.len() - from;
    layers.notes.push(format!(
        "replayed {} journal ops ({} set-up, {measured} measured); depth-1 measured ops {}",
        journal.len(),
        from,
        if pipelined {
            "pipelined"
        } else {
            "one at a time"
        }
    ));

    let mut self_by_kind: BTreeMap<&'static str, Vec<[f64; 4]>> = BTreeMap::new();
    for i in from..journal.len() {
        self_by_kind
            .entry(journal[i].kind_name())
            .or_default()
            .push([d1[i] - d2[i], d2[i] - d3[i], d3[i] - d4[i], d4[i]]);
    }
    for (kind, rows) in &self_by_kind {
        let col = |c: usize| mean(&rows.iter().map(|r| r[c]).collect::<Vec<_>>()) / 1e3;
        layers.notes.push(format!(
            "self time of measured {kind} ({} ops), mean us: net {:.2} | service {:.2} | retention {:.2} | engine {:.2}",
            rows.len(),
            col(0),
            col(1),
            col(2),
            col(3)
        ));
    }
    layers.put("net.self_us", diff(&d1, &d2), "us");
    layers.put("net.proto_codec_ns", frame_codec, "ns");
    layers.put("ops.codec_ns", op_codec, "ns");
    layers.put("net.frames_in", phase.net.frames_in as f64, "count");
    layers.put("net.frames_out", phase.net.frames_out as f64, "count");
    layers.put("net.busy", phase.net.busy as f64, "count");
    layers.put("net.timeouts", phase.net.timeouts as f64, "count");
    layers.put(
        "net.protocol_errors",
        phase.net.protocol_errors as f64,
        "count",
    );
    layers.put("service.self_us", diff(&d2, &d3), "us");
    let s = &phase.service;
    layers.put("service.batches", s.batches as f64, "count");
    layers.put(
        "service.mean_batch",
        s.ops as f64 / s.batches.max(1) as f64,
        "ops",
    );
    layers.put("service.max_queue_depth", s.max_queue_depth as f64, "count");
    layers.put("service.writer_waits", s.writer_waits as f64, "count");
    layers.put("history.retention_us", diff(&d3, &d4), "us");
    layers.put("snapshot.capture_ns", median(&captures[from..]), "ns");
    layers.put("engine.self_us", mean(&d4[from..]) / 1e3, "us");

    // Depth-4 apply time by kind over the whole stream; kinds the
    // stream lacks come from design cycles applied at the final size.
    let mut by_kind: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut retained_by_kind: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (i, op) in journal.iter().enumerate() {
        by_kind.entry(op.kind_name()).or_default().push(d4[i]);
        retained_by_kind
            .entry(op.kind_name())
            .or_default()
            .push(d3[i]);
    }
    let growth = {
        let tenth = (measured / 10).max(1);
        let first = median(&d4[from..from + tenth.min(measured)]);
        let last = median(&d4[journal.len() - tenth.min(measured)..]);
        last / first.max(1.0)
    };
    history_probes(&service, journal, &want, &mut layers)?;
    drop(service);
    component_probes(&mut engine, inputs, &mut layers)?;
    let missing: Vec<&str> = KINDS
        .iter()
        .copied()
        .filter(|k| !by_kind.contains_key(k))
        .collect();
    if !missing.is_empty() {
        let probed = kind_probe(&mut engine, &want, inputs.seed)?;
        for kind in &missing {
            by_kind.insert(kind, probed.get(kind).cloned().unwrap_or_default());
        }
        layers.notes.push(format!(
            "engine.apply_us for {} : absent from this stream; read from {PROBE_CYCLES} design cycles applied to the final engine",
            missing.join(", ")
        ));
    }
    for kind in KINDS {
        let times = by_kind.get(kind).map(Vec::as_slice).unwrap_or(&[]);
        let t = tail(times);
        layers.put(
            format!("engine.apply_us.{kind}.p50"),
            median(times) / 1e3,
            "us",
        );
        layers.put(format!("engine.apply_us.{kind}.tail"), t.value / 1e3, "us");
        let with_ring = retained_by_kind.get(kind).map(|v| median(v) / 1e3);
        layers.notes.push(format!(
            "engine.apply_us.{kind}: p50 {:.2} us, tail p{:.1} {:.2} us over {} ops; with the 64-deep retention ring p50 {}",
            median(times) / 1e3,
            t.percentile,
            t.value / 1e3,
            t.samples,
            with_ring.map_or("-".to_owned(), |v| format!("{v:.2} us"))
        ));
    }
    layers.put("engine.apply_growth", growth, "ratio");
    layers.put("vfs.bytes_materialized_per_op", bytes_per_op, "B");
    layers.put("engine.failures", fin.engine_failures as f64, "count");
    layers.put(
        "trace.overhead_ratio",
        untraced_ops_per_s / phase.ops_per_s().max(1e-9),
        "ratio",
    );
    Ok(layers)
}
