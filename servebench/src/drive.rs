//! The served path: set-up, wire clients, the measured phase and the
//! correctness gate.
//!
//! Every workload runs against `cad_net::Server` with the default
//! `ServerConfig` (what `net-server` serves) over a `hybrid::Service`
//! with the default retention policy, on loopback, with at most two
//! client connections. Clients are closed loops except the
//! `catalog-build` importers, which pipeline within the server's
//! in-flight window.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use cad_net::proto::Impacted;
use cad_net::{read_frame, write_frame, NetStatsView, Request, Response, Server, ServerConfig};
use cad_net::{MAX_FRAME, PROTOCOL_VERSION};
use cad_vfs::Blob;
use hybrid::{Engine, Event, Op, Service, ServiceStats, StandardFlow};
use jcf::{CellVersionId, DovId, TeamId, UserId, VariantId};

use crate::gen::{Inputs, Workload, POOL};
use crate::stats::Spans;

/// The engine's built-in administrator, which the importers act as.
pub const ADMIN: &str = "framework-admin";
/// Requests each `catalog-build` importer keeps in flight: the default
/// server window.
pub const IMPORT_WINDOW: usize = 32;
/// Admin connections importing the catalog, each its share of projects.
pub const IMPORTERS: usize = 1;

/// A benchmark failure: the run stops and prints no result.
pub type BenchResult<T> = Result<T, String>;

/// A wire connection speaking the frame protocol directly, so requests
/// of every kind can be pipelined.
pub struct Pipe {
    stream: TcpStream,
    next_id: u64,
}

impl Pipe {
    /// Connects and completes the handshake as `user`.
    pub fn connect(addr: SocketAddr, user: &str) -> BenchResult<Pipe> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("timeout: {e}"))?;
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
            user: user.to_owned(),
        };
        write_frame(&mut stream, &hello.encode()).map_err(|e| format!("hello: {e}"))?;
        let payload = read_frame(&mut stream, MAX_FRAME).map_err(|e| format!("welcome: {e}"))?;
        match Response::parse(&payload) {
            Ok(Response::Welcome { .. }) => Ok(Pipe { stream, next_id: 1 }),
            other => Err(format!("handshake as {user}: {other:?}")),
        }
    }

    /// Sends one request built around a fresh correlation id.
    pub fn send(&mut self, build: impl FnOnce(u64) -> Request) -> BenchResult<u64> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.stream, &build(id).encode()).map_err(|e| format!("send: {e}"))?;
        Ok(id)
    }

    /// Receives the next reply.
    pub fn recv(&mut self) -> BenchResult<Response> {
        let payload = read_frame(&mut self.stream, MAX_FRAME).map_err(|e| format!("recv: {e}"))?;
        Response::parse(&payload).map_err(|e| format!("parse: {e}"))
    }

    /// Says goodbye and waits for the server to close.
    pub fn bye(mut self) {
        if write_frame(&mut self.stream, &Request::Bye.encode()).is_ok() {
            let _ = self.stream.shutdown(std::net::Shutdown::Write);
            while read_frame(&mut self.stream, MAX_FRAME).is_ok() {}
        }
    }
}

/// One designer's identity and the cell versions it cycles over.
#[derive(Debug, Clone)]
pub struct Desk {
    /// The desktop user name.
    pub name: String,
    /// The user id.
    pub user: UserId,
    /// Own cell versions with their base variants.
    pub cvs: Vec<(CellVersionId, VariantId)>,
}

/// A published cell version the `history-audit` reader queries.
#[derive(Debug, Clone)]
pub struct AuditItem {
    /// The cell version.
    pub cv: CellVersionId,
    /// Its schematic version and bytes.
    pub sch: (DovId, Blob),
    /// Its waveform version and bytes.
    pub wave: (DovId, Blob),
    /// The expected impact answer: the stale cone, raw ids.
    pub stale: Vec<u64>,
    /// The expected impact answer: the mirrored subset.
    pub impacted: Vec<Impacted>,
}

/// What set-up leaves for the measured phase.
#[derive(Debug, Clone)]
pub struct Fixture {
    /// The team.
    pub team: TeamId,
    /// The standard flow.
    pub flow: StandardFlow,
    /// The designers.
    pub desks: Vec<Desk>,
    /// `history-audit`: the published cell versions.
    pub audit: Vec<AuditItem>,
    /// Ops journaled by set-up; the measured ops follow them.
    pub preload_ops: usize,
}

/// A running server with its preloaded fixture.
pub struct Served {
    /// The service behind the server.
    pub service: Service,
    /// The wire server.
    pub server: Server,
    /// The workload's client connections, handshaken; the measured
    /// phase takes them.
    pub pipes: Vec<Pipe>,
    /// The preloaded fixture.
    pub fx: Fixture,
}

fn submit(service: &Service, count: &mut usize, op: Op) -> BenchResult<Event> {
    *count += 1;
    let kind = op.kind_name();
    service
        .submit(op)
        .map(|(_, event)| event)
        .map_err(|e| format!("preload {kind}: {e}"))
}

fn wrong<T>(what: &str, event: &Event) -> BenchResult<T> {
    Err(format!("preload {what}: unexpected {}", event.kind_name()))
}

fn cell_version(
    service: &Service,
    count: &mut usize,
    project: jcf::ProjectId,
    name: &str,
    flow: &StandardFlow,
    team: TeamId,
) -> BenchResult<(CellVersionId, VariantId)> {
    let cell = match submit(
        service,
        count,
        Op::CreateCell {
            project,
            name: name.to_owned(),
        },
    )? {
        Event::CellCreated(cell) => cell,
        other => return wrong("create-cell", &other),
    };
    match submit(
        service,
        count,
        Op::CreateCellVersion {
            cell,
            flow: flow.flow,
            team,
        },
    )? {
        Event::CellVersionCreated(cv, variant) => Ok((cv, variant)),
        other => wrong("create-cell-version", &other),
    }
}

fn activity(
    user: UserId,
    variant: VariantId,
    activity: jcf::ActivityId,
    view: &str,
    data: &Blob,
) -> Op {
    Op::RunActivity {
        user,
        variant,
        activity,
        override_pending: false,
        outputs: vec![(view.to_owned(), data.clone())],
        session_error: None,
    }
}

/// Starts a server over a fresh service, preloads the workload's
/// fixture through `Service::submit` and connects its clients.
pub fn setup(inputs: &Inputs) -> BenchResult<Served> {
    let service = Service::new(Engine::builder().build());
    let admin = service.admin();
    let mut n = 0;
    let mut users = Vec::new();
    let mut names: Vec<&str> = inputs.designers.iter().map(|d| d.name.as_str()).collect();
    if !inputs.auditor.is_empty() {
        names.push(&inputs.auditor);
    }
    for name in &names {
        match submit(
            &service,
            &mut n,
            Op::AddUser {
                name: (*name).to_owned(),
                manager: false,
            },
        )? {
            Event::UserAdded(user) => users.push(user),
            other => return wrong("add-user", &other),
        }
    }
    let team = match submit(
        &service,
        &mut n,
        Op::AddTeam {
            actor: admin,
            name: inputs.team.clone(),
        },
    )? {
        Event::TeamAdded(team) => team,
        other => return wrong("add-team", &other),
    };
    for &user in &users {
        submit(
            &service,
            &mut n,
            Op::AddTeamMember {
                actor: admin,
                team,
                user,
            },
        )?;
    }
    let flow = match submit(
        &service,
        &mut n,
        Op::DefineStandardFlow {
            name: inputs.flow.clone(),
        },
    )? {
        Event::StandardFlowDefined(flow) => flow,
        other => return wrong("define-standard-flow", &other),
    };

    let mut desks = Vec::new();
    let mut audit = Vec::new();
    if inputs.workload != Workload::CatalogBuild {
        for spec in &inputs.catalog {
            let project = match submit(
                &service,
                &mut n,
                Op::CreateProject {
                    name: spec.name.clone(),
                },
            )? {
                Event::ProjectCreated(p) => p,
                other => return wrong("create-project", &other),
            };
            for cell in &spec.cells {
                cell_version(&service, &mut n, project, cell, &flow, team)?;
            }
        }
        let desk = match submit(
            &service,
            &mut n,
            Op::CreateProject {
                name: inputs.desk.clone(),
            },
        )? {
            Event::ProjectCreated(p) => p,
            other => return wrong("create-project", &other),
        };
        for (spec, &user) in inputs.designers.iter().zip(&users) {
            let mut cvs = Vec::new();
            for cell in &spec.cells {
                cvs.push(cell_version(&service, &mut n, desk, cell, &flow, team)?);
            }
            desks.push(Desk {
                name: spec.name.clone(),
                user,
                cvs,
            });
        }
        // The audited cell versions: written and published once by
        // the first designer, read-only afterwards.
        for (cell, sch, wave) in &inputs.audit {
            let user = users[0];
            let (cv, variant) = cell_version(&service, &mut n, desk, cell, &flow, team)?;
            submit(&service, &mut n, Op::Reserve { user, cv })?;
            let mut dovs = Vec::new();
            for (act, view, data) in [
                (flow.enter_schematic, "schematic", sch),
                (flow.simulate, "waveform", wave),
            ] {
                match submit(&service, &mut n, activity(user, variant, act, view, data))? {
                    Event::ActivityRun { dovs: made } if !made.is_empty() => dovs.push(made[0]),
                    other => return wrong("run-activity", &other),
                }
            }
            submit(&service, &mut n, Op::Publish { user, cv })?;
            audit.push(AuditItem {
                cv,
                sch: (dovs[0], sch.clone()),
                wave: (dovs[1], wave.clone()),
                stale: Vec::new(),
                impacted: Vec::new(),
            });
        }
        // Nothing touches the audited cell versions after this point,
        // so their impact answers are fixed.
        let snap = service.snapshot();
        for item in &mut audit {
            item.stale = snap.stale_dovs(item.cv).iter().map(|d| d.raw()).collect();
            item.impacted = snap
                .impacted_cellviews(item.cv)
                .iter()
                .map(|(dov, m)| Impacted {
                    dov: dov.raw(),
                    version: m.version,
                    library: m.library.clone(),
                    cell: m.cell.clone(),
                    view: m.view.clone(),
                })
                .collect();
        }
    }
    let server = Server::bind("127.0.0.1:0", ServerConfig::default(), service.clone())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let mut pipes = Vec::new();
    match inputs.workload {
        Workload::DesignCycle => {
            for desk in &desks {
                pipes.push(Pipe::connect(addr, &desk.name)?);
            }
        }
        Workload::HistoryAudit => {
            pipes.push(Pipe::connect(addr, &desks[0].name)?);
            pipes.push(Pipe::connect(addr, &inputs.auditor)?);
        }
        Workload::CatalogBuild => {
            for _ in 0..IMPORTERS {
                pipes.push(Pipe::connect(addr, ADMIN)?);
            }
        }
    }
    Ok(Served {
        service,
        server,
        pipes,
        fx: Fixture {
            team,
            flow,
            desks,
            audit,
            preload_ops: n,
        },
    })
}

/// Requests answered, split by class, with failures and the first
/// correctness violation seen.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered as expected.
    pub ok: u64,
    /// Requests that failed, were refused busy, timed out or broke the
    /// transport.
    pub failed: u64,
    /// Latencies of answered reads, ns.
    pub read_ns: Vec<f64>,
    /// Latencies of answered writes, ns.
    pub write_ns: Vec<f64>,
    /// The first wrong answer, if any.
    pub wrong: Option<String>,
}

impl Tally {
    /// Adds another tally's counts and samples to this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        self.read_ns.extend(other.read_ns);
        self.write_ns.extend(other.write_ns);
        if self.wrong.is_none() {
            self.wrong = other.wrong;
        }
    }
}

/// The outcome of one measured phase.
pub struct Phase {
    /// Requests and latencies.
    pub tally: Tally,
    /// Wall-clock seconds the phase took.
    pub seconds: f64,
    /// Server counters at the end of the phase.
    pub net: NetStatsView,
    /// Service counters at the end of the phase.
    pub service: ServiceStats,
    /// Client-side request spans.
    pub spans: Spans,
}

impl Phase {
    /// Answered requests per second.
    pub fn ops_per_s(&self) -> f64 {
        self.tally.ok as f64 / self.seconds.max(1e-9)
    }
}

/// A closed-loop client: one request in flight, timed from send to
/// parsed reply.
struct Closed {
    pipe: Pipe,
    tally: Tally,
    spans: Spans,
}

/// Why a client stopped early.
struct Stop;

impl Closed {
    /// One round trip. Engine rejections, busy answers and transport
    /// errors count as failures; `check` flags a wrong answer.
    fn call(
        &mut self,
        name: &'static str,
        read: bool,
        build: impl FnOnce(u64) -> Request,
        check: impl FnOnce(&Response) -> Result<(), String>,
    ) -> Result<Response, Stop> {
        self.tally.attempted += 1;
        let start = Instant::now();
        let reply = self.pipe.send(build).and_then(|_| self.pipe.recv());
        let end = Instant::now();
        let reply = match reply {
            Ok(Response::Fail { .. } | Response::Busy { .. } | Response::Err { .. }) | Err(_) => {
                self.tally.failed += 1;
                return Err(Stop);
            }
            Ok(reply) => reply,
        };
        if let Err(why) = check(&reply) {
            self.tally.wrong = Some(format!("{name}: {why}"));
            return Err(Stop);
        }
        let op = match &reply {
            Response::Ok { seq, .. } => Some(*seq as usize - 1),
            _ => None,
        };
        self.spans.record(name, start, end, op);
        self.tally.ok += 1;
        let lat = crate::stats::ns(start, end);
        if read {
            self.tally.read_ns.push(lat);
        } else {
            self.tally.write_ns.push(lat);
        }
        Ok(reply)
    }

    fn op(&mut self, name: &'static str, read: bool, op: &Op) -> Result<Event, Stop> {
        let reply = self.call(
            name,
            read,
            |id| Request::Op { id, op: op.clone() },
            |r| match r {
                Response::Ok { .. } => Ok(()),
                other => Err(format!("expected ok, got {other:?}")),
            },
        )?;
        match reply {
            Response::Ok { event, .. } => Ok(event),
            _ => Err(Stop),
        }
    }

    fn flag(&mut self, what: String) -> Stop {
        self.tally.wrong = Some(what);
        Stop
    }
}

fn dov_of(event: &Event) -> Option<DovId> {
    match event {
        Event::ActivityRun { dovs } => dovs.first().copied(),
        _ => None,
    }
}

/// One `design-cycle` designer: reserve → schematic → simulate →
/// browse ×2 → read → publish, over its own cell versions.
fn designer_loop(
    c: &mut Closed,
    desk: &Desk,
    spec: &crate::gen::DesignerSpec,
    flow: &StandardFlow,
    deadline: Instant,
) -> Result<(), Stop> {
    let user = desk.user;
    let mut cycle = 0;
    while Instant::now() < deadline {
        let (cv, variant) = desk.cvs[cycle % desk.cvs.len()];
        let sch = &spec.netlists[cycle % POOL];
        let wave = &spec.waveforms[cycle % POOL];
        match c.op("reserve", false, &Op::Reserve { user, cv })? {
            Event::Reserved(got) if got == cv => {}
            other => return Err(c.flag(format!("reserve answered {other:?}"))),
        }
        let e = c.op(
            "run-activity",
            false,
            &activity(user, variant, flow.enter_schematic, "schematic", sch),
        )?;
        let sch_dov = dov_of(&e).ok_or_else(|| c.flag(format!("schematic answered {e:?}")))?;
        let e = c.op(
            "run-activity",
            false,
            &activity(user, variant, flow.simulate, "waveform", wave),
        )?;
        let wave_dov = dov_of(&e).ok_or_else(|| c.flag(format!("simulate answered {e:?}")))?;
        for (dov, want) in [(sch_dov, sch), (wave_dov, wave)] {
            match c.op("browse", true, &Op::Browse { user, dov })? {
                Event::Browsed { data } if data == *want => {}
                other => {
                    return Err(c.flag(format!(
                        "browse of {dov} answered {} bytes",
                        bytes_of(&other)
                    )))
                }
            }
        }
        match c.op(
            "read-design-data",
            true,
            &Op::ReadDesignData { user, dov: sch_dov },
        )? {
            Event::DesignDataRead { data } if data == *sch => {}
            other => {
                return Err(c.flag(format!(
                    "read of {sch_dov} answered {} bytes",
                    bytes_of(&other)
                )))
            }
        }
        match c.op("publish", false, &Op::Publish { user, cv })? {
            Event::Published(got) if got == cv => {}
            other => return Err(c.flag(format!("publish answered {other:?}"))),
        }
        cycle += 1;
    }
    Ok(())
}

fn bytes_of(event: &Event) -> String {
    match event {
        Event::Browsed { data } | Event::DesignDataRead { data } => data.len().to_string(),
        other => other.kind_name().to_owned(),
    }
}

/// The `history-audit` writer: reserve → schematic → publish.
fn writer_loop(
    c: &mut Closed,
    desk: &Desk,
    spec: &crate::gen::DesignerSpec,
    flow: &StandardFlow,
    deadline: Instant,
) -> Result<(), Stop> {
    let user = desk.user;
    let mut cycle = 0;
    while Instant::now() < deadline {
        let (cv, variant) = desk.cvs[cycle % desk.cvs.len()];
        match c.op("reserve", false, &Op::Reserve { user, cv })? {
            Event::Reserved(got) if got == cv => {}
            other => return Err(c.flag(format!("reserve answered {other:?}"))),
        }
        let sch = &spec.netlists[cycle % POOL];
        let e = c.op(
            "run-activity",
            false,
            &activity(user, variant, flow.enter_schematic, "schematic", sch),
        )?;
        dov_of(&e).ok_or_else(|| c.flag(format!("schematic answered {e:?}")))?;
        match c.op("publish", false, &Op::Publish { user, cv })? {
            Event::Published(got) if got == cv => {}
            other => return Err(c.flag(format!("publish answered {other:?}"))),
        }
        cycle += 1;
    }
    Ok(())
}

/// Reads the `history-audit` reader issues per loop, between one
/// `history-retained` and one `history-impact`.
pub const AUDIT_READS: usize = 4;

/// The `history-audit` reader: history-retained → history-read ×k →
/// history-impact, at the newest retained seq.
fn reader_loop(c: &mut Closed, audit: &[AuditItem], deadline: Instant) -> Result<(), Stop> {
    let mut round = 0;
    while Instant::now() < deadline {
        let reply = c.call(
            "history-retained",
            true,
            |id| Request::HistoryRetained { id },
            |r| match r {
                Response::Retained { seqs, .. } if !seqs.is_empty() => Ok(()),
                other => Err(format!("expected retained seqs, got {other:?}")),
            },
        )?;
        let seq = match reply {
            Response::Retained { seqs, .. } => *seqs.last().ok_or(Stop)?,
            _ => return Err(Stop),
        };
        for k in 0..AUDIT_READS {
            let item = &audit[(round * AUDIT_READS + k) % audit.len()];
            let (dov, want) = if k % 2 == 0 { &item.sch } else { &item.wave };
            c.call(
                "history-read",
                true,
                |id| Request::HistoryRead {
                    id,
                    seq,
                    dov: dov.raw(),
                },
                |r| match r {
                    Response::Data { data, .. } if data.as_slice() == want.as_slice() => Ok(()),
                    other => Err(format!("read of {dov} at {seq}: {other:?}")),
                },
            )?;
        }
        let item = &audit[round % audit.len()];
        c.call(
            "history-impact",
            true,
            |id| Request::HistoryImpact {
                id,
                seq,
                cv: item.cv.raw(),
            },
            |r| match r {
                Response::Impact {
                    stale, impacted, ..
                } if *stale == item.stale && *impacted == item.impacted => Ok(()),
                other => Err(format!("impact of {} at {seq}: {other:?}", item.cv)),
            },
        )?;
        round += 1;
    }
    Ok(())
}

/// What an importer has sent and waits for.
#[derive(Debug, Clone, Copy)]
enum Pending {
    Project(usize),
    Cell(usize),
    Version(usize),
    Retained(u64),
}

/// One `catalog-build` importer: builds its share of the catalog with
/// up to [`IMPORT_WINDOW`] requests in flight. A project's cells are
/// sent when its id returns, each cell's version when the cell's id
/// returns, and after a project's last version a `history-retained`
/// read, whose newest seq must cover that version's commit.
fn importer(
    pipe: &mut Pipe,
    inputs: &Inputs,
    fx: &Fixture,
    mine: Vec<usize>,
    spans: &mut Spans,
) -> Tally {
    let mut tally = Tally::default();
    let mut next_project = mine.into_iter();
    let mut ready: VecDeque<(Pending, Op)> = VecDeque::new();
    let mut polls: VecDeque<u64> = VecDeque::new();
    let mut inflight: VecDeque<(Pending, Instant)> = VecDeque::new();
    let mut versions_left = vec![0usize; inputs.catalog.len()];
    let mut stop = false;
    loop {
        while !stop && inflight.len() < IMPORT_WINDOW {
            let sent = if let Some(seq) = polls.pop_front() {
                pipe.send(|id| Request::HistoryRetained { id })
                    .map(|_| Pending::Retained(seq))
            } else if let Some((pending, op)) = ready.pop_front() {
                pipe.send(|id| Request::Op { id, op }).map(|_| pending)
            } else if let Some(p) = next_project.next() {
                let op = Op::CreateProject {
                    name: inputs.catalog[p].name.clone(),
                };
                pipe.send(|id| Request::Op { id, op })
                    .map(|_| Pending::Project(p))
            } else {
                break;
            };
            tally.attempted += 1;
            match sent {
                Ok(pending) => inflight.push_back((pending, Instant::now())),
                Err(_) => {
                    tally.failed += 1;
                    stop = true;
                }
            }
        }
        let Some((pending, start)) = inflight.pop_front() else {
            break;
        };
        let reply = pipe.recv();
        let end = Instant::now();
        let reply = match reply {
            Ok(Response::Fail { .. } | Response::Busy { .. } | Response::Err { .. }) | Err(_) => {
                tally.failed += 1;
                stop = true;
                continue;
            }
            Ok(reply) => reply,
        };
        let lat = crate::stats::ns(start, end);
        let (name, seq) = match &reply {
            Response::Ok { seq, .. } => ("import-op", Some(*seq)),
            _ => ("history-retained", None),
        };
        let verdict = match (pending, reply) {
            (
                Pending::Project(p),
                Response::Ok {
                    event: Event::ProjectCreated(project),
                    ..
                },
            ) => {
                versions_left[p] = inputs.catalog[p].cells.len();
                for cell in &inputs.catalog[p].cells {
                    ready.push_back((
                        Pending::Cell(p),
                        Op::CreateCell {
                            project,
                            name: cell.clone(),
                        },
                    ));
                }
                Ok(false)
            }
            (
                Pending::Cell(p),
                Response::Ok {
                    event: Event::CellCreated(cell),
                    ..
                },
            ) => {
                ready.push_back((
                    Pending::Version(p),
                    Op::CreateCellVersion {
                        cell,
                        flow: fx.flow.flow,
                        team: fx.team,
                    },
                ));
                Ok(false)
            }
            (
                Pending::Version(p),
                Response::Ok {
                    seq,
                    event: Event::CellVersionCreated(..),
                    ..
                },
            ) => {
                versions_left[p] -= 1;
                if versions_left[p] == 0 {
                    polls.push_back(seq);
                }
                Ok(false)
            }
            (Pending::Retained(seq), Response::Retained { seqs, .. }) => {
                if seqs.windows(2).all(|w| w[0] < w[1]) && seqs.last().is_some_and(|&s| s >= seq) {
                    Ok(true)
                } else {
                    Err(format!("retained seqs {seqs:?} miss committed seq {seq}"))
                }
            }
            (pending, other) => Err(format!("{pending:?} answered {other:?}")),
        };
        match verdict {
            Ok(read) => {
                tally.ok += 1;
                if read {
                    tally.read_ns.push(lat);
                } else {
                    tally.write_ns.push(lat);
                }
                spans.record(name, start, end, seq.map(|s| s as usize - 1));
            }
            Err(why) => {
                tally.wrong = Some(why);
                stop = true;
            }
        }
    }
    tally
}

/// Runs the measured phase of a set-up workload: closed loops until
/// `seconds` pass, or one whole catalog build.
pub fn measure(
    served: &mut Served,
    inputs: &Inputs,
    seconds: f64,
    trace: bool,
    epoch: Instant,
) -> BenchResult<Phase> {
    let fx = &served.fx;
    let pipes = std::mem::take(&mut served.pipes);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let results: Vec<(Tally, Spans, Pipe)> = std::thread::scope(|scope| {
        let handles: Vec<_> = pipes
            .into_iter()
            .enumerate()
            .map(|(i, pipe)| {
                scope.spawn(move || {
                    let spans = Spans::new(epoch, trace);
                    match inputs.workload {
                        Workload::CatalogBuild => {
                            let mut pipe = pipe;
                            let mut spans = spans;
                            let mine = (i..inputs.catalog.len()).step_by(IMPORTERS).collect();
                            let tally = importer(&mut pipe, inputs, fx, mine, &mut spans);
                            (tally, spans, pipe)
                        }
                        _ => {
                            let mut c = Closed {
                                pipe,
                                tally: Tally::default(),
                                spans,
                            };
                            let _ = match (inputs.workload, i) {
                                (Workload::DesignCycle, _) => designer_loop(
                                    &mut c,
                                    &fx.desks[i],
                                    &inputs.designers[i],
                                    &fx.flow,
                                    deadline,
                                ),
                                (_, 0) => writer_loop(
                                    &mut c,
                                    &fx.desks[0],
                                    &inputs.designers[0],
                                    &fx.flow,
                                    deadline,
                                ),
                                _ => reader_loop(&mut c, &fx.audit, deadline),
                            };
                            (c.tally, c.spans, c.pipe)
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let seconds = start.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    let mut spans = Spans::new(epoch, trace);
    for (t, s, pipe) in results {
        tally.absorb(t);
        spans.absorb(s);
        pipe.bye();
    }
    Ok(Phase {
        tally,
        seconds,
        net: served.server.stats(),
        service: served.service.stats(),
        spans,
    })
}

/// The served engine's final state, checked against a replay.
pub struct Finished {
    /// The served journal.
    pub journal: Vec<Op>,
    /// Ops journaled by set-up.
    pub preload_ops: usize,
    /// Failed ops the engine's `CounterSink` saw.
    pub engine_failures: u64,
    /// The served engine's fingerprint.
    pub fingerprint: String,
}

/// Closes the clients and stops the server.
pub fn close(served: &mut Served) {
    for pipe in std::mem::take(&mut served.pipes) {
        pipe.bye();
    }
    served.server.shutdown();
}

/// Stops the server and reads the served engine's journal and
/// fingerprint.
pub fn finish(mut served: Served) -> BenchResult<Finished> {
    close(&mut served);
    served.service.with_engine(|e| {
        Ok(Finished {
            journal: e.journal_ops().to_vec(),
            preload_ops: served.fx.preload_ops,
            engine_failures: e.counters().failures().values().sum(),
            fingerprint: e
                .state_fingerprint()
                .map_err(|err| format!("fingerprint: {err}"))?,
        })
    })
}

/// The correctness gate on the final state: `actual` (a fresh engine
/// replaying the served journal) must equal `expected` (the served
/// engine's fingerprint).
pub fn gate(expected: &str, actual: &str) -> BenchResult<()> {
    if expected == actual {
        return Ok(());
    }
    let line = expected
        .lines()
        .zip(actual.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
    Err(format!(
        "state fingerprint mismatch: served engine and journal replay differ from line {}",
        line + 1
    ))
}

/// Replays `journal` on a fresh engine and returns its fingerprint.
pub fn replay_fingerprint(journal: &[Op]) -> BenchResult<String> {
    let mut engine = Engine::builder().build();
    for op in journal {
        let _ = engine.apply(op.clone());
    }
    engine
        .state_fingerprint()
        .map_err(|e| format!("replay fingerprint: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_rejects_a_wrong_expected_fingerprint() {
        let mut engine = Engine::builder().build();
        engine
            .apply(Op::CreateProject {
                name: "gate".into(),
            })
            .unwrap();
        let served = engine.state_fingerprint().unwrap();
        let replayed = replay_fingerprint(engine.journal_ops()).unwrap();
        gate(&served, &replayed).unwrap();
        let wrong = served.replacen("gate", "gatf", 1);
        assert!(gate(&wrong, &replayed).is_err());
        assert!(gate(&served[..served.len() - 1], &replayed).is_err());
    }
}
