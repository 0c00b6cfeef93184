//! The typed session-side desktop both front-ends share.

use jcf::{ActivityId, CellId, CellVersionId, DovId, FlowId, ProjectId, TeamId, UserId, VariantId};

use crate::encapsulation::ToolOutput;
use crate::error::{HybridError, HybridResult};
use crate::events::Event;
use crate::framework::StandardFlow;
use crate::ops::Op;

/// The error for an event the op cannot produce.
pub(crate) fn unexpected(event: &Event) -> HybridError {
    HybridError::Journal(format!(
        "engine returned unexpected event {}",
        event.kind_name()
    ))
}

/// Typed writes on behalf of one user, over any write path.
///
/// Implemented by [`Session`](crate::Session) (one engine) and
/// [`ShardedSession`](crate::ShardedSession) (virtual ids over N
/// partition engines). An implementor supplies [`SessionOps::user`]
/// and [`SessionOps::apply_seq`]; every helper builds one [`Op`],
/// submits it and unpacks the event. Helpers that create an entity
/// return its id; the others return the commit seq. An event of the
/// wrong kind comes back as [`HybridError::Journal`], never a panic.
///
/// Sessions are not permission-checked; the acting user travels in
/// the op where the desktop requires one.
///
/// # Examples
///
/// ```
/// use hybrid::{Engine, Service, SessionOps, ShardedService};
///
/// fn alu(session: &impl SessionOps) -> hybrid::HybridResult<jcf::CellId> {
///     let project = session.create_project("alu16")?;
///     session.create_cell(project, "adder")
/// }
///
/// # fn main() -> hybrid::HybridResult<()> {
/// let single = Service::new(Engine::builder().build());
/// alu(&single.open_session(single.admin()))?;
/// let sharded = ShardedService::new(4);
/// alu(&sharded.open_session(sharded.admin()))?;
/// # Ok(())
/// # }
/// ```
pub trait SessionOps {
    /// The user this session acts as.
    fn user(&self) -> UserId;

    /// Submits one op and blocks until it commits, returning the
    /// commit seq with the event.
    ///
    /// # Errors
    ///
    /// Returns whatever the op returns on the engine.
    fn apply_seq(&self, op: Op) -> HybridResult<(u64, Event)>;

    /// Like [`SessionOps::apply_seq`], without the seq.
    ///
    /// # Errors
    ///
    /// Returns whatever the op returns on the engine.
    fn apply(&self, op: Op) -> HybridResult<Event> {
        self.apply_seq(op).map(|(_, event)| event)
    }

    /// Adds a user (admin-only names are enforced by the engine).
    ///
    /// # Errors
    ///
    /// Returns desktop errors (e.g. a taken name).
    fn add_user(&self, name: &str, manager: bool) -> HybridResult<UserId> {
        let name = name.to_owned();
        match self.apply(Op::AddUser { name, manager })? {
            Event::UserAdded(id) => Ok(id),
            other => Err(unexpected(&other)),
        }
    }

    /// Adds a team owned by this session's user.
    ///
    /// # Errors
    ///
    /// Returns desktop errors.
    fn add_team(&self, name: &str) -> HybridResult<TeamId> {
        let (actor, name) = (self.user(), name.to_owned());
        match self.apply(Op::AddTeam { actor, name })? {
            Event::TeamAdded(id) => Ok(id),
            other => Err(unexpected(&other)),
        }
    }

    /// Adds a member to a team.
    ///
    /// # Errors
    ///
    /// Returns desktop errors.
    fn add_team_member(&self, team: TeamId, user: UserId) -> HybridResult<u64> {
        let actor = self.user();
        Ok(self.apply_seq(Op::AddTeamMember { actor, team, user })?.0)
    }

    /// Defines and freezes the paper's standard three-tool flow.
    ///
    /// # Errors
    ///
    /// Returns desktop errors.
    fn standard_flow(&self, name: &str) -> HybridResult<StandardFlow> {
        let name = name.to_owned();
        match self.apply(Op::DefineStandardFlow { name })? {
            Event::StandardFlowDefined(flow) => Ok(flow),
            other => Err(unexpected(&other)),
        }
    }

    /// Creates a project with its coupled FMCAD library (on a sharded
    /// service, the op that places a partition on its shard).
    ///
    /// # Errors
    ///
    /// Returns name-clash errors from either framework.
    fn create_project(&self, name: &str) -> HybridResult<ProjectId> {
        let name = name.to_owned();
        match self.apply(Op::CreateProject { name })? {
            Event::ProjectCreated(id) => Ok(id),
            other => Err(unexpected(&other)),
        }
    }

    /// Creates a cell under a project.
    ///
    /// # Errors
    ///
    /// Returns desktop errors.
    fn create_cell(&self, project: ProjectId, name: &str) -> HybridResult<CellId> {
        let name = name.to_owned();
        match self.apply(Op::CreateCell { project, name })? {
            Event::CellCreated(id) => Ok(id),
            other => Err(unexpected(&other)),
        }
    }

    /// Creates a cell version (and its mapped FMCAD cell) with its
    /// initial variant.
    ///
    /// # Errors
    ///
    /// Returns errors from either framework.
    fn create_cell_version(
        &self,
        cell: CellId,
        flow: FlowId,
        team: TeamId,
    ) -> HybridResult<(CellVersionId, VariantId)> {
        match self.apply(Op::CreateCellVersion { cell, flow, team })? {
            Event::CellVersionCreated(cv, variant) => Ok((cv, variant)),
            other => Err(unexpected(&other)),
        }
    }

    /// Derives a named variant of a reserved cell version.
    ///
    /// # Errors
    ///
    /// Returns reservation errors.
    fn derive_variant(
        &self,
        cv: CellVersionId,
        name: &str,
        base: Option<VariantId>,
    ) -> HybridResult<VariantId> {
        let (user, name) = (self.user(), name.to_owned());
        match self.apply(Op::DeriveVariant {
            user,
            cv,
            name,
            base,
        })? {
            Event::VariantDerived(id) => Ok(id),
            other => Err(unexpected(&other)),
        }
    }

    /// Reserves a cell version for this session's user.
    ///
    /// # Errors
    ///
    /// Returns reservation errors.
    fn reserve(&self, cv: CellVersionId) -> HybridResult<u64> {
        let user = self.user();
        Ok(self.apply_seq(Op::Reserve { user, cv })?.0)
    }

    /// Publishes a reserved cell version's design data.
    ///
    /// # Errors
    ///
    /// Returns reservation errors.
    fn publish(&self, cv: CellVersionId) -> HybridResult<u64> {
        let user = self.user();
        Ok(self.apply_seq(Op::Publish { user, cv })?.0)
    }

    /// Declares a hierarchy child of a cell version (a cross-shard
    /// two-phase commit when the child lives in another partition).
    ///
    /// # Errors
    ///
    /// Returns desktop and routing errors.
    fn declare_comp_of(&self, cv: CellVersionId, child: CellId) -> HybridResult<u64> {
        let user = self.user();
        Ok(self.apply_seq(Op::DeclareCompOf { user, cv, child })?.0)
    }

    /// Marks two design object versions equivalent (cross-shard when
    /// they live in different partitions).
    ///
    /// # Errors
    ///
    /// Returns desktop and routing errors.
    fn mark_equivalent(&self, a: DovId, b: DovId) -> HybridResult<u64> {
        Ok(self.apply_seq(Op::MarkEquivalent { a, b })?.0)
    }

    /// Runs an encapsulated activity with pre-recorded tool outputs
    /// (the replayable form of
    /// [`Engine::run_activity`](crate::Engine::run_activity)).
    ///
    /// # Errors
    ///
    /// Returns flow, reservation and consistency errors.
    fn run_activity(
        &self,
        variant: VariantId,
        activity: ActivityId,
        override_pending: bool,
        outputs: Vec<ToolOutput>,
        session_error: Option<String>,
    ) -> HybridResult<Vec<DovId>> {
        match self.apply(Op::RunActivity {
            user: self.user(),
            variant,
            activity,
            override_pending,
            outputs: outputs.into_iter().map(|o| (o.viewtype, o.data)).collect(),
            session_error,
        })? {
            Event::ActivityRun { dovs } => Ok(dovs),
            other => Err(unexpected(&other)),
        }
    }
}
