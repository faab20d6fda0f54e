//! Workflow specifications and the execution engine.
//!
//! The paper evaluates the "most common invocation patterns" —
//! sequential chains, fan-out and fan-in (§6.1, citing the Berkeley
//! view). This module generalizes those shapes into arbitrary DAGs
//! ([`WorkflowDag`]): a [`WorkflowSpec`] names the graph, and one
//! discrete-event engine drives the transfers through whatever
//! [`DataPlane`] the embedder provides (Roadrunner's shim modes, or a
//! baseline's HTTP path). Independent edges overlap in virtual time while
//! per-resource timelines ([`roadrunner_vkernel::sched`]) serialize
//! contended cores and links. Every entry point is that engine:
//!
//! * [`execute_concurrent_at`] releases one instance onto the caller's
//!   resources. Its makespan is bounded below by the DAG's critical path
//!   ([`critical_path_ns`]) and above by the serial total.
//! * [`execute`] (and [`execute_compiled`], over a [`CompiledWorkflow`]
//!   that hoists validation out of repeated runs) runs the engine on
//!   resources of its own and lays the edges end to end: each starts
//!   when the previous one finishes, which is what the paper's
//!   one-edge-at-a-time measurements assume.
//! * The load generator ([`crate::loadgen`]) compiles each spec once and
//!   runs the engine for every instance it admits, under its placement
//!   policy, failures and overload control.

use bytes::Bytes;
use roadrunner_vkernel::sched::{EventQueue, SchedResources};
use roadrunner_vkernel::{Nanos, VirtualClock};

use crate::dag::WorkflowDag;
use crate::error::PlatformError;
use crate::overload::OverloadCtl;

/// A named, tenant-scoped workflow over a function DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkflowSpec {
    /// Workflow name (used in bundle annotations).
    pub name: String,
    /// Owning tenant (Roadrunner's trust boundary).
    pub tenant: String,
    /// The invocation graph.
    pub dag: WorkflowDag,
}

impl WorkflowSpec {
    /// Wraps an explicit DAG.
    pub fn from_dag(
        name: impl Into<String>,
        tenant: impl Into<String>,
        dag: WorkflowDag,
    ) -> Self {
        Self { name: name.into(), tenant: tenant.into(), dag }
    }

    /// Creates a sequential chain `f1 → f2 → … → fn`.
    pub fn sequence(
        name: impl Into<String>,
        tenant: impl Into<String>,
        functions: impl IntoIterator<Item = String>,
    ) -> Self {
        let mut dag = WorkflowDag::new();
        let mut prev: Option<String> = None;
        for f in functions {
            match prev.take() {
                None => {
                    dag.add_node(&f);
                }
                Some(p) => {
                    dag.add_edge(&p, &f);
                }
            }
            prev = Some(f);
        }
        Self::from_dag(name, tenant, dag)
    }

    /// Creates a fan-out: one source delivers to every target.
    pub fn fanout(
        name: impl Into<String>,
        tenant: impl Into<String>,
        source: impl Into<String>,
        targets: impl IntoIterator<Item = String>,
    ) -> Self {
        let source = source.into();
        let mut dag = WorkflowDag::new();
        dag.add_node(&source);
        for t in targets {
            dag.add_edge(&source, &t);
        }
        Self::from_dag(name, tenant, dag)
    }

    /// Creates a fan-in: every source delivers to one target.
    pub fn fan_in(
        name: impl Into<String>,
        tenant: impl Into<String>,
        sources: impl IntoIterator<Item = String>,
        target: impl Into<String>,
    ) -> Self {
        let target = target.into();
        let mut dag = WorkflowDag::new();
        for s in sources {
            dag.add_edge(&s, &target);
        }
        Self::from_dag(name, tenant, dag)
    }

    /// All functions referenced by the workflow, in first-appearance
    /// order, without duplicates (the DAG interns names through a hash
    /// guard, so this is O(n), not the old O(n²) scan).
    pub fn functions(&self) -> Vec<&str> {
        self.dag.nodes().collect()
    }

    /// Checks structural validity (delegates to
    /// [`WorkflowDag::validate`]: at least one edge, acyclic, connected).
    ///
    /// # Errors
    ///
    /// [`PlatformError::InvalidWorkflow`] describing the problem.
    pub fn validate(&self) -> Result<(), PlatformError> {
        self.dag.validate()
    }
}

/// A workflow spec with every derived structure the engine needs,
/// computed **once** and reused across executions.
///
/// The load generators admit thousands of instances of the *same* spec;
/// re-validating the graph and re-deriving fan-in counts per arrival was
/// pure rework. Compiling hoists all of it:
///
/// * structural validation ([`WorkflowSpec::validate`]) has already
///   passed — a `CompiledWorkflow` is valid by construction;
/// * the in-degrees and [`roots`](Self::roots) seed the engine's
///   readiness tracking without per-run graph walks.
///
/// Compile once per spec, then drive [`execute_compiled`] (or the load
/// generator) with it as many times as needed.
#[derive(Debug, Clone)]
pub struct CompiledWorkflow<'a> {
    spec: &'a WorkflowSpec,
    in_degrees: Vec<usize>,
    roots: Vec<usize>,
}

impl<'a> CompiledWorkflow<'a> {
    /// Validates `spec` and precomputes the execution structures.
    ///
    /// # Errors
    ///
    /// [`PlatformError::InvalidWorkflow`] exactly when
    /// [`WorkflowSpec::validate`] fails.
    pub fn compile(spec: &'a WorkflowSpec) -> Result<Self, PlatformError> {
        spec.validate()?;
        let dag = &spec.dag;
        Ok(Self { spec, in_degrees: dag.in_degrees(), roots: dag.roots() })
    }

    /// The underlying spec.
    pub fn spec(&self) -> &'a WorkflowSpec {
        self.spec
    }

    /// The underlying graph.
    pub fn dag(&self) -> &'a WorkflowDag {
        &self.spec.dag
    }

    /// Number of nodes in the graph.
    pub fn node_count(&self) -> usize {
        self.in_degrees.len()
    }

    /// Number of edges in the graph.
    pub fn edge_count(&self) -> usize {
        self.spec.dag.edge_count()
    }

    /// Entry nodes (no incoming edges).
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }
}

/// Per-phase timing of one transfer, as attributed by the plane.
///
/// * `prepare_ns` — input delivery plus source handler execution;
/// * `transfer_ns` — payload movement proper (the paper's transfer
///   latency; wire occupancy for inter-node edges);
/// * `consume_ns` — target handler execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferTiming {
    /// Source-side preparation (charged to the source node's CPU).
    pub prepare_ns: Nanos,
    /// The transfer proper (link occupancy when the edge crosses nodes).
    pub transfer_ns: Nanos,
    /// Target-side consumption (charged to the target node's CPU).
    pub consume_ns: Nanos,
}

impl TransferTiming {
    /// Everything, end to end.
    pub fn total_ns(&self) -> Nanos {
        self.prepare_ns + self.transfer_ns + self.consume_ns
    }
}

/// The transport a workflow runs over: Roadrunner's shim modes or a
/// baseline's HTTP path.
///
/// A plane implements **one** method, [`transfer_placed`]. Where the two
/// endpoints sit is the only thing that selects a delivery mode, and the
/// engines that place instances decide it per instance, so the call that
/// carries the placement is the primitive; [`transfer`] is that call with
/// no placement given. [`placement`] and [`set_health_epoch`] are
/// optional observers with do-nothing defaults.
///
/// [`transfer_placed`]: Self::transfer_placed
/// [`transfer`]: Self::transfer
/// [`placement`]: Self::placement
/// [`set_health_epoch`]: Self::set_health_epoch
pub trait DataPlane {
    /// Delivers `payload` from function `from` to function `to` for an
    /// instance whose endpoints sit on `src_node` / `dst_node` (`None` =
    /// wherever the plane deployed the function), and returns the bytes
    /// as the target received them together with the edge's cost split
    /// into prepare / transfer / consume phases. Planes that derive a
    /// delivery mode from co-location (`RoadrunnerPlane` in
    /// `roadrunner-core`) read the nodes; planes with one mode ignore
    /// them. The engine charges the edge exactly the reported
    /// [`TransferTiming`], not the clock's advance across the call, so
    /// work the plane does after its breakdown (an ack, a release) costs
    /// the edge nothing.
    ///
    /// # Errors
    ///
    /// [`PlatformError::Transfer`] (or any other variant) when delivery
    /// fails.
    fn transfer_placed(
        &mut self,
        from: &str,
        to: &str,
        payload: Bytes,
        src_node: Option<usize>,
        dst_node: Option<usize>,
    ) -> Result<(Bytes, TransferTiming), PlatformError>;

    /// [`transfer_placed`](Self::transfer_placed) under the plane's own
    /// deployment placement, returning only the received bytes.
    ///
    /// # Errors
    ///
    /// Same as [`transfer_placed`](Self::transfer_placed).
    fn transfer(&mut self, from: &str, to: &str, payload: Bytes) -> Result<Bytes, PlatformError> {
        self.transfer_placed(from, to, payload, None, None).map(|(received, _)| received)
    }

    /// Node index `function` is deployed on. [`execute`] and
    /// [`execute_concurrent_at`] ask once per run for every function of
    /// the workflow; `None` (the default) places the function on node 0.
    fn placement(&self, _function: &str) -> Option<usize> {
        None
    }

    /// Observes the cluster's link-health epoch, bumped by the
    /// failure-aware load driver on every outage transition. Caching
    /// planes ([`MemoizedPlane`](crate::memo::MemoizedPlane)) key their
    /// entries on it so costs recorded under one health regime never
    /// replay under another; everything else ignores it (the default).
    fn set_health_epoch(&mut self, _epoch: u64) {}
}

/// Timing and integrity record for one workflow edge.
#[derive(Debug, Clone)]
pub struct EdgeResult {
    /// Sending function.
    pub from: String,
    /// Receiving function.
    pub to: String,
    /// Payload size in bytes.
    pub bytes: usize,
    /// Busy virtual time the transfer itself took: the plane's
    /// [`TransferTiming`] total, excluding any contention wait.
    pub latency_ns: Nanos,
    /// When the edge started, relative to the run's start (for
    /// [`execute_concurrent_at`] this is absolute on the shared
    /// resources' timescale, so it is ≥ the instance's release time).
    pub start_ns: Nanos,
    /// When the edge completed, on the same timescale as `start_ns`
    /// (relative to the run's start; absolute on the shared resources'
    /// timescale for [`execute_concurrent_at`]). There `finish_ns -
    /// start_ns` can exceed `latency_ns` when the edge waited for a
    /// contended resource mid-flight.
    pub finish_ns: Nanos,
    /// The payload as received (reference-counted; cheap to hold).
    pub received: Bytes,
}

/// Result of a workflow execution.
#[derive(Debug, Clone)]
pub struct WorkflowRun {
    /// Per-edge results in the engine's event order.
    pub edges: Vec<EdgeResult>,
    /// Virtual time from first send to last receive: the sum of the
    /// edges' `latency_ns` for [`execute`], the overlapped makespan for
    /// [`execute_concurrent_at`].
    pub total_latency_ns: Nanos,
}

impl WorkflowRun {
    /// Sum of payload bytes moved across all edges.
    pub fn total_bytes(&self) -> usize {
        self.edges.iter().map(|e| e.bytes).sum()
    }

    /// The result of edge `from → to`, if it ran.
    pub fn edge(&self, from: &str, to: &str) -> Option<&EdgeResult> {
        self.edges.iter().find(|e| e.from == from && e.to == to)
    }

    /// Sum of per-edge busy times — what a fully serialized schedule of
    /// these edges would cost.
    pub fn serialized_ns(&self) -> Nanos {
        self.edges.iter().map(|e| e.latency_ns).sum()
    }
}

/// The DAG's critical path under `run`'s measured per-edge busy times —
/// the lower bound no concurrent schedule of this workflow can beat.
///
/// # Errors
///
/// [`PlatformError::InvalidWorkflow`] if `spec`'s graph is cyclic, or if
/// `run` is missing an edge of the graph (i.e. it came from a different
/// spec).
pub fn critical_path_ns(spec: &WorkflowSpec, run: &WorkflowRun) -> Result<Nanos, PlatformError> {
    for (u, v) in spec.dag.edges() {
        let (from, to) = (spec.dag.node_name(u), spec.dag.node_name(v));
        if run.edge(from, to).is_none() {
            return Err(PlatformError::InvalidWorkflow(format!(
                "run has no result for edge `{from}` -> `{to}`; was it produced by this spec?"
            )));
        }
    }
    spec.dag.critical_path_ns(|u, v| {
        run.edge(spec.dag.node_name(u), spec.dag.node_name(v))
            .map(|e| e.latency_ns)
            .unwrap_or(0)
    })
}

/// Executes `spec` serially over `plane`: every edge runs after the one
/// before it, so the run costs the sum of its edges.
///
/// The edges run through the discrete-event engine under the plane's
/// deployment placement, released at 0 onto resources nobody else holds,
/// and are then laid end to end in the engine's event order: each edge
/// starts where the previous one finished, and `total_latency_ns` is the
/// sum of the edges' `latency_ns`. Genuinely overlapping execution is
/// [`execute_concurrent_at`]'s job.
///
/// Each root receives the initial `payload`; every edge forwards its
/// source's current payload, and a node's payload is the first delivery
/// it receives (identical to every other delivery on integrity-preserving
/// planes).
///
/// `_clock` is ignored: every edge costs the [`TransferTiming`] its
/// plane reports. The parameter stays while `benchmark/` calls this
/// signature.
///
/// # Errors
///
/// Propagates validation and transfer errors.
pub fn execute(
    plane: &mut dyn DataPlane,
    _clock: &VirtualClock,
    spec: &WorkflowSpec,
    payload: Bytes,
) -> Result<WorkflowRun, PlatformError> {
    execute_compiled(plane, _clock, &CompiledWorkflow::compile(spec)?, payload)
}

/// [`execute`] over a pre-compiled workflow: validation was paid once at
/// [`CompiledWorkflow::compile`] time, so repeated executions of the same
/// spec skip all per-run graph checks. `_clock` is ignored, as in
/// [`execute`].
///
/// # Errors
///
/// Propagates transfer errors.
pub fn execute_compiled(
    plane: &mut dyn DataPlane,
    _clock: &VirtualClock,
    compiled: &CompiledWorkflow<'_>,
    payload: Bytes,
) -> Result<WorkflowRun, PlatformError> {
    let placement = deployed_nodes(plane, compiled.dag());
    let nodes = placement.iter().max().map_or(1, |&node| node + 1);
    let mut resources = SchedResources::new(nodes, 1);
    let mut run = run_placed(plane, compiled, &payload, &placement, &mut resources, 0)?;
    let mut elapsed: Nanos = 0;
    for edge in &mut run.edges {
        edge.start_ns = elapsed;
        elapsed = elapsed.saturating_add(edge.latency_ns);
        edge.finish_ns = elapsed;
    }
    run.total_latency_ns = elapsed;
    Ok(run)
}

/// Executes `spec` over `plane` with the discrete-event engine,
/// releasing the workflow's roots at `release_ns` on `resources`' shared
/// timescale: independent edges overlap in virtual time, contended
/// resources serialize.
///
/// Every edge still *really* runs on the plane (payload bytes move, CPU
/// accounts are charged, the shared clock advances as it measures), in
/// deterministic event order, under the plane's deployment placement
/// ([`DataPlane::placement`], resolved once per run). The engine then
/// places each edge's prepare/transfer/consume phases onto `resources`'
/// timelines — prepare on the source node's cores, the transfer proper on
/// the link joining the two nodes (or the source cores when both ends
/// wrap onto one node: [`SchedResources::try_reserve_transfer`]), consume
/// on the target node's cores. An edge becomes
/// ready the instant all of its target's inputs exist; readiness events
/// drain through a deterministic [`EventQueue`].
///
/// Released onto fresh resources at 0, this is the uncontended engine and
/// `total_latency_ns` satisfies
/// `critical_path ≤ total_latency_ns ≤ serialized sum`. Released onto
/// resources other instances already hold, independent instances
/// genuinely contend for cores and links: edge `start_ns`/`finish_ns` are
/// absolute on the resources' timescale, and `total_latency_ns` is the
/// instance's makespan measured **from its release** (its sojourn time
/// under load). `_clock` is ignored, as in [`execute`].
///
/// # Errors
///
/// Propagates validation and transfer errors. An edge refused by an
/// outage schedule attached to `resources` (a failure run leaves its
/// plan's schedule attached) is a [`PlatformError::Transfer`] too: this
/// entry point carries no retry policy, so the first refusal is final.
pub fn execute_concurrent_at(
    plane: &mut dyn DataPlane,
    _clock: &VirtualClock,
    spec: &WorkflowSpec,
    payload: Bytes,
    resources: &mut SchedResources,
    release_ns: Nanos,
) -> Result<WorkflowRun, PlatformError> {
    let compiled = CompiledWorkflow::compile(spec)?;
    let placement = deployed_nodes(plane, compiled.dag());
    run_placed(plane, &compiled, &payload, &placement, resources, release_ns)
}

/// One fault-free run of `compiled` under `placement`, released at
/// `release_ns` onto `resources`, with every edge collected. A refusal
/// (only an outage schedule attached to `resources` can refuse) is a
/// [`PlatformError::Transfer`].
fn run_placed(
    plane: &mut dyn DataPlane,
    compiled: &CompiledWorkflow<'_>,
    payload: &Bytes,
    placement: &[usize],
    resources: &mut SchedResources,
    release_ns: Nanos,
) -> Result<WorkflowRun, PlatformError> {
    let instance = Instance { payload, release_ns, placement, faults: None, overload: None };
    let mut edges = Vec::with_capacity(compiled.edge_count());
    let outcome = run_compiled_at(
        plane,
        compiled,
        resources,
        instance,
        &mut RunScratch::default(),
        Some(&mut edges),
    )?;
    let name = |node| compiled.dag().node_name(node);
    match outcome {
        RunOutcome::Completed { makespan_ns, .. } => {
            Ok(WorkflowRun { edges, total_latency_ns: makespan_ns })
        }
        RunOutcome::Failed { from, to, failed_at_ns, .. } => Err(PlatformError::Transfer(format!(
            "edge {} -> {} refused at {failed_at_ns} ns: a node or link it needs is down",
            name(from),
            name(to),
        ))),
        RunOutcome::DeadlineExceeded { at_ns, .. } => {
            Err(PlatformError::Transfer(format!("deadline passed at {at_ns} ns")))
        }
    }
}

/// Where `plane` deployed each function of `dag`, indexed by DAG node —
/// the placement of a run nobody else placed. A function the plane does
/// not place (or does not know) counts as node 0.
fn deployed_nodes(plane: &dyn DataPlane, dag: &WorkflowDag) -> Vec<usize> {
    dag.nodes().map(|function| plane.placement(function).unwrap_or(0)).collect()
}

/// Bounded retry-with-backoff for transfer failures, in virtual time.
///
/// An edge attempt fails when its source node, target node, or the link
/// between them is down (under the [`OutageSchedule`](roadrunner_vkernel::OutageSchedule)
/// attached to the run's [`SchedResources`]) at the attempt's ready
/// instant, or when a mid-edge reservation is rejected because a window
/// opened between phases. The engine then re-attempts the edge after a
/// deterministic exponential backoff — `min(base << retries, max)` —
/// until `max_attempts` attempts have failed, at which point the whole
/// instance fails with per-edge accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per edge (the first try included). At least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff_ns: Nanos,
    /// Backoff ceiling for the exponential schedule.
    pub max_backoff_ns: Nanos,
}

impl RetryPolicy {
    /// A policy of `max_attempts` attempts with exponential backoff
    /// from `base_backoff_ns` capped at `max_backoff_ns`.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero.
    pub fn new(max_attempts: u32, base_backoff_ns: Nanos, max_backoff_ns: Nanos) -> Self {
        assert!(max_attempts > 0, "an edge needs at least one attempt");
        Self { max_attempts, base_backoff_ns, max_backoff_ns }
    }

    /// The backoff after the `failed_attempts`-th failed attempt
    /// (counted from 1): `min(base × 2^(failed_attempts−1), max)`.
    /// The exponential factor saturates at `u64::MAX` once the shift
    /// exceeds the type — high attempt counts ride the `max_backoff_ns`
    /// ceiling instead of wrapping or truncating the doubling.
    pub fn backoff_ns(&self, failed_attempts: u32) -> Nanos {
        let shift = failed_attempts.saturating_sub(1);
        let factor = if shift >= 64 { u64::MAX } else { 1u64 << shift };
        self.base_backoff_ns.saturating_mul(factor).min(self.max_backoff_ns)
    }
}

impl Default for RetryPolicy {
    /// 4 attempts, 1 ms base backoff, 50 ms ceiling — rides out
    /// millisecond-scale link flaps, gives up on dead nodes quickly.
    fn default() -> Self {
        Self { max_attempts: 4, base_backoff_ns: 1_000_000, max_backoff_ns: 50_000_000 }
    }
}

/// How one instance ended under [`run_compiled_at`]. `retries` counts
/// failed attempts across **all** edges of the instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RunOutcome {
    /// Every edge eventually succeeded.
    Completed {
        /// Last edge's finish, measured from the instance's release.
        makespan_ns: Nanos,
        /// Failed attempts absorbed along the way.
        retries: u32,
    },
    /// Edge `from → to` (DAG node indices) ran out of attempts; the
    /// instance did not complete.
    Failed {
        from: usize,
        to: usize,
        /// Attempts made on the fatal edge.
        attempts: u32,
        /// Virtual instant the engine gave up, on the resources'
        /// timescale.
        failed_at_ns: Nanos,
        /// Failed attempts across all edges, the fatal ones included.
        retries: u32,
    },
    /// An edge's ready instant passed the instance's absolute deadline
    /// (overload control): the engine aborted before placing further
    /// phases. Distinct from `Failed` — the work was shed as stale, not
    /// exhausted.
    DeadlineExceeded {
        /// The ready instant that crossed the deadline.
        at_ns: Nanos,
        /// Failed attempts absorbed before the abort.
        retries: u32,
    },
}

/// The per-instance inputs of [`run_compiled_at`].
pub(crate) struct Instance<'a> {
    /// Injected into every root.
    pub payload: &'a Bytes,
    /// When the roots become ready, on the resources' timescale.
    pub release_ns: Nanos,
    /// The node of every function, indexed by DAG node: every edge goes
    /// through [`DataPlane::transfer_placed`] with both endpoints given.
    pub placement: &'a [usize],
    /// `Some`: edge attempts consult the outage schedule attached to the
    /// resources, failed attempts re-run after the policy's backoff, and
    /// an edge that exhausts its budget ends the run as
    /// [`RunOutcome::Failed`]. `None` skips the fault pre-flight and —
    /// absent an outage schedule — every `try_reserve_*` degrades to a
    /// plain reservation, so the fault-free path is the exact schedule
    /// the byte-identity gates pin.
    pub faults: Option<&'a RetryPolicy>,
    /// The load engine's control block: deadlines are checked at each
    /// edge's ready instant *before* a new attempt is started, open
    /// circuit breakers fail attempts fast (no transfer, no
    /// reservations), and each retry must clear the (tenant, function,
    /// node) token budget. `None` skips all three checks.
    pub overload: Option<OverloadCtl<'a>>,
}

/// The working vectors of one [`run_compiled_at`] call. A caller that
/// runs many instances keeps one and passes it every time: it is
/// cleared, not reallocated.
#[derive(Debug, Default)]
pub(crate) struct RunScratch {
    pending: Vec<usize>,
    node_payload: Vec<Option<Bytes>>,
    node_ready: Vec<Nanos>,
    ready: EventQueue<usize>,
}

/// One edge attempt's scheduling result.
enum Attempt {
    Done { received: Bytes, timing: TransferTiming, start: Nanos, finish: Nanos },
    GaveUp { at: Nanos },
    DeadlineBlown { at: Nanos },
}

/// The one discrete-event engine: [`execute_concurrent_at`] runs it under
/// the plane's deployment placement and collects every edge, the load
/// engine under its policy's assignment with no `edges` and a per-lane
/// [`RunScratch`]. Every edge really runs on
/// `plane`; its prepare / transfer / consume phases are then placed on
/// `resources`' timelines (see [`execute_concurrent_at`]), and each
/// completed edge is pushed onto `edges` when the caller passed one —
/// `None` builds no [`EdgeResult`] at all. See [`Instance`] for what the
/// fault and overload inputs switch on.
pub(crate) fn run_compiled_at(
    plane: &mut dyn DataPlane,
    compiled: &CompiledWorkflow<'_>,
    resources: &mut SchedResources,
    instance: Instance<'_>,
    scratch: &mut RunScratch,
    mut edges: Option<&mut Vec<EdgeResult>>,
) -> Result<RunOutcome, PlatformError> {
    let Instance { payload, release_ns, placement, faults, mut overload } = instance;
    let dag = compiled.dag();
    let n = compiled.node_count();
    debug_assert_eq!(placement.len(), n, "one node per function");
    let RunScratch { pending, node_payload, node_ready, ready } = scratch;
    pending.clear();
    pending.extend_from_slice(&compiled.in_degrees);
    node_payload.clear();
    node_payload.resize(n, None);
    node_ready.clear();
    node_ready.resize(n, release_ns);
    ready.clear();
    for &root in compiled.roots() {
        node_payload[root] = Some(payload.clone());
        ready.push(release_ns, root);
    }
    let mut makespan: Nanos = 0;
    let mut retries: u32 = 0;
    while let Some((ready_ns, u)) = ready.pop() {
        for &v in dag.successors(u) {
            let sending = node_payload[u].as_ref().expect("events fire after inputs exist");
            let bytes = sending.len();
            let (from, to) = (dag.node_name(u), dag.node_name(v));
            let (src, dst) = (placement[u], placement[v]);

            let mut attempts: u32 = 0;
            let mut edge_ready = ready_ns;
            let attempt = loop {
                // Deadline gate: once the edge's ready instant passes
                // the instance's absolute deadline, abort before
                // starting another attempt — stale work places no more
                // phases.
                if let Some(ctl) = overload.as_ref() {
                    if ctl.deadline_ns.is_some_and(|d| edge_ready > d) {
                        break Attempt::DeadlineBlown { at: edge_ready };
                    }
                }
                attempts += 1;
                // An open circuit fails the attempt fast: no transfer,
                // no reservations, and the rejection is *not* recorded
                // in the breaker's own window.
                let breaker_blocked = overload
                    .as_mut()
                    .is_some_and(|ctl| !ctl.state.breaker_allows(ctl.tenant, v, dst, edge_ready));
                // Fault pre-flight: a down endpoint or link at the
                // attempt's ready instant fails the attempt before any
                // work is done.
                let blocked = breaker_blocked
                    || (faults.is_some()
                        && (resources.node_down_at(src, edge_ready)
                            || resources.node_down_at(dst, edge_ready)
                            || resources.link_down_between_at(src, dst, edge_ready)));
                if !blocked {
                    // One logical copy per attempt: the reference-counted
                    // handle given to the plane.
                    let (received, timing) =
                        plane.transfer_placed(from, to, sending.clone(), Some(src), Some(dst))?;

                    // Place the three phases, in order, on their
                    // resources. A rejection mid-edge (a down window
                    // opened between phases) fails the attempt; phases
                    // already placed stay reserved — work wasted on a
                    // half-sent transfer.
                    let placed = (|| {
                        let p_start =
                            resources.try_reserve_cpu(src, edge_ready, timing.prepare_ns)?;
                        let p_end = p_start.saturating_add(timing.prepare_ns);
                        let t_start =
                            resources.try_reserve_transfer(src, dst, p_end, timing.transfer_ns)?;
                        let t_end = t_start.saturating_add(timing.transfer_ns);
                        let c_start = resources.try_reserve_cpu(dst, t_end, timing.consume_ns)?;
                        Some((p_start, t_start, c_start))
                    })();
                    if let Some((p_start, t_start, c_start)) = placed {
                        let finish = c_start.saturating_add(timing.consume_ns);
                        // The edge starts where its first nonzero phase
                        // was granted.
                        let start = if timing.prepare_ns > 0 {
                            p_start
                        } else if timing.transfer_ns > 0 {
                            t_start
                        } else {
                            c_start
                        };
                        if let Some(ctl) = overload.as_mut() {
                            ctl.state.record_attempt(ctl.tenant, v, dst, finish, true);
                        }
                        break Attempt::Done { received, timing, start, finish };
                    }
                }
                // Only real failures feed the breaker window; a
                // breaker-induced rejection must not extend its own
                // open verdict.
                if !breaker_blocked {
                    if let Some(ctl) = overload.as_mut() {
                        ctl.state.record_attempt(ctl.tenant, v, dst, edge_ready, false);
                    }
                }
                let Some(policy) = faults else {
                    break Attempt::GaveUp { at: edge_ready };
                };
                if attempts >= policy.max_attempts {
                    break Attempt::GaveUp { at: edge_ready };
                }
                // A retry under budget control must buy a token; an
                // empty (tenant, function, node) bucket means give up
                // now — the anti-retry-storm cap.
                if let Some(ctl) = overload.as_mut() {
                    if !ctl.state.try_spend_retry(ctl.tenant, v, dst) {
                        break Attempt::GaveUp { at: edge_ready };
                    }
                }
                edge_ready = edge_ready.saturating_add(policy.backoff_ns(attempts));
            };
            retries += attempts.saturating_sub(1);

            match attempt {
                Attempt::Done { received, timing, start, finish } => {
                    makespan = makespan.max(finish);
                    if let Some(edges) = edges.as_deref_mut() {
                        edges.push(EdgeResult {
                            from: from.to_owned(),
                            to: to.to_owned(),
                            bytes,
                            latency_ns: timing.total_ns(),
                            start_ns: start,
                            finish_ns: finish,
                            received: received.clone(),
                        });
                    }
                    // A node's payload is the first delivery it receives.
                    if node_payload[v].is_none() {
                        node_payload[v] = Some(received);
                    }
                    node_ready[v] = node_ready[v].max(finish);
                    pending[v] -= 1;
                    if pending[v] == 0 && !dag.successors(v).is_empty() {
                        ready.push(node_ready[v], v);
                    }
                }
                Attempt::GaveUp { at } => {
                    return Ok(RunOutcome::Failed {
                        from: u,
                        to: v,
                        attempts,
                        failed_at_ns: at,
                        retries,
                    });
                }
                Attempt::DeadlineBlown { at } => {
                    return Ok(RunOutcome::DeadlineExceeded { at_ns: at, retries });
                }
            }
        }
    }
    Ok(RunOutcome::Completed { makespan_ns: makespan.saturating_sub(release_ns), retries })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plane that passes payloads through unchanged, charging 1 µs per
    /// edge plus 1 ns per byte, and reporting a breakdown.
    struct PassThrough {
        clock: VirtualClock,
    }

    impl DataPlane for PassThrough {
        fn transfer_placed(
            &mut self,
            _from: &str,
            _to: &str,
            payload: Bytes,
            _src_node: Option<usize>,
            _dst_node: Option<usize>,
        ) -> Result<(Bytes, TransferTiming), PlatformError> {
            let transfer_ns = 1_000 + payload.len() as u64;
            self.clock.advance(transfer_ns);
            Ok((payload, TransferTiming { prepare_ns: 0, transfer_ns, consume_ns: 0 }))
        }
    }

    /// A plane whose every edge costs `timing` (the clock advances by its
    /// total) and whose functions sit where `node_of` says.
    struct Phased {
        clock: VirtualClock,
        timing: TransferTiming,
        node_of: fn(&str) -> usize,
    }

    impl Phased {
        /// 1 µs of transfer per edge, nothing else.
        fn wire(clock: &VirtualClock, node_of: fn(&str) -> usize) -> Self {
            let timing = TransferTiming { prepare_ns: 0, transfer_ns: 1_000, consume_ns: 0 };
            Self { clock: clock.clone(), timing, node_of }
        }

        /// `src` on node 0, everything else on node 1.
        fn split(clock: &VirtualClock) -> Self {
            Self::wire(clock, |function| usize::from(function != "src"))
        }
    }

    impl DataPlane for Phased {
        fn transfer_placed(
            &mut self,
            _from: &str,
            _to: &str,
            payload: Bytes,
            _src_node: Option<usize>,
            _dst_node: Option<usize>,
        ) -> Result<(Bytes, TransferTiming), PlatformError> {
            self.clock.advance(self.timing.total_ns());
            Ok((payload, self.timing))
        }

        fn placement(&self, function: &str) -> Option<usize> {
            Some((self.node_of)(function))
        }
    }

    #[test]
    fn sequence_chains_payloads() {
        let clock = VirtualClock::new();
        let mut plane = PassThrough { clock: clock.clone() };
        let spec = WorkflowSpec::sequence(
            "wf",
            "acme",
            ["a".to_owned(), "b".to_owned(), "c".to_owned()],
        );
        let run = execute(&mut plane, &clock, &spec, Bytes::from(vec![7u8; 100])).unwrap();
        assert_eq!(run.edges.len(), 2);
        assert_eq!(run.edges[0].from, "a");
        assert_eq!(run.edges[1].to, "c");
        assert_eq!(run.total_bytes(), 200);
        assert_eq!(run.total_latency_ns, 2 * (1_000 + 100));
        assert_eq!(run.edges[0].received, run.edges[1].received);
        // Serial schedule: edges back to back.
        assert_eq!(run.edges[0].start_ns, 0);
        assert_eq!(run.edges[1].start_ns, run.edges[0].finish_ns);
    }

    #[test]
    fn fanout_delivers_to_every_target() {
        let clock = VirtualClock::new();
        let mut plane = PassThrough { clock: clock.clone() };
        let targets: Vec<String> = (0..5).map(|i| format!("t{i}")).collect();
        let spec = WorkflowSpec::fanout("wf", "acme", "src", targets);
        let run = execute(&mut plane, &clock, &spec, Bytes::from_static(b"xy")).unwrap();
        assert_eq!(run.edges.len(), 5);
        assert!(run.edges.iter().all(|e| e.from == "src" && &e.received[..] == b"xy"));
    }

    #[test]
    fn fanin_collects_from_every_source() {
        let clock = VirtualClock::new();
        let mut plane = PassThrough { clock: clock.clone() };
        let spec = WorkflowSpec::fan_in(
            "wf",
            "acme",
            ["s1".to_owned(), "s2".to_owned()],
            "sink",
        );
        let run = execute(&mut plane, &clock, &spec, Bytes::from_static(b"z")).unwrap();
        assert_eq!(run.edges.len(), 2);
        assert!(run.edges.iter().all(|e| e.to == "sink"));
    }

    #[test]
    fn invalid_specs_rejected() {
        let clock = VirtualClock::new();
        let mut plane = PassThrough { clock: clock.clone() };
        // Degenerate graphs: every entry point refuses them as invalid,
        // before any edge reaches the plane.
        let mut lone = WorkflowDag::new();
        lone.add_node("only");
        let mut disconnected = WorkflowDag::new();
        disconnected.add_edge("a", "b").add_edge("x", "y");
        let mut cycle = WorkflowDag::new();
        cycle.add_edge("a", "b").add_edge("b", "c").add_edge("c", "a");
        for dag in [WorkflowDag::new(), lone, disconnected, cycle] {
            let spec = WorkflowSpec::from_dag("wf", "t", dag);
            let mut res = SchedResources::new(1, 1);
            let errors = [
                execute(&mut plane, &clock, &spec, Bytes::new()).err(),
                CompiledWorkflow::compile(&spec).err(),
                execute_concurrent_at(&mut plane, &clock, &spec, Bytes::new(), &mut res, 0).err(),
            ];
            for err in errors {
                let invalid = matches!(err, Some(PlatformError::InvalidWorkflow(_)));
                assert!(invalid, "{spec:?}: {err:?}");
            }
        }
        assert_eq!(clock.now(), 0);
        let spec = WorkflowSpec::fanout("wf", "t", "src", Vec::<String>::new());
        assert!(spec.validate().is_err());
        let spec = WorkflowSpec::fan_in("wf", "t", Vec::<String>::new(), "sink");
        assert!(spec.validate().is_err());
        // A sequence that revisits a function is a cycle now.
        let spec = WorkflowSpec::sequence(
            "wf",
            "t",
            ["a".to_owned(), "b".to_owned(), "a".to_owned()],
        );
        assert!(spec.validate().is_err());
    }

    #[test]
    fn functions_lists_unique_names_in_order() {
        let spec = WorkflowSpec::sequence(
            "wf",
            "t",
            ["a".to_owned(), "b".to_owned(), "a".to_owned()],
        );
        assert_eq!(spec.functions(), vec!["a", "b"]);
        let spec = WorkflowSpec::fanout("wf", "t", "s", vec!["x".to_owned(), "y".to_owned()]);
        assert_eq!(spec.functions(), vec!["s", "x", "y"]);
        let spec = WorkflowSpec::fan_in(
            "wf",
            "t",
            ["s1".to_owned(), "s2".to_owned()],
            "sink",
        );
        assert_eq!(spec.functions(), vec!["s1", "sink", "s2"]);
    }

    #[test]
    fn transfer_errors_propagate() {
        struct Failing;
        impl DataPlane for Failing {
            fn transfer_placed(
                &mut self,
                _: &str,
                _: &str,
                _: Bytes,
                _: Option<usize>,
                _: Option<usize>,
            ) -> Result<(Bytes, TransferTiming), PlatformError> {
                Err(PlatformError::Transfer("link down".into()))
            }
        }
        let clock = VirtualClock::new();
        let spec =
            WorkflowSpec::sequence("wf", "t", ["a".to_owned(), "b".to_owned()]);
        assert!(matches!(
            execute(&mut Failing, &clock, &spec, Bytes::new()),
            Err(PlatformError::Transfer(_))
        ));
        let mut res = SchedResources::new(1, 4);
        assert!(matches!(
            execute_concurrent_at(&mut Failing, &clock, &spec, Bytes::new(), &mut res, 0),
            Err(PlatformError::Transfer(_))
        ));
    }

    fn diamond_spec() -> WorkflowSpec {
        let mut dag = WorkflowDag::new();
        dag.add_edge("a", "b").add_edge("a", "c").add_edge("b", "d").add_edge("c", "d");
        WorkflowSpec::from_dag("diamond", "t", dag)
    }

    #[test]
    fn concurrent_diamond_overlaps_but_respects_critical_path() {
        let clock = VirtualClock::new();
        let mut plane = PassThrough { clock: clock.clone() };
        let spec = diamond_spec();
        let payload = Bytes::from(vec![1u8; 10_000]);
        let mut res = SchedResources::new(1, 4);
        let run = execute_concurrent_at(&mut plane, &clock, &spec, payload, &mut res, 0).unwrap();
        assert_eq!(run.edges.len(), 4);
        let per_edge = 1_000 + 10_000;
        // Branches overlap: both a->b and a->c start at 0.
        assert_eq!(run.edge("a", "b").unwrap().start_ns, 0);
        assert_eq!(run.edge("a", "c").unwrap().start_ns, 0);
        // Two levels of two overlapped edges each.
        assert_eq!(run.total_latency_ns, 2 * per_edge);
        assert!(run.total_latency_ns < run.serialized_ns());
        let cp = critical_path_ns(&spec, &run).unwrap();
        assert_eq!(cp, 2 * per_edge);
        assert!(run.total_latency_ns >= cp);
    }

    #[test]
    fn concurrent_serializes_on_capacity_one_cpu() {
        let clock = VirtualClock::new();
        let mut plane = PassThrough { clock: clock.clone() };
        let spec = diamond_spec();
        let payload = Bytes::from(vec![1u8; 10_000]);
        let mut res = SchedResources::new(1, 1);
        let run = execute_concurrent_at(&mut plane, &clock, &spec, payload, &mut res, 0).unwrap();
        // One lane: nothing overlaps, makespan equals the serial sum.
        assert_eq!(run.total_latency_ns, run.serialized_ns());
    }

    #[test]
    fn serial_and_concurrent_agree_on_payload_integrity() {
        let spec = diamond_spec();
        let payload = Bytes::from(vec![9u8; 5_000]);
        let clock = VirtualClock::new();
        let mut plane = PassThrough { clock: clock.clone() };
        let serial = execute(&mut plane, &clock, &spec, payload.clone()).unwrap();
        let clock = VirtualClock::new();
        let mut plane = PassThrough { clock: clock.clone() };
        let mut res = SchedResources::new(1, 4);
        let conc = execute_concurrent_at(&mut plane, &clock, &spec, payload, &mut res, 0).unwrap();
        assert_eq!(serial.edges.len(), conc.edges.len());
        for e in &serial.edges {
            let c = conc.edge(&e.from, &e.to).unwrap();
            assert_eq!(e.bytes, c.bytes);
            assert_eq!(e.received, c.received);
        }
        assert!(conc.total_latency_ns <= serial.total_latency_ns);
    }

    #[test]
    fn concurrent_inter_node_edges_contend_on_the_link() {
        // Planes that place functions on two nodes route transfer time
        // through the capacity-1 link: a 2-branch fan-out can't halve.
        let clock = VirtualClock::new();
        let mut plane = Phased::split(&clock);
        let spec = WorkflowSpec::fanout(
            "wf",
            "t",
            "src",
            (0..4).map(|i| format!("t{i}")).collect::<Vec<_>>(),
        );
        let mut res = SchedResources::new(2, 4);
        let run =
            execute_concurrent_at(&mut plane, &clock, &spec, Bytes::from_static(b"x"), &mut res, 0)
                .unwrap();
        // All four transfers queue on the single link.
        assert_eq!(run.total_latency_ns, 4_000);
    }

    #[test]
    fn released_instances_contend_and_never_speed_up() {
        let spec = diamond_spec();
        let payload = Bytes::from(vec![1u8; 10_000]);
        let per_edge = 1_000 + 10_000;

        // Uncontended baseline on fresh resources.
        let clock = VirtualClock::new();
        let mut plane = PassThrough { clock: clock.clone() };
        let mut fresh = SchedResources::new(1, 2);
        let base = execute_concurrent_at(&mut plane, &clock, &spec, payload.clone(), &mut fresh, 0)
            .unwrap()
            .total_latency_ns;
        assert_eq!(base, 2 * per_edge);

        // Two instances admitted onto *shared* resources, the second
        // released mid-flight of the first.
        let mut shared = SchedResources::new(1, 2);
        let release = per_edge as Nanos;
        let first =
            execute_concurrent_at(&mut plane, &clock, &spec, payload.clone(), &mut shared, 0)
                .unwrap();
        let second =
            execute_concurrent_at(&mut plane, &clock, &spec, payload, &mut shared, release)
                .unwrap();
        // The first instance saw empty resources: identical to baseline.
        assert_eq!(first.total_latency_ns, base);
        // The second queues behind the first on the two lanes: its
        // sojourn exceeds the uncontended makespan.
        assert!(second.total_latency_ns > base);
        // And nothing of it starts before its release.
        assert!(second.edges.iter().all(|e| e.start_ns >= release));
    }

    #[test]
    fn release_alone_does_not_change_the_makespan() {
        let spec = diamond_spec();
        let payload = Bytes::from(vec![3u8; 2_000]);
        let clock = VirtualClock::new();
        let mut plane = PassThrough { clock: clock.clone() };
        let mut res = SchedResources::new(1, 4);
        let base =
            execute_concurrent_at(&mut plane, &clock, &spec, payload.clone(), &mut res, 0).unwrap();
        let mut res = SchedResources::new(1, 4);
        let shifted =
            execute_concurrent_at(&mut plane, &clock, &spec, payload, &mut res, 777_000).unwrap();
        // Empty resources: shifting the release shifts starts, not spans.
        assert_eq!(shifted.total_latency_ns, base.total_latency_ns);
        assert_eq!(shifted.edges[0].start_ns, base.edges[0].start_ns + 777_000);
    }

    #[test]
    fn mesh_resources_route_disjoint_pairs_onto_distinct_links() {
        // Functions on four nodes; the cross-node edges use disjoint node
        // pairs, so they overlap fully.
        // s fans out to a and c (disjoint pairs 3→0 and 3→2), which then
        // forward over two more disjoint pairs 0→1 and 2→3.
        let mut dag = WorkflowDag::new();
        dag.add_edge("a", "b").add_edge("c", "d");
        dag.add_edge("s", "a").add_edge("s", "c");
        let spec = WorkflowSpec::from_dag("mesh", "t", dag);
        let clock = VirtualClock::new();
        let mut plane = Phased::wire(&clock, |function| match function {
            "a" => 0,
            "b" => 1,
            "c" => 2,
            _ => 3,
        });

        let mut mesh = SchedResources::mesh(&[4, 4, 4, 4]);
        let overlapped =
            execute_concurrent_at(&mut plane, &clock, &spec, Bytes::from_static(b"x"), &mut mesh, 0)
                .unwrap();
        // s→a ∥ s→c then a→b ∥ c→d → 2 levels.
        assert_eq!(overlapped.total_latency_ns, 2_000);
    }

    #[test]
    fn placements_that_wrap_onto_one_node_transfer_on_its_cpu() {
        // `b` sits on node 2 of two: it wraps onto node 0 beside `a`, so
        // the edge is co-located and its transfer holds node 0's core.
        let spec = WorkflowSpec::sequence("wrap", "t", ["a".to_owned(), "b".to_owned()]);
        let clock = VirtualClock::new();
        let mut plane = Phased::wire(&clock, |function| if function == "a" { 0 } else { 2 });
        let mut res = SchedResources::new(2, 1);
        let run =
            execute_concurrent_at(&mut plane, &clock, &spec, Bytes::from_static(b"x"), &mut res, 0)
                .unwrap();
        assert_eq!(run.total_latency_ns, 1_000);
        assert_eq!(res.cpu(0).reserved_ns(), 1_000);
        assert_eq!((res.link_reserved(), res.link_lanes()), (0, 1));
    }

    #[test]
    fn critical_path_rejects_a_run_from_another_spec() {
        let clock = VirtualClock::new();
        let mut plane = PassThrough { clock: clock.clone() };
        let spec = WorkflowSpec::sequence("wf", "t", ["a".to_owned(), "b".to_owned()]);
        let run = execute(&mut plane, &clock, &spec, Bytes::from_static(b"x")).unwrap();
        let other = diamond_spec();
        assert!(matches!(
            critical_path_ns(&other, &run),
            Err(PlatformError::InvalidWorkflow(_))
        ));
        assert!(critical_path_ns(&spec, &run).is_ok());
    }

    #[test]
    fn consume_only_edges_anchor_start_at_the_consume_phase() {
        // A plane whose whole cost is target-side consumption: the edge's
        // reported start must be where the consume phase was granted, not
        // the (free) ready time.
        let clock = VirtualClock::new();
        let mut plane = Phased {
            clock: clock.clone(),
            timing: TransferTiming { prepare_ns: 0, transfer_ns: 0, consume_ns: 1_000 },
            node_of: |_| 0,
        };
        let spec = WorkflowSpec::fanout(
            "wf",
            "t",
            "s",
            (0..2).map(|i| format!("t{i}")).collect::<Vec<_>>(),
        );
        // One lane: the second edge's consume phase queues behind the
        // first, so its start slides to 1_000.
        let mut res = SchedResources::new(1, 1);
        let run =
            execute_concurrent_at(&mut plane, &clock, &spec, Bytes::from_static(b"x"), &mut res, 0)
                .unwrap();
        assert_eq!(run.edge("s", "t0").unwrap().start_ns, 0);
        assert_eq!(run.edge("s", "t1").unwrap().start_ns, 1_000);
        assert_eq!(run.edge("s", "t1").unwrap().finish_ns, 2_000);
    }

    #[test]
    fn compiled_workflow_exposes_the_precomputed_shapes() {
        let spec = diamond_spec();
        let compiled = CompiledWorkflow::compile(&spec).unwrap();
        assert_eq!(compiled.node_count(), 4);
        assert_eq!(compiled.edge_count(), 4);
        assert_eq!(compiled.roots(), &[0]);
        assert_eq!(compiled.spec(), &spec);
        // Invalid specs fail at compile time, same error the engines gave.
        let bad = WorkflowSpec::sequence("wf", "t", ["only".to_owned()]);
        assert!(matches!(
            CompiledWorkflow::compile(&bad),
            Err(PlatformError::InvalidWorkflow(_))
        ));
    }

    #[test]
    fn compiled_engines_match_the_plain_entry_points() {
        let spec = diamond_spec();
        let payload = Bytes::from(vec![5u8; 3_000]);
        let compiled = CompiledWorkflow::compile(&spec).unwrap();

        let clock = VirtualClock::new();
        let mut plane = PassThrough { clock: clock.clone() };
        let plain = execute(&mut plane, &clock, &spec, payload.clone()).unwrap();
        let clock = VirtualClock::new();
        let mut plane = PassThrough { clock: clock.clone() };
        let fast = execute_compiled(&mut plane, &clock, &compiled, payload.clone()).unwrap();
        assert_eq!(plain.total_latency_ns, fast.total_latency_ns);
        assert_eq!(plain.edges.len(), fast.edges.len());
        for (a, b) in plain.edges.iter().zip(&fast.edges) {
            assert_eq!((&a.from, &a.to, a.bytes, a.latency_ns), (&b.from, &b.to, b.bytes, b.latency_ns));
            assert_eq!(a.received, b.received);
        }

        let clock = VirtualClock::new();
        let mut plane = PassThrough { clock: clock.clone() };
        let mut res = SchedResources::new(1, 4);
        let first =
            execute_concurrent_at(&mut plane, &clock, &spec, payload.clone(), &mut res, 500)
                .unwrap();
        // Repeated executions on fresh resources reproduce the schedule
        // edge for edge.
        for _ in 0..2 {
            let mut res = SchedResources::new(1, 4);
            let again =
                execute_concurrent_at(&mut plane, &clock, &spec, payload.clone(), &mut res, 500)
                    .unwrap();
            assert_eq!(again.total_latency_ns, first.total_latency_ns);
            for (a, b) in first.edges.iter().zip(&again.edges) {
                assert_eq!(
                    (a.start_ns, a.finish_ns, a.latency_ns),
                    (b.start_ns, b.finish_ns, b.latency_ns)
                );
            }
        }
    }

    #[test]
    fn a_plane_that_places_nothing_runs_every_edge_on_node_zero() {
        /// Records the nodes each call hands `transfer_placed`.
        struct Recording {
            seen: Vec<(Option<usize>, Option<usize>)>,
        }
        impl DataPlane for Recording {
            fn transfer_placed(
                &mut self,
                _: &str,
                _: &str,
                p: Bytes,
                src: Option<usize>,
                dst: Option<usize>,
            ) -> Result<(Bytes, TransferTiming), PlatformError> {
                self.seen.push((src, dst));
                Ok((p, TransferTiming { transfer_ns: 1_000, ..TransferTiming::default() }))
            }
        }
        let mut plane = Recording { seen: Vec::new() };
        // The provided `transfer` is the same call with no placement.
        let received = plane.transfer("a", "b", Bytes::from_static(b"q")).unwrap();
        assert_eq!(&received[..], b"q");
        assert_eq!(plane.seen, [(None, None)]);
        plane.seen.clear();
        let clock = VirtualClock::new();
        let spec = diamond_spec();
        let mut res = SchedResources::new(2, 4);
        execute_concurrent_at(&mut plane, &clock, &spec, Bytes::from_static(b"x"), &mut res, 0)
            .unwrap();
        // The unanswered placement question resolves to node 0 once per
        // run, and every edge carries that answer explicitly.
        assert_eq!(plane.seen, vec![(Some(0), Some(0)); 4]);
        assert_eq!(res.cpu(0).reserved_ns(), 4_000);
        assert_eq!(res.cpu(1).reserved_ns(), 0);
    }

    /// Runs the engine under the plane's own placement and `policy`,
    /// collecting its edges.
    fn run_faulty(
        plane: &mut dyn DataPlane,
        compiled: &CompiledWorkflow<'_>,
        payload: Bytes,
        resources: &mut SchedResources,
        release_ns: Nanos,
        policy: &RetryPolicy,
    ) -> (RunOutcome, Vec<EdgeResult>) {
        let placement = deployed_nodes(plane, compiled.dag());
        let instance = Instance {
            payload: &payload,
            release_ns,
            placement: &placement,
            faults: Some(policy),
            overload: None,
        };
        let mut edges = Vec::new();
        let outcome = run_compiled_at(
            plane,
            compiled,
            resources,
            instance,
            &mut RunScratch::default(),
            Some(&mut edges),
        )
        .unwrap();
        (outcome, edges)
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let policy = RetryPolicy::new(10, 1_000, 5_000);
        assert_eq!(policy.backoff_ns(1), 1_000);
        assert_eq!(policy.backoff_ns(2), 2_000);
        assert_eq!(policy.backoff_ns(3), 4_000);
        assert_eq!(policy.backoff_ns(4), 5_000); // capped
        assert_eq!(policy.backoff_ns(100), 5_000); // shift saturates too
    }

    #[test]
    fn backoff_saturates_at_the_shift_boundary_instead_of_overflowing() {
        // An uncapped policy exposes the raw doubling sequence. The
        // 63rd failure is the last exact power of two a u64 can hold;
        // 64 and beyond must pin at the ceiling, not wrap to zero.
        let policy = RetryPolicy::new(u32::MAX, 1, u64::MAX);
        assert_eq!(policy.backoff_ns(63), 1u64 << 62);
        assert_eq!(policy.backoff_ns(64), 1u64 << 63);
        assert_eq!(policy.backoff_ns(65), u64::MAX);
        assert_eq!(policy.backoff_ns(u32::MAX), u64::MAX);

        // A wide base saturates through the multiply, never wrapping.
        let wide = RetryPolicy::new(u32::MAX, u64::MAX / 2, u64::MAX);
        assert_eq!(wide.backoff_ns(2), u64::MAX - 1);
        assert_eq!(wide.backoff_ns(3), u64::MAX);
        assert_eq!(wide.backoff_ns(200), u64::MAX);

        // Monotone non-decreasing across the boundary region.
        let mut last = 0;
        for failed in 1..=70 {
            let b = policy.backoff_ns(failed);
            assert!(b >= last, "backoff regressed at attempt {failed}");
            last = b;
        }
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn a_zero_attempt_policy_is_rejected() {
        RetryPolicy::new(0, 1, 1);
    }

    #[test]
    fn faulty_engine_with_no_outages_matches_the_plain_engine() {
        let spec = diamond_spec();
        let payload = Bytes::from(vec![4u8; 2_000]);
        let compiled = CompiledWorkflow::compile(&spec).unwrap();

        let clock = VirtualClock::new();
        let mut plane = PassThrough { clock: clock.clone() };
        let mut res = SchedResources::new(1, 4);
        let plain =
            execute_concurrent_at(&mut plane, &clock, &spec, payload.clone(), &mut res, 100)
                .unwrap();

        let clock = VirtualClock::new();
        let mut plane = PassThrough { clock: clock.clone() };
        let mut res = SchedResources::new(1, 4);
        let (outcome, edges) =
            run_faulty(&mut plane, &compiled, payload, &mut res, 100, &RetryPolicy::default());
        assert_eq!(
            outcome,
            RunOutcome::Completed { makespan_ns: plain.total_latency_ns, retries: 0 }
        );
        assert_eq!(edges.len(), plain.edges.len());
        for (a, b) in plain.edges.iter().zip(&edges) {
            assert_eq!(
                (a.start_ns, a.finish_ns, &a.received),
                (b.start_ns, b.finish_ns, &b.received)
            );
        }
    }

    #[test]
    fn edges_retry_through_a_link_flap_and_account_the_attempts() {
        use std::sync::Arc;

        let clock = VirtualClock::new();
        let mut plane = Phased::split(&clock);
        let spec = WorkflowSpec::sequence("wf", "t", ["src".to_owned(), "dst".to_owned()]);
        let compiled = CompiledWorkflow::compile(&spec).unwrap();
        let mut res = SchedResources::new(2, 4);
        // The 0–1 link is down for the first 2.5 µs; with a 1 µs base
        // backoff, attempt 1 (t=0) and attempt 2 (t=1 µs) fail, and
        // attempt 3 (t=1 µs + 2 µs = 3 µs) lands past the window.
        let id0 = res.node_id(0);
        let id1 = res.node_id(1);
        res.set_outages(Arc::new(
            roadrunner_vkernel::OutageSchedule::new().link_down(id0, id1, 0, 2_500),
        ));
        let policy = RetryPolicy::new(4, 1_000, 1 << 40);
        let (outcome, edges) =
            run_faulty(&mut plane, &compiled, Bytes::from_static(b"x"), &mut res, 0, &policy);
        // The flap ends before the budget does.
        assert_eq!(outcome, RunOutcome::Completed { makespan_ns: 4_000, retries: 2 });
        assert_eq!(edges[0].start_ns, 3_000);
        assert_eq!(edges[0].finish_ns, 4_000);
    }

    #[test]
    fn a_killed_node_exhausts_the_retry_budget() {
        use std::sync::Arc;

        let clock = VirtualClock::new();
        let mut plane = Phased::split(&clock);
        let spec = WorkflowSpec::sequence("wf", "t", ["src".to_owned(), "dst".to_owned()]);
        let compiled = CompiledWorkflow::compile(&spec).unwrap();
        let mut res = SchedResources::new(2, 4);
        let dead = res.node_id(1);
        res.set_outages(Arc::new(
            roadrunner_vkernel::OutageSchedule::new().node_killed(dead, 0),
        ));
        let policy = RetryPolicy::new(3, 1_000, 1 << 40);
        let (outcome, edges) =
            run_faulty(&mut plane, &compiled, Bytes::from_static(b"x"), &mut res, 0, &policy);
        // A dead target cannot complete. Backoffs 1 µs then 2 µs: the
        // engine gave up on src → dst at t = 3 µs.
        assert_eq!(
            outcome,
            RunOutcome::Failed { from: 0, to: 1, attempts: 3, failed_at_ns: 3_000, retries: 2 }
        );
        assert!(edges.is_empty());
        // Nothing was reserved: the pre-flight rejected every attempt.
        assert_eq!(res.cpu(0).reserved_ns(), 0);
        assert_eq!(res.cpu(1).reserved_ns(), 0);
    }

    #[test]
    fn an_outage_schedule_without_a_retry_policy_is_an_error_not_a_panic() {
        use std::sync::Arc;

        // A failure run leaves its plan's schedule attached to the
        // caller's resources; the plain entry point then meets refused
        // reservations with no policy to retry under, released inside the
        // window or at its start.
        let spec = WorkflowSpec::sequence("wf", "t", ["src".to_owned(), "dst".to_owned()]);
        let fresh = || {
            let clock = VirtualClock::new();
            let mut res = SchedResources::mesh(&[2, 2]);
            let id0 = res.node_id(0);
            res.set_outages(Arc::new(
                roadrunner_vkernel::OutageSchedule::new().node_down(id0, 0, 1_000_000),
            ));
            (Phased::split(&clock), clock, res)
        };
        for release_ns in [0, 10] {
            let (mut plane, clock, mut res) = fresh();
            let payload = Bytes::from_static(b"x");
            let result =
                execute_concurrent_at(&mut plane, &clock, &spec, payload, &mut res, release_ns);
            assert!(matches!(result, Err(PlatformError::Transfer(_))), "{result:?}");
        }
    }

    #[test]
    fn a_mid_edge_window_wastes_the_placed_phases() {
        use std::sync::Arc;

        // A plane with all three phases: the window opens after prepare
        // but before the transfer phase's grant, so the attempt fails
        // with the prepare reservation already spent.
        let clock = VirtualClock::new();
        let mut plane = Phased {
            timing: TransferTiming { prepare_ns: 1_000, transfer_ns: 1_000, consume_ns: 1_000 },
            ..Phased::split(&clock)
        };
        let spec = WorkflowSpec::sequence("wf", "t", ["src".to_owned(), "dst".to_owned()]);
        let compiled = CompiledWorkflow::compile(&spec).unwrap();
        let mut res = SchedResources::new(2, 4);
        let id0 = res.node_id(0);
        let id1 = res.node_id(1);
        // Link down [500, 4_000): up at t=0 (pre-flight passes), down at
        // t=1_000 when the transfer phase asks for the link.
        res.set_outages(Arc::new(
            roadrunner_vkernel::OutageSchedule::new().link_down(id0, id1, 500, 4_000),
        ));
        let policy = RetryPolicy::new(2, 4_000, 4_000);
        let (outcome, edges) =
            run_faulty(&mut plane, &compiled, Bytes::from_static(b"x"), &mut res, 0, &policy);
        // The retry lands after the window: attempt 2 at t=4_000 runs
        // clean; the wasted prepare from attempt 1 stays on node 0's CPU
        // (2 × 1_000 prepare total).
        assert_eq!(outcome, RunOutcome::Completed { makespan_ns: 7_000, retries: 1 });
        assert_eq!(edges[0].finish_ns, 7_000);
        assert_eq!(res.cpu(0).reserved_ns(), 2_000);
    }
}
