//! The completion-event engine behind [`run`](super::run).
//!
//! Events drain in deterministic time order (FIFO among equals) from
//! two sources merged by [`MergedEvents`]: the ones known before the
//! run starts (kills, then arrivals) from a time-sorted list, the ones
//! the run creates (completions, closed-loop re-arrivals) from a heap.
//! Every event first passes [`Engine::observe`] — capacity integration,
//! health epoch, autoscaler, pre-warming — then its own step: an
//! arrival is admitted, queued or shed ([`Engine::on_arrival`]); a
//! completion returns warmth, re-arms its closed-loop user and drains
//! the bounded queue ([`Engine::on_completion`]); a detected kill
//! removes its node ([`Engine::on_node_kill`]).
//! [`Engine::start_instance`] is the one place → admit → execute →
//! account sequence all admissions share, and [`Engine::finish`]
//! settles the books into a [`LoadRun`].
//!
//! An instance reaches the workflow engine by index: the policy's
//! assignment (one node per function, in DAG node order) is the
//! placement slice [`run_compiled_at`] reads each edge's endpoints from
//! and hands the plane through
//! [`DataPlane::transfer_placed`](crate::workflow::DataPlane::transfer_placed),
//! so the plane derives each edge's mode from the *instance's*
//! placement, not the deployment's static colocation. The engine asks
//! for no per-edge records and lends each lane's [`RunScratch`], so
//! steady state allocates nothing per edge.

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;
use roadrunner_vkernel::sched::{ResourceView, SchedResources};
use roadrunner_vkernel::Nanos;

use super::autoscaler::Autoscaler;
use super::events::MergedEvents;
use super::failure::FailurePlan;
use super::report::{InstanceOutcome, LoadRun, TenantStats};
use super::{Admission, Cluster, Controls, Load, TenantWork};
use crate::error::PlatformError;
use crate::overload::{OverloadConfig, OverloadCtl, OverloadState, QueueConfig, ShedPolicy};
use crate::warmpool::{AdmissionConfig, Admitted, PoolStats, WarmPool};
use crate::workflow::{
    run_compiled_at, CompiledWorkflow, Instance, RunOutcome, RunScratch, WorkflowSpec,
};

/// Engine events: an instance arriving for admission, one completing
/// (or failing — failed instances re-arm their closed-loop user too),
/// or the control plane removing a node it detected dead.
enum LoadEvent {
    Arrival { tenant: usize, user: usize },
    Completion { user: usize, instance: usize },
    NodeKill { node_id: u64 },
}

/// A closed-loop user's arrival at `at` — unless `at` saturated to
/// `Nanos::MAX`, the end of virtual time: a ramp offset or think time
/// that long never elapses, and nothing can be reserved after it.
fn closed_arrival(at: Nanos, user: usize) -> Option<(Nanos, LoadEvent)> {
    (at < Nanos::MAX).then_some((at, LoadEvent::Arrival { tenant: 0, user }))
}

/// One tenant's per-run lane: the compiled spec, the workflow engine's
/// working vectors (reused by every instance of the lane), its own warm
/// pool under pooled admission (per-tenant warmth never aliases — the
/// paper's per-tenant trust boundary), and its slice of the bounded
/// admission queue.
struct Lane<'a> {
    spec: &'a WorkflowSpec,
    payload: &'a Bytes,
    compiled: CompiledWorkflow<'a>,
    scratch: RunScratch,
    weight: u64,
    /// `None` admits every instance warm.
    pool: Option<Box<WarmPool>>,
    /// Queued-but-not-admitted arrivals: `(user, arrival_ns)` in FIFO
    /// order (only populated under an overload queue config).
    queued: VecDeque<(usize, Nanos)>,
    /// Smooth weighted-round-robin credit (the queue-drain fairness
    /// state).
    wrr_credit: i128,
}

/// Run-wide counters. Conservation, checked by [`Engine::finish`]:
/// `arrivals == outcomes + shed` and
/// `outcomes == completed + failed + deadline_exceeded`.
#[derive(Default)]
struct Counters {
    arrivals: usize,
    shed: usize,
    failed: usize,
    deadline_exceeded: usize,
    retries: u64,
    in_flight: usize,
    /// Queued arrivals across all lanes (kept incrementally so the
    /// overflow check is O(1)).
    queued: usize,
}

/// Time-weighted active-lane capacity (∫ lanes dt over the event
/// timeline) — the utilization denominators under elastic capacity.
/// Lane counts only change when the node count moves, so they are cached
/// and refreshed then.
struct Capacity {
    prev_event_ns: Option<Nanos>,
    known_nodes: usize,
    cpu_lanes: usize,
    link_lanes: usize,
    cpu_lane_ns: u128,
    link_lane_ns: u128,
    /// CPU / link time already reserved on the timelines before the run.
    cpu0: Nanos,
    link0: Nanos,
}

impl Capacity {
    /// Re-reads the cached lane counts after the node count moved.
    fn refresh(&mut self, resources: &SchedResources) {
        self.cpu_lanes = resources.cpu_lanes();
        self.link_lanes = resources.link_lanes();
        self.known_nodes = resources.node_count();
    }
}

/// One run's state. Owns everything the run creates; borrows the
/// caller's [`Cluster`] and [`Controls`].
pub(super) struct Engine<'a> {
    cluster: Cluster<'a>,
    autoscaler: Option<&'a mut Autoscaler>,
    failures: Option<&'a FailurePlan>,
    overload: OverloadConfig,
    /// Budget buckets and breaker circuits for the whole run.
    overload_state: OverloadState,
    admission: Admission,
    /// Closed loop: instances admitted so far (seeded arrivals
    /// included), against `Admission::Closed::instances`.
    admitted: usize,
    lanes: Vec<Lane<'a>>,
    stats: Vec<TenantStats>,
    /// Whether the lanes have pools (the pre-warming precondition).
    pooled: bool,
    events: MergedEvents<LoadEvent>,
    /// Scratch snapshot refreshed in place at every observation point:
    /// the per-event view is allocation-free in steady state.
    view: ResourceView,
    outcomes: Vec<InstanceOutcome>,
    counters: Counters,
    capacity: Capacity,
    /// Link-health epoch last pushed into the plane (see the memo): only
    /// transitions move it, so a failure-free run never calls the hook.
    last_epoch: u64,
}

impl<'a> Engine<'a> {
    /// Validates `load`, compiles each tenant's spec once for every
    /// instance, arms the failure plan and seeds the event queue.
    pub(super) fn new(
        load: Load<'a>,
        cluster: Cluster<'a>,
        controls: Controls<'a>,
    ) -> Result<Self, PlatformError> {
        let Load { tenants, admission, admission_cfg } = load;
        if matches!(admission, Admission::Closed { users: 0, .. }) {
            return Err(PlatformError::InvalidLoad(
                "a closed loop needs at least one user".into(),
            ));
        }
        // Each lane owns its pool, so one tenant's warmth is invisible to
        // another's.
        let mut lanes: Vec<Lane<'a>> = Vec::with_capacity(tenants.len());
        let mut stats: Vec<TenantStats> = Vec::with_capacity(tenants.len());
        for t in &tenants {
            let compiled = CompiledWorkflow::compile(t.spec)?;
            lanes.push(Lane {
                spec: t.spec,
                payload: t.payload,
                pool: match admission_cfg {
                    AdmissionConfig::Warm => None,
                    AdmissionConfig::Pooled { cold_start_ns, pool } => Some(Box::new(
                        WarmPool::new(*cold_start_ns, pool.clone(), compiled.node_count()),
                    )),
                },
                compiled,
                scratch: RunScratch::default(),
                weight: t.weight.max(1),
                queued: VecDeque::new(),
                wrr_credit: 0,
            });
            stats.push(TenantStats::new(t.name));
        }
        let Cluster { resources, .. } = &cluster;
        let capacity = Capacity {
            prev_event_ns: None,
            known_nodes: resources.node_count(),
            cpu_lanes: resources.cpu_lanes(),
            link_lanes: resources.link_lanes(),
            cpu_lane_ns: 0,
            link_lane_ns: 0,
            cpu0: resources.cpu_reserved(),
            link0: resources.link_reserved(),
        };
        // Closed loop: the seeded arrivals count against `instances`.
        let admitted = match admission {
            Admission::Closed { users, instances, .. } => users.min(instances),
            _ => 0,
        };
        let seeded = Self::arm(&admission, &tenants, admitted, controls.failures, cluster.resources);
        Ok(Self {
            cluster,
            autoscaler: controls.autoscaler,
            failures: controls.failures,
            overload: controls.overload,
            overload_state: OverloadState::new(&controls.overload),
            admission,
            admitted,
            pooled: matches!(admission_cfg, AdmissionConfig::Pooled { .. }),
            lanes,
            stats,
            events: MergedEvents::new(seeded),
            view: ResourceView::default(),
            outcomes: Vec::new(),
            counters: Counters::default(),
            capacity,
            last_epoch: 0,
        })
    }

    /// Attaches the failure plan's outage schedule (timelines start
    /// rejecting reservations inside down windows) and lists the events
    /// known before the run starts, in insertion order: kill removals
    /// first, so at equal times the control plane acts before any
    /// arrival (FIFO among equals), then the arrivals — for a closed
    /// loop, one per user already counted in `admitted`; for an open
    /// one, each tenant's trace in lane order, so equal instants admit
    /// by tenant, then by user.
    fn arm(
        admission: &Admission,
        tenants: &[TenantWork<'_>],
        admitted: usize,
        failures: Option<&FailurePlan>,
        resources: &mut SchedResources,
    ) -> Vec<(Nanos, LoadEvent)> {
        let mut seeded = Vec::new();
        if let Some(plan) = failures {
            resources.set_outages(Arc::new(plan.outages().clone()));
            seeded.extend(plan.kills().iter().map(|kill| {
                let detected = kill.at_ns.saturating_add(kill.detect_ns);
                (detected, LoadEvent::NodeKill { node_id: kill.node_id })
            }));
        }
        match admission {
            Admission::Multi => {
                for (tenant, work) in tenants.iter().enumerate() {
                    seeded.extend(
                        work.releases
                            .iter()
                            .enumerate()
                            .map(|(user, &at)| (at, LoadEvent::Arrival { tenant, user })),
                    );
                }
            }
            Admission::Closed { ramp_ns, .. } => {
                seeded.extend((0..admitted).filter_map(|user| {
                    closed_arrival((user as Nanos).saturating_mul(*ramp_ns), user)
                }));
            }
        }
        seeded
    }

    /// Drains the events, one step per event, and settles the run.
    pub(super) fn run(mut self) -> Result<LoadRun, PlatformError> {
        let mut last: Nanos = 0;
        while let Some((now, event)) = self.events.pop() {
            debug_assert!(now >= last, "event at {now} ns popped after one at {last} ns");
            last = now;
            let view_is_fresh = self.observe(now);
            match event {
                LoadEvent::Arrival { tenant, user } => {
                    self.on_arrival(now, tenant, user, view_is_fresh)?;
                }
                LoadEvent::Completion { user, instance } => {
                    self.on_completion(now, user, instance)?;
                }
                LoadEvent::NodeKill { node_id } => self.on_node_kill(now, node_id),
            }
        }
        Ok(self.finish())
    }

    /// What every event does before its own step: integrate the lane
    /// capacity that was active since the last event (before the
    /// autoscaler gets a chance to change it), push a moved link-health
    /// epoch into the plane, let the autoscaler observe — it sees both
    /// pressure building (arrivals) and draining (completions) — and
    /// re-staff the warm pools. Returns whether `self.view` is a fresh
    /// snapshot at `now`.
    fn observe(&mut self, now: Nanos) -> bool {
        let cap = &mut self.capacity;
        if let Some(prev) = cap.prev_event_ns {
            let dt = u128::from(now - prev);
            cap.cpu_lane_ns += dt * cap.cpu_lanes as u128;
            cap.link_lane_ns += dt * cap.link_lanes as u128;
        }
        cap.prev_event_ns = Some(now);
        if let Some(plan) = self.failures {
            let epoch = plan.outages().transitions_until(now);
            if epoch != self.last_epoch {
                self.cluster.plane.set_health_epoch(epoch);
                self.last_epoch = epoch;
            }
        }
        let Some(scaler) = self.autoscaler.as_deref_mut() else {
            return false;
        };
        scaler.observe_into(now, self.cluster.resources, &mut self.view);
        let nodes_now = self.cluster.resources.node_count();
        if nodes_now != self.capacity.known_nodes {
            // Scale-in drops node timelines: anything warmed on a
            // removed node must re-pay its cold start if the index is
            // later re-added (a re-added index is a brand-new machine).
            if nodes_now < self.capacity.known_nodes {
                for pool in self.lanes.iter_mut().filter_map(|l| l.pool.as_deref_mut()) {
                    pool.shrink_to(nodes_now, now);
                }
            }
            self.capacity.refresh(self.cluster.resources);
        }
        // Predictive pre-warming: with both a prewarm-configured
        // controller and pooled admission present, re-staff the pools
        // toward the square-root staffing target at every event (not
        // just on cooldown-gated decisions — evictions between
        // decisions would otherwise leave the pool empty).
        if self.pooled {
            let in_flight = self.counters.in_flight;
            if let Some(target) = scaler.prewarm_target(now, in_flight, nodes_now) {
                for pool in self.lanes.iter_mut().filter_map(|l| l.pool.as_deref_mut()) {
                    pool.ensure_target(now, target, in_flight, self.cluster.resources);
                }
            }
        }
        true
    }

    /// An arrival: admitted on the spot, or — under a bounded queue with
    /// no free admission slot — queued or shed.
    fn on_arrival(
        &mut self,
        now: Nanos,
        tenant: usize,
        user: usize,
        view_is_fresh: bool,
    ) -> Result<(), PlatformError> {
        self.counters.arrivals += 1;
        self.stats[tenant].arrivals += 1;
        match self.overload.queue {
            Some(qcfg) if self.counters.in_flight >= qcfg.max_in_flight => {
                self.enqueue_or_shed(now, tenant, user, qcfg);
                Ok(())
            }
            _ => self.start_instance(tenant, user, now, now, view_is_fresh),
        }
    }

    /// No admission slot: queue the arrival, or shed per policy when
    /// the shared queue is full.
    fn enqueue_or_shed(&mut self, now: Nanos, tenant: usize, user: usize, qcfg: QueueConfig) {
        if self.counters.queued < qcfg.queue_cap {
            self.lanes[tenant].queued.push_back((user, now));
            self.counters.queued += 1;
            return;
        }
        let shed_tenant = match qcfg.policy {
            // Tail drop (CoDel's sojourn check runs at dequeue).
            ShedPolicy::CoDel { .. } => tenant,
            // Shed the globally oldest queued entry (most likely
            // already stale) and queue the newcomer in its place.
            ShedPolicy::RejectOldest => {
                let oldest = self
                    .lanes
                    .iter()
                    .enumerate()
                    .filter_map(|(i, l)| l.queued.front().map(|&(_, at)| (at, i)))
                    .min()
                    .map(|(_, i)| i);
                match oldest {
                    Some(victim) => {
                        self.lanes[victim].queued.pop_front();
                        self.lanes[tenant].queued.push_back((user, now));
                        victim
                    }
                    // Zero-capacity queue: nothing to displace, drop
                    // the arrival.
                    None => tenant,
                }
            }
        };
        self.counters.shed += 1;
        self.stats[shed_tenant].shed += 1;
    }

    /// A completion (or failure, or deadline abort — the user saw an
    /// outcome either way): frees its slot, hands warmth back, re-arms a
    /// closed-loop user and drains the bounded queue into the freed
    /// capacity.
    fn on_completion(
        &mut self,
        now: Nanos,
        user: usize,
        instance: usize,
    ) -> Result<(), PlatformError> {
        self.counters.in_flight = self.counters.in_flight.saturating_sub(1);
        let done = &self.outcomes[instance];
        let tenant = done.tenant;
        // A completed instance hands its functions back to the pool; a
        // failed or deadline-blown one is torn down where it died, so
        // it returns nothing.
        if let Some(pool) = self.lanes[tenant].pool.as_deref_mut() {
            if !done.failed && !done.deadline_exceeded {
                pool.complete(now, &done.assignment, self.cluster.resources.node_count());
            }
        }
        // Closed loop: the freed user thinks, then re-arrives — the
        // arrival is gated on this completion by construction.
        if let Admission::Closed { think_ns, instances, .. } = self.admission {
            if self.admitted < instances {
                self.admitted += 1;
                if let Some((at, arrival)) = closed_arrival(now.saturating_add(think_ns), user) {
                    self.events.push(at, arrival);
                }
            }
        }
        match self.overload.queue {
            Some(qcfg) => self.drain_queue(now, qcfg),
            None => Ok(()),
        }
    }

    /// Drains the bounded queue into free admission slots in smooth
    /// weighted-round-robin tenant order: each round, every backed-up
    /// tenant earns its weight in credit, the richest (ties → lowest
    /// index) dequeues and pays the total active weight back.
    fn drain_queue(&mut self, now: Nanos, qcfg: QueueConfig) -> Result<(), PlatformError> {
        while self.counters.in_flight < qcfg.max_in_flight && self.counters.queued > 0 {
            let mut total_weight: i128 = 0;
            let mut pick: Option<(usize, i128)> = None;
            for (i, lane) in self.lanes.iter_mut().enumerate() {
                if lane.queued.is_empty() {
                    continue;
                }
                lane.wrr_credit += i128::from(lane.weight);
                total_weight += i128::from(lane.weight);
                if pick.is_none_or(|(_, credit)| credit < lane.wrr_credit) {
                    pick = Some((i, lane.wrr_credit));
                }
            }
            let Some((pick, _)) = pick else { break };
            let lane = &mut self.lanes[pick];
            lane.wrr_credit -= total_weight;
            let (user, arrival_ns) =
                lane.queued.pop_front().expect("picked lanes have queued arrivals");
            self.counters.queued -= 1;
            // CoDel-style staleness check at dequeue: an arrival that
            // already overstayed the sojourn target is dead on arrival —
            // shed it instead of burning capacity on it.
            if let ShedPolicy::CoDel { target_ns } = qcfg.policy {
                if now.saturating_sub(arrival_ns) > target_ns {
                    self.counters.shed += 1;
                    self.stats[pick].shed += 1;
                    continue;
                }
            }
            self.start_instance(pick, user, arrival_ns, now, false)?;
        }
        Ok(())
    }

    /// The control plane removes a node it detected dead: un-started
    /// backlog migrates to survivors, the mesh shrinks, and everything
    /// warmed on the victim dies with it (survivors above the victim
    /// shift down one index). A one-node cluster keeps its dead node in
    /// the schedule — there is nowhere to migrate to, and the outage
    /// window already fails every placement.
    fn on_node_kill(&mut self, now: Nanos, node_id: u64) {
        let resources = &mut *self.cluster.resources;
        let Some(victim) = resources.node_index_of(node_id) else { return };
        if resources.node_count() > 1 {
            resources.remove_node(victim, now);
            for pool in self.lanes.iter_mut().filter_map(|l| l.pool.as_deref_mut()) {
                pool.remove_node(victim, now);
            }
            self.capacity.refresh(self.cluster.resources);
        }
    }

    /// Admits and executes one instance of lane `tenant` at `start_ns`
    /// (its arrival was at `arrival_ns`; they differ only for instances
    /// that waited in the bounded queue). The one definition of the
    /// place → admit → execute → account sequence, shared by the direct
    /// arrival path and the queue-drain path — its mutation order
    /// against `resources`/`policy`/`plane` is what the byte-identity
    /// references pin.
    fn start_instance(
        &mut self,
        tenant: usize,
        user: usize,
        arrival_ns: Nanos,
        start_ns: Nanos,
        view_is_fresh: bool,
    ) -> Result<(), PlatformError> {
        let Cluster { plane, resources, policy } = &mut self.cluster;
        let lane = &mut self.lanes[tenant];
        if !view_is_fresh {
            resources.view_into(start_ns, &mut self.view);
        }
        // Open circuits push their nodes' apparent backlog up before the
        // policy looks — placement steers away without any policy change.
        self.overload_state.penalize_view(start_ns, &mut self.view);
        let assignment = policy.place(lane.spec, &self.view);
        if assignment.len() != lane.compiled.node_count() {
            return Err(PlatformError::InvalidLoad(format!(
                "policy `{}` placed {} functions, workflow `{}` has {}",
                policy.name(),
                assignment.len(),
                lane.spec.name,
                lane.compiled.node_count(),
            )));
        }
        // Charge instantiation: pool misses pay their tier (full build
        // or snapshot restore) on the node's CPU, delaying the release
        // past the work, while hits — and every instance of an all-warm
        // lane — admit at once.
        let admitted = match lane.pool.as_deref_mut() {
            Some(pool) => pool.admit(start_ns, &assignment, resources),
            None => Admitted { release_ns: start_ns, hits: 0, misses: 0 },
        };
        let release = admitted.release_ns;
        let instance = Instance {
            payload: lane.payload,
            release_ns: release,
            placement: &assignment,
            // `None` keeps every `try_reserve_*` on the plain-reservation
            // path; a plan hands the fault-aware engine its retry policy.
            faults: self.failures.map(FailurePlan::retry),
            // The overload control block rides along only when a knob is
            // on: the all-off engine path must not even construct it.
            overload: (!self.overload.is_off()).then(|| OverloadCtl {
                tenant,
                deadline_ns: self.overload.deadline_ns.map(|d| arrival_ns.saturating_add(d)),
                state: &mut self.overload_state,
            }),
        };
        let outcome = run_compiled_at(
            &mut **plane,
            &lane.compiled,
            resources,
            instance,
            &mut lane.scratch,
            None,
        )?;
        let stats = &mut self.stats[tenant];
        let (finish, failed, deadline_exceeded, retries) = match outcome {
            RunOutcome::Completed { makespan_ns, retries } => {
                (release + makespan_ns, false, false, retries)
            }
            // Failed instances still produce a completion event: the
            // closed-loop user saw an error and re-arms.
            RunOutcome::Failed { failed_at_ns, retries, .. } => {
                self.counters.failed += 1;
                stats.failed += 1;
                (failed_at_ns.max(release), true, false, retries)
            }
            // Deadline aborts are shed-as-stale, not failures; they too
            // produce a completion event (the user saw a timeout).
            RunOutcome::DeadlineExceeded { at_ns, retries } => {
                self.counters.deadline_exceeded += 1;
                stats.deadline_exceeded += 1;
                (at_ns.max(release), false, true, retries)
            }
        };
        self.counters.retries += u64::from(retries);
        if !failed && !deadline_exceeded {
            stats.completed += 1;
        }
        let instance = self.outcomes.len();
        self.outcomes.push(InstanceOutcome {
            instance,
            user,
            release_ns: arrival_ns,
            cold_start_ns: release - start_ns,
            pool_hits: admitted.hits,
            pool_misses: admitted.misses,
            finish_ns: finish,
            sojourn_ns: finish - arrival_ns,
            assignment,
            tenant,
            failed,
            deadline_exceeded,
            retries,
        });
        self.counters.in_flight += 1;
        self.events.push(finish, LoadEvent::Completion { user, instance });
        Ok(())
    }

    /// Settles the run: leftover queue entries, horizon, pool fates,
    /// utilizations — and checks conservation before returning.
    fn finish(mut self) -> LoadRun {
        // Arrivals still queued when the event stream dried up never
        // ran: they count as shed, keeping `arrivals == outcomes + shed`
        // exact.
        for (lane, stats) in self.lanes.iter().zip(&mut self.stats) {
            self.counters.shed += lane.queued.len();
            stats.shed += lane.queued.len();
        }
        let first = self.outcomes.first().map_or(0, |o| o.release_ns);
        let last = self.outcomes.iter().map(|o| o.finish_ns).max().unwrap_or(first);
        // Keep-alive fates settle at the run horizon: still-warm
        // instances whose TTL would expire by then count as evictions,
        // the rest stay warm at end (so the idle-residency integral is
        // complete).
        let mut pool: Option<PoolStats> = None;
        for lane_pool in self.lanes.into_iter().filter_map(|lane| lane.pool) {
            *pool.get_or_insert_default() += lane_pool.finalize(last);
        }
        let util = |used: Nanos, lane_ns: u128| {
            if lane_ns == 0 {
                0.0
            } else {
                used as f64 / lane_ns as f64
            }
        };
        let resources = &*self.cluster.resources;
        let cap = &self.capacity;
        let run = LoadRun {
            horizon_ns: last - first,
            cpu_utilization: util(resources.cpu_reserved() - cap.cpu0, cap.cpu_lane_ns),
            link_utilization: util(resources.link_reserved() - cap.link0, cap.link_lane_ns),
            scale_events: self.autoscaler.map(|a| a.events().to_vec()).unwrap_or_default(),
            final_nodes: resources.node_count(),
            failed: self.counters.failed,
            arrivals: self.counters.arrivals,
            shed: self.counters.shed,
            deadline_exceeded: self.counters.deadline_exceeded,
            retries: self.counters.retries,
            pool,
            tenants: self.stats,
            outcomes: self.outcomes,
        };
        debug_assert_eq!(run.arrivals, run.outcomes.len() + run.shed, "arrivals are conserved");
        debug_assert_eq!(
            run.outcomes.len(),
            run.tenants.iter().map(|t| t.completed).sum::<usize>()
                + run.failed
                + run.deadline_exceeded,
            "every admitted instance completed, failed or blew its deadline",
        );
        run
    }
}
