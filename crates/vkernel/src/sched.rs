//! Discrete-event scheduling primitives over the virtual clock.
//!
//! The workflow engine above (`roadrunner-platform`) executes arbitrary
//! DAGs: independent edges genuinely overlap in virtual time while
//! contended resources — a node's cores, the shared WAN link — serialize
//! the work placed on them. This module provides the three pieces that
//! schedule needs:
//!
//! * [`Timeline`] — one resource of integral capacity `c` (a 4-core CPU
//!   is a capacity-4 timeline, the WAN link capacity 1). Reservations are
//!   placed greedily on the earliest-free lane, the classic list-scheduler
//!   discipline.
//! * [`EventQueue`] — a deterministic min-heap of timed events. Ties are
//!   broken by insertion order, so identical runs replay identically.
//! * [`SchedResources`] — the timelines of a whole testbed (per-node CPU
//!   plus the shared inter-node link), ready for the executor to reserve
//!   against. Capacity is **elastic**: [`SchedResources::add_node`] /
//!   [`SchedResources::remove_last_node`] grow and shrink the active node
//!   set mid-stream, preserving every surviving timeline.
//! * [`ResourceView`] — a cheap snapshot of the live per-node and
//!   per-link state ([`SchedResources::view`]): what placement policies
//!   and the autoscaler in the platform layer observe.
//!
//! All times are **relative** virtual nanoseconds: the executor measures
//! real per-edge costs against the shared [`VirtualClock`](crate::VirtualClock)
//! (every payload byte still moves), then replays those durations onto the
//! timelines to find the overlapped completion time.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::outage::OutageSchedule;
use crate::testbed::Testbed;
use crate::Nanos;

/// One schedulable resource of fixed capacity.
///
/// A capacity-`c` timeline holds `c` lanes; a reservation occupies one
/// lane for its duration. [`Timeline::reserve`] grants the earliest start
/// no earlier than the caller's ready time — contention shows up as the
/// granted start sliding past it.
///
/// Lanes are kept as a min-heap of free times with a cached maximum, so
/// [`reserve`](Self::reserve) is O(log c) and the aggregate reads the
/// control loop hammers on every event — [`free_at`](Self::free_at),
/// [`busy_until`](Self::busy_until), [`backlog_at`](Self::backlog_at) —
/// are O(1) instead of O(c) lane scans. Lanes are homogeneous, so popping
/// *any* earliest-free lane grants the same start the old linear scan
/// did: schedules are unchanged.
///
/// ```
/// # use roadrunner_vkernel::sched::Timeline;
/// let mut link = Timeline::new("wan", 1);
/// assert_eq!(link.reserve(0, 100), 0);   // link free: starts at once
/// assert_eq!(link.reserve(0, 100), 100); // second transfer queues
/// ```
#[derive(Debug, Clone)]
pub struct Timeline {
    label: String,
    /// Lane free times, earliest on top.
    lanes: BinaryHeap<Reverse<Nanos>>,
    reserved: Nanos,
    /// Cached `max` over lane free times. Lanes only move forward, so the
    /// maximum is maintained incrementally.
    latest: Nanos,
}

impl Timeline {
    /// Creates a resource with `capacity` parallel lanes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(label: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "a resource needs at least one lane");
        Self {
            label: label.into(),
            lanes: (0..capacity).map(|_| Reverse(0)).collect(),
            reserved: 0,
            latest: 0,
        }
    }

    /// The resource's label (for reports and panics).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Number of parallel lanes.
    pub fn capacity(&self) -> usize {
        self.lanes.len()
    }

    /// Reserves one lane for `duration` starting no earlier than
    /// `earliest`; returns the granted start time. A zero-duration
    /// reservation never blocks and never occupies a lane. A reservation
    /// that would run past the end of virtual time holds its lane until
    /// `Nanos::MAX` instead of overflowing.
    pub fn reserve(&mut self, earliest: Nanos, duration: Nanos) -> Nanos {
        if duration == 0 {
            return earliest;
        }
        // Greedy list scheduling: the earliest-free lane yields the
        // earliest feasible start (lanes are homogeneous).
        let Reverse(free) = self.lanes.pop().expect("capacity checked at construction");
        let start = free.max(earliest);
        let until = start.saturating_add(duration);
        self.lanes.push(Reverse(until));
        self.latest = self.latest.max(until);
        self.reserved = self.reserved.saturating_add(duration);
        start
    }

    /// Total busy time reserved across all lanes since construction or the
    /// last [`reset`](Self::reset) — the numerator of the resource's
    /// utilization (`reserved_ns / (capacity × horizon)`).
    pub fn reserved_ns(&self) -> Nanos {
        self.reserved
    }

    /// Earliest time any lane is free. O(1): the heap top.
    ///
    /// Monotone under reservations: no `reserve` call ever moves a
    /// lane's free time backwards, so successive `free_at` readings are
    /// non-decreasing (property-tested in `tests/sched_properties.rs`).
    pub fn free_at(&self) -> Nanos {
        self.lanes.peek().map(|&Reverse(t)| t).unwrap_or(0)
    }

    /// Work queued beyond `now`: how long the busiest lane still has to
    /// drain. Zero for an idle (or already-drained) resource. O(1).
    pub fn backlog_at(&self, now: Nanos) -> Nanos {
        self.latest.saturating_sub(now)
    }

    /// Time the last reservation drains. O(1): the cached maximum.
    pub fn busy_until(&self) -> Nanos {
        self.latest
    }

    /// Every lane's free time, sorted ascending. O(c log c) — used only
    /// on the cold path (migrating a removed node's backlog), never in
    /// the per-event control loop.
    pub fn lane_ends(&self) -> Vec<Nanos> {
        let mut ends: Vec<Nanos> = self.lanes.iter().map(|&Reverse(t)| t).collect();
        ends.sort_unstable();
        ends
    }

    /// Clears all reservations.
    pub fn reset(&mut self) {
        let capacity = self.lanes.len();
        self.lanes.clear();
        self.lanes.extend((0..capacity).map(|_| Reverse(0)));
        self.reserved = 0;
        self.latest = 0;
    }
}

struct Event<T> {
    at: Nanos,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Event<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<T> Eq for Event<T> {}

impl<T> PartialOrd for Event<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Event<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event
        // (FIFO among equals) on top.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

/// A deterministic time-ordered event queue.
///
/// Events pop in ascending time order; events at the same instant pop in
/// insertion order, which keeps discrete-event runs bit-for-bit
/// reproducible.
///
/// ```
/// # use roadrunner_vkernel::sched::EventQueue;
/// let mut q = EventQueue::new();
/// q.push(50, "late");
/// q.push(10, "early");
/// q.push(10, "early-second");
/// assert_eq!(q.pop(), Some((10, "early")));
/// assert_eq!(q.pop(), Some((10, "early-second")));
/// assert_eq!(q.pop(), Some((50, "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Default)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Event<T>>,
    seq: u64,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Enqueues `item` to fire at virtual time `at`.
    pub fn push(&mut self, at: Nanos, item: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Event { at, seq, item });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Nanos, T)> {
        self.heap.pop().map(|e| (e.at, e.item))
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every queued event and restarts the insertion order,
    /// keeping the allocation: a cleared queue behaves like a new one.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue").field("len", &self.heap.len()).finish()
    }
}

/// The schedulable resources of a testbed: one CPU timeline per node
/// (capacity = core count) and the inter-node links (capacity 1 each —
/// concurrent transfers share a link's bandwidth by queueing behind each
/// other, matching [`run_fanout`](crate::pipeline::run_fanout)'s
/// single-capacity wire).
///
/// Two link layouts exist. The classic layout (the paper's two-VM pair)
/// has **one shared WAN timeline** that every inter-node edge reserves.
/// Cluster-built resources ([`SchedResources::mesh`] /
/// [`SchedResources::for_testbed`] over a cluster testbed) carry **one
/// timeline per node pair**, so traffic between nodes 0↔1 no longer
/// queues behind traffic between 2↔3.
/// One node's slice of a [`ResourceView`] snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeView {
    /// Core count (the CPU timeline's lane count).
    pub cores: u32,
    /// Earliest time any core lane is free.
    pub free_at: Nanos,
    /// Work queued beyond the snapshot instant: how long the busiest
    /// lane still has to drain. The backlog-depth signal placement
    /// policies and the autoscaler route on.
    pub backlog_ns: Nanos,
    /// Total busy time reserved on the node since construction/reset.
    pub reserved_ns: Nanos,
    /// Reserved-time utilization up to the snapshot instant:
    /// `reserved_ns / (cores × now)`, 0 at `now == 0`. Can exceed 1
    /// transiently — reservations may extend past `now`.
    pub utilization: f64,
}

/// A cheap, immutable snapshot of a [`SchedResources`]' live state at one
/// instant — what placement policies and the autoscaler observe.
///
/// Building a view copies O(nodes + links) scalars; no timeline is
/// cloned. The snapshot is taken *before* the observed instance reserves
/// anything, so a policy routing on it sees exactly the load every
/// earlier admission created. Steady-state observers (the load engine,
/// the autoscaler) refresh one scratch view in place through
/// [`SchedResources::view_into`], so per-event snapshots allocate nothing
/// once the scratch buffers have grown to the cluster size.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResourceView {
    now: Nanos,
    nodes: Vec<NodeView>,
    /// Per-pair link backlogs (flattened upper-triangular); empty for
    /// the classic shared-WAN layout.
    link_backlogs: Vec<Nanos>,
    /// The shared WAN timeline's backlog (what same-node queries and
    /// every pair on the non-mesh layout report).
    wan_backlog: Nanos,
    meshed: bool,
}

impl ResourceView {
    /// The instant the snapshot was taken.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Number of (currently active) nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// All node slices, in node order.
    pub fn nodes(&self) -> &[NodeView] {
        &self.nodes
    }

    /// Node `i`'s slice.
    pub fn node(&self, i: usize) -> &NodeView {
        &self.nodes[i]
    }

    /// Backlog of the link carrying traffic between nodes `a` and `b`
    /// (the pair's own link on a mesh, the shared WAN otherwise; equal
    /// indexes report the shared link, mirroring
    /// [`SchedResources::link_between`]).
    pub fn link_backlog_between(&self, a: usize, b: usize) -> Nanos {
        let n = self.nodes.len();
        let (a, b) = (a % n, b % n);
        if self.meshed && a != b {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            self.link_backlogs[pair_index(n, lo, hi)]
        } else {
            self.wan_backlog
        }
    }

    /// Total node backlog across the cluster.
    pub fn total_backlog_ns(&self) -> Nanos {
        self.nodes.iter().map(|n| n.backlog_ns).sum()
    }

    /// Mean node backlog — the autoscaler's load signal.
    pub fn mean_backlog_ns(&self) -> Nanos {
        if self.nodes.is_empty() {
            0
        } else {
            self.total_backlog_ns() / self.nodes.len() as u64
        }
    }

    /// Adds a synthetic backlog penalty to node `node`'s slice. The
    /// overload layer uses this to steer placement away from nodes with
    /// open circuit breakers: policies keep routing on `backlog_ns`
    /// unchanged and simply see the penalized node as deeply loaded.
    /// Saturating; only this snapshot is affected, never the underlying
    /// timelines.
    pub fn add_backlog_penalty(&mut self, node: usize, penalty_ns: Nanos) {
        if let Some(n) = self.nodes.get_mut(node) {
            n.backlog_ns = n.backlog_ns.saturating_add(penalty_ns);
        }
    }
}

/// The cluster's schedulable capacity: per-node CPU [`Timeline`]s plus
/// either one shared WAN link or a per-pair mesh.
///
/// `SchedResources` is `Send` (asserted at compile time below), and a
/// sweep worker that wants an isolated simulation should *construct its
/// own* instance inside the worker thread rather than share one: every
/// reservation mutates timeline state, so two concurrent runs against
/// one instance would interleave nondeterministically. Per-worker
/// construction is cheap — a handful of heap vectors — and is what
/// makes the parallel sweep engine's output byte-identical to the
/// serial loop's.
#[derive(Debug, Clone)]
pub struct SchedResources {
    cpus: Vec<Timeline>,
    wan: Timeline,
    mesh: Option<Vec<Timeline>>,
    /// Stable per-node ids, parallel to `cpus`. Indices shift as the
    /// autoscaler adds and removes nodes; ids never do, so outage
    /// schedules written before a run keep naming the same machine.
    ids: Vec<u64>,
    /// Next fresh id handed to [`add_node`](Self::add_node).
    next_id: u64,
    /// Lane count for mesh pair links, applied to the initial mesh and
    /// to every fresh link scale-out creates.
    link_capacity: usize,
    /// Attached outage schedule; `None` (the default) means nothing
    /// ever fails and the `try_reserve_*` paths degrade to plain
    /// reservations.
    outages: Option<Arc<OutageSchedule>>,
    /// Busy time reserved on since-removed node CPU timelines, kept so
    /// utilization totals stay monotone across scale-in.
    retired_cpu_ns: Nanos,
    /// Busy time reserved on since-removed mesh links.
    retired_link_ns: Nanos,
}

/// Index of the unordered pair `(a, b)`, `a < b`, in a flattened
/// upper-triangular matrix over `n` nodes.
pub(crate) fn pair_index(n: usize, a: usize, b: usize) -> usize {
    debug_assert!(a < b && b < n);
    a * (2 * n - a - 1) / 2 + (b - a - 1)
}

impl SchedResources {
    /// Resources for `node_count` nodes of `cores` cores each, joined by
    /// one shared link.
    ///
    /// # Panics
    ///
    /// Panics if `node_count` or `cores` is zero.
    pub fn new(node_count: usize, cores: u32) -> Self {
        assert!(node_count > 0, "a schedule needs at least one node");
        let cpus = (0..node_count)
            .map(|i| Timeline::new(format!("cpu-{i}"), cores as usize))
            .collect();
        Self {
            cpus,
            wan: Timeline::new("wan", 1),
            mesh: None,
            ids: (0..node_count as u64).collect(),
            next_id: node_count as u64,
            link_capacity: 1,
            outages: None,
            retired_cpu_ns: 0,
            retired_link_ns: 0,
        }
    }

    /// Resources for heterogeneous nodes (per-node core counts), joined
    /// by one shared link.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty or any entry is zero.
    pub fn heterogeneous(cores: &[u32]) -> Self {
        assert!(!cores.is_empty(), "a schedule needs at least one node");
        let cpus = cores
            .iter()
            .enumerate()
            .map(|(i, &c)| Timeline::new(format!("cpu-{i}"), c as usize))
            .collect();
        Self {
            cpus,
            wan: Timeline::new("wan", 1),
            mesh: None,
            ids: (0..cores.len() as u64).collect(),
            next_id: cores.len() as u64,
            link_capacity: 1,
            outages: None,
            retired_cpu_ns: 0,
            retired_link_ns: 0,
        }
    }

    /// Resources for heterogeneous nodes joined by a **full mesh** of
    /// point-to-point links: each node pair gets its own capacity-1
    /// timeline, so transfers between disjoint pairs never contend.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty or any entry is zero.
    pub fn mesh(cores: &[u32]) -> Self {
        Self::mesh_with_link_capacity(cores, 1)
    }

    /// [`mesh`](Self::mesh) with `link_capacity` lanes per pair link.
    /// The capacity is remembered: every fresh link a later
    /// [`add_node`](Self::add_node) creates gets the same lane count, so
    /// scale-out on a capacity-2 mesh yields capacity-2 links.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty, any entry is zero, or
    /// `link_capacity` is zero.
    pub fn mesh_with_link_capacity(cores: &[u32], link_capacity: usize) -> Self {
        assert!(link_capacity > 0, "a link needs at least one lane");
        let mut this = Self::heterogeneous(cores);
        this.link_capacity = link_capacity;
        let n = this.cpus.len();
        let mut links = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for a in 0..n {
            for b in a + 1..n {
                links.push(Timeline::new(format!("link-{a}-{b}"), link_capacity));
            }
        }
        this.mesh = Some(links);
        this
    }

    /// Resources mirroring `testbed`'s topology: per-node core counts,
    /// and a per-pair link mesh when the testbed was built from a
    /// [`ClusterSpec`](crate::cluster::ClusterSpec) with per-pair links
    /// (the classic shared-WAN layout otherwise).
    pub fn for_testbed(testbed: &Testbed) -> Self {
        let cores: Vec<u32> = testbed.nodes().iter().map(|n| n.cores()).collect();
        if testbed.has_pair_links() {
            Self::mesh_with_link_capacity(&cores, testbed.link_lanes())
        } else {
            Self::heterogeneous(&cores)
        }
    }

    /// Stable id of node `idx` (indexes wrap like [`cpu`](Self::cpu)).
    /// Ids are assigned at construction (`0..n`) and never reused; they
    /// are what outage schedules key on, so a schedule keeps naming the
    /// same machine while the autoscaler shifts indices.
    pub fn node_id(&self, idx: usize) -> u64 {
        self.ids[idx % self.ids.len()]
    }

    /// Current index of the node with stable id `id`, if it is still
    /// part of the cluster.
    pub fn node_index_of(&self, id: u64) -> Option<usize> {
        self.ids.iter().position(|&x| x == id)
    }

    /// Attaches an outage schedule: the `try_reserve_*` paths and the
    /// down-query helpers consult it from now on. Detaching is not
    /// supported — pass an empty schedule for an immortal cluster.
    pub fn set_outages(&mut self, schedule: Arc<OutageSchedule>) {
        self.outages = Some(schedule);
    }

    /// The attached outage schedule, if any.
    pub fn outages(&self) -> Option<&Arc<OutageSchedule>> {
        self.outages.as_ref()
    }

    /// Whether node `idx` is down at `at` under the attached schedule
    /// (always up without one; indexes wrap like [`cpu`](Self::cpu)).
    pub fn node_down_at(&self, idx: usize, at: Nanos) -> bool {
        match &self.outages {
            Some(s) => s.node_down_at(self.node_id(idx), at),
            None => false,
        }
    }

    /// Whether the link carrying traffic between `a` and `b` is down at
    /// `at` — a pair window, or either endpoint node down. Equal
    /// indexes reduce to the node query (co-located transfers never
    /// cross a link).
    pub fn link_down_between_at(&self, a: usize, b: usize, at: Nanos) -> bool {
        let n = self.cpus.len();
        let (a, b) = (a % n, b % n);
        match &self.outages {
            Some(s) if a != b => s.link_down_at(self.node_id(a), self.node_id(b), at),
            Some(s) => s.node_down_at(self.node_id(a), at),
            None => false,
        }
    }

    /// Reserves `duration` on node `idx`'s CPU starting no earlier than
    /// `earliest`, unless the node is down at `earliest` under the
    /// attached outage schedule — then `None`, and nothing is reserved.
    /// Identical to a plain [`cpu`](Self::cpu) + `reserve` when no
    /// schedule is attached.
    pub fn try_reserve_cpu(&mut self, idx: usize, earliest: Nanos, duration: Nanos) -> Option<Nanos> {
        if self.node_down_at(idx, earliest) {
            return None;
        }
        Some(self.cpu(idx).reserve(earliest, duration))
    }

    /// Reserves `duration` on the link between `a` and `b` starting no
    /// earlier than `earliest`, unless that link (or either endpoint
    /// node) is down at `earliest` — then `None`, and nothing is
    /// reserved.
    pub fn try_reserve_link(
        &mut self,
        a: usize,
        b: usize,
        earliest: Nanos,
        duration: Nanos,
    ) -> Option<Nanos> {
        if self.link_down_between_at(a, b, earliest) {
            return None;
        }
        Some(self.link_between(a, b).reserve(earliest, duration))
    }

    /// Number of nodes the resources model.
    pub fn node_count(&self) -> usize {
        self.cpus.len()
    }

    /// CPU timeline of node `i` (indexes wrap onto the known nodes, so a
    /// plane that places everything on one logical node still schedules).
    pub fn cpu(&mut self, node: usize) -> &mut Timeline {
        let n = self.cpus.len();
        &mut self.cpus[node % n]
    }

    /// The link timeline between two distinct nodes.
    pub fn link(&mut self) -> &mut Timeline {
        &mut self.wan
    }

    /// The link timeline carrying traffic between nodes `a` and `b`
    /// (indexes wrap onto the known nodes): the pair's own timeline on a
    /// mesh, the shared WAN otherwise. Equal indexes fall back to the
    /// shared link — callers schedule co-located transfers on the CPU and
    /// never ask for them.
    pub fn link_between(&mut self, a: usize, b: usize) -> &mut Timeline {
        let n = self.cpus.len();
        let (a, b) = (a % n, b % n);
        match &mut self.mesh {
            Some(links) if a != b => {
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                &mut links[pair_index(n, lo, hi)]
            }
            _ => &mut self.wan,
        }
    }

    /// Snapshots the live state of every node and link at instant `now` —
    /// the observation side of the elastic control loop. O(nodes + links)
    /// scalar reads; nothing is cloned or locked. Allocates fresh view
    /// buffers; steady-state observers should reuse a scratch view via
    /// [`view_into`](Self::view_into) instead.
    pub fn view(&self, now: Nanos) -> ResourceView {
        let mut out = ResourceView::default();
        self.view_into(now, &mut out);
        out
    }

    /// [`view`](Self::view), refreshing `out` in place. The scratch
    /// view's node and link buffers are reused, so once they have grown
    /// to the cluster size a snapshot allocates nothing — the per-event
    /// observation path of the load engine and the autoscaler is
    /// allocation-free in steady state.
    pub fn view_into(&self, now: Nanos, out: &mut ResourceView) {
        out.now = now;
        out.nodes.clear();
        out.nodes.extend(self.cpus.iter().map(|cpu| {
            let reserved = cpu.reserved_ns();
            let lanes = cpu.capacity() as u64;
            NodeView {
                cores: cpu.capacity() as u32,
                free_at: cpu.free_at(),
                backlog_ns: cpu.backlog_at(now),
                reserved_ns: reserved,
                utilization: if now == 0 {
                    0.0
                } else {
                    // Lane-nanoseconds elapsed; past `u64::MAX` of them the
                    // product is taken in floats instead of overflowing.
                    let elapsed = lanes
                        .checked_mul(now)
                        .map_or(lanes as f64 * now as f64, |ns| ns as f64);
                    reserved as f64 / elapsed
                },
            }
        }));
        out.link_backlogs.clear();
        match &self.mesh {
            Some(links) => {
                out.link_backlogs.extend(links.iter().map(|l| l.backlog_at(now)));
                out.meshed = true;
            }
            None => {
                out.meshed = false;
            }
        }
        out.wan_backlog = self.wan.backlog_at(now);
    }

    /// Total active core lanes (Σ per-node capacities) — the cheap
    /// lane-count read (no reserved-time sweep) the load engine's
    /// per-event capacity integral wants.
    pub fn cpu_lanes(&self) -> usize {
        self.cpus.iter().map(Timeline::capacity).sum()
    }

    /// Number of active link lanes: the per-pair links on a mesh, the
    /// single shared WAN otherwise.
    pub fn link_lanes(&self) -> usize {
        match &self.mesh {
            Some(links) => links.len(),
            None => 1,
        }
    }

    /// Grows the cluster by one node of `cores` cores **mid-stream**:
    /// every existing timeline (and its reservations) is preserved, and
    /// on a mesh the new node gets a fresh link to every existing node.
    /// Returns the new node's index.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn add_node(&mut self, cores: u32) -> usize {
        let idx = self.cpus.len();
        self.cpus.push(Timeline::new(format!("cpu-{idx}"), cores as usize));
        self.ids.push(self.next_id);
        self.next_id += 1;
        if let Some(links) = self.mesh.take() {
            self.mesh = Some(Self::reindex_mesh(links, idx, idx + 1, self.link_capacity, &mut 0));
        }
        idx
    }

    /// Shrinks the cluster by removing the **last** node mid-stream,
    /// preserving every remaining timeline. Reservations already placed
    /// on the removed node (and its mesh links) move into the retired
    /// totals so [`cpu_reserved`](Self::cpu_reserved) /
    /// [`link_reserved`](Self::link_reserved) stay monotone.
    ///
    /// Callers deciding *when* to remove (e.g. an autoscaler) should
    /// drain the node first — check `view(now).node(n-1).backlog_ns == 0`
    /// — since later placements wrap onto the remaining nodes.
    ///
    /// # Panics
    ///
    /// Panics if only one node remains.
    pub fn remove_last_node(&mut self) {
        // `Nanos::MAX` as the cut instant: nothing counts as un-started,
        // so no backlog migrates — the drained-node scale-in discipline
        // the autoscaler already follows.
        self.remove_node(self.cpus.len().saturating_sub(1), Nanos::MAX);
    }

    /// Shrinks the cluster by removing **any** node mid-stream — the
    /// node-failure path. Work the victim had queued beyond `now` (each
    /// lane's un-started remainder) migrates onto the least-loaded
    /// survivors as fresh reservations at `now`; busy time already spent
    /// stays in the retired totals so utilization accounting remains
    /// monotone. Surviving timelines (and surviving mesh pairs) keep
    /// their reservations; the victim's pair links retire with it.
    ///
    /// # Panics
    ///
    /// Panics if only one node remains or `victim` is out of range.
    pub fn remove_node(&mut self, victim: usize, now: Nanos) {
        assert!(self.cpus.len() > 1, "a schedule needs at least one node");
        assert!(victim < self.cpus.len(), "victim {victim} out of range");
        let removed = self.cpus.remove(victim);
        self.ids.remove(victim);
        // Migrate the un-started backlog: whatever each victim lane was
        // committed to beyond `now` re-queues on the survivor whose
        // earliest lane frees first (ties to the lowest index).
        let mut migrated = 0;
        for end in removed.lane_ends() {
            let remainder = end.saturating_sub(now);
            if remainder == 0 {
                continue;
            }
            let target = (0..self.cpus.len())
                .min_by_key(|&i| self.cpus[i].free_at())
                .expect("at least one survivor");
            self.cpus[target].reserve(now, remainder);
            migrated += remainder;
        }
        self.retired_cpu_ns += removed.reserved_ns().saturating_sub(migrated);
        let old_n = self.cpus.len() + 1;
        if let Some(links) = self.mesh.take() {
            let mut retired = 0;
            self.mesh = Some(Self::reindex_mesh_removing(links, old_n, victim, &mut retired));
            self.retired_link_ns += retired;
        }
    }

    /// Rebuilds a flattened upper-triangular link mesh from `old_n` to
    /// `new_n` nodes: surviving pairs keep their timelines (reservations
    /// intact), new pairs get fresh `link_capacity`-lane links, and
    /// dropped pairs' reserved time accumulates into `retired_ns`.
    fn reindex_mesh(
        links: Vec<Timeline>,
        old_n: usize,
        new_n: usize,
        link_capacity: usize,
        retired_ns: &mut Nanos,
    ) -> Vec<Timeline> {
        let mut old: Vec<Option<Timeline>> = links.into_iter().map(Some).collect();
        let mut out = Vec::with_capacity(new_n * new_n.saturating_sub(1) / 2);
        for a in 0..new_n {
            for b in a + 1..new_n {
                if b < old_n {
                    out.push(
                        old[pair_index(old_n, a, b)].take().expect("each pair taken once"),
                    );
                } else {
                    out.push(Timeline::new(format!("link-{a}-{b}"), link_capacity));
                }
            }
        }
        *retired_ns += old
            .iter()
            .flatten()
            .map(Timeline::reserved_ns)
            .sum::<Nanos>();
        out
    }

    /// Rebuilds the mesh after removing node `victim` from an `old_n`
    /// cluster: each surviving pair maps back to its old timeline
    /// (indices at or past the victim shift down by one), and every
    /// pair touching the victim retires into `retired_ns`.
    fn reindex_mesh_removing(
        links: Vec<Timeline>,
        old_n: usize,
        victim: usize,
        retired_ns: &mut Nanos,
    ) -> Vec<Timeline> {
        let mut old: Vec<Option<Timeline>> = links.into_iter().map(Some).collect();
        let new_n = old_n - 1;
        let mut out = Vec::with_capacity(new_n * new_n.saturating_sub(1) / 2);
        for a in 0..new_n {
            for b in a + 1..new_n {
                let oa = a + usize::from(a >= victim);
                let ob = b + usize::from(b >= victim);
                out.push(
                    old[pair_index(old_n, oa, ob)].take().expect("each pair taken once"),
                );
            }
        }
        *retired_ns += old
            .iter()
            .flatten()
            .map(Timeline::reserved_ns)
            .sum::<Nanos>();
        out
    }

    /// Time the last reservation across all resources drains.
    pub fn busy_until(&self) -> Nanos {
        self.cpus
            .iter()
            .chain(self.mesh.iter().flatten())
            .map(Timeline::busy_until)
            .chain(std::iter::once(self.wan.busy_until()))
            .max()
            .unwrap_or(0)
    }

    /// Total CPU busy time reserved across every node (including nodes
    /// since removed by [`remove_last_node`](Self::remove_last_node), so
    /// the total never goes backwards under scale-in), and the number of
    /// currently active core lanes — the inputs to a cluster-wide CPU
    /// utilization figure (`reserved / (lanes × horizon)`).
    pub fn cpu_reserved(&self) -> (Nanos, usize) {
        let reserved = self.cpus.iter().map(Timeline::reserved_ns).sum::<Nanos>()
            + self.retired_cpu_ns;
        let lanes = self.cpus.iter().map(Timeline::capacity).sum();
        (reserved, lanes)
    }

    /// Total link busy time reserved across every inter-node link, and
    /// the number of link lanes. On a mesh, only the per-pair links
    /// count — the vestigial shared-WAN timeline (reachable only through
    /// the legacy [`link`](Self::link) accessor, never routed to by
    /// [`link_between`](Self::link_between)) is excluded from both the
    /// numerator and the lane count so utilization stays consistent.
    pub fn link_reserved(&self) -> (Nanos, usize) {
        match &self.mesh {
            Some(links) => (
                links.iter().map(Timeline::reserved_ns).sum::<Nanos>() + self.retired_link_ns,
                links.len(),
            ),
            None => (self.wan.reserved_ns(), 1),
        }
    }

    /// Clears all reservations (including retired totals), keeping the
    /// topology.
    pub fn reset(&mut self) {
        for cpu in &mut self.cpus {
            cpu.reset();
        }
        self.wan.reset();
        for link in self.mesh.iter_mut().flatten() {
            link.reset();
        }
        self.retired_cpu_ns = 0;
        self.retired_link_ns = 0;
    }
}

// The parallel sweep engine (`platform::sweep`) constructs one
// `SchedResources` (plus clock and event queue) *per worker thread* and
// sends results back across the scope join. That pattern is only sound
// while these types stay `Send`: no `Rc`, `RefCell`, raw pointers or
// thread-local state may creep into the scheduler. Compile-time
// assertions, so a regression is a build error rather than a
// mysteriously flaky sweep.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<Timeline>();
    assert_send::<SchedResources>();
    assert_send::<ResourceView>();
    assert_send::<EventQueue<u64>>();
    assert_send_sync::<crate::VirtualClock>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_overlaps_within_capacity() {
        let mut cpu = Timeline::new("cpu", 4);
        for _ in 0..4 {
            assert_eq!(cpu.reserve(0, 1_000), 0);
        }
        // Fifth reservation queues behind the earliest-finishing lane.
        assert_eq!(cpu.reserve(0, 1_000), 1_000);
        assert_eq!(cpu.busy_until(), 2_000);
    }

    #[test]
    fn timeline_respects_ready_time() {
        let mut link = Timeline::new("wan", 1);
        assert_eq!(link.reserve(500, 100), 500);
        // Free again at 600; an earlier-ready caller still waits.
        assert_eq!(link.reserve(0, 100), 600);
        assert_eq!(link.free_at(), 700);
    }

    #[test]
    fn zero_duration_reservation_never_blocks() {
        let mut link = Timeline::new("wan", 1);
        link.reserve(0, 1_000);
        assert_eq!(link.reserve(200, 0), 200);
        assert_eq!(link.busy_until(), 1_000);
    }

    #[test]
    fn timeline_reset_clears_lanes() {
        let mut cpu = Timeline::new("cpu", 2);
        cpu.reserve(0, 5_000);
        cpu.reset();
        assert_eq!(cpu.busy_until(), 0);
        assert_eq!(cpu.reserve(0, 10), 0);
    }

    #[test]
    fn reservations_at_the_end_of_virtual_time_saturate() {
        // Runs under the CI `overflow-checks` release pass too: neither
        // the lane's free time nor the busy total may wrap or abort.
        let mut cpu = Timeline::new("cpu", 1);
        assert_eq!(cpu.reserve(Nanos::MAX - 1, 10), Nanos::MAX - 1);
        assert_eq!(cpu.busy_until(), Nanos::MAX);
        assert_eq!(cpu.reserved_ns(), 10);
        // The lane is held to the end of time; a later caller is granted
        // that instant, and the busy total pins instead of wrapping.
        assert_eq!(cpu.reserve(0, Nanos::MAX), Nanos::MAX);
        assert_eq!(cpu.free_at(), Nanos::MAX);
        assert_eq!(cpu.reserved_ns(), Nanos::MAX);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_capacity_panics() {
        Timeline::new("bad", 0);
    }

    #[test]
    fn event_queue_orders_by_time_then_insertion() {
        let mut q = EventQueue::new();
        q.push(30, "c");
        q.push(10, "a1");
        q.push(10, "a2");
        q.push(20, "b");
        let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec![(10, "a1"), (10, "a2"), (20, "b"), (30, "c")]);
    }

    #[test]
    fn event_queue_peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(7, ());
        q.push(3, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(3));
        q.pop();
        assert_eq!(q.peek_time(), Some(7));
        q.clear();
        assert!(q.is_empty());
        // Insertion order restarts with the queue.
        q.push(5, ());
        assert_eq!(q.pop(), Some((5, ())));
    }

    #[test]
    fn resources_mirror_testbed_topology() {
        let bed = Testbed::paper();
        let mut res = SchedResources::for_testbed(&bed);
        assert_eq!(res.cpu(0).capacity(), 4);
        assert_eq!(res.cpu(1).capacity(), 4);
        assert_eq!(res.link().capacity(), 1);
    }

    #[test]
    fn resources_busy_until_spans_everything() {
        let mut res = SchedResources::new(2, 4);
        res.cpu(0).reserve(0, 100);
        res.link().reserve(0, 5_000);
        res.cpu(1).reserve(0, 300);
        assert_eq!(res.busy_until(), 5_000);
        res.reset();
        assert_eq!(res.busy_until(), 0);
    }

    #[test]
    fn cpu_index_wraps_onto_known_nodes() {
        let mut res = SchedResources::new(2, 4);
        res.cpu(2).reserve(0, 100); // wraps to node 0
        assert_eq!(res.cpu(0).busy_until(), 100);
    }

    #[test]
    fn reserved_ns_accumulates_and_resets() {
        let mut cpu = Timeline::new("cpu", 2);
        cpu.reserve(0, 100);
        cpu.reserve(0, 250);
        cpu.reserve(50, 0); // zero-duration never counts
        assert_eq!(cpu.reserved_ns(), 350);
        cpu.reset();
        assert_eq!(cpu.reserved_ns(), 0);
    }

    #[test]
    fn heterogeneous_capacities_follow_core_counts() {
        let mut res = SchedResources::heterogeneous(&[2, 8, 4]);
        assert_eq!(res.node_count(), 3);
        assert_eq!(res.cpu(0).capacity(), 2);
        assert_eq!(res.cpu(1).capacity(), 8);
        assert_eq!(res.cpu(2).capacity(), 4);
    }

    #[test]
    fn pair_index_is_a_bijection() {
        let n = 5;
        let mut seen = std::collections::HashSet::new();
        for a in 0..n {
            for b in a + 1..n {
                assert!(seen.insert(pair_index(n, a, b)));
            }
        }
        assert_eq!(seen.len(), n * (n - 1) / 2);
        assert_eq!(seen.iter().copied().max(), Some(n * (n - 1) / 2 - 1));
    }

    #[test]
    fn mesh_links_do_not_contend_across_pairs() {
        let mut res = SchedResources::mesh(&[4, 4, 4, 4]);
        // 0↔1 and 2↔3 are disjoint pairs: both start at once.
        let a = res.link_between(0, 1).reserve(0, 8_000);
        let b = res.link_between(2, 3).reserve(0, 8_000);
        assert_eq!((a, b), (0, 0));
        // Same pair (either direction) queues.
        let c = res.link_between(1, 0).reserve(0, 8_000);
        assert_eq!(c, 8_000);
    }

    #[test]
    fn shared_wan_resources_route_every_pair_onto_one_link() {
        let mut res = SchedResources::new(3, 4);
        let a = res.link_between(0, 1).reserve(0, 5_000);
        let b = res.link_between(1, 2).reserve(0, 5_000);
        assert_eq!((a, b), (0, 5_000));
    }

    #[test]
    fn utilization_accounting_spans_cpus_and_links() {
        let mut res = SchedResources::mesh(&[2, 2]);
        res.cpu(0).reserve(0, 100);
        res.cpu(1).reserve(0, 300);
        res.link_between(0, 1).reserve(0, 700);
        let (cpu_ns, lanes) = res.cpu_reserved();
        assert_eq!((cpu_ns, lanes), (400, 4));
        let (link_ns, links) = res.link_reserved();
        assert_eq!((link_ns, links), (700, 1));
        res.reset();
        assert_eq!(res.cpu_reserved().0, 0);
        assert_eq!(res.link_reserved().0, 0);
    }

    #[test]
    fn view_reports_backlog_and_utilization() {
        let mut res = SchedResources::mesh(&[2, 4]);
        res.cpu(0).reserve(0, 600);
        res.cpu(0).reserve(0, 1_000);
        res.link_between(0, 1).reserve(0, 900);
        let view = res.view(500);
        assert_eq!(view.now(), 500);
        assert_eq!(view.node_count(), 2);
        assert_eq!(view.node(0).cores, 2);
        // Lanes busy until 600 and 1_000: earliest free 600, backlog
        // beyond now=500 is 500.
        assert_eq!(view.node(0).free_at, 600);
        assert_eq!(view.node(0).backlog_ns, 500);
        assert_eq!(view.node(0).reserved_ns, 1_600);
        assert!((view.node(0).utilization - 1_600.0 / (2.0 * 500.0)).abs() < 1e-12);
        // Node 1 idle.
        assert_eq!(view.node(1).backlog_ns, 0);
        assert_eq!(view.node(1).utilization, 0.0);
        assert_eq!(view.link_backlog_between(0, 1), 400);
        // Same-node queries report the (idle) shared WAN, never a
        // pair's backlog — mirroring link_between's routing.
        assert_eq!(view.link_backlog_between(0, 0), 0);
        assert_eq!(view.link_backlog_between(1, 1), 0);
        assert_eq!(view.total_backlog_ns(), 500);
        assert_eq!(view.mean_backlog_ns(), 250);
        // A snapshot at time 0 reports zero utilization, not NaN.
        assert_eq!(res.view(0).node(0).utilization, 0.0);
    }

    #[test]
    fn view_into_refreshes_scratch_in_place() {
        let mut res = SchedResources::mesh(&[2, 4]);
        res.cpu(0).reserve(0, 600);
        let mut scratch = ResourceView::default();
        res.view_into(500, &mut scratch);
        assert_eq!(scratch, res.view(500));
        // Refreshing after more load (and a resize) overwrites, never
        // appends.
        res.cpu(1).reserve(0, 1_000);
        res.add_node(2);
        res.view_into(800, &mut scratch);
        assert_eq!(scratch, res.view(800));
        assert_eq!(scratch.node_count(), 3);
        res.remove_last_node();
        res.view_into(900, &mut scratch);
        assert_eq!(scratch, res.view(900));
        assert_eq!(scratch.node_count(), 2);
    }

    #[test]
    fn view_of_shared_wan_reports_one_link() {
        let mut res = SchedResources::new(3, 2);
        res.link().reserve(0, 800);
        let view = res.view(300);
        assert_eq!(view.link_backlog_between(0, 1), 500);
        assert_eq!(view.link_backlog_between(1, 2), 500);
        assert_eq!(view.link_backlog_between(2, 2), 500);
    }

    #[test]
    fn lane_counts_track_resizing() {
        let mut res = SchedResources::mesh(&[2, 4]);
        assert_eq!(res.cpu_lanes(), 6);
        assert_eq!(res.link_lanes(), 1);
        res.add_node(8);
        assert_eq!(res.cpu_lanes(), 14);
        assert_eq!(res.link_lanes(), 3);
        res.remove_last_node();
        assert_eq!((res.cpu_lanes(), res.link_lanes()), (6, 1));
        assert_eq!(SchedResources::new(2, 4).link_lanes(), 1);
    }

    #[test]
    fn add_node_preserves_existing_timelines() {
        let mut res = SchedResources::heterogeneous(&[2, 2]);
        res.cpu(1).reserve(0, 5_000);
        let idx = res.add_node(8);
        assert_eq!(idx, 2);
        assert_eq!(res.node_count(), 3);
        assert_eq!(res.cpu(2).capacity(), 8);
        assert_eq!(res.cpu(1).busy_until(), 5_000);
        // The new node starts idle.
        assert_eq!(res.cpu(2).reserve(0, 10), 0);
    }

    #[test]
    fn add_node_extends_the_mesh_without_disturbing_pairs() {
        let mut res = SchedResources::mesh(&[4, 4, 4]);
        res.link_between(0, 2).reserve(0, 7_000);
        res.add_node(4);
        // The reserved pair kept its timeline across the re-index…
        assert_eq!(res.link_between(0, 2).busy_until(), 7_000);
        // …and every pair touching the new node is fresh.
        for other in 0..3 {
            assert_eq!(res.link_between(other, 3).reserve(0, 0), 0);
            assert_eq!(res.link_between(other, 3).busy_until(), 0);
        }
    }

    #[test]
    fn remove_last_node_retires_its_reservations() {
        let mut res = SchedResources::mesh(&[4, 4, 4]);
        res.cpu(2).reserve(0, 1_000);
        res.cpu(0).reserve(0, 300);
        res.link_between(1, 2).reserve(0, 2_000);
        res.link_between(0, 1).reserve(0, 400);
        let (cpu_before, _) = res.cpu_reserved();
        let (link_before, _) = res.link_reserved();
        res.remove_last_node();
        assert_eq!(res.node_count(), 2);
        // Totals are monotone: retired time stays in the books…
        assert_eq!(res.cpu_reserved(), (cpu_before, 8));
        assert_eq!(res.link_reserved().0, link_before);
        assert_eq!(res.link_reserved().1, 1);
        // …and the surviving pair kept its reservations.
        assert_eq!(res.link_between(0, 1).busy_until(), 400);
        res.reset();
        assert_eq!(res.cpu_reserved().0, 0);
        assert_eq!(res.link_reserved().0, 0);
    }

    #[test]
    fn grown_then_shrunk_mesh_keeps_pair_indexing_consistent() {
        let mut res = SchedResources::mesh(&[2, 2]);
        res.add_node(2);
        res.add_node(2);
        res.link_between(1, 3).reserve(0, 900);
        res.link_between(2, 3).reserve(0, 1_100);
        res.remove_last_node();
        // Pairs among the survivors are untouched and distinct.
        assert_eq!(res.link_between(0, 1).busy_until(), 0);
        assert_eq!(res.link_between(0, 2).busy_until(), 0);
        assert_eq!(res.link_between(1, 2).busy_until(), 0);
        // The dropped pairs' 2_000 ns went into the retired total.
        assert_eq!(res.link_reserved().0, 2_000);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn removing_the_only_node_panics() {
        SchedResources::new(1, 2).remove_last_node();
    }

    #[test]
    fn scale_out_on_a_capacity_2_mesh_yields_capacity_2_links() {
        // Regression: reindex_mesh used to hardcode capacity 1 for
        // fresh pair links, silently halving a wide mesh on scale-out.
        let mut res = SchedResources::mesh_with_link_capacity(&[4, 4], 2);
        assert_eq!(res.link_between(0, 1).capacity(), 2);
        res.add_node(4);
        for other in 0..2 {
            assert_eq!(res.link_between(other, 2).capacity(), 2);
            // Two transfers overlap; the third queues.
            let a = res.link_between(other, 2).reserve(0, 1_000);
            let b = res.link_between(other, 2).reserve(0, 1_000);
            let c = res.link_between(other, 2).reserve(0, 1_000);
            assert_eq!((a, b, c), (0, 0, 1_000));
        }
        // The surviving pair kept its lanes too.
        assert_eq!(res.link_between(0, 1).capacity(), 2);
    }

    #[test]
    fn cluster_link_lanes_reach_for_testbed() {
        use crate::cluster::ClusterSpec;
        let bed = ClusterSpec::homogeneous(3, 4, 1 << 30).link_lanes(2).build();
        let mut res = SchedResources::for_testbed(&bed);
        assert_eq!(res.link_between(0, 1).capacity(), 2);
        res.add_node(4);
        assert_eq!(res.link_between(0, 3).capacity(), 2);
    }

    #[test]
    fn remove_node_migrates_unstarted_backlog_onto_survivors() {
        let mut res = SchedResources::new(3, 1);
        res.cpu(2).reserve(0, 1_000); // runs 0..1_000: half done at 500
        res.cpu(0).reserve(0, 200);
        let (total_before, _) = res.cpu_reserved();
        res.remove_node(2, 500);
        assert_eq!(res.node_count(), 2);
        // 500 ns of un-started work re-queued at t=500 on the emptier
        // survivor (node 1, idle).
        assert_eq!(res.cpu(1).busy_until(), 1_000);
        assert_eq!(res.cpu(0).busy_until(), 200);
        // Totals conserved: migrated time moved, spent time retired.
        assert_eq!(res.cpu_reserved().0, total_before);
    }

    #[test]
    fn remove_node_reindexes_interior_victims() {
        let mut res = SchedResources::mesh(&[2, 2, 2, 2]);
        res.link_between(0, 3).reserve(0, 900);
        res.link_between(1, 2).reserve(0, 400);
        res.cpu(3).reserve(0, 777);
        res.remove_node(1, Nanos::MAX);
        assert_eq!(res.node_count(), 3);
        // Old pair (0,3) is now (0,2); old (2,3) is (1,2); the victim's
        // pairs retired.
        assert_eq!(res.link_between(0, 2).busy_until(), 900);
        assert_eq!(res.link_between(1, 2).busy_until(), 0);
        assert_eq!(res.link_reserved().0, 900 + 400);
        // Old node 3 (now index 2) kept its CPU reservations.
        assert_eq!(res.cpu(2).busy_until(), 777);
    }

    #[test]
    fn stable_ids_survive_resizing() {
        let mut res = SchedResources::new(3, 2);
        assert_eq!(res.node_id(1), 1);
        res.remove_node(1, Nanos::MAX);
        // Indices shifted, ids did not.
        assert_eq!(res.node_id(0), 0);
        assert_eq!(res.node_id(1), 2);
        assert_eq!(res.node_index_of(2), Some(1));
        assert_eq!(res.node_index_of(1), None);
        // Fresh nodes get fresh ids, never recycling the dead one's.
        let idx = res.add_node(2);
        assert_eq!(res.node_id(idx), 3);
    }

    #[test]
    fn try_reserve_rejects_during_outages_and_degrades_without_a_schedule() {
        use crate::outage::OutageSchedule;
        let mut res = SchedResources::mesh(&[2, 2]);
        // No schedule attached: try_reserve is a plain reserve.
        assert_eq!(res.try_reserve_cpu(0, 10, 100), Some(10));
        let schedule =
            OutageSchedule::new().node_down(1, 1_000, 2_000).link_down(0, 1, 5_000, 6_000);
        res.set_outages(Arc::new(schedule));
        // Node 1 down during its window; node 0 unaffected.
        assert_eq!(res.try_reserve_cpu(1, 1_500, 100), None);
        assert!(res.node_down_at(1, 1_500));
        assert_eq!(res.try_reserve_cpu(0, 1_500, 100), Some(1_500));
        assert_eq!(res.try_reserve_cpu(1, 2_000, 100), Some(2_000));
        // The link is down in its own window and while an endpoint is.
        assert_eq!(res.try_reserve_link(0, 1, 5_500, 100), None);
        assert_eq!(res.try_reserve_link(0, 1, 1_500, 100), None);
        let granted = res.try_reserve_link(0, 1, 6_000, 100);
        assert_eq!(granted, Some(6_000));
        // Rejected attempts reserved nothing.
        assert_eq!(res.cpu(1).reserved_ns(), 100);
        assert!(res.outages().is_some());
    }

    #[test]
    fn outage_ids_follow_nodes_across_removal() {
        use crate::outage::OutageSchedule;
        let mut res = SchedResources::new(3, 1);
        res.set_outages(Arc::new(OutageSchedule::new().node_down(2, 100, 200)));
        // Remove node 0: the scheduled node shifts to index 1 but keeps
        // id 2, and the schedule keeps tracking it.
        res.remove_node(0, Nanos::MAX);
        assert!(res.node_down_at(1, 150));
        assert!(!res.node_down_at(0, 150));
    }

    #[test]
    fn backlog_at_drains_to_zero() {
        let mut cpu = Timeline::new("cpu", 1);
        cpu.reserve(0, 1_000);
        assert_eq!(cpu.backlog_at(0), 1_000);
        assert_eq!(cpu.backlog_at(400), 600);
        assert_eq!(cpu.backlog_at(1_000), 0);
        assert_eq!(cpu.backlog_at(5_000), 0);
    }

    #[test]
    fn contended_link_serializes_independent_transfers() {
        // Two 8 s transfers on a capacity-1 link take 16 s; on a
        // capacity-2 CPU they take 8 s — the contention asymmetry behind
        // the paper's Fig. 9 vs Fig. 10 shapes.
        let mut res = SchedResources::new(2, 2);
        let a = res.link().reserve(0, 8_000);
        let b = res.link().reserve(0, 8_000);
        assert_eq!((a, b), (0, 8_000));
        let c = res.cpu(0).reserve(0, 8_000);
        let d = res.cpu(0).reserve(0, 8_000);
        assert_eq!((c, d), (0, 0));
    }
}
