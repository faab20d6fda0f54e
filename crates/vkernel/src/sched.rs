//! Discrete-event scheduling primitives over the virtual clock.
//!
//! The workflow engine above (`roadrunner-platform`) executes arbitrary
//! DAGs: independent edges genuinely overlap in virtual time while
//! contended resources — a node's cores, the link joining two nodes —
//! serialize the work placed on them. This module provides the pieces
//! that schedule needs:
//!
//! * [`Timeline`] — one resource of integral capacity `c` (a 4-core CPU
//!   is a capacity-4 timeline, a link capacity 1). Reservations are
//!   placed greedily on the earliest-free lane, the classic list-scheduler
//!   discipline.
//! * [`EventQueue`] — a deterministic min-heap of timed events. Ties are
//!   broken by insertion order, so identical runs replay identically.
//! * [`SchedResources`] — the timelines of a whole testbed (per-node CPU
//!   plus one link per node pair), ready for the executor to reserve
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
/// let mut link = Timeline::new("link-0-1", 1);
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

    /// Total busy time reserved across all lanes since construction — the
    /// numerator of the resource's utilization (`reserved_ns / (capacity
    /// × horizon)`).
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

/// One node's slice of a [`ResourceView`] snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeView {
    /// Core count (the CPU timeline's lane count).
    pub cores: u32,
    /// Work queued beyond the snapshot instant: how long the busiest
    /// lane still has to drain. The backlog-depth signal placement
    /// policies and the autoscaler route on.
    pub backlog_ns: Nanos,
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
    /// Per-pair link backlogs (flattened upper-triangular).
    link_backlogs: Vec<Nanos>,
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
    /// (indexes wrap like [`SchedResources::link_between`]). A node and
    /// itself are joined by no link: their backlog is 0.
    pub fn link_backlog_between(&self, a: usize, b: usize) -> Nanos {
        let n = self.nodes.len();
        match pair_of(n, a, b) {
            Some(pair) => self.link_backlogs[pair],
            None => 0,
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

/// The cluster's schedulable capacity: one CPU [`Timeline`] per node
/// (capacity = core count) and **one link timeline per node pair**
/// (capacity 1 unless built with more lanes — concurrent transfers share
/// a link's bandwidth by queueing behind each other), so traffic between
/// nodes 0↔1 never queues behind traffic between 2↔3. On the paper's two
/// nodes the mesh is its one shaped link.
///
/// Node indexes wrap onto the known nodes everywhere, so a plane that
/// places functions past the node count still schedules. Two indexes that
/// wrap onto one node are co-located: their transfer crosses no link and
/// runs on that node's cores ([`try_reserve_transfer`](Self::try_reserve_transfer)).
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
    /// One timeline per node pair, flattened upper-triangular.
    links: Vec<Timeline>,
    /// Stable per-node ids, parallel to `cpus`. Indices shift as the
    /// autoscaler adds and removes nodes; ids never do, so outage
    /// schedules written before a run keep naming the same machine.
    ids: Vec<u64>,
    /// Next fresh id handed to [`add_node`](Self::add_node).
    next_id: u64,
    /// Attached outage schedule; `None` (the default) means nothing
    /// ever fails and the `try_reserve_*` paths degrade to plain
    /// reservations.
    outages: Option<Arc<OutageSchedule>>,
    /// Busy time reserved on since-removed node CPU timelines, kept so
    /// utilization totals stay monotone across scale-in.
    retired_cpu_ns: Nanos,
    /// Busy time reserved on since-removed pair links.
    retired_link_ns: Nanos,
}

/// Index of the unordered pair `(a, b)`, `a < b`, in a flattened
/// upper-triangular matrix over `n` nodes.
pub(crate) fn pair_index(n: usize, a: usize, b: usize) -> usize {
    debug_assert!(a < b && b < n);
    a * (2 * n - a - 1) / 2 + (b - a - 1)
}

/// The pair index of nodes `a` and `b` wrapped onto `n` nodes, or `None`
/// when they wrap onto one node (co-located: no link joins them).
fn pair_of(n: usize, a: usize, b: usize) -> Option<usize> {
    let (a, b) = (a % n, b % n);
    (a != b).then(|| pair_index(n, a.min(b), a.max(b)))
}

impl SchedResources {
    /// Resources for `node_count` nodes of `cores` cores each: shorthand
    /// for [`mesh`](Self::mesh) over `node_count` equal entries.
    ///
    /// # Panics
    ///
    /// Panics if `node_count` or `cores` is zero.
    pub fn new(node_count: usize, cores: u32) -> Self {
        Self::mesh(&vec![cores; node_count])
    }

    /// Resources for nodes of the given per-node core counts, joined by a
    /// **full mesh** of point-to-point links: each node pair gets its own
    /// capacity-1 timeline, so transfers between disjoint pairs never
    /// contend.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty or any entry is zero.
    pub fn mesh(cores: &[u32]) -> Self {
        assert!(!cores.is_empty(), "a schedule needs at least one node");
        let n = cores.len();
        Self {
            cpus: cores
                .iter()
                .enumerate()
                .map(|(i, &c)| Timeline::new(format!("cpu-{i}"), c as usize))
                .collect(),
            links: Self::reindex_mesh(Vec::new(), 0, n),
            ids: (0..n as u64).collect(),
            next_id: n as u64,
            outages: None,
            retired_cpu_ns: 0,
            retired_link_ns: 0,
        }
    }

    /// Resources mirroring `testbed`'s topology: per-node core counts
    /// and its per-pair link mesh.
    pub fn for_testbed(testbed: &Testbed) -> Self {
        Self::mesh(&testbed.nodes().iter().map(|n| n.cores()).collect::<Vec<_>>())
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

    /// Whether node `idx` is down at `at` under the attached schedule
    /// (always up without one; indexes wrap like [`cpu`](Self::cpu)).
    pub fn node_down_at(&self, idx: usize, at: Nanos) -> bool {
        match &self.outages {
            Some(s) => s.node_down_at(self.node_id(idx), at),
            None => false,
        }
    }

    /// Whether the link carrying traffic between `a` and `b` is down at
    /// `at` — a pair window, or either endpoint node down. Indexes that
    /// wrap onto one node reduce to the node query (co-located transfers
    /// never cross a link).
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

    /// Reserves `duration` for a transfer from `a` to `b` starting no
    /// earlier than `earliest`: on the pair's link, or on the node's CPU
    /// when the indexes wrap onto one node (a co-located transfer crosses
    /// no link). `None`, with nothing reserved, if that link or either
    /// endpoint node is down at `earliest`.
    pub fn try_reserve_transfer(
        &mut self,
        a: usize,
        b: usize,
        earliest: Nanos,
        duration: Nanos,
    ) -> Option<Nanos> {
        if self.link_down_between_at(a, b, earliest) {
            return None;
        }
        let timeline = match pair_of(self.cpus.len(), a, b) {
            Some(pair) => &mut self.links[pair],
            None => self.cpu(a),
        };
        Some(timeline.reserve(earliest, duration))
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

    /// The link timeline carrying traffic between nodes `a` and `b`
    /// (indexes wrap onto the known nodes).
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` wrap onto one node: no link joins a node and
    /// itself (a single-node schedule has no links at all).
    pub fn link_between(&mut self, a: usize, b: usize) -> &mut Timeline {
        let Some(pair) = pair_of(self.cpus.len(), a, b) else {
            panic!("nodes {a} and {b} are co-located: no link joins a node and itself");
        };
        &mut self.links[pair]
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
        out.nodes.extend(self.cpus.iter().map(|cpu| NodeView {
            cores: cpu.capacity() as u32,
            backlog_ns: cpu.backlog_at(now),
        }));
        out.link_backlogs.clear();
        out.link_backlogs.extend(self.links.iter().map(|l| l.backlog_at(now)));
    }

    /// Total active core lanes (Σ per-node capacities) — the cheap
    /// lane-count read (no reserved-time sweep) the load engine's
    /// per-event capacity integral wants.
    pub fn cpu_lanes(&self) -> usize {
        self.cpus.iter().map(Timeline::capacity).sum()
    }

    /// Number of active pair links (0 on a single node).
    pub fn link_lanes(&self) -> usize {
        self.links.len()
    }

    /// Grows the cluster by one node of `cores` cores **mid-stream**:
    /// every existing timeline (and its reservations) is preserved, and
    /// the new node gets a fresh link to every existing node.
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
        let links = std::mem::take(&mut self.links);
        self.links = Self::reindex_mesh(links, idx, idx + 1);
        idx
    }

    /// Shrinks the cluster by removing the **last** node mid-stream,
    /// preserving every remaining timeline. Reservations already placed
    /// on the removed node (and its pair links) move into the retired
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
    /// monotone. Surviving timelines (and surviving pairs) keep
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
        let links = std::mem::take(&mut self.links);
        let old_n = self.cpus.len() + 1;
        self.links =
            Self::reindex_mesh_removing(links, old_n, victim, &mut self.retired_link_ns);
    }

    /// Grows a flattened upper-triangular link mesh from `old_n` to
    /// `new_n` nodes: the old pairs keep their timelines (reservations
    /// intact) in their old order, and new pairs get fresh capacity-1
    /// links.
    fn reindex_mesh(links: Vec<Timeline>, old_n: usize, new_n: usize) -> Vec<Timeline> {
        let mut old = links.into_iter();
        let mut out = Vec::with_capacity(new_n * new_n.saturating_sub(1) / 2);
        for a in 0..new_n {
            for b in a + 1..new_n {
                let kept = if b < old_n { old.next() } else { None };
                out.push(kept.unwrap_or_else(|| Timeline::new(format!("link-{a}-{b}"), 1)));
            }
        }
        out
    }

    /// Shrinks the mesh of an `old_n` cluster by node `victim`: every
    /// other pair keeps its timeline in order, and each pair touching the
    /// victim retires into `retired_ns`.
    fn reindex_mesh_removing(
        links: Vec<Timeline>,
        old_n: usize,
        victim: usize,
        retired_ns: &mut Nanos,
    ) -> Vec<Timeline> {
        let pairs = (0..old_n).flat_map(|a| (a + 1..old_n).map(move |b| (a, b)));
        let mut out = Vec::with_capacity(links.len().saturating_sub(old_n - 1));
        for ((a, b), link) in pairs.zip(links) {
            if a == victim || b == victim {
                *retired_ns += link.reserved_ns();
            } else {
                out.push(link);
            }
        }
        out
    }

    /// Time the last reservation across all resources drains.
    pub fn busy_until(&self) -> Nanos {
        self.cpus.iter().chain(&self.links).map(Timeline::busy_until).max().unwrap_or(0)
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

    /// Total link busy time reserved across every pair link (including
    /// links since retired by scale-in), and the number of active pair
    /// links.
    pub fn link_reserved(&self) -> (Nanos, usize) {
        let reserved = self.links.iter().map(Timeline::reserved_ns).sum::<Nanos>();
        (reserved + self.retired_link_ns, self.links.len())
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
        let mut link = Timeline::new("link", 1);
        assert_eq!(link.reserve(500, 100), 500);
        // Free again at 600; an earlier-ready caller still waits.
        assert_eq!(link.reserve(0, 100), 600);
        assert_eq!(link.free_at(), 700);
    }

    #[test]
    fn zero_duration_reservation_never_blocks() {
        let mut link = Timeline::new("link", 1);
        link.reserve(0, 1_000);
        assert_eq!(link.reserve(200, 0), 200);
        assert_eq!(link.busy_until(), 1_000);
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
        assert_eq!(res.link_between(0, 1).capacity(), 1);
    }

    #[test]
    fn resources_busy_until_spans_everything() {
        let mut res = SchedResources::new(2, 4);
        res.cpu(0).reserve(0, 100);
        res.link_between(0, 1).reserve(0, 5_000);
        res.cpu(1).reserve(0, 300);
        assert_eq!(res.busy_until(), 5_000);
    }

    #[test]
    fn cpu_index_wraps_onto_known_nodes() {
        let mut res = SchedResources::new(2, 4);
        res.cpu(2).reserve(0, 100); // wraps to node 0
        assert_eq!(res.cpu(0).busy_until(), 100);
    }

    #[test]
    fn reserved_ns_accumulates() {
        let mut cpu = Timeline::new("cpu", 2);
        cpu.reserve(0, 100);
        cpu.reserve(0, 250);
        cpu.reserve(50, 0); // zero-duration never counts
        assert_eq!(cpu.reserved_ns(), 350);
    }

    #[test]
    fn heterogeneous_capacities_follow_core_counts() {
        let mut res = SchedResources::mesh(&[2, 8, 4]);
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
    fn utilization_accounting_spans_cpus_and_links() {
        let mut res = SchedResources::mesh(&[2, 2]);
        res.cpu(0).reserve(0, 100);
        res.cpu(1).reserve(0, 300);
        res.link_between(0, 1).reserve(0, 700);
        let (cpu_ns, lanes) = res.cpu_reserved();
        assert_eq!((cpu_ns, lanes), (400, 4));
        let (link_ns, links) = res.link_reserved();
        assert_eq!((link_ns, links), (700, 1));
    }

    #[test]
    fn view_reports_cores_and_backlog() {
        let mut res = SchedResources::mesh(&[2, 4]);
        res.cpu(0).reserve(0, 600);
        res.cpu(0).reserve(0, 1_000);
        res.link_between(0, 1).reserve(0, 900);
        let view = res.view(500);
        assert_eq!(view.now(), 500);
        assert_eq!(view.node_count(), 2);
        assert_eq!(view.node(0).cores, 2);
        // Lanes busy until 600 and 1_000: the backlog beyond now=500 is
        // the busiest lane's 500.
        assert_eq!(view.node(0).backlog_ns, 500);
        // Node 1 idle.
        assert_eq!(view.node(1).cores, 4);
        assert_eq!(view.node(1).backlog_ns, 0);
        assert_eq!(view.link_backlog_between(0, 1), 400);
        // No link joins a node and itself, wrapped indexes included.
        assert_eq!(view.link_backlog_between(0, 0), 0);
        assert_eq!(view.link_backlog_between(1, 3), 0);
        assert_eq!(view.total_backlog_ns(), 500);
        assert_eq!(view.mean_backlog_ns(), 250);
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
    fn a_single_node_has_no_links() {
        let res = SchedResources::new(1, 2);
        assert_eq!(res.link_lanes(), 0);
        assert_eq!(res.link_reserved(), (0, 0));
        assert_eq!(res.view(0).link_backlog_between(0, 1), 0);
    }

    #[test]
    #[should_panic(expected = "co-located")]
    fn link_between_a_node_and_itself_panics() {
        SchedResources::new(2, 2).link_between(1, 3);
    }

    #[test]
    fn a_co_located_transfer_runs_on_the_node_cpu() {
        let mut res = SchedResources::new(2, 1);
        // 0 and 2 wrap onto node 0: its CPU, not a link, carries the bytes.
        assert_eq!(res.try_reserve_transfer(0, 2, 0, 700), Some(0));
        assert_eq!(res.cpu(0).busy_until(), 700);
        assert_eq!(res.link_reserved().0, 0);
        // A distinct pair uses its link.
        assert_eq!(res.try_reserve_transfer(1, 2, 0, 300), Some(0));
        assert_eq!(res.link_between(0, 1).busy_until(), 300);
    }

    #[test]
    fn add_node_preserves_existing_timelines() {
        let mut res = SchedResources::mesh(&[2, 2]);
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
        assert_eq!(res.try_reserve_transfer(0, 1, 5_500, 100), None);
        assert_eq!(res.try_reserve_transfer(0, 1, 1_500, 100), None);
        let granted = res.try_reserve_transfer(0, 1, 6_000, 100);
        assert_eq!(granted, Some(6_000));
        // Rejected attempts reserved nothing.
        assert_eq!(res.cpu(1).reserved_ns(), 100);
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
        let a = res.link_between(0, 1).reserve(0, 8_000);
        let b = res.link_between(0, 1).reserve(0, 8_000);
        assert_eq!((a, b), (0, 8_000));
        let c = res.cpu(0).reserve(0, 8_000);
        let d = res.cpu(0).reserve(0, 8_000);
        assert_eq!((c, d), (0, 0));
    }
}
