//! The Roadrunner data plane: mode selection and workflow integration.
//!
//! [`RoadrunnerPlane`] owns the shims of a deployment and implements
//! [`roadrunner_platform::DataPlane`], so the platform's workflow engine
//! can run over it. For every edge it derives the best transfer mode from
//! placement alone — "Roadrunner optimizes communication regardless of
//! the scheduler's decisions" (paper §2.2):
//!
//! * same shim (functions the user grouped into one VM) → **user space**;
//! * same node, different sandboxes → **kernel space** (Unix socket);
//! * different nodes → **network** (virtual data hose).

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use roadrunner_platform::{DataPlane, FunctionBundle, PlatformError, TransferTiming};
use roadrunner_vkernel::socket::Endpoint;
use roadrunner_vkernel::tcp::TcpConn;
use roadrunner_vkernel::unix::UnixConn;
use roadrunner_vkernel::{Nanos, Testbed};
use roadrunner_wasm::types::Value;

use crate::config::ShimConfig;
use crate::error::RoadrunnerError;
use crate::region::MemoryRegion;
use crate::shim::Shim;
use crate::{hose, kernelspace, userspace};

/// Which transfer mechanism an edge used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Both functions in one Wasm VM (paper §4.1).
    UserSpace,
    /// Co-located sandboxes over a Unix socket (paper §4.2).
    KernelSpace,
    /// Remote nodes over the virtual data hose (paper §4.3).
    Network,
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Mode::UserSpace => "user-space",
            Mode::KernelSpace => "kernel-space",
            Mode::Network => "network",
        };
        f.write_str(s)
    }
}

/// Timing breakdown of the last transfer, in virtual nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeBreakdown {
    /// Mode the edge used.
    pub mode: Mode,
    /// Input delivery + source handler execution (function work, not
    /// transfer — the paper measures from "source sends" onwards).
    pub prepare_ns: Nanos,
    /// From outbox handoff to the payload resting in the target's linear
    /// memory (the paper's transfer latency).
    pub transfer_ns: Nanos,
    /// Target handler execution.
    pub consume_ns: Nanos,
}

impl EdgeBreakdown {
    /// Everything, end to end.
    pub fn total_ns(&self) -> Nanos {
        self.prepare_ns + self.transfer_ns + self.consume_ns
    }
}

struct FunctionEntry {
    shim_idx: usize,
    node: usize,
    /// Function index of the handler export, resolved at deploy time.
    handler: u32,
    /// Result arity of the handler export (0 or 1) — consume returns an
    /// ack, produce/relay return nothing.
    handler_returns: bool,
}

/// Connected socket pairs by `(lower, higher)` shim index.
type Links = HashMap<(usize, usize), (Endpoint, Endpoint)>;

/// The live Roadrunner deployment: shims, placements and cached channels.
pub struct RoadrunnerPlane {
    testbed: Arc<Testbed>,
    shims: Vec<Shim>,
    functions: HashMap<String, FunctionEntry>,
    // Kept apart: one shim pair can need a Unix pair under one placement
    // and a TCP connection under another.
    unix_links: Links,
    tcp_links: Links,
    last_breakdown: Option<EdgeBreakdown>,
    config: ShimConfig,
}

impl std::fmt::Debug for RoadrunnerPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoadrunnerPlane")
            .field("functions", &self.functions.keys().collect::<Vec<_>>())
            .field("shims", &self.shims.len())
            .finish_non_exhaustive()
    }
}

/// The deployed `function`. Takes the map alone so the caller's `shims`
/// stay borrowable beside the entry.
fn entry<'a>(
    functions: &'a HashMap<String, FunctionEntry>,
    function: &str,
) -> Result<&'a FunctionEntry, RoadrunnerError> {
    functions.get(function).ok_or_else(|| RoadrunnerError::UnknownModule(function.to_owned()))
}

/// Mode and effective `(source, target)` nodes of an edge from `a` to `b`
/// under an instance's placement overrides.
fn route(
    a: &FunctionEntry,
    b: &FunctionEntry,
    src_node: Option<usize>,
    dst_node: Option<usize>,
) -> (Mode, usize, usize) {
    let (src, dst) = (src_node.unwrap_or(a.node), dst_node.unwrap_or(b.node));
    let mode = if a.shim_idx == b.shim_idx {
        Mode::UserSpace
    } else if src == dst {
        Mode::KernelSpace
    } else {
        Mode::Network
    };
    (mode, src, dst)
}

/// Runs `function`'s handler over `region` of its own memory.
fn run_handler(
    shim: &mut Shim,
    function: &str,
    entry: &FunctionEntry,
    region: MemoryRegion,
) -> Result<(), RoadrunnerError> {
    let out = shim.call(
        function,
        entry.handler,
        &[Value::I32(region.addr as i32), Value::I32(region.len as i32)],
    )?;
    if entry.handler_returns {
        debug_assert_eq!(out.len(), 1, "acking handlers return one value");
    }
    Ok(())
}

/// Delivers `payload` into `function` and runs its handler.
fn inject(
    shim: &mut Shim,
    function: &str,
    entry: &FunctionEntry,
    payload: &[u8],
) -> Result<(), RoadrunnerError> {
    let region = shim.write_memory_host(function, payload)?;
    run_handler(shim, function, entry, region)
}

impl RoadrunnerPlane {
    /// Creates an empty plane over `testbed`.
    pub fn new(testbed: Arc<Testbed>, config: ShimConfig) -> Self {
        Self {
            testbed,
            shims: Vec::new(),
            functions: HashMap::new(),
            unix_links: HashMap::new(),
            tcp_links: HashMap::new(),
            last_breakdown: None,
            config,
        }
    }

    fn refuse_duplicate(&self, function: &str) -> Result<(), RoadrunnerError> {
        if self.functions.contains_key(function) {
            return Err(RoadrunnerError::Config(format!(
                "function `{function}` is already deployed"
            )));
        }
        Ok(())
    }

    /// Refuses a node index outside the testbed.
    fn refuse_missing_node(&self, node: usize) -> Result<(), RoadrunnerError> {
        let nodes = self.testbed.nodes().len();
        if node >= nodes {
            return Err(RoadrunnerError::Config(format!(
                "node {node} is outside the {nodes}-node testbed"
            )));
        }
        Ok(())
    }

    /// Deploys `function` in its **own** shim/sandbox on `node`.
    /// `handler` is the export invoked when input arrives;
    /// `handler_returns` tells the plane whether it yields an ack value.
    ///
    /// # Errors
    ///
    /// [`RoadrunnerError::Config`] if `function` is already deployed or
    /// `node` is outside the testbed;
    /// [`Trap::BadExport`](roadrunner_wasm::Trap::BadExport) if the module
    /// has no function export `handler`; shim load errors (bad bundle).
    pub fn deploy(
        &mut self,
        node: usize,
        function: &str,
        bundle: Arc<FunctionBundle>,
        handler: &str,
        handler_returns: bool,
    ) -> Result<(), RoadrunnerError> {
        self.refuse_duplicate(function)?;
        self.refuse_missing_node(node)?;
        let mut shim = Shim::new(function, self.testbed.node(node), self.config);
        let handler = shim.load_function(function, bundle, handler)?;
        let shim_idx = self.shims.len();
        self.shims.push(shim);
        self.functions.insert(
            function.to_owned(),
            FunctionEntry { shim_idx, node, handler, handler_returns },
        );
        Ok(())
    }

    /// Deploys `function` **into the same Wasm VM** as `colocate_with`,
    /// enabling user-space mode between them. The shim enforces the
    /// workflow/tenant trust rule.
    ///
    /// # Errors
    ///
    /// [`RoadrunnerError::UnknownModule`] if `colocate_with` is not
    /// deployed; [`RoadrunnerError::TrustViolation`] on a trust mismatch;
    /// otherwise as [`deploy`](Self::deploy).
    pub fn deploy_into_shared_vm(
        &mut self,
        colocate_with: &str,
        function: &str,
        bundle: Arc<FunctionBundle>,
        handler: &str,
        handler_returns: bool,
    ) -> Result<(), RoadrunnerError> {
        self.refuse_duplicate(function)?;
        let host = entry(&self.functions, colocate_with)?;
        let (shim_idx, node) = (host.shim_idx, host.node);
        let handler = self.shims[shim_idx].load_function(function, bundle, handler)?;
        self.functions.insert(
            function.to_owned(),
            FunctionEntry { shim_idx, node, handler, handler_returns },
        );
        Ok(())
    }

    /// The mode an edge between two deployed functions will use.
    ///
    /// # Errors
    ///
    /// [`RoadrunnerError::UnknownModule`] for undeployed functions.
    pub fn mode_of(&self, from: &str, to: &str) -> Result<Mode, RoadrunnerError> {
        self.mode_of_placed(from, to, None, None)
    }

    /// The mode an edge will use for an **instance** whose scheduler
    /// placed the endpoints on `src_node` / `dst_node` (`None` falls
    /// back to the deployment node). Functions sharing one Wasm VM stay
    /// user-space — a VM is indivisible — but sandboxed functions take
    /// the mode their *instance* placement implies, not the one the
    /// deployment's static colocation would suggest.
    ///
    /// # Errors
    ///
    /// [`RoadrunnerError::UnknownModule`] for undeployed functions.
    pub fn mode_of_placed(
        &self,
        from: &str,
        to: &str,
        src_node: Option<usize>,
        dst_node: Option<usize>,
    ) -> Result<Mode, RoadrunnerError> {
        let (a, b) = (entry(&self.functions, from)?, entry(&self.functions, to)?);
        Ok(route(a, b, src_node, dst_node).0)
    }

    /// Breakdown of the most recent transfer.
    pub fn last_breakdown(&self) -> Option<EdgeBreakdown> {
        self.last_breakdown
    }

    /// Shim hosting `function` (for telemetry and tests).
    ///
    /// # Errors
    ///
    /// [`RoadrunnerError::UnknownModule`] for undeployed functions.
    pub fn shim_of(&self, function: &str) -> Result<&Shim, RoadrunnerError> {
        Ok(&self.shims[entry(&self.functions, function)?.shim_idx])
    }

    /// Delivers `payload` into `function` and runs its handler —
    /// the ingress step a platform performs for the first function of a
    /// workflow.
    ///
    /// # Errors
    ///
    /// Shim access and trap errors.
    pub fn inject(&mut self, function: &str, payload: &[u8]) -> Result<(), RoadrunnerError> {
        let target = entry(&self.functions, function)?;
        inject(&mut self.shims[target.shim_idx], function, target, payload)
    }

    /// Executes one edge: ensures the source has pending output, moves it
    /// with the placement-derived mode, runs the target handler, and
    /// returns the bytes as they rest in the target's memory.
    ///
    /// # Errors
    ///
    /// Any shim/kernel error from the underlying mode.
    pub fn transfer_edge(
        &mut self,
        from: &str,
        to: &str,
        payload: &Bytes,
    ) -> Result<Bytes, RoadrunnerError> {
        self.transfer_edge_placed(from, to, payload, None, None)
    }

    /// [`transfer_edge`](Self::transfer_edge) for an instance whose
    /// scheduler overrode the endpoints' nodes: the mode — and, for a
    /// first network transfer, the link the connection is established
    /// over — follow the *effective* placement.
    ///
    /// # Errors
    ///
    /// [`RoadrunnerError::Config`], before anything moves, if an
    /// effective node is outside the testbed; any shim/kernel error from
    /// the underlying mode.
    pub fn transfer_edge_placed(
        &mut self,
        from: &str,
        to: &str,
        payload: &Bytes,
        src_node: Option<usize>,
        dst_node: Option<usize>,
    ) -> Result<Bytes, RoadrunnerError> {
        // Each endpoint is looked up once; mode, effective nodes, shims
        // and handlers all come from these two entries. Every borrow below
        // is of one field, so the clock and the entries stay borrowed
        // while the shims and links are written.
        let (source, target) = (entry(&self.functions, from)?, entry(&self.functions, to)?);
        let (mode, eff_src, eff_dst) = route(source, target, src_node, dst_node);
        self.refuse_missing_node(eff_src)?;
        self.refuse_missing_node(eff_dst)?;
        let (from_shim, to_shim) = (source.shim_idx, target.shim_idx);
        let clock = self.testbed.clock();

        // Preparation: if the source holds no pending outbox (workflow
        // entry point), deliver the payload and run its handler.
        let t0 = clock.now();
        if self.shims[from_shim].peek_outbox(from)?.is_none() {
            inject(&mut self.shims[from_shim], from, source, payload)?;
        }
        let prepare_ns = clock.now() - t0;

        // Transfer proper.
        let t1 = clock.now();
        let region_b = match mode {
            Mode::UserSpace => userspace::move_outbox(&mut self.shims[from_shim], from, to)?,
            Mode::KernelSpace => {
                let (tx, rx) = channel(&mut self.unix_links, from_shim, to_shim, UnixConn::pair);
                // Distinct shims by `route`; refused rather than assumed.
                let [src, dst] =
                    self.shims.get_disjoint_mut([from_shim, to_shim]).map_err(|_| {
                        RoadrunnerError::Config(format!(
                            "kernel-space edge `{from}` → `{to}` needs two shims"
                        ))
                    })?;
                kernelspace::move_outbox(src, from, dst, to, tx, rx)?
            }
            Mode::Network => {
                // A fresh connection runs over the link joining the
                // effective nodes of the edge that first needed it.
                let (tx, rx) = channel(&mut self.tcp_links, from_shim, to_shim, || {
                    TcpConn::establish(
                        self.shims[from_shim.min(to_shim)].sandbox(),
                        Arc::clone(self.testbed.link_between(eff_src, eff_dst)),
                    )
                });
                hose::send(&mut self.shims[from_shim], from, tx)?;
                hose::recv(&mut self.shims[to_shim], to, rx)?
            }
        };
        let transfer_ns = clock.now() - t1;

        // Target handler.
        let t2 = clock.now();
        let shim = &mut self.shims[to_shim];
        run_handler(shim, to, target, region_b)?;
        let consume_ns = clock.now() - t2;

        self.last_breakdown = Some(EdgeBreakdown { mode, prepare_ns, transfer_ns, consume_ns });

        // Integrity read-back. If the target handler forwarded the data
        // (relay) the region is still registered; if it consumed it we
        // read before releasing.
        let received = shim.peek_memory(to, region_b)?;
        let target_kept = shim.peek_outbox(to)?.is_some();
        if !target_kept {
            shim.deallocate(to, region_b)?;
        }
        Ok(received)
    }
}

/// The cached channel between shims `from` and `to`, connected on first
/// use and reused in both directions, as `(sender's end, receiver's end)`;
/// the pair's first endpoint belongs to the lower-indexed shim. Takes the
/// link map alone so the caller's `shims` stay borrowable beside it.
fn channel(
    links: &mut Links,
    from: usize,
    to: usize,
    connect: impl FnOnce() -> (Endpoint, Endpoint),
) -> (&Endpoint, &Endpoint) {
    let (low, high) = links.entry((from.min(to), from.max(to))).or_insert_with(connect);
    if from < to {
        (low, high)
    } else {
        (high, low)
    }
}

impl From<EdgeBreakdown> for TransferTiming {
    fn from(bd: EdgeBreakdown) -> Self {
        TransferTiming {
            prepare_ns: bd.prepare_ns,
            transfer_ns: bd.transfer_ns,
            consume_ns: bd.consume_ns,
        }
    }
}

impl DataPlane for RoadrunnerPlane {
    fn transfer_placed(
        &mut self,
        from: &str,
        to: &str,
        payload: Bytes,
        src_node: Option<usize>,
        dst_node: Option<usize>,
    ) -> Result<(Bytes, Option<TransferTiming>), PlatformError> {
        let received = self.transfer_edge_placed(from, to, &payload, src_node, dst_node)?;
        Ok((received, self.last_breakdown.map(TransferTiming::from)))
    }

    fn placement(&self, function: &str) -> Option<usize> {
        self.functions.get(function).map(|e| e.node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guest;
    use roadrunner_wasm::encode;

    fn bundle(name: &str, module: roadrunner_wasm::Module) -> Arc<FunctionBundle> {
        Arc::new(
            FunctionBundle::wasm(name, encode::encode(&module))
                .with_workflow("wf")
                .with_tenant("t"),
        )
    }

    fn plane() -> RoadrunnerPlane {
        RoadrunnerPlane::new(
            Arc::new(Testbed::paper()),
            ShimConfig::default().with_load_costs(false),
        )
    }

    #[test]
    fn mode_selection_follows_placement() {
        let mut p = plane();
        p.deploy(0, "a", bundle("a", guest::producer()), "produce", false).unwrap();
        p.deploy_into_shared_vm("a", "a2", bundle("a2", guest::consumer()), "consume", true)
            .unwrap();
        p.deploy(0, "b", bundle("b", guest::consumer()), "consume", true).unwrap();
        p.deploy(1, "c", bundle("c", guest::consumer()), "consume", true).unwrap();
        assert_eq!(p.mode_of("a", "a2").unwrap(), Mode::UserSpace);
        assert_eq!(p.mode_of("a", "b").unwrap(), Mode::KernelSpace);
        assert_eq!(p.mode_of("a", "c").unwrap(), Mode::Network);
        assert!(p.mode_of("a", "ghost").is_err());
    }

    #[test]
    fn user_space_edge_end_to_end() {
        let mut p = plane();
        p.deploy(0, "a", bundle("a", guest::producer()), "produce", false).unwrap();
        p.deploy_into_shared_vm("a", "b", bundle("b", guest::consumer()), "consume", true)
            .unwrap();
        let payload = Bytes::from(vec![0xC3u8; 65_000]);
        let received = p.transfer_edge("a", "b", &payload).unwrap();
        assert_eq!(&received[..], &payload[..]);
        let bd = p.last_breakdown().unwrap();
        assert_eq!(bd.mode, Mode::UserSpace);
        assert!(bd.transfer_ns > 0);
    }

    #[test]
    fn kernel_space_edge_end_to_end() {
        let mut p = plane();
        p.deploy(0, "a", bundle("a", guest::producer()), "produce", false).unwrap();
        p.deploy(0, "b", bundle("b", guest::consumer()), "consume", true).unwrap();
        let payload = Bytes::from((0..200_000u32).map(|i| (i % 256) as u8).collect::<Vec<_>>());
        let received = p.transfer_edge("a", "b", &payload).unwrap();
        assert_eq!(&received[..], &payload[..]);
        assert_eq!(p.last_breakdown().unwrap().mode, Mode::KernelSpace);
    }

    #[test]
    fn network_edge_end_to_end() {
        let mut p = plane();
        p.deploy(0, "a", bundle("a", guest::producer()), "produce", false).unwrap();
        p.deploy(1, "b", bundle("b", guest::consumer()), "consume", true).unwrap();
        let payload = Bytes::from(vec![0x77u8; 300_000]);
        let received = p.transfer_edge("a", "b", &payload).unwrap();
        assert_eq!(&received[..], &payload[..]);
        let bd = p.last_breakdown().unwrap();
        assert_eq!(bd.mode, Mode::Network);
        // Wire time must appear in the transfer phase.
        assert!(bd.transfer_ns >= p.testbed.link_between(0, 1).wire_ns(300_000));
    }

    #[test]
    fn placement_overrides_flip_the_mode_with_the_instance() {
        // Regression: two functions deployed colocated on node 0, but the
        // instance's scheduler separated them — the edge must go over the
        // network, not the deployment's Unix socket. (The plane used to
        // consult only the static deployment node.)
        let mut p = plane();
        p.deploy(0, "a", bundle("a", guest::producer()), "produce", false).unwrap();
        p.deploy(0, "b", bundle("b", guest::consumer()), "consume", true).unwrap();
        assert_eq!(p.mode_of("a", "b").unwrap(), Mode::KernelSpace);
        assert_eq!(
            p.mode_of_placed("a", "b", Some(0), Some(1)).unwrap(),
            Mode::Network
        );
        // And the converse: deployment-separated functions whose instance
        // landed together use the kernel-space path.
        p.deploy(1, "c", bundle("c", guest::consumer()), "consume", true).unwrap();
        assert_eq!(p.mode_of("a", "c").unwrap(), Mode::Network);
        assert_eq!(
            p.mode_of_placed("a", "c", Some(1), Some(1)).unwrap(),
            Mode::KernelSpace
        );

        let payload = Bytes::from(vec![0x5Au8; 120_000]);
        let received = p.transfer_edge_placed("a", "b", &payload, Some(0), Some(1)).unwrap();
        assert_eq!(&received[..], &payload[..]);
        let bd = p.last_breakdown().unwrap();
        assert_eq!(bd.mode, Mode::Network);
        // Wire time over the 0–1 link shows up in the transfer phase.
        assert!(bd.transfer_ns >= p.testbed.link_between(0, 1).wire_ns(120_000));
    }

    #[test]
    fn shared_vm_functions_stay_user_space_under_any_override() {
        let mut p = plane();
        p.deploy(0, "a", bundle("a", guest::producer()), "produce", false).unwrap();
        p.deploy_into_shared_vm("a", "b", bundle("b", guest::consumer()), "consume", true)
            .unwrap();
        // A VM is indivisible: overrides cannot split it.
        assert_eq!(
            p.mode_of_placed("a", "b", Some(0), Some(1)).unwrap(),
            Mode::UserSpace
        );
    }

    #[test]
    fn untrusted_colocation_is_refused() {
        let mut p = plane();
        p.deploy(0, "a", bundle("a", guest::producer()), "produce", false).unwrap();
        let foreign = Arc::new(
            FunctionBundle::wasm("x", encode::encode(&guest::consumer()))
                .with_workflow("other")
                .with_tenant("t"),
        );
        assert!(matches!(
            p.deploy_into_shared_vm("a", "x", foreign, "consume", true),
            Err(RoadrunnerError::TrustViolation(_))
        ));
    }

    #[test]
    fn deploying_under_a_deployed_name_is_refused_and_orphans_nothing() {
        let mut p = plane();
        p.deploy(0, "a", bundle("a", guest::producer()), "produce", false).unwrap();
        p.deploy(1, "b", bundle("b", guest::consumer()), "consume", true).unwrap();
        let again = p.deploy(1, "a", bundle("a", guest::consumer()), "consume", true);
        let shared =
            p.deploy_into_shared_vm("a", "b", bundle("b", guest::consumer()), "consume", true);
        for err in [again.unwrap_err(), shared.unwrap_err()] {
            let named = matches!(&err, RoadrunnerError::Config(msg) if msg.contains("already deployed"));
            assert!(named, "{err}");
        }
        // No shim was created or loaded for the refused deployments, and
        // the first entries still route the edge.
        assert_eq!(p.shims.len(), 2);
        assert_eq!((p.placement("a"), p.placement("b")), (Some(0), Some(1)));
        let payload = Bytes::from_static(b"as deployed first");
        assert_eq!(p.transfer_edge("a", "b", &payload).unwrap(), payload);
        assert_eq!(p.last_breakdown().unwrap().mode, Mode::Network);
    }

    #[test]
    fn deploying_outside_the_testbed_is_refused() {
        let mut p = plane();
        let err = p.deploy(2, "a", bundle("a", guest::producer()), "produce", false).unwrap_err();
        assert!(matches!(&err, RoadrunnerError::Config(msg) if msg.contains("outside")), "{err}");
        // Nothing was deployed: the name is still free.
        assert_eq!((p.shims.len(), p.placement("a")), (0, None));
        p.deploy(1, "a", bundle("a", guest::producer()), "produce", false).unwrap();
    }

    #[test]
    fn a_transfer_placed_outside_the_testbed_is_refused_before_anything_moves() {
        let bed = roadrunner_vkernel::ClusterSpec::homogeneous(3, 4, 8 << 30).build();
        let config = ShimConfig::default().with_load_costs(false);
        let mut p = RoadrunnerPlane::new(Arc::new(bed), config);
        p.deploy(0, "a", bundle("a", guest::producer()), "produce", false).unwrap();
        p.deploy(1, "b", bundle("b", guest::consumer()), "consume", true).unwrap();
        let payload = Bytes::from(vec![0x3Cu8; 10_000]);
        let err = p.transfer_edge_placed("a", "b", &payload, Some(0), Some(7)).unwrap_err();
        assert!(matches!(&err, RoadrunnerError::Config(msg) if msg.contains("outside")), "{err}");
        // The source was not run and no connection was made.
        assert_eq!(p.shim_of("a").unwrap().peek_outbox("a").unwrap(), None);
        assert!(p.tcp_links.is_empty() && p.last_breakdown().is_none());
        assert_eq!(p.transfer_edge("a", "b", &payload).unwrap(), payload);
    }

    #[test]
    fn chain_through_relay() {
        let mut p = plane();
        p.deploy(0, "a", bundle("a", guest::producer()), "produce", false).unwrap();
        p.deploy(0, "r", bundle("r", guest::relay()), "relay", false).unwrap();
        p.deploy(1, "b", bundle("b", guest::consumer()), "consume", true).unwrap();
        let payload = Bytes::from(vec![0x11u8; 50_000]);
        let mid = p.transfer_edge("a", "r", &payload).unwrap();
        assert_eq!(&mid[..], &payload[..]);
        // The relay re-sent: its outbox is pending, so the next edge
        // skips preparation and forwards the same bytes.
        let out = p.transfer_edge("r", "b", &mid).unwrap();
        assert_eq!(&out[..], &payload[..]);
        assert_eq!(p.last_breakdown().unwrap().mode, Mode::Network);
    }

    #[test]
    fn transfer_placed_reports_breakdown_and_placement() {
        use roadrunner_platform::DataPlane;
        let mut p = plane();
        p.deploy(0, "a", bundle("a", guest::producer()), "produce", false).unwrap();
        p.deploy(1, "b", bundle("b", guest::consumer()), "consume", true).unwrap();
        assert_eq!(p.placement("a"), Some(0));
        assert_eq!(p.placement("b"), Some(1));
        assert_eq!(p.placement("ghost"), None);
        let payload = Bytes::from(vec![0x42u8; 80_000]);
        let (received, timing) = p.transfer_placed("a", "b", payload.clone(), None, None).unwrap();
        assert_eq!(&received[..], &payload[..]);
        let timing = timing.expect("roadrunner attributes every edge");
        let bd = p.last_breakdown().unwrap();
        assert_eq!(timing.prepare_ns, bd.prepare_ns);
        assert_eq!(timing.transfer_ns, bd.transfer_ns);
        assert_eq!(timing.consume_ns, bd.consume_ns);
        assert_eq!(timing.total_ns(), bd.total_ns());
    }

    #[test]
    fn a_workflow_naming_an_undeployed_function_is_an_error_not_a_panic() {
        use roadrunner_platform::{execute_concurrent_at, WorkflowSpec};
        use roadrunner_vkernel::SchedResources;
        let mut p = plane();
        p.deploy(1, "a", bundle("a", guest::producer()), "produce", false).unwrap();
        let clock = p.testbed.clock().clone();
        // `ghost` has no placement to resolve; the run still reaches the
        // plane, which refuses the edge.
        let spec = WorkflowSpec::sequence("wf", "t", ["a".to_owned(), "ghost".to_owned()]);
        let mut res = SchedResources::new(2, 4);
        let run = execute_concurrent_at(&mut p, &clock, &spec, Bytes::from_static(b"x"), &mut res, 0);
        assert!(matches!(run, Err(PlatformError::Transfer(_))), "{run:?}");
    }

    #[test]
    fn workflow_engine_runs_over_the_plane() {
        use roadrunner_platform::{execute, WorkflowSpec};
        let mut p = plane();
        p.deploy(0, "a", bundle("a", guest::producer()), "produce", false).unwrap();
        p.deploy(0, "r", bundle("r", guest::relay()), "relay", false).unwrap();
        p.deploy(1, "b", bundle("b", guest::consumer()), "consume", true).unwrap();
        let clock = p.testbed.clock().clone();
        let spec = WorkflowSpec::sequence(
            "wf",
            "t",
            ["a".to_owned(), "r".to_owned(), "b".to_owned()],
        );
        let payload = Bytes::from(vec![9u8; 10_000]);
        let run = execute(&mut p, &clock, &spec, payload.clone()).unwrap();
        assert_eq!(run.edges.len(), 2);
        assert!(run.edges.iter().all(|e| e.received[..] == payload[..]));
        assert!(run.total_latency_ns > 0);
    }
}
