//! Serverless platform substrate for the Roadrunner reproduction.
//!
//! Roadrunner is "a sidecar shim that lives alongside serverless
//! functions, allowing the container orchestration tool to manage
//! scalability" (paper §3.2.4). This crate is that surrounding platform:
//!
//! * [`bundle`] — OCI-style function bundles: real Wasm binaries with
//!   workflow/tenant annotations.
//! * [`scheduler`] — instance placement policies; Roadrunner adapts to
//!   whatever they decide.
//! * [`dag`] — first-class workflow DAGs (named nodes, payload-carrying
//!   edges, cycle/connectivity validation) generalizing the paper's
//!   sequence/fan-out/fan-in shapes.
//! * [`workflow`] — the execution engine over a pluggable
//!   [`workflow::DataPlane`]: one discrete-event engine that overlaps
//!   independent edges in virtual time (or, for a serial run, lays them
//!   end to end), over a [`workflow::CompiledWorkflow`] that hoists
//!   validation out of repeated executions.
//! * [`memo`] — [`memo::MemoizedPlane`], a deterministic transfer-cost
//!   memo over any [`workflow::DataPlane`]: identical edges replay their
//!   recorded outcome (bytes, timing, virtual-clock advance) instead of
//!   recomputing codec and cost-model work.
//! * [`loadgen`] — multi-tenant load generation and the elastic control
//!   loop: open- and closed-loop drivers over one completion-event
//!   engine, instances placed per arrival by a
//!   [`scheduler::PlacementPolicy`] observing the live
//!   [`ResourceView`](roadrunner_vkernel::ResourceView), optional
//!   cold-start admission, and a backlog-driven [`loadgen::Autoscaler`]
//!   resizing capacity mid-run.
//! * [`warmpool`] — warm-instance management for cold-start admission:
//!   a deterministic per-(function, node) [`warmpool::WarmPool`] with
//!   snapshot-restore tiering, keep-alive eviction
//!   ([`warmpool::KeepAlive`]: fixed TTL or hybrid histogram), and the
//!   predictive pre-warming target the [`loadgen::Autoscaler`] staffs
//!   via square-root staffing.
//! * [`overload`] — the overload-control layer: per-instance deadlines,
//!   deterministic per-(tenant, function, node) retry budgets and
//!   circuit breakers, and the bounded-queue shedding policies the load
//!   engine applies at admission. All knobs default off; breakers steer
//!   placement through the `ResourceView` backlog seam.
//! * [`metrics`] — exact nearest-rank latency percentiles and
//!   multi-seed [`metrics::Replicated`] summaries with order-statistic
//!   confidence intervals for the harness.
//! * [`mod@sweep`] — the parallel sweep engine: a scoped-thread worker pool
//!   fanning a figure's job list (rates × payloads × policies × seeds, or
//!   any other cells) across cores, merging results in job order so
//!   parallel output is byte-identical to the serial loop.
//!
//! Where a function sits is a slice: one node index per function, in the
//! workflow's DAG node order. A [`scheduler::PlacementPolicy`] produces
//! it, the engines read each edge's endpoints from it.
//!
//! ```
//! use roadrunner_platform::scheduler::{Pinned, PlacementPolicy};
//! use roadrunner_platform::WorkflowSpec;
//! use roadrunner_vkernel::SchedResources;
//!
//! let spec = WorkflowSpec::sequence("wf", "acme", ["fn-a".to_owned(), "fn-b".to_owned()]);
//! assert_eq!(spec.functions(), ["fn-a", "fn-b"]);
//!
//! let cluster = SchedResources::new(2, 4);
//! let placement = Pinned::new(0).pin("fn-b", 1).place(&spec, &cluster.view(0));
//! assert_eq!(placement, [0, 1]);
//! ```

pub mod bundle;
pub mod dag;
pub mod error;
pub mod loadgen;
pub mod memo;
pub mod metrics;
pub mod overload;
pub mod scheduler;
pub mod sweep;
pub mod warmpool;
mod wordhash;
pub mod workflow;

pub use bundle::FunctionBundle;
pub use dag::WorkflowDag;
pub use error::PlatformError;
pub use loadgen::{
    ArrivalProcess, Autoscaler, AutoscalerConfig, ClosedLoop, Cluster, Controls, FailurePlan,
    InstanceOutcome, Load, LoadRun, MultiLoad, NodeKill, OpenLoop, PrewarmConfig, ScaleAction,
    ScaleEvent, TenantLoad, TenantStats,
};
pub use warmpool::{AdmissionConfig, Admitted, KeepAlive, PoolStats, WarmPool, WarmPoolConfig};
pub use metrics::{
    percentiles, replicate, P2Quantile, PercentileSummary, Replicated, ReplicatedStat,
    StreamingPercentiles, STREAMING_EXACT_MAX,
};
pub use overload::{
    BreakerConfig, OverloadConfig, OverloadState, QueueConfig, RetryBudgetConfig, ShedPolicy,
    RETRY_COST_MILLITOKENS,
};
pub use scheduler::{LocalityFirst, PackThenSpill, Pinned, PlacementPolicy, SpreadLoad};
pub use memo::MemoizedPlane;
pub use sweep::{available_workers, parallel_map};
pub use workflow::{
    critical_path_ns, execute, execute_compiled, execute_concurrent_at, CompiledWorkflow, DataPlane,
    EdgeResult, RetryPolicy, TransferTiming, WorkflowRun, WorkflowSpec,
};
