//! The calibrated cost model — every simulation parameter in one place.

use crate::Nanos;

/// Size of a kernel page in bytes; `splice`/`vmsplice` move data at this
/// granularity.
pub const PAGE_SIZE: usize = 4096;

/// Calibrated parameters of the virtual testbed.
///
/// [`CostModel::paper_testbed`] reproduces the environment of the paper's
/// §6.2 (two 4-core 2 GHz VMs, 100 Mbit/s link, 1 ms RTT). The calibration
/// anchors are documented per field; DESIGN.md §7 derives them from the
/// paper's own breakdowns (Fig. 2b, Fig. 6, Fig. 7).
///
/// All `*_bytes_per_ns` fields are throughputs (bytes processed per
/// nanosecond of CPU time; 1.0 == 1 GB/s), all `*_ns` fields are fixed
/// latencies in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    // ---------------------------------------------------------------- CPU
    /// Plain `memcpy` throughput on the host (≈ 8 GB/s on the paper's
    /// Skylake-generation Xeon).
    pub memcpy_bytes_per_ns: f64,
    /// Host-native serialization throughput (text codec). Calibrated so
    /// serialization is ~15 % of a Docker function's transfer time
    /// (Fig. 2b) → ≈ 0.83 GB/s.
    pub serialize_host_bytes_per_ns: f64,
    /// Host-native deserialization throughput (slightly faster: no
    /// escaping decisions, mostly validation + copy).
    pub deserialize_host_bytes_per_ns: f64,
    /// In-VM (interpreted, single-threaded) serialization throughput.
    /// Calibrated so serialization is ~60 % of a Wasm function's transfer
    /// time (Fig. 2b) → ≈ 62 MB/s.
    pub serialize_wasm_bytes_per_ns: f64,
    /// In-VM deserialization throughput.
    pub deserialize_wasm_bytes_per_ns: f64,
    /// Fixed cost per structured-value node during (de)serialization —
    /// tag dispatch, allocation of the node, etc.
    pub serialize_node_ns: Nanos,
    /// Shim ↔ Wasm linear memory throughput per direction (chunked,
    /// bounds-checked host calls through the runtime memory API). This is
    /// the "Wasm VM I/O" penalty of Fig. 6a. Calibrated at ≈ 0.95 GB/s so
    /// Roadrunner (Kernel space) lands ~13 % below RunC intra-node while
    /// Roadrunner (User space) stays clearly below both (§6.3).
    pub vm_io_bytes_per_ns: f64,
    /// Fixed cost of one guest↔host boundary crossing (a host call).
    pub wasm_boundary_ns: Nanos,
    /// Cost of one interpreted Wasm instruction (≈ 300 MIPS interpreter).
    pub wasm_instr_ns: f64,
    /// Memory allocation cost (zeroing + allocator bookkeeping), charged
    /// per byte for large buffers (≈ 20 GB/s).
    pub alloc_bytes_per_ns: f64,

    // ------------------------------------------------------------- kernel
    /// Fixed syscall entry/exit cost.
    pub syscall_ns: Nanos,
    /// Context switch cost (sleep/wake of the peer process on a pipe or
    /// socket rendezvous).
    pub ctx_switch_ns: Nanos,
    /// Cost of moving one page *reference* during `splice`/`vmsplice`
    /// (pipe-buffer bookkeeping, page-table lookups; no byte copies).
    /// The hose moves each page reference three times (user→pipe,
    /// pipe→socket, socket→pipe), so this must stay well below
    /// `memcpy` of a page (≈ 512 ns) for near-zero copy to win.
    pub page_map_ns: Nanos,
    /// Chunk size used by socket send/recv loops (64 KiB, the default
    /// pipe capacity on Linux).
    pub io_chunk_bytes: usize,

    // ------------------------------------------------------------ network
    /// Link bandwidth between nodes, bits per second.
    ///
    /// §6.2 states a 100 Mbit/s `tc` shape, but the paper's own series
    /// contradict it: Fig. 8a reports ≈ 5.5 s for a 480 MB transfer
    /// (≈ 700 Mbit/s effective) where 100 Mbit/s would need ≈ 38 s.
    /// The default uses the effective 700 Mbit/s implied by the measured
    /// figures so latency shapes match. Every pair link of a
    /// [`ClusterSpec`](crate::cluster::ClusterSpec) testbed carries this
    /// bandwidth; [`Link::paper_wan`](crate::net::Link::paper_wan) keeps
    /// the literal 100 Mbit/s shape for the link and socket tests.
    pub net_bandwidth_bps: u64,
    /// Round-trip time between nodes (paper: stable 1 ms).
    pub net_rtt_ns: Nanos,
    /// MTU of every pair link: the packet size
    /// [`Link::wire_ns`](crate::net::Link::wire_ns) frames a transfer in.
    pub mtu_bytes: usize,

    // --------------------------------------------------------------- HTTP
    /// Fixed cost to build or parse an HTTP message head.
    pub http_head_ns: Nanos,

    // --------------------------------------------------------- cold start
    /// Container image unpack throughput (disk-bound, ≈ 200 MB/s).
    pub image_unpack_bytes_per_ns: f64,
    /// Container runtime initialization (runc + namespaces + cgroups +
    /// guest init).
    pub container_init_ns: Nanos,
    /// Wasm binary decode+instantiate throughput.
    pub wasm_load_bytes_per_ns: f64,
    /// Wasm VM bring-up (engine + store + linker).
    pub wasm_init_ns: Nanos,
}

impl CostModel {
    /// The calibrated model of the paper's testbed (§6.2).
    pub fn paper_testbed() -> Self {
        Self {
            memcpy_bytes_per_ns: 8.0,
            serialize_host_bytes_per_ns: 0.833,
            deserialize_host_bytes_per_ns: 1.0,
            serialize_wasm_bytes_per_ns: 0.062,
            deserialize_wasm_bytes_per_ns: 0.075,
            serialize_node_ns: 20,
            vm_io_bytes_per_ns: 0.95,
            wasm_boundary_ns: 1_000,
            wasm_instr_ns: 3.3,
            alloc_bytes_per_ns: 20.0,
            syscall_ns: 700,
            ctx_switch_ns: 3_000,
            page_map_ns: 60,
            io_chunk_bytes: 64 * 1024,
            net_bandwidth_bps: 700_000_000,
            net_rtt_ns: 1_000_000,
            mtu_bytes: 1500,
            http_head_ns: 10_000,
            image_unpack_bytes_per_ns: 0.2,
            container_init_ns: 1_800_000_000,
            wasm_load_bytes_per_ns: 0.05,
            wasm_init_ns: 40_000_000,
        }
    }

    /// Nanoseconds to `memcpy` `bytes`.
    pub fn memcpy_ns(&self, bytes: usize) -> Nanos {
        per_byte(bytes, self.memcpy_bytes_per_ns)
    }

    /// Nanoseconds to allocate (and zero) a buffer of `bytes`.
    pub fn alloc_ns(&self, bytes: usize) -> Nanos {
        per_byte(bytes, self.alloc_bytes_per_ns)
    }

    /// Nanoseconds to serialize `bytes` of payload spread over `nodes`
    /// structured nodes, at host speed.
    pub fn serialize_host_ns(&self, bytes: usize, nodes: usize) -> Nanos {
        per_byte(bytes, self.serialize_host_bytes_per_ns) + nodes as Nanos * self.serialize_node_ns
    }

    /// Host-speed deserialization of `bytes` over `nodes` nodes.
    pub fn deserialize_host_ns(&self, bytes: usize, nodes: usize) -> Nanos {
        per_byte(bytes, self.deserialize_host_bytes_per_ns)
            + nodes as Nanos * self.serialize_node_ns
    }

    /// In-VM serialization of `bytes` over `nodes` nodes (single-threaded
    /// interpreted guest).
    pub fn serialize_wasm_ns(&self, bytes: usize, nodes: usize) -> Nanos {
        per_byte(bytes, self.serialize_wasm_bytes_per_ns) + nodes as Nanos * self.serialize_node_ns
    }

    /// In-VM deserialization of `bytes` over `nodes` nodes.
    pub fn deserialize_wasm_ns(&self, bytes: usize, nodes: usize) -> Nanos {
        per_byte(bytes, self.deserialize_wasm_bytes_per_ns)
            + nodes as Nanos * self.serialize_node_ns
    }

    /// Nanoseconds for the shim to move `bytes` across the Wasm VM
    /// boundary in one direction (the "Wasm VM I/O" cost).
    pub fn vm_io_ns(&self, bytes: usize) -> Nanos {
        per_byte(bytes, self.vm_io_bytes_per_ns)
    }

    /// Number of pages needed to hold `bytes`.
    pub fn pages(&self, bytes: usize) -> usize {
        bytes.div_ceil(PAGE_SIZE)
    }

    /// Nanoseconds to move the page references of `bytes` through
    /// `splice`/`vmsplice` (no byte copies).
    pub fn page_map_ns_for(&self, bytes: usize) -> Nanos {
        self.pages(bytes) as Nanos * self.page_map_ns
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper_testbed()
    }
}

fn per_byte(bytes: usize, bytes_per_ns: f64) -> Nanos {
    debug_assert!(bytes_per_ns > 0.0, "throughput must be positive");
    (bytes as f64 / bytes_per_ns).round() as Nanos
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memcpy_is_fastest_cpu_operation() {
        let m = CostModel::paper_testbed();
        let n = 1 << 20;
        assert!(m.memcpy_ns(n) < m.serialize_host_ns(n, 0));
        assert!(m.serialize_host_ns(n, 0) < m.serialize_wasm_ns(n, 0));
        assert!(m.memcpy_ns(n) < m.vm_io_ns(n));
    }

    #[test]
    fn wasm_serialization_is_an_order_of_magnitude_slower() {
        let m = CostModel::paper_testbed();
        let host = m.serialize_host_ns(1 << 20, 0) as f64;
        let wasm = m.serialize_wasm_ns(1 << 20, 0) as f64;
        assert!(wasm / host > 8.0, "ratio {}", wasm / host);
    }

    #[test]
    fn wire_time_matches_bandwidth() {
        // 100 MB at the effective 700 Mbit/s ≈ 1.15 s + framing.
        let t = crate::Testbed::paper().link_between(0, 1).wire_ns(100_000_000);
        assert!(t > 1_100_000_000, "{t}");
        assert!(t < 1_350_000_000, "{t}");
    }

    #[test]
    fn page_map_much_cheaper_than_copy_for_large_buffers() {
        let m = CostModel::paper_testbed();
        let bytes = 10 << 20;
        assert!(m.page_map_ns_for(bytes) < m.memcpy_ns(bytes) / 2);
    }

    #[test]
    fn node_costs_add_up() {
        let m = CostModel::paper_testbed();
        assert_eq!(
            m.serialize_host_ns(0, 10),
            10 * m.serialize_node_ns
        );
    }

    #[test]
    fn pages_rounds_up() {
        let m = CostModel::paper_testbed();
        assert_eq!(m.pages(0), 0);
        assert_eq!(m.pages(1), 1);
        assert_eq!(m.pages(PAGE_SIZE), 1);
        assert_eq!(m.pages(PAGE_SIZE + 1), 2);
    }

    #[test]
    fn default_is_paper_testbed() {
        assert_eq!(CostModel::default(), CostModel::paper_testbed());
    }
}
