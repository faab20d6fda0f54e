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
    #[inline]
    pub fn memcpy_ns(&self, bytes: usize) -> Nanos {
        per_byte(bytes, self.memcpy_bytes_per_ns)
    }

    /// Nanoseconds to allocate (and zero) a buffer of `bytes`.
    #[inline]
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
    #[inline]
    pub fn vm_io_ns(&self, bytes: usize) -> Nanos {
        per_byte(bytes, self.vm_io_bytes_per_ns)
    }

    /// Number of pages needed to hold `bytes`.
    #[inline]
    pub fn pages(&self, bytes: usize) -> usize {
        bytes.div_ceil(PAGE_SIZE)
    }

    /// Nanoseconds to move the page references of `bytes` through
    /// `splice`/`vmsplice` (no byte copies).
    #[inline]
    pub fn page_map_ns_for(&self, bytes: usize) -> Nanos {
        self.pages(bytes) as Nanos * self.page_map_ns
    }

    /// User CPU time of `instructions` interpreted Wasm instructions.
    #[inline]
    pub fn wasm_instr_ns_for(&self, instructions: u64) -> Nanos {
        round_ns(instructions as f64 * self.wasm_instr_ns)
    }

    /// Wasm cold start of a `binary_bytes` module: decode and instantiate
    /// at [`wasm_load_bytes_per_ns`](Self::wasm_load_bytes_per_ns), plus
    /// the VM bring-up.
    pub fn wasm_load_ns(&self, binary_bytes: usize) -> Nanos {
        per_byte(binary_bytes, self.wasm_load_bytes_per_ns) + self.wasm_init_ns
    }

    /// Container cold start from an `image_bytes` image: unpack at
    /// [`image_unpack_bytes_per_ns`](Self::image_unpack_bytes_per_ns),
    /// plus the runtime initialization.
    pub fn container_load_ns(&self, image_bytes: usize) -> Nanos {
        per_byte(image_bytes, self.image_unpack_bytes_per_ns) + self.container_init_ns
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper_testbed()
    }
}

#[inline]
fn per_byte(bytes: usize, bytes_per_ns: f64) -> Nanos {
    debug_assert!(bytes_per_ns > 0.0, "throughput must be positive");
    round_ns(bytes as f64 / bytes_per_ns)
}

/// `x` rounded half away from zero to whole nanoseconds, saturating as an
/// `as` cast does: negatives and NaN give 0, values from 2⁶⁴ up (and +∞)
/// give `Nanos::MAX`. Equal to `f64::round` followed by `as Nanos` for
/// every `f64`, without the library call the baseline x86-64 target makes
/// for `f64::round` (it has no rounding instruction): below 2⁶³ a signed
/// cast truncates, and a remainder of one half or more adds one. Both
/// steps are exact — the truncation of an `f64` is an `f64`, and so is
/// what it leaves — and each signed conversion is one instruction. From
/// 2⁶³ up every `f64` is a whole number, so the cast alone rounds. Every
/// model charge computed in floating point goes through here.
#[inline]
pub fn round_ns(x: f64) -> Nanos {
    const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;
    if (0.0..TWO_POW_63).contains(&x) {
        let whole = x as i64;
        (whole + i64::from(x - whole as f64 >= 0.5)) as Nanos
    } else {
        x as Nanos
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

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

    /// The library's rounding, cast as every charge used to cast it.
    fn library(x: f64) -> Nanos {
        x.round() as Nanos
    }

    #[test]
    fn round_ns_matches_the_library_on_the_edge_cases() {
        let two52 = (1u64 << 52) as f64;
        let two53 = (1u64 << 53) as f64;
        // Halves round away from zero, after odd and even k alike.
        let cases = [
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            3.5,
            1_000.5,
            4_095.5,
            0.49999999999999994,
            two52 - 0.5,
            two52 + 1.0,
            two53 + 1.0,
            two53 + 2.0,
            9_223_372_036_854_774_784.0,  // the last f64 below 2⁶³
            9_223_372_036_854_775_808.0,  // 2⁶³
            18_446_744_073_709_551_616.0, // 2⁶⁴
            36_893_488_147_419_103_232.0, // 2⁶⁵
            -0.5,
            -1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            f64::MAX,
        ];
        for x in cases {
            assert_eq!(round_ns(x), library(x), "{x:e}");
        }
        assert_eq!(round_ns(f64::INFINITY), Nanos::MAX);
        assert_eq!(round_ns(f64::NAN), 0);
    }

    #[test]
    fn the_named_charges_are_their_formulas() {
        let m = CostModel::paper_testbed();
        assert_eq!(m.wasm_instr_ns_for(3), 10); // 9.9 ns
        assert_eq!(m.wasm_load_ns(1_000), 20_000 + m.wasm_init_ns);
        assert_eq!(m.container_load_ns(1_000), 5_000 + m.container_init_ns);
    }

    proptest! {
        /// Uniform over [−1, 2⁶⁵), then the small charges most calls make,
        /// then halves, then any bit pattern at all.
        #[test]
        fn round_ns_is_the_library_rounding(
            x in prop_oneof![
                -1.0f64..36_893_488_147_419_103_232.0,
                -1.0f64..1e6,
                (0u64..1 << 53).prop_map(|k| k as f64 + 0.5),
                any::<u64>().prop_map(f64::from_bits),
            ]
        ) {
            prop_assert_eq!(round_ns(x), library(x));
        }
    }
}
