//! Guest-module SDK: builders for the Wasm functions used throughout the
//! evaluation.
//!
//! The paper's guests are Rust programs compiled to Wasm against the
//! Table-1 API. This reproduction has no guest compiler, so these
//! builders emit the equivalent modules instruction-by-instruction. Every
//! guest follows the Roadrunner ABI:
//!
//! * a mutable global `$heap` and exports `allocate_memory(len) -> addr`
//!   / `deallocate_memory(addr)` implementing a LIFO bump allocator with
//!   on-demand `memory.grow` — the memory-management half of Table 1;
//! * the import `roadrunner::send_to_host(addr, len)` — the guest half of
//!   the data-management API (`locate_memory_region` is the guest knowing
//!   where its data lives; `read_memory_wasm` is ordinary loads);
//! * handler exports (`produce`, `consume`, …) invoked by the shim with
//!   `(addr, len)` of their input region.

use roadrunner_wasm::types::{FuncType, ValType, Value};
use roadrunner_wasm::{BlockType, Instr, MemArg, Module, ModuleBuilder};

/// Import namespace of the Roadrunner data-access API.
pub const RR_MODULE: &str = "roadrunner";
/// Name of the guest→shim handoff import.
pub const SEND_TO_HOST: &str = "send_to_host";
/// Export name of the guest allocator.
pub const ALLOCATE: &str = "allocate_memory";
/// Export name of the guest deallocator.
pub const DEALLOCATE: &str = "deallocate_memory";

/// Index of the heap-pointer global in SDK modules.
const HEAP_GLOBAL: u32 = 0;
/// First byte the bump allocator may hand out (below it: guest scratch).
const HEAP_BASE: i32 = 4096;
/// Pages grown per step when the heap outgrows memory (16 MiB).
const GROW_STEP_PAGES: i32 = 256;

fn i32t() -> ValType {
    ValType::I32
}

/// Instruction sequence: aligns local 0 (a length) to 8 bytes.
fn align_len_to_8(len_local: u32) -> Vec<Instr> {
    vec![
        Instr::LocalGet(len_local),
        Instr::I32Const(7),
        Instr::I32Add,
        Instr::I32Const(-8),
        Instr::I32And,
        Instr::LocalSet(len_local),
    ]
}

/// Body of `allocate_memory(len: i32) -> i32`.
fn allocate_body() -> Vec<Instr> {
    let mut body = align_len_to_8(0);
    body.extend([
        // old = heap; heap += len
        Instr::GlobalGet(HEAP_GLOBAL),
        Instr::LocalSet(1),
        Instr::GlobalGet(HEAP_GLOBAL),
        Instr::LocalGet(0),
        Instr::I32Add,
        Instr::GlobalSet(HEAP_GLOBAL),
        // Grow until heap fits in memory.
        Instr::Block(
            BlockType::Empty,
            vec![Instr::Loop(
                BlockType::Empty,
                vec![
                    Instr::GlobalGet(HEAP_GLOBAL),
                    Instr::MemorySize,
                    Instr::I32Const(16),
                    Instr::I32Shl,
                    Instr::I32LeU,
                    Instr::BrIf(1),
                    Instr::I32Const(GROW_STEP_PAGES),
                    Instr::MemoryGrow,
                    Instr::I32Const(-1),
                    Instr::I32Eq,
                    Instr::If(BlockType::Empty, vec![Instr::Unreachable], vec![]),
                    Instr::Br(0),
                ],
            )],
        ),
        Instr::LocalGet(1),
    ]);
    body
}

/// Body of `deallocate_memory(addr: i32)` — LIFO reset: releasing an
/// address returns the bump pointer to it (valid for the shim's
/// allocate-consume-free pattern; documented simplification).
fn deallocate_body() -> Vec<Instr> {
    vec![
        Instr::LocalGet(0),
        Instr::GlobalGet(HEAP_GLOBAL),
        Instr::I32LtU,
        Instr::If(
            BlockType::Empty,
            vec![
                Instr::LocalGet(0),
                Instr::I32Const(HEAP_BASE),
                Instr::I32GeU,
                Instr::If(
                    BlockType::Empty,
                    vec![Instr::LocalGet(0), Instr::GlobalSet(HEAP_GLOBAL)],
                    vec![],
                ),
            ],
            vec![],
        ),
    ]
}

/// Starts an SDK module: memory, heap global, allocator exports, and the
/// `send_to_host` import at function index 0.
fn sdk_builder() -> ModuleBuilder {
    ModuleBuilder::new()
        .import_func(RR_MODULE, SEND_TO_HOST, FuncType::new([i32t(), i32t()], []))
        .memory(1, None)
        .global(ValType::I32, true, Value::I32(HEAP_BASE))
}

/// Appends the allocator exports; call after all other `import_func`s.
fn with_allocator(b: ModuleBuilder) -> ModuleBuilder {
    let alloc_idx = b.next_func_index();
    b.func(FuncType::new([i32t()], [i32t()]), [i32t()], allocate_body())
        .export_func(ALLOCATE, alloc_idx)
        .func(FuncType::new([i32t()], []), [], deallocate_body())
        .export_func(DEALLOCATE, alloc_idx + 1)
}

/// Builds the producer guest (function `a` of §6.1): its `produce(addr,
/// len)` handler locates its payload and hands the region to the shim via
/// `send_to_host` — no serialization, no copies.
pub fn producer() -> Module {
    let b = with_allocator(sdk_builder());
    let produce_idx = b.next_func_index();
    b.func(
        FuncType::new([i32t(), i32t()], []),
        [],
        vec![Instr::LocalGet(0), Instr::LocalGet(1), Instr::Call(0)],
    )
    .export_func("produce", produce_idx)
    .export_memory("memory")
    .build()
    .expect("producer module validates")
}

/// Builds the consumer guest (function `b` of §6.1): `consume(addr, len)`
/// reads its input directly from linear memory (first and last words) and
/// returns a small acknowledgement value.
pub fn consumer() -> Module {
    let b = with_allocator(sdk_builder());
    let consume_idx = b.next_func_index();
    b.func(
        FuncType::new([i32t(), i32t()], [i32t()]),
        [],
        vec![
            Instr::LocalGet(1),
            Instr::I32Const(8),
            Instr::I32GeU,
            Instr::If(
                BlockType::Value(ValType::I32),
                vec![
                    Instr::LocalGet(0),
                    Instr::I32Load(MemArg::default()),
                    Instr::LocalGet(0),
                    Instr::LocalGet(1),
                    Instr::I32Add,
                    Instr::I32Const(4),
                    Instr::I32Sub,
                    Instr::I32Load(MemArg::default()),
                    Instr::I32Xor,
                ],
                vec![Instr::LocalGet(1)],
            ),
        ],
    )
    .export_func("consume", consume_idx)
    .export_memory("memory")
    .build()
    .expect("consumer module validates")
}

/// Builds a relay guest used in chains: `relay(addr, len)` immediately
/// re-sends its input region to the shim (receive → forward).
pub fn relay() -> Module {
    let b = with_allocator(sdk_builder());
    let relay_idx = b.next_func_index();
    b.func(
        FuncType::new([i32t(), i32t()], []),
        [],
        vec![Instr::LocalGet(0), Instr::LocalGet(1), Instr::Call(0)],
    )
    .export_func("relay", relay_idx)
    .export_memory("memory")
    .build()
    .expect("relay module validates")
}

/// Builds the "Hello World" guest of Fig. 2a: pure computation, **no**
/// WASI imports — the case where Wasm beats containers on execution time.
pub fn hello_world() -> Module {
    ModuleBuilder::new()
        .memory(1, Some(2))
        .func(
            FuncType::new([], [i32t()]),
            [i32t(), i32t()],
            vec![
                // for i in 0..10_000 { acc = acc.wrapping_add(i*i) }
                Instr::Block(
                    BlockType::Empty,
                    vec![Instr::Loop(
                        BlockType::Empty,
                        vec![
                            Instr::LocalGet(0),
                            Instr::I32Const(10_000),
                            Instr::I32GeU,
                            Instr::BrIf(1),
                            Instr::LocalGet(1),
                            Instr::LocalGet(0),
                            Instr::LocalGet(0),
                            Instr::I32Mul,
                            Instr::I32Add,
                            Instr::LocalSet(1),
                            Instr::LocalGet(0),
                            Instr::I32Const(1),
                            Instr::I32Add,
                            Instr::LocalSet(0),
                            Instr::Br(0),
                        ],
                    )],
                ),
                Instr::LocalGet(1),
            ],
        )
        .export_func("_start", 0)
        .build()
        .expect("hello module validates")
}

/// Chunk size the WASI-socket guests send/receive with (8 KiB — a
/// typical guest-side buffer; every chunk pays a boundary crossing).
pub const WASI_SOCK_CHUNK: i32 = 8192;

/// Builds the WasmEdge-baseline *sender* guest: exports the allocator
/// plus `send_all(fd, addr, len) -> errno`, which frames the payload with
/// an 8-byte length header and pushes it through `sock_send` in
/// [`WASI_SOCK_CHUNK`] chunks — each one a boundary crossing plus a copy
/// out of linear memory, exactly the per-chunk WASI tax the paper
/// measures.
pub fn wasi_sender() -> Module {
    let i32_ = i32t();
    let sock_send_ty = FuncType::new([i32_, i32_, i32_, i32_, i32_], [i32_]);
    // Scratch layout: header at 64 (8 bytes), iovec at 80, result at 96.
    let b = ModuleBuilder::new()
        .import_func(roadrunner_wasi::MODULE, "sock_send", sock_send_ty)
        .memory(1, None)
        .global(ValType::I32, true, Value::I32(HEAP_BASE));
    let alloc_idx = b.next_func_index();
    let b = b
        .func(FuncType::new([i32_], [i32_]), [i32_], allocate_body())
        .export_func(ALLOCATE, alloc_idx)
        .func(FuncType::new([i32_], []), [], deallocate_body())
        .export_func(DEALLOCATE, alloc_idx + 1);
    let send_all_idx = b.next_func_index();
    // Params: fd(0), addr(1), len(2); locals: off(3), chunk(4).
    let body = vec![
        // Header: *(i64*)64 = len; iovec {64, 8}; sock_send.
        Instr::I32Const(64),
        Instr::LocalGet(2),
        Instr::I64ExtendI32U,
        Instr::I64Store(MemArg::default()),
        Instr::I32Const(80),
        Instr::I32Const(64),
        Instr::I32Store(MemArg::default()),
        Instr::I32Const(84),
        Instr::I32Const(8),
        Instr::I32Store(MemArg::default()),
        Instr::LocalGet(0),
        Instr::I32Const(80),
        Instr::I32Const(1),
        Instr::I32Const(0),
        Instr::I32Const(96),
        Instr::Call(0),
        Instr::Drop,
        // Chunk loop.
        Instr::I32Const(0),
        Instr::LocalSet(3),
        Instr::Block(
            BlockType::Empty,
            vec![Instr::Loop(
                BlockType::Empty,
                vec![
                    Instr::LocalGet(3),
                    Instr::LocalGet(2),
                    Instr::I32GeU,
                    Instr::BrIf(1),
                    // chunk = min(len - off, WASI_SOCK_CHUNK)
                    Instr::LocalGet(2),
                    Instr::LocalGet(3),
                    Instr::I32Sub,
                    Instr::I32Const(WASI_SOCK_CHUNK),
                    Instr::LocalGet(2),
                    Instr::LocalGet(3),
                    Instr::I32Sub,
                    Instr::I32Const(WASI_SOCK_CHUNK),
                    Instr::I32LtU,
                    Instr::Select,
                    Instr::LocalSet(4),
                    // iovec { addr + off, chunk }
                    Instr::I32Const(80),
                    Instr::LocalGet(1),
                    Instr::LocalGet(3),
                    Instr::I32Add,
                    Instr::I32Store(MemArg::default()),
                    Instr::I32Const(84),
                    Instr::LocalGet(4),
                    Instr::I32Store(MemArg::default()),
                    Instr::LocalGet(0),
                    Instr::I32Const(80),
                    Instr::I32Const(1),
                    Instr::I32Const(0),
                    Instr::I32Const(96),
                    Instr::Call(0),
                    Instr::Drop,
                    Instr::LocalGet(3),
                    Instr::LocalGet(4),
                    Instr::I32Add,
                    Instr::LocalSet(3),
                    Instr::Br(0),
                ],
            )],
        ),
        Instr::I32Const(0),
    ];
    b.func(FuncType::new([i32_, i32_, i32_], [i32_]), [i32_, i32_], body)
        .export_func("send_all", send_all_idx)
        .export_memory("memory")
        .build()
        .expect("wasi sender validates")
}

/// Builds the WasmEdge-baseline *receiver* guest: exports the allocator,
/// `recv_all(fd) -> addr` (reads the length header, allocates, then
/// drains `sock_recv` into the buffer — a boundary crossing plus a copy
/// into linear memory per segment) and `last_len() -> len`.
pub fn wasi_receiver() -> Module {
    let i32_ = i32t();
    let sock_recv_ty = FuncType::new([i32_, i32_, i32_, i32_, i32_, i32_], [i32_]);
    // Scratch: header at 64, iovec at 80, nread at 96, roflags at 100.
    let b = ModuleBuilder::new()
        .import_func(roadrunner_wasi::MODULE, "sock_recv", sock_recv_ty)
        .memory(1, None)
        .global(ValType::I32, true, Value::I32(HEAP_BASE))
        // LAST_LEN global.
        .global(ValType::I32, true, Value::I32(0));
    let alloc_idx = b.next_func_index();
    let b = b
        .func(FuncType::new([i32_], [i32_]), [i32_], allocate_body())
        .export_func(ALLOCATE, alloc_idx)
        .func(FuncType::new([i32_], []), [], deallocate_body())
        .export_func(DEALLOCATE, alloc_idx + 1);
    let recv_all_idx = b.next_func_index();
    // Params: fd(0); locals: total(1), off(2), got(3), addr(4).
    let body = vec![
        // iovec {64, 8}; sock_recv header.
        Instr::I32Const(80),
        Instr::I32Const(64),
        Instr::I32Store(MemArg::default()),
        Instr::I32Const(84),
        Instr::I32Const(8),
        Instr::I32Store(MemArg::default()),
        Instr::LocalGet(0),
        Instr::I32Const(80),
        Instr::I32Const(1),
        Instr::I32Const(0),
        Instr::I32Const(96),
        Instr::I32Const(100),
        Instr::Call(0),
        Instr::Drop,
        Instr::I32Const(64),
        Instr::I64Load(MemArg::default()),
        Instr::I32WrapI64,
        Instr::LocalSet(1),
        Instr::LocalGet(1),
        Instr::GlobalSet(1),
        // addr = allocate_memory(total)
        Instr::LocalGet(1),
        Instr::Call(1),
        Instr::LocalSet(4),
        Instr::I32Const(0),
        Instr::LocalSet(2),
        Instr::Block(
            BlockType::Empty,
            vec![Instr::Loop(
                BlockType::Empty,
                vec![
                    Instr::LocalGet(2),
                    Instr::LocalGet(1),
                    Instr::I32GeU,
                    Instr::BrIf(1),
                    // iovec { addr + off, total - off }
                    Instr::I32Const(80),
                    Instr::LocalGet(4),
                    Instr::LocalGet(2),
                    Instr::I32Add,
                    Instr::I32Store(MemArg::default()),
                    Instr::I32Const(84),
                    Instr::LocalGet(1),
                    Instr::LocalGet(2),
                    Instr::I32Sub,
                    Instr::I32Store(MemArg::default()),
                    Instr::LocalGet(0),
                    Instr::I32Const(80),
                    Instr::I32Const(1),
                    Instr::I32Const(0),
                    Instr::I32Const(96),
                    Instr::I32Const(100),
                    Instr::Call(0),
                    Instr::Drop,
                    Instr::I32Const(96),
                    Instr::I32Load(MemArg::default()),
                    Instr::LocalSet(3),
                    // A zero-byte read mid-stream means the peer stalled:
                    // fail stop instead of spinning.
                    Instr::LocalGet(3),
                    Instr::I32Eqz,
                    Instr::If(BlockType::Empty, vec![Instr::Unreachable], vec![]),
                    Instr::LocalGet(2),
                    Instr::LocalGet(3),
                    Instr::I32Add,
                    Instr::LocalSet(2),
                    Instr::Br(0),
                ],
            )],
        ),
        Instr::LocalGet(4),
    ];
    let b = b
        .func(FuncType::new([i32_], [i32_]), [i32_, i32_, i32_, i32_], body)
        .export_func("recv_all", recv_all_idx);
    let last_len_idx = b.next_func_index();
    b.func(FuncType::new([], [i32_]), [], vec![Instr::GlobalGet(1)])
        .export_func("last_len", last_len_idx)
        .export_memory("memory")
        .build()
        .expect("wasi receiver validates")
}

/// Parameters of the resize-image guest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResizeSpec {
    /// Input width in pixels (8-bit grayscale).
    pub width: u32,
    /// Input height in pixels.
    pub height: u32,
}

impl ResizeSpec {
    /// Bytes of the input image.
    pub fn input_len(&self) -> u32 {
        self.width * self.height
    }

    /// Bytes of the half-scale output image.
    pub fn output_len(&self) -> u32 {
        (self.width / 2) * (self.height / 2)
    }
}

/// Address of the guest's input buffer in the resize module.
pub const RESIZE_IN_ADDR: u32 = 1024;
/// Path the resize guest opens for its input.
pub const RESIZE_INPUT_PATH: &str = "/in.img";

/// Builds the "Resize Image" guest of Fig. 2a: WASI-dependent. Opens
/// `/in.img`, reads `width × height` grayscale bytes, performs 2×
/// nearest-neighbour downscaling pixel-by-pixel, and writes the result to
/// stdout — file I/O, boundary crossings and real per-pixel work.
pub fn resize_image(spec: ResizeSpec) -> Module {
    assert!(spec.width >= 2 && spec.height >= 2, "image must be at least 2x2");
    let i32_ = i32t();
    let i64_ = ValType::I64;
    let w = spec.width as i32;
    let h = spec.height as i32;
    let in_addr = RESIZE_IN_ADDR as i32;
    let out_addr = in_addr + w * h;
    // Scratch layout below 1024: path at 0, fd cell at 256, iovecs at
    // 260/268, counters at 280/284.
    let fd_cell = 256;
    let iov1 = 260;
    let iov2 = 268;
    let nread = 280;
    let nwritten = 284;
    let total = out_addr as u32 + spec.output_len();
    let pages = total.div_ceil(65536) + 1;

    let path_open_ty = FuncType::new(
        [i32_, i32_, i32_, i32_, i32_, i64_, i64_, i32_, i32_],
        [i32_],
    );
    let rw_ty = FuncType::new([i32_, i32_, i32_, i32_], [i32_]);

    // Locals: 0 = x, 1 = y, 2 = fd.
    let mut body = vec![
        // path_open(3, 0, path=0, len, 0, 0, 0, 0, fd_cell)
        Instr::I32Const(3),
        Instr::I32Const(0),
        Instr::I32Const(0),
        Instr::I32Const(RESIZE_INPUT_PATH.len() as i32),
        Instr::I32Const(0),
        Instr::I64Const(0),
        Instr::I64Const(0),
        Instr::I32Const(0),
        Instr::I32Const(fd_cell),
        Instr::Call(0),
        Instr::Drop,
        Instr::I32Const(fd_cell),
        Instr::I32Load(MemArg::default()),
        Instr::LocalSet(2),
        // iovec { in_addr, w*h } at iov1; fd_read(fd, iov1, 1, nread)
        Instr::I32Const(iov1),
        Instr::I32Const(in_addr),
        Instr::I32Store(MemArg::default()),
        Instr::I32Const(iov1 + 4),
        Instr::I32Const(w * h),
        Instr::I32Store(MemArg::default()),
        Instr::LocalGet(2),
        Instr::I32Const(iov1),
        Instr::I32Const(1),
        Instr::I32Const(nread),
        Instr::Call(1),
        Instr::Drop,
    ];
    // Nested y/x loops: out[y*(w/2)+x] = in[(2y)*w + 2x].
    body.push(Instr::I32Const(0));
    body.push(Instr::LocalSet(1));
    body.push(Instr::Block(
        BlockType::Empty,
        vec![Instr::Loop(
            BlockType::Empty,
            vec![
                Instr::LocalGet(1),
                Instr::I32Const(h / 2),
                Instr::I32GeU,
                Instr::BrIf(1),
                Instr::I32Const(0),
                Instr::LocalSet(0),
                Instr::Block(
                    BlockType::Empty,
                    vec![Instr::Loop(
                        BlockType::Empty,
                        vec![
                            Instr::LocalGet(0),
                            Instr::I32Const(w / 2),
                            Instr::I32GeU,
                            Instr::BrIf(1),
                            // dst = out_addr + y*(w/2) + x
                            Instr::LocalGet(1),
                            Instr::I32Const(w / 2),
                            Instr::I32Mul,
                            Instr::LocalGet(0),
                            Instr::I32Add,
                            Instr::I32Const(out_addr),
                            Instr::I32Add,
                            // src value = load8(in_addr + 2y*w + 2x)
                            Instr::LocalGet(1),
                            Instr::I32Const(2 * w),
                            Instr::I32Mul,
                            Instr::LocalGet(0),
                            Instr::I32Const(1),
                            Instr::I32Shl,
                            Instr::I32Add,
                            Instr::I32Const(in_addr),
                            Instr::I32Add,
                            Instr::I32Load8U(MemArg::default()),
                            Instr::I32Store8(MemArg::default()),
                            Instr::LocalGet(0),
                            Instr::I32Const(1),
                            Instr::I32Add,
                            Instr::LocalSet(0),
                            Instr::Br(0),
                        ],
                    )],
                ),
                Instr::LocalGet(1),
                Instr::I32Const(1),
                Instr::I32Add,
                Instr::LocalSet(1),
                Instr::Br(0),
            ],
        )],
    ));
    // iovec { out_addr, out_len } at iov2; fd_write(1, iov2, 1, nwritten)
    body.extend([
        Instr::I32Const(iov2),
        Instr::I32Const(out_addr),
        Instr::I32Store(MemArg::default()),
        Instr::I32Const(iov2 + 4),
        Instr::I32Const(spec.output_len() as i32),
        Instr::I32Store(MemArg::default()),
        Instr::I32Const(1),
        Instr::I32Const(iov2),
        Instr::I32Const(1),
        Instr::I32Const(nwritten),
        Instr::Call(2),
    ]);

    ModuleBuilder::new()
        .import_func(roadrunner_wasi::MODULE, "path_open", path_open_ty)
        .import_func(roadrunner_wasi::MODULE, "fd_read", rw_ty.clone())
        .import_func(roadrunner_wasi::MODULE, "fd_write", rw_ty)
        .memory(pages, None)
        .data(0, RESIZE_INPUT_PATH.as_bytes().to_vec())
        .func(FuncType::new([], [i32_]), [i32_, i32_, i32_], body)
        .export_func("_start", 3)
        .export_memory("memory")
        .build()
        .expect("resize module validates")
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadrunner_wasm::{decode, encode, EngineLimits, Instance, Linker, Trap};

    fn bare_rr_linker() -> Linker {
        let mut linker = Linker::new();
        linker.define(
            RR_MODULE,
            SEND_TO_HOST,
            FuncType::new([ValType::I32, ValType::I32], []),
            |mut caller, args| {
                let pair =
                    (args[0].as_i32().unwrap() as u32, args[1].as_i32().unwrap() as u32);
                *caller.data::<Option<(u32, u32)>>()? = Some(pair);
                Ok(vec![])
            },
        );
        linker
    }

    fn instantiate(module: Module) -> Instance {
        Instance::new(
            module,
            &bare_rr_linker(),
            EngineLimits::default(),
            Box::new(None::<(u32, u32)>),
        )
        .unwrap()
    }

    #[test]
    fn sdk_modules_encode_and_decode() {
        for module in [producer(), consumer(), relay(), hello_world()] {
            let bytes = encode::encode(&module);
            assert_eq!(decode::decode(&bytes).unwrap(), module);
        }
    }

    #[test]
    fn allocator_returns_aligned_disjoint_regions() {
        let mut inst = instantiate(producer());
        let a = inst.invoke(ALLOCATE, &[Value::I32(100)]).unwrap()[0].as_i32().unwrap();
        let b = inst.invoke(ALLOCATE, &[Value::I32(50)]).unwrap()[0].as_i32().unwrap();
        assert_eq!(a % 8, 0);
        assert_eq!(b % 8, 0);
        assert!(b >= a + 100, "allocations must not overlap");
        assert_eq!(a, HEAP_BASE);
    }

    #[test]
    fn allocator_grows_memory_on_demand() {
        let mut inst = instantiate(producer());
        let before = inst.memory().unwrap().size_pages();
        let addr = inst
            .invoke(ALLOCATE, &[Value::I32(20 << 20)])
            .unwrap()[0]
            .as_i32()
            .unwrap();
        assert!(addr > 0);
        assert!(inst.memory().unwrap().size_pages() > before);
        // The whole region is writable.
        inst.memory_mut().unwrap().write(addr as u32 + (20 << 20) - 1, &[1]).unwrap();
    }

    #[test]
    fn deallocate_is_lifo() {
        let mut inst = instantiate(producer());
        let a = inst.invoke(ALLOCATE, &[Value::I32(64)]).unwrap()[0].as_i32().unwrap();
        inst.invoke(DEALLOCATE, &[Value::I32(a)]).unwrap();
        let b = inst.invoke(ALLOCATE, &[Value::I32(64)]).unwrap()[0].as_i32().unwrap();
        assert_eq!(a, b, "freed space is reused");
    }

    #[test]
    fn deallocate_below_heap_base_is_ignored() {
        let mut inst = instantiate(producer());
        inst.invoke(DEALLOCATE, &[Value::I32(8)]).unwrap();
        let a = inst.invoke(ALLOCATE, &[Value::I32(8)]).unwrap()[0].as_i32().unwrap();
        assert_eq!(a, HEAP_BASE, "heap pointer must not drop below base");
    }

    #[test]
    fn producer_hands_region_to_host() {
        let mut inst = instantiate(producer());
        inst.invoke("produce", &[Value::I32(4096), Value::I32(512)]).unwrap();
        assert_eq!(*inst.data::<Option<(u32, u32)>>().unwrap(), Some((4096, 512)));
    }

    #[test]
    fn consumer_acknowledges_from_memory() {
        let mut inst = instantiate(consumer());
        let mem = inst.memory_mut().unwrap();
        mem.write(4096, &0xAABBCCDDu32.to_le_bytes()).unwrap();
        mem.write(4096 + 60, &0x00000001u32.to_le_bytes()).unwrap();
        let out = inst.invoke("consume", &[Value::I32(4096), Value::I32(64)]).unwrap();
        assert_eq!(out[0].as_i32().unwrap() as u32, 0xAABBCCDD ^ 0x1);
        // Short inputs return their length.
        let out = inst.invoke("consume", &[Value::I32(0), Value::I32(3)]).unwrap();
        assert_eq!(out[0], Value::I32(3));
    }

    #[test]
    fn consumer_traps_on_wild_pointer() {
        let mut inst = instantiate(consumer());
        let err = inst
            .invoke("consume", &[Value::I32(i32::MAX), Value::I32(100)])
            .unwrap_err();
        assert!(matches!(err, Trap::MemoryOutOfBounds { .. }));
    }

    #[test]
    fn hello_world_computes_without_wasi() {
        let module = hello_world();
        assert!(module.imports.is_empty(), "hello world must not import WASI");
        let mut inst = Instance::new(
            module,
            &Linker::new(),
            EngineLimits::default(),
            Box::new(()),
        )
        .unwrap();
        let out = inst.invoke("_start", &[]).unwrap();
        // sum of i*i for i in 0..10_000 (mod 2^32).
        let expected: i32 = (0..10_000i64).map(|i| i * i).sum::<i64>() as u32 as i32;
        assert_eq!(out[0].as_i32().unwrap(), expected);
    }

    #[test]
    fn resize_module_downscales() {
        use roadrunner_vkernel::node::Sandbox;
        use roadrunner_vkernel::{CostModel, VirtualClock};
        use roadrunner_wasi::WasiCtx;
        use std::sync::Arc;

        let spec = ResizeSpec { width: 8, height: 4 };
        let module = resize_image(spec);
        let mut linker = Linker::new();
        roadrunner_wasi::register::<WasiCtx>(&mut linker);
        let sandbox = Sandbox::detached(
            "resize",
            VirtualClock::new(),
            Arc::new(CostModel::paper_testbed()),
        );
        let mut ctx = WasiCtx::new(sandbox);
        // 8x4 gradient image.
        let img: Vec<u8> = (0..32u32).map(|i| i as u8).collect();
        ctx.put_file(RESIZE_INPUT_PATH, img);
        let mut inst =
            Instance::new(module, &linker, EngineLimits::default(), Box::new(ctx)).unwrap();
        inst.invoke("_start", &[]).unwrap();
        let ctx = inst.data::<WasiCtx>().unwrap();
        // Output is 4x2: rows 0 and 2, every other column.
        assert_eq!(ctx.stdout, vec![0, 2, 4, 6, 16, 18, 20, 22]);
        assert!(ctx.call_count >= 3, "path_open + fd_read + fd_write");
    }

    #[test]
    fn wasi_sender_and_receiver_stream_over_a_socket_pair() {
        use roadrunner_vkernel::node::Sandbox;
        use roadrunner_vkernel::unix::UnixConn;
        use roadrunner_vkernel::{CostModel, VirtualClock};
        use roadrunner_wasi::sock::EndpointSocket;
        use roadrunner_wasi::WasiCtx;
        use std::sync::Arc;

        let clock = VirtualClock::new();
        let cost = Arc::new(CostModel::paper_testbed());
        let mut wasi_linker = Linker::new();
        roadrunner_wasi::register::<WasiCtx>(&mut wasi_linker);
        let (ea, eb) = UnixConn::pair();

        // Sender instance.
        let sa = Sandbox::detached("tx", clock.clone(), Arc::clone(&cost));
        let mut ctx_a = WasiCtx::new(sa.clone());
        let fd_a = ctx_a.add_socket(Box::new(EndpointSocket::new(ea)));
        let mut tx = Instance::new(
            wasi_sender(),
            &wasi_linker,
            EngineLimits::default(),
            Box::new(ctx_a),
        )
        .unwrap();

        // Receiver instance.
        let sb = Sandbox::detached("rx", clock, cost);
        let mut ctx_b = WasiCtx::new(sb.clone());
        let fd_b = ctx_b.add_socket(Box::new(EndpointSocket::new(eb)));
        let mut rx = Instance::new(
            wasi_receiver(),
            &wasi_linker,
            EngineLimits::default(),
            Box::new(ctx_b),
        )
        .unwrap();

        // Place a payload into the sender's memory and stream it.
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let addr = tx.invoke(ALLOCATE, &[Value::I32(payload.len() as i32)]).unwrap()[0]
            .as_i32()
            .unwrap();
        tx.memory_mut().unwrap().write(addr as u32, &payload).unwrap();
        let errno = tx
            .invoke(
                "send_all",
                &[
                    Value::I32(fd_a as i32),
                    Value::I32(addr),
                    Value::I32(payload.len() as i32),
                ],
            )
            .unwrap();
        assert_eq!(errno, vec![Value::I32(0)]);

        let out_addr = rx.invoke("recv_all", &[Value::I32(fd_b as i32)]).unwrap()[0]
            .as_i32()
            .unwrap();
        let out_len = rx.invoke("last_len", &[]).unwrap()[0].as_i32().unwrap();
        assert_eq!(out_len as usize, payload.len());
        let got = rx
            .memory()
            .unwrap()
            .read(out_addr as u32, out_len as u32)
            .unwrap()
            .to_vec();
        assert_eq!(got, payload);
        // Many chunked crossings happened on both sides.
        assert!(tx.data::<WasiCtx>().unwrap().call_count > 10);
        assert!(rx.data::<WasiCtx>().unwrap().call_count > 1);
        assert!(sa.account().kernel_ns() > 0);
        assert!(sb.account().kernel_ns() > 0);
    }

    #[test]
    fn the_wasi_host_defines_exactly_the_calls_the_guests_import() {
        use roadrunner_wasi::{WasiCtx, MODULE};
        use std::collections::BTreeSet;

        let mut linker = Linker::new();
        roadrunner_wasi::register::<WasiCtx>(&mut linker);
        let guests = [
            producer(),
            consumer(),
            relay(),
            hello_world(),
            wasi_sender(),
            wasi_receiver(),
            resize_image(ResizeSpec { width: 8, height: 4 }),
        ];
        let mut imported = BTreeSet::new();
        for module in &guests {
            for import in module.imports.iter().filter(|i| i.module == MODULE) {
                let Some((ty, _)) = linker.resolve(MODULE, &import.name) else {
                    panic!("{} is imported but not defined", import.name);
                };
                assert_eq!(ty, &module.types[import.type_idx as usize], "{}", import.name);
                imported.insert(import.name.as_str());
            }
        }
        assert_eq!(linker.len(), imported.len(), "defined beyond the imports {imported:?}");
    }

    #[test]
    fn the_engine_decodes_exactly_the_instructions_the_guests_emit() {
        use std::collections::BTreeSet;

        /// An instruction's variant name, immediates and body dropped.
        fn kind(instr: &Instr) -> String {
            let debug = format!("{instr:?}");
            debug.split(|c: char| !c.is_alphanumeric()).next().unwrap_or_default().to_owned()
        }
        fn walk(body: &[Instr], kinds: &mut BTreeSet<String>) {
            for instr in body {
                kinds.insert(kind(instr));
                match instr {
                    Instr::Block(_, inner) | Instr::Loop(_, inner) => walk(inner, kinds),
                    Instr::If(_, then, els) => {
                        walk(then, kinds);
                        walk(els, kinds);
                    }
                    _ => {}
                }
            }
        }
        let guests = [
            producer(),
            consumer(),
            relay(),
            hello_world(),
            wasi_sender(),
            wasi_receiver(),
            resize_image(ResizeSpec { width: 8, height: 4 }),
        ];
        let mut emitted = BTreeSet::new();
        for func in guests.iter().flat_map(|module| &module.funcs) {
            walk(&func.body, &mut emitted);
        }
        // `bench_wasm`'s kernels time the engine on three instructions no
        // guest emits: `calls`' `n < 2`, `compute`'s xorshift right
        // shift and `memory`'s address `local.tee`.
        emitted.extend(["I32LtS", "I32ShrU", "LocalTee"].map(String::from));

        // What the decoder builds from each first byte (and each `0xFC`
        // sub-opcode) followed by zero immediates, or by an empty block
        // type and `end` for the structured instructions, in the one
        // function body of a `[] -> []` module.
        let decoded = |body: &[u8]| {
            let mut bytes = roadrunner_wasm::encode::PREAMBLE.to_vec();
            let code_len = body.len() as u8 + 3;
            bytes.extend([1, 4, 1, 0x60, 0, 0, 3, 2, 1, 0, 10, code_len, 1, code_len - 2, 0]);
            bytes.extend_from_slice(body);
            decode::decode(&bytes).ok().map(|module| kind(&module.funcs[0].body[0]))
        };
        let plain = (0x00..=0xFF_u8)
            .map(|op| decoded(&[op, 0, 0, 0, 0x0B]).or_else(|| decoded(&[op, 0x40, 0x0B, 0x0B])));
        let prefixed = (0x00..=0x7F_u8).map(|sub| decoded(&[0xFC, sub, 0, 0, 0, 0x0B]));
        let engine: BTreeSet<String> = plain.chain(prefixed).flatten().collect();
        let unused: Vec<_> = engine.difference(&emitted).collect();
        let missing: Vec<_> = emitted.difference(&engine).collect();
        assert!(unused.is_empty(), "the engine decodes what no module emits: {unused:?}");
        assert!(missing.is_empty(), "a module emits what the engine refuses: {missing:?}");
        assert_eq!(engine.len(), 39);
    }

    #[test]
    fn resize_spec_sizes() {
        let spec = ResizeSpec { width: 640, height: 480 };
        assert_eq!(spec.input_len(), 307_200);
        assert_eq!(spec.output_len(), 76_800);
    }
}
