//! A warm call allocates nothing: the operand stack and frame arena keep
//! their size between invocations, and the results are lent from a buffer
//! the instance keeps. Counted with a test-only global allocator whose
//! count is per thread, so nothing the test harness does elsewhere lands
//! in it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use roadrunner_wasm::instr::Instr;
use roadrunner_wasm::types::{FuncType, ValType, Value};
use roadrunner_wasm::{EngineLimits, Instance, Linker, ModuleBuilder};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every request is forwarded unchanged to `System`; the only
// addition is a bump of a const-initialised, destructor-free
// thread-local, which neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // the caller's, passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_warm_call_of_a_one_result_export_allocates_nothing() {
    const CALLS: i32 = 1_000;
    // `twice(x) = add(x, x)`: an export with one result that makes a
    // wasm→wasm call, so a frame is pushed and popped as well.
    let module = ModuleBuilder::new()
        .func(
            FuncType::new([ValType::I32, ValType::I32], [ValType::I32]),
            [],
            [Instr::LocalGet(0), Instr::LocalGet(1), Instr::I32Add],
        )
        .func(
            FuncType::new([ValType::I32], [ValType::I32]),
            [],
            [Instr::LocalGet(0), Instr::LocalGet(0), Instr::Call(0)],
        )
        .export_func("twice", 1)
        .build()
        .unwrap();
    let mut inst =
        Instance::new(module, &Linker::new(), EngineLimits::default(), Box::new(())).unwrap();
    let twice = inst.exported_func("twice").unwrap();
    // Warm-up: the stack, the frame arena and the result buffer grow to
    // their steady size.
    assert_eq!(inst.call_index(twice, &[Value::I32(1)]).unwrap(), [Value::I32(2)]);

    let before = ALLOCATIONS.with(Cell::get);
    for x in 0..CALLS {
        assert_eq!(inst.call_index(twice, &[Value::I32(x)]).unwrap(), [Value::I32(2 * x)]);
        assert_eq!(inst.invoke("twice", &[Value::I32(x)]).unwrap(), [Value::I32(2 * x)]);
    }
    assert_eq!(ALLOCATIONS.with(Cell::get) - before, 0);
}
