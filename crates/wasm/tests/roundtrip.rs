//! Property tests over the binary format: arbitrary generated modules
//! must survive encode → decode bit-exactly, and valid modules must both
//! instantiate and execute identically before and after a round trip.

use proptest::prelude::*;
use roadrunner_wasm::instr::{BlockType, Instr, MemArg};
use roadrunner_wasm::types::{FuncType, ValType, Value};
use roadrunner_wasm::{decode, encode, EngineLimits, Instance, Linker, ModuleBuilder};

fn arb_valtype() -> impl Strategy<Value = ValType> {
    prop_oneof![Just(ValType::I32), Just(ValType::I64)]
}

/// Straight-line i32 instruction streams that are always valid for a
/// `() -> i32` function: they keep exactly one i32 growing on the stack.
fn arb_i32_chain() -> impl Strategy<Value = Vec<Instr>> {
    let step = prop_oneof![
        any::<i32>().prop_map(|v| vec![Instr::I32Const(v), Instr::I32Add]),
        any::<i32>().prop_map(|v| vec![Instr::I32Const(v), Instr::I32Xor]),
        any::<i32>().prop_map(|v| vec![Instr::I32Const(v), Instr::I32Sub]),
        any::<i32>().prop_map(|v| vec![Instr::I32Const(v), Instr::I32ShrU]),
        Just(vec![Instr::I32Eqz]),
        Just(vec![Instr::I32Const(13), Instr::I32Mul]),
        Just(vec![
            Instr::I32Const(5),
            Instr::I32Const(1),
            Instr::Select,
        ]),
        (0u32..4).prop_map(|d| {
            vec![Instr::Block(
                BlockType::Value(ValType::I32),
                vec![Instr::I32Const(d as i32), Instr::Br(0)],
            ), Instr::I32Add]
        }),
    ];
    proptest::collection::vec(step, 0..24).prop_map(|chunks| {
        let mut body = vec![Instr::I32Const(1)];
        for c in chunks {
            body.extend(c);
        }
        body
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_modules_round_trip_bit_exactly(
        body in arb_i32_chain(),
        locals in proptest::collection::vec(arb_valtype(), 0..6),
        mem_pages in 1u32..4,
        data in proptest::collection::vec(any::<u8>(), 0..64),
        global_init in any::<i64>(),
    ) {
        let module = ModuleBuilder::new()
            .memory(mem_pages, Some(mem_pages + 4))
            .global(ValType::I64, true, Value::I64(global_init))
            .func(FuncType::new([], [ValType::I32]), locals, body)
            .export_func("run", 0)
            .export_memory("memory")
            .data(0, data)
            .build()
            .expect("generated module validates");
        let bytes = encode::encode(&module);
        let decoded = decode::decode(&bytes).expect("round trip decodes");
        prop_assert_eq!(&decoded, &module);
        // Encoding the decoded module reproduces the same bytes.
        prop_assert_eq!(encode::encode(&decoded), bytes);
    }

    #[test]
    fn execution_agrees_before_and_after_round_trip(body in arb_i32_chain()) {
        let module = ModuleBuilder::new()
            .func(FuncType::new([], [ValType::I32]), [], body)
            .export_func("run", 0)
            .build()
            .expect("validates");
        let decoded = decode::decode(&encode::encode(&module)).expect("decodes");
        let mut a = Instance::new(
            module,
            &Linker::new(),
            EngineLimits::default(),
            Box::new(()),
        )
        .expect("instantiates");
        let mut b = Instance::new(
            decoded,
            &Linker::new(),
            EngineLimits::default(),
            Box::new(()),
        )
        .expect("instantiates");
        prop_assert_eq!(a.invoke("run", &[]).unwrap(), b.invoke("run", &[]).unwrap());
    }

    #[test]
    fn memarg_immediates_round_trip(
        align in 0u32..4,
        offset in any::<u32>(),
    ) {
        let m = MemArg { align, offset };
        let module = ModuleBuilder::new()
            .memory(1, None)
            .func(
                FuncType::new([], []),
                [],
                // Load from a safe base so validation passes; never run.
                [Instr::I32Const(0), Instr::I32Load8U(m), Instr::Drop],
            )
            .build()
            .expect("validates");
        let decoded = decode::decode(&encode::encode(&module)).unwrap();
        prop_assert_eq!(decoded, module);
    }
}

#[test]
fn deeply_nested_blocks_round_trip() {
    let mut body = vec![];
    for _ in 0..64 {
        body = vec![Instr::Block(BlockType::Empty, body)];
    }
    let module = ModuleBuilder::new()
        .func(FuncType::new([], []), [], body)
        .export_func("deep", 0)
        .build()
        .unwrap();
    let decoded = decode::decode(&encode::encode(&module)).unwrap();
    assert_eq!(decoded, module);
    let mut inst =
        Instance::new(decoded, &Linker::new(), EngineLimits::default(), Box::new(())).unwrap();
    inst.invoke("deep", &[]).unwrap();
}

#[test]
fn every_numeric_opcode_survives_a_round_trip() {
    use Instr::*;
    // One representative body exercising each opcode. Operands in dead
    // code are polymorphic, but *pushed* results keep their concrete
    // types (per spec), so each opcode is bracketed by `unreachable` to
    // reset the stack between type families.
    let ops = vec![
        I32Add, I32Sub, I32Mul, I32And, I32Xor, I32Shl, I32ShrU, I32Eqz, I32Eq, I32LtS,
        I32LtU, I32LeU, I32GeU, I32WrapI64, I64ExtendI32U,
    ];
    let mut body = Vec::with_capacity(ops.len() * 2 + 1);
    for op in ops {
        body.push(Unreachable);
        body.push(op);
    }
    body.push(Unreachable);
    let module = ModuleBuilder::new()
        .memory(1, None)
        .func(FuncType::new([], []), [], body)
        .build()
        .unwrap();
    let decoded = decode::decode(&encode::encode(&module)).unwrap();
    assert_eq!(decoded, module);
}
