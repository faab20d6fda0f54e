//! Never-panics properties for the front of the pipeline.
//!
//! Whatever bytes arrive — noise, or a real module with bytes flipped,
//! cut off or spliced — every stage they reach (`decode` → `validate` →
//! `Instance::new`, which runs the start function → `invoke`, whose first
//! call lowers the module) must answer with a value, an `Err` or a
//! [`Trap`]; none may panic, overflow the stack or run away. A lowered
//! module also passes through [`crate::compile`]'s debug self-check, so
//! every mutant that still validates tests the compile tier's static
//! facts too.

use proptest::collection::vec;

use super::*;
use crate::decode::decode;
use crate::decode::tests::module_with_func;
use crate::encode::{encode, PREAMBLE};
use crate::module::ExportKind;
use crate::opcode::tests::is_tabled;
use crate::validate::validate;

/// How far down the pipeline some bytes got before a stage refused them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reached {
    Nothing,
    Decoded,
    Validated,
    Instantiated,
    /// Every exported function was invoked (returning or trapping).
    Invoked,
}

/// Pushes `bytes` through every stage that will take them. The budgets
/// are small so that whatever a mutant asks for — pages, recursion,
/// an endless loop — is refused quickly rather than served.
fn drive(bytes: &[u8]) -> Reached {
    let Ok(module) = decode(bytes) else {
        return Reached::Nothing;
    };
    if validate(&module).is_err() {
        return Reached::Decoded;
    }
    let limits = EngineLimits::default()
        .with_max_memory_pages(4)
        .with_max_call_depth(16)
        .with_fuel(2_000);
    let Ok(mut inst) =
        Instance::new(module.clone(), &acc_linker(), limits, Box::new(Vec::<i32>::new()))
    else {
        return Reached::Validated;
    };
    let mut reached = Reached::Instantiated;
    for export in &module.exports {
        let ExportKind::Func(idx) = export.kind else { continue };
        let ty = module.func_type(idx).expect("validated export");
        let args: Vec<Value> = ty.params().iter().map(|&t| Value::zero(t)).collect();
        inst.set_fuel(2_000);
        // Result or trap, either is an answer.
        let _ = inst.invoke(&export.name, &args);
        reached = Reached::Invoked;
    }
    reached
}

/// One edit to a byte string; positions wrap around its current length.
#[derive(Debug, Clone)]
enum Mutation {
    /// XOR one byte with a nonzero mask.
    Flip { at: usize, mask: u8 },
    /// Cut the input off.
    Truncate { at: usize },
    /// Copy `len` bytes from `from` to `to`: inserted (shifting every
    /// size field out of true) or overwriting (framing stays intact, so
    /// the damage lands past the section parsers).
    Splice { from: usize, len: usize, to: usize, insert: bool },
}

impl Mutation {
    fn apply(&self, bytes: &mut Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        let n = bytes.len();
        match *self {
            Mutation::Flip { at, mask } => bytes[at % n] ^= mask,
            Mutation::Truncate { at } => bytes.truncate(at % n),
            Mutation::Splice { from, len, to, insert } => {
                let from = from % n;
                let chunk = bytes[from..(from + len).min(n)].to_vec();
                let to = to % n;
                let end = if insert { to } else { (to + chunk.len()).min(n) };
                bytes.splice(to..end, chunk);
            }
        }
    }
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        4 => (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| Mutation::Flip { at, mask }),
        1 => any::<usize>().prop_map(|at| Mutation::Truncate { at }),
        3 => (any::<usize>(), 1usize..24, any::<usize>(), any::<bool>())
            .prop_map(|(from, len, to, insert)| Mutation::Splice { from, len, to, insert }),
    ]
}

/// Noise in three wrappings, each reaching a deeper parser: bare, behind
/// the preamble (section framing), and as the body of the one exported
/// function of an otherwise well-formed module (the instruction decoder
/// and, when the noise happens to parse, everything after it). Bytes
/// lean toward the opcodes the decoder takes, so bodies parse often
/// enough to matter.
fn arb_noise() -> impl Strategy<Value = Vec<u8>> {
    let opcodes: Vec<u8> = (0x00..=0xFF).filter(|&op| is_tabled(op)).collect();
    let byte = prop_oneof![
        2 => any::<u8>(),
        5 => (0..opcodes.len()).prop_map(move |i| opcodes[i]),
    ];
    (0u8..3, vec(byte, 0..64)).prop_map(|(shape, noise)| match shape {
        0 => noise,
        1 => [&PREAMBLE[..], &noise].concat(),
        // No locals, the noise, `end`.
        _ => module_with_func(&[0], &[&noise[..], &[0x0B]].concat()),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in arb_noise()) {
        drive(&bytes);
    }

    #[test]
    fn mutated_modules_never_panic(
        body in arb_body(),
        mutations in vec(arb_mutation(), 1..4),
    ) {
        let pristine = encode(&build_module(body));
        // The pristine module goes all the way, so every mutant starts
        // from something each stage accepts.
        prop_assert_eq!(drive(&pristine), Reached::Invoked);
        // Each edit alone (most single edits already stop at `decode`),
        // then all of them together.
        let mut all = pristine.clone();
        for m in &mutations {
            let mut one = pristine.clone();
            m.apply(&mut one);
            drive(&one);
            m.apply(&mut all);
        }
        drive(&all);
    }
}
