//! Virtual-identity golden for the Roadrunner data path.
//!
//! Host-side changes to how payload bytes move (fewer staging buffers,
//! borrowed slices instead of owned ones) must not move a single virtual
//! nanosecond or accounted byte: every charge keeps its amount *and* its
//! order. This pins, for each mode and for payload lengths around every
//! chunking boundary, the edge breakdown and both sandboxes' telemetry of
//! a cold edge (connection set-up, heap growth) and of the warm edge that
//! follows it on the same plane.
//!
//! The rows were captured on the data path as it stood before the
//! copy-exact rework and must stay green through it. If a change is
//! *supposed* to move them (a cost-model recalibration), run the test,
//! paste the table it prints over `GOLDEN`, and say why in the commit.

use std::sync::Arc;

use bytes::Bytes;
use roadrunner::{guest, hose::HOSE_PIPE_CAPACITY, Mode, RoadrunnerPlane, ShimConfig};
use roadrunner_platform::FunctionBundle;
use roadrunner_vkernel::Testbed;
use roadrunner_wasm::encode;

/// `[prepare_ns, transfer_ns, consume_ns,
///   src user_ns, src kernel_ns, src ram_peak,
///   dst user_ns, dst kernel_ns, dst ram_peak]`
type Row = [u64; 9];

const MODES: [Mode; 3] = [Mode::UserSpace, Mode::KernelSpace, Mode::Network];

fn lengths() -> [usize; 6] {
    let io_chunk = Testbed::paper().cost().io_chunk_bytes;
    [0, 1, io_chunk - 1, io_chunk, io_chunk + 1, HOSE_PIPE_CAPACITY + 3]
}

fn bundle(name: &str, module: roadrunner_wasm::Module) -> Arc<FunctionBundle> {
    Arc::new(
        FunctionBundle::wasm(name, encode::encode(&module))
            .with_workflow("golden")
            .with_tenant("t"),
    )
}

fn payload(len: usize) -> Bytes {
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ len as u64;
    Bytes::from(
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect::<Vec<u8>>(),
    )
}

fn row(plane: &RoadrunnerPlane, mode: Mode) -> Row {
    let bd = plane.last_breakdown().expect("edge ran");
    assert_eq!(bd.mode, mode);
    let src = plane.shim_of("a").unwrap().sandbox().account();
    let dst = plane.shim_of("b").unwrap().sandbox().account();
    [
        bd.prepare_ns,
        bd.transfer_ns,
        bd.consume_ns,
        src.user_ns(),
        src.kernel_ns(),
        src.ram_peak(),
        dst.user_ns(),
        dst.kernel_ns(),
        dst.ram_peak(),
    ]
}

/// The cold and the warm edge of one fresh deployment.
fn measure(mode: Mode, len: usize) -> [Row; 2] {
    let bed = Arc::new(Testbed::paper());
    let mut plane =
        RoadrunnerPlane::new(Arc::clone(&bed), ShimConfig::default().with_load_costs(false));
    plane.deploy(0, "a", bundle("a", guest::producer()), "produce", false).unwrap();
    let consumer = bundle("b", guest::consumer());
    match mode {
        Mode::UserSpace => plane.deploy_into_shared_vm("a", "b", consumer, "consume", true),
        Mode::KernelSpace => plane.deploy(0, "b", consumer, "consume", true),
        Mode::Network => plane.deploy(1, "b", consumer, "consume", true),
    }
    .unwrap();
    let data = payload(len);
    [(); 2].map(|()| {
        let received = plane.transfer_edge("a", "b", &data).unwrap();
        assert_eq!(received, data, "{mode} edge of {len} bytes corrupted the payload");
        row(&plane, mode)
    })
}

#[rustfmt::skip]
const GOLDEN: [[Row; 2]; 18] = [
    // user-space, 0 bytes
    [[1087, 82, 17, 1199, 0, 131072, 1199, 0, 131072],
     [1087, 82, 17, 2398, 0, 131072, 2398, 0, 131072]],
    // user-space, 1 bytes
    [[1088, 104, 17, 1242, 0, 131072, 1242, 0, 131072],
     [1088, 104, 17, 2484, 0, 131072, 2484, 0, 131072]],
    // user-space, 65535 bytes
    [[70111, 138110, 43, 208297, 0, 33685504, 208297, 0, 33685504],
     [70071, 138070, 43, 416514, 0, 33685504, 416514, 0, 33685504]],
    // user-space, 65536 bytes
    [[70112, 138112, 43, 208300, 0, 33685504, 208300, 0, 33685504],
     [70072, 138072, 43, 416520, 0, 33685504, 416520, 0, 33685504]],
    // user-space, 65537 bytes
    [[70113, 138114, 43, 208303, 0, 33685504, 208303, 0, 33685504],
     [70073, 138074, 43, 416526, 0, 33685504, 416526, 0, 33685504]],
    // user-space, 1048579 bytes
    [[1104894, 2207676, 43, 3312646, 0, 33685504, 3312646, 0, 33685504],
     [1104854, 2207636, 43, 6625212, 0, 33685504, 6625212, 0, 33685504]],
    // kernel-space, 0 bytes
    [[1087, 4484, 17, 1100, 701, 65536, 99, 3701, 65536],
     [1087, 4484, 17, 2200, 1402, 65536, 198, 7402, 65536]],
    // kernel-space, 1 bytes
    [[1088, 8906, 17, 1122, 1401, 65536, 120, 7401, 65536],
     [1088, 8906, 17, 2244, 2802, 65536, 240, 14802, 65536]],
    // kernel-space, 65535 bytes
    [[70111, 163296, 43, 139128, 9593, 16842752, 69169, 15593, 16842752],
     [70071, 163256, 43, 278216, 19186, 16842752, 138298, 31186, 16842752]],
    // kernel-space, 65536 bytes
    [[70112, 163298, 43, 139130, 9593, 16842752, 69170, 15593, 16842752],
     [70072, 163258, 43, 278220, 19186, 16842752, 138300, 31186, 16842752]],
    // kernel-space, 65537 bytes
    [[70113, 167700, 43, 139132, 10293, 16842752, 69171, 19293, 16842752],
     [70073, 167660, 43, 278224, 20586, 16842752, 138302, 38586, 16842752]],
    // kernel-space, 1048579 bytes
    [[1104894, 2549018, 43, 2208694, 143673, 16842752, 1103948, 197673, 16842752],
     [1104854, 2548978, 43, 4417348, 287346, 16842752, 2207856, 395346, 16842752]],
    // network, 0 bytes
    [[1087, 1506716, 17, 1100, 2101, 65536, 99, 3701, 65536],
     [1087, 505316, 17, 2200, 2802, 65536, 198, 7402, 65536]],
    // network, 1 bytes
    [[1088, 1509698, 17, 1122, 5081, 65536, 120, 6681, 65536],
     [1088, 508298, 17, 2244, 8762, 65536, 240, 13362, 65536]],
    // network, 65535 bytes
    [[70111, 2432889, 43, 139128, 7781, 16842752, 69169, 9381, 16842752],
     [70071, 1431489, 43, 278216, 14162, 16842752, 138298, 18762, 16842752]],
    // network, 65536 bytes
    [[70112, 2432902, 43, 139130, 7781, 16842752, 69170, 9381, 16842752],
     [70072, 1431502, 43, 278220, 14162, 16842752, 138300, 18762, 16842752]],
    // network, 65537 bytes
    [[70113, 2433275, 43, 139132, 7961, 16842752, 69171, 9561, 16842752],
     [70073, 1431875, 43, 278224, 14522, 16842752, 138302, 19122, 16842752]],
    // network, 1048579 bytes
    [[1104894, 16321400, 43, 2208694, 53961, 16842752, 1103952, 55561, 16842752],
     [1104854, 15320000, 43, 4417348, 106522, 16842752, 2207864, 111122, 16842752]],
];

#[test]
fn every_mode_and_length_is_virtually_identical_to_the_pinned_run() {
    let mut actual = Vec::new();
    for mode in MODES {
        for len in lengths() {
            actual.push((mode, len, measure(mode, len)));
        }
    }
    let rows: Vec<[Row; 2]> = actual.iter().map(|(_, _, rows)| *rows).collect();
    if rows[..] != GOLDEN[..] {
        for (mode, len, [cold, warm]) in &actual {
            println!("    // {mode}, {len} bytes\n    [{cold:?},\n     {warm:?}],");
        }
        panic!("virtual outputs moved: the table above is what this tree produces");
    }
}
