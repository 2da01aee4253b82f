//! Form ≡ explicit: a warp memory op handed an affine or two-level lane
//! form behaves exactly like the same op handed the form's lanes as
//! explicit addresses.
//!
//! The memory models price a form in closed form and expand it only for
//! data movement, the per-lane fault path, fault injection and tracing;
//! an explicit access takes the lane engine. Seeded draws cover every
//! `WarpCtx` memory op, affine forms (zero, negative and wrapping steps),
//! two-level forms (every period, zero and nonzero strides) and explicit
//! lanes, under full, gapped and empty masks and a partial last warp. Each
//! draw runs both ways, with the sanitizer off and under
//! `SanitizerMode::Full`, some with one lane's address injected out of
//! range, and must give the same loaded values, device memory, shared
//! memory, `KernelStats` and trace bytes — or the same device fault (kind,
//! warp and lane).

use std::sync::{Arc, Mutex};

use kconv_sim::pricing::{TwoLevel, WarpAccess, TWO_LEVEL_PERIODS};
use kconv_sim::{
    lane_addrs, BlockCtx, EncoderState, EventEncoder, FaultInjection, GmBuf, Gpu, GpuSpec,
    KernelStats, LaneMask, LaunchConfig, SanitizerMode, SimError, SimMode, TraceEvent, TraceLaunch,
    TraceSink, WarpAddrs, WarpCtx, WARP_SIZE,
};

/// Shared memory per block, in bytes.
const SMEM: u64 = 4096;
/// Global-memory data buffer, in bytes.
const GMEM: u64 = 16 * 1024;
/// Constant memory written, in bytes.
const CMEM: u64 = 4096;
/// Warp memory ops warp 0 runs before the op under test: the shared
/// memory fill.
const INIT_OPS: u64 = SMEM / (4 * WARP_SIZE as u64);

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// The op under test.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    LdGlobal(usize),
    StGlobal(usize),
    LdGlobalRo(usize),
    LdGlobalBytes(usize),
    StGlobalBytes(usize),
    LdShared(usize),
    StShared(usize),
    LdSharedBytes(usize),
    StSharedBytes(usize),
    LdConst,
}

impl Op {
    const ALL: [Op; 24] = [
        Op::LdGlobal(1),
        Op::LdGlobal(2),
        Op::LdGlobal(4),
        Op::StGlobal(1),
        Op::StGlobal(2),
        Op::StGlobal(4),
        Op::LdGlobalRo(1),
        Op::LdGlobalRo(2),
        Op::LdGlobalRo(4),
        Op::LdGlobalBytes(1),
        Op::LdGlobalBytes(2),
        Op::StGlobalBytes(1),
        Op::StGlobalBytes(2),
        Op::LdShared(1),
        Op::LdShared(2),
        Op::LdShared(4),
        Op::StShared(1),
        Op::StShared(2),
        Op::StShared(4),
        Op::LdSharedBytes(1),
        Op::LdSharedBytes(2),
        Op::StSharedBytes(1),
        Op::StSharedBytes(2),
        Op::LdConst,
    ];

    /// Bytes per lane.
    fn width(self) -> u64 {
        match self {
            Op::LdGlobal(v) | Op::StGlobal(v) | Op::LdGlobalRo(v) => 4 * v as u64,
            Op::LdShared(v) | Op::StShared(v) => 4 * v as u64,
            Op::LdGlobalBytes(w) | Op::StGlobalBytes(w) => w as u64,
            Op::LdSharedBytes(w) | Op::StSharedBytes(w) => w as u64,
            Op::LdConst => 4,
        }
    }

    /// The op's address range: `(lowest valid address, bytes)`.
    fn space(self, data: GmBuf) -> (u64, u64) {
        match self {
            Op::LdShared(_) | Op::StShared(_) | Op::LdSharedBytes(_) | Op::StSharedBytes(_) => {
                (0, SMEM)
            }
            Op::LdConst => (0, CMEM),
            _ => (data.offset(), GMEM),
        }
    }
}

/// An access drawn in form: the access itself, or its explicit lanes.
#[derive(Debug, Clone)]
enum Drawn {
    Affine { first: u64, step: u64 },
    TwoLevel(TwoLevel),
    Explicit(Box<WarpAddrs>),
}

impl Drawn {
    fn access(&self) -> WarpAccess<'_> {
        match *self {
            Drawn::Affine { first, step } => WarpAccess::Affine { first, step },
            Drawn::TwoLevel(form) => WarpAccess::TwoLevel(form),
            Drawn::Explicit(ref addrs) => WarpAccess::Explicit(addrs),
        }
    }
}

/// A step: zero, a lane width or a few, either sign, or one that wraps.
fn step(rng: &mut Rng, width: u64) -> u64 {
    match rng.below(8) {
        0 => 0,
        1 => width,
        2 => width * (1 + rng.below(4)),
        3 => 1 + rng.below(24),
        4 => (width * (1 + rng.below(3))).wrapping_neg(),
        5 => (1 + rng.below(24)).wrapping_neg(),
        6 => 128 * (1 + rng.below(3)),
        _ => u64::MAX - rng.below(64),
    }
}

/// An access in `[lo, lo + len)` for lanes of `width` bytes. Most draws
/// stay in bounds; a few run past the end or wrap.
fn draw(rng: &mut Rng, (lo, len): (u64, u64), width: u64) -> Drawn {
    let mid = lo + len / 2 - 256;
    let base = match rng.below(8) {
        0 => lo + len - width - rng.below(96), // some lanes run off the end
        1 => lo + rng.below(64),
        _ => mid + rng.below(128),
    };
    match rng.below(5) {
        0 | 1 => Drawn::Affine {
            first: base,
            step: step(rng, width),
        },
        2 | 3 => {
            let p = rng.pick(&TWO_LEVEL_PERIODS);
            let (s1, s2) = match rng.below(4) {
                0 => (0, step(rng, width)),
                1 => (step(rng, width), 0),
                2 => (0, 0),
                _ => (step(rng, width), step(rng, width)),
            };
            Drawn::TwoLevel(TwoLevel { p, base, s1, s2 })
        }
        _ => Drawn::Explicit(Box::new(std::array::from_fn(|_| {
            base.wrapping_add(rng.below(512)).wrapping_sub(256)
        }))),
    }
}

/// A mask: full, empty, one lane, a prefix, or gapped.
fn mask(rng: &mut Rng) -> LaneMask {
    LaneMask(match rng.below(6) {
        0 | 1 => u32::MAX,
        2 => 0,
        3 => 1 << rng.below(32),
        4 => u32::MAX >> rng.below(32),
        _ => rng.next() as u32,
    })
}

/// One drawn case.
#[derive(Debug, Clone)]
struct Case {
    op: Op,
    drawn: Drawn,
    mask: LaneMask,
    threads: usize,
    sanitize: bool,
    inject: Option<FaultInjection>,
}

/// What a run observed: the launch's stats or fault, the loaded values
/// and shared-memory dump, device memory, and the trace bytes.
#[derive(Debug, PartialEq)]
struct Observed {
    result: Result<KernelStats, String>,
    seen: Vec<u8>,
    /// The data buffer's bits (misaligned stores can leave NaNs).
    data: Vec<u32>,
    trace: Vec<u8>,
}

/// A sink that keeps its encoded bytes.
struct Sink(Arc<Mutex<Vec<u8>>>);

/// Every field of the event, and the active lanes' addresses only:
/// inactive lanes carry whatever the kernel's vector held.
fn encode(buf: &mut Vec<u8>, _: &mut EncoderState, ev: &TraceEvent) {
    buf.push(ev.op as u8);
    for v in [ev.warp, ev.mask.0, ev.lane_bytes] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    for lane in ev.mask.iter() {
        buf.extend_from_slice(&ev.addrs[lane].to_le_bytes());
    }
}

impl TraceSink for Sink {
    fn launch_begin(&mut self, launch: &TraceLaunch<'_>) {
        self.0
            .lock()
            .unwrap()
            .extend_from_slice(launch.kernel.as_bytes());
    }
    fn encoder(&self) -> EventEncoder {
        encode
    }
    fn block_encoded(&mut self, block_id: usize, events: u64, bytes: &[u8]) {
        let mut out = self.0.lock().unwrap();
        out.extend_from_slice(&(block_id as u64).to_le_bytes());
        out.extend_from_slice(&events.to_le_bytes());
        out.extend_from_slice(bytes);
    }
    fn launch_end(&mut self, _stats: &KernelStats) {}
}

/// Runs the op under test on one warp, recording what a load returned.
fn run_op(w: &mut WarpCtx<'_, '_>, op: Op, access: WarpAccess<'_>, mask: LaneMask) -> Vec<u8> {
    fn vals<const V: usize>(wid: usize) -> [[f32; V]; WARP_SIZE] {
        std::array::from_fn(|l| std::array::from_fn(|v| (wid * 1000 + l * 10 + v) as f32 + 0.5))
    }
    fn bytes<const W: usize>(wid: usize) -> [[u8; W]; WARP_SIZE] {
        std::array::from_fn(|l| std::array::from_fn(|v| (wid * 64 + l * 2 + v) as u8))
    }
    fn f32s<const V: usize>(out: [[f32; V]; WARP_SIZE]) -> Vec<u8> {
        out.iter().flatten().flat_map(|x| x.to_le_bytes()).collect()
    }
    let wid = w.warp_id();
    match op {
        Op::LdGlobal(1) => f32s(w.ld_global::<1>(access, mask)),
        Op::LdGlobal(2) => f32s(w.ld_global::<2>(access, mask)),
        Op::LdGlobal(_) => f32s(w.ld_global::<4>(access, mask)),
        Op::StGlobal(1) => {
            w.st_global::<1>(access, &vals(wid), mask);
            Vec::new()
        }
        Op::StGlobal(2) => {
            w.st_global::<2>(access, &vals(wid), mask);
            Vec::new()
        }
        Op::StGlobal(_) => {
            w.st_global::<4>(access, &vals(wid), mask);
            Vec::new()
        }
        Op::LdGlobalRo(1) => f32s(w.ld_global_ro::<1>(access, mask)),
        Op::LdGlobalRo(2) => f32s(w.ld_global_ro::<2>(access, mask)),
        Op::LdGlobalRo(_) => f32s(w.ld_global_ro::<4>(access, mask)),
        Op::LdGlobalBytes(1) => w.ld_global_bytes::<1>(access, mask).concat(),
        Op::LdGlobalBytes(_) => w.ld_global_bytes::<2>(access, mask).concat(),
        Op::StGlobalBytes(1) => {
            w.st_global_bytes::<1>(access, &bytes(wid), mask);
            Vec::new()
        }
        Op::StGlobalBytes(_) => {
            w.st_global_bytes::<2>(access, &bytes(wid), mask);
            Vec::new()
        }
        Op::LdShared(1) => f32s(w.ld_shared::<1>(access, mask)),
        Op::LdShared(2) => f32s(w.ld_shared::<2>(access, mask)),
        Op::LdShared(_) => f32s(w.ld_shared::<4>(access, mask)),
        Op::StShared(1) => {
            w.st_shared::<1>(access, &vals(wid), mask);
            Vec::new()
        }
        Op::StShared(2) => {
            w.st_shared::<2>(access, &vals(wid), mask);
            Vec::new()
        }
        Op::StShared(_) => {
            w.st_shared::<4>(access, &vals(wid), mask);
            Vec::new()
        }
        Op::LdSharedBytes(1) => w.ld_shared_bytes::<1>(access, mask).concat(),
        Op::LdSharedBytes(_) => w.ld_shared_bytes::<2>(access, mask).concat(),
        Op::StSharedBytes(1) => {
            w.st_shared_bytes::<1>(access, &bytes(wid), mask);
            Vec::new()
        }
        Op::StSharedBytes(_) => {
            w.st_shared_bytes::<2>(access, &bytes(wid), mask);
            Vec::new()
        }
        Op::LdConst => w
            .ld_const(access, mask)
            .iter()
            .flat_map(|x| x.to_le_bytes())
            .collect(),
    }
}

/// The block: warp 0 fills shared memory; every warp runs the op under
/// test; after a barrier warp 0 dumps shared memory.
fn block(blk: &mut BlockCtx<'_>, case: &Case, explicit: bool, seen: &Mutex<Vec<u8>>) {
    let fill: [[f32; 1]; WARP_SIZE] = std::array::from_fn(|l| [l as f32 - 7.25]);
    blk.each_warp(|w| {
        if w.warp_id() == 0 {
            for i in 0..INIT_OPS {
                w.st_shared::<1>(&lane_addrs(i * 128, 4), &fill, LaneMask::ALL);
            }
        }
    });
    blk.sync();
    blk.each_warp(|w| {
        // The explicit side expands the form under the live mask (an
        // affine form is indexed by active-lane rank) and leaves garbage
        // in the inactive lanes.
        let live = LaneMask(case.mask.0 & w.population().0);
        let lanes = case.drawn.access().addrs(live);
        let lanes: WarpAddrs = std::array::from_fn(|l| {
            if live.is_active(l) {
                lanes[l]
            } else {
                0xDEAD_0000 + l as u64
            }
        });
        let access = if explicit {
            WarpAccess::Explicit(&lanes)
        } else {
            case.drawn.access()
        };
        let out = run_op(w, case.op, access, case.mask);
        seen.lock().unwrap().extend(out);
    });
    blk.sync();
    blk.each_warp(|w| {
        if w.warp_id() == 0 {
            for i in 0..INIT_OPS {
                let got = w.ld_shared::<1>(&lane_addrs(i * 128, 4), LaneMask::ALL);
                let bytes = got.iter().flatten().flat_map(|x| x.to_le_bytes());
                seen.lock().unwrap().extend(bytes);
            }
        }
    });
}

fn observe(case: &Case, explicit: bool) -> Observed {
    let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
    let data = gpu.alloc_f32(GMEM / 4).unwrap();
    let values: Vec<f32> = (0..GMEM / 4).map(|i| i as f32 * 0.5 - 3.0).collect();
    gpu.upload_f32(data, &values).unwrap();
    let consts: Vec<f32> = (0..CMEM / 4).map(|i| 1.0 / (i as f32 + 1.0)).collect();
    gpu.write_const_f32(0, &consts).unwrap();
    if case.sanitize {
        gpu.set_sanitizer(SanitizerMode::Full);
    }
    gpu.set_fault_injection(case.inject.clone());
    let trace = Arc::new(Mutex::new(Vec::new()));
    gpu.set_trace_sink(Some(Box::new(Sink(trace.clone()))));
    let seen = Mutex::new(Vec::new());
    let launch = LaunchConfig::new("forms", 1, case.threads).with_smem(SMEM as u32);
    let result = match gpu.launch(&launch, SimMode::Full, |blk| {
        block(blk, case, explicit, &seen)
    }) {
        Ok(report) => Ok(report.stats),
        Err(SimError::KernelFault(fault)) => Err(format!(
            "{:?} warp {} lane {}",
            fault.kind, fault.warp, fault.lane
        )),
        Err(other) => panic!("{case:?}: {other}"),
    };
    let data = gpu
        .download_f32(data)
        .unwrap()
        .iter()
        .map(|x| x.to_bits())
        .collect();
    let seen = seen.into_inner().unwrap();
    let trace = trace.lock().unwrap().clone();
    Observed {
        result,
        seen,
        data,
        trace,
    }
}

fn draw_case(rng: &mut Rng, data: GmBuf) -> Case {
    let op = rng.pick(&Op::ALL);
    let threads = rng.pick(&[32, 64, 40, 72]);
    let inject = (rng.below(6) == 0).then(|| {
        let warps = (threads as u64).div_ceil(WARP_SIZE as u64);
        FaultInjection {
            kernel_substr: String::new(),
            block: 0,
            op_index: INIT_OPS + rng.below(warps),
            lane: rng.below(WARP_SIZE as u64) as usize,
            addr_xor: 1 << 41,
        }
    });
    Case {
        op,
        drawn: draw(rng, op.space(data), op.width()),
        mask: mask(rng),
        threads,
        sanitize: rng.below(3) == 0,
        inject,
    }
}

#[test]
fn forms_behave_like_their_explicit_lanes() {
    // Every launch allocates the same buffer first, so its address is
    // known before the draw.
    let data = Gpu::new(GpuSpec::kepler_k40m())
        .alloc_f32(GMEM / 4)
        .unwrap();
    let mut rng = Rng(0xF0_4E5);
    let (mut ok, mut faults) = (0, 0);
    let cases = 1500;
    for _ in 0..cases {
        let case = draw_case(&mut rng, data);
        let form = observe(&case, false);
        let explicit = observe(&case, true);
        assert_eq!(form.result, explicit.result, "stats or fault: {case:?}");
        assert_eq!(form.seen, explicit.seen, "loaded values: {case:?}");
        assert!(form.data == explicit.data, "device memory: {case:?}");
        assert!(form.trace == explicit.trace, "trace bytes: {case:?}");
        match form.result {
            Ok(_) => ok += 1,
            Err(_) => faults += 1,
        }
    }
    // Most draws run clean; the fault path is exercised too.
    assert!(ok > cases / 2, "{ok} of {cases} ran clean");
    assert!(faults > cases / 20, "{faults} of {cases} faulted");
}
