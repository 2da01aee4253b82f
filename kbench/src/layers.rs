//! Per-launch accounting shared by the workloads that run kernels: engine
//! families, and the sim/timing/kernel metrics read from each launch's
//! `KernelStats` and `Timing`.

use kconv_sim::LaunchReport;

use crate::report::{Outcome, BOUNDS, FAMILIES};

/// The engine family of a kernel, from its `Convolution::name`. Narrow
/// dtypes (the fp16/int8 special variants) are the `half2` family.
pub fn family(kernel: &str) -> Option<&'static str> {
    if kernel.starts_with("special half2")
        || kernel.starts_with("special fp16")
        || kernel.starts_with("special int8")
    {
        Some("half2")
    } else if kernel.starts_with("special") {
        Some("special")
    } else if kernel.starts_with("general") {
        Some("general")
    } else if kernel.contains("implicit GEMM") {
        Some("implicit_gemm")
    } else if kernel.starts_with("systolic") {
        Some("systolic")
    } else {
        None
    }
}

/// One simulated launch: a convolution (with its family) or a device
/// post-processing op (`family == None`), its host time and its report.
#[derive(Debug, Clone)]
pub struct Launch {
    /// Engine family; `None` for ReLU/pooling launches.
    pub family: Option<&'static str>,
    /// Host seconds of the call that ran it.
    pub host_s: f64,
    /// Counters and modeled timing.
    pub report: LaunchReport,
}

/// Memory instructions a launch issued (global, shared and constant).
pub fn mem_ops(r: &LaunchReport) -> u64 {
    let s = &r.stats;
    s.gm_ld_requests + s.gm_st_requests + s.sm_ld_requests + s.sm_st_requests + s.cm_requests
}

/// FNV-1a over every counter of every launch, in order, cut to 52 bits.
pub fn stats_digest(launches: &[Launch]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for l in launches {
        for b in format!("{:?}", l.report.stats).bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h & ((1 << 52) - 1)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Reports `kernel.*`, `sim.*` (except the thread speed-up) and
/// `timing.*` for the launches of one op. Kernel families that never ran
/// are left out of `kernel.*`. The counts that only describe the launches,
/// with no better or worse (`apps.route.*`, `timing.bound.*` and
/// `sim.stats_digest`), go to the run manifest, and so does
/// `sim.cm_cycles`: every constant-memory read of these kernels is
/// uniform across its warp, so no read costs a cycle beyond the first and
/// the count is 0 on every run.
pub fn report_launches(out: &mut Outcome, launches: &[Launch]) {
    let m = &mut out.metrics;
    let notes = &mut out.notes;
    let convs = || launches.iter().filter(|l| l.family.is_some());
    for f in FAMILIES {
        let of = || convs().filter(move |l| l.family == Some(f));
        notes.insert(format!("apps.route.{f}"), of().count().to_string());
        if of().count() == 0 {
            continue;
        }
        let modeled: f64 = of().map(|l| l.report.seconds()).sum();
        let flops: f64 = of().map(|l| l.report.stats.flops() as f64).sum();
        m.put(
            format!("kernel.{f}.host_s"),
            of().map(|l| l.host_s).sum::<f64>(),
        );
        m.put(format!("kernel.{f}.modeled_ms"), modeled * 1e3);
        m.put(format!("kernel.{f}.gflops"), ratio(flops, modeled) / 1e9);
    }

    let sum = |f: &dyn Fn(&LaunchReport) -> f64| launches.iter().map(|l| f(&l.report)).sum::<f64>();
    let ops = sum(&|r| mem_ops(r) as f64);
    let host: f64 = launches.iter().map(|l| l.host_s).sum();
    m.put("sim.mem_ops", ops);
    m.put("sim.mem_ops_per_s", ratio(ops, host));
    m.put(
        "sim.gm_efficiency",
        ratio(
            sum(&|r| r.stats.gm_bytes_useful() as f64),
            sum(&|r| r.stats.gm_bytes_bus() as f64),
        ),
    );
    let ro_hits = sum(&|r| r.stats.gm_ro_hits as f64);
    m.put(
        "sim.ro_hit_rate",
        ratio(
            ro_hits,
            ro_hits + sum(&|r| r.stats.gm_ld_transactions as f64),
        ),
    );
    m.put(
        "sim.sm_conflict_factor",
        ratio(
            sum(&|r| r.stats.sm_cycles() as f64),
            sum(&|r| r.stats.sm_requests() as f64),
        ),
    );
    notes.insert(
        "sim.cm_cycles".into(),
        launches
            .iter()
            .map(|l| l.report.stats.cm_cycles)
            .sum::<u64>()
            .to_string(),
    );
    m.put("sim.bar_syncs", sum(&|r| r.stats.bar_syncs as f64));
    notes.insert(
        "sim.stats_digest".into(),
        format!("{:013x}", stats_digest(launches)),
    );
    m.put("timing.t_compute_ms", sum(&|r| r.timing.t_compute) * 1e3);
    m.put("timing.t_smem_ms", sum(&|r| r.timing.t_smem) * 1e3);
    m.put("timing.t_gm_ms", sum(&|r| r.timing.t_gm) * 1e3);
    m.put("timing.t_barrier_ms", sum(&|r| r.timing.t_barrier) * 1e3);
    m.put("timing.t_latency_ms", sum(&|r| r.timing.t_latency) * 1e3);
    for b in BOUNDS {
        let n = launches
            .iter()
            .filter(|l| l.report.timing.bottleneck().replace(' ', "_") == b)
            .count();
        notes.insert(format!("timing.bound.{b}"), n.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_cover_every_kernel_the_workloads_route_to() {
        for (name, fam) in [
            ("special (matched, n=2)", "special"),
            ("special half2 (matched, n=4)", "half2"),
            ("special fp16 (matched, n=4)", "half2"),
            ("general (n=2)", "general"),
            ("cuDNN-like implicit GEMM", "implicit_gemm"),
            ("systolic d2 n=2", "systolic"),
        ] {
            assert_eq!(family(name), Some(fam), "{name}");
        }
        assert_eq!(family("naive direct (1 thread/output)"), None);
    }
}
