//! The Fig. 8 reference workload shared by every harness that measures it.
//!
//! `bench_smoke` (counter golden), `whatif` (replay ≡ live) and
//! `trace_report` (trace-level checks) all run the same layer: the
//! general-case 3x3 kernel in its Table 1 configuration over a full
//! `N' = 64, C = 64, F = 64` grid, with fixed input/filter seeds.
//! This module is the single definition of that workload, its canonical
//! `KernelStats` JSON rendering, and the golden-file paths — so the
//! harnesses cannot drift apart on seeds or shapes.

use kconv_core::GeneralConv;
use kconv_sim::KernelStats;
use kconv_tensor::{random_filters, random_maps, ConvProblem, FeatureMaps, FilterSet};

/// Input seed every fig8 harness uses.
pub const INPUT_SEED: u64 = 201;
/// Filter seed every fig8 harness uses.
pub const FILTER_SEED: u64 = 203;

/// The Fig. 8 3x3 layer: `N' = 64, C = 64, F = 64, K = 3`.
pub fn problem() -> ConvProblem {
    ConvProblem::general(64 + 2, 64, 64, 3)
}

/// The layer plus its seeded input and filters.
pub fn workload() -> (ConvProblem, FeatureMaps, FilterSet) {
    let problem = problem();
    let input = random_maps(problem.channels, problem.height, problem.width, INPUT_SEED);
    let filters = random_filters(problem.filters, problem.channels, problem.k, FILTER_SEED);
    (problem, input, filters)
}

/// The kernel under test: the Table 1 3x3 configuration.
pub fn conv() -> GeneralConv {
    GeneralConv::table1(3)
}

/// Absolute path of `name` in the workspace root (where the golden and
/// bench JSON files live).
pub fn workspace_file(name: &str) -> String {
    format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Canonical JSON rendering of every counter, one line per field, so a
/// drift shows up as a readable diff.
pub fn stats_json(s: &KernelStats) -> String {
    let h = s.sm_conflict_histogram;
    format!(
        "{{\n  \"bench\": \"fig8_general_3x3_full\",\n  \"fma_lane_ops\": {},\n  \"alu_lane_ops\": {},\n  \"gm_ld_requests\": {},\n  \"gm_st_requests\": {},\n  \"gm_ld_transactions\": {},\n  \"gm_st_transactions\": {},\n  \"gm_ld_bytes_bus\": {},\n  \"gm_st_bytes_bus\": {},\n  \"gm_ld_bytes_useful\": {},\n  \"gm_st_bytes_useful\": {},\n  \"gm_ro_hits\": {},\n  \"sm_ld_requests\": {},\n  \"sm_st_requests\": {},\n  \"sm_ld_cycles\": {},\n  \"sm_st_cycles\": {},\n  \"sm_bytes_useful\": {},\n  \"sm_broadcasts\": {},\n  \"sm_conflict_histogram\": [{}, {}, {}, {}, {}, {}],\n  \"cm_requests\": {},\n  \"cm_cycles\": {},\n  \"cm_misses\": {},\n  \"barriers\": {},\n  \"blocks_executed\": {},\n  \"blocks_total\": {}\n}}\n",
        s.fma_lane_ops,
        s.alu_lane_ops,
        s.gm_ld_requests,
        s.gm_st_requests,
        s.gm_ld_transactions,
        s.gm_st_transactions,
        s.gm_ld_bytes_bus,
        s.gm_st_bytes_bus,
        s.gm_ld_bytes_useful,
        s.gm_st_bytes_useful,
        s.gm_ro_hits,
        s.sm_ld_requests,
        s.sm_st_requests,
        s.sm_ld_cycles,
        s.sm_st_cycles,
        s.sm_bytes_useful,
        s.sm_broadcasts,
        h[0],
        h[1],
        h[2],
        h[3],
        h[4],
        h[5],
        s.cm_requests,
        s.cm_cycles,
        s.cm_misses,
        s.barriers,
        s.blocks_executed,
        s.blocks_total,
    )
}

/// Prints the mismatching lines of two canonical JSON renderings to
/// stderr, one golden/current pair per drifted field.
pub fn print_json_diff(golden: &str, current: &str) {
    for (g, c) in golden.lines().zip(current.lines()) {
        if g != c {
            eprintln!("  golden:  {}", g.trim());
            eprintln!("  current: {}", c.trim());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_the_fig8_layer() {
        let (p, input, filters) = workload();
        assert_eq!((p.channels, p.filters, p.k), (64, 64, 3));
        assert_eq!((p.out_height(), p.out_width()), (64, 64));
        assert_eq!(input.as_slice().len(), 64 * 66 * 66);
        assert_eq!(filters.len(), 64 * 64 * 3 * 3);
        // Seeds are fixed: the same call yields the same bits.
        let (_, input2, filters2) = workload();
        assert_eq!(input.as_slice(), input2.as_slice());
        assert_eq!(filters.as_slice(), filters2.as_slice());
    }

    #[test]
    fn stats_json_is_line_per_field() {
        let json = stats_json(&KernelStats::default());
        assert!(json.lines().count() > 20);
        assert!(json.contains("\"gm_ld_transactions\": 0"));
    }
}
