//! The paper's figures and tables on the simulated Kepler K40m.
//!
//! * [`fig1_patterns`] — Fig. 1's shared-memory access patterns through
//!   the bank model: the matched `float2` pattern uses the whole fabric,
//!   the conventional `float` pattern half of it.
//! * [`fig2_gemm`] — Fig. 2's motivation experiment: a Fermi-tuned
//!   MAGMA-style SGEMM (scalar fragments, unmatched against 8-byte banks)
//!   vs a Kepler-tuned cuBLAS-like kernel and "MAGMA mod.", which only
//!   matches the computation data width. Paper: MAGMA is 2.4x slower,
//!   the modification saves 36%.
//! * [`fig7_special`] — Fig. 7: the special-case (single-channel) kernel
//!   vs the cuDNN-like baselines over `N`, `F` and `K` in {1, 3, 5}, plus
//!   the bank-width-unmatched kernel at `K = 3` (Fig. 7b). Paper: 6.16x /
//!   6.43x / 2.90x on average, over 10x at `F = 1`, 19% unmatched loss.
//! * [`special_tune`] — §5.1's tile search behind "W = 256, H = 8 is
//!   best".
//! * [`table1_tune`] — Table 1: the general kernel's tuning knobs
//!   `(W, H, F_TB, W_T, F_T, C_SH)` explored per filter size, next to the
//!   paper's published best.
//! * [`fig8_general`] — Fig. 8: the general-case kernel in its Table 1
//!   configurations vs the cuDNN-like baselines for `K` in {3, 5, 7}.
//!   Paper: +30.5% / +45.3% / +30.8%, best rate 2020 GFlop/s (47% of
//!   peak).

use std::process::ExitCode;

use kconv_core::tune::{
    candidate_space, explore_general, explore_special, special_candidate_space,
};
use kconv_core::{
    Convolution, GeneralConfig, GeneralConv, ImplicitGemmConv, SpecialConfig, SpecialConv,
};
use kconv_gemm::{block_tile, gemm_ref_tile, launch_gemm, GemmConfig, GemmShape};
use kconv_sim::{
    bank_conflict_cycles, lane_addrs, BankWidth, Gpu, GpuSpec, LaneMask, Parallelism, SimMode,
    WARP_SIZE,
};
use kconv_tensor::{assert_close, ConvProblem, CONV_TOL};

use crate::cli::Args;
use crate::{geomean, print_table, sampled_run};

/// Fig. 1 — the shared-memory access-pattern model, numerically.
pub fn fig1_patterns(_: &Args) -> ExitCode {
    println!("Fig. 1 — shared-memory access patterns under the bank model\n");
    // (name, byte stride between lanes, bytes per lane)
    let patterns: [(&str, u64, u64); 5] = [
        ("conventional float (Fig. 1a)", 4, 4),
        ("matched float2 (Fig. 1b)", 8, 8),
        ("column stride (32 words)", 32 * 8, 4),
        ("padded column (33 words)", 33 * 8, 8),
        ("float4 per lane", 16, 16),
    ];

    for bank in [BankWidth::B8, BankWidth::B4] {
        println!(
            "--- {bank} ({}) ---",
            match bank {
                BankWidth::B8 => "Kepler",
                BankWidth::B4 => "Fermi/Maxwell",
            }
        );
        let capacity = 32 * bank.bytes();
        let rows: Vec<Vec<String>> = patterns
            .iter()
            .map(|&(name, stride, width)| {
                let out =
                    bank_conflict_cycles(&lane_addrs(0, stride), width, LaneMask::ALL, 32, bank);
                let useful = WARP_SIZE as u64 * width;
                let bw = useful as f64 / (out.cycles * capacity) as f64;
                vec![
                    name.to_string(),
                    out.cycles.to_string(),
                    useful.to_string(),
                    format!("{:.0}%", 100.0 * bw),
                    if out.broadcast { "yes" } else { "no" }.to_string(),
                ]
            })
            .collect();
        print_table(
            &[
                "pattern",
                "cycles",
                "useful bytes",
                "fabric use",
                "broadcast",
            ],
            &rows,
        );
        println!();
    }
    println!(
        "On Kepler the conventional float pattern completes in one cycle but\n\
         uses half the fabric; the matched float2 pattern uses all of it —\n\
         the paper's n-fold shared-memory bandwidth claim, verbatim."
    );
    ExitCode::SUCCESS
}

/// Modeled seconds of one `dim`-square SGEMM under `cfg`; with `verify`,
/// one sampled block is checked against the CPU reference.
fn gemm_seconds(cfg: &GemmConfig, dim: usize, verify: bool) -> f64 {
    let mut gpu = Gpu::new(GpuSpec::kepler_k40m()).with_parallelism(Parallelism::env_or_auto());
    let shape = GemmShape::square(dim);
    let elems = (dim * dim) as u64;
    let a = gpu.alloc_f32(elems).expect("alloc A");
    let b = gpu.alloc_f32(elems).expect("alloc B");
    let c = gpu.alloc_f32(elems).expect("alloc C");

    // Data is performance-irrelevant; use a cheap deterministic pattern.
    let av: Vec<f32> = (0..dim * dim)
        .map(|i| ((i % 17) as f32 - 8.0) / 8.0)
        .collect();
    let bv: Vec<f32> = (0..dim * dim)
        .map(|i| ((i % 13) as f32 - 6.0) / 6.0)
        .collect();
    gpu.upload_f32(a, &av).expect("upload A");
    gpu.upload_f32(b, &bv).expect("upload B");

    let report = launch_gemm(&mut gpu, cfg, shape, a, b, c, SimMode::Sampled(2)).expect("launch");

    if verify {
        let blk = report.executed_blocks[0];
        let (r0, rs, c0, cs) = block_tile(cfg, shape, blk);
        let want = gemm_ref_tile(&av, &bv, dim, dim, dim, r0, rs, c0, cs);
        let mut got = Vec::new();
        for r in 0..rs {
            got.extend(
                gpu.download_f32_at(c, ((r0 + r) * dim + c0) as u64, cs)
                    .expect("download"),
            );
        }
        assert_close(&got, &want, CONV_TOL, cfg.name);
    }

    report.seconds()
}

/// Fig. 2 — SGEMM: cuBLAS-like vs MAGMA vs MAGMA-mod.
pub fn fig2_gemm(args: &Args) -> ExitCode {
    let dims: Vec<usize> = if args.quick {
        vec![2048, 4096]
    } else {
        vec![2048, 3072, 4096, 5120, 6144, 7168, 8192]
    };
    let configs = [
        GemmConfig::kepler_tuned(),
        GemmConfig::fermi_tuned(),
        GemmConfig::fermi_tuned_matched(),
    ];

    println!(
        "Fig. 2 — SGEMM execution time on simulated {}\n",
        GpuSpec::kepler_k40m()
    );
    let mut rows = Vec::new();
    let mut magma_over_cublas = Vec::new();
    let mut mod_saving = Vec::new();
    for &dim in &dims {
        let verify = dim <= 2048;
        let times: Vec<f64> = configs
            .iter()
            .map(|c| gemm_seconds(c, dim, verify))
            .collect();
        magma_over_cublas.push(times[1] / times[0]);
        mod_saving.push(1.0 - times[2] / times[1]);
        rows.push(vec![
            dim.to_string(),
            format!("{:.1}", times[0] * 1e3),
            format!("{:.1}", times[1] * 1e3),
            format!("{:.1}", times[2] * 1e3),
            format!("{:.2}x", times[1] / times[0]),
            format!("{:.0}%", 100.0 * (1.0 - times[2] / times[1])),
        ]);
    }
    print_table(
        &[
            "dim",
            "cuBLAS-like (ms)",
            "MAGMA (ms)",
            "MAGMA mod. (ms)",
            "MAGMA/cuBLAS",
            "mod. saving",
        ],
        &rows,
    );
    println!();
    println!(
        "geomean MAGMA/cuBLAS slowdown: {:.2}x   (paper: 2.4x)",
        geomean(&magma_over_cublas)
    );
    println!(
        "mean saving from matching the bank width: {:.0}%   (paper: 36%)",
        100.0 * mod_saving.iter().sum::<f64>() / mod_saving.len() as f64
    );
    ExitCode::SUCCESS
}

/// The filter sizes a `--filter`-able figure sweeps: the one asked for,
/// else all of `all`.
fn filter_sizes(args: &Args, all: &[usize]) -> Vec<usize> {
    args.filter.map_or_else(|| all.to_vec(), |k| vec![k])
}

/// One Fig. 7 point: GFlop/s of each kernel at `(N, F)`.
struct Fig7Point {
    n: usize,
    f: usize,
    ours: f64,
    cudnn16: f64,
    cudnn_tex: f64,
    unmatched: Option<f64>,
}

fn fig7_sweep(k: usize, quick: bool) -> Vec<Fig7Point> {
    const SEEDS: [u64; 2] = [101, 103];
    let kepler = GpuSpec::kepler_k40m();
    let (ns, fs): (Vec<usize>, Vec<usize>) = if quick {
        (vec![512, 1024], vec![1, 32])
    } else {
        (vec![512, 1024, 2048], vec![1, 8, 32, 64])
    };
    let mut points = Vec::new();
    for &n in &ns {
        for &f in &fs {
            let problem = ConvProblem::special(n, f, k);
            let verify = n <= 1024;
            let run = |conv: &dyn Convolution| {
                sampled_run(conv, &kepler, &problem, SEEDS, verify).effective_gflops(&problem)
            };
            points.push(Fig7Point {
                n,
                f,
                ours: run(&SpecialConv::default()),
                cudnn16: run(&ImplicitGemmConv::era2016(&problem)),
                cudnn_tex: run(&ImplicitGemmConv::default()),
                unmatched: (k == 3)
                    .then(|| run(&SpecialConv::new(SpecialConfig::kepler_unmatched()))),
            });
        }
    }
    points
}

fn fig7_report(k: usize, points: &[Fig7Point]) {
    println!("\nFig. 7 (K = {k}x{k}) — GFlop/s, simulated K40m\n");
    let with_unmatched = points.iter().any(|p| p.unmatched.is_some());
    let mut header = vec![
        "N",
        "F",
        "cuDNN-v5-like",
        "cuDNN+tex",
        "our kernel",
        "speedup(v5)",
    ];
    if with_unmatched {
        header.push("unmatched");
        header.push("unmatched loss");
    }
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let mut r = vec![
                p.n.to_string(),
                p.f.to_string(),
                format!("{:.1}", p.cudnn16),
                format!("{:.1}", p.cudnn_tex),
                format!("{:.1}", p.ours),
                format!("{:.2}x", p.ours / p.cudnn16),
            ];
            if let Some(u) = p.unmatched {
                r.push(format!("{u:.1}"));
                r.push(format!("{:.0}%", 100.0 * (1.0 - u / p.ours)));
            } else if with_unmatched {
                r.push(String::new());
                r.push(String::new());
            }
            r
        })
        .collect();
    print_table(&header, &rows);

    let speedups: Vec<f64> = points.iter().map(|p| p.ours / p.cudnn16).collect();
    let tex_speedups: Vec<f64> = points.iter().map(|p| p.ours / p.cudnn_tex).collect();
    let paper = match k {
        1 => "6.16x",
        3 => "6.43x",
        5 => "2.90x",
        _ => "n/a",
    };
    println!(
        "\ngeomean speedup over the 2016-era baseline: {:.2}x   (paper average for {k}x{k}: {paper})",
        geomean(&speedups)
    );
    println!(
        "geomean speedup over the texture-path baseline: {:.2}x   (stronger than the paper's comparator)",
        geomean(&tex_speedups)
    );
    let f1: Vec<f64> = points
        .iter()
        .filter(|p| p.f == 1)
        .map(|p| p.ours / p.cudnn16)
        .collect();
    if !f1.is_empty() {
        println!(
            "geomean speedup at F = 1: {:.1}x   (paper: can exceed 10x)",
            geomean(&f1)
        );
    }
    if with_unmatched {
        let losses: Vec<f64> = points
            .iter()
            .filter_map(|p| p.unmatched.map(|u| 1.0 - u / p.ours))
            .collect();
        println!(
            "mean unmatched-kernel loss: {:.0}%   (paper: 19%)",
            100.0 * losses.iter().sum::<f64>() / losses.len() as f64
        );
    }
}

/// Fig. 7 — special-case convolution vs cuDNN-like.
pub fn fig7_special(args: &Args) -> ExitCode {
    println!(
        "Fig. 7 — special-case convolution on simulated {}",
        GpuSpec::kepler_k40m()
    );
    for k in filter_sizes(args, &[1, 3, 5]) {
        fig7_report(k, &fig7_sweep(k, args.quick));
    }
    ExitCode::SUCCESS
}

/// §5.1 — special-case tile search.
pub fn special_tune(args: &Args) -> ExitCode {
    let spec = GpuSpec::kepler_k40m();
    let (n, f, k) = if args.quick {
        (512, 8, 3)
    } else {
        (2048, 32, 3)
    };
    let problem = ConvProblem::special(n, f, k);
    println!("Special-case tile exploration on simulated {spec}\nprobe problem: {problem}\n");

    let results =
        explore_special(&spec, &problem, &special_candidate_space(), 2).expect("exploration");
    let paper = SpecialConfig::kepler_best();
    let rows: Vec<Vec<String>> = results
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mark = if r.config == paper {
                "  <- paper's choice"
            } else {
                ""
            };
            vec![
                format!("#{}", i + 1),
                r.config.width.to_string(),
                r.config.height.to_string(),
                format!("{:.0}{mark}", r.gflops),
            ]
        })
        .collect();
    print_table(&["rank", "W", "H", "GFlop/s"], &rows);

    match results.iter().position(|r| r.config == paper) {
        Some(i) => println!(
            "\nthe paper's W=256, H=8 ranks #{} of {} under the model",
            i + 1,
            results.len()
        ),
        None => println!("\nthe paper's W=256, H=8 was not feasible on this probe"),
    }
    ExitCode::SUCCESS
}

fn config_cells(c: &GeneralConfig) -> [String; 6] {
    [c.width, c.height, c.f_tb, c.w_t, c.f_t, c.c_sh].map(|v| v.to_string())
}

/// Table 1 — general-case design-space exploration.
pub fn table1_tune(args: &Args) -> ExitCode {
    let spec = GpuSpec::kepler_k40m();
    println!("Table 1 — best general-case configurations on simulated {spec}\n");
    let (n, c, f) = if args.quick {
        (64, 32, 64)
    } else {
        (128, 64, 64)
    };
    println!(
        "probe problem: N'={n}, C={c}, F={f}; candidate space: {} configs\n",
        candidate_space().len()
    );

    let mut rows = Vec::new();
    for k in [3usize, 5, 7] {
        let problem = ConvProblem::general(n + k - 1, c, f, k);
        let results =
            explore_general(&spec, &problem, &candidate_space(), 2).expect("exploration failed");
        let best = results.first().expect("no feasible configuration");
        let mut row = vec![format!("{k}x{k}"), "ours".into()];
        row.extend(config_cells(&best.config));
        row.push(format!("{:.0}", best.gflops));
        rows.push(row);
        // Where does the paper's config land in our ranking?
        let paper = GeneralConfig::table1(k);
        let (paper_rank, paper_gf) = results
            .iter()
            .position(|r| r.config == paper)
            .map_or(("n/a".to_string(), "-".to_string()), |i| {
                (format!("#{}", i + 1), format!("{:.0}", results[i].gflops))
            });
        let mut row = vec![format!("{k}x{k}"), format!("paper ({paper_rank})")];
        row.extend(config_cells(&paper));
        row.push(paper_gf);
        rows.push(row);
    }
    print_table(
        &[
            "K", "config", "W", "H", "F_TB", "W_T", "F_T", "C_SH", "GFlop/s",
        ],
        &rows,
    );
    println!(
        "\npaper Table 1:  3x3: W=32 H=4 F_TB=64 W_T=16 F_T=4 C_SH=2\n               5x5: W=32 H=8 F_TB=32 W_T=8  F_T=8 C_SH=1\n               7x7: W=64 H=4 F_TB=32 W_T=8  F_T=8 C_SH=1"
    );
    ExitCode::SUCCESS
}

/// One Fig. 8 point: GFlop/s of each kernel at `(N', C, F)`.
struct Fig8Point {
    n: usize,
    c: usize,
    f: usize,
    ours: f64,
    cudnn16: f64,
    cudnn_tex: f64,
}

fn fig8_sweep(k: usize, quick: bool) -> Vec<Fig8Point> {
    const SEEDS: [u64; 2] = [201, 203];
    let kepler = GpuSpec::kepler_k40m();
    // Input sizes are chosen so the output (N-K+1) is the canonical CNN
    // feature-map size N' listed here (as in CNN layer shapes).
    let (ns, cfs): (Vec<usize>, Vec<(usize, usize)>) = if quick {
        (vec![32, 64], vec![(64, 64)])
    } else {
        (
            vec![32, 64, 128, 256],
            vec![(32, 64), (64, 64), (128, 128), (256, 128)],
        )
    };
    let mut points = Vec::new();
    for &n in &ns {
        for &(c, f) in &cfs {
            let problem = ConvProblem::general(n + k - 1, c, f, k);
            let verify = n <= 64 && c <= 64;
            let run = |conv: &dyn Convolution| {
                sampled_run(conv, &kepler, &problem, SEEDS, verify).effective_gflops(&problem)
            };
            points.push(Fig8Point {
                n,
                c,
                f,
                ours: run(&GeneralConv::table1(k)),
                cudnn16: run(&ImplicitGemmConv::era2016(&problem)),
                cudnn_tex: run(&ImplicitGemmConv::default()),
            });
        }
    }
    points
}

fn fig8_report(k: usize, points: &[Fig8Point]) {
    println!("\nFig. 8 (K = {k}x{k}) — GFlop/s, simulated K40m, Table 1 config\n");
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.n.to_string(),
                p.c.to_string(),
                p.f.to_string(),
                format!("{:.1}", p.cudnn16),
                format!("{:.1}", p.cudnn_tex),
                format!("{:.1}", p.ours),
                format!("{:+.1}%", 100.0 * (p.ours / p.cudnn_tex - 1.0)),
            ]
        })
        .collect();
    print_table(
        &[
            "N'",
            "C",
            "F",
            "cuDNN-v5-like",
            "cuDNN+tex",
            "our kernel",
            "improvement",
        ],
        &rows,
    );

    let ratios: Vec<f64> = points.iter().map(|p| p.ours / p.cudnn_tex).collect();
    let ratios16: Vec<f64> = points.iter().map(|p| p.ours / p.cudnn16).collect();
    let paper = match k {
        3 => "30.5%",
        5 => "45.3%",
        7 => "30.8%",
        _ => "n/a",
    };
    println!(
        "\ngeomean improvement over the texture-path baseline: {:+.1}%   (paper average for {k}x{k}: +{paper})",
        100.0 * (geomean(&ratios) - 1.0)
    );
    println!(
        "geomean improvement over the 2016-era baseline: {:+.1}%",
        100.0 * (geomean(&ratios16) - 1.0)
    );
    let best = points.iter().map(|p| p.ours).fold(0.0f64, f64::max);
    println!(
        "best absolute rate: {best:.0} GFlop/s = {:.0}% of peak   (paper: 2020 GFlop/s, 47%)",
        100.0 * best / GpuSpec::kepler_k40m().peak_gflops()
    );
}

/// Fig. 8 — general-case convolution vs cuDNN-like.
pub fn fig8_general(args: &Args) -> ExitCode {
    println!(
        "Fig. 8 — general-case convolution on simulated {}",
        GpuSpec::kepler_k40m()
    );
    for k in filter_sizes(args, &[3, 5, 7]) {
        fig8_report(k, &fig8_sweep(k, args.quick));
    }
    ExitCode::SUCCESS
}
