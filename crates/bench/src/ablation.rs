//! Ablations of the paper's design choices, and the related-work
//! comparison.
//!
//! * [`ablation_unmatched`] — Fig. 7b's inset measured the special kernel
//!   with `W_CD` left unmatched (scalar `float`) and found a 19% loss; the
//!   paper predicts a larger loss for the general kernel, whose shared
//!   memory also holds the filters. Measures both.
//! * [`ablation_contiguous`] — §4.2: each thread's `W_T` *contiguous*
//!   outputs (one `W_T + K - 1` register row serves `K` FMA rounds) vs the
//!   blocked-GEMM layout, against the `(W_T + K - 1) / (W_T * K)` formula.
//! * [`ablation_dtype`] — §6: short data types reintroduce the bank-width
//!   mismatch; the bandwidth probe's fabric utilization against `1/n`.
//! * [`ablation_overlap`] — the same counted execution re-timed under the
//!   prefetched, naturally scheduled and serialized overlap models, to
//!   isolate what the software pipelining of Algorithms 1 and 2 buys.
//! * [`ablation_arch`] — the matched/unmatched special-kernel pair on
//!   Kepler, Fermi and a Maxwell-like part: the penalty appears exactly
//!   where `n = W_SMB / W_CD > 1`.
//! * [`winograd_compare`] — §1's related work: Winograd F(2x2, 3x3)'s
//!   2.25x multiplication saving, its 16/9 filter-memory cost, its
//!   projected upper bound on the simulated K40m, and the filter sizes it
//!   cannot serve.

use std::process::ExitCode;

use kconv_core::model::general_sm_reduction;
use kconv_core::winograd::{multiplication_counts, transformed_filter_bytes, winograd_conv_3x3};
use kconv_core::{
    conv_reference, BandwidthProbe, Convolution, DataType, GeneralConfig, GeneralConv,
    GeneralConvStrided, SpecialConfig, SpecialConv, Storage,
};
use kconv_sim::{timing, Gpu, GpuSpec, LaunchConfig, OverlapMode, Parallelism};
use kconv_tensor::{random_filters, random_maps, ConvProblem};

use crate::cli::Args;
use crate::{geomean, print_table, sampled_run};

/// Fig. 7b inset — matched vs unmatched computation data width.
pub fn ablation_unmatched(args: &Args) -> ExitCode {
    const SEEDS: [u64; 2] = [301, 303];
    let kepler = GpuSpec::kepler_k40m();
    let gflops = |conv: &dyn Convolution, problem: &ConvProblem| {
        sampled_run(conv, &kepler, problem, SEEDS, false).effective_gflops(problem)
    };
    println!("Ablation — matched vs unmatched computation data width (K = 3x3)\n");

    let mut rows = Vec::new();
    let mut special_losses = Vec::new();
    let mut general_losses = Vec::new();

    let ns: Vec<usize> = if args.quick {
        vec![512]
    } else {
        vec![512, 1024, 2048]
    };
    for &n in &ns {
        for f in [8usize, 64] {
            let problem = ConvProblem::special(n, f, 3);
            let matched = gflops(&SpecialConv::default(), &problem);
            let unmatched = gflops(
                &SpecialConv::new(SpecialConfig::kepler_unmatched()),
                &problem,
            );
            special_losses.push(matched / unmatched);
            rows.push(vec![
                "special".into(),
                format!("N={n} F={f}"),
                format!("{matched:.0}"),
                format!("{unmatched:.0}"),
                format!("{:.0}%", 100.0 * (1.0 - unmatched / matched)),
            ]);
        }
    }
    let ns: Vec<usize> = if args.quick { vec![64] } else { vec![64, 128] };
    for &n in &ns {
        for c in [64usize, 128] {
            let problem = ConvProblem::general(n + 2, c, 64, 3);
            let matched = gflops(&GeneralConv::table1(3), &problem);
            let unmatched_cfg = GeneralConfig {
                vec_width: 1,
                ..GeneralConfig::table1(3)
            };
            let unmatched = gflops(&GeneralConv::new(unmatched_cfg), &problem);
            general_losses.push(matched / unmatched);
            rows.push(vec![
                "general".into(),
                format!("N'={n} C={c} F=64"),
                format!("{matched:.0}"),
                format!("{unmatched:.0}"),
                format!("{:.0}%", 100.0 * (1.0 - unmatched / matched)),
            ]);
        }
    }
    print_table(
        &[
            "kernel",
            "problem",
            "matched GF/s",
            "unmatched GF/s",
            "loss",
        ],
        &rows,
    );
    let sp = 100.0 * (1.0 - 1.0 / geomean(&special_losses));
    let ge = 100.0 * (1.0 - 1.0 / geomean(&general_losses));
    println!("\nmean special-case loss: {sp:.0}%   (paper Fig. 7b: 19%)");
    println!("mean general-case loss: {ge:.0}%   (paper predicts: higher than special)");
    if ge > sp {
        println!("=> the paper's prediction holds under the model.");
    } else {
        println!("=> the paper's prediction does NOT hold under the model (see EXPERIMENTS.md).");
    }
    ExitCode::SUCCESS
}

/// §4.2 — contiguous outputs per thread vs the blocked-GEMM layout.
pub fn ablation_contiguous(_: &Args) -> ExitCode {
    println!("Ablation — contiguous vs strided (blocked-GEMM) thread outputs\n");
    let kepler = GpuSpec::kepler_k40m();
    let mut rows = Vec::new();
    for k in [3usize, 5, 7] {
        let cfg = GeneralConfig::table1(k);
        let problem = ConvProblem::general(64 + k - 1, 64, cfg.f_tb, k);
        let run =
            |conv: &dyn Convolution| sampled_run(conv, &kepler, &problem, [701, 703], false).report;
        let ours = run(&GeneralConv::new(cfg));
        let gemm = run(&GeneralConvStrided::new(cfg));
        let predicted = 1.0 / general_sm_reduction(&cfg, k);
        rows.push(vec![
            format!("{k}x{k} (W_T={})", cfg.w_t),
            format!("{:.2}x", predicted),
            format!(
                "{:.2}x",
                gemm.stats.sm_bytes_useful as f64 / ours.stats.sm_bytes_useful as f64
            ),
            format!(
                "{:.2}x",
                gemm.stats.sm_cycles() as f64 / ours.stats.sm_cycles() as f64
            ),
            format!("{:.0}", problem.flops() as f64 / ours.seconds() / 1e9),
            format!("{:.0}", problem.flops() as f64 / gemm.seconds() / 1e9),
        ]);
    }
    print_table(
        &[
            "K (config)",
            "paper formula",
            "SM bytes ratio",
            "SM cycles ratio",
            "contiguous GF/s",
            "strided GF/s",
        ],
        &rows,
    );
    println!(
        "\nThe SM-traffic ratio includes the (identical) filter reads and\n\
         staging, so it sits below the image-only formula; the cycle ratio\n\
         exceeds it because the strided layout also forfeits the matched\n\
         (float2) access width — both of the paper's section 4 design\n\
         choices, isolated."
    );
    ExitCode::SUCCESS
}

/// §6 — shared-memory fabric utilization by computation data width.
pub fn ablation_dtype(_: &Args) -> ExitCode {
    println!("Section 6 — shared-memory fabric utilization by data width\n");
    let mut rows = Vec::new();
    for spec in [GpuSpec::kepler_k40m(), GpuSpec::maxwell_like()] {
        for dtype in [DataType::F32, DataType::F16, DataType::I8] {
            let mut gpu = Gpu::new(spec.clone()).with_parallelism(Parallelism::env_or_auto());
            let mut probe = |matched| {
                BandwidthProbe::new(dtype, matched)
                    .run(&mut gpu)
                    .expect("probe")
            };
            let un = probe(false);
            let ma = probe(true);
            rows.push(vec![
                spec.name.to_string(),
                format!("{}", spec.bank_width),
                dtype.to_string(),
                un.predicted_n.to_string(),
                format!("{:.1}%", 100.0 * un.utilization),
                format!("{:.1}%", 100.0 * ma.utilization),
                format!("{:.2}x", ma.utilization / un.utilization),
            ]);
        }
    }
    print_table(
        &[
            "architecture",
            "bank",
            "type",
            "n",
            "unmatched util",
            "matched util",
            "gain",
        ],
        &rows,
    );
    println!(
        "\nThe gain column equals n = W_SMB / W_CD exactly: vectorizing each\n\
         thread's accesses to the bank width recovers the whole fabric, for\n\
         every data type, on both bank widths — the paper's closing claim."
    );
    ExitCode::SUCCESS
}

/// The prefetch/overlap contribution: one counted execution re-timed
/// under each overlap model.
pub fn ablation_overlap(_: &Args) -> ExitCode {
    println!("Ablation — overlap model vs achieved GFlop/s (K = 3x3)\n");
    let spec = GpuSpec::kepler_k40m();
    let mut rows = Vec::new();
    // One counted launch of `conv`, re-timed under each overlap model
    // with the launch resources `launch` declares.
    let mut retime = |label: &str,
                      conv: &dyn Convolution,
                      launch: LaunchConfig,
                      problem: ConvProblem,
                      seeds: [u64; 2]| {
        let stats = sampled_run(conv, &spec, &problem, seeds, false)
            .report
            .stats;
        for overlap in [
            OverlapMode::Prefetch,
            OverlapMode::Moderate,
            OverlapMode::Serial,
        ] {
            let launch = LaunchConfig {
                blocks: stats.blocks_total as usize,
                overlap,
                ..launch.clone()
            };
            let t = timing::evaluate(&spec, &launch, &stats).expect("timing");
            rows.push(vec![
                label.to_string(),
                format!("{overlap:?}"),
                format!("{:.3}", t.t_total * 1e3),
                format!("{:.0}", problem.flops() as f64 / t.t_total / 1e9),
            ]);
        }
    };
    let special = SpecialConfig::kepler_best();
    retime(
        "special N=1024 F=32",
        &SpecialConv::new(special),
        LaunchConfig::new("special", 0, special.threads())
            .with_smem(special.smem_bytes(3))
            .with_regs(special.regs_per_thread(3)),
        ConvProblem::special(1024, 32, 3),
        [401, 403],
    );
    let general = GeneralConfig::table1_3x3();
    retime(
        "general N'=128 C=64 F=64",
        &GeneralConv::new(general),
        LaunchConfig::new("general", 0, general.threads())
            .with_smem(general.smem_bytes(3))
            .with_regs(general.regs_per_thread(3)),
        ConvProblem::general(130, 64, 64, 3),
        [405, 407],
    );

    print_table(&["kernel", "overlap", "time (ms)", "GFlop/s"], &rows);
    println!(
        "\nPrefetch-vs-Serial is the modeled value of the register\n\
         double-buffering in Algorithms 1 and 2; the paper attributes its\n\
         F = 1 slowdown to exactly this overlap being unavailable."
    );
    ExitCode::SUCCESS
}

/// Kepler vs Fermi vs Maxwell-like: the unmatched-kernel penalty per
/// architecture and data type.
pub fn ablation_arch(_: &Args) -> ExitCode {
    println!("Cross-architecture ablation — unmatched-kernel penalty (special case)\n");
    let problem = ConvProblem::special(1024, 8, 3);
    let specs = [
        GpuSpec::kepler_k40m(),
        GpuSpec::fermi_m2090(),
        GpuSpec::maxwell_like(),
    ];

    let mut rows = Vec::new();
    for spec in &specs {
        let seconds = |conv: &dyn Convolution| {
            sampled_run(conv, spec, &problem, [501, 503], false)
                .report
                .seconds()
        };
        for (dtype, storage, bytes) in [
            ("f32", Storage::F32, 4),
            ("fp16", Storage::F16, 2),
            ("int8", Storage::I8, 1),
        ] {
            let n = spec.mismatch_factor(bytes);
            let matched = seconds(&SpecialConv::with_storage(storage, n as usize));
            let scalar = seconds(&SpecialConv::with_storage(storage, 1));
            rows.push(vec![
                spec.name.to_string(),
                dtype.into(),
                n.to_string(),
                format!("{:.3}", matched * 1e3),
                format!("{:.3}", scalar * 1e3),
                format!("{:.1}%", 100.0 * (scalar / matched - 1.0)),
            ]);
        }
    }
    print_table(
        &[
            "architecture",
            "type",
            "n",
            "matched (ms)",
            "scalar (ms)",
            "scalar penalty",
        ],
        &rows,
    );
    println!(
        "\nThe penalty tracks n: where n = 1 the scalar kernel is already\n\
         matched (no penalty beyond instruction-count noise); the paper's\n\
         optimization is Kepler-specific for f32 but universal for fp16 —\n\
         exactly its section-6 argument."
    );
    ExitCode::SUCCESS
}

/// Related work — direct vs Winograd F(2x2, 3x3).
pub fn winograd_compare(_: &Args) -> ExitCode {
    println!("Related work — direct vs Winograd F(2x2, 3x3)\n");

    // Verify once, loudly, that the Winograd implementation is exact.
    let p = ConvProblem::general(18, 4, 8, 3);
    let input = random_maps(4, 18, 18, 601);
    let filters = random_filters(8, 4, 3, 603);
    let wino = winograd_conv_3x3(&p, &input, &filters).expect("winograd");
    let direct = conv_reference(&p, &input, &filters);
    kconv_tensor::assert_close(wino.as_slice(), direct.as_slice(), 1e-4, "winograd check");
    println!("correctness: Winograd output == direct reference (16x16x8, C=4) ✓\n");

    let kepler = GpuSpec::kepler_k40m();
    let mut rows = Vec::new();
    for (n, c, f) in [(64usize, 64usize, 64usize), (128, 128, 128), (256, 64, 128)] {
        let problem = ConvProblem::general(n + 2, c, f, 3);
        let (mul_direct, mul_wino) = multiplication_counts(&problem);
        let (mem_direct, mem_wino) = transformed_filter_bytes(&problem);

        // Measured direct-kernel rate on the simulated K40m.
        let direct_gflops = sampled_run(
            &GeneralConv::table1(3),
            &kepler,
            &problem,
            [605, 607],
            false,
        )
        .effective_gflops(&problem);
        let wino_bound = direct_gflops * mul_direct as f64 / mul_wino as f64;

        rows.push(vec![
            format!("{n}x{n} C={c} F={f}"),
            format!("{:.2}x", mul_direct as f64 / mul_wino as f64),
            format!("{:.2}x", mem_wino as f64 / mem_direct as f64),
            format!("{direct_gflops:.0}"),
            format!("{wino_bound:.0}"),
        ]);
    }
    print_table(
        &[
            "problem",
            "mult. reduction",
            "filter memory",
            "direct (GF/s, measured)",
            "Winograd bound (GF/s)",
        ],
        &rows,
    );

    println!("\nrestrictions (why the paper calls direct convolution universal):");
    let mut rows = Vec::new();
    for (k, name) in [(3usize, "3x3"), (5, "5x5"), (7, "7x7"), (1, "1x1")] {
        let problem = ConvProblem::general(32, 4, 4, k);
        let inp = random_maps(4, 32, 32, 609);
        let flt = random_filters(4, 4, k, 611);
        let served = winograd_conv_3x3(&problem, &inp, &flt).is_ok();
        rows.push(vec![
            name.to_string(),
            if served {
                "yes".into()
            } else {
                "no (filter-size-specialized)".into()
            },
        ]);
    }
    print_table(&["filter", "F(2x2,3x3) applicable"], &rows);
    println!(
        "\nThe 2.25x bound also assumes the transforms are free; on real\n\
         hardware they cost bandwidth and shared-memory traffic, which is\n\
         why measured Winograd wins are well below 2.25x (paper refs [15,16])."
    );
    ExitCode::SUCCESS
}
