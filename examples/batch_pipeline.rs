//! Batched inference with narrow storage and a full launch report — the
//! library's inspection surfaces in one place.
//!
//! Runs a batch of grayscale frames through the special-case kernel in
//! three storage precisions (f32, fp16, int8), prints the aggregate
//! throughput of each, and dumps the detailed simulator report for the f32
//! run (coalescing, bank-conflict replay factor, occupancy, ...).
//!
//! Run with: `cargo run --release --example batch_pipeline`

use kconv::core::{run_batch, Storage};
use kconv::prelude::*;
use kconv::sim::render_report;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = GpuSpec::kepler_k40m();
    let problem = ConvProblem::special(512, 16, 3);
    let frames: Vec<FeatureMaps> = (0..4).map(|i| random_maps(1, 512, 512, 40 + i)).collect();
    let filters = random_filters(16, 1, 3, 50);

    println!(
        "batch of {} frames, {problem}, on simulated {spec}\n",
        frames.len()
    );

    let engines: Vec<Box<dyn Convolution>> = vec![
        Box::new(SpecialConv::default()),
        Box::new(SpecialConv::with_storage(Storage::F16, 4)),
        Box::new(SpecialConv::with_storage(Storage::I8, 8)),
    ];
    let mut f32_first_report = None;
    for engine in engines {
        let mut gpu = Gpu::new(spec.clone());
        let batch = run_batch(
            engine.as_ref(),
            &mut gpu,
            &problem,
            &frames,
            &filters,
            SimMode::Sampled(4),
        )?;
        println!(
            "{:<34} {:>8.3} ms total   {:>7.1} GFlop/s   launch overhead {:.2}%",
            engine.name(),
            batch.total_seconds() * 1e3,
            batch.effective_gflops(&problem),
            100.0 * batch.launch_overhead_share(),
        );
        if f32_first_report.is_none() {
            f32_first_report = Some(batch.runs[0].report.clone());
        }
    }

    // Fused batch: one grid over batch x tiles instead of one launch per
    // frame — the overhead and SM-imbalance win, in one call.
    let mut gpu = Gpu::new(spec.clone());
    let fused = SpecialConv::default().run_fused_batch(
        &mut gpu,
        &problem,
        &frames,
        &filters,
        SimMode::Sampled(4),
    )?;
    println!(
        "{:<34} {:>8.3} ms total   {:>7.1} GFlop/s   (single launch)",
        "special f32, fused batch",
        fused.report.seconds() * 1e3,
        problem.flops() as f64 * frames.len() as f64 / fused.report.seconds() / 1e9,
    );

    println!("\ndetailed report of the first f32 launch:\n");
    println!("{}", render_report(&f32_first_report.expect("ran"), &spec));
    println!(
        "Narrow storage wins by exactly its traffic ratio here: the special\n\
         kernel at large F is output-write-bound, and fp16/int8 halve/quarter\n\
         that stream while the matched access width keeps the shared-memory\n\
         instruction count of the f32 kernel (paper, section 6)."
    );
    Ok(())
}
