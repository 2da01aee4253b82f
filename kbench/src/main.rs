//! kconv's benchmark: three seeded workloads, each measured end to end on
//! the host clock and the modeled clock, and layer by layer in a separate
//! traced run.
//!
//! ```text
//! cargo run --release --manifest-path kbench/Cargo.toml -- \
//!     --workload cnn-serve --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it is
//! the run manifest. `--trace 1` reports the per-layer metrics instead of
//! the end-to-end ones and writes the spans (Chrome trace-event JSON) and
//! a per-layer self-time table under `kbench/out/`. See `NOTES.md` for
//! the workloads, the metrics and what each one should move.

mod capture;
mod farm;
mod layers;
mod report;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use report::Outcome;
use spans::Recorder;

/// Untimed set-ups before the timed ones. They bring the allocator to the
/// state every later set-up finds (glibc raises its mmap threshold as
/// large blocks are freed), so the timed set-ups all see the same one.
const SETUP_WARMUP: usize = 2;
/// Fewest timed set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Share of the measuring time that timed set-ups take. They run between
/// the measured ops, so that `setup_s` samples the host over the whole
/// run, as the ops do, and not only the moment a run starts.
const SETUP_SHARE: f64 = 0.1;
/// Most timed set-up repetitions per run.
const SETUP_MAX_REPS: usize = 1000;
/// Fewest measured ops in a run, however long one op takes, where one op
/// is short enough to repeat.
pub const MIN_OPS: usize = 3;

/// The command line.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args() -> Result<Cfg, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Cfg {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The repository root (the benchmark lives one level below it).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// A workload's set-up, timed over the run: [`SETUP_WARMUP`] untimed
/// runs, then timed runs between the measured ops ([`Setup::keep_up`]),
/// topped up to [`SETUP_REPS`] at the end ([`Setup::median`]).
pub struct Setup<T, F> {
    make: F,
    times: Vec<f64>,
    /// The last timed set-up's result, freed only after the next one is
    /// made: a set-up then reuses the memory its predecessor freed rather
    /// than the allocator handing it back to the system and faulting it
    /// in again, which it did in some runs and not in others.
    held: Option<T>,
}

impl<T, F: FnMut() -> Result<T, String>> Setup<T, F> {
    /// Runs `make` [`SETUP_WARMUP`] times untimed and once more; returns
    /// the last result, which the workload uses.
    pub fn new(mut make: F) -> Result<(Self, T), String> {
        for _ in 0..SETUP_WARMUP {
            drop(make()?);
        }
        let first = make()?;
        let setup = Setup {
            make,
            times: Vec::new(),
            held: None,
        };
        Ok((setup, first))
    }

    fn rep(&mut self) -> Result<(), String> {
        let t = Instant::now();
        let made = (self.make)()?;
        self.times.push(t.elapsed().as_secs_f64());
        self.held = Some(made);
        Ok(())
    }

    /// Runs timed set-ups until they took [`SETUP_SHARE`] of `elapsed`
    /// seconds of measuring.
    pub fn keep_up(&mut self, elapsed: f64) -> Result<(), String> {
        while self.times.len() < SETUP_MAX_REPS
            && self.times.iter().sum::<f64>() < SETUP_SHARE * elapsed
        {
            self.rep()?;
        }
        Ok(())
    }

    /// Tops the timed set-ups up to [`SETUP_REPS`]; returns their median
    /// wall time.
    pub fn median(&mut self) -> Result<f64, String> {
        while self.times.len() < SETUP_REPS {
            self.rep()?;
        }
        self.held = None;
        Ok(stats::median(&self.times))
    }
}

/// Calls `op` until `seconds` have passed and at least `min_ops` ops
/// ran, and `between` after each op with the seconds measured so far.
/// `op` returns its own measured wall time, so per-op preparation it
/// does outside its timer is not counted; the walls are returned.
pub fn measure(
    seconds: f64,
    min_ops: usize,
    mut between: impl FnMut(f64) -> Result<(), String>,
    mut op: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < min_ops || start.elapsed().as_secs_f64() < seconds {
        walls.push(op()?);
        between(start.elapsed().as_secs_f64())?;
    }
    Ok(walls)
}

/// For [`measure`] calls with nothing to do between ops.
pub fn nothing(_: f64) -> Result<(), String> {
    Ok(())
}

/// The traced run's split of one op into layers: mean seconds per op of
/// each layer's self time, and the mean self time of the op spans
/// themselves (time no layer span covers). `cnn-serve` reports it per
/// cycle of its rounds instead of per op.
#[derive(Debug)]
pub struct SelfTimes {
    /// `(layer, seconds per op)`, in report order.
    pub rows: Vec<(String, f64)>,
    /// Mean traced op time.
    pub op_s: f64,
    /// Mean self time of the op spans.
    pub unattributed: f64,
}

impl SelfTimes {
    /// The table for the op spans `ops` of `rec`, given the layer rows.
    pub fn new(rec: &Recorder, ops: &[usize], rows: Vec<(String, f64)>) -> Self {
        let n = ops.len() as f64;
        SelfTimes {
            rows,
            op_s: ops.iter().map(|&i| rec.spans()[i].dur()).sum::<f64>() / n,
            unattributed: ops.iter().map(|&i| rec.self_time(i)).sum::<f64>() / n,
        }
    }

    /// The table as tab-separated text. The rows plus
    /// `bench.unattributed` add up to `bench.op`.
    fn tsv(&self) -> String {
        let mut out = String::from("layer\tself_s\tshare\n");
        let mut line = |name: &str, s: f64| {
            out.push_str(&format!("{name}\t{s:.6}\t{:.4}\n", s / self.op_s));
        };
        for (name, s) in &self.rows {
            line(name, *s);
        }
        line("bench.unattributed", self.unattributed);
        line("bench.op", self.op_s);
        out
    }
}

/// Mean over traced ops of each op's total time in spans named `name`.
pub fn per_op(rec: &Recorder, ops: &[usize], name: &str) -> f64 {
    let spans = rec.spans();
    let in_op = |mut i: usize, op: usize| loop {
        match spans[i].parent {
            Some(p) if p == op => return true,
            Some(p) => i = p,
            None => return false,
        }
    };
    let total: f64 = spans
        .iter()
        .enumerate()
        .filter(|(i, s)| s.name == name && ops.iter().any(|&op| in_op(*i, op)))
        .map(|(_, s)| s.dur())
        .sum();
    total / ops.len() as f64
}

/// Writes the traced run's spans and self-time table under `kbench/out/`.
fn export(cfg: &Cfg, rec: &Recorder, table: &SelfTimes, manifest: &str) -> Result<(), String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}", cfg.workload, cfg.seed);
    let write = |name: String, body: String| {
        let path = dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))
    };
    write(format!("{stem}.trace.json"), rec.chrome_json())?;
    write(
        format!("{stem}.selftime.tsv"),
        format!("# {manifest}\n{}", table.tsv()),
    )
}

/// What a workload hands back: its outcome, the gates that failed, and in
/// a traced run its spans and self-time table.
pub struct Run {
    /// Counts and metrics.
    pub outcome: Outcome,
    /// One line per failed correctness gate.
    pub failures: Vec<String>,
    /// Spans and self times of the traced run.
    pub traced: Option<(Recorder, SelfTimes)>,
    /// Workers the measured work ran on.
    pub workers: usize,
    /// Spec the workload simulated or priced on.
    pub spec: String,
}

fn manifest(cfg: &Cfg, run: &Run) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    let mut m: BTreeMap<String, String> = run.outcome.notes.clone();
    m.insert("workload".into(), cfg.workload.clone());
    m.insert("seed".into(), cfg.seed.to_string());
    m.insert("seconds".into(), cfg.seconds.to_string());
    m.insert("trace".into(), u8::from(cfg.trace).to_string());
    m.insert(
        "lanes".into(),
        kconv_sim::mem::lanes::active().name().to_string(),
    );
    for k in [
        "KCONV_LANES",
        "KCONV_SANITIZE",
        "KCONV_THREADS",
        "KCONV_STEP_BUDGET",
    ] {
        m.insert(k.into(), env(k));
    }
    m.insert("workers".into(), run.workers.to_string());
    m.insert(
        "host_cores".into(),
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .to_string(),
    );
    m.insert("spec".into(), run.spec.clone());
    m.insert("git_rev".into(), report::git_rev(&repo_root()));
    report::json_object(&m)
}

fn main() {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("kbench: {e}");
            eprintln!(
                "usage: kbench --workload <cnn-serve|farm-sweep|trace-capture> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let result = match cfg.workload.as_str() {
        "cnn-serve" => serve::run(&cfg),
        "farm-sweep" => farm::run(&cfg),
        "trace-capture" => capture::run(&cfg),
        other => Err(format!("unknown workload {other:?}")),
    };
    let mut run = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("kbench: {e}");
            std::process::exit(2);
        }
    };
    let m = &mut run.outcome.metrics;
    if cfg.trace {
        let (_, table) = run.traced.as_ref().expect("a traced run records spans");
        m.put("bench.op_s", table.op_s);
        m.put("bench.unattributed_s", table.unattributed);
    }
    let missing = m.missing().join(", ");
    if !missing.is_empty() {
        run.failures
            .push(format!("metrics not measured: {missing}"));
    }
    let bad = m.non_finite().join(", ");
    if !bad.is_empty() {
        run.failures.push(format!("non-finite metrics: {bad}"));
    }
    let manifest = manifest(&cfg, &run);
    if let Some((rec, table)) = &run.traced {
        eprint!("{}", table.tsv());
        if let Err(e) = export(&cfg, rec, table, &manifest) {
            run.failures.push(e);
        }
    }
    for f in &run.failures {
        eprintln!("kbench: gate failed: {f}");
    }
    let correct = run.failures.is_empty();
    println!("{manifest}");
    println!("{}", report::result_line(correct, &run.outcome));
    if !correct {
        std::process::exit(1);
    }
}
