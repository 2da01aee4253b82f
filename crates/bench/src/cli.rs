//! The `kconv-bench` command line: one table of harnesses, one parser.
//!
//! `kconv-bench <harness> [flags]` runs one harness. [`HARNESSES`] lists
//! every harness with the exact flags it takes; [`parse`] turns the
//! arguments into an [`Invocation`] or a [`CliError`] without side
//! effects, and [`usage`] renders the table the binary prints when it is
//! invoked badly (for instance with no arguments at all).

use std::process::ExitCode;

use kconv_sim::GpuSpec;

use crate::{ablation, arch, farm, fig8, paper, serve, systolic, trace_report, whatif};

/// One flag a harness can take.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flag {
    /// `--quick`: the reduced sweep.
    Quick,
    /// `--filter K`: one filter size out of the harness's K set.
    Filter(&'static [usize]),
    /// `--check`: exit 1 when any check failed.
    Check,
    /// `--write`: regenerate the golden file instead of comparing.
    Write,
    /// `--spec P`: also re-price under a preset.
    Spec,
    /// `--trace PATH`: replay an external KTRC file.
    Trace,
}

impl Flag {
    /// The flag as typed on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Flag::Quick => "--quick",
            Flag::Filter(_) => "--filter",
            Flag::Check => "--check",
            Flag::Write => "--write",
            Flag::Spec => "--spec",
            Flag::Trace => "--trace",
        }
    }

    /// What the flag's value is, for flags that take one.
    fn value(self) -> Option<&'static str> {
        match self {
            Flag::Filter(_) => Some("a filter size"),
            Flag::Spec => Some("a preset name (kepler, kepler-4b, fermi, maxwell)"),
            Flag::Trace => Some("a path to a KTRC file"),
            Flag::Quick | Flag::Check | Flag::Write => None,
        }
    }

    fn synopsis(self) -> String {
        match self {
            Flag::Filter(ks) => format!("[--filter {}]", join(ks, "|")),
            Flag::Spec => "[--spec P]".into(),
            Flag::Trace => "[--trace PATH]".into(),
            _ => format!("[{}]", self.name()),
        }
    }
}

fn join(ks: &[usize], sep: &str) -> String {
    ks.iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(sep)
}

/// The parsed flags; a flag that was not given keeps its default.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Args {
    /// `--quick`.
    pub quick: bool,
    /// `--check`.
    pub check: bool,
    /// `--write`.
    pub write: bool,
    /// `--filter K`, already checked against the harness's K set.
    pub filter: Option<usize>,
    /// `--spec P`, resolved to its preset.
    pub spec: Option<GpuSpec>,
    /// `--trace PATH`.
    pub trace: Option<String>,
}

/// One harness: the name that selects it, the flags it takes, a one-line
/// description, and its body.
#[derive(Debug)]
pub struct Harness {
    /// The first command-line argument.
    pub name: &'static str,
    /// Every flag the harness accepts; any other is an error.
    pub flags: &'static [Flag],
    /// What the harness reproduces or checks.
    pub about: &'static str,
    /// The body; its exit status is the process's.
    pub run: fn(&Args) -> ExitCode,
}

impl Harness {
    fn synopsis(&self) -> String {
        let mut s = self.name.to_string();
        for flag in self.flags {
            s.push(' ');
            s.push_str(&flag.synopsis());
        }
        s
    }
}

/// Every harness, in the order the usage table lists them.
pub static HARNESSES: &[Harness] = &[
    Harness {
        name: "fig1_patterns",
        flags: &[],
        run: paper::fig1_patterns,
        about: "Fig. 1: the shared-memory access-pattern model, numerically",
    },
    Harness {
        name: "fig2_gemm",
        flags: &[Flag::Quick],
        run: paper::fig2_gemm,
        about: "Fig. 2: SGEMM, cuBLAS-like vs MAGMA vs MAGMA-mod",
    },
    Harness {
        name: "fig7_special",
        flags: &[Flag::Quick, Flag::Filter(&[1, 3, 5])],
        run: paper::fig7_special,
        about: "Fig. 7: special-case convolution vs cuDNN-like",
    },
    Harness {
        name: "special_tune",
        flags: &[Flag::Quick],
        run: paper::special_tune,
        about: "§5.1: special-case tile search (\"W = 256, H = 8 is best\")",
    },
    Harness {
        name: "table1_tune",
        flags: &[Flag::Quick],
        run: paper::table1_tune,
        about: "Table 1: general-case design-space exploration",
    },
    Harness {
        name: "fig8_general",
        flags: &[Flag::Quick, Flag::Filter(&[3, 5, 7])],
        run: paper::fig8_general,
        about: "Fig. 8: general-case convolution vs cuDNN-like",
    },
    Harness {
        name: "bench_smoke",
        flags: &[Flag::Write],
        run: fig8::bench_smoke,
        about: "drift check of the Fig. 8 3x3 layer against GOLDEN_fig8.json",
    },
    Harness {
        name: "ablation_unmatched",
        flags: &[Flag::Quick],
        run: ablation::ablation_unmatched,
        about: "Fig. 7b inset: the cost of ignoring the bank-width model",
    },
    Harness {
        name: "ablation_contiguous",
        flags: &[],
        run: ablation::ablation_contiguous,
        about: "§4.2: contiguous outputs vs the blocked-GEMM layout",
    },
    Harness {
        name: "ablation_dtype",
        flags: &[],
        run: ablation::ablation_dtype,
        about: "§6: short-data-type bank mismatch",
    },
    Harness {
        name: "ablation_overlap",
        flags: &[],
        run: ablation::ablation_overlap,
        about: "prefetch/overlap contribution",
    },
    Harness {
        name: "ablation_arch",
        flags: &[],
        run: ablation::ablation_arch,
        about: "Kepler vs Fermi vs Maxwell-like mismatch penalty",
    },
    Harness {
        name: "winograd_compare",
        flags: &[],
        run: ablation::winograd_compare,
        about: "related work: direct vs Winograd for 3x3",
    },
    Harness {
        name: "trace_report",
        flags: &[Flag::Check, Flag::Spec, Flag::Trace],
        run: trace_report::run,
        about: "traced traffic vs the analytical model, plus the replay gate",
    },
    Harness {
        name: "whatif",
        flags: &[Flag::Check],
        run: whatif::run,
        about: "one capture re-priced under every preset, BENCH_whatif.json",
    },
    Harness {
        name: "farm",
        flags: &[Flag::Check],
        run: farm::run,
        about: "the replay farm: corpus x spec-grid sweep, BENCH_farm.json",
    },
    Harness {
        name: "arch",
        flags: &[Flag::Check],
        run: arch::run,
        about: "the architecture-adaptive generator's gates, BENCH_arch.json",
    },
    Harness {
        name: "systolic",
        flags: &[Flag::Check],
        run: systolic::run,
        about: "the double-buffered pipeline's gates, BENCH_systolic.json",
    },
    Harness {
        name: "serve",
        flags: &[Flag::Check],
        run: serve::run,
        about: "the serving chaos harness, BENCH_serve.json",
    },
    Harness {
        name: "debug_timing",
        flags: &[],
        run: fig8::debug_timing,
        about: "developer utility: per-engine timing breakdown",
    },
];

/// A harness selected and its flags parsed.
#[derive(Debug)]
pub struct Invocation {
    /// The selected harness.
    pub harness: &'static Harness,
    /// Its parsed flags.
    pub args: Args,
}

/// A rejected command line.
#[derive(Debug)]
pub struct CliError {
    /// The one-line diagnostic.
    pub message: String,
    /// The harness the arguments were for, once it is known.
    pub harness: Option<&'static Harness>,
}

impl CliError {
    fn new(harness: Option<&'static Harness>, message: String) -> Self {
        CliError { message, harness }
    }

    /// The usage text to print after the diagnostic: the harness's own
    /// synopsis when the harness is known, else the whole table.
    pub fn usage(&self) -> String {
        match self.harness {
            Some(h) => format!("usage: kconv-bench {}\n", h.synopsis()),
            None => usage(),
        }
    }
}

/// The usage table: one line per harness with its flags and description.
pub fn usage() -> String {
    let synopses: Vec<String> = HARNESSES.iter().map(Harness::synopsis).collect();
    let width = synopses.iter().map(String::len).max().unwrap_or(0);
    let mut s = String::from("usage: kconv-bench <harness> [flags]\n\nharnesses:\n");
    for (synopsis, h) in synopses.iter().zip(HARNESSES) {
        s.push_str(&format!("  {synopsis:<width$}  {}\n", h.about));
    }
    s
}

/// Parses `argv` (without the program name): the harness name, then only
/// flags that harness takes, each value flag followed by its value.
///
/// # Errors
///
/// A missing or unknown harness, a flag the harness does not take, a
/// value flag without a value, a `--filter` outside the harness's K set,
/// or an unknown `--spec` preset.
pub fn parse<S: AsRef<str>>(argv: &[S]) -> Result<Invocation, CliError> {
    let mut rest = argv.iter().map(AsRef::as_ref);
    let Some(name) = rest.next() else {
        return Err(CliError::new(None, "missing harness name".into()));
    };
    let Some(harness) = HARNESSES.iter().find(|h| h.name == name) else {
        return Err(CliError::new(None, format!("unknown harness {name:?}")));
    };
    let fail = |message| Err(CliError::new(Some(harness), message));
    let mut args = Args::default();
    while let Some(arg) = rest.next() {
        let Some(&flag) = harness.flags.iter().find(|f| f.name() == arg) else {
            return fail(format!("unknown argument {arg:?} for {name}"));
        };
        let value = match flag.value() {
            None => "",
            Some(what) => match rest.next().filter(|v| !v.starts_with("--")) {
                Some(v) => v,
                None => return fail(format!("{arg} needs {what}")),
            },
        };
        match flag {
            Flag::Quick => args.quick = true,
            Flag::Check => args.check = true,
            Flag::Write => args.write = true,
            Flag::Filter(ks) => match value.parse().ok().filter(|k| ks.contains(k)) {
                Some(k) => args.filter = Some(k),
                None => {
                    return fail(format!(
                        "--filter {value:?} is not one of {name}'s filter sizes ({})",
                        join(ks, ", ")
                    ))
                }
            },
            Flag::Spec => match GpuSpec::preset(value) {
                Some(spec) => args.spec = Some(spec),
                None => {
                    return fail(format!(
                        "unknown spec preset {value:?} (try kepler, kepler-4b, fermi, maxwell)"
                    ))
                }
            },
            Flag::Trace => args.trace = Some(value.to_string()),
        }
    }
    Ok(Invocation { harness, args })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn error(argv: &[&str]) -> String {
        parse(argv).expect_err("rejected").message
    }

    fn args(argv: &[&str]) -> Args {
        parse(argv).expect("accepted").args
    }

    #[test]
    fn unknown_or_missing_harness_is_rejected_with_the_table() {
        let e = parse(&["fig9_general"]).unwrap_err();
        assert_eq!(e.message, "unknown harness \"fig9_general\"");
        assert_eq!(e.usage(), usage());
        assert_eq!(error(&[]), "missing harness name");
        // Flags before the harness name are not a harness.
        assert_eq!(
            error(&["--quick", "fig8_general"]),
            "unknown harness \"--quick\""
        );
    }

    #[test]
    fn unknown_and_misspelled_flags_are_rejected() {
        assert_eq!(
            error(&["fig8_general", "--fliter", "3", "--quikc"]),
            "unknown argument \"--fliter\" for fig8_general"
        );
        assert_eq!(
            error(&["bench_smoke", "--bogus"]),
            "unknown argument \"--bogus\" for bench_smoke"
        );
        // A real flag of another harness is still unknown here.
        assert_eq!(
            error(&["fig1_patterns", "--quick"]),
            "unknown argument \"--quick\" for fig1_patterns"
        );
        let e = parse(&["farm", "--chek"]).unwrap_err();
        assert_eq!(e.usage(), "usage: kconv-bench farm [--check]\n");
    }

    #[test]
    fn value_flags_need_a_value() {
        assert_eq!(
            error(&["fig7_special", "--filter"]),
            "--filter needs a filter size"
        );
        assert_eq!(
            error(&["fig7_special", "--filter", "--quick"]),
            "--filter needs a filter size"
        );
        assert_eq!(
            error(&["trace_report", "--spec"]),
            "--spec needs a preset name (kepler, kepler-4b, fermi, maxwell)"
        );
        assert_eq!(
            error(&["trace_report", "--trace", "--check"]),
            "--trace needs a path to a KTRC file"
        );
    }

    #[test]
    fn filter_must_be_numeric_and_in_the_figures_k_set() {
        assert_eq!(
            error(&["fig8_general", "--filter", "three"]),
            "--filter \"three\" is not one of fig8_general's filter sizes (3, 5, 7)"
        );
        assert_eq!(
            error(&["fig8_general", "--filter", "4"]),
            "--filter \"4\" is not one of fig8_general's filter sizes (3, 5, 7)"
        );
        assert_eq!(
            error(&["fig8_general", "--filter", "1"]),
            "--filter \"1\" is not one of fig8_general's filter sizes (3, 5, 7)"
        );
        assert_eq!(
            error(&["fig7_special", "--filter", "7"]),
            "--filter \"7\" is not one of fig7_special's filter sizes (1, 3, 5)"
        );
        for k in [1, 3, 5] {
            let v = k.to_string();
            assert_eq!(args(&["fig7_special", "--filter", &v]).filter, Some(k));
        }
        for k in [3, 5, 7] {
            let v = k.to_string();
            assert_eq!(args(&["fig8_general", "--filter", &v]).filter, Some(k));
        }
    }

    #[test]
    fn spec_resolves_its_preset() {
        assert_eq!(
            error(&["trace_report", "--spec", "volta"]),
            "unknown spec preset \"volta\" (try kepler, kepler-4b, fermi, maxwell)"
        );
        let a = args(&[
            "trace_report",
            "--check",
            "--spec",
            "fermi",
            "--trace",
            "t.ktrc",
        ]);
        assert_eq!(
            a,
            Args {
                check: true,
                spec: Some(GpuSpec::fermi_m2090()),
                trace: Some("t.ktrc".into()),
                ..Args::default()
            }
        );
    }

    /// Every harness takes exactly the flags its standalone binary took.
    #[test]
    fn every_harness_accepts_exactly_its_flag_set() {
        let expected: [(&str, &[&str]); 20] = [
            ("fig1_patterns", &[]),
            ("fig2_gemm", &["--quick"]),
            ("fig7_special", &["--quick", "--filter"]),
            ("special_tune", &["--quick"]),
            ("table1_tune", &["--quick"]),
            ("fig8_general", &["--quick", "--filter"]),
            ("bench_smoke", &["--write"]),
            ("ablation_unmatched", &["--quick"]),
            ("ablation_contiguous", &[]),
            ("ablation_dtype", &[]),
            ("ablation_overlap", &[]),
            ("ablation_arch", &[]),
            ("winograd_compare", &[]),
            ("trace_report", &["--check", "--spec", "--trace"]),
            ("whatif", &["--check"]),
            ("farm", &["--check"]),
            ("arch", &["--check"]),
            ("systolic", &["--check"]),
            ("serve", &["--check"]),
            ("debug_timing", &[]),
        ];
        let names: Vec<&str> = HARNESSES.iter().map(|h| h.name).collect();
        let expected_names: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected_names);
        let all = [
            "--quick", "--filter", "--check", "--write", "--spec", "--trace",
        ];
        for (name, flags) in expected {
            assert!(parse(&[name]).is_ok(), "{name} runs without flags");
            for flag in all {
                let mut argv = vec![name, flag];
                match flag {
                    "--filter" => argv.push(if name == "fig7_special" { "1" } else { "7" }),
                    "--spec" => argv.push("maxwell"),
                    "--trace" => argv.push("x.ktrc"),
                    _ => {}
                }
                assert_eq!(parse(&argv).is_ok(), flags.contains(&flag), "{name} {flag}");
            }
        }
    }

    #[test]
    fn usage_lists_every_harness_with_its_flags() {
        let table = usage();
        assert_eq!(table.lines().count(), 3 + HARNESSES.len());
        assert!(table.contains("  fig8_general [--quick] [--filter 3|5|7]"));
        assert!(table.contains("  trace_report [--check] [--spec P] [--trace PATH]"));
    }
}
