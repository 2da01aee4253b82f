//! `kconv-bench <harness> [flags]`: every experiment harness of the
//! reproduction behind one command. Run it without arguments for the
//! harness table; [`kconv_bench::cli`] parses the rest.

use std::process::ExitCode;

fn main() -> ExitCode {
    // Lossy, so a non-UTF-8 argument is rejected (or an unreadable
    // `--trace` path reported) by the parser instead of panicking here.
    let argv: Vec<String> = std::env::args_os()
        .skip(1)
        .map(|a| a.to_string_lossy().into_owned())
        .collect();
    match kconv_bench::cli::parse(&argv) {
        Ok(invocation) => (invocation.harness.run)(&invocation.args),
        Err(e) => {
            eprintln!("error: {}", e.message);
            eprint!("{}", e.usage());
            ExitCode::from(2)
        }
    }
}
