//! CLI for the workspace invariant lints: scans the workspace, prints findings
//! (human-readable by default, `--json` for the CI artifact) and exits
//! non-zero when the gate should fail.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use ptolemy_lint::runner;

const USAGE: &str = "\
ptolemy-lint — offline workspace invariant lints

USAGE:
    cargo run -p ptolemy-lint [-- OPTIONS]

OPTIONS:
    --json             emit the machine-readable JSON report instead of text
    --root <dir>       workspace root to scan (default: current directory)
    --list             list the registered lints and exit
    -h, --help         show this help

EXIT CODE:
    0 when the scan is clean, 1 on any finding, 2 on usage or I/O errors.
";

fn main() -> ExitCode {
    match cli(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("ptolemy-lint: {message}");
            ExitCode::from(2)
        }
    }
}

fn cli(args: Vec<String>) -> Result<ExitCode, String> {
    let mut json = false;
    let mut root = PathBuf::from(".");
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => root = PathBuf::from(iter.next().ok_or("--root needs a directory")?),
            "--list" => {
                for (name, guards) in ptolemy_lint::LINTS {
                    println!("{name}\n    {guards}");
                }
                return Ok(ExitCode::SUCCESS);
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument '{other}'\n\n{USAGE}")),
        }
    }
    let report = runner::run(&root)?;
    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    Ok(if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
