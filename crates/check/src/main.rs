//! `treelocal-check` — validate a directory (or explicit files) of
//! `treelocal-cert` certificates.
//!
//! Exit codes: 0 = every certificate valid, 1 = at least one rejected,
//! 2 = usage or I/O error.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: treelocal-check DIR|FILE...

Validates every *.cert file in the given directories (and every file
named explicitly), printing one OK/FAIL line per certificate.";

fn collect(args: &[String]) -> Result<Vec<PathBuf>, String> {
    let mut certs: Vec<PathBuf> = Vec::new();
    for arg in args {
        let path = Path::new(arg);
        if path.is_dir() {
            let entries = std::fs::read_dir(path).map_err(|e| format!("cannot read {arg}: {e}"))?;
            let mut found = Vec::new();
            for entry in entries {
                let entry = entry.map_err(|e| format!("cannot read {arg}: {e}"))?;
                let p = entry.path();
                if p.extension().is_some_and(|ext| ext == "cert") {
                    found.push(p);
                }
            }
            if found.is_empty() {
                return Err(format!("no .cert files in {arg}"));
            }
            certs.extend(found);
        } else if path.is_file() {
            certs.push(path.to_path_buf());
        } else {
            return Err(format!("no such file or directory: {arg}"));
        }
    }
    certs.sort();
    Ok(certs)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let certs = match collect(&args) {
        Ok(certs) => certs,
        Err(msg) => {
            eprintln!("{msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut failures = 0usize;
    for path in &certs {
        let name = path.display();
        // Bytes, not a String: a certificate that is not UTF-8 is a
        // rejection like any other malformed one, not an I/O error.
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) => {
                eprintln!("cannot read {name}: {e}");
                return ExitCode::from(2);
            }
        };
        match treelocal_check::check_bytes(&bytes) {
            Ok(()) => println!("OK   {name}"),
            Err(e) => {
                println!("FAIL {name}: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} of {} certificates rejected", certs.len());
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
