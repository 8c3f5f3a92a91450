//! `bench` — the repository benchmark's one command.
//!
//! ```text
//! bench [--workload NAME] [--seed S] [--seconds N] [--trace 0|1]
//!       [--out FILE] [--spans FILE]
//! bench --compare A.json B.json
//! ```
//!
//! Without `--workload` every workload runs in turn. The last line of
//! standard output is the run's result as one JSON object; a table of
//! every metric by name and unit goes to standard error. The exit code is
//! 1 when the correctness gate fails (or `--compare` finds a regression)
//! and 2 on a usage error. See `BENCHMARK.md`.

use cogra_perfbench::alloc::CountingAlloc;
use cogra_perfbench::compare::compare;
use cogra_perfbench::report::{self, Declared, Host};
use cogra_perfbench::run::{run_workload, Options};
use cogra_perfbench::workloads::table;
use std::io::Write;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: bench [--workload NAME] [--seed S] [--seconds N] [--trace 0|1] \
                     [--out FILE] [--spans FILE]\n       bench --compare A.json B.json";

struct Args {
    workload: Option<String>,
    opts: Options,
    out: Option<String>,
    spans: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        opts: Options {
            seed: 7,
            seconds: 8.0,
            trace: false,
        },
        out: None,
        spans: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.opts.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                args.opts.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| "--seconds needs a positive number".to_string())?
            }
            "--trace" => {
                args.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--out" => args.out = Some(value()?),
            "--spans" => args.spans = Some(value()?),
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some((a, b)) = &args.compare {
        let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
        let declared = Declared::parse(&read("BENCHMARK.json")?)?;
        let (text, regressed) = compare(&declared, &read(a)?, &read(b)?)?;
        print!("{text}");
        return Ok(!regressed);
    }

    let specs = table();
    let chosen: Vec<_> = match &args.workload {
        None => specs.iter().collect(),
        Some(name) => {
            let spec = specs.iter().find(|s| s.name == name).ok_or_else(|| {
                let names: Vec<_> = specs.iter().map(|s| s.name).collect();
                format!("unknown workload `{name}` (one of: {})", names.join(", "))
            })?;
            vec![spec]
        }
    };
    // `git` and `rustc` are asked only when a record is kept.
    let host = args.out.as_ref().map(|_| Host::detect());
    let mut all_correct = true;
    for spec in chosen {
        let outcome = run_workload(spec, &args.opts);
        all_correct &= outcome.correct();
        eprint!("{}", report::table(&outcome));
        if let (Some(path), Some(host)) = (&args.out, &host) {
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("{path}: {e}"))?;
            writeln!(file, "{}", report::record_line(&outcome, &args.opts, host))
                .map_err(|e| format!("{path}: {e}"))?;
        }
        if let Some(path) = &args.spans {
            let path = if args.workload.is_some() {
                path.clone()
            } else {
                format!("{path}.{}", outcome.workload)
            };
            let file = std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
            let mut w = std::io::BufWriter::new(file);
            outcome
                .tracer
                .write_json(&mut w)
                .and_then(|()| w.flush())
                .map_err(|e| format!("{path}: {e}"))?;
        }
        println!("{}", report::result_line(&outcome));
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
