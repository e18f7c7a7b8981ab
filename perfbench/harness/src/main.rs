//! `perfbench` — the repository's benchmark: a load generator that drives
//! the release `spg-server` binary over loopback TCP, checks every reply
//! against the EVE oracle, and (with `--trace 1`) replays the same request
//! sequence in-process with one span per layer call.
//!
//! ```text
//! perfbench --server PATH --out DIR --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --server PATH --out DIR --self-check
//! ```
//!
//! The last stdout line is the result object (`correct`, `attempted`,
//! `failed`, `metrics`); the line before it records the machine. See
//! `perfbench/README.md` for the workloads and the metric map.

mod e2e;
mod load;
mod procfs;
mod replay;
mod report;
mod server;
mod trace;
mod verify;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::procfs::Machine;
use crate::report::{result_line, Metrics};
use crate::trace::Tracer;
use crate::verify::Check;
use crate::workload::{Kind, Scale, Workload};

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    out: PathBuf,
    self_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        server: PathBuf::new(),
        out: PathBuf::from("."),
        self_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-check" {
            args.self_check = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value == "1",
            "--server" => args.server = PathBuf::from(value),
            "--out" => args.out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if args.workload.is_none() && !args.self_check {
        return Err("--workload or --self-check is required".into());
    }
    Ok(args)
}

/// One run's outcome.
struct Outcome {
    check: Check,
    metrics: Metrics,
    client_cpu_share: f64,
}

fn run(
    kind: Kind,
    scale: Scale,
    args: &Args,
    seconds: f64,
    trace: bool,
    machine: &Machine,
) -> Result<Outcome, String> {
    let t0 = std::time::Instant::now();
    let w = Workload::build(kind, scale, args.seed, seconds, &args.out)?;
    let t1 = std::time::Instant::now();
    let mut e2e = e2e::run(&w, &args.server, seconds, machine.parallelism)?;
    eprintln!(
        "perfbench: {}: inputs {:.1} s, end-to-end run and check {:.1} s",
        kind.name(),
        (t1 - t0).as_secs_f64(),
        t1.elapsed().as_secs_f64()
    );
    if !trace {
        return Ok(Outcome {
            metrics: std::mem::take(&mut e2e.metrics),
            check: e2e.check,
            client_cpu_share: e2e.client_cpu_share,
        });
    }
    let mut tracer = Tracer::new();
    let mut check = std::mem::take(&mut e2e.check);
    let (metrics, ranking) = replay::run(&w, &e2e, &mut tracer, &mut check);
    let tag = format!("{}-seed{}", kind.name(), args.seed);
    write(
        &args.out.join(format!("spans-{tag}.jsonl")),
        &tracer.to_jsonl(),
    )?;
    let rows: Vec<String> = ranking
        .iter()
        .map(|(name, us)| format!("{{\"step\": \"{name}\", \"median_self_us\": {us:?}}}"))
        .collect();
    let summary = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"end_to_end\": {}, \"per_layer\": {}, \
         \"largest_self_times\": [{}]}}\n",
        kind.name(),
        args.seed,
        e2e.metrics.to_json(),
        metrics.to_json(),
        rows.join(", ")
    );
    write(&args.out.join(format!("summary-{tag}.json")), &summary)?;
    eprintln!(
        "{} largest median self times (us): {ranking:?}",
        kind.name()
    );
    Ok(Outcome {
        check,
        metrics,
        client_cpu_share: e2e.client_cpu_share,
    })
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn env_line(machine: &Machine, kind: Kind, args: &Args, client_cpu_share: f64) -> String {
    format!(
        "{{\"env\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {:?}, \"cpu_model\": {:?}, \
         \"kernel\": {:?}, \"available_parallelism\": {}, \"harness_cpu_share\": {:?}}}}}",
        kind.name(),
        args.seed,
        args.seconds,
        machine.cpu_model,
        machine.kernel,
        machine.parallelism,
        client_cpu_share
    )
}

/// Runs every workload and the traced replay on tiny inputs with full
/// verification: the benchmark's own test.
fn self_check(args: &Args, machine: &Machine) -> bool {
    let mut ok = true;
    for kind in Kind::ALL {
        match run(kind, Scale::TINY, args, 1.0, true, machine) {
            Ok(out) => {
                let passed = out.check.failed == 0 && out.check.attempted > 0;
                ok &= passed;
                let notes: String = out.check.notes.iter().map(|n| format!("; {n}")).collect();
                println!(
                    "self-check {}: {} ({} checked, {} failed{notes})",
                    kind.name(),
                    if passed { "ok" } else { "FAILED" },
                    out.check.attempted,
                    out.check.failed,
                );
            }
            Err(e) => {
                ok = false;
                println!("self-check {}: FAILED ({e})", kind.name());
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let machine = Machine::probe();
    let Some(kind) = args.workload.filter(|_| !args.self_check) else {
        return if self_check(&args, &machine) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    };
    match run(kind, Scale::FULL, &args, args.seconds, args.trace, &machine) {
        Ok(out) => {
            for note in &out.check.notes {
                eprintln!("perfbench: {note}");
            }
            println!("{}", env_line(&machine, kind, &args, out.client_cpu_share));
            let correct = out.check.failed == 0 && out.check.attempted > 0;
            println!(
                "{}",
                result_line(correct, out.check.attempted, out.check.failed, &out.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
