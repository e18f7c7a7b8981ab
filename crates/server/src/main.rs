//! `spg-server` binary: serve hop-constrained s-t SPG queries over TCP.
//!
//! ```text
//! spg-server [--listen ADDR] (--gnm N,M,SEED | --graph PATH) [knobs...]
//!
//!   --listen ADDR            bind address (default 127.0.0.1:0)
//!   --gnm N,M,SEED           serve a generated G(n,m) random digraph
//!   --graph PATH             serve an edge-list file (one "u v" per line)
//!   --batch-max N            micro-batch size cap          (default 64)
//!   --batch-deadline-us N    batch-forming deadline in µs  (default 0: drain what is queued)
//!   --queue-cap N            admission queue bound         (default 1024)
//!   --max-frame BYTES        frame payload cap             (default 1 MiB)
//!   --rate R                 per-tenant requests/second    (default off)
//!   --burst B                per-tenant burst tokens       (default 64)
//!   --threads N              batch worker threads          (default auto)
//!   --cache-bytes BYTES      result cache budget           (default 64 MiB)
//! ```
//!
//! Missed queries run per query on the adaptive engine; the cohort-shared
//! Phase 1 (`ServerConfig::shared_phase1`) has no flag and stays off.
//!
//! On success the process prints exactly one `LISTENING <addr>` line on
//! stdout (the readiness handshake the benchmark in `perfbench/` waits
//! for), logs lifecycle events to stderr, and serves until killed.

use std::process::ExitCode;
use std::time::Duration;

use spg_graph::generators::gnm_random;
use spg_graph::io::read_edge_list_file;
use spg_graph::DiGraph;
use spg_server::{ServerConfig, SpgServer};

fn usage(error: &str) -> ExitCode {
    eprintln!("error: {error}");
    eprintln!(
        "usage: spg-server [--listen ADDR] (--gnm N,M,SEED | --graph PATH) \
         [--batch-max N] [--batch-deadline-us N] [--queue-cap N] [--max-frame BYTES] \
         [--rate R] [--burst B] [--threads N] [--cache-bytes BYTES]"
    );
    ExitCode::from(2)
}

struct Cli {
    listen: String,
    graph: DiGraph,
    graph_desc: String,
    config: ServerConfig,
}

fn parse_args() -> Result<Cli, String> {
    let mut listen = "127.0.0.1:0".to_string();
    let mut graph: Option<(DiGraph, String)> = None;
    let mut config = ServerConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--listen" => listen = value("--listen")?,
            "--gnm" => {
                let spec = value("--gnm")?;
                let parts: Vec<&str> = spec.split(',').collect();
                let [n, m, seed] = parts.as_slice() else {
                    return Err(format!("--gnm expects N,M,SEED, got '{spec}'"));
                };
                let n: usize = n.trim().parse().map_err(|_| format!("bad N in '{spec}'"))?;
                let m: usize = m.trim().parse().map_err(|_| format!("bad M in '{spec}'"))?;
                let seed: u64 = seed
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad SEED in '{spec}'"))?;
                graph = Some((gnm_random(n, m, seed), format!("gnm({n},{m},seed={seed})")));
            }
            "--graph" => {
                let path = value("--graph")?;
                let g = read_edge_list_file(&path).map_err(|e| format!("--graph {path}: {e}"))?;
                graph = Some((g, path));
            }
            "--batch-max" => {
                config.batch_max = value("--batch-max")?
                    .parse()
                    .map_err(|_| "bad --batch-max".to_string())?;
            }
            "--batch-deadline-us" => {
                let us: u64 = value("--batch-deadline-us")?
                    .parse()
                    .map_err(|_| "bad --batch-deadline-us".to_string())?;
                config.batch_deadline = Duration::from_micros(us);
            }
            "--queue-cap" => {
                config.queue_capacity = value("--queue-cap")?
                    .parse()
                    .map_err(|_| "bad --queue-cap".to_string())?;
            }
            "--max-frame" => {
                config.max_frame_bytes = value("--max-frame")?
                    .parse()
                    .map_err(|_| "bad --max-frame".to_string())?;
            }
            "--rate" => {
                config.rate_per_sec = value("--rate")?
                    .parse()
                    .map_err(|_| "bad --rate".to_string())?;
            }
            "--burst" => {
                config.burst = value("--burst")?
                    .parse()
                    .map_err(|_| "bad --burst".to_string())?;
            }
            "--threads" => {
                config.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "bad --threads".to_string())?;
            }
            "--cache-bytes" => {
                config.cache_bytes = value("--cache-bytes")?
                    .parse()
                    .map_err(|_| "bad --cache-bytes".to_string())?;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }

    let (graph, graph_desc) =
        graph.ok_or_else(|| "a graph is required: --gnm N,M,SEED or --graph PATH".to_string())?;
    Ok(Cli {
        listen,
        graph,
        graph_desc,
        config,
    })
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(e) => return usage(&e),
    };
    let threads = match cli.config.threads {
        0 => "auto".to_string(),
        n => n.to_string(),
    };
    eprintln!(
        "spg-server: graph {} ({} vertices, {} edges), batch_max {}, deadline {:?}, \
         queue {}, cache {} B, threads {}, shared_phase1 {}",
        cli.graph_desc,
        cli.graph.vertex_count(),
        cli.graph.edge_count(),
        cli.config.batch_max,
        cli.config.batch_deadline,
        cli.config.queue_capacity,
        cli.config.cache_bytes,
        threads,
        cli.config.shared_phase1,
    );
    #[cfg(feature = "failpoints")]
    {
        let armed = spg_core::failpoints::init_from_env();
        if armed > 0 {
            eprintln!("spg-server: {armed} failpoint(s) armed from SPG_FAILPOINTS");
        }
    }
    let server = match SpgServer::bind(cli.graph, &cli.listen, cli.config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("spg-server: bind {}: {e}", cli.listen);
            return ExitCode::FAILURE;
        }
    };
    // The readiness handshake: exactly one line, flushed, on stdout.
    println!("LISTENING {}", server.local_addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    eprintln!("spg-server: serving on {}", server.local_addr());
    match server.run() {
        Ok(()) => {
            eprintln!("spg-server: shut down");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("spg-server: fatal: {e}");
            ExitCode::FAILURE
        }
    }
}
