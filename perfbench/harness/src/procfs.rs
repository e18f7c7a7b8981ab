//! Process cost sampling from `/proc` (Linux): CPU time, peak RSS and the
//! machine facts every result records.

use std::fs;

/// Clock ticks per second of the `/proc/<pid>/stat` CPU fields (`USER_HZ`,
/// fixed at 100 by the Linux user ABI).
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds consumed so far by process `pid` (`"self"` for
/// this process), all threads included.
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name is parenthesised and may contain spaces; fields
    // resume after the last ')'. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SEC)
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The facts a result needs to be read on another machine: CPU model,
/// kernel release and the parallelism the harness and server may use.
#[derive(Debug, Clone)]
pub struct Machine {
    pub cpu_model: String,
    pub kernel: String,
    pub parallelism: usize,
}

impl Machine {
    pub fn probe() -> Machine {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
        Machine {
            cpu_model,
            kernel,
            parallelism,
        }
    }
}
