//! One spawned `spg-server` process, started with its shipped defaults:
//! only `--listen` plus the graph flag, so removing a tuning knob later can
//! never invalidate the benchmark.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};

/// A running server; killed and reaped on drop, so no exit path of the
/// harness leaves a listener behind.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawns `binary` on an ephemeral loopback port and blocks until its
    /// `LISTENING <addr>` readiness line.
    pub fn spawn(binary: &Path, graph_args: &[String]) -> Result<ServerProc, String> {
        let mut child = Command::new(binary)
            .args(["--listen", "127.0.0.1:0"])
            .args(graph_args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let ready = child.stdout.take().and_then(|out| {
            let mut line = String::new();
            BufReader::new(out).read_line(&mut line).ok()?;
            Some(line)
        });
        let mut server = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let line = ready.unwrap_or_default();
        server.addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("server did not become ready (read {line:?})"))?;
        Ok(server)
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    pub fn connect(&self) -> Result<TcpStream, String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        Ok(stream)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
