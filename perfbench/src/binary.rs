//! Driving the release `sigrule` binary from outside: building it, timing
//! one-shot `sigrule correct` processes, and talking to a resident
//! `sigrule serve` over loopback TCP.

use crate::host::{self, Exit};
use sigrule_server::json::Json;
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest any single request or process may take before the run fails.
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// Builds the `sigrule` binary from the checkout's sources and returns its
/// path.  Cargo honours `CARGO_TARGET_DIR`, so the path follows it too.
pub fn build() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args([
            "--manifest-path",
            "Cargo.toml",
            "-p",
            "sigrule_cli",
            "--bin",
            "sigrule",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building sigrule failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("sigrule");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} was not built", bin.display()))
    }
}

/// Appends a child's stderr to `log` (kept for diagnosis, never parsed).
fn stderr_to(log: &Path) -> Result<Stdio, String> {
    File::options()
        .create(true)
        .append(true)
        .open(log)
        .map(Stdio::from)
        .map_err(|e| format!("opening {}: {e}", log.display()))
}

/// One finished `sigrule` process.
#[derive(Debug, Clone)]
pub struct Process {
    /// Spawn to reaped exit.
    pub wall_ms: f64,
    pub exit: Exit,
    pub stdout: String,
}

impl Process {
    pub fn succeeded(&self) -> bool {
        self.exit.code == Some(0)
    }
}

/// Runs `sigrule <args>` to completion.  The harness blocks on the child's
/// stdout and then on its exit, so it stays idle while the sample runs.
pub fn run(bin: &Path, args: &[String], log: &Path) -> Result<Process, String> {
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(stderr_to(log)?)
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let exit = host::reap(child).map_err(|e| format!("waiting for sigrule: {e}"))?;
    let wall_ms = host::ms(start.elapsed());
    read.map_err(|e| format!("reading sigrule output: {e}"))?;
    Ok(Process {
        wall_ms,
        exit,
        stdout,
    })
}

/// A resident `sigrule serve --listen tcp:127.0.0.1:0` and one client
/// connection to it.
pub struct Server {
    child: Option<Child>,
    pid: u32,
    addr: String,
    stdout_drain: Option<JoinHandle<()>>,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Server {
    /// Spawns the server, reads its ready line and connects.
    pub fn spawn(bin: &Path, log: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--listen", "tcp:127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr_to(log)?)
            .spawn()
            .map_err(|e| format!("spawning sigrule serve: {e}"))?;
        let pid = child.id();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut ready = String::new();
        let ready_result = stdout.read_line(&mut ready);
        let addr = ready_result
            .ok()
            .and_then(|_| Json::parse(ready.trim()).ok())
            .and_then(|j| {
                j.get("listening")
                    .and_then(Json::as_str)
                    .map(str::to_string)
            })
            .and_then(|l| l.strip_prefix("tcp:").map(str::to_string));
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("sigrule serve gave no ready line (got {ready:?})"));
        };
        // Keep draining stdout so the server can never block on it.
        let stdout_drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut stdout, &mut std::io::sink());
        });
        // One connection: reads and writes go through clones of one stream.
        let stream = connect(&addr).and_then(|s| {
            let writer = s.try_clone().map_err(|e| format!("cloning socket: {e}"))?;
            Ok((s, writer))
        });
        let (stream, writer) = match stream {
            Ok(pair) => pair,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = stdout_drain.join();
                return Err(e);
            }
        };
        Ok(Server {
            child: Some(child),
            pid,
            addr,
            stdout_drain: Some(stdout_drain),
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// `HOST:PORT` the server listens on.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Sends one request line and returns the raw response line.
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("sending request: {e}"))?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(response.trim_end().to_string()),
            Err(e) => Err(format!("reading response: {e}")),
        }
    }

    /// Sends a request and parses the response, failing on `"ok":false`.
    pub fn request_ok(&mut self, line: &str) -> Result<Json, String> {
        let response = self.request(line)?;
        let json = Json::parse(&response).map_err(|e| format!("bad response {response:?}: {e}"))?;
        if json.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(json)
        } else {
            Err(format!("request {line} failed: {response}"))
        }
    }

    /// Asks the server to drain and exit, and reaps it.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.request_ok(r#"{"cmd":"shutdown"}"#)?;
        let child = self.child.take().expect("a live server owns its child");
        let exit = host::reap(child).map_err(|e| format!("waiting for sigrule serve: {e}"))?;
        if let Some(drain) = self.stdout_drain.take() {
            let _ = drain.join();
        }
        match exit.code {
            Some(0) => Ok(()),
            _ => Err(format!("sigrule serve exited with {:?}", exit.code)),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(drain) = self.stdout_drain.take() {
            let _ = drain.join();
        }
    }
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .and_then(|_| stream.set_read_timeout(Some(IO_TIMEOUT)))
        .map_err(|e| format!("configuring socket: {e}"))?;
    Ok(stream)
}
