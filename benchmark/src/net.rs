//! The HTTP side of the benchmark: a minimal keep-alive client, the
//! server under test, and `/metrics` scraping.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use ibcm_core::{MisuseDetector, StreamConfig};
use ibcm_http::{HttpConfig, HttpServer, HttpService};
use ibcm_obs::Stopwatch;
use ibcm_served::{CheckpointStore, Daemon, ServedConfig};

use crate::BenchError;

/// Socket read timeout of the client: a reply slower than this is an I/O
/// failure, never a hang.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// One HTTP response with its client-side timing.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Seconds from writing the request to the end of the response head.
    pub head_s: f64,
    /// Seconds from writing the request to the last body byte.
    pub total_s: f64,
}

/// A keep-alive HTTP/1.1 connection. Each request is written with a
/// single `write_all`, so the client side adds no small-segment delay of
/// its own.
pub struct Conn {
    reader: BufReader<TcpStream>,
    host: String,
}

impl Conn {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            host: addr.to_string(),
        })
    }

    /// Sends one request and reads the whole response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Reply> {
        let mut message = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n",
            self.host,
            body.len()
        );
        if !body.is_empty() {
            message.push_str("Content-Type: application/x-ndjson\r\n");
        }
        message.push_str("\r\n");
        let mut bytes = message.into_bytes();
        bytes.extend_from_slice(body);
        let clock = Stopwatch::start();
        self.reader.get_mut().write_all(&bytes)?;

        let mut status = 0u16;
        let mut length = 0usize;
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(invalid("connection closed mid-response"));
            }
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if status == 0 {
                status = trimmed
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| invalid("malformed status line"))?;
            } else if let Some((name, value)) = trimmed.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| invalid("malformed content-length"))?;
                }
            }
        }
        let head_s = clock.elapsed_seconds();
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok(Reply {
            status,
            body,
            head_s,
            total_s: clock.elapsed_seconds(),
        })
    }
}

fn invalid(msg: &'static str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Sum of every sample of `name` in a Prometheus exposition whose label
/// set contains each of `labels` (`key="value"` fragments).
pub fn scrape(text: &str, name: &str, labels: &[&str]) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(series, _)| {
            let (metric, label_set) = series.split_once('{').unwrap_or((series, ""));
            metric == name && labels.iter().all(|want| label_set.contains(want))
        })
        .filter_map(|(_, value)| value.parse::<f64>().ok())
        .sum()
}

/// How the server under test is run.
#[derive(Debug, Clone)]
pub enum ServerKind {
    /// The shipped `ibcm-serve` executable at this path, as a child
    /// process serving the set-up bundle with its default flags.
    Binary(PathBuf),
    /// `HttpServer` in this process, wired as `ibcm-serve` wires it (test
    /// builds, which have no `ibcm-serve` executable).
    InProcess,
}

enum Running {
    Child {
        child: Child,
        stdin: Option<ChildStdin>,
        _stdout: Option<BufReader<ChildStdout>>,
    },
    InProcess {
        server: HttpServer,
        service: Arc<HttpService>,
    },
}

/// A started, ready server. Dropping it stops it too, ignoring errors;
/// [`Server::stop`] reports them.
pub struct Server {
    addr: SocketAddr,
    running: Option<Running>,
}

impl Server {
    /// Starts a server on an ephemeral loopback port serving `bundle`
    /// (or `detector`, in process) and waits until `GET /readyz` is 200.
    pub fn start(
        kind: &ServerKind,
        bundle: &Path,
        detector: &Arc<MisuseDetector>,
    ) -> Result<Server, BenchError> {
        let (addr, running) = match kind {
            ServerKind::Binary(exe) => {
                let mut child = Command::new(exe)
                    .arg("--addr")
                    .arg("127.0.0.1:0")
                    .arg("--bundle")
                    .arg(bundle)
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped())
                    .spawn()
                    .map_err(|e| BenchError::Io(format!("spawning {}: {e}", exe.display())))?;
                let stdin = child.stdin.take();
                // The reader stays open until the child exits: the server
                // prints more than this first line, and a closed pipe
                // would fail its writes.
                let mut stdout = child.stdout.take().map(BufReader::new);
                let mut line = String::new();
                let addr = stdout
                    .as_mut()
                    .and_then(|out| out.read_line(&mut line).ok())
                    .and_then(|_| line.trim().rsplit("http://").next()?.parse().ok());
                let running = Running::Child {
                    child,
                    stdin,
                    _stdout: stdout,
                };
                match addr {
                    Some(addr) => (addr, running),
                    None => {
                        let _ = stop_running(running);
                        return Err(BenchError::Io(
                            "ibcm-serve did not report its address".into(),
                        ));
                    }
                }
            }
            ServerKind::InProcess => {
                let served = ServedConfig::new(StreamConfig::default());
                let daemon = Daemon::new(Arc::clone(detector), served, CheckpointStore::memory())
                    .map_err(|e| BenchError::Io(format!("daemon: {e}")))?;
                let http = HttpConfig::new();
                let service = Arc::new(HttpService::new(
                    Arc::clone(detector),
                    daemon,
                    http.alarm_buffer,
                    http.max_batch_events,
                ));
                let server = HttpServer::bind(http, Arc::clone(&service))
                    .map_err(|e| BenchError::Io(format!("bind: {e}")))?;
                (server.local_addr(), Running::InProcess { server, service })
            }
        };
        let server = Server {
            addr,
            running: Some(running),
        };
        server.wait_ready()?;
        Ok(server)
    }

    fn wait_ready(&self) -> Result<(), BenchError> {
        let clock = Stopwatch::start();
        while clock.elapsed_seconds() < 30.0 {
            let ready = Conn::connect(self.addr)
                .and_then(|mut c| c.request("GET", "/readyz", b""))
                .is_ok_and(|r| r.status == 200);
            if ready {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(BenchError::Io("server not ready within 30 s".into()))
    }

    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Peak resident set of the serving process in MB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> Option<f64> {
        match self.running.as_ref()? {
            Running::Child { child, .. } => peak_rss_mb(&format!("/proc/{}/status", child.id())),
            Running::InProcess { .. } => peak_rss_mb("/proc/self/status"),
        }
    }

    /// Stops the server and waits for it (see [`stop_running`]).
    pub fn stop(mut self) -> Result<(), BenchError> {
        self.running.take().map_or(Ok(()), stop_running)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(running) = self.running.take() {
            let _ = stop_running(running);
        }
    }
}

/// Stops a server and waits for it: a child sees stdin close, drains and
/// exits, and is killed if it has not exited within 30 s.
fn stop_running(running: Running) -> Result<(), BenchError> {
    match running {
        Running::Child {
            mut child, stdin, ..
        } => {
            drop(stdin);
            let clock = Stopwatch::start();
            loop {
                match child.try_wait() {
                    Ok(Some(status)) if status.success() => return Ok(()),
                    Ok(Some(status)) => {
                        return Err(BenchError::Io(format!("ibcm-serve exited with {status}")))
                    }
                    Ok(None) if clock.elapsed_seconds() < 30.0 => {
                        std::thread::sleep(Duration::from_millis(10))
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(BenchError::Io("ibcm-serve did not stop; killed".into()));
                    }
                }
            }
        }
        Running::InProcess {
            mut server,
            service,
        } => {
            server.shutdown();
            service
                .drain()
                .map(|_| ())
                .map_err(|e| BenchError::Io(format!("drain: {e}")))
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Resets this process's `VmHWM` to its current resident set, so a later
/// [`peak_rss_mb`] reading covers only what happens after this call.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}
