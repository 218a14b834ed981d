//! The server under test as a child process, and client connections to it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a reply may take before the benchmark gives up on the server.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a drained server may take to exit after `shutdown`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(15);

/// A running `tsg-serve --tcp`, killed and reaped on drop.
pub struct Server {
    child: Child,
    addr: String,
    /// Drains the server's stderr so it never blocks on a full pipe.
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts `bin` on an ephemeral loopback port and waits until it listens.
    pub fn spawn(bin: &Path, args: &[&str]) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["--tcp", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(addr) = line.strip_prefix("tsg-serve: listening on ") {
                        break addr.to_string();
                    }
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("{} exited before listening", bin.display()));
                }
            }
        };
        let stderr = std::thread::spawn(move || lines.map_while(Result::ok).for_each(drop));
        Ok(Server {
            child,
            addr,
            stderr: Some(stderr),
        })
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.addr).map_err(|e| format!("cannot connect to {}: {e}", self.addr))
    }

    /// The server's peak resident set (`VmHWM`) so far, in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kib| kib.trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("{path} has no VmHWM line"))
    }

    /// Sends `shutdown`, then waits for the drained server to exit cleanly.
    pub fn stop(mut self) -> Result<(), String> {
        let mut conn = self.connect()?;
        conn.roundtrip("{\"op\":\"shutdown\"}\n")
            .map_err(|e| format!("shutdown: {e}"))?;
        drop(conn);
        let deadline = Instant::now() + EXIT_TIMEOUT;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Ok(None) => return Err("server did not exit after shutdown".into()),
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        };
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// One client connection: a request line out, a reply line back.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        // Each request is written whole in one call; never hold it back.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            stream,
            reply: String::new(),
        })
    }

    /// Sends one newline-terminated request and returns the reply line.
    pub fn roundtrip(&mut self, line: &str) -> std::io::Result<&str> {
        self.stream.write_all(line.as_bytes())?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.reply.trim_end())
    }
}
