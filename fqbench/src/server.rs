//! The server under test: the release `fq serve` binary as a child
//! process, and a blocking line client for it.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// A running `fq serve`. Dropping it kills the process and waits for it.
pub struct Server {
    child: Child,
    // Held open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Start `fq serve <args…> 127.0.0.1:0` and wait until it listens.
    pub fn spawn(fq: &Path, state: &Path, data_dir: Option<&Path>) -> io::Result<Server> {
        let mut cmd = Command::new(fq);
        cmd.arg("serve").arg(state).arg("127.0.0.1:0");
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let status = child.wait()?;
                return Err(io::Error::other(format!(
                    "fq serve exited before listening ({status})"
                )));
            }
            if let Some(addr) = line.trim().strip_prefix("fq serve: listening on ") {
                let addr = addr.parse().map_err(io::Error::other)?;
                return Ok(Server {
                    child,
                    _stdout: stdout,
                    addr,
                });
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The server's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
        Ok(kb / 1024.0)
    }

    /// SIGKILL the server and wait for it to end.
    pub fn kill(mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait()?;
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One connection: a request line out, a response line back.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    buf: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A stuck server fails the run instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(1 << 16, stream),
            out: Vec::new(),
            buf: String::new(),
        })
    }

    /// Send `line`, return the response line (without its newline).
    pub fn call(&mut self, line: &str) -> io::Result<&str> {
        // One write per request, so the line leaves in one segment.
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)?;
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.buf.trim_end())
    }
}
