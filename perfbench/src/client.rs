//! A keep-alive HTTP/1.1 client for the serve workloads: one socket per
//! client thread, `content-length` and chunked framing, and a deadline
//! per job so a stuck job is a failed operation instead of a hang.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One persistent connection.
pub struct Client {
    addr: SocketAddr,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    deadline: Instant,
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            addr,
            writer,
            reader,
            deadline: Instant::now() + Duration::from_secs(60),
        })
    }

    /// Replaces a connection left in an unknown state by a failure.
    pub fn reconnect(&mut self) -> Result<(), String> {
        *self = Client::connect(self.addr)?;
        Ok(())
    }

    /// Every read from now on fails once `deadline` has passed.
    pub fn set_deadline(&mut self, deadline: Instant) {
        self.deadline = deadline;
    }

    fn arm_timeout(&self) -> Result<(), String> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err("deadline exceeded".into());
        }
        self.writer
            .set_read_timeout(Some(left))
            .map_err(|e| e.to_string())
    }

    fn read_line(&mut self) -> Result<String, String> {
        self.arm_timeout()?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed by server".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), String> {
        self.arm_timeout()?;
        self.reader
            .read_exact(buf)
            .map_err(|e| format!("read body: {e}"))
    }

    fn send(&mut self, method: &str, path: &str, body: &str) -> Result<(), String> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("write: {e}"))
    }

    /// Status code and lowercased headers; leaves the reader at the body.
    fn read_head(&mut self) -> Result<(u16, Vec<String>), String> {
        let status_line = self.read_line()?;
        let status = status_line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|r| r.get(..3))
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
        let mut headers = Vec::new();
        loop {
            let line = self.read_line()?.trim_end().to_ascii_lowercase();
            if line.is_empty() {
                return Ok((status, headers));
            }
            headers.push(line);
        }
    }

    fn read_sized_body(&mut self, headers: &[String]) -> Result<String, String> {
        let length: usize = headers
            .iter()
            .find_map(|h| h.strip_prefix("content-length:"))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("no content-length in {headers:?}"))?;
        let mut buf = vec![0u8; length];
        self.read_exact(&mut buf)?;
        String::from_utf8(buf).map_err(|e| e.to_string())
    }

    /// One request/response round trip.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String), String> {
        self.send(method, path, body)?;
        let (status, headers) = self.read_head()?;
        let body = self.read_sized_body(&headers)?;
        Ok((status, body))
    }

    /// `GET path` on a chunked NDJSON stream; returns the last line
    /// before the terminating chunk, or the body of a non-streamed reply.
    pub fn stream_last_line(&mut self, path: &str) -> Result<(u16, String), String> {
        self.send("GET", path, "")?;
        let (status, headers) = self.read_head()?;
        if !headers.iter().any(|h| h == "transfer-encoding: chunked") {
            return Ok((status, self.read_sized_body(&headers)?));
        }
        let mut last = String::new();
        loop {
            let size_line = self.read_line()?;
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| format!("bad chunk size line {size_line:?}"))?;
            if size == 0 {
                self.read_line()?; // trailing CRLF
                return Ok((status, last));
            }
            let mut payload = vec![0u8; size + 2];
            self.read_exact(&mut payload)?;
            payload.truncate(size);
            let text = String::from_utf8(payload).map_err(|e| e.to_string())?;
            // A chunk may carry several lines; keep the last non-empty one.
            if let Some(line) = text.lines().rev().find(|l| !l.trim().is_empty()) {
                last = line.to_string();
            }
        }
    }
}
