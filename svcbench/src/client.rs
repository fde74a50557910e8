//! A keep-alive HTTP/1.1 client over one loopback connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One persistent connection.
pub struct Client {
    stream: BufReader<TcpStream>,
}

fn bad(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

impl Client {
    /// Connect (Nagle off: requests are small and latency-timed).
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream: BufReader::new(stream) })
    }

    /// Send one request and read the whole response: `(status, body)`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: svcbench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut raw = Vec::with_capacity(head.len() + body.len());
        raw.extend_from_slice(head.as_bytes());
        raw.extend_from_slice(body);
        self.stream.get_ref().write_all(&raw)?;
        let mut line = String::new();
        if self.stream.read_line(&mut line)? == 0 {
            return Err(bad("connection closed before the status line".into()));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut len = 0usize;
        loop {
            line.clear();
            if self.stream.read_line(&mut line)? == 0 {
                return Err(bad("connection closed mid-headers".into()));
            }
            if line.trim_end().is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                len = v.trim().parse().map_err(|_| bad(format!("bad header {line:?}")))?;
            }
        }
        let mut out = vec![0u8; len];
        self.stream.read_exact(&mut out)?;
        Ok((status, out))
    }
}
