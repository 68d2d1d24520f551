//! A minimal HTTP/1.1 keep-alive client for the portal: one request in
//! flight per connection, so every read ends at a response boundary.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use cn_portal::ChunkedDecoder;

pub struct Http {
    stream: TcpStream,
    buf: Vec<u8>,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Http {
    pub fn connect(port: u16) -> io::Result<Http> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Http { stream, buf: Vec::new() })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut tmp = [0u8; 16 * 1024];
        let n = self.stream.read(&mut tmp)?;
        if n == 0 {
            return Err(bad("portal closed the connection"));
        }
        self.buf.extend_from_slice(&tmp[..n]);
        Ok(())
    }

    /// Send one request and read its response: (status, body).
    pub fn roundtrip(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> io::Result<(u16, Vec<u8>)> {
        let head = format!(
            "{method} {target} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let mut request = Vec::with_capacity(head.len() + body.len());
        request.extend_from_slice(head.as_bytes());
        request.extend_from_slice(body);
        self.stream.write_all(&request)?;

        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        self.buf.drain(..head_end);
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("no status code"))?;
        let header = |name: &str| -> Option<String> {
            head.lines().skip(1).find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.trim().eq_ignore_ascii_case(name).then(|| v.trim().to_string())
            })
        };

        if header("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
            let mut dec = ChunkedDecoder::new();
            let mut out = Vec::new();
            loop {
                let used = dec.advance(&self.buf, &mut out).map_err(|e| bad(format!("{e:?}")))?;
                self.buf.drain(..used);
                if dec.is_done() {
                    return Ok((status, out));
                }
                self.fill()?;
            }
        }
        let len: usize = header("content-length").and_then(|v| v.parse().ok()).unwrap_or(0);
        while self.buf.len() < len {
            self.fill()?;
        }
        Ok((status, self.buf.drain(..len).collect()))
    }
}

/// The string value of `"key":"..."` in a flat JSON object.
pub fn field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = json.find(&pat)? + pat.len();
    Some(&json[start..start + json[start..].find('"')?])
}

/// The numeric value of `"key":N` in a flat JSON object.
pub fn number(json: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = json.find(&pat)? + pat.len();
    let digits: String = json[start..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// `GET /metrics` as (name, value) pairs.
pub fn metrics(http: &mut Http) -> io::Result<Vec<(String, f64)>> {
    let (status, body) = http.roundtrip("GET", "/metrics", b"")?;
    if status != 200 {
        return Err(bad(format!("GET /metrics answered {status}")));
    }
    Ok(String::from_utf8_lossy(&body)
        .lines()
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect())
}

/// One value from a `/metrics` scrape (0 when the portal has not created
/// the series yet).
pub fn metric(scrape: &[(String, f64)], name: &str) -> f64 {
    scrape.iter().find(|(k, _)| k == name).map_or(0.0, |(_, v)| *v)
}

/// Mean of the samples histogram `name` gained between two scrapes.
pub fn mean_between(before: &[(String, f64)], after: &[(String, f64)], name: &str) -> f64 {
    let (count, mean) = (format!("{name}.count"), format!("{name}.mean"));
    let sum = |s: &[(String, f64)]| metric(s, &mean) * metric(s, &count);
    (sum(after) - sum(before)) / (metric(after, &count) - metric(before, &count)).max(1.0)
}
