//! The benchmark's own closed-loop HTTP client: one persistent keep-alive
//! connection, one request in flight, every answer parsed and checked.

use gqr::serve::json::{self, Json};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A decoded `200` body.
#[derive(Clone, Debug)]
pub struct Answer {
    pub ids: Vec<u32>,
    pub distances: Vec<f32>,
    pub buckets_probed: u64,
    pub empty_buckets: u64,
    pub items_evaluated: u64,
    pub predicted_recall: Option<f64>,
}

impl Answer {
    /// Decode a response body; `None` when it is not the wire schema.
    pub fn parse(body: &[u8]) -> Option<Answer> {
        let doc = json::parse(body).ok()?;
        let ids = doc
            .get("ids")?
            .as_array()?
            .iter()
            .map(|v| v.as_u64().and_then(|n| u32::try_from(n).ok()))
            .collect::<Option<Vec<u32>>>()?;
        let distances = doc
            .get("distances")?
            .as_array()?
            .iter()
            .map(|v| v.as_f64().map(|d| d as f32))
            .collect::<Option<Vec<f32>>>()?;
        let stats = doc.get("stats")?;
        let stat = |name: &str| stats.get(name).and_then(Json::as_u64);
        Some(Answer {
            ids,
            distances,
            buckets_probed: stat("buckets_probed")?,
            empty_buckets: stat("empty_buckets")?,
            items_evaluated: stat("items_evaluated")?,
            predicted_recall: doc.get("predicted_recall").and_then(Json::as_f64),
        })
    }

    /// The structural checks every answer must pass: exactly `expected`
    /// ids, one distance per id, distances ascending.
    pub fn well_formed(&self, expected: usize) -> bool {
        self.ids.len() == expected
            && self.distances.len() == expected
            && self.distances.windows(2).all(|w| w[0] <= w[1])
    }
}

/// One keep-alive connection to the server under test.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(15)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Send one prepared request and read the whole response. Returns the
    /// status, the body (borrowed from the connection's buffer) and the
    /// response size in bytes, head included.
    pub fn round_trip(&mut self, request: &[u8]) -> io::Result<(u16, &[u8], usize)> {
        self.stream.write_all(request)?;
        let (head_end, total) =
            read_message(&mut self.stream, &mut self.buf)?.ok_or(io::ErrorKind::UnexpectedEof)?;
        let status: u16 = std::str::from_utf8(&self.buf[..head_end])
            .ok()
            .and_then(|head| head.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        Ok((status, &self.buf[head_end + 4..total], total))
    }

    /// Round trip, then decode and check: `Some(answer)` only for a `200`
    /// whose body is well formed with exactly `expected` ids.
    pub fn search(&mut self, request: &[u8], expected: usize) -> Option<Answer> {
        match self.round_trip(request) {
            Ok((200, body, _)) => Answer::parse(body).filter(|a| a.well_formed(expected)),
            _ => None,
        }
    }
}

/// Read one HTTP/1.1 message (head, then `content-length` bytes of body)
/// into `buf`. Returns `(length of the head, length of the message)`, or
/// `None` when the peer closed before the first byte. Requests and
/// responses frame alike, so the reference server reads with this too.
pub fn read_message(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
) -> io::Result<Option<(usize, usize)>> {
    buf.clear();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return match buf.is_empty() {
                true => Ok(None),
                false => Err(io::ErrorKind::UnexpectedEof.into()),
            };
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let length: usize = std::str::from_utf8(&buf[..head_end])
        .ok()
        .and_then(|head| {
            head.split("\r\n")
                .filter_map(|l| l.split_once(':'))
                .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        })
        .and_then(|(_, v)| v.trim().parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no content-length"))?;
    let total = head_end + 4 + length;
    while buf.len() < total {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    Ok(Some((head_end, total)))
}
