//! The reference load: a server of the benchmark's own, sharing no code
//! with the program, that the same clients call in alternation with the
//! program inside every slice.
//!
//! The sandbox's speed drifts by tens of percent over minutes (a
//! single-threaded CPU-bound loop does), which is more than the regression
//! a bound is there to catch. A request to this server costs what the host
//! makes it cost at that moment — a socket round trip, two thread wake-ups
//! and a fixed scan — so dividing the program's numbers by the reference's,
//! slice by slice, cancels most of the drift. The end-to-end timing metrics
//! are those ratios; the raw values are reported beside them.
//!
//! The reference is part of the definition of those metrics: changing it
//! invalidates every committed baseline.

use crate::client::read_message;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Rows scored per reference request, with a plain loop (no product kernel).
pub const REFERENCE_ROWS: usize = 2000;
/// Bytes of body in every reference response, about a `/search` answer's.
const RESPONSE_BODY: usize = 300;

pub struct ReferenceServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: JoinHandle<Vec<JoinHandle<()>>>,
}

impl ReferenceServer {
    /// Serve on `127.0.0.1:0`, one thread per connection, scoring the first
    /// `REFERENCE_ROWS` rows of `rows` for every request.
    pub fn start(rows: &'static [f32], dim: usize) -> std::io::Result<ReferenceServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopping = Arc::clone(&stop);
        let rows = &rows[..REFERENCE_ROWS.min(rows.len() / dim) * dim];
        let accept = std::thread::spawn(move || {
            let mut handlers = Vec::new();
            for stream in listener.incoming().flatten() {
                if stopping.load(Ordering::SeqCst) {
                    break;
                }
                handlers.push(std::thread::spawn(move || serve(stream, rows, dim)));
            }
            handlers
        });
        Ok(ReferenceServer { addr, stop, accept })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and wait for every thread. Handlers end when their
    /// client closes, so clients must have dropped their connections.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        for handler in self
            .accept
            .join()
            .expect("reference accept thread panicked")
        {
            handler.join().expect("reference handler panicked");
        }
    }
}

/// Answer requests on one connection until the client closes it.
fn serve(mut stream: TcpStream, rows: &[f32], dim: usize) {
    let _ = stream.set_nodelay(true);
    let mut buf = Vec::with_capacity(4096);
    let probe: Vec<f32> = rows[..dim].iter().map(|v| v * 0.5).collect();
    while let Ok(Some(_)) = read_message(&mut stream, &mut buf) {
        let mut nearest = f32::INFINITY;
        for row in rows.chunks_exact(dim) {
            let d: f32 = row.iter().zip(&probe).map(|(a, b)| (a - b) * (a - b)).sum();
            nearest = nearest.min(d);
        }
        let mut body = format!("{{\"nearest\":{nearest}");
        body.push_str(&" ".repeat(RESPONSE_BODY - body.len() - 1));
        body.push('}');
        let head = format!(
            "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        if stream
            .write_all(head.as_bytes())
            .and_then(|()| stream.write_all(body.as_bytes()))
            .is_err()
        {
            return;
        }
    }
}
