//! HTTP/1.1 + JSON serving for gqr indexes, on `std::net` only.
//!
//! This crate is the network front door for the querying engine: it maps
//! `POST /search` onto [`gqr_core::request::SearchRequest`] through a small
//! hand-rolled wire schema ([`wire`]), serves the metrics registry's
//! Prometheus exporter at `GET /metrics`, and answers `GET /healthz` for
//! load balancers. The server ([`server::Server`]) is a fixed-size
//! connection-handler pool whose threads run the searches themselves,
//! behind a bounded run gate. Overload is shed immediately with
//! `429`/`503` + `Retry-After` instead of queueing into collapse, and
//! shutdown is a graceful drain (stop accepting, finish everything
//! admitted, then stop).
//!
//! No external crates: HTTP parsing ([`http`]), JSON ([`json`]), per-client
//! token buckets ([`quota`]), and the open-loop load generator
//! ([`loadgen`]) are all self-contained so the serving path adds zero
//! dependencies to the workspace.
//!
//! ```no_run
//! use gqr_serve::server::{Server, ServerConfig};
//! use gqr_core::index::Index;
//!
//! fn serve(index: &'static (dyn Index + Sync)) {
//!     let server = Server::start(index, ServerConfig::default()).unwrap();
//!     println!("listening on {}", server.addr());
//!     // ... later:
//!     let report = server.shutdown();
//!     assert_eq!(report.inflight_at_drain, 0);
//! }
//! ```

#![warn(missing_docs)]
pub mod http;
pub mod json;
pub mod loadgen;
pub mod quota;
pub mod server;
pub mod wire;

pub use loadgen::{LoadReport, LoadgenConfig};
pub use quota::QuotaConfig;
pub use server::{DrainReport, Server, ServerConfig};
pub use wire::{decode_search, encode_error, encode_response, WireRequest};
