//! The reusable oracle query core shared by every frontend (paper
//! motivation: the ppcmem web tool — users submit a litmus program and
//! get its exhaustive architectural envelope back).
//!
//! An exhaustive envelope is a *deterministic function* of the
//! canonical program and the model parameters, so the production shape
//! for serving many users is a long-running service answering from a
//! **content-addressed result store**: every repeated query after the
//! first is a cache hit. This crate is that service, split so the CLI
//! binaries (`conformance`, `statespace`, `oracled`, `oracle-client`)
//! are thin facades over the same core a future wasm or web frontend
//! would embed:
//!
//! - [`query`] — the canonical query encoding ([`Query`] →
//!   [`QueryKey`]): program via the assemble → codec path, plus every
//!   envelope-affecting model parameter and the codec/model/schema
//!   versions. Two queries with the same key have byte-identical
//!   results, by construction.
//! - [`store`] — the persistent key → record store ([`ResultStore`]):
//!   an append-only checksummed record log plus a sorted-run/sparse-
//!   index lookup structure (the `ppc_model::store` visited-set
//!   machinery, generalized from membership to retrieval), with atomic
//!   append and crash-safe reload.
//! - [`oracle`] — the query engine ([`Oracle`]): probe the store, and
//!   on a miss run the `ppc_litmus::harness` machinery exactly once per
//!   distinct key (concurrent duplicate queries coalesce onto the one
//!   in-flight exploration) and persist the JSONL [`TestReport`] line
//!   as both the stored record and the wire format.
//! - [`proto`] / [`server`] / [`client`] — the length-prefixed framed
//!   wire protocol, the `oracled` accept/serve loop over a std
//!   `TcpListener`, and the submitting client.
//!
//! Bounded-tier honesty (Abdulla et al., context-bounded checking): a
//! `truncated` or `bounded` record is cached and re-served as
//! *inconclusive*, never conflated with an exhaustive envelope — the
//! record carries the flags and [`TestReport::conclusive`] stays the
//! single decision point.
//!
//! [`Query`]: query::Query
//! [`QueryKey`]: query::QueryKey
//! [`ResultStore`]: store::ResultStore
//! [`Oracle`]: oracle::Oracle
//! [`TestReport`]: ppc_litmus::TestReport
//! [`TestReport::conclusive`]: ppc_litmus::TestReport::conclusive

pub mod client;
pub mod oracle;
pub mod proto;
pub mod query;
pub mod server;
pub mod store;

pub use client::{Client, Response};
pub use oracle::{CachedSuite, Oracle, OracleStats, QueryOutcome};
pub use proto::Budget;
pub use query::{canonical_key_bytes, Query, QueryKey};
pub use server::{serve, ServerConfig, ServerHandle};
pub use store::ResultStore;

/// Version of the canonical query encoding ([`query`]). Bump whenever
/// the key byte layout changes — old cache entries become unreachable
/// (a clean re-explore) instead of being misinterpreted. Version 2
/// dropped the trailing worker-process count.
pub const CANON_VERSION: u32 = 2;

/// Version of the stored record schema (the JSONL [`TestReport`] line).
/// The schema itself is additive-only; bump this only if a field ever
/// changes meaning, which invalidates every cached record.
///
/// [`TestReport`]: ppc_litmus::TestReport
pub const REPORT_VERSION: u32 = 1;

/// Version of the model semantics. Bump whenever a change to the
/// exploration engines or the architectural model can change any
/// envelope — cached records computed under the old semantics must
/// never be served for the new ones.
pub const MODEL_VERSION: u32 = 1;
