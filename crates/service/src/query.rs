//! Canonical query encoding: the content address of an oracle result.
//!
//! A query is (program, model parameters, budgets) and its result is a
//! deterministic function of exactly those inputs, so the cache key is
//! a canonical byte encoding of them — the program travels through the
//! assemble → codec path ([`ppc_isa::encode`] per instruction, LEB128
//! varints for everything else), **not** its source text, so two
//! sources differing only in whitespace, comments, or register-init
//! ordering address the same record.
//!
//! Key rules (pinned by the sensitivity tests below):
//!
//! - Every envelope-affecting [`ModelParams`] field is in the key:
//!   budgets (`max_states`, `max_resident_states`), the context bound,
//!   coherence commitments, speculation depth, spurious-stcx, sleep
//!   sets. The destructuring in [`encode_params`] is *exhaustive* — a
//!   field added to `ModelParams` without deciding its key status fails
//!   to compile, which is the loud failure the cache needs (a silently
//!   unkeyed param would serve stale envelopes).
//! - `threads` and `steal_batch` are **excluded**: pure scheduling
//!   knobs, documented (and differential-tested) to not change which
//!   states are visited or any verdict.
//! - The codec/schema/model versions ([`crate::CANON_VERSION`],
//!   [`crate::REPORT_VERSION`], [`crate::MODEL_VERSION`]) lead the
//!   encoding, so bumping any of them invalidates the whole cache.
//! - The 64-bit digest is only a *locator*: the full key bytes are
//!   stored with each record and compared on probe, so a digest
//!   collision degrades to a cache miss, never to a wrong answer.

use ppc_litmus::harness::HarnessConfig;
use ppc_litmus::{CondAtom, CondExpr, Expectation, Job, Quantifier};
use ppc_model::ModelParams;

use ppc_bits::Writer;

/// FNV-1a 64 offset basis.
const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over a byte string — the digest used to locate records
/// (the full key bytes disambiguate, so this needs to be well-spread,
/// not cryptographic).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV64_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

/// One oracle query: a harness [`Job`] plus everything else that
/// deterministically shapes the stored record.
#[derive(Clone, Debug)]
pub struct Query<'a> {
    /// The program under test (name, expectation, parsed test).
    pub job: &'a Job,
    /// Model parameters the exploration runs under.
    pub params: &'a ModelParams,
    /// Per-test wall-clock budget in milliseconds (`0` = none). A
    /// budget can truncate the exploration, which changes the record
    /// (an inconclusive result), so it is part of the key.
    pub timeout_ms: u64,
}

impl<'a> Query<'a> {
    /// The query a harness configuration would run for `job`.
    #[must_use]
    pub fn from_harness(job: &'a Job, cfg: &'a HarnessConfig) -> Query<'a> {
        Query {
            job,
            params: &cfg.params,
            timeout_ms: cfg
                .timeout_per_test
                .map_or(0, |t| u64::try_from(t.as_millis()).unwrap_or(u64::MAX)),
        }
    }

    /// The content address of this query's result.
    #[must_use]
    pub fn key(&self) -> QueryKey {
        QueryKey::from_bytes(canonical_key_bytes(self))
    }
}

/// A content address: the canonical key bytes plus their 64-bit digest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryKey {
    /// FNV-1a 64 of `bytes` — the store's locator.
    pub digest: u64,
    /// The full canonical encoding — stored alongside each record and
    /// compared byte-for-byte on probe (collision safety).
    pub bytes: Vec<u8>,
}

impl QueryKey {
    /// Wrap canonical key bytes, computing the locator digest.
    #[must_use]
    pub fn from_bytes(bytes: Vec<u8>) -> QueryKey {
        QueryKey {
            digest: fnv1a64(&bytes),
            bytes,
        }
    }
}

/// A length-prefixed string.
fn str_field(w: &mut Writer, s: &str) {
    w.usizev(s.len());
    w.bytes(s.as_bytes());
}

/// The condition-expression tree, tagged preorder.
fn encode_expr(w: &mut Writer, e: &CondExpr) {
    match e {
        CondExpr::Atom(CondAtom::True) => w.byte(0),
        CondExpr::Atom(CondAtom::Reg { tid, gpr, value }) => {
            w.byte(1);
            w.usizev(*tid);
            w.byte(*gpr);
            w.u64v(*value);
        }
        CondExpr::Atom(CondAtom::Mem { loc, value }) => {
            w.byte(2);
            str_field(w, loc);
            w.u64v(*value);
        }
        CondExpr::And(l, r) => {
            w.byte(3);
            encode_expr(w, l);
            encode_expr(w, r);
        }
        CondExpr::Or(l, r) => {
            w.byte(4);
            encode_expr(w, l);
            encode_expr(w, r);
        }
        CondExpr::Not(inner) => {
            w.byte(5);
            encode_expr(w, inner);
        }
    }
}

/// Every envelope-affecting model parameter, in a fixed order. The
/// destructuring is exhaustive on purpose: adding a `ModelParams` field
/// breaks this `let` until someone decides whether the new field is
/// part of the key (almost always yes — see the module docs) or a pure
/// scheduling knob like `threads`.
fn encode_params(w: &mut Writer, params: &ModelParams) {
    let ModelParams {
        max_instances_per_thread,
        coherence_commitments,
        allow_spurious_stcx_failure,
        threads: _, // scheduling only: cannot change any verdict or count
        max_states,
        steal_batch: _, // scheduling only: cannot change which states are visited
        max_resident_states,
        sleep_sets,
        max_context_switches,
    } = params;
    w.usizev(*max_instances_per_thread);
    w.bool(*coherence_commitments);
    w.bool(*allow_spurious_stcx_failure);
    w.usizev(*max_states);
    w.usizev(*max_resident_states);
    w.bool(*sleep_sets);
    w.usizev(*max_context_switches);
}

/// The canonical key encoding (see the module docs for the rules).
#[must_use]
pub fn canonical_key_bytes(q: &Query<'_>) -> Vec<u8> {
    key_bytes_at(q, crate::CANON_VERSION)
}

/// [`canonical_key_bytes`] under an explicit canonical-encoding
/// version, so the tests can check that a bump moves every key.
fn key_bytes_at(q: &Query<'_>, canon_version: u32) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(b"PPCQ");
    w.u64v(u64::from(canon_version));
    w.u64v(u64::from(crate::REPORT_VERSION));
    w.u64v(u64::from(crate::MODEL_VERSION));

    // Identity: the stored record embeds the name, the expectation and
    // the pinning provenance, so they address distinct records.
    str_field(&mut w, &q.job.name);
    str_field(&mut w, &q.job.pinned_by);
    w.byte(match q.job.expect {
        Expectation::Allowed => 0,
        Expectation::Forbidden => 1,
    });

    // Program, through the assemble → codec path: machine words, not
    // source text.
    let test = &q.job.test;
    w.usizev(test.threads.len());
    for t in &test.threads {
        w.usizev(t.instrs.len());
        for i in &t.instrs {
            w.bytes(&ppc_isa::encode(i).to_le_bytes());
        }
        w.usizev(t.init_regs.len());
        for (gpr, v) in &t.init_regs {
            w.byte(*gpr);
            w.u64v(*v);
        }
    }
    w.usizev(test.locations.len());
    for (name, addr) in &test.locations {
        str_field(&mut w, name);
        w.u64v(*addr);
    }
    w.usizev(test.init_mem.len());
    for (name, v) in &test.init_mem {
        str_field(&mut w, name);
        w.u64v(*v);
    }
    w.byte(match test.cond.quantifier {
        Quantifier::Exists => 0,
        Quantifier::NotExists => 1,
        Quantifier::Forall => 2,
    });
    encode_expr(&mut w, &test.cond.expr);

    encode_params(&mut w, q.params);
    w.u64v(q.timeout_ms);
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_litmus::library;

    fn job() -> Job {
        Job::from_entry(&library()[0])
    }

    fn key_of(job: &Job, params: &ModelParams, timeout_ms: u64) -> QueryKey {
        Query {
            job,
            params,
            timeout_ms,
        }
        .key()
    }

    /// Walk every `ModelParams` field: envelope-affecting fields must
    /// change the key, scheduling-only fields must not. Paired with the
    /// exhaustive destructuring in `encode_params`, a future field
    /// added without a decision fails the build; one added to the
    /// "insensitive" side without justification fails here.
    #[test]
    fn key_sensitivity_walks_model_params() {
        let job = job();
        let base = ModelParams::default();
        let base_key = key_of(&job, &base, 0);

        let sensitive: Vec<(&str, ModelParams)> = vec![
            (
                "max_instances_per_thread",
                ModelParams {
                    max_instances_per_thread: base.max_instances_per_thread + 1,
                    ..base.clone()
                },
            ),
            (
                "coherence_commitments",
                ModelParams {
                    coherence_commitments: !base.coherence_commitments,
                    ..base.clone()
                },
            ),
            (
                "allow_spurious_stcx_failure",
                ModelParams {
                    allow_spurious_stcx_failure: !base.allow_spurious_stcx_failure,
                    ..base.clone()
                },
            ),
            (
                "max_states",
                ModelParams {
                    max_states: base.max_states + 1,
                    ..base.clone()
                },
            ),
            (
                "max_resident_states",
                ModelParams {
                    max_resident_states: base.max_resident_states + 64,
                    ..base.clone()
                },
            ),
            (
                "sleep_sets",
                ModelParams {
                    sleep_sets: !base.sleep_sets,
                    ..base.clone()
                },
            ),
            (
                "max_context_switches",
                ModelParams {
                    max_context_switches: base.max_context_switches + 2,
                    ..base.clone()
                },
            ),
        ];
        for (field, params) in sensitive {
            assert_ne!(
                key_of(&job, &params, 0),
                base_key,
                "changing `{field}` must change the cache key"
            );
        }

        let insensitive: Vec<(&str, ModelParams)> = vec![
            (
                "threads",
                ModelParams {
                    threads: base.threads + 7,
                    ..base.clone()
                },
            ),
            (
                "steal_batch",
                ModelParams {
                    steal_batch: base.steal_batch + 7,
                    ..base.clone()
                },
            ),
        ];
        for (field, params) in insensitive {
            assert_eq!(
                key_of(&job, &params, 0),
                base_key,
                "`{field}` is a scheduling knob and must not change the cache key"
            );
        }
    }

    /// The wall-clock budget outside `ModelParams` is also part of the
    /// key, and so is the canonical-encoding version: a bump must move
    /// every key so no record stored under the old layout is reachable.
    /// How many workers run a query (harness jobs, exploration threads)
    /// is scheduling only and never part of the key.
    #[test]
    fn key_sensitivity_timeout_and_workers() {
        let job = job();
        let base = ModelParams::default();
        let base_key = key_of(&job, &base, 0);
        assert_ne!(key_of(&job, &base, 5_000), base_key);
        let workers = HarnessConfig {
            jobs: 4,
            params: ModelParams {
                threads: 4,
                ..ModelParams::default()
            },
            ..HarnessConfig::default()
        };
        assert_eq!(Query::from_harness(&job, &workers).key(), base_key);
        let q = Query {
            job: &job,
            params: &base,
            timeout_ms: 0,
        };
        assert_eq!(key_bytes_at(&q, crate::CANON_VERSION), base_key.bytes);
        assert_ne!(key_bytes_at(&q, crate::CANON_VERSION + 1), base_key.bytes);
    }

    /// Different programs (and different expectations or names for the
    /// same program) address different records.
    #[test]
    fn key_distinguishes_programs() {
        let lib = library();
        let params = ModelParams::default();
        let a = Job::from_entry(&lib[0]);
        let b = Job::from_entry(&lib[1]);
        assert_ne!(key_of(&a, &params, 0), key_of(&b, &params, 0));

        let mut flipped = a.clone();
        flipped.expect = match a.expect {
            Expectation::Allowed => Expectation::Forbidden,
            Expectation::Forbidden => Expectation::Allowed,
        };
        assert_ne!(key_of(&a, &params, 0), key_of(&flipped, &params, 0));

        let mut renamed = a.clone();
        renamed.name.push('!');
        assert_ne!(key_of(&a, &params, 0), key_of(&renamed, &params, 0));
    }

    /// The key is built from the canonical program encoding, not the
    /// source text: cosmetic whitespace produces the same key.
    #[test]
    fn key_ignores_source_whitespace() {
        let e = &library()[0];
        let a = Job::from_source(e.source, e.expect, e.pinned_by).expect("parses");
        let spaced = format!("\n{}\n\n", e.source.replace(';', " ;"));
        let b = Job::from_source(&spaced, e.expect, e.pinned_by).expect("parses");
        let params = ModelParams::default();
        assert_eq!(key_of(&a, &params, 0), key_of(&b, &params, 0));
    }

    /// Version bumps invalidate every key.
    #[test]
    fn key_includes_versions() {
        let job = job();
        let params = ModelParams::default();
        let bytes = canonical_key_bytes(&Query {
            job: &job,
            params: &params,
            timeout_ms: 0,
        });
        // The three version varints sit right after the 4-byte magic;
        // all current versions are single-byte varints.
        assert_eq!(&bytes[..4], b"PPCQ");
        assert_eq!(
            &bytes[4..7],
            &[
                u8::try_from(crate::CANON_VERSION).expect("small version"),
                u8::try_from(crate::REPORT_VERSION).expect("small version"),
                u8::try_from(crate::MODEL_VERSION).expect("small version"),
            ]
        );
    }
}
