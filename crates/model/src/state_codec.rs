//! Canonical, deterministic byte encoding for whole [`SystemState`]s.
//!
//! The exhaustive oracle memoises states by a 64-bit digest that hashes
//! shared-`Arc` pointers ([`SystemState::digest`]), which is stable only
//! within one built system. This codec is the rebuild-stable complement:
//! it serialises every thread state, every in-flight instruction
//! instance (including its suspended interpreter continuation, via
//! [`ppc_idl::codec`]'s block-index encoding), and the whole
//! [`StorageState`] into a compact byte string with an exact inverse —
//! `decode(encode(s)) == s` under [`SystemState`]'s structural equality,
//! and `encode` produces identical bytes for architecturally identical
//! states of two *independently built* systems for the same program.
//!
//! The encoding is what lets the [`crate::store::StateStore`] spill
//! frontier states to temp files mid-exploration and read them back
//! without perturbing the search (digests of decoded states equal the
//! originals', because decode resolves all shared structure — semantics,
//! blocks, static footprints — back to the same program-cache `Arc`s).
//! Byte stability across independently built systems also makes the
//! encoding a well-defined content for the committed golden tests.
//!
//! Format notes: all integers are LEB128 varints (`usize` travels as
//! `u64`), bitvectors pack four lifted bits per byte, `BTreeMap`/
//! `BTreeSet` contents are emitted in their (deterministic) sorted
//! order, and the stream opens with a one-byte format version.

use crate::storage::{StorageEvent, StorageState, StorageTransition};
use crate::system::{Program, SystemState, Transition};
use crate::thread::ThreadTransition;
use crate::thread::{
    InstanceArena, InstanceId, InstrInstance, PendingWrite, ReadSource, RegReadRec, SatRead,
    ThreadState,
};
use crate::types::{
    BarrierEv, BarrierId, DigestCell, Digested, ModelParams, TransitionCache, Write, WriteId,
};
use ppc_bits::{DecodeError, Reader, Writer};
use ppc_idl::codec::{
    decode_barrier_kind, decode_footprint, decode_instr_state, decode_reg, decode_reg_slice,
    encode_barrier_kind, encode_footprint, encode_instr_state, encode_reg, encode_reg_slice,
    sem_blocks,
};
use ppc_idl::Block;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Format version byte leading every encoded state.
const VERSION: u8 = 1;

/// Shared context for encoding/decoding the states of one exploration:
/// the (immutable) program, the model parameters, and the per-address
/// block enumerations of every instruction's semantics (computed once,
/// so per-state encode/decode does no AST walking).
#[derive(Debug)]
pub struct CodecCtx {
    program: Arc<Program>,
    params: ModelParams,
    blocks: BTreeMap<u64, Vec<Block>>,
}

impl CodecCtx {
    /// Build a codec context for one program + parameter set. Every
    /// state passed to [`CodecCtx::encode`] / [`CodecCtx::decode`] must
    /// belong to this program (share its `Arc`) and carry these params.
    #[must_use]
    pub fn new(program: Arc<Program>, params: ModelParams) -> Self {
        let blocks = program
            .entries
            .iter()
            .map(|(&addr, e)| (addr, sem_blocks(&e.sem)))
            .collect();
        CodecCtx {
            program,
            params,
            blocks,
        }
    }

    /// The context implied by a state (its program and parameters).
    #[must_use]
    pub fn for_state(state: &SystemState) -> Self {
        CodecCtx::new(state.program.clone(), state.params.clone())
    }

    /// Encode a state to its canonical byte string.
    ///
    /// # Panics
    ///
    /// Panics if the state does not belong to this context's program
    /// (an instance is fetched from an address the program lacks).
    #[must_use]
    pub fn encode(&self, state: &SystemState) -> Vec<u8> {
        let mut w = Writer::new();
        w.byte(VERSION);
        w.usizev(state.threads.len());
        for th in &state.threads {
            self.encode_thread(&mut w, th);
        }
        encode_storage(&mut w, &state.storage);
        w.u64v(u64::from(state.next_write_id));
        w.u64v(u64::from(state.next_barrier_id));
        w.into_bytes()
    }

    /// Decode a canonical byte string back into a state of this
    /// context's program, resolving all shared structure (semantics,
    /// control-stack blocks, static footprints, instruction words) to
    /// the program cache's own `Arc`s — so the decoded state's digest
    /// equals the original's.
    ///
    /// # Errors
    ///
    /// Any truncation, version/tag mismatch, or reference to structure
    /// the program does not contain.
    pub fn decode(&self, bytes: &[u8]) -> Result<SystemState, DecodeError> {
        let mut r = Reader::new(bytes);
        let v = r.byte()?;
        if v != VERSION {
            return Err(DecodeError::BadTag {
                what: "state codec version",
                tag: v,
            });
        }
        // No capacity hint: `nthreads` is attacker-controlled until the
        // per-thread decodes validate it, and a corrupt varint must not
        // become a pathological up-front allocation.
        let nthreads = r.usizev()?;
        let mut threads = Vec::new();
        for _ in 0..nthreads {
            threads.push(self.decode_thread(&mut r)?);
        }
        let storage = decode_storage(&mut r)?;
        let next_write_id =
            u32::try_from(r.u64v()?).map_err(|_| DecodeError::Invalid("next_write_id range"))?;
        let next_barrier_id =
            u32::try_from(r.u64v()?).map_err(|_| DecodeError::Invalid("next_barrier_id range"))?;
        if !r.is_exhausted() {
            return Err(DecodeError::Invalid("trailing bytes after state"));
        }
        Ok(SystemState {
            program: self.program.clone(),
            threads: threads.into_iter().map(Arc::new).collect(),
            storage: Arc::new(storage),
            params: self.params.clone(),
            next_write_id,
            next_barrier_id,
            digest: DigestCell::new(),
        })
    }

    fn encode_thread(&self, w: &mut Writer, th: &ThreadState) {
        w.usizev(th.tid);
        w.u64v(th.start_addr);
        w.usizev(th.next_id);
        w.option(th.root.as_ref(), |w, &r| w.usizev(r));
        w.option(th.reservation.as_ref(), |w, &(a, s)| {
            w.u64v(a);
            w.usizev(s);
        });
        w.usizev(th.init_regs.len());
        for (&reg, v) in th.init_regs.iter() {
            encode_reg(w, reg);
            w.bv(v);
        }
        w.usizev(th.instances.len());
        for inst in th.instances.values() {
            self.encode_instance(w, inst);
        }
    }

    fn decode_thread(&self, r: &mut Reader<'_>) -> Result<ThreadState, DecodeError> {
        let tid = r.usizev()?;
        let start_addr = r.u64v()?;
        let next_id = r.usizev()?;
        let root = r.option(Reader::usizev)?;
        let reservation = r.option(|r| {
            let a = r.u64v()?;
            let s = r.usizev()?;
            Ok((a, s))
        })?;
        let mut init_regs = BTreeMap::new();
        for _ in 0..r.usizev()? {
            let reg = decode_reg(r)?;
            let v = r.bv()?;
            init_regs.insert(reg, v);
        }
        // Instances travel in ascending id order (the arena's live
        // sequence, formerly the `BTreeMap`'s — bytes are unchanged).
        // Ids index the dense arena, so bound them by the thread's own
        // id allocator before inserting: a corrupt varint must surface
        // as a decode error, not as a near-usize::MAX slot allocation.
        let mut instances = InstanceArena::new();
        for _ in 0..r.usizev()? {
            let inst = self.decode_instance(r)?;
            if inst.id >= next_id {
                return Err(DecodeError::Invalid("instance id beyond next_id"));
            }
            if instances.contains(inst.id) {
                return Err(DecodeError::Invalid("duplicate instance id"));
            }
            instances.insert(Arc::new(inst));
        }
        Ok(ThreadState {
            tid,
            init_regs: Arc::new(init_regs),
            instances,
            root,
            next_id,
            reservation,
            start_addr,
            digest: DigestCell::new(),
            enum_cache: TransitionCache::new(),
        })
    }

    fn encode_instance(&self, w: &mut Writer, inst: &InstrInstance) {
        w.usizev(inst.id);
        w.option(inst.parent.as_ref(), |w, &p| w.usizev(p));
        w.usizev(inst.children.len());
        for &c in &inst.children {
            w.usizev(c);
        }
        w.u64v(inst.addr);
        let blocks = self
            .blocks
            .get(&inst.addr)
            .expect("instance address is in the program");
        encode_instr_state(w, &inst.state, blocks);
        encode_footprint(w, &inst.dyn_fp);
        w.usizev(inst.reg_reads.len());
        for rr in &inst.reg_reads {
            encode_reg_slice(w, rr.slice);
            w.bv(&rr.value);
            w.usizev(rr.sources.len());
            for &s in &rr.sources {
                w.usizev(s);
            }
        }
        w.usizev(inst.reg_writes.len());
        for (slice, v) in &inst.reg_writes {
            encode_reg_slice(w, *slice);
            w.bv(v);
        }
        w.usizev(inst.mem_reads.len());
        for mr in &inst.mem_reads {
            encode_sat_read(w, mr);
        }
        w.option(inst.pending_read.as_ref(), |w, &(a, s, res)| {
            w.u64v(a);
            w.usizev(s);
            w.bool(res);
        });
        w.usizev(inst.mem_writes.len());
        for mw in &inst.mem_writes {
            w.u64v(mw.addr);
            w.usizev(mw.size);
            w.bv(&mw.value);
            w.option(mw.committed.as_ref(), |w, id| w.u64v(u64::from(id.0)));
            w.bool(mw.conditional);
        }
        w.bool(inst.pending_cond_write);
        w.option(inst.barrier.as_ref(), |w, &k| encode_barrier_kind(w, k));
        w.bool(inst.barrier_committed);
        w.option(inst.barrier_id.as_ref(), |w, id| w.u64v(u64::from(id.0)));
        w.bool(inst.barrier_acked);
        w.bool(inst.done);
        w.bool(inst.finished);
        w.option(inst.nia.as_ref(), |w, &n| w.u64v(n));
    }

    fn decode_instance(&self, r: &mut Reader<'_>) -> Result<InstrInstance, DecodeError> {
        let id: InstanceId = r.usizev()?;
        let parent = r.option(Reader::usizev)?;
        let mut children = Vec::new();
        for _ in 0..r.usizev()? {
            children.push(r.usizev()?);
        }
        let addr = r.u64v()?;
        let entry = self
            .program
            .entries
            .get(&addr)
            .ok_or(DecodeError::Invalid("instance address not in program"))?;
        let blocks = self
            .blocks
            .get(&addr)
            .ok_or(DecodeError::Invalid("instance address not in program"))?;
        let state = decode_instr_state(r, &entry.sem, blocks)?;
        let dyn_fp_content = decode_footprint(r)?;
        // Share the program's static-footprint Arc when the dynamic one
        // has not diverged (the common case), as `fetch` does.
        let dyn_fp = if dyn_fp_content == *entry.fp {
            entry.fp.clone()
        } else {
            Arc::new(dyn_fp_content)
        };
        let mut reg_reads = Vec::new();
        for _ in 0..r.usizev()? {
            let slice = decode_reg_slice(r)?;
            let value = r.bv()?;
            let mut sources = BTreeSet::new();
            for _ in 0..r.usizev()? {
                sources.insert(r.usizev()?);
            }
            reg_reads.push(RegReadRec {
                slice,
                value,
                sources,
            });
        }
        let mut reg_writes = Vec::new();
        for _ in 0..r.usizev()? {
            let slice = decode_reg_slice(r)?;
            let v = r.bv()?;
            reg_writes.push((slice, v));
        }
        let mut mem_reads = Vec::new();
        for _ in 0..r.usizev()? {
            mem_reads.push(decode_sat_read(r)?);
        }
        let pending_read = r.option(|r| {
            let a = r.u64v()?;
            let s = r.usizev()?;
            let res = r.bool()?;
            Ok((a, s, res))
        })?;
        let mut mem_writes = Vec::new();
        for _ in 0..r.usizev()? {
            let addr = r.u64v()?;
            let size = r.usizev()?;
            let value = r.bv()?;
            let committed = r.option(|r| decode_write_id(r))?;
            let conditional = r.bool()?;
            mem_writes.push(PendingWrite {
                addr,
                size,
                value,
                committed,
                conditional,
            });
        }
        let pending_cond_write = r.bool()?;
        let barrier = r.option(decode_barrier_kind)?;
        let barrier_committed = r.bool()?;
        let barrier_id = r.option(|r| decode_barrier_id(r))?;
        let barrier_acked = r.bool()?;
        let done = r.bool()?;
        let finished = r.bool()?;
        let nia = r.option(Reader::u64v)?;
        Ok(InstrInstance {
            id,
            parent,
            children,
            addr,
            instr: entry.instr.clone(),
            sem: entry.sem.clone(),
            state,
            static_fp: entry.fp.clone(),
            dyn_fp,
            reg_reads,
            reg_writes,
            mem_reads,
            pending_read,
            mem_writes,
            pending_cond_write,
            barrier,
            barrier_committed,
            barrier_id,
            barrier_acked,
            done,
            finished,
            nia,
            digest: DigestCell::new(),
        })
    }
}

fn encode_sat_read(w: &mut Writer, mr: &SatRead) {
    w.u64v(mr.addr);
    w.usizev(mr.size);
    w.bv(&mr.value);
    match &mr.source {
        ReadSource::Forward(from, widx) => {
            w.byte(0);
            w.usizev(*from);
            w.usizev(*widx);
        }
        ReadSource::Storage(srcs) => {
            w.byte(1);
            w.usizev(srcs.len());
            for id in srcs {
                w.u64v(u64::from(id.0));
            }
        }
    }
    w.bool(mr.reserve);
}

fn decode_sat_read(r: &mut Reader<'_>) -> Result<SatRead, DecodeError> {
    let addr = r.u64v()?;
    let size = r.usizev()?;
    let value = r.bv()?;
    let source = match r.byte()? {
        0 => {
            let from = r.usizev()?;
            let widx = r.usizev()?;
            ReadSource::Forward(from, widx)
        }
        1 => {
            let mut srcs = Vec::new();
            for _ in 0..r.usizev()? {
                srcs.push(decode_write_id(r)?);
            }
            ReadSource::Storage(srcs)
        }
        tag => {
            return Err(DecodeError::BadTag {
                what: "ReadSource",
                tag,
            })
        }
    };
    let reserve = r.bool()?;
    Ok(SatRead {
        addr,
        size,
        value,
        source,
        reserve,
    })
}

fn decode_write_id(r: &mut Reader<'_>) -> Result<WriteId, DecodeError> {
    u32::try_from(r.u64v()?)
        .map(WriteId)
        .map_err(|_| DecodeError::Invalid("WriteId range"))
}

fn decode_barrier_id(r: &mut Reader<'_>) -> Result<BarrierId, DecodeError> {
    u32::try_from(r.u64v()?)
        .map(BarrierId)
        .map_err(|_| DecodeError::Invalid("BarrierId range"))
}

fn encode_storage(w: &mut Writer, st: &StorageState) {
    w.usizev(st.threads);
    w.usizev(st.writes.len());
    for wr in st.writes.values() {
        w.u64v(u64::from(wr.id.0));
        w.usizev(wr.tid);
        w.option(wr.ioid.as_ref(), |w, &(t, i)| {
            w.usizev(t);
            w.usizev(i);
        });
        w.u64v(wr.addr);
        w.usizev(wr.size);
        w.bv(&wr.value);
    }
    w.usizev(st.barriers.len());
    for b in st.barriers.values() {
        w.u64v(u64::from(b.id.0));
        w.usizev(b.tid);
        w.usizev(b.ioid.0);
        w.usizev(b.ioid.1);
        encode_barrier_kind(w, b.kind);
    }
    w.usizev(st.writes_seen.len());
    for id in st.writes_seen.iter() {
        w.u64v(u64::from(id.0));
    }
    w.usizev(st.coherence.len());
    for (a, b) in st.coherence.iter() {
        w.u64v(u64::from(a.0));
        w.u64v(u64::from(b.0));
    }
    w.usizev(st.events_propagated_to.len());
    for list in &st.events_propagated_to {
        w.usizev(list.len());
        for ev in list.iter() {
            match ev {
                StorageEvent::W(id) => {
                    w.byte(0);
                    w.u64v(u64::from(id.0));
                }
                StorageEvent::B(id) => {
                    w.byte(1);
                    w.u64v(u64::from(id.0));
                }
            }
        }
    }
    w.usizev(st.unacknowledged_sync_requests.len());
    for id in st.unacknowledged_sync_requests.iter() {
        w.u64v(u64::from(id.0));
    }
}

fn decode_storage(r: &mut Reader<'_>) -> Result<StorageState, DecodeError> {
    let threads = r.usizev()?;
    let mut writes = BTreeMap::new();
    for _ in 0..r.usizev()? {
        let id = decode_write_id(r)?;
        let tid = r.usizev()?;
        let ioid = r.option(|r| {
            let t = r.usizev()?;
            let i = r.usizev()?;
            Ok((t, i))
        })?;
        let addr = r.u64v()?;
        let size = r.usizev()?;
        let value = r.bv()?;
        writes.insert(
            id,
            Write {
                id,
                tid,
                ioid,
                addr,
                size,
                value,
            },
        );
    }
    let mut barriers = BTreeMap::new();
    for _ in 0..r.usizev()? {
        let id = decode_barrier_id(r)?;
        let tid = r.usizev()?;
        let it = r.usizev()?;
        let ii = r.usizev()?;
        let kind = decode_barrier_kind(r)?;
        barriers.insert(
            id,
            BarrierEv {
                id,
                tid,
                ioid: (it, ii),
                kind,
            },
        );
    }
    let mut writes_seen = BTreeSet::new();
    for _ in 0..r.usizev()? {
        writes_seen.insert(decode_write_id(r)?);
    }
    let mut coherence = BTreeSet::new();
    for _ in 0..r.usizev()? {
        let a = decode_write_id(r)?;
        let b = decode_write_id(r)?;
        coherence.insert((a, b));
    }
    let mut events_propagated_to = Vec::new();
    for _ in 0..r.usizev()? {
        let mut list = Vec::new();
        for _ in 0..r.usizev()? {
            let ev = match r.byte()? {
                0 => StorageEvent::W(decode_write_id(r)?),
                1 => StorageEvent::B(decode_barrier_id(r)?),
                tag => {
                    return Err(DecodeError::BadTag {
                        what: "StorageEvent",
                        tag,
                    })
                }
            };
            list.push(ev);
        }
        events_propagated_to.push(list);
    }
    let mut unacknowledged_sync_requests = BTreeSet::new();
    for _ in 0..r.usizev()? {
        unacknowledged_sync_requests.insert(decode_barrier_id(r)?);
    }
    Ok(StorageState {
        threads,
        writes: Arc::new(Digested::new(writes)),
        barriers: Arc::new(Digested::new(barriers)),
        writes_seen: Arc::new(Digested::new(writes_seen)),
        coherence: Arc::new(Digested::new(coherence)),
        events_propagated_to: events_propagated_to
            .into_iter()
            .map(|l| Arc::new(Digested::new(l)))
            .collect(),
        unacknowledged_sync_requests: Arc::new(Digested::new(unacknowledged_sync_requests)),
        digest: DigestCell::new(),
        enum_cache: TransitionCache::new(),
    })
}

/// Encode one [`Transition`] (tag byte + LEB128 fields). Used by the
/// frontier spill records to carry a frame's sleep set alongside the
/// canonical state bytes; `decode_transition` is its exact inverse.
pub fn encode_transition(w: &mut Writer, t: &Transition) {
    match t {
        Transition::Thread(tt) => match tt {
            ThreadTransition::Fetch { tid, parent, addr } => {
                w.byte(0);
                w.usizev(*tid);
                w.option(parent.as_ref(), |w, &p| w.usizev(p));
                w.u64v(*addr);
            }
            ThreadTransition::SatisfyReadForward {
                tid,
                ioid,
                from,
                windex,
            } => {
                w.byte(1);
                w.usizev(*tid);
                w.usizev(*ioid);
                w.usizev(*from);
                w.usizev(*windex);
            }
            ThreadTransition::SatisfyReadStorage { tid, ioid } => {
                w.byte(2);
                w.usizev(*tid);
                w.usizev(*ioid);
            }
            ThreadTransition::CommitWrite { tid, ioid, windex } => {
                w.byte(3);
                w.usizev(*tid);
                w.usizev(*ioid);
                w.usizev(*windex);
            }
            ThreadTransition::CommitStcxSuccess { tid, ioid } => {
                w.byte(4);
                w.usizev(*tid);
                w.usizev(*ioid);
            }
            ThreadTransition::CommitStcxFail { tid, ioid } => {
                w.byte(5);
                w.usizev(*tid);
                w.usizev(*ioid);
            }
            ThreadTransition::CommitBarrier { tid, ioid } => {
                w.byte(6);
                w.usizev(*tid);
                w.usizev(*ioid);
            }
            ThreadTransition::Finish { tid, ioid } => {
                w.byte(7);
                w.usizev(*tid);
                w.usizev(*ioid);
            }
        },
        Transition::Storage(st) => match st {
            StorageTransition::PropagateWrite { write, to } => {
                w.byte(8);
                w.u64v(u64::from(write.0));
                w.usizev(*to);
            }
            StorageTransition::PropagateBarrier { barrier, to } => {
                w.byte(9);
                w.u64v(u64::from(barrier.0));
                w.usizev(*to);
            }
            StorageTransition::AcknowledgeSync { barrier } => {
                w.byte(10);
                w.u64v(u64::from(barrier.0));
            }
            StorageTransition::PartialCoherence { first, second } => {
                w.byte(11);
                w.u64v(u64::from(first.0));
                w.u64v(u64::from(second.0));
            }
        },
    }
}

/// Decode one [`Transition`] written by [`encode_transition`].
///
/// # Errors
///
/// Any truncation or unknown tag.
pub fn decode_transition(r: &mut Reader<'_>) -> Result<Transition, DecodeError> {
    let tag = r.byte()?;
    Ok(match tag {
        0 => Transition::Thread(ThreadTransition::Fetch {
            tid: r.usizev()?,
            parent: r.option(Reader::usizev)?,
            addr: r.u64v()?,
        }),
        1 => Transition::Thread(ThreadTransition::SatisfyReadForward {
            tid: r.usizev()?,
            ioid: r.usizev()?,
            from: r.usizev()?,
            windex: r.usizev()?,
        }),
        2 => Transition::Thread(ThreadTransition::SatisfyReadStorage {
            tid: r.usizev()?,
            ioid: r.usizev()?,
        }),
        3 => Transition::Thread(ThreadTransition::CommitWrite {
            tid: r.usizev()?,
            ioid: r.usizev()?,
            windex: r.usizev()?,
        }),
        4 => Transition::Thread(ThreadTransition::CommitStcxSuccess {
            tid: r.usizev()?,
            ioid: r.usizev()?,
        }),
        5 => Transition::Thread(ThreadTransition::CommitStcxFail {
            tid: r.usizev()?,
            ioid: r.usizev()?,
        }),
        6 => Transition::Thread(ThreadTransition::CommitBarrier {
            tid: r.usizev()?,
            ioid: r.usizev()?,
        }),
        7 => Transition::Thread(ThreadTransition::Finish {
            tid: r.usizev()?,
            ioid: r.usizev()?,
        }),
        8 => Transition::Storage(StorageTransition::PropagateWrite {
            write: decode_write_id(r)?,
            to: r.usizev()?,
        }),
        9 => Transition::Storage(StorageTransition::PropagateBarrier {
            barrier: decode_barrier_id(r)?,
            to: r.usizev()?,
        }),
        10 => Transition::Storage(StorageTransition::AcknowledgeSync {
            barrier: decode_barrier_id(r)?,
        }),
        11 => Transition::Storage(StorageTransition::PartialCoherence {
            first: decode_write_id(r)?,
            second: decode_write_id(r)?,
        }),
        tag => {
            return Err(DecodeError::BadTag {
                what: "Transition",
                tag,
            })
        }
    })
}

/// Encode one state with a throwaway context (convenience for tests and
/// one-off uses; explorations reuse a [`CodecCtx`]).
#[must_use]
pub fn encode_state(state: &SystemState) -> Vec<u8> {
    CodecCtx::for_state(state).encode(state)
}

/// Decode one state against `program`/`params` with a throwaway context.
///
/// # Errors
///
/// As [`CodecCtx::decode`].
pub fn decode_state(
    bytes: &[u8],
    program: &Arc<Program>,
    params: &ModelParams,
) -> Result<SystemState, DecodeError> {
    CodecCtx::new(program.clone(), params.clone()).decode(bytes)
}
