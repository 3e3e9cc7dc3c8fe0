//! Canonical byte encoding for the dynamic interpreter state.
//!
//! A suspended [`InstrState`] is a continuation over the instruction's
//! semantics AST: its control stack holds [`Block`]s that are (shared)
//! sub-blocks of the [`Sem`] it executes. Pointers obviously cannot
//! travel to disk, so the codec identifies every block by its *index in
//! a deterministic enumeration of the semantics' blocks*
//! ([`sem_blocks`]): the root statement list first, then every nested
//! `If`/`For` block in statement order, depth-first. The decoder
//! resolves indices back against the same enumeration of the same
//! (program-cached) `Sem`, so rebuilt frames share the original `Arc`
//! allocations — which keeps pointer-identity-based state hashing stable
//! across a spill-to-disk round trip.
//!
//! Because the enumeration is purely structural, the encoding is also
//! stable across two *independently built* systems for the same program:
//! the bytes contain block indices and values, never addresses. This is
//! what the `Arc`-pointer-based digests cannot give, and what lets the
//! committed golden encodings pin the format byte for byte.

use crate::ast::{BarrierKind, Block, Local, Sem, Stmt};
use crate::eval::Env;
use crate::interp::{Frame, InstrState, Pending};
use crate::reg::{Reg, RegSlice};
use ppc_bits::{DecodeError, Reader, Writer};
use std::sync::Arc;

/// Enumerate every block of a semantics deterministically: the root
/// statement list, then each `If` then/else and `For` body in statement
/// order, depth-first. The same `Sem` always yields the same list, so
/// block indices are a rebuild-stable identity for control-stack frames.
#[must_use]
pub fn sem_blocks(sem: &Sem) -> Vec<Block> {
    let mut out: Vec<Block> = Vec::new();
    let mut stack: Vec<Block> = vec![sem.stmts.clone()];
    while let Some(b) = stack.pop() {
        out.push(b.clone());
        // Collect children in reverse so the depth-first order matches
        // statement order.
        let mut children: Vec<Block> = Vec::new();
        for s in b.iter() {
            match s {
                Stmt::If(_, t, f) => {
                    children.push(t.clone());
                    children.push(f.clone());
                }
                Stmt::For { body, .. } => children.push(body.clone()),
                _ => {}
            }
        }
        stack.extend(children.into_iter().rev());
    }
    out
}

/// The index of `block` in `blocks`, preferring pointer identity (the
/// interpreter only ever pushes clones of AST sub-blocks) with a
/// content-equality fallback. Also the control-stack identity
/// [`InstrState`](crate::InstrState)'s `Hash` uses: the index is
/// rebuild- and process-stable where the `Arc` pointer is not.
pub(crate) fn block_index(blocks: &[Block], block: &Block) -> usize {
    if let Some(i) = blocks.iter().position(|b| Arc::ptr_eq(b, block)) {
        return i;
    }
    blocks
        .iter()
        .position(|b| b == block)
        .expect("control-stack block is a sub-block of its semantics")
}

/// Encode a register as a single byte (GPRs 0–31, then the specials).
pub fn encode_reg(w: &mut Writer, r: Reg) {
    let b = match r {
        Reg::Gpr(n) => n,
        Reg::Cr => 32,
        Reg::Xer => 33,
        Reg::Lr => 34,
        Reg::Ctr => 35,
        Reg::Cia => 36,
        Reg::Nia => 37,
    };
    w.byte(b);
}

/// Decode a register byte.
///
/// # Errors
///
/// Rejects bytes outside the register universe.
pub fn decode_reg(r: &mut Reader<'_>) -> Result<Reg, DecodeError> {
    match r.byte()? {
        n @ 0..=31 => Ok(Reg::Gpr(n)),
        32 => Ok(Reg::Cr),
        33 => Ok(Reg::Xer),
        34 => Ok(Reg::Lr),
        35 => Ok(Reg::Ctr),
        36 => Ok(Reg::Cia),
        37 => Ok(Reg::Nia),
        tag => Err(DecodeError::BadTag { what: "Reg", tag }),
    }
}

/// Encode a register slice.
pub fn encode_reg_slice(w: &mut Writer, s: RegSlice) {
    encode_reg(w, s.reg);
    w.usizev(s.start);
    w.usizev(s.len);
}

/// Decode a register slice.
///
/// # Errors
///
/// Rejects slices that do not fit their register.
pub fn decode_reg_slice(r: &mut Reader<'_>) -> Result<RegSlice, DecodeError> {
    let reg = decode_reg(r)?;
    let start = r.usizev()?;
    let len = r.usizev()?;
    // Checked: corrupt varints must reject, not overflow (debug builds
    // trap the addition).
    if start.checked_add(len).is_none_or(|end| end > reg.width()) {
        return Err(DecodeError::Invalid("RegSlice out of register range"));
    }
    Ok(RegSlice::new(reg, start, len))
}

/// Encode a barrier kind as one byte.
pub fn encode_barrier_kind(w: &mut Writer, k: BarrierKind) {
    w.byte(match k {
        BarrierKind::Sync => 0,
        BarrierKind::Lwsync => 1,
        BarrierKind::Eieio => 2,
        BarrierKind::Isync => 3,
    });
}

/// Decode a barrier kind.
///
/// # Errors
///
/// Rejects unknown tags.
pub fn decode_barrier_kind(r: &mut Reader<'_>) -> Result<BarrierKind, DecodeError> {
    match r.byte()? {
        0 => Ok(BarrierKind::Sync),
        1 => Ok(BarrierKind::Lwsync),
        2 => Ok(BarrierKind::Eieio),
        3 => Ok(BarrierKind::Isync),
        tag => Err(DecodeError::BadTag {
            what: "BarrierKind",
            tag,
        }),
    }
}

fn encode_env(w: &mut Writer, env: &Env) {
    let n = env.slot_count();
    w.usizev(n);
    for i in 0..n {
        w.option(env.get(Local(i as u32)), Writer::bv);
    }
}

fn decode_env(r: &mut Reader<'_>) -> Result<Env, DecodeError> {
    let n = r.usizev()?;
    // Every slot takes at least one byte (its option flag), so a slot
    // count beyond the remaining input is certain truncation — reject it
    // *before* sizing the slot vector, lest a corrupt varint become a
    // pathological allocation (which panics rather than `Err`s).
    if n > r.remaining() {
        return Err(DecodeError::Truncated);
    }
    let mut env = Env::new(n);
    for i in 0..n {
        if let Some(v) = r.option(Reader::bv)? {
            env.set(Local(i as u32), v);
        }
    }
    Ok(env)
}

fn encode_pending(w: &mut Writer, p: &Pending) {
    match p {
        Pending::Reg(l, s) => {
            w.byte(0);
            w.u64v(u64::from(l.0));
            encode_reg_slice(w, *s);
        }
        Pending::Mem(l, addr, size) => {
            w.byte(1);
            w.u64v(u64::from(l.0));
            w.u64v(*addr);
            w.usizev(*size);
        }
        Pending::WriteCond(l) => {
            w.byte(2);
            w.u64v(u64::from(l.0));
        }
    }
}

fn decode_local(r: &mut Reader<'_>) -> Result<Local, DecodeError> {
    let v = r.u64v()?;
    u32::try_from(v)
        .map(Local)
        .map_err(|_| DecodeError::Invalid("Local out of u32 range"))
}

fn decode_pending(r: &mut Reader<'_>) -> Result<Pending, DecodeError> {
    match r.byte()? {
        0 => {
            let l = decode_local(r)?;
            let s = decode_reg_slice(r)?;
            Ok(Pending::Reg(l, s))
        }
        1 => {
            let l = decode_local(r)?;
            let addr = r.u64v()?;
            let size = r.usizev()?;
            Ok(Pending::Mem(l, addr, size))
        }
        2 => Ok(Pending::WriteCond(decode_local(r)?)),
        tag => Err(DecodeError::BadTag {
            what: "Pending",
            tag,
        }),
    }
}

/// Encode a suspended interpreter state against its semantics' block
/// enumeration (`blocks` must be [`sem_blocks`] of the state's `Sem`).
pub fn encode_instr_state(w: &mut Writer, st: &InstrState, blocks: &[Block]) {
    encode_env(w, &st.env);
    w.usizev(st.stack.len());
    for f in &st.stack {
        match f {
            Frame::Block { stmts, idx } => {
                w.byte(0);
                w.usizev(block_index(blocks, stmts));
                w.usizev(*idx);
            }
            Frame::Loop {
                var,
                next,
                last,
                downto,
                body,
            } => {
                w.byte(1);
                w.u64v(u64::from(var.0));
                w.i64v(*next);
                w.i64v(*last);
                w.bool(*downto);
                w.usizev(block_index(blocks, body));
            }
        }
    }
    w.option(st.pending.as_ref(), encode_pending);
    w.u64v(u64::from(st.fuel));
}

/// Decode a suspended interpreter state for `sem`, resolving block
/// indices against `blocks` (= [`sem_blocks`]`(sem)`), so the rebuilt
/// frames share the semantics' own `Arc` allocations.
///
/// # Errors
///
/// Any truncation, bad tag, or out-of-range block index.
pub fn decode_instr_state(
    r: &mut Reader<'_>,
    sem: &Arc<Sem>,
    blocks: &[Block],
) -> Result<InstrState, DecodeError> {
    let env = decode_env(r)?;
    // No capacity hint: a corrupt frame-count varint must surface as a
    // decode error from the per-frame reads, not as a pathological
    // up-front allocation (capacity overflow panics, it doesn't `Err`).
    let frames = r.usizev()?;
    let mut stack = Vec::new();
    let get_block = |i: usize| -> Result<Block, DecodeError> {
        blocks
            .get(i)
            .cloned()
            .ok_or(DecodeError::Invalid("block index out of range"))
    };
    for _ in 0..frames {
        let f = match r.byte()? {
            0 => {
                let b = r.usizev()?;
                let idx = r.usizev()?;
                Frame::Block {
                    stmts: get_block(b)?,
                    idx,
                }
            }
            1 => {
                let var = decode_local(r)?;
                let next = r.i64v()?;
                let last = r.i64v()?;
                let downto = r.bool()?;
                let body = get_block(r.usizev()?)?;
                Frame::Loop {
                    var,
                    next,
                    last,
                    downto,
                    body,
                }
            }
            tag => return Err(DecodeError::BadTag { what: "Frame", tag }),
        };
        stack.push(f);
    }
    let pending = r.option(decode_pending)?;
    let fuel = u32::try_from(r.u64v()?).map_err(|_| DecodeError::Invalid("fuel out of range"))?;
    Ok(InstrState {
        sem: sem.clone(),
        env,
        stack,
        pending,
        fuel,
    })
}

// ---- footprint ---------------------------------------------------------

use crate::analysis::{AccessSet, Footprint, NiaTarget};
use std::collections::BTreeSet;

fn encode_access_set(w: &mut Writer, a: &AccessSet) {
    match a {
        AccessSet::None => w.byte(0),
        AccessSet::Concrete(set) => {
            w.byte(1);
            w.usizev(set.len());
            for &(addr, size) in set {
                w.u64v(addr);
                w.usizev(size);
            }
        }
        AccessSet::Unknown => w.byte(2),
    }
}

fn decode_access_set(r: &mut Reader<'_>) -> Result<AccessSet, DecodeError> {
    match r.byte()? {
        0 => Ok(AccessSet::None),
        1 => {
            let n = r.usizev()?;
            let mut set = BTreeSet::new();
            for _ in 0..n {
                let addr = r.u64v()?;
                let size = r.usizev()?;
                set.insert((addr, size));
            }
            Ok(AccessSet::Concrete(set))
        }
        2 => Ok(AccessSet::Unknown),
        tag => Err(DecodeError::BadTag {
            what: "AccessSet",
            tag,
        }),
    }
}

/// Encode an analysed footprint (the codec serialises the *dynamic*
/// footprint of a partially executed instance; the static one is
/// recomputed from the shared program cache on decode).
pub fn encode_footprint(w: &mut Writer, fp: &Footprint) {
    w.usizev(fp.regs_in.len());
    for &s in &fp.regs_in {
        encode_reg_slice(w, s);
    }
    w.usizev(fp.regs_out.len());
    for &s in &fp.regs_out {
        encode_reg_slice(w, s);
    }
    encode_access_set(w, &fp.mem_reads);
    encode_access_set(w, &fp.mem_writes);
    w.usizev(fp.nias.len());
    for n in &fp.nias {
        match n {
            NiaTarget::Succ => w.byte(0),
            NiaTarget::Concrete(t) => {
                w.byte(1);
                w.u64v(*t);
            }
            NiaTarget::Indirect => w.byte(2),
        }
    }
    w.usizev(fp.addr_regs.len());
    for &s in &fp.addr_regs {
        encode_reg_slice(w, s);
    }
    w.usizev(fp.barriers.len());
    for &k in &fp.barriers {
        encode_barrier_kind(w, k);
    }
    w.bool(fp.incomplete);
}

/// Decode a footprint.
///
/// # Errors
///
/// Any truncation or bad tag.
pub fn decode_footprint(r: &mut Reader<'_>) -> Result<Footprint, DecodeError> {
    let mut regs_in = BTreeSet::new();
    for _ in 0..r.usizev()? {
        regs_in.insert(decode_reg_slice(r)?);
    }
    let mut regs_out = BTreeSet::new();
    for _ in 0..r.usizev()? {
        regs_out.insert(decode_reg_slice(r)?);
    }
    let mem_reads = decode_access_set(r)?;
    let mem_writes = decode_access_set(r)?;
    let mut nias = BTreeSet::new();
    for _ in 0..r.usizev()? {
        nias.insert(match r.byte()? {
            0 => NiaTarget::Succ,
            1 => NiaTarget::Concrete(r.u64v()?),
            2 => NiaTarget::Indirect,
            tag => {
                return Err(DecodeError::BadTag {
                    what: "NiaTarget",
                    tag,
                })
            }
        });
    }
    let mut addr_regs = BTreeSet::new();
    for _ in 0..r.usizev()? {
        addr_regs.insert(decode_reg_slice(r)?);
    }
    let mut barriers = BTreeSet::new();
    for _ in 0..r.usizev()? {
        barriers.insert(decode_barrier_kind(r)?);
    }
    let incomplete = r.bool()?;
    Ok(Footprint {
        regs_in,
        regs_out,
        mem_reads,
        mem_writes,
        nias,
        addr_regs,
        barriers,
        incomplete,
    })
}
