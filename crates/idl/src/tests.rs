//! Tests for the IDL: interpreter stepping/suspension, footprint analysis,
//! and address-taint tracking.

use crate::*;
use ppc_bits::Bv;
use std::sync::Arc;

fn ppc_idl_write_kind_normal() -> crate::WriteKind {
    crate::WriteKind::Normal
}

/// Build the paper's Fig.2 / §2.1.6 `stw RS,D(RA)` semantics:
///
/// ```text
/// if RA == 0 then b := 0 else b := GPR[RA];
/// EA := b + EXTS (D);
/// MEMw(EA,4) := (GPR[RS])[32 .. 63]
/// ```
fn stw_sem(rs: u8, ra: u8, d: i64) -> Arc<Sem> {
    let mut b = SemBuilder::new();
    let bb = b.local("b");
    let ea = b.local("EA");
    let data = b.local("data");
    b.reg_or_zero(bb, ra);
    b.assign(ea, b.add(b.l(bb), b.konst(Bv::from_i64(d, 64))));
    b.read_reg_slice(data, Reg::Gpr(rs), 32, 32);
    b.write_mem(b.l(ea), 4, b.l(data));
    Arc::new(b.build())
}

/// `lwz RT,D(RA)`.
fn lwz_sem(rt: u8, ra: u8, d: i64) -> Arc<Sem> {
    let mut b = SemBuilder::new();
    let bb = b.local("b");
    let ea = b.local("EA");
    let m = b.local("m");
    b.reg_or_zero(bb, ra);
    b.assign(ea, b.add(b.l(bb), b.konst(Bv::from_i64(d, 64))));
    b.read_mem(m, b.l(ea), 4);
    b.write_reg(Reg::Gpr(rt), b.extz(b.l(m), 64));
    Arc::new(b.build())
}

#[test]
fn validator_accepts_good_semantics() {
    assert!(validate(&stw_sem(7, 1, 0)).is_ok());
    assert!(validate(&lwz_sem(5, 2, 8)).is_ok());
}

#[test]
fn validator_rejects_use_before_def() {
    let mut b = SemBuilder::new();
    let x = b.local("x");
    let y = b.local("y");
    // y is never assigned before use
    b.assign(x, b.add(b.l(y), b.c64(1)));
    let sem = b.build();
    assert!(matches!(
        validate(&sem),
        Err(ValidateError::UseBeforeDef { .. })
    ));
}

#[test]
fn validator_if_requires_both_paths() {
    let mut b = SemBuilder::new();
    let x = b.local("x");
    let y = b.local("y");
    b.assign(x, b.c64(0));
    b.if_then(b.eq(b.l(x), b.c64(0)), |b| {
        b.assign(y, b.c64(1));
    });
    // y defined only on the then-path
    b.write_reg(Reg::Gpr(0), b.l(y));
    let sem = b.build();
    assert!(matches!(
        validate(&sem),
        Err(ValidateError::UseBeforeDef { .. })
    ));
}

#[test]
fn stw_interpretation_order_addresses_before_data() {
    // §2.1.6: the address register read comes before the data register
    // read, so the write address is computable before the data resolves.
    let mut st = InstrState::new(stw_sem(7, 1, 4));
    // b := GPR[1]
    match st.step().unwrap() {
        Outcome::ReadReg { slice } => {
            assert_eq!(slice.reg, Reg::Gpr(1));
            st.resume_reg(Bv::from_u64(0x1000, 64)).unwrap();
        }
        o => panic!("expected address register read, got {o:?}"),
    }
    // EA := b + EXTS(D)
    assert!(matches!(st.step().unwrap(), Outcome::Internal));
    // data := GPR[7][32..63]
    match st.step().unwrap() {
        Outcome::ReadReg { slice } => {
            assert_eq!(slice, RegSlice::new(Reg::Gpr(7), 32, 32));
            st.resume_reg(Bv::from_u64(0xDEAD_BEEF, 32)).unwrap();
        }
        o => panic!("expected data register read, got {o:?}"),
    }
    // MEMw(EA,4) := data
    match st.step().unwrap() {
        Outcome::WriteMem {
            address,
            size,
            value,
            kind,
        } => {
            assert_eq!(kind, ppc_idl_write_kind_normal());
            assert_eq!(address, 0x1004);
            assert_eq!(size, 4);
            assert_eq!(value.to_u64(), Some(0xDEAD_BEEF));
        }
        o => panic!("expected memory write, got {o:?}"),
    }
    assert!(matches!(st.step().unwrap(), Outcome::Done));
    assert!(st.is_done());
}

#[test]
fn ra_zero_means_literal_zero() {
    let mut st = InstrState::new(stw_sem(7, 0, 0x80));
    // No register read for the base: straight to internal assigns.
    assert!(matches!(st.step().unwrap(), Outcome::Internal)); // b := 0
    assert!(matches!(st.step().unwrap(), Outcome::Internal)); // EA := ...
    match st.step().unwrap() {
        Outcome::ReadReg { slice } => {
            assert_eq!(slice.reg, Reg::Gpr(7));
            st.resume_reg(Bv::from_u64(1, 32)).unwrap();
        }
        o => panic!("unexpected {o:?}"),
    }
    match st.step().unwrap() {
        Outcome::WriteMem { address, .. } => assert_eq!(address, 0x80),
        o => panic!("unexpected {o:?}"),
    }
}

#[test]
fn step_while_pending_is_an_error() {
    let mut st = InstrState::new(lwz_sem(5, 2, 0));
    match st.step().unwrap() {
        Outcome::ReadReg { .. } => {}
        o => panic!("unexpected {o:?}"),
    }
    assert_eq!(st.step(), Err(IdlError::PendingResume));
    assert!(st.is_pending());
    assert_eq!(st.pending_reg(), Some(Reg::Gpr(2).whole()));
}

#[test]
fn resume_checks_widths() {
    let mut st = InstrState::new(lwz_sem(5, 2, 0));
    let _ = st.step().unwrap();
    assert_eq!(
        st.resume_reg(Bv::from_u64(0, 32)),
        Err(IdlError::WidthMismatch {
            expected: 64,
            got: 32
        })
    );
    // After the error the read is still pending and resumable.
    st.resume_reg(Bv::from_u64(0x2000, 64)).unwrap();
}

#[test]
fn mem_read_suspension_and_resume() {
    let mut st = InstrState::new(lwz_sem(5, 2, 8));
    let _ = st.step().unwrap(); // ReadReg GPR2
    st.resume_reg(Bv::from_u64(0x1000, 64)).unwrap();
    let _ = st.step().unwrap(); // EA :=
    match st.step().unwrap() {
        Outcome::ReadMem {
            address,
            size,
            kind: _,
        } => {
            assert_eq!((address, size), (0x1008, 4));
        }
        o => panic!("unexpected {o:?}"),
    }
    assert_eq!(st.pending_mem(), Some((0x1008, 4)));
    st.resume_mem(Bv::from_u64(42, 32)).unwrap();
    match st.step().unwrap() {
        Outcome::WriteReg { slice, value } => {
            assert_eq!(slice, Reg::Gpr(5).whole());
            assert_eq!(value.to_u64(), Some(42));
        }
        o => panic!("unexpected {o:?}"),
    }
}

#[test]
fn undef_address_is_rejected() {
    let mut b = SemBuilder::new();
    let m = b.local("m");
    b.read_mem(m, b.konst(Bv::undef(64)), 4);
    let mut st = InstrState::new(Arc::new(b.build()));
    assert_eq!(st.step(), Err(IdlError::UndefAddress));
}

#[test]
fn footprint_of_stw() {
    let fp = analyze(&stw_sem(7, 1, 0));
    assert!(fp.regs_in.contains(&Reg::Gpr(1).whole()));
    assert!(fp.regs_in.contains(&RegSlice::new(Reg::Gpr(7), 32, 32)));
    assert!(fp.regs_out.is_empty());
    assert!(fp.is_store());
    assert!(!fp.is_load());
    // Address is not yet determined (depends on GPR1).
    assert_eq!(fp.mem_writes, AccessSet::Unknown);
    // Taint: the *base* register feeds the address, the data register
    // does not. This is the heart of LB+datas+WW vs LB+addrs+WW.
    assert!(fp.addr_regs.contains(&Reg::Gpr(1).whole()));
    assert!(!fp.addr_regs.contains(&RegSlice::new(Reg::Gpr(7), 32, 32)));
    assert_eq!(fp.nias, std::collections::BTreeSet::from([NiaTarget::Succ]));
}

#[test]
fn footprint_with_ra_zero_is_concrete() {
    let fp = analyze(&stw_sem(7, 0, 0x100));
    assert_eq!(
        fp.mem_writes,
        AccessSet::Concrete(std::collections::BTreeSet::from([(0x100u64, 4usize)]))
    );
    assert!(fp.addr_regs.is_empty());
}

#[test]
fn partial_reanalysis_refines_footprint() {
    // Resolve the address register; the re-analysis must then report a
    // concrete write footprint even though the data register is pending.
    let mut st = InstrState::new(stw_sem(7, 1, 4));
    match st.step().unwrap() {
        Outcome::ReadReg { .. } => st.resume_reg(Bv::from_u64(0x1000, 64)).unwrap(),
        o => panic!("unexpected {o:?}"),
    }
    let fp = analyze_from(&st);
    assert_eq!(
        fp.mem_writes,
        AccessSet::Concrete(std::collections::BTreeSet::from([(0x1004u64, 4usize)]))
    );
    // The remaining register read (the data) is not address-feeding.
    assert!(fp.addr_regs.is_empty());
}

#[test]
fn reanalysis_of_pending_read_keeps_taint() {
    // While the *address* register read is pending, the footprint is
    // unknown and the pending slice is flagged as address-feeding.
    let mut st = InstrState::new(stw_sem(7, 1, 4));
    match st.step().unwrap() {
        Outcome::ReadReg { .. } => {} // leave pending
        o => panic!("unexpected {o:?}"),
    }
    let fp = analyze_from(&st);
    assert_eq!(fp.mem_writes, AccessSet::Unknown);
    assert!(fp.addr_regs.contains(&Reg::Gpr(1).whole()));
}

#[test]
fn conditional_branch_nia_analysis() {
    // if cond_bit then NIA := 0x200 (else fall through)
    let mut b = SemBuilder::new();
    let c = b.local("c");
    b.read_reg_slice(c, Reg::Cr, 2, 1);
    b.if_then(b.l(c), |b| {
        b.write_reg(Reg::Nia, b.c64(0x200));
    });
    let sem = Arc::new(b.build());
    let fp = analyze(&sem);
    assert!(fp.nias.contains(&NiaTarget::Succ));
    assert!(fp.nias.contains(&NiaTarget::Concrete(0x200)));
    // CR bit is in regs_in with bit granularity.
    assert!(fp.regs_in.contains(&RegSlice::new(Reg::Cr, 2, 1)));
}

#[test]
fn indirect_branch_nia_analysis() {
    // NIA := LR (unknown at analysis time)
    let mut b = SemBuilder::new();
    let t = b.local("t");
    b.read_reg(t, Reg::Lr);
    b.write_reg(Reg::Nia, b.l(t));
    let fp = analyze(&Arc::new(b.build()));
    assert_eq!(
        fp.nias,
        std::collections::BTreeSet::from([NiaTarget::Indirect])
    );
}

#[test]
fn cia_reads_do_not_create_dependencies() {
    // §2.1.4: CIA/NIA must not give rise to dependencies.
    let mut b = SemBuilder::new();
    let pc = b.local("pc");
    b.read_reg(pc, Reg::Cia);
    b.write_reg(Reg::Nia, b.add(b.l(pc), b.c64(8)));
    let fp = analyze(&Arc::new(b.build()));
    assert!(fp.regs_in.is_empty());
    assert!(fp.regs_out.is_empty());
}

#[test]
fn barrier_outcome_and_footprint() {
    let mut b = SemBuilder::new();
    b.barrier(BarrierKind::Sync);
    let sem = Arc::new(b.build());
    let fp = analyze(&sem);
    assert!(fp.barriers.contains(&BarrierKind::Sync));
    assert!(fp.is_storage_barrier());
    let mut st = InstrState::new(sem);
    assert!(matches!(
        st.step().unwrap(),
        Outcome::Barrier {
            kind: BarrierKind::Sync
        }
    ));
    assert!(!BarrierKind::Isync.goes_to_storage());
}

#[test]
fn for_loop_executes_inclusive_bounds() {
    // sum := 0; for i = 1 to 4 do sum := sum + i
    let mut b = SemBuilder::new();
    let sum = b.local("sum");
    let i = b.local("i");
    b.assign(sum, b.c64(0));
    b.for_loop(i, b.c64(1), b.c64(4), false, |b| {
        b.assign(sum, b.add(b.l(sum), b.l(i)));
    });
    b.write_reg(Reg::Gpr(3), b.l(sum));
    let mut st = InstrState::new(Arc::new(b.build()));
    loop {
        match st.step().unwrap() {
            Outcome::WriteReg { value, .. } => {
                assert_eq!(value.to_u64(), Some(10));
                break;
            }
            Outcome::Done => panic!("finished without writing"),
            _ => {}
        }
    }
}

#[test]
fn downto_loop_and_dynamic_gpr() {
    // for i = 2 downto 1 do GPR[i] := i
    let mut b = SemBuilder::new();
    let i = b.local("i");
    b.for_loop(i, b.c64(2), b.c64(1), true, |b| {
        b.write_gpr_dyn(b.l(i), b.extz(b.l(i), 64));
    });
    let mut st = InstrState::new(Arc::new(b.build()));
    let mut writes = Vec::new();
    loop {
        match st.step().unwrap() {
            Outcome::WriteReg { slice, value } => {
                writes.push((slice.reg, value.to_u64().unwrap()));
            }
            Outcome::Done => break,
            _ => {}
        }
    }
    assert_eq!(writes, vec![(Reg::Gpr(2), 2), (Reg::Gpr(1), 1)]);
}

#[test]
fn analysis_forks_on_unknown_condition() {
    // if GPR3 == 0 then GPR4 := 1 else GPR5 := 1  — both writes possible.
    let mut b = SemBuilder::new();
    let x = b.local("x");
    b.read_reg(x, Reg::Gpr(3));
    b.if_then_else(
        b.eq(b.l(x), b.c64(0)),
        |b| b.write_reg(Reg::Gpr(4), b.c64(1)),
        |b| b.write_reg(Reg::Gpr(5), b.c64(1)),
    );
    let fp = analyze(&Arc::new(b.build()));
    assert!(fp.regs_out.contains(&Reg::Gpr(4).whole()));
    assert!(fp.regs_out.contains(&Reg::Gpr(5).whole()));
    assert!(!fp.incomplete);
}

#[test]
fn access_set_overlap() {
    let mut s = AccessSet::None;
    assert!(!s.may_overlap(0x100, 4));
    s.add_for_test(0x100, 4);
    assert!(s.may_overlap(0x100, 4));
    assert!(s.may_overlap(0x102, 1));
    assert!(s.may_overlap(0xFE, 4));
    assert!(!s.may_overlap(0x104, 4));
    assert!(!s.may_overlap(0xFC, 4));
    assert!(AccessSet::Unknown.may_overlap(0, 1));
}

impl AccessSet {
    fn add_for_test(&mut self, a: u64, s: usize) {
        match self {
            AccessSet::None => {
                *self = AccessSet::Concrete(std::collections::BTreeSet::from([(a, s)]));
            }
            AccessSet::Concrete(set) => {
                set.insert((a, s));
            }
            AccessSet::Unknown => {}
        }
    }
}

#[test]
fn pretty_printing_mentions_names() {
    let sem = stw_sem(7, 1, 0);
    let txt = sem.pretty();
    assert!(txt.contains("EA :="), "got: {txt}");
    assert!(txt.contains("MEMw"), "got: {txt}");
    let st = InstrState::new(sem);
    let rem = st.remaining_micro_ops();
    assert_eq!(rem.len(), 4);
}

#[test]
fn clone_is_a_true_snapshot() {
    let mut st = InstrState::new(lwz_sem(5, 2, 0));
    let snap = st.clone();
    let _ = st.step().unwrap();
    st.resume_reg(Bv::from_u64(0x1000, 64)).unwrap();
    // The snapshot is still at the beginning.
    let mut replay = snap;
    assert!(matches!(replay.step().unwrap(), Outcome::ReadReg { .. }));
}

/// `InstrState`'s hash depends on content alone: a state decoded
/// against a freshly built (different-allocation, content-equal)
/// semantics must hash the same as the original. Pointer-based hashing
/// passes every test that reuses one build and silently breaks exactly
/// this.
#[test]
fn instr_state_hash_is_rebuild_stable() {
    use crate::codec::{decode_instr_state, encode_instr_state, sem_blocks};
    use ppc_bits::{Reader, Writer};
    use std::hash::{Hash, Hasher};

    fn fingerprint(st: &InstrState) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        st.hash(&mut h);
        h.finish()
    }

    // Two builds of the same semantics: content-equal, disjoint Arcs —
    // what two independent parses of the same program produce.
    let ours = stw_sem(7, 1, 0);
    let theirs = stw_sem(7, 1, 0);
    assert!(!Arc::ptr_eq(&ours, &theirs));

    // Suspend mid-execution so the control stack holds a sub-block
    // (the `RA == 0` else-branch) and `pending` is live.
    let mut st = InstrState::new(ours.clone());
    assert!(matches!(st.step().unwrap(), Outcome::ReadReg { .. }));

    let mut w = Writer::new();
    encode_instr_state(&mut w, &st, &sem_blocks(&ours));
    let bytes = w.into_bytes();
    let rebuilt = decode_instr_state(&mut Reader::new(&bytes), &theirs, &sem_blocks(&theirs))
        .expect("state decodes against the content-equal semantics");

    assert_eq!(
        fingerprint(&st),
        fingerprint(&rebuilt),
        "InstrState hash must not depend on which process built the semantics"
    );
}
