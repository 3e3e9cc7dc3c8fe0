//! `ThreadState::final_reg` (word at a time) against a per-bit
//! reference walk, for every architected register, over the final
//! states of generated single-instruction runs and over the states
//! random walks reach through the litmus library.
//!
//! Both sources include partial-slice register writers: `mtcrf` /
//! `mtocrf` and the `cmp*` family write CR fields, and record (`.`) and
//! overflow (`o`) forms write CR0 and the XER SO/OV/CA bits. The test
//! asserts such writes were seen, so it cannot pass vacuously.

use ppcmem::bits::{Bv, Prng};
use ppcmem::idl::{Reg, RegSlice};
use ppcmem::litmus::{build_system, library, parse};
use ppcmem::model::{run_sequential, ModelParams, Program, SystemState, ThreadState};
use ppcmem::seqref::generate_tests;
use std::sync::Arc;

/// The deepest instance on the thread's path.
fn deepest(th: &ThreadState) -> Option<usize> {
    let mut last = th.root;
    while let Some(l) = last {
        match th.instances[l].children.as_slice() {
            [c] => last = Some(*c),
            _ => break,
        }
    }
    last
}

/// The per-bit walk `final_reg` used before it went word-level: for
/// each bit, the newest write covering it on the path from the deepest
/// instance up, else the initial register value.
fn final_reg_per_bit(th: &ThreadState, reg: Reg) -> Bv {
    let last = deepest(th);
    let bits = (0..reg.width())
        .map(|bitpos| {
            let bit_slice = RegSlice::new(reg, bitpos, 1);
            let mut cur = last;
            while let Some(c) = cur {
                let j = &th.instances[c];
                if let Some((ws, wv)) = j
                    .reg_writes
                    .iter()
                    .rev()
                    .find(|(ws, _)| ws.contains(&bit_slice))
                {
                    return wv.bit(bitpos - ws.start);
                }
                cur = j.parent;
            }
            th.init_reg(reg).bit(bitpos)
        })
        .collect();
    Bv::from_bits(bits)
}

/// Partial-slice register writes seen so far, per register kind.
#[derive(Default)]
struct Seen {
    cr_partial: usize,
    xer_partial: usize,
}

/// Compare both walks on every architected register of `th`.
fn check_thread(th: &ThreadState, what: &str) {
    for reg in Reg::architected() {
        assert_eq!(
            th.final_reg(reg),
            final_reg_per_bit(th, reg),
            "{what}: {reg}"
        );
    }
}

/// Compare both walks on every thread of `state`, and count the
/// partial CR/XER writes it holds.
fn check(state: &SystemState, what: &str, seen: &mut Seen) {
    for (tid, th) in state.threads.iter().enumerate() {
        check_thread(th, &format!("{what}: thread {tid}"));
        for inst in th.instances.values() {
            for (ws, _) in &inst.reg_writes {
                if ws.len < ws.reg.width() {
                    match ws.reg {
                        Reg::Cr => seen.cr_partial += 1,
                        Reg::Xer => seen.xer_partial += 1,
                        _ => {}
                    }
                }
            }
        }
    }
}

#[test]
fn final_reg_matches_per_bit_walk_on_sequential_runs() {
    let mut seen = Seen::default();
    for test in generate_tests(0xF1A1_2015, 1) {
        let code_addr = 0x1_0000;
        let program = Arc::new(Program::from_threads(&[(
            code_addr,
            vec![test.instr.clone()],
        )]));
        let initial_mem: Vec<(u64, Bv)> =
            test.init.mem.iter().map(|(&a, v)| (a, v.clone())).collect();
        let sys = SystemState::new(
            program,
            vec![(test.init.regs.clone(), code_addr)],
            &initial_mem,
            ModelParams::default(),
        );
        let (fin, _) = run_sequential(&sys, 10_000);
        check(&fin, &test.name, &mut seen);

        // No instruction writes one register bit twice, so give the
        // deepest instance two overlapping CR writes: the newer must
        // win the overlap.
        let mut th = (*fin.threads[0]).clone();
        let id = deepest(&th).expect("one instance ran");
        let mut inst = (*th.instances.remove(id).expect("live")).clone();
        inst.reg_writes
            .push((RegSlice::new(Reg::Cr, 4, 8), Bv::from_u64(0x5a, 8)));
        inst.reg_writes
            .push((RegSlice::new(Reg::Cr, 8, 8), Bv::undef(8)));
        th.instances.insert(Arc::new(inst));
        check_thread(&th, &format!("{}: overlapping writes", test.name));
    }
    assert!(seen.cr_partial > 0, "no partial CR writes generated");
    assert!(seen.xer_partial > 0, "no partial XER writes generated");
}

#[test]
fn final_reg_matches_per_bit_walk_on_litmus_walks() {
    const WALKS: usize = 4;
    let mut rng = Prng::seed_from_u64(0xF1A1_0030);
    let mut seen = Seen::default();
    for entry in library() {
        let test = parse(entry.source).unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let initial = build_system(&test, &ModelParams::default());
        for walk in 0..WALKS {
            let what = format!("{} walk {walk}", entry.name);
            let mut state = initial.clone();
            check(&state, &what, &mut seen);
            while !state.is_final() {
                let ts = state.enumerate_transitions();
                if ts.is_empty() {
                    break;
                }
                let t = &ts[rng.gen_range(0..ts.len() as u32) as usize];
                state = state.apply(t);
                check(&state, &what, &mut seen);
            }
        }
    }
    assert!(seen.cr_partial > 0, "no partial CR writes in the library");
}
