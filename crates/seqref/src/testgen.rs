//! Sequential test generation and differential conformance checking
//! (paper §7).
//!
//! For every instruction in the modelled fragment we generate tests with
//! "interesting partly-random combinations of machine state and
//! instruction parameters", exhaustively enumerating single-bit mode
//! fields (`Rc`/`OE`/`AA`/`LK`), "taking care with branches and
//! suchlike". Each test runs in the golden [`crate::SeqMachine`] and in
//! the concurrency model's sequential mode, and the final states are
//! compared *up to undef*.

use crate::machine::{MachineState, SeqMachine};
use ppc_bits::rng::Prng;
use ppc_bits::Bv;
use ppc_idl::Reg;
use ppc_isa::{
    ArithOp, Ea, Instruction, LogImmOp, LogOp, RldOp, RldcOp, ShiftOp, SprName, UnaryOp,
};
use ppc_model::{run_sequential, ModelParams, Program, SystemState};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Where the single tested instruction is placed.
const CODE_ADDR: u64 = 0x1_0000;
/// Scratch data region targeted by generated memory accesses.
const DATA_BASE: u64 = 0x8000;
const DATA_SIZE: u64 = 0x100;

/// A generated single-instruction test.
#[derive(Clone, Debug)]
pub struct SeqTest {
    /// Display name (mnemonic plus index).
    pub name: String,
    /// The instruction under test.
    pub instr: Instruction,
    /// The initial machine state.
    pub init: MachineState,
}

fn rand_reg_value(rng: &mut Prng) -> u64 {
    // Interesting values: small, boundary, random.
    match rng.gen_range(0..6u8) {
        0 => 0,
        1 => 1,
        2 => u64::MAX,
        3 => i64::MIN as u64,
        4 => u64::from(rng.gen::<u32>()),
        _ => rng.gen(),
    }
}

fn base_state(rng: &mut Prng) -> MachineState {
    let mut st = MachineState::default();
    for n in 0..32u8 {
        st.regs
            .insert(Reg::Gpr(n), Bv::from_u64(rand_reg_value(rng), 64));
    }
    st.regs
        .insert(Reg::Cr, Bv::from_u64(u64::from(rng.gen::<u32>()), 32));
    // XER: random SO/OV/CA bits only.
    let xer = (u64::from(rng.gen::<u8>() & 0b111)) << 29;
    st.regs.insert(Reg::Xer, Bv::from_u64(xer, 64));
    st.regs.insert(Reg::Lr, Bv::from_u64(CODE_ADDR + 0x40, 64));
    st.regs
        .insert(Reg::Ctr, Bv::from_u64(rng.gen_range(0..4), 64));
    // Scratch memory with random bytes.
    for a in (DATA_BASE..DATA_BASE + DATA_SIZE).step_by(8) {
        for i in 0..8u64 {
            st.mem
                .insert(a + i, Bv::from_u64(u64::from(rng.gen::<u8>()), 8));
        }
    }
    st
}

/// Pin a GPR so a memory access lands inside the scratch region.
fn pin_base(st: &mut MachineState, ra: u8, offset: i64) {
    if ra != 0 {
        let addr = (DATA_BASE as i64 + 0x80 - offset) as u64;
        st.regs.insert(Reg::Gpr(ra), Bv::from_u64(addr, 64));
    }
}

fn pin_index(st: &mut MachineState, rb: u8) {
    st.regs.insert(Reg::Gpr(rb), Bv::from_u64(8, 64));
}

/// A random GPR number.
fn r(rng: &mut Prng) -> u8 {
    rng.gen_range(0..32)
}

/// A random non-zero GPR number different from `avoid` (memory tests pin
/// base and index registers separately, so they must not collide).
fn r_distinct(rng: &mut Prng, avoid: u8) -> u8 {
    loop {
        let c = rng.gen_range(1..32);
        if c != avoid {
            return c;
        }
    }
}

/// Generate the conformance suite: `per_config` random states per
/// instruction shape, exhaustive over `Rc`/`OE` mode bits.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn generate_tests(seed: u64, per_config: usize) -> Vec<SeqTest> {
    let mut rng = Prng::seed_from_u64(seed);
    // A second stream for instruction *fields*, so field choice and
    // machine-state generation don't fight over one borrow.
    let mut frng = Prng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    let mut out = Vec::new();
    let mut push = |rng: &mut Prng, instr: Instruction, fix: &dyn Fn(&mut MachineState)| {
        if instr.is_invalid() {
            return;
        }
        for k in 0..per_config {
            let mut init = base_state(rng);
            fix(&mut init);
            out.push(SeqTest {
                name: format!("{}#{k}", instr.mnemonic()),
                instr: instr.clone(),
                init,
            });
        }
    };

    // ---- arithmetic (OE/Rc exhaustive) --------------------------------
    for op in [
        ArithOp::Add,
        ArithOp::Subf,
        ArithOp::Addc,
        ArithOp::Subfc,
        ArithOp::Adde,
        ArithOp::Subfe,
        ArithOp::Addme,
        ArithOp::Subfme,
        ArithOp::Addze,
        ArithOp::Subfze,
        ArithOp::Neg,
        ArithOp::Mullw,
        ArithOp::Mulhw,
        ArithOp::Mulhwu,
        ArithOp::Mulld,
        ArithOp::Mulhd,
        ArithOp::Mulhdu,
        ArithOp::Divw,
        ArithOp::Divwu,
        ArithOp::Divd,
        ArithOp::Divdu,
    ] {
        for oe in [false, true] {
            if oe && !op.has_oe() {
                continue;
            }
            for rc in [false, true] {
                let i = Instruction::Arith {
                    op,
                    rt: r(&mut frng),
                    ra: r(&mut frng),
                    rb: if op.has_rb() { r(&mut frng) } else { 0 },
                    oe,
                    rc,
                };
                push(&mut rng, i, &|_| {});
            }
        }
    }
    for _ in 0..2 {
        push(
            &mut rng,
            Instruction::Addi {
                rt: r(&mut frng),
                ra: r(&mut frng),
                si: frng.gen_range(-0x8000..0x8000),
            },
            &|_| {},
        );
        push(
            &mut rng,
            Instruction::Addis {
                rt: r(&mut frng),
                ra: r(&mut frng),
                si: frng.gen_range(-0x8000..0x8000),
            },
            &|_| {},
        );
        push(
            &mut rng,
            Instruction::Mulli {
                rt: r(&mut frng),
                ra: r(&mut frng),
                si: frng.gen_range(-0x8000..0x8000),
            },
            &|_| {},
        );
        push(
            &mut rng,
            Instruction::Subfic {
                rt: r(&mut frng),
                ra: r(&mut frng),
                si: frng.gen_range(-0x8000..0x8000),
            },
            &|_| {},
        );
        for rc in [false, true] {
            push(
                &mut rng,
                Instruction::Addic {
                    rt: r(&mut frng),
                    ra: r(&mut frng),
                    si: frng.gen_range(-0x8000..0x8000),
                    rc,
                },
                &|_| {},
            );
        }
    }

    // ---- compares ------------------------------------------------------
    for l in [false, true] {
        push(
            &mut rng,
            Instruction::Cmp {
                bf: frng.gen_range(0..8),
                l,
                ra: r(&mut frng),
                rb: r(&mut frng),
            },
            &|_| {},
        );
        push(
            &mut rng,
            Instruction::Cmpl {
                bf: frng.gen_range(0..8),
                l,
                ra: r(&mut frng),
                rb: r(&mut frng),
            },
            &|_| {},
        );
        push(
            &mut rng,
            Instruction::Cmpi {
                bf: frng.gen_range(0..8),
                l,
                ra: r(&mut frng),
                si: frng.gen_range(-0x8000..0x8000),
            },
            &|_| {},
        );
        push(
            &mut rng,
            Instruction::Cmpli {
                bf: frng.gen_range(0..8),
                l,
                ra: r(&mut frng),
                ui: frng.gen_range(0..0x10000),
            },
            &|_| {},
        );
    }

    // ---- logical / unary -------------------------------------------------
    for op in [
        LogOp::And,
        LogOp::Or,
        LogOp::Xor,
        LogOp::Nand,
        LogOp::Nor,
        LogOp::Eqv,
        LogOp::Andc,
        LogOp::Orc,
    ] {
        for rc in [false, true] {
            push(
                &mut rng,
                Instruction::Logical {
                    op,
                    rs: r(&mut frng),
                    ra: r(&mut frng),
                    rb: r(&mut frng),
                    rc,
                },
                &|_| {},
            );
        }
    }
    for op in [
        LogImmOp::Andi,
        LogImmOp::Andis,
        LogImmOp::Ori,
        LogImmOp::Oris,
        LogImmOp::Xori,
        LogImmOp::Xoris,
    ] {
        push(
            &mut rng,
            Instruction::LogImm {
                op,
                rs: r(&mut frng),
                ra: r(&mut frng),
                ui: frng.gen_range(0..0x10000),
            },
            &|_| {},
        );
    }
    for op in [
        UnaryOp::Extsb,
        UnaryOp::Extsh,
        UnaryOp::Extsw,
        UnaryOp::Cntlzw,
        UnaryOp::Cntlzd,
        UnaryOp::Popcntb,
    ] {
        for rc in [false, true] {
            if rc && op == UnaryOp::Popcntb {
                continue;
            }
            push(
                &mut rng,
                Instruction::Unary {
                    op,
                    rs: r(&mut frng),
                    ra: r(&mut frng),
                    rc,
                },
                &|_| {},
            );
        }
    }

    // ---- rotates / shifts -------------------------------------------------
    for rc in [false, true] {
        push(
            &mut rng,
            Instruction::Rlwinm {
                rs: r(&mut frng),
                ra: r(&mut frng),
                sh: frng.gen_range(0..32),
                mb: frng.gen_range(0..32),
                me: frng.gen_range(0..32),
                rc,
            },
            &|_| {},
        );
        push(
            &mut rng,
            Instruction::Rlwnm {
                rs: r(&mut frng),
                ra: r(&mut frng),
                rb: r(&mut frng),
                mb: frng.gen_range(0..32),
                me: frng.gen_range(0..32),
                rc,
            },
            &|_| {},
        );
        push(
            &mut rng,
            Instruction::Rlwimi {
                rs: r(&mut frng),
                ra: r(&mut frng),
                sh: frng.gen_range(0..32),
                mb: frng.gen_range(0..32),
                me: frng.gen_range(0..32),
                rc,
            },
            &|_| {},
        );
        for op in [RldOp::Icl, RldOp::Icr, RldOp::Ic, RldOp::Imi] {
            push(
                &mut rng,
                Instruction::Rld {
                    op,
                    rs: r(&mut frng),
                    ra: r(&mut frng),
                    sh: frng.gen_range(0..64),
                    mbe: frng.gen_range(0..64),
                    rc,
                },
                &|_| {},
            );
        }
        for op in [RldcOp::Cl, RldcOp::Cr] {
            push(
                &mut rng,
                Instruction::Rldc {
                    op,
                    rs: r(&mut frng),
                    ra: r(&mut frng),
                    rb: r(&mut frng),
                    mbe: frng.gen_range(0..64),
                    rc,
                },
                &|_| {},
            );
        }
        for op in [
            ShiftOp::Slw,
            ShiftOp::Srw,
            ShiftOp::Sraw,
            ShiftOp::Sld,
            ShiftOp::Srd,
            ShiftOp::Srad,
        ] {
            push(
                &mut rng,
                Instruction::Shift {
                    op,
                    rs: r(&mut frng),
                    ra: r(&mut frng),
                    rb: r(&mut frng),
                    rc,
                },
                &|_| {},
            );
        }
        push(
            &mut rng,
            Instruction::Srawi {
                rs: r(&mut frng),
                ra: r(&mut frng),
                sh: frng.gen_range(0..32),
                rc,
            },
            &|_| {},
        );
        push(
            &mut rng,
            Instruction::Sradi {
                rs: r(&mut frng),
                ra: r(&mut frng),
                sh: frng.gen_range(0..64),
                rc,
            },
            &|_| {},
        );
    }

    // ---- loads / stores -----------------------------------------------
    let load_shapes: &[(u8, bool, bool, bool)] = &[
        (1, false, false, false),
        (1, false, true, false),
        (2, false, false, false),
        (2, false, true, false),
        (2, true, false, false),
        (2, true, true, false),
        (2, false, false, true),
        (4, false, false, false),
        (4, false, true, false),
        (4, true, false, false),
        (4, false, false, true),
        (8, false, false, false),
        (8, false, true, false),
        (8, false, false, true),
    ];
    for &(size, algebraic, update, byterev) in load_shapes {
        // X-form.
        let ra = frng.gen_range(1..32);
        let (rt, rb) = (r(&mut frng), r_distinct(&mut frng, ra));
        let i = Instruction::Load {
            size,
            algebraic,
            update,
            byterev,
            rt,
            ra,
            ea: Ea::Rb(rb),
        };
        push(&mut rng, i, &move |st| {
            pin_base(st, ra, 8);
            pin_index(st, rb);
        });
        // D-form where it exists.
        #[allow(clippy::nonminimal_bool)]
        if !byterev && !(size == 4 && algebraic && update) {
            let (rt, ra) = (r(&mut frng), frng.gen_range(1..32));
            let d_raw = frng.gen_range(-0x40i64..0x40);
            let d = if size == 8 || (size == 4 && algebraic) {
                (d_raw / 4) * 4
            } else {
                d_raw
            } as i32;
            let i = Instruction::Load {
                size,
                algebraic,
                update,
                byterev,
                rt,
                ra,
                ea: Ea::D(d),
            };
            push(&mut rng, i, &move |st| pin_base(st, ra, i64::from(d)));
        }
    }
    let store_shapes: &[(u8, bool, bool)] = &[
        (1, false, false),
        (1, true, false),
        (2, false, false),
        (2, true, false),
        (2, false, true),
        (4, false, false),
        (4, true, false),
        (4, false, true),
        (8, false, false),
        (8, true, false),
        (8, false, true),
    ];
    for &(size, update, byterev) in store_shapes {
        let ra = frng.gen_range(1..32);
        let (rs, rb) = (r(&mut frng), r_distinct(&mut frng, ra));
        let i = Instruction::Store {
            size,
            update,
            byterev,
            rs,
            ra,
            ea: Ea::Rb(rb),
        };
        push(&mut rng, i, &move |st| {
            pin_base(st, ra, 8);
            pin_index(st, rb);
        });
        if !byterev {
            let (rs, ra) = (r(&mut frng), frng.gen_range(1..32));
            let d_raw = frng.gen_range(-0x40i64..0x40);
            let d = if size == 8 { (d_raw / 4) * 4 } else { d_raw } as i32;
            let i = Instruction::Store {
                size,
                update,
                byterev,
                rs,
                ra,
                ea: Ea::D(d),
            };
            push(&mut rng, i, &move |st| pin_base(st, ra, i64::from(d)));
        }
    }
    // Multiple/string.
    let rt = frng.gen_range(26..32);
    push(&mut rng, Instruction::Lmw { rt, ra: 1, d: 8 }, &|st| {
        pin_base(st, 1, 8)
    });
    push(
        &mut rng,
        Instruction::Stmw {
            rs: frng.gen_range(26..32),
            ra: 1,
            d: 8,
        },
        &|st| pin_base(st, 1, 8),
    );
    push(
        &mut rng,
        Instruction::Lswi {
            rt: 20,
            ra: 1,
            nb: frng.gen_range(1..12),
        },
        &|st| pin_base(st, 1, 0),
    );
    push(
        &mut rng,
        Instruction::Stswi {
            rs: 20,
            ra: 1,
            nb: frng.gen_range(1..12),
        },
        &|st| pin_base(st, 1, 0),
    );

    // ---- CR / SPR moves ------------------------------------------------
    for op in [
        ppc_isa::CrOp::And,
        ppc_isa::CrOp::Or,
        ppc_isa::CrOp::Xor,
        ppc_isa::CrOp::Nand,
        ppc_isa::CrOp::Nor,
        ppc_isa::CrOp::Eqv,
        ppc_isa::CrOp::Andc,
        ppc_isa::CrOp::Orc,
    ] {
        push(
            &mut rng,
            Instruction::CrLogical {
                op,
                bt: frng.gen_range(0..32),
                ba: frng.gen_range(0..32),
                bb: frng.gen_range(0..32),
            },
            &|_| {},
        );
    }
    push(
        &mut rng,
        Instruction::Mcrf {
            bf: frng.gen_range(0..8),
            bfa: frng.gen_range(0..8),
        },
        &|_| {},
    );
    for spr in [SprName::Lr, SprName::Ctr, SprName::Xer] {
        push(
            &mut rng,
            Instruction::Mfspr {
                rt: r(&mut frng),
                spr,
            },
            &|_| {},
        );
        push(
            &mut rng,
            Instruction::Mtspr {
                spr,
                rs: r(&mut frng),
            },
            &|_| {},
        );
    }
    push(&mut rng, Instruction::Mfcr { rt: r(&mut frng) }, &|_| {});
    push(
        &mut rng,
        Instruction::Mtcrf {
            fxm: frng.gen(),
            rs: r(&mut frng),
        },
        &|_| {},
    );
    for n in 0..8 {
        push(
            &mut rng,
            Instruction::Mtocrf {
                fxm: 0x80 >> n,
                rs: r(&mut frng),
            },
            &|_| {},
        );
        push(
            &mut rng,
            Instruction::Mfocrf {
                rt: r(&mut frng),
                fxm: 0x80 >> n,
            },
            &|_| {},
        );
    }

    // ---- branches (relative only, like the paper) -----------------------
    for (aa, lk) in [(false, false), (false, true)] {
        push(
            &mut rng,
            Instruction::B {
                li: frng.gen_range(1..8),
                aa,
                lk,
            },
            &|_| {},
        );
    }
    for bo in [20u8, 12, 4, 16, 18] {
        for lk in [false, true] {
            push(
                &mut rng,
                Instruction::Bc {
                    bo,
                    bi: frng.gen_range(0..32),
                    bd: frng.gen_range(1..8),
                    aa: false,
                    lk,
                },
                &|_| {},
            );
        }
    }
    push(
        &mut rng,
        Instruction::Bclr {
            bo: 20,
            bi: 0,
            bh: 0,
            lk: false,
        },
        &|_| {},
    );
    push(
        &mut rng,
        Instruction::Bcctr {
            bo: 20,
            bi: 0,
            bh: 0,
            lk: false,
        },
        &|st| {
            st.regs.insert(Reg::Ctr, Bv::from_u64(CODE_ADDR + 0x20, 64));
        },
    );

    // ---- barriers --------------------------------------------------------
    push(&mut rng, Instruction::Sync { l: 0 }, &|_| {});
    push(&mut rng, Instruction::Sync { l: 1 }, &|_| {});
    push(&mut rng, Instruction::Eieio, &|_| {});
    push(&mut rng, Instruction::Isync, &|_| {});

    out
}

/// The result of a conformance run.
#[derive(Clone, Debug, Default)]
pub struct ConformanceReport {
    /// Tests run.
    pub total: usize,
    /// Tests whose final states agreed up to undef.
    pub passed: usize,
    /// Failure descriptions (name and reason), capped at 20.
    pub failures: Vec<String>,
}

impl ConformanceReport {
    /// Whether every test passed.
    #[must_use]
    pub fn all_passed(&self) -> bool {
        self.total == self.passed
    }
}

/// Run one test in both machines and compare (up to undef). Returns an
/// error string on mismatch.
///
/// # Errors
///
/// Returns a description of the first discrepancy.
pub fn run_one(test: &SeqTest) -> Result<(), String> {
    // Golden: the direct-update reference machine.
    let mut golden = SeqMachine::from_instrs(std::slice::from_ref(&test.instr), CODE_ADDR);
    golden.state = test.init.clone();
    golden
        .step_instruction()
        .map_err(|e| format!("{}: golden fault: {e}", test.name))?;

    // Model: single-thread sequential mode.
    let program = Arc::new(Program::from_threads(&[(
        CODE_ADDR,
        vec![test.instr.clone()],
    )]));
    let regs: BTreeMap<Reg, Bv> = test.init.regs.clone();
    // Initial memory: contiguous byte runs as writes.
    let mut initial_mem: Vec<(u64, Bv)> = Vec::new();
    let mut iter = test.init.mem.iter().peekable();
    while let Some((&start, first)) = iter.next() {
        let mut run = first.clone();
        let mut next_addr = start + 1;
        while let Some(&(&a, v)) = iter.peek() {
            if a == next_addr && run.len() < 64 * 8 {
                run = run.concat(v);
                next_addr += 1;
                iter.next();
            } else {
                break;
            }
        }
        initial_mem.push((start, run));
    }
    let sys = SystemState::new(
        program,
        vec![(regs, CODE_ADDR)],
        &initial_mem,
        ModelParams::default(),
    );
    let (fin, _steps) = run_sequential(&sys, 10_000);

    // Compare registers.
    for r in Reg::architected() {
        let g = golden.state.reg(r);
        let m = fin.threads[0].final_reg(r);
        if !g.compatible(&m) {
            return Err(format!(
                "{}: {r} mismatch: golden {g} vs model {m}",
                test.name
            ));
        }
    }
    // Compare the scratch memory region byte-by-byte via coherence-final
    // values (single thread: unique completion). Single-threaded runs
    // have totally ordered writes per byte (accept-order), so the
    // writes_seen order (creation order) is coherence-consistent.
    let order: Vec<ppc_model::WriteId> = fin.storage.writes_seen.iter().copied().collect();
    for (&addr, gbyte) in &golden.state.mem {
        if let Some(mbyte) = fin.storage.final_byte_value(&order, addr) {
            if !gbyte.compatible(&mbyte) {
                return Err(format!(
                    "{}: mem[0x{addr:x}] mismatch: golden {gbyte} vs model {mbyte}",
                    test.name
                ));
            }
        }
    }
    Ok(())
}

/// Run the full conformance suite.
#[must_use]
pub fn run_conformance(tests: &[SeqTest]) -> ConformanceReport {
    let mut report = ConformanceReport::default();
    for t in tests {
        report.total += 1;
        match run_one(t) {
            Ok(()) => report.passed += 1,
            Err(e) => {
                if report.failures.len() < 20 {
                    report.failures.push(e);
                }
            }
        }
    }
    report
}
