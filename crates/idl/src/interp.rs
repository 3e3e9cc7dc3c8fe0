//! The IDL interpreter: steps an instruction's micro-operations, producing
//! the paper's `outcome` interface (§2.2) with suspension at reads.

use crate::ast::{BarrierKind, Block, Local, ReadKind, RegIndex, RegRef, Sem, Stmt, WriteKind};
use crate::eval::{bv_truth, eval_exp, Env, EvalError};
use crate::reg::{Reg, RegSlice};
use ppc_bits::{Bv, Tribool};
use std::sync::Arc;

/// One step's worth of externally visible behaviour of an instruction.
///
/// This is the paper's `outcome` type. The memory- and register-read cases
/// suspend the [`InstrState`] (which *is* the continuation); the rest of
/// the model resumes it with [`InstrState::resume_reg`] /
/// [`InstrState::resume_mem`] once a value is available, letting other
/// instruction instances make progress in between.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The instruction wants to read `size` bytes at `address`.
    ReadMem {
        /// Byte address of the access.
        address: u64,
        /// Access size in bytes.
        size: usize,
        /// Read flavour (normal or load-reserve).
        kind: ReadKind,
    },
    /// The instruction performs a memory write. The thread model records
    /// it (making it forwardable) and commits it to storage later. For
    /// [`WriteKind::Conditional`] the state suspends awaiting the success
    /// bit via [`InstrState::resume_write_cond`].
    WriteMem {
        /// Byte address of the access.
        address: u64,
        /// Access size in bytes.
        size: usize,
        /// The value, `8 * size` lifted bits.
        value: Bv,
        /// Write flavour (normal or store-conditional).
        kind: WriteKind,
    },
    /// A memory barrier event.
    Barrier {
        /// Which barrier.
        kind: BarrierKind,
    },
    /// The instruction wants to read a register slice.
    ReadReg {
        /// The slice to read.
        slice: RegSlice,
    },
    /// The instruction writes a register slice.
    WriteReg {
        /// The slice written.
        slice: RegSlice,
        /// The value, `slice.len` lifted bits.
        value: Bv,
    },
    /// An internal computation step with no externally visible effect.
    Internal,
    /// The instruction's semantics has completed.
    Done,
}

/// Errors from interpretation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IdlError {
    /// `step` was called while a read is pending resumption.
    PendingResume,
    /// `resume_*` was called with nothing pending, or the wrong kind.
    NotPending,
    /// A memory address evaluated to an undefined value. The paper's model
    /// does not allow undef in addresses (§2.1.7): semantic exploration
    /// would be infeasible.
    UndefAddress,
    /// A branch condition evaluated to an undefined value in concrete
    /// execution.
    UndefControl,
    /// A dynamic register number or slice start was undefined or out of
    /// range.
    BadRegIndex,
    /// Loop bounds were not concrete.
    UndefLoopBound,
    /// Expression evaluation failed.
    Eval(EvalError),
    /// A resumed value had the wrong width.
    WidthMismatch {
        /// Bits expected.
        expected: usize,
        /// Bits supplied.
        got: usize,
    },
    /// The step budget was exhausted (malformed looping semantics).
    OutOfFuel,
}

impl std::fmt::Display for IdlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IdlError::PendingResume => write!(f, "instruction is awaiting a resumed value"),
            IdlError::NotPending => write!(f, "no read is pending resumption"),
            IdlError::UndefAddress => write!(f, "undefined value used as a memory address"),
            IdlError::UndefControl => write!(f, "undefined value used as a branch condition"),
            IdlError::BadRegIndex => write!(f, "bad dynamic register index"),
            IdlError::UndefLoopBound => write!(f, "loop bound is not concrete"),
            IdlError::Eval(e) => write!(f, "evaluation error: {e}"),
            IdlError::WidthMismatch { expected, got } => {
                write!(f, "resumed value has {got} bits, expected {expected}")
            }
            IdlError::OutOfFuel => write!(f, "instruction exceeded its step budget"),
        }
    }
}

impl std::error::Error for IdlError {}

impl From<EvalError> for IdlError {
    fn from(e: EvalError) -> Self {
        IdlError::Eval(e)
    }
}

/// A control-stack frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Frame {
    /// Executing a block at statement index `idx`.
    Block {
        /// The block.
        stmts: Block,
        /// Next statement index.
        idx: usize,
    },
    /// A counted loop between body iterations.
    Loop {
        /// Loop variable.
        var: Local,
        /// Next value of the loop variable.
        next: i64,
        /// Final (inclusive) value.
        last: i64,
        /// Direction.
        downto: bool,
        /// Body to push per iteration.
        body: Block,
    },
}

/// What the interpreter is suspended on.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Pending {
    /// Awaiting a register value for this local.
    Reg(Local, RegSlice),
    /// Awaiting a memory value for this local.
    Mem(Local, u64, usize),
    /// Awaiting a store-conditional success bit for this local.
    WriteCond(Local),
}

/// The paper's abstract `instruction_state`: a suspended (or running)
/// execution of one instruction's semantics.
///
/// Cloning is cheap (blocks are reference-counted), which the thread model
/// relies on for restarts and for exhaustive footprint re-analysis of
/// partially executed instructions.
///
/// `Hash`/`PartialEq` compare the dynamic state (environment, control
/// stack position, pending read) and identify the semantics by pointer —
/// adequate for state-space memoisation when semantics are shared via a
/// per-address cache, as the concurrency model does.
#[derive(Clone, Debug)]
pub struct InstrState {
    pub(crate) sem: Arc<Sem>,
    pub(crate) env: Env,
    pub(crate) stack: Vec<Frame>,
    pub(crate) pending: Option<Pending>,
    pub(crate) fuel: u32,
}

/// Generous default step budget; real POWER fixed-point semantics complete
/// in far fewer steps (loop instructions iterate at most 32 times).
const DEFAULT_FUEL: u32 = 100_000;

impl std::hash::Hash for InstrState {
    /// Process-stable: control-stack blocks are identified by their
    /// index in the canonical [`crate::sem_blocks`] enumeration, never
    /// by `Arc` pointer. A pointer is a valid identity proxy within one
    /// process (semantics are shared via a per-address cache) but
    /// differs between independently built systems, and a state digest
    /// must depend on the state's content alone: the same logical state
    /// gets the same hash however its semantics were allocated, so
    /// digests are reproducible from run to run. The semantics itself is
    /// not hashed at all: within a process `Eq` ties it to the pointer,
    /// and every digest embedding this hash also hashes the owning
    /// instruction's address, which identifies the semantics.
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        self.env.hash(h);
        self.stack.len().hash(h);
        if !self.stack.is_empty() {
            let blocks = crate::codec::sem_blocks(&self.sem);
            for f in &self.stack {
                match f {
                    Frame::Block { stmts, idx } => {
                        0u8.hash(h);
                        crate::codec::block_index(&blocks, stmts).hash(h);
                        idx.hash(h);
                    }
                    Frame::Loop {
                        var,
                        next,
                        last,
                        downto,
                        body,
                    } => {
                        1u8.hash(h);
                        var.hash(h);
                        next.hash(h);
                        last.hash(h);
                        downto.hash(h);
                        crate::codec::block_index(&blocks, body).hash(h);
                    }
                }
            }
        }
        self.pending.hash(h);
    }
}

impl PartialEq for InstrState {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.sem, &other.sem)
            && self.env == other.env
            && self.stack == other.stack
            && self.pending == other.pending
    }
}

impl Eq for InstrState {}

impl InstrState {
    /// The initial state of an instruction's semantics (the paper's
    /// `initial_state`).
    #[must_use]
    pub fn new(sem: Arc<Sem>) -> Self {
        let n = sem.num_locals();
        InstrState {
            stack: vec![Frame::Block {
                stmts: sem.stmts.clone(),
                idx: 0,
            }],
            env: Env::new(n),
            sem,
            pending: None,
            fuel: DEFAULT_FUEL,
        }
    }

    /// The semantics this state is executing.
    #[must_use]
    pub fn sem(&self) -> &Arc<Sem> {
        &self.sem
    }

    /// The current local environment (for state display).
    #[must_use]
    pub fn env(&self) -> &Env {
        &self.env
    }

    /// Whether all micro-operations have completed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.pending.is_none()
            && self.stack.iter().all(|f| match f {
                Frame::Block { stmts, idx } => *idx >= stmts.len(),
                Frame::Loop { .. } => false,
            })
    }

    /// Whether the state is suspended awaiting a `resume_*` call.
    #[must_use]
    pub fn is_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// If suspended on a register read, the slice awaited.
    #[must_use]
    pub fn pending_reg(&self) -> Option<RegSlice> {
        match &self.pending {
            Some(Pending::Reg(_, s)) => Some(*s),
            _ => None,
        }
    }

    /// If suspended on a memory read, the `(address, size)` awaited.
    #[must_use]
    pub fn pending_mem(&self) -> Option<(u64, usize)> {
        match &self.pending {
            Some(Pending::Mem(_, a, s)) => Some((*a, *s)),
            _ => None,
        }
    }

    /// Execute one micro-operation, producing its [`Outcome`]. This is the
    /// paper's `interp : instruction_state -> outcome`.
    ///
    /// # Errors
    ///
    /// Fails if a value is pending resumption, or on malformed semantics
    /// (undefined addresses/conditions, bad indices, exhausted fuel).
    pub fn step(&mut self) -> Result<Outcome, IdlError> {
        if self.pending.is_some() {
            return Err(IdlError::PendingResume);
        }
        if self.fuel == 0 {
            return Err(IdlError::OutOfFuel);
        }
        self.fuel -= 1;

        // Find the next statement, popping exhausted frames.
        let stmt = loop {
            match self.stack.last_mut() {
                None => return Ok(Outcome::Done),
                Some(Frame::Block { stmts, idx }) => {
                    if *idx >= stmts.len() {
                        self.stack.pop();
                        continue;
                    }
                    let s = stmts[*idx].clone();
                    *idx += 1;
                    break s;
                }
                Some(Frame::Loop {
                    var,
                    next,
                    last,
                    downto,
                    body,
                }) => {
                    let finished = if *downto {
                        *next < *last
                    } else {
                        *next > *last
                    };
                    if finished {
                        self.stack.pop();
                        continue;
                    }
                    let v = Bv::from_i64(*next, 64);
                    let var = *var;
                    let body = body.clone();
                    if *downto {
                        *next -= 1;
                    } else {
                        *next += 1;
                    }
                    self.env.set(var, v);
                    self.stack.push(Frame::Block {
                        stmts: body,
                        idx: 0,
                    });
                    return Ok(Outcome::Internal);
                }
            }
        };

        self.exec(stmt)
    }

    fn exec(&mut self, stmt: Stmt) -> Result<Outcome, IdlError> {
        match stmt {
            Stmt::Init(l, e) => {
                let v = eval_exp(&e, &self.env)?;
                self.env.set(l, v);
                Ok(Outcome::Internal)
            }
            Stmt::ReadReg(l, rr) => {
                let slice = self.resolve(&rr)?;
                self.pending = Some(Pending::Reg(l, slice));
                Ok(Outcome::ReadReg { slice })
            }
            Stmt::WriteReg(rr, e) => {
                let slice = self.resolve(&rr)?;
                let v = eval_exp(&e, &self.env)?;
                // Implicit coercion to the slice width, as in the vendor
                // pseudocode (low bits kept, zero-extended if narrower).
                let value = v.extz(slice.len);
                Ok(Outcome::WriteReg { slice, value })
            }
            Stmt::ReadMem(l, addr, size, kind) => {
                let a = eval_exp(&addr, &self.env)?;
                let address = a.to_u64().ok_or(IdlError::UndefAddress)?;
                self.pending = Some(Pending::Mem(l, address, size));
                Ok(Outcome::ReadMem {
                    address,
                    size,
                    kind,
                })
            }
            Stmt::WriteMem(addr, size, data, kind) => {
                let a = eval_exp(&addr, &self.env)?;
                let address = a.to_u64().ok_or(IdlError::UndefAddress)?;
                let v = eval_exp(&data, &self.env)?;
                Ok(Outcome::WriteMem {
                    address,
                    size,
                    value: v.extz(size * 8),
                    kind,
                })
            }
            Stmt::WriteMemCond(l, addr, size, data) => {
                let a = eval_exp(&addr, &self.env)?;
                let address = a.to_u64().ok_or(IdlError::UndefAddress)?;
                let v = eval_exp(&data, &self.env)?;
                self.pending = Some(Pending::WriteCond(l));
                Ok(Outcome::WriteMem {
                    address,
                    size,
                    value: v.extz(size * 8),
                    kind: WriteKind::Conditional,
                })
            }
            Stmt::Barrier(kind) => Ok(Outcome::Barrier { kind }),
            Stmt::If(c, t, f) => {
                let cv = eval_exp(&c, &self.env)?;
                match bv_truth(&cv) {
                    Tribool::True => self.stack.push(Frame::Block { stmts: t, idx: 0 }),
                    Tribool::False => self.stack.push(Frame::Block { stmts: f, idx: 0 }),
                    Tribool::Undef => return Err(IdlError::UndefControl),
                }
                Ok(Outcome::Internal)
            }
            Stmt::For {
                var,
                from,
                to,
                downto,
                body,
            } => {
                let f = eval_exp(&from, &self.env)?
                    .to_i64()
                    .ok_or(IdlError::UndefLoopBound)?;
                let t = eval_exp(&to, &self.env)?
                    .to_i64()
                    .ok_or(IdlError::UndefLoopBound)?;
                self.stack.push(Frame::Loop {
                    var,
                    next: f,
                    last: t,
                    downto,
                    body,
                });
                Ok(Outcome::Internal)
            }
        }
    }

    /// Resolve a register reference to a concrete slice.
    pub(crate) fn resolve(&self, rr: &RegRef) -> Result<RegSlice, IdlError> {
        resolve_regref(rr, &self.env)
    }

    /// Supply the value for a pending register read.
    ///
    /// # Errors
    ///
    /// Fails if no register read is pending or the width is wrong.
    pub fn resume_reg(&mut self, value: Bv) -> Result<(), IdlError> {
        match self.pending.take() {
            Some(Pending::Reg(l, slice)) => {
                if value.len() != slice.len {
                    self.pending = Some(Pending::Reg(l, slice));
                    return Err(IdlError::WidthMismatch {
                        expected: slice.len,
                        got: value.len(),
                    });
                }
                self.env.set(l, value);
                Ok(())
            }
            other => {
                self.pending = other;
                Err(IdlError::NotPending)
            }
        }
    }

    /// Supply the success bit for a pending store-conditional.
    ///
    /// # Errors
    ///
    /// Fails if no store-conditional is pending.
    pub fn resume_write_cond(&mut self, success: bool) -> Result<(), IdlError> {
        match self.pending.take() {
            Some(Pending::WriteCond(l)) => {
                self.env.set(l, Bv::from_u64(u64::from(success), 1));
                Ok(())
            }
            other => {
                self.pending = other;
                Err(IdlError::NotPending)
            }
        }
    }

    /// Whether a store-conditional success bit is awaited.
    #[must_use]
    pub fn pending_write_cond(&self) -> bool {
        matches!(self.pending, Some(Pending::WriteCond(_)))
    }

    /// Supply the value for a pending memory read.
    ///
    /// # Errors
    ///
    /// Fails if no memory read is pending or the width is wrong.
    pub fn resume_mem(&mut self, value: Bv) -> Result<(), IdlError> {
        match self.pending.take() {
            Some(Pending::Mem(l, a, sz)) => {
                if value.len() != sz * 8 {
                    self.pending = Some(Pending::Mem(l, a, sz));
                    return Err(IdlError::WidthMismatch {
                        expected: sz * 8,
                        got: value.len(),
                    });
                }
                self.env.set(l, value);
                Ok(())
            }
            other => {
                self.pending = other;
                Err(IdlError::NotPending)
            }
        }
    }
}

/// Resolve a register reference against an environment.
pub(crate) fn resolve_regref(rr: &RegRef, env: &Env) -> Result<RegSlice, IdlError> {
    let reg = match &rr.reg {
        RegIndex::Fixed(r) => *r,
        RegIndex::GprDyn(e) => {
            let n = eval_exp(e, env)?.to_u64().ok_or(IdlError::BadRegIndex)?;
            if n >= 32 {
                return Err(IdlError::BadRegIndex);
            }
            Reg::Gpr(n as u8)
        }
    };
    match &rr.slice {
        None => Ok(reg.whole()),
        Some((start, len)) => {
            let s = eval_exp(start, env)?
                .to_u64()
                .ok_or(IdlError::BadRegIndex)? as usize;
            if s + len > reg.width() {
                return Err(IdlError::BadRegIndex);
            }
            Ok(RegSlice::new(reg, s, *len))
        }
    }
}
