//! The thread subsystem: trees of in-flight instruction instances.
//!
//! Each hardware thread maintains "a tree of in-flight and committed
//! instruction instances, expressing the programmer-visible aspects of
//! out-of-order and speculative computation" (paper §1.2), "branching at
//! conditional branch or calculated jump points, and discarding un-taken
//! subtrees when branches become committed" (§2.1.1).
//!
//! An instance couples the suspended interpreter state (§2.2) with the
//! statically analysed footprint data "obtained by running the
//! interpreter exhaustively, and a record of the register and memory
//! reads and writes the instruction has performed (cleared if the
//! instruction is restarted)" (§5).

use crate::types::{DigestCell, ThreadId, TransitionCache, WriteId};
use ppc_bits::{Bit, Bv};
use ppc_idl::{analyze_from, BarrierKind, Footprint, InstrState, Reg, RegSlice, Sem};
use ppc_isa::Instruction;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An instruction-instance identifier, unique within its thread.
///
/// Ids are allocated densely from zero ([`ThreadState::next_id`]), so
/// they double as direct indices into the thread's [`InstanceArena`].
pub type InstanceId = usize;

/// A dense arena of instruction instances, indexed by [`InstanceId`].
///
/// Instance ids are allocated densely from zero, so the arena is a plain
/// `Vec` of slots: lookup is an array index (the instruction-tree walks
/// — `ancestors`, per-bit register resolution, descendant scans — are
/// the hottest loops in successor generation, and each hop used to be a
/// `BTreeMap` search), and id iteration allocates nothing. Pruned
/// instances leave `None` holes; in a live state the slot vector always
/// has length [`ThreadState::next_id`].
///
/// Equality and the canonical codec see only the *live* `(id, instance)`
/// sequence in id order — exactly what the former
/// `BTreeMap<InstanceId, Arc<InstrInstance>>` exposed — so canonical
/// bytes and digests are unchanged by the layout.
#[derive(Clone, Debug, Default)]
pub struct InstanceArena {
    slots: Vec<Option<Arc<InstrInstance>>>,
    live: usize,
}

impl InstanceArena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        InstanceArena::default()
    }

    /// Number of live instances.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no instance is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Whether `id` names a live instance.
    #[must_use]
    pub fn contains(&self, id: InstanceId) -> bool {
        self.slots.get(id).is_some_and(Option::is_some)
    }

    /// The live instance at `id`, if any.
    #[must_use]
    pub fn get(&self, id: InstanceId) -> Option<&InstrInstance> {
        self.slots.get(id).and_then(|s| s.as_deref())
    }

    /// Copy-on-write mutable access to the instance at `id` (see
    /// [`ThreadState::inst_mut`], which is the funnel callers use).
    pub(crate) fn make_mut(&mut self, id: InstanceId) -> Option<&mut InstrInstance> {
        self.slots
            .get_mut(id)
            .and_then(Option::as_mut)
            .map(Arc::make_mut)
    }

    /// Insert an instance at its own id (fills the slot, extending the
    /// vector with holes if the id is past the end — decode inserts in
    /// id order, live execution always appends at `next_id`).
    ///
    /// # Panics
    ///
    /// Panics if the slot is already occupied (instance ids are unique).
    pub fn insert(&mut self, inst: Arc<InstrInstance>) {
        let id = inst.id;
        if id >= self.slots.len() {
            self.slots.resize_with(id + 1, || None);
        }
        assert!(self.slots[id].is_none(), "instance id {id} inserted twice");
        self.slots[id] = Some(inst);
        self.live += 1;
    }

    /// Remove (prune) the instance at `id`, leaving a hole.
    pub fn remove(&mut self, id: InstanceId) -> Option<Arc<InstrInstance>> {
        let out = self.slots.get_mut(id).and_then(Option::take);
        if out.is_some() {
            self.live -= 1;
        }
        out
    }

    /// Iterate over live instance ids in ascending order,
    /// allocation-free.
    pub fn ids(&self) -> impl Iterator<Item = InstanceId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(id, s)| s.as_ref().map(|_| id))
    }

    /// One past the highest id ever allocated (the slot-vector length):
    /// every live id is `< id_bound()`, so `0..id_bound()` plus a
    /// [`InstanceArena::contains`] check walks the arena without
    /// borrowing it across the loop body.
    #[must_use]
    pub fn id_bound(&self) -> usize {
        self.slots.len()
    }

    /// Iterate over live `(id, instance)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (InstanceId, &InstrInstance)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(id, s)| s.as_deref().map(|i| (id, i)))
    }

    /// Iterate over live instances in id order.
    pub fn values(&self) -> impl Iterator<Item = &InstrInstance> + '_ {
        self.slots.iter().filter_map(|s| s.as_deref())
    }
}

impl std::ops::Index<InstanceId> for InstanceArena {
    type Output = InstrInstance;

    fn index(&self, id: InstanceId) -> &InstrInstance {
        self.get(id)
            .unwrap_or_else(|| panic!("no live instance with id {id}"))
    }
}

/// Structural equality over the live `(id, instance)` sequence only —
/// hole layout and slot-vector length are representation details (a
/// decoded arena's vector stops at the highest live id, a live one's at
/// `next_id`), exactly as the former `BTreeMap` compared.
impl PartialEq for InstanceArena {
    fn eq(&self, other: &Self) -> bool {
        self.live == other.live && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl Eq for InstanceArena {}

/// Where a satisfied memory read got its value.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ReadSource {
    /// Forwarded from an (possibly still uncommitted) write of a
    /// po-previous instance of the same thread: `(instance, write index)`.
    Forward(InstanceId, usize),
    /// Satisfied by the storage subsystem; one source write per byte.
    Storage(Vec<WriteId>),
}

/// A satisfied memory read.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SatRead {
    /// Byte address.
    pub addr: u64,
    /// Size in bytes.
    pub size: usize,
    /// The value delivered.
    pub value: Bv,
    /// Where it came from.
    pub source: ReadSource,
    /// Whether this was a load-reserve.
    pub reserve: bool,
}

/// A memory write an instance has performed (locally visible; committed
/// to the storage subsystem by a separate transition).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PendingWrite {
    /// Byte address.
    pub addr: u64,
    /// Size in bytes.
    pub size: usize,
    /// The value.
    pub value: Bv,
    /// The storage-subsystem id once committed.
    pub committed: Option<WriteId>,
    /// Whether this is a store-conditional's write.
    pub conditional: bool,
}

/// A performed register read, with its dataflow sources (for restart
/// cascading).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RegReadRec {
    /// The slice read.
    pub slice: RegSlice,
    /// The assembled value.
    pub value: Bv,
    /// The po-previous instances fragments were taken from (absent for
    /// bits from the thread's initial register state).
    pub sources: BTreeSet<InstanceId>,
}

/// One in-flight (or finished) instruction instance.
#[derive(Clone, Debug)]
pub struct InstrInstance {
    /// Instance id (the paper's `ioid`).
    pub id: InstanceId,
    /// Parent in the instruction tree (`None` for the root).
    pub parent: Option<InstanceId>,
    /// Children (more than one only while branches are unresolved).
    pub children: Vec<InstanceId>,
    /// Fetch address.
    pub addr: u64,
    /// The decoded instruction.
    pub instr: Instruction,
    /// Shared semantics.
    pub sem: Arc<Sem>,
    /// The interpreter state (the suspended continuation).
    pub state: InstrState,
    /// Static footprint from exhaustive analysis at fetch time (shared
    /// with the program cache).
    pub static_fp: Arc<Footprint>,
    /// Current footprint from re-analysis of the partially executed
    /// state (refreshed whenever the instance blocks; shared until then).
    pub dyn_fp: Arc<Footprint>,
    /// Performed register reads.
    pub reg_reads: Vec<RegReadRec>,
    /// Performed register writes.
    pub reg_writes: Vec<(RegSlice, Bv)>,
    /// Satisfied memory reads.
    pub mem_reads: Vec<SatRead>,
    /// An issued but unsatisfied read request `(addr, size, reserve)`.
    pub pending_read: Option<(u64, usize, bool)>,
    /// Performed memory writes (locally visible).
    pub mem_writes: Vec<PendingWrite>,
    /// A store-conditional awaiting its commit decision.
    pub pending_cond_write: bool,
    /// Barrier outcome encountered (the instruction pauses here until
    /// the barrier commits).
    pub barrier: Option<BarrierKind>,
    /// Whether the barrier was committed (sent to storage; `isync`
    /// commits locally).
    pub barrier_committed: bool,
    /// The storage event id of a committed `sync`/`lwsync`/`eieio`.
    pub barrier_id: Option<crate::types::BarrierId>,
    /// Whether a committed sync has been acknowledged.
    pub barrier_acked: bool,
    /// Interpreter reached `Done`.
    pub done: bool,
    /// Finished (committed) — irrevocable.
    pub finished: bool,
    /// Resolved next-instruction address (set by an `NIA` write, or at
    /// `Done` to the successor when no `NIA` write happened).
    pub nia: Option<u64>,
    /// Compute-once cache of this instance's digest contribution
    /// (clone-empties, `PartialEq`-ignored — see [`DigestCell`]).
    /// Invalidated by [`ThreadState::inst_mut`], so after a transition
    /// the thread digest re-hashes only the touched instance; hashing
    /// the suspended interpreter continuations of every untouched
    /// instance per successor was the oracle's single largest cost.
    pub(crate) digest: DigestCell,
}

/// Structural equality of instruction instances. The shared semantics
/// is compared by pointer (instances of the same program share one
/// `Arc<Sem>` per address via the program cache — and [`InstrState`]'s
/// own equality already requires pointer-equal semantics); footprints
/// are compared by content (the dynamic footprint is re-analysed per
/// state, so its `Arc` is not always shared).
impl PartialEq for InstrInstance {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.parent == other.parent
            && self.children == other.children
            && self.addr == other.addr
            && self.instr == other.instr
            && Arc::ptr_eq(&self.sem, &other.sem)
            && self.state == other.state
            && *self.static_fp == *other.static_fp
            && *self.dyn_fp == *other.dyn_fp
            && self.reg_reads == other.reg_reads
            && self.reg_writes == other.reg_writes
            && self.mem_reads == other.mem_reads
            && self.pending_read == other.pending_read
            && self.mem_writes == other.mem_writes
            && self.pending_cond_write == other.pending_cond_write
            && self.barrier == other.barrier
            && self.barrier_committed == other.barrier_committed
            && self.barrier_id == other.barrier_id
            && self.barrier_acked == other.barrier_acked
            && self.done == other.done
            && self.finished == other.finished
            && self.nia == other.nia
    }
}

impl Eq for InstrInstance {}

impl InstrInstance {
    /// The instance's structural digest contribution, cached
    /// compute-once (see the `digest` field).
    #[must_use]
    pub(crate) fn digest(&self) -> u64 {
        self.digest.get_or_compute(|| self.digest_uncached())
    }

    /// [`InstrInstance::digest`] recomputed from scratch, bypassing the
    /// cache (the `debug_assertions` digest audit's reference). Hashes
    /// the same fields structural equality compares, except those that
    /// are derivable (children mirror parents, `dyn_fp` is a function of
    /// `state`, `barrier_id` of the barrier's commit) — identical to
    /// what the thread-level digest hashed before the per-instance
    /// cache existed.
    #[must_use]
    pub(crate) fn digest_uncached(&self) -> u64 {
        let mut h = crate::types::DigestHasher::new();
        self.parent.hash(&mut h);
        self.addr.hash(&mut h);
        self.state.hash(&mut h);
        self.reg_reads.hash(&mut h);
        self.reg_writes.hash(&mut h);
        self.mem_reads.hash(&mut h);
        self.pending_read.hash(&mut h);
        self.mem_writes.hash(&mut h);
        self.pending_cond_write.hash(&mut h);
        self.barrier.hash(&mut h);
        self.barrier_committed.hash(&mut h);
        self.barrier_acked.hash(&mut h);
        self.done.hash(&mut h);
        self.finished.hash(&mut h);
        self.nia.hash(&mut h);
        h.finish()
    }

    /// Whether the instance's static analysis says it can branch (more
    /// than one possible next address).
    #[must_use]
    pub fn is_branch(&self) -> bool {
        self.static_fp.nias.len() > 1
            || self
                .static_fp
                .nias
                .iter()
                .any(|n| matches!(n, ppc_idl::NiaTarget::Indirect))
    }

    /// The determined memory-write footprints so far: recorded writes
    /// plus (if the remaining execution may still write) the re-analysed
    /// future footprint.
    #[must_use]
    pub fn write_footprint_determined(&self) -> bool {
        self.dyn_fp.mem_writes.is_determined()
    }

    /// Whether any (current or future) write may overlap the range.
    #[must_use]
    pub fn may_write_overlapping(&self, addr: u64, size: usize) -> bool {
        if self
            .mem_writes
            .iter()
            .any(|w| w.addr < addr + size as u64 && addr < w.addr + w.size as u64)
        {
            return true;
        }
        !self.finished && self.dyn_fp.mem_writes.may_overlap(addr, size)
    }

    /// Whether any (current or future) read may overlap the range.
    #[must_use]
    pub fn may_read_overlapping(&self, addr: u64, size: usize) -> bool {
        if self
            .mem_reads
            .iter()
            .any(|r| r.addr < addr + size as u64 && addr < r.addr + r.size as u64)
        {
            return true;
        }
        if let Some((a, s, _)) = self.pending_read {
            if a < addr + size as u64 && addr < a + s as u64 {
                return true;
            }
        }
        !self.done && self.dyn_fp.mem_reads.may_overlap(addr, size)
    }

    /// Refresh the dynamic footprint from the current interpreter state.
    pub fn refresh_dyn_fp(&mut self) {
        if self.done {
            // Nothing left to analyse; the recorded events are the truth.
            let fp = Arc::make_mut(&mut self.dyn_fp);
            fp.mem_reads = ppc_idl::AccessSet::None;
            fp.mem_writes = ppc_idl::AccessSet::None;
        } else if self.static_fp.mem_reads.may_access() || self.static_fp.mem_writes.may_access() {
            self.dyn_fp = Arc::new(analyze_from(&self.state));
        }
        // Otherwise the static footprint (no memory access) stays exact.
    }

    /// Reset to the fetched state (restart): clears all performed events
    /// (paper §5: "cleared if the instruction is restarted").
    ///
    /// # Panics
    ///
    /// Panics if the instance already committed irrevocable events (the
    /// transition preconditions make that impossible).
    pub fn restart(&mut self) {
        assert!(!self.finished, "finished instructions cannot restart");
        assert!(
            self.mem_writes.iter().all(|w| w.committed.is_none()),
            "committed writes cannot restart"
        );
        assert!(!self.barrier_committed, "committed barriers cannot restart");
        self.state = InstrState::new(self.sem.clone());
        self.dyn_fp = self.static_fp.clone();
        self.reg_reads.clear();
        self.reg_writes.clear();
        self.mem_reads.clear();
        self.pending_read = None;
        self.mem_writes.clear();
        self.pending_cond_write = false;
        self.barrier = None;
        self.done = false;
        self.nia = None;
    }
}

/// The per-thread half of a system state.
///
/// Lives behind an `Arc` inside [`crate::SystemState`] so that applying
/// a transition clones only the touched thread (copy-on-write via
/// `Arc::make_mut`); within a thread, each [`InstrInstance`] is itself
/// `Arc`-shared, so mutating one instance deep-clones just that instance
/// while the rest of the instruction tree stays shared with the parent
/// state. All mutation must go through
/// [`crate::SystemState::thread_mut`] (or clone-before-mutate paths
/// equivalent to it) so the cached per-thread digest is invalidated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadState {
    /// This thread's id.
    pub tid: ThreadId,
    /// Initial (architected) register values; unmentioned registers are
    /// zero. Immutable after construction, so it sits behind an `Arc`
    /// and a copy-on-write thread clone bumps a refcount instead of
    /// deep-cloning the map on every applied transition.
    pub init_regs: Arc<BTreeMap<Reg, Bv>>,
    /// All live instances, in a dense id-indexed arena (pruned subtrees
    /// leave holes). Values are `Arc`-shared with predecessor states;
    /// use [`ThreadState::inst_mut`] to get a copy-on-write `&mut`.
    pub instances: InstanceArena,
    /// The root instance (first fetch), if fetched.
    pub root: Option<InstanceId>,
    /// Next instance id.
    pub next_id: usize,
    /// The thread's reservation (from load-reserve), as a footprint.
    pub reservation: Option<(u64, usize)>,
    /// Initial fetch address.
    pub start_addr: u64,
    /// Compute-once cache of [`ThreadState::digest`]. Invalidated by
    /// [`crate::SystemState::thread_mut`]; empty in any CoW clone.
    pub(crate) digest: DigestCell,
    /// Compute-once cache of this thread's enabled transitions (see
    /// [`TransitionCache`]): thread enumeration is a pure function of
    /// this state plus the program and two `ModelParams` knobs (the
    /// cache key), so successor states still sharing this thread `Arc`
    /// replay the cached list. Invalidated wherever `digest` is.
    pub(crate) enum_cache: TransitionCache<crate::thread::ThreadTransition>,
}

impl ThreadState {
    /// A fresh thread with the given initial registers and entry point.
    #[must_use]
    pub fn new(tid: ThreadId, init_regs: BTreeMap<Reg, Bv>, start_addr: u64) -> Self {
        ThreadState {
            tid,
            init_regs: Arc::new(init_regs),
            instances: InstanceArena::new(),
            root: None,
            next_id: 0,
            reservation: None,
            start_addr,
            digest: DigestCell::new(),
            enum_cache: TransitionCache::new(),
        }
    }

    /// Copy-on-write mutable access to one instance: clones the instance
    /// out of shared `Arc`s only if predecessor states still share it.
    /// Invalidates the thread's cached digest (like
    /// [`crate::StorageState`]'s mutating methods do for storage), so
    /// direct use on an owned thread state stays digest-correct even
    /// outside the [`crate::SystemState::thread_mut`] funnel.
    pub fn inst_mut(&mut self, id: InstanceId) -> Option<&mut InstrInstance> {
        self.digest.invalidate();
        self.enum_cache.invalidate();
        let inst = self.instances.make_mut(id)?;
        // `make_mut` only empties the instance's cell when it clones
        // (shared `Arc`); the unshared in-place case must invalidate
        // explicitly, exactly like the thread- and storage-level cells.
        inst.digest.invalidate();
        Some(inst)
    }

    /// The thread's structural digest (reservation + full instance
    /// content), cached compute-once at *two* levels: successor states
    /// share unchanged threads by `Arc`, so only the touched thread is
    /// re-folded — and within it each instance caches its own digest
    /// ([`InstrInstance::digest`]), so the re-fold re-hashes only the
    /// touched instance's content (suspended interpreter continuations
    /// are by far the largest thing hashed anywhere in a state).
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest.get_or_compute(|| {
            let mut h = crate::types::DigestHasher::new();
            self.reservation.hash(&mut h);
            for (id, inst) in self.instances.iter() {
                id.hash(&mut h);
                inst.digest().hash(&mut h);
            }
            h.finish()
        })
    }

    /// [`ThreadState::digest`] recomputed from scratch, bypassing both
    /// the thread-level and every instance-level cache — the reference
    /// the `debug_assertions` digest audit in
    /// [`crate::SystemState::digest`] compares stale cells against.
    #[must_use]
    pub fn digest_uncached(&self) -> u64 {
        let mut h = crate::types::DigestHasher::new();
        self.reservation.hash(&mut h);
        for (id, inst) in self.instances.iter() {
            id.hash(&mut h);
            inst.digest_uncached().hash(&mut h);
        }
        h.finish()
    }

    /// The initial value of a register (zeros if unspecified).
    #[must_use]
    pub fn init_reg(&self, r: Reg) -> Bv {
        self.init_regs
            .get(&r)
            .cloned()
            .unwrap_or_else(|| Bv::zeros(r.width()))
    }

    /// Iterate over the po-previous instances of `id`, nearest first.
    pub fn ancestors(&self, id: InstanceId) -> impl Iterator<Item = &InstrInstance> {
        std::iter::successors(
            self.instances[id].parent.map(|p| &self.instances[p]),
            move |i| i.parent.map(|p| &self.instances[p]),
        )
    }

    /// Whether `a` is a strict po-ancestor of `b`.
    #[must_use]
    pub fn is_ancestor(&self, a: InstanceId, b: InstanceId) -> bool {
        self.ancestors(b).any(|i| i.id == a)
    }

    /// Descendants of `id` (its whole subtree, excluding itself).
    #[must_use]
    pub fn descendants(&self, id: InstanceId) -> Vec<InstanceId> {
        let mut out = Vec::new();
        self.for_each_descendant(id, &mut |d| out.push(d));
        out
    }

    /// Visit every descendant of `id` (its whole subtree, excluding
    /// itself), allocation-free — the hot restart scans walk subtrees on
    /// every satisfied read, so they must not build an id `Vec` each
    /// time. Pre-order; recursion depth is bounded by the instance tree
    /// depth, itself bounded by `max_instances_per_thread`.
    pub fn for_each_descendant(&self, id: InstanceId, f: &mut impl FnMut(InstanceId)) {
        for &c in &self.instances[id].children {
            f(c);
            self.for_each_descendant(c, f);
        }
    }

    /// Resolve a register-slice read for instance `reader`: walk the
    /// po-predecessors per bit, taking the most recent performed write
    /// fragment; blocks (returns `None`) if an intervening instance may
    /// still write a needed bit (paper §2.1.2).
    ///
    /// `CIA` is answered from the instance's own address; dependencies
    /// never arise from it (§2.1.4).
    #[must_use]
    pub fn resolve_reg_read(
        &self,
        reader: InstanceId,
        slice: RegSlice,
    ) -> Option<(Bv, BTreeSet<InstanceId>)> {
        if slice.reg == Reg::Cia {
            let v = Bv::from_u64(self.instances[reader].addr, 64).slice(slice.start, slice.len);
            return Some((v, BTreeSet::new()));
        }
        let mut bits = vec![Bit::Undef; slice.len];
        let mut sources = BTreeSet::new();
        'bit: for (k, bitpos) in (slice.start..slice.start + slice.len).enumerate() {
            let bit_slice = RegSlice::new(slice.reg, bitpos, 1);
            for j in self.ancestors(reader) {
                // Did j perform a write covering this bit?
                if let Some((ws, wv)) = j
                    .reg_writes
                    .iter()
                    .rev()
                    .find(|(ws, _)| ws.contains(&bit_slice))
                {
                    bits[k] = wv.bit(bitpos - ws.start);
                    sources.insert(j.id);
                    continue 'bit;
                }
                // Might j still write it?
                if !j.done && j.static_fp.may_write_reg(&bit_slice) {
                    return None; // blocked
                }
            }
            // No predecessor writes it: initial register state.
            bits[k] = self.init_reg(slice.reg).bit(bitpos);
        }
        Some((Bv::from_bits(bits), sources))
    }

    /// The *final* architected value of a register: a read as if by an
    /// instruction po-after the last instance on the (unique, finished)
    /// path. Used for litmus final-condition evaluation.
    ///
    /// Word at a time: `need` marks the bits no write has supplied yet
    /// (MSB0 bit `i` is mask bit `width - 1 - i`). Each same-register
    /// write, deepest instance first and newest first within one, gives
    /// its still-needed bits; the initial value fills the rest.
    ///
    /// # Panics
    ///
    /// Panics if the register is wider than 64 bits (none is).
    #[must_use]
    pub fn final_reg(&self, reg: Reg) -> Bv {
        // Find the deepest instance on the path.
        let mut last = self.root;
        while let Some(l) = last {
            match self.instances[l].children.as_slice() {
                [] => break,
                [c] => last = Some(*c),
                _ => break, // unresolved tree; best effort
            }
        }
        let width = reg.width();
        assert!(width <= 64, "{reg} is wider than a word");
        let low = |n: usize| ((1u128 << n) - 1) as u64;
        let mut need = low(width);
        let mut out = Bv::zeros(width);
        // Copy the needed bits of register field `[start, start + len)`
        // from `src` (MSB0 bit `k` of `src` is register bit `start + k`),
        // one contiguous run of needed bits at a time.
        let mut take = |start: usize, len: usize, src: &Bv, need: &mut u64| {
            let field = low(len) << (width - start - len);
            let mut run_bits = *need & field;
            *need &= !field;
            while run_bits != 0 {
                let top = 63 - run_bits.leading_zeros() as usize;
                let run = (run_bits << (63 - top)).leading_ones() as usize;
                let i = width - 1 - top;
                out = out.with_slice(i, &src.slice(i - start, run));
                run_bits &= !(low(run) << (top + 1 - run));
            }
        };
        let mut cur = last;
        while let Some(c) = cur.filter(|_| need != 0) {
            let j = &self.instances[c];
            for (ws, wv) in j.reg_writes.iter().rev().filter(|(ws, _)| ws.reg == reg) {
                take(ws.start, ws.len, wv, &mut need);
            }
            cur = j.parent;
        }
        if need != 0 {
            take(0, width, &self.init_reg(reg), &mut need);
        }
        out
    }

    /// Compute the transitive restart closure of `seed` over register
    /// dataflow and forwarding edges, then apply the restarts. Returns
    /// the set actually restarted.
    pub fn cascade_restart(&mut self, seed: BTreeSet<InstanceId>) -> BTreeSet<InstanceId> {
        let mut set = seed;
        loop {
            let mut grew = false;
            for id in 0..self.instances.id_bound() {
                let Some(inst) = self.instances.get(id) else {
                    continue;
                };
                if set.contains(&id) {
                    continue;
                }
                let depends = inst
                    .reg_reads
                    .iter()
                    .any(|r| r.sources.iter().any(|s| set.contains(s)))
                    || inst.mem_reads.iter().any(|r| match &r.source {
                        ReadSource::Forward(from, _) => set.contains(from),
                        ReadSource::Storage(_) => false,
                    });
                if depends {
                    set.insert(id);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        for id in &set {
            if let Some(inst) = self.inst_mut(*id) {
                inst.restart();
            }
        }
        set
    }

    /// Prune the untaken subtrees of a *finished* branch: children whose
    /// fetch address differs from the resolved `nia` are discarded
    /// (paper §2.1.1).
    pub fn prune_children(&mut self, id: InstanceId) {
        let Some(nia) = self.instances[id].nia else {
            return;
        };
        let children = self.instances[id].children.clone();
        let (keep, drop): (Vec<_>, Vec<_>) = children
            .into_iter()
            .partition(|&c| self.instances[c].addr == nia);
        self.inst_mut(id).expect("exists").children = keep;
        for d in drop {
            for sub in self.descendants(d) {
                self.instances.remove(sub);
            }
            self.instances.remove(d);
        }
    }

    /// All live instance ids in id order, allocation-free.
    pub fn instance_ids(&self) -> impl Iterator<Item = InstanceId> + '_ {
        self.instances.ids()
    }

    /// Whether every live instance is finished.
    #[must_use]
    pub fn all_finished(&self) -> bool {
        self.instances.values().all(|i| i.finished)
    }
}

/// Thread transitions enumerated by the system layer. All-scalar and
/// `Copy`, so replaying a cached enumeration is a flat memcpy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ThreadTransition {
    /// Fetch and decode the instruction at `addr` as a new child of
    /// `parent` (or as the root).
    Fetch {
        /// Thread.
        tid: ThreadId,
        /// Parent instance.
        parent: Option<InstanceId>,
        /// Fetch address.
        addr: u64,
    },
    /// Satisfy a pending read by forwarding from an uncommitted
    /// po-previous write (paper §2.1.5 / PPOCA).
    SatisfyReadForward {
        /// Thread.
        tid: ThreadId,
        /// Reading instance.
        ioid: InstanceId,
        /// Source instance.
        from: InstanceId,
        /// Index into the source's `mem_writes`.
        windex: usize,
    },
    /// Satisfy a pending read from the storage subsystem.
    SatisfyReadStorage {
        /// Thread.
        tid: ThreadId,
        /// Reading instance.
        ioid: InstanceId,
    },
    /// Commit one performed memory write to the storage subsystem.
    CommitWrite {
        /// Thread.
        tid: ThreadId,
        /// Instance.
        ioid: InstanceId,
        /// Index into `mem_writes`.
        windex: usize,
    },
    /// Decide a store-conditional: commit its write (success) — requires
    /// a valid reservation.
    CommitStcxSuccess {
        /// Thread.
        tid: ThreadId,
        /// Instance.
        ioid: InstanceId,
    },
    /// Decide a store-conditional: fail it (no write reaches storage).
    CommitStcxFail {
        /// Thread.
        tid: ThreadId,
        /// Instance.
        ioid: InstanceId,
    },
    /// Commit a barrier (send `sync`/`lwsync`/`eieio` to storage;
    /// `isync` commits thread-locally).
    CommitBarrier {
        /// Thread.
        tid: ThreadId,
        /// Instance.
        ioid: InstanceId,
    },
    /// Finish (commit) an instruction: its behaviour is now irrevocable;
    /// prunes untaken subtrees if it was a branch.
    Finish {
        /// Thread.
        tid: ThreadId,
        /// Instance.
        ioid: InstanceId,
    },
}
