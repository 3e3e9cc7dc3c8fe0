//! The test oracle: exhaustive enumeration of all allowed executions, and
//! a deterministic sequential mode.
//!
//! "This lets one either interactively explore or exhaustively compute
//! the set of all allowed behaviours of intricate test cases, to provide
//! a reference for hardware and software development" (paper abstract).
//!
//! Exhaustive exploration comes in two observably equivalent flavours:
//!
//! - a **sequential depth-first search** (the historical implementation),
//!   used when [`ModelParams::threads`] is `1`;
//! - a **parallel work-stealing search** used for `threads >= 2`: each
//!   worker owns a deque of unexpanded states, popping from its own back
//!   (depth-first locality) and, when dry, stealing a batch
//!   ([`ModelParams::steal_batch`]) from the front of a victim's deque.
//!   Successor states are deduplicated against a digest-sharded visited
//!   set (one lock per shard, so contention is negligible), and the
//!   per-worker final-state sets and statistics are merged
//!   deterministically (final states live in a `BTreeSet`, so merge
//!   order cannot matter). Termination is detected by a global count of
//!   *pending* states — states enqueued anywhere or mid-expansion — a
//!   worker only retires when every deque is empty **and** no expansion
//!   is in flight (`pending == 0`).
//!
//! The earlier level-synchronous sharded-frontier BFS (PR 1) stalled all
//! workers at a barrier after every level; work stealing removes the
//! barrier, so a single deep branch no longer serialises the whole
//! machine and workers stay busy across level boundaries.
//!
//! Both flavours visit exactly the same reachable state set — a state is
//! expanded iff its digest wins the insertion race in the shared visited
//! set, which is keyed by the same digests the sequential engine uses —
//! so for any run that does not exhaust its state budget the resulting
//! [`Outcomes::finals`] are identical bit for bit, and so are the
//! visited-state and transition counts. The `parallel_oracle`
//! integration tests and the randomized `oracle_fuzz` differential
//! tests pin this down. The paper's §8 point that exhaustive checking
//! is "combinatorially challenging" is exactly why the parallel engine
//! exists: state expansion (clone + transition application + eager
//! deterministic progress) dominates the cost and parallelises
//! embarrassingly.

use crate::store::{StateStore, StoreError};
use crate::system::{SystemState, Transition};
use crate::thread::ThreadTransition;
use crate::types::{ModelParams, ThreadId, WriteId};
use ppc_bits::Bv;
use ppc_idl::Reg;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One observable final state: the queried registers and memory
/// locations.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FinalState {
    /// Final architected register values, by `(thread, register)`.
    pub regs: BTreeMap<(ThreadId, Reg), Bv>,
    /// Final memory values, keyed by queried location address.
    pub mem: BTreeMap<u64, Bv>,
}

/// The result of an exhaustive exploration.
#[derive(Clone, Debug)]
pub struct Outcomes {
    /// The distinct observable final states.
    pub finals: BTreeSet<FinalState>,
    /// Exploration statistics.
    pub stats: ExplorationStats,
}

/// Statistics from an exploration (for the paper's "combinatorially
/// challenging" discussion and the E5 experiment).
#[derive(Clone, Debug, Default)]
pub struct ExplorationStats {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions fired.
    pub transitions: usize,
    /// Final (quiescent) states reached, pre-deduplication.
    pub final_hits: usize,
    /// Whether the state budget (or deadline) was exhausted (results
    /// incomplete).
    pub truncated: bool,
    /// Peak number of decoded frontier states resident in memory at
    /// once. Bounded (softly) by [`ModelParams::max_resident_states`]
    /// when that is non-zero — overflow spills to disk through the
    /// canonical state codec.
    pub resident_peak: usize,
    /// Frontier states that round-tripped through disk segments (always
    /// `0` when [`ModelParams::max_resident_states`] is unlimited).
    /// Lets tests assert that a forced-spill run actually exercised the
    /// spill path rather than staying under its budget.
    pub spilled_states: usize,
    /// Whether the context-switch bound
    /// ([`ModelParams::max_context_switches`]) actually suppressed at
    /// least one successor. A bounded run is explicitly approximate:
    /// absent outcomes may still be architecturally allowed, so it must
    /// never be reported as a conclusive exhaustive result. Stays
    /// `false` when a bound is set but never reached (the exploration
    /// was exhaustive after all).
    pub bounded: bool,
    /// A spill-store I/O/corruption failure that cut the exploration
    /// short. Always paired with
    /// `truncated = true`: the result is inconclusive, never silently
    /// partial, but the process survives (the failure used to be an
    /// `expect()` abort).
    pub store_error: Option<String>,
}

/// Default state budget for exhaustive exploration.
const DEFAULT_MAX_STATES: usize = ModelParams::DEFAULT_MAX_STATES;

/// Resource limits and parallelism for one exploration.
#[derive(Clone, Debug)]
pub struct ExploreLimits {
    /// Worker threads (`0` = one per available CPU, `1` = sequential).
    pub threads: usize,
    /// Distinct-state budget; exceeding it sets
    /// [`ExplorationStats::truncated`].
    pub max_states: usize,
    /// Optional wall-clock deadline; exploration stops (truncated) when
    /// it passes. Checked between search rounds, so it is a soft bound.
    pub deadline: Option<Instant>,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits {
            threads: 1,
            max_states: DEFAULT_MAX_STATES,
            deadline: None,
        }
    }
}

impl ExploreLimits {
    /// The limits implied by a state's [`ModelParams`].
    #[must_use]
    pub fn from_params(params: &ModelParams) -> Self {
        ExploreLimits {
            threads: params.effective_threads(),
            max_states: params.max_states,
            deadline: None,
        }
    }

    /// The effective worker-thread count (resolves `threads == 0` to the
    /// available parallelism).
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        crate::types::resolve_threads(self.threads)
    }
}

/// Exhaustively explore all executions of `initial`, observing the given
/// registers and memory footprints in each reachable final state.
///
/// Parallelism and the state budget come from `initial.params`
/// ([`ModelParams::threads`] / [`ModelParams::max_states`]).
///
/// Final memory values are enumerated over every coherence-consistent
/// linearisation of the writes covering each queried location (writes to
/// disjoint locations are never coherence-related, so per-location
/// enumeration is exact).
#[must_use]
pub fn explore(
    initial: &SystemState,
    reg_obs: &[(ThreadId, Reg)],
    mem_obs: &[(u64, usize)],
) -> Outcomes {
    explore_limited(
        initial,
        reg_obs,
        mem_obs,
        &ExploreLimits::from_params(&initial.params),
    )
}

/// [`explore`] with an explicit state budget (single-threaded).
#[must_use]
pub fn explore_bounded(
    initial: &SystemState,
    reg_obs: &[(ThreadId, Reg)],
    mem_obs: &[(u64, usize)],
    max_states: usize,
) -> Outcomes {
    explore_limited(
        initial,
        reg_obs,
        mem_obs,
        &ExploreLimits {
            threads: 1,
            max_states,
            deadline: None,
        },
    )
}

/// [`explore`] with explicit limits and parallelism.
#[must_use]
pub fn explore_limited(
    initial: &SystemState,
    reg_obs: &[(ThreadId, Reg)],
    mem_obs: &[(u64, usize)],
    limits: &ExploreLimits,
) -> Outcomes {
    let threads = limits.effective_threads();
    if threads <= 1 {
        explore_seq(initial, reg_obs, mem_obs, limits)
    } else {
        explore_par(initial, reg_obs, mem_obs, threads, limits)
    }
}

/// The actor whose transition produced a state: a hardware thread, or
/// the storage subsystem. Context-bounded exploration
/// ([`ModelParams::max_context_switches`]) counts changes of actor
/// along each execution path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Actor {
    /// The root state — no transition taken yet (the first transition
    /// is never a context switch).
    None,
    /// A transition of thread `.0`.
    Thread(ThreadId),
    /// A storage-subsystem transition.
    Storage,
}

/// One frontier record: an unexpanded state plus the search metadata
/// the reduction and context-bounding layers thread through the
/// frontier (and through the spill codec, as additive record fields).
/// In the default (unreduced, unbounded) configuration the metadata is
/// inert: the sleep set stays empty and the switch count is ignored.
#[derive(Clone, Debug)]
pub struct Frame {
    /// The unexpanded state.
    pub state: SystemState,
    /// The sleep set inherited from the parent: transitions whose
    /// exploration here is redundant because an independent sibling
    /// branch already explores them. Kept sorted and deduplicated.
    /// Always empty when [`ModelParams::sleep_sets`] is off.
    pub sleep: Vec<Transition>,
    /// Wake-up restriction for a reduced-mode *re*-visit: when
    /// non-empty, only these transitions (the ones slept on the state's
    /// earlier visits but awake now) are expanded — everything else was
    /// already explored from this state. Empty on first visits and
    /// whenever [`ModelParams::sleep_sets`] is off.
    pub wake: Vec<Transition>,
    /// The actor of the transition that produced this state.
    pub last_actor: Actor,
    /// Context switches accumulated along the producing path.
    pub switches: u32,
}

impl Frame {
    /// The root frame of an exploration.
    #[must_use]
    pub fn root(state: SystemState) -> Self {
        Frame {
            state,
            sleep: Vec::new(),
            wake: Vec::new(),
            last_actor: Actor::None,
            switches: 0,
        }
    }
}

/// The actor a transition belongs to.
fn actor_of(t: &Transition) -> Actor {
    match t {
        Transition::Thread(tt) => Actor::Thread(match tt {
            ThreadTransition::Fetch { tid, .. }
            | ThreadTransition::SatisfyReadForward { tid, .. }
            | ThreadTransition::SatisfyReadStorage { tid, .. }
            | ThreadTransition::CommitWrite { tid, .. }
            | ThreadTransition::CommitStcxSuccess { tid, .. }
            | ThreadTransition::CommitStcxFail { tid, .. }
            | ThreadTransition::CommitBarrier { tid, .. }
            | ThreadTransition::Finish { tid, .. } => *tid,
        }),
        Transition::Storage(_) => Actor::Storage,
    }
}

/// What expanding one frame yields.
pub(crate) struct Expansion {
    /// Successor frames (pre-dedup), or empty for a quiescent state.
    pub(crate) succs: Vec<Frame>,
    /// Transitions fired (= successors produced; sleep-set-skipped and
    /// bound-suppressed transitions are not fired).
    pub(crate) transitions: usize,
    /// Whether the state was quiescent (a final hit).
    pub(crate) is_final: bool,
    /// Whether the context-switch bound suppressed at least one
    /// successor here.
    pub(crate) bounded_hit: bool,
}

/// Expand one frame: either classify its state as quiescent (collecting
/// its observable final states into `finals`) or produce its successor
/// frames. Shared verbatim by the sequential and parallel engines so
/// they cannot drift apart.
///
/// With [`ModelParams::sleep_sets`] on, this is the sleep-set step
/// (Godefroid): walking the enabled transitions in their stable
/// enumeration order, a transition in the current sleep set is skipped
/// (some earlier branch explores everything it leads to), each explored
/// transition `t` passes on the subset of the sleep set independent of
/// `t`, and `t` itself then joins the sleep set for its later siblings
/// — so of two adjacent independent transitions only one interleaving
/// is expanded, while every reachable *state* (in particular every
/// final) is still reached. Independence comes from
/// [`crate::reduction::independent`].
///
/// With [`ModelParams::max_context_switches`] nonzero, a successor
/// whose path would exceed the bound is suppressed (and reported via
/// [`Expansion::bounded_hit`] — never silently). A suppressed
/// transition does *not* join the sleep set: nothing explores it, so
/// it cannot excuse skipping siblings.
///
/// `scratch` is a per-worker transition buffer reused across every state
/// the worker expands (the enumeration is rebuilt into it each call), so
/// the hot loop performs no per-state transition-list allocation.
pub(crate) fn expand(
    frame: &Frame,
    reg_obs: &[(ThreadId, Reg)],
    mem_obs: &[(u64, usize)],
    finals: &mut BTreeSet<FinalState>,
    scratch: &mut Vec<Transition>,
) -> Expansion {
    let state = &frame.state;
    state.enumerate_transitions_into(scratch);
    let all_finished = state.threads.iter().all(|th| th.all_finished());
    let fetchable = scratch
        .iter()
        .any(|t| matches!(t, Transition::Thread(ThreadTransition::Fetch { .. })));
    if all_finished && !fetchable {
        extract_finals(state, reg_obs, mem_obs, finals);
        return Expansion {
            succs: Vec::new(),
            transitions: 0,
            is_final: true,
            bounded_hit: false,
        };
    }
    let reduce = state.params.sleep_sets;
    let bound = state.params.max_context_switches;
    // The working sleep set: the inherited one restricted to transitions
    // still enabled here (dropping a disabled member is conservative —
    // it only costs pruning), growing by each explored transition.
    let mut sleep_now: Vec<Transition> = if reduce {
        frame
            .sleep
            .iter()
            .filter(|t| scratch.contains(t))
            .copied()
            .collect()
    } else {
        Vec::new()
    };
    let inherited = sleep_now.len();
    let mut succs = Vec::with_capacity(scratch.len());
    let mut bounded_hit = false;
    for t in scratch.iter() {
        // Skip members of the inherited sleep set (but not transitions
        // added for earlier siblings below — the enumeration has no
        // duplicates, so they cannot recur anyway).
        if reduce && sleep_now[..inherited].contains(t) {
            continue;
        }
        // A re-visit expands only its awakened transitions: everything
        // else was explored from this state before, under a sleep set
        // whose extra members are exactly the `wake` list — and those
        // are recovered right here, from the state itself, by the
        // independence that put them to sleep in the first place.
        if !frame.wake.is_empty() && !frame.wake.contains(t) {
            continue;
        }
        let actor = actor_of(t);
        let switches = frame.switches
            + u32::from(frame.last_actor != Actor::None && frame.last_actor != actor);
        if bound != 0 && switches as usize > bound {
            bounded_hit = true;
            continue;
        }
        let sleep = if reduce {
            let mut s: Vec<Transition> = sleep_now
                .iter()
                .copied()
                .filter(|u| u != t && crate::reduction::independent(state, t, u))
                .collect();
            s.sort_unstable();
            s
        } else {
            Vec::new()
        };
        succs.push(Frame {
            state: state.apply(t),
            sleep,
            wake: Vec::new(),
            last_actor: actor,
            switches,
        });
        if reduce {
            sleep_now.push(*t);
        }
    }
    Expansion {
        transitions: succs.len(),
        succs,
        is_final: false,
        bounded_hit,
    }
}

/// The per-state sleep-set memo driving reduced-mode deduplication: for
/// every state reached so far, the sleep set it was (last) explored
/// with. In reduced mode this *replaces* the digest-only visited set —
/// admission needs the stored set, and a state must be *re*-explored
/// when it is reached again with a strictly less restrictive sleep set
/// (else outcomes only reachable through its sleeping transitions would
/// be lost).
pub(crate) type SleepMap = std::collections::HashMap<u64, Box<[Transition]>>;

/// Admit a frame into the reduced search. Returns `None` to prune, or
/// `Some(wake)` — the wake-up restriction for the visit:
///
/// - first arrival: admitted unrestricted (`wake` empty — every
///   non-slept transition is expanded) and the sleep set is stored;
/// - re-arrival whose sleep set covers the stored one: pruned — the
///   earlier visit already expanded at least as much;
/// - re-arrival whose sleep set *misses* some stored members: those
///   members (`stored \ sleep`) were slept on every earlier visit but
///   must be explored under this arrival's pruning argument — the visit
///   is admitted restricted to exactly them (everything else was
///   expanded before), and the stored set shrinks to the intersection.
///   The shrink is strict, so each state re-explores at most
///   `|enabled|` times — termination.
pub(crate) fn reduced_admit(
    map: &mut SleepMap,
    digest: u64,
    sleep: &[Transition],
) -> Option<Vec<Transition>> {
    debug_assert!(sleep.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
    match map.entry(digest) {
        std::collections::hash_map::Entry::Vacant(v) => {
            v.insert(sleep.into());
            Some(Vec::new())
        }
        std::collections::hash_map::Entry::Occupied(mut o) => {
            let wake = sorted_diff(o.get(), sleep);
            if wake.is_empty() {
                return None;
            }
            o.insert(sorted_intersect(sleep, o.get()).into_boxed_slice());
            Some(wake)
        }
    }
}

/// The elements of sorted `a` not in sorted `b`, sorted.
fn sorted_diff(a: &[Transition], b: &[Transition]) -> Vec<Transition> {
    let mut out = Vec::new();
    let mut j = 0;
    for x in a {
        while j < b.len() && b[j] < *x {
            j += 1;
        }
        if j >= b.len() || b[j] != *x {
            out.push(*x);
        }
    }
    out
}

/// The intersection of two sorted transition slices, sorted.
fn sorted_intersect(a: &[Transition], b: &[Transition]) -> Vec<Transition> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// The sequential depth-first engine.
///
/// The visited set and frontier both live in a [`StateStore`]: fully in
/// memory when [`ModelParams::max_resident_states`] is `0`, spilling the
/// *oldest* (bottom-of-stack) frontier states and overgrown visited
/// shards to temp files when the budget is crossed. Spilling cannot
/// change the result — membership stays exact and decoded states are
/// structurally identical to the originals — so finals and counts are
/// byte-identical in both modes.
fn explore_seq(
    initial: &SystemState,
    reg_obs: &[(ThreadId, Reg)],
    mem_obs: &[(u64, usize)],
    limits: &ExploreLimits,
) -> Outcomes {
    let reduce = initial.params.sleep_sets;
    let store = StateStore::new(initial.program.clone(), &initial.params, 1);
    let mut stats = ExplorationStats::default();
    let mut finals = BTreeSet::new();
    let mut scratch = Vec::new();
    let mut stack: Vec<Frame> = vec![Frame::root(initial.clone())];
    // Reduced mode replaces the digest-only visited set with the sleep
    // memo (admission needs the stored sleep set, and spilling digests
    // to cold runs would lose it); the frontier's disk half is shared.
    let mut sleep_map = SleepMap::new();
    if reduce {
        sleep_map.insert(initial.digest(), Box::from([]));
    } else {
        // The store is empty: the first insert touches only the hot set,
        // so no I/O can fail here.
        store
            .insert_visited(initial.digest())
            .expect("root insert into an empty store cannot touch disk");
    }
    store.note_enqueued(1);
    // A store failure (disk full, short read, corrupt segment) ends the
    // search as *truncated* — inconclusive, never a silent partial pass
    // and never a process abort.
    let store_failed = |stats: &mut ExplorationStats, e: &StoreError| {
        stats.truncated = true;
        stats.store_error = Some(e.to_string());
    };

    'search: loop {
        let frame = match stack.pop() {
            Some(s) => s,
            None => {
                // In-memory frontier dry: reload the newest spilled
                // segment (sequential batched readback), if any.
                let seg = match store.unspill() {
                    Ok(Some(seg)) => seg,
                    Ok(None) => break,
                    Err(e) => {
                        store_failed(&mut stats, &e);
                        break;
                    }
                };
                store.note_enqueued(seg.len());
                stack.extend(seg);
                match stack.pop() {
                    Some(s) => s,
                    None => break,
                }
            }
        };
        store.note_dequeued(1);
        stats.states += 1;
        if stats.states > limits.max_states {
            stats.truncated = true;
            break;
        }
        if stats.states % 4096 == 0 {
            if let Some(d) = limits.deadline {
                if Instant::now() >= d {
                    stats.truncated = true;
                    break;
                }
            }
        }
        let exp = expand(&frame, reg_obs, mem_obs, &mut finals, &mut scratch);
        stats.bounded |= exp.bounded_hit;
        if exp.is_final {
            stats.final_hits += 1;
            continue;
        }
        stats.transitions += exp.transitions;
        for mut next in exp.succs {
            let admitted = if reduce {
                match reduced_admit(&mut sleep_map, next.state.digest(), &next.sleep) {
                    None => false,
                    Some(wake) => {
                        next.wake = wake;
                        true
                    }
                }
            } else {
                match store.insert_visited(next.state.digest()) {
                    Ok(b) => b,
                    Err(e) => {
                        store_failed(&mut stats, &e);
                        break 'search;
                    }
                }
            };
            if admitted {
                store.note_enqueued(1);
                stack.push(next);
            }
        }
        // Over budget: spill the oldest states (the stack bottom, the
        // ones depth-first search would touch last anyway) down to half
        // the budget, so spills are batched rather than per-push.
        let budget = store.budget();
        if budget != 0 && stack.len() > budget {
            let excess = stack.len() - budget / 2;
            let victims: Vec<Frame> = stack.drain(..excess).collect();
            if let Err(e) = store.spill_batch(&victims) {
                store_failed(&mut stats, &e);
                break 'search;
            }
            store.note_dequeued(victims.len());
        }
    }
    stats.resident_peak = store.resident_peak();
    stats.spilled_states = store.spilled_states();
    Outcomes { finals, stats }
}

/// Per-worker private accumulator of a work-stealing exploration.
struct WorkerOut {
    finals: BTreeSet<FinalState>,
    transitions: usize,
    final_hits: usize,
}

/// How often (in expanded states, per worker) the wall-clock deadline is
/// polled. Expansions are short, so this keeps the deadline soft but
/// tight without an `Instant::now()` syscall per state.
const DEADLINE_POLL_PERIOD: usize = 256;

/// The shared control block of one work-stealing exploration.
struct StealPool<'a> {
    /// One deque of unexpanded frames per worker. Owners push/pop at the
    /// back (depth-first locality, keeps deques shallow); thieves drain
    /// batches from the front (the oldest states, which in this search
    /// tend to root the largest unexplored subtrees).
    deques: Vec<Mutex<VecDeque<Frame>>>,
    /// Termination detector: states enqueued in any deque *plus* states
    /// currently being expanded. A worker increments it for each fresh
    /// successor *before* decrementing it for the parent it just
    /// expanded, so `pending` can only reach zero once no undiscovered
    /// work can exist anywhere — at which point every worker retires.
    pending: AtomicUsize,
    /// States claimed against `limits.max_states`. Claims are made
    /// cooperatively by workers, one state at a time, immediately before
    /// expansion — there are no level boundaries to batch the check at —
    /// and a failed claim is rolled back, so at rest this equals the
    /// number of states actually expanded ([`ExplorationStats::states`]).
    claimed: AtomicUsize,
    /// Set when the budget or deadline trips; all workers quit promptly,
    /// abandoning whatever is left in the deques.
    stop: AtomicBool,
    /// Whether the stop was a truncation (budget/deadline), as opposed to
    /// natural exhaustion of the state space.
    truncated: AtomicBool,
    /// The two-tier store: the digest-sharded visited set (exactly one
    /// worker wins the insertion race for each new state, so each
    /// reachable state is expanded exactly once) plus the frontier's
    /// disk half. When the resident budget is crossed, freshly published
    /// successors are serialised to segment files instead of entering a
    /// deque; dry workers read segments back in batches. Spilled states
    /// were counted in `pending` at publication, so the termination
    /// protocol is unchanged.
    store: &'a StateStore,
    limits: &'a ExploreLimits,
    /// States a thief moves per steal ([`ModelParams::steal_batch`]).
    steal_batch: usize,
    /// Reduced mode's sharded sleep memo (see [`SleepMap`]), replacing
    /// the store's digest-only visited set; `None` when
    /// [`ModelParams::sleep_sets`] is off. One lock per
    /// low-digest-bits shard, like the visited set itself.
    sleep: Option<Vec<Mutex<SleepMap>>>,
    /// Whether any worker's expansion hit the context-switch bound.
    bounded: AtomicBool,
    /// First spill-store failure observed by any worker (the stop it
    /// caused is recorded via [`StealPool::trip`], so the run surfaces
    /// as truncated + this message, never as a panic or a silent pass).
    store_error: Mutex<Option<String>>,
}

impl StealPool<'_> {
    /// Pop from the worker's own deque (back = most recently discovered).
    fn pop_local(&self, me: usize) -> Option<Frame> {
        self.deques[me].lock().expect("deque poisoned").pop_back()
    }

    /// Steal from the first non-empty victim, scanning round-robin from
    /// the worker's right-hand neighbour. Takes up to `steal_batch`
    /// states from the *front* of the victim's deque: one is returned
    /// for immediate expansion, the rest move to the thief's own deque
    /// (amortising the victim-lock handshake across the batch).
    fn steal(&self, me: usize) -> Option<Frame> {
        let n = self.deques.len();
        for k in 1..n {
            let v = (me + k) % n;
            let mut batch: Vec<Frame> = {
                let mut victim = self.deques[v].lock().expect("deque poisoned");
                if victim.is_empty() {
                    continue;
                }
                let take = self.steal_batch.min(victim.len());
                victim.drain(..take).collect()
            };
            let first = batch.pop().expect("stolen batch is non-empty");
            if !batch.is_empty() {
                self.deques[me]
                    .lock()
                    .expect("deque poisoned")
                    .extend(batch);
            }
            return Some(first);
        }
        None
    }

    /// Reload one spilled frontier segment into the worker's own deque
    /// and pop a state from it. Returns `Ok(None)` when nothing is
    /// spilled (or when a neighbour stole the whole reloaded batch first
    /// — the states are still in deques and `pending` still counts
    /// them, so the caller just retries).
    fn unspill(&self, me: usize) -> Result<Option<Frame>, StoreError> {
        let Some(states) = self.store.unspill()? else {
            return Ok(None);
        };
        self.store.note_enqueued(states.len());
        self.deques[me]
            .lock()
            .expect("deque poisoned")
            .extend(states);
        Ok(self.pop_local(me))
    }

    /// Decide whether `frame` enters the frontier: the visited-set
    /// insertion race in unreduced mode, [`reduced_admit`] against the
    /// digest's sleep shard in reduced mode (possibly restricting the
    /// frame to a wake-up list on a re-visit). Same-digest arrivals
    /// serialise on the shard lock, so the reduced admission is
    /// race-free.
    fn admit(&self, frame: &mut Frame) -> Result<bool, StoreError> {
        match &self.sleep {
            None => self.store.insert_visited(frame.state.digest()),
            Some(shards) => {
                let digest = frame.state.digest();
                let mut map = shards[(digest & (shards.len() as u64 - 1)) as usize]
                    .lock()
                    .expect("sleep shard poisoned");
                Ok(match reduced_admit(&mut map, digest, &frame.sleep) {
                    None => false,
                    Some(wake) => {
                        frame.wake = wake;
                        true
                    }
                })
            }
        }
    }

    /// Record a truncation (budget or deadline) and tell every worker to
    /// stop.
    fn trip(&self) {
        self.truncated.store(true, Ordering::SeqCst);
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Record a spill-store failure and stop the exploration (truncated,
    /// with the failure message attached to the stats).
    fn fail_store(&self, e: &StoreError) {
        let mut slot = self.store_error.lock().expect("store_error poisoned");
        if slot.is_none() {
            *slot = Some(e.to_string());
        }
        drop(slot);
        self.trip();
    }
}

/// Trips the pool's stop flag if the worker unwinds, so a panic inside
/// one expansion cannot leave the other workers spinning forever on a
/// `pending` count that will never drain — they exit, the scope joins,
/// and the panic propagates.
struct StopOnPanic<'a>(&'a StealPool<'a>);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop.store(true, Ordering::SeqCst);
        }
    }
}

/// The body of one work-stealing worker: claim states against the budget,
/// expand them, dedup successors through the shared visited set, and
/// feed fresh ones back into the local deque for neighbours to steal.
///
/// All counter traffic uses `SeqCst`: one atomic RMW per expanded state
/// is noise next to the `SystemState` clones expansion performs, and it
/// keeps the termination argument (see [`StealPool::pending`]) free of
/// ordering subtleties.
fn steal_worker(
    pool: &StealPool<'_>,
    me: usize,
    reg_obs: &[(ThreadId, Reg)],
    mem_obs: &[(u64, usize)],
) -> WorkerOut {
    let _guard = StopOnPanic(pool);
    let mut out = WorkerOut {
        finals: BTreeSet::new(),
        transitions: 0,
        final_hits: 0,
    };
    let mut scratch = Vec::new();
    let mut idle_spins: u32 = 0;
    loop {
        if pool.stop.load(Ordering::SeqCst) {
            break;
        }
        let popped = match pool.pop_local(me).or_else(|| pool.steal(me)) {
            Some(f) => Some(f),
            None => match pool.unspill(me) {
                Ok(f) => f,
                Err(e) => {
                    pool.fail_store(&e);
                    break;
                }
            },
        };
        let Some(frame) = popped else {
            // No work anywhere we looked (deques or disk). Retire only
            // once no expansion is in flight either — an in-flight
            // expansion may yet publish new work to steal or spill.
            if pool.pending.load(Ordering::SeqCst) == 0 {
                break;
            }
            idle_spins += 1;
            if idle_spins < 64 {
                std::hint::spin_loop();
            } else if idle_spins < 1024 {
                std::thread::yield_now();
            } else {
                // Long starvation (one worker stuck on a deep chain):
                // keep the deadline honest while parked.
                if let Some(d) = pool.limits.deadline {
                    if Instant::now() >= d {
                        pool.trip();
                        break;
                    }
                }
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
            continue;
        };
        pool.store.note_dequeued(1);
        idle_spins = 0;

        // Cooperative budget claim, one state at a time. A failed claim
        // is rolled back so `claimed` settles at the expanded count.
        let n = pool.claimed.fetch_add(1, Ordering::SeqCst);
        if n >= pool.limits.max_states {
            pool.claimed.fetch_sub(1, Ordering::SeqCst);
            pool.pending.fetch_sub(1, Ordering::SeqCst);
            pool.trip();
            break;
        }
        if n.is_multiple_of(DEADLINE_POLL_PERIOD) {
            if let Some(d) = pool.limits.deadline {
                if Instant::now() >= d {
                    pool.claimed.fetch_sub(1, Ordering::SeqCst);
                    pool.pending.fetch_sub(1, Ordering::SeqCst);
                    pool.trip();
                    break;
                }
            }
        }

        let exp = expand(&frame, reg_obs, mem_obs, &mut out.finals, &mut scratch);
        if exp.bounded_hit {
            pool.bounded.store(true, Ordering::SeqCst);
        }
        if exp.is_final {
            out.final_hits += 1;
            pool.pending.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        out.transitions += exp.transitions;
        let mut fresh: Vec<Frame> = Vec::with_capacity(exp.succs.len());
        let mut failed = false;
        for mut next in exp.succs {
            match pool.admit(&mut next) {
                Ok(true) => fresh.push(next),
                Ok(false) => {}
                Err(e) => {
                    pool.fail_store(&e);
                    failed = true;
                    break;
                }
            }
        }
        if failed {
            // The stop flag is set; abandoning `pending` bookkeeping is
            // fine — every worker exits on the flag, not the count.
            break;
        }
        if !fresh.is_empty() {
            // Publish successors (and bump `pending`) before retiring the
            // parent, so `pending` cannot dip to zero while work remains.
            // Over the resident budget, the batch goes to a segment file
            // instead of a deque; it stays pending either way.
            pool.pending.fetch_add(fresh.len(), Ordering::SeqCst);
            if pool.store.should_spill(fresh.len()) {
                if let Err(e) = pool.store.spill_batch(&fresh) {
                    pool.fail_store(&e);
                    break;
                }
            } else {
                pool.store.note_enqueued(fresh.len());
                pool.deques[me]
                    .lock()
                    .expect("deque poisoned")
                    .extend(fresh);
            }
        }
        pool.pending.fetch_sub(1, Ordering::SeqCst);
    }
    out
}

/// The parallel work-stealing engine.
///
/// Workers are spawned once per exploration (worker 0 runs on the
/// calling thread) and run until the shared pending-count hits zero or a
/// limit trips — there are no per-level barriers, so a lone deep branch
/// keeps only one worker busy instead of stalling all of them, and no
/// per-round spawn overhead. Because the visited set is keyed by the
/// same digests the sequential engine uses, both engines expand exactly
/// the same state set, and merging the per-worker `BTreeSet`s of final
/// states is order-insensitive — results are deterministic and identical
/// to the sequential engine's whenever the budget is not exhausted.
fn explore_par(
    initial: &SystemState,
    reg_obs: &[(ThreadId, Reg)],
    mem_obs: &[(u64, usize)],
    threads: usize,
    limits: &ExploreLimits,
) -> Outcomes {
    let store = StateStore::new(initial.program.clone(), &initial.params, threads);
    let pool = StealPool {
        deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
        pending: AtomicUsize::new(1),
        claimed: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        truncated: AtomicBool::new(false),
        store: &store,
        limits,
        steal_batch: initial.params.effective_steal_batch(),
        sleep: initial.params.sleep_sets.then(|| {
            let n = (threads.max(1) * 16).next_power_of_two();
            (0..n).map(|_| Mutex::new(SleepMap::new())).collect()
        }),
        bounded: AtomicBool::new(false),
        store_error: Mutex::new(None),
    };
    let mut root = Frame::root(initial.clone());
    // The store is empty, so the root admission cannot touch disk.
    let admitted = pool
        .admit(&mut root)
        .expect("root insert into an empty store cannot touch disk");
    debug_assert!(admitted, "the root always enters an empty frontier");
    pool.store.note_enqueued(1);
    pool.deques[0]
        .lock()
        .expect("deque poisoned")
        .push_back(root);

    let outs: Vec<WorkerOut> = std::thread::scope(|s| {
        let pool = &pool;
        let handles: Vec<_> = (1..threads)
            .map(|me| s.spawn(move || steal_worker(pool, me, reg_obs, mem_obs)))
            .collect();
        let mut outs = vec![steal_worker(pool, 0, reg_obs, mem_obs)];
        outs.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("exploration worker panicked")),
        );
        outs
    });

    let mut stats = ExplorationStats {
        states: pool.claimed.load(Ordering::SeqCst),
        truncated: pool.truncated.load(Ordering::SeqCst),
        resident_peak: store.resident_peak(),
        spilled_states: store.spilled_states(),
        bounded: pool.bounded.load(Ordering::SeqCst),
        store_error: pool
            .store_error
            .lock()
            .expect("store_error poisoned")
            .take(),
        ..ExplorationStats::default()
    };
    let mut finals = BTreeSet::new();
    for out in outs {
        stats.transitions += out.transitions;
        stats.final_hits += out.final_hits;
        finals.extend(out.finals);
    }
    Outcomes { finals, stats }
}

/// Extract the observable final states of a quiescent system state
/// (possibly several, one per coherence completion of each queried
/// location) straight into `finals`.
///
/// The cartesian product over locations works on *borrowed* candidate
/// values and clones each register map and memory value exactly once, at
/// the leaf that builds the emitted [`FinalState`] — the earlier
/// level-by-level construction cloned every partial state (whole maps)
/// once per candidate per location.
fn extract_finals(
    state: &SystemState,
    reg_obs: &[(ThreadId, Reg)],
    mem_obs: &[(u64, usize)],
    finals: &mut BTreeSet<FinalState>,
) {
    let mut regs = BTreeMap::new();
    for &(tid, reg) in reg_obs {
        regs.insert((tid, reg), state.threads[tid].final_reg(reg));
    }
    // Per-location candidate final values.
    let mut per_loc: Vec<(u64, Vec<Bv>)> = Vec::new();
    for &(addr, size) in mem_obs {
        per_loc.push((addr, final_values_at(state, addr, size)));
    }
    // Cartesian product over locations, borrowing until the leaf.
    let mut chosen: Vec<(u64, &Bv)> = Vec::with_capacity(per_loc.len());
    finals_product(&regs, &per_loc, &mut chosen, finals);
}

/// Recursive leg of the per-location cartesian product: `chosen` holds
/// one borrowed candidate per already-visited location; each complete
/// assignment becomes one owned [`FinalState`].
fn finals_product<'a>(
    regs: &BTreeMap<(ThreadId, Reg), Bv>,
    per_loc: &'a [(u64, Vec<Bv>)],
    chosen: &mut Vec<(u64, &'a Bv)>,
    finals: &mut BTreeSet<FinalState>,
) {
    // `chosen` borrows from earlier `per_loc` entries, so the recursion
    // threads the remaining suffix; `split_first` keeps lifetimes tied
    // to `per_loc` itself.
    match per_loc.split_first() {
        None => {
            finals.insert(FinalState {
                regs: regs.clone(),
                mem: chosen.iter().map(|&(a, v)| (a, v.clone())).collect(),
            });
        }
        Some(((addr, candidates), rest)) => {
            for v in candidates {
                chosen.push((*addr, v));
                finals_product(regs, rest, chosen, finals);
                chosen.pop();
            }
        }
    }
}

/// All possible final values of `[addr, addr+size)`: one per
/// coherence-consistent linearisation of the covering writes.
fn final_values_at(state: &SystemState, addr: u64, size: usize) -> Vec<Bv> {
    let covering: Vec<WriteId> = state
        .storage
        .writes_seen
        .iter()
        .copied()
        .filter(|w| state.storage.writes[w].overlaps(addr, size))
        .collect();
    let mut values = BTreeSet::new();
    let mut order = Vec::new();
    let mut used = vec![false; covering.len()];
    permute(
        state,
        &covering,
        &mut used,
        &mut order,
        addr,
        size,
        &mut values,
    );
    values.into_iter().collect()
}

fn permute(
    state: &SystemState,
    covering: &[WriteId],
    used: &mut [bool],
    order: &mut Vec<WriteId>,
    addr: u64,
    size: usize,
    values: &mut BTreeSet<Bv>,
) {
    if order.len() == covering.len() {
        // Assemble the value bit-by-bit from the *borrowed* supplying
        // writes; the only allocation is the final `Bv` inserted into
        // the set (the per-byte `final_byte_value` path cloned a fresh
        // one-byte `Bv` per byte per linearisation, then re-allocated
        // the accumulator on every concat).
        let mut bits = Vec::with_capacity(size * 8);
        for i in 0..size {
            let b = addr + i as u64;
            match state.storage.final_byte_write(order, b) {
                Some(w) => {
                    let off = ((b - w.addr) as usize) * 8;
                    for k in 0..8 {
                        bits.push(w.value.bit(off + k));
                    }
                }
                None => bits.extend(std::iter::repeat_n(ppc_bits::Bit::Undef, 8)),
            }
        }
        values.insert(Bv::from_bits(bits));
        return;
    }
    for (i, &w) in covering.iter().enumerate() {
        if used[i] {
            continue;
        }
        // Respect coherence: w may come next only if no unplaced write is
        // coherence-before it.
        let ok = covering
            .iter()
            .enumerate()
            .all(|(j, &o)| used[j] || j == i || !state.storage.coh_before(o, w));
        if !ok {
            continue;
        }
        used[i] = true;
        order.push(w);
        permute(state, covering, used, order, addr, size, values);
        order.pop();
        used[i] = false;
    }
}

/// Run a single deterministic execution to quiescence (the tool's "run
/// sequentially" mode; with one thread this is a conventional emulator).
///
/// Transition choice: non-fetch thread transitions first (lowest thread,
/// lowest instance, enumeration order), then storage transitions, then
/// fetches whose parent's next address is resolved — so no speculative
/// wrong-path work is ever done.
///
/// Returns the final state and the number of transitions taken.
///
/// # Panics
///
/// Panics if quiescence is not reached within `max_steps`.
#[must_use]
pub fn run_sequential(initial: &SystemState, max_steps: usize) -> (SystemState, usize) {
    let mut state = initial.clone();
    let mut steps = 0;
    loop {
        if state.is_final() {
            return (state, steps);
        }
        let ts = state.enumerate_transitions();
        let pick = choose_sequential(&state, &ts);
        match pick {
            Some(t) => {
                state = state.apply(&t);
                steps += 1;
                assert!(
                    steps <= max_steps,
                    "sequential run exceeded {max_steps} steps"
                );
            }
            None => return (state, steps),
        }
    }
}

pub(crate) fn choose_sequential(state: &SystemState, ts: &[Transition]) -> Option<Transition> {
    // 1. Non-fetch thread transitions.
    if let Some(t) = ts.iter().find(
        |t| matches!(t, Transition::Thread(tt) if !matches!(tt, ThreadTransition::Fetch { .. })),
    ) {
        return Some(*t);
    }
    // 2. Storage transitions.
    if let Some(t) = ts.iter().find(|t| matches!(t, Transition::Storage(_))) {
        return Some(*t);
    }
    // 3. Resolved fetches only.
    ts.iter()
        .find(|t| match t {
            Transition::Thread(ThreadTransition::Fetch { tid, parent, .. }) => match parent {
                None => true,
                Some(p) => state.threads[*tid].instances[*p].nia.is_some(),
            },
            _ => false,
        })
        .cloned()
}
