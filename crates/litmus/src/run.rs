//! Running litmus tests through the exhaustive oracle.

use crate::cond::Quantifier;
use crate::library::LitmusEntry;
use crate::test::{Expectation, LitmusTest};
use ppc_bits::Bv;
use ppc_idl::Reg;
use ppc_model::{explore_limited, ExploreLimits, ModelParams, Program, SystemState};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Where each thread's code is placed (far apart, so speculative fetch
/// cannot run off the end of one thread into another).
fn code_base(tid: usize) -> u64 {
    0x5_0000 + 0x1000 * tid as u64
}

/// The result of exhaustively checking one test.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Test name.
    pub name: String,
    /// Number of distinct observable final states.
    pub finals: usize,
    /// Whether some final state satisfied the (existential) condition.
    pub witnessed: bool,
    /// Whether the quantified condition holds
    /// (`exists` → witnessed, `~exists` → not witnessed,
    /// `forall` → all satisfied).
    pub holds: bool,
    /// Exploration statistics.
    pub stats: ppc_model::ExplorationStats,
}

/// Build the initial [`SystemState`] for a test.
#[must_use]
pub fn build_system(test: &LitmusTest, params: &ModelParams) -> SystemState {
    let code: Vec<(u64, Vec<ppc_isa::Instruction>)> = test
        .threads
        .iter()
        .enumerate()
        .map(|(tid, t)| (code_base(tid), t.instrs.clone()))
        .collect();
    let program = Arc::new(Program::from_threads(&code));
    let thread_inits = test
        .threads
        .iter()
        .enumerate()
        .map(|(tid, t)| {
            let regs: BTreeMap<Reg, Bv> = t
                .init_regs
                .iter()
                .map(|(&g, &v)| (Reg::Gpr(g), Bv::from_u64(v, 64)))
                .collect();
            (regs, code_base(tid))
        })
        .collect();
    // Word-sized locations, as in the POWER litmus corpus.
    let initial_mem: Vec<(u64, Bv)> = test
        .locations
        .iter()
        .map(|(name, &addr)| {
            let v = test.init_mem.get(name).copied().unwrap_or(0);
            (addr, Bv::from_u64(v, 32))
        })
        .collect();
    SystemState::new(program, thread_inits, &initial_mem, params.clone())
}

/// Exhaustively run a test and evaluate its final condition, with
/// parallelism and the state budget taken from `params`.
#[must_use]
pub fn run(test: &LitmusTest, params: &ModelParams) -> RunResult {
    run_limited(test, params, &ExploreLimits::from_params(params))
}

/// [`run`] with explicit exploration limits (thread count, state budget,
/// and an optional wall-clock deadline).
#[must_use]
pub fn run_limited(test: &LitmusTest, params: &ModelParams, limits: &ExploreLimits) -> RunResult {
    let state = build_system(test, params);
    let (reg_obs, mem_obs) = observations(test);
    let out = explore_limited(&state, &reg_obs, &mem_obs, limits);
    let witnessed = out
        .finals
        .iter()
        .any(|f| test.cond.expr.eval(f, &test.locations));
    let all = out
        .finals
        .iter()
        .all(|f| test.cond.expr.eval(f, &test.locations));
    let holds = match test.cond.quantifier {
        Quantifier::Exists => witnessed,
        Quantifier::NotExists => !witnessed,
        Quantifier::Forall => all,
    };
    RunResult {
        name: test.name.clone(),
        finals: out.finals.len(),
        witnessed,
        holds,
        stats: out.stats,
    }
}

/// The observation footprint a test's final condition needs: the
/// queried `(thread, register)` pairs and `(address, width)` memory
/// locations, each sorted and deduplicated.
pub type Observations = (Vec<(usize, Reg)>, Vec<(u64, usize)>);

/// The [`Observations`] of a test's final condition: what every
/// exploration of the test records in its final states, and so what
/// callers driving the engines directly must pass to get the same
/// finals as [`run_limited`].
#[must_use]
pub fn observations(test: &LitmusTest) -> Observations {
    let mut reg_obs = Vec::new();
    test.cond.expr.reg_atoms(&mut reg_obs);
    reg_obs.sort_unstable();
    reg_obs.dedup();
    let reg_obs: Vec<(usize, Reg)> = reg_obs.into_iter().map(|(t, g)| (t, Reg::Gpr(g))).collect();
    let mut mem_names = Vec::new();
    test.cond.expr.mem_atoms(&mut mem_names);
    mem_names.sort_unstable();
    mem_names.dedup();
    let mem_obs: Vec<(u64, usize)> = mem_names.iter().map(|n| (test.locations[n], 4)).collect();
    (reg_obs, mem_obs)
}

/// A library entry's check report: model verdict vs expectation.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// The run result.
    pub result: RunResult,
    /// The paper/hardware expectation.
    pub expect: Expectation,
    /// Whether the model matches the expectation (the §7 validation
    /// criterion: the model verdict for the `exists` condition equals
    /// the architectural intent).
    pub matches: bool,
}

/// Run a library entry and compare against its expectation.
///
/// # Panics
///
/// Panics if the entry's source fails to parse (library sources are
/// fixed).
#[must_use]
pub fn run_entry(entry: &LitmusEntry, params: &ModelParams) -> CheckReport {
    run_entry_limited(entry, params, &ExploreLimits::from_params(params))
}

/// [`run_entry`] with explicit exploration limits.
///
/// # Panics
///
/// Panics if the entry's source fails to parse (library sources are
/// fixed).
#[must_use]
pub fn run_entry_limited(
    entry: &LitmusEntry,
    params: &ModelParams,
    limits: &ExploreLimits,
) -> CheckReport {
    let test = crate::parse(entry.source).expect("library test parses");
    let result = run_limited(&test, params, limits);
    let model_allows = result.witnessed;
    let matches = match entry.expect {
        Expectation::Allowed => model_allows,
        Expectation::Forbidden => !model_allows,
    };
    CheckReport {
        result,
        expect: entry.expect,
        matches,
    }
}
