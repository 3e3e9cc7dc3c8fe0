//! The `sweep` and `sweep-spill` workloads: the built-in litmus corpus
//! through the exhaustive oracle, one test at a time.
//!
//! Untraced, every test goes through `ppc_litmus::harness::run_job`
//! (one job, one model thread, no cache). Traced, the benchmark drives
//! the search itself with a depth-first loop that mirrors the
//! sequential engine, so each call into the model and the store can be
//! timed; its state, transition and final-hit counts must equal the
//! `ExplorationStats` that `explore_limited` reports for the same test.

use crate::report::{median_secs, peak_rss_mb, Outcome};
use crate::trace::{Layer, Spans, Tracer};
use crate::RunCtx;
use ppc_litmus::harness::{run_job, HarnessConfig, Job, TestReport};
use ppc_litmus::{build_system, generated_suite, library, observations, LitmusEntry};
use ppc_model::{
    explore_limited, ExplorationStats, ExploreLimits, Frame, ModelParams, StateStore, SystemState,
    ThreadTransition, Transition,
};
use std::time::{Duration, Instant};

/// Resident-state budget of `sweep-spill`: small enough that frontier
/// frames go through `spill_batch`/`unspill` and the state codec, not
/// only visited digests.
pub const SPILL_BUDGET: usize = 16;

/// The `sweep-spill` subset: corpus tests (every entry of each name)
/// that all spill frames at [`SPILL_BUDGET`], sized so one pass takes a
/// few seconds rather than the whole corpus's half minute.
pub const SPILL_SUBSET: &[&str] = &[
    "MP+syncs",
    "MP+sync+addr-cr",
    "MP+sync+ctrlisync",
    "MP+lwsync+ctrlisync",
    "MP+sync+rs",
    "SB",
    "SB+syncs",
    "SB+po+sync",
    "SB+po+lwsync",
    "SB+sync+po",
    "SB+lwsync+po",
    "LB",
    "LB+data+data",
    "S+sync+addr",
    "2+2W",
    "WRC+pos",
    "WRC+po+po",
    "WRC+po+addr",
    "WRC+sync+addr",
];

/// The corpus setup: parse every test into a job.
fn setup(entries: &[LitmusEntry]) -> (Vec<Job>, Duration) {
    let t = Instant::now();
    let jobs = entries.iter().map(Job::from_entry).collect();
    (jobs, t.elapsed())
}

/// Which of the two sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    InMemory,
    Spill,
}

/// The corpus of a mode, in its fixed order: the 30 library tests then
/// the 43 generated-family tests (`sweep`), or the [`SPILL_SUBSET`]
/// entries among them (`sweep-spill`).
///
/// # Errors
///
/// A subset name the corpus does not contain.
pub fn corpus(mode: Mode) -> Result<Vec<LitmusEntry>, String> {
    let mut all = library();
    all.extend(generated_suite());
    if mode == Mode::InMemory {
        return Ok(all);
    }
    if let Some(missing) = SPILL_SUBSET
        .iter()
        .find(|n| !all.iter().any(|e| e.name == **n))
    {
        return Err(format!("sweep-spill test {missing} is not in the corpus"));
    }
    Ok(all
        .into_iter()
        .filter(|e| SPILL_SUBSET.contains(&e.name))
        .collect())
}

/// The model parameters of a mode: defaults, one model thread, and for
/// `sweep-spill` the tight resident budget.
#[must_use]
pub fn params(mode: Mode) -> ModelParams {
    ModelParams {
        threads: 1,
        max_resident_states: match mode {
            Mode::InMemory => 0,
            Mode::Spill => SPILL_BUDGET,
        },
        ..ModelParams::default()
    }
}

fn harness(mode: Mode) -> HarnessConfig {
    HarnessConfig {
        params: params(mode),
        jobs: 1,
        ..HarnessConfig::default()
    }
}

/// The fields of a report that must repeat exactly between runs of one
/// test (everything but wall time and resident peak).
fn same_answer(a: &TestReport, b: &TestReport) -> bool {
    a.model_allows == b.model_allows
        && a.finals == b.finals
        && a.states == b.states
        && a.transitions == b.transitions
        && a.truncated == b.truncated
        && a.bounded == b.bounded
}

/// Check one harness report: conclusive and matching its expectation,
/// the same answer as the test's earlier runs, and spilling where the
/// mode asks for it.
fn check_report(out: &mut Outcome, mode: Mode, r: &TestReport, first: Option<&TestReport>) {
    if !r.conclusive() {
        out.fail(format!("{}: inconclusive ({} states)", r.name, r.states));
    } else if !r.matches {
        out.fail(format!(
            "{}: model says {}, expected {}",
            r.name,
            r.verdict(),
            r.expected
        ));
    } else if first.is_some_and(|f| !same_answer(f, r)) {
        out.fail(format!("{}: answer changed between runs", r.name));
    } else if mode == Mode::Spill && r.spilled == 0 {
        out.fail(format!("{}: spilled no frames", r.name));
    }
}

/// The untraced run.
///
/// The timed phase runs the corpus round robin, always completing at
/// least one full pass and then stopping at the first test boundary
/// after `ctx.seconds`. The corpus wall is the sum over tests of each
/// test's median wall: `ops_per_s` is the corpus's tests divided by it.
/// Its explored states divided by it are noted as `states_per_s` (at a
/// fixed corpus the two are proportional).
///
/// The setup is timed before the timed phase and again after every test:
/// it takes under a millisecond, so a burst of repetitions would sample
/// only the host's speed of that moment, while repetitions spread over
/// the run give its median under the run's conditions (`setup_s`).
pub fn run(ctx: &RunCtx, mode: Mode, out: &mut Outcome) -> Result<(), String> {
    let entries = corpus(mode)?;
    let cfg = harness(mode);

    let (jobs, t) = setup(&entries);
    let mut setups = vec![t];

    let n = jobs.len();
    let mut walls: Vec<Vec<Duration>> = vec![Vec::new(); n];
    let mut first: Vec<Option<TestReport>> = vec![None; n];
    let t0 = Instant::now();
    let mut i = 0;
    while i < n || t0.elapsed() < ctx.seconds {
        let k = i % n;
        let t = Instant::now();
        let r = run_job(&jobs[k], &cfg);
        walls[k].push(t.elapsed());
        out.attempted += 1;
        check_report(out, mode, &r, first[k].as_ref());
        first[k].get_or_insert(r);
        setups.push(setup(&entries).1);
        i += 1;
    }
    let timed = t0.elapsed();
    let rss = peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;

    if mode == Mode::Spill {
        // The spilled answers must be the in-memory sweep's answers.
        let mem = harness(Mode::InMemory);
        for (job, spilled) in jobs.iter().zip(&first) {
            let spilled = spilled.as_ref().expect("every test ran");
            let r = run_job(job, &mem);
            out.check(same_answer(&r, spilled), || {
                format!("{}: spilled answer differs from in-memory", job.name)
            });
        }
    }

    let states: usize = first.iter().flatten().map(|r| r.states).sum();
    let wall: f64 = walls.iter().map(|w| median_secs(w)).sum();
    out.metric("setup_s", median_secs(&setups), "s");
    out.metric("peak_rss_mb", rss, "MB");
    out.metric("ops_per_s", n as f64 / wall, "1/s");

    let samples: Vec<usize> = walls.iter().map(Vec::len).collect();
    out.note("tests", n);
    out.note("corpus_states", states);
    out.note("states_per_s", states as f64 / wall);
    out.note(
        "corpus_transitions",
        first.iter().flatten().map(|r| r.transitions).sum::<usize>(),
    );
    out.note("timed_s", timed.as_secs_f64());
    out.note("setup_samples", setups.len());
    out.note(
        "wall_samples_per_test_min",
        samples.iter().min().unwrap_or(&0),
    );
    out.note(
        "wall_samples_per_test_max",
        samples.iter().max().unwrap_or(&0),
    );
    out.note(
        "spilled_frames",
        first.iter().flatten().map(|r| r.spilled).sum::<usize>(),
    );
    Ok(())
}

/// What one replica search counted.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub states: usize,
    pub transitions: usize,
    pub final_hits: usize,
    pub spilled: usize,
    pub visited_probes: u64,
    pub visited_fresh: u64,
    pub enumerate_calls: u64,
    pub apply_calls: u64,
}

impl Counts {
    /// Whether the search counted what the engine's statistics say.
    #[must_use]
    pub fn matches(&self, s: &ExplorationStats) -> bool {
        self.states == s.states
            && self.transitions == s.transitions
            && self.final_hits == s.final_hits
            && self.spilled == s.spilled_states
            && !s.truncated
    }
}

/// The sequential engine's depth-first search, driven through the
/// public `SystemState` and `StateStore` calls only, with a span around
/// each call. Finals are not extracted (only final hits are counted).
///
/// # Errors
///
/// A store failure, or a state count past `max_states`.
pub fn replica_search(initial: &SystemState, sp: &mut impl Spans) -> Result<Counts, String> {
    let params = &initial.params;
    let store = StateStore::new(initial.program.clone(), params, 1);
    let budget = store.budget();
    let mut c = Counts {
        visited_probes: 1,
        visited_fresh: 1,
        ..Counts::default()
    };
    let mut scratch: Vec<Transition> = Vec::new();
    let mut stack = vec![Frame::root(initial.clone())];
    let root = sp.time(Layer::Digest, || initial.digest());
    sp.time(Layer::Visited, || store.insert_visited(root))
        .map_err(|e| e.to_string())?;
    store.note_enqueued(1);
    loop {
        let frame = match stack.pop() {
            Some(f) => f,
            None => match sp
                .time(Layer::Unspill, || store.unspill())
                .map_err(|e| e.to_string())?
            {
                None => break,
                Some(seg) => {
                    store.note_enqueued(seg.len());
                    stack.extend(seg);
                    match stack.pop() {
                        Some(f) => f,
                        None => break,
                    }
                }
            },
        };
        store.note_dequeued(1);
        c.states += 1;
        if c.states > params.max_states {
            return Err(format!("state budget {} exceeded", params.max_states));
        }
        let state = &frame.state;
        sp.time(Layer::Enumerate, || {
            state.enumerate_transitions_into(&mut scratch);
        });
        c.enumerate_calls += 1;
        let fetchable = scratch
            .iter()
            .any(|t| matches!(t, Transition::Thread(ThreadTransition::Fetch { .. })));
        if !fetchable && state.threads.iter().all(|th| th.all_finished()) {
            c.final_hits += 1;
            continue;
        }
        c.transitions += scratch.len();
        for t in &scratch {
            let next = sp.time(Layer::Apply, || state.apply(t));
            let d = sp.time(Layer::Digest, || next.digest());
            let fresh = sp
                .time(Layer::Visited, || store.insert_visited(d))
                .map_err(|e| e.to_string())?;
            c.apply_calls += 1;
            c.visited_probes += 1;
            if fresh {
                c.visited_fresh += 1;
                store.note_enqueued(1);
                stack.push(Frame::root(next));
            }
        }
        // The engine's spill policy: past the budget, spill the oldest
        // frames down to half of it.
        if budget != 0 && stack.len() > budget {
            let victims: Vec<Frame> = stack.drain(..stack.len() - budget / 2).collect();
            sp.time(Layer::Spill, || store.spill_batch(&victims))
                .map_err(|e| e.to_string())?;
            store.note_dequeued(victims.len());
        }
    }
    c.spilled = store.spilled_states();
    Ok(c)
}

/// The traced run: one untraced pass (parse, build, `explore_limited`)
/// for the reference statistics and the untraced wall, then one traced
/// pass of the replica search over the same tests.
pub fn run_traced(mode: Mode, out: &mut Outcome) -> Result<Tracer, String> {
    let entries = corpus(mode)?;
    let params = params(mode);
    let limits = ExploreLimits::from_params(&params);

    let t = Instant::now();
    let mut reference = Vec::with_capacity(entries.len());
    for e in &entries {
        let job = Job::from_entry(e);
        let state = build_system(&job.test, &params);
        let (regs, mem) = observations(&job.test);
        reference.push(explore_limited(&state, &regs, &mem, &limits).stats);
    }
    let untraced = t.elapsed().as_secs_f64();

    let mut tr = Tracer::new();
    let mut total = Counts::default();
    let t = Instant::now();
    for (k, (e, want)) in entries.iter().zip(&reference).enumerate() {
        tr.op(k as u64);
        tr.enter(Layer::SweepTest);
        let job = tr.time(Layer::Parse, || Job::from_entry(e));
        let state = tr.time(Layer::Build, || {
            let _ = observations(&job.test);
            build_system(&job.test, &params)
        });
        tr.enter(Layer::Search);
        let got = replica_search(&state, &mut tr);
        tr.exit();
        tr.exit();
        out.attempted += 1;
        match got {
            Ok(c) if c.matches(want) => {
                total.states += c.states;
                total.transitions += c.transitions;
                total.final_hits += c.final_hits;
                total.spilled += c.spilled;
                total.visited_probes += c.visited_probes;
                total.visited_fresh += c.visited_fresh;
                total.enumerate_calls += c.enumerate_calls;
                total.apply_calls += c.apply_calls;
            }
            Ok(c) => out.fail(format!(
                "{}: replica counted {}/{}/{} states/transitions/final hits ({} spilled), \
                 engine {}/{}/{} ({} spilled)",
                e.name,
                c.states,
                c.transitions,
                c.final_hits,
                c.spilled,
                want.states,
                want.transitions,
                want.final_hits,
                want.spilled_states
            )),
            Err(err) => out.fail(format!("{}: {err}", e.name)),
        }
    }
    let traced = t.elapsed().as_secs_f64();

    // The search's layers plus its residual account for its wall.
    let search = tr.totals(Layer::Search);
    let layers = [
        Layer::Enumerate,
        Layer::Apply,
        Layer::Digest,
        Layer::Visited,
        Layer::Spill,
        Layer::Unspill,
    ];
    let accounted: u64 = layers.iter().map(|l| tr.totals(*l).own).sum::<u64>() + search.own;
    out.check(accounted == search.wall, || {
        format!(
            "layer self times {accounted} ns + residual do not add up to the search wall {} ns",
            search.wall
        )
    });
    out.check(
        tr.totals(Layer::Apply).calls == total.apply_calls
            && total.apply_calls == total.transitions as u64,
        || "apply spans do not match transitions".to_owned(),
    );

    out.metric("litmus.parse_s", tr.own_secs(Layer::Parse), "s");
    out.metric("litmus.build_s", tr.own_secs(Layer::Build), "s");
    out.metric(
        "model.enumerate_calls",
        total.enumerate_calls as f64,
        "count",
    );
    out.metric("model.enumerate_s", tr.own_secs(Layer::Enumerate), "s");
    out.metric("model.apply_calls", total.apply_calls as f64, "count");
    out.metric("model.apply_s", tr.own_secs(Layer::Apply), "s");
    out.metric("model.digest_s", tr.own_secs(Layer::Digest), "s");
    out.metric("store.visited_probes", total.visited_probes as f64, "count");
    out.metric("store.visited_fresh", total.visited_fresh as f64, "count");
    out.metric(
        "store.visited_fresh_ratio",
        ratio(total.visited_fresh, total.visited_probes),
        "ratio",
    );
    out.metric("store.visited_s", tr.own_secs(Layer::Visited), "s");
    out.metric("store.spill_frames", total.spilled as f64, "count");
    out.metric("store.spill_s", tr.own_secs(Layer::Spill), "s");
    out.metric("store.unspill_s", tr.own_secs(Layer::Unspill), "s");
    out.metric("model.final_hits", total.final_hits as f64, "count");
    out.metric("oracle.search_s", tr.wall_secs(Layer::Search), "s");
    out.metric("oracle.residual_s", tr.own_secs(Layer::Search), "s");
    out.metric("trace.overhead_ratio", traced / untraced, "ratio");

    out.note("tests", entries.len());
    out.note("states", total.states);
    out.note("transitions", total.transitions);
    out.note("untraced_s", untraced);
    out.note("traced_s", traced);
    out.note("sweep_test_self_s", tr.own_secs(Layer::SweepTest));
    Ok(tr)
}

/// `num / den`, or 0 when nothing was attempted.
#[must_use]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::NoTrace;

    fn entry(name: &str) -> LitmusEntry {
        library().into_iter().find(|e| e.name == name).unwrap()
    }

    fn engine_stats(e: &LitmusEntry, mode: Mode) -> (SystemState, ExplorationStats) {
        let job = Job::from_entry(e);
        let p = params(mode);
        let state = build_system(&job.test, &p);
        let (regs, mem) = observations(&job.test);
        let stats = explore_limited(&state, &regs, &mem, &ExploreLimits::from_params(&p)).stats;
        (state, stats)
    }

    #[test]
    fn replica_matches_the_engine_in_memory() {
        let (state, stats) = engine_stats(&entry("MP"), Mode::InMemory);
        let c = replica_search(&state, &mut NoTrace).unwrap();
        assert!(c.matches(&stats), "{c:?} vs {stats:?}");
        assert_eq!(c.spilled, 0);
        assert!(c.final_hits > 0);
    }

    #[test]
    fn replica_matches_the_engine_when_spilling() {
        let (state, stats) = engine_stats(&entry("MP+syncs"), Mode::Spill);
        let mut tr = Tracer::new();
        let c = replica_search(&state, &mut tr).unwrap();
        assert!(c.matches(&stats), "{c:?} vs {stats:?}");
        assert!(c.spilled > 0, "budget {SPILL_BUDGET} spills MP+syncs");
        assert_eq!(tr.totals(Layer::Apply).calls, c.apply_calls);
        assert!(tr.totals(Layer::Spill).calls > 0);
        assert!(tr.totals(Layer::Unspill).calls > 0);
    }

    #[test]
    fn spill_subset_names_are_all_in_the_corpus() {
        let subset = corpus(Mode::Spill).unwrap();
        assert!(subset.len() >= SPILL_SUBSET.len());
        assert_eq!(corpus(Mode::InMemory).unwrap().len(), 73);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(0, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
    }
}
