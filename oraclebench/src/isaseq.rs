//! The `isa-seq` workload: the sequential ISA conformance run.
//!
//! `ppc_seqref::generate_tests` makes single-instruction tests from the
//! seed. Each test steps the golden `SeqMachine`, builds the model with
//! `SystemState::new`, runs `ppc_model::run_sequential`, and compares
//! final registers and memory up to undef, the way `ppc_seqref`'s own
//! conformance run does.

use crate::litgen::Rng;
use crate::report::{median_secs, peak_rss_mb, Outcome};
use crate::trace::{Layer, NoTrace, Spans, Tracer};
use crate::RunCtx;
use ppc_bits::Bv;
use ppc_idl::Reg;
use ppc_model::{run_sequential, ModelParams, Program, SystemState, WriteId};
use ppc_seqref::{generate_tests, SeqMachine, SeqTest};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Random machine states per instruction shape (`seq_conformance`'s
/// default: 8,384 tests).
pub const PER_CONFIG: usize = 8;

/// Where the generated tests place their instruction (their link and
/// branch targets are relative to it).
const CODE_ADDR: u64 = 0x1_0000;

/// Transition budget of one sequential run.
const MAX_STEPS: usize = 10_000;

/// How often the timed phase pauses to time the test generation again.
/// Generation takes tens of milliseconds, so repetitions in one burst
/// would sample only the host's speed of that moment; spread over the
/// run, their median (`setup_s`) reflects the run's conditions.
const SETUP_EVERY: Duration = Duration::from_millis(2500);

/// The seeded suite, in a seeded order (so any prefix of a pass is a
/// uniform sample of instruction shapes).
#[must_use]
pub fn suite(seed: u64) -> Vec<SeqTest> {
    let mut tests = generate_tests(seed, PER_CONFIG);
    Rng::stream(seed, 0x15a).shuffle(&mut tests);
    tests
}

/// The test's initial memory as contiguous byte runs.
fn initial_mem(test: &SeqTest) -> Vec<(u64, Bv)> {
    let mut out: Vec<(u64, Bv)> = Vec::new();
    let mut iter = test.init.mem.iter().peekable();
    while let Some((&start, first)) = iter.next() {
        let mut run = first.clone();
        let mut next = start + 1;
        while let Some(&(&a, v)) = iter.peek() {
            if a == next && run.len() < 64 * 8 {
                run = run.concat(v);
                next += 1;
                iter.next();
            } else {
                break;
            }
        }
        out.push((start, run));
    }
    out
}

/// Compare golden and model final states up to undef.
fn compare(test: &SeqTest, golden: &SeqMachine, fin: &SystemState) -> Result<(), String> {
    for r in Reg::architected() {
        let g = golden.state.reg(r);
        let m = fin.threads[0].final_reg(r);
        if !g.compatible(&m) {
            return Err(format!("{}: {r}: golden {g}, model {m}", test.name));
        }
    }
    // One thread: writes are totally ordered per byte in creation order.
    let order: Vec<WriteId> = fin.storage.writes_seen.iter().copied().collect();
    for (&addr, g) in &golden.state.mem {
        if let Some(m) = fin.storage.final_byte_value(&order, addr) {
            if !g.compatible(&m) {
                return Err(format!(
                    "{}: mem[{addr:#x}]: golden {g}, model {m}",
                    test.name
                ));
            }
        }
    }
    Ok(())
}

/// Run one test, with a span around each layer call; returns the
/// transitions the model's sequential run took.
///
/// # Errors
///
/// A golden fault or a golden/model disagreement.
pub fn run_test(test: &SeqTest, sp: &mut impl Spans) -> Result<usize, String> {
    let golden = sp.time(Layer::SeqStep, || {
        let mut golden = SeqMachine::from_instrs(std::slice::from_ref(&test.instr), CODE_ADDR);
        golden.state = test.init.clone();
        golden.step_instruction().map(|()| golden)
    });
    let golden = golden.map_err(|e| format!("{}: golden fault: {e}", test.name))?;

    let sys = sp.time(Layer::SeqInit, || {
        let program = Arc::new(Program::from_threads(&[(
            CODE_ADDR,
            vec![test.instr.clone()],
        )]));
        let regs: BTreeMap<Reg, Bv> = test.init.regs.clone();
        SystemState::new(
            program,
            vec![(regs, CODE_ADDR)],
            &initial_mem(test),
            ModelParams::default(),
        )
    });
    let (fin, steps) = sp.time(Layer::RunSequential, || run_sequential(&sys, MAX_STEPS));
    sp.time(Layer::SeqCompare, || compare(test, &golden, &fin))?;
    Ok(steps)
}

/// [`run_test`] with a panic (the model's step-budget assertion)
/// turned into a failure.
fn run_checked(test: &SeqTest, sp: &mut impl Spans) -> Result<usize, String> {
    catch_unwind(AssertUnwindSafe(|| run_test(test, sp)))
        .unwrap_or_else(|_| Err(format!("{}: panicked", test.name)))
}

/// The suite generation, timed.
fn setup(seed: u64) -> (Vec<SeqTest>, Duration) {
    let t = Instant::now();
    let tests = suite(seed);
    (tests, t.elapsed())
}

/// The untraced run. The timed phase cycles through the suite until
/// `ctx.seconds` of testing have passed: `ops_per_s` is tests per
/// second. The pauses that re-time the setup (every [`SETUP_EVERY`]) are
/// not part of that time.
pub fn run(ctx: &RunCtx, out: &mut Outcome) -> Result<(), String> {
    let (tests, t) = setup(ctx.seed);
    let mut setups = vec![t];
    if tests.is_empty() {
        return Err("generate_tests produced no tests".to_owned());
    }

    let t0 = Instant::now();
    let mut paused = Duration::ZERO;
    let mut last_setup = t0;
    let mut done = 0u64;
    let mut steps = 0usize;
    while t0.elapsed() - paused < ctx.seconds {
        match run_checked(&tests[done as usize % tests.len()], &mut NoTrace) {
            Ok(n) => steps += n,
            Err(e) => out.fail(e),
        }
        done += 1;
        if last_setup.elapsed() >= SETUP_EVERY {
            let t = setup(ctx.seed).1;
            setups.push(t);
            paused += t;
            last_setup = Instant::now();
        }
    }
    let wall = (t0.elapsed() - paused).as_secs_f64();
    let rss = peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    out.attempted = done;

    out.metric("setup_s", median_secs(&setups), "s");
    out.metric("peak_rss_mb", rss, "MB");
    out.metric("ops_per_s", done as f64 / wall, "1/s");
    out.note("suite_tests", tests.len());
    out.note("tests_run", done);
    out.note("sequential_steps_per_s", steps as f64 / wall);
    out.note("passes", done as f64 / tests.len() as f64);
    out.note("timed_s", wall);
    out.note("setup_samples", setups.len());
    Ok(())
}

/// The traced run: one untraced and one traced pass over the suite.
pub fn run_traced(ctx: &RunCtx, out: &mut Outcome) -> Result<Tracer, String> {
    let tests = suite(ctx.seed);

    let t = Instant::now();
    for test in &tests {
        if let Err(e) = run_checked(test, &mut NoTrace) {
            out.fail(e);
        }
    }
    let untraced = t.elapsed().as_secs_f64();

    let mut tr = Tracer::new();
    let t = Instant::now();
    for (k, test) in tests.iter().enumerate() {
        tr.op(k as u64);
        tr.enter(Layer::SeqTest);
        let r = run_checked(test, &mut tr);
        tr.exit();
        if let Err(e) = r {
            out.fail(e);
        }
    }
    let traced = t.elapsed().as_secs_f64();
    out.attempted = 2 * tests.len() as u64;

    out.metric("seqref.step_s", tr.own_secs(Layer::SeqStep), "s");
    out.metric("model.seq_init_s", tr.own_secs(Layer::SeqInit), "s");
    out.metric(
        "model.run_sequential_s",
        tr.own_secs(Layer::RunSequential),
        "s",
    );
    out.metric("seq.compare_s", tr.own_secs(Layer::SeqCompare), "s");
    out.metric("trace.overhead_ratio", traced / untraced, "ratio");
    out.note("suite_tests", tests.len());
    out.note("untraced_s", untraced);
    out.note("traced_s", traced);
    out.note("seq_test_self_s", tr.own_secs(Layer::SeqTest));
    Ok(tr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_seeded() {
        let a: Vec<String> = suite(3).iter().take(20).map(|t| t.name.clone()).collect();
        let b: Vec<String> = suite(3).iter().take(20).map(|t| t.name.clone()).collect();
        let c: Vec<String> = suite(4).iter().take(20).map(|t| t.name.clone()).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn a_sample_of_tests_passes_with_every_layer_timed() {
        let tests = suite(1);
        let mut tr = Tracer::new();
        for t in tests.iter().take(64) {
            run_checked(t, &mut tr).unwrap();
        }
        for l in [
            Layer::SeqStep,
            Layer::SeqInit,
            Layer::RunSequential,
            Layer::SeqCompare,
        ] {
            assert_eq!(tr.totals(l).calls, 64, "{}", l.name());
        }
    }
}
