//! Loopback-TCP pinning of the oracle service transport
//! (`crates/service/src/{server,client,proto}.rs`) against the
//! in-process harness.
//!
//! Differential: a query answered by an in-process `oracled` serve
//! loop over loopback TCP must carry the same record as `run_job` run
//! in-process with the same configuration — every field of the JSONL
//! line except `wall_ms` — on a library ladder, with the server's
//! engine set to spill frontier states to disk, reduce with sleep sets
//! or bound context switches, and on random programs from the shared
//! fuzz generator.
//!
//! Liveness: the 200 ms read deadline on a server connection is a poll
//! period, not a peer timeout. A frame that arrives in pieces, with
//! pauses longer than the deadline, is absorbed and answered; a client
//! that connects and then stalls holds up neither other clients nor
//! `shutdown`.

mod common;

use common::gen_program;
use ppcmem::litmus::harness::{run_job, HarnessConfig, Job};
use ppcmem::litmus::{library, Expectation, TestReport};
use ppcmem::model::ModelParams;
use ppcmem::service::proto::{
    encode_query, read_frame, write_frame, QueryRequest, REQ_QUERY, RESP_RESULT,
};
use ppcmem::service::{serve, Budget, Client, Oracle, Response, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Start an uncached in-process server whose engine runs with `params`.
fn start_server(params: &ModelParams) -> (ServerHandle, HarnessConfig) {
    let cfg = HarnessConfig {
        params: params.clone(),
        ..HarnessConfig::default()
    };
    let handle =
        serve(&ServerConfig::default(), Arc::new(Oracle::new(cfg.clone()))).expect("bind server");
    (handle, cfg)
}

fn addr(handle: &ServerHandle) -> String {
    format!("127.0.0.1:{}", handle.port())
}

fn library_source(name: &str) -> &'static str {
    library()
        .into_iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("{name} in library"))
        .source
}

/// The in-process record for `source` under `cfg`.
fn local_report(source: &str, cfg: &HarnessConfig) -> TestReport {
    let job = Job::from_source(source, Expectation::Allowed, "tcp-test").expect("source parses");
    run_job(&job, cfg)
}

/// Submit `source` over `client` and return the record line.
fn remote_line(client: &mut Client, source: &str) -> String {
    match client
        .query(source, Expectation::Allowed, "tcp-test", Budget::default())
        .expect("query round trip")
    {
        Response::Result { line, .. } => line,
        Response::Error(e) => panic!("server rejected query: {e}"),
    }
}

/// The served line must be the local record, field for field, apart
/// from the wall-clock time.
fn assert_same_record(what: &str, local: &TestReport, line: &str) {
    let mut remote = TestReport::from_json_line(line)
        .unwrap_or_else(|e| panic!("{what}: served line does not parse ({e}): {line}"));
    remote.wall = local.wall;
    assert_eq!(&remote, local, "{what}: served record diverged");
}

/// A ladder subset over loopback TCP against the sequential in-process
/// engine: the same verdict, state, transition and final counts.
#[test]
fn tcp_matches_sequential_on_ladder() {
    let (handle, cfg) = start_server(&ModelParams::default());
    assert_eq!(cfg.params.threads, 1, "the reference must be sequential");
    let mut client = Client::connect(&addr(&handle)).expect("connect");
    for name in ["CoRR", "MP", "SB", "2+2W", "WRC+pos"] {
        let source = library_source(name);
        let local = local_report(source, &cfg);
        assert!(!local.truncated, "{name}: reference truncated");
        assert_same_record(name, &local, &remote_line(&mut client, source));
    }
}

/// Composition: a server that spills frontier states to disk, one that
/// reduces with sleep sets, and one under a context bound that must
/// surface as `bounded` — each answers as the same engine in-process.
#[test]
fn tcp_composes_with_engine_features() {
    let spill = ModelParams {
        max_resident_states: 16,
        ..ModelParams::default()
    };
    let reduced = ModelParams {
        sleep_sets: true,
        ..ModelParams::default()
    };
    let bounded = ModelParams {
        max_context_switches: 1,
        ..ModelParams::default()
    };
    for (mode, name, params) in [
        ("spill", "2+2W", spill),
        ("reduced", "MP+syncs", reduced),
        ("bounded", "MP", bounded),
    ] {
        let (handle, cfg) = start_server(&params);
        let mut client = Client::connect(&addr(&handle)).expect("connect");
        let source = library_source(name);
        let local = local_report(source, &cfg);
        assert!(!local.truncated, "{name} [{mode}]: reference truncated");
        let line = remote_line(&mut client, source);
        assert_same_record(&format!("{name} [{mode}]"), &local, &line);
        match mode {
            "spill" => assert!(local.spilled > 0, "2+2W at 16 resident must spill"),
            "bounded" => assert!(
                local.bounded,
                "a 1-switch bound on MP must suppress successors"
            ),
            _ => {}
        }
    }
}

/// Random programs from a seed range disjoint from the other fuzz
/// suites: in-process sequential vs served over loopback TCP, record
/// for record. Programs the state budget truncates are skipped.
#[test]
fn tcp_fuzz_matches_sequential() {
    const PROGRAMS: u64 = 4;
    const SEED0: u64 = 0x7C9_0D15_7AB1_E001;
    let params = ModelParams {
        max_states: 60_000,
        ..ModelParams::default()
    };
    let (handle, cfg) = start_server(&params);
    let mut client = Client::connect(&addr(&handle)).expect("connect");
    let mut checked = 0usize;
    let mut skipped = 0usize;
    for i in 0..PROGRAMS {
        let seed = SEED0.wrapping_add(i);
        let prog = gen_program(seed);
        let local = local_report(&prog.source, &cfg);
        if local.truncated {
            skipped += 1;
            continue;
        }
        let line = remote_line(&mut client, &prog.source);
        assert_same_record(
            &format!("seed {seed:#018x}\n{}", prog.source),
            &local,
            &line,
        );
        checked += 1;
    }
    assert!(
        checked > skipped,
        "fuzz coverage collapsed: {checked} checked vs {skipped} skipped"
    );
}

/// A query frame written in three pieces — split inside the length
/// header and inside the body — with 500 ms pauses, each longer than
/// the server's 200 ms read deadline. Pure latency: the server must
/// ride out the deadlines and answer with the right record.
#[test]
fn fault_delayed_frame_is_absorbed() {
    let (handle, cfg) = start_server(&ModelParams::default());
    let source = library_source("MP");
    let local = local_report(source, &cfg);

    let body = encode_query(&QueryRequest {
        source: source.to_owned(),
        expect: Expectation::Allowed,
        pinned_by: "tcp-test".to_owned(),
        budget: Budget::default(),
    });
    let mut frame = Vec::new();
    write_frame(&mut frame, 0, REQ_QUERY, &body).expect("frame encodes");
    let cuts = [2, 4 + 9 + body.len() / 2];

    let mut conn = TcpStream::connect(addr(&handle)).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set timeout");
    conn.write_all(&frame[..cuts[0]]).expect("write");
    std::thread::sleep(Duration::from_millis(500));
    conn.write_all(&frame[cuts[0]..cuts[1]]).expect("write");
    std::thread::sleep(Duration::from_millis(500));
    conn.write_all(&frame[cuts[1]..]).expect("write");

    let resp = read_frame(&mut conn)
        .expect("response arrives")
        .expect("server answers before closing");
    assert_eq!(resp.seq, 0);
    assert_eq!(resp.tag, RESP_RESULT, "delayed frame must be answered");
    let (&cached, line) = resp.body.split_first().expect("non-empty result");
    assert_eq!(cached, 0, "uncached server explores");
    assert_same_record(
        "MP [delayed]",
        &local,
        std::str::from_utf8(line).expect("UTF-8"),
    );
}

/// A client that connects and then goes silent — no request, no close
/// (a hung process or one-way partition; EOF never fires). Other
/// clients are served meanwhile, and `shutdown` finishes promptly: the
/// read deadline lets the silent connection's handler see the flag and
/// close its socket, so the stalled peer sees EOF.
#[test]
fn fault_stalled_heartbeat_detected_no_hang() {
    let (mut handle, cfg) = start_server(&ModelParams::default());
    let mut stalled = TcpStream::connect(addr(&handle)).expect("connect");

    let mut client = Client::connect(&addr(&handle)).expect("connect");
    for name in ["CoRR", "MP"] {
        let source = library_source(name);
        let local = local_report(source, &cfg);
        assert_same_record(name, &local, &remote_line(&mut client, source));
    }
    std::thread::sleep(Duration::from_millis(500));
    drop(client);

    // Shut down on a helper thread so a server that waits on the
    // silent peer fails this test instead of hanging it.
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        handle.shutdown();
        let _ = done_tx.send(());
    });
    assert!(
        done_rx.recv_timeout(Duration::from_secs(5)).is_ok(),
        "shutdown with a stalled peer did not finish within 5 s"
    );

    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    let mut buf = [0u8; 1];
    assert_eq!(
        stalled.read(&mut buf).expect("stalled peer reads EOF"),
        0,
        "the server must close the stalled connection on shutdown"
    );
}
