//! The benchmark's own tests that need a live server: the `/metrics`
//! name check, and every workload end to end at a tiny size.

use std::path::PathBuf;
use std::sync::Mutex;

use classic_perfbench::gen::{self, Software};
use classic_perfbench::run::{self, Params, Workload};
use classic_perfbench::scrape::{Kind, Scrape, SERIES};
use classic_perfbench::wire::{self, LineClient};
use classic_server::ServerConfig;

/// `/metrics` rolls up every registry in the process, so tests that
/// scrape it must not run beside each other.
static SERIAL: Mutex<()> = Mutex::new(());

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every series the benchmark reads is in the exposition once each code
/// path has run, and a series the program does not expose is reported.
#[test]
fn every_series_the_benchmark_reads_is_exposed() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch("names");
    let handle = classic_server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: dir.clone(),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = handle.local_addr();
    let sw = Software::new(100);
    let mut c = LineClient::new(addr, "names");
    for form in sw.ddl().iter().chain(&sw.preload(1)) {
        c.call(form).expect("set-up form");
    }
    c.call("(create-ind x)").expect("write");
    c.call("(assert-ind x (AND FUNCTION (FILLS calls fn-1)))")
        .expect("write");
    c.call(&format!("(retrieve {})", gen::BUSY)).expect("read");
    // A row that clashes makes its chunk fall back to row-by-row replay.
    let clash = c
        .call("(bulk-load (into LEAF-FUNCTION) (roles calls) (row y fn-1))")
        .expect("bulk-load with a rejected row");
    assert!(clash.contains("\"rejected\":1"), "{clash}");
    let csv = gen::pets_csv(1, gen::load_stream(0), 50);
    let (status, body, _) = wire::http(
        addr,
        "POST",
        "/ingest?tenant=pets&entity=PET&id=id&infer=1",
        csv.as_bytes(),
    )
    .expect("ingest");
    assert_eq!(status, 200, "{body}");

    let text = wire::get(addr, "/metrics").expect("/metrics");
    let scrape = Scrape::parse(&text);
    assert_eq!(scrape.missing(SERIES), Vec::<String>::new());
    let renamed = [
        ("classic_retrieve_tests_total", Kind::Counter),
        ("classic_assert_nanos", Kind::Histogram),
    ];
    assert_eq!(
        scrape.missing(&renamed),
        vec![
            "classic_retrieve_tests_total",
            "classic_assert_nanos_sum",
            "classic_assert_nanos_count"
        ]
    );
    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An `ok:false` reply is an error value and the session carries on.
#[test]
fn a_rejected_form_is_an_error_and_the_session_continues() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch("refused");
    let handle = classic_server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: dir.clone(),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut c = LineClient::new(handle.local_addr(), "refused");
    match c.call("(assert-ind x (AT-LEAST 1 no-such-role))") {
        Err(wire::WireError::Refused(reply)) => assert!(reply.contains("\"ok\":false"), "{reply}"),
        other => panic!("expected a refusal, got {other:?}"),
    }
    assert!(c.call("(ping)").is_ok());
    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The metric names `BENCHMARK.json` declares, in order.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = classic_obs::Json::parse(&text).expect("BENCHMARK.json parses");
    json.get(section)
        .and_then(|s| s.as_arr())
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(|n| n.as_str())
                .expect("name")
                .to_owned()
        })
        .collect()
}

/// Each workload runs at a tiny size, passes its checks, and reports
/// exactly the metrics `BENCHMARK.json` declares for its trace mode.
#[test]
fn every_workload_runs_checks_and_reports_the_declared_metrics() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let e2e = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in Workload::ALL {
        for trace in [false, true] {
            let work = scratch(&format!("{}-{trace}", workload.name()));
            let p = Params {
                workload,
                seed: 3,
                seconds: 0.4,
                trace,
                scale: 0.03,
                work: work.clone(),
                out: work.join("out"),
            };
            let report = run::run(&p).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert!(
                report.correct(),
                "{}: {:?}",
                workload.name(),
                report.check_errors
            );
            assert_eq!(report.failed, 0, "{}", report.text);
            let names: Vec<String> = report.metrics.iter().map(|m| m.name.to_owned()).collect();
            assert_eq!(
                &names,
                if trace { &per_layer } else { &e2e },
                "{}",
                workload.name()
            );
            if trace {
                let chrome = std::fs::read_to_string(
                    work.join("out")
                        .join(format!("trace-{}-3.json", workload.name())),
                )
                .expect("chrome trace written");
                classic_obs::Json::parse(&chrome).expect("chrome trace is JSON");
            } else {
                assert!(
                    report.metrics.iter().all(|m| m.value > 0.0),
                    "{}: {:?}",
                    workload.name(),
                    report.metrics
                );
            }
            let _ = std::fs::remove_dir_all(&work);
        }
    }
}
