//! Drives a live campaign while a plain-TCP client follows the HTTP/JSONL
//! status endpoint, verifying the streamed snapshots and the terminal line.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use tqs_campaign::{
    Campaign, CampaignConfig, CampaignStatusServer, EngineKind, OracleSpec, PlanMode, Workload,
};
use tqs_core::dsg::{DsgConfig, WideSource};
use tqs_engine::ProfileId;
use tqs_schema::NoiseConfig;
use tqs_storage::widegen::ShoppingConfig;
use tqs_telemetry::Json;

fn cfg(dir: std::path::PathBuf) -> CampaignConfig {
    CampaignConfig {
        dir,
        dsg: DsgConfig {
            source: WideSource::Shopping(ShoppingConfig {
                n_rows: 90,
                ..Default::default()
            }),
            fd: Default::default(),
            noise: Some(NoiseConfig {
                epsilon: 0.04,
                seed: 3,
                max_injections: 10,
            }),
        },
        shards: 2,
        workers: 2,
        profiles: vec![ProfileId::MysqlLike],
        oracles: vec![OracleSpec::GroundTruth],
        engines: vec![EngineKind::Row],
        plan_modes: vec![PlanMode::Single],
        workloads: vec![Workload::Select],
        queries_per_cell: 60,
        seed: 99,
        minimize: false,
        max_cells_per_run: None,
        supervisor: Default::default(),
    }
}

#[test]
fn status_endpoint_streams_a_live_campaign() {
    let dir = std::env::temp_dir().join(format!("tqs-status-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut campaign = Campaign::new(cfg(dir.clone())).unwrap();
    let cells_total = campaign.cells_total();
    let board = campaign.status_board();
    let server = CampaignStatusServer::start(board, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let hunter = std::thread::spawn(move || {
        let stats = campaign.run().unwrap();
        assert!(campaign.is_complete());
        stats
    });

    // Follow the stream while the hunt runs. The server closes the
    // connection after the final (finished) snapshot line.
    let mut conn = TcpStream::connect(addr).unwrap();
    write!(
        conn,
        "GET /stream?interval_ms=20 HTTP/1.1\r\nHost: x\r\n\r\n"
    )
    .unwrap();
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if line.trim().is_empty() {
            break; // end of the HTTP header block
        }
    }
    let mut snapshots = Vec::new();
    loop {
        let mut body_line = String::new();
        if reader.read_line(&mut body_line).unwrap() == 0 {
            break; // server closed after the terminal snapshot
        }
        if body_line.trim().is_empty() {
            continue;
        }
        snapshots.push(Json::parse(body_line.trim()).expect("stream line is JSON"));
    }
    let stats = hunter.join().unwrap();

    assert!(!snapshots.is_empty(), "stream produced no snapshots");
    for snap in &snapshots {
        // A snapshot taken before the hunter thread enters `run()` is a bare
        // idle marker; every running/finished line carries the full stats.
        let state = snap.get("state").and_then(Json::as_str).expect("state");
        if state == "idle" {
            continue;
        }
        assert!(snap.get("queries").is_some());
        assert!(snap.get("cells_total").is_some());
    }
    let last = snapshots.last().unwrap();
    assert_eq!(last.get("state").unwrap().as_str(), Some("finished"));
    assert_eq!(
        last.get("cells_done").unwrap().as_usize(),
        Some(cells_total)
    );
    assert_eq!(
        last.get("queries").unwrap().as_usize(),
        Some(stats.queries),
        "terminal snapshot must be the run's final stats"
    );

    // Point queries still work after the run is over.
    let mut conn = TcpStream::connect(addr).unwrap();
    write!(conn, "GET /status HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    std::io::Read::read_to_string(&mut conn, &mut response).unwrap();
    let body = response.split("\r\n\r\n").nth(1).unwrap();
    let parsed = Json::parse(body).unwrap();
    assert_eq!(parsed.get("state").unwrap().as_str(), Some("finished"));
    assert_eq!(
        parsed.get("bug_classes").unwrap().as_usize(),
        Some(stats.bug_classes)
    );

    server.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stream_survives_a_client_disconnecting_mid_stream() {
    // Regression test: the status server handles connections serially, so a
    // client that opens `/stream` and vanishes must not wedge the serving
    // thread — later clients still get answers.
    use std::sync::Arc;
    use tqs_campaign::stats::RunTotals;
    use tqs_campaign::{LiveStats, StatusBoard};

    let board = Arc::new(StatusBoard::new());
    // A board mid-run: the stream has no terminal line and ticks forever.
    let live = Arc::new(LiveStats::start_with_prior(RunTotals::default()));
    board.begin_run(Arc::clone(&live), 10, 0, 0, 0);
    let server = CampaignStatusServer::start(Arc::clone(&board), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Client 1: start a stream, read one line, hang up without warning.
    {
        let mut conn = TcpStream::connect(addr).unwrap();
        write!(
            conn,
            "GET /stream?interval_ms=10 HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        .unwrap();
        let mut reader = BufReader::new(conn);
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line.starts_with('{') {
                break; // got one snapshot; the stream is live
            }
        }
        // Dropping the socket here is the disconnect.
    }

    // Client 2 must still be served promptly on the same serving thread.
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    write!(conn, "GET /status HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    std::io::Read::read_to_string(&mut conn, &mut response).unwrap();
    let body = response.split("\r\n\r\n").nth(1).unwrap();
    let parsed = Json::parse(body).unwrap();
    assert_eq!(parsed.get("state").unwrap().as_str(), Some("running"));

    // Graceful-stop states surface in the status JSON.
    board.request_stop();
    let mut conn = TcpStream::connect(addr).unwrap();
    write!(conn, "GET /status HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    std::io::Read::read_to_string(&mut conn, &mut response).unwrap();
    let body = response.split("\r\n\r\n").nth(1).unwrap();
    assert_eq!(
        Json::parse(body).unwrap().get("state").unwrap().as_str(),
        Some("stopping")
    );
    board.finish(live.snapshot(10, 5, 0, 0));
    let mut conn = TcpStream::connect(addr).unwrap();
    write!(conn, "GET /status HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    std::io::Read::read_to_string(&mut conn, &mut response).unwrap();
    let body = response.split("\r\n\r\n").nth(1).unwrap();
    assert_eq!(
        Json::parse(body).unwrap().get("state").unwrap().as_str(),
        Some("stopped")
    );

    server.stop();
}
