//! Live campaign status: a shared progress board and a tiny HTTP endpoint.
//!
//! [`StatusBoard`] is the bridge between a running [`Campaign`] and anything
//! that wants to watch it: `Campaign::run` publishes its live counters at
//! the start of each run and the final [`CampaignStats`] at the end, and the
//! board mints consistent snapshots on demand without touching the
//! campaign's locks.
//!
//! [`CampaignStatusServer`] serves the board over plain HTTP/1.1 on
//! `std::net` — no framework, `curl`-able while a hunt is running:
//!
//! - `GET /status` — one [`CampaignStats`] snapshot as JSON.
//! - `GET /metrics` — the process-wide telemetry metrics snapshot.
//! - `GET /stream?interval_ms=N` — JSONL: one snapshot line every `N` ms
//!   (default 200) until the run finishes, whose final stats are the last
//!   line. Pipe through `jq` for a live dashboard.
//!
//! [`Campaign`]: crate::campaign::Campaign

use crate::stats::{CampaignStats, LiveStats};
use crate::Unpoisoned;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::Duration;
use tqs_telemetry::Json;

/// What the board knows between `begin_run` and `finish`.
#[derive(Default)]
struct BoardInner {
    /// The running campaign's live counters (None outside a run).
    live: Option<Arc<LiveStats>>,
    cells_total: usize,
    /// Cells already done when the run started (resumed state).
    cells_done_base: usize,
    /// Bug classes already known when the run started (resumed state).
    classes_base: usize,
    torn_tails_repaired: usize,
    /// The last finished run's final stats.
    last: Option<CampaignStats>,
    finished: bool,
    /// A graceful stop has been requested (the fleet is draining).
    stopping: bool,
    /// The run ended after a stop request (vs running to completion).
    stopped: bool,
}

/// Shared progress board: the campaign publishes, status readers snapshot.
/// Cheap to clone around via `Arc` (see `Campaign::status_board`).
#[derive(Default)]
pub struct StatusBoard {
    inner: Mutex<BoardInner>,
}

impl StatusBoard {
    pub fn new() -> StatusBoard {
        StatusBoard::default()
    }

    /// Called by `Campaign::run` as the fleet starts: hand over the run's
    /// live counters plus the resumed state the counters don't include.
    pub fn begin_run(
        &self,
        live: Arc<LiveStats>,
        cells_total: usize,
        cells_done: usize,
        bug_classes: usize,
        torn_tails_repaired: usize,
    ) {
        let mut inner = self.inner.lock_unpoisoned();
        *inner = BoardInner {
            live: Some(live),
            cells_total,
            cells_done_base: cells_done,
            classes_base: bug_classes,
            torn_tails_repaired,
            last: None,
            finished: false,
            stopping: false,
            stopped: false,
        };
    }

    /// Called by `Campaign::run` with the run's final stats.
    pub fn finish(&self, stats: CampaignStats) {
        let mut inner = self.inner.lock_unpoisoned();
        inner.live = None;
        inner.last = Some(stats);
        inner.finished = true;
        inner.stopped = inner.stopping;
    }

    /// A graceful stop was requested: workers finish their current cell and
    /// drain. Surfaced as `"stopping"` (then `"stopped"`) in the status JSON.
    pub fn request_stop(&self) {
        self.inner.lock_unpoisoned().stopping = true;
    }

    /// Called when the run dies on an I/O error: streams end rather than
    /// hang waiting for a final snapshot that will never come.
    pub(crate) fn abort(&self) {
        let mut inner = self.inner.lock_unpoisoned();
        inner.live = None;
        inner.finished = true;
    }

    /// The run has ended (normally or not); streams drain and close.
    pub(crate) fn is_finished(&self) -> bool {
        self.inner.lock_unpoisoned().finished
    }

    /// A consistent-enough snapshot of the run in flight: live counters
    /// plus the resumed bases. `None` before the first `begin_run`.
    pub fn snapshot(&self) -> Option<CampaignStats> {
        let inner = self.inner.lock_unpoisoned();
        match &inner.live {
            Some(live) => Some(live.snapshot(
                inner.cells_total,
                inner.cells_done_base + live.cells_drained(),
                inner.classes_base + live.new_classes_found(),
                inner.torn_tails_repaired,
            )),
            None => inner.last.clone(),
        }
    }
}

/// The streamed/queried JSON for one snapshot, with run-state attached so
/// stream consumers know when the line they hold is the final one.
fn status_json(board: &StatusBoard) -> Json {
    match board.snapshot() {
        Some(stats) => {
            let (finished, stopping, stopped) = {
                let inner = board.inner.lock_unpoisoned();
                (inner.finished, inner.stopping, inner.stopped)
            };
            let state = match (finished, stopping, stopped) {
                (true, _, true) => "stopped",
                (true, _, false) => "finished",
                (false, true, _) => "stopping",
                (false, false, _) => "running",
            };
            let mut members = vec![("state".to_string(), Json::str(state))];
            if let Json::Obj(stat_members) = stats.to_json() {
                members.extend(stat_members);
            }
            Json::Obj(members)
        }
        None => Json::Obj(vec![("state".to_string(), Json::str("idle"))]),
    }
}

/// A live status endpoint on a plain `TcpListener`. One serving thread,
/// connections handled serially — it is an operator peephole, not a web
/// server. Stops (and joins) on [`stop`](Self::stop) or drop.
pub struct CampaignStatusServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl CampaignStatusServer {
    /// Bind `addr` (use `127.0.0.1:0` to let the OS pick a port) and serve
    /// `board` until stopped.
    pub fn start(board: Arc<StatusBoard>, addr: &str) -> io::Result<CampaignStatusServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("tqs-status".to_string())
            .spawn(move || serve(listener, board, thread_stop))?;
        Ok(CampaignStatusServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address — the port to `curl` when started with port 0.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal the serving thread and wait for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for CampaignStatusServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve(listener: TcpListener, board: Arc<StatusBoard>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // A broken client connection is the client's problem.
                let _ = handle_client(stream, &board, &stop);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
}

fn handle_client(stream: TcpStream, board: &StatusBoard, stop: &AtomicBool) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    // A stalled or vanished client must not wedge the (serial) serving
    // thread: bound every write too.
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain the header block; nothing in it matters to us.
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line.trim().is_empty() {
            break;
        }
    }
    let mut stream = reader.into_inner();
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (route, query) = path.split_once('?').unwrap_or((path, ""));
    match route {
        "/status" => respond(&mut stream, "200 OK", &status_json(board).to_string()),
        "/metrics" => respond(
            &mut stream,
            "200 OK",
            &tqs_telemetry::snapshot_metrics().to_json().to_string(),
        ),
        "/stream" => {
            let interval = query
                .split('&')
                .find_map(|kv| kv.strip_prefix("interval_ms="))
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(200)
                .max(1);
            stream.write_all(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
                  Connection: close\r\n\r\n",
            )?;
            loop {
                let mut line = status_json(board).to_string();
                line.push('\n');
                // A client that disconnected mid-stream is a normal way for
                // a stream to end, not a serving error: swallow it so the
                // next connection is accepted immediately.
                if stream.write_all(line.as_bytes()).is_err() || stream.flush().is_err() {
                    tqs_telemetry::counter!("campaign.status.stream_disconnects").incr();
                    return Ok(());
                }
                if board.is_finished() || stop.load(Ordering::Relaxed) {
                    return Ok(());
                }
                // Sleep in small slices so server stop isn't held hostage by
                // a long client-chosen interval.
                let mut remaining = interval;
                while remaining > 0 && !stop.load(Ordering::Relaxed) {
                    let slice = remaining.min(20);
                    std::thread::sleep(Duration::from_millis(slice));
                    remaining -= slice;
                }
            }
        }
        _ => respond(&mut stream, "404 Not Found", "{\"error\": \"not found\"}"),
    }
}

fn respond(stream: &mut TcpStream, status: &str, body: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RunTotals;
    use std::io::Read;

    #[test]
    fn board_blends_live_counters_with_resumed_bases() {
        let board = StatusBoard::new();
        assert!(board.snapshot().is_none());
        let live = Arc::new(LiveStats::start_with_prior(RunTotals::default()));
        board.begin_run(Arc::clone(&live), 10, 4, 2, 1);
        live.add_queries(7);
        live.add_new_class();
        live.cell_drained();
        let s = board.snapshot().unwrap();
        assert_eq!(s.queries, 7);
        assert_eq!(s.cells_done, 5, "resumed base + drained this run");
        assert_eq!(s.bug_classes, 3, "resumed base + new this run");
        assert_eq!(s.torn_tails_repaired, 1);
        assert!(!board.is_finished());
        board.finish(s.clone());
        assert!(board.is_finished());
        assert_eq!(board.snapshot().unwrap().queries, 7);
    }

    #[test]
    fn endpoint_serves_status_metrics_and_404() {
        let board = Arc::new(StatusBoard::new());
        let server = CampaignStatusServer::start(Arc::clone(&board), "127.0.0.1:0").unwrap();
        let get = |path: &str| -> String {
            let mut conn = TcpStream::connect(server.local_addr()).unwrap();
            write!(conn, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut response = String::new();
            conn.read_to_string(&mut response).unwrap();
            response
        };
        let idle = get("/status");
        assert!(idle.starts_with("HTTP/1.1 200 OK"));
        let body = idle.split("\r\n\r\n").nth(1).unwrap();
        assert_eq!(
            Json::parse(body).unwrap().get("state").unwrap().as_str(),
            Some("idle")
        );
        let metrics = get("/metrics");
        let body = metrics.split("\r\n\r\n").nth(1).unwrap();
        assert!(Json::parse(body).unwrap().get("counters").is_some());
        assert!(get("/nonsense").starts_with("HTTP/1.1 404"));
        server.stop();
    }
}
