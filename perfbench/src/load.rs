//! The server under test and the closed-loop load it receives.
//!
//! The server is an in-process `Server` on a loopback ephemeral port.
//! Load is a closed loop from this process: `jobs()` client threads,
//! each with one keep-alive connection, send their next request only
//! after the previous response arrived. A round is one generated list
//! of requests; threads claim requests off a shared cursor and rounds
//! run back to back with a barrier between them.

use crate::client::{post_query, Conn, Response};
use crate::util::{jobs, ms};
use cachekit_serve::{ServeConfig, Server, ServerHandle};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Reactor and worker counts fit within the client machine's cores.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers_per_shard: jobs(),
        queue_shards: 1,
        queue_depth: 64,
        reactors: jobs(),
        deadline: Some(Duration::from_secs(60)),
        ..ServeConfig::default()
    }
}

pub fn describe_config(config: &ServeConfig, clients: usize) -> String {
    format!(
        "server: reactors={} queue_shards={} workers_per_shard={} queue_depth={} \
         cache_capacity={} deadline_s={} | clients: threads={} connections={} (closed loop)",
        config.reactors,
        config.queue_shards,
        config.workers_per_shard,
        config.queue_depth,
        config.cache_capacity,
        config.deadline.map_or(0, |d| d.as_secs()),
        clients,
        clients,
    )
}

pub fn start_server() -> ServerHandle {
    start_server_with(serve_config())
}

pub fn start_server_with(config: ServeConfig) -> ServerHandle {
    Server::start(config).expect("bind a loopback ephemeral port")
}

/// One request/response exchange as the client saw it.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Index of the request within its round.
    pub index: usize,
    /// Send to last response byte.
    pub latency_ms: f64,
    pub response: Result<Response, String>,
}

impl Exchange {
    pub fn ok(&self) -> Option<&Response> {
        self.response.as_ref().ok().filter(|r| r.status == 200)
    }
}

/// Send every request of every round over `clients` closed-loop
/// connections. Returns the exchanges of each round in request order
/// and the wall time of the whole region.
pub fn closed_loop(
    addr: SocketAddr,
    clients: usize,
    rounds: &[Vec<String>],
) -> (Vec<Vec<Exchange>>, f64) {
    let mut conns: Vec<Option<Conn>> = (0..clients).map(|_| Conn::open(addr).ok()).collect();
    let started = Instant::now();
    let mut out = Vec::with_capacity(rounds.len());
    for round in rounds {
        let wires: Vec<Vec<u8>> = round.iter().map(|b| post_query(b)).collect();
        let next = AtomicUsize::new(0);
        let mut exchanges: Vec<Exchange> = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .map(|conn| {
                    let (next, wires) = (&next, &wires);
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            let Some(wire) = wires.get(index) else { break };
                            let sent = Instant::now();
                            let response = exchange(conn, addr, wire);
                            mine.push(Exchange {
                                index,
                                latency_ms: ms(sent.elapsed()),
                                response,
                            });
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        exchanges.sort_by_key(|e| e.index);
        out.push(exchanges);
    }
    (out, started.elapsed().as_secs_f64())
}

/// One request on `conn`, reconnecting first if an earlier exchange
/// broke the connection. Errors (including timeouts) come back as text.
fn exchange(conn: &mut Option<Conn>, addr: SocketAddr, wire: &[u8]) -> Result<Response, String> {
    if conn.is_none() {
        *conn = Some(Conn::open(addr).map_err(|e| format!("connect: {e}"))?);
    }
    let c = conn.as_mut().expect("connected above");
    let result = c.send(wire).and_then(|()| c.read());
    if result.is_err() {
        *conn = None;
    }
    result.map_err(|e| e.to_string())
}

/// Run `setup` `n` times and return the last result with every set-up
/// time in seconds; `teardown` (untimed) releases each earlier result.
/// The first set-up is timed from `process_start`, so it includes
/// process start-up.
pub fn repeated_setup<T>(
    process_start: Instant,
    n: usize,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(n);
    let mut last: Option<T> = None;
    for i in 0..n {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let began = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let value = setup();
        times.push(began.elapsed().as_secs_f64());
        last = Some(value);
    }
    (last.expect("at least one set-up"), times)
}

/// How many set-ups each run times; `setup_s` is their median.
pub const SETUPS: usize = 3;
