//! The serving workloads: one `AHP1` connection to an in-process
//! `WireServer`, driven as a closed loop (a fixed window of outstanding
//! requests), and every verdict checked against an in-process
//! recomputation.

use std::io::BufReader;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use advhunter::{ArtifactStore, ExecOptions, FingerprintConfig, Parallelism, PipelineConfig};
use advhunter_fingerprint::FingerprintStore;
use advhunter_monitor::{FusionPolicy, MonitorBuilder, OverloadPolicy, StatsSnapshot, WireServer};
use advhunter_runtime::{derive_seed, parallel_map};
use advhunter_wire::{read_frame, write_frame, Frame, MonitorRequest, WireVerdict};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::prep::{Query, Reference};

/// Replies the client waits for before declaring the rest missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Verdicts recomputed in-process per run (a seeded sample; the
/// fingerprint replay always covers every admitted request).
pub const RECOMPUTE_SAMPLE: usize = 384;

/// Requests a monitor worker measures per batch.
const MICRO_BATCH: usize = 8;
/// Admission queue size; a closed loop never has more than its window
/// outstanding, so this only has to exceed the largest window.
const QUEUE_CAPACITY: usize = 64;

/// Tenant ids of each further pass over a query pool are shifted by this
/// much, so a cycled image is new to its (fresh) tenant and the query
/// fingerprint sees every pass as the first.
const TENANT_CYCLE: u64 = 1 << 32;

/// Request `i` of the cycled stream and the tenant it is sent under.
pub fn query(queries: &[Query], i: usize) -> (&Query, u64) {
    let q = &queries[i % queries.len()];
    (q, q.tenant + (i / queries.len()) as u64 * TENANT_CYCLE)
}

/// The query-fingerprint defense every serving boot runs: the
/// configuration the repository's NES experiment records (EXPERIMENTS.md,
/// "Query-fingerprint defense vs NES").
pub fn defense() -> FingerprintConfig {
    FingerprintConfig {
        quant_step: 0.1,
        probe_window: 8,
        stride: 2,
        window: 2048,
        match_threshold: 0.25,
        ..FingerprintConfig::default()
    }
}

/// The fixed serving configuration every boot uses.
fn monitor_builder(exec_seed: u64) -> MonitorBuilder {
    MonitorBuilder::new(ExecOptions::new(exec_seed, Parallelism::available_cores()))
        .queue_capacity(QUEUE_CAPACITY)
        .micro_batch(MICRO_BATCH)
        .overload(OverloadPolicy::Shed)
        .fingerprint(defense())
        .fusion(FusionPolicy::Or)
}

/// A booted server plus the client connection to it.
pub struct Booted {
    pub server: WireServer,
    pub stream: TcpStream,
}

/// Boots the serving stack from `store`: warm pipeline load, engine build
/// (kernel packing), monitor spawn, TCP bind, client connect.
pub fn boot(
    exec_seed: u64,
    config: &PipelineConfig,
    store: &ArtifactStore,
) -> Result<Booted, String> {
    let monitor = monitor_builder(exec_seed)
        .spawn_from_store(config.clone(), store.clone())
        .map_err(|e| e.to_string())?;
    let server = WireServer::bind(monitor, "127.0.0.1:0").map_err(|e| e.to_string())?;
    let stream = TcpStream::connect(server.local_addr()).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(Booted { server, stream })
}

impl Booted {
    /// Disconnects and drains the server, returning its final counters.
    pub fn stop(self) -> StatsSnapshot {
        drop(self.stream);
        self.server.stop()
    }
}

/// What came back for one request.
#[derive(Debug, Clone)]
pub enum Reply {
    Verdict(Box<WireVerdict>),
    Rejected(String),
    Missing,
}

/// The raw record of one connection's traffic, indexed by correlation id
/// (which is also the request's position in the workload stream).
#[derive(Default)]
pub struct Traffic {
    /// When each request was due to be sent: when its window slot freed.
    pub due: Vec<Instant>,
    /// When each request was actually written.
    pub sent: Vec<Instant>,
    /// When its reply frame arrived.
    pub replied: Vec<Option<Instant>>,
    pub replies: Vec<Reply>,
    /// Whether the request belongs to a timed segment (not the warm-up).
    pub timed: Vec<bool>,
    /// Summed wall time of the timed segments, first due to last reply.
    pub timed_secs: f64,
}

impl Traffic {
    fn push(&mut self, due: Instant, timed: bool) {
        self.due.push(due);
        self.timed.push(timed);
        self.replied.push(None);
        self.replies.push(Reply::Missing);
    }

    /// Records a reply; `false` for an unknown or repeated id.
    fn record(&mut self, frame: Frame, at: Instant) -> bool {
        let Some((id, reply)) = reply_of(frame) else {
            return false;
        };
        let i = usize::try_from(id).unwrap_or(usize::MAX);
        if i >= self.replied.len() || self.replied[i].is_some() {
            return false;
        }
        self.replied[i] = Some(at);
        self.replies[i] = reply;
        true
    }

    fn close_segment(&mut self, from: usize, timed: bool) {
        if timed && from < self.due.len() {
            let last = self.replied[from..].iter().flatten().max().copied();
            if let Some(last) = last {
                self.timed_secs += (last - self.due[from]).as_secs_f64();
            }
        }
    }
}

fn request_frame(queries: &[Query], id: usize) -> Frame {
    let (q, tenant) = query(queries, id);
    Frame::Request(
        MonitorRequest::new(q.image.clone())
            .tenant(tenant)
            .request_id(id as u64),
    )
}

fn reply_of(frame: Frame) -> Option<(u64, Reply)> {
    match frame {
        Frame::Verdict(v) => Some((v.correlation_id?, Reply::Verdict(Box::new(v)))),
        Frame::Reject(r) => Some((r.correlation_id?, Reply::Rejected(r.message))),
        _ => None,
    }
}

/// Closed loop for `seconds`, and on until the connection has sent
/// `until` requests: keeps `window` requests outstanding, cycling through
/// `queries`; each request is due when the reply that freed its slot
/// arrived.
pub fn closed_segment(
    stream: &TcpStream,
    queries: &[Query],
    window: usize,
    (seconds, until): (f64, usize),
    timed: bool,
    traffic: &mut Traffic,
) -> Result<(), String> {
    let from = traffic.due.len();
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let start = Instant::now();
    let stop_at = start + Duration::from_secs_f64(seconds);
    let mut send = |due_at: Instant, traffic: &mut Traffic| {
        let i = traffic.due.len();
        traffic.push(due_at, timed);
        write_frame(&mut writer, &request_frame(queries, i)).map_err(|e| e.to_string())?;
        traffic.sent.push(Instant::now());
        Ok::<(), String>(())
    };
    for _ in 0..window {
        send(start, traffic)?;
    }
    let mut outstanding = window;
    while outstanding > 0 {
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(_) => break,
        };
        let at = Instant::now();
        if !traffic.record(frame, at) {
            continue;
        }
        outstanding -= 1;
        if at < stop_at || traffic.due.len() < until {
            send(at, traffic)?;
            outstanding += 1;
        }
    }
    traffic.close_segment(from, timed);
    Ok(())
}

/// Per-request verdict check: the in-order fingerprint replay covers every
/// admitted request, the measurement + scoring recomputation a seeded
/// sample. Returns, per correlation id, whether the request succeeded with
/// a correct verdict, plus a description of each mismatch.
pub fn check_verdicts(
    traffic: &Traffic,
    queries: &[Query],
    art: &Reference,
    exec_seed: u64,
    sample_seed: u64,
) -> (Vec<bool>, Vec<String>) {
    let n = traffic.replies.len();
    let mut ok = vec![false; n];
    let mut problems = Vec::new();
    let fusion = FusionPolicy::Or;
    // Admission order is the server's request id.
    let mut admitted: Vec<(u64, usize, &WireVerdict)> = traffic
        .replies
        .iter()
        .enumerate()
        .filter_map(|(i, r)| match r {
            Reply::Verdict(v) => Some((v.request_id, i, v.as_ref())),
            _ => None,
        })
        .collect();
    admitted.sort_by_key(|a| a.0);
    let mut fp = FingerprintStore::new(defense());
    for &(_, i, v) in &admitted {
        let (q, tenant) = query(queries, i);
        let report = fp.observe_query(tenant, q.image.data());
        let good = v.fingerprint == Some(report)
            && v.query_correlated == report.matched
            && v.tenant == tenant
            && v.config_epoch == 0
            && v.hpc_anomalous == v.verdict.flagged_any()
            && v.flagged == fusion.fuse(v.hpc_anomalous, v.query_correlated);
        ok[i] = good;
        if !good {
            problems.push(format!("request {i}: fingerprint or fusion mismatch"));
        }
    }
    let mut sample: Vec<(u64, usize)> = admitted.iter().map(|a| (a.0, a.1)).collect();
    sample.shuffle(&mut StdRng::seed_from_u64(derive_seed(sample_seed, 0x5A3)));
    sample.truncate(RECOMPUTE_SAMPLE);
    let expected = parallel_map(&Parallelism::available_cores(), &sample, |_, &(rid, i)| {
        let q = query(queries, i).0;
        let m = art
            .engine
            .measure_indexed(&art.model, &q.image, exec_seed, rid);
        art.detector.evaluate(m.predicted, &m.sample)
    });
    for (&(_, i), want) in sample.iter().zip(expected) {
        if let Reply::Verdict(v) = &traffic.replies[i] {
            if v.verdict != want {
                ok[i] = false;
                problems.push(format!("request {i}: verdict differs from recomputation"));
            }
        }
    }
    for (i, r) in traffic.replies.iter().enumerate() {
        match r {
            Reply::Rejected(msg) => problems.push(format!("request {i}: rejected ({msg})")),
            Reply::Missing => problems.push(format!("request {i}: no reply")),
            Reply::Verdict(_) => {}
        }
    }
    (ok, problems)
}

#[cfg(test)]
mod tests {
    use super::*;
    use advhunter::Verdict;
    use advhunter_tensor::Tensor;
    use std::net::TcpListener;

    use crate::prep::QueryKind;

    /// A stand-in server: answers every request in order with an empty
    /// verdict, stalling `stall` before answering request `stall_at`.
    fn stalling_server(stall_at: u64, stall: Duration) -> (TcpStream, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (conn, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(conn.try_clone().expect("clone"));
            let mut writer = conn;
            while let Ok(Some(Frame::Request(req))) = read_frame(&mut reader) {
                let id = req.request_id.expect("correlation id");
                if id == stall_at {
                    std::thread::sleep(stall);
                }
                let verdict = Frame::Verdict(WireVerdict {
                    request_id: id,
                    correlation_id: Some(id),
                    tenant: req.tenant,
                    config_epoch: 0,
                    verdict: Verdict::new(0, Vec::new()),
                    hpc_anomalous: false,
                    query_correlated: false,
                    fingerprint: None,
                    flagged: false,
                });
                if write_frame(&mut writer, &verdict).is_err() {
                    break;
                }
            }
        });
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        (stream, server)
    }

    fn pool(n: usize) -> Vec<Query> {
        (0..n)
            .map(|i| Query {
                image: Tensor::zeros(&[1, 2, 2]),
                tenant: i as u64 % 3,
                kind: QueryKind::Clean,
            })
            .collect()
    }

    #[test]
    fn latency_is_timed_from_the_due_time_so_a_stall_charges_the_requests_behind_it() {
        let stall = Duration::from_millis(200);
        let (stream, server) = stalling_server(10, stall);
        let queries = pool(8);
        let mut traffic = Traffic::default();
        closed_segment(&stream, &queries, 4, (0.5, 0), true, &mut traffic).expect("segment");
        drop(stream);
        server.join().expect("server");
        let latency = |i: usize| traffic.replied[i].expect("answered") - traffic.due[i];
        // Requests 11..=13 were sent (fell due) while request 10 stalled;
        // they queue behind it and each waits out the stall.
        for i in 10..=13 {
            assert!(latency(i) >= stall, "request {i}: {:?}", latency(i));
        }
        // The requests whose slots the stall's replies freed were not due
        // before it ended, so they are not charged for it.
        assert!(latency(14) < stall / 2, "request 14: {:?}", latency(14));
        assert!(traffic.timed_secs >= 0.5);
        assert!(traffic.timed.iter().all(|&t| t));
    }

    #[test]
    fn cycled_requests_get_a_fresh_tenant_per_pass() {
        let queries = pool(4);
        assert_eq!(query(&queries, 1).1, 1);
        assert_eq!(query(&queries, 5).1, 1 + TENANT_CYCLE);
        assert!(std::ptr::eq(query(&queries, 5).0, &queries[1]));
    }
}
