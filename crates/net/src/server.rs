//! The TCP front-end: a `std::net` listener terminating wire frames and
//! driving the in-process serving plane.
//!
//! # Connection lifecycle
//!
//! Each accepted connection gets a dedicated handler thread running a
//! strict request→reply loop: read one frame, perform the operation, write
//! exactly one reply. Two frames change the loop's shape:
//!
//! * [`Frame::Subscribe`] turns the connection into a server-push event
//!   stream — after the `Ack`, the handler pumps [`Frame::Event`] frames
//!   until shutdown closes the bus (or the client disconnects);
//! * [`Frame::Shutdown`] shuts the serving plane down, replies with the
//!   final [`Frame::Report`], and closes the connection.
//!
//! # Error containment
//!
//! Malformed input never panics a handler and never poisons the serving
//! plane. Frame-scoped failures (unsupported version, unknown frame type,
//! undecodable body) get an [`Frame::Error`] reply and the connection
//! lives on; framing-level failures (garbage length prefix, EOF inside a
//! frame) get a best-effort error reply and the connection closes, since
//! the byte stream cannot be resynchronized. Every discarded frame counts
//! into [`ServeReport::frames_dropped`] on the final report.

use crate::wire::{self, ErrorCode, Frame, WireError};
use rbm_im_harness::registry::{DetectorRegistry, DetectorSpec};
use rbm_im_obs::{Counter, Histogram, MetricsRegistry};
use rbm_im_serve::{
    FaultPlane, FrameDropBreakdown, ServeConfig, ServeReport, ServerHandle, StreamClient,
};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Per-category drop counters, bound into the serving plane's metrics
/// registry as `rbm_net_frames_dropped_total{kind}` so the breakdown shows
/// up in exposition as well as on the final [`ServeReport`].
struct DropCounters {
    malformed: Arc<Counter>,
    unsupported_version: Arc<Counter>,
    unknown_frame_type: Arc<Counter>,
    oversized: Arc<Counter>,
    io: Arc<Counter>,
    unexpected_reply: Arc<Counter>,
}

impl DropCounters {
    fn bind(metrics: &MetricsRegistry) -> Self {
        let kind = |k: &str| metrics.counter("rbm_net_frames_dropped_total", &[("kind", k)]);
        Self {
            malformed: kind("malformed"),
            unsupported_version: kind("unsupported_version"),
            unknown_frame_type: kind("unknown_frame_type"),
            oversized: kind("oversized"),
            io: kind("io"),
            unexpected_reply: kind("unexpected_reply"),
        }
    }

    fn breakdown(&self) -> FrameDropBreakdown {
        FrameDropBreakdown {
            malformed: self.malformed.get(),
            unsupported_version: self.unsupported_version.get(),
            unknown_frame_type: self.unknown_frame_type.get(),
            oversized: self.oversized.get(),
            io: self.io.get(),
            unexpected_reply: self.unexpected_reply.get(),
        }
    }
}

/// Pre-registered request instrumentation: one latency histogram per
/// request frame type (`rbm_net_request_latency_seconds{frame}`) plus the
/// backpressure counter (`rbm_net_busy_total`). Histograms record integer
/// nanoseconds; exposition divides to seconds.
struct NetObs {
    attach: Arc<Histogram>,
    detach: Arc<Histogram>,
    ingest: Arc<Histogram>,
    drain: Arc<Histogram>,
    checkpoint: Arc<Histogram>,
    shutdown: Arc<Histogram>,
    subscribe: Arc<Histogram>,
    metrics: Arc<Histogram>,
    health: Arc<Histogram>,
    busy: Arc<Counter>,
}

impl NetObs {
    fn bind(metrics: &MetricsRegistry) -> Self {
        let frame = |f: &str| metrics.histogram("rbm_net_request_latency_seconds", &[("frame", f)]);
        Self {
            attach: frame("attach"),
            detach: frame("detach"),
            ingest: frame("ingest"),
            drain: frame("drain"),
            checkpoint: frame("checkpoint"),
            shutdown: frame("shutdown"),
            subscribe: frame("subscribe"),
            metrics: frame("metrics"),
            health: frame("health"),
            busy: metrics.counter("rbm_net_busy_total", &[]),
        }
    }

    /// The latency histogram for a request frame; `None` for reply-type
    /// frames (a client protocol violation, counted as a drop instead).
    fn latency(&self, frame: &Frame) -> Option<&Arc<Histogram>> {
        match frame {
            Frame::Attach { .. } => Some(&self.attach),
            Frame::Detach { .. } => Some(&self.detach),
            Frame::Ingest { .. } => Some(&self.ingest),
            Frame::Drain => Some(&self.drain),
            Frame::Checkpoint { .. } => Some(&self.checkpoint),
            Frame::Shutdown => Some(&self.shutdown),
            Frame::Subscribe => Some(&self.subscribe),
            Frame::Metrics => Some(&self.metrics),
            Frame::Health => Some(&self.health),
            _ => None,
        }
    }
}

/// Shared state between the accept loop, connection handlers and the local
/// [`NetServerHandle`].
struct Shared {
    /// The serving plane. `shutdown` consumes a `ServerHandle`, so the
    /// first shutdown — wire or local — takes it; later operations see
    /// `None` and answer [`ErrorCode::Unavailable`].
    server: Mutex<Option<ServerHandle>>,
    /// The final report, stashed by whichever side performed the shutdown
    /// so the other can still read it.
    report: Mutex<Option<ServeReport>>,
    /// Wire frames discarded before reaching a shard, broken down by
    /// failure category (malformed framing, bad magic, unsupported
    /// version, unknown type, oversized, io, reply-at-server).
    drops: DropCounters,
    /// Per-frame-type request latency and backpressure counters.
    obs: NetObs,
    /// Set once shutdown begins; the accept loop exits on the next
    /// (possibly self-inflicted) connection.
    stopping: AtomicBool,
    /// Optional chaos fault plane: consulted on the reply path for
    /// injected delays and mid-frame truncations (shared with the serving
    /// plane, which draws its own sites from it).
    faults: Option<Arc<FaultPlane>>,
}

impl Shared {
    /// Performs the serving-plane shutdown exactly once. Returns `None`
    /// when another caller already did.
    fn shutdown_serve(&self) -> Option<ServeReport> {
        let handle = self.server.lock().expect("server lock poisoned").take()?;
        self.stopping.store(true, Ordering::SeqCst);
        let mut report = handle.shutdown();
        let breakdown = self.drops.breakdown();
        report.frames_dropped += breakdown.total();
        report.frames_dropped_by = breakdown;
        *self.report.lock().expect("report lock poisoned") = Some(report.clone());
        Some(report)
    }
}

/// Entry points for binding the TCP front-end.
pub struct NetServer;

impl NetServer {
    /// Starts a serving plane with the default detector registry and binds
    /// the wire front-end to `addr` (use `127.0.0.1:0` to let the OS pick
    /// a loopback port; the bound address is on the returned handle).
    /// Adopts the `RBM_CHAOS` environment fault plane when armed.
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> std::io::Result<NetServerHandle> {
        Self::bind_with_faults(
            addr,
            config,
            Arc::new(DetectorRegistry::with_defaults()),
            rbm_im_serve::chaos::env_plane().cloned(),
        )
    }

    /// [`NetServer::bind`] with a custom detector registry (attach specs
    /// arriving over the wire resolve against it) and an explicit chaos
    /// [`FaultPlane`] — `rbm_im_serve::chaos::env_plane().cloned()` to
    /// adopt the `RBM_CHAOS` environment gate, `None` for a clean run.
    /// The plane is shared between the serving plane (kill-shard,
    /// hibernate, spill sites) and this front-end's reply path (delay,
    /// truncate-mid-frame sites), so one seed drives the whole stack's
    /// fault schedule.
    pub fn bind_with_faults(
        addr: impl ToSocketAddrs,
        config: ServeConfig,
        registry: Arc<DetectorRegistry>,
        faults: Option<Arc<FaultPlane>>,
    ) -> std::io::Result<NetServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let server = ServerHandle::start_with_faults(config, registry, faults.clone());
        let metrics = server.metrics();
        let shared = Arc::new(Shared {
            server: Mutex::new(Some(server)),
            report: Mutex::new(None),
            drops: DropCounters::bind(&metrics),
            obs: NetObs::bind(&metrics),
            stopping: AtomicBool::new(false),
            faults,
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, shared))
        };
        Ok(NetServerHandle { shared, metrics, addr, accept: Some(accept) })
    }
}

/// Handle on a running TCP front-end: the bound address, the drop
/// counters, and the local shutdown path.
pub struct NetServerHandle {
    shared: Arc<Shared>,
    metrics: Arc<MetricsRegistry>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl NetServerHandle {
    /// The address the front-end accepts connections on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving plane's metrics registry (wire counters included) —
    /// hand it to an [`rbm_im_obs::ObsServer`] for scraping. Outlives the
    /// serving plane, so it is readable even after shutdown.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// Wire frames discarded so far (monotone; folded into
    /// [`ServeReport::frames_dropped`] at shutdown).
    pub fn frames_dropped(&self) -> u64 {
        self.shared.drops.breakdown().total()
    }

    /// Wire frames discarded so far, broken down by failure category
    /// (folded into [`ServeReport::frames_dropped_by`] at shutdown).
    pub fn frames_dropped_by(&self) -> FrameDropBreakdown {
        self.shared.drops.breakdown()
    }

    /// Shuts the serving plane and the accept loop down and returns the
    /// final report. If a wire client already performed the shutdown, the
    /// report it received is returned.
    pub fn shutdown(mut self) -> ServeReport {
        let report = match self.shared.shutdown_serve() {
            Some(report) => report,
            None => {
                self.shared.report.lock().expect("report lock poisoned").clone().unwrap_or_default()
            }
        };
        // Unblock the accept loop (it exits on the next connection once
        // `stopping` is set); a refused connect means it already exited.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        report
    }
}

impl std::fmt::Debug for NetServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServerHandle")
            .field("addr", &self.addr)
            .field("frames_dropped", &self.frames_dropped())
            .finish()
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stopping.load(Ordering::SeqCst) {
                    break;
                }
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || handle_connection(stream, shared));
            }
            Err(_) => {
                if shared.stopping.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
}

/// What a handled frame tells the connection loop to do next.
enum Flow {
    /// Keep reading frames.
    Continue,
    /// Close the connection (shutdown handled, subscription pump ended).
    Close,
}

fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    // The server side's local address IS the listener address — kept to
    // wake the accept loop when a shutdown arrives over this connection.
    let listener_addr = stream.local_addr().ok();
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    // Per-connection ingest clients, interned once per stream id so the
    // hot path never touches the control plane.
    let mut clients: HashMap<String, StreamClient> = HashMap::new();
    let mut lane = ReplyLane::new(shared.faults.clone());
    loop {
        let flow = match wire::read_frame(&mut reader) {
            Ok(frame) => {
                // Per-frame-type request latency, gated so the hot path
                // pays nothing when observability is off. `Subscribe`
                // deliberately measures the whole pump: its "latency" is
                // the lifetime of the subscription.
                let timer = if rbm_im_obs::enabled() {
                    shared.obs.latency(&frame).map(|h| (Arc::clone(h), Instant::now()))
                } else {
                    None
                };
                let outcome = handle_frame(
                    frame,
                    &shared,
                    &mut clients,
                    &mut lane,
                    &mut writer,
                    listener_addr,
                );
                if let Some((histogram, start)) = timer {
                    histogram.record(start.elapsed().as_nanos() as u64);
                }
                match outcome {
                    Ok(flow) => flow,
                    Err(_) => Flow::Close, // peer gone mid-reply
                }
            }
            Err(WireError::Closed) => Flow::Close,
            // The connection died (or was cut) mid-frame: the partial frame
            // is dropped and counted; best-effort error reply — a fuzzing
            // peer may have only half-closed its write side — then close.
            Err(e @ WireError::Io(_)) => {
                shared.drops.io.inc();
                let _ = reply(
                    &mut lane,
                    &mut writer,
                    &Frame::Error { code: ErrorCode::Malformed, message: e.to_string() },
                );
                Flow::Close
            }
            // Frame-scoped failures: the frame was consumed whole, so the
            // stream is still in sync — reply and carry on.
            Err(e @ WireError::UnsupportedVersion { .. }) => {
                shared.drops.unsupported_version.inc();
                match reply(
                    &mut lane,
                    &mut writer,
                    &Frame::Error { code: ErrorCode::UnsupportedVersion, message: e.to_string() },
                ) {
                    Ok(()) => Flow::Continue,
                    Err(_) => Flow::Close,
                }
            }
            Err(e @ WireError::UnknownFrameType(_)) => {
                shared.drops.unknown_frame_type.inc();
                match reply(
                    &mut lane,
                    &mut writer,
                    &Frame::Error { code: ErrorCode::UnknownFrameType, message: e.to_string() },
                ) {
                    Ok(()) => Flow::Continue,
                    Err(_) => Flow::Close,
                }
            }
            Err(e @ WireError::Malformed(_)) => {
                shared.drops.malformed.inc();
                match reply(
                    &mut lane,
                    &mut writer,
                    &Frame::Error { code: ErrorCode::Malformed, message: e.to_string() },
                ) {
                    Ok(()) => Flow::Continue,
                    Err(_) => Flow::Close,
                }
            }
            // Framing-level failure: the byte stream cannot be
            // resynchronized. Best-effort error reply, then close.
            Err(e @ WireError::TooLarge(_)) => {
                shared.drops.oversized.inc();
                let _ = reply(
                    &mut lane,
                    &mut writer,
                    &Frame::Error { code: ErrorCode::Malformed, message: e.to_string() },
                );
                Flow::Close
            }
        };
        if matches!(flow, Flow::Close) {
            break;
        }
    }
}

/// Per-connection reply state: counts replies — the fault plane's
/// deterministic coordinate for the net sites — so the same seed faults
/// the same replies on every run.
struct ReplyLane {
    faults: Option<Arc<FaultPlane>>,
    replies: u64,
}

impl ReplyLane {
    fn new(faults: Option<Arc<FaultPlane>>) -> Self {
        Self { faults, replies: 0 }
    }
}

fn reply<W: Write>(lane: &mut ReplyLane, writer: &mut W, frame: &Frame) -> std::io::Result<()> {
    lane.replies += 1;
    if let Some(plane) = &lane.faults {
        if let Some(delay) = plane.net_delay(lane.replies) {
            std::thread::sleep(delay);
        }
        if plane.net_truncate(lane.replies) {
            // Models a server killed between reply write and flush: the
            // peer sees a partial frame then EOF, never a silent drop (a
            // blocking client would hang forever in the strict
            // request→reply protocol). The error return closes this
            // connection; the client must reconnect.
            let encoded = wire::encode_frame(frame);
            let keep = (encoded.len() / 2).max(1);
            writer.write_all(&encoded[..keep])?;
            writer.flush()?;
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "chaos: injected reply truncation",
            ));
        }
    }
    wire::write_frame(writer, frame)?;
    writer.flush()
}

fn serve_error<W: Write>(
    lane: &mut ReplyLane,
    writer: &mut W,
    message: String,
) -> std::io::Result<()> {
    reply(lane, writer, &Frame::Error { code: ErrorCode::Serve, message })
}

fn unavailable<W: Write>(lane: &mut ReplyLane, writer: &mut W) -> std::io::Result<()> {
    reply(
        lane,
        writer,
        &Frame::Error {
            code: ErrorCode::Unavailable,
            message: "the serving plane has shut down".to_string(),
        },
    )
}

fn handle_frame<W: Write>(
    frame: Frame,
    shared: &Shared,
    clients: &mut HashMap<String, StreamClient>,
    lane: &mut ReplyLane,
    writer: &mut W,
    listener_addr: Option<SocketAddr>,
) -> std::io::Result<Flow> {
    match frame {
        Frame::Attach { stream, schema, spec, run } => {
            let spec = match DetectorSpec::parse(&spec) {
                Ok(spec) => spec,
                Err(e) => {
                    serve_error(lane, writer, format!("invalid detector spec: {e}"))?;
                    return Ok(Flow::Continue);
                }
            };
            let guard = shared.server.lock().expect("server lock poisoned");
            let Some(server) = guard.as_ref() else {
                drop(guard);
                unavailable(lane, writer)?;
                return Ok(Flow::Continue);
            };
            let attached = match run {
                Some(run) => server.attach_with(&stream, schema, &spec, run),
                None => server.attach(&stream, schema, &spec),
            };
            drop(guard);
            match attached {
                Ok(client) => {
                    clients.insert(stream, client);
                    reply(lane, writer, &Frame::Ack)?;
                }
                Err(e) => serve_error(lane, writer, e.to_string())?,
            }
            Ok(Flow::Continue)
        }
        Frame::Detach { stream } => {
            clients.remove(&stream);
            let guard = shared.server.lock().expect("server lock poisoned");
            let Some(server) = guard.as_ref() else {
                drop(guard);
                unavailable(lane, writer)?;
                return Ok(Flow::Continue);
            };
            let detached = server.detach(&stream);
            drop(guard);
            match detached {
                Ok(result) => reply(lane, writer, &Frame::Result(Box::new(result)))?,
                Err(e) => serve_error(lane, writer, e.to_string())?,
            }
            Ok(Flow::Continue)
        }
        Frame::Ingest { stream, blocking, instances } => {
            let client = match clients.entry(stream) {
                std::collections::hash_map::Entry::Occupied(entry) => entry.into_mut(),
                std::collections::hash_map::Entry::Vacant(entry) => {
                    let guard = shared.server.lock().expect("server lock poisoned");
                    let Some(server) = guard.as_ref() else {
                        drop(guard);
                        unavailable(lane, writer)?;
                        return Ok(Flow::Continue);
                    };
                    let client = server.client(entry.key());
                    drop(guard);
                    entry.insert(client)
                }
            };
            if blocking {
                match client.ingest_batch(instances) {
                    Ok(()) => reply(lane, writer, &Frame::Ack)?,
                    Err(_) => unavailable(lane, writer)?,
                }
            } else {
                match client.try_ingest_batch(instances) {
                    Ok(()) => reply(lane, writer, &Frame::Ack)?,
                    Err(rbm_im_serve::IngestError::Full(rejected)) => {
                        shared.obs.busy.inc();
                        reply(lane, writer, &Frame::Busy { rejected: rejected.len() as u64 })?
                    }
                    Err(rbm_im_serve::IngestError::Closed(_)) => unavailable(lane, writer)?,
                }
            }
            Ok(Flow::Continue)
        }
        Frame::Drain => {
            let guard = shared.server.lock().expect("server lock poisoned");
            let Some(server) = guard.as_ref() else {
                drop(guard);
                unavailable(lane, writer)?;
                return Ok(Flow::Continue);
            };
            server.drain();
            drop(guard);
            reply(lane, writer, &Frame::Ack)?;
            Ok(Flow::Continue)
        }
        Frame::Checkpoint { stream } => {
            let guard = shared.server.lock().expect("server lock poisoned");
            let Some(server) = guard.as_ref() else {
                drop(guard);
                unavailable(lane, writer)?;
                return Ok(Flow::Continue);
            };
            let checkpoint = server.checkpoint_stream(&stream);
            drop(guard);
            match checkpoint {
                Ok(checkpoint) => {
                    reply(lane, writer, &Frame::CheckpointData(Box::new(checkpoint)))?
                }
                Err(e) => serve_error(lane, writer, e.to_string())?,
            }
            Ok(Flow::Continue)
        }
        Frame::Shutdown => {
            match shared.shutdown_serve() {
                Some(report) => {
                    reply(lane, writer, &Frame::Report(Box::new(report)))?;
                    // Unblock the accept loop so the listener closes now,
                    // not at the next (never-arriving) connection.
                    if let Some(addr) = listener_addr {
                        let _ = TcpStream::connect(addr);
                    }
                }
                None => unavailable(lane, writer)?,
            }
            Ok(Flow::Close)
        }
        Frame::Metrics => {
            let guard = shared.server.lock().expect("server lock poisoned");
            let Some(server) = guard.as_ref() else {
                drop(guard);
                unavailable(lane, writer)?;
                return Ok(Flow::Continue);
            };
            let snapshot = server.metrics().snapshot();
            drop(guard);
            reply(lane, writer, &Frame::MetricsData(Box::new(snapshot)))?;
            Ok(Flow::Continue)
        }
        Frame::Health => {
            let guard = shared.server.lock().expect("server lock poisoned");
            let Some(server) = guard.as_ref() else {
                drop(guard);
                unavailable(lane, writer)?;
                return Ok(Flow::Continue);
            };
            let health = server.health();
            drop(guard);
            reply(lane, writer, &Frame::HealthData(Box::new(health)))?;
            Ok(Flow::Continue)
        }
        Frame::Subscribe => {
            let guard = shared.server.lock().expect("server lock poisoned");
            let Some(server) = guard.as_ref() else {
                drop(guard);
                unavailable(lane, writer)?;
                return Ok(Flow::Continue);
            };
            let events = server.subscribe();
            drop(guard);
            reply(lane, writer, &Frame::Ack)?;
            // Server-push mode: pump bus events until shutdown closes the
            // bus or the client disconnects.
            for event in events {
                reply(lane, writer, &Frame::Event(Box::new(event)))?;
            }
            Ok(Flow::Close)
        }
        // Reply-type frames arriving at the server are a protocol
        // violation by the client; answer with an error and carry on.
        Frame::Ack
        | Frame::Busy { .. }
        | Frame::Error { .. }
        | Frame::Result(_)
        | Frame::CheckpointData(_)
        | Frame::Report(_)
        | Frame::Event(_)
        | Frame::MetricsData(_)
        | Frame::HealthData(_) => {
            shared.drops.unexpected_reply.inc();
            reply(
                lane,
                writer,
                &Frame::Error {
                    code: ErrorCode::Malformed,
                    message: "reply frame sent to the server".to_string(),
                },
            )?;
            Ok(Flow::Continue)
        }
    }
}
