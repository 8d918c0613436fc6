//! The TCP shard transport: the farm spans real hosts.
//!
//! [`crate::shard`] runs every shard as a local child process; this
//! module speaks the *same* length-prefixed wire-v7 protocol over TCP
//! so shard attempts can land on remote machines running the
//! `cwc-workerd` daemon (repo root, `src/bin/cwc-workerd.rs`):
//!
//! ```text
//! worker ──▶ coordinator:   WorkerHello{protocol, capacity}
//! coordinator ──▶ worker:   Job(model + ShardSpec + deps) [Terminate]
//! worker ──▶ coordinator:   (Cut | Progress)* then End | Error
//! ```
//!
//! One TCP connection per shard *attempt*: the coordinator's
//! [`TcpShardTransport`] connects to a worker from its static registry
//! (`SimConfig::workers`), reads the worker's [`WorkerHello`]
//! (registration: protocol version + worker capacity — a version
//! mismatch or a malformed/silent peer is a typed error within
//! `SimConfig::connect_timeout`, never a hang), ships the job frame —
//! model, spec **and** the coordinator's pre-compiled [`ModelDeps`], so
//! a remote worker never recompiles the model — and then reads the
//! standard [`ToCoordinator`](crate::shard::ToCoordinator) stream back,
//! feeding the supervisor's [`ShardActivity`] watchdog clock exactly like
//! the process transport.
//!
//! ## Requeue lands on a survivor
//!
//! The supervisor retries a failed slice by calling
//! [`launch_shard`](cwcsim::ShardTransport::launch_shard) again with a
//! bumped `attempt`; *where* the retry runs is this transport's
//! decision. Policy: a retried shard avoids the worker its previous
//! attempt ran on whenever another live candidate exists, and a worker
//! whose connection or handshake fails is marked dead and skipped for
//! the rest of the run — so when a worker dies mid-run, its slices are
//! requeued **onto surviving workers** (recorded in
//! [`placements`](TcpShardTransport::placements), which the
//! fault-tolerance tests assert on). Dead-worker failover happens
//! *inside* one `launch_shard` call, so an unreachable host does not
//! burn the slice's retry budget.
//!
//! ## Determinism
//!
//! Placement is invisible to the results: every trajectory's RNG stream
//! is a pure function of `(base_seed, instance)` and cuts are merged in
//! grid order, so the merged rows are bit-for-bit identical to the
//! single-process run for any shard count and any worker placement —
//! including a run where a worker died and its slice was replayed
//! elsewhere (`tests/tcp_agreement.rs` pins all of this).
//!
//! [`ModelDeps`]: gillespie::deps::ModelDeps
//! [`ShardActivity`]: cwcsim::coordinator::ShardActivity

use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use cwc::model::Model;
use cwcsim::config::SimConfig;
use cwcsim::coordinator::{
    ShardActivity, ShardError, ShardErrorKind, ShardFeed, ShardHandle, ShardSpec, ShardTransport,
};
use cwcsim::sim_farm::Steering;
use gillespie::deps::ModelDeps;

use crate::shard::{
    pump_frames, read_frame, serve_shard, write_frame, FrameError, ServeError, ShardJob, ToShard,
};
use crate::wire::{self, Wire, WireError, WireReader};

/// The exit status `cwc-workerd` dies with when an injected fault
/// fires, mirroring `cwc-shard` — distinct from genuine failures in CI
/// logs, and the whole-daemon death is the point: it forces the
/// supervisor to requeue the slice onto a *surviving* worker.
pub const FAULT_EXIT: i32 = 3;

/// The worker registration frame — first thing a `cwc-workerd` daemon
/// writes on every accepted connection (wire v7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerHello {
    /// The wire protocol version the worker speaks; the coordinator
    /// refuses a worker whose version differs from its own
    /// [`wire::VERSION`] (typed error, no silent garbage).
    pub protocol: u16,
    /// How many shard attempts the worker is sized for (its core
    /// count by default) — advisory capacity metadata for placement.
    pub capacity: u64,
}

impl WorkerHello {
    /// A hello for the current protocol version.
    pub fn current(capacity: u64) -> Self {
        WorkerHello {
            protocol: wire::VERSION,
            capacity,
        }
    }
}

impl Wire for WorkerHello {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.protocol.encode(buf);
        self.capacity.encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(WorkerHello {
            protocol: u16::decode(r)?,
            capacity: u64::decode(r)?,
        })
    }
}

/// Why a connection + registration handshake with a worker failed.
/// Every variant is produced within a bounded time (the connect
/// timeout doubles as the per-read handshake deadline) — a silent or
/// hostile peer becomes a typed error, never a hang or a panic.
#[derive(Debug)]
pub enum HandshakeError {
    /// TCP resolution or connection failed.
    Connect(String),
    /// The worker's hello frame was malformed, truncated, oversized or
    /// never arrived (the frame error carries the byte offset where it
    /// pins one down).
    Frame(FrameError),
    /// The worker speaks a different protocol version.
    Protocol {
        /// The version the worker announced.
        got: u16,
        /// The version this coordinator speaks.
        want: u16,
    },
}

impl std::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HandshakeError::Connect(m) => write!(f, "{m}"),
            HandshakeError::Frame(e) => write!(f, "handshake failed: {e}"),
            HandshakeError::Protocol { got, want } => {
                write!(
                    f,
                    "protocol version mismatch: worker speaks v{got}, need v{want}"
                )
            }
        }
    }
}

impl std::error::Error for HandshakeError {}

/// Connects to a worker and performs the registration handshake:
/// resolve, connect within `timeout`, read the worker's
/// [`WorkerHello`] (with `timeout` as the per-read deadline, so a
/// peer that connects then goes silent is a typed error, not a hang)
/// and check the protocol version.
///
/// # Errors
///
/// [`HandshakeError::Connect`] when no resolved address accepts,
/// [`HandshakeError::Frame`] on a malformed/truncated/absent hello,
/// [`HandshakeError::Protocol`] on a version mismatch.
pub fn connect_worker(
    addr: &str,
    timeout: Duration,
) -> Result<(TcpStream, WorkerHello), HandshakeError> {
    let addrs: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| HandshakeError::Connect(format!("resolve {addr}: {e}")))?
        .collect();
    let mut last = HandshakeError::Connect(format!("{addr} resolved to no addresses"));
    for sa in addrs {
        match TcpStream::connect_timeout(&sa, timeout) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                stream
                    .set_read_timeout(Some(timeout))
                    .map_err(|e| HandshakeError::Frame(FrameError::Io(e)))?;
                let hello: WorkerHello = match read_frame(&mut &stream) {
                    Ok(Some(h)) => h,
                    Ok(None) => {
                        return Err(HandshakeError::Frame(FrameError::Truncated {
                            offset: 0,
                            detail: "connection closed before the hello frame".into(),
                        }))
                    }
                    Err(e) => return Err(HandshakeError::Frame(e)),
                };
                if hello.protocol != wire::VERSION {
                    return Err(HandshakeError::Protocol {
                        got: hello.protocol,
                        want: wire::VERSION,
                    });
                }
                return Ok((stream, hello));
            }
            Err(e) => last = HandshakeError::Connect(format!("connect {sa}: {e}")),
        }
    }
    Err(last)
}

/// The `cwc-workerd` daemon body: a TCP listener whose every accepted
/// connection is served on its own thread — hello frame out, then
/// [`serve_shard`] over the socket (the exact worker body `cwc-shard`
/// runs over stdio, fault-injection harness included).
#[derive(Debug)]
pub struct WorkerDaemon {
    listener: TcpListener,
    capacity: u64,
}

impl WorkerDaemon {
    /// Binds the daemon's listener. `addr` may use port 0 for an
    /// ephemeral port — read it back with [`local_addr`](Self::local_addr).
    ///
    /// # Errors
    ///
    /// Returns the bind error (address in use, permission, …).
    pub fn bind(addr: &str, capacity: u64) -> io::Result<Self> {
        Ok(WorkerDaemon {
            listener: TcpListener::bind(addr)?,
            capacity,
        })
    }

    /// The bound address (the real port when bound with port 0).
    ///
    /// # Errors
    ///
    /// Returns the underlying socket error.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The accept loop: serves each connection on its own thread,
    /// forever. An injected fault fired while serving exits the whole
    /// process with [`FAULT_EXIT`] — daemon death, exactly what the
    /// requeue-onto-survivor path must recover from.
    ///
    /// # Errors
    ///
    /// Returns only when `accept` itself fails.
    pub fn run(&self) -> io::Result<()> {
        loop {
            let (stream, peer) = self.listener.accept()?;
            let capacity = self.capacity;
            std::thread::spawn(move || match serve_connection(stream, capacity) {
                Ok(()) => {}
                Err(e @ ServeError::Fault(_)) => {
                    eprintln!("cwc-workerd: {e}");
                    std::process::exit(FAULT_EXIT);
                }
                Err(e) => eprintln!("cwc-workerd: connection from {peer}: {e}"),
            });
        }
    }
}

/// Serves one accepted coordinator connection: writes the registration
/// hello, then hands the socket to [`serve_shard`].
///
/// # Errors
///
/// Returns [`ServeError`] exactly as `serve_shard` does, plus frame
/// I/O errors writing the hello.
pub fn serve_connection(stream: TcpStream, capacity: u64) -> Result<(), ServeError> {
    let _ = stream.set_nodelay(true);
    let mut writer = stream
        .try_clone()
        .map_err(|e| ServeError::Frame(FrameError::Io(e)))?;
    write_frame(&mut writer, &WorkerHello::current(capacity))
        .map_err(|e| ServeError::Frame(FrameError::Io(e)))?;
    serve_shard(stream, writer)
}

/// Where one shard attempt ran — the transport's placement record,
/// exposed so tests can assert the requeue-onto-survivor policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The shard whose slice was placed.
    pub shard: usize,
    /// The attempt number (0 = first launch).
    pub attempt: u32,
    /// Index into the transport's worker list.
    pub worker: usize,
}

#[derive(Debug)]
struct WorkerState {
    addr: String,
    alive: bool,
    hello: Option<WorkerHello>,
}

#[derive(Debug, Default)]
struct Registry {
    workers: Vec<WorkerState>,
    /// Last worker each shard ran on — what a retry avoids.
    last: HashMap<usize, usize>,
    placements: Vec<Placement>,
}

/// The network transport: every shard attempt is one TCP connection to
/// a `cwc-workerd` daemon from a static worker registry.
#[derive(Debug)]
pub struct TcpShardTransport {
    registry: Arc<Mutex<Registry>>,
    connect_timeout: Duration,
}

impl TcpShardTransport {
    /// A transport over an explicit worker list (`host:port` strings).
    pub fn new(workers: Vec<String>, connect_timeout: Duration) -> Self {
        TcpShardTransport {
            registry: Arc::new(Mutex::new(Registry {
                workers: workers
                    .into_iter()
                    .map(|addr| WorkerState {
                        addr,
                        alive: true,
                        hello: None,
                    })
                    .collect(),
                last: HashMap::new(),
                placements: Vec::new(),
            })),
            connect_timeout,
        }
    }

    /// A transport over `cfg.workers` with `cfg.connect_timeout`
    /// (falls back to 5 s if the timeout is not a valid duration —
    /// `SimConfig::validate` rejects such configs before any launch).
    pub fn from_config(cfg: &SimConfig) -> Self {
        let timeout =
            Duration::try_from_secs_f64(cfg.connect_timeout).unwrap_or(Duration::from_secs(5));
        Self::new(cfg.workers.clone(), timeout)
    }

    /// The worker addresses this transport was built over, in index
    /// order (the indices [`Placement::worker`] refers to).
    pub fn worker_addrs(&self) -> Vec<String> {
        let reg = self.registry.lock().expect("registry mutex");
        reg.workers.iter().map(|w| w.addr.clone()).collect()
    }

    /// Indices of workers still considered alive (a worker is marked
    /// dead when a connection, handshake or job send to it fails).
    pub fn alive_workers(&self) -> Vec<usize> {
        let reg = self.registry.lock().expect("registry mutex");
        reg.workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.alive)
            .map(|(i, _)| i)
            .collect()
    }

    /// Every placement made so far, in launch order — one record per
    /// `(shard, attempt)` that reached a worker.
    pub fn placements(&self) -> Vec<Placement> {
        self.registry
            .lock()
            .expect("registry mutex")
            .placements
            .clone()
    }

    /// Picks the next candidate worker for `shard`: alive, not already
    /// tried in this launch call, and — when this is a retry with an
    /// alternative available — not the worker the previous attempt ran
    /// on. Deterministic (`shard % candidates`) so placement is
    /// reproducible run-to-run.
    fn pick(&self, shard: usize, attempt: u32, tried: &[usize]) -> Option<usize> {
        let reg = self.registry.lock().expect("registry mutex");
        let mut candidates: Vec<usize> = reg
            .workers
            .iter()
            .enumerate()
            .filter(|(i, w)| w.alive && !tried.contains(i))
            .map(|(i, _)| i)
            .collect();
        if attempt > 0 && candidates.len() > 1 {
            if let Some(&prev) = reg.last.get(&shard) {
                candidates.retain(|&i| i != prev);
            }
        }
        if candidates.is_empty() {
            None
        } else {
            Some(candidates[shard % candidates.len()])
        }
    }
}

/// A socket reader that polls with a short OS read timeout so the
/// blocking read can be interrupted: cancellation flips `stop` (and
/// shuts the socket down) and the next poll returns clean EOF instead
/// of leaving a thread parked in `recv` forever. Timeouts themselves
/// are *not* errors here — the supervisor's watchdog owns stall
/// detection via the activity clock; this layer only keeps partial
/// frame reads intact across quiet stretches.
struct PatientStream {
    stream: TcpStream,
    stop: Arc<AtomicBool>,
}

impl Read for PatientStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if self.stop.load(Ordering::Acquire) {
                return Ok(0);
            }
            match (&self.stream).read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    continue
                }
                other => return other,
            }
        }
    }
}

impl ShardTransport for TcpShardTransport {
    /// Places `spec`'s attempt on a worker: candidate selection (shard
    /// `s` prefers worker `s mod live`, retries avoid the worker that
    /// just failed the shard), connect + hello handshake, job
    /// frame out, then a reader thread streaming the worker's frames
    /// into `sink` and its liveness into `activity` — the same frame
    /// pump the process transport runs. A candidate whose connection,
    /// handshake or job send fails is marked dead and the
    /// next candidate is tried within the *same* call; only when every
    /// candidate is exhausted does the call fail (typed `Spawn`).
    #[allow(clippy::too_many_lines)]
    fn launch_shard(
        &mut self,
        model: Arc<Model>,
        deps: Arc<ModelDeps>,
        spec: &ShardSpec,
        steering: &Steering,
        sink: mpsc::SyncSender<ShardFeed>,
        activity: Arc<ShardActivity>,
    ) -> Result<ShardHandle, ShardError> {
        let shard = spec.range.shard;
        let mut tried: Vec<usize> = Vec::new();
        let mut failures: Vec<String> = Vec::new();
        loop {
            let Some(w) = self.pick(shard, spec.attempt, &tried) else {
                let detail = if failures.is_empty() {
                    "no live workers in the registry".to_string()
                } else {
                    failures.join("; ")
                };
                return Err(ShardError::new(
                    shard,
                    ShardErrorKind::Spawn(format!("no live worker accepted the shard: {detail}")),
                ));
            };
            tried.push(w);
            let addr = {
                let reg = self.registry.lock().expect("registry mutex");
                reg.workers[w].addr.clone()
            };

            // Connect + handshake, then drop to a short poll timeout:
            // reads stay interruptible (see PatientStream) without ever
            // erroring a quiet-but-healthy worker — stall detection is
            // the watchdog's job.
            let connected = connect_worker(&addr, self.connect_timeout).and_then(|(s, h)| {
                s.set_read_timeout(Some(Duration::from_millis(100)))
                    .map_err(|e| HandshakeError::Frame(FrameError::Io(e)))?;
                Ok((s, h))
            });
            let (stream, hello) = match connected {
                Ok(ok) => ok,
                Err(e) => {
                    self.registry.lock().expect("registry mutex").workers[w].alive = false;
                    failures.push(format!("worker {addr}: {e}"));
                    continue;
                }
            };

            // Ship the job — model, spec and the coordinator's one
            // dependency compilation — on a writable clone of the
            // socket (the clone then carries Terminate frames).
            let job = ShardJob {
                model: (*model).clone(),
                spec: spec.clone(),
                deps: Some((*deps).clone()),
            };
            let send = stream
                .try_clone()
                .map_err(FrameError::Io)
                .and_then(|mut wr| {
                    write_frame(&mut wr, &ToShard::Job(Box::new(job))).map_err(FrameError::Io)?;
                    Ok(wr)
                });
            let mut writer = match send {
                Ok(wr) => wr,
                Err(e) => {
                    self.registry.lock().expect("registry mutex").workers[w].alive = false;
                    failures.push(format!("worker {addr}: job send failed: {e}"));
                    continue;
                }
            };

            {
                let mut reg = self.registry.lock().expect("registry mutex");
                reg.workers[w].hello = Some(hello);
                reg.last.insert(shard, w);
                reg.placements.push(Placement {
                    shard,
                    attempt: spec.attempt,
                    worker: w,
                });
            }

            let stop = Arc::new(AtomicBool::new(false));

            // Steering watcher: forwards global termination as a
            // Terminate frame so the worker drains at the next quantum
            // boundaries, exactly like the process transport.
            let watch = steering.watch(move || {
                let _ = write_frame(&mut writer, &ToShard::Terminate);
            });

            let cancel = {
                let stop = Arc::clone(&stop);
                let sock = stream.try_clone().ok();
                move || {
                    stop.store(true, Ordering::Release);
                    if let Some(s) = &sock {
                        let _ = s.shutdown(Shutdown::Both);
                    }
                }
            };

            let reader_registry = Arc::clone(&self.registry);
            let join = std::thread::spawn(move || {
                let input = PatientStream { stream, stop };
                let result = pump_frames(input, &sink, &activity, &format!("worker {addr}"));
                drop(watch);
                if let Err(kind) = result {
                    // The connection died mid-run: assume the worker is
                    // gone (a daemon that fault-exited certainly is) so
                    // the requeue prefers survivors even before its
                    // avoid-the-last-worker rule kicks in. Sim errors
                    // are the worker *telling* us something — it lives.
                    if !matches!(kind, ShardErrorKind::Sim(_)) {
                        reader_registry.lock().expect("registry mutex").workers[w].alive = false;
                    }
                    let _ = sink.send(ShardFeed::Failed(ShardError::new(shard, kind)));
                }
            });
            return Ok(ShardHandle::new(shard, join).with_cancel(cancel));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::MAX_FRAME_LEN;
    use biomodels::simple::decay;
    use cwcsim::coordinator::run_simulation_sharded_with;
    use cwcsim::runner::run_simulation;
    use std::io::Write as _;

    /// A hostile "worker": accepts one connection, runs `script` on it,
    /// then closes. Returns the address to dial.
    fn hostile(script: impl FnOnce(TcpStream) + Send + 'static) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            if let Ok((stream, _)) = listener.accept() {
                script(stream);
            }
        });
        addr
    }

    fn short() -> Duration {
        Duration::from_millis(300)
    }

    #[test]
    fn hello_roundtrips_and_pins_the_protocol_version() {
        let h = WorkerHello::current(8);
        assert_eq!(h.protocol, wire::VERSION);
        let back: WorkerHello = wire::from_bytes(&wire::to_bytes(&h)).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn garbage_hello_is_a_typed_frame_error() {
        // Bytes that are not even a plausible frame: the length prefix
        // is absurd, so the handshake dies on BadLength — typed, with
        // the offset of the corrupt prefix.
        let addr = hostile(|mut s| {
            let _ = s.write_all(b"\xFF\xFF\xFF\xFFutter garbage");
        });
        match connect_worker(&addr, short()) {
            Err(HandshakeError::Frame(e @ FrameError::BadLength { len, .. })) => {
                assert!(len > MAX_FRAME_LEN);
                assert_eq!(e.offset(), Some(0));
            }
            other => panic!("expected BadLength, got {other:?}"),
        }
    }

    #[test]
    fn truncated_hello_is_a_typed_frame_error_with_offset() {
        // A valid envelope cut off mid-payload.
        let addr = hostile(|mut s| {
            let bytes = wire::to_bytes(&WorkerHello::current(4));
            let _ = s.write_all(&u32::try_from(bytes.len()).unwrap().to_le_bytes());
            let _ = s.write_all(&bytes[..bytes.len() / 2]);
            // ...and the connection closes here.
        });
        match connect_worker(&addr, short()) {
            Err(HandshakeError::Frame(e @ FrameError::Truncated { .. })) => {
                assert_eq!(e.offset(), Some(0));
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn immediate_close_is_a_typed_error_not_a_panic() {
        let addr = hostile(drop);
        match connect_worker(&addr, short()) {
            Err(HandshakeError::Frame(FrameError::Truncated { detail, .. })) => {
                assert!(detail.contains("before the hello"), "{detail}");
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn stale_envelope_version_is_a_typed_wire_error() {
        // A wire-v6 worker: right magic, old envelope version. The
        // envelope check catches it before the hello payload is even
        // looked at.
        let addr = hostile(|mut s| {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&wire::MAGIC);
            6u16.encode(&mut bytes);
            WorkerHello {
                protocol: 6,
                capacity: 1,
            }
            .encode(&mut bytes);
            let _ = s.write_all(&u32::try_from(bytes.len()).unwrap().to_le_bytes());
            let _ = s.write_all(&bytes);
        });
        match connect_worker(&addr, short()) {
            Err(HandshakeError::Frame(FrameError::Wire(WireError::BadVersion(6)))) => {}
            other => panic!("expected BadVersion(6), got {other:?}"),
        }
    }

    #[test]
    fn hello_protocol_field_mismatch_is_a_typed_error() {
        // A current envelope whose *hello* announces a different
        // protocol (forward-compat probe): typed Protocol error.
        let addr = hostile(|mut s| {
            let _ = write_frame(
                &mut s,
                &WorkerHello {
                    protocol: wire::VERSION + 1,
                    capacity: 1,
                },
            );
        });
        match connect_worker(&addr, short()) {
            Err(HandshakeError::Protocol { got, want }) => {
                assert_eq!(got, wire::VERSION + 1);
                assert_eq!(want, wire::VERSION);
            }
            other => panic!("expected Protocol, got {other:?}"),
        }
    }

    #[test]
    fn silent_peer_is_bounded_by_the_connect_timeout() {
        // Accepts, then says nothing. The handshake must give up within
        // (about) the configured timeout — never hang.
        let addr = hostile(|s| {
            std::thread::sleep(Duration::from_secs(5));
            drop(s);
        });
        let started = std::time::Instant::now();
        let err = connect_worker(&addr, short()).unwrap_err();
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "handshake took {:?}",
            started.elapsed()
        );
        assert!(
            matches!(err, HandshakeError::Frame(FrameError::Io(_))),
            "{err:?}"
        );
    }

    #[test]
    fn unreachable_worker_is_a_typed_connect_error() {
        // A listener we immediately drop: the port is (momentarily)
        // nothing, so connecting must fail fast and typed.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        match connect_worker(&addr, short()) {
            Err(HandshakeError::Connect(m)) => assert!(m.contains("connect"), "{m}"),
            other => panic!("expected Connect, got {other:?}"),
        }
    }

    #[test]
    fn launch_exhausts_dead_candidates_into_one_typed_spawn_error() {
        // Two dead addresses: launch_shard fails over internally, then
        // surfaces one Spawn error naming both failures — without
        // burning the supervisor's retry budget per dead host.
        let dead = |l: TcpListener| l.local_addr().unwrap().to_string();
        let workers = vec![
            dead(TcpListener::bind("127.0.0.1:0").unwrap()),
            dead(TcpListener::bind("127.0.0.1:0").unwrap()),
        ];
        let mut transport = TcpShardTransport::new(workers, short());
        let model = Arc::new(decay(5, 1.0));
        let deps = Arc::new(ModelDeps::compile(&model));
        let cfg = SimConfig::new(2, 1.0).quantum(0.5).sample_period(0.5);
        let spec = ShardSpec::from_config(
            &cfg,
            cwcsim::plan::ShardRange {
                shard: 0,
                first_instance: 0,
                count: 2,
            },
        );
        let (tx, _rx) = mpsc::sync_channel(4);
        let err = transport
            .launch_shard(
                model,
                deps,
                &spec,
                &Steering::new(),
                tx,
                ShardActivity::new(),
            )
            .unwrap_err();
        assert!(matches!(err.kind, ShardErrorKind::Spawn(_)), "{err}");
        assert!(err.to_string().contains("no live worker"), "{err}");
        assert!(transport.alive_workers().is_empty());
        assert!(transport.placements().is_empty());
    }

    #[test]
    fn loopback_daemon_run_matches_single_process_bit_for_bit() {
        // One in-process daemon, two shards over TCP: the merged rows
        // and summary must equal the single-process run exactly, and
        // both placements must be recorded against worker 0.
        let daemon = WorkerDaemon::bind("127.0.0.1:0", 2).unwrap();
        let addr = daemon.local_addr().unwrap().to_string();
        std::thread::spawn(move || daemon.run());

        let model = Arc::new(decay(30, 1.0));
        let cfg = SimConfig::new(6, 2.0)
            .quantum(0.5)
            .sample_period(0.25)
            .sim_workers(2)
            .seed(77);
        let single = run_simulation(Arc::clone(&model), &cfg).unwrap();

        let sharded_cfg = cfg
            .shards(2)
            .transport(cwcsim::TransportKind::Tcp)
            .workers(vec![addr]);
        let mut transport = TcpShardTransport::from_config(&sharded_cfg);
        let report = run_simulation_sharded_with(
            Arc::clone(&model),
            &sharded_cfg,
            &Steering::new(),
            &mut transport,
        )
        .unwrap();

        assert_eq!(report.rows, single.rows);
        assert_eq!(report.events, single.events);
        let placements = transport.placements();
        assert_eq!(placements.len(), 2);
        assert!(placements.iter().all(|p| p.worker == 0 && p.attempt == 0));
    }
}
