//! The real multi-process shard transport and the `cwc-shard` worker.
//!
//! `cwcsim::coordinator` defines the sharded farm's machinery behind the
//! `ShardTransport` seam and ships an in-process (thread) transport;
//! this module provides the production one: every shard is a real child
//! OS process running the `cwc-shard` worker binary (repo root,
//! `src/bin/cwc-shard.rs`), spoken to over stdio with length-prefixed
//! wire-v7 frames. The same worker body ([`serve_shard`]) also serves
//! TCP connections in the `cwc-workerd` network daemon (see
//! [`crate::net`]) — the protocol below is transport-agnostic.
//!
//! ## Protocol
//!
//! Every frame is a `u32` little-endian byte length followed by that
//! many bytes of a standard enveloped wire-v7 message (magic, version,
//! payload — see [`crate::wire`]).
//!
//! ```text
//! coordinator ──stdin──▶ shard:   Job(model + ShardSpec + deps) [Terminate]
//! shard ──stdout──▶ coordinator:  (Cut | Progress)* (cuts in grid order)
//!                                 End{events, summary} | Error(message)
//! ```
//!
//! The job carries the model's pre-compiled dependency graph
//! ([`ModelDeps`], wire v7): the coordinator compiles once per run and
//! every shard attempt — local child or remote daemon — reuses it, so
//! a requeued slice never pays a recompile.
//!
//! `Progress` frames are heartbeats, emitted every
//! `ShardSpec::heartbeat_period` seconds from a side thread: the reader
//! feeds them to the supervisor's [`ShardActivity`] clock (they carry
//! the cut count purely as a diagnostic) so the watchdog can tell a
//! shard that is *slow* (heartbeats flowing, no cut yet) from one that
//! is *stalled* (no frame of any kind for `SimConfig::shard_timeout`).
//!
//! A shard that exits without `End` or `Error` is a crash; the
//! coordinator's reader surfaces it as a typed
//! [`ShardError`] (exit status and captured stderr
//! attached), never a hang. A truncated or length-corrupt frame becomes
//! [`ShardErrorKind::Frame`] with the byte offset of the offending
//! frame. Failures feed the shard supervisor
//! (`cwcsim::supervisor::ShardSupervisor`), which requeues the slice on
//! a fresh child within the configured retry budget — deterministic
//! per-instance seeding makes the replay bit-for-bit.
//! [`Steering::terminate`] reaches children as a `Terminate` frame:
//! each child's control thread flips its local steering flag and the
//! shard drains at the next quantum boundaries, still ending with a
//! well-formed `End` frame.
//!
//! ## Fault injection
//!
//! Every failure mode above can be injected on purpose via the
//! [`FAULT_ENV`](crate::fault::FAULT_ENV) environment variable on the
//! worker (see [`crate::fault`]): crash after k cuts, stall forever,
//! corrupt frame, garbage on stdout, delayed start. The harness lives
//! in [`serve_shard`] itself so the in-tree recovery tests and the CI
//! fault-injection smoke leg exercise the exact production code paths.
//!
//! [`Steering::terminate`]: cwcsim::Steering::terminate
//! [`ShardActivity`]: cwcsim::coordinator::ShardActivity

use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use cwc::model::Model;
use cwcsim::config::{SimConfig, TransportKind};
use cwcsim::coordinator::{
    run_shard, run_simulation_sharded_with, InProcessTransport, ShardActivity, ShardEnd,
    ShardError, ShardErrorKind, ShardFeed, ShardHandle, ShardMsg, ShardSpec, ShardTransport,
};
use cwcsim::merge::RunSummary;
use cwcsim::runner::{SimError, SimReport};
use cwcsim::sim_farm::Steering;
use gillespie::deps::ModelDeps;
use gillespie::trajectory::Cut;

use crate::fault::{FaultKind, FaultPlan};
use crate::wire::{self, Wire, WireError, WireReader};

/// Environment variable overriding the `cwc-shard` binary location.
pub const SHARD_BIN_ENV: &str = "CWC_SHARD_BIN";

/// Frames the coordinator sends to a shard (over its stdin).
#[derive(Debug, Clone)]
pub enum ToShard {
    /// The work assignment: the full model plus the shard's spec
    /// (boxed: a job dwarfs the terminate variant).
    Job(Box<ShardJob>),
    /// Steering termination: drain at the next quantum boundaries.
    Terminate,
}

/// A shard's work assignment.
#[derive(Debug, Clone)]
pub struct ShardJob {
    /// The model to simulate (shipped whole — shards accept arbitrary
    /// models, not just registry names).
    pub model: Model,
    /// The shard's slice and run parameters.
    pub spec: ShardSpec,
    /// The model's pre-compiled dependency graph (wire v7). When
    /// present the worker validates it against `model` and reuses it
    /// instead of recompiling per attempt — the coordinator compiles
    /// once and every shard, every retry, rides that one compilation.
    /// `None` keeps a worker self-sufficient (it compiles locally).
    pub deps: Option<ModelDeps>,
}

/// Frames a shard sends to the coordinator (over its stdout).
#[derive(Debug, Clone)]
pub enum ToCoordinator {
    /// An aligned partial cut over the shard's instances, in grid order.
    Cut(Cut),
    /// End of stream: the shard finished (or drained after termination).
    End {
        /// Reactions fired across the shard's trajectories.
        events: u64,
        /// The shard's mergeable partial statistics.
        summary: RunSummary,
    },
    /// The shard hit a simulation error (bad engine/model pairing, node
    /// panic); no further frames follow.
    Error(String),
    /// Heartbeat: the shard is alive and has written this many cuts so
    /// far. Emitted every `ShardSpec::heartbeat_period` seconds; the
    /// coordinator's reader feeds it to the watchdog's activity clock
    /// and never forwards it downstream.
    Progress {
        /// Cuts written so far (diagnostic only).
        cuts: u64,
    },
}

impl Wire for ShardJob {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.model.encode(buf);
        self.spec.encode(buf);
        self.deps.encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ShardJob {
            model: Model::decode(r)?,
            spec: ShardSpec::decode(r)?,
            deps: Option::decode(r)?,
        })
    }
}

/// Tag 0 = job, 1 = terminate.
impl Wire for ToShard {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ToShard::Job(job) => {
                buf.push(0);
                job.encode(buf);
            }
            ToShard::Terminate => buf.push(1),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(ToShard::Job(Box::new(ShardJob::decode(r)?))),
            1 => Ok(ToShard::Terminate),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// Tag 0 = cut, 1 = end, 2 = error, 3 = progress (heartbeat, wire v6).
impl Wire for ToCoordinator {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ToCoordinator::Cut(cut) => {
                buf.push(0);
                cut.encode(buf);
            }
            ToCoordinator::End { events, summary } => {
                buf.push(1);
                events.encode(buf);
                summary.encode(buf);
            }
            ToCoordinator::Error(msg) => {
                buf.push(2);
                msg.encode(buf);
            }
            ToCoordinator::Progress { cuts } => {
                buf.push(3);
                cuts.encode(buf);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(ToCoordinator::Cut(Cut::decode(r)?)),
            1 => Ok(ToCoordinator::End {
                events: u64::decode(r)?,
                summary: RunSummary::decode(r)?,
            }),
            2 => Ok(ToCoordinator::Error(String::decode(r)?)),
            3 => Ok(ToCoordinator::Progress {
                cuts: u64::decode(r)?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// Error reading or writing a length-prefixed frame. The
/// offset-carrying variants pinpoint *where* in the byte stream a frame
/// went bad — the coordinator turns them into
/// [`ShardErrorKind::Frame`] with the shard id attached.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The frame's payload failed to decode.
    Wire(WireError),
    /// The stream ended inside a frame (mid-length-prefix or
    /// mid-payload); `offset` is the byte position where the truncated
    /// frame started.
    Truncated {
        /// Byte offset of the truncated frame's first byte.
        offset: u64,
        /// Where inside the frame the stream gave out.
        detail: String,
    },
    /// A length prefix exceeded [`MAX_FRAME_LEN`] — a corrupt or
    /// hostile stream; `offset` is the byte position of the prefix.
    BadLength {
        /// Byte offset of the corrupt length prefix.
        offset: u64,
        /// The claimed payload length.
        len: u32,
    },
}

impl FrameError {
    /// The byte offset of the offending frame, when the error pins one
    /// down (truncation and length corruption do; generic I/O and
    /// payload-decode errors rely on the caller's own count).
    pub fn offset(&self) -> Option<u64> {
        match self {
            FrameError::Truncated { offset, .. } | FrameError::BadLength { offset, .. } => {
                Some(*offset)
            }
            FrameError::Io(_) | FrameError::Wire(_) => None,
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::Wire(e) => write!(f, "frame decode error: {e}"),
            FrameError::Truncated { detail, .. } => write!(f, "truncated frame: {detail}"),
            FrameError::BadLength { len, .. } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one length-prefixed enveloped frame and flushes.
///
/// # Errors
///
/// Returns the underlying I/O error (e.g. `EPIPE` when the peer died).
pub fn write_frame<T: Wire>(w: &mut impl Write, value: &T) -> io::Result<()> {
    let bytes = wire::to_bytes(value);
    w.write_all(
        &u32::try_from(bytes.len())
            .expect("frame fits u32")
            .to_le_bytes(),
    )?;
    w.write_all(&bytes)?;
    w.flush()
}

/// Upper bound on a single frame's payload (a corrupt or hostile length
/// prefix must not trigger a multi-gigabyte allocation before the
/// payload is even read). Generous: the largest legitimate frames are a
/// whole model or a wide cut, both far below this.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Reads one length-prefixed frame; `Ok(None)` on clean EOF at a frame
/// boundary.
///
/// # Errors
///
/// [`FrameError::Truncated`] on EOF mid-frame, [`FrameError::BadLength`]
/// on a length prefix beyond [`MAX_FRAME_LEN`], [`FrameError::Io`] on
/// other stream failures, [`FrameError::Wire`] on a malformed payload.
pub fn read_frame<T: Wire>(r: &mut impl Read) -> Result<Option<T>, FrameError> {
    read_frame_at(r, &mut 0)
}

/// Like [`read_frame`], tracking the stream position: `offset` is
/// advanced past each complete frame, so across calls it is the byte
/// offset of the next frame — and, on error, the offset baked into
/// [`FrameError::Truncated`]/[`FrameError::BadLength`] (or the failed
/// frame's start for the other variants, still in `offset`) locates the
/// corruption in the shard's output stream.
///
/// # Errors
///
/// See [`read_frame`].
pub fn read_frame_at<T: Wire>(
    r: &mut impl Read,
    offset: &mut u64,
) -> Result<Option<T>, FrameError> {
    let at = *offset;
    let mut len = [0u8; 4];
    // Distinguish clean EOF (no bytes of the next frame) from truncation.
    let mut filled = 0;
    while filled < len.len() {
        match r.read(&mut len[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(FrameError::Truncated {
                    offset: at,
                    detail: format!("EOF after {filled} of 4 length-prefix bytes"),
                })
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::BadLength { offset: at, len });
    }
    let len = len as usize;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated {
                offset: at,
                detail: format!("EOF inside a {len}-byte payload"),
            }
        } else {
            FrameError::Io(e)
        }
    })?;
    *offset = at + 4 + len as u64;
    wire::from_bytes(&payload)
        .map(Some)
        .map_err(FrameError::Wire)
}

/// Error from [`serve_shard`].
#[derive(Debug)]
pub enum ServeError {
    /// A frame could not be read or written.
    Frame(FrameError),
    /// The input stream violated the protocol (e.g. no leading job).
    Protocol(String),
    /// An injected fault fired (see [`crate::fault`]); the worker binary
    /// exits with a distinct status so a harness-killed child is
    /// distinguishable from a genuine failure in CI logs.
    Fault(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Frame(e) => write!(f, "{e}"),
            ServeError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServeError::Fault(m) => write!(f, "injected fault: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<FrameError> for ServeError {
    fn from(e: FrameError) -> Self {
        ServeError::Frame(e)
    }
}

/// The `cwc-shard` worker body: reads a [`ToShard::Job`] frame from
/// `input`, runs the shard's slice through the standard farm + alignment
/// pipeline, and streams [`ToCoordinator`] frames to `output` — cuts in
/// grid order, `Progress` heartbeats every `spec.heartbeat_period`
/// seconds from a side thread, and finally `End`. Further `input` frames
/// are watched on a control thread so a `Terminate` drains the shard at
/// the next quantum boundaries (EOF on `input` just ends the watching).
/// A simulation error becomes a final [`ToCoordinator::Error`] frame and
/// `Ok(())` — the coordinator owns the typed surfacing; `Err` is
/// reserved for protocol/stream failures and fired injected faults.
///
/// A [`FaultPlan`] targeting this shard/attempt (from
/// [`FAULT_ENV`](crate::fault::FAULT_ENV)) is honoured here — see
/// [`crate::fault`] for the failure modes. A fired `stall` fault never
/// returns: the worker goes silent and stays alive until killed, which
/// is exactly what the coordinator's watchdog must be able to handle.
///
/// Takes any `Read`/`Write` pair, so tests can drive the full protocol
/// through in-memory buffers without spawning a process.
///
/// # Errors
///
/// Returns [`ServeError`] on a malformed input stream, a malformed
/// fault plan, a fired (non-stall) fault, or when `output` fails.
pub fn serve_shard<R, W>(mut input: R, mut output: W) -> Result<(), ServeError>
where
    R: Read + Send + 'static,
    W: Write + Send,
{
    let job = match read_frame::<ToShard>(&mut input)? {
        Some(ToShard::Job(job)) => *job,
        Some(ToShard::Terminate) => {
            return Err(ServeError::Protocol("terminate before job".into()))
        }
        None => return Err(ServeError::Protocol("empty input stream".into())),
    };
    // Re-validate the shipped model before running anything (the wire
    // decoder only checks structure): an invalid model is a graceful
    // Error frame for the coordinator, not a worker panic.
    if let Err(e) = job.model.validate() {
        write_frame(
            &mut output,
            &ToCoordinator::Error(format!("invalid model: {e}")),
        )
        .map_err(|e| ServeError::Frame(FrameError::Io(e)))?;
        return Ok(());
    }
    // Resolve the dependency graph. Shipped deps (wire v7) are checked
    // against the model — a mismatched payload is a graceful Error
    // frame, like an invalid model — and reused as-is; only a job
    // without them pays a worker-side compile.
    let deps = match job.deps {
        Some(d) => match d.validate_for(&job.model) {
            Ok(()) => Arc::new(d),
            Err(e) => {
                write_frame(
                    &mut output,
                    &ToCoordinator::Error(format!("invalid model deps: {e}")),
                )
                .map_err(|e| ServeError::Frame(FrameError::Io(e)))?;
                return Ok(());
            }
        },
        None => Arc::new(ModelDeps::compile(&job.model)),
    };
    // Arm the fault-injection harness for this shard/attempt, if any.
    let fault = FaultPlan::from_env()
        .map_err(|e| ServeError::Protocol(format!("invalid fault plan: {e}")))?
        .filter(|p| p.applies(job.spec.range.shard as u64, job.spec.attempt));
    if let Some(p) = &fault {
        if p.kind == FaultKind::DelayStart {
            // Before the heartbeat thread exists: the delay is fully
            // silent, so a long enough one trips the watchdog on a
            // shard that never even started.
            std::thread::sleep(Duration::from_millis(p.ms));
        }
    }

    // Control thread: later frames can only be Terminate (or EOF when the
    // coordinator has nothing more to say). Detached on purpose — it ends
    // with the input stream, at the latest when the process exits.
    let steering = Steering::new();
    let steer = steering.clone();
    std::thread::spawn(move || loop {
        match read_frame::<ToShard>(&mut input) {
            Ok(Some(ToShard::Terminate)) => steer.terminate(),
            Ok(Some(ToShard::Job(_))) => {} // duplicate job: ignore
            Ok(None) | Err(_) => break,
        }
    });

    let model = Arc::new(job.model);
    // The heartbeat thread and the pipeline drain share the output
    // stream; frames are whole-frame atomic under this mutex.
    let output = Mutex::new(&mut output);
    let hb_stop = AtomicBool::new(false);
    let cuts_written = AtomicU64::new(0);
    let mut write_err: Option<io::Error> = None;
    let mut fired: Option<FaultKind> = None;
    let write_steer = steering.clone();

    let result = std::thread::scope(|scope| {
        scope.spawn(|| {
            let period = Duration::from_secs_f64(job.spec.heartbeat_period.max(1e-3));
            'beat: loop {
                let wake = Instant::now() + period;
                while Instant::now() < wake {
                    if hb_stop.load(Ordering::Acquire) {
                        break 'beat;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                let frame = ToCoordinator::Progress {
                    cuts: cuts_written.load(Ordering::Relaxed),
                };
                let mut out = output.lock().expect("output mutex");
                if write_frame(&mut *out, &frame).is_err() {
                    // The coordinator is gone; the main drain will hit
                    // the same error and wind down.
                    break;
                }
            }
        });

        let result = run_shard(model, Arc::clone(&deps), &job.spec, &steering, |msg| {
            if write_err.is_some() || fired.is_some() {
                return; // coordinator gone or fault fired; draining out
            }
            if let Some(p) = &fault {
                if p.kind != FaultKind::DelayStart && cuts_written.load(Ordering::Relaxed) >= p.cuts
                {
                    // Fire at this write instead of performing it.
                    fired = Some(p.kind);
                    let mut out = output.lock().expect("output mutex");
                    match p.kind {
                        // A frame-shaped lie: valid length prefix, garbage
                        // payload — decodes to BadMagic at the coordinator.
                        FaultKind::CorruptFrame => {
                            let _ = out.write_all(&16u32.to_le_bytes());
                            let _ = out.write_all(&[0xAB; 16]);
                            let _ = out.flush();
                        }
                        // Not even a frame: raw bytes whose "length
                        // prefix" is absurd.
                        FaultKind::Garbage => {
                            let _ = out.write_all(b"\xFF\xFF\xFF\xFFnot a frame at all");
                            let _ = out.flush();
                        }
                        // Crash and stall write nothing; a stall also
                        // silences the heartbeats — only the watchdog
                        // can catch it.
                        FaultKind::Crash | FaultKind::Stall | FaultKind::DelayStart => {}
                    }
                    if p.kind == FaultKind::Stall {
                        hb_stop.store(true, Ordering::Release);
                    }
                    // Finish the simulation quickly (and quietly).
                    write_steer.terminate();
                    return;
                }
            }
            let frame = match msg {
                ShardMsg::Cut(cut) => ToCoordinator::Cut(cut),
                ShardMsg::End(ShardEnd { events, summary }) => {
                    ToCoordinator::End { events, summary }
                }
            };
            let mut out = output.lock().expect("output mutex");
            if let Err(e) = write_frame(&mut *out, &frame) {
                // Nobody is listening (EPIPE): stop simulating at the next
                // quantum boundaries instead of burning CPU to the horizon
                // as an orphan.
                write_err = Some(e);
                write_steer.terminate();
            } else if matches!(frame, ToCoordinator::Cut(_)) {
                cuts_written.fetch_add(1, Ordering::Relaxed);
            }
        });
        hb_stop.store(true, Ordering::Release);
        result
    });

    if let Some(kind) = fired {
        if kind == FaultKind::Stall {
            // Stay alive, stay silent, forever: the coordinator's
            // watchdog (or a kill) is the only way out.
            loop {
                std::thread::sleep(Duration::from_secs(60));
            }
        }
        return Err(ServeError::Fault(kind.to_string()));
    }
    if let Some(e) = write_err {
        return Err(ServeError::Frame(FrameError::Io(e)));
    }
    if let Err(e) = result {
        let mut out = output.lock().expect("output mutex");
        write_frame(&mut *out, &ToCoordinator::Error(e.to_string()))
            .map_err(|e| ServeError::Frame(FrameError::Io(e)))?;
    }
    Ok(())
}

/// The coordinator-side frame pump: decodes a shard worker's output
/// stream and feeds the supervisor until the stream ends one way or
/// another. Both remote transports drive their readers with it and keep
/// their own reaping and bookkeeping around it.
///
/// Every frame touches `activity` (the watchdog's liveness clock).
/// `Progress` heartbeats do nothing else; a `Cut` is forwarded into the
/// bounded `sink`, with the driver marked blocked for the duration —
/// waiting on the *coordinator* is not a stall; `End` is forwarded and
/// finishes the pump. A dropped receiver (attempt cancelled, run over)
/// finishes it quietly too. `label` names the worker in error details.
///
/// # Errors
///
/// `Sim` for a worker-reported `Error` frame, `Crashed` for EOF before
/// `End`, `Frame` (with the byte offset of the offending frame) for a
/// truncated or undecodable one.
pub(crate) fn pump_frames(
    mut input: impl Read,
    sink: &mpsc::SyncSender<ShardFeed>,
    activity: &ShardActivity,
    label: &str,
) -> Result<(), ShardErrorKind> {
    let mut offset = 0u64;
    loop {
        let frame_start = offset;
        match read_frame_at::<ToCoordinator>(&mut input, &mut offset) {
            Ok(Some(ToCoordinator::Progress { .. })) => activity.touch(),
            Ok(Some(ToCoordinator::Cut(cut))) => {
                activity.touch();
                activity.set_blocked(true);
                let delivered = sink.send(ShardFeed::Msg(ShardMsg::Cut(cut))).is_ok();
                activity.set_blocked(false);
                if !delivered {
                    return Ok(());
                }
            }
            Ok(Some(ToCoordinator::End { events, summary })) => {
                activity.touch();
                let _ = sink.send(ShardFeed::Msg(ShardMsg::End(ShardEnd { events, summary })));
                return Ok(());
            }
            Ok(Some(ToCoordinator::Error(msg))) => return Err(ShardErrorKind::Sim(msg)),
            Ok(None) => {
                return Err(ShardErrorKind::Crashed(format!(
                    "{label} ended its stream before its end-of-stream report"
                )))
            }
            Err(e) => {
                return Err(ShardErrorKind::Frame {
                    offset: e.offset().unwrap_or(frame_start),
                    detail: format!("{label}: {e}"),
                })
            }
        }
    }
}

/// A shard child's stdin, shared between the steering watcher and the
/// launcher (None once deliberately closed).
type SharedStdin = Arc<Mutex<Option<ChildStdin>>>;

/// The multi-process transport: one `cwc-shard` child per shard
/// attempt. The supervisor calls [`ShardTransport::launch_shard`] again
/// on every requeue, so each child is single-use; cancellation closes
/// the child's stdin and kills the process (which unblocks the reader
/// thread at EOF).
#[derive(Debug)]
pub struct ProcessTransport {
    binary: PathBuf,
    env: Vec<(String, String)>,
}

impl ProcessTransport {
    /// Resolves the worker binary — [`SHARD_BIN_ENV`] first, then
    /// `cwc-shard` next to the current executable (walking up through
    /// `examples/`/`deps/` build directories).
    ///
    /// # Errors
    ///
    /// Returns a [`ShardError`] (kind `Spawn`) when no binary is found.
    pub fn new() -> Result<Self, ShardError> {
        Self::resolve_binary()
            .map(Self::with_binary)
            .ok_or_else(|| {
                ShardError::new(
                    0,
                    ShardErrorKind::Spawn(format!(
                        "cwc-shard worker binary not found (build it with \
                 `cargo build --bin cwc-shard` or set {SHARD_BIN_ENV})"
                    )),
                )
            })
    }

    /// Uses an explicit worker binary path (no resolution, no existence
    /// check — a bad path surfaces as a spawn failure at launch).
    pub fn with_binary(binary: impl Into<PathBuf>) -> Self {
        ProcessTransport {
            binary: binary.into(),
            env: Vec::new(),
        }
    }

    /// Sets an environment variable on every child this transport
    /// spawns. This is how tests arm the fault-injection harness
    /// ([`crate::fault::FAULT_ENV`]) per-run without touching the test
    /// process's own environment (which other tests share).
    #[must_use]
    pub fn env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.env.push((key.into(), value.into()));
        self
    }

    /// The worker binary this transport spawns.
    pub fn binary(&self) -> &std::path::Path {
        &self.binary
    }

    fn resolve_binary() -> Option<PathBuf> {
        if let Ok(p) = std::env::var(SHARD_BIN_ENV) {
            let p = PathBuf::from(p);
            if p.is_file() {
                return Some(p);
            }
        }
        let name = format!("cwc-shard{}", std::env::consts::EXE_SUFFIX);
        let exe = std::env::current_exe().ok()?;
        let mut dir = exe.parent()?.to_path_buf();
        // target/{debug,release}[/deps|/examples]/<exe>: check siblings,
        // then up to two parent build directories.
        for _ in 0..3 {
            let candidate = dir.join(&name);
            if candidate.is_file() {
                return Some(candidate);
            }
            dir = dir.parent()?.to_path_buf();
        }
        None
    }
}

impl ShardTransport for ProcessTransport {
    /// Spawns one `cwc-shard` child for `spec`'s slice; the returned
    /// handle's reader thread streams its frames into `sink` and feeds
    /// the watchdog's `activity` clock (heartbeats included), and its
    /// cancel hook closes the child's stdin and kills the process.
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
        let job = ShardJob {
            model: (*model).clone(),
            spec: spec.clone(),
            deps: Some((*deps).clone()),
        };
        let spawn_err = |m: String| ShardError::new(shard, ShardErrorKind::Spawn(m));
        let mut cmd = Command::new(&self.binary);
        cmd.stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        for (k, v) in &self.env {
            cmd.env(k, v);
        }
        let mut child: Child = cmd
            .spawn()
            .map_err(|e| spawn_err(format!("{}: {e}", self.binary.display())))?;
        let mut stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let stderr_pipe = child.stderr.take().expect("piped stderr");
        if let Err(e) = write_frame(&mut stdin, &ToShard::Job(Box::new(job))) {
            let _ = child.kill();
            let _ = child.wait();
            return Err(spawn_err(format!("failed to send job: {e}")));
        }
        // The stdin handle stays open (shared with the steering watcher)
        // so a Terminate frame can still reach the child mid-run.
        let stdin: SharedStdin = Arc::new(Mutex::new(Some(stdin)));
        // The child itself is shared with the cancel hook so a stalled
        // worker can be killed outright; the reader reaps it.
        let child = Arc::new(Mutex::new(Some(child)));
        // A failed Terminate write is not swallowed: it is recorded here
        // and attached to whatever error the reader surfaces, so a dead
        // pipe during steering stays visible.
        let terminate_note: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));

        // Drain stderr from the start: a child blocked on a full stderr
        // pipe would stop emitting stdout frames — the exact hang the
        // typed-error contract rules out. Only a bounded head is kept
        // for crash reports; the thread dies with the pipe.
        let stderr_buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let mut pipe = stderr_pipe;
            let buf = Arc::clone(&stderr_buf);
            std::thread::spawn(move || {
                let mut chunk = [0u8; 4096];
                loop {
                    match pipe.read(&mut chunk) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            let mut b = buf.lock().expect("stderr buffer mutex");
                            if b.len() < 64 * 1024 {
                                b.extend_from_slice(&chunk[..n]);
                            }
                        }
                    }
                }
            });
        }

        let watch = {
            let stdin = Arc::clone(&stdin);
            let note = Arc::clone(&terminate_note);
            steering.watch(move || {
                if let Some(pipe) = stdin.lock().expect("stdin mutex").as_mut() {
                    if let Err(e) = write_frame(pipe, &ToShard::Terminate) {
                        *note.lock().expect("terminate note mutex") =
                            Some(format!("terminate frame write failed: {e}"));
                    }
                }
            })
        };

        let cancel = {
            let stdin = Arc::clone(&stdin);
            let child = Arc::clone(&child);
            move || {
                // Closing stdin first gives a healthy child a clean EOF;
                // the kill handles the unhealthy (stalled) one — and
                // unblocks the reader thread at stdout EOF either way.
                *stdin.lock().expect("stdin mutex") = None;
                if let Some(c) = child.lock().expect("child mutex").as_mut() {
                    let _ = c.kill();
                }
            }
        };

        let reader_stdin = Arc::clone(&stdin);
        let reader_child = Arc::clone(&child);
        let join = std::thread::spawn(move || {
            let _hold_stdin = reader_stdin; // closed when the reader ends
            let result = pump_frames(stdout, &sink, &activity, "cwc-shard child");
            drop(watch);
            // Reap the child; enrich failures with its status, stderr
            // and any recorded Terminate-write failure.
            let exit = match reader_child.lock().expect("child mutex").take() {
                Some(mut c) => {
                    // A child that stopped writing but never exits would
                    // turn wait() into the hang the typed-error contract
                    // rules out; after EOF the only reason to linger is a
                    // wedged child, so put it down first.
                    if result.is_err() {
                        let _ = c.kill();
                    }
                    Some(c.wait())
                }
                None => None,
            };
            if let Err(kind) = result {
                let kind = match kind {
                    ShardErrorKind::Sim(m) => ShardErrorKind::Sim(m),
                    ShardErrorKind::Crashed(m) => {
                        ShardErrorKind::Crashed(enrich(m, &exit, &stderr_buf, &terminate_note))
                    }
                    ShardErrorKind::Frame { offset, detail } => ShardErrorKind::Frame {
                        offset,
                        detail: enrich(detail, &exit, &stderr_buf, &terminate_note),
                    },
                    other => other,
                };
                let _ = sink.send(ShardFeed::Failed(ShardError::new(shard, kind)));
            }
        });
        Ok(ShardHandle::new(shard, join).with_cancel(cancel))
    }
}

/// Appends a child's exit status, captured-stderr tail and any recorded
/// Terminate-write failure to an error detail string.
fn enrich(
    mut detail: String,
    exit: &Option<io::Result<std::process::ExitStatus>>,
    stderr_buf: &Mutex<Vec<u8>>,
    terminate_note: &Mutex<Option<String>>,
) -> String {
    if let Some(Ok(status)) = exit {
        detail.push_str(&format!(" (exit: {status}"));
        let stderr =
            String::from_utf8_lossy(&stderr_buf.lock().expect("stderr buffer mutex")).into_owned();
        let stderr = stderr.trim();
        if !stderr.is_empty() {
            let tail: String = stderr.chars().take(400).collect();
            detail.push_str(&format!(", stderr: {tail}"));
        }
        detail.push(')');
    }
    if let Some(note) = terminate_note.lock().expect("terminate note mutex").take() {
        detail.push_str(&format!("; {note}"));
    }
    detail
}

/// Runs a sharded simulation with real `cwc-shard` child processes (one
/// per shard; `cfg.shards = 1` degenerates to a single in-process shard
/// with no child spawn) and merges the shards' partial cuts and
/// mergeable streaming statistics. Bit-for-bit identical [`StatRow`]s to
/// `cwcsim::run_simulation` for any shard count.
///
/// [`StatRow`]: cwcsim::StatRow
///
/// # Errors
///
/// Returns [`SimError`] on invalid input, a failed shard (typed
/// [`SimError::Shard`]) or a node panic.
pub fn run_simulation_sharded(model: Arc<Model>, cfg: &SimConfig) -> Result<SimReport, SimError> {
    run_simulation_sharded_steered(model, cfg, &Steering::new())
}

/// Like [`run_simulation_sharded`], controlled by a `Steering` handle:
/// termination reaches every child as a `Terminate` frame and the
/// drained report covers whatever completed across all shards.
///
/// # Errors
///
/// See [`run_simulation_sharded`].
pub fn run_simulation_sharded_steered(
    model: Arc<Model>,
    cfg: &SimConfig,
    steering: &Steering,
) -> Result<SimReport, SimError> {
    match cfg.transport {
        // A TCP farm is honoured even for one shard: the point of
        // selecting it is running the work on the listed workers.
        TransportKind::Tcp => {
            let mut transport = crate::net::TcpShardTransport::from_config(cfg);
            run_simulation_sharded_with(model, cfg, steering, &mut transport)
        }
        TransportKind::Process if cfg.shards <= 1 => {
            run_simulation_sharded_with(model, cfg, steering, &mut InProcessTransport)
        }
        TransportKind::Process => {
            let mut transport = ProcessTransport::new().map_err(SimError::Shard)?;
            run_simulation_sharded_with(model, cfg, steering, &mut transport)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biomodels::simple::decay;
    use std::io::Cursor;

    fn job(instances: u64, shard_count: u64, first: u64) -> ShardJob {
        let cfg = SimConfig::new(instances, 2.0)
            .quantum(0.5)
            .sample_period(0.25)
            .sim_workers(2)
            .seed(9);
        ShardJob {
            model: decay(30, 1.0),
            spec: ShardSpec::from_config(
                &cfg,
                cwcsim::plan::ShardRange {
                    shard: 0,
                    first_instance: first,
                    count: shard_count,
                },
            ),
            deps: None,
        }
    }

    /// Decodes every frame in `output`, dropping `Progress` heartbeats:
    /// they are timing-dependent liveness signals, so counting them
    /// would make the exact-frame assertions below machine-speed flaky.
    fn frames_from(output: &[u8]) -> Vec<ToCoordinator> {
        let mut cur = Cursor::new(output.to_vec());
        let mut frames = Vec::new();
        while let Some(f) = read_frame::<ToCoordinator>(&mut cur).expect("well-formed output") {
            if !matches!(f, ToCoordinator::Progress { .. }) {
                frames.push(f);
            }
        }
        frames
    }

    fn cut(time: f64) -> ToCoordinator {
        ToCoordinator::Cut(Cut {
            time,
            values: vec![vec![1], vec![2]],
        })
    }

    fn end() -> ToCoordinator {
        ToCoordinator::End {
            events: 5,
            summary: RunSummary::new(Vec::new()),
        }
    }

    fn stream(frames: &[ToCoordinator]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for f in frames {
            write_frame(&mut bytes, f).unwrap();
        }
        bytes
    }

    /// Pumps `input` (then EOF) into a roomy sink; returns the pump's
    /// verdict and what it forwarded.
    fn pump(input: Vec<u8>) -> (Result<(), ShardErrorKind>, Vec<ShardFeed>) {
        let (tx, rx) = mpsc::sync_channel(16);
        let result = pump_frames(
            Cursor::new(input),
            &tx,
            &ShardActivity::new(),
            "test worker",
        );
        drop(tx);
        (result, rx.iter().collect())
    }

    #[test]
    fn pump_heartbeat_touches_the_clock_and_forwards_nothing() {
        let activity = ShardActivity::new();
        std::thread::sleep(Duration::from_millis(100));
        let silent_before = activity.silent_for();
        let (tx, rx) = mpsc::sync_channel(16);
        let input = stream(&[ToCoordinator::Progress { cuts: 3 }]);
        let result = pump_frames(Cursor::new(input), &tx, &activity, "test worker");
        // Without the touch the clock could only have grown.
        assert!(activity.silent_for() < silent_before);
        assert!(matches!(result, Err(ShardErrorKind::Crashed(_))));
        drop(tx);
        assert_eq!(rx.iter().count(), 0);
    }

    #[test]
    fn pump_forwards_cuts_in_order_then_a_clean_end() {
        let (result, feeds) = pump(stream(&[cut(0.0), cut(0.5), end()]));
        assert!(result.is_ok(), "{result:?}");
        let times: Vec<f64> = feeds
            .iter()
            .filter_map(|f| match f {
                ShardFeed::Msg(ShardMsg::Cut(c)) => Some(c.time),
                _ => None,
            })
            .collect();
        assert_eq!(times, [0.0, 0.5]);
        assert_eq!(feeds.len(), 3);
        assert!(
            matches!(&feeds[2], ShardFeed::Msg(ShardMsg::End(e)) if e.events == 5),
            "{feeds:?}"
        );
    }

    #[test]
    fn pump_turns_an_error_frame_into_a_sim_failure() {
        let (result, feeds) = pump(stream(&[cut(0.0), ToCoordinator::Error("bad".into())]));
        assert!(matches!(result, Err(ShardErrorKind::Sim(m)) if m == "bad"));
        assert_eq!(feeds.len(), 1);
    }

    #[test]
    fn pump_reports_eof_before_end_as_a_crash() {
        let (result, feeds) = pump(stream(&[cut(0.0)]));
        assert!(
            matches!(&result, Err(ShardErrorKind::Crashed(m)) if m.contains("test worker")),
            "{result:?}"
        );
        assert_eq!(feeds.len(), 1);
    }

    #[test]
    fn pump_reports_garbage_with_the_offset_of_the_bad_frame() {
        let good = stream(&[cut(0.0)]);
        // A frame-shaped lie after one good frame (undecodable payload),
        // and one ripped mid-payload: both pin the bad frame's offset.
        let mut lie = good.clone();
        lie.extend_from_slice(&16u32.to_le_bytes());
        lie.extend_from_slice(&[0xAB; 16]);
        let mut ripped = stream(&[cut(0.0), cut(0.5)]);
        ripped.pop();
        for input in [lie, ripped] {
            let (result, feeds) = pump(input);
            match result {
                Err(ShardErrorKind::Frame { offset, detail }) => {
                    assert_eq!(offset, good.len() as u64, "{detail}");
                    assert!(detail.contains("test worker"), "{detail}");
                }
                other => panic!("expected a frame error, got {other:?}"),
            }
            assert_eq!(feeds.len(), 1);
        }
    }

    #[test]
    fn pump_stops_quietly_when_the_receiver_is_gone() {
        let (tx, rx) = mpsc::sync_channel(16);
        drop(rx);
        let input = stream(&[cut(0.0), cut(0.5), end()]);
        let result = pump_frames(
            Cursor::new(input),
            &tx,
            &ShardActivity::new(),
            "test worker",
        );
        assert!(result.is_ok(), "{result:?}");
    }

    #[test]
    fn shard_job_roundtrips() {
        let j = job(8, 3, 2);
        let bytes = wire::to_bytes(&ToShard::Job(Box::new(j.clone())));
        match wire::from_bytes::<ToShard>(&bytes).unwrap() {
            ToShard::Job(back) => {
                assert_eq!(back.spec, j.spec);
                assert_eq!(back.model.rules, j.model.rules);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn serve_shard_streams_cuts_then_end_over_in_memory_pipes() {
        let j = job(4, 2, 1);
        let mut input = Vec::new();
        write_frame(&mut input, &ToShard::Job(Box::new(j.clone()))).unwrap();
        let mut output = Vec::new();
        serve_shard(Cursor::new(input), &mut output).unwrap();

        let frames = frames_from(&output);
        // Grid 0, 0.25, ..., 2.0 = 9 cuts, then End.
        assert_eq!(frames.len(), 10);
        let mut times = Vec::new();
        for f in &frames[..9] {
            match f {
                ToCoordinator::Cut(c) => {
                    assert_eq!(c.values.len(), 2, "partial cut spans the slice");
                    times.push(c.time);
                }
                other => panic!("expected cut, got {other:?}"),
            }
        }
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        match &frames[9] {
            ToCoordinator::End { events, summary } => {
                assert!(*events > 0);
                assert_eq!(summary.cuts(), 9);
                assert_eq!(summary.observables()[0].running.count(), 18);
            }
            other => panic!("expected end, got {other:?}"),
        }
    }

    /// The PR-5 leftover, closed and pinned: a job that ships its
    /// compiled [`ModelDeps`] must be served with **zero** worker-side
    /// compilations — and produce byte-for-byte the same output stream
    /// as a job that makes the worker compile locally.
    #[test]
    fn shipped_deps_serve_without_recompiling_and_match_local_compile() {
        let j = job(4, 2, 1);
        let deps = ModelDeps::compile(&j.model);

        let serve = |job: ShardJob| {
            let mut input = Vec::new();
            write_frame(&mut input, &ToShard::Job(Box::new(job))).unwrap();
            let mut output = Vec::new();
            let before = ModelDeps::thread_compile_count();
            serve_shard(Cursor::new(input), &mut output).unwrap();
            (output, ModelDeps::thread_compile_count() - before)
        };

        let mut with_deps = j.clone();
        with_deps.deps = Some(deps);
        let (shipped_out, shipped_compiles) = serve(with_deps);
        let (local_out, local_compiles) = serve(j);

        // `serve_shard` runs the farm on worker threads, but the compile
        // happens on the serving thread itself — the counter sees it.
        assert_eq!(
            shipped_compiles, 0,
            "shipped deps must not be recompiled worker-side"
        );
        assert_eq!(local_compiles, 1, "a deps-less job compiles exactly once");

        // Identical behaviour either way, heartbeat timing aside.
        let a = frames_from(&shipped_out);
        let b = frames_from(&local_out);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(wire::to_bytes(x), wire::to_bytes(y), "frame diverged");
        }
    }

    /// A deps payload that does not fit the shipped model (here: deps
    /// compiled from a different model) is a graceful `Error` frame —
    /// the coordinator sees a typed, non-retryable sim failure, the
    /// worker never panics or simulates with a bogus dependency graph.
    #[test]
    fn mismatched_shipped_deps_become_an_error_frame() {
        let mut j = job(2, 2, 0);
        let other = biomodels::cell_transport(biomodels::CellTransportParams::default());
        j.deps = Some(ModelDeps::compile(&other));
        let mut input = Vec::new();
        write_frame(&mut input, &ToShard::Job(Box::new(j))).unwrap();
        let mut output = Vec::new();
        serve_shard(Cursor::new(input), &mut output).unwrap();
        let frames = frames_from(&output);
        assert_eq!(frames.len(), 1);
        assert!(
            matches!(&frames[0], ToCoordinator::Error(m) if m.contains("invalid model deps")),
            "{frames:?}"
        );
    }

    /// Deps that are structurally sound and cover the right rules, but
    /// whose affected lists name a rule the engines keep no propensity
    /// slot for (zero rate), are refused the same way: the step loops
    /// index slots by those lists without checking again.
    #[test]
    fn shipped_deps_naming_a_slotless_rule_become_an_error_frame() {
        let mut j = job(2, 2, 0);
        // Deps compiled while every rule was live, shipped with a model
        // whose last rule has since been switched off.
        let deps = ModelDeps::compile(&j.model);
        let last = j.model.rules.len() - 1;
        assert!((0..deps.len()).any(|r| deps.same_site_affected(r).contains(&(last as u32))));
        j.model.rules[last].rate = 0.0;
        j.deps = Some(deps);
        let mut input = Vec::new();
        write_frame(&mut input, &ToShard::Job(Box::new(j))).unwrap();
        let mut output = Vec::new();
        serve_shard(Cursor::new(input), &mut output).unwrap();
        let frames = frames_from(&output);
        assert_eq!(frames.len(), 1);
        assert!(
            matches!(&frames[0], ToCoordinator::Error(m)
                if m.contains("invalid model deps") && m.contains("no propensity slot")),
            "{frames:?}"
        );
    }

    #[test]
    fn serve_shard_reports_simulation_errors_as_error_frames() {
        let mut j = job(2, 2, 0);
        // Tau-leaping a compartment model is a worker-side sim error.
        j.model = biomodels::cell_transport(biomodels::CellTransportParams::default());
        j.spec.engine = gillespie::engine::EngineKind::TauLeap { tau: 0.1 };
        let mut input = Vec::new();
        write_frame(&mut input, &ToShard::Job(Box::new(j))).unwrap();
        let mut output = Vec::new();
        serve_shard(Cursor::new(input), &mut output).unwrap();
        let frames = frames_from(&output);
        assert_eq!(frames.len(), 1);
        assert!(
            matches!(&frames[0], ToCoordinator::Error(m) if m.contains('`')),
            "{frames:?}"
        );
    }

    #[test]
    fn serve_shard_reports_invalid_models_as_error_frames() {
        let mut j = job(2, 2, 0);
        j.model = cwc::model::Model::new("empty"); // no rules: fails validate
        let mut input = Vec::new();
        write_frame(&mut input, &ToShard::Job(Box::new(j))).unwrap();
        let mut output = Vec::new();
        serve_shard(Cursor::new(input), &mut output).unwrap();
        let frames = frames_from(&output);
        assert_eq!(frames.len(), 1);
        assert!(
            matches!(&frames[0], ToCoordinator::Error(m) if m.contains("invalid model")),
            "{frames:?}"
        );
    }

    #[test]
    fn oversized_frame_lengths_are_rejected_before_allocation() {
        // A 4-byte length prefix claiming 3GiB must error out, not OOM.
        let mut bytes = (3u32 * 1024 * 1024 * 1024).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        let err = read_frame::<ToShard>(&mut Cursor::new(bytes)).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
    }

    #[test]
    fn serve_shard_rejects_streams_without_a_job() {
        let mut input = Vec::new();
        write_frame(&mut input, &ToShard::Terminate).unwrap();
        let err = serve_shard(Cursor::new(input), Vec::new()).unwrap_err();
        assert!(err.to_string().contains("terminate before job"), "{err}");
        let err = serve_shard(Cursor::new(Vec::new()), Vec::new()).unwrap_err();
        assert!(err.to_string().contains("empty input"), "{err}");
    }

    #[test]
    fn terminate_frame_before_work_drains_to_a_clean_end() {
        let j = job(4, 4, 0);
        let mut input = Vec::new();
        write_frame(&mut input, &ToShard::Job(Box::new(j))).unwrap();
        write_frame(&mut input, &ToShard::Terminate).unwrap();
        let mut output = Vec::new();
        serve_shard(Cursor::new(input), &mut output).unwrap();
        let frames = frames_from(&output);
        // However much was simulated before the flag was seen, the stream
        // stays well-formed and ends with End.
        assert!(matches!(
            frames.last().expect("at least End"),
            ToCoordinator::End { .. }
        ));
    }

    #[test]
    fn missing_worker_binary_is_a_typed_spawn_error() {
        let mut transport = ProcessTransport::with_binary("/nonexistent/cwc-shard-binary");
        let model = Arc::new(decay(10, 1.0));
        let cfg = SimConfig::new(4, 1.0)
            .quantum(0.5)
            .sample_period(0.25)
            .shards(2);
        let err =
            run_simulation_sharded_with(model, &cfg, &Steering::new(), &mut transport).unwrap_err();
        match err {
            SimError::Shard(e) => {
                assert!(matches!(e.kind, ShardErrorKind::Spawn(_)), "{e}");
            }
            other => panic!("expected shard error, got {other}"),
        }
    }

    #[test]
    fn read_frame_distinguishes_clean_eof_from_truncation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &ToShard::Terminate).unwrap();
        // Clean EOF after one frame.
        let mut cur = Cursor::new(buf.clone());
        assert!(read_frame::<ToShard>(&mut cur).unwrap().is_some());
        assert!(read_frame::<ToShard>(&mut cur).unwrap().is_none());
        // Truncation inside the frame is an error.
        let mut cur = Cursor::new(buf[..buf.len() - 1].to_vec());
        assert!(read_frame::<ToShard>(&mut cur).is_err());
    }

    #[test]
    fn read_frame_at_reports_the_byte_offset_of_corruption() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &ToShard::Terminate).unwrap();
        let first_len = buf.len() as u64;
        write_frame(&mut buf, &ToShard::Terminate).unwrap();

        // Truncated payload in the second frame: the error carries the
        // offset of the frame that broke, not of the stream head.
        let mut cur = Cursor::new(buf[..buf.len() - 1].to_vec());
        let mut offset = 0;
        assert!(read_frame_at::<ToShard>(&mut cur, &mut offset)
            .unwrap()
            .is_some());
        assert_eq!(offset, first_len);
        let err = read_frame_at::<ToShard>(&mut cur, &mut offset).unwrap_err();
        assert_eq!(err.offset(), Some(first_len), "{err}");
        assert!(
            matches!(err, FrameError::Truncated { .. }),
            "payload truncation is typed: {err}"
        );

        // A ripped length prefix is typed the same way, offset intact.
        let mut cur = Cursor::new(vec![0x01, 0x02]);
        let mut offset = 7;
        let err = read_frame_at::<ToShard>(&mut cur, &mut offset).unwrap_err();
        assert_eq!(err.offset(), Some(7));
        assert!(err.to_string().contains("length-prefix"), "{err}");

        // An absurd length prefix is BadLength at the right offset.
        let mut bytes = (3u32 * 1024 * 1024 * 1024).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        let mut offset = first_len;
        let err = read_frame_at::<ToShard>(&mut Cursor::new(bytes), &mut offset).unwrap_err();
        assert!(matches!(err, FrameError::BadLength { .. }), "{err}");
        assert_eq!(err.offset(), Some(first_len));
    }
}
