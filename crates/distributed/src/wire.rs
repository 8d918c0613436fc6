//! Versioned binary wire format for distributed streams.
//!
//! "The pipeline was also extended to implement de-serialising and
//! serialising activities without modifying the existing code": in the
//! distributed CWC simulator, stream items cross process boundaries, so
//! they are encoded to bytes at the sender and decoded at the receiver,
//! with the pipeline stages in between untouched. This module is that
//! codec: a small, explicit, little-endian format with a magic/version
//! envelope — no derive macros, every message's layout is visible and
//! testable.

use cwc::species::{Label, Species};
use cwcsim::plan::ShardRange;
use cwcsim::task::SampleBatch;
use cwcsim::ShardSpec;
use gillespie::deps::{KeptChild, ModelDeps, RuleDeps};
use gillespie::engine::EngineKind;
use gillespie::trajectory::{Cut, Row};

/// Magic bytes of an encoded message envelope.
pub const MAGIC: [u8; 4] = *b"CWCS";
/// Current wire format version. Version 2 added the engine kind to the
/// task-parameter message of the pre-sharding remote farms (that payload
/// is gone; [`ShardSpec`] carries the kind now); version 3 added the
/// adaptive-tau and hybrid engine kinds (tags 3 and 4); version 4 added
/// the sharded-farm messages — full CWC models (so `cwc-shard` child
/// processes receive arbitrary models, not a registry name), aligned
/// partial [`Cut`]s, and a mergeable partial-statistics state (a run
/// summary of Welford/histogram/P² accumulators, gone again in version
/// 9) — plus the [`crate::shard`] frame envelope around them; version 5 added the
/// batched engine kind (tag 5 + batch width); version 6 added the
/// supervision fields — the heartbeat frame
/// ([`crate::shard::ToCoordinator::Progress`], tag 3) and the
/// `attempt`/`heartbeat_period` fields of [`ShardSpec`] — so the
/// coordinator's watchdog can tell a slow shard from a stalled one and
/// a requeued slice can be targeted by the fault-injection harness;
/// version 7 added the network-transport messages — the worker
/// registration hello ([`crate::net::WorkerHello`] with protocol
/// version + capacity, so a coordinator rejects mismatched daemons at
/// connect time) and the serialized [`ModelDeps`] payload in
/// [`crate::shard::ShardJob`], so workers stop recompiling the model's
/// dependency graph on every attempt; version 8 ships the job's model as
/// model text ([`cwc::render_model`], read back by [`cwc::parse_model`])
/// in place of a structural model codec, so the text format is the one
/// way a model is read, from a file or off the wire; version 9 drops the
/// statistics from the wire — a shard's `End` frame carries its event
/// count alone and [`ShardSpec`] no longer lists the stat engines — since
/// the coordinator summarises the merged cut stream itself.
pub const VERSION: u16 = 9;

/// Error produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the decoder needed.
    UnexpectedEof,
    /// Envelope magic did not match.
    BadMagic,
    /// Envelope version is not supported.
    BadVersion(u16),
    /// A tag byte had an invalid value.
    BadTag(u8),
    /// Trailing bytes after a complete message.
    TrailingBytes(usize),
    /// A job's model text did not parse.
    Model {
        /// 1-based line of the model text.
        line: usize,
        /// The parser's message.
        message: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of input"),
            WireError::BadMagic => write!(f, "bad message magic"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag(t) => write!(f, "invalid tag byte {t}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::Model { line, message } => {
                write!(f, "model text line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Byte reader with bounds checking.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

/// Types encodable to / decodable from the wire format.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes a value, consuming bytes from `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("sized take")))
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64, i64, f64);

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = u64::decode(r)? as usize;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadTag(0xFF))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = u64::decode(r)? as usize;
        // Guard against hostile lengths: cap the pre-allocation.
        let mut v = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// A sample row travels exactly like a `Vec<u64>` (length, then the
/// values), and decodes straight into the row: a length the frame cannot
/// hold is an error before anything is allocated.
impl Wire for Row {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        for v in self.iter() {
            v.encode(buf);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = u64::decode(r)?;
        let bytes = usize::try_from(len)
            .ok()
            .and_then(|len| len.checked_mul(8))
            .ok_or(WireError::UnexpectedEof)?;
        Ok(r.take(bytes)?
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte chunk")))
            .collect())
    }
}

impl Wire for SampleBatch {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.instance.encode(buf);
        self.samples.encode(buf);
        self.events.encode(buf);
        self.finished.encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(SampleBatch {
            instance: u64::decode(r)?,
            samples: Vec::decode(r)?,
            events: u64::decode(r)?,
            finished: bool::decode(r)?,
        })
    }
}

/// The engine selector crosses the wire as a tag byte plus the kind's
/// knobs where applicable (tag 0 = SSA, 3 = adaptive-tau + epsilon,
/// 4 = hybrid + epsilon and switch threshold, 5 = batched + batch width).
/// Tags 1 and 2 are retired, never reused: they named the deleted
/// fixed-step tau-leap and first-reaction engines, and decode to
/// [`WireError::BadTag`].
impl Wire for EngineKind {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            EngineKind::Ssa => buf.push(0),
            EngineKind::AdaptiveTau { epsilon } => {
                buf.push(3);
                epsilon.encode(buf);
            }
            EngineKind::Hybrid { epsilon, threshold } => {
                buf.push(4);
                epsilon.encode(buf);
                threshold.encode(buf);
            }
            EngineKind::Batched { width } => {
                buf.push(5);
                (*width as u64).encode(buf);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(EngineKind::Ssa),
            3 => Ok(EngineKind::AdaptiveTau {
                epsilon: f64::decode(r)?,
            }),
            4 => Ok(EngineKind::Hybrid {
                epsilon: f64::decode(r)?,
                threshold: f64::decode(r)?,
            }),
            5 => Ok(EngineKind::Batched {
                width: u64::decode(r)? as usize,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

// ---------------------------------------------------------------------
// The sharded farm's payloads. A shard worker receives its model (as
// model text, see `crate::shard::ShardJob`), its shard spec and the
// model's dependency table, and streams aligned partial cuts and its
// event count back — everything below is that vocabulary. Interned handles in the dependency table travel as their
// raw u32: the model text interns the same names in the same order, so
// raw ids mean the same thing on both sides (`Label::TOP`'s sentinel
// raw value round-trips unchanged).
// ---------------------------------------------------------------------

impl Wire for Species {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.raw().encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Species::from_raw(u32::decode(r)?))
    }
}

impl Wire for Label {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.raw().encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Label::from_raw(u32::decode(r)?))
    }
}

impl Wire for Cut {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.time.encode(buf);
        self.values.encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Cut {
            time: f64::decode(r)?,
            values: Vec::decode(r)?,
        })
    }
}

impl Wire for ShardRange {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.shard as u64).encode(buf);
        self.first_instance.encode(buf);
        self.count.encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ShardRange {
            shard: u64::decode(r)? as usize,
            first_instance: u64::decode(r)?,
            count: u64::decode(r)?,
        })
    }
}

impl Wire for ShardSpec {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.range.encode(buf);
        self.engine.encode(buf);
        self.base_seed.encode(buf);
        self.t_end.encode(buf);
        self.quantum.encode(buf);
        self.sample_period.encode(buf);
        (self.sim_workers as u64).encode(buf);
        (self.channel_capacity as u64).encode(buf);
        self.attempt.encode(buf);
        self.heartbeat_period.encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ShardSpec {
            range: ShardRange::decode(r)?,
            engine: EngineKind::decode(r)?,
            base_seed: u64::decode(r)?,
            t_end: f64::decode(r)?,
            quantum: f64::decode(r)?,
            sample_period: f64::decode(r)?,
            sim_workers: u64::decode(r)? as usize,
            channel_capacity: u64::decode(r)? as usize,
            attempt: u32::decode(r)?,
            heartbeat_period: f64::decode(r)?,
        })
    }
}

impl Wire for KeptChild {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.pattern as u64).encode(buf);
        self.label.encode(buf);
        self.wrap_delta.encode(buf);
        self.content_delta.encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(KeptChild {
            pattern: u64::decode(r)? as usize,
            label: Label::decode(r)?,
            wrap_delta: Vec::decode(r)?,
            content_delta: Vec::decode(r)?,
        })
    }
}

impl Wire for RuleDeps {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.site.encode(buf);
        self.structural.encode(buf);
        self.site_reads.encode(buf);
        self.child_wrap_reads.encode(buf);
        self.child_content_reads.encode(buf);
        self.site_delta.encode(buf);
        self.kept.encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(RuleDeps {
            site: Label::decode(r)?,
            structural: bool::decode(r)?,
            site_reads: Vec::decode(r)?,
            child_wrap_reads: Vec::decode(r)?,
            child_content_reads: Vec::decode(r)?,
            site_delta: Vec::decode(r)?,
            kept: Vec::decode(r)?,
        })
    }
}

/// [`ModelDeps`] crosses the wire as its four part lists (per-rule deps
/// plus the three affected-rule tables); the decoder rebuilds it through
/// [`ModelDeps::from_parts`], so a hostile or corrupted payload that is
/// structurally inconsistent (mismatched lengths, out-of-range rule
/// indices) surfaces as a decode error — tag byte `0xFC` — rather than
/// a deps table that indexes out of bounds at simulation time.
impl Wire for ModelDeps {
    fn encode(&self, buf: &mut Vec<u8>) {
        let n = self.len();
        (n as u64).encode(buf);
        for r in 0..n {
            self.rule(r).encode(buf);
        }
        (n as u64).encode(buf);
        for r in 0..n {
            self.same_site_affected(r).to_vec().encode(buf);
        }
        (n as u64).encode(buf);
        for r in 0..n {
            self.child_lists(r).to_vec().encode(buf);
        }
        (n as u64).encode(buf);
        for r in 0..n {
            self.parent_affected(r).to_vec().encode(buf);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let rules: Vec<RuleDeps> = Vec::decode(r)?;
        let same_site: Vec<Vec<u32>> = Vec::decode(r)?;
        let child_rules: Vec<Vec<Vec<u32>>> = Vec::decode(r)?;
        let parent_rules: Vec<Vec<u32>> = Vec::decode(r)?;
        ModelDeps::from_parts(rules, same_site, child_rules, parent_rules)
            .map_err(|_| WireError::BadTag(0xFC))
    }
}

/// Encodes a message with the magic/version envelope.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(&MAGIC);
    VERSION.encode(&mut buf);
    value.encode(&mut buf);
    buf
}

/// Decodes an enveloped message, requiring full consumption of `bytes`.
///
/// # Errors
///
/// Returns a [`WireError`] on bad envelope, malformed body or trailing
/// bytes.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = WireReader::new(bytes);
    let magic = r.take(4)?;
    if magic != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::decode(&mut r)?;
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let value = T::decode(&mut r)?;
    if r.remaining() > 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(value)
}

/// Size in bytes of the encoded form (envelope included) — the message
/// size the network models charge for.
pub fn encoded_size<T: Wire>(value: &T) -> usize {
    to_bytes(value).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = to_bytes(&value);
        let back: T = from_bytes(&bytes).expect("roundtrip decode");
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(i64::MIN);
        roundtrip(-0.5f64);
        roundtrip(f64::INFINITY);
        roundtrip(true);
        roundtrip(false);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(String::from("hello wire"));
        roundtrip(String::new());
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(42u32));
        roundtrip(Option::<u32>::None);
        roundtrip((7u8, String::from("x")));
        roundtrip(vec![(0.5f64, vec![1u64]), (1.5, vec![2, 3])]);
    }

    #[test]
    fn sample_batch_roundtrips() {
        roundtrip(SampleBatch {
            instance: 17,
            samples: vec![
                (0.0, Row::from_slice(&[1, 2])),
                (0.5, Row::from_slice(&[3, 4])),
            ],
            events: 99,
            finished: true,
        });
    }

    #[test]
    fn engine_kind_bad_tag_is_rejected() {
        let mut bytes = to_bytes(&EngineKind::Ssa);
        let last = bytes.len() - 1;
        bytes[last] = 9;
        assert_eq!(from_bytes::<EngineKind>(&bytes), Err(WireError::BadTag(9)));
    }

    #[test]
    fn retired_first_reaction_tag_is_rejected() {
        // Tag 2 named the deleted first-reaction engine; it is never reused.
        let mut bytes = to_bytes(&EngineKind::Ssa);
        let last = bytes.len() - 1;
        bytes[last] = 2;
        assert_eq!(from_bytes::<EngineKind>(&bytes), Err(WireError::BadTag(2)));
    }

    #[test]
    fn retired_tau_leap_tag_is_rejected() {
        // Tag 1 named the deleted fixed-step tau-leap engine; it is never
        // reused. Its leap length followed the tag, so pad as it would.
        let mut bytes = to_bytes(&EngineKind::AdaptiveTau { epsilon: 0.1 });
        let at = bytes.len() - 9;
        assert_eq!(bytes[at], 3);
        bytes[at] = 1;
        assert_eq!(from_bytes::<EngineKind>(&bytes), Err(WireError::BadTag(1)));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = to_bytes(&1u64);
        bytes[0] = b'X';
        assert_eq!(from_bytes::<u64>(&bytes), Err(WireError::BadMagic));
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut bytes = to_bytes(&1u64);
        bytes[4] = 99;
        assert!(matches!(
            from_bytes::<u64>(&bytes),
            Err(WireError::BadVersion(_))
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = to_bytes(&vec![1u64, 2, 3]);
        assert_eq!(
            from_bytes::<Vec<u64>>(&bytes[..bytes.len() - 1]),
            Err(WireError::UnexpectedEof)
        );
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut bytes = to_bytes(&1u8);
        bytes.push(0);
        assert_eq!(from_bytes::<u8>(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn bad_bool_tag_is_rejected() {
        let mut bytes = to_bytes(&true);
        let last = bytes.len() - 1;
        bytes[last] = 7;
        assert_eq!(from_bytes::<bool>(&bytes), Err(WireError::BadTag(7)));
    }

    #[test]
    fn hostile_length_does_not_overallocate() {
        // A Vec claiming u64::MAX elements must fail with EOF, not OOM.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        VERSION.encode(&mut bytes);
        u64::MAX.encode(&mut bytes);
        assert_eq!(
            from_bytes::<Vec<u64>>(&bytes),
            Err(WireError::UnexpectedEof)
        );
    }

    #[test]
    fn encoded_size_charges_the_envelope() {
        assert_eq!(encoded_size(&0u8), 4 + 2 + 1);
    }

    // --- wire v4 payloads ---

    #[test]
    fn cut_roundtrips() {
        roundtrip(Cut {
            time: 1.25,
            values: vec![
                Row::from_slice(&[1, 2]),
                Row::from_slice(&[3, 4]),
                Row::from_slice(&[5, 6]),
            ],
        });
        roundtrip(Cut {
            time: 0.0,
            values: vec![],
        });
    }

    /// Bytes from a whitespace-separated hex dump.
    fn hex(dump: &str) -> Vec<u8> {
        let digits: Vec<u8> = dump.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        digits
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    }

    #[test]
    fn cut_frames_keep_their_v7_bytes_for_inline_and_spilled_rows() {
        // The v7 cut layout written out by hand: envelope, time, row
        // count, then every row as its length and its values — the bytes
        // of a `Vec<Vec<u64>>`, whether the row is inline or spilled. v8
        // changed the job and v9 the end-of-stream frame and the spec
        // only, so a cut differs from v7 in its envelope's version field
        // alone.
        let three = Cut {
            time: 0.5,
            values: vec![Row::from_slice(&[1, 2, 3]), Row::from_slice(&[4, 5, 6])],
        };
        let three_v7 = hex("
            43574353 0900 000000000000e03f 0200000000000000
            0300000000000000 0100000000000000 0200000000000000 0300000000000000
            0300000000000000 0400000000000000 0500000000000000 0600000000000000");
        let six = Cut {
            time: 2.0,
            values: vec![Row::from_slice(&[1, 2, 3, 4, 5, 6])],
        };
        let six_v7 = hex("
            43574353 0900 0000000000000040 0100000000000000
            0600000000000000 0100000000000000 0200000000000000 0300000000000000
                             0400000000000000 0500000000000000 0600000000000000");
        for (cut, v7) in [(three, three_v7), (six, six_v7)] {
            assert_eq!(to_bytes(&cut), v7);
            assert_eq!(from_bytes::<Cut>(&v7), Ok(cut));
        }
    }

    #[test]
    fn a_row_longer_than_its_frame_fails_before_allocating() {
        // One row claiming 2^61 and u64::MAX values, then nothing.
        for len in [1u64 << 61, u64::MAX] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&MAGIC);
            VERSION.encode(&mut bytes);
            len.encode(&mut bytes);
            assert_eq!(from_bytes::<Row>(&bytes), Err(WireError::UnexpectedEof));
        }
        // One value short of the announced length.
        let mut bytes = to_bytes(&Row::from_slice(&[1, 2, 3, 4, 5]));
        bytes.truncate(bytes.len() - 8);
        assert_eq!(from_bytes::<Row>(&bytes), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn shard_spec_roundtrips() {
        // The engine kind reaches every shard worker inside its spec.
        for engine in [
            EngineKind::Ssa,
            EngineKind::AdaptiveTau { epsilon: 0.03 },
            EngineKind::Hybrid {
                epsilon: 0.05,
                threshold: 8.0,
            },
            EngineKind::Batched { width: 64 },
        ] {
            roundtrip(ShardSpec {
                range: ShardRange {
                    shard: 2,
                    first_instance: 64,
                    count: 32,
                },
                engine,
                base_seed: 7,
                t_end: 50.0,
                quantum: 1.0,
                sample_period: 0.5,
                sim_workers: 4,
                channel_capacity: 64,
                attempt: 3,
                heartbeat_period: 0.25,
            });
        }
    }

    /// A model's one trip over the wire: inside a shard job, as model
    /// text.
    fn ship(model: cwc::model::Model) -> Result<cwc::model::Model, WireError> {
        let range = ShardRange {
            shard: 0,
            first_instance: 0,
            count: 1,
        };
        let job = crate::shard::ShardJob {
            model,
            spec: ShardSpec::from_config(&cwcsim::SimConfig::new(1, 1.0), range),
            deps: None,
        };
        from_bytes::<crate::shard::ShardJob>(&to_bytes(&job)).map(|job| job.model)
    }

    #[test]
    fn out_of_range_model_handles_are_rejected_not_panicked() {
        let mut m = cwc::model::Model::new("bad");
        let a = m.species("A");
        m.rule("r").consumes("A", 1).rate(1.0).build().unwrap();
        m.initial.add_atoms(a, 1);
        m.observe("A", a);
        // Corrupt a handle past the shipped alphabet: it prints as `?`,
        // and the worker's parse refuses it instead of letting
        // compilation panic later.
        m.observables[0].species = Species::from_raw(99);
        assert!(matches!(ship(m), Err(WireError::Model { .. })));
        // And an out-of-range label on a rule site.
        let mut m2 = cwc::model::Model::new("bad2");
        let b = m2.species("B");
        m2.rule("r").consumes("B", 1).rate(1.0).build().unwrap();
        m2.initial.add_atoms(b, 1);
        m2.observe("B", b);
        m2.rules[0].site = Label::from_raw(7);
        assert!(matches!(ship(m2), Err(WireError::Model { .. })));
    }

    #[test]
    fn compartment_model_roundtrips_bit_for_bit() {
        use cwc::model::{Model, ObservableSite};
        use cwc::multiset::Multiset;
        let model = {
            let mut m = Model::new("wire-test");
            let a = m.species("A");
            let cell = m.label("cell");
            m.rule("engulf")
                .consumes("A", 1)
                .matches_comp("cell", &[("R", 1)], &[])
                .keeps(0, &[], &[("A", 1)])
                .rate(0.5)
                .build()
                .unwrap();
            m.rule("feed")
                .produces("A", 2)
                .rate(3.0)
                .repressed_by("A", 100.0, 2.0)
                .build()
                .unwrap();
            m.initial.add_atoms(a, 10);
            let receptor = m.species("R");
            m.initial.add_compartment(cwc::term::Compartment::new(
                cell,
                Multiset::from([(receptor, 1)]),
                cwc::term::Term::new(),
            ));
            m.observe("A", a);
            m.observe_at("cell_A", a, ObservableSite::AtLabel(cell));
            m
        };
        let back = ship(model.clone()).unwrap();
        assert_eq!(back.name, model.name);
        assert_eq!(back.rules, model.rules);
        assert_eq!(back.initial, model.initial);
        assert_eq!(back.observables, model.observables);
        back.validate().unwrap();
        // The text re-interned the same names in the same order.
        assert_eq!(
            back.alphabet.species_names(),
            model.alphabet.species_names()
        );
        assert_eq!(back.alphabet.label_names(), model.alphabet.label_names());
        // The decoded model drives identical trajectories.
        let mut a = gillespie::ssa::SsaEngine::new(std::sync::Arc::new(model), 42, 0);
        let mut b = gillespie::ssa::SsaEngine::new(std::sync::Arc::new(back), 42, 0);
        a.run_until(2.0);
        b.run_until(2.0);
        assert_eq!(a.observe(), b.observe());
    }

    #[test]
    fn model_deps_roundtrip_bit_for_bit() {
        for model in [
            biomodels::simple::decay(40, 1.0),
            biomodels::simple::birth_death(2.0, 0.1, 5),
            biomodels::cell_transport::cell_transport(Default::default()),
        ] {
            let deps = ModelDeps::compile(&model);
            let back: ModelDeps = from_bytes(&to_bytes(&deps)).expect("deps roundtrip");
            assert_eq!(back, deps, "{}", model.name);
            back.validate_for(&model)
                .expect("decoded deps fit the source model");
        }
    }

    #[test]
    fn inconsistent_deps_payload_is_rejected_not_panicked() {
        // Hand-craft a payload whose part lists disagree: zero rules but
        // one same-site affected list. `from_parts` must refuse it and
        // the decoder must surface that as a typed error.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        VERSION.encode(&mut buf);
        Vec::<RuleDeps>::new().encode(&mut buf);
        vec![vec![0u32]].encode(&mut buf);
        Vec::<Vec<Vec<u32>>>::new().encode(&mut buf);
        Vec::<Vec<u32>>::new().encode(&mut buf);
        assert_eq!(from_bytes::<ModelDeps>(&buf), Err(WireError::BadTag(0xFC)));
        // Truncated deps payloads die with EOF, not a panic.
        let model = biomodels::cell_transport::cell_transport(Default::default());
        let bytes = to_bytes(&ModelDeps::compile(&model));
        for cut in [7, bytes.len() / 2, bytes.len() - 1] {
            assert!(from_bytes::<ModelDeps>(&bytes[..cut]).is_err());
        }
    }
}
