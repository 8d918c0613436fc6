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

use cwc::model::{Model, Observable, ObservableSite};
use cwc::multiset::Multiset;
use cwc::rule::{CompPattern, CompProduction, Pattern, Production, RateLaw, Rule};
use cwc::species::{Label, Species};
use cwc::term::{Compartment, Term};
use cwcsim::engines::StatEngineKind;
use cwcsim::merge::{ObsSummary, RunSummary};
use cwcsim::plan::ShardRange;
use cwcsim::task::SampleBatch;
use cwcsim::ShardSpec;
use gillespie::deps::{KeptChild, ModelDeps, RuleDeps};
use gillespie::engine::EngineKind;
use gillespie::trajectory::Cut;
use streamstat::histogram::Histogram;
use streamstat::quantile::P2Quantile;
use streamstat::welford::Running;

/// Magic bytes of an encoded message envelope.
pub const MAGIC: [u8; 4] = *b"CWCS";
/// Current wire format version. Version 2 added the engine kind to the
/// task-parameter message of the pre-sharding remote farms (that payload
/// is gone; [`ShardSpec`] carries the kind now); version 3 added the
/// adaptive-tau and hybrid engine kinds (tags 3 and 4); version 4 added
/// the sharded-farm messages — full CWC models (so `cwc-shard` child
/// processes receive arbitrary models, not a registry name), aligned
/// partial [`Cut`]s, and the mergeable partial-statistics state
/// ([`RunSummary`] with its Welford/histogram/P² accumulators) — plus the
/// [`crate::shard`] frame envelope around them; version 5 added the
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
/// dependency graph on every attempt.
pub const VERSION: u16 = 7;

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
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of input"),
            WireError::BadMagic => write!(f, "bad message magic"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag(t) => write!(f, "invalid tag byte {t}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
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
// Wire v4: the sharded farm's payloads. A `cwc-shard` child process
// receives a full model plus its shard spec and streams aligned partial
// cuts and one mergeable partial-statistics state back — everything
// below is that vocabulary. Interned handles travel as their raw u32
// (the decoder re-interns the alphabet's names in the same order, so
// raw ids mean the same thing on both sides; `Label::TOP`'s sentinel
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

impl Wire for Multiset {
    fn encode(&self, buf: &mut Vec<u8>) {
        let pairs: Vec<(Species, u64)> = self.iter().collect();
        pairs.encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let pairs: Vec<(Species, u64)> = Vec::decode(r)?;
        let mut ms = Multiset::new();
        for (s, n) in pairs {
            ms.insert(s, n);
        }
        Ok(ms)
    }
}

impl Wire for Compartment {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.label.encode(buf);
        self.wrap.encode(buf);
        self.content.encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Compartment {
            label: Label::decode(r)?,
            wrap: Multiset::decode(r)?,
            content: Term::decode(r)?,
        })
    }
}

impl Wire for Term {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.atoms.encode(buf);
        self.comps.encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Term {
            atoms: Multiset::decode(r)?,
            comps: Vec::decode(r)?,
        })
    }
}

impl Wire for CompPattern {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.label.encode(buf);
        self.wrap.encode(buf);
        self.atoms.encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(CompPattern {
            label: Label::decode(r)?,
            wrap: Multiset::decode(r)?,
            atoms: Multiset::decode(r)?,
        })
    }
}

impl Wire for Pattern {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.atoms.encode(buf);
        self.comps.encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Pattern {
            atoms: Multiset::decode(r)?,
            comps: Vec::decode(r)?,
        })
    }
}

/// Tag 0 = keep, 1 = new, 2 = dissolve.
impl Wire for CompProduction {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            CompProduction::Keep {
                index,
                add_wrap,
                add_atoms,
            } => {
                buf.push(0);
                (*index as u64).encode(buf);
                add_wrap.encode(buf);
                add_atoms.encode(buf);
            }
            CompProduction::New { label, wrap, atoms } => {
                buf.push(1);
                label.encode(buf);
                wrap.encode(buf);
                atoms.encode(buf);
            }
            CompProduction::Dissolve { index } => {
                buf.push(2);
                (*index as u64).encode(buf);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(CompProduction::Keep {
                index: u64::decode(r)? as usize,
                add_wrap: Multiset::decode(r)?,
                add_atoms: Multiset::decode(r)?,
            }),
            1 => Ok(CompProduction::New {
                label: Label::decode(r)?,
                wrap: Multiset::decode(r)?,
                atoms: Multiset::decode(r)?,
            }),
            2 => Ok(CompProduction::Dissolve {
                index: u64::decode(r)? as usize,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for Production {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.atoms.encode(buf);
        self.comps.encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Production {
            atoms: Multiset::decode(r)?,
            comps: Vec::decode(r)?,
        })
    }
}

/// Tag 0 = mass action, 1 = Hill repression, 2 = Hill activation,
/// 3 = Michaelis–Menten saturation.
impl Wire for RateLaw {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            RateLaw::MassAction => buf.push(0),
            RateLaw::HillRepression { inhibitor, k, n } => {
                buf.push(1);
                inhibitor.encode(buf);
                k.encode(buf);
                n.encode(buf);
            }
            RateLaw::HillActivation { activator, k, n } => {
                buf.push(2);
                activator.encode(buf);
                k.encode(buf);
                n.encode(buf);
            }
            RateLaw::Saturating { substrate, km } => {
                buf.push(3);
                substrate.encode(buf);
                km.encode(buf);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(RateLaw::MassAction),
            1 => Ok(RateLaw::HillRepression {
                inhibitor: Species::decode(r)?,
                k: f64::decode(r)?,
                n: f64::decode(r)?,
            }),
            2 => Ok(RateLaw::HillActivation {
                activator: Species::decode(r)?,
                k: f64::decode(r)?,
                n: f64::decode(r)?,
            }),
            3 => Ok(RateLaw::Saturating {
                substrate: Species::decode(r)?,
                km: f64::decode(r)?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for Rule {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.name.encode(buf);
        self.site.encode(buf);
        self.lhs.encode(buf);
        self.rhs.encode(buf);
        self.rate.encode(buf);
        self.law.encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Rule {
            name: String::decode(r)?,
            site: Label::decode(r)?,
            lhs: Pattern::decode(r)?,
            rhs: Production::decode(r)?,
            rate: f64::decode(r)?,
            law: RateLaw::decode(r)?,
        })
    }
}

/// Tag 0 = everywhere, 1 = top only, 2 = at label.
impl Wire for ObservableSite {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ObservableSite::Everywhere => buf.push(0),
            ObservableSite::TopOnly => buf.push(1),
            ObservableSite::AtLabel(label) => {
                buf.push(2);
                label.encode(buf);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(ObservableSite::Everywhere),
            1 => Ok(ObservableSite::TopOnly),
            2 => Ok(ObservableSite::AtLabel(Label::decode(r)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for Observable {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.name.encode(buf);
        self.species.encode(buf);
        self.site.encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Observable {
            name: String::decode(r)?,
            species: Species::decode(r)?,
            site: ObservableSite::decode(r)?,
        })
    }
}

/// A full CWC model crosses the wire as its name, the alphabet's names
/// (in interning order, so the decoder's re-interning reproduces the
/// same raw handles), the rules, the initial term and the observables.
impl Wire for Model {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.name.encode(buf);
        let species: Vec<String> = self
            .alphabet
            .all_species()
            .map(|s| self.alphabet.species_name(s).to_owned())
            .collect();
        species.encode(buf);
        let labels: Vec<String> = (0..self.alphabet.label_count())
            .map(|i| {
                self.alphabet
                    .label_name(Label::from_raw(i as u32))
                    .to_owned()
            })
            .collect();
        labels.encode(buf);
        self.rules.encode(buf);
        self.initial.encode(buf);
        self.observables.encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut model = Model::new(&String::decode(r)?);
        for name in Vec::<String>::decode(r)? {
            model.species(&name);
        }
        for name in Vec::<String>::decode(r)? {
            model.label(&name);
        }
        // Rules are pushed semantically unvalidated here (the receiver
        // re-validates the whole model before running it, with better
        // errors than BadTag) — but every interned handle is bounds-
        // checked against the decoded alphabet, because an out-of-range
        // id would panic deep inside compilation, not fail validation.
        model.rules = Vec::decode(r)?;
        model.initial = Term::decode(r)?;
        model.observables = Vec::decode(r)?;
        check_model_handles(&model)?;
        Ok(model)
    }
}

/// Rejects decoded models whose species/label handles fall outside the
/// decoded alphabet (possible only through a corrupt or hostile stream).
fn check_model_handles(model: &Model) -> Result<(), WireError> {
    let n_species = model.alphabet.species_count() as u32;
    let n_labels = model.alphabet.label_count() as u32;
    let bad = || WireError::BadTag(0xFD);
    let check_species = |s: Species| (s.raw() < n_species).then_some(()).ok_or_else(bad);
    let check_label = |l: Label| {
        (l.is_top() || l.raw() < n_labels)
            .then_some(())
            .ok_or_else(bad)
    };
    let check_multiset = |ms: &Multiset| ms.iter().try_for_each(|(s, _)| check_species(s));
    fn check_term(
        t: &Term,
        check_multiset: &impl Fn(&Multiset) -> Result<(), WireError>,
        check_label: &impl Fn(Label) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        check_multiset(&t.atoms)?;
        for c in &t.comps {
            check_label(c.label)?;
            check_multiset(&c.wrap)?;
            check_term(&c.content, check_multiset, check_label)?;
        }
        Ok(())
    }
    for rule in &model.rules {
        check_label(rule.site)?;
        check_multiset(&rule.lhs.atoms)?;
        for cp in &rule.lhs.comps {
            check_label(cp.label)?;
            check_multiset(&cp.wrap)?;
            check_multiset(&cp.atoms)?;
        }
        check_multiset(&rule.rhs.atoms)?;
        for prod in &rule.rhs.comps {
            match prod {
                CompProduction::Keep {
                    add_wrap,
                    add_atoms,
                    ..
                } => {
                    check_multiset(add_wrap)?;
                    check_multiset(add_atoms)?;
                }
                CompProduction::New { label, wrap, atoms } => {
                    check_label(*label)?;
                    check_multiset(wrap)?;
                    check_multiset(atoms)?;
                }
                CompProduction::Dissolve { .. } => {}
            }
        }
        match &rule.law {
            RateLaw::MassAction => {}
            RateLaw::HillRepression { inhibitor, .. } => check_species(*inhibitor)?,
            RateLaw::HillActivation { activator, .. } => check_species(*activator)?,
            RateLaw::Saturating { substrate, .. } => check_species(*substrate)?,
        }
    }
    check_term(&model.initial, &check_multiset, &check_label)?;
    for obs in &model.observables {
        check_species(obs.species)?;
        if let ObservableSite::AtLabel(l) = obs.site {
            check_label(l)?;
        }
    }
    Ok(())
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

/// Tag 0 = mean/variance, 1 = k-means, 2 = quantile, 3 = histogram.
impl Wire for StatEngineKind {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            StatEngineKind::MeanVariance => buf.push(0),
            StatEngineKind::KMeans { k } => {
                buf.push(1);
                (*k as u64).encode(buf);
            }
            StatEngineKind::Quantile { p } => {
                buf.push(2);
                p.encode(buf);
            }
            StatEngineKind::Histogram { lo, hi, bins } => {
                buf.push(3);
                lo.encode(buf);
                hi.encode(buf);
                (*bins as u64).encode(buf);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(StatEngineKind::MeanVariance),
            1 => Ok(StatEngineKind::KMeans {
                k: u64::decode(r)? as usize,
            }),
            2 => Ok(StatEngineKind::Quantile { p: f64::decode(r)? }),
            3 => Ok(StatEngineKind::Histogram {
                lo: f64::decode(r)?,
                hi: f64::decode(r)?,
                bins: u64::decode(r)? as usize,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for Running {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.count().encode(buf);
        self.mean().encode(buf);
        self.m2().encode(buf);
        self.min().encode(buf);
        self.max().encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Running::from_parts(
            u64::decode(r)?,
            f64::decode(r)?,
            f64::decode(r)?,
            f64::decode(r)?,
            f64::decode(r)?,
        ))
    }
}

impl Wire for Histogram {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.lo().encode(buf);
        self.hi().encode(buf);
        let counts: Vec<u64> = (0..self.bins()).map(|i| self.bin_count(i)).collect();
        counts.encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let lo = f64::decode(r)?;
        let hi = f64::decode(r)?;
        let counts: Vec<u64> = Vec::decode(r)?;
        // Validate before the constructor would panic on hostile input.
        if counts.is_empty() || hi.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) {
            return Err(WireError::BadTag(0xFE));
        }
        Ok(Histogram::from_parts(lo, hi, counts))
    }
}

impl Wire for P2Quantile {
    fn encode(&self, buf: &mut Vec<u8>) {
        let (p, heights, positions, desired, seen) = self.raw_parts();
        p.encode(buf);
        for x in heights.iter().chain(&positions).chain(&desired) {
            x.encode(buf);
        }
        seen.encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let p = f64::decode(r)?;
        if !(p > 0.0 && p < 1.0) {
            return Err(WireError::BadTag(0xFE));
        }
        let mut arrays = [[0.0f64; 5]; 3];
        for a in &mut arrays {
            for x in a.iter_mut() {
                *x = f64::decode(r)?;
            }
        }
        let [heights, positions, desired] = arrays;
        Ok(P2Quantile::from_raw_parts(
            p,
            heights,
            positions,
            desired,
            u64::decode(r)?,
        ))
    }
}

impl Wire for ObsSummary {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.running.encode(buf);
        self.histogram.encode(buf);
        self.quantile.encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ObsSummary {
            running: Running::decode(r)?,
            histogram: Option::decode(r)?,
            quantile: Option::decode(r)?,
        })
    }
}

impl Wire for RunSummary {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.engines().to_vec().encode(buf);
        self.observables().to_vec().encode(buf);
        self.cuts().encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(RunSummary::from_parts(
            Vec::decode(r)?,
            Vec::decode(r)?,
            u64::decode(r)?,
        ))
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
        self.engines.encode(buf);
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
            engines: Vec::decode(r)?,
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
            samples: vec![(0.0, vec![1, 2]), (0.5, vec![3, 4])],
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
            values: vec![vec![1, 2], vec![3, 4], vec![5, 6]],
        });
        roundtrip(Cut {
            time: 0.0,
            values: vec![],
        });
    }

    #[test]
    fn stat_engine_kinds_roundtrip() {
        roundtrip(StatEngineKind::MeanVariance);
        roundtrip(StatEngineKind::KMeans { k: 3 });
        roundtrip(StatEngineKind::Quantile { p: 0.9 });
        roundtrip(StatEngineKind::Histogram {
            lo: -1.0,
            hi: 9.0,
            bins: 12,
        });
    }

    #[test]
    fn accumulators_roundtrip() {
        let r: Running = [1.0, 2.5, -3.0, 8.0].into_iter().collect();
        roundtrip(r);

        let mut h = Histogram::new(0.0, 10.0, 4);
        for x in [0.5, 3.0, 9.9, 12.0] {
            h.push(x);
        }
        roundtrip(h);

        let mut q = P2Quantile::new(0.5);
        for i in 0..100 {
            q.push(i as f64);
        }
        let bytes = to_bytes(&q);
        let back: P2Quantile = from_bytes(&bytes).unwrap();
        assert_eq!(back.raw_parts(), q.raw_parts());
        assert_eq!(back.estimate(), q.estimate());
    }

    #[test]
    fn hostile_accumulator_parameters_are_rejected_not_panicked() {
        // Histogram with hi <= lo.
        let h = Histogram::new(0.0, 1.0, 2);
        let mut bytes = to_bytes(&h);
        // hi is the second f64 after the envelope (4 magic + 2 version + 8 lo).
        bytes[14..22].copy_from_slice(&(-5.0f64).to_le_bytes());
        assert!(from_bytes::<Histogram>(&bytes).is_err());
        // Quantile with p outside (0, 1).
        let q = P2Quantile::new(0.5);
        let mut bytes = to_bytes(&q);
        bytes[6..14].copy_from_slice(&(2.0f64).to_le_bytes());
        assert!(from_bytes::<P2Quantile>(&bytes).is_err());
    }

    #[test]
    fn run_summary_roundtrips_and_keeps_merging() {
        use streamstat::merge::Mergeable;
        let engines = vec![
            StatEngineKind::MeanVariance,
            StatEngineKind::Histogram {
                lo: 0.0,
                hi: 100.0,
                bins: 10,
            },
            StatEngineKind::Quantile { p: 0.5 },
        ];
        let mut s = RunSummary::new(engines);
        s.push_cut(&Cut {
            time: 0.0,
            values: vec![vec![10], vec![20], vec![30]],
        });
        let bytes = to_bytes(&s);
        let mut back: RunSummary = from_bytes(&bytes).unwrap();
        assert_eq!(back.cuts(), 1);
        let (a, b) = (&s.observables()[0], &back.observables()[0]);
        assert_eq!(a.running, b.running);
        assert_eq!(a.histogram, b.histogram);
        // A decoded summary must still merge with a live one.
        back.merge_from(&s);
        assert_eq!(back.observables()[0].running.count(), 6);
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
                engines: vec![
                    StatEngineKind::MeanVariance,
                    StatEngineKind::KMeans { k: 2 },
                ],
                attempt: 3,
                heartbeat_period: 0.25,
            });
        }
    }

    #[test]
    fn out_of_range_model_handles_are_rejected_not_panicked() {
        let mut m = Model::new("bad");
        let a = m.species("A");
        m.rule("r").consumes("A", 1).rate(1.0).build().unwrap();
        m.initial.add_atoms(a, 1);
        m.observe("A", a);
        // Corrupt a handle past the shipped alphabet: decoding must fail
        // cleanly instead of letting compilation panic later.
        m.observables[0].species = Species::from_raw(99);
        assert!(from_bytes::<Model>(&to_bytes(&m)).is_err());
        // And an out-of-range label on a rule site.
        let mut m2 = Model::new("bad2");
        let b = m2.species("B");
        m2.rule("r").consumes("B", 1).rate(1.0).build().unwrap();
        m2.initial.add_atoms(b, 1);
        m2.observe("B", b);
        m2.rules[0].site = Label::from_raw(7);
        assert!(from_bytes::<Model>(&to_bytes(&m2)).is_err());
    }

    #[test]
    fn compartment_model_roundtrips_bit_for_bit() {
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
        let bytes = to_bytes(&model);
        let back: Model = from_bytes(&bytes).unwrap();
        assert_eq!(back.name, model.name);
        assert_eq!(back.rules, model.rules);
        assert_eq!(back.initial, model.initial);
        assert_eq!(back.observables, model.observables);
        back.validate().unwrap();
        // Re-interning preserved the raw handles and names.
        assert_eq!(
            back.alphabet.find_species("A"),
            model.alphabet.find_species("A")
        );
        assert_eq!(
            back.alphabet.find_label("cell"),
            model.alphabet.find_label("cell")
        );
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
