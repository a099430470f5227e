//! Canonical cell identity: [`CellSpec`] → [`CellKey`].
//!
//! A *cell* is one fully-specified experiment point: benchmark × version ×
//! precision × problem scale × device × fault seed × optimizer pass
//! pipeline × model version. Its [`CellKey`] is a stable 64-bit FNV-1a
//! hash of the *canonical serialization* of the spec, so any two parties
//! that agree on the spec agree on the key. The `harness --state`
//! checkpoint and the server's content-addressed cache are the same
//! `simcache v1` file ([`crate::cache`]), so a checkpoint is served as a
//! cache with no translation.
//!
//! Canonicalization rules (pinned by unit tests):
//!
//! * fields appear in one fixed order, regardless of how the spec was
//!   built or which order a JSON request listed them in;
//! * free-form strings are percent-escaped ([`esc`]) so the `|`-separated
//!   line structure cannot be broken by hostile names;
//! * the schema version is part of the hashed bytes, so a future change
//!   to these rules invalidates old keys instead of colliding with them.
//!
//! This module also hosts the shared token-level codec (escaping, float
//! bit-patterns, the [`Tokens`] reader) that used to be private to
//! `harness::checkpoint`; the checkpoint and the cache snapshot format
//! both build on it.

use std::fmt;

/// Version of the canonicalization schema itself (hashed into every key).
/// v2 added the optimizer `passes` field (an optimized and an unoptimized
/// run must never share a cache line); v3 dropped the never-populated
/// numeric `params` field. Older keys are deliberately orphaned.
pub const KEY_SCHEMA_VERSION: u32 = 3;

// ---- shared token-level codec ----

/// Percent-encode the bytes that would break a `|`/`,`-separated line.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'%' | b'|' | b',' | b'\n' | b'\r' => out.push_str(&format!("%{b:02x}")),
            _ => out.push(b as char),
        }
    }
    out
}

/// Inverse of [`esc`]. `None` on malformed escapes or invalid UTF-8.
pub fn unesc(s: &str) -> Option<String> {
    let mut out = Vec::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3)?;
            out.push(u8::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// An `f64` as its 64-bit IEEE-754 bit pattern in hex: exact round trip,
/// no locale or shortest-float formatting hazards.
pub fn fbits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Inverse of [`fbits`].
pub fn fbits_parse(s: &str) -> Option<f64> {
    Some(f64::from_bits(u64::from_str_radix(s, 16).ok()?))
}

/// Sequential token reader over one '|'-separated line.
pub struct Tokens<'a> {
    it: std::str::Split<'a, char>,
}

impl<'a> Tokens<'a> {
    pub fn new(line: &'a str) -> Self {
        Tokens {
            it: line.split('|'),
        }
    }

    /// Next raw token.
    pub fn str(&mut self) -> Option<&'a str> {
        self.it.next()
    }

    /// Next token, percent-unescaped.
    pub fn string(&mut self) -> Option<String> {
        unesc(self.it.next()?)
    }

    /// Next token as an `f64` bit pattern.
    pub fn f64(&mut self) -> Option<f64> {
        fbits_parse(self.it.next()?)
    }

    pub fn u64(&mut self) -> Option<u64> {
        self.it.next()?.parse().ok()
    }

    pub fn u32(&mut self) -> Option<u32> {
        self.it.next()?.parse().ok()
    }

    pub fn usize(&mut self) -> Option<usize> {
        self.it.next()?.parse().ok()
    }
}

// ---- the spec and its key ----

/// A fully-normalized experiment cell specification.
///
/// Everything that can change the bytes of a cell's result must be in
/// here; anything not in here must not affect the result (that is the
/// determinism contract the simulator already pins: thread count, cache
/// state and arrival order are all absent by design).
#[derive(Clone, Debug, PartialEq)]
pub struct CellSpec {
    /// Model version: bumped whenever a cell's result bytes change, so a
    /// file written by an older model never answers for a newer one.
    pub sim_version: String,
    /// Device / platform fingerprint (e.g. "exynos5250").
    pub device: String,
    /// Problem-size scale tag ("paper" / "test").
    pub scale: String,
    /// Benchmark short name (spmv, vecop, …).
    pub bench: String,
    /// Version label in dashed wire form (Serial, OpenMP, OpenCL,
    /// OpenCL-Opt).
    pub version: String,
    /// Precision in bits (32 / 64).
    pub precision: u8,
    /// Fault-injection seed, when chaos is requested for this cell.
    pub fault_seed: Option<u64>,
    /// Optimizer pass pipeline applied to every kernel of the cell, in the
    /// comma-separated form `kernel_ir::Pipeline` parses ("cf,cse,dce").
    /// `None` means the unoptimized baseline — a distinct key from any
    /// pipeline, including an empty one.
    pub passes: Option<String>,
}

impl CellSpec {
    /// The canonical serialized form: fixed field order, escaped strings.
    /// This is what gets hashed and what the cache snapshot stores.
    pub fn canonical(&self) -> String {
        format!(
            "cellspec v{}|{}|{}|{}|{}|{}|{}|{}|{}",
            KEY_SCHEMA_VERSION,
            esc(&self.sim_version),
            esc(&self.device),
            esc(&self.scale),
            esc(&self.bench),
            esc(&self.version),
            self.precision,
            self.fault_seed
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".into()),
            self.passes
                .as_deref()
                .map(esc)
                .unwrap_or_else(|| "-".into()),
        )
    }

    /// Parse a [`canonical`](Self::canonical) line back into a spec.
    pub fn from_canonical(line: &str) -> Option<CellSpec> {
        let mut t = Tokens::new(line);
        if t.str()? != format!("cellspec v{KEY_SCHEMA_VERSION}") {
            return None;
        }
        let sim_version = t.string()?;
        let device = t.string()?;
        let scale = t.string()?;
        let bench = t.string()?;
        let version = t.string()?;
        let precision = t.str()?.parse().ok()?;
        let fault_seed = match t.str()? {
            "-" => None,
            s => Some(s.parse().ok()?),
        };
        let passes = match t.str()? {
            "-" => None,
            s => Some(unesc(s)?),
        };
        if t.str().is_some() {
            return None;
        }
        Some(CellSpec {
            sim_version,
            device,
            scale,
            bench,
            version,
            precision,
            fault_seed,
            passes,
        })
    }

    /// The content address of this cell.
    pub fn key(&self) -> CellKey {
        CellKey(fnv1a64(self.canonical().as_bytes()))
    }
}

/// Stable 64-bit content address of a [`CellSpec`]. Displays as 16 hex
/// digits (the form used in `GET /v1/cell/<key>` and `simcache v1`
/// lines).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellKey(pub u64);

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl std::str::FromStr for CellKey {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        if s.len() != 16 {
            return Err(());
        }
        u64::from_str_radix(s, 16).map(CellKey).map_err(|_| ())
    }
}

/// FNV-1a, 64-bit: tiny, dependency-free, stable across platforms. Not
/// cryptographic — the cache is a performance layer, not a trust boundary.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CellSpec {
        CellSpec {
            sim_version: "0.1.0".into(),
            device: "exynos5250".into(),
            scale: "test".into(),
            bench: "spmv".into(),
            version: "OpenCL-Opt".into(),
            precision: 32,
            fault_seed: Some(7),
            passes: Some("cf,cse,dce".into()),
        }
    }

    #[test]
    fn canonical_round_trips_exactly() {
        let s = spec();
        let c = s.canonical();
        let back = CellSpec::from_canonical(&c).unwrap();
        assert_eq!(back.key(), s.key());
        assert_eq!(back.canonical(), c);
        assert_eq!(back.bench, "spmv");
        assert_eq!(back.fault_seed, Some(7));
    }

    #[test]
    fn every_field_changes_the_key() {
        let base = spec().key();
        let mut s = spec();
        s.sim_version = "0.2.0".into();
        assert_ne!(s.key(), base);
        let mut s = spec();
        s.device = "other".into();
        assert_ne!(s.key(), base);
        let mut s = spec();
        s.scale = "paper".into();
        assert_ne!(s.key(), base);
        let mut s = spec();
        s.bench = "vecop".into();
        assert_ne!(s.key(), base);
        let mut s = spec();
        s.version = "Serial".into();
        assert_ne!(s.key(), base);
        let mut s = spec();
        s.precision = 64;
        assert_ne!(s.key(), base);
        let mut s = spec();
        s.fault_seed = None;
        assert_ne!(s.key(), base);
        let mut s = spec();
        s.passes = None;
        assert_ne!(s.key(), base);
        let mut s = spec();
        s.passes = Some("cf".into());
        assert_ne!(s.key(), base);
    }

    /// Pin the exact hash so an accidental canonicalization change (field
    /// order, separators, float formatting) breaks this build instead of
    /// silently orphaning every persisted cache and checkpoint.
    #[test]
    fn key_is_pinned() {
        assert_eq!(
            spec().canonical(),
            "cellspec v3|0.1.0|exynos5250|test|spmv|OpenCL-Opt|32|7|cf%2ccse%2cdce"
        );
        assert_eq!(spec().key(), CellKey(0x3172_1a1e_fea3_2bff));
        assert_eq!(spec().key().0, fnv1a64(spec().canonical().as_bytes()));
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn float_bits_round_trip_hostile_values() {
        for x in [
            0.1_f64,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            std::f64::consts::PI,
            // An f32 widened to f64 (the widening is exact).
            std::f32::consts::E as f64,
        ] {
            assert_eq!(fbits_parse(&fbits(x)).unwrap().to_bits(), x.to_bits());
        }
        // NaN bit patterns survive too (payload preserved).
        let nan = f64::from_bits(0x7ff8_0000_0000_1234);
        assert_eq!(fbits_parse(&fbits(nan)).unwrap().to_bits(), nan.to_bits());
    }

    #[test]
    fn key_display_parses_back() {
        let k = spec().key();
        let s = k.to_string();
        assert_eq!(s.len(), 16);
        assert_eq!(s.parse::<CellKey>().unwrap(), k);
        assert!("xyz".parse::<CellKey>().is_err());
        assert!("0123".parse::<CellKey>().is_err());
    }

    #[test]
    fn escaping_round_trips() {
        for s in ["plain", "a|b,c%d", "line\nbreak\r", "", "100%"] {
            assert_eq!(unesc(&esc(s)).as_deref(), Some(s));
        }
        assert_eq!(unesc("%zz"), None);
        assert_eq!(unesc("%7"), None);
    }

    #[test]
    fn hostile_names_cannot_break_structure() {
        let mut s = spec();
        s.bench = "evil|cell,with%tricks\n".into();
        let c = s.canonical();
        assert_eq!(c.lines().count(), 1);
        let back = CellSpec::from_canonical(&c).unwrap();
        assert_eq!(back.bench, s.bench);
        assert_eq!(back.key(), s.key());
    }
}
