//! Versioned, content-hashable snapshot store.
//!
//! Every piece of mutable simulation state implements [`Snapshot`]:
//! it serialises itself into a *keyed byte layout* (each logical
//! section is prefixed with a short string key, in the spirit of
//! merk's keyed-node-over-backing-store design) and restores itself
//! from the same layout. The byte encoding is fully deterministic —
//! little-endian integers, floats by `to_bits`, map entries in sorted
//! key order — so two simulations in the same state produce the same
//! bytes and therefore the same [`StateImage::hash`]. That hash is an
//! equality oracle far sharper than any aggregate-metric tolerance:
//! the equivalence gates compare it directly.
//!
//! A finished image carries a header — magic, format version, content
//! hash, payload length — and refuses to open when any of them
//! disagrees, so stale artifacts fail loudly instead of restoring
//! garbage.
//!
//! The section keys exist for *mismatch localisation*: a restore that
//! drifts from the save layout fails at the first wrong key, naming
//! both sides, instead of silently misinterpreting bytes downstream.

use ebs_units::{Celsius, Joules, SimDuration, SimTime, Watts};
use std::collections::HashSet;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// Image magic: "EBSS" (EBS Snapshot).
pub const MAGIC: [u8; 4] = *b"EBSS";

/// Format version of the snapshot layout. Bump on any change to what
/// the engines save or how the store encodes it; [`StateImage::open`]
/// refuses images of any other version with [`StoreError::Version`].
/// Every reader restores an image the same build just wrote, so one
/// readable format is enough.
///
/// History:
/// - **v1** — the original layout: homogeneous machines, dvfs state
///   keyed per package, no per-task core-class tag.
/// - **v2** — heterogeneous hardware: each task runtime carries the
///   core class it last executed on (`last_class`), and dvfs state is
///   keyed per frequency domain (identical byte shape to v1 on
///   per-package machines, one extra `usize` per task).
/// - **v3** — one sampling mechanism: the engine image drops the
///   retired thermal-trace cadence cursor (one byte shorter); the
///   metrics cursor is the only one left.
/// - **v4** — DVFS decision state is one record per frequency domain
///   instead of nine parallel per-domain tables, and a frozen domain's
///   flag and freeze time become one optional instant.
/// - **v5** — state nothing read is gone: the DVFS record's freeze
///   instant, the aggregate cells' `nr_queued` and profile sums, and
///   the power state's budget generation.
/// - **v6** — configuration stays out of images: the power state's
///   per-CPU budgets and each throttle controller's limit are no
///   longer saved, so a fork runs under its own config's budget.
/// - **v7** — counter banks no longer save a read count (nothing read
///   it), 8 bytes fewer per logical CPU.
/// - **v8** — one static priority: each runqueue array is one id list
///   instead of 40 per-priority lists (640 bytes fewer per logical
///   CPU); task records drop the nice value, initial profile, profile
///   weight and last dispatch time (32 bytes fewer per task ever
///   spawned); scheduler statistics drop the spawn and exit counts.
/// - **v9** — exited tasks leave the image: the scheduler's task table
///   and the engine's task runtimes each save the window of ids from
///   the oldest live task to the next id, one presence byte per id and
///   a record per live task (task records no longer carry their id,
///   which is their place in the window), so images grow with the live
///   set instead of with every task ever spawned.
/// - **v10** — one copy of each step's counts: the machine's per-CPU
///   counter banks and the estimator's per-CPU previous reads are gone
///   (two tables of nine `u64`s per logical CPU); sojourn samples,
///   task arrivals, routed arrivals and the pending arrival save their
///   load-curve phase as a one-byte index instead of its name; task
///   records drop the CPU time and the last migration's instant, and
///   keep its reason and cross-node flag in one optional record.
pub const FORMAT_VERSION: u32 = 10;

/// A restore failure. Every variant names enough context to locate
/// the divergence in the byte stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The image header is not a snapshot or is truncated.
    BadMagic,
    /// The image was written by a different format version.
    Version { found: u32, expected: u32 },
    /// The stored content hash does not match the payload.
    HashMismatch { stored: u64, computed: u64 },
    /// A section key differed from what the reader expected.
    KeyMismatch { expected: String, found: String },
    /// The byte stream ended before a read completed.
    Truncated { wanted: usize, left: usize },
    /// A value failed a semantic check on restore.
    Invalid(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::BadMagic => write!(f, "not a snapshot image (bad magic)"),
            StoreError::Version { found, expected } => {
                write!(f, "snapshot format v{found}, this build reads v{expected}")
            }
            StoreError::HashMismatch { stored, computed } => write!(
                f,
                "content hash mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
            StoreError::KeyMismatch { expected, found } => {
                write!(
                    f,
                    "section key mismatch: expected {expected:?}, found {found:?}"
                )
            }
            StoreError::Truncated { wanted, left } => {
                write!(f, "truncated image: wanted {wanted} bytes, {left} left")
            }
            StoreError::Invalid(what) => write!(f, "invalid snapshot value: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// FNV-1a over a byte slice — the store's stable content hash. Not
/// cryptographic; it is a drift detector, and 64 bits of avalanche is
/// plenty for "did two deterministic engines compute the same state".
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serialises state into the keyed byte layout.
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// An empty writer targeting [`FORMAT_VERSION`].
    pub fn new() -> Self {
        StateWriter::default()
    }

    /// Marks the start of a keyed section. Purely structural: the
    /// matching [`StateReader::key`] call validates it on restore.
    pub fn key(&mut self, key: &str) {
        debug_assert!(key.len() < 256, "section keys are short labels");
        self.buf.push(key.len() as u8);
        self.buf.extend_from_slice(key.as_bytes());
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` travels as `u64` so images are architecture-stable.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Floats travel by bit pattern: restore is exact and NaNs hash
    /// stably.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    pub fn time(&mut self, t: SimTime) {
        self.u64(t.as_micros());
    }

    pub fn duration(&mut self, d: SimDuration) {
        self.u64(d.as_micros());
    }

    pub fn watts(&mut self, w: Watts) {
        self.f64(w.0);
    }

    pub fn joules(&mut self, j: Joules) {
        self.f64(j.0);
    }

    pub fn celsius(&mut self, c: Celsius) {
        self.f64(c.0);
    }

    /// `Some`/`None` prefix plus the value via `f`.
    pub fn opt<T>(&mut self, v: &Option<T>, f: impl FnOnce(&mut Self, &T)) {
        match v {
            Some(inner) => {
                self.bool(true);
                f(self, inner);
            }
            None => self.bool(false),
        }
    }

    /// Length-prefixed sequence via `f` per element.
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.usize(items.len());
        for item in items {
            f(self, item);
        }
    }

    /// Serialised payload length so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Seals the payload into a versioned, hashed image.
    pub fn finish(self) -> StateImage {
        StateImage::seal(self.buf)
    }
}

/// Deserialises state from the keyed byte layout.
#[derive(Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let left = self.buf.len() - self.pos;
        if n > left {
            return Err(StoreError::Truncated { wanted: n, left });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Consumes a section key and checks it matches `expected`.
    ///
    /// # Errors
    ///
    /// [`StoreError::KeyMismatch`] naming both sides when the stream
    /// holds a different key — the first point of layout drift.
    pub fn key(&mut self, expected: &str) -> Result<(), StoreError> {
        let len = usize::from(self.take(1)?[0]);
        let found = String::from_utf8_lossy(self.take(len)?).into_owned();
        if found != expected {
            return Err(StoreError::KeyMismatch {
                expected: expected.to_string(),
                found,
            });
        }
        Ok(())
    }

    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    pub fn i64(&mut self) -> Result<i64, StoreError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    pub fn usize(&mut self) -> Result<usize, StoreError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| StoreError::Invalid(format!("usize overflow: {v}")))
    }

    pub fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn bool(&mut self) -> Result<bool, StoreError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StoreError::Invalid(format!("bool byte {other}"))),
        }
    }

    pub fn str(&mut self) -> Result<String, StoreError> {
        let len = self.usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| StoreError::Invalid(format!("non-UTF-8 string: {e}")))
    }

    pub fn time(&mut self) -> Result<SimTime, StoreError> {
        Ok(SimTime::from_micros(self.u64()?))
    }

    pub fn duration(&mut self) -> Result<SimDuration, StoreError> {
        Ok(SimDuration::from_micros(self.u64()?))
    }

    pub fn watts(&mut self) -> Result<Watts, StoreError> {
        Ok(Watts(self.f64()?))
    }

    pub fn joules(&mut self) -> Result<Joules, StoreError> {
        Ok(Joules(self.f64()?))
    }

    pub fn celsius(&mut self) -> Result<Celsius, StoreError> {
        Ok(Celsius(self.f64()?))
    }

    /// Reads an `Option` written by [`StateWriter::opt`].
    ///
    /// # Errors
    ///
    /// Propagates any decoding failure of the inner value.
    pub fn opt<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, StoreError>,
    ) -> Result<Option<T>, StoreError> {
        if self.bool()? {
            Ok(Some(f(self)?))
        } else {
            Ok(None)
        }
    }

    /// Reads a sequence written by [`StateWriter::seq`].
    ///
    /// # Errors
    ///
    /// Propagates any decoding failure of an element.
    pub fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, StoreError>,
    ) -> Result<Vec<T>, StoreError> {
        let n = self.usize()?;
        // Guard against corrupt lengths allocating the moon; the cap
        // is far above any real section.
        if n > (1 << 32) {
            return Err(StoreError::Invalid(format!("sequence length {n}")));
        }
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Restores a fixed-shape table written by [`StateWriter::seq`]
    /// into `items` in place, one `f` per entry.
    ///
    /// # Errors
    ///
    /// [`StoreError::Invalid`] naming the table (`what`) and both
    /// counts when the stored count differs from `items.len()` (a
    /// snapshot of a differently shaped machine); otherwise any
    /// failure of `f`.
    pub fn table<T>(
        &mut self,
        what: &str,
        items: &mut [T],
        mut f: impl FnMut(&mut Self, &mut T) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let n = self.usize()?;
        if n != items.len() {
            return Err(StoreError::Invalid(format!(
                "snapshot has {n} {what}, expected {}",
                items.len()
            )));
        }
        for item in items {
            f(self, item)?;
        }
        Ok(())
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// A sealed snapshot: header (magic, version, content hash, payload
/// length) plus the keyed payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateImage {
    bytes: Vec<u8>,
}

/// Header layout: magic(4) + version(4) + hash(8) + payload_len(8).
const HEADER_LEN: usize = 24;

impl StateImage {
    fn seal(payload: Vec<u8>) -> Self {
        let version = FORMAT_VERSION;
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&version.to_le_bytes());
        // The hash covers the version too: a layout change under an
        // unbumped version still flips nothing, but a bumped version
        // with identical bytes hashes differently — version confusion
        // can never alias.
        let mut hashed = version.to_le_bytes().to_vec();
        hashed.extend_from_slice(&payload);
        bytes.extend_from_slice(&fnv1a(&hashed).to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&payload);
        StateImage { bytes }
    }

    /// Wraps raw image bytes (e.g. read from a file) without
    /// validating them; [`StateImage::open`] validates.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        StateImage { bytes }
    }

    /// The full image bytes (header + payload).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The stored content hash — the state fingerprint the gates
    /// compare.
    ///
    /// # Panics
    ///
    /// Panics on an image too short to hold a header; images from
    /// [`StateWriter::finish`] always are long enough.
    pub fn hash(&self) -> u64 {
        u64::from_le_bytes(self.bytes[8..16].try_into().expect("header hash"))
    }

    /// The format version stamped in the header.
    ///
    /// # Panics
    ///
    /// Panics on an image too short to hold a header; images from
    /// [`StateWriter::finish`] always are long enough.
    pub fn version(&self) -> u32 {
        u32::from_le_bytes(self.bytes[4..8].try_into().expect("header version"))
    }

    /// Validates the header and returns a reader over the payload.
    /// Only the current [`FORMAT_VERSION`] opens.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the magic, version, length, or content
    /// hash disagrees with the payload.
    pub fn open(&self) -> Result<StateReader<'_>, StoreError> {
        if self.bytes.len() < HEADER_LEN || self.bytes[..4] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = self.version();
        if version != FORMAT_VERSION {
            return Err(StoreError::Version {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let stored = self.hash();
        let len = u64::from_le_bytes(self.bytes[16..24].try_into().expect("length")) as usize;
        let payload = &self.bytes[HEADER_LEN..];
        if payload.len() != len {
            return Err(StoreError::Truncated {
                wanted: len,
                left: payload.len(),
            });
        }
        let mut hashed = version.to_le_bytes().to_vec();
        hashed.extend_from_slice(payload);
        let computed = fnv1a(&hashed);
        if stored != computed {
            return Err(StoreError::HashMismatch { stored, computed });
        }
        Ok(StateReader {
            buf: payload,
            pos: 0,
        })
    }

    /// Writes the image to `path`.
    ///
    /// # Errors
    ///
    /// Any I/O error from the filesystem.
    pub fn write_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, &self.bytes)
    }

    /// Reads an image from `path` (unvalidated until opened).
    ///
    /// # Errors
    ///
    /// Any I/O error from the filesystem.
    pub fn read_file(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(StateImage::from_bytes(std::fs::read(path)?))
    }
}

/// A piece of mutable simulation state that can serialise itself into
/// the keyed layout and restore from it.
///
/// `restore` mutates a *freshly constructed* value of the same
/// configuration: immutable, config-derived parts (topologies, power
/// models, p-state tables) are never serialised — only what evolves
/// during a run. Restoring a snapshot into a value built from the
/// same config is bit-exact; the whole-sim composition additionally
/// supports *forking* into a different policy config, where sections
/// whose shape no longer matches are skipped in favour of the fresh
/// config's defaults.
pub trait Snapshot {
    /// Serialises the mutable state.
    fn save(&self, w: &mut StateWriter);

    /// Restores the mutable state saved by [`Snapshot::save`].
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the byte stream does not match the layout
    /// `save` produces (version drift, truncation, key mismatch).
    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), StoreError>;
}

/// Interns a string, returning a `&'static str` — the bridge between
/// serialised strings and the `&'static str` names of programs and of
/// their phases. Each distinct string leaks once, process-wide; the
/// universe of names in any run is small and fixed, so the leak is
/// bounded.
pub fn intern(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(HashSet::new()));
    let mut pool = pool.lock().expect("intern pool poisoned");
    if let Some(found) = pool.get(s) {
        return found;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    pool.insert(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = StateWriter::new();
        w.key("prims");
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.i64(-42);
        w.usize(123_456);
        w.f64(-0.125);
        w.f64(f64::NAN);
        w.bool(true);
        w.str("hello");
        w.time(SimTime::from_micros(987));
        w.duration(SimDuration::from_millis(5));
        w.watts(Watts(13.6));
        w.opt(&Some(9u64), |w, v| w.u64(*v));
        w.opt(&None::<u64>, |w, v| w.u64(*v));
        w.seq(&[1u64, 2, 3], |w, v| w.u64(*v));
        w.seq(&[4u64, 5], |w, v| w.u64(*v));
        w.seq(&[6u64, 7], |w, v| w.u64(*v));
        let image = w.finish();
        let mut r = image.open().expect("valid image");
        r.key("prims").unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.usize().unwrap(), 123_456);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert!(r.f64().unwrap().is_nan());
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.time().unwrap(), SimTime::from_micros(987));
        assert_eq!(r.duration().unwrap(), SimDuration::from_millis(5));
        assert_eq!(r.watts().unwrap(), Watts(13.6));
        assert_eq!(r.opt(|r| r.u64()).unwrap(), Some(9));
        assert_eq!(r.opt(|r| r.u64()).unwrap(), None);
        assert_eq!(r.seq(|r| r.u64()).unwrap(), vec![1, 2, 3]);
        let mut table = [0u64; 2];
        r.table("entries", &mut table, |r, v| r.u64().map(|x| *v = x))
            .unwrap();
        assert_eq!(table, [4, 5]);
        // A count mismatch is refused, naming the table and both counts.
        let mut wide = [0u64; 3];
        let err = r
            .table("timers", &mut wide, |r, v| r.u64().map(|x| *v = x))
            .unwrap_err();
        assert_eq!(
            err,
            StoreError::Invalid("snapshot has 2 timers, expected 3".into())
        );
        assert_eq!(wide, [0; 3], "nothing restored past the count check");
        assert_eq!(r.remaining(), 16);
    }

    #[test]
    fn identical_payloads_hash_identically() {
        let image = |x: u64| {
            let mut w = StateWriter::new();
            w.u64(x);
            w.finish()
        };
        assert_eq!(image(5).hash(), image(5).hash());
        assert_ne!(image(5).hash(), image(6).hash());
    }

    #[test]
    fn header_validation_rejects_corruption() {
        let mut w = StateWriter::new();
        w.u64(1);
        let image = w.finish();
        assert!(image.open().is_ok());

        let mut bad_magic = image.as_bytes().to_vec();
        bad_magic[0] = b'X';
        assert_eq!(
            StateImage::from_bytes(bad_magic).open().unwrap_err(),
            StoreError::BadMagic
        );

        let mut bad_version = image.as_bytes().to_vec();
        bad_version[4] = 99;
        assert!(matches!(
            StateImage::from_bytes(bad_version).open().unwrap_err(),
            StoreError::Version { found: 99, .. }
        ));

        let mut flipped = image.as_bytes().to_vec();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xff;
        assert!(matches!(
            StateImage::from_bytes(flipped).open().unwrap_err(),
            StoreError::HashMismatch { .. }
        ));

        let truncated = image.as_bytes()[..image.as_bytes().len() - 2].to_vec();
        assert!(matches!(
            StateImage::from_bytes(truncated).open().unwrap_err(),
            StoreError::Truncated { .. }
        ));
    }

    #[test]
    fn key_mismatch_names_both_sides() {
        let mut w = StateWriter::new();
        w.key("alpha");
        w.u64(1);
        let image = w.finish();
        let mut r = image.open().unwrap();
        let err = r.key("beta").unwrap_err();
        assert_eq!(
            err,
            StoreError::KeyMismatch {
                expected: "beta".into(),
                found: "alpha".into(),
            }
        );
        assert!(err.to_string().contains("alpha"));
    }

    #[test]
    fn file_round_trip() {
        let mut w = StateWriter::new();
        w.key("file");
        w.u64(0xabcd);
        let image = w.finish();
        let dir = std::env::temp_dir().join("ebs-store-test");
        let path = dir.join("probe.snap");
        image.write_file(&path).expect("write");
        let back = StateImage::read_file(&path).expect("read");
        assert_eq!(back.hash(), image.hash());
        let mut r = back.open().expect("open");
        r.key("file").unwrap();
        assert_eq!(r.u64().unwrap(), 0xabcd);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn intern_returns_stable_references() {
        let a = intern("bitcnts");
        let b = intern(&String::from("bitcnts"));
        assert!(std::ptr::eq(a, b));
        assert_eq!(intern("other"), "other");
    }
}
