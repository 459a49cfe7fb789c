//! Versioned device snapshots with per-component content hashes and
//! delta compression against a parent snapshot.
//!
//! A [`SocSnapshot`] is a named set of [`Component`]s:
//!
//! * `device/state` — the serialized [`mcds_psi::DeviceState`]: CPU
//!   registers and pipelines, bus arbiter and in-flight transactions, DMA,
//!   overlay mapper, peripherals, MCDS trigger/trace units, cross-trigger
//!   matrix, FIFOs, trace sink, link statistics, service core and fault
//!   injectors;
//! * `soc/flash`, `soc/sram`, `soc/emem` — raw memory images, kept separate
//!   from the structured state so the megabyte-class memories can be
//!   delta-compressed against a parent snapshot (they change slowly, while
//!   the structured state churns every cycle).
//!
//! Every component carries an FNV-1a hash of its raw contents, computed at
//! capture time and re-checked when a delta chain is materialized.

use crate::hash::fnv1a64;
use mcds_psi::{Device, DeviceState};
use mcds_soc::soc::MemoryId;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Snapshot format version; bump on any incompatible change to the
/// component set or encodings.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Merge two difference runs into one [`DeltaOp`] when the gap of equal
/// bytes between them is at most this long — one op's framing overhead
/// outweighs re-sending a few unchanged bytes.
const DELTA_MERGE_GAP: usize = 16;

/// A typed error from persisting or loading a snapshot, or from an
/// integrity check over its contents.
///
/// Suspend-to-disk consumers (the debug farm's session eviction) must not
/// crash the service on a bad file — they surface these and keep serving.
#[derive(Debug)]
pub enum SnapshotIoError {
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// The snapshot failed to (de)serialize.
    Json {
        /// The path involved (empty for in-memory round trips).
        path: PathBuf,
        /// The underlying serialization error.
        source: serde_json::Error,
    },
    /// The snapshot was written by an incompatible format version.
    Version {
        /// Version found in the file.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// A component's contents no longer match its recorded hash — the file
    /// was corrupted (or tampered with) between save and load.
    Corrupt {
        /// Name of the failing component.
        component: String,
        /// Hash recorded at capture time.
        expected: u64,
        /// Hash recomputed from the loaded contents.
        found: u64,
    },
}

impl fmt::Display for SnapshotIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotIoError::Io { path, source } => {
                write!(f, "snapshot I/O failed at {}: {source}", path.display())
            }
            SnapshotIoError::Json { path, source } => {
                write!(f, "snapshot JSON failed at {}: {source}", path.display())
            }
            SnapshotIoError::Version { found, expected } => {
                write!(f, "snapshot version {found} incompatible with {expected}")
            }
            SnapshotIoError::Corrupt {
                component,
                expected,
                found,
            } => write!(
                f,
                "snapshot component {component} corrupt: recorded hash {expected:#018x}, \
                 recomputed {found:#018x}"
            ),
        }
    }
}

impl std::error::Error for SnapshotIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotIoError::Io { source, .. } => Some(source),
            SnapshotIoError::Json { source, .. } => Some(source),
            SnapshotIoError::Version { .. } | SnapshotIoError::Corrupt { .. } => None,
        }
    }
}

/// A contiguous byte-range replacement within a component image.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq, Eq)]
pub struct DeltaOp {
    /// Byte offset into the image.
    pub offset: u64,
    /// Replacement bytes.
    pub bytes: Vec<u8>,
}

/// How a component's contents are stored in a snapshot.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// The full contents.
    Raw(Vec<u8>),
    /// Byte-range replacements against the same-named component of the
    /// parent snapshot (which must have identical length).
    Delta {
        /// Total image length (must match the parent's).
        len: u64,
        /// Replacements, sorted by offset, non-overlapping.
        ops: Vec<DeltaOp>,
    },
    /// Bit-identical to the parent's component (hashes matched).
    Same,
}

impl Payload {
    /// The bytes this payload actually stores (content bytes plus 12 bytes
    /// of framing per delta op) — the size metric the T9 experiment reports
    /// for raw-versus-delta comparisons without paying for full JSON
    /// serialization.
    pub fn stored_bytes(&self) -> usize {
        match self {
            Payload::Raw(b) => b.len(),
            Payload::Delta { ops, .. } => ops.iter().map(|op| op.bytes.len() + 12).sum(),
            Payload::Same => 0,
        }
    }
}

/// One named, hashed piece of device state.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq, Eq)]
pub struct Component {
    name: String,
    hash: u64,
    payload: Payload,
}

impl Component {
    /// The component's name (e.g. `soc/sram`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// FNV-1a hash of the component's full (materialized) contents.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// How the contents are stored.
    pub fn payload(&self) -> &Payload {
        &self.payload
    }
}

/// A versioned snapshot of a whole [`Device`] at one cycle.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq, Eq)]
pub struct SocSnapshot {
    version: u32,
    cycle: u64,
    components: Vec<Component>,
}

impl SocSnapshot {
    /// Captures a full (all-raw) snapshot of the device.
    pub fn capture(dev: &Device) -> SocSnapshot {
        let span_t0 = dev.telemetry().map(|_| std::time::Instant::now());
        let mut components = Vec::with_capacity(4);
        let state =
            serde_json::to_string(&dev.save_state()).expect("device state serializes infallibly");
        components.push(raw_component("device/state", state.into_bytes()));
        for (name, id) in [
            ("soc/flash", MemoryId::Flash),
            ("soc/sram", MemoryId::Sram),
            ("soc/emem", MemoryId::Emem),
        ] {
            if let Some(image) = dev.soc().memory_image(id) {
                components.push(raw_component(name, image));
            }
        }
        let cycle = dev.soc().cycle();
        if let (Some(t0), Some(tel)) = (span_t0, dev.telemetry()) {
            tel.span(
                mcds_telemetry::Subsystem::Snapshot,
                cycle,
                cycle,
                t0.elapsed().as_nanos() as u64,
            );
        }
        SocSnapshot {
            version: SNAPSHOT_VERSION,
            cycle,
            components,
        }
    }

    /// Format version of this snapshot.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The device cycle at which the snapshot was captured.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The snapshot's components.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Looks up a component by name.
    pub fn component(&self, name: &str) -> Option<&Component> {
        self.components.iter().find(|c| c.name == name)
    }

    /// True when every component stores its full contents (no parent
    /// needed to restore).
    pub fn is_raw(&self) -> bool {
        self.components
            .iter()
            .all(|c| matches!(c.payload, Payload::Raw(_)))
    }

    /// Re-encodes this (raw) snapshot as a delta against `parent` (also
    /// raw): components whose hashes match the parent become [`Payload::Same`],
    /// equal-length components become byte-run [`Payload::Delta`]s, and
    /// anything without a usable parent counterpart stays raw. Hashes and
    /// cycle are preserved, so [`SocSnapshot::state_hash`] is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not raw (delta chains deeper than one level are
    /// not supported; materialize first).
    pub fn delta_from(&self, parent: &SocSnapshot) -> SocSnapshot {
        let components = self
            .components
            .iter()
            .map(|c| {
                let Payload::Raw(bytes) = &c.payload else {
                    panic!("delta_from requires a raw snapshot (component {})", c.name);
                };
                let payload = match parent.component(&c.name) {
                    Some(p) if p.hash == c.hash => Payload::Same,
                    Some(Component {
                        payload: Payload::Raw(parent_bytes),
                        ..
                    }) if parent_bytes.len() == bytes.len() => Payload::Delta {
                        len: bytes.len() as u64,
                        ops: diff_runs(parent_bytes, bytes),
                    },
                    _ => Payload::Raw(bytes.clone()),
                };
                Component {
                    name: c.name.clone(),
                    hash: c.hash,
                    payload,
                }
            })
            .collect();
        SocSnapshot {
            version: self.version,
            cycle: self.cycle,
            components,
        }
    }

    /// Resolves `Same`/`Delta` payloads against `parent` and returns a raw
    /// snapshot. Raw snapshots pass through unchanged (parent unused).
    ///
    /// # Panics
    ///
    /// Panics if a non-raw component has no raw parent counterpart, or if a
    /// reconstructed component fails its recorded content hash.
    pub fn materialize(&self, parent: Option<&SocSnapshot>) -> SocSnapshot {
        let components = self
            .components
            .iter()
            .map(|c| {
                let bytes = match &c.payload {
                    Payload::Raw(b) => b.clone(),
                    Payload::Same => parent_raw(parent, &c.name).to_vec(),
                    Payload::Delta { len, ops } => {
                        let mut bytes = parent_raw(parent, &c.name).to_vec();
                        assert_eq!(
                            bytes.len() as u64,
                            *len,
                            "delta length mismatch for component {}",
                            c.name
                        );
                        for op in ops {
                            let start = op.offset as usize;
                            bytes[start..start + op.bytes.len()].copy_from_slice(&op.bytes);
                        }
                        bytes
                    }
                };
                assert_eq!(
                    fnv1a64(&bytes),
                    c.hash,
                    "content hash mismatch materializing component {}",
                    c.name
                );
                Component {
                    name: c.name.clone(),
                    hash: c.hash,
                    payload: Payload::Raw(bytes),
                }
            })
            .collect();
        SocSnapshot {
            version: self.version,
            cycle: self.cycle,
            components,
        }
    }

    /// Restores this (raw) snapshot onto a device built with the identical
    /// configuration: memory images first, then the structured runtime
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot is not raw, the format version is unknown,
    /// or the device's configuration does not structurally match (wrong
    /// core count, memory sizes, fitted options).
    pub fn restore_into(&self, dev: &mut Device) {
        assert_eq!(
            self.version, SNAPSHOT_VERSION,
            "unsupported snapshot version"
        );
        // Telemetry lives outside DeviceState, so the attachment (and this
        // span) survives the restore itself.
        let span_t0 = dev.telemetry().map(|_| std::time::Instant::now());
        for (name, id) in [
            ("soc/flash", MemoryId::Flash),
            ("soc/sram", MemoryId::Sram),
            ("soc/emem", MemoryId::Emem),
        ] {
            if let Some(c) = self.component(name) {
                let Payload::Raw(image) = &c.payload else {
                    panic!("restore_into requires a raw snapshot (component {name})");
                };
                dev.soc_mut().restore_memory_image(id, image);
            }
        }
        let c = self
            .component("device/state")
            .expect("snapshot has a device/state component");
        let Payload::Raw(bytes) = &c.payload else {
            panic!("restore_into requires a raw snapshot (component device/state)");
        };
        let json = std::str::from_utf8(bytes).expect("device state is UTF-8 JSON");
        let state: DeviceState = serde_json::from_str(json).expect("device state deserializes");
        dev.restore_state(&state);
        if let (Some(t0), Some(tel)) = (span_t0, dev.telemetry()) {
            tel.span(
                mcds_telemetry::Subsystem::Restore,
                self.cycle,
                self.cycle,
                t0.elapsed().as_nanos() as u64,
            );
        }
    }

    /// A single hash summarizing the whole snapshot: the capture cycle plus
    /// every component's name and content hash, in capture order. Stable
    /// across delta encoding and materialization.
    pub fn state_hash(&self) -> u64 {
        let mut h = crate::hash::extend_fnv1a64(0xcbf2_9ce4_8422_2325, &self.cycle.to_le_bytes());
        for c in &self.components {
            h = crate::hash::extend_fnv1a64(h, c.name.as_bytes());
            h = crate::hash::extend_fnv1a64(h, &c.hash.to_le_bytes());
        }
        h
    }

    /// Total content bytes stored across all components (see
    /// [`Payload::stored_bytes`]) — the cheap size metric used when
    /// comparing raw against delta snapshots.
    pub fn stored_bytes(&self) -> usize {
        self.components
            .iter()
            .map(|c| c.payload.stored_bytes())
            .sum()
    }

    /// The exact size of the snapshot serialized to JSON. Exercises the
    /// full persistence path and is accordingly much more expensive than
    /// [`SocSnapshot::stored_bytes`].
    pub fn serialized_size(&self) -> usize {
        serde_json::to_string(self)
            .expect("snapshot serializes infallibly")
            .len()
    }

    /// An accounting size for the snapshot held in memory: content bytes
    /// plus per-component framing (name and hash). This is what memory
    /// budgets (the farm's eviction policy) charge per resident snapshot.
    pub fn size_bytes(&self) -> usize {
        self.components
            .iter()
            .map(|c| c.name.len() + 8 + c.payload.stored_bytes())
            .sum()
    }

    /// Recomputes every raw component's content hash and checks it against
    /// the hash recorded at capture time. `Delta`/`Same` payloads are
    /// skipped (their hashes are checked when materialized against a
    /// parent).
    ///
    /// # Errors
    ///
    /// [`SnapshotIoError::Corrupt`] naming the first failing component.
    pub fn verify_integrity(&self) -> Result<(), SnapshotIoError> {
        for c in &self.components {
            if let Payload::Raw(bytes) = &c.payload {
                let found = fnv1a64(bytes);
                if found != c.hash {
                    return Err(SnapshotIoError::Corrupt {
                        component: c.name.clone(),
                        expected: c.hash,
                        found,
                    });
                }
            }
        }
        Ok(())
    }

    /// Writes the snapshot as JSON to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// [`SnapshotIoError::Json`] or [`SnapshotIoError::Io`].
    pub fn save(&self, path: &Path) -> Result<(), SnapshotIoError> {
        let json = serde_json::to_string(self).map_err(|source| SnapshotIoError::Json {
            path: path.to_path_buf(),
            source,
        })?;
        let io_err = |source| SnapshotIoError::Io {
            path: path.to_path_buf(),
            source,
        };
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(io_err)?;
        }
        std::fs::write(path, json).map_err(io_err)
    }

    /// Reads a snapshot back from `path`, checking the format version and
    /// every component's content hash — a snapshot that survives `load` is
    /// guaranteed restorable exactly as captured.
    ///
    /// # Errors
    ///
    /// [`SnapshotIoError::Io`] / [`SnapshotIoError::Json`] on unreadable or
    /// malformed files, [`SnapshotIoError::Version`] on an incompatible
    /// format, [`SnapshotIoError::Corrupt`] when contents fail their
    /// recorded hash.
    pub fn load(path: &Path) -> Result<SocSnapshot, SnapshotIoError> {
        let json = std::fs::read_to_string(path).map_err(|source| SnapshotIoError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        let snap: SocSnapshot =
            serde_json::from_str(&json).map_err(|source| SnapshotIoError::Json {
                path: path.to_path_buf(),
                source,
            })?;
        if snap.version != SNAPSHOT_VERSION {
            return Err(SnapshotIoError::Version {
                found: snap.version,
                expected: SNAPSHOT_VERSION,
            });
        }
        snap.verify_integrity()?;
        Ok(snap)
    }
}

fn raw_component(name: &str, bytes: Vec<u8>) -> Component {
    Component {
        name: name.to_string(),
        hash: fnv1a64(&bytes),
        payload: Payload::Raw(bytes),
    }
}

fn parent_raw<'a>(parent: Option<&'a SocSnapshot>, name: &str) -> &'a [u8] {
    let parent = parent.unwrap_or_else(|| panic!("component {name} needs a parent snapshot"));
    match parent.component(name) {
        Some(Component {
            payload: Payload::Raw(bytes),
            ..
        }) => bytes,
        Some(_) => panic!("parent component {name} is not raw; materialize the parent first"),
        None => panic!("parent snapshot lacks component {name}"),
    }
}

/// Computes byte-run replacements turning `parent` into `child` (equal
/// lengths). Runs separated by short equal gaps are merged.
fn diff_runs(parent: &[u8], child: &[u8]) -> Vec<DeltaOp> {
    debug_assert_eq!(parent.len(), child.len());
    let mut ops: Vec<DeltaOp> = Vec::new();
    let mut i = 0;
    while i < child.len() {
        if parent[i] == child[i] {
            i += 1;
            continue;
        }
        let start = i;
        let mut end = i + 1;
        // Extend the run across difference bytes, absorbing equal gaps of
        // at most DELTA_MERGE_GAP bytes.
        let mut j = end;
        while j < child.len() {
            if parent[j] != child[j] {
                j += 1;
                end = j;
            } else {
                let gap_start = j;
                while j < child.len() && parent[j] == child[j] && j - gap_start < DELTA_MERGE_GAP {
                    j += 1;
                }
                if j < child.len() && parent[j] != child[j] {
                    continue; // gap was short; keep extending the same op
                }
                break;
            }
        }
        ops.push(DeltaOp {
            offset: start as u64,
            bytes: child[start..end].to_vec(),
        });
        i = end;
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply(parent: &[u8], ops: &[DeltaOp]) -> Vec<u8> {
        let mut out = parent.to_vec();
        for op in ops {
            let s = op.offset as usize;
            out[s..s + op.bytes.len()].copy_from_slice(&op.bytes);
        }
        out
    }

    #[test]
    fn diff_roundtrips_arbitrary_changes() {
        let parent: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let mut child = parent.clone();
        child[0] = 0xFF;
        child[100..104].copy_from_slice(&[1, 2, 3, 4]);
        child[110] ^= 0x80; // within merge gap of the previous run
        child[4095] = 0xAA;
        let ops = diff_runs(&parent, &child);
        assert_eq!(apply(&parent, &ops), child);
        // The 100..104 and 110 changes merge into one op (gap of 6 < 16).
        assert_eq!(ops.len(), 3, "{ops:?}");
    }

    #[test]
    fn diff_of_identical_images_is_empty() {
        let img = vec![7u8; 1000];
        assert!(diff_runs(&img, &img).is_empty());
    }

    #[test]
    fn diff_handles_trailing_difference() {
        let parent = vec![0u8; 64];
        let mut child = parent.clone();
        for b in child[60..].iter_mut() {
            *b = 9;
        }
        let ops = diff_runs(&parent, &child);
        assert_eq!(apply(&parent, &ops), child);
    }

    fn synthetic_snapshot() -> SocSnapshot {
        SocSnapshot {
            version: SNAPSHOT_VERSION,
            cycle: 1234,
            components: vec![
                raw_component("device/state", b"{\"fake\":true}".to_vec()),
                raw_component("soc/sram", (0..512u32).map(|i| (i % 7) as u8).collect()),
            ],
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mcds-snapshot-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn save_load_round_trips_and_preserves_state_hash() {
        let snap = synthetic_snapshot();
        let path = temp_path("roundtrip.json");
        snap.save(&path).expect("save");
        let loaded = SocSnapshot::load(&path).expect("load");
        assert_eq!(loaded, snap);
        assert_eq!(loaded.state_hash(), snap.state_hash());
        assert!(snap.size_bytes() > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_corrupted_contents() {
        let mut snap = synthetic_snapshot();
        // Flip a content byte without updating the recorded hash — exactly
        // what on-disk corruption between save and load looks like.
        let Payload::Raw(bytes) = &mut snap.components[1].payload else {
            unreachable!()
        };
        bytes[17] ^= 0x40;
        let path = temp_path("corrupt.json");
        snap.save(&path).expect("save");
        match SocSnapshot::load(&path) {
            Err(SnapshotIoError::Corrupt { component, .. }) => assert_eq!(component, "soc/sram"),
            other => panic!("expected Corrupt error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_future_version() {
        let mut snap = synthetic_snapshot();
        snap.version = SNAPSHOT_VERSION + 1;
        let path = temp_path("version.json");
        snap.save(&path).expect("save");
        match SocSnapshot::load(&path) {
            Err(SnapshotIoError::Version { found, expected }) => {
                assert_eq!(found, SNAPSHOT_VERSION + 1);
                assert_eq!(expected, SNAPSHOT_VERSION);
            }
            other => panic!("expected Version error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}
