//! Versioned device snapshots with per-component content hashes.
//!
//! A [`SocSnapshot`] is a list of named [`Component`]s in the order of one
//! walk over the device:
//!
//! * `device/state` — the serialized [`mcds_psi::DeviceState`]: CPU
//!   registers and pipelines, bus arbiter and in-flight transactions, DMA,
//!   overlay mapper, peripherals, MCDS trigger/trace units, cross-trigger
//!   matrix, FIFOs, trace sink, link statistics, service core and fault
//!   injectors, kept as `{name, hash, bytes}` with the JSON as hex;
//! * `soc/flash`, `soc/sram`, `soc/emem` — every fitted memory as a
//!   sparse page image `{name, hash, size, pages: [{index, hex}]}`: only
//!   the 4 KiB pages that differ from the memory's reset value (erased
//!   flash, zeroed RAM) are listed. A session touches a few of a device's
//!   ~700 pages, so a snapshot is tens of kilobytes, not megabytes.
//!
//! Every component carries a hash computed at capture time and re-checked
//! at load: FNV-1a of the state bytes, or for a memory the fold of its
//! page hashes ([`mcds_soc::mem::fold_page_hashes`]), where an unlisted
//! page hashes as the reset-page constant. The device side keeps the same
//! page hashes cached in each memory's page summary
//! ([`mcds_soc::mem::PagedBytes`]), and [`crate::device_state_hash`]
//! folds them exactly as [`SocSnapshot::state_hash`] folds the components:
//! a device and its snapshot hash equal by construction.

use crate::hash::{fnv1a64, fold_parts};
use mcds_psi::{Device, DeviceState};
use mcds_soc::mem::{fold_page_hashes, page_count, page_len, reset_page_hash, PagedBytes};
use mcds_soc::soc::MemoryId;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Snapshot format version; bump on any incompatible change to the
/// component set or encodings.
pub const SNAPSHOT_VERSION: u32 = 4;

/// Name of the structured-state component.
const DEVICE_STATE: &str = "device/state";

/// The memory components, in walk order: the one table mapping component
/// names to memories, shared by capture, restore and hashing.
const MEMORIES: [(&str, MemoryId); 3] = [
    ("soc/flash", MemoryId::Flash),
    ("soc/sram", MemoryId::Sram),
    ("soc/emem", MemoryId::Emem),
];

/// The memory a component name stands for, if it names one.
fn memory_id(name: &str) -> Option<MemoryId> {
    MEMORIES.iter().find(|(n, _)| *n == name).map(|&(_, id)| id)
}

/// One piece of device state handed out by [`walk`].
pub(crate) enum Part<'a> {
    /// The serialized device state.
    State(&'a [u8]),
    /// A fitted memory, with its page summary.
    Memory(&'a PagedBytes),
}

impl Part<'_> {
    /// The part's content hash, as its snapshot component records it.
    pub(crate) fn hash(&self) -> u64 {
        match self {
            Part::State(bytes) => fnv1a64(bytes),
            Part::Memory(memory) => memory.hash(),
        }
    }
}

/// Visits the device's snapshot components in canonical order — the
/// serialized `device/state`, then each fitted memory, borrowed — handing
/// each name and part to `visit`.
pub(crate) fn walk(dev: &Device, visit: impl FnMut(&'static str, Part<'_>)) {
    walk_with(dev, &dev.save_state(), visit);
}

/// [`walk`] with the device's state already saved as `state`.
fn walk_with(dev: &Device, state: &DeviceState, mut visit: impl FnMut(&'static str, Part<'_>)) {
    let state = serde_json::to_string(state).expect("device state serializes infallibly");
    visit(DEVICE_STATE, Part::State(state.as_bytes()));
    for (name, id) in MEMORIES {
        if let Some(memory) = dev.soc().memory(id) {
            visit(name, Part::Memory(memory));
        }
    }
}

/// Serializes `value` as JSON and writes it to `path` atomically: the
/// parent directory is created, the JSON goes to a sibling `*.tmp` file,
/// and a `rename` moves it into place, so a reader sees the old file or
/// the new one, never a torn write. Returns the number of bytes written.
/// Nothing is `fsync`ed: the guarantee covers failed writes and
/// concurrent readers, not a host crash.
///
/// # Errors
///
/// Any I/O failure (a serialization failure surfaces as
/// [`io::ErrorKind::InvalidData`]); the temp file is removed on failure.
pub fn write_json_atomic(path: &Path, value: &impl serde::Serialize) -> io::Result<usize> {
    let json =
        serde_json::to_string(value).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let written = std::fs::write(&tmp, &json).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written.map(|()| json.len())
}

/// [`write_json_atomic`], reporting a failure as [`SnapshotIoError::Io`].
pub(crate) fn save_json(path: &Path, value: &impl serde::Serialize) -> Result<(), SnapshotIoError> {
    write_json_atomic(path, value)
        .map(drop)
        .map_err(|source| SnapshotIoError::Io {
            path: path.to_path_buf(),
            source,
        })
}

/// Reads and parses a JSON file, reporting failures as typed errors.
pub(crate) fn read_json<T: serde::de::DeserializeOwned>(path: &Path) -> Result<T, SnapshotIoError> {
    let json = std::fs::read_to_string(path).map_err(|source| SnapshotIoError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    serde_json::from_str(&json).map_err(|source| SnapshotIoError::Json {
        path: path.to_path_buf(),
        source,
    })
}

/// A typed [`SnapshotIoError::Version`] unless `found == expected`.
pub(crate) fn check_version(found: u32, expected: u32) -> Result<(), SnapshotIoError> {
    if found == expected {
        Ok(())
    } else {
        Err(SnapshotIoError::Version { found, expected })
    }
}

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
    /// The snapshot failed to parse.
    Json {
        /// The path involved.
        path: PathBuf,
        /// The underlying parse error.
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
    /// was corrupted (or tampered with) between save and load. A memory
    /// component whose page list is malformed (an index past the image's
    /// end or out of order, a page of the wrong length) is corrupt too,
    /// with `found` 0: a capture never writes one, and it cannot be hashed.
    Corrupt {
        /// Name of the failing component.
        component: String,
        /// Hash recorded at capture time.
        expected: u64,
        /// Hash recomputed from the loaded contents (0 for a malformed
        /// page list).
        found: u64,
    },
    /// A memory component does not fit the device it is restored onto:
    /// its size differs from the fitted memory's, or the memory is not
    /// fitted.
    Misfit {
        /// Name of the memory component.
        component: String,
        /// Size of the device's memory (0 when not fitted).
        expected: usize,
        /// Size of the component's image.
        found: usize,
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
            SnapshotIoError::Misfit {
                component,
                expected,
                found,
            } => write!(
                f,
                "snapshot component {component} holds {found} bytes, the device's memory \
                 {expected}"
            ),
        }
    }
}

impl std::error::Error for SnapshotIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotIoError::Io { source, .. } => Some(source),
            SnapshotIoError::Json { source, .. } => Some(source),
            SnapshotIoError::Version { .. }
            | SnapshotIoError::Corrupt { .. }
            | SnapshotIoError::Misfit { .. } => None,
        }
    }
}

/// One named, hashed piece of device state, serialized as
/// `{name, hash, bytes}` (the device state, bytes as one lowercase hex
/// string) or `{name, hash, size, pages: [{index, hex}]}` (a memory).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    name: String,
    hash: u64,
    contents: Contents,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Contents {
    /// The serialized device state.
    Bytes(Vec<u8>),
    /// A memory image of `size` bytes: the pages that differ from the
    /// memory's reset value, `(index, bytes)`, by ascending index.
    Pages {
        size: usize,
        pages: Vec<(usize, Vec<u8>)>,
    },
}

impl Component {
    fn state(bytes: Vec<u8>) -> Component {
        Component {
            name: DEVICE_STATE.to_string(),
            hash: fnv1a64(&bytes),
            contents: Contents::Bytes(bytes),
        }
    }

    /// A copy of `memory`'s pages that differ from reset, hashed by the
    /// same fold as [`PagedBytes::hash`].
    fn memory(name: &str, memory: &PagedBytes) -> Component {
        let mut pages = Vec::new();
        let hash = fold_page_hashes(
            memory.len(),
            memory.pages().map(|page| {
                if let Some(bytes) = page.bytes {
                    pages.push((page.index, bytes.to_vec()));
                }
                page.hash
            }),
        );
        Component {
            name: name.to_string(),
            hash,
            contents: Contents::Pages {
                size: memory.len(),
                pages,
            },
        }
    }

    /// The component's name (e.g. `soc/sram`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The component's content hash, recorded at capture time.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The device-state bytes, or `None` for a memory component.
    pub fn state_bytes(&self) -> Option<&[u8]> {
        match &self.contents {
            Contents::Bytes(bytes) => Some(bytes),
            Contents::Pages { .. } => None,
        }
    }

    /// A memory component's image size and listed page count, or `None`
    /// for the device state.
    pub fn memory_pages(&self) -> Option<(usize, usize)> {
        match &self.contents {
            Contents::Bytes(_) => None,
            Contents::Pages { size, pages } => Some((*size, pages.len())),
        }
    }

    /// Bytes the component holds: the state bytes, or the listed pages.
    pub fn stored_bytes(&self) -> usize {
        match &self.contents {
            Contents::Bytes(bytes) => bytes.len(),
            Contents::Pages { pages, .. } => pages.iter().map(|(_, p)| p.len()).sum(),
        }
    }

    /// Checks a memory component's page list: indices ascend and lie
    /// inside the image, and every page has its full length (the last one
    /// may be short).
    ///
    /// # Errors
    ///
    /// [`SnapshotIoError::Corrupt`] (with `found` 0) on the first bad page.
    fn check_pages(&self) -> Result<(), SnapshotIoError> {
        let Contents::Pages { size, pages } = &self.contents else {
            return Ok(());
        };
        let mut next = 0;
        for (index, bytes) in pages {
            if *index < next
                || *index >= page_count(*size)
                || bytes.len() != page_len(*size, *index)
            {
                return Err(SnapshotIoError::Corrupt {
                    component: self.name.clone(),
                    expected: self.hash,
                    found: 0,
                });
            }
            next = index + 1;
        }
        Ok(())
    }

    /// Recomputes the content hash from the contents. A memory component
    /// must have passed [`Component::check_pages`].
    fn recompute_hash(&self) -> u64 {
        match &self.contents {
            Contents::Bytes(bytes) => fnv1a64(bytes),
            Contents::Pages { size, pages } => {
                let reset = memory_id(&self.name)
                    .expect("memory components name a memory")
                    .reset_value();
                let mut listed = pages.iter().peekable();
                fold_page_hashes(
                    *size,
                    (0..page_count(*size)).map(|index| {
                        match listed.next_if(|(i, _)| *i == index) {
                            Some((_, bytes)) => fnv1a64(bytes),
                            None => reset_page_hash(reset, page_len(*size, index)),
                        }
                    }),
                )
            }
        }
    }
}

impl serde::Serialize for Component {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("name".to_string(), self.name.to_value()),
            ("hash".to_string(), self.hash.to_value()),
        ];
        match &self.contents {
            Contents::Bytes(bytes) => {
                fields.push(("bytes".to_string(), serde::Value::Str(hex_encode(bytes))))
            }
            Contents::Pages { size, pages } => {
                fields.push(("size".to_string(), size.to_value()));
                let pages = pages
                    .iter()
                    .map(|(index, bytes)| {
                        serde::Value::Map(vec![
                            ("index".to_string(), index.to_value()),
                            ("hex".to_string(), serde::Value::Str(hex_encode(bytes))),
                        ])
                    })
                    .collect();
                fields.push(("pages".to_string(), serde::Value::Seq(pages)));
            }
        }
        serde::Value::Map(fields)
    }
}

/// The bytes of a hex string field.
fn hex_field(v: &serde::Value, key: &str) -> Result<Vec<u8>, serde::Error> {
    let serde::Value::Str(hex) = serde::map_get(v, key)? else {
        return Err(serde::Error::msg(format!(
            "component {key} must be a hex string"
        )));
    };
    hex_decode(hex)
}

impl serde::Deserialize for Component {
    fn from_value(v: &serde::Value) -> Result<Component, serde::Error> {
        let name = String::from_value(serde::map_get(v, "name")?)?;
        let contents = if name == DEVICE_STATE {
            Contents::Bytes(hex_field(v, "bytes")?)
        } else if memory_id(&name).is_some() {
            let pages = serde::seq_items(serde::map_get(v, "pages")?)?
                .iter()
                .map(|page| {
                    Ok((
                        usize::from_value(serde::map_get(page, "index")?)?,
                        hex_field(page, "hex")?,
                    ))
                })
                .collect::<Result<_, serde::Error>>()?;
            // Verifying folds every page of the image, so bound the size
            // a file can claim: no memory outgrows the 32-bit bus.
            let size = usize::from_value(serde::map_get(v, "size")?)?;
            if size as u64 > 1 << 32 {
                return Err(serde::Error::msg(format!(
                    "{name} size {size} exceeds the 32-bit address space"
                )));
            }
            Contents::Pages { size, pages }
        } else {
            return Err(serde::Error::msg(format!(
                "unknown snapshot component {name}"
            )));
        };
        Ok(Component {
            name,
            hash: u64::from_value(serde::map_get(v, "hash")?)?,
            contents,
        })
    }
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Each byte's value as a lowercase hex digit, or `0xff` if it is none.
const NIBBLES: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut d = 0;
    while d < 16 {
        table[HEX_DIGITS[d] as usize] = d as u8;
        d += 1;
    }
    table
};

/// `bytes` as lowercase hex, two digits per byte.
fn hex_encode(bytes: &[u8]) -> String {
    let mut hex = vec![0; 2 * bytes.len()];
    for (digits, &b) in hex.chunks_exact_mut(2).zip(bytes) {
        digits[0] = HEX_DIGITS[usize::from(b >> 4)];
        digits[1] = HEX_DIGITS[usize::from(b & 0xf)];
    }
    String::from_utf8(hex).expect("hex digits are ASCII")
}

/// The bytes of a [`hex_encode`]d string.
///
/// # Errors
///
/// An odd length or any character outside `[0-9a-f]`.
fn hex_decode(hex: &str) -> Result<Vec<u8>, serde::Error> {
    if !hex.len().is_multiple_of(2) {
        return Err(serde::Error::msg(format!(
            "component bytes have odd hex length {}",
            hex.len()
        )));
    }
    // Decode first and look for the culprit only if some digit was bad:
    // the loop stays branch-free.
    let mut bytes = vec![0; hex.len() / 2];
    let mut seen = 0;
    for (b, digits) in bytes.iter_mut().zip(hex.as_bytes().chunks_exact(2)) {
        let (hi, lo) = (
            NIBBLES[usize::from(digits[0])],
            NIBBLES[usize::from(digits[1])],
        );
        seen |= hi | lo;
        *b = hi << 4 | lo;
    }
    if seen > 0xf {
        let at = hex
            .bytes()
            .position(|d| NIBBLES[usize::from(d)] > 0xf)
            .expect("a digit decoded out of range");
        return Err(serde::Error::msg(format!(
            "component bytes: byte {at} is not a lowercase hex digit"
        )));
    }
    Ok(bytes)
}

/// A versioned snapshot of a whole [`Device`] at one cycle.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq, Eq)]
pub struct SocSnapshot {
    version: u32,
    cycle: u64,
    components: Vec<Component>,
}

impl SocSnapshot {
    /// Captures a snapshot of the device: a copy of every component the
    /// device walk yields.
    pub fn capture(dev: &Device) -> SocSnapshot {
        SocSnapshot::capture_state(dev).0
    }

    /// [`SocSnapshot::capture`], also returning the device state the
    /// snapshot serializes (a checkpoint keeps it parsed, saved once).
    pub(crate) fn capture_state(dev: &Device) -> (SocSnapshot, DeviceState) {
        let span_t0 = dev.telemetry().map(|_| std::time::Instant::now());
        let state = dev.save_state();
        let mut components = Vec::with_capacity(1 + MEMORIES.len());
        walk_with(dev, &state, |name, part| {
            components.push(match part {
                Part::State(bytes) => Component::state(bytes.to_vec()),
                Part::Memory(memory) => Component::memory(name, memory),
            })
        });
        let cycle = dev.soc().cycle();
        if let (Some(t0), Some(tel)) = (span_t0, dev.telemetry()) {
            tel.span(
                mcds_telemetry::Subsystem::Snapshot,
                cycle,
                cycle,
                t0.elapsed().as_nanos() as u64,
            );
        }
        let snapshot = SocSnapshot {
            version: SNAPSHOT_VERSION,
            cycle,
            components,
        };
        (snapshot, state)
    }

    /// Format version of this snapshot.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The device cycle at which the snapshot was captured.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The snapshot's components, in walk order.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Looks up a component by name.
    pub fn component(&self, name: &str) -> Option<&Component> {
        self.components.iter().find(|c| c.name == name)
    }

    /// Checks that every memory component fits `dev`: it names a fitted
    /// memory of exactly its size, and its page list is well formed. A
    /// snapshot that passes cannot make [`SocSnapshot::restore_into`]
    /// panic on a memory image.
    ///
    /// # Errors
    ///
    /// [`SnapshotIoError::Misfit`] naming the first memory that does not
    /// fit, [`SnapshotIoError::Corrupt`] the first malformed page list.
    pub fn check_fits(&self, dev: &Device) -> Result<(), SnapshotIoError> {
        for (name, id) in MEMORIES {
            let Some(c) = self.component(name) else {
                continue;
            };
            let Contents::Pages { size, .. } = c.contents else {
                unreachable!("memory components hold pages");
            };
            match dev.soc().memory(id) {
                Some(memory) if memory.len() == size => c.check_pages()?,
                memory => {
                    return Err(SnapshotIoError::Misfit {
                        component: name.to_string(),
                        expected: memory.map_or(0, PagedBytes::len),
                        found: size,
                    })
                }
            }
        }
        Ok(())
    }

    /// Restores this snapshot onto a device built with the identical
    /// configuration: memory images first, then the structured runtime
    /// state. A memory gets its listed pages written and every other page
    /// reset, skipping pages its summary already marks reset-valued, so a
    /// restore costs O(pages + listed bytes).
    ///
    /// # Panics
    ///
    /// Panics if the format version is unknown, or the device's
    /// configuration does not structurally match (wrong core count, memory
    /// sizes, fitted options).
    /// [`SocSnapshot::check_fits`] turns the memory cases into a typed
    /// error first.
    pub fn restore_into(&self, dev: &mut Device) {
        self.restore_with(dev, None);
    }

    /// [`SocSnapshot::restore_into`], taking the device state from
    /// `parsed` (this snapshot's device-state component, already parsed)
    /// instead of parsing the component's JSON.
    pub(crate) fn restore_with(&self, dev: &mut Device, parsed: Option<&DeviceState>) {
        assert_eq!(
            self.version, SNAPSHOT_VERSION,
            "unsupported snapshot version"
        );
        // Telemetry lives outside DeviceState, so the attachment (and this
        // span) survives the restore itself.
        let span_t0 = dev.telemetry().map(|_| std::time::Instant::now());
        for (name, id) in MEMORIES {
            if let Some(Component {
                contents: Contents::Pages { size, pages },
                ..
            }) = self.component(name)
            {
                assert_eq!(
                    dev.soc().memory(id).map(PagedBytes::len),
                    Some(*size),
                    "{name} size mismatch"
                );
                dev.soc_mut()
                    .restore_memory_pages(id, pages.iter().map(|(i, b)| (*i, b.as_slice())));
            }
        }
        match parsed {
            Some(state) => dev.restore_state(state),
            None => {
                let bytes = self
                    .component(DEVICE_STATE)
                    .and_then(Component::state_bytes)
                    .expect("snapshot has a device/state component");
                let json = std::str::from_utf8(bytes).expect("device state is UTF-8 JSON");
                let state: DeviceState =
                    serde_json::from_str(json).expect("device state deserializes");
                dev.restore_state(&state);
            }
        }
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
    /// every component's name and content hash, in walk order. Equal to
    /// [`crate::device_state_hash`] of the captured device.
    pub fn state_hash(&self) -> u64 {
        fold_parts(
            self.cycle,
            self.components.iter().map(|c| (c.name.as_str(), c.hash)),
        )
    }

    /// An accounting size for the snapshot held in memory: stored bytes
    /// plus framing (name and hash per component, index per listed page).
    /// This is what memory budgets charge per resident snapshot; the JSON
    /// on disk is larger.
    pub fn size_bytes(&self) -> usize {
        self.components
            .iter()
            .map(|c| {
                c.name.len() + 8 + 8 * c.memory_pages().map_or(0, |(_, n)| n) + c.stored_bytes()
            })
            .sum()
    }

    /// Checks every memory component's page list, then recomputes every
    /// component's content hash and checks it against the hash recorded
    /// at capture time.
    ///
    /// # Errors
    ///
    /// [`SnapshotIoError::Corrupt`] naming the first component with a
    /// malformed page list or failing its hash.
    pub fn verify_integrity(&self) -> Result<(), SnapshotIoError> {
        for c in &self.components {
            c.check_pages()?;
            let found = c.recompute_hash();
            if found != c.hash {
                return Err(SnapshotIoError::Corrupt {
                    component: c.name.clone(),
                    expected: c.hash,
                    found,
                });
            }
        }
        Ok(())
    }

    /// Writes the snapshot as JSON to `path` with [`write_json_atomic`].
    ///
    /// # Errors
    ///
    /// [`SnapshotIoError::Io`].
    pub fn save(&self, path: &Path) -> Result<(), SnapshotIoError> {
        save_json(path, self)
    }

    /// Reads a snapshot back from `path`, checking the format version and
    /// every component's content hash — a snapshot that survives `load` is
    /// guaranteed restorable exactly as captured.
    ///
    /// # Errors
    ///
    /// [`SnapshotIoError::Io`] / [`SnapshotIoError::Json`] on unreadable or
    /// malformed files, [`SnapshotIoError::Version`] on an incompatible
    /// format, [`SnapshotIoError::Corrupt`] when a page list is malformed
    /// or contents fail their recorded hash.
    pub fn load(path: &Path) -> Result<SocSnapshot, SnapshotIoError> {
        let snap: SocSnapshot = read_json(path)?;
        check_version(snap.version, SNAPSHOT_VERSION)?;
        snap.verify_integrity()?;
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_psi::device::{DeviceBuilder, DeviceVariant};
    use mcds_soc::mem::PAGE_SIZE;

    /// An SRAM-named memory of three and a bit pages with one page
    /// written.
    fn synthetic_memory() -> PagedBytes {
        let mut memory = PagedBytes::new(3 * PAGE_SIZE + 100, 0);
        let bytes: Vec<u8> = (0..512u32).map(|i| (i % 7) as u8).collect();
        memory.write(PAGE_SIZE + 5, &bytes);
        memory
    }

    fn synthetic_snapshot() -> SocSnapshot {
        SocSnapshot {
            version: SNAPSHOT_VERSION,
            cycle: 1234,
            components: vec![
                Component::state(b"{\"fake\":true}".to_vec()),
                Component::memory(MEMORIES[1].0, &synthetic_memory()),
            ],
        }
    }

    /// A memory component's listed pages.
    type PageList = Vec<(usize, Vec<u8>)>;

    /// The size and listed pages of the synthetic snapshot's memory
    /// component.
    fn pages_mut(snap: &mut SocSnapshot) -> (&mut usize, &mut PageList) {
        match &mut snap.components[1].contents {
            Contents::Pages { size, pages } => (size, pages),
            Contents::Bytes(_) => unreachable!(),
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
    fn memory_component_lists_only_pages_off_reset_and_hashes_like_the_memory() {
        let mut memory = synthetic_memory();
        let c = Component::memory("soc/sram", &memory);
        assert_eq!(c.memory_pages(), Some((3 * PAGE_SIZE + 100, 1)));
        assert_eq!(c.hash(), memory.hash());
        assert_eq!(c.recompute_hash(), c.hash());
        // The hash is a function of the contents alone: a page written
        // back to zero drops out of the list, the short last page joins it.
        memory.write(PAGE_SIZE + 5, &[0; 512]);
        memory.write(3 * PAGE_SIZE + 99, &[1]);
        let c = Component::memory("soc/sram", &memory);
        let Contents::Pages { pages, .. } = &c.contents else {
            unreachable!()
        };
        assert_eq!(pages.len(), 1);
        assert_eq!((pages[0].0, pages[0].1.len()), (3, 100));
        let mut fresh = PagedBytes::new(3 * PAGE_SIZE + 100, 0);
        fresh.write(3 * PAGE_SIZE + 99, &[1]);
        assert_eq!(c.hash(), fresh.hash());
        assert_eq!(c.recompute_hash(), c.hash());
    }

    #[test]
    fn load_rejects_corrupted_contents() {
        let mut snap = synthetic_snapshot();
        // Flip a content byte without updating the recorded hash — exactly
        // what on-disk corruption between save and load looks like.
        pages_mut(&mut snap).1[0].1[17] ^= 0x40;
        let path = temp_path("corrupt.json");
        snap.save(&path).expect("save");
        match SocSnapshot::load(&path) {
            Err(SnapshotIoError::Corrupt { component, .. }) => {
                assert_eq!(component, MEMORIES[1].0)
            }
            other => panic!("expected Corrupt error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_page_lists_are_typed_errors() {
        let device = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .cores(1)
            .build();
        let fitting = |snap: &mut SocSnapshot| {
            *pages_mut(snap).0 = device.soc().memory(MemoryId::Sram).unwrap().len();
        };
        type Damage = fn(&mut PageList);
        let cases: [(&str, Damage); 4] = [
            ("index past the end", |p| p.push((4096, vec![7; 4096]))),
            ("duplicate index", |p| p.push((1, vec![7; 4096]))),
            ("descending index", |p| p.push((0, vec![7; 4096]))),
            ("short page", |p| p[0].1.truncate(4095)),
        ];
        for (what, damage) in cases {
            let mut snap = synthetic_snapshot();
            fitting(&mut snap);
            damage(pages_mut(&mut snap).1);
            for err in [snap.verify_integrity(), snap.check_fits(&device)] {
                match err {
                    Err(SnapshotIoError::Corrupt {
                        component, found, ..
                    }) => {
                        assert_eq!(component, "soc/sram", "{what}");
                        assert_eq!(found, 0, "{what}");
                    }
                    other => panic!("{what}: expected Corrupt, got {other:?}"),
                }
            }
        }
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

    #[test]
    fn every_byte_value_round_trips_as_lowercase_hex() {
        let c = Component::state((0..=255u8).collect());
        let json = serde_json::to_string(&c).unwrap();
        let hex: String = (0..=255u8).map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            json,
            format!(
                "{{\"name\":\"device/state\",\"hash\":{},\"bytes\":\"{hex}\"}}",
                c.hash()
            )
        );
        assert_eq!(serde_json::from_str::<Component>(&json).unwrap(), c);

        let mut memory = PagedBytes::new(2 * PAGE_SIZE, 0);
        memory.write(PAGE_SIZE, &(0..=255u8).collect::<Vec<_>>());
        let c = Component::memory("soc/emem", &memory);
        let json = serde_json::to_string(&c).unwrap();
        let page_hex = format!("{hex}{}", "00".repeat(PAGE_SIZE - 256));
        assert_eq!(
            json,
            format!(
                "{{\"name\":\"soc/emem\",\"hash\":{},\"size\":{},\
                 \"pages\":[{{\"index\":1,\"hex\":\"{page_hex}\"}}]}}",
                c.hash(),
                2 * PAGE_SIZE
            )
        );
        assert_eq!(serde_json::from_str::<Component>(&json).unwrap(), c);
    }

    #[test]
    fn malformed_hex_is_a_parse_error() {
        for (hex, why) in [
            ("abc", "odd hex length 3"),
            ("0A", "byte 1 is not a lowercase hex digit"),
            ("0g", "byte 1 is not a lowercase hex digit"),
            ("é", "byte 0 is not a lowercase hex digit"),
        ] {
            let json = format!("{{\"name\":\"device/state\",\"hash\":0,\"bytes\":\"{hex}\"}}");
            let err = serde_json::from_str::<Component>(&json).unwrap_err();
            assert!(err.to_string().contains(why), "{hex}: {err}");
            let json = format!(
                "{{\"name\":\"soc/sram\",\"hash\":0,\"size\":1,\
                 \"pages\":[{{\"index\":0,\"hex\":\"{hex}\"}}]}}"
            );
            let err = serde_json::from_str::<Component>(&json).unwrap_err();
            assert!(err.to_string().contains(why), "page {hex}: {err}");
        }
        let json = "{\"name\":\"soc/rom\",\"hash\":0,\"bytes\":\"\"}";
        let err = serde_json::from_str::<Component>(json).unwrap_err();
        assert!(
            err.to_string()
                .contains("unknown snapshot component soc/rom"),
            "{err}"
        );
        let json = "{\"name\":\"soc/sram\",\"hash\":0,\"size\":4294967297,\"pages\":[]}";
        let err = serde_json::from_str::<Component>(json).unwrap_err();
        assert!(
            err.to_string().contains("exceeds the 32-bit address space"),
            "{err}"
        );
    }

    #[test]
    fn version_2_decimal_array_file_is_a_typed_error() {
        let path = temp_path("v2.json");
        let json = format!(
            "{{\"version\":2,\"cycle\":7,\"components\":[{{\"name\":\"device/state\",\
             \"hash\":{},\"bytes\":[1,2,3]}}]}}",
            fnv1a64(&[1, 2, 3])
        );
        std::fs::write(&path, json).unwrap();
        match SocSnapshot::load(&path) {
            Err(SnapshotIoError::Json { source, .. }) => {
                assert!(source.to_string().contains("hex string"), "{source}")
            }
            other => panic!("expected Json error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_fits_rejects_memories_the_device_does_not_have() {
        let booster = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .cores(1)
            .build();
        let mut snap = SocSnapshot::capture(&booster);
        snap.check_fits(&booster)
            .expect("a capture fits its own device");

        // Emulation RAM is not fitted on the production part.
        let production = DeviceBuilder::new(DeviceVariant::Production)
            .cores(1)
            .build();
        match snap.check_fits(&production) {
            Err(SnapshotIoError::Misfit {
                component,
                expected: 0,
                ..
            }) => assert_eq!(component, "soc/emem"),
            other => panic!("expected Misfit error, got {other:?}"),
        }

        // A one-byte-short SRAM image whose recorded hash was recomputed
        // passes the integrity check; only check_fits stands between it
        // and a panic.
        let sram = snap
            .components
            .iter_mut()
            .find(|c| c.name == "soc/sram")
            .unwrap();
        let Contents::Pages { size, .. } = &mut sram.contents else {
            unreachable!()
        };
        *size -= 1;
        sram.hash = sram.recompute_hash();
        snap.verify_integrity().expect("hash is consistent");
        match snap.check_fits(&booster) {
            Err(SnapshotIoError::Misfit {
                component,
                expected,
                found,
            }) => {
                assert_eq!(component, "soc/sram");
                assert_eq!(found + 1, expected);
            }
            other => panic!("expected Misfit error, got {other:?}"),
        }
    }

    #[test]
    fn atomic_write_replaces_an_existing_file_without_leaving_a_temp() {
        let dir = temp_path("atomic-dir");
        let path = dir.join("snap.json");
        let big = synthetic_snapshot();
        big.save(&path).expect("first save");
        let mut small = big.clone();
        small.components.truncate(1);
        let written = write_json_atomic(&path, &small).expect("overwrite");
        assert_eq!(written as u64, std::fs::metadata(&path).unwrap().len());
        assert_eq!(SocSnapshot::load(&path).expect("load"), small);
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from("snap.json")]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
