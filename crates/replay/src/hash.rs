//! Content hashing for snapshots and replay verification.
//!
//! FNV-1a is used throughout: it is tiny, dependency-free and fully
//! deterministic across platforms, which is all a replay checker needs —
//! these hashes detect divergence, they are not cryptographic. The
//! primitive lives in `mcds_soc::mem`, whose page summaries cache page
//! hashes with it, and is re-exported here.

use mcds_psi::Device;
use std::fmt;

pub use mcds_soc::mem::{extend_fnv1a64, fnv1a64};

/// A [`fmt::Write`] sink that folds everything written into a running
/// FNV-1a hash: `write!(w, ...)` then [`Fnv1aWriter::finish`] equals
/// [`fnv1a64`] of what `format!(...)` returns, without building the
/// string.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1aWriter(u64);

impl Fnv1aWriter {
    /// A writer over the empty input.
    pub fn new() -> Fnv1aWriter {
        Fnv1aWriter(fnv1a64(&[]))
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1aWriter {
    fn default() -> Fnv1aWriter {
        Fnv1aWriter::new()
    }
}

impl fmt::Write for Fnv1aWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = extend_fnv1a64(self.0, s.as_bytes());
        Ok(())
    }
}

/// The snapshot hash fold: a cycle, then each part's name and content
/// hash in order. Device snapshots fold their components with it, fleets
/// their members.
pub(crate) fn fold_parts<'a>(cycle: u64, parts: impl IntoIterator<Item = (&'a str, u64)>) -> u64 {
    parts
        .into_iter()
        .fold(fnv1a64(&cycle.to_le_bytes()), |h, (name, hash)| {
            extend_fnv1a64(extend_fnv1a64(h, name.as_bytes()), &hash.to_le_bytes())
        })
}

/// Hashes a device's complete architectural state: the serialized runtime
/// state (CPU registers and pipeline, bus, MCDS, sink, links, service core)
/// plus every fitted memory, folded exactly as
/// [`crate::SocSnapshot::state_hash`] folds a snapshot's components — so
/// `device_state_hash(dev) == SocSnapshot::capture(dev).state_hash()`,
/// without copying any memory. A memory's hash folds its page hashes
/// ([`mcds_soc::mem::PagedBytes::hash`]), so the cost is one serialization
/// of the runtime state plus O(pages changed since the last hash × 4 KiB).
///
/// Two devices with equal hashes are observably indistinguishable; replay
/// verification compares this hash between the original and re-executed run.
pub fn device_state_hash(dev: &Device) -> u64 {
    let mut parts = Vec::with_capacity(4);
    crate::snapshot::walk(dev, |name, part| parts.push((name, part.hash())));
    fold_parts(dev.soc().cycle(), parts)
}

/// The raw encoded trace bytes currently stored in the device's trace sink,
/// or `None` when the variant has no emulation RAM. Replay verification
/// decodes and compares this stream between runs.
pub fn trace_bytes(dev: &Device) -> Option<Vec<u8>> {
    dev.soc()
        .mapper()
        .emem()
        .map(|emem| dev.sink().read_back(emem))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn writer_hashes_what_format_would_build() {
        use std::fmt::Write;
        let value = (vec![1u32, 20, 300], Some("x"), [0.5f64; 2]);
        let mut w = Fnv1aWriter::new();
        write!(w, "{value:?}{:?}", value.0).unwrap();
        assert_eq!(
            w.finish(),
            fnv1a64(format!("{value:?}{:?}", value.0).as_bytes())
        );
        assert_eq!(Fnv1aWriter::default().finish(), fnv1a64(b""));
    }

    #[test]
    fn extend_is_equivalent_to_concatenation() {
        let h1 = fnv1a64(b"hello world");
        let h2 = extend_fnv1a64(fnv1a64(b"hello "), b"world");
        assert_eq!(h1, h2);
    }
}
