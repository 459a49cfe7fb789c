//! Minimal deterministic repro artifacts: a failing run, shrunk and
//! serialized so `cargo test` can replay it forever after.
//!
//! A fault campaign that catches a panic, an invariant violation or a
//! record/replay divergence distils the failing scenario into a
//! [`ReproArtifact`]: the scenario description (opaque JSON, owned by the
//! campaign layer), the compiled [`InputLog`] of every nondeterministic
//! input, the cycle budget, the expected final state hash, and optionally
//! the end-state [`SocSnapshot`] for forensics. The artifact is a single
//! JSON file; loading it back and replaying the log must reproduce the
//! failure bit-identically.
//!
//! Everything here returns typed [`ReproError`]s instead of panicking: a
//! repro that fails to serialize must degrade the campaign gracefully
//! (one lost artifact), not abort a multi-hour run.

use crate::log::InputLog;
use crate::snapshot::SocSnapshot;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Artifact format version; bumped on incompatible layout changes.
pub const REPRO_VERSION: u32 = 4;

/// A serializable, replayable description of one failing run.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone)]
pub struct ReproArtifact {
    /// Artifact format version ([`REPRO_VERSION`] at capture time).
    pub version: u32,
    /// Failure class (`"panic"`, `"invariant"`, `"divergence"`).
    pub kind: String,
    /// Human-readable failure detail (panic message, violated invariant).
    pub detail: String,
    /// The scenario seed the campaign generated the failing run from.
    pub seed: u64,
    /// Cycle budget of the (shrunk) failing run.
    pub cycles: u64,
    /// Final [`crate::device_state_hash`] the replay must converge on.
    pub expected_state_hash: u64,
    /// The campaign-level scenario, serialized as JSON. Opaque to this
    /// crate: the campaign layer knows how to rebuild a device from it.
    pub scenario_json: String,
    /// The compiled input log — every nondeterministic input of the run.
    pub log: InputLog,
    /// End-state snapshot of the failing run, for post-mortem inspection
    /// without re-execution.
    pub snapshot: Option<SocSnapshot>,
    /// Flight-recorder dump: the last obs-journal events leading up to
    /// the failure, as a JSON array (opaque to this crate; empty string
    /// when no journal was attached). Version 2 of the format added this.
    pub flight_recorder: String,
}

/// A typed error from saving or loading a repro artifact.
#[derive(Debug)]
pub enum ReproError {
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// The artifact failed to (de)serialize.
    Json {
        /// The path involved (empty for in-memory round trips).
        path: PathBuf,
        /// The underlying serialization error.
        source: serde_json::Error,
    },
    /// The artifact was written by an incompatible format version.
    Version {
        /// Version found in the file.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
}

impl fmt::Display for ReproError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReproError::Io { path, source } => {
                write!(f, "repro I/O failed at {}: {source}", path.display())
            }
            ReproError::Json { path, source } => {
                write!(f, "repro JSON failed at {}: {source}", path.display())
            }
            ReproError::Version { found, expected } => {
                write!(f, "repro version {found} incompatible with {expected}")
            }
        }
    }
}

impl std::error::Error for ReproError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReproError::Io { source, .. } => Some(source),
            ReproError::Json { source, .. } => Some(source),
            ReproError::Version { .. } => None,
        }
    }
}

impl ReproArtifact {
    /// Builds an artifact at the current [`REPRO_VERSION`], without a
    /// snapshot (attach one with [`ReproArtifact::with_snapshot`]).
    pub fn new(
        kind: impl Into<String>,
        detail: impl Into<String>,
        seed: u64,
        cycles: u64,
        expected_state_hash: u64,
        scenario_json: String,
        log: InputLog,
    ) -> ReproArtifact {
        ReproArtifact {
            version: REPRO_VERSION,
            kind: kind.into(),
            detail: detail.into(),
            seed,
            cycles,
            expected_state_hash,
            scenario_json,
            log,
            snapshot: None,
            flight_recorder: String::new(),
        }
    }

    /// Attaches the failing run's end-state snapshot.
    #[must_use]
    pub fn with_snapshot(mut self, snapshot: SocSnapshot) -> ReproArtifact {
        self.snapshot = Some(snapshot);
        self
    }

    /// Attaches a flight-recorder dump (a JSON array of obs-journal
    /// records, opaque to this crate).
    #[must_use]
    pub fn with_flight_recorder(mut self, json: String) -> ReproArtifact {
        self.flight_recorder = json;
        self
    }

    /// Serializes the artifact to a JSON string.
    ///
    /// # Errors
    ///
    /// [`ReproError::Json`] if serialization fails.
    pub fn to_json(&self) -> Result<String, ReproError> {
        serde_json::to_string(self).map_err(|source| ReproError::Json {
            path: PathBuf::new(),
            source,
        })
    }

    /// Parses an artifact from a JSON string and checks its version.
    ///
    /// # Errors
    ///
    /// [`ReproError::Json`] on malformed input, [`ReproError::Version`] on
    /// an incompatible format version.
    pub fn from_json(json: &str) -> Result<ReproArtifact, ReproError> {
        let artifact: ReproArtifact =
            serde_json::from_str(json).map_err(|source| ReproError::Json {
                path: PathBuf::new(),
                source,
            })?;
        if artifact.version != REPRO_VERSION {
            return Err(ReproError::Version {
                found: artifact.version,
                expected: REPRO_VERSION,
            });
        }
        Ok(artifact)
    }

    /// Writes the artifact as JSON to `path` with
    /// [`crate::write_json_atomic`].
    ///
    /// # Errors
    ///
    /// [`ReproError::Io`]; never panics.
    pub fn save(&self, path: &Path) -> Result<(), ReproError> {
        crate::write_json_atomic(path, self)
            .map(drop)
            .map_err(|source| ReproError::Io {
                path: path.to_path_buf(),
                source,
            })
    }

    /// Reads an artifact back from `path`.
    ///
    /// # Errors
    ///
    /// [`ReproError::Io`], [`ReproError::Json`] or [`ReproError::Version`].
    pub fn load(path: &Path) -> Result<ReproArtifact, ReproError> {
        let json = std::fs::read_to_string(path).map_err(|source| ReproError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        ReproArtifact::from_json(&json).map_err(|e| match e {
            ReproError::Json { source, .. } => ReproError::Json {
                path: path.to_path_buf(),
                source,
            },
            other => other,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::InputEvent;
    use mcds_psi::faults::FaultPlan;
    use mcds_psi::interface::InterfaceKind;

    fn sample_artifact() -> ReproArtifact {
        let mut log = InputLog::new();
        log.record(InputEvent::Fault {
            cycle: 100,
            iface: InterfaceKind::Jtag,
            plan: FaultPlan::lossy(7, 50),
        });
        log.record(InputEvent::Stimulus {
            cycle: 200,
            port: 2,
            value: 42,
        });
        ReproArtifact::new(
            "invariant",
            "shared counter 361 != expected 400",
            0xBAD,
            60_000,
            0xDEAD_BEEF,
            "{\"workload\":\"RaceBuggy\"}".to_string(),
            log,
        )
        .with_flight_recorder("[{\"seq\":0}]".to_string())
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let a = sample_artifact();
        let back = ReproArtifact::from_json(&a.to_json().unwrap()).unwrap();
        assert_eq!(back.version, REPRO_VERSION);
        assert_eq!(back.kind, a.kind);
        assert_eq!(back.detail, a.detail);
        assert_eq!(back.seed, a.seed);
        assert_eq!(back.cycles, a.cycles);
        assert_eq!(back.expected_state_hash, a.expected_state_hash);
        assert_eq!(back.scenario_json, a.scenario_json);
        assert_eq!(back.log.len(), a.log.len());
        assert_eq!(back.flight_recorder, a.flight_recorder);
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let dir = std::path::Path::new("target/test-repro-artifacts");
        let path = dir.join("nested/deeper/repro.json");
        let a = sample_artifact();
        a.save(&path).unwrap();
        let back = ReproArtifact::load(&path).unwrap();
        assert_eq!(back.expected_state_hash, a.expected_state_hash);
        assert_eq!(back.log.len(), a.log.len());
    }

    #[test]
    fn load_errors_are_typed_not_panics() {
        let missing = ReproArtifact::load(Path::new("target/does/not/exist.json"));
        assert!(matches!(missing, Err(ReproError::Io { .. })));
        let garbage = ReproArtifact::from_json("not json at all");
        assert!(matches!(garbage, Err(ReproError::Json { .. })));
        let mut stale = sample_artifact();
        stale.version = REPRO_VERSION + 9;
        let json = serde_json::to_string(&stale).unwrap();
        assert!(matches!(
            ReproArtifact::from_json(&json),
            Err(ReproError::Version { found, expected })
                if found == REPRO_VERSION + 9 && expected == REPRO_VERSION
        ));
    }
}
