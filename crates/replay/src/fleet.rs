//! Fleet snapshots: one artifact holding several named device snapshots
//! plus an opaque fabric-state blob.
//!
//! A virtual vehicle is more than its ECUs — the CAN fabric between them
//! (arbitration state, in-flight frames, gateway queues, fault injectors)
//! is part of the deterministic state and must restore together with the
//! devices or a replay diverges at the first bus access. A
//! [`FleetSnapshot`] therefore bundles:
//!
//! * one [`SocSnapshot`] per member, keyed by the member's name (ECU id);
//! * a `fabric` JSON string the owning fabric serializes and restores
//!   itself — this crate treats it as opaque bytes with a content hash.
//!
//! The same save/load/verify discipline as [`SocSnapshot`] applies: every
//! part is FNV-hashed at capture, re-checked at load, and folded into one
//! [`FleetSnapshot::state_hash`] suitable for bit-identical replay proofs.
//! A live fleet hashes itself with the same fold ([`fleet_state_hash`]),
//! so it and its snapshot agree by construction.

use crate::hash::{fnv1a64, fold_parts};
use crate::snapshot::{check_version, read_json, save_json, SnapshotIoError, SocSnapshot};
use crate::SNAPSHOT_VERSION;
use std::path::Path;

/// Fleet snapshot format version; bump on incompatible layout changes.
pub const FLEET_SNAPSHOT_VERSION: u32 = 4;

/// Name under which the fabric blob is hashed and reported.
const FABRIC: &str = "fleet/fabric";

/// One hash over a fleet: the fleet cycle, then every member's name and
/// device state hash in fleet order, then the fabric blob's content hash.
/// [`FleetSnapshot::state_hash`] folds its members' snapshot hashes with
/// it; a live fleet folds [`crate::device_state_hash`] of each device, and
/// gets the same value without capturing anything.
pub fn fleet_state_hash<'a>(
    cycle: u64,
    members: impl IntoIterator<Item = (&'a str, u64)>,
    fabric_hash: u64,
) -> u64 {
    fold_parts(cycle, members.into_iter().chain([(FABRIC, fabric_hash)]))
}

/// A versioned snapshot of a set of named devices plus their connecting
/// fabric, captured at one fleet cycle.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq, Eq)]
pub struct FleetSnapshot {
    version: u32,
    cycle: u64,
    members: Vec<(String, SocSnapshot)>,
    fabric_json: String,
    fabric_hash: u64,
}

impl FleetSnapshot {
    /// Assembles a fleet snapshot from per-member snapshots (in fleet
    /// order) and the fabric's serialized state. `cycle` is the fleet
    /// scheduler's own step counter, not any one device's cycle.
    pub fn new(cycle: u64, members: Vec<(String, SocSnapshot)>, fabric_json: String) -> Self {
        let fabric_hash = fnv1a64(fabric_json.as_bytes());
        FleetSnapshot {
            version: FLEET_SNAPSHOT_VERSION,
            cycle,
            members,
            fabric_json,
            fabric_hash,
        }
    }

    /// Format version of this snapshot.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The fleet-scheduler cycle at which the snapshot was captured.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The member snapshots, in fleet order.
    pub fn members(&self) -> &[(String, SocSnapshot)] {
        &self.members
    }

    /// Looks up a member's snapshot by name.
    pub fn member(&self, name: &str) -> Option<&SocSnapshot> {
        self.members.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// The fabric's serialized state, exactly as captured.
    pub fn fabric_json(&self) -> &str {
        &self.fabric_json
    }

    /// One hash over the whole fleet ([`fleet_state_hash`] over every
    /// member's [`SocSnapshot::state_hash`]). Two fleets with this hash
    /// equal are in bit-identical snapshot-visible state.
    pub fn state_hash(&self) -> u64 {
        fleet_state_hash(
            self.cycle,
            self.members
                .iter()
                .map(|(n, s)| (n.as_str(), s.state_hash())),
            self.fabric_hash,
        )
    }

    /// Accounting size: the sum of member snapshot sizes plus the fabric
    /// blob — what a farm-style memory budget charges per resident vehicle.
    pub fn size_bytes(&self) -> usize {
        self.members
            .iter()
            .map(|(n, s)| n.len() + s.size_bytes())
            .sum::<usize>()
            + self.fabric_json.len()
    }

    /// Checks every member snapshot's component hashes and the fabric
    /// blob's recorded hash.
    ///
    /// # Errors
    ///
    /// [`SnapshotIoError::Corrupt`] naming the first failing part (the
    /// fabric reports as component `fleet/fabric`).
    pub fn verify_integrity(&self) -> Result<(), SnapshotIoError> {
        for (_, snap) in &self.members {
            snap.verify_integrity()?;
        }
        let found = fnv1a64(self.fabric_json.as_bytes());
        if found != self.fabric_hash {
            return Err(SnapshotIoError::Corrupt {
                component: FABRIC.to_string(),
                expected: self.fabric_hash,
                found,
            });
        }
        Ok(())
    }

    /// Writes the fleet snapshot as JSON to `path` with
    /// [`crate::write_json_atomic`].
    ///
    /// # Errors
    ///
    /// [`SnapshotIoError::Io`].
    pub fn save(&self, path: &Path) -> Result<(), SnapshotIoError> {
        save_json(path, self)
    }

    /// Reads a fleet snapshot back, checking the fleet's and every
    /// member's format version and every recorded hash — a fleet that
    /// survives `load` restores without panicking on version grounds.
    ///
    /// # Errors
    ///
    /// [`SnapshotIoError::Io`] / [`SnapshotIoError::Json`] on unreadable
    /// or malformed files, [`SnapshotIoError::Version`] on an incompatible
    /// fleet or member format, [`SnapshotIoError::Corrupt`] on hash
    /// mismatches.
    pub fn load(path: &Path) -> Result<FleetSnapshot, SnapshotIoError> {
        let snap: FleetSnapshot = read_json(path)?;
        check_version(snap.version, FLEET_SNAPSHOT_VERSION)?;
        for (_, member) in &snap.members {
            check_version(member.version(), SNAPSHOT_VERSION)?;
        }
        snap.verify_integrity()?;
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_psi::device::{DeviceBuilder, DeviceVariant};
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mcds-fleet-test-{}-{name}", std::process::id()))
    }

    fn two_member_fleet() -> FleetSnapshot {
        let dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .cores(1)
            .build();
        let a = SocSnapshot::capture(&dev);
        let b = SocSnapshot::capture(&dev);
        FleetSnapshot::new(
            42,
            vec![("engine".to_string(), a), ("gearbox".to_string(), b)],
            r#"{"frames":7}"#.to_string(),
        )
    }

    #[test]
    fn save_load_round_trips_and_preserves_state_hash() {
        let fleet = two_member_fleet();
        let path = temp_path("roundtrip.json");
        fleet.save(&path).expect("save");
        let loaded = FleetSnapshot::load(&path).expect("load");
        assert_eq!(loaded, fleet);
        assert_eq!(loaded.state_hash(), fleet.state_hash());
        assert!(fleet.member("engine").is_some());
        assert!(fleet.member("brakes").is_none());
        assert!(fleet.size_bytes() > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fabric_state_is_hashed_into_the_fleet_hash() {
        let a = two_member_fleet();
        let dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .cores(1)
            .build();
        let b = FleetSnapshot::new(
            42,
            vec![
                ("engine".to_string(), SocSnapshot::capture(&dev)),
                ("gearbox".to_string(), SocSnapshot::capture(&dev)),
            ],
            r#"{"frames":8}"#.to_string(),
        );
        assert_ne!(a.state_hash(), b.state_hash());
    }

    #[test]
    fn corrupted_fabric_blob_is_rejected_at_load() {
        let mut fleet = two_member_fleet();
        fleet.fabric_json.push(' ');
        let path = temp_path("corrupt.json");
        fleet.save(&path).expect("save");
        match FleetSnapshot::load(&path) {
            Err(SnapshotIoError::Corrupt { component, .. }) => {
                assert_eq!(component, "fleet/fabric");
            }
            other => panic!("expected Corrupt error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn member_with_a_stale_version_is_rejected_at_load() {
        let fleet = two_member_fleet();
        let path = temp_path("member-version.json");
        fleet.save(&path).expect("save");
        // Rewrite the second member's snapshot version on disk; the fleet
        // version stays current.
        let json = std::fs::read_to_string(&path).unwrap();
        let member_version = format!("\"version\":{SNAPSHOT_VERSION},");
        let at = json.rfind(&member_version).expect("member version field");
        let stale = format!(
            "{}\"version\":{},{}",
            &json[..at],
            SNAPSHOT_VERSION - 1,
            &json[at + member_version.len()..]
        );
        std::fs::write(&path, stale).unwrap();
        match FleetSnapshot::load(&path) {
            Err(SnapshotIoError::Version { found, expected }) => {
                assert_eq!(found, SNAPSHOT_VERSION - 1);
                assert_eq!(expected, SNAPSHOT_VERSION);
            }
            other => panic!("expected Version error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}
