//! One-shot device health report — the "mcds-top" view.
//!
//! [`HealthReport::gather`] reads every ground-truth counter the device
//! already keeps (core progress, FIFO fill, bus arbitration, trace sink,
//! debug links) into one plain struct, optionally folds in an
//! [`XcpMaster`]'s link-health summary, and renders it as a fixed-width
//! table via [`fmt::Display`]. Gathering is strictly read-only on the
//! deterministic device state and works whether or not telemetry is
//! attached.

use mcds_psi::device::Device;
use mcds_psi::interface::InterfaceKind;
use mcds_psi::link_label;
use mcds_soc::soc::memmap;
use mcds_xcp::{LinkHealth, XcpMaster};
use std::fmt;

/// Progress of one core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreHealth {
    /// Core index.
    pub core: usize,
    /// Run state ("run", "halt", "susp").
    pub state: &'static str,
    /// Current program counter.
    pub pc: u32,
    /// Instructions retired since reset.
    pub retired: u64,
}

/// Fill level of one trace FIFO.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FifoHealth {
    /// The FIFO's trace source ("core0", "bus", ...).
    pub source: String,
    /// Current occupancy.
    pub len: usize,
    /// Peak occupancy (including overflow markers).
    pub high_water: usize,
    /// Configured capacity.
    pub depth: usize,
    /// Messages accepted.
    pub pushed: u64,
    /// Messages dropped on overflow.
    pub lost: u64,
}

/// Bus-arbitration share of one master.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MasterHealth {
    /// Master index.
    pub master: usize,
    /// Transactions granted.
    pub grants: u64,
    /// Cycles holding the bus.
    pub occupancy_cycles: u64,
    /// Cycles queued waiting for a grant.
    pub wait_cycles: u64,
}

/// Health of one fitted debug link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkHealthRow {
    /// Stable link label ("jtag", "usb11", "can").
    pub link: &'static str,
    /// Debug transactions completed.
    pub transactions: u64,
    /// Bytes of link payload carried.
    pub payload_bytes: u64,
    /// Frames lost or corrupted by the fault injector (0 when no
    /// injector is armed).
    pub frames_bad: u64,
    /// Frames offered to the fault injector (0 when no injector).
    pub frames: u64,
}

/// A one-shot, human-renderable device health summary.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Simulated cycle the report was taken at.
    pub cycle: u64,
    /// The same instant in nanoseconds of simulated time.
    pub sim_ns: u64,
    /// Per-core progress.
    pub cores: Vec<CoreHealth>,
    /// Per-source FIFO fill.
    pub fifos: Vec<FifoHealth>,
    /// Fraction of bus cycles busy (0–1).
    pub bus_utilization: f64,
    /// Fraction of bus cycles contended (0–1).
    pub bus_contention: f64,
    /// Per-master arbitration shares.
    pub masters: Vec<MasterHealth>,
    /// Trace-sink fill: bytes in use.
    pub sink_used: usize,
    /// Trace-sink capacity in bytes.
    pub sink_capacity: usize,
    /// Messages dropped for lack of trace memory.
    pub sink_dropped: u64,
    /// Per fitted debug link.
    pub links: Vec<LinkHealthRow>,
    /// XCP link health, when a master was folded in via
    /// [`HealthReport::with_xcp`].
    pub xcp: Option<LinkHealth>,
}

impl HealthReport {
    /// Reads every health signal off `dev`. Read-only; works with or
    /// without telemetry attached.
    pub fn gather(dev: &Device) -> HealthReport {
        let soc = dev.soc();
        let cores = soc
            .cores()
            .enumerate()
            .map(|(i, c)| CoreHealth {
                core: i,
                state: if c.is_halted() {
                    "halt"
                } else if c.is_suspended() {
                    "susp"
                } else {
                    "run"
                },
                pc: c.pc(),
                retired: c.retired(),
            })
            .collect();
        let fifos = dev
            .mcds()
            .fifo_metrics()
            .into_iter()
            .map(|f| FifoHealth {
                source: f.source.to_string(),
                len: f.len,
                high_water: f.high_water,
                depth: f.depth,
                pushed: f.total_pushed,
                lost: f.total_lost,
            })
            .collect();
        let bus = soc.bus_counters();
        let masters = bus
            .per_master
            .iter()
            .enumerate()
            .map(|(i, m)| MasterHealth {
                master: i,
                grants: m.grants,
                occupancy_cycles: m.occupancy_cycles,
                wait_cycles: m.wait_cycles,
            })
            .collect();
        let bus_contention = if bus.cycles == 0 {
            0.0
        } else {
            bus.contended_cycles as f64 / bus.cycles as f64
        };
        let links = [
            InterfaceKind::Jtag,
            InterfaceKind::Usb11,
            InterfaceKind::Can,
        ]
        .into_iter()
        .filter_map(|kind| {
            let iface = dev.interface(kind)?;
            let (frames, frames_bad) = dev
                .fault_stats(kind)
                .map(|fs| (fs.frames, fs.dropped + fs.corrupted + fs.down_losses))
                .unwrap_or((0, 0));
            Some(LinkHealthRow {
                link: link_label(kind),
                transactions: iface.transactions(),
                payload_bytes: iface.payload_bytes(),
                frames_bad,
                frames,
            })
        })
        .collect();
        let sink = dev.sink();
        HealthReport {
            cycle: soc.cycle(),
            sim_ns: memmap::cycles_to_ns(soc.cycle()),
            cores,
            fifos,
            bus_utilization: bus.utilization(),
            bus_contention,
            masters,
            sink_used: sink.used(),
            sink_capacity: sink.capacity(),
            sink_dropped: dev.sink_dropped(),
            links,
            xcp: None,
        }
    }

    /// Folds in the link-health summary of a calibration master.
    pub fn with_xcp(mut self, master: &XcpMaster) -> HealthReport {
        self.xcp = Some(master.link_health());
        self
    }
}

/// Fabric-level health of one virtual vehicle — counters no single ECU's
/// [`HealthReport`] can see because they live in the CAN fabric between
/// the devices (segment arbitration, gateway queues). Gathered by the
/// vehicle scheduler and attached to a [`FleetHealth`] via
/// [`FleetHealth::set_vehicle_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VehicleStats {
    /// Fraction of vehicle cycles any bus segment was carrying bits (0–1).
    pub bus_utilization: f64,
    /// Frames that completed transmission across all segments.
    pub frames: u64,
    /// Frames corrupted on the wire (error frame + retransmission).
    pub frame_errors: u64,
    /// Frames lost outright (dropped fate or retry budget exhausted).
    pub frames_dropped: u64,
    /// Arbitration rounds where more than one node competed.
    pub arbitration_contended: u64,
    /// Frames the gateway forwarded between segments.
    pub gateway_forwarded: u64,
    /// Frames the gateway dropped (full queue or no route).
    pub gateway_dropped: u64,
    /// Frames currently queued in the gateway.
    pub gateway_queue_depth: usize,
}

/// Per-session health rows merged into one farm-wide table — "mcds-top
/// for a fleet". Each row is a labelled [`HealthReport`]; the aggregate
/// accessors and the [`fmt::Display`] footer summarize across the fleet.
///
/// Sessions can additionally be grouped into named *vehicles* (via
/// [`FleetHealth::add_in_vehicle`]); each vehicle section then renders its
/// member ECUs together with the fabric-level [`VehicleStats`].
///
/// Lives here (not in `mcds-telemetry`) because it is built from
/// [`HealthReport`]s, which only the host layer knows how to gather; the
/// telemetry crate stays a leaf with no device knowledge.
#[derive(Debug, Clone, Default)]
pub struct FleetHealth {
    rows: Vec<(String, HealthReport)>,
    /// Parallel to `rows`: the vehicle each session belongs to, if any.
    row_vehicle: Vec<Option<String>>,
    vehicle_stats: Vec<(String, VehicleStats)>,
}

impl FleetHealth {
    /// An empty fleet table.
    pub fn new() -> FleetHealth {
        FleetHealth::default()
    }

    /// Appends one labelled session report.
    pub fn add(&mut self, label: impl Into<String>, report: HealthReport) {
        self.rows.push((label.into(), report));
        self.row_vehicle.push(None);
    }

    /// Appends one labelled session report as a member ECU of the named
    /// vehicle group.
    pub fn add_in_vehicle(
        &mut self,
        vehicle: impl Into<String>,
        label: impl Into<String>,
        report: HealthReport,
    ) {
        self.rows.push((label.into(), report));
        self.row_vehicle.push(Some(vehicle.into()));
    }

    /// Attaches (or replaces) the fabric-level stats of a vehicle group.
    pub fn set_vehicle_stats(&mut self, vehicle: impl Into<String>, stats: VehicleStats) {
        let vehicle = vehicle.into();
        if let Some(slot) = self.vehicle_stats.iter_mut().find(|(v, _)| *v == vehicle) {
            slot.1 = stats;
        } else {
            self.vehicle_stats.push((vehicle, stats));
        }
    }

    /// Distinct vehicle names, in first-seen order (membership first, then
    /// stats-only vehicles).
    pub fn vehicles(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for v in self.row_vehicle.iter().flatten() {
            if !names.contains(&v.as_str()) {
                names.push(v);
            }
        }
        for (v, _) in &self.vehicle_stats {
            if !names.contains(&v.as_str()) {
                names.push(v);
            }
        }
        names
    }

    /// The member rows of a vehicle, in insertion order.
    pub fn vehicle_rows(&self, vehicle: &str) -> Vec<&(String, HealthReport)> {
        self.rows
            .iter()
            .zip(&self.row_vehicle)
            .filter(|(_, v)| v.as_deref() == Some(vehicle))
            .map(|(row, _)| row)
            .collect()
    }

    /// The fabric stats attached to a vehicle, if any.
    pub fn vehicle_stats(&self, vehicle: &str) -> Option<&VehicleStats> {
        self.vehicle_stats
            .iter()
            .find(|(v, _)| v == vehicle)
            .map(|(_, s)| s)
    }

    /// The labelled rows, in insertion order.
    pub fn rows(&self) -> &[(String, HealthReport)] {
        &self.rows
    }

    /// Number of sessions in the table.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no session has been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Instructions retired across every core of every session.
    pub fn total_retired(&self) -> u64 {
        self.rows
            .iter()
            .map(|(_, r)| r.cores.iter().map(|c| c.retired).sum::<u64>())
            .sum()
    }

    /// Simulated cycles summed across sessions.
    pub fn total_cycles(&self) -> u64 {
        self.rows.iter().map(|(_, r)| r.cycle).sum()
    }

    /// Mean bus utilization across sessions (0–1; 0 for an empty fleet).
    pub fn mean_bus_utilization(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows
            .iter()
            .map(|(_, r)| r.bus_utilization)
            .sum::<f64>()
            / self.rows.len() as f64
    }

    /// Trace messages lost to FIFO overflow across the fleet.
    pub fn total_fifo_lost(&self) -> u64 {
        self.rows
            .iter()
            .map(|(_, r)| r.fifos.iter().map(|q| q.lost).sum::<u64>())
            .sum()
    }

    /// Trace messages dropped at the sink across the fleet.
    pub fn total_sink_dropped(&self) -> u64 {
        self.rows.iter().map(|(_, r)| r.sink_dropped).sum()
    }
}

impl fmt::Display for FleetHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "mcds-top fleet — {} session(s)", self.rows.len())?;
        writeln!(
            f,
            "  {:<12} {:>12} {:>6} {:>14} {:>9} {:>9} {:>9}",
            "session", "cycle", "cores", "retired", "bus%", "fifo-lost", "sink-drop"
        )?;
        for (label, r) in &self.rows {
            let retired: u64 = r.cores.iter().map(|c| c.retired).sum();
            let lost: u64 = r.fifos.iter().map(|q| q.lost).sum();
            writeln!(
                f,
                "  {:<12} {:>12} {:>6} {:>14} {:>8.1}% {:>9} {:>9}",
                label,
                r.cycle,
                r.cores.len(),
                retired,
                pct(r.bus_utilization),
                lost,
                r.sink_dropped
            )?;
        }
        writeln!(
            f,
            "  total cycles {}  retired {}  mean bus {:.1}%  fifo-lost {}  sink-drop {}",
            self.total_cycles(),
            self.total_retired(),
            pct(self.mean_bus_utilization()),
            self.total_fifo_lost(),
            self.total_sink_dropped()
        )?;
        for vehicle in self.vehicles() {
            let members = self.vehicle_rows(vehicle);
            write!(f, "  vehicle {:<10} {} ecu(s)", vehicle, members.len())?;
            if let Some(s) = self.vehicle_stats(vehicle) {
                write!(
                    f,
                    "  can {:.1}%  frames {} (err {}, drop {})  gw fwd {} drop {} q {}",
                    pct(s.bus_utilization),
                    s.frames,
                    s.frame_errors,
                    s.frames_dropped,
                    s.gateway_forwarded,
                    s.gateway_dropped,
                    s.gateway_queue_depth
                )?;
            }
            writeln!(f)?;
            for (label, r) in members {
                let retired: u64 = r.cores.iter().map(|c| c.retired).sum();
                writeln!(
                    f,
                    "    {:<10} cycle {:>12}  retired {:>14}  bus {:>5.1}%",
                    label,
                    r.cycle,
                    retired,
                    pct(r.bus_utilization)
                )?;
            }
        }
        Ok(())
    }
}

fn pct(v: f64) -> f64 {
    (v * 100.0).clamp(0.0, 100.0)
}

impl fmt::Display for HealthReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "mcds-top — cycle {} ({:.3} ms simulated)",
            self.cycle,
            self.sim_ns as f64 / 1e6
        )?;
        writeln!(
            f,
            "bus   util {:5.1}%  contention {:5.1}%",
            pct(self.bus_utilization),
            pct(self.bus_contention)
        )?;
        for m in &self.masters {
            writeln!(
                f,
                "  m{}  grants {:>10}  occupancy {:>12}  wait {:>12}",
                m.master, m.grants, m.occupancy_cycles, m.wait_cycles
            )?;
        }
        writeln!(f, "cores")?;
        for c in &self.cores {
            writeln!(
                f,
                "  core{} {:<4} pc {:#010x}  retired {:>12}",
                c.core, c.state, c.pc, c.retired
            )?;
        }
        writeln!(f, "fifos")?;
        for q in &self.fifos {
            writeln!(
                f,
                "  {:<6} fill {:>4}/{:<4} high {:>4}  pushed {:>10}  lost {:>8}",
                q.source, q.len, q.depth, q.high_water, q.pushed, q.lost
            )?;
        }
        let sink_pct = if self.sink_capacity == 0 {
            0.0
        } else {
            100.0 * self.sink_used as f64 / self.sink_capacity as f64
        };
        writeln!(
            f,
            "sink  {:>8}/{} bytes ({:.1}%)  dropped {}",
            self.sink_used, self.sink_capacity, sink_pct, self.sink_dropped
        )?;
        writeln!(f, "links")?;
        for l in &self.links {
            write!(
                f,
                "  {:<6} xacts {:>8}  payload {:>10} B",
                l.link, l.transactions, l.payload_bytes
            )?;
            if l.frames > 0 {
                write!(
                    f,
                    "  bad frames {}/{} ({:.2}%)",
                    l.frames_bad,
                    l.frames,
                    100.0 * l.frames_bad as f64 / l.frames as f64
                )?;
            }
            writeln!(f)?;
        }
        if let Some(x) = &self.xcp {
            writeln!(
                f,
                "xcp   {} cmds {:>8}  timeouts {}  retries {}  synchs {}  err {:.2}%  retry-budget {:.0}%",
                link_label(x.transport),
                x.commands_sent,
                x.stats.timeouts,
                x.stats.retries,
                x.stats.synchs,
                pct(x.error_rate),
                pct(x.retry_budget_used)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds::observer::{CoreTraceConfig, TraceQualifier};
    use mcds::McdsConfig;
    use mcds_psi::device::{DeviceBuilder, DeviceVariant};
    use mcds_soc::asm::assemble;

    fn busy_device() -> Device {
        let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .cores(2)
            .mcds(McdsConfig {
                cores: vec![
                    CoreTraceConfig {
                        program_trace: TraceQualifier::Always,
                        ..Default::default()
                    };
                    2
                ],
                ..Default::default()
            })
            .build();
        dev.soc_mut().load_program(
            &assemble(".org 0x80000000\nli r1, 40\nloop: addi r1, r1, -1\nbne r1, r0, loop\nhalt")
                .unwrap(),
        );
        dev.run_until_halt(100_000);
        dev
    }

    #[test]
    fn gather_reads_live_counters() {
        let dev = busy_device();
        let report = HealthReport::gather(&dev);
        assert_eq!(report.cycle, dev.soc().cycle());
        assert_eq!(report.cores.len(), 2);
        assert!(report.cores.iter().all(|c| c.state == "halt"));
        assert!(report.cores.iter().all(|c| c.retired > 0));
        assert!(report.bus_utilization > 0.0);
        assert!(report.masters.iter().any(|m| m.grants > 0));
        assert!(!report.fifos.is_empty());
        assert!(report.fifos.iter().any(|q| q.pushed > 0));
    }

    #[test]
    fn display_renders_every_section() {
        let dev = busy_device();
        let text = HealthReport::gather(&dev).to_string();
        for needle in ["mcds-top", "bus ", "cores", "fifos", "sink", "links"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(!text.contains("xcp "), "no xcp row without a master");
    }

    #[test]
    fn fleet_table_merges_and_aggregates() {
        let dev = busy_device();
        let report = HealthReport::gather(&dev);
        let mut fleet = FleetHealth::new();
        fleet.add("s1", report.clone());
        fleet.add("s2", report.clone());
        assert_eq!(fleet.len(), 2);
        let per_dev: u64 = report.cores.iter().map(|c| c.retired).sum();
        assert_eq!(fleet.total_retired(), 2 * per_dev);
        assert!((fleet.mean_bus_utilization() - report.bus_utilization).abs() < 1e-12);
        let text = fleet.to_string();
        assert!(text.contains("mcds-top fleet — 2 session(s)"), "{text}");
        assert!(text.contains("s1"), "{text}");
        assert!(text.contains("total cycles"), "{text}");
    }

    #[test]
    fn fleet_groups_sessions_into_vehicles() {
        let dev = busy_device();
        let report = HealthReport::gather(&dev);
        let mut fleet = FleetHealth::new();
        // A synthetic two-vehicle fleet plus one ungrouped bench session.
        fleet.add_in_vehicle("car-a", "engine", report.clone());
        fleet.add_in_vehicle("car-a", "gearbox", report.clone());
        fleet.add_in_vehicle("car-b", "engine", report.clone());
        fleet.add("bench", report.clone());
        fleet.set_vehicle_stats(
            "car-a",
            VehicleStats {
                bus_utilization: 0.25,
                frames: 120,
                frame_errors: 3,
                frames_dropped: 1,
                arbitration_contended: 17,
                gateway_forwarded: 40,
                gateway_dropped: 2,
                gateway_queue_depth: 5,
            },
        );
        assert_eq!(fleet.len(), 4);
        assert_eq!(fleet.vehicles(), vec!["car-a", "car-b"]);
        assert_eq!(fleet.vehicle_rows("car-a").len(), 2);
        assert_eq!(fleet.vehicle_rows("car-b").len(), 1);
        assert!(fleet.vehicle_rows("car-z").is_empty());
        assert_eq!(fleet.vehicle_stats("car-a").unwrap().frames, 120);
        assert!(fleet.vehicle_stats("car-b").is_none());
        // Replacing stats overwrites in place instead of duplicating.
        fleet.set_vehicle_stats(
            "car-a",
            VehicleStats {
                frames: 200,
                ..*fleet.vehicle_stats("car-a").unwrap()
            },
        );
        assert_eq!(fleet.vehicle_stats("car-a").unwrap().frames, 200);
        assert_eq!(fleet.vehicles().len(), 2);
        let text = fleet.to_string();
        assert!(text.contains("vehicle car-a"), "{text}");
        assert!(text.contains("2 ecu(s)"), "{text}");
        assert!(text.contains("frames 200 (err 3, drop 1)"), "{text}");
        assert!(text.contains("gw fwd 40 drop 2 q 5"), "{text}");
        assert!(text.contains("vehicle car-b"), "{text}");
        // Grouped and ungrouped rows still share the flat session table.
        assert!(text.contains("mcds-top fleet — 4 session(s)"), "{text}");
        assert!(text.contains("bench"), "{text}");
    }

    #[test]
    fn with_xcp_appends_link_health() {
        let mut dev = busy_device();
        let mut master = XcpMaster::new(InterfaceKind::Jtag);
        master.connect(&mut dev).unwrap();
        let text = HealthReport::gather(&dev).with_xcp(&master).to_string();
        assert!(text.contains("xcp   jtag"), "{text}");
        assert!(text.contains("err 0.00%"), "{text}");
    }
}
