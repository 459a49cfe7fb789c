//! The virtual vehicle: N ECUs in lockstep around a multi-segment CAN
//! fabric, with one deterministic event log driving every external input.
//!
//! One [`Vehicle::step`] is the fabric's unit of time (a *vehicle cycle*):
//! trigger levels are applied, every device steps one cycle, due cyclic
//! rasters and fresh trigger pulses become frames, each segment arbitrates
//! and completes at most one frame, deliveries fan out to member nodes and
//! the gateway, and the gateway re-transmits queued forwards. Device
//! cycles and vehicle cycles start aligned but may drift apart when debug
//! traffic (an XCP calibration swap) stalls one device — bus timing is
//! therefore expressed in vehicle cycles throughout.
//!
//! Everything nondeterministic enters through a [`VehicleLog`] of
//! cycle-stamped [`VehicleEvent`]s, mirroring `mcds_replay::InputLog` one
//! level up: replaying the same log against the same build reproduces the
//! run bit-identically, which [`Vehicle::state_hash`] (per-ECU device
//! hash + fabric hash) makes checkable in one comparison.

use crate::calibration::SwapOutcome;
use crate::can::{CanSegment, SegmentConfig, SegmentStats};
use crate::gateway::{Gateway, GatewayConfig, GatewayState, RouteRule};
use crate::node::{EcuNode, NodeConfig, NodeState};
use mcds_psi::device::Device;
use mcds_psi::faults::FaultPlan;
use mcds_psi::interface::InterfaceKind;
use mcds_replay::{device_state_hash, extend_fnv1a64, fnv1a64, FleetSnapshot, SocSnapshot};
use mcds_telemetry::{Subsystem, Telemetry};
use mcds_xcp::XcpMaster;

/// One ECU slot: the device, its bus adapter and an optional DAQ master.
pub(crate) struct Ecu {
    pub(crate) name: String,
    pub(crate) segment: usize,
    pub(crate) device: Device,
    pub(crate) node: EcuNode,
    /// Host-side DAQ master (fleet measurement). Not part of the
    /// deterministic fabric state: sampling reads through the debug bus,
    /// so runs that should replay bit-identically must run the same DAQ
    /// schedule — exactly as with any other debug traffic.
    pub(crate) daq: Option<XcpMaster>,
}

/// Specification of one ECU handed to [`VehicleBuilder::ecu`].
pub struct EcuSpec {
    /// Vehicle-unique ECU name (snapshot member key, health row label).
    pub name: String,
    /// Bus segment the ECU sits on.
    pub segment: usize,
    /// The fully built (program-loaded, MCDS-configured) device.
    pub device: Device,
    /// Bus wiring: cyclic TX, RX mapping, trigger fabric.
    pub node: NodeConfig,
}

/// An externally injected input, stamped with the vehicle cycle it
/// applies at. The complete set of a run's events *is* the run's
/// nondeterminism — see module docs.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq)]
pub enum VehicleEvent {
    /// Set a sensor input port on one ECU.
    Stimulus {
        /// ECU index.
        ecu: usize,
        /// Input port.
        port: usize,
        /// New value.
        value: u32,
    },
    /// Install a fault plan on a bus segment's wire.
    BusFault {
        /// Segment index.
        segment: usize,
        /// The plan.
        plan: FaultPlan,
    },
    /// Remove a segment's fault plan.
    ClearBusFault {
        /// Segment index.
        segment: usize,
    },
    /// Install a fault plan on one ECU's CAN *debug* link (the XCP
    /// transport), e.g. to make a calibration swap abort.
    LinkFault {
        /// ECU index.
        ecu: usize,
        /// The plan.
        plan: FaultPlan,
    },
    /// Run a fleet-wide calibration page swap (commit/abort).
    CalSwap {
        /// Target page (0 or 1).
        page: u8,
    },
}

/// A cycle-sorted list of [`VehicleEvent`]s.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Default, PartialEq)]
pub struct VehicleLog {
    events: Vec<(u64, VehicleEvent)>,
}

impl VehicleLog {
    /// An empty log.
    pub fn new() -> VehicleLog {
        VehicleLog::default()
    }

    /// Appends an event at `cycle`. Events must be pushed in
    /// non-decreasing cycle order (application order within a cycle is
    /// the push order).
    ///
    /// # Panics
    ///
    /// Panics if `cycle` precedes the last pushed event.
    pub fn push(&mut self, cycle: u64, event: VehicleEvent) {
        if let Some(&(last, _)) = self.events.last() {
            assert!(cycle >= last, "events must be pushed in cycle order");
        }
        self.events.push((cycle, event));
    }

    /// The events, in application order.
    pub fn events(&self) -> &[(u64, VehicleEvent)] {
        &self.events
    }

    /// The cursor value for resuming a replay at vehicle cycle `cycle`
    /// (the index of the first event not yet applied when a vehicle is
    /// at that cycle between steps).
    pub fn cursor_at(&self, cycle: u64) -> usize {
        self.events.iter().take_while(|(c, _)| *c < cycle).count()
    }
}

/// Fabric-wide configuration shared by every segment.
#[derive(Debug, Clone, Copy, Default)]
pub struct VehicleConfig {
    /// Per-segment bus parameters.
    pub segment: SegmentConfig,
    /// Gateway parameters.
    pub gateway: GatewayConfig,
}

/// Serialized fabric state: everything outside the devices that must
/// restore for a bit-identical replay.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq)]
struct FabricState {
    cycle: u64,
    nodes: Vec<NodeState>,
    segments: Vec<crate::can::SegmentState>,
    gateway: GatewayState,
    cal_swaps: u64,
}

/// Builder for a [`Vehicle`] — see crate docs for a worked topology.
pub struct VehicleBuilder {
    cfg: VehicleConfig,
    segments: usize,
    ecus: Vec<EcuSpec>,
    routes: Vec<RouteRule>,
}

impl VehicleBuilder {
    /// Overrides the fabric configuration.
    pub fn config(mut self, cfg: VehicleConfig) -> VehicleBuilder {
        self.cfg = cfg;
        self
    }

    /// Sets the number of bus segments (default 1).
    pub fn segments(mut self, n: usize) -> VehicleBuilder {
        self.segments = n;
        self
    }

    /// Adds one ECU.
    pub fn ecu(mut self, spec: EcuSpec) -> VehicleBuilder {
        self.ecus.push(spec);
        self
    }

    /// Adds one gateway forwarding rule.
    pub fn route(mut self, rule: RouteRule) -> VehicleBuilder {
        self.routes.push(rule);
        self
    }

    /// Assembles the vehicle.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range segment reference or a duplicate ECU
    /// name.
    pub fn build(self) -> Vehicle {
        let nseg = self.segments;
        for spec in &self.ecus {
            assert!(spec.segment < nseg, "ECU {} on unknown segment", spec.name);
        }
        for route in &self.routes {
            assert!(route.from < nseg && route.to < nseg, "route off the map");
        }
        let mut seg_members: Vec<Vec<usize>> = vec![Vec::new(); nseg];
        let mut ecus = Vec::with_capacity(self.ecus.len());
        for (i, spec) in self.ecus.into_iter().enumerate() {
            assert!(
                !ecus.iter().any(|e: &Ecu| e.name == spec.name),
                "duplicate ECU name {}",
                spec.name
            );
            seg_members[spec.segment].push(i);
            ecus.push(Ecu {
                name: spec.name,
                segment: spec.segment,
                device: spec.device,
                node: EcuNode::new(i, spec.node),
                daq: None,
            });
        }
        let segments = seg_members
            .iter()
            .map(|members| CanSegment::new(members.len() + 1, self.cfg.segment))
            .collect();
        Vehicle {
            ecus,
            segments,
            seg_members,
            gateway: Gateway::new(self.routes, self.cfg.gateway),
            cfg: self.cfg,
            cycle: 0,
            cal_swaps: 0,
            last_swap: None,
            telemetry: None,
            obs: None,
            obs_corr: None,
        }
    }
}

/// The lockstep N-ECU vehicle (see module docs).
pub struct Vehicle {
    pub(crate) ecus: Vec<Ecu>,
    segments: Vec<CanSegment>,
    /// Per segment: member ECU indices; an ECU's transmit slot is its
    /// position here, the gateway's slot is `members.len()`.
    seg_members: Vec<Vec<usize>>,
    gateway: Gateway,
    cfg: VehicleConfig,
    cycle: u64,
    cal_swaps: u64,
    last_swap: Option<SwapOutcome>,
    telemetry: Option<Telemetry>,
    obs: Option<mcds_obs::Journal>,
    obs_corr: Option<u64>,
}

impl Vehicle {
    /// Starts building a vehicle.
    pub fn builder() -> VehicleBuilder {
        VehicleBuilder {
            cfg: VehicleConfig::default(),
            segments: 1,
            ecus: Vec::new(),
            routes: Vec::new(),
        }
    }

    /// Number of ECUs.
    pub fn len(&self) -> usize {
        self.ecus.len()
    }

    /// True when the vehicle has no ECUs.
    pub fn is_empty(&self) -> bool {
        self.ecus.is_empty()
    }

    /// The current vehicle cycle (completed steps).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// ECU names, in index order.
    pub fn names(&self) -> Vec<&str> {
        self.ecus.iter().map(|e| e.name.as_str()).collect()
    }

    /// ECU `i`'s device.
    pub fn device(&self, i: usize) -> &Device {
        &self.ecus[i].device
    }

    /// Mutable access to ECU `i`'s device.
    pub fn device_mut(&mut self, i: usize) -> &mut Device {
        &mut self.ecus[i].device
    }

    /// Per-segment bus counters.
    pub fn segment_stats(&self, segment: usize) -> SegmentStats {
        self.segments[segment].stats()
    }

    /// Number of bus segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The gateway.
    pub fn gateway(&self) -> &Gateway {
        &self.gateway
    }

    /// Calibration swaps attempted so far.
    pub fn cal_swaps(&self) -> u64 {
        self.cal_swaps
    }

    /// Outcome of the most recent calibration swap.
    pub fn last_swap(&self) -> Option<&SwapOutcome> {
        self.last_swap.as_ref()
    }

    pub(crate) fn note_swap(&mut self, outcome: SwapOutcome) {
        self.cal_swaps += 1;
        if let Some(journal) = &self.obs {
            let (page, committed) = match &outcome {
                SwapOutcome::Committed { page } => (*page, true),
                SwapOutcome::RolledBack { page, .. } => (*page, false),
            };
            journal.record(
                self.obs_corr,
                Some(self.cycle),
                mcds_obs::ObsEvent::VnetCalSwap {
                    page: u64::from(page),
                    committed,
                },
            );
        }
        self.last_swap = Some(outcome);
    }

    /// Attaches a telemetry handle; fabric step bursts are recorded as
    /// [`Subsystem::Vnet`] spans. Telemetry stays outside the determinism
    /// boundary (never snapshotted, never hashed).
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Attaches an obs journal handle; fabric step bursts and calibration
    /// swaps are recorded as typed vnet-layer events. Like telemetry, the
    /// journal stays outside the determinism boundary: never part of
    /// [`Vehicle::state_hash`], snapshots or replay.
    pub fn attach_obs(&mut self, journal: mcds_obs::Journal) {
        self.obs = Some(journal);
    }

    /// Sets (or clears) the correlation id stamped on subsequent vnet
    /// journal events, linking them to the causing farm request.
    pub fn set_obs_corr(&mut self, corr: Option<u64>) {
        self.obs_corr = corr;
    }

    /// Applies one event immediately.
    pub fn apply_event(&mut self, event: &VehicleEvent) {
        match event {
            VehicleEvent::Stimulus { ecu, port, value } => {
                self.ecus[*ecu]
                    .device
                    .soc_mut()
                    .periph_mut()
                    .set_input(*port, *value);
            }
            VehicleEvent::BusFault { segment, plan } => {
                self.segments[*segment].set_fault_plan(plan.clone());
            }
            VehicleEvent::ClearBusFault { segment } => {
                self.segments[*segment].clear_fault_plan();
            }
            VehicleEvent::LinkFault { ecu, plan } => {
                self.ecus[*ecu]
                    .device
                    .set_fault_plan(InterfaceKind::Can, plan.clone());
            }
            VehicleEvent::CalSwap { page } => {
                self.fleet_cal_swap(*page);
            }
        }
    }

    /// Sets the execution-kernel mode on every ECU's device (see
    /// [`mcds_soc::ExecMode`]). A speed knob only: vehicle state,
    /// [`Vehicle::state_hash`] and replay results are bit-identical
    /// across modes.
    pub fn set_exec_mode(&mut self, mode: mcds_soc::ExecMode) {
        for ecu in &mut self.ecus {
            ecu.device.set_exec_mode(mode);
        }
    }

    /// Advances one vehicle cycle.
    pub fn step(&mut self) {
        let now = self.cycle;
        // 1. Trigger levels (expiring finished pulses), then device time.
        for ecu in &mut self.ecus {
            ecu.node.apply_trigger_levels(&mut ecu.device, now);
            // One cycle through the execution kernel: lockstep with the
            // CAN fabric is preserved (the fabric samples every cycle),
            // but no per-cycle record is allocated and a quiescent ECU
            // (halted cores, idle MCDS and service core) costs one wakeup
            // probe instead of a full stepped cycle.
            ecu.device.run_cycles(1);
            if let Some(daq) = &mut ecu.daq {
                daq.slave_mut().sample_tick(&mut ecu.device);
            }
        }
        // 2. Outgoing frames: due rasters and fresh trigger pulses.
        for i in 0..self.ecus.len() {
            let slot = self.slot_of(i);
            let ecu = &mut self.ecus[i];
            for frame in ecu.node.poll_tx(&ecu.device, now, slot) {
                self.segments[ecu.segment].enqueue(frame);
            }
        }
        // 3. Bus time: arbitration, completion, delivery.
        let cpb = self.cfg.segment.cycles_per_bit;
        for s in 0..self.segments.len() {
            let delivered = self.segments[s].step(now);
            let gateway_slot = self.seg_members[s].len();
            for frame in delivered {
                let busy = frame.bit_cost() * cpb;
                if frame.src_slot != gateway_slot {
                    // The sender's CAN port carried the frame too.
                    let sender = self.seg_members[s][frame.src_slot];
                    if let Some(port) = self.ecus[sender].device.interface_mut(InterfaceKind::Can) {
                        port.record_transaction(frame.data.len(), busy);
                    }
                    self.gateway.offer(s, &frame);
                }
                for slot in 0..self.seg_members[s].len() {
                    if slot == frame.src_slot {
                        continue;
                    }
                    let i = self.seg_members[s][slot];
                    let ecu = &mut self.ecus[i];
                    if ecu.node.receive(&mut ecu.device, &frame, now) {
                        if let Some(port) = ecu.device.interface_mut(InterfaceKind::Can) {
                            port.record_transaction(frame.data.len(), busy);
                        }
                    }
                }
            }
        }
        // 4. Gateway re-transmissions onto destination segments.
        for fwd in self.gateway.take_retransmits() {
            let gateway_slot = self.seg_members[fwd.to].len();
            let mut frame = fwd.frame;
            frame.src_slot = gateway_slot;
            frame.attempts = 0;
            let accepted = self.segments[fwd.to].enqueue(frame);
            self.gateway.note_retransmit(accepted);
        }
        self.cycle += 1;
    }

    /// The transmit slot of ECU `i` on its segment.
    fn slot_of(&self, i: usize) -> usize {
        let seg = self.ecus[i].segment;
        self.seg_members[seg]
            .iter()
            .position(|&m| m == i)
            .expect("ecu is a member of its segment")
    }

    /// Steps `n` vehicle cycles with no log events (one telemetry span
    /// and one `VnetStep` journal record for the burst).
    pub fn run_cycles(&mut self, n: u64) {
        self.run_with_events(&VehicleLog::new(), &mut 0, n);
    }

    /// Runs `cycles` steps, applying due log events as time passes.
    /// `cursor` tracks the next unapplied event (see
    /// [`VehicleLog::cursor_at`] for resuming mid-log). The burst is one
    /// telemetry span and, with a journal attached, one `VnetStep`.
    pub fn run_with_events(&mut self, log: &VehicleLog, cursor: &mut usize, cycles: u64) {
        let t0 = self.telemetry.as_ref().map(|_| std::time::Instant::now());
        let before = self.obs.as_ref().map(|_| self.stats());
        let start = self.cycle;
        let events = log.events();
        for _ in 0..cycles {
            while *cursor < events.len() && events[*cursor].0 <= self.cycle {
                let event = events[*cursor].1.clone();
                self.apply_event(&event);
                *cursor += 1;
            }
            self.step();
        }
        if let (Some(t0), Some(tel)) = (t0, &self.telemetry) {
            tel.span(
                Subsystem::Vnet,
                start,
                self.cycle,
                t0.elapsed().as_nanos() as u64,
            );
        }
        if let (Some(journal), Some(before)) = (&self.obs, before) {
            let s = self.stats();
            journal.record(
                self.obs_corr,
                Some(self.cycle),
                mcds_obs::ObsEvent::VnetStep {
                    start_cycle: start,
                    end_cycle: self.cycle,
                    frames: s.frames.saturating_sub(before.frames),
                    gateway_forwarded: s.gateway_forwarded.saturating_sub(before.gateway_forwarded),
                },
            );
        }
    }

    /// Serializes the fabric (everything outside the devices).
    fn fabric_state(&self) -> FabricState {
        FabricState {
            cycle: self.cycle,
            nodes: self.ecus.iter().map(|e| e.node.save_state()).collect(),
            segments: self.segments.iter().map(CanSegment::save_state).collect(),
            gateway: self.gateway.save_state(),
            cal_swaps: self.cal_swaps,
        }
    }

    /// One hash over the whole vehicle: every ECU's canonical device
    /// hash (name-keyed, in index order) folded with the serialized
    /// fabric state. Equal hashes ⇒ bit-identical snapshot-visible state.
    pub fn state_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for ecu in &self.ecus {
            h = extend_fnv1a64(h, ecu.name.as_bytes());
            h = extend_fnv1a64(h, &device_state_hash(&ecu.device).to_le_bytes());
        }
        let fabric = serde_json::to_string(&self.fabric_state()).expect("fabric serializes");
        extend_fnv1a64(h, &fnv1a64(fabric.as_bytes()).to_le_bytes())
    }

    /// Captures the whole vehicle as a [`FleetSnapshot`]: one
    /// [`SocSnapshot`] per ECU plus the fabric blob.
    pub fn snapshot(&self) -> FleetSnapshot {
        let members = self
            .ecus
            .iter()
            .map(|e| (e.name.clone(), SocSnapshot::capture(&e.device)))
            .collect();
        let fabric = serde_json::to_string(&self.fabric_state()).expect("fabric serializes");
        FleetSnapshot::new(self.cycle, members, fabric)
    }

    /// Restores a snapshot captured on an identically built vehicle.
    ///
    /// # Panics
    ///
    /// Panics when the member set or fabric topology does not match.
    pub fn restore(&mut self, snap: &FleetSnapshot) {
        assert_eq!(snap.members().len(), self.ecus.len(), "ECU count changed");
        for (i, (name, member)) in snap.members().iter().enumerate() {
            assert_eq!(*name, self.ecus[i].name, "ECU order changed");
            member.restore_into(&mut self.ecus[i].device);
        }
        let fabric: FabricState =
            serde_json::from_str(snap.fabric_json()).expect("fabric deserializes");
        assert_eq!(fabric.nodes.len(), self.ecus.len());
        assert_eq!(fabric.segments.len(), self.segments.len());
        for (ecu, state) in self.ecus.iter_mut().zip(&fabric.nodes) {
            ecu.node.restore_state(state);
        }
        for (seg, state) in self.segments.iter_mut().zip(&fabric.segments) {
            seg.restore_state(state);
        }
        self.gateway.restore_state(&fabric.gateway);
        self.cycle = fabric.cycle;
        self.cal_swaps = fabric.cal_swaps;
    }

    /// Fabric-level counters as a host [`mcds_host::VehicleStats`] row.
    pub fn stats(&self) -> mcds_host::VehicleStats {
        let mut s = mcds_host::VehicleStats::default();
        let mut busy = 0u64;
        for seg in &self.segments {
            let st = seg.stats();
            s.frames += st.frames_ok;
            s.frame_errors += st.frames_error;
            s.frames_dropped += st.frames_dropped;
            s.arbitration_contended += st.contended;
            busy += st.busy_cycles;
        }
        let span = self.cycle * self.segments.len() as u64;
        s.bus_utilization = if span == 0 {
            0.0
        } else {
            (busy as f64 / span as f64).min(1.0)
        };
        s.gateway_forwarded = self.gateway.forwarded();
        s.gateway_dropped = self.gateway.dropped();
        s.gateway_queue_depth = self.gateway.queue_depth();
        s
    }

    /// Adds this vehicle to a fleet health table: one row per ECU inside
    /// the `vehicle` group, plus the fabric-level stats.
    pub fn health_into(&self, fleet: &mut mcds_host::FleetHealth, vehicle: &str) {
        for ecu in &self.ecus {
            fleet.add_in_vehicle(
                vehicle,
                ecu.name.clone(),
                mcds_host::HealthReport::gather(&ecu.device),
            );
        }
        fleet.set_vehicle_stats(vehicle, self.stats());
    }

    /// Mirrors the fabric's counters into a telemetry registry under
    /// `vnet_*` metric names (per-segment series labelled `segment`).
    pub fn publish_telemetry(&self, tel: &Telemetry) {
        let reg = tel.registry();
        reg.gauge("vnet_ecus", "ECUs on the virtual vehicle fabric")
            .set(self.ecus.len() as f64);
        for (i, seg) in self.segments.iter().enumerate() {
            let st = seg.stats();
            let label = i.to_string();
            let labels: [(&str, &str); 1] = [("segment", label.as_str())];
            reg.counter_with("vnet_frames_total", "CAN frames delivered", &labels)
                .store(st.frames_ok);
            reg.counter_with(
                "vnet_frames_error_total",
                "CAN frames corrupted on the wire (error frame + retransmit)",
                &labels,
            )
            .store(st.frames_error);
            reg.counter_with("vnet_frames_dropped_total", "CAN frames lost", &labels)
                .store(st.frames_dropped);
            reg.counter_with(
                "vnet_arbitration_contended_total",
                "arbitration rounds with more than one competing node",
                &labels,
            )
            .store(st.contended);
            reg.counter_with(
                "vnet_bus_busy_cycles_total",
                "vehicle cycles the segment carried bits",
                &labels,
            )
            .store(st.busy_cycles);
            let util = if self.cycle == 0 {
                0.0
            } else {
                (st.busy_cycles as f64 / self.cycle as f64).min(1.0)
            };
            reg.gauge_with(
                "vnet_bus_utilization",
                "fraction of vehicle cycles the segment was busy (0-1)",
                &labels,
            )
            .set(util);
        }
        reg.counter(
            "vnet_gateway_forwarded_total",
            "frames the gateway re-transmitted between segments",
        )
        .store(self.gateway.forwarded());
        reg.counter(
            "vnet_gateway_dropped_total",
            "frames the gateway dropped (full queue or destination)",
        )
        .store(self.gateway.dropped());
        reg.gauge(
            "vnet_gateway_queue_depth",
            "frames currently queued in the gateway",
        )
        .set(self.gateway.queue_depth() as f64);
        reg.counter(
            "vnet_trigger_frames_total",
            "bus-carried trigger frames sent",
        )
        .store(self.ecus.iter().map(|e| e.node.trigger_frames_sent()).sum());
        reg.counter(
            "vnet_cal_swaps_total",
            "fleet calibration page swaps attempted",
        )
        .store(self.cal_swaps);
    }
}
