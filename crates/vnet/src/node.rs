//! The ECU-side bus adapter: cyclic transmission rules, receive mapping
//! onto sensor ports, and the bus-carried trigger fabric.
//!
//! An [`EcuNode`] is the glue between one [`Device`] and its CAN segment.
//! It is deliberately *outside* the device — the device stays a faithful
//! single-chip model — but everything the node does is driven by
//! deterministic device state (output latches, trigger logs) and the
//! vehicle cycle, and its own runtime state serializes into a
//! [`NodeState`], so the ECU+node pair replays bit-identically.
//!
//! Transmission is **rastered** (cyclic), as on a real powertrain bus: a
//! [`TxRule`] samples an actuator output latch every `period` vehicle
//! cycles and broadcasts its value. Trigger pulses are different — they are
//! edges, not levels — so the node watches the device's trigger-out logs
//! and converts each new pulse on a wired pin into a high-priority trigger
//! frame ([`trigger_frame_id`]) carrying the source pin number.

use crate::can::{CanFrame, CanId};
use mcds_psi::device::Device;

/// Base of the Standard-id range reserved for trigger frames. Trigger
/// frames must win arbitration against any data traffic, so the range
/// starts at identifier 0 (frame id = base + source ECU index).
pub const TRIGGER_ID_BASE: u16 = 0x000;

/// Highest ECU index encodable in the trigger id range.
pub const TRIGGER_ID_SPAN: u16 = 0x010;

/// How many vehicle cycles a delivered trigger frame holds the
/// destination line high.
pub const TRIGGER_PULSE_CYCLES: u64 = 2;

/// The arbitration id of trigger frames sent by ECU `src_ecu`.
///
/// # Panics
///
/// Panics if `src_ecu` exceeds [`TRIGGER_ID_SPAN`].
pub fn trigger_frame_id(src_ecu: usize) -> CanId {
    assert!(src_ecu < TRIGGER_ID_SPAN as usize, "too many trigger ECUs");
    CanId::Standard(TRIGGER_ID_BASE + src_ecu as u16)
}

/// A cyclic transmission rule: broadcast output port `port`'s latch as a
/// one-word frame under `id`, every `period` vehicle cycles starting at
/// `offset`.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxRule {
    /// Output (actuator) port index sampled.
    pub port: usize,
    /// Frame identifier used on the wire.
    pub id: CanId,
    /// Raster period in vehicle cycles (must be nonzero).
    pub period: u64,
    /// First vehicle cycle of the raster.
    pub offset: u64,
}

/// A receive rule: frames with `id` land in input (sensor) port `port`
/// as a little-endian word.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxRule {
    /// Frame identifier accepted.
    pub id: CanId,
    /// Input port the payload word is written to.
    pub port: usize,
}

/// A trigger receive rule: a trigger frame from `src_ecu` pin `src_pin`
/// pulses local trigger-in `line`.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriggerRx {
    /// Source ECU index (fleet-wide).
    pub src_ecu: usize,
    /// Source trigger-out pin.
    pub src_pin: u8,
    /// Local trigger-in line to pulse.
    pub line: u8,
}

/// Static wiring of one ECU onto the fabric.
#[derive(Debug, Clone, Default)]
pub struct NodeConfig {
    /// Cyclic transmission rules.
    pub tx: Vec<TxRule>,
    /// Receive rules (frame id → sensor port).
    pub rx: Vec<RxRule>,
    /// Bitmask of trigger-out pins broadcast as trigger frames.
    pub trigger_tx_pins: u32,
    /// Incoming trigger mappings.
    pub trigger_rx: Vec<TriggerRx>,
}

/// Serializable runtime state of an [`EcuNode`].
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq, Eq)]
pub struct NodeState {
    pulse_watermark: u64,
    line_deadlines: Vec<(u8, u64)>,
    trigger_frames_sent: u64,
    frames_received: u64,
}

/// The per-ECU bus adapter (see module docs).
#[derive(Debug)]
pub struct EcuNode {
    cfg: NodeConfig,
    /// The fleet-wide index of this ECU (encoded into trigger frames).
    ecu_index: usize,
    /// The trigger-in lines this node owns; levels outside the mask are
    /// never rewritten (a host, stimulus or replayed input log may hold
    /// them).
    owned_lines: u32,
    /// Device cycle of the last trigger poll: both trigger-out logs are
    /// stamped in device cycles, and every pulse stamped at or after it
    /// is still to be forwarded. A cycle, not a log index, because
    /// `Periph::clear_history` may empty the app log between polls.
    pulse_watermark: u64,
    /// Pending `(line, deassert_at_vehicle_cycle)` pulses.
    line_deadlines: Vec<(u8, u64)>,
    trigger_frames_sent: u64,
    frames_received: u64,
}

impl EcuNode {
    /// A node for fleet ECU `ecu_index` wired per `cfg`.
    ///
    /// # Panics
    ///
    /// Panics on wiring the fabric cannot carry: a zero `TxRule` period,
    /// a `TriggerRx` line outside the 32 trigger-in lines, or trigger
    /// pins to send from an ECU index with no trigger frame id
    /// ([`TRIGGER_ID_SPAN`]).
    pub fn new(ecu_index: usize, cfg: NodeConfig) -> EcuNode {
        for rule in &cfg.tx {
            assert!(rule.period > 0, "TxRule period must be nonzero");
        }
        let mut owned_lines = 0u32;
        for rule in &cfg.trigger_rx {
            assert!(rule.line < 32, "TriggerRx line {} out of range", rule.line);
            owned_lines |= 1 << rule.line;
        }
        assert!(
            cfg.trigger_tx_pins == 0 || ecu_index < TRIGGER_ID_SPAN as usize,
            "ECU {ecu_index} has no trigger frame id"
        );
        EcuNode {
            cfg,
            ecu_index,
            owned_lines,
            pulse_watermark: 0,
            line_deadlines: Vec::new(),
            trigger_frames_sent: 0,
            frames_received: 0,
        }
    }

    /// Trigger frames this node has put on the bus.
    pub fn trigger_frames_sent(&self) -> u64 {
        self.trigger_frames_sent
    }

    /// Frames this node has accepted (data and trigger).
    pub fn frames_received(&self) -> u64 {
        self.frames_received
    }

    /// Collects this vehicle cycle's outgoing frames: due cyclic rasters
    /// plus trigger frames for fresh pulses on wired pins. `slot` is the
    /// node's transmit slot on its segment.
    pub fn poll_tx(&mut self, dev: &Device, now: u64, slot: usize) -> Vec<CanFrame> {
        let mut out = Vec::new();
        for rule in &self.cfg.tx {
            if now >= rule.offset && (now - rule.offset).is_multiple_of(rule.period) {
                let value = dev.soc().periph().output(rule.port);
                out.push(CanFrame::word(rule.id, value, slot));
            }
        }
        let wired = self.cfg.trigger_tx_pins;
        if wired != 0 {
            let id = trigger_frame_id(self.ecu_index);
            let rasters = out.len();
            let mcds_log = dev.trigger_out_log();
            let fresh = mcds_log.partition_point(|&(c, _)| c < self.pulse_watermark);
            for &(_, pin) in &mcds_log[fresh..] {
                // A pin past the 32-bit mask cannot be wired: ignored.
                if 1u32
                    .checked_shl(pin.into())
                    .is_some_and(|bit| wired & bit != 0)
                {
                    out.push(CanFrame::new(id, &[pin], slot));
                }
            }
            let app_log = dev.soc().periph().trigger_out_pulses();
            let fresh = app_log.partition_point(|&(c, _)| c < self.pulse_watermark);
            for &(_, mask) in &app_log[fresh..] {
                for pin in 0..32u8 {
                    if mask & wired & (1 << pin) != 0 {
                        out.push(CanFrame::new(id, &[pin], slot));
                    }
                }
            }
            self.trigger_frames_sent += (out.len() - rasters) as u64;
            self.pulse_watermark = dev.soc().cycle();
        }
        out
    }

    /// Accepts a delivered frame: data frames land in sensor ports,
    /// trigger frames arm a line pulse. Returns true if the frame matched
    /// one of this node's rules.
    pub fn receive(&mut self, dev: &mut Device, frame: &CanFrame, now: u64) -> bool {
        let mut matched = false;
        for rule in &self.cfg.rx {
            if rule.id == frame.id {
                dev.soc_mut()
                    .periph_mut()
                    .set_input(rule.port, frame.word_value());
                matched = true;
            }
        }
        if let CanId::Standard(id) = frame.id {
            if (TRIGGER_ID_BASE..TRIGGER_ID_BASE + TRIGGER_ID_SPAN).contains(&id) {
                let src_ecu = (id - TRIGGER_ID_BASE) as usize;
                let src_pin = frame.data.first().copied().unwrap_or(0);
                for rule in &self.cfg.trigger_rx {
                    if rule.src_ecu == src_ecu && rule.src_pin == src_pin {
                        self.line_deadlines
                            .push((rule.line, now + TRIGGER_PULSE_CYCLES));
                        matched = true;
                    }
                }
            }
        }
        if matched {
            self.frames_received += 1;
        }
        matched
    }

    /// Applies the current trigger-line levels onto the device, expiring
    /// finished pulses. Only lines this node owns are rewritten.
    pub fn apply_trigger_levels(&mut self, dev: &mut Device, now: u64) {
        if self.owned_lines == 0 {
            return;
        }
        self.line_deadlines.retain(|&(_, until)| until > now);
        let mut level = 0u32;
        for &(line, _) in &self.line_deadlines {
            level |= 1 << line;
        }
        let periph = dev.soc_mut().periph_mut();
        let outside = periph.trigger_in() & !self.owned_lines;
        periph.set_trigger_in(outside | level);
    }

    /// Captures the node's runtime state.
    pub fn save_state(&self) -> NodeState {
        NodeState {
            pulse_watermark: self.pulse_watermark,
            line_deadlines: self.line_deadlines.clone(),
            trigger_frames_sent: self.trigger_frames_sent,
            frames_received: self.frames_received,
        }
    }

    /// Restores state captured by [`EcuNode::save_state`].
    pub fn restore_state(&mut self, state: &NodeState) {
        self.pulse_watermark = state.pulse_watermark;
        self.line_deadlines = state.line_deadlines.clone();
        self.trigger_frames_sent = state.trigger_frames_sent;
        self.frames_received = state.frames_received;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_psi::device::{DeviceBuilder, DeviceVariant};
    use mcds_soc::asm::assemble;

    fn idle_device() -> Device {
        let mut d = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .cores(1)
            .build();
        d.soc_mut()
            .load_program(&assemble(".org 0x80000000\nloop: addi r1, r1, 1\nj loop").unwrap());
        d
    }

    #[test]
    fn cyclic_rule_samples_the_output_latch_on_its_raster() {
        let mut dev = idle_device();
        let mut node = EcuNode::new(
            0,
            NodeConfig {
                tx: vec![TxRule {
                    port: 2,
                    id: CanId::Standard(0x100),
                    period: 10,
                    offset: 5,
                }],
                ..Default::default()
            },
        );
        // Nothing before the offset, one frame on each raster tick after.
        assert!(node.poll_tx(&dev, 0, 0).is_empty());
        assert!(node.poll_tx(&dev, 4, 0).is_empty());
        let f = node.poll_tx(&dev, 5, 0);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].word_value(), 0, "latch still at reset value");
        assert!(node.poll_tx(&dev, 6, 0).is_empty());
        // The rule samples the latch, not the write history: a value set
        // between rasters shows up at the next tick.
        use mcds_soc::bus::BusTarget;
        use mcds_soc::isa::MemWidth;
        dev.soc_mut()
            .periph_mut()
            .write(0xF000_0108, MemWidth::Word, 1234, 12)
            .unwrap();
        let f = node.poll_tx(&dev, 15, 0);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].word_value(), 1234);
    }

    #[test]
    fn trigger_frame_round_trips_between_nodes() {
        let mut src_dev = idle_device();
        let mut dst_dev = idle_device();
        let mut src = EcuNode::new(
            3,
            NodeConfig {
                trigger_tx_pins: 1 << 1,
                ..Default::default()
            },
        );
        let mut dst = EcuNode::new(
            0,
            NodeConfig {
                trigger_rx: vec![TriggerRx {
                    src_ecu: 3,
                    src_pin: 1,
                    line: 4,
                }],
                ..Default::default()
            },
        );
        // The source app pulses TRIG_OUT pins 0 and 1 at cycle 7; only pin
        // 1 is wired.
        use mcds_soc::bus::BusTarget;
        use mcds_soc::isa::MemWidth;
        src_dev.run_cycles(10);
        src_dev
            .soc_mut()
            .periph_mut()
            .write(0xF000_0300, MemWidth::Word, 0b11, 7)
            .unwrap();
        let frames = src.poll_tx(&src_dev, 10, 0);
        assert_eq!(frames.len(), 1, "only the wired pin becomes a frame");
        assert_eq!(frames[0].id, trigger_frame_id(3));
        assert_eq!(frames[0].data, vec![1]);
        assert_eq!(src.trigger_frames_sent(), 1);
        assert!(src.poll_tx(&src_dev, 11, 0).is_empty(), "sent once");

        // An outside layer (host, stimulus) holds line 5 on the
        // destination and line 2 on the source, which owns no lines.
        dst_dev.soc_mut().periph_mut().set_trigger_in(1 << 5);
        src_dev.soc_mut().periph_mut().set_trigger_in(1 << 2);

        assert!(dst.receive(&mut dst_dev, &frames[0], 100));
        dst.apply_trigger_levels(&mut dst_dev, 100);
        assert_eq!(dst_dev.soc().periph().trigger_in(), 1 << 4 | 1 << 5);
        // The pulse expires after TRIGGER_PULSE_CYCLES; the unowned line
        // passes through every rewrite.
        dst.apply_trigger_levels(&mut dst_dev, 100 + TRIGGER_PULSE_CYCLES);
        assert_eq!(dst_dev.soc().periph().trigger_in(), 1 << 5);
        src.apply_trigger_levels(&mut src_dev, 100);
        assert_eq!(src_dev.soc().periph().trigger_in(), 1 << 2);
    }

    #[test]
    fn trigger_out_pins_past_the_mask_are_ignored() {
        use mcds::observer::CoreTraceConfig;
        use mcds::{CrossTrigger, McdsConfig, SignalRef, TriggerAction};
        // External pin 0 fires trigger-out pins 40 and 0 in one cycle.
        let fire = |pin| {
            CrossTrigger::on_any(
                vec![SignalRef::ExternalPin(0)],
                TriggerAction::TriggerOutPin(pin),
            )
        };
        let mut dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .cores(1)
            .mcds(McdsConfig {
                cores: vec![CoreTraceConfig::default()],
                cross_triggers: vec![fire(40), fire(0)],
                ..Default::default()
            })
            .build();
        dev.soc_mut().periph_mut().set_trigger_in(1);
        dev.run_cycles(4);
        let pins: Vec<u8> = dev.trigger_out_log().iter().map(|&(_, p)| p).collect();
        assert_eq!(pins, vec![40, 0]);
        let mut node = EcuNode::new(
            0,
            NodeConfig {
                trigger_tx_pins: u32::MAX,
                ..Default::default()
            },
        );
        let frames = node.poll_tx(&dev, 4, 0);
        assert_eq!(frames.len(), 1, "only the in-range pin is sent");
        assert_eq!(frames[0].data, vec![0]);
    }

    #[test]
    #[should_panic(expected = "TriggerRx line 32 out of range")]
    fn trigger_rx_line_past_the_mask_is_rejected_at_build() {
        EcuNode::new(
            0,
            NodeConfig {
                trigger_rx: vec![TriggerRx {
                    src_ecu: 1,
                    src_pin: 0,
                    line: 32,
                }],
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "has no trigger frame id")]
    fn trigger_sender_past_the_id_span_is_rejected_at_build() {
        EcuNode::new(
            TRIGGER_ID_SPAN as usize,
            NodeConfig {
                trigger_tx_pins: 1,
                ..Default::default()
            },
        );
    }

    #[test]
    fn rx_rule_lands_in_the_sensor_port_and_state_round_trips() {
        let mut dev = idle_device();
        let mut node = EcuNode::new(
            0,
            NodeConfig {
                rx: vec![RxRule {
                    id: CanId::Standard(0x100),
                    port: 3,
                }],
                ..Default::default()
            },
        );
        let frame = CanFrame::word(CanId::Standard(0x100), 321, 9);
        assert!(node.receive(&mut dev, &frame, 50));
        assert_eq!(dev.soc().periph().input(3), 321);
        let other = CanFrame::word(CanId::Standard(0x200), 9, 9);
        assert!(!node.receive(&mut dev, &other, 51), "unmatched id ignored");

        let state = node.save_state();
        let json = serde_json::to_string(&state).unwrap();
        let back: NodeState = serde_json::from_str(&json).unwrap();
        let mut twin = EcuNode::new(0, NodeConfig::default());
        twin.restore_state(&back);
        assert_eq!(twin.save_state(), state);
        assert_eq!(twin.frames_received(), 1);
    }
}
