//! Peripherals: system timer, I/O ports and external trigger pins.
//!
//! A powertrain controller's environment is modelled with host-settable
//! input ports (sensor values such as RPM and throttle) and history-keeping
//! output ports (actuator commands such as injection duration). The output
//! history is what the "non-intrusive observation" experiment (T6) compares
//! across debug configurations. Trigger pins carry the external trigger
//! in/out lines managed by the MCDS break & suspend switch.
//!
//! # Register map (offsets from the peripheral base)
//!
//! | Offset | Register | Access | Meaning |
//! |--------|----------|--------|---------|
//! | `0x000` | `TIMER_LO` | R  | low word of the SoC cycle counter |
//! | `0x004` | `TIMER_HI` | R  | high word of the SoC cycle counter |
//! | `0x008` | `TIMER_PERIOD` | R/W | periodic interrupt period in cycles (0 = off) |
//! | `0x00C` | `TIMER_ACK` | W | acknowledge (clear) the pending timer interrupt |
//! | `0x100 + 4*i` | `OUT[i]` (i < 4)  | R/W | actuator latch; writes are recorded with their cycle |
//! | `0x200 + 4*i` | `IN[i]` (i < 8)   | R   | sensor value, set by the host/testbench |
//! | `0x300` | `TRIG_OUT` | W | pulse external trigger-out lines (bitmask) |
//! | `0x304` | `TRIG_IN`  | R | level of external trigger-in lines |
//! | `0x400` | `DMA_SRC`  | R/W | DMA source address |
//! | `0x404` | `DMA_DST`  | R/W | DMA destination address |
//! | `0x408` | `DMA_LEN`  | R/W | DMA length in bytes (word-granular) |
//! | `0x40C` | `DMA_CTRL` | R/W | write 1: start; read: bit0 = busy, bit1 = error |

use std::collections::VecDeque;

use crate::bus::{Addr, BusFault, BusRequest, BusTarget, XferKind};
use crate::isa::MemWidth;

/// Number of output (actuator) ports.
pub const OUT_PORT_COUNT: usize = 4;

/// Number of input (sensor) ports.
pub const IN_PORT_COUNT: usize = 8;

/// A timestamped actuator write.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortWrite {
    /// SoC cycle of the write.
    pub cycle: u64,
    /// Value written.
    pub value: u32,
}

/// Serializable runtime state of a [`PeriphBlock`]: latches, histories,
/// trigger lines, timer and DMA registers. The bus base address and history
/// capacity are configuration and are *not* included.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq, Eq)]
pub struct PeriphState {
    out_latch: [u32; OUT_PORT_COUNT],
    out_history: Vec<Vec<PortWrite>>,
    in_ports: [u32; IN_PORT_COUNT],
    trig_out_pulses: Vec<(u64, u32)>,
    trig_in_level: u32,
    timer_period: u32,
    timer_next_fire: u64,
    irq_pending: bool,
    dma_src: u32,
    dma_dst: u32,
    dma_len: u32,
    dma_start_pending: bool,
    dma_busy: bool,
    dma_error: bool,
}

/// The peripheral block.
#[derive(Debug, Clone)]
pub struct PeriphBlock {
    base: Addr,
    out_latch: [u32; OUT_PORT_COUNT],
    /// Per-port write history, oldest first; dropping the oldest entry at
    /// the cap is O(1).
    out_history: Vec<VecDeque<PortWrite>>,
    history_cap: usize,
    in_ports: [u32; IN_PORT_COUNT],
    trig_out_pulses: Vec<(u64, u32)>,
    trig_in_level: u32,
    timer_period: u32,
    timer_next_fire: u64,
    irq_pending: bool,
    dma_src: u32,
    dma_dst: u32,
    dma_len: u32,
    dma_start_pending: bool,
    dma_busy: bool,
    dma_error: bool,
}

impl PeriphBlock {
    /// Creates the block at bus base address `base`, keeping up to
    /// `history_cap` writes per output port (older entries are dropped).
    pub fn new(base: Addr, history_cap: usize) -> PeriphBlock {
        PeriphBlock {
            base,
            out_latch: [0; OUT_PORT_COUNT],
            out_history: vec![VecDeque::new(); OUT_PORT_COUNT],
            history_cap,
            in_ports: [0; IN_PORT_COUNT],
            trig_out_pulses: Vec::new(),
            trig_in_level: 0,
            timer_period: 0,
            timer_next_fire: 0,
            irq_pending: false,
            dma_src: 0,
            dma_dst: 0,
            dma_len: 0,
            dma_start_pending: false,
            dma_busy: false,
            dma_error: false,
        }
    }

    /// Takes a pending DMA start command as `(src, dst, len)`, marking the
    /// engine busy. Called by the SoC's DMA engine.
    pub fn take_dma_start(&mut self) -> Option<(u32, u32, u32)> {
        if self.dma_start_pending {
            self.dma_start_pending = false;
            self.dma_busy = true;
            self.dma_error = false;
            Some((self.dma_src, self.dma_dst, self.dma_len))
        } else {
            None
        }
    }

    /// Reports DMA completion (`error` true on a bus fault mid-transfer).
    pub fn finish_dma(&mut self, error: bool) {
        self.dma_busy = false;
        self.dma_error = error;
    }

    /// True while a DMA transfer is in flight.
    pub fn dma_busy(&self) -> bool {
        self.dma_busy
    }

    /// True if the last DMA transfer aborted on a bus fault.
    pub fn dma_error(&self) -> bool {
        self.dma_error
    }

    /// Advances the periodic timer to `now`; sets the interrupt-pending
    /// flag when the period elapses. Called by the SoC every cycle.
    pub fn timer_tick(&mut self, now: u64) {
        if self.timer_period == 0 {
            return;
        }
        if now >= self.timer_next_fire {
            self.irq_pending = true;
            self.timer_next_fire = now + self.timer_period as u64;
        }
    }

    /// True while the timer interrupt is pending (level until acknowledged).
    pub fn irq_pending(&self) -> bool {
        self.irq_pending
    }

    /// The cycle at which [`Periph::timer_tick`] next mutates state, if the
    /// timer is armed. `timer_tick` is a no-op strictly before this cycle,
    /// so the execution kernel may skip straight to it.
    pub(crate) fn timer_wake(&self) -> Option<u64> {
        (self.timer_period > 0).then_some(self.timer_next_fire)
    }

    /// True while a DMA start command is latched but not yet taken by the
    /// SoC's DMA engine.
    pub(crate) fn dma_start_latched(&self) -> bool {
        self.dma_start_pending
    }

    /// Sets a sensor input port value (host/testbench side).
    ///
    /// # Panics
    ///
    /// Panics if `port >= IN_PORT_COUNT`.
    pub fn set_input(&mut self, port: usize, value: u32) {
        self.in_ports[port] = value;
    }

    /// Reads the current value of a sensor input port.
    pub fn input(&self, port: usize) -> u32 {
        self.in_ports[port]
    }

    /// Last value written to output port `port`.
    pub fn output(&self, port: usize) -> u32 {
        self.out_latch[port]
    }

    /// Timestamped write history of output port `port`, oldest first.
    pub fn output_history(&self, port: usize) -> &VecDeque<PortWrite> {
        &self.out_history[port]
    }

    /// Clears all output histories (between experiment phases).
    pub fn clear_history(&mut self) {
        for h in &mut self.out_history {
            h.clear();
        }
        self.trig_out_pulses.clear();
    }

    /// Trigger-out pulses recorded as `(cycle, bitmask)` pairs.
    pub fn trigger_out_pulses(&self) -> &[(u64, u32)] {
        &self.trig_out_pulses
    }

    /// Drives the external trigger-in level bitmask (host side). The SoC
    /// surfaces changes as [`crate::event::SocEvent::TriggerIn`] events.
    pub fn set_trigger_in(&mut self, level: u32) {
        self.trig_in_level = level;
    }

    /// Current external trigger-in level bitmask.
    pub fn trigger_in(&self) -> u32 {
        self.trig_in_level
    }

    /// Captures the block's complete runtime state (see [`PeriphState`]).
    pub fn save_state(&self) -> PeriphState {
        PeriphState {
            out_latch: self.out_latch,
            out_history: self
                .out_history
                .iter()
                .map(|h| h.iter().copied().collect())
                .collect(),
            in_ports: self.in_ports,
            trig_out_pulses: self.trig_out_pulses.clone(),
            trig_in_level: self.trig_in_level,
            timer_period: self.timer_period,
            timer_next_fire: self.timer_next_fire,
            irq_pending: self.irq_pending,
            dma_src: self.dma_src,
            dma_dst: self.dma_dst,
            dma_len: self.dma_len,
            dma_start_pending: self.dma_start_pending,
            dma_busy: self.dma_busy,
            dma_error: self.dma_error,
        }
    }

    /// Restores state captured by [`PeriphBlock::save_state`]. Base address
    /// and history capacity are untouched.
    pub fn restore_state(&mut self, state: &PeriphState) {
        self.out_latch = state.out_latch;
        self.out_history = state
            .out_history
            .iter()
            .map(|h| h.iter().copied().collect())
            .collect();
        self.in_ports = state.in_ports;
        self.trig_out_pulses = state.trig_out_pulses.clone();
        self.trig_in_level = state.trig_in_level;
        self.timer_period = state.timer_period;
        self.timer_next_fire = state.timer_next_fire;
        self.irq_pending = state.irq_pending;
        self.dma_src = state.dma_src;
        self.dma_dst = state.dma_dst;
        self.dma_len = state.dma_len;
        self.dma_start_pending = state.dma_start_pending;
        self.dma_busy = state.dma_busy;
        self.dma_error = state.dma_error;
    }

    fn off(&self, addr: Addr) -> u32 {
        addr.wrapping_sub(self.base)
    }

    /// True for an access that touches nothing the SoC samples each cycle
    /// (timer, IRQ level, DMA command, trigger lines): a word read of any
    /// register, or a word write to an `OUT[i]` latch. The execution
    /// kernel's batched executors perform passive accesses in-block at
    /// their exact completion cycle; every other peripheral access ends the
    /// block and is stepped.
    pub(crate) fn is_passive(&self, request: &BusRequest) -> bool {
        request.width == MemWidth::Word
            && match request.kind {
                XferKind::Read => true,
                XferKind::Write => (0x100..=0x10C).contains(&self.off(request.addr)),
                XferKind::Fetch | XferKind::Atomic => false,
            }
    }
}

impl BusTarget for PeriphBlock {
    fn access_cycles(&self, _addr: Addr, _kind: XferKind) -> u32 {
        1
    }

    fn read(&mut self, addr: Addr, width: MemWidth, now: u64) -> Result<u32, BusFault> {
        if width != MemWidth::Word {
            return Err(BusFault::Denied { addr });
        }
        let off = self.off(addr);
        match off {
            0x000 => Ok(now as u32),
            0x004 => Ok((now >> 32) as u32),
            0x008 => Ok(self.timer_period),
            0x400 => Ok(self.dma_src),
            0x404 => Ok(self.dma_dst),
            0x408 => Ok(self.dma_len),
            0x40C => Ok(self.dma_busy as u32 | (self.dma_error as u32) << 1),
            0x100..=0x10C => Ok(self.out_latch[((off - 0x100) / 4) as usize]),
            0x200..=0x21C => Ok(self.in_ports[((off - 0x200) / 4) as usize]),
            0x304 => Ok(self.trig_in_level),
            _ => Err(BusFault::Denied { addr }),
        }
    }

    fn write(&mut self, addr: Addr, width: MemWidth, value: u32, now: u64) -> Result<(), BusFault> {
        if width != MemWidth::Word {
            return Err(BusFault::Denied { addr });
        }
        let off = self.off(addr);
        match off {
            0x008 => {
                self.timer_period = value;
                self.timer_next_fire = now + value as u64;
                Ok(())
            }
            0x00C => {
                self.irq_pending = false;
                Ok(())
            }
            0x400 => {
                self.dma_src = value;
                Ok(())
            }
            0x404 => {
                self.dma_dst = value;
                Ok(())
            }
            0x408 => {
                self.dma_len = value;
                Ok(())
            }
            0x40C => {
                if value & 1 != 0 && !self.dma_busy {
                    self.dma_start_pending = true;
                }
                Ok(())
            }
            0x100..=0x10C => {
                let port = ((off - 0x100) / 4) as usize;
                self.out_latch[port] = value;
                let h = &mut self.out_history[port];
                if h.len() == self.history_cap {
                    h.pop_front();
                }
                h.push_back(PortWrite { cycle: now, value });
                Ok(())
            }
            0x300 => {
                self.trig_out_pulses.push((now, value));
                Ok(())
            }
            _ => Err(BusFault::Denied { addr }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: Addr = 0xF000_0000;

    #[test]
    fn timer_reads_cycle_counter() {
        let mut p = PeriphBlock::new(BASE, 16);
        assert_eq!(
            p.read(BASE, MemWidth::Word, 0x1_2345_6789).unwrap(),
            0x2345_6789
        );
        assert_eq!(p.read(BASE + 4, MemWidth::Word, 0x1_2345_6789).unwrap(), 1);
    }

    #[test]
    fn output_port_records_history() {
        let mut p = PeriphBlock::new(BASE, 3);
        for (cycle, v) in [(10u64, 1u32), (20, 2), (30, 3), (40, 4)] {
            p.write(BASE + 0x100, MemWidth::Word, v, cycle).unwrap();
        }
        assert_eq!(p.output(0), 4);
        let h = p.output_history(0);
        assert_eq!(h.len(), 3, "capped");
        assert_eq!(
            h[0],
            PortWrite {
                cycle: 20,
                value: 2
            },
            "oldest dropped"
        );
        assert_eq!(p.read(BASE + 0x100, MemWidth::Word, 50).unwrap(), 4);
    }

    #[test]
    fn history_resumes_from_saved_state_past_the_wrap() {
        let write_cycles = |p: &mut PeriphBlock, cycles: std::ops::Range<u64>| {
            for c in cycles {
                p.write(BASE + 0x100, MemWidth::Word, c as u32, c).unwrap();
            }
        };
        let mut control = PeriphBlock::new(BASE, 10);
        write_cycles(&mut control, 0..25);

        let mut saved = PeriphBlock::new(BASE, 10);
        write_cycles(&mut saved, 0..13);
        let state = saved.save_state();
        let kept: Vec<u64> = state.out_history[0].iter().map(|w| w.cycle).collect();
        assert_eq!(
            kept,
            (3..13).collect::<Vec<_>>(),
            "state holds oldest first"
        );

        let mut resumed = PeriphBlock::new(BASE, 10);
        resumed.restore_state(&state);
        write_cycles(&mut resumed, 13..25);
        assert_eq!(resumed.output_history(0), control.output_history(0));
        assert_eq!(resumed.save_state(), control.save_state());
    }

    #[test]
    fn input_ports_reflect_host_values() {
        let mut p = PeriphBlock::new(BASE, 16);
        p.set_input(2, 3500);
        assert_eq!(p.read(BASE + 0x208, MemWidth::Word, 0).unwrap(), 3500);
        // Inputs are read-only from the bus.
        assert!(p.write(BASE + 0x208, MemWidth::Word, 1, 0).is_err());
    }

    #[test]
    fn trigger_pins() {
        let mut p = PeriphBlock::new(BASE, 16);
        p.set_trigger_in(0b101);
        assert_eq!(p.read(BASE + 0x304, MemWidth::Word, 0).unwrap(), 0b101);
        p.write(BASE + 0x300, MemWidth::Word, 0b10, 77).unwrap();
        assert_eq!(p.trigger_out_pulses(), &[(77, 0b10)]);
    }

    #[test]
    fn non_word_and_unknown_offsets_denied() {
        let mut p = PeriphBlock::new(BASE, 16);
        assert!(p.read(BASE, MemWidth::Byte, 0).is_err());
        assert!(p.read(BASE + 0x500, MemWidth::Word, 0).is_err());
        assert!(
            p.write(BASE, MemWidth::Word, 0, 0).is_err(),
            "timer is read-only"
        );
    }
}
