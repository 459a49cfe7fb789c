//! The engine (fuel-injection) control workload.
//!
//! A direct-injection controller in the spirit of the paper's motivation:
//! it reads engine speed and load from sensor ports, looks up an injection
//! duration in a **calibration map stored in flash** (the region a
//! calibration engineer overlays with emulation RAM to tune at run time —
//! Section 7), and writes the actuator port every control iteration. It
//! must run continuously: stopping it mid-cycle is the "post-mortem
//! debugging is impractical" scenario of Section 2.
//!
//! The Rust reference model ([`reference_duration`]) computes the expected
//! actuator value so tests and experiments can verify the control output
//! bit-exactly.

use mcds_soc::asm::{assemble, Program};

/// Flash address of the 8×8 fuel map (1 KB-aligned so a single overlay
/// range covers it).
pub const MAP_FLASH_ADDR: u32 = 0x8000_4000;

/// Rows (RPM axis) of the fuel map.
pub const MAP_ROWS: usize = 8;

/// Columns (load axis) of the fuel map.
pub const MAP_COLS: usize = 8;

/// SRAM address of the iteration counter (measurable via DAQ).
pub const ITER_COUNT_ADDR: u32 = 0xD000_0000;

/// SRAM address of the torque-request variable shared with the gearbox
/// core.
pub const TORQUE_REQ_ADDR: u32 = 0xD000_0004;

/// Input port index carrying engine speed (RPM).
pub const RPM_PORT: usize = 0;

/// Input port index carrying engine load (0–255).
pub const LOAD_PORT: usize = 1;

/// Output port index receiving the injection duration.
pub const INJECTION_PORT: usize = 0;

/// Output port broadcasting the torque request — in the CAN-coupled
/// vehicle variant a vnet node samples this latch cyclically and carries
/// it to the gearbox ECU as a bus frame.
pub const TORQUE_TX_PORT: usize = 2;

/// Output port broadcasting the measured engine speed (RPM) for the
/// CAN-coupled vehicle variant.
pub const RPM_TX_PORT: usize = 3;

/// A fuel calibration map: injection-duration base values by RPM row and
/// load column.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq, Eq)]
pub struct FuelMap {
    /// `values[rpm_idx][load_idx]`, microsecond-scaled duration bases.
    pub values: [[u16; MAP_COLS]; MAP_ROWS],
}

impl FuelMap {
    /// The factory calibration: duration grows with both RPM and load.
    pub fn factory() -> FuelMap {
        let mut values = [[0u16; MAP_COLS]; MAP_ROWS];
        for (r, row) in values.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = (100 + r * 40 + c * 25) as u16;
            }
        }
        FuelMap { values }
    }

    /// A "lean" tune: 10 % shorter durations everywhere.
    pub fn lean(&self) -> FuelMap {
        let mut out = self.clone();
        for row in &mut out.values {
            for v in row.iter_mut() {
                *v = *v * 9 / 10;
            }
        }
        out
    }

    /// Serialises the map to its flash byte layout (row-major `u16` little
    /// endian).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(MAP_ROWS * MAP_COLS * 2);
        for row in &self.values {
            for v in row {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Parses a map from its flash byte layout.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than the map.
    pub fn from_bytes(bytes: &[u8]) -> FuelMap {
        let mut values = [[0u16; MAP_COLS]; MAP_ROWS];
        for (r, row) in values.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                let i = (r * MAP_COLS + c) * 2;
                *v = u16::from_le_bytes([bytes[i], bytes[i + 1]]);
            }
        }
        FuelMap { values }
    }
}

impl Default for FuelMap {
    fn default() -> FuelMap {
        FuelMap::factory()
    }
}

fn clamp_idx(v: u32, max: u32) -> u32 {
    v.min(max)
}

/// The RPM row index the controller selects for `rpm`.
pub fn rpm_index(rpm: u32) -> u32 {
    clamp_idx(rpm >> 10, MAP_ROWS as u32 - 1)
}

/// The load column index the controller selects for `load`.
pub fn load_index(load: u32) -> u32 {
    clamp_idx(load >> 5, MAP_COLS as u32 - 1)
}

/// The reference control law: map value plus an RPM-proportional term.
pub fn reference_duration(map: &FuelMap, rpm: u32, load: u32) -> u32 {
    let base = map.values[rpm_index(rpm) as usize][load_index(load) as usize] as u32;
    base + (rpm >> 6)
}

/// Assembles the engine controller.
///
/// With `iterations = Some(n)` the loop runs `n` times then halts (for
/// bounded tests); with `None` it runs forever (the realistic mode).
///
/// # Panics
///
/// Panics if the embedded assembly fails to assemble (a bug, covered by
/// tests).
pub fn program(iterations: Option<u32>) -> Program {
    program_variant(iterations, false)
}

/// The CAN-coupled vehicle variant: the same controller, but the torque
/// request and measured RPM are additionally published on the output
/// ports a vnet CAN node broadcasts ([`TORQUE_TX_PORT`], [`RPM_TX_PORT`])
/// — replacing the shared-SRAM coupling with real bus traffic.
///
/// # Panics
///
/// Panics if the embedded assembly fails to assemble (a bug, covered by
/// tests).
pub fn program_can(iterations: Option<u32>) -> Program {
    program_variant(iterations, true)
}

fn program_variant(iterations: Option<u32>, can_coupled: bool) -> Program {
    let loop_control = match iterations {
        Some(n) => format!(
            "
                addi r9, r9, 1
                li   r10, {n}
                bltu r9, r10, cycle
                halt
            "
        ),
        None => "    j cycle\n".to_string(),
    };
    // The CAN-coupled variant latches torque (r7) and rpm (r1) onto the
    // broadcast ports right after the shared-variable store.
    let can_publish = if can_coupled {
        "
            li   r8, OUT_TORQ
            sw   r7, 0(r8)
            li   r8, OUT_RPM
            sw   r1, 0(r8)
        "
    } else {
        ""
    };
    let source = format!(
        "
        .equ IN_RPM,   0xF0000200
        .equ IN_LOAD,  0xF0000204
        .equ OUT_INJ,  0xF0000100
        .equ OUT_TORQ, 0xF0000108
        .equ OUT_RPM,  0xF000010C
        .equ MAP,      {MAP_FLASH_ADDR:#x}
        .equ ITER,     {ITER_COUNT_ADDR:#x}
        .equ TORQUE,   {TORQUE_REQ_ADDR:#x}
        .org 0x80000000
        engine_start:
            li r12, IN_RPM
            li r13, OUT_INJ
            li r14, MAP
            li r11, ITER
        cycle:
            lw r1, 0(r12)          ; rpm
            lw r2, 4(r12)          ; load (IN_LOAD = IN_RPM + 4)
            ; rpm_idx = min(rpm >> 10, 7)
            srli r3, r1, 10
            slti r5, r3, 8
            bne  r5, r0, rpm_ok
            li   r3, 7
        rpm_ok:
            ; load_idx = min(load >> 5, 7)
            srli r4, r2, 5
            slti r5, r4, 8
            bne  r5, r0, load_ok
            li   r4, 7
        load_ok:
            ; entry = MAP + (rpm_idx*8 + load_idx) * 2
            slli r5, r3, 3
            add  r5, r5, r4
            slli r5, r5, 1
            add  r5, r5, r14
            lhu  r6, 0(r5)         ; map value (through the overlay!)
            ; duration = map + rpm/64
            srli r7, r1, 6
            add  r6, r6, r7
            sw   r6, 0(r13)        ; actuate
            ; torque request for the gearbox core = duration / 4
            srli r7, r6, 2
            li   r8, TORQUE
            sw   r7, 0(r8)
{can_publish}
            ; iteration counter for DAQ measurement
            lw   r7, 0(r11)
            addi r7, r7, 1
            sw   r7, 0(r11)
{loop_control}
        "
    );
    assemble(&source).expect("engine workload assembles")
}

/// Returns `(program, map)` with the factory map already placed in the
/// program image at [`MAP_FLASH_ADDR`] so a single `load_program` sets up
/// both code and calibration data.
pub fn program_with_map(iterations: Option<u32>, map: &FuelMap) -> Program {
    let mut p = program(iterations);
    p.chunks.push((MAP_FLASH_ADDR, map.to_bytes()));
    p
}

/// [`program_can`] with the calibration map placed in the image (the
/// engine-ECU recipe of the virtual vehicle).
pub fn program_can_with_map(iterations: Option<u32>, map: &FuelMap) -> Program {
    let mut p = program_can(iterations);
    p.chunks.push((MAP_FLASH_ADDR, map.to_bytes()));
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_soc::event::CoreId;
    use mcds_soc::soc::SocBuilder;

    #[test]
    fn controller_matches_reference_across_operating_points() {
        let map = FuelMap::factory();
        for (rpm, load) in [
            (800u32, 20u32),
            (2500, 100),
            (6500, 255),
            (9999, 300),
            (0, 0),
        ] {
            let mut soc = SocBuilder::new().cores(1).build();
            soc.load_program(&program_with_map(Some(3), &map));
            soc.periph_mut().set_input(RPM_PORT, rpm);
            soc.periph_mut().set_input(LOAD_PORT, load);
            soc.run_until_halt(100_000);
            assert!(soc.core(CoreId(0)).is_halted(), "rpm={rpm}");
            assert_eq!(
                soc.periph().output(INJECTION_PORT),
                reference_duration(&map, rpm, load),
                "rpm={rpm} load={load}"
            );
        }
    }

    #[test]
    fn iteration_counter_and_torque_shared_var_update() {
        let map = FuelMap::factory();
        let mut soc = SocBuilder::new().cores(1).build();
        soc.load_program(&program_with_map(Some(5), &map));
        soc.periph_mut().set_input(RPM_PORT, 3000);
        soc.periph_mut().set_input(LOAD_PORT, 120);
        soc.run_until_halt(100_000);
        assert_eq!(soc.backdoor_read_word(ITER_COUNT_ADDR), 5);
        let duration = reference_duration(&map, 3000, 120);
        assert_eq!(soc.backdoor_read_word(TORQUE_REQ_ADDR), duration / 4);
    }

    #[test]
    fn map_serialization_roundtrips() {
        let m = FuelMap::factory();
        assert_eq!(FuelMap::from_bytes(&m.to_bytes()), m);
        let lean = m.lean();
        assert!(lean.values[3][3] < m.values[3][3]);
    }

    #[test]
    fn index_clamping() {
        assert_eq!(rpm_index(0), 0);
        assert_eq!(rpm_index(1023), 0);
        assert_eq!(rpm_index(1024), 1);
        assert_eq!(rpm_index(100_000), 7);
        assert_eq!(load_index(31), 0);
        assert_eq!(load_index(255), 7);
        assert_eq!(load_index(10_000), 7);
    }

    #[test]
    fn can_variant_publishes_torque_and_rpm_ports() {
        let map = FuelMap::factory();
        let mut soc = SocBuilder::new().cores(1).build();
        soc.load_program(&program_can_with_map(Some(4), &map));
        soc.periph_mut().set_input(RPM_PORT, 3000);
        soc.periph_mut().set_input(LOAD_PORT, 120);
        soc.run_until_halt(100_000);
        let duration = reference_duration(&map, 3000, 120);
        assert_eq!(soc.periph().output(INJECTION_PORT), duration);
        assert_eq!(soc.periph().output(TORQUE_TX_PORT), duration / 4);
        assert_eq!(soc.periph().output(RPM_TX_PORT), 3000);
        // The SRAM shared variable still updates (single-device compat).
        assert_eq!(soc.backdoor_read_word(TORQUE_REQ_ADDR), duration / 4);
    }

    #[test]
    fn free_running_mode_never_halts() {
        let mut soc = SocBuilder::new().cores(1).build();
        soc.load_program(&program_with_map(None, &FuelMap::factory()));
        soc.periph_mut().set_input(RPM_PORT, 2000);
        soc.run_cycles(20_000);
        assert!(!soc.core(CoreId(0)).is_halted());
        assert!(soc.backdoor_read_word(ITER_COUNT_ADDR) > 50);
    }
}

/// SRAM address of the background (idle-loop) counter in the
/// interrupt-driven variant.
pub const BG_COUNT_ADDR: u32 = 0xD000_000C;

/// Assembles the interrupt-driven engine controller: the control pass runs
/// in a periodic timer ISR (the realistic powertrain structure — injection
/// scheduling is time-triggered) while a background task idles in the main
/// loop. `period` is the control raster in cycles.
///
/// The ISR recomputes its pointer registers on entry (r1–r8 are ISR-owned,
/// r9 belongs to the background task — the register-partitioning convention
/// of small PCP-class cores).
///
/// # Panics
///
/// Panics if the embedded assembly fails to assemble (a bug, covered by
/// tests).
pub fn program_interrupt_driven(period: u32, map: &FuelMap) -> Program {
    let source = format!(
        "
        .equ IN_RPM,     0xF0000200
        .equ OUT_INJ,    0xF0000100
        .equ MAP,        {MAP_FLASH_ADDR:#x}
        .equ ITER,       {ITER_COUNT_ADDR:#x}
        .equ TORQUE,     {TORQUE_REQ_ADDR:#x}
        .equ BG,         {BG_COUNT_ADDR:#x}
        .equ PERIOD_REG, 0xF0000008
        .equ ACK_REG,    0xF000000C
        .org 0x80000000
        start:
            li r1, {period}
            li r2, PERIOD_REG
            sw r1, 0(r2)
            li r1, 1
            mtsr irqen, r1
            li r10, BG
        background:
            addi r9, r9, 1
            sw r9, 0(r10)
            j background

        .org {vector:#x}
        control_isr:
            li r7, IN_RPM
            lw r1, 0(r7)           ; rpm
            lw r2, 4(r7)           ; load
            srli r3, r1, 10
            slti r5, r3, 8
            bne  r5, r0, isr_rpm_ok
            li   r3, 7
        isr_rpm_ok:
            srli r4, r2, 5
            slti r5, r4, 8
            bne  r5, r0, isr_load_ok
            li   r4, 7
        isr_load_ok:
            slli r5, r3, 3
            add  r5, r5, r4
            slli r5, r5, 1
            li   r6, MAP
            add  r5, r5, r6
            lhu  r6, 0(r5)
            srli r7, r1, 6
            add  r6, r6, r7
            li   r8, OUT_INJ
            sw   r6, 0(r8)
            srli r7, r6, 2
            li   r8, TORQUE
            sw   r7, 0(r8)
            li   r8, ITER
            lw   r7, 0(r8)
            addi r7, r7, 1
            sw   r7, 0(r8)
            li   r8, ACK_REG
            sw   r0, 0(r8)
            eret
        ",
        vector = mcds_soc::cpu::DEFAULT_IRQ_VECTOR,
    );
    let mut p = assemble(&source).expect("interrupt-driven engine assembles");
    p.chunks.push((MAP_FLASH_ADDR, map.to_bytes()));
    p
}

#[cfg(test)]
mod irq_tests {
    use super::*;
    use mcds_soc::event::CoreId;
    use mcds_soc::soc::SocBuilder;

    #[test]
    fn isr_control_matches_reference_while_background_runs() {
        let map = FuelMap::factory();
        let mut soc = SocBuilder::new().cores(1).build();
        soc.load_program(&program_interrupt_driven(5_000, &map));
        soc.periph_mut().set_input(RPM_PORT, 4200);
        soc.periph_mut().set_input(LOAD_PORT, 130);
        soc.run_cycles(60_000);
        assert_eq!(
            soc.periph().output(INJECTION_PORT),
            reference_duration(&map, 4200, 130)
        );
        let iters = soc.backdoor_read_word(ITER_COUNT_ADDR);
        assert!(
            (9..=13).contains(&iters),
            "≈12 rasters in 60k cycles ({iters})"
        );
        assert!(
            soc.backdoor_read_word(BG_COUNT_ADDR) > 500,
            "background alive"
        );
        assert!(!soc.core(CoreId(0)).is_halted());
    }

    #[test]
    fn control_raster_period_is_respected() {
        let map = FuelMap::factory();
        let mut soc = SocBuilder::new().cores(1).build();
        soc.load_program(&program_interrupt_driven(3_000, &map));
        soc.periph_mut().set_input(RPM_PORT, 2000);
        soc.run_cycles(100_000);
        let h: Vec<_> = soc
            .periph()
            .output_history(INJECTION_PORT)
            .iter()
            .copied()
            .collect();
        assert!(h.len() >= 30);
        for w in h.windows(2) {
            let gap = w[1].cycle - w[0].cycle;
            assert!(
                (2_800..=3_400).contains(&gap),
                "raster gap {gap} near the 3000-cycle period"
            );
        }
    }
}
