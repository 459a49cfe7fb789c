//! Randomized campaign scenarios: a workload, a cycle budget, sensor
//! stimulus, link-fault schedules, trigger perturbations and XCP-style
//! debug-traffic bursts — all generated from one seed and compiled into a
//! replayable [`InputLog`].
//!
//! A scenario is a *pure value*: generating, mutating and compiling it use
//! only counter-keyed PRNG draws (the same SplitMix64 the fault injector
//! uses), never wall-clock time or thread identity, so the whole campaign
//! is a deterministic function of its seed.

use mcds::McdsConfig;
use mcds_psi::device::{DebugOp, Device, DeviceBuilder, DeviceVariant};
use mcds_psi::interface::InterfaceKind;
use mcds_psi::{DownWindow, FaultPlan};
use mcds_replay::{fnv1a64, InputEvent, InputLog};
use mcds_soc::soc::memmap;
use mcds_trace::ProgramImage;
use mcds_workloads::stimulus::{Profile, Sample};

pub use mcds_workloads::Workload;

/// Base of the scratch SRAM window debug-burst *writes* are confined to,
/// well clear of every workload's shared variables (which live in the
/// first `0x200` bytes of SRAM).
pub const SCRATCH_BASE: u32 = memmap::SRAM_BASE + 0x4000;

/// Size of the scratch window.
pub const SCRATCH_SIZE: u32 = 0x1000;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic PRNG (SplitMix64 over an incrementing counter —
/// the same generator the fault injector keys its draws with).
#[derive(Debug, Clone)]
pub struct Prng {
    seed: u64,
    counter: u64,
}

impl Prng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Prng {
        Prng { seed, counter: 0 }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let z = splitmix64(self.seed ^ splitmix64(self.counter));
        self.counter = self.counter.wrapping_add(1);
        z
    }

    /// A draw uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// A draw uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi.saturating_sub(lo).max(1))
    }

    /// True with probability `per_mille`/1000.
    pub fn chance(&mut self, per_mille: u16) -> bool {
        self.below(1000) < u64::from(per_mille)
    }
}

/// A timed fault-plan installation on one debug link: `plan` goes live at
/// `start_cycle` and is cleared `duration` cycles later.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone)]
pub struct FaultBurst {
    /// The link the plan is installed on.
    pub iface: InterfaceKind,
    /// Cycle the plan is installed.
    pub start_cycle: u64,
    /// Cycles until the plan is cleared again.
    pub duration: u64,
    /// The seeded fault plan.
    pub plan: FaultPlan,
}

/// An external trigger-in pin perturbation.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy)]
pub struct TriggerPulse {
    /// Cycle the level is driven.
    pub cycle: u64,
    /// New trigger-in level bitmask.
    pub level: u32,
}

/// An XCP-style burst of debug traffic: `count` word reads (or writes into
/// the scratch window) issued back-to-back over `iface` starting at
/// `cycle` — the calibration-tool traffic the paper's links carry.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy)]
pub struct DebugBurst {
    /// Cycle the first command is issued.
    pub cycle: u64,
    /// The link the burst travels over.
    pub iface: InterfaceKind,
    /// Word-aligned target address.
    pub addr: u32,
    /// Words per command.
    pub words: u32,
    /// Commands in the burst.
    pub count: u32,
    /// True for writes (scratch window only), false for reads.
    pub write: bool,
    /// Seed for the written payload.
    pub seed: u64,
}

/// One randomized campaign scenario.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone)]
pub struct Scenario {
    /// The seed this scenario was generated (or mutated) from.
    pub seed: u64,
    /// The application workload.
    pub workload: Workload,
    /// Cycle budget of the run.
    pub cycles: u64,
    /// Sensor stimulus samples (cycle-ordered at compile time).
    pub stimulus: Vec<Sample>,
    /// Link fault schedules.
    pub faults: Vec<FaultBurst>,
    /// Trigger-in pin perturbations.
    pub triggers: Vec<TriggerPulse>,
    /// Debug-traffic bursts.
    pub bursts: Vec<DebugBurst>,
}

const IFACES: [InterfaceKind; 3] = [
    InterfaceKind::Jtag,
    InterfaceKind::Usb11,
    InterfaceKind::Can,
];

impl Scenario {
    /// Generates a fresh scenario from `seed`.
    pub fn generate(seed: u64) -> Scenario {
        let mut rng = Prng::new(seed);
        let workload = Workload::GENERATED[rng.below(Workload::GENERATED.len() as u64) as usize];
        let cycles = rng.range(40_000, 120_000);
        let stimulus = Self::gen_stimulus(&mut rng, workload, cycles);
        let faults = Self::gen_faults(&mut rng, cycles);
        let triggers = Self::gen_triggers(&mut rng, cycles);
        let bursts = Self::gen_bursts(&mut rng, cycles);
        Scenario {
            seed,
            workload,
            cycles,
            stimulus,
            faults,
            triggers,
            bursts,
        }
    }

    fn gen_stimulus(rng: &mut Prng, workload: Workload, cycles: u64) -> Vec<Sample> {
        let mut samples = Vec::new();
        for &(port, min, max) in workload.stimulated_ports() {
            let steps = (cycles / 1_000).clamp(4, 96) as u32;
            let walk_seed = rng.next_u64();
            let start = rng.range(u64::from(min), u64::from(max) + 1) as u32;
            let period = (cycles / u64::from(steps) + 1).max(1);
            let profile = Profile::random_walk(
                port,
                walk_seed,
                start,
                min,
                max,
                (max - min) / 6 + 1,
                period,
                steps,
            );
            samples.extend(profile.samples());
        }
        samples
    }

    fn gen_faults(rng: &mut Prng, cycles: u64) -> Vec<FaultBurst> {
        let n = rng.below(4);
        (0..n)
            .map(|_| {
                let start_cycle = rng.below(cycles.saturating_sub(2_000).max(1));
                let duration = rng.range(1_000, cycles.saturating_sub(start_cycle).max(1_001));
                let mut plan = FaultPlan::lossy(rng.next_u64(), rng.range(10, 250) as u16);
                plan.max_jitter_cycles = rng.below(64) as u32;
                if rng.chance(250) {
                    // A whole-link outage inside the burst window.
                    let o_start = start_cycle + rng.below(duration.max(1));
                    let o_end = o_start + rng.range(100, 2_000);
                    if let Ok(w) = DownWindow::new(o_start, o_end) {
                        plan.down_windows.push(w);
                    }
                }
                FaultBurst {
                    iface: IFACES[rng.below(IFACES.len() as u64) as usize],
                    start_cycle,
                    duration,
                    plan,
                }
            })
            .collect()
    }

    fn gen_triggers(rng: &mut Prng, cycles: u64) -> Vec<TriggerPulse> {
        let n = rng.below(3);
        (0..n)
            .map(|_| TriggerPulse {
                cycle: rng.below(cycles.max(1)),
                level: (rng.below(4)) as u32,
            })
            .collect()
    }

    fn gen_bursts(rng: &mut Prng, cycles: u64) -> Vec<DebugBurst> {
        let n = rng.below(4);
        (0..n)
            .map(|_| {
                let write = rng.chance(400);
                let addr = if write {
                    // Writes stay inside the scratch window so they cannot
                    // corrupt workload state.
                    SCRATCH_BASE + (rng.below(u64::from(SCRATCH_SIZE / 8)) as u32) * 4
                } else {
                    memmap::SRAM_BASE + (rng.below(0x100) as u32) * 4
                };
                DebugBurst {
                    cycle: rng.below(cycles.max(1)),
                    // JTAG only: USB 1.1 commands cost ~3 ms of simulated
                    // time each, which would dwarf the cycle budget.
                    iface: InterfaceKind::Jtag,
                    addr,
                    words: rng.range(1, 9) as u32,
                    count: rng.range(1, 5) as u32,
                    write,
                    seed: rng.next_u64(),
                }
            })
            .collect()
    }

    /// A mutated copy: 1–3 structural tweaks (cycle budget, stimulus
    /// re-roll, fault/trigger/burst add-remove), deterministic in
    /// `mutation_seed`.
    pub fn mutate(&self, mutation_seed: u64) -> Scenario {
        let mut rng = Prng::new(mutation_seed);
        let mut sc = self.clone();
        sc.seed = mutation_seed;
        let tweaks = 1 + rng.below(3);
        for _ in 0..tweaks {
            match rng.below(6) {
                0 => {
                    // Grow or shrink the cycle budget by up to 25%.
                    let delta = rng.below(sc.cycles / 4 + 1);
                    sc.cycles = if rng.chance(500) {
                        (sc.cycles + delta).min(200_000)
                    } else {
                        sc.cycles.saturating_sub(delta).max(10_000)
                    };
                    sc.stimulus = Profile::from_samples(sc.stimulus)
                        .truncated(sc.cycles)
                        .samples()
                        .to_vec();
                }
                1 => sc.stimulus = Self::gen_stimulus(&mut rng, sc.workload, sc.cycles),
                2 => {
                    if sc.faults.is_empty() || rng.chance(500) {
                        sc.faults.extend(Self::gen_faults(&mut rng, sc.cycles));
                    } else {
                        let i = rng.below(sc.faults.len() as u64) as usize;
                        sc.faults.remove(i);
                    }
                }
                3 => {
                    if sc.triggers.is_empty() || rng.chance(500) {
                        sc.triggers.extend(Self::gen_triggers(&mut rng, sc.cycles));
                    } else {
                        let i = rng.below(sc.triggers.len() as u64) as usize;
                        sc.triggers.remove(i);
                    }
                }
                4 => {
                    if sc.bursts.is_empty() || rng.chance(500) {
                        sc.bursts.extend(Self::gen_bursts(&mut rng, sc.cycles));
                    } else {
                        let i = rng.below(sc.bursts.len() as u64) as usize;
                        sc.bursts.remove(i);
                    }
                }
                _ => {
                    // Perturb fault-plan intensity in place.
                    for f in &mut sc.faults {
                        f.plan.drop_per_mille = (f.plan.drop_per_mille / 2) + rng.below(200) as u16;
                    }
                }
            }
        }
        sc
    }

    /// Compiles the scenario into a cycle-ordered replayable input log.
    pub fn compile(&self) -> InputLog {
        let mut events: Vec<InputEvent> = Vec::new();
        for s in &self.stimulus {
            events.push(InputEvent::Stimulus {
                cycle: s.cycle,
                port: s.port,
                value: s.value,
            });
        }
        for f in &self.faults {
            events.push(InputEvent::Fault {
                cycle: f.start_cycle,
                iface: f.iface,
                plan: f.plan.clone(),
            });
            events.push(InputEvent::ClearFault {
                cycle: f.start_cycle.saturating_add(f.duration),
                iface: f.iface,
            });
        }
        for t in &self.triggers {
            events.push(InputEvent::TriggerIn {
                cycle: t.cycle,
                level: t.level,
            });
        }
        for b in &self.bursts {
            let mut payload_rng = Prng::new(b.seed);
            for i in 0..b.count {
                // Commands are spaced out; replay re-pays the link latency.
                let cycle = b.cycle + u64::from(i) * 16;
                let op = if b.write {
                    DebugOp::WriteWords {
                        addr: b.addr,
                        data: (0..b.words)
                            .map(|_| payload_rng.next_u64() as u32)
                            .collect(),
                    }
                } else {
                    DebugOp::ReadWords {
                        addr: b.addr,
                        count: b.words as usize,
                    }
                };
                events.push(InputEvent::Debug {
                    cycle,
                    iface: b.iface,
                    op,
                });
            }
        }
        events.sort_by_key(InputEvent::cycle);
        let mut log = InputLog::new();
        for e in events {
            log.record(e);
        }
        log
    }

    /// Builds the device this scenario runs on: the right core layout for
    /// the workload, always-on program trace into emulation RAM, program
    /// loaded and ready at reset.
    pub fn build_device(&self) -> Device {
        let mut builder = DeviceBuilder::new(DeviceVariant::EdSideBooster);
        for cc in self.workload.core_configs() {
            builder = builder.core(cc);
        }
        let mut dev = builder
            .mcds(McdsConfig::program_trace(self.workload.cores()))
            .build();
        dev.soc_mut().load_program(&self.workload.program());
        dev
    }

    /// The reconstruction image matching [`Scenario::build_device`].
    pub fn image(&self) -> ProgramImage {
        ProgramImage::from(&self.workload.program())
    }

    /// A stable content fingerprint (FNV-1a over the canonical JSON form).
    pub fn fingerprint(&self) -> u64 {
        match serde_json::to_string(self) {
            Ok(json) => fnv1a64(json.as_bytes()),
            Err(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            let a = Scenario::generate(seed);
            let b = Scenario::generate(seed);
            assert_eq!(a.fingerprint(), b.fingerprint(), "seed {seed}");
            assert_eq!(a.compile().len(), b.compile().len());
        }
        assert_ne!(
            Scenario::generate(1).fingerprint(),
            Scenario::generate(2).fingerprint()
        );
    }

    #[test]
    fn mutation_is_deterministic_and_usually_differs() {
        let base = Scenario::generate(7);
        let a = base.mutate(99);
        let b = base.mutate(99);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), base.fingerprint());
    }

    #[test]
    fn compile_orders_events_by_cycle() {
        let sc = Scenario::generate(0xAB);
        let log = sc.compile();
        let cycles: Vec<u64> = log.events().iter().map(InputEvent::cycle).collect();
        assert!(cycles.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn debug_burst_writes_stay_in_scratch_window() {
        for seed in 0..50u64 {
            let sc = Scenario::generate(seed);
            for b in &sc.bursts {
                if b.write {
                    let end = b.addr + b.words * 4;
                    assert!(b.addr >= SCRATCH_BASE && end <= SCRATCH_BASE + SCRATCH_SIZE);
                }
            }
        }
    }

    #[test]
    fn every_generated_workload_builds_and_runs() {
        for w in Workload::GENERATED {
            let sc = Scenario {
                seed: 1,
                workload: w,
                cycles: 2_000,
                stimulus: Vec::new(),
                faults: Vec::new(),
                triggers: Vec::new(),
                bursts: Vec::new(),
            };
            let mut dev = sc.build_device();
            dev.run_cycles(2_000);
            assert_eq!(dev.soc().cycle(), 2_000);
        }
    }
}
