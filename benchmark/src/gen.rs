//! Seeded input generation. Every session kind, cycle budget, debug op
//! and sensor value the benchmark feeds the programs comes from here, so
//! one `--seed` fixes the whole input of a run; the programs never see
//! the seed itself.
//!
//! Draws that decide *how much work* an op is (session kind, run budget)
//! are made in balanced blocks: each block is a seeded permutation of the
//! full set. A time-boxed run then always holds the same mix up to one
//! partial block, whatever the seed, which keeps throughput figures
//! comparable across seeds.

use mcds_soc::memmap;
use mcds_workloads::Workload;

/// The catalog kinds consumer sessions are drawn from.
pub const CATALOG: [Workload; 4] = [
    Workload::Engine,
    Workload::Gearbox,
    Workload::EngineGearbox,
    Workload::EngineGearboxVehicle,
];

/// `session.run` budgets of the `farm-run` workload (cycles per RPC);
/// one round runs each of a client's sessions once, budgets permuted.
pub const RUN_BUDGETS: [u64; 4] = [400_000, 800_000, 1_200_000, 1_600_000];

/// Rounds a `farm-run` session lives before it is replaced. Sessions are
/// staggered, one replaced per round, so session age stays stationary
/// and below the ~8M cycles at which every catalog session slows down
/// (see `benchmark/README.md`).
pub const RUN_LIFE_ROUNDS: usize = CATALOG.len();

/// Mean of [`RUN_BUDGETS`]: the cycles set-up pre-ages a session by per
/// round of life it is meant to have already lived.
pub const RUN_MEAN_BUDGET: u64 = 1_000_000;

/// Ops a `farm-debug` session serves before it is destroyed and replaced,
/// so trace backlog and session age stay stationary over a run.
pub const DEBUG_RECYCLE_OPS: usize = 3 * DEBUG_BLOCK.len();

/// ECUs on the ledger's vehicle (`demo::fleet`: engine/gearbox pairs).
pub const FLEET_ECUS: usize = 4;

/// SplitMix64: tiny, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator for one independent stream of a seed. Callers put a
    /// per-purpose tag in the high 32 bits and the client index in the low
    /// ones, so adding a client never shifts another's draws.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut mix = Rng {
            state: seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f),
        };
        Rng {
            state: mix.next_u64(),
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            items.swap(i, j);
        }
    }
}

/// Draws from a fixed set in balanced blocks: every `items.len()`
/// consecutive draws (aligned to the start) are a permutation of `items`.
#[derive(Debug, Clone)]
pub struct Balanced<T: Copy> {
    rng: Rng,
    items: Vec<T>,
    block: Vec<T>,
}

impl<T: Copy> Balanced<T> {
    /// A balanced drawer over `items`.
    pub fn new(rng: Rng, items: &[T]) -> Balanced<T> {
        Balanced {
            rng,
            items: items.to_vec(),
            block: Vec::new(),
        }
    }

    /// The next draw.
    pub fn next_item(&mut self) -> T {
        if self.block.is_empty() {
            self.block = self.items.clone();
            self.rng.shuffle(&mut self.block);
        }
        self.block.pop().expect("refilled above")
    }
}

/// One interactive debugger request of the `farm-debug` mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DebugOp {
    /// `session.run` for a short budget.
    Run { cycles: u64 },
    /// `mem.read` of `count` SRAM words.
    MemRead { addr: u32, count: u64 },
    /// `health.pull`.
    Health,
    /// `trace.pull`.
    TracePull,
    /// `session.state_hash`.
    StateHash,
}

impl DebugOp {
    /// The farm RPC method this op is sent as.
    pub fn method(self) -> &'static str {
        match self {
            DebugOp::Run { .. } => "session.run",
            DebugOp::MemRead { .. } => "mem.read",
            DebugOp::Health => "health.pull",
            DebugOp::TracePull => "trace.pull",
            DebugOp::StateHash => "session.state_hash",
        }
    }

    /// The op as sent to a session of `kind`. The debug bus master ranks
    /// below every core, and the two cores of a 2-core catalog session
    /// keep the bus saturated, so a `mem.read` there always ends in
    /// `BusStarved`; the mix polls such a session with `health.pull`
    /// instead, and no op of it fails. The ledger's
    /// `psi.debug_starved_frac` still measures the starvation on every
    /// kind.
    pub fn on(self, kind: Workload) -> DebugOp {
        match self {
            DebugOp::MemRead { .. } if kind.cores() > 1 => DebugOp::Health,
            op => op,
        }
    }
}

/// `farm-run`: the order and budgets of each round over a client's
/// sessions (one per catalog kind).
#[derive(Debug, Clone)]
pub struct RunPlan {
    order: Balanced<usize>,
    budgets: Balanced<u64>,
}

impl RunPlan {
    /// Client `client`'s plan under `seed`.
    pub fn new(seed: u64, client: u64) -> RunPlan {
        let indices: Vec<usize> = (0..CATALOG.len()).collect();
        RunPlan {
            order: Balanced::new(Rng::stream(seed, 1 << 32 | client), &indices),
            budgets: Balanced::new(Rng::stream(seed, 2 << 32 | client), &RUN_BUDGETS),
        }
    }

    /// The next round: `(catalog index, cycle budget)` per session, in
    /// the order the requests are sent.
    pub fn next_round(&mut self) -> [(usize, u64); CATALOG.len()] {
        std::array::from_fn(|_| (self.order.next_item(), self.budgets.next_item()))
    }
}

/// The traced ladder's execution inputs: the first round of client 0's
/// `farm-run` plan (one run per catalog kind).
pub fn ladder_runs(seed: u64) -> Vec<(Workload, u64)> {
    let round = RunPlan::new(seed, 0).next_round();
    round
        .iter()
        .map(|&(k, budget)| (CATALOG[k], budget))
        .collect()
}

/// The op kinds of one `farm-debug` block; a session serves
/// [`DEBUG_RECYCLE_OPS`] ops, i.e. whole blocks, each a seeded
/// permutation of this multiset. Fixing the multiset per block keeps the
/// expensive trace pulls evenly spread over a session's life.
const DEBUG_BLOCK: [DebugOp; 8] = [
    DebugOp::Run { cycles: 0 },
    DebugOp::Run { cycles: 0 },
    DebugOp::Run { cycles: 0 },
    DebugOp::MemRead { addr: 0, count: 0 },
    DebugOp::MemRead { addr: 0, count: 0 },
    DebugOp::Health,
    DebugOp::TracePull,
    DebugOp::StateHash,
];

/// Short `session.run` budgets of the `farm-debug` mix: one permutation
/// per session (three blocks of three runs).
const DEBUG_RUN_BUDGETS: [u64; 9] = [
    1_000, 3_250, 5_500, 7_750, 10_000, 12_250, 14_500, 16_750, 19_000,
];

/// `farm-debug`: session kinds and the interactive op mix.
#[derive(Debug, Clone)]
pub struct DebugPlan {
    kinds: Balanced<Workload>,
    ops: Balanced<DebugOp>,
    budgets: Balanced<u64>,
    rng: Rng,
}

impl DebugPlan {
    /// Client `client`'s plan under `seed`.
    pub fn new(seed: u64, client: u64) -> DebugPlan {
        DebugPlan {
            kinds: Balanced::new(Rng::stream(seed, 3 << 32 | client), &CATALOG),
            ops: Balanced::new(Rng::stream(seed, 4 << 32 | client), &DEBUG_BLOCK),
            budgets: Balanced::new(Rng::stream(seed, 5 << 32 | client), &DEBUG_RUN_BUDGETS),
            rng: Rng::stream(seed, 6 << 32 | client),
        }
    }

    /// The kind of the next (recycled) session.
    pub fn next_kind(&mut self) -> Workload {
        self.kinds.next_item()
    }

    /// The next op, its parameters filled in.
    pub fn next_op(&mut self) -> DebugOp {
        match self.ops.next_item() {
            DebugOp::Run { .. } => DebugOp::Run {
                cycles: self.budgets.next_item(),
            },
            DebugOp::MemRead { .. } => DebugOp::MemRead {
                addr: memmap::SRAM_BASE + 4 * self.rng.range(0, 4095) as u32,
                count: self.rng.range(1, 16),
            },
            other => other,
        }
    }
}

/// `session.run` budget of every `farm-churn` lifecycle.
pub const CHURN_RUN_CYCLES: u64 = 20_000;

/// `farm-churn`: the kind of each session lifecycle.
#[derive(Debug, Clone)]
pub struct ChurnPlan {
    kinds: Balanced<Workload>,
}

impl ChurnPlan {
    /// Client `client`'s plan under `seed`.
    pub fn new(seed: u64, client: u64) -> ChurnPlan {
        ChurnPlan {
            kinds: Balanced::new(Rng::stream(seed, 7 << 32 | client), &CATALOG),
        }
    }

    /// The next lifecycle's session kind.
    pub fn next_kind(&mut self) -> Workload {
        self.kinds.next_item()
    }
}

/// One sensor input written into an ECU's peripheral port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensorInput {
    /// ECU index on the vehicle.
    pub ecu: usize,
    /// Input port.
    pub port: usize,
    /// Value.
    pub value: u32,
}

/// Seeded sensor stimulus for the ledger's vehicle (engine/gearbox pairs).
#[derive(Debug, Clone)]
pub struct FleetPlan {
    rng: Rng,
}

impl FleetPlan {
    /// The plan under `seed`.
    pub fn new(seed: u64) -> FleetPlan {
        FleetPlan {
            rng: Rng::stream(seed, 9 << 32),
        }
    }

    /// A fresh value for every stimulated port of every ECU (engines at
    /// even indices, gearboxes at odd ones, as `demo::fleet` builds them).
    pub fn next_inputs(&mut self) -> Vec<SensorInput> {
        let kinds = [Workload::Engine, Workload::Gearbox];
        let mut out = Vec::new();
        for ecu in 0..FLEET_ECUS {
            for &(port, lo, hi) in kinds[ecu % 2].stimulated_ports() {
                let value = self.rng.range(u64::from(lo), u64::from(hi)) as u32;
                out.push(SensorInput { ecu, port, value });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_ops(seed: u64, n: usize) -> Vec<(usize, u64)> {
        let mut plan = RunPlan::new(seed, 0);
        (0..n).flat_map(|_| plan.next_round()).collect()
    }

    fn debug_ops(seed: u64, n: usize) -> Vec<(Workload, DebugOp)> {
        let mut plan = DebugPlan::new(seed, 1);
        (0..n).map(|_| (plan.next_kind(), plan.next_op())).collect()
    }

    fn churn_ops(seed: u64, n: usize) -> Vec<Workload> {
        let mut plan = ChurnPlan::new(seed, 0);
        (0..n).map(|_| plan.next_kind()).collect()
    }

    fn fleet_ops(seed: u64, n: usize) -> Vec<Vec<SensorInput>> {
        let mut plan = FleetPlan::new(seed);
        (0..n).map(|_| plan.next_inputs()).collect()
    }

    #[test]
    fn same_seed_gives_identical_op_sequences() {
        assert_eq!(run_ops(7, 64), run_ops(7, 64));
        assert_eq!(debug_ops(7, 64), debug_ops(7, 64));
        assert_eq!(churn_ops(7, 64), churn_ops(7, 64));
        assert_eq!(fleet_ops(7, 16), fleet_ops(7, 16));
    }

    #[test]
    fn different_seeds_give_different_op_sequences() {
        assert_ne!(run_ops(1, 64), run_ops(2, 64));
        assert_ne!(debug_ops(1, 64), debug_ops(2, 64));
        assert_ne!(churn_ops(1, 64), churn_ops(2, 64));
        assert_ne!(fleet_ops(1, 16), fleet_ops(2, 16));
    }

    #[test]
    fn clients_draw_independent_streams() {
        let mut a = RunPlan::new(5, 0);
        let mut b = RunPlan::new(5, 1);
        let a: Vec<_> = (0..8).map(|_| a.next_round()).collect();
        let b: Vec<_> = (0..8).map(|_| b.next_round()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn every_round_runs_each_session_once_with_permuted_budgets() {
        let mut plan = RunPlan::new(11, 0);
        for _ in 0..8 {
            let block = plan.next_round();
            let mut kinds: Vec<usize> = block.iter().map(|b| b.0).collect();
            let mut budgets: Vec<u64> = block.iter().map(|b| b.1).collect();
            kinds.sort_unstable();
            budgets.sort_unstable();
            assert_eq!(kinds, vec![0, 1, 2, 3]);
            assert_eq!(budgets, RUN_BUDGETS.to_vec());
        }
    }

    #[test]
    fn debug_mix_covers_every_method_within_bounds() {
        let mut plan = DebugPlan::new(3, 0);
        let ops: Vec<DebugOp> = (0..2_000).map(|_| plan.next_op()).collect();
        for method in [
            "session.run",
            "mem.read",
            "health.pull",
            "trace.pull",
            "session.state_hash",
        ] {
            assert!(
                ops.iter().any(|o| o.method() == method),
                "{method} never drawn"
            );
        }
        for op in ops {
            match op {
                DebugOp::Run { cycles } => assert!(DEBUG_RUN_BUDGETS.contains(&cycles)),
                DebugOp::MemRead { addr, count } => {
                    assert!((1..=16).contains(&count));
                    let end = addr + 4 * count as u32;
                    assert!(addr >= memmap::SRAM_BASE);
                    assert!(end <= memmap::SRAM_BASE + memmap::SRAM_SIZE);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn every_debug_session_serves_the_same_op_multiset() {
        let mut plan = DebugPlan::new(4, 0);
        let mut sessions = Vec::new();
        for _ in 0..3 {
            let mut ops: Vec<String> = (0..DEBUG_RECYCLE_OPS)
                .map(|_| match plan.next_op() {
                    DebugOp::MemRead { .. } => "mem.read".to_string(),
                    op => format!("{op:?}"),
                })
                .collect();
            ops.sort();
            sessions.push(ops);
        }
        assert_eq!(sessions[0], sessions[1]);
        assert_eq!(sessions[1], sessions[2]);
    }

    #[test]
    fn memory_reads_go_only_to_single_core_sessions() {
        let read = DebugOp::MemRead {
            addr: memmap::SRAM_BASE,
            count: 4,
        };
        for kind in CATALOG {
            let sent = read.on(kind);
            if kind.cores() > 1 {
                assert_eq!(sent, DebugOp::Health, "{}", kind.name());
            } else {
                assert_eq!(sent, read, "{}", kind.name());
            }
            assert_eq!(DebugOp::TracePull.on(kind), DebugOp::TracePull);
        }
    }

    #[test]
    fn fleet_inputs_stay_in_stimulus_ranges() {
        for inputs in fleet_ops(9, 8) {
            assert_eq!(inputs.len(), 2 * (2 + 1));
            for i in inputs {
                let kind = [Workload::Engine, Workload::Gearbox][i.ecu % 2];
                let &(_, lo, hi) = kind
                    .stimulated_ports()
                    .iter()
                    .find(|p| p.0 == i.port)
                    .expect("stimulated port");
                assert!((lo..=hi).contains(&i.value));
            }
        }
    }
}
