#![warn(missing_docs)]

//! # mcds-bench — the experiment harness
//!
//! Shared plumbing for the binaries that regenerate every figure and
//! quantitative claim of Mayer et al. (DATE 2005). Each `src/bin/*.rs`
//! binary prints one experiment's table(s); `benches/` holds the Criterion
//! micro-benchmarks for the hot paths. See DESIGN.md for the experiment
//! index and EXPERIMENTS.md for paper-vs-measured results.

use mcds::observer::{DataTraceConfig, TraceQualifier};
use mcds::McdsConfig;
use mcds_psi::device::Device;
use mcds_soc::event::{CycleRecord, SocEvent};
use mcds_soc::CoreId;
use mcds_telemetry::{validate_prometheus, Telemetry, TelemetrySnapshot};
use mcds_workloads::stimulus::StimulusPlayer;

/// Command-line options shared by every experiment binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Run a short CI-friendly pass: the same pipeline and assertions,
    /// fewer iterations.
    pub smoke: bool,
    /// Directory for any output artifacts (JSON timelines, reports).
    pub out_dir: String,
}

impl BenchArgs {
    /// Parses `std::env::args()`: `--smoke` selects the short pass,
    /// `--out-dir <path>` (or `--out-dir=<path>`) overrides the artifact
    /// directory, anything else aborts with a usage message.
    pub fn parse(default_out_dir: &str) -> BenchArgs {
        Self::parse_from(std::env::args().skip(1), default_out_dir)
    }

    /// [`BenchArgs::parse`] over an explicit argument list (testable).
    ///
    /// # Panics
    ///
    /// Panics on an unknown flag or a missing `--out-dir` value.
    pub fn parse_from<I>(args: I, default_out_dir: &str) -> BenchArgs
    where
        I: IntoIterator<Item = String>,
    {
        let mut parsed = BenchArgs {
            smoke: false,
            out_dir: default_out_dir.to_string(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--smoke" {
                parsed.smoke = true;
            } else if arg == "--out-dir" {
                parsed.out_dir = args
                    .next()
                    .unwrap_or_else(|| panic!("--out-dir needs a value"));
            } else if let Some(dir) = arg.strip_prefix("--out-dir=") {
                parsed.out_dir = dir.to_string();
            } else {
                panic!("unknown argument `{arg}` (expected --smoke or --out-dir <path>)");
            }
        }
        parsed
    }

    /// Picks the full-run or smoke-run value of an experiment parameter.
    pub fn scale<T: Copy>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// Writes a telemetry snapshot next to the experiment's other `--out-dir`
/// artifacts as `{bin}_telemetry.json` and `{bin}_telemetry.prom`, and
/// self-checks that both exports parse back. Returns the JSON path.
///
/// # Panics
///
/// Panics if the output directory cannot be created, a file cannot be
/// written, or an export fails its parse-back check.
pub fn write_telemetry_artifacts(args: &BenchArgs, bin: &str, tel: &Telemetry) -> String {
    std::fs::create_dir_all(&args.out_dir).expect("create output dir");
    let json = tel.to_json();
    let parsed: TelemetrySnapshot =
        serde_json::from_str(&json).expect("telemetry JSON parses back");
    assert!(!parsed.metrics.is_empty(), "telemetry snapshot is empty");
    let json_path = format!("{}/{bin}_telemetry.json", args.out_dir);
    std::fs::write(&json_path, &json).expect("write telemetry JSON");
    let prom = tel.to_prometheus();
    let samples = validate_prometheus(&prom).expect("telemetry Prometheus text validates");
    assert!(samples > 0, "Prometheus export has no samples");
    let prom_path = format!("{}/{bin}_telemetry.prom", args.out_dir);
    std::fs::write(&prom_path, &prom).expect("write telemetry Prometheus text");
    println!(
        "wrote {json_path} ({} metrics) and {prom_path} ({samples} samples)",
        parsed.metrics.len()
    );
    json_path
}

/// Renders a fixed-width table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// An MCDS configuration with program trace always-on for `cores` cores and
/// generous FIFO/sink settings (experiments override what they measure).
pub fn tracing_config(cores: usize) -> McdsConfig {
    McdsConfig::program_trace(cores)
}

/// Adds always-on unfiltered data trace to every core of a config.
pub fn with_data_trace(mut config: McdsConfig) -> McdsConfig {
    for c in &mut config.cores {
        c.data_trace = DataTraceConfig {
            qualifier: TraceQualifier::Always,
            filter: None,
        };
    }
    config
}

/// Steps `dev` for `cycles`, feeding `stimulus` into the sensor ports and
/// optionally collecting the cycle records (ground truth for ordering
/// experiments).
pub fn run_with_stimulus(
    dev: &mut Device,
    stimulus: &mut StimulusPlayer,
    cycles: u64,
    collect: bool,
) -> Vec<CycleRecord> {
    let mut records = Vec::new();
    for _ in 0..cycles {
        let now = dev.soc().cycle();
        {
            let periph = dev.soc_mut().periph_mut();
            stimulus.apply_due(now, |port, v| periph.set_input(port, v));
        }
        let record = dev.step();
        if collect {
            records.push(record);
        }
    }
    records
}

/// Ground truth: the global retirement order as `(cycle, core, pc)`.
pub fn retirement_order(records: &[CycleRecord]) -> Vec<(u64, CoreId, u32)> {
    let mut out = Vec::new();
    for r in records {
        for e in &r.events {
            if let SocEvent::Retire(x) = e {
                out.push((r.cycle, x.core, x.pc));
            }
        }
    }
    out
}

/// Ground truth: the global order of data *writes* as
/// `(cycle, core, addr, value)`.
pub fn data_write_order(records: &[CycleRecord]) -> Vec<(u64, CoreId, u32, u32)> {
    let mut out = Vec::new();
    for r in records {
        for e in &r.events {
            if let SocEvent::Retire(x) = e {
                if let Some(m) = x.mem {
                    if m.is_write {
                        out.push((r.cycle, x.core, m.addr, m.value));
                    }
                }
            }
        }
    }
    out
}

/// Best-of-`repeats` wall time for each of two arms, the arms alternating
/// within each repeat (a, b, a, b, ...) so that a speed phase of a shared
/// host slows both alike. `run` returns one run's wall seconds and result;
/// each arm keeps its fastest run's (wall, result), in `arms` order. Also
/// returns each repeat's arm-0 / arm-1 wall ratio. The one ratio estimator
/// of every two-arm wall-time gate (T9d, T15a, T16).
pub fn interleaved<A: Copy, T>(
    repeats: usize,
    arms: [A; 2],
    mut run: impl FnMut(A) -> (f64, T),
) -> (Vec<(f64, T)>, Vec<f64>) {
    let mut best: [Option<(f64, T)>; 2] = [None, None];
    let mut ratios = Vec::new();
    for _ in 0..repeats {
        let mut walls = [0.0; 2];
        for (k, arm) in arms.into_iter().enumerate() {
            let (wall, out) = run(arm);
            walls[k] = wall;
            if best[k].as_ref().is_none_or(|(b, _)| wall < *b) {
                best[k] = Some((wall, out));
            }
        }
        ratios.push(walls[0] / walls[1]);
    }
    let best = best.map(|b| b.expect("at least one repeat"));
    (best.into(), ratios)
}

/// Formats a cycle count as engineering time at the 150 MHz system clock.
pub fn cycles_to_time(cycles: u64) -> String {
    let ns = mcds_soc::memmap::cycles_to_ns(cycles);
    if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_args_parsing() {
        let a = BenchArgs::parse_from(std::iter::empty(), "target/x");
        assert!(!a.smoke);
        assert_eq!(a.out_dir, "target/x");
        assert_eq!(a.scale(100, 5), 100);
        let a = BenchArgs::parse_from(
            ["--smoke".to_string(), "--out-dir=/tmp/o".to_string()],
            "target/x",
        );
        assert!(a.smoke);
        assert_eq!(a.out_dir, "/tmp/o");
        assert_eq!(a.scale(100, 5), 5);
        let a = BenchArgs::parse_from(
            ["--out-dir".to_string(), "elsewhere".to_string()],
            "target/x",
        );
        assert_eq!(a.out_dir, "elsewhere");
    }

    #[test]
    fn time_formatting_bands() {
        assert!(cycles_to_time(15).ends_with("ns"));
        assert!(cycles_to_time(1_500).ends_with("µs"));
        assert!(cycles_to_time(1_500_000).ends_with("ms"));
    }

    #[test]
    fn ground_truth_helpers_extract_events() {
        use mcds_psi::device::{DeviceBuilder, DeviceVariant};
        use mcds_soc::asm::assemble;
        let mut dev = DeviceBuilder::new(DeviceVariant::Production)
            .cores(1)
            .build();
        dev.soc_mut().load_program(
            &assemble(
                ".org 0x80000000
li r2, 0xD0000000
li r1, 7
sw r1, 0(r2)
halt",
            )
            .unwrap(),
        );
        let mut stim = mcds_workloads::StimulusPlayer::new(mcds_workloads::Profile::step(0, 42, 0));
        let records = run_with_stimulus(&mut dev, &mut stim, 200, true);
        let retires = retirement_order(&records);
        assert!(retires.len() >= 4);
        assert_eq!(retires[0].2, 0x8000_0000, "first retire at reset pc");
        let writes = data_write_order(&records);
        assert_eq!(writes.len(), 1);
        assert_eq!(writes[0].2, 0xD000_0000);
        assert_eq!(writes[0].3, 7);
        assert_eq!(dev.soc().periph().input(0), 42, "stimulus applied");
    }

    #[test]
    fn telemetry_artifacts_roundtrip() {
        let tel = Telemetry::new();
        tel.registry()
            .counter("mcds_sim_cycles_total", "cycles")
            .store(42);
        let args = BenchArgs {
            smoke: true,
            out_dir: "target/test-telemetry-artifacts".to_string(),
        };
        let json_path = write_telemetry_artifacts(&args, "libtest", &tel);
        let back: TelemetrySnapshot =
            serde_json::from_str(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
        assert_eq!(back, tel.snapshot());
        let prom =
            std::fs::read_to_string("target/test-telemetry-artifacts/libtest_telemetry.prom")
                .unwrap();
        assert!(prom.contains("mcds_sim_cycles_total 42"), "{prom}");
    }

    #[test]
    fn tracing_config_shape() {
        let c = tracing_config(2);
        assert_eq!(c.cores.len(), 2);
        let d = with_data_trace(c);
        assert!(matches!(
            d.cores[0].data_trace.qualifier,
            TraceQualifier::Always
        ));
    }
}
