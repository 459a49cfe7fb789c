//! Consumer-facing benchmark of the MCDS/PSI reproduction.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <farm-run|farm-debug|farm-churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets the workload up several times (reporting the median
//! set-up time), measures it untraced for `--seconds`, checks every output
//! against an in-process reference and prints the end-to-end metrics.
//! `--trace 1` measures the same loop untraced and traced (the difference
//! is the tracing overhead), walks the per-layer ladder with spans, writes
//! the spans as a Chrome trace under `.bench_out/` and prints the
//! per-layer metrics. The last stdout line is always one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `benchmark/README.md` for the workloads and metrics.

mod gen;
mod ladder;
mod rig;
mod span;
mod stats;
mod workloads;

use ladder::{Ledger, Metric};
use rig::{host_facts, remove_evict_dir, secs, OUT_DIR};
use span::{chrome_trace, layer_table, layer_times, Tracer};
use stats::{median, tail};
use std::time::Instant;
use workloads::{setup, LoopStats};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Share of `--seconds` each loop half of the traced run measures.
const TRACED_LOOP_SHARE: f64 = 0.25;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => trace = value != "0",
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".to_string());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// What a run prints as its last line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn report_loop(label: &str, s: &LoopStats) {
    let n = s.latencies_ms.len();
    println!(
        "{label}: {n} ops in {:.3} s, {:.3} ops/s, {:.3} sim Mcyc/s, p50 {:.3} ms, \
         p95 {} (n={n}), failed {}/{} ({:.4})",
        s.window_s,
        s.ops_per_s,
        s.sim_mcps(),
        median(&s.latencies_ms).unwrap_or(f64::NAN),
        tail(&s.latencies_ms, 95.0).map_or("n/a (<200 ops)".to_string(), |v| format!("{v:.3} ms")),
        s.failures.failed,
        s.failures.attempted,
        s.failures.frac(),
    );
    if let Some(b) = median(&s.evict_bytes) {
        println!(
            "{label}: evict_bytes {b:.0} B per evicted session (n={})",
            s.evict_bytes.len()
        );
    }
}

fn untraced(args: &Args) -> Result<Outcome, String> {
    let tag = |i: usize| format!("{}-{i}", args.workload);
    let t = Instant::now();
    let mut bench = setup(&args.workload, args.seed, &tag(0))?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let s = bench.measure(secs(args.seconds), &Tracer::new(false));
    // The other set-ups come after the measured loop, so what they leave
    // behind in the allocator never weighs on it.
    for i in 1..SETUP_REPEATS {
        let t = Instant::now();
        let extra = setup(&args.workload, args.seed, &tag(i))?;
        setup_s.push(t.elapsed().as_secs_f64());
        drop(extra);
        remove_evict_dir(&tag(i));
    }
    report_loop("measured", &s);
    println!("setup_s samples: {setup_s:?}");
    let verdict = bench.verify();
    if let Err(e) = &verdict {
        println!("INCORRECT: {e}");
    }
    let mut ledger = Ledger::default();
    ledger.put("setup_s", median(&setup_s).unwrap_or(f64::NAN), "s");
    ledger.put("sim_mcps", s.sim_mcps(), "Mcyc/s");
    ledger.put("ops_per_s", s.ops_per_s, "1/s");
    ledger.put(
        "op_p50_ms",
        median(&s.latencies_ms).unwrap_or(f64::NAN),
        "ms",
    );
    Ok(Outcome {
        correct: verdict.is_ok(),
        attempted: s.failures.attempted,
        failed: s.failures.failed,
        metrics: ledger.metrics,
    })
}

fn traced(args: &Args) -> Result<Outcome, String> {
    let tracer = Tracer::new(true);
    let mut bench = setup(
        &args.workload,
        args.seed,
        &format!("{}-traced", args.workload),
    )?;
    let half = secs(args.seconds * TRACED_LOOP_SHARE);
    let plain = bench.measure(half, &Tracer::new(false));
    let with_spans = bench.measure(half, &tracer);
    report_loop("untraced half", &plain);
    report_loop("traced half", &with_spans);
    let mut problems = Vec::new();
    if let Err(e) = bench.verify() {
        problems.push(e);
    }
    let mut ledger = ladder::run(args.seed, &tracer).unwrap_or_else(|e| {
        problems.push(e);
        Ledger::default()
    });
    // Median op latency is what the spans could slow; the loops' ops/s
    // over two short halves is too coarse to resolve it.
    let p50 = |s: &LoopStats| median(&s.latencies_ms).unwrap_or(f64::NAN);
    ledger.put(
        "trace.overhead_frac",
        p50(&with_spans) / p50(&plain) - 1.0,
        "frac",
    );
    // Resident memory: allocator placement moves it by up to a fifth from
    // run to run on the small farm processes, too much to bound, so it is
    // a ledger entry rather than an end-to-end metric.
    ledger.put(
        "mem.rss_mb",
        median(&plain.rss_mb).unwrap_or(f64::NAN),
        "MB",
    );
    let mut failures = plain.failures;
    failures.merge(with_spans.failures);

    let spans = tracer.spans();
    print!("{}", layer_table(&layer_times(&spans)));
    let path = format!("{OUT_DIR}/trace-{}-seed{}.json", args.workload, args.seed);
    std::fs::write(&path, chrome_trace(&spans).to_json())
        .map_err(|e| format!("write {path}: {e}"))?;
    println!("spans: {} written to {path}", spans.len());
    for p in &problems {
        println!("INCORRECT: {p}");
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: failures.attempted,
        failed: failures.failed,
        metrics: ledger.metrics,
    })
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("consumer-bench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("consumer-bench: create {OUT_DIR}: {e}");
        std::process::exit(2);
    }
    println!(
        "{} workload={} seed={} seconds={} trace={}",
        host_facts(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match outcome {
        Ok(o) => {
            println!("{}", o.json());
            if !o.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("consumer-bench: {e}");
            std::process::exit(2);
        }
    }
}
