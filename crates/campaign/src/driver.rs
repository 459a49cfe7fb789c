//! The campaign driver: seeded corpus, parallel batch execution,
//! coverage-frontier feedback and automatic repro distillation.
//!
//! Determinism contract: the entire campaign — corpus contents, frontier,
//! failure set, shrunk repros — is a pure function of
//! [`CampaignConfig::seed`]. Scenarios are generated and mutated with
//! counter-keyed draws; worker threads only *execute* scenarios (each
//! execution is itself deterministic), and their results are re-ordered by
//! batch index before any corpus decision, so thread scheduling cannot
//! leak into the outcome.

use crate::runner::{run_scenario, RunOutcome};
use crate::scenario::{Prng, Scenario};
use crate::shrink::{shrink, ShrinkStats};
use mcds_analysis::CoverageReport;
use mcds_replay::{ReproArtifact, ReproError};
use mcds_telemetry::{Subsystem, Telemetry};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; the whole campaign is a pure function of it.
    pub seed: u64,
    /// Feedback rounds to run.
    pub rounds: usize,
    /// Scenarios per round.
    pub batch: usize,
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Corpus size cap (oldest entries are evicted beyond it).
    pub max_corpus: usize,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seed: 0x00C0_FFEE,
            rounds: 4,
            batch: 16,
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(2),
            max_corpus: 64,
        }
    }
}

/// A typed campaign-level error.
#[derive(Debug)]
pub enum CampaignError {
    /// A worker thread died or its result channel broke.
    Worker {
        /// What went wrong.
        detail: String,
    },
    /// A repro artifact's embedded scenario failed to parse.
    ScenarioDecode(serde_json::Error),
    /// Saving or loading a repro artifact failed.
    Repro(ReproError),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Worker { detail } => write!(f, "campaign worker failed: {detail}"),
            CampaignError::ScenarioDecode(e) => write!(f, "embedded scenario unparseable: {e}"),
            CampaignError::Repro(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<ReproError> for CampaignError {
    fn from(e: ReproError) -> CampaignError {
        CampaignError::Repro(e)
    }
}

/// A distilled failure: the original scenario, its shrunk form, and the
/// ready-to-ship repro artifact.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The scenario as first caught.
    pub scenario: Scenario,
    /// The minimal scenario still failing the same way.
    pub shrunk: Scenario,
    /// Failure class (`"invariant"`, `"divergence"`, `"panic"`).
    pub kind: String,
    /// Human-readable detail from the shrunk run.
    pub detail: String,
    /// Shrink accounting.
    pub stats: ShrinkStats,
    /// The serialized repro (scenario + input log + expected hash +
    /// end-state snapshot).
    pub artifact: ReproArtifact,
}

/// Per-round statistics.
#[derive(Debug, Clone)]
pub struct RoundStats {
    /// Round index (0-based).
    pub round: usize,
    /// Scenario executions this round.
    pub execs: u64,
    /// Corpus size after the round.
    pub corpus: usize,
    /// Frontier coverage after the round.
    pub frontier_instructions: usize,
    /// Frontier arc coverage after the round.
    pub frontier_arcs: usize,
    /// Failures distilled this round.
    pub failures: usize,
}

/// The completed campaign's results.
#[derive(Debug)]
pub struct CampaignReport {
    /// Max-merged coverage over every passing execution.
    pub frontier: CoverageReport,
    /// Fingerprints of the final corpus, in corpus order.
    pub corpus_fingerprints: Vec<u64>,
    /// Total scenario executions.
    pub execs: u64,
    /// Per-round statistics.
    pub rounds: Vec<RoundStats>,
    /// Distilled failures, deduplicated by shrunk-scenario fingerprint.
    pub failures: Vec<Failure>,
    /// Scenarios that injected link faults and still passed.
    pub recovered_fault_scenarios: u64,
    /// Non-fatal worker-pool problems (lost results, dead threads).
    pub worker_errors: Vec<String>,
}

/// A coverage-guided fault campaign.
#[derive(Debug)]
pub struct Campaign {
    config: CampaignConfig,
    telemetry: Option<Telemetry>,
    planted: Vec<Scenario>,
}

impl Campaign {
    /// Creates a campaign with `config`.
    pub fn new(config: CampaignConfig) -> Campaign {
        Campaign {
            config,
            telemetry: None,
            planted: Vec::new(),
        }
    }

    /// Attaches a telemetry hub; campaign counters, gauges and per-scenario
    /// spans are recorded into it.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Plants an explicit scenario into round 0's batch — the way known
    /// invariant breakers (e.g. the buggy race workload) enter a campaign.
    pub fn plant(&mut self, scenario: Scenario) {
        self.planted.push(scenario);
    }

    /// Runs the campaign to completion.
    pub fn run(&mut self) -> CampaignReport {
        let mut rng = Prng::new(self.config.seed);
        let mut corpus: Vec<Scenario> = Vec::new();
        let mut frontier = CoverageReport::default();
        let mut report_rounds = Vec::new();
        let mut failures: Vec<Failure> = Vec::new();
        let mut seen_failures: Vec<u64> = Vec::new();
        let mut execs = 0u64;
        let mut recovered = 0u64;
        let mut worker_errors: Vec<String> = Vec::new();

        let tel = self.telemetry.clone();
        let metrics = tel.as_ref().map(|t| {
            let r = t.registry();
            (
                r.counter("campaign_execs_total", "Scenario executions"),
                r.counter("campaign_failures_total", "Distilled failures"),
                r.counter("campaign_shrink_attempts_total", "Shrink candidate runs"),
                r.counter("campaign_repros_total", "Repro artifacts produced"),
                r.gauge("campaign_corpus_size", "Scenarios in the corpus"),
                r.gauge(
                    "campaign_frontier_instructions",
                    "Frontier instruction coverage",
                ),
                r.gauge("campaign_frontier_arcs", "Frontier arc coverage"),
            )
        });

        for round in 0..self.config.rounds {
            let mut batch: Vec<Scenario> = Vec::new();
            if round == 0 {
                batch.append(&mut self.planted);
            }
            while batch.len() < self.config.batch {
                let seed = rng.next_u64();
                let sc = if corpus.is_empty() || rng.chance(350) {
                    Scenario::generate(seed)
                } else {
                    let parent = &corpus[rng.below(corpus.len() as u64) as usize];
                    parent.mutate(seed)
                };
                batch.push(sc);
            }

            let round_t0 = Instant::now();
            let outcomes = run_batch(&batch, self.config.workers, &mut worker_errors);
            let mut round_failures = 0usize;

            // Results are processed strictly in batch order so thread
            // scheduling cannot influence corpus or frontier decisions.
            for (i, outcome) in outcomes.into_iter().enumerate() {
                let Some(outcome) = outcome else {
                    worker_errors.push(format!("round {round}: result {i} lost"));
                    continue;
                };
                execs += 1;
                if let Some(t) = tel.as_ref() {
                    t.span(Subsystem::Campaign, 0, outcome.end_cycle, 0);
                }
                if outcome.recovered {
                    recovered += 1;
                }
                if outcome.verdict.is_failure() {
                    if let Some(failure) = distill(&batch[i]) {
                        if !seen_failures.contains(&failure.shrunk.fingerprint()) {
                            seen_failures.push(failure.shrunk.fingerprint());
                            if let Some((_, fails, shrinks, repros, ..)) = metrics.as_ref() {
                                fails.inc();
                                shrinks.add(failure.stats.attempts);
                                repros.inc();
                            }
                            round_failures += 1;
                            failures.push(failure);
                        }
                    }
                } else {
                    let merged = frontier.merge(&outcome.coverage);
                    let grew = merged.covered_instructions() > frontier.covered_instructions()
                        || merged.covered_arcs() > frontier.covered_arcs();
                    frontier = merged;
                    if grew {
                        corpus.push(batch[i].clone());
                        if corpus.len() > self.config.max_corpus {
                            corpus.remove(0);
                        }
                    }
                }
            }

            if let Some((execs_c, _, _, _, corpus_g, instr_g, arcs_g)) = metrics.as_ref() {
                execs_c.add(batch.len() as u64);
                corpus_g.set(corpus.len() as f64);
                instr_g.set(frontier.covered_instructions() as f64);
                arcs_g.set(frontier.covered_arcs() as f64);
            }
            if let Some(t) = tel.as_ref() {
                t.span(
                    Subsystem::Campaign,
                    0,
                    0,
                    round_t0.elapsed().as_nanos() as u64,
                );
            }
            report_rounds.push(RoundStats {
                round,
                execs: batch.len() as u64,
                corpus: corpus.len(),
                frontier_instructions: frontier.covered_instructions(),
                frontier_arcs: frontier.covered_arcs(),
                failures: round_failures,
            });
        }

        CampaignReport {
            frontier,
            corpus_fingerprints: corpus.iter().map(Scenario::fingerprint).collect(),
            execs,
            rounds: report_rounds,
            failures,
            recovered_fault_scenarios: recovered,
            worker_errors,
        }
    }
}

/// Executes a batch on a worker pool. Results come back keyed by batch
/// index; a lost result (dead worker, broken channel) leaves a `None` slot
/// and a note in `errors` instead of aborting the campaign.
fn run_batch(
    batch: &[Scenario],
    workers: usize,
    errors: &mut Vec<String>,
) -> Vec<Option<RunOutcome>> {
    let mut results: Vec<Option<RunOutcome>> = vec![None; batch.len()];
    let workers = workers.clamp(1, batch.len().max(1));
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, RunOutcome)>();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            handles.push(scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= batch.len() {
                    break;
                }
                let outcome = run_scenario(&batch[i]);
                if tx.send((i, outcome)).is_err() {
                    break; // Receiver gone: stop quietly.
                }
            }));
        }
        drop(tx);
        for (i, outcome) in rx {
            if i < results.len() {
                results[i] = Some(outcome);
            }
        }
        for h in handles {
            if let Err(payload) = h.join() {
                let detail = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "worker panic payload not printable".to_string());
                errors.push(format!("worker thread panicked: {detail}"));
            }
        }
    });
    results
}

/// Shrinks a failing scenario and packages the repro artifact. Returns
/// `None` when the failure did not reproduce under shrinking (flaky by
/// construction this should not happen; treated as spurious).
fn distill(scenario: &Scenario) -> Option<Failure> {
    // An ephemeral flight recorder follows the triage pipeline so the
    // artifact documents *how* the repro was produced, not just what it
    // is: which scenario was caught, how far shrinking got, and what the
    // final verdict was. The journal is per-distill (outside all
    // simulated state), so recording cannot perturb the repro itself.
    // Timestamps are the phase index, not the wall clock: same-seed
    // campaigns must serialize byte-identical artifacts.
    let journal = mcds_obs::Journal::new(128);
    journal.record_at(
        None,
        None,
        0,
        mcds_obs::ObsEvent::CampaignPhase {
            phase: "caught".into(),
            detail: format!(
                "seed {:#x} fingerprint {:#018x}",
                scenario.seed,
                scenario.fingerprint()
            ),
        },
    );
    let (shrunk, stats) = shrink(scenario)?;
    journal.record_at(
        None,
        Some(shrunk.cycles),
        1,
        mcds_obs::ObsEvent::CampaignPhase {
            phase: "shrunk".into(),
            detail: format!(
                "{} attempts, {} accepted: {} -> {} cycles, {} -> {} events",
                stats.attempts,
                stats.accepted,
                stats.from_cycles,
                stats.to_cycles,
                stats.from_events,
                stats.to_events
            ),
        },
    );
    let shrunk_outcome = run_scenario(&shrunk);
    journal.record_at(
        None,
        Some(shrunk.cycles),
        2,
        mcds_obs::ObsEvent::CampaignPhase {
            phase: "triage".into(),
            detail: format!(
                "{}: {}",
                shrunk_outcome.verdict.kind(),
                shrunk_outcome.verdict.detail()
            ),
        },
    );
    let (expected_hash, snapshot) = crate::runner::final_snapshot(&shrunk);
    journal.record_at(
        None,
        Some(shrunk.cycles),
        3,
        mcds_obs::ObsEvent::CampaignPhase {
            phase: "snapshot".into(),
            detail: format!("expected state hash {expected_hash:#018x}"),
        },
    );
    let scenario_json = serde_json::to_string(&shrunk).ok()?;
    let artifact = ReproArtifact::new(
        shrunk_outcome.verdict.kind(),
        shrunk_outcome.verdict.detail(),
        shrunk.seed,
        shrunk.cycles,
        expected_hash,
        scenario_json,
        shrunk.compile(),
    )
    .with_snapshot(snapshot)
    .with_flight_recorder(journal.tail_json(64));
    Some(Failure {
        scenario: scenario.clone(),
        shrunk,
        kind: shrunk_outcome.verdict.kind().to_string(),
        detail: shrunk_outcome.verdict.detail(),
        stats,
        artifact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_campaign_is_deterministic() {
        let config = CampaignConfig {
            seed: 0x5EED,
            rounds: 2,
            batch: 3,
            workers: 2,
            max_corpus: 8,
        };
        let a = Campaign::new(config.clone()).run();
        let b = Campaign::new(config).run();
        assert_eq!(a.corpus_fingerprints, b.corpus_fingerprints);
        assert_eq!(a.execs, b.execs);
        assert_eq!(
            a.frontier.covered_instructions(),
            b.frontier.covered_instructions()
        );
        assert_eq!(a.failures.len(), b.failures.len());
        assert!(a.worker_errors.is_empty(), "{:?}", a.worker_errors);
    }

    #[test]
    fn frontier_is_monotone_across_rounds() {
        let mut campaign = Campaign::new(CampaignConfig {
            seed: 7,
            rounds: 3,
            batch: 3,
            workers: 2,
            max_corpus: 8,
        });
        let report = campaign.run();
        let mut last = 0;
        for r in &report.rounds {
            assert!(r.frontier_instructions >= last, "frontier shrank");
            last = r.frontier_instructions;
        }
        assert!(report.frontier.covered_instructions() > 0);
    }
}
