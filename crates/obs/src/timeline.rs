//! Unified wall-clock / sim-cycle Perfetto timeline.
//!
//! Renders a journal snapshot as one Chrome Trace Event Format document
//! (the same format `mcds-analysis` emits for device-only timelines)
//! with **two processes**: pid 1 carries the wall-clock farm tracks (RPC
//! dispatch, scheduler quanta, registry evictions, campaign phases) and
//! pid 2 carries the sim-cycle device/vnet tracks. The two clock domains
//! are merged through the [`ObsEvent::SchedulerQuantum`] record the
//! scheduler writes as each quantum ends, which anchors the quantum's
//! `end_cycle` at the record's wall time: a device event at cycle `c` of
//! session `s` is placed at the wall time of the nearest anchor
//! at-or-before `c`, offset by the modelled 150 MHz clock — so device
//! slices line up under the exact quantum that executed them.

use mcds_analysis::chrome::{cycles_to_us, ChromeEvent, ChromeTrace};

use crate::journal::{JournalRecord, ObsEvent};

/// Process id of the wall-clock (farm/scheduler/campaign) tracks.
pub const WALL_PID: u32 = 1;
/// Process id of the sim-cycle (device/vnet) tracks.
pub const SIM_PID: u32 = 2;
/// Wall-pid thread carrying RPC dispatch/complete events.
pub const RPC_TID: u32 = 1;
/// Wall-pid thread carrying scheduler quanta.
pub const SCHED_TID: u32 = 2;
/// Wall-pid thread carrying registry evict/revive instants.
pub const REG_TID: u32 = 3;
/// Wall-pid thread carrying campaign phase instants.
pub const CAMPAIGN_TID: u32 = 4;
/// Sim-pid thread carrying vnet fabric events.
pub const VNET_TID: u32 = 90;
/// Sim-pid thread for device runs not attributable to a session.
pub const DEVICE_TID: u32 = 9;

/// Sim-pid thread id for a session's device track.
pub fn sim_tid(session: u64) -> u32 {
    10 + (session % 64) as u32
}

fn meta(name: &str, pid: u32, tid: u32, label: &str) -> ChromeEvent {
    ChromeEvent {
        name: name.to_string(),
        cat: "__metadata".to_string(),
        ph: "M".to_string(),
        ts: 0.0,
        dur: 0.0,
        pid,
        tid,
        args: serde::Value::Map(vec![(
            "name".to_string(),
            serde::Value::Str(label.to_string()),
        )]),
    }
}

fn args_corr(corr: Option<u64>, extra: Vec<(String, serde::Value)>) -> serde::Value {
    let mut map = Vec::new();
    if let Some(c) = corr {
        map.push(("corr".to_string(), serde::Value::Int(i128::from(c))));
    }
    map.extend(extra);
    if map.is_empty() {
        serde::Value::Null
    } else {
        serde::Value::Map(map)
    }
}

/// One cycle↔wall anchor of a session.
#[derive(Debug, Clone, Copy)]
struct Anchor {
    cycle: u64,
    wall_ns: u64,
}

/// Maps a device cycle of one session onto the wall-clock axis using the
/// session's anchors: the nearest anchor at-or-before the cycle (else the
/// first anchor), offset by the modelled clock rate. With no anchors the
/// raw cycle→µs conversion is used (tracks start at t=0).
fn anchored_us(anchors: &[Anchor], cycle: u64) -> f64 {
    let Some(a) = anchors
        .iter()
        .rev()
        .find(|a| a.cycle <= cycle)
        .or(anchors.first())
    else {
        return cycles_to_us(cycle);
    };
    let base = a.wall_ns as f64 / 1e3;
    if cycle >= a.cycle {
        base + cycles_to_us(cycle - a.cycle)
    } else {
        base - cycles_to_us(a.cycle - cycle)
    }
}

/// Builds the unified two-process timeline from journal records.
///
/// Pass the records oldest-first (as [`crate::Journal::snapshot`] and
/// [`crate::Journal::tail`] return them).
#[must_use]
pub fn unified_timeline(records: &[JournalRecord]) -> ChromeTrace {
    // Pass 1: corr → session attribution and per-session anchor lists.
    let mut corr_session: Vec<(u64, u64)> = Vec::new();
    let mut anchors: Vec<(u64, Vec<Anchor>)> = Vec::new();
    for r in records {
        let ObsEvent::SchedulerQuantum {
            session, end_cycle, ..
        } = r.event
        else {
            continue;
        };
        if let Some(c) = r.corr {
            if !corr_session.iter().any(|&(cc, _)| cc == c) {
                corr_session.push((c, session));
            }
        }
        let list = match anchors.iter_mut().find(|(s, _)| *s == session) {
            Some((_, l)) => l,
            None => {
                anchors.push((session, Vec::new()));
                &mut anchors.last_mut().expect("just pushed").1
            }
        };
        list.push(Anchor {
            cycle: end_cycle,
            wall_ns: r.wall_ns,
        });
    }
    for (_, list) in &mut anchors {
        list.sort_by_key(|a| a.cycle);
    }
    let session_of = |corr: Option<u64>| {
        corr.and_then(|c| {
            corr_session
                .iter()
                .find(|&&(cc, _)| cc == c)
                .map(|&(_, s)| s)
        })
    };
    let anchors_of = |session: Option<u64>| -> &[Anchor] {
        session
            .and_then(|s| anchors.iter().find(|(ss, _)| *ss == s))
            .map_or(&[], |(_, l)| l.as_slice())
    };

    let mut out = Vec::new();
    let mut used_sim_tids: Vec<(u32, String)> = Vec::new();
    let note_sim_tid = |used: &mut Vec<(u32, String)>, tid: u32, label: String| {
        if !used.iter().any(|(t, _)| *t == tid) {
            used.push((tid, label));
        }
    };
    let mut saw = [false; 4]; // rpc, sched, reg, campaign

    for r in records {
        let wall_us = r.wall_ns as f64 / 1e3;
        match &r.event {
            ObsEvent::RpcDispatch { method } => {
                saw[0] = true;
                out.push(ChromeEvent {
                    name: format!("dispatch {method}"),
                    cat: "rpc".into(),
                    ph: "i".into(),
                    ts: wall_us,
                    dur: 0.0,
                    pid: WALL_PID,
                    tid: RPC_TID,
                    args: args_corr(r.corr, vec![]),
                });
            }
            ObsEvent::RpcComplete {
                method,
                ok,
                latency_ns,
            } => {
                saw[0] = true;
                let dur = *latency_ns as f64 / 1e3;
                out.push(ChromeEvent {
                    name: method.clone(),
                    cat: "rpc".into(),
                    ph: "X".into(),
                    ts: (wall_us - dur).max(0.0),
                    dur,
                    pid: WALL_PID,
                    tid: RPC_TID,
                    args: args_corr(r.corr, vec![("ok".to_string(), serde::Value::Bool(*ok))]),
                });
            }
            ObsEvent::SchedulerQuantum {
                session,
                start_cycle,
                end_cycle,
                wall_ns,
            } => {
                saw[1] = true;
                let dur = *wall_ns as f64 / 1e3;
                out.push(ChromeEvent {
                    name: format!("quantum s{session}"),
                    cat: "scheduler".into(),
                    ph: "X".into(),
                    ts: (wall_us - dur).max(0.0),
                    dur,
                    pid: WALL_PID,
                    tid: SCHED_TID,
                    args: args_corr(
                        r.corr,
                        vec![
                            (
                                "start_cycle".to_string(),
                                serde::Value::Int(i128::from(*start_cycle)),
                            ),
                            (
                                "end_cycle".to_string(),
                                serde::Value::Int(i128::from(*end_cycle)),
                            ),
                        ],
                    ),
                });
            }
            ObsEvent::DeviceRun {
                start_cycle,
                end_cycle,
                stopped,
            } => {
                let session = session_of(r.corr);
                let tid = session.map_or(DEVICE_TID, sim_tid);
                let label =
                    session.map_or_else(|| "device".to_string(), |s| format!("session {s}"));
                note_sim_tid(&mut used_sim_tids, tid, label);
                let a = anchors_of(session);
                let ts = anchored_us(a, *start_cycle);
                let dur = cycles_to_us(end_cycle.saturating_sub(*start_cycle));
                out.push(ChromeEvent {
                    name: format!(
                        "run {}..{}{}",
                        start_cycle,
                        end_cycle,
                        if *stopped { " (stopped)" } else { "" }
                    ),
                    cat: "device".into(),
                    ph: "X".into(),
                    ts,
                    dur,
                    pid: SIM_PID,
                    tid,
                    args: args_corr(r.corr, vec![]),
                });
            }
            ObsEvent::SessionEvicted { session, bytes } => {
                saw[2] = true;
                out.push(ChromeEvent {
                    name: format!("evict s{session} ({bytes} B)"),
                    cat: "registry".into(),
                    ph: "i".into(),
                    ts: wall_us,
                    dur: 0.0,
                    pid: WALL_PID,
                    tid: REG_TID,
                    args: args_corr(r.corr, vec![]),
                });
            }
            ObsEvent::SessionRevived { session } => {
                saw[2] = true;
                out.push(ChromeEvent {
                    name: format!("revive s{session}"),
                    cat: "registry".into(),
                    ph: "i".into(),
                    ts: wall_us,
                    dur: 0.0,
                    pid: WALL_PID,
                    tid: REG_TID,
                    args: args_corr(r.corr, vec![]),
                });
            }
            ObsEvent::VnetStep {
                start_cycle,
                end_cycle,
                frames,
                gateway_forwarded,
            } => {
                note_sim_tid(&mut used_sim_tids, VNET_TID, "vnet fabric".to_string());
                out.push(ChromeEvent {
                    name: format!("vnet {frames} frames (+{gateway_forwarded} gw)"),
                    cat: "vnet".into(),
                    ph: "X".into(),
                    ts: cycles_to_us(*start_cycle),
                    dur: cycles_to_us(end_cycle.saturating_sub(*start_cycle)),
                    pid: SIM_PID,
                    tid: VNET_TID,
                    args: args_corr(r.corr, vec![]),
                });
            }
            ObsEvent::VnetCalSwap { page, committed } => {
                note_sim_tid(&mut used_sim_tids, VNET_TID, "vnet fabric".to_string());
                out.push(ChromeEvent {
                    name: format!(
                        "cal swap → page {page} ({})",
                        if *committed {
                            "committed"
                        } else {
                            "rolled back"
                        }
                    ),
                    cat: "vnet".into(),
                    ph: "i".into(),
                    ts: r.cycle.map_or(wall_us, cycles_to_us),
                    dur: 0.0,
                    pid: SIM_PID,
                    tid: VNET_TID,
                    args: args_corr(r.corr, vec![]),
                });
            }
            ObsEvent::CampaignPhase { phase, detail } => {
                saw[3] = true;
                out.push(ChromeEvent {
                    name: format!("{phase}: {detail}"),
                    cat: "campaign".into(),
                    ph: "i".into(),
                    ts: wall_us,
                    dur: 0.0,
                    pid: WALL_PID,
                    tid: CAMPAIGN_TID,
                    args: args_corr(r.corr, vec![]),
                });
            }
        }
    }

    // Metadata: name both processes and every used track.
    let mut events = vec![meta("process_name", WALL_PID, 0, "farm (wall clock)")];
    if saw[0] {
        events.push(meta("thread_name", WALL_PID, RPC_TID, "rpc"));
    }
    if saw[1] {
        events.push(meta("thread_name", WALL_PID, SCHED_TID, "scheduler"));
    }
    if saw[2] {
        events.push(meta("thread_name", WALL_PID, REG_TID, "registry"));
    }
    if saw[3] {
        events.push(meta("thread_name", WALL_PID, CAMPAIGN_TID, "campaign"));
    }
    if !used_sim_tids.is_empty() {
        events.push(meta("process_name", SIM_PID, 0, "devices (sim cycles)"));
        for (tid, label) in &used_sim_tids {
            events.push(meta("thread_name", SIM_PID, *tid, label));
        }
    }
    events.append(&mut out);
    ChromeTrace { events }
}

/// [`unified_timeline`] serialized as Trace Event Format JSON.
#[must_use]
pub fn timeline_json(records: &[JournalRecord]) -> String {
    unified_timeline(records).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Journal;

    /// A journal trail resembling one `session.run` request: dispatch,
    /// two quanta with their device runs, completion.
    fn sample_journal() -> Journal {
        let j = Journal::new(64);
        let corr = j.next_corr();
        j.record(
            Some(corr),
            None,
            ObsEvent::RpcDispatch {
                method: "session.run".into(),
            },
        );
        for q in 0..2u64 {
            let (s, e) = (q * 50_000, (q + 1) * 50_000);
            j.record(
                Some(corr),
                Some(e),
                ObsEvent::DeviceRun {
                    start_cycle: s,
                    end_cycle: e,
                    stopped: false,
                },
            );
            j.record(
                Some(corr),
                Some(e),
                ObsEvent::SchedulerQuantum {
                    session: 1,
                    start_cycle: s,
                    end_cycle: e,
                    wall_ns: 1_000,
                },
            );
        }
        j.record(
            Some(corr),
            None,
            ObsEvent::RpcComplete {
                method: "session.run".into(),
                ok: true,
                latency_ns: 5_000,
            },
        );
        j
    }

    #[test]
    fn timeline_has_both_processes_and_round_trips() {
        let j = sample_journal();
        let trace = unified_timeline(&j.snapshot());
        assert!(trace
            .events
            .iter()
            .any(|e| e.pid == WALL_PID && e.ph == "X"));
        assert!(trace.events.iter().any(|e| e.pid == SIM_PID && e.ph == "X"));
        let names: Vec<&str> = trace
            .events
            .iter()
            .filter(|e| e.name == "process_name")
            .filter_map(|e| match &e.args {
                serde::Value::Map(m) => {
                    m.iter()
                        .find(|(k, _)| k == "name")
                        .and_then(|(_, v)| match v {
                            serde::Value::Str(s) => Some(s.as_str()),
                            _ => None,
                        })
                }
                _ => None,
            })
            .collect();
        assert!(names.contains(&"farm (wall clock)"));
        assert!(names.contains(&"devices (sim cycles)"));
        let json = timeline_json(&j.snapshot());
        let back = ChromeTrace::from_json(&json).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn device_slices_are_anchored_to_quantum_wall_time() {
        let j = sample_journal();
        let snap = j.snapshot();
        let trace = unified_timeline(&snap);
        // The second device run (cycles 50k..100k) must start at the wall
        // time of the quantum that ended at 50k, not at the raw cycle
        // conversion.
        let anchor_wall = snap
            .iter()
            .find(|r| {
                matches!(
                    r.event,
                    ObsEvent::SchedulerQuantum {
                        end_cycle: 50_000,
                        ..
                    }
                )
            })
            .map(|r| r.wall_ns as f64 / 1e3)
            .unwrap();
        let run = trace
            .events
            .iter()
            .find(|e| e.pid == SIM_PID && e.name.starts_with("run 50000"))
            .unwrap();
        assert!((run.ts - anchor_wall).abs() < 1e-6);
        assert!(run.dur > 0.0);
    }

    #[test]
    fn unanchored_events_fall_back_to_cycle_time() {
        let j = Journal::new(8);
        j.record(
            None,
            Some(150_000),
            ObsEvent::VnetStep {
                start_cycle: 0,
                end_cycle: 150_000,
                frames: 10,
                gateway_forwarded: 2,
            },
        );
        let trace = unified_timeline(&j.snapshot());
        let step = trace.events.iter().find(|e| e.cat == "vnet").unwrap();
        assert!((step.ts - 0.0).abs() < 1e-12);
        // 150_000 cycles at 150 MHz is exactly 1 ms.
        assert!((step.dur - 1_000.0).abs() < 1e-6);
    }
}
