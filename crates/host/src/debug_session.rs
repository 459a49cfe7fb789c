//! A whole debug session as one suspendable value.
//!
//! [`Session`] bundles the pieces every interactive debug engagement
//! needs — an attached [`Debugger`], a [`TraceSession`] decoding against
//! the loaded program, and a run-cycle tally — behind one handle, and adds
//! the operation the multi-session debug farm is built on: an explicit
//! [`Session::suspend`] / [`Session::resume`] pair.
//!
//! [`Session::snapshot`] (which `suspend` wraps) folds the debugger's
//! book-keeping ([`Debugger::save_state`]) together with a full
//! [`SocSnapshot`] into one serializable [`SessionSnapshot`]: breakpoint
//! patches travel inside the memory image, the breakpoint *tables* inside
//! the [`DebuggerState`], and the device state inside the snapshot.
//! `resume` rebuilds a bit-identical session on a freshly constructed
//! device — the invariant the farm's evict/revive cycle proves with
//! [`Session::state_hash`].

use crate::debugger::{Debugger, DebuggerState, StopEvent};
use crate::health::HealthReport;
use crate::session::{drain_residual_trace, SessionError, TraceOutcome, TraceSession};
use mcds::McdsConfig;
use mcds_psi::device::Device;
use mcds_psi::interface::InterfaceKind;
use mcds_replay::{device_state_hash, SocSnapshot};
use mcds_soc::asm::Program;
use mcds_soc::event::CoreId;
use mcds_soc::isa::Reg;
use mcds_xcp::XcpMaster;

/// Session snapshot format version; bump on any incompatible change to
/// [`SessionSnapshot`]'s layout.
pub const SESSION_SNAPSHOT_VERSION: u32 = 3;

/// Everything needed to revive a suspended session on a structurally
/// identical device: the debugger book-keeping, the device snapshot, and
/// the session's run tally.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone)]
pub struct SessionSnapshot {
    /// Format version ([`SESSION_SNAPSHOT_VERSION`] at suspend time).
    pub version: u32,
    /// Total cycles the session had run when suspended.
    pub cycles_run: u64,
    /// Host-side breakpoint/watchpoint tables and base MCDS configuration.
    pub debugger: DebuggerState,
    /// Full device snapshot.
    pub soc: SocSnapshot,
}

impl SessionSnapshot {
    /// The device snapshot's [`SocSnapshot::state_hash`] — by
    /// construction the [`Session::state_hash`] the session had at suspend
    /// time, and the one any correctly revived session has, which is how
    /// the farm proves evict/revive bit-identity.
    pub fn state_hash(&self) -> u64 {
        self.soc.state_hash()
    }

    /// Accounting size of the snapshot (content bytes plus framing) — what
    /// eviction budgets charge for a suspended session.
    pub fn size_bytes(&self) -> usize {
        self.soc.size_bytes()
    }
}

/// The outcome of one [`Session::run`] quantum.
#[derive(Debug, Clone, Copy)]
pub struct RunReport {
    /// Cycles actually run: the full request, unless a core halted, in
    /// which case the quantum ends on the exact cycle it halted.
    pub ran: u64,
    /// The first core that newly halted during the quantum, if any.
    pub stop: Option<StopEvent>,
}

/// One live debug session: an attached debugger plus its trace decoder.
///
/// The optional obs journal handle lives **outside** the snapshotted
/// state (like telemetry): [`Session::suspend`] drops it and
/// [`Session::resume`] starts without one, so the journal never enters a
/// state hash or a replay.
#[derive(Debug)]
pub struct Session {
    dbg: Debugger,
    trace: TraceSession,
    cycles_run: u64,
    obs: Option<mcds_obs::Journal>,
    obs_corr: Option<u64>,
}

impl Session {
    /// Attaches a session to `dev` over `iface`, reconstructing trace
    /// against `program`. The cores are held at reset while `trace` (if
    /// any) is pushed, then released — so tracing covers the run from
    /// cycle zero and attachment cost is identical for every session with
    /// the same configuration.
    ///
    /// # Errors
    ///
    /// Host/device errors from the configuration or release.
    pub fn attach(
        dev: Device,
        iface: InterfaceKind,
        program: &Program,
        trace: Option<McdsConfig>,
    ) -> Result<Session, SessionError> {
        let mut dbg = Debugger::attach(dev, iface);
        dbg.hold_all_at_reset();
        let session = TraceSession::new(program);
        if let Some(config) = trace {
            session.configure(&mut dbg, config)?;
        }
        dbg.resume_all()?;
        Ok(Session {
            dbg,
            trace: session,
            cycles_run: 0,
            obs: None,
            obs_corr: None,
        })
    }

    /// Attaches (or clears) an obs journal handle plus the correlation id
    /// to stamp on events from subsequent [`Session::run`] calls. The
    /// scheduler sets this per quantum so device-layer events carry the
    /// causing request's id.
    pub fn set_obs(&mut self, journal: Option<mcds_obs::Journal>, corr: Option<u64>) {
        self.obs = journal;
        self.obs_corr = corr;
    }

    /// Runs the device for up to `cycles` cycles, stopping on the exact
    /// cycle any core halts — so a stop lands on the same cycle however
    /// the surrounding run quanta are sliced, which keeps farm scheduling
    /// off the determinism path. This is [`Debugger::run_to_stop`]: a core
    /// already halted when the quantum starts (a breakpoint can fire
    /// during the very link latency of arming it) is reported immediately
    /// with zero cycles run. A stop ends the quantum: remaining cycles are
    /// not run, and the report says how many were.
    pub fn run(&mut self, cycles: u64) -> RunReport {
        let (ran, stop) = self.dbg.run_to_stop(cycles);
        let start_cycle = self.cycles_run;
        self.cycles_run += ran;
        if let Some(journal) = &self.obs {
            journal.record(
                self.obs_corr,
                Some(self.cycles_run),
                mcds_obs::ObsEvent::DeviceRun {
                    start_cycle,
                    end_cycle: self.cycles_run,
                    stopped: stop.is_some(),
                },
            );
        }
        RunReport { ran, stop }
    }

    /// The device's execution-kernel mode (see [`mcds_soc::ExecMode`]).
    pub fn exec_mode(&self) -> mcds_soc::ExecMode {
        self.dbg.device().exec_mode()
    }

    /// Sets the execution-kernel mode for subsequent run quanta. Purely a
    /// speed knob — every mode is bit-identical in architectural state.
    pub fn set_exec_mode(&mut self, mode: mcds_soc::ExecMode) {
        self.dbg.device_mut().set_exec_mode(mode);
    }

    /// Kernel cycle accounting for this session's device: how many cycles
    /// were stepped exactly, skipped as provably quiescent, or executed as
    /// batched basic blocks. Quantum schedulers read the deltas across a
    /// [`Session::run`] to report effective speedup.
    pub fn exec_stats(&self) -> &mcds_soc::ExecStats {
        self.dbg.device().exec_stats()
    }

    /// Sets a software breakpoint (RAM/overlay-resident code only).
    ///
    /// # Errors
    ///
    /// Host errors ([`crate::HostError::FlashBreakpoint`], duplicates,
    /// device).
    pub fn set_sw_breakpoint(&mut self, addr: u32) -> Result<(), SessionError> {
        Ok(self.dbg.set_sw_breakpoint(addr)?)
    }

    /// Clears a software breakpoint.
    ///
    /// # Errors
    ///
    /// Host errors.
    pub fn clear_sw_breakpoint(&mut self, addr: u32) -> Result<(), SessionError> {
        Ok(self.dbg.clear_sw_breakpoint(addr)?)
    }

    /// Sets a hardware breakpoint comparator on `core`.
    ///
    /// # Errors
    ///
    /// Host errors ([`crate::HostError::HwBreakpointLimit`], device).
    pub fn set_hw_breakpoint(&mut self, core: CoreId, addr: u32) -> Result<(), SessionError> {
        Ok(self.dbg.set_hw_breakpoint(core, addr)?)
    }

    /// Clears a hardware breakpoint comparator.
    ///
    /// # Errors
    ///
    /// Host errors.
    pub fn clear_hw_breakpoint(&mut self, core: CoreId, addr: u32) -> Result<(), SessionError> {
        Ok(self.dbg.clear_hw_breakpoint(core, addr)?)
    }

    /// Resumes a core stopped at a software breakpoint (step-over), or any
    /// halted core.
    ///
    /// # Errors
    ///
    /// Host errors.
    pub fn resume_core(&mut self, core: CoreId) -> Result<(), SessionError> {
        if self.dbg.resume_from_breakpoint(core).is_ok() {
            return Ok(());
        }
        Ok(self.dbg.resume(core)?)
    }

    /// Reads `count` words from target memory over the debug link.
    ///
    /// # Errors
    ///
    /// Host/device errors.
    pub fn read_words(&mut self, addr: u32, count: usize) -> Result<Vec<u32>, SessionError> {
        Ok(self.dbg.read_words(addr, count)?)
    }

    /// Writes words to target memory over the debug link.
    ///
    /// # Errors
    ///
    /// Host/device errors.
    pub fn write_words(&mut self, addr: u32, data: Vec<u32>) -> Result<(), SessionError> {
        Ok(self.dbg.write_words(addr, data)?)
    }

    /// Reads a core register (the core must be halted).
    ///
    /// # Errors
    ///
    /// Host/device errors.
    pub fn read_reg(&mut self, core: CoreId, r: Reg) -> Result<u32, SessionError> {
        Ok(self.dbg.read_reg(core, r)?)
    }

    /// Writes a core register (the core must be halted).
    ///
    /// # Errors
    ///
    /// Host/device errors.
    pub fn write_reg(&mut self, core: CoreId, r: Reg, v: u32) -> Result<(), SessionError> {
        Ok(self.dbg.write_reg(core, r, v)?)
    }

    /// Swaps the calibration page through a transient XCP master
    /// (connect, swap, disconnect). The page state lives in the device's
    /// overlay mapper, so no host-side XCP state needs to survive
    /// suspend/resume.
    ///
    /// # Errors
    ///
    /// [`SessionError::Calibration`] on XCP protocol errors.
    pub fn set_cal_page(&mut self, page: u8) -> Result<(), SessionError> {
        let mut master = XcpMaster::new(self.dbg.interface());
        let dev = self.dbg.device_mut();
        master.connect(dev).map_err(SessionError::Calibration)?;
        master
            .set_cal_page(dev, page)
            .map_err(SessionError::Calibration)?;
        master.disconnect(dev).map_err(SessionError::Calibration)
    }

    /// Reads the active calibration page through a transient XCP master.
    ///
    /// # Errors
    ///
    /// [`SessionError::Calibration`] on XCP protocol errors.
    pub fn cal_page(&mut self) -> Result<u8, SessionError> {
        let mut master = XcpMaster::new(self.dbg.interface());
        let dev = self.dbg.device_mut();
        master.connect(dev).map_err(SessionError::Calibration)?;
        let page = master.cal_page(dev).map_err(SessionError::Calibration)?;
        master.disconnect(dev).map_err(SessionError::Calibration)?;
        Ok(page)
    }

    /// Drains residual MCDS state and downloads/decodes the trace memory.
    ///
    /// # Errors
    ///
    /// Host/device, decode, or reconstruction errors.
    pub fn pull_trace(&mut self) -> Result<TraceOutcome, SessionError> {
        drain_residual_trace(self.dbg.device_mut());
        self.trace.download(&mut self.dbg)
    }

    /// One-shot "mcds-top" health report of the session's device.
    pub fn health(&self) -> HealthReport {
        HealthReport::gather(self.dbg.device())
    }

    /// FNV-1a hash over the complete device state — the bit-identity
    /// witness the evict/revive cycle is checked against.
    pub fn state_hash(&self) -> u64 {
        device_state_hash(self.dbg.device())
    }

    /// Total cycles this session has run (surviving suspend/resume).
    pub fn cycles_run(&self) -> u64 {
        self.cycles_run
    }

    /// The underlying debugger.
    pub fn debugger(&self) -> &Debugger {
        &self.dbg
    }

    /// The underlying debugger, mutably.
    pub fn debugger_mut(&mut self) -> &mut Debugger {
        &mut self.dbg
    }

    /// Captures the session into a serializable snapshot without disturbing
    /// it: the debugger's book-keeping (BRK patches stay in the memory
    /// image) and the full device state.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            version: SESSION_SNAPSHOT_VERSION,
            cycles_run: self.cycles_run,
            debugger: self.dbg.save_state(),
            soc: SocSnapshot::capture(self.dbg.device()),
        }
    }

    /// Suspends the session: [`Session::snapshot`], then drops it.
    pub fn suspend(self) -> SessionSnapshot {
        self.snapshot()
    }

    /// Revives a suspended session onto `dev`, which must be built with a
    /// configuration structurally identical to the suspended device's
    /// (same spec). The revived session is bit-identical to the suspended
    /// one: same [`Session::state_hash`], same armed breakpoints, same
    /// pending trace.
    ///
    /// # Errors
    ///
    /// [`SessionError::SnapshotVersion`] on a format-version mismatch (the
    /// device snapshot's own version is also checked, reported the same
    /// way, so `restore_into` cannot panic on version grounds).
    /// [`SessionError::Snapshot`] when a memory image does not fit `dev`
    /// ([`SocSnapshot::check_fits`]); nothing is restored then.
    pub fn resume(
        mut dev: Device,
        iface: InterfaceKind,
        program: &Program,
        snap: &SessionSnapshot,
    ) -> Result<Session, SessionError> {
        if snap.version != SESSION_SNAPSHOT_VERSION {
            return Err(SessionError::SnapshotVersion {
                found: snap.version,
                expected: SESSION_SNAPSHOT_VERSION,
            });
        }
        if snap.soc.version() != mcds_replay::SNAPSHOT_VERSION {
            return Err(SessionError::SnapshotVersion {
                found: snap.soc.version(),
                expected: mcds_replay::SNAPSHOT_VERSION,
            });
        }
        snap.soc.check_fits(&dev).map_err(SessionError::Snapshot)?;
        // Comparators and cross-trigger lines armed during the suspended
        // session are structure, not state: rebuild them on the fresh
        // device (zero-cost backdoor — no simulated time) so the snapshot
        // state restores onto a structurally identical MCDS.
        let core_count = dev.soc().core_count();
        dev.mcds_mut()
            .reconfigure(snap.debugger.active_mcds_config(core_count));
        snap.soc.restore_into(&mut dev);
        let dbg = Debugger::attach_with_state(dev, iface, &snap.debugger);
        Ok(Session {
            dbg,
            trace: TraceSession::new(program),
            cycles_run: snap.cycles_run,
            obs: None,
            obs_corr: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds::observer::{CoreTraceConfig, TraceQualifier};
    use mcds_psi::device::{DeviceSpec, DeviceVariant};
    use mcds_soc::sink::NullSink;
    use mcds_workloads::Workload;

    fn spec_for(w: Workload) -> DeviceSpec {
        DeviceSpec {
            variant: DeviceVariant::EdSideBooster,
            cores: w.core_configs(),
            mcds: Some(McdsConfig {
                cores: vec![
                    CoreTraceConfig {
                        program_trace: TraceQualifier::Always,
                        ..Default::default()
                    };
                    w.cores()
                ],
                fifo_depth: 4096,
                sink_bandwidth: 8,
                ..Default::default()
            }),
            with_dma: false,
            flash_wait_states: None,
        }
    }

    fn fresh_session(w: Workload) -> Session {
        let spec = spec_for(w);
        let mut dev = spec.build();
        dev.soc_mut().load_program(&w.program());
        Session::attach(dev, InterfaceKind::Jtag, &w.program(), None).unwrap()
    }

    /// A session whose core counts `n` loop passes down in flash, then
    /// spins at `done` — a breakpoint target first reached long after
    /// the link latency of arming it. Returns the session and `done`.
    fn countdown_session(n: u32) -> (Session, u32) {
        let program = mcds_soc::asm::assemble(&format!(
            "
            .org 0x80000000
            start:
                li r1, {n}
            count:
                addi r1, r1, -1
                bne r1, r0, count
            done:
                j done
            "
        ))
        .unwrap();
        let mut dev = spec_for(Workload::Engine).build();
        dev.soc_mut().load_program(&program);
        let done = program.symbols["done"];
        let session = Session::attach(dev, InterfaceKind::Jtag, &program, None).unwrap();
        (session, done)
    }

    /// The cycle at which `s`'s first core halts when its device is
    /// stepped one cycle at a time (at most `limit` cycles).
    fn per_cycle_halt(s: &mut Session, limit: u64) -> u64 {
        let dev = s.debugger_mut().device_mut();
        for stepped in 1..=limit {
            dev.step_into(&mut NullSink);
            if dev.soc().cores().any(|c| c.is_halted()) {
                return stepped;
            }
        }
        panic!("no core halted within {limit} cycles");
    }

    #[test]
    fn run_reports_hw_breakpoint_stop() {
        // Flash-resident code: only HW breakpoints work there.
        let (mut s, done) = countdown_session(10_000);
        let (mut twin, _) = countdown_session(10_000);
        twin.set_exec_mode(mcds_soc::ExecMode::PerCycle);
        s.set_hw_breakpoint(CoreId(0), done).unwrap();
        twin.set_hw_breakpoint(CoreId(0), done).unwrap();
        let report = s.run(200_000);
        let stop = report.stop.expect("hw breakpoint fires");
        assert_eq!((stop.core, stop.pc), (CoreId(0), done));
        assert!(report.ran > 0, "armed before the countdown ended");
        assert!(report.ran < 200_000, "stopped before the quantum ended");
        assert_eq!(
            report.ran,
            per_cycle_halt(&mut twin, 200_000),
            "stop lands on the exact halt cycle"
        );
        assert_eq!(s.state_hash(), twin.state_hash());
    }

    #[test]
    fn run_quantum_slicing_does_not_change_state() {
        // 1×60k cycles versus 60×1k cycles must land bit-identically —
        // the property that lets the farm scheduler pick any quantum.
        let mut a = fresh_session(Workload::Engine);
        let mut b = fresh_session(Workload::Engine);
        a.run(60_000);
        for _ in 0..60 {
            b.run(1_000);
        }
        assert_eq!(a.state_hash(), b.state_hash());
        assert_eq!(a.cycles_run(), b.cycles_run());

        // With a hardware breakpoint armed, the stop lands on the same
        // cycle however the run is sliced, in either execution mode — and
        // the debugger's own stop-wait lands on that state too.
        let mut outcomes = Vec::new();
        let mut waits = Vec::new();
        for mode in [
            mcds_soc::ExecMode::BlockBatched,
            mcds_soc::ExecMode::PerCycle,
        ] {
            let (mut s, done) = countdown_session(10_000);
            s.set_exec_mode(mode);
            s.set_hw_breakpoint(CoreId(0), done).unwrap();
            let stop = s.debugger_mut().wait_for_stop(200_000).unwrap();
            let cycle = s.debugger().device().soc().cycle();
            waits.push((cycle, stop.pc, s.state_hash()));
            for (quanta, quantum) in [(1, 200_000), (200, 1_000)] {
                let (mut s, done) = countdown_session(10_000);
                s.set_exec_mode(mode);
                s.set_hw_breakpoint(CoreId(0), done).unwrap();
                let mut ran = 0;
                let mut stop = None;
                for _ in 0..quanta {
                    let report = s.run(quantum);
                    ran += report.ran;
                    stop = stop.or(report.stop);
                }
                let pc = stop.expect("hw breakpoint fires").pc;
                outcomes.push((ran, pc, s.state_hash()));
            }
        }
        assert!(
            outcomes.iter().all(|o| *o == outcomes[0]),
            "slicing or mode changed the stop: {outcomes:?}"
        );
        assert!(
            waits.iter().all(|w| *w == waits[0]),
            "mode changed the wait_for_stop landing: {waits:?}"
        );
        assert_eq!((waits[0].1, waits[0].2), (outcomes[0].1, outcomes[0].2));
    }

    #[test]
    fn exec_stats_account_for_every_cycle() {
        // Traced (observe-only MCDS: the device feeds it events from
        // batched blocks) and untraced (idle device, service core
        // included) sessions alike batch, and account every advanced
        // cycle once.
        let w = Workload::Engine;
        let mut dev = DeviceSpec {
            mcds: None,
            ..spec_for(w)
        }
        .build();
        dev.soc_mut().load_program(&w.program());
        let plain = Session::attach(dev, InterfaceKind::Jtag, &w.program(), None).unwrap();
        for mut s in [fresh_session(w), plain] {
            s.run(50_000);
            s.read_words(0xD000_0000, 4).unwrap();
            s.run(50_000);
            let stats = *s.exec_stats();
            let cycle = s.debugger().device().soc().cycle();
            assert_eq!(stats.total_cycles(), cycle, "{stats:?}");
            assert!(stats.block_cycles > 0, "{stats:?}");
        }
    }

    #[test]
    fn suspend_resume_is_bit_identical() {
        let w = Workload::Engine;
        let mut control = fresh_session(w);
        let mut subject = fresh_session(w);
        control.run(30_000);
        subject.run(30_000);

        let live_hash = subject.state_hash();
        let snap = subject.suspend();
        assert_eq!(snap.state_hash(), live_hash);
        let json = serde_json::to_string(&snap).unwrap();
        let snap: SessionSnapshot = serde_json::from_str(&json).unwrap();
        assert!(snap.size_bytes() > 0);

        let mut subject = Session::resume(
            spec_for(w).build(),
            InterfaceKind::Jtag,
            &w.program(),
            &snap,
        )
        .unwrap();
        assert_eq!(subject.state_hash(), control.state_hash());
        assert_eq!(subject.state_hash(), snap.state_hash());

        // And the revived session keeps running in lock-step.
        control.run(30_000);
        subject.run(30_000);
        assert_eq!(subject.state_hash(), control.state_hash());
    }

    #[test]
    fn suspend_with_armed_hw_breakpoint_survives_resume() {
        // Arming a HW breakpoint reconfigures the MCDS (extra comparator
        // + break line) — structure a fresh device built from the spec
        // alone would lack. Resume must rebuild it before restoring.
        let w = Workload::Engine;
        let cycle_label = w.program().symbols["cycle"];
        let mut control = fresh_session(w);
        let mut subject = fresh_session(w);
        for s in [&mut control, &mut subject] {
            s.run(20_000);
            s.set_hw_breakpoint(CoreId(0), cycle_label).unwrap();
        }

        let snap = subject.suspend();
        let mut subject = Session::resume(
            spec_for(w).build(),
            InterfaceKind::Jtag,
            &w.program(),
            &snap,
        )
        .unwrap();
        assert_eq!(subject.state_hash(), control.state_hash());

        // The armed breakpoint still fires identically on both.
        let (cr, sr) = (control.run(200_000), subject.run(200_000));
        assert_eq!(cr.ran, sr.ran);
        assert_eq!(
            cr.stop.expect("control stops").pc,
            sr.stop.expect("subject stops").pc
        );
        assert_eq!(subject.state_hash(), control.state_hash());
    }

    #[test]
    fn resume_rejects_version_mismatch() {
        let w = Workload::Engine;
        let mut snap = fresh_session(w).suspend();
        snap.version = SESSION_SNAPSHOT_VERSION + 1;
        match Session::resume(
            spec_for(w).build(),
            InterfaceKind::Jtag,
            &w.program(),
            &snap,
        ) {
            Err(SessionError::SnapshotVersion { found, expected }) => {
                assert_eq!(found, SESSION_SNAPSHOT_VERSION + 1);
                assert_eq!(expected, SESSION_SNAPSHOT_VERSION);
            }
            other => panic!("expected SnapshotVersion error, got {other:?}"),
        }
    }

    #[test]
    fn cal_page_swap_survives_suspend_resume() {
        let w = Workload::Engine;
        let mut s = fresh_session(w);
        s.run(10_000);
        assert_eq!(s.cal_page().unwrap(), 0);
        s.set_cal_page(1).unwrap();
        assert_eq!(s.cal_page().unwrap(), 1);
        let snap = s.suspend();
        let mut s = Session::resume(
            spec_for(w).build(),
            InterfaceKind::Jtag,
            &w.program(),
            &snap,
        )
        .unwrap();
        assert_eq!(s.cal_page().unwrap(), 1, "page state lives in the device");
    }
}
