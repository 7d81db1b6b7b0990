//! E8 — Fault handling: fail-stop vs preemption (§4.4).
//!
//! A service that faults mid-stream is driven under steady load with the
//! two policies the paper defines:
//!
//! - **fail-stop** (concurrent accelerator): the monitor seals the tile;
//!   every request until the kernel reconfigures the tile bounces with
//!   `TARGET_FAILED`. Recovery = partial reconfiguration time.
//! - **preempt** (preemptible accelerator): the kernel swaps the faulted
//!   context out and back; recovery = state save/restore time, and the
//!   tile's data survives.
//!
//! Either way, a bystander application on another tile must be untouched —
//! the containment property itself.

use crate::report::{ExperimentReport, Json};
use crate::scenarios::{drive, MonitorClient};
use crate::table::TextTable;
use apiary_accel::apps::echo::echo;
use apiary_accel::apps::faulty::faulty;
use apiary_accel::apps::idle::idle;
use apiary_core::fault::FaultAction;
use apiary_core::{AppId, FaultPolicy, System, SystemConfig};
use apiary_monitor::TileState;
use apiary_noc::NodeId;
use core::fmt::Write;

struct Outcome {
    ok_before_recovery: u64,
    errors: u64,
    recovery_cycles: u64,
    served_total: u64,
    bystander_ok: u64,
    victim_alive_after: bool,
    cycles: u64,
}

const BITSTREAM_BYTES: u64 = 512 << 10; // A tile-sized partial bitstream.

fn run_policy(policy: FaultPolicy, requests: u64) -> Outcome {
    let client = NodeId(0);
    let victim = NodeId(5);
    let bclient = NodeId(3);
    let bystander = NodeId(6);
    let mut sys = System::new(SystemConfig::default());
    sys.install(client, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    sys.install(victim, Box::new(faulty(10)), AppId(1), policy)
        .expect("free");
    sys.install(bclient, Box::new(idle()), AppId(2), FaultPolicy::FailStop)
        .expect("free");
    sys.install(
        bystander,
        Box::new(echo(2)),
        AppId(2),
        FaultPolicy::FailStop,
    )
    .expect("free");
    let cap = sys.connect(client, victim, false).expect("same app");
    sys.connect(victim, client, false).expect("reply path");
    let bcap = sys.connect(bclient, bystander, false).expect("same app");
    sys.connect(bystander, bclient, false).expect("reply path");

    let mut vc = MonitorClient::new(client, cap, 32).max_requests(requests);
    vc.timeout = 30_000; // Abandon requests swallowed by the fault.
    let mut bc = MonitorClient::new(bclient, bcap, 32).max_requests(requests);

    // Run until the fault lands, reconfigure on fail-stop, and re-wire the
    // fresh accelerator's reply capability once it comes up (the kernel
    // re-runs the application's connection setup after reconfiguration).
    let mut recovery_cycles = 0;
    let mut reconfigured = false;
    let mut rewired = false;
    for _ in 0..20_000_000u64 {
        sys.tick();
        vc.pump(&mut sys);
        bc.pump(&mut sys);
        if !reconfigured
            && policy == FaultPolicy::FailStop
            && sys.tile(victim).monitor.state() == TileState::FailStopped
        {
            let started = sys.now();
            let done = sys
                .reconfigure(
                    victim,
                    Box::new(faulty(u64::MAX)),
                    AppId(1),
                    policy,
                    BITSTREAM_BYTES,
                )
                .expect("first reconfig");
            recovery_cycles = done - started;
            reconfigured = true;
        }
        if reconfigured && !rewired && sys.tile(victim).monitor.state() == TileState::Running {
            sys.connect(victim, client, false)
                .expect("re-wire reply path");
            rewired = true;
        }
        if vc.done() && bc.done() {
            break;
        }
    }
    // Preemption downtime from the fault record.
    if policy == FaultPolicy::Preempt {
        if let Some(rec) = sys.tile(victim).faults.first() {
            if let FaultAction::Preempted { downtime } = rec.action {
                recovery_cycles = downtime;
            }
        }
    }
    // Let any stragglers settle, and let an in-flight reconfiguration
    // land so the tile's final state reflects the recovery.
    drive(&mut sys, &mut [&mut vc, &mut bc], 2_000_000);
    if reconfigured && !rewired {
        sys.run(200_000);
    }
    Outcome {
        ok_before_recovery: vc.completed - vc.errors,
        errors: vc.errors,
        recovery_cycles,
        served_total: vc.completed,
        bystander_ok: bc.completed - bc.errors,
        victim_alive_after: sys.tile(victim).monitor.state() == TileState::Running,
        cycles: sys.now().as_u64(),
    }
}

/// Runs the experiment; returns the structured report.
pub fn report(quick: bool) -> ExperimentReport {
    let requests = if quick { 40 } else { 200 };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E8: Fault containment — a service faults on its 10th request under load\n"
    );
    let mut t = TextTable::new(&[
        "policy",
        "ok responses",
        "error responses",
        "recovery (cycles)",
        "bystander ok",
        "tile alive after",
    ]);
    let mut sim_cycles = 0u64;
    let mut metrics = Json::obj().set("requests", requests);
    for (name, policy) in [
        ("fail-stop + reconfigure", FaultPolicy::FailStop),
        ("preempt (context swap)", FaultPolicy::Preempt),
    ] {
        let o = run_policy(policy, requests);
        sim_cycles += o.cycles;
        let key = if policy == FaultPolicy::FailStop {
            "fail_stop"
        } else {
            "preempt"
        };
        metrics.put(
            key,
            Json::obj()
                .set("ok", o.ok_before_recovery)
                .set("errors", o.errors)
                .set("recovery_cycles", o.recovery_cycles)
                .set("bystander_ok", o.bystander_ok)
                .set("tile_alive_after", o.victim_alive_after),
        );
        t.row_owned(vec![
            name.to_string(),
            o.ok_before_recovery.to_string(),
            o.errors.to_string(),
            o.recovery_cycles.to_string(),
            o.bystander_ok.to_string(),
            o.victim_alive_after.to_string(),
        ]);
        assert_eq!(
            o.bystander_ok, requests,
            "containment violated: bystander lost requests"
        );
        let _ = o.served_total;
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "Reading: fail-stop answers every request during the outage with an error and\n\
         pays a bitstream-load recovery (~{} cycles at 4 B/cycle for a 512 KiB partial\n\
         bitstream); preemption recovers in tens of cycles and keeps the tile's state.\n\
         In both cases the bystander application never loses a request — faults do not\n\
         propagate past the monitor (§4.4's fail-stop guarantee).",
        BITSTREAM_BYTES / 4
    );
    ExperimentReport::new(
        "E8",
        "Fault containment: fail-stop vs preemption under load",
        sim_cycles,
        metrics,
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preemption_recovers_much_faster_than_reconfig() {
        let fs = run_policy(FaultPolicy::FailStop, 30);
        let pr = run_policy(FaultPolicy::Preempt, 30);
        assert!(
            fs.recovery_cycles > pr.recovery_cycles * 100,
            "fail-stop {} vs preempt {}",
            fs.recovery_cycles,
            pr.recovery_cycles
        );
        assert!(pr.victim_alive_after);
        // Fail-stop produced error replies during the outage.
        assert!(fs.errors > 0);
    }

    #[test]
    fn bystander_is_never_affected() {
        let fs = run_policy(FaultPolicy::FailStop, 30);
        assert_eq!(fs.bystander_ok, 30);
    }

    #[test]
    fn report_renders() {
        let out = report(true).rendered;
        assert!(out.contains("fail-stop + reconfigure"));
        assert!(out.contains("preempt (context swap)"));
    }
}
