//! Dense-vs-event clock equivalence under random workloads.
//!
//! The event core's contract (`DESIGN.md` §"Event-driven clock") is that
//! skipping idle cycles is an invisible optimisation: every statistic a
//! workload can observe — counts, latencies, end cycles — must match a
//! dense per-cycle run byte for byte. These tests generate random
//! client/server workloads (window sizes, think times, payload sizes,
//! request timeouts, service costs), run each under both clocks, and
//! compare the resulting [`ExperimentReport`] digests.
//!
//! The clock mode is process-global, so every test here serialises on one
//! mutex and restores [`ClockMode::Event`] (the default) before returning.

use apiary_accel::apps::echo::echo;
use apiary_accel::apps::idle::idle;
use apiary_bench::scenarios::{drive, MonitorClient};
use apiary_bench::{ExperimentReport, Json};
use apiary_core::{AppId, FaultPolicy, System, SystemConfig};
use apiary_noc::NodeId;
use apiary_sim::{set_clock_mode, ClockMode};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serialises tests in this binary: the clock mode is process-global.
static CLOCK: Mutex<()> = Mutex::new(());

#[derive(Debug, Clone)]
struct ClientParams {
    payload: usize,
    outstanding: u32,
    think: u64,
    max_requests: u64,
    timeout: u64,
}

#[derive(Debug, Clone)]
struct Params {
    echo_cost: u64,
    clients: Vec<ClientParams>,
}

fn arb_client() -> impl Strategy<Value = ClientParams> {
    (
        1usize..200,
        1u32..6,
        0u64..40,
        1u64..50,
        // 0 = wait forever; small timeouts exercise abandonment racing
        // the reply, large ones never fire on an echo service.
        prop_oneof![Just(0u64), 60u64..5_000],
    )
        .prop_map(
            |(payload, outstanding, think, max_requests, timeout)| ClientParams {
                payload,
                outstanding,
                think,
                max_requests,
                timeout,
            },
        )
}

fn arb_params() -> impl Strategy<Value = Params> {
    (0u64..80, prop::collection::vec(arb_client(), 1..3))
        .prop_map(|(echo_cost, clients)| Params { echo_cost, clients })
}

/// Runs the workload under `mode` and returns a deterministic digest of
/// everything a client can observe.
fn run_system(mode: ClockMode, p: &Params) -> String {
    set_clock_mode(mode);
    let spots = [(NodeId(0), NodeId(5)), (NodeId(3), NodeId(6))];
    let mut sys = System::new(SystemConfig::default());
    let mut clients: Vec<MonitorClient> = Vec::new();
    for (i, cp) in p.clients.iter().enumerate() {
        let (cn, sn) = spots[i];
        let app = AppId(i as u32 + 1);
        sys.install(cn, Box::new(idle()), app, FaultPolicy::FailStop)
            .expect("client slot free");
        sys.install(sn, Box::new(echo(p.echo_cost)), app, FaultPolicy::FailStop)
            .expect("server slot free");
        let cap = sys.connect(cn, sn, false).expect("same app");
        sys.connect(sn, cn, false).expect("reply path");
        let mut c = MonitorClient::new(cn, cap, cp.payload).max_requests(cp.max_requests);
        c.outstanding = cp.outstanding;
        c.think = cp.think;
        c.timeout = cp.timeout;
        c.tag_base = (i as u64) << 48;
        clients.push(c);
    }
    let mut refs: Vec<&mut MonitorClient> = clients.iter_mut().collect();
    let consumed = drive(&mut sys, &mut refs, 400_000);
    let mut metrics = Json::obj()
        .set("cycles_consumed", consumed)
        .set("end_cycle", sys.now().as_u64());
    for (i, c) in clients.iter().enumerate() {
        metrics = metrics.set(
            format!("client{i}"),
            Json::obj()
                .set("issued", c.issued)
                .set("completed", c.completed)
                .set("errors", c.errors)
                .set("refused", c.refused)
                .set("lost", c.lost)
                .set("rtt_p50", c.rtt.p50())
                .set("rtt_p99", c.rtt.p99()),
        );
    }
    ExperimentReport::new(
        "PROP",
        "dense-vs-event equivalence",
        sys.now().as_u64(),
        metrics,
        String::new(),
    )
    .deterministic_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dense_and_event_clocks_agree(p in arb_params()) {
        let _guard = CLOCK.lock().unwrap();
        let event = run_system(ClockMode::Event, &p);
        let dense = run_system(ClockMode::Dense, &p);
        set_clock_mode(ClockMode::Event);
        prop_assert_eq!(event, dense);
    }
}

/// The cluster path (fabric ARQ, gossip, request timeouts, chaos windows)
/// must agree too — E17's link-cut cell end to end under both clocks.
#[test]
fn cluster_cell_clocks_agree() {
    use apiary_bench::experiments::e17_cluster_scaleout::{run_one, Chaos};
    let _guard = CLOCK.lock().unwrap();
    let run = |mode| {
        set_clock_mode(mode);
        format!("{:?}", run_one(2, Chaos::CutLink, 6_000))
    };
    let event = run(ClockMode::Event);
    let dense = run(ClockMode::Dense);
    set_clock_mode(ClockMode::Event);
    assert_eq!(event, dense, "cluster cell diverged between clocks");
}

/// A live migration (quiesce deadline, fabric snapshot transfer, ICAP
/// restore, republish) lands on identical cycles under both clocks.
#[test]
fn live_migration_clocks_agree() {
    use apiary_accel::apps::kv::{kv_store, KvStoreAccel};
    use apiary_cap::ServiceId;
    use apiary_cluster::{ClusterConfig, ClusterSystem};

    let _guard = CLOCK.lock().unwrap();
    let run = |mode| {
        set_clock_mode(mode);
        let mut c = ClusterSystem::new(ClusterConfig {
            boards: 2,
            ..ClusterConfig::default()
        });
        c.deploy_replica(
            0,
            "kv",
            ServiceId(40),
            NodeId(5),
            AppId(1),
            FaultPolicy::FailStop,
            4096,
            Box::new(|| Box::new(kv_store())),
        )
        .expect("deploy kv");
        let accel = c
            .board_mut(0)
            .accel_as_mut::<KvStoreAccel>(NodeId(5))
            .expect("installed");
        for i in 0..80u32 {
            let key = i.to_le_bytes();
            accel.service_mut().insert(7, &key, &[0xAB; 32]);
        }
        c.run(2_000);
        c.migrate_replica("kv", 0, 1, NodeId(5), Box::new(|| Box::new(kv_store())))
            .expect("migration starts");
        c.run(30_000);
        format!(
            "{:?} kv_len={}",
            c.migration_outcomes(),
            c.board(1)
                .accel_as::<KvStoreAccel>(NodeId(5))
                .map_or(0, |a| a.service().len())
        )
    };
    let event = run(ClockMode::Event);
    let dense = run(ClockMode::Dense);
    set_clock_mode(ClockMode::Event);
    assert_eq!(event, dense, "migration diverged between clocks");
}

/// The serverless plane (bitstream fetch timers, queue deadlines,
/// autoscale boundaries, scale-to-zero reclaims) must agree too: a burst,
/// an idle window deep enough to reclaim, and a cold re-invoke land on
/// identical cycles under both clocks.
#[test]
fn serverless_plane_clocks_agree() {
    use apiary_cluster::ClusterConfig;
    use apiary_faas::{FaasConfig, FaasSystem, FunctionSpec};
    use apiary_resources::Area;
    use std::rc::Rc;

    let _guard = CLOCK.lock().unwrap();
    let run = |mode| {
        set_clock_mode(mode);
        let mut s = FaasSystem::new(FaasConfig {
            cluster: ClusterConfig {
                boards: 2,
                ..ClusterConfig::default()
            },
            autoscale_interval: 1_000,
            idle_intervals_to_zero: 2,
            ..FaasConfig::default()
        });
        for (name, luts, bytes) in [("f", 60_000u64, 4_096u64), ("g", 90_000, 6_000)] {
            s.register(FunctionSpec {
                name: name.to_string(),
                footprint: Area::logic(luts, luts),
                bitstream_bytes: bytes,
                app: AppId(1),
                factory: Rc::new(|| Box::new(echo(40))),
            });
        }
        for i in 0u32..20 {
            s.invoke((i % 3 == 0) as usize, i % 2, (i % 2) as u16, vec![0u8; 24]);
            s.run(211);
        }
        s.run_until(200_000, |s| s.quiescent());
        s.run(8_000); // idle across reclaim boundaries → scale to zero
        s.invoke(0, 0, 0, vec![0u8; 24]); // cold re-invoke
        s.run_until(200_000, |s| s.quiescent());
        format!(
            "{:?}|{:?}|{}|{}|{:?}",
            s.stats(0),
            s.stats(1),
            s.cold_latency.histogram().p99(),
            s.warm_latency.histogram().p99(),
            s.now()
        )
    };
    let event = run(ClockMode::Event);
    let dense = run(ClockMode::Dense);
    set_clock_mode(ClockMode::Event);
    assert_eq!(event, dense, "serverless plane diverged between clocks");
}

/// A lossy 4-board serverless cell: 0.1% frame loss on every link of the
/// star (so the ToR switches every remote frame), a cluster request
/// timeout short enough that lost frames turn into cluster timeouts, and
/// an idle window deep enough to scale every pool to zero before a cold
/// re-invoke. Every finished record, the fabric counters and each board's
/// directory counters must match under both clocks.
#[test]
fn lossy_serverless_cell_clocks_agree() {
    use apiary_cluster::{ClusterConfig, FabricConfig, LinkConfig};
    use apiary_faas::{FaasConfig, FaasSystem, FunctionSpec};
    use apiary_resources::Area;
    use apiary_sim::SimRng;
    use std::rc::Rc;

    const BOARDS: u16 = 4;
    let _guard = CLOCK.lock().unwrap();
    let run = |mode| {
        set_clock_mode(mode);
        let mut s = FaasSystem::new(FaasConfig {
            cluster: ClusterConfig {
                boards: BOARDS,
                fabric: FabricConfig {
                    link: LinkConfig {
                        loss: 0.001,
                        arq_timeout: 800,
                        ..LinkConfig::default()
                    },
                    seed: 0x1055,
                    ..FabricConfig::default()
                },
                request_timeout: 1_200,
                ..ClusterConfig::default()
            },
            autoscale_interval: 1_000,
            idle_intervals_to_zero: 2,
            ..FaasConfig::default()
        });
        for (i, (luts, bytes)) in [(60_000u64, 4_096u64), (80_000, 5_000), (90_000, 6_000)]
            .into_iter()
            .enumerate()
        {
            s.register(FunctionSpec {
                name: format!("f{i}"),
                footprint: Area::logic(luts, luts),
                bitstream_bytes: bytes,
                app: AppId(1 + i as u32),
                factory: Rc::new(|| Box::new(echo(40))),
            });
        }
        let mut rng = SimRng::new(11);
        let mut finished = Vec::new();
        for i in 0u32..400 {
            let f = [0, 0, 0, 1, 1, 2][rng.gen_range(6) as usize];
            s.invoke(f, i % 2, (i % u32::from(BOARDS)) as u16, vec![0u8; 24]);
            s.run(1 + rng.gen_range(120));
            finished.extend(s.take_finished());
        }
        s.run_until(200_000, |s| s.quiescent());
        s.run(8_000); // idle across reclaim boundaries → scale to zero
        let zeroed = (0..3).all(|f| s.live_replicas(f) == 0);
        s.invoke(2, 0, 3, vec![0u8; 24]); // cold re-invoke
        s.run_until(200_000, |s| s.quiescent());
        finished.extend(s.take_finished());
        s.check_invariants()
            .expect("faas and cluster invariants hold");
        let c = s.cluster();
        let dirs: Vec<(u64, u64, u64)> = (0..BOARDS)
            .map(|b| {
                let d = c.directory(b);
                (d.displaced, d.merged_in, d.expired)
            })
            .collect();
        let stats: Vec<_> = (0..3).map(|f| s.stats(f)).collect();
        let digest = format!(
            "{finished:?}|{:?}|{dirs:?}|timeouts={}|{stats:?}|{:?}",
            c.fabric().stats(),
            c.timeouts,
            s.now()
        );
        (digest, c.timeouts, c.fabric().stats().loss_drops, zeroed)
    };
    let event = run(ClockMode::Event);
    let dense = run(ClockMode::Dense);
    set_clock_mode(ClockMode::Event);
    let (_, timeouts, loss_drops, zeroed) = &event;
    assert!(*timeouts > 0, "cluster timeouts fired");
    assert!(*loss_drops > 0, "the loss model fired");
    assert!(*zeroed, "every pool scaled to zero before the re-invoke");
    assert_eq!(
        event, dense,
        "lossy serverless cell diverged between clocks"
    );
}
