//! End-to-end cluster tests: remote invocation, gossip convergence,
//! determinism, board-kill failover, link cuts, reconfiguration churn,
//! live migration, and the request-deadline queue. Every test ends with
//! [`ClusterSystem::check_invariants`].

use apiary_accel::apps::echo::echo;
use apiary_cap::ServiceId;
use apiary_cluster::{drive_clients, ClusterClient, ClusterConfig, ClusterSystem, Completion};
use apiary_core::{AppId, FaultPolicy};
use apiary_net::Workload;
use apiary_noc::NodeId;
use apiary_sim::Cycle;

const KV: ServiceId = ServiceId(40);
const REPLICA_NODE: NodeId = NodeId(5);
const BITSTREAM: u64 = 4096; // 1024 cycles over the default 4 B/cycle ICAP.

fn cluster(boards: u16) -> ClusterSystem {
    ClusterSystem::new(ClusterConfig {
        boards,
        ..ClusterConfig::default()
    })
}

fn deploy_echo(c: &mut ClusterSystem, board: u16, cost: u64) {
    let displaced = c
        .deploy_replica(
            board,
            "kv",
            KV,
            REPLICA_NODE,
            AppId(1),
            FaultPolicy::FailStop,
            BITSTREAM,
            Box::new(move || Box::new(echo(cost))),
        )
        .expect("deploy");
    assert_eq!(displaced, None, "nothing displaced on a fresh board");
}

fn client(id: u32, origin: u16, mean_interarrival: f64) -> ClusterClient {
    ClusterClient::new(
        id,
        origin,
        "kv",
        64,
        Workload::Open { mean_interarrival },
        1_000 + id as u64,
    )
}

fn run(c: &mut ClusterSystem, clients: &mut [ClusterClient], cycles: u64) {
    for _ in 0..cycles {
        c.tick();
        drive_clients(c, clients);
    }
}

#[test]
fn remote_invocation_round_trip() {
    let mut c = cluster(2);
    // The only replica lives on board 1; the client enters at board 0, so
    // every request crosses the fabric.
    deploy_echo(&mut c, 1, 20);
    let mut clients = [client(1, 0, 400.0)];
    run(&mut c, &mut clients, 30_000);

    let stats = &clients[0].gen.stats;
    assert!(stats.completed > 20, "completions: {stats:?}");
    assert!(c.remote_submitted > 20);
    assert_eq!(c.local_submitted, 0, "no local replica exists");
    // Span events at the origin gateway: a send and a reply per request.
    assert!(c.remote_trace_count(0) >= 2 * (stats.completed - stats.errors));
    // Per-hop breakdown: both fabric hops cost at least the link
    // propagation delay; on-board time is measured separately.
    assert!(c.fabric_out.histogram().count() > 0);
    assert!(c.fabric_out.histogram().min() >= 200);
    assert!(c.fabric_back.histogram().min() >= 200);
    assert!(c.on_board.histogram().count() > 0);
    assert!(c.end_to_end.histogram().count() > 0);
    let e2e_p50 = c.end_to_end.histogram().p50();
    assert!(
        e2e_p50 >= c.fabric_out.histogram().p50() + c.fabric_back.histogram().p50(),
        "end-to-end covers both hops"
    );
    // One remote capability was minted at the origin for (board 1, kv).
    assert_eq!(c.remote_cap_count(0), 1);
    c.check_invariants().unwrap();
}

#[test]
fn gossip_converges_to_every_replica() {
    let mut c = cluster(4);
    for b in 0..4 {
        deploy_echo(&mut c, b, 20);
    }
    // No traffic, just gossip rounds.
    c.run(8_000);
    for b in 0..4 {
        let live = c.directory(b).lookup_all(c.now(), "kv");
        assert_eq!(live.len(), 4, "board {b} sees all replicas");
    }
    c.check_invariants().unwrap();
}

fn fingerprint(boards: u16, cycles: u64) -> String {
    let mut c = cluster(boards);
    for b in 0..boards {
        deploy_echo(&mut c, b, 60);
    }
    let mut clients: Vec<ClusterClient> = (0..boards)
        .map(|b| client(b as u32 + 1, b, 150.0))
        .collect();
    run(&mut c, &mut clients, cycles);
    c.check_invariants().unwrap();
    let mut s = String::new();
    use std::fmt::Write;
    let _ = write!(
        s,
        "local={} remote={} timeouts={} stale={} refused={} revoked={} picks={} e2e=({},{},{})",
        c.local_submitted,
        c.remote_submitted,
        c.timeouts,
        c.stale_replies,
        c.refused,
        c.caps_revoked,
        c.balancer().picks,
        c.end_to_end.histogram().count(),
        c.end_to_end.histogram().p50(),
        c.end_to_end.histogram().p99(),
    );
    for b in 0..boards {
        let _ = write!(s, " t{}={}", b, c.remote_trace_count(b));
    }
    for cl in &clients {
        let _ = write!(
            s,
            " c{}=({},{},{},{})",
            cl.gen.client_id,
            cl.gen.stats.issued,
            cl.gen.stats.completed,
            cl.gen.stats.errors,
            cl.gen.stats.retries,
        );
    }
    s
}

#[test]
fn same_seed_replays_byte_identically() {
    let a = fingerprint(3, 12_000);
    let b = fingerprint(3, 12_000);
    assert_eq!(a, b);
}

#[test]
fn board_kill_fails_over_via_directory() {
    let mut c = cluster(4);
    for b in 0..4 {
        deploy_echo(&mut c, b, 60);
    }
    // Clients on the three boards that will survive.
    let mut clients: Vec<ClusterClient> = (0..3).map(|b| client(b as u32 + 1, b, 200.0)).collect();
    run(&mut c, &mut clients, 10_000);
    let before: u64 = clients.iter().map(|cl| cl.gen.stats.completed).sum();
    assert!(before > 0);

    c.kill_board(3);
    run(&mut c, &mut clients, 30_000);

    // Lease expiry removed the dead board everywhere and revoked any
    // remote caps minted against it.
    for b in 0..3 {
        let live = c.directory(b).lookup_all(c.now(), "kv");
        assert_eq!(live.len(), 3, "board {b} dropped the dead replica");
        assert!(live.iter().all(|e| e.home != 3));
    }
    assert!(c.caps_revoked > 0, "dead board's remote caps were revoked");
    // Traffic kept completing after the kill: requests that timed out
    // against board 3 were retried onto live replicas.
    let after: u64 = clients.iter().map(|cl| cl.gen.stats.completed).sum();
    assert!(
        after > before + 50,
        "completions kept flowing: {before} -> {after}"
    );
    assert!(
        c.timeouts > 0,
        "requests in flight to the dead board timed out"
    );
    c.check_invariants().unwrap();
}

#[test]
fn transient_link_cut_retransmits_and_recovers() {
    let mut c = cluster(2);
    deploy_echo(&mut c, 1, 20);
    let mut clients = [client(1, 0, 300.0)];
    run(&mut c, &mut clients, 6_000);

    c.cut_link(1, None);
    run(&mut c, &mut clients, 3_000);
    c.restore_link(1, None);
    run(&mut c, &mut clients, 20_000);

    assert!(
        c.fabric().stats().retransmissions > 0,
        "ARQ resent frames lost to the cut"
    );
    assert!(c.fabric().stats().cut_drops > 0);
    let stats = &clients[0].gen.stats;
    assert!(
        stats.completed > stats.errors,
        "most traffic survived the cut: {stats:?}"
    );
    c.check_invariants().unwrap();
}

#[test]
fn reconfigure_withdraws_then_republishes() {
    let mut c = cluster(2);
    deploy_echo(&mut c, 1, 20);
    c.run(2_000); // let gossip spread the binding
    assert_eq!(c.directory(0).lookup_all(c.now(), "kv").len(), 1);

    c.reconfigure_replica(1, "kv", Box::new(|| Box::new(echo(10))), BITSTREAM)
        .expect("replica is known");
    // Withdrawn at the home board immediately…
    assert!(c.directory(1).lookup_local(c.now(), "kv").is_none());
    // …and at peers once gossip carries the tombstone.
    c.run(1_000);
    assert!(
        c.directory(0).lookup_all(c.now(), "kv").is_empty(),
        "tombstone propagated"
    );
    // Republished (new version, fresh lease) once the bitstream lands.
    c.run(4_000);
    assert_eq!(c.directory(1).lookup_all(c.now(), "kv").len(), 1);
    assert_eq!(c.directory(0).lookup_all(c.now(), "kv").len(), 1);
    c.check_invariants().unwrap();
}

#[test]
fn churn_during_remote_invocation_recovers() {
    // Regression: reconfiguring the tile under live remote traffic must
    // not wedge the cluster — in-flight invocations error or time out,
    // clients retry, and completions resume after republish.
    let mut c = cluster(2);
    deploy_echo(&mut c, 1, 20);
    c.run(2_000); // gossip warm-up before clients arrive
    let mut clients = [client(1, 0, 250.0)];
    run(&mut c, &mut clients, 8_000);
    let before = clients[0].gen.stats.completed;
    assert!(before > 0);

    c.reconfigure_replica(1, "kv", Box::new(|| Box::new(echo(10))), BITSTREAM)
        .expect("replica is known");
    run(&mut c, &mut clients, 40_000);

    let stats = &clients[0].gen.stats;
    assert!(
        stats.completed > before + 30,
        "service resumed after churn: {before} -> {}",
        stats.completed
    );
    assert!(
        stats.errors > 0 || c.timeouts > 0 || clients[0].no_replica > 0,
        "the churn window was actually observed"
    );
    // The machine drains: no stuck pending requests or fabric frames.
    clients[0].gen.max_requests = 0;
    for _ in 0..30_000 {
        c.tick();
        drive_clients(&mut c, &mut clients);
        if c.quiescent() {
            break;
        }
    }
    assert!(c.quiescent(), "cluster drains after churn");
    c.check_invariants().unwrap();
}

// ---------------------------------------------------------------------
// Checkpoint/restore plane: live migration and warm board-kill recovery.
// ---------------------------------------------------------------------

use apiary_accel::apps::kv::{kv_store, KvStoreAccel};

const TENANT: u64 = 7;

fn deploy_kv(c: &mut ClusterSystem, board: u16) {
    c.deploy_replica(
        board,
        "kv",
        KV,
        REPLICA_NODE,
        AppId(1),
        FaultPolicy::FailStop,
        BITSTREAM,
        Box::new(|| Box::new(kv_store())),
    )
    .expect("deploy kv");
}

fn preload_kv(c: &mut ClusterSystem, board: u16, entries: usize) {
    let accel = c
        .board_mut(board)
        .accel_as_mut::<KvStoreAccel>(REPLICA_NODE)
        .expect("kv replica installed");
    for i in 0..entries {
        let key = format!("key-{i:04}");
        let val = format!("value-{i:04}-{}", "x".repeat(24));
        accel
            .service_mut()
            .insert(TENANT, key.as_bytes(), val.as_bytes());
    }
}

fn kv_retention(c: &ClusterSystem, board: u16, entries: usize) -> usize {
    let accel = c
        .board(board)
        .accel_as::<KvStoreAccel>(REPLICA_NODE)
        .expect("kv replica installed");
    (0..entries)
        .filter(|i| {
            let key = format!("key-{i:04}");
            let val = format!("value-{i:04}-{}", "x".repeat(24));
            accel.service().get(TENANT, key.as_bytes()) == Some(val.as_bytes())
        })
        .count()
}

#[test]
fn live_migration_moves_state_without_cap_churn() {
    let mut c = cluster(2);
    deploy_kv(&mut c, 0);
    preload_kv(&mut c, 0, 50);
    c.run(2_000); // gossip spreads the binding

    // A client on board 1 invokes remotely, minting a remote cap for
    // (board 0, kv).
    let mut clients = [client(1, 1, 300.0)];
    run(&mut c, &mut clients, 6_000);
    let before = clients[0].gen.stats.completed;
    assert!(before > 0, "traffic flowed pre-migration");
    assert_eq!(c.remote_cap_count(1), 1);

    c.migrate_replica("kv", 0, 1, REPLICA_NODE, Box::new(|| Box::new(kv_store())))
        .expect("replica known and both boards alive");
    run(&mut c, &mut clients, 20_000);

    let outcomes = c.migration_outcomes();
    assert_eq!(outcomes.len(), 1, "migration completed");
    let o = &outcomes[0];
    assert!(o.warm, "state restored from the snapshot");
    assert!(o.state_bytes > 0);
    assert!(o.blackout() > 0);
    assert_eq!((o.src, o.dst), (0, 1));
    assert_eq!(c.migrations_in_flight(), 0);
    assert_eq!(c.migrations_failed, 0);

    // Every preloaded entry survived the move.
    assert_eq!(kv_retention(&c, 1, 50), 50, "full retention across boards");
    // The stale remote cap was revoked at finalize; traffic resumed
    // against the new home without the client re-attaching.
    assert_eq!(c.remote_cap_count(1), 0, "old remote cap revoked");
    let after = clients[0].gen.stats.completed;
    assert!(
        after > before,
        "service answers post-migration: {before} -> {after}"
    );
    // The source board no longer serves the name.
    assert!(c.board(0).service_home(KV).is_none());
    assert_eq!(c.board(1).service_home(KV), Some(REPLICA_NODE));
    c.check_invariants().unwrap();
}

#[test]
fn migration_blackout_scales_with_state_size() {
    let blackout = |entries: usize| -> u64 {
        let mut c = cluster(2);
        deploy_kv(&mut c, 0);
        preload_kv(&mut c, 0, entries);
        c.run(2_000);
        c.migrate_replica("kv", 0, 1, REPLICA_NODE, Box::new(|| Box::new(kv_store())))
            .expect("migration starts");
        c.run(30_000);
        let outcomes = c.migration_outcomes();
        assert_eq!(outcomes.len(), 1, "{entries}-entry migration completed");
        assert!(outcomes[0].warm);
        c.check_invariants().unwrap();
        outcomes[0].blackout()
    };
    let small = blackout(10);
    let large = blackout(400);
    assert!(
        large > small,
        "blackout grows with state: {small} vs {large}"
    );
}

#[test]
fn replicated_checkpoint_recovers_warm_after_board_kill() {
    let mut cfg = ClusterConfig {
        boards: 2,
        replicate_checkpoints: true,
        ..ClusterConfig::default()
    };
    cfg.system.supervisor.enabled = true;
    cfg.system.supervisor.checkpoint_interval = 1_000;
    let mut c = ClusterSystem::new(cfg);
    deploy_kv(&mut c, 0);
    preload_kv(&mut c, 0, 40);
    // Several checkpoint intervals and gossip rounds: the newest snapshot
    // replicates to board 1.
    c.run(6_000);
    assert!(c.checkpoints_replicated > 0, "snapshot reached the peer");
    assert!(!c.board(1).checkpoint_store().is_empty());

    c.kill_board(0);
    let warm = c
        .recover_replica(
            1,
            "kv",
            KV,
            REPLICA_NODE,
            AppId(1),
            FaultPolicy::FailStop,
            BITSTREAM,
            Box::new(|| Box::new(kv_store())),
        )
        .expect("spare tile on the peer");
    assert!(warm, "recovery restored the replicated checkpoint");
    c.run(10_000); // bitstream + state through the ICAP, republish

    assert_eq!(
        kv_retention(&c, 1, 40),
        40,
        "board kill recovered warm elsewhere with full retention"
    );
    assert_eq!(c.directory(1).lookup_all(c.now(), "kv").len(), 1);
    c.check_invariants().unwrap();
    // Without replication the peer holds nothing and recovery is cold.
    let mut cold = cluster(2);
    deploy_kv(&mut cold, 0);
    preload_kv(&mut cold, 0, 40);
    cold.run(6_000);
    cold.kill_board(0);
    let warm = cold
        .recover_replica(
            1,
            "kv",
            KV,
            REPLICA_NODE,
            AppId(1),
            FaultPolicy::FailStop,
            BITSTREAM,
            Box::new(|| Box::new(kv_store())),
        )
        .expect("spare tile on the peer");
    assert!(!warm, "no replicated checkpoint: cold restart");
    cold.run(10_000);
    assert_eq!(kv_retention(&cold, 1, 40), 0, "cold restart lost the data");
    cold.check_invariants().unwrap();
}

// ---------------------------------------------------------------------
// Request-deadline queue: cluster timeouts fire at each request's
// newest deadline, once, in tag order.
// ---------------------------------------------------------------------

/// A two-board cluster whose only replica, on board 1, never answers:
/// board 1's links are cut once gossip has spread the binding, so every
/// request from board 0 can only time out.
fn unanswered() -> ClusterSystem {
    let mut c = cluster(2);
    deploy_echo(&mut c, 1, 20);
    c.run(2_000);
    c.cut_link(1, None);
    c
}

fn submit(c: &mut ClusterSystem, tag: u64) {
    assert_eq!(c.submit(0, "kv", tag, vec![0; 8]), Ok((1, REPLICA_NODE)));
}

/// Advances until completions surface, at most `limit` cycles, and
/// returns them with the cycle they surfaced on.
fn next_completions(c: &mut ClusterSystem, limit: u64) -> Option<(Cycle, Vec<Completion>)> {
    let end = c.now() + limit;
    while c.now() < end {
        c.advance_toward(end);
        if c.has_completions() {
            return Some((c.now(), c.take_completions()));
        }
    }
    None
}

fn timed_out(tag: u64) -> Completion {
    Completion {
        origin: 0,
        tag,
        is_error: true,
    }
}

#[test]
fn same_cycle_timeouts_complete_in_tag_order() {
    let timeout = ClusterConfig::default().request_timeout;
    let mut c = unanswered();
    let at = c.now();
    for tag in [30, 10, 20] {
        submit(&mut c, tag);
    }
    let (when, done) = next_completions(&mut c, 2 * timeout).expect("the requests time out");
    assert_eq!(when, at + timeout);
    assert_eq!(done, [timed_out(10), timed_out(20), timed_out(30)]);
    assert_eq!(c.timeouts, 3);
    c.check_invariants().unwrap();
}

#[test]
fn answered_request_never_times_out() {
    let timeout = ClusterConfig::default().request_timeout;
    let mut c = cluster(2);
    deploy_echo(&mut c, 1, 20);
    c.run(2_000);
    let at = c.now();
    submit(&mut c, 7);
    let (when, done) = next_completions(&mut c, timeout).expect("the echo answers");
    assert!(when < at + timeout);
    let ok = Completion {
        origin: 0,
        tag: 7,
        is_error: false,
    };
    assert_eq!(done, [ok]);
    // Its deadline passes with no second completion.
    assert_eq!(next_completions(&mut c, 2 * timeout), None);
    assert_eq!(c.timeouts, 0);
    c.check_invariants().unwrap();
}

#[test]
fn retried_tag_times_out_once_at_its_newest_deadline() {
    let timeout = ClusterConfig::default().request_timeout;
    let mut c = unanswered();
    submit(&mut c, 5);
    c.run(1_000);
    // The resubmit supersedes the attempt still pending; the first
    // attempt's deadline must pass silently.
    let retried_at = c.now();
    submit(&mut c, 5);
    c.check_invariants().unwrap();
    let (when, done) = next_completions(&mut c, 2 * timeout).expect("the retry times out");
    assert_eq!(when, retried_at + timeout);
    assert_eq!(done, [timed_out(5)]);
    assert_eq!(next_completions(&mut c, 2 * timeout), None);
    assert_eq!(c.timeouts, 1);
    assert_eq!(c.balancer().total_in_flight(), 0);
    c.check_invariants().unwrap();
}

#[test]
fn same_tag_twice_in_one_cycle_times_out_once() {
    let timeout = ClusterConfig::default().request_timeout;
    let mut c = unanswered();
    let at = c.now();
    submit(&mut c, 9);
    submit(&mut c, 9);
    c.check_invariants().unwrap();
    let (when, done) = next_completions(&mut c, 2 * timeout).expect("the request times out");
    assert_eq!(when, at + timeout);
    assert_eq!(done, [timed_out(9)]);
    assert_eq!(c.timeouts, 1);
    c.check_invariants().unwrap();
}
