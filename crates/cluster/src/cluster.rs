//! [`ClusterSystem`]: N boards, one fabric, one global directory.
//!
//! Each board is a full [`System`] with a **gateway tile** — an idle
//! accelerator slot whose monitor the cluster kernel drives directly, the
//! same pattern the bench harness uses for external clients. The gateway
//! is both the board's ingress (remote invocations arrive here and are
//! forwarded to the local replica over a normal capability send) and its
//! egress proxy (local clients' remote invocations leave here).
//!
//! **Remote capability invocation.** When the directory steers a request
//! to another board, the kernel mints a [`CapKind::Remote`] capability at
//! the origin gateway — board id plus service id. A monitor cannot route
//! it (there is no local node to resolve), which is the point: the *only*
//! path for a remote cap is the egress proxy, which checks SEND rights on
//! the cap table like any other send, then frames the invocation onto the
//! fabric. Lease expiry revokes the cap, so authority over a vanished
//! board's services does not outlive the directory's knowledge of them.
//! The client keeps the retry/backoff and circuit breaker it already had
//! ([`apiary_net::RequestGen`]): a remote invocation that times out is
//! completed as an error, retried with backoff, and re-balanced — usually
//! onto a different replica.
//!
//! **Determinism.** Boards tick in index order, the fabric in link-key
//! order, directories and balancer state live in `BTreeMap`s, and every
//! random draw comes from seeded [`apiary_sim::SimRng`] streams. The same
//! config and seed replay byte-identically at any host parallelism — E17's
//! CI check.

use crate::balancer::Balancer;
use crate::directory::Directory;
use crate::fabric::{Body, ClusterMsg, Fabric, FabricConfig};
use apiary_accel::apps::idle::idle;
use apiary_cap::{CapKind, CapRef, Capability, Rights, ServiceId};
use apiary_core::process::OS_APP;
use apiary_core::supervisor::AccelFactory;
use apiary_core::{AppId, FaultPolicy, Snapshot, System, SystemConfig, SystemError};
use apiary_monitor::wire::{KIND_ERROR, KIND_REQUEST};
use apiary_net::{BreakerConfig, BreakerState, RequestGen, RetryPolicy, Workload};
use apiary_noc::{NodeId, TrafficClass};
use apiary_sim::{clock_mode, ClockMode, Cycle};
use apiary_trace::{EventKind, LatencyTracker};
use std::collections::{BTreeMap, VecDeque};

/// High bit marks gateway-local ingress tags, so a board can tell replies
/// to forwarded remote work from replies to its own clients' local work.
/// Client tags are `client_id << 32 | seq` with 32-bit ids, so the spaces
/// cannot collide.
const INGRESS_BIT: u64 = 1 << 63;

/// Cluster configuration.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of boards.
    pub boards: u16,
    /// Per-board system configuration (every board is identical).
    pub system: SystemConfig,
    /// Inter-board network.
    pub fabric: FabricConfig,
    /// Which node on each board is the gateway tile.
    pub gateway: NodeId,
    /// Cycles between gossip rounds.
    pub gossip_interval: u64,
    /// Directory lease, cycles. Must comfortably exceed
    /// `gossip_interval × boards` or healthy entries flap.
    pub lease: u64,
    /// Cluster-level request timeout: a request with no reply after this
    /// many cycles is completed as an error (feeding the client's retry
    /// policy and breaker).
    pub request_timeout: u64,
    /// Seed for the balancer's RNG.
    pub seed: u64,
    /// Cycles a live migration quiesces at the source before the state
    /// snapshot is taken. The withdrawn directory entry steers new work
    /// away as the tombstone gossips; the window lets in-flight
    /// invocations drain while the replica is still serving.
    pub migration_quiesce: u64,
    /// Push each service's newest checkpoint to a peer board every gossip
    /// round, so a board kill can recover warm elsewhere
    /// ([`ClusterSystem::recover_replica`]).
    pub replicate_checkpoints: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            boards: 2,
            system: SystemConfig::default(),
            fabric: FabricConfig::default(),
            gateway: NodeId(0),
            gossip_interval: 500,
            lease: 6_000,
            request_timeout: 4_000,
            seed: 0xC105_7E12,
            migration_quiesce: 600,
            replicate_checkpoints: false,
        }
    }
}

/// Why a submit was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// No live replica in the origin board's directory view.
    NoReplica,
    /// The origin board is dead (its NIC went with it).
    OriginDead,
    /// The gateway monitor refused the send (backpressure, rate limit, or
    /// a capability failure).
    Refused,
}

/// A finished request, surfaced to whichever client issued the tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Board whose client issued the request.
    pub origin: u16,
    /// The client's correlation tag.
    pub tag: u64,
    /// Error reply, refused send, or timeout.
    pub is_error: bool,
}

#[derive(Clone)]
struct ReplicaMeta {
    service: ServiceId,
    node: NodeId,
    app: AppId,
    policy: FaultPolicy,
    bitstream_bytes: u64,
}

struct Republish {
    name: String,
    meta: ReplicaMeta,
}

struct Ingress {
    src: u16,
    tag: u64,
}

struct Pending {
    origin: u16,
    target: (u16, NodeId),
    deadline: Cycle,
}

/// Phase of an in-flight live migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MigPhase {
    /// Source entry withdrawn; draining until the snapshot cycle.
    Quiesce { until: Cycle },
    /// Snapshot serialized onto the fabric; source already decommissioned.
    Transfer,
    /// Destination loading bitstream + state through the ICAP, awaiting
    /// republish.
    Restore,
}

/// One live migration in flight.
struct Migration {
    name: String,
    service: ServiceId,
    src: u16,
    dst: u16,
    dst_node: NodeId,
    app: AppId,
    policy: FaultPolicy,
    bitstream_bytes: u64,
    /// Consumed at restore; the same factory then seeds the destination
    /// supervisor's spec for future cold restarts.
    factory: Option<AccelFactory>,
    started_at: Cycle,
    snapshot_at: Cycle,
    state_bytes: u64,
    warm: bool,
    phase: MigPhase,
}

/// A completed live migration, with its measured phase boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationOutcome {
    /// Migrated service name.
    pub name: String,
    /// Its registry id.
    pub service: ServiceId,
    /// Source board.
    pub src: u16,
    /// Destination board.
    pub dst: u16,
    /// Serialized architectural state moved, bytes.
    pub state_bytes: u64,
    /// Cycle the migration was requested (source entry withdrawn).
    pub started_at: Cycle,
    /// Cycle the source stopped serving (snapshot taken, tile freed).
    pub snapshot_at: Cycle,
    /// Cycle the destination replica was republished and answering.
    pub restored_at: Cycle,
    /// `true` if the destination restored the snapshot (vs cold fallback).
    pub warm: bool,
}

impl MigrationOutcome {
    /// Cycles with no live replica: source down → destination republished.
    pub fn blackout(&self) -> u64 {
        self.restored_at - self.snapshot_at
    }
}

struct Board {
    sys: System,
    dir: Directory,
    alive: bool,
    /// Gateway caps to local replicas, by service id (from `attach_client`,
    /// so they survive supervisor restarts and migrations).
    local_caps: BTreeMap<u32, CapRef>,
    /// Gateway caps for remote invocation, by `(board, service)`.
    remote_caps: BTreeMap<(u16, u32), CapRef>,
    /// Forwarded remote work in flight on this board, by local ingress tag.
    ingress: BTreeMap<u64, Ingress>,
    /// Locally deployed replicas, by name.
    replicas: BTreeMap<String, ReplicaMeta>,
    /// Reconfigurations whose directory entry awaits republish.
    republish: Vec<Republish>,
    /// When this board's kernel phases next come due, as read by the
    /// event clock's `next_due` for the step that follows it.
    phase_due: Cycle,
}

impl Board {
    /// Points the `local_caps` entry for `service` at `cap`, or clears it,
    /// and revokes the gateway cap it replaces: the map must mirror exactly
    /// the live `Service` caps in the gateway's table, or every replaced
    /// entry leaks one of the gateway's cap slots.
    fn set_local_cap(&mut self, gw: NodeId, service: u32, cap: Option<CapRef>) {
        let stale = match cap {
            Some(cap) => self.local_caps.insert(service, cap),
            None => self.local_caps.remove(&service),
        };
        if let Some(stale) = stale {
            let _ = self.sys.tile_mut(gw).monitor.revoke_cap(stale);
        }
    }
}

/// The multi-board machine.
pub struct ClusterSystem {
    cfg: ClusterConfig,
    ticks: u64,
    boards: Vec<Board>,
    fabric: Fabric,
    balancer: Balancer,
    pending: BTreeMap<u64, Pending>,
    /// Request deadlines in submit order, which is deadline order because
    /// `request_timeout` is fixed. An entry is live while its tag is
    /// pending with that deadline; a reply or a resubmit of the tag leaves
    /// it stale, and the timeout pass drops stale entries as they reach the
    /// front. Every pending request has exactly one live entry.
    deadlines: VecDeque<(Cycle, u64)>,
    completions: Vec<Completion>,
    next_ingress: u64,
    /// Origin gateway → target-board ingress (outbound fabric hop).
    pub fabric_out: LatencyTracker,
    /// Target-board ingress → local replica reply (on-board time).
    pub on_board: LatencyTracker,
    /// Target-board reply → origin gateway (return fabric hop).
    pub fabric_back: LatencyTracker,
    /// Submit → successful completion, local and remote alike.
    pub end_to_end: LatencyTracker,
    /// Requests completed as errors by the cluster-level timeout.
    pub timeouts: u64,
    /// Fabric deliveries dropped because the destination board was dead.
    pub dead_board_drops: u64,
    /// Replies with no pending request (late replies to timed-out work).
    pub stale_replies: u64,
    /// Submits steered to the origin board itself.
    pub local_submitted: u64,
    /// Submits forwarded over the fabric.
    pub remote_submitted: u64,
    /// Submits the gateway monitor refused.
    pub refused: u64,
    /// Remote capabilities revoked on lease expiry.
    pub caps_revoked: u64,
    /// Live migrations aborted (board died, service could not snapshot,
    /// or the destination refused the restore).
    pub migrations_failed: u64,
    /// Checkpoints adopted from a peer via fabric replication.
    pub checkpoints_replicated: u64,
    /// In-flight migrations, by service id.
    migrations: BTreeMap<u32, Migration>,
    /// Completed migrations, in completion order.
    migrations_done: Vec<MigrationOutcome>,
    /// Highest checkpoint sequence replicated, per (home board, service).
    replicated_seq: BTreeMap<(u16, u32), u64>,
}

impl ClusterSystem {
    /// Builds the cluster: `boards` identical systems, a gateway installed
    /// on each, and the fabric between them.
    pub fn new(cfg: ClusterConfig) -> ClusterSystem {
        let mut boards = Vec::with_capacity(cfg.boards as usize);
        for b in 0..cfg.boards {
            let mut sys = System::new(cfg.system.clone());
            sys.install(cfg.gateway, Box::new(idle()), OS_APP, FaultPolicy::FailStop)
                .expect("gateway tile is free on a fresh board");
            boards.push(Board {
                sys,
                dir: Directory::new(b, cfg.lease),
                alive: true,
                local_caps: BTreeMap::new(),
                remote_caps: BTreeMap::new(),
                ingress: BTreeMap::new(),
                replicas: BTreeMap::new(),
                republish: Vec::new(),
                phase_due: Cycle::ZERO,
            });
        }
        let fabric = Fabric::new(cfg.boards, cfg.fabric);
        let balancer = Balancer::new(cfg.seed);
        ClusterSystem {
            cfg,
            ticks: 0,
            boards,
            fabric,
            balancer,
            pending: BTreeMap::new(),
            deadlines: VecDeque::new(),
            completions: Vec::new(),
            next_ingress: 0,
            fabric_out: LatencyTracker::new(),
            on_board: LatencyTracker::new(),
            fabric_back: LatencyTracker::new(),
            end_to_end: LatencyTracker::new(),
            timeouts: 0,
            dead_board_drops: 0,
            stale_replies: 0,
            local_submitted: 0,
            remote_submitted: 0,
            refused: 0,
            caps_revoked: 0,
            migrations_failed: 0,
            checkpoints_replicated: 0,
            migrations: BTreeMap::new(),
            migrations_done: Vec::new(),
            replicated_seq: BTreeMap::new(),
        }
    }

    /// Current cycle (all live boards tick in lockstep).
    pub fn now(&self) -> Cycle {
        Cycle(self.ticks)
    }

    /// One board's system.
    pub fn board(&self, b: u16) -> &System {
        &self.boards[b as usize].sys
    }

    /// One board's system, mutably (chaos injection, inspection).
    pub fn board_mut(&mut self, b: u16) -> &mut System {
        &mut self.boards[b as usize].sys
    }

    /// One board's directory view.
    pub fn directory(&self, b: u16) -> &Directory {
        &self.boards[b as usize].dir
    }

    /// The inter-board network.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The replica balancer.
    pub fn balancer(&self) -> &Balancer {
        &self.balancer
    }

    /// Whether a board is alive.
    pub fn alive(&self, b: u16) -> bool {
        self.boards[b as usize].alive
    }

    /// Remote capabilities currently held at a board's gateway.
    pub fn remote_cap_count(&self, b: u16) -> usize {
        self.boards[b as usize].remote_caps.len()
    }

    /// Completed live migrations, in completion order.
    pub fn migration_outcomes(&self) -> &[MigrationOutcome] {
        &self.migrations_done
    }

    /// Live migrations currently in flight.
    pub fn migrations_in_flight(&self) -> usize {
        self.migrations.len()
    }

    /// Count of `Remote` trace events recorded at a board's gateway.
    pub fn remote_trace_count(&self, b: u16) -> u64 {
        self.boards[b as usize]
            .sys
            .tile(self.cfg.gateway)
            .monitor
            .tracer()
            .count(&EventKind::Remote {
                phase: "",
                board: 0,
                tag: 0,
            })
    }

    /// Deploys one replica of a named service: installs it under the
    /// board's supervisor, wires the gateway as a client (the wiring
    /// survives restarts and migrations), and publishes the binding in the
    /// board's directory — gossip does the rest. Returns the displaced
    /// binding if the name was already published here.
    #[allow(clippy::too_many_arguments)]
    pub fn deploy_replica(
        &mut self,
        board: u16,
        name: &str,
        service: ServiceId,
        node: NodeId,
        app: AppId,
        policy: FaultPolicy,
        bitstream_bytes: u64,
        factory: AccelFactory,
    ) -> Result<Option<(ServiceId, NodeId)>, SystemError> {
        let now = self.now();
        let b = &mut self.boards[board as usize];
        b.sys
            .deploy_service(service, node, app, policy, bitstream_bytes, factory)?;
        let cap = b.sys.attach_client(self.cfg.gateway, service)?;
        b.local_caps.insert(service.0, cap);
        b.replicas.insert(
            name.to_string(),
            ReplicaMeta {
                service,
                node,
                app,
                policy,
                bitstream_bytes,
            },
        );
        Ok(b.dir.publish(now, name, service, node))
    }

    /// Reconfigures the tile hosting a locally published replica:
    /// **withdraw-then-republish**. The directory entry is tombstoned
    /// before the bitstream starts loading (peers steer new work away as
    /// gossip spreads), and republished — with the gateway re-wired — only
    /// once the new accelerator is online. In-flight invocations against
    /// the tile get monitor error replies and re-balance through the
    /// client retry path.
    pub fn reconfigure_replica(
        &mut self,
        board: u16,
        name: &str,
        factory: AccelFactory,
        bitstream_bytes: u64,
    ) -> Result<(), SystemError> {
        let now = self.now();
        let b = &mut self.boards[board as usize];
        let meta = b
            .replicas
            .get(name)
            .cloned()
            .ok_or(SystemError::BadNode(NodeId(u16::MAX)))?;
        b.dir.withdraw(now, name);
        b.sys
            .reconfigure(meta.node, factory(), meta.app, meta.policy, bitstream_bytes)?;
        b.republish.push(Republish {
            name: name.to_string(),
            meta,
        });
        Ok(())
    }

    /// Starts a live migration of the named replica from `src` to a free
    /// tile on `dst`: **withdraw → quiesce → snapshot → transfer → restore
    /// → republish**. The source keeps serving through the quiesce window
    /// (new work is steered away as the withdrawal tombstone gossips),
    /// then stops at the snapshot cycle; the blackout ends when the
    /// destination replica is republished. Client capabilities survive the
    /// move: naming is late-bound, so the same service name simply
    /// resolves to the new home — no client re-attach.
    pub fn migrate_replica(
        &mut self,
        name: &str,
        src: u16,
        dst: u16,
        dst_node: NodeId,
        factory: AccelFactory,
    ) -> Result<(), SystemError> {
        let now = self.now();
        let bad = || SystemError::BadNode(NodeId(u16::MAX));
        if src == dst || !self.boards[src as usize].alive || !self.boards[dst as usize].alive {
            return Err(bad());
        }
        let meta = self.boards[src as usize]
            .replicas
            .get(name)
            .cloned()
            .ok_or_else(bad)?;
        if self.migrations.contains_key(&meta.service.0) {
            return Err(bad());
        }
        self.boards[src as usize].dir.withdraw(now, name);
        let gw = self.cfg.gateway;
        self.boards[src as usize]
            .sys
            .tile_mut(gw)
            .monitor
            .tracer_mut()
            .record(
                now,
                gw.0,
                EventKind::Remote {
                    phase: "migrate-quiesce",
                    board: dst,
                    tag: meta.service.0 as u64,
                },
            );
        self.migrations.insert(
            meta.service.0,
            Migration {
                name: name.to_string(),
                service: meta.service,
                src,
                dst,
                dst_node,
                app: meta.app,
                policy: meta.policy,
                bitstream_bytes: meta.bitstream_bytes,
                factory: Some(factory),
                started_at: now,
                snapshot_at: now,
                state_bytes: 0,
                warm: false,
                phase: MigPhase::Quiesce {
                    until: now + self.cfg.migration_quiesce,
                },
            },
        );
        Ok(())
    }

    /// Redeploys a replica on `board` from a checkpoint previously adopted
    /// over the fabric ([`ClusterConfig::replicate_checkpoints`]): warm if
    /// a verified snapshot of `service` is held, cold (factory-fresh)
    /// otherwise. The restore is priced through the ICAP like any
    /// reconfiguration — bitstream plus restored state. Returns whether
    /// the recovery was warm.
    #[allow(clippy::too_many_arguments)]
    pub fn recover_replica(
        &mut self,
        board: u16,
        name: &str,
        service: ServiceId,
        node: NodeId,
        app: AppId,
        policy: FaultPolicy,
        bitstream_bytes: u64,
        factory: AccelFactory,
    ) -> Result<bool, SystemError> {
        let b = &mut self.boards[board as usize];
        let state = b
            .sys
            .checkpoint_store_mut()
            .latest(service.0)
            .map(|s| s.state.clone());
        let mut accel = factory();
        let mut warm_bytes = 0u64;
        let warm = match state {
            Some(s) if accel.restore_state(&s).is_ok() => {
                warm_bytes = s.len() as u64;
                true
            }
            _ => false,
        };
        if !warm {
            // Never deploy a half-restored instance: rebuild fresh.
            accel = factory();
        }
        b.sys
            .reconfigure(node, accel, app, policy, bitstream_bytes + warm_bytes)?;
        if warm {
            b.sys.checkpoint_store_mut().warm_restores += 1;
        }
        b.sys
            .adopt_service(service, node, app, policy, bitstream_bytes, factory);
        let meta = ReplicaMeta {
            service,
            node,
            app,
            policy,
            bitstream_bytes,
        };
        b.replicas.insert(name.to_string(), meta.clone());
        b.republish.push(Republish {
            name: name.to_string(),
            meta,
        });
        Ok(warm)
    }

    /// Deploys a function replica into a warm-pool slot. Unlike
    /// [`ClusterSystem::deploy_replica`] (instantaneous install, used to
    /// seed experiments), the bitstream is priced through the ICAP like any
    /// partial reconfiguration, and the directory entry is published — with
    /// the gateway wired as a client — only once the tile is back online
    /// (via the republish queue). Returns the cycle the reconfiguration
    /// completes: the fabric-level share of the orchestrator's cold start.
    #[allow(clippy::too_many_arguments)]
    pub fn pool_deploy(
        &mut self,
        board: u16,
        name: &str,
        service: ServiceId,
        node: NodeId,
        app: AppId,
        policy: FaultPolicy,
        bitstream_bytes: u64,
        factory: AccelFactory,
    ) -> Result<Cycle, SystemError> {
        let b = &mut self.boards[board as usize];
        if !b.alive {
            return Err(SystemError::BadNode(node));
        }
        let done = b
            .sys
            .reconfigure(node, factory(), app, policy, bitstream_bytes)?;
        b.sys
            .adopt_service(service, node, app, policy, bitstream_bytes, factory);
        let meta = ReplicaMeta {
            service,
            node,
            app,
            policy,
            bitstream_bytes,
        };
        b.replicas.insert(name.to_string(), meta.clone());
        b.republish.push(Republish {
            name: name.to_string(),
            meta,
        });
        Ok(done)
    }

    /// Tears down a pooled replica (scale-to-zero): the directory entry is
    /// withdrawn with a **tombstone** — a version bump a stale peer
    /// snapshot cannot out-rank, so the binding stays dead cluster-wide —
    /// the tile is decommissioned, the gateway's local cap dropped, and
    /// every live board's remote cap against the binding proactively
    /// revoked. Refused while the tile's bitstream is still streaming
    /// through the ICAP: the completion would resurrect the accelerator on
    /// a decommissioned tile. Returns the freed node.
    pub fn pool_teardown(&mut self, board: u16, name: &str) -> Result<NodeId, SystemError> {
        let now = self.now();
        let gw = self.cfg.gateway;
        let bad = || SystemError::BadNode(NodeId(u16::MAX));
        let service;
        let node;
        {
            let b = &mut self.boards[board as usize];
            if !b.alive {
                return Err(bad());
            }
            let meta = b.replicas.get(name).cloned().ok_or_else(bad)?;
            if b.sys.reconfiguring(meta.node) {
                return Err(bad());
            }
            service = meta.service;
            node = meta.node;
            b.dir.withdraw(now, name);
            b.sys.undeploy_service(meta.service);
            b.set_local_cap(gw, meta.service.0, None);
            b.replicas.remove(name);
            b.republish.retain(|r| r.name != name);
        }
        for peer in &mut self.boards {
            if !peer.alive {
                continue;
            }
            if let Some(cap) = peer.remote_caps.remove(&(board, service.0)) {
                if peer.sys.tile_mut(gw).monitor.revoke_cap(cap).is_ok() {
                    self.caps_revoked += 1;
                }
            }
        }
        Ok(node)
    }

    /// Whether a board's gateway currently holds a client capability for
    /// `service` — i.e. a local replica is wired and invokable. The
    /// republish pass installs this cap only once the tile's bitstream has
    /// finished loading, so it doubles as the orchestrator's "replica is
    /// live" signal.
    pub fn has_local_cap(&self, board: u16, service: ServiceId) -> bool {
        self.boards[board as usize]
            .local_caps
            .contains_key(&service.0)
    }

    /// Quiesce elapsed: capture the source replica's state and put it on
    /// the fabric (transfer time scales with state size through the link's
    /// serialization model). Aborts — republishing the source binding — if
    /// the service cannot snapshot right now (mid-reconfiguration or not
    /// preemptible).
    fn drive_migration_snapshot(&mut self, sid: u32, now: Cycle) {
        let gw = self.cfg.gateway;
        let m = self.migrations.get_mut(&sid).expect("listed by caller");
        let b = &mut self.boards[m.src as usize];
        let home = b.sys.service_home(m.service);
        let state = home
            .and_then(|n| b.sys.tile_mut(n).accel.as_mut())
            .and_then(|a| a.save_state());
        let Some(state) = state else {
            if let Some(n) = home {
                let _ = b.dir.publish(now, &m.name, m.service, n);
            }
            self.migrations.remove(&sid);
            self.migrations_failed += 1;
            return;
        };
        b.sys.tile_mut(gw).monitor.tracer_mut().record(
            now,
            gw.0,
            EventKind::Remote {
                phase: "migrate-xfer",
                board: m.dst,
                tag: sid as u64,
            },
        );
        m.snapshot_at = now;
        m.state_bytes = state.len() as u64;
        m.phase = MigPhase::Transfer;
        b.sys.undeploy_service(m.service);
        b.set_local_cap(gw, sid, None);
        b.replicas.remove(&m.name);
        let msg = ClusterMsg {
            src: m.src,
            dst: m.dst,
            body: Body::Migrate {
                service: sid,
                name: m.name.clone(),
                snapshot: state,
            },
        };
        self.fabric.send(&msg);
    }

    /// Kills a board: it stops ticking, its fabric links go down, its
    /// leases stop renewing. The rest of the cluster routes around it once
    /// timeouts raise its in-flight counts and lease expiry drops its
    /// directory entries.
    pub fn kill_board(&mut self, b: u16) {
        self.boards[b as usize].alive = false;
        self.fabric.set_link(b, None, false);
    }

    /// Cuts a link (board↔ToR in a star; the pair, or all of `a`'s links
    /// when `b` is `None`, in a mesh).
    pub fn cut_link(&mut self, a: u16, b: Option<u16>) {
        self.fabric.set_link(a, b, false);
    }

    /// Restores a previously cut link.
    pub fn restore_link(&mut self, a: u16, b: Option<u16>) {
        self.fabric.set_link(a, b, true);
    }

    /// Submits a request from a client attached at `origin` for the named
    /// service. The directory supplies live replicas, the balancer picks
    /// one, and the invocation goes out locally or over the fabric.
    /// Returns the chosen replica.
    pub fn submit(
        &mut self,
        origin: u16,
        name: &str,
        tag: u64,
        payload: Vec<u8>,
    ) -> Result<(u16, NodeId), SubmitError> {
        let now = self.now();
        if !self.boards[origin as usize].alive {
            return Err(SubmitError::OriginDead);
        }
        let candidates: Vec<(u16, NodeId, ServiceId)> = self.boards[origin as usize]
            .dir
            .lookup_all(now, name)
            .into_iter()
            .map(|e| (e.home, e.node, e.service))
            .collect();
        let keys: Vec<(u16, NodeId)> = candidates.iter().map(|c| (c.0, c.1)).collect();
        let Some(k) = self.balancer.pick(&keys) else {
            return Err(SubmitError::NoReplica);
        };
        let (tboard, tnode, service) = candidates[k];
        let gw = self.cfg.gateway;
        self.end_to_end.start(tag, now);
        if tboard == origin {
            let b = &mut self.boards[origin as usize];
            let cap = b
                .local_caps
                .get(&service.0)
                .copied()
                .ok_or(SubmitError::NoReplica)?;
            b.sys
                .tile_mut(gw)
                .monitor
                .send(cap, KIND_REQUEST, tag, TrafficClass::Request, payload, now)
                .map_err(|_| {
                    self.refused += 1;
                    SubmitError::Refused
                })?;
            self.local_submitted += 1;
        } else {
            let b = &mut self.boards[origin as usize];
            // Mint (or reuse) the remote capability for this (board,
            // service) and let the egress proxy check it like any send.
            let cap = match b.remote_caps.get(&(tboard, service.0)) {
                Some(c) => *c,
                None => {
                    let c = b
                        .sys
                        .tile_mut(gw)
                        .monitor
                        .install_cap(Capability::new(
                            CapKind::Remote {
                                board: tboard,
                                service,
                            },
                            Rights::SEND,
                        ))
                        .map_err(|_| SubmitError::Refused)?;
                    b.remote_caps.insert((tboard, service.0), c);
                    c
                }
            };
            if b.sys
                .tile(gw)
                .monitor
                .caps()
                .check(cap, Rights::SEND)
                .is_err()
            {
                self.refused += 1;
                return Err(SubmitError::Refused);
            }
            b.sys.tile_mut(gw).monitor.tracer_mut().record(
                now,
                gw.0,
                EventKind::Remote {
                    phase: "send",
                    board: tboard,
                    tag,
                },
            );
            self.fabric_out.start(tag, now);
            self.fabric.send(&ClusterMsg {
                src: origin,
                dst: tboard,
                body: Body::Invoke {
                    service: service.0,
                    tag,
                    payload,
                },
            });
            self.remote_submitted += 1;
        }
        self.balancer.started((tboard, tnode));
        let deadline = now + self.cfg.request_timeout;
        let superseded = self.pending.insert(
            tag,
            Pending {
                origin,
                target: (tboard, tnode),
                deadline,
            },
        );
        // A resubmitted tag supersedes the attempt still pending: its reply
        // would complete the new one, so it no longer holds its replica.
        // A resubmit in the same cycle already has its live entry.
        let mut fresh = true;
        if let Some(old) = superseded {
            self.balancer.finished(old.target);
            fresh = old.deadline != deadline;
        }
        if fresh {
            self.deadlines.push_back((deadline, tag));
        }
        Ok((tboard, tnode))
    }

    /// Records a breaker-open transition observed at a board's client (the
    /// board id in the event is the origin itself: the breaker guards the
    /// whole fan-out, not one peer).
    pub fn note_breaker_open(&mut self, origin: u16) {
        let now = self.now();
        let gw = self.cfg.gateway;
        self.boards[origin as usize]
            .sys
            .tile_mut(gw)
            .monitor
            .tracer_mut()
            .record(
                now,
                gw.0,
                EventKind::Remote {
                    phase: "breaker-open",
                    board: origin,
                    tag: 0,
                },
            );
    }

    /// Finished requests since the last call, in completion order.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Whether finished requests await [`ClusterSystem::take_completions`].
    pub fn has_completions(&self) -> bool {
        !self.completions.is_empty()
    }

    /// Request traffic drained: nothing pending at the cluster level, no
    /// forwarded work awaiting a local reply, no live migration mid-flight
    /// (its snapshot may be on the wire or restoring while both boards look
    /// idle), every live board idle. Gossip deliberately does not count —
    /// it is a periodic background heartbeat and never "drains".
    pub fn quiescent(&self) -> bool {
        self.pending.is_empty()
            && self.migrations.is_empty()
            && self
                .boards
                .iter()
                .filter(|b| b.alive)
                .all(|b| b.ingress.is_empty() && b.sys.is_idle())
    }

    /// Cross-checks the request bookkeeping: the deadline queue is in
    /// deadline order, every pending request has exactly one live entry
    /// carrying its deadline, and the balancer's in-flight count for each
    /// replica equals the number of pending requests that target it; and
    /// each live board's `local_caps` mirrors exactly the `Service` caps
    /// live in its gateway's table.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut prev = Cycle::ZERO;
        let mut live: BTreeMap<u64, usize> = BTreeMap::new();
        for &(deadline, tag) in &self.deadlines {
            if deadline < prev {
                return Err(format!(
                    "deadline queue goes back from {prev} to {deadline} at tag {tag:#x}"
                ));
            }
            prev = deadline;
            if self
                .pending
                .get(&tag)
                .is_some_and(|p| p.deadline == deadline)
            {
                *live.entry(tag).or_default() += 1;
            }
        }
        for (&tag, p) in &self.pending {
            let n = live.get(&tag).copied().unwrap_or(0);
            if n != 1 {
                return Err(format!(
                    "pending tag {tag:#x} (deadline {}) has {n} live deadline entries",
                    p.deadline
                ));
            }
        }
        let mut targeted: BTreeMap<(u16, NodeId), u64> = BTreeMap::new();
        for p in self.pending.values() {
            *targeted.entry(p.target).or_default() += 1;
        }
        for (&r, &n) in &targeted {
            let held = self.balancer.load(r);
            if held != n {
                return Err(format!(
                    "balancer holds {held} in flight at {r:?}, {n} pending requests target it"
                ));
            }
        }
        let (held, pending) = (self.balancer.total_in_flight(), self.pending.len() as u64);
        if held != pending {
            return Err(format!(
                "balancer holds {held} in flight in all, {pending} requests are pending"
            ));
        }
        self.check_gateway_caps()
    }

    /// Checks that each live board's `local_caps` mirrors exactly the
    /// `Service` caps live in its gateway's table: every live one is the
    /// mirror's entry for its service, and there are no others.
    fn check_gateway_caps(&self) -> Result<(), String> {
        let gw = self.cfg.gateway;
        for (bi, b) in self.boards.iter().enumerate().filter(|(_, b)| b.alive) {
            let mut live = 0;
            for (cap, c) in b.sys.tile(gw).monitor.caps().iter_live() {
                if let CapKind::Service(service) = c.kind {
                    live += 1;
                    if b.local_caps.get(&service.0) != Some(&cap) {
                        return Err(format!(
                            "board {bi}: gateway cap {cap:?} for service {} is not in local_caps",
                            service.0
                        ));
                    }
                }
            }
            if live != b.local_caps.len() {
                return Err(format!(
                    "board {bi}: local_caps holds {} caps, the gateway {live} live service caps",
                    b.local_caps.len()
                ));
            }
        }
        Ok(())
    }

    fn finish_request(&mut self, tag: u64, is_error: bool, now: Cycle) {
        match self.pending.remove(&tag) {
            Some(p) => {
                self.balancer.finished(p.target);
                if !is_error {
                    self.end_to_end.finish(tag, now);
                }
                self.completions.push(Completion {
                    origin: p.origin,
                    tag,
                    is_error,
                });
            }
            None => self.stale_replies += 1,
        }
    }

    /// Advances the whole cluster by one cycle under the dense reference
    /// clock: every live board ticks in full and every fabric link pumps.
    pub fn tick(&mut self) {
        self.ticks += 1;
        // 1. Boards advance in index order; dead boards stay frozen.
        for b in &mut self.boards {
            if b.alive {
                b.sys.tick();
            }
        }
        self.cluster_cycle(Cycle(self.ticks), false);
    }

    /// Everything a cluster cycle does after the boards advance: migration
    /// phases, republish, gossip, the fabric, gateway drains and request
    /// timeouts. Both clocks funnel through this; `due_links_only` pumps
    /// only the fabric links with work due this cycle (the event clock),
    /// which is the same as pumping them all, since an early pump is a
    /// no-op.
    fn cluster_cycle(&mut self, now: Cycle, due_links_only: bool) {
        let gw = self.cfg.gateway;

        // 1b. Live migrations whose quiesce window elapsed take their
        //     snapshot: the source stops serving (tile decommissioned,
        //     spec and checkpoint dropped) and the state goes out over the
        //     fabric. Migrations whose source or destination died abort.
        if !self.migrations.is_empty() {
            let due: Vec<u32> = self
                .migrations
                .iter()
                .filter(|(_, m)| {
                    matches!(m.phase, MigPhase::Quiesce { until } if until <= now)
                        && self.boards[m.src as usize].alive
                        && self.boards[m.dst as usize].alive
                })
                .map(|(&s, _)| s)
                .collect();
            for sid in due {
                self.drive_migration_snapshot(sid, now);
            }
            let dead: Vec<u32> = self
                .migrations
                .iter()
                .filter(|(_, m)| {
                    !self.boards[m.src as usize].alive || !self.boards[m.dst as usize].alive
                })
                .map(|(&s, _)| s)
                .collect();
            for sid in dead {
                self.migrations.remove(&sid);
                self.migrations_failed += 1;
            }
        }

        // 2. Completed reconfigurations republish their directory entry.
        for bi in 0..self.boards.len() {
            if !self.boards[bi].alive || self.boards[bi].republish.is_empty() {
                continue;
            }
            let done: Vec<usize> = self.boards[bi]
                .republish
                .iter()
                .enumerate()
                .filter(|(_, r)| self.boards[bi].sys.tile(r.meta.node).accel.is_some())
                .map(|(i, _)| i)
                .collect();
            for i in done.into_iter().rev() {
                let r = self.boards[bi].republish.remove(i);
                let b = &mut self.boards[bi];
                // Re-wire: the reset wiped the replica tile's reply caps;
                // attach_client reinstalls them and refreshes the
                // gateway's service cap.
                if let Ok(cap) = b.sys.attach_client(gw, r.meta.service) {
                    b.set_local_cap(gw, r.meta.service.0, Some(cap));
                }
                let _ = b.dir.publish(now, &r.name, r.meta.service, r.meta.node);
            }
        }

        // 2b. Migrations finalize once the destination republished: the
        //     blackout window closes, and every live board's stale remote
        //     cap against the old home is proactively revoked (a fresh cap
        //     is minted against the new home on the next submit — clients
        //     never see a cap change, naming is late-bound).
        let finished: Vec<u32> = if self.migrations.is_empty() {
            Vec::new()
        } else {
            self.migrations
                .iter()
                .filter(|(_, m)| {
                    m.phase == MigPhase::Restore
                        && self.boards[m.dst as usize]
                            .dir
                            .lookup_local(now, &m.name)
                            .is_some_and(|e| e.node == m.dst_node)
                })
                .map(|(&s, _)| s)
                .collect()
        };
        for sid in finished {
            let m = self.migrations.remove(&sid).expect("listed above");
            self.boards[m.dst as usize]
                .sys
                .tile_mut(gw)
                .monitor
                .tracer_mut()
                .record(
                    now,
                    gw.0,
                    EventKind::Remote {
                        phase: "migrate-done",
                        board: m.src,
                        tag: sid as u64,
                    },
                );
            for b in &mut self.boards {
                if !b.alive {
                    continue;
                }
                if let Some(cap) = b.remote_caps.remove(&(m.src, sid)) {
                    if b.sys.tile_mut(gw).monitor.revoke_cap(cap).is_ok() {
                        self.caps_revoked += 1;
                    }
                }
            }
            self.migrations_done.push(MigrationOutcome {
                name: m.name,
                service: m.service,
                src: m.src,
                dst: m.dst,
                state_bytes: m.state_bytes,
                started_at: m.started_at,
                snapshot_at: m.snapshot_at,
                restored_at: now,
                warm: m.warm,
            });
        }

        // 3. Gossip round: renew leases, sweep expiries (revoking remote
        //    caps for entries that lapsed), push one snapshot round-robin.
        if self.ticks.is_multiple_of(self.cfg.gossip_interval) {
            let round = self.ticks / self.cfg.gossip_interval;
            let n = self.boards.len() as u16;
            for bi in 0..n {
                if !self.boards[bi as usize].alive {
                    continue;
                }
                let b = &mut self.boards[bi as usize];
                b.dir.renew_local(now);
                for dead in b.dir.sweep(now) {
                    if dead.home == bi {
                        continue;
                    }
                    if let Some(cap) = b.remote_caps.remove(&(dead.home, dead.service.0)) {
                        if b.sys.tile_mut(gw).monitor.revoke_cap(cap).is_ok() {
                            self.caps_revoked += 1;
                        }
                    }
                }
                if n > 1 {
                    let peers: Vec<u16> = (0..n).filter(|&p| p != bi).collect();
                    let partner = peers[(round as usize) % peers.len()];
                    let snapshot = self.boards[bi as usize].dir.snapshot();
                    self.fabric.send(&ClusterMsg {
                        src: bi,
                        dst: partner,
                        body: Body::Gossip { entries: snapshot },
                    });
                }
            }

            // Checkpoint replication piggybacks on the gossip cadence:
            // each board pushes any snapshot whose sequence advanced since
            // the last round to its ring successor, so a board kill can
            // recover warm from the peer's adopted copy
            // ([`ClusterSystem::recover_replica`]).
            if self.cfg.replicate_checkpoints && n > 1 {
                for bi in 0..n {
                    if !self.boards[bi as usize].alive {
                        continue;
                    }
                    let Some(peer) = (1..n)
                        .map(|d| (bi + d) % n)
                        .find(|&p| self.boards[p as usize].alive)
                    else {
                        continue;
                    };
                    let replicas: Vec<(String, u32)> = self.boards[bi as usize]
                        .replicas
                        .iter()
                        .map(|(name, meta)| (name.clone(), meta.service.0))
                        .collect();
                    for (name, sid) in replicas {
                        let Some(snap) = self.boards[bi as usize]
                            .sys
                            .checkpoint_store_mut()
                            .latest(sid)
                        else {
                            continue;
                        };
                        let seq = snap.seq;
                        if self
                            .replicated_seq
                            .get(&(bi, sid))
                            .is_some_and(|&sent| sent >= seq)
                        {
                            continue;
                        }
                        let snapshot = snap.encode();
                        self.replicated_seq.insert((bi, sid), seq);
                        self.fabric.send(&ClusterMsg {
                            src: bi,
                            dst: peer,
                            body: Body::Checkpoint {
                                service: sid,
                                name,
                                snapshot,
                            },
                        });
                    }
                }
            }
        }

        // 4. Fabric: deliveries and ARQ retransmission attribution.
        let (deliveries, retx) = if due_links_only {
            self.fabric.step_due(now)
        } else {
            self.fabric.step(now)
        };
        for (src_board, n) in retx {
            if !self.boards[src_board as usize].alive {
                continue;
            }
            let tracer = self.boards[src_board as usize]
                .sys
                .tile_mut(gw)
                .monitor
                .tracer_mut();
            for _ in 0..n {
                tracer.record(
                    now,
                    gw.0,
                    EventKind::Remote {
                        phase: "retransmit",
                        board: src_board,
                        tag: 0,
                    },
                );
            }
        }
        for msg in deliveries {
            if !self.boards[msg.dst as usize].alive {
                self.dead_board_drops += 1;
                continue;
            }
            match msg.body {
                Body::Invoke {
                    service,
                    tag,
                    payload,
                } => {
                    self.fabric_out.finish(tag, now);
                    let b = &mut self.boards[msg.dst as usize];
                    let cap = b.local_caps.get(&service).copied();
                    let home = b.sys.service_home(ServiceId(service));
                    let forwarded = match (cap, home) {
                        (Some(cap), Some(_)) => {
                            let ltag = INGRESS_BIT | self.next_ingress;
                            self.next_ingress += 1;
                            match b.sys.tile_mut(gw).monitor.send(
                                cap,
                                KIND_REQUEST,
                                ltag,
                                TrafficClass::Request,
                                payload,
                                now,
                            ) {
                                Ok(()) => {
                                    b.ingress.insert(ltag, Ingress { src: msg.src, tag });
                                    self.on_board.start(tag, now);
                                    true
                                }
                                Err(_) => false,
                            }
                        }
                        _ => false,
                    };
                    if !forwarded {
                        self.fabric.send(&ClusterMsg {
                            src: msg.dst,
                            dst: msg.src,
                            body: Body::Reply {
                                tag,
                                is_error: true,
                                payload: vec![apiary_monitor::wire::err::NO_SUCH_SERVICE],
                            },
                        });
                    }
                }
                Body::Reply {
                    tag,
                    is_error,
                    payload: _,
                } => {
                    self.fabric_back.finish(tag, now);
                    self.boards[msg.dst as usize]
                        .sys
                        .tile_mut(gw)
                        .monitor
                        .tracer_mut()
                        .record(
                            now,
                            gw.0,
                            EventKind::Remote {
                                phase: "reply",
                                board: msg.src,
                                tag,
                            },
                        );
                    self.finish_request(tag, is_error, now);
                }
                Body::Gossip { entries } => {
                    self.boards[msg.dst as usize].dir.merge(&entries);
                }
                Body::Migrate {
                    service,
                    name: _,
                    snapshot,
                } => {
                    let Some(m) = self.migrations.get_mut(&service) else {
                        // Migration aborted while the snapshot was in
                        // flight; the state is lost with it.
                        continue;
                    };
                    let factory = m.factory.take().expect("consumed exactly once");
                    let mut accel = factory();
                    m.warm = accel.restore_state(&snapshot).is_ok();
                    if !m.warm {
                        // Never install a half-restored instance.
                        accel = factory();
                    }
                    let warm_bytes = if m.warm { snapshot.len() as u64 } else { 0 };
                    let b = &mut self.boards[msg.dst as usize];
                    match b.sys.reconfigure(
                        m.dst_node,
                        accel,
                        m.app,
                        m.policy,
                        m.bitstream_bytes + warm_bytes,
                    ) {
                        Ok(_) => {
                            b.sys.tile_mut(gw).monitor.tracer_mut().record(
                                now,
                                gw.0,
                                EventKind::Remote {
                                    phase: "migrate-restore",
                                    board: msg.src,
                                    tag: service as u64,
                                },
                            );
                            b.sys.adopt_service(
                                m.service,
                                m.dst_node,
                                m.app,
                                m.policy,
                                m.bitstream_bytes,
                                factory,
                            );
                            let meta = ReplicaMeta {
                                service: m.service,
                                node: m.dst_node,
                                app: m.app,
                                policy: m.policy,
                                bitstream_bytes: m.bitstream_bytes,
                            };
                            b.replicas.insert(m.name.clone(), meta.clone());
                            b.republish.push(Republish {
                                name: m.name.clone(),
                                meta,
                            });
                            m.phase = MigPhase::Restore;
                        }
                        Err(_) => {
                            self.migrations.remove(&service);
                            self.migrations_failed += 1;
                        }
                    }
                }
                Body::Checkpoint {
                    service,
                    name: _,
                    snapshot,
                } => {
                    if let Ok(snap) = Snapshot::decode(&snapshot) {
                        if self.boards[msg.dst as usize]
                            .sys
                            .checkpoint_store_mut()
                            .adopt(service, snap)
                        {
                            self.checkpoints_replicated += 1;
                        }
                    }
                }
            }
        }

        // 5. Drain gateway inboxes: replies to local submits complete
        //    directly; replies to forwarded ingress go back over the
        //    fabric.
        for bi in 0..self.boards.len() {
            if !self.boards[bi].alive {
                continue;
            }
            while let Some(d) = self.boards[bi].sys.tile_mut(gw).monitor.recv() {
                let is_error = d.msg.kind == KIND_ERROR;
                if d.msg.tag & INGRESS_BIT != 0 {
                    if let Some(ing) = self.boards[bi].ingress.remove(&d.msg.tag) {
                        self.on_board.finish(ing.tag, now);
                        self.fabric_back.start(ing.tag, now);
                        self.fabric.send(&ClusterMsg {
                            src: bi as u16,
                            dst: ing.src,
                            body: Body::Reply {
                                tag: ing.tag,
                                is_error,
                                payload: d.msg.payload.to_vec(),
                            },
                        });
                    }
                } else {
                    self.finish_request(d.msg.tag, is_error, now);
                }
            }
        }

        // 6. Cluster-level timeouts feed the client retry path, in tag
        //    order. Deadlines are non-decreasing along the queue, so every
        //    expired entry sits at the front, mixed only with stale ones.
        let mut expired = Vec::new();
        while let Some(&(deadline, tag)) = self.deadlines.front() {
            let live = self
                .pending
                .get(&tag)
                .is_some_and(|p| p.deadline == deadline);
            if live && deadline > now {
                break;
            }
            self.deadlines.pop_front();
            if live {
                expired.push(tag);
            }
        }
        expired.sort_unstable();
        for tag in expired {
            let Some(p) = self.pending.remove(&tag) else {
                continue;
            };
            self.balancer.finished(p.target);
            self.timeouts += 1;
            self.completions.push(Completion {
                origin: p.origin,
                tag,
                is_error: true,
            });
        }
    }

    /// The next cycle, no later than `horizon`, at which anything in the
    /// cluster can happen: a board's NoC has traffic in flight or its
    /// kernel phases come due, a fabric link has work, a gossip round
    /// fires, a cluster-level request timeout expires, or a migration's
    /// quiesce window ends. Every cycle strictly before the returned one is
    /// provably a no-op for the whole machine, so the event clock may skip
    /// it. Records each live board's phase deadline for the step that
    /// follows.
    fn next_due(&mut self, horizon: Cycle) -> Cycle {
        let now = self.now();
        let next = now.saturating_add(1);
        let mut due = horizon.max(next);
        for b in &mut self.boards {
            if b.alive {
                b.phase_due = b.sys.phases_due();
                let busy = b.sys.noc().pending() > 0;
                due = due.min(if busy { next } else { b.phase_due });
            }
        }
        due = due.min(self.fabric.next_activity(next));
        let g = self.cfg.gossip_interval;
        due = due.min(Cycle((self.ticks / g + 1) * g));
        // The front is live after every timeout pass; a stale one only
        // wakes the cluster early, which is harmless.
        if let Some(&(d, _)) = self.deadlines.front() {
            due = due.min(d.max(next));
        }
        for m in self.migrations.values() {
            if let MigPhase::Quiesce { until } = m.phase {
                due = due.min(until.max(next));
            }
        }
        due.max(next)
    }

    /// One event-clock step: jump to the next eventful cycle and run it,
    /// doing only the work due on it. Each live board steps its NoC only
    /// while traffic is in flight (else skips the idle interconnect) and
    /// runs its kernel phases only when they come due or a delivery waits
    /// ([`System::lockstep_cycle`]); the fabric pumps only links with work
    /// due. Always advances at least one cycle and never beyond `horizon`.
    fn event_step(&mut self, horizon: Cycle) {
        let now = self.next_due(horizon);
        self.ticks = now.0;
        for b in &mut self.boards {
            if b.alive {
                b.sys.lockstep_cycle(now, b.phase_due);
            }
        }
        self.cluster_cycle(now, true);
    }

    /// One scheduling step, never beyond `horizon`: one dense
    /// [`ClusterSystem::tick`] under [`ClockMode::Dense`], or one
    /// event-clock step to the next cluster-wide wakeup under
    /// [`ClockMode::Event`]. The drivers below are loops over this, so it
    /// is where they read the clock mode.
    fn step(&mut self, horizon: Cycle) {
        if clock_mode() == ClockMode::Dense {
            self.tick();
        } else {
            self.event_step(horizon);
        }
    }

    /// Advances time by one scheduling step: one cycle under the dense
    /// clock, or up to the next cluster-wide wakeup (never beyond
    /// `horizon`) under the event clock. Experiment drivers interleave
    /// their own client wakeups with the cluster's exactly like the
    /// single-board `System::advance_toward`.
    pub fn advance_toward(&mut self, horizon: Cycle) {
        if self.now() < horizon {
            self.step(horizon);
        }
    }

    /// Runs for `cycles` cycles (jumping between wakeups under the event
    /// clock; both clocks end on the same cycle with bit-identical state).
    pub fn run(&mut self, cycles: u64) {
        let end = Cycle(self.ticks.saturating_add(cycles));
        while self.now() < end {
            self.step(end);
        }
    }
}

/// One external client: a [`RequestGen`] (workload, retry policy, circuit
/// breaker) attached at a board's network ingress.
pub struct ClusterClient {
    /// The load generator (owns stats: issued, completed, errors, retries,
    /// shed, RTT histogram).
    pub gen: RequestGen,
    /// Board this client's traffic enters at.
    pub origin: u16,
    /// Service it invokes.
    pub service_name: String,
    /// Submits refused because no live replica was visible.
    pub no_replica: u64,
    last_breaker: Option<BreakerState>,
}

impl ClusterClient {
    /// Creates a client with retries and a breaker armed (the end-to-end
    /// resilience path E17 exercises).
    pub fn new(
        client_id: u32,
        origin: u16,
        service_name: &str,
        payload_bytes: usize,
        workload: Workload,
        seed: u64,
    ) -> ClusterClient {
        ClusterClient {
            gen: RequestGen::new(client_id, 0, payload_bytes, workload, seed)
                .with_retry(RetryPolicy::default())
                .with_breaker(BreakerConfig::default()),
            origin,
            service_name: service_name.to_string(),
            no_replica: 0,
            last_breaker: None,
        }
    }

    /// Whether `tag` belongs to this client's generator.
    pub fn owns(&self, tag: u64) -> bool {
        (tag >> 32) as u32 == self.gen.client_id
    }
}

/// One driver step for a set of clients: deliver completions, then issue
/// new arrivals and due retries, recording breaker-open transitions.
/// [`run_clients`] calls it on every cycle where a client can act.
pub fn drive_clients(cluster: &mut ClusterSystem, clients: &mut [ClusterClient]) {
    let now = cluster.now();
    for c in cluster.take_completions() {
        if let Some(cl) = clients.iter_mut().find(|cl| cl.owns(c.tag)) {
            cl.gen.complete(c.tag, now, c.is_error);
        }
    }
    for cl in clients.iter_mut() {
        for tag in cl.gen.poll(now) {
            let payload = vec![0u8; cl.gen.payload_bytes];
            match cluster.submit(cl.origin, &cl.service_name, tag, payload) {
                Ok(_) => {}
                Err(e) => {
                    if e == SubmitError::NoReplica {
                        cl.no_replica += 1;
                    }
                    cl.gen.complete(tag, now, true);
                }
            }
        }
        let state = cl.gen.breaker_state();
        if state == Some(BreakerState::Open) && cl.last_breaker != Some(BreakerState::Open) {
            cluster.note_breaker_open(cl.origin);
        }
        cl.last_breaker = state;
    }
}

/// Runs the cluster for up to `cycles` cycles with `clients` attached,
/// stopping early when `stop` returns true. Under the dense clock this is
/// the classic loop: tick, drive, check. Under the event clock the cluster
/// jumps between wakeups and the clients are driven at every cycle where
/// they can act — a completion is pending, or a client timed event
/// (arrival, retry, breaker cooldown) is due. Skipped cycles are cycles
/// where `drive_clients` would have been a pure no-op, and `stop` is
/// re-checked after every executed cycle, so both clocks stop on the same
/// cycle with bit-identical client stats.
///
/// Returns `true` if `stop` fired before the cycle budget ran out.
pub fn run_clients(
    cluster: &mut ClusterSystem,
    clients: &mut [ClusterClient],
    cycles: u64,
    mut stop: impl FnMut(&ClusterSystem, &[ClusterClient]) -> bool,
) -> bool {
    let end = Cycle(cluster.now().as_u64().saturating_add(cycles));
    if clock_mode() == ClockMode::Dense {
        while cluster.now() < end {
            cluster.tick();
            drive_clients(cluster, clients);
            if stop(cluster, clients) {
                return true;
            }
        }
        return false;
    }
    while cluster.now() < end {
        // Next cycle any client does timed work. Client state only changes
        // inside drive_clients, so this stays valid until the next drive.
        let next = Cycle(cluster.now().as_u64().saturating_add(1));
        let mut due = end;
        for cl in clients.iter() {
            if let Some(t) = cl.gen.next_timed_event() {
                due = due.min(t.max(next));
            }
        }
        loop {
            cluster.advance_toward(due);
            if cluster.now() >= due || cluster.has_completions() {
                break;
            }
            // `stop` may flip on any executed cycle (e.g. the last board
            // draining), not only on client-drive cycles. Client timed
            // events are not due yet, so driving here would be a no-op —
            // checking without driving matches the dense ordering.
            if stop(cluster, clients) {
                return true;
            }
        }
        drive_clients(cluster, clients);
        if stop(cluster, clients) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use apiary_accel::apps::echo::echo;

    /// One board with a local replica and two requests pending at
    /// different deadlines.
    fn two_pending() -> ClusterSystem {
        let mut c = ClusterSystem::new(ClusterConfig::default());
        c.deploy_replica(
            0,
            "kv",
            ServiceId(40),
            NodeId(5),
            AppId(1),
            FaultPolicy::FailStop,
            4096,
            Box::new(|| Box::new(echo(20))),
        )
        .expect("deploy");
        c.submit(0, "kv", 1, vec![0; 8]).expect("submit 1");
        c.tick();
        c.submit(0, "kv", 2, vec![0; 8]).expect("submit 2");
        c.check_invariants().expect("consistent");
        c
    }

    #[test]
    fn invariant_checker_catches_broken_bookkeeping() {
        let mut c = two_pending();
        c.deadlines.swap(0, 1);
        assert!(c.check_invariants().unwrap_err().contains("goes back"));

        let mut c = two_pending();
        c.deadlines.pop_back();
        assert!(c.check_invariants().unwrap_err().contains("0 live"));

        let mut c = two_pending();
        let front = c.deadlines[0];
        c.deadlines.push_front(front);
        assert!(c.check_invariants().unwrap_err().contains("2 live"));

        let mut c = two_pending();
        c.balancer.started((0, NodeId(5)));
        assert!(c.check_invariants().unwrap_err().contains("balancer"));
    }
}
