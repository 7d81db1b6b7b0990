//! The function orchestrator: register → deploy → invoke → autoscale →
//! scale-to-zero.
//!
//! An [`FpgaFunction`](FunctionSpec) is a bitstream with an area footprint.
//! The orchestrator owns a fleet of boards (a [`ClusterSystem`]) and, per
//! board, an **elastic area ledger**: the floor-planner's per-tile dynamic
//! slot times the number of usable tiles, treated as one FOS-style shared
//! budget that every resident function's footprint must pack into. A
//! replica therefore consumes two resources — one mesh node (the tile that
//! hosts it) and its footprint out of the board's area budget — and both
//! are checked before placement.
//!
//! **Cold-start cost model.** A cold start pays, in order: bitstream fetch
//! from the store on a cache miss (`bitstream_bytes / fetch_bytes_per_cycle`
//! cycles), the ICAP partial-reconfiguration load (priced by the board's
//! `icap_bytes_per_cycle` through [`ClusterSystem::pool_deploy`]), gateway
//! re-wiring and directory publication (the republish pass), plus gossip
//! propagation if the invocation entered at another board. Warm
//! invocations skip all of it and go straight through the directory to a
//! live replica.
//!
//! **Autoscaler.** At fixed interval boundaries each function's queue
//! depth is compared against `target_queue_per_replica x (live + pending)`
//! replicas; excess demand grows the pool by one replica, placed by
//! power-of-two-choices over the boards' area utilisation. A function idle
//! for `idle_intervals_to_zero` consecutive intervals shrinks by one
//! replica per boundary — down to zero, at which point its directory
//! entries are tombstoned ([`ClusterSystem::pool_teardown`]), its tiles
//! and area returned, and the next invocation pays a measured cold start.
//!
//! **Determinism rules.** Every timer is an absolute cycle surfaced by
//! [`FaasSystem::next_wakeup`]; [`FaasSystem::pump`] runs after every
//! executed cycle and is a provable no-op on cycles the event clock skips
//! (its remaining triggers — completions, republishes, gossip merges — are
//! all board- or fabric-eventful). The only randomness is the seeded
//! placement RNG, drawn in a fixed order.

use crate::admission::{AdmissionConfig, TenantAdmission};
use crate::cache::BitstreamCache;
use apiary_accel::Accelerator;
use apiary_cap::ServiceId;
use apiary_cluster::{ClusterConfig, ClusterSystem, SubmitError};
use apiary_core::{AppId, FaultPolicy};
use apiary_noc::NodeId;
use apiary_resources::{Area, FloorPlanner, Part};
use apiary_sim::{Cycle, SimRng};
use apiary_trace::LatencyTracker;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

/// Service ids for functions start here, clear of the hand-assigned ids
/// experiments use for statically deployed services.
const FN_SERVICE_BASE: u32 = 0x4600; // "F"

/// Serverless-plane configuration.
pub struct FaasConfig {
    /// The board fleet underneath.
    pub cluster: ClusterConfig,
    /// Part number every board is built from (resolved in the catalog).
    pub part: &'static str,
    /// Per-tile monitor area used to floor-plan the boards.
    pub monitor_area: Area,
    /// Per-board bitstream cache capacity, bytes.
    pub cache_bytes: u64,
    /// Bitstream-store fetch bandwidth on a cache miss, bytes/cycle
    /// (host DRAM or network — much slower than the ICAP).
    pub fetch_bytes_per_cycle: u64,
    /// Cycles between autoscaler boundaries.
    pub autoscale_interval: u64,
    /// Queue depth one replica is expected to absorb; deeper queues grow
    /// the pool.
    pub target_queue_per_replica: u64,
    /// Consecutive idle autoscale intervals before a function starts
    /// shrinking toward zero.
    pub idle_intervals_to_zero: u64,
    /// Cycles a queued invocation may wait for a replica before it is
    /// completed as an error (the cluster's `request_timeout` only covers
    /// submitted work).
    pub queue_timeout: u64,
    /// Per-tenant ingress policy.
    pub admission: AdmissionConfig,
    /// Placement RNG seed (power-of-two-choices draws).
    pub seed: u64,
}

impl FaasConfig {
    /// The per-tile monitor area assumed by default — the representative
    /// implementation the resource experiments use (CAM-assisted cap table
    /// in BRAM, wire checks in LUTs).
    pub const DEFAULT_MONITOR: Area = Area {
        luts: 2_000,
        ffs: 2_500,
        bram36: 4,
        dsps: 0,
    };
}

impl Default for FaasConfig {
    fn default() -> Self {
        FaasConfig {
            cluster: ClusterConfig::default(),
            part: "VU9P",
            monitor_area: FaasConfig::DEFAULT_MONITOR,
            cache_bytes: 24 << 10,
            fetch_bytes_per_cycle: 2,
            autoscale_interval: 2_000,
            target_queue_per_replica: 4,
            idle_intervals_to_zero: 3,
            queue_timeout: 10_000,
            admission: AdmissionConfig::default(),
            seed: 0xFAA5_0001,
        }
    }
}

/// A registered FPGA function: the deployable unit of the serverless
/// plane.
#[derive(Clone)]
pub struct FunctionSpec {
    /// Directory name replicas publish under.
    pub name: String,
    /// Area footprint, packed into a board's elastic budget per replica.
    pub footprint: Area,
    /// Partial bitstream size — prices both the store fetch and the ICAP
    /// load.
    pub bitstream_bytes: u64,
    /// Owning application (capability isolation domain).
    pub app: AppId,
    /// Builds a fresh accelerator instance per deploy.
    pub factory: Rc<dyn Fn() -> Box<dyn Accelerator>>,
}

/// Lifecycle of one replica slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaState {
    /// Cache miss: the bitstream is streaming from the store; the tile and
    /// area are already reserved.
    Fetching {
        /// Cycle the fetch completes and the ICAP load can start.
        ready_at: Cycle,
    },
    /// Bitstream loading through the ICAP; directory entry not yet
    /// republished.
    Loading,
    /// Published and serving (the gateway holds its client cap).
    Live,
}

#[derive(Debug, Clone)]
struct Replica {
    board: u16,
    node: NodeId,
    state: ReplicaState,
}

struct Queued {
    tag: u64,
    origin: u16,
    payload: Vec<u8>,
    deadline: Cycle,
}

struct Function {
    spec: FunctionSpec,
    service: ServiceId,
    replicas: Vec<Replica>,
    queue: VecDeque<Queued>,
    invoked_this_interval: bool,
    idle_intervals: u64,
    invocations: u64,
    cold_invocations: u64,
    completed_ok: u64,
    completed_err: u64,
    expired: u64,
    deploys: u64,
    reclaims: u64,
}

/// One board's elastic resource ledger.
struct BoardLedger {
    /// Shared dynamic-region budget: tile slot x usable tiles.
    budget: Area,
    /// Footprints of resident (and reserving) replicas.
    used: Area,
    /// Usable mesh nodes not hosting a replica.
    free_nodes: BTreeSet<NodeId>,
    cache: BitstreamCache,
}

struct Inflight {
    fn_idx: usize,
    tenant: u32,
    cold: bool,
    arrival: Cycle,
}

/// What happened to an invocation at the front door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvokeOutcome {
    /// Shed by per-tenant admission; never entered the system.
    Throttled,
    /// Submitted straight to a live replica (warm path).
    Submitted,
    /// Queued awaiting a replica; `cold` if no replica was live, so this
    /// invocation's latency includes a cold start.
    Queued {
        /// Whether the function had zero live replicas at arrival.
        cold: bool,
    },
    /// Completed as an error immediately (origin board dead).
    Failed,
}

/// A completed (or expired) invocation, for the experiment driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Finished {
    /// Function index from [`FaasSystem::register`].
    pub fn_idx: usize,
    /// Tenant that issued it.
    pub tenant: u32,
    /// Whether it arrived cold (no live replica).
    pub cold: bool,
    /// Successful reply (vs error, timeout, or queue expiry).
    pub ok: bool,
    /// Arrival cycle at the orchestrator.
    pub arrival: Cycle,
    /// Completion cycle.
    pub finished_at: Cycle,
}

/// A point-in-time summary of one function's pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaasStats {
    /// Invocations admitted for this function.
    pub invocations: u64,
    /// Of those, arrivals with zero live replicas.
    pub cold_invocations: u64,
    /// Successful completions.
    pub completed_ok: u64,
    /// Error completions (timeouts, refusals, dead tiles).
    pub completed_err: u64,
    /// Queued invocations expired waiting for a replica.
    pub expired: u64,
    /// Replica deploys started (cache hit or miss).
    pub deploys: u64,
    /// Replicas reclaimed by scale-down.
    pub reclaims: u64,
    /// Replicas currently live.
    pub live: usize,
    /// Replicas currently fetching or loading.
    pub pending: usize,
    /// Invocations currently queued.
    pub queue_depth: usize,
}

/// The serverless plane over a board fleet.
pub struct FaasSystem {
    cfg: FaasConfig,
    cluster: ClusterSystem,
    boards: Vec<BoardLedger>,
    functions: Vec<Function>,
    inflight: BTreeMap<u64, Inflight>,
    admission: TenantAdmission,
    rng: SimRng,
    next_tag: u64,
    next_autoscale: Cycle,
    finished: Vec<Finished>,
    /// Latency of invocations that arrived cold (includes fetch, ICAP
    /// load, publication, and queueing).
    pub cold_latency: LatencyTracker,
    /// Latency of invocations that arrived with a live replica.
    pub warm_latency: LatencyTracker,
    /// Scale-ups denied because no board had both a free tile and area.
    pub scale_up_denied: u64,
    /// Queue flushes deferred by gateway backpressure.
    pub refusals: u64,
}

impl FaasSystem {
    /// Builds the fleet and floor-plans every board's elastic budget.
    ///
    /// # Panics
    ///
    /// Panics if the part is not in the catalog or the Apiary framework
    /// does not fit it — both configuration errors.
    pub fn new(cfg: FaasConfig) -> FaasSystem {
        let part = Part::by_number(cfg.part).expect("part in catalog");
        let nodes = (cfg.cluster.system.noc.width * cfg.cluster.system.noc.height) as u16;
        let mem_node = cfg.cluster.system.mem_node.unwrap_or(NodeId(nodes - 1));
        let usable: BTreeSet<NodeId> = (0..nodes)
            .map(NodeId)
            .filter(|&n| n != cfg.cluster.gateway && n != mem_node)
            .collect();
        let plan = FloorPlanner {
            tiles: nodes as u64,
            monitor: cfg.monitor_area,
            router: FloorPlanner::SOFT_ROUTER,
            io_shell: FloorPlanner::IO_SHELL,
        }
        .plan(part)
        .expect("Apiary framework fits the part");
        let budget = plan.tile_slot * usable.len() as u64;
        let cluster = ClusterSystem::new(cfg.cluster.clone());
        let boards = (0..cfg.cluster.boards)
            .map(|_| BoardLedger {
                budget,
                used: Area::ZERO,
                free_nodes: usable.clone(),
                cache: BitstreamCache::new(cfg.cache_bytes),
            })
            .collect();
        let admission = TenantAdmission::new(cfg.admission);
        let rng = SimRng::new(cfg.seed);
        let next_autoscale = Cycle(cfg.autoscale_interval);
        FaasSystem {
            cfg,
            cluster,
            boards,
            functions: Vec::new(),
            inflight: BTreeMap::new(),
            admission,
            rng,
            next_tag: 1,
            next_autoscale,
            finished: Vec::new(),
            cold_latency: LatencyTracker::new(),
            warm_latency: LatencyTracker::new(),
            scale_up_denied: 0,
            refusals: 0,
        }
    }

    /// Registers a function; returns its index for [`FaasSystem::invoke`].
    /// Registration deploys nothing — the first invocation (or the
    /// autoscaler) does.
    ///
    /// # Panics
    ///
    /// Panics if the footprint cannot fit even an empty board.
    pub fn register(&mut self, spec: FunctionSpec) -> usize {
        assert!(
            spec.footprint.fits_in(&self.boards[0].budget),
            "function `{}` exceeds a whole board's elastic budget",
            spec.name
        );
        let service = ServiceId(FN_SERVICE_BASE + self.functions.len() as u32);
        self.functions.push(Function {
            spec,
            service,
            replicas: Vec::new(),
            queue: VecDeque::new(),
            invoked_this_interval: false,
            idle_intervals: 0,
            invocations: 0,
            cold_invocations: 0,
            completed_ok: 0,
            completed_err: 0,
            expired: 0,
            deploys: 0,
            reclaims: 0,
        });
        self.functions.len() - 1
    }

    /// Invokes a function on behalf of `tenant`, entering at `origin`'s
    /// gateway. Warm path: straight through the directory to a live
    /// replica. Cold path: queued, with a deploy started if none is in
    /// flight.
    pub fn invoke(
        &mut self,
        fn_idx: usize,
        tenant: u32,
        origin: u16,
        payload: Vec<u8>,
    ) -> InvokeOutcome {
        let now = self.cluster.now();
        if !self.admission.admit(tenant, now) {
            return InvokeOutcome::Throttled;
        }
        let tag = self.next_tag;
        self.next_tag += 1;
        let name = self.functions[fn_idx].spec.name.clone();
        let cold = !self.functions[fn_idx]
            .replicas
            .iter()
            .any(|r| r.state == ReplicaState::Live);
        {
            let f = &mut self.functions[fn_idx];
            f.invocations += 1;
            f.invoked_this_interval = true;
            f.idle_intervals = 0;
            if cold {
                f.cold_invocations += 1;
            }
        }
        if cold {
            self.cold_latency.start(tag, now);
        } else {
            self.warm_latency.start(tag, now);
        }
        self.inflight.insert(
            tag,
            Inflight {
                fn_idx,
                tenant,
                cold,
                arrival: now,
            },
        );
        if !cold {
            match self.cluster.submit(origin, &name, tag, payload.clone()) {
                Ok(_) => return InvokeOutcome::Submitted,
                Err(SubmitError::OriginDead) => {
                    self.complete(tag, false, now);
                    return InvokeOutcome::Failed;
                }
                // Directory lag or gateway backpressure: fall through to
                // the queue and retry from pump().
                Err(SubmitError::NoReplica) | Err(SubmitError::Refused) => {}
            }
        }
        self.functions[fn_idx].queue.push_back(Queued {
            tag,
            origin,
            payload,
            deadline: now + self.cfg.queue_timeout,
        });
        let bringing = self.functions[fn_idx]
            .replicas
            .iter()
            .any(|r| r.state != ReplicaState::Live);
        if cold && !bringing {
            self.start_deploy(fn_idx);
        }
        InvokeOutcome::Queued { cold }
    }

    /// Starts one replica deploy for `fn_idx`: power-of-two-choices over
    /// boards with a free tile and area headroom, then cache lookup →
    /// fetch (miss) or straight to the ICAP (hit). Returns whether a
    /// deploy started.
    fn start_deploy(&mut self, fn_idx: usize) -> bool {
        let now = self.cluster.now();
        let footprint = self.functions[fn_idx].spec.footprint;
        let candidates: Vec<u16> = (0..self.cfg.cluster.boards)
            .filter(|&b| {
                let l = &self.boards[b as usize];
                self.cluster.alive(b)
                    && !l.free_nodes.is_empty()
                    && (l.used + footprint).fits_in(&l.budget)
                    && !self.functions[fn_idx].replicas.iter().any(|r| r.board == b)
            })
            .collect();
        let board = match candidates.len() {
            0 => {
                self.scale_up_denied += 1;
                return false;
            }
            1 => candidates[0],
            n => {
                // Power of two choices on area utilisation; lower board id
                // breaks ties so the draw order alone decides nothing.
                let a = candidates[self.rng.gen_range(n as u64) as usize];
                let b = candidates[self.rng.gen_range(n as u64) as usize];
                let util = |x: u16| {
                    let l = &self.boards[x as usize];
                    l.used.utilisation_of(&l.budget)
                };
                let (ua, ub) = (util(a), util(b));
                if ua < ub || (ua == ub && a <= b) {
                    a
                } else {
                    b
                }
            }
        };
        let ledger = &mut self.boards[board as usize];
        let node = *ledger.free_nodes.iter().next().expect("candidate has one");
        ledger.free_nodes.remove(&node);
        ledger.used += footprint;
        let name = self.functions[fn_idx].spec.name.clone();
        let bytes = self.functions[fn_idx].spec.bitstream_bytes;
        let hit = ledger.cache.lookup(&name);
        if !hit {
            ledger.cache.insert(&name, bytes);
        }
        let state = if hit {
            match self.icap_load(fn_idx, board, node) {
                Ok(()) => ReplicaState::Loading,
                Err(()) => {
                    let ledger = &mut self.boards[board as usize];
                    ledger.free_nodes.insert(node);
                    ledger.used = ledger.used.saturating_sub(&footprint);
                    self.scale_up_denied += 1;
                    return false;
                }
            }
        } else {
            ReplicaState::Fetching {
                ready_at: now + bytes.div_ceil(self.cfg.fetch_bytes_per_cycle.max(1)),
            }
        };
        let f = &mut self.functions[fn_idx];
        f.deploys += 1;
        f.replicas.push(Replica { board, node, state });
        true
    }

    /// Pushes a fetched bitstream into the ICAP via the cluster's pool
    /// hook. The directory entry appears when the republish pass fires.
    fn icap_load(&mut self, fn_idx: usize, board: u16, node: NodeId) -> Result<(), ()> {
        let f = &self.functions[fn_idx];
        let factory = f.spec.factory.clone();
        self.cluster
            .pool_deploy(
                board,
                &f.spec.name,
                f.service,
                node,
                f.spec.app,
                FaultPolicy::FailStop,
                f.spec.bitstream_bytes,
                Box::new(move || factory()),
            )
            .map(|_| ())
            .map_err(|_| ())
    }

    /// Completes `tag` toward trackers, counters and the finished log.
    fn complete(&mut self, tag: u64, ok: bool, now: Cycle) {
        let Some(inf) = self.inflight.remove(&tag) else {
            return;
        };
        if ok {
            let tracker = if inf.cold {
                &mut self.cold_latency
            } else {
                &mut self.warm_latency
            };
            tracker.finish(tag, now);
            self.functions[inf.fn_idx].completed_ok += 1;
        } else {
            self.functions[inf.fn_idx].completed_err += 1;
        }
        self.finished.push(Finished {
            fn_idx: inf.fn_idx,
            tenant: inf.tenant,
            cold: inf.cold,
            ok,
            arrival: inf.arrival,
            finished_at: now,
        });
    }

    /// The orchestrator control loop: call once after every executed
    /// cluster cycle (both clocks). Order matters and is fixed: fetches →
    /// liveness promotion → queue flush → completions → queue expiry →
    /// autoscale boundaries.
    pub fn pump(&mut self) {
        let now = self.cluster.now();

        // 1. Fetches that finished start their ICAP load.
        for fn_idx in 0..self.functions.len() {
            for ri in 0..self.functions[fn_idx].replicas.len() {
                let r = self.functions[fn_idx].replicas[ri].clone();
                if let ReplicaState::Fetching { ready_at } = r.state {
                    if ready_at <= now {
                        match self.icap_load(fn_idx, r.board, r.node) {
                            Ok(()) => {
                                self.functions[fn_idx].replicas[ri].state = ReplicaState::Loading;
                            }
                            Err(()) => {
                                // Tile unusable (should not happen on a
                                // live board): release the reservation.
                                let ledger = &mut self.boards[r.board as usize];
                                ledger.free_nodes.insert(r.node);
                                let fp = self.functions[fn_idx].spec.footprint;
                                ledger.used = ledger.used.saturating_sub(&fp);
                                self.functions[fn_idx].replicas.remove(ri);
                                self.scale_up_denied += 1;
                                break;
                            }
                        }
                    }
                }
            }
        }

        // 2. Loading → Live once the republish pass wired the gateway.
        for f in &mut self.functions {
            for r in &mut f.replicas {
                if r.state == ReplicaState::Loading
                    && self.cluster.has_local_cap(r.board, f.service)
                {
                    r.state = ReplicaState::Live;
                }
            }
        }

        // 3. Flush queues in function order, FIFO within each; stop at the
        //    first submit the directory or gateway cannot take yet.
        for fn_idx in 0..self.functions.len() {
            while let Some(deadline) = self.functions[fn_idx].queue.front().map(|q| q.deadline) {
                if deadline <= now {
                    let q = self.functions[fn_idx].queue.pop_front().expect("front");
                    self.functions[fn_idx].expired += 1;
                    self.complete(q.tag, false, now);
                    continue;
                }
                if !self.functions[fn_idx]
                    .replicas
                    .iter()
                    .any(|r| r.state == ReplicaState::Live)
                {
                    break;
                }
                let name = self.functions[fn_idx].spec.name.clone();
                let (tag, origin, payload) = {
                    let q = self.functions[fn_idx].queue.front().expect("checked");
                    (q.tag, q.origin, q.payload.clone())
                };
                match self.cluster.submit(origin, &name, tag, payload) {
                    Ok(_) => {
                        self.functions[fn_idx].queue.pop_front();
                    }
                    Err(SubmitError::NoReplica) => break, // gossip lag
                    Err(SubmitError::Refused) => {
                        self.refusals += 1;
                        break; // backpressure: retry next pump
                    }
                    Err(SubmitError::OriginDead) => {
                        self.functions[fn_idx].queue.pop_front();
                        self.complete(tag, false, now);
                    }
                }
            }
        }

        // 4. Cluster completions (successes, errors, timeouts).
        for c in self.cluster.take_completions() {
            self.complete(c.tag, !c.is_error, now);
        }

        // 5. Autoscale boundaries (absolute cycles, so both clocks land on
        //    exactly the same boundary cycles).
        while now >= self.next_autoscale {
            let boundary = self.next_autoscale;
            self.next_autoscale = boundary + self.cfg.autoscale_interval;
            self.autoscale(boundary);
        }
    }

    /// One autoscaler boundary: grow pools whose queues outrun their
    /// replicas, shrink pools idle long enough — one replica either way
    /// per function per boundary.
    fn autoscale(&mut self, _boundary: Cycle) {
        let now = self.cluster.now();
        for fn_idx in 0..self.functions.len() {
            let (live, pending, depth) = {
                let f = &self.functions[fn_idx];
                let live = f
                    .replicas
                    .iter()
                    .filter(|r| r.state == ReplicaState::Live)
                    .count() as u64;
                let pending = f.replicas.len() as u64 - live;
                (live, pending, f.queue.len() as u64)
            };
            let busy = {
                let f = &self.functions[fn_idx];
                f.invoked_this_interval
                    || !f.queue.is_empty()
                    || self.inflight.values().any(|i| i.fn_idx == fn_idx)
            };
            self.functions[fn_idx].invoked_this_interval = false;
            if depth > (live + pending) * self.cfg.target_queue_per_replica
                && ((live + pending) as usize) < self.boards.len()
            {
                self.start_deploy(fn_idx);
            }
            if busy {
                self.functions[fn_idx].idle_intervals = 0;
                continue;
            }
            self.functions[fn_idx].idle_intervals += 1;
            if self.functions[fn_idx].idle_intervals >= self.cfg.idle_intervals_to_zero {
                self.reclaim_one(fn_idx, now);
            }
        }
    }

    /// Reclaims one replica of an idle function: a still-fetching slot is
    /// cancelled outright (nothing touched the cluster yet); otherwise the
    /// highest-board live replica is torn down through the tombstoning
    /// pool hook. Loading replicas are skipped — the ICAP completion would
    /// resurrect a decommissioned tile.
    fn reclaim_one(&mut self, fn_idx: usize, _now: Cycle) {
        let footprint = self.functions[fn_idx].spec.footprint;
        if let Some(ri) = self.functions[fn_idx]
            .replicas
            .iter()
            .position(|r| matches!(r.state, ReplicaState::Fetching { .. }))
        {
            let r = self.functions[fn_idx].replicas.remove(ri);
            let ledger = &mut self.boards[r.board as usize];
            ledger.free_nodes.insert(r.node);
            ledger.used = ledger.used.saturating_sub(&footprint);
            self.functions[fn_idx].reclaims += 1;
            return;
        }
        let Some(ri) = self.functions[fn_idx]
            .replicas
            .iter()
            .rposition(|r| r.state == ReplicaState::Live)
        else {
            return;
        };
        let name = self.functions[fn_idx].spec.name.clone();
        let board = self.functions[fn_idx].replicas[ri].board;
        match self.cluster.pool_teardown(board, &name) {
            Ok(node) => {
                let ledger = &mut self.boards[board as usize];
                ledger.free_nodes.insert(node);
                ledger.used = ledger.used.saturating_sub(&footprint);
                self.functions[fn_idx].replicas.remove(ri);
                self.functions[fn_idx].reclaims += 1;
            }
            Err(_) => {
                // Mid-reconfiguration (racing a deploy): try again at the
                // next boundary.
            }
        }
    }

    /// The next cycle, no later than `horizon`, at which the orchestrator
    /// itself has timed work: a bitstream fetch completes, a queued
    /// invocation expires, or an autoscale boundary fires. Cluster-side
    /// events are the cluster's own business
    /// ([`ClusterSystem::advance_toward`] caps at them already).
    pub fn next_wakeup(&self, horizon: Cycle) -> Cycle {
        let next = self.cluster.now().saturating_add(1);
        let mut due = horizon.max(next);
        due = due.min(self.next_autoscale.max(next));
        for f in &self.functions {
            for r in &f.replicas {
                if let ReplicaState::Fetching { ready_at } = r.state {
                    due = due.min(ready_at.max(next));
                }
            }
            // FIFO queues with a fixed timeout have monotone deadlines, so
            // the front is the earliest.
            if let Some(q) = f.queue.front() {
                due = due.min(q.deadline.max(next));
            }
        }
        due.max(next)
    }

    /// Advances the fleet by one scheduling step (never beyond `horizon`)
    /// and runs the control loop. Drivers interleave their own arrival
    /// schedule by capping `horizon` at it, exactly like
    /// [`apiary_cluster::run_clients`].
    pub fn step_toward(&mut self, horizon: Cycle) {
        if self.cluster.now() >= horizon {
            return;
        }
        let due = self.next_wakeup(horizon);
        self.cluster.advance_toward(due);
        self.pump();
    }

    /// Runs `cycles` cycles (through [`FaasSystem::step_toward`], so both
    /// clocks execute identical work).
    pub fn run(&mut self, cycles: u64) {
        let end = Cycle(self.cluster.now().as_u64().saturating_add(cycles));
        while self.cluster.now() < end {
            self.step_toward(end);
        }
    }

    /// Runs until `stop` returns true or `limit` cycles elapse; returns
    /// whether `stop` fired.
    pub fn run_until(&mut self, limit: u64, mut stop: impl FnMut(&FaasSystem) -> bool) -> bool {
        let end = Cycle(self.cluster.now().as_u64().saturating_add(limit));
        while self.cluster.now() < end {
            self.step_toward(end);
            if stop(self) {
                return true;
            }
        }
        false
    }

    /// No queued, in-flight, or half-deployed work anywhere: every replica
    /// is live and the cluster itself has drained.
    pub fn quiescent(&self) -> bool {
        self.inflight.is_empty()
            && self.functions.iter().all(|f| {
                f.queue.is_empty() && f.replicas.iter().all(|r| r.state == ReplicaState::Live)
            })
            && self.cluster.quiescent()
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.cluster.now()
    }

    /// The fleet underneath (latency trackers, fabric stats, directories).
    pub fn cluster(&self) -> &ClusterSystem {
        &self.cluster
    }

    /// The admission stage (admitted/shed counters).
    pub fn admission(&self) -> &TenantAdmission {
        &self.admission
    }

    /// One board's bitstream cache.
    pub fn cache(&self, board: u16) -> &BitstreamCache {
        &self.boards[board as usize].cache
    }

    /// One board's elastic-area utilisation (binding resource), `[0, 1]`.
    pub fn board_utilisation(&self, board: u16) -> f64 {
        let l = &self.boards[board as usize];
        l.used.utilisation_of(&l.budget)
    }

    /// Registered function count.
    pub fn function_count(&self) -> usize {
        self.functions.len()
    }

    /// Live replica count for one function.
    pub fn live_replicas(&self, fn_idx: usize) -> usize {
        self.functions[fn_idx]
            .replicas
            .iter()
            .filter(|r| r.state == ReplicaState::Live)
            .count()
    }

    /// Fetching or loading replica count for one function.
    pub fn pending_replicas(&self, fn_idx: usize) -> usize {
        self.functions[fn_idx].replicas.len() - self.live_replicas(fn_idx)
    }

    /// Point-in-time stats for one function.
    pub fn stats(&self, fn_idx: usize) -> FaasStats {
        let f = &self.functions[fn_idx];
        let live = self.live_replicas(fn_idx);
        FaasStats {
            invocations: f.invocations,
            cold_invocations: f.cold_invocations,
            completed_ok: f.completed_ok,
            completed_err: f.completed_err,
            expired: f.expired,
            deploys: f.deploys,
            reclaims: f.reclaims,
            live,
            pending: f.replicas.len() - live,
            queue_depth: f.queue.len(),
        }
    }

    /// Completed invocations since the last call, in completion order.
    pub fn take_finished(&mut self) -> Vec<Finished> {
        std::mem::take(&mut self.finished)
    }

    /// Cross-checks every ledger against the replica sets and the
    /// cluster's capability state, after the cluster's own request
    /// bookkeeping ([`ClusterSystem::check_invariants`]). Used by tests
    /// (including the warm-pool proptest) after arbitrary interleavings.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.cluster.check_invariants()?;
        for (bi, l) in self.boards.iter().enumerate() {
            let b = bi as u16;
            let mut used = Area::ZERO;
            let mut nodes = BTreeSet::new();
            for f in &self.functions {
                let on_board: Vec<&Replica> = f.replicas.iter().filter(|r| r.board == b).collect();
                if on_board.len() > 1 {
                    return Err(format!(
                        "fn `{}` has {} replicas on board {b}",
                        f.spec.name,
                        on_board.len()
                    ));
                }
                for r in on_board {
                    used += f.spec.footprint;
                    if !nodes.insert(r.node) {
                        return Err(format!("node {:?} on board {b} double-booked", r.node));
                    }
                    if l.free_nodes.contains(&r.node) {
                        return Err(format!(
                            "node {:?} on board {b} both free and occupied",
                            r.node
                        ));
                    }
                    if r.state == ReplicaState::Live && !self.cluster.has_local_cap(b, f.service) {
                        return Err(format!(
                            "live replica of `{}` on board {b} has no gateway cap",
                            f.spec.name
                        ));
                    }
                }
                if f.replicas.iter().all(|r| r.board != b)
                    && self.cluster.has_local_cap(b, f.service)
                {
                    return Err(format!(
                        "board {b} holds a cap for `{}` with no replica",
                        f.spec.name
                    ));
                }
            }
            if used != l.used {
                return Err(format!(
                    "board {b} ledger says {} used, replicas say {used}",
                    l.used
                ));
            }
            if !used.fits_in(&l.budget) {
                return Err(format!("board {b} over budget: {used} > {}", l.budget));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apiary_accel::apps::echo::echo;

    fn spec(name: &str, luts: u64, bytes: u64) -> FunctionSpec {
        FunctionSpec {
            name: name.to_string(),
            footprint: Area::logic(luts, luts),
            bitstream_bytes: bytes,
            app: AppId(1),
            factory: Rc::new(|| Box::new(echo(40))),
        }
    }

    fn small_system() -> FaasSystem {
        FaasSystem::new(FaasConfig {
            cluster: ClusterConfig {
                boards: 2,
                ..ClusterConfig::default()
            },
            autoscale_interval: 1_000,
            idle_intervals_to_zero: 2,
            ..FaasConfig::default()
        })
    }

    #[test]
    fn cold_then_warm_invocation() {
        let mut s = small_system();
        let f = s.register(spec("f", 50_000, 4_096));
        assert_eq!(
            s.invoke(f, 1, 0, vec![0; 32]),
            InvokeOutcome::Queued { cold: true }
        );
        assert!(s.run_until(60_000, |s| s.stats(0).completed_ok == 1));
        let st = s.stats(f);
        assert_eq!(st.live, 1);
        assert_eq!(st.deploys, 1);
        // Second invocation rides the warm replica.
        let out = s.invoke(f, 1, 0, vec![0; 32]);
        assert!(
            matches!(
                out,
                InvokeOutcome::Submitted | InvokeOutcome::Queued { cold: false }
            ),
            "{out:?}"
        );
        assert!(s.run_until(60_000, |s| s.stats(0).completed_ok == 2));
        assert!(s.cold_latency.histogram().p50() > s.warm_latency.histogram().p50());
        s.check_invariants().unwrap();
    }

    #[test]
    fn scale_to_zero_then_cold_reinvoke() {
        let mut s = small_system();
        let f = s.register(spec("f", 50_000, 4_096));
        s.invoke(f, 1, 0, vec![0; 32]);
        assert!(s.run_until(60_000, |s| s.quiescent()));
        assert_eq!(s.live_replicas(f), 1);
        // Idle long enough: the autoscaler reclaims down to zero and the
        // area ledger returns to empty.
        assert!(s.run_until(60_000, |s| s.live_replicas(0) == 0));
        assert_eq!(s.pending_replicas(f), 0);
        assert_eq!(s.stats(f).reclaims, 1);
        assert_eq!(s.board_utilisation(0) + s.board_utilisation(1), 0.0);
        s.check_invariants().unwrap();
        // The tombstone means no stale directory entry answers; the next
        // invocation is cold again and succeeds.
        let out = s.invoke(f, 1, 0, vec![0; 32]);
        assert_eq!(out, InvokeOutcome::Queued { cold: true });
        assert!(s.run_until(60_000, |s| s.stats(0).completed_ok == 2));
        assert_eq!(s.stats(f).cold_invocations, 2);
        s.check_invariants().unwrap();
    }

    #[test]
    fn repeated_scale_to_zero_leaks_no_gateway_caps() {
        // Regression: teardown dropped the gateway's cap for the replica
        // without revoking it, so each round leaked one of the gateway's
        // 32 cap slots and the 33rd cold start never went live.
        let mut s = FaasSystem::new(FaasConfig {
            cluster: ClusterConfig {
                boards: 1,
                ..ClusterConfig::default()
            },
            autoscale_interval: 1_000,
            idle_intervals_to_zero: 2,
            ..FaasConfig::default()
        });
        let f = s.register(spec("f", 50_000, 4_096));
        for round in 1..=60u64 {
            assert_eq!(
                s.invoke(f, 1, 0, vec![0; 32]),
                InvokeOutcome::Queued { cold: true },
                "round {round}"
            );
            assert!(
                s.run_until(60_000, |s| s.stats(0).completed_ok == round),
                "round {round}: the cold start never completed"
            );
            assert!(
                s.run_until(60_000, |s| s.live_replicas(0) == 0),
                "round {round}: no scale to zero"
            );
            s.check_invariants()
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
        }
    }

    #[test]
    fn cache_hit_skips_the_fetch() {
        let mut s = small_system();
        let f = s.register(spec("f", 50_000, 8_192));
        s.invoke(f, 1, 0, vec![0; 32]);
        assert!(s.run_until(80_000, |s| s.stats(0).completed_ok == 1));
        let first = s.take_finished()[0];
        let first_lat = first.finished_at - first.arrival;
        assert!(s.run_until(80_000, |s| s.live_replicas(0) == 0));
        // Re-invoke after scale-to-zero: if placement lands on the board
        // that still caches the bitstream, the store fetch is skipped.
        s.invoke(f, 1, 0, vec![0; 32]);
        assert!(s.run_until(80_000, |s| s.stats(0).completed_ok == 2));
        let second = s.take_finished()[0];
        let second_lat = second.finished_at - second.arrival;
        let hits: u64 = (0..2).map(|b| s.cache(b).hits).sum();
        let misses: u64 = (0..2).map(|b| s.cache(b).misses).sum();
        assert_eq!(hits + misses, 2, "two deploys, two lookups");
        if hits == 1 {
            // The hit skipped the 8192-byte fetch (4096 cycles at
            // 2 B/cycle): the second cold start must be visibly cheaper.
            assert!(
                second_lat + 2_000 < first_lat,
                "hit cold start {second_lat} not cheaper than miss {first_lat}"
            );
        }
        s.check_invariants().unwrap();
    }

    #[test]
    fn queue_depth_grows_the_pool_across_boards() {
        let mut s = small_system();
        let f = s.register(spec("f", 50_000, 4_096));
        // A burst far deeper than one replica's target queue.
        for i in 0..24 {
            s.invoke(f, 1, (i % 2) as u16, vec![0; 32]);
        }
        assert!(s.run_until(120_000, |s| s.quiescent()), "burst drains");
        let st = s.stats(f);
        assert!(st.deploys >= 2, "autoscaler grew the pool: {st:?}");
        assert!(st.completed_ok + st.completed_err + st.expired >= 20);
        s.check_invariants().unwrap();
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut s = small_system();
            let f = s.register(spec("f", 50_000, 4_096));
            let g = s.register(spec("g", 80_000, 6_000));
            for i in 0u32..30 {
                s.invoke(
                    if i % 3 == 0 { g } else { f },
                    i % 2,
                    (i % 2) as u16,
                    vec![0; 16],
                );
                s.run(137);
            }
            s.run_until(200_000, |s| s.quiescent());
            format!(
                "{:?}|{:?}|{}|{}|{:?}",
                s.stats(f),
                s.stats(g),
                s.cold_latency.histogram().p99(),
                s.warm_latency.histogram().p99(),
                s.now()
            )
        };
        assert_eq!(run(), run());
    }
}
