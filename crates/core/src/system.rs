//! The machine: NoC + tiles + clock, and the kernel management API.

use crate::checkpoint::CheckpointStore;
use crate::fault::{
    checkpoint_downtime, preemption_downtime, FaultAction, FaultPolicy, FaultRecord,
};
use crate::memsvc::MemoryService;
use crate::process::{AppId, OS_APP};
use crate::reconfig::ReconfigController;
use crate::supervisor::{
    AccelFactory, Incident, Phase, RecoveryTarget, ServiceSpec, Supervisor, SupervisorConfig,
};
use crate::tile::{KernelOs, ParkedTenant, Tile};
use apiary_accel::{Accelerator, CapEnv};
use apiary_cap::{CapError, CapKind, CapRef, Capability, EndpointId, Rights, ServiceId};
use apiary_mem::{AllocError, AllocPolicy, DramConfig, SegmentAllocator};
use apiary_monitor::{Monitor, MonitorConfig, TileState};
use apiary_noc::{Noc, NocConfig, NodeId};
use apiary_sim::{clock_mode, Clock, ClockMode, Cycle, Wakeup};
use apiary_trace::EventKind;
use core::fmt;

/// System-level configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// NoC geometry and parameters.
    pub noc: NocConfig,
    /// Per-tile monitor configuration.
    pub monitor: MonitorConfig,
    /// On-card DRAM capacity behind the memory service, in bytes.
    pub mem_capacity: u64,
    /// DRAM timing.
    pub dram: DramConfig,
    /// Which node hosts the memory service (default: the last node).
    pub mem_node: Option<NodeId>,
    /// ICAP bandwidth for partial reconfiguration, bytes/cycle.
    pub icap_bytes_per_cycle: u64,
    /// Self-healing supervisor policy (off by default).
    pub supervisor: SupervisorConfig,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            noc: NocConfig::default(),
            monitor: MonitorConfig::default(),
            mem_capacity: 16 << 20,
            dram: DramConfig::default(),
            mem_node: None,
            icap_bytes_per_cycle: 4,
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// Kernel API errors.
#[derive(Debug)]
pub enum SystemError {
    /// The node is outside the mesh.
    BadNode(NodeId),
    /// The tile already hosts an accelerator.
    SlotOccupied(NodeId),
    /// The tile hosts no accelerator.
    SlotEmpty(NodeId),
    /// Mutually distrusting applications may only be connected explicitly
    /// (§4.2); this connect lacked `allow_cross_app`.
    CrossAppConnect {
        /// Requesting tile.
        from: NodeId,
        /// Target tile.
        to: NodeId,
    },
    /// A capability-table operation failed.
    Cap(CapError),
    /// A memory allocation failed.
    Alloc(AllocError),
    /// Preemption requested on a non-preemptible accelerator.
    NotPreemptible(NodeId),
    /// The tile is being reconfigured.
    ReconfigInProgress(NodeId),
    /// Context swap requested on a tile with no parked tenant.
    NoParkedTenant(NodeId),
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::BadNode(n) => write!(f, "node {n} outside mesh"),
            SystemError::SlotOccupied(n) => write!(f, "tile {n} already occupied"),
            SystemError::SlotEmpty(n) => write!(f, "tile {n} is empty"),
            SystemError::CrossAppConnect { from, to } => {
                write!(f, "cross-application connect {from} -> {to} not allowed")
            }
            SystemError::Cap(e) => write!(f, "capability: {e}"),
            SystemError::Alloc(e) => write!(f, "allocation: {e}"),
            SystemError::NotPreemptible(n) => write!(f, "tile {n} is not preemptible"),
            SystemError::ReconfigInProgress(n) => write!(f, "tile {n} is reconfiguring"),
            SystemError::NoParkedTenant(n) => write!(f, "tile {n} has no parked tenant"),
        }
    }
}

impl std::error::Error for SystemError {}

impl From<CapError> for SystemError {
    fn from(e: CapError) -> SystemError {
        SystemError::Cap(e)
    }
}

impl From<AllocError> for SystemError {
    fn from(e: AllocError) -> SystemError {
        SystemError::Alloc(e)
    }
}

/// A complete Apiary machine.
///
/// # Examples
///
/// ```
/// use apiary_core::{AppId, FaultPolicy, System, SystemConfig};
/// use apiary_accel::apps::echo::echo;
/// use apiary_noc::NodeId;
///
/// let mut sys = System::new(SystemConfig::default());
/// sys.install(NodeId(1), Box::new(echo(1)), AppId(1), FaultPolicy::FailStop)
///     .expect("slot free");
/// sys.run(10);
/// assert_eq!(sys.now().as_u64(), 10);
/// ```
pub struct System {
    cfg: SystemConfig,
    clock: Clock,
    noc: Noc,
    tiles: Vec<Tile>,
    allocator: SegmentAllocator,
    mem_node: NodeId,
    reconfig: ReconfigController,
    supervisor: Supervisor,
}

impl System {
    /// Boots a system: builds the mesh, instantiates monitors, and brings
    /// up the memory service tile.
    pub fn new(cfg: SystemConfig) -> System {
        let noc = Noc::new(cfg.noc);
        let nodes = noc.mesh().nodes();
        let tiles: Vec<Tile> = (0..nodes)
            .map(|i| Tile::new(Monitor::new(NodeId(i as u16), cfg.monitor)))
            .collect();
        let mem_node = cfg.mem_node.unwrap_or(NodeId(nodes as u16 - 1));
        let mem_capacity = cfg.mem_capacity;
        let dram = cfg.dram;
        let supervisor = Supervisor {
            free_spares: cfg.supervisor.spare_nodes.iter().copied().collect(),
            ..Supervisor::default()
        };
        let mut sys = System {
            clock: Clock::new(),
            noc,
            tiles,
            allocator: SegmentAllocator::new(cfg.mem_capacity, AllocPolicy::FirstFit),
            mem_node,
            reconfig: ReconfigController::new(cfg.icap_bytes_per_cycle),
            supervisor,
            cfg,
        };
        sys.install(
            mem_node,
            Box::new(MemoryService::new(mem_capacity, dram)),
            OS_APP,
            FaultPolicy::FailStop,
        )
        .expect("memory node is a valid empty slot at boot");
        sys
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.clock.now()
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The NoC (for stats).
    pub fn noc(&self) -> &Noc {
        &self.noc
    }

    /// Mutable NoC access (external injectors such as the network service
    /// front-end).
    pub fn noc_mut(&mut self) -> &mut Noc {
        &mut self.noc
    }

    /// The node hosting the memory service.
    pub fn mem_node(&self) -> NodeId {
        self.mem_node
    }

    /// Whether `node` has a partial reconfiguration in flight (its bitstream
    /// is still streaming through the ICAP). Orchestration layers must not
    /// tear a tile down mid-load: the completion would resurrect it.
    pub fn reconfiguring(&self, node: NodeId) -> bool {
        self.reconfig.in_progress(node)
    }

    /// Kernel-side allocator statistics (segment memory).
    pub fn mem_stats(&self) -> apiary_mem::AllocStats {
        self.allocator.stats()
    }

    fn check_node(&self, n: NodeId) -> Result<(), SystemError> {
        if self.noc.mesh().contains(n) {
            Ok(())
        } else {
            Err(SystemError::BadNode(n))
        }
    }

    /// Immutable tile access.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-mesh node.
    pub fn tile(&self, n: NodeId) -> &Tile {
        &self.tiles[n.index()]
    }

    /// Mutable tile access.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-mesh node.
    pub fn tile_mut(&mut self, n: NodeId) -> &mut Tile {
        &mut self.tiles[n.index()]
    }

    /// Downcasts a tile's accelerator to a concrete type.
    pub fn accel_as<T: 'static>(&self, n: NodeId) -> Option<&T> {
        self.tiles[n.index()]
            .accel
            .as_ref()?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutable accelerator downcast.
    pub fn accel_as_mut<T: 'static>(&mut self, n: NodeId) -> Option<&mut T> {
        self.tiles[n.index()]
            .accel
            .as_mut()?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    // ------------------------------------------------------------------
    // Configuration-plane API.
    // ------------------------------------------------------------------

    /// Installs an accelerator into an empty tile.
    ///
    /// # Errors
    ///
    /// [`SystemError::BadNode`] or [`SystemError::SlotOccupied`].
    pub fn install(
        &mut self,
        node: NodeId,
        accel: Box<dyn Accelerator>,
        app: AppId,
        policy: FaultPolicy,
    ) -> Result<(), SystemError> {
        self.check_node(node)?;
        let tile = &mut self.tiles[node.index()];
        if tile.accel.is_some() {
            return Err(SystemError::SlotOccupied(node));
        }
        tile.accel = Some(accel);
        tile.app = Some(app);
        tile.policy = policy;
        tile.env = CapEnv::new();
        // A fresh accelerator is due immediately; its first wake reports
        // its real schedule.
        tile.wake = Wakeup::AtOrMessage(Cycle::ZERO);
        Ok(())
    }

    /// Grants `from` a SEND capability to `to` and returns the handle.
    ///
    /// Connections across application boundaries require `allow_cross_app`
    /// unless one side is an OS service — the §4.2 rule that distrusting
    /// processes must *specifically establish* IPC.
    ///
    /// # Errors
    ///
    /// [`SystemError::CrossAppConnect`] for implicit cross-app links, plus
    /// node/slot/capability errors.
    pub fn connect(
        &mut self,
        from: NodeId,
        to: NodeId,
        allow_cross_app: bool,
    ) -> Result<CapRef, SystemError> {
        self.connect_badged(from, to, 0, allow_cross_app)
    }

    /// Like [`System::connect`] but stamps a badge into the capability, so
    /// the receiver can attribute traffic to this grant (multi-tenant
    /// services key tenant state off the badge).
    ///
    /// # Errors
    ///
    /// As [`System::connect`].
    pub fn connect_badged(
        &mut self,
        from: NodeId,
        to: NodeId,
        badge: u64,
        allow_cross_app: bool,
    ) -> Result<CapRef, SystemError> {
        self.check_node(from)?;
        self.check_node(to)?;
        let from_app = self.tiles[from.index()]
            .app
            .ok_or(SystemError::SlotEmpty(from))?;
        let to_app = self.tiles[to.index()]
            .app
            .ok_or(SystemError::SlotEmpty(to))?;
        if from_app != to_app && to_app != OS_APP && from_app != OS_APP && !allow_cross_app {
            return Err(SystemError::CrossAppConnect { from, to });
        }
        let cap = self.tiles[from.index()]
            .monitor
            .install_cap(Capability::badged(
                CapKind::Endpoint(EndpointId(to.0 as u32)),
                Rights::SEND,
                badge,
            ))?;
        let now = self.clock.now();
        self.tiles[from.index()].monitor.tracer_mut().record(
            now,
            from.0,
            EventKind::CapOp { op: "connect" },
        );
        Ok(cap)
    }

    /// Connects `from` to `to` and places the capability in `from`'s
    /// environment under `name`.
    ///
    /// # Errors
    ///
    /// As [`System::connect`].
    pub fn connect_env(
        &mut self,
        from: NodeId,
        to: NodeId,
        name: &str,
        allow_cross_app: bool,
    ) -> Result<CapRef, SystemError> {
        let cap = self.connect(from, to, allow_cross_app)?;
        self.tiles[from.index()].env.insert(name, cap);
        Ok(cap)
    }

    /// Places an existing capability into a tile's environment.
    pub fn grant_env(&mut self, node: NodeId, name: &str, cap: CapRef) {
        self.tiles[node.index()].env.insert(name, cap);
    }

    /// Allocates `len` bytes of segment memory for `node`: installs a
    /// READ|WRITE memory capability, wires the tile to the memory service
    /// (env name `"mem-service"`), and opens the reply path.
    ///
    /// # Errors
    ///
    /// Allocation or capability errors.
    pub fn grant_memory(&mut self, node: NodeId, len: u64) -> Result<CapRef, SystemError> {
        self.check_node(node)?;
        let range = self.allocator.alloc(len)?;
        let tile = &mut self.tiles[node.index()];
        let mem_cap = tile.monitor.install_cap(Capability::new(
            CapKind::Memory(range),
            Rights::READ | Rights::WRITE,
        ))?;
        if tile.env.get("mem-service").is_none() {
            let svc = tile.monitor.install_cap(Capability::new(
                CapKind::Endpoint(EndpointId(self.mem_node.0 as u32)),
                Rights::SEND,
            ))?;
            tile.env.insert("mem-service", svc);
        }
        let mem_node = self.mem_node;
        let memtile = &mut self.tiles[mem_node.index()];
        if memtile.monitor.find_endpoint_cap(node).is_none() {
            memtile.monitor.install_cap(Capability::new(
                CapKind::Endpoint(EndpointId(node.0 as u32)),
                Rights::SEND,
            ))?;
        }
        Ok(mem_cap)
    }

    /// Shares a memory segment: derives a (possibly narrowed, rights-
    /// reduced) view of `owner`'s memory capability and installs it at
    /// `peer`, wiring the peer to the memory service too. This is §4.6's
    /// segment sharing — two accelerators exchanging data through a common
    /// buffer without either being able to touch anything else.
    ///
    /// # Errors
    ///
    /// Capability errors (bad handle, not a memory capability, rights not
    /// a subset), node errors.
    pub fn share_memory(
        &mut self,
        owner: NodeId,
        cap: CapRef,
        peer: NodeId,
        rights: Rights,
        narrow: Option<apiary_cap::MemRange>,
    ) -> Result<CapRef, SystemError> {
        self.check_node(owner)?;
        self.check_node(peer)?;
        let capability = *self.tiles[owner.index()]
            .monitor
            .caps()
            .lookup(cap)
            .map_err(SystemError::Cap)?;
        let CapKind::Memory(range) = capability.kind else {
            return Err(SystemError::Cap(CapError::InvalidRef));
        };
        if !rights.is_subset_of(capability.rights) {
            return Err(SystemError::Cap(CapError::IllegalDerivation));
        }
        let shared_range = match narrow {
            Some(r) => {
                if !range.covers(&r) {
                    return Err(SystemError::Cap(CapError::IllegalDerivation));
                }
                r
            }
            None => range,
        };
        let tile = &mut self.tiles[peer.index()];
        let shared = tile
            .monitor
            .install_cap(Capability::new(CapKind::Memory(shared_range), rights))?;
        if tile.env.get("mem-service").is_none() {
            let svc = tile.monitor.install_cap(Capability::new(
                CapKind::Endpoint(EndpointId(self.mem_node.0 as u32)),
                Rights::SEND,
            ))?;
            tile.env.insert("mem-service", svc);
        }
        let mem_node = self.mem_node;
        let memtile = &mut self.tiles[mem_node.index()];
        if memtile.monitor.find_endpoint_cap(peer).is_none() {
            memtile.monitor.install_cap(Capability::new(
                CapKind::Endpoint(EndpointId(peer.0 as u32)),
                Rights::SEND,
            ))?;
        }
        Ok(shared)
    }

    /// Revokes a memory capability and returns its segment to the pool.
    ///
    /// # Errors
    ///
    /// Capability or allocator errors.
    pub fn release_memory(&mut self, node: NodeId, cap: CapRef) -> Result<(), SystemError> {
        self.check_node(node)?;
        let tile = &mut self.tiles[node.index()];
        let capability = *tile.monitor.caps().lookup(cap).map_err(SystemError::Cap)?;
        let CapKind::Memory(range) = capability.kind else {
            return Err(SystemError::Cap(CapError::InvalidRef));
        };
        tile.monitor.revoke_cap(cap)?;
        self.allocator.free(range)?;
        Ok(())
    }

    /// Binds logical service `service` to `target` in `client`'s name
    /// table and grants a SEND capability for it (§4.3 naming).
    ///
    /// # Errors
    ///
    /// Node or capability errors.
    pub fn bind_service(
        &mut self,
        client: NodeId,
        service: ServiceId,
        target: NodeId,
    ) -> Result<CapRef, SystemError> {
        self.check_node(client)?;
        self.check_node(target)?;
        let tile = &mut self.tiles[client.index()];
        tile.monitor.bind_service(service.0, target);
        let cap = tile
            .monitor
            .install_cap(Capability::new(CapKind::Service(service), Rights::SEND))?;
        Ok(cap)
    }

    /// Manually fail-stops a tile (operator action or watchdog).
    pub fn fail_stop(&mut self, node: NodeId) {
        let now = self.clock.now();
        let tile = &mut self.tiles[node.index()];
        tile.monitor.fail_stop(now);
        tile.faults.push(FaultRecord {
            code: 0,
            at: now,
            action: FaultAction::FailStopped,
        });
    }

    /// Injects a fault into a tile exactly as if its accelerator had raised
    /// `code`: the tile's fault policy applies (preempt or fail-stop) and a
    /// [`FaultRecord`] lands in its history. This is the chaos plane's
    /// tile-kill primitive and an operator's big red button.
    pub fn inject_fault(&mut self, node: NodeId, code: u32) {
        let now = self.clock.now();
        self.apply_fault(node, code, now);
    }

    // ------------------------------------------------------------------
    // Supervised services (self-healing, §4.4).
    // ------------------------------------------------------------------

    /// Installs a supervised service: instantiates `factory()` at `node`
    /// and registers the spec so the supervisor can re-instantiate it after
    /// a failure. Requires `supervisor.enabled` in the config to actually
    /// heal; deploying without it just installs.
    ///
    /// # Errors
    ///
    /// As [`System::install`].
    pub fn deploy_service(
        &mut self,
        service: ServiceId,
        node: NodeId,
        app: AppId,
        policy: FaultPolicy,
        bitstream_bytes: u64,
        factory: AccelFactory,
    ) -> Result<(), SystemError> {
        self.install(node, factory(), app, policy)?;
        let next_checkpoint_at = self.first_checkpoint_due();
        self.supervisor.specs.push(ServiceSpec {
            service,
            node,
            app,
            policy,
            bitstream_bytes,
            factory,
            clients: Vec::new(),
            restarts_used: 0,
            abandoned: false,
            next_checkpoint_at,
        });
        Ok(())
    }

    /// When a freshly (re)deployed service's first periodic checkpoint is
    /// due: one interval from now, or never if checkpointing is off.
    fn first_checkpoint_due(&self) -> Cycle {
        let interval = self.cfg.supervisor.checkpoint_interval;
        if interval > 0 {
            self.clock.now() + interval
        } else {
            Cycle::MAX
        }
    }

    /// Registers an already-arriving service with the supervisor *without*
    /// installing anything: the caller is responsible for bringing the
    /// accelerator up at `node` (the destination half of a cross-board
    /// migration, where the instance is restored from a transferred
    /// snapshot and loaded via [`System::reconfigure`]).
    pub fn adopt_service(
        &mut self,
        service: ServiceId,
        node: NodeId,
        app: AppId,
        policy: FaultPolicy,
        bitstream_bytes: u64,
        factory: AccelFactory,
    ) {
        let next_checkpoint_at = self.first_checkpoint_due();
        self.supervisor.specs.push(ServiceSpec {
            service,
            node,
            app,
            policy,
            bitstream_bytes,
            factory,
            clients: Vec::new(),
            restarts_used: 0,
            abandoned: false,
            next_checkpoint_at,
        });
    }

    /// Removes a supervised service from this board: drops its spec and
    /// stored checkpoint, closes any open incident, and decommissions its
    /// tile so no stale authority survives. The source half of a
    /// cross-board migration. Returns the node it was removed from.
    pub fn undeploy_service(&mut self, service: ServiceId) -> Option<NodeId> {
        let idx = self
            .supervisor
            .specs
            .iter()
            .position(|s| s.service == service)?;
        if let Some(ii) = self.supervisor.open_incident(service) {
            self.supervisor.incidents[ii].phase = Phase::Closed;
        }
        let spec = self.supervisor.specs.remove(idx);
        self.supervisor.checkpoints.remove(service.0);
        let now = self.clock.now();
        let tile = &mut self.tiles[spec.node.index()];
        tile.monitor.reset(now);
        tile.monitor.fail_stop(now);
        tile.accel = None;
        tile.app = None;
        tile.env = CapEnv::new();
        Some(spec.node)
    }

    /// The board's checkpoint store (inspection and replication).
    pub fn checkpoint_store(&self) -> &CheckpointStore {
        self.supervisor.checkpoints()
    }

    /// Mutable checkpoint store (the cluster adopts replicated snapshots).
    pub fn checkpoint_store_mut(&mut self) -> &mut CheckpointStore {
        self.supervisor.checkpoints_mut()
    }

    /// Wires `client` to a supervised service: binds the logical name to
    /// the service's current home in the client's name table, grants the
    /// client a SEND capability for it, opens the reply path, and records
    /// the client so recovery re-wires it. Returns the client's service
    /// capability — it stays valid across restarts *and* migrations,
    /// because service naming is late-bound (§4.3).
    ///
    /// # Errors
    ///
    /// Node or capability errors; `SlotEmpty` if the service is unknown.
    pub fn attach_client(
        &mut self,
        client: NodeId,
        service: ServiceId,
    ) -> Result<CapRef, SystemError> {
        let home = self
            .supervisor
            .service_home(service)
            .ok_or(SystemError::BadNode(NodeId(u16::MAX)))?;
        let cap = self.bind_service(client, service, home)?;
        let hometile = &mut self.tiles[home.index()];
        if hometile.monitor.find_endpoint_cap(client).is_none() {
            hometile.monitor.install_cap(Capability::new(
                CapKind::Endpoint(EndpointId(client.0 as u32)),
                Rights::SEND,
            ))?;
        }
        let spec = self
            .supervisor
            .specs
            .iter_mut()
            .find(|s| s.service == service)
            .expect("home lookup succeeded above");
        if !spec.clients.contains(&client) {
            spec.clients.push(client);
        }
        Ok(cap)
    }

    /// The supervisor's incident log (detection/recovery cycles, MTTR).
    pub fn incidents(&self) -> &[Incident] {
        self.supervisor.incidents()
    }

    /// MTTR samples (cycles) for all recovered incidents.
    pub fn mttr_samples(&self) -> Vec<u64> {
        self.supervisor.mttr_samples()
    }

    /// Current home node of a supervised service.
    pub fn service_home(&self, service: ServiceId) -> Option<NodeId> {
        self.supervisor.service_home(service)
    }

    /// Periodic checkpointing: snapshot every healthy preemptible service
    /// whose interval elapsed. The tile stalls for the save leg
    /// ([`checkpoint_downtime`]), so checkpoints are not free — E19
    /// measures the trade. A service whose accelerator cannot externalize
    /// state is permanently excused (`next_checkpoint_at = Cycle::MAX`).
    fn checkpoint_pass(&mut self, sup: &mut Supervisor, now: Cycle) {
        let interval = self.cfg.supervisor.checkpoint_interval;
        if interval == 0 {
            return;
        }
        for spec in &mut sup.specs {
            if spec.abandoned || now < spec.next_checkpoint_at {
                continue;
            }
            let node = spec.node;
            if self.reconfig.in_progress(node) {
                continue;
            }
            let tile = &mut self.tiles[node.index()];
            if tile.monitor.state() != TileState::Running || tile.busy_until > now {
                continue;
            }
            let Some(accel) = tile.accel.as_ref() else {
                continue;
            };
            match accel.save_state() {
                Some(state) => {
                    let len = state.len();
                    tile.busy_until = now + checkpoint_downtime(len);
                    let seq = sup.checkpoints.put(spec.service.0, now, state);
                    tile.monitor.tracer_mut().record(
                        now,
                        node.0,
                        EventKind::Note(format!("checkpoint seq {seq} ({len} B)")),
                    );
                    spec.next_checkpoint_at = now + interval;
                }
                None => {
                    spec.next_checkpoint_at = Cycle::MAX;
                }
            }
        }
    }

    /// One supervisor pass: take due checkpoints, detect fail-stopped
    /// services, escalate through the restart/migrate ladder, and finish
    /// recoveries whose bitstream completed. Runs at the end of every tick
    /// when enabled.
    fn step_supervisor(&mut self, now: Cycle) {
        let mut sup = std::mem::take(&mut self.supervisor);
        self.checkpoint_pass(&mut sup, now);
        for si in 0..sup.specs.len() {
            let service = sup.specs[si].service;
            match sup.open_incident(service) {
                None => {
                    // Detection: the service's home tile fail-stopped. Once
                    // an incident was abandoned the service stays down —
                    // re-detecting it every cycle would flood the log.
                    let node = sup.specs[si].node;
                    if self.tiles[node.index()].monitor.state() != TileState::FailStopped
                        || self.reconfig.in_progress(node)
                        || sup.specs[si].abandoned
                    {
                        continue;
                    }
                    let spec = &sup.specs[si];
                    let code = self.tiles[node.index()].faults.last().map_or(0, |f| f.code);
                    let backoff = self
                        .cfg
                        .supervisor
                        .restart_backoff
                        .saturating_mul(1u64 << spec.restarts_used.min(16));
                    let target = if spec.restarts_used < self.cfg.supervisor.max_restarts {
                        RecoveryTarget::InPlace(node)
                    } else if let Some(spare) = sup.free_spares.pop_front() {
                        RecoveryTarget::Migrate(spare)
                    } else {
                        RecoveryTarget::Abandoned
                    };
                    let phase = if target == RecoveryTarget::Abandoned {
                        sup.specs[si].abandoned = true;
                        Phase::Closed
                    } else {
                        Phase::Backoff {
                            restart_at: now + backoff,
                        }
                    };
                    sup.incidents.push(Incident {
                        service,
                        node,
                        code,
                        detected_at: now,
                        recovered_at: None,
                        target,
                        warm: false,
                        phase,
                    });
                }
                Some(ii) => {
                    let (target, phase) = (sup.incidents[ii].target, sup.incidents[ii].phase);
                    let dst = match target {
                        RecoveryTarget::InPlace(n) | RecoveryTarget::Migrate(n) => n,
                        RecoveryTarget::Abandoned => continue,
                    };
                    match phase {
                        Phase::Backoff { restart_at } if now >= restart_at => {
                            // Warm path: restore the latest verified
                            // checkpoint into the fresh instance before
                            // loading it. The snapshot crosses the ICAP
                            // with the bitstream, so recovery time scales
                            // with state size; a missing or corrupt
                            // snapshot falls back to the cold
                            // factory-fresh path.
                            let warm_state =
                                sup.checkpoints.latest(service.0).map(|s| s.state.clone());
                            let spec = &mut sup.specs[si];
                            let mut accel = (spec.factory)();
                            let mut warm_bytes = 0u64;
                            let warm = match warm_state {
                                Some(state) if accel.restore_state(&state).is_ok() => {
                                    warm_bytes = state.len() as u64;
                                    true
                                }
                                _ => false,
                            };
                            // A busy ICAP just pushes the restart out.
                            match self.reconfigure(
                                dst,
                                accel,
                                spec.app,
                                spec.policy,
                                spec.bitstream_bytes + warm_bytes,
                            ) {
                                Ok(_) => {
                                    spec.restarts_used += 1;
                                    sup.incidents[ii].phase = Phase::Reconfiguring;
                                    sup.incidents[ii].warm = warm;
                                    if warm {
                                        sup.checkpoints.warm_restores += 1;
                                    }
                                }
                                Err(_) => {
                                    // The ICAP is mid-flight on this very
                                    // tile. Rather than silently polling
                                    // every cycle, park the incident until
                                    // the blocking job lands — the exact
                                    // cycle the old retry loop would have
                                    // first succeeded — and leave a span in
                                    // the trace so the stall is visible.
                                    let resume = self
                                        .reconfig
                                        .completion_of(dst)
                                        .unwrap_or_else(|| now.saturating_add(1));
                                    sup.incidents[ii].phase = Phase::Backoff { restart_at: resume };
                                    self.tiles[dst.index()].monitor.tracer_mut().record(
                                        now,
                                        dst.0,
                                        EventKind::Note(format!(
                                            "supervisor restart blocked by reconfig; retry at {resume}"
                                        )),
                                    );
                                }
                            }
                        }
                        Phase::Reconfiguring if !self.reconfig.in_progress(dst) => {
                            // Bitstream done; the tile came back reset this
                            // tick. Rewire clients and close the incident.
                            let spec = &mut sup.specs[si];
                            let old = spec.node;
                            if old != dst {
                                // Decommission the dead tile: wipe every
                                // capability and name binding, then seal it
                                // again so no stale authority survives.
                                let dead = &mut self.tiles[old.index()];
                                dead.monitor.reset(now);
                                dead.monitor.fail_stop(now);
                                dead.accel = None;
                                dead.app = None;
                                dead.env = CapEnv::new();
                            }
                            spec.node = dst;
                            for &c in &spec.clients {
                                self.tiles[c.index()].monitor.bind_service(service.0, dst);
                                let home = &mut self.tiles[dst.index()];
                                if home.monitor.find_endpoint_cap(c).is_none() {
                                    let _ = home.monitor.install_cap(Capability::new(
                                        CapKind::Endpoint(EndpointId(c.0 as u32)),
                                        Rights::SEND,
                                    ));
                                }
                            }
                            sup.incidents[ii].recovered_at = Some(now);
                            sup.incidents[ii].phase = Phase::Closed;
                        }
                        _ => {}
                    }
                }
            }
        }
        self.supervisor = sup;
    }

    /// Manually preempts a tile: saves and immediately restores the
    /// accelerator's state, charging the save/restore downtime. Returns the
    /// snapshot size in bytes.
    ///
    /// # Errors
    ///
    /// [`SystemError::NotPreemptible`] if the accelerator cannot
    /// externalize state.
    pub fn preempt(&mut self, node: NodeId) -> Result<usize, SystemError> {
        self.check_node(node)?;
        let now = self.clock.now();
        let tile = &mut self.tiles[node.index()];
        let accel = tile.accel.as_mut().ok_or(SystemError::SlotEmpty(node))?;
        let Some(snap) = accel.save_state() else {
            return Err(SystemError::NotPreemptible(node));
        };
        accel
            .restore_state(&snap)
            .expect("an accelerator restores its own snapshot");
        let downtime = preemption_downtime(snap.len());
        tile.busy_until = now + downtime;
        tile.monitor
            .tracer_mut()
            .record(now, node.0, EventKind::Preempt { context: 0 });
        Ok(snap.len())
    }

    /// Installs a *second* tenant on an occupied tile, parked: the tile
    /// time-multiplexes between the active and parked tenants via
    /// [`System::swap_context`]. The parked tenant starts cold (no
    /// snapshot yet) and begins running at its first swap-in.
    ///
    /// # Errors
    ///
    /// [`SystemError::SlotEmpty`] if no active tenant is present,
    /// [`SystemError::SlotOccupied`] if a tenant is already parked.
    pub fn install_shared(
        &mut self,
        node: NodeId,
        accel: Box<dyn Accelerator>,
        app: AppId,
        policy: FaultPolicy,
    ) -> Result<(), SystemError> {
        self.check_node(node)?;
        let tile = &mut self.tiles[node.index()];
        if tile.accel.is_none() {
            return Err(SystemError::SlotEmpty(node));
        }
        if tile.parked.is_some() {
            return Err(SystemError::SlotOccupied(node));
        }
        tile.parked = Some(ParkedTenant {
            accel,
            app,
            policy,
            env: CapEnv::new(),
            snapshot: None,
        });
        Ok(())
    }

    /// Swaps the active and parked tenants on a shared tile: saves the
    /// active tenant's architectural state, restores the incoming tenant
    /// from its last swap-out snapshot (or starts it cold), and charges
    /// the partial-reconfig time model for both legs — the tile stalls
    /// for [`preemption_downtime`] of the combined state crossing the
    /// configuration port. Returns `(outgoing, incoming)` snapshot sizes.
    ///
    /// # Errors
    ///
    /// [`SystemError::NoParkedTenant`] without a second tenant,
    /// [`SystemError::NotPreemptible`] if the active tenant cannot
    /// externalize state (the swap does not happen),
    /// [`SystemError::ReconfigInProgress`] mid-bitstream.
    pub fn swap_context(&mut self, node: NodeId) -> Result<(usize, usize), SystemError> {
        self.check_node(node)?;
        if self.reconfig.in_progress(node) {
            return Err(SystemError::ReconfigInProgress(node));
        }
        let now = self.clock.now();
        let tile = &mut self.tiles[node.index()];
        if tile.parked.is_none() {
            return Err(SystemError::NoParkedTenant(node));
        }
        let outgoing_snap = match tile.accel.as_ref().and_then(|a| a.save_state()) {
            Some(s) => s,
            None => return Err(SystemError::NotPreemptible(node)),
        };
        let mut incoming = tile.parked.take().expect("checked above");
        let in_len = match incoming.snapshot.take() {
            Some(snap) => {
                incoming
                    .accel
                    .restore_state(&snap)
                    .expect("a tenant restores its own snapshot");
                snap.len()
            }
            None => 0,
        };
        let out_len = outgoing_snap.len();
        self.finish_swap(node, incoming, outgoing_snap, now, out_len, in_len)
    }

    /// Second half of [`System::swap_context`]: park the outgoing tenant
    /// with its snapshot, seat the incoming one, charge the downtime.
    fn finish_swap(
        &mut self,
        node: NodeId,
        incoming: ParkedTenant,
        outgoing_snap: Vec<u8>,
        now: Cycle,
        out_len: usize,
        in_len: usize,
    ) -> Result<(usize, usize), SystemError> {
        let tile = &mut self.tiles[node.index()];
        let out_accel = tile.accel.take().expect("active tenant was saved");
        let out_app = tile.app;
        let out_policy = tile.policy;
        let out_env = std::mem::replace(&mut tile.env, incoming.env);
        tile.accel = Some(incoming.accel);
        tile.app = Some(incoming.app);
        tile.policy = incoming.policy;
        tile.parked = Some(ParkedTenant {
            accel: out_accel,
            app: out_app.expect("active tenant has an app"),
            policy: out_policy,
            env: out_env,
            snapshot: Some(outgoing_snap),
        });
        tile.busy_until = now + preemption_downtime(out_len + in_len);
        tile.wake = Wakeup::AtOrMessage(Cycle::ZERO);
        tile.monitor
            .tracer_mut()
            .record(now, node.0, EventKind::Preempt { context: 1 });
        Ok((out_len, in_len))
    }

    /// Downcasts a tile's *parked* tenant to a concrete type (retention
    /// audits on the swapped-out tenant).
    pub fn parked_as<T: 'static>(&self, n: NodeId) -> Option<&T> {
        self.tiles[n.index()]
            .parked
            .as_ref()?
            .accel
            .as_any()
            .downcast_ref::<T>()
    }

    /// Begins partial reconfiguration of `node` with a new accelerator.
    /// The tile goes offline immediately (correspondents get errors) and
    /// comes back reset when the bitstream finishes loading. Returns the
    /// completion cycle.
    ///
    /// # Errors
    ///
    /// Node errors or [`SystemError::ReconfigInProgress`].
    pub fn reconfigure(
        &mut self,
        node: NodeId,
        accel: Box<dyn Accelerator>,
        app: AppId,
        policy: FaultPolicy,
        bitstream_bytes: u64,
    ) -> Result<Cycle, SystemError> {
        self.check_node(node)?;
        if self.reconfig.in_progress(node) {
            return Err(SystemError::ReconfigInProgress(node));
        }
        let now = self.clock.now();
        let tile = &mut self.tiles[node.index()];
        tile.accel = None;
        tile.app = None;
        tile.monitor.fail_stop(now);
        Ok(self
            .reconfig
            .start(now, node, accel, app, policy, bitstream_bytes))
    }

    // ------------------------------------------------------------------
    // The cycle loop.
    // ------------------------------------------------------------------

    /// Advances the machine by one cycle (the dense reference clock: every
    /// kernel phase runs every cycle). The event clock in [`System::run`]
    /// reaches the same states by running `cycle_phases` only on cycles a
    /// component scheduled a wakeup for.
    pub fn tick(&mut self) {
        let now = self.clock.tick();
        self.noc.step();
        self.cycle_phases(now);
    }

    /// Everything a cycle does after the NoC moves its flits: reconfig
    /// completions, inbound pumping, accelerator wakes, watchdogs, outbound
    /// pumping and the supervisor. Both clocks funnel through this, so a
    /// cycle that runs is identical under either; the clocks differ only in
    /// *which* cycles run.
    fn cycle_phases(&mut self, now: Cycle) {
        // Completed reconfigurations come online reset.
        for job in self.reconfig.take_completed(now) {
            let tile = &mut self.tiles[job.node.index()];
            tile.monitor.reset(now);
            tile.accel = Some(job.accel);
            tile.app = Some(job.app);
            tile.policy = job.policy;
            tile.env = CapEnv::new();
            tile.busy_until = now;
            tile.wake = Wakeup::AtOrMessage(Cycle::ZERO);
        }

        // Deliveries into monitors (fail-stopped tiles NACK here). Skip
        // tiles with nothing ejected: pump_in is a no-op for them, and most
        // tiles are quiet most cycles.
        for (i, tile) in self.tiles.iter_mut().enumerate() {
            if self.noc.eject_pending(NodeId(i as u16)) > 0 {
                tile.monitor.pump_in(&mut self.noc, now);
            }
        }

        // Accelerator execution.
        for i in 0..self.tiles.len() {
            let node = NodeId(i as u16);
            if self.reconfig.in_progress(node) {
                continue;
            }
            {
                let tile = &self.tiles[i];
                if tile.accel.is_none()
                    || tile.monitor.state() == TileState::FailStopped
                    || tile.busy_until > now
                {
                    continue;
                }
            }
            let tile = &mut self.tiles[i];
            let mut accel = tile.accel.take().expect("checked above");
            let (wake, raised) = {
                let mut os = KernelOs::new(&mut tile.monitor, &tile.env, now);
                let wake = accel.wake(now, &mut os);
                (wake, os.raised)
            };
            tile.accel = Some(accel);
            tile.wake = wake;
            if let Some(&code) = raised.first() {
                self.apply_fault(node, code, now);
            }
        }

        // Watchdog: tiles sitting on unconsumed traffic beyond their
        // window are treated as hung (§4.4) and get the fault policy.
        for i in 0..self.tiles.len() {
            if self.tiles[i].monitor.hang_detected(now) {
                self.apply_fault(NodeId(i as u16), crate::fault::WATCHDOG_FAULT, now);
            }
        }

        // Outbound traffic into the NoC; empty outboxes have nothing to do.
        for tile in &mut self.tiles {
            if tile.monitor.outbox_len() > 0 {
                tile.monitor.pump_out(&mut self.noc, now);
            }
        }

        // Self-healing: detect fail-stopped services and drive recovery.
        if self.cfg.supervisor.enabled {
            self.step_supervisor(now);
        }
    }

    /// The next cycle, no later than `horizon`, at which the kernel phases
    /// could do something a skipped cycle would not: a reconfiguration
    /// completes, an outbox head becomes ready, a watchdog window expires,
    /// an accelerator's scheduled wakeup (or a message already waiting for
    /// an `OnMessage` sleeper) comes due, or the supervisor has a detection
    /// or backoff expiry pending. Undelivered NoC traffic is handled by the
    /// caller, which steps the NoC densely while anything is in flight.
    fn next_phase_due(&self, now: Cycle, horizon: Cycle) -> Cycle {
        let next = now.saturating_add(1);
        if self.noc.rx_pending_total() > 0 {
            return next;
        }
        let mut due = horizon;
        if let Some(t) = self.reconfig.next_completion() {
            due = due.min(t.max(next));
        }
        for tile in &self.tiles {
            if let Some(ready) = tile.monitor.outbox_next_ready() {
                due = due.min(ready.max(next));
            }
            if let Some(t) = tile.monitor.hang_deadline() {
                due = due.min(t.max(next));
            }
            if tile.accel.is_some() && tile.monitor.state() != TileState::FailStopped {
                let deadline = if tile.wake.wakes_on_message() && tile.monitor.inbox_len() > 0 {
                    // The message it was sleeping on is already here.
                    next
                } else {
                    tile.wake.deadline()
                };
                if deadline != Cycle::MAX {
                    due = due.min(deadline.max(tile.busy_until).max(next));
                }
            }
        }
        if self.cfg.supervisor.enabled {
            due = due.min(self.supervisor_due(next));
        }
        due.max(next)
    }

    /// The supervisor's contribution to [`System::next_phase_due`]: `next`
    /// if a fail-stop is waiting to be detected, else the earliest backoff
    /// expiry or periodic-checkpoint deadline. Reconfiguring incidents
    /// close on the bitstream completion cycle, which the reconfig
    /// deadline already covers. A due-but-blocked checkpoint (tile busy)
    /// re-arms at `busy_until` — the first cycle the dense clock's
    /// every-cycle retry would have succeeded.
    fn supervisor_due(&self, next: Cycle) -> Cycle {
        let mut due = Cycle::MAX;
        for spec in &self.supervisor.specs {
            match self.supervisor.open_incident(spec.service) {
                None => {
                    let node = spec.node;
                    if spec.abandoned {
                        continue;
                    }
                    let tile = &self.tiles[node.index()];
                    if tile.monitor.state() == TileState::FailStopped
                        && !self.reconfig.in_progress(node)
                    {
                        return next;
                    }
                    if spec.next_checkpoint_at != Cycle::MAX
                        && tile.monitor.state() == TileState::Running
                        && !self.reconfig.in_progress(node)
                    {
                        due = due.min(spec.next_checkpoint_at.max(tile.busy_until).max(next));
                    }
                }
                Some(ii) => {
                    if let Phase::Backoff { restart_at } = self.supervisor.incidents[ii].phase {
                        due = due.min(restart_at.max(next));
                    }
                }
            }
        }
        due
    }

    /// The cycle at which this system's kernel phases next have something
    /// to do (`next_phase_due` with no horizon). A lockstep
    /// driver that advances several systems against one shared clock (the
    /// cluster) reads it once per step, takes `now + 1` instead while
    /// [`Noc::pending`] is nonzero, and hands it back to
    /// [`System::lockstep_cycle`].
    pub fn phases_due(&self) -> Cycle {
        self.next_phase_due(self.clock.now(), Cycle::MAX)
    }

    /// Whether the NoC has nothing in flight and nothing delivered but not
    /// yet pumped into a monitor: stepping it would be a no-op.
    fn noc_quiet(&self) -> bool {
        self.noc.pending() == 0 && self.noc.rx_pending_total() == 0
    }

    /// One event-clock cycle: move to `now`, stepping the NoC if it has
    /// traffic in flight or undrained (then `now` must be the next cycle)
    /// and skipping the idle interconnect otherwise, then run the kernel
    /// phases if `phase_due` has come or a delivery is waiting — a delivery
    /// re-arms every `OnMessage` sleeper. Every cycle before `phase_due`
    /// without a delivery is a no-op for the phases, so they are skipped.
    /// Returns whether the phases ran. The single-board event clock and
    /// lockstep drivers share this body.
    pub fn lockstep_cycle(&mut self, now: Cycle, phase_due: Cycle) -> bool {
        if self.noc_quiet() {
            self.noc.skip_idle_to(now);
            self.clock.advance_to(now);
        } else {
            debug_assert_eq!(now, self.clock.now().saturating_add(1));
            self.clock.tick();
            self.noc.step();
        }
        let run = now >= phase_due || self.noc.rx_pending_total() > 0;
        if run {
            self.cycle_phases(now);
        }
        run
    }

    /// One event-clock step: advance to the next cycle where the kernel
    /// phases can matter — stepping the NoC cycle-by-cycle while traffic is
    /// in flight, jumping the clock outright when the interconnect is
    /// provably idle — then run the phases for that cycle. Always advances
    /// at least one cycle and never beyond `horizon`.
    fn event_step(&mut self, horizon: Cycle) {
        let due = self.next_phase_due(self.clock.now(), horizon);
        loop {
            let now = if self.noc_quiet() {
                due
            } else {
                self.clock.now().saturating_add(1)
            };
            if self.lockstep_cycle(now, due) {
                break;
            }
        }
    }

    /// One scheduling step, never beyond `horizon`: one [`System::tick`]
    /// under [`ClockMode::Dense`], or one event-clock step to the next
    /// scheduled wakeup under [`ClockMode::Event`]. The drivers below are
    /// loops over this, so it is where they read the clock mode.
    fn step(&mut self, horizon: Cycle) {
        if clock_mode() == ClockMode::Dense {
            self.tick();
        } else {
            self.event_step(horizon);
        }
    }

    /// Runs for `cycles` cycles. Under [`ClockMode::Event`] the clock jumps
    /// between scheduled wakeups; under [`ClockMode::Dense`] every cycle is
    /// ticked. Both end at exactly the same time with bit-identical state.
    pub fn run(&mut self, cycles: u64) {
        let end = self.clock.now().saturating_add(cycles);
        while self.clock.now() < end {
            self.step(end);
        }
    }

    /// Advances time by one scheduling step: one cycle under the dense
    /// clock, or up to the next scheduled wakeup (never beyond `horizon`)
    /// under the event clock. Harness components attached directly to
    /// monitors — load generators, experiment drivers — use this to
    /// interleave their own wakeups with the kernel's event loop: compute
    /// your next deadline, `advance_toward` it in a loop, and check your
    /// tiles for mail after each step.
    pub fn advance_toward(&mut self, horizon: Cycle) {
        if self.clock.now() < horizon {
            self.step(horizon);
        }
    }

    /// Runs until `pred` returns `true` or `max_cycles` elapse; returns
    /// whether the predicate fired. Under the dense clock the predicate is
    /// checked after every cycle; under the event clock it is checked after
    /// every cycle whose kernel phases ran. The two stop on exactly the
    /// same cycle provided `pred` is a function of component state (which
    /// only changes on phase cycles), not of raw clock time.
    pub fn run_until(&mut self, max_cycles: u64, mut pred: impl FnMut(&System) -> bool) -> bool {
        let end = self.clock.now().saturating_add(max_cycles);
        while self.clock.now() < end {
            self.step(end);
            if pred(self) {
                return true;
            }
        }
        false
    }

    /// Runs until no traffic has been in flight for a settle window (long
    /// enough to cover in-progress accelerator compute), or until
    /// `max_cycles` elapse; returns `true` on quiescence.
    ///
    /// "Idle" means the NoC and all outbound queues are empty. Messages
    /// already delivered into inboxes do not count: an undriven tile (e.g.
    /// a test client) may leave responses unread indefinitely.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> bool {
        const SETTLE: u64 = 4096;
        let end = self.clock.now().saturating_add(max_cycles);
        if clock_mode() == ClockMode::Dense {
            let mut quiet = 0u64;
            for _ in 0..max_cycles {
                self.tick();
                if self.is_idle() {
                    quiet += 1;
                    if quiet >= SETTLE {
                        return true;
                    }
                } else {
                    quiet = 0;
                }
            }
            return self.is_idle();
        }
        // Event clock: the idle streak only breaks on cycles the phases
        // run, so count the skipped cycles in bulk. The settle window ends
        // at exactly the cycle dense ticking would have stopped on.
        let mut quiet = 0u64;
        while self.clock.now() < end {
            let now = self.clock.now();
            let due = self.next_phase_due(now, end);
            if self.is_idle() {
                let finish = now.saturating_add(SETTLE.saturating_sub(quiet));
                if finish < due {
                    self.noc.skip_idle_to(finish);
                    self.clock.advance_to(finish);
                    return true;
                }
                quiet += due.saturating_since(now).saturating_sub(1);
                self.noc.skip_idle_to(due);
                self.clock.advance_to(due);
                self.cycle_phases(due);
            } else {
                quiet = 0;
                self.event_step(end);
            }
            if self.is_idle() {
                quiet += 1;
                if quiet >= SETTLE {
                    return true;
                }
            } else {
                quiet = 0;
            }
        }
        self.is_idle()
    }

    /// Returns `true` when no traffic is in flight (see
    /// [`System::run_until_idle`] for the caveat about compute in
    /// progress).
    pub fn is_idle(&self) -> bool {
        self.noc.pending() == 0 && self.tiles.iter().all(|t| t.monitor.outbox_len() == 0)
    }

    fn apply_fault(&mut self, node: NodeId, code: u32, now: Cycle) {
        let tile = &mut self.tiles[node.index()];
        let preemptible = tile.accel.as_ref().is_some_and(|a| a.is_preemptible());
        let action = if tile.policy == FaultPolicy::Preempt && preemptible {
            let accel = tile.accel.as_mut().expect("present if preemptible");
            let snap = accel.save_state().expect("preemptible accelerators save");
            accel
                .restore_state(&snap)
                .expect("an accelerator restores its own snapshot");
            let downtime = preemption_downtime(snap.len());
            tile.busy_until = now + downtime;
            tile.monitor
                .tracer_mut()
                .record(now, node.0, EventKind::Preempt { context: 0 });
            FaultAction::Preempted { downtime }
        } else {
            tile.monitor.fail_stop(now);
            FaultAction::FailStopped
        };
        tile.faults.push(FaultRecord {
            code,
            at: now,
            action,
        });
    }

    // ------------------------------------------------------------------
    // Introspection (Figure 1 rendering and debugging).
    // ------------------------------------------------------------------

    /// Collects every tile's trace events into one time-sorted stream —
    /// system-wide `strace` for the message layer (§3's debugging goal).
    /// Tiles must have been configured with a nonzero `trace_depth` to
    /// contribute ring events; counter-only monitors contribute nothing.
    pub fn merged_trace(&self) -> Vec<apiary_trace::Event> {
        let mut events: Vec<apiary_trace::Event> = self
            .tiles
            .iter()
            .flat_map(|t| t.monitor.tracer().events().cloned())
            .collect();
        events.sort_by_key(|e| (e.at, e.tile));
        events
    }

    /// Renders the tile map as ASCII art — the textual reproduction of the
    /// paper's Figure 1 for an arbitrary configuration.
    pub fn render_map(&self) -> String {
        use core::fmt::Write;
        let mesh = self.noc.mesh();
        let mut out = String::new();
        const W: usize = 20;
        for y in (0..mesh.height).rev() {
            let mut row_top = String::new();
            let mut row_mid = String::new();
            let mut row_bot = String::new();
            for x in 0..mesh.width {
                let n = mesh.node(apiary_noc::Coord::new(x, y));
                let tile = &self.tiles[n.index()];
                let app = tile
                    .app
                    .map(|a| format!("{a}"))
                    .unwrap_or_else(|| "free".to_string());
                let state = match tile.monitor.state() {
                    TileState::Running => "",
                    TileState::FailStopped => "!",
                };
                let name: String = tile.accel_name().chars().take(W - 4).collect();
                row_top.push_str(&format!("+{:-<w$}", "", w = W - 1));
                row_mid.push_str(&format!("|{:<w$}", format!("{n}{state} {name}"), w = W - 1));
                row_bot.push_str(&format!("|{:<w$}", format!("  {app} [mon+rtr]"), w = W - 1));
            }
            let _ = writeln!(out, "{row_top}+");
            let _ = writeln!(out, "{row_mid}|");
            let _ = writeln!(out, "{row_bot}|");
        }
        let _ = writeln!(
            out,
            "{}+",
            format!("+{:-<w$}", "", w = W - 1).repeat(mesh.width as usize)
        );
        out
    }
}
