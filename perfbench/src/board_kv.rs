//! `board_kv`: a closed loop of KV clients on one 4x4 `System`.
//!
//! Tile map (node 15 is the memory service):
//!
//! ```text
//!  0 c   1 c   2 A   3 F
//!  4 c   5 K0  6 S   7 A
//!  8 c   9 c  10 K1 11 B
//! 12 R  13 c  14 B  15 mem
//! ```
//!
//! - `K0` is a `KvStoreService` tile reached by badged endpoint caps; each
//!   client's badge is its own tenant namespace.
//! - `K1` is a supervised KV service with periodic checkpoints, reached by
//!   late-bound service caps.
//! - `S` is one tile shared by two KV tenants, `A` and `B`, which
//!   `System::swap_context` switches every slice. A tenant's clients issue
//!   only while it holds the tile; at a slice end the active tenant stops
//!   issuing, drains, and is swapped out.
//! - `F` floods `K1` open-loop at several times the egress rate its
//!   monitor allows, so most of its sends are rate-limited.
//! - `R` is a client of `K0` whose capability is revoked a third of the
//!   way through its requests; every later send is denied.
//!
//! Every other client (`c`, `A`, `B`) runs a closed loop with one request
//! outstanding: a seeded think time, then a Zipf-keyed GET or PUT with a
//! varied value size. Every GET is checked against the client's own
//! acknowledged writes (read-your-writes, across every swap), and at the
//! end every store is audited key by key against the same model.

use crate::spans::{Spans, NO_OP};
use crate::{Length, Outcome, Workload};
use apiary_accel::apps::idle::idle;
use apiary_accel::apps::kv::{self, kv_store, KvStoreAccel};
use apiary_cap::{CapRef, ServiceId};
use apiary_core::{AppId, FaultPolicy, SupervisorConfig, System, SystemConfig};
use apiary_monitor::{wire, Monitor, MonitorConfig, SendError};
use apiary_noc::{Delivered, NodeId, Payload, TrafficClass};
use apiary_sim::rng::ZipfTable;
use apiary_sim::{Cycle, SimRng};
use std::collections::{BTreeMap, HashMap};

const K0: NodeId = NodeId(5);
const K1: NodeId = NodeId(10);
const SHARED: NodeId = NodeId(6);
const FLOODER: NodeId = NodeId(3);
const REVOKED: NodeId = NodeId(12);
/// Service id of the supervised store on `K1`.
const K1_SERVICE: ServiceId = ServiceId(0xB0A2);
/// Cycles between `K1`'s periodic checkpoints.
const CHECKPOINT_INTERVAL: u64 = 20_000;
/// Cycles a shared-tile tenant holds the tile before it is swapped out.
const SLICE: u64 = 6_000;
/// Mean think time between a client's requests, cycles.
const THINK_MEAN: f64 = 150.0;
/// GET share of client requests; the rest are PUTs.
const GET_SHARE: f64 = 0.7;
const ZIPF_THETA: f64 = 0.99;
/// Cycles between the flooder's send attempts.
const FLOOD_PERIOD: u64 = 40;
/// Value bytes per flood PUT.
const FLOOD_VALUE: usize = 256;
/// The flooder's egress allowance: 1 B/cycle, with a 1 KiB burst — about
/// a seventh of the 7 B/cycle it offers.
const FLOOD_RATE: (u64, u64) = (1_000, 1_024);
/// Drain guard: cycles past the expected end before a run counts as
/// wedged.
const STALL_LIMIT: u64 = 5_000_000;

/// Which store a client talks to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    K0,
    K1,
    /// The shared tile, as tenant 0 (`A`) or 1 (`B`).
    Shared(usize),
}

/// One pre-generated client request.
#[derive(Debug, Clone)]
pub struct Op {
    /// Think time before this request is due, cycles.
    pub think: u64,
    pub key: u16,
    pub put: bool,
    /// The request bytes (`kv::get_req` or `kv::put_req`).
    pub payload: Payload,
}

impl Op {
    /// The value a PUT writes.
    fn value(&self) -> &[u8] {
        // [op][klen: u16][key: 3][vlen: u16][value]
        &self.payload[8..]
    }
}

/// One client's role and request list.
#[derive(Debug, Clone)]
pub struct ClientInput {
    pub node: NodeId,
    pub target: Target,
    pub ops: Vec<Op>,
}

/// The generated inputs.
pub struct Input {
    pub clients: Vec<ClientInput>,
    /// The flooder's PUT payloads, one per `FLOOD_PERIOD`.
    pub flood: Vec<Payload>,
    /// Index of the revoked client's request at which its cap is revoked.
    pub revoke_at_op: usize,
}

/// Key bytes: the client's node then the key index, so clients of the
/// unbadged supervised store never share a key.
fn key_bytes(node: NodeId, key: u16) -> [u8; 3] {
    let k = key.to_le_bytes();
    [node.0 as u8, k[0], k[1]]
}

fn gen_ops(
    rng: &mut SimRng,
    node: NodeId,
    count: usize,
    keys: &ZipfTable,
    sizes: &[usize],
) -> Vec<Op> {
    (0..count)
        .map(|_| {
            let think = rng.gen_exp(THINK_MEAN).ceil() as u64;
            let key = keys.sample(rng) as u16;
            let kb = key_bytes(node, key);
            let put = !rng.gen_bool(GET_SHARE);
            let payload = if put {
                let mut value = vec![0u8; *rng.pick(sizes)];
                rng.fill_bytes(&mut value);
                kv::put_req(&kb, &value)
            } else {
                kv::get_req(&kb)
            };
            Op {
                think,
                key,
                put,
                payload: Payload::from(payload),
            }
        })
        .collect()
}

/// The built system and the capability each client sends through.
pub struct State {
    sys: System,
    caps: Vec<CapRef>,
    flood_cap: CapRef,
}

/// The workload.
pub struct BoardKv;

impl Workload for BoardKv {
    type Input = Input;
    type State = State;

    fn generate(seed: u64, length: Length) -> Input {
        let per_client = match length {
            Length::Full => 4_000,
            Length::Short => 120,
        };
        let mut rng = SimRng::new(seed ^ 0xB0A2_D000);
        // Store sizes fall with how often the store's state is moved: K0
        // never, K1 at every checkpoint, the shared tile at every swap.
        let wide = (ZipfTable::new(256, ZIPF_THETA), [8, 32, 128, 512, 1_024]);
        let medium = (ZipfTable::new(64, ZIPF_THETA), [8, 16, 64, 128, 256]);
        let narrow = (ZipfTable::new(24, ZIPF_THETA), [8, 16, 24, 32, 64]);
        let roles: [(u16, Target); 11] = [
            (0, Target::K0),
            (1, Target::K0),
            (4, Target::K0),
            (REVOKED.0, Target::K0),
            (8, Target::K1),
            (9, Target::K1),
            (13, Target::K1),
            (2, Target::Shared(0)),
            (7, Target::Shared(0)),
            (11, Target::Shared(1)),
            (14, Target::Shared(1)),
        ];
        let clients = roles
            .iter()
            .map(|&(n, target)| {
                let node = NodeId(n);
                let (keys, sizes) = match target {
                    Target::K0 => &wide,
                    Target::K1 => &medium,
                    Target::Shared(_) => &narrow,
                };
                let ops = gen_ops(&mut rng, node, per_client, keys, sizes);
                ClientInput { node, target, ops }
            })
            .collect();
        // The flood lasts about as long as the clients' expected run.
        let flood_len = per_client as u64 * (THINK_MEAN as u64 + 60) / FLOOD_PERIOD;
        let flood = (0..flood_len)
            .map(|i| {
                let mut value = vec![0u8; FLOOD_VALUE];
                rng.fill_bytes(&mut value);
                Payload::from(kv::put_req(&key_bytes(FLOODER, (i % 8) as u16), &value))
            })
            .collect();
        Input {
            clients,
            flood,
            revoke_at_op: per_client / 3,
        }
    }

    fn setup(input: &Input) -> State {
        let mut sys = System::new(SystemConfig {
            supervisor: SupervisorConfig {
                enabled: true,
                checkpoint_interval: CHECKPOINT_INTERVAL,
                ..SupervisorConfig::default()
            },
            ..SystemConfig::default()
        });
        sys.tile_mut(FLOODER).monitor = Monitor::new(
            FLOODER,
            MonitorConfig {
                rate: Some(FLOOD_RATE),
                ..MonitorConfig::default()
            },
        );
        let app = AppId(1);
        let policy = FaultPolicy::FailStop;
        sys.install(K0, Box::new(kv_store()), app, policy)
            .expect("K0 slot is free");
        sys.install(SHARED, Box::new(kv_store()), app, policy)
            .expect("shared slot is free");
        sys.install_shared(SHARED, Box::new(kv_store()), AppId(2), policy)
            .expect("shared tile takes a parked tenant");
        sys.deploy_service(
            K1_SERVICE,
            K1,
            app,
            policy,
            0,
            Box::new(|| Box::new(kv_store())),
        )
        .expect("K1 slot is free");
        let mut caps = Vec::with_capacity(input.clients.len());
        for c in &input.clients {
            sys.install(c.node, Box::new(idle()), app, policy)
                .expect("client slot is free");
            let cap = match c.target {
                Target::K1 => sys.attach_client(c.node, K1_SERVICE).expect("K1 deployed"),
                Target::K0 | Target::Shared(_) => {
                    let to = if c.target == Target::K0 { K0 } else { SHARED };
                    let badge = u64::from(c.node.0) + 1;
                    let cap = sys
                        .connect_badged(c.node, to, badge, true)
                        .expect("client cap");
                    sys.connect(to, c.node, true).expect("reply path");
                    cap
                }
            };
            caps.push(cap);
        }
        sys.install(FLOODER, Box::new(idle()), app, policy)
            .expect("flooder slot is free");
        let flood_cap = sys.attach_client(FLOODER, K1_SERVICE).expect("K1 deployed");
        State {
            sys,
            caps,
            flood_cap,
        }
    }

    fn run<S: Spans>(state: &mut State, input: &Input, spans: &mut S) -> Outcome {
        KvRun::new(state, input).run(spans)
    }
}

/// A request in flight: `(tag, due cycle, op index)`.
type InFlight = (u64, u64, usize);

struct Client<'a> {
    input: &'a ClientInput,
    cap: CapRef,
    next: usize,
    due: u64,
    in_flight: Option<InFlight>,
    /// Key -> op index of the last acknowledged PUT.
    model: HashMap<u16, usize>,
    /// GETs checked after the client's tenant had been swapped out and in.
    reads_after_swap: u64,
}

impl Client<'_> {
    fn done(&self) -> bool {
        self.next == self.input.ops.len() && self.in_flight.is_none()
    }
}

struct KvRun<'a> {
    sys: &'a mut System,
    input: &'a Input,
    clients: Vec<Client<'a>>,
    flood_cap: CapRef,
    flood_next: usize,
    flood_in_flight: BTreeMap<u64, u64>,
    /// Active shared-tile tenant; `draining` once its slice is over.
    active: usize,
    draining: bool,
    next_swap: u64,
    swaps: u64,
    swap_bytes: u64,
    swaps_seen: [u64; 2],
    revoked: bool,
    next_tag: u64,
    advance_calls: u64,
    out: Outcome,
}

impl<'a> KvRun<'a> {
    fn new(state: &'a mut State, input: &'a Input) -> KvRun<'a> {
        let clients = input
            .clients
            .iter()
            .zip(&state.caps)
            .map(|(ci, &cap)| Client {
                input: ci,
                cap,
                next: 0,
                due: ci.ops.first().map_or(0, |o| o.think),
                in_flight: None,
                model: HashMap::new(),
                reads_after_swap: 0,
            })
            .collect();
        KvRun {
            sys: &mut state.sys,
            input,
            clients,
            flood_cap: state.flood_cap,
            flood_next: 0,
            flood_in_flight: BTreeMap::new(),
            active: 0,
            draining: false,
            next_swap: SLICE,
            swaps: 0,
            swap_bytes: 0,
            swaps_seen: [0; 2],
            revoked: false,
            next_tag: 1,
            advance_calls: 0,
            out: Outcome::default(),
        }
    }

    fn tenant_has_work(&self, tenant: usize) -> bool {
        self.clients
            .iter()
            .any(|c| c.input.target == Target::Shared(tenant) && !c.done())
    }

    fn tenant_in_flight(&self, tenant: usize) -> bool {
        self.clients
            .iter()
            .any(|c| c.input.target == Target::Shared(tenant) && c.in_flight.is_some())
    }

    fn may_issue(&self, target: Target) -> bool {
        match target {
            Target::Shared(t) => t == self.active && !self.draining,
            _ => true,
        }
    }

    /// Checks one response against the client's model.
    fn absorb(&mut self, ci: usize, d: Delivered, now: u64) {
        let c = &mut self.clients[ci];
        let Some((tag, due, op_idx)) = c.in_flight else {
            self.out.errors.push(format!(
                "{:?}: response with nothing in flight",
                c.input.node
            ));
            return;
        };
        if d.msg.tag != tag {
            self.out.errors.push(format!(
                "{:?}: response tag {} for request {tag}",
                c.input.node, d.msg.tag
            ));
            return;
        }
        c.in_flight = None;
        c.due = now + c.input.ops.get(c.next).map_or(0, |o| o.think);
        let op = &c.input.ops[op_idx];
        if d.msg.kind != wire::KIND_RESPONSE {
            self.out.failed += 1;
            self.out.errors.push(format!(
                "{:?}: request {op_idx} got an error reply",
                c.input.node
            ));
            return;
        }
        let ok = match kv::parse_resp(&d.msg.payload) {
            Some((kv::status::OK, None)) if op.put => {
                c.model.insert(op.key, op_idx);
                true
            }
            Some((status, value)) if !op.put => match c.model.get(&op.key) {
                Some(&w) => status == kv::status::OK && value == Some(c.input.ops[w].value()),
                None => status == kv::status::NOT_FOUND,
            },
            _ => false,
        };
        if !ok {
            self.out.errors.push(format!(
                "{:?}: read-your-writes broken at request {op_idx} (key {})",
                c.input.node, op.key
            ));
            return;
        }
        if !op.put {
            if let Target::Shared(t) = c.input.target {
                if self.swaps_seen[t] > 0 {
                    c.reads_after_swap += 1;
                }
            }
        }
        self.out.completed += 1;
        self.out.latencies.push(now - due);
    }

    fn absorb_flood(&mut self, d: Delivered, now: u64) {
        match self.flood_in_flight.remove(&d.msg.tag) {
            Some(due) if d.msg.kind == wire::KIND_RESPONSE => {
                self.out.completed += 1;
                self.out.latencies.push(now - due);
            }
            _ => self
                .out
                .errors
                .push(format!("flooder: unexpected reply for tag {}", d.msg.tag)),
        }
    }

    fn collect(&mut self, now: u64) {
        for ci in 0..self.clients.len() {
            let node = self.clients[ci].input.node;
            while let Some(d) = self.sys.tile_mut(node).monitor.recv() {
                self.absorb(ci, d, now);
            }
        }
        while let Some(d) = self.sys.tile_mut(FLOODER).monitor.recv() {
            self.absorb_flood(d, now);
        }
    }

    fn swap_if_due<S: Spans>(&mut self, now: u64, spans: &mut S) {
        let other = 1 - self.active;
        if !self.draining
            && (now >= self.next_swap || !self.tenant_has_work(self.active))
            && self.tenant_has_work(other)
        {
            self.draining = true;
        }
        if self.draining && !self.tenant_in_flight(self.active) {
            let sys = &mut *self.sys;
            match spans.time("core.swap", NO_OP, || sys.swap_context(SHARED)) {
                Ok((out_bytes, in_bytes)) => {
                    self.swaps += 1;
                    self.swap_bytes += (out_bytes + in_bytes) as u64;
                    self.swaps_seen[self.active] += 1;
                    self.active = other;
                    self.next_swap = now + SLICE;
                    self.draining = false;
                }
                Err(e) => {
                    self.out.errors.push(format!("swap_context failed: {e}"));
                    self.draining = false;
                    self.next_swap = u64::MAX;
                }
            }
        }
    }

    fn issue<S: Spans>(&mut self, now: u64, spans: &mut S) {
        for ci in 0..self.clients.len() {
            let c = &self.clients[ci];
            if c.in_flight.is_some() || c.next == c.input.ops.len() || c.due > now {
                continue;
            }
            if !self.may_issue(c.input.target) {
                continue;
            }
            let node = c.input.node;
            if node == REVOKED && c.next == self.input.revoke_at_op && !self.revoked {
                self.revoked = true;
                let cap = c.cap;
                if let Err(e) = self.sys.tile_mut(node).monitor.revoke_cap(cap) {
                    self.out.errors.push(format!("revoke failed: {e}"));
                }
            }
            let op_idx = c.next;
            let payload = c.input.ops[op_idx].payload.clone();
            let cap = c.cap;
            let tag = self.next_tag;
            self.next_tag += 1;
            let mon = &mut self.sys.tile_mut(node).monitor;
            let res = spans.time("monitor.send", tag, || {
                mon.send(
                    cap,
                    wire::KIND_REQUEST,
                    tag,
                    TrafficClass::Request,
                    payload,
                    Cycle(now),
                )
            });
            self.out.attempted += 1;
            let c = &mut self.clients[ci];
            c.next += 1;
            match res {
                Ok(()) => c.in_flight = Some((tag, c.due, op_idx)),
                Err(e) => {
                    self.out.failed += 1;
                    if !(node == REVOKED && self.revoked && matches!(e, SendError::Cap(_))) {
                        self.out
                            .errors
                            .push(format!("{node:?}: send {op_idx} refused: {e}"));
                    }
                    c.due = now + c.input.ops.get(c.next).map_or(0, |o| o.think);
                }
            }
        }
    }

    fn flood<S: Spans>(&mut self, now: u64, spans: &mut S) {
        while self.flood_next < self.input.flood.len()
            && self.flood_next as u64 * FLOOD_PERIOD <= now
        {
            let due = self.flood_next as u64 * FLOOD_PERIOD;
            let payload = self.input.flood[self.flood_next].clone();
            self.flood_next += 1;
            let tag = self.next_tag;
            self.next_tag += 1;
            let cap = self.flood_cap;
            let mon = &mut self.sys.tile_mut(FLOODER).monitor;
            let res = spans.time("monitor.send", tag, || {
                mon.send(
                    cap,
                    wire::KIND_REQUEST,
                    tag,
                    TrafficClass::Request,
                    payload,
                    Cycle(now),
                )
            });
            self.out.attempted += 1;
            match res {
                Ok(()) => {
                    self.flood_in_flight.insert(tag, due);
                }
                Err(SendError::RateLimited | SendError::Backpressure) => self.out.failed += 1,
                Err(e) => {
                    self.out.failed += 1;
                    self.out.errors.push(format!("flooder send refused: {e}"));
                }
            }
        }
    }

    /// The next cycle anything in the run is due, or `None` when every
    /// request is done.
    fn next_due(&self, now: u64) -> Option<u64> {
        let mut due: Option<u64> = None;
        let mut at = |t: u64| due = Some(due.map_or(t, |d: u64| d.min(t)));
        for c in &self.clients {
            if c.in_flight.is_none() && c.next < c.input.ops.len() && self.may_issue(c.input.target)
            {
                at(c.due.max(now + 1));
            }
        }
        if self.flood_next < self.input.flood.len() {
            at((self.flood_next as u64 * FLOOD_PERIOD).max(now + 1));
        }
        if !self.draining && self.tenant_has_work(1 - self.active) {
            at(self.next_swap.max(now + 1));
        }
        due
    }

    fn anything_in_flight(&self) -> bool {
        !self.flood_in_flight.is_empty() || self.clients.iter().any(|c| c.in_flight.is_some())
    }

    fn mail_waiting(&self) -> bool {
        self.clients
            .iter()
            .any(|c| self.sys.tile(c.input.node).monitor.inbox_len() > 0)
            || self.sys.tile(FLOODER).monitor.inbox_len() > 0
    }

    fn run<S: Spans>(mut self, spans: &mut S) -> Outcome {
        let guard = self.input.clients[0].ops.len() as u64 * 2_000 + STALL_LIMIT;
        loop {
            let now = self.sys.now().as_u64();
            self.collect(now);
            self.swap_if_due(now, spans);
            self.issue(now, spans);
            self.flood(now, spans);
            let due = match self.next_due(now) {
                Some(d) => d,
                None if self.anything_in_flight() => u64::MAX,
                None => break,
            };
            if now > guard {
                self.out
                    .errors
                    .push(format!("board_kv did not finish by cycle {guard}"));
                break;
            }
            let horizon = Cycle(due.min(guard + 1));
            loop {
                let sys = &mut *self.sys;
                spans.time("core.advance", NO_OP, || sys.advance_toward(horizon));
                self.advance_calls += 1;
                if self.sys.now() >= horizon || self.mail_waiting() {
                    break;
                }
            }
        }
        self.finish()
    }

    /// End-of-run audit and per-layer counts.
    fn finish(mut self) -> Outcome {
        let sys = &*self.sys;
        // Every store must hold exactly what each client's model says, and
        // a shared-tile tenant's store none of the other tenant's keys.
        let store_of = |target: Target, tenant_active: bool| match target {
            Target::K0 => sys.accel_as::<KvStoreAccel>(K0),
            Target::K1 => sys.accel_as::<KvStoreAccel>(K1),
            Target::Shared(_) if tenant_active => sys.accel_as::<KvStoreAccel>(SHARED),
            Target::Shared(_) => sys.parked_as::<KvStoreAccel>(SHARED),
        };
        for c in &self.clients {
            let node = c.input.node;
            let active = c.input.target == Target::Shared(self.active);
            let (Some(store), Some(other)) = (
                store_of(c.input.target, active),
                store_of(c.input.target, !active),
            ) else {
                self.out
                    .errors
                    .push(format!("{node:?}: store missing at the end"));
                continue;
            };
            let badge = match c.input.target {
                Target::K1 => 0,
                _ => u64::from(node.0) + 1,
            };
            for (&key, &w) in &c.model {
                let held = store.service().get(badge, &key_bytes(node, key));
                if held != Some(c.input.ops[w].value()) {
                    self.out
                        .errors
                        .push(format!("{node:?}: key {key} lost at the end"));
                }
            }
            if let Target::Shared(_) = c.input.target {
                let (held, leaked) = (
                    store.service().tenant_len(badge),
                    other.service().tenant_len(badge),
                );
                if held != c.model.len() || leaked != 0 {
                    self.out.errors.push(format!(
                        "{node:?}: tenant store holds {held} keys for {} written, the other tenant's {leaked}",
                        c.model.len()
                    ));
                }
                if c.reads_after_swap == 0 {
                    self.out
                        .errors
                        .push(format!("{node:?}: no read checked across a swap"));
                }
            }
        }
        if !self.revoked {
            self.out
                .errors
                .push("the revoked client never reached its revocation".into());
        }

        let served = |n: NodeId, parked: bool| {
            let a = if parked {
                sys.parked_as::<KvStoreAccel>(n)
            } else {
                sys.accel_as::<KvStoreAccel>(n)
            };
            a.map_or(0, |a| a.served()) as f64
        };
        let mut mon = apiary_monitor::MonitorStats::default();
        for n in 0..sys.noc().mesh().nodes() {
            let s = sys.tile(NodeId(n as u16)).monitor.stats();
            mon.sent += s.sent;
            mon.denied += s.denied;
            mon.rate_limited += s.rate_limited;
            mon.backpressured += s.backpressured;
            mon.flow_hits += s.flow_hits;
            mon.flow_misses += s.flow_misses;
        }
        let lookups = mon.flow_hits + mon.flow_misses;
        let noc = sys.noc().stats();
        let sim_cycles = sys.now().as_u64();
        let mut out = self.out;
        out.sim_cycles = sim_cycles;
        out.count("sim.advance_calls", self.advance_calls as f64);
        out.count(
            "sim.cycles_per_advance",
            sim_cycles as f64 / self.advance_calls.max(1) as f64,
        );
        out.count("noc.flit_hops", noc.flit_hops as f64);
        out.count("noc.delivered", noc.delivered as f64);
        out.count("noc.inject_refused", noc.rejected as f64);
        out.count("core.swaps", self.swaps as f64);
        out.count("checkpoint.snapshot_bytes", self.swap_bytes as f64);
        out.count("checkpoint.taken", sys.checkpoint_store().taken as f64);
        out.count(
            "monitor.flow_hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                mon.flow_hits as f64 / lookups as f64
            },
        );
        out.count("monitor.sent", mon.sent as f64);
        out.count("monitor.rate_limited", mon.rate_limited as f64);
        out.count("monitor.backpressured", mon.backpressured as f64);
        out.count("monitor.denied", mon.denied as f64);
        out.count("accel.served.kv0", served(K0, false));
        out.count("accel.served.kv1", served(K1, false));
        out.count("accel.served.shared_a", served(SHARED, self.active != 0));
        out.count("accel.served.shared_b", served(SHARED, self.active != 1));
        out
    }
}
