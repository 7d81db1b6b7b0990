//! The NoC engine: wiring, cycle advancement, switching, injection and
//! ejection. All state is flat, each piece in exactly one place: a packet
//! slab, 8-byte flit handles, ring FIFOs per (node, port, VC), a timing
//! wheel for links and NIC rings of slab slots.

use crate::config::NocConfig;
use crate::fault::{FaultEvent, FaultPlane};
use crate::packet::{Delivered, Message, PacketId};
use crate::topology::{Direction, Mesh, NodeId, Port};
use apiary_sim::{Cycle, Histogram, Schedulable, Wakeup};
use std::collections::VecDeque;

/// Why an injection was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectError {
    /// The per-class injection queue at this node is full (backpressure).
    QueueFull,
    /// The destination is not a node of this mesh.
    BadDestination,
    /// The message's `src` field does not match the injecting node.
    SrcMismatch,
    /// Permanently dead links leave no live route to the destination.
    Unreachable,
}

impl core::fmt::Display for InjectError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InjectError::QueueFull => write!(f, "injection queue full"),
            InjectError::BadDestination => write!(f, "destination outside mesh"),
            InjectError::SrcMismatch => write!(f, "message src does not match injecting node"),
            InjectError::Unreachable => write!(f, "no live route to destination"),
        }
    }
}

impl std::error::Error for InjectError {}

/// A broken internal invariant, found by [`Noc::check_invariants`]. FIFOs
/// are named `(node, port, vc)` and links `(node, dir, vc)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NocInvariantError {
    /// `injected` differs from delivered + dropped + pending, as
    /// `(injected, accounted)`.
    Conservation(u64, u64),
    /// A slab slot is both free and live, neither, or free twice.
    SlabCover(usize),
    /// A flit handle or lock names a slot that holds no live packet on its
    /// VC.
    DanglingSlot(u32),
    /// A FIFO holds more than `vc_buffer` flits.
    FifoOverflow(NodeId, usize, usize),
    /// A `head_mask` bit disagrees with its FIFO's emptiness.
    HeadMask(NodeId, usize, usize),
    /// A link's in-flight count differs from its flits on the wheel.
    InFlight(NodeId, Direction, usize),
    /// Downstream occupancy plus in-flight flits exceed `vc_buffer`.
    CreditOverrun(NodeId, Direction, usize),
}

impl core::fmt::Display for NocInvariantError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "NoC invariant broken: {self:?}")
    }
}

impl std::error::Error for NocInvariantError {}

/// Aggregate network statistics.
#[derive(Debug, Clone, Default)]
pub struct NocStats {
    /// Messages accepted for injection.
    pub injected: u64,
    /// Messages delivered at their destination.
    pub delivered: u64,
    /// Injection attempts refused with [`InjectError::QueueFull`].
    pub rejected: u64,
    /// End-to-end message latency (inject call to tail ejection), cycles.
    pub latency: Histogram,
    /// Total flit-link traversals (a flit crossing one link counts once).
    pub flit_hops: u64,
    /// Flits ejected at local ports.
    pub flits_ejected: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Flits that arrived damaged at the ejecting node.
    pub corrupted_flits: u64,
    /// Packets dropped because at least one of their flits arrived corrupt.
    pub dropped_corrupt: u64,
    /// Packets dropped or refused because no live route to the destination
    /// exists (after permanent link deaths).
    pub dropped_unreachable: u64,
    /// Packets flushed by fault handling: rerouted mid-stream after a link
    /// death, or purged by the no-progress valve.
    pub dropped_flushed: u64,
    /// Link fault events applied (transient and permanent).
    pub link_faults: u64,
    /// Router stall events applied.
    pub router_stalls: u64,
}

impl NocStats {
    /// Mean delivered throughput in flits per cycle (ejection side).
    pub fn throughput_flits_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.flits_ejected as f64 / self.cycles as f64
        }
    }

    /// Packets lost to faults, all causes.
    pub fn dropped(&self) -> u64 {
        self.dropped_corrupt + self.dropped_unreachable + self.dropped_flushed
    }
}

/// One switch decision `(node, in_port, vc, out_port)`: move the head flit
/// of input FIFO `(node, in_port, vc)` to `out_port`.
#[derive(Debug, Clone, Copy)]
struct Move(usize, usize, usize, usize);

pub(crate) const DIRS: [Direction; 4] = [
    Direction::North,
    Direction::South,
    Direction::East,
    Direction::West,
];

fn dir_index(d: Direction) -> usize {
    Port::Dir(d).index() - 1
}

/// Ports per router: the local port plus four mesh links.
const PORTS: usize = 5;
/// Index of the local (tile) port; link ports are `1 + dir_index`.
const LOCAL: usize = 0;
/// `lock_in` sentinel for "no lock held".
const NO_LOCK: u8 = u8::MAX;
/// Most VCs the `head_mask` bitset supports (`5 * 8 = 40` mask bits).
const MAX_VCS: usize = 8;
/// Input-port index a flit arrives on after crossing a link in `DIRS[di]`:
/// `Port::Dir(DIRS[di].opposite()).index()`.
const OPP_PORT: [usize; 4] = [2, 1, 4, 3];
/// Flit-handle bit marking a flit damaged in transit.
const CORRUPT: u32 = 1 << 31;

/// Marker in [`Noc::routes`] for "no live path".
const UNREACHABLE: u8 = u8::MAX;

/// Cycles without any flit movement (while packets are in flight) after
/// which the no-progress valve purges the network. Detour routing after a
/// permanent link death is not provably deadlock-free, so this valve bounds
/// the damage: stuck packets are dropped and counted instead of hanging the
/// simulation. Fault-free XY routing never triggers it.
const DEADLOCK_WINDOW: u64 = 4096;

/// One flit: its packet's slab slot and its sequence number within the
/// packet. Head and tail follow from `seq` and the packet's `nflits`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Flit {
    slot: u32,
    /// Sequence number; bit 31 is the corrupt flag.
    seq: u32,
}

impl Flit {
    /// Position within the packet, without the corrupt flag.
    fn index(self) -> u32 {
        self.seq & !CORRUPT
    }

    fn is_head(self) -> bool {
        self.index() == 0
    }

    /// Marks the flit as damaged in transit. Idempotent: crossing several
    /// faulty links stays detectable.
    fn corrupt(&mut self) {
        self.seq |= CORRUPT;
    }

    fn is_corrupt(self) -> bool {
        self.seq & CORRUPT != 0
    }
}

/// A packet in the network, from injection until its tail is ejected or it
/// is purged.
#[derive(Debug)]
struct Packet {
    /// The [`PacketId`] handed out at injection; fault paths purge in this
    /// order.
    id: u64,
    /// `None` exactly when the slot is free.
    msg: Option<Message>,
    injected_at: Cycle,
    nflits: u32,
    dst: u16,
    vc: u8,
    /// A flit of this packet arrived corrupt: drop it when the tail lands.
    poisoned: bool,
}

/// A flit crossing link `link` (`node * 4 + dir`) on virtual channel `vc`.
#[derive(Debug, Clone, Copy)]
struct Transit {
    flit: Flit,
    link: u32,
    vc: u8,
}

/// Fixed-capacity FIFOs in one flat buffer: queue `q` owns
/// `buf[q * cap .. (q + 1) * cap]` as a ring of `len[q]` entries starting at
/// `start[q]`.
#[derive(Debug)]
struct Rings<T> {
    buf: Vec<T>,
    start: Vec<u16>,
    len: Vec<u16>,
    cap: usize,
}

impl<T: Copy + Default> Rings<T> {
    fn new(queues: usize, cap: usize) -> Rings<T> {
        assert!(cap <= u16::MAX as usize, "ring capacity must fit u16");
        Rings {
            buf: vec![T::default(); queues * cap],
            start: vec![0; queues],
            len: vec![0; queues],
            cap,
        }
    }

    fn queues(&self) -> usize {
        self.len.len()
    }

    fn len(&self, q: usize) -> usize {
        self.len[q] as usize
    }

    fn slot(&self, q: usize, k: usize) -> usize {
        let i = self.start[q] as usize + k;
        q * self.cap + if i >= self.cap { i - self.cap } else { i }
    }

    /// The oldest entry; the queue must be non-empty.
    fn front(&self, q: usize) -> T {
        debug_assert!(self.len[q] > 0, "front of an empty ring");
        self.buf[q * self.cap + self.start[q] as usize]
    }

    fn push(&mut self, q: usize, v: T) {
        assert!(self.len(q) < self.cap, "ring overflow");
        let i = self.slot(q, self.len(q));
        self.buf[i] = v;
        self.len[q] += 1;
    }

    fn pop(&mut self, q: usize) -> T {
        let v = self.front(q);
        let s = self.start[q] as usize + 1;
        self.start[q] = if s == self.cap { 0 } else { s as u16 };
        self.len[q] -= 1;
        v
    }

    fn iter(&self, q: usize) -> impl Iterator<Item = T> + '_ {
        (0..self.len(q)).map(move |k| self.buf[self.slot(q, k)])
    }

    /// Keeps the entries `keep` accepts, in order. Returns whether any
    /// entry was removed.
    fn retain(&mut self, q: usize, mut keep: impl FnMut(T) -> bool) -> bool {
        let len = self.len(q);
        let mut kept = 0;
        for k in 0..len {
            let v = self.buf[self.slot(q, k)];
            if keep(v) {
                let at = self.slot(q, kept);
                self.buf[at] = v;
                kept += 1;
            }
        }
        self.len[q] = kept as u16;
        kept != len
    }
}

/// The cycle-level mesh NoC.
///
/// # Examples
///
/// ```
/// use apiary_noc::{Message, Noc, NocConfig, NodeId, TrafficClass};
///
/// let mut noc = Noc::new(NocConfig::soft(4, 4));
/// let msg = Message::new(NodeId(0), NodeId(15), TrafficClass::Request, vec![1, 2, 3]);
/// noc.try_inject(NodeId(0), msg).expect("queue space");
/// for _ in 0..100 {
///     noc.step();
/// }
/// let got = noc.poll_eject(NodeId(15)).expect("delivered");
/// assert_eq!(got.msg.payload, vec![1, 2, 3]);
/// assert_eq!(noc.check_invariants(), Ok(()));
/// ```
#[derive(Debug)]
pub struct Noc {
    cfg: NocConfig,
    mesh: Mesh,
    now: Cycle,
    /// Every packet injected and not yet delivered or dropped.
    slab: Vec<Packet>,
    /// Free slots of `slab`.
    free: Vec<u32>,
    /// Input VC FIFOs, queue `(node * PORTS + port) * vcs + vc`.
    fifos: Rings<Flit>,
    /// Per-node bitset over `(port << 3) | vc` of non-empty input FIFOs.
    head_mask: Vec<u64>,
    /// Flits on links, bucketed by arrival cycle modulo the wheel length.
    wheel: Vec<Vec<Transit>>,
    /// Flits in flight per `(node * 4 + dir) * vcs + vc` — the link half of
    /// the credit computation.
    link_vc: Vec<u16>,
    /// Injection queues of slab slots, queue `node * vcs + vc`.
    nic: Rings<u32>,
    /// Flits of each NIC queue's front packet already streamed.
    nic_sent: Vec<u32>,
    /// Wormhole locks, indexed like `fifos` over *output* ports: the input
    /// port owning the output VC, or `NO_LOCK`.
    lock_in: Vec<u8>,
    /// The slab slot of each held lock's owner, so fault handling can
    /// release locks whose owner was dropped mid-stream.
    lock_slot: Vec<u32>,
    /// Round-robin pointer per `node * PORTS + out_port`: the input port
    /// granted last.
    rr: Vec<u8>,
    /// Delivered messages awaiting pickup, per node.
    eject_q: Vec<VecDeque<Delivered>>,
    /// Total messages across all eject queues — lets the event clock ask
    /// "does any tile have mail?" without scanning every node.
    rx_pending: usize,
    next_packet: u64,
    stats: NocStats,
    /// Injections refused as unreachable: counted in `dropped_unreachable`
    /// but never injected, so conservation excludes them.
    refused_unreachable: u64,
    /// Flits sent per outgoing link, indexed `[node][dir]` — the raw data
    /// behind [`Noc::link_utilization`].
    link_flits: Vec<[u64; 4]>,
    /// Routing table, flat with stride `nodes`: `routes[node * nodes + dst]`
    /// is the output port index, or [`UNREACHABLE`]. Starts as pure XY and
    /// is recomputed (BFS detours, XY preferred where still live) when a
    /// link dies permanently.
    routes: Vec<u8>,
    /// Permanently dead outgoing links, `[node][dir]`.
    dead_links: Vec<[bool; 4]>,
    /// Transient outages: the cycle (exclusive) until which the link
    /// `[node][dir]` corrupts crossing flits.
    link_down_until: Vec<[u64; 4]>,
    /// Router stalls: the cycle (exclusive) until which node `i` allocates
    /// no flits.
    stall_until: Vec<u64>,
    /// Optional chaos plane driving random fault injection.
    fault_plane: Option<FaultPlane>,
    /// `stats.cycles` value at which a flit last moved anywhere; feeds the
    /// no-progress valve that guarantees injected faults never deadlock the
    /// network.
    last_progress: u64,
    /// Per-node neighbour table, `nbr[node * 4 + dir]`, `u16::MAX` at mesh
    /// edges. Mesh geometry is static, so this never changes.
    nbr: Vec<u16>,
    /// Reused per-step move list (avoids a per-cycle allocation).
    moves_buf: Vec<Move>,
}

impl Noc {
    /// Builds a NoC from a validated configuration.
    pub fn new(cfg: NocConfig) -> Noc {
        cfg.validate();
        assert!(
            cfg.vcs <= MAX_VCS,
            "head_mask supports at most {MAX_VCS} virtual channels"
        );
        let mesh = Mesh::new(cfg.width, cfg.height);
        let n = mesh.nodes();
        let routes = (0..n)
            .flat_map(|src| {
                (0..n).map(move |dst| {
                    mesh.route(NodeId(src as u16), NodeId(dst as u16)).index() as u8
                })
            })
            .collect();
        let nbr = (0..n)
            .flat_map(|node| {
                DIRS.map(|d| {
                    mesh.neighbor(NodeId(node as u16), d)
                        .map_or(u16::MAX, |nb| nb.0)
                })
            })
            .collect();
        Noc {
            mesh,
            now: Cycle::ZERO,
            // Sized up front so a run does not grow them: reallocations in
            // mid-run fragment the heap around callers' large buffers.
            // A wheel slot holds at most one flit per link.
            slab: Vec::with_capacity(n * cfg.vcs * cfg.inject_queue),
            free: Vec::with_capacity(n * cfg.vcs * cfg.inject_queue),
            fifos: Rings::new(n * PORTS * cfg.vcs, cfg.vc_buffer),
            head_mask: vec![0; n],
            wheel: (0..cfg.hop_latency + 2)
                .map(|_| Vec::with_capacity(n * 4))
                .collect(),
            link_vc: vec![0; n * 4 * cfg.vcs],
            nic: Rings::new(n * cfg.vcs, cfg.inject_queue),
            nic_sent: vec![0; n * cfg.vcs],
            lock_in: vec![NO_LOCK; n * PORTS * cfg.vcs],
            lock_slot: vec![0; n * PORTS * cfg.vcs],
            rr: vec![0; n * PORTS],
            eject_q: (0..n).map(|_| VecDeque::new()).collect(),
            rx_pending: 0,
            next_packet: 0,
            stats: NocStats::default(),
            refused_unreachable: 0,
            link_flits: (0..n).map(|_| [0; 4]).collect(),
            routes,
            dead_links: vec![[false; 4]; n],
            link_down_until: vec![[0; 4]; n],
            stall_until: vec![0; n],
            fault_plane: None,
            last_progress: 0,
            nbr,
            moves_buf: Vec::new(),
            cfg,
        }
    }

    /// The mesh geometry.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// The configuration.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Messages injected but not yet delivered.
    pub fn pending(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Statistics so far.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Free message slots in `node`'s injection queue for `class`.
    pub fn inject_space(&self, node: NodeId, class: crate::packet::TrafficClass) -> usize {
        self.cfg.inject_queue - self.nic.len(node.index() * self.cfg.vcs + class.vc())
    }

    /// Offers a message for injection at `from`.
    ///
    /// On success the message is queued at the local network interface and
    /// will be streamed into the mesh one flit per cycle; the returned
    /// [`PacketId`] can be used to correlate trace events.
    ///
    /// # Errors
    ///
    /// [`InjectError`] when the queue is full, the destination invalid, or
    /// the source field forged.
    pub fn try_inject(&mut self, from: NodeId, msg: Message) -> Result<PacketId, InjectError> {
        if !self.mesh.contains(msg.dst) {
            return Err(InjectError::BadDestination);
        }
        if msg.src != from || !self.mesh.contains(from) {
            return Err(InjectError::SrcMismatch);
        }
        if self.routes[from.index() * self.mesh.nodes() + msg.dst.index()] == UNREACHABLE {
            self.stats.dropped_unreachable += 1;
            self.refused_unreachable += 1;
            return Err(InjectError::Unreachable);
        }
        let vc = msg.class.vc();
        let nq = from.index() * self.cfg.vcs + vc;
        if self.nic.len(nq) >= self.cfg.inject_queue {
            self.stats.rejected += 1;
            return Err(InjectError::QueueFull);
        }
        let nflits = msg.flits(self.cfg.flit_bytes, self.cfg.header_bytes);
        assert!(nflits < CORRUPT as usize, "too many flits for a handle");
        let id = self.next_packet;
        self.next_packet += 1;
        let packet = Packet {
            id,
            injected_at: self.now,
            nflits: nflits as u32,
            dst: msg.dst.0,
            vc: vc as u8,
            poisoned: false,
            msg: Some(msg),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = packet;
                slot
            }
            None => {
                self.slab.push(packet);
                (self.slab.len() - 1) as u32
            }
        };
        self.nic.push(nq, slot);
        self.stats.injected += 1;
        Ok(PacketId(id))
    }

    /// Takes one delivered message at `node`, if any.
    pub fn poll_eject(&mut self, node: NodeId) -> Option<Delivered> {
        let d = self.eject_q[node.index()].pop_front();
        if d.is_some() {
            self.rx_pending -= 1;
        }
        d
    }

    /// Delivered messages waiting at `node`, without taking any.
    pub fn eject_pending(&self, node: NodeId) -> usize {
        self.eject_q[node.index()].len()
    }

    /// Takes all delivered messages currently waiting at `node`.
    pub fn drain_eject(&mut self, node: NodeId) -> Vec<Delivered> {
        let v: Vec<Delivered> = self.eject_q[node.index()].drain(..).collect();
        self.rx_pending -= v.len();
        v
    }

    /// Delivered-but-unfetched messages across *all* nodes. The event
    /// clock runs kernel phases whenever this is non-zero, so a delivery
    /// implicitly re-arms every `OnMessage` sleeper on the same cycle it
    /// would have been pumped in under dense ticking.
    pub fn rx_pending_total(&self) -> usize {
        self.rx_pending
    }

    /// Utilisation of every physical link as (source node, direction,
    /// flits sent / cycles elapsed), hottest first. A link at 1.0 is
    /// saturated (one flit per cycle).
    pub fn link_utilization(&self) -> Vec<(NodeId, Direction, f64)> {
        let cycles = self.stats.cycles.max(1) as f64;
        let mut out = Vec::new();
        for (node, dirs) in self.link_flits.iter().enumerate() {
            for (di, &flits) in dirs.iter().enumerate() {
                if self.mesh.neighbor(NodeId(node as u16), DIRS[di]).is_some() {
                    out.push((NodeId(node as u16), DIRS[di], flits as f64 / cycles));
                }
            }
        }
        out.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("utilisations are finite"));
        out
    }

    /// Renders a per-node congestion heat map: each cell shows the busiest
    /// outgoing link's utilisation in percent.
    pub fn render_congestion(&self) -> String {
        use core::fmt::Write;
        let cycles = self.stats.cycles.max(1) as f64;
        let mut out = String::new();
        for y in (0..self.mesh.height).rev() {
            for x in 0..self.mesh.width {
                let n = self.mesh.node(crate::topology::Coord::new(x, y));
                let hottest = self.link_flits[n.index()]
                    .iter()
                    .copied()
                    .max()
                    .unwrap_or(0) as f64
                    / cycles;
                let _ = write!(out, "{:>5.1}% ", hottest * 100.0);
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Checks the network's internal invariants: conservation of messages,
    /// slab coverage by live and free slots, FIFO bounds, credit and
    /// in-flight accounting, wormhole locks and `head_mask`.
    ///
    /// # Errors
    ///
    /// The first broken invariant found.
    pub fn check_invariants(&self) -> Result<(), NocInvariantError> {
        use NocInvariantError as E;
        let st = &self.stats;
        let accounted =
            st.delivered + st.dropped() - self.refused_unreachable + self.pending() as u64;
        if st.injected != accounted {
            return Err(E::Conservation(st.injected, accounted));
        }
        let mut free = vec![false; self.slab.len()];
        for &slot in &self.free {
            let s = slot as usize;
            if s >= free.len() || free[s] || self.slab[s].msg.is_some() {
                return Err(E::SlabCover(s));
            }
            free[s] = true;
        }
        if let Some(s) = (0..free.len()).find(|&s| !free[s] && self.slab[s].msg.is_none()) {
            return Err(E::SlabCover(s));
        }
        let dangling = |slot: u32, vc: usize| {
            let s = slot as usize;
            (s >= free.len() || free[s] || self.slab[s].vc as usize != vc).then_some(slot)
        };
        let vcs = self.cfg.vcs;
        for q in 0..self.fifos.queues() {
            let (node, port, vc) = (q / (PORTS * vcs), q / vcs % PORTS, q % vcs);
            let id = NodeId(node as u16);
            let len = self.fifos.len(q);
            if len > self.cfg.vc_buffer {
                return Err(E::FifoOverflow(id, port, vc));
            }
            if (self.head_mask[node] >> (port << 3 | vc) & 1 != 0) != (len > 0) {
                return Err(E::HeadMask(id, port, vc));
            }
            let lock = (self.lock_in[q] != NO_LOCK).then_some(self.lock_slot[q]);
            let flits = self.fifos.iter(q).map(|f| f.slot);
            if let Some(slot) = flits.chain(lock).find_map(|s| dangling(s, vc)) {
                return Err(E::DanglingSlot(slot));
            }
        }
        let mut counted = vec![0usize; self.link_vc.len()];
        for t in self.wheel.iter().flatten() {
            if let Some(slot) = dangling(t.flit.slot, t.vc as usize) {
                return Err(E::DanglingSlot(slot));
            }
            counted[t.link as usize * vcs + t.vc as usize] += 1;
        }
        for (i, &inflight) in counted.iter().enumerate() {
            let (link, vc) = (i / vcs, i % vcs);
            let (id, dir) = (NodeId((link / 4) as u16), DIRS[link % 4]);
            if self.link_vc[i] as usize != inflight {
                return Err(E::InFlight(id, dir, vc));
            }
            let nb = self.nbr[link] as usize;
            if nb != u16::MAX as usize
                && self.fifos.len((nb * PORTS + OPP_PORT[link % 4]) * vcs + vc) + inflight
                    > self.cfg.vc_buffer
            {
                return Err(E::CreditOverrun(id, dir, vc));
            }
        }
        for q in 0..self.nic.queues() {
            if let Some(slot) = self.nic.iter(q).find_map(|s| dangling(s, q % vcs)) {
                return Err(E::DanglingSlot(slot));
            }
        }
        Ok(())
    }

    /// Pushes `flit` onto input FIFO `(node, port, vc)`.
    #[inline]
    fn fifo_push(&mut self, node: usize, port: usize, vc: usize, flit: Flit) {
        // Credit accounting guarantees the space; `Rings::push` checks it.
        self.fifos
            .push((node * PORTS + port) * self.cfg.vcs + vc, flit);
        self.head_mask[node] |= 1 << (port << 3 | vc);
    }

    /// Pops the front flit of input FIFO `(node, port, vc)`.
    #[inline]
    fn fifo_pop(&mut self, node: usize, port: usize, vc: usize) -> Flit {
        let q = (node * PORTS + port) * self.cfg.vcs + vc;
        let flit = self.fifos.pop(q);
        if self.fifos.len(q) == 0 {
            self.head_mask[node] &= !(1 << (port << 3 | vc));
        }
        flit
    }

    // ------------------------------------------------------------------
    // Fault injection (the chaos plane's levers, also usable directly).
    // ------------------------------------------------------------------

    /// Installs a chaos plane; its schedule and random draws are applied
    /// at the start of every [`Noc::step`].
    pub fn install_fault_plane(&mut self, plane: FaultPlane) {
        self.fault_plane = Some(plane);
    }

    /// The installed chaos plane, if any.
    pub fn fault_plane(&self) -> Option<&FaultPlane> {
        self.fault_plane.as_ref()
    }

    /// Whether a live route from `from` to `to` exists.
    pub fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        self.mesh.contains(from)
            && self.mesh.contains(to)
            && self.routes[from.index() * self.mesh.nodes() + to.index()] != UNREACHABLE
    }

    /// Corrupts every flit currently crossing link `node -> DIRS[di]`.
    fn corrupt_link(&mut self, node: usize, di: usize) {
        let link = (node * 4 + di) as u32;
        for t in self.wheel.iter_mut().flatten() {
            if t.link == link {
                t.flit.corrupt();
            }
        }
    }

    /// Permanently kills the outgoing link `node -> dir`: flits currently
    /// crossing it are corrupted, routing detours around it, and packets
    /// whose path change would split them mid-stream are flushed (counted
    /// in [`NocStats::dropped_flushed`] / `dropped_unreachable`). Returns
    /// `false` if no such link exists (mesh edge).
    pub fn kill_link(&mut self, node: NodeId, dir: Direction) -> bool {
        if self.mesh.neighbor(node, dir).is_none() {
            return false;
        }
        let di = dir_index(dir);
        if self.dead_links[node.index()][di] {
            return true;
        }
        self.dead_links[node.index()][di] = true;
        self.stats.link_faults += 1;
        self.corrupt_link(node.index(), di);
        let old = std::mem::take(&mut self.routes);
        self.recompute_routes();
        self.flush_rerouted(&old);
        true
    }

    /// Starts a transient outage on the outgoing link `node -> dir`: flits
    /// entering it during the next `cycles` cycles are corrupted (and the
    /// packets dropped at the destination). Routing is unchanged. Returns
    /// `false` if no such link exists.
    pub fn fail_link_for(&mut self, node: NodeId, dir: Direction, cycles: u64) -> bool {
        if self.mesh.neighbor(node, dir).is_none() {
            return false;
        }
        let di = dir_index(dir);
        let until = self.now.as_u64() + cycles;
        let slot = &mut self.link_down_until[node.index()][di];
        *slot = (*slot).max(until);
        self.stats.link_faults += 1;
        self.corrupt_link(node.index(), di);
        true
    }

    /// Freezes `node`'s switch allocator for `cycles` cycles: buffered
    /// flits stay put, arrivals still buffer (pure added delay).
    pub fn stall_router(&mut self, node: NodeId, cycles: u64) {
        let until = self.now.as_u64() + cycles;
        let slot = &mut self.stall_until[node.index()];
        *slot = (*slot).max(until);
        self.stats.router_stalls += 1;
    }

    fn apply_fault_event(&mut self, ev: FaultEvent) {
        match ev {
            FaultEvent::LinkDown {
                node,
                dir,
                heal_after: None,
            } => {
                self.kill_link(node, dir);
            }
            FaultEvent::LinkDown {
                node,
                dir,
                heal_after: Some(cycles),
            } => {
                self.fail_link_for(node, dir, cycles);
            }
            FaultEvent::RouterStall { node, cycles } => self.stall_router(node, cycles),
        }
    }

    /// Rebuilds `routes` around `dead_links`: BFS shortest paths, keeping
    /// the XY next hop wherever it still lies on a shortest live path so
    /// fault-free pairs keep their original routes.
    fn recompute_routes(&mut self) {
        let n = self.mesh.nodes();
        self.routes = vec![UNREACHABLE; n * n];
        for dst in 0..n {
            // BFS from the destination over *reversed* live links.
            let mut dist = vec![u32::MAX; n];
            dist[dst] = 0;
            let mut q = VecDeque::from([dst]);
            while let Some(v) = q.pop_front() {
                for d in DIRS {
                    let Some(u) = self.mesh.neighbor(NodeId(v as u16), d) else {
                        continue;
                    };
                    let u = u.index();
                    // The link u -> v leaves u in the opposite direction.
                    if self.dead_links[u][dir_index(d.opposite())] || dist[u] != u32::MAX {
                        continue;
                    }
                    dist[u] = dist[v] + 1;
                    q.push_back(u);
                }
            }
            for src in 0..n {
                if src == dst {
                    self.routes[src * n + dst] = Port::Local.index() as u8;
                    continue;
                }
                if dist[src] == u32::MAX {
                    continue; // Stays UNREACHABLE.
                }
                let mut chosen: Option<Port> = None;
                let xy = self.mesh.route(NodeId(src as u16), NodeId(dst as u16));
                if let Port::Dir(d) = xy {
                    let nb = self
                        .mesh
                        .neighbor(NodeId(src as u16), d)
                        .expect("XY routes along existing links");
                    if !self.dead_links[src][dir_index(d)] && dist[nb.index()] == dist[src] - 1 {
                        chosen = Some(xy);
                    }
                }
                if chosen.is_none() {
                    for d in DIRS {
                        let Some(nb) = self.mesh.neighbor(NodeId(src as u16), d) else {
                            continue;
                        };
                        if !self.dead_links[src][dir_index(d)] && dist[nb.index()] == dist[src] - 1
                        {
                            chosen = Some(Port::Dir(d));
                            break;
                        }
                    }
                }
                self.routes[src * n + dst] = chosen
                    .expect("a reachable node has a live next hop")
                    .index() as u8;
            }
        }
    }

    /// After a routing change, flushes packets the change would tear in
    /// half: any packet with a flit buffered (or in flight toward) a node
    /// whose next hop for that destination changed, and partially streamed
    /// NIC packets at sources whose route changed.
    fn flush_rerouted(&mut self, old_routes: &[u8]) {
        let n = self.mesh.nodes();
        let vcs = self.cfg.vcs;
        // (packet id, destination now unreachable?, slot) per affected flit.
        let mut doomed: Vec<(u64, bool, u32)> = Vec::new();
        let note = |at: usize, slot: u32, doomed: &mut Vec<(u64, bool, u32)>| {
            let p = &self.slab[slot as usize];
            let i = at * n + p.dst as usize;
            if self.routes[i] != old_routes[i] {
                doomed.push((p.id, self.routes[i] == UNREACHABLE, slot));
            }
        };
        for q in 0..self.fifos.queues() {
            for f in self.fifos.iter(q) {
                note(q / (PORTS * vcs), f.slot, &mut doomed);
            }
        }
        for t in self.wheel.iter().flatten() {
            // The flit will route next at the receiving neighbour.
            note(self.nbr[t.link as usize] as usize, t.flit.slot, &mut doomed);
        }
        for q in 0..self.nic.queues() {
            let node = q / vcs;
            for (k, slot) in self.nic.iter(q).enumerate() {
                // A front packet that has begun streaming is split by any
                // route change. Unstarted packets survive any reroute
                // except losing their destination entirely.
                if k == 0 && self.nic_sent[q] > 0 {
                    note(node, slot, &mut doomed);
                } else {
                    let p = &self.slab[slot as usize];
                    if self.routes[node * n + p.dst as usize] == UNREACHABLE {
                        doomed.push((p.id, true, slot));
                    }
                }
            }
        }
        doomed.sort_unstable_by_key(|&(id, unreachable, _)| (id, !unreachable));
        doomed.dedup_by_key(|&mut (id, _, _)| id);
        for (_, unreachable, slot) in doomed {
            self.purge_packet(slot);
            if unreachable {
                self.stats.dropped_unreachable += 1;
            } else {
                self.stats.dropped_flushed += 1;
            }
        }
    }

    /// Removes every trace of the packet in `slot` from the network:
    /// buffered flits, flits on links, wormhole locks it owns and its NIC
    /// entry, then frees the slot. Counters are the caller's
    /// responsibility.
    fn purge_packet(&mut self, slot: u32) {
        let vcs = self.cfg.vcs;
        for q in 0..self.fifos.queues() {
            if self.fifos.retain(q, |f| f.slot != slot) && self.fifos.len(q) == 0 {
                let (node, port, vc) = (q / (PORTS * vcs), q / vcs % PORTS, q % vcs);
                self.head_mask[node] &= !(1 << (port << 3 | vc));
            }
            if self.lock_in[q] != NO_LOCK && self.lock_slot[q] == slot {
                self.lock_in[q] = NO_LOCK;
            }
        }
        for bucket in &mut self.wheel {
            bucket.retain(|t| {
                let keep = t.flit.slot != slot;
                if !keep {
                    self.link_vc[t.link as usize * vcs + t.vc as usize] -= 1;
                }
                keep
            });
        }
        for q in 0..self.nic.queues() {
            if self.nic.len(q) > 0 && self.nic.front(q) == slot {
                self.nic_sent[q] = 0;
            }
            self.nic.retain(q, |s| s != slot);
        }
        self.free_slot(slot);
    }

    fn free_slot(&mut self, slot: u32) {
        self.slab[slot as usize].msg = None;
        self.free.push(slot);
    }

    /// The no-progress valve: if packets are in flight but nothing has
    /// moved for [`DEADLOCK_WINDOW`] cycles, purge every packet, in
    /// [`PacketId`] order. This converts a (detour-induced) routing
    /// deadlock into bounded, counted packet loss — an injected fault can
    /// never hang the NoC.
    fn check_progress_valve(&mut self) {
        if self.pending() == 0 {
            self.last_progress = self.stats.cycles;
            return;
        }
        if self.stats.cycles - self.last_progress <= DEADLOCK_WINDOW {
            return;
        }
        let mut live: Vec<(u64, u32)> = (0..self.slab.len() as u32)
            .filter(|&s| self.slab[s as usize].msg.is_some())
            .map(|s| (self.slab[s as usize].id, s))
            .collect();
        live.sort_unstable();
        for (_, slot) in live {
            self.purge_packet(slot);
            self.stats.dropped_flushed += 1;
        }
        self.last_progress = self.stats.cycles;
    }

    fn link_is_down(&self, node: usize, di: usize) -> bool {
        self.dead_links[node][di] || self.link_down_until[node][di] > self.now.as_u64()
    }

    /// Advances the network by one cycle.
    pub fn step(&mut self) {
        self.now += 1;
        self.stats.cycles += 1;
        // Chaos first: this cycle's faults land before traffic moves.
        let mut plane = self.fault_plane.take();
        if let Some(p) = plane.as_mut() {
            for ev in p.step(self.now, &self.mesh) {
                self.apply_fault_event(ev);
            }
        }
        // This cycle's wheel slot: the flits arriving now.
        let slot = (self.now.as_u64() % self.wheel.len() as u64) as usize;
        self.phase_link_arrivals(slot);
        self.phase_allocate();
        let moves = std::mem::take(&mut self.moves_buf);
        self.phase_apply(&moves, plane.as_mut(), slot);
        self.moves_buf = moves;
        self.phase_inject();
        self.fault_plane = plane;
        self.check_progress_valve();
    }

    /// Skips ahead through provably idle cycles, up to and including
    /// `target`. While no packet is in flight every phase of
    /// [`Noc::step`] is a no-op, so the clock and cycle counter can jump
    /// in one go; an installed chaos plane is still stepped cycle-by-cycle
    /// (its RNG draws are part of the deterministic timeline) and its fault
    /// events land exactly when they would under dense ticking. Returns
    /// the cycle actually reached — always `target` unless traffic appears
    /// (it cannot, mid-skip, but the guard keeps the contract obvious).
    pub fn skip_idle_to(&mut self, target: Cycle) -> Cycle {
        if self.pending() > 0 {
            return self.now;
        }
        match self.fault_plane.take() {
            None => {
                if target > self.now {
                    self.stats.cycles += target - self.now;
                    self.now = target;
                    self.last_progress = self.stats.cycles;
                }
            }
            Some(mut plane) => {
                while self.now < target {
                    self.now += 1;
                    self.stats.cycles += 1;
                    for ev in plane.step(self.now, &self.mesh) {
                        self.apply_fault_event(ev);
                    }
                    self.last_progress = self.stats.cycles;
                }
                self.fault_plane = Some(plane);
            }
        }
        self.now
    }

    /// The next cycle at which stepping this NoC could change state, or
    /// `None` when it is empty (nothing buffered, nothing in flight). An
    /// empty NoC only becomes busy through [`Noc::try_inject`] — message
    /// arrival, in scheduling terms.
    pub fn next_activity(&self) -> Option<Cycle> {
        if self.pending() > 0 {
            Some(self.now + 1)
        } else {
            None
        }
    }

    /// Runs until no messages are in flight or `max_cycles` elapse; returns
    /// `true` on quiescence.
    pub fn run_until_quiescent(&mut self, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            if self.pending() == 0 {
                return true;
            }
            self.step();
        }
        self.pending() == 0
    }

    /// Moves this cycle's wheel slot into the downstream input FIFOs. Each
    /// link carries at most one flit per cycle and each input FIFO is fed
    /// by exactly one link, so the order within a slot cannot matter.
    fn phase_link_arrivals(&mut self, slot: usize) {
        if self.wheel[slot].is_empty() {
            return;
        }
        self.last_progress = self.stats.cycles;
        let mut bucket = std::mem::take(&mut self.wheel[slot]);
        for t in bucket.drain(..) {
            let (link, vc) = (t.link as usize, t.vc as usize);
            self.link_vc[link * self.cfg.vcs + vc] -= 1;
            let nb = self.nbr[link] as usize;
            self.fifo_push(nb, OPP_PORT[link % 4], vc, t.flit);
        }
        self.wheel[slot] = bucket;
    }

    /// Whether output `out_port` of `node` has a free buffer slot on `vc`
    /// downstream: occupancy there plus flits on the link stay below
    /// `vc_buffer`. The local port always has room.
    #[inline]
    fn has_credit(&self, node: usize, out_port: usize, vc: usize) -> bool {
        if out_port == LOCAL {
            return true;
        }
        let di = out_port - 1;
        let vcs = self.cfg.vcs;
        let nb = self.nbr[node * 4 + di] as usize;
        let occupied = self.fifos.len((nb * PORTS + OPP_PORT[di]) * vcs + vc);
        let inflight = self.link_vc[(node * 4 + di) * vcs + vc] as usize;
        occupied + inflight < self.cfg.vc_buffer
    }

    /// The output port the front flit of FIFO `q` routes to at `node`, and
    /// whether that flit is a head flit.
    #[inline]
    fn route_front(&self, node: usize, q: usize) -> (u8, bool) {
        let flit = self.fifos.front(q);
        let dst = self.slab[flit.slot as usize].dst as usize;
        (self.routes[node * self.mesh.nodes() + dst], flit.is_head())
    }

    /// Switch allocation: per output port, strict priority across VCs
    /// (lower class first), round-robin across input ports, wormhole lock
    /// and credit checks. At most one flit per output port per cycle.
    ///
    /// Candidate-driven: instead of scanning every `(out, vc, in)` triple,
    /// iterate the non-empty FIFO heads (the `head_mask` bitset), bucket
    /// them by the output port their destination routes to, and arbitrate
    /// only the demanded `(out, vc)` pairs. An `(out, vc)` with no buffered
    /// head routed to it can never produce a move, and the dense scan's
    /// skipped checks (credit, lock) have no side effects — so this visits
    /// exactly the triples that matter, in the same deterministic order.
    /// Fills `self.moves_buf`.
    fn phase_allocate(&mut self) {
        let mut moves = std::mem::take(&mut self.moves_buf);
        moves.clear();
        let vcs = self.cfg.vcs;
        let now = self.now.as_u64();
        // `cand` entries are only read for `(out, vc)` pairs whose `demand`
        // bit was set this node, and setting that bit overwrites the entry —
        // so stale values from earlier nodes are never observed and the
        // buckets need no per-node clear.
        let mut cand = [[0u8; MAX_VCS]; PORTS];
        for node in 0..self.mesh.nodes() {
            // A router with no buffered flits cannot source a move: every
            // move pops an input-FIFO head. Skipping it leaves `rr` and
            // locks untouched, which is what the dense scan does too.
            let mask = self.head_mask[node];
            if mask == 0 || self.stall_until[node] > now {
                continue;
            }
            let qbase = node * PORTS * vcs;
            // Fast path: one buffered head means at most one candidate move,
            // so the arbitration below (bucket, vc priority, round-robin)
            // degenerates to a single eligibility check.
            if mask & (mask - 1) == 0 {
                let bit = mask.trailing_zeros() as usize;
                let (port, vc) = (bit >> 3, bit & 7);
                let (out, head) = self.route_front(node, qbase + port * vcs + vc);
                if out == UNREACHABLE || !self.has_credit(node, out as usize, vc) {
                    continue;
                }
                let out_port = out as usize;
                let lock = self.lock_in[qbase + out_port * vcs + vc];
                let eligible = if lock == NO_LOCK {
                    head
                } else {
                    lock as usize == port
                };
                if eligible {
                    moves.push(Move(node, port, vc, out_port));
                }
                continue;
            }
            // Bucket buffered heads by demanded output port. Routes only
            // ever point at existing links (XY and the BFS rebuild both
            // route over live topology), so no edge-existence check is
            // needed; `UNREACHABLE` heads match no output, as in the dense
            // scan where no `out_port` equals 255.
            let mut demand = [0u8; PORTS];
            // `heads[vc]`: input ports whose front flit on `vc` is a head.
            let mut heads = [0u8; MAX_VCS];
            let mut m = mask;
            while m != 0 {
                let bit = m.trailing_zeros() as usize;
                m &= m - 1;
                let (port, vc) = (bit >> 3, bit & 7);
                let (out, head) = self.route_front(node, qbase + port * vcs + vc);
                heads[vc] |= u8::from(head) << port;
                if out == UNREACHABLE {
                    continue;
                }
                let out = out as usize;
                let vbit = 1u8 << vc;
                if demand[out] & vbit == 0 {
                    demand[out] |= vbit;
                    cand[out][vc] = 1 << port;
                } else {
                    cand[out][vc] |= 1 << port;
                }
            }
            for (out_port, &dvc) in demand.iter().enumerate() {
                if dvc == 0 {
                    continue;
                }
                let rr = self.rr[node * PORTS + out_port] as usize;
                #[allow(clippy::needless_range_loop)] // `vc` indexes the flat arrays too
                for vc in 0..vcs {
                    if dvc & (1 << vc) == 0 || !self.has_credit(node, out_port, vc) {
                        continue;
                    }
                    // A locked output VC takes only its owner; a free one
                    // only head flits.
                    let lock = self.lock_in[qbase + out_port * vcs + vc];
                    let owners = if lock == NO_LOCK {
                        heads[vc]
                    } else {
                        1 << lock
                    };
                    let eligible = cand[out_port][vc] & owners;
                    if eligible == 0 {
                        continue;
                    }
                    // Round-robin: the first eligible input after `rr`.
                    let ring = (u32::from(eligible) | u32::from(eligible) << PORTS) >> (rr + 1);
                    let in_port = (rr + 1 + ring.trailing_zeros() as usize) % PORTS;
                    moves.push(Move(node, in_port, vc, out_port));
                    break;
                }
            }
        }
        self.moves_buf = moves;
    }

    /// Applies this cycle's moves; flits sent on links land `hop_latency + 1`
    /// wheel slots after `slot`.
    fn phase_apply(&mut self, moves: &[Move], mut plane: Option<&mut FaultPlane>, slot: usize) {
        if moves.is_empty() {
            return;
        }
        self.last_progress = self.stats.cycles;
        let vcs = self.cfg.vcs;
        // `slot < len` and `hop_latency + 1 < len`, so one wrap suffices.
        let arrive = slot + 1 + self.cfg.hop_latency as usize;
        let arrive = arrive.checked_sub(self.wheel.len()).unwrap_or(arrive);
        for &Move(node, in_port, vc, out_port) in moves {
            let mut flit = self.fifo_pop(node, in_port, vc);
            // Wormhole lock maintenance.
            let li = (node * PORTS + out_port) * vcs + vc;
            if flit.index() + 1 == self.slab[flit.slot as usize].nflits {
                self.lock_in[li] = NO_LOCK;
            } else if flit.is_head() {
                self.lock_in[li] = in_port as u8;
                self.lock_slot[li] = flit.slot;
            }
            self.rr[node * PORTS + out_port] = in_port as u8;

            if out_port == LOCAL {
                self.eject(node, flit);
            } else {
                let di = out_port - 1;
                // One corruption roll per link traversal (fixed RNG
                // consumption), plus deterministic corruption on downed
                // links.
                let rolled = plane.as_deref_mut().is_some_and(|p| p.corrupt_roll());
                if rolled || self.link_is_down(node, di) {
                    flit.corrupt();
                }
                let link = node * 4 + di;
                self.link_vc[link * vcs + vc] += 1;
                self.wheel[arrive].push(Transit {
                    flit,
                    link: link as u32,
                    vc: vc as u8,
                });
                self.link_flits[node][di] += 1;
                self.stats.flit_hops += 1;
            }
        }
    }

    fn eject(&mut self, node: usize, flit: Flit) {
        self.stats.flits_ejected += 1;
        let p = &mut self.slab[flit.slot as usize];
        debug_assert_eq!(p.dst as usize, node, "misrouted flit");
        // A single damaged flit poisons the whole packet: nothing of it is
        // delivered, and the drop is accounted once the tail arrives.
        if flit.is_corrupt() {
            self.stats.corrupted_flits += 1;
            p.poisoned = true;
        }
        if flit.index() + 1 < p.nflits {
            return;
        }
        if p.poisoned {
            self.stats.dropped_corrupt += 1;
        } else {
            let d = Delivered {
                msg: p.msg.take().expect("a live slot holds its message"),
                injected_at: p.injected_at,
                delivered_at: self.now,
            };
            self.stats.latency.record(d.latency());
            self.stats.delivered += 1;
            self.rx_pending += 1;
            self.eject_q[node].push_back(d);
        }
        self.free_slot(flit.slot);
    }

    /// NIC: stream queued flits into the router's local input port, one flit
    /// per node per cycle, highest-priority class first.
    fn phase_inject(&mut self) {
        let vcs = self.cfg.vcs;
        for node in 0..self.mesh.nodes() {
            for vc in 0..vcs {
                let nq = node * vcs + vc;
                if self.nic.len(nq) == 0
                    || self.fifos.len((node * PORTS + LOCAL) * vcs + vc) >= self.cfg.vc_buffer
                {
                    continue;
                }
                let slot = self.nic.front(nq);
                let seq = self.nic_sent[nq];
                if seq + 1 == self.slab[slot as usize].nflits {
                    self.nic.pop(nq);
                    self.nic_sent[nq] = 0;
                } else {
                    self.nic_sent[nq] = seq + 1;
                }
                self.fifo_push(node, LOCAL, vc, Flit { slot, seq });
                self.last_progress = self.stats.cycles;
                break; // One flit per node per cycle.
            }
        }
    }
}

/// The NoC under the unified wakeup contract: one `wake` advances the
/// network one cycle and reports when it next needs to run. The NoC keeps
/// its own clock (`Noc::now`); drivers are expected to call `wake` once per
/// elapsed simulated cycle while the network is busy, and may park it on
/// the returned `OnMessage` when it drains (re-arming on `try_inject`).
impl Schedulable for Noc {
    fn wake(&mut self, _now: Cycle, _ctx: &mut ()) -> Wakeup {
        self.step();
        match self.next_activity() {
            Some(t) => Wakeup::AtOrMessage(t),
            None => Wakeup::OnMessage,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlane, FaultPlaneConfig};
    use crate::packet::TrafficClass;

    fn msg(src: u16, dst: u16, bytes: usize) -> Message {
        Message::new(
            NodeId(src),
            NodeId(dst),
            TrafficClass::Request,
            vec![0xAB; bytes],
        )
    }

    #[test]
    fn single_message_crosses_mesh() {
        let mut noc = Noc::new(NocConfig::soft(4, 4));
        noc.try_inject(NodeId(0), msg(0, 15, 32)).expect("space");
        assert!(noc.run_until_quiescent(10_000));
        let d = noc.poll_eject(NodeId(15)).expect("delivered");
        assert_eq!(d.msg.src, NodeId(0));
        assert_eq!(d.msg.payload.len(), 32);
        assert!(d.latency() > 0);
    }

    #[test]
    fn loopback_delivery() {
        let mut noc = Noc::new(NocConfig::soft(2, 2));
        noc.try_inject(NodeId(3), msg(3, 3, 8)).expect("space");
        assert!(noc.run_until_quiescent(1_000));
        assert!(noc.poll_eject(NodeId(3)).is_some());
    }

    #[test]
    fn src_forgery_rejected() {
        let mut noc = Noc::new(NocConfig::soft(2, 2));
        assert_eq!(
            noc.try_inject(NodeId(0), msg(1, 2, 8)),
            Err(InjectError::SrcMismatch)
        );
    }

    #[test]
    fn bad_destination_rejected() {
        let mut noc = Noc::new(NocConfig::soft(2, 2));
        assert_eq!(
            noc.try_inject(NodeId(0), msg(0, 99, 8)),
            Err(InjectError::BadDestination)
        );
    }

    #[test]
    fn queue_fills_and_backpressures() {
        let mut noc = Noc::new(NocConfig::soft(2, 2));
        let q = noc.config().inject_queue;
        for _ in 0..q {
            noc.try_inject(NodeId(0), msg(0, 3, 8)).expect("space");
        }
        assert_eq!(
            noc.try_inject(NodeId(0), msg(0, 3, 8)),
            Err(InjectError::QueueFull)
        );
        assert_eq!(noc.stats().rejected, 1);
    }

    #[test]
    fn latency_grows_with_distance() {
        let cfg = NocConfig::soft(8, 1);
        let mut near = Noc::new(cfg);
        near.try_inject(NodeId(0), msg(0, 1, 8)).expect("space");
        near.run_until_quiescent(1_000);
        let near_lat = near.poll_eject(NodeId(1)).expect("delivered").latency();

        let mut far = Noc::new(cfg);
        far.try_inject(NodeId(0), msg(0, 7, 8)).expect("space");
        far.run_until_quiescent(1_000);
        let far_lat = far.poll_eject(NodeId(7)).expect("delivered").latency();
        assert!(far_lat > near_lat, "{far_lat} !> {near_lat}");
    }

    #[test]
    fn large_message_latency_scales_with_flits() {
        let cfg = NocConfig::soft(4, 4);
        let mut a = Noc::new(cfg);
        a.try_inject(NodeId(0), msg(0, 15, 16)).expect("space");
        a.run_until_quiescent(10_000);
        let small = a.poll_eject(NodeId(15)).expect("delivered").latency();

        let mut b = Noc::new(cfg);
        b.try_inject(NodeId(0), msg(0, 15, 1024)).expect("space");
        b.run_until_quiescent(10_000);
        let big = b.poll_eject(NodeId(15)).expect("delivered").latency();
        // 1024 B at 16 B/flit is ~64 more flits of serialisation.
        assert!(big >= small + 60, "big={big} small={small}");
    }

    #[test]
    fn many_messages_all_deliver_exactly_once() {
        let mut noc = Noc::new(NocConfig::soft(4, 4));
        let n = noc.mesh().nodes() as u16;
        let mut sent = 0u64;
        // Every node sends to every other node, paced by queue capacity.
        for round in 0..4 {
            for s in 0..n {
                let d = (s + 1 + round) % n;
                if noc.try_inject(NodeId(s), msg(s, d, 40)).is_ok() {
                    sent += 1;
                }
            }
            for _ in 0..50 {
                noc.step();
            }
        }
        assert!(noc.run_until_quiescent(100_000));
        let total: u64 = (0..n)
            .map(|i| noc.drain_eject(NodeId(i)).len() as u64)
            .sum();
        assert_eq!(total, sent);
        assert_eq!(noc.stats().delivered, sent);
    }

    #[test]
    fn per_source_fifo_order_within_class() {
        let mut noc = Noc::new(NocConfig::soft(4, 1));
        // Tag messages with a sequence number in the payload.
        for i in 0..6u8 {
            let mut m = msg(0, 3, 24);
            m.payload.make_mut()[0] = i;
            m.tag = i as u64;
            noc.try_inject(NodeId(0), m).expect("space");
        }
        assert!(noc.run_until_quiescent(10_000));
        let got = noc.drain_eject(NodeId(3));
        let tags: Vec<u64> = got.iter().map(|d| d.msg.tag).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn control_class_beats_bulk_under_load() {
        let mut noc = Noc::new(NocConfig::soft(8, 1));
        // Saturate the path 0 -> 7 with bulk traffic.
        for _ in 0..8 {
            let mut m = msg(0, 7, 512);
            m.class = TrafficClass::Bulk;
            let _ = noc.try_inject(NodeId(0), m);
        }
        // Let bulk get going.
        for _ in 0..20 {
            noc.step();
        }
        // Now a control message on the same path.
        let mut c = msg(0, 7, 16);
        c.class = TrafficClass::Control;
        c.tag = 777;
        noc.try_inject(NodeId(0), c).expect("space");
        assert!(noc.run_until_quiescent(100_000));
        let got = noc.drain_eject(NodeId(7));
        let ctrl = got.iter().find(|d| d.msg.tag == 777).expect("delivered");
        let bulk_max = got
            .iter()
            .filter(|d| d.msg.class == TrafficClass::Bulk)
            .map(|d| d.delivered_at)
            .max()
            .expect("bulk delivered");
        // Control overtakes at least the tail of the bulk burst.
        assert!(ctrl.delivered_at < bulk_max);
    }

    #[test]
    fn hardened_noc_is_faster() {
        let mut soft = Noc::new(NocConfig::soft(8, 8));
        soft.try_inject(NodeId(0), msg(0, 63, 256)).expect("space");
        soft.run_until_quiescent(100_000);
        let s = soft.poll_eject(NodeId(63)).expect("delivered").latency();

        let mut hard = Noc::new(NocConfig::hardened(8, 8));
        hard.try_inject(NodeId(0), msg(0, 63, 256)).expect("space");
        hard.run_until_quiescent(100_000);
        let h = hard.poll_eject(NodeId(63)).expect("delivered").latency();
        assert!(h < s, "hardened {h} !< soft {s}");
    }

    #[test]
    fn stats_counters_consistent() {
        let mut noc = Noc::new(NocConfig::soft(3, 3));
        for s in 0..9u16 {
            let _ = noc.try_inject(NodeId(s), msg(s, (s + 4) % 9, 64));
        }
        assert!(noc.run_until_quiescent(50_000));
        let st = noc.stats();
        assert_eq!(st.injected, st.delivered);
        assert_eq!(st.latency.count(), st.delivered);
        assert!(st.flits_ejected >= st.delivered);
        assert_eq!(noc.pending(), 0);
    }

    #[test]
    fn rings_wrap_and_retain_in_order_per_queue() {
        let mut r: Rings<u32> = Rings::new(2, 3);
        for v in 0..3 {
            r.push(1, v);
        }
        assert_eq!((r.len(0), r.len(1), r.pop(1), r.front(1)), (0, 3, 0, 1));
        r.push(1, 3); // Wraps around the end of the queue's storage.
        assert_eq!(r.iter(1).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!(r.retain(1, |v| v != 2));
        assert_eq!(r.iter(1).collect::<Vec<_>>(), vec![1, 3]);
        assert!(!r.retain(1, |_| true));
        assert_eq!(r.len(0), 0, "neighbouring queue untouched");
    }

    #[test]
    fn corrupt_bit_is_idempotent_and_keeps_position() {
        let mut f = Flit { slot: 7, seq: 3 };
        assert!(!f.is_corrupt() && !f.is_head());
        f.corrupt();
        assert!(f.is_corrupt());
        f.corrupt();
        assert!(f.is_corrupt(), "double corruption stays detected");
        assert_eq!((f.slot, f.index()), (7, 3));
        assert!(Flit {
            slot: 0,
            seq: CORRUPT
        }
        .is_head());
    }

    #[test]
    fn invariant_checker_catches_broken_state() {
        let mut noc = Noc::new(NocConfig::soft(4, 4));
        for s in 0..16u16 {
            let _ = noc.try_inject(NodeId(s), msg(s, 15 - s, 100));
        }
        for _ in 0..12 {
            noc.step();
            assert_eq!(noc.check_invariants(), Ok(()));
        }
        let node = (0..16).find(|&n| noc.head_mask[n] != 0).expect("busy");
        let mask = std::mem::take(&mut noc.head_mask[node]);
        assert!(matches!(
            noc.check_invariants(),
            Err(NocInvariantError::HeadMask(..))
        ));
        noc.head_mask[node] = mask;
        assert_eq!(noc.check_invariants(), Ok(()));
        noc.stats.injected += 1;
        assert!(matches!(
            noc.check_invariants(),
            Err(NocInvariantError::Conservation(..))
        ));
    }

    #[test]
    fn transient_outage_drops_and_counts_instead_of_delivering() {
        let mut noc = Noc::new(NocConfig::soft(4, 1));
        // Take the 0->1 link down for longer than the whole transfer.
        noc.fail_link_for(NodeId(0), Direction::East, 10_000);
        noc.try_inject(NodeId(0), msg(0, 3, 64)).expect("space");
        assert!(noc.run_until_quiescent(100_000));
        assert!(noc.poll_eject(NodeId(3)).is_none(), "must not deliver");
        let st = noc.stats();
        assert_eq!(st.dropped_corrupt, 1);
        assert!(st.corrupted_flits > 0);
        assert_eq!(st.delivered, 0);
        assert_eq!(noc.pending(), 0);
        assert_eq!(noc.check_invariants(), Ok(()));
    }

    #[test]
    fn outage_heals_and_traffic_resumes() {
        let mut noc = Noc::new(NocConfig::soft(4, 1));
        noc.fail_link_for(NodeId(0), Direction::East, 50);
        for _ in 0..60 {
            noc.step();
        }
        noc.try_inject(NodeId(0), msg(0, 3, 64)).expect("space");
        assert!(noc.run_until_quiescent(100_000));
        assert!(noc.poll_eject(NodeId(3)).is_some(), "healed link delivers");
        assert_eq!(noc.stats().dropped(), 0);
        assert_eq!(noc.check_invariants(), Ok(()));
    }

    #[test]
    fn permanent_kill_detours_around_the_dead_link() {
        // 4x4 mesh: kill 0->East; XY route 0->3 would use it. A detour
        // through row 1 must deliver intact (no flit is corrupted: the
        // packet never touches the dead link).
        let mut noc = Noc::new(NocConfig::soft(4, 4));
        assert!(noc.kill_link(NodeId(0), Direction::East));
        assert!(noc.reachable(NodeId(0), NodeId(3)));
        noc.try_inject(NodeId(0), msg(0, 3, 64)).expect("space");
        assert!(noc.run_until_quiescent(100_000));
        let d = noc.poll_eject(NodeId(3)).expect("detoured delivery");
        assert_eq!(d.msg.payload.len(), 64);
        assert_eq!(noc.stats().dropped(), 0);
        assert_eq!(noc.check_invariants(), Ok(()));
    }

    #[test]
    fn cut_off_node_reports_unreachable() {
        // 2x1 mesh: killing both directions of the only link partitions it.
        let mut noc = Noc::new(NocConfig::soft(2, 1));
        assert!(noc.kill_link(NodeId(0), Direction::East));
        assert!(noc.kill_link(NodeId(1), Direction::West));
        assert!(!noc.reachable(NodeId(0), NodeId(1)));
        assert_eq!(
            noc.try_inject(NodeId(0), msg(0, 1, 8)),
            Err(InjectError::Unreachable)
        );
        // Loopback still works.
        assert!(noc.reachable(NodeId(0), NodeId(0)));
        noc.try_inject(NodeId(0), msg(0, 0, 8)).expect("loopback");
        assert!(noc.run_until_quiescent(1_000));
        assert_eq!(noc.check_invariants(), Ok(()));
    }

    #[test]
    fn kill_mid_flight_never_hangs() {
        let mut noc = Noc::new(NocConfig::soft(4, 4));
        for s in 0..16u16 {
            let _ = noc.try_inject(NodeId(s), msg(s, (s + 7) % 16, 400));
        }
        for _ in 0..10 {
            noc.step();
        }
        // Sever several links while packets are streaming.
        noc.kill_link(NodeId(1), Direction::East);
        noc.kill_link(NodeId(2), Direction::West);
        noc.kill_link(NodeId(5), Direction::North);
        assert!(
            noc.run_until_quiescent(1_000_000),
            "network must always drain"
        );
        let st = noc.stats();
        assert_eq!(st.delivered + st.dropped(), st.injected);
        assert_eq!(noc.check_invariants(), Ok(()));
    }

    #[test]
    fn router_stall_delays_but_delivers() {
        let mut base = Noc::new(NocConfig::soft(4, 1));
        base.try_inject(NodeId(0), msg(0, 3, 64)).expect("space");
        base.run_until_quiescent(10_000);
        let unstalled = base.poll_eject(NodeId(3)).expect("delivered").latency();

        let mut noc = Noc::new(NocConfig::soft(4, 1));
        noc.stall_router(NodeId(1), 300);
        noc.try_inject(NodeId(0), msg(0, 3, 64)).expect("space");
        assert!(noc.run_until_quiescent(100_000));
        let stalled = noc.poll_eject(NodeId(3)).expect("delivered").latency();
        assert!(
            stalled >= unstalled + 250,
            "stalled={stalled} unstalled={unstalled}"
        );
        assert_eq!(noc.stats().dropped(), 0);
        assert_eq!(noc.check_invariants(), Ok(()));
    }

    #[test]
    fn chaos_plane_runs_are_deterministic() {
        let run = |seed: u64| {
            let mut noc = Noc::new(NocConfig::soft(4, 4));
            noc.install_fault_plane(FaultPlane::new(FaultPlaneConfig::with_rate(seed, 0.02)));
            let mut delivered_tags = Vec::new();
            for round in 0..400u64 {
                for s in 0..16u16 {
                    let mut m = msg(s, ((s as u64 + round) % 16) as u16, 48);
                    m.tag = round << 16 | s as u64;
                    let _ = noc.try_inject(NodeId(s), m);
                }
                for _ in 0..8 {
                    noc.step();
                }
                for n in 0..16u16 {
                    for d in noc.drain_eject(NodeId(n)) {
                        delivered_tags.push(d.msg.tag);
                    }
                }
            }
            assert!(noc.run_until_quiescent(2_000_000), "chaos must not hang");
            for n in 0..16u16 {
                for d in noc.drain_eject(NodeId(n)) {
                    delivered_tags.push(d.msg.tag);
                }
            }
            noc.check_invariants()
                .expect("chaos leaves the network consistent");
            let st = noc.stats().clone();
            assert_eq!(st.delivered + st.dropped(), st.injected);
            (
                delivered_tags,
                st.delivered,
                st.dropped(),
                st.corrupted_flits,
            )
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a, b, "same seed, same chaos run");
        let c = run(12);
        assert_ne!(a.0, c.0, "different seed, different run");
        assert!(a.2 > 0, "a 2% plane must actually drop something");
        assert!(a.1 > 0, "most traffic still gets through");
    }

    #[test]
    fn link_utilization_sums_to_flit_hops() {
        let mut noc = Noc::new(NocConfig::soft(4, 4));
        for s in 0..16u16 {
            let d = (s + 5) % 16;
            if s == d {
                continue;
            }
            let _ = noc.try_inject(NodeId(s), msg(s, d, 100));
        }
        assert!(noc.run_until_quiescent(100_000));
        let cycles = noc.stats().cycles as f64;
        let total: f64 = noc
            .link_utilization()
            .iter()
            .map(|(_, _, u)| u * cycles)
            .sum();
        assert_eq!(total.round() as u64, noc.stats().flit_hops);
    }

    #[test]
    fn hot_path_shows_up_in_utilization() {
        let mut noc = Noc::new(NocConfig::soft(4, 1));
        // Stream 0 -> 3 along the row.
        for _ in 0..8 {
            let _ = noc.try_inject(
                NodeId(0),
                Message::new(NodeId(0), NodeId(3), TrafficClass::Bulk, vec![0; 512]),
            );
        }
        assert!(noc.run_until_quiescent(100_000));
        let hot = noc.link_utilization();
        // The hottest links are the eastward hops of the stream.
        let (node, dir, util) = hot[0];
        assert_eq!(dir, Direction::East);
        assert!(node == NodeId(0) || node == NodeId(1) || node == NodeId(2));
        assert!(util > 0.1, "{util}");
        // Edge links (mesh boundary) never appear.
        assert!(hot
            .iter()
            .all(|(n, d, _)| noc.mesh().neighbor(*n, *d).is_some()));
    }

    #[test]
    fn congestion_render_has_grid_shape() {
        let mut noc = Noc::new(NocConfig::soft(3, 2));
        let _ = noc.try_inject(NodeId(0), msg(0, 5, 64));
        noc.run_until_quiescent(10_000);
        let s = noc.render_congestion();
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains('%'));
    }
}
