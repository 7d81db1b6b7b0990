//! Shared system builders and load-driving harnesses for the experiments.

use apiary_accel::apps::idle::idle;
use apiary_cap::CapRef;
use apiary_core::{AppId, FaultPolicy, System, SystemConfig};
use apiary_monitor::{wire, SendError};
use apiary_noc::{NodeId, TrafficClass};
use apiary_sim::{clock_mode, ClockMode, Cycle, Histogram, Payload};
use std::collections::HashMap;

/// A closed-loop request driver attached directly to a tile's monitor —
/// the harness stand-in for request-issuing accelerator logic. It keeps
/// `outstanding` requests in flight toward one capability and records
/// round-trip latency.
pub struct MonitorClient {
    /// The tile this client drives.
    pub node: NodeId,
    /// The capability requests go through.
    pub cap: CapRef,
    /// In-flight window.
    pub outstanding: u32,
    /// Think time after each completion.
    pub think: u64,
    /// Traffic class for requests.
    pub class: TrafficClass,
    /// Stop after this many requests.
    pub max_requests: u64,
    /// Payload generator, called with the request tag.
    pub payload: Box<dyn FnMut(u64) -> Vec<u8>>,
    next_tag: u64,
    in_flight: u32,
    next_fire: Cycle,
    sent_at: HashMap<u64, Cycle>,
    /// Requests issued.
    pub issued: u64,
    /// Responses received.
    pub completed: u64,
    /// Error responses received (not included in the RTT histogram).
    pub errors: u64,
    /// Sends refused by the monitor (rate limit, backpressure).
    pub refused: u64,
    /// Requests abandoned after `timeout` cycles without a response.
    pub lost: u64,
    /// Per-request timeout in cycles (0 = wait forever).
    pub timeout: u64,
    /// Completions to discard before recording RTTs (warmup; hides the
    /// initial window-fill burst).
    pub warmup: u64,
    /// Round-trip latency histogram.
    pub rtt: Histogram,
    /// Response payloads kept for verification (bounded).
    pub kept: Vec<(u64, Payload)>,
    /// How many response payloads to keep.
    pub keep: usize,
    /// Tag namespace offset so co-resident clients don't collide.
    pub tag_base: u64,
}

impl MonitorClient {
    /// Creates a client with a fixed payload.
    pub fn new(node: NodeId, cap: CapRef, payload_bytes: usize) -> MonitorClient {
        MonitorClient::with_payload(node, cap, Box::new(move |_| vec![0x5A; payload_bytes]))
    }

    /// Creates a client with a payload generator.
    pub fn with_payload(
        node: NodeId,
        cap: CapRef,
        payload: Box<dyn FnMut(u64) -> Vec<u8>>,
    ) -> MonitorClient {
        MonitorClient {
            node,
            cap,
            outstanding: 1,
            think: 0,
            class: TrafficClass::Request,
            max_requests: u64::MAX,
            payload,
            next_tag: 0,
            in_flight: 0,
            next_fire: Cycle::ZERO,
            sent_at: HashMap::new(),
            issued: 0,
            completed: 0,
            errors: 0,
            refused: 0,
            lost: 0,
            timeout: 0,
            warmup: 0,
            rtt: Histogram::new(),
            kept: Vec::new(),
            keep: 0,
            tag_base: 0,
        }
    }

    /// Builder: in-flight window.
    pub fn window(mut self, n: u32) -> MonitorClient {
        self.outstanding = n;
        self
    }

    /// Builder: request budget.
    pub fn max_requests(mut self, n: u64) -> MonitorClient {
        self.max_requests = n;
        self
    }

    /// Builder: keep the first `n` response payloads for verification.
    pub fn keep_responses(mut self, n: usize) -> MonitorClient {
        self.keep = n;
        self
    }

    /// Returns `true` if `tag` belongs to this client's namespace.
    pub fn owns_tag(&self, tag: u64) -> bool {
        tag & TAG_BASE_MASK == self.tag_base
    }

    /// Expires timed-out requests (lost to a faulted service).
    fn expire(&mut self, now: Cycle) {
        if self.timeout > 0 {
            let deadline = self.timeout;
            let before = self.sent_at.len();
            self.sent_at.retain(|_, sent| now - *sent < deadline);
            let expired = before - self.sent_at.len();
            self.lost += expired as u64;
            self.in_flight = self.in_flight.saturating_sub(expired as u32);
        }
    }

    /// Accounts one delivered message addressed to this client.
    fn absorb(&mut self, d: apiary_noc::Delivered, now: Cycle) {
        let Some(sent) = self.sent_at.remove(&d.msg.tag) else {
            return;
        };
        self.in_flight = self.in_flight.saturating_sub(1);
        self.completed += 1;
        if d.msg.kind == wire::KIND_ERROR {
            self.errors += 1;
        } else {
            if self.completed > self.warmup {
                self.rtt.record(now - sent);
            }
            if self.kept.len() < self.keep {
                self.kept.push((d.msg.tag, d.msg.payload));
            }
        }
        self.next_fire = now + self.think;
    }

    /// Drives one cycle for a client that is alone on its tile: collect
    /// responses, then refill the window. [`drive`] calls it on every cycle
    /// where [`MonitorClient::next_wakeup`] says it can act. Co-resident
    /// clients must use [`pump_group`] instead.
    pub fn pump(&mut self, sys: &mut System) {
        let now = sys.now();
        self.expire(now);
        while let Some(d) = sys.tile_mut(self.node).monitor.recv() {
            self.absorb(d, now);
        }
        self.refill(sys);
    }

    /// Refills the request window.
    pub fn refill(&mut self, sys: &mut System) {
        let now = sys.now();
        while self.in_flight < self.outstanding
            && self.issued < self.max_requests
            && self.next_fire <= now
        {
            let tag = self.tag_base + self.next_tag;
            let body = (self.payload)(tag);
            let res = sys.tile_mut(self.node).monitor.send(
                self.cap,
                wire::KIND_REQUEST,
                tag,
                self.class,
                body,
                now,
            );
            match res {
                Ok(()) => {
                    self.next_tag += 1;
                    self.issued += 1;
                    self.in_flight += 1;
                    self.sent_at.insert(tag, now);
                }
                Err(SendError::Backpressure | SendError::RateLimited) => {
                    self.refused += 1;
                    break;
                }
                Err(e) => panic!("client send failed: {e}"),
            }
        }
    }

    /// All requests issued and completed.
    pub fn done(&self) -> bool {
        self.issued >= self.max_requests && self.in_flight == 0
    }

    /// When this client next needs a [`MonitorClient::pump`]: immediately
    /// if a response is already waiting at its monitor, at the earliest
    /// request-timeout expiry, or whenever it could attempt a send (which
    /// must be retried every cycle while the window is open — dense ticking
    /// counts each refused attempt, and the event clock must match).
    /// `Cycle::MAX` means "only a message can wake me".
    pub fn next_wakeup(&self, sys: &System) -> Cycle {
        let next = sys.now().saturating_add(1);
        if sys.tile(self.node).monitor.inbox_len() > 0 {
            return next;
        }
        let mut due = Cycle::MAX;
        if self.timeout > 0 {
            if let Some(expiry) = self
                .sent_at
                .values()
                .map(|s| s.saturating_add(self.timeout))
                .min()
            {
                due = due.min(expiry.max(next));
            }
        }
        if self.in_flight < self.outstanding && self.issued < self.max_requests {
            due = due.min(self.next_fire.max(next));
        }
        due
    }
}

/// High bits of the tag reserved for the client namespace (see
/// [`MonitorClient::tag_base`]).
pub const TAG_BASE_MASK: u64 = 0xFFFF << 48;

/// Drives one cycle for several clients sharing one tile: responses are
/// dispatched to their owning client by tag namespace.
pub fn pump_group(sys: &mut System, node: NodeId, clients: &mut [MonitorClient]) {
    let now = sys.now();
    for c in clients.iter_mut() {
        debug_assert_eq!(c.node, node, "grouped clients share a tile");
        c.expire(now);
    }
    while let Some(d) = sys.tile_mut(node).monitor.recv() {
        if let Some(c) = clients.iter_mut().find(|c| c.owns_tag(d.msg.tag)) {
            c.absorb(d, now);
        }
    }
    for c in clients.iter_mut() {
        c.refill(sys);
    }
}

/// Builds a system with an idle client tile and one serving tile, wired
/// bidirectionally. Returns `(system, client_cap)`.
pub fn client_server(
    cfg: SystemConfig,
    client: NodeId,
    server: NodeId,
    accel: Box<dyn apiary_accel::Accelerator>,
) -> (System, CapRef) {
    let mut sys = System::new(cfg);
    sys.install(client, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("client slot free");
    sys.install(server, accel, AppId(1), FaultPolicy::FailStop)
        .expect("server slot free");
    let cap = sys.connect(client, server, false).expect("same app");
    sys.connect(server, client, false).expect("reply path");
    (sys, cap)
}

/// Runs the system, pumping every client as needed, until all clients are
/// done or `max_cycles` pass. Returns the cycles consumed.
///
/// Under [`ClockMode::Dense`] every cycle ticks and every client is pumped
/// every cycle. Under [`ClockMode::Event`] the system jumps between
/// wakeups and clients are pumped only on cycles where a pump can act:
/// when mail is waiting, a timeout expires, or a send could be attempted.
/// Both stop on the same cycle with identical client statistics.
pub fn drive(sys: &mut System, clients: &mut [&mut MonitorClient], max_cycles: u64) -> u64 {
    let start = sys.now();
    if clock_mode() == ClockMode::Dense {
        for _ in 0..max_cycles {
            sys.tick();
            for c in clients.iter_mut() {
                c.pump(sys);
            }
            if clients.iter().all(|c| c.done()) {
                break;
            }
        }
        return sys.now() - start;
    }
    let end = start.saturating_add(max_cycles);
    while sys.now() < end {
        // Dense checks `done` after every tick, so if the clients are
        // already done it consumes exactly one cycle before breaking.
        let mut due = if clients.iter().all(|c| c.done()) {
            sys.now().saturating_add(1)
        } else {
            end
        };
        for c in clients.iter() {
            due = due.min(c.next_wakeup(sys));
        }
        loop {
            sys.advance_toward(due);
            let now = sys.now();
            if now >= due
                || now >= end
                || clients
                    .iter()
                    .any(|c| sys.tile(c.node).monitor.inbox_len() > 0)
            {
                break;
            }
        }
        for c in clients.iter_mut() {
            c.pump(sys);
        }
        if clients.iter().all(|c| c.done()) {
            break;
        }
    }
    sys.now() - start
}

#[cfg(test)]
mod tests {
    use super::*;
    use apiary_accel::apps::echo::echo;

    #[test]
    fn monitor_client_completes_closed_loop() {
        let (mut sys, cap) = client_server(
            SystemConfig::default(),
            NodeId(0),
            NodeId(5),
            Box::new(echo(4)),
        );
        let mut client = MonitorClient::new(NodeId(0), cap, 32)
            .window(2)
            .max_requests(25)
            .keep_responses(3);
        let cycles = drive(&mut sys, &mut [&mut client], 100_000);
        assert!(client.done(), "only {} of 25 done", client.completed);
        assert_eq!(client.completed, 25);
        assert_eq!(client.errors, 0);
        assert_eq!(client.kept.len(), 3);
        assert_eq!(client.kept[0].1, vec![0x5A; 32]);
        assert!(client.rtt.min() > 0);
        assert!(cycles > 0);
    }

    #[test]
    fn think_time_slows_issue_rate() {
        let (mut sys, cap) = client_server(
            SystemConfig::default(),
            NodeId(0),
            NodeId(5),
            Box::new(echo(1)),
        );
        let mut fast = MonitorClient::new(NodeId(0), cap, 8).max_requests(10);
        let fast_cycles = drive(&mut sys, &mut [&mut fast], 100_000);

        let (mut sys2, cap2) = client_server(
            SystemConfig::default(),
            NodeId(0),
            NodeId(5),
            Box::new(echo(1)),
        );
        let mut slow = MonitorClient::new(NodeId(0), cap2, 8).max_requests(10);
        slow.think = 500;
        let slow_cycles = drive(&mut sys2, &mut [&mut slow], 100_000);
        assert!(slow_cycles > fast_cycles + 9 * 400);
    }
}
