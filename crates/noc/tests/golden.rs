//! Golden fingerprints: the NoC's observable behaviour, pinned.
//!
//! Each case drives a fixed workload and hashes everything a caller can
//! see: the delivered `(tag, delivered_at)` stream in ejection order and
//! every `NocStats` counter. The constants were recorded on the nested-deque
//! NoC core that the flat packet-slab / ring-FIFO / timing-wheel core
//! replaced, so any change to switching, fault or accounting behaviour
//! shows up as a mismatch. A change meant to alter simulated results must
//! re-record them and say why.

use apiary_noc::{
    Direction, FaultEvent, FaultPlane, FaultPlaneConfig, Message, Noc, NocConfig, NodeId,
    TrafficClass,
};
use apiary_sim::Cycle;

/// A workload in progress: the NoC plus an FNV-1a hash of what it delivered.
struct Run {
    noc: Noc,
    hash: u64,
    delivered: u64,
}

impl Run {
    fn new(noc: Noc) -> Run {
        Run {
            noc,
            hash: 0xcbf2_9ce4_8422_2325,
            delivered: 0,
        }
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Steps `n` cycles, checks the invariants, then hashes deliveries.
    fn steps(&mut self, n: u64) {
        for _ in 0..n {
            self.noc.step();
        }
        self.noc
            .check_invariants()
            .expect("consistent after every batch");
        for node in 0..self.noc.mesh().nodes() {
            for d in self.noc.drain_eject(NodeId(node as u16)) {
                self.word(d.msg.tag);
                self.word(d.delivered_at.as_u64());
                self.delivered += 1;
            }
        }
    }

    /// Drains the network and folds in every counter.
    fn finish(mut self) -> u64 {
        assert!(self.noc.run_until_quiescent(2_000_000), "must drain");
        self.steps(0);
        let st = self.noc.stats().clone();
        assert_eq!((st.delivered, self.noc.pending()), (self.delivered, 0));
        let l = &st.latency;
        for w in [
            st.injected,
            st.delivered,
            st.rejected,
            l.count(),
            l.min(),
            l.max(),
            l.p50(),
            l.p99(),
            l.mean().to_bits(),
            st.flit_hops,
            st.flits_ejected,
            st.cycles,
            st.corrupted_flits,
            st.dropped_corrupt,
            st.dropped_unreachable,
            st.dropped_flushed,
            st.link_faults,
            st.router_stalls,
        ] {
            self.word(w);
        }
        self.hash
    }

    fn send(&mut self, src: u16, dst: u16, class: TrafficClass, bytes: usize, tag: u64) {
        let mut m = Message::new(NodeId(src), NodeId(dst), class, vec![0xAB; bytes]);
        m.tag = tag;
        let _ = self.noc.try_inject(NodeId(src), m);
    }

    /// Mixed random traffic from a seeded LCG: every class, one-flit to
    /// multi-flit sizes, `per_round` sends then `gap` cycles per round.
    fn mixed(&mut self, seed: u64, rounds: u64, per_round: u64, gap: u64) {
        let nodes = self.noc.mesh().nodes() as u64;
        let mut state = seed;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        for round in 0..rounds {
            for i in 0..per_round {
                let (src, dst) = (next(nodes) as u16, next(nodes) as u16);
                let class = TrafficClass::ALL[next(3) as usize];
                let bytes = [0, 8, 48, 200, 512][next(5) as usize];
                self.send(src, dst, class, bytes, round << 16 | i);
            }
            self.steps(gap);
        }
    }
}

/// The chaos workload under a 2% plane: node `s` sends in round `r` when
/// `(r + s)` is a multiple of `every`.
fn chaos(seed: u64, rounds: u64, every: u64) -> u64 {
    let mut noc = Noc::new(NocConfig::soft(4, 4));
    noc.install_fault_plane(FaultPlane::new(FaultPlaneConfig::with_rate(seed, 0.02)));
    let mut run = Run::new(noc);
    for round in 0..rounds {
        for s in 0..16u16 {
            if (round + u64::from(s)).is_multiple_of(every) {
                let dst = ((u64::from(s) + round) % 16) as u16;
                let tag = round << 16 | u64::from(s);
                run.send(s, dst, TrafficClass::Request, 48, tag);
            }
        }
        run.steps(8);
    }
    run.finish()
}

#[test]
fn golden_chaos_seed_11() {
    assert_eq!(chaos(11, 400, 1), 5_553_183_870_174_714_031);
}

#[test]
fn golden_chaos_seed_77() {
    assert_eq!(chaos(77, 300, 5), 15_613_775_890_198_080_819);
}

#[test]
fn golden_link_killed_mid_flight() {
    let mut run = Run::new(Noc::new(NocConfig::soft(4, 4)));
    for s in 0..16u16 {
        run.send(s, (s + 7) % 16, TrafficClass::Request, 400, u64::from(s));
    }
    run.mixed(5, 4, 12, 3);
    run.noc.kill_link(NodeId(1), Direction::East);
    run.noc.kill_link(NodeId(2), Direction::West);
    run.noc.kill_link(NodeId(5), Direction::North);
    run.mixed(6, 20, 6, 10);
    // Cut both links into corner node 0 while traffic toward it is in flight.
    run.noc.kill_link(NodeId(4), Direction::South);
    run.noc.kill_link(NodeId(1), Direction::West);
    run.mixed(7, 20, 6, 10);
    assert_eq!(run.finish(), 13_118_011_671_566_414_176);
}

#[test]
fn golden_router_stall() {
    let mut plane = FaultPlane::new(FaultPlaneConfig::scripted(3));
    for (at, node, cycles) in [(40, 5, 120), (60, 6, 300), (200, 10, 50), (210, 9, 400)] {
        let node = NodeId(node);
        plane.schedule(Cycle(at), FaultEvent::RouterStall { node, cycles });
    }
    let mut noc = Noc::new(NocConfig::soft(4, 4));
    noc.install_fault_plane(plane);
    let mut run = Run::new(noc);
    run.mixed(21, 80, 5, 6);
    run.noc.stall_router(NodeId(0), 90);
    run.mixed(22, 20, 5, 6);
    assert_eq!(run.finish(), 11_487_972_567_293_139_916);
}

#[test]
fn golden_hardened() {
    let mut noc = Noc::new(NocConfig::hardened(4, 4));
    noc.install_fault_plane(FaultPlane::new(FaultPlaneConfig::with_rate(31, 0.01)));
    let mut run = Run::new(noc);
    run.mixed(31, 150, 10, 5);
    assert_eq!(run.finish(), 14_853_663_229_154_778_001);
}

#[test]
fn golden_soft_hop_latency_3() {
    let cfg = NocConfig {
        hop_latency: 3,
        ..NocConfig::soft(5, 3)
    };
    let mut run = Run::new(Noc::new(cfg));
    run.mixed(41, 60, 8, 5);
    run.noc.fail_link_for(NodeId(6), Direction::East, 40);
    run.noc.fail_link_for(NodeId(7), Direction::West, 25);
    run.mixed(42, 60, 8, 5);
    run.noc.kill_link(NodeId(2), Direction::North);
    run.mixed(43, 60, 8, 5);
    assert_eq!(run.finish(), 5_126_174_798_122_182_544);
}
