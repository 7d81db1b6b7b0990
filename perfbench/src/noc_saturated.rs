//! `noc_saturated`: an open loop in simulated time on a raw 8x8 soft mesh.
//!
//! Every node offers uniform-random one-flit requests as a Bernoulli
//! process, plus a fixed number of bulk bursts: twelve 512-byte messages
//! to one destination at a seeded cycle, on their own virtual channel. A
//! burst is longer than the injection queue, so every burst meets
//! backpressure at its source. The offered load, about 0.18 flits per node
//! per cycle, sits just under the knee where p99 latency takes off (at
//! about 0.21 p99 rises by half, and at 0.23 it more than doubles), below the
//! 0.32 flits per node per cycle at which E9's uniform traffic saturates.
//! Routers are busy every cycle, so the event core has no idle time to
//! skip and `Noc::step` does almost all the work.
//!
//! The benchmark drives `Noc::try_inject`, `Noc::step` and
//! `Noc::poll_eject` directly. An injection the NoC refuses waits in its
//! node's source queue and is retried every cycle; its latency counts
//! from the cycle it was due, not the cycle it got in. A message refused
//! at least once counts as a failed operation in `op_fail_ratio`, though
//! it is still delivered.

use crate::spans::{Spans, NO_OP};
use crate::{quantile, Length, Outcome, Workload};
use apiary_noc::{InjectError, Message, Noc, NocConfig, NodeId, Payload, TrafficClass};
use apiary_sim::SimRng;
use std::collections::VecDeque;

/// Mesh side.
const SIDE: u8 = 8;
/// One-flit requests offered per node per cycle.
const RATE: f64 = 0.1;
/// Mean cycles between one node's bulk bursts.
const BURST_SPACING: u64 = 4_800;
/// Messages in a bulk burst: more than the NoC's injection queue holds, so
/// every burst meets backpressure at its source.
const BURST_LEN: usize = 12;
/// Bulk payload size, bytes (33 flits with the 16-byte header).
const BULK_BYTES: usize = 512;
/// Drain guard: a run that has not drained this many cycles after the
/// arrival window closes has wedged.
const DRAIN_LIMIT: u64 = 1_000_000;

/// One offered message.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Cycle the message is due at its source.
    pub due: u64,
    pub src: u16,
    pub dst: u16,
    /// Empty for a one-flit request; `BULK_BYTES` of seeded bytes for bulk.
    pub payload: Payload,
}

impl Arrival {
    fn class(&self) -> TrafficClass {
        if self.payload.is_empty() {
            TrafficClass::Request
        } else {
            TrafficClass::Bulk
        }
    }
}

/// The generated schedule, in due order.
pub struct Input {
    pub arrivals: Vec<Arrival>,
    /// Cycles over which arrivals are offered.
    pub window: u64,
}

/// The workload.
pub struct NocSaturated;

impl Workload for NocSaturated {
    type Input = Input;
    type State = Noc;

    fn generate(seed: u64, length: Length) -> Input {
        let window = match length {
            Length::Full => 60_000,
            Length::Short => 2_000,
        };
        let nodes = u16::from(SIDE) * u16::from(SIDE);
        let mut rng = SimRng::new(seed ^ 0x0C5A_7000);
        let pick_dst = |rng: &mut SimRng, src: u16| {
            let dst = rng.gen_range(u64::from(nodes) - 1) as u16;
            if dst >= src {
                dst + 1
            } else {
                dst
            }
        };
        let mut arrivals = Vec::new();
        // Every node offers the same number of bursts, at seeded times, so
        // the bulk volume is fixed and only its pattern varies by seed.
        for src in 0..nodes {
            for _ in 0..window / BURST_SPACING {
                let due = rng.gen_range(window);
                let dst = pick_dst(&mut rng, src);
                for _ in 0..BURST_LEN {
                    let mut bytes = vec![0u8; BULK_BYTES];
                    rng.fill_bytes(&mut bytes);
                    arrivals.push(Arrival {
                        due,
                        src,
                        dst,
                        payload: Payload::from(bytes),
                    });
                }
            }
        }
        for due in 0..window {
            for src in 0..nodes {
                if rng.gen_bool(RATE) {
                    let dst = pick_dst(&mut rng, src);
                    arrivals.push(Arrival {
                        due,
                        src,
                        dst,
                        payload: Payload::empty(),
                    });
                }
            }
        }
        arrivals.sort_by_key(|a| a.due);
        Input { arrivals, window }
    }

    fn setup(_input: &Input) -> Noc {
        Noc::new(NocConfig::soft(SIDE, SIDE))
    }

    fn run<S: Spans>(noc: &mut Noc, input: &Input, spans: &mut S) -> Outcome {
        let mut out = Outcome::default();
        let arrivals = &input.arrivals;
        let nodes = noc.mesh().nodes();
        // Source queues per node: [request, bulk].
        let mut queues: Vec<[VecDeque<u32>; 2]> = vec![Default::default(); nodes];
        let mut backlog = 0usize;
        let mut next = 0usize;
        let mut seen = vec![false; arrivals.len()];
        let mut met_refusal = vec![false; arrivals.len()];
        let mut delivered = 0usize;
        let mut latencies = Vec::with_capacity(arrivals.len());
        let mut source_wait = Vec::with_capacity(arrivals.len());
        let (mut refused, mut refused_msgs, mut steps) = (0u64, 0u64, 0u64);
        let mut errors = Vec::new();

        loop {
            let now = noc.now().as_u64();
            while next < arrivals.len() && arrivals[next].due <= now {
                let a = &arrivals[next];
                queues[a.src as usize][a.class().vc() - 1].push_back(next as u32);
                backlog += 1;
                next += 1;
            }
            if backlog > 0 {
                for (src, qs) in queues.iter_mut().enumerate() {
                    for q in qs.iter_mut() {
                        while let Some(&id) = q.front() {
                            let a = &arrivals[id as usize];
                            let mut msg = Message::new(
                                NodeId(a.src),
                                NodeId(a.dst),
                                a.class(),
                                a.payload.clone(),
                            );
                            msg.tag = u64::from(id);
                            let res = spans.time("noc.inject", u64::from(id), || {
                                noc.try_inject(NodeId(src as u16), msg)
                            });
                            match res {
                                Ok(_) => {
                                    q.pop_front();
                                    backlog -= 1;
                                    source_wait.push(now - a.due);
                                }
                                Err(InjectError::QueueFull) => {
                                    refused += 1;
                                    if !met_refusal[id as usize] {
                                        met_refusal[id as usize] = true;
                                        refused_msgs += 1;
                                    }
                                    break;
                                }
                                Err(e) => {
                                    errors.push(format!("message {id} refused: {e}"));
                                    q.pop_front();
                                    backlog -= 1;
                                }
                            }
                        }
                    }
                }
            }
            spans.time("noc.step", NO_OP, || noc.step());
            steps += 1;
            let now = noc.now().as_u64();
            for node in 0..nodes {
                let node = NodeId(node as u16);
                if noc.eject_pending(node) == 0 {
                    continue;
                }
                spans.time("noc.eject", NO_OP, || {
                    while let Some(d) = noc.poll_eject(node) {
                        let id = d.msg.tag as usize;
                        let Some(a) = arrivals.get(id) else {
                            errors.push(format!("unknown message tag {id} at {node:?}"));
                            continue;
                        };
                        if seen[id]
                            || d.msg.dst != node
                            || d.msg.src.0 != a.src
                            || d.msg.payload != a.payload
                        {
                            errors
                                .push(format!("message {id} duplicated or corrupted at {node:?}"));
                            continue;
                        }
                        seen[id] = true;
                        delivered += 1;
                        latencies.push(d.delivered_at.as_u64() - a.due);
                    }
                });
            }
            let drained = next == arrivals.len() && backlog == 0 && noc.pending() == 0;
            if drained {
                break;
            }
            if now > input.window + DRAIN_LIMIT {
                errors.push(format!(
                    "no drain {DRAIN_LIMIT} cycles after the arrival window"
                ));
                break;
            }
        }

        let st = noc.stats();
        out.check(st.injected == st.delivered + st.dropped(), || {
            format!(
                "NoC conservation: injected {} != delivered {} + dropped {}",
                st.injected,
                st.delivered,
                st.dropped()
            )
        });
        out.check(delivered == arrivals.len(), || {
            format!("{} of {} messages delivered", delivered, arrivals.len())
        });
        out.check(st.rejected == refused, || {
            format!(
                "NoC counted {} refusals, benchmark saw {refused}",
                st.rejected
            )
        });
        out.errors.extend(errors);

        source_wait.sort_unstable();
        out.attempted = arrivals.len() as u64;
        out.completed = delivered as u64;
        out.failed = refused_msgs;
        out.sim_cycles = noc.now().as_u64();
        out.latencies = latencies;
        out.count("sim.advance_calls", steps as f64);
        out.count(
            "sim.cycles_per_advance",
            out.sim_cycles as f64 / steps as f64,
        );
        out.count("noc.flit_hops", st.flit_hops as f64);
        out.count("noc.delivered", st.delivered as f64);
        out.count("noc.inject_refused", st.rejected as f64);
        out.count(
            "noc.source_wait_p99_cycles",
            quantile(&source_wait, 0.99) as f64,
        );
        out
    }
}
