//! `cluster_faas`: an open-loop invocation schedule on a four-board
//! `FaasSystem` whose fabric links drop frames.
//!
//! The schedule is a list of `(arrival cycle, tenant, function)` built
//! from the seed before timing starts:
//!
//! - two base tenants send Poisson arrivals over eight functions with
//!   Zipf(0.9) popularity;
//! - in each of five 150,000-cycle episodes, a flash-crowd tenant hammers
//!   the hottest function for 30,000 cycles from the episode's 20% mark,
//!   at several times its admitted allowance (one crowd's outcome varies a
//!   lot with the seed; five hold the p99 latency's spread over ten seeds
//!   to 0.07 of its median, where three left it at 0.11);
//! - an idle function is touched three times early, abandoned until the
//!   autoscaler takes it to zero replicas, and invoked once more at 80%.
//!
//! Latency runs from arrival to `Finished::finished_at`. Invocations shed
//! at admission, expired in a queue or completed as errors count as
//! failed. Cold starts, the bitstream cache, admission, directory gossip,
//! go-back-N retransmits over the lossy links and floor-planned placement
//! do the work; each board's NoC is nearly idle.

use crate::spans::{Spans, NO_OP};
use crate::{quantile, Length, Outcome, Workload};
use apiary_accel::apps::echo::echo;
use apiary_cluster::{ClusterConfig, FabricConfig, LinkConfig};
use apiary_core::AppId;
use apiary_faas::{AdmissionConfig, FaasConfig, FaasSystem, FunctionSpec, InvokeOutcome};
use apiary_noc::NodeId;
use apiary_resources::Area;
use apiary_sim::{Cycle, SimRng};
use std::rc::Rc;

const BOARDS: u16 = 4;
/// Zipf-popular functions; index 0 is the hottest.
const FUNCTIONS: usize = 8;
const ZIPF_THETA: f64 = 0.9;
/// Service cost per invocation, busy cycles.
const ECHO_COST: u64 = 50;
/// Mean interarrival per base tenant, cycles.
const BASE_INTERARRIVAL: f64 = 50.0;
/// Mean interarrival of the flash crowd, cycles.
const FLASH_INTERARRIVAL: f64 = 8.0;
/// Length of the flash-crowd window, cycles.
const FLASH_CYCLES: u64 = 30_000;
/// Per-frame loss probability on every fabric link.
const LINK_LOSS: f64 = 0.001;
/// Go-back-N retransmission timeout: twice the 400-cycle link round trip.
const ARQ_TIMEOUT: u64 = 800;
/// Cycles between autoscaler boundaries; area utilisation is sampled at
/// each.
const AUTOSCALE_INTERVAL: u64 = 2_000;
/// Cycles at which the idle function is touched before it is abandoned.
const IDLE_TOUCHES: [u64; 3] = [200, 2_200, 4_200];
/// Bytes of argument per invocation.
const ARG_BYTES: usize = 32;
const DRAIN_LIMIT: u64 = 400_000;

/// One scheduled invocation.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    pub at: u64,
    pub tenant: u32,
    pub function: usize,
    pub origin: u16,
}

/// The generated inputs.
pub struct Input {
    /// Invocations in arrival order.
    pub schedule: Vec<Arrival>,
    /// Cycles of offered load.
    pub duration: u64,
    /// Index of the idle function's re-invocation in `schedule`.
    pub idle_reinvoke: usize,
    /// The invocation argument.
    pub arg: Vec<u8>,
    /// Placement, balancer and link-loss seeds.
    pub seeds: [u64; 3],
}

/// The built fleet and the idle function's index.
pub struct State {
    faas: FaasSystem,
    idle_fn: usize,
}

/// The workload.
pub struct ClusterFaas;

impl Workload for ClusterFaas {
    type Input = Input;
    type State = State;

    fn generate(seed: u64, length: Length) -> Input {
        let (episodes, episode) = match length {
            Length::Full => (5, 150_000),
            Length::Short => (1, 40_000),
        };
        let duration = episodes * episode;
        let mut rng = SimRng::new(seed ^ 0xFAA5_BE00);
        let draw = |r: &mut SimRng, mean: f64| (r.gen_exp(mean).ceil() as u64).max(1);
        let mut timed: Vec<(u64, u32, usize)> = Vec::new();
        let idle_fn = FUNCTIONS;
        for tenant in 0..2 {
            let mut at = draw(&mut rng, BASE_INTERARRIVAL);
            while at < duration {
                timed.push((at, tenant, rng.gen_zipf(FUNCTIONS, ZIPF_THETA)));
                at += draw(&mut rng, BASE_INTERARRIVAL);
            }
        }
        for e in 0..episodes {
            let flash_start = e * episode + episode / 5;
            let flash_end = (flash_start + FLASH_CYCLES).min(duration);
            let mut at = flash_start;
            while at < flash_end {
                timed.push((at, 2, 0));
                at += draw(&mut rng, FLASH_INTERARRIVAL);
            }
        }
        for at in IDLE_TOUCHES {
            timed.push((at, 0, idle_fn));
        }
        let reinvoke_at = duration * 4 / 5;
        timed.push((reinvoke_at, 0, idle_fn));
        // Stable: same-cycle arrivals keep their generation order.
        timed.sort_by_key(|&(at, _, _)| at);
        let schedule: Vec<Arrival> = timed
            .iter()
            .enumerate()
            .map(|(i, &(at, tenant, function))| Arrival {
                at,
                tenant,
                function,
                origin: (i % BOARDS as usize) as u16,
            })
            .collect();
        let idle_reinvoke = schedule
            .iter()
            .position(|a| a.function == idle_fn && a.at == reinvoke_at)
            .expect("the re-invocation is scheduled");
        let mut arg = vec![0u8; ARG_BYTES];
        rng.fill_bytes(&mut arg);
        let seeds = [rng.next_u64(), rng.next_u64(), rng.next_u64()];
        Input {
            schedule,
            duration,
            idle_reinvoke,
            arg,
            seeds,
        }
    }

    fn setup(input: &Input) -> State {
        let mut faas = FaasSystem::new(FaasConfig {
            cluster: ClusterConfig {
                boards: BOARDS,
                fabric: FabricConfig {
                    link: LinkConfig {
                        loss: LINK_LOSS,
                        arq_timeout: ARQ_TIMEOUT,
                        ..LinkConfig::default()
                    },
                    seed: input.seeds[2],
                    ..FabricConfig::default()
                },
                // Queued-then-submitted work survives the flash ramp.
                request_timeout: 12_000,
                seed: input.seeds[1],
                ..ClusterConfig::default()
            },
            autoscale_interval: AUTOSCALE_INTERVAL,
            idle_intervals_to_zero: 3,
            queue_timeout: 10_000,
            // 0.03 invocations/cycle per tenant: each base tenant fits with
            // headroom; most of the flash crowd is shed at the door.
            admission: AdmissionConfig {
                rate_milli_inv_per_cycle: 30,
                burst_invocations: 16,
            },
            seed: input.seeds[0],
            ..FaasConfig::default()
        });
        for i in 0..FUNCTIONS {
            // Hotter functions have smaller bitstreams, so the tail's rare
            // cold starts carry the biggest fetches.
            faas.register(FunctionSpec {
                name: format!("fn{i}"),
                footprint: Area::logic(90_000 + 8_000 * i as u64, 100_000),
                bitstream_bytes: 3_000 + 1_250 * i as u64,
                app: AppId(10 + i as u32),
                factory: Rc::new(|| Box::new(echo(ECHO_COST))),
            });
        }
        let idle_fn = faas.register(FunctionSpec {
            name: "fn-idle".to_string(),
            footprint: Area::logic(90_000, 100_000),
            bitstream_bytes: 4_096,
            app: AppId(30),
            factory: Rc::new(|| Box::new(echo(ECHO_COST))),
        });
        State { faas, idle_fn }
    }

    fn run<S: Spans>(state: &mut State, input: &Input, spans: &mut S) -> Outcome {
        let s = &mut state.faas;
        let idle_fn = state.idle_fn;
        let mut out = Outcome::default();
        let mut next = 0usize;
        let mut next_sample = 0u64;
        let mut util_sum = 0.0f64;
        let mut util_samples = 0u64;
        let mut throttled = 0u64;
        let mut steps = 0u64;
        let mut idle_live_at_reinvoke = usize::MAX;

        while s.now().as_u64() < input.duration {
            let now = s.now().as_u64();
            if next_sample <= now {
                util_sum +=
                    (0..BOARDS).map(|b| s.board_utilisation(b)).sum::<f64>() / f64::from(BOARDS);
                util_samples += 1;
                next_sample += AUTOSCALE_INTERVAL;
            }
            while next < input.schedule.len() && input.schedule[next].at <= now {
                let a = input.schedule[next];
                if next == input.idle_reinvoke {
                    idle_live_at_reinvoke = s.live_replicas(idle_fn);
                }
                let arg = input.arg.clone();
                let outcome = spans.time("faas.invoke", next as u64, || {
                    s.invoke(a.function, a.tenant, a.origin, arg)
                });
                if outcome == InvokeOutcome::Throttled {
                    throttled += 1;
                }
                next += 1;
            }
            let mut horizon = input.duration.min(next_sample);
            if let Some(a) = input.schedule.get(next) {
                horizon = horizon.min(a.at);
            }
            spans.time("faas.step", NO_OP, || s.step_toward(Cycle(horizon)));
            steps += 1;
        }
        // Stop offering load and drain: queued work may expire, but the
        // plane must never wedge.
        let limit = Cycle(s.now().as_u64() + DRAIN_LIMIT);
        while !s.quiescent() && s.now() < limit {
            spans.time("faas.step", NO_OP, || s.step_toward(limit));
            steps += 1;
        }
        out.check(s.quiescent(), || {
            format!("no drain within {DRAIN_LIMIT} cycles")
        });

        let finished = s.take_finished();
        let mut cold = Vec::new();
        let mut warm = Vec::new();
        for f in &finished {
            if !f.ok {
                continue;
            }
            let lat = f.finished_at - f.arrival;
            out.latencies.push(lat);
            if f.cold {
                cold.push(lat);
            } else {
                warm.push(lat);
            }
        }
        cold.sort_unstable();
        warm.sort_unstable();

        let stats: Vec<_> = (0..s.function_count()).map(|f| s.stats(f)).collect();
        let admitted: u64 = stats.iter().map(|st| st.invocations).sum();
        let done: u64 = stats
            .iter()
            .map(|st| st.completed_ok + st.completed_err)
            .sum();
        let attempted = input.schedule.len() as u64;
        out.check(admitted + throttled == attempted, || {
            format!("invocations: {admitted} admitted + {throttled} shed != {attempted} offered")
        });
        out.check(s.admission().shed == throttled, || {
            format!(
                "admission counted {} sheds, benchmark saw {throttled}",
                s.admission().shed
            )
        });
        out.check(
            done == admitted && finished.len() as u64 == admitted,
            || {
                format!(
                    "invocation conservation: {admitted} admitted, {done} completed, {} finished",
                    finished.len()
                )
            },
        );
        if let Err(e) = s.check_invariants() {
            out.errors.push(format!("FaasSystem invariants: {e}"));
        }
        out.check(idle_live_at_reinvoke == 0, || {
            format!("idle function had {idle_live_at_reinvoke} live replicas at its re-invocation")
        });

        let ok = out.latencies.len() as u64;
        out.attempted = attempted;
        out.completed = ok;
        out.failed = attempted - ok;
        out.sim_cycles = s.now().as_u64();

        let cluster = s.cluster();
        let (mut hops, mut delivered, mut refused) = (0u64, 0u64, 0u64);
        let (mut sent, mut rate_limited, mut backpressured, mut denied) = (0u64, 0u64, 0u64, 0u64);
        let (mut flow_hits, mut flow_misses) = (0u64, 0u64);
        let (mut merged_in, mut expired) = (0u64, 0u64);
        let (mut hits, mut misses) = (0u64, 0u64);
        for b in 0..BOARDS {
            let sys = cluster.board(b);
            let noc = sys.noc().stats();
            hops += noc.flit_hops;
            delivered += noc.delivered;
            refused += noc.rejected;
            for n in 0..sys.noc().mesh().nodes() {
                let m = sys.tile(NodeId(n as u16)).monitor.stats();
                sent += m.sent;
                rate_limited += m.rate_limited;
                backpressured += m.backpressured;
                denied += m.denied;
                flow_hits += m.flow_hits;
                flow_misses += m.flow_misses;
            }
            let dir = cluster.directory(b);
            merged_in += dir.merged_in;
            expired += dir.expired;
            let cache = s.cache(b);
            hits += cache.hits;
            misses += cache.misses;
        }
        let fabric = cluster.fabric().stats();
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let cold_invocations: u64 = stats.iter().map(|st| st.cold_invocations).sum();
        out.count("sim.advance_calls", steps as f64);
        out.count(
            "sim.cycles_per_advance",
            out.sim_cycles as f64 / steps as f64,
        );
        out.count("noc.flit_hops", hops as f64);
        out.count("noc.delivered", delivered as f64);
        out.count("noc.inject_refused", refused as f64);
        out.count(
            "monitor.flow_hit_ratio",
            ratio(flow_hits, flow_hits + flow_misses),
        );
        out.count("monitor.sent", sent as f64);
        out.count("monitor.rate_limited", rate_limited as f64);
        out.count("monitor.backpressured", backpressured as f64);
        out.count("monitor.denied", denied as f64);
        out.count("net.frames_delivered", fabric.delivered as f64);
        out.count("net.retransmissions", fabric.retransmissions as f64);
        out.count(
            "net.retransmit_ratio",
            ratio(fabric.retransmissions, fabric.delivered),
        );
        out.count("net.acks_coalesced", fabric.acks_coalesced as f64);
        out.count("net.loss_drops", fabric.loss_drops as f64);
        out.count("cluster.dir_merged_in", merged_in as f64);
        out.count("cluster.dir_expired", expired as f64);
        out.count("faas.cold_ratio", ratio(cold_invocations, admitted));
        out.count("faas.cache_hit_ratio", ratio(hits, hits + misses));
        out.count("faas.cold_p99_cycles", quantile(&cold, 0.99) as f64);
        out.count("faas.warm_p99_cycles", quantile(&warm, 0.99) as f64);
        out.count(
            "faas.deploys",
            stats.iter().map(|st| st.deploys).sum::<u64>() as f64,
        );
        out.count(
            "faas.reclaims",
            stats.iter().map(|st| st.reclaims).sum::<u64>() as f64,
        );
        out.count("faas.shed", throttled as f64);
        out.count(
            "faas.expired",
            stats.iter().map(|st| st.expired).sum::<u64>() as f64,
        );
        out.count(
            "resources.area_util_mean",
            util_sum / util_samples.max(1) as f64,
        );
        out
    }
}
