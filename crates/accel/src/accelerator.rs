//! The [`Accelerator`] trait and the request/response server harness.

use crate::os::TileOs;
use apiary_cap::CapRef;
use apiary_monitor::wire;
use apiary_noc::{Delivered, TrafficClass};
use apiary_sim::{Cycle, Payload, Wakeup};
use core::fmt;

/// Error restoring externalized accelerator state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// The accelerator does not support preemption.
    NotPreemptible,
    /// The snapshot bytes did not parse.
    Corrupt,
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::NotPreemptible => write!(f, "accelerator is not preemptible"),
            StateError::Corrupt => write!(f, "state snapshot is corrupt"),
        }
    }
}

impl std::error::Error for StateError {}

/// Untrusted logic occupying a tile's dynamic region.
///
/// The kernel calls [`Accelerator::wake`] whenever the accelerator is due
/// to run; the accelerator does one cycle's worth of work and reports when
/// it next needs CPU. All interaction with the world goes through the
/// [`TileOs`] handle. The default implementations make an accelerator
/// merely *concurrent* (§4.4); overriding the three state methods makes it
/// *preemptible*.
///
/// `wake` returns a precise [`Wakeup`] so the event-driven drivers can
/// skip the accelerator's quiescent cycles; returning
/// `Wakeup::AtOrMessage(now + 1)` asks to run every cycle. A `wake`
/// implementation must tolerate spurious calls (earlier than the wakeup
/// it requested) by no-opping, and must never request a wakeup *later*
/// than the first cycle at which the dense clock, which wakes it every
/// cycle, would see it change state.
pub trait Accelerator {
    /// A short, stable name (for traces and floor plans).
    fn name(&self) -> &'static str;

    /// Runs the accelerator at `now` and returns when it next needs CPU.
    ///
    /// The driver re-arms [`Wakeup::OnMessage`] sleepers implicitly when a
    /// message lands in the tile's inbox.
    fn wake(&mut self, now: Cycle, os: &mut dyn TileOs) -> Wakeup;

    /// Returns `true` if the accelerator externalizes its architectural
    /// state ([`Accelerator::save_state`] works).
    fn is_preemptible(&self) -> bool {
        false
    }

    /// Serialises the architectural state of the accelerator so it can be
    /// swapped out at any cycle. `None` means not supported.
    fn save_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores previously saved state.
    ///
    /// # Errors
    ///
    /// [`StateError`] if unsupported or the snapshot is corrupt.
    fn restore_state(&mut self, _state: &[u8]) -> Result<(), StateError> {
        Err(StateError::NotPreemptible)
    }

    /// Downcasting support so the kernel and tests can inspect concrete
    /// accelerator state behind `Box<dyn Accelerator>`.
    fn as_any(&self) -> &dyn core::any::Any;

    /// Mutable downcasting support.
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any;
}

/// A reply produced by a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceReply {
    /// Response kind word (defaults to [`wire::KIND_RESPONSE`]).
    pub kind: u16,
    /// Traffic class for the response.
    pub class: TrafficClass,
    /// Response payload.
    pub payload: Payload,
    /// Compute cycles the request costs before the response can leave
    /// (models the accelerator's processing latency).
    pub cost_cycles: u64,
}

impl ServiceReply {
    /// A plain response with the given payload and cost.
    pub fn ok(payload: impl Into<Payload>, cost_cycles: u64) -> ServiceReply {
        ServiceReply {
            kind: wire::KIND_RESPONSE,
            class: TrafficClass::Request,
            payload: payload.into(),
            cost_cycles,
        }
    }

    /// An application-level error reply.
    pub fn error(code: u8) -> ServiceReply {
        ServiceReply {
            kind: wire::KIND_ERROR,
            class: TrafficClass::Control,
            payload: vec![code].into(),
            cost_cycles: 1,
        }
    }
}

/// What a service asks the harness to do with a request.
pub enum ServiceAction {
    /// Compute for `cost_cycles`, then send the reply to the requester.
    Reply(ServiceReply),
    /// Compute for `cost_cycles`, then forward `payload` through `cap`
    /// (pipeline stages), carrying the original request's tag.
    Forward {
        /// Capability to the next stage.
        cap: CapRef,
        /// Message kind for the forwarded message.
        kind: u16,
        /// Traffic class for the forwarded message.
        class: TrafficClass,
        /// The forwarded payload.
        payload: Payload,
        /// Compute latency before the forward leaves.
        cost_cycles: u64,
    },
    /// Consume the request silently.
    Done,
    /// The request exposed an internal error: raise a fault with this code.
    Fault(u32),
}

/// Request/response service logic, lifted into an [`Accelerator`] by
/// [`ServerAccel`].
///
/// `serve` is called once per request; the harness models compute latency,
/// busy-state backpressure and reply routing, so services stay pure.
pub trait Service {
    /// Service name.
    fn name(&self) -> &'static str;

    /// Handles one request.
    fn serve(&mut self, req: &Delivered, os: &mut dyn TileOs) -> ServiceAction;

    /// Optional per-cycle idle work (e.g. proactive traffic generators).
    fn idle(&mut self, _os: &mut dyn TileOs) {}

    /// When the service needs CPU while no request is in flight. The
    /// default — [`Wakeup::OnMessage`] — suits pure request/response
    /// services whose [`Service::idle`] does nothing; services that
    /// generate work spontaneously (traffic flooders, pollers) override
    /// this to request timed wakeups so the event-driven drivers keep
    /// calling [`Service::idle`].
    fn wakeup(&self, _now: Cycle) -> Wakeup {
        Wakeup::OnMessage
    }

    /// Optional state externalization (enables preemption).
    fn save(&self) -> Option<Vec<u8>> {
        None
    }

    /// Optional state restoration.
    ///
    /// # Errors
    ///
    /// [`StateError`] if unsupported or the snapshot is corrupt.
    fn restore(&mut self, _state: &[u8]) -> Result<(), StateError> {
        Err(StateError::NotPreemptible)
    }
}

/// What happens when the in-flight job finishes.
enum Completion {
    Reply {
        reply: ServiceReply,
        to: Delivered,
    },
    Forward {
        cap: CapRef,
        kind: u16,
        tag: u64,
        class: TrafficClass,
        payload: Payload,
    },
}

/// One in-flight job inside a [`ServerAccel`].
struct Pending {
    done_at: Cycle,
    completion: Completion,
}

/// Lifts a [`Service`] into a full [`Accelerator`]: one request in service
/// at a time (a single execution unit), compute latency modelled by
/// [`ServiceReply::cost_cycles`], replies routed back to the requester.
pub struct ServerAccel<S: Service> {
    service: S,
    pending: Option<Pending>,
    served: u64,
    halted: bool,
}

impl<S: Service> ServerAccel<S> {
    /// Wraps a service.
    pub fn new(service: S) -> ServerAccel<S> {
        ServerAccel {
            service,
            pending: None,
            served: 0,
            halted: false,
        }
    }

    /// Returns `true` once the accelerator has wedged on a fault.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Requests completed.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// The wrapped service.
    pub fn service(&self) -> &S {
        &self.service
    }

    /// Mutable access to the wrapped service (tests, reconfiguration).
    pub fn service_mut(&mut self) -> &mut S {
        &mut self.service
    }

    /// Next wakeup after consuming a message without starting a job: drain
    /// the backlog next cycle if one exists, else sleep — but never later
    /// than the service's own idle schedule.
    fn backlog_wakeup(&self, now: Cycle, os: &dyn TileOs) -> Wakeup {
        let drain = if os.inbox_depth() > 0 {
            Wakeup::AtOrMessage(now.saturating_add(1))
        } else {
            Wakeup::OnMessage
        };
        drain.earliest(self.service.wakeup(now))
    }
}

impl<S: Service + 'static> Accelerator for ServerAccel<S> {
    fn name(&self) -> &'static str {
        self.service.name()
    }

    fn as_any(&self) -> &dyn core::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }

    fn wake(&mut self, now: Cycle, os: &mut dyn TileOs) -> Wakeup {
        // A faulted accelerator is wedged until the kernel swaps or resets
        // it; it makes no further progress on its own (§4.4).
        if self.halted {
            return Wakeup::Idle;
        }
        // Finish the in-flight job first.
        if let Some(p) = &self.pending {
            if now >= p.done_at {
                let p = self.pending.take().expect("checked above");
                match p.completion {
                    // Reply failures (revoked client, backpressure) are the
                    // client's problem; the service moves on.
                    Completion::Reply { reply, to } => {
                        let _ = os.reply(&to, reply.kind, reply.class, reply.payload);
                    }
                    Completion::Forward {
                        cap,
                        kind,
                        tag,
                        class,
                        payload,
                    } => {
                        let _ = os.send(cap, kind, tag, class, payload);
                    }
                }
                self.served += 1;
            } else {
                // Busy: requests wait in the monitor's inbox.
                return Wakeup::At(p.done_at);
            }
        }
        // Accept the next request (one per cycle, like the dense loop).
        if let Some(req) = os.recv() {
            // Responses, errors and completions are not requests: a
            // service must never "serve" them, or two mutually-connected
            // services would echo each other's replies forever.
            if matches!(
                req.msg.kind,
                wire::KIND_ERROR
                    | wire::KIND_RESPONSE
                    | wire::KIND_MEM_REPLY
                    | wire::KIND_LOOKUP_REPLY
            ) {
                return self.backlog_wakeup(now, os);
            }
            match self.service.serve(&req, os) {
                ServiceAction::Reply(reply) => {
                    let done_at = now + reply.cost_cycles;
                    self.pending = Some(Pending {
                        done_at,
                        completion: Completion::Reply { reply, to: req },
                    });
                    Wakeup::At(done_at)
                }
                ServiceAction::Forward {
                    cap,
                    kind,
                    class,
                    payload,
                    cost_cycles,
                } => {
                    let done_at = now + cost_cycles;
                    self.pending = Some(Pending {
                        done_at,
                        completion: Completion::Forward {
                            cap,
                            kind,
                            tag: req.msg.tag,
                            class,
                            payload,
                        },
                    });
                    Wakeup::At(done_at)
                }
                ServiceAction::Done => {
                    self.served += 1;
                    self.backlog_wakeup(now, os)
                }
                ServiceAction::Fault(code) => {
                    self.halted = true;
                    os.raise_fault(code);
                    Wakeup::Idle
                }
            }
        } else {
            self.service.idle(os);
            self.service.wakeup(now)
        }
    }

    fn is_preemptible(&self) -> bool {
        self.service.save().is_some()
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        // The harness itself is stateless between requests apart from the
        // pending job, which is abandoned on preemption (the client will
        // retry or time out) — matching the paper's observation that
        // mid-invocation state is the hard part.
        self.service.save()
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), StateError> {
        self.pending = None;
        self.service.restore(state)?;
        self.halted = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::os::test_os::MockOs;
    use apiary_noc::{Message, NodeId};
    use apiary_sim::Wakeup;

    struct Upper;

    impl Service for Upper {
        fn name(&self) -> &'static str {
            "upper"
        }

        fn serve(&mut self, req: &Delivered, _os: &mut dyn TileOs) -> ServiceAction {
            ServiceAction::Reply(ServiceReply::ok(req.msg.payload.to_ascii_uppercase(), 5))
        }
    }

    fn request(payload: &[u8]) -> Delivered {
        let mut msg = Message::new(
            NodeId(1),
            NodeId(0),
            TrafficClass::Request,
            payload.to_vec(),
        );
        msg.kind = wire::KIND_REQUEST;
        msg.tag = 33;
        Delivered {
            msg,
            injected_at: Cycle(0),
            delivered_at: Cycle(0),
        }
    }

    #[test]
    fn server_replies_after_cost_cycles() {
        let mut os = MockOs::new();
        os.deliver(request(b"abc"));
        let mut a = ServerAccel::new(Upper);
        // Cycle 0: accept, job takes 5 cycles; the wakeup names the
        // completion cycle so the driver can jump straight to it.
        assert_eq!(a.wake(os.now(), &mut os), Wakeup::At(Cycle(5)));
        assert!(os.sent.is_empty());
        for _ in 0..4 {
            os.advance(1);
            // Spurious wakes while busy are no-ops re-stating the deadline.
            assert_eq!(a.wake(os.now(), &mut os), Wakeup::At(Cycle(5)));
        }
        assert!(os.sent.is_empty(), "still computing");
        os.advance(1);
        assert_eq!(a.wake(os.now(), &mut os), Wakeup::OnMessage);
        assert_eq!(os.sent.len(), 1);
        let (to, kind, _, payload) = &os.sent[0];
        assert_eq!(*to, NodeId(1));
        assert_eq!(*kind, wire::KIND_RESPONSE);
        assert_eq!(payload, b"ABC");
        assert_eq!(a.served(), 1);
    }

    #[test]
    fn one_job_at_a_time() {
        let mut os = MockOs::new();
        os.deliver(request(b"a"));
        os.deliver(request(b"b"));
        let mut a = ServerAccel::new(Upper);
        a.wake(os.now(), &mut os); // Accepts "a".
        os.advance(1);
        a.wake(os.now(), &mut os); // Busy; "b" stays queued.
        assert_eq!(os.inbox_len(), 1);
        for _ in 0..10 {
            os.advance(1);
            a.wake(os.now(), &mut os);
        }
        assert_eq!(os.sent.len(), 2);
        assert_eq!(a.served(), 2);
    }

    #[test]
    fn error_messages_are_skipped() {
        let mut os = MockOs::new();
        let mut req = request(b"x");
        req.msg.kind = wire::KIND_ERROR;
        os.deliver(req);
        let mut a = ServerAccel::new(Upper);
        for _ in 0..3 {
            a.wake(os.now(), &mut os);
            os.advance(1);
        }
        assert!(os.sent.is_empty());
        assert_eq!(a.served(), 0);
    }

    struct Crasher;

    impl Service for Crasher {
        fn name(&self) -> &'static str {
            "crasher"
        }

        fn serve(&mut self, _req: &Delivered, _os: &mut dyn TileOs) -> ServiceAction {
            ServiceAction::Fault(0xdead)
        }
    }

    #[test]
    fn fault_action_raises() {
        let mut os = MockOs::new();
        os.deliver(request(b"boom"));
        let mut a = ServerAccel::new(Crasher);
        assert_eq!(a.wake(os.now(), &mut os), Wakeup::Idle);
        assert_eq!(os.faults, vec![0xdead]);
    }

    #[test]
    fn default_accelerator_is_not_preemptible() {
        let a = ServerAccel::new(Upper);
        assert!(!a.is_preemptible());
        assert!(a.save_state().is_none());
        let mut a = a;
        assert_eq!(a.restore_state(&[]), Err(StateError::NotPreemptible));
    }
}
