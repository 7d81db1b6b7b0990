//! Messages, packet identifiers and deliveries.

use crate::topology::NodeId;
use apiary_sim::{Cycle, Payload};
use core::fmt;

/// Traffic class, mapped one-to-one onto virtual channels.
///
/// Lower classes win arbitration. The OS reserves [`TrafficClass::Control`]
/// for monitor/kernel traffic so that a flooded data network can never choke
/// fault handling — one of the isolation levers of §4.5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum TrafficClass {
    /// OS control-plane traffic (capability ops, fault notices).
    Control = 0,
    /// Latency-sensitive request/response traffic.
    #[default]
    Request = 1,
    /// Bulk data movement.
    Bulk = 2,
}

impl TrafficClass {
    /// All classes, highest priority first.
    pub const ALL: [TrafficClass; 3] = [
        TrafficClass::Control,
        TrafficClass::Request,
        TrafficClass::Bulk,
    ];

    /// The virtual-channel index this class rides on.
    pub const fn vc(self) -> usize {
        self as usize
    }
}

/// A unique packet identifier, assigned at injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketId(pub u64);

/// An application-level message, the unit handed to and from the NoC.
///
/// `kind`, `tag` and `badge` are opaque to the NoC; higher layers (the
/// monitor and kernel) give them meaning. The NoC charges `header_bytes +
/// payload.len()` bytes of link capacity for the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Source node (stamped by the injecting monitor; untrusted logic cannot
    /// forge it).
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Traffic class / virtual channel.
    pub class: TrafficClass,
    /// Message type, interpreted by the OS layer.
    pub kind: u16,
    /// Request/response correlation tag.
    pub tag: u64,
    /// Badge of the capability the sender used (stamped by the monitor).
    pub badge: u64,
    /// Payload bytes, held by refcounted handle: forwarding, retransmitting
    /// or keeping a message never copies the bytes.
    pub payload: Payload,
}

impl Message {
    /// Creates a message with empty metadata.
    pub fn new(
        src: NodeId,
        dst: NodeId,
        class: TrafficClass,
        payload: impl Into<Payload>,
    ) -> Message {
        Message {
            src,
            dst,
            class,
            kind: 0,
            tag: 0,
            badge: 0,
            payload: payload.into(),
        }
    }

    /// Total wire size in bytes, including the header.
    pub fn wire_bytes(&self, header_bytes: usize) -> usize {
        header_bytes + self.payload.len()
    }

    /// Flits the message occupies on links `flit_bytes` wide; every
    /// message has at least one.
    pub fn flits(&self, flit_bytes: usize, header_bytes: usize) -> usize {
        self.wire_bytes(header_bytes).div_ceil(flit_bytes).max(1)
    }
}

/// A message delivered at its destination's local port, with timing.
#[derive(Debug, Clone)]
pub struct Delivered {
    /// The message.
    pub msg: Message,
    /// Cycle the head flit entered the network.
    pub injected_at: Cycle,
    /// Cycle the tail flit left the network.
    pub delivered_at: Cycle,
}

impl Delivered {
    /// Network latency in cycles (inject to eject, inclusive of queueing).
    pub fn latency(&self) -> u64 {
        self.delivered_at - self.injected_at
    }
}

impl fmt::Display for Delivered {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} ({} B, {} cyc)",
            self.msg.src,
            self.msg.dst,
            self.msg.payload.len(),
            self.latency()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(bytes: usize) -> Message {
        Message::new(NodeId(0), NodeId(1), TrafficClass::Request, vec![0; bytes])
    }

    #[test]
    fn single_flit_message() {
        assert_eq!(msg(0).flits(16, 8), 1);
    }

    #[test]
    fn flit_count_matches_wire_size() {
        // 8-byte header + 100-byte payload = 108 bytes = 7 x 16 B flits.
        assert_eq!(msg(100).flits(16, 8), 7);
    }

    #[test]
    fn exact_multiple_has_no_extra_flit() {
        // 8 + 24 = 32 bytes = exactly 2 x 16.
        assert_eq!(msg(24).flits(16, 8), 2);
    }

    #[test]
    fn class_maps_to_vc() {
        assert_eq!(TrafficClass::Control.vc(), 0);
        assert_eq!(TrafficClass::Request.vc(), 1);
        assert_eq!(TrafficClass::Bulk.vc(), 2);
    }

    #[test]
    fn delivered_latency() {
        let d = Delivered {
            msg: msg(1),
            injected_at: Cycle(10),
            delivered_at: Cycle(35),
        };
        assert_eq!(d.latency(), 25);
    }
}
