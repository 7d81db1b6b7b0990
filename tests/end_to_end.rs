//! Cross-crate integration tests: full systems exercising several
//! subsystems at once (network + kernel + accelerators + memory).

use apiary::accel::apps::echo::echo;
use apiary::accel::apps::hash::{fnv1a, hasher};
use apiary::accel::apps::idle::idle;
use apiary::accel::{Accelerator, TileOs};
use apiary::core::{AppId, FaultPolicy, System, SystemConfig};
use apiary::monitor::wire;
use apiary::net::{EthernetTile, NetConfig, RequestGen, Workload};
use apiary::noc::{Delivered, NodeId, TrafficClass};
use apiary::sim::{Cycle, Wakeup};

// ---------------------------------------------------------------------
// Hash service: verify payload integrity across the whole stack.
// ---------------------------------------------------------------------

#[test]
fn hash_service_digest_is_correct_end_to_end() {
    let mut sys = System::new(SystemConfig::default());
    let client = NodeId(0);
    let server = NodeId(10);
    sys.install(client, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    sys.install(server, Box::new(hasher()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    let cap = sys.connect(client, server, false).expect("same app");
    sys.connect(server, client, false).expect("reply path");

    let payload = b"the bytes to be hashed, crossing the NoC".to_vec();
    let now = sys.now();
    sys.tile_mut(client)
        .monitor
        .send(
            cap,
            wire::KIND_REQUEST,
            9,
            TrafficClass::Request,
            payload.clone(),
            now,
        )
        .expect("send accepted");
    assert!(sys.run_until_idle(100_000));
    let d = sys.tile_mut(client).monitor.recv().expect("digest");
    let digest = u64::from_le_bytes(d.msg.payload.as_slice().try_into().expect("8 bytes"));
    assert_eq!(digest, fnv1a(&payload));
}

// ---------------------------------------------------------------------
// Network service + reconfiguration: the MAC keeps serving clients while
// an unrelated tile is reconfigured.
// ---------------------------------------------------------------------

#[test]
fn mac_clients_survive_unrelated_reconfiguration() {
    let mut sys = System::new(SystemConfig::default());
    let mac_node = NodeId(0);
    let svc_node = NodeId(5);
    let churn_node = NodeId(9);

    let mut mac = EthernetTile::new(NetConfig::default());
    mac.add_client(
        RequestGen::new(
            1,
            80,
            64,
            Workload::Closed {
                outstanding: 2,
                think_cycles: 0,
            },
            5,
        )
        .with_max_requests(40),
    );
    sys.install(
        mac_node,
        Box::new(mac),
        apiary::core::process::OS_APP,
        FaultPolicy::FailStop,
    )
    .expect("free");
    sys.install(
        svc_node,
        Box::new(echo(16)),
        AppId(1),
        FaultPolicy::FailStop,
    )
    .expect("free");
    sys.install(
        churn_node,
        Box::new(echo(1)),
        AppId(2),
        FaultPolicy::FailStop,
    )
    .expect("free");
    let flow = sys.connect(mac_node, svc_node, false).expect("OS app");
    sys.connect(svc_node, mac_node, false).expect("reply path");
    sys.accel_as_mut::<EthernetTile>(mac_node)
        .expect("installed")
        .bind_flow(80, flow);

    // Kick off a reconfiguration of the unrelated tile mid-run.
    let mut reconfigured = false;
    for i in 0..5_000_000u64 {
        sys.tick();
        if i == 500 && !reconfigured {
            sys.reconfigure(
                churn_node,
                Box::new(hasher()),
                AppId(2),
                FaultPolicy::FailStop,
                64 << 10,
            )
            .expect("reconfigurable");
            reconfigured = true;
        }
        if sys
            .accel_as::<EthernetTile>(mac_node)
            .expect("installed")
            .all_done()
        {
            break;
        }
    }
    let mac = sys.accel_as::<EthernetTile>(mac_node).expect("installed");
    assert_eq!(mac.client(0).stats.completed, 40);
    assert_eq!(mac.client(0).stats.errors, 0);
    // The clients may finish before the bitstream does; let it land.
    sys.run(20_000);
    assert_eq!(sys.tile(churn_node).accel_name(), "hash");
}

// ---------------------------------------------------------------------
// An accelerator that uses the memory service from inside its own logic:
// write the request payload to DRAM, read it back, reply with the copy.
// Exercises the full monitor-checked, NoC-routed memory path driven by
// accelerator code.
// ---------------------------------------------------------------------

enum MemEchoState {
    Idle,
    Writing { req: Delivered },
    Reading { req: Delivered, len: u64 },
}

struct MemEcho {
    state: MemEchoState,
    served: u64,
}

impl MemEcho {
    fn new() -> MemEcho {
        MemEcho {
            state: MemEchoState::Idle,
            served: 0,
        }
    }
}

impl Accelerator for MemEcho {
    fn name(&self) -> &'static str {
        "mem-echo"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn wake(&mut self, now: Cycle, os: &mut dyn TileOs) -> Wakeup {
        // Polls its inbox for the memory replies every cycle.
        let next = Wakeup::AtOrMessage(now + 1);
        let mem = os.cap_env().get("mem").expect("granted at setup");
        match std::mem::replace(&mut self.state, MemEchoState::Idle) {
            MemEchoState::Idle => {
                if let Some(req) = os.recv() {
                    if req.msg.kind != wire::KIND_REQUEST {
                        return next;
                    }
                    os.mem_write(mem, 0, &req.msg.payload, 1)
                        .expect("segment is large enough");
                    self.state = MemEchoState::Writing { req };
                }
            }
            MemEchoState::Writing { req } => {
                // Wait for the write ack.
                match os.recv() {
                    Some(d) if d.msg.kind == wire::KIND_MEM_REPLY => {
                        let len = req.msg.payload.len() as u64;
                        os.mem_read(mem, 0, len, 2).expect("in bounds");
                        self.state = MemEchoState::Reading { req, len };
                    }
                    _ => self.state = MemEchoState::Writing { req },
                }
            }
            MemEchoState::Reading { req, len } => match os.recv() {
                Some(d) if d.msg.kind == wire::KIND_MEM_REPLY => {
                    assert_eq!(d.msg.payload.len() as u64, len);
                    let _ = os.reply(
                        &req,
                        wire::KIND_RESPONSE,
                        TrafficClass::Request,
                        d.msg.payload,
                    );
                    self.served += 1;
                }
                _ => self.state = MemEchoState::Reading { req, len },
            },
        }
        next
    }
}

#[test]
fn accelerator_driven_memory_roundtrip() {
    let mut sys = System::new(SystemConfig::default());
    let client = NodeId(0);
    let server = NodeId(6);
    sys.install(client, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    sys.install(
        server,
        Box::new(MemEcho::new()),
        AppId(1),
        FaultPolicy::FailStop,
    )
    .expect("free");
    let cap = sys.connect(client, server, false).expect("same app");
    sys.connect(server, client, false).expect("reply path");
    let mem_cap = sys.grant_memory(server, 8192).expect("space");
    sys.grant_env(server, "mem", mem_cap);

    let payload: Vec<u8> = (0..200u8).collect();
    let now = sys.now();
    sys.tile_mut(client)
        .monitor
        .send(
            cap,
            wire::KIND_REQUEST,
            7,
            TrafficClass::Request,
            payload.clone(),
            now,
        )
        .expect("send accepted");
    assert!(sys.run_until_idle(1_000_000));
    let d = sys.tile_mut(client).monitor.recv().expect("reply");
    assert_eq!(d.msg.payload, payload, "bytes round-tripped through DRAM");
    assert_eq!(d.msg.tag, 7);

    // The memory service actually saw the traffic.
    let memsvc = sys
        .accel_as::<apiary::core::memsvc::MemoryService>(sys.mem_node())
        .expect("boot service");
    assert_eq!(memsvc.writes, 1);
    assert_eq!(memsvc.reads, 1);
}

// ---------------------------------------------------------------------
// Tracing: the message layer is observable without accelerator help.
// ---------------------------------------------------------------------

#[test]
fn monitor_traces_capture_message_flow() {
    use apiary::monitor::{Monitor, MonitorConfig};
    use apiary::trace::EventKind;

    let mut sys = System::new(SystemConfig::default());
    let client = NodeId(0);
    let server = NodeId(5);
    sys.install(client, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    sys.install(server, Box::new(echo(2)), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    // Enable a full trace ring on the client tile before wiring.
    sys.tile_mut(client).monitor = Monitor::new(
        client,
        MonitorConfig {
            trace_depth: 64,
            ..MonitorConfig::default()
        },
    );
    let cap = sys.connect(client, server, false).expect("same app");
    sys.connect(server, client, false).expect("reply path");

    let now = sys.now();
    sys.tile_mut(client)
        .monitor
        .send(
            cap,
            wire::KIND_REQUEST,
            3,
            TrafficClass::Request,
            vec![1],
            now,
        )
        .expect("send accepted");
    assert!(sys.run_until_idle(100_000));
    sys.tile_mut(client).monitor.recv().expect("reply");

    let tracer = sys.tile(client).monitor.tracer();
    assert_eq!(
        tracer.count(&EventKind::MsgSend {
            dst: 0,
            kind: 0,
            tag: 0,
            bytes: 0
        }),
        1
    );
    assert_eq!(
        tracer.count(&EventKind::MsgRecv {
            src: 0,
            kind: 0,
            tag: 0,
            bytes: 0
        }),
        1
    );
    let rendered = tracer.render();
    assert!(rendered.contains("send"), "{rendered}");
    assert!(rendered.contains("recv"), "{rendered}");
    assert!(rendered.contains("tag=3"), "{rendered}");
}

// ---------------------------------------------------------------------
// Service discovery: the registry tile resolves names over the NoC.
// ---------------------------------------------------------------------

#[test]
fn registry_resolves_service_names_over_the_noc() {
    use apiary::cap::ServiceId;
    use apiary::core::registry::{decode_lookup_reply, RegistryService};

    let mut sys = System::new(SystemConfig::default());
    let client = NodeId(0);
    let registry = NodeId(3);
    let kv_node = NodeId(9);
    sys.install(client, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    let mut reg = RegistryService::new();
    assert_eq!(reg.publish("kv-store", ServiceId(40), kv_node), None);
    assert_eq!(reg.publish("video", ServiceId(41), NodeId(1)), None);
    sys.install(
        registry,
        Box::new(reg),
        apiary::core::process::OS_APP,
        FaultPolicy::FailStop,
    )
    .expect("free");
    let cap = sys.connect(client, registry, false).expect("OS service");
    sys.connect(registry, client, false).expect("reply path");

    let now = sys.now();
    sys.tile_mut(client)
        .monitor
        .send(
            cap,
            wire::KIND_LOOKUP,
            1,
            TrafficClass::Control,
            b"kv-store".to_vec(),
            now,
        )
        .expect("send accepted");
    assert!(sys.run_until_idle(100_000));
    let d = sys.tile_mut(client).monitor.recv().expect("reply");
    assert_eq!(d.msg.kind, wire::KIND_LOOKUP_REPLY);
    assert_eq!(
        decode_lookup_reply(&d.msg.payload),
        Some(Some((ServiceId(40), kv_node)))
    );

    // With the discovered id in hand, the kernel can bind the name and the
    // client reaches the service through a *service* capability (§4.3).
    sys.install(kv_node, Box::new(echo(2)), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    let svc_cap = sys
        .bind_service(client, ServiceId(40), kv_node)
        .expect("bindable");
    sys.connect(kv_node, client, false).expect("reply path");
    let now = sys.now();
    sys.tile_mut(client)
        .monitor
        .send(
            svc_cap,
            wire::KIND_REQUEST,
            2,
            TrafficClass::Request,
            vec![7],
            now,
        )
        .expect("service cap resolves");
    assert!(sys.run_until_idle(100_000));
    let d = sys.tile_mut(client).monitor.recv().expect("served");
    assert_eq!(d.msg.payload, vec![7]);
    assert_eq!(d.msg.src, kv_node);
}

#[test]
fn merged_trace_interleaves_tiles_in_time_order() {
    use apiary::monitor::{Monitor, MonitorConfig};

    let mut sys = System::new(SystemConfig::default());
    let client = NodeId(0);
    let server = NodeId(5);
    sys.install(client, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    sys.install(server, Box::new(echo(2)), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    for n in [client, server] {
        sys.tile_mut(n).monitor = Monitor::new(
            n,
            MonitorConfig {
                trace_depth: 64,
                ..MonitorConfig::default()
            },
        );
    }
    let cap = sys.connect(client, server, false).expect("same app");
    sys.connect(server, client, false).expect("reply path");
    for tag in 0..3 {
        let now = sys.now();
        sys.tile_mut(client)
            .monitor
            .send(
                cap,
                wire::KIND_REQUEST,
                tag,
                TrafficClass::Request,
                vec![1],
                now,
            )
            .expect("send accepted");
        sys.run_until_idle(100_000);
        sys.tile_mut(client).monitor.recv().expect("reply");
    }
    let trace = sys.merged_trace();
    // Both tiles contributed, and events are time-sorted.
    assert!(trace.iter().any(|e| e.tile == client.0));
    assert!(trace.iter().any(|e| e.tile == server.0));
    assert!(trace.windows(2).all(|w| w[0].at <= w[1].at));
    // The causal order of one request is visible: client send precedes
    // server recv precedes server send precedes client recv.
    let kinds: Vec<(u16, &str)> = trace.iter().map(|e| (e.tile, e.kind.name())).collect();
    let first_client_send = kinds
        .iter()
        .position(|k| *k == (client.0, "send"))
        .expect("present");
    let first_server_recv = kinds
        .iter()
        .position(|k| *k == (server.0, "recv"))
        .expect("present");
    assert!(first_client_send < first_server_recv);
}
