//! The traced run: replays each query's work layer by layer through the
//! layers' public functions, timing every call in a span, then runs the
//! real public calls with tracing off and on to read the drivers' own
//! counters.
//!
//! Layers replayed, in order: `core::distribute` (placement),
//! `mem_joins::operator` (fragment prep, stationary build, join visits),
//! `roundabout::protocol::RingProtocol` driven in memory with unit
//! payloads, the `tcp_backend` frame codec on the real payloads of the
//! protocol's sends, and one socket hop (`write_frames_vectored` into a
//! `FrameDecoder` over a loopback pair).

use std::collections::{HashSet, VecDeque};
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use cyclo_join::{FaultPlan, Placement, Reference, RotateSide};
use data_roundabout::protocol::{
    envelope_batches, query_batches, Input, Output, ProtocolConfig, RingProtocol, Timer,
};
use data_roundabout::tcp_backend::{encode_ack_into, encode_envelope_into, write_frames_vectored};
use data_roundabout::{Envelope, Frame, FrameDecoder, HostId};
use mem_joins::{Algorithm, JoinCollector, PreparedFragment};

use crate::e2e::{Prepared, Tally};
use crate::spans::Recorder;
use crate::stats::{median, quantile, Metrics};
use crate::workload::{default_ring, verified, Backend, Inputs, Plan, Shape};

/// Minimum time spent re-running the protocol replay per query, so that
/// `protocol.ns_per_input` rests on more than one short loop.
const PROTOCOL_MIN: Duration = Duration::from_millis(5);
/// Step bound of the in-memory protocol replay (a stuck replay is a bug).
const MAX_PROTOCOL_INPUTS: u64 = 50_000_000;

/// One frame the protocol put on the wire, in emission order.
#[derive(Debug, Clone, Copy)]
enum WireItem {
    Envelope {
        from: HostId,
        id: usize,
        tid: u64,
        seq: u64,
        query: u32,
        hops_remaining: usize,
        visited: u64,
    },
    Ack {
        tid: u64,
    },
}

/// The outcome of one in-memory protocol run.
struct ProtocolRun {
    inputs: u64,
    outputs: u64,
    script: Vec<WireItem>,
}

/// Drives the sans-IO ring protocol with unit payloads in the
/// workload's shape: FIFO delivery, instant wires, the fault plan's own
/// loss dice in reliable mode, and timers that fire once the ring has
/// gone idle (a timeout longer than any in-flight work). Records every
/// frame the ring would put on a socket.
fn drive_protocol(
    shape: &Shape,
    buffers: usize,
    max_retransmits: u32,
    faults: Option<&FaultPlan>,
    counts: &[Vec<usize>],
) -> Result<ProtocolRun, String> {
    let reliable = faults.is_some();
    let cfg = ProtocolConfig {
        hosts: shape.hosts,
        buffers_per_host: buffers,
        max_retransmits,
        continuous: false,
        reliable,
        standby: 0,
    };
    let unit = |per_host: &Vec<usize>| -> Vec<Vec<Vec<u8>>> {
        per_host.iter().map(|&n| vec![Vec::new(); n]).collect()
    };
    let mut proto = if counts.len() == 1 {
        RingProtocol::new(cfg, envelope_batches(unit(&counts[0]), shape.hosts))
    } else {
        let queries = counts
            .iter()
            .enumerate()
            .map(|(t, c)| (t as u32, unit(c)))
            .collect();
        RingProtocol::new_multi(cfg, query_batches(queries, shape.hosts), shape.max_active)
    };
    let mut fifo: VecDeque<Input<Vec<u8>>> = (0..shape.hosts)
        .map(|h| Input::SetupDone { host: HostId(h) })
        .collect();
    let mut timers: Vec<Timer> = Vec::new();
    let mut acked: HashSet<u64> = HashSet::new();
    let mut run = ProtocolRun {
        inputs: 0,
        outputs: 0,
        script: Vec::new(),
    };
    loop {
        let Some(input) = fifo.pop_front() else {
            // Idle ring: every pending timer expires. Retransmit timers of
            // acknowledged transfers were cancelled by a real driver.
            for timer in timers.drain(..) {
                if let Timer::Retransmit { tid, .. } = timer {
                    if acked.contains(&tid) {
                        continue;
                    }
                }
                fifo.push_back(Input::Tick { timer });
            }
            if fifo.is_empty() {
                break;
            }
            continue;
        };
        run.inputs += 1;
        if run.inputs > MAX_PROTOCOL_INPUTS {
            return Err("protocol replay did not quiesce".into());
        }
        let outputs = proto.input(input);
        run.outputs += outputs.len() as u64;
        for output in outputs {
            match output {
                Output::StartJoin { host, .. } => fifo.push_back(Input::JoinDone {
                    host,
                    app_finished: false,
                }),
                Output::Send {
                    from,
                    to,
                    tid,
                    attempt,
                    env,
                } => {
                    let (dropped, corrupt) = match faults {
                        Some(plan) => (
                            plan.should_drop(from, env.seq, attempt),
                            plan.should_corrupt(from, env.seq, attempt),
                        ),
                        None => (false, false),
                    };
                    if reliable {
                        proto.attempt_fate(tid, dropped, corrupt);
                    }
                    fifo.push_back(Input::SendDone { from });
                    // A dropped attempt never reaches the socket, as in the
                    // reactor: only the attempts that go out are encoded.
                    if !dropped {
                        run.script.push(WireItem::Envelope {
                            from,
                            id: env.id.0,
                            tid,
                            seq: env.seq,
                            query: env.query,
                            hops_remaining: env.hops_remaining,
                            visited: env.visited,
                        });
                        let mut env = env;
                        if corrupt {
                            env.checksum ^= 1;
                        }
                        fifo.push_back(Input::Delivered { to, env, tid });
                    }
                }
                Output::Ack { tid, .. } => {
                    run.script.push(WireItem::Ack { tid });
                    acked.insert(tid);
                    fifo.push_back(Input::Ack { tid });
                }
                Output::ArmTimer { timer, .. } => timers.push(timer),
                Output::Absorb { survivor, .. } => {
                    fifo.push_back(Input::AbsorbDone { host: survivor })
                }
                Output::Handoff { to, .. } => fifo.push_back(Input::AbsorbDone { host: to }),
                Output::Teardown { reason } => return Err(reason.to_string()),
                _ => {}
            }
        }
    }
    if proto.fragments_completed() != proto.fragments_total() {
        return Err(format!(
            "protocol replay retired {} of {} fragments",
            proto.fragments_completed(),
            proto.fragments_total()
        ));
    }
    Ok(run)
}

/// A connected loopback pair for the socket-hop layer.
pub struct HopPair {
    writer: TcpStream,
    reader: TcpStream,
}

impl HopPair {
    pub fn open() -> std::io::Result<HopPair> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let writer = TcpStream::connect(listener.local_addr()?)?;
        let (reader, _) = listener.accept()?;
        writer.set_nodelay(true)?;
        Ok(HopPair { writer, reader })
    }

    /// Sends each frame alone with `write_frames_vectored` and waits
    /// until the far side's `FrameDecoder` has decoded it; one `hop` span
    /// per frame.
    fn hops(&mut self, frames: &[Vec<u8>], rec: &mut Recorder) -> Result<(), String> {
        let HopPair { writer, reader } = self;
        let expected = frames.len();
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel::<()>();
            let far = scope.spawn(move || -> Result<(), String> {
                let mut decoder = FrameDecoder::new();
                let mut buf = vec![0u8; 1 << 16];
                let mut got = 0;
                while got < expected {
                    let n = reader.read(&mut buf).map_err(|e| e.to_string())?;
                    if n == 0 {
                        return Err("hop peer closed".into());
                    }
                    decoder.feed(&buf[..n]);
                    while let Some(frame) = decoder
                        .next_frame::<PreparedFragment>()
                        .map_err(|e| e.to_string())?
                    {
                        drop(frame);
                        got += 1;
                        let _ = tx.send(());
                    }
                }
                Ok(())
            });
            let mut sent = Ok(());
            for frame in frames {
                sent = rec.span("hop", |_| {
                    write_frames_vectored(writer, std::slice::from_ref(frame))
                        .map_err(|e| e.to_string())?;
                    rx.recv().map_err(|_| "hop reader stopped".to_string())
                });
                if sent.is_err() {
                    break;
                }
            }
            let far = far.join().map_err(|_| "hop reader panicked".to_string())?;
            sent.and(far)
        })
    }
}

/// Per-query values the replay collects; per-layer metrics are their
/// medians (times) or their value (counts, identical every query).
#[derive(Default)]
struct Acc {
    placement_ms: Vec<f64>,
    prepare_ms: Vec<f64>,
    build_total_ms: Vec<f64>,
    build_max_host_ms: Vec<f64>,
    visit_count: Vec<f64>,
    visit_tuples: f64,
    visit_matches: Vec<f64>,
    codec_frames: Vec<f64>,
    codec_bytes: Vec<f64>,
    protocol_inputs: Vec<f64>,
    protocol_outputs: Vec<f64>,
    protocol_ns_per_input: Vec<f64>,
    hop_bytes: f64,
    /// Per backend: setup, busy, sync, retransmits, goodput, outside.
    ring: [[Vec<f64>; 6]; 2],
    untraced_ms: [Vec<f64>; 2],
    traced_ms: [Vec<f64>; 2],
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Replays one query's layers; the caller wraps it in the `query` span.
fn replay_query(
    rec: &mut Recorder,
    inputs: &Inputs,
    refs: &[Reference],
    hop: &mut HopPair,
    tally: &mut Tally,
    acc: &mut Acc,
) -> Result<(), String> {
    let shape = inputs.shape;
    let config = default_ring(&shape);
    let threads = config.join_threads;
    let mut placement_ns = 0;
    let mut prepare_ns = 0;
    let mut build_ns = vec![0u64; shape.hosts];
    let mut visits = 0u64;
    let mut matches = 0u64;
    let mut counts = Vec::with_capacity(inputs.jobs.len());
    // Real envelopes, indexed by the protocol's global fragment id.
    let mut envelopes: Vec<Envelope<PreparedFragment>> = Vec::new();
    for (t, job) in inputs.jobs.iter().enumerate() {
        let (placement, ns) = rec.span_ns("placement", |_| {
            Placement::new(
                &job.r,
                &job.s,
                shape.hosts,
                shape.fragments_per_host,
                RotateSide::Auto,
            )
        });
        placement_ns += ns;
        if placement.swapped {
            return Err("replay expects R to rotate".into());
        }
        let algorithm = Algorithm::for_predicate(&job.predicate);
        let bits = algorithm.ring_radix_bits(placement.max_stationary_tuples().max(1));
        let mut fragments = Vec::with_capacity(shape.hosts);
        for host_frags in &placement.rotating {
            let mut prepared = Vec::with_capacity(host_frags.len());
            for frag in host_frags {
                let (pf, ns) = rec.span_ns("prepare", |_| {
                    algorithm.prepare_fragment(frag, bits, threads)
                });
                prepare_ns += ns;
                prepared.push(pf);
            }
            fragments.push(prepared);
        }
        let mut collector = JoinCollector::aggregating();
        for (h, s) in placement.stationary.iter().enumerate() {
            let (state, ns) = rec.span_ns("stationary.build", |_| {
                algorithm.setup_stationary(s, bits, threads)
            });
            build_ns[h] += ns;
            for frag in fragments.iter().flatten() {
                rec.span("visit", |_| {
                    algorithm.join(&state, frag, &job.predicate, threads, &mut collector)
                });
                visits += 1;
                acc.visit_tuples += frag.len() as f64;
            }
        }
        let got = Reference {
            count: collector.count(),
            checksum: collector.checksum(),
        };
        matches += got.count;
        tally.check(
            &format!("layer replay of tenant {t}"),
            refs.get(t) == Some(&got),
            None,
        );
        counts.push(fragments.iter().map(Vec::len).collect::<Vec<_>>());
        for (h, prepared) in fragments.into_iter().enumerate() {
            for pf in prepared {
                let id = envelopes.len();
                let env = rec.span("envelope.new", |_| {
                    Envelope::new(data_roundabout::FragmentId(id), HostId(h), shape.hosts, pf)
                });
                envelopes.push(env);
            }
        }
    }
    acc.placement_ms.push(ms(placement_ns));
    acc.prepare_ms.push(ms(prepare_ns));
    acc.build_total_ms.push(ms(build_ns.iter().sum()));
    acc.build_max_host_ms
        .push(ms(build_ns.iter().copied().max().unwrap_or(0)));
    acc.visit_count.push(visits as f64);
    acc.visit_matches.push(matches as f64);

    // Protocol core: one run for the wire script and the counts, then
    // repeats until the timing rests on enough steps.
    let faults = inputs.loss.map(|loss| loss.plan(0));
    let drive = || {
        drive_protocol(
            &shape,
            config.buffers_per_host,
            config.max_retransmits,
            faults.as_ref(),
            &counts,
        )
    };
    let first = rec.span("protocol", |_| drive())?;
    acc.protocol_inputs.push(first.inputs as f64);
    acc.protocol_outputs.push(first.outputs as f64);
    let started = Instant::now();
    let mut reps = 0;
    while reps < 3 || started.elapsed() < PROTOCOL_MIN {
        let (run, ns) = rec.span_ns("protocol", |_| drive());
        let run = run?;
        acc.protocol_ns_per_input
            .push(ns as f64 / run.inputs.max(1) as f64);
        reps += 1;
    }

    // Codec: encode and decode every frame of the script with the real
    // payloads; keep the first link's envelope frames for the hop.
    let mut buf = Vec::new();
    let mut decoder = FrameDecoder::new();
    let mut frames = 0u64;
    let mut bytes = 0u64;
    let mut hop_frames = Vec::new();
    for item in &first.script {
        match *item {
            WireItem::Envelope {
                from,
                id,
                tid,
                seq,
                query,
                hops_remaining,
                visited,
            } => {
                let env = envelopes
                    .get_mut(id)
                    .ok_or("script names an unknown fragment")?;
                env.seq = seq;
                env.query = query;
                env.hops_remaining = hops_remaining;
                env.visited = visited;
                let env = &*env;
                rec.span("codec.encode", |_| encode_envelope_into(tid, env, &mut buf))
                    .map_err(|e| e.to_string())?;
                let frame = rec.span("codec.decode", |_| {
                    decoder.feed(&buf);
                    decoder.next_frame::<PreparedFragment>()
                });
                let intact = matches!(
                    frame,
                    Ok(Some(Frame::Envelope { tid: t, env: ref e }))
                        if t == tid && e.id == env.id && e.checksum == env.checksum
                            && e.payload.len() == env.payload.len()
                );
                if !intact {
                    return Err(format!("codec round trip lost fragment {id}"));
                }
                if from == HostId(0) {
                    hop_frames.push(buf.clone());
                }
            }
            WireItem::Ack { tid } => {
                rec.span("codec.encode_ack", |_| encode_ack_into(tid, &mut buf));
                let frame = rec.span("codec.decode_ack", |_| {
                    decoder.feed(&buf);
                    decoder.next_frame::<PreparedFragment>()
                });
                if !matches!(frame, Ok(Some(Frame::Ack { tid: t })) if t == tid) {
                    return Err(format!("codec round trip lost ack {tid}"));
                }
            }
        }
        frames += 1;
        bytes += buf.len() as u64;
    }
    acc.codec_frames.push(frames as f64);
    acc.codec_bytes.push(bytes as f64);

    acc.hop_bytes += hop_frames.iter().map(Vec::len).sum::<usize>() as f64;
    hop.hops(&hop_frames, rec)
}

/// Runs the real public call untraced and traced on both backends.
fn driver_round(
    rec: &mut Recorder,
    prepared: &Prepared,
    traced_plan: &Plan,
    shape: &Shape,
    tally: &mut Tally,
    acc: &mut Acc,
) {
    let transfers =
        (shape.tenants * shape.hosts * shape.fragments_per_host * (shape.hosts - 1)) as f64;
    for (i, backend) in Backend::BOTH.into_iter().enumerate() {
        let name = backend.name();
        let outcome = rec.span("driver", |_| prepared.plan.run(backend));
        let error = outcome.as_ref().err().cloned();
        tally.check(
            &format!("query on {name}"),
            verified(&outcome, &prepared.refs),
            error.as_deref(),
        );
        if let Ok(o) = &outcome {
            let wall_ms = o.wall.as_secs_f64() * 1e3;
            let retransmits = o.ring.total_retransmits() as f64;
            let values = [
                o.ring.setup_time().as_secs_f64() * 1e3,
                o.ring.join_busy_time().as_secs_f64() * 1e3,
                o.ring.sync_time().as_secs_f64() * 1e3,
                retransmits,
                transfers / (transfers + retransmits),
                wall_ms - o.ring_seconds * 1e3,
            ];
            for (slot, v) in acc.ring[i].iter_mut().zip(values) {
                slot.push(v);
            }
            acc.untraced_ms[i].push(wall_ms);
        }
        let outcome = rec.span("driver.traced", |_| traced_plan.run(backend));
        let error = outcome.as_ref().err().cloned();
        tally.check(
            &format!("traced query on {name}"),
            verified(&outcome, &prepared.refs),
            error.as_deref(),
        );
        if let Ok(o) = &outcome {
            acc.traced_ms[i].push(o.wall.as_secs_f64() * 1e3);
        }
    }
}

/// The traced run: replays and driver rounds for `seconds`, at least one.
pub fn run(
    prepared: &Prepared,
    inputs: &Inputs,
    seconds: f64,
    tally: &mut Tally,
    rec: &mut Recorder,
) -> Result<Metrics, String> {
    let mut hop = HopPair::open().map_err(|e| format!("loopback pair: {e}"))?;
    let traced_plan = prepared.plan.traced();
    let mut acc = Acc::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut query = 0u64;
    loop {
        rec.set_query(query);
        rec.span("query", |rec| {
            replay_query(rec, inputs, &prepared.refs, &mut hop, tally, &mut acc)
        })?;
        driver_round(rec, prepared, &traced_plan, &inputs.shape, tally, &mut acc);
        query += 1;
        if Instant::now() >= deadline {
            break;
        }
    }

    let us = |name: &str| rec.named(name).map(|s| s.us()).collect::<Vec<_>>();
    let visit_us = us("visit");
    let hop_us = us("hop");
    let mut m = Metrics::default();
    m.put("placement.ms", "ms", median(&acc.placement_ms));
    m.put("prepare.ms.total", "ms", median(&acc.prepare_ms));
    m.put(
        "stationary.build_ms.total",
        "ms",
        median(&acc.build_total_ms),
    );
    m.put(
        "stationary.build_ms.max_host",
        "ms",
        median(&acc.build_max_host_ms),
    );
    m.put("visit.count", "count", median(&acc.visit_count));
    m.put("visit.us.p50", "us", median(&visit_us));
    m.put("visit.us.p90", "us", quantile(&visit_us, 0.9));
    m.put(
        "visit.mtuples_per_s",
        "Mtuples/s",
        acc.visit_tuples / visit_us.iter().sum::<f64>(),
    );
    m.put("visit.matches", "count", median(&acc.visit_matches));
    m.put("codec.frames", "count", median(&acc.codec_frames));
    m.put("codec.bytes", "bytes", median(&acc.codec_bytes));
    m.put("codec.encode_us.p50", "us", median(&us("codec.encode")));
    m.put("codec.decode_us.p50", "us", median(&us("codec.decode")));
    m.put("protocol.inputs", "count", median(&acc.protocol_inputs));
    m.put("protocol.outputs", "count", median(&acc.protocol_outputs));
    m.put(
        "protocol.ns_per_input",
        "ns",
        median(&acc.protocol_ns_per_input),
    );
    m.put("hop.us.p50", "us", median(&hop_us));
    m.put(
        "hop.mb_per_s",
        "MB/s",
        acc.hop_bytes / hop_us.iter().sum::<f64>(),
    );
    const RING: [(&str, &str); 6] = [
        ("ring.setup_ms", "ms"),
        ("ring.join_busy_ms", "ms"),
        ("ring.sync_ms", "ms"),
        ("ring.retransmits", "count"),
        ("ring.goodput_ratio", "ratio"),
        ("driver.outside_ring_ms", "ms"),
    ];
    for (i, backend) in Backend::BOTH.into_iter().enumerate() {
        for (k, (name, unit)) in RING.iter().enumerate() {
            m.put(
                format!("{name}.{}", backend.name()),
                unit,
                median(&acc.ring[i][k]),
            );
        }
    }
    let untraced: f64 = acc.untraced_ms.iter().map(|v| median(v)).sum();
    let traced: f64 = acc.traced_ms.iter().map(|v| median(v)).sum();
    m.put("trace.overhead_pct", "%", (traced / untraced - 1.0) * 100.0);
    Ok(m)
}
