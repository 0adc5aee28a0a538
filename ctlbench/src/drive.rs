//! The socket run: one client connection and one raw broker connection to
//! an in-process controller, driven by two threads. The calling thread
//! writes every event when it falls due; one receiver thread reads both
//! connections and stamps every reply the moment it is read.

use crate::workload::{Event, Op};
use bate_system::client::DemandRequest;
use bate_system::poller::Poller;
use bate_system::proto::{FlowEntry, Message};
use bate_system::wire::{decode_payload, encode_frame, FrameAssembler};
use bate_system::Controller;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TOK_CLIENT: u64 = 1;
const TOK_BROKER: u64 = 2;
/// The sender sleeps until this long before an event is due, then spins:
/// a sleeping thread wakes tens to hundreds of µs late on a VM, and that
/// would add to every latency timed from the due instant.
const SPIN: Duration = Duration::from_micros(300);
/// Longest a write may block on a controller that stopped reading.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// The DC name the benchmark's broker registers as.
pub const BROKER_DC: &str = "DC1";

/// Everything the receiver observed, stamped at read time.
#[derive(Default)]
pub struct Seen {
    /// `AdmissionReply`s in arrival order.
    pub verdicts: Vec<(u64, bool, Instant)>,
    /// `WithdrawAck`s in arrival order.
    pub acks: Vec<u64>,
    /// First `InstallAllocation` per demand.
    pub first_install: HashMap<u64, Instant>,
    pub installs: u64,
    pub removes: u64,
    /// The broker's installed allocation: demand → entries.
    pub installed: HashMap<u64, Vec<FlowEntry>>,
    pub pongs: HashMap<u64, Instant>,
    /// `StatsText` bodies in arrival order.
    pub stats: Vec<String>,
    /// Socket and decode errors, and unexpected message types.
    pub errors: u64,
}

struct Shared {
    seen: Mutex<Seen>,
    cv: Condvar,
    stop: AtomicBool,
}

/// The two load connections and the receiver reading them.
pub struct Session {
    client: TcpStream,
    broker: TcpStream,
    shared: Arc<Shared>,
    receiver: Option<JoinHandle<()>>,
}

pub fn frame(msg: &Message) -> Vec<u8> {
    encode_frame(msg).expect("benchmark frames are far below the frame limit")
}

impl Session {
    /// Connect the client and the broker, register the broker, and wait
    /// until the controller has registered it.
    pub fn open(ctrl: &Controller) -> io::Result<Session> {
        let client = TcpStream::connect(ctrl.addr())?;
        let broker = TcpStream::connect(ctrl.addr())?;
        for s in [&client, &broker] {
            s.set_nodelay(true)?;
            // A controller that stops reading must not block the sender.
            s.set_write_timeout(Some(WRITE_TIMEOUT))?;
        }
        (&broker).write_all(&frame(&Message::RegisterBroker {
            dc: BROKER_DC.to_string(),
        }))?;
        if !ctrl.wait_for_brokers(1, Duration::from_secs(10)) {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "broker registration",
            ));
        }
        let shared = Arc::new(Shared {
            seen: Mutex::new(Seen::default()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let poller = Poller::new()?;
        poller.add(client.as_raw_fd(), TOK_CLIENT, true, false)?;
        poller.add(broker.as_raw_fd(), TOK_BROKER, true, false)?;
        let (c, b) = (client.try_clone()?, broker.try_clone()?);
        let rx_shared = Arc::clone(&shared);
        let receiver = std::thread::spawn(move || receive(poller, c, b, &rx_shared));
        Ok(Session {
            client,
            broker,
            shared,
            receiver: Some(receiver),
        })
    }

    pub fn seen(&self) -> MutexGuard<'_, Seen> {
        self.shared
            .seen
            .lock()
            .expect("receiver panicked while recording")
    }

    /// Block until `done` holds over what has been seen, or `deadline`.
    pub fn wait(&self, deadline: Instant, done: impl Fn(&Seen) -> bool) -> bool {
        let mut seen = self.seen();
        loop {
            if done(&seen) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            seen = self
                .shared
                .cv
                .wait_timeout(seen, deadline - now)
                .expect("receiver panicked")
                .0;
        }
    }

    /// Write every event when it falls due, `start` being time zero.
    /// Returns each event's send instant (`None` if its write failed; after
    /// a failed write nothing more is sent).
    pub fn send(&self, events: &[Event], start: Instant) -> Vec<Option<Instant>> {
        // Encode up front so the sender's own work cannot make it late.
        let encoded: Vec<(bool, Vec<u8>)> = events.iter().map(encode_event).collect();
        let mut sent = Vec::with_capacity(events.len());
        for (ev, (to_broker, bytes)) in events.iter().zip(&encoded) {
            let due = start + Duration::from_secs_f64(ev.due);
            let now = Instant::now();
            if due > now + SPIN {
                std::thread::sleep(due - now - SPIN);
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            let mut conn = if *to_broker {
                &self.broker
            } else {
                &self.client
            };
            if conn.write_all(bytes).is_err() {
                break;
            }
            sent.push(Some(Instant::now()));
        }
        sent.resize(events.len(), None);
        sent
    }

    /// Run closed-loop steps: send each one as soon as the previous one is
    /// answered, `verdicts` and `acks` being the totals answered before
    /// the first step. Returns each step's send instant (`None` if its
    /// write failed or it was not answered within `timeout`; the steps
    /// after an unanswered one are not sent).
    pub fn steps(
        &self,
        events: &[Event],
        mut verdicts: usize,
        mut acks: usize,
        timeout: Duration,
    ) -> Vec<Option<Instant>> {
        let mut sent = Vec::with_capacity(events.len());
        for ev in events {
            let (to_broker, bytes) = encode_event(ev);
            let mut conn = if to_broker {
                &self.broker
            } else {
                &self.client
            };
            let at = Instant::now();
            if conn.write_all(&bytes).is_err() {
                sent.push(None);
                continue;
            }
            let deadline = at + timeout;
            let answered = match &ev.op {
                Op::Submit(reqs) => {
                    verdicts += reqs.len();
                    self.wait(deadline, |s| s.verdicts.len() >= verdicts)
                }
                Op::Withdraw(ids) => {
                    acks += ids.len();
                    self.wait(deadline, |s| s.acks.len() >= acks)
                }
                Op::Link { token, .. } | Op::Probe { token } => {
                    self.wait(deadline, |s| s.pongs.contains_key(token))
                }
            };
            sent.push(answered.then_some(at));
            if !answered {
                break;
            }
        }
        sent.resize(events.len(), None);
        sent
    }

    /// Write one frame on the client connection now.
    pub fn send_client(&self, msg: &Message) -> io::Result<()> {
        (&self.client).write_all(&frame(msg))
    }

    /// Ping on the broker connection and wait for the `Pong`: every frame
    /// the controller queued for the broker before it is then recorded.
    pub fn sync_broker(&self, token: u64, timeout: Duration) -> bool {
        if (&self.broker)
            .write_all(&frame(&Message::Ping { token }))
            .is_err()
        {
            return false;
        }
        self.wait(Instant::now() + timeout, |s| s.pongs.contains_key(&token))
    }

    /// Stop the receiver and close both connections.
    pub fn close(mut self) -> Seen {
        self.stop().expect("receiver thread panicked");
        std::mem::take(&mut *self.seen())
    }

    fn stop(&mut self) -> std::thread::Result<()> {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.receiver.take().map_or(Ok(()), JoinHandle::join)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

pub fn submit_msg(r: &DemandRequest) -> Message {
    Message::SubmitDemand {
        id: r.id,
        src: r.src.clone(),
        dst: r.dst.clone(),
        bandwidth: r.bandwidth,
        beta: r.beta,
        price: r.price,
        refund_ratio: r.refund_ratio,
    }
}

fn encode_event(ev: &Event) -> (bool, Vec<u8>) {
    let mut bytes = Vec::new();
    let to_broker = match &ev.op {
        Op::Submit(reqs) => {
            for r in reqs {
                bytes.extend(frame(&submit_msg(r)));
            }
            false
        }
        Op::Withdraw(ids) => {
            for &id in ids {
                bytes.extend(frame(&Message::WithdrawDemand { id }));
            }
            false
        }
        Op::Link { group, up, token } => {
            bytes.extend(frame(&Message::LinkReport {
                group: *group,
                up: *up,
            }));
            bytes.extend(frame(&Message::Ping { token: *token }));
            true
        }
        Op::Probe { token } => {
            bytes.extend(frame(&Message::Ping { token: *token }));
            true
        }
    };
    (to_broker, bytes)
}

/// The receiver loop: read whichever connection is ready, assemble and
/// decode frames, record them under one lock per read.
fn receive(poller: Poller, mut client: TcpStream, mut broker: TcpStream, shared: &Shared) {
    let mut asm = [FrameAssembler::new(), FrameAssembler::new()];
    let mut open = [true, true];
    let mut events = Vec::new();
    let mut buf = vec![0u8; 1 << 16];
    while !shared.stop.load(Ordering::Relaxed) {
        if poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .is_err()
        {
            break;
        }
        for ev in &events {
            let (i, stream) = match ev.token {
                TOK_CLIENT => (0, &mut client),
                _ => (1, &mut broker),
            };
            if !open[i] {
                continue;
            }
            // Level-triggered: one read per readiness event never blocks,
            // and whatever is left re-arms the next wait.
            let n = match stream.read(&mut buf) {
                Ok(0) | Err(_) => {
                    open[i] = false;
                    poller.delete(stream.as_raw_fd()).ok();
                    if !shared.stop.load(Ordering::Relaxed) {
                        shared.seen.lock().expect("recorder lock").errors += 1;
                    }
                    continue;
                }
                Ok(n) => n,
            };
            let at = Instant::now();
            asm[i].push(&buf[..n]);
            let mut seen = shared.seen.lock().expect("recorder lock");
            loop {
                match asm[i].next_frame() {
                    Ok(Some((_, payload))) => match decode_payload::<Message>(payload) {
                        Ok(msg) => record(&mut seen, msg, at),
                        Err(_) => seen.errors += 1,
                    },
                    Ok(None) => break,
                    Err(_) => {
                        // The stream is unsynchronized: nothing after this
                        // frame can be trusted.
                        seen.errors += 1;
                        open[i] = false;
                        poller.delete(stream.as_raw_fd()).ok();
                        break;
                    }
                }
            }
            drop(seen);
            shared.cv.notify_all();
        }
    }
}

fn record(seen: &mut Seen, msg: Message, at: Instant) {
    match msg {
        Message::AdmissionReply { id, admitted } => seen.verdicts.push((id, admitted, at)),
        Message::WithdrawAck { id } => seen.acks.push(id),
        Message::InstallAllocation { demand, entries } => {
            seen.installs += 1;
            seen.first_install.entry(demand).or_insert(at);
            seen.installed.insert(demand, entries);
        }
        Message::RemoveAllocation { demand } => {
            seen.removes += 1;
            seen.installed.remove(&demand);
        }
        Message::Pong { token } => {
            seen.pongs.insert(token, at);
        }
        Message::StatsText { text } => seen.stats.push(text),
        _ => seen.errors += 1,
    }
}
