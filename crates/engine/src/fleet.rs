//! The fpopd **fleet**: a consistent-hash router in front of N backend
//! shards, making in-flight dedup and proof-cache hits fleet-wide.
//!
//! ## Topology
//!
//! ```text
//!                         ┌────────────┐
//!   clients (text/fpopb)──► router      │ digest-keyed consistent hash
//!                         └─┬───┬───┬──┘
//!                           │   │   │
//!                      ┌────▼┐ ┌▼───┐ ┌▼───┐
//!                      │shard│ │shard│ │shard│   fpopd processes
//!                      └──┬──┘ └──┬─┘ └──┬─┘
//!                         ▼      ▼      ▼
//!                     shared content-addressed store (tier 3)
//! ```
//!
//! The router speaks both wire protocols (sniffed by first byte, exactly
//! like a single `fpopd`) and routes each request by its **content
//! digest** — [`crate::request::Request::dedup_key`] — so the same
//! request always lands on the same shard: that shard's in-flight dedup
//! and session cache become fleet-wide dedup, the paper's
//! content-addressed proof reuse stretched across processes.
//!
//! ## Failure behavior
//!
//! Shard death is detected two ways: an upstream I/O error on a live
//! connection (immediate), and the background health prober (eventual).
//! A dead shard's digest range re-routes to the ring's next live
//! successor — which may cold-miss and re-prove; correct, just slower.
//! Requests already in flight on the dead connection are answered with a
//! clean retryable [`crate::fpopb::ErrCode::Unavailable`] error — never
//! a hang, never a fabricated verdict. Requests not yet written retry on
//! a surviving shard transparently (all requests are idempotent). The
//! prober re-admits a restarted shard at the same address; catch-up
//! warmth comes from the shared store at the shard's own boot, not
//! through the router.
//!
//! ## What the router does *not* do
//!
//! It holds no proof state and makes no verdicts: every `ok`/`err`
//! payload a client sees was produced by a real engine (the differential
//! oracle #9 exploits exactly this). `Hello`/`Ping` are answered
//! locally; `Checkpoint` fans out to every live shard; `Shutdown` stops
//! the router alone — shards are managed by their own lifecycle.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use fpop::stable::Fnv64;

use crate::codec::FrameReader;
use crate::engine::{Engine, EngineConfig};
use crate::fpopb::{self, encode_frame, ErrCode, Frame, FrameType};
use crate::proto;
use crate::request::Request;

/// Virtual nodes per shard on the hash ring. 64 keeps the remap fraction
/// on join/leave within a few percent of the ideal 1/N (the router
/// consistency property test pins the bound).
pub const VNODES: usize = 64;

/// How often the health prober re-tries dead shards by default.
pub const PROBE_INTERVAL: Duration = Duration::from_millis(250);

/// Read timeout used on router-internal blocking sockets, so a wedged
/// shard can never wedge the router.
const UPSTREAM_TIMEOUT: Duration = Duration::from_secs(30);

// ---------------------------------------------------------------------------
// The consistent-hash ring
// ---------------------------------------------------------------------------

/// A consistent-hash ring over shard indices `0..n`, with [`VNODES`]
/// virtual points per shard.
///
/// The ring is **pure data**: construction is deterministic in `n` (FNV
/// points, no randomness, no clock), so every router instance — and every
/// restart of the same router — maps a digest to the same shard. Routing
/// takes the caller's live-shard mask, so failure handling composes
/// without rebuilding the ring (and a rebuilt ring is byte-identical
/// anyway).
#[derive(Clone, Debug)]
pub struct Ring {
    /// `(point, shard)` sorted by point (ties broken by shard index —
    /// also deterministic).
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl Ring {
    /// Builds the ring for `shards` shards.
    pub fn new(shards: usize) -> Ring {
        let mut points = Vec::with_capacity(shards * VNODES);
        for s in 0..shards {
            for r in 0..VNODES {
                let mut h = Fnv64::new();
                h.write_u64(s as u64);
                h.write_u64(r as u64);
                points.push((h.finish(), s));
            }
        }
        points.sort_unstable();
        Ring { points, shards }
    }

    /// Number of shards the ring was built for.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Routes a digest to the first **live** shard at or clockwise from
    /// the digest's point. `None` when every shard is dead (or the ring
    /// is empty).
    pub fn route(&self, key: u64, alive: &[bool]) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let start = self.points.partition_point(|&(p, _)| p < key);
        for i in 0..self.points.len() {
            let (_, s) = self.points[(start + i) % self.points.len()];
            if alive.get(s).copied().unwrap_or(false) {
                return Some(s);
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Router state
// ---------------------------------------------------------------------------

/// One backend shard as the router sees it.
struct ShardState {
    addr: SocketAddr,
    alive: AtomicBool,
}

/// State shared by every router thread (acceptor, per-client handlers,
/// relays, the health prober).
struct RouterShared {
    ring: Ring,
    shards: Vec<ShardState>,
    /// Templates registered *through* the router: digest → the request,
    /// replayed to a shard the first time that shard is asked to run the
    /// template (and again after the shard is re-admitted).
    templates: Mutex<HashMap<u64, Request>>,
    /// Per shard: digests known to be registered on it. Cleared when the
    /// shard dies, so re-admission re-registers lazily.
    registered: Mutex<Vec<HashSet<u64>>>,
    stop: Arc<AtomicBool>,
}

impl RouterShared {
    fn alive_mask(&self) -> Vec<bool> {
        self.shards
            .iter()
            .map(|s| s.alive.load(Ordering::SeqCst))
            .collect()
    }

    fn mark_dead(&self, i: usize) {
        if self.shards[i].alive.swap(false, Ordering::SeqCst) {
            self.registered.lock().expect("registered poisoned")[i].clear();
        }
    }

    fn mark_alive(&self, i: usize) {
        self.shards[i].alive.store(true, Ordering::SeqCst);
    }

    /// Routes a key, preferring the ring position; `None` = no live shard.
    fn route(&self, key: u64) -> Option<usize> {
        self.ring.route(key, &self.alive_mask())
    }
}

/// Configuration for [`serve_router`].
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Backend shard addresses. Ring order is index order: keep it stable
    /// across router restarts or the digest→shard map moves.
    pub shards: Vec<SocketAddr>,
    /// How often dead shards are probed for re-admission.
    pub probe_interval: Duration,
}

impl RouterConfig {
    /// A config with the default probe cadence.
    pub fn new(shards: Vec<SocketAddr>) -> RouterConfig {
        RouterConfig {
            shards,
            probe_interval: PROBE_INTERVAL,
        }
    }
}

/// Serves the router on `listener` until `stop` is set (externally, or
/// by a client `shutdown` — which stops the **router only**).
///
/// # Errors
///
/// Fatal listener errors; per-connection and per-shard errors only drop
/// that connection / mark that shard dead.
pub fn serve_router(
    config: RouterConfig,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
) -> std::io::Result<()> {
    let n = config.shards.len();
    let shared = Arc::new(RouterShared {
        ring: Ring::new(n),
        shards: config
            .shards
            .iter()
            .map(|&addr| ShardState {
                addr,
                alive: AtomicBool::new(true),
            })
            .collect(),
        templates: Mutex::new(HashMap::new()),
        registered: Mutex::new(vec![HashSet::new(); n]),
        stop: Arc::clone(&stop),
    });

    // Health prober: retry dead shards, re-admit on a successful ping.
    let prober = {
        let shared = Arc::clone(&shared);
        let interval = config.probe_interval;
        std::thread::spawn(move || {
            while !shared.stop.load(Ordering::SeqCst) {
                for i in 0..shared.shards.len() {
                    if shared.shards[i].alive.load(Ordering::SeqCst) {
                        continue;
                    }
                    if probe(shared.shards[i].addr).is_ok() {
                        shared.mark_alive(i);
                    }
                }
                std::thread::sleep(interval);
            }
        })
    };

    listener.set_nonblocking(true)?;
    let mut clients: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                stream.set_nodelay(true).ok();
                let shared = Arc::clone(&shared);
                clients.push(std::thread::spawn(move || {
                    let _ = handle_client(stream, &shared);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
        clients.retain(|h| !h.is_finished());
    }
    for h in clients {
        h.join().ok();
    }
    prober.join().ok();
    Ok(())
}

/// One liveness roundtrip against a shard.
fn probe(addr: SocketAddr) -> std::io::Result<()> {
    let mut c = fpopb::Client::connect(addr)?;
    c.stream().set_read_timeout(Some(Duration::from_secs(2)))?;
    let corr = c.send_ping()?;
    let frame = c.recv()?;
    if frame.ty == FrameType::Pong && frame.corr == corr {
        Ok(())
    } else {
        Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "unexpected ping reply",
        ))
    }
}

/// Sniffs the protocol by the first byte, exactly like `fpopd` itself.
fn handle_client(stream: TcpStream, shared: &Arc<RouterShared>) -> std::io::Result<()> {
    let mut first = [0u8; 1];
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    loop {
        match stream.peek(&mut first) {
            Ok(0) => return Ok(()), // client went away without a byte
            Ok(_) => break,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            Err(e) => return Err(e),
        }
    }
    if first[0] == 0xfb {
        handle_binary_client(stream, shared)
    } else {
        handle_text_client(stream, shared)
    }
}

// ---------------------------------------------------------------------------
// Text protocol: turn-based per line, FIFO preserved
// ---------------------------------------------------------------------------

/// A lazily-connected turn-based text connection to one shard.
struct TextUpstream {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl TextUpstream {
    fn connect(addr: SocketAddr) -> std::io::Result<TextUpstream> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(UPSTREAM_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(TextUpstream {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// One request line out, one reply line back.
    fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "shard closed the connection",
            ));
        }
        Ok(reply)
    }
}

fn handle_text_client(stream: TcpStream, shared: &Arc<RouterShared>) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut upstreams: HashMap<usize, TextUpstream> = HashMap::new();
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()),
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        let reply = match proto::parse_command(trimmed) {
            Err(e) => format!("err {}", proto::escape(&e)),
            Ok(proto::Command::Ping) => "ok pong".to_string(),
            Ok(proto::Command::Shutdown) => {
                writer.write_all(b"ok shutting down\n")?;
                writer.flush()?;
                shared.stop.store(true, Ordering::SeqCst);
                return Ok(());
            }
            Ok(proto::Command::Checkpoint) => match checkpoint_all(shared) {
                Ok(n) => format!("ok checkpoint written on {n} shard(s)"),
                Err(e) => format!("err {}", proto::escape(&e)),
            },
            Ok(proto::Command::SlowLog) => forward_text(shared, &mut upstreams, 0, trimmed),
            Ok(proto::Command::Submit(req, _)) => forward_text(
                shared,
                &mut upstreams,
                req.dedup_key().unwrap_or(0),
                trimmed,
            ),
        };
        writer.write_all(reply.as_bytes())?;
        if !reply.ends_with('\n') {
            writer.write_all(b"\n")?;
        }
        writer.flush()?;
    }
}

/// Forwards one text line to the shard owning `key`, retrying on the
/// ring's next live successor if the shard dies under us (text requests
/// are turn-based and idempotent, so a retry is always safe).
fn forward_text(
    shared: &RouterShared,
    upstreams: &mut HashMap<usize, TextUpstream>,
    key: u64,
    line: &str,
) -> String {
    loop {
        let Some(s) = shared.route(key) else {
            return "err no live shards (retry)".to_string();
        };
        let attempt = (|| -> std::io::Result<String> {
            let up = match upstreams.entry(s) {
                std::collections::hash_map::Entry::Occupied(o) => o.into_mut(),
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(TextUpstream::connect(shared.shards[s].addr)?)
                }
            };
            up.roundtrip(line)
        })();
        match attempt {
            Ok(reply) => return reply,
            Err(_) => {
                upstreams.remove(&s);
                shared.mark_dead(s);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Binary protocol: pipelined, relay threads per upstream
// ---------------------------------------------------------------------------

/// The write half the relays and the client thread share.
type ClientWriter = Arc<Mutex<TcpStream>>;

fn send_client(
    writer: &ClientWriter,
    ty: FrameType,
    corr: u64,
    body: &[u8],
) -> std::io::Result<()> {
    let bytes = encode_frame(ty, corr, body);
    let mut w = writer.lock().expect("client writer poisoned");
    w.write_all(&bytes)
}

fn send_client_err(writer: &ClientWriter, corr: u64, code: ErrCode, reason: &str) {
    let mut body = vec![code as u8];
    body.extend_from_slice(reason.as_bytes());
    let _ = send_client(writer, FrameType::Err, corr, &body);
}

/// A pipelined binary connection to one shard, plus the relay thread
/// forwarding its replies back to the client.
struct BinUpstream {
    writer: TcpStream,
    /// Correlation ids written to this shard and not yet answered. The
    /// relay drains one per forwarded reply; on shard death it fails the
    /// rest with [`ErrCode::Unavailable`].
    inflight: Arc<Mutex<HashSet<u64>>>,
    /// Set by the relay when the upstream died (the client thread then
    /// drops this upstream and re-routes).
    dead: Arc<AtomicBool>,
}

impl BinUpstream {
    fn connect(
        shared: &Arc<RouterShared>,
        shard: usize,
        client: &ClientWriter,
    ) -> std::io::Result<BinUpstream> {
        let stream = TcpStream::connect(shared.shards[shard].addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_millis(200)))?;
        let writer = stream.try_clone()?;
        let inflight: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
        let dead = Arc::new(AtomicBool::new(false));
        {
            let shared = Arc::clone(shared);
            let client = Arc::clone(client);
            let inflight = Arc::clone(&inflight);
            let dead = Arc::clone(&dead);
            std::thread::spawn(move || {
                relay_replies(stream, &shared, shard, &client, &inflight, &dead);
                dead.store(true, Ordering::SeqCst);
            });
        }
        Ok(BinUpstream {
            writer,
            inflight,
            dead,
        })
    }
}

/// Reads reply frames from one shard and forwards them verbatim to the
/// client until the shard or the router goes away. On upstream death,
/// answers every in-flight correlation id with a retryable error — the
/// "never a hang, never a wrong verdict" half of the failover contract.
fn relay_replies(
    mut stream: TcpStream,
    shared: &Arc<RouterShared>,
    shard: usize,
    client: &ClientWriter,
    inflight: &Arc<Mutex<HashSet<u64>>>,
    dead: &Arc<AtomicBool>,
) {
    let mut frames = FrameReader::default();
    let died = loop {
        match frames.next(&mut stream) {
            Ok(Ok(frame)) => {
                inflight
                    .lock()
                    .expect("inflight poisoned")
                    .remove(&frame.corr);
                if send_client(client, frame.ty, frame.corr, &frame.body).is_err() {
                    // Client went away; stop relaying, shard is fine.
                    break false;
                }
            }
            // A shard speaking garbage is as gone as a dead one.
            Ok(Err(_)) => break true,
            Err(e) if is_timeout(&e) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break false;
                }
            }
            // EOF — mid-frame or clean, same verdict.
            Err(_) => break true,
        }
    };
    if died {
        // Publish death BEFORE draining: the client thread's post-write
        // check (`forward_binary`) relies on this order — a corr written
        // concurrently with our death either lands in `inflight` before
        // the drain (we answer it below) or after (the writer sees
        // `dead`, removes it, and re-routes). Either way, exactly one
        // reply, never zero.
        dead.store(true, Ordering::SeqCst);
        shared.mark_dead(shard);
        let orphans: Vec<u64> = inflight
            .lock()
            .expect("inflight poisoned")
            .drain()
            .collect();
        for corr in orphans {
            send_client_err(
                client,
                corr,
                ErrCode::Unavailable,
                "shard connection lost; resubmit (requests are idempotent)",
            );
        }
    }
}

fn handle_binary_client(stream: TcpStream, shared: &Arc<RouterShared>) -> std::io::Result<()> {
    let writer: ClientWriter = Arc::new(Mutex::new(stream.try_clone()?));
    let mut upstreams: HashMap<usize, BinUpstream> = HashMap::new();
    let mut frames = FrameReader::default();
    let mut reader = stream;
    loop {
        match frames.next(&mut reader) {
            Ok(Ok(frame)) => {
                if !dispatch_binary(shared, &writer, &mut upstreams, frame)? {
                    return Ok(());
                }
            }
            // Same contract as a single fpopd: report; a recoverable error
            // has skipped its frame and the connection stays, a fatal one
            // closes it.
            Ok(Err(e)) => {
                send_client_err(&writer, e.corr(), e.code(), &e.reason());
                if e.recoverable().is_none() {
                    return Ok(());
                }
            }
            Err(e) if is_timeout(&e) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        }
    }
}

/// A read timeout: the blocking loops poll their stop flag on it.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Handles one decoded client frame. Returns `false` to close the
/// connection (router shutdown).
fn dispatch_binary(
    shared: &Arc<RouterShared>,
    writer: &ClientWriter,
    upstreams: &mut HashMap<usize, BinUpstream>,
    frame: Frame,
) -> std::io::Result<bool> {
    match frame.ty {
        FrameType::Hello => {
            let mut body = Vec::new();
            fpopb::w_varint(&mut body, u64::from(fpopb::VERSION));
            send_client(writer, FrameType::HelloAck, frame.corr, &body)?;
        }
        FrameType::Ping => send_client(writer, FrameType::Pong, frame.corr, &[])?,
        FrameType::Shutdown => {
            send_client(writer, FrameType::Ok, frame.corr, b"shutting down")?;
            shared.stop.store(true, Ordering::SeqCst);
            return Ok(false);
        }
        FrameType::Checkpoint => match checkpoint_all(shared) {
            Ok(n) => send_client(
                writer,
                FrameType::Ok,
                frame.corr,
                format!("checkpoint written on {n} shard(s)").as_bytes(),
            )?,
            Err(e) => send_client_err(writer, frame.corr, ErrCode::Failed, &e),
        },
        FrameType::SlowLog => {
            forward_binary(shared, writer, upstreams, 0, frame);
        }
        FrameType::Submit => {
            // Routing key = the request's content digest, the same key the
            // engine dedups in-flight requests on.
            let key = frame
                .body
                .split_first()
                .and_then(|(_, rest)| fpopb::decode_request(rest, 0).ok())
                .and_then(|(req, _)| req.dedup_key())
                .unwrap_or(0);
            forward_binary(shared, writer, upstreams, key, frame);
        }
        FrameType::SubmitTemplate => match fpopb::r_digest(&frame.body, 1) {
            Ok((digest, _)) => {
                forward_binary(shared, writer, upstreams, digest, frame);
            }
            Err(reason) => send_client_err(writer, frame.corr, ErrCode::Malformed, &reason),
        },
        FrameType::RegisterTemplate => match fpopb::decode_request(&frame.body, 0) {
            Err(reason) => send_client_err(writer, frame.corr, ErrCode::Malformed, &reason),
            Ok((req, _)) => match register_fleet_wide(shared, &req) {
                Ok(digest) => {
                    send_client(
                        writer,
                        FrameType::TemplateId,
                        frame.corr,
                        &digest.to_le_bytes(),
                    )?;
                }
                Err(e) => send_client_err(writer, frame.corr, ErrCode::Failed, &e),
            },
        },
        // Response frames have no business arriving at a server.
        _ => send_client_err(
            writer,
            frame.corr,
            ErrCode::Malformed,
            "response frame sent to server",
        ),
    }
    Ok(true)
}

/// Forwards one frame to the shard owning `key`, re-routing to the next
/// live successor on write failure. The reply comes back asynchronously
/// through the relay; a frame we could not hand to *any* shard is failed
/// with [`ErrCode::Unavailable`].
fn forward_binary(
    shared: &Arc<RouterShared>,
    writer: &ClientWriter,
    upstreams: &mut HashMap<usize, BinUpstream>,
    key: u64,
    frame: Frame,
) {
    loop {
        let Some(s) = shared.route(key) else {
            send_client_err(
                writer,
                frame.corr,
                ErrCode::Unavailable,
                "no live shards (retry)",
            );
            return;
        };
        if upstreams.get(&s).map(|u| u.dead.load(Ordering::SeqCst)) == Some(true) {
            upstreams.remove(&s);
        }
        let attempt = (|| -> std::io::Result<()> {
            // Template fast path: make sure the target shard knows the
            // digest before the submit lands on it.
            if frame.ty == FrameType::SubmitTemplate {
                ensure_registered(shared, s, key)?;
            }
            let up = match upstreams.entry(s) {
                std::collections::hash_map::Entry::Occupied(o) => o.into_mut(),
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(BinUpstream::connect(shared, s, writer)?)
                }
            };
            up.inflight
                .lock()
                .expect("inflight poisoned")
                .insert(frame.corr);
            let bytes = encode_frame(frame.ty, frame.corr, &frame.body);
            up.writer.write_all(&bytes).inspect_err(|_| {
                up.inflight
                    .lock()
                    .expect("inflight poisoned")
                    .remove(&frame.corr);
            })
        })();
        match attempt {
            Ok(()) => {
                // Post-write liveness check: the relay may have died (and
                // drained its in-flight set) while we were writing. If it
                // never saw our corr, no reply will ever come — reclaim
                // the corr and re-route; if the drain did see it, the
                // retryable error is already on its way to the client.
                let up = upstreams.get(&s).expect("just used");
                if up.dead.load(Ordering::SeqCst)
                    && up
                        .inflight
                        .lock()
                        .expect("inflight poisoned")
                        .remove(&frame.corr)
                {
                    upstreams.remove(&s);
                    shared.mark_dead(s);
                    continue;
                }
                return;
            }
            Err(_) => {
                upstreams.remove(&s);
                shared.mark_dead(s);
            }
        }
    }
}

/// Registers a template on every live shard (turn-based, short-lived
/// connections) and records it for lazy replay to shards that join or
/// rejoin later. Returns the digest, which is the request's
/// [`Request::dedup_key`] on every shard by construction.
fn register_fleet_wide(shared: &Arc<RouterShared>, req: &Request) -> Result<u64, String> {
    let Some(digest) = req.dedup_key() else {
        // Mirror the engine's refusal wording for a non-keyable request.
        return Err("request kind cannot be registered as a template".to_string());
    };
    shared
        .templates
        .lock()
        .expect("templates poisoned")
        .insert(digest, req.clone());
    let mut registered_anywhere = false;
    for i in 0..shared.shards.len() {
        if !shared.shards[i].alive.load(Ordering::SeqCst) {
            continue;
        }
        match register_on(shared.shards[i].addr, req) {
            Ok(d) if d == digest => {
                shared.registered.lock().expect("registered poisoned")[i].insert(digest);
                registered_anywhere = true;
            }
            Ok(_) | Err(_) => shared.mark_dead(i),
        }
    }
    if registered_anywhere {
        Ok(digest)
    } else {
        Err("no live shards accepted the template".to_string())
    }
}

/// Lazily replays a recorded template to one shard (no-op when already
/// registered there, or when the digest never passed through us — the
/// shard then answers the submit itself, correctly, with an error).
fn ensure_registered(shared: &Arc<RouterShared>, shard: usize, digest: u64) -> std::io::Result<()> {
    if shared.registered.lock().expect("registered poisoned")[shard].contains(&digest) {
        return Ok(());
    }
    let req = shared
        .templates
        .lock()
        .expect("templates poisoned")
        .get(&digest)
        .cloned();
    let Some(req) = req else { return Ok(()) };
    let got = register_on(shared.shards[shard].addr, &req)
        .map_err(|e| std::io::Error::new(e.kind(), format!("template replay: {e}")))?;
    if got == digest {
        shared.registered.lock().expect("registered poisoned")[shard].insert(digest);
    }
    Ok(())
}

/// One synchronous template registration against a shard.
fn register_on(addr: SocketAddr, req: &Request) -> std::io::Result<u64> {
    let mut c = fpopb::Client::connect(addr)?;
    c.stream().set_read_timeout(Some(UPSTREAM_TIMEOUT))?;
    c.register_template(req)
}

/// Checkpoints every live shard (turn-based, short-lived connections).
fn checkpoint_all(shared: &RouterShared) -> Result<usize, String> {
    let mut done = 0usize;
    let mut last_err = None;
    for i in 0..shared.shards.len() {
        if !shared.shards[i].alive.load(Ordering::SeqCst) {
            continue;
        }
        let r = (|| -> std::io::Result<()> {
            let mut c = fpopb::Client::connect(shared.shards[i].addr)?;
            c.stream().set_read_timeout(Some(UPSTREAM_TIMEOUT))?;
            let corr = c.send_checkpoint()?;
            let frame = c.recv()?;
            match frame.ty {
                FrameType::Ok if frame.corr == corr => Ok(()),
                FrameType::Err => Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    String::from_utf8_lossy(&frame.body[1.min(frame.body.len())..]).into_owned(),
                )),
                _ => Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "unexpected checkpoint reply",
                )),
            }
        })();
        match r {
            Ok(()) => done += 1,
            Err(e) => last_err = Some(format!("shard {i}: {e}")),
        }
    }
    match (done, last_err) {
        (0, Some(e)) => Err(e),
        (0, None) => Err("no live shards".to_string()),
        (n, _) => Ok(n),
    }
}

// ---------------------------------------------------------------------------
// In-process fleet harness (tests, loadgen --fleet, bench)
// ---------------------------------------------------------------------------

/// One in-process shard: an [`Engine`] behind the full connection layer
/// on a loopback port.
pub struct FleetShard {
    /// The shard's engine (inspect stats, export the session…).
    pub engine: Arc<Engine>,
    /// Where the shard listens.
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<std::io::Result<()>>>,
}

impl FleetShard {
    fn start(config: EngineConfig) -> std::io::Result<FleetShard> {
        let engine = Arc::new(Engine::start(config));
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || proto::serve(engine, listener, stop))
        };
        Ok(FleetShard {
            engine,
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// Stops serving and drains the engine (writes its snapshot and
    /// publishes to the shared store if configured). Idempotent.
    pub fn stop(&mut self) -> std::io::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            h.join()
                .map_err(|_| std::io::Error::other("shard server thread panicked"))??;
        }
        self.engine
            .shutdown()
            .map_err(|e| std::io::Error::other(format!("shard engine shutdown: {e}")))?;
        Ok(())
    }
}

/// An in-process fleet: N shards plus a router, all on loopback. This is
/// what `loadgen --fleet N`, the bench fleet series, and the oracle-#9
/// differential test drive; the CI smoke job runs the same topology as
/// real processes.
pub struct Fleet {
    /// The shards, in ring order.
    pub shards: Vec<FleetShard>,
    /// The router's address — point clients here.
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<std::io::Result<()>>>,
}

impl Fleet {
    /// Starts `n` shards (each configured by `mk_config(i)`) and a router
    /// in front of them, with a fast probe cadence suited to tests.
    ///
    /// # Errors
    ///
    /// Propagates bind/spawn failures.
    pub fn start(n: usize, mk_config: impl Fn(usize) -> EngineConfig) -> std::io::Result<Fleet> {
        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            shards.push(FleetShard::start(mk_config(i))?);
        }
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let config = RouterConfig {
            shards: shards.iter().map(|s| s.addr).collect(),
            probe_interval: Duration::from_millis(50),
        };
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || serve_router(config, listener, stop))
        };
        Ok(Fleet {
            shards,
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// Starts `n` identical default-config shards (no snapshots, no
    /// shared store — pure in-memory fleet).
    ///
    /// # Errors
    ///
    /// As for [`Fleet::start`].
    pub fn start_default(n: usize) -> std::io::Result<Fleet> {
        Fleet::start(n, |_| EngineConfig {
            snapshot_path: None,
            ..EngineConfig::default()
        })
    }

    /// Gracefully stops shard `i` (drains, snapshots, closes its
    /// listener). The router discovers the death on its next request or
    /// probe and routes around it.
    ///
    /// # Errors
    ///
    /// Propagates the shard's shutdown failure.
    pub fn stop_shard(&mut self, i: usize) -> std::io::Result<()> {
        self.shards[i].stop()
    }

    /// Stops the router and every still-running shard.
    ///
    /// # Errors
    ///
    /// The first failure, after attempting every component.
    pub fn stop(mut self) -> std::io::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        let mut first_err = None;
        if let Some(h) = self.handle.take() {
            match h.join() {
                Ok(r) => {
                    if let (Err(e), None) = (r, &first_err) {
                        first_err = Some(e);
                    }
                }
                Err(_) => {
                    first_err.get_or_insert_with(|| std::io::Error::other("router panicked"));
                }
            }
        }
        for shard in &mut self.shards {
            if let (Err(e), true) = (shard.stop(), first_err.is_none()) {
                first_err = Some(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic_and_total() {
        let a = Ring::new(4);
        let b = Ring::new(4);
        let alive = vec![true; 4];
        for key in (0..2048u64).map(|i| i.wrapping_mul(0x9e3779b97f4a7c15)) {
            assert_eq!(a.route(key, &alive), b.route(key, &alive));
            assert!(a.route(key, &alive).is_some());
        }
        assert_eq!(a.route(7, &[false; 4]), None);
        assert_eq!(Ring::new(0).route(7, &[]), None);
    }

    #[test]
    fn dead_shard_never_routed() {
        let ring = Ring::new(4);
        let mut alive = vec![true; 4];
        alive[2] = false;
        for key in (0..2048u64).map(|i| i.wrapping_mul(0x9e3779b97f4a7c15)) {
            assert_ne!(ring.route(key, &alive), Some(2));
        }
    }
}
