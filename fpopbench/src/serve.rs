//! The two serving workloads over loopback fpopb/1: `serve_direct` (one
//! engine warm-restarted from an FPOPSNAP snapshot behind the connection
//! layer) and `serve_fleet` (the same mix through the consistent-hash
//! router to 2 shards warm-started from a shared store).
//!
//! Each run has an open-loop phase at a fixed rate, timed from each
//! request's due time with no in-flight cap, then a closed-loop phase at
//! fixed depth and connection count for saturation throughput.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use engine::fleet::Fleet;
use engine::fpopb::{self, DecodeStep, Frame, FrameType};
use engine::{Engine, EngineConfig, Request, Response};

use crate::expect::Expected;
use crate::lattice::{EngineWindow, SETUP_REPS};
use crate::mix::{self, Expect, Kind, MixGen, Op, Programs, Verdict};
use crate::report::Report;
use crate::spans::{self, SpanStats};
use crate::util::{
    copy_dir, median, ms, peak_rss_mib, reset_peak_rss, rss_mib, Prom, Rng, Samples,
};
use crate::Opts;

/// Open-loop arrival rate, requests per second (Poisson arrivals): about
/// 5% of the lower measured saturation throughput (the fleet's, median
/// 19-20k replies/s, lowest 15k, on 2 cores). At 2000/s the generator
/// already ran up to 8 ms late with a backlog of up to 84 frames; at
/// 1000/s, with little host steal, lateness p99 stays under 1 ms and the
/// backlog near 10.
pub const RATE: f64 = 1000.0;
/// Window, in seconds, of the extra per-window figures printed beside the
/// exact whole-phase ones (open loop: by due time; closed loop: by
/// completion time). They show how much of a phase's tail one stall of a
/// shared host makes; the metrics themselves are whole-phase.
const WINDOW_S: f64 = 0.5;
/// Closed-loop phase: connections, and frames in flight on each.
pub const CONNS: usize = 2;
pub const DEPTH: usize = 8;
/// Shards behind the fleet router, and queue workers per shard (so the
/// fleet runs as many workers as the direct engine's default on 2 cores).
pub const SHARDS: usize = 2;
const SHARD_WORKERS: usize = 1;
/// Share of the measured time spent in the open-loop phase.
const OPEN_SHARE: f64 = 0.4;
/// A reply not seen this long after the last one is a timeout.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Ring slots of a traced serving run (drained every 100 ms).
const SERVE_RING: usize = 1 << 16;
/// Reply frames kept for the codec timing.
const KEEP_REPLIES: usize = 2000;

/// A connection: the write half, and an fpopb/1 client reading replies
/// with a short read timeout (see [`recv`]).
fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, fpopb::Client)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let reader = fpopb::Client::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// The next reply frame; `None` when none arrived within the read
/// timeout (the client keeps any partial frame for the next call).
fn recv(reader: &mut fpopb::Client) -> std::io::Result<Option<Frame>> {
    match reader.recv() {
        Ok(frame) => Ok(Some(frame)),
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

/// Outcome tally of one phase (or one connection of it).
#[derive(Default)]
struct Tally {
    attempted: u64,
    ok: u64,
    unavailable: u64,
    malformed_sent: u64,
    by_kind: HashMap<Kind, u64>,
    fails: Vec<String>,
    wrongs: Vec<String>,
    lat_ms: Samples,
    /// Latency of the kinds the engine executes (not template hits).
    executed_lat_ms: Samples,
    /// Per-window latency samples and verified completions.
    win_lat: Vec<Samples>,
    win_ok: Vec<u64>,
    replies: Vec<Frame>,
}

impl Tally {
    fn sent(&mut self, kind: Kind) {
        self.attempted += 1;
        *self.by_kind.entry(kind).or_default() += 1;
        if kind == Kind::Malformed {
            self.malformed_sent += 1;
        }
    }

    fn reply(&mut self, kind: Kind, expect: &Expect, frame: Frame, lat_ms: f64, window: usize) {
        match mix::verify(expect, &frame) {
            Verdict::Ok => {
                self.ok += 1;
                self.lat_ms.push(lat_ms);
                if self.win_lat.len() <= window {
                    self.win_lat.resize(window + 1, Samples::default());
                    self.win_ok.resize(window + 1, 0);
                }
                self.win_lat[window].push(lat_ms);
                self.win_ok[window] += 1;
                if !matches!(kind, Kind::Template | Kind::Malformed) {
                    self.executed_lat_ms.push(lat_ms);
                }
            }
            Verdict::Refused { unavailable, why } => {
                self.unavailable += u64::from(unavailable);
                self.fails.push(why);
            }
            Verdict::Wrong(why) => self.wrongs.push(why),
        }
        if self.replies.len() < KEEP_REPLIES {
            self.replies.push(frame);
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.unavailable += other.unavailable;
        self.malformed_sent += other.malformed_sent;
        for (k, v) in other.by_kind {
            *self.by_kind.entry(k).or_default() += v;
        }
        self.fails.extend(other.fails);
        self.wrongs.extend(other.wrongs);
        for v in other.lat_ms.values() {
            self.lat_ms.push(*v);
        }
        for v in other.executed_lat_ms.values() {
            self.executed_lat_ms.push(*v);
        }
        let windows = self.win_lat.len().max(other.win_lat.len());
        self.win_lat.resize(windows, Samples::default());
        self.win_ok.resize(windows, 0);
        for (w, lat) in other.win_lat.into_iter().enumerate() {
            for v in lat.values() {
                self.win_lat[w].push(*v);
            }
            self.win_ok[w] += other.win_ok[w];
        }
        let room = KEEP_REPLIES.saturating_sub(self.replies.len());
        self.replies.extend(other.replies.into_iter().take(room));
    }

    /// Moves the operation outcomes into the run report.
    fn settle(&self, rep: &mut Report) {
        rep.attempted += self.attempted;
        for f in &self.fails {
            rep.fail(f.clone());
        }
        for w in &self.wrongs {
            rep.wrong(w.clone());
        }
        let answered = self.ok + self.fails.len() as u64 + self.wrongs.len() as u64;
        for _ in answered..self.attempted {
            rep.fail("no reply (timed out or connection lost)");
        }
    }
}

// ---------------------------------------------------------------------------
// Open loop
// ---------------------------------------------------------------------------

struct OpenOut {
    tally: Tally,
    late_ms: Samples,
    backlog_max: usize,
    bytes_sent: usize,
    ops: Vec<Op>,
}

/// Sends a seeded Poisson schedule at `rate` for `secs` on one
/// connection (this thread sends, one receiver thread reads). Latency is
/// measured from each request's due time; nothing caps the frames in
/// flight. `tick` runs between sends (span drains in traced phases).
fn open_loop(
    addr: SocketAddr,
    gen: &mut MixGen,
    gaps: &mut Rng,
    secs: f64,
    tick: &mut dyn FnMut(),
) -> std::io::Result<OpenOut> {
    let mut ops = Vec::new();
    let mut due = Vec::new();
    let mut t = gaps.exp(1.0 / RATE);
    while t < secs {
        ops.push(gen.next(ops.len() as u64 + 1));
        due.push(Duration::from_secs_f64(t));
        t += gaps.exp(1.0 / RATE);
    }
    let n = ops.len();
    let (mut writer, mut reader) = connect(addr)?;
    let received = Arc::new(AtomicUsize::new(0));
    let expects: Vec<(Kind, Expect)> = ops.iter().map(|o| (o.kind, o.expect.clone())).collect();
    let t0 = Instant::now() + Duration::from_millis(5);
    let receiver = {
        let received = Arc::clone(&received);
        let due = due.clone();
        std::thread::spawn(move || {
            let mut tally = Tally::default();
            let mut seen = vec![false; n];
            let mut got = 0;
            let mut last = Instant::now();
            while got < n {
                match recv(&mut reader) {
                    Ok(Some(frame)) => {
                        let now = Instant::now();
                        last = now;
                        let idx = (frame.corr as usize).wrapping_sub(1);
                        if idx >= n || seen[idx] {
                            tally
                                .wrongs
                                .push(format!("reply for unknown corr {}", frame.corr));
                            continue;
                        }
                        seen[idx] = true;
                        got += 1;
                        received.store(got, Ordering::Relaxed);
                        let lat = ms(now.saturating_duration_since(t0 + due[idx]));
                        let (kind, expect) = &expects[idx];
                        let window = (due[idx].as_secs_f64() / WINDOW_S) as usize;
                        tally.reply(*kind, expect, frame, lat, window);
                    }
                    Ok(None) if last.elapsed() < REPLY_TIMEOUT => {}
                    Ok(None) | Err(_) => break,
                }
            }
            tally
        })
    };
    let mut late = Samples::default();
    let mut backlog_max = 0;
    let mut bytes_sent = 0;
    let mut sent_tally = Tally::default();
    for (i, op) in ops.iter().enumerate() {
        let due_at = t0 + due[i];
        tick();
        let now = Instant::now();
        if due_at > now {
            std::thread::sleep(due_at - now);
        }
        late.push(ms(Instant::now().saturating_duration_since(due_at)));
        backlog_max = backlog_max.max(i - received.load(Ordering::Relaxed).min(i));
        sent_tally.sent(op.kind);
        bytes_sent += op.frame.len();
        if writer.write_all(&op.frame).is_err() {
            break;
        }
    }
    let mut tally = receiver.join().expect("receiver thread");
    tally.merge(sent_tally);
    Ok(OpenOut {
        tally,
        late_ms: late,
        backlog_max,
        bytes_sent,
        ops,
    })
}

// ---------------------------------------------------------------------------
// Closed loop
// ---------------------------------------------------------------------------

/// One connection keeping `DEPTH` frames in flight until `deadline`.
fn closed_conn(
    addr: SocketAddr,
    mut gen: MixGen,
    start: Instant,
    deadline: Instant,
) -> std::io::Result<Tally> {
    let (mut writer, mut reader) = connect(addr)?;
    let mut tally = Tally::default();
    let mut inflight: HashMap<u64, (Kind, Expect, Instant)> = HashMap::new();
    let mut corr = 0u64;
    let mut send = |writer: &mut TcpStream,
                    inflight: &mut HashMap<u64, (Kind, Expect, Instant)>,
                    tally: &mut Tally|
     -> std::io::Result<()> {
        corr += 1;
        let op = gen.next(corr);
        tally.sent(op.kind);
        inflight.insert(corr, (op.kind, op.expect, Instant::now()));
        writer.write_all(&op.frame)
    };
    for _ in 0..DEPTH {
        send(&mut writer, &mut inflight, &mut tally)?;
    }
    let mut last = Instant::now();
    while !inflight.is_empty() {
        match recv(&mut reader) {
            Ok(Some(frame)) => {
                last = Instant::now();
                let Some((kind, expect, sent)) = inflight.remove(&frame.corr) else {
                    tally
                        .wrongs
                        .push(format!("reply for unknown corr {}", frame.corr));
                    continue;
                };
                let window = (start.elapsed().as_secs_f64() / WINDOW_S) as usize;
                tally.reply(kind, &expect, frame, ms(sent.elapsed()), window);
                if Instant::now() < deadline {
                    send(&mut writer, &mut inflight, &mut tally)?;
                }
            }
            Ok(None) if last.elapsed() < REPLY_TIMEOUT => {}
            Ok(None) | Err(_) => break,
        }
    }
    Ok(tally)
}

/// Runs `CONNS` closed-loop connections (one thread each) for `secs`;
/// returns the merged tally and the saturation throughput.
fn closed_loop(
    addr: SocketAddr,
    exp: &Expected,
    progs: &Programs,
    seed: u64,
    first_stream: usize,
    secs: f64,
    tick: &mut dyn FnMut(),
) -> (Tally, f64) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let mut tally = Tally::default();
    let mut elapsed = 0.0;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let gen = MixGen::new(exp, progs, seed, first_stream + c);
                s.spawn(move || closed_conn(addr, gen, start, deadline))
            })
            .collect();
        while handles.iter().any(|h| !h.is_finished()) {
            tick();
            std::thread::sleep(Duration::from_millis(20));
        }
        for h in handles {
            match h.join().expect("closed-loop thread") {
                Ok(t) => tally.merge(t),
                Err(e) => tally.fails.push(format!("closed-loop connection: {e}")),
            }
        }
        elapsed = start.elapsed().as_secs_f64();
    });
    // Saturation throughput: verified replies over the whole phase,
    // in-flight drain included.
    let rps = tally.ok as f64 / elapsed;
    (tally, rps)
}

/// Median over the windows wholly inside a `secs` phase of the
/// per-window verified-reply rate (an extra figure, see [`WINDOW_S`]).
fn windowed_rps(tally: &Tally, secs: f64) -> f64 {
    let full = (secs / WINDOW_S) as usize;
    let per: Vec<f64> = tally
        .win_ok
        .iter()
        .take(full)
        .map(|&n| n as f64 / WINDOW_S)
        .collect();
    median(&per)
}

// ---------------------------------------------------------------------------
// Targets: one engine behind the connection layer, or a fleet
// ---------------------------------------------------------------------------

enum Target {
    Direct {
        engine: Arc<Engine>,
        addr: SocketAddr,
        stop: Arc<AtomicBool>,
        server: JoinHandle<std::io::Result<()>>,
    },
    Fleet(Fleet),
}

impl Target {
    fn direct(snapshot: &Path) -> std::io::Result<Target> {
        let engine = Arc::new(Engine::start(EngineConfig {
            snapshot_path: Some(snapshot.to_path_buf()),
            ..EngineConfig::default()
        }));
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || engine::proto::serve(engine, listener, stop))
        };
        Ok(Target::Direct {
            engine,
            addr,
            stop,
            server,
        })
    }

    fn fleet(store: &Path) -> std::io::Result<Target> {
        let store = store.to_path_buf();
        Ok(Target::Fleet(Fleet::start(SHARDS, |_| EngineConfig {
            workers: SHARD_WORKERS,
            shared_store: Some(store.clone()),
            ..EngineConfig::default()
        })?))
    }

    fn addr(&self) -> SocketAddr {
        match self {
            Target::Direct { addr, .. } => *addr,
            Target::Fleet(f) => f.addr,
        }
    }

    fn engines(&self) -> Vec<&Engine> {
        match self {
            Target::Direct { engine, .. } => vec![engine.as_ref()],
            Target::Fleet(f) => f.shards.iter().map(|s| s.engine.as_ref()).collect(),
        }
    }

    fn stop(self) -> std::io::Result<()> {
        match self {
            Target::Direct {
                engine,
                stop,
                server,
                ..
            } => {
                stop.store(true, Ordering::SeqCst);
                server
                    .join()
                    .map_err(|_| std::io::Error::other("server thread panicked"))??;
                engine.shutdown().map(|_| ())
            }
            Target::Fleet(f) => f.stop(),
        }
    }
}

/// Verifies a checked program's outputs in-process.
fn check_outputs(r: Result<Response, engine::EngineError>, lines: &[String], rep: &mut Report) {
    rep.attempted += 1;
    match r {
        Ok(Response::Checked { outputs, .. }) => {
            if let Some(l) = lines.iter().find(|l| !outputs.contains(l)) {
                rep.wrong(format!("program output lacks {l:?}"));
            }
        }
        Ok(other) => rep.wrong(format!("not a check verdict: {other:?}")),
        Err(e) => rep.fail(format!("warm program: {e}")),
    }
}

/// Builds the warm state a serving engine restarts from: the K programs
/// and the extended lattice. With `store`, publishes it to a shared
/// store in three checkpoints (a base segment and two FPOPDIFF deltas);
/// otherwise writes an FPOPSNAP snapshot.
fn prepare_warm_state(
    progs: &Programs,
    snapshot: Option<&Path>,
    store: Option<&Path>,
    rep: &mut Report,
) -> std::io::Result<()> {
    let e = Engine::start(EngineConfig {
        snapshot_path: snapshot.map(Path::to_path_buf),
        shared_store: store.map(Path::to_path_buf),
        ..EngineConfig::default()
    });
    let half = progs.list.len() / 2;
    for (i, p) in progs.list.iter().enumerate() {
        if i == half {
            e.checkpoint()?;
        }
        check_outputs(e.run(mix::check_request(p)), &p.expect_lines, rep);
    }
    e.checkpoint()?;
    rep.attempted += 1;
    if let Err(err) = e.run(Request::lattice_extended()) {
        rep.fail(format!("warm lattice: {err}"));
    }
    e.shutdown()?;
    Ok(())
}

/// Sends one operation on `client` and checks the reply.
fn exchange(client: &mut fpopb::Client, op: &Op, rep: &mut Report) -> std::io::Result<()> {
    rep.attempted += 1;
    client.stream().write_all(&op.frame)?;
    let frame = client.recv()?;
    match mix::verify(&op.expect, &frame) {
        Verdict::Ok => {}
        Verdict::Refused { why, .. } => rep.fail(format!("warm-up: {why}")),
        Verdict::Wrong(why) => rep.wrong(format!("warm-up: {why}")),
    }
    Ok(())
}

/// The warm-up every set-up ends with: template registration through the
/// wire, one template submit and one `eval` per program.
///
/// On a fleet, every program is first checked over each shard's own wire
/// address. Store catch-up restores proofs but not the family registry,
/// and the router places an `eval` by its (family, term) digest, not on
/// the shard that checked the family; an `eval` on a shard that never
/// checked it fails with "no family registered".
fn warm_up(
    target: &Target,
    exp: &Expected,
    progs: &Programs,
    seed: u64,
    rep: &mut Report,
) -> std::io::Result<()> {
    let mut gen = MixGen::new(exp, progs, seed, 99);
    let mut corr = 1_000_000;
    if let Target::Fleet(f) = target {
        for shard in &f.shards {
            let mut client = fpopb::Client::connect(shard.addr)?;
            for k in 0..progs.list.len() {
                corr += 1;
                exchange(&mut client, &gen.op(Kind::Check, k, corr), rep)?;
            }
        }
    }
    let mut client = fpopb::Client::connect(target.addr())?;
    for (p, &digest) in progs.list.iter().zip(&progs.digests) {
        rep.attempted += 1;
        let got = client.register_template(&mix::check_request(p))?;
        if got != digest {
            rep.wrong(format!(
                "template digest {got:016x}, expected {digest:016x}"
            ));
        }
    }
    for k in 0..progs.list.len() {
        for kind in [Kind::Template, Kind::Eval] {
            corr += 1;
            exchange(&mut client, &gen.op(kind, k, corr), rep)?;
        }
    }
    Ok(())
}

fn registry() -> Prom {
    Prom::parse(&trace::registry().render())
}

/// Per-run files: the pristine warm state, and one copy per set-up (an
/// engine writes back to its snapshot or store when it stops).
struct Files {
    dir: PathBuf,
    snapshot: PathBuf,
    store: PathBuf,
}

impl Files {
    fn copy_for(&self, fleet: bool, rep_no: usize) -> std::io::Result<PathBuf> {
        if fleet {
            let dst = self.dir.join(format!("store-{rep_no}"));
            copy_dir(&self.store, &dst)?;
            Ok(dst)
        } else {
            let dst = self.dir.join(format!("snap-{rep_no}.fpopsnap"));
            std::fs::copy(&self.snapshot, &dst)?;
            Ok(dst)
        }
    }
}

fn start_target(
    fleet: bool,
    path: &Path,
    exp: &Expected,
    progs: &Programs,
    seed: u64,
    rep: &mut Report,
) -> std::io::Result<Target> {
    let target = if fleet {
        Target::fleet(path)?
    } else {
        Target::direct(path)?
    };
    for e in target.engines() {
        if e.warm_loaded() == 0 {
            rep.fail("engine started cold: no warm state loaded");
        }
    }
    warm_up(&target, exp, progs, seed, rep)?;
    Ok(target)
}

pub fn serve(o: &Opts, exp: &Expected, fleet: bool) -> std::io::Result<Report> {
    let mut rep = Report::default();
    let progs = Programs::generate(exp, o.seed, SHARDS);
    // Serving set-ups take 10-100 ms, so a run affords more of them.
    let setup_reps = 3 * SETUP_REPS;
    let files = Files {
        dir: o.work.clone(),
        snapshot: o.work.join("pristine.fpopsnap"),
        store: o.work.join("pristine-store"),
    };
    let cfg = EngineConfig::default();
    rep.note(format!(
        "settings: {} engine workers={} sched workers={} open-loop rate={RATE}/s (Poisson) \
         on 1 connection; closed loop {CONNS} connections x depth {DEPTH}; K={} warm programs",
        if fleet {
            format!("fleet of {SHARDS} shards behind the router;")
        } else {
            "one engine;".to_string()
        },
        if fleet { SHARD_WORKERS } else { cfg.workers },
        fpop::sched::default_workers(),
        mix::K,
    ));

    if fleet {
        prepare_warm_state(&progs, None, Some(&files.store), &mut rep)?;
    }
    if !fleet || o.trace {
        prepare_warm_state(&progs, Some(&files.snapshot), None, &mut rep)?;
    }
    // The preparation built the extended lattice in this process; restart
    // the peak so `peak_rss_mib` covers set-up and serving only.
    if !reset_peak_rss() {
        rep.note("peak RSS could not be reset: it includes the warm-state preparation");
    }
    rep.note(format!(
        "peak RSS counted from {:.1} MiB resident after preparing the warm state",
        rss_mib()
    ));

    let mut target = None;
    let mut setups = Vec::new();
    for r in 0..setup_reps {
        if let Some(t) = target.take() {
            Target::stop(t)?;
        }
        let path = files.copy_for(fleet, r)?;
        let t0 = Instant::now();
        target = Some(start_target(fleet, &path, exp, &progs, o.seed, &mut rep)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    rep.e2e("setup_s", median(&setups), "s", setups.len());
    let target = target.expect("set-up ran");
    let addr = target.addr();
    let mut gaps = Rng::new(o.seed).fork(7);
    let decode0 = registry();

    if !o.trace {
        let mut gen = MixGen::new(exp, &progs, o.seed, 0);
        let open = open_loop(
            addr,
            &mut gen,
            &mut gaps,
            o.seconds * OPEN_SHARE,
            &mut || {},
        )?;
        // Peak over set-up and the fixed-rate open loop. Every fresh
        // program adds a family to the session, so over the closed loop
        // memory grows with throughput and a faster program would read as
        // a memory regression.
        rep.e2e("peak_rss_mib", peak_rss_mib(), "MiB", 1);
        let closed_secs = o.seconds * (1.0 - OPEN_SHARE);
        let (closed, rps) = closed_loop(addr, exp, &progs, o.seed, 1, closed_secs, &mut || {});
        emit_open(&mut rep, &open);
        let n = closed.lat_ms.len();
        rep.e2e("serve_sat_rps", rps, "1/s", closed.ok as usize);
        rep.e2e("serve_closed_ms_p50", closed.lat_ms.quantile(0.5), "ms", n);
        rep.e2e("serve_closed_ms_p90", closed.lat_ms.quantile(0.9), "ms", n);
        rep.e2e("serve_closed_ms_p99", closed.lat_ms.quantile(0.99), "ms", n);
        rep.note(format!(
            "peak RSS at the end of the run, after {} closed-loop replies: {:.1} MiB",
            closed.ok,
            peak_rss_mib()
        ));
        rep.note(format!(
            "closed loop per {WINDOW_S} s window, median over {} windows: {:.0} replies/s, \
             p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms",
            closed.win_lat.len(),
            windowed_rps(&closed, closed_secs),
            windowed(&closed, 0.5),
            windowed(&closed, 0.9),
            windowed(&closed, 0.99),
        ));
        let mut all = open.tally;
        all.merge(closed);
        check_decode_errors(&mut rep, &decode0, all.malformed_sent);
        all.settle(&mut rep);
    } else {
        let malformed = traced(o, exp, &progs, &files, fleet, &target, &mut gaps, &mut rep)?;
        let counted = check_decode_errors(&mut rep, &decode0, malformed);
        rep.layer("conn.decode_errors", counted as f64, 1);
    }
    target.stop()?;
    Ok(rep)
}

/// The connection layer must count exactly the malformed frames sent.
/// Returns the count.
fn check_decode_errors(rep: &mut Report, before: &Prom, malformed: u64) -> u64 {
    let counted = registry().delta(before, "engine_conn_decode_errors_total") as u64;
    if counted != malformed {
        rep.wrong(format!(
            "connection layer counted {counted} decode errors for {malformed} malformed frames"
        ));
    }
    counted
}

/// Median over windows of the per-window `q` quantile of latency (an
/// extra figure, see [`WINDOW_S`]).
fn windowed(tally: &Tally, q: f64) -> f64 {
    let per: Vec<f64> = tally
        .win_lat
        .iter()
        .filter(|w| w.len() > 0)
        .map(|w| w.quantile(q))
        .collect();
    median(&per)
}

fn emit_open(rep: &mut Report, open: &OpenOut) {
    let n = open.tally.lat_ms.len();
    rep.e2e("serve_ms_p50", open.tally.lat_ms.quantile(0.5), "ms", n);
    rep.e2e("serve_ms_p99", open.tally.lat_ms.quantile(0.99), "ms", n);
    rep.note(format!(
        "open loop: {} requests due at {RATE}/s, generator lateness p99 {:.3} ms, \
         backlog max {}; per {WINDOW_S} s window, median over {} windows: p50 {:.4} ms, \
         p99 {:.4} ms",
        open.ops.len(),
        open.late_ms.quantile(0.99),
        open.backlog_max,
        open.tally.win_lat.len(),
        windowed(&open.tally, 0.5),
        windowed(&open.tally, 0.99),
    ));
}

/// The traced run: untraced and traced open-loop phases on the same seed
/// (their p50 difference is the tracing overhead), a traced closed-loop
/// phase, then the layer timings taken from outside. A fleet run first
/// serves the same stream from a direct engine, for the router hop.
/// Returns the malformed frames sent.
#[allow(clippy::too_many_arguments)]
fn traced(
    o: &Opts,
    exp: &Expected,
    progs: &Programs,
    files: &Files,
    fleet: bool,
    target: &Target,
    gaps: &mut Rng,
    rep: &mut Report,
) -> std::io::Result<u64> {
    let phases = if fleet { 5.0 } else { 4.0 };
    let secs = o.seconds / phases;
    let addr = target.addr();
    let mut tally = Tally::default();

    let mut hop_base = None;
    if fleet {
        let path = files.copy_for(false, 99)?;
        let direct = start_target(false, &path, exp, progs, o.seed, rep)?;
        let mut gen = MixGen::new(exp, progs, o.seed, 0);
        let out = open_loop(direct.addr(), &mut gen, &mut gaps.clone(), secs, &mut || {})?;
        hop_base = Some(out.tally.lat_ms.quantile(0.5));
        // Its frames reached another engine: settle them, not the tally
        // checked against the fleet's decode-error count.
        let malformed = out.tally.malformed_sent;
        out.tally.settle(rep);
        direct.stop()?;
        tally.malformed_sent += malformed;
    }

    let mut gen = MixGen::new(exp, progs, o.seed, 0);
    let base = open_loop(addr, &mut gen, &mut gaps.clone(), secs, &mut || {})?;
    let base_p50 = base.tally.lat_ms.quantile(0.5);
    rep.layer(
        "gen.late_ms_p99",
        base.late_ms.quantile(0.99),
        base.late_ms.len(),
    );
    rep.layer("gen.backlog_max", base.backlog_max as f64, 1);
    rep.layer(
        "fpopb.bytes_per_req",
        base.bytes_sent as f64 / base.ops.len().max(1) as f64,
        base.ops.len(),
    );
    if let Some(direct_p50) = hop_base {
        let hop_us = (base_p50 - direct_p50) * 1e3;
        rep.layer("fleet.hop_us_p50", hop_us, base.tally.lat_ms.len());
        rep.layer("gap.router_hop_us", hop_us, base.tally.lat_ms.len());
        rep.note(format!(
            "gaps: router hop = fleet serve_ms_p50 {base_p50:.4} - direct serve_ms_p50 \
             {direct_p50:.4} ms, same seed and rate"
        ));
    }

    let (untraced_closed, base_rps) = closed_loop(addr, exp, progs, o.seed, 1, secs, &mut || {});

    trace::install(SERVE_RING);
    let engines = target.engines();
    let window = EngineWindow::open(&engines);
    let reg0 = registry();
    let mut spans = Vec::new();
    let mut dropped = 0u64;
    let mut last_drain = Instant::now();
    let mut drain = || {
        if last_drain.elapsed() >= Duration::from_millis(100) {
            let batch = trace::drain();
            if batch.len() >= SERVE_RING {
                dropped += 1;
            }
            spans.extend(batch);
            last_drain = Instant::now();
        }
    };
    // Fresh streams: a replayed stream would find its fresh lemmas cached.
    let mut gen = MixGen::new(exp, progs, o.seed, 5);
    let traced_open = open_loop(addr, &mut gen, gaps, secs, &mut drain)?;
    let (closed, traced_rps) = closed_loop(addr, exp, progs, o.seed, 3, secs, &mut drain);
    spans.extend(trace::drain());
    trace::set_active(false);

    // Open-loop latency here is too noisy to resolve a few percent;
    // saturation throughput, untraced vs traced, is not.
    rep.layer(
        "trace.overhead_frac",
        base_rps / traced_rps - 1.0,
        closed.ok as usize,
    );
    rep.layer("trace.spans_dropped", dropped as f64, 1);
    let workers = if fleet {
        SHARD_WORKERS
    } else {
        EngineConfig::default().workers
    };
    window.emit(&engines, workers, rep);
    let completed = window.completed(&engines);
    if fleet {
        let mean = completed.iter().sum::<f64>() / completed.len() as f64;
        let max = completed.iter().copied().fold(0.0, f64::max);
        rep.layer(
            "fleet.shard_imbalance",
            max / mean.max(1.0),
            completed.len(),
        );
    }

    let st: SpanStats = spans::analyze(&spans);
    let executed = st.execute_ns.len().max(1) as f64;
    let service: Vec<f64> = st.execute_ns.iter().map(|&n| n as f64 / 1e3).collect();
    rep.layer("engine.service_us_p50", median(&service), service.len());
    rep.layer(
        "engine.service_us_p99",
        crate::util::quantile(&service, 0.99),
        service.len(),
    );
    // Requests the engine executed (template hits never reach it).
    let executed_rtt = &traced_open.tally.executed_lat_ms;
    rep.layer(
        "wire.rtt_minus_service_us_p50",
        executed_rtt.quantile(0.5) * 1e3 - median(&service),
        executed_rtt.len(),
    );
    rep.layer(
        "elab.self_ms",
        st.self_ms(&spans::ELAB) / executed,
        service.len(),
    );
    rep.layer(
        "kernel.prove_self_ms",
        st.self_ms(&spans::KERNEL) / executed,
        service.len(),
    );
    rep.layer(
        "kernel.checks",
        st.count_of(&spans::KERNEL) as f64 / executed,
        service.len(),
    );

    let reg1 = registry();
    let frames = reg1.delta(&reg0, "engine_conn_binary_frames_total");
    rep.layer(
        "conn.flushes_per_frame",
        reg1.delta(&reg0, "engine_conn_write_flushes_total") / frames.max(1.0),
        frames as usize,
    );
    let mut phase = traced_open.tally;
    phase.merge(closed);
    let templates = phase.by_kind.get(&Kind::Template).copied().unwrap_or(0) as f64;
    rep.layer(
        "conn.template_fast_hit_frac",
        reg1.delta(&reg0, "engine_conn_template_fast_hits_total") / templates.max(1.0),
        templates as usize,
    );
    rep.layer(
        "fleet.unavailable",
        (base.tally.unavailable + phase.unavailable) as f64,
        1,
    );
    rep.layer(
        "fpopb.codec_ns_per_frame",
        codec_ns_per_frame(&base.ops, &phase.replies),
        base.ops.len() + phase.replies.len(),
    );
    rep.layer(
        "parse.us_per_kib",
        parse_us_per_kib(exp, progs, o.seed),
        progs.list.len(),
    );
    snapshot_and_store(files, fleet, rep)?;

    tally.merge(base.tally);
    tally.merge(untraced_closed);
    tally.merge(phase);
    tally.settle(rep);
    Ok(tally.malformed_sent)
}

/// Codec cost on the workload's own frames: decode each request frame
/// and re-encode it (`encode_request` + `encode_frame`), then decode each
/// captured reply (`decode_frame` + `decode_reply`). Median of 3 passes.
fn codec_ns_per_frame(ops: &[Op], replies: &[Frame]) -> f64 {
    let reply_bytes: Vec<Vec<u8>> = replies
        .iter()
        .map(|f| fpopb::encode_frame(f.ty, f.corr, &f.body))
        .collect();
    let frames = (ops.len() + replies.len()).max(1) as f64;
    let passes: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut sink = 0usize;
            for op in ops {
                if let Ok(DecodeStep::Ready { frame, .. }) = fpopb::decode_frame(&op.frame) {
                    let body = match (frame.ty, fpopb::decode_request(&frame.body, 1)) {
                        (FrameType::Submit, Ok((req, _))) => {
                            let mut b = vec![frame.body[0]];
                            fpopb::encode_request(&mut b, &req);
                            b
                        }
                        _ => frame.body,
                    };
                    sink += fpopb::encode_frame(frame.ty, frame.corr, &body).len();
                }
            }
            for bytes in &reply_bytes {
                if let Ok(DecodeStep::Ready { frame, .. }) = fpopb::decode_frame(bytes) {
                    sink += usize::from(fpopb::decode_reply(&frame).is_ok());
                }
            }
            std::hint::black_box(sink);
            t.elapsed().as_nanos() as f64 / frames
        })
        .collect();
    median(&passes)
}

/// `prepare_program` on the mix's sources (warm programs and fresh-lemma
/// programs), microseconds per KiB of source. Median of 5 passes.
fn parse_us_per_kib(exp: &Expected, progs: &Programs, seed: u64) -> f64 {
    let mut rng = Rng::new(seed).fork(50);
    let mut sources: Vec<String> = progs.list.iter().map(|p| p.source.clone()).collect();
    for (i, p) in progs.list.iter().enumerate() {
        sources.push(
            p.with_fresh_lemma(exp, &mut rng, &progs.tag, 5_000_000 + i, true)
                .0,
        );
    }
    let kib = sources.iter().map(String::len).sum::<usize>() as f64 / 1024.0;
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for s in &sources {
                std::hint::black_box(fpop::parse::prepare_program(s).is_ok());
            }
            t.elapsed().as_secs_f64() * 1e6 / kib
        })
        .collect();
    median(&passes)
}

/// Snapshot decode and store catch-up, timed on the pristine files.
fn snapshot_and_store(files: &Files, fleet: bool, rep: &mut Report) -> std::io::Result<()> {
    if files.snapshot.exists() {
        let mut entries = 0;
        let loads: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                let got = engine::load_snapshot(&files.snapshot);
                let d = ms(t.elapsed());
                entries = got.map(|e| e.len()).unwrap_or(0);
                d
            })
            .collect();
        rep.layer("snapshot.load_ms", median(&loads), loads.len());
        rep.layer("snapshot.entries", entries as f64, 1);
        rep.layer(
            "snapshot.bytes",
            std::fs::metadata(&files.snapshot)?.len() as f64,
            1,
        );
    }
    if fleet {
        let store = engine::SharedStore::open(&files.store)?;
        let mut loaded = 0;
        let runs: Vec<f64> = (0..3)
            .map(|_| {
                let session = fpop::Session::new();
                let t = Instant::now();
                loaded = store.catch_up(&session).loaded;
                ms(t.elapsed())
            })
            .collect();
        rep.layer("store.catchup_ms", median(&runs), runs.len());
        rep.layer("store.entries", loaded as f64, 1);
    }
    Ok(())
}
