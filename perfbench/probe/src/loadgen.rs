//! Open-loop load for `oca serve`: requests fall due on a fixed schedule
//! whatever the server does, spread over at most `--threads` threads with
//! one connection each.
//!
//! Latency runs from the moment a request fell due to the moment its
//! answer arrived, so a stall shows in every request queued behind it.
//! Only the generator's own delay (sleep overshoot, or a descheduled
//! client thread, while the connection was idle) is left out; it is
//! reported separately as the generator's lateness, and a run whose
//! generator fell behind is marked invalid.

use crate::json::Obj;
use crate::trace::Tracer;
use crate::Args;
use oca_graph::NodeId;
use oca_serve::{load_cover_path, CoverIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One `local` request per block of this many: 15 `query` to 1 `local`.
const MIX_BLOCK: usize = 16;
/// Generator lateness (p99) above which a run is invalid.
const LATE_LIMIT_MS: f64 = 1.0;
/// Median delay of the last tenth of the schedule above which the
/// backlog counts as growing.
const BACKLOG_LIMIT_MS: f64 = 1.0;
/// How long before a request's due time the generator stops sleeping.
const SPIN_WINDOW: Duration = Duration::from_millis(2);
/// Answer timeout per request.
const TIMEOUT: Duration = Duration::from_secs(2);
/// Unmeasured load before the fixed-rate run (s).
const WARMUP_S: f64 = 1.0;
/// Chunks of the fixed-rate run.
const CHUNKS: usize = 5;
/// Every this-many-th `query` answer is kept and checked.
const CHECK_EVERY: usize = 8;
/// Length of each rate-search step (s).
const SEARCH_STEP_S: f64 = 0.5;

/// The request stream for `seed`: uniformly random nodes, one `local` at
/// a random position in every block of 16. `true` marks a `local`.
pub fn request_stream(seed: u64, n: usize, count: usize) -> Vec<(bool, u32)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_10AD);
    let mut out = Vec::with_capacity(count);
    let mut local_at = 0;
    for i in 0..count {
        if i % MIX_BLOCK == 0 {
            local_at = rng.random_range(0..MIX_BLOCK);
        }
        out.push((i % MIX_BLOCK == local_at, rng.random_range(0..n) as u32));
    }
    out
}

#[derive(Clone, Copy, PartialEq)]
enum Outcome {
    Ok,
    TypedError,
    Refused,
    TimedOut,
    Io,
    NotSent,
}

#[derive(Clone, Copy)]
struct Sample {
    local: bool,
    outcome: Outcome,
    /// Due → answer, minus the generator's own lateness (ns).
    latency_ns: u64,
    /// Send time minus the later of due time and the connection's
    /// previous answer: the generator's own delay (ns).
    own_late_ns: u64,
    /// Send time minus due time (ns): what the backlog check reads.
    send_late_ns: u64,
    bytes: usize,
    /// Seconds since the run's origin, for trace spans.
    due_s: f64,
    done_s: f64,
}

struct Conn {
    addr: String,
    reader: Option<BufReader<TcpStream>>,
}

impl Conn {
    fn new(addr: &str) -> Conn {
        Conn {
            addr: addr.to_string(),
            reader: None,
        }
    }

    /// Sends one line and reads one answer line, reconnecting first if
    /// the previous request broke the connection.
    fn call(&mut self, line: &[u8], answer: &mut String) -> Outcome {
        if self.reader.is_none() {
            match TcpStream::connect(&self.addr) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(TIMEOUT));
                    self.reader = Some(BufReader::new(stream));
                }
                Err(_) => return Outcome::Io,
            }
        }
        let reader = self.reader.as_mut().expect("connected above");
        answer.clear();
        let result = reader
            .get_mut()
            .write_all(line)
            .and_then(|()| reader.read_line(answer));
        match result {
            Ok(0) => {
                self.reader = None;
                Outcome::Io
            }
            Ok(_) if answer.starts_with("{\"ok\":true") => Outcome::Ok,
            Ok(_) if answer.contains("\"kind\":\"overloaded\"") => Outcome::Refused,
            Ok(_) => Outcome::TypedError,
            Err(e) => {
                self.reader = None;
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) {
                    Outcome::TimedOut
                } else {
                    Outcome::Io
                }
            }
        }
    }
}

/// Waits for `due`: sleeps while it is more than [`SPIN_WINDOW`] away,
/// then spins, yielding the core to any runnable thread. On a virtual
/// machine a sleeping thread can wake milliseconds late once its core
/// has gone idle; spinning keeps the schedule.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        if due - now > SPIN_WINDOW {
            std::thread::sleep(due - now - SPIN_WINDOW);
        } else {
            std::thread::yield_now();
        }
    }
}

/// One load thread's samples and kept answers, by request index.
type ThreadResult = (Vec<(usize, Sample)>, Vec<(usize, String)>);

/// Runs `stream` at `rate` requests per second over `conns`. Returns one
/// sample per request, plus the answers of the requests `keep` selects.
fn run_schedule(
    conns: &mut [Conn],
    stream: &[(bool, u32)],
    rate: f64,
    keep: &(dyn Fn(usize) -> bool + Sync),
    origin: Instant,
) -> (Vec<Sample>, Vec<(usize, String)>) {
    let threads = conns.len();
    let lines: Vec<Vec<u8>> = stream
        .iter()
        .map(|&(local, v)| format!("{} {v}\n", if local { "local" } else { "query" }).into_bytes())
        .collect();
    let start = Instant::now() + Duration::from_millis(20);
    let interval = 1.0 / rate;
    // Requests not sent by then are abandoned (and fail the run).
    let give_up = start + Duration::from_secs_f64(stream.len() as f64 * interval + 2.0);
    let per_thread: Vec<ThreadResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(k, conn)| {
                let lines = &lines;
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut kept = Vec::new();
                    let mut answer = String::new();
                    let mut idle_since = start;
                    for i in (k..lines.len()).step_by(threads) {
                        let due = start + Duration::from_secs_f64(i as f64 * interval);
                        let local = stream[i].0;
                        let mut sample = Sample {
                            local,
                            outcome: Outcome::NotSent,
                            latency_ns: 0,
                            own_late_ns: 0,
                            send_late_ns: 0,
                            bytes: 0,
                            due_s: due.duration_since(origin).as_secs_f64(),
                            done_s: 0.0,
                        };
                        let now = Instant::now();
                        if now > give_up {
                            samples.push((i, sample));
                            continue;
                        }
                        wait_until(due);
                        let sent = Instant::now();
                        sample.outcome = conn.call(&lines[i], &mut answer);
                        let done = Instant::now();
                        let ready = due.max(idle_since);
                        sample.own_late_ns =
                            sent.saturating_duration_since(ready).as_nanos() as u64;
                        sample.send_late_ns = sent.saturating_duration_since(due).as_nanos() as u64;
                        sample.latency_ns = (done.duration_since(due).as_nanos() as u64)
                            .saturating_sub(sample.own_late_ns);
                        sample.bytes = answer.len();
                        sample.done_s = done.duration_since(origin).as_secs_f64();
                        idle_since = done;
                        if keep(i) {
                            kept.push((i, answer.clone()));
                        }
                        samples.push((i, sample));
                    }
                    (samples, kept)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut samples: Vec<Option<Sample>> = vec![None; stream.len()];
    let mut kept = Vec::new();
    for (thread_samples, thread_kept) in per_thread {
        for (i, s) in thread_samples {
            samples[i] = Some(s);
        }
        kept.extend(thread_kept);
    }
    (samples.into_iter().flatten().collect(), kept)
}

/// Nearest-rank quantile of `values` (sorted in place), 0 when empty.
fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// The summary of one scheduled run.
struct Summary {
    sent: usize,
    ok: usize,
    typed_error: usize,
    refused: usize,
    timed_out: usize,
    io_error: usize,
    not_sent: usize,
    query_samples: usize,
    local_samples: usize,
    query_p50_us: f64,
    query_p99_us: f64,
    local_p50_us: f64,
    local_p99_us: f64,
    late_p99_ms: f64,
    late_max_ms: f64,
    backlog_ms: f64,
    query_bytes: f64,
}

impl Summary {
    fn of(samples: &[Sample]) -> Summary {
        let count = |o: Outcome| samples.iter().filter(|s| s.outcome == o).count();
        let latencies = |local: bool| -> Vec<f64> {
            samples
                .iter()
                .filter(|s| s.local == local && s.outcome == Outcome::Ok)
                .map(|s| s.latency_ns as f64 / 1e3)
                .collect()
        };
        let mut query = latencies(false);
        let mut local = latencies(true);
        let mut late: Vec<f64> = samples.iter().map(|s| s.own_late_ns as f64 / 1e6).collect();
        let tail = samples.len() / 10;
        let mut last: Vec<f64> = samples[samples.len() - tail..]
            .iter()
            .map(|s| s.send_late_ns as f64 / 1e6)
            .collect();
        let query_ok: Vec<&Sample> = samples
            .iter()
            .filter(|s| !s.local && s.outcome == Outcome::Ok)
            .collect();
        Summary {
            sent: samples.len() - count(Outcome::NotSent),
            ok: count(Outcome::Ok),
            typed_error: count(Outcome::TypedError),
            refused: count(Outcome::Refused),
            timed_out: count(Outcome::TimedOut),
            io_error: count(Outcome::Io),
            not_sent: count(Outcome::NotSent),
            query_samples: query.len(),
            local_samples: local.len(),
            query_p50_us: quantile(&mut query, 0.50),
            query_p99_us: quantile(&mut query, 0.99),
            local_p50_us: quantile(&mut local, 0.50),
            local_p99_us: quantile(&mut local, 0.99),
            late_p99_ms: quantile(&mut late, 0.99),
            late_max_ms: quantile(&mut late, 1.0),
            backlog_ms: quantile(&mut last, 0.50),
            query_bytes: query_ok.iter().map(|s| s.bytes as f64).sum::<f64>()
                / query_ok.len().max(1) as f64,
        }
    }

    fn failures(&self) -> usize {
        self.typed_error + self.refused + self.timed_out + self.io_error + self.not_sent
    }

    fn generator_valid(&self) -> bool {
        self.late_p99_ms <= LATE_LIMIT_MS
    }

    /// Whether the rate held: no failures, query p99 within `limit_us`
    /// and no growing backlog. The generator's own lateness is left out:
    /// near saturation the client threads wait for the cores the server
    /// holds, and the backlog check already catches a schedule that
    /// keeps slipping.
    fn holds(&self, limit_us: f64) -> bool {
        self.failures() == 0 && self.query_p99_us <= limit_us && self.backlog_ms <= BACKLOG_LIMIT_MS
    }
}

/// The member lists of a `query` answer, each sorted, in answer order.
fn answer_members(answer: &str) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut rest = answer;
    while let Some(at) = rest.find("\"members\":[") {
        rest = &rest[at + "\"members\":[".len()..];
        let end = rest.find(']').unwrap_or(rest.len());
        let mut ids: Vec<u32> = rest[..end]
            .split(',')
            .filter_map(|t| t.trim().parse().ok())
            .collect();
        ids.sort_unstable();
        out.push(ids);
        rest = &rest[end..];
    }
    out
}

pub fn run(args: &Args) -> Result<String, String> {
    let addr = args.req("addr")?.to_string();
    let n: usize = args.num("nodes")?;
    let rate: f64 = args.num("rate")?;
    let seconds: f64 = args.num("seconds")?;
    let threads: usize = args.num("threads")?;
    let seed: u64 = args.num("seed")?;
    let limit_us: f64 = args.num("p99-limit-us")?;
    let cover_path = args.req("cover")?;
    if n == 0 || threads == 0 || rate <= 0.0 {
        return Err("--nodes, --threads and --rate must be positive".to_string());
    }
    let mut conns: Vec<Conn> = (0..threads).map(|_| Conn::new(&addr)).collect();
    let origin = Instant::now();

    // Warm-up at the fixed rate, not measured: first touches of the
    // mapped graph and fresh connections.
    let warmup = request_stream(!seed, n, (rate * WARMUP_S).ceil() as usize);
    run_schedule(&mut conns, &warmup, rate, &|_| false, origin);
    // The fixed-rate run is cut into CHUNKS schedules of equal length;
    // the percentiles reported are the medians of the chunks'
    // percentiles, so one stall of the host spoils one chunk, not the run.
    let stream = request_stream(seed, n, (rate * seconds).ceil() as usize);
    let per_chunk = stream.len().div_ceil(CHUNKS);
    let (mut samples, mut kept, mut parts) = (Vec::new(), Vec::new(), Vec::new());
    for (c, part) in stream.chunks(per_chunk).enumerate() {
        let base = c * per_chunk;
        let keep = |i: usize| part[i].0 || (base + i).is_multiple_of(CHECK_EVERY);
        let (chunk_samples, chunk_kept) = run_schedule(&mut conns, part, rate, &keep, origin);
        parts.push(Summary::of(&chunk_samples));
        samples.extend(chunk_samples);
        kept.extend(chunk_kept.into_iter().map(|(i, answer)| (base + i, answer)));
    }
    let fixed = Summary::of(&samples);
    let chunk_median = |metric: fn(&Summary) -> f64| {
        let mut values: Vec<f64> = parts.iter().map(metric).collect();
        quantile(&mut values, 0.5)
    };

    // Answer checks, after the timed run: every kept `local` answer must
    // contain its node, and every kept `query` answer must list exactly
    // the communities a fresh index over the warm-start cover gives.
    let (mut query_checks, mut query_bad, mut local_checks, mut local_bad) = (0, 0, 0, 0);
    let (cover, _) =
        load_cover_path(cover_path, Some(n)).map_err(|e| format!("loading {cover_path}: {e}"))?;
    let index = CoverIndex::build(&cover);
    for (i, answer) in &kept {
        if !answer.starts_with("{\"ok\":true") {
            continue; // already counted as a failure
        }
        let (local, v) = stream[*i];
        let members = answer_members(answer);
        if local {
            local_checks += 1;
            if members.first().is_none_or(|m| m.binary_search(&v).is_err()) {
                local_bad += 1;
            }
        } else {
            query_checks += 1;
            let want: Vec<Vec<u32>> = index
                .communities_of(NodeId(v))
                .iter()
                .map(|&ci| {
                    let mut ids: Vec<u32> = cover.communities()[ci as usize]
                        .members()
                        .iter()
                        .map(|m| m.raw())
                        .collect();
                    ids.sort_unstable();
                    ids
                })
                .collect();
            let mut got = members;
            let mut want = want;
            got.sort();
            want.sort();
            if got != want {
                query_bad += 1;
            }
        }
    }

    // The maximum rate: double from the fixed rate while the rate holds,
    // then bisect between the last rate that held and the first that
    // did not.
    let mut steps = String::new();
    let mut max_rate = 0.0;
    if args.flag("search") {
        let mut trial = 0u64;
        let mut probe = |r: f64, conns: &mut [Conn]| -> bool {
            trial += 1;
            let stream = request_stream(
                seed.wrapping_add(trial),
                n,
                (r * SEARCH_STEP_S).ceil() as usize,
            );
            let (samples, _) = run_schedule(conns, &stream, r, &|_| false, origin);
            let s = Summary::of(&samples);
            let held = s.holds(limit_us);
            steps.push_str(&format!(
                "{}{r:.0}:{}:p99={:.0}us,late={:.2}ms,backlog={:.2}ms,failed={}",
                if steps.is_empty() { "" } else { " " },
                if held { "ok" } else { "no" },
                s.query_p99_us,
                s.late_p99_ms,
                s.backlog_ms,
                s.failures()
            ));
            held
        };
        let (mut lo, mut hi) = (0.0, rate);
        while probe(hi, &mut conns) {
            lo = hi;
            hi *= 2.0;
            if hi > 1e6 {
                break;
            }
        }
        for _ in 0..4 {
            let mid = (lo + hi) / 2.0;
            if probe(mid, &mut conns) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        max_rate = lo;
    }

    if let Some(path) = args.opt("spans") {
        let run = args.req("run")?;
        let mut tr = Tracer::new();
        for (i, s) in samples.iter().enumerate() {
            let op = if s.local {
                "client.local"
            } else {
                "client.query"
            };
            tr.record(&format!("{run}/{i}"), op, None, s.due_s, s.done_s);
        }
        tr.write(path)?;
    }

    let mut o = Obj::new();
    o.num("rate", rate)
        .num("seconds", seconds)
        .int("threads", threads as u64)
        .int("attempted", stream.len() as u64)
        .int("sent", fixed.sent as u64)
        .int("ok", fixed.ok as u64)
        .int("typed_error", fixed.typed_error as u64)
        .int("refused", fixed.refused as u64)
        .int("timed_out", fixed.timed_out as u64)
        .int("io_error", fixed.io_error as u64)
        .int("not_sent", fixed.not_sent as u64)
        .int("query_samples", fixed.query_samples as u64)
        .int("local_samples", fixed.local_samples as u64)
        .int("chunks", parts.len() as u64)
        .num("query_p50_us", chunk_median(|s| s.query_p50_us))
        .num("query_p99_us", chunk_median(|s| s.query_p99_us))
        .num("local_p50_us", chunk_median(|s| s.local_p50_us))
        .num("local_p99_us", chunk_median(|s| s.local_p99_us))
        .num("query_p99_whole_run_us", fixed.query_p99_us)
        .num("local_p99_whole_run_us", fixed.local_p99_us)
        .num("late_p99_ms", fixed.late_p99_ms)
        .num("late_max_ms", fixed.late_max_ms)
        .num("backlog_ms", chunk_median(|s| s.backlog_ms))
        .bool(
            "valid",
            fixed.generator_valid() && chunk_median(|s| s.backlog_ms) <= BACKLOG_LIMIT_MS,
        )
        .num("query_bytes", fixed.query_bytes)
        .int("query_checks", query_checks)
        .int("query_check_failures", query_bad)
        .int("local_checks", local_checks)
        .int("local_check_failures", local_bad)
        .num("max_rate_rps", max_rate)
        .str("search_steps", &steps);
    Ok(o.render())
}
