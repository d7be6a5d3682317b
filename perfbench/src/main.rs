//! Whole-round benchmark of the multi-process XRD deployment.
//!
//! One run launches the workload's manifest with `launch_manifest` (a
//! real `xrd-netd` process per mix hop and mailbox shard, loopback
//! only), connects a coordinator, discards one warm-up round, and then
//! drives closed-loop rounds through `RemoteDeployment::run_round` for
//! `--seconds`: round r+1 starts when round r returns.  Every delivered
//! mailbox entry is checked.  Load comes from this one process and its
//! one load thread; the benchmark sets no transport, client-driver or
//! worker knob of the deployment.
//!
//! `--trace 0` prints the end-to-end metrics.  `--trace 1` prints the
//! per-layer metrics instead, measured from outside the program: timed
//! calls into public functions, the coordinator's own `xrd-obs` spans,
//! every daemon's registry scraped over `StatsRequest`, and `/proc`.
//! Traced and plain rounds alternate in a traced run, so the tracing
//! overhead is a paired difference within one run.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.  `attempted` counts
//! the mailbox entries the rounds should have delivered to online users
//! and `failed` those missing, duplicated or wrong (plus one per
//! protocol anomaly); the process exits non-zero when any failed.
//!
//! Usage: `xrd-perfbench --workload steady|fanout|churn --seed N
//! --seconds S --trace 0|1 --netd PATH --out DIR [--rounds N] [--toy]
//! [--commit ID] [--clk-tck HZ]`.  `perfbench/run.py` builds the
//! daemon and this binary and supplies the paths.

mod probe;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use xrd_core::backend::{collect_submissions, CoverStore};
use xrd_core::deployment::RoundReport;
use xrd_mixnet::testutil::malicious_submission;
use xrd_net::{launch_manifest, RemoteDeployment};
use xrd_topology::ChainId;

use probe::{Daemons, Delta, ProcStat, Procs, Role, Scrape};
use trace::Tracer;
use workload::{Population, Shape, Tally};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    netd: PathBuf,
    out: PathBuf,
    /// Measure exactly this many rounds instead of `--seconds`.
    rounds: Option<u64>,
    toy: bool,
    commit: String,
    clk_tck: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut toy = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--toy" {
            toy = true;
            continue;
        }
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let mut take = |name: &str| {
        flags
            .remove(name)
            .ok_or_else(|| format!("--{name} is required"))
    };
    let num = |name: &str, v: String| v.parse::<f64>().map_err(|e| format!("--{name} `{v}`: {e}"));
    let args = Args {
        workload: take("workload")?,
        seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: num("seconds", take("seconds")?)?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
        netd: take("netd")?.into(),
        out: take("out")?.into(),
        rounds: take("rounds")
            .ok()
            .map(|v| v.parse().map_err(|e| format!("--rounds: {e}")))
            .transpose()?,
        toy,
        commit: take("commit").unwrap_or_else(|_| "unknown".into()),
        clk_tck: take("clk-tck").map_or(Ok(100.0), |v| num("clk-tck", v))?,
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("xrd-perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("xrd-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

fn cpu_total(stats: &[(Role, ProcStat)]) -> f64 {
    stats.iter().map(|(_, s)| s.cpu_ms).sum()
}

fn cpu_of(stats: &[(Role, ProcStat)], role: Role) -> ProcStat {
    stats
        .iter()
        .find(|(r, _)| *r == role)
        .map_or(ProcStat::default(), |(_, s)| *s)
}

/// One round as played: what it delivered, what it cost, and whether
/// it was right.
struct Played {
    round: u64,
    wall: Duration,
    tally: Tally,
    report: Option<RoundReport>,
    cpu_before: Vec<(Role, ProcStat)>,
    cpu_after: Vec<(Role, ProcStat)>,
}

/// Set up the round's inputs: who is online, the tagged chats, and (on
/// `churn`) the submissions that fail at the last layer.  Returns the
/// number injected.
fn prepare(
    deployment: &mut RemoteDeployment,
    pop: &mut Population,
    rng: &mut StdRng,
    shape: &Shape,
) -> usize {
    let round = deployment.round();
    pop.prepare(round);
    let n_chains = deployment.topology().n_chains();
    let bad_layer = deployment.topology().chain_len() - 1;
    for c in 0..n_chains {
        for _ in 0..shape.bad_per_chain {
            let keys = &deployment.chain_keys()[c];
            let bad = malicious_submission(rng, keys, round, bad_layer);
            deployment.inject_submission(ChainId(c as u32), bad);
        }
    }
    n_chains * shape.bad_per_chain
}

/// Run one prepared round, timed, and check it.
fn play(
    deployment: &mut RemoteDeployment,
    pop: &mut Population,
    rng: &mut StdRng,
    procs: &Procs,
    injected: usize,
) -> Played {
    let round = deployment.round();
    let cpu_before = procs.read();
    let start = Instant::now();
    let result = deployment.run_round(rng, &mut pop.users);
    let wall = start.elapsed();
    let cpu_after = procs.read();
    let (tally, report) = match result {
        Ok((report, fetched)) => (pop.check(round, &report, &fetched, injected), Some(report)),
        Err(e) => {
            eprintln!("round {round} failed: {e}");
            let expected = pop.expected_all();
            let tally = Tally {
                expected,
                failed: expected.max(1),
                ..Tally::default()
            };
            (tally, None)
        }
    };
    Played {
        round,
        wall,
        tally,
        report,
        cpu_before,
        cpu_after,
    }
}

/// Per-layer sums over the traced rounds.
#[derive(Default)]
struct Layers {
    rounds: u64,
    sums: BTreeMap<&'static str, f64>,
}

impl Layers {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_default() += v;
    }

    fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Mean per traced round.
    fn mean(&self, name: &str) -> f64 {
        self.sum(name) / self.rounds.max(1) as f64
    }

    fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.sum(den);
        if d == 0.0 {
            0.0
        } else {
            self.sum(num) / d
        }
    }
}

/// Durations (ms) of the coordinator's spans of `round` whose name
/// satisfies `pred`.
fn span_ms<'a>(
    events: &'a [xrd_obs::SpanEvent],
    round: u64,
    pred: impl Fn(&str) -> bool + 'a,
) -> impl Iterator<Item = f64> + 'a {
    events
        .iter()
        .filter(move |e| e.round == round && pred(&e.name))
        .map(|e| e.dur_us as f64 / 1000.0)
}

/// The coordinator-side counters a traced round diffs (this process's
/// own registry).
const COORD_COUNTERS: [&str; 3] = ["chain.mix_retries", "chain.reconnects", "dispute.opened"];

fn coord_counters() -> [u64; 3] {
    COORD_COUNTERS.map(|name| xrd_obs::counter(name).get())
}

/// Record one traced round's layer numbers.
fn record_layers(
    layers: &mut Layers,
    played: &Played,
    seal: (f64, u64),
    events: &[xrd_obs::SpanEvent],
    delta: &Delta<'_>,
    coord: ([u64; 3], [u64; 3]),
    run_span: &trace::Span,
) {
    let round = played.round;
    layers.rounds += 1;
    // Where the unspanned time sits: before the submission window opens
    // (in-round client sealing) and after the fetch phase ends (key
    // rotation), from this benchmark's `run_round` span and the
    // coordinator's phase spans on the same clock.
    let find = |name: &str| events.iter().find(|e| e.round == round && e.name == name);
    if let Some(submit) = find("round.submit_window") {
        let pre = submit.start_us.saturating_sub(run_span.start_us);
        layers.add("pre_submit", pre as f64 / 1000.0);
    }
    if let Some(fetch) = find("round.fetch") {
        let post = run_span
            .end_us
            .saturating_sub(fetch.start_us + fetch.dur_us);
        layers.add("post_fetch", post as f64 / 1000.0);
    }
    let phase = |name: &'static str| span_ms(events, round, move |n| n == name).sum::<f64>();
    layers.add("wall", ms(played.wall));
    layers.add("seal", seal.0);
    layers.add("sealed", seal.1 as f64);
    for (key, span) in [
        ("submit", "round.submit_window"),
        ("mix", "round.mix"),
        ("audit", "round.audit"),
        ("reveal", "round.reveal"),
        ("deliver", "round.deliver"),
        ("fetch", "round.fetch"),
    ] {
        layers.add(key, phase(span));
    }
    for d in span_ms(events, round, |n| n.starts_with("coord.hop")) {
        layers.add("hop_rtt", d);
        layers.add("hop_rtt_n", 1.0);
    }
    for d in span_ms(events, round, |n| n == "coord.verify_chain") {
        layers.add("verify", d);
        layers.add("verify_n", 1.0);
    }
    let (c0, c1) = coord;
    layers.add("retries", (c1[0] - c0[0] + c1[1] - c0[1]) as f64);
    layers.add("dispute", (c1[2] - c0[2]) as f64);

    layers.add("submit_frames", delta.counter("frames.in.Submit") as f64);
    layers.add(
        "submit_rejected",
        delta.counter_prefix("submit.rejected") as f64,
    );
    let us_sum = |name| delta.hist(name).sum as f64;
    layers.add("kernel_us", us_sum("hop.decrypt_blind_us"));
    layers.add("hop_entries", delta.counter("hop.entries") as f64);
    layers.add("shuffle_prove", us_sum("hop.shuffle_prove_us") / 1000.0);
    layers.add("wait_chunks", us_sum("hop.wait_chunks_us") / 1000.0);
    layers.add("encode", us_sum("hop.encode_us") / 1000.0);
    layers.add("pool_busy", us_sum("pool.job_run_us") / 1000.0);
    layers.add("pool_wait", us_sum("pool.job_wait_us") / 1000.0);
    layers.add("pool_wait_p99", delta.hist("pool.job_wait_us").p99() as f64);
    layers.add("frames", delta.counter("reactor.frames_in") as f64);
    layers.add("bytes", delta.traffic_bytes() as f64);
    layers.add("wakes", delta.counter("reactor.wakes") as f64);
    layers.add("write_stalls", delta.counter("reactor.write_stalls") as f64);
    layers.add("deferred", delta.counter("reactor.deferred_jobs") as f64);
    layers.add("whole", delta.counter("frames.in.MixBatch") as f64);
    layers.add("chunks", delta.counter("frames.in.MixBatchChunk") as f64);
    let blame_frames = delta.counter("frames.in.Accuse") + delta.counter("frames.in.RevealSlot");
    layers.add("blame_frames", blame_frames as f64);
    layers.add(
        "decrypt_failures",
        delta.counter("hop.err.decrypt_failures") as f64,
    );
    layers.add("puts", delta.counter("mailbox.puts") as f64);
    layers.add("pages", delta.counter("mailbox.pages") as f64);
    layers.add("fetched", played.tally.fetched as f64);
    layers.add(
        "duplicates",
        delta.counter("mailbox.deliver.duplicates") as f64,
    );
    layers.add("journal", delta.counter("daemon.journal.appends") as f64);
    layers.add(
        "rotations",
        delta.counter("mailbox.segment_rotations") as f64,
    );
    if let Some(report) = &played.report {
        layers.add(
            "removed",
            report.malicious_by_chain.values().sum::<usize>() as f64,
        );
    }
    for (key, role) in [
        ("cpu_coord", Role::Coord),
        ("cpu_mix", Role::Mix),
        ("cpu_mailbox", Role::Mailbox),
    ] {
        let d = cpu_of(&played.cpu_after, role).cpu_ms - cpu_of(&played.cpu_before, role).cpu_ms;
        layers.add(key, d);
    }
}

/// Host and build provenance, one JSON object.
fn provenance(args: &Args, shape: &Shape, mix_path: &str, steal_share: f64) -> String {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"commit\":\"{}\",\"nproc\":{nproc},\"cpu\":\"{}\",\
         \"kernel\":\"{}\",\"network\":\"loopback\",\"params\":\"{}\",\"mix_path\":\"{mix_path}\",\
         \"steal_share\":{steal_share},\"trace\":{}}}",
        shape.name,
        args.seed,
        esc(&args.commit),
        esc(&cpu),
        esc(read("/proc/sys/kernel/osrelease").trim()),
        shape.describe(),
        u8::from(args.trace),
    )
}

/// Which mix transport the chains actually took, from the daemons'
/// frame-tag counters.
fn mix_path(delta: &Delta<'_>) -> &'static str {
    let whole = delta.counter("frames.in.MixBatch") > 0;
    let streamed = delta.counter("frames.in.MixBatchChunk") > 0;
    let forwarded = delta.counter("frames.in.MixForward") > 0;
    match (whole, streamed, forwarded) {
        (_, _, true) => "forwarded",
        (true, true, false) => "whole+streamed",
        (true, false, false) => "whole",
        (false, true, false) => "streamed",
        (false, false, false) => "none",
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let shape = Shape::named(&args.workload, args.toy)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let mut rng = StdRng::seed_from_u64(args.seed);
    let manifest = shape.manifest(args.seed);
    let mut tracer = Tracer::default();

    // Set-up, several times: launch → connected coordinator (which
    // includes the round-1 rotation prepare).  The last cluster stays.
    let mut setup_s = Vec::new();
    let mut launch_ms = Vec::new();
    let mut connect_ms = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let span = tracer.open("launch", None, None);
        let mut cluster = launch_manifest(&mut rng, &manifest, &args.netd)
            .map_err(|e| format!("launch_manifest: {e}"))?;
        tracer.close(span);
        let launched = start.elapsed();
        let span = tracer.open("connect", None, None);
        let deployment = cluster.connect().map_err(|e| format!("connect: {e}"))?;
        tracer.close(span);
        let total = start.elapsed();
        setup_s.push(total.as_secs_f64());
        launch_ms.push(ms(launched));
        connect_ms.push(ms(total - launched));
        if rep + 1 < SETUP_REPS {
            drop(deployment);
            cluster.shutdown();
        } else {
            kept = Some((cluster, deployment));
        }
    }
    let (mut cluster, mut deployment) = kept.expect("SETUP_REPS > 0");
    let daemons = Daemons::of(&cluster);
    let procs = Procs::discover(&cluster, args.clk_tck)?;
    let ell = deployment.topology().ell();
    let mut pop = Population::new(&mut rng, &shape, ell);

    let mut ledger = Tally::default();

    // Warm-up: checked, not measured.
    let injected = prepare(&mut deployment, &mut pop, &mut rng, &shape);
    let warm = play(&mut deployment, &mut pop, &mut rng, &procs, injected);
    ledger.absorb(&warm.tally);
    let mut broken = warm.report.is_none();
    // The traced run's seal probe: its own RNG and cover store.
    let mut probe_rng = StdRng::seed_from_u64(args.seed ^ 0x5ea1_5ea1);
    let mut probe_covers = CoverStore::new();
    if args.trace {
        tracer.drain_coordinator();
    }

    let scrape = |tracer: &mut Tracer,
                  round: Option<u64>,
                  parent: Option<usize>|
     -> Result<Scrape, String> {
        tracer
            .time("scrape", parent, round, || daemons.scrape())
            .map_err(|e| format!("scrape: {e}"))
    };
    let first = scrape(&mut tracer, None, None)?;

    let mut walls: Vec<f64> = Vec::new();
    let mut traced_walls: Vec<f64> = Vec::new();
    let mut plain_walls: Vec<f64> = Vec::new();
    let mut delivered = 0u64;
    let mut cpu_ms = 0.0;
    let mut layers = Layers::default();
    let started = Instant::now();
    let host_before = probe::host_ticks();
    let mut played_rounds = 0u64;
    while !broken
        && match args.rounds {
            Some(n) => played_rounds < n,
            None => started.elapsed().as_secs_f64() < args.seconds,
        }
    {
        let traced = args.trace && played_rounds.is_multiple_of(2);
        let round = deployment.round();
        let injected = prepare(&mut deployment, &mut pop, &mut rng, &shape);
        let bench = traced.then(|| tracer.open("bench.round", None, Some(round)));

        // The seal probe re-runs the round's client sealing on the same
        // inputs (users, keys, round) with its own RNG and cover store.
        let seal = if args.trace {
            let span = tracer.open("seal_probe", bench, Some(round));
            let start = Instant::now();
            let subs = collect_submissions(
                &mut probe_rng,
                deployment.topology(),
                deployment.chain_keys(),
                deployment.next_chain_keys(),
                round,
                &mut probe_covers,
                &pop.users,
            );
            let seal_ms = ms(start.elapsed());
            std::hint::black_box(subs);
            tracer.close(span);
            // Online users seal ℓ fresh submissions and ℓ covers.
            (seal_ms, (pop.online() * 2 * ell) as u64)
        } else {
            (0.0, 0)
        };

        let before = if traced {
            Some(scrape(&mut tracer, Some(round), bench)?)
        } else {
            None
        };
        let coord_before = coord_counters();
        let run_span = traced.then(|| tracer.open("run_round", bench, Some(round)));
        let played = play(&mut deployment, &mut pop, &mut rng, &procs, injected);
        if let Some(span) = run_span {
            tracer.close(span);
        }
        let coord_after = coord_counters();
        let after = if traced {
            Some(scrape(&mut tracer, Some(round), bench)?)
        } else {
            None
        };
        ledger.absorb(&played.tally);
        broken = played.report.is_none();

        if args.trace {
            let events = tracer.drain_coordinator();
            if let (Some(run_span), Some(before), Some(after)) = (run_span, &before, &after) {
                tracer.adopt(run_span, &events);
                let delta = Delta { before, after };
                record_layers(
                    &mut layers,
                    &played,
                    seal,
                    &events,
                    &delta,
                    (coord_before, coord_after),
                    &tracer.spans[run_span],
                );
            }
        }
        if let Some(span) = bench {
            tracer.close(span);
        }

        let wall = ms(played.wall);
        walls.push(wall);
        if traced {
            traced_walls.push(wall);
        } else {
            plain_walls.push(wall);
        }
        if let Some(report) = &played.report {
            delivered += report.delivered as u64;
        }
        cpu_ms += cpu_total(&played.cpu_after) - cpu_total(&played.cpu_before);
        played_rounds += 1;
    }

    let host_after = probe::host_ticks();
    let last = scrape(&mut tracer, None, None)?;
    let whole_run = Delta {
        before: &first,
        after: &last,
    };
    let path = mix_path(&whole_run);
    let wire_bytes = whole_run.traffic_bytes();
    let peak = procs.read();

    drop(deployment);
    let killed = cluster.shutdown();
    if killed > 0 {
        eprintln!("{killed} daemon(s) ignored Shutdown and were killed");
    }

    let host_ticks = host_after.1.saturating_sub(host_before.1).max(1);
    let steal_share = host_after.0.saturating_sub(host_before.0) as f64 / host_ticks as f64;
    let prov = provenance(args, &shape, path, steal_share);
    println!("provenance {prov}");
    let attempted = ledger.expected.max(1);
    let failed = ledger.failed;
    let fail_frac = failed as f64 / attempted as f64;
    let per_msg = |v: f64| {
        if delivered == 0 {
            0.0
        } else {
            v / delivered as f64
        }
    };
    let summed_s: f64 = walls.iter().sum::<f64>() / 1000.0;
    let mb = |kb: u64| kb as f64 / 1024.0;

    let metrics: Vec<(&str, f64, &str)> = if !args.trace {
        vec![
            ("round_p50_ms", median(&walls), "ms"),
            (
                "msgs_per_s",
                if summed_s > 0.0 {
                    delivered as f64 / summed_s
                } else {
                    0.0
                },
                "msg/s",
            ),
            ("cpu_ms_per_msg", per_msg(cpu_ms), "ms"),
            ("wire_bytes_per_msg", per_msg(wire_bytes as f64), "B"),
            (
                "rss_peak_mb",
                mb(peak.iter().map(|(_, s)| s.hwm_kb).sum()),
                "MiB",
            ),
            ("setup_s", median(&setup_s), "s"),
            ("delivered_frac", 1.0 - fail_frac, "ratio"),
        ]
    } else {
        let l = &layers;
        let wall = l.mean("wall");
        let attributed: f64 = [
            "seal", "submit", "mix", "audit", "reveal", "deliver", "fetch",
        ]
        .iter()
        .map(|k| l.mean(k))
        .sum();
        let residual = wall - attributed;
        let overhead = if plain_walls.is_empty() {
            0.0
        } else {
            median(&traced_walls) - median(&plain_walls)
        };
        println!(
            "attribution: wall {wall:.1} ms = seal {:.1} + submit {:.1} + mix {:.1} + audit {:.1} \
             + reveal {:.1} + deliver {:.1} + fetch {:.1} + residual {residual:.1} \
             (residual share {:.3}); unspanned time before the submission window {:.1} ms, \
             after fetch {:.1} ms; tracing overhead {overhead:.1} ms (p50 of {} traced vs {} plain rounds)",
            l.mean("seal"),
            l.mean("submit"),
            l.mean("mix"),
            l.mean("audit"),
            l.mean("reveal"),
            l.mean("deliver"),
            l.mean("fetch"),
            if wall > 0.0 { residual / wall } else { 0.0 },
            l.mean("pre_submit"),
            l.mean("post_fetch"),
            traced_walls.len(),
            plain_walls.len(),
        );
        let role_mb = |role| mb(cpu_of(&peak, role).hwm_kb);
        let submit_s = l.sum("submit") / 1000.0;
        vec![
            ("client.seal_ms", l.mean("seal"), "ms"),
            (
                "client.seal_us_per_sub",
                1000.0 * l.ratio("seal", "sealed"),
                "us",
            ),
            ("submit.window_ms", l.mean("submit"), "ms"),
            (
                "submit.verified_per_s",
                if submit_s > 0.0 {
                    l.sum("submit_frames") / submit_s
                } else {
                    0.0
                },
                "1/s",
            ),
            ("submit.rejected", l.mean("submit_rejected"), "count"),
            ("mix.phase_ms", l.mean("mix"), "ms"),
            ("mix.hop_rtt_ms", l.ratio("hop_rtt", "hop_rtt_n"), "ms"),
            ("mix.verify_ms", l.ratio("verify", "verify_n"), "ms"),
            ("mix.retries", l.mean("retries"), "count"),
            ("mix.whole_batches", l.mean("whole"), "count"),
            ("mix.stream_chunks", l.mean("chunks"), "count"),
            (
                "hop.kernel_us_per_entry",
                l.ratio("kernel_us", "hop_entries"),
                "us",
            ),
            ("hop.shuffle_prove_ms", l.mean("shuffle_prove"), "ms"),
            ("hop.wait_chunks_ms", l.mean("wait_chunks"), "ms"),
            ("hop.encode_ms", l.mean("encode"), "ms"),
            ("hop.decrypt_failures", l.mean("decrypt_failures"), "count"),
            ("pool.busy_ms", l.mean("pool_busy"), "ms"),
            ("pool.wait_ms", l.mean("pool_wait"), "ms"),
            ("pool.wait_p99_us", l.mean("pool_wait_p99"), "us"),
            ("reactor.frames_per_round", l.mean("frames"), "count"),
            ("reactor.bytes_per_round", l.mean("bytes"), "B"),
            (
                "reactor.wakes_per_frame",
                l.ratio("wakes", "frames"),
                "ratio",
            ),
            ("reactor.write_stalls", l.mean("write_stalls"), "count"),
            ("reactor.deferred_jobs", l.mean("deferred"), "count"),
            ("audit.ms", l.mean("audit"), "ms"),
            ("reveal.ms", l.mean("reveal"), "ms"),
            ("blame.removed", l.mean("removed"), "count"),
            ("blame.frames", l.mean("blame_frames"), "count"),
            ("dispute.opened", l.mean("dispute"), "count"),
            ("mailbox.deliver_ms", l.mean("deliver"), "ms"),
            ("mailbox.fetch_ms", l.mean("fetch"), "ms"),
            ("mailbox.puts", l.mean("puts"), "count"),
            ("mailbox.pages", l.mean("pages"), "count"),
            (
                "mailbox.entries_per_page",
                l.ratio("fetched", "pages"),
                "ratio",
            ),
            ("mailbox.deliver_duplicates", l.mean("duplicates"), "count"),
            ("mailbox.segment_rotations", l.mean("rotations"), "count"),
            ("durable.journal_appends", l.mean("journal"), "count"),
            ("cpu.coord_ms", l.mean("cpu_coord"), "ms"),
            ("cpu.mix_ms", l.mean("cpu_mix"), "ms"),
            ("cpu.mailbox_ms", l.mean("cpu_mailbox"), "ms"),
            ("rss.coord_mb", role_mb(Role::Coord), "MiB"),
            ("rss.mix_mb", role_mb(Role::Mix), "MiB"),
            ("rss.mailbox_mb", role_mb(Role::Mailbox), "MiB"),
            ("round.wall_ms", wall, "ms"),
            ("round.residual_ms", residual, "ms"),
            ("round.pre_submit_ms", l.mean("pre_submit"), "ms"),
            ("round.post_fetch_ms", l.mean("post_fetch"), "ms"),
            (
                "round.residual_share",
                if wall > 0.0 { residual / wall } else { 0.0 },
                "ratio",
            ),
            ("trace.overhead_ms", overhead, "ms"),
            ("trace.spans_lost", tracer.lost as f64, "count"),
            ("setup.launch_ms", median(&launch_ms), "ms"),
            ("setup.connect_ms", median(&connect_ms), "ms"),
            ("fail_frac", fail_frac, "ratio"),
        ]
    };

    if args.trace {
        std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
        let file = args
            .out
            .join(format!("trace-{}-seed{}.jsonl", shape.name, args.seed));
        tracer
            .write(&file, &prov)
            .map_err(|e| format!("{}: {e}", file.display()))?;
        println!(
            "spans: {} written to {}",
            tracer.spans.len(),
            file.display()
        );
    }
    let setup_list: Vec<String> = setup_s.iter().map(|v| format!("{v:.4}")).collect();
    println!(
        "setup: {} set-ups, seconds: {}",
        setup_s.len(),
        setup_list.join(" ")
    );
    println!(
        "rounds: {} measured (+1 warm-up), {delivered} messages delivered; fail_frac {fail_frac} \
         ({failed} of {attempted} expected mailbox entries missing, duplicated or wrong)",
        walls.len()
    );
    for (name, value, unit) in &metrics {
        println!("metric {name} {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = failed == 0 && !walls.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}
