//! The repository benchmark: wall-clock exploration throughput of four
//! file-system pairings, with per-layer time in a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --record
//! ```
//!
//! A run repeats one workload's cycle (one DFS, or a block of walks) on
//! freshly built harnesses until `--seconds` have passed. It prints a
//! human-readable summary on stderr and, as the last line of stdout, one
//! JSON object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). It exits 1 when any correctness check fails.
//! `--record` prints the table of deterministic outcomes `expected.txt`
//! holds. See README.md for the workloads and metrics.

mod reference;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use modelcheck::ExploreStats;
use verifs::BugConfig;
use workloads::{run, setup_ns, Outcome, Rep, Workload, WALK_SEEDS};

/// Fewest cycles a run measures, however long they take.
const MIN_CYCLES: usize = 2;
/// Harness constructions timed for `setup_s` before the first cycle; every
/// untraced repetition adds one more.
const SETUP_SAMPLES: usize = 15;

/// Deterministic outcome of every repetition a run can make, one per line:
/// `<workload> <walk seed, or - for DFS> <ops> <states> <virtual_ns> <digest>`.
const EXPECTED: &str = include_str!("../expected.txt");

/// End-to-end metrics (`--trace 0`) with their units, in `BENCHMARK.json`
/// order.
const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "ops/ref-s"),
    ("states_per_s", "states/ref-s"),
    ("states", "count"),
    ("virtual_ops_per_s", "ops/vsec"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// File systems behind a `core.target.<fs>` span.
const TARGET_FS: [&str; 6] = ["ext2", "ext4", "xfs", "jffs2", "verifs1", "verifs2"];
/// `core.target.<fs>.<span>` spans, as `TracedTarget` names them.
const TARGET_SPANS: [&str; 7] = [
    "pre_op",
    "post_op",
    "save_state",
    "load_state",
    "track_state",
    "fingerprint",
    "invalidate",
];
/// File systems on a traced block device.
const DEVICE_FS: [&str; 3] = ["ext2", "ext4", "xfs"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--record"] {
        return Ok(None);
    }
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if ["--workload", "--seed", "--seconds", "--trace"].contains(&k.as_str()) => {
                flags.insert(k.as_str(), v.as_str());
            }
            _ => return Err(format!("unexpected argument(s) {pair:?}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let number = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("{k} takes a whole number"))
    };
    let workload = get("--workload")?;
    Ok(Some(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        traced: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace takes 0 or 1, not {t:?}")),
        },
    }))
}

/// One pass over a workload's cycle.
struct Cycle {
    reps: Vec<Rep>,
    /// Span statistics over the whole cycle (traced cycles only).
    spans: BTreeMap<String, trace::Stat>,
}

impl Cycle {
    /// Runs the cycle on a fresh thread, joined before returning. In one
    /// long-lived thread, about one run in five settled into a state where
    /// `ext4-jffs2-dfs` ran 30% slower for every cycle, on every lap; a fresh
    /// thread per cycle removed that. Each thread has its own trace table, so
    /// the spans are taken on the cycle's thread.
    // mcfs-lint: allow(MC007, one thread at a time, joined before the next cycle; the cycle comes back through the join)
    fn run(w: Workload, seed: u64, traced: bool) -> Cycle {
        std::thread::scope(|scope| {
            std::thread::Builder::new()
                .stack_size(8 << 20)
                .spawn_scoped(scope, || {
                    let reps = w
                        .cycle(seed)
                        .into_iter()
                        .map(|walk_seed| run(w, walk_seed, traced, BugConfig::none()))
                        .collect();
                    Cycle {
                        reps,
                        spans: trace::take(),
                    }
                })
                .expect("spawn the cycle's thread")
                .join()
                .expect("the cycle's thread finishes without panicking")
        })
    }

    fn sum(&self, f: impl Fn(&Rep) -> u64) -> u64 {
        self.reps.iter().map(f).sum()
    }

    fn ops_per_s(&self) -> f64 {
        self.sum(|r| r.outcome.ops) as f64 * 1e9 / self.sum(|r| r.explore_ns) as f64
    }

    /// Explorer counters merged over the cycle: counters and store sizes
    /// summed, watermarks maxed.
    fn stats(&self) -> ExploreStats {
        let mut merged = ExploreStats::default();
        for r in &self.reps {
            merged.merge(&r.stats);
        }
        merged
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            record();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            eprintln!("       perfbench --record");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let mut errors = self_test();
    let setups: Vec<u64> = (0..SETUP_SAMPLES).map(|_| setup_ns(w)).collect();

    // Closed loop: one cycle after another until the next would overrun the
    // time. A traced run alternates untraced and traced cycles.
    let deadline = trace::wall_ns() + args.seconds * 1_000_000_000;
    let mut plain: Vec<Cycle> = Vec::new();
    let mut traced: Vec<Cycle> = Vec::new();
    let mut plain_laps = FastestLaps::default();
    let mut traced_laps = FastestLaps::default();
    let mut peak_rss_mib = 0.0;
    loop {
        let start = trace::wall_ns();
        let mut cycle = Cycle::run(w, args.seed, false);
        plain_laps.fold(&mut cycle);
        plain.push(cycle);
        if plain.len() == 1 {
            // Later cycles reuse freed memory unevenly (the allocator's
            // thresholds adapt), so the high-water mark after the first
            // cycle is the steady figure.
            peak_rss_mib = peak_rss_kib() as f64 / 1024.0;
        }
        if args.traced {
            let mut cycle = Cycle::run(w, args.seed, true);
            traced_laps.fold(&mut cycle);
            traced.push(cycle);
        }
        let now = trace::wall_ns();
        if plain.len() >= MIN_CYCLES && now + (now - start) > deadline {
            break;
        }
    }

    // Every repetition, traced or not, must be clean and reach its recorded
    // outcome: ops, states, virtual time and visited-set digest.
    let mut attempted = 0;
    let mut failed = 0;
    for cycle in plain.iter().chain(&traced) {
        for (rep, walk_seed) in cycle.reps.iter().zip(w.cycle(args.seed)) {
            attempted += rep.outcome.ops;
            failed += rep.failed;
            let input = seed_key(walk_seed);
            if rep.failed > 0 {
                errors.push(format!(
                    "{} {input}: {} failed transition(s), stop {:?}",
                    w.name(),
                    rep.failed,
                    rep.stop
                ));
            }
            match expected_outcome(w, walk_seed) {
                Some(exp) if exp == rep.outcome => {}
                Some(exp) => errors.push(format!(
                    "{} {input}: outcome {} differs from the recorded {}",
                    w.name(),
                    describe(&rep.outcome),
                    describe(&exp)
                )),
                None => errors.push(format!(
                    "{} {input}: expected.txt records no outcome (run --record)",
                    w.name()
                )),
            }
        }
    }
    errors.dedup();

    let wall_ops_per_s = plain_laps.per_s(&plain[0], |r| r.outcome.ops);
    let untraced_ops_per_s = wall_ops_per_s * reference::scale();
    let metrics = if args.traced {
        let traced_ops_per_s =
            traced_laps.per_s(&traced[0], |r| r.outcome.ops) * reference::scale();
        per_layer(&traced, untraced_ops_per_s, traced_ops_per_s)
    } else {
        let rep_setups = plain.iter().flat_map(|c| c.reps.iter().map(|r| r.setup_ns));
        // Scaled by host speed like throughput, in the other direction.
        let setup_s = median(
            setups
                .into_iter()
                .chain(rep_setups)
                .map(|ns| ns as f64 / 1e9),
        ) / reference::scale();
        end_to_end(&plain, &plain_laps, setup_s, peak_rss_mib)
    };
    eprintln!(
        "perfbench {} seed {}: {} untraced and {} traced cycle(s) of {} x {} ops",
        w.name(),
        args.seed,
        plain.len(),
        traced.len(),
        plain[0].reps.len(),
        w.op_budget()
    );
    let mut rates: Vec<f64> = plain.iter().map(Cycle::ops_per_s).collect();
    rates.sort_by(f64::total_cmp);
    let q = |p: usize| rates[(rates.len() - 1) * p / 4];
    eprintln!(
        "  untraced wall ops/s per cycle: min {:.1} q1 {:.1} median {:.1} q3 {:.1} max {:.1}",
        q(0),
        q(1),
        q(2),
        q(3),
        q(4)
    );
    eprintln!(
        "  fastest-lap wall ops/s {wall_ops_per_s:.1}; fastest reference burst {:.1} us",
        reference::fastest_ns() as f64 / 1e3
    );
    for (name, unit, value) in &metrics {
        eprintln!("  {name:<40} {value:>16.4} {unit}");
    }
    for e in &errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    println!(
        "{}",
        result_json(errors.is_empty(), attempted, failed, &metrics)
    );
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Proves the failure counter fires: a walk over VeriFS1 with a seeded bug
/// must record failed transitions.
fn self_test() -> Vec<String> {
    let rep = run(
        Workload::VerifsWalk,
        Some(0),
        false,
        BugConfig::v1_truncate(),
    );
    let failed_frac = rep.failed as f64 / rep.outcome.ops.max(1) as f64;
    if failed_frac > 0.0 {
        Vec::new()
    } else {
        vec![format!(
            "self-test: seeded VeriFS1 truncate bug went undetected ({} ops, stop {:?})",
            rep.outcome.ops, rep.stop
        )]
    }
}

fn seed_key(walk_seed: Option<u64>) -> String {
    walk_seed.map_or("-".to_string(), |s| s.to_string())
}

fn expected_outcome(w: Workload, walk_seed: Option<u64>) -> Option<Outcome> {
    let key = seed_key(walk_seed);
    EXPECTED.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f[..] {
            [name, s, ops, states, vns, digest] if name == w.name() && s == key => Some(Outcome {
                ops: ops.parse().ok()?,
                states: states.parse().ok()?,
                virtual_ns: vns.parse().ok()?,
                digest: u128::from_str_radix(digest, 16).ok()?,
            }),
            _ => None,
        }
    })
}

fn describe(o: &Outcome) -> String {
    format!("{} {} {} {:032x}", o.ops, o.states, o.virtual_ns, o.digest)
}

/// Prints the `expected.txt` table: one untraced repetition of every DFS
/// workload and of every walk seed.
fn record() {
    for w in Workload::ALL {
        let inputs: Vec<Option<u64>> = match w.cycle(0)[0] {
            Some(_) => (0..WALK_SEEDS).map(Some).collect(),
            None => vec![None],
        };
        for walk_seed in inputs {
            let rep = run(w, walk_seed, false, BugConfig::none());
            println!(
                "{} {} {}",
                w.name(),
                seed_key(walk_seed),
                describe(&rep.outcome)
            );
        }
    }
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Each lap's fastest time over a run's cycles, per repetition. Other load on
/// the host only ever slows a lap down, and on a shared host it comes and goes
/// for seconds at a time, so the fastest time is the steadiest estimate of
/// what the program costs.
#[derive(Default)]
struct FastestLaps(Vec<Vec<u64>>);

impl FastestLaps {
    /// Folds in `cycle`'s lap times and drops them from it, so memory does not
    /// grow with the number of cycles.
    fn fold(&mut self, cycle: &mut Cycle) {
        if self.0.is_empty() {
            self.0 = cycle
                .reps
                .iter_mut()
                .map(|r| std::mem::take(&mut r.laps_ns))
                .collect();
            return;
        }
        for (fastest, rep) in self.0.iter_mut().zip(&mut cycle.reps) {
            for (f, lap) in fastest.iter_mut().zip(std::mem::take(&mut rep.laps_ns)) {
                *f = (*f).min(lap);
            }
        }
    }

    /// `count` of one cycle per wall second of its fastest laps.
    fn per_s(&self, cycle: &Cycle, count: impl Fn(&Rep) -> u64) -> f64 {
        let wall_ns: u64 = self.0.iter().flatten().sum();
        cycle.sum(count) as f64 * 1e9 / wall_ns as f64
    }
}

fn end_to_end(
    cycles: &[Cycle],
    laps: &FastestLaps,
    setup_s: f64,
    peak_rss_mib: f64,
) -> Vec<(String, &'static str, f64)> {
    let first = &cycles[0];
    let value = |name: &str| match name {
        "ops_per_s" => laps.per_s(first, |r| r.outcome.ops) * reference::scale(),
        "states_per_s" => laps.per_s(first, |r| r.outcome.states) * reference::scale(),
        "states" => first.sum(|r| r.outcome.states) as f64,
        "virtual_ops_per_s" => {
            first.sum(|r| r.outcome.ops) as f64 * 1e9 / first.sum(|r| r.outcome.virtual_ns) as f64
        }
        "peak_rss_mib" => peak_rss_mib,
        "setup_s" => setup_s,
        _ => unreachable!("every end-to-end metric has a value"),
    };
    END_TO_END
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit, value(name)))
        .collect()
}

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &str)> = [
        ("modelcheck.explore.self_ms", "ms"),
        ("modelcheck.explore.match_ratio", "ratio"),
        ("modelcheck.visited.peak_bytes", "bytes"),
        ("modelcheck.visited.resize_events", "count"),
        ("core.ckpt_pool.resident_bytes", "bytes"),
        ("core.ckpt_pool.shared_bytes", "bytes"),
    ]
    .map(|(n, u)| (n.to_string(), u))
    .to_vec();
    for f in [
        "apply",
        "abstract_state",
        "checkpoint",
        "restore",
        "release",
        "ops",
    ] {
        names.push((format!("core.harness.{f}.ms"), "ms"));
    }
    for f in ["apply", "abstract_state"] {
        names.push((format!("core.harness.{f}.self_ms"), "ms"));
    }
    for f in ["independent", "checkpoint", "restore"] {
        names.push((format!("core.harness.{f}.calls"), "count"));
    }
    for fs in TARGET_FS {
        for f in TARGET_SPANS {
            names.push((format!("core.target.{fs}.{f}.ms"), "ms"));
        }
    }
    for fs in DEVICE_FS {
        names.push((format!("blockdev.{fs}.reads"), "count"));
        names.push((format!("blockdev.{fs}.writes"), "count"));
        names.push((format!("blockdev.{fs}.snapshot.ms"), "ms"));
        names.push((format!("blockdev.{fs}.restore.ms"), "ms"));
    }
    for (n, u) in [
        ("bench.reference.fastest_us", "us"),
        ("bench.trace.untraced_ops_per_s", "ops/ref-s"),
        ("bench.trace.traced_ops_per_s", "ops/ref-s"),
        ("bench.trace.overhead_pct", "%"),
    ] {
        names.push((n.to_string(), u));
    }
    names
}

/// The value of a span-derived or explorer-derived per-layer metric over one
/// traced cycle.
fn layer_value(name: &str, cycle: &Cycle) -> f64 {
    let stats = cycle.stats();
    let store = stats.checkpoint_store.unwrap_or_default();
    let span = |s: &str| cycle.spans.get(s).copied().unwrap_or_default();
    let ms = |ns: u64| ns as f64 / 1e6;
    match name {
        "modelcheck.explore.self_ms" => ms(span("modelcheck.explore").self_ns),
        "modelcheck.explore.match_ratio" => stats.states_new as f64 / stats.ops_executed as f64,
        "modelcheck.visited.peak_bytes" => stats.visited_peak_bytes as f64,
        "modelcheck.visited.resize_events" => f64::from(stats.resize_events),
        "core.ckpt_pool.resident_bytes" => store.resident_bytes as f64,
        "core.ckpt_pool.shared_bytes" => store.shared_bytes as f64,
        _ => {
            let (base, stat) = name.rsplit_once('.').expect("metric names are dotted");
            match stat {
                "ms" => ms(span(base).total_ns),
                "self_ms" => ms(span(base).self_ns),
                "calls" => span(base).calls as f64,
                // Block reads and writes are counters named in full.
                "reads" | "writes" => span(name).calls as f64,
                _ => unreachable!("unknown per-layer metric {name}"),
            }
        }
    }
}

fn per_layer(
    traced: &[Cycle],
    untraced_ops_per_s: f64,
    traced_ops_per_s: f64,
) -> Vec<(String, &'static str, f64)> {
    per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let value = match name.as_str() {
                "bench.reference.fastest_us" => reference::fastest_ns() as f64 / 1e3,
                "bench.trace.untraced_ops_per_s" => untraced_ops_per_s,
                "bench.trace.traced_ops_per_s" => traced_ops_per_s,
                "bench.trace.overhead_pct" => (untraced_ops_per_s / traced_ops_per_s - 1.0) * 100.0,
                _ => median(traced.iter().map(|c| layer_value(&name, c))),
            };
            (name, unit, value)
        })
        .collect()
}

/// Peak resident set (VmHWM) of this process, in KiB.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status")
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics this program prints.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let json = include_str!("../../BENCHMARK.json");
        let names: Vec<String> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .chain(per_layer_names())
            .map(|(n, u)| format!("\"name\": \"{n}\", \"unit\": \"{u}\""))
            .collect();
        for n in &names {
            assert!(json.contains(n.as_str()), "BENCHMARK.json lacks {n}");
        }
        assert_eq!(json.matches("\"unit\"").count(), names.len());
    }

    #[test]
    fn expected_table_covers_every_repetition() {
        for w in Workload::ALL {
            for seed in 0..WALK_SEEDS {
                for walk_seed in w.cycle(seed) {
                    assert!(
                        expected_outcome(w, walk_seed).is_some(),
                        "{} {}",
                        w.name(),
                        seed_key(walk_seed)
                    );
                }
            }
        }
    }
}
