//! Command-line experiment runner: regenerates the paper's figures.
//!
//! ```text
//! repro fig05                     one figure pair
//! repro bookstore-shopping        same, by benchmark-mix name
//! repro all                       every figure, CSVs into results/
//! repro summary                   peak table across all figures
//! repro avail                     availability sweep: goodput/p99/error
//!                                 taxonomy vs fault intensity for three
//!                                 architectures, results/avail.csv
//! repro trace <figure>            one traced point: span capture,
//!                                 Chrome-trace JSON + bottleneck-report
//!                                 CSV into results/, cross-checked
//!                                 against the PS CPU counters (pick the
//!                                 deployment with --config C1..C9)
//! repro cache                     cache-ablation sweep: bookstore and
//!                                 auction mixes with the caching tier
//!                                 off, TTL (swept over durations), and
//!                                 transactional, audited at every point,
//!                                 results/cache.csv
//! repro failover                  replicated-DB failover sweep: goodput
//!                                 under a pinned mid-measurement primary
//!                                 kill vs replica count × storm
//!                                 intensity, results/failover.csv
//! repro overload                  flash-crowd sweep: open-loop arrivals
//!                                 through a spike, naive vs shed vs
//!                                 shed+breaker+budget, per-phase goodput
//!                                 and retention, results/overload.csv
//!                                 (C1/C4/C6) + overload_c789.csv (the
//!                                 front-ended C7/C8/C9 deployments)
//! ```
//!
//! Flags are listed in [`FLAGS`]; unknown flags and unknown subcommands
//! exit nonzero with a usage message. The whole command line is parsed by
//! [`parse_args`], which is pure and unit-tested.

use dynamid_bookstore::{Bookstore, BookstoreScale};
use dynamid_core::StandardConfig;
use dynamid_harness::figures::sweep_workload;
use dynamid_harness::report::{cpu_markdown, peak_summary_line, sweep_csv, throughput_markdown};
use dynamid_harness::{
    find_figure, run_figure, run_traced, Benchmark, FigurePair, HarnessConfig, FIGURES,
};
use dynamid_sim::SimDuration;
use dynamid_workload::ExperimentSpec;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// One command-line flag: name, value placeholder (`None` for boolean
/// switches), and help text. The parser and the usage message are both
/// driven by this table, so they cannot drift apart.
struct Flag {
    name: &'static str,
    value: Option<&'static str>,
    help: &'static str,
}

/// Every flag `repro` accepts.
const FLAGS: &[Flag] = &[
    Flag {
        name: "--smoke",
        value: None,
        help: "quick perf smoke: mini sweeps (min-of-3 timing) + snapshot-fork, plan-cache, \
               cache, failover and flash-crowd probes -> BENCH_repro.json (ignores targets)",
    },
    Flag {
        name: "--chaos",
        value: None,
        help: "with --smoke (required): also run a miniature availability sweep",
    },
    Flag { name: "--fast", value: None, help: "scaled-down populations and short windows" },
    Flag { name: "--quiet", value: None, help: "suppress progress" },
    Flag { name: "--scale", value: Some("<f>"), help: "population scale factor (default 1.0)" },
    Flag {
        name: "--clients",
        value: Some("a,b,c"),
        help: "explicit client sweep (one value for avail and failover)",
    },
    Flag { name: "--measure", value: Some("<secs>"), help: "measurement window length" },
    Flag { name: "--seed", value: Some("<n>"), help: "master seed" },
    Flag {
        name: "--jobs",
        value: Some("<n>"),
        help: "sweep worker threads (0 = all cores; results identical for any value)",
    },
    Flag { name: "--out", value: Some("<dir>"), help: "output directory (default results/)" },
    Flag {
        name: "--policy",
        value: Some("fifo|writer"),
        help: "lock grant policy (MyISAM default: writer priority)",
    },
    Flag {
        name: "--config",
        value: Some("C1..C9"),
        help: "restrict to one or more deployment configurations (comma-separated codes)",
    },
];

/// The subcommands, for the usage message.
const COMMANDS: &[(&str, &str)] = &[
    ("<figure>", "one figure pair, by id (fig05..fig14) or <benchmark>-<mix> name"),
    ("all", "every figure pair, CSVs into the output directory"),
    ("summary", "peak-throughput table across all figures"),
    ("avail", "availability sweep (goodput vs fault intensity), avail.csv"),
    ("trace <figure>", "one traced point: Chrome-trace JSON + bottleneck CSV"),
    (
        "cache",
        "cache-ablation sweep (off/TTL/transactional on bookstore + auction mixes, \
         TTL duration swept), cache.csv; with --smoke: the pinned deterministic grid \
         check.sh compares to the golden",
    ),
    (
        "failover",
        "replicated-DB failover sweep (goodput under a pinned primary kill vs replica \
         count x storm intensity), failover.csv; with --smoke: the pinned grid \
         check.sh compares to the golden",
    ),
    (
        "overload",
        "flash-crowd sweep (open-loop arrivals through a spike, naive vs shed vs \
         shed+breaker+budget, per-phase goodput), overload.csv (C1/C4/C6) and \
         overload_c789.csv (front-ended C7/C8/C9); with --smoke: the pinned grids \
         check.sh compares to the goldens",
    ),
];

/// Parses a comma-separated list, one `parse` call per trimmed element.
/// `None` when the list is empty or any element fails to parse — the
/// shared rejection path for every list-valued flag.
fn parse_list<T>(list: &str, parse: impl Fn(&str) -> Option<T>) -> Option<Vec<T>> {
    list.split(',').map(|s| parse(s.trim())).collect::<Option<Vec<T>>>().filter(|v| !v.is_empty())
}

/// Everything a `repro` command line resolves to.
struct Cli {
    cfg: HarnessConfig,
    targets: Vec<String>,
    out_dir: PathBuf,
    smoke: bool,
    chaos: bool,
}

/// Parses the command line against the [`FLAGS`] table. Pure — no I/O, no
/// process exit — so the rejection behavior is unit-testable; `main` turns
/// an `Err` into the usage message and a nonzero exit.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cfg = HarnessConfig { verbose: true, ..HarnessConfig::default() };
    let mut targets: Vec<String> = Vec::new();
    let mut out_dir = PathBuf::from("results");
    let mut smoke = false;
    let mut chaos = false;

    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let value = |i: &mut usize| -> Option<&String> {
            *i += 1;
            args.get(*i)
        };
        if arg.starts_with("--") {
            let Some(flag) = FLAGS.iter().find(|f| f.name == arg) else {
                return Err(format!("unknown option {arg}"));
            };
            match flag.name {
                "--smoke" => smoke = true,
                "--chaos" => chaos = true,
                "--fast" => {
                    let verbose = cfg.verbose;
                    cfg = HarnessConfig::fast();
                    cfg.verbose = verbose;
                }
                "--quiet" => cfg.verbose = false,
                "--scale" => {
                    cfg.scale = match value(&mut i).and_then(|v| v.parse().ok()) {
                        Some(v) => v,
                        None => return Err("--scale needs a number".into()),
                    };
                }
                "--seed" => {
                    cfg.seed = match value(&mut i).and_then(|v| v.parse().ok()) {
                        Some(v) => v,
                        None => return Err("--seed needs an integer".into()),
                    };
                }
                "--jobs" => {
                    cfg.jobs = match value(&mut i).and_then(|v| v.parse().ok()) {
                        Some(v) => v,
                        None => return Err("--jobs needs an integer (0 = all cores)".into()),
                    };
                }
                "--measure" => {
                    cfg.measure = match value(&mut i).and_then(|v| v.parse::<u64>().ok()) {
                        Some(v) => SimDuration::from_secs(v),
                        None => return Err("--measure needs seconds".into()),
                    };
                }
                "--clients" => {
                    let Some(list) = value(&mut i) else {
                        return Err("--clients needs a list".into());
                    };
                    match parse_list(list, |s| s.parse::<usize>().ok()) {
                        Some(v) => cfg.clients = v,
                        None => return Err("--clients needs comma-separated integers".into()),
                    }
                }
                "--out" => match value(&mut i) {
                    Some(d) => out_dir = PathBuf::from(d),
                    None => return Err("--out needs a directory".into()),
                },
                "--policy" => {
                    // Ablation: MyISAM grants writers priority; FIFO shows
                    // how much of the bookstore contention collapse that
                    // policy choice causes.
                    cfg.policy = match value(&mut i).map(String::as_str) {
                        Some("fifo") => dynamid_sim::GrantPolicy::Fifo,
                        Some("writer") => dynamid_sim::GrantPolicy::WriterPriority,
                        _ => return Err("--policy needs 'fifo' or 'writer'".into()),
                    };
                }
                "--config" => {
                    let Some(list) = value(&mut i) else {
                        return Err("--config needs C1..C9 codes".into());
                    };
                    match parse_list(list, StandardConfig::parse) {
                        Some(v) => cfg.configs = v,
                        None => return Err("--config needs comma-separated C1..C9 codes".into()),
                    }
                }
                other => unreachable!("flag {other} listed but not handled"),
            }
        } else {
            targets.push(arg.to_string());
        }
        i += 1;
    }
    if !smoke && targets.is_empty() {
        return Err("no target given".into());
    }
    if chaos && !smoke {
        return Err("--chaos only adds a probe to --smoke".into());
    }
    if cfg.clients.len() > 1 && targets.iter().any(|t| t == "avail" || t == "failover") {
        return Err("avail and failover run at one client count: give --clients one value".into());
    }
    Ok(Cli { cfg, targets, out_dir, smoke, chaos })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Cli { cfg, targets, out_dir, smoke, chaos } = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => return usage(&e),
    };
    if smoke {
        // `repro cache --smoke`, `repro failover --smoke` and `repro
        // overload --smoke` are their own pinned grids (check.sh's golden
        // gates); every other target combination defers to the perf smoke.
        let pinned =
            ["failover", "cache", "overload"].into_iter().find(|s| targets.iter().any(|t| t == s));
        return match pinned {
            Some(sweep) => exit_status(run_target(sweep, &cfg, &out_dir, true)),
            None => run_smoke(cfg.verbose, chaos),
        };
    }

    if targets[0] == "trace" {
        let [_, figure] = targets.as_slice() else {
            return usage("trace needs exactly one figure, e.g. 'trace fig05 --config C1'");
        };
        if find_figure(figure).is_none() {
            return usage(&format!("unknown figure '{figure}'"));
        }
        return exit_status(run_trace(figure, &cfg, &out_dir));
    }

    let known = |t: &str| {
        matches!(t, "all" | "summary" | "avail" | "cache" | "failover" | "overload")
            || find_figure(t).is_some()
    };
    if let Some(bad) = targets.iter().find(|t| !known(t)) {
        return usage(&format!("unknown figure '{bad}'"));
    }
    exit_status(targets.iter().try_for_each(|t| run_target(t, &cfg, &out_dir, false)))
}

/// Prints a failed run's error and maps the outcome to the exit status.
fn exit_status(result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one validated target. `smoke` selects the pinned golden grid of
/// the cache, failover and overload sweeps.
fn run_target(
    target: &str,
    cfg: &HarnessConfig,
    out_dir: &Path,
    smoke: bool,
) -> Result<(), String> {
    match target {
        "all" => FIGURES.into_iter().try_for_each(|pair| run_and_emit(pair, cfg, out_dir)),
        "avail" => {
            use dynamid_harness::{
                availability_csv, availability_markdown, run_availability, DEFAULT_INTENSITIES,
            };
            eprintln!("== Availability sweep (goodput vs fault intensity)");
            let data = run_availability(cfg, &DEFAULT_INTENSITIES);
            emit(&availability_markdown(&data), out_dir, &[("avail.csv", &availability_csv(&data))])
        }
        "cache" => cache_sweep(cfg, out_dir, smoke),
        "failover" => failover_sweep(cfg, out_dir, smoke),
        "overload" => overload_sweep(cfg, out_dir, smoke),
        "summary" => {
            println!("# Peak throughput summary (all figures)\n");
            for pair in FIGURES {
                eprintln!("== {}", pair.title);
                let data = run_figure(pair, cfg);
                println!("## {}", pair.title);
                for curve in &data.curves {
                    println!("{}", peak_summary_line(curve));
                }
                println!();
            }
            Ok(())
        }
        key => run_and_emit(find_figure(key).expect("validated by main"), cfg, out_dir),
    }
}

/// The one output path of every target: prints `markdown` to stdout, then
/// writes each `(file name, contents)` pair into `out_dir` (created when
/// missing) and reports it on stderr. Any failure is returned, so the
/// command exits nonzero.
fn emit(markdown: &str, out_dir: &Path, files: &[(&str, &str)]) -> Result<(), String> {
    println!("{markdown}");
    fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    for (file, contents) in files {
        let path = out_dir.join(file);
        fs::write(&path, contents)
            .map_err(|e| format!("could not write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

/// `Err` listing `violations` under `headline`, or `Ok` when there are none.
fn claim(headline: &str, violations: &[String]) -> Result<(), String> {
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!("{headline}\n  {}", violations.join("\n  ")))
    }
}

fn run_and_emit(pair: FigurePair, cfg: &HarnessConfig, out_dir: &Path) -> Result<(), String> {
    eprintln!("== {} ({} / {})", pair.title, pair.throughput_id, pair.cpu_id);
    let data = run_figure(pair, cfg);
    let markdown = format!("{}\n{}", throughput_markdown(&data), cpu_markdown(&data));
    emit(&markdown, out_dir, &[(&format!("{}.csv", pair.throughput_id), &sweep_csv(&data))])
}

/// `repro trace <figure>`: one traced point per selected configuration.
/// Writes `trace_<fig>_<code>.json` (Chrome trace) and
/// `bottleneck_<fig>_<code>.csv` per configuration, prints the report
/// summary, and fails if the span trees are malformed or the
/// trace-derived CPU utilizations drift more than 1% from the PS
/// counters.
fn run_trace(figure: &str, cfg: &HarnessConfig, out_dir: &Path) -> Result<(), String> {
    let pair = find_figure(figure).expect("validated by caller");
    for &config in &cfg.configs {
        eprintln!("== trace {} {} ({})", pair.throughput_id, config.code(), config.paper_name());
        let traced = run_traced(pair, config, cfg);
        traced
            .cross_check()
            .map_err(|e| format!("trace cross-check failed for {}: {e}", config.paper_name()))?;
        let markdown = format!(
            "## {} {} at {} clients\n\n{}",
            pair.throughput_id,
            config.code(),
            traced.clients,
            traced.report.to_markdown()
        );
        let stem = format!("{}_{}", pair.throughput_id, config.code());
        emit(
            &markdown,
            out_dir,
            &[
                (&format!("trace_{stem}.json"), &traced.chrome_json()),
                (&format!("bottleneck_{stem}.csv"), &traced.bottleneck_csv()),
            ],
        )?;
    }
    Ok(())
}

/// The pinned configuration every golden smoke grid and BENCH probe
/// shares: seed 42, fast phases, a saturating 500 ms think time, and
/// 2 s / 1 s ramps. Only `--jobs` (which never changes results) comes
/// from the command line; `scale`, `clients`, and the measurement window
/// are the per-grid knobs. Extracted so the cache, failover, and overload
/// smokes cannot drift apart on the shared boilerplate.
fn pinned_smoke_cfg(
    jobs: usize,
    scale: f64,
    clients: &[usize],
    measure_secs: u64,
) -> HarnessConfig {
    let mut cfg = HarnessConfig::fast();
    cfg.verbose = false;
    cfg.jobs = jobs;
    cfg.seed = 42;
    cfg.scale = scale;
    cfg.clients = clients.to_vec();
    cfg.think_time = SimDuration::from_millis(500);
    cfg.measure = SimDuration::from_secs(measure_secs);
    cfg.ramp_up = SimDuration::from_secs(2);
    cfg.ramp_down = SimDuration::from_secs(1);
    cfg
}

/// `repro cache`: the cache-ablation sweep over every workload mix,
/// capacity and TTL duration, written to `cache.csv`.
///
/// With `--smoke` it runs the pinned deterministic grid check.sh
/// byte-compares against `results/golden/cache.csv`. Every knob except
/// `--jobs` (which never changes results) and `--out` is pinned rather
/// than taken from the command line: the golden is only meaningful for one
/// exact grid. The load is deliberately harsher than the figure smokes —
/// 500 ms think time instead of 7 s — so the EJB four-tier configuration
/// is actually saturated at the top client count and the sweep exercises
/// the regime where caching moves throughput, not just latency. The grid
/// covers all three workload mixes (bookstore browsing plus both auction
/// mixes) and both default TTL durations, so the golden pins the TTL
/// staleness curve the audit-violation column records. The smoke fails
/// unless transactional caching lifts EJB bookstore-browsing throughput at
/// the top client count by at least 30% — the headline this tier exists to
/// demonstrate — so the check.sh gate certifies the result, not just byte
/// stability.
fn cache_sweep(cfg: &HarnessConfig, out_dir: &Path, smoke: bool) -> Result<(), String> {
    use dynamid_harness::{
        cache_csv, cache_markdown, run_cache_sweep, CacheMode, CacheWorkload, CACHE_WORKLOADS,
        DEFAULT_CACHE_CAPACITIES, DEFAULT_CACHE_TTLS,
    };
    let verbose = cfg.verbose;
    let (cfg, capacities): (HarnessConfig, &[usize]) = if smoke {
        let mut pinned = pinned_smoke_cfg(cfg.jobs, 0.1, &[20, 100], 8);
        pinned.configs = vec![
            StandardConfig::PhpColocated,
            StandardConfig::ServletDedicated,
            StandardConfig::EjbFourTier,
        ];
        (pinned, &[1024])
    } else {
        eprintln!("== Cache-ablation sweep (bookstore + auction mixes, off/TTL/transactional)");
        (cfg.clone(), &DEFAULT_CACHE_CAPACITIES)
    };

    let t0 = Instant::now();
    let data = run_cache_sweep(&cfg, &CACHE_WORKLOADS, capacities, &DEFAULT_CACHE_TTLS);
    let secs = t0.elapsed().as_secs_f64();
    // Reaching this line means every cache-off and transactional point
    // passed the consistency audit (run_cache_sweep panics otherwise).
    emit(&cache_markdown(&data), out_dir, &[("cache.csv", &cache_csv(&data))])?;
    if !smoke {
        return Ok(());
    }

    let wl = CacheWorkload::BookstoreBrowsing;
    let ejb = StandardConfig::EjbFourTier;
    let off = data.best_at_peak_clients(wl, ejb, CacheMode::Off).unwrap_or(0.0);
    let txn = data.best_at_peak_clients(wl, ejb, CacheMode::Transactional).unwrap_or(0.0);
    let uplift = if off > 0.0 { txn / off - 1.0 } else { 0.0 };
    if uplift < 0.30 {
        return Err(format!(
            "cache smoke FAILED: transactional caching lifted EJB browsing throughput \
             by only {:.1}% (< 30%) at the top client count",
            uplift * 100.0
        ));
    }
    if verbose {
        eprintln!(
            "cache smoke: {} points in {secs:.3}s; EJB browsing at {} clients \
             {off:.0} -> {txn:.0} ipm with transactional caching ({:+.1}%)",
            data.points.len(),
            data.clients.last().copied().unwrap_or(0),
            uplift * 100.0,
        );
    }
    Ok(())
}

/// `repro failover`: the replicated-DB failover sweep over the default
/// replica and storm ladders, written to `failover.csv`. Fails when a
/// ≥2-replica point loses to the single-DB baseline.
///
/// With `--smoke` it runs the pinned deterministic grid check.sh
/// byte-compares against `results/golden/failover.csv`: like the cache
/// smoke, every result-affecting knob is pinned; the grid is C1/C4/C6 ×
/// {0, 2} replicas × {calm, stormy}, with the primary killed a quarter
/// into the measurement window at every point. Besides byte stability, a
/// zero exit certifies three properties: every point passed the
/// consistency audit (the sweep panics otherwise), every replicated point
/// actually promoted a replica inside the window, and every 2-replica
/// point beat the single-DB baseline's goodput.
fn failover_sweep(cfg: &HarnessConfig, out_dir: &Path, smoke: bool) -> Result<(), String> {
    use dynamid_harness::{
        failover_csv, failover_markdown, run_failover, DEFAULT_REPLICAS, DEFAULT_STORM_INTENSITIES,
    };
    let verbose = cfg.verbose;
    let (cfg, replicas, intensities): (HarnessConfig, &[usize], &[f64]) = if smoke {
        (pinned_smoke_cfg(cfg.jobs, 0.1, &[50], 8), &[0, 2], &[0.0, 0.5])
    } else {
        eprintln!("== Failover sweep (goodput under a mid-measurement primary kill)");
        (cfg.clone(), &DEFAULT_REPLICAS, &DEFAULT_STORM_INTENSITIES)
    };

    let t0 = Instant::now();
    let data = run_failover(&cfg, replicas, intensities);
    let secs = t0.elapsed().as_secs_f64();
    // Reaching this line means every point passed the consistency audit
    // (run_failover panics otherwise).
    emit(&failover_markdown(&data), out_dir, &[("failover.csv", &failover_csv(&data))])?;
    if smoke {
        let unpromoted: Vec<String> = data
            .points
            .iter()
            .filter(|p| p.replicas > 0 && p.errors.failovers == 0)
            .map(|p| {
                format!(
                    "{} replicas={} intensity={}",
                    p.config.paper_name(),
                    p.replicas,
                    p.intensity
                )
            })
            .collect();
        claim("failover smoke FAILED: points never promoted a replica:", &unpromoted)?;
    }
    claim(
        "failover sweep FAILED: replicated goodput lost to the baseline:",
        &data.baseline_violations(),
    )?;
    if smoke && verbose {
        eprintln!(
            "failover smoke: {} points in {secs:.3}s; every replicated point promoted, \
             every 2-replica point beat the baseline, audit clean",
            data.points.len()
        );
    }
    Ok(())
}

/// `repro overload`: the flash-crowd sweeps over the default spike ladder,
/// written to `overload.csv` (C1/C4/C6) and `overload_c789.csv` (the
/// front-ended C7/C8/C9 deployments).
///
/// With `--smoke` it runs the pinned deterministic grids check.sh
/// byte-compares against `results/golden/overload.csv` and
/// `results/golden/overload_c789.csv`: each configuration × {naive, shed,
/// full} at one 6× spike. Base rates are calibrated inside the sweep (75%
/// of each architecture's sustainable open-loop rate), and the phase
/// structure is pinned by the sweep module, so only `scale` and `seed`
/// matter here. Either way a zero exit certifies the headline claim: on
/// every architecture — with or without a front end — the naive arm
/// collapses to under 30% of its pre-spike goodput after the spike (the
/// metastable retry storm), the fully controlled arm retains at least 70%
/// and recovers within the spike's ramp-down, and every point passed the
/// consistency audit (the sweep panics otherwise).
fn overload_sweep(cfg: &HarnessConfig, out_dir: &Path, smoke: bool) -> Result<(), String> {
    use dynamid_harness::{
        overload_csv, overload_markdown, run_overload_configs, DEFAULT_SPIKE_MULTS,
        FRONT_ENDED_OVERLOAD_CONFIGS, OVERLOAD_CONFIGS,
    };
    let verbose = cfg.verbose;
    let (cfg, spike_mults): (HarnessConfig, &[f64]) = if smoke {
        (pinned_smoke_cfg(cfg.jobs, 0.1, &[], 8), &[6.0])
    } else {
        eprintln!("== Flash-crowd sweep (open-loop overload, naive vs controlled)");
        (cfg.clone(), &DEFAULT_SPIKE_MULTS)
    };

    let grids: [(&str, &[StandardConfig]); 2] =
        [("overload.csv", &OVERLOAD_CONFIGS), ("overload_c789.csv", &FRONT_ENDED_OVERLOAD_CONFIGS)];
    for (file, configs) in grids {
        let t0 = Instant::now();
        let data = run_overload_configs(&cfg, configs, spike_mults);
        let secs = t0.elapsed().as_secs_f64();
        // Reaching this line means every point passed the consistency audit
        // (the sweep panics otherwise).
        emit(&overload_markdown(&data), out_dir, &[(file, &overload_csv(&data))])?;
        claim("overload sweep FAILED: the flash-crowd claim does not hold:", &data.violations())?;
        if smoke && verbose {
            eprintln!(
                "overload smoke: {} points in {secs:.3}s; naive collapsed and full control \
                 recovered on every architecture, audit clean",
                data.points.len()
            );
        }
    }
    Ok(())
}

/// How many times each smoke sweep is repeated; the minimum wall time is
/// recorded. One-shot timing was noisy enough that check.sh's perf gate
/// had to re-run the whole smoke on a miss — taking min-of-3 inside the
/// smoke makes `total_wall_secs` itself the low-noise regression signal,
/// the same statistic the gate compares.
const SMOKE_TIMING_REPS: u32 = 3;

/// The perf smoke harness behind `repro --smoke`: three miniature figure
/// sweeps timed end-to-end (min of [`SMOKE_TIMING_REPS`] runs each), a
/// snapshot-fork probe (copy-on-write clone vs deep clone of the populated
/// bookstore database), a plan-cache probe (hit rate over one experiment
/// point), a cache probe (EJB browsing uplift under transactional
/// caching), and a failover probe (replicated tier vs a pinned primary
/// kill). With `--chaos`, a miniature availability sweep (fault injection
/// plus client resilience and admission control) is timed and summarized.
/// Everything lands in `BENCH_repro.json` in the working directory so CI
/// can diff wall-clock regressions; the modeled results themselves are
/// covered by tests.
fn run_smoke(verbose: bool, chaos: bool) -> ExitCode {
    // Deterministic miniature sweeps, each reproducible on any build as
    // `repro --fast --quiet --jobs 1 --seed 42 --scale <s> --clients <c>
    // --measure <m> <fig>`. The first two are dense low-client grids over
    // both benchmarks; the third raises the population scale so per-point
    // setup (snapshot forking) dominates the way it does in full-scale
    // `repro all` runs.
    let sweeps: [(&str, f64, &[usize], u64); 3] = [
        ("fig05", 0.1, &[5, 10, 15, 20, 25, 30], 4),
        ("fig11", 0.1, &[10, 20, 30, 40, 50, 60], 4),
        ("fig05", 0.3, &[5, 10, 15], 2),
    ];
    let mut fig_json = Vec::new();
    let mut profile_json = Vec::new();
    let mut total_secs = 0.0f64;
    let (mut all_events, mut all_stale, mut all_peak) = (0u64, 0u64, 0u64);
    for (key, scale, clients, measure) in sweeps {
        let mut cfg = HarnessConfig::fast();
        cfg.verbose = false;
        cfg.jobs = 1;
        cfg.seed = 42;
        cfg.scale = scale;
        cfg.clients = clients.to_vec();
        cfg.measure = SimDuration::from_secs(measure);
        let pair = find_figure(key).expect("smoke figure exists");
        // Runs are deterministic, so every rep computes identical data;
        // only the wall clock differs, and the minimum is the signal.
        let mut secs = f64::INFINITY;
        let mut data = None;
        for _ in 0..SMOKE_TIMING_REPS {
            let t0 = Instant::now();
            data = Some(run_figure(pair, &cfg));
            secs = secs.min(t0.elapsed().as_secs_f64());
        }
        let data = data.expect("at least one timing rep ran");
        total_secs += secs;
        let points: usize = data.curves.iter().map(|c| c.points.len()).sum();
        // Host-cost accounting: calendar traffic across every point of the
        // sweep, and the largest calendar any single point ever held.
        let pts = || data.curves.iter().flat_map(|c| c.points.iter());
        let events: u64 = pts().map(|p| p.engine.events).sum();
        let stale: u64 = pts().map(|p| p.engine.stale_events).sum();
        let peak: u64 = pts().map(|p| p.engine.peak_calendar).max().unwrap_or(0);
        all_events += events;
        all_stale += stale;
        all_peak = all_peak.max(peak);
        if verbose {
            eprintln!(
                "smoke {key}@{scale}: {points} points in {secs:.3}s (min of {SMOKE_TIMING_REPS}) \
                 ({events} events, {stale} stale, peak calendar {peak})"
            );
        }
        let client_list = clients.iter().map(usize::to_string).collect::<Vec<_>>().join(",");
        fig_json.push(format!(
            "    {{\"id\": \"{key}\", \"scale\": {scale}, \"points\": {points}, \
             \"wall_secs\": {secs:.3}, \"equivalent_flags\": \"--fast --quiet --jobs 1 \
             --seed 42 --scale {scale} --clients {client_list} --measure {measure} {key}\"}}"
        ));
        profile_json.push(format!(
            "      {{\"id\": \"{key}\", \"scale\": {scale}, \"wall_secs\": {secs:.3}, \
             \"events\": {events}, \"stale_events\": {stale}, \
             \"stale_ratio\": {:.4}, \"peak_calendar\": {peak}}}",
            stale as f64 / events.max(1) as f64
        ));
    }

    // Snapshot forks: what every sweep point pays to get its private
    // database. Copy-on-write makes this O(tables); the deep clone is the
    // pre-CoW cost, kept as the comparison baseline.
    let base = Benchmark::Bookstore.build_db(0.1, 42);
    let t0 = Instant::now();
    const FORKS: u32 = 200;
    for _ in 0..FORKS {
        std::hint::black_box(base.clone());
    }
    let cow_micros = t0.elapsed().as_micros() as f64 / f64::from(FORKS);
    let t0 = Instant::now();
    const DEEPS: u32 = 20;
    for _ in 0..DEEPS {
        std::hint::black_box(base.deep_clone());
    }
    let deep_micros = t0.elapsed().as_micros() as f64 / f64::from(DEEPS);

    // Plan-cache temperature over one experiment point, run against `db`
    // so the counters can be read back from it afterwards.
    let mut cfg = HarnessConfig::fast();
    cfg.seed = 42;
    cfg.measure = SimDuration::from_secs(10);
    let mut db = base.clone();
    let before = db.stats();
    ExperimentSpec::for_config(cfg.configs[0])
        .mix(&dynamid_bookstore::mixes::browsing())
        .workload(sweep_workload(&cfg, 25))
        .policy(cfg.policy)
        .run(&mut db, &Bookstore::new(BookstoreScale::scaled(cfg.scale)));
    let after = db.stats();
    let hits = after.plan_cache_hits - before.plan_cache_hits;
    let misses = after.plan_cache_misses - before.plan_cache_misses;
    let rate = if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 };

    // Chaos probe: a miniature availability sweep exercising the fault
    // plan, client retries/timeouts, and admission control end to end.
    let chaos_json = if chaos {
        use dynamid_harness::run_availability;
        let mut ccfg = HarnessConfig::fast();
        ccfg.verbose = false;
        ccfg.jobs = 1;
        ccfg.seed = 42;
        ccfg.scale = 0.05;
        ccfg.clients = vec![25];
        ccfg.measure = SimDuration::from_secs(6);
        ccfg.ramp_up = SimDuration::from_secs(2);
        ccfg.ramp_down = SimDuration::from_secs(1);
        let intensities = [0.0, 0.5, 1.0];
        let t0 = Instant::now();
        let data = run_availability(&ccfg, &intensities);
        let secs = t0.elapsed().as_secs_f64();
        let goodput_clean: f64 =
            data.points.iter().filter(|p| p.intensity == 0.0).map(|p| p.goodput_ipm).sum();
        let failed_hostile: u64 = data
            .points
            .iter()
            .filter(|p| p.intensity == 1.0)
            .map(|p| p.errors.failed_attempts())
            .sum();
        let retries: u64 = data.points.iter().map(|p| p.errors.retries).sum();
        let deadlocks: u64 = data.points.iter().map(|p| p.errors.deadlocks).sum();
        // Every sweep point runs the post-run consistency audit and panics
        // on any violation; reaching this line means all points were clean.
        if verbose {
            eprintln!(
                "smoke chaos: {} points in {secs:.3}s, hostile failures {failed_hostile}, \
                 retries {retries}, deadlocks {deadlocks}, audit clean",
                data.points.len()
            );
        }
        format!(
            ",\n  \"chaos\": {{\"points\": {}, \"wall_secs\": {secs:.3}, \
             \"clean_goodput_ipm\": {goodput_clean:.1}, \
             \"hostile_failed_attempts\": {failed_hostile}, \"retries\": {retries}, \
             \"deadlocks\": {deadlocks}, \"consistency_audit\": \"clean\", \
             \"audited_points\": {}, \
             \"equivalent_flags\": \"avail with seed 42, scale 0.05, clients 25, \
             intensities 0,0.5,1\"}}",
            data.points.len(),
            data.points.len()
        )
    } else {
        String::new()
    };

    // Cache probe: the EJB four-tier configuration on the browsing mix,
    // cache off versus the transactional two-layer cache, under the same
    // saturating 500 ms think time the `repro cache --smoke` golden uses.
    // Records hit/miss/invalidation counters and the throughput uplift so
    // the perf history tracks the caching tier alongside raw wall clock.
    let cache_json = {
        use dynamid_harness::{run_cache_sweep, CacheMode, CacheWorkload};
        let mut ccfg = pinned_smoke_cfg(1, 0.1, &[40], 6);
        ccfg.configs = vec![StandardConfig::EjbFourTier];
        let t0 = Instant::now();
        let wl = CacheWorkload::BookstoreBrowsing;
        let data = run_cache_sweep(&ccfg, &[wl], &[1024], &[]);
        let secs = t0.elapsed().as_secs_f64();
        let ejb = StandardConfig::EjbFourTier;
        let off = data.point(wl, ejb, CacheMode::Off, 0, 0, 40).expect("off point");
        let txn = data.point(wl, ejb, CacheMode::Transactional, 1024, 0, 40).expect("txn point");
        let uplift = if off.throughput_ipm > 0.0 {
            txn.throughput_ipm / off.throughput_ipm - 1.0
        } else {
            0.0
        };
        // Both points passed the consistency audit or run_cache_sweep
        // would have panicked before returning.
        if verbose {
            eprintln!(
                "smoke cache: EJB browsing {:.0} -> {:.0} ipm with transactional caching \
                 ({:+.1}%) in {secs:.3}s, q-hit {:.3} m-hit {:.3}, audit clean",
                off.throughput_ipm,
                txn.throughput_ipm,
                uplift * 100.0,
                txn.cache.query_hit_rate(),
                txn.cache.method_hit_rate(),
            );
        }
        format!(
            ",\n  \"cache\": {{\"wall_secs\": {secs:.3}, \
             \"off_ipm\": {:.1}, \"txn_ipm\": {:.1}, \"uplift\": {uplift:.4},\n    \
             \"query\": {{\"hits\": {}, \"misses\": {}, \"invalidations\": {}, \
             \"bypasses\": {}, \"hit_rate\": {:.4}}},\n    \
             \"method\": {{\"hits\": {}, \"misses\": {}, \"invalidations\": {}, \
             \"bypasses\": {}, \"hit_rate\": {:.4}}},\n    \
             \"consistency_audit\": \"clean\", \
             \"equivalent_flags\": \"cache --smoke restricted to C6, clients 40\"}}",
            off.throughput_ipm,
            txn.throughput_ipm,
            txn.cache.query_hits,
            txn.cache.query_misses,
            txn.cache.query_invalidations,
            txn.cache.query_bypasses,
            txn.cache.query_hit_rate(),
            txn.cache.method.hits,
            txn.cache.method.misses,
            txn.cache.method.invalidations,
            txn.cache.method.bypasses,
            txn.cache.method_hit_rate(),
        )
    };

    // Failover probe: the replicated DB tier versus a pinned primary kill
    // on all three failover architectures, no storm. Records the
    // detection-to-promotion latency, election failures, and the goodput
    // the 2-replica tier keeps over the single-DB baseline, so the perf
    // history tracks failover health release over release.
    let failover_json = {
        use dynamid_harness::run_failover;
        let fcfg = pinned_smoke_cfg(1, 0.05, &[40], 6);
        let t0 = Instant::now();
        let data = run_failover(&fcfg, &[0, 2], &[0.0]);
        let secs = t0.elapsed().as_secs_f64();
        // Every point passed the consistency audit or run_failover would
        // have panicked before returning.
        let promoted: u64 = data.points.iter().map(|p| p.errors.failovers).sum();
        let elections_failed: u64 = data.points.iter().map(|p| p.elections_failed).sum();
        let repl_points: Vec<_> = data.points.iter().filter(|p| p.replicas > 0).collect();
        let mean_latency_ms = if repl_points.is_empty() {
            0.0
        } else {
            repl_points.iter().map(|p| p.failover_latency_ms).sum::<f64>()
                / repl_points.len() as f64
        };
        let violations = data.baseline_violations();
        let verdict =
            claim("smoke failover FAILED: replicated goodput lost to the baseline:", &violations);
        if verdict.is_err() {
            return exit_status(verdict);
        }
        if verbose {
            eprintln!(
                "smoke failover: {} points in {secs:.3}s, {promoted} promotions, \
                 mean failover latency {mean_latency_ms:.1} ms, \
                 {elections_failed} failed elections, audit clean",
                data.points.len()
            );
        }
        format!(
            ",\n  \"failover\": {{\"points\": {}, \"wall_secs\": {secs:.3}, \
             \"promotions\": {promoted}, \"mean_failover_latency_ms\": {mean_latency_ms:.3}, \
             \"failed_elections\": {elections_failed}, \"baseline_violations\": {}, \
             \"consistency_audit\": \"clean\", \
             \"equivalent_flags\": \"failover with seed 42, scale 0.05, clients 40, \
             replicas 0,2, intensity 0\"}}",
            data.points.len(),
            violations.len()
        )
    };

    // Flash-crowd probe: a reduced overload grid (one spike intensity,
    // smaller population scale than the golden smoke) demonstrating the
    // metastable collapse and its fix. Records per-arm goodput retention
    // averaged over the three architectures plus the control-engagement
    // counters, so the perf history tracks overload health release over
    // release.
    let overload_json = {
        use dynamid_harness::{run_overload, OverloadMode, OVERLOAD_CONFIGS};
        let ocfg = pinned_smoke_cfg(1, 0.05, &[], 6);
        let t0 = Instant::now();
        let data = run_overload(&ocfg, &[6.0]);
        let secs = t0.elapsed().as_secs_f64();
        // Every point passed the consistency audit or run_overload would
        // have panicked before returning.
        let mean_retention = |mode: OverloadMode| -> f64 {
            let pts: Vec<_> = data.points.iter().filter(|p| p.mode == mode).collect();
            if pts.is_empty() {
                0.0
            } else {
                pts.iter().map(|p| p.retention).sum::<f64>() / pts.len() as f64
            }
        };
        let naive = mean_retention(OverloadMode::Naive);
        let full = mean_retention(OverloadMode::Full);
        let shed: u64 = data.points.iter().map(|p| p.errors.shed).sum();
        let breaker_open: u64 = data.points.iter().map(|p| p.errors.breaker_open).sum();
        let abandoned: u64 = data.points.iter().map(|p| p.errors.abandoned).sum();
        if verbose {
            eprintln!(
                "smoke overload: {} points in {secs:.3}s, mean retention naive {naive:.2} \
                 vs full {full:.2}, {shed} shed, {breaker_open} breaker-denied, audit clean",
                data.points.len()
            );
        }
        format!(
            ",\n  \"flash_crowd\": {{\"points\": {}, \"wall_secs\": {secs:.3}, \
             \"mean_retention_naive\": {naive:.4}, \"mean_retention_full\": {full:.4}, \
             \"shed\": {shed}, \"breaker_denied\": {breaker_open}, \"abandoned\": {abandoned}, \
             \"consistency_audit\": \"clean\", \
             \"equivalent_flags\": \"overload with seed 42, scale 0.05, spike 6x, \
             configs {}\"}}",
            data.points.len(),
            OVERLOAD_CONFIGS.len()
        )
    };

    // Web-farm probe: the round-robin balancer farm (C8 `Lb-WsPhp-DB`)
    // versus the single web server (C1 `WsPhp-DB`) at a web-tier-saturating
    // point of the auction browsing mix — the paper's fig13 regime, where
    // the web server (CPU and its 100 Mb/s NIC), not the database, is the
    // bottleneck. Direct server return keeps the balancer out of the
    // response path, so the two-member farm roughly doubles web-tier
    // capacity; the farm's throughput gain over C1 is the probe's headline
    // number, and the smoke fails if it ever regresses to zero.
    let farm_json = {
        use dynamid_auction::{Auction, AuctionScale};
        use dynamid_workload::WorkloadConfig;
        let scale = 0.05;
        let clients = 3200;
        let base = Benchmark::Auction.build_db(scale, 42);
        let app = Auction::new(AuctionScale::scaled(scale));
        let mix = dynamid_auction::mixes::browsing();
        let t0 = Instant::now();
        let run_one = |config: StandardConfig| {
            let mut db = base.clone();
            let mut w = WorkloadConfig::new(clients);
            w.ramp_up = SimDuration::from_secs(2);
            w.measure = SimDuration::from_secs(8);
            w.ramp_down = SimDuration::from_secs(1);
            w.seed = 42 ^ clients as u64;
            ExperimentSpec::for_config(config)
                .mix(&mix)
                .workload(w)
                .defer_unwind(true)
                .run(&mut db, &app)
        };
        let c1 = run_one(StandardConfig::PhpColocated);
        let c8 = run_one(StandardConfig::WebFarm);
        let secs = t0.elapsed().as_secs_f64();
        let gain =
            if c1.throughput_ipm > 0.0 { c8.throughput_ipm / c1.throughput_ipm - 1.0 } else { 0.0 };
        if gain <= 0.0 {
            eprintln!(
                "smoke web-farm FAILED: C8 auction browsing ({:.0} ipm) shows no gain over \
                 C1 ({:.0} ipm)",
                c8.throughput_ipm, c1.throughput_ipm
            );
            return ExitCode::FAILURE;
        }
        if verbose {
            eprintln!(
                "smoke web-farm: auction browsing at {clients} clients, C1 {:.0} -> C8 {:.0} ipm \
                 ({:+.1}%) in {secs:.3}s (C1 web NIC {:.1} Mb/s vs farm {:.1}+{:.1})",
                c1.throughput_ipm,
                c8.throughput_ipm,
                gain * 100.0,
                c1.nic_of("web").unwrap_or(0.0),
                c8.nic_of("web-1").unwrap_or(0.0),
                c8.nic_of("web-2").unwrap_or(0.0),
            );
        }
        format!(
            ",\n  \"web_farm\": {{\"wall_secs\": {secs:.3}, \"clients\": {clients}, \
             \"c1_ipm\": {:.1}, \"c8_ipm\": {:.1}, \"gain\": {gain:.4}, \
             \"c1_web_nic_mbps\": {:.1}, \"c8_web_nic_mbps\": [{:.1}, {:.1}], \
             \"equivalent_flags\": \"auction-browsing at scale {scale}, seed 42, \
             clients {clients}, configs C1,C8\"}}",
            c1.throughput_ipm,
            c8.throughput_ipm,
            c1.nic_of("web").unwrap_or(0.0),
            c8.nic_of("web-1").unwrap_or(0.0),
            c8.nic_of("web-2").unwrap_or(0.0),
        )
    };

    // Host execution profile: what the simulator costs the *host*, as
    // opposed to the modeled results above (which tests pin down). The
    // recorded per-PR history lives in results/bench_history.json; when it
    // is readable, the current run is compared against the first
    // (baseline) and latest recorded entries — check.sh turns the latter
    // comparison into a regression gate. Looked up relative to the
    // current directory first (how check.sh runs), then relative to the
    // source tree so a smoke run from any directory still gets the
    // comparison.
    let history = fs::read_to_string("results/bench_history.json")
        .or_else(|_| {
            fs::read_to_string(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../results/bench_history.json"
            ))
        })
        .ok();
    let history_totals: Vec<f64> = history
        .as_deref()
        .map(|h| {
            h.split("\"total_wall_secs\":")
                .skip(1)
                .filter_map(|rest| {
                    rest.trim_start()
                        .split(|c: char| !(c.is_ascii_digit() || c == '.'))
                        .next()?
                        .parse()
                        .ok()
                })
                .collect()
        })
        .unwrap_or_default();
    let num_or_null = |v: Option<f64>| match v {
        Some(v) => format!("{v:.3}"),
        None => "null".to_string(),
    };
    let baseline = history_totals.first().copied();
    let latest = history_totals.last().copied();
    let profile = format!(
        "  \"host_profile\": {{\n    \"events\": {all_events}, \"stale_events\": {all_stale}, \
         \"stale_ratio\": {:.4}, \"peak_calendar\": {all_peak},\n    \"figures\": [\n{}\n    ],\n    \
         \"baseline_total_wall_secs\": {}, \"speedup_vs_baseline\": {},\n    \
         \"latest_recorded_total_wall_secs\": {}, \"speedup_vs_latest_recorded\": {},\n    \
         \"history\": {}\n  }}",
        all_stale as f64 / all_events.max(1) as f64,
        profile_json.join(",\n"),
        num_or_null(baseline),
        num_or_null(baseline.map(|b| b / total_secs)),
        num_or_null(latest),
        num_or_null(latest.map(|l| l / total_secs)),
        history.as_deref().map(str::trim).unwrap_or("[]"),
    );

    let json = format!(
        "{{\n  \"generated_by\": \"repro --smoke\",\n  \
         \"timing\": \"min-of-{SMOKE_TIMING_REPS}\",\n  \"figures\": [\n{}\n  ],\n  \
         \"total_wall_secs\": {total_secs:.3},\n{profile},\n  \
         \"plan_cache\": {{\"hits\": {hits}, \"misses\": {misses}, \"hit_rate\": {rate:.4}}},\n  \
         \"snapshot_fork\": {{\"cow_micros\": {cow_micros:.1}, \
         \"deep_clone_micros\": {deep_micros:.1}}}{cache_json}{failover_json}{overload_json}\
         {farm_json}{chaos_json}\n}}\n",
        fig_json.join(",\n"),
    );
    // Written atomically (temp file + rename) so an interrupted run can
    // never leave a torn or half-stale BENCH_repro.json behind — the perf
    // gate's speedup baseline either updates completely or not at all.
    let tmp = "BENCH_repro.json.tmp";
    if let Err(e) = fs::write(tmp, &json).and_then(|()| fs::rename(tmp, "BENCH_repro.json")) {
        eprintln!("could not write BENCH_repro.json: {e}");
        let _ = fs::remove_file(tmp);
        return ExitCode::FAILURE;
    }
    if verbose {
        eprintln!(
            "smoke total {total_secs:.3}s (min-of-{SMOKE_TIMING_REPS} per sweep), \
             plan-cache hit rate {rate:.4}, \
             fork {cow_micros:.1}us vs deep clone {deep_micros:.1}us"
        );
        eprintln!("wrote BENCH_repro.json");
    }
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}\n");
    eprintln!("usage: repro [options] <command>\n\ncommands:");
    for (cmd, help) in COMMANDS {
        eprintln!("  {cmd:<16} {help}");
    }
    eprintln!("\noptions:");
    for f in FLAGS {
        let head = match f.value {
            Some(v) => format!("{} {v}", f.name),
            None => f.name.to_string(),
        };
        eprintln!("  {head:<20} {}", f.help);
    }
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn failover_rejects_unknown_flags() {
        let err = parse_args(&argv(&["failover", "--replicas", "3"]))
            .err()
            .expect("unknown flag must be rejected");
        assert!(err.contains("unknown option --replicas"), "got: {err}");
        // `main` turns every parse error into usage() -> ExitCode::FAILURE,
        // so Err here is the nonzero-exit path.
    }

    #[test]
    fn cache_rejects_unknown_flags() {
        let err = parse_args(&argv(&["cache", "--ttl", "100"]))
            .err()
            .expect("unknown flag must be rejected");
        assert!(err.contains("unknown option --ttl"), "got: {err}");
    }

    #[test]
    fn overload_rejects_unknown_flags() {
        let err = parse_args(&argv(&["overload", "--spike", "6"]))
            .err()
            .expect("unknown flag must be rejected");
        assert!(err.contains("unknown option --spike"), "got: {err}");
        let err = parse_args(&argv(&["--retention", "0.7", "overload", "--smoke"]))
            .err()
            .expect("unknown flag before the target must be rejected too");
        assert!(err.contains("unknown option --retention"), "got: {err}");
    }

    #[test]
    fn overload_smoke_parses_like_the_other_golden_grids() {
        let cli =
            parse_args(&argv(&["--quiet", "--jobs", "4", "--out", "tmp", "overload", "--smoke"]))
                .expect("valid command line");
        assert!(cli.smoke);
        assert_eq!(cli.targets, vec!["overload".to_string()]);
        assert_eq!(cli.out_dir, PathBuf::from("tmp"));
    }

    #[test]
    fn list_flags_share_one_parser() {
        // The comma-list helper trims, rejects empties, and rejects any
        // unparsable element — for both list-valued flags.
        let cli = parse_args(&argv(&["--clients", " 5, 10 ,15", "--config", "C1 ,C4", "cache"]))
            .expect("valid lists");
        assert_eq!(cli.cfg.clients, vec![5, 10, 15]);
        assert_eq!(
            cli.cfg.configs,
            vec![StandardConfig::PhpColocated, StandardConfig::ServletDedicated]
        );
        assert!(parse_args(&argv(&["--clients", "", "cache"])).is_err());
        assert!(parse_args(&argv(&["--clients", "5,,10", "cache"])).is_err());
        assert!(parse_args(&argv(&["--config", "C1,C99", "cache"])).is_err());
    }

    #[test]
    fn front_ended_configs_parse_everywhere() {
        // C7..C9 are first-class: any subcommand's --config accepts them,
        // by code (case-insensitive) or paper name.
        let cli = parse_args(&argv(&["--config", "C7,c8,Lb-Ws-Servlet-DB", "overload"]))
            .expect("front-ended codes parse");
        assert_eq!(
            cli.cfg.configs,
            vec![StandardConfig::ProxyCached, StandardConfig::WebFarm, StandardConfig::TieredFarm]
        );
        assert!(parse_args(&argv(&["--config", "C10", "overload"])).is_err());
    }

    #[test]
    fn known_flags_and_targets_parse() {
        let cli = parse_args(&argv(&[
            "--quiet", "--jobs", "4", "--seed", "9", "--out", "tmp", "failover", "--smoke",
        ]))
        .expect("valid command line");
        assert!(cli.smoke);
        assert_eq!(cli.cfg.jobs, 4);
        assert_eq!(cli.cfg.seed, 9);
        assert!(!cli.cfg.verbose);
        assert_eq!(cli.out_dir, PathBuf::from("tmp"));
        assert_eq!(cli.targets, vec!["failover".to_string()]);
    }

    #[test]
    fn emit_fails_when_the_target_path_is_a_directory() {
        let dir = std::env::temp_dir().join(format!("repro-emit-{}", std::process::id()));
        fs::create_dir_all(dir.join("fig05.csv")).expect("scratch directory");
        let err = emit("# fig05", &dir, &[("fig05.csv", "clients,ipm\n")])
            .expect_err("writing over a directory must fail");
        assert!(err.contains("could not write"), "got: {err}");
        fs::remove_dir_all(&dir).expect("scratch cleanup");
    }

    #[test]
    fn missing_or_malformed_values_are_rejected() {
        assert!(parse_args(&argv(&["--jobs"])).is_err());
        assert!(parse_args(&argv(&["--jobs", "many", "cache"])).is_err());
        assert!(parse_args(&argv(&["--config", "C99", "cache"])).is_err());
        assert!(parse_args(&argv(&[])).is_err(), "no target given must error");
        // --smoke alone is a complete command line (targets optional).
        assert!(parse_args(&argv(&["--smoke"])).is_ok());
    }

    #[test]
    fn chaos_without_smoke_is_rejected() {
        let err = parse_args(&argv(&["--chaos", "fig05"]))
            .err()
            .expect("--chaos outside --smoke would be silently ignored");
        assert!(err.contains("--chaos"), "got: {err}");
        assert!(parse_args(&argv(&["--smoke", "--chaos"])).unwrap().chaos);
    }

    #[test]
    fn single_point_sweeps_reject_a_client_list() {
        // avail and failover run every point at the first client count, so
        // a longer list would be silently truncated.
        for target in ["avail", "failover"] {
            let err = parse_args(&argv(&["--clients", "10,25", target]))
                .err()
                .expect("a client list must be rejected");
            assert!(err.contains("--clients"), "{target}: got: {err}");
            assert!(parse_args(&argv(&["--clients", "10", target])).is_ok());
        }
        let err = parse_args(&argv(&["--clients", "10,25", "fig05", "avail"]))
            .err()
            .expect("avail anywhere in the target list counts");
        assert!(err.contains("--clients"), "got: {err}");
        assert!(parse_args(&argv(&["--clients", "10,25", "fig05"])).is_ok());
    }
}
