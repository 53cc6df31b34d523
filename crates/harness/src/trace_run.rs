//! Traced experiment points: span capture, Chrome-trace export, and the
//! aggregated bottleneck report behind `repro trace`.
//!
//! A traced point is an ordinary figure sweep point with span recording
//! switched on: the simulation emits every CPU/network/lock/queue
//! interval and the middleware wraps its stages (web serve, AJP hop,
//! handler invoke, CMP entity access, SQL statement) in hierarchical
//! spans. The capture exports two artifacts — a Chrome-trace JSON
//! timeline and a [`BottleneckReport`] CSV — and every run cross-checks
//! the trace-derived per-tier CPU utilizations against the
//! processor-sharing counters the untraced figures report, within 1%.

use crate::figures::{make_app, mix_for, sweep_workload, FigurePair};
use crate::HarnessConfig;
use dynamid_core::{CostModel, StandardConfig};
use dynamid_trace::{chrome_trace_json, verify_capture, BottleneckReport, TraceCapture};
use dynamid_workload::{ExperimentResult, ExperimentSpec};

/// The absolute CPU-utilization tolerance of the PS cross-check.
pub const CPU_SHARE_TOLERANCE: f64 = 0.01;

/// One traced run: the ordinary experiment result (whose metrics are
/// bit-identical to the untraced run at the same seed), the raw span
/// capture, and the aggregated bottleneck report.
#[derive(Debug)]
pub struct TracedRun {
    /// The deployment traced.
    pub config: StandardConfig,
    /// Emulated clients offered.
    pub clients: usize,
    /// The full experiment result, `trace` populated.
    pub result: ExperimentResult,
    /// The aggregated report derived from the capture.
    pub report: BottleneckReport,
}

impl TracedRun {
    /// The raw capture (machine/interaction tables, jobs, intervals).
    pub fn capture(&self) -> &TraceCapture {
        self.result.trace.as_ref().expect("traced run always captures")
    }

    /// Renders the capture as Chrome-trace JSON (load in
    /// `chrome://tracing` or Perfetto).
    pub fn chrome_json(&self) -> String {
        chrome_trace_json(self.capture())
    }

    /// Renders the bottleneck report as CSV (byte-stable for a fixed
    /// seed).
    pub fn bottleneck_csv(&self) -> String {
        self.report.to_csv(&self.capture().machines)
    }

    /// Validates the capture: span trees well-formed, and trace-derived
    /// per-machine CPU utilization within
    /// [`CPU_SHARE_TOLERANCE`] of the processor-sharing counters.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn cross_check(&self) -> Result<(), String> {
        verify_capture(self.capture())?;
        self.report.check_cpu_shares(&self.result.resources.cpu_util, CPU_SHARE_TOLERANCE)
    }
}

/// The client count a traced point runs at when the sweep grid does not
/// pin one: near the saturation knee, where attribution is interesting.
pub fn default_trace_clients(pair: &FigurePair) -> usize {
    crate::figures::default_clients(pair.benchmark)[3]
}

/// Runs one traced point of `pair` under `config`.
///
/// Uses the first entry of `cfg.clients` (or
/// [`default_trace_clients`]), the same point seed as the untraced
/// sweep, and the same phase structure — so the metrics half of the
/// result is bit-identical to the corresponding untraced sweep point.
pub fn run_traced(pair: FigurePair, config: StandardConfig, cfg: &HarnessConfig) -> TracedRun {
    let clients = cfg.clients.first().copied().unwrap_or_else(|| default_trace_clients(&pair));
    let mix = mix_for(&pair);
    let mut db = pair.benchmark.build_db(cfg.scale, cfg.seed);
    let app = make_app(pair.benchmark, cfg.scale);
    let result = ExperimentSpec::for_config(config)
        .mix(&mix)
        .costs(CostModel::default())
        .workload(sweep_workload(cfg, clients))
        .policy(cfg.policy)
        .tracing(true)
        .run(&mut db, app.as_ref());
    let report =
        BottleneckReport::from_capture(result.trace.as_ref().expect("tracing was requested"));
    TracedRun { config, clients, result, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find_figure;

    fn tiny() -> HarnessConfig {
        let mut cfg = HarnessConfig::smoke();
        cfg.clients = vec![20];
        cfg
    }

    #[test]
    fn traced_point_matches_untraced_metrics_and_passes_cross_check() {
        let cfg = tiny();
        let pair = find_figure("fig05").unwrap();
        let traced = run_traced(pair, StandardConfig::PhpColocated, &cfg);
        assert!(traced.result.metrics.completed > 0);
        traced.cross_check().expect("span trees and CPU shares check out");
        // Same seed, tracing off: the figure-facing numbers must agree.
        let data = crate::run_figure(
            pair,
            &HarnessConfig { configs: vec![StandardConfig::PhpColocated], ..cfg },
        );
        let p = &data.curves[0].points[0];
        assert_eq!(p.ipm, traced.result.throughput_ipm, "tracing perturbed throughput");
        assert_eq!(p.cpu, traced.result.resources.cpu_util, "tracing perturbed CPU counters");
    }

    #[test]
    fn artifacts_are_deterministic_and_nonempty() {
        let cfg = tiny();
        let pair = find_figure("fig11").unwrap();
        let a = run_traced(pair, StandardConfig::EjbFourTier, &cfg);
        let b = run_traced(pair, StandardConfig::EjbFourTier, &cfg);
        assert_eq!(a.chrome_json(), b.chrome_json(), "chrome trace not byte-stable");
        assert_eq!(a.bottleneck_csv(), b.bottleneck_csv(), "bottleneck CSV not byte-stable");
        assert!(a.chrome_json().contains("\"traceEvents\""));
        assert!(a.bottleneck_csv().lines().count() > 4);
        // Four-tier deployment: the clients machine plus all four server
        // machines show up in the capture's name table.
        assert_eq!(a.capture().machines.len(), 5);
    }
}
