//! Rendering figure data as markdown tables and CSV files.

use crate::figures::{ConfigCurve, FigureData};
use std::fmt::Write as _;

/// Markdown throughput table: one row per client count, one column per
/// configuration (the paper's Figures 5/7/9/11/13 as a table).
pub fn throughput_markdown(data: &FigureData) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "### {} — throughput (interactions/minute) [{}]",
        data.pair.title, data.pair.throughput_id
    );
    let _ = write!(out, "\n| clients |");
    for c in &data.curves {
        let _ = write!(out, " {} |", c.config.paper_name());
    }
    let _ = write!(out, "\n|---|");
    for _ in &data.curves {
        let _ = write!(out, "---|");
    }
    let _ = writeln!(out);
    let n_points = data.curves.first().map_or(0, |c| c.points.len());
    for i in 0..n_points {
        let clients = data.curves[0].points[i].clients;
        let _ = write!(out, "| {clients} |");
        for c in &data.curves {
            let _ = write!(out, " {:.0} |", c.points[i].ipm);
        }
        let _ = writeln!(out);
    }
    let _ = write!(out, "| **peak** |");
    for c in &data.curves {
        let _ = write!(out, " **{:.0}** |", c.peak().ipm);
    }
    let _ = writeln!(out);
    out
}

/// Markdown CPU-utilization table at each configuration's peak (the
/// paper's Figures 6/8/10/12/14).
pub fn cpu_markdown(data: &FigureData) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "### {} — CPU utilization at peak throughput (%) [{}]",
        data.pair.title, data.pair.cpu_id
    );
    let _ = writeln!(
        out,
        "\n| configuration | WebServer | Servlet | EJB | Database | web NIC Mb/s | lock wait ms/itx |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|");
    for c in &data.curves {
        let p = c.peak();
        let fmt = |v: Option<f64>| match v {
            Some(u) => format!("{:.0}", u * 100.0),
            None => "—".to_string(),
        };
        // When the servlet shares the web machine its CPU is reported
        // under WebServer, as in the paper.
        let servlet = if c.config.has_dedicated_container() { p.cpu_of("servlet") } else { None };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {:.1} | {:.2} |",
            c.config.paper_name(),
            fmt(p.web_cpu()),
            fmt(servlet),
            fmt(p.cpu_of("ejb")),
            fmt(p.cpu_of("db")),
            p.web_nic().unwrap_or(0.0),
            p.lock_wait_ms_per_interaction,
        );
    }
    out
}

/// CSV of the full sweep (one line per config × client count).
pub fn sweep_csv(data: &FigureData) -> String {
    let mut out = String::from(
        "figure,config,clients,ipm,error_rate,web_cpu,servlet_cpu,ejb_cpu,db_cpu,web_nic_mbps,lock_wait_ms,latency_p50_ms,latency_p90_ms\n",
    );
    for c in &data.curves {
        for p in &c.points {
            let f = |v: Option<f64>| v.map_or(String::new(), |u| format!("{u:.4}"));
            let _ = writeln!(
                out,
                "{},{},{},{:.1},{:.4},{},{},{},{},{:.2},{:.3},{:.1},{:.1}",
                data.pair.throughput_id,
                c.config.paper_name(),
                p.clients,
                p.ipm,
                p.error_rate,
                f(p.web_cpu()),
                f(p.cpu_of("servlet")),
                f(p.cpu_of("ejb")),
                f(p.cpu_of("db")),
                p.web_nic().unwrap_or(0.0),
                p.lock_wait_ms_per_interaction,
                p.latency_p50_ms,
                p.latency_p90_ms,
            );
        }
    }
    out
}

/// One-line peak summary per configuration (the paper's in-text numbers).
pub fn peak_summary_line(curve: &ConfigCurve) -> String {
    let p = curve.peak();
    format!(
        "{:<22} peak {:>9.0} ipm at {:>6} clients (db {:>3.0}%, web {:>3.0}%)",
        curve.config.paper_name(),
        p.ipm,
        p.clients,
        p.cpu_of("db").unwrap_or(0.0) * 100.0,
        p.web_cpu().unwrap_or(0.0) * 100.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{find_figure, run_figure};
    use crate::HarnessConfig;

    #[test]
    fn reports_render() {
        let cfg = HarnessConfig::smoke();
        let data = run_figure(find_figure("fig05").unwrap(), &cfg);
        let md = throughput_markdown(&data);
        assert!(md.contains("fig05"));
        assert!(md.contains("WsPhp-DB"));
        assert!(md.contains("**peak**"));
        let cpu = cpu_markdown(&data);
        assert!(cpu.contains("Database"));
        let csv = sweep_csv(&data);
        // Header + one line per config x point.
        let expected = 1 + cfg.configs.len() * cfg.clients.len();
        assert_eq!(csv.lines().count(), expected);
        let line = peak_summary_line(&data.curves[0]);
        assert!(line.contains("peak"));
    }
}
