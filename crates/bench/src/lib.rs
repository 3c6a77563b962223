//! Shared harness for the reproduction binaries (`repro_*`): trace
//! construction at a chosen scale, `--seed` parsing, and table rendering.
//!
//! `repro_paper` and `repro_cluster` size their traces by the
//! `LAZYCTRL_SCALE` environment variable, parsed by [`Scale`] (the same
//! parser sizes the scenario testbeds; any other value is an error, not a
//! silent fallback):
//!
//! * `quick` (default) — laptop-scale versions of each experiment
//!   (40–340 switches, 10⁵-ish flows); minutes end to end;
//! * `paper` — the paper's full topology sizes (272 switches / 6509 hosts
//!   for the real trace, 2713 / 65090 for Syn-A/B/C); slower but the same
//!   code path;
//! * `x10` — 10× the paper's synthetic topology (~27k switches / ~650k
//!   hosts, flow count unchanged): the multi-core stress tier for the
//!   sharded engine.
//!
//! Absolute numbers scale with flow counts; the *shapes* the paper reports
//! (orderings, ratios, crossovers) are the reproduction target — see
//! `DESIGN.md` §1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lazyctrl_trace::expand::expand;
use lazyctrl_trace::realistic::{generate as generate_real, RealTraceConfig};
use lazyctrl_trace::synthetic::{generate as generate_syn, SyntheticConfig};
use lazyctrl_trace::Trace;

pub use lazyctrl_core::Scale;

/// Reads `LAZYCTRL_SCALE` ([`Scale::from_env`]); exits with status 2 on an
/// unrecognised value, so a typo cannot pass for a quick-scale run.
pub fn scale_from_env() -> Scale {
    Scale::from_env().unwrap_or_else(|err| {
        eprintln!("{err}");
        std::process::exit(2);
    })
}

/// The "real" trace surrogate at the chosen scale. The real trace is
/// pinned to the paper's measured topology, so `X10` falls back to paper.
pub fn real_trace(scale: Scale) -> Trace {
    let quick = RealTraceConfig {
        num_flows: 120_000,
        ..RealTraceConfig::small()
    };
    generate_real(&scale.pick(quick, RealTraceConfig::default()))
}

/// The §V-D expanded trace: +30% flows among fresh pairs in hours 8–24.
pub fn expanded_trace(base: &Trace) -> Trace {
    expand(base, 0.30, 8.0, 24.0, 0xE0A)
}

/// A synthetic trace family member at the chosen scale.
fn synthetic_trace(cfg: SyntheticConfig, scale: Scale) -> Trace {
    let cfg = match scale {
        Scale::Quick => cfg.scaled_down(8),
        Scale::Paper => cfg,
        Scale::X10 => cfg.scaled_up(10),
    };
    generate_syn(&cfg)
}

/// Syn-A alone at the chosen scale (the perf/cluster workloads; cheaper
/// than materializing the whole [`synthetic_traces`] family).
pub fn syn_a_trace(scale: Scale) -> Trace {
    synthetic_trace(SyntheticConfig::syn_a(), scale)
}

/// Syn-A/B/C at the chosen scale.
pub fn synthetic_traces(scale: Scale) -> Vec<Trace> {
    [
        SyntheticConfig::syn_a(),
        SyntheticConfig::syn_b(),
        SyntheticConfig::syn_c(),
    ]
    .into_iter()
    .map(|cfg| synthetic_trace(cfg, scale))
    .collect()
}

/// Renders an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Parses a `--seed` value: decimal, or hexadecimal after `0x` (the form
/// the bins print seeds in, e.g. `seed 0xc1`). `None` on anything else.
pub fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_seed_accepts_decimal_and_hex() {
        assert_eq!(parse_seed("7"), Some(7));
        assert_eq!(parse_seed("0xc1"), Some(0xc1));
        assert_eq!(parse_seed("0xC1"), Some(0xc1));
        assert_eq!(parse_seed(""), None);
        assert_eq!(parse_seed("0x"), None);
        assert_eq!(parse_seed("seven"), None);
        assert_eq!(parse_seed("0xzz"), None);
        assert_eq!(parse_seed("-1"), None);
    }

    #[test]
    fn scaled_up_grows_topology_but_not_flows() {
        let base = SyntheticConfig::syn_a();
        let big = SyntheticConfig::syn_a().scaled_up(10);
        assert_eq!(big.tenants.num_switches, base.tenants.num_switches * 10);
        assert_eq!(big.tenants.num_hosts, base.tenants.num_hosts * 10);
        assert_eq!(big.hot_pairs, base.hot_pairs * 10);
        assert_eq!(big.num_flows, base.num_flows);
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "2".into()],
            ],
        );
        assert!(t.contains("name"));
        assert!(t.contains("long-name"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn quick_traces_have_expected_shape() {
        let real = real_trace(Scale::Quick);
        assert_eq!(real.topology.num_switches, 40);
        assert_eq!(real.num_flows(), 120_000);
        let syn = synthetic_traces(Scale::Quick);
        assert_eq!(syn.len(), 3);
        assert_eq!(syn[0].name, "syn-a");
        let exp = expanded_trace(&real);
        assert!(exp.num_flows() > real.num_flows());
    }
}
