//! Regenerates the paper's evaluation — Table II, Figs. 6–9, §V-D storage
//! and §V-E cold-cache latency — and checks each shape it reports as a
//! claim row.
//!
//! Every trace is built once at `LAZYCTRL_SCALE` and every simulation runs
//! once: Fig. 7's five runs at seed 7 also feed Figs. 8 and 9, and §V-E
//! adds two cold-cache runs. Each claim states the outcome expected at the
//! running scale; the binary exits 1 when any outcome differs, a known
//! deviation that starts to hold included.
//!
//! Traces are sized by the `LAZYCTRL_SCALE` environment variable, parsed
//! by [`Scale`] (the parser that also sizes the scenario testbeds
//! `repro_scenario` runs; any other value is an error, not a silent
//! fallback):
//!
//! * `quick` (default) — laptop-scale versions of each experiment
//!   (40–340 switches, 10⁵-ish flows);
//! * `paper` — the paper's full topology sizes (272 switches / 6509 hosts
//!   for the real trace, 2713 / 65090 for Syn-A/B/C); slower but the same
//!   code path.
//!
//! Absolute numbers scale with flow counts; the *shapes* the paper reports
//! (orderings, ratios, crossovers) are the reproduction target — see
//! `DESIGN.md` §1.
//!
//! ```sh
//! cargo run --release -p lazyctrl-bench --bin repro_paper
//! ```

use std::iter::once;
use std::process::ExitCode;
use std::time::Instant;

use lazyctrl_bloom::BloomFilter;
use lazyctrl_core::scenarios::{cold_cache, ColdCacheReport};
use lazyctrl_core::{
    ControlMode, Experiment, ExperimentConfig, ExperimentReport, Scale, SeriesPoint,
};
use lazyctrl_net::{MacAddr, SwitchId};
use lazyctrl_partition::{metrics, mlkp, MlkpConfig, Sgi, SgiConfig, WeightedGraph};
use lazyctrl_switch::{build_gfib_update, Gfib};
use lazyctrl_trace::expand::expand;
use lazyctrl_trace::realistic::{generate as generate_real, RealTraceConfig};
use lazyctrl_trace::synthetic::{generate as generate_syn, SyntheticConfig};
use lazyctrl_trace::{stats, IntensityMatrix, Trace};

/// Reads `LAZYCTRL_SCALE` ([`Scale::from_env`]); exits with status 2 on an
/// unrecognised value, so a typo cannot pass for a quick-scale run.
fn scale_from_env() -> Scale {
    Scale::from_env().unwrap_or_else(|err| {
        eprintln!("{err}");
        std::process::exit(2);
    })
}

/// The "real" trace surrogate at the chosen scale.
fn real_trace(scale: Scale) -> Trace {
    let quick = RealTraceConfig {
        num_flows: 120_000,
        ..RealTraceConfig::small()
    };
    generate_real(&scale.pick(quick, RealTraceConfig::default()))
}

/// The §V-D expanded trace: +30% flows among fresh pairs in hours 8–24.
fn expanded_trace(base: &Trace) -> Trace {
    expand(base, 0.30, 8.0, 24.0, 0xE0A)
}

/// Syn-A/B/C at the chosen scale.
fn synthetic_traces(scale: Scale) -> Vec<Trace> {
    [
        SyntheticConfig::syn_a(),
        SyntheticConfig::syn_b(),
        SyntheticConfig::syn_c(),
    ]
    .into_iter()
    .map(|cfg| match scale {
        Scale::Quick => cfg.scaled_down(8),
        Scale::Paper => cfg,
    })
    .map(|cfg| generate_syn(&cfg))
    .collect()
}

/// Renders an aligned text table.
fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
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

/// Timing claims take the best of this many repeats.
const REPEATS: usize = 3;

/// A claim's expected outcome: the paper's statement holds, or it is a
/// known deviation.
const HOLDS: bool = true;
const DEVIATES: bool = false;

/// One scoreboard row: the paper's statement, what the run measured,
/// whether the statement held, and whether it is expected to hold at the
/// running scale.
#[derive(Debug, Clone, PartialEq)]
struct Claim {
    statement: &'static str,
    measured: String,
    holds: bool,
    expected: bool,
}

/// Claims whose outcome differs from their expectation, either way: a
/// known deviation that starts to hold is one too, so fixing it forces
/// its expectation to change.
fn mismatches(claims: &[Claim]) -> Vec<&Claim> {
    claims.iter().filter(|c| c.holds != c.expected).collect()
}

/// The claim rows, left-aligned (statements are prose), mismatches marked.
fn render_claims(claims: &[Claim]) -> String {
    let word = |holds: bool| if holds { "holds" } else { "deviates" };
    let width = claims.iter().map(|c| c.statement.chars().count()).max();
    let width = width.unwrap_or(0);
    let mut out = format!("outcome   expected  {:<width$}  measured\n", "claim");
    for c in claims {
        let (outcome, expected, ok) = (word(c.holds), word(c.expected), c.holds == c.expected);
        let mark = if ok { "" } else { "  <- MISMATCH" };
        let (statement, measured) = (c.statement, &c.measured);
        out += &format!("{outcome:<8}  {expected:<8}  {statement:<width$}  {measured}{mark}\n");
    }
    out
}

/// One result: its title and table, and the claims read off it.
type Section = (String, Vec<Claim>);

fn main() -> ExitCode {
    let scale = scale_from_env();
    let label = scale.label();
    println!("LazyCtrl paper scoreboard (scale: {label})\n");
    let real = real_trace(scale);
    let expanded = expanded_trace(&real);
    let synthetic = synthetic_traces(scale);
    let graph = |t: &Trace| IntensityMatrix::from_trace(t).to_graph();
    let graphs: Vec<WeightedGraph> = synthetic.iter().map(graph).collect();
    let day = DayRuns::run(&real, &expanded);

    let mut claims = Vec::new();
    for (table, section_claims) in [
        table2(scale, &real, &synthetic),
        fig6a(&graphs),
        fig6b(&graphs),
        storage(),
        coldcache(),
        fig7(scale, &day),
        fig8(&day),
        fig9(scale, &day),
    ] {
        println!("{table}");
        claims.extend(section_claims);
    }
    println!("Claims (scale: {label})\n\n{}", render_claims(&claims));
    let bad = mismatches(&claims).len();
    if bad > 0 {
        eprintln!("{bad} claim(s) differ from the outcome expected at this scale");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn table2(scale: Scale, real: &Trace, synthetic: &[Trace]) -> Section {
    let paper_flows = ["271M", "2720M", "3806M", "5071M"];
    let paper_centrality = ["0.85", "0.85", "0.72", "0.61"];
    let traces = once(real).chain(synthetic);
    let stats: Vec<_> = traces.map(|t| stats::compute(t, 5, 0xAB)).collect();
    let pct = |v: Option<f64>| v.map_or_else(|| "N/A".into(), |v| format!("{v:.0}"));
    let row = |(s, (flows, centrality)): (&stats::TraceStats, (&str, &str))| {
        vec![
            s.name.clone(),
            format!("{}", s.num_flows),
            format!("{}", s.distinct_pairs),
            pct(s.p),
            pct(s.q),
            format!("{:.2}", s.avg_centrality),
            format!("{:.1}%", s.inter_group_fraction * 100.0),
            format!("{:.2}", s.top10_share),
            flows.to_owned(),
            centrality.to_owned(),
        ]
    };
    let paper = paper_flows.into_iter().zip(paper_centrality);
    let rows: Vec<_> = stats.iter().zip(paper).map(row).collect();
    let headers = "trace flows pairs p(%) q(%) centrality inter-group top10-share paper-flows \
                   paper-centrality";
    let table = render_table(&headers.split_whitespace().collect::<Vec<_>>(), &rows);

    let c = |i: usize| stats[i].avg_centrality;
    let inter = stats[0].inter_group_fraction;
    let claims = vec![
        Claim {
            statement: "T2: centrality syn-a > syn-b > syn-c",
            measured: format!("{:.2} / {:.2} / {:.2}", c(1), c(2), c(3)),
            holds: c(1) > c(2) && c(2) > c(3),
            expected: scale.pick(DEVIATES, HOLDS),
        },
        Claim {
            statement: "T2: real-trace inter-group share < 9.8 %",
            measured: format!("{:.1} %", inter * 100.0),
            holds: inter < 0.098,
            expected: HOLDS,
        },
    ];
    let title = "Table II — trace characteristics";
    (format!("{title}\n\n{table}"), claims)
}

/// A table of one labelled row per sweep point and one cell per trace.
fn sweep_table(header: &str, xs: &[usize], cells: &[Vec<f64>], fmt: fn(f64) -> String) -> String {
    let row = |(x, row): (&usize, &Vec<f64>)| -> Vec<String> {
        let cells = row.iter().map(|&v| fmt(v));
        once(x.to_string()).chain(cells).collect()
    };
    let rows: Vec<_> = xs.iter().zip(cells).map(row).collect();
    render_table(&[header, "syn-a", "syn-b", "syn-c"], &rows)
}

/// Each trace's value at the first and at the last sweep point.
fn ends(cells: &[Vec<f64>], unit: f64) -> String {
    let (first, last) = (&cells[0], &cells[cells.len() - 1]);
    let end = |(a, b): (&f64, &f64)| format!("{:.1} → {:.1}", a * unit, b * unit);
    let ends: Vec<String> = first.iter().zip(last).map(end).collect();
    ends.join(" / ")
}

fn fig6a(graphs: &[WeightedGraph]) -> Section {
    // The paper sweeps 5..140 groups at full scale; scale the sweep to the
    // topology so group sizes stay meaningful.
    let n = graphs[0].num_vertices();
    let ks = [5, 10, 20, 40, 60, 80, 100, 120, 140];
    let ks: Vec<usize> = ks.into_iter().filter(|&k| k * 2 <= n).collect();
    // Size-constrained, as in IniGroup: k groups of at most ceil(n/k)·1.1
    // switches (the paper's roughly-equal parts).
    let w_inter = |k: usize, g: &WeightedGraph| {
        let cap = (g.num_vertices() as f64 / k as f64 * 1.1).ceil();
        let cfg = MlkpConfig::new(k).with_max_part_weight(cap).with_seed(0x6a);
        metrics::normalized_inter_group_intensity(g, &mlkp(g, &cfg))
    };
    let per_trace = |k: usize| graphs.iter().map(|g| w_inter(k, g)).collect();
    let w: Vec<Vec<f64>> = ks.iter().map(|&k| per_trace(k)).collect();
    let table = sweep_table("#groups", &ks, &w, |v| format!("{:.1}%", v * 100.0));
    let pairs: Vec<String> = graphs.iter().map(|g| g.num_edges().to_string()).collect();
    let pairs = pairs.join(" / ");

    let rising = (0..graphs.len()).all(|t| w.windows(2).all(|p| p[0][t] < p[1][t]));
    let ordered = w.iter().all(|r| r[0] < r[1] && r[1] < r[2]);
    let claims = vec![Claim {
        statement: "6a: W_inter rises with k; syn-a < syn-b < syn-c in every row",
        measured: format!("{} %", ends(&w, 100.0)),
        holds: rising && ordered,
        expected: HOLDS,
    }];
    let title = "Fig. 6(a) — normalized inter-group traffic intensity vs #groups";
    let sizes = format!("intensity graphs: {n} switches; {pairs} communicating pairs");
    (format!("{title}\n\n{sizes}\n\n{table}"), claims)
}

/// Runs `f` once, returning its wall time in ms and its result.
fn time_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

fn fig6b(graphs: &[WeightedGraph]) -> Section {
    let n = graphs[0].num_vertices();
    // The paper's limits, scaled to the topology.
    let limits = [50, 100, 200, 300, 400, 500, 600].map(|l| (l * n / 2713).max(4));
    let best_ms = |limit: usize, g: &WeightedGraph| {
        let cfg = MlkpConfig::new(n.div_ceil(limit)).with_seed(0x6b);
        let cfg = cfg.with_max_part_weight(limit as f64);
        let times = (0..REPEATS).map(|_| time_ms(|| mlkp(g, &cfg)).0);
        times.fold(f64::INFINITY, f64::min)
    };
    let per_trace = |l: usize| graphs.iter().map(|g| best_ms(l, g)).collect();
    let ms: Vec<Vec<f64>> = limits.iter().map(|&l| per_trace(l)).collect();
    let table = sweep_table("size limit", &limits, &ms, |v| format!("{v:.1} ms"));

    // IniGroup vs IncUpdate: group, shift traffic, time one repair.
    let (g, limit) = (&graphs[0], limits[limits.len() / 2]);
    let mut shifted = g.clone();
    (0..8).for_each(|i| shifted.add_edge(i, n / 2 + i, 1e4));
    let (mut ini, mut inc) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPEATS {
        let cfg = SgiConfig::new(limit).with_thresholds(0.0, 0.0).with_seed(1);
        let (ini_ms, mut sgi) = time_ms(|| Sgi::ini_group(g.clone(), cfg));
        sgi.set_intensity(shifted.clone());
        let max_pairs = sgi.config().max_merge_rounds;
        let (inc_ms, _) = time_ms(|| sgi.par_inc_update(f64::INFINITY, max_pairs));
        (ini, inc) = (ini.min(ini_ms), inc.min(inc_ms));
    }
    let speedup = ini / inc.max(1e-6);

    let shrinks = ms[0].iter().zip(&ms[ms.len() - 1]).all(|(a, b)| b < a);
    let claims = vec![
        Claim {
            statement: "6b: grouping at the largest limit beats the smallest, per trace",
            measured: format!("{} ms", ends(&ms, 1.0)),
            holds: shrinks,
            expected: HOLDS,
        },
        Claim {
            statement: "6b: IncUpdate > 10× faster than IniGroup",
            measured: format!("{speedup:.1}× ({ini:.2} vs {inc:.2} ms, limit {limit})"),
            holds: speedup > 10.0,
            expected: DEVIATES,
        },
    ];
    let title = "Fig. 6(b) — grouping computation time vs group size limit";
    (format!("{title}\n\nswitches: {n}\n\n{table}"), claims)
}

fn storage() -> Section {
    // 6509 hosts / 272 switches, in the paper's geometry: one filter of
    // 16 × 128 B = 2048 B per peer.
    let hosts_per_switch = 24;
    let mut filter = BloomFilter::new(2048 * 8, 7);
    (0..hosts_per_switch).for_each(|h| filter.insert(MacAddr::for_host(h).octets()));
    let paper_bytes = |group_size: usize| (group_size - 1) * filter.storage_bytes();
    let mut rows = Vec::new();
    for group_size in [10usize, 23, 46, 92, 184] {
        // Our adaptive geometry (sized for the actual host count at 0.1%).
        let mut gfib = Gfib::new();
        for p in 0..group_size as u64 - 1 {
            let macs = (0..hosts_per_switch).map(|h| MacAddr::for_host(p << 32 | h));
            let id = SwitchId::new(p as u32);
            gfib.apply_update(&build_gfib_update(id, 1, macs));
        }
        rows.push(vec![
            format!("{group_size}"),
            format!("{}", group_size - 1),
            format!("{}", paper_bytes(group_size)),
            format!("{:.4}%", filter.estimated_fp_rate() * 100.0),
            format!("{}", gfib.storage_bytes()),
        ]);
    }
    let headers = "group size|filters|paper-geometry bytes|est. fp rate|adaptive bytes";
    let table = render_table(&headers.split('|').collect::<Vec<_>>(), &rows);

    // Measured FP rate at the paper's exact example point.
    let probes = 200_000u64;
    let fps = (0..probes).filter(|i| filter.contains(MacAddr::for_host(1_000_000 + i).octets()));
    let fp = fps.count() as f64 / probes as f64;
    let bytes = paper_bytes(46);
    let claims = vec![Claim {
        statement: "§V-D: the 46-switch row is 92 160 B; measured FP < 0.1 %",
        measured: format!("{bytes} B, {:.4} % over {probes} probes", fp * 100.0),
        holds: bytes == 92_160 && fp < 0.001,
        expected: HOLDS,
    }];
    let title = "§V-D — G-FIB storage overhead and false-positive rate";
    (format!("{title}\n\n{table}"), claims)
}

fn coldcache() -> Section {
    let lazy = cold_cache(ControlMode::LazyStatic, 0xCC);
    let base = cold_cache(ControlMode::Baseline, 0xCC);
    let row = |mode: &str, r: &ColdCacheReport, [intra, inter]: [&str; 2]| -> Vec<String> {
        let a = format!("{:.2}", r.intra_group_ms);
        let b = format!("{:.2}", r.inter_group_ms);
        vec![mode.into(), a, b, intra.into(), inter.into()]
    };
    let lazy_row = row("lazyctrl", &lazy, ["0.83", "5.38"]);
    let rows = [lazy_row, row("openflow", &base, ["15.06", "15.06"])];
    let (intra, inter) = (lazy.intra_group_ms, lazy.inter_group_ms);
    let headers = "mode|intra (ms)|inter (ms)|paper intra|paper inter";
    let table = render_table(&headers.split('|').collect::<Vec<_>>(), &rows);
    let speedup = base.intra_group_ms / intra.max(1e-9);
    let claims = vec![Claim {
        statement: "§V-E: OpenFlow intra ≥ 10× LazyCtrl intra; LazyCtrl intra < inter",
        measured: format!("{speedup:.1}×, {intra:.2} < {inter:.2} ms"),
        holds: speedup >= 10.0 && intra < inter,
        expected: HOLDS,
    }];
    let title = "§V-E — cold-cache first-packet latency";
    (format!("{title}\n\n{table}"), claims)
}

/// Fig. 7's five runs at seed 7; Figs. 8 and 9 read the same reports.
struct DayRuns {
    /// The trace's length: tables and windows stop here, before the run's
    /// drain hour.
    hours: f64,
    openflow: ExperimentReport,
    static_real: ExperimentReport,
    dynamic_real: ExperimentReport,
    static_exp: ExperimentReport,
    dynamic_exp: ExperimentReport,
}

impl DayRuns {
    fn run(real: &Trace, expanded: &Trace) -> DayRuns {
        let group_limit = (real.topology.num_switches / 4).max(4);
        let run = |mode, trace: &Trace| {
            let cfg = ExperimentConfig::new(mode).with_seed(7);
            let r = Experiment::new(trace.clone(), cfg.with_group_size_limit(group_limit)).run();
            let (mode, trace, msgs) = (&r.mode, &r.trace, r.controller_messages);
            eprintln!("[{mode} on {trace}] controller messages: {msgs}");
            r
        };
        DayRuns {
            hours: real.duration_hours(),
            openflow: run(ControlMode::Baseline, real),
            static_real: run(ControlMode::LazyStatic, real),
            dynamic_real: run(ControlMode::LazyDynamic, real),
            static_exp: run(ControlMode::LazyStatic, expanded),
            dynamic_exp: run(ControlMode::LazyDynamic, expanded),
        }
    }

    /// One row per `width`-hour bucket up to the trace's end, one column
    /// per series; a bucket a series lacks reads 0, as its own gaps do.
    fn table(&self, width: f64, columns: &[(&str, &[SeriesPoint])], digits: usize) -> String {
        let headers: Vec<&str> = once("hours").chain(columns.iter().map(|c| c.0)).collect();
        let at = |s: &[SeriesPoint], h: f64| {
            let point = s.iter().find(|p| (p.hour - h).abs() < 0.5);
            format!("{:.digits$}", point.map_or(0.0, |p| p.value))
        };
        let row = |h: f64| -> Vec<String> {
            let (label, cells) = (format!("{h:.0}-{:.0}", h + width), columns.iter());
            once(label).chain(cells.map(|c| at(c.1, h))).collect()
        };
        let starts = (0..).map(|b| b as f64 * width);
        let rows: Vec<Vec<String>> = starts.take_while(|&h| h < self.hours).map(row).collect();
        render_table(&headers, &rows)
    }
}

/// Sum of a series over the buckets starting in `[from, to)` hours.
fn sum_between(series: &[SeriesPoint], from: f64, to: f64) -> f64 {
    let inside = series.iter().filter(|p| (from..to).contains(&p.hour));
    inside.map(|p| p.value).sum()
}

fn fig7(scale: Scale, day: &DayRuns) -> Section {
    let curves = [
        ("openflow", &day.openflow),
        ("lazy-static/real", &day.static_real),
        ("lazy-dynamic/real", &day.dynamic_real),
        ("lazy-static/exp", &day.static_exp),
        ("lazy-dynamic/exp", &day.dynamic_exp),
    ];
    let columns: Vec<_> = curves.map(|(l, r)| (l, &r.workload_rps[..])).to_vec();
    let mut table = day.table(2.0, &columns, 2);
    // Mean workload over the 2-hour buckets starting in [from, trace end).
    let mean = |r: &ExperimentReport, from: f64| {
        sum_between(&r.workload_rps, from, day.hours) / ((day.hours - from) / 2.0)
    };
    let cut = |r: &ExperimentReport| r.workload_reduction_vs(&day.openflow);
    for (label, r) in curves {
        let (mean, cut) = (mean(r, 0.0), cut(r) * 100.0);
        table += &format!("\n{label:<18} mean {mean:.3} rps, cut {cut:.1}%");
    }

    let (cut_s, cut_d) = (cut(&day.static_real), cut(&day.dynamic_real));
    let (s, d) = (mean(&day.static_real, 0.0), mean(&day.dynamic_real, 0.0));
    let (s_exp, d_exp) = (mean(&day.static_exp, 8.0), mean(&day.dynamic_exp, 8.0));
    let in_band = |c: f64| (0.61..=0.82).contains(&c);
    let claims = vec![
        Claim {
            statement: "7: real-trace cut in 61–82 %, static and dynamic",
            measured: format!("{:.1} % / {:.1} %", cut_s * 100.0, cut_d * 100.0),
            holds: in_band(cut_s) && in_band(cut_d),
            expected: scale.pick(HOLDS, DEVIATES),
        },
        Claim {
            statement: "7: static ≈ dynamic on the real trace (within 10 %)",
            measured: format!("{s:.3} vs {d:.3} rps"),
            holds: (d / s - 1.0).abs() <= 0.10,
            expected: scale.pick(HOLDS, DEVIATES),
        },
        Claim {
            statement: "7: on the expanded trace, dynamic < static over hours 8–24",
            measured: format!("{d_exp:.3} vs {s_exp:.3} rps"),
            holds: d_exp < s_exp,
            expected: HOLDS,
        },
    ];
    let title = "Fig. 7 — controller workload over the day";
    (format!("{title}\n\n{table}\n"), claims)
}

fn fig8(day: &DayRuns) -> Section {
    let real = &day.dynamic_real.updates_per_hour[..];
    let exp = &day.dynamic_exp.updates_per_hour[..];
    let table = day.table(1.0, &[("real", real), ("expanded", exp)], 0);
    let late = |s: &[SeriesPoint]| sum_between(s, 8.0, day.hours);
    let (real, exp) = (late(real), late(exp));
    let claims = vec![Claim {
        statement: "8: expanded > real regroup updates over hours 8–24",
        measured: format!("{exp:.0} vs {real:.0}"),
        holds: exp > real,
        expected: DEVIATES,
    }];
    let title = "Fig. 8 — grouping updates per hour (lazy-dynamic)";
    (format!("{title}\n\n{table}"), claims)
}

fn fig9(scale: Scale, day: &DayRuns) -> Section {
    let (of, lazy) = (&day.openflow, &day.static_real);
    let columns = [("openflow (ms)", of), ("lazyctrl (ms)", lazy)];
    let table = day.table(2.0, &columns.map(|(l, r)| (l, &r.latency_ms[..])), 3);
    let (base, lazy) = (of.mean_latency_ms, lazy.mean_latency_ms);
    let claims = vec![Claim {
        statement: "9: LazyCtrl mean below OpenFlow and in 0.45–0.65 ms",
        measured: format!("{lazy:.3} vs {base:.3} ms"),
        holds: lazy < base && (0.45..=0.65).contains(&lazy),
        expected: scale.pick(HOLDS, DEVIATES),
    }];
    let title = "Fig. 9 — steady-state latency over the day (lazy-static)";
    (format!("{title}\n\n{table}"), claims)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_claim_mismatches_when_its_outcome_differs_from_its_expectation() {
        let c = |holds, expected| Claim {
            statement: "c",
            measured: String::new(),
            holds,
            expected,
        };
        // A known deviation that starts to hold, and a hold that breaks.
        let (fixed, broken) = (c(HOLDS, DEVIATES), c(DEVIATES, HOLDS));
        let (held, deviated) = (c(HOLDS, HOLDS), c(DEVIATES, DEVIATES));
        let claims = [held, fixed.clone(), deviated, broken.clone()];
        assert_eq!(mismatches(&claims), [&fixed, &broken]);
        assert!(mismatches(&claims[..1]).is_empty());
        assert_eq!(render_claims(&claims).matches("MISMATCH").count(), 2);
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
