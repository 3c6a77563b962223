//! The paper's synthetic trace generation procedure (§V-B, Table II).
//!
//! "p% of the flows are generated by selecting from a given set of host
//! pairs (q% of all host pairs) uniformly at random in the synthetic
//! topology, and assigning each selected host pair a payload randomly
//! chosen from the real trace. ... The rest flows are generated by
//! selecting host pairs uniformly at random from all host pairs."
//!
//! Three traces differ in (p, q) and therefore in locality:
//!
//! | trace | p (%) | q (%) | avg centrality (paper) |
//! |-------|-------|-------|------------------------|
//! | Syn-A | 90    | 10    | 0.85                   |
//! | Syn-B | 70    | 20    | 0.72                   |
//! | Syn-C | 70    | 30    | 0.61                   |
//!
//! The ×10 topology (2713 switches, 65090 hosts) has >2×10⁹ host pairs, so
//! the hot set is materialized at a scaled size; its *composition* (the
//! intra-tenant bias, which falls as q grows because a larger set reaches
//! further across tenants) is what recreates the centrality ladder.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use lazyctrl_net::HostId;

use crate::realistic::{sample_payload, sample_time_ns};
use crate::tenant::{TenantModel, TenantModelConfig};
use crate::{FlowRecord, NominalParams, Trace};

/// Configuration for one synthetic trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticConfig {
    /// Name stamped on the trace ("syn-a" ...).
    pub(crate) name: String,
    /// Tenant/placement model (defaults to the paper's ×10 scale).
    pub tenants: TenantModelConfig,
    /// Flow arrivals to generate.
    pub num_flows: usize,
    /// Trace length in hours.
    pub duration_hours: u64,
    /// Percentage of flows drawn from the hot pair set (Table II's p).
    pub(crate) p: f64,
    /// Nominal hot-set size as a percentage of all pairs (Table II's q).
    pub(crate) q: f64,
    /// Materialized hot-set size (a scaled stand-in for q% of the >10⁹
    /// pair universe; grows with q).
    pub hot_pairs: usize,
    /// Probability that a hot pair is intra-tenant. Falls with q: a larger
    /// hot set necessarily reaches across tenants more.
    pub hot_intra_bias: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SyntheticConfig {
    fn base(name: &str, p: f64, q: f64) -> Self {
        // Hot set scales with q; intra bias falls with q. The bias values
        // are calibrated so measured k=5 centralities land near the paper's
        // 0.85 / 0.72 / 0.61 ladder (verified by the Table II harness).
        SyntheticConfig {
            name: name.into(),
            tenants: TenantModelConfig::paper_synthetic(),
            num_flows: 500_000,
            duration_hours: 24,
            p,
            q,
            hot_pairs: (q * 12_000.0) as usize,
            hot_intra_bias: (1.02 - 0.005 * q).clamp(0.0, 1.0),
            seed: 0xDC0A,
        }
    }

    /// Syn-A: p=90, q=10 (centrality ≈ 0.85).
    pub fn syn_a() -> Self {
        SyntheticConfig::base("syn-a", 90.0, 10.0)
    }

    /// Syn-B: p=70, q=20 (centrality ≈ 0.72).
    pub fn syn_b() -> Self {
        SyntheticConfig::base("syn-b", 70.0, 20.0)
    }

    /// Syn-C: p=70, q=30 (centrality ≈ 0.61).
    pub fn syn_c() -> Self {
        SyntheticConfig::base("syn-c", 70.0, 30.0)
    }

    /// Shrinks the topology and flow count for fast tests: divides hosts,
    /// switches, flows and hot pairs by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn scaled_down(mut self, factor: usize) -> Self {
        assert!(factor > 0, "factor must be positive");
        self.tenants.num_hosts = (self.tenants.num_hosts / factor).max(100);
        self.tenants.num_switches = (self.tenants.num_switches / factor).max(10);
        self.num_flows = (self.num_flows / factor).max(1000);
        self.hot_pairs = (self.hot_pairs / factor).max(50);
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on invalid p/q/hot set parameters.
    pub(crate) fn validate(&self) {
        self.tenants.validate();
        assert!(self.num_flows > 0, "no flows requested");
        assert!(self.duration_hours > 0, "zero duration");
        assert!((0.0..=100.0).contains(&self.p), "p out of [0,100]");
        assert!((0.0..=100.0).contains(&self.q), "q out of [0,100]");
        assert!(self.hot_pairs > 0, "empty hot set");
        assert!(
            (0.0..=1.0).contains(&self.hot_intra_bias),
            "hot_intra_bias out of [0,1]"
        );
    }
}

/// Generates one synthetic trace per the paper's procedure.
///
/// # Panics
///
/// Panics on invalid configuration.
pub fn generate(cfg: &SyntheticConfig) -> Trace {
    cfg.validate();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let model = TenantModel::generate(&cfg.tenants, &mut rng);

    // Materialize the hot pair set ("a given set of host pairs").
    let mut hot: Vec<(u32, u32)> = Vec::with_capacity(cfg.hot_pairs);
    let mut seen = std::collections::HashSet::with_capacity(cfg.hot_pairs);
    let mut stall = 0;
    while hot.len() < cfg.hot_pairs && stall < cfg.hot_pairs * 50 {
        let pair = if rng.gen_bool(cfg.hot_intra_bias) {
            model
                .sample_intra_pair(&mut rng)
                .unwrap_or_else(|| model.sample_any_pair(&mut rng))
        } else {
            model.sample_any_pair(&mut rng)
        };
        let key = if pair.0 < pair.1 {
            (pair.0, pair.1)
        } else {
            (pair.1, pair.0)
        };
        if seen.insert(key) {
            hot.push(key);
            stall = 0;
        } else {
            stall += 1;
        }
    }

    let p_frac = cfg.p / 100.0;
    let mut flows = Vec::with_capacity(cfg.num_flows);
    for _ in 0..cfg.num_flows {
        let (a, b) = if rng.gen_bool(p_frac) {
            // "selecting from a given set of host pairs uniformly at random"
            hot[rng.gen_range(0..hot.len())]
        } else {
            // "selecting host pairs uniformly at random from all host pairs"
            model.sample_any_pair(&mut rng)
        };
        let (src, dst) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
        flows.push(FlowRecord {
            time_ns: sample_time_ns(cfg.duration_hours, &mut rng),
            src: HostId::new(src),
            dst: HostId::new(dst),
            // "assigning each selected host pair a payload randomly chosen
            // from the real trace" — same payload distribution.
            bytes: sample_payload(&mut rng),
        });
    }
    flows.sort_by_key(|f| f.time_ns);

    let trace = Trace {
        name: cfg.name.clone(),
        topology: model.topology,
        flows,
        duration_ns: cfg.duration_hours * 3_600_000_000_000,
        nominal: NominalParams {
            p: Some(cfg.p),
            q: Some(cfg.q),
        },
    };
    trace.validate();
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_paper_configs() {
        for (cfg, p, q) in [
            (SyntheticConfig::syn_a(), 90.0, 10.0),
            (SyntheticConfig::syn_b(), 70.0, 20.0),
            (SyntheticConfig::syn_c(), 70.0, 30.0),
        ] {
            cfg.validate();
            assert_eq!(cfg.p, p);
            assert_eq!(cfg.q, q);
        }
        // Hot set grows with q, intra bias falls with q.
        assert!(SyntheticConfig::syn_b().hot_pairs > SyntheticConfig::syn_a().hot_pairs);
        assert!(SyntheticConfig::syn_c().hot_pairs > SyntheticConfig::syn_b().hot_pairs);
        assert!(SyntheticConfig::syn_a().hot_intra_bias > SyntheticConfig::syn_b().hot_intra_bias);
        assert!(SyntheticConfig::syn_b().hot_intra_bias > SyntheticConfig::syn_c().hot_intra_bias);
    }

    #[test]
    fn generation_respects_p() {
        let cfg = SyntheticConfig::syn_a().scaled_down(20);
        let trace = generate(&cfg);
        assert_eq!(trace.num_flows(), cfg.num_flows);
        assert_eq!(trace.nominal.p, Some(90.0));
        // With p=90%, the hot set should dominate: the most popular
        // `hot_pairs` pairs should carry ≈90% of flows.
        let mut counts = std::collections::HashMap::new();
        for f in &trace.flows {
            let key = if f.src.0 < f.dst.0 {
                (f.src.0, f.dst.0)
            } else {
                (f.dst.0, f.src.0)
            };
            *counts.entry(key).or_insert(0u32) += 1;
        }
        let mut sorted: Vec<u32> = counts.values().copied().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let hot_mass: u32 = sorted.iter().take(cfg.hot_pairs).sum();
        let share = hot_mass as f64 / trace.num_flows() as f64;
        assert!(share > 0.85, "hot share {share} below p≈0.90");
    }

    #[test]
    fn locality_ladder_a_b_c() {
        // Intra-tenant flow fraction must fall from Syn-A to Syn-C —
        // the driver behind the paper's centrality ladder.
        let frac = |cfg: SyntheticConfig| {
            let t = generate(&cfg.scaled_down(30));
            let intra = t
                .flows
                .iter()
                .filter(|f| t.topology.tenant_of(f.src) == t.topology.tenant_of(f.dst))
                .count();
            intra as f64 / t.num_flows() as f64
        };
        let a = frac(SyntheticConfig::syn_a());
        let b = frac(SyntheticConfig::syn_b());
        let c = frac(SyntheticConfig::syn_c());
        assert!(a > b && b > c, "locality ladder broken: {a} {b} {c}");
    }

    #[test]
    fn deterministic() {
        let cfg = SyntheticConfig::syn_b().scaled_down(40);
        assert_eq!(generate(&cfg), generate(&cfg));
    }

    #[test]
    fn scaled_down_shrinks_everything() {
        let cfg = SyntheticConfig::syn_a().scaled_down(10);
        assert!(cfg.tenants.num_hosts <= 6509);
        assert!(cfg.tenants.num_switches <= 272);
        assert!(cfg.num_flows <= 50_000);
        cfg.validate();
    }
}
