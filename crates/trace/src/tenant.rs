//! Multi-tenant host placement.
//!
//! §II-B: tenant sizes sit stably in the 20–100 VM band while tenant counts
//! grow; traffic is "aggregated within some size-limited groups of hosts".
//! The placement model gives every tenant a *window* of nearby switches and
//! scatters its hosts within that window — the physical locality that makes
//! affinity-based switch grouping effective.

use lazyctrl_net::{SwitchId, TenantId};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::Topology;

/// Configuration for the tenant/placement generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantModelConfig {
    /// Total hosts to create.
    pub num_hosts: usize,
    /// Total edge switches.
    pub num_switches: usize,
    /// Smallest tenant (VM count).
    pub(crate) min_tenant_size: usize,
    /// Largest tenant (VM count).
    pub(crate) max_tenant_size: usize,
    /// How many hosts of a tenant share one switch on average; the tenant's
    /// switch window is `ceil(size / hosts_per_switch)` wide.
    pub(crate) hosts_per_switch: usize,
}

impl TenantModelConfig {
    /// The paper's real-trace shape: 6509 hosts on 272 switches, tenants of
    /// 20–100 VMs (Amazon EC2 numbers, §II-B).
    pub(crate) fn paper_real() -> Self {
        TenantModelConfig {
            num_hosts: 6509,
            num_switches: 272,
            min_tenant_size: 20,
            max_tenant_size: 100,
            hosts_per_switch: 8,
        }
    }

    /// The ×10 synthetic scale: 65090 hosts on 2713 switches.
    pub(crate) fn paper_synthetic() -> Self {
        TenantModelConfig {
            num_hosts: 65_090,
            num_switches: 2713,
            min_tenant_size: 20,
            max_tenant_size: 100,
            hosts_per_switch: 8,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero hosts/switches, an inverted size band, or a zero
    /// `hosts_per_switch`.
    pub(crate) fn validate(&self) {
        assert!(self.num_hosts > 0, "no hosts");
        assert!(self.num_switches > 0, "no switches");
        assert!(
            self.min_tenant_size > 0 && self.min_tenant_size <= self.max_tenant_size,
            "invalid tenant size band"
        );
        assert!(
            self.hosts_per_switch > 0,
            "hosts_per_switch must be positive"
        );
    }
}

/// The generated tenant structure (wraps a [`Topology`] plus membership
/// lists).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct TenantModel {
    /// The topology: host → switch, host → tenant.
    pub(crate) topology: Topology,
    /// Hosts of each tenant, indexed by tenant id − 1.
    pub(crate) members: Vec<Vec<u32>>,
}

impl TenantModel {
    /// Generates tenants and placements.
    ///
    /// Tenant ids start at 1 (0 is reserved for "no tenant"). Tenant ids
    /// wrap modulo the 12-bit VLAN space if there are more than 4095
    /// tenants, mirroring how real deployments re-use VLAN ids across
    /// isolation domains.
    pub(crate) fn generate<R: Rng>(cfg: &TenantModelConfig, rng: &mut R) -> Self {
        cfg.validate();
        let mut host_switch = Vec::with_capacity(cfg.num_hosts);
        let mut host_tenant = Vec::with_capacity(cfg.num_hosts);
        let mut members: Vec<Vec<u32>> = Vec::new();
        let mut next_host = 0u32;
        let mut window_start = 0usize;
        while (next_host as usize) < cfg.num_hosts {
            let remaining = cfg.num_hosts - next_host as usize;
            let size = rng
                .gen_range(cfg.min_tenant_size..=cfg.max_tenant_size)
                .min(remaining);
            let tenant_index = members.len();
            let tenant_id = TenantId::new((tenant_index % 4095 + 1) as u16);
            let window = size.div_ceil(cfg.hosts_per_switch).max(1);
            let mut my_hosts = Vec::with_capacity(size);
            for _ in 0..size {
                let offset = rng.gen_range(0..window);
                let switch = (window_start + offset) % cfg.num_switches;
                host_switch.push(SwitchId::new(switch as u32));
                host_tenant.push(tenant_id);
                my_hosts.push(next_host);
                next_host += 1;
            }
            members.push(my_hosts);
            // Slide the window; overlap a little so switches host a few
            // tenants each (the paper's motivation for host exclusion).
            window_start = (window_start + window.max(1)) % cfg.num_switches;
        }
        let topology = Topology {
            num_switches: cfg.num_switches,
            host_switch,
            host_tenant,
        };
        topology.validate();
        TenantModel { topology, members }
    }

    /// Samples an intra-tenant host pair (two distinct hosts of one
    /// tenant), or `None` if every tenant has a single host.
    pub(crate) fn sample_intra_pair<R: Rng>(&self, rng: &mut R) -> Option<(u32, u32)> {
        for _ in 0..32 {
            let t = rng.gen_range(0..self.members.len());
            let m = &self.members[t];
            if m.len() < 2 {
                continue;
            }
            let a = m[rng.gen_range(0..m.len())];
            let mut b = m[rng.gen_range(0..m.len())];
            let mut guard = 0;
            while b == a && guard < 16 {
                b = m[rng.gen_range(0..m.len())];
                guard += 1;
            }
            if a != b {
                return Some((a, b));
            }
        }
        None
    }

    /// Samples a uniformly random distinct host pair.
    pub(crate) fn sample_any_pair<R: Rng>(&self, rng: &mut R) -> (u32, u32) {
        let n = self.topology.num_hosts() as u32;
        debug_assert!(n >= 2, "need at least two hosts");
        let a = rng.gen_range(0..n);
        let mut b = rng.gen_range(0..n);
        while b == a {
            b = rng.gen_range(0..n);
        }
        (a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_cfg() -> TenantModelConfig {
        TenantModelConfig {
            num_hosts: 500,
            num_switches: 20,
            min_tenant_size: 20,
            max_tenant_size: 100,
            hosts_per_switch: 8,
        }
    }

    #[test]
    fn generates_valid_topology() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = TenantModel::generate(&small_cfg(), &mut rng);
        assert_eq!(model.topology.num_hosts(), 500);
        assert_eq!(model.topology.num_switches, 20);
        // Tenant sizes in band (except possibly the last, truncated).
        for (i, m) in model.members.iter().enumerate() {
            if i + 1 < model.members.len() {
                assert!((20..=100).contains(&m.len()), "tenant {i} size {}", m.len());
            }
            assert!(!m.is_empty());
        }
        let total: usize = model.members.iter().map(Vec::len).sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn tenants_are_localized() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = TenantModel::generate(&small_cfg(), &mut rng);
        // Each tenant should span far fewer switches than the fabric has.
        for m in &model.members {
            let mut switches = std::collections::HashSet::new();
            for &h in m {
                switches.insert(model.topology.host_switch[h as usize]);
            }
            assert!(
                switches.len() <= m.len().div_ceil(8) + 1,
                "tenant spans {} switches for {} hosts",
                switches.len(),
                m.len()
            );
        }
    }

    #[test]
    fn intra_pairs_share_tenant() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = TenantModel::generate(&small_cfg(), &mut rng);
        for _ in 0..200 {
            let (a, b) = model
                .sample_intra_pair(&mut rng)
                .expect("tenants ≥ 20 hosts");
            assert_ne!(a, b);
            assert_eq!(
                model.topology.host_tenant[a as usize],
                model.topology.host_tenant[b as usize]
            );
        }
    }

    #[test]
    fn any_pairs_are_distinct() {
        let mut rng = StdRng::seed_from_u64(4);
        let model = TenantModel::generate(&small_cfg(), &mut rng);
        for _ in 0..200 {
            let (a, b) = model.sample_any_pair(&mut rng);
            assert_ne!(a, b);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = TenantModel::generate(&small_cfg(), &mut StdRng::seed_from_u64(9));
        let b = TenantModel::generate(&small_cfg(), &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn paper_configs_are_consistent() {
        TenantModelConfig::paper_real().validate();
        TenantModelConfig::paper_synthetic().validate();
        assert_eq!(TenantModelConfig::paper_real().num_hosts, 6509);
        assert_eq!(TenantModelConfig::paper_synthetic().num_switches, 2713);
    }
}
