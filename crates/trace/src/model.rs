use lazyctrl_net::{HostId, SwitchId, TenantId};
use serde::{Deserialize, Serialize};

/// Static description of the emulated data center: which switch and tenant
/// every host belongs to.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    /// Number of edge switches.
    pub num_switches: usize,
    /// Host → edge switch attachment, indexed by `HostId`.
    pub host_switch: Vec<SwitchId>,
    /// Host → tenant, indexed by `HostId`.
    pub host_tenant: Vec<TenantId>,
}

impl Topology {
    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.host_switch.len()
    }

    /// The switch a host is attached to.
    pub fn switch_of(&self, host: HostId) -> SwitchId {
        self.host_switch[host.index()]
    }

    /// The tenant a host belongs to.
    pub fn tenant_of(&self, host: HostId) -> TenantId {
        self.host_tenant[host.index()]
    }

    /// Hosts attached to each switch.
    pub(crate) fn hosts_by_switch(&self) -> Vec<Vec<HostId>> {
        let mut out = vec![Vec::new(); self.num_switches];
        for (h, s) in self.host_switch.iter().enumerate() {
            out[s.index()].push(HostId::new(h as u32));
        }
        out
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the tenant vector length differs from the switch vector,
    /// or any switch index is out of range.
    pub(crate) fn validate(&self) {
        assert_eq!(
            self.host_switch.len(),
            self.host_tenant.len(),
            "host vectors disagree in length"
        );
        for (h, s) in self.host_switch.iter().enumerate() {
            assert!(
                s.index() < self.num_switches,
                "host {h} on out-of-range switch {s}"
            );
        }
    }
}

/// One flow arrival: the moment a fresh flow's first packet enters the
/// network (the event that can miss tables and reach the controller).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowRecord {
    /// Arrival time in nanoseconds since trace start.
    pub time_ns: u64,
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Flow payload size in bytes (cosmetic; control-plane load is
    /// per-flow, not per-byte).
    pub bytes: u32,
}

/// The nominal (p, q) parameters of a synthetic trace, for Table II.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct NominalParams {
    /// Percentage of flows drawn from the hot pair set.
    pub(crate) p: Option<f64>,
    /// Hot pair set size as a percentage of all host pairs.
    pub(crate) q: Option<f64>,
}

/// A complete traffic trace: topology plus time-ordered flow arrivals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Human-readable name ("real", "syn-a", ...).
    pub name: String,
    /// The emulated data center.
    pub topology: Topology,
    /// Flow arrivals sorted by `time_ns`.
    pub flows: Vec<FlowRecord>,
    /// Trace duration in nanoseconds.
    pub duration_ns: u64,
    /// Nominal generation parameters, when applicable.
    pub nominal: NominalParams,
}

impl Trace {
    /// Number of flow arrivals.
    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    /// Trace duration in hours.
    pub fn duration_hours(&self) -> f64 {
        self.duration_ns as f64 / 3.6e12
    }

    /// Iterates over flows within `[start_ns, end_ns)`.
    pub fn flows_between(&self, start_ns: u64, end_ns: u64) -> &[FlowRecord] {
        let lo = self.flows.partition_point(|f| f.time_ns < start_ns);
        let hi = self.flows.partition_point(|f| f.time_ns < end_ns);
        &self.flows[lo..hi]
    }

    /// Asserts the invariants generators must uphold: sorted flows, valid
    /// host ids, no self-flows.
    ///
    /// # Panics
    ///
    /// Panics when any invariant is violated.
    pub fn validate(&self) {
        self.topology.validate();
        let n = self.topology.num_hosts() as u32;
        let mut last = 0u64;
        for f in &self.flows {
            assert!(f.time_ns >= last, "flows out of order");
            assert!(f.time_ns <= self.duration_ns, "flow beyond duration");
            assert!(f.src.0 < n && f.dst.0 < n, "flow host out of range");
            assert_ne!(f.src, f.dst, "self-flow");
            last = f.time_ns;
        }
    }

    /// Distinct communicating (unordered) host pairs (a test oracle).
    #[cfg(test)]
    pub(crate) fn distinct_pairs(&self) -> usize {
        let mut pairs = std::collections::HashSet::new();
        for f in &self.flows {
            let key = if f.src.0 < f.dst.0 {
                (f.src.0, f.dst.0)
            } else {
                (f.dst.0, f.src.0)
            };
            pairs.insert(key);
        }
        pairs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_topology() -> Topology {
        Topology {
            num_switches: 2,
            host_switch: vec![SwitchId::new(0), SwitchId::new(0), SwitchId::new(1)],
            host_tenant: vec![TenantId::new(1), TenantId::new(1), TenantId::new(2)],
        }
    }

    fn toy_trace() -> Trace {
        Trace {
            name: "toy".into(),
            topology: toy_topology(),
            flows: vec![
                FlowRecord {
                    time_ns: 10,
                    src: HostId::new(0),
                    dst: HostId::new(1),
                    bytes: 100,
                },
                FlowRecord {
                    time_ns: 20,
                    src: HostId::new(1),
                    dst: HostId::new(2),
                    bytes: 200,
                },
                FlowRecord {
                    time_ns: 30,
                    src: HostId::new(0),
                    dst: HostId::new(1),
                    bytes: 300,
                },
            ],
            duration_ns: 100,
            nominal: NominalParams::default(),
        }
    }

    #[test]
    fn topology_queries() {
        let t = toy_topology();
        t.validate();
        assert_eq!(t.num_hosts(), 3);
        assert_eq!(t.switch_of(HostId::new(2)), SwitchId::new(1));
        assert_eq!(t.tenant_of(HostId::new(0)), TenantId::new(1));
        let by_switch = t.hosts_by_switch();
        assert_eq!(by_switch[0], vec![HostId::new(0), HostId::new(1)]);
        assert_eq!(by_switch[1], vec![HostId::new(2)]);
    }

    #[test]
    fn trace_queries() {
        let tr = toy_trace();
        tr.validate();
        assert_eq!(tr.num_flows(), 3);
        assert_eq!(tr.distinct_pairs(), 2);
        assert_eq!(tr.flows_between(15, 35).len(), 2);
        assert_eq!(tr.flows_between(0, 10).len(), 0);
        assert_eq!(tr.flows_between(0, 11).len(), 1);
    }

    #[test]
    #[should_panic(expected = "flows out of order")]
    fn unsorted_flows_rejected() {
        let mut tr = toy_trace();
        tr.flows.swap(0, 2);
        tr.validate();
    }

    #[test]
    #[should_panic(expected = "self-flow")]
    fn self_flow_rejected() {
        let mut tr = toy_trace();
        tr.flows[0].dst = tr.flows[0].src;
        tr.validate();
    }
}
