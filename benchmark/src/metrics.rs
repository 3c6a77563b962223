//! The metrics the benchmark declares, and the bag a run fills.
//!
//! `BENCHMARK.json` carries each metric's name, unit, direction and (end
//! to end) regression bound; this table adds what that schema has no
//! room for — which workloads a metric is measured on, and whether it
//! repeats exactly for a seed. A unit test keeps the two in step. A run
//! may only set declared metrics, and must set every metric declared for
//! its workload, so "emitted" and "declared" cannot drift apart.

use std::collections::BTreeMap;

use lazyctrl::obs::json::Value;

use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Class {
    /// Reported with `--trace 0`; may worsen by at most `bound` (a share
    /// of the parent's median) before a change is rejected.
    EndToEnd { bound: f64 },
    /// Reported with `--trace 1`: host time spent in one layer, or a
    /// ratio of such times. Noisy; never gated.
    Layer,
    /// Reported with `--trace 1`: a count or a simulated statistic that
    /// repeats bit for bit for a given seed.
    Exact,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub class: Class,
    /// Letters of the workloads the metric is measured on (see
    /// [`Workload::letter`]); elsewhere it is reported as 0.
    pub on: &'static str,
}

impl Metric {
    pub fn applies_to(&self, w: Workload) -> bool {
        self.on.contains(w.letter())
    }

    pub fn is_end_to_end(&self) -> bool {
        matches!(self.class, Class::EndToEnd { .. })
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        class: Class::EndToEnd { bound },
        on: "ABCDE",
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, on: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        class: Class::Layer,
        on,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better, on: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        class: Class::Exact,
        on,
    }
}

use Better::{Higher, Lower};

/// Every metric, end-to-end first, in `BENCHMARK.json` order.
pub const METRICS: &[Metric] = &[
    // ---- end to end: what a user of the simulator waits for and pays ----
    e2e("wall_s", "s", Lower, 0.25),
    e2e("work_per_sec", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
    e2e("setup_s", "s", Lower, 0.25),
    // ---- simulated: what the modelled data center did (exact per seed) ----
    exact("simulated.ctrl_rps", "req/s", Lower, "ABCD"),
    exact("simulated.workload_reduction", "share", Higher, "AD"),
    exact("simulated.first_pkt_latency_mean_ms", "ms", Lower, "ABCD"),
    exact("simulated.first_pkt_latency_p50_ms", "ms", Lower, "ABCD"),
    exact("simulated.first_pkt_latency_p999_ms", "ms", Lower, "ABCD"),
    exact("simulated.undelivered_share", "share", Lower, "ABCD"),
    // ---- sim ----
    exact("sim.events", "count", Lower, "ABCD"),
    layer("sim.events_per_sec", "1/s", Higher, "ABCD"),
    layer("sim.wheel_ns_per_op", "ns", Lower, "ABCD"),
    layer("sim.link_gate_ns_per_op", "ns", Lower, "ABCD"),
    layer("sim.bandwidth_ns_per_op", "ns", Lower, "C"),
    layer("sim.shard_w1_ratio", "ratio", Lower, "A"),
    layer("sim.shard_w2_ratio", "ratio", Lower, "A"),
    // ---- core ----
    layer("core.build_s", "s", Lower, "ABCD"),
    layer("core.run_s", "s", Lower, "ABCD"),
    layer("core.report_s", "s", Lower, "ABCD"),
    // ---- switch ----
    layer("switch.local_frame_hit_ns", "ns", Lower, "ACD"),
    layer("switch.local_frame_miss_ns", "ns", Lower, "ABCD"),
    layer("switch.tunnel_packet_ns", "ns", Lower, "ACD"),
    layer("switch.timer_ns", "ns", Lower, "ACD"),
    layer("switch.gfib_query_ns", "ns", Lower, "ACD"),
    layer("switch.control_msg_ns", "ns", Lower, "ABCD"),
    exact("switch.fast_path_share", "share", Higher, "ABCD"),
    exact("switch.max_gfib_bytes", "bytes", Lower, "ACD"),
    // ---- bloom ----
    layer("bloom.insert_ns", "ns", Lower, "ACD"),
    layer("bloom.query_ns", "ns", Lower, "ACD"),
    exact("bloom.fp_reports", "count", Lower, "ACD"),
    // ---- controller ----
    layer("controller.packet_in_ns", "ns", Lower, "ACD"),
    layer("controller.baseline_packet_in_ns", "ns", Lower, "B"),
    layer("controller.timer_ns", "ns", Lower, "ACD"),
    layer("controller.regroup_ms", "ms", Lower, "D"),
    exact("controller.regroup_updates", "count", Lower, "ACD"),
    exact("controller.messages", "count", Lower, "ABCD"),
    exact("controller.packet_ins", "count", Lower, "ABCD"),
    // ---- partition ----
    layer("partition.inigroup_ms", "ms", Lower, "ACD"),
    layer("partition.incupdate_ms", "ms", Lower, "D"),
    exact("partition.winter", "share", Lower, "AD"),
    // ---- cluster ----
    layer("cluster.switch_msg_ns", "ns", Lower, "C"),
    layer("cluster.ctrl_msg_ns", "ns", Lower, "C"),
    layer("cluster.timer_ns", "ns", Lower, "C"),
    layer("cluster.clone_ns", "ns", Lower, "CE"),
    layer("cluster.fingerprint_ns", "ns", Lower, "CE"),
    exact("cluster.peer_messages", "count", Lower, "C"),
    exact("cluster.heartbeats", "count", Lower, "C"),
    exact("cluster.peer_sync_bytes", "bytes", Lower, "C"),
    exact("cluster.setups_shed", "count", Lower, "C"),
    exact("cluster.queue_highwater", "count", Lower, "C"),
    exact("cluster.congestion_signals", "count", Lower, "C"),
    exact("cluster.max_member_share", "share", Lower, "C"),
    // ---- proto ----
    layer("proto.encode_ns", "ns", Lower, "ABCD"),
    layer("proto.decode_ns", "ns", Lower, "ABCD"),
    layer("proto.wire_len_ns", "ns", Lower, "ABCD"),
    // ---- trace ----
    layer("trace.generate_s", "s", Lower, "ABCD"),
    // ---- mc ----
    layer("mc.exhaustive_transitions_per_sec", "1/s", Higher, "E"),
    layer("mc.guided_transitions_per_sec", "1/s", Higher, "E"),
    exact("mc.distinct_states", "count", Higher, "E"),
    exact("mc.dedup_share", "share", Higher, "E"),
    // ---- obs: the program's own sampling profiler on the traced run ----
    exact("obs.kind.flow_arrival.count", "count", Lower, "ABCD"),
    exact("obs.kind.local_frame.count", "count", Lower, "ABCD"),
    exact("obs.kind.tunnel_arrive.count", "count", Lower, "ABCD"),
    exact("obs.kind.msg_to_switch.count", "count", Lower, "ABCD"),
    exact("obs.kind.msg_to_controller.count", "count", Lower, "ABCD"),
    exact("obs.kind.switch_timer.count", "count", Lower, "ABCD"),
    exact("obs.kind.controller_timer.count", "count", Lower, "ABCD"),
    exact("obs.kind.ctrl_peer_msg.count", "count", Lower, "ABCD"),
    exact("obs.kind.cluster_timer.count", "count", Lower, "ABCD"),
    exact("obs.kind.injected.count", "count", Lower, "ABCD"),
    exact("obs.kind.synthetic_flow.count", "count", Lower, "ABCD"),
    layer("obs.kind.flow_arrival.share", "share", Lower, "ABCD"),
    layer("obs.kind.local_frame.share", "share", Lower, "ABCD"),
    layer("obs.kind.tunnel_arrive.share", "share", Lower, "ABCD"),
    layer("obs.kind.msg_to_switch.share", "share", Lower, "ABCD"),
    layer("obs.kind.msg_to_controller.share", "share", Lower, "ABCD"),
    layer("obs.kind.switch_timer.share", "share", Lower, "ABCD"),
    layer("obs.kind.controller_timer.share", "share", Lower, "ABCD"),
    layer("obs.kind.ctrl_peer_msg.share", "share", Lower, "ABCD"),
    layer("obs.kind.cluster_timer.share", "share", Lower, "ABCD"),
    layer("obs.kind.injected.share", "share", Lower, "ABCD"),
    layer("obs.kind.synthetic_flow.share", "share", Lower, "ABCD"),
    layer("obs.subsys.world.share", "share", Lower, "ABCD"),
    layer("obs.subsys.switch.share", "share", Lower, "ABCD"),
    layer("obs.subsys.controller.share", "share", Lower, "ABCD"),
    layer("obs.subsys.cluster.share", "share", Lower, "ABCD"),
    layer("obs.overhead_ratio", "ratio", Lower, "ABCD"),
    // ---- host ----
    layer("host.ref_kernel_s", "s", Lower, "ABCDE"),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

/// The values one run measured, keyed by declared metric.
#[derive(Debug, Default)]
pub struct Bag {
    values: BTreeMap<&'static str, f64>,
}

impl Bag {
    /// Records a value.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name or a non-finite value — both are
    /// bugs in the benchmark, not conditions of the program under test.
    pub fn set(&mut self, name: &str, value: f64) {
        let m = find(name).unwrap_or_else(|| panic!("metric `{name}` is not declared"));
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.values.insert(m.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The `metrics` object of the result line: every end-to-end metric
    /// (`traced == false`) or every per-layer metric (`traced == true`),
    /// in declaration order. A metric not measured on this workload reads
    /// 0; one that should have been measured and was not is an error.
    pub fn to_json(&self, workload: Workload, traced: bool) -> Result<Value, String> {
        let mut pairs = Vec::new();
        for m in METRICS.iter().filter(|m| m.is_end_to_end() != traced) {
            let value = match self.get(m.name) {
                Some(v) => v,
                None if !m.applies_to(workload) => 0.0,
                None => return Err(format!("metric `{}` was not measured", m.name)),
            };
            pairs.push((
                m.name.to_owned(),
                Value::obj(vec![
                    ("value", Value::Num(value)),
                    ("unit", Value::Str(m.unit.to_owned())),
                ]),
            ));
        }
        Ok(Value::Obj(pairs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazyctrl::obs::json::parse;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn keys(v: &Value) -> Vec<&str> {
        match v {
            Value::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object: {v:?}"),
        }
    }

    fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(Value::as_str).expect(key)
    }

    #[test]
    fn manifest_has_exactly_the_contract_keys() {
        let m = manifest();
        assert_eq!(
            keys(&m),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let paths: Vec<_> = m.get("paths").and_then(Value::as_arr).unwrap().to_vec();
        assert_eq!(paths, [Value::Str("benchmark".into())]);
        let secs = m.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
    }

    #[test]
    fn manifest_workloads_match_the_code() {
        let m = manifest();
        let listed = m.get("workloads").and_then(Value::as_arr).unwrap();
        assert_eq!(listed.len(), Workload::ALL.len());
        for (entry, w) in listed.iter().zip(Workload::ALL) {
            assert_eq!(keys(entry), ["name", "why"]);
            assert_eq!(str_of(entry, "name"), w.name());
            assert_eq!(str_of(entry, "why"), w.why());
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }

    #[test]
    fn manifest_metrics_match_the_declared_table() {
        let m = manifest();
        let e2e: Vec<_> = METRICS.iter().filter(|m| m.is_end_to_end()).collect();
        let per_layer: Vec<_> = METRICS.iter().filter(|m| !m.is_end_to_end()).collect();
        let listed_e2e = m.get("end_to_end").and_then(Value::as_arr).unwrap();
        let listed_layer = m.get("per_layer").and_then(Value::as_arr).unwrap();
        assert_eq!(listed_e2e.len(), e2e.len());
        assert_eq!(listed_layer.len(), per_layer.len());
        assert!(per_layer.len() <= 128 && e2e.len() <= 16);
        for (entry, d) in listed_e2e.iter().zip(&e2e) {
            assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
            let Class::EndToEnd { bound } = d.class else {
                unreachable!()
            };
            assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(bound));
            assert!(bound > 0.0 && bound <= 0.25);
        }
        for (entry, d) in listed_layer.iter().zip(&per_layer) {
            assert_eq!(keys(entry), ["name", "unit", "better"], "{}", d.name);
        }
        for (entry, d) in listed_e2e.iter().chain(listed_layer).zip(METRICS) {
            assert_eq!(str_of(entry, "name"), d.name);
            assert_eq!(str_of(entry, "unit"), d.unit, "{}", d.name);
            assert_eq!(str_of(entry, "better"), d.better.label(), "{}", d.name);
        }
    }

    #[test]
    fn declared_names_and_units_are_well_formed_and_unique() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in METRICS {
            assert!(ok(m.name, "_.-", 64), "{}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(ok(m.unit, "_/%.-", 16), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
            assert!(!m.on.is_empty() && m.on.chars().all(|c| "ABCDE".contains(c)));
        }
        // The driver needs this one by name.
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(setup.is_end_to_end());
    }

    #[test]
    fn bag_emits_every_declared_metric_and_nothing_else() {
        let mut bag = Bag::default();
        for m in METRICS.iter().filter(|m| m.is_end_to_end()) {
            bag.set(m.name, 1.5);
        }
        let out = bag.to_json(Workload::McExplore, false).unwrap();
        let names = keys(&out);
        assert_eq!(names, ["wall_s", "work_per_sec", "peak_rss_mb", "setup_s"]);
        assert_eq!(keys(out.get("wall_s").unwrap()), ["value", "unit"]);

        // Traced: a metric declared for the workload must be present ...
        let err = bag.to_json(Workload::McExplore, true).unwrap_err();
        assert!(err.contains("was not measured"), "{err}");
        for m in METRICS.iter().filter(|m| !m.is_end_to_end()) {
            if m.applies_to(Workload::McExplore) {
                bag.set(m.name, 2.0);
            }
        }
        // ... and one that is not applicable reads 0.
        let out = bag.to_json(Workload::McExplore, true).unwrap();
        assert_eq!(keys(&out).len(), METRICS.len() - 4);
        let value = |n: &str| {
            out.get(n)
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
        };
        assert_eq!(value("mc.distinct_states"), Some(2.0));
        assert_eq!(value("sim.events"), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn bag_rejects_undeclared_names() {
        Bag::default().set("made.up", 1.0);
    }
}
