//! Versioned telemetry snapshot: one JSON schema for benches, CI and
//! future rebalancing policies to consume.
//!
//! A telemetry document bundles the aggregate [`ExperimentReport`](crate::ExperimentReport), the
//! end-of-run metric counters, the cluster plane's [`ClusterReport`](crate::ClusterReport) (when
//! present), the flight recorder's occupancy stats, the sampled engine
//! profile, and the run's phase walls. [`validate_telemetry`] checks the
//! structural contract so CI can round-trip what the engine wrote.

use lazyctrl_obs::intern::subsys;
use lazyctrl_obs::json::Value;

use crate::experiment::DetailedRun;
use crate::world::EVENT_KIND_NAMES;

/// Telemetry document schema version. Bump on breaking shape changes.
pub(crate) const TELEMETRY_SCHEMA: u64 = 1;

fn num(n: f64) -> Value {
    Value::Num(n)
}

fn nums_u64(xs: impl IntoIterator<Item = u64>) -> Value {
    Value::Arr(xs.into_iter().map(|x| num(x as f64)).collect())
}

fn series(points: &[crate::report::SeriesPoint]) -> Value {
    Value::Arr(
        points
            .iter()
            .map(|p| Value::obj(vec![("hour", num(p.hour)), ("value", num(p.value))]))
            .collect(),
    )
}

/// Render a finished run as a versioned telemetry document.
pub fn telemetry_json(run: &DetailedRun) -> Value {
    let r = &run.report;
    let mut pairs = vec![
        ("schema", num(TELEMETRY_SCHEMA as f64)),
        ("mode", Value::Str(r.mode.clone())),
        ("trace", Value::Str(r.trace.clone())),
        (
            "report",
            Value::obj(vec![
                ("controller_messages", num(r.controller_messages as f64)),
                ("packet_ins", num(r.packet_ins as f64)),
                ("flows_started", num(r.flows_started as f64)),
                ("delivered_flows", num(r.delivered_flows as f64)),
                ("events_processed", num(r.events_processed as f64)),
                ("mean_latency_ms", num(r.mean_latency_ms)),
                ("p99_latency_ms", num(r.p99_latency_ms)),
                ("p999_latency_ms", num(r.p999_latency_ms)),
                ("max_gfib_bytes", num(r.max_gfib_bytes as f64)),
                (
                    "num_groups",
                    r.num_groups.map_or(Value::Null, |n| num(n as f64)),
                ),
                ("final_winter", r.final_winter.map_or(Value::Null, num)),
                ("workload_rps", series(&r.workload_rps)),
                ("latency_ms", series(&r.latency_ms)),
                ("updates_per_hour", series(&r.updates_per_hour)),
            ]),
        ),
        (
            "counters",
            Value::Obj(
                run.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), num(*v as f64)))
                    .collect(),
            ),
        ),
        (
            "phases",
            Value::obj(vec![
                ("build_s", num(run.phases.build_s)),
                ("run_s", num(run.phases.run_s)),
                ("report_s", num(run.phases.report_s)),
            ]),
        ),
    ];
    if let Some(c) = &r.cluster {
        pairs.push((
            "cluster",
            Value::obj(vec![
                ("controllers", num(c.controllers as f64)),
                ("dissemination", Value::Str(c.dissemination.clone())),
                (
                    "requests_per_controller",
                    nums_u64(c.requests_per_controller.iter().copied()),
                ),
                (
                    "peer_sync_messages",
                    nums_u64(c.peer_sync_messages.iter().copied()),
                ),
                (
                    "peer_sync_bytes",
                    nums_u64(c.peer_sync_bytes.iter().copied()),
                ),
                ("rebalance_transfers", num(c.rebalance_transfers as f64)),
                ("failover_transfers", num(c.failover_transfers as f64)),
                ("ctrl_peer_messages", num(c.ctrl_peer_messages as f64)),
                ("setups_shed", nums_u64(c.setups_shed.iter().copied())),
                (
                    "queue_highwater",
                    nums_u64(c.queue_highwater.iter().copied()),
                ),
                (
                    "congestion_signals",
                    nums_u64(c.congestion_signals.iter().copied()),
                ),
                (
                    "confirmed_dead",
                    nums_u64(c.confirmed_dead.iter().map(|&d| d as u64)),
                ),
            ]),
        ));
    }
    if let Some(obs) = &run.obs {
        pairs.push((
            "recorder",
            Value::obj(vec![
                ("capacity", num(obs.stats.capacity as f64)),
                ("recorded", num(obs.stats.recorded as f64)),
                ("retained", num(obs.stats.retained as f64)),
                ("dropped", num(obs.stats.dropped as f64)),
            ]),
        ));
        let kinds: Vec<Value> = obs
            .profile
            .kind_profiles()
            .iter()
            .map(|k| {
                Value::obj(vec![
                    (
                        "kind",
                        Value::Str(EVENT_KIND_NAMES[k.kind as usize].to_string()),
                    ),
                    ("subsys", Value::Str(subsys::name(k.subsys).to_string())),
                    ("count", num(k.count as f64)),
                    ("counted", num(k.counted as f64)),
                    ("sampled", num(k.ns.len() as f64)),
                    ("est_ns", num(k.est_ns())),
                    ("mean_ns", k.ns.mean().map_or(Value::Null, num)),
                    ("p99_ns", k.ns.quantile(0.99).map_or(Value::Null, num)),
                ])
            })
            .collect();
        pairs.push((
            "profile",
            Value::obj(vec![
                ("samples", num(obs.profile.samples() as f64)),
                ("total_events", num(obs.profile.total_events() as f64)),
                ("kinds", Value::Arr(kinds)),
            ]),
        ));
    }
    Value::obj(pairs)
}

/// Validate a parsed telemetry document against the schema contract.
pub fn validate_telemetry(doc: &Value) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(|v| v.as_f64())
        .ok_or("missing numeric `schema`")?;
    if schema != TELEMETRY_SCHEMA as f64 {
        return Err(format!(
            "schema version {schema} != supported {TELEMETRY_SCHEMA}"
        ));
    }
    for key in ["mode", "trace"] {
        doc.get(key)
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("missing string `{key}`"))?;
    }
    let report = doc.get("report").ok_or("missing `report`")?;
    for key in [
        "controller_messages",
        "packet_ins",
        "flows_started",
        "delivered_flows",
        "events_processed",
        "mean_latency_ms",
    ] {
        report
            .get(key)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("missing numeric `report.{key}`"))?;
    }
    let phases = doc.get("phases").ok_or("missing `phases`")?;
    for key in ["build_s", "run_s", "report_s"] {
        phases
            .get(key)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("missing numeric `phases.{key}`"))?;
    }
    if !matches!(doc.get("counters"), Some(Value::Obj(_))) {
        return Err("missing object `counters`".to_string());
    }
    if let Some(recorder) = doc.get("recorder") {
        for key in ["capacity", "recorded", "retained", "dropped"] {
            recorder
                .get(key)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("missing numeric `recorder.{key}`"))?;
        }
        let profile = doc.get("profile").ok_or("recorder without `profile`")?;
        let kinds = profile
            .get("kinds")
            .and_then(|v| v.as_arr())
            .ok_or("missing array `profile.kinds`")?;
        for kind in kinds {
            let field = |key: &str| {
                kind.get(key)
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("missing numeric `profile.kinds[].{key}`"))
            };
            let (count, counted) = (field("count")?, field("counted")?);
            field("sampled")?;
            field("est_ns")?;
            if counted > count {
                return Err(format!(
                    "`profile.kinds[]` counts {counted} counted events of {count}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ControlMode, Experiment, ExperimentConfig};
    use lazyctrl_obs::{json, ObsConfig};
    use lazyctrl_trace::realistic::{generate, RealTraceConfig};

    fn tiny_run(obs: ObsConfig) -> DetailedRun {
        let mut cfg = RealTraceConfig::small();
        cfg.num_flows = 500;
        let trace = generate(&cfg);
        Experiment::new(
            trace,
            ExperimentConfig::new(ControlMode::LazyDynamic)
                .with_group_size_limit(10)
                .with_obs(obs),
        )
        .run_detailed()
    }

    #[test]
    fn telemetry_round_trips_and_validates() {
        let run = tiny_run(ObsConfig::full());
        let doc = telemetry_json(&run);
        let text = doc.to_json_pretty();
        let parsed = json::parse(&text).expect("telemetry parses");
        assert_eq!(parsed, doc);
        validate_telemetry(&parsed).expect("telemetry validates");
        assert!(parsed.get("recorder").is_some(), "obs run exports recorder");
        assert!(parsed.get("profile").is_some());
    }

    #[test]
    fn telemetry_without_obs_still_validates() {
        let run = tiny_run(ObsConfig::default());
        assert!(run.obs.is_none());
        let doc = telemetry_json(&run);
        let parsed = json::parse(&doc.to_json()).unwrap();
        validate_telemetry(&parsed).expect("validates without recorder");
        assert!(parsed.get("recorder").is_none());
    }

    #[test]
    fn validate_rejects_kind_without_counted() {
        let run = tiny_run(ObsConfig::full());
        let text = telemetry_json(&run).to_json();
        assert!(text.contains("\"counted\""), "kinds export `counted`");
        let doc = json::parse(&text.replace("\"counted\"", "\"renamed\"")).unwrap();
        let err = validate_telemetry(&doc).expect_err("a kind without `counted`");
        assert!(err.contains("counted"), "{err}");
    }

    #[test]
    fn validate_rejects_wrong_schema() {
        let doc = Value::obj(vec![("schema", Value::Num(999.0))]);
        assert!(validate_telemetry(&doc).is_err());
    }
}
