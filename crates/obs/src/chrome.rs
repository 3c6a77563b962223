//! chrome://tracing export for flight-recorder dumps.
//!
//! Produces the Trace Event Format's JSON array form: instant events (`"ph":
//! "i"`) on one "thread" per subsystem, timestamps in microseconds of
//! *virtual* time. Load the file in `chrome://tracing` or Perfetto to scrub
//! through a run visually; flows stand out because every record of one flow
//! carries the same `trace_id` arg.

use crate::intern::{kind, subsys};
use crate::json::Value;
use crate::recorder::FlightRecorder;

/// Render the retained records as a chrome://tracing JSON document.
pub fn chrome_trace_json(recorder: &FlightRecorder, process_name: &str) -> String {
    let mut events: Vec<Value> = Vec::with_capacity(recorder.len() + subsys::NAMES.len() + 1);
    events.push(Value::obj(vec![
        ("name", Value::Str("process_name".to_string())),
        ("ph", Value::Str("M".to_string())),
        ("pid", Value::Num(1.0)),
        ("tid", Value::Num(0.0)),
        (
            "args",
            Value::obj(vec![("name", Value::Str(process_name.to_string()))]),
        ),
    ]));
    for (i, name) in subsys::NAMES.iter().enumerate() {
        events.push(Value::obj(vec![
            ("name", Value::Str("thread_name".to_string())),
            ("ph", Value::Str("M".to_string())),
            ("pid", Value::Num(1.0)),
            ("tid", Value::Num(i as f64)),
            (
                "args",
                Value::obj(vec![("name", Value::Str((*name).to_string()))]),
            ),
        ]));
    }
    for rec in recorder.iter() {
        events.push(Value::obj(vec![
            ("name", Value::Str(kind::name(rec.kind).to_string())),
            ("ph", Value::Str("i".to_string())),
            ("s", Value::Str("t".to_string())),
            ("ts", Value::Num(rec.t_ns as f64 / 1000.0)),
            ("pid", Value::Num(1.0)),
            ("tid", Value::Num(rec.subsys as f64)),
            (
                "args",
                Value::obj(vec![
                    ("trace_id", Value::Num(rec.trace_id as f64)),
                    ("a", Value::Num(rec.a as f64)),
                    ("b", Value::Num(rec.b as f64)),
                ]),
            ),
        ]));
    }
    Value::Arr(events).to_json()
}

/// Render the retained records as JSONL: one compact object per line,
/// oldest first, with kind/subsys resolved to names.
pub fn jsonl_dump(recorder: &FlightRecorder) -> String {
    let mut out = String::new();
    for rec in recorder.iter() {
        let line = Value::obj(vec![
            ("t_ns", Value::Num(rec.t_ns as f64)),
            ("trace_id", Value::Num(rec.trace_id as f64)),
            ("kind", Value::Str(kind::name(rec.kind).to_string())),
            ("subsys", Value::Str(subsys::name(rec.subsys).to_string())),
            ("a", Value::Num(rec.a as f64)),
            ("b", Value::Num(rec.b as f64)),
        ]);
        out.push_str(&line.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn chrome_export_parses_and_counts() {
        let mut fr = FlightRecorder::new(16);
        fr.record(1_000, 7, kind::FLOW_START, subsys::WORLD, 1, 2);
        fr.record(2_000, 7, kind::FRAME_DELIVERED, subsys::SWITCH, 3, 4);
        let doc = json::parse(&chrome_trace_json(&fr, "test")).unwrap();
        let events = doc.as_arr().unwrap();
        // 1 process meta + 5 thread metas + 2 records
        assert_eq!(events.len(), 8);
        let last = &events[7];
        assert_eq!(last.get("name").unwrap().as_str(), Some("frame_delivered"));
        assert_eq!(last.get("ts").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn jsonl_is_one_record_per_line() {
        let mut fr = FlightRecorder::new(16);
        fr.record(1, 0, kind::EVENT_POP, subsys::WORLD, 0, 0);
        fr.record(2, 0, kind::HANDLER_DONE, subsys::WORLD, 0, 3);
        let dump = jsonl_dump(&fr);
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = json::parse(lines[0]).unwrap();
        assert_eq!(first.get("kind").unwrap().as_str(), Some("event_pop"));
    }
}
