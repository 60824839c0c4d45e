//! Text and JSON exporters over [`Snapshot`].
//!
//! Both are hand-rolled (the crate is zero-dependency) and emit entries
//! in the snapshot's lexicographic order, so output is byte-stable for
//! equal snapshots.

use crate::metric::Stability;
use crate::snapshot::{Snapshot, SnapshotValue};
use std::fmt::Write as _;
use std::time::Duration;

impl Snapshot {
    /// Render as aligned human-readable text, one metric per line.
    /// Variant metrics are marked `~` (not comparable across runs).
    pub fn to_text(&self) -> String {
        let width = self.entries.iter().map(|e| e.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for e in &self.entries {
            let marker = match e.stability {
                Stability::Stable => ' ',
                Stability::Variant => '~',
            };
            let _ = write!(out, "{marker}{:<width$}  ", e.name);
            match &e.value {
                SnapshotValue::Counter(v) => {
                    let _ = writeln!(out, "{v}");
                }
                SnapshotValue::Gauge(v) => {
                    let _ = writeln!(out, "{v}");
                }
                SnapshotValue::Duration { total_ns, spans } => {
                    let _ = writeln!(
                        out,
                        "{:.3?} over {spans} spans",
                        Duration::from_nanos(*total_ns)
                    );
                }
                SnapshotValue::Histogram {
                    bounds,
                    buckets,
                    count,
                    sum,
                    max,
                } => {
                    let _ = write!(out, "count={count} sum={sum} max={max} buckets=[");
                    for (i, n) in buckets.iter().enumerate() {
                        if i > 0 {
                            let _ = write!(out, " ");
                        }
                        match bounds.get(i) {
                            Some(b) => {
                                let _ = write!(out, "<={b}:{n}");
                            }
                            None => {
                                let _ = write!(out, ">{}:{n}", bounds.last().unwrap_or(&0));
                            }
                        }
                    }
                    let _ = writeln!(out, "]");
                }
            }
        }
        out
    }

    /// Render as a JSON object keyed by metric name. Each value carries
    /// its `kind`, `stability`, and kind-specific fields; key order is
    /// the snapshot's (lexicographic) order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"stability\":\"{}\",",
                json_string(&e.name),
                match e.stability {
                    Stability::Stable => "stable",
                    Stability::Variant => "variant",
                }
            );
            match &e.value {
                SnapshotValue::Counter(v) => {
                    let _ = write!(out, "\"kind\":\"counter\",\"value\":{v}");
                }
                SnapshotValue::Gauge(v) => {
                    let _ = write!(out, "\"kind\":\"gauge\",\"value\":{v}");
                }
                SnapshotValue::Duration { total_ns, spans } => {
                    let _ = write!(
                        out,
                        "\"kind\":\"timer\",\"total_ns\":{total_ns},\"spans\":{spans}"
                    );
                }
                SnapshotValue::Histogram {
                    bounds,
                    buckets,
                    count,
                    sum,
                    max,
                } => {
                    let _ = write!(
                        out,
                        "\"kind\":\"histogram\",\"bounds\":{},\"buckets\":{},\"count\":{count},\"sum\":{sum},\"max\":{max}",
                        json_u64_array(bounds),
                        json_u64_array(buckets)
                    );
                }
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

fn json_u64_array(values: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

/// Render `s` as a JSON string literal, quotes included: the one
/// escaper behind the metrics export and the daemon's JSON payloads.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.counter("store.bytes_read").add(1234);
        r.gauge("pipeline.threads").set(4);
        r.timer("pipeline.read_time")
            .record(Duration::from_millis(3));
        let h = r.histogram("store.hour_bytes", &[10, 100]);
        h.observe(5);
        h.observe(500);
        r.snapshot()
    }

    #[test]
    fn text_contains_every_metric_and_marks_variants() {
        let text = sample().to_text();
        assert!(text.contains(" store.bytes_read"));
        assert!(text.contains("1234"));
        assert!(text.contains("~pipeline.threads"));
        assert!(text.contains("~pipeline.read_time"));
        assert!(text.contains("count=2 sum=505 max=500 buckets=[<=10:1 <=100:0 >100:1]"));
    }

    #[test]
    fn json_is_parseable_shape_and_ordered() {
        let json = sample().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains(
            "\"store.bytes_read\":{\"stability\":\"stable\",\"kind\":\"counter\",\"value\":1234}"
        ));
        assert!(json.contains("\"kind\":\"histogram\",\"bounds\":[10,100],\"buckets\":[1,0,1]"));
        let threads = json.find("pipeline.threads").unwrap();
        let bytes = json.find("store.bytes_read").unwrap();
        assert!(threads < bytes, "keys must be name-ordered");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn equal_registries_render_identically() {
        let build = || {
            let r = Registry::new();
            r.counter("a").add(7);
            r.counter("b").add(9);
            r.snapshot()
        };
        assert_eq!(build().to_json(), build().to_json());
        assert_eq!(build().to_text(), build().to_text());
    }

    #[test]
    fn empty_snapshot_renders() {
        let s = Registry::new().snapshot();
        assert_eq!(s.to_json(), "{}");
        assert_eq!(s.to_text(), "");
    }
}
