//! The results file: a `_meta` block that says what was measured, then
//! every row; and `compare`, which diffs two such files and refuses
//! when their `_meta` blocks describe different experiments.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};
use crate::stats::Summary;
use crate::trace::Span;
use crate::workloads::Outcome;
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn summary_json(s: &Summary, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(s.median)),
        ("unit", Json::Str(unit.to_owned())),
        ("n", Json::Num(s.n as f64)),
        ("min", Json::Num(s.min)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("max", Json::Num(s.max)),
    ])
}

fn rows_json(outcome: &Outcome) -> Json {
    let unit_of = |name: &str| crate::metrics::describe(name).map_or("", |(unit, _, _)| unit);
    Json::Obj(
        outcome
            .metrics
            .iter()
            .map(|(name, s)| (name.clone(), summary_json(s, unit_of(name))))
            .collect(),
    )
}

fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.to_owned())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("count", Json::Num(s.count as f64)),
                ])
            })
            .collect(),
    )
}

/// What identifies the experiment a results file records.
#[derive(Debug, Clone)]
pub struct Meta {
    pub git_rev: String,
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    pub cpu_model: String,
    pub quick: bool,
}

/// The results document of one run of one workload in one mode. A full
/// results file is the [`merge`] of ten of these.
pub fn document(meta: &Meta, workload: &str, outcome: &Outcome, traced: bool) -> Json {
    let keyed = |value: Json| Json::obj([(workload, value)]);
    let operations = Json::obj([
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "failed_share",
            Json::Num(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        ),
    ]);
    let meta = Json::obj([
        ("git_rev", Json::Str(meta.git_rev.clone())),
        ("seed", Json::Num(meta.seed as f64)),
        ("seconds", Json::Num(meta.seconds)),
        ("nproc", Json::Num(meta.nproc as f64)),
        ("cpu_model", Json::Str(meta.cpu_model.clone())),
        ("quick", Json::Bool(meta.quick)),
        (
            "workloads",
            keyed(Json::obj([
                ("devices", Json::Num(outcome.input.devices as f64)),
                ("flows", Json::Num(outcome.input.flows as f64)),
                ("bytes", Json::Num(outcome.input.bytes as f64)),
            ])),
        ),
    ]);
    if traced {
        Json::obj([
            ("_meta", meta),
            ("per_layer", keyed(rows_json(outcome))),
            ("traced_operations", keyed(operations)),
            ("spans", keyed(spans_json(&outcome.spans))),
        ])
    } else {
        Json::obj([
            ("_meta", meta),
            ("end_to_end", keyed(rows_json(outcome))),
            ("operations", keyed(operations)),
        ])
    }
}

/// Fold `part` into `into`: objects merge key by key, anything else is
/// replaced.
pub fn merge(into: &mut Json, part: Json) {
    match (into, part) {
        (Json::Obj(into), Json::Obj(part)) => {
            for (key, value) in part {
                match into.get_mut(&key) {
                    Some(slot) => merge(slot, value),
                    None => {
                        into.insert(key, value);
                    }
                }
            }
        }
        (into, part) => *into = part,
    }
}

/// Whether any workload of a results document had a failed operation.
pub fn any_failed(doc: &Json) -> bool {
    ["operations", "traced_operations"].iter().any(|section| {
        doc.get(section)
            .and_then(Json::as_obj)
            .into_iter()
            .flatten()
            .any(|(_, o)| o.get("failed").and_then(Json::as_f64) != Some(0.0))
    })
}

/// Why two results files cannot be compared, if they cannot.
fn meta_mismatch(old: &Json, new: &Json) -> Option<String> {
    let (old, new) = (old.get("_meta")?, new.get("_meta")?);
    for key in ["seed", "seconds", "nproc", "quick"] {
        if old.get(key) != new.get(key) {
            return Some(format!(
                "_meta.{key} differs: {} vs {}",
                old.get(key).map_or("absent".to_owned(), Json::render),
                new.get(key).map_or("absent".to_owned(), Json::render),
            ));
        }
    }
    let (ow, nw) = (
        old.get("workloads")?.as_obj()?,
        new.get("workloads")?.as_obj()?,
    );
    if ow.keys().ne(nw.keys()) {
        return Some("_meta.workloads name different workloads".to_owned());
    }
    for (name, o) in ow {
        for key in ["flows", "bytes"] {
            if o.get(key) != nw[name].get(key) {
                return Some(format!("_meta.workloads.{name}.{key} differs"));
            }
        }
    }
    None
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    /// Within the bound, but the runs' own spread is wider than the
    /// bound, so "no change" is not something this row can say.
    Unresolved,
    Regressed,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
        }
    }
}

/// Judge one row: `worse` is how much worse the new median is as a
/// share of the old (negative = better); `spread` the wider of the two
/// runs' interquartile spreads.
pub fn judge(worse: f64, spread: f64, bound: f64) -> Verdict {
    if worse > bound {
        Verdict::Regressed
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The comparison table, and whether any row regressed.
///
/// # Errors
///
/// A refusal: the files are malformed or record different experiments.
pub fn compare(old: &Json, new: &Json) -> Result<(String, bool), String> {
    if old.get("_meta").is_none() || new.get("_meta").is_none() {
        return Err("not a results file: no _meta block".to_owned());
    }
    if let Some(why) = meta_mismatch(old, new) {
        return Err(format!("refusing to compare: {why}"));
    }
    let rows = |doc: &Json| -> BTreeMap<(String, String), (f64, f64)> {
        let mut out = BTreeMap::new();
        let Some(workloads) = doc.get("end_to_end").and_then(Json::as_obj) else {
            return out;
        };
        for (workload, metrics) in workloads {
            for (metric, row) in metrics.as_obj().into_iter().flatten() {
                let num = |k: &str| row.get(k).and_then(Json::as_f64);
                if let (Some(value), Some(q1), Some(q3)) = (num("value"), num("q1"), num("q3")) {
                    let spread = if value == 0.0 {
                        0.0
                    } else {
                        (q3 - q1) / value.abs()
                    };
                    out.insert((workload.clone(), metric.clone()), (value, spread));
                }
            }
        }
        out
    };
    let (old_rows, new_rows) = (rows(old), rows(new));
    let mut table = format!(
        "{:<16} {:<22} {:>12} {:>12} {:>22} {:>6}  verdict\n",
        "workload", "metric", "old", "new", "new/old", "bound"
    );
    let mut regressed = false;
    for ((workload, metric), (old_v, old_spread)) in &old_rows {
        let Some(def) = END_TO_END.iter().find(|m| m.name == metric) else {
            continue;
        };
        let Some((new_v, new_spread)) = new_rows.get(&(workload.clone(), metric.clone())) else {
            return Err(format!(
                "refusing to compare: {workload}/{metric} is missing from NEW"
            ));
        };
        let ratio = new_v / old_v;
        let worse = match def.better {
            Better::Lower => ratio - 1.0,
            Better::Higher => 1.0 - ratio,
        };
        let verdict = judge(worse, old_spread.max(*new_spread), def.bound);
        regressed |= verdict == Verdict::Regressed;
        let _ = writeln!(
            table,
            "{workload:<16} {metric:<22} {old_v:>12.4} {new_v:>12.4} {:>22} {:>6.2}  {}",
            format!("{ratio:.4} (base {old_v:.4})"),
            def.bound,
            verdict.as_str(),
        );
    }
    let failed = |doc: &Json, w: &str| {
        doc.get("operations")
            .and_then(|o| o.get(w))
            .and_then(|o| o.get("failed_share"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    for workload in old
        .get("operations")
        .and_then(Json::as_obj)
        .into_iter()
        .flatten()
    {
        let (o, n) = (failed(old, workload.0), failed(new, workload.0));
        // Any rise in the failed share is a regression: bound 0.
        let verdict = if n > o {
            Verdict::Regressed
        } else {
            Verdict::Unchanged
        };
        regressed |= verdict == Verdict::Regressed;
        let _ = writeln!(
            table,
            "{:<16} {:<22} {o:>12.4} {n:>12.4} {:>22} {:>6.2}  {}",
            workload.0,
            "failed_share",
            "",
            0.0,
            verdict.as_str(),
        );
    }
    Ok((table, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(seed: f64, flows: f64, op_ms: f64, q: (f64, f64)) -> Json {
        let row = Json::obj([
            ("value", Json::Num(op_ms)),
            ("unit", Json::Str("ms".into())),
            ("n", Json::Num(10.0)),
            ("min", Json::Num(q.0)),
            ("q1", Json::Num(q.0)),
            ("q3", Json::Num(q.1)),
            ("max", Json::Num(q.1)),
        ]);
        Json::obj([
            (
                "_meta",
                Json::obj([
                    ("seed", Json::Num(seed)),
                    ("seconds", Json::Num(10.0)),
                    ("nproc", Json::Num(2.0)),
                    ("quick", Json::Bool(false)),
                    (
                        "workloads",
                        Json::obj([(
                            "batch_paper",
                            Json::obj([("flows", Json::Num(flows)), ("bytes", Json::Num(1.0))]),
                        )]),
                    ),
                ]),
            ),
            (
                "end_to_end",
                Json::obj([("batch_paper", Json::obj([("op_p50_ms", row)]))]),
            ),
            (
                "operations",
                Json::obj([("batch_paper", Json::obj([("failed_share", Json::Num(0.0))]))]),
            ),
        ])
    }

    #[test]
    fn parts_merge_into_one_document() {
        let meta = Meta {
            git_rev: "abc".into(),
            seed: 7,
            seconds: 10.0,
            nproc: 2,
            cpu_model: "x".into(),
            quick: false,
        };
        let mut untraced = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        untraced
            .metrics
            .insert("op_p50_ms".into(), Summary::of(&[1.0, 2.0, 3.0]));
        let mut traced = Outcome {
            attempted: 3,
            failed: 1,
            ..Outcome::default()
        };
        traced
            .metrics
            .insert("net.decode_s".into(), Summary::single(0.3));
        let mut doc = Json::obj([]);
        merge(&mut doc, document(&meta, "batch_paper", &untraced, false));
        assert!(!any_failed(&doc));
        merge(&mut doc, document(&meta, "batch_paper", &traced, true));
        merge(&mut doc, document(&meta, "store_write", &untraced, false));
        let row = |section: &str, w: &str, m: &str| {
            doc.get(section)
                .and_then(|s| s.get(w))
                .and_then(|s| s.get(m))
                .and_then(|r| r.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(row("end_to_end", "batch_paper", "op_p50_ms"), Some(2.0));
        assert_eq!(row("end_to_end", "store_write", "op_p50_ms"), Some(2.0));
        assert_eq!(row("per_layer", "batch_paper", "net.decode_s"), Some(0.3));
        let workloads = doc.get("_meta").and_then(|m| m.get("workloads")).unwrap();
        assert_eq!(workloads.as_obj().unwrap().len(), 2);
        assert!(any_failed(&doc), "the traced run had a failed operation");
        assert!(compare(&doc, &doc).is_ok());
    }

    #[test]
    fn refuses_when_meta_describes_another_experiment() {
        let base = doc(7.0, 100.0, 950.0, (940.0, 960.0));
        for other in [
            doc(11.0, 100.0, 950.0, (940.0, 960.0)),
            doc(7.0, 101.0, 950.0, (940.0, 960.0)),
        ] {
            let refusal = compare(&base, &other).unwrap_err();
            assert!(refusal.starts_with("refusing to compare"), "{refusal}");
        }
        let mut quick = base.clone();
        if let Json::Obj(top) = &mut quick {
            if let Some(Json::Obj(meta)) = top.get_mut("_meta") {
                meta.insert("quick".into(), Json::Bool(true));
            }
        }
        assert!(compare(&base, &quick).unwrap_err().contains("_meta.quick"));
        assert!(compare(&Json::obj([]), &base).is_err());
    }

    #[test]
    fn judges_rows_against_bound_and_spread() {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "op_p50_ms")
            .expect("op_p50_ms is an end-to-end metric")
            .bound;
        let base = doc(7.0, 100.0, 1000.0, (990.0, 1010.0));
        // Worse by 5 %, well inside the bound: unchanged, exit clean.
        let (table, regressed) =
            compare(&base, &doc(7.0, 100.0, 1050.0, (1040.0, 1060.0))).unwrap();
        assert!(!regressed);
        assert!(table.contains("unchanged"), "{table}");
        assert!(table.contains("1.0500 (base 1000.0000)"), "{table}");
        // Worse by one and a half bounds: regressed.
        let worse = 1000.0 * (1.0 + 1.5 * bound);
        let (table, regressed) =
            compare(&base, &doc(7.0, 100.0, worse, (worse - 10.0, worse + 10.0))).unwrap();
        assert!(regressed);
        assert!(table.contains("REGRESSED"), "{table}");
        // Worse by 5 %, but the new run's own quartiles are further apart
        // than the bound: unresolved, not unchanged.
        let wide = (1050.0 * (1.0 - bound), 1050.0 * (1.0 + bound));
        let (table, regressed) = compare(&base, &doc(7.0, 100.0, 1050.0, wide)).unwrap();
        assert!(!regressed);
        assert!(table.contains("unresolved"), "{table}");
        assert_eq!(judge(-0.2, 0.01, 0.1), Verdict::Improved);
        assert_eq!(judge(0.2, 0.5, 0.1), Verdict::Regressed);
    }
}
