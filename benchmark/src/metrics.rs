//! The names, units, directions and bounds of everything the benchmark
//! reports. `BENCHMARK.json` at the repository root states the same
//! lists for the driver; a unit test holds the two together.

/// Hours in the paper's analysis window: what every workload processes.
pub const WINDOW_HOURS: f64 = 143.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: measured from outside the program, on every
/// workload, with the share of the baseline median it may worsen by.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// What each end-to-end metric means is fixed per workload kind:
///
/// * `op_best_ms`, `op_p50_ms` — fastest and median wall of the
///   workload's operation: one `analyze` run (batch workloads), one
///   `migrate --format v3` + `migrate --segmented` pair (`store_write`),
///   one daemon lifetime from spawn to `ingest complete` under the
///   open-loop query load (`serve_live`).
/// * `hours_per_s` — window hours consumed per second, at best: 143 ÷
///   the fastest operation on the process workloads; on `serve_live`
///   143 ÷ the fastest `serving on` → `ingest complete`.
/// * `peak_rss_mb` — largest `ru_maxrss` of any timed child.
/// * `stored_bytes_per_flow` — bytes under the `darknet/` the workload
///   reads (or, for `store_write`, leaves behind) ÷ flows in it.
/// * `setup_s` — median over the set-up passes of the summed walls of
///   the commands that build the input and warm it once.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_best_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "hours_per_s",
        unit: "hours/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "stored_bytes_per_flow",
        unit: "B",
        better: Better::Lower,
        bound: 0.05,
    },
];

/// A per-layer metric of the traced run. `moves` names the end-to-end
/// metric and workload a change in it should show up in.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// Every per-layer metric, layer = crate name. A workload that does not
/// run a layer reports 0 for its metrics.
pub const PER_LAYER: [PerLayer; 66] = [
    // -- batch trace --------------------------------------------------
    layer("devicedb.inventory_load_s", "s", Lower, "op_*_ms on batch_paper(+_par); ~nothing on batch_dense_seg"),
    layer("devicedb.devices", "count", Lower, "input size, for reading the two rows above and below"),
    layer("devicedb.index_build_s", "s", Lower, "op_*_ms on batch_paper(+_par)"),
    layer("net.store_open_s", "s", Lower, "op_*_ms on batch_dense_seg (manifest load)"),
    layer("net.read_s", "s", Lower, "op_*_ms, peak_rss_mb on batch_dense_seg; store_write"),
    layer("net.bytes_read", "B", Lower, "stored_bytes_per_flow; net.read_s"),
    layer("net.mapped_share", "ratio", Higher, "peak_rss_mb on batch_dense_seg"),
    layer("net.decode_s", "s", Lower, "op_*_ms on batch_dense_seg most, batch_paper less, store_write (decode half)"),
    layer("net.records_decoded", "count", Lower, "work count behind net.decode_s"),
    layer("net.blocks_decoded", "count", Lower, "work count behind net.decode_s"),
    layer("net.decode_mb_per_s", "MB/s", Higher, "same as net.decode_s, size-normalised"),
    layer("devicedb.correlate_s", "s", Lower, "op_*_ms on batch_paper; little on batch_dense_seg"),
    layer("devicedb.correlate_hit_ratio", "ratio", Higher, "useful share of correlation probes"),
    layer("core.ingest_fused_s", "s", Lower, "op_*_ms on all three batch workloads"),
    layer("core.classify_self_s", "s", Lower, "op_*_ms on all three batch workloads (fused - decode - correlate)"),
    layer("core.finish_s", "s", Lower, "op_*_ms on batch_paper"),
    layer("core.pipeline_s", "s", Lower, "cross-check of the spans above; op_*_ms on batch_paper_par"),
    layer("core.pipeline.read_s", "s", Lower, "cross-check of net.read_s"),
    layer("core.pipeline.ingest_s", "s", Lower, "cross-check of core.ingest_fused_s (summed over workers)"),
    layer("core.pipeline.merge_s", "s", Lower, "op_*_ms on batch_paper_par"),
    layer("core.par_efficiency", "ratio", Higher, "op_*_ms on batch_paper_par only"),
    layer("core.shard_skew", "ratio", Lower, "bounds core.par_efficiency on batch_paper_par"),
    layer("core.candidates_s", "s", Lower, "op_*_ms on batch_paper"),
    layer("intel.synth_s", "s", Lower, "op_*_ms on batch_paper; setup_s and serve.startup_s on serve_live"),
    layer("intel.index_build_s", "s", Lower, "op_*_ms on batch_paper; serve.startup_s on serve_live"),
    layer("core.score_s", "s", Lower, "op_*_ms on batch_paper"),
    layer("core.report_build_s", "s", Lower, "op_*_ms on batch_paper"),
    layer("core.report_render_s", "s", Lower, "op_*_ms on batch_paper"),
    layer("cli.process_overhead_s", "s", Lower, "CLI median - traced in-process wall: the floor no layer removes"),
    layer("trace.root_s", "s", Lower, "the traced in-process wall itself"),
    layer("trace.coverage", "ratio", Higher, "validity: share of the traced wall under a named span (0.9-1.1)"),
    layer("trace.overhead", "ratio", Lower, "validity: traced wall / untraced in-process wall"),
    // -- write trace (store_write) --------------------------------------
    layer("net.encode_s", "s", Lower, "op_*_ms on store_write"),
    layer("net.encode_mb_per_s", "MB/s", Higher, "same, size-normalised"),
    layer("net.write_s", "s", Lower, "op_*_ms on store_write (tmp + fsync + rename)"),
    layer("net.compact_s", "s", Lower, "op_*_ms on store_write"),
    layer("net.bytes_written", "B", Lower, "stored_bytes_per_flow on store_write"),
    layer("net.write_amp", "ratio", Lower, "bytes written incl. compaction / final bytes"),
    // -- serve trace (serve_live), in-process ---------------------------
    layer("serve.respond.healthz_us", "us", Lower, "serve.steady_p50_ms, serve.query_p50_ms"),
    layer("serve.respond.summary_us", "us", Lower, "serve.steady_p50_ms, serve.query_p50_ms"),
    layer("serve.respond.device_us", "us", Lower, "serve.steady_p50_ms, serve.query_p50_ms"),
    layer("serve.respond.realms_us", "us", Lower, "serve.steady_p50_ms, serve.query_p50_ms"),
    layer("serve.respond.countries_us", "us", Lower, "serve.steady_p50_ms, serve.query_p50_ms"),
    layer("serve.respond.isps_us", "us", Lower, "serve.steady_p50_ms, serve.query_p50_ms"),
    layer("serve.respond.alerts_us", "us", Lower, "serve.steady_p50_ms, serve.query_p50_ms"),
    layer("serve.respond.score_top_us", "us", Lower, "serve.steady_p50_ms, serve.query_p50_ms"),
    layer("serve.respond.score_us", "us", Lower, "serve.steady_p50_ms, serve.query_p50_ms"),
    layer("serve.respond.metrics_us", "us", Lower, "serve.steady_p50_ms, serve.query_p50_ms"),
    layer("serve.http_overhead_us", "us", Lower, "serve.steady_p50_ms, serve.query_p50_ms"),
    layer("core.stream.push_hour_ms", "ms", Lower, "hours_per_s on serve_live"),
    layer("core.stream.push_hour_p99_ms", "ms", Lower, "hours_per_s, serve.query_p99_ms on serve_live"),
    layer("core.stream.snapshot_ms", "ms", Lower, "hours_per_s, serve.query_p99_ms on serve_live"),
    layer("core.score.fold_ms", "ms", Lower, "hours_per_s on serve_live"),
    layer("serve.ingest_s", "s", Lower, "hours_per_s on serve_live (unloaded, in-process)"),
    layer("serve.publish_share", "ratio", Lower, "hours_per_s and, through core contention, serve.query_p99_ms"),
    // -- serve_live, from the live lifetimes ----------------------------
    layer("serve.startup_s", "s", Lower, "op_best_ms, op_p50_ms, setup_s on serve_live"),
    layer("serve.query_p50_ms", "ms", Lower, "what a query waits, both regimes pooled; ungated (three thread wake-ups of the VM dominate it)"),
    layer("serve.query_p99_ms", "ms", Lower, "the tail operators see; too noisy on 2 CPUs to carry a bound"),
    layer("serve.ingest_phase_p50_ms", "ms", Lower, "query latency while hours publish (core contention, publish cost)"),
    layer("serve.ingest_phase_p99_ms", "ms", Lower, "serve.query_p99_ms, while hours publish"),
    layer("serve.steady_p50_ms", "ms", Lower, "moves with serve.respond.* and serve.http_overhead_us only"),
    layer("serve.steady_p99_ms", "ms", Lower, "serve.query_p99_ms, after ingest"),
    layer("loadgen.sent", "count", Higher, "validity: requests written"),
    layer("loadgen.late_p99_ms", "ms", Lower, "validity: how late the generator ran (must stay <= 1)"),
    layer("serve.requests_counted", "count", Higher, "validity: the daemon's own counters; equals answered requests"),
    layer("serve.query_samples", "count", Higher, "sample count behind the query percentiles"),
];

/// Unit, direction and (per-layer only) what the metric should move.
pub fn describe(name: &str) -> Option<(&'static str, Better, &'static str)> {
    END_TO_END
        .iter()
        .map(|m| (m.name, (m.unit, m.better, "")))
        .chain(
            PER_LAYER
                .iter()
                .map(|m| (m.name, (m.unit, m.better, m.moves))),
        )
        .find(|(n, _)| *n == name)
        .map(|(_, described)| described)
}

/// The five workloads, with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "batch_paper",
        "The paper's shape, single-threaded: 331k-device inventory, so inventory load, correlation and per-device state dominate.",
    ),
    (
        "batch_paper_par",
        "Same data through the sharded driver: a parallelism gain shows here and must not move batch_paper.",
    ),
    (
        "batch_dense_seg",
        "Small inventory, twice the flows, segment+mmap read path: decode and classify dominate, inventory work is ~0.",
    ),
    (
        "store_write",
        "The write side (decode, encode, tmp+rename, compaction), so a read-side gain that fattens or slows writes shows.",
    ),
    (
        "serve_live",
        "The daemon under an open-loop query schedule while 143 hours ingest: snapshot, publish and HTTP work only show here.",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.0, "x")));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!unit.is_empty() && unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let field = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).unwrap().to_owned();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| ((*n).to_owned(), (*w).to_owned()))
            .collect();
        assert_eq!(workloads, expected);

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), want.better.as_str());
            assert_eq!(got.get("bound").and_then(Json::as_f64), Some(want.bound));
        }

        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (got, want) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), want.better.as_str());
        }
    }
}
