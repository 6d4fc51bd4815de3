//! The metric catalog: every metric the benchmark reports, with its
//! unit. Every workload prints every end-to-end metric on an untraced
//! run and every per-layer metric on a traced run; a layer the workload
//! never calls reads 0 there. `BENCHMARK.json` lists the same names, and
//! a unit test keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics, in print order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Applications of the rank-scaling ladder, as metric-name segments.
pub const APPS: [&str; 4] = ["lbmhd", "gtc", "cactus", "paratec"];

/// The rank counts each application runs at: (reference, largest).
pub fn ladder_procs(app: &str) -> (usize, usize) {
    match app {
        "lbmhd" => (8192, 65536),
        "paratec" => (256, 1024),
        _ => (8192, 32768),
    }
}

/// Exact simulator counts reported per application at its largest P.
pub const SIM_COUNTS: [&str; 8] = [
    "resumes",
    "batches",
    "messages",
    "parks",
    "wakeups",
    "collectives",
    "peak_parked",
    "bytes_sent",
];

/// Processor-count buckets of the engine timings.
pub const ENGINE_BUCKETS: [(&str, usize, usize); 3] = [
    ("p16-64", 16, 64),
    ("p128-256", 128, 256),
    ("p512-1024", 512, 1024),
];

/// Per-layer metrics, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("server.busy_us_p50", "us"),
        ("server.busy_us_p90", "us"),
        ("server.unattributed_us_p50", "us"),
        ("proto.parse_us", "us"),
        ("proto.encode_us", "us"),
        ("workload.resolve_us", "us"),
        ("cache.get_memory_us", "us"),
        ("cache.insert_us", "us"),
        ("cache.spill_bytes_per_cell", "B"),
        ("store.hit_us", "us"),
        ("store.miss_us", "us"),
        ("store.hit_ratio", "ratio"),
        ("store.batched_ratio", "ratio"),
        ("store.sim_runs", "count"),
        ("store.queue_peak_depth", "count"),
        ("store.rejected", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for (bucket, _, _) in ENGINE_BUCKETS {
        m.push((format!("engine.cell_us.{bucket}"), "us"));
    }
    m.push(("engine.partition_panics".to_string(), "count"));
    for app in APPS {
        let (reference, largest) = ladder_procs(app);
        m.push((format!("mpisim.{app}.us_per_rank.p{reference}"), "us"));
        m.push((format!("mpisim.{app}.us_per_rank.p{largest}"), "us"));
        m.push((format!("mpisim.{app}.per_rank_ratio"), "ratio"));
        for count in SIM_COUNTS {
            m.push((
                format!("mpisim.{app}.{count}"),
                if count == "bytes_sent" { "B" } else { "count" },
            ));
        }
    }
    m.push(("mpisim.ns_per_event".to_string(), "ns"));
    for p in [1024, 32768] {
        m.push((format!("mpisim.sendrecv_us_per_rank_op.p{p}"), "us"));
        m.push((format!("mpisim.allreduce_us_per_rank_op.p{p}"), "us"));
    }
    for p in [256, 1024] {
        m.push((format!("mpisim.alltoallv_us_per_pair.p{p}"), "us"));
    }
    for app in APPS {
        m.push((format!("pool.speedup.{app}"), "ratio"));
    }
    m.push(("trace.overhead_pct".to_string(), "%"));
    m.push(("trace.untraced_spread_pct".to_string(), "%"));
    m
}

/// Metric values as a workload measured them; anything absent reads 0.
pub type Values = BTreeMap<String, f64>;

#[cfg(test)]
mod tests {
    use super::*;
    use pvs_analyze::json::{parse, Value};

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.str("name").unwrap().to_string(),
                    m.str("unit").unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "per_layer"), layers);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        assert!(names.len() <= 6 + 128);
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }
}
