//! Metric definitions and how each value is derived from a finished run.
//!
//! `BENCHMARK.json` lists the same names, units and directions; a unit
//! test keeps the two in step.

use crate::phases::{
    temporal_geomean, warm_rps, Op, Run, Samples, PAPER_STATS, PAPER_SVG, PAPER_TIMELINE,
};
use crate::stats::{median, percentile, ratio, sorted, tail_supported, vm_hwm_mb};
use crate::trace::Tracer;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// A remark for the human-readable line (sample counts).
    pub note: String,
}

/// The end-to-end metrics: name, unit, direction, regression bound.
///
/// Seven of ISSUE 11's sixteen are per-layer metrics here, by the issue's
/// own rule for a metric that cannot be made to agree between two sets of
/// runs. `failed_share` is 0 at HEAD, and the driver takes a bound as a
/// share of the parent's median. The three tails (`select_p95_ms`,
/// `temporal_p90_ms`, `select_during_ingest_p95_ms`), `temporal_geomean_ms`,
/// `warm_rps` and `select_during_ingest_p50_ms` were 25 to 60% apart
/// between ten runs of one commit in a third to a half of the sets
/// measured, past the contract's largest bound. Each of them needs both
/// cores at once (the battery runs on two threads, the warm phase keeps
/// four busy, the reader competes with the writer), and the reference
/// box's second core comes and goes by the minute (README). All seven are
/// still measured at the socket on the untraced pass and printed by every
/// traced run.
///
/// The bounds are the contract's ceiling, not ISSUE 11's 10 to 20%: ten
/// runs of one commit put the medians below 2 to 16% apart, and a set
/// taken in a busy half hour more (README). The three cohort reads are
/// medians over the sessions of the paper's shape ([`PAPER_STATS`]).
pub const END_TO_END: [(&str, &str, &str, f64); 9] = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
    ("select_p50_ms", "ms", "lower", 0.25),
    ("cohort_stats_p50_ms", "ms", "lower", 0.25),
    ("cohort_timeline_p50_ms", "ms", "lower", 0.25),
    ("cohort_svg_p50_ms", "ms", "lower", 0.25),
    ("view_p50_ms", "ms", "lower", 0.25),
    ("ingest_visible_p50_ms", "ms", "lower", 0.25),
    ("ingest_entries_per_s", "1/s", "higher", 0.25),
];

/// The median (`q` = 0.5) or a nearest-rank tail percentile of a sample.
fn p(samples: &Samples, name: &str, q: f64) -> (f64, String) {
    let values = samples.get(name);
    let mut note = format!("n={}", values.len());
    if q == 0.5 {
        return (median(values), note);
    }
    if !tail_supported(values.len(), q) {
        note.push_str(", fewer than 10 samples beyond this percentile");
    }
    (percentile(&sorted(values.to_vec()), q), note)
}

/// Every end-to-end metric of a finished run, from the untraced pass.
pub fn end_to_end(run: &Run<'_>, setup_s: f64) -> Vec<Metric> {
    let s = &run.socket;
    let gauge = |name: &str| (run.gauges.get(name).copied().unwrap_or(0.0), String::new());
    END_TO_END
        .iter()
        .map(|(name, unit, _, _)| {
            let (value, note) = match *name {
                "setup_s" => (setup_s, format!("median of {} set-ups", run.spec.setups)),
                "peak_rss_mb" => (vm_hwm_mb().unwrap_or(0.0), "VmHWM".to_owned()),
                "select_p50_ms" => p(s, "select", 0.5),
                "cohort_stats_p50_ms" => p(s, PAPER_STATS, 0.5),
                "cohort_timeline_p50_ms" => p(s, PAPER_TIMELINE, 0.5),
                "cohort_svg_p50_ms" => p(s, PAPER_SVG, 0.5),
                "view_p50_ms" => p(s, "view", 0.5),
                "ingest_visible_p50_ms" => p(s, "ingest_visible", 0.5),
                gauge_name => gauge(gauge_name),
            };
            Metric {
                name: (*name).to_owned(),
                unit,
                value,
                note,
            }
        })
        .collect()
}

/// Where a per-layer value comes from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Median duration of the spans of this name, in µs over the divisor.
    Span(&'static str, f64),
    /// Median of the non-span samples of this name.
    Sample(&'static str),
    /// A single value, under the metric's own name.
    Gauge,
    /// The median (0.5) or a nearest-rank tail percentile of the untraced
    /// pass's socket samples.
    SocketTail(&'static str, f64),
    /// Geometric mean of the four per-shape medians of the untraced pass.
    TemporalGeomean,
    /// Sum of the warm clients' median block rates on the untraced pass.
    WarmRps,
    /// Socket median minus `route()` median, in µs.
    SocketOverhead(Op),
    /// Traced socket median over untraced socket median, minus 1.
    OverheadShare(Op),
    /// Median stage sum of `replay.<op>` over the `route.<op>` median.
    AttributedShare(Op),
}

/// One per-layer metric definition.
#[derive(Debug, Clone)]
pub struct LayerDef {
    /// Name, `layer.metric`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`; read only by the `BENCHMARK.json` test.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
    source: Source,
}

/// The per-layer metrics, in reporting order.
pub fn layer_defs() -> Vec<LayerDef> {
    const US: f64 = 1.0;
    const MS: f64 = 1e3;
    let mut defs: Vec<LayerDef> = Vec::with_capacity(106);
    let mut add = |name: &str, unit: &'static str, better: &'static str, source: Source| {
        defs.push(LayerDef {
            name: name.to_owned(),
            unit,
            better,
            source,
        });
    };
    add("failed_share", "share", "lower", Source::Gauge);
    add(
        "select_p95_ms",
        "ms",
        "lower",
        Source::SocketTail("select", 0.95),
    );
    add(
        "temporal_p90_ms",
        "ms",
        "lower",
        Source::SocketTail("temporal", 0.90),
    );
    add(
        "select_during_ingest_p95_ms",
        "ms",
        "lower",
        Source::SocketTail("select_during_ingest", 0.95),
    );
    add(
        "temporal_geomean_ms",
        "ms",
        "lower",
        Source::TemporalGeomean,
    );
    add("warm_rps", "1/s", "higher", Source::WarmRps);
    add(
        "select_during_ingest_p50_ms",
        "ms",
        "lower",
        Source::SocketTail("select_during_ingest", 0.5),
    );
    add(
        "serve.http_parse_us",
        "us",
        "lower",
        Source::Span("serve.http_parse", US),
    );
    add(
        "serve.cache_probe_us",
        "us",
        "lower",
        Source::Span("serve.cache_probe", US),
    );
    add(
        "serve.response_write_us",
        "us",
        "lower",
        Source::Span("serve.response_write", US),
    );
    add(
        "serve.cache_hit_rate.warm",
        "share",
        "higher",
        Source::Gauge,
    );
    add("serve.cache_hit_rate.cold", "share", "lower", Source::Gauge);
    for op in Op::ALL {
        add(
            &format!("serve.route_us.{}", op.name()),
            "us",
            "lower",
            Source::Span(op.route_span(), US),
        );
    }
    for op in Op::ALL {
        let name = format!("serve.socket_overhead_us.{}", op.name());
        add(&name, "us", "lower", Source::SocketOverhead(op));
    }
    add(
        "serve.snapshot_publish_ms",
        "ms",
        "lower",
        Source::Span("serve.snapshot_publish", MS),
    );
    add(
        "serve.ingest_push_us",
        "us",
        "lower",
        Source::Span("serve.ingest_push", US),
    );
    add(
        "serve.drain_apply_ms",
        "ms",
        "lower",
        Source::Span("serve.drain_apply", MS),
    );
    add("serve.shed_total", "count", "lower", Source::Gauge);
    add("serve.worker_panics", "count", "lower", Source::Gauge);
    add("serve.handler_panics", "count", "lower", Source::Gauge);
    add(
        "query.parse_us",
        "us",
        "lower",
        Source::Span("query.parse", US),
    );
    add(
        "query.plan_build_us",
        "us",
        "lower",
        Source::Span("query.plan_build", US),
    );
    add(
        "query.exec_ms",
        "ms",
        "lower",
        Source::Span("query.exec", MS),
    );
    for name in [
        "query.op.index_fetch_us",
        "query.op.intersect_us",
        "query.op.union_us",
        "query.op.complement_us",
        "query.op.filter_us",
        "query.op.pattern_scan_us",
        "query.op.full_scan_us",
        "query.op.side_pass_us",
    ] {
        add(name, "us", "lower", Source::Sample(name));
    }
    add("query.pattern_candidates", "count", "lower", Source::Gauge);
    add(
        "query.pattern_automaton_runs",
        "count",
        "lower",
        Source::Gauge,
    );
    add(
        "query.us_per_candidate",
        "us",
        "lower",
        Source::Sample("query.us_per_candidate"),
    );
    let name = "query.rows_examined_per_result";
    add(name, "ratio", "lower", Source::Sample(name));
    add("query.full_scan_share", "share", "lower", Source::Gauge);
    add(
        "query.selection_cache_hit_rate",
        "share",
        "higher",
        Source::Gauge,
    );
    add(
        "query.bitmap_decode_us",
        "us",
        "lower",
        Source::Span("query.bitmap_decode", US),
    );
    add(
        "query.index_delta_ms",
        "ms",
        "lower",
        Source::Span("query.index_delta", MS),
    );
    add(
        "query.index_compact_ms",
        "ms",
        "lower",
        Source::Span("query.index_compact", MS),
    );
    add("query.postings_bytes", "bytes", "lower", Source::Gauge);
    add("query.side_rows_peak", "count", "lower", Source::Gauge);
    add(
        "regex.compile_us",
        "us",
        "lower",
        Source::Span("regex.compile", US),
    );
    add(
        "regex.match_ns_per_code",
        "ns",
        "lower",
        Source::Sample("regex.match_ns_per_code"),
    );
    add(
        "analytics.profile_ms",
        "ms",
        "lower",
        Source::Span("analytics.profile", MS),
    );
    let name = "analytics.profile_ns_per_entry";
    add(name, "ns", "lower", Source::Sample(name));
    add(
        "analytics.monthly_ms",
        "ms",
        "lower",
        Source::Span("analytics.monthly", MS),
    );
    let name = "analytics.monthly_ns_per_entry";
    add(name, "ns", "lower", Source::Sample(name));
    add(
        "analytics.profile_json_us",
        "us",
        "lower",
        Source::Span("analytics.profile_json", US),
    );
    add("analytics.tables_build_ms", "ms", "lower", Source::Gauge);
    add(
        "core.select_positions_ms",
        "ms",
        "lower",
        Source::Span("core.select_positions", MS),
    );
    add(
        "core.snapshot_clone_ms",
        "ms",
        "lower",
        Source::Span("core.snapshot_clone", MS),
    );
    add(
        "core.apply_ingest_ms",
        "ms",
        "lower",
        Source::Span("core.apply_ingest", MS),
    );
    add(
        "core.compact_ms",
        "ms",
        "lower",
        Source::Span("core.compact", MS),
    );
    for (kind, span) in [
        ("sort", "core.apply_command.sort"),
        ("align", "core.apply_command.align"),
        ("filter", "core.apply_command.filter"),
    ] {
        add(
            &format!("core.apply_command_ms.{kind}"),
            "ms",
            "lower",
            Source::Span(span, MS),
        );
    }
    let span = "core.registry_materialize";
    add(
        "core.registry_materialize_us",
        "us",
        "lower",
        Source::Span(span, US),
    );
    add(
        "core.registry_lookup_us",
        "us",
        "lower",
        Source::Span("core.registry_lookup", US),
    );
    add("core.from_collection_ms", "ms", "lower", Source::Gauge);
    add(
        "viz.layout_ms",
        "ms",
        "lower",
        Source::Span("viz.layout", MS),
    );
    add(
        "viz.render_svg_ms",
        "ms",
        "lower",
        Source::Span("viz.render_svg", MS),
    );
    add(
        "viz.svg_bytes",
        "bytes",
        "lower",
        Source::Sample("viz.svg_bytes"),
    );
    add(
        "viz.panel_svg_us",
        "us",
        "lower",
        Source::Span("viz.panel_svg", US),
    );
    add(
        "viz.patient_timeline_us",
        "us",
        "lower",
        Source::Span("viz.patient_timeline", US),
    );
    add("model.bytes_per_entry", "bytes", "lower", Source::Gauge);
    add("model.entries_total", "count", "lower", Source::Gauge);
    let name = "ingest.parse_delta_us_per_row";
    add(name, "us", "lower", Source::Sample(name));
    add(
        "ingest.rows_rejected_share",
        "share",
        "lower",
        Source::Gauge,
    );
    add("par.threads", "count", "higher", Source::Gauge);
    add("par.profile_speedup", "ratio", "higher", Source::Gauge);
    add("synth.generate_s", "s", "lower", Source::Gauge);
    for op in Op::ALL {
        let name = format!("trace.overhead_share.{}", op.name());
        add(&name, "share", "lower", Source::OverheadShare(op));
    }
    for op in Op::ALL {
        let name = format!("trace.attributed_share.{}", op.name());
        add(&name, "share", "higher", Source::AttributedShare(op));
    }
    defs
}

/// Every per-layer metric of a finished traced run.
pub fn per_layer(run: &Run<'_>, tracer: &Tracer) -> Vec<Metric> {
    layer_defs()
        .into_iter()
        .map(|def| {
            let mut note = String::new();
            let value = match def.source {
                Source::Span(span, divisor) => {
                    let durations = tracer.durations_us(span);
                    note = format!("n={}", durations.len());
                    median(&durations) / divisor
                }
                Source::Sample(name) => {
                    note = format!("n={}", run.layers.get(name).len());
                    median(run.layers.get(name))
                }
                Source::Gauge => run.gauges.get(def.name.as_str()).copied().unwrap_or(0.0),
                Source::SocketTail(name, q) => {
                    let (value, remark) = p(&run.socket, name, q);
                    note = remark;
                    value
                }
                Source::TemporalGeomean => temporal_geomean(&run.socket),
                Source::WarmRps => warm_rps(&run.socket),
                Source::SocketOverhead(op) => {
                    let route = tracer.durations_us(op.route_span());
                    if route.is_empty() {
                        0.0
                    } else {
                        median(run.traced_socket.get(op.name())) * 1e3 - median(&route)
                    }
                }
                Source::OverheadShare(op) => {
                    let untraced = median(run.socket.get(op.name()));
                    if untraced > 0.0 {
                        median(run.traced_socket.get(op.name())) / untraced - 1.0
                    } else {
                        0.0
                    }
                }
                Source::AttributedShare(op) => ratio(
                    median(&tracer.children_us(op.replay_span())),
                    median(&tracer.durations_us(op.route_span())),
                ),
            };
            Metric {
                name: def.name,
                unit: def.unit,
                value,
                note,
            }
        })
        .collect()
}

/// The last line of standard output: one JSON object.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use pastas_ingest::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} in {entry:?}"))
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_harness_reports() {
        let doc = benchmark_json();
        let listed = doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .expect("end_to_end");
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, (name, unit, better, bound)) in listed.iter().zip(END_TO_END) {
            assert_eq!(field(entry, "name"), name);
            assert_eq!(field(entry, "unit"), unit, "{name}");
            assert_eq!(field(entry, "better"), better, "{name}");
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                Some(bound),
                "{name}"
            );
        }
        let listed = doc
            .get("per_layer")
            .and_then(Json::as_array)
            .expect("per_layer");
        let defs = layer_defs();
        assert_eq!(listed.len(), defs.len());
        assert!(defs.len() <= 128);
        for (entry, def) in listed.iter().zip(&defs) {
            assert_eq!(field(entry, "name"), def.name);
            assert_eq!(field(entry, "unit"), def.unit, "{}", def.name);
            assert_eq!(field(entry, "better"), def.better, "{}", def.name);
        }
        let listed = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads");
        let names: Vec<&str> = listed.iter().map(|w| field(w, "name")).collect();
        assert_eq!(names, WORKLOADS.map(|w| w.name));
    }

    #[test]
    fn per_layer_names_are_unique_and_cover_every_op() {
        let defs = layer_defs();
        let mut names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), defs.len());
        assert_eq!(defs.len(), 106);
        for op in Op::ALL {
            for family in [
                "serve.route_us",
                "serve.socket_overhead_us",
                "trace.overhead_share",
            ] {
                let name = format!("{family}.{}", op.name());
                assert!(names.contains(&name.as_str()), "{name}");
            }
        }
    }

    #[test]
    fn the_result_line_is_one_json_object_with_the_four_keys() {
        let metrics = vec![
            Metric {
                name: "setup_s".into(),
                unit: "s",
                value: 2.125,
                note: String::new(),
            },
            Metric {
                name: "ingest_entries_per_s".into(),
                unit: "1/s",
                value: f64::NAN,
                note: String::new(),
            },
        ];
        let line = result_json(10, 1, &metrics);
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(10.0));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(1.0));
        let setup = doc
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(2.125));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        let nan = doc
            .get("metrics")
            .and_then(|m| m.get("ingest_entries_per_s"))
            .expect("ingest_entries_per_s");
        assert_eq!(nan.get("value").and_then(Json::as_f64), Some(0.0));
    }
}
