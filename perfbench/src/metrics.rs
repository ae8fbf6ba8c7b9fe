//! The metric catalogue: every name the benchmark prints, with its unit, in
//! the order `BENCHMARK.json` lists them.

/// End-to-end metrics (`--trace 0`), the same on every workload.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("preds_per_s", "1/s"),
    ("cpu_us_per_pred", "us"),
    ("latency_p50_ms", "ms"),
    ("cpi_rel_err_p50", "ratio"),
    ("cpi_rel_err_p90", "ratio"),
    ("heap_peak_mb", "MB"),
    ("ok_rate", "ratio"),
];

/// Per-layer metrics (`--trace 1`), the same on every workload.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("trace.generate_region_ms", "ms"),
    ("analytic.analyze_static_ms", "ms"),
    ("analytic.analyze_data_ms", "ms"),
    ("analytic.analyze_inst_ms", "ms"),
    ("analytic.rob_model_ms", "ms"),
    ("analytic.rob_model_calls", "count"),
    ("analytic.other_models_ms", "ms"),
    ("core.precompute_ms", "ms"),
    ("core.precompute_coverage", "ratio"),
    ("core.store_kb", "KB"),
    ("serve.cache_bytes", "bytes"),
    ("serve.store_build_ms", "ms"),
    ("serve.miss_wait_ms", "ms"),
    ("core.assembly_us", "us"),
    ("core.normalize_us", "us"),
    ("ml.mlp_forward_us", "us"),
    ("core.predict_us", "us"),
    ("core.arch_dedup_ratio", "ratio"),
    ("serve.overhead_us", "us"),
    ("serve.avg_batch", "count"),
    ("serve.latency_p90_ms", "ms"),
    ("serve.decode_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.tcp_roundtrip_us", "us"),
    ("serve.line_roundtrip_us", "us"),
    ("serve.inproc_roundtrip_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("core.dataset_s", "s"),
    ("core.train_s", "s"),
    ("core.warm_s", "s"),
    ("cyclesim.simulate_warmed_ms", "ms"),
    ("tracing.overhead_pct", "%"),
];

/// One reported metric.
pub struct Metric {
    /// Name, as listed in the catalogue.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, from the catalogue.
    pub unit: &'static str,
}

/// The metrics of one run, filled by name from a catalogue table.
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    /// An empty set over `table`.
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            table,
            values: vec![None; table.len()],
        }
    }

    /// Records `name`.
    ///
    /// # Panics
    ///
    /// If `name` is not in the table: a metric the catalogue does not list
    /// is a bug in this program.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"));
        self.values[i] = Some(value);
    }

    /// Every metric in table order, or the names left unset.
    ///
    /// # Errors
    ///
    /// The names of the metrics that were never set.
    pub fn finish(self) -> Result<Vec<Metric>, Vec<&'static str>> {
        let missing: Vec<&'static str> = self
            .table
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| v.is_none())
            .map(|((n, _), _)| *n)
            .collect();
        if !missing.is_empty() {
            return Err(missing);
        }
        Ok(self
            .table
            .iter()
            .zip(self.values)
            .map(|(&(name, unit), v)| Metric {
                name,
                unit,
                value: v.expect("checked above"),
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed_name(s: &str) -> bool {
        let mut chars = s.chars();
        s.len() <= 64
            && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_metric_name_and_unit_is_well_formed_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (name, unit) in &all {
            assert!(well_formed_name(name), "bad metric name `{name}`");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit `{unit}` of `{name}`"
            );
        }
        let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names must be unique");
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc: serde_json::Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().expect("name").to_string(),
                        m["unit"].as_str().expect("unit").to_string(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn unset_metrics_are_reported() {
        let mut m = Metrics::new(&END_TO_END);
        m.set("setup_s", 1.0);
        let missing = m.finish().err().expect("most metrics unset");
        assert_eq!(missing.len(), END_TO_END.len() - 1);
        assert!(!missing.contains(&"setup_s"));
    }
}
