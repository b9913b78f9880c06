//! The metric catalogue — every number the benchmark prints, by name and
//! unit — and the result line built from it. `BENCHMARK.json` at the
//! repository root lists the same names; a unit test keeps the two equal.

/// A metric's name and unit.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// What a user of the emulated switch sees; printed with `--trace 0`.
pub const END_TO_END: &[Def] = &[
    def("pps", "packets/s"),
    def("tick_p99_us", "us"),
    def("tpr", "fraction"),
    def("fpr", "fraction"),
    def("ttm_p50_pkts", "packets"),
    def("ttm_p99_pkts", "packets"),
    def("mitigated_frac", "fraction"),
    def("setup_s", "s"),
    def("peak_rss_mb", "MiB"),
    def("compile_ms", "ms"),
    def("adapt_ms", "ms"),
];

/// What each layer costs and does; printed with `--trace 1`.
pub const PER_LAYER: &[Def] = &[
    def("synth.gen_ns_per_pkt", "ns"),
    def("dataplane.ns_per_pkt", "ns"),
    def("dataplane.share", "fraction"),
    def("flow.batch_fill_ns_per_pkt", "ns"),
    def("flow.observe_ns_per_pkt", "ns"),
    def("flow_table.collision_frac", "fraction"),
    def("flow_table.occupancy", "fraction"),
    def("sketch.ns_per_pkt", "ns"),
    def("sketch.promoted_per_kpkt", "1/kpkt"),
    def("sketch.evicted_per_kpkt", "1/kpkt"),
    def("sketch.absorbed_frac", "fraction"),
    def("sketch.resident_bytes", "bytes"),
    def("whitelist.classify_ns_per_row", "ns"),
    def("whitelist.lookups_per_pkt", "1/pkt"),
    def("whitelist.hit_frac", "fraction"),
    def("paths.blacklist_frac", "fraction"),
    def("paths.brown_frac", "fraction"),
    def("paths.blue_frac", "fraction"),
    def("paths.orange_frac", "fraction"),
    def("paths.purple_frac", "fraction"),
    def("paths.loopback_frac", "fraction"),
    def("digest.per_kpkt", "1/kpkt"),
    def("digest.drain_ns_per_digest", "ns"),
    def("channel.ns_per_digest", "ns"),
    def("controller.ns_per_digest", "ns"),
    def("controller.actions_per_digest", "ratio"),
    def("controller.dup_digests", "count"),
    def("controller.installed", "count"),
    def("action.ns_per_action", "ns"),
    def("ruleset.apply_us", "us"),
    def("ruleset.swaps", "count"),
    def("ruleset.entries_written", "count"),
    def("sharded.imbalance_ratio", "ratio"),
    def("sharded.shard_packets", "packets"),
    def("overload.degraded_batches", "count"),
    def("overload.shed_benign", "count"),
    def("overload.shed_malicious", "count"),
    def("overload.pressure_hwm_milli", "milli"),
    def("phase.early_frac", "fraction"),
    def("core.fit_ms", "ms"),
    def("core.distill_ms", "ms"),
    def("core.rulegen_fl_ms", "ms"),
    def("core.rulegen_pl_ms", "ms"),
    def("core.refit_warm_ms", "ms"),
    def("core.phase_train_ms", "ms"),
    def("switch.tcam_compile_ms", "ms"),
    def("rule_index.build_ms", "ms"),
    def("ruleset.diff_ms", "ms"),
    def("rules.fl", "count"),
    def("rules.pl", "count"),
    def("tcam.fl_entries", "count"),
    def("ruleset.diff_churn", "count"),
    def("replay.accounting_ns_per_pkt", "ns"),
    def("replay.allocs_per_tick", "1/tick"),
    def("layer_sum_ratio", "ratio"),
    def("trace_overhead", "ratio"),
];

/// Metric values collected by one run, checked against a catalogue.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(!self.values.iter().any(|(n, _)| *n == name), "metric {name} set twice");
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The `metrics` JSON object in catalogue order. Errors when a metric
    /// of the catalogue is missing or not a finite number, or when a value
    /// was set that the catalogue does not list.
    pub fn render(&self, catalogue: &[Def]) -> Result<String, String> {
        if let Some((extra, _)) =
            self.values.iter().find(|(n, _)| !catalogue.iter().any(|d| d.name == *n))
        {
            return Err(format!("metric {extra} is not in the catalogue"));
        }
        let mut parts = Vec::with_capacity(catalogue.len());
        for d in catalogue {
            let v =
                self.get(d.name).ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is {v}", d.name));
            }
            parts.push(format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", d.name, d.unit));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_requires_exactly_the_catalogue() {
        const CAT: &[Def] = &[def("a", "s"), def("b", "count")];
        let mut m = Metrics::default();
        m.set("a", 1.5);
        assert!(m.render(CAT).unwrap_err().contains("b was not measured"));
        m.set("b", 3.0);
        assert_eq!(
            m.render(CAT).unwrap(),
            r#"{"a": {"value": 1.5, "unit": "s"}, "b": {"value": 3.0, "unit": "count"}}"#
        );
        m.set("c", 0.0);
        assert!(m.render(CAT).is_err());
    }

    /// The subset of JSON `BENCHMARK.json` uses, parsed just far enough
    /// to compare it with the catalogue.
    #[derive(Debug)]
    enum Json {
        Str(String),
        Num,
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(kv) => {
                    &kv.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no {key}")).1
                }
                other => panic!("{other:?} is not an object"),
            }
        }

        fn items(&self) -> &[Json] {
            match self {
                Json::Arr(v) => v,
                other => panic!("{other:?} is not an array"),
            }
        }

        fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                other => panic!("{other:?} is not a string"),
            }
        }
    }

    fn parse(s: &mut std::iter::Peekable<std::str::Chars>) -> Json {
        let skip_ws = |s: &mut std::iter::Peekable<std::str::Chars>| {
            while s.next_if(|c| c.is_whitespace()).is_some() {}
        };
        skip_ws(s);
        let v = match s.next().expect("value") {
            '"' => Json::Str(s.by_ref().take_while(|&c| c != '"').collect()),
            '[' => {
                let mut items = Vec::new();
                loop {
                    skip_ws(s);
                    if s.next_if_eq(&']').is_some() {
                        break Json::Arr(items);
                    }
                    items.push(parse(s));
                    skip_ws(s);
                    s.next_if_eq(&',');
                }
            }
            '{' => {
                let mut kv = Vec::new();
                loop {
                    skip_ws(s);
                    if s.next_if_eq(&'}').is_some() {
                        break Json::Obj(kv);
                    }
                    let Json::Str(k) = parse(s) else { panic!("object key") };
                    skip_ws(s);
                    assert_eq!(s.next(), Some(':'));
                    kv.push((k, parse(s)));
                    skip_ws(s);
                    s.next_if_eq(&',');
                }
            }
            c if c == '-' || c.is_ascii_digit() => {
                while s.next_if(|c| c.is_ascii_digit() || ".eE+-".contains(*c)).is_some() {}
                Json::Num
            }
            c => panic!("unexpected {c:?}"),
        };
        skip_ws(s);
        v
    }

    #[test]
    fn benchmark_json_lists_what_the_binary_prints() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = parse(&mut text.chars().peekable());
        let names = |key: &str| -> Vec<String> {
            doc.get(key).items().iter().map(|m| m.get("name").str().to_string()).collect()
        };
        let workloads: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), workloads);
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            assert_eq!(names(key), catalogue.iter().map(|d| d.name).collect::<Vec<_>>(), "{key}");
            let units: Vec<String> =
                doc.get(key).items().iter().map(|m| m.get("unit").str().to_string()).collect();
            assert_eq!(units, catalogue.iter().map(|d| d.unit).collect::<Vec<_>>(), "{key} units");
        }
        assert!(matches!(doc.get("run_seconds"), Json::Num));
    }
}
