//! Observability and QoS: the Prometheus `/metrics` exposition (validated
//! by a strict parser), EDF miss scheduling, the one exact answer every
//! request gets whatever its deadline, the backlog/parked stats snapshot,
//! and the schema-version pin.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::time::Duration;

use concorde_suite::core::schema::SCHEMA_VERSION;
use concorde_suite::prelude::*;
use concorde_suite::serve::slots::SlotReceiver;
use concorde_suite::serve::MetricsSnapshot;

/// Small but real model + profile shared by the service tests.
fn tiny_service_parts() -> (ConcordePredictor, ReproProfile) {
    let mut profile = ReproProfile::quick();
    profile.region_len = 2_048;
    profile.warmup_len = 2_048;
    profile.epochs = 1;
    let data = generate_dataset(&DatasetConfig {
        profile: profile.clone(),
        n: 8,
        seed: 23,
        arch: ArchSampling::Random,
        workloads: Some(vec![15, 20]),
        threads: 0,
    });
    let model = train_model(&data, &profile, &TrainOptions::default());
    (model, profile)
}

/// A cold-region length big enough that its build outlasts everything the
/// test does while it runs.
fn long_len() -> u32 {
    if cfg!(debug_assertions) {
        16_384
    } else {
        131_072
    }
}

fn small_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        max_batch: 1,
        precompute_workers: 1,
        ..ServeConfig::default()
    }
}

/// Polls the metrics snapshot until `ready` holds (120 s cap).
fn wait_for(service: &PredictionService, what: &str, ready: impl Fn(&MetricsSnapshot) -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        if ready(&service.metrics()) {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "never reached: {what}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

// ---------------------------------------------------------------------------
// A strict exposition-format parser: the test-side re-implementation of the
// invariants `PromWriter` promises structurally.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// Parses `name{k="v",...} value` (labels optional), unescaping label
/// values; panics with the offending line on any malformation.
fn parse_sample(line: &str) -> Sample {
    let (name, rest) = match line.find('{') {
        Some(open) => {
            let close = line
                .rfind('}')
                .unwrap_or_else(|| panic!("unclosed labels: {line}"));
            assert!(open < close, "bad label braces: {line}");
            (&line[..open], {
                let labels = &line[open + 1..close];
                let value = line[close + 1..].trim();
                (labels, value)
            })
        }
        None => {
            let (name, value) = line
                .split_once(' ')
                .unwrap_or_else(|| panic!("sample without value: {line}"));
            (name, ("", value.trim()))
        }
    };
    let (label_text, value_text) = rest;
    assert!(
        name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') && !name.is_empty(),
        "bad metric name in: {line}"
    );
    let mut labels = Vec::new();
    let mut chars = label_text.chars().peekable();
    while chars.peek().is_some() {
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        assert!(!key.is_empty(), "empty label key in: {line}");
        assert_eq!(
            chars.next(),
            Some('"'),
            "label value must be quoted: {line}"
        );
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => panic!("bad escape {other:?} in: {line}"),
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => panic!("unterminated label value in: {line}"),
            }
        }
        labels.push((key, value));
        match chars.next() {
            Some(',') | None => {}
            other => panic!("expected `,` between labels, got {other:?} in: {line}"),
        }
    }
    let value = if value_text == "+Inf" {
        f64::INFINITY
    } else {
        value_text
            .parse()
            .unwrap_or_else(|_| panic!("unparseable sample value in: {line}"))
    };
    Sample {
        name: name.to_string(),
        labels,
        value,
    }
}

/// The base family a sample belongs to under `types`: the sample name
/// itself for counters/gauges, the `_bucket`/`_sum`/`_count`-stripped
/// prefix for histograms.
fn family_of<'a>(name: &'a str, types: &HashMap<String, String>) -> &'a str {
    if types.contains_key(name) {
        return name;
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(prefix) = name.strip_suffix(suffix) {
            if types.get(prefix).map(String::as_str) == Some("histogram") {
                return prefix;
            }
        }
    }
    panic!("sample `{name}` belongs to no `# TYPE`d family");
}

/// Validates one whole exposition document against the format invariants
/// and returns the family → type map. Panics (test failure) on:
/// - a family `# TYPE`d or `# HELP`ed more than once, or samples without one
/// - non-finite or negative counter/bucket/count values
/// - histogram buckets out of `le` order, non-cumulative, or missing `+Inf`
/// - `_count` disagreeing with the `+Inf` bucket, or `_sum`/`_count` missing
fn validate_exposition(text: &str) -> HashMap<String, String> {
    let mut types: HashMap<String, String> = HashMap::new();
    let mut helps: HashMap<String, ()> = HashMap::new();
    let mut samples: Vec<Sample> = Vec::new();
    for line in text.lines() {
        assert!(!line.trim().is_empty(), "exposition has a blank line");
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, _docs) = rest
                .split_once(' ')
                .unwrap_or_else(|| panic!("HELP without docs: {line}"));
            assert!(
                helps.insert(name.to_string(), ()).is_none(),
                "family `{name}` HELPed twice"
            );
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .unwrap_or_else(|| panic!("TYPE without a type: {line}"));
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "unknown type `{kind}` for `{name}`"
            );
            assert!(
                types.insert(name.to_string(), kind.to_string()).is_none(),
                "family `{name}` TYPEd twice"
            );
        } else if let Some(rest) = line.strip_prefix('#') {
            panic!("unknown comment line: #{rest}");
        } else {
            samples.push(parse_sample(line));
        }
    }
    assert!(!samples.is_empty(), "exposition carries no samples");

    // Histogram series accumulate per (family, labels-minus-le).
    #[derive(Default)]
    struct HistSeries {
        buckets: Vec<(f64, f64)>, // (le, cumulative count) in document order
        sum: Option<f64>,
        count: Option<f64>,
    }
    let mut hist: HashMap<String, HistSeries> = HashMap::new();
    for s in &samples {
        let family = family_of(&s.name, &types).to_string();
        let kind = types[&family].as_str();
        assert!(s.value.is_finite(), "non-finite sample value on {}", s.name);
        match kind {
            "counter" => assert!(s.value >= 0.0, "negative counter {}", s.name),
            "gauge" => {}
            "histogram" => {
                let mut key_labels: Vec<(String, String)> = s
                    .labels
                    .iter()
                    .filter(|(k, _)| k != "le")
                    .cloned()
                    .collect();
                key_labels.sort();
                let key = format!("{family}{key_labels:?}");
                let series = hist.entry(key).or_default();
                assert!(s.value >= 0.0, "negative histogram sample {}", s.name);
                if s.name.ends_with("_bucket") {
                    let le = s
                        .labels
                        .iter()
                        .find(|(k, _)| k == "le")
                        .map(|(_, v)| {
                            if v == "+Inf" {
                                f64::INFINITY
                            } else {
                                v.parse().unwrap_or_else(|_| panic!("bad le `{v}`"))
                            }
                        })
                        .unwrap_or_else(|| panic!("bucket without le: {}", s.name));
                    series.buckets.push((le, s.value));
                } else if s.name.ends_with("_sum") {
                    assert!(series.sum.replace(s.value).is_none(), "{} twice", s.name);
                } else {
                    assert!(series.count.replace(s.value).is_none(), "{} twice", s.name);
                }
            }
            other => unreachable!("{other}"),
        }
    }
    for (key, series) in &hist {
        assert!(
            !series.buckets.is_empty(),
            "{key}: histogram without buckets"
        );
        for w in series.buckets.windows(2) {
            assert!(w[0].0 < w[1].0, "{key}: le bounds not increasing");
            assert!(w[0].1 <= w[1].1, "{key}: buckets not cumulative");
        }
        let (last_le, inf_count) = *series.buckets.last().unwrap();
        assert!(last_le.is_infinite(), "{key}: no +Inf bucket");
        let count = series.count.unwrap_or_else(|| panic!("{key}: no _count"));
        let sum = series.sum.unwrap_or_else(|| panic!("{key}: no _sum"));
        assert_eq!(count, inf_count, "{key}: _count != +Inf bucket");
        assert!(sum >= 0.0, "{key}: negative _sum");
        if count == 0.0 {
            assert_eq!(sum, 0.0, "{key}: observations without a count");
        }
    }
    types
}

/// One raw HTTP/1.1 exchange against the metrics listener; returns
/// `(status_line, headers, body)`.
fn http_get(addr: std::net::SocketAddr, request: &str) -> (String, String, String) {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to metrics listener");
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read full response");
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    let (status, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    (status.to_string(), headers.to_string(), body.to_string())
}

#[test]
fn http_metrics_endpoint_serves_valid_exposition() {
    let (model, profile) = tiny_service_parts();
    let service = PredictionService::start(model, profile, small_config());
    let client = service.client();

    // Traffic in both classes, a repeat (cache hit), and one error, so the
    // scrape below exercises labelled series with real counts.
    let exact = client
        .predict(PredictRequest::new(1, "S5", ArchSpec::base("n1")))
        .unwrap();
    assert!(exact.cpi.unwrap() > 0.0);
    let hit = client
        .predict(PredictRequest::new(2, "S5", ArchSpec::base("n1")))
        .unwrap();
    assert!(hit.cached);
    let mut batch = PredictRequest::new(3, "O1", ArchSpec::base("big"));
    batch.class = RequestClass::Batch;
    client.predict(batch).unwrap();
    let failed = client
        .predict(PredictRequest::new(4, "NOPE", ArchSpec::base("n1")))
        .unwrap();
    assert!(failed.error.is_some());

    let metrics = service.serve_metrics("127.0.0.1:0").expect("bind /metrics");
    let addr = metrics.addr();
    let (status, headers, body) = http_get(addr, "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 200 OK", "{status}");
    assert!(
        headers.contains("text/plain; version=0.0.4"),
        "exposition content type missing: {headers}"
    );
    let content_length: usize = headers
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .trim()
        .parse()
        .unwrap();
    assert_eq!(content_length, body.len());

    // The document passes the strict format validator...
    let types = validate_exposition(&body);

    // ...and carries every family the engine promises, correctly typed.
    let required = [
        ("concorde_build_info", "gauge"),
        ("concorde_requests_submitted_total", "counter"),
        ("concorde_requests_rejected_total", "counter"),
        ("concorde_responses_total", "counter"),
        ("concorde_errors_total", "counter"),
        ("concorde_schema_mismatch_total", "counter"),
        ("concorde_coalesced_total", "counter"),
        ("concorde_precomputes_total", "counter"),
        ("concorde_batches_total", "counter"),
        ("concorde_busy_rejected_total", "counter"),
        ("concorde_cache_hits_total", "counter"),
        ("concorde_cache_misses_total", "counter"),
        ("concorde_cache_evictions_total", "counter"),
        ("concorde_cache_bytes", "gauge"),
        ("concorde_cache_stores", "gauge"),
        ("concorde_queue_depth", "gauge"),
        ("concorde_queue_depth_max", "gauge"),
        ("concorde_parked_requests", "gauge"),
        ("concorde_miss_backlog", "gauge"),
        ("concorde_inflight_builds", "gauge"),
        ("concorde_active_connections", "gauge"),
        ("concorde_build_ewma_seconds", "gauge"),
        ("concorde_request_latency_seconds", "histogram"),
        ("concorde_queue_wait_seconds", "histogram"),
        ("concorde_batch_size", "histogram"),
        ("concorde_store_build_seconds", "histogram"),
    ];
    for (family, kind) in required {
        assert_eq!(
            types.get(family).map(String::as_str),
            Some(kind),
            "family {family} missing or mistyped"
        );
    }
    // The removed load-shedding series stay gone.
    for family in [
        "concorde_shed_total",
        "concorde_upgrades_total",
        "concorde_shed_build_skips_total",
    ] {
        assert!(!types.contains_key(family), "{family} is back");
    }

    // Per-class labelling is live: both classes appear on the latency
    // histogram, and the interactive count covers the 3 interactive
    // requests above (2 predictions + 1 error), batch exactly 1.
    for (class, count) in [("interactive", 3), ("batch", 1)] {
        assert!(
            body.contains(&format!(
                "concorde_request_latency_seconds_count{{class=\"{class}\"}} {count}"
            )),
            "per-class latency count missing for {class}:\n{body}"
        );
    }
    assert!(body.contains(&format!("schema_version=\"{SCHEMA_VERSION}\"")));
    assert!(body.contains("\nconcorde_errors_total 1\n"));

    // The legacy wire stats no longer drift beside the histograms: avg/max
    // are derived from the same per-class histograms the scrape renders.
    let snap = service.metrics();
    assert!(snap.avg_latency_us > 0.0);
    assert!(snap.max_latency_us as f64 >= snap.avg_latency_us);

    // Routing: wrong path 404s, wrong method 405s, and the listener
    // survives both to serve the next scrape.
    let (status, _, _) = http_get(addr, "GET /nope HTTP/1.1\r\nHost: test\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    let (status, _, _) = http_get(addr, "POST /metrics HTTP/1.1\r\nHost: test\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 405 Method Not Allowed");
    let (status, _, body) = http_get(addr, "GET /metrics?x=1 HTTP/1.1\r\nHost: test\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 200 OK", "query params must be ignored");
    validate_exposition(&body);
}

/// Family → (type, label names without `le`) of an exposition document.
fn family_shapes(text: &str) -> HashMap<String, (String, Vec<String>)> {
    let types = validate_exposition(text);
    let mut shapes: HashMap<String, (String, Vec<String>)> = types
        .iter()
        .map(|(f, t)| (f.clone(), (t.clone(), Vec::new())))
        .collect();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let s = parse_sample(line);
        let labels = &mut shapes.get_mut(family_of(&s.name, &types)).unwrap().1;
        for (k, _) in s.labels {
            if k != "le" && !labels.contains(&k) {
                labels.push(k);
            }
        }
    }
    for (_, labels) in shapes.values_mut() {
        labels.sort();
    }
    shapes
}

/// Sum of every sample of `name` (across its label sets).
fn sample_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .map(parse_sample)
        .filter(|s| s.name == name)
        .map(|s| s.value)
        .sum()
}

/// Sorted key set of a JSON object.
fn key_set(v: &serde_json::Value) -> Vec<String> {
    let mut keys: Vec<String> = v
        .as_object()
        .unwrap_or_else(|| panic!("not an object: {v:?}"))
        .keys()
        .cloned()
        .collect();
    keys.sort();
    keys
}

fn sorted(keys: &[&str]) -> Vec<String> {
    let mut out: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
    out.sort();
    out
}

/// The wire contract of the three stats views, pinned exactly: the key set
/// of the `metrics` and `stats` replies and every Prometheus family with
/// its type and label names. At quiescence the views must also agree
/// wherever they report the same fact.
#[test]
fn stats_views_pin_their_wire_shape_and_agree_at_quiescence() {
    let (model, profile) = tiny_service_parts();
    let service: &'static PredictionService = Box::leak(Box::new(PredictionService::start(
        model,
        profile,
        small_config(),
    )));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || service.serve_tcp(listener));
    let scrape = service.serve_metrics("127.0.0.1:0").expect("bind /metrics");
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    let mut replies = BufReader::new(conn.try_clone().unwrap());
    let mut roundtrip = |line: &str| -> serde_json::Value {
        conn.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        replies.read_line(&mut reply).unwrap();
        serde_json::from_str(&reply).unwrap_or_else(|e| panic!("{e}: {reply}"))
    };
    let prometheus = |roundtrip: &mut dyn FnMut(&str) -> serde_json::Value| {
        roundtrip(r#"{"cmd":"metrics","format":"prometheus"}"#)
            .get("text")
            .and_then(serde_json::Value::as_str)
            .expect("prometheus reply carries text")
            .to_string()
    };

    // One cold request: the JSON counts batch groups (0 hits, 1 miss), the
    // per-shard Prometheus series count store lookups (the worker's probe
    // and `park_group`'s re-probe miss; the re-run after the build hits).
    let cold = roundtrip(r#"{"id":1,"workload":"S5","arch":{"base":"n1"}}"#);
    assert_eq!(cold.get("cached").and_then(|v| v.as_bool()), Some(false));
    let m = roundtrip(r#"{"cmd":"metrics"}"#);
    assert_eq!(m.get("cache_hits").and_then(|v| v.as_u64()), Some(0));
    assert_eq!(m.get("cache_misses").and_then(|v| v.as_u64()), Some(1));
    let text = prometheus(&mut roundtrip);
    assert_eq!(sample_sum(&text, "concorde_cache_hits_total"), 1.0);
    assert_eq!(sample_sum(&text, "concorde_cache_misses_total"), 2.0);

    // Then a hit, a batch-class miss and an error.
    let hit = roundtrip(r#"{"id":2,"workload":"S5","arch":{"base":"n1"}}"#);
    assert_eq!(hit.get("cached").and_then(|v| v.as_bool()), Some(true));
    let batch = roundtrip(r#"{"id":3,"workload":"O1","arch":{"base":"big"},"class":"batch"}"#);
    assert!(batch.get("cpi").is_some(), "{batch:?}");
    let failed = roundtrip(r#"{"id":4,"workload":"NOPE","arch":{"base":"n1"}}"#);
    assert!(failed.get("error").is_some(), "{failed:?}");

    wait_for(service, "quiescence", |m| {
        m.completed == 4 && m.parked == 0 && m.inflight_builds == 0 && m.queue_depth == 0
    });
    let metrics = roundtrip(r#"{"cmd":"metrics"}"#);
    let stats = roundtrip(r#"{"cmd":"stats"}"#);
    let wire_text = prometheus(&mut roundtrip);
    let (status, _, http_text) =
        http_get(scrape.addr(), "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 200 OK");

    let metric_keys = [
        "submitted",
        "completed",
        "errored",
        "rejected",
        "batches",
        "avg_batch",
        "cache_hits",
        "cache_misses",
        "cache_hit_rate",
        "coalesced",
        "precomputes",
        "schema_mismatches",
        "worker_panics",
        "worker_restarts",
        "parked",
        "miss_backlog",
        "build_ewma_us",
        "inflight_builds",
        "cache_evictions",
        "cache_bytes",
        "cache_stores",
        "busy_rejected",
        "active_connections",
        "queue_depth",
        "max_queue_depth",
        "avg_latency_us",
        "max_latency_us",
    ];
    assert_eq!(key_set(&metrics), sorted(&metric_keys));
    assert_eq!(
        key_set(&stats),
        sorted(&[
            "metrics",
            "cache",
            "workers",
            "precompute_workers",
            "max_connections",
            "kernel",
        ])
    );
    assert_eq!(key_set(&stats["metrics"]), sorted(&metric_keys));
    let cache = &stats["cache"];
    assert_eq!(
        key_set(cache),
        sorted(&["budget_bytes", "shard_count", "totals", "per_shard"])
    );
    let counter_keys = ["hits", "misses", "evictions", "stores", "bytes"];
    assert_eq!(key_set(&cache["totals"]), sorted(&counter_keys));
    let per_shard = cache["per_shard"].as_array().expect("per_shard array");
    assert_eq!(
        per_shard.len() as u64,
        cache["shard_count"].as_u64().unwrap()
    );
    let mut shard_keys = counter_keys.to_vec();
    shard_keys.push("shard");
    for shard in per_shard {
        assert_eq!(key_set(shard), sorted(&shard_keys));
    }

    let families: HashMap<String, (String, Vec<String>)> = [
        (
            "concorde_build_info",
            "gauge",
            &["kernel", "schema_version"][..],
        ),
        ("concorde_requests_submitted_total", "counter", &[]),
        ("concorde_requests_rejected_total", "counter", &[]),
        ("concorde_responses_total", "counter", &["class"]),
        ("concorde_errors_total", "counter", &[]),
        ("concorde_schema_mismatch_total", "counter", &[]),
        ("concorde_coalesced_total", "counter", &[]),
        ("concorde_precomputes_total", "counter", &[]),
        ("concorde_batches_total", "counter", &[]),
        ("concorde_busy_rejected_total", "counter", &[]),
        ("concorde_worker_panics_total", "counter", &[]),
        ("concorde_worker_restarts_total", "counter", &[]),
        ("concorde_draining", "gauge", &[]),
        ("concorde_cache_hits_total", "counter", &["shard"]),
        ("concorde_cache_misses_total", "counter", &["shard"]),
        ("concorde_cache_evictions_total", "counter", &["shard"]),
        ("concorde_cache_bytes", "gauge", &["shard"]),
        ("concorde_cache_stores", "gauge", &["shard"]),
        ("concorde_queue_depth", "gauge", &[]),
        ("concorde_queue_depth_max", "gauge", &[]),
        ("concorde_parked_requests", "gauge", &[]),
        ("concorde_miss_backlog", "gauge", &[]),
        ("concorde_inflight_builds", "gauge", &[]),
        ("concorde_active_connections", "gauge", &[]),
        ("concorde_build_ewma_seconds", "gauge", &[]),
        ("concorde_request_latency_seconds", "histogram", &["class"]),
        ("concorde_queue_wait_seconds", "histogram", &["class"]),
        ("concorde_batch_size", "histogram", &[]),
        ("concorde_store_build_seconds", "histogram", &[]),
    ]
    .into_iter()
    .map(|(f, t, labels)| (f.to_string(), (t.to_string(), sorted(labels))))
    .collect();
    assert_eq!(family_shapes(&http_text), families);
    assert_eq!(family_shapes(&wire_text), families);

    // The views agree wherever they report the same fact.
    let metric = |k: &str| metrics[k].as_f64().unwrap_or_else(|| panic!("{k}"));
    for text in [&http_text, &wire_text] {
        assert_eq!(
            metric("completed"),
            sample_sum(text, "concorde_responses_total")
        );
        assert_eq!(
            metric("batches"),
            sample_sum(text, "concorde_batch_size_count")
        );
        assert_eq!(
            metric("precomputes"),
            sample_sum(text, "concorde_store_build_seconds_count")
        );
        assert_eq!(
            metric("cache_bytes"),
            sample_sum(text, "concorde_cache_bytes")
        );
        assert_eq!(sample_sum(text, "concorde_queue_depth"), 0.0);
    }
    assert_eq!(metric("completed"), 4.0);
    assert_eq!(metric("queue_depth"), 0.0);
    assert_eq!(stats["metrics"]["queue_depth"].as_u64(), Some(0));
    for key in counter_keys {
        let total: u64 = per_shard.iter().map(|s| s[key].as_u64().unwrap()).sum();
        assert_eq!(
            cache["totals"][key].as_u64(),
            Some(total),
            "cache.totals.{key}"
        );
    }
    drop(scrape);
}

#[test]
fn stalled_scrape_client_honors_configured_read_timeout() {
    // A scraper that connects and never sends its request must be cut off
    // by `--read-timeout-ms`, not the built-in 2 s fallback: the metrics
    // accept loop is single-threaded, so the stall window is exactly how
    // long one bad client can starve liveness probes.
    let (model, profile) = tiny_service_parts();
    let cfg = ServeConfig {
        read_timeout: Some(Duration::from_millis(100)),
        ..small_config()
    };
    let service = PredictionService::start(model, profile, cfg);
    let metrics = service.serve_metrics("127.0.0.1:0").expect("bind /metrics");
    let addr = metrics.addr();

    // Open the stalled connection first so the accept loop picks it up and
    // blocks in its read. Keep the socket alive for the whole test.
    let stalled = std::net::TcpStream::connect(addr).expect("connect stalled client");
    let t0 = std::time::Instant::now();
    let (status, _, _) = http_get(addr, "GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n");
    let elapsed = t0.elapsed();
    assert_eq!(status, "HTTP/1.1 200 OK", "probe must still be answered");
    // The probe waited behind at most the stalled client's 100 ms timeout.
    // Far below the 2 s fallback ⇒ the configured value was honored (with
    // generous headroom for a slow CI machine).
    assert!(
        elapsed < Duration::from_millis(1500),
        "probe took {elapsed:?}; stalled client held the loop past the \
         configured 100 ms read timeout"
    );
    drop(stalled);

    // A dribbling scraper sends one byte every 50 ms — inside each 100 ms
    // read timeout — for ~3 s and never finishes its head. The head has one
    // total deadline, so the probe behind it still waits at most ~100 ms,
    // not the ~3 s the dribble lasts.
    let (connected_tx, connected_rx) = std::sync::mpsc::channel();
    let dribbler = std::thread::spawn(move || {
        let mut s = std::net::TcpStream::connect(addr).expect("connect dribbling client");
        connected_tx.send(()).unwrap();
        for _ in 0..60 {
            if s.write_all(b"a").is_err() {
                break; // the server cut the connection off
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    });
    connected_rx.recv().unwrap();
    let t0 = std::time::Instant::now();
    let (status, _, _) = http_get(addr, "GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n");
    let elapsed = t0.elapsed();
    assert_eq!(status, "HTTP/1.1 200 OK", "probe must still be answered");
    assert!(
        elapsed < Duration::from_millis(1500),
        "probe took {elapsed:?}; a dribbling client held the loop past the \
         configured 100 ms read timeout"
    );
    dribbler.join().unwrap();
}

#[test]
fn edf_builds_tight_deadline_key_before_earlier_parked_batch_key() {
    let (model, profile) = tiny_service_parts();
    let mut cfg = small_config();
    // The interactive SLO supplies the EDF deadline; it only orders the
    // builds, every answer is exact.
    cfg.class_slo
        .set(RequestClass::Interactive, Duration::from_millis(50));
    let service = PredictionService::start(model, profile, cfg);
    let client = service.client();

    // Pin the single pool worker, and wait until it has POPPED the pinning
    // build (backlog empty, one build in flight) so everything below queues
    // behind it deterministically.
    let mut pin = PredictRequest::new(0, "S5", ArchSpec::base("n1"));
    pin.len = long_len();
    pin.class = RequestClass::Batch; // no SLO: the pin itself has no deadline
    let pin_rx = client.submit(pin).unwrap();
    wait_for(&service, "pool picked up the pinning build", |m| {
        m.miss_backlog == 0 && m.inflight_builds == 1
    });

    // Batch key B parks FIRST, with TWO waiters and a long build: the old
    // most-parked-first policy (and plain FIFO) would both build it next.
    let mut b = PredictRequest::new(1, "O1", ArchSpec::base("n1"));
    b.start = 4_096;
    b.len = long_len();
    b.class = RequestClass::Batch;
    let b_rx = client.submit(b.clone()).unwrap();
    wait_for(&service, "batch key registered", |m| m.miss_backlog == 1);
    b.id = 2;
    let b_rx2 = client.submit(b).unwrap();
    wait_for(&service, "second batch waiter coalesced", |m| {
        m.coalesced == 1
    });

    // Interactive key I parks SECOND with one waiter and a short build; its
    // class SLO gives it the only effective deadline in the queue.
    let mut i = PredictRequest::new(3, "C1", ArchSpec::base("n1"));
    i.start = 8_192;
    i.len = 512;
    let i_rx = client.submit(i).unwrap();
    wait_for(&service, "interactive key registered", |m| {
        m.miss_backlog == 2
    });

    let _ = pin_rx.recv().unwrap();
    // EDF: the freed worker must pick I (has a deadline) over B (none),
    // despite B parking earlier with more waiters and a smaller seq.
    let i_resp = i_rx.recv().unwrap();
    assert!(!i_resp.approx && !i_resp.cached && i_resp.error.is_none());
    assert!(
        b_rx.try_recv().is_none(),
        "batch key was built before the deadline-carrying interactive key"
    );
    let b_resp = b_rx.recv().unwrap();
    assert!(!b_resp.approx, "every answer is exact");
    let _ = b_rx2.recv().unwrap();
}

/// Submits a long cold build and waits until the single pool worker has
/// popped it, so every later miss queues behind it.
fn pin_pool(service: &PredictionService) -> SlotReceiver {
    let mut long = PredictRequest::new(1, "O1", ArchSpec::base("n1"));
    long.start = 4_096;
    long.len = long_len();
    let rx = service.client().submit(long).unwrap();
    wait_for(service, "pool picked up the pinning build", |m| {
        m.miss_backlog == 0 && m.inflight_builds == 1
    });
    rx
}

#[test]
fn zero_deadline_cold_request_behind_a_pinned_pool_gets_one_exact_answer() {
    let (model, profile) = tiny_service_parts();
    let direct_model = model.clone();
    let service = PredictionService::start(model, profile.clone(), small_config());
    let client = service.client();

    // One finished build seeds the build-latency EWMA, then the pool is
    // pinned: the zero-deadline request below has a real backlog ahead.
    let mut seed = PredictRequest::new(0, "S5", ArchSpec::base("n1"));
    seed.deadline_ms = Some(0);
    assert!(!client.predict(seed).unwrap().approx);
    assert!(service.metrics().build_ewma_us > 0);
    let long_rx = pin_pool(&service);

    // A zero-deadline cold request waits for its store and is answered
    // once, exactly: bitwise the direct model prediction.
    let mut tight = PredictRequest::new(2, "C1", ArchSpec::base("big"));
    tight.start = 8_192;
    tight.deadline_ms = Some(0);
    let rx = client.submit(tight.clone()).unwrap();
    let resp = rx.recv().unwrap();
    assert_eq!(resp.id, 2);
    assert!(!resp.approx && !resp.cached && resp.error.is_none());
    assert!(resp.reason.is_none() && resp.kind.is_none());
    let arch = tight.arch.resolve().unwrap();
    let spec = by_id("C1").unwrap();
    let warm_start = tight.start - profile.warmup_len as u64;
    let full = generate_region(
        &spec,
        0,
        warm_start,
        profile.warmup_len + profile.region_len,
    );
    let (w, r) = full.instrs.split_at(profile.warmup_len);
    let store = FeatureStore::precompute(w, r, &SweepConfig::for_arch(&arch), &profile);
    assert_eq!(
        resp.cpi.unwrap().to_bits(),
        direct_model.predict(&store, &arch).to_bits(),
        "the answer must be the exact model prediction"
    );
    // The job is gone once answered: no second message ever follows.
    assert!(rx.recv().is_err(), "a request is answered exactly once");

    // The same zero-deadline query is now a cache hit with the same bits.
    let _ = long_rx.recv().unwrap();
    let hit = client.predict(tight).unwrap();
    assert!(hit.cached && !hit.approx);
    assert_eq!(hit.cpi.unwrap().to_bits(), resp.cpi.unwrap().to_bits());
    let m = service.metrics();
    assert_eq!(m.completed, 4);
    assert_eq!(m.errored, 0);
    assert_eq!(m.parked, 0);
}

#[test]
fn tcp_zero_deadline_request_gets_one_reply_in_request_order() {
    let (model, profile) = tiny_service_parts();
    let service = Box::leak(Box::new(PredictionService::start(
        model,
        profile,
        small_config(),
    )));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let service: &PredictionService = service;
    std::thread::spawn(move || {
        let _ = service.serve_tcp(listener);
    });
    let client = service.client();

    // Seed the EWMA and pin the pool from the in-process side; the wire
    // connection then only sees the round trips under test.
    let mut seed = PredictRequest::new(0, "S5", ArchSpec::base("n1"));
    seed.deadline_ms = Some(0);
    assert!(!client.predict(seed).unwrap().approx);
    let long_rx = pin_pool(service);

    // A raw wire line, carrying the retired `notify` key as well: it is
    // skipped, and the one reply is the exact answer.
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut roundtrip = |line: &str| {
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply
    };
    let reply = roundtrip(
        r#"{"id":7,"workload":"C1","start":8192,"arch":{"base":"n1"},"deadline_ms":0,"notify":true}"#,
    );
    let first: PredictResponse = serde_json::from_str(&reply).unwrap();
    assert_eq!(first.id, 7);
    assert!(!first.approx && !first.cached && first.error.is_none());
    assert!(first.cpi.unwrap() > 0.0);

    // The very next line on the connection answers the next request: the
    // TCP metrics command, serving the same strict exposition the HTTP
    // endpoint does.
    let reply = roundtrip(r#"{"cmd":"metrics","format":"prometheus"}"#);
    let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
    let text = v
        .get("text")
        .and_then(serde_json::Value::as_str)
        .unwrap_or_else(|| panic!("expected the metrics reply, got {reply}"));
    let types = validate_exposition(text);
    assert_eq!(
        types.get("concorde_responses_total").map(String::as_str),
        Some("counter")
    );

    let _ = long_rx.recv().unwrap();
}

#[test]
fn stats_report_backlog_and_parked_as_a_consistent_snapshot() {
    let (model, profile) = tiny_service_parts();
    let service = PredictionService::start(
        model,
        profile,
        ServeConfig {
            workers: 2,
            max_batch: 1,
            precompute_workers: 1,
            ..ServeConfig::default()
        },
    );
    let client = service.client();

    // Pin the single pool worker on A, then queue B (1 waiter) and C
    // (3 coalesced waiters on one key) behind it.
    let mut a = PredictRequest::new(0, "S5", ArchSpec::base("n1"));
    a.len = long_len();
    let a_rx = client.submit(a).unwrap();
    // Wait until the pool has *popped* A (queue empty, one build in
    // flight): B and C below then deterministically queue behind it —
    // otherwise the pool could pick hot C first and finish it immediately.
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        let m = service.metrics();
        if m.miss_backlog == 0 && m.inflight_builds == 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "pool never picked up the pinning build"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut b = PredictRequest::new(1, "O1", ArchSpec::base("n1"));
    b.start = 65_536;
    b.len = 512;
    let b_rx = client.submit(b).unwrap();
    let c_rxs: Vec<_> = (0..3u64)
        .map(|i| {
            let mut c = PredictRequest::new(10 + i, "C1", ArchSpec::base("n1"));
            c.start = 65_536;
            c.len = 512;
            client.submit(c).unwrap()
        })
        .collect();

    // While A builds: 5 parked jobs (A's own + B + C×3) and 2 queued
    // builds (B, C) — and the two gauges must come from ONE lock-consistent
    // snapshot, so we must observe exactly this pair, never (5, 0) or
    // (0, 2) shear. Poll for the steady state, then re-assert the pair
    // within single snapshots.
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    let steady = loop {
        let m = service.metrics();
        if m.parked == 5 && m.miss_backlog == 2 {
            break m;
        }
        // If A already finished the test lost its window; only possible on
        // a wildly slow submit path.
        assert!(
            std::time::Instant::now() < deadline,
            "never observed the pinned steady state (last: parked {} backlog {})",
            m.parked,
            m.miss_backlog
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(steady.inflight_builds, 3, "A running + B + C registered");
    for _ in 0..10 {
        let stats = service.stats();
        let (p, q) = (stats.metrics.parked, stats.metrics.miss_backlog);
        // Every snapshot while A builds shows a consistent pair: all
        // parked jobs' builds are accounted either queued or running.
        assert!(
            (p, q) == (5, 2),
            "inconsistent snapshot: parked {p}, backlog {q}"
        );
    }

    // Drain completely: afterwards every gauge in one snapshot is zero.
    let _ = a_rx.recv().unwrap();
    let _ = b_rx.recv().unwrap();
    for rx in c_rxs {
        let _ = rx.recv().unwrap();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        let m = service.metrics();
        if m.parked == 0 && m.miss_backlog == 0 && m.inflight_builds == 0 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "drain never settled");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn schema_version_pin_mismatch_is_a_typed_error() {
    let (model, profile) = tiny_service_parts();
    let service = PredictionService::start(model, profile, small_config());
    let client = service.client();

    // A wrong pin gets the typed error — no prediction, no store build.
    let mut pinned = PredictRequest::new(1, "S5", ArchSpec::base("n1"));
    pinned.schema_version = Some(SCHEMA_VERSION + 1);
    let resp = client.predict(pinned).unwrap();
    assert_eq!(resp.kind.as_deref(), Some("error"));
    assert_eq!(resp.reason.as_deref(), Some("schema_mismatch"));
    assert!(resp.cpi.is_none());
    let msg = resp.error.expect("mismatch carries a message");
    assert!(
        msg.contains(&format!("v{SCHEMA_VERSION}")),
        "message must name the served version: {msg}"
    );
    let m = service.metrics();
    assert_eq!(m.schema_mismatches, 1);
    assert_eq!(m.cache_misses, 0, "a rejected pin must not build anything");

    // The matching pin is answered normally.
    let mut ok = PredictRequest::new(2, "S5", ArchSpec::base("n1"));
    ok.schema_version = Some(SCHEMA_VERSION);
    let resp = client.predict(ok).unwrap();
    assert!(resp.kind.is_none() && resp.error.is_none());
    assert!(resp.cpi.unwrap() > 0.0);
    assert_eq!(service.metrics().schema_mismatches, 1);
}
