//! Property tests pinning the wire fast path to the slow path it replaces.
//!
//! 1. **Decoder equivalence** — for any line, if the single-pass borrowed
//!    decoder ([`decode_request_line`]) accepts it, the legacy
//!    `serde_json::Value` route must parse it to field-identical requests;
//!    a [`FastMiss::Cmd`] must only ever fire on a top-level object that
//!    really carries a `"cmd"` key; and on canonical request lines (what
//!    [`TcpClient`](concorde_suite::serve::TcpClient) itself emits) the
//!    fast path must actually engage — the property is not vacuous.
//! 2. **Encoder equivalence** — [`PredictResponse::encode_json_into`] must
//!    be byte-identical to `serde_json::to_string` across the response
//!    space (float shapes, escapes, every optional-field combination).

use concorde_suite::serve::protocol::{decode_request_line, DecodedShape, FastMiss};
use concorde_suite::serve::{PredictRequest, PredictResponse};
use proptest::prelude::*;

/// SplitMix64 — the same deterministic generator the proptest shim uses,
/// re-instantiated per case from the drawn seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

/// A workload value exercising inline and heap `KeyStr`s, escapes, unknown
/// ids, and non-ASCII.
fn workload(rng: &mut Rng) -> &'static str {
    const CHOICES: &[&str] = &[
        "S5",
        "P1",
        "ZZZ-unknown",
        "a-workload-id-well-beyond-the-inline-cap-of-keystr",
        "quote\\\"inside",
        "esc\\n\\t\\\\done",
        "uni\\u00e9\\u0041",
        "astral\\ud83d\\ude00",
        "",
    ];
    CHOICES[rng.below(CHOICES.len() as u64) as usize]
}

/// Emits one request object. `canonical` restricts to the clean shapes the
/// fast decoder must accept; otherwise the emitter may add unknown keys,
/// duplicate keys, float-typed ints, and whitespace.
fn emit_request(rng: &mut Rng, canonical: bool, out: &mut String) {
    let ws: &[&str] = if canonical {
        &[""]
    } else {
        &["", " ", "\t", "  "]
    };
    let mut fields: Vec<String> = Vec::new();
    fields.push(format!("\"id\":{}", rng.below(1 << 40)));
    let w = workload(rng);
    fields.push(format!("\"workload\":\"{w}\""));
    if rng.chance(40) {
        fields.push(format!("\"trace\":{}", rng.below(8)));
    }
    if rng.chance(40) {
        fields.push(format!("\"start\":{}", rng.below(1 << 20)));
    }
    if rng.chance(30) {
        fields.push(format!("\"len\":{}", rng.below(1 << 14)));
    }
    if rng.chance(60) {
        let mut parts: Vec<String> = Vec::new();
        if rng.chance(50) {
            let base = ["n1", "big", "nope"][rng.below(3) as usize];
            parts.push(format!("\"base\":\"{base}\""));
        }
        for key in ["rob", "lq", "sq", "alu", "fp", "ls", "fetch", "l1d", "l2"] {
            if rng.chance(25) {
                parts.push(format!("\"{key}\":{}", 1 + rng.below(512)));
            }
        }
        fields.push(format!("\"arch\":{{{}}}", parts.join(",")));
    }
    if rng.chance(25) {
        fields.push(format!("\"deadline_ms\":{}", rng.below(1000)));
    }
    if rng.chance(25) {
        let class = ["interactive", "batch"][rng.below(2) as usize];
        fields.push(format!("\"class\":\"{class}\""));
    }
    if rng.chance(25) {
        // The retired `notify` key: canonical lines that still carry it must
        // decode on the fast path, skipped like any other unknown key.
        let b = if rng.chance(50) { "true" } else { "false" };
        fields.push(format!("\"notify\":{b}"));
    }
    if rng.chance(20) {
        fields.push(format!("\"schema_version\":{}", rng.below(5)));
    }
    if !canonical {
        if rng.chance(25) {
            fields.push("\"unknown_key\":[1,{\"x\":null}]".to_string());
        }
        if rng.chance(20) {
            // Duplicate key: last-wins in both decoders.
            fields.push(format!("\"id\":{}", rng.below(100)));
        }
        if rng.chance(15) {
            fields.push(format!("\"id\":{}.0", rng.below(100)));
        }
        if rng.chance(10) {
            fields.push("\"deadline_ms\":null".to_string());
        }
    }
    out.push('{');
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(ws[rng.below(ws.len() as u64) as usize]);
        out.push_str(f);
        out.push_str(ws[rng.below(ws.len() as u64) as usize]);
    }
    out.push('}');
}

/// Emits one full line plus whether it is a canonical request line (on
/// which the fast path must engage).
fn emit_line(rng: &mut Rng) -> (String, bool) {
    let mut line = String::new();
    match rng.below(10) {
        // Canonical single / batch: the fast path must take these.
        0..=2 => {
            emit_request(rng, true, &mut line);
            (line, true)
        }
        3 | 4 => {
            line.push('[');
            for i in 0..rng.below(5) {
                if i > 0 {
                    line.push(',');
                }
                emit_request(rng, true, &mut line);
            }
            line.push(']');
            (line, true)
        }
        // Messy but valid-ish single / batch.
        5 | 6 => {
            emit_request(rng, false, &mut line);
            (line, false)
        }
        7 => {
            line.push('[');
            for i in 0..rng.below(4) {
                if i > 0 {
                    line.push(',');
                }
                emit_request(rng, false, &mut line);
            }
            line.push(']');
            (line, false)
        }
        // Control objects, including cmd alongside request fields.
        8 => {
            let cmd = match rng.below(4) {
                0 => r#"{"cmd":"ping"}"#.to_string(),
                1 => r#"{"cmd":"metrics","format":"prometheus"}"#.to_string(),
                2 => r#"{"workload":"S5","cmd":"stats","id":4}"#.to_string(),
                _ => r#"{"cmd":17}"#.to_string(),
            };
            (cmd, false)
        }
        // Malformed: truncations, garbage, non-container lines.
        _ => {
            match rng.below(3) {
                0 => {
                    emit_request(rng, true, &mut line);
                    let cut = 1 + rng.below(line.len().max(2) as u64 - 1) as usize;
                    line.truncate(cut);
                }
                1 => line.push_str(["42", "\"str\"", "true", "null", "]"][rng.below(5) as usize]),
                _ => {
                    emit_request(rng, true, &mut line);
                    line.push_str("trailing");
                }
            }
            (line, false)
        }
    }
}

/// The slow path exactly as `server.rs::handle_line` routes it: `Value`
/// parse, cmd check on top-level objects, then typed conversion.
enum Slow {
    Single(PredictRequest),
    Batch(Vec<PredictRequest>),
    Cmd,
    Reject,
}

fn slow_path(line: &str) -> Slow {
    let parsed: serde_json::Value = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(_) => return Slow::Reject,
    };
    match parsed {
        serde_json::Value::Array(_) => match serde_json::from_value(parsed) {
            Ok(reqs) => Slow::Batch(reqs),
            Err(_) => Slow::Reject,
        },
        serde_json::Value::Object(ref obj) if obj.contains_key("cmd") => Slow::Cmd,
        obj @ serde_json::Value::Object(_) => match serde_json::from_value(obj) {
            Ok(req) => Slow::Single(req),
            Err(_) => Slow::Reject,
        },
        _ => Slow::Reject,
    }
}

fn req_value(r: &PredictRequest) -> serde_json::Value {
    serde_json::to_value(r).expect("serialize request")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 400, ..ProptestConfig::default() })]

    #[test]
    fn fast_decoder_matches_value_path(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (line, canonical) = emit_line(&mut rng);
        let mut fast_reqs: Vec<PredictRequest> = Vec::new();
        let fast = decode_request_line(&line, &mut fast_reqs);
        let slow = slow_path(&line);
        match fast {
            Ok(DecodedShape::Single) => {
                prop_assert_eq!(fast_reqs.len(), 1);
                match slow {
                    Slow::Single(slow_req) => {
                        prop_assert_eq!(req_value(&fast_reqs[0]), req_value(&slow_req), "line: {}", line);
                    }
                    _ => prop_assert!(false, "fast accepted single the slow path rejects: {}", line),
                }
            }
            Ok(DecodedShape::Batch) => {
                match slow {
                    Slow::Batch(slow_reqs) => {
                        prop_assert_eq!(fast_reqs.len(), slow_reqs.len(), "line: {}", line);
                        for (f, s) in fast_reqs.iter().zip(&slow_reqs) {
                            prop_assert_eq!(req_value(f), req_value(s), "line: {}", line);
                        }
                    }
                    _ => prop_assert!(false, "fast accepted batch the slow path rejects: {}", line),
                }
            }
            Err(FastMiss::Cmd) => {
                prop_assert!(matches!(slow, Slow::Cmd), "Cmd miss on a non-cmd line: {}", line);
                prop_assert!(fast_reqs.is_empty());
            }
            Err(FastMiss::Fallback) => {
                // Conservative decline is always allowed — but never on the
                // canonical lines the protocol itself emits.
                prop_assert!(!canonical, "fast path declined a canonical line: {}", line);
                prop_assert!(fast_reqs.is_empty());
            }
        }
    }

    #[test]
    fn encoder_matches_serde_to_string(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let cpi = match rng.below(5) {
            0 => None,
            1 => Some(rng.below(100) as f64), // integral → ".0" suffix path
            2 => Some(f64::from_bits(rng.next() >> 2)), // small exponent soup
            3 => Some((rng.below(1 << 30) as f64) / 997.0),
            _ => Some(-((rng.below(1000) as f64) / 7.0)),
        }
        .filter(|v| v.is_finite());
        let strings: &[Option<&str>] = &[
            None,
            Some("internal"),
            Some("schema_mismatch"),
            Some("unknown workload `Z\u{1F600}`"),
            Some("quote\" backslash\\ newline\n tab\t ctrl\u{0001} done"),
        ];
        let pick = |rng: &mut Rng| strings[rng.below(strings.len() as u64) as usize]
            .map(str::to_string);
        let resp = PredictResponse {
            id: rng.next(),
            cpi,
            error: pick(&mut rng),
            cached: rng.chance(50),
            approx: rng.chance(50),
            reason: pick(&mut rng),
            kind: [None, Some("busy".to_string()), Some("error".to_string())]
                [rng.below(3) as usize]
                .clone(),
            micros: rng.below(1 << 40),
        };
        let mut fast = String::new();
        resp.encode_json_into(&mut fast);
        let slow = serde_json::to_string(&resp).expect("serialize response");
        prop_assert_eq!(fast, slow);
    }
}

#[test]
fn notify_key_changes_nothing_on_either_decoder() {
    // Clients written against the retired notify/upgrade push may still
    // send `"notify": true`; the line must decode exactly as without it, on
    // both the fast decoder and the `Value` path — one request, one reply.
    let lines = [
        r#"{"id":3,"workload":"S5","arch":{"base":"n1"}}"#,
        r#"{"id":4,"workload":"C1","start":8192,"deadline_ms":0,"class":"batch"}"#,
    ];
    for plain in lines {
        let body = plain.strip_suffix('}').unwrap();
        for notified in [
            format!(r#"{body},"notify":true}}"#),
            format!(r#"{{"notify":true,{}"#, &plain[1..]),
            format!("[{body},\"notify\":true}},{plain}]"),
        ] {
            let batch = notified.starts_with('[');
            let expected: Vec<serde_json::Value> = if batch {
                vec![req_value(&serde_json::from_str(plain).unwrap()); 2]
            } else {
                vec![req_value(&serde_json::from_str(plain).unwrap())]
            };
            let mut fast = Vec::new();
            let shape = decode_request_line(&notified, &mut fast);
            let want_shape = if batch {
                DecodedShape::Batch
            } else {
                DecodedShape::Single
            };
            assert_eq!(shape, Ok(want_shape), "fast path declined: {notified}");
            let fast: Vec<_> = fast.iter().map(req_value).collect();
            assert_eq!(fast, expected, "fast decoder: {notified}");
            let slow: Vec<_> = match slow_path(&notified) {
                Slow::Single(r) => vec![req_value(&r)],
                Slow::Batch(rs) => rs.iter().map(req_value).collect(),
                Slow::Cmd | Slow::Reject => panic!("value path refused: {notified}"),
            };
            assert_eq!(slow, expected, "value path: {notified}");
        }
    }
}
