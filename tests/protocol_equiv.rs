//! Property tests pinning the wire decoder and encoder to the
//! `serde_json` routes they replace.
//!
//! 1. **Decoder equivalence** — for any line, the single-pass decoder
//!    ([`decode_request_line`]) must reach the verdict of the `Value`
//!    route the server used before it (accept, control command, or
//!    reject), decode field-identical requests when it accepts, and answer
//!    a byte-identical `{"error": ...}` reply line when it rejects. On
//!    canonical request lines (what
//!    [`TcpClient`](concorde_suite::serve::TcpClient) itself emits) it must
//!    accept, so the property is not vacuous.
//! 2. **Hostile input** — arbitrary strings, byte-level mutations of
//!    canonical lines and deep nesting never panic the decoder, and every
//!    rejection carries one of the four wire error prefixes.
//! 3. **Encoder equivalence** — [`PredictResponse::encode_json_into`] must
//!    be byte-identical to `serde_json::to_string` across the response
//!    space (float shapes, escapes, every optional-field combination).

use concorde_suite::serve::protocol::{decode_request_line, DecodedShape, Rejection};
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

/// A workload value exercising inline and heap `KeyStr`s, ids longer than
/// 64 bytes, escapes, unknown ids, and non-ASCII.
fn workload(rng: &mut Rng) -> &'static str {
    const CHOICES: &[&str] = &[
        "S5",
        "P1",
        "ZZZ-unknown",
        "a-workload-id-well-beyond-the-inline-cap-of-keystr",
        "riscv:riscv-testdata/a/path/long/enough/to/pass/sixty-four/bytes/prog.elf@400000",
        "quote\\\"inside",
        "esc\\n\\t\\\\done",
        "uni\\u00e9\\u0041",
        "astral\\ud83d\\ude00",
        "",
    ];
    CHOICES[rng.below(CHOICES.len() as u64) as usize]
}

/// A nested unknown-field value up to `depth` containers deep (well
/// inside the decoder's nesting cap).
fn nested_value(rng: &mut Rng, depth: u64) -> String {
    if depth == 0 || rng.chance(20) {
        return ["1", "null", "\"s\"", "[]", "{}", "-2.5e3"][rng.below(6) as usize].to_string();
    }
    let inner = nested_value(rng, depth - 1);
    match rng.below(3) {
        0 => format!("[{inner}]"),
        1 => format!("[0,{inner},true]"),
        _ => format!("{{\"k\":{inner}}}"),
    }
}

/// A value of the wrong type, or out of range, for one request field.
fn bad_field(rng: &mut Rng) -> &'static str {
    const CHOICES: &[&str] = &[
        "\"id\":\"seven\"",
        "\"id\":-3",
        "\"id\":null",
        "\"workload\":7",
        "\"workload\":null",
        "\"trace\":\"x\"",
        "\"trace\":1.5",
        "\"len\":5000000000",
        "\"start\":[1]",
        "\"arch\":null",
        "\"arch\":7",
        "\"arch\":{\"rob\":\"big\"}",
        "\"arch\":{\"base\":5,\"l2\":-1}",
        "\"arch\":{\"prefetch\":99999999999}",
        "\"deadline_ms\":true",
        "\"class\":\"vip\"",
        "\"class\":\"v\\u00efp\"",
        "\"class\":3",
        "\"class\":null",
        "\"schema_version\":{}",
    ];
    CHOICES[rng.below(CHOICES.len() as u64) as usize]
}

/// Emits one request object. `canonical` restricts to the clean shapes the
/// decoder must accept; otherwise the emitter may add unknown and nested
/// keys, duplicate keys (a bad value overwritten by a good one, or the
/// reverse), wrongly typed fields, a missing `workload`, float-typed ints,
/// and whitespace.
fn emit_request(rng: &mut Rng, canonical: bool, out: &mut String) {
    let ws: &[&str] = if canonical {
        &[""]
    } else {
        &["", " ", "\t", "  "]
    };
    let mut fields: Vec<String> = Vec::new();
    if !canonical && rng.chance(20) {
        // Overwritten below by the field's good value: last one wins.
        fields.push(bad_field(rng).to_string());
    }
    fields.push(format!("\"id\":{}", rng.below(1 << 40)));
    let w = workload(rng);
    if canonical || !rng.chance(5) {
        fields.push(format!("\"workload\":\"{w}\""));
    }
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
        // decode, the key skipped like any other unknown key.
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
        if rng.chance(15) {
            let depth = rng.below(40);
            fields.push(format!("\"nested\":{}", nested_value(rng, depth)));
        }
        // Up to two bad fields: the first in declaration order names the
        // error, whatever their order on the line.
        for _ in 0..2 {
            if rng.chance(15) {
                fields.push(bad_field(rng).to_string());
            }
        }
        if rng.chance(10) {
            // A bad value, then the same key's good value.
            fields.push("\"trace\":\"bad\"".to_string());
            fields.push(format!("\"trace\":{}", rng.below(8)));
        }
        if rng.chance(8) {
            fields.push("\"arch\":\"big\"".to_string());
            fields.push("\"arch\":{\"rob\":\"x\",\"rob\":64}".to_string());
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

/// Emits one full line plus whether it is a canonical request line (which
/// the decoder must accept).
fn emit_line(rng: &mut Rng) -> (String, bool) {
    let mut line = String::new();
    match rng.below(10) {
        // Canonical single / batch: the decoder must accept these.
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
        // Control objects, including cmd alongside request fields (bad
        // ones too), and a cmd key inside a batch element (a request).
        8 => {
            let cmd = match rng.below(7) {
                0 => r#"{"cmd":"ping"}"#.to_string(),
                1 => r#"{"cmd":"metrics","format":"prometheus"}"#.to_string(),
                2 => r#"{"workload":"S5","cmd":"stats","id":4}"#.to_string(),
                3 => r#"{"id":"x","cmd":"ping","class":"vip"}"#.to_string(),
                4 => format!(r#"{{"cmd":"ping","x":{}}}"#, nested_value(rng, 30)),
                5 => r#"[{"cmd":"ping","workload":"S5"},1]"#.to_string(),
                _ => r#"{"cmd":17}"#.to_string(),
            };
            (cmd, false)
        }
        // Malformed: truncations, byte mutations, garbage, non-container
        // lines, non-object batch elements.
        _ => {
            match rng.below(5) {
                0 => {
                    emit_request(rng, true, &mut line);
                    let cut = 1 + rng.below(line.len().max(2) as u64 - 1) as usize;
                    line.truncate(cut);
                }
                1 => line.push_str(
                    [
                        "42", "\"str\"", "true", "null", "]", "", "  ", "[1,{}]", "[null]",
                    ][rng.below(9) as usize],
                ),
                2 => {
                    emit_request(rng, true, &mut line);
                    line = mutate(rng, &line);
                }
                3 => {
                    emit_request(rng, false, &mut line);
                    line = mutate(rng, &line);
                }
                _ => {
                    emit_request(rng, true, &mut line);
                    line.push_str("trailing");
                }
            }
            (line, false)
        }
    }
}

/// One byte-level mutation of an ASCII line: truncate, flip a bit (the
/// result stays ASCII), or insert `[`, `{`, `"` or `\`.
fn mutate(rng: &mut Rng, line: &str) -> String {
    let mut b = line.as_bytes().to_vec();
    let at = rng.below(b.len() as u64 + 1) as usize;
    match rng.below(3) {
        0 => b.truncate(at),
        1 if at < b.len() => b[at] ^= 1 << rng.below(7),
        _ => b.insert(at, b"[{\"\\"[rng.below(4) as usize]),
    }
    String::from_utf8(b).expect("mutations of an ASCII line stay ASCII")
}

/// The reference: the request routing the server used before the decoder
/// answered every line — `Value` parse, cmd check on top-level objects,
/// typed conversion — with the exact reply line of each rejection.
#[derive(Debug)]
enum Slow {
    Single(PredictRequest),
    Batch(Vec<PredictRequest>),
    Cmd,
    Reject(String),
}

fn slow_path(line: &str) -> Slow {
    let reject = |msg: String| Slow::Reject(serde_json::json!({ "error": msg }).to_string());
    let parsed: serde_json::Value = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => return reject(format!("malformed JSON: {e}")),
    };
    match parsed {
        serde_json::Value::Array(_) => match serde_json::from_value(parsed) {
            Ok(reqs) => Slow::Batch(reqs),
            Err(e) => reject(format!("bad request batch: {e}")),
        },
        serde_json::Value::Object(ref obj) if obj.contains_key("cmd") => Slow::Cmd,
        obj @ serde_json::Value::Object(_) => match serde_json::from_value(obj) {
            Ok(req) => Slow::Single(req),
            Err(e) => reject(format!("bad request: {e}")),
        },
        _ => reject("expected a JSON object or array".to_string()),
    }
}

/// The reply line the server writes for a rejection.
fn reply_line(rejection: &Rejection) -> String {
    let mut out = String::new();
    rejection.encode_json_into(&mut out);
    out
}

/// Every rejection text opens with one of the four wire error prefixes.
fn has_wire_prefix(rejection: &Rejection) -> bool {
    let msg = rejection.message();
    msg.starts_with("malformed JSON: serde error: JSON parse error at byte ")
        || msg.starts_with("bad request: serde error: ")
        || msg.starts_with("bad request batch: serde error: ")
        || msg == "expected a JSON object or array"
}

/// Checks the decoder against the reference on one line.
fn check_line(line: &str, canonical: bool) {
    let mut reqs: Vec<PredictRequest> = Vec::new();
    let decoded = decode_request_line(line, &mut reqs);
    // A mutated surrogate escape can overflow the shim parser's arithmetic,
    // which panics in debug builds; such a line has no reference verdict.
    let Ok(slow) = std::panic::catch_unwind(|| slow_path(line)) else {
        return;
    };
    match (decoded, slow) {
        (Ok(DecodedShape::Single), Slow::Single(want)) => {
            prop_assert_eq!(reqs.len(), 1);
            prop_assert_eq!(req_value(&reqs[0]), req_value(&want), "line: {}", line);
        }
        (Ok(DecodedShape::Batch), Slow::Batch(want)) => {
            prop_assert_eq!(reqs.len(), want.len(), "line: {}", line);
            for (got, want) in reqs.iter().zip(&want) {
                prop_assert_eq!(req_value(got), req_value(want), "line: {}", line);
            }
        }
        (Ok(DecodedShape::Cmd), Slow::Cmd) => prop_assert!(reqs.is_empty()),
        (Err(rejection), Slow::Reject(want)) => {
            prop_assert!(!canonical, "decoder rejected a canonical line: {}", line);
            prop_assert!(reqs.is_empty());
            prop_assert!(has_wire_prefix(&rejection), "{:?}", rejection);
            prop_assert_eq!(reply_line(&rejection), want, "line: {}", line);
        }
        (decoded, slow) => {
            prop_assert!(
                false,
                "verdicts differ on {}: {:?} vs {:?}",
                line,
                decoded,
                slow
            )
        }
    }
}

fn req_value(r: &PredictRequest) -> serde_json::Value {
    serde_json::to_value(r).expect("serialize request")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4000, ..ProptestConfig::default() })]

    #[test]
    fn fast_decoder_matches_value_path(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (line, canonical) = emit_line(&mut rng);
        check_line(&line, canonical);
    }

    #[test]
    fn hostile_lines_never_panic_and_reject_with_a_wire_prefix(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let line = match rng.below(3) {
            // Arbitrary text, heavy on JSON punctuation.
            0 => {
                const ALPHABET: &[char] = &[
                    '{', '}', '[', ']', '"', '\\', ':', ',', ' ', '-', '.', 'e', '0', '7',
                    'u', 'n', 't', 'f', 'd', 'a', 'x', '\u{e9}', '\u{1F600}', '\u{0}', '\n',
                ];
                (0..rng.below(64))
                    .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
                    .collect()
            }
            // Mutations of canonical lines, stacked.
            1 => {
                let mut line = String::new();
                emit_request(&mut rng, true, &mut line);
                for _ in 0..1 + rng.below(4) {
                    line = mutate(&mut rng, &line);
                }
                line
            }
            // Deep nesting, at the top level or in a field.
            _ => {
                let depth = 1 + rng.below(400) as usize;
                let open = ["[", "{\"a\":"][rng.below(2) as usize].repeat(depth);
                if rng.chance(50) { open } else { format!("{{\"workload\":\"S5\",\"x\":{open}") }
            }
        };
        let mut reqs = Vec::new();
        if let Err(rejection) = decode_request_line(&line, &mut reqs) {
            prop_assert!(has_wire_prefix(&rejection), "{:?} on {}", rejection, line);
            prop_assert!(reqs.is_empty());
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
fn hundred_thousand_deep_nesting_is_rejected_at_the_cap() {
    let deep = "[".repeat(100_000);
    for line in [
        deep.clone(),
        format!(r#"{{"workload":"S5","x":{deep}"#),
        format!(r#"{{"cmd":"ping","x":{deep}"#),
    ] {
        let rejection = decode_request_line(&line, &mut Vec::new()).unwrap_err();
        assert!(
            rejection
                .message()
                .ends_with("nesting deeper than 128 levels"),
            "{rejection:?}"
        );
        assert!(has_wire_prefix(&rejection));
    }
    // 128 levels is still fine.
    let at_cap = format!("{}{}", "[".repeat(128), "]".repeat(128));
    assert!(decode_request_line(&at_cap, &mut Vec::new())
        .unwrap_err()
        .message()
        .starts_with("bad request batch: "));
}

#[test]
fn notify_key_changes_nothing_on_either_decoder() {
    // Clients written against the retired notify/upgrade push may still
    // send `"notify": true`; the line must decode exactly as without it, on
    // both the decoder and the `Value` route — one request, one reply.
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
            assert_eq!(shape, Ok(want_shape), "decoder rejected: {notified}");
            let fast: Vec<_> = fast.iter().map(req_value).collect();
            assert_eq!(fast, expected, "fast decoder: {notified}");
            let slow: Vec<_> = match slow_path(&notified) {
                Slow::Single(r) => vec![req_value(&r)],
                Slow::Batch(rs) => rs.iter().map(req_value).collect(),
                Slow::Cmd | Slow::Reject(_) => panic!("value path refused: {notified}"),
            };
            assert_eq!(slow, expected, "value path: {notified}");
        }
    }
}
