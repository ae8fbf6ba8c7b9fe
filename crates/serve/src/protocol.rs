//! Wire types for the line-delimited JSON prediction protocol.
//!
//! One request per line; one response line per request (arrays map to array
//! responses). The same types back the in-process [`Client`](crate::Client),
//! so a test exercising the client exercises the protocol.
//!
//! [`decode_request_line`] is the one decoder for wire lines: it returns the
//! line's requests, names a control command, or rejects the line with the
//! exact `{"error": ...}` text the server replies with
//! ([`Rejection::encode_json_into`]).
//!
//! ```json
//! {"id": 1, "workload": "S5", "arch": {"base": "n1", "rob": 256}}
//! {"id": 1, "cpi": 1.87, "cached": true, "micros": 112}
//! ```

use concorde_core::keystr::KeyStr;
use concorde_cyclesim::MicroArch;
use std::borrow::Cow;

use serde::{Content, Deserialize, Serialize};

/// QoS class of a request, carried on the wire as `"class"`.
///
/// The class labels every latency histogram the server exports and selects
/// the per-class miss-wait SLO (`--slo interactive=25,batch=500`):
/// interactive traffic is the latency-sensitive point-query path, batch is
/// sweep/backfill traffic that tolerates parking. Default: `interactive`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RequestClass {
    /// Latency-sensitive point queries (the default).
    #[default]
    Interactive,
    /// Throughput-oriented sweep/backfill traffic.
    Batch,
}

/// Number of request classes (sizes the per-class metric arrays).
pub const N_CLASSES: usize = 2;

impl RequestClass {
    /// All classes, indexable by [`RequestClass::index`].
    pub const ALL: [RequestClass; N_CLASSES] = [RequestClass::Interactive, RequestClass::Batch];

    /// Dense index for per-class metric arrays.
    pub fn index(self) -> usize {
        match self {
            RequestClass::Interactive => 0,
            RequestClass::Batch => 1,
        }
    }

    /// Wire / label name (`"interactive"` / `"batch"`).
    pub fn name(self) -> &'static str {
        match self {
            RequestClass::Interactive => "interactive",
            RequestClass::Batch => "batch",
        }
    }

    /// Parses a wire / CLI name.
    pub fn parse(s: &str) -> Option<RequestClass> {
        match s {
            "interactive" => Some(RequestClass::Interactive),
            "batch" => Some(RequestClass::Batch),
            _ => None,
        }
    }
}

impl std::fmt::Display for RequestClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// Manual (de)serialization: the derive shim would emit the Rust variant
// names (`"Interactive"`); the wire contract is the lowercase label names.
impl Serialize for RequestClass {
    fn to_content(&self) -> Content {
        Content::Str(self.name().to_string())
    }
}

impl Deserialize for RequestClass {
    fn from_content(c: &Content) -> Result<Self, serde::Error> {
        match c {
            Content::Str(s) => RequestClass::parse(s).ok_or_else(|| {
                serde::Error::custom(format!(
                    "unknown request class `{s}` (expected `interactive` or `batch`)"
                ))
            }),
            _ => Err(serde::Error::custom("request class must be a string")),
        }
    }
}

/// Architecture selector: a named base design plus per-parameter overrides.
///
/// Every field is optional; the empty spec resolves to the ARM N1
/// configuration.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ArchSpec {
    /// Base design: `"n1"` (default) or `"big"`.
    #[serde(default)]
    pub base: Option<KeyStr>,
    /// Reorder-buffer size.
    #[serde(default)]
    pub rob: Option<u32>,
    /// Load-queue size.
    #[serde(default)]
    pub lq: Option<u32>,
    /// Store-queue size.
    #[serde(default)]
    pub sq: Option<u32>,
    /// ALU issue width.
    #[serde(default)]
    pub alu: Option<u32>,
    /// FP issue width.
    #[serde(default)]
    pub fp: Option<u32>,
    /// Load-store issue width.
    #[serde(default)]
    pub ls: Option<u32>,
    /// Fetch width.
    #[serde(default)]
    pub fetch: Option<u32>,
    /// Decode width.
    #[serde(default)]
    pub decode: Option<u32>,
    /// Rename width.
    #[serde(default)]
    pub rename: Option<u32>,
    /// Commit width.
    #[serde(default)]
    pub commit: Option<u32>,
    /// L1 data cache size (KiB).
    #[serde(default)]
    pub l1d: Option<u32>,
    /// L1 instruction cache size (KiB).
    #[serde(default)]
    pub l1i: Option<u32>,
    /// Unified L2 size (KiB).
    #[serde(default)]
    pub l2: Option<u32>,
    /// Prefetch degree.
    #[serde(default)]
    pub prefetch: Option<u32>,
}

impl ArchSpec {
    /// Resolves the spec to a concrete microarchitecture.
    ///
    /// # Errors
    ///
    /// Returns a message naming an unknown base design or an out-of-range
    /// parameter. Sizes and widths must be in `1..=1_048_576` (the analytic
    /// models assert non-zero resources; a zero from the wire must be a
    /// request error, never a worker panic); `prefetch` may be `0..=64`.
    pub fn resolve(&self) -> Result<MicroArch, String> {
        const MAX: u32 = 1 << 20;
        for (name, v) in [
            ("rob", self.rob),
            ("lq", self.lq),
            ("sq", self.sq),
            ("alu", self.alu),
            ("fp", self.fp),
            ("ls", self.ls),
            ("fetch", self.fetch),
            ("decode", self.decode),
            ("rename", self.rename),
            ("commit", self.commit),
            ("l1d", self.l1d),
            ("l1i", self.l1i),
            ("l2", self.l2),
        ] {
            if let Some(v) = v {
                if v == 0 || v > MAX {
                    return Err(format!(
                        "parameter `{name}` = {v} is out of range (1..={MAX})"
                    ));
                }
            }
        }
        if let Some(v) = self.prefetch {
            if v > 64 {
                return Err(format!(
                    "parameter `prefetch` = {v} is out of range (0..=64)"
                ));
            }
        }
        let mut arch = match self.base.as_deref() {
            None | Some("n1") => MicroArch::arm_n1(),
            Some("big") => MicroArch::big_core(),
            Some(other) => {
                return Err(format!(
                    "unknown base arch `{other}` (expected `n1` or `big`)"
                ))
            }
        };
        if let Some(v) = self.rob {
            arch.rob_size = v;
        }
        if let Some(v) = self.lq {
            arch.lq_size = v;
        }
        if let Some(v) = self.sq {
            arch.sq_size = v;
        }
        if let Some(v) = self.alu {
            arch.alu_width = v;
        }
        if let Some(v) = self.fp {
            arch.fp_width = v;
        }
        if let Some(v) = self.ls {
            arch.ls_width = v;
        }
        if let Some(v) = self.fetch {
            arch.fetch_width = v;
        }
        if let Some(v) = self.decode {
            arch.decode_width = v;
        }
        if let Some(v) = self.rename {
            arch.rename_width = v;
        }
        if let Some(v) = self.commit {
            arch.commit_width = v;
        }
        if let Some(v) = self.l1d {
            arch.mem.l1d_kb = v;
        }
        if let Some(v) = self.l1i {
            arch.mem.l1i_kb = v;
        }
        if let Some(v) = self.l2 {
            arch.mem.l2_kb = v;
        }
        if let Some(v) = self.prefetch {
            arch.mem.prefetch_degree = v;
        }
        Ok(arch)
    }

    /// Spec for a named base design with no overrides.
    pub fn base(name: &str) -> ArchSpec {
        ArchSpec {
            base: Some(KeyStr::new(name)),
            ..ArchSpec::default()
        }
    }
}

/// One CPI prediction query: a program region plus a microarchitecture.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PredictRequest {
    /// Client-chosen correlation id, echoed in the response.
    #[serde(default)]
    pub id: u64,
    /// Workload id from the suite (e.g. `"S5"`); see `concorde workloads`.
    pub workload: KeyStr,
    /// Trace index within the workload.
    #[serde(default)]
    pub trace: u32,
    /// Region start offset in instructions.
    #[serde(default)]
    pub start: u64,
    /// Region length override in instructions (0 = the service profile's).
    #[serde(default)]
    pub len: u32,
    /// Microarchitecture to predict for.
    #[serde(default)]
    pub arch: ArchSpec,
    /// Miss-wait deadline in milliseconds. On a cache miss, the precompute
    /// pool builds the store of the parked request with the earliest
    /// deadline first; the answer is the exact prediction either way.
    /// Overrides the class SLO (`--slo`) for this request. Ignored on cache
    /// hits.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// QoS class: labels this request's latency histograms and selects the
    /// per-class SLO that serves as its EDF build deadline (`interactive`
    /// default, `batch` for sweep traffic).
    #[serde(default)]
    pub class: RequestClass,
    /// Feature-schema version pin: when present, the request is answered
    /// with a typed `{"type": "error", "reason": "schema_mismatch"}` unless
    /// it equals the server's `SCHEMA_VERSION` — a layout drift surfaces as
    /// an explicit error instead of a silently wrong store layout.
    #[serde(default)]
    pub schema_version: Option<u32>,
}

impl PredictRequest {
    /// Request for `workload` on `arch` with defaults elsewhere.
    pub fn new(id: u64, workload: &str, arch: ArchSpec) -> Self {
        PredictRequest {
            id,
            workload: KeyStr::new(workload),
            trace: 0,
            start: 0,
            len: 0,
            arch,
            deadline_ms: None,
            class: RequestClass::Interactive,
            schema_version: None,
        }
    }
}

/// Prediction result (or error) for one request.
#[derive(Debug, Clone)]
pub struct PredictResponse {
    /// Echo of the request id.
    pub id: u64,
    /// Predicted CPI; absent on error.
    pub cpi: Option<f64>,
    /// Error message; absent on success.
    pub error: Option<String>,
    /// Whether the region's feature store was already cached.
    pub cached: bool,
    /// Always `false`: every answer is the exact model prediction. Kept on
    /// the wire so existing clients that read it keep parsing.
    pub approx: bool,
    /// What kind of typed error this is: `"schema_mismatch"` on the
    /// schema-pin error, `"internal"` on a caught worker or build panic.
    /// `null` otherwise — test `error`, not key presence, to classify a
    /// response.
    pub reason: Option<String>,
    /// Message kind, serialized as `"type"`: `None` for ordinary replies,
    /// `"error"` for typed errors (e.g. `reason: "schema_mismatch"`).
    pub kind: Option<String>,
    /// End-to-end service latency in microseconds (enqueue → response).
    pub micros: u64,
}

// Manual (de)serialization: the derive shim has no `rename`, and the wire
// field for `kind` must be `"type"` (`{"type": "error"}` — the same
// convention as the TCP `busy` line). Field
// set and defaults otherwise mirror what the derive produced, so legacy
// response lines parse unchanged.
impl Serialize for PredictResponse {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("id".to_string(), self.id.to_content()),
            ("cpi".to_string(), self.cpi.to_content()),
            ("error".to_string(), self.error.to_content()),
            ("cached".to_string(), self.cached.to_content()),
            ("approx".to_string(), self.approx.to_content()),
            ("reason".to_string(), self.reason.to_content()),
            ("type".to_string(), self.kind.to_content()),
            ("micros".to_string(), self.micros.to_content()),
        ])
    }
}

impl Deserialize for PredictResponse {
    fn from_content(c: &Content) -> Result<Self, serde::Error> {
        let m = c
            .as_map()
            .ok_or_else(|| serde::Error::custom("PredictResponse must be a map"))?;
        fn field<T: Deserialize + Default>(
            m: &[(String, Content)],
            key: &str,
        ) -> Result<T, serde::Error> {
            match serde::map_get(m, key) {
                None | Some(Content::Null) => Ok(T::default()),
                Some(v) => T::from_content(v),
            }
        }
        Ok(PredictResponse {
            id: field(m, "id")?,
            cpi: field(m, "cpi")?,
            error: field(m, "error")?,
            cached: field(m, "cached")?,
            approx: field(m, "approx")?,
            reason: field(m, "reason")?,
            kind: field(m, "type")?,
            micros: field(m, "micros")?,
        })
    }
}

impl PredictResponse {
    /// Successful (exact) response.
    pub fn ok(id: u64, cpi: f64, cached: bool, micros: u64) -> Self {
        PredictResponse {
            id,
            cpi: Some(cpi),
            error: None,
            cached,
            approx: false,
            reason: None,
            kind: None,
            micros,
        }
    }

    /// Error response.
    pub fn err(id: u64, msg: impl Into<String>, micros: u64) -> Self {
        PredictResponse {
            id,
            cpi: None,
            error: Some(msg.into()),
            cached: false,
            approx: false,
            reason: None,
            kind: None,
            micros,
        }
    }

    /// Typed schema-pin rejection: the request's `schema_version` does not
    /// match the server's `SCHEMA_VERSION`. Carries `type: "error"` and
    /// `reason: "schema_mismatch"` so clients can branch without string
    /// matching the human-readable message.
    pub fn schema_mismatch(id: u64, requested: u32, served: u32, micros: u64) -> Self {
        PredictResponse {
            id,
            cpi: None,
            error: Some(format!(
                "schema mismatch: request pinned v{requested}, server speaks v{served}"
            )),
            cached: false,
            approx: false,
            reason: Some("schema_mismatch".to_string()),
            kind: Some("error".to_string()),
            micros,
        }
    }

    /// Typed internal-failure response: a worker or build panicked while
    /// serving the request. Carries `type: "error"` and `reason: "internal"`
    /// so clients can branch (e.g. retry) without string-matching the
    /// human-readable message.
    pub fn internal(id: u64, msg: impl std::fmt::Display, micros: u64) -> Self {
        PredictResponse {
            id,
            cpi: None,
            error: Some(format!("internal error: {msg}")),
            cached: false,
            approx: false,
            reason: Some("internal".to_string()),
            kind: Some("error".to_string()),
            micros,
        }
    }

    /// Appends this response's JSON encoding to `out` — byte-identical to
    /// `serde_json::to_string(self)` but with zero heap allocations (the
    /// warm-path encoder the per-connection reply buffer reuses).
    pub fn encode_json_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        out.push_str("{\"id\":");
        let _ = write!(out, "{}", self.id);
        out.push_str(",\"cpi\":");
        encode_f64_opt(out, self.cpi);
        out.push_str(",\"error\":");
        encode_str_opt(out, self.error.as_deref());
        out.push_str(",\"cached\":");
        out.push_str(if self.cached { "true" } else { "false" });
        out.push_str(",\"approx\":");
        out.push_str(if self.approx { "true" } else { "false" });
        out.push_str(",\"reason\":");
        encode_str_opt(out, self.reason.as_deref());
        out.push_str(",\"type\":");
        encode_str_opt(out, self.kind.as_deref());
        out.push_str(",\"micros\":");
        let _ = write!(out, "{}", self.micros);
        out.push('}');
    }
}

// ---------------------------------------------------------------------------
// Wire decoder: one pass per request line + allocation-free reply encode
// ---------------------------------------------------------------------------
//
// `decode_request_line` is the only request decoder. It walks a line once,
// checking the JSON grammar exactly as the `serde_json` shim's parser does
// (same error texts at the same byte offsets), and materializes
// `PredictRequest`s directly — inline `KeyStr` workloads, escape-free
// strings borrowed from the line, so a typical line costs no heap. Field
// values go through the shim's own `Deserialize` impls, and the rules of
// its derived struct impls are kept: a duplicate key's last value wins, and
// the first bad field in declaration order names the error. A rejected line
// therefore gets the reply text the `serde_json::Value` route produced;
// `tests/protocol_equiv.rs` keeps that route as the reference.

/// Deepest container nesting a line may use. Well-formed requests need 3
/// (batch → request → arch); the cap keeps the decoder's recursion, and the
/// `Value` parse of a control line after it, off the end of the
/// connection thread's stack.
const MAX_DEPTH: usize = 128;

/// What a decoded line holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodedShape {
    /// A single request object (one request appended).
    Single,
    /// An array of requests (zero or more appended, in order).
    Batch,
    /// A top-level object with a `"cmd"` key: a control command. The line
    /// is valid JSON nested at most 128 deep; nothing is appended.
    Cmd,
}

/// A line answered with one `{"error": ...}` object instead of
/// predictions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection(String);

impl Rejection {
    /// The error text. It starts with `malformed JSON: `, `bad request: `
    /// or `bad request batch: `, or is `expected a JSON object or array`.
    pub fn message(&self) -> &str {
        &self.0
    }

    /// Appends the `{"error": ...}` reply object.
    pub fn encode_json_into(&self, out: &mut String) {
        encode_error_into(out, &self.0);
    }
}

/// Appends `{"error": msg}`, byte-identical to
/// `serde_json::json!({"error": msg}).to_string()`.
pub(crate) fn encode_error_into(out: &mut String, msg: &str) {
    out.push_str("{\"error\":");
    encode_str_opt(out, Some(msg));
    out.push('}');
}

/// Decodes one wire line in a single pass.
///
/// Appends the decoded request(s) to `out` (cleared first) and returns the
/// line's shape; `out` is left empty for control lines and rejections.
///
/// # Errors
///
/// A [`Rejection`] carrying the reply text for malformed JSON, nesting
/// deeper than 128 levels, a field of the wrong type, a missing
/// `workload`, or a top level that is neither an object nor an array.
pub fn decode_request_line(
    line: &str,
    out: &mut Vec<PredictRequest>,
) -> Result<DecodedShape, Rejection> {
    out.clear();
    let mut p = Parser {
        s: line,
        b: line.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let decoded = p.line(out);
    if decoded.is_err() {
        out.clear();
    }
    decoded
}

/// A field value as the shim's `Deserialize` impls see it. Numbers and
/// `null` are kept as `Content` (no heap), strings are borrowed when they
/// carry no escapes, and the other values, which every request field
/// refuses, are validated and skipped.
enum Val<'a> {
    Scalar(Content),
    Str(Cow<'a, str>),
    Other,
}

impl Val<'_> {
    /// Converts through the shim's own impl, so acceptance and error text
    /// match the `Value` route by construction.
    fn de<T: Deserialize>(&self) -> Result<T, serde::Error> {
        match self {
            Val::Scalar(c) => T::from_content(c),
            Val::Str(s) => T::from_content(&Content::Str(s.to_string())),
            Val::Other => T::from_content(&Content::Seq(Vec::new())),
        }
    }

    /// A string converted by `fast` without a heap copy; anything `fast`
    /// declines goes through [`Val::de`] for its exact value or error.
    fn str_or_de<T: Deserialize>(
        &self,
        fast: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, serde::Error> {
        match self {
            Val::Str(s) => fast(s).map_or_else(|| self.de(), Ok),
            _ => self.de(),
        }
    }
}

/// The first field error in declaration order, as the derived impls
/// report it.
fn first_error<const N: usize>(errs: [Option<serde::Error>; N]) -> Option<serde::Error> {
    errs.into_iter().flatten().next()
}

struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    /// A syntax error at the current offset, worded like the shim parser.
    fn syntax(&self, msg: &str) -> Rejection {
        Rejection(format!(
            "malformed JSON: serde error: JSON parse error at byte {}: {msg}",
            self.pos
        ))
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Rejection> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.syntax(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), Rejection> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.syntax(&format!("expected `{lit}`")))
        }
    }

    /// The whole line: one document, then only whitespace. A syntax error
    /// anywhere wins over a type error, as the `Value` route parses before
    /// it converts.
    fn line(&mut self, out: &mut Vec<PredictRequest>) -> Result<DecodedShape, Rejection> {
        self.skip_ws();
        let routed = match self.peek() {
            Some(b'{') => match self.request_obj(true)? {
                (_, true) => Ok(DecodedShape::Cmd),
                (Ok(req), false) => {
                    out.push(req);
                    Ok(DecodedShape::Single)
                }
                (Err(e), false) => Err(Rejection(format!("bad request: {e}"))),
            },
            Some(b'[') => {
                let mut first_err = None;
                self.array_items(|p| {
                    let req = if p.peek() == Some(b'{') {
                        p.request_obj(false)?.0
                    } else {
                        p.field_value()?.de()
                    };
                    match req {
                        Ok(req) => out.push(req),
                        Err(e) => {
                            first_err.get_or_insert(e);
                        }
                    }
                    Ok(())
                })?;
                match first_err {
                    None => Ok(DecodedShape::Batch),
                    Some(e) => Err(Rejection(format!("bad request batch: {e}"))),
                }
            }
            _ => {
                self.skip_value()?;
                Err(Rejection("expected a JSON object or array".to_string()))
            }
        };
        self.skip_ws();
        if self.pos != self.b.len() {
            return Err(self.syntax("trailing characters"));
        }
        routed
    }

    /// Enters a container at its opening bracket, enforcing [`MAX_DEPTH`].
    fn open(&mut self) -> Result<(), Rejection> {
        if self.depth == MAX_DEPTH {
            return Err(self.syntax(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    /// Walks an array, handing each element to `item` at its first byte.
    fn array_items(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), Rejection>,
    ) -> Result<(), Rejection> {
        self.open()?;
        self.skip_ws();
        if self.peek() != Some(b']') {
            loop {
                self.skip_ws();
                item(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => break,
                    _ => return Err(self.syntax("expected `,` or `]`")),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    /// Walks an object, handing each key to `entry` with the parser at the
    /// first byte of its value.
    fn object_entries(
        &mut self,
        mut entry: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), Rejection>,
    ) -> Result<(), Rejection> {
        self.open()?;
        self.skip_ws();
        if self.peek() != Some(b'}') {
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                entry(self, key)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => break,
                    _ => return Err(self.syntax("expected `,` or `}`")),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    /// Validates and discards any JSON value.
    fn skip_value(&mut self) -> Result<(), Rejection> {
        match self.peek() {
            Some(b'n') => self.literal("null"),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'"') => self.string().map(drop),
            Some(b'[') => self.array_items(Self::skip_value),
            Some(b'{') => self.object_entries(|p, _| p.skip_value()),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number().map(drop),
            Some(c) => Err(self.syntax(&format!("unexpected `{}`", c as char))),
            None => Err(self.syntax("unexpected end of input")),
        }
    }

    fn field_value(&mut self) -> Result<Val<'a>, Rejection> {
        Ok(match self.peek() {
            Some(b'"') => Val::Str(self.string()?),
            Some(b'n') => {
                self.literal("null")?;
                Val::Scalar(Content::Null)
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => Val::Scalar(self.number()?),
            _ => {
                self.skip_value()?;
                Val::Other
            }
        })
    }

    /// Parses a JSON string, borrowing it from the line when it carries no
    /// escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, Rejection> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut owned: Option<String> = None;
        loop {
            match self.peek() {
                None => return Err(self.syntax("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        Some(s) => Cow::Owned(s),
                        None => Cow::Borrowed(&self.s[start..self.pos - 1]),
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(|| self.s[start..self.pos].to_string());
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(self.syntax("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                if self.peek() != Some(b'\\') {
                                    return Err(self.syntax("lone surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                // The shim's surrogate arithmetic, wrapping
                                // as its release build does.
                                0x10000u32
                                    .wrapping_add((hi - 0xD800) << 10)
                                    .wrapping_add(lo.wrapping_sub(0xDC00))
                            } else {
                                hi
                            };
                            let Some(ch) = char::from_u32(cp) else {
                                return Err(self.syntax("invalid codepoint"));
                            };
                            out.push(ch);
                        }
                        _ => return Err(self.syntax("invalid escape")),
                    }
                }
                Some(_) => {
                    // The line is `&str`, so the span up to the next quote
                    // or backslash is valid UTF-8.
                    let run = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    if let Some(out) = owned.as_mut() {
                        out.push_str(&self.s[run..self.pos]);
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Rejection> {
        let Some(digits) = self.b.get(self.pos..self.pos + 4) else {
            return Err(self.syntax("truncated \\u escape"));
        };
        let v = std::str::from_utf8(digits)
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| self.syntax("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    /// Consumes a number with the shim parser's classification: integer
    /// text becomes `U64`/`I64` (overflow falls back to `F64`), anything
    /// with a `.` or exponent is `F64`.
    fn number(&mut self) -> Result<Content, Rejection> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits();
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits();
        }
        let text = &self.s[start..self.pos];
        let float = || text.parse().ok().map(Content::F64);
        let n = if is_float {
            float()
        } else if text.starts_with('-') {
            text.parse().ok().map(Content::I64).or_else(float)
        } else {
            text.parse().ok().map(Content::U64).or_else(float)
        };
        n.ok_or_else(|| self.syntax("invalid number"))
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
    }

    /// A request object: the request or its first field error, and whether
    /// a top-level object carries a `"cmd"` key (a control command,
    /// whatever else it holds).
    fn request_obj(
        &mut self,
        top_level: bool,
    ) -> Result<(Result<PredictRequest, serde::Error>, bool), Rejection> {
        let mut req = PredictRequest::default();
        // Indexed by `PredictRequest` field declaration order.
        let mut errs: [Option<serde::Error>; 9] = Default::default();
        let mut have_workload = false;
        let mut cmd = false;
        self.object_entries(|p, key| {
            let (i, set) = match &*key {
                "id" => (0, p.field_value()?.de().map(|v| req.id = v)),
                "workload" => {
                    have_workload = true;
                    let v = p.field_value()?;
                    (
                        1,
                        v.str_or_de(|s| Some(KeyStr::new(s)))
                            .map(|v| req.workload = v),
                    )
                }
                "trace" => (2, p.field_value()?.de().map(|v| req.trace = v)),
                "start" => (3, p.field_value()?.de().map(|v| req.start = v)),
                "len" => (4, p.field_value()?.de().map(|v| req.len = v)),
                "arch" => (5, p.arch_value()?.map(|v| req.arch = v)),
                "deadline_ms" => (6, p.field_value()?.de().map(|v| req.deadline_ms = v)),
                "class" => {
                    let v = p.field_value()?;
                    (7, v.str_or_de(RequestClass::parse).map(|v| req.class = v))
                }
                "schema_version" => (8, p.field_value()?.de().map(|v| req.schema_version = v)),
                other => {
                    cmd |= top_level && other == "cmd";
                    return p.skip_value();
                }
            };
            errs[i] = set.err();
            Ok(())
        })?;
        if !have_workload {
            errs[1] = Some(serde::Error::custom(
                "PredictRequest: missing field `workload`",
            ));
        }
        Ok((first_error(errs).map_or(Ok(req), Err), cmd))
    }

    /// An `arch` value: the spec or its first field error.
    fn arch_value(&mut self) -> Result<Result<ArchSpec, serde::Error>, Rejection> {
        if self.peek() != Some(b'{') {
            return Ok(self.field_value()?.de());
        }
        let mut spec = ArchSpec::default();
        // Indexed by `ArchSpec` field declaration order.
        let mut errs: [Option<serde::Error>; 15] = Default::default();
        self.object_entries(|p, key| {
            let (i, param) = match &*key {
                "base" => {
                    let v = p.field_value()?;
                    let set = v.str_or_de(|s| Some(Some(KeyStr::new(s))));
                    errs[0] = set.map(|b| spec.base = b).err();
                    return Ok(());
                }
                "rob" => (1, &mut spec.rob),
                "lq" => (2, &mut spec.lq),
                "sq" => (3, &mut spec.sq),
                "alu" => (4, &mut spec.alu),
                "fp" => (5, &mut spec.fp),
                "ls" => (6, &mut spec.ls),
                "fetch" => (7, &mut spec.fetch),
                "decode" => (8, &mut spec.decode),
                "rename" => (9, &mut spec.rename),
                "commit" => (10, &mut spec.commit),
                "l1d" => (11, &mut spec.l1d),
                "l1i" => (12, &mut spec.l1i),
                "l2" => (13, &mut spec.l2),
                "prefetch" => (14, &mut spec.prefetch),
                _ => return p.skip_value(),
            };
            errs[i] = p.field_value()?.de().map(|v| *param = v).err();
            Ok(())
        })?;
        Ok(first_error(errs).map_or(Ok(spec), Err))
    }
}

/// Writes `Some(v)` with the shim's exact float formatting (`{v}` plus a
/// `.0` suffix when the text has no `.`/`e`/`E`), `None`/non-finite as
/// `null` — without allocating.
fn encode_f64_opt(out: &mut String, v: Option<f64>) {
    use std::fmt::Write as _;
    match v {
        Some(v) if v.is_finite() => {
            // Write straight into the output buffer, then inspect only the
            // appended bytes. `Display` for f64 is usually ≤ 24 bytes but
            // subnormals expand to ~770 digits — no fixed stack buffer is
            // safe, and a reused `String` stays allocation-free once warm.
            let start = out.len();
            let _ = write!(out, "{v}");
            if !out[start..].contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
        _ => out.push_str("null"),
    }
}

/// Writes `Some(s)` escaped exactly like the shim's `write_escaped`,
/// `None` as `null`.
fn encode_str_opt(out: &mut String, s: Option<&str>) {
    let Some(s) = s else {
        out.push_str("null");
        return;
    };
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                let v = c as u32;
                out.push_str("\\u00");
                out.push(HEX[(v >> 4) as usize] as char);
                out.push(HEX[(v & 0xf) as usize] as char);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_spec_resolves_overrides() {
        let spec: ArchSpec =
            serde_json::from_str(r#"{"base": "big", "rob": 64, "l1d": 32}"#).unwrap();
        let arch = spec.resolve().unwrap();
        assert_eq!(arch.rob_size, 64);
        assert_eq!(arch.mem.l1d_kb, 32);
        // Untouched fields keep the big-core values.
        assert_eq!(arch.lq_size, MicroArch::big_core().lq_size);
    }

    #[test]
    fn empty_spec_is_n1() {
        let spec: ArchSpec = serde_json::from_str("{}").unwrap();
        assert_eq!(spec.resolve().unwrap(), MicroArch::arm_n1());
    }

    #[test]
    fn unknown_base_is_an_error() {
        assert!(ArchSpec::base("epyc").resolve().is_err());
    }

    #[test]
    fn request_roundtrip() {
        let req = PredictRequest::new(9, "S5", ArchSpec::base("n1"));
        let line = serde_json::to_string(&req).unwrap();
        let back: PredictRequest = serde_json::from_str(&line).unwrap();
        assert_eq!(back.id, 9);
        assert_eq!(back.workload, "S5");
        // Missing optional fields deserialize to defaults.
        let sparse: PredictRequest = serde_json::from_str(r#"{"workload": "C1"}"#).unwrap();
        assert_eq!(sparse.trace, 0);
        assert_eq!(sparse.arch, ArchSpec::default());
        assert_eq!(sparse.deadline_ms, None);
        // An explicit deadline round-trips.
        let tight: PredictRequest =
            serde_json::from_str(r#"{"workload": "C1", "deadline_ms": 5}"#).unwrap();
        assert_eq!(tight.deadline_ms, Some(5));
        // QoS fields default off…
        assert_eq!(sparse.class, RequestClass::Interactive);
        assert_eq!(sparse.schema_version, None);
        // …and round-trip when set.
        let qos: PredictRequest =
            serde_json::from_str(r#"{"workload": "C1", "class": "batch", "schema_version": 3}"#)
                .unwrap();
        assert_eq!(qos.class, RequestClass::Batch);
        assert_eq!(qos.schema_version, Some(3));
        let line = serde_json::to_string(&qos).unwrap();
        let back: PredictRequest = serde_json::from_str(&line).unwrap();
        assert_eq!(back.class, RequestClass::Batch);
        assert_eq!(back.schema_version, Some(3));
    }

    #[test]
    fn request_class_rejects_unknown_names() {
        assert!(
            serde_json::from_str::<PredictRequest>(r#"{"workload": "C1", "class": "vip"}"#)
                .is_err()
        );
        assert_eq!(
            RequestClass::parse("interactive"),
            Some(RequestClass::Interactive)
        );
        assert_eq!(RequestClass::parse("batch"), Some(RequestClass::Batch));
        assert_eq!(RequestClass::parse("Batch"), None);
        for (i, c) in RequestClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(RequestClass::parse(c.name()), Some(*c));
        }
    }

    #[test]
    fn typed_error_roundtrip() {
        let err = PredictResponse::schema_mismatch(3, 2, 3, 10);
        assert_eq!(err.kind.as_deref(), Some("error"));
        assert_eq!(err.reason.as_deref(), Some("schema_mismatch"));
        let line = serde_json::to_string(&err).unwrap();
        // The wire key is `type`, not `kind`.
        assert!(line.contains(r#""type":"error""#), "{line}");
        assert!(!line.contains("kind"), "{line}");
        let back: PredictResponse = serde_json::from_str(&line).unwrap();
        assert_eq!(back.kind.as_deref(), Some("error"));
        assert_eq!(back.reason.as_deref(), Some("schema_mismatch"));
        assert!(back.error.unwrap().contains("v2"));
        // Ordinary replies carry `type: null` and parse as kind = None.
        let ok: PredictResponse = serde_json::from_str(
            &serde_json::to_string(&PredictResponse::ok(1, 1.0, false, 2)).unwrap(),
        )
        .unwrap();
        assert!(ok.kind.is_none());

        // A worker-panic answer is the typed `reason: "internal"` error.
        let internal = PredictResponse::internal(9, "eval panicked", 42);
        assert_eq!(internal.kind.as_deref(), Some("error"));
        assert_eq!(internal.reason.as_deref(), Some("internal"));
        assert!(internal.cpi.is_none() && !internal.approx);
        let back: PredictResponse =
            serde_json::from_str(&serde_json::to_string(&internal).unwrap()).unwrap();
        assert_eq!(back.reason.as_deref(), Some("internal"));
        assert!(back
            .error
            .unwrap()
            .contains("internal error: eval panicked"));
    }

    #[test]
    fn approx_stays_on_the_wire_and_is_false() {
        // The field is still encoded, so clients that read it keep parsing…
        let line = serde_json::to_string(&PredictResponse::ok(1, 1.0, true, 1)).unwrap();
        assert!(line.contains(r#""approx":false"#), "{line}");
        // …and response lines without it parse as exact.
        let legacy: PredictResponse =
            serde_json::from_str(r#"{"id": 1, "cpi": 2.0, "cached": true}"#).unwrap();
        assert!(!legacy.approx && legacy.reason.is_none());
    }
}
