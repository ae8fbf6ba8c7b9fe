//! Wire types for the line-delimited JSON prediction protocol.
//!
//! One request per line; one response line per request (arrays map to array
//! responses). The same types back the in-process [`Client`](crate::Client),
//! so a test exercising the client exercises the protocol.
//!
//! ```json
//! {"id": 1, "workload": "S5", "arch": {"base": "n1", "rob": 256}}
//! {"id": 1, "cpi": 1.87, "cached": true, "micros": 112}
//! ```

use concorde_core::keystr::KeyStr;
use concorde_cyclesim::MicroArch;
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
// Wire fast path: single-pass request decode + allocation-free reply encode
// ---------------------------------------------------------------------------
//
// The slow path parses every request line twice (`serde_json::from_str` →
// `Value` tree → `from_value::<PredictRequest>`), heap-allocating the whole
// intermediate tree per line. The decoder below walks the line once,
// materializing `PredictRequest`s directly (inline `KeyStr` workloads — no
// heap for typical requests). It is *conservative*: anything it is not
// certain it decodes exactly like the `Value` path — control objects
// (`{"cmd":…}`), malformed JSON, type mismatches, pathological inputs —
// returns a [`FastMiss`] and the caller re-parses on the slow path, which
// stays the single source of truth for error messages and `cmd` handling.
// Observable behavior is therefore identical by construction; the proptest
// suite additionally pins value-equivalence for everything the fast path
// does accept.

/// Shape of a successfully fast-decoded request line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodedShape {
    /// The line was a single request object (one request appended).
    Single,
    /// The line was an array of requests (zero or more appended, in order).
    Batch,
}

/// Why the fast decoder declined a line (caller falls back to the `Value`
/// path, which owns error messages and control commands).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastMiss {
    /// A top-level object carrying a `"cmd"` key — the control path.
    Cmd,
    /// Malformed JSON, a type mismatch, or a shape the fast path does not
    /// commit to decoding identically.
    Fallback,
}

/// Decodes one request line in a single pass.
///
/// On success appends the decoded request(s) to `out` (cleared first) and
/// returns the line shape. On [`FastMiss`] the caller must re-parse via the
/// `Value` path; `out` is left cleared.
///
/// # Errors
///
/// [`FastMiss::Cmd`] for control objects, [`FastMiss::Fallback`] for
/// anything the fast path declines (see the module comment).
pub fn decode_request_line(
    line: &str,
    out: &mut Vec<PredictRequest>,
) -> Result<DecodedShape, FastMiss> {
    out.clear();
    let mut p = FastParser {
        b: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let shape = match p.peek() {
        Some(b'{') => {
            let req = p.request_obj(true)?;
            out.push(req);
            DecodedShape::Single
        }
        Some(b'[') => {
            p.pos += 1;
            p.skip_ws();
            if p.peek() == Some(b']') {
                p.pos += 1;
            } else {
                loop {
                    p.skip_ws();
                    if p.peek() != Some(b'{') {
                        out.clear();
                        return Err(FastMiss::Fallback);
                    }
                    let req = p.request_obj(false)?;
                    out.push(req);
                    p.skip_ws();
                    match p.peek() {
                        Some(b',') => p.pos += 1,
                        Some(b']') => {
                            p.pos += 1;
                            break;
                        }
                        _ => {
                            out.clear();
                            return Err(FastMiss::Fallback);
                        }
                    }
                }
            }
            DecodedShape::Batch
        }
        _ => return Err(FastMiss::Fallback),
    };
    p.skip_ws();
    if p.pos != p.b.len() {
        out.clear();
        return Err(FastMiss::Fallback);
    }
    Ok(shape)
}

/// Number classification mirroring the `serde_json` shim's parser: integer
/// text becomes `U64`/`I64` (overflow falls back to `F64`), anything with a
/// `.` or exponent is `F64`.
#[derive(Clone, Copy)]
enum Num {
    U(u64),
    I(i64),
    F(f64),
}

impl Num {
    /// The shim's `u64::from_content` acceptance: `U64`, non-negative `I64`,
    /// and non-negative integral `F64` (saturating cast).
    fn as_u64(self) -> Result<u64, FastMiss> {
        match self {
            Num::U(v) => Ok(v),
            Num::I(v) if v >= 0 => Ok(v as u64),
            Num::F(v) if v >= 0.0 && v.fract() == 0.0 => Ok(v as u64),
            _ => Err(FastMiss::Fallback),
        }
    }

    fn as_u32(self) -> Result<u32, FastMiss> {
        u32::try_from(self.as_u64()?).map_err(|_| FastMiss::Fallback)
    }
}

/// Fixed-capacity unescape buffer for keys and short string values. Longer
/// strings set `overflow` (the parse stays valid; the caller falls back or
/// treats the key as unknown).
struct SmallStr {
    buf: [u8; SMALL_STR_CAP],
    len: usize,
    overflow: bool,
}

const SMALL_STR_CAP: usize = 64;

impl SmallStr {
    fn new() -> Self {
        SmallStr {
            buf: [0; SMALL_STR_CAP],
            len: 0,
            overflow: false,
        }
    }

    fn push_bytes(&mut self, s: &[u8]) {
        if self.len + s.len() <= SMALL_STR_CAP {
            self.buf[self.len..self.len + s.len()].copy_from_slice(s);
            self.len += s.len();
        } else {
            self.overflow = true;
        }
    }

    fn push_char(&mut self, c: char) {
        let mut tmp = [0u8; 4];
        self.push_bytes(c.encode_utf8(&mut tmp).as_bytes());
    }

    /// The unescaped contents, or `None` if they did not fit.
    fn as_str(&self) -> Option<&str> {
        if self.overflow {
            return None;
        }
        // Only built from validated pushes of `&str` slices / `char`s.
        Some(unsafe { std::str::from_utf8_unchecked(&self.buf[..self.len]) })
    }
}

struct FastParser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> FastParser<'a> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), FastMiss> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(FastMiss::Fallback)
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), FastMiss> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(FastMiss::Fallback)
        }
    }

    /// Parses a JSON string (validating escapes exactly like the shim
    /// parser) into `dst`.
    fn string_into(&mut self, dst: &mut SmallStr) -> Result<(), FastMiss> {
        self.eat(b'"')?;
        loop {
            match self.peek() {
                None => return Err(FastMiss::Fallback),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or(FastMiss::Fallback)?;
                    self.pos += 1;
                    match esc {
                        b'"' => dst.push_bytes(b"\""),
                        b'\\' => dst.push_bytes(b"\\"),
                        b'/' => dst.push_bytes(b"/"),
                        b'b' => dst.push_bytes(b"\x08"),
                        b'f' => dst.push_bytes(b"\x0c"),
                        b'n' => dst.push_bytes(b"\n"),
                        b'r' => dst.push_bytes(b"\r"),
                        b't' => dst.push_bytes(b"\t"),
                        b'u' => {
                            let hi = self.hex4()?;
                            // Mirror the shim's surrogate-pair combination
                            // (including its wrapping low-half arithmetic).
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u')?;
                                    let lo = self.hex4()?;
                                    0x10000 + ((hi - 0xD800) << 10) + lo.wrapping_sub(0xDC00)
                                } else {
                                    return Err(FastMiss::Fallback);
                                }
                            } else {
                                hi
                            };
                            dst.push_char(char::from_u32(cp).ok_or(FastMiss::Fallback)?);
                        }
                        _ => return Err(FastMiss::Fallback),
                    }
                }
                Some(_) => {
                    // The input is `&str`, so a raw span up to the next
                    // quote/backslash is valid UTF-8; copy it wholesale.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"') | Some(b'\\')) {
                        self.pos += 1;
                    }
                    dst.push_bytes(&self.b[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, FastMiss> {
        if self.pos + 4 > self.b.len() {
            return Err(FastMiss::Fallback);
        }
        let s =
            std::str::from_utf8(&self.b[self.pos..self.pos + 4]).map_err(|_| FastMiss::Fallback)?;
        let v = u32::from_str_radix(s, 16).map_err(|_| FastMiss::Fallback)?;
        self.pos += 4;
        Ok(v)
    }

    /// Consumes a number with exactly the shim parser's classification.
    fn number(&mut self) -> Result<Num, FastMiss> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.pos]).map_err(|_| FastMiss::Fallback)?;
        if is_float {
            text.parse::<f64>()
                .map(Num::F)
                .map_err(|_| FastMiss::Fallback)
        } else if text.starts_with('-') {
            match text.parse::<i64>() {
                Ok(v) => Ok(Num::I(v)),
                Err(_) => text
                    .parse::<f64>()
                    .map(Num::F)
                    .map_err(|_| FastMiss::Fallback),
            }
        } else {
            match text.parse::<u64>() {
                Ok(v) => Ok(Num::U(v)),
                Err(_) => text
                    .parse::<f64>()
                    .map(Num::F)
                    .map_err(|_| FastMiss::Fallback),
            }
        }
    }

    /// Validates and discards any JSON value (unknown-key payloads).
    fn skip_value(&mut self) -> Result<(), FastMiss> {
        match self.peek() {
            Some(b'n') => self.literal("null"),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'"') => {
                let mut sink = SmallStr::new();
                self.string_into(&mut sink)
            }
            Some(b'[') => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    self.skip_value()?;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        _ => return Err(FastMiss::Fallback),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    let mut sink = SmallStr::new();
                    self.string_into(&mut sink)?;
                    self.skip_ws();
                    self.eat(b':')?;
                    self.skip_ws();
                    self.skip_value()?;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        _ => return Err(FastMiss::Fallback),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number().map(|_| ()),
            _ => Err(FastMiss::Fallback),
        }
    }

    fn number_value(&mut self) -> Result<Num, FastMiss> {
        match self.peek() {
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            // Wrong type (string/bool/null/object where a number belongs):
            // the slow path owns the error message.
            _ => Err(FastMiss::Fallback),
        }
    }

    /// `null` → `None`, number → `Some(u64)` (shim `Option<u64>` semantics).
    fn opt_u64_value(&mut self) -> Result<Option<u64>, FastMiss> {
        if self.peek() == Some(b'n') {
            self.literal("null")?;
            return Ok(None);
        }
        Ok(Some(self.number_value()?.as_u64()?))
    }

    fn opt_u32_value(&mut self) -> Result<Option<u32>, FastMiss> {
        if self.peek() == Some(b'n') {
            self.literal("null")?;
            return Ok(None);
        }
        Ok(Some(self.number_value()?.as_u32()?))
    }

    /// A short string value (workload ids, base names, class labels).
    fn small_string_value(&mut self) -> Result<SmallStr, FastMiss> {
        if self.peek() != Some(b'"') {
            return Err(FastMiss::Fallback);
        }
        let mut s = SmallStr::new();
        self.string_into(&mut s)?;
        if s.overflow {
            // Valid JSON, just longer than the fast path commits to; the
            // slow path decodes it identically.
            return Err(FastMiss::Fallback);
        }
        Ok(s)
    }

    fn arch_obj(&mut self) -> Result<ArchSpec, FastMiss> {
        self.eat(b'{')?;
        let mut spec = ArchSpec::default();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(spec);
        }
        let mut key = SmallStr::new();
        loop {
            self.skip_ws();
            key.len = 0;
            key.overflow = false;
            self.string_into(&mut key)?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            // Duplicate keys overwrite (the `Value` path's last-wins rule).
            match key.as_str() {
                Some("base") => {
                    if self.peek() == Some(b'n') {
                        self.literal("null")?;
                        spec.base = None;
                    } else {
                        spec.base = Some(KeyStr::new(
                            self.small_string_value()?
                                .as_str()
                                .ok_or(FastMiss::Fallback)?,
                        ));
                    }
                }
                Some("rob") => spec.rob = self.opt_u32_value()?,
                Some("lq") => spec.lq = self.opt_u32_value()?,
                Some("sq") => spec.sq = self.opt_u32_value()?,
                Some("alu") => spec.alu = self.opt_u32_value()?,
                Some("fp") => spec.fp = self.opt_u32_value()?,
                Some("ls") => spec.ls = self.opt_u32_value()?,
                Some("fetch") => spec.fetch = self.opt_u32_value()?,
                Some("decode") => spec.decode = self.opt_u32_value()?,
                Some("rename") => spec.rename = self.opt_u32_value()?,
                Some("commit") => spec.commit = self.opt_u32_value()?,
                Some("l1d") => spec.l1d = self.opt_u32_value()?,
                Some("l1i") => spec.l1i = self.opt_u32_value()?,
                Some("l2") => spec.l2 = self.opt_u32_value()?,
                Some("prefetch") => spec.prefetch = self.opt_u32_value()?,
                _ => self.skip_value()?,
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(spec);
                }
                _ => return Err(FastMiss::Fallback),
            }
        }
    }

    fn request_obj(&mut self, top_level: bool) -> Result<PredictRequest, FastMiss> {
        self.eat(b'{')?;
        let mut req = PredictRequest::default();
        let mut have_workload = false;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            // `{}` is a missing-`workload` error; slow path words it.
            return Err(FastMiss::Fallback);
        }
        let mut key = SmallStr::new();
        loop {
            self.skip_ws();
            key.len = 0;
            key.overflow = false;
            self.string_into(&mut key)?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            match key.as_str() {
                // A top-level object with a `cmd` key is a control command,
                // whatever else it carries.
                Some("cmd") if top_level => return Err(FastMiss::Cmd),
                Some("id") => req.id = self.number_value()?.as_u64()?,
                Some("workload") => {
                    req.workload = KeyStr::new(
                        self.small_string_value()?
                            .as_str()
                            .ok_or(FastMiss::Fallback)?,
                    );
                    have_workload = true;
                }
                Some("trace") => req.trace = self.number_value()?.as_u32()?,
                Some("start") => req.start = self.number_value()?.as_u64()?,
                Some("len") => req.len = self.number_value()?.as_u32()?,
                Some("arch") => {
                    if self.peek() != Some(b'{') {
                        return Err(FastMiss::Fallback);
                    }
                    req.arch = self.arch_obj()?;
                }
                Some("deadline_ms") => req.deadline_ms = self.opt_u64_value()?,
                Some("class") => {
                    let s = self.small_string_value()?;
                    req.class = RequestClass::parse(s.as_str().ok_or(FastMiss::Fallback)?)
                        .ok_or(FastMiss::Fallback)?;
                }
                Some("schema_version") => req.schema_version = self.opt_u32_value()?,
                _ => self.skip_value()?,
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(FastMiss::Fallback),
            }
        }
        if !have_workload {
            return Err(FastMiss::Fallback);
        }
        Ok(req)
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
