//! Wire protocol for `ease serve` — transport-agnostic framing and the
//! versioned binary request/response codec.
//!
//! Binary peers speak one frame format,
//! `[0xEA 0x5F][u64 LE request-id][u32 LE len][payload]`, *pipelined*: many
//! requests per connection, each tagged with a client-chosen `u64` id.
//! Responses come back as frames carrying the id of the request they
//! answer and may arrive **out of order**: the server executes a
//! connection's requests concurrently and writes each answer as it
//! completes. Clients match responses to requests by id, never by arrival
//! order; a one-request exchange is a session that sends one frame.
//!
//! Payloads are versioned binary [`Request`] / [`Response`] values encoded
//! with the same `Writer`/`Reader` codec the model persistence uses, capped
//! at [`MAX_FRAME_BYTES`].
//!
//! [`Request`] and [`Response`] are *pure data*; every wire spelling is a
//! codec at the edge of the type — `encode_binary`/`decode_binary` for the
//! framed format above and `to_json`/`from_json` for the HTTP facade
//! (`serve/http.rs`). One definition, two codecs: parity between the
//! binary and JSON surfaces is structural, not coincidental.

use super::json::{self, Value};
use crate::error::{EaseError, ServeError};
use crate::selector::OptGoal;
use ease_graph::PropertyTier;
use ease_ml::persist::{Reader, Writer};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Version byte leading every payload; bumped on any payload-format change.
/// v2: [`ServeStats`] carries `memory_budget_remaining` +
/// `spilled_csr_builds` (PR 9, budget-aware fleet admission) and
/// [`Response::Overloaded`] exists.
pub const PROTOCOL_VERSION: u8 = 2;

/// Two magic bytes opening every binary frame — rejects non-protocol peers
/// before a length is trusted, and tells the server's sniffer a binary
/// session from an HTTP one on the first two bytes of a connection.
pub const FRAME_MAGIC_V2: [u8; 2] = [0xEA, 0x5F];

/// Upper bound on a frame payload. Requests carry paths and responses carry
/// rendered tables — a megabyte is generous, and the cap keeps a garbage
/// length prefix from asking a worker to allocate gigabytes.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// How many candidate rows a recommendation renders by default (the CLI's
/// `--top` default).
pub const DEFAULT_TOP: usize = 5;

// ---------------------------------------------------------------------
// Requests and responses
// ---------------------------------------------------------------------

/// One client request. Graph inputs travel *by path* (daemon and client
/// share a filesystem by construction — the transports are a unix socket
/// and a loopback-or-LAN TCP listener); the server opens text or mmap'd
/// `.bel` inputs through the same format-dispatched
/// [`open_path`](ease_graph::open_path) seam as the one-shot CLI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Recommend a partitioner for the graph at `graph`. `workload` is the
    /// CLI workload name (`pr`, `cc`, …), validated server-side; `k` of
    /// `None` means the service's default partition count. `cwd` is the
    /// *client's* working directory: the server resolves a relative
    /// `graph` against it (daemon and client share a filesystem but not a
    /// cwd), while the answer always displays `graph` as the client wrote
    /// it — keeping daemon output bit-identical to the one-shot CLI.
    Recommend {
        graph: String,
        workload: String,
        k: Option<usize>,
        goal: OptGoal,
        top: usize,
        cwd: Option<String>,
    },
    /// Extract and render the feature vector of the graph at `graph`
    /// (`cwd` as in [`Request::Recommend`]).
    Features { graph: String, tier: PropertyTier, cwd: Option<String> },
    /// Snapshot the warm property cache and serving counters.
    CacheStats,
    /// Stop accepting connections, drain in-flight work, remove the socket.
    Shutdown,
}

/// Observability snapshot answered to [`Request::CacheStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub len: usize,
    pub capacity: usize,
    /// Requests answered so far (all kinds, including this one).
    pub requests_served: u64,
    /// Headroom left on the daemon's shared `--memory-budget` before the
    /// next CSR charge is refused into the spill path; `None` when the
    /// daemon runs without a budget, `u64::MAX` for an unlimited one. A
    /// fleet router steers big-graph queries by this field.
    pub memory_budget_remaining: Option<u64>,
    /// Lifetime count of CSR builds the budget refused into spill files
    /// (always 0 without a budget).
    pub spilled_csr_builds: u64,
}

impl ServeStats {
    /// The `ease client cache-stats` rendering.
    pub fn render(&self) -> String {
        let budget = match self.memory_budget_remaining {
            None => "none".to_string(),
            Some(u64::MAX) => "unlimited".to_string(),
            Some(remaining) => format!("{remaining} bytes remaining"),
        };
        format!(
            "property cache: hits={} misses={} evictions={} len={}/{}\n\
             memory budget: {budget} (spilled CSR builds: {})\n\
             requests served: {}\n",
            self.hits,
            self.misses,
            self.evictions,
            self.len,
            self.capacity,
            self.spilled_csr_builds,
            self.requests_served
        )
    }

    /// Fold another backend's snapshot into this one — the fleet view a
    /// router renders: counters sum, capacities sum, and the budget fields
    /// aggregate so `memory_budget_remaining` is the fleet-wide headroom
    /// (`None` only when *no* backend has a budget; an unlimited backend
    /// saturates the sum at `u64::MAX`).
    pub fn absorb(&mut self, other: &ServeStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.len += other.len;
        self.capacity += other.capacity;
        self.requests_served += other.requests_served;
        self.spilled_csr_builds += other.spilled_csr_builds;
        self.memory_budget_remaining =
            match (self.memory_budget_remaining, other.memory_budget_remaining) {
                (None, r) => r,
                (l, None) => l,
                (Some(l), Some(r)) => Some(l.saturating_add(r)),
            };
    }
}

/// One server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Liveness answer carrying the server's protocol version.
    Pong { version: u8 },
    /// Rendered answer text, printed verbatim by clients — bit-identical
    /// to the one-shot CLI output for the same query.
    Answer(String),
    /// Cache and serving counters.
    CacheStats(ServeStats),
    /// The request failed; the message is the rendered [`EaseError`].
    Error(String),
    /// Shutdown acknowledged; the daemon drains and exits.
    ShuttingDown,
    /// A fleet router shed this query: its estimated analysis footprint
    /// (`needed` bytes) exceeds every healthy backend's remaining memory
    /// budget (`headroom` is the best available). Typed — clients map it
    /// to [`ServeError::Overloaded`] and can retry elsewhere/later —
    /// instead of the alternative, which is forcing a backend to spill
    /// or die.
    Overloaded { needed: u64, headroom: u64 },
}

// ---------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------

pub(crate) fn proto_err(msg: impl Into<String>) -> EaseError {
    ServeError::Protocol(msg.into()).into()
}

fn goal_tag(goal: OptGoal) -> u8 {
    match goal {
        OptGoal::EndToEnd => 0,
        OptGoal::ProcessingOnly => 1,
    }
}

fn goal_from_tag(tag: u8) -> Result<OptGoal, EaseError> {
    match tag {
        0 => Ok(OptGoal::EndToEnd),
        1 => Ok(OptGoal::ProcessingOnly),
        other => Err(proto_err(format!("unknown goal tag {other}"))),
    }
}

fn tier_tag(tier: PropertyTier) -> u8 {
    match tier {
        PropertyTier::Simple => 0,
        PropertyTier::Basic => 1,
        PropertyTier::Advanced => 2,
    }
}

fn tier_from_tag(tag: u8) -> Result<PropertyTier, EaseError> {
    match tag {
        0 => Ok(PropertyTier::Simple),
        1 => Ok(PropertyTier::Basic),
        2 => Ok(PropertyTier::Advanced),
        other => Err(proto_err(format!("unknown tier tag {other}"))),
    }
}

fn put_opt_str(w: &mut Writer, v: &Option<String>) {
    match v {
        Some(s) => {
            w.put_u8(1);
            w.put_str(s);
        }
        None => w.put_u8(0),
    }
}

fn take_opt_str(r: &mut Reader) -> Result<Option<String>, ease_ml::PersistError> {
    match r.take_u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.take_str()?)),
        other => Err(ease_ml::PersistError::Corrupt(format!("unknown option tag {other}"))),
    }
}

/// Resolve a request's graph path: relative paths are joined to the
/// *client's* working directory when it travelled with the request —
/// the daemon's own cwd is an accident of where it was launched and must
/// never influence which file a client's query answers for.
pub fn resolve_graph_path(graph: &str, cwd: Option<&str>) -> PathBuf {
    let path = Path::new(graph);
    match cwd {
        Some(cwd) if path.is_relative() => Path::new(cwd).join(path),
        _ => path.to_path_buf(),
    }
}

impl Request {
    /// Serialize to the versioned binary payload (framing is separate;
    /// see [`write_frame_v2`]).
    pub fn encode_binary(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(PROTOCOL_VERSION);
        match self {
            Request::Ping => w.put_u8(0),
            Request::Recommend { graph, workload, k, goal, top, cwd } => {
                w.put_u8(1);
                w.put_str(graph);
                w.put_str(workload);
                w.put_opt_usize(*k);
                w.put_u8(goal_tag(*goal));
                w.put_usize(*top);
                put_opt_str(&mut w, cwd);
            }
            Request::Features { graph, tier, cwd } => {
                w.put_u8(2);
                w.put_str(graph);
                w.put_u8(tier_tag(*tier));
                put_opt_str(&mut w, cwd);
            }
            Request::CacheStats => w.put_u8(3),
            Request::Shutdown => w.put_u8(4),
        }
        w.into_bytes()
    }

    /// Deserialize a binary request payload. Every malformation is a typed
    /// [`ServeError::Protocol`] — never a panic in a server worker.
    pub fn decode_binary(bytes: &[u8]) -> Result<Request, EaseError> {
        let mut r = Reader::new(bytes);
        let p = |e: ease_ml::PersistError| proto_err(format!("truncated request: {e}"));
        let version = r.take_u8().map_err(p)?;
        if version != PROTOCOL_VERSION {
            return Err(proto_err(format!(
                "protocol version skew: peer speaks v{version}, this build v{PROTOCOL_VERSION}"
            )));
        }
        let req = match r.take_u8().map_err(p)? {
            0 => Request::Ping,
            1 => Request::Recommend {
                graph: r.take_str().map_err(p)?,
                workload: r.take_str().map_err(p)?,
                k: r.take_opt_usize().map_err(p)?,
                goal: goal_from_tag(r.take_u8().map_err(p)?)?,
                top: r.take_usize().map_err(p)?,
                cwd: take_opt_str(&mut r).map_err(p)?,
            },
            2 => Request::Features {
                graph: r.take_str().map_err(p)?,
                tier: tier_from_tag(r.take_u8().map_err(p)?)?,
                cwd: take_opt_str(&mut r).map_err(p)?,
            },
            3 => Request::CacheStats,
            4 => Request::Shutdown,
            other => return Err(proto_err(format!("unknown request tag {other}"))),
        };
        if r.remaining() != 0 {
            return Err(proto_err(format!("{} trailing bytes after request", r.remaining())));
        }
        Ok(req)
    }

    /// Serialize to the JSON envelope the HTTP facade speaks: a
    /// `"type"`-discriminated object, e.g. `{"type":"ping"}`.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    pub(crate) fn to_json_value(&self) -> Value {
        match self {
            Request::Ping => Value::Obj(vec![("type".into(), Value::str("ping"))]),
            Request::Recommend { graph, workload, k, goal, top, cwd } => Value::Obj(vec![
                ("type".into(), Value::str("recommend")),
                ("graph".into(), Value::str(graph.clone())),
                ("workload".into(), Value::str(workload.clone())),
                ("k".into(), k.map_or(Value::Null, |k| Value::UInt(k as u64))),
                ("goal".into(), Value::str(goal_name(*goal))),
                ("top".into(), Value::UInt(*top as u64)),
                ("cwd".into(), cwd.clone().map_or(Value::Null, Value::Str)),
            ]),
            Request::Features { graph, tier, cwd } => Value::Obj(vec![
                ("type".into(), Value::str("features")),
                ("graph".into(), Value::str(graph.clone())),
                ("tier".into(), Value::str(tier_name(*tier))),
                ("cwd".into(), cwd.clone().map_or(Value::Null, Value::Str)),
            ]),
            Request::CacheStats => Value::Obj(vec![("type".into(), Value::str("cache-stats"))]),
            Request::Shutdown => Value::Obj(vec![("type".into(), Value::str("shutdown"))]),
        }
    }

    /// Deserialize the JSON envelope. Optional fields (`k`, `goal`, `top`,
    /// `cwd`, `tier`) may be omitted or `null` and take the same defaults
    /// the CLI flags take; malformations are typed
    /// [`ServeError::Protocol`] errors.
    pub fn from_json(src: &str) -> Result<Request, EaseError> {
        let v = json::parse(src).map_err(|e| proto_err(format!("bad JSON request: {e}")))?;
        let kind = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| proto_err("JSON request has no string `type` member"))?;
        match kind {
            "ping" => Ok(Request::Ping),
            "recommend" => Ok(Request::Recommend {
                graph: json_require_str(&v, "graph")?,
                workload: json_require_str(&v, "workload")?,
                k: json_opt_usize(&v, "k")?,
                goal: match json_opt_str(&v, "goal")? {
                    Some(name) => goal_from_name(&name)?,
                    None => OptGoal::EndToEnd,
                },
                top: json_opt_usize(&v, "top")?.unwrap_or(DEFAULT_TOP),
                cwd: json_opt_str(&v, "cwd")?,
            }),
            "features" => Ok(Request::Features {
                graph: json_require_str(&v, "graph")?,
                tier: match json_opt_str(&v, "tier")? {
                    Some(name) => tier_from_name(&name)?,
                    None => PropertyTier::Advanced,
                },
                cwd: json_opt_str(&v, "cwd")?,
            }),
            "cache-stats" => Ok(Request::CacheStats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(proto_err(format!("unknown JSON request type `{other}`"))),
        }
    }
}

impl Response {
    /// Serialize to the versioned binary payload.
    pub fn encode_binary(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(PROTOCOL_VERSION);
        match self {
            Response::Pong { version } => {
                w.put_u8(0);
                w.put_u8(*version);
            }
            Response::Answer(text) => {
                w.put_u8(1);
                w.put_str(text);
            }
            Response::CacheStats(s) => {
                w.put_u8(2);
                w.put_u64(s.hits);
                w.put_u64(s.misses);
                w.put_u64(s.evictions);
                w.put_usize(s.len);
                w.put_usize(s.capacity);
                w.put_u64(s.requests_served);
                // v2 payload bump: budget observability rides after the
                // original fields, which are unchanged
                match s.memory_budget_remaining {
                    Some(remaining) => {
                        w.put_u8(1);
                        w.put_u64(remaining);
                    }
                    None => w.put_u8(0),
                }
                w.put_u64(s.spilled_csr_builds);
            }
            Response::Error(msg) => {
                w.put_u8(3);
                w.put_str(msg);
            }
            Response::ShuttingDown => w.put_u8(4),
            Response::Overloaded { needed, headroom } => {
                w.put_u8(5);
                w.put_u64(*needed);
                w.put_u64(*headroom);
            }
        }
        w.into_bytes()
    }

    /// Deserialize a binary response payload.
    pub fn decode_binary(bytes: &[u8]) -> Result<Response, EaseError> {
        let mut r = Reader::new(bytes);
        let p = |e: ease_ml::PersistError| proto_err(format!("truncated response: {e}"));
        let version = r.take_u8().map_err(p)?;
        if version != PROTOCOL_VERSION {
            return Err(proto_err(format!(
                "protocol version skew: peer speaks v{version}, this build v{PROTOCOL_VERSION}"
            )));
        }
        let resp = match r.take_u8().map_err(p)? {
            0 => Response::Pong { version: r.take_u8().map_err(p)? },
            1 => Response::Answer(r.take_str().map_err(p)?),
            2 => Response::CacheStats(ServeStats {
                hits: r.take_u64().map_err(p)?,
                misses: r.take_u64().map_err(p)?,
                evictions: r.take_u64().map_err(p)?,
                len: r.take_usize().map_err(p)?,
                capacity: r.take_usize().map_err(p)?,
                requests_served: r.take_u64().map_err(p)?,
                memory_budget_remaining: match r.take_u8().map_err(p)? {
                    0 => None,
                    1 => Some(r.take_u64().map_err(p)?),
                    other => return Err(proto_err(format!("unknown budget tag {other}"))),
                },
                spilled_csr_builds: r.take_u64().map_err(p)?,
            }),
            3 => Response::Error(r.take_str().map_err(p)?),
            4 => Response::ShuttingDown,
            5 => Response::Overloaded {
                needed: r.take_u64().map_err(p)?,
                headroom: r.take_u64().map_err(p)?,
            },
            other => return Err(proto_err(format!("unknown response tag {other}"))),
        };
        if r.remaining() != 0 {
            return Err(proto_err(format!("{} trailing bytes after response", r.remaining())));
        }
        Ok(resp)
    }

    /// Serialize to the JSON envelope, e.g. `{"type":"answer","answer":…}`.
    /// This is the body every HTTP response carries, so non-Rust clients
    /// see exactly the data binary clients decode — including the verbatim
    /// answer text, which stays bit-identical to the one-shot CLI.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    pub(crate) fn to_json_value(&self) -> Value {
        match self {
            Response::Pong { version } => Value::Obj(vec![
                ("type".into(), Value::str("pong")),
                ("version".into(), Value::UInt(u64::from(*version))),
            ]),
            Response::Answer(text) => Value::Obj(vec![
                ("type".into(), Value::str("answer")),
                ("answer".into(), Value::str(text.clone())),
            ]),
            Response::CacheStats(s) => Value::Obj(vec![
                ("type".into(), Value::str("stats")),
                ("hits".into(), Value::UInt(s.hits)),
                ("misses".into(), Value::UInt(s.misses)),
                ("evictions".into(), Value::UInt(s.evictions)),
                ("len".into(), Value::UInt(s.len as u64)),
                ("capacity".into(), Value::UInt(s.capacity as u64)),
                ("requests_served".into(), Value::UInt(s.requests_served)),
                (
                    "memory_budget_remaining".into(),
                    s.memory_budget_remaining.map_or(Value::Null, Value::UInt),
                ),
                ("spilled_csr_builds".into(), Value::UInt(s.spilled_csr_builds)),
            ]),
            Response::Error(msg) => Value::Obj(vec![
                ("type".into(), Value::str("error")),
                ("error".into(), Value::str(msg.clone())),
            ]),
            Response::ShuttingDown => {
                Value::Obj(vec![("type".into(), Value::str("shutting-down"))])
            }
            Response::Overloaded { needed, headroom } => Value::Obj(vec![
                ("type".into(), Value::str("overloaded")),
                ("needed".into(), Value::UInt(*needed)),
                ("headroom".into(), Value::UInt(*headroom)),
            ]),
        }
    }

    /// Deserialize the JSON envelope (the HTTP client path).
    pub fn from_json(src: &str) -> Result<Response, EaseError> {
        let v = json::parse(src).map_err(|e| proto_err(format!("bad JSON response: {e}")))?;
        let kind = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| proto_err("JSON response has no string `type` member"))?;
        match kind {
            "pong" => {
                let version = json_require_u64(&v, "version")?;
                let version = u8::try_from(version)
                    .map_err(|_| proto_err(format!("version {version} does not fit u8")))?;
                Ok(Response::Pong { version })
            }
            "answer" => Ok(Response::Answer(json_require_str(&v, "answer")?)),
            "stats" => Ok(Response::CacheStats(ServeStats {
                hits: json_require_u64(&v, "hits")?,
                misses: json_require_u64(&v, "misses")?,
                evictions: json_require_u64(&v, "evictions")?,
                len: json_require_usize(&v, "len")?,
                capacity: json_require_usize(&v, "capacity")?,
                requests_served: json_require_u64(&v, "requests_served")?,
                memory_budget_remaining: json_opt_u64(&v, "memory_budget_remaining")?,
                spilled_csr_builds: json_require_u64(&v, "spilled_csr_builds")?,
            })),
            "error" => Ok(Response::Error(json_require_str(&v, "error")?)),
            "shutting-down" => Ok(Response::ShuttingDown),
            "overloaded" => Ok(Response::Overloaded {
                needed: json_require_u64(&v, "needed")?,
                headroom: json_require_u64(&v, "headroom")?,
            }),
            other => Err(proto_err(format!("unknown JSON response type `{other}`"))),
        }
    }
}

// -- JSON field plumbing (names ↔ enum values, required/optional members) --

/// The CLI spelling of a goal (`--goal` vocabulary), also the JSON one.
pub fn goal_name(goal: OptGoal) -> &'static str {
    match goal {
        OptGoal::EndToEnd => "e2e",
        OptGoal::ProcessingOnly => "processing",
    }
}

/// Parse the CLI/JSON goal vocabulary (`e2e`, `processing`, `proc`).
pub fn goal_from_name(name: &str) -> Result<OptGoal, EaseError> {
    match name {
        "e2e" => Ok(OptGoal::EndToEnd),
        "processing" | "proc" => Ok(OptGoal::ProcessingOnly),
        other => Err(proto_err(format!("unknown goal `{other}` (expected e2e|processing)"))),
    }
}

/// The CLI spelling of a property tier (`--tier` vocabulary).
pub fn tier_name(tier: PropertyTier) -> &'static str {
    match tier {
        PropertyTier::Simple => "simple",
        PropertyTier::Basic => "basic",
        PropertyTier::Advanced => "advanced",
    }
}

/// Parse the CLI/JSON tier vocabulary.
pub fn tier_from_name(name: &str) -> Result<PropertyTier, EaseError> {
    match name {
        "simple" => Ok(PropertyTier::Simple),
        "basic" => Ok(PropertyTier::Basic),
        "advanced" => Ok(PropertyTier::Advanced),
        other => Err(proto_err(format!("unknown tier `{other}` (expected simple|basic|advanced)"))),
    }
}

fn json_require_str(v: &Value, key: &str) -> Result<String, EaseError> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| proto_err(format!("missing or non-string `{key}` member")))
}

fn json_require_u64(v: &Value, key: &str) -> Result<u64, EaseError> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| proto_err(format!("missing or non-integer `{key}` member")))
}

fn json_require_usize(v: &Value, key: &str) -> Result<usize, EaseError> {
    let n = json_require_u64(v, key)?;
    usize::try_from(n).map_err(|_| proto_err(format!("`{key}` member {n} does not fit usize")))
}

/// Missing or `null` members read as `None`; a present member must be a
/// string.
fn json_opt_str(v: &Value, key: &str) -> Result<Option<String>, EaseError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(proto_err(format!("`{key}` member must be a string or null"))),
    }
}

fn json_opt_u64(v: &Value, key: &str) -> Result<Option<u64>, EaseError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::UInt(n)) => Ok(Some(*n)),
        Some(_) => Err(proto_err(format!("`{key}` member must be an unsigned integer or null"))),
    }
}

fn json_opt_usize(v: &Value, key: &str) -> Result<Option<usize>, EaseError> {
    match json_opt_u64(v, key)? {
        None => Ok(None),
        Some(n) => usize::try_from(n)
            .map(Some)
            .map_err(|_| proto_err(format!("`{key}` member {n} does not fit usize"))),
    }
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Write one `[magic][u64 LE id][u32 LE len][payload]` frame.
pub fn write_frame_v2(w: &mut impl Write, id: u64, payload: &[u8]) -> Result<(), EaseError> {
    check_payload_len(payload)?;
    let mut head = [0u8; 14];
    head[..2].copy_from_slice(&FRAME_MAGIC_V2); // lint: panic-ok(const ranges of a fixed 14-byte header)
    head[2..10].copy_from_slice(&id.to_le_bytes()); // lint: panic-ok(const ranges of a fixed 14-byte header)
    head[10..14].copy_from_slice(&(payload.len() as u32).to_le_bytes()); // lint: panic-ok(const ranges of a fixed 14-byte header)
    w.write_all(&head)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

fn check_payload_len(payload: &[u8]) -> Result<(), EaseError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(proto_err(format!(
            "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
            payload.len()
        )));
    }
    Ok(())
}

/// Read one frame, validating magic and the length cap; returns the
/// request id alongside the payload. A peer that closes before a complete
/// frame is a typed [`ServeError::Disconnected`].
pub fn read_frame_v2(r: &mut impl Read) -> Result<(u64, Vec<u8>), EaseError> {
    let mut magic = [0u8; 2];
    read_exact_framed(r, &mut magic)?;
    if magic != FRAME_MAGIC_V2 {
        let ([g0, g1], [e0, e1]) = (magic, FRAME_MAGIC_V2);
        return Err(proto_err(format!(
            "bad frame magic {g0:02x}{g1:02x} (expected {e0:02x}{e1:02x})"
        )));
    }
    read_frame_v2_after_magic(r)
}

/// Read the `[u64 LE id][u32 LE len][payload]` remainder of a frame whose
/// magic has already been consumed (the server sniffs the magic to dispatch
/// between the binary and HTTP session loops).
pub fn read_frame_v2_after_magic(r: &mut impl Read) -> Result<(u64, Vec<u8>), EaseError> {
    let mut head = [0u8; 12];
    read_exact_framed(r, &mut head)?;
    // lint: panic-ok(const split of a fixed 12-byte header; try_into sees exactly 8 and 4 bytes)
    let id = u64::from_le_bytes(head[..8].try_into().expect("8-byte slice"));
    // lint: panic-ok(const split of a fixed 12-byte header; try_into sees exactly 8 and 4 bytes)
    let len = u32::from_le_bytes(head[8..12].try_into().expect("4-byte slice")) as usize;
    Ok((id, read_capped_payload(r, len)?))
}

fn read_capped_payload(r: &mut impl Read, len: usize) -> Result<Vec<u8>, EaseError> {
    if len > MAX_FRAME_BYTES {
        return Err(proto_err(format!(
            "declared frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    let mut payload = vec![0u8; len];
    read_exact_framed(r, &mut payload)?;
    Ok(payload)
}

fn read_exact_framed(r: &mut impl Read, buf: &mut [u8]) -> Result<(), EaseError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ServeError::Disconnected.into()
        } else {
            EaseError::Io(e)
        }
    })
}

/// Unwrap an [`Response::Answer`], mapping a server-side
/// [`Response::Error`] to the typed [`ServeError::Remote`] (clients print
/// it exactly as the one-shot CLI prints the same failure).
pub fn expect_answer(response: Response) -> Result<String, EaseError> {
    match response {
        Response::Answer(text) => Ok(text),
        Response::Error(msg) => Err(ServeError::Remote(msg).into()),
        Response::Overloaded { needed, headroom } => {
            Err(ServeError::Overloaded { needed, headroom }.into())
        }
        other => Err(proto_err(format!("expected an answer, got {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let bytes = req.encode_binary();
        assert_eq!(Request::decode_binary(&bytes).unwrap(), req);
        // the JSON codec covers the same type, so parity is structural:
        // every variant the binary codec round-trips, JSON must too
        assert_eq!(Request::from_json(&req.to_json()).unwrap(), req);
    }

    fn round_trip_response(resp: Response) {
        let bytes = resp.encode_binary();
        assert_eq!(Response::decode_binary(&bytes).unwrap(), resp);
        assert_eq!(Response::from_json(&resp.to_json()).unwrap(), resp);
    }

    #[test]
    fn request_codec_round_trips_every_variant() {
        round_trip_request(Request::Ping);
        round_trip_request(Request::Recommend {
            graph: "/tmp/graph.bel".into(),
            workload: "pr".into(),
            k: Some(8),
            goal: OptGoal::ProcessingOnly,
            top: 11,
            cwd: None,
        });
        round_trip_request(Request::Recommend {
            graph: "rel/path with spaces.txt".into(),
            workload: "cc".into(),
            k: None,
            goal: OptGoal::EndToEnd,
            top: DEFAULT_TOP,
            cwd: Some("/home/someone".into()),
        });
        round_trip_request(Request::Features {
            graph: "g.txt".into(),
            tier: PropertyTier::Basic,
            cwd: Some("/srv".into()),
        });
        round_trip_request(Request::CacheStats);
        round_trip_request(Request::Shutdown);
    }

    #[test]
    fn graph_paths_resolve_against_the_client_cwd() {
        // relative path + client cwd: the daemon must answer for the
        // client's file, wherever the daemon itself was started
        assert_eq!(resolve_graph_path("data.txt", Some("/home/u")), Path::new("/home/u/data.txt"));
        assert_eq!(resolve_graph_path("a/b.bel", Some("/srv")), Path::new("/srv/a/b.bel"));
        // absolute paths ignore the cwd; a missing cwd resolves as-is
        assert_eq!(resolve_graph_path("/abs/g.txt", Some("/srv")), Path::new("/abs/g.txt"));
        assert_eq!(resolve_graph_path("rel.txt", None), Path::new("rel.txt"));
    }

    #[test]
    fn response_codec_round_trips_every_variant() {
        round_trip_response(Response::Pong { version: PROTOCOL_VERSION });
        round_trip_response(Response::Answer("two\nlines\n".into()));
        round_trip_response(Response::CacheStats(ServeStats {
            hits: 10,
            misses: 3,
            evictions: 1,
            len: 2,
            capacity: 64,
            requests_served: 14,
            memory_budget_remaining: None,
            spilled_csr_builds: 0,
        }));
        round_trip_response(Response::CacheStats(ServeStats {
            hits: 0,
            misses: 0,
            evictions: 0,
            len: 0,
            capacity: 0,
            requests_served: 1,
            memory_budget_remaining: Some(64 << 20),
            spilled_csr_builds: 7,
        }));
        round_trip_response(Response::Error("no model trained for workload `x`".into()));
        round_trip_response(Response::ShuttingDown);
        round_trip_response(Response::Overloaded { needed: 1 << 30, headroom: 4 << 20 });
    }

    #[test]
    fn malformed_payloads_are_typed_protocol_errors() {
        let is_protocol = |e: EaseError| {
            assert!(
                matches!(e, EaseError::Serve(ServeError::Protocol(_))),
                "expected a protocol error, got {e:?}"
            );
        };
        // empty, version skew, unknown tag, truncation, trailing bytes
        is_protocol(Request::decode_binary(&[]).unwrap_err());
        is_protocol(Request::decode_binary(&[PROTOCOL_VERSION + 1, 0]).unwrap_err());
        is_protocol(Request::decode_binary(&[PROTOCOL_VERSION, 99]).unwrap_err());
        let mut truncated = Request::Features {
            graph: "abcdef.txt".into(),
            tier: PropertyTier::Advanced,
            cwd: None,
        }
        .encode_binary();
        truncated.truncate(truncated.len() - 3);
        is_protocol(Request::decode_binary(&truncated).unwrap_err());
        let mut trailing = Request::Ping.encode_binary();
        trailing.push(0);
        is_protocol(Request::decode_binary(&trailing).unwrap_err());
        is_protocol(Response::decode_binary(&[PROTOCOL_VERSION, 77]).unwrap_err());
    }

    #[test]
    fn v2_frames_carry_request_ids_and_reject_garbage() {
        let payload = Request::Ping.encode_binary();
        for id in [0u64, 1, 42, u64::MAX] {
            let mut wire = Vec::new();
            write_frame_v2(&mut wire, id, &payload).unwrap();
            assert_eq!(&wire[..2], &FRAME_MAGIC_V2);
            let (back_id, back) = read_frame_v2(&mut wire.as_slice()).unwrap();
            assert_eq!(back_id, id);
            assert_eq!(back, payload);
        }
        // any other leading pair — the retired 0xEA5E magic included — is a
        // typed error, not a misparse of the id bytes as a length
        let mut v2 = Vec::new();
        write_frame_v2(&mut v2, 7, &payload).unwrap();
        for first in [0x5E, b'G'] {
            let mut bad = v2.clone();
            bad[1] = first;
            assert!(matches!(
                read_frame_v2(&mut bad.as_slice()).unwrap_err(),
                EaseError::Serve(ServeError::Protocol(_))
            ));
        }
        // oversized declared length refused before allocation
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&FRAME_MAGIC_V2);
        oversized.extend_from_slice(&9u64.to_le_bytes());
        oversized.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        assert!(matches!(
            read_frame_v2(&mut oversized.as_slice()).unwrap_err(),
            EaseError::Serve(ServeError::Protocol(_))
        ));
        // truncation mid-header is Disconnected
        assert!(matches!(
            read_frame_v2(&mut v2[..7].to_vec().as_slice()).unwrap_err(),
            EaseError::Serve(ServeError::Disconnected)
        ));
        // the writer refuses to emit an oversized frame
        let huge = vec![0u8; MAX_FRAME_BYTES + 1];
        assert!(write_frame_v2(&mut Vec::new(), 1, &huge).is_err());
    }

    #[test]
    fn json_requests_default_like_the_cli() {
        // omitted k/goal/top/cwd take the CLI defaults
        let req =
            Request::from_json(r#"{"type":"recommend","graph":"g.txt","workload":"pr"}"#).unwrap();
        assert_eq!(
            req,
            Request::Recommend {
                graph: "g.txt".into(),
                workload: "pr".into(),
                k: None,
                goal: OptGoal::EndToEnd,
                top: DEFAULT_TOP,
                cwd: None,
            }
        );
        let req = Request::from_json(r#"{"type":"features","graph":"g.bel"}"#).unwrap();
        assert_eq!(
            req,
            Request::Features { graph: "g.bel".into(), tier: PropertyTier::Advanced, cwd: None }
        );
    }

    #[test]
    fn malformed_json_payloads_are_typed_protocol_errors() {
        let is_protocol = |e: EaseError| {
            assert!(
                matches!(e, EaseError::Serve(ServeError::Protocol(_))),
                "expected a protocol error, got {e:?}"
            );
        };
        is_protocol(Request::from_json("").unwrap_err());
        is_protocol(Request::from_json("[]").unwrap_err());
        is_protocol(Request::from_json(r#"{"type":"warp"}"#).unwrap_err());
        is_protocol(Request::from_json(r#"{"type":"recommend"}"#).unwrap_err());
        is_protocol(
            Request::from_json(r#"{"type":"recommend","graph":"g","workload":"pr","k":-1}"#)
                .unwrap_err(),
        );
        is_protocol(
            Request::from_json(r#"{"type":"recommend","graph":"g","workload":"pr","goal":"x"}"#)
                .unwrap_err(),
        );
        is_protocol(Response::from_json(r#"{"type":"pong"}"#).unwrap_err());
        is_protocol(Response::from_json(r#"{"type":"stats","hits":1}"#).unwrap_err());
        is_protocol(Response::from_json("{not json").unwrap_err());
    }

    #[test]
    fn goal_and_tier_names_round_trip_the_cli_vocabulary() {
        for goal in [OptGoal::EndToEnd, OptGoal::ProcessingOnly] {
            assert_eq!(goal_from_name(goal_name(goal)).unwrap(), goal);
        }
        assert_eq!(goal_from_name("proc").unwrap(), OptGoal::ProcessingOnly);
        assert!(goal_from_name("fastest").is_err());
        for tier in [PropertyTier::Simple, PropertyTier::Basic, PropertyTier::Advanced] {
            assert_eq!(tier_from_name(tier_name(tier)).unwrap(), tier);
        }
        assert!(tier_from_name("ultra").is_err());
    }

    #[test]
    fn expect_answer_maps_remote_errors() {
        assert_eq!(expect_answer(Response::Answer("ok".into())).unwrap(), "ok");
        match expect_answer(Response::Error("boom".into())).unwrap_err() {
            EaseError::Serve(ServeError::Remote(msg)) => assert_eq!(msg, "boom"),
            other => panic!("expected Remote, got {other:?}"),
        }
        match expect_answer(Response::Overloaded { needed: 100, headroom: 7 }).unwrap_err() {
            EaseError::Serve(ServeError::Overloaded { needed, headroom }) => {
                assert_eq!((needed, headroom), (100, 7));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert!(expect_answer(Response::ShuttingDown).is_err());
    }

    fn stats(requests_served: u64) -> ServeStats {
        ServeStats {
            hits: 5,
            misses: 2,
            evictions: 0,
            len: 2,
            capacity: 64,
            requests_served,
            memory_budget_remaining: None,
            spilled_csr_builds: 0,
        }
    }

    #[test]
    fn stats_render_is_stable() {
        let s = stats(9);
        let text = s.render();
        assert!(text.contains("hits=5 misses=2 evictions=0 len=2/64"));
        assert!(text.contains("memory budget: none (spilled CSR builds: 0)"));
        assert!(text.contains("requests served: 9"));
        let budgeted =
            ServeStats { memory_budget_remaining: Some(1234), spilled_csr_builds: 3, ..s };
        assert!(budgeted.render().contains("memory budget: 1234 bytes remaining"));
        assert!(budgeted.render().contains("(spilled CSR builds: 3)"));
        let unlimited = ServeStats { memory_budget_remaining: Some(u64::MAX), ..s };
        assert!(unlimited.render().contains("memory budget: unlimited"));
    }

    #[test]
    fn absorb_folds_a_fleet_of_snapshots() {
        // counters sum; a budget-less fleet stays budget-less
        let mut fleet = stats(9);
        fleet.absorb(&stats(1));
        assert_eq!(fleet.requests_served, 10);
        assert_eq!(fleet.hits, 10);
        assert_eq!(fleet.capacity, 128);
        assert_eq!(fleet.memory_budget_remaining, None);
        // one budgeted backend gives the fleet its headroom verbatim
        let budgeted =
            ServeStats { memory_budget_remaining: Some(500), spilled_csr_builds: 2, ..stats(1) };
        fleet.absorb(&budgeted);
        assert_eq!(fleet.memory_budget_remaining, Some(500));
        assert_eq!(fleet.spilled_csr_builds, 2);
        // budgets sum across backends, saturating at u64::MAX for an
        // unlimited member rather than wrapping
        fleet.absorb(&ServeStats { memory_budget_remaining: Some(250), ..stats(0) });
        assert_eq!(fleet.memory_budget_remaining, Some(750));
        fleet.absorb(&ServeStats { memory_budget_remaining: Some(u64::MAX), ..stats(0) });
        assert_eq!(fleet.memory_budget_remaining, Some(u64::MAX));
    }
}
