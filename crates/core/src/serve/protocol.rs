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
//! [`Request`] and [`Response`] are *pure data*, and every wire spelling
//! of them is driven by one declaration per variant (`Message::decl`): its
//! kind — the binary tag byte and the JSON `type` name — and its ordered
//! field list, each field a wire name plus one of a small closed set of
//! kinds (`Slot`). Nothing else knows a field. Two walkers read that list:
//!
//! * a **positional** one over the `Writer`/`Reader` codec — the framed
//!   payload behind `encode_binary`/`decode_binary`;
//! * a **named** one over a key → scalar source — the JSON object behind
//!   `to_json`/`from_json` (the HTTP facade, `serve/http.rs`), and through
//!   [`Request::from_text`] the query pairs of `GET /recommend` and
//!   `GET /features` and the flags of the `ease` CLI. JSON is typed (a
//!   number spelled as a string is an error); text sources parse decimal.
//!
//! Defaults for fields a named source omits live in one place
//! (`Message::blanks`), so parity between the binary, JSON, query-string
//! and CLI surfaces is structural, not coincidental: a new field's wire
//! spelling is one line in its variant's declaration.

use super::json::{self, Value};
use crate::error::{EaseError, ServeError};
use crate::selector::OptGoal;
use ease_graph::PropertyTier;
use ease_ml::persist::{Reader, Writer};
use ease_ml::PersistError;
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    /// (`None` only when *no* backend has a budget). Every sum saturates:
    /// the operands are what backends reported over the wire, and an
    /// unlimited backend's budget is `u64::MAX`.
    pub fn absorb(&mut self, other: &ServeStats) {
        self.hits = self.hits.saturating_add(other.hits);
        self.misses = self.misses.saturating_add(other.misses);
        self.evictions = self.evictions.saturating_add(other.evictions);
        self.len = self.len.saturating_add(other.len);
        self.capacity = self.capacity.saturating_add(other.capacity);
        self.requests_served = self.requests_served.saturating_add(other.requests_served);
        self.spilled_csr_builds = self.spilled_csr_builds.saturating_add(other.spilled_csr_builds);
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
// Field lists: one declaration per variant
// ---------------------------------------------------------------------

pub(crate) fn proto_err(msg: impl Into<String>) -> EaseError {
    ServeError::Protocol(msg.into()).into()
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

/// One field of a message: where its value lives, tagged with its kind.
/// The kind fixes the field's bytes in a binary payload, its JSON type,
/// and whether a named source may omit it: `Str`, `U8`, `U64` and `Usize`
/// are required, the `Opt*` kinds read as `None` when absent or `null`,
/// and `UsizeOr`, `Goal` and `Tier` then keep the default their variant
/// carries in [`Message::blanks`].
enum Slot<'a> {
    Str(&'a mut String),
    OptStr(&'a mut Option<String>),
    U8(&'a mut u8),
    U64(&'a mut u64),
    OptU64(&'a mut Option<u64>),
    Usize(&'a mut usize),
    OptUsize(&'a mut Option<usize>),
    UsizeOr(&'a mut usize),
    Goal(&'a mut OptGoal),
    Tier(&'a mut PropertyTier),
}

/// A variant's declaration: its binary tag byte, its JSON `type` name,
/// and its fields in wire order under their wire names.
type Decl<'a> = (u8, &'static str, Vec<(&'static str, Slot<'a>)>);

/// A wire message: [`Request`] or [`Response`].
trait Message: Clone {
    /// `request` / `response`, for error messages.
    const WHAT: &'static str;

    /// Every variant once: required fields empty, optional fields at the
    /// default a named source gets by omitting them. Decoding fills in the
    /// variant whose declaration has the tag or `type` name on the wire.
    fn blanks() -> Vec<Self>;

    fn decl(&mut self) -> Decl<'_>;
}

/// The JSON member naming a message's kind.
const TYPE: &str = "type";

// wire names that more than one declaration spells
const GRAPH: &str = "graph";
const CWD: &str = "cwd";
const ANSWER: &str = "answer";
const ERROR: &str = "error";

impl Message for Request {
    const WHAT: &'static str = "request";

    fn blanks() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Recommend {
                graph: String::new(),
                workload: String::new(),
                k: None,
                goal: OptGoal::EndToEnd,
                top: DEFAULT_TOP,
                cwd: None,
            },
            Request::Features { graph: String::new(), tier: PropertyTier::Advanced, cwd: None },
            Request::CacheStats,
            Request::Shutdown,
        ]
    }

    fn decl(&mut self) -> Decl<'_> {
        use Slot::{Goal, OptStr, OptUsize, Str, Tier, UsizeOr};
        match self {
            Request::Ping => (0, "ping", vec![]),
            Request::Recommend { graph, workload, k, goal, top, cwd } => {
                let query = vec![
                    (GRAPH, Str(graph)),
                    ("workload", Str(workload)),
                    ("k", OptUsize(k)),
                    ("goal", Goal(goal)),
                    ("top", UsizeOr(top)),
                    (CWD, OptStr(cwd)),
                ];
                (1, "recommend", query)
            }
            Request::Features { graph, tier, cwd } => {
                (2, "features", vec![(GRAPH, Str(graph)), ("tier", Tier(tier)), (CWD, OptStr(cwd))])
            }
            Request::CacheStats => (3, "cache-stats", vec![]),
            Request::Shutdown => (4, "shutdown", vec![]),
        }
    }
}

impl Message for Response {
    const WHAT: &'static str = "response";

    fn blanks() -> Vec<Response> {
        vec![
            Response::Pong { version: 0 },
            Response::Answer(String::new()),
            Response::CacheStats(ServeStats::default()),
            Response::Error(String::new()),
            Response::ShuttingDown,
            Response::Overloaded { needed: 0, headroom: 0 },
        ]
    }

    fn decl(&mut self) -> Decl<'_> {
        use Slot::{OptU64, Str, Usize, U64, U8};
        match self {
            Response::Pong { version } => (0, "pong", vec![("version", U8(version))]),
            Response::Answer(text) => (1, ANSWER, vec![(ANSWER, Str(text))]),
            Response::CacheStats(s) => {
                // the budget pair rides after the original fields (the v2
                // payload bump), which are unchanged
                let counters = vec![
                    ("hits", U64(&mut s.hits)),
                    ("misses", U64(&mut s.misses)),
                    ("evictions", U64(&mut s.evictions)),
                    ("len", Usize(&mut s.len)),
                    ("capacity", Usize(&mut s.capacity)),
                    ("requests_served", U64(&mut s.requests_served)),
                    ("memory_budget_remaining", OptU64(&mut s.memory_budget_remaining)),
                    ("spilled_csr_builds", U64(&mut s.spilled_csr_builds)),
                ];
                (2, "stats", counters)
            }
            Response::Error(msg) => (3, ERROR, vec![(ERROR, Str(msg))]),
            Response::ShuttingDown => (4, "shutting-down", vec![]),
            Response::Overloaded { needed, headroom } => {
                (5, "overloaded", vec![("needed", U64(needed)), ("headroom", U64(headroom))])
            }
        }
    }
}

/// The blank variant of `M` whose declared tag and name `is_it` accepts,
/// filled in field by field by `fill`; `None` when no variant matches.
fn decode<M: Message>(
    is_it: impl Fn(u8, &str) -> bool,
    mut fill: impl FnMut(&'static str, Slot) -> Result<(), EaseError>,
) -> Result<Option<M>, EaseError> {
    for mut blank in M::blanks() {
        let (tag, name, fields) = blank.decl();
        if is_it(tag, name) {
            fields.into_iter().try_for_each(|(key, slot)| fill(key, slot))?;
            return Ok(Some(blank));
        }
    }
    Ok(None)
}

// ---------------------------------------------------------------------
// The positional walker: field lists over the binary `Writer`/`Reader`
// ---------------------------------------------------------------------

fn encode_binary<M: Message>(message: &M) -> Vec<u8> {
    let mut message = message.clone();
    let (tag, _, fields) = message.decl();
    let mut w = Writer::new();
    w.put_u8(PROTOCOL_VERSION);
    w.put_u8(tag);
    for (_, slot) in fields {
        match slot {
            Slot::Str(s) => w.put_str(s),
            Slot::OptStr(s) => w.put_opt(s.as_deref(), Writer::put_str),
            Slot::U8(n) => w.put_u8(*n),
            Slot::U64(n) => w.put_u64(*n),
            Slot::OptU64(n) => w.put_opt(*n, Writer::put_u64),
            Slot::Usize(n) | Slot::UsizeOr(n) => w.put_usize(*n),
            Slot::OptUsize(n) => w.put_opt(*n, Writer::put_usize),
            Slot::Goal(goal) => w.put_u8(goal.tag()),
            Slot::Tier(tier) => w.put_u8(tier.tag()),
        }
    }
    w.into_bytes()
}

fn take_tag<T>(
    r: &mut Reader,
    key: &str,
    from_tag: fn(u8) -> Option<T>,
) -> Result<T, PersistError> {
    let tag = r.take_u8()?;
    from_tag(tag).ok_or_else(|| PersistError::Corrupt(format!("unknown `{key}` tag {tag}")))
}

fn take_field(r: &mut Reader, key: &str, slot: Slot) -> Result<(), PersistError> {
    match slot {
        Slot::Str(s) => *s = r.take_str()?,
        Slot::OptStr(s) => *s = r.take_opt(Reader::take_str)?,
        Slot::U8(n) => *n = r.take_u8()?,
        Slot::U64(n) => *n = r.take_u64()?,
        Slot::OptU64(n) => *n = r.take_opt(Reader::take_u64)?,
        Slot::Usize(n) | Slot::UsizeOr(n) => *n = r.take_usize()?,
        Slot::OptUsize(n) => *n = r.take_opt(Reader::take_usize)?,
        Slot::Goal(goal) => *goal = take_tag(r, key, OptGoal::from_tag)?,
        Slot::Tier(tier) => *tier = take_tag(r, key, PropertyTier::from_tag)?,
    }
    Ok(())
}

fn decode_binary<M: Message>(bytes: &[u8]) -> Result<M, EaseError> {
    let what = M::WHAT;
    let bad = |e: PersistError| proto_err(format!("truncated {what}: {e}"));
    let mut r = Reader::new(bytes);
    let version = r.take_u8().map_err(bad)?;
    if version != PROTOCOL_VERSION {
        return Err(proto_err(format!(
            "protocol version skew: peer speaks v{version}, this build v{PROTOCOL_VERSION}"
        )));
    }
    let tag = r.take_u8().map_err(bad)?;
    let message = decode(|t, _| t == tag, |key, slot| take_field(&mut r, key, slot).map_err(bad))?
        .ok_or_else(|| proto_err(format!("unknown {what} tag {tag}")))?;
    if r.remaining() != 0 {
        return Err(proto_err(format!("{} trailing bytes after {what}", r.remaining())));
    }
    Ok(message)
}

// ---------------------------------------------------------------------
// The named walker: field lists over a key → scalar source
// ---------------------------------------------------------------------

fn to_json<M: Message>(message: &M) -> String {
    let mut message = message.clone();
    let (_, name, fields) = message.decl();
    let mut members = vec![(TYPE.to_string(), Value::str(name))];
    for (key, slot) in fields {
        let value = match slot {
            Slot::Str(s) => Value::Str(std::mem::take(s)),
            Slot::OptStr(s) => s.take().map_or(Value::Null, Value::Str),
            Slot::U8(n) => Value::UInt(u64::from(*n)),
            Slot::U64(n) => Value::UInt(*n),
            Slot::OptU64(n) => n.map_or(Value::Null, Value::UInt),
            Slot::Usize(n) | Slot::UsizeOr(n) => Value::UInt(*n as u64),
            Slot::OptUsize(n) => n.map_or(Value::Null, |n| Value::UInt(n as u64)),
            Slot::Goal(goal) => Value::str(goal_name(*goal)),
            Slot::Tier(tier) => Value::str(tier.name()),
        };
        members.push((key.to_string(), value));
    }
    Value::Obj(members).render()
}

/// Build the `kind` variant of `M` from a named source — one that answers,
/// for a key, the text and the unsigned integer it holds there: `Ok(None)`
/// when it holds nothing (or `null`), `Err` when what it holds is not
/// that. `noun` is what the source calls a pair, for error messages.
fn from_named<'a, M: Message>(
    kind: &str,
    noun: &str,
    text: impl Fn(&str) -> Result<Option<&'a str>, ()>,
    uint: impl Fn(&str) -> Result<Option<u64>, ()>,
) -> Result<M, EaseError> {
    let bad = |key: &str, why: String| proto_err(format!("{noun} `{key}` {why}"));
    let text = |key: &str| text(key).map_err(|()| bad(key, "must be a string".into()));
    let uint = |key: &str, max: u64| match uint(key) {
        Ok(Some(n)) if n > max => Err(bad(key, format!("is {n}, past its maximum {max}"))),
        Ok(n) => Ok(n),
        Err(()) => Err(bad(key, "must be an unsigned integer".into())),
    };
    let missing = |key: &str| proto_err(format!("missing {noun} `{key}`"));
    let (byte, word) = (u64::from(u8::MAX), usize::MAX as u64);
    // the `as` casts narrow a value already checked against its maximum
    let fill = |key: &'static str, slot: Slot| {
        match slot {
            Slot::Str(s) => *s = text(key)?.ok_or_else(|| missing(key))?.to_string(),
            Slot::OptStr(s) => *s = text(key)?.map(String::from),
            Slot::U8(n) => *n = uint(key, byte)?.ok_or_else(|| missing(key))? as u8,
            Slot::U64(n) => *n = uint(key, u64::MAX)?.ok_or_else(|| missing(key))?,
            Slot::OptU64(n) => *n = uint(key, u64::MAX)?,
            Slot::Usize(n) => *n = uint(key, word)?.ok_or_else(|| missing(key))? as usize,
            Slot::OptUsize(n) => *n = uint(key, word)?.map(|n| n as usize),
            Slot::UsizeOr(n) => *n = uint(key, word)?.map_or(*n, |n| n as usize),
            Slot::Goal(goal) => *goal = text(key)?.map_or(Ok(*goal), goal_from_name)?,
            Slot::Tier(tier) => *tier = text(key)?.map_or(Ok(*tier), tier_from_name)?,
        }
        Ok(())
    };
    decode(|_, name| name == kind, fill)?
        .ok_or_else(|| proto_err(format!("unknown {} type `{kind}`", M::WHAT)))
}

fn from_json<M: Message>(src: &str) -> Result<M, EaseError> {
    let what = M::WHAT;
    let v = json::parse(src).map_err(|e| proto_err(format!("bad JSON {what}: {e}")))?;
    let kind = v
        .get(TYPE)
        .and_then(Value::as_str)
        .ok_or_else(|| proto_err(format!("JSON {what} has no string `{TYPE}` member")))?;
    // strictly typed: a number spelled as a string is not a number
    let text = |key: &str| match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(member) => member.as_str().map(Some).ok_or(()),
    };
    let uint = |key: &str| match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(member) => member.as_u64().map(Some).ok_or(()),
    };
    from_named(kind, "member", text, uint)
}

impl Request {
    /// Serialize to the versioned binary payload (framing is separate;
    /// see [`write_frame_v2`]).
    pub fn encode_binary(&self) -> Vec<u8> {
        encode_binary(self)
    }

    /// Deserialize a binary request payload. Every malformation is a typed
    /// [`ServeError::Protocol`] — never a panic in a server worker.
    pub fn decode_binary(bytes: &[u8]) -> Result<Request, EaseError> {
        decode_binary(bytes)
    }

    /// Serialize to the JSON envelope the HTTP facade speaks: an object
    /// whose `type` member names the variant, then its fields by name.
    pub fn to_json(&self) -> String {
        to_json(self)
    }

    /// Deserialize the JSON envelope. Optional fields (`k`, `goal`, `top`,
    /// `cwd`, `tier`) may be omitted or `null` and take the same defaults
    /// the CLI flags take; malformations are typed
    /// [`ServeError::Protocol`] errors.
    pub fn from_json(src: &str) -> Result<Request, EaseError> {
        from_json(src)
    }

    /// Build the `kind` request (its JSON `type` name) from untyped text
    /// pairs — the percent-decoded query of a `GET`, the flags of a CLI
    /// invocation — with the field list, defaults and vocabularies
    /// [`Request::from_json`] reads; numeric fields parse as decimal.
    /// `noun` is what the caller calls a pair (`query parameter`, `flag`).
    pub fn from_text<'a>(
        kind: &str,
        noun: &str,
        get: impl Fn(&str) -> Option<&'a str>,
    ) -> Result<Request, EaseError> {
        let uint = |key: &str| get(key).map(|s| s.parse::<u64>().map_err(|_| ())).transpose();
        from_named(kind, noun, |key| Ok(get(key)), uint)
    }
}

impl Response {
    /// Serialize to the versioned binary payload.
    pub fn encode_binary(&self) -> Vec<u8> {
        encode_binary(self)
    }

    /// Deserialize a binary response payload.
    pub fn decode_binary(bytes: &[u8]) -> Result<Response, EaseError> {
        decode_binary(bytes)
    }

    /// Serialize to the JSON envelope: the `type` member, then the
    /// variant's fields by name. This is the body every HTTP response
    /// carries, so non-Rust clients see exactly the data binary clients
    /// decode — including the verbatim answer text, which stays
    /// bit-identical to the one-shot CLI.
    pub fn to_json(&self) -> String {
        to_json(self)
    }

    /// Deserialize the JSON envelope (the HTTP client path).
    pub fn from_json(src: &str) -> Result<Response, EaseError> {
        from_json(src)
    }
}

// -- names ↔ enum values: the CLI, query-string and JSON vocabularies --

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

/// Parse the CLI/JSON tier vocabulary.
pub fn tier_from_name(name: &str) -> Result<PropertyTier, EaseError> {
    PropertyTier::ALL
        .into_iter()
        .find(|tier| tier.name() == name)
        .ok_or_else(|| proto_err(format!("unknown tier `{name}` (expected simple|basic|advanced)")))
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Write one `[magic][u64 LE id][u32 LE len][payload]` frame in a single
/// `write_all`. One write per frame is the rule: every serve socket runs
/// with `TCP_NODELAY`, so each write leaves as its own segment, and a
/// header written apart from its payload wakes the peer twice — once on
/// the 14 header bytes, once more on the payload it then blocks for.
pub fn write_frame_v2(w: &mut impl Write, id: u64, payload: &[u8]) -> Result<(), EaseError> {
    check_payload_len(payload)?;
    let mut frame = Vec::with_capacity(14 + payload.len());
    frame.extend_from_slice(&FRAME_MAGIC_V2);
    frame.extend_from_slice(&id.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
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
    let [i0, i1, i2, i3, i4, i5, i6, i7, l0, l1, l2, l3] = head;
    let id = u64::from_le_bytes([i0, i1, i2, i3, i4, i5, i6, i7]);
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    Ok((id, read_capped_payload(r, len)?))
}

/// Read a payload of the declared `len` bytes. The length is the peer's
/// word, so memory follows the bytes that actually arrive: the buffer
/// starts at most [`PAYLOAD_PREALLOC`] bytes and grows as data comes in,
/// and a frame that declares a megabyte and then closes costs what it
/// sent, not the megabyte. The HTTP facade reads request bodies through
/// it too.
pub(crate) fn read_capped_payload(r: &mut impl Read, len: usize) -> Result<Vec<u8>, EaseError> {
    if len > MAX_FRAME_BYTES {
        return Err(proto_err(format!(
            "declared frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    let mut payload = Vec::with_capacity(len.min(PAYLOAD_PREALLOC));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(ServeError::Disconnected.into());
    }
    Ok(payload)
}

/// Most a payload read allocates before its bytes arrive: every message on
/// the serve path fits, a hostile length prefix gains nothing past it.
const PAYLOAD_PREALLOC: usize = 8 << 10;

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

    /// Counts `write` calls; accepts every byte, so one `write_all` is one
    /// call.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_leaves_in_one_write() {
        for payload in [Vec::new(), Request::Ping.encode_binary(), vec![7u8; 64 << 10]] {
            let mut w = CountingWriter::default();
            write_frame_v2(&mut w, 5, &payload).unwrap();
            assert_eq!(w.writes, 1, "{}-byte payload", payload.len());
            assert_eq!(w.bytes.len(), 14 + payload.len());
            assert_eq!(read_frame_v2(&mut w.bytes.as_slice()).unwrap(), (5, payload));
        }
    }

    #[test]
    fn a_declared_megabyte_followed_by_eof_allocates_what_arrived() {
        /// Serves `data`, then EOF; records the largest buffer a read asked
        /// to fill.
        struct Widest<'a> {
            data: &'a [u8],
            widest: usize,
        }
        impl Read for Widest<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.widest = self.widest.max(buf.len());
                self.data.read(buf)
            }
        }
        let mut wire = Vec::new();
        wire.extend_from_slice(&FRAME_MAGIC_V2);
        wire.extend_from_slice(&3u64.to_le_bytes());
        wire.extend_from_slice(&(MAX_FRAME_BYTES as u32).to_le_bytes());
        wire.extend_from_slice(b"and then the peer hung up");
        let mut r = Widest { data: &wire, widest: 0 };
        assert!(matches!(
            read_frame_v2(&mut r).unwrap_err(),
            EaseError::Serve(ServeError::Disconnected)
        ));
        assert!(r.widest <= PAYLOAD_PREALLOC, "a read asked for {} bytes", r.widest);
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
            assert_eq!(tier_from_name(tier.name()).unwrap(), tier);
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
        // a backend reporting every counter at its maximum saturates the
        // fleet's sums instead of overflowing them
        let maxed = ServeStats {
            hits: u64::MAX,
            misses: u64::MAX,
            evictions: u64::MAX,
            len: usize::MAX,
            capacity: usize::MAX,
            requests_served: u64::MAX,
            memory_budget_remaining: Some(u64::MAX),
            spilled_csr_builds: u64::MAX,
        };
        fleet.absorb(&maxed);
        assert_eq!(fleet, maxed);
    }
}
