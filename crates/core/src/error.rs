//! Typed errors for EASE's user-facing surface.
//!
//! The training/selection internals keep their invariant `assert!`s (those
//! guard programmer errors), but everything a *user* can trigger — bad
//! configuration, unreadable graph files, corrupt or version-skewed model
//! artifacts, queries for workloads the service was never trained on — is
//! reported as an [`EaseError`] instead of a panic.

use ease_graph::GraphIoError;
use ease_ml::PersistError;
use std::fmt;
use std::io;

/// Everything that can go wrong on EASE's public API surface.
#[derive(Debug)]
pub enum EaseError {
    /// The underlying filesystem operation failed.
    Io(io::Error),
    /// An edge-list line could not be parsed (`line` is 1-based).
    Parse { line: usize, message: String },
    /// A binary graph file (`.bel`) is structurally invalid.
    Format(String),
    /// A model artifact could not be decoded (bad magic, version skew,
    /// truncation, corruption).
    Persist(PersistError),
    /// A builder/pipeline configuration that cannot train.
    InvalidConfig(String),
    /// A recommendation was requested for a workload the service has no
    /// trained model for.
    UnsupportedWorkload { requested: String, supported: Vec<String> },
    /// The service's partitioner catalog is empty — nothing to rank.
    EmptyCatalog,
    /// The `ease serve` daemon or its socket protocol failed (see
    /// [`ServeError`] for the cases).
    Serve(ServeError),
}

/// Everything that can go wrong on the `ease serve` socket surface, on
/// either side of the connection.
#[derive(Debug)]
pub enum ServeError {
    /// A frame or payload violated the wire protocol (bad magic, version
    /// skew, unknown tag, truncation, oversized frame).
    Protocol(String),
    /// The peer closed the connection before a complete frame arrived.
    Disconnected,
    /// The daemon answered a request with an error (the message is the
    /// server-rendered [`EaseError`] text, printed verbatim by clients so
    /// failure output matches the one-shot CLI).
    Remote(String),
    /// The daemon could not take the socket address (already served, or
    /// the path is not bindable).
    Bind { socket: String, message: String },
    /// A fleet router refused to admit the query: the request's estimated
    /// derived-state footprint (`needed` bytes) exceeds every healthy
    /// backend's remaining memory-budget headroom (`headroom` is the best
    /// on offer). Shedding with this typed error is the whole point —
    /// the alternative is forcing a backend to spill or OOM. Retry
    /// elsewhere, later, or against a backend with a bigger budget.
    Overloaded { needed: u64, headroom: u64 },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ServeError::Disconnected => write!(f, "peer disconnected mid-frame"),
            ServeError::Remote(msg) => write!(f, "{msg}"),
            ServeError::Bind { socket, message } => {
                write!(f, "cannot serve on `{socket}`: {message}")
            }
            ServeError::Overloaded { needed, headroom } => write!(
                f,
                "fleet over memory budget: query needs ~{needed} bytes of analysis headroom, \
                 best backend has {headroom} — retry elsewhere or later"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ServeError> for EaseError {
    fn from(e: ServeError) -> Self {
        EaseError::Serve(e)
    }
}

impl fmt::Display for EaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EaseError::Io(e) => write!(f, "I/O error: {e}"),
            EaseError::Parse { line, message } => {
                write!(f, "malformed edge-list line {line}: {message}")
            }
            EaseError::Format(message) => write!(f, "malformed binary edge list: {message}"),
            EaseError::Persist(e) => write!(f, "model persistence error: {e}"),
            EaseError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            EaseError::UnsupportedWorkload { requested, supported } => write!(
                f,
                "no model trained for workload `{requested}` (supported: {})",
                supported.join(", ")
            ),
            EaseError::EmptyCatalog => write!(f, "partitioner catalog is empty"),
            // a remote error is an already-rendered EaseError from the
            // daemon: print it verbatim so `--daemon` failures read exactly
            // like one-shot failures
            EaseError::Serve(ServeError::Remote(msg)) => write!(f, "{msg}"),
            EaseError::Serve(e) => write!(f, "serve error: {e}"),
        }
    }
}

impl std::error::Error for EaseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EaseError::Io(e) => Some(e),
            EaseError::Persist(e) => Some(e),
            EaseError::Serve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for EaseError {
    fn from(e: io::Error) -> Self {
        EaseError::Io(e)
    }
}

impl From<PersistError> for EaseError {
    fn from(e: PersistError) -> Self {
        EaseError::Persist(e)
    }
}

impl From<GraphIoError> for EaseError {
    fn from(e: GraphIoError) -> Self {
        match e {
            GraphIoError::Io(e) => EaseError::Io(e),
            GraphIoError::Parse { line, message } => EaseError::Parse { line, message },
            GraphIoError::Format(message) => EaseError::Format(message),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_parse_errors_keep_their_line_numbers() {
        let g = GraphIoError::Parse { line: 17, message: "bad token".into() };
        match EaseError::from(g) {
            EaseError::Parse { line, message } => {
                assert_eq!(line, 17);
                assert_eq!(message, "bad token");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn display_is_informative() {
        let e = EaseError::UnsupportedWorkload {
            requested: "lp".into(),
            supported: vec!["pr".into(), "cc".into()],
        };
        let s = e.to_string();
        assert!(s.contains("`lp`") && s.contains("pr, cc"), "{s}");
        assert!(EaseError::EmptyCatalog.to_string().contains("empty"));
    }

    #[test]
    fn io_and_persist_sources_are_preserved() {
        use std::error::Error;
        let e = EaseError::from(io::Error::new(io::ErrorKind::NotFound, "nope"));
        assert!(e.source().is_some());
        let p = EaseError::from(ease_ml::PersistError::BadMagic);
        assert!(p.source().is_some());
    }
}
