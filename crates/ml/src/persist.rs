//! Versioned, hand-rolled binary model codec: the shared half.
//!
//! EASE's value proposition is *train once, query cheaply*: a trained
//! selector amortizes its profiling cost over many future queries, which
//! requires the fitted models to survive the training process. No serde is
//! available in the offline dependency set, so the crate carries a small
//! self-describing binary format. Every model writes and reads **its own**
//! bytes — [`crate::Regressor::encode`] and an inherent `decode` sit next
//! to the struct whose fields they spell, and `decode` checks every
//! invariant that struct's `predict_row` relies on. This module keeps only
//! what the models share:
//!
//! * [`Writer`]/[`Reader`] — little-endian primitive codec over a byte
//!   buffer, with every read bounds-checked into a typed [`PersistError`].
//! * A `MAGIC` + format-version header ([`write_header`]/[`read_header`])
//!   so future layouts can evolve without silently misreading old files.
//! * The nine model tag bytes and [`decode_regressor`], the one dispatch
//!   table from a tag to the model that owns the bytes behind it.
//! * [`encode_config`]/[`decode_config`] for grid-search provenance.
//!
//! Nesting is typed, not recursive: a polynomial holds a ridge, the two
//! ensembles hold trees, and a scaled pipeline holds any model except
//! another scaled pipeline — so decode depth is at most three whatever the
//! file says.
//!
//! The codec stores `f64`s as raw IEEE-754 bits, so a saved model predicts
//! **bit-identically** after reload — locked by the round-trip tests in
//! `tests/persistence_roundtrip.rs`, which also pin the bytes themselves
//! and prove the decoders total on mutated, truncated and extended files.

// Daemon-reachable: `Reader` decodes every socket payload and model file, so
// this module is held panic-free (`#[cfg(test)]` code is exempt, see
// `clippy.toml`).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::forest::RandomForest;
use crate::gbt::GradientBoosting;
use crate::knn::KnnRegressor;
use crate::linear::Ridge;
use crate::mlp::MlpRegressor;
use crate::poly::PolynomialRegression;
use crate::preprocess::ScaledModel;
use crate::svr::SvrRegressor;
use crate::tree::RegressionTree;
use crate::zoo::ModelConfig;
use crate::Regressor;
use std::fmt;

/// File magic for every EASE model artifact.
pub const MAGIC: [u8; 8] = *b"EASEMODL";

/// Current format version. Readers reject anything newer.
///
/// History: v1 = models + provenance; v2 adds the fingerprint-keyed
/// graph-property cache trailer to service artifacts (warm restarts).
pub const FORMAT_VERSION: u32 = 2;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Typed decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The buffer ended before a field could be read.
    Truncated { offset: usize, needed: usize },
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file declares a format version newer than this build understands.
    UnsupportedVersion(u32),
    /// Structurally invalid content (unknown tag, size mismatch, ...).
    Corrupt(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Truncated { offset, needed } => {
                write!(f, "truncated model data: needed {needed} bytes at offset {offset}")
            }
            PersistError::BadMagic => write!(f, "not an EASE model file (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(f, "model format version {v} is newer than supported ({FORMAT_VERSION})")
            }
            PersistError::Corrupt(msg) => write!(f, "corrupt model data: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

// ---------------------------------------------------------------------
// Writer / Reader
// ---------------------------------------------------------------------

/// Append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Raw IEEE-754 bits — NaNs and signed zeros round-trip exactly.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// `Option<T>` as a `0`/`1` byte, then — for `Some` — whatever `put`
    /// writes for the payload. The one option codec of every format built
    /// on this writer (model files, the cache trailer, the serve wire).
    pub fn put_opt<T>(&mut self, v: Option<T>, put: impl FnOnce(&mut Writer, T)) {
        self.put_u8(u8::from(v.is_some()));
        if let Some(x) = v {
            put(self, x);
        }
    }

    pub fn put_f64s(&mut self, vs: &[f64]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// A `usize` list — MLP hidden-layer widths, in models and configs.
    pub(crate) fn put_usizes(&mut self, vs: &[usize]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_usize(v);
        }
    }

    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.put_bytes(s.as_bytes());
    }
}

/// Bounds-checked little-endian byte source.
#[derive(Debug)]
pub struct Reader<'a> {
    /// The bytes not yet consumed.
    rest: &'a [u8],
    /// How many were.
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { rest: buf, pos: 0 }
    }

    pub fn offset(&self) -> usize {
        self.pos
    }

    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    fn truncated(&self, needed: usize) -> PersistError {
        PersistError::Truncated { offset: self.pos, needed }
    }

    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let (out, rest) = self.rest.split_at_checked(n).ok_or_else(|| self.truncated(n))?;
        self.rest = rest;
        self.pos += n;
        Ok(out)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], PersistError> {
        let (out, rest) = self.rest.split_first_chunk::<N>().ok_or_else(|| self.truncated(N))?;
        self.rest = rest;
        self.pos += N;
        Ok(*out)
    }

    /// The next byte, left in place — how [`decode_regressor`] reads a
    /// model's tag before handing the model its own bytes.
    pub fn peek_u8(&self) -> Result<u8, PersistError> {
        self.rest.first().copied().ok_or_else(|| self.truncated(1))
    }

    pub fn take_u8(&mut self) -> Result<u8, PersistError> {
        self.take_array().map(|[b]| b)
    }

    pub fn take_bool(&mut self) -> Result<bool, PersistError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(PersistError::Corrupt(format!("invalid bool byte {other}"))),
        }
    }

    pub fn take_u32(&mut self) -> Result<u32, PersistError> {
        self.take_array().map(u32::from_le_bytes)
    }

    pub fn take_u64(&mut self) -> Result<u64, PersistError> {
        self.take_array().map(u64::from_le_bytes)
    }

    pub fn take_usize(&mut self) -> Result<usize, PersistError> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| PersistError::Corrupt(format!("size {v} overflows usize")))
    }

    /// A length that will immediately drive an allocation: bounded by what
    /// the remaining buffer could possibly hold (each element takes at
    /// least `elem_bytes`), so a corrupted length cannot trigger a
    /// multi-gigabyte `Vec` reservation.
    pub(crate) fn take_len(&mut self, elem_bytes: usize) -> Result<usize, PersistError> {
        let n = self.take_usize()?;
        if n.saturating_mul(elem_bytes) > self.remaining() {
            return Err(PersistError::Corrupt(format!(
                "declared length {n} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    pub fn take_f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Inverse of [`Writer::put_opt`].
    pub fn take_opt<T>(
        &mut self,
        take: impl FnOnce(&mut Self) -> Result<T, PersistError>,
    ) -> Result<Option<T>, PersistError> {
        match self.take_u8()? {
            0 => Ok(None),
            1 => take(self).map(Some),
            other => Err(PersistError::Corrupt(format!("unknown option tag {other}"))),
        }
    }

    pub fn take_f64s(&mut self) -> Result<Vec<f64>, PersistError> {
        let n = self.take_len(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.take_f64()?);
        }
        Ok(out)
    }

    /// Inverse of [`Writer::put_usizes`].
    pub(crate) fn take_usizes(&mut self) -> Result<Vec<usize>, PersistError> {
        let n = self.take_len(8)?;
        (0..n).map(|_| self.take_usize()).collect()
    }

    pub fn take_str(&mut self) -> Result<String, PersistError> {
        let n = self.take_len(1)?;
        let bytes = self.take_bytes(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PersistError::Corrupt("invalid utf-8 string".into()))
    }
}

/// Write the shared `MAGIC` + version header.
pub fn write_header(w: &mut Writer) {
    w.put_bytes(&MAGIC);
    w.put_u32(FORMAT_VERSION);
}

/// Validate the header; returns the file's format version.
pub fn read_header(r: &mut Reader) -> Result<u32, PersistError> {
    let magic = r.take_bytes(MAGIC.len()).map_err(|_| PersistError::BadMagic)?;
    if magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = r.take_u32()?;
    if version == 0 || version > FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    Ok(version)
}

// ---------------------------------------------------------------------
// Model tags and dispatch
// ---------------------------------------------------------------------

/// The first byte of every encoded model names its family. Each model's
/// `encode` writes its tag and its `decode` insists on it ([`expect_tag`]).
pub(crate) const TAG_RIDGE: u8 = 1;
pub(crate) const TAG_POLY: u8 = 2;
pub(crate) const TAG_TREE: u8 = 3;
pub(crate) const TAG_FOREST: u8 = 4;
pub(crate) const TAG_GBT: u8 = 5;
pub(crate) const TAG_KNN: u8 = 6;
pub(crate) const TAG_MLP: u8 = 7;
pub(crate) const TAG_SVR: u8 = 8;
pub(crate) const TAG_SCALED: u8 = 9;

/// Consume a model's tag byte, which must be `want`. This is what makes
/// nesting typed: a decoder that holds a fixed family (a polynomial's
/// ridge, an ensemble's trees) calls that family's `decode`, which refuses
/// any other tag instead of recursing into whatever the file names.
pub(crate) fn expect_tag(r: &mut Reader, want: u8) -> Result<(), PersistError> {
    match r.take_u8()? {
        tag if tag == want => Ok(()),
        tag => Err(PersistError::Corrupt(format!("expected model tag {want}, found {tag}"))),
    }
}

/// A decoded model must take rows exactly `want` wide — the width of the
/// row its caller will feed it. A tree split indexes `row[feature]` and the
/// other families zip against the row, so any other width is a panic or a
/// silently wrong prediction on the first query.
pub(crate) fn expect_width(model: &str, got: usize, want: usize) -> Result<(), PersistError> {
    if got == want {
        return Ok(());
    }
    Err(PersistError::Corrupt(format!("{model} takes {got} features, its caller feeds it {want}")))
}

/// Decode whichever model the next tag byte names, as a trait object —
/// the inverse of [`Regressor::encode`] where the family is not known in
/// advance (a predictor's component, a scaled pipeline's inner model).
/// `width` is the length of the rows the caller will predict on; every
/// family refuses a fitted state of another width.
pub fn decode_regressor(r: &mut Reader, width: usize) -> Result<Box<dyn Regressor>, PersistError> {
    Ok(match r.peek_u8()? {
        TAG_RIDGE => Box::new(Ridge::decode(r, width)?),
        TAG_POLY => Box::new(PolynomialRegression::decode(r, width)?),
        TAG_TREE => Box::new(RegressionTree::decode(r, width)?),
        TAG_FOREST => Box::new(RandomForest::decode(r, width)?),
        TAG_GBT => Box::new(GradientBoosting::decode(r, width)?),
        TAG_KNN => Box::new(KnnRegressor::decode(r, width)?),
        TAG_MLP => Box::new(MlpRegressor::decode(r, width)?),
        TAG_SVR => Box::new(SvrRegressor::decode(r, width)?),
        TAG_SCALED => Box::new(ScaledModel::decode(r, width)?),
        other => return Err(PersistError::Corrupt(format!("unknown model tag {other}"))),
    })
}

// ---------------------------------------------------------------------
// ModelConfig codec (for persisted grid-search provenance)
// ---------------------------------------------------------------------

/// Serialize a hyper-parameter point (the provenance half of a persisted
/// predictor: which configuration won the grid search).
pub fn encode_config(w: &mut Writer, cfg: &ModelConfig) {
    match cfg {
        ModelConfig::Poly { degree, alpha } => {
            w.put_u8(1);
            w.put_usize(*degree);
            w.put_f64(*alpha);
        }
        ModelConfig::Svr { c, epsilon, gamma } => {
            w.put_u8(2);
            w.put_f64(*c);
            w.put_f64(*epsilon);
            w.put_f64(*gamma);
        }
        ModelConfig::Forest { n_trees, max_depth, feature_fraction } => {
            w.put_u8(3);
            w.put_usize(*n_trees);
            w.put_usize(*max_depth);
            w.put_f64(*feature_fraction);
        }
        ModelConfig::Xgb { n_estimators, learning_rate, max_depth, lambda } => {
            w.put_u8(4);
            w.put_usize(*n_estimators);
            w.put_f64(*learning_rate);
            w.put_usize(*max_depth);
            w.put_f64(*lambda);
        }
        ModelConfig::Knn { k, distance_weighted } => {
            w.put_u8(5);
            w.put_usize(*k);
            w.put_bool(*distance_weighted);
        }
        ModelConfig::Mlp { hidden, epochs, learning_rate } => {
            w.put_u8(6);
            w.put_usizes(hidden);
            w.put_usize(*epochs);
            w.put_f64(*learning_rate);
        }
    }
}

/// Decode a hyper-parameter point (inverse of [`encode_config`]).
pub fn decode_config(r: &mut Reader) -> Result<ModelConfig, PersistError> {
    Ok(match r.take_u8()? {
        1 => ModelConfig::Poly { degree: r.take_usize()?, alpha: r.take_f64()? },
        2 => ModelConfig::Svr { c: r.take_f64()?, epsilon: r.take_f64()?, gamma: r.take_f64()? },
        3 => ModelConfig::Forest {
            n_trees: r.take_usize()?,
            max_depth: r.take_usize()?,
            feature_fraction: r.take_f64()?,
        },
        4 => ModelConfig::Xgb {
            n_estimators: r.take_usize()?,
            learning_rate: r.take_f64()?,
            max_depth: r.take_usize()?,
            lambda: r.take_f64()?,
        },
        5 => ModelConfig::Knn { k: r.take_usize()?, distance_weighted: r.take_bool()? },
        6 => ModelConfig::Mlp {
            hidden: r.take_usizes()?,
            epochs: r.take_usize()?,
            learning_rate: r.take_f64()?,
        },
        other => return Err(PersistError::Corrupt(format!("unknown config tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Matrix;
    use crate::zoo;

    fn training_data(n: usize) -> (Matrix, Vec<f64>) {
        let mut state = 0xDEADu64;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..3)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (state >> 40) as f64 / 1e5
                    })
                    .collect()
            })
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * 2.0 + (r[1] * 3.0).sin() + r[2]).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_usize(123_456);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_opt(None, Writer::put_usize);
        w.put_opt(Some(9), Writer::put_usize);
        w.put_opt(Some("opt"), Writer::put_str);
        w.put_f64s(&[1.5, -2.5]);
        w.put_str("ease");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert!(r.take_bool().unwrap());
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX);
        assert_eq!(r.take_usize().unwrap(), 123_456);
        assert_eq!(r.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.take_f64().unwrap().is_nan());
        assert_eq!(r.take_opt(Reader::take_usize).unwrap(), None);
        assert_eq!(r.take_opt(Reader::take_usize).unwrap(), Some(9));
        assert_eq!(r.take_opt(Reader::take_str).unwrap().as_deref(), Some("opt"));
        assert_eq!(r.take_f64s().unwrap(), vec![1.5, -2.5]);
        assert_eq!(r.take_str().unwrap(), "ease");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut w = Writer::new();
        w.put_u32(5);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.take_u64(), Err(PersistError::Truncated { offset: 0, needed: 8 }));
        assert_eq!(r.take_u8(), Ok(5));
        assert_eq!(r.peek_u8(), Ok(0));
        assert_eq!(r.take_bytes(4), Err(PersistError::Truncated { offset: 1, needed: 4 }));
        assert_eq!((r.offset(), r.remaining()), (1, 3));
        assert!(matches!(
            Reader::new(&[2]).take_opt(Reader::take_u8),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn oversized_length_is_rejected_without_allocation() {
        let mut w = Writer::new();
        w.put_usize(usize::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.take_f64s(), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn header_round_trip_and_rejection() {
        let mut w = Writer::new();
        write_header(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(read_header(&mut r).unwrap(), FORMAT_VERSION);

        let mut corrupt = bytes.clone();
        corrupt[0] ^= 0xFF;
        assert_eq!(read_header(&mut Reader::new(&corrupt)).unwrap_err(), PersistError::BadMagic);

        let mut future = bytes;
        future[MAGIC.len()] = 0xFE; // version 254
        assert!(matches!(
            read_header(&mut Reader::new(&future)).unwrap_err(),
            PersistError::UnsupportedVersion(_)
        ));
    }

    #[test]
    fn every_default_grid_model_round_trips_bit_exactly() {
        let (x, y) = training_data(40);
        let (xt, _) = training_data(15);
        for cfg in zoo::default_grid() {
            let mut m = match cfg {
                ModelConfig::Mlp { ref hidden, .. } => {
                    ModelConfig::Mlp { hidden: hidden.clone(), epochs: 8, learning_rate: 1e-3 }
                        .build()
                }
                _ => cfg.build(),
            };
            m.fit(&x, &y);
            let mut w = Writer::new();
            m.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let restored = decode_regressor(&mut r, x.cols).unwrap();
            assert_eq!(r.remaining(), 0, "{}", cfg.describe());
            for i in 0..xt.rows {
                let a = m.predict_row(xt.row(i));
                let b = restored.predict_row(xt.row(i));
                assert_eq!(a.to_bits(), b.to_bits(), "{} row {i}", cfg.describe());
            }
        }
    }

    #[test]
    fn restored_importances_match() {
        let (x, y) = training_data(60);
        let mut m =
            ModelConfig::Forest { n_trees: 12, max_depth: 8, feature_fraction: 1.0 }.build();
        m.fit(&x, &y);
        let mut w = Writer::new();
        m.encode(&mut w);
        let bytes = w.into_bytes();
        let restored = decode_regressor(&mut Reader::new(&bytes), x.cols).unwrap();
        assert_eq!(m.feature_importances(), restored.feature_importances());
    }

    #[test]
    fn config_codec_round_trips_the_whole_grid() {
        for cfg in zoo::default_grid().into_iter().chain(zoo::quick_grid()) {
            let mut w = Writer::new();
            encode_config(&mut w, &cfg);
            let bytes = w.into_bytes();
            let back = decode_config(&mut Reader::new(&bytes)).unwrap();
            assert_eq!(cfg, back);
        }
    }

    /// A stored tree node: `None` is a leaf, `Some((feature, left, right))`
    /// a split.
    type StoredNode = Option<(u32, u32, u32)>;

    /// The bytes of a default-parameter tree over `n_features` features.
    fn tree_bytes(nodes: &[StoredNode], n_features: usize) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(TAG_TREE);
        for size in [12, 4, 2] {
            w.put_usize(size); // max_depth, min_samples_split, min_samples_leaf
        }
        w.put_opt(None, Writer::put_usize); // max_features
        w.put_f64(0.0); // leaf_l2
        w.put_f64(1e-12); // min_gain
        w.put_u64(0); // seed
        w.put_usize(nodes.len());
        for node in nodes {
            match *node {
                None => {
                    w.put_u8(0);
                    w.put_f64(1.0);
                }
                Some((feature, left, right)) => {
                    w.put_u8(1);
                    w.put_u32(feature);
                    w.put_f64(0.5);
                    w.put_u32(left);
                    w.put_u32(right);
                }
            }
        }
        w.put_f64s(&vec![0.0; n_features]);
        w.into_bytes()
    }

    #[test]
    fn split_links_are_validated() {
        let decode = |nodes: &[StoredNode], n_features| {
            RegressionTree::decode(&mut Reader::new(&tree_bytes(nodes, n_features)), n_features)
        };
        // the shape `build` grows: a split ahead of both its subtrees
        let grown = [Some((1, 1, 2)), None, Some((0, 3, 4)), None, None];
        let tree = decode(&grown, 2).unwrap();
        assert_eq!(tree.predict_row(&[9.0, 0.0]), 1.0);
        let mut again = Writer::new();
        tree.encode(&mut again);
        assert_eq!(again.into_bytes(), tree_bytes(&grown, 2));

        for (bad, n_features, why) in [
            (vec![Some((0, 5, 6))], 1, "links past the end"),
            (vec![Some((0, 1, 3)), None, None], 1, "one link past the end"),
            (vec![Some((0, 0, 0))], 1, "links to itself"),
            (vec![Some((0, 1, 2)), Some((0, 0, 2)), None], 1, "links backwards"),
            (vec![Some((1000, 1, 2)), None, None], 1, "feature out of range"),
            (vec![Some((0, 1, 2)), None, None], 0, "no features at all"),
            (vec![], 1, "no root"),
        ] {
            assert!(matches!(decode(&bad, n_features), Err(PersistError::Corrupt(_))), "{why}");
        }
    }

    #[test]
    fn nesting_is_typed() {
        let tree = tree_bytes(&[None], 1);
        let mut ridge = Writer::new();
        Ridge::new(1.0).encode(&mut ridge);
        let ridge = ridge.into_bytes();

        // a polynomial holds a ridge and nothing else
        let mut w = Writer::new();
        w.put_u8(TAG_POLY);
        w.put_usize(2);
        w.put_f64(1.0);
        let poly_head = w.into_bytes();
        let poly_of_ridge = [&poly_head[..], &ridge[..]].concat();
        assert!(decode_regressor(&mut Reader::new(&poly_of_ridge), 0).is_ok());
        let poly_of_tree = [&poly_head[..], &tree[..]].concat();
        assert!(matches!(
            decode_regressor(&mut Reader::new(&poly_of_tree), 1),
            Err(PersistError::Corrupt(_))
        ));

        // an ensemble holds trees over its own feature count and nothing else
        let forest_of = |n_features: usize, member: &[u8]| {
            let mut w = Writer::new();
            w.put_u8(TAG_FOREST);
            for size in [1, 3, 2] {
                w.put_usize(size); // n_trees, max_depth, min_samples_leaf
            }
            w.put_f64(1.0); // feature_fraction
            w.put_u64(0); // seed
            w.put_usize(n_features);
            w.put_usize(1);
            w.put_bytes(member);
            w.into_bytes()
        };
        assert!(decode_regressor(&mut Reader::new(&forest_of(1, &tree)), 1).is_ok());
        for bad in [forest_of(1, &ridge), forest_of(usize::MAX, &tree)] {
            assert!(matches!(
                decode_regressor(&mut Reader::new(&bad), 1),
                Err(PersistError::Corrupt(_))
            ));
        }

        // a fitted pipeline wraps any model but another pipeline
        let mut w = Writer::new();
        w.put_u8(TAG_SCALED);
        w.put_opt(Some(()), |w, ()| {
            w.put_f64s(&[0.0]); // means
            w.put_f64s(&[1.0]); // stds
        });
        let scaled = w.into_bytes();
        assert!(decode_regressor(&mut Reader::new(&[&scaled[..], &tree[..]].concat()), 1).is_ok());
        assert!(matches!(
            decode_regressor(&mut Reader::new(&[&scaled[..], &scaled[..], &tree[..]].concat()), 1),
            Err(PersistError::Corrupt(_))
        ));
        // ... as wide as its scaler
        let wider_tree = tree_bytes(&[None], 2);
        assert!(matches!(
            decode_regressor(&mut Reader::new(&[&scaled[..], &wider_tree[..]].concat()), 1),
            Err(PersistError::Corrupt(_))
        ));
    }

    /// Every family refuses fitted state of another width than the rows
    /// its caller will feed it — narrower, wider, or (a tree) wide enough
    /// that a split would index past the row.
    #[test]
    fn a_model_is_as_wide_as_the_rows_it_will_predict() {
        use crate::knn::KnnWeights;
        let (x, y) = training_data(30);
        let families: [Box<dyn Regressor>; 9] = [
            Box::new(Ridge::new(1.0)),
            Box::new(PolynomialRegression::new(3, 1.0)),
            Box::new(RegressionTree::new(Default::default())),
            Box::new(RandomForest::new(Default::default())),
            Box::new(GradientBoosting::new(Default::default())),
            Box::new(KnnRegressor::new(3, KnnWeights::Uniform)),
            Box::new(MlpRegressor::new(crate::mlp::MlpParams { epochs: 2, ..Default::default() })),
            Box::new(SvrRegressor::new(Default::default())),
            Box::new(ScaledModel::new(Box::new(Ridge::new(1.0)))),
        ];
        for (i, mut m) in families.into_iter().enumerate() {
            m.fit(&x, &y);
            let mut w = Writer::new();
            m.encode(&mut w);
            let bytes = w.into_bytes();
            assert!(decode_regressor(&mut Reader::new(&bytes), x.cols).is_ok(), "family {i}");
            for wrong in [0, x.cols - 1, x.cols + 1, 40] {
                assert!(
                    matches!(
                        decode_regressor(&mut Reader::new(&bytes), wrong),
                        Err(PersistError::Corrupt(_))
                    ),
                    "family {i} fitted on {} columns loaded as {wrong} wide",
                    x.cols
                );
            }
        }
    }

    /// `decode` promises that what it returns can `predict_row`: the five
    /// models whose prediction asserts "fit before predict" refuse their
    /// never-fitted bytes, the other four load and predict.
    #[test]
    fn a_model_that_decodes_can_predict() {
        use crate::knn::KnnWeights;
        let round_trip = |m: &dyn Regressor| {
            let mut w = Writer::new();
            m.encode(&mut w);
            decode_regressor(&mut Reader::new(&w.into_bytes()), 0)
        };
        let refused: [Box<dyn Regressor>; 5] = [
            Box::new(RegressionTree::new(Default::default())),
            Box::new(RandomForest::new(Default::default())),
            Box::new(KnnRegressor::new(1, KnnWeights::Uniform)),
            Box::new(MlpRegressor::new(Default::default())),
            Box::new(ScaledModel::new(Box::new(Ridge::new(1.0)))),
        ];
        for m in &refused {
            assert!(matches!(round_trip(m.as_ref()), Err(PersistError::Corrupt(_))));
        }
        let loaded: [Box<dyn Regressor>; 4] = [
            Box::new(Ridge::new(1.0)),
            Box::new(PolynomialRegression::new(2, 1.0)),
            Box::new(SvrRegressor::new(Default::default())),
            Box::new(GradientBoosting::new(Default::default())),
        ];
        for m in &loaded {
            assert_eq!(round_trip(m.as_ref()).unwrap().predict_row(&[]), 0.0);
        }
    }
}
