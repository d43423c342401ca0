//! Plain-text persistence for relations (the import/export path; binary
//! cold starts live in [`crate::durable`]).
//!
//! A deliberately tiny line format (no external dependencies):
//!
//! ```text
//! # simq-relation v2
//! # name=<relation> len=<series length> k=<coeffs> rep=<polar|rect> stats=<0|1>
//! <row id>,<row name>,<v1>,<v2>,…,<vn>
//! ```
//!
//! Values round-trip through `f64`'s shortest-exact formatting, so
//! save → load reproduces the relation bit-for-bit. `v2` carries the row
//! id as the first field, so save → load keeps id-based references (query
//! `ROW <id>` sources, result comparisons) valid; the `v1` format — the
//! same lines without the id field — is still read, assigning sequential
//! ids in file order.
//!
//! Malformed input of any kind (bad header fields, non-numeric values,
//! truncated rows, duplicate ids) produces [`LoadError::Format`] with the
//! offending line number — never a panic.

use crate::relation::SeriesRelation;
use simq_series::features::{FeatureScheme, Representation};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Serializes a relation to the text format.
pub fn to_string(relation: &SeriesRelation) -> String {
    let scheme = relation.scheme();
    let rep = match scheme.rep {
        Representation::Polar => "polar",
        Representation::Rectangular => "rect",
    };
    let mut out = String::new();
    out.push_str("# simq-relation v2\n");
    let _ = writeln!(
        out,
        "# name={} len={} k={} rep={} stats={}",
        relation.name(),
        relation.series_len(),
        scheme.k,
        rep,
        u8::from(scheme.include_stats),
    );
    for row in relation.rows() {
        let _ = write!(out, "{},{}", row.id, row.name);
        for v in &row.raw {
            let _ = write!(out, ",{v}");
        }
        out.push('\n');
    }
    out
}

/// Errors from parsing the text format.
#[derive(Debug)]
pub enum LoadError {
    /// I/O failure.
    Io(io::Error),
    /// Structural problem with the file, with a human-readable reason.
    Format(String),
    /// A row failed feature extraction.
    Series(simq_series::error::SeriesError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::Format(m) => write!(f, "format error: {m}"),
            LoadError::Series(e) => write!(f, "series error: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Parses a relation from the text format (`v2` with row ids, or legacy
/// `v1` without — ids are then assigned sequentially in file order).
pub fn from_str(text: &str) -> Result<SeriesRelation, LoadError> {
    let mut lines = text.lines();
    let magic = lines
        .next()
        .ok_or_else(|| LoadError::Format("empty file".into()))?;
    let with_ids = match magic.trim() {
        "# simq-relation v1" => false,
        "# simq-relation v2" => true,
        _ => {
            return Err(LoadError::Format(format!(
                "line 1: bad magic line {magic:?}"
            )))
        }
    };
    let header = lines
        .next()
        .ok_or_else(|| LoadError::Format("line 2: missing header".into()))?;
    let mut name = String::new();
    let mut len = 0usize;
    let mut k = 0usize;
    let mut rep = Representation::Polar;
    let mut stats = true;
    for field in header.trim_start_matches('#').split_whitespace() {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| LoadError::Format(format!("line 2: bad header field {field:?}")))?;
        match key {
            "name" => name = value.to_string(),
            "len" => {
                len = value
                    .parse()
                    .map_err(|_| LoadError::Format(format!("line 2: bad len {value:?}")))?
            }
            "k" => {
                k = value
                    .parse()
                    .map_err(|_| LoadError::Format(format!("line 2: bad k {value:?}")))?
            }
            "rep" => {
                rep = match value {
                    "polar" => Representation::Polar,
                    "rect" => Representation::Rectangular,
                    other => {
                        return Err(LoadError::Format(format!(
                            "line 2: unknown representation {other:?}"
                        )))
                    }
                }
            }
            "stats" => stats = value != "0",
            other => {
                return Err(LoadError::Format(format!(
                    "line 2: unknown header key {other:?}"
                )))
            }
        }
    }
    if len == 0 || k == 0 {
        return Err(LoadError::Format("line 2: header missing len or k".into()));
    }
    if len <= k {
        // `SeriesRelation::new` asserts this; turn a malformed header into
        // an error instead of a panic.
        return Err(LoadError::Format(format!(
            "line 2: len {len} cannot provide k={k} coefficients"
        )));
    }
    let scheme = FeatureScheme::new(k, rep, stats);
    let mut relation = SeriesRelation::new(name, len, scheme);
    for (lineno, line) in lines.enumerate() {
        let lineno = lineno + 3; // 1-based; lines 1–2 are magic and header
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split(',');
        let id =
            if with_ids {
                let field = parts
                    .next()
                    .ok_or_else(|| LoadError::Format(format!("line {lineno}: empty")))?;
                Some(field.trim().parse::<u64>().map_err(|_| {
                    LoadError::Format(format!("line {lineno}: bad row id {field:?}"))
                })?)
            } else {
                None
            };
        let row_name = parts
            .next()
            .ok_or_else(|| LoadError::Format(format!("line {lineno}: missing row name")))?;
        let values: Result<Vec<f64>, _> = parts.map(str::parse::<f64>).collect();
        let values = values.map_err(|e| LoadError::Format(format!("line {lineno}: {e}")))?;
        if values.len() != len {
            // A truncated (or overlong) row is a file-format problem, not a
            // series problem — report it with its line number.
            return Err(LoadError::Format(format!(
                "line {lineno}: expected {len} values, got {}",
                values.len()
            )));
        }
        let result = match id {
            Some(id) => relation.insert_with_id(id, row_name, values),
            None => relation.insert(row_name, values).map(|_| 0),
        };
        match result {
            Ok(_) => {}
            Err(simq_series::error::SeriesError::DuplicateRowId(id)) => {
                return Err(LoadError::Format(format!(
                    "line {lineno}: duplicate row id {id}"
                )))
            }
            Err(e) => return Err(LoadError::Series(e)),
        }
    }
    Ok(relation)
}

/// Saves a relation to a file.
///
/// # Errors
/// I/O errors from the filesystem.
pub fn save(relation: &SeriesRelation, path: impl AsRef<Path>) -> io::Result<()> {
    fs::write(path, to_string(relation))
}

/// Loads a relation from a file.
///
/// # Errors
/// [`LoadError`] on I/O or parse failure.
pub fn load(path: impl AsRef<Path>) -> Result<SeriesRelation, LoadError> {
    from_str(&fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_relation() -> SeriesRelation {
        let mut rel = SeriesRelation::new(
            "demo",
            16,
            FeatureScheme::new(2, Representation::Polar, true),
        );
        for i in 0..5 {
            let s: Vec<f64> = (0..16)
                .map(|t| 10.0 + i as f64 * 0.5 + ((t + i) as f64 * 0.7).sin())
                .collect();
            rel.insert(format!("row{i}"), s).unwrap();
        }
        rel
    }

    #[test]
    fn roundtrip_is_exact() {
        let rel = sample_relation();
        let text = to_string(&rel);
        let back = from_str(&text).unwrap();
        assert_eq!(back.name(), rel.name());
        assert_eq!(back.len(), rel.len());
        assert_eq!(back.series_len(), rel.series_len());
        assert_eq!(back.scheme(), rel.scheme());
        for (a, b) in rel.rows().zip(back.rows()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.name, b.name);
            assert_eq!(a.raw, b.raw); // bit-exact
        }
    }

    #[test]
    fn v2_roundtrip_preserves_noncontiguous_ids() {
        let mut rel = SeriesRelation::new(
            "gaps",
            16,
            FeatureScheme::new(2, Representation::Polar, true),
        );
        for id in [5u64, 2, 9] {
            let s: Vec<f64> = (0..16)
                .map(|t| 3.0 + id as f64 + (t as f64 * 0.4).sin())
                .collect();
            rel.insert_with_id(id, format!("row{id}"), s).unwrap();
        }
        let back = from_str(&to_string(&rel)).unwrap();
        let ids: Vec<u64> = back.rows().map(|r| r.id).collect();
        assert_eq!(ids, vec![5, 2, 9]);
        assert_eq!(back.row(9).unwrap().name, "row9");
        assert!(back.row(0).is_none());
    }

    #[test]
    fn reads_legacy_v1_with_sequential_ids() {
        let text = "# simq-relation v1\n# name=old len=4 k=1 rep=rect stats=1\n\
                    a,1,2,3,4\nb,2,3,4,6\n";
        let rel = from_str(text).unwrap();
        let ids: Vec<u64> = rel.rows().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(rel.row(1).unwrap().name, "b");
    }

    #[test]
    fn file_roundtrip() {
        let rel = sample_relation();
        let dir = std::env::temp_dir().join("simq-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rel.txt");
        save(&rel, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.len(), rel.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(matches!(from_str("nope"), Err(LoadError::Format(_))));
        assert!(matches!(
            from_str("# simq-relation v9\n"),
            Err(LoadError::Format(_))
        ));
    }

    #[test]
    fn rejects_bad_values() {
        let text = "# simq-relation v1\n# name=x len=4 k=1 rep=polar stats=1\nrow,1,2,3,abc\n";
        let err = from_str(text).unwrap_err();
        let LoadError::Format(msg) = err else {
            panic!("expected format error, got {err:?}");
        };
        assert!(msg.starts_with("line 3:"), "{msg}");
    }

    #[test]
    fn truncated_final_line_reports_line_number() {
        // Three good rows, then a final row cut off mid-series.
        let rel = sample_relation();
        let mut text = to_string(&rel);
        text.truncate(text.trim_end().rfind(',').unwrap());
        text.push('\n');
        let err = from_str(&text).unwrap_err();
        let LoadError::Format(msg) = err else {
            panic!("expected format error, got {err:?}");
        };
        assert!(msg.starts_with("line 7:"), "{msg}");
        assert!(msg.contains("expected 16 values, got 15"), "{msg}");
    }

    #[test]
    fn rejects_wrong_length_row() {
        let text = "# simq-relation v1\n# name=x len=4 k=1 rep=polar stats=1\nrow,1,2,3\n";
        let err = from_str(text).unwrap_err();
        let LoadError::Format(msg) = err else {
            panic!("expected format error, got {err:?}");
        };
        assert!(msg.contains("line 3"), "{msg}");
        assert!(msg.contains("expected 4 values, got 3"), "{msg}");
    }

    #[test]
    fn rejects_malformed_header_fields() {
        for (text, needle) in [
            (
                "# simq-relation v2\n# name=x len=4 k=1 rep polar stats=1\n",
                "bad header field",
            ),
            ("# simq-relation v2\n# name=x len=four k=1\n", "bad len"),
            ("# simq-relation v2\n# name=x len=4 k=zz\n", "bad k"),
            (
                "# simq-relation v2\n# name=x len=4 k=1 rep=banana\n",
                "unknown representation",
            ),
            (
                "# simq-relation v2\n# name=x len=4 k=1 color=red\n",
                "unknown header key",
            ),
            (
                "# simq-relation v2\n# name=x len=0 k=1\n",
                "missing len or k",
            ),
            ("# simq-relation v2\n", "missing header"),
        ] {
            let err = from_str(text).unwrap_err();
            let LoadError::Format(msg) = err else {
                panic!("expected format error for {text:?}, got {err:?}");
            };
            assert!(msg.contains(needle), "{text:?} → {msg}");
            assert!(msg.contains("line 2"), "{text:?} → {msg}");
        }
    }

    #[test]
    fn header_len_not_above_k_is_an_error_not_a_panic() {
        let text = "# simq-relation v2\n# name=x len=4 k=9 rep=polar stats=1\n";
        let err = from_str(text).unwrap_err();
        let LoadError::Format(msg) = err else {
            panic!("expected format error, got {err:?}");
        };
        assert!(msg.contains("cannot provide"), "{msg}");
    }

    #[test]
    fn rejects_bad_and_duplicate_ids() {
        let good = "# simq-relation v2\n# name=x len=4 k=1 rep=rect stats=1\n";
        let err = from_str(&format!("{good}seven,a,1,2,3,4\n")).unwrap_err();
        let LoadError::Format(msg) = err else {
            panic!("expected format error, got {err:?}");
        };
        assert!(
            msg.contains("line 3") && msg.contains("bad row id"),
            "{msg}"
        );
        let err = from_str(&format!("{good}0,a,1,2,3,4\n0,b,2,3,4,6\n")).unwrap_err();
        let LoadError::Format(msg) = err else {
            panic!("expected format error, got {err:?}");
        };
        assert!(
            msg.contains("line 4") && msg.contains("duplicate row id"),
            "{msg}"
        );
    }

    #[test]
    fn row_level_series_errors_still_surface() {
        // A constant series passes the length check but fails extraction.
        let text = "# simq-relation v2\n# name=x len=4 k=1 rep=polar stats=1\n0,flat,5,5,5,5\n";
        assert!(matches!(from_str(text), Err(LoadError::Series(_))));
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let rel = sample_relation();
        let mut text = to_string(&rel);
        text.push_str("\n# trailing comment\n\n");
        let back = from_str(&text).unwrap();
        assert_eq!(back.len(), rel.len());
    }
}
