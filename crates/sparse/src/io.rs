//! Matrix Market (`.mtx`) reading and writing.
//!
//! Supports the `matrix coordinate` format in `pattern`, `real`, `integer`
//! and `complex` fields with `general`, `symmetric` and `skew-symmetric`
//! storage (symmetric storage is expanded to the full pattern, which is what
//! the partitioning pipeline expects). Values are parsed for validation but
//! discarded — see the crate-level note on pattern-only storage.

use std::io::{Read, Write};
use std::path::Path;

use crate::{Coo, Idx, SparseError};

/// How the file stores symmetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

/// Number of value tokens that follow the two coordinates on each line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Pattern,
    Real,
    Integer,
    Complex,
}

impl Field {
    fn value_tokens(self) -> usize {
        match self {
            Field::Pattern => 0,
            Field::Real | Field::Integer => 1,
            Field::Complex => 2,
        }
    }
}

/// Reads a Matrix Market file from any reader: reads it whole, then
/// [`parse_matrix_market`].
pub fn read_matrix_market<R: Read>(mut reader: R) -> Result<Coo, SparseError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    parse_matrix_market(&bytes)
}

/// The lines of `text` as [`std::io::BufRead::lines`] yields them: split
/// at `\n`, a `\r` before a `\n` dropped, no empty line after a final
/// `\n`. With `invalid`, `text` is the valid UTF-8 prefix of the input,
/// and the line it ends in is the same I/O error as there.
fn lines(text: &str, invalid: bool) -> impl Iterator<Item = Result<&str, SparseError>> {
    let mut segments = text.split('\n').peekable();
    std::iter::from_fn(move || {
        let segment = segments.next()?;
        Some(match segments.peek() {
            Some(_) => Ok(segment.strip_suffix('\r').unwrap_or(segment)),
            None if invalid => Err(SparseError::from(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            ))),
            None if segment.is_empty() => return None,
            None => Ok(segment),
        })
    })
}

/// The tokens of `line` as [`str::split_whitespace`] yields them, stepping
/// over ASCII bytes without decoding characters.
fn tokens(line: &str) -> impl Iterator<Item = &str> {
    // Whether the character at byte `i` is whitespace, and its length.
    let char_at = move |i: usize| match line.as_bytes()[i] {
        b if b.is_ascii() => (matches!(b, b'\t'..=b'\r' | b' '), 1),
        _ => {
            let c = line[i..].chars().next().expect("a character starts at i");
            (c.is_whitespace(), c.len_utf8())
        }
    };
    let mut at = 0;
    std::iter::from_fn(move || {
        let mut start = None;
        while at < line.len() {
            let (space, len) = char_at(at);
            match (space, start) {
                (true, Some(_)) => break,
                (false, None) => start = Some(at),
                _ => {}
            }
            at += len;
        }
        start.map(|start| &line[start..at])
    })
}

/// Parses a Matrix Market document held in memory, line by line in
/// place: no line is copied.
pub fn parse_matrix_market(bytes: &[u8]) -> Result<Coo, SparseError> {
    let (text, invalid) = match std::str::from_utf8(bytes) {
        Ok(text) => (text, false),
        Err(e) => (
            std::str::from_utf8(&bytes[..e.valid_up_to()]).expect("a valid prefix"),
            true,
        ),
    };
    let mut lines = lines(text, invalid).enumerate();

    // Header line.
    let (line_no, header) = loop {
        match lines.next() {
            Some((no, line)) => {
                let line = line?;
                if tokens(line).next().is_some() {
                    break (no + 1, line);
                }
            }
            None => return Err(SparseError::Parse(0, "empty file".into())),
        }
    };
    let words: Vec<String> = tokens(header).map(|t| t.to_ascii_lowercase()).collect();
    if words.len() < 5 || words[0] != "%%matrixmarket" || words[1] != "matrix" {
        return Err(SparseError::Parse(
            line_no,
            format!("bad header: {header:?}"),
        ));
    }
    if words[2] != "coordinate" {
        return Err(SparseError::Parse(
            line_no,
            format!("unsupported format {:?} (only coordinate)", words[2]),
        ));
    }
    let field = match words[3].as_str() {
        "pattern" => Field::Pattern,
        "real" => Field::Real,
        "integer" => Field::Integer,
        "complex" => Field::Complex,
        other => {
            return Err(SparseError::Parse(
                line_no,
                format!("unsupported field {other:?}"),
            ))
        }
    };
    let symmetry = match words[4].as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        // Hermitian patterns behave like symmetric ones.
        "hermitian" => Symmetry::Symmetric,
        other => {
            return Err(SparseError::Parse(
                line_no,
                format!("unsupported symmetry {other:?}"),
            ))
        }
    };

    // Size line (first non-comment, non-blank line).
    let (size_line_no, size_line) = loop {
        match lines.next() {
            Some((no, line)) => {
                let line = line?;
                if tokens(line)
                    .next()
                    .is_some_and(|first| !first.starts_with('%'))
                {
                    break (no + 1, line);
                }
            }
            None => return Err(SparseError::Parse(line_no, "missing size line".into())),
        }
    };
    let dims: Vec<&str> = tokens(size_line).collect();
    if dims.len() != 3 {
        return Err(SparseError::Parse(
            size_line_no,
            format!("size line must have 3 fields, got {:?}", size_line),
        ));
    }
    let parse_dim = |s: &str, no: usize| -> Result<u64, SparseError> {
        s.parse::<u64>()
            .map_err(|e| SparseError::Parse(no, format!("bad integer {s:?}: {e}")))
    };
    let m = parse_dim(dims[0], size_line_no)?;
    let n = parse_dim(dims[1], size_line_no)?;
    let declared_nnz = parse_dim(dims[2], size_line_no)? as usize;
    if m >= Idx::MAX as u64 || n >= Idx::MAX as u64 {
        return Err(SparseError::Parse(
            size_line_no,
            "dimensions exceed u32 index space".into(),
        ));
    }

    // Cap the pre-allocation: a hostile size line must not be able to
    // reserve gigabytes before a single entry has been parsed. The vector
    // still grows to whatever the file actually contains.
    let mut entries: Vec<(Idx, Idx)> = Vec::with_capacity(declared_nnz.min(1 << 22));
    let mut seen = 0usize;
    let expected_tokens = 2 + field.value_tokens();
    for (no, line) in lines {
        let mut split = tokens(line?);
        // Blank lines and comments; then the coordinates and values in
        // place, and the rest only counted.
        let mut words = match split.next() {
            Some(first) if !first.starts_with('%') => [first, "", "", ""],
            _ => continue,
        };
        let mut found = 1;
        for token in split.by_ref().take(expected_tokens - 1) {
            words[found] = token;
            found += 1;
        }
        if found < expected_tokens {
            return Err(SparseError::TruncatedEntry {
                line: no + 1,
                expected: expected_tokens,
                found,
            });
        }
        let trailing = split.count();
        if trailing > 0 {
            return Err(SparseError::Parse(
                no + 1,
                format!("{trailing} trailing token(s) after a complete entry"),
            ));
        }
        let i = parse_dim(words[0], no + 1)?;
        let j = parse_dim(words[1], no + 1)?;
        // Coordinates are 1-based; zero smells like 0-based indexing and is
        // rejected rather than silently shifted.
        if i == 0 || j == 0 || i > m || j > n {
            return Err(SparseError::EntryOutOfRange {
                line: no + 1,
                row: i,
                col: j,
                rows: m,
                cols: n,
            });
        }
        let (i0, j0) = ((i - 1) as Idx, (j - 1) as Idx);
        entries.push((i0, j0));
        match symmetry {
            Symmetry::General => {}
            Symmetry::Symmetric if i0 != j0 => entries.push((j0, i0)),
            Symmetry::SkewSymmetric if i0 != j0 => entries.push((j0, i0)),
            _ => {}
        }
        seen += 1;
    }
    if seen != declared_nnz {
        return Err(SparseError::CountMismatch {
            declared: declared_nnz,
            found: seen,
        });
    }
    Coo::new(m as Idx, n as Idx, entries)
}

/// Reads a Matrix Market file from disk.
pub fn read_matrix_market_file<P: AsRef<Path>>(path: P) -> Result<Coo, SparseError> {
    let file = std::fs::File::open(path)?;
    read_matrix_market(file)
}

/// Writes a matrix as `matrix coordinate pattern general`.
pub fn write_matrix_market<W: Write>(a: &Coo, mut writer: W) -> Result<(), SparseError> {
    writeln!(writer, "%%MatrixMarket matrix coordinate pattern general")?;
    writeln!(writer, "% written by mg-sparse")?;
    writeln!(writer, "{} {} {}", a.rows(), a.cols(), a.nnz())?;
    for (i, j) in a.iter() {
        writeln!(writer, "{} {}", i + 1, j + 1)?;
    }
    Ok(())
}

/// Writes a matrix to a `.mtx` file on disk.
pub fn write_matrix_market_file<P: AsRef<Path>>(a: &Coo, path: P) -> Result<(), SparseError> {
    let file = std::fs::File::create(path)?;
    write_matrix_market(a, std::io::BufWriter::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_pattern_general() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    % a comment\n\
                    3 4 3\n\
                    1 1\n\
                    2 3\n\
                    3 4\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.rows(), 3);
        assert_eq!(a.cols(), 4);
        assert_eq!(a.entries(), &[(0, 0), (1, 2), (2, 3)]);
    }

    #[test]
    fn reads_real_values_and_discards_them() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    2 2 2\n\
                    1 2 3.5\n\
                    2 1 -1e-3\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.entries(), &[(0, 1), (1, 0)]);
    }

    #[test]
    fn expands_symmetric_storage() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    3 3 3\n\
                    1 1 1.0\n\
                    2 1 2.0\n\
                    3 2 3.0\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.entries(), &[(0, 0), (0, 1), (1, 0), (1, 2), (2, 1)]);
        assert!(a.is_pattern_symmetric());
    }

    #[test]
    fn rejects_bad_header_and_counts() {
        assert!(read_matrix_market("garbage\n1 1 0\n".as_bytes()).is_err());
        let short = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n";
        assert!(read_matrix_market(short.as_bytes()).is_err());
        let oob = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n";
        assert!(read_matrix_market(oob.as_bytes()).is_err());
    }

    #[test]
    fn roundtrip() {
        let a = Coo::new(5, 3, vec![(0, 0), (2, 1), (4, 2), (1, 1)]).unwrap();
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        let b = read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn roundtrip_empty() {
        let a = Coo::empty(2, 2);
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        let b = read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn reads_skew_symmetric_and_hermitian() {
        let skew = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                    3 3 2\n\
                    2 1 1.0\n\
                    3 1 -2.0\n";
        let a = read_matrix_market(skew.as_bytes()).unwrap();
        // Off-diagonal entries mirrored: 4 stored nonzeros.
        assert_eq!(a.nnz(), 4);
        assert!(a.contains(0, 1) && a.contains(1, 0));

        let herm = "%%MatrixMarket matrix coordinate complex hermitian\n\
                    2 2 2\n\
                    1 1 1.0 0.0\n\
                    2 1 0.5 -0.5\n";
        let b = read_matrix_market(herm.as_bytes()).unwrap();
        assert_eq!(b.nnz(), 3);
        assert!(b.is_pattern_symmetric());
    }

    #[test]
    fn rejects_missing_value_tokens() {
        let bad = "%%MatrixMarket matrix coordinate real general\n\
                   2 2 1\n\
                   1 1\n";
        assert!(read_matrix_market(bad.as_bytes()).is_err());
        let bad_complex = "%%MatrixMarket matrix coordinate complex general\n\
                           2 2 1\n\
                           1 1 1.0\n";
        assert!(read_matrix_market(bad_complex.as_bytes()).is_err());
    }

    #[test]
    fn rejects_unsupported_formats() {
        let arr = "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n";
        assert!(read_matrix_market(arr.as_bytes()).is_err());
        let field = "%%MatrixMarket matrix coordinate quaternion general\n1 1 0\n";
        assert!(read_matrix_market(field.as_bytes()).is_err());
    }

    #[test]
    fn tolerates_blank_lines_and_comments_between_entries() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    \n\
                    % leading comment\n\
                    2 2 2\n\
                    % interior comment\n\
                    1 1\n\
                    \n\
                    2 2\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn rejects_zero_based_indices_with_a_typed_error() {
        for (bad_entry, row, col) in [("0 1", 0, 1), ("1 0", 1, 0)] {
            let text =
                format!("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n{bad_entry}\n");
            match read_matrix_market(text.as_bytes()) {
                Err(SparseError::EntryOutOfRange {
                    line,
                    row: r,
                    col: c,
                    rows,
                    cols,
                }) => {
                    assert_eq!((line, r, c, rows, cols), (3, row, col, 2, 2));
                }
                other => panic!("expected EntryOutOfRange, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_out_of_range_indices_with_a_typed_error() {
        for bad_entry in ["3 1", "1 4", "99 99"] {
            let text =
                format!("%%MatrixMarket matrix coordinate pattern general\n2 3 1\n{bad_entry}\n");
            assert!(matches!(
                read_matrix_market(text.as_bytes()),
                Err(SparseError::EntryOutOfRange { line: 3, .. })
            ));
        }
    }

    #[test]
    fn rejects_truncated_entry_lines_with_a_typed_error() {
        // Pattern entry missing its column.
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1\n";
        assert_eq!(
            read_matrix_market(text.as_bytes()),
            Err(SparseError::TruncatedEntry {
                line: 3,
                expected: 2,
                found: 1
            })
        );
        // Real entry missing its value.
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n";
        assert_eq!(
            read_matrix_market(text.as_bytes()),
            Err(SparseError::TruncatedEntry {
                line: 3,
                expected: 3,
                found: 2
            })
        );
        // Complex entry with only one value token.
        let text = "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 0.5\n";
        assert_eq!(
            read_matrix_market(text.as_bytes()),
            Err(SparseError::TruncatedEntry {
                line: 3,
                expected: 4,
                found: 3
            })
        );
    }

    #[test]
    fn rejects_trailing_tokens_on_entry_lines() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1 7\n";
        assert!(matches!(
            read_matrix_market(text.as_bytes()),
            Err(SparseError::Parse(3, _))
        ));
    }

    #[test]
    fn rejects_count_mismatches_with_a_typed_error() {
        // Fewer entries than declared.
        let text = "%%MatrixMarket matrix coordinate pattern general\n3 3 3\n1 1\n2 2\n";
        assert_eq!(
            read_matrix_market(text.as_bytes()),
            Err(SparseError::CountMismatch {
                declared: 3,
                found: 2
            })
        );
        // More entries than declared.
        let text = "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 1\n2 2\n";
        assert_eq!(
            read_matrix_market(text.as_bytes()),
            Err(SparseError::CountMismatch {
                declared: 1,
                found: 2
            })
        );
    }

    #[test]
    fn hostile_declared_count_does_not_preallocate() {
        // A size line declaring 10^15 entries must fail with a count
        // mismatch (quickly), not attempt the allocation up front.
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1000000000000000\n1 1\n";
        assert_eq!(
            read_matrix_market(text.as_bytes()),
            Err(SparseError::CountMismatch {
                declared: 1_000_000_000_000_000,
                found: 1
            })
        );
    }

    #[test]
    fn rejects_non_numeric_coordinates() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\nx 1\n";
        assert!(matches!(
            read_matrix_market(text.as_bytes()),
            Err(SparseError::Parse(3, _))
        ));
        let negative = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n-1 1\n";
        assert!(matches!(
            read_matrix_market(negative.as_bytes()),
            Err(SparseError::Parse(3, _))
        ));
    }

    #[test]
    fn duplicate_entries_collapse() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    2 2 3\n\
                    1 1\n\
                    1 1\n\
                    2 2\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn file_roundtrip_on_disk() {
        let a = Coo::new(4, 4, vec![(0, 1), (3, 2)]).unwrap();
        let path = std::env::temp_dir().join("mg_sparse_io_test.mtx");
        write_matrix_market_file(&a, &path).unwrap();
        let b = read_matrix_market_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(a, b);
    }

    #[test]
    fn malformed_bodies_fail_with_pinned_messages() {
        let header = "%%MatrixMarket matrix coordinate real general\n";
        for (body, expected) in [
            (
                "3 3 2\n1 1 0.5\n2 2\n",
                "truncated entry on line 4: expected 3 token(s), found 2",
            ),
            (
                "3 3 2\r\n1 1 0.5\r\n% note\r\n4 1 1\r\n",
                "entry (4, 1) on line 5 out of range for a 3x3 matrix \
                 (coordinates are 1-based)",
            ),
            (
                "3 3 3\n1 1 1\n\n2 2 2\n",
                "size line declares 3 entries, file has 2",
            ),
            (
                "3 3 1\n1 1 1 9\n",
                "parse error on line 3: 1 trailing token(s) after a complete entry",
            ),
            (
                "3 3 1\n1 x 1\n",
                "parse error on line 3: bad integer \"x\": invalid digit found in string",
            ),
            (
                "3 3\n",
                "parse error on line 2: size line must have 3 fields, got \"3 3\"",
            ),
        ] {
            let text = format!("{header}{body}");
            let err = parse_matrix_market(text.as_bytes()).unwrap_err();
            assert_eq!(err.to_string(), expected, "{body:?}");
        }
        // A line that is not UTF-8 fails where it is read, as a stream
        // read by lines does; earlier errors win.
        let mut bytes = format!("{header}2 2 1\n1 1 1\n").into_bytes();
        bytes.extend_from_slice(b"\xff\n");
        assert_eq!(
            read_matrix_market(bytes.as_slice())
                .unwrap_err()
                .to_string(),
            "I/O error: stream did not contain valid UTF-8"
        );
        let mut bytes = format!("{header}2 2 1\n9 9 1\n").into_bytes();
        bytes.extend_from_slice(b"\xff\n");
        assert!(matches!(
            read_matrix_market(bytes.as_slice()),
            Err(SparseError::EntryOutOfRange { line: 3, .. })
        ));
    }
}
