//! Matrix Market I/O.
//!
//! The paper's artifact only accepts `.mtx` files (appendix A.5); this module
//! implements the same entry point so real SuiteSparse downloads can be
//! dropped into the harness alongside the synthetic dataset. Supports the
//! `coordinate` container with `real`, `integer`, and `pattern` fields and
//! `general`, `symmetric`, and `skew-symmetric` symmetry.

use crate::{Coo, Csr, FormatError, Scalar};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Real,
    Integer,
    Pattern,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

fn parse_header(line: &str) -> Result<(Field, Symmetry), FormatError> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let bad = |msg: &str| FormatError::Parse(format!("{msg}: {line:?}"));
    if tokens.len() != 5 || !tokens[0].eq_ignore_ascii_case("%%MatrixMarket") {
        return Err(bad("malformed MatrixMarket header"));
    }
    if !tokens[1].eq_ignore_ascii_case("matrix") || !tokens[2].eq_ignore_ascii_case("coordinate") {
        return Err(bad("only `matrix coordinate` files are supported"));
    }
    let field = match tokens[3].to_ascii_lowercase().as_str() {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => return Err(bad(&format!("unsupported field type {other:?}"))),
    };
    let symmetry = match tokens[4].to_ascii_lowercase().as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        other => return Err(bad(&format!("unsupported symmetry {other:?}"))),
    };
    Ok((field, symmetry))
}

/// Reads a Matrix Market stream into triplet form.
pub fn read_matrix_market<T: Scalar, R: BufRead>(reader: R) -> Result<Coo<T>, FormatError> {
    let mut lines = reader.lines();
    let header = lines
        .next()
        .ok_or_else(|| FormatError::Parse("empty file".into()))?
        .map_err(|e| FormatError::Parse(e.to_string()))?;
    let (field, symmetry) = parse_header(&header)?;

    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line.map_err(|e| FormatError::Parse(e.to_string()))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        size_line = Some(line);
        break;
    }
    let size_line = size_line.ok_or_else(|| FormatError::Parse("missing size line".into()))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| {
            t.parse::<usize>()
                .map_err(|e| FormatError::Parse(e.to_string()))
        })
        .collect::<Result<_, _>>()?;
    if dims.len() != 3 {
        return Err(FormatError::Parse(format!(
            "size line must have 3 fields, got {size_line:?}"
        )));
    }
    let (nrows, ncols, declared_nnz) = (dims[0], dims[1], dims[2]);
    // Coordinates are stored as `u32`, so a wider shape could not be
    // indexed. The declared entry count is only checked against what the
    // file holds: sizing a buffer from it would let a three-line file ask
    // for any amount of memory.
    if nrows.max(ncols) > u32::MAX as usize {
        return Err(FormatError::Parse(format!(
            "size {nrows}x{ncols} exceeds the 32-bit index width"
        )));
    }

    let mut coo = Coo::new(nrows, ncols);
    let mut seen = 0usize;
    for line in lines {
        let line = line.map_err(|e| FormatError::Parse(e.to_string()))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let r: usize = it
            .next()
            .ok_or_else(|| FormatError::Parse("missing row".into()))?
            .parse()
            .map_err(|e: std::num::ParseIntError| FormatError::Parse(e.to_string()))?;
        let c: usize = it
            .next()
            .ok_or_else(|| FormatError::Parse("missing col".into()))?
            .parse()
            .map_err(|e: std::num::ParseIntError| FormatError::Parse(e.to_string()))?;
        let v = match field {
            Field::Pattern => T::ONE,
            Field::Real | Field::Integer => {
                let raw = it
                    .next()
                    .ok_or_else(|| FormatError::Parse("missing value".into()))?;
                T::from_f64(
                    raw.parse::<f64>()
                        .map_err(|e| FormatError::Parse(e.to_string()))?,
                )
            }
        };
        if r == 0 || c == 0 || r > nrows || c > ncols {
            return Err(FormatError::Parse(format!(
                "coordinate ({r}, {c}) out of declared bounds {nrows}x{ncols} (1-based)"
            )));
        }
        let (r0, c0) = ((r - 1) as u32, (c - 1) as u32);
        coo.push(r0, c0, v);
        match symmetry {
            Symmetry::General => {}
            Symmetry::Symmetric if r0 != c0 => coo.push(c0, r0, v),
            Symmetry::SkewSymmetric if r0 != c0 => coo.push(c0, r0, -v),
            _ => {}
        }
        seen += 1;
    }
    if seen != declared_nnz {
        return Err(FormatError::Parse(format!(
            "declared {declared_nnz} entries but found {seen}"
        )));
    }
    Ok(coo)
}

/// Reads a `.mtx` file into triplet form.
pub fn read_matrix_market_file<T: Scalar>(path: impl AsRef<Path>) -> Result<Coo<T>, FormatError> {
    let file = std::fs::File::open(path).map_err(|e| FormatError::Parse(e.to_string()))?;
    read_matrix_market(BufReader::new(file))
}

/// Writes a CSR matrix as `matrix coordinate real general`.
pub fn write_matrix_market<T: Scalar, W: Write>(
    csr: &Csr<T>,
    mut writer: W,
) -> Result<(), FormatError> {
    let io_err = |e: std::io::Error| FormatError::Parse(e.to_string());
    writeln!(writer, "%%MatrixMarket matrix coordinate real general").map_err(io_err)?;
    writeln!(writer, "{} {} {}", csr.nrows, csr.ncols, csr.nnz()).map_err(io_err)?;
    for row in 0..csr.nrows {
        let (cols, vals) = csr.row(row);
        for (&c, &v) in cols.iter().zip(vals) {
            writeln!(writer, "{} {} {:e}", row + 1, c + 1, v.to_f64()).map_err(io_err)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<Coo<f64>, FormatError> {
        read_matrix_market(text.as_bytes())
    }

    #[test]
    fn parses_general_real() {
        let coo = parse(
            "%%MatrixMarket matrix coordinate real general\n\
             % a comment\n\
             3 3 2\n\
             1 1 2.5\n\
             3 2 -1.0\n",
        )
        .unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.get(0, 0), Some(2.5));
        assert_eq!(csr.get(2, 1), Some(-1.0));
        assert_eq!(csr.nnz(), 2);
    }

    #[test]
    fn symmetric_mirrors_off_diagonals() {
        let coo = parse(
            "%%MatrixMarket matrix coordinate real symmetric\n\
             3 3 2\n\
             2 1 4.0\n\
             3 3 1.0\n",
        )
        .unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.get(0, 1), Some(4.0));
        assert_eq!(csr.get(1, 0), Some(4.0));
    }

    #[test]
    fn skew_symmetric_negates_mirror() {
        let coo = parse(
            "%%MatrixMarket matrix coordinate real skew-symmetric\n\
             2 2 1\n\
             2 1 3.0\n",
        )
        .unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.get(1, 0), Some(3.0));
        assert_eq!(csr.get(0, 1), Some(-3.0));
    }

    #[test]
    fn pattern_entries_become_ones() {
        let coo = parse(
            "%%MatrixMarket matrix coordinate pattern general\n\
             2 2 2\n\
             1 2\n\
             2 1\n",
        )
        .unwrap();
        assert!(coo.entries.iter().all(|&(_, _, v)| v == 1.0));
    }

    #[test]
    fn rejects_wrong_counts_and_bounds() {
        assert!(parse("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n").is_err());
        assert!(parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n").is_err());
        assert!(parse("%%MatrixMarket matrix array real general\n2 2 1\n").is_err());
        assert!(parse("not a header\n1 1 0\n").is_err());
    }

    #[test]
    fn hostile_declared_counts_are_format_errors() {
        for symmetry in ["general", "symmetric"] {
            let err = parse(&format!(
                "%%MatrixMarket matrix coordinate real {symmetry}\n\
                 2 2 18446744073709551615\n\
                 1 1 1.0\n"
            ))
            .unwrap_err();
            assert!(err.to_string().contains("declared"), "{symmetry}: {err}");
        }
    }

    #[test]
    fn rejects_shapes_wider_than_u32_indices() {
        let err = parse("%%MatrixMarket matrix coordinate real general\n4294967297 1 1\n1 1 1.0\n")
            .unwrap_err();
        assert!(err.to_string().contains("32-bit"), "{err}");
        // The widest shape a `u32` index covers is still read.
        let coo = parse(
            "%%MatrixMarket matrix coordinate real general\n4294967295 1 1\n4294967295 1 2.0\n",
        )
        .unwrap();
        assert_eq!(coo.entries, vec![(u32::MAX - 1, 0, 2.0)]);
    }

    #[test]
    fn write_read_round_trip() {
        let csr =
            Csr::from_parts(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.5, -2.0, 0.25]).unwrap();
        let mut buf = Vec::new();
        write_matrix_market(&csr, &mut buf).unwrap();
        let back = read_matrix_market::<f64, _>(buf.as_slice())
            .unwrap()
            .to_csr();
        assert_eq!(back, csr);
    }
}
