//! Minimal RFC-4180-style CSV reader/writer.
//!
//! Real data lakes deliver CSVs that are truncated, mis-quoted, or
//! mis-encoded. Parsing is strict: structural damage is a typed
//! [`LidsError`] — unterminated quote at EOF, ragged rows, embedded NUL
//! bytes or invalid UTF-8 (`EncodingError`), and empty or header-only
//! input (`EmptyInput`) — so the KG Governor quarantines a damaged
//! artifact instead of silently mangling it. [`parse_csv_bytes`] is the
//! byte-level entry point, [`parse_csv_with`] the text-level one.

use lids_exec::{ErrorKind, LidsError, LidsResult};

use crate::table::{Column, Table};

/// Failure semantics for CSV parsing (see module docs). There is one; the
/// type stays because callers name it (the benchmark harness passes
/// `CsvMode::default()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CsvMode {
    /// Typed errors on structural or encoding damage.
    #[default]
    Strict,
}

/// Raw bytes of one not-yet-parsed table file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawTable {
    pub name: String,
    pub bytes: Vec<u8>,
}

impl RawTable {
    pub fn new(name: impl Into<String>, bytes: Vec<u8>) -> Self {
        RawTable { name: name.into(), bytes }
    }
}

/// A dataset of raw table files, the unit the KG Governor ingests from a
/// data lake before profiling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawDataset {
    pub name: String,
    pub tables: Vec<RawTable>,
}

impl RawDataset {
    pub fn new(name: impl Into<String>, tables: Vec<RawTable>) -> Self {
        RawDataset { name: name.into(), tables }
    }
}

/// Parse CSV bytes into a [`Table`]; invalid UTF-8 is an `EncodingError`.
pub fn parse_csv_bytes(name: &str, bytes: &[u8], mode: CsvMode) -> LidsResult<Table> {
    match std::str::from_utf8(bytes) {
        Ok(text) => parse_csv_with(name, text, mode),
        Err(e) => Err(LidsError::new(
            ErrorKind::EncodingError,
            format!("invalid UTF-8 at byte {}", e.valid_up_to()),
        )
        .with_artifact(name)),
    }
}

/// Parse CSV text into a [`Table`]. The first record is the header. Handles
/// quoted fields, embedded commas, doubled quotes, and embedded newlines;
/// structural damage is a typed error (see module docs).
pub fn parse_csv_with(name: &str, text: &str, _mode: CsvMode) -> LidsResult<Table> {
    let err = |kind, message: String| Err(LidsError::new(kind, message).with_artifact(name));
    if text.contains('\0') {
        return err(ErrorKind::EncodingError, "input contains NUL bytes".into());
    }
    let parsed = parse_records(text);
    if parsed.unterminated_quote {
        return err(
            ErrorKind::CsvMalformed,
            "unterminated quoted field at end of input".into(),
        );
    }
    let mut records = parsed.records.into_iter();
    let Some(header) = records.next() else {
        return err(ErrorKind::EmptyInput, "no records in input".into());
    };
    if records.as_slice().is_empty() {
        return err(ErrorKind::EmptyInput, "header-only input, no data rows".into());
    }
    let ncols = header.len();
    let mut columns: Vec<Column> = header
        .into_iter()
        .map(|h| Column::new(h.trim().to_string(), Vec::new()))
        .collect();
    for (i, record) in records.enumerate() {
        if record.len() != ncols {
            return err(
                ErrorKind::CsvMalformed,
                format!(
                    "record {} has {} fields, header has {ncols}",
                    i + 1,
                    record.len()
                ),
            );
        }
        for (col, value) in columns.iter_mut().zip(record) {
            col.values.push(value);
        }
    }
    Ok(Table::new(name.to_string(), columns))
}

struct ParsedRecords {
    records: Vec<Vec<String>>,
    /// A quoted field was still open when the input ended.
    unterminated_quote: bool,
}

fn parse_records(text: &str) -> ParsedRecords {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    // Distinguishes a blank physical line (skipped) from a record holding a
    // single quoted-empty field (kept).
    let mut record_has_content = false;
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                other => field.push(other),
            }
        } else {
            match c {
                '"' => {
                    in_quotes = true;
                    record_has_content = true;
                }
                ',' => {
                    record.push(std::mem::take(&mut field));
                    record_has_content = true;
                }
                '\r' => {}
                '\n' => {
                    if record_has_content || !field.is_empty() {
                        record.push(std::mem::take(&mut field));
                        records.push(std::mem::take(&mut record));
                    }
                    record_has_content = false;
                }
                other => {
                    field.push(other);
                    record_has_content = true;
                }
            }
        }
    }
    if record_has_content || !field.is_empty() {
        record.push(field);
        records.push(record);
    }
    ParsedRecords { records, unterminated_quote: in_quotes }
}

/// Serialize a table to CSV (quoting only when needed).
pub fn write_csv(table: &Table) -> String {
    let mut out = String::new();
    let quote = |s: &str| -> String {
        // Empty fields are quoted so a one-column row of "" survives the
        // blank-line skip on re-parse.
        if s.is_empty() || s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    out.push_str(
        &table
            .columns
            .iter()
            .map(|c| quote(&c.name))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in 0..table.rows() {
        out.push_str(
            &table
                .columns
                .iter()
                .map(|c| quote(&c.values[row]))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn parse_csv(name: &str, text: &str) -> LidsResult<Table> {
        parse_csv_with(name, text, CsvMode::Strict)
    }

    #[test]
    fn basic_parse() {
        let t = parse_csv("t", "a,b\n1,x\n2,y\n").unwrap();
        assert_eq!(t.columns.len(), 2);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.column("a").unwrap().values, vec!["1", "2"]);
    }

    #[test]
    fn quoted_fields() {
        let t = parse_csv("t", "a,b\n\"hello, world\",\"say \"\"hi\"\"\"\n").unwrap();
        assert_eq!(t.column("a").unwrap().values[0], "hello, world");
        assert_eq!(t.column("b").unwrap().values[0], "say \"hi\"");
    }

    #[test]
    fn embedded_newline() {
        let t = parse_csv("t", "a\n\"line1\nline2\"\n").unwrap();
        assert_eq!(t.column("a").unwrap().values[0], "line1\nline2");
    }

    #[test]
    fn ragged_rows_rejected_strict() {
        let short = parse_csv_with("t", "a,b\n1\n", CsvMode::Strict).unwrap_err();
        assert_eq!(short.kind(), ErrorKind::CsvMalformed);
        assert!(short.message().contains("1 fields"), "{short}");
        let long = parse_csv_with("t", "a,b\n1,2,3\n", CsvMode::Strict).unwrap_err();
        assert_eq!(long.kind(), ErrorKind::CsvMalformed);
        assert_eq!(long.artifact(), Some("t"));
    }

    #[test]
    fn crlf_line_endings() {
        let t = parse_csv("t", "a,b\r\n1,2\r\n").unwrap();
        assert_eq!(t.rows(), 1);
        assert_eq!(t.column("b").unwrap().values[0], "2");
    }

    #[test]
    fn missing_final_newline() {
        let t = parse_csv("t", "a\n1\n2").unwrap();
        assert_eq!(t.rows(), 2);
    }

    #[test]
    fn unterminated_quote_rejected() {
        let input = "a,b\n1,\"oops\n";
        let e = parse_csv_with("t", input, CsvMode::Strict).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::CsvMalformed);
        assert!(e.message().contains("unterminated"), "{e}");
    }

    #[test]
    fn empty_input_rejected() {
        let e = parse_csv_with("t", "", CsvMode::Strict).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::EmptyInput);
    }

    #[test]
    fn header_only_rejected() {
        let e = parse_csv_with("t", "a,b\n", CsvMode::Strict).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::EmptyInput);
        assert!(e.message().contains("header-only"), "{e}");
    }

    #[test]
    fn nul_bytes_rejected() {
        let input = "a,b\n1,x\u{0}y\n";
        let e = parse_csv_with("t", input, CsvMode::Strict).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::EncodingError);
    }

    #[test]
    fn invalid_utf8_bytes_rejected() {
        let mut bytes = b"a,b\n1,x".to_vec();
        bytes.extend([0xFF, 0xFE]);
        bytes.extend(b"y\n");
        let e = parse_csv_bytes("t", &bytes, CsvMode::Strict).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::EncodingError);
        assert!(e.message().contains("invalid UTF-8"), "{e}");
    }

    #[test]
    fn valid_bytes_parse() {
        let t = parse_csv_bytes("t", b"a,b\n1,2\n", CsvMode::default()).unwrap();
        assert_eq!(t.rows(), 1);
    }

    #[test]
    fn write_then_parse_roundtrip() {
        let t = Table::new(
            "t",
            vec![
                Column::new("name,with,commas", vec!["a\"b".into(), "plain".into()]),
                Column::new("b", vec!["1,2".into(), "x\ny".into()]),
            ],
        );
        let back = parse_csv("t", &write_csv(&t)).unwrap();
        assert_eq!(back.columns, t.columns);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            values in proptest::collection::vec("[a-zA-Z0-9,\"\\n ]{0,12}", 1..20)
        ) {
            let t = Table::new("t", vec![Column::new("col", values.clone())]);
            let back = parse_csv("t", &write_csv(&t)).unwrap();
            prop_assert_eq!(back.column("col").unwrap().values.clone(), values);
        }

    }
}
