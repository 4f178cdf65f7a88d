//! Column-oriented in-memory tables.
//!
//! KGLiDS "handles files of different formats, such as CSV and JSON, and
//! connects to relational DB and NoSQL systems" — all sources normalise to
//! this representation before profiling. Values are kept as strings (the
//! lexical forms a CSV supplies); typed views are produced on demand.

/// Markers treated as missing values across the platform.
pub const NULL_MARKERS: &[&str] = &["", "na", "n/a", "null", "nan", "none", "?", "missing"];

/// True when a raw value represents a missing entry.
pub fn is_null(value: &str) -> bool {
    NULL_MARKERS.contains(&value.trim().to_ascii_lowercase().as_str())
}

/// A named column of string values.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    pub name: String,
    pub values: Vec<String>,
}

impl Column {
    pub fn new(name: impl Into<String>, values: Vec<String>) -> Self {
        Column { name: name.into(), values }
    }

    /// Non-null values.
    pub fn non_null(&self) -> impl Iterator<Item = &str> {
        self.values.iter().map(|s| s.as_str()).filter(|v| !is_null(v))
    }

    /// Number of missing values.
    pub fn null_count(&self) -> usize {
        self.values.iter().filter(|v| is_null(v)).count()
    }

    /// Parse non-null values as f64 (silently skipping non-numeric).
    pub fn numeric_values(&self) -> impl Iterator<Item = f64> + '_ {
        self.non_null().filter_map(|v| v.trim().parse().ok())
    }
}

/// A named table: equal-length columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    pub name: String,
    pub columns: Vec<Column>,
}

impl Table {
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Self {
        let table = Table { name: name.into(), columns };
        debug_assert!(
            table.columns.windows(2).all(|w| w[0].values.len() == w[1].values.len()),
            "ragged table"
        );
        table
    }

    /// Number of rows (0 for a column-less table).
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.values.len())
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Approximate payload bytes (for memory metering).
    pub fn approx_bytes(&self) -> u64 {
        self.columns
            .iter()
            .map(|c| {
                c.values.iter().map(|v| v.len() as u64 + 24).sum::<u64>() + c.name.len() as u64
            })
            .sum()
    }
}

/// A dataset: one or more tables (the paper's granularity for discovery).
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    pub name: String,
    pub tables: Vec<Table>,
}

impl Dataset {
    pub fn new(name: impl Into<String>, tables: Vec<Table>) -> Self {
        Dataset { name: name.into(), tables }
    }

    /// Total number of columns across tables.
    pub fn column_count(&self) -> usize {
        self.tables.iter().map(|t| t.columns.len()).sum()
    }

    /// Table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_detection() {
        for v in ["", "NA", "n/a", "NULL", "NaN", " none ", "?"] {
            assert!(is_null(v), "{v:?}");
        }
        assert!(!is_null("0"));
        assert!(!is_null("false"));
    }

    #[test]
    fn column_helpers() {
        let c = Column::new("age", vec!["1".into(), "NA".into(), "3.5".into(), "x".into()]);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.non_null().count(), 3);
        let nums: Vec<f64> = c.numeric_values().collect();
        assert_eq!(nums, vec![1.0, 3.5]);
    }

    #[test]
    fn table_accessors() {
        let t = Table::new(
            "t",
            vec![
                Column::new("a", vec!["1".into(), "2".into()]),
                Column::new("b", vec!["x".into(), "y".into()]),
            ],
        );
        assert_eq!(t.rows(), 2);
        assert!(t.column("a").is_some());
        assert!(t.column("z").is_none());
        assert!(t.approx_bytes() > 0);
    }

    #[test]
    fn dataset_counts() {
        let d = Dataset::new(
            "d",
            vec![
                Table::new("t1", vec![Column::new("a", vec![])]),
                Table::new("t2", vec![Column::new("b", vec![]), Column::new("c", vec![])]),
            ],
        );
        assert_eq!(d.column_count(), 3);
        assert!(d.table("t2").is_some());
    }
}
