//! The rendered experiment table and its canonical JSON form.

use serde_json::{json, Map, Value};

/// A rendered experiment table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Experiment group id, e.g. `"E2"` (shared by related tables).
    pub id: String,
    /// Title (paper anchor).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table from string-convertible headers.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Self {
            id: id.to_owned(),
            title: title.to_owned(),
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Explicit JSON serializer (headers and rows as string arrays).
    ///
    /// The output is canonical: object keys are sorted, so the same
    /// table always renders to the same bytes.
    pub fn to_json(&self) -> Value {
        let rows: Vec<Value> = self
            .rows
            .iter()
            .map(|r| Value::Array(r.iter().map(|c| Value::from(c.as_str())).collect()))
            .collect();
        json!({
            "id": (self.id.clone()),
            "title": (self.title.clone()),
            "headers": (self.headers.clone()),
            "rows": rows,
        })
    }
}

/// Convenience: a sorted-key JSON object from `(key, value)` pairs.
pub(crate) fn sorted_object(pairs: Vec<(&str, Value)>) -> Value {
    let mut map = Map::new();
    for (k, v) in pairs {
        map.insert(k.to_owned(), v);
    }
    Value::Object(map)
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        for (i, h) in self.headers.iter().enumerate() {
            write!(f, "{:<w$}  ", h, w = widths[i])?;
        }
        writeln!(f)?;
        for (i, _) in self.headers.iter().enumerate() {
            write!(f, "{}  ", "-".repeat(widths[i]))?;
        }
        writeln!(f)?;
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                write!(f, "{:<w$}  ", cell, w = widths[i])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("EX", "demo", &["a", "long-header"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let s = t.to_string();
        assert!(s.contains("EX"));
        assert!(s.contains("long-header"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("EX", "demo", &["a"]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn json_is_byte_stable() {
        let mut t = Table::new("EX", "demo", &["a"]);
        t.push_row(vec!["1".into()]);
        assert_eq!(t.to_json().to_string(), t.to_json().to_string());
    }
}
