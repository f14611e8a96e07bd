//! The rendered experiment table and its canonical JSON codec.

use serde_json::{json, Map, Value};

/// A rendered experiment table.
///
/// `id`/`title` are owned strings so a table can round-trip through
/// its JSON artifact.
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

    /// Row data parsed back from [`Self::to_json`] output.
    ///
    /// Returns the dynamic parts only: `(headers, rows)`. `None` on any
    /// shape mismatch.
    pub fn rows_from_json(v: &Value) -> Option<(Vec<String>, Vec<Vec<String>>)> {
        let headers = string_array(v.get("headers")?)?;
        let rows = v
            .get("rows")?
            .as_array()?
            .iter()
            .map(string_array)
            .collect::<Option<Vec<_>>>()?;
        Some((headers, rows))
    }

    /// Full table parsed back from [`Self::to_json`] output. `None` on
    /// any shape mismatch.
    pub fn from_json(v: &Value) -> Option<Table> {
        let id = v.get("id")?.as_str()?.to_owned();
        let title = v.get("title")?.as_str()?.to_owned();
        let (headers, rows) = Self::rows_from_json(v)?;
        Some(Table {
            id,
            title,
            headers,
            rows,
        })
    }
}

fn string_array(v: &Value) -> Option<Vec<String>> {
    v.as_array()?
        .iter()
        .map(|c| c.as_str().map(str::to_owned))
        .collect()
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
    fn json_round_trip() {
        let mut t = Table::new("EX", "demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "x".into()]);
        t.push_row(vec!["2".into(), "y".into()]);
        let v = t.to_json();
        assert_eq!(v["id"].as_str(), Some("EX"));
        let (headers, rows) = Table::rows_from_json(&v).expect("well-formed");
        assert_eq!(headers, t.headers);
        assert_eq!(rows, t.rows);
        let full = Table::from_json(&v).expect("well-formed");
        assert_eq!(full, t);
    }

    #[test]
    fn from_json_rejects_malformed() {
        assert!(Table::from_json(&json!({"id": "EX"})).is_none());
        assert!(
            Table::from_json(&json!({"id": 3, "title": "t", "headers": [], "rows": []})).is_none()
        );
        assert!(Table::from_json(
            &json!({"id": "EX", "title": "t", "headers": ["a"], "rows": [[1]]})
        )
        .is_none());
    }

    #[test]
    fn json_is_byte_stable() {
        let mut t = Table::new("EX", "demo", &["a"]);
        t.push_row(vec!["1".into()]);
        assert_eq!(t.to_json().to_string(), t.to_json().to_string());
    }
}
