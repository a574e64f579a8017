//! Result containers and their Markdown and JSON renderings.

use std::io::Write;
use std::path::Path;

/// One line on a figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// One value per x point (`NaN` → missing).
    pub ys: Vec<f64>,
}

/// A regenerated figure/table.
#[derive(Debug, Clone)]
pub struct FigResult {
    /// Identifier, e.g. "fig09a".
    pub id: String,
    /// Human title (matches the paper's caption).
    pub title: String,
    /// Meaning of the x axis.
    pub x_label: String,
    /// Meaning of the y axis.
    pub y_label: String,
    /// X values.
    pub xs: Vec<f64>,
    /// The series.
    pub series: Vec<Series>,
    /// Free-form observations (shape checks, caveats).
    pub notes: Vec<String>,
}

impl FigResult {
    /// Create an empty result.
    pub fn new(id: &str, title: &str, x_label: &str, y_label: &str, xs: Vec<f64>) -> FigResult {
        FigResult {
            id: id.to_string(),
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            xs,
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a series.
    pub fn push_series(&mut self, name: impl Into<String>, ys: Vec<f64>) {
        assert_eq!(ys.len(), self.xs.len(), "series length must match xs");
        self.series.push(Series {
            name: name.into(),
            ys,
        });
    }

    /// Append a note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// The values of the series called `name`; panics when there is none.
    pub fn ys(&self, name: &str) -> &[f64] {
        let series = self.series.iter().find(|s| s.name == name);
        &series
            .unwrap_or_else(|| panic!("{}: no series {name}", self.id))
            .ys
    }

    /// Write the result as JSON into `dir/<id>.json`.
    pub fn save_json(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }

    /// Render the result as pretty-printed JSON (2-space indent). The
    /// writer is hand-rolled so the workspace builds with no external
    /// dependencies; non-finite floats become `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"id\": {},\n", json_str(&self.id)));
        out.push_str(&format!("  \"title\": {},\n", json_str(&self.title)));
        out.push_str(&format!("  \"x_label\": {},\n", json_str(&self.x_label)));
        out.push_str(&format!("  \"y_label\": {},\n", json_str(&self.y_label)));
        out.push_str("  \"xs\": ");
        out.push_str(&json_f64_array(&self.xs));
        out.push_str(",\n  \"series\": [");
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            out.push_str(&format!("      \"name\": {},\n", json_str(&s.name)));
            out.push_str("      \"ys\": ");
            out.push_str(&json_f64_array(&s.ys));
            out.push_str("\n    }");
        }
        out.push_str(if self.series.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"notes\": [");
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&json_str(n));
        }
        out.push_str(if self.notes.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push('}');
        out
    }

    /// Render as a Markdown table (for EXPERIMENTS.md).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n\n", self.id, self.title));
        out.push_str(&format!("| {} |", self.x_label));
        for s in &self.series {
            out.push_str(&format!(" {} |", s.name));
        }
        out.push('\n');
        out.push_str("|---|");
        for _ in &self.series {
            out.push_str("---|");
        }
        out.push('\n');
        for (i, x) in self.xs.iter().enumerate() {
            out.push_str(&format!("| {x:.2} |"));
            for s in &self.series {
                let y = s.ys[i];
                if y.is_nan() {
                    out.push_str(" - |");
                } else {
                    out.push_str(&format!(" {y:.4} |"));
                }
            }
            out.push('\n');
        }
        out.push_str(&format!("\n*y: {}*\n\n", self.y_label));
        for n in &self.notes {
            out.push_str(&format!("- {n}\n"));
        }
        out.push('\n');
        out
    }
}

/// JSON-escape a string (quotes, backslashes, control characters).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One float as a JSON token: `null` for non-finite values; integral
/// values keep a trailing `.0` so the type reads as a float.
fn json_f64(y: f64) -> String {
    if !y.is_finite() {
        "null".to_string()
    } else if y == y.trunc() && y.abs() < 1e15 {
        format!("{y:.1}")
    } else {
        format!("{y}")
    }
}

/// A flat float array on one line: `[1.0, 2.5, null]`.
fn json_f64_array(ys: &[f64]) -> String {
    let body: Vec<String> = ys.iter().map(|&y| json_f64(y)).collect();
    format!("[{}]", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigResult {
        let mut f = FigResult::new("figX", "Test", "load", "AFCT (ms)", vec![0.1, 0.5]);
        f.push_series("PASE", vec![1.0, 2.0]);
        f.push_series("DCTCP", vec![3.0, f64::NAN]);
        f.note("hello");
        f
    }

    #[test]
    fn markdown_has_header_separator() {
        let md = sample().to_markdown();
        assert!(md.contains("|---|---|---|"));
        assert!(md.contains("| 0.10 |"));
        assert!(md.contains(" - |"), "NaN renders as dash");
        assert!(md.contains("| PASE | DCTCP |"));
        assert!(md.contains("3.0000"));
        assert!(md.contains("- hello"));
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn mismatched_series_rejected() {
        let mut f = FigResult::new("x", "t", "x", "y", vec![1.0]);
        f.push_series("bad", vec![1.0, 2.0]);
    }

    #[test]
    fn json_round_trip() {
        let dir = std::env::temp_dir().join("pase_repro_report_test");
        sample().save_json(&dir).unwrap();
        let raw = std::fs::read_to_string(dir.join("figX.json")).unwrap();
        assert!(raw.contains("\"id\": \"figX\""));
        assert!(raw.contains("\"name\": \"PASE\""));
        assert!(raw.contains("null"), "NaN serializes as null");
    }

    #[test]
    fn json_escapes_and_floats() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_f64(1.0), "1.0");
        assert_eq!(json_f64(0.25), "0.25");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64_array(&[1.0, f64::NAN]), "[1.0, null]");
    }
}
