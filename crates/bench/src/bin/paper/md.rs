//! Markdown rendering for the results document: a pipe table per result,
//! plain paragraphs for the notes.

use std::fmt::Write;

/// A float with 3 decimals (the paper's table precision).
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// A ratio as an integer percentage (the paper's Table VIII style).
pub fn pct(v: f64) -> String {
    format!("{:.0}", v * 100.0)
}

/// Seconds as milliseconds: simulated times at these scales are far below 1 s.
pub fn ms(secs: f64) -> String {
    format!("{:.3}", secs * 1e3)
}

/// How a note states whether a qualitative claim of the paper holds here.
pub fn verdict(holds: bool) -> &'static str {
    if holds {
        "reproduced"
    } else {
        "**not reproduced** at this scale"
    }
}

/// The section under construction.
pub struct Doc(pub String);

impl Doc {
    /// Append a captioned pipe table; `rows[0]` is the header. Columns are
    /// padded to a common width, so the raw text reads as a table too, and a
    /// `|` inside a cell is escaped.
    pub fn table(&mut self, caption: &str, rows: &[Vec<String>]) {
        let escaped = |row: &Vec<String>| row.iter().map(|cell| cell.replace('|', "\\|")).collect();
        let mut lines: Vec<Vec<String>> = rows.iter().map(escaped).collect();
        let mut widths = vec![0; lines[0].len()];
        for line in &lines {
            assert_eq!(line.len(), widths.len(), "one cell per column: {line:?}");
            for (width, cell) in widths.iter_mut().zip(line) {
                *width = (*width).max(cell.chars().count());
            }
        }
        lines.insert(1, widths.iter().map(|w| "-".repeat(*w)).collect());
        writeln!(self.0, "**{caption}**\n").expect("writing to a String");
        for line in &lines {
            self.0.push('|');
            for (cell, width) in line.iter().zip(&widths) {
                write!(self.0, " {cell:<width$} |").expect("writing to a String");
            }
            self.0.push('\n');
        }
        self.0.push('\n');
    }

    /// Append a paragraph: the note under a table.
    pub fn para(&mut self, text: &str) {
        writeln!(self.0, "{text}\n").expect("writing to a String");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_aligned_markdown_and_numbers_keep_the_papers_precision() {
        let rows = [
            vec!["name".to_string(), "MAPE".to_string()],
            vec!["a".to_string(), f3(0.29612)],
            vec!["longer-name".to_string(), "0.5±0.1".to_string()],
            vec!["|E|".to_string(), pct(1.02)],
        ];
        let mut doc = Doc(String::new());
        doc.table("T", &rows);
        let lines: Vec<&str> = doc.0.lines().collect();
        assert_eq!(lines[..2], ["**T**", ""]);
        assert_eq!(lines[2], "| name        | MAPE    |");
        assert_eq!(lines[3], "| ----------- | ------- |");
        assert_eq!(lines[4], "| a           | 0.296   |");
        // padding counts characters, not bytes
        assert_eq!(lines[5], "| longer-name | 0.5±0.1 |");
        // a pipe inside a cell does not open a column
        assert_eq!(lines[6], r"| \|E\|       | 102     |");
        assert_eq!(lines[7..], [""]);
        assert_eq!(ms(0.0123456), "12.346");
    }
}
