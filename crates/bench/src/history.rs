//! Append-only markdown history tables with structural guarantees.
//!
//! `results/scaling_history.md` accumulates rows from several benchmark
//! binaries, each owning one table with its own column set. The naive
//! "append at EOF" discipline breaks as soon as a second table exists:
//! a pipeline row written after the serving table was added lands under
//! the serving header with the wrong column count. This module fixes
//! both failure modes:
//!
//! - rows are inserted at the end of *their own* table, located by a
//!   marker column unique to that table's header, regardless of where
//!   the table sits in the file;
//! - the row's column count is checked against the header before
//!   anything is written, so a schema drift in a bench binary fails
//!   loudly instead of corrupting the history.
//!
//! The rewritten file is published through
//! [`inspire_store::publish_atomic`], so a crash leaves the old history.

use std::io::{self, Write};
use std::path::Path;

/// Title line every history file starts with.
const FILE_TITLE: &str = "# Intra-rank scaling history (append-only)";

/// One table within the shared history file.
pub struct HistoryTable<'a> {
    /// Optional `## …` section heading emitted when the table is first
    /// created (older tables predate section headings and have none).
    pub section: Option<&'a str>,
    /// Full header row, `| col | col | … |`.
    pub header: &'a str,
    /// A column cell unique to this table's header (e.g. `| serve_qps |`),
    /// used to find the table in the file.
    pub marker: &'a str,
}

/// Number of cells in a markdown table row.
fn columns(row: &str) -> usize {
    let trimmed = row.trim().trim_start_matches('|').trim_end_matches('|');
    trimmed.split('|').count()
}

/// The `|---|---|…|` separator matching a header's column count.
fn separator(cols: usize) -> String {
    let mut s = String::from("|");
    for _ in 0..cols {
        s.push_str("---|");
    }
    s
}

/// Append `row` to its table inside the history file at `path`,
/// creating the file and/or the table on first use.
///
/// Returns an error if the row's column count does not match the
/// table's header — nothing is written in that case.
pub fn append_row(path: &Path, table: &HistoryTable<'_>, row: &str) -> io::Result<()> {
    let header_cols = columns(table.header);
    let row_cols = columns(row);
    if row_cols != header_cols {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "history row has {row_cols} columns but table header {:?} has {header_cols}",
                table.marker
            ),
        ));
    }
    debug_assert!(
        table.header.contains(table.marker),
        "marker must appear in the table's own header"
    );

    let mut text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => format!("{FILE_TITLE}\n"),
        Err(e) => return Err(e),
    };
    if !text.ends_with('\n') {
        text.push('\n');
    }

    let lines: Vec<&str> = text.lines().collect();
    let header_idx = lines.iter().position(|l| l.contains(table.marker));

    let new_text = match header_idx {
        Some(h) => {
            // Walk past the separator and existing rows to the table end.
            let mut end = h + 1;
            while end < lines.len() && lines[end].trim_start().starts_with('|') {
                end += 1;
            }
            let mut out: Vec<String> = lines[..end].iter().map(|l| l.to_string()).collect();
            out.push(row.trim_end().to_string());
            out.extend(lines[end..].iter().map(|l| l.to_string()));
            out.join("\n") + "\n"
        }
        None => {
            let mut out = text;
            out.push('\n');
            if let Some(section) = table.section {
                out.push_str(section);
                out.push_str("\n\n");
            }
            out.push_str(table.header.trim_end());
            out.push('\n');
            out.push_str(&separator(header_cols));
            out.push('\n');
            out.push_str(row.trim_end());
            out.push('\n');
            out
        }
    };

    inspire_store::publish_atomic(path, |f| f.write_all(new_text.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("va-history-{}-{name}.md", std::process::id()))
    }

    const COMM: HistoryTable<'static> = HistoryTable {
        section: None,
        header: "| date | smoke | index_msgs | crit |",
        marker: "| index_msgs |",
    };
    const SERVING: HistoryTable<'static> = HistoryTable {
        section: Some("## Serving load"),
        header: "| date | serve_qps | wrong |",
        marker: "| serve_qps |",
    };

    #[test]
    fn creates_file_and_table_on_first_use() {
        let p = tmp("create");
        let _ = std::fs::remove_file(&p);
        append_row(&p, &COMM, "| d1 | true | 7 | scan |").unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        assert!(text.starts_with(FILE_TITLE));
        assert!(text.contains("| index_msgs |"));
        assert!(text.ends_with("| d1 | true | 7 | scan |\n"));
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn rows_land_under_their_own_table() {
        let p = tmp("own-table");
        let _ = std::fs::remove_file(&p);
        append_row(&p, &COMM, "| d1 | true | 7 | scan |").unwrap();
        append_row(&p, &SERVING, "| d1 | 7000 | 0 |").unwrap();
        // A later comm row must NOT land at EOF under the serving table.
        append_row(&p, &COMM, "| d2 | false | 9 | index |").unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        let comm_at = text.find("| d2 | false |").unwrap();
        let serving_header_at = text.find("| serve_qps |").unwrap();
        assert!(
            comm_at < serving_header_at,
            "comm row appended under the wrong table:\n{text}"
        );
        // And a later serving row still extends the serving table.
        append_row(&p, &SERVING, "| d2 | 8000 | 0 |").unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        assert!(text.trim_end().ends_with("| d2 | 8000 | 0 |"));
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn column_mismatch_is_rejected_before_writing() {
        let p = tmp("colcheck");
        let _ = std::fs::remove_file(&p);
        append_row(&p, &COMM, "| d1 | true | 7 | scan |").unwrap();
        let before = std::fs::read_to_string(&p).unwrap();
        let err = append_row(&p, &COMM, "| d2 | true | 7 |").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(std::fs::read_to_string(&p).unwrap(), before);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn section_heading_written_once() {
        let p = tmp("section");
        let _ = std::fs::remove_file(&p);
        append_row(&p, &SERVING, "| d1 | 7000 | 0 |").unwrap();
        append_row(&p, &SERVING, "| d2 | 7100 | 1 |").unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        assert_eq!(text.matches("## Serving load").count(), 1);
        let _ = std::fs::remove_file(&p);
    }
}
