//! TSV IO in the format of the authors' published release.
//!
//! The paper's code release ships each dataset as an answer file with
//! header `question\tworker\tanswer` and a truth file with header
//! `question\ttruth`. This module reads and writes that format so the
//! real datasets can replace the simulators when available, and so our
//! simulated logs can be exported for use with the original Python code.
//!
//! Task and worker identifiers are arbitrary strings in the files and are
//! densified to `0..n` indices on load (first-appearance order).

use std::collections::HashMap;
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

use crate::builder::DatasetBuilder;
use crate::error::DataError;
use crate::model::{Answer, Dataset, TaskType};

/// Read a dataset from an answer TSV and an optional truth TSV.
///
/// `task_type` decides how the `answer` column is parsed: as a label index
/// for categorical types, as an `f64` for numeric. Lines are
/// `task \t worker \t answer`; a single header line is skipped when its
/// last field is not parseable as a number (i.e. always for our files),
/// and blank lines are skipped.
///
/// Every rejected row — unparseable, a label out of range, an answer of
/// the wrong kind, a worker answering a task twice — is a
/// [`DataError::Parse`] carrying the row's 1-based line in its file and
/// naming the file's own task and worker ids.
pub fn read_tsv(
    answers_path: &Path,
    truths_path: Option<&Path>,
    task_type: TaskType,
    name: &str,
) -> Result<Dataset, DataError> {
    let answer_rows = read_rows(answers_path, 3)?;
    let truth_rows = match truths_path {
        Some(p) => read_rows(p, 2)?,
        None => Vec::new(),
    };

    let mut task_ids: HashMap<String, usize> = HashMap::new();
    let mut worker_ids: HashMap<String, usize> = HashMap::new();
    for (_, row) in &answer_rows {
        let next = task_ids.len();
        task_ids.entry(row[0].clone()).or_insert(next);
        let next = worker_ids.len();
        worker_ids.entry(row[1].clone()).or_insert(next);
    }
    // Truth files may mention tasks that received no answers; they still
    // belong to the task universe.
    for (_, row) in &truth_rows {
        let next = task_ids.len();
        task_ids.entry(row[0].clone()).or_insert(next);
    }

    let mut builder = DatasetBuilder::with_capacity(
        name,
        task_type,
        task_ids.len(),
        worker_ids.len(),
        answer_rows.len(),
    );
    for &(line, ref row) in &answer_rows {
        let task = task_ids[&row[0]];
        let worker = worker_ids[&row[1]];
        let answer = parse_answer(&row[2], task_type, line)?;
        builder
            .add_answer(task, worker, answer)
            .map_err(|e| rejected_row(line, &row[0], Some(&row[1]), e))?;
    }
    for &(line, ref row) in &truth_rows {
        let task = task_ids[&row[0]];
        let truth = parse_answer(&row[1], task_type, line)?;
        builder
            .set_truth(task, truth)
            .map_err(|e| rejected_row(line, &row[0], None, e))?;
    }
    Ok(builder.build())
}

/// Restate a builder error on a file row as a [`DataError::Parse`] at
/// that row's line, naming the file's task id (and worker id, for an
/// answer) instead of the builder's dense indices.
fn rejected_row(line: usize, task: &str, worker: Option<&str>, e: DataError) -> DataError {
    let detail = match (worker, e) {
        (Some(worker), DataError::DuplicateAnswer { .. }) => {
            format!("worker {worker:?} answered task {task:?} more than once")
        }
        (Some(worker), e) => format!("answer of worker {worker:?} to task {task:?}: {e}"),
        (None, e) => format!("truth of task {task:?}: {e}"),
    };
    DataError::Parse { line, detail }
}

/// Write `dataset` as `answers.tsv` (+ `truths.tsv` when any truth is
/// known) into `dir`, in the release format. Returns the answer-file path.
pub fn write_tsv(dataset: &Dataset, dir: &Path) -> Result<std::path::PathBuf, DataError> {
    std::fs::create_dir_all(dir)?;
    let answers_path = dir.join("answers.tsv");
    let mut out = BufWriter::new(std::fs::File::create(&answers_path)?);
    writeln!(out, "question\tworker\tanswer")?;
    for r in dataset.records() {
        writeln!(out, "t{}\tw{}\t{}", r.task, r.worker, fmt_answer(&r.answer))?;
    }
    out.flush()?;

    if dataset.num_truths() > 0 {
        let truths_path = dir.join("truths.tsv");
        let mut out = BufWriter::new(std::fs::File::create(&truths_path)?);
        writeln!(out, "question\ttruth")?;
        for (task, truth) in dataset.truths().iter().enumerate() {
            if let Some(t) = truth {
                writeln!(out, "t{}\t{}", task, fmt_answer(t))?;
            }
        }
        out.flush()?;
    }
    Ok(answers_path)
}

fn fmt_answer(a: &Answer) -> String {
    match a {
        Answer::Label(l) => l.to_string(),
        Answer::Numeric(v) => format!("{v}"),
    }
}

fn parse_answer(s: &str, task_type: TaskType, line: usize) -> Result<Answer, DataError> {
    if task_type.is_categorical() {
        let label: u8 = s.parse().map_err(|_| DataError::Parse {
            line,
            detail: format!("expected label index, got {s:?}"),
        })?;
        Ok(Answer::Label(label))
    } else {
        let v: f64 = s.parse().map_err(|_| DataError::Parse {
            line,
            detail: format!("expected numeric answer, got {s:?}"),
        })?;
        Ok(Answer::Numeric(v))
    }
}

/// Read the rows of a TSV file as `(1-based line, fields)`, skipping blank
/// lines and the first line if it looks like a header (non-numeric last
/// field), and validating the column count.
fn read_rows(path: &Path, cols: usize) -> Result<Vec<(usize, Vec<String>)>, DataError> {
    let file = std::fs::File::open(path)?;
    let reader = std::io::BufReader::new(file);
    let mut rows = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            continue;
        }
        let fields: Vec<String> = trimmed.split('\t').map(|f| f.to_string()).collect();
        if i == 0
            && fields
                .last()
                .map(|f| f.parse::<f64>().is_err())
                .unwrap_or(false)
        {
            continue; // header
        }
        if fields.len() != cols {
            return Err(DataError::Parse {
                line: i + 1,
                detail: format!("expected {cols} tab-separated fields, got {}", fields.len()),
            });
        }
        rows.push((i + 1, fields));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use crate::toy::paper_example;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("crowd_io_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_categorical() {
        let dir = tmpdir("cat");
        let d = paper_example();
        write_tsv(&d, &dir).unwrap();
        let loaded = read_tsv(
            &dir.join("answers.tsv"),
            Some(&dir.join("truths.tsv")),
            TaskType::DecisionMaking,
            "roundtrip",
        )
        .unwrap();
        assert_eq!(loaded.num_tasks(), d.num_tasks());
        assert_eq!(loaded.num_workers(), d.num_workers());
        assert_eq!(loaded.num_answers(), d.num_answers());
        assert_eq!(loaded.num_truths(), d.num_truths());
        // Answer multiset must survive (indices may permute, values not).
        let mut a: Vec<String> = d.records().iter().map(|r| fmt_answer(&r.answer)).collect();
        let mut b: Vec<String> = loaded
            .records()
            .iter()
            .map(|r| fmt_answer(&r.answer))
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn roundtrip_numeric() {
        let dir = tmpdir("num");
        let d = datasets::n_emotion(0.1, 5);
        write_tsv(&d, &dir).unwrap();
        let loaded = read_tsv(
            &dir.join("answers.tsv"),
            Some(&dir.join("truths.tsv")),
            TaskType::Numeric,
            "roundtrip",
        )
        .unwrap();
        assert_eq!(loaded.num_answers(), d.num_answers());
        assert_eq!(loaded.num_truths(), d.num_truths());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_malformed_rows() {
        let dir = tmpdir("bad");
        let p = dir.join("answers.tsv");
        std::fs::write(&p, "question\tworker\tanswer\nt0\tw0\n").unwrap();
        let err = read_tsv(&p, None, TaskType::DecisionMaking, "bad");
        assert!(matches!(err, Err(DataError::Parse { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_bad_label() {
        let dir = tmpdir("badlabel");
        let p = dir.join("answers.tsv");
        std::fs::write(&p, "question\tworker\tanswer\nt0\tw0\tseven\n").unwrap();
        let err = read_tsv(&p, None, TaskType::DecisionMaking, "bad");
        assert!(matches!(err, Err(DataError::Parse { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The `DataError::Parse` line and detail of reading `answers` (and
    /// `truths`) as a decision-making dataset.
    fn parse_error(tag: &str, answers: &str, truths: Option<&str>) -> (usize, String) {
        let dir = tmpdir(tag);
        let a = dir.join("answers.tsv");
        std::fs::write(&a, answers).unwrap();
        let t = dir.join("truths.tsv");
        if let Some(truths) = truths {
            std::fs::write(&t, truths).unwrap();
        }
        let err = read_tsv(
            &a,
            truths.map(|_| t.as_path()),
            TaskType::DecisionMaking,
            tag,
        );
        std::fs::remove_dir_all(&dir).unwrap();
        match err {
            Err(DataError::Parse { line, detail }) => (line, detail),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn bad_label_line_counts_blank_lines_without_a_header() {
        // No header: the bad label is on line 2, before a blank line 3.
        let (line, detail) = parse_error("lines", "t0\tw0\t0\nt1\tw1\tseven\n\nt2\tw0\t1\n", None);
        assert_eq!(line, 2, "{detail}");
        // A header, then blank lines 2 and 3: the bad label is on line 4.
        let (line, detail) = parse_error(
            "blank",
            "question\tworker\tanswer\n\n\nt0\tw0\tseven\n",
            None,
        );
        assert_eq!(line, 4, "{detail}");
        // An out-of-range label is caught by the builder; it gets a line
        // and the file's ids too.
        let (line, detail) = parse_error("range", "question\tworker\tanswer\n\nq7\tann\t5\n", None);
        assert_eq!(line, 3, "{detail}");
        assert!(
            detail.contains("\"ann\"") && detail.contains("\"q7\""),
            "{detail}"
        );
        assert!(detail.contains("label 5 out of range"), "{detail}");
        // So is a truth of the wrong kind, on the truth file's line.
        let (line, detail) = parse_error("truth", "q1\tann\t0\n", Some("question\ttruth\nq1\t9\n"));
        assert_eq!(line, 2, "{detail}");
        assert!(detail.contains("truth of task \"q1\""), "{detail}");
    }

    #[test]
    fn duplicate_row_names_its_line_and_file_ids() {
        let (line, detail) = parse_error(
            "dup",
            "question\tworker\tanswer\nq9\tbob\t0\nq3\tann\t1\nq9\tbob\t1\n",
            None,
        );
        assert_eq!(line, 4, "{detail}");
        assert_eq!(detail, "worker \"bob\" answered task \"q9\" more than once");
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_tsv(
            Path::new("/definitely/not/here.tsv"),
            None,
            TaskType::DecisionMaking,
            "x",
        );
        assert!(matches!(err, Err(DataError::Io(_))));
    }
}
