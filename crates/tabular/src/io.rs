//! Plain-text persistence for schemas, answer sets, truth tables and
//! estimates.
//!
//! A downstream user of T-Crowd has answers sitting in files, not in Rust
//! structs; this module defines a minimal tab-separated interchange format
//! (readable by any spreadsheet) and the parsers/writers for it. The CLI
//! crate builds directly on these.
//!
//! ## Formats
//!
//! **Schema** (`.schema.tsv`): directive lines.
//! ```text
//! #table  Celebrity
//! #key    Picture
//! #column Name         categorical  Gwyneth Paltrow|Jet Li|James Purefoy
//! #column Age          continuous   0  100
//! ```
//!
//! **Answers** (`.answers.tsv`): header then one answer per line. Categorical
//! values are written as label *names*; continuous as numbers.
//! ```text
//! worker  row  column  value
//! u12     0    Name    Jet Li
//! u12     0    Age     45
//! ```
//!
//! **Tables** (truth/estimates): header of column names, then one line per
//! row in row order.

use crate::answer::{Answer, AnswerLog, CellId, WorkerId};
use crate::schema::{Column, ColumnType, Schema};
use crate::value::Value;
use std::fmt;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Errors raised by the readers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// Malformed content, with a line number (1-based) and message.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> IoError {
    IoError::Parse { line, message: message.into() }
}

/// Write a schema in the directive format.
pub fn write_schema(schema: &Schema, path: impl AsRef<Path>) -> Result<(), IoError> {
    let mut out = BufWriter::new(fs::File::create(path)?);
    writeln!(out, "#table\t{}", schema.name)?;
    writeln!(out, "#key\t{}", schema.key)?;
    for c in &schema.columns {
        match &c.ty {
            ColumnType::Categorical { labels } => {
                writeln!(out, "#column\t{}\tcategorical\t{}", c.name, labels.join("|"))?;
            }
            ColumnType::Continuous { min, max } => {
                writeln!(out, "#column\t{}\tcontinuous\t{min}\t{max}", c.name)?;
            }
        }
    }
    out.flush()?;
    Ok(())
}

/// Read a schema written by [`write_schema`].
pub fn read_schema(path: impl AsRef<Path>) -> Result<Schema, IoError> {
    let content = fs::read_to_string(path)?;
    let mut name = String::from("table");
    let mut key = String::from("key");
    let mut columns = Vec::new();
    for (idx, raw) in content.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() || line.starts_with("//") {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        match fields[0] {
            "#table" => {
                name = fields
                    .get(1)
                    .ok_or_else(|| parse_err(lineno, "#table needs a name"))?
                    .to_string();
            }
            "#key" => {
                key = fields
                    .get(1)
                    .ok_or_else(|| parse_err(lineno, "#key needs a name"))?
                    .to_string();
            }
            "#column" => {
                let cname =
                    fields.get(1).ok_or_else(|| parse_err(lineno, "#column needs a name"))?;
                let kind =
                    fields.get(2).ok_or_else(|| parse_err(lineno, "#column needs a kind"))?;
                match *kind {
                    "categorical" => {
                        let labels: Vec<String> = fields
                            .get(3)
                            .ok_or_else(|| parse_err(lineno, "categorical column needs labels"))?
                            .split('|')
                            .map(|s| s.to_string())
                            .collect();
                        if labels.is_empty() || labels.iter().any(|l| l.is_empty()) {
                            return Err(parse_err(lineno, "empty label in label set"));
                        }
                        columns.push(Column::new(*cname, ColumnType::Categorical { labels }));
                    }
                    "continuous" => {
                        let min: f64 = fields
                            .get(3)
                            .ok_or_else(|| parse_err(lineno, "continuous column needs min"))?
                            .parse()
                            .map_err(|e| parse_err(lineno, format!("bad min: {e}")))?;
                        let max: f64 = fields
                            .get(4)
                            .ok_or_else(|| parse_err(lineno, "continuous column needs max"))?
                            .parse()
                            .map_err(|e| parse_err(lineno, format!("bad max: {e}")))?;
                        if min >= max || min.is_nan() || max.is_nan() {
                            return Err(parse_err(lineno, "continuous domain needs min < max"));
                        }
                        columns.push(Column::new(*cname, ColumnType::Continuous { min, max }));
                    }
                    other => {
                        return Err(parse_err(lineno, format!("unknown column kind '{other}'")))
                    }
                }
            }
            other => return Err(parse_err(lineno, format!("unknown directive '{other}'"))),
        }
    }
    if columns.is_empty() {
        return Err(parse_err(content.lines().count(), "schema has no columns"));
    }
    Ok(Schema::new(name, key, columns))
}

fn column_index(schema: &Schema, name: &str, lineno: usize) -> Result<usize, IoError> {
    schema
        .columns
        .iter()
        .position(|c| c.name == name)
        .ok_or_else(|| parse_err(lineno, format!("unknown column '{name}'")))
}

fn render_value(schema: &Schema, col: usize, v: &Value) -> String {
    match (schema.column_type(col), v) {
        (ColumnType::Categorical { labels }, Value::Categorical(l)) => labels[*l as usize].clone(),
        (_, Value::Continuous(x)) => format!("{x}"),
        _ => unreachable!("value/column type mismatch"),
    }
}

fn parse_value(schema: &Schema, col: usize, text: &str, lineno: usize) -> Result<Value, IoError> {
    match schema.column_type(col) {
        ColumnType::Categorical { labels } => labels
            .iter()
            .position(|l| l == text)
            .map(|i| Value::Categorical(i as u32))
            .ok_or_else(|| parse_err(lineno, format!("'{text}' is not a label of this column"))),
        ColumnType::Continuous { .. } => text
            .parse::<f64>()
            .ok()
            .filter(|x| x.is_finite())
            .map(Value::Continuous)
            .ok_or_else(|| parse_err(lineno, format!("'{text}' is not a finite number"))),
    }
}

/// Write an answer log (requires the schema for label names).
pub fn write_answers(
    schema: &Schema,
    answers: &AnswerLog,
    path: impl AsRef<Path>,
) -> Result<(), IoError> {
    let mut out = BufWriter::new(fs::File::create(path)?);
    writeln!(out, "worker\trow\tcolumn\tvalue")?;
    for a in answers.all() {
        writeln!(
            out,
            "{}\t{}\t{}\t{}",
            a.worker.0,
            a.cell.row,
            schema.columns[a.cell.col as usize].name,
            render_value(schema, a.cell.col as usize, &a.value)
        )?;
    }
    out.flush()?;
    Ok(())
}

/// Read an answer log; `rows` fixes the table height (rows without answers
/// are legal). Returns an error on unknown columns, bad labels, or row
/// indices outside the table.
pub fn read_answers(
    schema: &Schema,
    rows: usize,
    path: impl AsRef<Path>,
) -> Result<AnswerLog, IoError> {
    let content = fs::read_to_string(path)?;
    let mut log = AnswerLog::new(rows, schema.num_columns());
    for (idx, raw) in content.lines().enumerate() {
        let lineno = idx + 1;
        if idx == 0 || raw.trim().is_empty() {
            continue; // header
        }
        let fields: Vec<&str> = raw.split('\t').collect();
        if fields.len() != 4 {
            return Err(parse_err(lineno, format!("expected 4 fields, got {}", fields.len())));
        }
        let worker: u32 = fields[0]
            .trim_start_matches('u')
            .parse()
            .map_err(|e| parse_err(lineno, format!("bad worker id: {e}")))?;
        let row: u32 = fields[1].parse().map_err(|e| parse_err(lineno, format!("bad row: {e}")))?;
        if row as usize >= rows {
            return Err(parse_err(lineno, format!("row {row} outside table of {rows} rows")));
        }
        let col = column_index(schema, fields[2], lineno)?;
        let value = parse_value(schema, col, fields[3], lineno)?;
        log.push(Answer { worker: WorkerId(worker), cell: CellId::new(row, col as u32), value });
    }
    Ok(log)
}

/// Write a full table (truth or estimates) with a column-name header.
pub fn write_table(
    schema: &Schema,
    table: &[Vec<Value>],
    path: impl AsRef<Path>,
) -> Result<(), IoError> {
    let mut out = BufWriter::new(fs::File::create(path)?);
    let header: Vec<&str> = schema.columns.iter().map(|c| c.name.as_str()).collect();
    writeln!(out, "{}\t{}", schema.key, header.join("\t"))?;
    for (i, row) in table.iter().enumerate() {
        let cells: Vec<String> =
            row.iter().enumerate().map(|(j, v)| render_value(schema, j, v)).collect();
        writeln!(out, "{i}\t{}", cells.join("\t"))?;
    }
    out.flush()?;
    Ok(())
}

/// Read a full table written by [`write_table`].
pub fn read_table(schema: &Schema, path: impl AsRef<Path>) -> Result<Vec<Vec<Value>>, IoError> {
    let content = fs::read_to_string(path)?;
    let mut rows = Vec::new();
    for (idx, raw) in content.lines().enumerate() {
        let lineno = idx + 1;
        if idx == 0 || raw.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = raw.split('\t').collect();
        if fields.len() != schema.num_columns() + 1 {
            return Err(parse_err(
                lineno,
                format!("expected {} fields, got {}", schema.num_columns() + 1, fields.len()),
            ));
        }
        let mut row = Vec::with_capacity(schema.num_columns());
        for (j, text) in fields[1..].iter().enumerate() {
            row.push(parse_value(schema, j, text, lineno)?);
        }
        rows.push(row);
    }
    Ok(rows)
}

pub mod binary {
    //! Stable little-endian **binary codec** for answers, answer logs and
    //! schemas — the wire format of the `tcrowd-store` durability layer
    //! (WAL records, snapshot files).
    //!
    //! Stability contract: the encoding of every type below is fixed —
    //! fixed-width little-endian integers, `f64::to_bits` for floats (so
    //! round-trips are *bit-identical*, not merely approximately equal),
    //! length-prefixed UTF-8 for strings, a one-byte tag per enum variant.
    //! New variants may only be added with new tags; existing tags never
    //! change meaning. The codec carries **no framing or checksums** — the
    //! store layer wraps payloads in its own CRC frames.
    //!
    //! Encoders append to a `Vec<u8>`; decoders consume from a [`Cursor`]
    //! and fail loudly ([`CodecError`]) on truncation or unknown tags
    //! instead of guessing.

    use crate::answer::{Answer, AnswerLog, CellId, WorkerId};
    use crate::schema::{Column, ColumnType, Schema};
    use crate::value::Value;
    use std::fmt;

    /// A decode failure: byte position and message.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct CodecError {
        /// Byte offset (within the buffer being decoded) where decoding failed.
        pub at: usize,
        /// What went wrong.
        pub message: String,
    }

    impl fmt::Display for CodecError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "binary decode error at byte {}: {}", self.at, self.message)
        }
    }

    impl std::error::Error for CodecError {}

    /// A bounds-checked reader over an encoded buffer.
    #[derive(Debug)]
    pub struct Cursor<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Cursor<'a> {
        /// Read from the start of `buf`.
        pub fn new(buf: &'a [u8]) -> Self {
            Cursor { buf, pos: 0 }
        }

        /// Current byte position.
        #[inline]
        pub fn position(&self) -> usize {
            self.pos
        }

        /// Bytes left to read.
        #[inline]
        pub fn remaining(&self) -> usize {
            self.buf.len() - self.pos
        }

        /// True once every byte has been consumed.
        #[inline]
        pub fn is_empty(&self) -> bool {
            self.remaining() == 0
        }

        fn err(&self, message: impl Into<String>) -> CodecError {
            CodecError { at: self.pos, message: message.into() }
        }

        fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
            if self.remaining() < n {
                return Err(self.err(format!("need {n} bytes, {} remain", self.remaining())));
            }
            let s = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(s)
        }

        /// Read one byte.
        pub fn u8(&mut self) -> Result<u8, CodecError> {
            Ok(self.take(1)?[0])
        }

        /// Read a little-endian `u32`.
        pub fn u32(&mut self) -> Result<u32, CodecError> {
            Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
        }

        /// Read a little-endian `u64`.
        pub fn u64(&mut self) -> Result<u64, CodecError> {
            Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
        }

        /// Read an `f64` stored as its IEEE-754 bit pattern (bit-exact).
        pub fn f64(&mut self) -> Result<f64, CodecError> {
            Ok(f64::from_bits(self.u64()?))
        }

        /// Read a `u32`-length-prefixed UTF-8 string.
        pub fn str(&mut self) -> Result<String, CodecError> {
            let len = self.u32()? as usize;
            if len > self.remaining() {
                return Err(self.err(format!("string of {len} bytes overruns the buffer")));
            }
            let bytes = self.take(len)?;
            String::from_utf8(bytes.to_vec())
                .map_err(|e| CodecError { at: self.pos, message: format!("invalid UTF-8: {e}") })
        }
    }

    /// Append one byte.
    pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
        buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (bit-exact round-trip).
    pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
        put_u64(buf, v.to_bits());
    }

    /// Append a `u32`-length-prefixed UTF-8 string.
    pub fn put_str(buf: &mut Vec<u8>, s: &str) {
        put_u32(buf, s.len() as u32);
        buf.extend_from_slice(s.as_bytes());
    }

    const VALUE_CATEGORICAL: u8 = 0;
    const VALUE_CONTINUOUS: u8 = 1;

    /// Encode a cell value (tag byte + payload).
    pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
        match v {
            Value::Categorical(l) => {
                put_u8(buf, VALUE_CATEGORICAL);
                put_u32(buf, *l);
            }
            Value::Continuous(x) => {
                put_u8(buf, VALUE_CONTINUOUS);
                put_f64(buf, *x);
            }
        }
    }

    /// Decode a cell value.
    pub fn get_value(c: &mut Cursor<'_>) -> Result<Value, CodecError> {
        match c.u8()? {
            VALUE_CATEGORICAL => Ok(Value::Categorical(c.u32()?)),
            VALUE_CONTINUOUS => Ok(Value::Continuous(c.f64()?)),
            tag => Err(CodecError {
                at: c.position() - 1,
                message: format!("unknown value tag {tag}"),
            }),
        }
    }

    /// Encode one answer: worker, row, col, value.
    pub fn put_answer(buf: &mut Vec<u8>, a: &Answer) {
        put_u32(buf, a.worker.0);
        put_u32(buf, a.cell.row);
        put_u32(buf, a.cell.col);
        put_value(buf, &a.value);
    }

    /// Decode one answer.
    pub fn get_answer(c: &mut Cursor<'_>) -> Result<Answer, CodecError> {
        let worker = WorkerId(c.u32()?);
        let row = c.u32()?;
        let col = c.u32()?;
        let value = get_value(c)?;
        Ok(Answer { worker, cell: CellId::new(row, col), value })
    }

    /// Encode a batch of answers (count-prefixed).
    pub fn put_answers(buf: &mut Vec<u8>, answers: &[Answer]) {
        put_u32(buf, answers.len() as u32);
        for a in answers {
            put_answer(buf, a);
        }
    }

    /// Decode a batch of answers written by [`put_answers`].
    pub fn get_answers(c: &mut Cursor<'_>) -> Result<Vec<Answer>, CodecError> {
        let n = c.u32()? as usize;
        // 13 bytes is the smallest possible encoded answer; reject counts the
        // buffer cannot possibly hold before allocating.
        if n.saturating_mul(13) > c.remaining() {
            return Err(CodecError {
                at: c.position(),
                message: format!("answer count {n} overruns the buffer"),
            });
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(get_answer(c)?);
        }
        Ok(out)
    }

    /// Encode a full answer log (shape + answers in insertion order).
    ///
    /// Decoding with [`get_log`] reproduces a **bit-identical** log: same
    /// shape, same answers in the same order — and therefore identical
    /// freezes and inference results.
    pub fn put_log(buf: &mut Vec<u8>, log: &AnswerLog) {
        put_u64(buf, log.rows() as u64);
        put_u64(buf, log.cols() as u64);
        put_answers(buf, log.all());
    }

    /// Decode an answer log written by [`put_log`].
    pub fn get_log(c: &mut Cursor<'_>) -> Result<AnswerLog, CodecError> {
        let rows = c.u64()? as usize;
        let cols = c.u64()? as usize;
        if rows.saturating_mul(cols) > u32::MAX as usize {
            return Err(CodecError {
                at: c.position(),
                message: format!("implausible log shape {rows}x{cols}"),
            });
        }
        let answers = get_answers(c)?;
        let mut log = AnswerLog::new(rows, cols);
        for (i, a) in answers.into_iter().enumerate() {
            if a.cell.row as usize >= rows || a.cell.col as usize >= cols {
                return Err(CodecError {
                    at: c.position(),
                    message: format!(
                        "answer {i} addresses cell ({}, {}) outside the {rows}x{cols} table",
                        a.cell.row, a.cell.col
                    ),
                });
            }
            log.push(a);
        }
        Ok(log)
    }

    const COLUMN_CATEGORICAL: u8 = 0;
    const COLUMN_CONTINUOUS: u8 = 1;

    /// Encode a schema (name, key, columns with types and domains).
    pub fn put_schema(buf: &mut Vec<u8>, schema: &Schema) {
        put_str(buf, &schema.name);
        put_str(buf, &schema.key);
        put_u32(buf, schema.columns.len() as u32);
        for c in &schema.columns {
            put_str(buf, &c.name);
            match &c.ty {
                ColumnType::Categorical { labels } => {
                    put_u8(buf, COLUMN_CATEGORICAL);
                    put_u32(buf, labels.len() as u32);
                    for l in labels {
                        put_str(buf, l);
                    }
                }
                ColumnType::Continuous { min, max } => {
                    put_u8(buf, COLUMN_CONTINUOUS);
                    put_f64(buf, *min);
                    put_f64(buf, *max);
                }
            }
        }
    }

    /// Decode a schema written by [`put_schema`].
    pub fn get_schema(c: &mut Cursor<'_>) -> Result<Schema, CodecError> {
        let name = c.str()?;
        let key = c.str()?;
        let n_cols = c.u32()? as usize;
        if n_cols == 0 {
            return Err(CodecError { at: c.position(), message: "schema has no columns".into() });
        }
        let mut columns = Vec::with_capacity(n_cols.min(1024));
        for _ in 0..n_cols {
            let cname = c.str()?;
            let ty = match c.u8()? {
                COLUMN_CATEGORICAL => {
                    let n_labels = c.u32()? as usize;
                    if n_labels == 0 {
                        return Err(CodecError {
                            at: c.position(),
                            message: "categorical column with no labels".into(),
                        });
                    }
                    let mut labels = Vec::with_capacity(n_labels.min(4096));
                    for _ in 0..n_labels {
                        labels.push(c.str()?);
                    }
                    ColumnType::Categorical { labels }
                }
                COLUMN_CONTINUOUS => {
                    let min = c.f64()?;
                    let max = c.f64()?;
                    ColumnType::Continuous { min, max }
                }
                tag => {
                    return Err(CodecError {
                        at: c.position() - 1,
                        message: format!("unknown column tag {tag}"),
                    })
                }
            };
            columns.push(Column::new(cname, ty));
        }
        Ok(Schema::new(name, key, columns))
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::generator::{generate_dataset, GeneratorConfig};

        fn sample() -> crate::dataset::Dataset {
            generate_dataset(
                &GeneratorConfig {
                    rows: 10,
                    columns: 5,
                    num_workers: 7,
                    answers_per_task: 3,
                    ..Default::default()
                },
                11,
            )
        }

        #[test]
        fn log_roundtrip_is_bit_identical() {
            let d = sample();
            let mut buf = Vec::new();
            put_log(&mut buf, &d.answers);
            let mut c = Cursor::new(&buf);
            let back = get_log(&mut c).unwrap();
            assert!(c.is_empty(), "decoder must consume the whole encoding");
            assert_eq!(back.rows(), d.answers.rows());
            assert_eq!(back.cols(), d.answers.cols());
            assert_eq!(back.all(), d.answers.all());
            // Continuous payloads survive to the bit.
            for (a, b) in back.all().iter().zip(d.answers.all()) {
                if let (Value::Continuous(x), Value::Continuous(y)) = (a.value, b.value) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }

        #[test]
        fn schema_roundtrip() {
            let d = sample();
            let mut buf = Vec::new();
            put_schema(&mut buf, &d.schema);
            let back = get_schema(&mut Cursor::new(&buf)).unwrap();
            assert_eq!(back, d.schema);
        }

        #[test]
        fn truncation_is_an_error_at_every_prefix() {
            let d = sample();
            let mut buf = Vec::new();
            put_log(&mut buf, &d.answers);
            for cut in 0..buf.len() {
                assert!(
                    get_log(&mut Cursor::new(&buf[..cut])).is_err(),
                    "decoding a {cut}-byte prefix of a {}-byte log must fail",
                    buf.len()
                );
            }
        }

        #[test]
        fn unknown_tags_and_bad_shapes_are_rejected() {
            // Unknown value tag.
            let mut buf = Vec::new();
            put_u32(&mut buf, 1); // worker
            put_u32(&mut buf, 0); // row
            put_u32(&mut buf, 0); // col
            put_u8(&mut buf, 9); // bad tag
            assert!(get_answer(&mut Cursor::new(&buf)).is_err());

            // Answer outside the declared shape.
            let mut log = AnswerLog::new(4, 2);
            log.push(Answer {
                worker: WorkerId(0),
                cell: CellId::new(3, 1),
                value: Value::Categorical(0),
            });
            let mut buf = Vec::new();
            put_u64(&mut buf, 2); // claim 2 rows…
            put_u64(&mut buf, 2);
            put_answers(&mut buf, log.all()); // …but the answer sits on row 3
            assert!(get_log(&mut Cursor::new(&buf)).is_err());

            // Hostile count that cannot fit the buffer.
            let mut buf = Vec::new();
            put_u32(&mut buf, u32::MAX);
            assert!(get_answers(&mut Cursor::new(&buf)).is_err());
        }

        #[test]
        fn strings_with_multibyte_utf8_roundtrip() {
            let mut buf = Vec::new();
            put_str(&mut buf, "café ∞ 表");
            assert_eq!(Cursor::new(&buf).str().unwrap(), "café ∞ 表");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_dataset, GeneratorConfig};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tcrowd_io_tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}_{name}", std::process::id()))
    }

    fn sample() -> crate::dataset::Dataset {
        generate_dataset(
            &GeneratorConfig {
                rows: 8,
                columns: 4,
                num_workers: 6,
                answers_per_task: 2,
                ..Default::default()
            },
            3,
        )
    }

    #[test]
    fn schema_roundtrip() {
        let d = sample();
        let p = tmp("schema.tsv");
        write_schema(&d.schema, &p).unwrap();
        let back = read_schema(&p).unwrap();
        assert_eq!(back, d.schema);
        fs::remove_file(&p).ok();
    }

    #[test]
    fn answers_roundtrip() {
        let d = sample();
        let p = tmp("answers.tsv");
        write_answers(&d.schema, &d.answers, &p).unwrap();
        let back = read_answers(&d.schema, d.rows(), &p).unwrap();
        assert_eq!(back.all(), d.answers.all());
        fs::remove_file(&p).ok();
    }

    #[test]
    fn table_roundtrip() {
        let d = sample();
        let p = tmp("truth.tsv");
        write_table(&d.schema, &d.truth, &p).unwrap();
        let back = read_table(&d.schema, &p).unwrap();
        assert_eq!(back.len(), d.truth.len());
        for (a, b) in back.iter().flatten().zip(d.truth.iter().flatten()) {
            match (a, b) {
                (Value::Categorical(x), Value::Categorical(y)) => assert_eq!(x, y),
                (Value::Continuous(x), Value::Continuous(y)) => {
                    assert!((x - y).abs() < 1e-9)
                }
                _ => panic!("variant mismatch"),
            }
        }
        fs::remove_file(&p).ok();
    }

    #[test]
    fn read_schema_rejects_garbage() {
        let p = tmp("bad.schema.tsv");
        fs::write(&p, "#column\tx\tcategorical\t\n").unwrap();
        assert!(read_schema(&p).is_err());
        fs::write(&p, "#column\tx\tcontinuous\t5\t1\n").unwrap();
        let err = read_schema(&p).unwrap_err();
        assert!(err.to_string().contains("min < max"), "{err}");
        fs::write(&p, "#banana\n").unwrap();
        assert!(read_schema(&p).is_err());
        fs::remove_file(&p).ok();
    }

    #[test]
    fn read_answers_rejects_bad_rows_and_labels() {
        let d = sample();
        let p = tmp("bad.answers.tsv");
        fs::write(&p, "worker\trow\tcolumn\tvalue\n0\t99\tcat0\tL0\n").unwrap();
        let err = read_answers(&d.schema, d.rows(), &p).unwrap_err();
        assert!(err.to_string().contains("outside table"), "{err}");
        fs::write(&p, "worker\trow\tcolumn\tvalue\n0\t0\tcat0\tnot_a_label\n").unwrap();
        assert!(read_answers(&d.schema, d.rows(), &p).is_err());
        fs::write(&p, "worker\trow\tcolumn\tvalue\n0\t0\tnope\tL0\n").unwrap();
        assert!(read_answers(&d.schema, d.rows(), &p).is_err());
        fs::remove_file(&p).ok();
    }

    #[test]
    fn empty_answer_file_is_just_empty() {
        let d = sample();
        let p = tmp("empty.answers.tsv");
        fs::write(&p, "worker\trow\tcolumn\tvalue\n").unwrap();
        let log = read_answers(&d.schema, d.rows(), &p).unwrap();
        assert!(log.is_empty());
        fs::remove_file(&p).ok();
    }
}
