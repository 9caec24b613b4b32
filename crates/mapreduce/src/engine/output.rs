//! What leaves a task's operator graph: shuffle records into one run per
//! reducer, and output rows collected for the client or written as the
//! SequenceFile part a later job reads. Rows (the row engine) and batches
//! (the vector engine's sinks) take the same path and encode to the same
//! bytes; a batch's are encoded straight from its columns, and it becomes
//! `Row`s only when its rows go to the client.

use super::shuffle::{Run, ShuffleWriter};
use hive_common::{DataType, Result, Row};
use hive_dfs::Dfs;
use hive_exec::graph::{ShuffleBatch, ShuffleRecord, TaskOutput};
use hive_formats::sequence::SequenceWriter;
use hive_formats::TableWriter;
use hive_vector::row_convert::batch_to_rows;
use hive_vector::VectorizedRowBatch;

/// One task's [`TaskOutput`].
pub(super) struct TaskWriter<'a> {
    shuffle: ShuffleWriter,
    pub(super) shuffle_records: u64,
    rows: Rows<'a>,
}

/// Where a task's output rows go.
enum Rows<'a> {
    /// To the client.
    Collect(Vec<Row>),
    /// Into a part file.
    Part(Part<'a>),
}

/// The part file at `path`, created with its first record.
struct Part<'a> {
    dfs: &'a Dfs,
    path: String,
    writer: Option<SequenceWriter>,
}

impl Part<'_> {
    fn writer(&mut self) -> &mut SequenceWriter {
        let (dfs, path) = (self.dfs, &self.path);
        self.writer
            .get_or_insert_with(|| SequenceWriter::create(dfs, path))
    }
}

impl<'a> TaskWriter<'a> {
    /// A task shuffling to `reducers` runs whose output rows are collected,
    /// or written as the part file `part` names.
    pub(super) fn new(reducers: usize, part: Option<(&'a Dfs, String)>) -> TaskWriter<'a> {
        let rows = match part {
            Some((dfs, path)) => Rows::Part(Part {
                dfs,
                path,
                writer: None,
            }),
            None => Rows::Collect(Vec::new()),
        };
        TaskWriter {
            shuffle: ShuffleWriter::new(reducers),
            shuffle_records: 0,
            rows,
        }
    }

    /// The runs, the collected rows, and the part file's bytes (0 when no
    /// row was written).
    pub(super) fn finish(self) -> Result<(Vec<Run>, Vec<Row>, u64)> {
        let runs = self.shuffle.finish();
        match self.rows {
            Rows::Collect(rows) => Ok((runs, rows, 0)),
            Rows::Part(part) => {
                let written = part.writer.map_or(Ok(0), |w| Box::new(w).close())?;
                Ok((runs, Vec::new(), written))
            }
        }
    }
}

impl TaskOutput for TaskWriter<'_> {
    fn shuffle(&mut self, rec: ShuffleRecord) -> Result<()> {
        self.shuffle_records += 1;
        self.shuffle.push(&rec);
        Ok(())
    }

    fn shuffle_batch(&mut self, rows: &ShuffleBatch) -> Result<()> {
        self.shuffle_records += rows.batch.size as u64;
        self.shuffle.push_batch(rows);
        Ok(())
    }

    fn output(&mut self, row: Row) -> Result<()> {
        match &mut self.rows {
            Rows::Collect(rows) => rows.push(row),
            Rows::Part(part) => part.writer().write_row(&row)?,
        }
        Ok(())
    }

    fn output_batch(
        &mut self,
        batch: &VectorizedRowBatch,
        columns: &[(usize, DataType)],
    ) -> Result<()> {
        match &mut self.rows {
            Rows::Collect(rows) => rows.extend(batch_to_rows(batch, columns)),
            Rows::Part(part) if batch.size > 0 => part.writer().write_cells(batch, columns),
            Rows::Part(_) => {}
        }
        Ok(())
    }
}
