//! Compressed sparse rows: the one adjacency layout of the workspace.
//!
//! A dataset indexes its answer log per task and per worker with
//! [`Csr<()>`] rows of record indices, and the inference views store
//! `(worker, label)` / `(task, value)` rows in the same layout. Every
//! constructor is the same stable counting sort on the row index — no
//! comparison sort, and no heap block per row.

/// Compressed sparse rows: `entries` holds each row's items contiguously,
/// `offsets[i]..offsets[i+1]` delimits row `i`. Entry columns are `u32`
/// (task, worker and record indices all fit), keeping the buffer compact.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr<V> {
    offsets: Vec<u32>,
    entries: Vec<(u32, V)>,
}

impl<V: Copy + Default> Csr<V> {
    /// Build from `(row, col, value)` triples, preserving the triple
    /// order within each row (a stable counting sort on the row index —
    /// two passes, no comparison sort).
    pub fn from_triples(
        num_rows: usize,
        triples: impl Iterator<Item = (usize, u32, V)> + Clone,
    ) -> Self {
        let mut offsets = vec![0u32; num_rows + 1];
        // Internal iteration (`for_each`) lets nested sources such as
        // `flat_map` run as plain loops.
        triples
            .clone()
            .for_each(|(row, _, _)| offsets[row + 1] += 1);
        for i in 0..num_rows {
            offsets[i + 1] += offsets[i];
        }
        let mut entries = vec![(0, V::default()); offsets[num_rows] as usize];
        let mut cursor: Vec<u32> = offsets[..num_rows].to_vec();
        triples.for_each(|(row, col, v)| {
            let slot = &mut cursor[row];
            entries[*slot as usize] = (col, v);
            *slot += 1;
        });
        Self { offsets, entries }
    }

    /// Build from `(row, col, value)` triples in a **single pass**, for
    /// callers that already know each row's entry count (the sharded
    /// view derives its worker rows this way from counted task rows).
    /// Unlike [`Csr::from_triples`] the iterator is consumed once and
    /// needs no `Clone` bound.
    ///
    /// Triple order within each row is preserved (same stable
    /// counting-sort layout as the two-pass path, so the two
    /// constructors produce identical buffers for identical input).
    ///
    /// # Panics
    /// Panics if a triple's row is out of range or a row receives more
    /// or fewer entries than `row_counts` promised — a miscounted CSR
    /// would mis-slice every downstream hot loop. The check runs once
    /// per row after the scatter: any miscount leaves some row's cursor
    /// off its end (an entry past the end of the buffer panics on the
    /// index instead).
    pub fn from_triples_counted(
        row_counts: &[u32],
        triples: impl Iterator<Item = (usize, u32, V)>,
    ) -> Self {
        let num_rows = row_counts.len();
        let mut offsets = vec![0u32; num_rows + 1];
        for (i, &c) in row_counts.iter().enumerate() {
            offsets[i + 1] = offsets[i] + c;
        }
        let mut entries = vec![(0, V::default()); offsets[num_rows] as usize];
        let mut cursor: Vec<u32> = offsets[..num_rows].to_vec();
        triples.for_each(|(row, col, v)| {
            let slot = &mut cursor[row];
            entries[*slot as usize] = (col, v);
            *slot += 1;
        });
        assert!(
            cursor.iter().zip(&offsets[1..]).all(|(c, end)| c == end),
            "row counts disagree with the triples"
        );
        Self { offsets, entries }
    }

    /// Split at the row boundaries `starts` (`starts[0] = 0`, the last
    /// is [`Csr::num_rows`], non-decreasing) into one CSR per window
    /// `starts[k]..starts[k + 1]`, in ascending order, each with local
    /// row numbers. Parts are peeled off the tail, so every entry is
    /// copied at most once — and not at all when there is one window.
    ///
    /// # Panics
    /// Panics if `starts` does not run from 0 to `num_rows()` in
    /// non-decreasing order.
    pub fn split_rows(self, starts: &[usize]) -> Vec<Self> {
        assert!(
            starts.first() == Some(&0)
                && starts.last() == Some(&self.num_rows())
                && starts.windows(2).all(|w| w[0] <= w[1]),
            "split points must run from 0 to the row count in order"
        );
        if starts.len() == 2 {
            return vec![self];
        }
        let Self {
            offsets,
            mut entries,
        } = self;
        let mut parts = Vec::with_capacity(starts.len() - 1);
        for w in starts.windows(2).rev() {
            let (start, end) = (w[0], w[1]);
            let base = offsets[start];
            let part = if start == 0 {
                let mut head = std::mem::take(&mut entries);
                head.shrink_to_fit();
                head
            } else {
                entries.split_off(base as usize)
            };
            parts.push(Self {
                offsets: offsets[start..=end].iter().map(|&o| o - base).collect(),
                entries: part,
            });
        }
        parts.reverse();
        parts
    }

    /// Row `i` as a contiguous slice of `(col, value)` pairs.
    #[inline]
    pub fn row(&self, i: usize) -> &[(u32, V)] {
        &self.entries[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of entries in row `i`.
    #[inline]
    pub fn row_len(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Every entry, row after row.
    #[inline]
    pub fn entries(&self) -> &[(u32, V)] {
        &self.entries
    }

    /// Total entries.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The longest row's length (0 with no rows).
    pub fn max_row_len(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_rows_matches_per_window_builds() {
        let triples = [
            (0usize, 5u32, 1u8),
            (2, 6, 2),
            (0, 7, 3),
            (3, 8, 4),
            (2, 9, 5),
        ];
        let whole = Csr::from_triples(4, triples.iter().copied());
        for starts in [
            vec![0, 4],
            vec![0, 1, 4],
            vec![0, 2, 2, 3, 4],
            vec![0, 0, 4, 4],
        ] {
            let parts = whole.clone().split_rows(&starts);
            assert_eq!(parts.len(), starts.len() - 1);
            for (part, w) in parts.iter().zip(starts.windows(2)) {
                let local = Csr::from_triples(
                    w[1] - w[0],
                    triples
                        .iter()
                        .filter(|&&(row, _, _)| (w[0]..w[1]).contains(&row))
                        .map(|&(row, col, v)| (row - w[0], col, v)),
                );
                assert_eq!(part, &local, "window {w:?} of {starts:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "split points")]
    fn split_rows_rejects_a_short_directory() {
        let whole = Csr::from_triples(3, [(0usize, 1u32, ())].into_iter());
        let _ = whole.split_rows(&[0, 2]);
    }

    #[test]
    fn max_row_len_reads_the_offsets() {
        let csr = Csr::from_triples(3, [(2usize, 0u32, ()), (2, 1, ()), (0, 2, ())].into_iter());
        assert_eq!(csr.max_row_len(), 2);
        assert_eq!(
            Csr::<()>::from_triples(0, std::iter::empty()).max_row_len(),
            0
        );
    }
}
