//! Disjoint mutable windows over one output buffer.
//!
//! On the GPU each warp writes its tile's nonzeros into a disjoint range of
//! the global `val`/`idx` arrays, computed from the `tileNnz` offsets. The
//! safe Rust analogue is to split the output slice into per-tile mutable
//! windows up front and hand each window to one Rayon task.

/// Splits `data` into `offsets.len() - 1` disjoint mutable windows, where
/// window `i` is `data[offsets[i]..offsets[i + 1]]`.
///
/// `offsets` must be non-decreasing, start at 0, and end at `data.len()` —
/// exactly the shape of a CSR-style pointer array.
///
/// # Panics
/// Panics if the offsets are malformed.
pub fn split_mut_by_offsets<'a, T>(data: &'a mut [T], offsets: &[usize]) -> Vec<&'a mut [T]> {
    assert!(!offsets.is_empty(), "offsets must have at least one entry");
    assert_eq!(offsets[0], 0, "offsets must start at zero");
    assert_eq!(
        *offsets.last().unwrap(),
        data.len(),
        "offsets must end at data.len()"
    );
    let mut windows = Vec::with_capacity(offsets.len() - 1);
    let mut rest = data;
    let mut consumed = 0usize;
    for w in offsets.windows(2) {
        let (start, end) = (w[0], w[1]);
        assert!(start <= end, "offsets must be non-decreasing");
        let (head, tail) = rest.split_at_mut(end - consumed);
        windows.push(&mut head[start - consumed..]);
        // `head[..start - consumed]` is dropped: those elements were already
        // covered by the previous window's end.
        rest = tail;
        consumed = end;
    }
    windows
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn windows_cover_the_buffer_disjointly() {
        let mut data = vec![0u32; 10];
        let offsets = [0usize, 3, 3, 7, 10];
        {
            let windows = split_mut_by_offsets(&mut data, &offsets);
            assert_eq!(windows.len(), 4);
            assert_eq!(
                windows.iter().map(|w| w.len()).collect::<Vec<_>>(),
                [3, 0, 4, 3]
            );
            windows
                .into_par_iter()
                .enumerate()
                .for_each(|(i, w)| w.fill(i as u32 + 1));
        }
        assert_eq!(data, vec![1, 1, 1, 3, 3, 3, 3, 4, 4, 4]);
    }

    #[test]
    fn single_window_spans_everything() {
        let mut data = vec![7u8; 5];
        let windows = split_mut_by_offsets(&mut data, &[0, 5]);
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].len(), 5);
    }

    #[test]
    fn empty_data_empty_windows() {
        let mut data: Vec<u8> = vec![];
        let windows = split_mut_by_offsets(&mut data, &[0]);
        assert!(windows.is_empty());
    }

    #[test]
    #[should_panic(expected = "end at data.len()")]
    fn rejects_short_offsets() {
        let mut data = vec![0u8; 4];
        split_mut_by_offsets(&mut data, &[0, 2]);
    }

    #[test]
    #[should_panic(expected = "start at zero")]
    fn rejects_nonzero_start() {
        let mut data = vec![0u8; 4];
        split_mut_by_offsets(&mut data, &[1, 4]);
    }
}
