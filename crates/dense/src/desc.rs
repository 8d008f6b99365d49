//! Matrix descriptors over a flat [`memsim::Mem`] address space.
//!
//! A [`MatDesc`] is a view — base address, shape, row stride — into the
//! word-addressed memory the instrumented kernels run on. Blocks of a
//! matrix are descriptors with the same stride, so kernels recurse over
//! blocks without copying (exactly like the `denseMat::block` calls in the
//! paper's Figure 4 listings).

use memsim::Mem;
use wa_core::Mat;

/// A strided matrix view into a flat word-addressed memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatDesc {
    /// Word address of element (0,0).
    pub base: usize,
    pub rows: usize,
    pub cols: usize,
    /// Words between consecutive rows.
    pub stride: usize,
}

impl MatDesc {
    /// A dense (packed) `rows × cols` descriptor at `base`.
    pub fn new(base: usize, rows: usize, cols: usize) -> Self {
        MatDesc {
            base,
            rows,
            cols,
            stride: cols,
        }
    }

    /// Word address of element `(i, j)`.
    #[inline]
    pub fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.rows && j < self.cols);
        self.base + i * self.stride + j
    }

    /// The `(bi, bj)`-th block of size up to `b × b` (clipped at the
    /// edges), as in `denseMat::block(i, j, b)` in the paper's listings.
    pub fn block(&self, bi: usize, bj: usize, b: usize) -> MatDesc {
        let r0 = bi * b;
        let c0 = bj * b;
        debug_assert!(r0 < self.rows && c0 < self.cols);
        MatDesc {
            base: self.base + r0 * self.stride + c0,
            rows: b.min(self.rows - r0),
            cols: b.min(self.cols - c0),
            stride: self.stride,
        }
    }

    /// Arbitrary sub-view starting at `(r0, c0)` of shape `rows × cols`.
    pub fn sub(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> MatDesc {
        debug_assert!(r0 + rows <= self.rows && c0 + cols <= self.cols);
        MatDesc {
            base: self.base + r0 * self.stride + c0,
            rows,
            cols,
            stride: self.stride,
        }
    }

    /// Copy a [`Mat`] into memory at this descriptor.
    pub fn store_mat<M: Mem>(&self, mem: &mut M, m: &Mat) {
        assert_eq!((m.rows(), m.cols()), (self.rows, self.cols));
        for i in 0..self.rows {
            for j in 0..self.cols {
                mem.st(self.idx(i, j), m[(i, j)]);
            }
        }
    }

    /// Read this view back out as a [`Mat`].
    pub fn load_mat<M: Mem>(&self, mem: &mut M) -> Mat {
        Mat::from_fn(self.rows, self.cols, |i, j| mem.ld(self.idx(i, j)))
    }
}

/// Allocate consecutive descriptors in a fresh address space; returns the
/// descriptors and the total words needed. Useful for setting up kernels:
///
/// ```
/// use dense::desc::alloc_layout;
/// let (descs, words) = alloc_layout(&[(4, 4), (4, 6)]);
/// assert_eq!(descs[1].base, 16);
/// assert_eq!(words, 40);
/// ```
pub fn alloc_layout(shapes: &[(usize, usize)]) -> (Vec<MatDesc>, usize) {
    let mut base = 0;
    let mut out = Vec::with_capacity(shapes.len());
    for &(r, c) in shapes {
        out.push(MatDesc::new(base, r, c));
        base += r * c;
    }
    (out, base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::RawMem;

    #[test]
    fn idx_row_major() {
        let d = MatDesc::new(100, 3, 5);
        assert_eq!(d.idx(0, 0), 100);
        assert_eq!(d.idx(2, 4), 100 + 2 * 5 + 4);
    }

    #[test]
    fn blocks_share_storage() {
        let d = MatDesc::new(0, 8, 8);
        let b = d.block(1, 1, 4);
        assert_eq!(b.idx(0, 0), d.idx(4, 4));
        assert_eq!(b.idx(3, 3), d.idx(7, 7));
        assert_eq!(b.stride, 8);
    }

    #[test]
    fn edge_blocks_are_clipped() {
        let d = MatDesc::new(0, 10, 10);
        let b = d.block(3, 3, 3); // starts at (9,9)
        assert_eq!((b.rows, b.cols), (1, 1));
    }

    #[test]
    fn mat_round_trip() {
        let m = Mat::random(5, 7, 11);
        let d = MatDesc::new(3, 5, 7);
        let mut mem = RawMem::new(3 + 35);
        d.store_mat(&mut mem, &m);
        let back = d.load_mat(&mut mem);
        assert_eq!(back.max_abs_diff(&m), 0.0);
    }

    #[test]
    fn layout_packs_consecutively() {
        let (d, words) = alloc_layout(&[(2, 3), (4, 4), (1, 10)]);
        assert_eq!(d[0].base, 0);
        assert_eq!(d[1].base, 6);
        assert_eq!(d[2].base, 22);
        assert_eq!(words, 32);
    }

    #[test]
    fn sub_view_addresses() {
        let d = MatDesc::new(0, 6, 6);
        let s = d.sub(2, 3, 2, 2);
        assert_eq!(s.idx(0, 0), 15);
        assert_eq!(s.idx(1, 1), 22);
    }
}
