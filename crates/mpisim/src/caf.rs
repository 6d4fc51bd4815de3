//! Co-array style one-sided communication.
//!
//! LBMHD's X1 port declares the spatial grid as a co-array and performs
//! boundary exchanges with co-array subscript notation — direct `put`s into
//! a neighbour's memory, no matching receive, no intermediate copies. On
//! hardware with globally addressable memory this halves the observed
//! latency (7.3 µs → 3.9 µs on the X1) and removes the user- and
//! system-level message copies MPI makes (§3.1–3.2 of the paper).
//!
//! Here the "globally addressable memory" is process memory shared between
//! ranks: each rank owns a window (`Vec<f64>` behind an `RwLock`) and holds
//! handles to every other rank's window. The scheduler creates every
//! window centrally ([`crate::Op::CoCreate`]).

use crate::comm::{unexpected, Comm};
use crate::event::{Op, Reply};
use std::sync::{Arc, RwLock};

/// A co-array: one window of `len` doubles per rank, remotely accessible.
#[derive(Debug, Clone)]
pub struct CoArray {
    rank: usize,
    windows: Vec<Arc<RwLock<Vec<f64>>>>,
}

impl CoArray {
    /// Assemble a co-array from windows the scheduler created.
    pub(crate) fn from_windows(rank: usize, windows: Vec<Arc<RwLock<Vec<f64>>>>) -> Self {
        Self { rank, windows }
    }

    /// Collectively create a co-array with `len` elements per image.
    /// Must be called by every rank of `comm`; it is charged like a ring
    /// allgather of one origin id per step.
    pub fn create(comm: &mut Comm, len: usize) -> Self {
        match comm.link.call(Op::CoCreate { len }) {
            Reply::CoCreated(ca) => ca,
            other => unexpected(other),
        }
    }

    /// This image's index.
    pub fn this_image(&self) -> usize {
        self.rank
    }

    /// Number of images.
    pub fn num_images(&self) -> usize {
        self.windows.len()
    }

    /// One-sided put: write `data` into image `image`'s window starting at
    /// `offset` (co-array remote assignment `a(off:off+n)[image] = data`).
    pub fn put(&self, image: usize, offset: usize, data: &[f64]) {
        // INFALLIBLE: window holders only copy slices; they cannot panic
        // while locked, so poisoning is unreachable.
        let mut w = self.windows[image].write().expect("window lock");
        w[offset..offset + data.len()].copy_from_slice(data);
    }

    /// One-sided get: read `len` elements from image `image` at `offset`.
    pub fn get(&self, image: usize, offset: usize, len: usize) -> Vec<f64> {
        // INFALLIBLE: see `put` — window holders never panic.
        let w = self.windows[image].read().expect("window lock");
        w[offset..offset + len].to_vec()
    }

    /// Read-modify access to the local window.
    pub fn local_mut<R>(&self, f: impl FnOnce(&mut [f64]) -> R) -> R {
        // INFALLIBLE: a panicking user closure aborts the whole rank
        // before any other image can observe the poison.
        let mut w = self.windows[self.rank].write().expect("window lock");
        f(&mut w)
    }

    /// Read access to the local window.
    pub fn local<R>(&self, f: impl FnOnce(&[f64]) -> R) -> R {
        // INFALLIBLE: see `local_mut`.
        let w = self.windows[self.rank].read().expect("window lock");
        f(&w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run;

    #[test]
    fn put_into_neighbour_window() {
        let results = run(4, |mut c| {
            let rank = c.rank();
            let size = c.size();
            let ca = CoArray::create(&mut c, 8);
            // Each rank puts its id into the next rank's slot 0.
            ca.put((rank + 1) % size, 0, &[rank as f64]);
            c.barrier();
            ca.local(|w| w[0])
        });
        assert_eq!(results, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn get_from_remote_window() {
        let results = run(3, |mut c| {
            let rank = c.rank();
            let ca = CoArray::create(&mut c, 4);
            ca.local_mut(|w| w[2] = (rank * 100) as f64);
            c.barrier();
            ca.get((rank + 1) % 3, 2, 1)[0]
        });
        assert_eq!(results, vec![100.0, 200.0, 0.0]);
    }

    #[test]
    fn halo_exchange_via_coarray() {
        // 1D halo: each rank owns 4 interior cells plus 2 ghost slots
        // [ghost_left, interior x4, ghost_right]; puts write directly into
        // the neighbour's ghost slots, as in LBMHD's CAF port.
        let n = 4;
        let results = run(4, |mut c| {
            let rank = c.rank();
            let size = c.size();
            let ca = CoArray::create(&mut c, n + 2);
            ca.local_mut(|w| {
                for (i, x) in w[1..=n].iter_mut().enumerate() {
                    *x = (rank * n + i) as f64;
                }
            });
            c.barrier();
            let left = (rank + size - 1) % size;
            let right = (rank + 1) % size;
            // My first interior cell becomes the right ghost of my left
            // neighbour; my last interior cell the left ghost of my right
            // neighbour.
            let (first, last) = ca.local(|w| (w[1], w[n]));
            ca.put(left, n + 1, &[first]);
            ca.put(right, 0, &[last]);
            c.barrier();
            ca.local(|w| (w[0], w[n + 1]))
        });
        for (rank, (lghost, rghost)) in results.into_iter().enumerate() {
            let left_last = ((rank + 3) % 4 * n + n - 1) as f64;
            let right_first = ((rank + 1) % 4 * n) as f64;
            assert_eq!(lghost, left_last, "rank {rank} left ghost");
            assert_eq!(rghost, right_first, "rank {rank} right ghost");
        }
    }

    #[test]
    fn num_images_matches_world() {
        let results = run(5, |mut c| {
            let ca = CoArray::create(&mut c, 1);
            (ca.this_image(), ca.num_images())
        });
        for (i, (img, n)) in results.into_iter().enumerate() {
            assert_eq!(img, i);
            assert_eq!(n, 5);
        }
    }
}
