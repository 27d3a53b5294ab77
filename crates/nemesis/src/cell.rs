//! Fixed-size message cells and the per-node cell arena.
//!
//! Nemesis moves intra-node messages through fixed-size *cells* that live in
//! a shared-memory region. In this reimplementation the region is a
//! [`CellPool`] shared (via `Arc`) by all ranks of a node. A cell is
//! identified by its index in the pool; queues link cells through atomic
//! `next` indices, and exclusive access to a cell's data is represented by a
//! [`CellHandle`] — an affine token that is created when a cell is dequeued
//! and consumed when the cell is enqueued somewhere else. This makes the
//! single-owner discipline of the original C code a compile-time property.

use std::cell::UnsafeCell;
use std::sync::Arc;

use crate::sync_shim::AtomicUsize;

/// Payload bytes per cell. The original Nemesis uses 64 KB cells; we keep
/// that default (header is modelled separately, see [`MsgHeader`]).
pub const CELL_PAYLOAD: usize = 64 * 1024;

/// Sentinel index meaning "no cell".
pub(crate) const NIL: usize = usize::MAX;

/// What a fragment is part of. Messages larger than one cell are split into
/// a `First` fragment carrying the header, `Middle` fragments, and a `Last`
/// fragment (a single-cell message is `Only`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MsgKind {
    #[default]
    Only,
    First,
    Middle,
    Last,
}

/// The message header carried by the first cell of every message. Models
/// the packed 64-byte header of the C implementation; kept as a struct since
/// all ranks share an address space here.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct MsgHeader {
    /// Sender's global MPI rank.
    pub src_rank: usize,
    /// Receiver's global MPI rank.
    pub dst_rank: usize,
    /// MPI tag (already combined with the communicator context id by the
    /// upper layer).
    pub tag: u64,
    /// Total message payload size in bytes.
    pub total_len: usize,
    /// Per-(src,dst) sequence number, for reassembly and ordering checks.
    pub seq: u64,
    /// Upper-layer protocol discriminator (CH3 packet type).
    pub packet_type: u32,
    /// Protocol-specific auxiliary words (e.g. rendezvous id / offset);
    /// part of the modelled 64-byte header.
    pub aux: [u64; 2],
}

/// Contents of one cell.
///
/// The payload buffer is *lazily* sized: an untouched cell owns no heap
/// memory, and a used cell's buffer grows to the largest fragment it has
/// carried (bounded by [`CELL_PAYLOAD`]). The real Nemesis maps the full
/// 64 KB per cell up front, but at thousands of ranks that eager
/// `ranks × cells × 64 KB` footprint dominates job memory (~3 GB at 1024
/// ranks) while typical fragments touch a fraction of it — an idle job
/// must not pay for cells it never cycles.
pub struct CellData {
    /// Which rank's free queue this cell must be returned to.
    pub origin: usize,
    pub kind: MsgKind,
    pub header: MsgHeader,
    /// Number of valid bytes in `payload`.
    pub len: usize,
    payload: Vec<u8>,
}

impl CellData {
    fn new(origin: usize) -> CellData {
        CellData {
            origin,
            kind: MsgKind::Only,
            header: MsgHeader::default(),
            len: 0,
            payload: Vec::new(),
        }
    }

    /// The valid bytes of the fragment.
    pub fn payload(&self) -> &[u8] {
        &self.payload[..self.len]
    }

    /// Copy `src` into the cell, setting `len`.
    ///
    /// # Panics
    /// Panics if `src` exceeds the cell capacity.
    pub fn fill(&mut self, src: &[u8]) {
        assert!(src.len() <= CELL_PAYLOAD, "fragment exceeds cell capacity");
        self.payload.clear();
        self.payload.extend_from_slice(src);
        self.len = src.len();
    }
}

pub(crate) struct CellSlot {
    /// Link used by whatever queue currently holds the cell.
    pub(crate) next: AtomicUsize,
    data: UnsafeCell<CellData>,
}

/// A shared arena of cells, one per node. Indexable by all ranks of the
/// node; safe concurrent access is guaranteed by the [`CellHandle`]
/// ownership protocol.
pub struct CellPool {
    pub(crate) slots: Box<[CellSlot]>,
}

// SAFETY: `CellData` inside the `UnsafeCell` is only ever accessed through a
// `CellHandle`, of which at most one exists per index (they are created once
// at pool construction and thereafter only by `NemQueue::dequeue`, which
// takes ownership away from the enqueuer). The atomic `next` links are safe
// by construction.
unsafe impl Sync for CellPool {}
unsafe impl Send for CellPool {}

impl CellPool {
    /// Create a pool of `cells_per_rank * ranks` cells and hand each rank
    /// its initial set of free-cell handles. `origin` is recorded in each
    /// cell so receivers know whose free queue to return it to.
    pub fn new(ranks: usize, cells_per_rank: usize) -> (Arc<CellPool>, Vec<Vec<CellHandle>>) {
        assert!(ranks > 0 && cells_per_rank > 0);
        let total = ranks * cells_per_rank;
        let mut slots = Vec::with_capacity(total);
        for i in 0..total {
            let origin = i / cells_per_rank;
            slots.push(CellSlot {
                next: AtomicUsize::new(NIL),
                data: UnsafeCell::new(CellData::new(origin)),
            });
        }
        let pool = Arc::new(CellPool {
            slots: slots.into_boxed_slice(),
        });
        let mut per_rank = Vec::with_capacity(ranks);
        for r in 0..ranks {
            let handles = (0..cells_per_rank)
                .map(|k| CellHandle {
                    pool: Arc::clone(&pool),
                    idx: r * cells_per_rank + k,
                })
                .collect();
            per_rank.push(handles);
        }
        (pool, per_rank)
    }

    /// Number of cells in the pool.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    pub(crate) fn next_of(&self, idx: usize) -> &AtomicUsize {
        &self.slots[idx].next
    }

    /// Reconstruct a handle for a dequeued index.
    ///
    /// # Safety
    /// The caller must have exclusive ownership of `idx` (i.e. it was just
    /// removed from a queue by the single consumer, or has never been
    /// enqueued since its last handle was consumed).
    pub(crate) unsafe fn handle(self: &Arc<Self>, idx: usize) -> CellHandle {
        CellHandle {
            pool: Arc::clone(self),
            idx,
        }
    }
}

/// Exclusive ownership of one cell. Deref gives access to the cell data;
/// enqueueing consumes the handle.
pub struct CellHandle {
    pool: Arc<CellPool>,
    idx: usize,
}

impl CellHandle {
    /// The cell's index in its pool.
    pub fn index(&self) -> usize {
        self.idx
    }

    /// Split the handle into pool + index, transferring the ownership
    /// obligation to the caller (used by the queue on enqueue).
    pub(crate) fn into_parts(self) -> (Arc<CellPool>, usize) {
        (self.pool, self.idx)
    }
}

impl std::ops::Deref for CellHandle {
    type Target = CellData;
    fn deref(&self) -> &CellData {
        // SAFETY: the handle is the unique owner of this cell (type
        // invariant), so no other reference to the data exists.
        unsafe { &*self.pool.slots[self.idx].data.get() }
    }
}

impl std::ops::DerefMut for CellHandle {
    fn deref_mut(&mut self) -> &mut CellData {
        // SAFETY: as above — unique ownership.
        unsafe { &mut *self.pool.slots[self.idx].data.get() }
    }
}

impl std::fmt::Debug for CellHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CellHandle(idx={}, origin={}, kind={:?}, len={})",
            self.idx, self.origin, self.kind, self.len
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_hands_out_disjoint_cells() {
        let (pool, per_rank) = CellPool::new(3, 4);
        assert_eq!(pool.len(), 12);
        let mut seen = std::collections::HashSet::new();
        for (r, handles) in per_rank.iter().enumerate() {
            assert_eq!(handles.len(), 4);
            for h in handles {
                assert!(seen.insert(h.index()), "duplicate cell handle");
                assert_eq!(h.origin, r);
            }
        }
        assert_eq!(seen.len(), 12);
    }

    #[test]
    fn fill_and_read_payload() {
        let (_pool, mut per_rank) = CellPool::new(1, 1);
        let mut h = per_rank[0].pop().unwrap();
        h.fill(b"hello nemesis");
        h.kind = MsgKind::Only;
        h.header.tag = 42;
        assert_eq!(h.payload(), b"hello nemesis");
        assert_eq!(h.header.tag, 42);
    }

    #[test]
    #[should_panic(expected = "exceeds cell capacity")]
    fn oversized_fill_panics() {
        let (_pool, mut per_rank) = CellPool::new(1, 1);
        let mut h = per_rank[0].pop().unwrap();
        let too_big = vec![0u8; CELL_PAYLOAD + 1];
        h.fill(&too_big);
    }

    #[test]
    fn handle_is_movable_across_threads() {
        let (_pool, mut per_rank) = CellPool::new(1, 1);
        let mut h = per_rank[0].pop().unwrap();
        h.fill(b"x");
        let h = std::thread::spawn(move || {
            assert_eq!(h.payload(), b"x");
            h
        })
        .join()
        .unwrap();
        assert_eq!(h.index(), 0);
    }
}
