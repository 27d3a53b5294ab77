//! Copy accounting and lineage-tracked payload buffers.
//!
//! The paper's §2.1.3 / Fig. 2 argument for bypassing CH3 is that the
//! nested path costs extra handshakes **and extra copies**. This module
//! makes the copy count a first-class measured quantity instead of an
//! asserted one:
//!
//! * [`CopyMeter`] — per-stack counters for every time payload bytes are
//!   memcpy'd, every fresh payload allocation, and every zero-copy
//!   slice/share taken. One meter is threaded through the whole stack
//!   (MPI ingress → CH3 → nmad → Nemesis cells → fabric), so a run's
//!   [`CopySnapshot`] is the ground truth for "how many copies did this
//!   configuration pay per message".
//! * [`NmBuf`] — the payload newtype carried on the data path. It wraps a
//!   refcounted [`Bytes`] view plus *lineage*: which layer originated the
//!   buffer ([`BufOrigin`]) and how many zero-copy shares/slices separate
//!   this handle from that origin (`generation`). Cloning an `NmBuf` is a
//!   refcount bump, never a memcpy, and is recorded on the attached meter
//!   as a slice-ref — so the counters distinguish "the payload crossed a
//!   layer" from "the payload was duplicated".
//!
//! Storage recycling: a boundary copy above [`RECYCLE_FLOOR`] takes its
//! storage from a small free list kept per thread ([`NmBuf::copied_from_slice`]),
//! so a stream of large sends stops allocating, and faulting in, fresh
//! pages per message. The meter does not see it: it counts the buffers
//! the modelled data path materialises, not host allocations.
//!
//! Determinism: the simulation is logically single-threaded (a single
//! execution token is handed from rank context to rank context), so the
//! counters are incremented in a deterministic order and same-seed replays
//! produce bit-identical snapshots — including fault-injected runs, where
//! retransmissions and duplicate deliveries are themselves deterministic.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{Bytes, BytesMut};

/// Which layer first materialized a payload allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BufOrigin {
    /// Application buffer handed to `MPI_Send`/`MPI_Isend`.
    App,
    /// CH3 layer (packet codec, landing buffers).
    Ch3,
    /// NewMadeleine core (rendezvous reassembly, wire payloads).
    Nmad,
    /// Nemesis shared-memory channel (cell copy-out reassembly).
    Nemesis,
    /// Simulated fabric/NIC (fault-injected duplicates, test rigs).
    Fabric,
}

/// Immutable tally of a [`CopyMeter`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct CopySnapshot {
    /// Total payload bytes that were physically memcpy'd.
    pub bytes_copied: u64,
    /// Number of distinct memcpy operations on payload bytes.
    pub memcpy_calls: u64,
    /// Number of fresh payload allocations.
    pub allocations: u64,
    /// Number of zero-copy shares/slices (refcount bumps) taken.
    pub slice_refs: u64,
}

impl CopySnapshot {
    /// Counter-wise difference (`self - earlier`), for bracketing a phase.
    pub fn since(&self, earlier: &CopySnapshot) -> CopySnapshot {
        CopySnapshot {
            bytes_copied: self.bytes_copied - earlier.bytes_copied,
            memcpy_calls: self.memcpy_calls - earlier.memcpy_calls,
            allocations: self.allocations - earlier.allocations,
            slice_refs: self.slice_refs - earlier.slice_refs,
        }
    }
}

impl std::fmt::Display for CopySnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "memcpy={} ({} B) alloc={} slice={}",
            self.memcpy_calls, self.bytes_copied, self.allocations, self.slice_refs
        )
    }
}

/// Copy/allocation/share counters for one stack instance.
///
/// Cheap enough to leave on in every run: four relaxed atomic adds on the
/// payload path. The atomics are only for `Sync`; the simulator's
/// token-passing execution model means increments happen in a
/// deterministic order, so snapshots are replay-stable.
#[derive(Debug, Default)]
pub struct CopyMeter {
    bytes_copied: AtomicU64,
    memcpy_calls: AtomicU64,
    allocations: AtomicU64,
    slice_refs: AtomicU64,
}

impl CopyMeter {
    pub fn new() -> Arc<CopyMeter> {
        Arc::new(CopyMeter::default())
    }

    /// Record one memcpy of `bytes` payload bytes.
    pub fn record_copy(&self, bytes: usize) {
        self.memcpy_calls.fetch_add(1, Ordering::Relaxed);
        self.bytes_copied.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Record one fresh payload allocation: a buffer the modelled data
    /// path materialises. Whether the host storage behind it is new or
    /// recycled (see [`RECYCLE_FLOOR`]) does not change the count; host
    /// allocation is the ledger's `proc.alloc_kib_per_op`, not this.
    pub fn record_alloc(&self) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one zero-copy share/slice (refcount bump, no data movement).
    pub fn record_slice(&self) {
        self.slice_refs.fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> CopySnapshot {
        CopySnapshot {
            bytes_copied: self.bytes_copied.load(Ordering::Relaxed),
            memcpy_calls: self.memcpy_calls.load(Ordering::Relaxed),
            allocations: self.allocations.load(Ordering::Relaxed),
            slice_refs: self.slice_refs.load(Ordering::Relaxed),
        }
    }
}

/// Copies longer than this (nmad's default eager threshold, 16 KiB)
/// recycle their storage; shorter ones keep malloc's fast path, which
/// reuses small blocks without the kernel.
pub const RECYCLE_FLOOR: usize = 16 * 1024;
/// Most buffers one thread's free list holds.
pub const RECYCLE_MAX_ENTRIES: usize = 8;
/// Most bytes of storage one thread's free list holds; a longer copy is
/// never kept.
pub const RECYCLE_MAX_BYTES: usize = 2 << 20;

/// Storage of recent large boundary copies, oldest first, each with its
/// capacity. The list keeps one share of every buffer it hands out, so a
/// buffer is free again exactly when that share is its only handle
/// ([`Bytes::is_unique`]): until then the application, the retransmit
/// queue or a receiver's zero-copy view still reads it.
///
/// One list per thread: every rank of a simulated job runs on the thread
/// that called `Sim::run`, so one list serves the whole job without a
/// lock (DESIGN.md §5, "Copy discipline").
#[derive(Default)]
struct FreeList {
    entries: VecDeque<(usize, Bytes)>,
    bytes: usize,
}

thread_local! {
    static FREE_LIST: RefCell<FreeList> = RefCell::default();
}

impl FreeList {
    /// `src` in the smallest free buffer that holds it, else in a fresh
    /// one; either way the list keeps a share of the result.
    fn copy(&mut self, src: &[u8]) -> Bytes {
        let best = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, (cap, buf))| *cap >= src.len() && buf.is_unique())
            .min_by_key(|(_, (cap, _))| *cap)
            .map(|(i, _)| i);
        let (cap, mut storage) = match best.and_then(|i| self.entries.remove(i)) {
            Some((cap, buf)) => {
                self.bytes -= cap;
                let mut storage = buf
                    .try_into_mut()
                    .expect("a unique entry has no other handle to race with");
                storage.clear();
                (cap, storage)
            }
            None => (src.len(), BytesMut::with_capacity(src.len())),
        };
        storage.extend_from_slice(src);
        let data = storage.freeze();
        self.keep(cap, data.clone());
        data
    }

    /// Append `buf`, evicting the oldest free entries to stay within
    /// [`RECYCLE_MAX_ENTRIES`] and [`RECYCLE_MAX_BYTES`]. An entry still in
    /// use is never evicted: when no free one is left to make room, `buf`
    /// is not kept, since the entries already held will come back.
    fn keep(&mut self, cap: usize, buf: Bytes) {
        if cap > RECYCLE_MAX_BYTES {
            return;
        }
        while self.entries.len() >= RECYCLE_MAX_ENTRIES || self.bytes + cap > RECYCLE_MAX_BYTES {
            let Some(free) = self.entries.iter().position(|(_, b)| b.is_unique()) else {
                return;
            };
            let (old, _) = self.entries.remove(free).expect("position just found");
            self.bytes -= old;
        }
        self.bytes += cap;
        self.entries.push_back((cap, buf));
    }
}

/// The payload buffer carried across the stack's layer boundaries.
///
/// An `NmBuf` is a [`Bytes`] view (refcounted storage + start/end) plus
/// lineage metadata and an optional handle to the stack's [`CopyMeter`].
/// All duplication-shaped operations are explicit:
///
/// * [`NmBuf::share`] / `Clone` — refcount bump, recorded as a slice-ref.
/// * [`NmBuf::slice`] — zero-copy sub-view (aggregation, multirail
///   splitting, fragment cursors), recorded as a slice-ref.
/// * [`NmBuf::concat`] — reassembly: a zero-copy rejoin when the parts
///   are adjacent views of one allocation, else a metered gather.
/// * [`NmBuf::copy_out`] / [`NmBuf::copied_from_slice`] and `concat`'s
///   gather — the only operations that move bytes, recorded as memcpys.
///
/// The meter travels *with* the buffer, so layers that merely forward a
/// payload need no meter plumbing of their own, and a payload that
/// crosses a crate boundary keeps charging the same stack's counters.
#[derive(Debug)]
pub struct NmBuf {
    data: Bytes,
    origin: BufOrigin,
    /// Zero-copy hops (shares/slices) since the originating allocation.
    generation: u32,
    meter: Option<Arc<CopyMeter>>,
}

impl NmBuf {
    /// Wrap an already-owned `Bytes` without counting a new allocation
    /// (the storage existed before it entered the metered data path).
    pub fn from_bytes(data: Bytes, origin: BufOrigin) -> NmBuf {
        NmBuf {
            data,
            origin,
            generation: 0,
            meter: None,
        }
    }

    /// Wrap an owned `Bytes` and attach the stack meter, recording the
    /// ingress as an allocation-free adoption (no copy, no alloc).
    pub fn adopt(data: Bytes, origin: BufOrigin, meter: &Arc<CopyMeter>) -> NmBuf {
        NmBuf {
            data,
            origin,
            generation: 0,
            meter: Some(Arc::clone(meter)),
        }
    }

    /// Materialize a fresh owned buffer by copying `src` (the unavoidable
    /// user-slice → owned-storage ingress copy, landing-buffer freezes,
    /// codec output…). Records one allocation and one memcpy. A copy
    /// longer than [`RECYCLE_FLOOR`] lands in storage from this thread's
    /// free list when an earlier copy's storage is no longer held by
    /// anyone; shorter ones are plain allocations.
    pub fn copied_from_slice(src: &[u8], origin: BufOrigin, meter: &Arc<CopyMeter>) -> NmBuf {
        meter.record_alloc();
        meter.record_copy(src.len());
        let data = if src.len() > RECYCLE_FLOOR {
            FREE_LIST
                .try_with(|list| list.borrow_mut().copy(src))
                .unwrap_or_else(|_| Bytes::copy_from_slice(src))
        } else {
            Bytes::copy_from_slice(src)
        };
        NmBuf {
            data,
            origin,
            generation: 0,
            meter: Some(Arc::clone(meter)),
        }
    }

    /// Attach (or replace) the stack meter on an existing buffer, e.g.
    /// when an unmetered test payload enters a metered core.
    pub fn with_meter(mut self, meter: &Arc<CopyMeter>) -> NmBuf {
        self.meter = Some(Arc::clone(meter));
        self
    }

    /// Zero-copy share of the whole buffer: refcount bump, generation
    /// bump, one slice-ref on the meter. This is what layer crossings and
    /// retransmit queues use instead of cloning payload bytes.
    pub fn share(&self) -> NmBuf {
        if let Some(m) = &self.meter {
            m.record_slice();
        }
        NmBuf {
            data: self.data.clone(), // Bytes clone = refcount bump, zero-copy by construction.
            origin: self.origin,
            generation: self.generation + 1,
            meter: self.meter.as_ref().map(Arc::clone),
        }
    }

    /// Zero-copy sub-view (aggregation segments, multirail split chunks,
    /// rendezvous fragment cursors).
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> NmBuf {
        if let Some(m) = &self.meter {
            m.record_slice();
        }
        NmBuf {
            data: self.data.slice(range),
            origin: self.origin,
            generation: self.generation + 1,
            meter: self.meter.as_ref().map(Arc::clone),
        }
    }

    /// Reassemble `parts`, in order and `len` bytes in all, into one
    /// buffer charged to `meter`. Parts that are adjacent views of one
    /// allocation — the chunks of a rendezvous, each cut from the
    /// sender's one payload — rejoin into one view of it: no allocation,
    /// no copy, one slice-ref when more than one part was joined.
    /// Anything else is gathered: one allocation, one memcpy per part.
    pub fn concat(parts: Vec<NmBuf>, len: usize, meter: &Arc<CopyMeter>) -> NmBuf {
        debug_assert_eq!(parts.iter().map(NmBuf::len).sum::<usize>(), len);
        let mut views = parts.iter().map(|p| &p.data);
        let first = views.next().cloned().unwrap_or_default();
        if let Some(data) = views.try_fold(first, |view, next| view.rejoin(next)) {
            let joined = parts.len() > 1;
            if joined {
                meter.record_slice();
            }
            let (origin, generation) = parts.first().map_or((BufOrigin::Nmad, 0), |p| {
                (p.origin, p.generation + joined as u32)
            });
            return NmBuf {
                data,
                origin,
                generation,
                meter: Some(Arc::clone(meter)),
            };
        }
        meter.record_alloc();
        let mut gathered = Vec::with_capacity(len);
        for part in &parts {
            meter.record_copy(part.len());
            gathered.extend_from_slice(part);
        }
        NmBuf::adopt(Bytes::from(gathered), BufOrigin::Nmad, meter)
    }

    /// Memcpy this buffer's contents into `dst` (cell fill, landing
    /// buffer gather). The one place egress copies are charged.
    pub fn copy_out(&self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.data);
        if let Some(m) = &self.meter {
            m.record_copy(self.data.len());
        }
    }

    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn origin(&self) -> BufOrigin {
        self.origin
    }

    #[inline]
    pub fn generation(&self) -> u32 {
        self.generation
    }

    #[inline]
    pub fn meter(&self) -> Option<&Arc<CopyMeter>> {
        self.meter.as_ref()
    }

    /// Borrow the underlying `Bytes` view.
    #[inline]
    pub fn bytes(&self) -> &Bytes {
        &self.data
    }

    /// Surrender the underlying `Bytes` view (e.g. handing a received
    /// payload to the user). Zero-copy; lineage ends here.
    #[inline]
    pub fn into_bytes(self) -> Bytes {
        self.data
    }

    /// One-line lineage summary for `debug_state()` dumps.
    pub fn lineage(&self) -> String {
        format!(
            "{:?}+{}g/{}B",
            self.origin,
            self.generation,
            self.data.len()
        )
    }
}

/// `Clone` is required by container types on the wire (duplicate-fault
/// delivery, retransmit queues). It is defined as [`NmBuf::share`]: a
/// metered refcount bump — cloning an `NmBuf` can never memcpy payload.
impl Clone for NmBuf {
    fn clone(&self) -> NmBuf {
        self.share()
    }
}

impl Default for NmBuf {
    fn default() -> NmBuf {
        NmBuf::from_bytes(Bytes::new(), BufOrigin::App)
    }
}

impl std::ops::Deref for NmBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for NmBuf {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

/// Equality is over contents only — lineage is bookkeeping, not identity.
impl PartialEq for NmBuf {
    fn eq(&self, other: &NmBuf) -> bool {
        self.data == other.data
    }
}

impl Eq for NmBuf {}

impl From<Bytes> for NmBuf {
    fn from(data: Bytes) -> NmBuf {
        NmBuf::from_bytes(data, BufOrigin::App)
    }
}

impl From<Vec<u8>> for NmBuf {
    fn from(v: Vec<u8>) -> NmBuf {
        NmBuf::from_bytes(Bytes::from(v), BufOrigin::App)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_and_slice_are_zero_copy_and_metered() {
        let meter = CopyMeter::new();
        let buf = NmBuf::copied_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8], BufOrigin::App, &meter);
        let s0 = meter.snapshot();
        assert_eq!(
            s0,
            CopySnapshot {
                bytes_copied: 8,
                memcpy_calls: 1,
                allocations: 1,
                slice_refs: 0
            }
        );

        let half = buf.slice(0..4);
        let whole = buf.share();
        // Same backing storage: refcount bumps, no bytes moved.
        assert_eq!(half.bytes().storage_ptr(), buf.bytes().storage_ptr());
        assert_eq!(whole.bytes().storage_ptr(), buf.bytes().storage_ptr());
        assert_eq!(buf.bytes().ref_count(), Some(3));
        assert_eq!(whole.generation(), 1);

        let s1 = meter.snapshot().since(&s0);
        assert_eq!(s1.memcpy_calls, 0);
        assert_eq!(s1.allocations, 0);
        assert_eq!(s1.slice_refs, 2);
    }

    #[test]
    fn copy_out_charges_the_meter() {
        let meter = CopyMeter::new();
        let buf = NmBuf::adopt(Bytes::from(vec![9u8; 16]), BufOrigin::Nmad, &meter);
        let mut dst = [0u8; 16];
        buf.copy_out(&mut dst);
        assert_eq!(dst, [9u8; 16]);
        let s = meter.snapshot();
        assert_eq!((s.memcpy_calls, s.bytes_copied, s.allocations), (1, 16, 0));
    }

    #[test]
    fn concat_rejoins_adjacent_views_and_gathers_the_rest() {
        let meter = CopyMeter::new();
        let whole = NmBuf::from((0u8..12).collect::<Vec<_>>());
        let parts = vec![whole.slice(0..5), whole.slice(5..9), whole.slice(9..)];
        let joined = NmBuf::concat(parts, 12, &meter);
        assert_eq!(joined, whole);
        assert_eq!(joined.bytes().storage_ptr(), whole.bytes().storage_ptr());
        let s = meter.snapshot();
        assert_eq!((s.memcpy_calls, s.allocations, s.slice_refs), (0, 0, 1));

        // Two allocations: one fresh buffer, one copy per part.
        let meter = CopyMeter::new();
        let parts = vec![whole.slice(0..5), NmBuf::from(whole[5..].to_vec())];
        let gathered = NmBuf::concat(parts, 12, &meter);
        assert_eq!(gathered, whole);
        assert_ne!(gathered.bytes().storage_ptr(), whole.bytes().storage_ptr());
        let s = meter.snapshot();
        assert_eq!((s.memcpy_calls, s.bytes_copied, s.allocations), (2, 12, 1));

        let meter = CopyMeter::new();
        let one = NmBuf::concat(vec![whole.share()], 12, &meter);
        assert_eq!(one.bytes().storage_ptr(), whole.bytes().storage_ptr());
        assert!(NmBuf::concat(Vec::new(), 0, &meter).is_empty());
        assert_eq!(meter.snapshot(), CopySnapshot::default(), "nothing joined");
    }

    /// This thread's free list as `(entries, bytes)`.
    fn free_list() -> (usize, usize) {
        FREE_LIST.with(|l| {
            let l = l.borrow();
            (l.entries.len(), l.bytes)
        })
    }

    /// The storage of every buffer this thread's free list keeps, oldest
    /// first.
    fn kept_storage() -> Vec<*const u8> {
        FREE_LIST.with(|l| {
            let l = l.borrow();
            l.entries.iter().map(|(_, b)| b.storage_ptr()).collect()
        })
    }

    /// Start a test from an empty free list (the harness may run several
    /// tests on one thread).
    fn empty_free_list() {
        FREE_LIST.with(|l| *l.borrow_mut() = FreeList::default());
    }

    const BIG: usize = 64 * 1024;

    #[test]
    fn a_dropped_large_copy_lends_its_storage_to_the_next() {
        empty_free_list();
        let meter = CopyMeter::new();
        let first = NmBuf::copied_from_slice(&[1u8; BIG], BufOrigin::App, &meter);
        let ptr = first.bytes().storage_ptr();
        drop(first);
        let same = NmBuf::copied_from_slice(&[2u8; BIG], BufOrigin::App, &meter);
        assert_eq!(same.bytes().storage_ptr(), ptr, "equal size reuses");
        assert!(same.iter().all(|&b| b == 2));
        drop(same);
        let smaller = NmBuf::copied_from_slice(&[3u8; BIG / 2], BufOrigin::App, &meter);
        assert_eq!(smaller.bytes().storage_ptr(), ptr, "a smaller copy reuses");
        assert_eq!(smaller.len(), BIG / 2);
        assert!(smaller.iter().all(|&b| b == 3));
        assert_eq!(free_list(), (1, BIG), "one buffer, counted at capacity");

        // Below the floor nothing enters the list.
        let small = NmBuf::copied_from_slice(&[4u8; RECYCLE_FLOOR], BufOrigin::App, &meter);
        assert_eq!(free_list(), (1, BIG));
        drop(small);

        // Recycled or not, each copy is one allocation and one memcpy of
        // the modelled data path.
        let s = meter.snapshot();
        assert_eq!((s.allocations, s.memcpy_calls), (4, 4));
        assert_eq!(s.bytes_copied, (2 * BIG + BIG / 2 + RECYCLE_FLOOR) as u64);
    }

    #[test]
    fn the_smallest_free_buffer_that_fits_is_chosen() {
        empty_free_list();
        let meter = CopyMeter::new();
        let sizes = [4 * BIG, BIG, 2 * BIG];
        let bufs: Vec<NmBuf> = sizes
            .iter()
            .map(|&n| NmBuf::copied_from_slice(&vec![0u8; n], BufOrigin::App, &meter))
            .collect();
        let ptrs: Vec<_> = bufs.iter().map(|b| b.bytes().storage_ptr()).collect();
        drop(bufs);
        let fit = NmBuf::copied_from_slice(&[5u8; BIG + 1], BufOrigin::App, &meter);
        assert_eq!(fit.bytes().storage_ptr(), ptrs[2], "2×BIG is the best fit");
        let fit = NmBuf::copied_from_slice(&[5u8; BIG - 1], BufOrigin::App, &meter);
        assert_eq!(fit.bytes().storage_ptr(), ptrs[1], "BIG is the best fit");
        let s = meter.snapshot();
        assert_eq!((s.allocations, s.memcpy_calls), (5, 5));
    }

    #[test]
    fn storage_still_held_anywhere_is_never_reused() {
        empty_free_list();
        let meter = CopyMeter::new();
        // A share, a slice, and `Bytes` views of the whole and of a part.
        let holds: [fn(&NmBuf) -> Bytes; 4] = [
            |b| b.share().into_bytes(),
            |b| b.slice(BIG / 2..).into_bytes(),
            |b| b.bytes().clone(),
            |b| b.bytes().slice(..16),
        ];
        for (k, hold) in holds.iter().enumerate() {
            let fill = k as u8 + 10;
            let buf = NmBuf::copied_from_slice(&[fill; BIG], BufOrigin::App, &meter);
            let ptr = buf.bytes().storage_ptr();
            let held = hold(&buf);
            drop(buf);
            let next = NmBuf::copied_from_slice(&[0xEE; BIG], BufOrigin::App, &meter);
            assert_ne!(next.bytes().storage_ptr(), ptr, "hold {k}: storage reused");
            assert!(
                held.iter().all(|&b| b == fill),
                "hold {k}: held bytes changed"
            );
        }
        let s = meter.snapshot();
        assert_eq!((s.allocations, s.memcpy_calls), (8, 8));
    }

    #[test]
    fn the_free_list_stays_within_its_bounds() {
        empty_free_list();
        let meter = CopyMeter::new();
        let mut held = Vec::new();
        for n in [BIG; 3 * RECYCLE_MAX_ENTRIES]
            .into_iter()
            .chain([RECYCLE_MAX_BYTES / 3; 6])
            .chain([RECYCLE_MAX_BYTES + 1; 2])
            .chain([BIG; 4])
        {
            held.push(NmBuf::copied_from_slice(
                &vec![1u8; n],
                BufOrigin::App,
                &meter,
            ));
            let (entries, bytes) = free_list();
            assert!(entries <= RECYCLE_MAX_ENTRIES, "{entries} entries");
            assert!(bytes <= RECYCLE_MAX_BYTES, "{bytes} bytes");
        }
        // A copy over the byte bound was never kept.
        let kept = kept_storage();
        assert!(held
            .iter()
            .filter(|b| b.len() > RECYCLE_MAX_BYTES)
            .all(|b| !kept.contains(&b.bytes().storage_ptr())));
        drop(held);
        let again = NmBuf::copied_from_slice(&[1u8; BIG], BufOrigin::App, &meter);
        assert!(free_list().1 <= RECYCLE_MAX_BYTES);
        drop(again);
    }

    #[test]
    fn a_full_free_list_evicts_its_oldest_free_entry() {
        empty_free_list();
        let meter = CopyMeter::new();
        let mut held: Vec<NmBuf> = (0..RECYCLE_MAX_ENTRIES + 3)
            .map(|_| NmBuf::copied_from_slice(&[7u8; BIG], BufOrigin::App, &meter))
            .collect();
        let ptrs: Vec<_> = held.iter().map(|b| b.bytes().storage_ptr()).collect();
        // Every entry is in use: the oldest ones stay, the newer copies
        // are not kept.
        assert_eq!(kept_storage(), ptrs[..RECYCLE_MAX_ENTRIES]);
        // One entry comes back free. A copy too large for it evicts it.
        held.remove(3);
        let larger = NmBuf::copied_from_slice(&[8u8; 2 * BIG], BufOrigin::App, &meter);
        let mut want = ptrs[..RECYCLE_MAX_ENTRIES].to_vec();
        want.remove(3);
        want.push(larger.bytes().storage_ptr());
        assert_eq!(kept_storage(), want);
    }

    #[test]
    fn lineage_reports_origin_and_generation() {
        let buf = NmBuf::from_bytes(Bytes::from(vec![0u8; 4]), BufOrigin::Ch3);
        let b2 = buf.share().share();
        assert_eq!(b2.origin(), BufOrigin::Ch3);
        assert_eq!(b2.lineage(), "Ch3+2g/4B");
    }
}
