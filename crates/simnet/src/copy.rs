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
//! Determinism: the simulation is logically single-threaded (a single
//! execution token is handed between the engine and rank threads), so the
//! counters are incremented in a deterministic order and same-seed replays
//! produce bit-identical snapshots — including fault-injected runs, where
//! retransmissions and duplicate deliveries are themselves deterministic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

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

    /// Record one fresh payload allocation.
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
    /// codec output…). Records one allocation and one memcpy.
    pub fn copied_from_slice(src: &[u8], origin: BufOrigin, meter: &Arc<CopyMeter>) -> NmBuf {
        meter.record_alloc();
        meter.record_copy(src.len());
        NmBuf {
            data: Bytes::copy_from_slice(src),
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

    #[test]
    fn lineage_reports_origin_and_generation() {
        let buf = NmBuf::from_bytes(Bytes::from(vec![0u8; 4]), BufOrigin::Ch3);
        let b2 = buf.share().share();
        assert_eq!(b2.origin(), BufOrigin::Ch3);
        assert_eq!(b2.lineage(), "Ch3+2g/4B");
    }
}
