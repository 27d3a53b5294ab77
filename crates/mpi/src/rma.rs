//! MPI-2 one-sided communication (RMA) — the paper's second future-work
//! item ("Another challenge would be to efficiently support MPI2 RMA
//! operations without compromising the optimizations implemented",
//! conclusion).
//!
//! This is an **active-target, fence-synchronized** implementation built
//! over the existing point-to-point machinery, the way MPICH2's
//! over-CH3 RMA fallback works: `put`/`get`/`accumulate` between two
//! fences are buffered as messages; `fence` closes the epoch with an
//! all-to-all count exchange, drains exactly the expected operations
//! (using MPI_ANY_SOURCE — so RMA traffic exercises the §3.2 machinery on
//! the bypass stack), applies them to the window, and answers the `get`s.
//!
//! Because the transport is NewMadeleine underneath, large `put`s ride the
//! rendezvous/multirail path like any large message — which is precisely
//! the paper's hoped-for outcome: the optimizations apply unchanged.

use bytes::{Buf, Bytes, BytesMut};

use crate::api::{MpiHandle, Src};
use crate::ch3::word;

/// Reserved user-tag range for RMA traffic (kept clear of applications by
/// convention, as MPICH2 reserves context ids).
const TAG_RMA_OP: u32 = 0x00FF_FF00;
const TAG_RMA_REPLY: u32 = 0x00FF_FF01;

/// An RMA operation on the wire.
enum Op {
    Put {
        offset: usize,
        data: Bytes,
    },
    Get {
        offset: usize,
        len: usize,
        get_id: u64,
    },
    /// Element-wise f64 sum into the window (MPI_Accumulate with MPI_SUM).
    AccSum {
        offset: usize,
        data: Bytes,
    },
}

impl Op {
    fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        match self {
            Op::Put { offset, data } => {
                b.extend_from_slice(&[0u8]);
                b.extend_from_slice(&(*offset as u64).to_le_bytes());
                b.extend_from_slice(data);
            }
            Op::Get {
                offset,
                len,
                get_id,
            } => {
                b.extend_from_slice(&[1u8]);
                b.extend_from_slice(&(*offset as u64).to_le_bytes());
                b.extend_from_slice(&(*len as u64).to_le_bytes());
                b.extend_from_slice(&get_id.to_le_bytes());
            }
            Op::AccSum { offset, data } => {
                b.extend_from_slice(&[2u8]);
                b.extend_from_slice(&(*offset as u64).to_le_bytes());
                b.extend_from_slice(data);
            }
        }
        b.freeze()
    }

    /// Decode [`Op::encode`]'s output. The bytes came from another rank:
    /// a truncated header, an unknown variant, a `Get` with trailing bytes
    /// or an `AccSum` that is not whole f64s is `None` (the fence counts
    /// and drops it), never a panic.
    fn decode(mut raw: Bytes) -> Option<Op> {
        let variant = (!raw.is_empty()).then(|| raw.get_u8())?;
        let offset = word(&mut raw)? as usize;
        Some(match variant {
            0 => Op::Put { offset, data: raw },
            1 => {
                let (len, get_id) = (word(&mut raw)? as usize, word(&mut raw)?);
                if !raw.is_empty() {
                    return None;
                }
                Op::Get {
                    offset,
                    len,
                    get_id,
                }
            }
            2 if raw.len().is_multiple_of(8) => Op::AccSum { offset, data: raw },
            _ => return None,
        })
    }
}

/// A pending local `get`, filled in at the closing fence.
pub struct GetHandle {
    id: u64,
}

/// An RMA window: every rank exposes `size` bytes. A plain value owned by
/// the rank program that created it.
pub struct Window {
    /// The exposed memory.
    local: Vec<u8>,
    /// Ops issued this epoch, per target.
    outgoing: Vec<Vec<Op>>,
    /// Completed get results by id.
    gets: std::collections::HashMap<u64, Bytes>,
    next_get: u64,
    /// Inbound ops and get replies that did not decode: counted, dropped.
    malformed: u64,
    nranks: usize,
    my_rank: usize,
}

impl Window {
    /// Collective: create a window of `size` bytes on every rank,
    /// initialized from `init` (padded with zeros).
    pub fn create(mpi: &MpiHandle, size: usize, init: &[u8]) -> Window {
        assert!(init.len() <= size);
        let mut local = vec![0u8; size];
        local[..init.len()].copy_from_slice(init);
        mpi.barrier(); // window creation is collective
        Window {
            local,
            outgoing: (0..mpi.size()).map(|_| Vec::new()).collect(),
            gets: Default::default(),
            next_get: 0,
            malformed: 0,
            nranks: mpi.size(),
            my_rank: mpi.rank(),
        }
    }

    /// Read this rank's exposed memory (outside an access epoch).
    pub fn local(&self) -> Vec<u8> {
        // Ownership constraint: the snapshot must outlive the window, whose
        // exposed memory the next fence mutates.
        self.local.clone()
    }

    /// Inbound ops and get replies dropped because they did not decode.
    pub fn malformed_ops(&self) -> u64 {
        self.malformed
    }

    /// MPI_Put: write `data` into `target`'s window at `offset` (visible
    /// after the next fence).
    pub fn put(&mut self, target: usize, offset: usize, data: &[u8]) {
        assert!(target < self.nranks);
        self.outgoing[target].push(Op::Put {
            offset,
            data: Bytes::copy_from_slice(data),
        });
    }

    /// MPI_Get: read `len` bytes from `target`'s window at `offset`. The
    /// result is available through [`Window::get_result`] after the next
    /// fence.
    pub fn get(&mut self, target: usize, offset: usize, len: usize) -> GetHandle {
        // Ids are namespaced by origin rank when they travel.
        let id = self.next_get;
        self.next_get += 1;
        self.outgoing[target].push(Op::Get {
            offset,
            len,
            get_id: id,
        });
        GetHandle { id }
    }

    /// MPI_Accumulate(MPI_SUM) of f64s into `target` at byte `offset`.
    pub fn accumulate_sum(&mut self, target: usize, offset: usize, values: &[f64]) {
        self.outgoing[target].push(Op::AccSum {
            offset,
            data: crate::collectives::f64s_to_bytes(values),
        });
    }

    /// Fetch a completed get (after the fence that closed its epoch).
    pub fn get_result(&mut self, h: &GetHandle) -> Bytes {
        let got = self.gets.remove(&h.id);
        got.expect("get not completed — did you fence?")
    }

    /// MPI_Win_fence: close the access epoch. Collective. All puts and
    /// accumulates issued by any rank are applied to the target windows
    /// and all gets answered before the fence returns.
    ///
    /// Ops are shipped with *nonblocking* sends before any receive is
    /// drained — two ranks issuing large (rendezvous) puts at each other
    /// must not deadlock in their blocking sends.
    pub fn fence(&mut self, mpi: &MpiHandle) {
        assert_eq!(mpi.rank(), self.my_rank);
        assert_eq!(mpi.size(), self.nranks);
        let n = self.nranks;
        // 1. Everyone learns how many ops target it: all-to-all of counts.
        let fresh = (0..n).map(|_| Vec::new()).collect();
        let taken: Vec<Vec<Op>> = std::mem::replace(&mut self.outgoing, fresh);
        let counts: Vec<Bytes> = taken
            .iter()
            .map(|ops| Bytes::copy_from_slice(&(ops.len() as u64).to_le_bytes()))
            .collect();
        let incoming_counts = mpi.alltoallv(counts);
        let to_receive: u64 = incoming_counts
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != self.my_rank)
            .map(|(_, c)| u64::from_le_bytes(c[..8].try_into().unwrap()))
            .sum();
        // 2. Ship the ops (self-targets applied directly; self-gets land
        // in the result map immediately).
        let mut send_reqs = Vec::new();
        let mut remote_gets = 0usize;
        for (target, ops) in taken.into_iter().enumerate() {
            for op in ops {
                if target == self.my_rank {
                    let reply = self.apply(&op, self.my_rank);
                    debug_assert!(reply.is_none());
                } else {
                    if matches!(op, Op::Get { .. }) {
                        remote_gets += 1;
                    }
                    send_reqs.push(mpi.isend_bytes(target, TAG_RMA_OP, op.encode()));
                }
            }
        }
        // 3. Drain exactly the expected remote ops — with ANY_SOURCE, so
        // the §3.2 lists see one-sided traffic too. Get replies go out
        // nonblocking for the same no-deadlock reason.
        for _ in 0..to_receive {
            let (raw, st) = mpi.recv(Src::Any, TAG_RMA_OP);
            let Some(op) = Op::decode(raw) else {
                self.malformed += 1;
                continue;
            };
            if let Some(reply) = self.apply(&op, st.source) {
                send_reqs.push(mpi.isend_bytes(st.source, TAG_RMA_REPLY, reply));
            }
        }
        // 4. Collect replies for our remote gets.
        for _ in 0..remote_gets {
            let (mut raw, _) = mpi.recv(Src::Any, TAG_RMA_REPLY);
            if raw.len() < 8 {
                self.malformed += 1;
                continue;
            }
            self.gets.insert(raw.get_u64_le(), raw);
        }
        mpi.waitall(&send_reqs);
        // 5. Everyone done before anyone proceeds.
        mpi.barrier();
    }

    /// Apply one op to the local window. A remote `get` returns the reply
    /// payload to transmit; everything else returns `None` (self-gets are
    /// stored directly). Offsets and lengths came off the wire: an op
    /// whose range overflows or leaves the window is counted in
    /// `malformed` and touches nothing; a remote one answers an empty
    /// reply, which its origin counts in turn, so neither side waits on
    /// the other in the fence.
    fn apply(&mut self, op: &Op, origin: usize) -> Option<Bytes> {
        let (offset, len) = match op {
            Op::Put { offset, data } | Op::AccSum { offset, data } => (*offset, data.len()),
            Op::Get { offset, len, .. } => (*offset, *len),
        };
        let Some(w) = offset
            .checked_add(len)
            .and_then(|end| self.local.get_mut(offset..end))
        else {
            self.malformed += 1;
            let remote_get = matches!(op, Op::Get { .. }) && origin != self.my_rank;
            return remote_get.then(Bytes::new);
        };
        match op {
            Op::Put { data, .. } => {
                w.copy_from_slice(data);
                None
            }
            Op::AccSum { data, .. } => {
                let incoming = crate::collectives::bytes_to_f64s(data);
                for (cell, v) in w.chunks_exact_mut(8).zip(incoming) {
                    let cur = f64::from_le_bytes((&*cell).try_into().unwrap());
                    cell.copy_from_slice(&(cur + v).to_le_bytes());
                }
                None
            }
            Op::Get { get_id, .. } if origin == self.my_rank => {
                self.gets.insert(*get_id, Bytes::copy_from_slice(w));
                None
            }
            Op::Get { get_id, .. } => {
                let mut b = BytesMut::with_capacity(8 + w.len());
                b.extend_from_slice(&get_id.to_le_bytes());
                b.extend_from_slice(w);
                Some(b.freeze())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `decode` takes bytes another rank sent: a packet or `None`.
    #[test]
    fn decode_refuses_truncated_unknown_and_mislengthed_ops() {
        let ops = [
            Op::Put {
                offset: 3,
                data: Bytes::from_static(b"abc"),
            },
            Op::Get {
                offset: 1,
                len: 2,
                get_id: 9,
            },
            Op::AccSum {
                offset: 8,
                data: crate::collectives::f64s_to_bytes(&[1.5, 2.5]),
            },
        ];
        for op in &ops {
            let whole = op.encode();
            assert_eq!(
                Op::decode(whole.clone()).map(|o| o.encode()),
                Some(whole.clone())
            );
            // No prefix short of the fixed header decodes.
            let header = if matches!(op, Op::Get { .. }) { 25 } else { 9 };
            for cut in 0..header {
                assert!(Op::decode(whole.slice(..cut)).is_none(), "cut at {cut}");
            }
        }
        for variant in 3..=255u8 {
            let mut raw = vec![variant];
            raw.extend_from_slice(&[0u8; 24]);
            assert!(Op::decode(Bytes::from(raw)).is_none(), "variant {variant}");
        }
        // Length mismatches: a Get with a trailing byte, an AccSum that is
        // not whole f64s.
        let mut get = ops[1].encode().to_vec();
        get.push(0);
        assert!(Op::decode(Bytes::from(get)).is_none());
        let acc = ops[2].encode();
        assert!(Op::decode(acc.slice(..acc.len() - 1)).is_none());
    }
}
