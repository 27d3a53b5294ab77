//! Credit-based eager flow control: each gate's `send_credits` are
//! debited in `isend`; this is the receiver's side of the cycle and the
//! refill.

use super::{Engine, Staged};
use crate::config::FlowConfig;
use crate::wire::WirePayload;

impl Engine {
    /// A peer returned eager credits for our gate to it: refill the pool.
    /// The count comes off the wire: credits are only minted by our own
    /// sends, so a return that would lift the pool past its initial size
    /// (forged, or a duplicated frame) is a counted protocol error and
    /// the pool stops at capacity.
    pub(super) fn apply_credits(&mut self, t_ns: u64, src: usize, returned: u32) {
        let Some(fc) = self.cfg.flow.filter(|_| returned > 0) else {
            return;
        };
        let gate = self.peers.entry(src).or_default();
        let pool = gate.send_credits.get_or_insert(fc.eager_credits);
        let credits = returned.min(fc.eager_credits - *pool);
        *pool += credits;
        if credits < returned {
            self.protocol_error();
        }
        let peer = src as u32;
        self.out
            .engine(t_ns, obs::EngineEvent::CreditRefill { peer, credits });
    }

    /// A buffered unexpected eager message was consumed by a receive:
    /// shrink the byte account and owe the sender its credit back.
    pub(super) fn consume_unexpected_eager(&mut self, src: usize, len: usize) {
        debug_assert!(self.unex_eager_bytes >= len, "unexpected-byte underflow");
        self.unex_eager_bytes -= len;
        self.owe_credit(src, len);
    }

    /// One eager message from `src` was consumed; queue the credit for
    /// return with the next inbound stage. Zero-length messages never
    /// consumed a credit (see `isend`), so none is owed.
    pub(super) fn owe_credit(&mut self, src: usize, len: usize) {
        if self.cfg.flow.is_some() && len > 0 {
            self.peers.entry(src).or_default().credit_owed += 1;
        }
    }

    /// Would [`Self::flush_credits`] change anything now? It would with
    /// a credit owed or released and waiting, or with the hysteresis
    /// latch due to flip.
    pub(super) fn credits_due(&self) -> bool {
        let Some(fc) = self.cfg.flow else {
            return false;
        };
        if self.latch_flips(fc) {
            return true;
        }
        let open = !self.fc_throttled;
        self.peers
            .values()
            .any(|g| g.credit_owed > 0 || open && g.credit_withheld > 0)
    }

    /// The high/low-water hysteresis: a closed latch opens once the
    /// unexpected queue is at or below `low_water`, an open one closes
    /// once it is above `high_water`.
    fn latch_flips(&self, fc: FlowConfig) -> bool {
        match self.fc_throttled {
            true => self.unex_eager_bytes <= fc.low_water,
            false => self.unex_eager_bytes > fc.high_water,
        }
    }

    /// Stage the return of owed credits, honouring the high/low-water
    /// hysteresis — while the unexpected queue sits above `high_water`
    /// the returns are withheld (the senders drain their pools and fall
    /// back to rendezvous), and they are released in a batch once
    /// consumption pulls the queue below `low_water`. Returns piggyback
    /// on an ack this stage already staged for the same gate when one is
    /// there (retry mode), else ride a standalone `Credit` frame — either
    /// way on the express channel, never behind bulk frames.
    pub(super) fn flush_credits(&mut self) {
        let Some(fc) = self.cfg.flow else { return };
        if self.latch_flips(fc) {
            self.fc_throttled = !self.fc_throttled;
        }
        for (&src, gate) in self.peers.iter_mut() {
            let owed = std::mem::take(&mut gate.credit_owed);
            if self.fc_throttled {
                // Defer every owed credit; each is counted once, as it
                // moves into the withheld pool.
                self.stats.fc_credits_withheld += owed as u64;
                gate.credit_withheld += owed;
                continue;
            }
            let n = owed + std::mem::take(&mut gate.credit_withheld);
            if n == 0 {
                continue;
            }
            self.stats.fc_credits_returned += n as u64;
            let piggyback = self.out.staged.iter_mut().find_map(|s| match s {
                Staged {
                    dst,
                    payload: WirePayload::Ack { credits, .. },
                    ..
                } if *dst == src => Some(credits),
                _ => None,
            });
            match piggyback {
                Some(credits) => *credits += n,
                None => {
                    let credit = WirePayload::Credit { credits: n };
                    self.out.ctrl(src, credit, gate.last_in_rail);
                }
            }
        }
    }
}
