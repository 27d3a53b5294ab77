//! PIOMan mailboxes (§3.3.2).
//!
//! "A mailbox mechanism has been added to the shared memory subsystem: when
//! Nemesis needs to poll for an incoming message in shared memory, it
//! notifies PIOMan and specifies the address of a counter that is
//! incremented when the message is sent to the other side. PIOMan can thus
//! check the state of shared memory as it checks the state of networks."
//!
//! A [`Mailbox`] is exactly that counter: raised by the delivery side,
//! sampled and consumed by the progress engine. It is held inline in its
//! endpoint, so the progress engine's idle check reads two words of the
//! endpoint and follows no pointer; whoever wants to watch it borrows it
//! from the domain.

use std::sync::atomic::{AtomicU64, Ordering};

/// An event counter, owned by the endpoint it counts deliveries to.
#[derive(Default)]
pub struct Mailbox {
    raised: AtomicU64,
    consumed: AtomicU64,
}

impl Mailbox {
    pub fn new() -> Mailbox {
        Mailbox::default()
    }

    /// Record one delivery. Called by the sending/delivery side.
    pub fn raise(&self) {
        self.raised.fetch_add(1, Ordering::Release);
    }

    /// Number of deliveries not yet consumed. A nonzero value tells the
    /// progress engine there is shared-memory work to do.
    pub fn pending(&self) -> u64 {
        let raised = self.raised.load(Ordering::Acquire);
        let consumed = self.consumed.load(Ordering::Relaxed);
        raised.saturating_sub(consumed)
    }

    /// Mark one delivery handled.
    pub fn consume(&self) {
        self.consumed.fetch_add(1, Ordering::Relaxed);
    }

    /// Total deliveries ever recorded (diagnostics).
    pub fn total(&self) -> u64 {
        self.raised.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_and_consume() {
        let m = Mailbox::new();
        assert_eq!(m.pending(), 0);
        m.raise();
        m.raise();
        assert_eq!(m.pending(), 2);
        assert_eq!(m.total(), 2);
        m.consume();
        assert_eq!(m.pending(), 1);
        m.consume();
        assert_eq!(m.pending(), 0);
    }

    #[test]
    fn consume_beyond_raised_saturates() {
        let m = Mailbox::new();
        m.consume();
        assert_eq!(m.pending(), 0);
        m.raise();
        assert_eq!(m.pending(), 0); // one raise already eaten by early consume
    }
}
