//! Communication-key layout shared by the core and the MPI layer.
//!
//! A key is the 64-bit tag carried on every wire envelope. The MPI layer
//! packs context, epoch, collective opcode, round and sequence into it; the
//! core treats it as opaque for matching but *does* crack it open for epoch
//! hygiene — a frame whose collective epoch predates the committed epoch is
//! stale and must be counted and dropped without reviving per-peer state
//! (DESIGN.md §13).
//!
//! Layout (most-significant first):
//!
//! ```text
//!   63..48  ctx     (16 bits)  0 = user point-to-point, 1 = collectives
//!   47..40  epoch   ( 8 bits)  communicator epoch (0 = the initial world)
//!   39..36  op      ( 4 bits)  collective opcode (OP_*)
//!   35..24  round   (12 bits)  protocol round inside one collective
//!   23..0   seq     (24 bits)  per-communicator collective sequence number
//! ```
//!
//! User-context keys only use `ctx` + low 32 tag bits; the epoch/op/round
//! fields are always zero there, so epoch filtering never touches them.

/// User point-to-point context (plain tags).
pub const USER_CTX: u16 = 0;
/// Collective context (epoch-scoped keys).
pub const COLL_CTX: u16 = 1;

/// Collective opcodes. 4 bits: 15 max.
pub const OP_BARRIER: u8 = 1;
pub const OP_BCAST: u8 = 2;
pub const OP_REDUCE: u8 = 3;
pub const OP_ALLTOALL: u8 = 4;
pub const OP_ALLGATHER: u8 = 5;
pub const OP_ALLTOALLV: u8 = 6;
pub const OP_TRYBAR: u8 = 7;
/// Fault-tolerant agreement (allowed to run inside a revoked epoch).
pub const OP_AGREE: u8 = 8;
/// Join-merge handshake (crosses epochs by design; always epoch 0 keys).
pub const OP_JOIN: u8 = 9;

/// Round value reserved for the agreement's DECIDED broadcast.
pub const ROUND_DECIDED: u16 = 0xFFF;

/// Build a user-context key from a plain tag.
pub fn user_key(tag: u32) -> u64 {
    ((USER_CTX as u64) << 48) | tag as u64
}

/// Build a collective key. Panics (debug) on field overflow — round is 12
/// bits, seq 24 bits, op 4 bits.
pub fn coll_key(epoch: u8, op: u8, round: u16, seq: u32) -> u64 {
    debug_assert!(op < 16, "collective opcode overflows 4 bits");
    debug_assert!(round < 4096, "collective round overflows 12 bits");
    debug_assert!(seq < (1 << 24), "collective seq overflows 24 bits");
    ((COLL_CTX as u64) << 48)
        | ((epoch as u64) << 40)
        | (((op & 0xF) as u64) << 36)
        | (((round & 0xFFF) as u64) << 24)
        | (seq & 0xFF_FFFF) as u64
}

/// Context field of a key.
pub fn ctx_of(key: u64) -> u16 {
    (key >> 48) as u16
}

/// Epoch field of a collective key.
pub fn epoch_of(key: u64) -> u8 {
    (key >> 40) as u8
}

/// Opcode field of a collective key.
pub fn op_of(key: u64) -> u8 {
    ((key >> 36) & 0xF) as u8
}

/// Round field of a collective key.
pub fn round_of(key: u64) -> u16 {
    ((key >> 24) & 0xFFF) as u16
}

/// Sequence field of a collective key.
pub fn seq_of(key: u64) -> u32 {
    (key & 0xFF_FFFF) as u32
}

/// The user-context tag carried in a [`user_key`].
pub fn user_tag_of(key: u64) -> u32 {
    (key & 0xffff_ffff) as u32
}

/// The *instance* of a collective key: the key with its round bits zeroed.
/// One collective operation (one epoch + op + seq triple) spans many
/// rounds; retirement filters match on the instance so every round frame —
/// including the DECIDED broadcast round — of a finished agreement is
/// caught by one entry.
pub fn instance_of(key: u64) -> u64 {
    key & !((0xFFFu64) << 24)
}

/// Is this a collective-context key?
pub fn is_coll(key: u64) -> bool {
    ctx_of(key) == COLL_CTX
}

/// Is this collective key exempt from epoch-staleness filtering?
/// Agreement runs *inside* revoked/superseded epochs by design, and the
/// join handshake deliberately crosses epochs on fixed epoch-0 keys.
pub fn epoch_exempt(key: u64) -> bool {
    matches!(op_of(key), OP_AGREE | OP_JOIN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_roundtrip() {
        let k = coll_key(3, OP_AGREE, 0x5A7, 0x00_1234);
        assert_eq!(ctx_of(k), COLL_CTX);
        assert_eq!(epoch_of(k), 3);
        assert_eq!(op_of(k), OP_AGREE);
        assert_eq!(round_of(k), 0x5A7);
        assert_eq!(seq_of(k), 0x00_1234);
        assert!(is_coll(k));
        assert!(epoch_exempt(k));
    }

    #[test]
    fn user_keys_are_disjoint_from_coll_keys() {
        let u = user_key(0xDEAD_BEEF);
        assert_eq!(ctx_of(u), USER_CTX);
        assert!(!is_coll(u));
        assert_eq!(user_tag_of(u), 0xDEAD_BEEF);
        // Even a zero-everything collective key differs in ctx.
        assert_ne!(
            u & (0xFFFF << 48),
            coll_key(0, OP_BARRIER, 0, 0) & (0xFFFF << 48)
        );
    }

    #[test]
    fn instance_masks_only_round() {
        let a = coll_key(2, OP_AGREE, 7, 99);
        let b = coll_key(2, OP_AGREE, ROUND_DECIDED, 99);
        assert_eq!(instance_of(a), instance_of(b));
        assert_ne!(instance_of(a), instance_of(coll_key(2, OP_AGREE, 7, 100)));
        assert_ne!(instance_of(a), instance_of(coll_key(3, OP_AGREE, 7, 99)));
    }

    #[test]
    fn max_fields_do_not_collide() {
        let k = coll_key(255, 15, 4095, (1 << 24) - 1);
        assert_eq!(epoch_of(k), 255);
        assert_eq!(op_of(k), 15);
        assert_eq!(round_of(k), 4095);
        assert_eq!(seq_of(k), (1 << 24) - 1);
    }
}
