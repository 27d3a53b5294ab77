//! NewMadeleine's wire packet format.
//!
//! Every fabric transfer carries one [`NmWire`]. The header fields are kept
//! as struct members (the simulation shares an address space) but their
//! modelled wire size — [`WIRE_HEADER_BYTES`] per packet plus
//! [`AGG_SUBHEADER_BYTES`] per aggregated fragment — is charged to the NIC,
//! so aggregation trades per-packet latency against extra header bytes the
//! way the real library does.

use simnet::NmBuf;

/// Modelled size of the packet header on the wire.
pub const WIRE_HEADER_BYTES: usize = 32;

/// Modelled per-fragment subheader inside an aggregate packet.
pub const AGG_SUBHEADER_BYTES: usize = 16;

/// One eager fragment inside an aggregate packet.
#[derive(Clone, Debug)]
pub struct EagerFrag {
    pub tag: u64,
    pub seq: u64,
    pub data: NmBuf,
}

/// Payload variants of a wire packet.
#[derive(Clone, Debug)]
pub enum WirePayload {
    /// A whole small message.
    Eager { tag: u64, seq: u64, data: NmBuf },
    /// Several small messages to the same gate coalesced into one NIC
    /// transfer by the aggregation strategy.
    Aggregate(Vec<EagerFrag>),
    /// Rendezvous request-to-send: announces a large message.
    Rts {
        tag: u64,
        seq: u64,
        rdv_id: u64,
        len: usize,
    },
    /// Rendezvous clear-to-send: the receiver is ready for `rdv_id`.
    Cts { rdv_id: u64 },
    /// A chunk of rendezvous data (multirail transfers produce several,
    /// one per rail, with distinct offsets).
    Data {
        rdv_id: u64,
        offset: usize,
        data: NmBuf,
    },
    /// Retry mode only — cumulative acknowledgement for one (src, tag)
    /// envelope flow: every sequence number below `next` has arrived.
    /// With flow control armed, `credits` piggybacks eager credit returns
    /// earned on this gate (0 when flow control is off or nothing is
    /// owed); it rides in header padding, so the wire size is unchanged.
    Ack { tag: u64, next: u64, credits: u32 },
    /// Flow control only — standalone eager credit return for one gate,
    /// sent on the express channel when no ack is going that way anyway.
    Credit { credits: u32 },
    /// Retry mode only — the receiver finished assembling `rdv_id`; the
    /// sender may release the payload and complete the send.
    RdvFin { rdv_id: u64 },
    /// Rail-health probe: a tiny packet sent on a `Probing` rail to test
    /// whether the link came back. `rail` names the probed rail so the
    /// answer can be pinned to the same wire.
    Probe { rail: usize, seq: u64 },
    /// Answer to a [`WirePayload::Probe`], echoed on the probed rail.
    ProbeAck { rail: usize, seq: u64 },
    /// Communicator-recovery poison (DESIGN.md §13): the sender has
    /// revoked communicator epoch `epoch`. Sticky and idempotent like a
    /// death verdict — the first receipt quiesces the epoch's pending
    /// operations with counted errors and re-broadcasts; replays are
    /// counted no-ops.
    Revoke { epoch: u32 },
}

impl WirePayload {
    /// Duplicate this payload without copying payload bytes: data-bearing
    /// variants share their [`NmBuf`] (a metered refcount bump), control
    /// variants are plain field copies. Retransmission queues use this so
    /// keeping a packet around for replay never clones the payload.
    pub fn share(&self) -> WirePayload {
        match self {
            WirePayload::Eager { tag, seq, data } => WirePayload::Eager {
                tag: *tag,
                seq: *seq,
                data: data.share(),
            },
            WirePayload::Aggregate(frags) => WirePayload::Aggregate(
                frags
                    .iter()
                    .map(|f| EagerFrag {
                        tag: f.tag,
                        seq: f.seq,
                        data: f.data.share(),
                    })
                    .collect(),
            ),
            WirePayload::Rts {
                tag,
                seq,
                rdv_id,
                len,
            } => WirePayload::Rts {
                tag: *tag,
                seq: *seq,
                rdv_id: *rdv_id,
                len: *len,
            },
            WirePayload::Cts { rdv_id } => WirePayload::Cts { rdv_id: *rdv_id },
            WirePayload::Data {
                rdv_id,
                offset,
                data,
            } => WirePayload::Data {
                rdv_id: *rdv_id,
                offset: *offset,
                data: data.share(),
            },
            WirePayload::Ack { tag, next, credits } => WirePayload::Ack {
                tag: *tag,
                next: *next,
                credits: *credits,
            },
            WirePayload::Credit { credits } => WirePayload::Credit { credits: *credits },
            WirePayload::RdvFin { rdv_id } => WirePayload::RdvFin { rdv_id: *rdv_id },
            WirePayload::Probe { rail, seq } => WirePayload::Probe {
                rail: *rail,
                seq: *seq,
            },
            WirePayload::ProbeAck { rail, seq } => WirePayload::ProbeAck {
                rail: *rail,
                seq: *seq,
            },
            WirePayload::Revoke { epoch } => WirePayload::Revoke { epoch: *epoch },
        }
    }

    /// Total modelled wire size of a packet carrying this payload:
    /// header + payload bytes.
    pub fn wire_bytes(&self) -> usize {
        WIRE_HEADER_BYTES
            + match self {
                WirePayload::Eager { data, .. } => data.len(),
                WirePayload::Aggregate(frags) => frags
                    .iter()
                    .map(|f| AGG_SUBHEADER_BYTES + f.data.len())
                    .sum(),
                WirePayload::Rts { .. } => 16,
                WirePayload::Cts { .. } => 8,
                WirePayload::Data { data, .. } => 8 + data.len(),
                WirePayload::Ack { .. } => 16,
                WirePayload::Credit { .. } => 8,
                WirePayload::RdvFin { .. } => 8,
                WirePayload::Probe { .. } => 16,
                WirePayload::ProbeAck { .. } => 16,
                WirePayload::Revoke { .. } => 8,
            }
    }
}

/// A packet as it crosses the fabric.
///
/// The fields are read-only once sealed: the seal keeps a digest of the
/// payload bytes, so no code may swap the payload (or a rank) under it.
#[derive(Clone, Debug)]
pub struct NmWire {
    /// Sender's global rank (identifies the gate at the receiver).
    src_rank: usize,
    /// Receiver's global rank (the node sink demultiplexes on this).
    dst_rank: usize,
    payload: WirePayload,
    /// Digest of the payload bytes ([`payload_digest`]): the one pass over
    /// the bytes, made by [`NmWire::new`] at the sender and kept with the
    /// packet, the way a NIC's link-level CRC travels with its frame.
    /// Control variants carry no bytes and keep the empty digest.
    digest: u64,
    /// End-to-end checksum over the ranks, the variant and its header
    /// fields, each aggregate fragment's length and `digest`, computed by
    /// [`NmWire::new`] at the sender and verified at delivery
    /// ([`NmWire::crc_ok`]) without reading the payload bytes again. Its
    /// wire cost is part of [`WIRE_HEADER_BYTES`]. Despite the name it is
    /// an eight-lane 64-bit FNV-1a-style fold taking two words per
    /// multiply (`WireCrc`): any single-word change is detected with
    /// certainty; it is neither a CRC nor a MAC.
    crc: u64,
}

impl NmWire {
    /// Build a packet and seal it: one pass over the payload bytes for the
    /// digest, then the header seal over the header words and the digest.
    pub fn new(src_rank: usize, dst_rank: usize, payload: WirePayload) -> NmWire {
        let digest = payload_digest(&payload);
        let crc = header_seal(src_rank, dst_rank, &payload, digest);
        NmWire {
            src_rank,
            dst_rank,
            payload,
            digest,
            crc,
        }
    }

    /// Verify the seal against the packet's header and kept digest; the
    /// cost does not depend on the payload size. `false` means the wire
    /// corrupted the frame: the receiver must discard it exactly like a
    /// dropped packet (the retry layer will retransmit).
    ///
    /// Debug builds also recompute the digest from the payload bytes and
    /// panic if it disagrees with the kept one, so every debug run still
    /// exercises the byte path.
    pub fn crc_ok(&self) -> bool {
        debug_assert_eq!(
            self.digest,
            payload_digest(&self.payload),
            "payload bytes changed under their kept digest"
        );
        self.crc == header_seal(self.src_rank, self.dst_rank, &self.payload, self.digest)
    }

    /// Sender's global rank.
    pub fn src_rank(&self) -> usize {
        self.src_rank
    }

    /// Receiver's global rank.
    pub fn dst_rank(&self) -> usize {
        self.dst_rank
    }

    /// The payload, as sealed.
    pub fn payload(&self) -> &WirePayload {
        &self.payload
    }

    /// Take the payload out of a verified packet.
    pub fn into_payload(self) -> WirePayload {
        self.payload
    }

    /// The end-to-end seal, as sent.
    pub fn crc(&self) -> u64 {
        self.crc
    }

    /// Model bit-rot on the wire: flip a bit of the seal, so the frame
    /// fails [`NmWire::crc_ok`] without touching payload storage that the
    /// sender's retransmit queue may share.
    pub(crate) fn corrupt_seal(&mut self) {
        self.crc ^= 1;
    }

    /// A packet carrying `payload` and the ranks given, under `sealed`'s
    /// digest and seal, as if the header or bytes had been changed after
    /// sealing.
    #[cfg(test)]
    fn under_seal_of(
        sealed: &NmWire,
        src_rank: usize,
        dst_rank: usize,
        payload: WirePayload,
    ) -> NmWire {
        NmWire {
            src_rank,
            dst_rank,
            payload,
            digest: sealed.digest,
            crc: sealed.crc,
        }
    }

    /// Total modelled wire size: header + payload bytes.
    pub fn wire_bytes(&self) -> usize {
        self.payload.wire_bytes()
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Independent chains a long byte run is striped over, one word pair
/// each per [`BLOCK`].
const LANES: usize = 8;

/// Bytes one lane step consumes: two 8-byte words.
const PAIR: usize = 16;

/// One block feeds every lane one word pair. Runs shorter than a block
/// fold their word pairs on the running hash alone.
const BLOCK: usize = LANES * PAIR;

/// One checksum step over the word pair `(a, b)`:
/// `h' = ((h ^ a) * prime) + b`. For fixed words it is a bijection of
/// `h`; for a fixed `h` it is a bijection of `a` (xor, then a multiply
/// by an odd constant) and, separately, of `b` (an add).
fn step(h: u64, a: u64, b: u64) -> u64 {
    (h ^ a).wrapping_mul(FNV_PRIME).wrapping_add(b)
}

fn word_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

/// The end-to-end checksum: an FNV-1a-style fold over 8-byte words that
/// takes two words per multiply ([`step`]). Every step is a bijection of
/// the running state and of each word it takes, and every later step is
/// a bijection of the state, so changing any single word of the input
/// changes the result with certainty. It is not a CRC (no burst-error
/// guarantee) and not a MAC (anyone can forge it); the name is
/// historical.
///
/// Runs of at least one [`BLOCK`] (128 B) are striped over [`LANES`]
/// chains, word pair *k* of every block feeding lane *k*, so eight
/// multiplies are in flight and the loop keeps up with memory reads
/// instead of waiting out the multiplier's latency (a 4 MiB run read
/// from DRAM: ~55 ns per KiB, against ~50 for a plain read-and-add
/// loop; DESIGN.md §5, rail health).
struct WireCrc(u64);

impl WireCrc {
    fn new() -> WireCrc {
        WireCrc(FNV_OFFSET)
    }

    fn word(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(FNV_PRIME);
    }

    /// Fold the length, then — for a long run — each lane's chain over
    /// the whole blocks and the lane states pairwise, then the remaining
    /// bytes pairwise, the last partial pair zero-padded (the length
    /// fixes where the padding starts).
    fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        let mut blocks = b.chunks_exact(BLOCK);
        if b.len() >= BLOCK {
            let mut lanes = [self.0; LANES];
            for block in &mut blocks {
                for (lane, pair) in lanes.iter_mut().zip(block.chunks_exact(PAIR)) {
                    *lane = step(*lane, word_at(pair, 0), word_at(pair, 8));
                }
            }
            for pair in lanes.chunks_exact(2) {
                self.0 = step(self.0, pair[0], pair[1]);
            }
        }
        let mut pairs = blocks.remainder().chunks_exact(PAIR);
        for pair in &mut pairs {
            self.0 = step(self.0, word_at(pair, 0), word_at(pair, 8));
        }
        let rem = pairs.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; PAIR];
            tail[..rem.len()].copy_from_slice(rem);
            self.0 = step(self.0, word_at(&tail, 0), word_at(&tail, 8));
        }
    }
}

/// The payload digest: [`WireCrc::bytes`] over the packet's byte runs in
/// order — the Eager or Data run, or every Aggregate fragment's. A
/// variant without bytes digests to the fresh hash.
fn payload_digest(payload: &WirePayload) -> u64 {
    let mut h = WireCrc::new();
    match payload {
        WirePayload::Eager { data, .. } | WirePayload::Data { data, .. } => {
            h.bytes(data.as_slice())
        }
        WirePayload::Aggregate(frags) => {
            for f in frags {
                h.bytes(f.data.as_slice());
            }
        }
        _ => {}
    }
    h.0
}

/// The header seal: the ranks, the variant tag and its header fields,
/// each aggregate fragment's length, then the payload `digest`.
fn header_seal(src_rank: usize, dst_rank: usize, payload: &WirePayload, digest: u64) -> u64 {
    let mut h = WireCrc::new();
    h.word(src_rank as u64);
    h.word(dst_rank as u64);
    match payload {
        WirePayload::Eager { tag, seq, .. } => {
            h.word(1);
            h.word(*tag);
            h.word(*seq);
        }
        WirePayload::Aggregate(frags) => {
            h.word(2);
            h.word(frags.len() as u64);
            for f in frags {
                h.word(f.tag);
                h.word(f.seq);
                h.word(f.data.len() as u64);
            }
        }
        WirePayload::Rts {
            tag,
            seq,
            rdv_id,
            len,
        } => {
            h.word(3);
            h.word(*tag);
            h.word(*seq);
            h.word(*rdv_id);
            h.word(*len as u64);
        }
        WirePayload::Cts { rdv_id } => {
            h.word(4);
            h.word(*rdv_id);
        }
        WirePayload::Data { rdv_id, offset, .. } => {
            h.word(5);
            h.word(*rdv_id);
            h.word(*offset as u64);
        }
        WirePayload::Ack { tag, next, credits } => {
            h.word(6);
            h.word(*tag);
            h.word(*next);
            h.word(*credits as u64);
        }
        WirePayload::Credit { credits } => {
            h.word(10);
            h.word(*credits as u64);
        }
        WirePayload::RdvFin { rdv_id } => {
            h.word(7);
            h.word(*rdv_id);
        }
        WirePayload::Probe { rail, seq } => {
            h.word(8);
            h.word(*rail as u64);
            h.word(*seq);
        }
        WirePayload::ProbeAck { rail, seq } => {
            h.word(9);
            h.word(*rail as u64);
            h.word(*seq);
        }
        WirePayload::Revoke { epoch } => {
            h.word(11);
            h.word(*epoch as u64);
        }
    }
    h.word(digest);
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eager_wire_size_is_header_plus_payload() {
        let w = NmWire::new(
            0,
            1,
            WirePayload::Eager {
                tag: 1,
                seq: 0,
                data: NmBuf::from(vec![0u8; 100]),
            },
        );
        assert_eq!(w.wire_bytes(), WIRE_HEADER_BYTES + 100);
    }

    #[test]
    fn aggregate_charges_subheaders() {
        let frag = |n: usize| EagerFrag {
            tag: 0,
            seq: 0,
            data: NmBuf::from(vec![0u8; n]),
        };
        let w = NmWire::new(0, 1, WirePayload::Aggregate(vec![frag(10), frag(20)]));
        assert_eq!(
            w.wire_bytes(),
            WIRE_HEADER_BYTES + 2 * AGG_SUBHEADER_BYTES + 30
        );
    }

    #[test]
    fn control_packets_are_small() {
        let rts = NmWire::new(
            0,
            1,
            WirePayload::Rts {
                tag: 0,
                seq: 0,
                rdv_id: 1,
                len: 1 << 20,
            },
        );
        let cts = NmWire::new(1, 0, WirePayload::Cts { rdv_id: 1 });
        let probe = NmWire::new(0, 1, WirePayload::Probe { rail: 1, seq: 3 });
        let credit = NmWire::new(1, 0, WirePayload::Credit { credits: 4 });
        assert!(rts.wire_bytes() <= 64);
        assert!(cts.wire_bytes() <= 64);
        assert!(probe.wire_bytes() <= 64);
        assert!(credit.wire_bytes() <= 64);
    }

    #[test]
    fn crc_seals_header_and_payload() {
        let mk = |byte: u8| {
            NmWire::new(
                0,
                1,
                WirePayload::Eager {
                    tag: 7,
                    seq: 3,
                    data: NmBuf::from(vec![byte; 1000]),
                },
            )
        };
        let w = mk(0xAB);
        assert!(w.crc_ok());
        // Any header or payload change breaks the seal.
        let mut tampered = w.clone();
        tampered.src_rank = 2;
        assert!(!tampered.crc_ok());
        assert_ne!(mk(0xAB).crc, mk(0xAC).crc, "payload bytes are covered");
        // The simulated corruption model flips the stored CRC rather than
        // mutating shared payload bytes; that too must fail verification.
        let mut flipped = w;
        flipped.crc ^= 1;
        assert!(!flipped.crc_ok());
    }

    #[test]
    fn crc_distinguishes_variants_and_fields() {
        let a = NmWire::new(0, 1, WirePayload::Cts { rdv_id: 9 });
        let b = NmWire::new(0, 1, WirePayload::RdvFin { rdv_id: 9 });
        assert_ne!(a.crc, b.crc, "same fields, different variant");
        let c = NmWire::new(0, 1, WirePayload::Probe { rail: 0, seq: 1 });
        let d = NmWire::new(0, 1, WirePayload::ProbeAck { rail: 0, seq: 1 });
        assert_ne!(c.crc, d.crc);
        // The revoke poison is sealed and variant-distinct too.
        let r1 = NmWire::new(0, 1, WirePayload::Revoke { epoch: 1 });
        let r2 = NmWire::new(0, 1, WirePayload::Revoke { epoch: 2 });
        assert_ne!(r1.crc, r2.crc, "epoch field is covered");
        assert!(r1.wire_bytes() <= 64, "revoke rides the express lane");
        // The piggybacked credit count is sealed too.
        let e = NmWire::new(
            0,
            1,
            WirePayload::Ack {
                tag: 1,
                next: 2,
                credits: 0,
            },
        );
        let f = NmWire::new(
            0,
            1,
            WirePayload::Ack {
                tag: 1,
                next: 2,
                credits: 3,
            },
        );
        assert_ne!(e.crc, f.crc, "credit field is covered");
        // share() preserves the payload identity, so the CRC still holds.
        let shared = NmWire {
            payload: a.payload.share(),
            ..a
        };
        assert!(shared.crc_ok());
    }

    /// What a fresh hash folds the byte run `b` to.
    fn seal(b: &[u8]) -> u64 {
        let mut h = WireCrc::new();
        h.bytes(b);
        h.0
    }

    /// Distinct-looking bytes, so no swap below is a no-op.
    fn noise(len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8 ^ i as u8)
            .collect()
    }

    /// The detection property the doc comment states: a single changed
    /// word — here a single changed byte, on either side of the block
    /// threshold, in a lane block or in a whole or padded tail pair —
    /// always breaks the seal.
    #[test]
    fn any_single_byte_flip_changes_the_seal() {
        for len in (0..=300).chain([4096 + 13]) {
            let mut data = noise(len);
            let clean = seal(&data);
            for at in 0..len {
                for flip in [0x01, 0x80, 0xFF] {
                    data[at] ^= flip;
                    assert_ne!(seal(&data), clean, "len {len}, byte {at}, ^{flip:#x}");
                    data[at] ^= flip;
                }
            }
        }
    }

    /// A whole 8-byte run overwritten with another value, at every offset:
    /// aligned it is one word (the guarantee), unaligned it straddles two.
    #[test]
    fn any_overwritten_word_changes_the_seal() {
        for len in (8..=300).chain([4096 + 13]) {
            let mut data = noise(len);
            let clean = seal(&data);
            for at in 0..=len - 8 {
                let old = word_at(&data, at);
                let new = old ^ (at as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                data[at..at + 8].copy_from_slice(&new.to_le_bytes());
                assert_ne!(seal(&data), clean, "len {len}, word at {at}");
                data[at..at + 8].copy_from_slice(&old.to_le_bytes());
            }
        }
    }

    #[test]
    fn swapped_words_across_lanes_and_swapped_blocks_change_the_seal() {
        let data = noise(4096 + 13);
        let clean = seal(&data);
        let swapped = |a: usize, b: usize, width: usize| {
            let mut d = data.clone();
            let (lo, hi) = d.split_at_mut(b);
            lo[a..a + width].swap_with_slice(&mut hi[..width]);
            seal(&d)
        };
        // Byte 16k of a 128-byte block starts lane k's word pair. The two
        // words of one lane step (lanes 0 and 3 of block 0, lane 7 of
        // block 9); lanes 0/1, 1/3 and 0/3 across blocks 0 and 5; lane 0
        // of blocks 2 and 31; a lane word and the tail's last whole word.
        for (a, b) in [
            (0, 8),
            (48, 56),
            (9 * 128 + 112, 9 * 128 + 120),
            (0, 16),
            (16, 48),
            (0, 5 * 128 + 48),
            (256, 31 * 128),
            (64, 4000),
            (8, 4096),
        ] {
            assert_ne!(swapped(a, b, 8), clean, "words at {a} and {b}");
        }
        // Whole word pairs of lanes 0/1 and 2/7; whole blocks.
        for (a, b) in [(0, 16), (32, 3 * 128 + 112)] {
            assert_ne!(swapped(a, b, 16), clean, "pairs at {a} and {b}");
        }
        for (a, b) in [(0, 128), (128, 3968), (384, 2048)] {
            assert_ne!(swapped(a, b, 128), clean, "blocks at {a} and {b}");
        }
        // Lanes that are otherwise identical end in each other's state
        // after the swap; the fold is ordered, so the seal still moves.
        // So do the two words of one step, each a different operand.
        let with = |words: [u64; 4]| {
            let mut d = vec![0u8; 256];
            for (i, w) in words.iter().enumerate() {
                d[8 * i..8 * i + 8].copy_from_slice(&w.to_le_bytes());
            }
            seal(&d)
        };
        assert_ne!(with([1, 2, 3, 4]), with([3, 4, 1, 2]), "twin lanes");
        assert_ne!(with([1, 2, 0, 0]), with([2, 1, 0, 0]), "one step's words");
    }

    /// Pins the kernel: a change to what it folds, or in what order, moves
    /// these and has to be made on purpose.
    #[test]
    fn seal_known_answers() {
        let got: Vec<(usize, u64)> = [0, 7, 128, 1000]
            .into_iter()
            .map(|len| (len, seal(&noise(len))))
            .collect();
        assert_eq!(
            got,
            [
                (0, 0xaf63_bd4c_8601_b7df),
                (7, 0xfebb_9031_d85a_c772),
                (128, 0xb80a_56ec_5b4e_4478),
                (1000, 0x82b3_e686_3543_bb3e),
            ]
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 256,
            ..Default::default()
        })]

        /// Any one aligned word of a run up to 8 KiB — the zero-padded
        /// partial last word included — overwritten with any other value.
        #[test]
        fn a_random_single_word_overwrite_is_detected(
            len in 1usize..8193,
            fill in proptest::prelude::any::<u64>(),
            pick in proptest::prelude::any::<u64>(),
            change in proptest::prelude::any::<u64>(),
        ) {
            let mut x = fill | 1;
            let mut data: Vec<u8> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            let clean = seal(&data);
            let at = 8 * (pick as usize % len.div_ceil(8));
            let end = (at + 8).min(len);
            // A mask whose low byte is odd changes even a one-byte tail.
            let mask = (change | 1).to_le_bytes();
            for (b, m) in data[at..end].iter_mut().zip(mask) {
                *b ^= m;
            }
            proptest::prop_assert_ne!(seal(&data), clean, "len {}, word at {}", len, at);
        }
    }

    /// The bytes of an aggregate concatenate to the same run either way;
    /// the fragment lengths are what tell the two packets apart.
    #[test]
    fn a_byte_moved_between_aggregate_fragments_changes_the_seal() {
        let lens = [1usize, 63, 64, 65, 200];
        let frags = |lens: &[usize]| {
            let all = noise(lens.iter().sum());
            let mut at = 0;
            let frags = lens.iter().map(|&n| {
                at += n;
                EagerFrag {
                    tag: 4,
                    seq: 0,
                    data: NmBuf::from(all[at - n..at].to_vec()),
                }
            });
            NmWire::new(0, 1, WirePayload::Aggregate(frags.collect())).crc
        };
        let clean = frags(&lens);
        for k in 0..lens.len() - 1 {
            let mut moved = lens;
            moved[k] -= 1;
            moved[k + 1] += 1;
            assert_ne!(frags(&moved), clean, "last byte of fragment {k} moved on");
        }
    }

    #[test]
    fn every_variant_verifies_after_share_around_the_lane_boundary() {
        for len in [63, 64, 65, 127, 128, 129, 143, 144, 145] {
            let bytes = || NmBuf::from(noise(len));
            let frag = |tag| EagerFrag {
                tag,
                seq: 1,
                data: bytes(),
            };
            let (n, id) = (len as u64, len as u64 + 1);
            let payloads = [
                WirePayload::Eager {
                    tag: n,
                    seq: 2,
                    data: bytes(),
                },
                WirePayload::Aggregate(vec![frag(1), frag(2), frag(3)]),
                WirePayload::Rts {
                    tag: n,
                    seq: 2,
                    rdv_id: id,
                    len,
                },
                WirePayload::Cts { rdv_id: id },
                WirePayload::Data {
                    rdv_id: id,
                    offset: len,
                    data: bytes(),
                },
                WirePayload::Ack {
                    tag: n,
                    next: 3,
                    credits: 2,
                },
                WirePayload::Credit {
                    credits: len as u32,
                },
                WirePayload::RdvFin { rdv_id: id },
                WirePayload::Probe { rail: 1, seq: n },
                WirePayload::ProbeAck { rail: 1, seq: n },
                WirePayload::Revoke { epoch: len as u32 },
            ];
            for payload in payloads {
                let sealed = NmWire::new(2, 3, payload);
                let shared = NmWire {
                    payload: sealed.payload.share(),
                    ..sealed.clone()
                };
                assert!(shared.crc_ok(), "len {len}: {:?}", sealed.payload);
            }
        }
    }

    /// [`WireCrc::bytes`] over each run in turn, from a fresh hash.
    fn seal_runs(runs: &[&[u8]]) -> u64 {
        let mut h = WireCrc::new();
        for run in runs {
            h.bytes(run);
        }
        h.0
    }

    #[test]
    fn the_kept_digest_is_the_byte_seal_of_the_payload_runs() {
        let runs = [noise(1), noise(129), noise(0), noise(4096 + 13)];
        let bufs = || runs.iter().map(|r| NmBuf::from(r.clone()));
        for (run, data) in runs.iter().zip(bufs()) {
            let eager = NmWire::new(
                0,
                1,
                WirePayload::Eager {
                    tag: 1,
                    seq: 2,
                    data,
                },
            );
            assert_eq!(eager.digest, seal_runs(&[run]), "eager, {} B", run.len());
        }
        for (run, data) in runs.iter().zip(bufs()) {
            let payload = WirePayload::Data {
                rdv_id: 3,
                offset: 64,
                data,
            };
            let chunk = NmWire::new(1, 0, payload);
            assert_eq!(chunk.digest, seal_runs(&[run]), "data, {} B", run.len());
        }
        let frags = bufs().map(|data| EagerFrag {
            tag: 5,
            seq: 0,
            data,
        });
        let agg = NmWire::new(0, 1, WirePayload::Aggregate(frags.collect()));
        let all: Vec<&[u8]> = runs.iter().map(Vec::as_slice).collect();
        assert_eq!(agg.digest, seal_runs(&all), "aggregate fragments in order");
        let cts = NmWire::new(0, 1, WirePayload::Cts { rdv_id: 3 });
        assert_eq!(cts.digest, seal_runs(&[]), "no bytes, the fresh hash");
    }

    /// Debug builds cross-check the kept digest against the bytes, so a
    /// payload swapped under its seal cannot slip past a test run.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "payload bytes changed under their kept digest")]
    fn bytes_changed_under_the_kept_digest_panic_in_a_debug_verify() {
        let eager = |byte: u8| WirePayload::Eager {
            tag: 7,
            seq: 3,
            data: NmBuf::from(vec![byte; 1000]),
        };
        let sealed = NmWire::new(0, 1, eager(0xAB));
        NmWire::under_seal_of(&sealed, 0, 1, eager(0xAC)).crc_ok();
    }

    /// The verify reads no payload byte, so the header words alone have
    /// to catch a changed rank, variant, field or fragment layout.
    #[test]
    fn a_header_field_changed_under_the_old_seal_fails() {
        let d = NmBuf::from(noise(300));
        let eager = |tag, seq| WirePayload::Eager {
            tag,
            seq,
            data: d.share(),
        };
        let chunk = |rdv_id, offset| WirePayload::Data {
            rdv_id,
            offset,
            data: d.share(),
        };
        let agg = |seq| {
            let frag = |tag, seq| EagerFrag {
                tag,
                seq,
                data: d.share(),
            };
            WirePayload::Aggregate(vec![frag(1, 0), frag(2, seq)])
        };
        let rts = |len| WirePayload::Rts {
            tag: 1,
            seq: 2,
            rdv_id: 3,
            len,
        };
        let ack = |credits| WirePayload::Ack {
            tag: 1,
            next: 2,
            credits,
        };
        let cases = [
            (eager(1, 2), eager(2, 2)),
            (eager(1, 2), eager(1, 3)),
            (eager(1, 2), chunk(1, 2)),
            (chunk(3, 4096), chunk(4, 4096)),
            (chunk(3, 4096), chunk(3, 4097)),
            (agg(0), agg(1)),
            (rts(1 << 20), rts((1 << 20) + 1)),
            (ack(3), ack(4)),
        ];
        for (sealed_as, changed) in cases {
            let sealed = NmWire::new(0, 1, sealed_as);
            let under = |src, dst, p| NmWire::under_seal_of(&sealed, src, dst, p).crc_ok();
            let what = format!("{changed:?} under the seal of {:?}", sealed.payload);
            assert!(under(0, 1, sealed.payload.share()), "{what}");
            assert!(!under(2, 1, sealed.payload.share()), "src, {what}");
            assert!(!under(0, 2, sealed.payload.share()), "dst, {what}");
            assert!(!under(0, 1, changed), "{what}");
        }
    }

    /// The receiver's verify is a full pass: a frame the wire flagged is
    /// one `crc_drops`, however large, and the same frame unflagged is not.
    #[test]
    fn a_corrupted_one_mib_data_chunk_is_exactly_one_crc_drop() {
        let cfg = crate::config::NmConfig::default();
        let mut rank0 = crate::engine::loopback::engine(cfg, 0, 2);
        let chunk = WirePayload::Data {
            rdv_id: 1,
            offset: 0,
            data: NmBuf::from(noise(1 << 20)),
        };
        let idle: &dyn Fn(usize) -> bool = &|_| true;
        let now = simnet::SimTime::ZERO;
        rank0.accept(now, NmWire::new(1, 0, chunk.share()), 0, true, idle);
        assert_eq!(rank0.stats().crc_drops, 1);
        rank0.accept(now, NmWire::new(1, 0, chunk), 0, false, idle);
        assert_eq!(rank0.stats().crc_drops, 1);
    }
}
