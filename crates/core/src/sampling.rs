//! Network sampling and the adaptive multirail split ratio.
//!
//! §2.2: "A network sampling mechanism is used to compute an adaptive split
//! ratio tailored to fit each available networks' abilities." In the real
//! library each driver is benchmarked at startup and the resulting
//! transfer-time curves stored; here the "benchmark" probes the simulator's
//! NIC model (which is noise-free, so two probe sizes recover the exact
//! affine curve — the same information the real sampling files contain).
//!
//! The split solves for chunk sizes such that **all rails finish at the same
//! time**: with profiles `tᵢ(s) = latᵢ + s/bwᵢ` and total size `S`, the
//! common finish time is
//!
//! ```text
//! T = (S + Σᵢ bwᵢ·latᵢ) / Σᵢ bwᵢ        chunkᵢ = bwᵢ·(T − latᵢ)
//! ```
//!
//! Rails whose latency exceeds `T` get nothing (they would only slow the
//! message down); the solve is repeated on the remaining rails.

use simnet::{NicModel, SimDuration};

/// An affine transfer-time profile for one rail: `t(s) = latency + s/bw`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkProfile {
    pub latency: SimDuration,
    /// Bytes per second.
    pub bandwidth_bps: f64,
}

impl LinkProfile {
    /// Sample a NIC model the way the startup sampling run measures real
    /// hardware: probe two sizes, fit the affine curve.
    pub fn sample(model: &NicModel) -> LinkProfile {
        let probe_small = model.transfer_time(0);
        let big = 1 << 20;
        let probe_big = model.transfer_time(big);
        let slope_ns_per_byte = (probe_big.as_nanos() - probe_small.as_nanos()) as f64 / big as f64;
        LinkProfile {
            latency: probe_small,
            bandwidth_bps: if slope_ns_per_byte > 0.0 {
                1e9 / slope_ns_per_byte
            } else {
                f64::INFINITY
            },
        }
    }

    /// Predicted one-way transfer time for `bytes`.
    pub fn predict(&self, bytes: usize) -> SimDuration {
        self.latency + SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bps)
    }
}

/// Compute the equal-finish-time split of `size` bytes over `profiles`.
/// Returns one chunk length per rail (zeros allowed); chunks sum to `size`.
pub fn split_sizes(size: usize, profiles: &[LinkProfile]) -> Vec<usize> {
    split_sizes_weighted(size, profiles, &vec![1.0; profiles.len()], 1)
}

/// Health-aware variant of [`split_sizes`]: each rail's bandwidth is scaled
/// by its scheduling `weight` (0 excludes the rail entirely — a `Down` or
/// `Probing` rail must carry zero payload), and any nonzero chunk smaller
/// than `min_chunk` is folded into the largest chunk (per-chunk header and
/// handoff costs would dominate below it). Chunks always sum to `size`.
///
/// If every weight is zero (no usable rail — the caller should not split at
/// all, but stay total), the weights are ignored and the plain profile
/// split is returned.
pub fn split_sizes_weighted(
    size: usize,
    profiles: &[LinkProfile],
    weights: &[f64],
    min_chunk: usize,
) -> Vec<usize> {
    assert!(!profiles.is_empty(), "split over zero rails");
    assert_eq!(profiles.len(), weights.len(), "one weight per rail");
    let all_dead = weights.iter().all(|&w| w <= 0.0);
    let effective: Vec<LinkProfile> = profiles
        .iter()
        .zip(weights)
        .map(|(p, &w)| LinkProfile {
            latency: p.latency,
            bandwidth_bps: p.bandwidth_bps * if all_dead { 1.0 } else { w.max(0.0) },
        })
        .collect();
    let usable = |i: usize| all_dead || weights[i] > 0.0;
    if effective.len() == 1 {
        return vec![size];
    }
    if (0..effective.len()).filter(|&i| usable(i)).count() == 1 {
        let mut chunks = vec![0usize; effective.len()];
        chunks[(0..effective.len()).find(|&i| usable(i)).unwrap()] = size;
        return chunks;
    }
    let mut chunks = solve_equal_finish(size, &effective, &|i| usable(i));
    enforce_min_chunk(&mut chunks, min_chunk);
    chunks
}

/// Fold nonzero chunks below `min_chunk` into the largest chunk.
fn enforce_min_chunk(chunks: &mut [usize], min_chunk: usize) {
    if min_chunk <= 1 {
        return;
    }
    loop {
        let Some(small) = chunks.iter().position(|&c| c > 0 && c < min_chunk) else {
            return;
        };
        let largest = chunks
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != small)
            .max_by_key(|&(_, &c)| c)
            .map(|(i, _)| i);
        match largest {
            Some(big) if chunks[big] > 0 => {
                chunks[big] += chunks[small];
                chunks[small] = 0;
            }
            // Nothing else carries bytes: the "small" chunk is the whole
            // message, leave it.
            _ => return,
        }
    }
}

/// The equal-finish-time solve over the rails `usable` admits.
fn solve_equal_finish(
    size: usize,
    profiles: &[LinkProfile],
    usable: &dyn Fn(usize) -> bool,
) -> Vec<usize> {
    // Iteratively drop rails whose latency exceeds the common finish time.
    let mut active: Vec<bool> = (0..profiles.len()).map(usable).collect();
    loop {
        let sum_bw: f64 = profiles
            .iter()
            .zip(&active)
            .filter(|(_, &a)| a)
            .map(|(p, _)| p.bandwidth_bps)
            .sum();
        let sum_bw_lat: f64 = profiles
            .iter()
            .zip(&active)
            .filter(|(_, &a)| a)
            .map(|(p, _)| p.bandwidth_bps * p.latency.as_secs_f64())
            .sum();
        let t = (size as f64 + sum_bw_lat) / sum_bw; // seconds
        let mut dropped = false;
        for (i, p) in profiles.iter().enumerate() {
            if active[i] && p.latency.as_secs_f64() >= t {
                active[i] = false;
                dropped = true;
            }
        }
        if !dropped {
            // Assign chunks; fix rounding on the fastest active rail.
            let mut chunks = vec![0usize; profiles.len()];
            let mut assigned = 0usize;
            let mut best = None::<usize>;
            for (i, p) in profiles.iter().enumerate() {
                if !active[i] {
                    continue;
                }
                let c = (p.bandwidth_bps * (t - p.latency.as_secs_f64()))
                    .max(0.0)
                    .floor() as usize;
                let c = c.min(size - assigned);
                chunks[i] = c;
                assigned += c;
                if best.is_none_or(|b: usize| profiles[i].bandwidth_bps > profiles[b].bandwidth_bps)
                {
                    best = Some(i);
                }
            }
            if assigned < size {
                chunks[best.expect("at least one active rail")] += size - assigned;
            }
            return chunks;
        }
        if active.iter().all(|&a| !a) {
            // Degenerate: give everything to the lowest-latency usable rail.
            let mut chunks = vec![0usize; profiles.len()];
            let best = profiles
                .iter()
                .enumerate()
                .filter(|&(i, _)| usable(i))
                .min_by_key(|(_, p)| p.latency)
                .map(|(i, _)| i)
                .unwrap();
            chunks[best] = size;
            return chunks;
        }
    }
}

/// Index of the rail with the lowest predicted completion time for `bytes`.
pub fn fastest_rail(bytes: usize, profiles: &[LinkProfile]) -> usize {
    profiles
        .iter()
        .enumerate()
        .min_by_key(|(_, p)| p.predict(bytes))
        .map(|(i, _)| i)
        .expect("fastest_rail over zero rails")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prof(lat_ns: u64, bw_mbps: f64) -> LinkProfile {
        LinkProfile {
            latency: SimDuration::nanos(lat_ns),
            bandwidth_bps: bw_mbps * 1024.0 * 1024.0,
        }
    }

    #[test]
    fn sampling_recovers_model() {
        let m = NicModel::connectx_ib();
        let p = LinkProfile::sample(&m);
        // The sampled zero-byte time includes the per-packet handoff cost —
        // exactly what a real sampling run would measure.
        assert_eq!(p.latency, m.send_overhead + m.latency);
        let rel = (p.bandwidth_bps - m.bandwidth_bps).abs() / m.bandwidth_bps;
        assert!(rel < 0.01, "bandwidth off by {rel}");
    }

    #[test]
    fn equal_rails_split_in_half() {
        let p = prof(1_000, 1000.0);
        let chunks = split_sizes(1 << 20, &[p, p]);
        assert_eq!(chunks.iter().sum::<usize>(), 1 << 20);
        let diff = chunks[0] as i64 - chunks[1] as i64;
        assert!(diff.abs() < 1024, "chunks {chunks:?} not balanced");
    }

    #[test]
    fn faster_rail_gets_proportionally_more() {
        // 2:1 bandwidth ratio, equal latency -> ~2:1 chunks.
        let a = prof(1_000, 2000.0);
        let b = prof(1_000, 1000.0);
        let size = 3 << 20;
        let chunks = split_sizes(size, &[a, b]);
        assert_eq!(chunks.iter().sum::<usize>(), size);
        let ratio = chunks[0] as f64 / chunks[1] as f64;
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn equal_finish_times() {
        let a = prof(1_200, 1250.0);
        let b = prof(1_500, 1100.0);
        let size = 8 << 20;
        let chunks = split_sizes(size, &[a, b]);
        let ta = a.predict(chunks[0]);
        let tb = b.predict(chunks[1]);
        let diff = ta.as_nanos() as i64 - tb.as_nanos() as i64;
        assert!(diff.abs() < 100, "finish times differ: {ta:?} vs {tb:?}");
    }

    #[test]
    fn tiny_message_goes_to_single_low_latency_rail() {
        // Size so small the slow rail's latency exceeds the finish time.
        let fast = prof(500, 1000.0);
        let slow = prof(50_000, 4000.0);
        let chunks = split_sizes(64, &[fast, slow]);
        assert_eq!(chunks, vec![64, 0]);
    }

    #[test]
    fn split_is_exact_partition() {
        let a = prof(1_200, 1250.0);
        let b = prof(1_500, 1100.0);
        for &size in &[1usize, 100, 4096, 65_537, (4 << 20) + 3] {
            let chunks = split_sizes(size, &[a, b]);
            assert_eq!(chunks.iter().sum::<usize>(), size, "size {size}");
        }
    }

    #[test]
    fn single_rail_gets_everything() {
        assert_eq!(split_sizes(12345, &[prof(1, 1.0)]), vec![12345]);
    }

    #[test]
    fn zero_weight_rail_gets_nothing() {
        let a = prof(1_200, 1250.0);
        let b = prof(1_500, 1100.0);
        let size = 8 << 20;
        let chunks = split_sizes_weighted(size, &[a, b], &[1.0, 0.0], 4096);
        assert_eq!(chunks, vec![size, 0], "down rail must carry zero bytes");
        let chunks = split_sizes_weighted(size, &[a, b], &[0.0, 1.0], 4096);
        assert_eq!(chunks, vec![0, size]);
    }

    #[test]
    fn ramp_weight_shrinks_a_rails_share() {
        let p = prof(1_000, 1000.0);
        let size = 4 << 20;
        let healthy = split_sizes_weighted(size, &[p, p], &[1.0, 1.0], 1);
        let ramping = split_sizes_weighted(size, &[p, p], &[1.0, 0.25], 1);
        assert_eq!(ramping.iter().sum::<usize>(), size);
        assert!(
            ramping[1] < healthy[1] / 2,
            "quarter-weight rail got {} vs healthy {}",
            ramping[1],
            healthy[1]
        );
        assert!(ramping[1] > 0, "ramping rail still participates");
    }

    #[test]
    fn all_zero_weights_fall_back_to_plain_split() {
        let a = prof(1_200, 1250.0);
        let b = prof(1_500, 1100.0);
        let size = 8 << 20;
        assert_eq!(
            split_sizes_weighted(size, &[a, b], &[0.0, 0.0], 1),
            split_sizes(size, &[a, b])
        );
    }

    #[test]
    fn min_chunk_folds_slivers_into_largest() {
        let fast = prof(1_000, 4000.0);
        let slow = prof(1_000, 100.0);
        // Pick a size where the slow rail's share lands under min_chunk.
        let size = 200_000;
        let raw = split_sizes(size, &[fast, slow]);
        assert!(raw[1] > 0 && raw[1] < 8 * 1024, "premise: sliver {raw:?}");
        let folded = split_sizes_weighted(size, &[fast, slow], &[1.0, 1.0], 8 * 1024);
        assert_eq!(folded, vec![size, 0]);
        assert_eq!(folded.iter().sum::<usize>(), size);
    }

    #[test]
    fn weighted_split_matches_unweighted_at_full_weight() {
        let a = prof(1_200, 1250.0);
        let b = prof(1_500, 1100.0);
        for &size in &[1usize, 4096, 65_537, 4 << 20] {
            assert_eq!(
                split_sizes_weighted(size, &[a, b], &[1.0, 1.0], 1),
                split_sizes(size, &[a, b]),
                "size {size}"
            );
        }
    }

    #[test]
    fn fastest_rail_depends_on_size() {
        // Low-latency low-bandwidth vs high-latency high-bandwidth.
        let lat_rail = prof(500, 100.0);
        let bw_rail = prof(5_000, 10_000.0);
        assert_eq!(fastest_rail(1, &[lat_rail, bw_rail]), 0);
        assert_eq!(fastest_rail(10 << 20, &[lat_rail, bw_rail]), 1);
    }
}
