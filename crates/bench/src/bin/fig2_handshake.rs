//! E10 — the Fig. 2 ablation: what the nested rendezvous handshake of the
//! plain netmod integration costs vs the CH3 bypass (§2.1.3 / §3.1).

use bench_harness::fig2_handshake;
use bench_harness::render::handshake_table;

fn main() {
    let sizes = [64 * 1024usize, 256 * 1024, 1024 * 1024, 4 * 1024 * 1024];
    let rows = fig2_handshake(&sizes);
    println!("{}", handshake_table(&rows));
}
