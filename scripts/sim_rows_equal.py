#!/usr/bin/env python3
"""Are two perf-ledger traced runs equal on every simulated row?

    scripts/sim_rows_equal.py A.json B.json [--allow ROW ...]

A and B are what `perf-ledger --workload <w> --seed <s> --trace 1` prints:
the last line that starts with `{` is the result line
(`{"correct":..,"metrics":{name:{"value":..,"unit":..}}}`); a file holding
only that JSON works too. The rows below are the ones the simulated clock
and the stack's exact counters decide, so two commits that did not mean to
change the simulation read them bit-identically on any host (ROADMAP item
1(c)). Exit status 1 lists every such row that differs and is not allowed;
2 is a usage error (unreadable file, unknown `--allow` row).

A change that moves simulated rows on purpose names them with `--allow` in
its own diff (the CI job's SIM_ROWS_ALLOW), the way golden hashes are
re-pinned in a commit of their own.
"""

import json
import sys

# BENCH_24.json `traced_seed_1`: the rows equal on all six simulated
# workloads, minus host-clock timings (host_p99_us), proc.*, loc.*,
# ledger.*, bench.* and obs.trace_overhead_pct.
ROWS = [
    "simnet.events_per_op",
    "simnet.wakes_per_op",
    "simnet.fabric_msgs_per_op",
    "simnet.wire_bytes_per_payload_byte",
    "simnet.memcpy_per_op",
    "simnet.bytes_copied_per_payload_byte",
    "simnet.payload_allocs_per_op",
    "simnet.slice_refs_per_op",
    "simnet.fault_dropped_per_op",
    "simnet.fault_duplicated_per_op",
    "simnet.nic_tx_per_op",
    "simnet.dispatch_call_per_op",
    "nemesis.shm_sim_us_per_msg",
    "nemesis.shm_frag_copies_per_op",
    "nemesis.shm_delivers_per_op",
    "nmad.eager_sends_per_op",
    "nmad.rdv_sends_per_op",
    "nmad.packets_per_op",
    "nmad.frags_per_aggregate",
    "nmad.data_chunks_per_rdv",
    "nmad.acks_per_op",
    "nmad.retx_per_op",
    "nmad.dup_drops_per_op",
    "nmad.crc_drops_per_op",
    "nmad.fc_fallback_pct",
    "nmad.fc_credit_stalls_per_op",
    "nmad.fc_peak_unex_kb",
    "nmad.protocol_errors",
    "nmad.peer_entries_end",
    "nmad.core_pingpong_sim_us",
    "piom.kicks_per_op",
    "piom.ltask_passes_per_op",
    "piom.rekicks",
    "piom.sim_overhead_ns_net",
    "piom.sim_overhead_ns_shm",
    "mpi-ch3.isend_call_sim_ns",
    "mpi-ch3.wait_call_sim_ns",
    "mpi-ch3.allreduce_sim_us",
    "mpi-ch3.alltoall_sim_us",
    "mpi-ch3.barrier_sim_us",
    "mpi-ch3.anysrc_sim_overhead_ns",
    "obs.events_per_op",
    "obs.phase_ns.send_posted",
    "obs.phase_ns.eager_tx",
    "obs.phase_ns.eager_rx",
    "obs.phase_ns.matched",
    "obs.phase_ns.completed_send",
    "obs.phase_ns.completed_recv",
    "obs.phase_ns.rts_tx",
    "obs.phase_ns.rts_rx",
    "obs.phase_ns.cts_tx",
    "obs.phase_ns.cts_rx",
    "obs.phase_ns.chunk_tx",
    "obs.phase_ns.chunk_rx",
    "obs.phase_ns.fin_tx",
    "obs.phase_ns.fin_rx",
    "obs.phase_ns.retry",
    "obs.phase_coverage_pct",
    "sim_us_per_op",
    "sim_mb_per_s",
    "paper_err_pct",
    "ops_failed_pct",
]


def usage(message):
    print(f"sim_rows_equal: {message}", file=sys.stderr)
    print(__doc__.strip().splitlines()[2], file=sys.stderr)
    sys.exit(2)


def metrics(path):
    """The `metrics` table of the result line in `path`."""
    try:
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.startswith("{")]
        return json.loads(lines[-1])["metrics"]
    except (OSError, IndexError, KeyError, ValueError) as e:
        usage(f"{path}: no perf-ledger result line ({e!r})")


def main(argv):
    if "--allow" in argv:
        at = argv.index("--allow")
        paths, allow = argv[:at], set(argv[at + 1 :])
    else:
        paths, allow = argv, set()
    if len(paths) != 2:
        usage("need exactly two result files")
    unknown = sorted(allow - set(ROWS))
    if unknown:
        usage(f"--allow names rows that are not simulated rows: {', '.join(unknown)}")
    a, b = (metrics(p) for p in paths)
    missing = object()
    differing, allowed = [], []
    for row in ROWS:
        va = a.get(row, {}).get("value", missing)
        vb = b.get(row, {}).get("value", missing)
        if va != vb:
            show = lambda v: "(absent)" if v is missing else repr(v)
            (allowed if row in allow else differing).append(f"  {row}: {show(va)} -> {show(vb)}")
    for line in allowed:
        print(f"allowed to differ:{line}")
    if differing:
        print(f"{len(differing)} simulated row(s) differ between {paths[0]} and {paths[1]}:")
        print("\n".join(differing))
        return 1
    print(f"{len(ROWS) - len(allowed)} simulated rows equal ({len(allowed)} allowed to differ)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
