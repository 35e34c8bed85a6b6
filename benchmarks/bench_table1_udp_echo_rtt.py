"""Table I: UDP echo round-trip time across the four configurations.

Direct-attached Beehive versus trampolining through a CPU-attached
accelerator, with Linux and DPDK/F-Stack client stacks.  The claim:
direct attach wins at median and especially at the tail under Linux
(4x p99), and still wins (~1.5x) under kernel-bypass stacks.
"""

from repro.baselines.hoststacks import table1_configs

PAPER = {
    "linux_client/beehive": (11.6, 15.3),
    "linux_client/linux_accel": (17.6, 61.2),
    "dpdk_client/beehive": (4.08, 4.43),
    "dpdk_client/dpdk_accel": (6.22, 6.79),
}

SAMPLES = 100_000


def run_table1():
    results = {}
    for name, model in table1_configs().items():
        results[name] = model.run()
    return results


def bench_table1_udp_echo_rtt(benchmark, report):
    results = benchmark.pedantic(run_table1, rounds=1, iterations=1)

    rows = []
    for name, stats in results.items():
        paper_median, paper_p99 = PAPER[name]
        rows.append([name, paper_median, stats.median_us,
                     paper_p99, stats.p99_us])
    report.row(f"{SAMPLES} request RTTs per configuration "
               "(paper: 1,000,000)")
    report.table(
        ["configuration", "paper med us", "ours med us",
         "paper p99 us", "ours p99 us"],
        rows,
    )

    linux_direct = results["linux_client/beehive"]
    linux_bounce = results["linux_client/linux_accel"]
    dpdk_direct = results["dpdk_client/beehive"]
    dpdk_bounce = results["dpdk_client/dpdk_accel"]
    report.row()
    report.row(f"Linux p99 improvement: "
               f"{linux_bounce.p99_us / linux_direct.p99_us:.1f}x "
               "(paper: 4x)")
    report.row(f"Linux median improvement: "
               f"{linux_bounce.median_us / linux_direct.median_us:.1f}x "
               "(paper: 1.5x)")
    report.row(f"DPDK median improvement: "
               f"{dpdk_bounce.median_us / dpdk_direct.median_us:.1f}x "
               "(paper: 1.5x)")

    # The headline shape must hold.
    assert linux_bounce.p99_us / linux_direct.p99_us > 2.5
    assert dpdk_bounce.median_us / dpdk_direct.median_us > 1.3
