"""Inference-kernel contract over BENCH_inference.json.

The SIMD batch kernels must be bit-equal across dispatch paths and the
pooled E/M-steps bit-identical to the serial ones (both are also
asserted inside the bench — a false here means the bench's own gate was
bypassed). On a multi-core runner the pooled M-step must be strictly
faster than serial; on a single core the pooled path degrades to the
serial code, so require no regression instead. Both read the medians of
the bench's alternated serial/pooled timing pairs (`timing_pairs`, at
least 5): one timing per arm swung the pooled M-step's speedup from
1.38 to 1.06 between two runs on the same 2-vCPU host. EM must stay
cheap in objective passes: at most MAX_EVALS_PER_MSTEP per EM iteration
on average. An iteration makes one pass that yields the ELBO and opens the
M-step, then one Newton step per block: 4 passes without backtracking
(the run's first ELBO pass adds one in all). The three-sweep M-step this
replaced took 10 passes plus an ELBO pass, and the gradient ascent
before it ~35.
"""

from _common import finish, load

MAX_EVALS_PER_MSTEP = 5

bench = load("BENCH_inference.json")
failures = []
if bench["evals_per_mstep"] > MAX_EVALS_PER_MSTEP:
    failures.append(
        f"EM needs {bench['evals_per_mstep']:.2f} objective passes per iteration "
        f"(limit {MAX_EVALS_PER_MSTEP}) over {bench['em_iterations']} EM iterations"
    )
if not bench["kernels_equal"]:
    failures.append("generic and AVX2 kernels are not bit-equal")
if not bench["serial_parallel_bit_identical"]:
    failures.append("parallel EM is not bit-identical to serial")
serial = bench["kernel_breakdown"]["serial"]
parallel = bench["kernel_breakdown"]["parallel"]
if serial["mstep_ns"] <= 0 or serial["objective_evals"] <= 0:
    failures.append("kernel breakdown missing: no M-step work was timed")
threads = bench["threads"]
if bench.get("timing_pairs", 0) < 5:
    failures.append(
        f"speedups need at least 5 alternated timing pairs, got {bench.get('timing_pairs', 0)}"
    )
if threads > 1:
    if bench["mstep_speedup"] <= 1.0:
        failures.append(
            f"pooled M-step not faster than serial on {threads} threads: median "
            f"{bench['mstep_speedup']:.3f}x (pairs {bench['mstep_speedup_min']:.3f}-"
            f"{bench['mstep_speedup_max']:.3f}x)"
        )
elif bench["em_speedup_parallel_over_serial"] < 0.85:
    failures.append(
        f"single-thread pooled path regressed vs serial: median "
        f"{bench['em_speedup_parallel_over_serial']:.3f}x"
    )
finish(
    "INFERENCE",
    failures,
    f"inference gates ok: kernel path {bench['kernel_path']}, {threads} thread(s), "
    f"{bench['evals_per_mstep']:.1f} evals per iteration over {bench['em_iterations']} iterations, "
    f"mstep {serial['mstep_ns']/1e6:.0f} ms serial -> {parallel['mstep_ns']/1e6:.0f} ms "
    f"pooled (median {bench['mstep_speedup']:.2f}x, pairs {bench['mstep_speedup_min']:.2f}-"
    f"{bench['mstep_speedup_max']:.2f}x), estep {bench['estep_speedup']:.2f}x, "
    f"naive-vs-csr {bench['csr_speedup_over_naive']:.2f}x",
)
