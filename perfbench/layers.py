"""Per-layer metrics of a traced run and what each one should move.

Every metric is per traced pass, so counts repeat exactly at a fixed seed.
Times (``_s``) are inclusive span durations of the outermost span of the
named group, unless the name says ``self``.  Byte figures are computed from
array sizes, not measured.  Metrics of the ``_apply`` gate kernel are named
``apply.*``: a metric name has to start with a letter or a digit.
"""

from __future__ import annotations

import numpy as np

from spans import SpanTable

# name, unit, better, end-to-end metric it should move, workload where it does, why.
LAYERS = (
    ("rng.seats", "count", "lower", "shots_per_s", "reference-noiseless",
     "one Philox re-seat per shot and per noise trajectory"),
    ("rng.seat_s", "s", "lower", "shots_per_s", "reference-noiseless",
     "per-shot seating is most of a noiseless pass"),
    ("rng.seat_us_p50", "us", "lower", "shots_per_s", "reference-noiseless",
     "cost of one seat, the unit a vectorised draw would remove"),
    ("statevector.evolve_s", "s", "lower", "pass_s_p50", "reference-noiseless",
     "noiseless evolution of the pipeline circuits"),
    ("statevector.sample_s", "s", "lower", "shots_per_s", "reference-noiseless",
     "CDF inversion and shot streams of the noiseless path"),
    ("statevector.shots_sampled", "count", "lower", "shots_per_s", "reference-noiseless",
     "shots drawn by the noiseless sampler"),
    ("apply.calls", "count", "lower", "pass_s_p50", "wide-qpe",
     "gate kernel calls; gate fusion would cut them"),
    ("apply.s", "s", "lower", "pass_s_p50", "wide-qpe",
     "total gate kernel time"),
    ("apply.call_us_p50", "us", "lower", "pass_s_p50", "wide-qpe",
     "typical per-gate cost, mostly Python overhead at small n"),
    ("apply.call_us_p99", "us", "lower", "pass_s_p50", "wide-qpe",
     "slowest gates: wide targets and batched calls"),
    ("apply.batched_calls", "count", "lower", "shots_per_s", "noisy-light",
     "batched trajectory gate applications"),
    ("apply.batched_s", "s", "lower", "shots_per_s", "noisy-light",
     "the shots x 2^n batch evolution, most of a noisy pass"),
    ("apply.bytes_computed", "B", "lower", "shots_per_s", "noisy-light",
     "computed bytes read plus written by the kernel"),
    ("noise.s", "s", "lower", "shots_per_s", "noisy-light",
     "trajectory engine time including the kernel"),
    ("noise.self_s", "s", "lower", "shots_per_s", "noisy-heavy",
     "event draws and per-fault bookkeeping outside the kernel"),
    ("noise.trajectories", "count", "lower", "shots_per_s", "noisy-light",
     "trajectories requested from the engine"),
    ("noise.gate_sites", "count", "lower", "shots_per_s", "noisy-light",
     "noise sites per trajectory circuit, summed over calls"),
    ("noise.fault_events", "count", "lower", "shots_per_s", "noisy-heavy",
     "unbatched kernel calls under sample_with_noise: one per fired fault"),
    ("noise.batch_bytes_computed", "B", "lower", "peak_rss_mib", "noisy-light",
     "largest trajectory batch, computed as shots x 2^n x 16 B"),
    ("transpile.calls", "count", "lower", "shots_per_s", "noisy-light",
     "native lowering runs once per noisy experiment"),
    ("transpile.s", "s", "lower", "shots_per_s", "noisy-light",
     "lowering time, at most about 2% of a noisy pass"),
    ("transpile.native_gates", "count", "lower", "shots_per_s", "noisy-heavy",
     "native gates, each a noise site and a batched kernel call"),
    ("transpile.native_2q_gates", "count", "lower", "shots_per_s", "noisy-heavy",
     "ZZPhase gates, the sites with the high p2 rate"),
    ("circuit.build_s", "s", "lower", "pass_s_p50", "wide-qpe",
     "pipeline builders, qpe_circuit and controlled"),
    ("circuit.unitary_of_s", "s", "lower", "pass_s_p50", "reference-noiseless",
     "dense unitaries built for walk self-tests"),
    ("circuit.logical_gates", "count", "lower", "pass_s_p50", "wide-qpe",
     "gates in the circuits the builders return"),
    ("spue.walk_builds", "count", "lower", "pass_s_p50", "reference-noiseless",
     "walk operators constructed, including build-time self-tests"),
    ("spue.walk_build_s", "s", "lower", "pass_s_p50", "reference-noiseless",
     "walk construction time"),
    ("spue.spectral_check_s", "s", "lower", "pass_s_p50", "reference-noiseless",
     "eigenphase correspondence checks"),
    ("algorithms.calls", "count", "lower", "pass_s_p50", "wide-qpe",
     "phase estimation, amplitude estimation and stationary preparation calls"),
    ("algorithms.phase_estimation_s", "s", "lower", "pass_s_p50", "wide-qpe",
     "14-qubit unbatched evolution of about 8k controlled gates"),
    ("algorithms.qae_mean_s", "s", "lower", "pass_s_p50", "wide-qpe",
     "amplitude estimation at t=6"),
    ("algorithms.prepare_stationary_s", "s", "lower", "pass_s_p50", "wide-qpe",
     "single-bit phase estimation on the Szegedy walk"),
    ("markov.calls", "count", "lower", "pass_s_p50", "reference-noiseless",
     "kernel and stationary-law calls; tiny, expected to stay put"),
    ("markov.s", "s", "lower", "pass_s_p50", "reference-noiseless",
     "time in the markov layer"),
    ("experiments.runs", "count", "lower", "pass_s_p50", "reference-noiseless",
     "experiment runs per pass"),
    ("experiments.run_self_s", "s", "lower", "pass_s_p50", "reference-noiseless",
     "post-processing and dispatch inside run"),
    ("experiments.compare_s", "s", "lower", "pass_s_p50", "reference-noiseless",
     "comparisons against expected and device tables"),
    ("experiments.errors", "count", "lower", "pass_s_p50", "reference-noiseless",
     "operations that raised or failed a check in the traced passes"),
    ("trace.overhead_ratio", "ratio", "lower", "pass_s_p50", "reference-noiseless",
     "traced over untraced median pass time"),
    ("trace.layer_self_share", "ratio", "higher", "pass_s_p50", "noisy-light",
     "share of traced wall time that layer self times account for"),
)
UNITS = {name: unit for name, unit, *_ in LAYERS}


def layer_metrics(t: SpanTable) -> dict[str, float]:
    """Raw per-layer figures over the traced passes, before per-pass scaling."""
    seat = t.mask("rng.seat")
    single, batched = t.mask("_apply.single"), t.mask("_apply.batched")
    kernel = single | batched
    noise_calls = t.mask("noise.sample_with_noise", "noise.apply_trajectory")
    noise_outer = noise_calls & ~t.under(noise_calls)
    sampler = t.mask("noise.sample_with_noise")
    transpile = t.outermost("transpile.transpile_native")
    builds = t.outermost("circuit.build")
    walks = t.outermost("spue.walk_build")
    algorithms = t.mask(
        "algorithms.phase_estimation", "algorithms.qae_mean", "algorithms.prepare_stationary"
    )
    kernel_us = t.dur[kernel] * 1e6
    if not kernel_us.size:
        kernel_us = np.zeros(1)

    def total(mask):
        return float(t.dur[mask].sum())

    return {
        "rng.seats": int(seat.sum()),
        "rng.seat_s": total(seat),
        "rng.seat_us_p50": float(np.median(t.dur[seat]) * 1e6) if seat.any() else 0.0,
        "statevector.evolve_s": total(t.outermost("statevector.evolve")),
        "statevector.sample_s": total(t.outermost("statevector.sample")),
        "statevector.shots_sampled": int(t.value[t.mask("statevector.sample")].sum()),
        "apply.calls": int(kernel.sum()),
        "apply.s": total(kernel),
        "apply.call_us_p50": float(np.percentile(kernel_us, 50)),
        "apply.call_us_p99": float(np.percentile(kernel_us, 99)),
        "apply.batched_calls": int(batched.sum()),
        "apply.batched_s": total(batched),
        "apply.bytes_computed": int(t.value[kernel].sum()),
        "noise.s": total(noise_outer),
        "noise.self_s": float(t.self_time[noise_calls].sum()),
        "noise.trajectories": t.info_sum(noise_outer, "trajectories"),
        "noise.gate_sites": t.info_sum(noise_outer, "sites"),
        "noise.fault_events": int((single & t.under(sampler)).sum()),
        "noise.batch_bytes_computed": t.info_max(noise_outer, "batch_bytes"),
        "transpile.calls": int(transpile.sum()),
        "transpile.s": total(transpile),
        "transpile.native_gates": t.info_sum(transpile, "native"),
        "transpile.native_2q_gates": t.info_sum(transpile, "native_2q"),
        "circuit.build_s": total(builds),
        "circuit.unitary_of_s": total(t.outermost("circuit.unitary_of")),
        "circuit.logical_gates": t.info_sum(builds, "gates"),
        "spue.walk_builds": int(walks.sum()),
        "spue.walk_build_s": total(walks),
        "spue.spectral_check_s": total(t.outermost("spue.spectral_check")),
        "algorithms.calls": int(algorithms.sum()),
        "algorithms.phase_estimation_s": total(t.mask("algorithms.phase_estimation")),
        "algorithms.qae_mean_s": total(t.mask("algorithms.qae_mean")),
        "algorithms.prepare_stationary_s": total(t.mask("algorithms.prepare_stationary")),
        "markov.calls": int(t.mask("markov.call").sum()),
        "markov.s": total(t.outermost("markov.call")),
        "experiments.runs": int(t.mask("experiments.run").sum()),
        "experiments.run_self_s": float(t.self_time[t.mask("experiments.run")].sum()),
        "experiments.compare_s": total(t.outermost("experiments.compare")),
    }


# Figures that describe one call or one batch, not a per-pass total.
PER_CALL = {"rng.seat_us_p50", "apply.call_us_p50", "apply.call_us_p99", "noise.batch_bytes_computed"}


def per_pass(raw: dict[str, float], passes: int) -> dict[str, float]:
    out = {}
    for name, value in raw.items():
        if name in PER_CALL:
            out[name] = value
        elif isinstance(value, int):
            out[name] = value // passes if value % passes == 0 else value / passes
        else:
            out[name] = value / passes
    return out
