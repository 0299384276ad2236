"""Scale presets of the paper-table benchmarks.

All benchmarks exercise the exact code paths of the paper's experiments, but
at a reduced scale so the whole harness runs on a laptop in minutes rather
than the cluster-months of the original study (3,000 designs x 40,000 epochs
x 5 seeds).  The presets below document the scale used by each benchmark;
raising them toward the published values only changes runtime, not code.

The repository's speed benchmark is ``perfbench/`` (see
``perfbench/README.md`` and ``BENCHMARK.json``).
"""

from __future__ import annotations

from repro.analysis import ExperimentScale

#: Scale used by the Table 3 benchmark (per environment x profile cell).
TABLE3_SCALE = ExperimentScale(
    dataset_scale=0.04,
    num_chunks=14,
    train_epochs=50,
    checkpoint_interval=10,
    last_k_checkpoints=3,
    num_seeds=2,
    num_designs=8,
    max_trained_designs=4,
    seed=0,
)

#: Scale used by the Figure 3 / Figure 4 training-curve benchmarks.
CURVE_SCALE = ExperimentScale(
    dataset_scale=0.04,
    num_chunks=14,
    train_epochs=60,
    checkpoint_interval=10,
    last_k_checkpoints=3,
    num_seeds=2,
    num_designs=10,
    max_trained_designs=5,
    seed=0,
)

#: Scale used by the Table 4 emulation benchmark.
EMULATION_SCALE = ExperimentScale(
    dataset_scale=0.04,
    num_chunks=14,
    train_epochs=50,
    checkpoint_interval=10,
    last_k_checkpoints=3,
    num_seeds=1,
    num_designs=6,
    max_trained_designs=3,
    seed=0,
)

#: Scale used by the Table 5 combination benchmark.
COMBINATION_SCALE = ExperimentScale(
    dataset_scale=0.04,
    num_chunks=14,
    train_epochs=50,
    checkpoint_interval=10,
    last_k_checkpoints=3,
    num_seeds=2,
    num_designs=10,
    max_trained_designs=5,
    seed=0,
)

#: Scale used to build the Figure 5 early-stopping corpus.
CORPUS_SCALE = ExperimentScale(
    dataset_scale=0.03,
    num_chunks=12,
    train_epochs=24,
    checkpoint_interval=8,
    last_k_checkpoints=2,
    num_seeds=1,
    seed=0,
)

#: Scale used by the ablation benchmarks.
ABLATION_SCALE = ExperimentScale(
    dataset_scale=0.03,
    num_chunks=12,
    train_epochs=30,
    checkpoint_interval=10,
    last_k_checkpoints=2,
    num_seeds=1,
    num_designs=10,
    max_trained_designs=6,
    seed=0,
)
