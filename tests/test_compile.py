"""Equivalence suite for the fused-kernel compiler (`repro.nn.compile`).

The compiler's contract mirrors the multi-seed engine's: compiled kernels are
*indistinguishable* from the autograd reference — gradients match
``loss.backward()`` to <= 1e-9 in float32 and float64 across the whole
design-space vocabulary, compiled rollout decisions are identical to the
graph path's, and a generated design trained through the compiled lockstep
engine (including inside a scheduler worker) reproduces the serial graph
path's trajectories action for action.  Relaxed numerics (``--numerics
fast``) is exempt from bit-exactness and instead pinned by statistical
equivalence.
"""

import dataclasses

import numpy as np
import pytest

from repro import nn
from repro.abr.networks import (GenericActorCritic, PensieveNetwork,
                                build_seed_stack, seed_stack_compatible)
from repro.analysis.experiments import ExperimentScale, build_environment
from repro.core.codegen import load_network_builder
from repro.core.design import Design, DesignKind
from repro.core.evaluation import DesignTrainer, EvaluationConfig
from repro.core.parallel import ParallelConfig
from repro.core.scheduler import CampaignScheduler, EvaluationJob
from repro.llm.design_space import (NETWORK_ENCODERS, NetworkDesignSpec,
                                    NetworkDesignSpace)
from repro.nn.compile import (CompiledSeedStack, CompiledSequence, plan_for)
from repro.rl.a2c import A2CConfig, MultiSeedA2CTrainer

SPECS_PER_FAMILY = 20


@pytest.fixture
def engine_guard():
    """Restore every engine toggle a test may flip."""
    dtype = nn.get_default_dtype()
    compiled = nn.compilation_enabled()
    numerics = nn.get_numerics()
    yield
    nn.set_default_dtype(dtype)
    nn.set_compilation(compiled)
    nn.set_numerics(numerics)


@pytest.fixture(scope="module")
def env_setup():
    return build_environment("fcc", ExperimentScale(dataset_scale=0.03,
                                                    num_chunks=10, seed=0))


def _sample_specs(family, count, rng):
    """``count`` random design-space specs constrained to one encoder family."""
    space = NetworkDesignSpace()
    specs = []
    while len(specs) < count:
        spec = space.sample_spec(rng)
        specs.append(dataclasses.replace(
            spec, encoder=family, defect=None,
            # Bound the hidden size so the 240-network sweep stays fast; the
            # kernels are size-agnostic.
            hidden_size=min(spec.hidden_size, 96)))
    return specs


def _build_from_spec(spec, seed):
    """Render the spec to code and build it through the real codegen path."""
    builder = load_network_builder(NetworkDesignSpace().render(spec))
    return builder((6, 8), 5, rng=np.random.default_rng(seed))


def _autograd_reference(network, states, dlogits, dvalues):
    """Graph forward/backward with injected output gradients."""
    t = nn.tensor(states)
    logits, values = network.forward(t)
    for p in network.parameters():
        p.zero_grad()
    loss = ((logits * nn.tensor(dlogits)).sum()
            + (values * nn.tensor(dvalues)).sum())
    loss.backward()
    grads = [p.grad.copy() for p in network.parameters()]
    for p in network.parameters():
        p.zero_grad()
    return logits.numpy().copy(), values.numpy().copy(), grads


# --------------------------------------------------------------------------- #
# Property test (satellite): >= 20 random specs per encoder family, compiled
# gradients match autograd in both dtypes.
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("family", NETWORK_ENCODERS)
def test_random_design_specs_compile_and_match_autograd(family, engine_guard):
    rng = np.random.default_rng(NETWORK_ENCODERS.index(family) + 1)
    data_rng = np.random.default_rng(7)
    specs = _sample_specs(family, SPECS_PER_FAMILY, rng)
    for index, spec in enumerate(specs):
        dtype = ("float64", "float32")[index % 2]
        nn.set_default_dtype(dtype)
        network = _build_from_spec(spec, seed=index)
        if not network.supports_fused_update():
            # pensieve_conv designs with non-ReLU activations keep the graph
            # path (the hand fold requires ReLU); everything the compiler
            # owns must lower.
            assert isinstance(network, PensieveNetwork), spec
            continue
        states = data_rng.normal(size=(5, 6, 8)).astype(dtype)
        dlogits = data_rng.normal(size=(5, 5)).astype(dtype)
        dvalues = data_rng.normal(size=(5,)).astype(dtype)
        ref_logits, ref_values, ref_grads = _autograd_reference(
            network, states, dlogits, dvalues)
        cache, logits, values = network.fused_forward(states)
        network.fused_backward(cache, dlogits, dvalues)
        # The Pensieve fold groups the branch-bank GEMMs differently from
        # the per-branch graph (same math, different operand grouping), so
        # its float32 agreement is loose; the compiled generic kernels
        # mirror the graph op for op and must hit 1e-9 in both dtypes.
        tol = (2e-4 if isinstance(network, PensieveNetwork)
               and dtype == "float32" else 1e-9)
        assert np.abs(logits - ref_logits).max() <= tol, (spec, dtype)
        assert np.abs(values - ref_values).max() <= tol, (spec, dtype)
        for p, g in zip(network.parameters(), ref_grads):
            assert np.abs(p.grad - g).max() <= tol, (spec, dtype, p.name)
        # Compiled inference agrees with the graph forward's probabilities.
        probs_graph = network._policy_probs_graph(states)
        assert np.abs(network.policy_probs(states) - probs_graph).max() \
            <= tol


# --------------------------------------------------------------------------- #
# Stacked kernels: per-seed slices equal the serial compiled kernels.
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("encoder", ["flatten", "conv", "rnn", "gru", "lstm"])
def test_compiled_seed_stack_matches_serial_kernels(encoder, dtype,
                                                    engine_guard):
    nn.set_default_dtype(dtype)
    nets = [GenericActorCritic((6, 8), 5, hidden_sizes=(24, 24),
                               encoder=encoder,
                               rng=np.random.default_rng(10 + s))
            for s in range(3)]
    assert CompiledSeedStack.compatible(nets)
    rng = np.random.default_rng(1)
    states = rng.normal(size=(3, 6, 6, 8)).astype(dtype)
    dlogits = rng.normal(size=(3, 6, 5)).astype(dtype)
    dvalues = rng.normal(size=(3, 6)).astype(dtype)
    serial = []
    for s, net in enumerate(nets):
        cache, logits, values = net.fused_forward(states[s])
        for p in net.parameters():
            p.zero_grad()
        net.fused_backward(cache, dlogits[s], dvalues[s])
        serial.append((logits.copy(), values.copy(),
                       [p.grad.copy() for p in net.parameters()],
                       net.policy_probs(states[s]).copy()))
    stack = CompiledSeedStack(nets)
    cache, logits, values = stack.fused_forward(states)
    stack.fused_backward(cache, dlogits, dvalues)
    for s, net in enumerate(nets):
        ref_logits, ref_values, ref_grads, ref_probs = serial[s]
        assert np.array_equal(logits[s], ref_logits)
        assert np.array_equal(values[s], ref_values)
        for p0, g in zip(nets[0].parameters(), ref_grads):
            assert np.array_equal(stack.stacked_of(p0).grad[s], g)
        forward = stack.seed_policy_forward(s, batch=6)
        assert np.array_equal(forward.probs(states[s]), ref_probs)
        assert np.array_equal(stack.policy_probs(states)[s], ref_probs)
    # The per-seed networks' weights alias the stacked arrays.
    for s, net in enumerate(nets):
        for p, sp in zip(net.parameters(), stack.parameters()):
            assert np.shares_memory(p.data, sp.data[s])


# --------------------------------------------------------------------------- #
# Acceptance contract: compiled lockstep == serial graph path, trajectories
# identical, including inside a scheduler worker.
# --------------------------------------------------------------------------- #
def _generated_design(encoder, activation="relu", hidden=32):
    spec = NetworkDesignSpec(hidden_size=hidden, activation=activation,
                             encoder=encoder)
    return Design(design_id=f"gen-{encoder}", kind=DesignKind.NETWORK,
                  code=NetworkDesignSpace().render(spec))


def _tiny_trainer(setup, num_seeds=2, lockstep=True):
    config = EvaluationConfig(train_epochs=6, checkpoint_interval=3,
                              last_k_checkpoints=2, num_seeds=num_seeds,
                              a2c=A2CConfig(entropy_anneal_epochs=4,
                                            critic_lr=3e-3),
                              lockstep_training=lockstep)
    return DesignTrainer(setup.video, setup.train_traces, setup.test_traces,
                         config=config, qoe=setup.qoe)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("encoder", ["flatten", "gru"])
def test_compiled_lockstep_matches_serial_graph_path(env_setup, encoder,
                                                     dtype, engine_guard):
    nn.set_default_dtype(dtype)
    trainer = _tiny_trainer(env_setup)
    design = _generated_design(encoder)
    lock_runs = trainer.run_seeds(None, design, [0, 1])
    nn.set_compilation(False)
    graph_runs = [trainer.run(None, design, seed=s) for s in (0, 1)]
    for lock, graph in zip(lock_runs, graph_runs):
        # Identical rewards chunk for chunk means identical trace choices
        # and action sequences — rewards are chaotic in the actions.
        assert lock.reward_history == graph.reward_history
        assert lock.checkpoint_epochs == graph.checkpoint_epochs
        assert np.allclose(lock.checkpoint_scores, graph.checkpoint_scores,
                           atol=1e-9, rtol=0.0)


def test_generated_design_through_scheduler_worker(env_setup, engine_guard):
    """The ISSUE's acceptance path: generated design, lockstep, worker pool."""
    trainer = _tiny_trainer(env_setup)
    design = _generated_design("lstm")
    job = EvaluationJob(trainer=trainer, state_design=None,
                        network_design=design, seeds=(0, 1),
                        environment="fcc")
    # Compiled designs stay whole under fan-out (lockstep inside the worker).
    scheduler = CampaignScheduler(ParallelConfig(max_workers=2))
    assert not scheduler._splits_without_cost(job)
    result = scheduler.run([job])[0]
    nn.set_compilation(False)
    reference = [trainer.run(None, design, seed=s) for s in (0, 1)]
    for run, ref in zip(result.runs, reference):
        assert run.reward_history == ref.reward_history
        assert np.allclose(run.checkpoint_scores, ref.checkpoint_scores,
                           atol=1e-9, rtol=0.0)
    # Without the compiler the same job splits per seed under fan-out.
    assert CampaignScheduler(ParallelConfig(max_workers=2)) \
        ._splits_without_cost(job)


def test_multi_seed_supports_compiled_generated_networks(env_setup):
    nets = [GenericActorCritic((6, 8), 4, hidden_sizes=(16, 16),
                               rng=np.random.default_rng(s))
            for s in range(2)]
    assert MultiSeedA2CTrainer.supports(nets)
    assert seed_stack_compatible(nets)
    assert type(build_seed_stack(nets)).__name__ == "CompiledSeedStack"
    # Mixed architectures still refuse.
    pensieve = PensieveNetwork((6, 8), 4, rng=np.random.default_rng(0))
    assert not MultiSeedA2CTrainer.supports([nets[0], pensieve])


# --------------------------------------------------------------------------- #
# Degradation: what the planner cannot lower keeps the graph path, logged.
# --------------------------------------------------------------------------- #
class _ExoticNetwork(GenericActorCritic):
    """Codegen-style subclass whose forward the planner cannot verify."""

    def forward(self, states):  # pragma: no cover - structure-only
        return super().forward(states)


def test_unlowerable_architectures_degrade_with_logged_reason(caplog,
                                                              engine_guard):
    import logging

    exotic = _ExoticNetwork((6, 8), 4, hidden_sizes=(8,),
                            rng=np.random.default_rng(0))
    with caplog.at_level(logging.INFO, logger="repro.nn.compile"):
        assert plan_for(exotic) is None
    assert exotic.supports_fused_update() is False
    assert not CompiledSeedStack.compatible([exotic])
    # Custom callable activations refuse too.
    custom = GenericActorCritic((6, 8), 4, hidden_sizes=(8,),
                                activation=lambda x: x.relu(),
                                rng=np.random.default_rng(0))
    assert plan_for(custom) is None
    # And the escape hatch turns the compiler off globally.
    nn.set_compilation(False)
    fresh = GenericActorCritic((6, 8), 4, hidden_sizes=(8,),
                               rng=np.random.default_rng(0))
    assert fresh.supports_fused_update() is False
    probs = fresh.policy_probs(np.zeros((2, 6, 8)))
    assert probs.shape == (2, 4)


def test_compile_cache_not_pickled(env_setup):
    import pickle

    net = GenericActorCritic((6, 8), 4, hidden_sizes=(8,),
                             rng=np.random.default_rng(0))
    assert net.compiled_plan() is not None
    clone = pickle.loads(pickle.dumps(net))
    assert "_compile_cache" not in clone.__dict__
    # The clone recompiles on demand and still agrees.
    states = np.random.default_rng(0).normal(size=(3, 6, 8))
    assert np.allclose(clone.policy_probs(states), net.policy_probs(states),
                       atol=1e-12, rtol=0.0)


# --------------------------------------------------------------------------- #
# Dropout / LayerNorm semantics (satellite).
# --------------------------------------------------------------------------- #
def test_dropout_layernorm_eval_mode_preserved_under_batched_inference():
    module = nn.Sequential(
        nn.Dense(8, 16, activation="relu", rng=np.random.default_rng(0)),
        nn.LayerNorm(16),
        nn.Dropout(0.5, rng=np.random.default_rng(1)),
        nn.Dense(16, 4, activation="tanh", rng=np.random.default_rng(2)),
    )
    module.eval()
    compiled = CompiledSequence(module)
    x = np.random.default_rng(3).normal(size=(7, 8))
    with nn.no_grad():
        graph = module(nn.tensor(x)).numpy()
    # Eval-mode dropout is the identity, LayerNorm normalizes identically,
    # and the whole batch goes through one fused chain.
    assert np.abs(compiled.infer(x) - graph).max() <= 1e-12


def test_training_mode_dropout_consumes_the_layer_rng_like_the_graph():
    def build():
        return nn.Sequential(
            nn.Dense(6, 12, activation="relu", rng=np.random.default_rng(0)),
            nn.Dropout(0.4, rng=np.random.default_rng(42)),
            nn.Dense(12, 3, rng=np.random.default_rng(1)),
        )

    x = np.random.default_rng(5).normal(size=(4, 6))
    graph_module = build()
    graph_out = graph_module(nn.tensor(x)).numpy()
    compiled_module = build()
    compiled = CompiledSequence(compiled_module)
    _, compiled_out = compiled.forward(x)
    assert np.abs(compiled_out - graph_out).max() <= 1e-12
    # Identical RNG streams were consumed: a second draw still agrees.
    assert np.abs(compiled.forward(x)[1]
                  - graph_module(nn.tensor(x)).numpy()).max() <= 1e-12


def test_active_dropout_keeps_graph_inference_rng_stream():
    """Training-mode dropout must not take the compiled inference path.

    The compiled chain runs only the actor tower while the graph reference
    runs the full forward (critic included), so with active dropout the two
    would consume different RNG-stream lengths per decision.  Such networks
    route inference back to the graph; twin networks with twin RNGs must
    therefore produce identical probability sequences with the compiler on
    and off.
    """
    def build():
        net = GenericActorCritic((6, 8), 4, hidden_sizes=(12,),
                                 rng=np.random.default_rng(0))
        net.actor_trunk.append(nn.Dropout(0.3, rng=np.random.default_rng(7)))
        net.critic_trunk.append(nn.Dropout(0.3, rng=np.random.default_rng(8)))
        return net

    states = np.random.default_rng(1).normal(size=(3, 6, 8))
    compiled_net = build()
    assert compiled_net.compiled_plan() is not None
    assert compiled_net.compiled_plan().has_active_dropout()
    with nn.no_grad():
        reference_net = build()
        # Two consecutive decisions: both the values and the RNG stream
        # consumption must match the graph path draw for draw.
        for _ in range(2):
            assert np.array_equal(compiled_net.policy_probs(states),
                                  reference_net._policy_probs_graph(states))
    # In eval mode dropout is inert and the compiled path resumes.
    compiled_net.eval()
    assert not compiled_net.compiled_plan().has_active_dropout()


def test_mid_stack_conv_and_recurrent_propagate_input_gradients():
    module = nn.Sequential(
        nn.Conv1D(6, 8, 3, activation="relu", rng=np.random.default_rng(0)),
        nn.Recurrent(8, 10, cell_type="gru", rng=np.random.default_rng(1)),
        nn.Dense(10, 4, activation="elu", rng=np.random.default_rng(2)),
    )
    compiled = CompiledSequence(module)
    x = np.random.default_rng(3).normal(size=(5, 6, 8))
    t = nn.tensor(x, requires_grad=True)
    out = module(t)
    dy = np.random.default_rng(4).normal(size=out.shape)
    (out * nn.tensor(dy)).sum().backward()
    ref_grads = [p.grad.copy() for p in module.parameters()]
    caches, compiled_out = compiled.forward(x)
    assert np.abs(compiled_out - out.numpy()).max() <= 1e-9
    dx = compiled.backward(caches, dy, need_input_grad=True)
    assert np.abs(dx - t.grad).max() <= 1e-9
    for p, g in zip(module.parameters(), ref_grads):
        assert np.abs(p.grad - g).max() <= 1e-9


# --------------------------------------------------------------------------- #
# Relaxed numerics (satellite): fast mode is opt-in, statistically equivalent.
# --------------------------------------------------------------------------- #
def test_exact_numerics_is_the_default():
    assert nn.get_numerics() == "exact"
    with pytest.raises(ValueError):
        nn.set_numerics("sloppy")


def test_fast_numerics_gradients_statistically_equivalent(engine_guard):
    rng = np.random.default_rng(0)
    states = rng.normal(size=(16, 6, 8))
    dlogits = rng.normal(size=(16, 6))
    dvalues = rng.normal(size=(16,))

    def grads_with(mode, network):
        nn.set_numerics(mode)
        cache, _, _ = network.fused_forward(states)
        for p in network.parameters():
            p.zero_grad()
        network.fused_backward(cache, dlogits, dvalues)
        return [p.grad.copy() for p in network.parameters()]

    for network in (PensieveNetwork((6, 8), 6, rng=np.random.default_rng(1)),
                    GenericActorCritic((6, 8), 6, encoder="conv",
                                       hidden_sizes=(24, 24),
                                       rng=np.random.default_rng(2))):
        exact = grads_with("exact", network)
        fast = grads_with("fast", network)
        for e, f in zip(exact, fast):
            scale = max(float(np.abs(e).max()), 1e-12)
            assert float(np.abs(e - f).max()) / scale <= 1e-10


def test_fast_numerics_scores_within_statistical_bound(env_setup,
                                                       engine_guard):
    trainer = _tiny_trainer(env_setup)
    design = _generated_design("conv")
    exact_runs = trainer.run_seeds(None, design, [0, 1])
    nn.set_numerics("fast")
    fast_runs = trainer.run_seeds(None, design, [0, 1])
    for exact, fast in zip(exact_runs, fast_runs):
        exact_score = np.mean(exact.checkpoint_scores)
        fast_score = np.mean(fast.checkpoint_scores)
        # Statistical-equivalence gate: the re-blocked contractions may
        # diverge at round-off and flip individual sampled actions, but the
        # protocol score must stay in the same band.
        assert abs(exact_score - fast_score) <= 0.5


# --------------------------------------------------------------------------- #
# Scheduler planner dedupe (satellite).
# --------------------------------------------------------------------------- #
def test_identical_jobs_collapse_to_one_execution(env_setup, monkeypatch):
    trainer = _tiny_trainer(env_setup)
    design_a = _generated_design("flatten")
    design_b = Design(design_id="gen-flatten-copy", kind=DesignKind.NETWORK,
                      code=design_a.code)  # same content, different identity
    other = _generated_design("conv")
    executions = []
    original = DesignTrainer.run_seeds

    def counting(self, state_design, network_design, seeds, **kwargs):
        executions.append(network_design.design_id
                          if network_design else "original")
        return original(self, state_design, network_design, seeds, **kwargs)

    monkeypatch.setattr(DesignTrainer, "run_seeds", counting)

    def job(design):
        return EvaluationJob(trainer=trainer, state_design=None,
                             network_design=design, seeds=(0, 1),
                             environment="fcc")

    results = CampaignScheduler().run([job(design_a), job(other),
                                       job(design_b)])
    # Content-identical jobs collapsed: two executions, three results.
    assert len(executions) == 2
    assert results[2].deduplicated and not results[0].deduplicated
    assert results[2].score == results[0].score
    assert results[2].runs == results[0].runs


def test_early_stopping_jobs_never_collapse(env_setup):
    from repro.core.early_stopping import (EarlyStoppingConfig,
                                           RewardTrajectoryClassifier)

    trainer = _tiny_trainer(env_setup)
    classifier = RewardTrajectoryClassifier(
        EarlyStoppingConfig(reward_prefix_length=2, training_epochs=2))
    job = EvaluationJob(trainer=trainer, state_design=None,
                        network_design=None, seeds=(0,),
                        early_stopping=classifier, environment="fcc")
    assert CampaignScheduler._dedupe_key(job) is None


# --------------------------------------------------------------------------- #
# CLI escape hatches.
# --------------------------------------------------------------------------- #
def test_cli_flags_toggle_compiler_and_numerics(engine_guard):
    from repro.cli import _apply_engine_flags, build_parser

    parser = build_parser()
    args = parser.parse_args(["run", "--no-compile", "--numerics", "fast"])
    assert args.no_compile and args.numerics == "fast"
    _apply_engine_flags(args)
    assert not nn.compilation_enabled()
    assert nn.get_numerics() == "fast"
    args = parser.parse_args(["campaign"])
    _apply_engine_flags(args)
    assert nn.compilation_enabled()
    assert nn.get_numerics() == "exact"
