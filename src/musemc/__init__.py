"""musemc: unbiased multilevel Monte Carlo for discrete-time optimal stopping.

The package estimates U_T = sup_tau E[f(tau, X_tau)] without discretization
or nesting bias: randomized-level replicates are exactly unbiased with
finite expected cost, so plain averages, CLT intervals, and embarrassingly
parallel replication all apply directly.  Alongside the estimator ship the
biased baselines it is measured against, exact oracles for Gaussian and
finite-chain instances, a replication harness with bit-reproducible
parallelism, and a sequential stopping policy driven by the estimator.
"""

from .baselines import TreeSpec, discrete_dp_oracle, gaussian_dp_oracle, mc1_estimate, mc2_estimate, mc2_forest
from .cli import main
from .estimator import (
    EstimatorSample,
    MuseReplicateTask,
    RateSchedule,
    antithetic_delta,
    estimate_utility,
    multi_stage_muse,
    sample_geometric_level,
    theoretical_rate,
    theoretical_rate_schedule,
    two_stage_muse,
)
from .fixtures import deterministic_chain, mixing_three_stage, skewed_three_stage, two_point_two_stage
from .inference import (
    BatchSummary,
    ConfidenceInterval,
    bootstrap_ci,
    clt_ci,
    self_normalized_variance,
    summarize,
    summary_to_json,
)
from .parallel import ReplicateError, RunManifest, map_replicated, resolve_workers, run_replicated
from .policy import (
    PolicyConfig,
    PolicyEpisodeTask,
    PolicyOutcome,
    StageDecision,
    decide_stop,
    run_episode,
    run_stopping_policy,
)
from .processes import (
    ProcessSpec,
    gaussian_iid,
    gbm,
    process_spec_from_dict,
    sample_next,
    simulate_paths,
    user_discrete,
)
from .rewards import RewardSpec, basket_put, identity_reward, reward, reward_spec_from_dict
from .streams import RandomStream, derive_substream

__version__ = "0.1.0"
