"""Recruitment forecasting for multi-centre trials.

Fits the Poisson-Gamma hierarchy to censused recruitment data, produces
plug-in and adjusted prediction intervals for future counts or waiting
times, and ships the simulation harness behind the published coverage
tables and limit-density figures.
"""

from .asymptotics import (
    CumulantCheck,
    GammaCollection,
    LimitLaw,
    content_limit,
    count_limit_law,
    limit_prob_cdf,
    limit_prob_density,
    moment_matched_gamma,
    sum_gamma_cumulant,
    time_horizon,
    time_limit_law,
    verify_cumulant_ordering,
)
from .distributions import (
    GammaParams,
    NegBinParams,
    Pearson6Params,
    gamma_cdf,
    gamma_quantile,
    nb_cdf,
    nb_quantile,
    pearson6_cdf,
    pearson6_quantile,
    poisson_cdf,
    poisson_quantile,
)
from .model import (
    DegenerateLikelihood,
    InsufficientData,
    ModelError,
    ModelFit,
    TrialData,
    fit_mle,
    log_likelihood,
    posterior_rate_moments,
)
from .predict import (
    COUNT,
    TIME,
    PooledPosterior,
    PredictionInterval,
    PredictionRequest,
    adjust_probability_count,
    adjust_probability_time,
    pool_centres,
    pool_moments,
    prediction_interval,
    predictive_count_law,
    predictive_time_law,
)
from .simulate import (
    CoverageReport,
    Explicit,
    GammaMixture,
    QuantileProbabilitySample,
    SimConfig,
    Simultaneous,
    SingleGamma,
    SplitHalf,
    UniformOnCensus,
    coverage_study,
    exact_coverage,
    generate_trial,
    kernel_density,
    quantile_probability_study,
    replication_rng,
)

__version__ = "0.1.0"
