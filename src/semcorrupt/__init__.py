"""Semantic corruptions for spurious-correlation-avoiding training, plus an
exact finite-distribution engine that verifies the underlying guarantees."""

from .corruptions import (
    CorruptionSpec,
    Grid,
    SentencePair,
    TokenSeq,
    apply,
    coordinate_mask,
    freq_filter,
    gauss_noise,
    intensity_filter,
    ngram_randomize,
    patch_randomize,
    premise_mask,
    rand_crop,
    roi_mask,
)
from .errors import (
    ConfigError,
    DispatchError,
    SizingError,
    TrainingError,
    UndefinedWeightError,
)
from .exact import (
    BoundReport,
    FiniteCorruption,
    JointTable,
    Posterior,
    biased_posterior,
    cond_indep_gap,
    corruption_bound,
    corruption_randomize,
    enumerate_binary_predictors,
    extend_with_corruption,
    nuisance_randomize,
    predictor_accuracy,
)
from .families import (
    Dataset,
    DiscreteFamily,
    flip_noise_family,
    negated_coordinate_family,
    sample_family,
    synthetic_image_task,
    synthetic_nli_task,
    xor_sign_family,
)
from .harness import (
    ExperimentConfig,
    MethodSpec,
    MetricsRecord,
    TheoryReport,
    desk_image_experiment,
    desk_nli_experiment,
    evaluate,
    generate_task,
    load_dataset,
    load_model,
    predictor_table_csv,
    run_experiment,
    run_method,
    save_dataset,
    save_model,
    score_features,
    select_corruption_for,
    verify_theory,
)
from .learner import (
    FeatureSpec,
    LinearModel,
    TrainConfig,
    accuracy,
    ce_loss_grad,
    dfl_loss_grad,
    featurize,
    poe_loss_grad,
    predict,
    predict_proba,
    train,
)
from .rng import Stream, derive_seed, mix64
from .scams import (
    BiasedModel,
    FeatureStore,
    build_biased_model,
    jtt_error_set,
    nurd_weights,
    run_dfl,
    run_jtt,
    run_nurd,
    run_poe,
    select_corruption,
)

__version__ = "0.1.0"
