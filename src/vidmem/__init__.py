"""Multi-modal video memorability modeling pipeline."""

from .aggregate import PredictionTable, aggregate_rows
from .corpus import (AnnotationLog, CaptionSet, Corpus, FeatureSet, LabelTable,
                     WordVectorTable, load_annotations_csv, load_captions_csv,
                     load_feature_csv, load_labels_csv, load_word_vectors, tokenize)
from .decay import DecayFit, adjust_labels, fit_decay
from .ensemble import EnsembleWeights, apply_weights, enumerate_simplex, grid_search
from .harness import (FeatureModelConfig, SplitSpec, SyntheticCorpusSpec,
                      generate_synthetic, run_ensemble_experiment,
                      run_feature_experiment, run_full_experiment, split)
from .metrics import srcc
from .regress import (LinearModel, Standardizer, SvrModel, fit_linear,
                      fit_standardizer, fit_svr)
from .textmodel import GruRegressor, TrainConfig, embed, gru_train

__all__ = [
    "AnnotationLog", "CaptionSet", "Corpus", "DecayFit",
    "EnsembleWeights", "FeatureModelConfig", "FeatureSet", "GruRegressor",
    "LabelTable", "LinearModel", "PredictionTable", "SplitSpec",
    "Standardizer", "SvrModel", "SyntheticCorpusSpec", "TrainConfig",
    "WordVectorTable", "adjust_labels", "aggregate_rows", "apply_weights",
    "embed", "enumerate_simplex", "fit_decay", "fit_linear",
    "fit_standardizer", "fit_svr", "generate_synthetic", "grid_search",
    "gru_train", "load_annotations_csv", "load_captions_csv",
    "load_feature_csv", "load_labels_csv", "load_word_vectors",
    "run_ensemble_experiment", "run_feature_experiment", "run_full_experiment",
    "split", "srcc", "tokenize",
]
