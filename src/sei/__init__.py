"""Deterministic toolkit for chest X-ray reporting pipelines.

Covers the gradient-free and mathematical machinery around report
generation: factual entity sequence extraction from entity-annotated
reports, indication normalization, exact similar-case retrieval over dense
embeddings, a cross-modal fusion network with verified gradients, alignment
and NLL objectives, and an NLG/clinical-efficacy evaluation harness.
"""

__version__ = "0.1.0"

from .corpus import (
    CorpusFilterConfig,
    EntityAnnotation,
    EntityLabel,
    ReportDocument,
    StudyRecord,
    filter_corpus,
    load_corpus,
    save_corpus,
    tokenize,
)
from .errors import CorpusError, StageError, ToolkitError, ValidationError
from .fusion import FeatureSet, FusionOutput, FusionParams, decoder_layer, fuse, fuse_backward, init_params
from .indications import NormalizerConfig, normalize_indication
from .losses import (
    AlignmentBatch,
    TokenPrediction,
    global_alignment_loss,
    local_alignment_loss,
    nll_loss,
    total_alignment_loss,
)
from .metrics import EvalPair, corpus_bleu, entity_f1, micro_f1, rouge_l, score_corpus, truncate_reference
from .retrieval import EmbeddingIndex, RetrievalResult, attach_shc, index_from_vectors, top_k, top_k_naive
from .see import FactualEntitySequence, FactualSubsequence, see_extract

__all__ = [
    "__version__",
    "CorpusFilterConfig",
    "EntityAnnotation",
    "EntityLabel",
    "ReportDocument",
    "StudyRecord",
    "filter_corpus",
    "load_corpus",
    "save_corpus",
    "tokenize",
    "CorpusError",
    "StageError",
    "ToolkitError",
    "ValidationError",
    "FeatureSet",
    "FusionOutput",
    "FusionParams",
    "decoder_layer",
    "fuse",
    "fuse_backward",
    "init_params",
    "NormalizerConfig",
    "normalize_indication",
    "AlignmentBatch",
    "TokenPrediction",
    "global_alignment_loss",
    "local_alignment_loss",
    "nll_loss",
    "total_alignment_loss",
    "EvalPair",
    "corpus_bleu",
    "entity_f1",
    "micro_f1",
    "rouge_l",
    "score_corpus",
    "truncate_reference",
    "EmbeddingIndex",
    "RetrievalResult",
    "attach_shc",
    "index_from_vectors",
    "top_k",
    "top_k_naive",
    "FactualEntitySequence",
    "FactualSubsequence",
    "see_extract",
]
