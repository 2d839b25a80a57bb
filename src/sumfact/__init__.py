"""Claim-level factual consistency scoring for summaries.

Pipeline: extract atomic claims from a summary, align each claim against the
source document with an entailment backend (per sentence, with coreference
substitutions, over sentence windows, or whole-document), gate the coarser
stages on the coref-stage score, and average per-claim scores into an
interpretable report. Ships a benchmark harness (threshold tuning, balanced
accuracy) and claim-extraction quality metrics.
"""

from .benchmark import (
    BenchmarkReport,
    Confusion,
    ScoreCache,
    ThresholdResult,
    balanced_accuracy,
    binarize,
    run_benchmark,
    tune_threshold,
)
from .claim_metrics import (
    easiness_f1,
    easiness_precision,
    easiness_recall,
    evaluate_claim_sets,
    rouge1_f1,
)
from .claims import (
    PROMPT_TEMPLATE_ID,
    FileCacheExtractor,
    LocalSeq2SeqExtractor,
    RemoteLlmExtractor,
    build_prompt,
    parse_claims,
)
from .config import RunConfig, load_run_config
from .coref import HeuristicCorefBackend, NoopCorefBackend
from .documents import (
    Claim,
    CorefCluster,
    Document,
    Mention,
    RuleSegmenter,
    Sentence,
    Summary,
    build_claims,
    normalize_claim_text,
    segment,
)
from .errors import (
    BackendError,
    ClaimCacheMiss,
    DegenerateLabels,
    EmptyClaimSet,
    EmptyDocument,
    ExtractorUnavailable,
    InputError,
    MalformedClaimOutput,
    MissingSplit,
    NliBackendError,
    OversizedPremise,
    SumfactError,
)
from .nli import (
    EntailmentBackend,
    LocalEntailmentBackend,
    MockEntailmentBackend,
    RemoteEntailmentBackend,
)
from .scoring import (
    AlignedSpan,
    ClaimVerdict,
    FactualityReport,
    Scorer,
    ScoringParams,
    Substitution,
    coref_variants,
)

__version__ = "0.1.0"
