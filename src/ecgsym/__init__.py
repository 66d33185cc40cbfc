"""Symbol encodings of ECG segments and class separability in the
entropy-complexity plane: compensated band-pass filtering, four
signal-to-symbol schemes, entropy/complexity feature extraction, and a
centroid-overlap metric for ranking encoders."""

from .distribution import (
    DistributionReport,
    LabeledFeatureSet,
    centroid,
    evaluate_distribution,
    report_from_counts,
)
from .encoding import EncoderSpec, SymbolSequence, encode
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    default_encoder_grid,
    make_clusters,
    pairwise_table,
    run_experiment,
)
from .features import (
    FeatureVector,
    epsilon_n,
    extract_features,
    lz_complexity,
    lz_normalized,
    min_valid_length,
    shannon_entropy,
    shannon_entropy_normalized,
)
from .filtering import (
    FilterCoefficients,
    PaddingPlan,
    Signal,
    alignment_delay,
    apply_filter,
    compensation_plan,
    filter_compensated,
    frequency_response,
    group_delay,
    make_bandpass,
    make_highpass,
    make_lowpass,
)
from .records import (
    LabeledSegments,
    LabelSpan,
    load_labeled_segments,
    pack_format212,
    parse_format212,
    read_binary_record,
    read_label_sidecar,
    read_text_signal,
)

__version__ = "0.1.0"
