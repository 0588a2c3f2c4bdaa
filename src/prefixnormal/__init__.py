"""Generate, analyze, and index binary words with respect to prefix normality."""

from types import ModuleType as _ModuleType

from .errors import (
    IndexFormatError,
    InvalidInputError,
    NoBoundError,
    RangeError,
    ResourceLimitError,
    UnsupportedParameterError,
)
from .word_core import (
    FiniteWord,
    LexOrder,
    ParikhVector,
    PrefixProfile,
    Rational,
    complement,
    compute_profile,
    lex_compare,
    parikh,
    prefix_density,
    prefix_weight,
    reverse,
)
from .generators import (
    FIBONACCI_MORPHISM,
    FIBONACCI_SLOPE,
    MATERIALIZE_CAP,
    SQRT2_SLOPE,
    THUE_MORSE_MORPHISM,
    DensityStage,
    MorphismSpec,
    QuadraticIrrational,
    SlopeSpec,
    WordStream,
    aperiodic_density_stream,
    champernowne,
    champernowne_stream,
    characteristic_stream,
    characteristic_word,
    density_stages,
    fibonacci_stream,
    flipext,
    flipext_stream,
    geometric_density_sequence,
    lazy_alpha_flipext,
    lazy_alpha_flipext_stream,
    mechanical_lower,
    mechanical_stream,
    mechanical_upper,
    morphic_fixpoint,
    morphic_stream,
    paperfolding,
    paperfolding_stream,
    thue_morse_stream,
)
from .analysis import (
    MinDensityReport,
    PNViolation,
    UltimatelyPeriodicWord,
    abelian_complexity,
    check_stream_prefix_normal,
    empirical_min_prepend,
    find_violation_0,
    find_violation_1,
    format_parikh_set,
    is_c_balanced,
    is_prefix_normal_0,
    is_prefix_normal_1,
    is_prenecklace_prefix,
    max_word,
    min_density,
    min_density_up,
    min_word,
    parikh_set,
    pnf0,
    pnf1,
    prepend_ones_bound,
    reliable_pnf_window,
)
from .jumbled_index import JumbledIndex, build_index, deserialize, serialize

__version__ = "0.1.0"

__all__ = [n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], _ModuleType)]
