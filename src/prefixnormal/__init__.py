"""Generate, analyze, and index binary words with respect to prefix normality.

Importing the package loads none of its modules: each public name is looked
up in its defining module on first use (PEP 562), so a program pays only for
the layers it touches.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: The defining module of every public name.
_EXPORTS = {
    "errors": (
        "IndexFormatError InvalidInputError NoBoundError RangeError ResourceLimitError UnsupportedParameterError"
    ),
    "word_core": (
        "FiniteWord LexOrder ParikhVector PrefixProfile Rational complement compute_profile lex_compare parikh"
        " prefix_density prefix_weight reverse"
    ),
    "generators": (
        "FIBONACCI_MORPHISM FIBONACCI_SLOPE MATERIALIZE_CAP SQRT2_SLOPE THUE_MORSE_MORPHISM DensityStage MorphismSpec"
        " QuadraticIrrational SlopeSpec WordStream aperiodic_density_stream champernowne champernowne_stream"
        " characteristic_stream characteristic_word density_stages fibonacci_stream flipext flipext_stream"
        " geometric_density_sequence lazy_alpha_flipext lazy_alpha_flipext_stream mechanical_lower mechanical_stream"
        " mechanical_upper morphic_fixpoint morphic_stream paperfolding paperfolding_stream thue_morse_stream"
    ),
    "analysis": (
        "MinDensityReport PNViolation UltimatelyPeriodicWord abelian_complexity check_stream_prefix_normal"
        " empirical_min_prepend find_violation_0 find_violation_1 format_parikh_set is_c_balanced is_prefix_normal_0"
        " is_prefix_normal_1 is_prenecklace_prefix max_word min_density min_density_up min_word parikh_set pnf0 pnf1"
        " prepend_ones_bound reliable_pnf_window"
    ),
    "jumbled_index": "JumbledIndex build_index deserialize serialize",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
