"""Exact-arithmetic classification of symmetric-group-stable complete
intersection types and graded characters of the quotient rings, checked by
an independent brute-force polynomial oracle."""

from .partitions import (
    Partition,
    class_size,
    conjugate,
    contains,
    format_partition,
    is_hook,
    n_stat,
    parse_partition,
    partitions_of,
)
from .tableaux import (
    Tableau,
    TableauCombination,
    UnivariatePoly,
    apply_transposition,
    charge,
    kostka_foulkes,
    kostka_foulkes_tilde,
    semistandard_tableaux,
    standard_tableaux,
)
from .characters import (
    ClassFunction,
    decompose,
    inner_product,
    irreducible_character,
    sign_character,
    trivial_character,
)
from .classify import (
    IrredMultiset,
    Rejection,
    RepresentationType,
    admissible_irreducibles,
    classify,
    validate_representation_type,
)
from .graded import (
    GradedCharacter,
    SocleReport,
    coinvariant_character,
    hilbert_series,
    polynomial_ring_character,
    quotient_character,
    scale_by_cyclotomic,
    socle_analysis,
)
from .oracle import (
    DegreeSlice,
    GeneratorSet,
    MultiPoly,
    RegularSequenceReport,
    elementary_symmetric,
    ideal_degree_slice,
    is_regular_sequence,
    parse_generator_file,
    parse_poly,
    quotient_graded_character,
    quotient_trace,
    representative_permutation,
    span_character,
    specht_square_generators,
    standard_rep_lift,
    vandermonde,
)

__version__ = "0.1.0"
