"""Finite-automata algebra and complexity-bound verification for
suffix-convex language classes."""

__version__ = "0.1.0"

from .automata import (
    Dfa,
    accepts,
    apply_word,
    complexity,
    determinize,
    minimize,
    occurring_letters,
)
from .classifiers import (
    ClassReport,
    classify,
    suffix_language,
)
from .errors import DocumentError, InputError, LimitError, NotationError
from .measures import (
    SemigroupSummary,
    atom_complexities,
    atom_complexity,
    atoms,
    quotient_complexities,
    syntactic_semigroup_size,
    transition_semigroup,
)
from .operations import (
    apply_dialect,
    boolean_restricted,
    boolean_unrestricted,
    complement,
    concat,
    equivalent,
    parse_letter_map,
    reverse,
    star,
)
from .serialization import export_dot, read_dfa, write_dfa
from .transformations import (
    Transformation,
    compose_many,
    cycle,
    format_notation,
    parse_notation,
    send_to,
)
from .verify import ComplexityReport, run_verification
from .witnesses import FAMILIES, atom_formula, expected, make_dialect, make_witness
