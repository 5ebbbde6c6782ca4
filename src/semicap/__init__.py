"""semicap — capacity and entropy bounds for semiconstrained shift spaces.

A semiconstrained system keeps the words whose empirical pattern statistics
fall inside a prescribed convex set, rather than forbidding patterns
outright.  This package provides exact admissible-word counting, capacity
computation for one-dimensional systems, product-measure entropy lower
bounds that transfer to higher dimensions, and Monte-Carlo validation
utilities, together with a small CLI (`semicap`).
"""
from semicap.lattice_core import (
    Alphabet,
    PatternDistribution,
    Shape,
    SiteProductMeasure,
    SizeGuardError,
    ValidationError,
    Word,
    averaged_marginal,
    empirical_counts,
    empirical_distribution,
    entropy,
    marginal,
    product_entropy,
    tv_distance,
)
from semicap.scs_model import (
    AxialSystem,
    ConstraintSet,
    EmptySystemError,
    LinearConstraint,
    axial_product,
    count_admissible,
    count_admissible_noncyclic,
    count_exhaustive,
    find_admissible_word,
    fully_constrained,
    is_admissible,
    rll_constraint,
    tv_distance_to_set,
)
from semicap.capacity import (
    CapacityResult,
    CountRow,
    DimensionBound,
    capacity_1d,
    elimeysch_lower_bound,
    internal_capacity_sequence,
    transfer_matrix_capacity,
)
from semicap.indentropy import (
    CurvePoint,
    HindComResult,
    HindResult,
    IndependenceReport,
    MultiChoiceWord,
    PeriodicProductMeasure,
    UncertifiedError,
    axial_lift,
    curve_optimum_01p,
    fillings_count,
    hind_bound_report,
    hind_com_fixed_n,
    hind_fixed_n,
)
from semicap.validation import (
    ConcentrationReport,
    CyclicReport,
    HasseReport,
    SplitMix64,
    concentration_check,
    cyclic_vs_noncyclic,
    hasse_report,
    sample_word,
)

__version__ = "0.1.0"
