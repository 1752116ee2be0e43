"""Certified numerics for the averaging operator on weighted summable
sequences.

The operator sends a sequence to its running arithmetic means.  On a
weighted little-ell-one space its behavior is controlled by tail sums of
the weight; this package turns those tail conditions into three-valued
certified verdicts (Holds, Fails, Inconclusive), brackets the boundary
exponents, classifies complex points against the spectrum, builds exact
finite sections, and traces iterate dynamics.

Modules:
  weights   weight catalog, grammar, custom tables, analytic metadata
  criteria  certified sup/limit criteria, boundary-exponent brackets
  sections  exact finite sections: operator, resolvent, eigenvectors
  spectral  point classification and region scans over the complex plane
  ergodic   iterate traces, running averages, averaging identities
  cli       reproducible command-line reports
"""

from .weights import (
    WeightError,
    WeightSpec,
    build_compact_minorant,
    build_failing_minorant,
    catalog_families,
    catalog_weight,
    custom_weight,
    load_weight_table,
    parse_weight,
)
from .criteria import (
    Bracket,
    CriterionReport,
    Verdict,
    Witness,
    compactness_criterion,
    continuity_and_compactness,
    continuity_criterion,
    ratio_limsup_test,
    rw_membership,
    rw_memberships,
    s1_estimate,
    scan_reports,
    sw1_membership,
    t0_estimate,
    uw_quantity,
)
from .sections import (
    FiniteSection,
    SectionError,
    apply_power,
    cesaro_section,
    distance_to_limit_set,
    dual_apply,
    dual_eigenvector,
    eigenvector,
    kernel_power_entry,
    resolvent_section,
    shifted_inverse_section,
    weighted_norm,
)
from .spectral import (
    GridScan,
    GridSpec,
    SpectralClassification,
    SpectralContext,
    SpectralError,
    build_context,
    classify_point,
    point_spectrum,
    region_scan,
    resolvent_condition,
    scan_to_csv,
)
from .ergodic import (
    BudgetError,
    ErgodicError,
    IterateTrace,
    cesaro_averages_trace,
    ergodic_identity_check,
    iterate_trace,
    kernel_bound_am,
    range_identity_check,
    trace_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # weights
    "WeightError", "WeightSpec", "build_compact_minorant",
    "build_failing_minorant", "catalog_families", "catalog_weight",
    "custom_weight", "load_weight_table", "parse_weight",
    # criteria
    "Bracket", "CriterionReport", "Verdict", "Witness",
    "compactness_criterion", "continuity_and_compactness",
    "continuity_criterion", "ratio_limsup_test", "rw_membership",
    "rw_memberships", "s1_estimate", "scan_reports", "sw1_membership",
    "t0_estimate", "uw_quantity",
    # sections
    "FiniteSection", "SectionError", "apply_power", "cesaro_section",
    "distance_to_limit_set", "dual_apply", "dual_eigenvector", "eigenvector",
    "kernel_power_entry", "resolvent_section", "shifted_inverse_section",
    "weighted_norm",
    # spectral
    "GridScan", "GridSpec", "SpectralClassification", "SpectralContext",
    "SpectralError", "build_context", "classify_point", "point_spectrum",
    "region_scan", "resolvent_condition", "scan_to_csv",
    # ergodic
    "BudgetError", "ErgodicError", "IterateTrace", "cesaro_averages_trace",
    "ergodic_identity_check", "iterate_trace", "kernel_bound_am",
    "range_identity_check", "trace_to_csv",
]
