"""Gain graphs with exactly two distinct eigenvalues.

Construction, certification, switching equivalence, line-system
conversion, and randomized search over complex unit gain graphs.
"""

from __future__ import annotations

from .errors import GainForgeError
from .gains import (
    Gain,
    GainGraph,
    SwitchingWitness,
    apply_witness,
    build,
    converse,
    cycle_gain,
    from_matrix,
    is_connected,
    max_coclique,
    normalize_spanning_tree,
    relabel,
    structure_stats,
    switch,
    switching_equivalent,
    switching_isomorphic,
)
from .spectral import (
    Spectrum,
    TwoEvCertificate,
    certify_two_ev,
    char_poly_elementary,
    char_poly_from_eigenvalues,
    eigenvalues,
    integer_a_checks,
    predicted_thetas,
)
from .constructions import (
    CSV_HEADER,
    CatalogEntry,
    WeighingMatrix,
    catalog,
    catalog_entry,
    catalog_verify_all,
    cm_weighing,
    complete,
    d8_star,
    donut,
    double,
    fixed_catalog,
    ig,
    k222_gamma,
    k_star_pqr,
    make_weighing,
    named_weighing,
    renes,
    toral,
)
from .lines import (
    AngleProfile,
    BoundsReport,
    DismantleResult,
    LineSystem,
    TightnessReport,
    angle_profile,
    bounds_check,
    dismantle,
    find_basis_partition,
    gain_to_lines,
    geometry_lines,
    lines_to_gain,
    tightness_check,
)
from .search import (
    SearchConfig,
    SearchResult,
    anneal,
    objective_cospectral,
    objective_two_ev,
    refine_gains,
    run_search,
    snap_gains,
)
from .fileio import (
    parse_gaingraph,
    parse_lines,
    serialize_gaingraph,
    serialize_lines,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
