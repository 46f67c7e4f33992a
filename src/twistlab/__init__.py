"""Simplicial (co)homology with local coefficients on finite Delta-complexes."""

from .complexes import (
    DeltaComplex,
    ManifoldReport,
    SubcomplexPair,
    ValidationReport,
    euler_characteristic,
    parse_complex,
    parse_subcomplex,
    pseudomanifold_check,
    subcomplex,
    validate_complex,
)
from .errors import (
    CapacityError,
    ParseError,
    RingMismatchError,
    TwistlabError,
    ValidationError,
)
from .homology import (
    ChainMapData,
    ExactnessReport,
    FreeComplex,
    ModulePresentation,
    exactness_check,
    induced_map_on_homology,
    is_quasi_iso,
    mapping_cone,
)
from .maps import SimplicialMap, parse_map
from .matrices import Matrix, kernel_basis, smith_diagonal, smith_normal_form, solve
from .rings import Q, Z, prime_field, ring_from_token
from .systems import (
    Gauge,
    LocalSystem,
    cast_system,
    constant_system,
    gauge_transform,
    is_trivializable,
    orientation_system,
    parse_system,
    pullback_system,
    tensor_systems,
)
from .twisted import (
    LesFragment,
    LesReport,
    TwistedComplex,
    assemble_les,
    cellular_boundary_via_triple,
    chain_complex,
    cochain_complex,
    compare_les,
    induced_chain_map,
    relative_complex,
)
from .duality import (
    DualityReport,
    FundamentalClass,
    cap_product,
    cap_with_fundamental_class,
    duality_report,
    fundamental_class,
)

__version__ = "0.1.0"
