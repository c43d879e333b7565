"""hesslab: a chart-based laboratory for Hessian-type geometric structures.

Builds and verifies Hessian, statistical, self-similar, radiant, and locally
conformally Hessian structures on flat affine charts, plus characteristic
functions of convex cones, from declarative scene files or directly through
the library API.
"""

__version__ = "0.1.0"

from .geomcore import (
    Chart,
    CheckReport,
    ConnectionField,
    MetricField,
    OneFormField,
    SamplePlan,
    ScalarField,
    VectorFieldT,
    flat_connection,
    levi_civita,
)
from .hesstat import (
    ConeStructure,
    StatisticalStructure,
    build_cone_structure,
    check_hessian_structure,
    check_potential_field,
    check_radiant,
    check_self_similar,
    check_statistical,
    dual_connection,
    estimate_constant_curvature,
    level_set_statistical,
    restrict_cone,
)
from .cones import (
    LorentzCone,
    OrthantCone,
    PolyhedralCone,
    ProductCone,
    characteristic_function,
    cone_from_spec,
    cone_lch_structure,
    log_psi_metric,
    surface_statistical_structure,
)
from .lch import (
    LCHStructure,
    LeeConstants,
    MappingTorus,
    build_mapping_torus,
    check_lch,
    check_monodromy,
    check_symmetry,
    koszul_check,
    lee_constants,
    lee_identity_residual,
    lee_perturbation_probe,
    metric_from_lee,
    perturbed_structure,
)
from .scenes import (
    Report,
    Scene,
    SceneError,
    list_examples,
    load_example,
    load_scene,
    run_example,
    run_suite,
)
