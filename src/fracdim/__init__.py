"""Box-dimension toolkit for Brownian paths with cadlag drift.

Generate noisy paths on arbitrary time grids, count boxes / packings /
sausage volumes / oscillations across dyadic scales, turn scale series into
dimension estimates, and replay the headline scaling claims as seeded
experiments.
"""

from .constructions import (
    LacunarySchedule,
    holder_cover_bound,
    inverse_power_grid,
    lacunary_steps,
    lacunary_tail_bound,
    psi_graph_count_formula,
    staircase_steps,
    theoretical_image_bound,
)
from .errors import DomainError
from .experiments import (
    CLAIM_IDS,
    ExperimentConfig,
    ExperimentReport,
    run_claim,
    run_claims,
    run_experiment,
)
from .kernels import active_backend
from .metrics import (
    DimensionEstimate,
    PointCloud,
    ScaleSeries,
    box_count,
    estimate_dimension,
    good_point_thinning,
    graph_box_count_oscillation,
    graph_cloud,
    image_cloud,
    packing_number,
    sausage_volume,
    scale_sweep,
    step_graph_box_count,
)
from .paths import (
    DriftSpec,
    SamplePath,
    TimeGrid,
    apply_drift,
    eval_drift,
    generate_bm,
    levy_construct,
    read_path_csv,
    write_path_csv,
)
from .rng import stream

__version__ = "0.1.0"

__all__ = [
    "CLAIM_IDS",
    "DimensionEstimate",
    "DomainError",
    "DriftSpec",
    "ExperimentConfig",
    "ExperimentReport",
    "LacunarySchedule",
    "PointCloud",
    "SamplePath",
    "ScaleSeries",
    "TimeGrid",
    "active_backend",
    "apply_drift",
    "box_count",
    "estimate_dimension",
    "eval_drift",
    "generate_bm",
    "good_point_thinning",
    "graph_box_count_oscillation",
    "graph_cloud",
    "holder_cover_bound",
    "image_cloud",
    "inverse_power_grid",
    "lacunary_steps",
    "lacunary_tail_bound",
    "levy_construct",
    "packing_number",
    "psi_graph_count_formula",
    "read_path_csv",
    "run_claim",
    "run_claims",
    "run_experiment",
    "sausage_volume",
    "scale_sweep",
    "staircase_steps",
    "step_graph_box_count",
    "stream",
    "theoretical_image_bound",
    "write_path_csv",
]
