"""flowsep: volumetric feature-separation analysis for time-dependent
multiphase flow on rectilinear grids.

Given a time series of fraction and velocity fields, the pipeline seeds
particles in a feature at an initial time, advects them with phase-consistent
correction, and reports how the feature's volume partitions among the features
it separates into: contribution tables, closed boundary meshes per final
feature, and time-stamped open separation surfaces.
"""

from .advect import (
    AdvectionConfig,
    ParticleSet,
    advance_interval,
    phase_violations,
    seed_particles,
)
from .dataset_io import (
    DatasetManifest,
    SyntheticScenario,
    generate_scenario,
    load_dataset,
    read_timestep,
    write_dataset,
    write_timestep,
)
from .extract import (
    TriangleMesh,
    export_meshes,
    extract_boundary,
    extract_separation_surface,
    is_watertight,
    smooth_mesh,
)
from .grid import (
    CellField,
    RectilinearGrid,
    TimeSeriesDataset,
    TimeStep,
    gradient_f,
    locate_cell,
    sample_velocity,
    uniform_grid,
)
from .labeling import LabelField, PartitionLayout, label_features, label_features_partitioned
from .plic import PlicPatch, is_liquid, project_to_patch, reconstruct_patch, truncated_volume
from .runtime import (
    PipelineConfig,
    RunReport,
    RunResult,
    parse_config,
    partition_exchange,
    run_pipeline,
)
from .segment import (
    ContributionTable,
    SeedLabeling,
    SplitEvent,
    assign_labels,
    contribution_table,
    detect_splits,
)

__version__ = "0.1.0"

__all__ = [
    "AdvectionConfig",
    "CellField",
    "ContributionTable",
    "DatasetManifest",
    "LabelField",
    "ParticleSet",
    "PartitionLayout",
    "PipelineConfig",
    "PlicPatch",
    "RectilinearGrid",
    "RunReport",
    "RunResult",
    "SeedLabeling",
    "SplitEvent",
    "SyntheticScenario",
    "TimeSeriesDataset",
    "TimeStep",
    "TriangleMesh",
    "advance_interval",
    "assign_labels",
    "contribution_table",
    "detect_splits",
    "export_meshes",
    "extract_boundary",
    "extract_separation_surface",
    "generate_scenario",
    "gradient_f",
    "is_liquid",
    "is_watertight",
    "label_features",
    "label_features_partitioned",
    "load_dataset",
    "locate_cell",
    "parse_config",
    "partition_exchange",
    "phase_violations",
    "project_to_patch",
    "read_timestep",
    "reconstruct_patch",
    "run_pipeline",
    "sample_velocity",
    "seed_particles",
    "smooth_mesh",
    "truncated_volume",
    "uniform_grid",
    "write_dataset",
    "write_timestep",
]
