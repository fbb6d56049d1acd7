"""Row producers for every table and figure of the paper.

``config`` holds the paper's constants (Table 1); ``runner`` executes
sampling / reconstruction / pruned-tree trials and returns row
dictionaries; ``tables`` and ``figures`` assemble the paper's specific
artefacts; and ``formatting`` renders rows as aligned ASCII tables.

The ``paper`` scenarios of the benchmark harness (:mod:`repro.bench`,
``repro bench``) run these producers at a quick and at the paper's full
scale and check the claims each artefact backs.
"""

from repro.experiments.figures import (
    hash_family_rows,
    pruned_namespace_rows,
    reconstruction_ops_rows,
    reconstruction_time_rows,
    sampling_ops_rows,
    sampling_time_rows,
)
from repro.experiments.formatting import format_rows
from repro.experiments.runner import (
    ReconstructionTrial,
    SamplingTrial,
    TreeCache,
    make_query_set,
    reconstruction_trial,
    sampling_trial,
)
from repro.experiments.tables import (
    chi_squared_rows,
    creation_time_rows,
    measured_accuracy_rows,
    parameter_rows,
)

__all__ = [
    "ReconstructionTrial",
    "SamplingTrial",
    "TreeCache",
    "chi_squared_rows",
    "creation_time_rows",
    "format_rows",
    "hash_family_rows",
    "make_query_set",
    "measured_accuracy_rows",
    "parameter_rows",
    "pruned_namespace_rows",
    "reconstruction_ops_rows",
    "reconstruction_time_rows",
    "reconstruction_trial",
    "sampling_ops_rows",
    "sampling_time_rows",
]
