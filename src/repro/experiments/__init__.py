"""``repro.experiments`` — declarative, parallel, resumable experiment grids.

The paper's evidence is a grid of experiments: utility tables and
epsilon/dimension sweeps over six synthesizers and several datasets.  This
package turns each table/figure into data instead of code:

- :class:`ExperimentSpec` / :class:`TrialSpec` (:mod:`~repro.experiments.spec`)
  — a declarative grid (model × dataset × epsilon × seed, plus extra axes)
  expanded into deterministic trial lists;
- :class:`Runner` (:mod:`~repro.experiments.runner`) — serial or
  process-pool execution with deterministic per-trial seeding and a
  content-addressed cache, so interrupted sweeps resume where they stopped;
- :class:`ResultStore` / :func:`aggregate_records`
  (:mod:`~repro.experiments.store`) — canonical JSONL records and
  mean ± std aggregation over replicate seeds;
- :data:`EXPERIMENTS` (:mod:`~repro.experiments.presets`) — named specs for
  every paper table/figure plus a miniaturized ``smoke`` grid.

A paper spec is the one definition of its experiment.  The
``repro.evaluation.run_table*/run_fig*`` functions take no arguments: each
runs its spec and shapes the rows for printing.  ``python -m repro bench
--spec NAME`` is the CLI front end; any other size, seed or grid is an
:class:`ExperimentSpec` run by :class:`Runner`.
"""

from repro.experiments.presets import EXPERIMENTS, experiment_names, get_experiment
from repro.experiments.runner import (
    EXPERIMENT_FORMAT_VERSION,
    Runner,
    RunReport,
    TrialCache,
    default_code_version,
)
from repro.experiments.spec import ExperimentSpec, TrialSpec, expand_specs
from repro.experiments.store import ResultStore, aggregate_records, format_aggregate
from repro.experiments.trials import TRIAL_KINDS, execute_trial

__all__ = [
    "ExperimentSpec",
    "TrialSpec",
    "expand_specs",
    "Runner",
    "RunReport",
    "TrialCache",
    "ResultStore",
    "aggregate_records",
    "format_aggregate",
    "EXPERIMENTS",
    "experiment_names",
    "get_experiment",
    "EXPERIMENT_FORMAT_VERSION",
    "default_code_version",
    "TRIAL_KINDS",
    "execute_trial",
]
