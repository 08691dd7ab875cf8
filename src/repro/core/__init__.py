"""ACIC proper: the automatic cloud I/O configurator (paper Sections 2, 4).

Components mirror the architecture of Figure 2:

* :mod:`repro.core.objectives` — optimization goals and the improvement
  metrics (Eqs. 2-3).
* :mod:`repro.core.database` — the shareable training database the
  crowdsourcing service model is built on.
* :mod:`repro.core.training` — PB-guided, incremental training-data
  collection with cost accounting.
* :mod:`repro.core.configurator` — the query engine: train a black-box
  model, join application characteristics with all candidate
  configurations, return the top-k recommendations.
* :mod:`repro.core.candidates` — that join's invariant half: the
  candidate grid encoded once, shared with the serving layer's batch
  engine.
* :mod:`repro.core.walking` — the PB-guided greedy space walk and the
  random-walk control (Section 4.3).
"""

from repro.core.objectives import Goal, improvement, speedup, cost_saving
from repro.core.database import TrainingRecord, TrainingDatabase
from repro.core.training import TrainingPlan, TrainingCollector, DEFAULT_FIXED_VALUES
from repro.core.configurator import Acic, Recommendation
from repro.core.walking import SpaceWalker, WalkResult
from repro.core.quality import QualityReport, check_database

__all__ = [
    "Goal",
    "improvement",
    "speedup",
    "cost_saving",
    "TrainingRecord",
    "TrainingDatabase",
    "TrainingPlan",
    "TrainingCollector",
    "DEFAULT_FIXED_VALUES",
    "Acic",
    "Recommendation",
    "SpaceWalker",
    "QualityReport",
    "check_database",
    "WalkResult",
]
