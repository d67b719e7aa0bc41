"""Static phase re-assignment planning for three-wire LV feeders."""

from .errors import (CapExceededError, ConvergenceError, InfeasibleProgramError,
                     InputParseError, MetricError, PhasebalError, ValidationError)
from .metrics import ObjectiveSpec
from .network import (Branch, ConstraintConfig, Feeder, LoadSeries,
                      PhaseAssignment, User, downstream_users, load_feeder,
                      load_profiles, original_assignment, switch_count)
from .problem import Problem, evaluate, evaluate_exact, evaluate_ld3f

__version__ = "0.1.0"
