"""Entanglement entropy of two coupled oscillator modes at finite temperature.

The pipeline: map a pair of coupled LC circuits onto dimensionless
oscillator parameters and normal modes (`model`), build the overlap
tensor between the bare and normal-mode product bases (`hermite`,
`transform`), take the spectra of the thermal state in the bare basis
and of its marginals, with the truncation diagnostics (`state`), and
score them with von Neumann and Tsallis entropies (`entropy`).  The
state and entropy stages work on stacks of states, one per temperature.
The `cli` module wires the stages into a deterministic temperature sweep.

Each submodule lists its public names in its ``__all__``; the package
re-exports exactly those.
"""
from . import entropy, hermite, model, state, transform
from .entropy import *  # noqa: F401,F403
from .hermite import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .state import *  # noqa: F401,F403
from .transform import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *entropy.__all__,
    *hermite.__all__,
    *model.__all__,
    *state.__all__,
    *transform.__all__,
    "__version__",
]
