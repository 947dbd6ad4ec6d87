"""Link-engineering toolkit for intermodal free-space/fiber quantum communication.

Turbulence statistics, Zernike mode variances, single-mode-fiber coupling,
end-to-end link budgets, QKD rate accounting and Fried-parameter estimation
from wavefront-sensor logs, plus a synthetic data generator and a CLI.
"""

# Each module's __all__ is the one list of its public names.
from .atmosphere import *
from .coupling import *
from .estimation import *
from .linkbudget import *
from .qkd import *
from .synth import *
from .units import *
from .zernike import *

__version__ = "0.1.0"
