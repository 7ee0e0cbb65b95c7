"""weldlab: Weil-Petersson potentials of conformal welding pairs.

Construct normalized welding pairs (interior map on the disk, exterior map
on its complement sharing one analytic curve), build truncated Grunsky-type
operator blocks in orthonormal Bergman bases, evaluate the Fredholm
determinant potential, check it against the universal Liouville action, and
verify the genus-2 Fuchsian basepoint structure.
"""

from .errors import WeldLabError, InvalidInput, NumericalFailure

__version__ = "0.1.0"

__all__ = [
    "WeldLabError",
    "InvalidInput",
    "NumericalFailure",
    "__version__",
]
