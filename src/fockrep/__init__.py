"""fockrep: exact Lie-algebra, superalgebra and quantum-algebra
representations on Fock spaces, with machine verification of every
catalogued claim.

Everything is computed over the exact field Q(sqrt2), never with a
tolerance; verify says what each passing check rests on.
"""

from .catalogue import build, list_catalogue
from .scalars import Rational, Scalar, rat
from .verify import full_verify

__all__ = ["build", "list_catalogue", "full_verify", "Scalar", "Rational", "rat"]

__version__ = "0.1.0"
