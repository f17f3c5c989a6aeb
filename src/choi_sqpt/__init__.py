"""Partial standard quantum process tomography in the matrix-unit basis.

Simulates the reconstruction of arbitrary individual elements of a
channel's process (chi) matrix from one measurement setting for diagonal
elements and at most sixteen for off-diagonal ones, independent of the
system dimension, and checks every reconstruction against a reference chi
computed directly from the channel's Kraus operators.
"""

from .basis import *
from .channels import *
from .measure import *
from .tomo import *

__version__ = "0.1.0"
