"""Elimination kernels: fraction-free Bareiss echelon and rank modulo a prime.

Both are pure Python (``pykernels``).  Elimination is under 1% of run time,
so no compiled backend is kept; ``BACKEND`` names the one implementation.
"""

from __future__ import annotations

from .pykernels import bareiss_echelon, mod_rank

BACKEND = "python"
