"""Verification pipeline for 2-primitive elements in quadratic extensions.

Layers, bottom up:

- arith        integer support: factoring, contexts for q = p**k
- ffield       concrete arithmetic in F_q and F_{q**2}
- criteria     sufficient conditions, sieve decompositions, interval scan
- verify       exhaustive translate / line property verification
- charoracle   exact character-sum and sieve checks from one log set per field
- cli          command line front end

The package namespace re-exports the entry points of the README's
library sketch; everything else is imported from its layer module.
"""

from .arith import ctx_for_prime_power
from .criteria import classify_prime_power, scan_interval
from .ffield import build_field
from .verify import verify_line_fast, verify_translate_fast

__version__ = "0.1.0"

__all__ = [
    "ctx_for_prime_power",
    "classify_prime_power",
    "scan_interval",
    "build_field",
    "verify_translate_fast",
    "verify_line_fast",
    "__version__",
]
