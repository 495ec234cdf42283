"""Information-theoretic space bounds and measured-size audits.

The worst-case argument: split a degenerate string of size N into groups of
k = floor(log2 N) members and give each group its own set of k symbols out
of sigma. There are C(sigma, k)^(N/k) such strings, so any encoding needs

    exact_bits   = (N // k) * log2(C(sigma, k))

bits. Relaxing C(sigma, k) >= ((sigma - k)/k)^k gives

    relaxed_bits = N * log2((sigma - k)/k)

which approaches the headline N*log2(sigma) once sigma grows faster than
log N; with small sigma the relaxed form is vacuous (it can go negative)
and is flagged as such. Floors keep every value a valid lower bound when
log2 N is not integral.

The binomial is evaluated exactly over big integers; float conversion of
log2 keeps about 15 significant digits, far beyond the 1e-9 relative
accuracy the report promises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._bits import index_arg
from .degenerate import DegenStats


@dataclass
class LowerBoundReport:
    N: int
    sigma: int
    group_bits: int              # k = floor(log2 N)
    exact_bits: float            # (N // k) * log2 C(sigma, k)
    relaxed_bits: float          # N * log2((sigma - k)/k)
    headline_bits: float         # N * log2 sigma
    relaxed_vacuous: bool        # sigma <= 2k: relaxed form proves nothing

    def lines(self):
        out = [
            f"N {self.N}",
            f"sigma {self.sigma}",
            f"group-bits {self.group_bits}",
            f"exact-bits {self.exact_bits:.6f}",
            f"relaxed-bits {self.relaxed_bits:.6f}",
            f"headline-bits {self.headline_bits:.6f}",
            f"exact/headline {self.exact_bits / self.headline_bits:.6f}",
        ]
        if self.relaxed_vacuous:
            out.append("note relaxed bound vacuous for sigma <= 2*log2(N)")
        return out


def lower_bound(N: int, sigma: int) -> LowerBoundReport:
    """Worst-case bits needed by any subset-rank structure on (N, sigma)."""
    N = index_arg(N, 2, math.inf, "N", ValueError)
    sigma = index_arg(sigma, 2, math.inf, "sigma", ValueError)
    k = N.bit_length() - 1  # floor(log2 N)
    if sigma < k:
        raise ValueError(f"sigma must be at least log2(N) = {k}, got {sigma}")
    exact = (N // k) * math.log2(math.comb(sigma, k))
    relaxed = N * math.log2((sigma - k) / k) if sigma > k else float("-inf")
    return LowerBoundReport(
        N=N,
        sigma=sigma,
        group_bits=k,
        exact_bits=exact,
        relaxed_bits=relaxed,
        headline_bits=N * math.log2(sigma),
        relaxed_vacuous=sigma <= 2 * k,
    )


@dataclass
class SpaceAudit:
    measured_bits: int
    bits_per_symbol: float       # measured / N
    bits_per_set: float          # measured / n
    ratio_to_headline: float     # measured / (N log2 sigma)
    ratio_to_entropy: float      # measured / (n * empirical set entropy); inf if H=0

    def lines(self):
        return [
            f"measured-bits {self.measured_bits}",
            f"bits-per-symbol {self.bits_per_symbol:.4f}",
            f"bits-per-set {self.bits_per_set:.4f}",
            f"ratio-to-headline {self.ratio_to_headline:.4f}",
            f"ratio-to-entropy {self.ratio_to_entropy:.4f}",
        ]


def space_audit(measured_bits: int, st: DegenStats) -> SpaceAudit:
    """Relate a measured structure size to the instance's information content."""
    if st.N <= 0:
        raise ValueError("space audit needs N > 0")
    entropy_total = st.n * st.set_entropy_bits
    return SpaceAudit(
        measured_bits=int(measured_bits),
        bits_per_symbol=measured_bits / st.N,
        bits_per_set=measured_bits / st.n,
        ratio_to_headline=measured_bits / (st.N * math.log2(st.sigma)) if st.sigma > 1
        else float("inf"),
        ratio_to_entropy=measured_bits / entropy_total if entropy_total > 0
        else float("inf"),
    )
