"""
How small can the structures get?
=================================

Any structure answering subset-rank must store close to log2(sigma choose k)
bits per group of k symbols. This demo computes that lower bound, then
measures the built structures against it on a genomic-like instance
(four-letter alphabet, mostly singleton sets, a few empties).
"""

from degenrank import (
    build_dsd,
    build_reduction,
    generate,
    lower_bound,
    space_audit,
    stats,
)

# the bound alone: 65536 symbols over a 1024-letter alphabet
rep = lower_bound(1 << 16, 1024)
for line in rep.lines():
    print(line)
print()

# a million-set genomic-like instance
x = generate(seed=7, n=1_000_000, sigma=4, profile="genomic-like")
meta = stats(x)
for line in meta.lines():
    print(line)
print()

# the same instance under four structures; the decomposition pays for its
# overflow rows, one array of set positions, which dominates at this density
candidates = [
    ("sentinel + wavelet      ", build_reduction(x, "reduction-ii", "wavelet")),
    ("empties + wavelet       ", build_reduction(x, "reduction-iii", "wavelet")),
    ("empties + bit planes    ", build_reduction(x, "reduction-iii", "bitplane")),
    ("dense-sparse + bit planes", build_dsd(x, "bitplane", block_words=32)),
]
for name, st in candidates:
    audit = space_audit(st.size_bits(), meta)
    print(f"{name} {audit.bits_per_symbol:7.3f} bits/symbol   "
          f"{audit.ratio_to_headline:5.2f}x the N*log2(sigma) headline")

# where the bits actually live, for the last candidate
print()
for part, bits in candidates[-1][1].size_breakdown().items():
    print(f"  {part:12s} {bits / x.N:7.3f} bits/symbol")
