"""
The bitvector layer
===================

Everything above rests on two bitvectors: a plain one with constant-time
rank (word-packed bits plus two levels of counts) and a position-list one
for sparse sets. Both answer rank(i) over the half-open prefix [0, i) and
select(j) for the j-th occurrence, 1-indexed.
"""

import numpy as np

from degenrank import PlainBitvector, SparseBitvector

rng = np.random.default_rng(0)

# a million random bits, about 3% ones
bits = (rng.random(1_000_000) < 0.03).astype(np.uint8)
pb = PlainBitvector(bits)
print("ones:", pb.ones_count)
print("rank(500_000):", pb.rank(500_000, 1))
print("select(1000):", pb.select(1000, 1))

# rank and select invert each other
j = 12_345
p = pb.select(j, 1)
assert pb.rank(p, 1) == j - 1 and pb.bit(p) == 1

# zeros are first-class too: select the 10th zero
print("10th zero at:", pb.select(10, 0))

# the plain layout costs a fixed ~25% on top of the raw bits
print(f"plain: {pb.size_bits() / pb.length:.3f} bits per bit")

# at this density a position list is far smaller, same interface
sparse = SparseBitvector(pb.length, np.flatnonzero(bits))
assert sparse.rank(500_000, 1) == pb.rank(500_000, 1)
assert sparse.select(1000, 1) == pb.select(1000, 1)
print(f"sparse: {sparse.size_bits() / pb.length:.3f} bits per bit")

# batch forms take whole query arrays
qs = rng.integers(0, pb.length, 8)
print("batched ranks:", pb.rank_many(qs, 1))
