"""
Subset rank and select, step by step
====================================

A degenerate string is a sequence of symbol sets. This walkthrough builds
the indicator-bitvector reduction over a four-set example and traces both
query kinds through their intermediate hops.
"""

import numpy as np

from degenrank import DegenerateString, build_reduction

A, C, G, T = 0, 1, 2, 3
NAMES = "ACGT"

# X = {A,C,G} {A,T} {C} {T,G}: four sets, eight members in total
x = DegenerateString.from_sets(4, [[A, C, G], [A, T], [C], [T, G]])
print("instance: n =", x.n, " N =", x.N, " sigma =", x.sigma)

# the reduction concatenates set contents into one plain string S and marks
# set starts in a bitvector R of length N + 1 (one extra 1 closes the end)
red = build_reduction(x, "reduction-i")
S = [red._S.access(p) for p in range(x.N)]
print("S =", "".join(NAMES[s] for s in S))
print("R =", "".join(str(b) for b in red._R.bits()))

# subset-rank(2, A): how many of the first two sets contain A?
# hop 1: find where set 2 starts in S -- the 3rd one of R
start = red._R.select(3, 1)
print("start of set 2 in S:", start)
# hop 2: ordinary string rank on S up to that point
print("A's among the first", start, "symbols of S:", red._S.rank(start, A))
print("subset_rank(2, A) =", red.subset_rank(2, A))

# subset-select(2, G): which set holds the 2nd G?
# hop 1: locate the 2nd G in S; hop 2: count set starts up to it
p = red._S.select(2, G)
print("2nd G sits at S position", p)
print("sets started up to there:", red._R.rank(p + 1, 1))
print("subset_select(2, G) =", red.subset_select(2, G), "(0-indexed set)")

# the set contents come back out of the structure unchanged
assert red.decompose() == x

# batch queries run vectorized over numpy arrays
i = np.arange(x.n + 1)
print("rank curve for T:", red.subset_rank_many(i, np.full(i.size, T)))
