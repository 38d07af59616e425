"""The Sierpinski matrix: a tight (n/2)·log2(n) bound and a complement
that is much easier.

The divide-and-conquer circuit meets the closed-form lower bound exactly
(tight for cancellation-free and OR circuits), exhaustive search confirms
optimality at small sizes even when cancellation is allowed, and the
complement is computable by a linear-size OR circuit through the
set-intersection factorization, giving a measured Θ(log n) gap.
"""

import lincirc as lc

print("n      gates  (n/2)log2(n)   CF   verified")
n = 2
while n <= 1024:
    res = lc.sierpinski_circuit(n)
    print(f"{n:<6} {res.cost:<6} {lc.sierpinski_lb(n):<13} "
          f"{res.cancellation_free!s:<5} {lc.verify(res.circuit, lc.gen_sierpinski(n))}")
    n *= 2

print("\nexhaustive optima (cancellation allowed):")
for n in (2, 4, 8):  # S_8 takes a few seconds
    out = lc.optimal_size(lc.gen_sierpinski(n), "XOR", limit=12)
    print(f"  S_{n}: XOR optimum {out.optimal_size} = closed form {lc.sierpinski_lb(n)}")

# Restricting the first half of the inputs to zero eliminates exactly the
# lower recursion plus the combining gates, leaving a circuit for S_{n/2}.
n = 16
circ = lc.sierpinski_circuit(n).circuit
res = lc.restrict_zero(circ, set(range(n // 2)))
print(f"\nrestricting x1..x{n//2} of the S_{n} circuit eliminates "
      f"{len(res.eliminated)} gates, leaving {len(res.reduced.gates)} "
      f"= (n/4)log2(n/2) = {lc.sierpinski_lb(n // 2)}")

# The complement costs at most 2n-1 extra XOR gates (one parity chain,
# one correction gate per output) and cancels heavily.
base = lc.sierpinski_circuit(64)
comp = lc.complement_transform(base.circuit)
print(f"\ncomplement of S_64: {lc.size_gates(comp) - base.cost} extra gates, "
      f"verifies: {lc.verify(comp, lc.complement(lc.gen_sierpinski(64)))}")

# Over the Boolean semiring the set-intersection matrix factors through
# binary codes, so its OR circuits are linear size; its complement has
# the same rows as the Sierpinski matrix, whose OR optimum is
# (n/2)log2(n) -- a Θ(log n) gap between a matrix and its complement.
print("\nn      K_n OR gates   S_n bound   measured gap")
n = 64
while n <= 1024:
    k = lc.setintersection_or_circuit(n)
    print(f"{n:<6} {k.cost:<13} {lc.sierpinski_lb(n):<11} "
          f"{lc.sierpinski_lb(n) / k.cost:.2f}x")
    n *= 2
perm = lc.setint_row_alignment(8)
same = sorted(lc.complement(lc.gen_setintersection(8))._data) == sorted(lc.gen_sierpinski(8)._data)
print("complement(K_8) rows = S_8 rows as multisets:", same, "| row map:", perm)
