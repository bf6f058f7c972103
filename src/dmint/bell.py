"""Partial (incomplete) Bell polynomials B_{n,k} and their evaluation.

B_{n,k}(y_1,...,y_{n-k+1}) sums n!/prod(j_i!) * prod((y_i/i!)**j_i) over all
non-negative multi-indices j with sum(j_i) == k and sum(i*j_i) == n.  That
enumeration drives numeric and exact symbolic evaluation.  The coefficient
table B_{n,k}(g', g'', ...) used to change variables in linear ODE
coefficient systems comes instead from the recurrence that the chain rule
gives for the derivatives of f(g(x)).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .symseries import GeneralizedPolynomial, GeneralizedRational, substitution_polynomial


@dataclass(frozen=True)
class PartitionIndex:
    """One multi-index j_1..j_{n-k+1} satisfying both defining constraints."""

    n: int
    k: int
    j: tuple[int, ...]

    def coefficient(self) -> int:
        """n! / (prod j_i! * prod (i!)**j_i), always a positive integer."""
        denom = 1
        for i, ji in enumerate(self.j, start=1):
            denom *= factorial(ji) * factorial(i) ** ji
        quotient, remainder = divmod(factorial(self.n), denom)
        if remainder:
            raise ArithmeticError("non-integer multinomial coefficient for %r" % (self,))
        return quotient


def enumerate_indices(n: int, k: int) -> list[PartitionIndex]:
    """All multi-indices of B_{n,k}, in ascending lexicographic order of j."""
    if not (isinstance(n, int) and isinstance(k, int) and 1 <= k <= n):
        raise ValueError("need integers 1 <= k <= n, got n=%r k=%r" % (n, k))
    length = n - k + 1
    out: list[PartitionIndex] = []

    def extend(prefix: list[int], count: int, weight: int):
        i = len(prefix) + 1
        if i == length:
            last = k - count
            if last >= 0 and weight + i * last == n:
                out.append(PartitionIndex(n, k, tuple(prefix + [last])))
            return
        limit = min(k - count, (n - weight) // i)
        for ji in range(limit + 1):
            extend(prefix + [ji], count + ji, weight + i * ji)

    extend([], 0, 0)
    return out


def bell_eval(n: int, k: int, y):
    """Evaluate B_{n,k} at y_1..y_{n-k+1}.

    Works for any values supporting +, * and integer powers: floats,
    Fractions, or GeneralizedRational arguments.
    """
    y = list(y)
    if len(y) != n - k + 1:
        raise ValueError("B_{%d,%d} takes %d arguments, got %d" % (n, k, n - k + 1, len(y)))
    total = None
    for index in enumerate_indices(n, k):
        term = index.coefficient()
        for i, ji in enumerate(index.j):
            if ji:
                term = term * y[i] ** ji
        total = term if total is None else total + term
    return total


def l_matrix(g: GeneralizedPolynomial, m: int) -> dict[tuple[int, int], GeneralizedRational]:
    """Table L[n,k] = B_{n,k}(g', g'', ..., g^(n-k+1)) for 1 <= k <= n <= m.

    g must pass :func:`dmint.symseries.substitution_polynomial` and have
    degree >= 1.  The entries come from a recurrence on polynomials and
    equal :func:`bell_eval` at the derivatives of g exactly.  The diagonal
    satisfies L[k,k] = (g')**k.
    """
    g = substitution_polynomial(g)
    if g.lead_exponent < 1:
        raise ValueError("g must have degree at least 1")
    if m < 1:
        raise ValueError("m must be at least 1")
    # Differentiating f(g)^(n) = sum_k f^(k)(g) L[n,k] once more gives
    # L[n+1,k] = L[n,k]' + g' L[n,k-1], from L[0,0] = 1.
    gprime, zero = g.derivative(), GeneralizedPolynomial.zero()
    row, table = [GeneralizedPolynomial.one()], {}
    for n in range(1, m + 1):
        row = [zero] + [(row[k].derivative() if k < n else zero) + gprime * row[k - 1]
                        for k in range(1, n + 1)]
        table.update({(n, k): GeneralizedRational(row[k]) for k in range(1, n + 1)})
    return table
