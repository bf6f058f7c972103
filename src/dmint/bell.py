"""Partial (incomplete) Bell polynomials B_{n,k} at the derivatives of g.

B_{n,k}(y_1,...,y_{n-k+1}) sums n!/prod(j_i!) * prod((y_i/i!)**j_i) over all
non-negative multi-indices j with sum(j_i) == k and sum(i*j_i) == n.  The
coefficient table B_{n,k}(g', g'', ...) used to change variables in linear
ODE coefficient systems comes from the recurrence that the chain rule
gives for the derivatives of f(g(x)), not from that enumeration.
"""

from __future__ import annotations

from .symseries import GeneralizedPolynomial, GeneralizedRational, substitution_polynomial


def l_matrix(g: GeneralizedPolynomial, m: int) -> dict[tuple[int, int], GeneralizedRational]:
    """Table L[n,k] = B_{n,k}(g', g'', ..., g^(n-k+1)) for 1 <= k <= n <= m.

    g must pass :func:`dmint.symseries.substitution_polynomial` and have
    degree >= 1.  The entries come from a recurrence on polynomials and
    equal B_{n,k} at the derivatives of g exactly.  The diagonal satisfies
    L[k,k] = (g')**k.  Raises SizeBudgetError for work beyond the size
    budget.
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
