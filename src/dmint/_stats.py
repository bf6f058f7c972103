"""Counts of dmint's own events, kept only while a collector is open.

``with dmint.collect_counts() as counts:`` opens a dict that holds every
name in ``NAMES`` at 0, and each event inside the block adds to its name;
another name raises KeyError.  With no collector open, :func:`count` costs
one ``ContextVar`` read and a None check.  A collector belongs to its
thread or task, and a nested one counts its own block only.
"""

from contextlib import contextmanager
from contextvars import ContextVar

NAMES = (
    "expr.parse",  # integrand texts parsed
    "dtransform.sweeps",  # FS sweeps, one per batch of sequences
    "dtransform.row_walks",  # derivative-row walks that d_sequences takes,
    "dtransform.row_samples",  # and the samples they cover
    "dtransform.exact_sequences",  # sequences solved by the exact elimination
    "symseries.polynomial_products",
    "symseries.rational_products",  # each one two polynomial products
    "symseries.canonical_pairs",  # numerator/denominator pairs reduced
)

_open = ContextVar("dmint_counts", default=None)


def count(name: str, n: int = 1) -> None:
    counts = _open.get()
    if counts is not None:
        counts[name] += n


@contextmanager
def collect_counts():
    counts = dict.fromkeys(NAMES, 0)
    token = _open.set(counts)
    try:
        yield counts
    finally:
        _open.reset(token)
