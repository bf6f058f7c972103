"""Exact ODE-coefficient composition and D-transformation integral acceleration.

The package namespace is lazy (PEP 562): ``import dmint`` loads no
submodule, and each name below loads its own module on first use.  The
exact half (``symseries``, ``compose``) and the parser (``expr``)
do not load numpy; the numeric names (jets, quadrature over the fixed
32-point Gauss-Legendre rule, the D^(m) transformation) do.  The order of
a rational function at infinity is ``GeneralizedRational.lead_exponent``
with ``integer_step``, read from the canonical pair.  ``collect_counts()``
counts dmint's own work in a block: parses, sweeps, row walks, products.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "symseries": (
        "GeneralizedPolynomial",
        "GeneralizedRational",
        "RationalParseError",
        "compose_poly",
        "parse_rational",
        "to_text",
    ),
    "compose": (
        "B1Report",
        "CompositionResult",
        "OdeCoefficients",
        "compose_ode",
        "l_matrix",
        "rho_bounds",
        "verify_b1_membership",
    ),
    "expr": ("ExprSyntaxError", "SingularSystemError", "parse"),
    "exprtaylor": ("ExprDomainError", "derivatives", "evaluate"),
    "quad": (
        "CumulativeIntegrals",
        "QuadratureError",
        "SampleGrid",
        "cumulative",
        "grid_from_descriptor",
    ),
    "dtransform": (
        "ExtrapolationTable",
        "TableEntry",
        "d_sequence",
        "d_sequences",
        "friendly_exponents",
    ),
    "_stats": ("collect_counts",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF) + sorted(m for m in _EXPORTS if not m.startswith("_"))


def __getattr__(name: str):
    if name in _EXPORTS:
        # A submodule; importing it also binds it on the package.
        return import_module("." + name, __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
