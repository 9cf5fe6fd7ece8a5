"""Exact verification toolkit for positivity of q-series quotients.

Everything is integer arithmetic: polynomials are dense coefficient
tuples, quotients stay in factored q-integer form until expanded, and
division either succeeds exactly or reports NotDivisible.

The modules are the API; import each name from the module that defines
it, e.g. ``from qpositivity.harness import verify_quotient``.
"""

__version__ = "0.1.0"
