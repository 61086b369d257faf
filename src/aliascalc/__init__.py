"""Compositional may-alias analysis over a family of toy instruction
languages, with a concrete reference interpreter for validating results.

The package imports none of its modules: import the one you need
(``aliascalc.engine``, ``aliascalc.lang``, ``aliascalc.relations``, ...),
so a caller loads only the code it runs."""

__version__ = "0.1.0"
