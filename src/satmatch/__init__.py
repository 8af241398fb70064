"""Stable-matching saturation analysis for bipartite markets.

The question this package answers: given only the compatibility structure
of a two-sided market, is one side guaranteed a partner in *every* stable
matching, no matter what preferences the participants report? The
structural verdicts live in :mod:`satmatch.analysis`, the matching engine
in :mod:`satmatch.engine`, and the class-based market model in
:mod:`satmatch.compatibility`. ``satmatch.cli`` provides the command-line
front end and :mod:`satmatch.harness` the exhaustive verification suites.
"""

__version__ = "0.1.0"
