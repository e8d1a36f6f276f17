"""Sum-of-squares certificates and GNS counterexamples for noncommutative polynomials."""

from .words import (
    GROUP,
    MONOID,
    concat,
    count_words,
    enumerate_words,
    format_word,
    involute,
    parse_word,
)
from .poly import NCPoly, OperatorTuple, poly_eval
from .certify import CertifyOutcome, certify, refuse_certificate, refuse_witness

__all__ = [
    "GROUP",
    "MONOID",
    "concat",
    "count_words",
    "enumerate_words",
    "format_word",
    "involute",
    "parse_word",
    "NCPoly",
    "OperatorTuple",
    "poly_eval",
    "CertifyOutcome",
    "certify",
    "refuse_certificate",
    "refuse_witness",
]
