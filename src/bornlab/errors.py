"""Exception hierarchy for bornlab.

An error that locates its failure carries it as `hit`: the pair
(index, value) that `Matrix.first_witness` returns, with index a tuple of
1-based positions and value the nonzero Fraction found there.  An error
with no location (a degenerate form, subspaces that do not decompose the
space, a syntax error) has hit None.

Every rational that bornlab prints, in a message or a report, goes through
`format_rational`, which prints integers of any size exactly.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction


def format_rational(x) -> str:
    """The rational x as "p/q", or "n" when it is an integer, exactly.

    str(int) refuses integers longer than the interpreter's digit limit
    (sys.get_int_max_str_digits); str(Decimal(int)) is exact and has no
    such limit.
    """
    x = Fraction(x)
    text = str(Decimal(x.numerator))
    return text if x.denominator == 1 else f"{text}/{Decimal(x.denominator)}"


def shown(value) -> str:
    """repr(value) for a message, with an int printed by `format_rational`; a
    text over 60 characters is cut there and gives its length, so a message
    stays one short line whatever the model holds."""
    text = format_rational(value) if type(value) is int else repr(value)
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} characters)"


def _located(hit):
    """A hit's (index, value) with the value as text."""
    index, value = hit
    return index, format_rational(value)


class BornlabError(Exception):
    """Base class for all bornlab errors; hit is the failure's (index, value), or None."""

    def __init__(self, *args, hit=None):
        super().__init__(*args)
        self.hit = hit

    def again(self) -> "BornlabError":
        """A copy to raise in place of a kept error, which raised would keep the frames it passed through."""
        error = BaseException.__new__(type(self), *self.args)
        error.__dict__.update(self.__dict__)
        return error


class DimensionMismatchError(BornlabError):
    pass


class SingularMatrixError(BornlabError):
    """Matrix inversion or solving hit a zero determinant."""


class NotSymmetricError(BornlabError):
    """A matrix lacks the symmetry, symmetric or antisymmetric, that its role requires."""


class DegenerateFormError(BornlabError):
    """A bilinear form required to be non-degenerate is singular."""


class JacobiViolationError(BornlabError):
    """Structure constants fail the Jacobi identity: hit is ((i, j, k, l), the nonzero Jacobi sum)."""

    def __init__(self, hit):
        super().__init__("Jacobi identity fails at (i,j,k,l)={}: defect {}".format(*_located(hit)), hit=hit)


class NotInvolutionError(BornlabError):
    def __init__(self, hit):
        super().__init__("endomorphism does not square to the identity", hit=hit)


class TrivialInvolutionError(BornlabError):
    pass


class NotIsotropicError(BornlabError):
    def __init__(self, which, hit):
        self.which = which
        super().__init__("{} is not isotropic: omega{} = {}".format(which, *_located(hit)), hit=hit)


class NotComplementaryError(BornlabError):
    pass


class AxiomFailureError(BornlabError):
    """A defining identity of a structure, named by which, fails exactly at hit."""

    def __init__(self, which, hit=None):
        self.which = which
        super().__init__(f"axiom failure: {which}", hit=hit)


class NotClosedError(BornlabError):
    def __init__(self, form_name, hit):
        self.form_name = form_name
        super().__init__("d{}{} = {} != 0".format(form_name, *_located(hit)), hit=hit)


class HypothesisFailureError(BornlabError):
    def __init__(self, which, hit=None):
        self.which = which
        super().__init__(f"hypothesis failure: {which}", hit=hit)


class NotCompatibleError(BornlabError):
    def __init__(self, hit, message=""):
        super().__init__(message or "incompatible isomorphism, witness {}: {}".format(*_located(hit)), hit=hit)


class NotIntegrableError(BornlabError):
    pass


class UnknownEntryError(BornlabError):
    pass


class UnknownNameError(BornlabError):
    pass


class ModelSyntaxError(BornlabError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
