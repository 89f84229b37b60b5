"""Exception hierarchy for bornlab.

An error that locates its failure carries it as `hit`: the pair
(index, value) that `Matrix.first_witness` returns, with index a tuple of
1-based positions and value the nonzero Fraction found there.  An error
with no location (a degenerate form, subspaces that do not decompose the
space, a syntax error) has hit None.
"""

from __future__ import annotations


class BornlabError(Exception):
    """Base class for all bornlab errors; hit is the failure's (index, value), or None."""

    def __init__(self, *args, hit=None):
        super().__init__(*args)
        self.hit = hit


class DimensionMismatchError(BornlabError):
    pass


class SingularMatrixError(BornlabError):
    """Matrix inversion or solving hit a zero determinant."""


class NotSymmetricError(BornlabError):
    pass


class DegenerateFormError(BornlabError):
    """A bilinear form required to be non-degenerate is singular."""


class JacobiViolationError(BornlabError):
    """Structure constants fail the Jacobi identity: hit is ((i, j, k, l), the nonzero Jacobi sum)."""

    def __init__(self, hit):
        super().__init__("Jacobi identity fails at (i,j,k,l)={}: defect {}".format(*hit), hit=hit)


class NotInvolutionError(BornlabError):
    def __init__(self, hit):
        super().__init__("endomorphism does not square to the identity", hit=hit)


class TrivialInvolutionError(BornlabError):
    pass


class NotIsotropicError(BornlabError):
    def __init__(self, which, hit):
        self.which = which
        super().__init__("{} is not isotropic: omega{} = {}".format(which, *hit), hit=hit)


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
        super().__init__("d{}{} = {} != 0".format(form_name, *hit), hit=hit)


class HypothesisFailureError(BornlabError):
    def __init__(self, which, hit=None):
        self.which = which
        super().__init__(f"hypothesis failure: {which}", hit=hit)


class NotCompatibleError(BornlabError):
    def __init__(self, hit, message=""):
        super().__init__(message or "incompatible isomorphism, witness {}: {}".format(*hit), hit=hit)


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
