"""Exception hierarchy for bornlab.

Every failure that a caller may want to catch carries enough data to
reconstruct an exact witness (indices are 1-based, values are Fractions).
"""

from __future__ import annotations


class BornlabError(Exception):
    """Base class for all bornlab errors."""


class DimensionMismatchError(BornlabError):
    pass


class SingularMatrixError(BornlabError):
    """Matrix inversion or solving hit a zero determinant."""


class NotSymmetricError(BornlabError):
    pass


class DegenerateFormError(BornlabError):
    """A bilinear form required to be non-degenerate is singular."""


class JacobiViolationError(BornlabError):
    """Structure constants fail the Jacobi identity.

    witness: (i, j, k, l) 1-based indices, value: the nonzero Jacobi sum.
    """

    def __init__(self, witness, value):
        self.witness = witness
        self.value = value
        super().__init__(f"Jacobi identity fails at (i,j,k,l)={witness}: defect {value}")


class NotInvolutionError(BornlabError):
    def __init__(self, defect):
        self.defect = defect
        super().__init__("endomorphism does not square to the identity")


class TrivialInvolutionError(BornlabError):
    pass


class NotIsotropicError(BornlabError):
    def __init__(self, which, witness, value):
        self.which = which
        self.witness = witness
        self.value = value
        super().__init__(f"{which} is not isotropic: omega{witness} = {value}")


class NotComplementaryError(BornlabError):
    pass


class AxiomFailureError(BornlabError):
    """A defining identity of a structure fails exactly.

    which: short name of the violated identity, defect: exact defect, a
    Matrix or a Trilinear whose first nonzero entry is the witness.
    """

    def __init__(self, which, defect=None):
        self.which = which
        self.defect = defect
        super().__init__(f"axiom failure: {which}")


class NotClosedError(BornlabError):
    def __init__(self, form_name, witness, value):
        self.form_name = form_name
        self.witness = witness
        self.value = value
        super().__init__(f"d{form_name}{witness} = {value} != 0")


class HypothesisFailureError(BornlabError):
    def __init__(self, which, defect=None):
        self.which = which
        self.defect = defect
        super().__init__(f"hypothesis failure: {which}")


class NotCompatibleError(BornlabError):
    def __init__(self, witness, value, message=""):
        self.witness = witness
        self.value = value
        super().__init__(message or f"incompatible isomorphism, witness {witness}: {value}")


class NotIntegrableError(BornlabError):
    pass


class UnknownEntryError(BornlabError):
    pass


class NotExportableError(BornlabError):
    """Catalog entry is a documentation stub without model data."""


class UnknownNameError(BornlabError):
    pass


class ModelSyntaxError(BornlabError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
