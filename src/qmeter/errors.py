"""Exception hierarchy shared by all qmeter modules."""


class QmeterError(Exception):
    """Base class for all qmeter errors."""


class ShapeMismatch(QmeterError):
    """Matrix shapes are incompatible with the requested operation."""


class DimensionMismatch(QmeterError):
    """A state vector and a device act on different Hilbert-space dimensions."""


class NotHermitian(QmeterError):
    """Input matrix violates the Hermitian symmetry tolerance."""


class NotUnitary(QmeterError):
    """Input matrix violates the unitarity tolerance."""


class NoConvergence(QmeterError):
    """A LAPACK decomposition reported that it did not converge."""


class IncompleteDevice(QmeterError):
    """Kraus operators fail the completeness relation.

    Attributes:
        defect: Frobenius norm of (sum of effects - identity).
        tolerance: the bound it exceeded.

    ``source`` names where the tolerance came from, for the message.
    """

    def __init__(self, defect, tolerance, source=None):
        self.defect = float(defect)
        self.tolerance = float(tolerance)
        limit = f" exceeds tolerance {self.tolerance:g}" + (f" from {source}" if source else "")
        super().__init__(f"effects do not sum to identity (defect {self.defect:.6g}{limit})")


class OutcomeOutOfRange(QmeterError):
    """Outcome index lies outside 1..n."""


class ZeroProbabilityOutcome(QmeterError):
    """Conditioning on an outcome whose probability is below the floor."""


class OutOfDomain(QmeterError):
    """A parameter lies outside its mathematical domain."""


class InternalConsistencyError(QmeterError):
    """A quantity violated a bound that valid inputs guarantee (likely corrupted input)."""


class DeviceSpecError(QmeterError):
    """A device or state specification file is malformed."""
